//! Intra-solve parallelism: the per-call context every engine entry point
//! takes, its binding to the machine-wide scheduler, and the shared
//! incumbent / cooperative abort flag that split subtrees coordinate on.
//!
//! The paper's work-avoidance thesis extends across threads: a bound that
//! is published the instant any worker improves it prunes *every* worker's
//! subtree. Two primitives carry that idea into the dense engines:
//!
//! * `SharedBest` — the incumbent of one parallel MC solve. The size
//!   lives in an `AtomicUsize` read with `Relaxed` loads on every node
//!   expansion (the same discipline as the solver-global
//!   `lazymc_core::Incumbent`); the witness clique sits behind a mutex
//!   touched only on improvements. Every successful publication is
//!   counted, surfaced as the `incumbent_broadcasts` statistic.
//! * `SearchAbort` — the k-VC analogue. A decision search has no
//!   incumbent to tighten; instead the first worker to find a cover
//!   triggers the flag and every other worker's subtree terminates at its
//!   next node.
//!
//! The only parallel runtime is `lazymc_sched`: an engine call bound to a
//! pool through [`SchedCtx`] turns its top branch levels into claimable
//! scope units in a pooled task arena (tasks are generated once per call
//! and re-split on demand, so a lock-free deque would be ceremony). The
//! sequential kernels stay byte-identical via zero-sized link types that
//! monomorphize the sharing away (width 1 *is* the sequential code).

use crate::live::LiveNodes;
use lazymc_sched::{SchedHandle, TaskMeta};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cooperative stop hook of a scheduler-run solve: polled once per
/// claimed subtree task, `true` means "halt the whole solve" (deadline
/// trip or cancellation). Kept as a plain closure so the solver never
/// learns the driver's deadline type.
pub type StopFn<'a> = &'a (dyn Fn() -> bool + Sync);

/// Binding of one engine call to the machine-wide scheduler: the pool,
/// the identity/urgency every subtree task of the call carries, the
/// nominal width (helpers recruited = `width - 1`), and the stop hook.
#[derive(Clone, Copy)]
pub struct SchedCtx<'a> {
    /// Handle onto the work-stealing pool that runs the subtree units.
    pub handle: &'a SchedHandle,
    /// Identity + urgency stamped on every unit this call submits.
    pub meta: TaskMeta,
    /// Nominal width; `<= 1` runs the sequential kernel.
    pub width: usize,
    /// Deadline / cancellation hook, polled once per claimed unit.
    pub stop: Option<StopFn<'a>>,
}

/// The per-call context of the three engine entry points
/// (`max_clique_search`, `max_clique_via_vc_search`,
/// `vertex_cover_search`): where statistics accumulate, the live
/// node-count sink, and the optional scheduler binding. The default is a
/// plain sequential call with nothing observed.
pub struct SolveCtx<'a, S> {
    /// Statistics merged into (never reset) by the call.
    pub stats: Option<&'a mut S>,
    /// Live node-count sink shared by every worker of the call.
    pub live: LiveNodes<'a>,
    /// Scheduler binding; `None` (or width ≤ 1) is the sequential kernel.
    pub sched: Option<SchedCtx<'a>>,
}

impl<S> Default for SolveCtx<'_, S> {
    fn default() -> Self {
        SolveCtx {
            stats: None,
            live: LiveNodes::NONE,
            sched: None,
        }
    }
}

impl<'a, S> SolveCtx<'a, S> {
    /// A sequential context accumulating into `stats`.
    pub fn with_stats(stats: Option<&'a mut S>) -> Self {
        SolveCtx {
            stats,
            ..SolveCtx::default()
        }
    }

    /// The scheduler binding, if this call may split at all (width ≥ 2).
    pub(crate) fn split(&self) -> Option<SchedCtx<'a>> {
        self.sched.filter(|s| s.width > 1)
    }
}

/// Locks ignoring poison. The solver's mutexes guard task arenas, stats
/// aggregates and winner slots that stay consistent across an unwind, so
/// one panicking scope unit must not cascade panics through every other
/// unit of the job.
pub(crate) fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`plock`]'s counterpart for consuming a mutex.
pub(crate) fn pinto<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// The shared incumbent of one parallel MC solve: best size (atomic, read
/// per node by every worker) plus the witness clique (mutex, written only
/// on improvements).
pub(crate) struct SharedBest {
    size: AtomicUsize,
    clique: Mutex<Vec<u32>>,
    broadcasts: AtomicU64,
    halt: AtomicBool,
}

impl SharedBest {
    /// An incumbent floored at `lb`: only cliques strictly larger are
    /// accepted (the caller's incumbent already covers `lb`).
    pub(crate) fn with_floor(lb: usize) -> Self {
        SharedBest {
            size: AtomicUsize::new(lb),
            clique: Mutex::new(Vec::new()),
            broadcasts: AtomicU64::new(0),
            halt: AtomicBool::new(false),
        }
    }

    /// Tells every worker sharing this incumbent to stop searching: a
    /// cancelled or deadline-tripped solve drains mid-subtree instead of
    /// finishing its current task. The incumbent found so far remains
    /// valid (it only ever holds real cliques).
    #[inline]
    pub(crate) fn halt(&self) {
        self.halt.store(true, Ordering::Relaxed);
    }

    /// Whether the solve was told to stop.
    #[inline]
    pub(crate) fn halted(&self) -> bool {
        self.halt.load(Ordering::Relaxed)
    }

    /// Current best size (floor included). `Relaxed`: staleness only costs
    /// a little extra search, never correctness.
    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }

    /// Pre-sizes the witness buffer so that publications of cliques up to
    /// `cap` vertices never allocate — the split driver calls this with
    /// the candidate-set size, keeping the whole worker steady state
    /// allocation-free.
    pub(crate) fn reserve(&self, cap: usize) {
        let mut guard = plock(&self.clique);
        let len = guard.len();
        guard.reserve(cap.saturating_sub(len));
    }

    /// Offers a candidate; returns whether it became the new incumbent.
    /// CAS-up first, so losing threads never take the lock.
    pub(crate) fn offer(&self, candidate: &[u32]) -> bool {
        let mut cur = self.size.load(Ordering::Relaxed);
        loop {
            if candidate.len() <= cur {
                return false;
            }
            match self.size.compare_exchange_weak(
                cur,
                candidate.len(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let mut guard = plock(&self.clique);
                    // A larger offer may have raced past between the CAS
                    // and the lock; never shrink the witness.
                    if candidate.len() > guard.len() {
                        guard.clear();
                        guard.extend_from_slice(candidate);
                    }
                    self.broadcasts.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// How many improvements were published to the other workers.
    pub(crate) fn broadcasts(&self) -> u64 {
        self.broadcasts.load(Ordering::Relaxed)
    }

    /// Copies the witness into `out` (cleared first); returns whether the
    /// incumbent ever rose above its floor.
    pub(crate) fn clique_into(&self, out: &mut Vec<u32>) -> bool {
        out.clear();
        let guard = plock(&self.clique);
        if guard.is_empty() {
            return false;
        }
        out.extend_from_slice(&guard);
        true
    }
}

/// Cooperative early-stop flag for parallel k-VC decision searches: the
/// first worker to find a cover triggers it; everyone else's subtree
/// terminates at the next node expansion.
#[derive(Default)]
pub(crate) struct SearchAbort(AtomicBool);

impl SearchAbort {
    /// Signals every cooperating worker to stop.
    #[inline]
    pub(crate) fn trigger(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the search was stopped. A `false` decision result obtained
    /// while this is `true` is *not* authoritative — another worker
    /// already succeeded.
    #[inline]
    pub(crate) fn triggered(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_best_is_monotone_and_floored() {
        let b = SharedBest::with_floor(2);
        assert_eq!(b.size(), 2);
        assert!(!b.offer(&[1, 2])); // not strictly better than the floor
        assert!(b.offer(&[1, 2, 3]));
        assert_eq!(b.size(), 3);
        assert!(!b.offer(&[7, 8, 9]));
        assert_eq!(b.broadcasts(), 1);
        let mut out = vec![99];
        assert!(b.clique_into(&mut out));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn unimproved_incumbent_reports_nothing() {
        let b = SharedBest::with_floor(5);
        let mut out = vec![1];
        assert!(!b.clique_into(&mut out));
        assert!(out.is_empty());
        assert_eq!(b.broadcasts(), 0);
    }

    #[test]
    fn concurrent_offers_keep_maximum() {
        let b = SharedBest::with_floor(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = &b;
                s.spawn(move || {
                    for n in 1..100usize {
                        let cand: Vec<u32> = (0..(n + t) as u32).collect();
                        b.offer(&cand);
                    }
                });
            }
        });
        assert_eq!(b.size(), 102);
        let mut out = Vec::new();
        assert!(b.clique_into(&mut out));
        assert_eq!(out.len(), 102);
    }

    #[test]
    fn abort_flag_latches() {
        let a = SearchAbort::default();
        assert!(!a.triggered());
        a.trigger();
        assert!(a.triggered());
        a.trigger();
        assert!(a.triggered());
    }

    #[test]
    fn poisoned_locks_stay_usable() {
        // A unit that panics while holding a lock must not make every
        // later lock of the same job panic too.
        let m = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(|| {
            let _g = m.lock();
            panic!("unit panicked mid-lock");
        });
        assert!(m.is_poisoned());
        *plock(&m) += 1;
        assert_eq!(pinto(m), 8);
    }
}
