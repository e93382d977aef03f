//! Systematic search — paper Algorithms 7 and 8.
//!
//! The exhaustive phase: every vertex whose coreness can still beat the
//! incumbent gets its right-neighbourhood searched. The order is the crux
//! of the work-avoidance story:
//!
//! 1. a cheap *probe* pass touches one vertex per degeneracy level (helps
//!    gap-heavy graphs lift the incumbent early);
//! 2. the main sweep walks coreness levels from high to low — *must*
//!    vertices first, then *may* vertices — processing all vertices of a
//!    level in parallel; as the incumbent grows, whole levels vanish.
//!
//! Each right-neighbourhood passes three advance filters before any
//! detailed search (Alg. 8): a coreness filter, then two rounds of
//! induced-degree filtering via `intersect-size-gt-bool`/`-val`. Only a few
//! neighbourhoods in a thousand survive (paper Table III); survivors are
//! solved by direct MC or by k-VC on the complement, chosen by density.

use crate::config::Config;
use crate::incumbent::Incumbent;
use crate::metrics::Counters;
use lazymc_graph::VertexId;
use lazymc_hopscotch::HopscotchSet;
use lazymc_intersect::{intersect_size_gt_bool, intersect_size_gt_val, intersect_size_plain};
use lazymc_lazygraph::LazyGraph;
use lazymc_sched::{SchedHandle, TaskMeta};
use lazymc_solver::bitset::{BitMatrix, Bitset};
use lazymc_solver::scratch::{Pool, SolverScratch};
use lazymc_solver::{
    max_clique_search, max_clique_via_vc_search, LiveNodes, McStats, SchedCtx, SolveCtx, VcStats,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Per-worker reusable buffers for one neighbourhood search: the filter
/// candidate lists, the extracted (and compacted) submatrices, and both
/// subgraph-solver arenas. Checked out of [`NEIGHBOR_SCRATCH`] per call,
/// so the whole systematic sweep reaches zero steady-state allocation —
/// buffers warmed by early neighbourhoods serve every later one.
#[derive(Default)]
struct NeighborScratch {
    solver: SolverScratch,
    n1: Vec<VertexId>,
    next: Vec<VertexId>,
    adj: BitMatrix,
    small: BitMatrix,
    map: Vec<u32>,
    within: Bitset,
    orig: Vec<VertexId>,
}

impl NeighborScratch {
    fn heap_bytes(&self) -> usize {
        self.solver.heap_bytes()
            + (self.n1.capacity()
                + self.next.capacity()
                + self.map.capacity()
                + self.orig.capacity())
                * 4
            + self.adj.heap_bytes()
            + self.small.heap_bytes()
            + self.within.heap_bytes()
    }
}

/// Arenas grown past this by an outlier neighbourhood (a huge `nn` means
/// O(nn²/8)-byte matrices) are dropped on return instead of pinned in the
/// static pool for the process lifetime — long-lived daemons must not pay
/// one pathological graph's high-water mark forever.
const MAX_RETAINED_ARENA_BYTES: usize = 8 << 20;

static NEIGHBOR_SCRATCH: Pool<NeighborScratch> =
    Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_ARENA_BYTES);

/// Wall-clock budget shared across the systematic search. When it expires,
/// no *new* neighbourhood search starts; `truncated` records whether any
/// work was actually skipped (i.e. whether the result may be inexact).
pub struct Deadline {
    expires: Option<Instant>,
    truncated: AtomicBool,
    /// Externally requested abort (job cancellation over HTTP): behaves
    /// exactly like an expired budget — no new search starts, the result
    /// reports itself truncated — so the solver needs no second code path.
    cancelled: AtomicBool,
}

impl Deadline {
    /// A deadline from an optional budget, starting now.
    pub fn starting_now(budget: Option<std::time::Duration>) -> Self {
        Deadline {
            expires: budget.map(|b| Instant::now() + b),
            truncated: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Unlimited.
    pub fn none() -> Self {
        Self::starting_now(None)
    }

    /// Expires the deadline immediately, whatever its budget. Safe to call
    /// from any thread while a solve is running against it: no new
    /// neighbourhood search starts, and a split search halts its running
    /// subtrees at their next unit claim.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`Deadline::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    #[inline]
    fn expired(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.expires {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// Checks expiry and, if expired, records that work was skipped.
    #[inline]
    fn should_skip(&self) -> bool {
        if self.expired() {
            self.truncated.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Whether any search was skipped because the budget ran out.
    pub fn truncated(&self) -> bool {
        self.truncated.load(Ordering::Relaxed)
    }

    /// The absolute expiry instant, if the deadline has a budget at all.
    /// The service queue orders jobs by this (deadline-earliest wins a
    /// priority tie), so the number the scheduler races against and the
    /// number admission sorts by are one and the same.
    pub fn expires_at(&self) -> Option<Instant> {
        self.expires
    }
}

/// Binding of one solve to the machine-wide scheduler: the pool handle,
/// the identity/urgency metadata every subtree task of the job carries
/// (so stolen subtrees keep their job's deadline and priority wherever
/// they run), and the job's nominal width — the helper count one scope
/// may recruit, from [`Config::sched_width`], not a reserved share:
/// actual parallelism is whatever the pool has spare at claim time.
#[derive(Clone)]
pub struct JobSched {
    /// Handle onto the machine-wide work-stealing pool.
    pub handle: SchedHandle,
    /// Identity + urgency stamped on every task this solve submits.
    pub meta: TaskMeta,
    /// Nominal intra-solve width (≥ 1); `1` never submits tasks at all.
    pub width: usize,
}

/// Shared context of one systematic sweep, handed to every neighbourhood
/// search: the configuration, the global incumbent, the counters, the
/// deadline, the job's scheduler binding — plus the *intra-solve* width
/// chosen per phase by the work-splitting rule.
pub struct SearchCtx<'a> {
    pub cfg: &'a Config,
    pub inc: &'a Incumbent,
    pub counters: &'a Counters,
    pub deadline: &'a Deadline,
    /// The pool the sweep and every subtree split run on.
    pub sched: &'a JobSched,
    /// Width the detailed subgraph search of this call may use. `1` runs
    /// the deterministic sequential kernels; above that, the dense MC and
    /// k-VC engines split their top branch levels into scope units on
    /// `sched` sharing one incumbent.
    pub solver_threads: usize,
}

/// Runs `f` over `items` as one scope on the job's pool. The second
/// argument handed to `f` is the intra-solve width: when a phase has
/// fewer pending vertices than the job's width, vertex-level parallelism
/// cannot keep the crew busy, so the spare width is pushed *inside* each
/// subgraph solve (subtree-level splitting); otherwise solves stay
/// sequential inside and the vertices themselves fan out. This is the
/// "split only when fewer pending vertices than idle workers" rule.
fn sweep_parallel(items: Vec<VertexId>, js: &JobSched, f: impl Fn(VertexId, usize) + Sync) {
    let pending = items.len();
    if pending == 0 {
        return;
    }
    let workers = js.width.max(1);
    let inner = if pending < workers {
        (workers / pending).max(1)
    } else {
        1
    };
    if workers <= 1 || pending == 1 {
        for v in items {
            f(v, inner);
        }
        return;
    }
    // The level's vertices become claimable units of one scope on the
    // machine-wide pool: idle workers of *any* job steal them one vertex
    // at a time, and the scope owner claims alongside, so a level never
    // waits on pool capacity.
    js.handle
        .scope(js.meta, workers - 1, pending, &|_sc, i| f(items[i], inner));
}

/// Runs the systematic search (paper Algorithm 7) on the job's pool: both
/// the level sweeps and the intra-solve subtree splits run as stealable
/// units carrying the job's deadline and priority. Width 1 runs every
/// level as a plain loop over the sequential kernels.
#[allow(clippy::too_many_arguments)]
pub fn systematic_search(
    lg: &LazyGraph<'_>,
    levels: &[(u32, u32)],
    degeneracy: u32,
    cfg: &Config,
    inc: &Incumbent,
    counters: &Counters,
    deadline: &Deadline,
    sched: &JobSched,
) {
    let deg = degeneracy as usize;
    let ctx = |solver_threads| SearchCtx {
        cfg,
        inc,
        counters,
        deadline,
        sched,
        solver_threads,
    };
    // Phase 1: one probe per degeneracy level, from the incumbent level up.
    // Probed vertices are remembered so the main sweep does not search the
    // same right-neighbourhood twice.
    let probed: Vec<AtomicBool> = if cfg.low_core_probes {
        (0..lg.num_vertices())
            .map(|_| AtomicBool::new(false))
            .collect()
    } else {
        Vec::new()
    };
    if cfg.low_core_probes {
        let floor = inc.size().min(deg);
        let probes: Vec<VertexId> = (floor..=deg)
            .filter_map(|k| {
                let (start, end) = levels[k];
                (start < end).then(|| {
                    probed[start as usize].store(true, Ordering::Relaxed);
                    start
                })
            })
            .collect();
        sweep_parallel(probes, sched, |v, inner| {
            if !deadline.should_skip() {
                neighbor_search(lg, v, &ctx(inner));
            }
        });
    }
    // Phase 2: high-to-low level sweep, parallel within each level. The
    // incumbent only grows, so once a level falls below it we can stop.
    for k in (1..=deg).rev() {
        if k < inc.size() || deadline.should_skip() {
            break;
        }
        let (start, end) = levels[k];
        let vs: Vec<VertexId> = (start..end)
            .filter(|&v| probed.is_empty() || !probed[v as usize].load(Ordering::Relaxed))
            .collect();
        sweep_parallel(vs, sched, |v, inner| {
            // Re-check against the *current* incumbent: it may have grown
            // since the level test.
            if (lg.coreness(v) as usize) >= inc.size() && !deadline.should_skip() {
                neighbor_search(lg, v, &ctx(inner));
            }
        });
    }
}

/// Searches the right-neighbourhood of relabelled vertex `v`
/// (paper Algorithm 8).
pub fn neighbor_search(lg: &LazyGraph<'_>, v: VertexId, ctx: &SearchCtx<'_>) {
    NEIGHBOR_SCRATCH.with(|scr| neighbor_search_scratch(lg, v, ctx, scr));
}

fn neighbor_search_scratch(
    lg: &LazyGraph<'_>,
    v: VertexId,
    ctx: &SearchCtx<'_>,
    scr: &mut NeighborScratch,
) {
    let SearchCtx {
        cfg,
        inc,
        counters,
        deadline,
        sched,
        solver_threads,
    } = *ctx;
    let t0 = Instant::now();
    let cstar = inc.size();
    counters.add(&counters.retained_coreness, 1);

    // --- Filter 1: coreness of the neighbors themselves ------------------
    scr.n1.clear();
    scr.n1.extend(
        lg.right_sorted(v)
            .iter()
            .copied()
            .filter(|&u| (lg.coreness(u) as usize) >= cstar),
    );
    if scr.n1.len() < cstar {
        counters.add(&counters.filter_ns, t0.elapsed().as_nanos() as u64);
        return;
    }
    counters.add(&counters.retained_f1, 1);

    // A clique of size cstar+1 through v needs every member to see strictly
    // more than cstar−2 *other* members inside N (u and v complete the
    // count). For cstar < 2 the threshold is negative, i.e. vacuous: the
    // degree filters keep everything.
    let theta = if cstar >= 2 { Some(cstar - 2) } else { None };

    // --- Induced-degree filter rounds (Alg. 8 filters 2 and 3) -----------
    // All rounds but the last use the boolean early-exit kernel; the final
    // round uses the counting kernel so the edge estimate m̂ comes out of
    // it. The candidate set is the probed (B) side; a hash table is built
    // only when it is large enough to out-cost binary search, and the
    // kernels always scan the smaller side as A. The survivor lists
    // ping-pong between two pooled buffers.
    let rounds = cfg.filter_rounds.max(1);
    let mut m_hat = 0u64;
    for round in 0..rounds {
        let last = round + 1 == rounds;
        {
            let NeighborScratch { n1: cand, next, .. } = scr;
            let set = CandSet::new(cand);
            next.clear();
            if !last {
                if let Some(theta) = theta {
                    for &u in cand.iter() {
                        if induced_degree_gt(lg, u, cand, &set, theta, cfg) {
                            next.push(u);
                        }
                    }
                } else {
                    next.extend_from_slice(cand);
                }
            } else {
                m_hat = 0;
                for &u in cand.iter() {
                    if let Some(d) = induced_degree_count(lg, u, cand, &set, theta, cfg) {
                        next.push(u);
                        m_hat += d as u64;
                    }
                }
            }
        }
        std::mem::swap(&mut scr.n1, &mut scr.next);
        if round == 0 && scr.n1.len() >= cstar {
            counters.add(&counters.retained_f2, 1);
        }
        if scr.n1.len() < cstar {
            counters.add(&counters.filter_ns, t0.elapsed().as_nanos() as u64);
            return;
        }
    }
    counters.add(&counters.retained_f3, 1);
    let n3 = &scr.n1;

    // --- Algorithmic choice by estimated density (Alg. 8 line 14) --------
    // m̂ was counted against the previous round's set ⊇ N3, so the ratio
    // can exceed 1; clamp so that φ = 1 reliably means "always direct MC".
    let nn = n3.len();
    let density = if nn > 1 {
        (m_hat as f64 / (nn as f64 * (nn - 1) as f64)).min(1.0)
    } else {
        0.0
    };

    // Cut out the induced subgraph G[N] as a bit matrix. From here on we
    // are in local index space 0..nn (positions within n3).
    extract_submatrix_into(lg, n3, &mut scr.adj);
    let adj = &scr.adj;

    // Optional extension (paper §V-A): MC-BRB-style iterated reduction on
    // the extracted subgraph before the detailed search.
    scr.within.reset_full(nn);
    if cfg.subgraph_reduction {
        let removed =
            lazymc_solver::mc::reduce_candidates(adj, &mut scr.within, cstar.saturating_sub(1));
        counters.add(&counters.reduced_vertices, removed as u64);
        if scr.within.len() < cstar {
            counters.add(&counters.filter_ns, t0.elapsed().as_nanos() as u64);
            return;
        }
    }

    let filter_elapsed = t0.elapsed().as_nanos() as u64;
    counters.add(&counters.filter_ns, filter_elapsed);
    if deadline.should_skip() {
        return;
    }

    // A clique K ⊆ N together with v gives |K|+1, so beat the incumbent iff
    // |K| > cstar − 1.
    let lb = cstar.saturating_sub(1);
    // The engines' scheduler binding at this call's width: 1 runs the
    // deterministic sequential kernels; above that, the engines split
    // their top branch levels into scope units against a shared
    // incumbent, polling the stop hook once per claimed unit so a
    // deadline trip or cancellation drains every subtree of the job
    // wherever it is executing.
    let stop = || deadline.should_skip();
    let binding = SchedCtx {
        handle: &sched.handle,
        meta: sched.meta,
        width: solver_threads.max(1),
        stop: Some(&stop),
    };
    let t1 = Instant::now();
    let within = &scr.within;
    let clique = &mut scr.solver.clique;
    let found = if density > cfg.density_threshold {
        counters.add(&counters.searched_kvc, 1);
        let mut st = VcStats::default();
        // Live observers see vc_nodes move mid-search; the kernel records
        // flushed batches in `st.sampled` so the residual add below keeps
        // the final total exact.
        let ctx = SolveCtx {
            stats: Some(&mut st),
            live: LiveNodes::new(&counters.vc_nodes),
            sched: Some(binding),
        };
        // The k-VC engine works on whole matrices; compact when the
        // reduction removed vertices.
        let compact = within.len() < nn;
        if compact {
            compact_matrix_into(adj, within, &mut scr.small, &mut scr.map);
        }
        let m = if compact { &scr.small } else { adj };
        let r = max_clique_via_vc_search(m, lb, &mut scr.solver.vc, clique, ctx);
        if r && compact {
            // translate compacted indices back to positions in n3
            for i in clique.iter_mut() {
                *i = scr.map[*i as usize];
            }
        }
        counters.add(&counters.vc_nodes, st.nodes - st.sampled);
        counters.add(&counters.vc_reductions, st.reductions);
        counters.add(&counters.split_tasks, st.split_tasks);
        counters.add(&counters.steals, st.steals);
        counters.add(&counters.incumbent_broadcasts, st.incumbent_broadcasts);
        counters.add(&counters.kvc_ns, t1.elapsed().as_nanos() as u64);
        r
    } else {
        counters.add(&counters.searched_mc, 1);
        let mut st = McStats::default();
        let ctx = SolveCtx {
            stats: Some(&mut st),
            live: LiveNodes::new(&counters.mc_nodes),
            sched: Some(binding),
        };
        let r = max_clique_search(adj, within, lb, &mut scr.solver.mc, clique, ctx);
        counters.add(&counters.mc_nodes, st.nodes - st.sampled);
        counters.add(&counters.split_tasks, st.split_tasks);
        counters.add(&counters.steals, st.steals);
        counters.add(&counters.incumbent_broadcasts, st.incumbent_broadcasts);
        counters.add(&counters.mc_ns, t1.elapsed().as_nanos() as u64);
        r
    };

    if found {
        let order = lg.order();
        scr.orig.clear();
        scr.orig
            .extend(clique.iter().map(|&i| order.to_original(n3[i as usize])));
        scr.orig.push(order.to_original(v));
        debug_assert!(lg.original_graph().is_clique(&scr.orig));
        inc.offer(&scr.orig);
    }
}

/// Compacts `adj` to the vertices of `within`, writing the smaller matrix
/// into `small` and the local→original index map into `map` (both reused).
fn compact_matrix_into(
    adj: &BitMatrix,
    within: &Bitset,
    small: &mut BitMatrix,
    map: &mut Vec<u32>,
) {
    map.clear();
    map.extend(within.iter().map(|i| i as u32));
    small.reset(map.len());
    for (i, &oi) in map.iter().enumerate() {
        for (j, &oj) in map.iter().enumerate().skip(i + 1) {
            if adj.has_edge(oi as usize, oj as usize) {
                small.add_edge(i, j);
            }
        }
    }
}

/// Candidate-set membership: a real hash table when the set is large, the
/// sorted slice itself below that (hash construction would dominate the
/// handful of probes it serves).
enum CandSet<'a> {
    Small(&'a [VertexId]),
    Large(HopscotchSet),
}

/// Above this size, probing pays for building a hopscotch table.
const HASH_CUTOFF: usize = 64;

impl<'a> CandSet<'a> {
    fn new(sorted: &'a [VertexId]) -> Self {
        if sorted.len() > HASH_CUTOFF {
            CandSet::Large(sorted.iter().collect())
        } else {
            CandSet::Small(sorted)
        }
    }
}

impl lazymc_intersect::Membership for CandSet<'_> {
    #[inline]
    fn contains_key(&self, key: u32) -> bool {
        match self {
            CandSet::Small(s) => s.binary_search(&key).is_ok(),
            CandSet::Large(h) => h.contains(key),
        }
    }
    #[inline]
    fn size(&self) -> usize {
        match self {
            CandSet::Small(s) => s.len(),
            CandSet::Large(h) => h.len(),
        }
    }
}

/// Decides `|N(u) ∩ cand| > theta`, scanning whichever side is smaller.
#[inline]
fn induced_degree_gt(
    lg: &LazyGraph<'_>,
    u: VertexId,
    cand: &[VertexId],
    cand_set: &CandSet<'_>,
    theta: usize,
    cfg: &Config,
) -> bool {
    let nu = lg.sorted(u);
    if nu.len() <= cand.len() {
        // scan u's (smaller) neighbourhood against the candidate set
        if cfg.early_exit {
            intersect_size_gt_bool(nu, cand_set, theta, cfg.second_exit)
        } else {
            intersect_size_plain(nu, cand_set) > theta
        }
    } else {
        // scan the (smaller) candidate set against u's sorted neighbourhood
        let b = lazymc_intersect::SortedSlice(nu);
        if cfg.early_exit {
            intersect_size_gt_bool(cand, &b, theta, cfg.second_exit)
        } else {
            intersect_size_plain(cand, &b) > theta
        }
    }
}

/// Computes `|N(u) ∩ cand|` if it exceeds `theta` (always, when `theta` is
/// `None`), scanning whichever side is smaller.
#[inline]
fn induced_degree_count(
    lg: &LazyGraph<'_>,
    u: VertexId,
    cand: &[VertexId],
    cand_set: &CandSet<'_>,
    theta: Option<usize>,
    cfg: &Config,
) -> Option<usize> {
    let nu = lg.sorted(u);
    if nu.len() <= cand.len() {
        match (theta, cfg.early_exit) {
            (Some(t), true) => intersect_size_gt_val(nu, cand_set, t).filter(|&d| d > t),
            (Some(t), false) => {
                let d = intersect_size_plain(nu, cand_set);
                (d > t).then_some(d)
            }
            (None, _) => Some(intersect_size_plain(nu, cand_set)),
        }
    } else {
        let b = lazymc_intersect::SortedSlice(nu);
        match (theta, cfg.early_exit) {
            (Some(t), true) => intersect_size_gt_val(cand, &b, t).filter(|&d| d > t),
            (Some(t), false) => {
                let d = intersect_size_plain(cand, &b);
                (d > t).then_some(d)
            }
            (None, _) => Some(intersect_size_plain(cand, &b)),
        }
    }
}

/// Builds the dense adjacency of the subgraph induced by the sorted
/// relabelled vertex list `members`, in local (positional) index space,
/// into the reused `adj`. Each row is produced by merging the member list
/// with the member's lazy sorted neighbourhood.
pub(crate) fn extract_submatrix_into(
    lg: &LazyGraph<'_>,
    members: &[VertexId],
    adj: &mut BitMatrix,
) {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    let nn = members.len();
    adj.reset(nn);
    for (i, &u) in members.iter().enumerate() {
        let nbrs = lg.sorted(u);
        if nbrs.len() > 8 * nn {
            // strongly skewed (hub neighbourhood): probe per member instead
            // of merging through the whole row
            for (a, &m) in members.iter().enumerate().skip(i + 1) {
                if nbrs.binary_search(&m).is_ok() {
                    adj.add_edge(i, a);
                }
            }
            continue;
        }
        // two-pointer merge over (members, nbrs), recording local positions
        let (mut a, mut b) = (0usize, 0usize);
        while a < nn && b < nbrs.len() {
            match members[a].cmp(&nbrs[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    if a > i {
                        adj.add_edge(i, a);
                    }
                    a += 1;
                    b += 1;
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lazymc_graph::{gen, CsrGraph};
    use lazymc_order::{coreness_degree_order, kcore_sequential, relabel::level_ranges};

    struct Fixture<'a> {
        lg: LazyGraph<'a>,
        levels: Vec<(u32, u32)>,
        degeneracy: u32,
    }

    fn fixture<'a>(
        g: &'a CsrGraph,
        ord: &'a lazymc_order::VertexOrder,
        core: &'a [u32],
        degeneracy: u32,
        inc: &Incumbent,
    ) -> Fixture<'a> {
        let lg = LazyGraph::new(g, ord, core, inc.size_cell());
        let levels = level_ranges(ord, core, degeneracy);
        Fixture {
            lg,
            levels,
            degeneracy,
        }
    }

    /// A binding at `width` to `pool` (width 1 never submits a task).
    fn job_on(pool: &lazymc_sched::Pool, width: usize) -> JobSched {
        JobSched {
            handle: pool.handle(),
            meta: lazymc_sched::TaskMeta::adhoc(),
            width,
        }
    }

    fn solve_systematic(g: &CsrGraph) -> usize {
        let kc = kcore_sequential(g);
        let ord = coreness_degree_order(g, &kc.coreness);
        let inc = Incumbent::new();
        // prime with any single vertex so cstar ≥ 1
        if g.num_vertices() > 0 {
            inc.offer(&[0]);
        }
        let f = fixture(g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        systematic_search(
            &f.lg,
            &f.levels,
            f.degeneracy,
            &Config::default(),
            &inc,
            &counters,
            &Deadline::none(),
            &job_on(&lazymc_sched::Pool::new(1), 1),
        );
        assert!(g.is_clique(&inc.clique()));
        inc.size()
    }

    #[test]
    fn finds_planted_clique() {
        let g = gen::planted_clique(200, 0.03, 12, 5);
        assert_eq!(solve_systematic(&g), 12);
    }

    #[test]
    fn complete_graph() {
        assert_eq!(solve_systematic(&gen::complete(15)), 15);
    }

    #[test]
    fn triangulated_grid_is_k4() {
        assert_eq!(solve_systematic(&gen::triangulated_grid(10, 8)), 4);
    }

    #[test]
    fn caveman_community() {
        assert_eq!(solve_systematic(&gen::caveman(10, 7, 0.05, 2)), 7);
    }

    #[test]
    fn path_graph_omega_two() {
        assert_eq!(solve_systematic(&gen::path(30)), 2);
    }

    #[test]
    fn filters_discharge_most_neighborhoods() {
        // On an easy gap-0 graph, after the heuristics the filters should
        // discharge nearly everything (Table III's 0-rows).
        let g = gen::caveman(20, 6, 0.0, 3);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        // seed incumbent with a full community (size 6 = ω)
        inc.offer(&[0, 1, 2, 3, 4, 5]);
        let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        systematic_search(
            &f.lg,
            &f.levels,
            f.degeneracy,
            &Config::default(),
            &inc,
            &counters,
            &Deadline::none(),
            &job_on(&lazymc_sched::Pool::new(1), 1),
        );
        let snap = crate::metrics::snapshot_counters(&counters);
        assert_eq!(inc.size(), 6, "ω must not regress");
        assert_eq!(
            snap.retained_f3, 0,
            "with ω incumbent, no neighbourhood should reach detailed search"
        );
    }

    #[test]
    fn density_threshold_routes_to_kvc() {
        // A dense instance with φ = 0 forces every detailed search to k-VC;
        // φ = 1 forces MC. Results must agree.
        let g = gen::dense_overlap(120, 15, 8, 14, 0.15, 9);
        let mut sizes = Vec::new();
        for phi in [0.0, 1.0] {
            let kc = kcore_sequential(&g);
            let ord = coreness_degree_order(&g, &kc.coreness);
            let inc = Incumbent::new();
            // Prime with an edge so cstar ≥ 2: every subgraph reaching a
            // detailed search then has m̂ ≥ |N| > 0, making the φ = 0 route
            // deterministic.
            let (u, v) = g.edges().next().unwrap();
            inc.offer(&[u, v]);
            let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
            let counters = Counters::default();
            let cfg = Config::default().with_density_threshold(phi);
            systematic_search(
                &f.lg,
                &f.levels,
                f.degeneracy,
                &cfg,
                &inc,
                &counters,
                &Deadline::none(),
                &job_on(&lazymc_sched::Pool::new(1), 1),
            );
            let snap = crate::metrics::snapshot_counters(&counters);
            if phi == 0.0 {
                assert_eq!(snap.searched_mc, 0, "phi=0 must route everything to k-VC");
            } else {
                assert_eq!(snap.searched_kvc, 0, "phi=1 must route everything to MC");
            }
            sizes.push(inc.size());
        }
        assert_eq!(sizes[0], sizes[1], "algorithmic choice must not change ω");
    }

    #[test]
    fn intra_solve_parallelism_splits_and_agrees() {
        // Dense G(n,p): filtered neighbourhoods are large enough to split.
        // Searching every right-neighbourhood at an intra-solve width of 4
        // on a shared pool must (a) reach ω — every clique has a least
        // vertex in the order, whose right-neighbourhood holds the rest —
        // and (b) actually exercise the work-splitting driver.
        let g = gen::gnp(100, 0.6, 42);
        let expected = crate::solve(&g).size();
        let pool = lazymc_sched::Pool::new(3);
        let js = job_on(&pool, 4);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        let (u, v) = g.edges().next().unwrap();
        inc.offer(&[u, v]);
        let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        let cfg = Config::default();
        let deadline = Deadline::none();
        for v in 0..g.num_vertices() as u32 {
            let ctx = SearchCtx {
                cfg: &cfg,
                inc: &inc,
                counters: &counters,
                deadline: &deadline,
                sched: &js,
                solver_threads: 4,
            };
            neighbor_search(&f.lg, v, &ctx);
        }
        assert_eq!(inc.size(), expected, "parallel search must not change ω");
        assert!(g.is_clique(&inc.clique()));
        let snap = crate::metrics::snapshot_counters(&counters);
        assert!(
            snap.split_tasks > 0,
            "dense neighbourhoods at width 4 must generate subtree tasks"
        );
    }

    #[test]
    fn sched_full_sweep_matches_plain() {
        // A pool binding at width 3: whole levels fan out as scope units;
        // ω matches the width-1 sweep.
        let g = gen::dense_overlap(120, 15, 8, 14, 0.15, 9);
        let expected = solve_systematic(&g);
        let pool = lazymc_sched::Pool::new(2);
        let js = job_on(&pool, 3);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        inc.offer(&[0]);
        let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
        let counters = Counters::default();
        systematic_search(
            &f.lg,
            &f.levels,
            f.degeneracy,
            &Config::default(),
            &inc,
            &counters,
            &Deadline::none(),
            &js,
        );
        assert_eq!(inc.size(), expected);
        assert!(g.is_clique(&inc.clique()));
    }

    #[test]
    fn solver_threads_one_is_sequential_kernel() {
        // The same sweep at solver_threads = 1 must produce identical node
        // counts across runs (the deterministic sequential kernels).
        let g = gen::gnp(80, 0.55, 7);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let pool = lazymc_sched::Pool::new(2);
        let js = job_on(&pool, 1);
        let mut node_counts = Vec::new();
        for _ in 0..2 {
            let inc = Incumbent::new();
            let (u, v) = g.edges().next().unwrap();
            inc.offer(&[u, v]);
            let f = fixture(&g, &ord, &kc.coreness, kc.degeneracy, &inc);
            let counters = Counters::default();
            let cfg = Config::default();
            let deadline = Deadline::none();
            for v in 0..g.num_vertices() as u32 {
                let ctx = SearchCtx {
                    cfg: &cfg,
                    inc: &inc,
                    counters: &counters,
                    deadline: &deadline,
                    sched: &js,
                    solver_threads: 1,
                };
                neighbor_search(&f.lg, v, &ctx);
            }
            let snap = crate::metrics::snapshot_counters(&counters);
            assert_eq!(snap.split_tasks, 0, "threads=1 must never split");
            assert_eq!(snap.steals, 0);
            node_counts.push((snap.mc_nodes, snap.vc_nodes));
        }
        assert_eq!(node_counts[0], node_counts[1]);
    }

    #[test]
    fn extract_submatrix_matches_graph() {
        let g = gen::gnp(60, 0.15, 7);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let inc = Incumbent::new();
        let lg = LazyGraph::new(&g, &ord, &kc.coreness, inc.size_cell());
        let members: Vec<u32> = (10..30).collect();
        let mut adj = BitMatrix::new(7); // wrong-size scratch gets reshaped
        extract_submatrix_into(&lg, &members, &mut adj);
        for i in 0..members.len() {
            for j in 0..members.len() {
                let oi = ord.to_original(members[i]);
                let oj = ord.to_original(members[j]);
                assert_eq!(
                    adj.has_edge(i, j),
                    i != j && g.has_edge(oi, oj),
                    "local ({i},{j})"
                );
            }
        }
    }
}
