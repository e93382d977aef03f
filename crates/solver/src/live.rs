//! Mid-search node sampling for live progress.
//!
//! A detailed search inside one dense neighbourhood can run for seconds;
//! callers that publish live progress (the daemon's `GET /jobs/<id>`)
//! would otherwise only see node counts move *between* neighbourhoods.
//! [`LiveNodes`] is an optional sink the kernels drain their node count
//! into every [`SAMPLE_INTERVAL`] expansions — one relaxed `fetch_add`
//! per ~4k nodes, so the sequential kernels keep their deterministic
//! node counts and their zero-steady-state-allocation inner loop.
//!
//! Split searches also flush each scope unit's remainder when the unit
//! finishes, so progress moves unit by unit. Totals stay exact: every
//! flushed batch is also recorded in the run's `sampled` statistic, and
//! callers that accumulate `nodes` after the call add only the residual
//! `nodes - sampled`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Node expansions between flushes into the live sink.
pub const SAMPLE_INTERVAL: u64 = 4096;

/// Optional live node-count sink (a progress cell's counter).
#[derive(Clone, Copy, Default)]
pub struct LiveNodes<'a> {
    sink: Option<&'a AtomicU64>,
}

impl<'a> LiveNodes<'a> {
    /// No live observer — the kernels' default, zero-cost path.
    pub const NONE: LiveNodes<'static> = LiveNodes { sink: None };

    /// Samples into `sink` every [`SAMPLE_INTERVAL`] node expansions.
    pub fn new(sink: &'a AtomicU64) -> LiveNodes<'a> {
        LiveNodes { sink: Some(sink) }
    }

    /// Called once per node expansion with the searcher's running node
    /// count; flushes one batch into the sink at each interval boundary
    /// and records it in `sampled`.
    #[inline]
    pub fn tick(&self, nodes: u64, sampled: &mut u64) {
        if let Some(sink) = self.sink {
            if nodes.is_multiple_of(SAMPLE_INTERVAL) {
                sink.fetch_add(SAMPLE_INTERVAL, Ordering::Relaxed);
                *sampled += SAMPLE_INTERVAL;
            }
        }
    }

    /// Drains the not-yet-flushed remainder `nodes - sampled` into the
    /// sink and records it in `sampled`. Scope units call this when they
    /// finish, so an observer sees a split search move unit by unit even
    /// when every subtree is shorter than [`SAMPLE_INTERVAL`].
    #[inline]
    pub fn flush(&self, nodes: u64, sampled: &mut u64) {
        if let Some(sink) = self.sink {
            sink.fetch_add(nodes - *sampled, Ordering::Relaxed);
            *sampled = nodes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_flushes() {
        let mut sampled = 0u64;
        for n in 1..=3 * SAMPLE_INTERVAL {
            LiveNodes::NONE.tick(n, &mut sampled);
        }
        assert_eq!(sampled, 0);
    }

    #[test]
    fn flushes_once_per_interval_and_accounts_exactly() {
        let sink = AtomicU64::new(0);
        let live = LiveNodes::new(&sink);
        let mut sampled = 0u64;
        let total = 2 * SAMPLE_INTERVAL + 17;
        for n in 1..=total {
            live.tick(n, &mut sampled);
        }
        assert_eq!(sink.load(Ordering::Relaxed), 2 * SAMPLE_INTERVAL);
        assert_eq!(sampled, 2 * SAMPLE_INTERVAL);
        // The caller's residual add makes the total exact.
        assert_eq!(sink.load(Ordering::Relaxed) + (total - sampled), total);
    }

    #[test]
    fn flush_drains_the_remainder_once() {
        let sink = AtomicU64::new(0);
        let live = LiveNodes::new(&sink);
        let mut sampled = 0u64;
        for n in 1..=SAMPLE_INTERVAL + 5 {
            live.tick(n, &mut sampled);
        }
        live.flush(SAMPLE_INTERVAL + 5, &mut sampled);
        assert_eq!(sink.load(Ordering::Relaxed), SAMPLE_INTERVAL + 5);
        assert_eq!(sampled, SAMPLE_INTERVAL + 5);
        live.flush(SAMPLE_INTERVAL + 5, &mut sampled);
        assert_eq!(sink.load(Ordering::Relaxed), SAMPLE_INTERVAL + 5);
        let mut untouched = 0u64;
        LiveNodes::NONE.flush(9, &mut untouched);
        assert_eq!(untouched, 0);
    }
}
