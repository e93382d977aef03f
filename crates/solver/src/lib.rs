//! Subgraph solvers for LazyMC (paper §IV-E, "algorithmic choice").
//!
//! Once advance filtering has reduced a right-neighbourhood to its zone of
//! interest, the residual problem is solved on a *small, dense* induced
//! subgraph by one of two exact engines:
//!
//! * [`max_clique_search`] — Bron–Kerbosch-derived branch-and-bound with
//!   Tomita-style color-order branching and greedy-coloring bounds;
//! * [`max_clique_via_vc_search`] — k-vertex-cover search on the complement
//!   (Buss kernel, degree-0/1/2 kernelization, polynomial path/cycle tail),
//!   with a per-neighbourhood binary search for the exact optimum over
//!   [`vertex_cover_search`] decisions.
//!
//! Those three are the only kernel entry points. Each takes one
//! [`SolveCtx`]: where statistics accumulate, the live node-count sink,
//! and an optional [`SchedCtx`] binding to the machine-wide
//! `lazymc_sched` pool. Without a binding (or at width ≤ 1) an engine runs
//! its deterministic sequential kernel; bound at width ≥ 2 it splits its
//! top branch levels into scope units on the pool, sharing one incumbent
//! (MC) or one abort flag (k-VC) across every worker. The remaining
//! functions are one-shot sequential conveniences for baselines and
//! doctests.
//!
//! Both engines operate on [`bitset::BitMatrix`] adjacency, the
//! word-parallel dense representation appropriate for subgraphs whose
//! density routinely exceeds 50% (paper §III-D). The same engines back the
//! dOmega-like baseline.
//!
//! ```
//! use lazymc_solver::{BitMatrix, max_clique_exact, max_clique_via_vc};
//!
//! // A triangle with a pendant vertex.
//! let mut adj = BitMatrix::new(4);
//! for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
//!     adj.add_edge(u, v);
//! }
//! let direct = max_clique_exact(&adj);
//! assert_eq!(direct.len(), 3);
//! // The k-vertex-cover engine agrees (omega = n - minVC(complement)).
//! let via_vc = max_clique_via_vc(&adj, 0, None).unwrap();
//! assert_eq!(via_vc.len(), 3);
//! ```

#![deny(clippy::unwrap_used)]

pub mod bitset;
pub mod coloring;
pub mod live;
pub mod mc;
pub mod par;
pub mod scratch;
pub mod vc;

pub use bitset::{BitMatrix, Bitset};
pub use coloring::{color_order, color_order_scratch, greedy_color_count, ColorScratch};
pub use live::LiveNodes;
pub use mc::{
    max_clique_dense, max_clique_exact, max_clique_search, reduce_candidates, McScratch, McStats,
};
pub use par::{SchedCtx, SolveCtx, StopFn};
pub use scratch::Pool;
pub use vc::{
    max_clique_via_vc, max_clique_via_vc_search, min_vertex_cover, vertex_cover_decision,
    vertex_cover_search, VcDecision, VcScratch, VcSolveScratch, VcStats,
};

#[cfg(test)]
#[path = "../tests/common/alloc.rs"]
mod test_alloc;

#[cfg(test)]
pub(crate) mod test_util {
    use crate::bitset::BitMatrix;
    use crate::par::SchedCtx;
    use lazymc_sched::{Pool, TaskMeta};
    use std::sync::OnceLock;

    pub(crate) use crate::test_alloc::thread_allocs;

    /// A binding at `width` to the test binary's one shared 3-worker pool
    /// (many solves, one pool — the deployment shape).
    pub(crate) fn on_pool(width: usize) -> SchedCtx<'static> {
        static POOL: OnceLock<(Pool, lazymc_sched::SchedHandle)> = OnceLock::new();
        let (_, handle) = POOL.get_or_init(|| {
            let pool = Pool::new(3);
            let handle = pool.handle();
            (pool, handle)
        });
        SchedCtx {
            handle,
            meta: TaskMeta::adhoc(),
            width,
            stop: None,
        }
    }

    /// Deterministic pseudo-random graph (xorshift64*), densities in
    /// permille — the shared fixture generator of the in-crate tests.
    pub(crate) fn pseudo_graph(n: usize, p_permille: u64, seed: u64) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        let mut state = seed | 1;
        for u in 0..n {
            for v in u + 1..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.wrapping_mul(0x2545_F491_4F6C_DD1D) % 1000 < p_permille {
                    m.add_edge(u, v);
                }
            }
        }
        m
    }
}
