//! Proof that the solver hot paths are allocation-free after warm-up.
//!
//! A counting `GlobalAlloc` (installed only in this test binary) tallies
//! allocations per thread; the tests warm a scratch arena on a fixed dense
//! subgraph, then re-run the identical search and assert the steady-state
//! run performed **zero** heap allocations — the contract the `McScratch` /
//! `VcSolveScratch` arenas and the `ColorScratch` word loops exist to keep.
//!
//! The scope-unit bodies behind the split path (the shared-incumbent MC
//! subtree search and the abortable k-VC decision) are private to the
//! solver crate; their steady state is pinned by the same assertion in
//! the crate's own unit tests, which install the same allocator.

use lazymc_sched::{SchedHandle, TaskMeta};
use lazymc_solver::{
    max_clique_search, max_clique_via_vc_search, min_vertex_cover, reduce_candidates,
    vertex_cover_search, Bitset, ColorScratch, McScratch, SchedCtx, SolveCtx, VcScratch,
    VcSolveScratch,
};

mod common;
use common::pseudo_graph as dense_graph;

#[path = "common/alloc.rs"]
mod alloc;
use alloc::thread_allocs;

#[test]
fn dense_mc_search_is_allocation_free_after_warmup() {
    let adj = dense_graph(120, 550, 42);
    let within = Bitset::full(adj.len());
    let mut scratch = McScratch::new();
    let mut out = Vec::new();

    // Warm-up: grows every per-depth buffer to this instance's size.
    let ctx = SolveCtx::default;
    let found_warm = max_clique_search(&adj, &within, 0, &mut scratch, &mut out, ctx());
    assert!(found_warm);
    let omega = out.len();
    assert!(omega >= 3, "graph must be non-trivial, got omega {omega}");

    // Steady state: the identical search must not touch the heap.
    let before = thread_allocs();
    let found = max_clique_search(&adj, &within, 0, &mut scratch, &mut out, ctx());
    let allocs = thread_allocs() - before;
    assert!(found);
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "dense MC search allocated {allocs} times after warm-up"
    );
}

#[test]
fn color_order_is_allocation_free_after_warmup() {
    let adj = dense_graph(130, 600, 7);
    let cand = Bitset::full(adj.len());
    let mut scratch = ColorScratch::new();
    let (mut order, mut bound) = (Vec::new(), Vec::new());

    lazymc_solver::color_order_scratch(&adj, &cand, &mut order, &mut bound, &mut scratch);
    let colors_warm = *bound.last().unwrap();

    let before = thread_allocs();
    lazymc_solver::color_order_scratch(&adj, &cand, &mut order, &mut bound, &mut scratch);
    let allocs = thread_allocs() - before;
    assert_eq!(*bound.last().unwrap(), colors_warm);
    assert_eq!(
        allocs, 0,
        "color_order allocated {allocs} times after warm-up"
    );
}

#[test]
fn clique_via_vc_pipeline_is_allocation_free_after_warmup() {
    // Dense enough that the complement (where the VC search runs) is
    // sparse — the pipeline the systematic search uses for dense
    // neighbourhoods, complement construction included.
    let adj = dense_graph(100, 820, 99);
    let mut scratch = VcSolveScratch::new();
    let mut out = Vec::new();

    assert!(max_clique_via_vc_search(
        &adj,
        0,
        &mut scratch,
        &mut out,
        SolveCtx::default()
    ));
    let omega = out.len();

    let before = thread_allocs();
    assert!(max_clique_via_vc_search(
        &adj,
        0,
        &mut scratch,
        &mut out,
        SolveCtx::default()
    ));
    let allocs = thread_allocs() - before;
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "clique-via-VC pipeline allocated {allocs} times after warm-up"
    );
}

#[test]
fn sched_bound_width_one_is_allocation_free_after_warmup() {
    // An engine call bound to the pool at width 1 never submits a unit:
    // it falls through to the sequential kernel on the caller's arena, so
    // a daemon solve at `threads = 1` keeps the zero-steady-state
    // allocation contract. After one warm-up, none of it may touch the
    // heap.
    fn width_one<S>(handle: &SchedHandle) -> SolveCtx<'_, S> {
        SolveCtx {
            sched: Some(SchedCtx {
                handle,
                meta: TaskMeta::adhoc(),
                width: 1,
                stop: None,
            }),
            ..SolveCtx::default()
        }
    }
    let pool = lazymc_sched::Pool::new(2);
    let handle = pool.handle();
    let bound = || width_one(&handle);
    let adj = dense_graph(120, 550, 42);
    let within = Bitset::full(adj.len());
    let mut scratch = McScratch::new();
    let mut out = Vec::new();

    // Warm-up grows the caller's arena.
    assert!(max_clique_search(
        &adj,
        &within,
        0,
        &mut scratch,
        &mut out,
        bound()
    ));
    let omega = out.len();

    let before = thread_allocs();
    assert!(max_clique_search(
        &adj,
        &within,
        0,
        &mut scratch,
        &mut out,
        bound()
    ));
    let allocs = thread_allocs() - before;
    assert_eq!(out.len(), omega);
    assert_eq!(
        allocs, 0,
        "width-1 MC call allocated {allocs} times after warm-up"
    );

    // Same for the k-VC decision.
    let sparse = dense_graph(90, 250, 17);
    let alive = Bitset::full(sparse.len());
    let mvc = min_vertex_cover(&sparse, None).len();
    let mut vc_scratch = VcScratch::new();
    let mut cover = Vec::new();
    let d = vertex_cover_search(
        &sparse,
        &alive,
        mvc,
        &mut vc_scratch,
        &mut cover,
        width_one(&handle),
    );
    assert!(d.found);

    let before = thread_allocs();
    let d = vertex_cover_search(
        &sparse,
        &alive,
        mvc,
        &mut vc_scratch,
        &mut cover,
        width_one(&handle),
    );
    let allocs = thread_allocs() - before;
    assert!(d.found);
    assert_eq!(
        allocs, 0,
        "width-1 k-VC decision allocated {allocs} times after warm-up"
    );
}

#[test]
fn reduce_candidates_is_allocation_free() {
    let adj = dense_graph(110, 300, 17);
    let mut within = Bitset::full(adj.len());
    let before = thread_allocs();
    let removed = reduce_candidates(&adj, &mut within, 34);
    let allocs = thread_allocs() - before;
    assert!(removed > 0, "lb 34 must strip something from a p=0.3 graph");
    assert_eq!(
        allocs, 0,
        "reduce_candidates allocated {allocs} times (it never should)"
    );
}
