//! The central property of intra-solve parallelism: the width changes
//! *cost*, never the *answer*. MC and k-VC solves whose subtree units run
//! on the machine-wide work-stealing pool must agree with the sequential
//! kernels on ω (and produce genuine witnesses) under random steal
//! interleavings — the pool's workers race the calling thread for every
//! arena slot, so each proptest case is a fresh interleaving.
//!
//! Set `LAZYMC_TEST_THREADS=<n>` to pin the solve width (CI runs the
//! suite once with 4); unset, every test sweeps widths 2, 4 and 8. The
//! pool itself is one shared 4-worker instance for the whole binary —
//! exactly the deployment shape (many solves, one pool).

use lazymc_sched::{Pool, SchedHandle, TaskMeta};
use lazymc_solver::{
    max_clique_exact, max_clique_search, max_clique_via_vc_search, min_vertex_cover,
    vc::is_vertex_cover, vertex_cover_search, BitMatrix, Bitset, McScratch, McStats, SchedCtx,
    SolveCtx, VcDecision, VcScratch, VcSolveScratch,
};
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::pseudo_graph;

/// The binary-wide scheduler pool. Never shut down: it lives in a static,
/// and the workers park when idle.
fn sched() -> &'static SchedHandle {
    static POOL: OnceLock<(Pool, SchedHandle)> = OnceLock::new();
    let (_, handle) = POOL.get_or_init(|| {
        let pool = Pool::new(4);
        let handle = pool.handle();
        (pool, handle)
    });
    handle
}

/// A context bound to the binary-wide pool at `width`.
fn on_pool<S>(width: usize, stats: Option<&mut S>) -> SolveCtx<'_, S> {
    SolveCtx {
        stats,
        sched: Some(SchedCtx {
            handle: sched(),
            meta: TaskMeta::adhoc(),
            width,
            stop: None,
        }),
        ..SolveCtx::default()
    }
}

/// Solve widths to exercise: the `LAZYMC_TEST_THREADS` override, or the
/// standard {2, 4, 8} sweep.
fn test_widths() -> Vec<usize> {
    match std::env::var("LAZYMC_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("LAZYMC_TEST_THREADS must be a positive integer")],
        Err(_) => vec![2, 4, 8],
    }
}

fn mc_at(m: &BitMatrix, lb: usize, width: usize, out: &mut Vec<u32>) -> bool {
    let full = Bitset::full(m.len());
    let ctx = on_pool::<McStats>(width, None);
    max_clique_search(m, &full, lb, &mut McScratch::new(), out, ctx)
}

fn decide_at(
    m: &BitMatrix,
    alive: &Bitset,
    k: usize,
    width: usize,
    out: &mut Vec<u32>,
) -> VcDecision {
    vertex_cover_search(
        m,
        alive,
        k,
        &mut VcScratch::new(),
        out,
        on_pool(width, None),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sched_mc_agrees_with_sequential(
        n in 4usize..80,
        p in 0u64..1000,
        seed in 0u64..10_000,
    ) {
        let m = pseudo_graph(n, p, seed);
        let omega = max_clique_exact(&m).len();
        for width in test_widths() {
            let mut out = Vec::new();
            prop_assert!(mc_at(&m, 0, width, &mut out), "n={n} p={p} width={width}");
            prop_assert_eq!(out.len(), omega, "n={} p={} seed={}", n, p, seed);
            prop_assert!(m.is_clique(&out), "witness must be a clique");
            // The lower bound suppresses exactly at ω.
            prop_assert!(!mc_at(&m, omega, width, &mut out));
            prop_assert!(out.is_empty());
        }
    }

    #[test]
    fn sched_clique_via_vc_agrees_with_sequential(
        n in 4usize..60,
        p in 400u64..1000,
        seed in 0u64..10_000,
    ) {
        let m = pseudo_graph(n, p, seed);
        let omega = max_clique_exact(&m).len();
        for width in test_widths() {
            let mut scratch = VcSolveScratch::new();
            let mut out = Vec::new();
            prop_assert!(
                max_clique_via_vc_search(&m, 0, &mut scratch, &mut out, on_pool(width, None)),
                "n={n} p={p} width={width}"
            );
            prop_assert_eq!(out.len(), omega, "n={} p={} seed={}", n, p, seed);
            prop_assert!(m.is_clique(&out));
            prop_assert!(!max_clique_via_vc_search(
                &m, omega, &mut scratch, &mut out, on_pool(width, None),
            ));
        }
    }

    #[test]
    fn sched_vc_decision_agrees_with_sequential(
        n in 4usize..60,
        p in 0u64..500,
        seed in 0u64..10_000,
    ) {
        let m = pseudo_graph(n, p, seed);
        let alive = Bitset::full(n);
        let mvc = min_vertex_cover(&m, None).len();
        for width in test_widths() {
            let mut out = Vec::new();
            // At the optimum: success with a genuine cover.
            let d = decide_at(&m, &alive, mvc, width, &mut out);
            prop_assert!(d.found, "n={n} p={p} width={width} k={mvc}");
            prop_assert!(!d.stopped);
            prop_assert!(out.len() <= mvc);
            prop_assert!(is_vertex_cover(&m, &alive, &out));
            // One below: a unanimous, authoritative no.
            if mvc > 0 {
                let d = decide_at(&m, &alive, mvc - 1, width, &mut out);
                prop_assert!(!d.found && !d.stopped);
                prop_assert!(out.is_empty());
            }
        }
    }
}

/// Width 1 must never touch the scheduler: the entry point falls through
/// to the sequential kernel, bit-identical to an unbound call — same node
/// count, same witness, zero split tasks.
#[test]
fn width_one_is_bit_identical_to_the_sequential_kernel() {
    let m = pseudo_graph(90, 550, 13);
    let within = Bitset::full(m.len());

    let mut seq_stats = McStats::default();
    let mut seq_out = Vec::new();
    assert!(max_clique_search(
        &m,
        &within,
        0,
        &mut McScratch::new(),
        &mut seq_out,
        SolveCtx::with_stats(Some(&mut seq_stats)),
    ));

    let mut one_stats = McStats::default();
    let mut one_out = Vec::new();
    assert!(max_clique_search(
        &m,
        &within,
        0,
        &mut McScratch::new(),
        &mut one_out,
        on_pool(1, Some(&mut one_stats)),
    ));
    assert_eq!(one_out, seq_out, "width-1 witness must match exactly");
    assert_eq!(one_stats.nodes, seq_stats.nodes, "node-for-node identical");
    assert_eq!(one_stats.split_tasks, 0);
    assert_eq!(one_stats.steals, 0);

    // Same for the via-VC engine.
    let mut vc_scratch = VcSolveScratch::new();
    let mut vc_seq = Vec::new();
    assert!(max_clique_via_vc_search(
        &m,
        0,
        &mut vc_scratch,
        &mut vc_seq,
        SolveCtx::default()
    ));
    let mut vc_one = Vec::new();
    assert!(max_clique_via_vc_search(
        &m,
        0,
        &mut vc_scratch,
        &mut vc_one,
        on_pool(1, None)
    ));
    assert_eq!(vc_one, vc_seq);
    assert!(m.is_clique(&vc_one));
}
