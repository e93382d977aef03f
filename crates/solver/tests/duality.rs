//! Cross-solver property tests on random graphs:
//!
//! * ω(G) = |V| − minVC(Ḡ) (the equivalence LazyMC's algorithmic choice
//!   rests on, paper §II-B);
//! * the direct MC engine and the VC-based engine agree;
//! * the greedy coloring number always upper-bounds ω;
//! * decisions are monotone in k.

use lazymc_graph::gen;
use lazymc_solver::bitset::{BitMatrix, Bitset};
use lazymc_solver::{
    greedy_color_count, max_clique_exact, max_clique_search, max_clique_via_vc,
    max_clique_via_vc_search, min_vertex_cover, vc::is_vertex_cover, vertex_cover_decision,
    McScratch, SolveCtx, VcSolveScratch,
};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = BitMatrix> {
    (2usize..28, 0.0f64..0.8, 0u64..10_000).prop_map(|(n, p, seed)| {
        let g = gen::gnp(n, p, seed);
        BitMatrix::from_csr(&g)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn clique_cover_duality(m in arb_matrix()) {
        let omega = max_clique_exact(&m).len();
        let comp = m.complement();
        let mvc = min_vertex_cover(&comp, None);
        prop_assert!(is_vertex_cover(&comp, &Bitset::full(m.len()), &mvc));
        prop_assert_eq!(omega, m.len() - mvc.len());
    }

    #[test]
    fn vc_engine_agrees_with_direct_mc(m in arb_matrix()) {
        let direct = max_clique_exact(&m);
        let via = max_clique_via_vc(&m, 0, None).expect("omega >= 1 > 0");
        prop_assert_eq!(direct.len(), via.len());
        prop_assert!(m.is_clique(&via));
        prop_assert!(m.is_clique(&direct));
        // and with a lower bound exactly at / above omega
        prop_assert!(max_clique_via_vc(&m, direct.len(), None).is_none());
        if direct.len() > 1 {
            let again = max_clique_via_vc(&m, direct.len() - 1, None).unwrap();
            prop_assert_eq!(again.len(), direct.len());
        }
    }

    #[test]
    fn scratch_paths_agree_with_one_shot_engines(m in arb_matrix()) {
        // The PR-3 refactor guard: the one-shot engines and the reused
        // scratch-arena paths must report the same omega on random G(n,p)
        // across densities — including when the *same* arena is fed a
        // second, different-size problem right after (stale-state check).
        let omega = max_clique_exact(&m).len();
        let within = Bitset::full(m.len());
        let mut mc_scratch = McScratch::new();
        let mut vc_scratch = VcSolveScratch::new();
        let mut out = Vec::new();

        prop_assert!(max_clique_search(&m, &within, 0, &mut mc_scratch, &mut out, SolveCtx::default()));
        prop_assert_eq!(out.len(), omega);
        prop_assert!(m.is_clique(&out));

        prop_assert!(max_clique_via_vc_search(&m, 0, &mut vc_scratch, &mut out, SolveCtx::default()));
        prop_assert_eq!(out.len(), omega);
        prop_assert!(m.is_clique(&out));

        // Re-solve a shifted instance through the now-warm arenas.
        let m2 = {
            let g = gen::gnp(m.len() + 5, 0.4, 1234);
            BitMatrix::from_csr(&g)
        };
        let omega2 = max_clique_exact(&m2).len();
        let within2 = Bitset::full(m2.len());
        prop_assert!(max_clique_search(&m2, &within2, 0, &mut mc_scratch, &mut out, SolveCtx::default()));
        prop_assert_eq!(out.len(), omega2);
        prop_assert!(max_clique_via_vc_search(&m2, 0, &mut vc_scratch, &mut out, SolveCtx::default()));
        prop_assert_eq!(out.len(), omega2);

        // lb handling: both scratch engines stay silent at lb = omega.
        prop_assert!(!max_clique_search(&m, &within, omega, &mut mc_scratch, &mut out, SolveCtx::default()));
        prop_assert!(!max_clique_via_vc_search(&m, omega, &mut vc_scratch, &mut out, SolveCtx::default()));
    }

    #[test]
    fn coloring_upper_bounds_omega(m in arb_matrix()) {
        let omega = max_clique_exact(&m).len();
        let colors = greedy_color_count(&m, &Bitset::full(m.len()));
        prop_assert!(colors >= omega, "colors {} < omega {}", colors, omega);
    }

    #[test]
    fn vc_decision_monotone_in_k(m in arb_matrix()) {
        let n = m.len();
        let mvc = min_vertex_cover(&m, None).len();
        for k in 0..=n {
            let feasible = vertex_cover_decision(&m, k, None).is_some();
            prop_assert_eq!(feasible, k >= mvc, "k={} mvc={}", k, mvc);
            if let Some(c) = vertex_cover_decision(&m, k, None) {
                prop_assert!(c.len() <= k);
                prop_assert!(is_vertex_cover(&m, &Bitset::full(n), &c));
            }
        }
    }

    #[test]
    fn mc_lower_bound_contract(m in arb_matrix()) {
        use lazymc_solver::max_clique_dense;
        let omega = max_clique_exact(&m).len();
        for lb in 0..omega + 2 {
            match max_clique_dense(&m, lb, None) {
                Some(c) => {
                    prop_assert!(c.len() > lb);
                    prop_assert_eq!(c.len(), omega);
                }
                None => prop_assert!(omega <= lb),
            }
        }
    }
}
