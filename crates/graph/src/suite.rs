//! The named benchmark suite.
//!
//! Each instance is a deterministic synthetic stand-in for one *class* of
//! the paper's 28 datasets (see DESIGN.md §4 for the mapping). Two scales
//! are provided: [`Scale::Test`] keeps every instance solvable in
//! milliseconds for integration tests; [`Scale::Standard`] is the size used
//! by the experiment binaries regenerating the paper's tables and figures.

use crate::{gen, CsrGraph};

/// Suite sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for tests (each solves in well under a second).
    Test,
    /// The sizes used by the experiment harness.
    Standard,
}

/// A named suite instance.
pub struct SuiteInstance {
    /// Short name used in experiment tables.
    pub name: &'static str,
    /// Which dataset class of the paper's Table I this instance mirrors.
    pub mirrors: &'static str,
    /// Known maximum clique size, when the construction pins it.
    pub expected_omega: Option<usize>,
    /// Whether the instance is engineered to have clique-core gap zero.
    pub gap_zero: bool,
    builder: fn(Scale) -> CsrGraph,
}

impl SuiteInstance {
    /// Materializes the graph at the requested scale.
    pub fn build(&self, scale: Scale) -> CsrGraph {
        (self.builder)(scale)
    }
}

fn road(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::triangulated_grid(20, 15),
        Scale::Standard => gen::triangulated_grid(500, 360),
    }
}

fn planar(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::apollonian(300, 19),
        Scale::Standard => gen::apollonian(250_000, 19),
    }
}

fn web(s: Scale) -> CsrGraph {
    // BA background (low degeneracy) + one planted clique that dominates the
    // degeneracy, so gap = 0 and the coreness heuristic finds ω.
    let (n, m_per, k, seed) = match s {
        Scale::Test => (600, 3, 12, 21),
        Scale::Standard => (150_000, 4, 33, 21),
    };
    let ba = gen::barabasi_albert(n, m_per, seed);
    let mut b = crate::GraphBuilder::with_capacity(n, ba.num_edges() + k * k);
    b.extend_edges(ba.edges());
    // plant on the last k ids (deterministic, disjoint from the dense BA core)
    let ids: Vec<u32> = ((n - k) as u32..n as u32).collect();
    for (i, &u) in ids.iter().enumerate() {
        for &v in &ids[i + 1..] {
            b.add_edge(u, v);
        }
    }
    b.build()
}

fn social(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::rmat(9, 10, 0.57, 0.19, 0.19, 42),
        Scale::Standard => gen::rmat(16, 16, 0.57, 0.19, 0.19, 42),
    }
}

fn collab(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::caveman(30, 8, 0.03, 7),
        Scale::Standard => gen::caveman(6_000, 14, 0.03, 7),
    }
}

fn wiki(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::rmat(9, 6, 0.50, 0.22, 0.18, 13),
        Scale::Standard => gen::rmat(15, 8, 0.50, 0.22, 0.18, 13),
    }
}

fn bio_dense(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::dense_overlap(220, 30, 8, 20, 0.06, 5),
        Scale::Standard => gen::dense_overlap(1_600, 140, 16, 48, 0.08, 5),
    }
}

fn gnp_easy(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::gnp(800, 0.005, 31),
        Scale::Standard => gen::gnp(250_000, 0.000_05, 31),
    }
}

fn planted_hard(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::planted_clique(700, 0.01, 10, 77),
        Scale::Standard => gen::planted_clique(24_000, 0.002, 26, 77),
    }
}

fn orkut_like(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::rmat(10, 14, 0.57, 0.19, 0.19, 23),
        Scale::Standard => gen::rmat(17, 20, 0.57, 0.19, 0.19, 23),
    }
}

fn gene_hard(s: Scale) -> CsrGraph {
    match s {
        Scale::Test => gen::dense_overlap(260, 40, 10, 22, 0.08, 15),
        Scale::Standard => gen::dense_overlap(2_400, 220, 18, 56, 0.10, 15),
    }
}

/// All suite instances, in the order the experiment tables print them.
pub fn all() -> Vec<SuiteInstance> {
    vec![
        SuiteInstance {
            name: "road",
            mirrors: "USAroad / CAroad",
            expected_omega: Some(4),
            gap_zero: false, // triangulated grid: d = 4, ω = 4 → gap 1
            builder: road,
        },
        SuiteInstance {
            name: "planar",
            mirrors: "USAroad (d=3, gap 0)",
            expected_omega: Some(4),
            gap_zero: true,
            builder: planar,
        },
        SuiteInstance {
            name: "web",
            mirrors: "uk-union / it / hollywood",
            expected_omega: None, // = planted size; asserted in tests at Test scale
            gap_zero: true,
            builder: web,
        },
        SuiteInstance {
            name: "social",
            mirrors: "sinaweibo / soflow / orkut",
            expected_omega: None,
            gap_zero: false,
            builder: social,
        },
        SuiteInstance {
            name: "collab",
            mirrors: "dblp / hudong",
            expected_omega: None,
            gap_zero: true,
            builder: collab,
        },
        SuiteInstance {
            name: "wiki",
            mirrors: "wiki-talk / topcats",
            expected_omega: None,
            gap_zero: false,
            builder: wiki,
        },
        SuiteInstance {
            name: "bio-dense",
            mirrors: "bio-mouse-gene / bio-human-gene",
            expected_omega: None,
            gap_zero: false,
            builder: bio_dense,
        },
        SuiteInstance {
            name: "gnp-easy",
            mirrors: "yahoo-member",
            expected_omega: None,
            gap_zero: false,
            builder: gnp_easy,
        },
        SuiteInstance {
            name: "planted-hard",
            mirrors: "flickr (stress)",
            expected_omega: None,
            gap_zero: false,
            builder: planted_hard,
        },
        SuiteInstance {
            name: "orkut-like",
            mirrors: "orkut / LiveJournal",
            expected_omega: None,
            gap_zero: false,
            builder: orkut_like,
        },
        SuiteInstance {
            name: "gene-hard",
            mirrors: "bio-human-gene-1/2",
            expected_omega: None,
            gap_zero: false,
            builder: gene_hard,
        },
    ]
}

/// Looks an instance up by name.
pub fn by_name(name: &str) -> Option<SuiteInstance> {
    all().into_iter().find(|i| i.name == name)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn suite_instances_build_and_validate_at_test_scale() {
        for inst in all() {
            let g = inst.build(Scale::Test);
            assert!(
                g.validate().is_ok(),
                "instance {} failed validation",
                inst.name
            );
            assert!(g.num_vertices() > 0);
            assert!(g.num_edges() > 0, "instance {} has no edges", inst.name);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        for inst in all() {
            assert_eq!(
                inst.build(Scale::Test),
                inst.build(Scale::Test),
                "instance {} not deterministic",
                inst.name
            );
        }
    }

    #[test]
    fn by_name_finds_all() {
        for inst in all() {
            assert!(by_name(inst.name).is_some());
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn road_contains_k4() {
        let g = by_name("road").unwrap().build(Scale::Test);
        assert!(g.is_clique(&[0, 1, 20, 21]));
    }

    #[test]
    fn web_contains_planted_clique() {
        let g = by_name("web").unwrap().build(Scale::Test);
        let ids: Vec<u32> = (588..600).collect();
        assert!(g.is_clique(&ids));
    }
}
