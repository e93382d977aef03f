//! Seeded workload inputs: which graphs each workload solves, how they are
//! generated, and the files the program reads them from.
//!
//! Seed 0 is the canonical seed. It reproduces the BENCH_PR3 dense graphs
//! and the `lazymc_graph::suite` Standard instances exactly (checked by the
//! tests below). For `dense-search`, any other seed relabels the three
//! G(n, p) graphs with a seeded permutation: every seed solves the same
//! graphs up to isomorphism, so ω stays pinned and the spread between seeds
//! reflects the program and the host, not the draw. Paley and Hamming
//! graphs are fixed constructions. For the suite instances, other seeds
//! draw the same shapes with other random choices.

use lazymc_graph::{gen, io, suite, CsrGraph, GraphBuilder};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseSearch,
    PaperCorpus,
    DaemonMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "dense-search" => Some(Workload::DenseSearch),
            "paper-corpus" => Some(Workload::PaperCorpus),
            "daemon-mixed" => Some(Workload::DaemonMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseSearch => "dense-search",
            Workload::PaperCorpus => "paper-corpus",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }
}

/// One graph of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// DIMACS (`.clq`) for the dense graphs, edge lists (`.txt`) otherwise.
    pub dimacs: bool,
    /// Density threshold φ of the solve (`Config::density_threshold`).
    pub phi: f64,
    /// ω at full scale: at every seed for the dense graphs (seeds only
    /// relabel them), at seed 0 for the others.
    pub omega: usize,
}

const fn spec(name: &'static str, dimacs: bool, phi: f64, omega: usize) -> Spec {
    Spec {
        name,
        dimacs,
        phi,
        omega,
    }
}

impl Spec {
    /// The ω this run must find, when it is pinned.
    pub fn pinned_omega(&self, seed: u64, small: bool) -> Option<usize> {
        (!small && (self.dimacs || seed == 0)).then_some(self.omega)
    }
}

const DENSE: [Spec; 5] = [
    spec("paley-401", true, 0.5, 9),
    spec("gnp-300-055", true, 0.5, 13),
    spec("gnp-400-045", true, 0.5, 12),
    spec("gnp-250-060-kvc", true, 0.0, 15),
    spec("hamming-8-2", true, 0.5, 128),
];

const CORPUS: [Spec; 10] = [
    spec("road", false, 0.5, 4),
    spec("planar", false, 0.5, 4),
    spec("web", false, 0.5, 33),
    spec("social", false, 0.5, 36),
    spec("collab", false, 0.5, 14),
    spec("wiki", false, 0.5, 9),
    spec("bio-dense", false, 0.5, 48),
    spec("gnp-easy", false, 0.5, 3),
    spec("planted-hard", false, 0.5, 26),
    spec("gene-hard", false, 0.5, 56),
];

const DAEMON: [Spec; 5] = [
    spec("wiki", false, 0.5, 9),
    spec("web", false, 0.5, 33),
    spec("road", false, 0.5, 4),
    spec("planted-hard", false, 0.5, 26),
    spec("collab", false, 0.5, 14),
];

/// Distinct graphs the daemon workload uploads and deletes in its loop.
pub const FRESH_UPLOADS: usize = 3;

/// The graphs a workload solves, in pass order.
pub fn specs(w: Workload) -> &'static [Spec] {
    match w {
        Workload::DenseSearch => &DENSE,
        Workload::PaperCorpus => &CORPUS,
        Workload::DaemonMixed => &DAEMON,
    }
}

/// Spreads a run seed over 64 bits; seed 0 maps to 0, so every generator
/// keeps its canonical seed.
fn mix(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// SplitMix64: the benchmark's own seeded choices.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `g` under a seeded random permutation of its vertices; seed 0 keeps
/// the labels.
fn relabelled(g: CsrGraph, seed: u64) -> CsrGraph {
    if seed == 0 {
        return g;
    }
    let mut rank: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let mut rng = Rng(seed);
    for i in (1..rank.len()).rev() {
        rank.swap(i, rng.below(i + 1));
    }
    g.relabel(&rank)
}

/// Builds graph `name` for `seed`. `small` selects the tiny instances the
/// self-test uses.
pub fn build(name: &str, seed: u64, small: bool) -> CsrGraph {
    let m = mix(seed);
    if small {
        return match name {
            "paley-401" => gen::paley(101),
            "gnp-300-055" => relabelled(gen::gnp(120, 0.55, 11), seed),
            "gnp-400-045" => relabelled(gen::gnp(150, 0.45, 5), seed),
            "gnp-250-060-kvc" => relabelled(gen::gnp(100, 0.60, 17), seed),
            "hamming-8-2" => gen::hamming(6, 2),
            n if n.starts_with("fresh-") => gen::barabasi_albert(2_000, 4, 3 ^ m ^ fresh(n)),
            n => suite::by_name(n)
                .unwrap_or_else(|| panic!("unknown graph {n}"))
                .build(suite::Scale::Test),
        };
    }
    match name {
        "paley-401" => gen::paley(401),
        "gnp-300-055" => relabelled(gen::gnp(300, 0.55, 11), seed),
        "gnp-400-045" => relabelled(gen::gnp(400, 0.45, 5), seed),
        "gnp-250-060-kvc" => relabelled(gen::gnp(250, 0.60, 17), seed),
        "hamming-8-2" => gen::hamming(8, 2),
        // The suite's Standard builders with the seed folded into every
        // random choice.
        "road" => gen::triangulated_grid(500, 360),
        "planar" => gen::apollonian(250_000, 19 ^ m),
        "web" => planted_on_tail(gen::barabasi_albert(150_000, 4, 21 ^ m), 33),
        "social" => gen::rmat(16, 16, 0.57, 0.19, 0.19, 42 ^ m),
        "collab" => gen::caveman(6_000, 14, 0.03, 7 ^ m),
        "wiki" => gen::rmat(15, 8, 0.50, 0.22, 0.18, 13 ^ m),
        "bio-dense" => gen::dense_overlap(1_600, 140, 16, 48, 0.08, 5 ^ m),
        "gnp-easy" => gen::gnp(250_000, 0.000_05, 31 ^ m),
        "planted-hard" => gen::planted_clique(24_000, 0.002, 26, 77 ^ m),
        "gene-hard" => gen::dense_overlap(2_400, 220, 18, 56, 0.10, 15 ^ m),
        // ~520k edges, a ~7 MB edge list: the daemon's write path.
        n if n.starts_with("fresh-") => gen::barabasi_albert(130_000, 4, 3 ^ m ^ fresh(n)),
        n => panic!("unknown graph {n}"),
    }
}

fn fresh(name: &str) -> u64 {
    name["fresh-".len()..]
        .parse::<u64>()
        .expect("fresh-<index>")
        + 1
}

/// The suite's `web` construction: a clique of `k` on the last `k` ids.
fn planted_on_tail(g: CsrGraph, k: usize) -> CsrGraph {
    let n = g.num_vertices();
    let mut b = GraphBuilder::with_capacity(n, g.num_edges() + k * k);
    b.extend_edges(g.edges());
    for u in n - k..n {
        for v in u + 1..n {
            b.add_edge(u as u32, v as u32);
        }
    }
    b.build()
}

/// Where graph `name` of a workload lives.
pub fn path(dir: &Path, s: &Spec) -> PathBuf {
    dir.join(format!(
        "{}.{}",
        s.name,
        if s.dimacs { "clq" } else { "txt" }
    ))
}

/// Path of the `i`-th fresh upload graph (edge list).
pub fn fresh_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("fresh-{i}.txt"))
}

/// Writes every input file of `w` into `dir`.
pub fn generate(w: Workload, seed: u64, small: bool, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let write = |g: &CsrGraph, dimacs: bool, p: PathBuf| -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(p)?);
        if dimacs {
            io::write_dimacs(g, &mut out)?;
        } else {
            io::write_edge_list(g, &mut out)?;
        }
        std::io::Write::flush(&mut out)
    };
    for s in specs(w) {
        write(&build(s.name, seed, small), s.dimacs, path(dir, s))?;
    }
    if w == Workload::DaemonMixed {
        for i in 0..FRESH_UPLOADS {
            write(
                &build(&format!("fresh-{i}"), seed, small),
                false,
                fresh_path(dir, i),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_suite() {
        for s in &CORPUS {
            let want = suite::by_name(s.name)
                .expect("suite instance")
                .build(suite::Scale::Standard);
            assert_eq!(
                build(s.name, 0, false).fingerprint(),
                want.fingerprint(),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn seed_zero_reproduces_the_pr3_dense_graphs() {
        assert!(build("gnp-300-055", 0, false) == gen::gnp(300, 0.55, 11));
        assert!(build("gnp-400-045", 0, false) == gen::gnp(400, 0.45, 5));
        assert!(build("gnp-250-060-kvc", 0, false) == gen::gnp(250, 0.60, 17));
    }

    #[test]
    fn other_seeds_relabel_the_dense_graphs() {
        let (a, b) = (
            build("gnp-300-055", 0, false),
            build("gnp-300-055", 1, false),
        );
        assert!(a != b);
        assert!(b == build("gnp-300-055", 1, false));
        let mut da = a.degrees();
        let mut db = b.degrees();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db);
        assert!(build("wiki", 1, false) != build("wiki", 0, false));
    }
}
