//! Greedy graph coloring for clique upper bounds.
//!
//! A clique of size `k` needs `k` colors, so the chromatic number of the
//! subgraph induced by a candidate set bounds any clique inside it (paper
//! §II-A, \[10\], \[15\]). The branch-and-bound solver uses the classic
//! Tomita-style *color order*: candidates are emitted grouped by color
//! class, and the color index of a candidate is an upper bound for the best
//! clique extendable from it and everything emitted before it.
//!
//! The kernels here are the innermost loops of the dense MC search — they
//! run once per branch-and-bound node, millions of times per solve — so
//! they are written as allocation-free word loops over a caller-provided
//! [`ColorScratch`]. Building a color class costs one word-level copy of
//! the uncolored set plus one AND-NOT per picked vertex, and the AND-NOT
//! only touches words at or after the pick (picks move strictly
//! rightward, so earlier words are spent). Nothing is cloned, per class
//! or otherwise.

use crate::bitset::{BitMatrix, Bitset};

/// Reusable buffers for the coloring kernels. One per worker; after the
/// first call at a given subgraph size, no method here allocates.
#[derive(Default)]
pub struct ColorScratch {
    uncolored: Bitset,
    avail: Bitset,
}

impl ColorScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes retained by the scratch buffers.
    pub fn heap_bytes(&self) -> usize {
        self.uncolored.heap_bytes() + self.avail.heap_bytes()
    }
}

/// Lowest set bit at or after word `from_word`, if any.
#[inline]
fn next_set_bit(words: &[u64], from_word: usize) -> Option<usize> {
    words[from_word..].iter().position(|&w| w != 0).map(|off| {
        let wi = from_word + off;
        wi * 64 + words[wi].trailing_zeros() as usize
    })
}

/// Core kernel: peels one greedy color class per outer iteration, invoking
/// `emit(v, color)` for every vertex in pick order. Returns the number of
/// colors used.
#[inline]
fn color_classes(
    adj: &BitMatrix,
    cand: &Bitset,
    scratch: &mut ColorScratch,
    mut emit: impl FnMut(usize, u32),
) -> u32 {
    scratch.uncolored.copy_from(cand);
    let ColorScratch { uncolored, avail } = scratch;
    let mut color = 0u32;
    while let Some(seed) = uncolored.first() {
        color += 1;
        avail.copy_from(uncolored);
        let mut v = seed;
        loop {
            uncolored.remove(v);
            avail.remove(v);
            emit(v, color);
            // Drop v's neighbors from this class's availability. Picks
            // move strictly rightward (v was the lowest available bit),
            // so only words from v's onward can still hold candidates.
            let w0 = v / 64;
            let row = adj.row(v);
            let words = avail.words_mut();
            for wi in w0..words.len() {
                words[wi] &= !row[wi];
            }
            match next_set_bit(avail.words(), w0) {
                Some(u) => v = u,
                None => break,
            }
        }
    }
    color
}

/// Greedy sequential coloring of the subgraph induced by `cand`, using
/// caller-owned scratch. Returns the number of colors used — an upper
/// bound on ω(G\[cand\]).
pub fn greedy_color_count_scratch(
    adj: &BitMatrix,
    cand: &Bitset,
    scratch: &mut ColorScratch,
) -> usize {
    color_classes(adj, cand, scratch, |_, _| {}) as usize
}

/// [`greedy_color_count_scratch`] with throwaway scratch (convenience for
/// one-shot callers; hot paths should hold a [`ColorScratch`]).
pub fn greedy_color_count(adj: &BitMatrix, cand: &Bitset) -> usize {
    greedy_color_count_scratch(adj, cand, &mut ColorScratch::default())
}

/// Tomita-style color order, using caller-owned scratch.
///
/// Emits the candidates of `cand` as `(order, bound)` where `order` lists
/// vertices grouped by ascending color class and `bound[i]` is the color
/// (1-based) of `order[i]`. For every prefix cut at `i`, the best clique
/// using only `order[0..=i]` has size at most `bound[i]`, so branching from
/// the *end* of the array lets the solver prune the entire remainder as
/// soon as `|C| + bound[i] <= incumbent`.
pub fn color_order_scratch(
    adj: &BitMatrix,
    cand: &Bitset,
    order: &mut Vec<u32>,
    bound: &mut Vec<u32>,
    scratch: &mut ColorScratch,
) {
    order.clear();
    bound.clear();
    color_classes(adj, cand, scratch, |v, color| {
        order.push(v as u32);
        bound.push(color);
    });
}

/// [`color_order_scratch`] with throwaway scratch.
pub fn color_order(adj: &BitMatrix, cand: &Bitset, order: &mut Vec<u32>, bound: &mut Vec<u32>) {
    color_order_scratch(adj, cand, order, bound, &mut ColorScratch::default());
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn k(n: usize) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for u in 0..n {
            for v in u + 1..n {
                m.add_edge(u, v);
            }
        }
        m
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let m = k(5);
        let cand = Bitset::full(5);
        assert_eq!(greedy_color_count(&m, &cand), 5);
    }

    #[test]
    fn edgeless_graph_needs_one_color() {
        let m = BitMatrix::new(8);
        let cand = Bitset::full(8);
        assert_eq!(greedy_color_count(&m, &cand), 1);
    }

    #[test]
    fn empty_candidate_set_needs_zero() {
        let m = k(4);
        let cand = Bitset::new(4);
        assert_eq!(greedy_color_count(&m, &cand), 0);
    }

    #[test]
    fn bipartite_needs_at_most_two() {
        // C4: 0-1-2-3-0
        let mut m = BitMatrix::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            m.add_edge(u, v);
        }
        let colors = greedy_color_count(&m, &Bitset::full(4));
        assert!(colors <= 2, "C4 is bipartite, got {colors}");
    }

    #[test]
    fn color_order_bounds_are_monotone_and_valid() {
        // K4 on {0..3} plus a pendant vertex 4 attached to 0.
        let mut m = BitMatrix::new(5);
        for u in 0..4 {
            for v in u + 1..4 {
                m.add_edge(u, v);
            }
        }
        m.add_edge(0, 4);
        let mut order = Vec::new();
        let mut bound = Vec::new();
        let mut cand = Bitset::full(5);
        color_order(&m, &cand, &mut order, &mut bound);
        assert_eq!(order.len(), 5);
        // bounds ascend
        for w in bound.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // max bound >= omega (K4 → >= 4)
        assert!(*bound.last().unwrap() >= 4);
        // restricted candidate set
        cand.clear();
        cand.insert(1);
        cand.insert(4);
        color_order(&m, &cand, &mut order, &mut bound);
        assert_eq!(order.len(), 2);
        // 1 and 4 are non-adjacent → same color class
        assert_eq!(bound, vec![1, 1]);
    }

    #[test]
    fn coloring_never_below_clique_number_random() {
        // sanity on random graphs: colors >= omega via a known clique
        let mut m = BitMatrix::new(10);
        // plant a triangle 2-5-7 plus noise
        for (u, v) in [(2, 5), (5, 7), (2, 7), (0, 1), (3, 4), (8, 9), (1, 9)] {
            m.add_edge(u, v);
        }
        assert!(greedy_color_count(&m, &Bitset::full(10)) >= 3);
    }

    #[test]
    fn scratch_reuse_across_sizes_matches_fresh() {
        // The same scratch, fed candidate sets of different capacities,
        // must behave exactly like a fresh one (reset must not leak
        // stale words across sizes).
        let mut scratch = ColorScratch::new();
        let sizes = [130usize, 5, 64, 100, 3, 129];
        for &n in &sizes {
            let m = k(n);
            let cand = Bitset::full(n);
            assert_eq!(greedy_color_count_scratch(&m, &cand, &mut scratch), n);
            let mut order = Vec::new();
            let mut bound = Vec::new();
            color_order_scratch(&m, &cand, &mut order, &mut bound, &mut scratch);
            assert_eq!(order.len(), n);
            assert_eq!(bound.last().copied().unwrap_or(0) as usize, n);
        }
    }

    #[test]
    fn color_order_multiword_graph() {
        // A graph spanning multiple words: two cliques of 40 joined by a
        // perfect matching. Coloring must still bound ω = 40.
        let n = 80;
        let mut m = BitMatrix::new(n);
        for u in 0..40 {
            for v in u + 1..40 {
                m.add_edge(u, v);
                m.add_edge(40 + u, 40 + v);
            }
        }
        for u in 0..40 {
            m.add_edge(u, 40 + u);
        }
        let colors = greedy_color_count(&m, &Bitset::full(n));
        assert!(colors >= 40);
        let mut order = Vec::new();
        let mut bound = Vec::new();
        color_order(&m, &Bitset::full(n), &mut order, &mut bound);
        assert_eq!(order.len(), n);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
    }
}
