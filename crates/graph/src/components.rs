//! Connectivity and triangle utilities.
//!
//! The experiment harness characterizes suite instances beyond the paper's
//! Table I columns (component structure matters for generator realism), and
//! triangle counts back the density discussion of §III-D. The union-find
//! here is also a reusable substrate for the generators' post-processing.

use crate::{CsrGraph, VertexId};

/// Union-find (disjoint-set forest) with union by rank and path halving.
pub struct DisjointSet {
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl DisjointSet {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Number of disjoint sets remaining.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Whether `a` and `b` share a set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Connected components: returns `(count, label per vertex)` with labels
/// in `0..count`, assigned in order of first appearance.
pub fn connected_components(g: &CsrGraph) -> (usize, Vec<u32>) {
    let n = g.num_vertices();
    let mut dsu = DisjointSet::new(n);
    for (u, v) in g.edges() {
        dsu.union(u, v);
    }
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        let r = dsu.find(v);
        if labels[r as usize] == u32::MAX {
            labels[r as usize] = next;
            next += 1;
        }
        labels[v as usize] = labels[r as usize];
    }
    (next as usize, labels)
}

/// Extracts the largest connected component; returns the component graph
/// and the map from its new ids back to ids of `g`.
pub fn largest_component(g: &CsrGraph) -> (CsrGraph, Vec<VertexId>) {
    let (count, labels) = connected_components(g);
    if count <= 1 {
        let ids: Vec<VertexId> = g.vertices().collect();
        return g.induced_subgraph(&ids);
    }
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let best = (0..count)
        .max_by_key(|&c| sizes[c])
        .expect("count > 1 components") as u32;
    let members: Vec<VertexId> = g
        .vertices()
        .filter(|&v| labels[v as usize] == best)
        .collect();
    g.induced_subgraph(&members)
}

/// Exact triangle count by forward (degree-ordered) adjacency merging:
/// each triangle is counted exactly once at its lowest-ranked vertex.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let n = g.num_vertices();
    // rank by (degree, id): low-degree vertices first, making forward
    // adjacency lists short on skewed graphs (the standard trick).
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_unstable_by_key(|&v| (g.degree(v), v));
    let mut rank = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    // forward adjacency: neighbors with higher rank, sorted by rank
    let mut fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            if rank[u as usize] > rank[v as usize] {
                fwd[v as usize].push(rank[u as usize]);
            }
        }
        fwd[v as usize].sort_unstable();
    }
    let by_rank: Vec<VertexId> = order;
    let mut triangles = 0u64;
    for v in g.vertices() {
        let fv = &fwd[v as usize];
        for &ru in fv {
            let u = by_rank[ru as usize];
            let fu = &fwd[u as usize];
            // |fv ∩ fu| by merge
            let (mut i, mut j) = (0usize, 0usize);
            while i < fv.len() && j < fu.len() {
                match fv[i].cmp(&fu[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn dsu_basics() {
        let mut d = DisjointSet::new(5);
        assert_eq!(d.num_sets(), 5);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.same(0, 1));
        assert!(!d.same(0, 2));
        d.union(2, 3);
        d.union(0, 3);
        assert_eq!(d.num_sets(), 2);
        assert!(d.same(1, 2));
    }

    #[test]
    fn components_of_disjoint_cliques() {
        let g = gen::caveman(4, 5, 0.0, 1);
        let (count, labels) = connected_components(&g);
        assert_eq!(count, 4);
        for c in 0..4u32 {
            for i in 1..5u32 {
                assert_eq!(labels[(c * 5) as usize], labels[(c * 5 + i) as usize]);
            }
        }
    }

    #[test]
    fn components_with_isolated_vertices() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3)]);
        let (count, _) = connected_components(&g);
        assert_eq!(count, 4); // {0,1}, {2,3}, {4}, {5}
    }

    #[test]
    fn largest_component_extraction() {
        let mut edges = vec![(0u32, 1), (1, 2), (2, 0)]; // triangle
        edges.push((10, 11)); // small component
        let g = CsrGraph::from_edges(12, &edges);
        let (lc, map) = largest_component(&g);
        assert_eq!(lc.num_vertices(), 3);
        assert_eq!(lc.num_edges(), 3);
        let mut m = map;
        m.sort_unstable();
        assert_eq!(m, vec![0, 1, 2]);
    }

    #[test]
    fn largest_component_of_connected_graph_is_identity_sized() {
        let g = gen::cycle(9);
        let (lc, _) = largest_component(&g);
        assert_eq!(lc.num_vertices(), 9);
    }

    #[test]
    fn triangle_counts_known() {
        assert_eq!(triangle_count(&gen::complete(4)), 4);
        assert_eq!(triangle_count(&gen::complete(6)), 20); // C(6,3)
        assert_eq!(triangle_count(&gen::cycle(5)), 0);
        assert_eq!(triangle_count(&gen::star(10)), 0);
        assert_eq!(triangle_count(&gen::path(7)), 0);
    }

    #[test]
    fn triangle_count_matches_naive_on_random() {
        for seed in 0..4 {
            let g = gen::gnp(60, 0.2, seed);
            let mut naive = 0u64;
            for u in 0..60u32 {
                for v in (u + 1)..60 {
                    for w in (v + 1)..60 {
                        if g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w) {
                            naive += 1;
                        }
                    }
                }
            }
            assert_eq!(triangle_count(&g), naive, "seed {seed}");
        }
    }

    #[test]
    fn caveman_triangles() {
        // l disjoint K_k communities: l * C(k,3) triangles
        let g = gen::caveman(3, 5, 0.0, 2);
        assert_eq!(triangle_count(&g), 3 * 10);
    }
}
