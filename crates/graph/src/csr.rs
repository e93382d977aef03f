//! Immutable undirected graphs in compressed sparse row (CSR) form.
//!
//! Invariants maintained by every constructor in this crate:
//!
//! * adjacency lists are sorted ascending and free of duplicates;
//! * the graph is symmetric (`(u,v)` present iff `(v,u)` present);
//! * no self-loops.
//!
//! These invariants are what the intersection kernels and the lazy graph
//! rely on; [`CsrGraph::validate`] checks them explicitly and is used by the
//! property tests.

use crate::snapshot::{fnv1a, fnv1a_update};
use crate::VertexId;

/// An immutable, undirected, simple graph in CSR form.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists; length is twice the number of
    /// undirected edges.
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a graph from raw CSR parts.
    ///
    /// # Panics
    /// Panics if the parts are structurally inconsistent (non-monotone
    /// offsets or out-of-range targets). Sortedness/symmetry are *not*
    /// checked here (use [`CsrGraph::validate`]); all in-crate constructors
    /// guarantee them.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(offsets.first(), Some(&0));
        assert_eq!(offsets.last(), Some(&targets.len()));
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        let n = offsets.len() - 1;
        debug_assert!(targets.iter().all(|&t| (t as usize) < n));
        Self { offsets, targets }
    }

    /// Convenience constructor from an undirected edge list. Duplicates,
    /// self-loops and one-directional edges are tolerated (see
    /// [`crate::GraphBuilder`]).
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = crate::GraphBuilder::with_capacity(n, edges.len());
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// An empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbourhood of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Membership test via binary search on the sorted adjacency list.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Degrees of all vertices.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .map(|v| (self.offsets[v + 1] - self.offsets[v]) as u32)
            .collect()
    }

    /// Maximum degree (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .max()
            .unwrap_or(0)
    }

    /// Edge density `2m / (n (n-1))`; 0 for graphs with fewer than 2 vertices.
    pub fn density(&self) -> f64 {
        let n = self.num_vertices() as f64;
        if n < 2.0 {
            return 0.0;
        }
        (self.targets.len() as f64) / (n * (n - 1.0))
    }

    /// The subgraph induced by `verts` (which need not be sorted). Vertices
    /// are renumbered `0..verts.len()` in the order given; the returned map
    /// sends new ids back to ids of `self`.
    ///
    /// # Panics
    /// Panics if `verts` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, verts: &[VertexId]) -> (CsrGraph, Vec<VertexId>) {
        let n = self.num_vertices();
        let mut new_id = vec![crate::NO_VERTEX; n];
        for (i, &v) in verts.iter().enumerate() {
            assert!((v as usize) < n, "vertex {v} out of range");
            assert_eq!(
                new_id[v as usize],
                crate::NO_VERTEX,
                "duplicate vertex {v} in induced_subgraph"
            );
            new_id[v as usize] = i as VertexId;
        }
        let mut offsets = Vec::with_capacity(verts.len() + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for &v in verts {
            let mut row: Vec<VertexId> = self
                .neighbors(v)
                .iter()
                .filter_map(|&u| {
                    let nu = new_id[u as usize];
                    (nu != crate::NO_VERTEX).then_some(nu)
                })
                .collect();
            row.sort_unstable();
            targets.extend_from_slice(&row);
            offsets.push(targets.len());
        }
        (CsrGraph { offsets, targets }, verts.to_vec())
    }

    /// The complement graph (no self-loops). Quadratic in `n`; intended for
    /// the small filtered subgraphs handed to the k-VC solver.
    pub fn complement(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for v in 0..n as VertexId {
            let nbrs = self.neighbors(v);
            let mut it = nbrs.iter().copied().peekable();
            for u in 0..n as VertexId {
                if u == v {
                    continue;
                }
                while let Some(&x) = it.peek() {
                    if x < u {
                        it.next();
                    } else {
                        break;
                    }
                }
                if it.peek() != Some(&u) {
                    targets.push(u);
                }
            }
            offsets.push(targets.len());
        }
        CsrGraph { offsets, targets }
    }

    /// Relabels the graph: vertex `v` of `self` becomes `rank[v]` in the
    /// result. `rank` must be a permutation of `0..n`.
    pub fn relabel(&self, rank: &[VertexId]) -> CsrGraph {
        let n = self.num_vertices();
        assert_eq!(rank.len(), n);
        // degree of new vertex rank[v] equals degree of v
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[rank[v] as usize + 1] = self.degree(v as VertexId);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0 as VertexId; self.targets.len()];
        for v in 0..n as VertexId {
            let nv = rank[v as usize] as usize;
            let row = &mut targets[offsets[nv]..offsets[nv] + self.degree(v)];
            for (slot, &u) in row.iter_mut().zip(self.neighbors(v)) {
                *slot = rank[u as usize];
            }
            row.sort_unstable();
        }
        CsrGraph { offsets, targets }
    }

    /// Checks every structural invariant; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        for v in 0..n as VertexId {
            let nbrs = self.neighbors(v);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {v} not strictly sorted"));
                }
            }
            for &u in nbrs {
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                if (u as usize) >= n {
                    return Err(format!("target {u} out of range at {v}"));
                }
                if !self.has_edge(u, v) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }

    /// Content fingerprint of the graph structure: equal graphs (same CSR
    /// arrays, i.e. same vertex set and adjacency) fingerprint equally on
    /// every platform and run. FNV-1a over `n` and the CSR arrays — cheap
    /// enough to compute at load time, stable enough to key caches across
    /// re-uploads of the same dataset.
    pub fn fingerprint(&self) -> u64 {
        // Offsets are determined by the degree sequence; hashing the degree
        // gaps keeps the loop branch-free and position-dependent.
        let degrees = self.offsets.windows(2).map(|w| (w[1] - w[0]) as u64);
        content_fingerprint(self.num_vertices(), degrees, self.targets.iter().copied())
    }

    /// The raw CSR arrays `(offsets, targets)`, in the exact form
    /// [`CsrGraph::from_parts`] accepts. This is the serialization surface:
    /// [`crate::snapshot`] writes these arrays verbatim.
    pub fn raw_parts(&self) -> (&[usize], &[VertexId]) {
        (&self.offsets, &self.targets)
    }

    /// Whether `clique` (ids of `self`) forms a clique.
    pub fn is_clique(&self, clique: &[VertexId]) -> bool {
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                if u == v || !self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrGraph {{ n: {}, m: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// FNV-1a over `n`, the degree sequence and the targets, each mixed as a
/// little-endian `u64`: the content fingerprint. [`CsrGraph::fingerprint`]
/// and the snapshot ladder ([`crate::snapshot::Layout::validate`]) both
/// hash through here, the latter straight from file bytes.
pub(crate) fn content_fingerprint(
    n: usize,
    degrees: impl Iterator<Item = u64>,
    targets: impl Iterator<Item = VertexId>,
) -> u64 {
    let mut h = fnv1a(&(n as u64).to_le_bytes());
    for d in degrees {
        h = fnv1a_update(h, &d.to_le_bytes());
    }
    for t in targets {
        h = fnv1a_update(h, &u64::from(t).to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1-2 triangle, 3 pendant off 0
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 3));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.density(), 0.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_pendant();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn induced_subgraph_of_triangle() {
        let g = triangle_plus_pendant();
        let (sub, map) = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map, vec![2, 0, 1]);
        assert!(sub.validate().is_ok());
        // all pairs connected
        assert!(sub.is_clique(&[0, 1, 2]));
    }

    #[test]
    fn induced_subgraph_empty_selection() {
        let g = triangle_plus_pendant();
        let (sub, _) = g.induced_subgraph(&[]);
        assert_eq!(sub.num_vertices(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate vertex")]
    fn induced_subgraph_rejects_duplicates() {
        let g = triangle_plus_pendant();
        let _ = g.induced_subgraph(&[0, 0]);
    }

    #[test]
    fn complement_of_triangle_plus_pendant() {
        let g = triangle_plus_pendant();
        let c = g.complement();
        assert!(c.validate().is_ok());
        // K4 has 6 edges; g has 4, complement has 2.
        assert_eq!(c.num_edges(), 2);
        assert!(c.has_edge(1, 3));
        assert!(c.has_edge(2, 3));
        assert!(!c.has_edge(0, 1));
    }

    #[test]
    fn complement_involution() {
        let g = triangle_plus_pendant();
        assert_eq!(g.complement().complement(), g);
    }

    #[test]
    fn relabel_reverse_permutation() {
        let g = triangle_plus_pendant();
        let rank: Vec<u32> = vec![3, 2, 1, 0];
        let r = g.relabel(&rank);
        assert!(r.validate().is_ok());
        assert_eq!(r.degree(3), 3); // old 0
        assert!(r.has_edge(3, 0)); // old (0,3)
        assert!(r.has_edge(2, 1)); // old (1,2)
    }

    #[test]
    fn is_clique_detects_non_cliques() {
        let g = triangle_plus_pendant();
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(!g.is_clique(&[0, 1, 3]));
        assert!(g.is_clique(&[0]));
        assert!(g.is_clique(&[]));
        assert!(!g.is_clique(&[0, 0]));
    }

    #[test]
    fn density_of_complete_graph_is_one() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let g = triangle_plus_pendant();
        // Same content → same fingerprint, independent of construction path.
        let h = CsrGraph::from_edges(4, &[(0, 3), (2, 0), (1, 2), (0, 1)]);
        assert_eq!(g.fingerprint(), h.fingerprint());
        // One edge of difference → different fingerprint.
        let k = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (1, 3)]);
        assert_ne!(g.fingerprint(), k.fingerprint());
        // Isolated vertices count: same edges, more vertices.
        let wider = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        assert_ne!(g.fingerprint(), wider.fingerprint());
        assert_ne!(
            CsrGraph::empty(0).fingerprint(),
            CsrGraph::empty(1).fingerprint()
        );
    }
}
