//! Vertex relabelling by (coreness asc, degree asc) — the paper's §IV-F.
//!
//! A parallel k-core computation yields no unique peeling order, so LazyMC
//! sorts vertices by increasing coreness with ties broken by increasing
//! degree: two stable counting-sort passes, degree first (the SAPCo phase)
//! then coreness. The relabelled id space has two properties the solver
//! exploits:
//!
//! * coreness levels occupy *contiguous* ranges of relabelled ids, so the
//!   systematic search can sweep levels without an index;
//! * the highest-numbered vertex of any candidate set has maximal coreness
//!   (used by the coreness-based heuristic, paper Alg. 6).

use crate::sort::par_counting_sort_by_key;
use lazymc_graph::{GraphAccess, VertexId};

/// A bijection between original and relabelled vertex ids.
#[derive(Debug, Clone)]
pub struct VertexOrder {
    /// `rank[orig] = relabelled`
    pub rank: Vec<VertexId>,
    /// `orig[relabelled] = original`
    pub orig: Vec<VertexId>,
}

impl VertexOrder {
    /// Builds the order from a relabelled-to-original listing.
    pub fn from_listing(orig: Vec<VertexId>) -> Self {
        let mut rank = vec![0 as VertexId; orig.len()];
        for (new_id, &o) in orig.iter().enumerate() {
            rank[o as usize] = new_id as VertexId;
        }
        VertexOrder { rank, orig }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.orig.is_empty()
    }

    /// Maps an original id to its relabelled id.
    #[inline]
    pub fn to_relabelled(&self, orig: VertexId) -> VertexId {
        self.rank[orig as usize]
    }

    /// Maps a relabelled id back to the original id.
    #[inline]
    pub fn to_original(&self, relabelled: VertexId) -> VertexId {
        self.orig[relabelled as usize]
    }

    /// Checks the permutation is a bijection (tests).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.orig.len();
        if self.rank.len() != n {
            return Err("rank/orig length mismatch".into());
        }
        let mut seen = vec![false; n];
        for &o in &self.orig {
            if o as usize >= n || seen[o as usize] {
                return Err(format!("orig listing not a permutation at {o}"));
            }
            seen[o as usize] = true;
        }
        for v in 0..n {
            if self.orig[self.rank[v] as usize] as usize != v {
                return Err(format!("rank/orig not inverse at {v}"));
            }
        }
        Ok(())
    }
}

/// Sorts vertices by (coreness asc, degree asc, id asc) with two stable
/// counting-sort passes and returns the resulting [`VertexOrder`].
///
/// `coreness` may come from [`crate::kcore_with_floor`]; capped values only
/// affect the ordering among vertices the search will never visit.
pub fn coreness_degree_order(g: &dyn GraphAccess, coreness: &[u32]) -> VertexOrder {
    let n = g.num_vertices();
    assert_eq!(coreness.len(), n);
    if n == 0 {
        return VertexOrder {
            rank: Vec::new(),
            orig: Vec::new(),
        };
    }
    let ids: Vec<VertexId> = (0..n as VertexId).collect();
    // Pass 1 (minor key): degree. Identity input order makes ties resolve
    // by id, giving a fully deterministic order.
    let max_deg = g.max_degree() as u32;
    let by_degree = par_counting_sort_by_key(&ids, max_deg, |v| g.degree(v) as u32);
    // Pass 2 (major key): coreness; stability preserves the degree order.
    let max_core = coreness.iter().copied().max().unwrap_or(0);
    let listing = par_counting_sort_by_key(&by_degree, max_core, |v| coreness[v as usize]);
    VertexOrder::from_listing(listing)
}

/// Contiguous relabelled-id range `[start, end)` per coreness level:
/// `ranges[k]` covers all vertices with coreness `k`. Relies on the
/// coreness-major relabelling.
pub fn level_ranges(order: &VertexOrder, coreness: &[u32], degeneracy: u32) -> Vec<(u32, u32)> {
    let n = order.len() as u32;
    let mut ranges = vec![(0u32, 0u32); degeneracy as usize + 1];
    let mut start = 0u32;
    for k in 0..=degeneracy {
        let mut end = start;
        while end < n && coreness[order.to_original(end) as usize] == k {
            end += 1;
        }
        ranges[k as usize] = (start, end);
        start = end;
    }
    debug_assert_eq!(start, n, "coreness levels must partition the id space");
    ranges
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::kcore::kcore_sequential;
    use lazymc_graph::gen;

    #[test]
    fn order_is_bijective_and_sorted() {
        let g = gen::planted_clique(200, 0.05, 10, 5);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        ord.validate().unwrap();
        // non-decreasing (coreness, degree) along relabelled ids
        for w in 0..g.num_vertices() - 1 {
            let a = ord.to_original(w as u32);
            let b = ord.to_original(w as u32 + 1);
            let ka = (kc.coreness[a as usize], g.degree(a));
            let kb = (kc.coreness[b as usize], g.degree(b));
            assert!(ka <= kb, "order violated at {w}: {ka:?} > {kb:?}");
        }
    }

    #[test]
    fn right_neighborhoods_bounded_by_coreness() {
        // The property the paper relies on: under a coreness-ascending
        // order, |N+(v)| <= c(v) does NOT hold in general (only the peel
        // order guarantees it), but N+(v) only contains vertices of
        // coreness >= c(v). Verify the containment property we rely on.
        let g = gen::gnp(150, 0.07, 2);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        for v in g.vertices() {
            let rv = ord.to_relabelled(v);
            for &u in g.neighbors(v) {
                if ord.to_relabelled(u) > rv {
                    assert!(
                        kc.coreness[u as usize] >= kc.coreness[v as usize]
                            || (kc.coreness[u as usize] == kc.coreness[v as usize]),
                        "right neighbor with smaller coreness"
                    );
                    assert!(kc.coreness[u as usize] >= kc.coreness[v as usize]);
                }
            }
        }
    }

    #[test]
    fn level_ranges_partition_ids() {
        let g = gen::caveman(10, 5, 0.05, 4);
        let kc = kcore_sequential(&g);
        let ord = coreness_degree_order(&g, &kc.coreness);
        let ranges = level_ranges(&ord, &kc.coreness, kc.degeneracy);
        let mut covered = 0u32;
        for (k, &(s, e)) in ranges.iter().enumerate() {
            assert_eq!(s, covered, "level {k} not contiguous");
            for id in s..e {
                assert_eq!(
                    kc.coreness[ord.to_original(id) as usize] as usize,
                    k,
                    "wrong level member"
                );
            }
            covered = e;
        }
        assert_eq!(covered as usize, g.num_vertices());
    }

    #[test]
    fn empty_graph_order() {
        let g = lazymc_graph::CsrGraph::empty(0);
        let ord = coreness_degree_order(&g, &[]);
        assert!(ord.is_empty());
        ord.validate().unwrap();
    }

    #[test]
    fn from_listing_roundtrip() {
        let ord = VertexOrder::from_listing(vec![2, 0, 3, 1]);
        ord.validate().unwrap();
        assert_eq!(ord.to_relabelled(2), 0);
        assert_eq!(ord.to_original(0), 2);
        assert_eq!(ord.to_relabelled(1), 3);
    }
}
