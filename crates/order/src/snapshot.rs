//! Serialization of [`KCore`] into `.lmcs` snapshot sections.
//!
//! The coreness array and the sequential peel order are the artifacts the
//! service's registry precomputes once per graph; embedding them in the
//! graph's snapshot means a daemon restart reloads them instead of paying
//! the O(n + m) peeling again. The degeneracy is not stored — it is the
//! maximum of the coreness array, recomputed in O(n) by the validation
//! ladder ([`Layout::validate`]), which also checks both sections' shape.

use crate::kcore::KCore;
use lazymc_graph::snapshot::{Layout, SectionData, Snapshot, SEC_CORENESS, SEC_PEEL_ORDER};

/// Writes `kc` into `snap` as coreness + peel-order sections. The peel
/// order section is omitted when the decomposition has none (parallel
/// variants produce an empty order).
pub fn embed_kcore(snap: &mut Snapshot, kc: &KCore) {
    snap.push_section(SEC_CORENESS, SectionData::U32(kc.coreness.clone()));
    if !kc.peel_order.is_empty() {
        snap.push_section(SEC_PEEL_ORDER, SectionData::U32(kc.peel_order.clone()));
    }
}

/// Copies the embedded [`KCore`] out of `bytes`, which `layout` was
/// validated against. The ladder has already checked that the coreness
/// has one entry per vertex and that a present peel order is a
/// permutation of the vertices; what is left to reject is a snapshot
/// without a decomposition, which the solver cannot be handed.
pub fn extract_kcore(bytes: &[u8], layout: &Layout) -> Result<KCore, String> {
    let coreness = layout.coreness.ok_or("snapshot has no coreness section")?;
    Ok(KCore {
        coreness: coreness.u32s(bytes).collect(),
        degeneracy: layout.degeneracy,
        peel_order: layout
            .peel_order
            .map_or_else(Vec::new, |span| span.u32s(bytes).collect()),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::kcore::{kcore_parallel, kcore_sequential};
    use lazymc_graph::snapshot::write_file_atomic;
    use lazymc_graph::{gen, MappedSnapshot};

    /// The heap loader: validate, then copy the decomposition out.
    fn load(bytes: &[u8]) -> Result<KCore, String> {
        extract_kcore(bytes, &Layout::validate(bytes)?)
    }

    /// Why a mapping of `bytes` (written to a file) was refused.
    fn map_error(bytes: &[u8], want: &str) -> String {
        let path = std::env::temp_dir().join(format!("kcore_{}_{want}.lmcs", std::process::id()));
        write_file_atomic(&path, bytes).unwrap();
        let err = MappedSnapshot::map(&path).expect_err("mapping accepted");
        let _ = std::fs::remove_file(&path);
        err
    }

    #[test]
    fn kcore_round_trips_through_snapshot_bytes() {
        for seed in 0..3 {
            let g = gen::planted_clique(120, 0.06, 8, seed);
            let kc = kcore_sequential(&g);
            let mut snap = Snapshot::from_graph(&g);
            embed_kcore(&mut snap, &kc);
            let bytes = snap.encode();
            let layout = Layout::validate(&bytes).unwrap();
            assert_eq!(layout.graph(&bytes), g);
            let kc2 = extract_kcore(&bytes, &layout).unwrap();
            assert_eq!(kc2, kc, "seed {seed}");
        }
    }

    #[test]
    fn parallel_kcore_without_peel_order_round_trips() {
        let g = gen::gnp(100, 0.08, 5);
        let kc = kcore_parallel(&g);
        assert!(kc.peel_order.is_empty());
        let mut snap = Snapshot::from_graph(&g);
        embed_kcore(&mut snap, &kc);
        assert_eq!(load(&snap.encode()).unwrap(), kc);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = lazymc_graph::CsrGraph::empty(0);
        let kc = kcore_sequential(&g);
        let mut snap = Snapshot::from_graph(&g);
        embed_kcore(&mut snap, &kc);
        assert_eq!(load(&snap.encode()).unwrap(), kc);
    }

    #[test]
    fn extract_rejects_malformed_sections() {
        let g = gen::complete(5);
        let kc = kcore_sequential(&g);
        // Missing coreness: a valid file, but no decomposition to extract.
        let snap = Snapshot::from_graph(&g);
        assert!(load(&snap.encode()).is_err());
        // Malformed sections fail the ladder itself, so the heap loader
        // and a mapping of the same (correctly checksummed) file agree.
        for (id, data, want) in [
            (SEC_CORENESS, vec![1, 2], "coreness section has 2"),
            (SEC_PEEL_ORDER, vec![0, 0, 1, 2, 3], "repeats vertex 0"),
            (
                SEC_PEEL_ORDER,
                vec![0, 1, 2, 3, 99],
                "out-of-range vertex 99",
            ),
        ] {
            let mut snap = Snapshot::from_graph(&g);
            embed_kcore(&mut snap, &kc);
            snap.push_section(id, SectionData::U32(data));
            let bytes = snap.encode();
            let err = load(&bytes).unwrap_err();
            assert!(err.contains(want), "{want:?} not in {err:?}");
            assert_eq!(map_error(&bytes, want), err);
        }
        // Degeneracy is recomputed, not trusted.
        let mut snap = Snapshot::from_graph(&g);
        embed_kcore(&mut snap, &kc);
        assert_eq!(load(&snap.encode()).unwrap().degeneracy, 4);
    }
}
