//! `.lmcs` — the durable snapshot container.
//!
//! A snapshot freezes the artifacts that are expensive to recompute — the
//! CSR adjacency arrays and (via sections written by `lazymc-order`) the
//! exact k-core decomposition — into one versioned, checksummed,
//! little-endian file. The layout is mmap-friendly by construction:
//!
//! * a fixed 64-byte header holding the magic, version, total length,
//!   content fingerprint and checksum;
//! * a section table of fixed-size records (id, element width, absolute
//!   byte offset, element count);
//! * the section payloads themselves, each starting on an 8-byte boundary
//!   and zero-padded to one.
//!
//! [`Snapshot`] is the writer. Every reader goes through one validation
//! ladder, [`Layout::validate`]: exact length (truncation), an FNV-1a
//! checksum over the whole file (bit flips anywhere, header included),
//! the section table, CSR structure, a re-fingerprint of the CSR against
//! the recorded content fingerprint, and the shape of the embedded
//! coreness and peel order. It returns `Err` rather than panicking on
//! hostile bytes, and reads them without assuming alignment, so the same
//! function checks a heap buffer and a file mapping. What it returns is
//! a set of validated [`Span`]s: the heap loader copies them out
//! ([`Layout::graph`]), the zero-copy loader ([`crate::MappedSnapshot`])
//! borrows them in place.

use crate::csr::content_fingerprint;
use crate::CsrGraph;
use std::io::Write as _;
use std::path::Path;

/// File magic: the first four bytes of every `.lmcs` file.
pub const MAGIC: [u8; 4] = *b"LMCS";
/// Current format version. Decoders reject other versions.
pub const VERSION: u32 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Size of one section-table record in bytes.
pub const SECTION_RECORD_LEN: usize = 24;

/// Section ids. The graph crate owns the CSR sections; other crates claim
/// ids for their own artifacts (coreness and peel order live in
/// `lazymc-order`).
pub const SEC_OFFSETS: u32 = 1;
/// CSR adjacency targets (`u32`).
pub const SEC_TARGETS: u32 = 2;
/// Exact per-vertex coreness (`u32`), written by `lazymc-order`.
pub const SEC_CORENESS: u32 = 3;
/// Sequential peel order (`u32`), written by `lazymc-order`.
pub const SEC_PEEL_ORDER: u32 = 4;

/// Payload of one section: a flat array of 4- or 8-byte little-endian
/// elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionData {
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl SectionData {
    fn elem_width(&self) -> u32 {
        match self {
            SectionData::U32(_) => 4,
            SectionData::U64(_) => 8,
        }
    }

    fn elem_count(&self) -> u64 {
        match self {
            SectionData::U32(v) => v.len() as u64,
            SectionData::U64(v) => v.len() as u64,
        }
    }

    fn byte_len(&self) -> usize {
        (self.elem_width() as usize) * (self.elem_count() as usize)
    }
}

/// Header fields readable without touching the payload — what a startup
/// index scan needs to know about a file before deciding to load it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    pub version: u32,
    /// Total file length the header promises (truncation check).
    pub file_len: u64,
    /// Content fingerprint of the stored graph ([`CsrGraph::fingerprint`]).
    pub fingerprint: u64,
    /// Vertex count.
    pub n: u64,
    /// Length of the targets array (twice the undirected edge count).
    pub m2: u64,
}

/// An in-memory snapshot under construction: fingerprint + typed sections.
///
/// Build one with [`Snapshot::from_graph`], attach extra sections (e.g.
/// coreness) with [`Snapshot::push_section`], then [`Snapshot::encode`].
/// The reverse path is [`Layout::validate`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub fingerprint: u64,
    pub n: u64,
    pub m2: u64,
    sections: Vec<(u32, SectionData)>,
}

impl Snapshot {
    /// A snapshot of `g`'s CSR arrays, fingerprinted.
    pub fn from_graph(g: &CsrGraph) -> Snapshot {
        let (offsets, targets) = g.raw_parts();
        Snapshot {
            fingerprint: g.fingerprint(),
            n: g.num_vertices() as u64,
            m2: targets.len() as u64,
            sections: vec![
                (
                    SEC_OFFSETS,
                    SectionData::U64(offsets.iter().map(|&o| o as u64).collect()),
                ),
                (SEC_TARGETS, SectionData::U32(targets.to_vec())),
            ],
        }
    }

    /// Adds (or replaces) a section by id.
    pub fn push_section(&mut self, id: u32, data: SectionData) {
        self.sections.retain(|(existing, _)| *existing != id);
        self.sections.push((id, data));
    }

    /// Serializes to the `.lmcs` byte layout (header, section table,
    /// 8-byte-aligned payloads, checksum patched into the header).
    pub fn encode(&self) -> Vec<u8> {
        let table_len = self.sections.len() * SECTION_RECORD_LEN;
        let mut payload_offset = align8(HEADER_LEN + table_len);
        let mut records = Vec::with_capacity(self.sections.len());
        for (id, data) in &self.sections {
            records.push((
                *id,
                data.elem_width(),
                payload_offset as u64,
                data.elem_count(),
            ));
            payload_offset = align8(payload_offset + data.byte_len());
        }
        let file_len = payload_offset;

        let mut out = vec![0u8; file_len];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&VERSION.to_le_bytes());
        out[8..16].copy_from_slice(&(file_len as u64).to_le_bytes());
        out[16..24].copy_from_slice(&self.fingerprint.to_le_bytes());
        out[24..32].copy_from_slice(&self.n.to_le_bytes());
        out[32..40].copy_from_slice(&self.m2.to_le_bytes());
        out[40..44].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        // out[44..48] reserved, zero. out[48..56] is the checksum slot,
        // zero while hashing. out[56..64] reserved, zero.
        for (i, (id, width, offset, count)) in records.iter().enumerate() {
            let at = HEADER_LEN + i * SECTION_RECORD_LEN;
            out[at..at + 4].copy_from_slice(&id.to_le_bytes());
            out[at + 4..at + 8].copy_from_slice(&width.to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&offset.to_le_bytes());
            out[at + 16..at + 24].copy_from_slice(&count.to_le_bytes());
        }
        for ((_, data), (_, _, offset, _)) in self.sections.iter().zip(&records) {
            let mut at = *offset as usize;
            match data {
                SectionData::U32(v) => {
                    for x in v {
                        out[at..at + 4].copy_from_slice(&x.to_le_bytes());
                        at += 4;
                    }
                }
                SectionData::U64(v) => {
                    for x in v {
                        out[at..at + 8].copy_from_slice(&x.to_le_bytes());
                        at += 8;
                    }
                }
            }
        }
        let checksum = fnv1a(&out);
        out[48..56].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Reads just the fixed header: magic, version, promised length,
    /// fingerprint, counts. Cheap enough to run over a whole directory at
    /// boot. Does **not** verify the checksum — that happens in
    /// [`Layout::validate`].
    pub fn peek(bytes: &[u8]) -> Result<SnapshotInfo, String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!(
                "file too short for a snapshot header ({} bytes)",
                bytes.len()
            ));
        }
        if bytes[0..4] != MAGIC {
            return Err("bad magic (not an .lmcs file)".into());
        }
        let version = u32_at(bytes, 4);
        if version != VERSION {
            return Err(format!("unsupported snapshot version {version}"));
        }
        Ok(SnapshotInfo {
            version,
            file_len: u64_at(bytes, 8),
            fingerprint: u64_at(bytes, 16),
            n: u64_at(bytes, 24),
            m2: u64_at(bytes, 32),
        })
    }
}

/// Byte range of one section payload: `count` little-endian elements at
/// the absolute file offset `offset`. Only [`Layout::validate`] makes
/// one, after checking the range lies inside the bytes it validated.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct Span {
    pub offset: usize,
    pub count: usize,
}

impl Span {
    /// The payload as `u32`s, read bytewise (any buffer alignment).
    pub fn u32s(self, bytes: &[u8]) -> impl DoubleEndedIterator<Item = u32> + Clone + '_ {
        let (words, _) = bytes[self.offset..self.offset + 4 * self.count].as_chunks();
        words.iter().map(|&w| u32::from_le_bytes(w))
    }

    /// The payload as `u64`s, read bytewise (any buffer alignment).
    pub(crate) fn u64s(self, bytes: &[u8]) -> impl DoubleEndedIterator<Item = u64> + Clone + '_ {
        let (words, _) = bytes[self.offset..self.offset + 8 * self.count].as_chunks();
        words.iter().map(|&w| u64::from_le_bytes(w))
    }
}

/// A snapshot that passed the validation ladder: header values plus the
/// [`Span`]s of the sections readers use, valid for the bytes that were
/// validated.
#[derive(Debug)]
#[non_exhaustive]
pub struct Layout {
    /// Content fingerprint, re-checked against the stored CSR.
    pub fingerprint: u64,
    /// Vertex count.
    pub n: usize,
    /// Length of the targets array.
    pub m2: usize,
    /// CSR row offsets (`u64`, `n + 1` entries, `0..=m2`, monotone).
    pub offsets: Span,
    /// CSR adjacency targets (`u32`, `m2` entries, each `< n`).
    pub targets: Span,
    /// Embedded coreness (`u32`, `n` entries), when present.
    pub coreness: Option<Span>,
    /// Embedded peel order (`u32`, a permutation of `0..n`), when present.
    pub peel_order: Option<Span>,
    /// Maximum embedded coreness (0 without a coreness section).
    pub degeneracy: u32,
}

impl Layout {
    /// The validation ladder every `.lmcs` reader runs: header
    /// ([`Snapshot::peek`]), exact length, whole-file checksum, section
    /// table (known widths, 8-byte-aligned in-bounds payloads, no
    /// duplicate ids), CSR structure, content re-fingerprint, and the
    /// shape of the embedded coreness and peel order. Corruption that
    /// slipped past the checksum still cannot produce a silently wrong
    /// graph. Sections are found by id *and* element width; unknown ids
    /// are bounds-checked and skipped.
    pub fn validate(bytes: &[u8]) -> Result<Layout, String> {
        let info = Snapshot::peek(bytes)?;
        if info.file_len != bytes.len() as u64 {
            return Err(format!(
                "truncated or padded snapshot: header promises {} bytes, file has {}",
                info.file_len,
                bytes.len()
            ));
        }
        let stored_checksum = u64_at(bytes, 48);
        // Hash the file with the checksum field as zeroes, without copying
        // the (possibly multi-GB) buffer: three spans, eight literal zeros.
        let computed = fnv1a_update(fnv1a_update(fnv1a(&bytes[..48]), &[0u8; 8]), &bytes[56..]);
        if computed != stored_checksum {
            return Err(format!(
                "checksum mismatch: stored {stored_checksum:016x}, computed {computed:016x}"
            ));
        }

        let section_count = u32_at(bytes, 40) as usize;
        let table_end = HEADER_LEN
            .checked_add(
                section_count
                    .checked_mul(SECTION_RECORD_LEN)
                    .ok_or("section table overflow")?,
            )
            .ok_or("section table overflow")?;
        if table_end > bytes.len() {
            return Err("section table extends past end of file".into());
        }
        let mut sections: Vec<(u32, u32, Span)> = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let at = HEADER_LEN + i * SECTION_RECORD_LEN;
            let id = u32_at(bytes, at);
            let width = u32_at(bytes, at + 4);
            let offset = u64_at(bytes, at + 8) as usize;
            let count = u64_at(bytes, at + 16) as usize;
            if width != 4 && width != 8 {
                return Err(format!("section {id}: unsupported element width {width}"));
            }
            if !offset.is_multiple_of(8) {
                return Err(format!("section {id}: payload not 8-byte aligned"));
            }
            let byte_len = count
                .checked_mul(width as usize)
                .ok_or_else(|| format!("section {id}: length overflow"))?;
            let end = offset
                .checked_add(byte_len)
                .ok_or_else(|| format!("section {id}: extent overflow"))?;
            if offset < table_end || end > bytes.len() {
                return Err(format!("section {id}: payload out of bounds"));
            }
            if sections.iter().any(|(existing, _, _)| *existing == id) {
                return Err(format!("duplicate section id {id}"));
            }
            sections.push((id, width, Span { offset, count }));
        }
        let span_of = |want_id: u32, want_width: u32| -> Option<Span> {
            sections
                .iter()
                .find(|(id, width, _)| *id == want_id && *width == want_width)
                .map(|(_, _, span)| *span)
        };

        let n = usize::try_from(info.n).map_err(|_| "vertex count overflows usize")?;
        let m2 = usize::try_from(info.m2).map_err(|_| "target count overflows usize")?;
        let offsets = span_of(SEC_OFFSETS, 8).ok_or("snapshot has no offsets section")?;
        let targets = span_of(SEC_TARGETS, 4).ok_or("snapshot has no targets section")?;
        if n.checked_add(1) != Some(offsets.count) {
            return Err(format!(
                "offsets section has {} entries, expected n+1 = {}",
                offsets.count,
                u128::from(info.n) + 1
            ));
        }
        if targets.count != m2 {
            return Err(format!(
                "targets section has {} entries, header says {m2}",
                targets.count
            ));
        }
        let offs = || offsets.u64s(bytes);
        if offs().next() != Some(0) || offs().next_back() != Some(m2 as u64) {
            return Err("offsets do not span the targets array".into());
        }
        if offs().zip(offs().skip(1)).any(|(a, b)| a > b) {
            return Err("offsets are not monotone".into());
        }
        if targets.u32s(bytes).any(|t| t as usize >= n) {
            return Err("target vertex out of range".into());
        }
        let degrees = offs().zip(offs().skip(1)).map(|(a, b)| b - a);
        let fp = content_fingerprint(n, degrees, targets.u32s(bytes));
        if fp != info.fingerprint {
            return Err(format!(
                "content fingerprint mismatch: stored {:016x}, decoded {fp:016x}",
                info.fingerprint
            ));
        }

        let coreness = span_of(SEC_CORENESS, 4);
        if let Some(span) = coreness.filter(|span| span.count != n) {
            return Err(format!(
                "coreness section has {} entries for {n} vertices",
                span.count
            ));
        }
        let peel_order = span_of(SEC_PEEL_ORDER, 4);
        if let Some(span) = peel_order {
            if span.count != n {
                return Err(format!(
                    "peel order has {} entries for {n} vertices",
                    span.count
                ));
            }
            let mut seen = vec![false; n];
            for v in span.u32s(bytes) {
                let Some(slot) = seen.get_mut(v as usize) else {
                    return Err(format!("peel order names out-of-range vertex {v}"));
                };
                if std::mem::replace(slot, true) {
                    return Err(format!("peel order repeats vertex {v}"));
                }
            }
        }
        let degeneracy = coreness.map_or(0, |span| span.u32s(bytes).max().unwrap_or(0));
        Ok(Layout {
            fingerprint: info.fingerprint,
            n,
            m2,
            offsets,
            targets,
            coreness,
            peel_order,
            degeneracy,
        })
    }

    /// Copies the validated CSR out of `bytes` (the buffer this layout was
    /// validated against) into an owned graph.
    pub fn graph(&self, bytes: &[u8]) -> CsrGraph {
        CsrGraph::from_parts(
            self.offsets.u64s(bytes).map(|o| o as usize).collect(),
            self.targets.u32s(bytes).collect(),
        )
    }
}

fn align8(x: usize) -> usize {
    (x + 7) & !7
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(std::array::from_fn(|i| bytes[at + i]))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| bytes[at + i]))
}

/// FNV-1a over a byte stream: the file checksum, and the hash under
/// [`CsrGraph::fingerprint`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over another span (for hashing a file in
/// pieces, e.g. skipping the checksum field without copying the buffer).
pub(crate) fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Durably writes `bytes` to `path`: write to a sibling temp file, fsync
/// it, rename over the target, then fsync the parent directory so the
/// rename itself survives a crash. The temp name embeds the pid *and* a
/// process-wide counter, so neither another process sharing the data dir
/// nor a concurrent thread writing the same target can clobber a
/// half-written file.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = dir {
        // Directory fsync can fail on exotic filesystems; the data itself
        // is already durable, so don't fail the write over it.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{gen, MappedSnapshot};

    /// Re-patches the checksum of `bytes`, so only the structural rungs of
    /// the ladder can catch the damage, then asserts that a heap buffer and
    /// a mapped file are both rejected with the same error, and returns it.
    fn rejected(mut bytes: Vec<u8>) -> String {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        bytes[48..56].fill(0);
        let c = fnv1a(&bytes);
        bytes[48..56].copy_from_slice(&c.to_le_bytes());
        let heap = Layout::validate(&bytes).expect_err("heap buffer accepted");
        let path = std::env::temp_dir().join(format!(
            "lmcs_rejected_{}_{}.lmcs",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        write_file_atomic(&path, &bytes).unwrap();
        let mapped = MappedSnapshot::map(&path).expect_err("mapped file accepted");
        let _ = std::fs::remove_file(&path);
        assert_eq!(heap, mapped, "heap and mapped loaders disagree");
        heap
    }

    #[test]
    fn round_trip_preserves_graph_and_fingerprint() {
        for g in [
            gen::complete(6),
            gen::planted_clique(120, 0.05, 9, 3),
            CsrGraph::empty(0),
            CsrGraph::empty(5),
            gen::path(2),
        ] {
            let bytes = Snapshot::from_graph(&g).encode();
            let layout = Layout::validate(&bytes).expect("validate");
            assert_eq!(layout.fingerprint, g.fingerprint());
            assert_eq!(layout.graph(&bytes), g);
        }
    }

    #[test]
    fn extra_sections_survive_round_trip() {
        let g = gen::cycle(10);
        let mut snap = Snapshot::from_graph(&g);
        snap.push_section(SEC_CORENESS, SectionData::U32(vec![2; 10]));
        snap.push_section(99, SectionData::U64(vec![7, 8, 9]));
        let bytes = snap.encode();
        let coreness = Layout::validate(&bytes).unwrap().coreness.unwrap();
        assert_eq!(coreness.u32s(&bytes).collect::<Vec<_>>(), [2; 10]);
        // The unknown section is skipped by the ladder but round-trips.
        let at = HEADER_LEN + 3 * SECTION_RECORD_LEN;
        assert_eq!(u32_at(&bytes, at), 99);
        let offset = u64_at(&bytes, at + 8) as usize;
        let extra = Span { offset, count: 3 };
        assert_eq!(extra.u64s(&bytes).collect::<Vec<_>>(), [7, 8, 9]);
        // Sections are found by id and width: a u64 coreness is none.
        snap.push_section(SEC_CORENESS, SectionData::U64(vec![2; 10]));
        let bytes = snap.encode();
        assert!(Layout::validate(&bytes).unwrap().coreness.is_none());
    }

    #[test]
    fn push_section_replaces_same_id() {
        let g = gen::path(4);
        let mut snap = Snapshot::from_graph(&g);
        snap.push_section(SEC_CORENESS, SectionData::U32(vec![1; 4]));
        snap.push_section(SEC_CORENESS, SectionData::U32(vec![2; 4]));
        let bytes = snap.encode();
        let coreness = Layout::validate(&bytes).unwrap().coreness.unwrap();
        assert_eq!(coreness.u32s(&bytes).collect::<Vec<_>>(), [2; 4]);
    }

    #[test]
    fn sections_are_aligned_and_header_is_fixed() {
        let g = gen::planted_clique(33, 0.1, 5, 1); // odd sizes → padding
        let mut snap = Snapshot::from_graph(&g);
        snap.push_section(SEC_CORENESS, SectionData::U32(vec![0; 33]));
        let bytes = snap.encode();
        assert_eq!(&bytes[0..4], b"LMCS");
        assert_eq!(bytes.len() % 8, 0);
        let count = u32_at(&bytes, 40) as usize;
        for i in 0..count {
            let at = HEADER_LEN + i * SECTION_RECORD_LEN;
            assert_eq!(u64_at(&bytes, at + 8) % 8, 0, "section {i} misaligned");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = Snapshot::from_graph(&gen::complete(8)).encode();
        for cut in [
            0,
            10,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() - 8,
            bytes.len() - 1,
        ] {
            assert!(
                Layout::validate(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Padding (extra bytes) is also rejected.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 8]);
        assert!(Layout::validate(&padded).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = Snapshot::from_graph(&gen::planted_clique(40, 0.1, 5, 2)).encode();
        // Exhaustive over the whole file: header, table, payload, padding.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                Layout::validate(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn peek_reads_header_only() {
        let g = gen::planted_clique(50, 0.1, 6, 4);
        let bytes = Snapshot::from_graph(&g).encode();
        let info = Snapshot::peek(&bytes[..HEADER_LEN]).unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.fingerprint, g.fingerprint());
        assert_eq!(info.n, 50);
        assert_eq!(info.m2, 2 * g.num_edges() as u64);
        assert_eq!(info.file_len, bytes.len() as u64);
        assert!(Snapshot::peek(b"nope").is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(Snapshot::peek(&wrong_version).is_err());
    }

    #[test]
    fn hostile_section_tables_do_not_panic() {
        let g = gen::path(6);
        let base = Snapshot::from_graph(&g).encode();
        // Corrupt the header or table in targeted ways; `rejected`
        // re-patches the checksum.
        let offsets_at = u64_at(&base, HEADER_LEN + 8);
        for (at, field, want) in [
            // Section offset pointing past the end.
            (
                HEADER_LEN + 8,
                (1u64 << 40).to_le_bytes().to_vec(),
                "out of bounds",
            ),
            // Element count overflowing the extent.
            (
                HEADER_LEN + 16,
                u64::MAX.to_le_bytes().to_vec(),
                "length overflow",
            ),
            // Bogus element width.
            (
                HEADER_LEN + 4,
                3u32.to_le_bytes().to_vec(),
                "unsupported element width",
            ),
            // Misaligned payload offset.
            (
                HEADER_LEN + 8,
                (offsets_at + 4).to_le_bytes().to_vec(),
                "not 8-byte aligned",
            ),
            // A vertex count whose n+1 overflows.
            (24, u64::MAX.to_le_bytes().to_vec(), "expected n+1"),
        ] {
            let mut b = base.clone();
            b[at..at + field.len()].copy_from_slice(&field);
            let err = rejected(b);
            assert!(err.contains(want), "{want:?} not in {err:?}");
        }
    }

    #[test]
    fn graph_rejects_structurally_bad_sections() {
        let g = gen::path(4); // offsets [0, 1, 3, 5, 6]
        let with = |id: u32, data: SectionData| {
            let mut snap = Snapshot::from_graph(&g);
            snap.push_section(id, data);
            rejected(snap.encode())
        };
        let mut targets = g.raw_parts().1.to_vec();
        targets[0] = 1000;
        for (err, want) in [
            (
                with(SEC_OFFSETS, SectionData::U64(vec![0, 1, 2, 3, 4])),
                "do not span",
            ),
            (
                with(SEC_OFFSETS, SectionData::U64(vec![0, 3, 1, 5, 6])),
                "not monotone",
            ),
            (
                with(SEC_TARGETS, SectionData::U32(targets)),
                "target vertex out of range",
            ),
        ] {
            assert!(err.contains(want), "{want:?} not in {err:?}");
        }
        // Fingerprint mismatch.
        let mut snap = Snapshot::from_graph(&g);
        snap.fingerprint ^= 1;
        let err = rejected(snap.encode());
        assert!(err.contains("content fingerprint mismatch"), "{err}");
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("lmcs_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.lmcs");
        write_file_atomic(&path, b"first").unwrap();
        write_file_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
