//! Graph file readers and writers.
//!
//! Three formats cover the datasets the paper draws from (SNAP edge lists,
//! DIMACS `.clq` clique instances, SuiteSparse/MatrixMarket):
//!
//! * **Edge list** — one `u v` pair per line; `#`, `%` or `c ` lines are
//!   comments. Ids need not be contiguous.
//! * **DIMACS** — `p edge <n> <m>` header, `e <u> <v>` lines, 1-based ids.
//! * **MatrixMarket** — `%%MatrixMarket` banner, `<rows> <cols> <nnz>`
//!   dimension line, 1-based coordinate pairs (extra fields ignored).
//!
//! All readers normalize through [`GraphBuilder`], so duplicate edges,
//! reverse edges and self-loops in the input are tolerated.

use crate::{CsrGraph, GraphBuilder, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content, with a line number and description.
    Parse { line: usize, msg: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Reads a whitespace-separated edge list.
pub fn read_edge_list<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    let mut b = GraphBuilder::new(0);
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        // A lone `c` (or `#`/`%`) with nothing after it is a legal comment
        // line in DIMACS-flavoured edge lists, not a parse error.
        if t.is_empty()
            || t.starts_with('#')
            || t.starts_with('%')
            || t == "c"
            || t.starts_with("c ")
        {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: VertexId = it
            .next()
            .ok_or_else(|| parse_err(idx + 1, "missing source"))?
            .parse()
            .map_err(|e| parse_err(idx + 1, format!("bad source: {e}")))?;
        let v: VertexId = it
            .next()
            .ok_or_else(|| parse_err(idx + 1, "missing target"))?
            .parse()
            .map_err(|e| parse_err(idx + 1, format!("bad target: {e}")))?;
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Reads a DIMACS `.clq`/`.col` instance (1-based vertex ids).
pub fn read_dimacs<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    let mut b: Option<GraphBuilder> = None;
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        if let Some(rest) = t.strip_prefix('p') {
            let mut it = rest.split_whitespace();
            let kind = it.next().unwrap_or("");
            if kind != "edge" && kind != "col" {
                return Err(parse_err(idx + 1, format!("unknown problem kind {kind:?}")));
            }
            let n: usize = it
                .next()
                .ok_or_else(|| parse_err(idx + 1, "missing vertex count"))?
                .parse()
                .map_err(|e| parse_err(idx + 1, format!("bad vertex count: {e}")))?;
            let m: usize = it.next().unwrap_or("0").parse().unwrap_or(0);
            b = Some(GraphBuilder::with_capacity(n, m));
        } else if let Some(rest) = t.strip_prefix('e') {
            let b = b
                .as_mut()
                .ok_or_else(|| parse_err(idx + 1, "edge before problem line"))?;
            let mut it = rest.split_whitespace();
            let u: VertexId = it
                .next()
                .ok_or_else(|| parse_err(idx + 1, "missing source"))?
                .parse()
                .map_err(|e| parse_err(idx + 1, format!("bad source: {e}")))?;
            let v: VertexId = it
                .next()
                .ok_or_else(|| parse_err(idx + 1, "missing target"))?
                .parse()
                .map_err(|e| parse_err(idx + 1, format!("bad target: {e}")))?;
            if u == 0 || v == 0 {
                return Err(parse_err(idx + 1, "DIMACS ids are 1-based"));
            }
            b.add_edge(u - 1, v - 1);
        } else {
            return Err(parse_err(idx + 1, format!("unrecognized line {t:?}")));
        }
    }
    Ok(b.ok_or_else(|| parse_err(0, "missing problem line"))?
        .build())
}

/// Reads a MatrixMarket coordinate file as an undirected graph
/// (1-based ids; values, if present, are ignored).
pub fn read_matrix_market<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(r);
    let mut b: Option<GraphBuilder> = None;
    let mut saw_banner = false;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if idx == 0 {
            if !t.starts_with("%%MatrixMarket") {
                return Err(parse_err(1, "missing %%MatrixMarket banner"));
            }
            saw_banner = true;
            continue;
        }
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let Some(b) = b.as_mut() else {
            // dimension line: rows cols nnz
            let mut it = t.split_whitespace();
            let rows: usize = it
                .next()
                .ok_or_else(|| parse_err(idx + 1, "missing rows"))?
                .parse()
                .map_err(|e| parse_err(idx + 1, format!("bad rows: {e}")))?;
            let cols: usize = it
                .next()
                .ok_or_else(|| parse_err(idx + 1, "missing cols"))?
                .parse()
                .map_err(|e| parse_err(idx + 1, format!("bad cols: {e}")))?;
            let nnz: usize = it.next().unwrap_or("0").parse().unwrap_or(0);
            b = Some(GraphBuilder::with_capacity(rows.max(cols), nnz));
            continue;
        };
        let mut it = t.split_whitespace();
        let u: VertexId = it
            .next()
            .ok_or_else(|| parse_err(idx + 1, "missing row"))?
            .parse()
            .map_err(|e| parse_err(idx + 1, format!("bad row: {e}")))?;
        let v: VertexId = it
            .next()
            .ok_or_else(|| parse_err(idx + 1, "missing col"))?
            .parse()
            .map_err(|e| parse_err(idx + 1, format!("bad col: {e}")))?;
        if u == 0 || v == 0 {
            return Err(parse_err(idx + 1, "MatrixMarket ids are 1-based"));
        }
        b.add_edge(u - 1, v - 1);
    }
    if !saw_banner {
        return Err(parse_err(0, "empty file"));
    }
    Ok(b.ok_or_else(|| parse_err(0, "missing dimension line"))?
        .build())
}

/// Dispatches on the file extension: `.clq`/`.col`/`.dimacs` → DIMACS,
/// `.mtx` → MatrixMarket, everything else → edge list.
pub fn read_path(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    let path = path.as_ref();
    let f = std::fs::File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("clq") | Some("col") | Some("dimacs") => read_dimacs(f),
        Some("mtx") => read_matrix_market(f),
        _ => read_edge_list(f),
    }
}

/// Writes `g` as an edge list (each undirected edge once).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut w: W) -> std::io::Result<()> {
    writeln!(
        w,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Writes `g` in DIMACS `.clq` format (1-based).
pub fn write_dimacs<W: Write>(g: &CsrGraph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "p edge {} {}", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "e {} {}", u + 1, v + 1)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let h = read_dimacs(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let text = "# comment\n% other comment\nc dimacs-style comment\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_accepts_bare_comment_tokens() {
        // A comment marker alone on its line (no trailing space) is legal.
        let text = "c\n#\n%\n  c  \n0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let e = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn dimacs_rejects_zero_based_ids() {
        let e = read_dimacs("p edge 3 1\ne 0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse { .. }));
    }

    #[test]
    fn dimacs_requires_problem_line_first() {
        let e = read_dimacs("e 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse { .. }));
    }

    #[test]
    fn dimacs_isolated_vertices_preserved() {
        let g = read_dimacs("p edge 10 1\ne 1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn matrix_market_basic() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    3 3 2\n\
                    1 2\n\
                    2 3\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn matrix_market_ignores_values_and_self_loops() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 3\n\
                    1 2 0.5\n\
                    2 2 1.0\n\
                    3 1 2.5\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn matrix_market_requires_banner() {
        let e = read_matrix_market("3 3 1\n1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }));
    }
}
