//! k-core decomposition and vertex ordering.
//!
//! Vertex ordering is the single most impactful knob in branch-and-bound
//! maximum clique search (paper §IV-F): ordering by *increasing coreness*
//! bounds every right-neighbourhood by the vertex's coreness, which keeps
//! all subproblems small.
//!
//! This crate provides:
//!
//! * [`kcore::kcore_sequential`] — Matula–Beck bucket peeling, O(n+m), also
//!   yielding the *peeling order*;
//! * [`kcore::kcore_parallel`] — round-based parallel peeling (rayon); no
//!   unique peel order exists here, which is exactly why the paper sorts by
//!   (coreness, degree) instead;
//! * [`kcore::kcore_with_floor`] — the paper's `KCore(G, |C*|)`: exact
//!   coreness only for vertices that can matter given the incumbent;
//! * [`sort::par_counting_sort_by_key`] — a parallel stable counting sort
//!   standing in for SAPCo sort \[25\] (see DESIGN.md §7);
//! * [`relabel::VertexOrder`] — the (coreness asc, degree asc) relabelling
//!   used throughout LazyMC;
//! * [`snapshot`] — [`KCore`] serialization into `.lmcs` snapshot sections,
//!   so a persisted graph reloads its decomposition instead of re-peeling.
//!
//! ```
//! use lazymc_graph::gen;
//! use lazymc_order::{kcore_sequential, coreness_degree_order};
//!
//! let g = gen::planted_clique(100, 0.03, 8, 1);
//! let kc = kcore_sequential(&g);
//! assert!(kc.degeneracy >= 7); // the planted 8-clique forces a 7-core
//! assert!(kc.omega_upper_bound() >= 8);
//! let order = coreness_degree_order(&g, &kc.coreness);
//! // highest relabelled id belongs to a deepest-core vertex
//! let top = order.to_original((g.num_vertices() - 1) as u32);
//! assert_eq!(kc.coreness[top as usize], kc.degeneracy);
//! ```

#![deny(clippy::unwrap_used)]

pub mod kcore;
pub mod relabel;
pub mod snapshot;
pub mod sort;

pub use kcore::{kcore_parallel, kcore_sequential, kcore_with_floor, KCore, KCoreView};
pub use relabel::{coreness_degree_order, VertexOrder};
pub use snapshot::{embed_kcore, extract_kcore};
pub use sort::par_counting_sort_by_key;
