//! Dense maximum clique branch-and-bound.
//!
//! The subgraph MC solver of the paper (§IV-E): derived from Bron–Kerbosch
//! with Tomita-style branching — candidates are greedily colored and
//! explored in reverse color order so that `|C| + color(v) <= |C*|` prunes
//! the whole remaining prefix — plus incumbent-size pruning. It operates on
//! the bit-matrix adjacency of the (small, dense) filtered neighbourhood.
//!
//! All per-node state — the candidate set, color order and bounds of every
//! depth, the current and best cliques, the coloring buffers — lives in a
//! reusable [`McScratch`] arena. A node expansion performs **zero heap
//! allocations** once the arena is warm (verified by the counting-allocator
//! test in `tests/zero_alloc.rs`); the paper's work-avoidance thesis cuts
//! both ways, and per-node `memcpy`+`malloc` of bitsets was the largest
//! avoidable work left in the innermost loop.

use crate::bitset::{BitMatrix, Bitset};
use crate::coloring::{color_order_scratch, ColorScratch};
use crate::live::LiveNodes;
use crate::par::{pinto, plock, SchedCtx, SharedBest, SolveCtx, StopFn};
use crate::scratch::Pool;
use lazymc_sched::Scope;
use std::sync::Mutex;

/// Search statistics, used by the work-accounting figures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct McStats {
    /// Branch-and-bound tree nodes expanded.
    pub nodes: u64,
    /// Of `nodes`, how many were already flushed into a [`LiveNodes`]
    /// sink mid-search. Callers that accumulate `nodes` into the same
    /// sink after the call must add only `nodes - sampled` to keep the
    /// total exact.
    pub sampled: u64,
    /// Subtree tasks generated by the work-splitting driver (0 for a
    /// sequential solve).
    pub split_tasks: u64,
    /// Tasks executed by a worker other than the thread that generated
    /// them (a measure of how much work actually migrated).
    pub steals: u64,
    /// Incumbent improvements published to the shared best-size cell —
    /// each one immediately tightens every other worker's bound.
    pub incumbent_broadcasts: u64,
}

impl McStats {
    /// Element-wise sum of another run's statistics into `self`.
    pub fn merge(&mut self, other: &McStats) {
        self.nodes += other.nodes;
        self.sampled += other.sampled;
        self.split_tasks += other.split_tasks;
        self.steals += other.steals;
        self.incumbent_broadcasts += other.incumbent_broadcasts;
    }
}

/// Per-depth reusable buffers: the color order, its bounds, and the
/// candidate set owned by that depth.
#[derive(Default)]
struct DepthScratch {
    order: Vec<u32>,
    bound: Vec<u32>,
    cand: Bitset,
}

/// Reusable arena for the dense MC search: all per-depth state plus the
/// coloring buffers and the clique vectors. Hold one per worker and thread
/// it through [`max_clique_search`] to make every node expansion
/// allocation-free after warm-up; buffers grow monotonically and are
/// reshaped (never reallocated, once large enough) between solves.
#[derive(Default)]
pub struct McScratch {
    depths: Vec<DepthScratch>,
    color: ColorScratch,
    current: Vec<u32>,
    best_clique: Vec<u32>,
}

impl McScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes retained by the arena (pool retention bound).
    pub fn heap_bytes(&self) -> usize {
        self.color.heap_bytes()
            + (self.current.capacity() + self.best_clique.capacity()) * 4
            + self
                .depths
                .iter()
                .map(|d| d.cand.heap_bytes() + (d.order.capacity() + d.bound.capacity()) * 4)
                .sum::<usize>()
    }
}

/// How a searcher observes (and feeds) an incumbent beyond its own local
/// best. The sequential kernel uses [`NoLink`], a zero-sized no-op that
/// monomorphizes away entirely — width 1 runs byte-for-byte the
/// sequential search, with deterministic node counts. Scope units use
/// [`SharedLink`], which reads the shared best-size atomic before bounding
/// every node and publishes improvements the instant they are found.
trait IncumbentLink {
    /// Latest globally known best size (0 when nothing is shared).
    fn read(&self) -> usize;
    /// Publishes an improvement to the other workers (no-op when local).
    fn publish(&self, clique: &[u32]);
    /// Whether the solve was told to stop (cancellation / deadline trip).
    /// Constant `false` for the sequential link, so the check folds away
    /// and width 1 stays bit-identical.
    fn halted(&self) -> bool;
}

/// Solver-local incumbent only: the sequential code path.
struct NoLink;

impl IncumbentLink for NoLink {
    #[inline]
    fn read(&self) -> usize {
        0
    }
    #[inline]
    fn publish(&self, _clique: &[u32]) {}
    #[inline]
    fn halted(&self) -> bool {
        false
    }
}

/// Link to the [`SharedBest`] of a parallel solve.
struct SharedLink<'a>(&'a SharedBest);

impl IncumbentLink for SharedLink<'_> {
    #[inline]
    fn read(&self) -> usize {
        self.0.size()
    }
    #[inline]
    fn publish(&self, clique: &[u32]) {
        self.0.offer(clique);
    }
    #[inline]
    fn halted(&self) -> bool {
        self.0.halted()
    }
}

struct Searcher<'a, L: IncumbentLink> {
    adj: &'a BitMatrix,
    best: usize,
    found: bool,
    stats: McStats,
    scratch: &'a mut McScratch,
    link: L,
    live: LiveNodes<'a>,
}

impl<L: IncumbentLink> Searcher<'_, L> {
    /// Expands the node whose candidate set the caller placed in
    /// `scratch.depths[depth].cand`.
    fn expand(&mut self, depth: usize) {
        if self.link.halted() {
            // Cancelled / deadline-tripped solve: unwind without counting
            // the node. Dead code for `NoLink` (constant false).
            return;
        }
        self.stats.nodes += 1;
        self.live.tick(self.stats.nodes, &mut self.stats.sampled);
        // An improvement found on any other worker shrinks this subtree:
        // refresh the bound before coloring (one relaxed load per node).
        let shared = self.link.read();
        if shared > self.best {
            self.best = shared;
        }
        // Take this depth's buffers out of the arena for the duration of
        // the frame (empty vectors and a zero-capacity bitset go in; no
        // allocation either way).
        let mut d = std::mem::take(&mut self.scratch.depths[depth]);
        color_order_scratch(
            self.adj,
            &d.cand,
            &mut d.order,
            &mut d.bound,
            &mut self.scratch.color,
        );
        for i in (0..d.order.len()).rev() {
            if self.scratch.current.len() + d.bound[i] as usize <= self.best {
                break; // bounds ascend: everything before i prunes too
            }
            let v = d.order[i] as usize;
            self.scratch.current.push(v as u32);
            if self.scratch.depths.len() <= depth + 1 {
                // First visit to this depth (warm-up): grow the arena.
                self.scratch.depths.push(DepthScratch::default());
            }
            let child = &mut self.scratch.depths[depth + 1];
            // Sized without zeroing: the intersection overwrites every word.
            child.cand.reset_for_overwrite(d.cand.capacity());
            d.cand.intersection_into(self.adj.row(v), &mut child.cand);
            if child.cand.is_empty() {
                if self.scratch.current.len() > self.best {
                    self.best = self.scratch.current.len();
                    self.found = true;
                    self.scratch.best_clique.clear();
                    let current = &self.scratch.current;
                    self.scratch.best_clique.extend_from_slice(current);
                    self.link.publish(&self.scratch.best_clique);
                }
            } else {
                self.expand(depth + 1);
            }
            self.scratch.current.pop();
            d.cand.remove(v);
        }
        self.scratch.depths[depth] = d;
    }
}

/// The MC engine's one entry point: finds a maximum clique of the
/// subgraph induced by `within` *if it is larger than `lb`*, writing the
/// witness into `out` and returning whether one was found. `out` is
/// cleared either way.
///
/// Without a scheduler binding (or at width ≤ 1, or below the split
/// cutoff) this is the deterministic sequential kernel on `scratch`: with
/// a warm arena (and `out` at capacity) it performs no heap allocation.
/// Bound to a pool at width ≥ 2, the top one/two branch levels become
/// claimable scope units that any idle pool worker can execute against
/// one shared incumbent (`SharedBest`) — an improvement found anywhere
/// immediately shrinks every other worker's tree. Units re-split one
/// level deeper when the pool reports idle capacity, and the binding's
/// stop hook (deadline / cancellation) halts every running subtree at its
/// next node. Node counts at width ≥ 2 depend on scheduling; the
/// *result* does not.
pub fn max_clique_search(
    adj: &BitMatrix,
    within: &Bitset,
    lb: usize,
    scratch: &mut McScratch,
    out: &mut Vec<u32>,
    ctx: SolveCtx<'_, McStats>,
) -> bool {
    out.clear();
    if adj.is_empty() || within.len() <= lb {
        return false;
    }
    let mut local = McStats::default();
    let found = match ctx.split() {
        Some(sched) if within.len() >= SPLIT_MIN_VERTICES => {
            search_on_pool(adj, within, lb, sched, &mut local, out, ctx.live)
        }
        _ => {
            let found = run(adj, within, &[], lb, NoLink, scratch, &mut local, ctx.live);
            if found {
                out.extend_from_slice(&scratch.best_clique);
            }
            found
        }
    };
    if let Some(s) = ctx.stats {
        s.merge(&local);
    }
    found
}

/// Runs the search rooted at branch prefix `prefix` (already-chosen
/// clique vertices) over candidate set `cand`, bounding against `best`
/// and whatever `link` reports. Returns whether a clique larger than
/// `best` was found; its witness is left in `scratch.best_clique`.
#[allow(clippy::too_many_arguments)]
fn run<L: IncumbentLink>(
    adj: &BitMatrix,
    cand: &Bitset,
    prefix: &[u32],
    best: usize,
    link: L,
    scratch: &mut McScratch,
    stats: &mut McStats,
    live: LiveNodes<'_>,
) -> bool {
    if scratch.depths.is_empty() {
        scratch.depths.push(DepthScratch::default());
    }
    scratch.depths[0].cand.copy_from(cand);
    scratch.current.clear();
    scratch.current.extend_from_slice(prefix);
    scratch.best_clique.clear();
    let mut s = Searcher {
        adj,
        best,
        found: false,
        stats: McStats::default(),
        scratch,
        link,
        live,
    };
    s.expand(0);
    stats.merge(&s.stats);
    s.found
}

/// Runs one split subtree task — the body of a scope unit — against a
/// shared incumbent: bounds against `max(shared.size(), …)` before
/// coloring every node, and publishes improvements through `shared` the
/// instant they are found. With a warm `scratch` this performs no heap
/// allocation (the per-worker steady state the zero-alloc tests pin
/// down); the witness of any improvement lives in `shared`.
fn search_subtree(
    adj: &BitMatrix,
    cand: &Bitset,
    prefix: &[u32],
    shared: &SharedBest,
    stats: &mut McStats,
    scratch: &mut McScratch,
    live: LiveNodes<'_>,
) {
    if adj.is_empty() || cand.is_empty() {
        return;
    }
    let best = shared.size();
    run(
        adj,
        cand,
        prefix,
        best,
        SharedLink(shared),
        scratch,
        stats,
        live,
    );
}

// ---------------------------------------------------------------------------
// Work splitting on the scheduler
// ---------------------------------------------------------------------------

/// Below this many candidates a solve is not worth splitting: the subtree
/// units would be cheaper than the scheduling round-trips.
const SPLIT_MIN_VERTICES: usize = 32;

/// One branch-prefix subtree task: up to two chosen vertices plus the
/// residual candidate set and the color bound at generation time.
#[derive(Default)]
struct McTask {
    prefix: [u32; 2],
    plen: u8,
    /// Upper bound on any clique in this subtree: the prefix plus the
    /// candidate set lies inside the generating level's color classes
    /// `order[0..=i]`, so `(plen - 1) + bound[i]` bounds the whole task —
    /// the same tight form the kernel's own prune rule uses. Units
    /// re-check it against the shared incumbent at claim time, so tasks
    /// pruned by another worker's improvement are skipped unopened.
    ub: u32,
    cand: Bitset,
}

/// Buffers of one branch-level expansion: the coloring and the working
/// candidate sets (reused across solves, so a warm split allocates
/// nothing).
#[derive(Default)]
struct ExpandScratch {
    color: ColorScratch,
    work: Bitset,
    child: Bitset,
    order: Vec<u32>,
    bound: Vec<u32>,
}

impl ExpandScratch {
    /// Expands the node `prefix + cand` one branch level, exactly as the
    /// kernel would: every child `prefix + [u]` whose color bound can
    /// still beat `shared` becomes a task in `tasks[*live..]`, and trivial
    /// leaves are offered to `shared` directly. Counts as one node.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &mut self,
        adj: &BitMatrix,
        prefix: &[u32],
        cand: &Bitset,
        shared: &SharedBest,
        tasks: &mut Vec<McTask>,
        live: &mut usize,
        stats: &mut McStats,
    ) {
        color_order_scratch(adj, cand, &mut self.order, &mut self.bound, &mut self.color);
        self.work.copy_from(cand);
        stats.nodes += 1;
        let plen = prefix.len() + 1;
        let mut path = [0u32; 2];
        path[..prefix.len()].copy_from_slice(prefix);
        for i in (0..self.order.len()).rev() {
            let ub = prefix.len() as u32 + self.bound[i];
            if ub as usize <= shared.size() {
                break; // bounds ascend: everything before i prunes too
            }
            let u = self.order[i] as usize;
            path[plen - 1] = u as u32;
            self.child.reset_for_overwrite(self.work.capacity());
            self.work.intersection_into(adj.row(u), &mut self.child);
            if self.child.is_empty() {
                shared.offer(&path[..plen]);
            } else {
                push_task(tasks, live, path, plen as u8, ub, &self.child);
            }
            self.work.remove(u);
        }
    }
}

/// Pooled buffers for task generation: the expansion buffers plus the
/// task arena itself.
#[derive(Default)]
struct McSplitScratch {
    bufs: ExpandScratch,
    tasks: Vec<McTask>,
    spill: Vec<McTask>,
}

impl McSplitScratch {
    fn heap_bytes(&self) -> usize {
        let b = &self.bufs;
        b.color.heap_bytes()
            + b.work.heap_bytes()
            + b.child.heap_bytes()
            + (b.order.capacity() + b.bound.capacity()) * 4
            + self
                .tasks
                .iter()
                .chain(self.spill.iter())
                .map(|t| t.cand.heap_bytes())
                .sum::<usize>()
    }
}

/// Arenas grown past this bound by an outlier instance are dropped on
/// return instead of pinned in the static pools for the process lifetime.
const MAX_RETAINED_PAR_BYTES: usize = 8 << 20;

static MC_WORKER: Pool<McScratch> = Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_PAR_BYTES);
static MC_SPLIT: Pool<McSplitScratch> =
    Pool::with_retain(|s| s.heap_bytes() <= MAX_RETAINED_PAR_BYTES);

/// Appends one task slot (reusing a warm slot when available) and bumps
/// the count of live tasks.
fn push_task(
    tasks: &mut Vec<McTask>,
    live: &mut usize,
    prefix: [u32; 2],
    plen: u8,
    ub: u32,
    cand: &Bitset,
) {
    if *live == tasks.len() {
        tasks.push(McTask::default());
    }
    let t = &mut tasks[*live];
    t.prefix = prefix;
    t.plen = plen;
    t.ub = ub;
    t.cand.copy_from(cand);
    *live += 1;
}

/// Expands the top of the branch-and-bound tree into subtree tasks in
/// `split.tasks`: the root level first, then — when that yields fewer
/// tasks than `width` claimants — each root task's second level. Returns
/// the live task count.
fn gen_mc_tasks(
    adj: &BitMatrix,
    within: &Bitset,
    width: usize,
    shared: &SharedBest,
    split: &mut McSplitScratch,
    local: &mut McStats,
) -> usize {
    let McSplitScratch { bufs, tasks, spill } = split;
    let mut live = 0usize;
    bufs.expand(adj, &[], within, shared, tasks, &mut live, local);
    // Second-level split when the root is narrower than the crew.
    if live > 0 && live < width {
        std::mem::swap(tasks, spill);
        let level0 = live;
        live = 0;
        for t in &spill[..level0] {
            bufs.expand(
                adj,
                &t.prefix[..1],
                &t.cand,
                shared,
                tasks,
                &mut live,
                local,
            );
        }
    }
    live
}

/// Task arena of one scheduler-run MC solve: scope unit `i` owns slot `i`.
/// Re-splits append new slots under the lock and publish the indices to
/// the scope, so subtree tasks stay resubmittable mid-solve.
struct McArena {
    tasks: Vec<McTask>,
    live: usize,
}

/// The split path of [`max_clique_search`]: generates the subtree tasks,
/// runs them as one scope on the bound pool (the calling thread claims
/// units too), and collects the shared incumbent's witness into `out`.
fn search_on_pool(
    adj: &BitMatrix,
    within: &Bitset,
    lb: usize,
    sched: SchedCtx<'_>,
    local: &mut McStats,
    out: &mut Vec<u32>,
    sink: LiveNodes<'_>,
) -> bool {
    let shared = SharedBest::with_floor(lb);
    // Publications of any clique this subgraph can produce must not
    // allocate (per-worker steady state).
    shared.reserve(within.len());
    let mut split = MC_SPLIT.take();
    let live = gen_mc_tasks(adj, within, sched.width, &shared, &mut split, local);
    local.split_tasks += live as u64;
    if live > 0 {
        let arena = Mutex::new(McArena {
            tasks: std::mem::take(&mut split.tasks),
            live,
        });
        let agg = Mutex::new(McStats::default());
        sched
            .handle
            .scope(sched.meta, sched.width - 1, live, &|sc, i| {
                mc_sched_unit(adj, &arena, i, &shared, sched.stop, &agg, sc, sink);
            });
        local.merge(&pinto(agg));
        split.tasks = pinto(arena).tasks;
    }
    MC_SPLIT.put(split);
    local.incumbent_broadcasts += shared.broadcasts();
    shared.clique_into(out)
}

/// One scheduler scope unit: claims arena slot `i`, re-splits it one
/// level deeper when the pool has idle workers, otherwise runs the
/// subtree against the shared incumbent. Steady-state allocation-free:
/// the task stays in pooled buffers, the worker arena comes from
/// [`MC_WORKER`].
#[allow(clippy::too_many_arguments)]
fn mc_sched_unit(
    adj: &BitMatrix,
    arena: &Mutex<McArena>,
    i: usize,
    shared: &SharedBest,
    should_stop: Option<StopFn<'_>>,
    agg: &Mutex<McStats>,
    sc: &Scope<'_>,
    sink: LiveNodes<'_>,
) {
    let mut stats = McStats::default();
    if sc.is_helper() {
        stats.steals += 1;
    }
    if let Some(stop) = should_stop {
        if !shared.halted() && stop() {
            shared.halt();
        }
    }
    if !shared.halted() {
        let t = std::mem::take(&mut plock(arena).tasks[i]);
        if t.ub as usize > shared.size() {
            if t.plen == 1 && t.cand.len() >= SPLIT_MIN_VERTICES && sc.idle_workers() > 0 {
                resplit_mc_task(adj, arena, &t, shared, sc, &mut stats);
            } else {
                let mut scratch = MC_WORKER.take();
                search_subtree(
                    adj,
                    &t.cand,
                    &t.prefix[..t.plen as usize],
                    shared,
                    &mut stats,
                    &mut scratch,
                    sink,
                );
                MC_WORKER.put(scratch);
            }
        }
        // Return the slot (and its warm buffers) for later solves.
        plock(arena).tasks[i] = t;
    }
    sink.flush(stats.nodes, &mut stats.sampled);
    plock(agg).merge(&stats);
}

/// Expands a one-vertex-prefix task into its second-level children,
/// appended to the arena and published to the scope — the same expansion
/// the generation pass applies to narrow roots, now on demand when the
/// pool reports idle capacity mid-solve.
fn resplit_mc_task(
    adj: &BitMatrix,
    arena: &Mutex<McArena>,
    t: &McTask,
    shared: &SharedBest,
    sc: &Scope<'_>,
    stats: &mut McStats,
) {
    let mut gen = MC_SPLIT.take();
    let fresh = {
        let mut g = plock(arena);
        let McArena { tasks, live } = &mut *g;
        let live0 = *live;
        let prefix = &t.prefix[..1];
        gen.bufs
            .expand(adj, prefix, &t.cand, shared, tasks, live, stats);
        *live - live0
    };
    MC_SPLIT.put(gen);
    stats.split_tasks += fresh as u64;
    sc.publish(fresh);
}

/// Finds a maximum clique of the graph *if it is larger than `lb`*.
///
/// Returns `Some(clique)` with `clique.len() == ω(G) > lb`, or `None` when
/// `ω(G) <= lb` — the caller's incumbent already covers this subgraph.
/// `stats`, when provided, accumulates node counts. One-shot sequential
/// convenience over [`max_clique_search`].
pub fn max_clique_dense(
    adj: &BitMatrix,
    lb: usize,
    stats: Option<&mut McStats>,
) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    max_clique_search(
        adj,
        &Bitset::full(adj.len()),
        lb,
        &mut McScratch::default(),
        &mut out,
        SolveCtx::with_stats(stats),
    )
    .then_some(out)
}

/// Iterated degree reduction within a candidate set: removes every vertex
/// whose candidate-degree cannot complete a clique of size > `lb`, to a
/// fixpoint. This is the "MC-BRB-style filtering inside the subgraph" the
/// paper names as an easy extension to LazyMC (§V-A); returns the number
/// of vertices removed. Allocation-free: iterates word snapshots instead
/// of cloning the set per round.
pub fn reduce_candidates(adj: &BitMatrix, within: &mut Bitset, lb: usize) -> usize {
    let mut removed = 0usize;
    loop {
        let mut changed = false;
        for wi in 0..within.words().len() {
            let mut w = within.words()[wi];
            while w != 0 {
                let v = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                // a clique through v has at most deg_within(v) + 1 vertices
                if adj.degree_within(v, within) < lb {
                    within.remove(v);
                    removed += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// Exact maximum clique (no prior bound). Empty graph → empty clique.
pub fn max_clique_exact(adj: &BitMatrix) -> Vec<u32> {
    max_clique_dense(adj, 0, None).unwrap_or_default()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn from_edges(n: usize, edges: &[(usize, usize)]) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for &(u, v) in edges {
            m.add_edge(u, v);
        }
        m
    }

    #[test]
    fn triangle() {
        let m = from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = max_clique_exact(&m);
        assert_eq!(c.len(), 3);
        assert!(m.is_clique(&c));
    }

    #[test]
    fn complete_graph() {
        let mut m = BitMatrix::new(7);
        for u in 0..7 {
            for v in u + 1..7 {
                m.add_edge(u, v);
            }
        }
        assert_eq!(max_clique_exact(&m).len(), 7);
    }

    #[test]
    fn edgeless_graph_clique_is_single_vertex() {
        let m = BitMatrix::new(5);
        assert_eq!(max_clique_exact(&m).len(), 1);
    }

    #[test]
    fn empty_graph() {
        let m = BitMatrix::new(0);
        assert!(max_clique_exact(&m).is_empty());
    }

    #[test]
    fn lower_bound_suppresses_result() {
        let m = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(max_clique_dense(&m, 3, None).is_none());
        assert!(max_clique_dense(&m, 4, None).is_none());
        assert_eq!(max_clique_dense(&m, 2, None).unwrap().len(), 3);
    }

    #[test]
    fn two_cliques_picks_larger() {
        // K3 on {0,1,2} and K4 on {3,4,5,6}
        let mut edges = vec![(0, 1), (1, 2), (2, 0)];
        for u in 3..7 {
            for v in u + 1..7 {
                edges.push((u, v));
            }
        }
        edges.push((2, 3)); // bridge
        let m = from_edges(7, &edges);
        let c = max_clique_exact(&m);
        assert_eq!(c.len(), 4);
        let mut c = c;
        c.sort_unstable();
        assert_eq!(c, vec![3, 4, 5, 6]);
    }

    #[test]
    fn petersen_graph_omega_two() {
        // The Petersen graph is triangle-free: ω = 2.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let edges: Vec<(usize, usize)> =
            outer.iter().chain(&spokes).chain(&inner).copied().collect();
        let m = from_edges(10, &edges);
        assert_eq!(max_clique_exact(&m).len(), 2);
    }

    #[test]
    fn stats_count_nodes() {
        let m = from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]);
        let mut st = McStats::default();
        let c = max_clique_dense(&m, 0, Some(&mut st));
        assert_eq!(c.unwrap().len(), 3);
        assert!(st.nodes > 0);
    }

    #[test]
    fn scratch_reuse_across_solves_and_sizes() {
        // One arena, many subgraphs of different sizes: results must match
        // fresh-scratch runs exactly (stale per-depth state must not leak).
        let mut scratch = McScratch::new();
        let mut out = Vec::new();
        let graphs: Vec<(BitMatrix, usize)> = vec![
            (from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]), 3),
            (from_edges(100, &[(0, 99), (99, 50), (50, 0)]), 3),
            (BitMatrix::new(5), 1),
            (from_edges(3, &[(0, 1), (1, 2), (2, 0)]), 3),
        ];
        for (m, omega) in &graphs {
            let full = Bitset::full(m.len());
            let found = max_clique_search(m, &full, 0, &mut scratch, &mut out, SolveCtx::default());
            assert!(found);
            assert_eq!(out.len(), *omega);
            assert!(m.is_clique(&out));
        }
        // lb suppression leaves out empty
        let (m, _) = &graphs[0];
        let full = Bitset::full(m.len());
        assert!(!max_clique_search(
            m,
            &full,
            4,
            &mut scratch,
            &mut out,
            SolveCtx::default()
        ));
        assert!(out.is_empty());
    }

    use crate::test_util::{on_pool, pseudo_graph as pseudo_dense, thread_allocs};

    /// [`max_clique_search`] on the test pool at `width`.
    fn search_at(m: &BitMatrix, lb: usize, width: usize, stats: Option<&mut McStats>) -> Vec<u32> {
        let mut out = Vec::new();
        let ctx = SolveCtx {
            stats,
            sched: Some(on_pool(width)),
            ..SolveCtx::default()
        };
        max_clique_search(
            m,
            &Bitset::full(m.len()),
            lb,
            &mut McScratch::new(),
            &mut out,
            ctx,
        );
        out
    }

    #[test]
    fn parallel_matches_sequential() {
        for (n, p, seed) in [(60, 400, 3), (80, 550, 11), (48, 700, 29)] {
            let m = pseudo_dense(n, p, seed);
            let expect = max_clique_exact(&m);
            for width in [2, 4, 8] {
                let mut st = McStats::default();
                let out = search_at(&m, 0, width, Some(&mut st));
                assert_eq!(out.len(), expect.len(), "n={n} width={width}");
                assert!(m.is_clique(&out));
                assert!(st.nodes > 0);
                assert!(st.split_tasks > 0, "n={n} must be worth splitting");
            }
        }
    }

    #[test]
    fn parallel_respects_lower_bound() {
        let m = pseudo_dense(64, 500, 5);
        let omega = max_clique_exact(&m).len();
        assert!(search_at(&m, omega, 4, None).is_empty());
        assert_eq!(search_at(&m, omega - 1, 4, None).len(), omega);
    }

    #[test]
    fn parallel_small_input_falls_back_to_sequential() {
        // Below the split cutoff the node counts must be byte-identical
        // to the sequential kernel (deterministic fallback).
        let m = pseudo_dense(20, 500, 7);
        let mut seq = McStats::default();
        let expect = max_clique_dense(&m, 0, Some(&mut seq)).unwrap();
        let mut par = McStats::default();
        let out = search_at(&m, 0, 8, Some(&mut par));
        assert_eq!(out.len(), expect.len());
        assert_eq!(par.nodes, seq.nodes, "fallback must be the exact kernel");
        assert_eq!(par.split_tasks, 0);
    }

    #[test]
    fn subtree_task_publishes_through_shared_incumbent() {
        let m = pseudo_dense(40, 600, 13);
        let omega = max_clique_exact(&m).len();
        let shared = SharedBest::with_floor(0);
        let mut scratch = McScratch::new();
        let mut st = McStats::default();
        // A task rooted at the empty prefix over the full candidate set is
        // the whole search: the shared incumbent must end at ω.
        let full = Bitset::full(40);
        search_subtree(
            &m,
            &full,
            &[],
            &shared,
            &mut st,
            &mut scratch,
            LiveNodes::NONE,
        );
        assert_eq!(shared.size(), omega);
        let mut out = Vec::new();
        assert!(shared.clique_into(&mut out));
        assert_eq!(out.len(), omega);
        assert!(m.is_clique(&out));
        assert!(shared.broadcasts() > 0);
    }

    #[test]
    fn subtree_body_is_allocation_free_after_warmup() {
        // The body of every MC scope unit is `search_subtree`: a
        // branch-prefix task run against a shared incumbent. After one
        // warm-up run, a worker's steady state — node expansions, bound
        // refreshes from the shared atomic, *and* incumbent publications
        // (the witness buffer is pre-reserved, as the split driver does) —
        // must not touch the heap.
        let adj = pseudo_dense(120, 550, 42);
        let cand = Bitset::full(adj.len());
        let mut scratch = McScratch::new();
        let mut st = McStats::default();
        let none = LiveNodes::NONE;

        // Warm-up: grows the arena and establishes ω in a first incumbent.
        let warm = SharedBest::with_floor(0);
        warm.reserve(adj.len());
        search_subtree(&adj, &cand, &[], &warm, &mut st, &mut scratch, none);
        let omega = warm.size();
        assert!(omega >= 3, "graph must be non-trivial, got omega {omega}");

        // Steady state 1: a fresh shared incumbent (pre-reserved) makes the
        // worker re-find and re-publish every improvement — still zero allocs.
        let shared = SharedBest::with_floor(0);
        shared.reserve(adj.len());
        let before = thread_allocs();
        search_subtree(&adj, &cand, &[], &shared, &mut st, &mut scratch, none);
        let allocs = thread_allocs() - before;
        assert_eq!(shared.size(), omega);
        assert!(
            shared.broadcasts() > 0,
            "improvements must have been published"
        );
        assert_eq!(
            allocs, 0,
            "MC subtree body allocated {allocs} times after warm-up"
        );

        // Steady state 2: a saturated incumbent (everything prunes) — the
        // prune-heavy regime a worker spends most of its life in.
        let before = thread_allocs();
        search_subtree(&adj, &cand, &[], &shared, &mut st, &mut scratch, none);
        let allocs = thread_allocs() - before;
        assert_eq!(
            allocs, 0,
            "pruned MC subtree body allocated {allocs} times after warm-up"
        );
    }

    #[test]
    fn stop_hook_halts_every_subtree() {
        // A stop hook that fires at the first claim halts the shared
        // incumbent: no unit opens its subtree, the result is whatever the
        // generation pass found (a genuine clique or nothing), and far
        // fewer nodes are expanded than by the full search.
        let m = pseudo_dense(90, 600, 3);
        let mut full = McStats::default();
        let omega = search_at(&m, 0, 2, Some(&mut full)).len();
        let stop = || true;
        let mut st = McStats::default();
        let mut out = Vec::new();
        let ctx = SolveCtx {
            stats: Some(&mut st),
            sched: Some(SchedCtx {
                stop: Some(&stop),
                ..on_pool(2)
            }),
            ..SolveCtx::default()
        };
        max_clique_search(
            &m,
            &Bitset::full(90),
            0,
            &mut McScratch::new(),
            &mut out,
            ctx,
        );
        assert!(out.len() <= omega && m.is_clique(&out));
        assert!(st.split_tasks > 0);
        assert!(st.nodes * 10 < full.nodes, "{} vs {}", st.nodes, full.nodes);
    }

    #[test]
    fn reduce_candidates_removes_low_degree() {
        // Triangle + pendant: lb 2 strips the pendant (degree 1 < 2).
        let m = from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut within = Bitset::full(4);
        let removed = reduce_candidates(&m, &mut within, 2);
        assert_eq!(removed, 1);
        assert!(!within.contains(3));
        assert_eq!(within.len(), 3);
        // Fixpoint cascades: a path collapses entirely under lb 2.
        let p = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut within = Bitset::full(4);
        assert_eq!(reduce_candidates(&p, &mut within, 2), 4);
        assert!(within.is_empty());
    }
}
