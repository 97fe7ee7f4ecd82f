//! The direction-agnostic core both incremental engines run on: the node
//! arena, the per-run count state, the subtree walk, checkpoints, the
//! checkpointed replay driver, and the lazy stream that is also the batch
//! driver.
//!
//! Both engines exploit Proposition 4.3: the top-`k` and top-`(k+1)`
//! differ by the single tuple `t = R(D)[k+1]`. If `t` satisfies a
//! pattern it satisfies the pattern's tree parent, so the stored nodes
//! `t` satisfies form a connected subtree of the search tree, and one root
//! walk ([`Core::walk`]) bumps all their counts with no dataset scan. What
//! differs between the engines — the lower engine's `Res`/`DRes` frontier
//! and `k̃` schedule, the upper engine's qualification flags and maximal
//! frontier — sits behind the [`Incremental`] trait; everything else is
//! here, once.
//!
//! ## Arena store and run state
//!
//! The node store is split in two. An [`Arena`] holds everything that is
//! a function of the **pattern alone** — the interned pattern, its tree
//! parent, `s_D`, the pruned (`s_D < τs`) verdict and the generated
//! children — in flat vectors addressed by `u32` ids. Per-run state lives
//! beside it in the [`Core`]: `counts[id]` is the node's `s_Rk` (sentinel
//! [`NOT_LIVE`] until the node joins the current run), `open[id]` is the
//! run-level expansion frontier the walks descend through, and `mark[id]`
//! is the engine's per-node bit. The split buys three things:
//!
//! * a [`Checkpoint`] is a **counts-plus-frontier memcpy** — two flat
//!   vectors plus the engine's small frontier payload — instead of a deep
//!   clone of the node map; the arena is shared, not copied;
//! * re-expanding a stored node re-activates its children with
//!   **prefix-only recounts** ([`CountsProvider::prefix_count`], a
//!   truncated bitmap scan) — the stored `s_D` is reused, never
//!   recomputed;
//! * a rebuild (a lower-bound step, or a cold replay build) keeps the
//!   arena and only clears run state, so it also runs on prefix recounts.
//!
//! The arena is append-only (structure is independent of `k` and of the
//! bound), so a checkpoint taken at any time stays consistent with every
//! later arena: restoring extends `counts`/`open` with `NOT_LIVE`/`false`
//! for nodes created after the snapshot. Insertions change `s_D` and the
//! pruned verdicts, so they clear the arena along with the checkpoint
//! store.
//!
//! ## Checkpoints and replay
//!
//! The live monitor keeps one [`Store`] per engine direction: the arena
//! plus a grid of checkpoints every `C` values of `k`. [`replay`] seeks
//! to a stored checkpoint, repairs it against a ranking reorder when the
//! edit swallowed it ([`Incremental::repair`]: ±count walks over the
//! top-`k` set diff plus one store reclassify), and replays forward over
//! the requested **segments** of the `k` range, emitting per-`k` results.
//! A delta re-audit therefore performs zero from-scratch builds on any
//! pure reorder.

use rankfair_data::{TupleId, ValueCode};

use crate::pattern::Pattern;
use crate::space::{counted_children, AttrId, CountsProvider, PatternSpace};
use crate::stats::{
    DeadlineGuard, DetectConfig, DetectionOutput, KResult, ReplayCounters, SearchStats,
};
use crate::util::FxHashSet;

/// Parent id of the level-1 nodes (the empty pattern is not stored).
pub(crate) const ROOT: u32 = u32::MAX;

/// Sentinel in `counts` marking a node that is not live in the current
/// run. Real counts are bounded by `n`, which fits `TupleId` (u32).
const NOT_LIVE: u32 = u32::MAX;

/// Everything about a node that is a function of its pattern alone —
/// shared across runs, checkpoints and replays without cloning.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) pattern: Pattern,
    pub(crate) parent: u32,
    pub(crate) sd: u32,
    /// Structural: the children have been generated and stored. Distinct
    /// from the run-level `open` frontier — a node expanded in an earlier
    /// run re-activates its stored children instead of re-evaluating them.
    expanded: bool,
    /// Children in (attribute, value) order for attributes past
    /// `max_attr`, enabling arithmetic child lookup on the walk.
    pub(crate) children: Vec<u32>,
}

/// The index-addressed node arena: flat `Vec` of [`Node`]s plus the
/// level-1 child index. Append-only, owned by a [`Store`] between runs and
/// moved — not cloned — into the engine for the duration of a replay.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    /// `s_D < τs` verdict per node, kept out of [`Node`] so the hot walks
    /// resolve the prune-skip from one flat byte array — a closed node's
    /// visit never has to pull its full `Node` cache line.
    pub(crate) pruned: Vec<bool>,
    /// Level-1 nodes laid out by `card_prefix[attr] + value` — the walk's
    /// entry points.
    pub(crate) root_children: Vec<u32>,
}

impl Arena {
    /// Number of interned nodes — the steady-state memory driver.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// A resumable snapshot of an engine's **run state** — per-node counts,
/// the open frontier and the engine's frontier payload `F` — anchored at
/// a specific `k`. The node structure lives in the [`Arena`] shared by
/// every snapshot, so taking one is a counts-plus-frontier memcpy.
///
/// Validity under edits: every stored count is `|top-k ∩ p|`, a function
/// of the top-`k` **set** alone, and the frontier is determined by those
/// counts plus store structure. A pure reorder of rank positions
/// `[lo, hi]` leaves the top-`k` set unchanged for `k ≤ lo` and `k > hi`
/// — and for every `k` no row's net movement crossed, which is what
/// segmented replay exploits — so those checkpoints stay exact;
/// insertions move `n` and `s_D`, invalidating every checkpoint and the
/// arena itself.
#[derive(Debug)]
pub(crate) struct Checkpoint<F> {
    /// The `k` whose state this snapshot holds.
    pub(crate) k: usize,
    counts: Vec<u32>,
    open: Vec<bool>,
    frontier: F,
}

/// The persistent per-direction store a monitor keeps between batches:
/// one shared arena plus the `k`-grid of checkpoints taken over it,
/// sorted by `k`.
#[derive(Debug)]
pub(crate) struct Store<F> {
    pub(crate) arena: Arena,
    pub(crate) snaps: Vec<Checkpoint<F>>,
}

impl<F> Default for Store<F> {
    fn default() -> Self {
        Store {
            arena: Arena::default(),
            snaps: Vec::new(),
        }
    }
}

impl<F> Store<F> {
    /// Drops every checkpoint and the arena (insertions change `s_D` and
    /// the pruned verdicts, so the arena is rebuilt from scratch).
    pub(crate) fn clear(&mut self) {
        self.snaps.clear();
        self.arena = Arena::default();
    }

    /// Node slots held across every checkpoint (one `u32` count plus
    /// frontier bits each — the arena is shared, not cloned).
    pub(crate) fn stored_nodes(&self) -> usize {
        self.snaps.iter().map(|cp| cp.counts.len()).sum()
    }
}

/// The arena plus one run's state over it, and the walk, expansion and
/// reclassification machinery both engines share.
pub(crate) struct Core<'a, I: CountsProvider> {
    pub(crate) index: &'a I,
    pub(crate) space: &'a PatternSpace,
    tau_s: usize,
    pub(crate) arena: Arena,
    /// Per-run `s_Rk` per node, [`NOT_LIVE`] until activated this run.
    counts: Vec<u32>,
    /// Run-level expansion frontier: walks descend through `open` nodes
    /// only. `open[id]` implies every stored child of `id` is live.
    open: Vec<bool>,
    /// The engine's per-node bit (lower: in `Res ∪ DRes`; upper:
    /// qualifies). Cleared by [`Core::reset`] and [`Core::restore`]; the
    /// engine's frontier sets it.
    pub(crate) mark: Vec<bool>,
    /// `card_prefix[a] = Σ_{b<a} card(b)`. Children of an expanded node are
    /// generated in (attribute, value) order, so the child binding
    /// `(a, v)` sits at `children[card_prefix[a] − card_prefix[ma+1] + v]`
    /// (where `ma` is the node's max attribute) — child lookup is pure
    /// arithmetic, no hashing on the hot walk.
    card_prefix: Vec<u32>,
    pub(crate) stats: SearchStats,
    /// Activations served by a stored `s_D` plus a truncated prefix scan
    /// instead of a full fused evaluation.
    prefix_recounts: u64,
    /// Reused walk buffers: the DFS stack and the entering tuple's value
    /// codes. Taken/returned by the walk so a replay's per-step walks
    /// never hit the allocator.
    scratch_stack: Vec<u32>,
    scratch_codes: Vec<ValueCode>,
}

impl<'a, I: CountsProvider> Core<'a, I> {
    /// A core over an empty arena.
    pub(crate) fn new(index: &'a I, space: &'a PatternSpace, tau_s: usize) -> Self {
        let mut card_prefix = Vec::with_capacity(space.n_attrs() + 1);
        let mut acc = 0u32;
        card_prefix.push(0);
        for a in space.attr_ids() {
            acc += u32::try_from(space.card(a)).expect("dictionary cap keeps cardinality in u32");
            card_prefix.push(acc);
        }
        Core {
            index,
            space,
            tau_s,
            arena: Arena::default(),
            counts: Vec::new(),
            open: Vec::new(),
            mark: Vec::new(),
            card_prefix,
            stats: SearchStats::default(),
            prefix_recounts: 0,
            scratch_stack: Vec::new(),
            scratch_codes: Vec::new(),
        }
    }

    /// The stored pattern of node `id`.
    #[inline]
    pub(crate) fn pattern(&self, id: u32) -> &Pattern {
        &self.arena.nodes[id as usize].pattern
    }

    /// Node `id`'s current `s_Rk`.
    #[inline]
    pub(crate) fn count(&self, id: u32) -> usize {
        debug_assert!(self.counts[id as usize] != NOT_LIVE);
        self.counts[id as usize] as usize
    }

    /// Whether node `id` is in the current run with a count to classify:
    /// live and not pruned.
    #[inline]
    pub(crate) fn is_live(&self, id: u32) -> bool {
        !self.arena.pruned[id as usize] && self.counts[id as usize] != NOT_LIVE
    }

    /// Clears the run state. The arena is kept: the follow-up build
    /// re-activates the stored structure with prefix recounts instead of
    /// re-evaluating it.
    pub(crate) fn reset(&mut self) {
        let n = self.arena.nodes.len();
        self.counts.clear();
        self.counts.resize(n, NOT_LIVE);
        self.open.clear();
        self.open.resize(n, false);
        self.mark.clear();
        self.mark.resize(n, false);
    }

    /// Overwrites the run state from a checkpoint's vectors. Nodes
    /// interned after the snapshot was taken restore as not-live; `mark`
    /// is cleared for the engine's frontier to set.
    fn restore(&mut self, counts: &[u32], open: &[bool]) {
        let n = self.arena.nodes.len();
        self.counts.clear();
        self.counts.extend_from_slice(counts);
        self.counts.resize(n, NOT_LIVE);
        self.open.clear();
        self.open.extend_from_slice(open);
        self.open.resize(n, false);
        self.mark.clear();
        self.mark.resize(n, false);
    }

    /// Interns a freshly evaluated pattern with its `(s_D, s_Rk)`.
    fn intern(&mut self, pattern: Pattern, parent: u32, (sd, count): (usize, usize)) -> u32 {
        self.stats.nodes_evaluated += 1;
        let id = u32::try_from(self.arena.nodes.len()).expect("node ids fit u32");
        self.arena.nodes.push(Node {
            pattern,
            parent,
            // Row counts are bounded by n, which fits TupleId (u32).
            sd: u32::try_from(sd).expect("row counts fit TupleId"),
            expanded: false,
            children: Vec::new(),
        });
        self.arena.pruned.push(sd < self.tau_s);
        self.counts
            .push(u32::try_from(count).expect("row counts fit TupleId"));
        self.open.push(false);
        self.mark.push(false);
        id
    }

    /// Evaluates every search-tree child of node `parent` (or of the
    /// empty pattern for [`ROOT`]) in one batched count and interns them
    /// in `(a, v)` order, handing each unpruned one to `on_live`.
    fn fresh_children(
        &mut self,
        parent: u32,
        k: usize,
        on_live: &mut impl FnMut(&mut Self, u32),
    ) -> Vec<u32> {
        let pattern = if parent == ROOT {
            Pattern::empty()
        } else {
            self.pattern(parent).clone()
        };
        let (index, space) = (self.index, self.space);
        counted_children(index, space, &pattern, k)
            .map(|(child, counts)| {
                let id = self.intern(child, parent, counts);
                if !self.arena.pruned[id as usize] {
                    on_live(self, id);
                }
                id
            })
            .collect()
    }

    /// Brings a stored node into the current run: the stored `s_D` and
    /// pruned verdict are reused and only the top-`k` prefix is recounted
    /// (a truncated scan that never touches blocks past `k`). Returns
    /// whether the node joined the run with a count to classify — `false`
    /// when it was already live or is pruned.
    fn activate(&mut self, id: u32, k: usize) -> bool {
        let i = id as usize;
        if self.counts[i] != NOT_LIVE {
            return false;
        }
        if self.arena.pruned[i] {
            // Live marker only; counts of pruned nodes are never read.
            self.counts[i] = 0;
            return false;
        }
        let count = self.index.prefix_count(&self.arena.nodes[i].pattern, k);
        self.stats.nodes_evaluated += 1;
        self.prefix_recounts += 1;
        self.counts[i] = u32::try_from(count).expect("row counts fit TupleId");
        true
    }

    /// Brings the level-1 nodes into the current run — fresh evaluations
    /// only on a virgin arena, prefix recounts otherwise. `on_live` sees
    /// every unpruned node that joined the run.
    pub(crate) fn open_root(&mut self, k: usize, mut on_live: impl FnMut(&mut Self, u32)) {
        if self.arena.root_children.is_empty() {
            self.arena.root_children = self.fresh_children(ROOT, k, &mut on_live);
        } else {
            for i in 0..self.arena.root_children.len() {
                let id = self.arena.root_children[i];
                if self.activate(id, k) {
                    on_live(self, id);
                }
            }
        }
    }

    /// Opens `id`'s search-tree children (Definition 4.1) in the current
    /// run: stored children are re-activated with prefix recounts, a node
    /// never expanded before generates them fresh and counts them all in
    /// one batched pass over its own intersection. `on_live` sees every
    /// unpruned child that joined the run. Idempotent per run.
    pub(crate) fn expand(&mut self, id: u32, k: usize, mut on_live: impl FnMut(&mut Self, u32)) {
        let i = id as usize;
        if self.open[i] {
            return;
        }
        if self.arena.nodes[i].expanded {
            for ci in 0..self.arena.nodes[i].children.len() {
                let c = self.arena.nodes[i].children[ci];
                if self.activate(c, k) {
                    on_live(self, c);
                }
            }
        } else {
            let children = self.fresh_children(id, k, &mut on_live);
            let node = &mut self.arena.nodes[i];
            node.children = children;
            node.expanded = true;
        }
        self.open[i] = true;
    }

    /// Adds (`up`) or removes one tuple's worth of counts: bumps every
    /// live node the tuple at rank position `t_pos` satisfies — a
    /// connected subtree reachable from the root — and hands each to
    /// `hook` after its count moved. For a tuple that left the top-`k`,
    /// `t_pos` is its new position below `k`, where the index still reads
    /// its codes.
    pub(crate) fn walk(&mut self, t_pos: usize, up: bool, mut hook: impl FnMut(&mut Self, u32)) {
        let m = self.space.n_attrs() as AttrId;
        // Hoist the tuple's value codes into one contiguous buffer: the
        // inner loop below reads a code per remaining attribute for every
        // open node, and `code_at` is a per-column indirection. Both
        // buffers are core-owned scratch, so steady-state steps are
        // allocation-free.
        let mut codes = std::mem::take(&mut self.scratch_codes);
        codes.clear();
        codes.extend((0..m).map(|a| self.index.code_at(t_pos, a)));
        let mut stack = std::mem::take(&mut self.scratch_stack);
        stack.clear();
        for a in 0..m {
            let idx =
                self.card_prefix[usize::from(a)] as usize + usize::from(codes[usize::from(a)]);
            stack.push(self.arena.root_children[idx]);
        }
        while let Some(id) = stack.pop() {
            let i = id as usize;
            if self.arena.pruned[i] {
                continue; // counts of pruned nodes are never read
            }
            if up {
                self.counts[i] += 1;
            } else {
                self.counts[i] -= 1;
            }
            self.stats.nodes_touched += 1;
            hook(self, id);
            if self.open[i] {
                let start = self.arena.nodes[i].pattern.max_attr().map_or(0, |a| a + 1);
                let base = self.card_prefix[usize::from(start)];
                for a in start..m {
                    let idx = (self.card_prefix[usize::from(a)] - base) as usize
                        + usize::from(codes[usize::from(a)]);
                    stack.push(self.arena.nodes[i].children[idx]);
                }
            }
        }
        self.scratch_codes = codes;
        self.scratch_stack = stack;
    }

    /// Hands every live, unpruned node to `hook` — the store-wide
    /// reclassification after counts or the bound moved in bulk — with
    /// zero fresh evaluations.
    pub(crate) fn rescan(&mut self, mut hook: impl FnMut(&mut Self, u32)) {
        for id in 0..u32::try_from(self.arena.nodes.len()).expect("node ids fit u32") {
            if self.is_live(id) {
                self.stats.nodes_touched += 1;
                hook(self, id);
            }
        }
    }

    /// Finds the live node for sorted `terms` by walking the child
    /// arithmetic from the root, or `None` if the path leaves the open
    /// frontier.
    pub(crate) fn lookup(&self, terms: &[(AttrId, ValueCode)]) -> Option<u32> {
        let (&(a0, v0), rest) = terms.split_first()?;
        let mut id =
            self.arena.root_children[self.card_prefix[usize::from(a0)] as usize + usize::from(v0)];
        let mut ma = a0;
        for &(a, v) in rest {
            if !self.open[id as usize] {
                return None;
            }
            let base = self.card_prefix[usize::from(ma) + 1];
            id = self.arena.nodes[id as usize].children
                [(self.card_prefix[usize::from(a)] - base) as usize + usize::from(v)];
            ma = a;
        }
        Some(id)
    }
}

/// One incremental engine over a [`Core`]: what differs between the
/// under- and over-representation sides. The stream, the batch driver and
/// the checkpointed replay all step an engine through exactly these
/// methods, so no execution mode can drift from another.
pub(crate) trait Incremental<'a> {
    /// The counting index the engine reads.
    type Index: CountsProvider + 'a;
    /// The engine's frontier, stored in every [`Checkpoint`] next to the
    /// counts.
    type Frontier;

    fn core(&self) -> &Core<'a, Self::Index>;
    fn core_mut(&mut self) -> &mut Core<'a, Self::Index>;
    /// Full top-down build at `k` over cleared run state. Returns `false`
    /// on deadline expiry.
    fn build(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool;
    /// One incremental step `k−1 → k`.
    fn advance(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool;
    /// Repairs state positioned at `k` after a pure reorder changed its
    /// top-`k` **set**: subtracts the `leaving` tuples, adds the
    /// `entering` ones (positions in the patched index) and reclassifies.
    /// Sound for reorders only: `s_D`, `n` and the pruned flags are
    /// untouched (an insertion voids the store instead).
    fn repair(
        &mut self,
        k: usize,
        entering: &[usize],
        leaving: &[usize],
        guard: &mut DeadlineGuard,
    ) -> bool;
    /// The current result set for `k`, sorted canonically.
    fn snapshot(&self, k: usize) -> KResult;
    /// A copy of the frontier for a checkpoint.
    fn frontier(&self) -> Self::Frontier;
    /// Overwrites the frontier from a checkpoint (after [`Core::restore`]
    /// cleared `mark`).
    fn set_frontier(&mut self, frontier: &Self::Frontier);
    /// Clears the run state for a fresh build.
    fn reset(&mut self);
}

fn checkpoint<'a, E: Incremental<'a>>(engine: &E, k: usize) -> Checkpoint<E::Frontier> {
    let core = engine.core();
    Checkpoint {
        k,
        counts: core.counts.clone(),
        open: core.open.clone(),
        frontier: engine.frontier(),
    }
}

/// Positions `engine` at `cp.k`; the next [`Incremental::advance`] call
/// must be for `cp.k + 1`.
fn restore<'a, E: Incremental<'a>>(engine: &mut E, cp: &Checkpoint<E::Frontier>) {
    engine.core_mut().restore(&cp.counts, &cp.open);
    engine.set_frontier(&cp.frontier);
}

/// A lazy, resumable detection run: yields the [`KResult`] for each `k`
/// in `[k_min, k_max]` on demand, maintaining the incremental engine
/// between calls. [`Stream::into_output`] drains it into the batch output.
///
/// Later `k` values are never computed unless requested, and the
/// incremental state is reused exactly as in the batch algorithms.
pub(crate) struct Stream<E> {
    engine: E,
    k_min: usize,
    k_max: usize,
    guard: DeadlineGuard,
    next_k: usize,
    failed: bool,
}

impl<'a, E: Incremental<'a>> Stream<E> {
    /// A stream over `cfg`'s `k` range, under its deadline.
    pub(crate) fn new(engine: E, cfg: &DetectConfig) -> Self {
        let n = engine.core().index.n();
        assert!(
            cfg.k_max <= n,
            "k_max ({}) exceeds the number of ranked tuples ({n})",
            cfg.k_max
        );
        Stream {
            engine,
            k_min: cfg.k_min,
            k_max: cfg.k_max,
            guard: DeadlineGuard::new(cfg.deadline),
            next_k: cfg.k_min,
            failed: false,
        }
    }

    /// Instrumentation accumulated so far, with up-to-date wall clock and
    /// timeout flag.
    pub(crate) fn stats(&self) -> SearchStats {
        let mut stats = self.engine.core().stats.clone();
        stats.elapsed = self.guard.elapsed();
        stats.timed_out = self.failed;
        stats
    }

    /// Whether the stream stopped early on the deadline.
    pub(crate) fn timed_out(&self) -> bool {
        self.failed
    }

    /// The batch driver: every `k` of the range (truncated on deadline
    /// expiry, flagged in the stats).
    pub(crate) fn into_output(mut self) -> DetectionOutput {
        let per_k: Vec<KResult> = self.by_ref().collect();
        DetectionOutput {
            per_k,
            stats: self.stats(),
        }
    }
}

impl<'a, E: Incremental<'a>> Iterator for Stream<E> {
    type Item = KResult;

    fn next(&mut self) -> Option<KResult> {
        if self.failed || self.next_k > self.k_max {
            return None;
        }
        let k = self.next_k;
        let ok = if k == self.k_min {
            self.engine.build(k, &mut self.guard)
        } else {
            self.engine.advance(k, &mut self.guard)
        };
        if !ok {
            self.failed = true;
            return None;
        }
        self.next_k += 1;
        Some(self.engine.snapshot(k))
    }
}

/// How a pure-reorder edit batch moved the ranking: the hull start `lo`
/// (smallest rank position whose occupant changed) and the pre-batch
/// order. A checkpoint at `k ≤ lo` or `k > hi` is untouched by the
/// reorder; the one seek checkpoint that can land inside `(lo, hi]` is
/// **repaired** from this spec instead of discarded — the top-`k` set
/// diff is bounded by the number of moved tuples, never by the span, so
/// the repair costs a handful of ±count walks plus one store rescan
/// where a discard would cost a from-scratch build at `k_min`.
pub(crate) struct ReorderSpec {
    /// Smallest rank position whose occupant changed.
    pub(crate) lo: usize,
    /// The full pre-batch rank order.
    pub(crate) old_order: Vec<TupleId>,
}

/// The top-`k` set transition of a reorder whose hull starts at `lo`:
/// `(entering, leaving)` rank positions **in the new order**. Entering
/// tuples (joined the top-`k`) sit at their new positions `< k`; leaving
/// tuples sit at their new positions `≥ k`, where the patched index can
/// still read their attribute codes.
fn top_k_diff(
    k: usize,
    lo: usize,
    old_order: &[TupleId],
    new_order: &[TupleId],
) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(lo < k && k <= old_order.len() && old_order.len() == new_order.len());
    // Only the window [lo, k) can differ between the two top-k sets; hash
    // the windows so the diff stays linear in the window even when a
    // top-of-ranking edit meets a large `k_min` (window = [0, k_min)).
    let old_w: FxHashSet<TupleId> = old_order[lo..k].iter().copied().collect();
    let new_w: FxHashSet<TupleId> = new_order[lo..k].iter().copied().collect();
    let entering: Vec<usize> = (lo..k)
        .filter(|&p| !old_w.contains(&new_order[p]))
        .collect();
    let mut remaining: FxHashSet<TupleId> = old_w.difference(&new_w).copied().collect();
    debug_assert_eq!(entering.len(), remaining.len());
    let mut leaving = Vec::with_capacity(remaining.len());
    if !remaining.is_empty() {
        for (off, r) in new_order[k..].iter().enumerate() {
            if remaining.remove(r) {
                leaving.push(k + off);
                if remaining.is_empty() {
                    break;
                }
            }
        }
        debug_assert!(remaining.is_empty(), "leaving tuples must reappear below k");
    }
    (entering, leaving)
}

/// Writes a checkpoint at `k` when it sits on the grid
/// (`k ≡ k_min (mod cadence)`): reorder replays pass a `heal_cutoff` so
/// only the checkpoints near the span start — where the next seek lands —
/// are (re)written, and deeper stale ones are dropped instead of
/// recloned; full builds (no cutoff) lay the whole grid. Returns whether
/// a checkpoint was written (inserted or overwritten) at `k` — segmented
/// replays track written grid `k`s so a later segment of the same call
/// never re-repairs state that already holds the new order.
fn grid_checkpoint<'a, E: Incremental<'a>>(
    snaps: &mut Vec<Checkpoint<E::Frontier>>,
    engine: &E,
    k: usize,
    k_min: usize,
    cadence: usize,
    heal_cutoff: Option<usize>,
) -> bool {
    if k < k_min || !(k - k_min).is_multiple_of(cadence) {
        return false;
    }
    match snaps.binary_search_by_key(&k, |cp| cp.k) {
        Ok(i) => match heal_cutoff {
            Some(cut) if k > cut => {
                snaps.remove(i);
                false
            }
            _ => {
                snaps[i] = checkpoint(engine, k);
                true
            }
        },
        Err(i) => {
            if heal_cutoff.is_none_or(|cut| k <= cut) {
                snaps.insert(i, checkpoint(engine, k));
                true
            } else {
                false
            }
        }
    }
}

/// Checkpointed execution of one engine over the given `k` **segments**
/// (sorted, disjoint) — the monitor's delta re-audit core.
///
/// For each segment the replay seeks to the latest stored checkpoint at
/// or below the segment start (or keeps stepping from the previous
/// segment's end when that is at least as cheap) and replays forward with
/// per-`k` subtree walks. When the edit hull swallowed a seek checkpoint
/// (`cp.k > reorder.lo`), it is **repaired** in place from the top-`k`
/// set diff rather than discarded — but only when that diff is non-empty:
/// checkpoints in the gaps *between* segments are exact by construction
/// (no row's net movement crossed their `k`), and checkpoints already
/// healed by an earlier segment of this call hold the new state, so both
/// are used as-is. With an empty store (initial audit, or after an
/// insertion voided it) it builds at `k_min` exactly like a fresh run —
/// on the shared arena, so even cold builds after the first run on prefix
/// recounts. Every replayed grid `k` rewrites its checkpoint, keeping the
/// whole store valid after every batch. Output-equivalent to
/// [`Stream::into_output`] on the replayed `k` values — asserted by the
/// differential sweeps.
pub(crate) fn replay<'a, E: Incremental<'a>>(
    mut engine: E,
    store: &mut Store<E::Frontier>,
    k_min: usize,
    spans: &[(usize, usize)],
    reorder: Option<(&ReorderSpec, &[TupleId])>,
    cadence: usize,
    counters: &mut ReplayCounters,
) -> DetectionOutput {
    debug_assert!(cadence >= 1);
    debug_assert!(spans.iter().all(|&(lo, hi)| k_min <= lo && lo <= hi));
    debug_assert!(spans.windows(2).all(|w| w[0].1 < w[1].0));
    // No deadline: monitors reject deadlines at construction, so a replay
    // can never truncate mid-span.
    let mut guard = DeadlineGuard::new(None);
    let mut per_k = Vec::with_capacity(spans.iter().map(|&(lo, hi)| hi - lo + 1).sum());
    counters.segments += spans.len() as u64;
    let core = engine.core_mut();
    core.arena = std::mem::take(&mut store.arena);
    core.reset();
    // Grid ks whose checkpoint was rewritten by this call: those hold the
    // *new* state, so a later segment seeking to one must not repair it.
    let mut healed: FxHashSet<usize> = FxHashSet::default();
    let mut positioned: Option<usize> = None;
    for &(k_lo, k_hi) in spans {
        // Reorder replays re-clone at most the grid checkpoints nearest
        // each segment start; see `grid_checkpoint`.
        let heal_cutoff = reorder.is_some().then_some(k_lo + cadence);
        let seek = store.snaps.iter().rposition(|cp| cp.k <= k_lo);
        let mut k_cur = match (positioned, seek) {
            // Stepping on from the previous segment's end is at least as
            // cheap as restoring a checkpoint at or below it.
            (Some(p), seek) if p <= k_lo && seek.is_none_or(|i| store.snaps[i].k <= p) => p,
            (_, Some(i)) => {
                counters.seeks += 1;
                let cp_k = store.snaps[i].k;
                restore(&mut engine, &store.snaps[i]);
                if let Some((spec, new_order)) = reorder {
                    if cp_k > spec.lo && !healed.contains(&cp_k) {
                        let (entering, leaving) =
                            top_k_diff(cp_k, spec.lo, &spec.old_order, new_order);
                        if !(entering.is_empty() && leaving.is_empty()) {
                            engine.repair(cp_k, &entering, &leaving, &mut guard);
                            counters.repairs += 1;
                            store.snaps[i] = checkpoint(&engine, cp_k);
                            healed.insert(cp_k);
                        }
                    }
                }
                cp_k
            }
            _ => {
                counters.cold_builds += 1;
                counters.replayed_steps += 1;
                engine.reset();
                engine.build(k_min, &mut guard);
                if grid_checkpoint(&mut store.snaps, &engine, k_min, k_min, cadence, None) {
                    healed.insert(k_min);
                }
                k_min
            }
        };
        if k_cur >= k_lo {
            per_k.push(engine.snapshot(k_cur));
        }
        while k_cur < k_hi {
            k_cur += 1;
            engine.advance(k_cur, &mut guard);
            counters.replayed_steps += 1;
            if k_cur >= k_lo {
                per_k.push(engine.snapshot(k_cur));
            }
            if grid_checkpoint(
                &mut store.snaps,
                &engine,
                k_cur,
                k_min,
                cadence,
                heal_cutoff,
            ) {
                healed.insert(k_cur);
            }
        }
        positioned = Some(k_cur);
    }
    let core = engine.core_mut();
    store.arena = std::mem::take(&mut core.arena);
    counters.prefix_recounts += core.prefix_recounts;
    let mut stats = std::mem::take(&mut core.stats);
    stats.elapsed = guard.elapsed();
    DetectionOutput { per_k, stats }
}
