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
//! differs between the engines — what each writes in a node's word, and
//! its own frontier (the lower engine's `Res`, designation index and `k̃`
//! schedule, the upper engine's maximal set) — sits behind the
//! [`Incremental`] trait; everything else is here, once.
//!
//! ## Arena store and run state
//!
//! The node store is split in two. An [`Arena`] holds everything that is
//! a function of the **pattern alone**, for substantial nodes only
//! (`s_D ≥ τs`): the interned pattern, its tree parent, `s_D` and the
//! generated children, in flat vectors addressed by `u32` ids. A child
//! that is not substantial is decided once, when its parent is first
//! expanded, and stored as one [`PRUNED`] slot in its parent's child row,
//! never as a node; a child whose sibling `p' ∧ (a = v)` (`p'` its
//! parent's tree parent) is pruned is decided without a count, since
//! `s_D` only shrinks as a pattern gains terms. Per-run state lives
//! beside it in the [`Core`]: `counts[id]` is the node's `s_Rk` (sentinel
//! [`NOT_LIVE`] until the node joins the current run), `open[id]` is the
//! run-level expansion frontier the walks descend through, and `mark[id]`
//! is the engine's per-node word ([`FREE`], [`MARKED`], or a `DRes`
//! member's designated dominator). The split buys three things:
//!
//! * a [`Checkpoint`] is a **run-state memcpy** — three flat vectors plus
//!   a clone of the engine's small frontier — instead of a deep clone of
//!   the node map; the arena is shared, not copied, and restoring
//!   rebuilds nothing;
//! * re-expanding a stored node re-activates its children with
//!   **prefix-only recounts** ([`RankedIndex::prefix_count`], a
//!   truncated bitmap scan) — the stored `s_D` is reused, never
//!   recomputed;
//! * a cold replay build over a stored arena only clears run state, so it
//!   also runs on prefix recounts.
//!
//! The arena is append-only (structure is independent of `k` and of the
//! bound), so a checkpoint taken at any time stays consistent with every
//! later arena: restoring extends `counts`/`open`/`mark` with
//! `NOT_LIVE`/`false`/[`FREE`] for nodes created after the snapshot.
//! Insertions change `s_D` and so which children are substantial, so they
//! clear the arena along with the checkpoint store.
//!
//! ## Checkpoints and replay
//!
//! The live monitor keeps one [`Store`] per engine direction: the arena
//! plus a grid of checkpoints every `C` values of `k`. A pure-reorder
//! batch is described once, as a [`Reorder`]: the rows whose rank
//! position changed, with their positions before and after, from which
//! both the changed-`k` segments and any top-`k` set diff are read.
//! [`replay`] seeks to a stored checkpoint, repairs it when a move
//! crosses its `k` ([`Incremental::repair`]: ±count walks over the
//! top-`k` set diff plus one store reclassify), and replays forward over
//! the requested **segments** of the `k` range, emitting per-`k` results,
//! so a pure reorder never pays a from-scratch build. It rewrites the
//! grid near each segment's start and drops deeper stale checkpoints.

use rankfair_data::{TupleId, ValueCode};

use crate::pattern::Pattern;
use crate::space::{AttrId, PatternSpace, RankedIndex};
use crate::stats::{
    DeadlineGuard, DetectConfig, DetectionOutput, KResult, ReplayCounters, SearchStats,
};
use crate::util::FxHashSet;

/// Parent id of the level-1 nodes (the empty pattern is not stored).
pub(crate) const ROOT: u32 = u32::MAX;

/// Sentinel in `counts` marking a node that is not live in the current
/// run. Real counts are bounded by `n`, which fits `TupleId` (u32).
const NOT_LIVE: u32 = u32::MAX;

/// Sentinel child slot in [`Arena::children`] and [`Arena::root_children`]
/// for a child that is not substantial (`s_D < τs`): it has no node, and
/// no walk, rescan or checkpoint ever sees it.
pub(crate) const PRUNED: u32 = u32::MAX - 1;

/// Sentinel in [`Arena::first_child`] for a node with no stored children.
const NOT_EXPANDED: u32 = u32::MAX;

/// [`Core::mark`] word of a node the engine does not hold.
pub(crate) const FREE: u32 = u32::MAX;

/// [`Core::mark`] word of a node the engine holds with no dominator: a
/// `Res` member, or a qualifying node of the upper engine. Node ids stay
/// below [`PRUNED`], so neither word is ever a dominator id.
pub(crate) const MARKED: u32 = u32::MAX - 1;

/// Everything about a node that is a function of its pattern alone —
/// shared across runs, checkpoints and replays without cloning.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) pattern: Pattern,
    pub(crate) parent: u32,
    pub(crate) sd: u32,
}

/// The index-addressed node arena: flat `Vec` of substantial [`Node`]s
/// plus the level-1 child index. Append-only, owned by a [`Store`]
/// between runs and moved — not cloned — into the engine for the
/// duration of a replay.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    /// One bit per term of each node's pattern, bit
    /// `(card_prefix[a] + v) mod 64` for the term `a = v`. `q ⊆ p` implies
    /// `mask(q) & !mask(p) == 0`, so a dominance scan rejects almost every
    /// non-subset on one AND before comparing terms
    /// ([`Core::may_be_subset`]).
    masks: Vec<u64>,
    /// Per node, the first attribute its children bind: one past its
    /// pattern's last.
    child_attr: Vec<AttrId>,
    /// Per node, where its children start in `children`, or
    /// [`NOT_EXPANDED`]. Structural: a node expanded in an earlier run
    /// re-activates its stored children instead of re-evaluating them,
    /// whatever the run-level `open` frontier says.
    first_child: Vec<u32>,
    /// Every expanded node's children, back to back, each node's in
    /// `(a, v)` order: node `id`'s child binding `a = v` sits at
    /// `first_child[id] + card_prefix[a] − card_prefix[child_attr[id]] + v`,
    /// as a node id or [`PRUNED`]. The walks resolve a child from these
    /// flat vectors alone, never pulling the node's [`Node`] cache line.
    children: Vec<u32>,
    /// Level-1 slots laid out by `card_prefix[attr] + value`, node ids or
    /// [`PRUNED`] — the walk's entry points.
    pub(crate) root_children: Vec<u32>,
}

impl Arena {
    /// Number of interned nodes, all substantial — what steady-state
    /// memory grows with.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// A resumable snapshot of an engine's **run state** — per-node counts,
/// open flags and words, and the engine's frontier `F` — anchored at a
/// specific `k`. The node structure lives in the [`Arena`] shared by
/// every snapshot, so taking one copies the three vectors and clones the
/// frontier, and restoring one rebuilds nothing.
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
    mark: Vec<u32>,
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
    /// so which patterns are substantial, so the arena is rebuilt from
    /// scratch).
    pub(crate) fn clear(&mut self) {
        self.snaps.clear();
        self.arena = Arena::default();
    }

    /// Node slots held across every checkpoint (a count, an open flag and
    /// a word each — the arena is shared, not cloned).
    pub(crate) fn stored_nodes(&self) -> usize {
        self.snaps.iter().map(|cp| cp.counts.len()).sum()
    }
}

/// The arena plus one run's state over it, and the walk, expansion and
/// reclassification machinery both engines share.
pub(crate) struct Core<'a> {
    pub(crate) index: &'a RankedIndex,
    pub(crate) space: &'a PatternSpace,
    tau_s: usize,
    pub(crate) arena: Arena,
    /// Per-run `s_Rk` per node, [`NOT_LIVE`] until activated this run.
    counts: Vec<u32>,
    /// Run-level expansion frontier: walks descend through `open` nodes
    /// only. `open[id]` implies every stored child of `id` is live.
    open: Vec<bool>,
    /// The engine's per-node word: [`FREE`]; [`MARKED`] for a `Res`
    /// member or a qualifying upper-engine node; or, for a `DRes` member,
    /// its designated dominator's id. The one place a node's membership
    /// is kept: a checkpoint copies it with the counts.
    pub(crate) mark: Vec<u32>,
    /// `card_prefix[a] = Σ_{b<a} card(b)`. Children of an expanded node are
    /// generated in (attribute, value) order, so the child binding
    /// `(a, v)` sits `card_prefix[a] − card_prefix[ma+1] + v` past its
    /// first child (where `ma` is the node's max attribute; see
    /// [`Arena::children`]) — child lookup is pure arithmetic, no hashing
    /// on the hot walk.
    card_prefix: Vec<u32>,
    pub(crate) stats: SearchStats,
    /// Activations served by a stored `s_D` plus a truncated prefix scan
    /// instead of a full fused evaluation.
    prefix_recounts: u64,
    /// Children decided pruned from a pruned sibling, with no count.
    #[cfg(test)]
    pub(crate) sibling_skips: usize,
    /// Reused walk buffers: the DFS stack and the entering tuple's child
    /// slots. Taken/returned by the walk so a replay's per-step walks
    /// never hit the allocator.
    scratch_stack: Vec<u32>,
    scratch_slots: Vec<u32>,
    /// Reused expansion buffers: the skip mask and the counts of a fresh
    /// expansion ([`Core::fresh_children`]).
    scratch_skip: Vec<bool>,
    scratch_counts: Vec<(usize, usize)>,
}

impl<'a> Core<'a> {
    /// A core over an empty arena.
    pub(crate) fn new(index: &'a RankedIndex, space: &'a PatternSpace, tau_s: usize) -> Self {
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
            #[cfg(test)]
            sibling_skips: 0,
            scratch_stack: Vec::new(),
            scratch_slots: Vec::new(),
            scratch_skip: Vec::new(),
            scratch_counts: Vec::new(),
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

    /// `false` only when node `a`'s pattern is certainly not a subset of
    /// node `b`'s: a term of `a` is missing from `b`'s term mask. `true`
    /// leaves the term comparison to the caller.
    #[inline]
    pub(crate) fn may_be_subset(&self, a: u32, b: u32) -> bool {
        self.arena.masks[a as usize] & !self.arena.masks[b as usize] == 0
    }

    /// Whether child slot `id` holds a node that is in the current run,
    /// with a count to classify.
    #[inline]
    pub(crate) fn is_live(&self, id: u32) -> bool {
        id != PRUNED && self.counts[id as usize] != NOT_LIVE
    }

    /// Whether the engine holds node `id`: its word is not [`FREE`].
    #[inline]
    pub(crate) fn marked(&self, id: u32) -> bool {
        self.mark[id as usize] != FREE
    }

    /// Clears the run state. The arena is kept: the follow-up build
    /// re-activates the stored structure with prefix recounts instead of
    /// re-evaluating it.
    pub(crate) fn reset(&mut self) {
        self.restore(&[], &[], &[]);
    }

    /// Overwrites the run state from a checkpoint's vectors. Nodes
    /// interned after the snapshot was taken restore as not live, closed
    /// and [`FREE`].
    fn restore(&mut self, counts: &[u32], open: &[bool], mark: &[u32]) {
        let n = self.arena.nodes.len();
        self.counts.clear();
        self.counts.extend_from_slice(counts);
        self.counts.resize(n, NOT_LIVE);
        self.open.clear();
        self.open.extend_from_slice(open);
        self.open.resize(n, false);
        self.mark.clear();
        self.mark.extend_from_slice(mark);
        self.mark.resize(n, FREE);
    }

    /// Interns a freshly counted substantial pattern with its
    /// `(s_D, s_Rk)`.
    fn intern(&mut self, pattern: Pattern, parent: u32, (sd, count): (usize, usize)) -> u32 {
        let id = u32::try_from(self.arena.nodes.len()).expect("node ids fit u32");
        debug_assert!(id < PRUNED, "node ids stay below the sentinels");
        // A child extends its parent by one term, its last.
        let parent_mask = if parent == ROOT {
            0
        } else {
            self.arena.masks[parent as usize]
        };
        let term_bit = pattern.terms().last().map_or(0, |&(a, v)| {
            1u64 << ((self.card_prefix[usize::from(a)] + u32::from(v)) % 64)
        });
        self.arena.masks.push(parent_mask | term_bit);
        self.arena
            .child_attr
            .push(pattern.max_attr().map_or(0, |a| a + 1));
        self.arena.first_child.push(NOT_EXPANDED);
        self.arena.nodes.push(Node {
            pattern,
            parent,
            // Row counts are bounded by n, which fits TupleId (u32).
            sd: u32::try_from(sd).expect("row counts fit TupleId"),
        });
        self.counts
            .push(u32::try_from(count).expect("row counts fit TupleId"));
        self.open.push(false);
        self.mark.push(FREE);
        id
    }

    /// Number of child slots binding an attribute `≥ start`: the row
    /// length of a node whose children start at `start`.
    fn row_len(&self, start: usize) -> usize {
        (self.card_prefix[self.card_prefix.len() - 1] - self.card_prefix[start]) as usize
    }

    /// The child slots of `parent`'s tree parent `p'` that bind an
    /// attribute `≥ start`: slot `i` decides `p' ∧ (a = v)`, a one-term
    /// subset of `parent`'s `i`-th child `parent ∧ (a = v)`. `None` for
    /// the root, whose children have no siblings.
    fn sibling_row(&self, parent: u32, start: AttrId) -> Option<&[u32]> {
        if parent == ROOT {
            return None;
        }
        let gp = self.arena.nodes[parent as usize].parent;
        let start = usize::from(start);
        let off = self.card_prefix[start] as usize;
        if gp == ROOT {
            return Some(&self.arena.root_children[off..]);
        }
        let first = self.arena.first_child[gp as usize];
        // `parent` is a child of `gp`, so `gp` was expanded first.
        assert_ne!(first, NOT_EXPANDED, "a node's tree parent is expanded");
        let base = self.card_prefix[usize::from(self.arena.child_attr[gp as usize])] as usize;
        let at = first as usize + off - base;
        Some(&self.arena.children[at..at + self.row_len(start)])
    }

    /// Decides every search-tree child of node `parent` (or of the empty
    /// pattern for [`ROOT`]) and appends its child row in `(a, v)` order:
    /// a node id for a substantial child, handed to `on_live`, and
    /// [`PRUNED`] for the rest. A child whose sibling slot
    /// ([`Core::sibling_row`]) is pruned is pruned without a count; the
    /// others are counted in one batched pass.
    fn fresh_children(&mut self, parent: u32, k: usize, on_live: &mut impl FnMut(&mut Self, u32)) {
        let (pattern, start) = if parent == ROOT {
            (Pattern::empty(), 0)
        } else {
            let i = parent as usize;
            self.arena.first_child[i] =
                u32::try_from(self.arena.children.len()).expect("node ids fit u32");
            (self.pattern(parent).clone(), self.arena.child_attr[i])
        };
        let mut skip = std::mem::take(&mut self.scratch_skip);
        skip.clear();
        match self.sibling_row(parent, start) {
            Some(row) => skip.extend(row.iter().map(|&s| s == PRUNED)),
            None => skip.resize(self.row_len(0), false),
        }
        #[cfg(test)]
        {
            self.sibling_skips += skip.iter().filter(|&&s| s).count();
        }
        let mut counts = std::mem::take(&mut self.scratch_counts);
        counts.clear();
        self.index
            .child_counts(&pattern, start, k, &skip, &mut counts);
        // Every child is decided here, counted or not.
        self.stats.nodes_evaluated += skip.len() as u64;
        let space = self.space;
        for (((a, v), &skipped), &c) in space.child_bindings(start).zip(&skip).zip(&counts) {
            let slot = if skipped || c.0 < self.tau_s {
                PRUNED
            } else {
                let id = self.intern(pattern.child(a, v), parent, c);
                on_live(self, id);
                id
            };
            if parent == ROOT {
                self.arena.root_children.push(slot);
            } else {
                self.arena.children.push(slot);
            }
        }
        self.scratch_skip = skip;
        self.scratch_counts = counts;
    }

    /// Brings a stored child slot into the current run: a node's stored
    /// `s_D` is reused and only the top-`k` prefix is recounted (a
    /// truncated scan that never touches blocks past `k`). Returns whether
    /// a node joined the run with a count to classify — `false` when it
    /// was already live or the slot is [`PRUNED`].
    fn activate(&mut self, id: u32, k: usize) -> bool {
        if id == PRUNED {
            return false;
        }
        let i = id as usize;
        if self.counts[i] != NOT_LIVE {
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
    /// every substantial node that joined the run.
    pub(crate) fn open_root(&mut self, k: usize, mut on_live: impl FnMut(&mut Self, u32)) {
        if self.arena.root_children.is_empty() {
            self.fresh_children(ROOT, k, &mut on_live);
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
    /// never expanded before decides them fresh ([`Core::fresh_children`]).
    /// `on_live` sees every substantial child that joined the run.
    /// Idempotent per run.
    pub(crate) fn expand(&mut self, id: u32, k: usize, mut on_live: impl FnMut(&mut Self, u32)) {
        let i = id as usize;
        if self.open[i] {
            return;
        }
        if self.arena.first_child[i] == NOT_EXPANDED {
            self.fresh_children(id, k, &mut on_live);
        } else {
            for ci in 0..self.children(id).len() {
                let c = self.children(id)[ci];
                if self.activate(c, k) {
                    on_live(self, c);
                }
            }
        }
        self.open[i] = true;
    }

    /// Node `id`'s stored child slots in `(a, v)` order, node ids or
    /// [`PRUNED`]; empty until the node is first expanded.
    pub(crate) fn children(&self, id: u32) -> &[u32] {
        let i = id as usize;
        match self.arena.first_child[i] {
            NOT_EXPANDED => &[],
            first => {
                let first = first as usize;
                let len = self.row_len(usize::from(self.arena.child_attr[i]));
                &self.arena.children[first..first + len]
            }
        }
    }

    /// Adds (`up`) or removes one tuple's worth of counts: bumps every
    /// live node the tuple at rank position `t_pos` satisfies — a
    /// connected subtree reachable from the root — and hands each to
    /// `hook` after its count moved. For a tuple that left the top-`k`,
    /// `t_pos` is its new position below `k`, where the index still reads
    /// its codes.
    pub(crate) fn walk(&mut self, t_pos: usize, up: bool, mut hook: impl FnMut(&mut Self, u32)) {
        let m = self.space.n_attrs() as AttrId;
        // Hoist the tuple's child slots into one contiguous buffer:
        // `slots[a] = card_prefix[a] + code(a)` places its level-1 node
        // for `a`, and a node whose children start at attribute `s` holds
        // the matching child for `a` at `slots[a] − card_prefix[s]`. The
        // inner loop reads a slot per remaining attribute for every open
        // node, and `code_at` is a per-column indirection. Both buffers
        // are core-owned scratch, so steady-state steps are
        // allocation-free.
        let mut slots = std::mem::take(&mut self.scratch_slots);
        slots.clear();
        slots.extend(
            (0..m).map(|a| {
                self.card_prefix[usize::from(a)] + u32::from(self.index.code_at(t_pos, a))
            }),
        );
        // Pruned slots hold no node to bump.
        let mut stack = std::mem::take(&mut self.scratch_stack);
        stack.clear();
        stack.extend(
            slots
                .iter()
                .map(|&s| self.arena.root_children[s as usize])
                .filter(|&c| c != PRUNED),
        );
        while let Some(id) = stack.pop() {
            let i = id as usize;
            if up {
                self.counts[i] += 1;
            } else {
                self.counts[i] -= 1;
            }
            self.stats.nodes_touched += 1;
            hook(self, id);
            if self.open[i] {
                let arena = &self.arena;
                let start = usize::from(arena.child_attr[i]);
                let first = arena.first_child[i] as usize;
                let base = self.card_prefix[start];
                stack.extend(
                    slots[start..]
                        .iter()
                        .map(|&s| arena.children[first + (s - base) as usize])
                        .filter(|&c| c != PRUNED),
                );
            }
        }
        self.scratch_slots = slots;
        self.scratch_stack = stack;
    }

    /// Hands every live node to `hook` — the store-wide
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

    /// The child slots of `id` ([`ROOT`] for the level-1 slots) that bind
    /// attribute `a`, indexed by value code; `None` unless `id` is an
    /// open node (the root always is). `a` must come after `id`'s last
    /// attribute.
    pub(crate) fn children_binding(&self, id: u32, a: AttrId) -> Option<&[u32]> {
        let a = usize::from(a);
        let (lo, hi) = (
            self.card_prefix[a] as usize,
            self.card_prefix[a + 1] as usize,
        );
        if id == ROOT {
            return Some(&self.arena.root_children[lo..hi]);
        }
        if id == PRUNED || !self.open[id as usize] {
            return None;
        }
        let i = id as usize;
        let first = self.arena.first_child[i] as usize;
        let base = self.card_prefix[usize::from(self.arena.child_attr[i])] as usize;
        Some(&self.arena.children[first + lo - base..first + hi - base])
    }

    /// Finds the child slot for `from`'s pattern plus the sorted `terms`,
    /// which all bind attributes past `from`'s last, by walking the child
    /// arithmetic down from `from` ([`ROOT`] for the empty pattern): a
    /// live node, or [`PRUNED`] when the path ends on a pruned child.
    /// `None` if the path leaves the open frontier or names no node.
    /// Starting below the root saves the hops a caller already knows: a
    /// live node's ancestors are all open.
    pub(crate) fn descend(
        &self,
        from: u32,
        terms: impl IntoIterator<Item = (AttrId, ValueCode)>,
    ) -> Option<u32> {
        let id = terms.into_iter().try_fold(from, |id, (a, v)| {
            Some(self.children_binding(id, a)?[usize::from(v)])
        })?;
        (id != ROOT).then_some(id)
    }
}

/// One incremental engine over a [`Core`]: what differs between the
/// under- and over-representation sides. The stream, the batch driver and
/// the checkpointed replay all step an engine through exactly these
/// methods, so no execution mode can drift from another.
pub(crate) trait Incremental<'a> {
    /// The engine's own run state beside the core's per-node vectors,
    /// cloned whole into every [`Checkpoint`].
    type Frontier: Clone;

    fn core(&self) -> &Core<'a>;
    fn core_mut(&mut self) -> &mut Core<'a>;
    /// Full top-down build at `k` over cleared run state. Returns `false`
    /// on deadline expiry.
    fn build(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool;
    /// One incremental step `k−1 → k`.
    fn advance(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool;
    /// Reclassifies state positioned at `k` after counts moved in bulk:
    /// subtracts the `leaving` tuples, adds the `entering` ones (rank
    /// positions in the current index), reclassifies every live node
    /// under the bound at `k` and applies the transitions. That covers a
    /// reorder's top-`k` set diff, and a bound change at `k` with
    /// `entering = [k − 1]`. `s_D`, `n` and the pruned slots are
    /// untouched in both cases (an insertion voids the store instead).
    fn repair(
        &mut self,
        k: usize,
        entering: &[usize],
        leaving: &[usize],
        guard: &mut DeadlineGuard,
    ) -> bool;
    /// The current result set for `k`, sorted canonically.
    fn snapshot(&self, k: usize) -> KResult;
    fn frontier(&self) -> &Self::Frontier;
    fn frontier_mut(&mut self) -> &mut Self::Frontier;
}

fn checkpoint<'a, E: Incremental<'a>>(engine: &E, k: usize) -> Checkpoint<E::Frontier> {
    let core = engine.core();
    Checkpoint {
        k,
        counts: core.counts.clone(),
        open: core.open.clone(),
        mark: core.mark.clone(),
        frontier: engine.frontier().clone(),
    }
}

/// Positions `engine` at `cp.k`; the next [`Incremental::advance`] call
/// must be for `cp.k + 1`.
fn restore<'a, E: Incremental<'a>>(engine: &mut E, cp: &Checkpoint<E::Frontier>) {
    engine.core_mut().restore(&cp.counts, &cp.open, &cp.mark);
    engine.frontier_mut().clone_from(&cp.frontier);
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

    /// The engine the stream drives.
    #[cfg(test)]
    pub(crate) fn engine(&self) -> &E {
        &self.engine
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

/// The rows a pure-reorder batch moved, each with its 0-based rank
/// position before and after the batch. By Proposition 4.3 a row that
/// moved from `old` to `new` changes the top-`k` set exactly for
/// `k ∈ [min(old, new) + 1, max(old, new)]`: the changed-`k` segments and
/// a crossed seek checkpoint's repair are both read off this one list.
pub(crate) struct Reorder {
    /// `(old, new)` per moved row, `new` ascending.
    moves: Vec<(usize, usize)>,
}

impl Reorder {
    /// The moves of a batch whose hull (the positions whose occupant
    /// changed) starts at `lo` and holds `new_hull` after the batch;
    /// `old_position` reads a row's pre-batch position. Rows that kept
    /// their position are left out, and so is every move whose interval
    /// starts at or past `horizon` (`k_max` plus the segment gap): it
    /// crosses no `k` in range and, merged across a gap, reaches none.
    pub(crate) fn new(
        new_hull: &[TupleId],
        lo: usize,
        old_position: impl Fn(TupleId) -> usize,
        horizon: usize,
    ) -> Self {
        let hull = lo..lo + new_hull.len();
        let moves = hull
            .clone()
            .zip(new_hull)
            .map(|(new, &row)| (old_position(row), new))
            .inspect(|(old, _)| debug_assert!(hull.contains(old), "a reorder permutes its hull"))
            .filter(|&(old, new)| old != new && old.min(new) + 1 < horizon)
            .collect();
        Reorder { moves }
    }

    /// The changed-`k` set as disjoint ascending inclusive segments: each
    /// move's `[min + 1, max]`, merged across gaps shorter than `gap` (the
    /// checkpoint cadence: a separate seek would replay the gap anyway)
    /// and clamped to `[k_min, k_max]`.
    pub(crate) fn segments(&self, k_min: usize, k_max: usize, gap: usize) -> Vec<(usize, usize)> {
        let mut intervals: Vec<(usize, usize)> = self
            .moves
            .iter()
            .map(|&(old, new)| (old.min(new) + 1, old.max(new)))
            .collect();
        intervals.sort_unstable();
        let mut segments: Vec<(usize, usize)> = Vec::new();
        for (s, e) in intervals {
            match segments.last_mut() {
                Some(last) if s <= last.1 + gap => last.1 = last.1.max(e),
                _ => segments.push((s, e)),
            }
        }
        segments
            .into_iter()
            .filter_map(|(s, e)| {
                let s = s.max(k_min);
                let e = e.min(k_max);
                (s <= e).then_some((s, e))
            })
            .collect()
    }

    /// The top-`k` set transition: `(entering, leaving)` rank positions
    /// **in the new order**, both ascending. Entering rows (joined the
    /// top-`k`) sit at their new positions `< k`; leaving rows sit at
    /// their new positions `≥ k`, where the patched index can still read
    /// their attribute codes.
    pub(crate) fn top_k_diff(&self, k: usize) -> (Vec<usize>, Vec<usize>) {
        let (mut entering, mut leaving) = (Vec::new(), Vec::new());
        for &(old, new) in &self.moves {
            if new < k && k <= old {
                entering.push(new);
            } else if old < k && k <= new {
                leaving.push(new);
            }
        }
        (entering, leaving)
    }
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
/// per-`k` subtree walks. When a move of the batch's [`Reorder`] crosses
/// a seek checkpoint's `k`, the checkpoint is **repaired** in place from
/// the top-`k` set diff the moves give rather than discarded. A
/// checkpoint no move crosses (outside the hull, or in a gap *between*
/// segments) is exact, and one already healed by an earlier segment of
/// this call holds the new state, so both are used as-is. With an empty
/// store (initial audit, or after an insertion voided it) it builds at
/// `k_min` exactly like a fresh run — on the shared arena, so even cold
/// builds after the first run on prefix recounts. Every replayed grid `k`
/// rewrites its checkpoint, except that a reorder replay drops the ones
/// past each segment's heal cutoff (see `grid_checkpoint`), so the whole
/// store stays valid after every batch. Output-equivalent to
/// [`Stream::into_output`] on the replayed `k` values — asserted by the
/// differential sweeps.
pub(crate) fn replay<'a, E: Incremental<'a>>(
    mut engine: E,
    store: &mut Store<E::Frontier>,
    k_min: usize,
    spans: &[(usize, usize)],
    reorder: Option<&Reorder>,
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
                if let Some(reorder) = reorder.filter(|_| !healed.contains(&cp_k)) {
                    let (entering, leaving) = reorder.top_k_diff(cp_k);
                    if !(entering.is_empty() && leaving.is_empty()) {
                        engine.repair(cp_k, &entering, &leaving, &mut guard);
                        counters.repairs += 1;
                        store.snaps[i] = checkpoint(&engine, cp_k);
                        healed.insert(cp_k);
                    }
                }
                cp_k
            }
            _ => {
                counters.cold_builds += 1;
                counters.replayed_steps += 1;
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

/// The replay contract both engines keep, checked by each engine's own
/// tests on `fig1` with `k ∈ [2, 16]` at every cadence in [`CADENCES`].
#[cfg(test)]
pub(crate) mod replay_contract {
    use super::*;

    pub(crate) const CADENCES: [usize; 4] = [1, 3, 4, 8];

    /// One replay with a fresh engine, as a monitor runs it.
    fn replayed<'a, E: Incremental<'a>>(
        engine: E,
        cfg: &DetectConfig,
        store: &mut Store<E::Frontier>,
        spans: &[(usize, usize)],
        cadence: usize,
    ) -> (Vec<KResult>, ReplayCounters) {
        let mut c = ReplayCounters::default();
        let out = replay(engine, store, cfg.k_min, spans, None, cadence, &mut c);
        (out.per_k, c)
    }

    /// A full replay equals the batch stream `want`, builds once and
    /// lays a sorted grid; returns the grid.
    fn full_replay<'a, E: Incremental<'a>>(
        engine: E,
        cfg: &DetectConfig,
        want: &[KResult],
        cadence: usize,
        what: &str,
    ) -> Store<E::Frontier> {
        let mut store = Store::default();
        let (full, c) = replayed(engine, cfg, &mut store, &[(2, 16)], cadence);
        assert_eq!(full, want, "{what}");
        assert_eq!(c.cold_builds, 1, "{what}");
        assert!(!store.snaps.is_empty(), "{what}");
        assert!(store.snaps.windows(2).all(|w| w[0].k < w[1].k), "{what}");
        store
    }

    /// After a full replay, a replay of `[9, 12]` equals the batch run's
    /// slice, seeks once, builds nothing and beats a full pass's 14 steps.
    pub(crate) fn check_seeks<'a, E: Incremental<'a>>(
        cfg: &DetectConfig,
        what: &str,
        engine: impl Fn() -> E,
    ) {
        let want = Stream::new(engine(), cfg).into_output().per_k;
        for cadence in CADENCES {
            let what = format!("{what} cadence {cadence}");
            let mut store = full_replay(engine(), cfg, &want, cadence, &what);
            let (sub, c) = replayed(engine(), cfg, &mut store, &[(9, 12)], cadence);
            assert_eq!(sub[..], want[7..=10], "{what}");
            assert_eq!((c.seeks, c.cold_builds), (1, 0), "{what}");
            assert!(c.replayed_steps < 14, "{what}: {} steps", c.replayed_steps);
        }
    }

    /// After a full replay, the segments `[(4, 5), (12, 13)]` emit
    /// exactly those `k`, each equal to the batch run's, with no build
    /// and one or two seeks.
    pub(crate) fn check_segments<'a, E: Incremental<'a>>(
        cfg: &DetectConfig,
        what: &str,
        engine: impl Fn() -> E,
    ) {
        let want = Stream::new(engine(), cfg).into_output().per_k;
        for cadence in CADENCES {
            let what = format!("{what} cadence {cadence}");
            let mut store = full_replay(engine(), cfg, &want, cadence, &what);
            let spans = [(4, 5), (12, 13)];
            let (seg, c) = replayed(engine(), cfg, &mut store, &spans, cadence);
            let ks: Vec<usize> = seg.iter().map(|r| r.k).collect();
            assert_eq!(ks, [4, 5, 12, 13], "{what}");
            assert_eq!(seg[..2], want[2..=3], "{what}");
            assert_eq!(seg[2..], want[10..=11], "{what}");
            assert_eq!((c.segments, c.cold_builds), (2, 0), "{what}");
            assert!((1..=2).contains(&c.seeks), "{what}: {} seeks", c.seeks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_rank::Ranking;
    use rankfair_synth::{random_dataset, random_ranking, RandomSpec};

    /// The flat child layout, the pruned slots, the ancestor-started
    /// lookups, the term masks and the walk, each checked node by node
    /// against the patterns themselves on an arena expanded three levels
    /// deep. At `τs = 40` some level-1 patterns are pruned too, so level-1
    /// expansions skip children.
    #[test]
    fn arena_layout_lookups_and_walk_match_the_patterns() {
        for (seed, tau_s) in (1..=3).flat_map(|seed| [(seed, 5), (seed, 40)]) {
            let rows = 300;
            let spec = RandomSpec {
                rows,
                attrs: 5,
                max_card: 4,
            };
            let ds = random_dataset(seed, spec);
            let space = PatternSpace::from_dataset(&ds).unwrap();
            let ranking = Ranking::from_order(random_ranking(seed, rows)).unwrap();
            let index = RankedIndex::build(&ds, &space, &ranking);
            let k = 40;
            let mut core = Core::new(&index, &space, tau_s);
            core.open_root(k, |_, _| {});
            let mut queue: std::collections::VecDeque<u32> =
                core.arena.root_children.iter().copied().collect();
            while let Some(id) = queue.pop_front() {
                if id != PRUNED && core.pattern(id).len() < 3 {
                    core.expand(id, k, |_, _| {});
                    queue.extend(core.children(id).to_vec());
                }
            }
            assert!(core.sibling_skips > 0, "seed {seed} skips no child");
            // A slot is `PRUNED` exactly when its pattern is not
            // substantial, and otherwise holds the pattern's node.
            let check_slot = |core: &Core<'_>, slot: u32, want: &Pattern| {
                if index.size_in_data(want) < tau_s {
                    assert_eq!(slot, PRUNED, "{want:?}");
                } else {
                    assert_eq!(core.pattern(slot), want);
                }
            };
            for (&slot, (a, v)) in core.arena.root_children.iter().zip(space.child_bindings(0)) {
                check_slot(&core, slot, &Pattern::single(a, v));
                assert_eq!(core.descend(ROOT, [(a, v)]), Some(slot));
            }
            let ids = 0..u32::try_from(core.arena.len()).unwrap();
            for id in ids.clone() {
                let p = core.pattern(id).clone();
                // Every stored node is substantial, with its own `s_D`.
                let sd = index.size_in_data(&p);
                assert!(sd >= tau_s, "{p:?}");
                assert_eq!(core.arena.nodes[id as usize].sd as usize, sd, "{p:?}");
                // The child slots, in (a, v) order, extend `p` by one term.
                let start = p.max_attr().map_or(0, |a| a + 1);
                let bindings: Vec<(AttrId, ValueCode)> = space.child_bindings(start).collect();
                let got = core.children(id);
                if core.open[id as usize] {
                    assert_eq!(got.len(), bindings.len(), "children of {p:?}");
                    for (&slot, &(a, v)) in got.iter().zip(&bindings) {
                        check_slot(&core, slot, &p.child(a, v));
                        let row = core.children_binding(id, a).unwrap();
                        assert_eq!(row[usize::from(v)], slot);
                        assert_eq!(core.descend(id, [(a, v)]), Some(slot));
                    }
                } else {
                    assert!(got.is_empty(), "children of unexpanded {p:?}");
                    if usize::from(start) < space.n_attrs() {
                        assert!(core.children_binding(id, start).is_none());
                    }
                }
                // Every stored node is found from the root and from each
                // of its ancestors.
                let terms = p.terms();
                assert_eq!(core.descend(ROOT, terms.iter().copied()), Some(id));
                let mut ancestor = id;
                for depth in (0..terms.len()).rev() {
                    ancestor = core.arena.nodes[ancestor as usize].parent;
                    let rest = terms[depth..].iter().copied();
                    assert_eq!(
                        core.descend(ancestor, rest),
                        Some(id),
                        "{p:?} from depth {depth}"
                    );
                }
                // The mask filter never rejects a true subset.
                for other in ids.clone() {
                    if core.pattern(other).is_subset_of(&p) {
                        assert!(core.may_be_subset(other, id), "{other} ⊆ {id}");
                    }
                }
            }
            // A walk bumps exactly the live unpruned nodes the tuple
            // matches.
            for t_pos in [0, 1, k - 1, rows / 2, rows - 1] {
                let before = core.counts.clone();
                core.walk(t_pos, true, |_, _| {});
                for id in ids.clone() {
                    if core.is_live(id) {
                        let bump = core.counts[id as usize] - before[id as usize];
                        let matches = index.matches_at(t_pos, core.pattern(id));
                        assert_eq!(bump, u32::from(matches), "t_pos={t_pos} {id}");
                    }
                }
            }
        }
    }

    /// `Reorder` against brute force, over seeded batches of score
    /// updates on a live ranking: `top_k_diff(k)` is the difference of the
    /// old and new top-`k` sets at every `k`, and `segments` is the set of
    /// `k` whose top-`k` set changed, merged across `gap` and clamped the
    /// same way, at every `k_max` — with every move kept, and with the
    /// monitor's cut at `k_max + gap`.
    #[test]
    fn reorder_moves_give_the_exact_changed_k_and_top_k_diff() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use rankfair_rank::ScoredRanking;
        let (n, k_min) = (60, 3);
        let mut live = ScoredRanking::new((0..n).map(|r| r as f64).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        for batch in 0..40 {
            let at = |p: usize| live.order()[p];
            let edits: Vec<(TupleId, f64)> = match batch {
                // The bottom row to the top.
                0 => vec![(at(n - 1), 1e3)],
                // A row sent away and back: its hull moved nobody.
                1 => vec![(at(20), -1e3), (at(20), live.score(at(20)))],
                // The same beside a move that shifts it by one.
                2 => vec![
                    (at(20), -1e3),
                    (at(40), live.score(at(5)) + 0.5),
                    (at(20), live.score(at(20))),
                ],
                // Two swaps at opposite ends of the ranking.
                3 => vec![
                    (at(2), live.score(at(1)) + 0.25),
                    (at(n - 2), live.score(at(n - 3)) + 0.25),
                ],
                _ => (0..rng.random_range(1..=4usize))
                    .map(|_| {
                        let score = f64::from(rng.random_range(0..700u32)) / 10.0 - 5.0;
                        (at(rng.random_range(0..n)), score)
                    })
                    .collect(),
            };
            let old = live.order().to_vec();
            let mut hull: Option<(usize, usize)> = None;
            for (row, score) in edits {
                if let Some((lo, hi)) = live.update_score(row, score).unwrap().changed {
                    hull = Some(hull.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
                }
            }
            let Some((lo, hi)) = hull else { continue };
            let new = live.order();
            let old_position = |row| old.iter().position(|&r| r == row).unwrap();
            // Per k, the new positions of the rows that entered and left
            // the top-k set.
            let diffs: Vec<(Vec<usize>, Vec<usize>)> = (0..=n)
                .map(|k| {
                    let old_top: FxHashSet<TupleId> = old[..k].iter().copied().collect();
                    let entering = (0..k).filter(|&p| !old_top.contains(&new[p])).collect();
                    let leaving = (k..n).filter(|&p| old_top.contains(&new[p])).collect();
                    (entering, leaving)
                })
                .collect();
            let changed: Vec<usize> = (1..=n).filter(|&k| !diffs[k].0.is_empty()).collect();
            if batch == 1 {
                assert!(changed.is_empty(), "away and back moves nobody");
            }
            let every = Reorder::new(&new[lo..=hi], lo, old_position, usize::MAX);
            for (k, diff) in diffs.iter().enumerate() {
                assert_eq!(&every.top_k_diff(k), diff, "batch {batch} k {k}");
            }
            for gap in [1, 3, 8] {
                let cut_at =
                    |k_max: usize| Reorder::new(&new[lo..=hi], lo, old_position, k_max + gap);
                for k_max in k_min..=n {
                    let mut want: Vec<(usize, usize)> = Vec::new();
                    for &k in &changed {
                        match want.last_mut() {
                            Some(last) if k <= last.1 + gap => last.1 = k,
                            _ => want.push((k, k)),
                        }
                    }
                    want.retain_mut(|seg| {
                        *seg = (seg.0.max(k_min), seg.1.min(k_max));
                        seg.0 <= seg.1
                    });
                    let what = format!("batch {batch} hull [{lo}, {hi}] gap {gap} k_max {k_max}");
                    assert_eq!(every.segments(k_min, k_max, gap), want, "{what}");
                    let cut = cut_at(k_max);
                    assert_eq!(cut.segments(k_min, k_max, gap), want, "{what}");
                    for (k, diff) in diffs.iter().enumerate().take(k_max + 1) {
                        assert_eq!(&cut.top_k_diff(k), diff, "{what} k {k}");
                    }
                }
            }
        }
    }
}
