//! The incremental over-representation engine: §III upper-bound detection
//! without the per-`k` rescan.
//!
//! The per-`k` searches in [`crate::upper`] re-run a fresh DFS plus
//! `O(m·card)` maximality probes at **every** `k` — exactly the cost
//! blow-up the paper's Algorithms 2–3 eliminate for the lower-bound
//! problems. This engine applies the same observation (Proposition 4.3:
//! consecutive top-`k` sets differ by one tuple) to the upper-bound side.
//!
//! Qualification here is `s_D(p) ≥ τs ∧ s_Rk(p) > U_k`, which is
//! **subset-closed**: both counts are anti-monotone in specialization, so
//! a subset of a qualifying pattern qualifies. The engine keeps every
//! pattern it has evaluated in a persistent node store and maintains these
//! invariants between `k` values:
//!
//! * **exact counts** — the tuple entering the top-`k` satisfies a
//!   connected subtree of the stored search tree; one root walk bumps all
//!   their counts (no dataset scans), exactly like the lower engine's
//!   `walk_counts`;
//! * **tree closure** — every qualifying node is expanded (its search-tree
//!   children are live), so the live store always covers the full
//!   qualifying set plus one boundary layer. With `U_k` fixed, counts only
//!   grow, so nodes only *start* qualifying — the closure is repaired by
//!   expanding exactly the newly qualifying nodes (and, recursively, their
//!   fresh qualifying children);
//! * **maximal frontier** — the reported most-specific patterns. A pattern
//!   leaves the frontier only when a one-term extension starts qualifying,
//!   and every such extension is itself a live node when it flips (its
//!   tree prefixes are subsets, hence qualify, hence are expanded). So the
//!   per-step frontier delta is: drop the one-term subsets of each newly
//!   qualifying node, then run the `O(m·card)` maximality probe **only on
//!   the newly qualifying nodes** — not on the whole qualifying set as the
//!   per-`k` rescan does. Probes read stored nodes exclusively: an
//!   extension outside the live closure has a non-qualifying (unopened)
//!   prefix, so by subset-closure it cannot qualify — no probe ever costs
//!   a fresh pattern evaluation.
//!
//! On an upper-bound step (`U_k ≠ U_{k-1}`) nodes can flip in both
//! directions, so the engine reclassifies the whole live store in one pass
//! — a store rescan with zero fresh evaluations, not a from-scratch
//! rebuild — expands any newly qualifying region, and applies the same
//! frontier delta with the *lost* nodes folded in: a lost node leaves the
//! frontier, and its still-qualifying one-term subsets (for which it may
//! have been the last qualifying blocker) join the probe candidates.
//! Probes stay confined to the flipped region, so bounds that change at
//! every `k` (e.g. [`Bounds::LinearFraction`]) remain incremental;
//! decreasing bounds are covered too, since the growing qualifying set is
//! re-covered by the expansion cascade.
//!
//! For [`OverRepScope::MostGeneral`] the answer collapses: the qualifying
//! set is subset-closed, so every qualifying multi-term pattern has a
//! qualifying single-term subset, and the most general qualifying patterns
//! are exactly the qualifying **single-term** patterns. The engine then
//! maintains only the root level of the store.
//!
//! ## Arena store and run state
//!
//! Node *structure* — the pattern, its pruned (`s_D < τs`) verdict and
//! the generated children — is independent of `k` and of the bound, so it
//! lives in an append-only [`UpperArena`] owned by the monitor's
//! [`UpperStore`] and shared by every run and checkpoint. Run state is
//! three flat vectors indexed by node id (`counts`, the `open` frontier,
//! the `qualified` flags) plus the maximal frontier set, making an
//! [`UpperCheckpoint`] a counts-plus-frontier memcpy rather than a deep
//! clone of the node store. Re-activating a stored node costs one
//! truncated *prefix* recount (`s_Rk` only — the stored pruned verdict
//! stands in for `s_D`), never a full fused scan.

use crate::audit::OverRepScope;
use crate::bounds::Bounds;
use crate::pattern::Pattern;
use crate::space::{counted_children, AttrId, CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, KResult, ReplayCounters, SearchStats};
use crate::util::FxHashSet;
use rankfair_data::ValueCode;

/// Sentinel in `counts` marking a node that is not live in the current
/// run. Real counts are bounded by `n`, which fits `TupleId` (u32).
const NOT_LIVE: u32 = u32::MAX;

/// Everything about a node that is a function of its pattern alone —
/// shared across runs, checkpoints and replays without cloning. (`s_D`
/// itself is not stored: the upper side only ever reads its `≥ τs`
/// verdict.)
#[derive(Debug, Clone)]
struct UpperNodeMeta {
    pattern: Pattern,
    /// Structural: the children have been generated and stored. Distinct
    /// from the run-level `open` frontier — a node expanded in an earlier
    /// run re-activates its stored children instead of re-evaluating them.
    expanded: bool,
    /// Children in (attribute, value) order for attributes past
    /// `max_attr`, enabling arithmetic child lookup on the walk.
    children: Vec<u32>,
}

/// The upper engine's index-addressed node arena: flat `Vec` of
/// [`UpperNodeMeta`] plus the level-1 child index. Append-only (node
/// structure is independent of `k` and of the bound), owned by the
/// [`UpperStore`] between runs and moved — not cloned — into the engine
/// for the duration of a replay.
#[derive(Debug, Default)]
pub(crate) struct UpperArena {
    nodes: Vec<UpperNodeMeta>,
    /// `s_D < τs` per node (never qualifies, never expanded, counts never
    /// read), kept out of [`UpperNodeMeta`] so the hot walks resolve the
    /// prune-skip from one flat byte array.
    pruned: Vec<bool>,
    /// Level-1 nodes laid out by `card_prefix[attr] + value` — the walk's
    /// entry points.
    root_children: Vec<u32>,
}

impl UpperArena {
    /// Number of interned nodes — the steady-state memory driver.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Drops all interned structure (insertions change `s_D` and the
    /// pruned verdicts, so the arena is rebuilt from scratch).
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.pruned.clear();
        self.root_children.clear();
    }
}

/// The persistent upper-side store a monitor keeps between batches: one
/// shared arena plus the `k`-grid of counts-only snapshots taken over it.
#[derive(Debug, Default)]
pub(crate) struct UpperStore {
    pub(crate) arena: UpperArena,
    pub(crate) snaps: Vec<UpperCheckpoint>,
}

pub(crate) struct UpperEngine<'a, I: CountsProvider> {
    index: &'a I,
    space: &'a PatternSpace,
    tau_s: usize,
    scope: OverRepScope,
    arena: UpperArena,
    /// Per-run `s_Rk` per node, [`NOT_LIVE`] until activated this run.
    counts: Vec<u32>,
    /// Run-level expansion frontier: walks descend through `open` nodes
    /// only. `open[id]` implies every stored child of `id` is live.
    open: Vec<bool>,
    /// `s_D ≥ τs ∧ count > U_k` under the current `(k, U_k)`, per node.
    qualified: Vec<bool>,
    /// `card_prefix[a] = Σ_{b<a} card(b)` — the walk's child-lookup
    /// arithmetic, shared with the lower engine.
    card_prefix: Vec<u32>,
    /// Node ids of the maximal frontier (most-specific qualifying
    /// patterns). Unused for [`OverRepScope::MostGeneral`].
    maximal: FxHashSet<u32>,
    stats: SearchStats,
    /// Activations served by the stored pruned verdict plus a truncated
    /// prefix scan instead of a full fused evaluation.
    prefix_recounts: u64,
    /// Reused walk buffers: the DFS stack and the entering tuple's value
    /// codes. Taken/returned by the walks so a replay's per-step walks
    /// never hit the allocator.
    scratch_stack: Vec<u32>,
    scratch_codes: Vec<ValueCode>,
}

impl<'a, I: CountsProvider> UpperEngine<'a, I> {
    fn new(index: &'a I, space: &'a PatternSpace, tau_s: usize, scope: OverRepScope) -> Self {
        let mut card_prefix = Vec::with_capacity(space.n_attrs() + 1);
        let mut acc = 0u32;
        card_prefix.push(0);
        for a in space.attr_ids() {
            acc += u32::try_from(space.card(a)).expect("dictionary cap keeps cardinality in u32");
            card_prefix.push(acc);
        }
        UpperEngine {
            index,
            space,
            tau_s,
            scope,
            arena: UpperArena::default(),
            counts: Vec::new(),
            open: Vec::new(),
            qualified: Vec::new(),
            card_prefix,
            maximal: FxHashSet::default(),
            stats: SearchStats::default(),
            prefix_recounts: 0,
            scratch_stack: Vec::new(),
            scratch_codes: Vec::new(),
        }
    }

    /// An engine over a pre-existing arena (no run state yet): the replay
    /// entry point. The arena is moved in, not cloned, and handed back by
    /// [`UpperEngine::into_parts`].
    fn with_arena(
        index: &'a I,
        space: &'a PatternSpace,
        tau_s: usize,
        scope: OverRepScope,
        arena: UpperArena,
    ) -> Self {
        let mut engine = UpperEngine::new(index, space, tau_s, scope);
        engine.counts = vec![NOT_LIVE; arena.nodes.len()];
        engine.open = vec![false; arena.nodes.len()];
        engine.qualified = vec![false; arena.nodes.len()];
        engine.arena = arena;
        engine
    }

    /// Tears the engine down, returning the (possibly grown) arena to its
    /// store along with the run's instrumentation.
    fn into_parts(self) -> (UpperArena, SearchStats, u64) {
        (self.arena, self.stats, self.prefix_recounts)
    }

    /// Evaluates every search-tree child of `pattern` in one batched count
    /// and interns them in `(a, v)` order, classified under `(k, u)`.
    fn eval_children(&mut self, pattern: &Pattern, k: usize, u: usize) -> Vec<u32> {
        counted_children(self.index, self.space, pattern, k)
            .map(|(child, counts)| self.eval_new(child, counts, u))
            .collect()
    }

    /// Interns a freshly evaluated pattern with its `(s_D, s_Rk)` and
    /// classifies it under the bound `u`.
    fn eval_new(&mut self, pattern: Pattern, (sd, count): (usize, usize), u: usize) -> u32 {
        self.stats.nodes_evaluated += 1;
        let pruned = sd < self.tau_s;
        let id = u32::try_from(self.arena.nodes.len()).expect("node ids fit u32");
        self.arena.nodes.push(UpperNodeMeta {
            pattern,
            expanded: false,
            children: Vec::new(),
        });
        self.arena.pruned.push(pruned);
        // Row counts are bounded by n, which fits TupleId (u32).
        self.counts
            .push(u32::try_from(count).expect("row counts fit TupleId"));
        self.open.push(false);
        self.qualified.push(!pruned && count > u);
        id
    }

    /// Brings a stored node into the current run: the stored pruned
    /// verdict is reused and only the top-`k` prefix is recounted (a
    /// truncated scan that never touches blocks past `k`). Idempotent —
    /// an already-live node is left untouched.
    fn activate(&mut self, id: u32, k: usize, u: usize) {
        if self.counts[id as usize] != NOT_LIVE {
            return;
        }
        if self.arena.pruned[id as usize] {
            // Live marker only; counts of pruned nodes are never read.
            self.counts[id as usize] = 0;
            return;
        }
        let count = self
            .index
            .prefix_count(&self.arena.nodes[id as usize].pattern, k);
        self.stats.nodes_evaluated += 1;
        self.prefix_recounts += 1;
        self.counts[id as usize] = u32::try_from(count).expect("row counts fit TupleId");
        self.qualified[id as usize] = count > u;
    }

    /// Finds the live node for sorted `terms` by walking the child
    /// arithmetic from the root, or `None` if the path leaves the live
    /// closure. Every pattern whose proper tree prefixes all qualify is
    /// reachable (qualifying nodes are always open).
    fn lookup(&self, terms: &[(AttrId, ValueCode)]) -> Option<u32> {
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

    /// Phase 1 of a step: bump the count of every live node the newly
    /// ranked tuple satisfies (a connected subtree reachable from the
    /// root). With `fresh = Some(..)` the qualification flag is updated
    /// in place and nodes that flip qualifying are collected; with `None`
    /// only counts move (a bound step reclassifies every flag afterwards).
    fn walk_counts(&mut self, k: usize, u: usize, mut fresh: Option<&mut Vec<u32>>) {
        let t_pos = k - 1;
        let m = self.space.n_attrs() as AttrId;
        // Hoist the tuple's value codes into one contiguous buffer: the
        // inner loop below reads a code per remaining attribute for every
        // open node, and `code_at` is a per-column indirection. Both
        // buffers are engine-owned scratch, so steady-state steps are
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
            if self.arena.pruned[id as usize] {
                continue; // counts of pruned nodes are never read
            }
            self.counts[id as usize] += 1;
            self.stats.nodes_touched += 1;
            if let Some(list) = fresh.as_deref_mut() {
                if !self.qualified[id as usize] && (self.counts[id as usize] as usize) > u {
                    self.qualified[id as usize] = true;
                    list.push(id);
                }
            }
            if self.open[id as usize] {
                let start = self.arena.nodes[id as usize]
                    .pattern
                    .max_attr()
                    .map_or(0, |a| a + 1);
                let base = self.card_prefix[usize::from(start)];
                for a in start..m {
                    let idx = (self.card_prefix[usize::from(a)] - base) as usize
                        + usize::from(codes[usize::from(a)]);
                    stack.push(self.arena.nodes[id as usize].children[idx]);
                }
            }
        }
        self.scratch_codes = codes;
        self.scratch_stack = stack;
    }

    /// Phase 2: repair the tree closure. Every node in `fresh` (newly
    /// qualifying) is opened; stored children re-activate with prefix
    /// recounts, never-expanded nodes generate their children fresh and
    /// count them in one batched pass. Children that qualify under
    /// `(k, u)` join the worklist, so the closure grows to cover the whole
    /// new qualifying region.
    fn cascade(
        &mut self,
        fresh: &mut Vec<u32>,
        k: usize,
        u: usize,
        guard: &mut DeadlineGuard,
    ) -> bool {
        let mut i = 0;
        while i < fresh.len() {
            if guard.expired() {
                return false;
            }
            let id = fresh[i];
            i += 1;
            if self.open[id as usize] {
                // Re-qualifying after a bound step: children already live
                // and walked; their own flips were collected independently.
                continue;
            }
            if self.arena.nodes[id as usize].expanded {
                for ci in 0..self.arena.nodes[id as usize].children.len() {
                    let c = self.arena.nodes[id as usize].children[ci];
                    self.activate(c, k, u);
                    if self.qualified[c as usize] {
                        fresh.push(c);
                    }
                }
            } else {
                let pattern = self.arena.nodes[id as usize].pattern.clone();
                let children = self.eval_children(&pattern, k, u);
                fresh.extend(children.iter().filter(|&&c| self.qualified[c as usize]));
                let nd = &mut self.arena.nodes[id as usize];
                nd.children = children;
                nd.expanded = true;
            }
            self.open[id as usize] = true;
        }
        true
    }

    /// Whether any one-term extension of `id` qualifies under the current
    /// bound `u` — entirely from live state, with **zero** fresh pattern
    /// evaluations: a `lookup` miss means some tree prefix of the
    /// extension is unopened, i.e. non-qualifying, and qualification is
    /// subset-closed, so the extension cannot qualify either. Returns
    /// `None` on deadline expiry.
    fn probe_maximal(&mut self, id: u32, u: usize, guard: &mut DeadlineGuard) -> Option<bool> {
        let pattern = self.arena.nodes[id as usize].pattern.clone();
        let m = self.space.n_attrs() as AttrId;
        let mut ext: Vec<(AttrId, ValueCode)> = Vec::with_capacity(pattern.len() + 1);
        for a in 0..m {
            if pattern.value_of(a).is_some() {
                continue;
            }
            for v in self.space.value_codes(a) {
                if guard.expired() {
                    return None;
                }
                ext.clear();
                ext.extend_from_slice(pattern.terms());
                ext.push((a, v));
                ext.sort_unstable();
                let qualifies = match self.lookup(&ext) {
                    Some(eid) => {
                        self.stats.nodes_touched += 1;
                        debug_assert!(self.counts[eid as usize] != NOT_LIVE);
                        !self.arena.pruned[eid as usize] && (self.counts[eid as usize] as usize) > u
                    }
                    None => false,
                };
                if qualifies {
                    return Some(false);
                }
            }
        }
        Some(true)
    }

    /// The sorted one-term-deletion subsets of a stored node's pattern
    /// (empty for single-term patterns, whose only subset is the
    /// never-reported empty pattern), resolved to node ids. The subsets of
    /// a pattern that qualifies — or qualified before this step — are
    /// always live and reachable, hence the `expect`.
    fn one_term_subset_ids(&self, id: u32) -> Vec<u32> {
        let pattern = &self.arena.nodes[id as usize].pattern;
        if pattern.len() < 2 {
            return Vec::new();
        }
        let terms = pattern.terms();
        let mut sub: Vec<(AttrId, ValueCode)> = Vec::with_capacity(terms.len() - 1);
        (0..terms.len())
            .map(|drop_i| {
                sub.clear();
                sub.extend(
                    terms
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != drop_i)
                        .map(|(_, &t)| t),
                );
                self.lookup(&sub)
                    // lint:allow(panic-reachability) -- closure invariant: every one-term subset of a stored pattern is itself stored; the expect is the loud invariant check
                    .expect("one-term subsets of a qualifying pattern are stored")
            })
            .collect()
    }

    /// Applies the frontier delta once a step has finalized every
    /// qualification flag and repaired the closure. `fresh` holds the
    /// nodes that started qualifying, `lost` those that stopped (possible
    /// only on bound steps).
    ///
    /// Correctness: a pattern's frontier membership changes only when (a)
    /// it flips qualification itself, or (b) a one-term extension flips —
    /// and every extension that flips is a live node in `fresh`/`lost`
    /// (its tree prefixes are subsets, hence qualify(ed), hence are
    /// expanded). Exits are therefore the lost nodes plus the one-term
    /// subsets of fresh nodes; entry candidates are the fresh nodes plus
    /// the still-qualifying one-term subsets of lost nodes (the lost
    /// extension may have been their last qualifying blocker). Only the
    /// entry candidates are probed — never the whole qualifying set.
    fn apply_frontier_delta(
        &mut self,
        fresh: &[u32],
        lost: &[u32],
        u: usize,
        guard: &mut DeadlineGuard,
    ) -> bool {
        for &id in lost {
            self.maximal.remove(&id);
        }
        for &id in fresh {
            for sid in self.one_term_subset_ids(id) {
                self.maximal.remove(&sid);
            }
        }
        let mut cands: Vec<u32> = fresh.to_vec();
        let mut seen: FxHashSet<u32> = fresh.iter().copied().collect();
        for &id in lost {
            for sid in self.one_term_subset_ids(id) {
                if self.qualified[sid as usize] && seen.insert(sid) {
                    cands.push(sid);
                }
            }
        }
        for id in cands {
            // A candidate already in the frontier kept its verdict: any
            // newly qualifying extension would have evicted it above.
            if !self.qualified[id as usize] || self.maximal.contains(&id) {
                continue;
            }
            match self.probe_maximal(id, u, guard) {
                None => return false,
                Some(true) => {
                    self.maximal.insert(id);
                }
                Some(false) => {}
            }
        }
        true
    }

    /// Initial build at the first `k`: bring the root level live (fresh
    /// evaluations only on a virgin arena — otherwise prefix recounts),
    /// grow the closure over the qualifying set, compute the frontier
    /// (every qualifying node is "fresh", so the delta probes each
    /// exactly once).
    fn build(&mut self, k: usize, u: usize, guard: &mut DeadlineGuard) -> bool {
        if guard.expired() {
            return false;
        }
        self.stats.full_searches += 1;
        let mut fresh = Vec::new();
        if self.arena.root_children.is_empty() {
            self.arena.root_children = self.eval_children(&Pattern::empty(), k, u);
            fresh.extend(
                self.arena
                    .root_children
                    .iter()
                    .filter(|&&id| self.qualified[id as usize]),
            );
        } else {
            for i in 0..self.arena.root_children.len() {
                let id = self.arena.root_children[i];
                self.activate(id, k, u);
                if self.qualified[id as usize] {
                    fresh.push(id);
                }
            }
        }
        if self.scope == OverRepScope::MostGeneral {
            return true;
        }
        self.cascade(&mut fresh, k, u, guard) && self.apply_frontier_delta(&fresh, &[], u, guard)
    }

    /// Clears the run state for a fresh build. The arena is kept: the
    /// follow-up [`UpperEngine::build`] re-activates the stored structure
    /// with prefix recounts instead of re-evaluating it.
    fn reset(&mut self) {
        self.counts.clear();
        self.counts.resize(self.arena.nodes.len(), NOT_LIVE);
        self.open.clear();
        self.open.resize(self.arena.nodes.len(), false);
        self.qualified.clear();
        self.qualified.resize(self.arena.nodes.len(), false);
        self.maximal.clear();
    }

    /// Incremental step `k−1 → k` with an unchanged bound: walk the new
    /// tuple's subtree, repair the closure, and apply the frontier delta.
    /// With `U` fixed, counts only grow, so no node can stop qualifying —
    /// `lost` is empty.
    fn step(&mut self, k: usize, u: usize, guard: &mut DeadlineGuard) -> bool {
        if guard.expired() {
            return false;
        }
        let mut fresh = Vec::new();
        self.walk_counts(k, u, Some(&mut fresh));
        if self.scope == OverRepScope::MostGeneral {
            return true;
        }
        self.cascade(&mut fresh, k, u, guard) && self.apply_frontier_delta(&fresh, &[], u, guard)
    }

    /// Step across a bound change `U_{k-1} ≠ U_k`: bump counts, then
    /// reclassify the entire live store in one pass (no fresh
    /// evaluations), repair the closure where the qualifying set grew, and
    /// apply the frontier delta with both gains and losses. Handles
    /// increasing *and* decreasing bounds; frontier probes stay confined
    /// to the flipped region, so even a bound that changes at every `k`
    /// ([`Bounds::LinearFraction`]) keeps the engine incremental.
    fn bound_step(&mut self, k: usize, u: usize, guard: &mut DeadlineGuard) -> bool {
        if guard.expired() {
            return false;
        }
        self.walk_counts(k, u, None);
        self.reclassify_all(k, u, guard)
    }

    /// Reclassifies every live node under `(k, u)` after counts moved in
    /// bulk (a bound step, or a checkpoint repair), repairs the closure
    /// where the qualifying set grew, and applies the frontier delta with
    /// both gains and losses. Arena nodes that are not live this run are
    /// skipped.
    fn reclassify_all(&mut self, k: usize, u: usize, guard: &mut DeadlineGuard) -> bool {
        let mut fresh = Vec::new();
        let mut lost = Vec::new();
        for id in 0..u32::try_from(self.arena.nodes.len()).expect("node ids fit u32") {
            let idx = id as usize;
            if self.arena.pruned[idx] || self.counts[idx] == NOT_LIVE {
                continue;
            }
            self.stats.nodes_touched += 1;
            let q = (self.counts[idx] as usize) > u;
            if q != self.qualified[idx] {
                self.qualified[idx] = q;
                if q {
                    fresh.push(id);
                } else {
                    lost.push(id);
                }
            }
        }
        if self.scope == OverRepScope::MostGeneral {
            return true;
        }
        self.cascade(&mut fresh, k, u, guard) && self.apply_frontier_delta(&fresh, &lost, u, guard)
    }

    /// Adds or removes one tuple's worth of counts: the subtree walk of
    /// [`UpperEngine::walk_counts`] with a signed delta and no flag
    /// maintenance (a repair reclassifies the whole store afterwards).
    /// `t_pos` is any rank position whose index codes are the tuple's.
    fn walk_delta(&mut self, t_pos: usize, up: bool) {
        let m = self.space.n_attrs() as AttrId;
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
            if self.arena.pruned[id as usize] {
                continue; // counts of pruned nodes are never read
            }
            if up {
                self.counts[id as usize] += 1;
            } else {
                self.counts[id as usize] -= 1;
            }
            self.stats.nodes_touched += 1;
            if self.open[id as usize] {
                let start = self.arena.nodes[id as usize]
                    .pattern
                    .max_attr()
                    .map_or(0, |a| a + 1);
                let base = self.card_prefix[usize::from(start)];
                for a in start..m {
                    let idx = (self.card_prefix[usize::from(a)] - base) as usize
                        + usize::from(codes[usize::from(a)]);
                    stack.push(self.arena.nodes[id as usize].children[idx]);
                }
            }
        }
        self.scratch_codes = codes;
        self.scratch_stack = stack;
    }

    /// Repairs this state (positioned at `k`, bound `u = U_k`) after a
    /// pure reorder changed its top-`k` **set**: subtract the leaving
    /// tuples, add the entering ones, then reclassify the whole store —
    /// the bound-step machinery, which already handles flips in both
    /// directions. Sound for reorders only: `s_D`, `n` and the pruned
    /// flags are untouched (insertions void the store instead).
    fn repair(
        &mut self,
        k: usize,
        u: usize,
        entering: &[usize],
        leaving: &[usize],
        guard: &mut DeadlineGuard,
    ) -> bool {
        for &pos in leaving {
            self.walk_delta(pos, false);
        }
        for &pos in entering {
            self.walk_delta(pos, true);
        }
        self.reclassify_all(k, u, guard)
    }

    /// One incremental step `k−1 → k` under `upper`: a store rescan when
    /// the bound moved, a plain walk + closure repair otherwise. Shared
    /// by [`UpperStream`] and the checkpointed monitor replay.
    fn advance(&mut self, k: usize, upper: &Bounds, guard: &mut DeadlineGuard) -> bool {
        let u = upper.at(k);
        if u != upper.at(k - 1) {
            self.bound_step(k, u, guard)
        } else {
            self.step(k, u, guard)
        }
    }

    /// Copies the run state into a resumable [`UpperCheckpoint`] anchored
    /// at `k` — three flat-vector memcpys plus the frontier set; the
    /// arena (patterns, pruned verdicts, tree structure) is **not**
    /// cloned.
    fn to_checkpoint(&self, k: usize) -> UpperCheckpoint {
        UpperCheckpoint {
            k,
            counts: self.counts.clone(),
            open: self.open.clone(),
            qualified: self.qualified.clone(),
            maximal: self.maximal.clone(),
        }
    }

    /// Overwrites the run state from a stored checkpoint, positioning the
    /// engine at `cp.k`; the next [`UpperEngine::advance`] call must be
    /// for `cp.k + 1`. Nodes interned after the snapshot was taken
    /// restore as not-live.
    fn restore(&mut self, cp: &UpperCheckpoint) {
        self.counts.clear();
        self.counts.extend_from_slice(&cp.counts);
        self.counts.resize(self.arena.nodes.len(), NOT_LIVE);
        self.open.clear();
        self.open.extend_from_slice(&cp.open);
        self.open.resize(self.arena.nodes.len(), false);
        self.qualified.clear();
        self.qualified.extend_from_slice(&cp.qualified);
        self.qualified.resize(self.arena.nodes.len(), false);
        self.maximal = cp.maximal.clone();
    }

    /// The current result set for `k`, sorted canonically.
    fn snapshot(&self, k: usize) -> KResult {
        let mut patterns: Vec<Pattern> = match self.scope {
            OverRepScope::MostSpecific => self
                .maximal
                .iter()
                .map(|&id| self.arena.nodes[id as usize].pattern.clone())
                .collect(),
            OverRepScope::MostGeneral => self
                .arena
                .root_children
                .iter()
                .filter(|&&id| self.qualified[id as usize])
                .map(|&id| self.arena.nodes[id as usize].pattern.clone())
                .collect(),
        };
        patterns.sort_unstable();
        KResult { k, patterns }
    }
}

/// Lazy, resumable over-representation detection: yields the [`KResult`]
/// for each `k` on demand, maintaining the incremental engine between
/// pulls. Both [`crate::Audit::run`] and [`crate::Audit::run_streaming`]
/// drive this for `Engine::Optimized`.
pub(crate) struct UpperStream<'a, I: CountsProvider> {
    engine: UpperEngine<'a, I>,
    upper: Bounds,
    k_min: usize,
    k_max: usize,
    guard: DeadlineGuard,
    next_k: usize,
    failed: bool,
}

impl<'a, I: CountsProvider> UpperStream<'a, I> {
    pub(crate) fn new(
        index: &'a I,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        upper: Bounds,
        scope: OverRepScope,
    ) -> Self {
        debug_assert!(cfg.k_max <= index.n(), "k_max exceeds the ranked tuples");
        UpperStream {
            engine: UpperEngine::new(index, space, cfg.tau_s, scope),
            upper,
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
        let mut stats = self.engine.stats.clone();
        stats.elapsed = self.guard.elapsed();
        stats.timed_out = self.failed;
        stats
    }

    /// Whether the stream stopped early on the deadline.
    pub(crate) fn timed_out(&self) -> bool {
        self.failed
    }
}

impl<I: CountsProvider> Iterator for UpperStream<'_, I> {
    type Item = KResult;

    fn next(&mut self) -> Option<KResult> {
        if self.failed || self.next_k > self.k_max {
            return None;
        }
        let k = self.next_k;
        let ok = if k == self.k_min {
            self.engine.build(k, self.upper.at(k), &mut self.guard)
        } else {
            self.engine.advance(k, &self.upper, &mut self.guard)
        };
        if !ok {
            self.failed = true;
            return None;
        }
        self.next_k += 1;
        Some(self.engine.snapshot(k))
    }
}

/// A resumable snapshot of the upper engine's **run state** — per-node
/// counts, the open frontier, the qualification flags and the maximal
/// frontier — anchored at a specific `k`. The node structure itself
/// (patterns, pruned verdicts, tree shape) lives in the [`UpperArena`]
/// shared by every snapshot, so taking one is a counts-plus-frontier
/// memcpy, not a deep clone of the node store. Same validity contract as
/// the lower engine's `LowerCheckpoint`: exact outside a reordered
/// position span (and at every `k` no row's net movement crossed — the
/// fact segmented replay exploits), void after an insertion.
#[derive(Debug, Clone)]
pub(crate) struct UpperCheckpoint {
    /// The `k` whose state this snapshot holds.
    pub(crate) k: usize,
    counts: Vec<u32>,
    open: Vec<bool>,
    qualified: Vec<bool>,
    maximal: FxHashSet<u32>,
}

impl UpperCheckpoint {
    /// Number of node slots snapshotted (the checkpoint's memory
    /// footprint driver — one `u32` + two `bool`s each, not a node
    /// clone).
    pub(crate) fn stored_nodes(&self) -> usize {
        self.counts.len()
    }
}

/// Grid-snapshot maintenance for the upper store — the shared policy
/// lives in [`crate::audit::maintain_grid_snapshot`]. Returns whether a
/// snapshot was written (inserted or overwritten) at `k`.
fn maybe_checkpoint<I: CountsProvider>(
    store: &mut Vec<UpperCheckpoint>,
    engine: &UpperEngine<'_, I>,
    k: usize,
    k_min: usize,
    cadence: usize,
    heal_cutoff: Option<usize>,
) -> bool {
    crate::audit::maintain_grid_snapshot(
        store,
        k,
        k_min,
        cadence,
        heal_cutoff,
        |cp| cp.k,
        || engine.to_checkpoint(k),
    )
}

/// Checkpointed execution of the over-representation side over the given
/// `k` **segments** (sorted, disjoint) — the upper half of the monitor's
/// delta re-audit.
///
/// For each segment the replay seeks to the latest stored checkpoint at
/// or below the segment start (or keeps stepping from the previous
/// segment's end when that is at least as cheap) and replays forward
/// (bound changes are store rescans, never rebuilds, so even
/// per-`k`-changing [`Bounds::LinearFraction`] bounds replay
/// incrementally). When the edit hull swallowed a seek checkpoint
/// (`cp.k > reorder.lo`), it is **repaired** in place from the top-`k`
/// set diff rather than discarded — but only when that diff is non-empty:
/// checkpoints in the gaps *between* segments are exact by construction
/// (no row's net movement crossed their `k`), and checkpoints already
/// healed by an earlier segment of this call hold the new state, so both
/// are used as-is. A pure reorder therefore costs **zero** from-scratch
/// builds; only an empty store (initial audit, or after an insertion
/// voided it) pays a build at `k_min` — on the shared arena, so even cold
/// builds after the first run on prefix recounts. Replayed grid `k`s
/// rewrite their snapshots, keeping the whole store valid after every
/// batch. Output-equivalent to [`upper_incremental`] on the replayed `k`
/// values — asserted by the differential sweeps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn upper_replay<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    upper: &Bounds,
    scope: OverRepScope,
    spans: &[(usize, usize)],
    reorder: Option<(&crate::audit::ReorderSpec, &[rankfair_data::TupleId])>,
    store: &mut UpperStore,
    cadence: usize,
    counters: &mut ReplayCounters,
) -> (Vec<KResult>, SearchStats) {
    debug_assert!(cadence >= 1);
    debug_assert!(spans
        .iter()
        .all(|&(lo, hi)| cfg.k_min <= lo && lo <= hi && hi <= cfg.k_max));
    debug_assert!(spans.windows(2).all(|w| w[0].1 < w[1].0));
    // No deadline: monitors reject deadlines at construction, so a replay
    // can never truncate mid-span.
    let mut guard = DeadlineGuard::new(None);
    let mut per_k = Vec::with_capacity(spans.iter().map(|&(lo, hi)| hi - lo + 1).sum());
    counters.segments += spans.len() as u64;
    let mut engine = UpperEngine::with_arena(
        index,
        space,
        cfg.tau_s,
        scope,
        std::mem::take(&mut store.arena),
    );
    // Grid ks whose snapshot was rewritten by this call: those hold the
    // *new* state, so a later segment seeking to one must not repair it.
    let mut healed: FxHashSet<usize> = FxHashSet::default();
    let mut positioned: Option<usize> = None;
    for &(k_lo, k_hi) in spans {
        // Reorder replays re-clone at most the grid snapshots nearest each
        // segment start; see `maybe_checkpoint`.
        let heal_cutoff = reorder.is_some().then_some(k_lo + cadence);
        let seek = store.snaps.iter().rposition(|cp| cp.k <= k_lo);
        let mut k_cur = match (positioned, seek) {
            // Stepping on from the previous segment's end is at least as
            // cheap as restoring a snapshot at or below it.
            (Some(p), seek) if p <= k_lo && seek.is_none_or(|i| store.snaps[i].k <= p) => p,
            (_, Some(i)) => {
                counters.seeks += 1;
                let cp_k = store.snaps[i].k;
                engine.restore(&store.snaps[i]);
                if let Some((spec, new_order)) = reorder {
                    if cp_k > spec.lo && !healed.contains(&cp_k) {
                        let (entering, leaving) =
                            crate::audit::top_k_diff(cp_k, spec.lo, &spec.old_order, new_order);
                        if !(entering.is_empty() && leaving.is_empty()) {
                            engine.repair(cp_k, upper.at(cp_k), &entering, &leaving, &mut guard);
                            counters.repairs += 1;
                            store.snaps[i] = engine.to_checkpoint(cp_k);
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
                engine.build(cfg.k_min, upper.at(cfg.k_min), &mut guard);
                if maybe_checkpoint(
                    &mut store.snaps,
                    &engine,
                    cfg.k_min,
                    cfg.k_min,
                    cadence,
                    None,
                ) {
                    healed.insert(cfg.k_min);
                }
                cfg.k_min
            }
        };
        if k_cur >= k_lo {
            per_k.push(engine.snapshot(k_cur));
        }
        while k_cur < k_hi {
            k_cur += 1;
            engine.advance(k_cur, upper, &mut guard);
            counters.replayed_steps += 1;
            if k_cur >= k_lo {
                per_k.push(engine.snapshot(k_cur));
            }
            if maybe_checkpoint(
                &mut store.snaps,
                &engine,
                k_cur,
                cfg.k_min,
                cadence,
                heal_cutoff,
            ) {
                healed.insert(k_cur);
            }
        }
        positioned = Some(k_cur);
    }
    let (arena, mut stats, prefix_recounts) = engine.into_parts();
    store.arena = arena;
    counters.prefix_recounts += prefix_recounts;
    stats.elapsed = guard.elapsed();
    (per_k, stats)
}

/// Batch driver: runs the incremental engine over the whole `k` range.
pub(crate) fn upper_incremental<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    upper: &Bounds,
    scope: OverRepScope,
) -> (Vec<KResult>, SearchStats) {
    let mut stream = UpperStream::new(index, space, cfg, upper.clone(), scope);
    let per_k: Vec<KResult> = stream.by_ref().collect();
    (per_k, stream.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::RankedIndex;
    use crate::upper::{upper_most_general_single_k, upper_most_specific_single_k};
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::Ranking;

    fn fig1() -> (PatternSpace, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (space, index)
    }

    #[test]
    fn incremental_matches_per_k_search_on_fig1() {
        let (space, index) = fig1();
        for tau in [1, 2, 4] {
            for u in [0, 1, 2, 4] {
                for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
                    let cfg = DetectConfig::new(tau, 2, 16);
                    let (per_k, _) =
                        upper_incremental(&index, &space, &cfg, &Bounds::constant(u), scope);
                    assert_eq!(per_k.len(), 15);
                    for kr in &per_k {
                        let mut stats = SearchStats::default();
                        let want = match scope {
                            OverRepScope::MostSpecific => upper_most_specific_single_k(
                                &index, &space, tau, kr.k, u, &mut stats,
                            ),
                            OverRepScope::MostGeneral => upper_most_general_single_k(
                                &index, &space, tau, kr.k, u, &mut stats,
                            ),
                        };
                        assert_eq!(kr.patterns, want, "tau={tau} u={u} k={} {scope:?}", kr.k);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_per_k_search_across_bound_steps() {
        let (space, index) = fig1();
        // Includes an increasing and a decreasing step, exercising the
        // store-rescan path in both directions.
        let bounds = Bounds::steps(vec![(0, 1), (6, 3), (11, 2)]);
        let cfg = DetectConfig::new(2, 2, 16);
        let (per_k, _) =
            upper_incremental(&index, &space, &cfg, &bounds, OverRepScope::MostSpecific);
        for kr in &per_k {
            let mut stats = SearchStats::default();
            let want =
                upper_most_specific_single_k(&index, &space, 2, kr.k, bounds.at(kr.k), &mut stats);
            assert_eq!(kr.patterns, want, "k={}", kr.k);
        }
    }

    #[test]
    fn incremental_evaluates_fewer_nodes_than_per_k_rescan() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let (_, inc_stats) = upper_incremental(
            &index,
            &space,
            &cfg,
            &Bounds::constant(2),
            OverRepScope::MostSpecific,
        );
        let mut rescan = SearchStats::default();
        for k in 2..=16 {
            upper_most_specific_single_k(&index, &space, 2, k, 2, &mut rescan);
        }
        assert!(
            inc_stats.nodes_evaluated < rescan.nodes_evaluated,
            "incremental {} >= rescan {}",
            inc_stats.nodes_evaluated,
            rescan.nodes_evaluated
        );
    }

    #[test]
    fn upper_replay_matches_batch_and_seeks_checkpoints() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        // A per-k-changing bound and a stepped one, both scopes.
        for upper in [
            Bounds::LinearFraction(0.4),
            Bounds::steps(vec![(0, 1), (6, 3), (11, 2)]),
        ] {
            for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
                let (want, _) = upper_incremental(&index, &space, &cfg, &upper, scope);
                for cadence in [1usize, 4, 8] {
                    let mut store = UpperStore::default();
                    let mut counters = ReplayCounters::default();
                    let (full, _) = upper_replay(
                        &index,
                        &space,
                        &cfg,
                        &upper,
                        scope,
                        &[(2, 16)],
                        None,
                        &mut store,
                        cadence,
                        &mut counters,
                    );
                    assert_eq!(full, want, "{upper:?} {scope:?} cadence {cadence}");
                    assert_eq!(counters.cold_builds, 1);
                    assert!(store.snaps.windows(2).all(|w| w[0].k < w[1].k));
                    let mut counters = ReplayCounters::default();
                    let (sub, _) = upper_replay(
                        &index,
                        &space,
                        &cfg,
                        &upper,
                        scope,
                        &[(10, 14)],
                        None,
                        &mut store,
                        cadence,
                        &mut counters,
                    );
                    assert_eq!(
                        sub[..],
                        want[8..=12],
                        "{upper:?} {scope:?} cadence {cadence}"
                    );
                    assert_eq!(counters.seeks, 1);
                    assert_eq!(counters.cold_builds, 0);
                }
            }
        }
    }

    #[test]
    fn upper_replay_segmented_spans_match_batch() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let upper = Bounds::LinearFraction(0.4);
        for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
            let (want, _) = upper_incremental(&index, &space, &cfg, &upper, scope);
            for cadence in [1usize, 3, 8] {
                let mut store = UpperStore::default();
                let mut counters = ReplayCounters::default();
                let (full, _) = upper_replay(
                    &index,
                    &space,
                    &cfg,
                    &upper,
                    scope,
                    &[(2, 16)],
                    None,
                    &mut store,
                    cadence,
                    &mut counters,
                );
                assert_eq!(full, want);
                // Two disjoint segments of the same range replay only the
                // four spanned ks (plus catch-up), and match the batch run
                // value-for-value.
                let mut counters = ReplayCounters::default();
                let (got, _) = upper_replay(
                    &index,
                    &space,
                    &cfg,
                    &upper,
                    scope,
                    &[(4, 5), (12, 13)],
                    None,
                    &mut store,
                    cadence,
                    &mut counters,
                );
                let got_ks: Vec<usize> = got.iter().map(|r| r.k).collect();
                assert_eq!(got_ks, vec![4, 5, 12, 13], "{scope:?} cadence {cadence}");
                assert_eq!(got[..2], want[2..=3], "{scope:?} cadence {cadence}");
                assert_eq!(got[2..4], want[10..=11], "{scope:?} cadence {cadence}");
                assert_eq!(counters.segments, 2);
                assert_eq!(counters.cold_builds, 0);
                assert!(
                    (1..=2).contains(&counters.seeks),
                    "{scope:?} cadence {cadence}: seeks {}",
                    counters.seeks
                );
            }
        }
    }

    #[test]
    fn zero_deadline_truncates_and_flags() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(1, 2, 16).with_deadline(std::time::Duration::ZERO);
        let (per_k, stats) = upper_incremental(
            &index,
            &space,
            &cfg,
            &Bounds::constant(1),
            OverRepScope::MostSpecific,
        );
        assert!(per_k.is_empty());
        assert!(stats.timed_out);
    }
}
