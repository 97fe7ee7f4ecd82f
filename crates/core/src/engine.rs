//! The incremental detection engine behind `GlobalBounds` (Algorithm 2)
//! and `PropBounds` (Algorithm 3).
//!
//! Both algorithms exploit the same observation (Proposition 4.3): the
//! top-`k` and top-`(k+1)` differ by a single tuple `t = R(D)[k+1]`, so the
//! search state for consecutive `k` values is almost identical. The engine
//! keeps every pattern it has ever evaluated in a persistent node store and
//! maintains these invariants between `k` values:
//!
//! * **exact counts** — if `t` satisfies a pattern it satisfies the
//!   pattern’s tree parent, so the set of stored nodes satisfied by `t` is
//!   a connected subtree of the search tree; a single root walk bumps all
//!   their counts by one with *no dataset scans*;
//! * **pure bias** — whether a node is biased is always recomputed from
//!   `(count, s_D, k)`, never cached, so nodes masked below a biased
//!   ancestor can never go stale;
//! * **tracked frontier** — `Res` holds the biased substantial nodes with
//!   no biased proper subset (the output) and `DRes` the dominated ones,
//!   exactly the paper’s two sets; when a stopped node un-biases the engine
//!   resumes the suspended search from that node (the paper’s
//!   `searchFromNode`), promoting newly undominated `DRes` members;
//! * **`k̃` schedule** (proportional only) — every non-biased node is
//!   scheduled at the `k̃` where the growing bound `α·s_D·k/n` would first
//!   overtake its count; entries are validated lazily when popped, so a
//!   count bump simply moves the node’s flip to a later pop.
//!
//! For the global measure the bound is constant between bound steps and
//! counts only grow, so nodes can only *leave* the biased state — no
//! schedule is needed; when `L_k` changes the engine rebuilds from scratch,
//! exactly as Algorithm 2 does (lines 4–5). The streaming path
//! ([`StreamCore::global`]) applies the bound-step extension instead:
//! a store-wide reclassification pass with zero fresh evaluations.
//!
//! ## Arena store and run state
//!
//! The node store is split in two. A [`LowerArena`] holds everything that
//! is a function of the **pattern alone** — the interned pattern, its tree
//! parent, `s_D`, the substantiality verdict, and the generated-children
//! structure — in a flat `Vec` addressed by `u32` ids. Per-run state lives
//! beside it in parallel vectors: `counts[id]` is the node's `s_Rk`
//! (sentinel [`NOT_LIVE`] until the node joins the current run) and
//! `open[id]` is the run-level expansion frontier the count walks descend
//! through. The split buys three things:
//!
//! * [`LowerCheckpoint`] snapshots are **counts-plus-frontier memcpys**
//!   (two flat vectors plus the small `Res`/`DRes` sets) instead of deep
//!   clones of the whole node map — the arena is shared, not copied;
//! * re-expanding a stored node re-activates its children with
//!   **prefix-only recounts** ([`CountsProvider::prefix_count`], a
//!   truncated bitmap scan) — the stored `s_D` is reused, never recomputed;
//! * bound-step rebuilds ([`Engine::reset`] + [`Engine::build`]) keep the
//!   arena and only clear run state, so Algorithm 2's per-step rebuild
//!   also runs on prefix recounts after the first build.
//!
//! The arena is append-only (structure is `k`- and bound-independent), so
//! a checkpoint taken at any time stays consistent with every later arena:
//! restoring extends `counts`/`open` with `NOT_LIVE`/`false` for nodes
//! created after the snapshot. Insertions change `s_D` and the pruned
//! verdicts, so they clear the arena along with the checkpoint store.
//!
//! This module covers the **lower-bound** (under-representation) side
//! only. The §III upper-bound side has its own incremental engine in
//! `upper_engine`, built on the same arena/`walk_counts` machinery but
//! maintaining the *most specific* frontier of the subset-closed
//! over-represented set; the per-`k` searches in [`crate::upper`] remain
//! as its differential anchor.
//!
//! For the live monitor the engine state is additionally **resumable**:
//! [`LowerCheckpoint`] snapshots the run state at a given `k`, and
//! [`lower_replay`] seeks to a stored snapshot, optionally repairs it
//! against a ranking reorder ([`Engine::repair`] — ±count walks over the
//! top-`k` set diff plus one store reclassify), and replays forward over
//! the requested **segments** of the `k` range emitting per-`k` results —
//! the delta re-audit path of [`crate::MonitorAudit`], with zero
//! from-scratch builds on pure reorders.

use std::collections::VecDeque;

use crate::bounds::{BiasMeasure, Bounds};
use crate::pattern::Pattern;
use crate::space::{counted_children, AttrId, CountsProvider, PatternSpace};
use crate::stats::{
    DeadlineGuard, DetectConfig, DetectionOutput, KResult, ReplayCounters, SearchStats,
};
use crate::util::{FxHashMap, FxHashSet};
use rankfair_data::ValueCode;

const ROOT: u32 = u32::MAX;

/// Sentinel in `counts` marking a node that is not live in the current
/// run. Real counts are bounded by `n`, which fits `TupleId` (u32).
const NOT_LIVE: u32 = u32::MAX;

/// Everything about a node that is a function of its pattern alone —
/// shared across runs, checkpoints and replays without cloning.
#[derive(Debug, Clone)]
struct NodeMeta {
    pattern: Pattern,
    parent: u32,
    sd: u32,
    /// Structural: the children have been generated and stored. Distinct
    /// from the run-level `open` frontier — a node expanded in an earlier
    /// run re-activates its stored children instead of re-evaluating them.
    expanded: bool,
    children: Vec<u32>,
}

/// The lower engine's index-addressed node arena: flat `Vec` of
/// [`NodeMeta`] plus the level-1 child index. Append-only (node structure
/// is independent of `k` and of the bias bound), owned by the
/// [`LowerStore`] between runs and moved — not cloned — into the engine
/// for the duration of a replay.
#[derive(Debug, Default)]
pub(crate) struct LowerArena {
    nodes: Vec<NodeMeta>,
    /// `s_D < τs` verdict per node, kept out of [`NodeMeta`] so the hot
    /// walks resolve the prune-skip from one flat byte array — a closed
    /// node's visit never has to pull its full `NodeMeta` cache line.
    pruned: Vec<bool>,
    /// Level-1 nodes laid out by `card_prefix[attr] + value` — the walk's
    /// entry points.
    root_children: Vec<u32>,
}

impl LowerArena {
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

/// The persistent lower-side store a monitor keeps between batches: one
/// shared arena plus the `k`-grid of counts-only snapshots taken over it.
#[derive(Debug, Default)]
pub(crate) struct LowerStore {
    pub(crate) arena: LowerArena,
    pub(crate) snaps: Vec<LowerCheckpoint>,
}

struct Engine<'a, I: CountsProvider> {
    index: &'a I,
    space: &'a PatternSpace,
    measure: BiasMeasure,
    tau_s: usize,
    n: usize,
    k_max: usize,
    arena: LowerArena,
    /// Per-run `s_Rk` per node, [`NOT_LIVE`] until activated this run.
    counts: Vec<u32>,
    /// Run-level expansion frontier: walks descend through `open` nodes
    /// only. `open[id]` implies every stored child of `id` is live.
    open: Vec<bool>,
    /// `card_prefix[a] = Σ_{b<a} card(b)`. Children of an expanded node are
    /// generated in (attribute, value) order, so the child binding
    /// `(a, v)` sits at `children[card_prefix[a] − card_prefix[ma+1] + v]`
    /// (where `ma` is the node's max attribute) — child lookup is pure
    /// arithmetic, no hashing on the hot walk.
    card_prefix: Vec<u32>,
    /// Flat mirror of `res ∪ keys(dres)`: the walks and rescans test
    /// membership per touched node, so it must be an index read, not two
    /// hash probes. Maintained by `add_stopped`/`remove_stopped`, rebuilt
    /// on restore/reset.
    stopped: Vec<bool>,
    /// Memoized `(k, L_k)` for the global measure: every `is_biased` call
    /// within one step shares `k`, so the bound lookup (a linear scan for
    /// [`Bounds::Steps`]) is hoisted out of the per-node predicate.
    lk_memo: std::cell::Cell<(usize, usize)>,
    res: FxHashSet<u32>,
    /// The dominated biased nodes (`DRes`), each mapped to its
    /// **designated dominator**: one current `res` member whose pattern
    /// is a proper subset. When a `res` member un-biases, only the nodes
    /// designated to it can have lost their last dominator — so the
    /// promotion scan touches `O(|designees|)`, not `O(|DRes|)` (the
    /// full-set scan made every un-bias event cost a pass over all
    /// dominated nodes ever accumulated, which dominated the monitor's
    /// delta re-audits).
    dres: FxHashMap<u32, u32>,
    /// Reverse index: `res` member → nodes designated to it. Entries may
    /// be stale (the designee re-designated or removed); they are
    /// validated against `dres` when consumed.
    dominates: FxHashMap<u32, Vec<u32>>,
    /// `k̃` buckets indexed by `k` (0..=k_max); entries may be stale and are
    /// re-validated when popped.
    schedule: Vec<Vec<u32>>,
    stats: SearchStats,
    /// Activations served by a stored `s_D` plus a truncated prefix scan
    /// instead of a full fused evaluation.
    prefix_recounts: u64,
    /// Reused walk buffers: the DFS stack and the entering tuple's value
    /// codes. Taken/returned by the walks so a replay's per-step walks
    /// never hit the allocator.
    scratch_stack: Vec<u32>,
    scratch_codes: Vec<ValueCode>,
}

impl<'a, I: CountsProvider> Engine<'a, I> {
    fn new(
        index: &'a I,
        space: &'a PatternSpace,
        measure: BiasMeasure,
        tau_s: usize,
        k_max: usize,
    ) -> Self {
        let schedule = if measure.is_proportional() {
            vec![Vec::new(); k_max + 1]
        } else {
            Vec::new()
        };
        let mut card_prefix = Vec::with_capacity(space.n_attrs() + 1);
        let mut acc = 0u32;
        card_prefix.push(0);
        for a in space.attr_ids() {
            acc += u32::try_from(space.card(a)).expect("dictionary cap keeps cardinality in u32");
            card_prefix.push(acc);
        }
        Engine {
            index,
            space,
            measure,
            tau_s,
            n: index.n(),
            k_max,
            arena: LowerArena::default(),
            counts: Vec::new(),
            open: Vec::new(),
            card_prefix,
            stopped: Vec::new(),
            lk_memo: std::cell::Cell::new((usize::MAX, 0)),
            res: FxHashSet::default(),
            dres: FxHashMap::default(),
            dominates: FxHashMap::default(),
            schedule,
            stats: SearchStats::default(),
            prefix_recounts: 0,
            scratch_stack: Vec::new(),
            scratch_codes: Vec::new(),
        }
    }

    /// An engine over a pre-existing arena (no run state yet): the replay
    /// entry point. The arena is moved in, not cloned, and handed back by
    /// [`Engine::into_parts`].
    fn with_arena(
        index: &'a I,
        space: &'a PatternSpace,
        measure: BiasMeasure,
        tau_s: usize,
        k_max: usize,
        arena: LowerArena,
    ) -> Self {
        let mut engine = Engine::new(index, space, measure, tau_s, k_max);
        engine.counts = vec![NOT_LIVE; arena.nodes.len()];
        engine.open = vec![false; arena.nodes.len()];
        engine.stopped = vec![false; arena.nodes.len()];
        engine.arena = arena;
        engine
    }

    /// Tears the engine down, returning the (possibly grown) arena to its
    /// store along with the run's instrumentation.
    fn into_parts(self) -> (LowerArena, SearchStats, u64) {
        (self.arena, self.stats, self.prefix_recounts)
    }

    #[inline]
    fn is_biased(&self, id: u32, k: usize) -> bool {
        debug_assert!(self.counts[id as usize] != NOT_LIVE);
        match &self.measure {
            // Same predicate as `BiasMeasure::is_biased` (`count < L_k`,
            // an exact integer compare — no drift possible), with the
            // `L_k` lookup memoized per `k` instead of re-scanned for
            // every touched node.
            BiasMeasure::GlobalLower(b) => {
                let (mk, ml) = self.lk_memo.get();
                let l = if mk == k {
                    ml
                } else {
                    let l = b.at(k);
                    self.lk_memo.set((k, l));
                    l
                };
                (self.counts[id as usize] as usize) < l
            }
            m => m.is_biased(
                self.counts[id as usize] as usize,
                self.arena.nodes[id as usize].sd as usize,
                k,
                self.n,
            ),
        }
    }

    #[inline]
    fn in_stopped(&self, id: u32) -> bool {
        self.stopped[id as usize]
    }

    /// Evaluates every search-tree child of `pattern` (the node `parent`,
    /// or [`ROOT`] for the empty pattern) in one batched count and interns
    /// them in `(a, v)` order.
    fn eval_children(&mut self, pattern: &Pattern, parent: u32, k: usize) -> Vec<u32> {
        counted_children(self.index, self.space, pattern, k)
            .map(|(child, counts)| self.eval_new(child, parent, counts, k))
            .collect()
    }

    /// Interns a freshly evaluated pattern with its `(s_D, s_Rk)` and
    /// gives a non-biased node its initial `k̃` schedule entry.
    fn eval_new(
        &mut self,
        pattern: Pattern,
        parent: u32,
        (sd, count): (usize, usize),
        k: usize,
    ) -> u32 {
        self.stats.nodes_evaluated += 1;
        let id = u32::try_from(self.arena.nodes.len()).expect("node ids fit u32");
        let pruned = sd < self.tau_s;
        self.arena.nodes.push(NodeMeta {
            pattern,
            parent,
            // Row counts are bounded by n, which fits TupleId (u32).
            sd: u32::try_from(sd).expect("row counts fit TupleId"),
            expanded: false,
            children: Vec::new(),
        });
        self.arena.pruned.push(pruned);
        self.counts
            .push(u32::try_from(count).expect("row counts fit TupleId"));
        self.open.push(false);
        self.stopped.push(false);
        if !pruned && !self.is_biased(id, k) {
            self.schedule_push(id, k);
        }
        id
    }

    /// Brings a stored node into the current run: the stored `s_D` and
    /// pruned verdict are reused and only the top-`k` prefix is recounted
    /// (a truncated scan that never touches blocks past `k`). Idempotent —
    /// an already-live node is left untouched.
    fn activate(&mut self, id: u32, k: usize) {
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
        if !self.is_biased(id, k) {
            self.schedule_push(id, k);
        }
    }

    /// Pushes a `k̃` entry for a currently non-biased node (proportional
    /// measure only; no-op otherwise or when the flip falls past `k_max`).
    fn schedule_push(&mut self, id: u32, k: usize) {
        if self.schedule.is_empty() {
            return;
        }
        if let Some(kt) = self.measure.k_tilde(
            self.counts[id as usize] as usize,
            self.arena.nodes[id as usize].sd as usize,
            k,
            self.n,
        ) {
            if kt <= self.k_max {
                self.schedule[kt].push(id);
            }
        }
    }

    /// Opens `id`'s search-tree children (Definition 4.1) in the current
    /// run: stored children are re-activated with prefix recounts, a node
    /// never expanded before generates them fresh and counts them all in
    /// one batched pass over its own intersection. Idempotent per run.
    fn expand(&mut self, id: u32, k: usize) {
        if self.open[id as usize] {
            return;
        }
        if self.arena.nodes[id as usize].expanded {
            for i in 0..self.arena.nodes[id as usize].children.len() {
                let c = self.arena.nodes[id as usize].children[i];
                self.activate(c, k);
            }
        } else {
            let pattern = self.arena.nodes[id as usize].pattern.clone();
            let children = self.eval_children(&pattern, id, k);
            let nd = &mut self.arena.nodes[id as usize];
            nd.children = children;
            nd.expanded = true;
        }
        self.open[id as usize] = true;
    }

    /// Records `d`'s designation to `dom` in the reverse index. Lists are
    /// append-mostly with lazily validated (possibly duplicate) entries;
    /// when one outgrows twice the whole dominated set it is compacted in
    /// place — valid entries deduped, stale ones dropped — so a node
    /// flip-flopping under a long-lived dominator cannot grow the list
    /// (and every checkpoint clone of it) without bound.
    fn push_designee(&mut self, dom: u32, d: u32) {
        let dres = &self.dres;
        let list = self.dominates.entry(dom).or_default();
        list.push(d);
        if list.len() > 2 * dres.len() + 8 {
            list.retain(|&x| dres.get(&x) == Some(&dom));
            list.sort_unstable();
            list.dedup();
        }
    }

    /// Inserts a newly biased node into `Res`/`DRes`, demoting any `Res`
    /// members it dominates. Idempotent.
    fn add_stopped(&mut self, id: u32) {
        if self.in_stopped(id) {
            return;
        }
        let p = &self.arena.nodes[id as usize].pattern;
        let dominator = self
            .res
            .iter()
            .copied()
            .find(|&r| self.arena.nodes[r as usize].pattern.is_subset_of(p));
        if let Some(dom) = dominator {
            self.dres.insert(id, dom);
            self.stopped[id as usize] = true;
            self.push_designee(dom, id);
        } else {
            let demote: Vec<u32> = self
                .res
                .iter()
                .copied()
                .filter(|&r| p.is_proper_subset_of(&self.arena.nodes[r as usize].pattern))
                .collect();
            let mut mine: Vec<u32> = Vec::new();
            for r in demote {
                self.res.remove(&r);
                // Everything designated to `r` is also dominated by the
                // strictly more general `id` — re-point in O(designees).
                for d in self.dominates.remove(&r).unwrap_or_default() {
                    if self.dres.get(&d) == Some(&r) {
                        self.dres.insert(d, id);
                        mine.push(d);
                    }
                }
                self.dres.insert(r, id);
                mine.push(r);
            }
            if !mine.is_empty() {
                self.dominates.entry(id).or_default().extend(mine);
            }
            self.res.insert(id);
            self.stopped[id as usize] = true;
        }
    }

    /// Removes a node that stopped being biased, promoting `DRes` members
    /// it was the last `Res` dominator of. Only the nodes *designated* to
    /// the removed member are candidates: every other dominated node has
    /// a designated dominator still in `res`, so it cannot have lost its
    /// last one. Candidates are processed most-general-first so a
    /// promoted pattern immediately dominates its own supersets.
    fn remove_stopped(&mut self, id: u32, k: usize) {
        self.stopped[id as usize] = false;
        if self.res.remove(&id) {
            let mut cands = self.dominates.remove(&id).unwrap_or_default();
            cands.retain(|&d| self.dres.get(&d) == Some(&id));
            cands.sort_by_key(|&d| (self.arena.nodes[d as usize].pattern.len(), d));
            for d in cands {
                // Designation lists can hold duplicates (a node designated
                // here, moved away, then designated here again): re-check
                // so a second occurrence of an already promoted or
                // re-designated node is skipped — processing it again
                // would self-designate a fresh `res` member into `dres`.
                if self.dres.get(&d) != Some(&id) {
                    continue;
                }
                // A candidate that flipped non-biased in this same round is
                // left for its own pending transition event (its dangling
                // designation dies with that event's `dres` removal).
                if !self.is_biased(d, k) {
                    continue;
                }
                let dp = &self.arena.nodes[d as usize].pattern;
                let dominator = self
                    .res
                    .iter()
                    .copied()
                    .find(|&r| self.arena.nodes[r as usize].pattern.is_subset_of(dp));
                if let Some(dom) = dominator {
                    self.dres.insert(d, dom);
                    self.push_designee(dom, d);
                } else {
                    self.dres.remove(&d);
                    self.res.insert(d);
                }
            }
        } else {
            self.dres.remove(&id);
        }
    }

    /// Whether all tree ancestors of `id` are currently non-biased (the
    /// node is on the live search frontier rather than masked below a
    /// biased ancestor).
    fn tree_minimal(&self, id: u32, k: usize) -> bool {
        let mut cur = self.arena.nodes[id as usize].parent;
        while cur != ROOT {
            if self.is_biased(cur, k) {
                return false;
            }
            cur = self.arena.nodes[cur as usize].parent;
        }
        true
    }

    /// The paper’s `searchFromNode`: resumes the suspended search below a
    /// node that just stopped being biased, expanding any frontier not yet
    /// opened and stopping at (and registering) biased descendants.
    fn resume_subtree(&mut self, id: u32, k: usize, guard: &mut DeadlineGuard) -> bool {
        let mut stack = vec![id];
        while let Some(nid) = stack.pop() {
            if guard.expired() {
                return false;
            }
            self.expand(nid, k);
            for i in 0..self.arena.nodes[nid as usize].children.len() {
                let c = self.arena.nodes[nid as usize].children[i];
                if self.arena.pruned[c as usize] {
                    continue;
                }
                if self.is_biased(c, k) {
                    self.add_stopped(c);
                } else {
                    stack.push(c);
                }
            }
        }
        true
    }

    /// Full top-down build at `k` (used for `k_min` and for global-bound
    /// steps). Breadth-first so dominance sees subsets before supersets.
    /// With a populated arena the whole pass runs on prefix recounts —
    /// fresh evaluations happen only for never-seen patterns.
    fn build(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        self.stats.full_searches += 1;
        let mut queue: VecDeque<u32> = VecDeque::new();
        if self.arena.root_children.is_empty() {
            self.arena.root_children = self.eval_children(&Pattern::empty(), ROOT, k);
            queue.extend(&self.arena.root_children);
        } else {
            for i in 0..self.arena.root_children.len() {
                let id = self.arena.root_children[i];
                self.activate(id, k);
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            if guard.expired() {
                return false;
            }
            if self.arena.pruned[id as usize] {
                continue;
            }
            if self.is_biased(id, k) {
                self.add_stopped(id);
            } else {
                self.expand(id, k);
                for &c in &self.arena.nodes[id as usize].children {
                    queue.push_back(c);
                }
            }
        }
        true
    }

    /// Clears the run state for a fresh build (global-bound steps). The
    /// arena is kept: the follow-up [`Engine::build`] re-activates the
    /// stored structure with prefix recounts instead of re-evaluating it.
    fn reset(&mut self) {
        self.counts.clear();
        self.counts.resize(self.arena.nodes.len(), NOT_LIVE);
        self.open.clear();
        self.open.resize(self.arena.nodes.len(), false);
        self.stopped.clear();
        self.stopped.resize(self.arena.nodes.len(), false);
        self.res.clear();
        self.dres.clear();
        self.dominates.clear();
        for bucket in &mut self.schedule {
            bucket.clear();
        }
    }

    /// Phase 1 of an incremental step: bump the count of every live node
    /// the newly ranked tuple satisfies (a connected subtree reachable from
    /// the root), collecting nodes whose bias classification may flip.
    fn walk_counts(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
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
                continue; // counts of pruned leaves are never read
            }
            self.counts[id as usize] += 1;
            self.stats.nodes_touched += 1;
            if self.is_biased(id, k) != self.in_stopped(id) {
                cands.insert(id);
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

    /// Phase 2 (proportional only): drain the `k̃` bucket for `k`. Stale
    /// entries (count grew since scheduling) are re-inserted at their
    /// recomputed `k̃`; genuine flips join the transition candidates.
    fn pop_schedule(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        if self.schedule.is_empty() {
            return;
        }
        let bucket = std::mem::take(&mut self.schedule[k]);
        for id in bucket {
            self.stats.schedule_pops += 1;
            if self.arena.pruned[id as usize] || self.counts[id as usize] == NOT_LIVE {
                continue;
            }
            let biased = self.is_biased(id, k);
            if biased != self.in_stopped(id) {
                cands.insert(id);
            }
            if !biased {
                self.schedule_push(id, k);
            }
        }
    }

    /// Phase 3: apply bias transitions, most-general patterns first.
    fn apply_transitions(
        &mut self,
        k: usize,
        cands: FxHashSet<u32>,
        guard: &mut DeadlineGuard,
    ) -> bool {
        let mut ids: Vec<u32> = cands.into_iter().collect();
        ids.sort_by_key(|&id| (self.arena.nodes[id as usize].pattern.len(), id));
        for id in ids {
            let before = self.in_stopped(id);
            let after = self.is_biased(id, k);
            if before && !after {
                self.remove_stopped(id, k);
                self.schedule_push(id, k);
                if !self.arena.pruned[id as usize]
                    && self.tree_minimal(id, k)
                    && !self.resume_subtree(id, k, guard)
                {
                    return false;
                }
            } else if !before && after && !self.arena.pruned[id as usize] {
                self.add_stopped(id);
            }
        }
        true
    }

    /// Adds or removes one tuple's worth of counts: the subtree walk of
    /// [`Engine::walk_counts`] with a signed delta and no candidate
    /// collection (repairs reclassify the whole store afterwards).
    /// `t_pos` is any rank position whose index codes are the tuple's —
    /// for a tuple that left the top-`k`, its new position below `k`.
    /// With `touched_down`, decremented node ids are collected so the
    /// proportional `k̃` schedule can be refreshed (a smaller count flips
    /// *earlier*; a stale later entry would miss the flip — the inverse
    /// of the growth-only staleness `pop_schedule` tolerates).
    fn walk_delta(&mut self, t_pos: usize, up: bool, mut touched_down: Option<&mut Vec<u32>>) {
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
                continue; // counts of pruned leaves are never read
            }
            if up {
                self.counts[id as usize] += 1;
            } else {
                self.counts[id as usize] -= 1;
                if let Some(list) = touched_down.as_deref_mut() {
                    list.push(id);
                }
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

    /// Repairs this state (positioned at `k`) after a pure reorder
    /// changed its top-`k` **set**: subtracts the leaving tuples, adds
    /// the entering ones (positions in the *patched* index), then
    /// reclassifies the whole store and applies the transitions — the
    /// same both-directions machinery the bound-step rescan uses, so
    /// counts may move either way. `s_D`, `n` and the pruned flags are
    /// untouched by a reorder, which is exactly why this repair is sound
    /// (an insertion moves those and voids the checkpoint instead).
    fn repair(
        &mut self,
        k: usize,
        entering: &[usize],
        leaving: &[usize],
        guard: &mut DeadlineGuard,
    ) -> bool {
        let mut touched_down = if self.schedule.is_empty() {
            None
        } else {
            Some(Vec::new())
        };
        for &pos in leaving {
            self.walk_delta(pos, false, touched_down.as_mut());
        }
        for &pos in entering {
            self.walk_delta(pos, true, None);
        }
        let mut cands = FxHashSet::default();
        self.rescan_all(k, &mut cands);
        if !self.apply_transitions(k, cands, guard) {
            return false;
        }
        // Refresh k̃ entries for every decremented, still-unbiased node:
        // its flip moved earlier, so the pre-repair entry alone could be
        // popped too late.
        if let Some(ids) = touched_down {
            for id in ids {
                if !self.arena.pruned[id as usize] && !self.in_stopped(id) {
                    self.schedule_push(id, k);
                }
            }
        }
        true
    }

    /// Extension beyond the paper: handles an *increase* of the global
    /// lower bound without the full rebuild Algorithm 2 performs.
    ///
    /// When `L` grows, nodes can only *enter* the biased state, and every
    /// most general biased pattern under the new bound is already stored
    /// (its tree ancestors are non-biased under the new bound, hence were
    /// non-biased — and therefore expanded — under every earlier, smaller
    /// bound). A single pass over the live store reclassifies without a
    /// single fresh pattern evaluation.
    fn rescan_all(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        for id in 0..u32::try_from(self.arena.nodes.len()).expect("node ids fit u32") {
            if self.arena.pruned[id as usize] || self.counts[id as usize] == NOT_LIVE {
                continue;
            }
            self.stats.nodes_touched += 1;
            if self.is_biased(id, k) != self.in_stopped(id) {
                cands.insert(id);
            }
        }
    }

    /// One incremental step `k−1 → k`: walk the entering tuple, handle
    /// bound steps (store rescan with `fast_steps`, Algorithm 2's rebuild
    /// without), drain the `k̃` schedule, apply transitions. The batch
    /// driver, the streaming core and the checkpointed monitor replay all
    /// step through exactly this function, so no execution mode can drift
    /// from another.
    fn advance(
        &mut self,
        k: usize,
        bounds_for_steps: Option<&Bounds>,
        fast_steps: bool,
        guard: &mut DeadlineGuard,
    ) -> bool {
        match bounds_for_steps {
            // A bound *increase* with the extension enabled: walk the new
            // tuple, then reclassify the whole store.
            Some(b) if fast_steps && b.at(k) > b.at(k - 1) => {
                let mut cands = FxHashSet::default();
                self.walk_counts(k, &mut cands);
                self.rescan_all(k, &mut cands);
                self.apply_transitions(k, cands, guard)
            }
            // Algorithm 2, lines 4–5: a bound change invalidates the
            // incremental frontier — run a fresh search. (Also the
            // fallback for decreasing bounds, where the rescan argument
            // does not apply.) The arena survives the reset, so the
            // rebuild runs on prefix recounts.
            Some(b) if b.at(k) != b.at(k - 1) => {
                self.reset();
                self.build(k, guard)
            }
            _ => {
                let mut cands = FxHashSet::default();
                self.walk_counts(k, &mut cands);
                self.pop_schedule(k, &mut cands);
                self.apply_transitions(k, cands, guard)
            }
        }
    }

    /// Copies the run state into a resumable [`LowerCheckpoint`] anchored
    /// at `k` — two flat-vector memcpys plus the frontier sets; the arena
    /// (patterns, `s_D`, tree structure) is **not** cloned.
    fn to_checkpoint(&self, k: usize) -> LowerCheckpoint {
        LowerCheckpoint {
            k,
            counts: self.counts.clone(),
            open: self.open.clone(),
            res: self.res.clone(),
            dres: self.dres.clone(),
            dominates: self.dominates.clone(),
            schedule: self.schedule.clone(),
        }
    }

    /// Overwrites the run state from a stored checkpoint, positioning the
    /// engine at `cp.k`; the next [`Engine::advance`] call must be for
    /// `cp.k + 1`. Nodes interned after the snapshot was taken restore as
    /// not-live.
    fn restore(&mut self, cp: &LowerCheckpoint) {
        self.counts.clear();
        self.counts.extend_from_slice(&cp.counts);
        self.counts.resize(self.arena.nodes.len(), NOT_LIVE);
        self.open.clear();
        self.open.extend_from_slice(&cp.open);
        self.open.resize(self.arena.nodes.len(), false);
        self.res = cp.res.clone();
        self.dres = cp.dres.clone();
        self.dominates = cp.dominates.clone();
        self.schedule = cp.schedule.clone();
        self.stopped.clear();
        self.stopped.resize(self.arena.nodes.len(), false);
        for &id in self.res.iter().chain(self.dres.keys()) {
            self.stopped[id as usize] = true;
        }
    }

    /// The current `Res` as sorted patterns.
    fn snapshot(&self, k: usize) -> KResult {
        let mut patterns: Vec<Pattern> = self
            .res
            .iter()
            .map(|&id| self.arena.nodes[id as usize].pattern.clone())
            .collect();
        patterns.sort_unstable();
        KResult { k, patterns }
    }

    fn run(
        mut self,
        cfg: &DetectConfig,
        bounds_for_steps: Option<&Bounds>,
        fast_steps: bool,
    ) -> DetectionOutput {
        let mut guard = DeadlineGuard::new(cfg.deadline);
        let mut per_k = Vec::with_capacity(cfg.range_len());
        let mut ok = self.build(cfg.k_min, &mut guard);
        if ok {
            per_k.push(self.snapshot(cfg.k_min));
            for k in cfg.k_min + 1..=cfg.k_max {
                if !self.advance(k, bounds_for_steps, fast_steps, &mut guard) {
                    ok = false;
                    break;
                }
                per_k.push(self.snapshot(k));
            }
        }
        self.stats.timed_out = !ok;
        self.stats.elapsed = guard.elapsed();
        DetectionOutput {
            per_k,
            stats: self.stats,
        }
    }
}

fn check_range<I: CountsProvider>(index: &I, cfg: &DetectConfig) {
    assert!(
        cfg.k_max <= index.n(),
        "k_max ({}) exceeds the number of ranked tuples ({})",
        cfg.k_max,
        index.n()
    );
}

/// A lazy, resumable detection run: yields the [`KResult`] for each `k`
/// in `[k_min, k_max]` on demand, maintaining the incremental engine
/// between calls — the under-representation half of
/// `Audit::run_streaming`.
///
/// Useful when a consumer inspects results `k` by `k` (an interactive
/// audit UI, or an early-exit search for the first `k` with a biased
/// group) — later `k` values are never computed unless requested, and the
/// incremental state is reused exactly as in the batch algorithms.
pub(crate) struct StreamCore<'a, I: CountsProvider> {
    engine: Engine<'a, I>,
    cfg: DetectConfig,
    bounds_for_steps: Option<Bounds>,
    fast_steps: bool,
    guard: DeadlineGuard,
    next_k: usize,
    failed: bool,
}

impl<'a, I: CountsProvider> StreamCore<'a, I> {
    /// Streaming `GlobalBounds` (with the fast bound-step extension).
    pub fn global(
        index: &'a I,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        bounds: &Bounds,
    ) -> Self {
        check_range(index, cfg);
        let measure = BiasMeasure::GlobalLower(bounds.clone());
        StreamCore {
            engine: Engine::new(index, space, measure, cfg.tau_s, cfg.k_max),
            cfg: cfg.clone(),
            bounds_for_steps: Some(bounds.clone()),
            fast_steps: true,
            guard: DeadlineGuard::new(cfg.deadline),
            next_k: cfg.k_min,
            failed: false,
        }
    }

    /// Streaming `PropBounds`.
    pub fn proportional(
        index: &'a I,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        alpha: f64,
    ) -> Self {
        check_range(index, cfg);
        assert!(alpha > 0.0, "alpha must be positive");
        let measure = BiasMeasure::Proportional { alpha };
        StreamCore {
            engine: Engine::new(index, space, measure, cfg.tau_s, cfg.k_max),
            cfg: cfg.clone(),
            bounds_for_steps: None,
            fast_steps: false,
            guard: DeadlineGuard::new(cfg.deadline),
            next_k: cfg.k_min,
            failed: false,
        }
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &SearchStats {
        &self.engine.stats
    }

    /// Whether the stream stopped early because the deadline fired.
    pub fn timed_out(&self) -> bool {
        self.failed
    }
}

impl<I: CountsProvider> Iterator for StreamCore<'_, I> {
    type Item = KResult;

    fn next(&mut self) -> Option<KResult> {
        if self.failed || self.next_k > self.cfg.k_max {
            return None;
        }
        let k = self.next_k;
        let ok = if k == self.cfg.k_min {
            self.engine.build(k, &mut self.guard)
        } else {
            self.engine.advance(
                k,
                self.bounds_for_steps.as_ref(),
                self.fast_steps,
                &mut self.guard,
            )
        };
        if !ok {
            self.failed = true;
            return None;
        }
        self.next_k += 1;
        Some(self.engine.snapshot(k))
    }
}

/// `GlobalBounds` (Algorithm 2): detection of groups with biased
/// representation under global lower bounds, incremental across the `k`
/// range.
pub(crate) fn global_bounds<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    bounds: &Bounds,
) -> DetectionOutput {
    check_range(index, cfg);
    let measure = BiasMeasure::GlobalLower(bounds.clone());
    let engine = Engine::new(index, space, measure, cfg.tau_s, cfg.k_max);
    engine.run(cfg, Some(bounds), false)
}

/// A resumable snapshot of the lower engine's **run state** — per-node
/// counts, the open frontier, the `Res`/`DRes` sets and the `k̃` schedule
/// — anchored at a specific `k`. The node structure itself (patterns,
/// `s_D`, tree shape) lives in the [`LowerArena`] shared by every
/// snapshot, so taking one is a counts-plus-frontier memcpy, not a deep
/// clone of the node map. The live monitor keeps one of these every `C`
/// values of `k` so a delta re-audit can seek to the checkpoint at or
/// below a segment start and replay forward with per-`k` subtree walks,
/// instead of paying a from-scratch top-down build.
///
/// Validity under edits: every stored count is `|top-k ∩ p|`, a function
/// of the top-`k` **set** alone, and the frontier sets are determined by
/// those counts plus store structure. A pure reorder of rank positions
/// `[lo, hi]` leaves the top-`k` set unchanged for `k ≤ lo` and `k > hi`
/// — and for every `k` no row's net movement crossed, which is what
/// segmented replay exploits — so those checkpoints stay exact;
/// insertions move `n` and `s_D`, invalidating every checkpoint and the
/// arena itself.
#[derive(Debug, Clone)]
pub(crate) struct LowerCheckpoint {
    /// The `k` whose state this snapshot holds.
    pub(crate) k: usize,
    counts: Vec<u32>,
    open: Vec<bool>,
    res: FxHashSet<u32>,
    dres: FxHashMap<u32, u32>,
    dominates: FxHashMap<u32, Vec<u32>>,
    schedule: Vec<Vec<u32>>,
}

impl LowerCheckpoint {
    /// Number of node slots snapshotted (the checkpoint's memory
    /// footprint driver — one `u32` + one `bool` each, not a node clone).
    pub(crate) fn stored_nodes(&self) -> usize {
        self.counts.len()
    }
}

/// Grid-snapshot maintenance for the lower store — the shared policy
/// lives in [`crate::audit::maintain_grid_snapshot`]. Returns whether a
/// snapshot was written (inserted or overwritten) at `k`.
fn maybe_checkpoint<I: CountsProvider>(
    store: &mut Vec<LowerCheckpoint>,
    engine: &Engine<'_, I>,
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

/// Checkpointed execution of the lower (under-representation) side over
/// the given `k` **segments** (sorted, disjoint) — the monitor's delta
/// re-audit core.
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
/// are used as-is. A delta re-audit therefore performs **zero**
/// from-scratch builds on any pure reorder. With an empty store (initial
/// audit, or after an insertion voided it) it builds at `k_min` exactly
/// like a fresh run — on the shared arena, so even cold builds after the
/// first run on prefix recounts. Every replayed grid `k` rewrites its
/// snapshot, keeping the whole store valid after every batch.
/// Output-equivalent to [`global_bounds`] / [`prop_bounds`] on the
/// replayed `k` values — asserted by the differential sweeps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lower_replay<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    measure: &BiasMeasure,
    cfg: &DetectConfig,
    spans: &[(usize, usize)],
    reorder: Option<(&crate::audit::ReorderSpec, &[rankfair_data::TupleId])>,
    store: &mut LowerStore,
    cadence: usize,
    counters: &mut ReplayCounters,
) -> DetectionOutput {
    debug_assert!(cadence >= 1);
    debug_assert!(spans
        .iter()
        .all(|&(lo, hi)| cfg.k_min <= lo && lo <= hi && hi <= cfg.k_max));
    debug_assert!(spans.windows(2).all(|w| w[0].1 < w[1].0));
    let bounds_for_steps = match measure {
        BiasMeasure::GlobalLower(b) => Some(b.clone()),
        BiasMeasure::Proportional { .. } => None,
    };
    // No deadline: monitors reject deadlines at construction, so a replay
    // can never truncate mid-span.
    let mut guard = DeadlineGuard::new(None);
    let mut per_k = Vec::with_capacity(spans.iter().map(|&(lo, hi)| hi - lo + 1).sum());
    counters.segments += spans.len() as u64;
    let mut engine = Engine::with_arena(
        index,
        space,
        measure.clone(),
        cfg.tau_s,
        cfg.k_max,
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
                            engine.repair(cp_k, &entering, &leaving, &mut guard);
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
                engine.build(cfg.k_min, &mut guard);
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
            engine.advance(k_cur, bounds_for_steps.as_ref(), true, &mut guard);
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
    DetectionOutput { per_k, stats }
}

/// `PropBounds` (Algorithm 3): detection of groups with biased
/// proportional representation, incremental across the `k` range with
/// `k̃` scheduling.
pub(crate) fn prop_bounds<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    alpha: f64,
) -> DetectionOutput {
    check_range(index, cfg);
    assert!(alpha > 0.0, "alpha must be positive");
    let measure = BiasMeasure::Proportional { alpha };
    let engine = Engine::new(index, space, measure, cfg.tau_s, cfg.k_max);
    engine.run(cfg, None, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::RankedIndex;
    use crate::topdown::iter_td;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::Ranking;

    fn fig1() -> (PatternSpace, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (space, index)
    }

    fn names(space: &PatternSpace, pats: &[Pattern]) -> Vec<String> {
        pats.iter().map(|p| space.display(p)).collect()
    }

    #[test]
    fn example_4_6_global_bounds_k4_to_k5() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(4, 4, 5);
        let out = global_bounds(&index, &space, &cfg, &Bounds::constant(2));
        assert_eq!(out.per_k.len(), 2);
        let k4 = names(&space, &out.per_k[0].patterns);
        assert!(k4.contains(&"{Address=U}".to_string()));
        assert!(k4.contains(&"{Failures=1}".to_string()));
        let k5 = names(&space, &out.per_k[1].patterns);
        for e in [
            "{School=GP}",
            "{Failures=2}",
            "{Address=U, Failures=1}",
            "{Gender=F, Address=U}",
            "{Gender=M, Address=U}",
            "{Gender=F, Failures=1}",
            "{Address=R, Failures=1}",
            "{Gender=F, School=MS}",
            "{Gender=F, Address=R}",
        ] {
            assert!(k5.contains(&e.to_string()), "missing {e} in {k5:?}");
        }
        assert_eq!(k5.len(), 9);
    }

    #[test]
    fn example_4_9_prop_bounds_k4_to_k5() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(5, 4, 5);
        let out = prop_bounds(&index, &space, &cfg, 0.9);
        let k4 = names(&space, &out.per_k[0].patterns);
        assert_eq!(k4, vec!["{School=GP}", "{Address=U}", "{Failures=1}"]);
        let k5 = names(&space, &out.per_k[1].patterns);
        assert!(k5.contains(&"{Gender=F}".to_string()));
        assert_eq!(k5.len(), 4);
    }

    #[test]
    fn global_bounds_matches_iter_td_on_fig1_sweep() {
        let (space, index) = fig1();
        for tau in [1, 2, 4, 6] {
            for l in [1, 2, 3, 5] {
                let cfg = DetectConfig::new(tau, 2, 16);
                let bounds = Bounds::constant(l);
                let measure = BiasMeasure::GlobalLower(bounds.clone());
                let base = iter_td(&index, &space, &cfg, &measure);
                let opt = global_bounds(&index, &space, &cfg, &bounds);
                assert_eq!(base.per_k, opt.per_k, "tau={tau} l={l}");
            }
        }
    }

    #[test]
    fn global_bounds_with_steps_matches_iter_td() {
        let (space, index) = fig1();
        let bounds = Bounds::steps(vec![(2, 1), (6, 2), (10, 3)]);
        let cfg = DetectConfig::new(2, 2, 16);
        let measure = BiasMeasure::GlobalLower(bounds.clone());
        let base = iter_td(&index, &space, &cfg, &measure);
        let opt = global_bounds(&index, &space, &cfg, &bounds);
        assert_eq!(base.per_k, opt.per_k);
        // One initial build plus one rebuild per bound step inside (2,16].
        assert_eq!(opt.stats.full_searches, 3);
    }

    #[test]
    fn prop_bounds_matches_iter_td_on_fig1_sweep() {
        let (space, index) = fig1();
        for tau in [1, 2, 4, 6] {
            for alpha in [0.3, 0.5, 0.8, 0.9, 1.0, 1.2] {
                let cfg = DetectConfig::new(tau, 2, 16);
                let measure = BiasMeasure::Proportional { alpha };
                let base = iter_td(&index, &space, &cfg, &measure);
                let opt = prop_bounds(&index, &space, &cfg, alpha);
                assert_eq!(base.per_k, opt.per_k, "tau={tau} alpha={alpha}");
            }
        }
    }

    #[test]
    fn optimized_examines_fewer_patterns_than_baseline() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let bounds = Bounds::constant(2);
        let measure = BiasMeasure::GlobalLower(bounds.clone());
        let base = iter_td(&index, &space, &cfg, &measure);
        let opt = global_bounds(&index, &space, &cfg, &bounds);
        assert!(
            opt.stats.patterns_examined() < base.stats.patterns_examined(),
            "optimized {} >= baseline {}",
            opt.stats.patterns_examined(),
            base.stats.patterns_examined()
        );
    }

    #[test]
    fn lower_replay_matches_batch_and_seeks_checkpoints() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for measure in [
            BiasMeasure::GlobalLower(Bounds::steps(vec![(2, 1), (6, 2), (10, 3)])),
            BiasMeasure::GlobalLower(Bounds::LinearFraction(0.3)),
            BiasMeasure::Proportional { alpha: 0.8 },
        ] {
            let want = match &measure {
                BiasMeasure::GlobalLower(b) => global_bounds(&index, &space, &cfg, b).per_k,
                BiasMeasure::Proportional { alpha } => {
                    prop_bounds(&index, &space, &cfg, *alpha).per_k
                }
            };
            for cadence in [1usize, 3, 8] {
                let mut store = LowerStore::default();
                let mut counters = ReplayCounters::default();
                let full = lower_replay(
                    &index,
                    &space,
                    &measure,
                    &cfg,
                    &[(2, 16)],
                    None,
                    &mut store,
                    cadence,
                    &mut counters,
                );
                assert_eq!(full.per_k, want, "{measure:?} cadence {cadence}");
                assert_eq!(counters.cold_builds, 1);
                assert!(!store.snaps.is_empty());
                assert!(store.snaps.windows(2).all(|w| w[0].k < w[1].k));
                // A sub-span replay seeded from the stored checkpoints
                // must reproduce the batch run's slice exactly, without a
                // fresh build.
                let mut counters = ReplayCounters::default();
                let sub = lower_replay(
                    &index,
                    &space,
                    &measure,
                    &cfg,
                    &[(9, 12)],
                    None,
                    &mut store,
                    cadence,
                    &mut counters,
                );
                assert_eq!(sub.per_k[..], want[7..=10], "{measure:?} cadence {cadence}");
                assert_eq!(counters.seeks, 1);
                assert_eq!(counters.cold_builds, 0);
                // Every replay-driven position (catch-up + in-span) beats
                // a full-range pass (1 build + 14 advances).
                assert!(counters.replayed_steps < 14);
            }
        }
    }

    #[test]
    fn lower_replay_segmented_spans_match_batch() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let measure = BiasMeasure::Proportional { alpha: 0.8 };
        let want = prop_bounds(&index, &space, &cfg, 0.8).per_k;
        for cadence in [1usize, 3, 8] {
            let mut store = LowerStore::default();
            let mut counters = ReplayCounters::default();
            lower_replay(
                &index,
                &space,
                &measure,
                &cfg,
                &[(2, 16)],
                None,
                &mut store,
                cadence,
                &mut counters,
            );
            // Two disjoint segments: each seeks independently; the gap ks
            // are neither stepped nor emitted.
            let mut counters = ReplayCounters::default();
            let out = lower_replay(
                &index,
                &space,
                &measure,
                &cfg,
                &[(4, 5), (12, 13)],
                None,
                &mut store,
                cadence,
                &mut counters,
            );
            let got_ks: Vec<usize> = out.per_k.iter().map(|r| r.k).collect();
            assert_eq!(got_ks, vec![4, 5, 12, 13], "cadence {cadence}");
            assert_eq!(out.per_k[0..2], want[2..=3], "cadence {cadence}");
            assert_eq!(out.per_k[2..4], want[10..=11], "cadence {cadence}");
            assert_eq!(counters.segments, 2);
            assert_eq!(counters.cold_builds, 0);
            assert!(counters.seeks >= 1 && counters.seeks <= 2);
        }
    }

    #[test]
    #[should_panic(expected = "k_max")]
    fn k_max_beyond_dataset_rejected() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 17);
        global_bounds(&index, &space, &cfg, &Bounds::constant(2));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn nonpositive_alpha_rejected() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 5);
        prop_bounds(&index, &space, &cfg, 0.0);
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::space::RankedIndex;
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
    fn stream_collect_equals_batch_global() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let bounds = Bounds::steps(vec![(2, 1), (6, 2), (10, 3)]);
        let batch = global_bounds(&index, &space, &cfg, &bounds);
        let streamed: Vec<KResult> = StreamCore::global(&index, &space, &cfg, &bounds).collect();
        assert_eq!(batch.per_k, streamed);
    }

    #[test]
    fn stream_collect_equals_batch_proportional() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 3, 16);
        let batch = prop_bounds(&index, &space, &cfg, 0.8);
        let streamed: Vec<KResult> = StreamCore::proportional(&index, &space, &cfg, 0.8).collect();
        assert_eq!(batch.per_k, streamed);
    }

    #[test]
    fn stream_is_lazy() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let mut stream = StreamCore::proportional(&index, &space, &cfg, 0.8);
        let first = stream.next().unwrap();
        assert_eq!(first.k, 2);
        let after_one = stream.stats().nodes_evaluated;
        let _rest: Vec<KResult> = stream.by_ref().collect();
        assert!(stream.stats().nodes_evaluated >= after_one);
        assert!(!stream.timed_out());
    }

    #[test]
    fn stream_can_stop_early() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let ks: Vec<usize> = StreamCore::global(&index, &space, &cfg, &Bounds::constant(2))
            .take(3)
            .map(|kr| kr.k)
            .collect();
        assert_eq!(ks, vec![2, 3, 4]);
    }
}
