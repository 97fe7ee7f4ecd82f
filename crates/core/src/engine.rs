//! The lower-bound (under-representation) engine behind `GlobalBounds`
//! (Algorithm 2) and `PropBounds` (Algorithm 3).
//!
//! The engine runs on the shared incremental core
//! ([`crate::incremental`]): the node arena, the per-`k` subtree walk, the
//! checkpoints and the replay driver. Between `k` values it maintains:
//!
//! * **exact counts** — the core's root walk bumps every stored node the
//!   entering tuple satisfies, with *no dataset scans*;
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
//! schedule is needed. When `L_k` changes, the batch run rebuilds from
//! scratch exactly as Algorithm 2 does (lines 4–5); streaming and replay
//! (`fast_steps`) apply the bound-step extension instead: a store-wide
//! reclassification pass with zero fresh evaluations. Rebuilds keep the
//! arena, so they run on prefix recounts.
//!
//! The §III upper-bound side is the other engine on the same core
//! (`upper_engine`), maintaining the *most specific* frontier of the
//! subset-closed over-represented set.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::bounds::BiasMeasure;
use crate::incremental::{Core, Incremental, ROOT};
use crate::pattern::Pattern;
use crate::space::{CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, KResult};
use crate::util::{FxHashMap, FxHashSet};

/// The bias predicate and the `k̃` schedule it drives.
struct Bias {
    measure: BiasMeasure,
    n: usize,
    k_max: usize,
    /// Memoized `(k, L_k)` for the global measure: every predicate call
    /// within one step shares `k`, so the bound lookup (a linear scan for
    /// [`crate::Bounds::Steps`]) is hoisted out of the per-node predicate.
    lk_memo: Cell<(usize, usize)>,
    /// `k̃` buckets indexed by `k` (0..=k_max); entries may be stale and are
    /// re-validated when popped. Empty for the global measure.
    schedule: Vec<Vec<u32>>,
}

impl Bias {
    #[inline]
    fn biased<I: CountsProvider>(&self, core: &Core<'_, I>, id: u32, k: usize) -> bool {
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
                core.count(id) < l
            }
            m => m.is_biased(
                core.count(id),
                core.arena.nodes[id as usize].sd as usize,
                k,
                self.n,
            ),
        }
    }

    /// Pushes a `k̃` entry for a currently non-biased node (proportional
    /// measure only; no-op otherwise or when the flip falls past `k_max`).
    fn push<I: CountsProvider>(&mut self, core: &Core<'_, I>, id: u32, k: usize) {
        if self.schedule.is_empty() {
            return;
        }
        if let Some(kt) = self.measure.k_tilde(
            core.count(id),
            core.arena.nodes[id as usize].sd as usize,
            k,
            self.n,
        ) {
            if kt <= self.k_max {
                self.schedule[kt].push(id);
            }
        }
    }

    /// Whether `id`'s bias verdict disagrees with its `Res`/`DRes`
    /// membership (`core.mark`).
    #[inline]
    fn flipped<I: CountsProvider>(&self, core: &Core<'_, I>, id: u32, k: usize) -> bool {
        self.biased(core, id, k) != core.mark[id as usize]
    }

    /// Schedules a node that just joined the run, if it is not biased.
    fn admit<I: CountsProvider>(&mut self, core: &Core<'_, I>, id: u32, k: usize) {
        if !self.biased(core, id, k) {
            self.push(core, id, k);
        }
    }
}

/// The lower engine's checkpointed frontier: `Res`, `DRes` with its
/// designations, and the `k̃` schedule.
#[derive(Debug)]
pub(crate) struct LowerFrontier {
    res: FxHashSet<u32>,
    dres: FxHashMap<u32, u32>,
    dominates: FxHashMap<u32, Vec<u32>>,
    schedule: Vec<Vec<u32>>,
}

/// The under-representation engine. `core.mark` is the flat mirror of
/// `res ∪ keys(dres)`: the walks and rescans test membership per touched
/// node, so it must be an index read, not two hash probes.
pub(crate) struct LowerEngine<'a, I: CountsProvider> {
    core: Core<'a, I>,
    bias: Bias,
    /// Handle a bound *increase* by a store rescan instead of Algorithm
    /// 2's rebuild.
    fast_steps: bool,
    res: FxHashSet<u32>,
    /// The dominated biased nodes (`DRes`), each mapped to its
    /// **designated dominator**: one current `res` member whose pattern
    /// is a proper subset. When a `res` member un-biases, only the nodes
    /// designated to it can have lost their last dominator — so the
    /// promotion scan touches `O(|designees|)`, not `O(|DRes|)`.
    dres: FxHashMap<u32, u32>,
    /// Reverse index: `res` member → nodes designated to it. Entries may
    /// be stale (the designee re-designated or removed); they are
    /// validated against `dres` when consumed.
    dominates: FxHashMap<u32, Vec<u32>>,
}

impl<'a, I: CountsProvider> LowerEngine<'a, I> {
    /// An engine for `measure` over `cfg`'s `τs` and `k` range.
    ///
    /// # Panics
    /// Panics if a proportional `α` is not positive.
    pub(crate) fn new(
        index: &'a I,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        measure: BiasMeasure,
        fast_steps: bool,
    ) -> Self {
        if let BiasMeasure::Proportional { alpha } = measure {
            assert!(alpha > 0.0, "alpha must be positive");
        }
        let schedule = if measure.is_proportional() {
            vec![Vec::new(); cfg.k_max + 1]
        } else {
            Vec::new()
        };
        LowerEngine {
            core: Core::new(index, space, cfg.tau_s),
            bias: Bias {
                measure,
                n: index.n(),
                k_max: cfg.k_max,
                lk_memo: Cell::new((usize::MAX, 0)),
                schedule,
            },
            fast_steps,
            res: FxHashSet::default(),
            dres: FxHashMap::default(),
            dominates: FxHashMap::default(),
        }
    }

    #[inline]
    fn is_biased(&self, id: u32, k: usize) -> bool {
        self.bias.biased(&self.core, id, k)
    }

    #[inline]
    fn in_stopped(&self, id: u32) -> bool {
        self.core.mark[id as usize]
    }

    fn expand(&mut self, id: u32, k: usize) {
        let bias = &mut self.bias;
        self.core.expand(id, k, |core, c| bias.admit(core, c, k));
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

    /// The first `res` member whose pattern is a subset of `p`.
    fn dominator_of(&self, p: &Pattern) -> Option<u32> {
        self.res
            .iter()
            .copied()
            .find(|&r| self.core.pattern(r).is_subset_of(p))
    }

    /// Inserts a newly biased node into `Res`/`DRes`, demoting any `Res`
    /// members it dominates. Idempotent.
    fn add_stopped(&mut self, id: u32) {
        if self.in_stopped(id) {
            return;
        }
        let p = self.core.pattern(id);
        if let Some(dom) = self.dominator_of(p) {
            self.dres.insert(id, dom);
            self.core.mark[id as usize] = true;
            self.push_designee(dom, id);
        } else {
            let demote: Vec<u32> = self
                .res
                .iter()
                .copied()
                .filter(|&r| p.is_proper_subset_of(self.core.pattern(r)))
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
            self.core.mark[id as usize] = true;
        }
    }

    /// Removes a node that stopped being biased, promoting `DRes` members
    /// it was the last `Res` dominator of. Only the nodes *designated* to
    /// the removed member are candidates: every other dominated node has
    /// a designated dominator still in `res`, so it cannot have lost its
    /// last one. Candidates are processed most-general-first so a
    /// promoted pattern immediately dominates its own supersets.
    fn remove_stopped(&mut self, id: u32, k: usize) {
        self.core.mark[id as usize] = false;
        if self.res.remove(&id) {
            let mut cands = self.dominates.remove(&id).unwrap_or_default();
            cands.retain(|&d| self.dres.get(&d) == Some(&id));
            cands.sort_by_key(|&d| (self.core.pattern(d).len(), d));
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
                if let Some(dom) = self.dominator_of(self.core.pattern(d)) {
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
        let mut cur = self.core.arena.nodes[id as usize].parent;
        while cur != ROOT {
            if self.is_biased(cur, k) {
                return false;
            }
            cur = self.core.arena.nodes[cur as usize].parent;
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
            for i in 0..self.core.arena.nodes[nid as usize].children.len() {
                let c = self.core.arena.nodes[nid as usize].children[i];
                if self.core.arena.pruned[c as usize] {
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

    /// Phase 1 of an incremental step: bump the count of every live node
    /// the newly ranked tuple satisfies, collecting nodes whose bias
    /// classification may flip.
    fn bump_entering(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        let bias = &self.bias;
        self.core.walk(k - 1, true, |core, id| {
            if bias.flipped(core, id, k) {
                cands.insert(id);
            }
        });
    }

    /// Extension beyond the paper: a store-wide reclassification with zero
    /// fresh evaluations. After a bound *increase* nodes can only *enter*
    /// the biased state, and every most general biased pattern under the
    /// new bound is already stored (its tree ancestors are non-biased
    /// under the new bound, hence were non-biased — and therefore expanded
    /// — under every earlier, smaller bound).
    fn rescan_all(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        let bias = &self.bias;
        self.core.rescan(|core, id| {
            if bias.flipped(core, id, k) {
                cands.insert(id);
            }
        });
    }

    /// Phase 2 (proportional only): drain the `k̃` bucket for `k`. Stale
    /// entries (count grew since scheduling) are re-inserted at their
    /// recomputed `k̃`; genuine flips join the transition candidates.
    fn pop_schedule(&mut self, k: usize, cands: &mut FxHashSet<u32>) {
        if self.bias.schedule.is_empty() {
            return;
        }
        let bucket = std::mem::take(&mut self.bias.schedule[k]);
        for id in bucket {
            self.core.stats.schedule_pops += 1;
            if !self.core.is_live(id) {
                continue;
            }
            let biased = self.is_biased(id, k);
            if biased != self.in_stopped(id) {
                cands.insert(id);
            }
            if !biased {
                self.bias.push(&self.core, id, k);
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
        ids.sort_by_key(|&id| (self.core.pattern(id).len(), id));
        for id in ids {
            let before = self.in_stopped(id);
            let after = self.is_biased(id, k);
            if before && !after {
                self.remove_stopped(id, k);
                self.bias.push(&self.core, id, k);
                if !self.core.arena.pruned[id as usize]
                    && self.tree_minimal(id, k)
                    && !self.resume_subtree(id, k, guard)
                {
                    return false;
                }
            } else if !before && after && !self.core.arena.pruned[id as usize] {
                self.add_stopped(id);
            }
        }
        true
    }
}

impl<'a, I: CountsProvider> Incremental<'a> for LowerEngine<'a, I> {
    type Index = I;
    type Frontier = LowerFrontier;

    fn core(&self) -> &Core<'a, I> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core<'a, I> {
        &mut self.core
    }

    /// Full top-down build at `k`. Breadth-first so dominance sees subsets
    /// before supersets. With a populated arena the whole pass runs on
    /// prefix recounts — fresh evaluations happen only for never-seen
    /// patterns.
    fn build(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        self.core.stats.full_searches += 1;
        let bias = &mut self.bias;
        self.core.open_root(k, |core, c| bias.admit(core, c, k));
        let mut queue: VecDeque<u32> = self.core.arena.root_children.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if guard.expired() {
                return false;
            }
            if self.core.arena.pruned[id as usize] {
                continue;
            }
            if self.is_biased(id, k) {
                self.add_stopped(id);
            } else {
                self.expand(id, k);
                queue.extend(&self.core.arena.nodes[id as usize].children);
            }
        }
        true
    }

    /// Walk the entering tuple, handle bound steps (store rescan with
    /// `fast_steps`, Algorithm 2's rebuild without), drain the `k̃`
    /// schedule, apply transitions.
    fn advance(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        let step = match &self.bias.measure {
            BiasMeasure::GlobalLower(b) => b.at(k).cmp(&b.at(k - 1)),
            BiasMeasure::Proportional { .. } => Ordering::Equal,
        };
        let mut cands = FxHashSet::default();
        match step {
            // A bound *increase* with the extension enabled: walk the new
            // tuple, then reclassify the whole store.
            Ordering::Greater if self.fast_steps => {
                self.bump_entering(k, &mut cands);
                self.rescan_all(k, &mut cands);
                self.apply_transitions(k, cands, guard)
            }
            // Algorithm 2, lines 4–5: a bound change invalidates the
            // incremental frontier — run a fresh search. (Also the
            // fallback for decreasing bounds, where the rescan argument
            // does not apply.) The arena survives the reset, so the
            // rebuild runs on prefix recounts.
            Ordering::Greater | Ordering::Less => {
                self.reset();
                self.build(k, guard)
            }
            Ordering::Equal => {
                self.bump_entering(k, &mut cands);
                self.pop_schedule(k, &mut cands);
                self.apply_transitions(k, cands, guard)
            }
        }
    }

    /// Reclassifies the whole store after the ±count walks and applies
    /// the transitions — the same both-directions machinery the bound-step
    /// rescan uses, so counts may move either way.
    fn repair(
        &mut self,
        k: usize,
        entering: &[usize],
        leaving: &[usize],
        guard: &mut DeadlineGuard,
    ) -> bool {
        // Decremented nodes, for the proportional `k̃` schedule: a smaller
        // count flips *earlier*, so a stale later entry would miss the
        // flip — the inverse of the growth-only staleness `pop_schedule`
        // tolerates.
        let track = !self.bias.schedule.is_empty();
        let mut touched_down = Vec::new();
        for &pos in leaving {
            self.core.walk(pos, false, |_, id| {
                if track {
                    touched_down.push(id);
                }
            });
        }
        for &pos in entering {
            self.core.walk(pos, true, |_, _| {});
        }
        let mut cands = FxHashSet::default();
        self.rescan_all(k, &mut cands);
        if !self.apply_transitions(k, cands, guard) {
            return false;
        }
        // Refresh k̃ entries for every decremented, still-unbiased node:
        // its flip moved earlier, so the pre-repair entry alone could be
        // popped too late.
        for id in touched_down {
            if !self.core.arena.pruned[id as usize] && !self.in_stopped(id) {
                self.bias.push(&self.core, id, k);
            }
        }
        true
    }

    /// The current `Res` as sorted patterns.
    fn snapshot(&self, k: usize) -> KResult {
        let mut patterns: Vec<Pattern> = self
            .res
            .iter()
            .map(|&id| self.core.pattern(id).clone())
            .collect();
        patterns.sort_unstable();
        KResult { k, patterns }
    }

    fn frontier(&self) -> LowerFrontier {
        LowerFrontier {
            res: self.res.clone(),
            dres: self.dres.clone(),
            dominates: self.dominates.clone(),
            schedule: self.bias.schedule.clone(),
        }
    }

    fn set_frontier(&mut self, frontier: &LowerFrontier) {
        self.res = frontier.res.clone();
        self.dres = frontier.dres.clone();
        self.dominates = frontier.dominates.clone();
        self.bias.schedule = frontier.schedule.clone();
        for &id in self.res.iter().chain(self.dres.keys()) {
            self.core.mark[id as usize] = true;
        }
    }

    fn reset(&mut self) {
        self.core.reset();
        self.res.clear();
        self.dres.clear();
        self.dominates.clear();
        for bucket in &mut self.bias.schedule {
            bucket.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::incremental::{replay, Store, Stream};
    use crate::space::RankedIndex;
    use crate::stats::{DetectionOutput, ReplayCounters};
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

    /// The batch run: Algorithm 2's rebuild at bound steps.
    fn batch(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        measure: BiasMeasure,
    ) -> DetectionOutput {
        Stream::new(LowerEngine::new(index, space, cfg, measure, false), cfg).into_output()
    }

    fn global(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        l: &Bounds,
    ) -> DetectionOutput {
        batch(index, space, cfg, BiasMeasure::GlobalLower(l.clone()))
    }

    fn prop(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        alpha: f64,
    ) -> DetectionOutput {
        batch(index, space, cfg, BiasMeasure::Proportional { alpha })
    }

    /// The monitor's checkpointed replay of the lower side.
    #[allow(clippy::too_many_arguments)]
    fn replayed(
        index: &RankedIndex,
        space: &PatternSpace,
        measure: &BiasMeasure,
        cfg: &DetectConfig,
        spans: &[(usize, usize)],
        store: &mut Store<LowerFrontier>,
        cadence: usize,
        counters: &mut ReplayCounters,
    ) -> DetectionOutput {
        let engine = LowerEngine::new(index, space, cfg, measure.clone(), true);
        replay(engine, store, cfg.k_min, spans, None, cadence, counters)
    }

    #[test]
    fn example_4_6_global_bounds_k4_to_k5() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(4, 4, 5);
        let out = global(&index, &space, &cfg, &Bounds::constant(2));
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
        let out = prop(&index, &space, &cfg, 0.9);
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
                let opt = global(&index, &space, &cfg, &bounds);
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
        let opt = global(&index, &space, &cfg, &bounds);
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
                let opt = prop(&index, &space, &cfg, alpha);
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
        let opt = global(&index, &space, &cfg, &bounds);
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
                BiasMeasure::GlobalLower(b) => global(&index, &space, &cfg, b).per_k,
                BiasMeasure::Proportional { alpha } => prop(&index, &space, &cfg, *alpha).per_k,
            };
            for cadence in [1usize, 3, 8] {
                let mut store = Store::default();
                let mut counters = ReplayCounters::default();
                let full = replayed(
                    &index,
                    &space,
                    &measure,
                    &cfg,
                    &[(2, 16)],
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
                let sub = replayed(
                    &index,
                    &space,
                    &measure,
                    &cfg,
                    &[(9, 12)],
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
        let want = prop(&index, &space, &cfg, 0.8).per_k;
        for cadence in [1usize, 3, 8] {
            let mut store = Store::default();
            let mut counters = ReplayCounters::default();
            replayed(
                &index,
                &space,
                &measure,
                &cfg,
                &[(2, 16)],
                &mut store,
                cadence,
                &mut counters,
            );
            // Two disjoint segments: each seeks independently; the gap ks
            // are neither stepped nor emitted.
            let mut counters = ReplayCounters::default();
            let out = replayed(
                &index,
                &space,
                &measure,
                &cfg,
                &[(4, 5), (12, 13)],
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
        global(&index, &space, &cfg, &Bounds::constant(2));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn nonpositive_alpha_rejected() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 5);
        prop(&index, &space, &cfg, 0.0);
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::incremental::Stream;
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

    fn stream<'a>(
        index: &'a RankedIndex,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        measure: BiasMeasure,
        fast_steps: bool,
    ) -> Stream<LowerEngine<'a, RankedIndex>> {
        Stream::new(
            LowerEngine::new(index, space, cfg, measure, fast_steps),
            cfg,
        )
    }

    #[test]
    fn stream_collect_equals_batch_global() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let bounds = Bounds::steps(vec![(2, 1), (6, 2), (10, 3)]);
        let measure = BiasMeasure::GlobalLower(bounds);
        let batch = stream(&index, &space, &cfg, measure.clone(), false).into_output();
        let streamed: Vec<KResult> = stream(&index, &space, &cfg, measure, true).collect();
        assert_eq!(batch.per_k, streamed);
    }

    #[test]
    fn stream_collect_equals_batch_proportional() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 3, 16);
        let measure = BiasMeasure::Proportional { alpha: 0.8 };
        let batch = stream(&index, &space, &cfg, measure.clone(), false).into_output();
        let streamed: Vec<KResult> = stream(&index, &space, &cfg, measure, true).collect();
        assert_eq!(batch.per_k, streamed);
    }

    #[test]
    fn stream_is_lazy() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let measure = BiasMeasure::Proportional { alpha: 0.8 };
        let mut stream = stream(&index, &space, &cfg, measure, true);
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
        let measure = BiasMeasure::GlobalLower(Bounds::constant(2));
        let ks: Vec<usize> = stream(&index, &space, &cfg, measure, true)
            .take(3)
            .map(|kr| kr.k)
            .collect();
        assert_eq!(ks, vec![2, 3, 4]);
    }
}
