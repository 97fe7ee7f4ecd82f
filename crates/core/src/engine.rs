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
//! schedule is needed. Algorithm 2 reruns the search whenever `L_k`
//! changes (lines 4–5). This engine reclassifies its stored nodes
//! instead ([`Incremental::repair`] with the entering tuple), in every
//! driver — the batch run, the stream and a monitor's replay — and in
//! either direction, with identical results.
//!
//! The §III upper-bound side is the other engine on the same core
//! (`upper_engine`), maintaining the *most specific* frontier of the
//! subset-closed over-represented set.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::bounds::BiasMeasure;
use crate::incremental::{Core, Incremental, FREE, MARKED, PRUNED, ROOT};
use crate::pattern::Pattern;
use crate::space::{PatternSpace, RankedIndex};
use crate::stats::{DeadlineGuard, DetectConfig, KResult};
use crate::util::FxHashMap;

/// The bias predicate.
struct Bias {
    measure: BiasMeasure,
    n: usize,
    k_max: usize,
    /// Memoized `(k, L_k)` for the global measure: every predicate call
    /// within one step shares `k`, so the bound lookup (a linear scan for
    /// [`crate::Bounds::Steps`]) is hoisted out of the per-node predicate.
    lk_memo: Cell<(usize, usize)>,
}

impl Bias {
    #[inline]
    fn biased(&self, core: &Core<'_>, id: u32, k: usize) -> bool {
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

    /// Whether `id`'s bias verdict disagrees with its `Res`/`DRes`
    /// membership (its word in `core.mark`).
    #[inline]
    fn flipped(&self, core: &Core<'_>, id: u32, k: usize) -> bool {
        self.biased(core, id, k) != core.marked(id)
    }
}

/// The lower engine's own run state, cloned whole into a checkpoint.
/// `DRes` membership is not here: a `DRes` member's word in `core.mark`
/// is its **designated dominator**, one current `Res` member whose
/// pattern is a proper subset. When a `Res` member un-biases, only the
/// nodes designated to it can have lost their last dominator — so the
/// promotion scan touches `O(|designees|)`, not `O(|DRes|)`.
#[derive(Debug, Clone)]
pub(crate) struct LowerFrontier {
    /// `Res`, in canonical pattern order: a snapshot copies it as is, and
    /// membership is a binary search ([`LowerEngine::res_slot`]).
    res: Vec<u32>,
    /// Reverse designation index: `Res` member → nodes designated to it.
    /// Entries may be stale (the designee re-designated or removed); they
    /// are validated against the designee's word when consumed.
    dominates: FxHashMap<u32, Vec<u32>>,
    /// `k̃` buckets indexed by `k` (0..=k_max), proportional measure only;
    /// entries may be stale and are re-validated when popped.
    schedule: Vec<Vec<u32>>,
}

impl LowerFrontier {
    /// Pushes a `k̃` entry for a currently non-biased node (proportional
    /// measure only; no-op otherwise or when the flip falls past `k_max`).
    fn push(&mut self, bias: &Bias, core: &Core<'_>, id: u32, k: usize) {
        if self.schedule.is_empty() {
            return;
        }
        if let Some(kt) = bias.measure.k_tilde(
            core.count(id),
            core.arena.nodes[id as usize].sd as usize,
            k,
            bias.n,
        ) {
            if kt <= bias.k_max {
                self.schedule[kt].push(id);
            }
        }
    }

    /// Schedules a node that just joined the run, if it is not biased.
    fn admit(&mut self, bias: &Bias, core: &Core<'_>, id: u32, k: usize) {
        if !bias.biased(core, id, k) {
            self.push(bias, core, id, k);
        }
    }
}

/// The under-representation engine. Each node's `Res`/`DRes` membership
/// is its word in `core.mark` ([`MARKED`] for `Res`, the designated
/// dominator for `DRes`): the walks and rescans test membership per
/// touched node with one index read.
pub(crate) struct LowerEngine<'a> {
    core: Core<'a>,
    bias: Bias,
    frontier: LowerFrontier,
    /// Buffers reused from step to step, so a steady-state step does not
    /// allocate: the transition candidates and the resumed search's
    /// stack.
    cands: Vec<u32>,
    stack: Vec<u32>,
}

impl<'a> LowerEngine<'a> {
    /// An engine for `measure` over `cfg`'s `τs` and `k` range.
    ///
    /// # Panics
    /// Panics if a proportional `α` is not positive.
    pub(crate) fn new(
        index: &'a RankedIndex,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        measure: BiasMeasure,
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
            },
            frontier: LowerFrontier {
                res: Vec::new(),
                dominates: FxHashMap::default(),
                schedule,
            },
            cands: Vec::new(),
            stack: Vec::new(),
        }
    }

    #[inline]
    fn is_biased(&self, id: u32, k: usize) -> bool {
        self.bias.biased(&self.core, id, k)
    }

    /// Where node `id` sits in `res`, or where it would be inserted.
    /// Patterns are interned once per arena, so pattern order is an order
    /// on ids.
    fn res_slot(&self, id: u32) -> Result<usize, usize> {
        let p = self.core.pattern(id);
        self.frontier
            .res
            .binary_search_by(|&r| self.core.pattern(r).cmp(p))
    }

    fn res_insert(&mut self, id: u32) {
        if let Err(i) = self.res_slot(id) {
            self.frontier.res.insert(i, id);
        }
    }

    fn res_remove(&mut self, id: u32) {
        if let Ok(i) = self.res_slot(id) {
            self.frontier.res.remove(i);
        }
    }

    fn expand(&mut self, id: u32, k: usize) {
        let (bias, frontier) = (&self.bias, &mut self.frontier);
        self.core
            .expand(id, k, |core, c| frontier.admit(bias, core, c, k));
    }

    /// Puts `d` in `DRes` designated to `dom`: its word becomes `dom`,
    /// and it joins `dom`'s list in the reverse index. Lists are
    /// append-mostly with lazily validated (possibly duplicate) entries;
    /// one is compacted in place — valid entries deduped, stale ones
    /// dropped — each time its length reaches a power of two from 16 on,
    /// so a node flip-flopping under a long-lived dominator cannot grow
    /// the list (and every checkpoint clone of it) without bound.
    fn designate(&mut self, d: u32, dom: u32) {
        self.core.mark[d as usize] = dom;
        let mark = &self.core.mark;
        let list = self.frontier.dominates.entry(dom).or_default();
        list.push(d);
        if list.len() >= 16 && list.len().is_power_of_two() {
            list.retain(|&x| mark[x as usize] == dom);
            list.sort_unstable();
            list.dedup();
        }
    }

    /// The first `res` member whose pattern is a subset of node `id`'s.
    fn dominator_of(&self, id: u32) -> Option<u32> {
        let p = self.core.pattern(id);
        self.frontier
            .res
            .iter()
            .copied()
            .find(|&r| self.core.may_be_subset(r, id) && self.core.pattern(r).is_subset_of(p))
    }

    /// Inserts a newly biased node into `Res`/`DRes`, demoting any `Res`
    /// members it dominates. Idempotent.
    fn add_stopped(&mut self, id: u32) {
        if self.core.marked(id) {
            return;
        }
        if let Some(dom) = self.dominator_of(id) {
            self.designate(id, dom);
        } else {
            let core = &self.core;
            let p = core.pattern(id);
            let mut demote: Vec<u32> = Vec::new();
            self.frontier.res.retain(|&r| {
                let dominated = core.may_be_subset(id, r) && p.is_proper_subset_of(core.pattern(r));
                if dominated {
                    demote.push(r);
                }
                !dominated
            });
            let mut mine: Vec<u32> = Vec::new();
            for r in demote {
                // Everything designated to `r` is also dominated by the
                // strictly more general `id` — re-point in O(designees).
                for d in self.frontier.dominates.remove(&r).unwrap_or_default() {
                    if self.core.mark[d as usize] == r {
                        self.core.mark[d as usize] = id;
                        mine.push(d);
                    }
                }
                self.core.mark[r as usize] = id;
                mine.push(r);
            }
            if !mine.is_empty() {
                self.frontier.dominates.entry(id).or_default().extend(mine);
            }
            self.res_insert(id);
            self.core.mark[id as usize] = MARKED;
        }
    }

    /// Removes a node that stopped being biased, promoting `DRes` members
    /// it was the last `Res` dominator of. Only the nodes *designated* to
    /// the removed member are candidates: every other dominated node has
    /// a designated dominator still in `res`, so it cannot have lost its
    /// last one. Candidates are processed most-general-first so a
    /// promoted pattern immediately dominates its own supersets.
    fn remove_stopped(&mut self, id: u32, k: usize) {
        // A dominator id settles the `DRes` case without a binary search.
        if std::mem::replace(&mut self.core.mark[id as usize], FREE) != MARKED {
            return;
        }
        self.res_remove(id);
        let mut cands = self.frontier.dominates.remove(&id).unwrap_or_default();
        cands.retain(|&d| self.core.mark[d as usize] == id);
        cands.sort_by_key(|&d| (self.core.pattern(d).len(), d));
        for d in cands {
            // Designation lists can hold duplicates (a node designated
            // here, moved away, then designated here again): re-check so a
            // second occurrence of an already promoted or re-designated
            // node is skipped — processing it again would self-designate a
            // fresh `res` member into `DRes`.
            if self.core.mark[d as usize] != id {
                continue;
            }
            // A candidate that flipped non-biased in this same round is
            // left for its own pending transition event (its dangling
            // designation dies when that event frees its word).
            if !self.is_biased(d, k) {
                continue;
            }
            if let Some(dom) = self.dominator_of(d) {
                self.designate(d, dom);
            } else {
                self.core.mark[d as usize] = MARKED;
                self.res_insert(d);
            }
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
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(id);
        let mut finished = true;
        while let Some(nid) = stack.pop() {
            if guard.expired() {
                finished = false;
                break;
            }
            self.expand(nid, k);
            for i in 0..self.core.children(nid).len() {
                let c = self.core.children(nid)[i];
                if c == PRUNED {
                    continue;
                }
                if self.is_biased(c, k) {
                    self.add_stopped(c);
                } else {
                    stack.push(c);
                }
            }
        }
        self.stack = stack;
        finished
    }

    /// Phase 1 of an incremental step: bump the count of every live node
    /// the newly ranked tuple satisfies, collecting nodes whose bias
    /// classification may flip.
    fn bump_entering(&mut self, k: usize, cands: &mut Vec<u32>) {
        let bias = &self.bias;
        self.core.walk(k - 1, true, |core, id| {
            if bias.flipped(core, id, k) {
                cands.push(id);
            }
        });
    }

    /// Phase 2 (proportional only): drain the `k̃` bucket for `k`. Stale
    /// entries (count grew since scheduling) are re-inserted at their
    /// recomputed `k̃`; genuine flips join the transition candidates.
    fn pop_schedule(&mut self, k: usize, cands: &mut Vec<u32>) {
        if self.frontier.schedule.is_empty() {
            return;
        }
        let bucket = std::mem::take(&mut self.frontier.schedule[k]);
        for id in bucket {
            self.core.stats.schedule_pops += 1;
            if !self.core.is_live(id) {
                continue;
            }
            let biased = self.is_biased(id, k);
            if biased != self.core.marked(id) {
                cands.push(id);
            }
            if !biased {
                self.frontier.push(&self.bias, &self.core, id, k);
            }
        }
    }

    /// Phase 3: apply bias transitions, most-general patterns first. The
    /// phases above may list a node twice (a walked node the schedule
    /// also flags); its second listing finds its membership already
    /// matching its verdict and changes nothing.
    fn apply_transitions(
        &mut self,
        k: usize,
        cands: &mut [u32],
        guard: &mut DeadlineGuard,
    ) -> bool {
        cands.sort_unstable_by_key(|&id| (self.core.pattern(id).len(), id));
        for &id in cands.iter() {
            let before = self.core.marked(id);
            let after = self.is_biased(id, k);
            if before && !after {
                self.remove_stopped(id, k);
                self.frontier.push(&self.bias, &self.core, id, k);
                if self.tree_minimal(id, k) && !self.resume_subtree(id, k, guard) {
                    return false;
                }
            } else if !before && after {
                self.add_stopped(id);
            }
        }
        true
    }
}

impl<'a> Incremental<'a> for LowerEngine<'a> {
    type Frontier = LowerFrontier;

    fn core(&self) -> &Core<'a> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core<'a> {
        &mut self.core
    }

    /// Full top-down build at `k`. Breadth-first so dominance sees subsets
    /// before supersets. With a populated arena the whole pass runs on
    /// prefix recounts — fresh evaluations happen only for never-seen
    /// patterns.
    fn build(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        self.core.stats.full_searches += 1;
        let (bias, frontier) = (&self.bias, &mut self.frontier);
        self.core
            .open_root(k, |core, c| frontier.admit(bias, core, c, k));
        let mut queue: VecDeque<u32> = self.core.arena.root_children.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if guard.expired() {
                return false;
            }
            if id == PRUNED {
                continue;
            }
            if self.is_biased(id, k) {
                self.add_stopped(id);
            } else {
                self.expand(id, k);
                queue.extend(self.core.children(id));
            }
        }
        true
    }

    /// One step `k−1 → k` under a fixed bound: walk the entering tuple,
    /// drain the `k̃` schedule, apply the transitions. Where Algorithm 2
    /// reruns the search at a change of `L_k` (lines 4–5), this hands the
    /// step to [`Incremental::repair`] with the entering tuple, in either
    /// direction; the results are the same.
    fn advance(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        if let BiasMeasure::GlobalLower(b) = &self.bias.measure {
            if b.at(k) != b.at(k - 1) {
                return self.repair(k, &[k - 1], &[], guard);
            }
        }
        let mut cands = std::mem::take(&mut self.cands);
        cands.clear();
        self.bump_entering(k, &mut cands);
        self.pop_schedule(k, &mut cands);
        let finished = self.apply_transitions(k, &mut cands, guard);
        self.cands = cands;
        finished
    }

    /// The ±count walks, then a reclassification of every live node
    /// (zero fresh evaluations) and the transitions, so counts and the
    /// bound may move either way.
    ///
    /// Correctness rests on an invariant the transitions keep in either
    /// direction: every live node that is not biased, and whose tree
    /// ancestors are all not biased, is open, so its children are live.
    /// A bulk change to counts or to the bound can bias some nodes, which
    /// needs no expansion. It can also unbias some, and `apply_transitions`
    /// resumes the search below each unbiased node that is tree-minimal,
    /// most general first. So every most general biased pattern — its
    /// tree ancestors are subsets, not biased and tree-minimal, hence open
    /// — is live after any change, up or down.
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
        let track = !self.frontier.schedule.is_empty();
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
        let mut cands = Vec::new();
        let bias = &self.bias;
        self.core.rescan(|core, id| {
            if bias.flipped(core, id, k) {
                cands.push(id);
            }
        });
        if !self.apply_transitions(k, &mut cands, guard) {
            return false;
        }
        // Refresh k̃ entries for every decremented, still-unbiased node:
        // its flip moved earlier, so the pre-repair entry alone could be
        // popped too late.
        for id in touched_down {
            if !self.core.marked(id) {
                self.frontier.push(&self.bias, &self.core, id, k);
            }
        }
        true
    }

    /// The current `Res` as sorted patterns.
    fn snapshot(&self, k: usize) -> KResult {
        let patterns: Vec<Pattern> = self
            .frontier
            .res
            .iter()
            .map(|&id| self.core.pattern(id).clone())
            .collect();
        KResult { k, patterns }
    }

    fn frontier(&self) -> &LowerFrontier {
        &self.frontier
    }

    fn frontier_mut(&mut self) -> &mut LowerFrontier {
        &mut self.frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::incremental::{replay_contract, Stream};
    use crate::stats::DetectionOutput;
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

    /// The lazy stream over the whole `k` range.
    fn stream<'a>(
        index: &'a RankedIndex,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        measure: BiasMeasure,
    ) -> Stream<LowerEngine<'a>> {
        Stream::new(LowerEngine::new(index, space, cfg, measure), cfg)
    }

    /// The batch run over the whole `k` range.
    fn batch(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        measure: BiasMeasure,
    ) -> DetectionOutput {
        stream(index, space, cfg, measure).into_output()
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
        // One initial build; the bound steps inside (2, 16] reclassify
        // the stored nodes instead.
        assert_eq!(opt.stats.full_searches, 1);
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

    /// The lower measures the replay contract runs on: a stepped and a
    /// per-`k`-changing global bound, and a proportional one.
    fn replay_measures() -> [BiasMeasure; 3] {
        [
            BiasMeasure::GlobalLower(Bounds::steps(vec![(2, 1), (6, 2), (10, 3)])),
            BiasMeasure::GlobalLower(Bounds::LinearFraction(0.3)),
            BiasMeasure::Proportional { alpha: 0.8 },
        ]
    }

    #[test]
    fn lower_replay_matches_batch_and_seeks_checkpoints() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for measure in replay_measures() {
            replay_contract::check_seeks(&cfg, &format!("{measure:?}"), || {
                LowerEngine::new(&index, &space, &cfg, measure.clone())
            });
        }
    }

    #[test]
    fn lower_replay_segmented_spans_match_batch() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for measure in replay_measures() {
            replay_contract::check_segments(&cfg, &format!("{measure:?}"), || {
                LowerEngine::new(&index, &space, &cfg, measure.clone())
            });
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

    #[test]
    fn stream_collect_equals_batch_global() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let bounds = Bounds::steps(vec![(2, 1), (6, 2), (10, 3)]);
        let measure = BiasMeasure::GlobalLower(bounds);
        let batch = batch(&index, &space, &cfg, measure.clone());
        let streamed: Vec<KResult> = stream(&index, &space, &cfg, measure.clone()).collect();
        assert_eq!(batch.per_k, streamed);
        assert_eq!(streamed, iter_td(&index, &space, &cfg, &measure).per_k);
    }

    #[test]
    fn stream_collect_equals_batch_proportional() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 3, 16);
        let measure = BiasMeasure::Proportional { alpha: 0.8 };
        let batch = batch(&index, &space, &cfg, measure.clone());
        let streamed: Vec<KResult> = stream(&index, &space, &cfg, measure).collect();
        assert_eq!(batch.per_k, streamed);
    }

    #[test]
    fn stream_is_lazy() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        let measure = BiasMeasure::Proportional { alpha: 0.8 };
        let mut stream = stream(&index, &space, &cfg, measure);
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
        let ks: Vec<usize> = stream(&index, &space, &cfg, measure)
            .take(3)
            .map(|kr| kr.k)
            .collect();
        assert_eq!(ks, vec![2, 3, 4]);
    }
}
