//! The incremental over-representation engine: §III upper-bound detection
//! without the per-`k` rescan.
//!
//! The per-`k` searches in [`crate::upper`] re-run a fresh DFS plus
//! `O(m·card)` maximality probes at **every** `k` — exactly the cost
//! blow-up the paper's Algorithms 2–3 eliminate for the lower-bound
//! problems. This engine applies the same observation (Proposition 4.3:
//! consecutive top-`k` sets differ by one tuple) to the upper-bound side,
//! on the incremental core it shares with the lower engine
//! ([`crate::incremental`]: arena, subtree walk, checkpoints, replay).
//!
//! Qualification here is `s_D(p) ≥ τs ∧ s_Rk(p) > U_k`, which is
//! **subset-closed**: both counts are anti-monotone in specialization, so
//! a subset of a qualifying pattern qualifies. Between `k` values the
//! engine maintains:
//!
//! * **exact counts** — the core's root walk bumps every stored node the
//!   entering tuple satisfies (no dataset scans);
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

use crate::audit::OverRepScope;
use crate::bounds::Bounds;
use crate::incremental::{Core, Incremental};
use crate::pattern::Pattern;
use crate::space::{AttrId, CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, KResult};
use crate::util::FxHashSet;
use rankfair_data::ValueCode;

/// The upper engine's checkpointed frontier: the qualification flags and
/// the maximal frontier.
#[derive(Debug)]
pub(crate) struct UpperFrontier {
    qualified: Vec<bool>,
    maximal: FxHashSet<u32>,
}

/// The over-representation engine. `core.mark` holds each node's
/// qualification `s_D ≥ τs ∧ count > U_k` under the current `(k, U_k)`.
pub(crate) struct UpperEngine<'a, I: CountsProvider> {
    core: Core<'a, I>,
    upper: Bounds,
    scope: OverRepScope,
    /// Node ids of the maximal frontier (most-specific qualifying
    /// patterns). Unused for [`OverRepScope::MostGeneral`].
    maximal: FxHashSet<u32>,
}

/// Classifies a node that just joined the run under the bound `u`,
/// collecting it when it qualifies.
fn admit<I: CountsProvider>(core: &mut Core<'_, I>, id: u32, u: usize, fresh: &mut Vec<u32>) {
    let q = core.count(id) > u;
    core.mark[id as usize] = q;
    if q {
        fresh.push(id);
    }
}

impl<'a, I: CountsProvider> UpperEngine<'a, I> {
    /// An engine for the bound `upper` over `cfg`'s `τs`.
    pub(crate) fn new(
        index: &'a I,
        space: &'a PatternSpace,
        cfg: &DetectConfig,
        upper: Bounds,
        scope: OverRepScope,
    ) -> Self {
        UpperEngine {
            core: Core::new(index, space, cfg.tau_s),
            upper,
            scope,
            maximal: FxHashSet::default(),
        }
    }

    /// Phase 2: repair the tree closure. Every node in `fresh` (newly
    /// qualifying) is opened; stored children re-activate with prefix
    /// recounts, never-expanded nodes generate their children fresh and
    /// count them in one batched pass. Children that qualify under
    /// `(k, u)` join the worklist, so the closure grows to cover the whole
    /// new qualifying region. A node re-qualifying after a bound step is
    /// already open: its children are live and walked, and their own flips
    /// were collected independently.
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
            self.core.expand(id, k, |core, c| admit(core, c, u, fresh));
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
        let pattern = self.core.pattern(id).clone();
        let m = self.core.space.n_attrs() as AttrId;
        let mut ext: Vec<(AttrId, ValueCode)> = Vec::with_capacity(pattern.len() + 1);
        for a in 0..m {
            if pattern.value_of(a).is_some() {
                continue;
            }
            for v in self.core.space.value_codes(a) {
                if guard.expired() {
                    return None;
                }
                ext.clear();
                ext.extend_from_slice(pattern.terms());
                ext.push((a, v));
                ext.sort_unstable();
                let qualifies = match self.core.lookup(&ext) {
                    Some(eid) => {
                        self.core.stats.nodes_touched += 1;
                        !self.core.arena.pruned[eid as usize] && self.core.count(eid) > u
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
        let pattern = self.core.pattern(id);
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
                self.core
                    .lookup(&sub)
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
                if self.core.mark[sid as usize] && seen.insert(sid) {
                    cands.push(sid);
                }
            }
        }
        for id in cands {
            // A candidate already in the frontier kept its verdict: any
            // newly qualifying extension would have evicted it above.
            if !self.core.mark[id as usize] || self.maximal.contains(&id) {
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

    /// Closure repair plus frontier delta for the flips a step collected.
    fn settle(
        &mut self,
        mut fresh: Vec<u32>,
        lost: &[u32],
        k: usize,
        u: usize,
        guard: &mut DeadlineGuard,
    ) -> bool {
        if self.scope == OverRepScope::MostGeneral {
            return true;
        }
        self.cascade(&mut fresh, k, u, guard) && self.apply_frontier_delta(&fresh, lost, u, guard)
    }

    /// Reclassifies every live node under `(k, u)` after counts moved in
    /// bulk (a bound step, or a checkpoint repair), repairs the closure
    /// where the qualifying set grew, and applies the frontier delta with
    /// both gains and losses. Handles increasing *and* decreasing bounds;
    /// frontier probes stay confined to the flipped region, so even a
    /// bound that changes at every `k` keeps the engine incremental.
    fn reclassify_all(&mut self, k: usize, u: usize, guard: &mut DeadlineGuard) -> bool {
        let mut fresh = Vec::new();
        let mut lost = Vec::new();
        self.core.rescan(|core, id| {
            let q = core.count(id) > u;
            if q != core.mark[id as usize] {
                core.mark[id as usize] = q;
                if q {
                    fresh.push(id);
                } else {
                    lost.push(id);
                }
            }
        });
        self.settle(fresh, &lost, k, u, guard)
    }
}

impl<'a, I: CountsProvider> Incremental<'a> for UpperEngine<'a, I> {
    type Index = I;
    type Frontier = UpperFrontier;

    fn core(&self) -> &Core<'a, I> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core<'a, I> {
        &mut self.core
    }

    /// Initial build at the first `k`: bring the root level live, grow the
    /// closure over the qualifying set, compute the frontier (every
    /// qualifying node is "fresh", so the delta probes each exactly once).
    fn build(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        if guard.expired() {
            return false;
        }
        self.core.stats.full_searches += 1;
        let u = self.upper.at(k);
        let mut fresh = Vec::new();
        self.core
            .open_root(k, |core, c| admit(core, c, u, &mut fresh));
        self.settle(fresh, &[], k, u, guard)
    }

    /// One incremental step `k−1 → k`. With `U` fixed, counts only grow,
    /// so no node can stop qualifying: walk the new tuple's subtree
    /// flagging nodes that start qualifying, repair the closure, and apply
    /// the frontier delta. When the bound moved, bump counts, then
    /// reclassify the whole store.
    fn advance(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        if guard.expired() {
            return false;
        }
        let u = self.upper.at(k);
        if u != self.upper.at(k - 1) {
            self.core.walk(k - 1, true, |_, _| {});
            return self.reclassify_all(k, u, guard);
        }
        let mut fresh = Vec::new();
        self.core.walk(k - 1, true, |core, id| {
            if !core.mark[id as usize] && core.count(id) > u {
                core.mark[id as usize] = true;
                fresh.push(id);
            }
        });
        self.settle(fresh, &[], k, u, guard)
    }

    /// The ±count walks, then the bound-step reclassification, which
    /// already handles flips in both directions.
    fn repair(
        &mut self,
        k: usize,
        entering: &[usize],
        leaving: &[usize],
        guard: &mut DeadlineGuard,
    ) -> bool {
        for &pos in leaving {
            self.core.walk(pos, false, |_, _| {});
        }
        for &pos in entering {
            self.core.walk(pos, true, |_, _| {});
        }
        self.reclassify_all(k, self.upper.at(k), guard)
    }

    fn snapshot(&self, k: usize) -> KResult {
        let core = &self.core;
        let mut patterns: Vec<Pattern> = match self.scope {
            OverRepScope::MostSpecific => self
                .maximal
                .iter()
                .map(|&id| core.pattern(id).clone())
                .collect(),
            OverRepScope::MostGeneral => core
                .arena
                .root_children
                .iter()
                .filter(|&&id| core.mark[id as usize])
                .map(|&id| core.pattern(id).clone())
                .collect(),
        };
        patterns.sort_unstable();
        KResult { k, patterns }
    }

    fn frontier(&self) -> UpperFrontier {
        UpperFrontier {
            qualified: self.core.mark.clone(),
            maximal: self.maximal.clone(),
        }
    }

    fn set_frontier(&mut self, frontier: &UpperFrontier) {
        let n = self.core.mark.len();
        self.core.mark.clear();
        self.core.mark.extend_from_slice(&frontier.qualified);
        self.core.mark.resize(n, false);
        self.maximal = frontier.maximal.clone();
    }

    fn reset(&mut self) {
        self.core.reset();
        self.maximal.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{replay, Store, Stream};
    use crate::space::RankedIndex;
    use crate::stats::{DetectionOutput, ReplayCounters, SearchStats};
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

    /// The batch run over the whole `k` range.
    fn batch(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        upper: &Bounds,
        scope: OverRepScope,
    ) -> DetectionOutput {
        Stream::new(
            UpperEngine::new(index, space, cfg, upper.clone(), scope),
            cfg,
        )
        .into_output()
    }

    /// The monitor's checkpointed replay of the upper side.
    #[allow(clippy::too_many_arguments)]
    fn replayed(
        index: &RankedIndex,
        space: &PatternSpace,
        cfg: &DetectConfig,
        upper: &Bounds,
        scope: OverRepScope,
        spans: &[(usize, usize)],
        store: &mut Store<UpperFrontier>,
        cadence: usize,
        counters: &mut ReplayCounters,
    ) -> Vec<KResult> {
        let engine = UpperEngine::new(index, space, cfg, upper.clone(), scope);
        replay(engine, store, cfg.k_min, spans, None, cadence, counters).per_k
    }

    #[test]
    fn incremental_matches_per_k_search_on_fig1() {
        let (space, index) = fig1();
        for tau in [1, 2, 4] {
            for u in [0, 1, 2, 4] {
                for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
                    let cfg = DetectConfig::new(tau, 2, 16);
                    let per_k = batch(&index, &space, &cfg, &Bounds::constant(u), scope).per_k;
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
        let per_k = batch(&index, &space, &cfg, &bounds, OverRepScope::MostSpecific).per_k;
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
        let inc_stats = batch(
            &index,
            &space,
            &cfg,
            &Bounds::constant(2),
            OverRepScope::MostSpecific,
        )
        .stats;
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
                let want = batch(&index, &space, &cfg, &upper, scope).per_k;
                for cadence in [1usize, 4, 8] {
                    let mut store = Store::default();
                    let mut counters = ReplayCounters::default();
                    let full = replayed(
                        &index,
                        &space,
                        &cfg,
                        &upper,
                        scope,
                        &[(2, 16)],
                        &mut store,
                        cadence,
                        &mut counters,
                    );
                    assert_eq!(full, want, "{upper:?} {scope:?} cadence {cadence}");
                    assert_eq!(counters.cold_builds, 1);
                    assert!(store.snaps.windows(2).all(|w| w[0].k < w[1].k));
                    let mut counters = ReplayCounters::default();
                    let sub = replayed(
                        &index,
                        &space,
                        &cfg,
                        &upper,
                        scope,
                        &[(10, 14)],
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
            let want = batch(&index, &space, &cfg, &upper, scope).per_k;
            for cadence in [1usize, 3, 8] {
                let mut store = Store::default();
                let mut counters = ReplayCounters::default();
                let full = replayed(
                    &index,
                    &space,
                    &cfg,
                    &upper,
                    scope,
                    &[(2, 16)],
                    &mut store,
                    cadence,
                    &mut counters,
                );
                assert_eq!(full, want);
                // Two disjoint segments of the same range replay only the
                // four spanned ks (plus catch-up), and match the batch run
                // value-for-value.
                let mut counters = ReplayCounters::default();
                let got = replayed(
                    &index,
                    &space,
                    &cfg,
                    &upper,
                    scope,
                    &[(4, 5), (12, 13)],
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
        let out = batch(
            &index,
            &space,
            &cfg,
            &Bounds::constant(1),
            OverRepScope::MostSpecific,
        );
        assert!(out.per_k.is_empty());
        assert!(out.stats.timed_out);
    }
}
