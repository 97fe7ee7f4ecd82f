//! The incremental over-representation engine: §III upper-bound detection
//! without the per-`k` rescan.
//!
//! A per-`k` search would re-run a fresh DFS plus `O(m·card)` maximality
//! probes at **every** `k` — exactly the cost blow-up the paper's
//! Algorithms 2–3 eliminate for the lower-bound problems. This engine
//! applies the same observation (Proposition 4.3: consecutive top-`k`
//! sets differ by one tuple) to the upper-bound side, on the incremental
//! core it shares with the lower engine ([`crate::incremental`]: arena,
//! subtree walk, checkpoints, replay).
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
//!   the newly qualifying nodes** — not on the whole qualifying set as a
//!   per-`k` search would. Probes read stored nodes exclusively: an
//!   extension outside the live closure has a non-qualifying (unopened)
//!   prefix, so by subset-closure it cannot qualify — no probe ever costs
//!   a fresh pattern evaluation.
//!
//! On an upper-bound step (`U_k ≠ U_{k-1}`) nodes can flip in both
//! directions, so the step goes to `repair` with the entering tuple, the
//! same pass a monitor runs on a checkpoint an edit swallowed: it
//! reclassifies the whole live store — a store rescan with zero fresh
//! evaluations, not a from-scratch rebuild — expands any newly qualifying
//! region, and applies the same frontier delta with the *lost* nodes
//! folded in: a lost node leaves the frontier, and its still-qualifying
//! one-term subsets (for which it may have been the last qualifying
//! blocker) join the probe candidates.
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
use crate::incremental::{Core, Incremental, FREE, MARKED, PRUNED, ROOT};
use crate::pattern::Pattern;
use crate::space::{AttrId, PatternSpace, RankedIndex};
use crate::stats::{DeadlineGuard, DetectConfig, KResult};
use crate::util::FxHashSet;

/// The over-representation engine. A node's word in `core.mark` is its
/// qualification `s_D ≥ τs ∧ count > U_k` under the current `(k, U_k)`:
/// [`MARKED`] or [`FREE`]. Its frontier, cloned whole into a checkpoint,
/// is the maximal set alone.
pub(crate) struct UpperEngine<'a> {
    core: Core<'a>,
    upper: Bounds,
    scope: OverRepScope,
    /// Node ids of the maximal frontier (most-specific qualifying
    /// patterns). Unused for [`OverRepScope::MostGeneral`].
    maximal: FxHashSet<u32>,
}

/// Classifies a node that just joined the run under the bound `u`,
/// collecting it when it qualifies.
fn admit(core: &mut Core<'_>, id: u32, u: usize, fresh: &mut Vec<u32>) {
    let q = core.count(id) > u;
    core.mark[id as usize] = if q { MARKED } else { FREE };
    if q {
        fresh.push(id);
    }
}

impl<'a> UpperEngine<'a> {
    /// An engine for the bound `upper` over `cfg`'s `τs`.
    pub(crate) fn new(
        index: &'a RankedIndex,
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
    /// evaluations: a missing node means some tree prefix of the
    /// extension is unopened, i.e. non-qualifying, and qualification is
    /// subset-closed, so the extension cannot qualify either. Returns
    /// `None` on deadline expiry.
    fn probe_maximal(&mut self, id: u32, u: usize, guard: &mut DeadlineGuard) -> Option<bool> {
        let core = &self.core;
        let terms = core.pattern(id).terms();
        let m = core.space.n_attrs() as AttrId;
        let mut touched = 0;
        // The extension by `a = v` is `terms[..slot]`, then `a = v`, then
        // `terms[slot..]`. `prefix` is the node of `terms[..slot]`, an
        // ancestor of `id` (or `id` itself): its children binding `a` are
        // where every extension by `a` branches off.
        let mut slot = 0;
        let mut prefix = Some(ROOT);
        let verdict = 'probe: {
            for a in 0..m {
                if let Some(&term) = terms.get(slot).filter(|&&(b, _)| b == a) {
                    prefix = prefix.and_then(|p| core.descend(p, [term]));
                    slot += 1;
                    continue;
                }
                let branches = prefix.and_then(|p| core.children_binding(p, a));
                for v in core.space.value_codes(a) {
                    if guard.expired() {
                        break 'probe None;
                    }
                    let ext = branches.and_then(|row| {
                        core.descend(row[usize::from(v)], terms[slot..].iter().copied())
                    });
                    if let Some(eid) = ext {
                        touched += 1;
                        if eid != PRUNED && core.count(eid) > u {
                            break 'probe Some(false);
                        }
                    }
                }
            }
            Some(true)
        };
        self.core.stats.nodes_touched += touched;
        verdict
    }

    /// The one-term-deletion subsets of a stored node's pattern, last
    /// term dropped first (none for single-term patterns, whose only
    /// subset is the never-reported empty pattern), resolved to node ids.
    /// The subsets of
    /// a pattern that qualifies — or qualified before this step — are
    /// always live and reachable, hence the `expect`.
    fn one_term_subset_ids<'c>(core: &'c Core<'a>, id: u32) -> impl Iterator<Item = u32> + 'c {
        let terms = core.pattern(id).terms();
        let subsets = if terms.len() < 2 { 0 } else { terms.len() };
        // Dropping `terms[i]` keeps the ancestor of `terms[..i]` and
        // re-attaches `terms[i + 1..]` below it: walk up from `id`.
        let mut ancestor = id;
        (0..subsets).rev().map(move |drop_i| {
            ancestor = core.arena.nodes[ancestor as usize].parent;
            core.descend(ancestor, terms[drop_i + 1..].iter().copied())
                // lint:allow(panic-reachability) -- closure invariant: every one-term subset of a stored pattern is itself stored; the expect is the loud invariant check
                .expect("one-term subsets of a qualifying pattern are stored")
        })
    }

    /// Applies the frontier delta once a step has finalized every node's
    /// qualification word and repaired the closure. `fresh` holds the
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
            for sid in Self::one_term_subset_ids(&self.core, id) {
                self.maximal.remove(&sid);
            }
        }
        // Each candidate's probe reads only counts and words, so the order
        // they are probed in does not matter; a duplicate is probed once.
        let mut merged: Vec<u32> = Vec::new();
        let cands = if lost.is_empty() {
            fresh
        } else {
            merged.extend_from_slice(fresh);
            for &id in lost {
                for sid in Self::one_term_subset_ids(&self.core, id) {
                    if self.core.marked(sid) {
                        merged.push(sid);
                    }
                }
            }
            merged.sort_unstable();
            merged.dedup();
            &merged
        };
        for &id in cands {
            // A candidate already in the frontier kept its verdict: any
            // newly qualifying extension would have evicted it above.
            if !self.core.marked(id) || self.maximal.contains(&id) {
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
}

impl<'a> Incremental<'a> for UpperEngine<'a> {
    type Frontier = FxHashSet<u32>;

    fn core(&self) -> &Core<'a> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut Core<'a> {
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
    /// the frontier delta. A step where the bound moved goes to
    /// [`Incremental::repair`] with the entering tuple.
    fn advance(&mut self, k: usize, guard: &mut DeadlineGuard) -> bool {
        if guard.expired() {
            return false;
        }
        let u = self.upper.at(k);
        if u != self.upper.at(k - 1) {
            return self.repair(k, &[k - 1], &[], guard);
        }
        let mut fresh = Vec::new();
        self.core.walk(k - 1, true, |core, id| {
            if !core.marked(id) && core.count(id) > u {
                core.mark[id as usize] = MARKED;
                fresh.push(id);
            }
        });
        self.settle(fresh, &[], k, u, guard)
    }

    /// The ±count walks, then a reclassification of every live node under
    /// `(k, U_k)` with zero fresh evaluations: repairs the closure where
    /// the qualifying set grew and applies the frontier delta with both
    /// gains and losses. Handles counts and bounds that move either way;
    /// frontier probes stay confined to the flipped region, so even a
    /// bound that changes at every `k` keeps the engine incremental.
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
        let u = self.upper.at(k);
        let mut fresh = Vec::new();
        let mut lost = Vec::new();
        self.core.rescan(|core, id| {
            let q = core.count(id) > u;
            if q != core.marked(id) {
                core.mark[id as usize] = if q { MARKED } else { FREE };
                if q {
                    fresh.push(id);
                } else {
                    lost.push(id);
                }
            }
        });
        self.settle(fresh, &lost, k, u, guard)
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
                .filter(|&&id| id != PRUNED && core.marked(id))
                .map(|&id| core.pattern(id).clone())
                .collect(),
        };
        patterns.sort_unstable();
        KResult { k, patterns }
    }

    fn frontier(&self) -> &FxHashSet<u32> {
        &self.maximal
    }

    fn frontier_mut(&mut self) -> &mut FxHashSet<u32> {
        &mut self.maximal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{replay_contract, Stream};
    use crate::oracle;
    use crate::stats::DetectionOutput;
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

    /// A one-term subset shared by several lost nodes is probed once:
    /// listing a lost node twice costs no extra probe work.
    #[test]
    fn a_shared_subset_of_lost_nodes_is_probed_once() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(1, 2, 16);
        let (k, u) = (12, 1);
        let built = || {
            let mut engine = UpperEngine::new(
                &index,
                &space,
                &cfg,
                Bounds::constant(u),
                OverRepScope::MostSpecific,
            );
            assert!(engine.build(k, &mut DeadlineGuard::new(None)));
            engine
        };
        // A qualifying two-term node: its subsets qualify and, with it
        // qualifying, none of them is maximal, so each probe runs in full.
        let engine = built();
        let lost = (0..u32::try_from(engine.core.arena.len()).unwrap())
            .find(|&id| engine.core.marked(id) && engine.core.pattern(id).len() == 2)
            .expect("fig1 has a qualifying two-term group");
        let touched = |lost: &[u32]| {
            let mut engine = built();
            let before = engine.core.stats.nodes_touched;
            assert!(engine.apply_frontier_delta(&[], lost, u, &mut DeadlineGuard::new(None)));
            engine.core.stats.nodes_touched - before
        };
        let once = touched(&[lost]);
        assert!(once > 0);
        assert_eq!(touched(&[lost, lost]), once);
    }

    #[test]
    fn incremental_matches_per_k_search_on_fig1() {
        let (space, index) = fig1();
        let ds = students_fig1();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        for tau in [1, 2, 4] {
            let substantial = oracle::enumerate_substantial(&ds, &space, &ranking, tau);
            for u in [0, 1, 2, 4] {
                for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
                    let cfg = DetectConfig::new(tau, 2, 16);
                    let per_k = batch(&index, &space, &cfg, &Bounds::constant(u), scope).per_k;
                    assert_eq!(per_k.len(), 15);
                    for kr in &per_k {
                        let mut guard = DeadlineGuard::new(None);
                        let want = oracle::oracle_over(
                            &ds,
                            &space,
                            &ranking,
                            &substantial,
                            kr.k,
                            u,
                            scope,
                            &mut guard,
                        );
                        assert_eq!(
                            Some(&kr.patterns),
                            want.as_ref(),
                            "tau={tau} u={u} k={} {scope:?}",
                            kr.k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_per_k_search_across_bound_steps() {
        let (space, index) = fig1();
        let ds = students_fig1();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        // Includes an increasing and a decreasing step, exercising the
        // store-rescan path in both directions.
        let bounds = Bounds::steps(vec![(0, 1), (6, 3), (11, 2)]);
        let cfg = DetectConfig::new(2, 2, 16);
        let substantial = oracle::enumerate_substantial(&ds, &space, &ranking, 2);
        for scope in [OverRepScope::MostSpecific, OverRepScope::MostGeneral] {
            let per_k = batch(&index, &space, &cfg, &bounds, scope).per_k;
            assert_eq!(per_k.len(), 15);
            for kr in &per_k {
                let mut guard = DeadlineGuard::new(None);
                let want = oracle::oracle_over(
                    &ds,
                    &space,
                    &ranking,
                    &substantial,
                    kr.k,
                    bounds.at(kr.k),
                    scope,
                    &mut guard,
                );
                assert_eq!(Some(&kr.patterns), want.as_ref(), "k={} {scope:?}", kr.k);
            }
        }
    }

    #[test]
    fn incremental_evaluates_fewer_nodes_than_fresh_single_k_runs() {
        let (space, index) = fig1();
        let upper = Bounds::constant(2);
        let scope = OverRepScope::MostSpecific;
        let inc = batch(&index, &space, &DetectConfig::new(2, 2, 16), &upper, scope);
        let mut fresh_evals = 0;
        for kr in &inc.per_k {
            let fresh = batch(
                &index,
                &space,
                &DetectConfig::new(2, kr.k, kr.k),
                &upper,
                scope,
            );
            assert_eq!(fresh.per_k, std::slice::from_ref(kr));
            fresh_evals += fresh.stats.nodes_evaluated;
        }
        assert_eq!(inc.per_k.len(), 15);
        assert!(
            inc.stats.nodes_evaluated < fresh_evals,
            "incremental {} >= fresh single-k runs {fresh_evals}",
            inc.stats.nodes_evaluated,
        );
    }

    /// The upper bounds and scopes the replay contract runs on: a
    /// per-`k`-changing and a stepped bound, each at both scopes.
    fn replay_cases() -> Vec<(Bounds, OverRepScope)> {
        let bounds = [
            Bounds::LinearFraction(0.4),
            Bounds::steps(vec![(0, 1), (6, 3), (11, 2)]),
        ];
        let scopes = [OverRepScope::MostSpecific, OverRepScope::MostGeneral];
        bounds
            .iter()
            .flat_map(|b| scopes.map(|scope| (b.clone(), scope)))
            .collect()
    }

    #[test]
    fn upper_replay_matches_batch_and_seeks_checkpoints() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for (upper, scope) in replay_cases() {
            replay_contract::check_seeks(&cfg, &format!("{upper:?} {scope:?}"), || {
                UpperEngine::new(&index, &space, &cfg, upper.clone(), scope)
            });
        }
    }

    #[test]
    fn upper_replay_segmented_spans_match_batch() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(2, 2, 16);
        for (upper, scope) in replay_cases() {
            replay_contract::check_segments(&cfg, &format!("{upper:?} {scope:?}"), || {
                UpperEngine::new(&index, &space, &cfg, upper.clone(), scope)
            });
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
