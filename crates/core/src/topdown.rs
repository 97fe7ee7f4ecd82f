//! Algorithm 1 (top-down search for a single `k`), the `IterTD`
//! baseline that applies it for every `k` in the range (§IV-A), and the
//! §III most-specific variant of the global lower-bound problem.

use std::collections::VecDeque;

use crate::bounds::BiasMeasure;
use crate::pattern::Pattern;
use crate::space::{AttrId, PatternSpace, RankedIndex};
use crate::stats::{DeadlineGuard, DetectConfig, DetectionOutput, KResult, SearchStats};

/// Outcome of one single-`k` top-down search.
#[derive(Debug, Clone)]
pub(crate) struct SingleK {
    /// Most general biased substantial patterns (the paper’s `Res`).
    pub res: Vec<Pattern>,
    /// Biased substantial patterns reached during the search that are
    /// dominated by a pattern in `res` (the paper’s `DRes`). The engine
    /// module maintains its own equivalent; this one documents Algorithm 1
    /// faithfully and is exercised by the Example 4.6 test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub dres: Vec<Pattern>,
    /// Whether the deadline fired mid-search (results incomplete).
    pub aborted: bool,
}

/// Runs Algorithm 1: a breadth-first top-down traversal of the search tree
/// (Definition 4.1) that stops expanding below size-pruned and biased
/// nodes.
///
/// Breadth-first order guarantees that when a pattern `p` is examined,
/// every *minimal* biased proper subset of `p` is already in `res` (subsets
/// live on strictly smaller levels and are never size-pruned, since `s_D`
/// is anti-monotone). The `update(Res, p)` of the paper therefore reduces
/// to a subset probe against `res`.
pub(crate) fn search_single_k(
    index: &RankedIndex,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    measure: &BiasMeasure,
    stats: &mut SearchStats,
    guard: &mut DeadlineGuard,
) -> SingleK {
    let n = index.n();
    let m = space.n_attrs() as AttrId;
    let mut res: Vec<Pattern> = Vec::new();
    let mut dres: Vec<Pattern> = Vec::new();
    let mut queue: VecDeque<Pattern> = VecDeque::new();
    // generateChildren({}): every single-term pattern.
    for a in 0..m {
        for v in space.value_codes(a) {
            queue.push_back(Pattern::single(a, v));
        }
    }
    while let Some(p) = queue.pop_front() {
        if guard.expired() {
            return SingleK {
                res,
                dres,
                aborted: true,
            };
        }
        let (sd, count) = index.counts(&p, k);
        stats.nodes_evaluated += 1;
        if sd < tau_s {
            continue; // s_D is anti-monotone: the whole subtree is pruned.
        }
        if measure.is_biased(count, sd, k, n) {
            if res.iter().any(|q| q.is_subset_of(&p)) {
                dres.push(p);
            } else {
                res.push(p);
            }
        } else {
            let start = p.max_attr().map_or(0, |a| a + 1);
            for a in start..m {
                for v in space.value_codes(a) {
                    queue.push_back(p.child(a, v));
                }
            }
        }
    }
    res.sort_unstable();
    dres.sort_unstable();
    SingleK {
        res,
        dres,
        aborted: false,
    }
}

/// The `IterTD` baseline (§IV-A): one full top-down search per `k`.
pub(crate) fn iter_td(
    index: &RankedIndex,
    space: &PatternSpace,
    cfg: &DetectConfig,
    measure: &BiasMeasure,
) -> DetectionOutput {
    let mut stats = SearchStats::default();
    let mut guard = DeadlineGuard::new(cfg.deadline);
    let mut per_k = Vec::with_capacity(cfg.range_len());
    for k in cfg.k_min..=cfg.k_max {
        let single = search_single_k(index, space, cfg.tau_s, k, measure, &mut stats, &mut guard);
        stats.full_searches += 1;
        if single.aborted {
            stats.timed_out = true;
            break;
        }
        per_k.push(KResult {
            k,
            patterns: single.res,
        });
    }
    stats.elapsed = guard.elapsed();
    DetectionOutput { per_k, stats }
}

/// Most **specific** substantial patterns below the global lower bound at
/// one `k` — the paper’s §III variant of Problem 3.1, the narrowest
/// descriptions of who is missing. For the global measure,
/// under-representation is superset-closed (supersets have counts at most
/// as large), so a biased substantial pattern is maximal exactly when
/// every single-term extension falls below `τs`.
pub fn lower_most_specific_single_k(
    index: &RankedIndex,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    lower: usize,
    stats: &mut SearchStats,
) -> Vec<Pattern> {
    let m = space.n_attrs() as AttrId;
    let mut qualifying: Vec<Pattern> = Vec::new();
    let mut stack: Vec<Pattern> = (0..m)
        .flat_map(|a| space.value_codes(a).map(move |v| Pattern::single(a, v)))
        .collect();
    while let Some(p) = stack.pop() {
        stats.nodes_evaluated += 1;
        let (sd, count) = index.counts(&p, k);
        if sd < tau_s {
            continue;
        }
        let start = p.max_attr().map_or(0, |a| a + 1);
        for a in start..m {
            for v in space.value_codes(a) {
                stack.push(p.child(a, v));
            }
        }
        if count < lower {
            qualifying.push(p);
        }
    }
    let mut maximal: Vec<Pattern> = qualifying
        .into_iter()
        .filter(|p| {
            // Maximal ⟺ no substantial 1-extension exists (any such
            // extension would inherit the bias by anti-monotonicity).
            for a in 0..m {
                if p.value_of(a).is_some() {
                    continue;
                }
                for v in space.value_codes(a) {
                    let mut terms = p.terms().to_vec();
                    terms.push((a, v));
                    let ext = Pattern::from_terms(terms).expect("attribute unused");
                    stats.nodes_evaluated += 1;
                    if index.size_in_data(&ext) >= tau_s {
                        return false;
                    }
                }
            }
            true
        })
        .collect();
    maximal.sort_unstable();
    maximal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::oracle;
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

    /// Algorithm 1's `Res` at one `k`.
    fn top_down(
        index: &RankedIndex,
        space: &PatternSpace,
        tau_s: usize,
        k: usize,
        measure: &BiasMeasure,
    ) -> Vec<Pattern> {
        let mut stats = SearchStats::default();
        let mut guard = DeadlineGuard::new(None);
        search_single_k(index, space, tau_s, k, measure, &mut stats, &mut guard).res
    }

    fn names(space: &PatternSpace, pats: &[Pattern]) -> Vec<String> {
        pats.iter().map(|p| space.display(p)).collect()
    }

    #[test]
    fn example_4_6_top_down_at_k4() {
        // τs = 4, k = 4, L = 2: Res[4] must contain {School=GP},
        // {Address=U}, {Failures=1} and {Failures=2}; DRes must contain the
        // four dominated two-term patterns listed in Example 4.6.
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(2));
        let mut stats = SearchStats::default();
        let mut guard = DeadlineGuard::new(None);
        let single = search_single_k(&index, &space, 4, 4, &measure, &mut stats, &mut guard);
        let res = names(&space, &single.res);
        assert!(res.contains(&"{School=GP}".to_string()));
        assert!(res.contains(&"{Address=U}".to_string()));
        assert!(res.contains(&"{Failures=1}".to_string()));
        assert!(res.contains(&"{Failures=2}".to_string()));
        // Example 4.6 lists its patterns “among others”; the other most
        // general biased patterns at k = 4 are the two below (both size 4,
        // one tuple in the top-4, and no biased subset).
        assert!(res.contains(&"{Gender=F, School=MS}".to_string()));
        assert!(res.contains(&"{Gender=F, Address=R}".to_string()));
        assert_eq!(res.len(), 6, "unexpected extra results: {res:?}");
        let dres = names(&space, &single.dres);
        for expected in [
            "{Gender=F, Address=U}",
            "{Gender=M, Address=U}",
            "{Gender=F, Failures=1}",
            "{Address=R, Failures=1}",
        ] {
            assert!(
                dres.contains(&expected.to_string()),
                "missing {expected} in {dres:?}"
            );
        }
    }

    #[test]
    fn example_4_6_top_down_at_k5() {
        // After adding tuple 14 (rank 5), {Address=U} and {Failures=1} are
        // no longer biased; {Address=U, Failures=1} and the four previously
        // dominated patterns become most general.
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(2));
        let res = names(&space, &top_down(&index, &space, 4, 5, &measure));
        let expected = [
            "{School=GP}",
            "{Failures=2}",
            "{Address=U, Failures=1}",
            "{Gender=F, Address=U}",
            "{Gender=M, Address=U}",
            "{Gender=F, Failures=1}",
            "{Address=R, Failures=1}",
            // Unaffected carry-overs from k = 4 (tuple 14 is male):
            "{Gender=F, School=MS}",
            "{Gender=F, Address=R}",
        ];
        for e in expected {
            assert!(res.contains(&e.to_string()), "missing {e} in {res:?}");
        }
        assert_eq!(res.len(), expected.len(), "unexpected extras: {res:?}");
    }

    #[test]
    fn example_4_9_proportional_at_k4_and_k5() {
        // τs = 5, α = 0.9: Res[4] = {School=GP}, {Address=U}, {Failures=1};
        // Res[5] additionally contains {Gender=F}.
        let (space, index) = fig1();
        let measure = BiasMeasure::Proportional { alpha: 0.9 };
        let res4 = names(&space, &top_down(&index, &space, 5, 4, &measure));
        assert_eq!(
            res4,
            vec!["{School=GP}", "{Address=U}", "{Failures=1}"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        let res5 = names(&space, &top_down(&index, &space, 5, 5, &measure));
        assert!(res5.contains(&"{Gender=F}".to_string()));
        assert!(res5.contains(&"{School=GP}".to_string()));
        assert!(res5.contains(&"{Address=U}".to_string()));
        assert!(res5.contains(&"{Failures=1}".to_string()));
        assert_eq!(res5.len(), 4, "unexpected extras: {res5:?}");
    }

    #[test]
    fn results_are_most_general_and_substantial() {
        let (space, index) = fig1();
        for tau in [1, 2, 4, 8] {
            for k in 1..=16 {
                let measure = BiasMeasure::GlobalLower(Bounds::constant(3));
                let res = top_down(&index, &space, tau, k, &measure);
                for p in &res {
                    let (sd, count) = index.counts(p, k);
                    assert!(sd >= tau);
                    assert!(measure.is_biased(count, sd, k, index.n()));
                }
                for a in &res {
                    for b in &res {
                        assert!(
                            a == b || !a.is_proper_subset_of(b),
                            "{} subsumes {}",
                            space.display(a),
                            space.display(b)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn iter_td_covers_whole_range() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(4, 4, 6);
        let out = iter_td(
            &index,
            &space,
            &cfg,
            &BiasMeasure::GlobalLower(Bounds::constant(2)),
        );
        assert_eq!(out.per_k.len(), 3);
        assert_eq!(out.per_k[0].k, 4);
        assert_eq!(out.stats.full_searches, 3);
        assert!(!out.stats.timed_out);
        assert!(out.stats.nodes_evaluated > 0);
    }

    #[test]
    fn iter_td_deadline_truncates() {
        let (space, index) = fig1();
        let cfg = DetectConfig::new(1, 1, 16).with_deadline(std::time::Duration::from_nanos(1));
        // Tiny search: may or may not hit the (1024-tick) deadline check,
        // but must never panic and must stay consistent.
        let out = iter_td(
            &index,
            &space,
            &cfg,
            &BiasMeasure::GlobalLower(Bounds::constant(2)),
        );
        assert!(out.per_k.len() <= 16);
        if out.per_k.len() < 16 {
            assert!(out.stats.timed_out);
        }
    }

    #[test]
    fn huge_lower_bound_returns_level_one_patterns() {
        // With L_k > k every pattern is biased; the most general ones are
        // exactly the substantial single-term patterns.
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(100));
        let res = top_down(&index, &space, 4, 5, &measure);
        assert!(res.iter().all(|p| p.len() == 1));
        let n_substantial_singletons: usize = (0..space.n_attrs() as u16)
            .map(|a| {
                (0..space.card(a) as u16)
                    .filter(|&v| index.size_in_data(&Pattern::single(a, v)) >= 4)
                    .count()
            })
            .sum();
        assert_eq!(res.len(), n_substantial_singletons);
    }

    #[test]
    fn zero_bound_returns_nothing() {
        let (space, index) = fig1();
        let measure = BiasMeasure::GlobalLower(Bounds::constant(0));
        assert!(top_down(&index, &space, 1, 5, &measure).is_empty());
    }

    #[test]
    fn lower_most_specific_matches_bruteforce() {
        let (space, index) = fig1();
        let ds = students_fig1();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let mut stats = SearchStats::default();
        for tau in [2, 4] {
            for k in [4, 8] {
                for l in [1, 2, 4] {
                    let got = lower_most_specific_single_k(&index, &space, tau, k, l, &mut stats);
                    let all = oracle::enumerate_substantial(&ds, &space, &ranking, tau);
                    let qualifying: Vec<&Pattern> = all
                        .iter()
                        .filter(|p| oracle::naive_counts(&ds, &space, &ranking, p, k).1 < l)
                        .collect();
                    let mut want: Vec<Pattern> = qualifying
                        .iter()
                        .filter(|p| !qualifying.iter().any(|q| p.is_proper_subset_of(q)))
                        .map(|p| (*p).clone())
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "tau={tau} k={k} l={l}");
                }
            }
        }
    }

    #[test]
    fn most_specific_results_are_substantial_and_maximal() {
        let (space, index) = fig1();
        let mut stats = SearchStats::default();
        let res = lower_most_specific_single_k(&index, &space, 4, 4, 2, &mut stats);
        assert!(!res.is_empty());
        for p in &res {
            assert!(index.size_in_data(p) >= 4);
        }
        for a in &res {
            for b in &res {
                assert!(a == b || !a.is_proper_subset_of(b));
            }
        }
    }
}
