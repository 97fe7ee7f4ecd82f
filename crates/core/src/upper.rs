//! Upper-bound detection: the paper’s §III “Upper bounds” extension.
//!
//! For the lower-bound problems the *most general* biased patterns are the
//! informative ones; for upper bounds it is the other way around: “if the
//! number of black females is above the upper bound, then so is the number
//! of blacks and the number of females” — over-representation is closed
//! under taking subsets. The informative answer is therefore the **most
//! specific** substantial patterns exceeding the bound: patterns `p` with
//! `s_D(p) ≥ τs` and `s_Rk(p) > U_k` such that no proper superset also
//! qualifies.
//!
//! Because the qualifying set is subset-closed, maximality can be decided
//! locally: `p` is maximal iff no single-term extension of `p` qualifies.

use crate::bounds::Bounds;
use crate::pattern::Pattern;
use crate::space::{AttrId, CountsProvider, PatternSpace};
use crate::stats::{DeadlineGuard, DetectConfig, DetectionOutput, KResult, SearchStats};

fn qualifies<I: CountsProvider>(
    index: &I,
    tau_s: usize,
    k: usize,
    u: usize,
    p: &Pattern,
) -> (bool, usize) {
    let (sd, count) = index.counts(p, k);
    (sd >= tau_s && count > u, sd)
}

/// Most specific substantial patterns whose top-`k` count exceeds `U_k`,
/// for a single `k`.
pub fn upper_most_specific_single_k<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    upper: usize,
    stats: &mut SearchStats,
) -> Vec<Pattern> {
    let mut guard = DeadlineGuard::new(None);
    upper_most_specific_single_k_guarded(index, space, tau_s, k, upper, stats, &mut guard)
        .expect("a guard without a deadline never expires")
}

/// [`upper_most_specific_single_k`] with a cooperative deadline: the DFS
/// and the maximality sweep both poll `guard`, so even a single-`k` search
/// over a large pattern space truncates promptly. Returns `None` on
/// expiry.
pub(crate) fn upper_most_specific_single_k_guarded<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    upper: usize,
    stats: &mut SearchStats,
    guard: &mut DeadlineGuard,
) -> Option<Vec<Pattern>> {
    let m = space.n_attrs() as AttrId;
    // Depth-first enumeration of the (subset-closed) qualifying set.
    let mut qualifying: Vec<Pattern> = Vec::new();
    let mut stack: Vec<Pattern> = (0..m)
        .flat_map(|a| space.value_codes(a).map(move |v| Pattern::single(a, v)))
        .collect();
    while let Some(p) = stack.pop() {
        if guard.expired() {
            return None;
        }
        stats.nodes_evaluated += 1;
        let (ok, _) = qualifies(index, tau_s, k, upper, &p);
        if !ok {
            continue;
        }
        let start = p.max_attr().map_or(0, |a| a + 1);
        for a in start..m {
            for v in space.value_codes(a) {
                stack.push(p.child(a, v));
            }
        }
        qualifying.push(p);
    }
    // Maximality: no one-term extension (over *any* unused attribute, not
    // just larger-indexed ones) qualifies.
    let mut maximal: Vec<Pattern> = Vec::new();
    'outer: for p in qualifying {
        for a in 0..m {
            if p.value_of(a).is_some() {
                continue;
            }
            for v in space.value_codes(a) {
                if guard.expired() {
                    return None;
                }
                let mut terms = p.terms().to_vec();
                terms.push((a, v));
                let ext = Pattern::from_terms(terms).expect("attribute unused");
                stats.nodes_evaluated += 1;
                if qualifies(index, tau_s, k, upper, &ext).0 {
                    continue 'outer;
                }
            }
        }
        maximal.push(p);
    }
    maximal.sort_unstable();
    Some(maximal)
}

/// Upper-bound detection over a `k` range: for each `k`, the most specific
/// substantial patterns with `s_Rk(p) > U_k`.
///
/// This is the **per-`k` rescan**: every `k` pays a fresh DFS plus the
/// full maximality sweep. [`crate::Audit::run`] with `Engine::Optimized`
/// uses the incremental upper engine instead; this function remains as the
/// free-standing API and the differential/benchmark anchor for it.
///
/// Honors [`DetectConfig::deadline`], checking it *inside* each single-`k`
/// search: a run that exceeds the budget truncates to the completed `k`
/// values and sets [`SearchStats::timed_out`].
pub fn upper_most_specific<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    cfg: &DetectConfig,
    upper: &Bounds,
) -> DetectionOutput {
    assert!(cfg.k_max <= index.n(), "k_max exceeds the ranked tuples");
    let mut stats = SearchStats::default();
    let mut guard = DeadlineGuard::new(cfg.deadline);
    let mut per_k = Vec::with_capacity(cfg.range_len());
    for k in cfg.k_min..=cfg.k_max {
        stats.full_searches += 1;
        match upper_most_specific_single_k_guarded(
            index,
            space,
            cfg.tau_s,
            k,
            upper.at(k),
            &mut stats,
            &mut guard,
        ) {
            Some(patterns) => per_k.push(KResult { k, patterns }),
            None => {
                stats.timed_out = true;
                break;
            }
        }
    }
    stats.elapsed = guard.elapsed();
    DetectionOutput { per_k, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::space::RankedIndex;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_data::Dataset;
    use rankfair_rank::Ranking;

    fn fig1() -> (Dataset, PatternSpace, Ranking, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (ds, space, ranking, index)
    }

    /// Brute-force reference for the upper problem.
    fn oracle_upper(
        ds: &Dataset,
        space: &PatternSpace,
        ranking: &Ranking,
        tau: usize,
        k: usize,
        u: usize,
    ) -> Vec<Pattern> {
        let all = oracle::enumerate_substantial(ds, space, ranking, tau);
        let qualifying: Vec<&Pattern> = all
            .iter()
            .filter(|p| oracle::naive_counts(ds, space, ranking, p, k).1 > u)
            .collect();
        let mut maximal: Vec<Pattern> = qualifying
            .iter()
            .filter(|p| !qualifying.iter().any(|q| p.is_proper_subset_of(q)))
            .map(|p| (*p).clone())
            .collect();
        maximal.sort_unstable();
        maximal
    }

    #[test]
    fn upper_matches_oracle_on_fig1() {
        let (ds, space, ranking, index) = fig1();
        let mut stats = SearchStats::default();
        for tau in [1, 2, 4] {
            for k in [3, 5, 8, 16] {
                for u in [0, 1, 2, 4] {
                    let got = upper_most_specific_single_k(&index, &space, tau, k, u, &mut stats);
                    let want = oracle_upper(&ds, &space, &ranking, tau, k, u);
                    assert_eq!(got, want, "tau={tau} k={k} u={u}");
                }
            }
        }
    }

    #[test]
    fn over_represented_groups_exceed_bound_and_are_maximal() {
        let (_ds, space, _ranking, index) = fig1();
        let mut stats = SearchStats::default();
        let res = upper_most_specific_single_k(&index, &space, 2, 5, 2, &mut stats);
        assert!(!res.is_empty());
        for p in &res {
            let (sd, count) = index.counts(p, 5);
            assert!(sd >= 2 && count > 2, "{}", space.display(p));
        }
        for a in &res {
            for b in &res {
                assert!(a == b || !a.is_proper_subset_of(b));
            }
        }
    }

    #[test]
    fn impossible_upper_bound_returns_nothing() {
        let (_ds, space, _ranking, index) = fig1();
        let mut stats = SearchStats::default();
        assert!(upper_most_specific_single_k(&index, &space, 1, 5, 5, &mut stats).is_empty());
    }

    #[test]
    fn upper_range_honors_deadline() {
        // Regression: `upper_most_specific` used to ignore `cfg.deadline`
        // entirely — a deadline-bound run never stopped and never set
        // `stats.timed_out`. The guard is polled *inside* the single-`k`
        // search, so even the first `k` truncates under a zero budget.
        let (_ds, space, _ranking, index) = fig1();
        let cfg = DetectConfig::new(1, 2, 16).with_deadline(std::time::Duration::ZERO);
        let out = upper_most_specific(&index, &space, &cfg, &Bounds::constant(1));
        assert!(out.stats.timed_out);
        assert!(out.per_k.is_empty());
        // Without a deadline the same run completes and is exact.
        let full = upper_most_specific(
            &index,
            &space,
            &DetectConfig::new(1, 2, 16),
            &Bounds::constant(1),
        );
        assert!(!full.stats.timed_out);
        assert_eq!(full.per_k.len(), 15);
    }
}

/// Most **general** patterns exceeding the upper bound — the paper’s other
/// §III variant. Over-representation (`s_Rk > U_k`) is subset-closed
/// (subsets have larger counts), so the minimal patterns are found by the
/// same breadth-first dominance search the lower-bound problem uses, with
/// the predicate flipped: expansion stops at qualifying nodes.
pub fn upper_most_general_single_k<I: CountsProvider>(
    index: &I,
    space: &PatternSpace,
    tau_s: usize,
    k: usize,
    upper: usize,
    stats: &mut SearchStats,
) -> Vec<Pattern> {
    let m = space.n_attrs() as AttrId;
    let mut res: Vec<Pattern> = Vec::new();
    let mut queue: std::collections::VecDeque<Pattern> = (0..m)
        .flat_map(|a| space.value_codes(a).map(move |v| Pattern::single(a, v)))
        .collect();
    while let Some(p) = queue.pop_front() {
        stats.nodes_evaluated += 1;
        let (sd, count) = index.counts(&p, k);
        if sd < tau_s {
            continue;
        }
        if count > upper {
            if !res.iter().any(|q| q.is_subset_of(&p)) {
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
    res
}

/// Most **specific** substantial patterns below the global lower bound —
/// the paper’s remaining §III variant. For the global measure,
/// under-representation is superset-closed (supersets have counts at most
/// as large), so a biased substantial pattern is maximal exactly when
/// every single-term extension falls below `τs`.
pub fn lower_most_specific_single_k<I: CountsProvider>(
    index: &I,
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
mod variant_tests {
    use super::*;
    use crate::oracle;
    use crate::space::RankedIndex;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_data::Dataset;
    use rankfair_rank::Ranking;

    fn fig1() -> (Dataset, PatternSpace, Ranking, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (ds, space, ranking, index)
    }

    #[test]
    fn upper_most_general_matches_bruteforce() {
        let (ds, space, ranking, index) = fig1();
        let mut stats = SearchStats::default();
        for tau in [1, 3] {
            for k in [4, 8, 16] {
                for u in [0, 1, 3] {
                    let got = upper_most_general_single_k(&index, &space, tau, k, u, &mut stats);
                    let all = oracle::enumerate_substantial(&ds, &space, &ranking, tau);
                    let qualifying: Vec<&Pattern> = all
                        .iter()
                        .filter(|p| oracle::naive_counts(&ds, &space, &ranking, p, k).1 > u)
                        .collect();
                    let mut want: Vec<Pattern> = qualifying
                        .iter()
                        .filter(|p| !qualifying.iter().any(|q| q.is_proper_subset_of(p)))
                        .map(|p| (*p).clone())
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "tau={tau} k={k} u={u}");
                }
            }
        }
    }

    #[test]
    fn lower_most_specific_matches_bruteforce() {
        let (ds, space, ranking, index) = fig1();
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
        let (_ds, space, _ranking, index) = fig1();
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
