//! Brute-force reference implementation used as a differential-testing
//! oracle.
//!
//! Everything here is deliberately written on a different code path from
//! the production algorithms: counting scans rows naively (no bitmaps),
//! enumeration materializes *all* substantial patterns up front, and
//! minimality is a quadratic pairwise filter. Exponential — only for small
//! test instances.

use rankfair_data::Dataset;
use rankfair_rank::Ranking;

use crate::audit::OverRepScope;
use crate::bounds::BiasMeasure;
use crate::pattern::Pattern;
use crate::space::{AttrId, PatternSpace};
use crate::stats::{DeadlineGuard, KResult};

/// Counts `(s_D(p), s_Rk(p))` by scanning rows (no bitmaps).
pub fn naive_counts(
    ds: &Dataset,
    space: &PatternSpace,
    ranking: &Ranking,
    p: &Pattern,
    k: usize,
) -> (usize, usize) {
    let matches = |row: usize| p.matches(|a| ds.code(row, space.dataset_col(a)));
    let sd = (0..ds.n_rows()).filter(|&r| matches(r)).count();
    let srk = ranking
        .top_k(k)
        .iter()
        .filter(|&&r| matches(r as usize))
        .count();
    (sd, srk)
}

/// Enumerates every non-empty pattern with `s_D(p) ≥ τs`, using only the
/// anti-monotonicity of `s_D` for pruning.
pub fn enumerate_substantial(
    ds: &Dataset,
    space: &PatternSpace,
    ranking: &Ranking,
    tau_s: usize,
) -> Vec<Pattern> {
    let mut out = Vec::new();
    let m = space.n_attrs() as AttrId;
    let mut stack: Vec<Pattern> = (0..m)
        .flat_map(|a| space.value_codes(a).map(move |v| Pattern::single(a, v)))
        .collect();
    while let Some(p) = stack.pop() {
        let (sd, _) = naive_counts(ds, space, ranking, &p, 0);
        if sd < tau_s {
            continue;
        }
        let start = p.max_attr().map_or(0, |a| a + 1);
        for a in start..m {
            for v in space.value_codes(a) {
                stack.push(p.child(a, v));
            }
        }
        out.push(p);
    }
    out
}

/// Reference detection: for each `k`, all most general substantial biased
/// patterns, computed by full enumeration + quadratic minimality filter.
pub fn detect(
    ds: &Dataset,
    space: &PatternSpace,
    ranking: &Ranking,
    tau_s: usize,
    k_min: usize,
    k_max: usize,
    measure: &BiasMeasure,
) -> Vec<KResult> {
    let n = ds.n_rows();
    let substantial = enumerate_substantial(ds, space, ranking, tau_s);
    let mut per_k = Vec::with_capacity(k_max - k_min + 1);
    for k in k_min..=k_max {
        let biased: Vec<&Pattern> = substantial
            .iter()
            .filter(|p| {
                let (sd, count) = naive_counts(ds, space, ranking, p, k);
                measure.is_biased(count, sd, k, n)
            })
            .collect();
        let mut patterns: Vec<Pattern> = biased
            .iter()
            .filter(|p| !biased.iter().any(|q| q.is_proper_subset_of(p)))
            .map(|p| (*p).clone())
            .collect();
        patterns.sort_unstable();
        per_k.push(KResult { k, patterns });
    }
    per_k
}

/// Reference over-representation at one `k`: the patterns of
/// `substantial` whose naive top-`k` count exceeds `u`, keeping those with
/// no qualifying proper superset (most specific) or no qualifying proper
/// subset (most general), sorted. The `Engine::Baseline` over-side of an
/// audit. Polls `guard` per pattern and returns `None` once it expires.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_over(
    ds: &Dataset,
    space: &PatternSpace,
    ranking: &Ranking,
    substantial: &[Pattern],
    k: usize,
    u: usize,
    scope: OverRepScope,
    guard: &mut DeadlineGuard,
) -> Option<Vec<Pattern>> {
    let mut qualifying: Vec<&Pattern> = Vec::new();
    for p in substantial {
        if guard.expired() {
            return None;
        }
        if naive_counts(ds, space, ranking, p, k).1 > u {
            qualifying.push(p);
        }
    }
    let mut out: Vec<Pattern> = Vec::new();
    for p in &qualifying {
        if guard.expired() {
            return None;
        }
        let dominated = match scope {
            OverRepScope::MostSpecific => qualifying.iter().any(|q| p.is_proper_subset_of(q)),
            OverRepScope::MostGeneral => qualifying.iter().any(|q| q.is_proper_subset_of(p)),
        };
        if !dominated {
            out.push((*p).clone());
        }
    }
    out.sort_unstable();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::space::RankedIndex;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};

    fn fig1() -> (Dataset, PatternSpace, Ranking) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        (ds, space, ranking)
    }

    #[test]
    fn naive_counts_agree_with_bitmap_index() {
        let (ds, space, ranking) = fig1();
        let index = RankedIndex::build(&ds, &space, &ranking);
        for p in enumerate_substantial(&ds, &space, &ranking, 1) {
            for k in [0, 1, 5, 9, 16] {
                assert_eq!(
                    naive_counts(&ds, &space, &ranking, &p, k),
                    index.counts(&p, k),
                    "pattern {} k={k}",
                    space.display(&p)
                );
            }
        }
    }

    #[test]
    fn enumeration_counts_all_substantial_patterns() {
        let (ds, space, ranking) = fig1();
        // With τs = 1 every pattern with at least one matching tuple
        // qualifies; with τs = 0 all 107 non-empty patterns of the graph
        // would qualify (some with zero support are still ≥ 0).
        let all = enumerate_substantial(&ds, &space, &ranking, 0);
        assert_eq!(all.len() as u64, space.pattern_graph_size());
        let sub = enumerate_substantial(&ds, &space, &ranking, 8);
        assert!(sub
            .iter()
            .all(|p| naive_counts(&ds, &space, &ranking, p, 0).0 >= 8));
        assert!(sub.len() < all.len());
    }

    #[test]
    fn oracle_matches_example_4_6() {
        let (ds, space, ranking) = fig1();
        let out = detect(
            &ds,
            &space,
            &ranking,
            4,
            4,
            5,
            &BiasMeasure::GlobalLower(Bounds::constant(2)),
        );
        let k4: Vec<String> = out[0].patterns.iter().map(|p| space.display(p)).collect();
        assert!(k4.contains(&"{Address=U}".to_string()));
        assert!(k4.contains(&"{Failures=1}".to_string()));
        assert_eq!(out[1].patterns.len(), 9);
    }
}
