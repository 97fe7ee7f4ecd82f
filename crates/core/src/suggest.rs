//! Automatic size-threshold suggestion — the paper’s §VIII names
//! “automatic suggestion for thresholds” as future work; this implements a
//! simple, documented heuristic.
//!
//! The threshold `τs` separates groups “substantial” enough to report.
//! Too small and the output drowns in tiny incidental groups; too large
//! and real minorities vanish. The heuristic proposed here: take the
//! sizes of all *single-attribute* groups (the level-1 patterns, which set
//! the scale of the group-size distribution) and return the requested
//! quantile of that distribution.

use crate::space::{AttrId, PatternSpace, RankedIndex};
use crate::Pattern;

/// Suggests `τs` as the `quantile` (in `[0, 1]`) of the level-1 group-size
/// distribution. `quantile = 0.25` means: report groups at least as large
/// as the smallest quarter of single-value groups.
///
/// # Panics
/// Panics if `quantile` is outside `[0, 1]`.
pub fn suggest_tau(index: &RankedIndex, space: &PatternSpace, quantile: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&quantile),
        "quantile must be within [0, 1]"
    );
    let mut sizes: Vec<usize> = Vec::new();
    for a in 0..space.n_attrs() as AttrId {
        for v in space.value_codes(a) {
            let sd = index.size_in_data(&Pattern::single(a, v));
            if sd > 0 {
                sizes.push(sd);
            }
        }
    }
    if sizes.is_empty() {
        return 1;
    }
    sizes.sort_unstable();
    let pos = (quantile * (sizes.len() - 1) as f64).round() as usize;
    sizes[pos].max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::RankedIndex;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};
    use rankfair_rank::Ranking;

    fn index() -> (PatternSpace, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (space, index)
    }

    #[test]
    fn quantiles_are_monotone() {
        let (space, index) = index();
        let lo = suggest_tau(&index, &space, 0.0);
        let mid = suggest_tau(&index, &space, 0.5);
        let hi = suggest_tau(&index, &space, 1.0);
        assert!(lo <= mid && mid <= hi);
        assert!(lo >= 1);
    }

    #[test]
    fn fig1_values_are_sensible() {
        // Level-1 sizes in Fig. 1: gender 8/8, school 8/8, address 8/8,
        // failures 8/4/4 → min 4, max 8.
        let (space, index) = index();
        assert_eq!(suggest_tau(&index, &space, 0.0), 4);
        assert_eq!(suggest_tau(&index, &space, 1.0), 8);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_rejected() {
        let (space, index) = index();
        suggest_tau(&index, &space, 1.5);
    }
}
