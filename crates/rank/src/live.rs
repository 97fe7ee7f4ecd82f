//! The updatable ranking layer behind the live monitor: a score-backed
//! ranking that absorbs score updates and tuple insertions as **deltas**,
//! reporting exactly which rank positions changed occupant.
//!
//! A frozen [`crate::Ranking`] is a validated permutation with no memory
//! of how it was produced; re-ranking after every edit would cost a full
//! `O(n log n)` sort plus an `O(n·m)` index rebuild downstream. A
//! [`ScoredRanking`] instead keeps the scores next to the permutation and
//! repairs the order locally: a score update moves one row from its old
//! position to its new one (a rotation of the span between them), and an
//! insertion shifts the suffix after the insertion point. Both return a
//! [`RankDelta`] naming the **contiguous span of positions whose occupant
//! changed** — which is precisely the information the monitor needs to
//! patch its rank-ordered bitmap index and to bound the `k` values whose
//! top-`k` membership can have changed (only `k` in `(lo, hi]` for a pure
//! reorder over positions `[lo, hi]`).
//!
//! Ordering matches [`Ranking::from_scores_desc`] by construction: the
//! constructor sorts with the same function, and every later placement
//! compares the same `(score key, row id)` pairs that sort orders by.
//! Scores rank descending (or ascending when built with
//! [`ScoredRanking::ascending`]) under [`f64::total_cmp`], so `+0.0` and
//! `-0.0` are distinct scores, and ties break by row id ascending. A
//! `ScoredRanking` built from a column and the frozen ranking a
//! [`crate::Ranker`] would produce therefore agree byte for byte, and
//! stay in agreement after any edit sequence.

use rankfair_data::TupleId;

use crate::ranking::{inverse, score_key, sort_rows, Ranking, RankingError};

/// The positions a ranking edit touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankDelta {
    /// The row the edit concerned (the updated row, or the id assigned to
    /// an inserted tuple).
    pub row: TupleId,
    /// Inclusive span `(lo, hi)` of 0-based rank positions whose occupant
    /// changed, or `None` when the edit did not move anything (a score
    /// update that keeps the row in place).
    pub changed: Option<(usize, usize)>,
    /// Whether the edit inserted a new tuple (the universe grew by one).
    pub inserted: bool,
}

/// A ranking kept sorted under a live stream of score edits.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredRanking {
    scores: Vec<f64>,
    /// Rows best-first (same convention as [`Ranking`]).
    order: Vec<TupleId>,
    /// `position[row]` — inverse of `order`.
    position: Vec<u32>,
    ascending: bool,
    /// Largest representable row id. Row ids are dense `0..len`, so an
    /// insert past this cap has no id: `len as TupleId` would silently
    /// wrap to 0 and corrupt `position`. Defaults to [`TupleId::MAX`];
    /// tests shrink it to exercise the overflow path without allocating
    /// 4 billion rows.
    max_row_id: usize,
}

impl ScoredRanking {
    /// Builds a descending ranking (higher scores first, ties by row id).
    ///
    /// Rejects NaN scores: they have no place in a total order.
    pub fn new(scores: Vec<f64>) -> Result<Self, RankingError> {
        Self::with_direction(scores, false)
    }

    /// Builds an ascending ranking (lower scores first).
    pub fn ascending(scores: Vec<f64>) -> Result<Self, RankingError> {
        Self::with_direction(scores, true)
    }

    fn with_direction(scores: Vec<f64>, ascending: bool) -> Result<Self, RankingError> {
        if let Some(i) = scores.iter().position(|s| s.is_nan()) {
            return Err(RankingError(format!("score of row {i} is NaN")));
        }
        if u32::try_from(scores.len()).is_err() {
            return Err(RankingError(
                "row count exceeds the TupleId space".to_string(),
            ));
        }
        let order = sort_rows(&scores, ascending);
        let position = inverse(&order);
        Ok(ScoredRanking {
            scores,
            order,
            position,
            ascending,
            max_row_id: TupleId::MAX as usize,
        })
    }

    /// Whether `additional` more inserts fit the row-id space (ids are
    /// dense `0..len`, so the last new id would be
    /// `len + additional − 1`). The monitor pre-validates batches with
    /// this so [`ScoredRanking::insert`] can never fail mid-batch.
    pub fn can_insert(&self, additional: usize) -> bool {
        match additional.checked_sub(1) {
            None => true,
            Some(extra) => self
                .scores
                .len()
                .checked_add(extra)
                .is_some_and(|last| last <= self.max_row_id),
        }
    }

    /// Shrinks the row-id capacity so tests can reach the insert-overflow
    /// path cheaply (the real cap is `TupleId::MAX`, i.e. 2³² rows).
    #[doc(hidden)]
    pub fn shrink_row_capacity_for_tests(&mut self, max_row_id: usize) {
        self.max_row_id = max_row_id;
    }

    /// Number of ranked rows.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Rows best-first.
    pub fn order(&self) -> &[TupleId] {
        &self.order
    }

    /// 0-based rank position of `row`.
    pub fn position(&self, row: TupleId) -> usize {
        self.position[row as usize] as usize
    }

    /// Current score of `row`.
    pub fn score(&self, row: TupleId) -> f64 {
        self.scores[row as usize]
    }

    /// A frozen [`Ranking`] snapshot of the current order (`O(n)`).
    pub fn to_ranking(&self) -> Ranking {
        Ranking::from_parts(self.order.clone(), self.position.clone())
    }

    /// `true` when `row a` must precede `row b` under the current scores:
    /// the `(score key, row id)` order the constructor sorts by.
    fn before(&self, a: TupleId, b: TupleId) -> bool {
        let key = |row: TupleId| score_key(self.scores[row as usize], self.ascending);
        (key(a), a) < (key(b), b)
    }

    /// Re-scores `row`, repairing the order with one local rotation.
    ///
    /// Errors on an out-of-range row or a NaN score; the ranking is
    /// untouched on error.
    pub fn update_score(&mut self, row: TupleId, score: f64) -> Result<RankDelta, RankingError> {
        if (row as usize) >= self.scores.len() {
            return Err(RankingError(format!(
                "row {row} out of range 0..{}",
                self.scores.len()
            )));
        }
        if score.is_nan() {
            return Err(RankingError(format!("new score of row {row} is NaN")));
        }
        self.scores[row as usize] = score;
        let old_pos = self.position[row as usize] as usize;
        // The array is sorted everywhere except the moved row's own slot,
        // so a binary search is only valid on the side the row moves
        // toward (those slices exclude the slot). Probe the neighbors to
        // pick the side.
        let moves_up = old_pos > 0 && self.before(row, self.order[old_pos - 1]);
        let moves_down =
            old_pos + 1 < self.order.len() && self.before(self.order[old_pos + 1], row);
        let new_pos = if moves_up {
            self.order[..old_pos].partition_point(|&r| self.before(r, row))
        } else if moves_down {
            old_pos + self.order[old_pos + 1..].partition_point(|&r| self.before(r, row))
        } else {
            old_pos
        };
        if new_pos == old_pos {
            return Ok(RankDelta {
                row,
                changed: None,
                inserted: false,
            });
        }
        if new_pos < old_pos {
            self.order[new_pos..=old_pos].rotate_right(1);
        } else {
            self.order[old_pos..=new_pos].rotate_left(1);
        }
        let (lo, hi) = (old_pos.min(new_pos), old_pos.max(new_pos));
        for p in lo..=hi {
            self.position[self.order[p] as usize] =
                u32::try_from(p).expect("positions fit the TupleId space");
        }
        Ok(RankDelta {
            row,
            changed: Some((lo, hi)),
            inserted: false,
        })
    }

    /// Inserts a new tuple with id `len()` and the given score. Every
    /// position from the insertion point to the (new) end changes
    /// occupant.
    ///
    /// Errors on a NaN score, or when the new row id would not fit a
    /// [`TupleId`] (`len() > TupleId::MAX` — the unchecked `as` cast
    /// would wrap to 0 and silently corrupt the position index). The
    /// ranking is untouched on error.
    pub fn insert(&mut self, score: f64) -> Result<RankDelta, RankingError> {
        if score.is_nan() {
            return Err(RankingError("inserted score is NaN".to_string()));
        }
        if !self.can_insert(1) {
            return Err(RankingError(format!(
                "ranking is full: row id {} does not fit a TupleId",
                self.scores.len()
            )));
        }
        let row = self.scores.len() as TupleId;
        self.scores.push(score);
        let pos = self.order.partition_point(|&r| self.before(r, row));
        self.order.insert(pos, row);
        self.position.push(0);
        for p in pos..self.order.len() {
            self.position[self.order[p] as usize] =
                u32::try_from(p).expect("can_insert keeps positions in the TupleId space");
        }
        Ok(RankDelta {
            row,
            changed: Some((pos, self.order.len() - 1)),
            inserted: true,
        })
    }

    /// Debug-only invariant check: `order` sorted under `before`,
    /// `position` its inverse.
    #[cfg(test)]
    fn check_invariants(&self) {
        for w in self.order.windows(2) {
            assert!(self.before(w[0], w[1]), "order out of order: {w:?}");
        }
        for (p, &row) in self.order.iter().enumerate() {
            assert_eq!(self.position[row as usize] as usize, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_matches_from_scores_desc() {
        let scores = vec![1.0, 3.0, 3.0, 2.0];
        let live = ScoredRanking::new(scores.clone()).unwrap();
        let frozen = Ranking::from_scores_desc(&scores);
        assert_eq!(live.order(), frozen.order());
        assert_eq!(live.to_ranking(), frozen);
        live.check_invariants();
        assert!(ScoredRanking::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn ascending_reverses_score_order_not_ties() {
        let live = ScoredRanking::ascending(vec![2.0, 1.0, 2.0]).unwrap();
        assert_eq!(live.order(), &[1, 0, 2]);
        live.check_invariants();
    }

    #[test]
    fn update_score_moves_up_and_down() {
        let mut live = ScoredRanking::new(vec![5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        // Promote row 3 past rows 2 and 1.
        let d = live.update_score(3, 4.5).unwrap();
        assert_eq!(d.changed, Some((1, 3)));
        assert!(!d.inserted);
        assert_eq!(live.order(), &[0, 3, 1, 2, 4]);
        live.check_invariants();
        // Demote row 0 to the bottom.
        let d = live.update_score(0, 0.5).unwrap();
        assert_eq!(d.changed, Some((0, 4)));
        assert_eq!(live.order(), &[3, 1, 2, 4, 0]);
        live.check_invariants();
        // A no-move update reports no change.
        let d = live.update_score(1, 4.1).unwrap();
        assert_eq!(d.changed, None);
        live.check_invariants();
        // Errors leave the ranking intact.
        assert!(live.update_score(99, 1.0).is_err());
        assert!(live.update_score(1, f64::NAN).is_err());
        live.check_invariants();
    }

    #[test]
    fn tie_breaks_by_row_id_after_update() {
        let mut live = ScoredRanking::new(vec![3.0, 2.0, 1.0]).unwrap();
        // Row 2 ties row 1: row id ascending puts it after row 1.
        live.update_score(2, 2.0).unwrap();
        assert_eq!(live.order(), &[0, 1, 2]);
        // Row 0 drops to the same tie: lands before 1 and 2 (smaller id).
        let d = live.update_score(0, 2.0).unwrap();
        assert_eq!(d.changed, None); // already first among the ties
        live.check_invariants();
    }

    #[test]
    fn insert_shifts_suffix() {
        let mut live = ScoredRanking::new(vec![3.0, 1.0]).unwrap();
        let d = live.insert(2.0).unwrap();
        assert_eq!(d.row, 2);
        assert!(d.inserted);
        assert_eq!(d.changed, Some((1, 2)));
        assert_eq!(live.order(), &[0, 2, 1]);
        assert_eq!(live.position(2), 1);
        live.check_invariants();
        // Insert at the very bottom: only the last position changes.
        let d = live.insert(0.0).unwrap();
        assert_eq!(d.changed, Some((3, 3)));
        live.check_invariants();
        assert!(live.insert(f64::NAN).is_err());
    }

    #[test]
    fn insert_past_row_id_capacity_errors_instead_of_wrapping() {
        // Regression: `self.scores.len() as TupleId` wrapped silently past
        // u32::MAX rows, assigning a colliding row id and corrupting
        // `position`. The capacity is shrunk so the test does not need 4
        // billion real rows.
        let mut live = ScoredRanking::new(vec![3.0, 2.0, 1.0]).unwrap();
        live.shrink_row_capacity_for_tests(2); // ids 0..=2 ⇒ full at len 3
        assert!(live.can_insert(0));
        assert!(!live.can_insert(1));
        let before = live.clone();
        let err = live.insert(5.0).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");
        assert_eq!(live, before, "failed insert must not touch the ranking");
        live.check_invariants();
        // One id below the cap still works, then the cap bites.
        live.shrink_row_capacity_for_tests(3);
        assert!(live.can_insert(1));
        assert!(!live.can_insert(2));
        live.insert(5.0).unwrap();
        assert!(live.insert(4.0).is_err());
        assert_eq!(live.len(), 4);
        live.check_invariants();
    }

    #[test]
    fn random_edit_sequences_match_full_resort() {
        // Deterministic xorshift; no rng dependency in this crate.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Both zeros come up often: `total_cmp` ranks +0.0 above -0.0,
        // so a placement that treats them as a tie drifts from a resort.
        let score = |x: u64| match x % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => ((x >> 3) % 97) as f64 / 7.0,
        };
        for ascending in [false, true] {
            let scores: Vec<f64> = (0..40).map(|_| score(next())).collect();
            let mut live = if ascending {
                ScoredRanking::ascending(scores).unwrap()
            } else {
                ScoredRanking::new(scores).unwrap()
            };
            for _ in 0..200 {
                if next() % 4 == 0 {
                    live.insert(score(next())).unwrap();
                } else {
                    let row = (next() % live.len() as u64) as TupleId;
                    live.update_score(row, score(next())).unwrap();
                }
                live.check_invariants();
                // The live order equals a from-scratch sort of the scores,
                // and the frozen ranking of the same scores (negated for
                // an ascending ranking: negation reverses total_cmp).
                let fresh = if ascending {
                    ScoredRanking::ascending(live.scores.clone()).unwrap()
                } else {
                    ScoredRanking::new(live.scores.clone()).unwrap()
                };
                assert_eq!(live.order(), fresh.order());
                let sign = if ascending { -1.0 } else { 1.0 };
                let signed: Vec<f64> = live.scores.iter().map(|s| sign * s).collect();
                assert_eq!(live.order(), Ranking::from_scores_desc(&signed).order());
            }
        }
    }

    #[test]
    fn signed_zeros_place_as_a_full_sort_ranks_them() {
        let mut live = ScoredRanking::new(vec![-0.0, 0.0]).unwrap();
        live.insert(0.0).unwrap();
        assert_eq!(live.order(), &[1, 2, 0]);
        assert_eq!(
            live.order(),
            Ranking::from_scores_desc(&[-0.0, 0.0, 0.0]).order()
        );
        let mut live = ScoredRanking::new(vec![1.0, 0.0, -0.0]).unwrap();
        live.update_score(0, -0.0).unwrap();
        assert_eq!(live.order(), &[1, 0, 2]);
        live.check_invariants();
    }
}
