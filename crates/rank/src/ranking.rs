use std::fmt;

use rankfair_data::TupleId;

/// Error returned when a ranking is not a permutation of `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankingError(pub String);

impl fmt::Display for RankingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ranking: {}", self.0)
    }
}

impl std::error::Error for RankingError {}

/// The sort key of `score`: comparing keys as integers compares scores
/// under [`f64::total_cmp`], reversed for a descending ranking, except
/// that every NaN maps to `u64::MAX` and so ranks last in either
/// direction. No other score maps there: the bit patterns that would
/// are NaNs.
pub(crate) fn score_key(score: f64, ascending: bool) -> u64 {
    if score.is_nan() {
        return u64::MAX;
    }
    let bits = score.to_bits();
    // Flipping every bit of a negative number and the sign bit of any
    // other one turns total_cmp's order into unsigned integer order.
    let up = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    if ascending {
        up
    } else {
        !up
    }
}

/// Rows `0..scores.len()` in `(score_key, row id)` order: the one sort
/// behind [`Ranking::from_scores_desc`] and
/// [`ScoredRanking`](crate::ScoredRanking).
///
/// Each row packs into one `u64`, the high half of its key above the row
/// id, so the sort moves 8 bytes per row and reads no score. Rows whose
/// high halves tie then sit together in row-id order, and only those
/// runs are re-sorted by the full key. The keys are first rebased on
/// their minimum and shifted up past the leading bits they all share,
/// which keeps the order and leaves fewer ties: scores spread over
/// `[0, 1)` share a key's sign and most of its exponent bits.
pub(crate) fn sort_rows(scores: &[f64], ascending: bool) -> Vec<TupleId> {
    let n = u32::try_from(scores.len()).expect("row count fits TupleId");
    let mut packed: Vec<u64> = scores.iter().map(|&s| score_key(s, ascending)).collect();
    let (lo, hi) = packed
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let shift = hi.saturating_sub(lo).leading_zeros().min(63);
    for (w, row) in packed.iter_mut().zip(0..n) {
        *w = ((*w - lo) << shift >> 32 << 32) | u64::from(row);
    }
    packed.sort_unstable();
    // The low half of a packed word is its row id.
    let key = |w: u64| (score_key(scores[w as u32 as usize], ascending), w);
    for run in packed.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&w| key(w));
        }
    }
    packed.into_iter().map(|w| w as u32).collect()
}

/// A total ranking of the dataset’s rows.
///
/// `order()[p]` is the row at rank position `p` (0-based: position 0 is the
/// best-ranked item, the paper’s rank 1), and `position(row)` is the inverse
/// map. The top-k of the paper, `R_k(D)`, is `order()[..k]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ranking {
    order: Vec<TupleId>,
    position: Vec<u32>,
}

impl Ranking {
    /// Builds a ranking from rows listed best-first, validating that it is
    /// a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<TupleId>) -> Result<Self, RankingError> {
        let n = order.len();
        let mut position = vec![u32::MAX; n];
        for (p, &row) in order.iter().enumerate() {
            let r = row as usize;
            if r >= n {
                return Err(RankingError(format!("row {row} out of range 0..{n}")));
            }
            if position[r] != u32::MAX {
                return Err(RankingError(format!("row {row} appears twice")));
            }
            position[r] = p as u32;
        }
        Ok(Ranking { order, position })
    }

    /// A ranking from an order and its inverse that the caller already
    /// keeps consistent, as [`crate::ScoredRanking`] does: no validation
    /// pass.
    pub(crate) fn from_parts(order: Vec<TupleId>, position: Vec<u32>) -> Self {
        debug_assert!(order
            .iter()
            .enumerate()
            .all(|(p, &row)| position[row as usize] as usize == p));
        Ranking { order, position }
    }

    /// Ranks rows by `score` descending, breaking ties by row id: the
    /// order a stable sort under [`f64::total_cmp`] gives (so `+0.0`
    /// ranks above `-0.0`), except that every NaN, whatever its sign,
    /// ranks last, in row-id order.
    ///
    /// The sort runs on one packed `u64` per row (the high half of an
    /// order-preserving score key above the row id), so it moves 8 bytes
    /// per row and reads a score only to split a tie between high halves.
    pub fn from_scores_desc(scores: &[f64]) -> Self {
        let order = sort_rows(scores, false);
        // lint:allow(panic-reachability) -- sorting 0..n yields a permutation by construction
        Self::from_order(order).expect("sort of 0..n is a permutation")
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

    /// The top-k rows, `R_k(D)` in the paper’s notation. Clamps `k` to the
    /// dataset size.
    pub fn top_k(&self, k: usize) -> &[TupleId] {
        &self.order[..k.min(self.order.len())]
    }

    /// The row at 0-based rank position `p` — `R(D)[p+1]` in the paper.
    pub fn at(&self, p: usize) -> TupleId {
        self.order[p]
    }

    /// 0-based rank position of `row`.
    pub fn position(&self, row: TupleId) -> usize {
        self.position[row as usize] as usize
    }

    /// 1-based rank (the paper’s `Rank` column) of `row`.
    pub fn rank(&self, row: TupleId) -> usize {
        self.position(row) + 1
    }

    /// The 1-based rank of every row, indexed by row id. This is the
    /// regression target `D_R = {(t, R(D)[t])}` used by the explanation
    /// module (§V).
    pub fn rank_vector(&self) -> Vec<f64> {
        self.position.iter().map(|&p| (p + 1) as f64).collect()
    }

    /// 1-based ranks of the given rows, sorted ascending — handy when a
    /// report wants to show where a detected group's members sit.
    pub fn group_ranks(&self, rows: &[TupleId]) -> Vec<usize> {
        let mut ranks: Vec<usize> = rows.iter().map(|&r| self.rank(r)).collect();
        ranks.sort_unstable();
        ranks
    }

    /// Mean 1-based rank of the given rows (`NaN`-free: returns `None` for
    /// an empty group).
    pub fn mean_rank(&self, rows: &[TupleId]) -> Option<f64> {
        if rows.is_empty() {
            return None;
        }
        Some(rows.iter().map(|&r| self.rank(r) as f64).sum::<f64>() / rows.len() as f64)
    }

    /// How many of the given rows appear in the top-`k` — `s_Rk` computed
    /// directly from the ranking for callers without a bitmap index.
    pub fn count_in_top_k(&self, rows: &[TupleId], k: usize) -> usize {
        rows.iter().filter(|&&r| self.position(r) < k).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_order_validates_permutation() {
        assert!(Ranking::from_order(vec![0, 1, 2]).is_ok());
        assert!(Ranking::from_order(vec![0, 0, 2]).is_err());
        assert!(Ranking::from_order(vec![0, 3]).is_err());
    }

    #[test]
    fn positions_are_inverse_of_order() {
        let r = Ranking::from_order(vec![2, 0, 1]).unwrap();
        assert_eq!(r.position(2), 0);
        assert_eq!(r.position(0), 1);
        assert_eq!(r.position(1), 2);
        assert_eq!(r.rank(2), 1);
        assert_eq!(r.at(0), 2);
    }

    #[test]
    fn top_k_clamps() {
        let r = Ranking::from_order(vec![1, 0]).unwrap();
        assert_eq!(r.top_k(1), &[1]);
        assert_eq!(r.top_k(10), &[1, 0]);
    }

    #[test]
    fn from_scores_desc_breaks_ties_by_row() {
        let r = Ranking::from_scores_desc(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(r.order(), &[1, 2, 3, 0]);
    }

    #[test]
    fn nan_scores_rank_last_whatever_their_sign() {
        let neg_nan = -f64::NAN;
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        for nan in [f64::NAN, neg_nan] {
            let r = Ranking::from_scores_desc(&[1.0, nan, 3.0]);
            assert_eq!(r.order(), &[2, 0, 1]);
        }
        let mixed = [
            neg_nan,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::INFINITY,
            -0.0,
            0.0,
        ];
        let r = Ranking::from_scores_desc(&mixed);
        assert_eq!(r.order(), &[3, 5, 4, 1, 0, 2]);
    }

    /// The comparator sort `sort_rows` replaced: a stable sort under
    /// `total_cmp`, with the NaN rows moved to the end in row-id order.
    fn comparator_sort(scores: &[f64], ascending: bool) -> Vec<TupleId> {
        let rows = 0..scores.len() as TupleId;
        let is_nan = |&r: &TupleId| scores[r as usize].is_nan();
        let mut order: Vec<TupleId> = rows.clone().filter(|r| !is_nan(r)).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (scores[a as usize], scores[b as usize]);
            if ascending {
                sa.total_cmp(&sb)
            } else {
                sb.total_cmp(&sa)
            }
        });
        order.extend(rows.filter(is_nan));
        order
    }

    #[test]
    fn packed_sort_equals_a_stable_total_cmp_sort() {
        let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Heavy ties among zeros of both signs, infinities, subnormals and
        // extremes; the `1.0 + ε` values share 1.0's high key half, so
        // only the full key tells them apart.
        let pool = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            1.0 + f64::EPSILON,
            1.0 + 2f64.powi(-40),
            -(1.0 + 2f64.powi(-40)),
            2.5,
        ];
        for n in [0usize, 1, 2, 1_000, 70_000] {
            let inputs: Vec<Vec<f64>> = vec![
                vec![2.5; n],
                (0..n).map(|_| pool[next() as usize % pool.len()]).collect(),
                // Same high half as 1.0 or -1.0, random low half.
                (0..n)
                    .map(|_| {
                        let sign = next() & 1 << 63;
                        f64::from_bits(sign | 0x3FF0_0000_0000_0000 | (next() >> 32))
                    })
                    .collect(),
                // Keys within 2^44 of each other: the rebased high half
                // still ties rows that differ in the lowest 12 bits.
                (0..n)
                    .map(|_| {
                        let high = (next() % 16) << 40;
                        f64::from_bits(0x3FF0_0000_0000_0000 | high | (next() >> 32))
                    })
                    .collect(),
                (0..n)
                    .map(|_| match next() % 8 {
                        0 => f64::NAN,
                        1 => -f64::NAN,
                        _ => pool[next() as usize % pool.len()],
                    })
                    .collect(),
                // Arbitrary bit patterns, an occasional NaN among them.
                (0..n).map(|_| f64::from_bits(next())).collect(),
            ];
            for scores in &inputs {
                for ascending in [false, true] {
                    assert_eq!(
                        sort_rows(scores, ascending),
                        comparator_sort(scores, ascending),
                        "n={n} ascending={ascending}"
                    );
                }
                let r = Ranking::from_scores_desc(scores);
                assert_eq!(r.order(), comparator_sort(scores, false), "n={n}");
            }
        }
    }

    #[test]
    fn rank_vector_is_one_based() {
        let r = Ranking::from_order(vec![1, 0]).unwrap();
        assert_eq!(r.rank_vector(), vec![2.0, 1.0]);
    }

    #[test]
    fn group_helpers() {
        let r = Ranking::from_order(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(r.group_ranks(&[1, 2]), vec![1, 4]);
        assert_eq!(r.mean_rank(&[1, 2]), Some(2.5));
        assert_eq!(r.mean_rank(&[]), None);
        assert_eq!(r.count_in_top_k(&[1, 2, 3], 2), 1); // only row 2 in top-2
        assert_eq!(r.count_in_top_k(&[1, 2, 3], 3), 2);
    }
}
