use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// Rows `0..keys.len()` in `(key, row id)` order: the one sort behind
/// [`Ranking::from_scores_desc`] and
/// [`ScoredRanking`](crate::ScoredRanking), reading one
/// [`score_key`] per row.
///
/// Each row packs into one `u64`, the high half of its key above the row
/// id, so the sort moves 8 bytes per row. Rows whose high halves tie then
/// sit together in row-id order, and only those runs are re-sorted by the
/// full key. The keys are first rebased on their minimum and shifted up
/// past the leading bits they all share, which keeps the order and leaves
/// fewer ties: scores spread over `[0, 1)` share a key's sign and most of
/// its exponent bits.
pub(crate) fn sort_keys(keys: &[u64]) -> Vec<TupleId> {
    let n = u32::try_from(keys.len()).expect("row count fits TupleId");
    let (lo, hi) = keys
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let shift = hi.saturating_sub(lo).leading_zeros().min(63);
    let mut packed: Vec<u64> = keys
        .iter()
        .zip(0..n)
        .map(|(&k, row)| ((k - lo) << shift >> 32 << 32) | u64::from(row))
        .collect();
    packed.sort_unstable();
    // The low half of a packed word is its row id.
    let key = |w: u64| (keys[w as u32 as usize], w);
    for run in packed.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&w| key(w));
        }
    }
    packed.into_iter().map(|w| w as u32).collect()
}

/// [`sort_keys`] over the keys of `scores`.
pub(crate) fn sort_rows(scores: &[f64], ascending: bool) -> Vec<TupleId> {
    let keys: Vec<u64> = scores.iter().map(|&s| score_key(s, ascending)).collect();
    sort_keys(&keys)
}

/// `position[row]` for every row of `order`, a permutation of
/// `0..order.len()` the caller built by sorting rows: no validation.
pub(crate) fn inverse(order: &[TupleId]) -> Vec<u32> {
    let mut position = vec![0; order.len()];
    for (p, &row) in (0..).zip(order) {
        position[row as usize] = p;
    }
    position
}

/// Rank positions [`Ranking::from_scores_desc`] sorts when it is built:
/// the first 64 rank blocks of the counting index.
const HEAD: usize = 4_096;

/// Keys in the strided sample that sets the head's candidate threshold.
const SAMPLE: usize = 16 * HEAD;

/// The best [`HEAD`] rows by `(key, row id)`, in that order, found
/// without sorting the rest; `None` when the sampled threshold keeps
/// fewer than [`HEAD`] rows.
///
/// The threshold is the key at quantile `2·HEAD/n` of a strided sample
/// of about [`SAMPLE`] keys, so about `2·HEAD` rows pass it. Every row
/// left out has a larger key than every candidate, so the best `HEAD`
/// candidates are the best `HEAD` rows.
fn select_head(keys: &[u64]) -> Option<Vec<TupleId>> {
    let n = keys.len();
    let mut sample: Vec<u64> = keys.iter().step_by((n / SAMPLE).max(1)).copied().collect();
    let last = sample.len().checked_sub(1)?;
    let q = (sample.len() * 2 * HEAD / n).min(last);
    let (_, &mut threshold, _) = sample.select_nth_unstable(q);
    let mut candidates: Vec<(u64, TupleId)> = keys
        .iter()
        .zip(0..)
        .filter(|&(&k, _)| k <= threshold)
        .map(|(&k, row)| (k, row))
        .collect();
    if candidates.len() < HEAD {
        return None;
    }
    candidates.select_nth_unstable(HEAD - 1);
    candidates.truncate(HEAD);
    candidates.sort_unstable();
    Some(candidates.into_iter().map(|(_, row)| row).collect())
}

/// A total ranking of the dataset’s rows.
///
/// `order()[p]` is the row at rank position `p` (0-based: position 0 is the
/// best-ranked item, the paper’s rank 1), and `position(row)` is the inverse
/// map. The top-k of the paper, `R_k(D)`, is `order()[..k]`.
///
/// A `Ranking` is a shared handle: a clone costs one reference count and
/// reads the same order. [`Ranking::from_scores_desc`] on more than 8 192
/// rows sorts only the best 4 096 rows when it is built, because an audit
/// up to `k_max` reads only the first `k_max` positions. [`Ranking::len`],
/// [`Ranking::top_k`] up to 4 096 rows and [`Ranking::at`] below position
/// 4 096 read that head. Everything else, [`Ranking::order`],
/// [`Ranking::position`] and what derives from them, finishes the sort
/// once, on first use, from one stored score key per row (8 bytes a row,
/// kept for the ranking's lifetime). Rankings built from a full order
/// ([`Ranking::from_order`], a live ranking's snapshot) or from at most
/// 8 192 scores are sorted when built.
#[derive(Clone)]
pub struct Ranking {
    inner: Arc<Inner>,
}

struct Inner {
    len: usize,
    /// The best `HEAD` rows in rank order; empty when the sort finished
    /// at construction.
    head: Vec<TupleId>,
    /// One `score_key` per row, to finish the sort from; empty when it
    /// finished at construction.
    keys: Vec<u64>,
    /// The full order and its inverse.
    full: OnceLock<Full>,
}

struct Full {
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
        Ok(Self::from_parts(order, position))
    }

    /// A ranking from an order and its inverse that the caller already
    /// keeps consistent (a [`crate::ScoredRanking`] snapshot, or rows it
    /// has just sorted): no validation pass.
    pub(crate) fn from_parts(order: Vec<TupleId>, position: Vec<u32>) -> Self {
        debug_assert!(order
            .iter()
            .enumerate()
            .all(|(p, &row)| position[row as usize] as usize == p));
        Ranking {
            inner: Arc::new(Inner {
                len: order.len(),
                head: Vec::new(),
                keys: Vec::new(),
                full: OnceLock::from(Full { order, position }),
            }),
        }
    }

    /// Ranks rows by `score` descending, breaking ties by row id: the
    /// order a stable sort under [`f64::total_cmp`] gives (so `+0.0`
    /// ranks above `-0.0`), except that every NaN, whatever its sign,
    /// ranks last, in row-id order.
    ///
    /// Each row gets one order-preserving `u64` score key. Up to 8 192
    /// rows sort fully here. Past that, only the best 4 096 rows are
    /// chosen and sorted (one pass over the keys keeps every row at or
    /// below a threshold sampled to keep about 8 192 of them), and the
    /// rest sort from the kept keys when a read first needs them (see
    /// [`Ranking`]). The sort runs on one packed `u64` per row (the high
    /// half of the key above the row id), so it moves 8 bytes per row.
    pub fn from_scores_desc(scores: &[f64]) -> Self {
        let keys: Vec<u64> = scores.iter().map(|&s| score_key(s, false)).collect();
        let head = if keys.len() > 2 * HEAD {
            select_head(&keys)
        } else {
            None
        };
        let Some(head) = head else {
            let order = sort_keys(&keys);
            let position = inverse(&order);
            return Self::from_parts(order, position);
        };
        Ranking {
            inner: Arc::new(Inner {
                len: keys.len(),
                head,
                keys,
                full: OnceLock::new(),
            }),
        }
    }

    /// The full order and its inverse, sorted from the kept keys on
    /// first use.
    fn full(&self) -> &Full {
        self.inner.full.get_or_init(|| {
            let order = sort_keys(&self.inner.keys);
            let position = inverse(&order);
            Full { order, position }
        })
    }

    /// Number of ranked rows.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Rows best-first. Finishes the sort.
    pub fn order(&self) -> &[TupleId] {
        &self.full().order
    }

    /// The top-k rows, `R_k(D)` in the paper’s notation. Clamps `k` to the
    /// dataset size. Finishes the sort only for a `k` past the rows
    /// sorted at construction.
    pub fn top_k(&self, k: usize) -> &[TupleId] {
        let k = k.min(self.len());
        match self.inner.head.get(..k) {
            Some(head) => head,
            None => &self.order()[..k],
        }
    }

    /// The row at 0-based rank position `p` — `R(D)[p+1]` in the paper.
    /// Finishes the sort only for a `p` past the rows sorted at
    /// construction.
    pub fn at(&self, p: usize) -> TupleId {
        match self.inner.head.get(p) {
            Some(&row) => row,
            None => self.order()[p],
        }
    }

    /// 0-based rank position of `row`. Finishes the sort.
    pub fn position(&self, row: TupleId) -> usize {
        self.full().position[row as usize] as usize
    }

    /// 1-based rank (the paper’s `Rank` column) of `row`.
    pub fn rank(&self, row: TupleId) -> usize {
        self.position(row) + 1
    }

    /// The 1-based rank of every row, indexed by row id. This is the
    /// regression target `D_R = {(t, R(D)[t])}` used by the explanation
    /// module (§V).
    pub fn rank_vector(&self) -> Vec<f64> {
        self.full()
            .position
            .iter()
            .map(|&p| (p + 1) as f64)
            .collect()
    }

    /// Whether the full order has been sorted: at construction, or by a
    /// read that needed more than the head. For tests that check what an
    /// audit reads.
    #[doc(hidden)]
    pub fn sort_finished_for_tests(&self) -> bool {
        self.inner.full.get().is_some()
    }
}

/// Rankings are equal when their orders are; comparing finishes both
/// sorts.
impl PartialEq for Ranking {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

impl Eq for Ranking {}

/// Prints the full order and its inverse, finishing the sort.
impl fmt::Debug for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let full = self.full();
        f.debug_struct("Ranking")
            .field("order", &full.order)
            .field("position", &full.position)
            .finish()
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
        for n in [0usize, 1, 2, 1_000, 8_192, 8_193, 70_000] {
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
                // Mostly NaN: past about n/64 positions every row is a NaN,
                // so at 70 000 rows NaN rows straddle the head's end.
                (0..n)
                    .map(|_| match next() % 64 {
                        0 => pool[next() as usize % pool.len()],
                        _ => f64::NAN,
                    })
                    .collect(),
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
                assert_ranks_as(&r, &comparator_sort(scores, false), n > 2 * HEAD);
            }
        }
        // Every third row (the rows a stride-3 sample reads) scores above
        // all the others, so the sampled threshold keeps about 2 731 rows,
        // fewer than the head: the ranking sorts fully when built.
        let n = 3 * SAMPLE + 1;
        let scores: Vec<f64> = (0..n)
            .map(|r| if r % 3 == 0 { r as f64 } else { -1.0 })
            .collect();
        assert!(select_head(
            &scores
                .iter()
                .map(|&s| score_key(s, false))
                .collect::<Vec<_>>()
        )
        .is_none());
        let r = Ranking::from_scores_desc(&scores);
        assert_ranks_as(&r, &comparator_sort(&scores, false), false);
    }

    /// Checks `r` against the order `want`: first the head, through
    /// `top_k` and `at`, and that after those reads the sort is unfinished
    /// exactly when `r` is `lazy`; then the full order through a clone,
    /// which finishes the sort for `r` too, and its inverse.
    fn assert_ranks_as(r: &Ranking, want: &[TupleId], lazy: bool) {
        let n = want.len();
        assert_eq!(r.len(), n);
        let head = n.min(HEAD);
        assert_eq!(r.top_k(HEAD), &want[..head], "n={n}");
        for (p, &row) in want[..head].iter().enumerate() {
            assert_eq!(r.at(p), row, "n={n} p={p}");
        }
        assert_eq!(r.sort_finished_for_tests(), !lazy, "n={n}");
        let shared = r.clone();
        assert_eq!(shared.order(), want, "n={n}");
        assert!(r.sort_finished_for_tests(), "a clone shares the sort");
        assert_eq!(r.top_k(n + 1), want, "n={n}");
        for (p, &row) in want.iter().enumerate() {
            assert_eq!(r.position(row), p, "n={n} row={row}");
        }
    }

    #[test]
    fn reads_past_the_head_finish_the_sort_and_small_reads_do_not() {
        // 10 000 rows, all distinct: row r scores r, so the order is
        // 9 999, 9 998, …
        let n = 10_000;
        let scores: Vec<f64> = (0..n).map(|r| r as f64).collect();
        let want: Vec<TupleId> = (0..n as TupleId).rev().collect();
        let fresh = || Ranking::from_scores_desc(&scores);
        let r = fresh();
        assert!(!r.is_empty());
        assert_eq!(r.top_k(49), &want[..49]);
        assert_eq!(r.at(HEAD - 1), want[HEAD - 1]);
        assert!(!r.sort_finished_for_tests());
        type Read = fn(&Ranking) -> usize;
        let reads: [(&str, Read); 6] = [
            ("top_k past the head", |r| r.top_k(HEAD + 1).len()),
            ("at past the head", |r| r.at(HEAD) as usize),
            ("order", |r| r.order().len()),
            ("position", |r| r.position(0)),
            ("rank_vector", |r| r.rank_vector().len()),
            ("equality", |r| {
                usize::from(*r == Ranking::from_order(vec![0]).unwrap())
            }),
        ];
        for (what, read) in reads {
            let r = fresh();
            read(&r);
            assert!(r.sort_finished_for_tests(), "{what}");
        }
        assert_eq!(fresh(), Ranking::from_order(want).unwrap());
    }

    #[test]
    fn rank_vector_is_one_based() {
        let r = Ranking::from_order(vec![1, 0]).unwrap();
        assert_eq!(r.rank_vector(), vec![2.0, 1.0]);
    }
}
