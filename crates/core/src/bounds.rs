/// Lower bounds `L_k` over group representation in the top-`k`, for the
/// global-bounds problem (Problem 3.1).
///
/// The paper’s default experimental setting is a step function (“10 for
/// 10 ≤ k < 20, 20 for 20 ≤ k < 30, …”); [`Bounds::steps`] builds exactly
/// that shape. Bounds are assumed non-decreasing in `k` (footnote 3 of the
/// paper), but any shape stays exact: at every change of the bound, up or
/// down, the `GlobalBounds` engine reclassifies its node store, in the
/// batch run, the stream and a monitor's replay alike.
#[derive(Debug, Clone, PartialEq)]
pub enum Bounds {
    /// The same bound for every `k`.
    Constant(usize),
    /// Piecewise-constant: `(k_from, bound)` pairs sorted by `k_from`; the
    /// bound at `k` is the entry with the largest `k_from ≤ k` (0 before
    /// the first entry).
    Steps(Vec<(usize, usize)>),
    /// `L_k = ceil(fraction · k)` — a simple linear family used by some
    /// fairness-in-ranking constraints.
    LinearFraction(
        /// The fraction of the top-`k` the group must occupy.
        f64,
    ),
}

impl Bounds {
    /// Convenience constructor for a constant bound.
    pub fn constant(l: usize) -> Self {
        Bounds::Constant(l)
    }

    /// Convenience constructor for a step function; pairs are sorted
    /// internally.
    pub fn steps(mut pairs: Vec<(usize, usize)>) -> Self {
        pairs.sort_unstable();
        Bounds::Steps(pairs)
    }

    /// The paper’s default bounds: 10 for k∈[10,20), 20 for [20,30), 30 for
    /// [30,40), 40 for [40,50).
    pub fn paper_default() -> Self {
        Bounds::steps(vec![(10, 10), (20, 20), (30, 30), (40, 40)])
    }

    /// The lower bound at `k`.
    ///
    /// Order-independent for [`Bounds::Steps`]: the variant is public and
    /// can be constructed with pairs in any order, so the applicable entry
    /// is the one with the **largest** `k_from ≤ k` regardless of where it
    /// sits in the vector (ties on `k_from` resolve to the later entry,
    /// matching what the sorting constructor produced all along).
    pub fn at(&self, k: usize) -> usize {
        match self {
            Bounds::Constant(l) => *l,
            Bounds::Steps(pairs) => pairs
                .iter()
                .filter(|&&(from, _)| from <= k)
                .max_by_key(|&&(from, _)| from)
                .map_or(0, |&(_, l)| l),
            Bounds::LinearFraction(f) => (f * k as f64).ceil() as usize,
        }
    }

    /// Checks the numeric parameters: a [`Bounds::LinearFraction`] must be
    /// finite and non-negative (a NaN fraction makes every comparison
    /// false, silently emptying or flooding the result set). Returns the
    /// offending value on failure.
    pub fn validate(&self) -> Result<(), f64> {
        match self {
            Bounds::LinearFraction(f) if !f.is_finite() || *f < 0.0 => Err(*f),
            _ => Ok(()),
        }
    }
}

/// Which fairness measure defines “biased representation”.
///
/// This type is the **single source of truth** for the bias predicate: the
/// baseline, both optimized algorithms, the oracle, and the report layer
/// all call [`BiasMeasure::is_biased`], so floating-point rounding in the
/// proportional measure can never make two components disagree.
#[derive(Debug, Clone)]
pub enum BiasMeasure {
    /// Problem 3.1 (lower-bound side): biased iff `s_Rk(p) < L_k`.
    GlobalLower(Bounds),
    /// Problem 3.2: biased iff `s_Rk(p) < α · s_D(p) · k / n`.
    Proportional {
        /// The proportionality factor `α` (the paper uses 0.8).
        alpha: f64,
    },
}

impl BiasMeasure {
    /// Whether a group with `count` tuples in the top-`k` and `sd` tuples
    /// overall is biased at `k` (dataset size `n`).
    #[inline]
    pub fn is_biased(&self, count: usize, sd: usize, k: usize, n: usize) -> bool {
        match self {
            BiasMeasure::GlobalLower(b) => count < b.at(k),
            BiasMeasure::Proportional { alpha } => {
                (count as f64) < alpha * (sd as f64) * (k as f64) / (n as f64)
            }
        }
    }

    /// The required representation at `k` (used in reports to show the
    /// bias gap `required − actual`).
    pub fn required(&self, sd: usize, k: usize, n: usize) -> f64 {
        match self {
            BiasMeasure::GlobalLower(b) => b.at(k) as f64,
            BiasMeasure::Proportional { alpha } => alpha * (sd as f64) * (k as f64) / (n as f64),
        }
    }

    /// For the proportional measure: the minimal `k' > k` at which a group
    /// whose top-k count stays `count` becomes biased — the paper’s `k̃`
    /// (Section IV-C). Returns `None` for the global measure.
    ///
    /// The closed form `⌊count·n/(α·s_D)⌋ + 1` can disagree with the
    /// floating-point [`BiasMeasure::is_biased`] predicate by one when
    /// `count·n/(α·s_D)` is an exact integer (the bound computes as
    /// `13.000…002` rather than `13`), so the candidate is aligned to the
    /// predicate — which is the single source of truth — by a bounded
    /// local walk. Since the bound is strictly increasing in `k`, the
    /// biased region is an up-set and the walk moves at most a step or two.
    pub fn k_tilde(&self, count: usize, sd: usize, k: usize, n: usize) -> Option<usize> {
        match self {
            BiasMeasure::GlobalLower(_) => None,
            BiasMeasure::Proportional { alpha } => {
                if sd == 0 || *alpha <= 0.0 {
                    return None;
                }
                let raw = (count as f64) * (n as f64) / (alpha * (sd as f64));
                let mut kt = (raw.floor() as usize + 1).max(k + 1);
                while kt > k + 1 && self.is_biased(count, sd, kt - 1, n) {
                    kt -= 1;
                }
                while kt <= n && !self.is_biased(count, sd, kt, n) {
                    kt += 1;
                }
                Some(kt)
            }
        }
    }

    /// Whether this measure uses the `k̃` schedule (proportional only).
    pub fn is_proportional(&self) -> bool {
        matches!(self, BiasMeasure::Proportional { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_bounds() {
        let b = Bounds::constant(5);
        assert_eq!(b.at(0), 5);
        assert_eq!(b.at(100), 5);
    }

    #[test]
    fn step_bounds_match_paper_default() {
        let b = Bounds::paper_default();
        assert_eq!(b.at(9), 0);
        assert_eq!(b.at(10), 10);
        assert_eq!(b.at(19), 10);
        assert_eq!(b.at(20), 20);
        assert_eq!(b.at(39), 30);
        assert_eq!(b.at(49), 40);
        assert_eq!(b.at(500), 40);
    }

    #[test]
    fn steps_sorted_on_construction() {
        let b = Bounds::steps(vec![(20, 20), (10, 10)]);
        assert_eq!(b.at(15), 10);
    }

    #[test]
    fn directly_constructed_unsorted_steps_are_order_independent() {
        // Regression: `Bounds::Steps` is a public variant, so `at` must not
        // assume the pairs arrive sorted (the old `take_while` lookup
        // silently returned 0 here because the first pair already failed
        // the `from <= k` filter).
        let unsorted = Bounds::Steps(vec![(20, 20), (10, 10), (40, 40), (30, 30)]);
        let sorted = Bounds::paper_default();
        for k in 0..=60 {
            assert_eq!(unsorted.at(k), sorted.at(k), "k={k}");
        }
        // Ties on `k_from` resolve to the later entry, like the sorting
        // constructor.
        assert_eq!(Bounds::Steps(vec![(10, 3), (10, 7)]).at(12), 7);
        assert_eq!(Bounds::steps(vec![(10, 3), (10, 7)]).at(12), 7);
    }

    #[test]
    fn linear_fraction_validation() {
        assert_eq!(Bounds::LinearFraction(0.3).validate(), Ok(()));
        assert_eq!(Bounds::constant(5).validate(), Ok(()));
        assert!(Bounds::LinearFraction(f64::NAN).validate().is_err());
        assert_eq!(Bounds::LinearFraction(-0.2).validate(), Err(-0.2));
        assert!(Bounds::LinearFraction(f64::INFINITY).validate().is_err());
    }

    #[test]
    fn linear_fraction_bounds() {
        let b = Bounds::LinearFraction(0.25);
        assert_eq!(b.at(4), 1);
        assert_eq!(b.at(5), 2); // ceil(1.25)
        assert_eq!(b.at(0), 0);
    }

    #[test]
    fn global_bias_predicate() {
        let m = BiasMeasure::GlobalLower(Bounds::constant(2));
        assert!(m.is_biased(1, 10, 5, 16));
        assert!(!m.is_biased(2, 10, 5, 16));
        assert_eq!(m.k_tilde(1, 10, 5, 16), None);
    }

    #[test]
    fn proportional_bias_predicate_matches_example_2_5() {
        // Example 2.5: n = 16, s_D = 8, k = 5 → proportionate ≈ 2.5;
        // with α = 0.8 the bound is 2.0, so count 1 is biased, count 2 not.
        let m = BiasMeasure::Proportional { alpha: 0.8 };
        assert!(m.is_biased(1, 8, 5, 16));
        assert!(!m.is_biased(2, 8, 5, 16));
    }

    #[test]
    fn k_tilde_matches_example_4_7() {
        // α = 0.9, s_D({Gender=F}) = 8, count in top-4 = 2, n = 16 → k̃ = 5.
        let m = BiasMeasure::Proportional { alpha: 0.9 };
        assert_eq!(m.k_tilde(2, 8, 4, 16), Some(5));
        // Example 4.9: {School=MS} count 3 → k̃ = 7;
        // {School=MS, Address=R} s_D = 6, count 3 → k̃ = 9.
        assert_eq!(m.k_tilde(3, 8, 4, 16), Some(7));
        assert_eq!(m.k_tilde(3, 6, 4, 16), Some(9));
    }

    #[test]
    fn k_tilde_is_consistent_with_predicate() {
        // For a grid of inputs (including αs that hit exact floating-point
        // boundaries): not biased for all k < k̃ (count fixed), biased at
        // k̃. This is the exact contract the PropBounds schedule relies on.
        for alpha in [0.7, 0.8, 0.9, 1.0, 1.3] {
            let m = BiasMeasure::Proportional { alpha };
            let n = 63;
            for sd in 1..=n {
                for count in 0..=sd.min(20) {
                    for k in count.max(1)..=40 {
                        if m.is_biased(count, sd, k, n) {
                            continue;
                        }
                        let kt = m.k_tilde(count, sd, k, n).unwrap();
                        for kk in k..kt.min(n) {
                            assert!(
                                !m.is_biased(count, sd, kk, n),
                                "biased before k̃: α={alpha} count={count} sd={sd} k={kk} k̃={kt}"
                            );
                        }
                        if kt <= n {
                            assert!(
                                m.is_biased(count, sd, kt, n),
                                "not biased at k̃: α={alpha} count={count} sd={sd} k̃={kt}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn k_tilde_guard_clamps_to_next_k() {
        let m = BiasMeasure::Proportional { alpha: 0.9 };
        let kt = m.k_tilde(0, 8, 4, 16).unwrap();
        assert_eq!(kt, 5); // raw value would be 1; clamped to k+1
    }

    #[test]
    fn required_reports_bound_value() {
        let g = BiasMeasure::GlobalLower(Bounds::constant(3));
        assert_eq!(g.required(99, 10, 100), 3.0);
        let p = BiasMeasure::Proportional { alpha: 0.8 };
        assert!((p.required(8, 5, 16) - 2.0).abs() < 1e-12);
    }
}
