//! CART-style regression tree over mixed categorical/numeric features,
//! grown by variance reduction. This is the base learner of the
//! random-forest surrogate. The paper leaves its regression model `M_R`
//! unspecified; trees split categorical codes by equality and numeric
//! values by threshold, so mixed attributes need no encoding.

use rand::{rngs::StdRng, seq::SliceRandom};

use crate::features::{FeatureKind, FeatureMatrix};
use crate::shapley::Regressor;

/// Hyper-parameters for a single tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Cap on candidate thresholds/values examined per feature (quantile
    /// subsampling keeps splits O(cap) instead of O(distinct values)).
    pub max_candidates: usize,
    /// Number of features examined per split; `0` means all (single
    /// trees), forests pass ⌈√m⌉.
    pub features_per_split: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 8,
            min_samples_split: 4,
            max_candidates: 24,
            features_per_split: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Threshold for numeric features (`x ≤ t` goes left), or the
        /// matched code for categorical features (`x == t` goes left).
        threshold: f64,
        kind: FeatureKind,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// (feature, threshold, kind, left rows, right rows) of a chosen split.
type Split = (usize, f64, FeatureKind, Vec<u32>, Vec<u32>);

struct Builder<'a> {
    x: &'a FeatureMatrix,
    y: &'a [f64],
    params: TreeParams,
    nodes: Vec<Node>,
    rng: &'a mut StdRng,
}

fn mean(y: &[f64], idx: &[u32]) -> f64 {
    idx.iter().map(|&i| y[i as usize]).sum::<f64>() / idx.len().max(1) as f64
}

fn sse(y: &[f64], idx: &[u32]) -> f64 {
    let m = mean(y, idx);
    idx.iter().map(|&i| (y[i as usize] - m).powi(2)).sum()
}

impl<'a> Builder<'a> {
    /// Finds the best (feature, threshold) split of `idx` by SSE
    /// reduction. Returns `None` when nothing reduces the error.
    fn best_split(&mut self, idx: &[u32]) -> Option<Split> {
        let m = self.x.n_features();
        let mut features: Vec<usize> = (0..m).collect();
        if self.params.features_per_split > 0 && self.params.features_per_split < m {
            features.shuffle(self.rng);
            features.truncate(self.params.features_per_split);
        }
        let parent_sse = sse(self.y, idx);
        let mut best: Option<(f64, usize, f64, FeatureKind)> = None;
        for &f in &features {
            let kind = self.x.kinds()[f];
            // Candidate split points: distinct values of the feature in
            // this node, quantile-subsampled to max_candidates.
            let mut vals: Vec<f64> = idx.iter().map(|&i| self.x.row(i as usize)[f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("features are finite"));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let step = (vals.len() as f64 / self.params.max_candidates as f64).max(1.0);
            let mut ci = 0.0;
            while (ci as usize) < vals.len() {
                let v = vals[ci as usize];
                ci += step;
                let (mut ls, mut lc, mut rs, mut rc) = (0.0, 0usize, 0.0, 0usize);
                for &i in idx {
                    let x = self.x.row(i as usize)[f];
                    let goes_left = match kind {
                        FeatureKind::Numeric => x <= v,
                        FeatureKind::Categorical => x == v,
                    };
                    if goes_left {
                        ls += self.y[i as usize];
                        lc += 1;
                    } else {
                        rs += self.y[i as usize];
                        rc += 1;
                    }
                }
                if lc == 0 || rc == 0 {
                    continue;
                }
                // SSE = Σy² − (Σy)²/n per side; Σy² is shared, so comparing
                // −(Σy_l)²/n_l − (Σy_r)²/n_r suffices.
                let score = -(ls * ls) / lc as f64 - (rs * rs) / rc as f64;
                if best.is_none_or(|(b, ..)| score < b) {
                    best = Some((score, f, v, kind));
                }
            }
        }
        let (score, f, v, kind) = best?;
        // Translate the comparable score back into an SSE reduction check:
        // child SSE = Σy² − (Σy_l)²/n_l − (Σy_r)²/n_r = Σy² + score.
        let child_sse = idx.iter().map(|&i| self.y[i as usize].powi(2)).sum::<f64>() + score;
        if child_sse >= parent_sse - 1e-12 {
            return None;
        }
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for &i in idx {
            let x = self.x.row(i as usize)[f];
            let goes_left = match kind {
                FeatureKind::Numeric => x <= v,
                FeatureKind::Categorical => x == v,
            };
            if goes_left {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        Some((f, v, kind, left, right))
    }

    fn build(&mut self, idx: &[u32], depth: usize) -> usize {
        let leaf = |nodes: &mut Vec<Node>, y: &[f64], idx: &[u32]| {
            nodes.push(Node::Leaf {
                value: mean(y, idx),
            });
            nodes.len() - 1
        };
        if depth >= self.params.max_depth || idx.len() < self.params.min_samples_split {
            return leaf(&mut self.nodes, self.y, idx);
        }
        match self.best_split(idx) {
            None => leaf(&mut self.nodes, self.y, idx),
            Some((feature, threshold, kind, left_idx, right_idx)) => {
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                let left = self.build(&left_idx, depth + 1);
                let right = self.build(&right_idx, depth + 1);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    kind,
                    left,
                    right,
                };
                slot
            }
        }
    }
}

impl RegressionTree {
    /// Fits a tree on the rows `idx` of `(x, y)`.
    pub fn fit_on(
        x: &FeatureMatrix,
        y: &[f64],
        idx: &[u32],
        params: TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(x.n_rows(), y.len(), "feature/target length mismatch");
        assert!(!idx.is_empty(), "cannot fit on zero samples");
        let mut b = Builder {
            x,
            y,
            params,
            nodes: Vec::new(),
            rng,
        };
        let root = b.build(idx, 0);
        debug_assert_eq!(root, 0);
        RegressionTree { nodes: b.nodes }
    }

    /// Fits on all rows.
    pub fn fit(x: &FeatureMatrix, y: &[f64], params: TreeParams, rng: &mut StdRng) -> Self {
        let idx: Vec<u32> = (0..u32::try_from(x.n_rows()).expect("row count fits u32")).collect();
        Self::fit_on(x, y, &idx, params, rng)
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl Regressor for RegressionTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    kind,
                    left,
                    right,
                } => {
                    let x = row[*feature];
                    let goes_left = match kind {
                        FeatureKind::Numeric => x <= *threshold,
                        FeatureKind::Categorical => x == *threshold,
                    };
                    cur = if goes_left { *left } else { *right };
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rankfair_data::Dataset;

    fn xy(f: impl Fn(f64, f64) -> f64, n: usize) -> (FeatureMatrix, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i * 7 % n) as f64).collect();
        let y: Vec<f64> = a.iter().zip(&b).map(|(&x0, &x1)| f(x0, x1)).collect();
        let ds = Dataset::builder()
            .numeric("a", a)
            .numeric("b", b)
            .build()
            .unwrap();
        (FeatureMatrix::from_dataset(&ds), y)
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let (x, y) = xy(|a, _| if a < 50.0 { 1.0 } else { 5.0 }, 100);
        let mut rng = StdRng::seed_from_u64(0);
        let tree = RegressionTree::fit(&x, &y, TreeParams::default(), &mut rng);
        for r in 0..x.n_rows() {
            assert_eq!(tree.predict_row(x.row(r)), y[r]);
        }
    }

    #[test]
    fn reduces_error_versus_mean_on_linear_target() {
        let (x, y) = xy(|a, b| 2.0 * a + 0.5 * b, 200);
        let mut rng = StdRng::seed_from_u64(1);
        let tree = RegressionTree::fit(&x, &y, TreeParams::default(), &mut rng);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let sse_mean: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
        let sse_tree: f64 = (0..x.n_rows())
            .map(|r| (tree.predict_row(x.row(r)) - y[r]).powi(2))
            .sum();
        assert!(sse_tree < sse_mean * 0.05, "{sse_tree} vs {sse_mean}");
    }

    #[test]
    fn categorical_splits_use_equality() {
        let ds = Dataset::builder()
            .categorical_from_str("c", &["a", "b", "c", "a", "b", "c", "a", "b"])
            .build()
            .unwrap();
        let x = FeatureMatrix::from_dataset(&ds);
        // Target depends only on whether c == "b" (code 1).
        let y: Vec<f64> = (0..8)
            .map(|r| if x.row(r)[0] == 1.0 { 10.0 } else { 0.0 })
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let tree = RegressionTree::fit(&x, &y, TreeParams::default(), &mut rng);
        for r in 0..8 {
            assert_eq!(tree.predict_row(x.row(r)), y[r]);
        }
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = xy(|a, b| a * b, 300);
        let mut rng = StdRng::seed_from_u64(3);
        let stump = RegressionTree::fit(
            &x,
            &y,
            TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!(stump.n_nodes() <= 3);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let (x, _) = xy(|_, _| 0.0, 50);
        let y = vec![3.5; 50];
        let mut rng = StdRng::seed_from_u64(4);
        let tree = RegressionTree::fit(&x, &y, TreeParams::default(), &mut rng);
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_row(x.row(0)), 3.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xy(|a, b| a - b, 120);
        let t1 = RegressionTree::fit(&x, &y, TreeParams::default(), &mut StdRng::seed_from_u64(5));
        let t2 = RegressionTree::fit(&x, &y, TreeParams::default(), &mut StdRng::seed_from_u64(5));
        for r in 0..x.n_rows() {
            assert_eq!(t1.predict_row(x.row(r)), t2.predict_row(x.row(r)));
        }
    }
}
