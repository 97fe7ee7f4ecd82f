//! Sharded counting: rows partitioned across shard-local ranked indexes,
//! pattern counts merged additively.
//!
//! Both quantities the detection engines consume are **additive over
//! disjoint row partitions**: `s_D(p)` is a sum of per-partition match
//! counts, and — because the partition is by *contiguous rank blocks* —
//! the global top-`k` prefix splits into per-shard prefixes, so
//! `s_Rk(p)` is a sum too. Concretely, for shard `s` spanning global rank
//! positions `[lo_s, hi_s)`:
//!
//! ```text
//! counts(p, k) = Σ_s  shard_s.counts(p, clamp(k, lo_s, hi_s) − lo_s)
//! ```
//!
//! This is the whole trick: each shard is an ordinary [`RankedIndex`]
//! over its block of the rank order, [`ShardedIndex::counts`] reduces the
//! per-shard fused counts with two additions per shard, and the engines
//! run unchanged behind the [`CountsProvider`] surface. Per-shard
//! counting fans out over scoped threads when the universe is large
//! enough for the scan to dominate the spawn cost.

use rankfair_data::{Dataset, TupleId, ValueCode};
use rankfair_rank::Ranking;

use crate::pattern::Pattern;
use crate::space::{AttrId, CountsProvider, PatternSpace, RankedIndex};

/// Rows partitioned into contiguous rank blocks, one [`RankedIndex`] per
/// block, with `counts(p, k)` an additive merge of the per-shard counts.
///
/// Built by [`ShardedIndex::build`]; drop-in for [`RankedIndex`] anywhere
/// a [`CountsProvider`] is accepted (every engine, the audit tasks, the
/// report enrichment). A single-shard instance degenerates to exactly the
/// unsharded index.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    n: usize,
    /// `boundaries[s]..boundaries[s+1]` is shard `s`'s global rank span;
    /// `boundaries[0] == 0`, `boundaries[last] == n`. Spans may be empty
    /// when there are more shards than rows.
    boundaries: Vec<usize>,
    shards: Vec<RankedIndex>,
    /// Fan counting out over scoped threads: decided once at build time —
    /// more than one non-empty shard, a universe large enough that the
    /// per-shard scan dominates thread spawn cost, and more than one core.
    parallel: bool,
}

/// Split `n` rank positions into `shards` contiguous blocks whose sizes
/// differ by at most one (the first `n % shards` blocks get the extra
/// row). Returns the `shards + 1` block boundaries.
fn shard_boundaries(n: usize, shards: usize) -> Vec<usize> {
    let base = n / shards;
    let rem = n % shards;
    let mut boundaries = Vec::with_capacity(shards + 1);
    let mut at = 0;
    boundaries.push(at);
    for s in 0..shards {
        at += base + usize::from(s < rem);
        boundaries.push(at);
    }
    boundaries
}

impl ShardedIndex {
    /// Universe size below which per-shard counting stays sequential: a
    /// sub-64Ki-row scan finishes in the time a thread spawn costs.
    pub const PARALLEL_MIN_ROWS: usize = 1 << 16;

    /// Builds `shards` shard-local indexes over contiguous blocks of the
    /// rank order. Shard sizes differ by at most one row; `shards` may
    /// exceed the row count, leaving trailing shards empty.
    ///
    /// # Panics
    /// Panics if `shards == 0` or the ranking length differs from the
    /// dataset.
    pub fn build(ds: &Dataset, space: &PatternSpace, ranking: &Ranking, shards: usize) -> Self {
        assert_eq!(
            ranking.len(),
            ds.n_rows(),
            "ranking must cover every dataset row"
        );
        Self::build_from_order(ds, space, ranking.order(), shards)
    }

    /// [`ShardedIndex::build`] over a raw rank order (the monitor-free
    /// path used by tests and benches).
    pub fn build_from_order(
        ds: &Dataset,
        space: &PatternSpace,
        order: &[TupleId],
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        let n = order.len();
        let boundaries = shard_boundaries(n, shards);
        let spans: Vec<(usize, usize)> = boundaries.windows(2).map(|w| (w[0], w[1])).collect();
        let many_cores = std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;
        let build_parallel = shards > 1 && many_cores && n >= Self::PARALLEL_MIN_ROWS;
        let shard_indexes: Vec<RankedIndex> = if build_parallel {
            let mut slots: Vec<Option<RankedIndex>> = (0..shards).map(|_| None).collect();
            std::thread::scope(|scope| {
                for (slot, &(lo, hi)) in slots.iter_mut().zip(&spans) {
                    scope.spawn(move || {
                        *slot = Some(RankedIndex::build_from_order(ds, space, &order[lo..hi]));
                    });
                }
            });
            // lint:allow(panic-reachability) -- thread::scope joins every worker before returning, so each slot was written; a panicked worker re-raises inside scope() first
            slots.into_iter().map(|s| s.expect("shard built")).collect()
        } else {
            spans
                .iter()
                .map(|&(lo, hi)| RankedIndex::build_from_order(ds, space, &order[lo..hi]))
                .collect()
        };
        let non_empty = spans.iter().filter(|&&(lo, hi)| hi > lo).count();
        ShardedIndex {
            n,
            boundaries,
            shards: shard_indexes,
            parallel: non_empty > 1 && many_cores && n >= Self::PARALLEL_MIN_ROWS,
        }
    }

    /// Number of tuples across all shards.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard row counts.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.boundaries.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// The global top-`k` prefix restricted to shard `s`: its length
    /// within the shard's span.
    fn local_k(&self, s: usize, k: usize) -> usize {
        k.clamp(self.boundaries[s], self.boundaries[s + 1]) - self.boundaries[s]
    }

    /// `(s_D(p), s_Rk(p))` as the additive merge of per-shard fused
    /// counts — the identity in the module docs. Fans out over scoped
    /// threads for large universes, one thread per non-empty shard.
    pub fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        if self.shards.len() == 1 {
            return self.shards[0].counts(p, k);
        }
        if self.parallel {
            let mut partials: Vec<(usize, usize)> = vec![(0, 0); self.shards.len()];
            std::thread::scope(|scope| {
                for (s, (shard, slot)) in self.shards.iter().zip(partials.iter_mut()).enumerate() {
                    if shard.n() == 0 {
                        continue;
                    }
                    let local_k = self.local_k(s, k);
                    scope.spawn(move || *slot = shard.counts(p, local_k));
                }
            });
            partials
                .into_iter()
                .fold((0, 0), |(sd, topk), (s_sd, s_topk)| {
                    (sd + s_sd, topk + s_topk)
                })
        } else {
            self.shards
                .iter()
                .enumerate()
                .fold((0, 0), |(sd, topk), (s, shard)| {
                    let (s_sd, s_topk) = shard.counts(p, self.local_k(s, k));
                    (sd + s_sd, topk + s_topk)
                })
        }
    }

    /// `s_D(p)` alone.
    pub fn size_in_data(&self, p: &Pattern) -> usize {
        self.counts(p, 0).0
    }

    /// `s_Rk(p)` alone: only the shards whose span overlaps the top-`k`
    /// prefix are consulted, each with a truncated prefix scan — shards
    /// entirely past `k` contribute nothing and are skipped outright.
    pub fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        self.shards
            .iter()
            .enumerate()
            .take_while(|&(s, _)| self.boundaries[s] < k)
            .map(|(s, shard)| shard.prefix_count(p, self.local_k(s, k)))
            .sum()
    }

    /// Value of `attr` for the tuple at **global** rank position `pos`:
    /// locates the owning shard by boundary search, then reads the
    /// shard-local position.
    pub fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        // First boundary strictly above `pos`, minus one, is the owning
        // shard; repeated boundaries (empty shards) resolve past them.
        let s = self.boundaries.partition_point(|&b| b <= pos) - 1;
        self.shards[s].code_at(pos - self.boundaries[s], attr)
    }

    /// Whether the tuple at global rank position `pos` satisfies `p`.
    pub fn matches_at(&self, pos: usize, p: &Pattern) -> bool {
        p.matches(|a| self.code_at(pos, a))
    }
}

impl CountsProvider for ShardedIndex {
    fn n(&self) -> usize {
        ShardedIndex::n(self)
    }

    fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        ShardedIndex::counts(self, p, k)
    }

    /// The additive merge of per-shard child counts: each shard counts
    /// the whole expansion on its block, so a large universe fans out
    /// over threads once per expansion, not once per child.
    fn child_counts(
        &self,
        parent: &Pattern,
        start: AttrId,
        k: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        if self.shards.len() == 1 {
            return self.shards[0].child_counts(parent, start, k, out);
        }
        let mut partials: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.shards.len()];
        if self.parallel {
            std::thread::scope(|scope| {
                for (s, (shard, slot)) in self.shards.iter().zip(partials.iter_mut()).enumerate() {
                    // An empty shard contributes zeros; its empty slot adds
                    // nothing in the merge below.
                    if shard.n() == 0 {
                        continue;
                    }
                    let local_k = self.local_k(s, k);
                    scope.spawn(move || shard.child_counts(parent, start, local_k, slot));
                }
            });
        } else {
            for (s, (shard, slot)) in self.shards.iter().zip(partials.iter_mut()).enumerate() {
                shard.child_counts(parent, start, self.local_k(s, k), slot);
            }
        }
        // Every non-empty shard reports every child, so the longest
        // partial fixes the child count.
        let base = out.len();
        out.resize(
            base + partials.iter().map(Vec::len).max().unwrap_or(0),
            (0, 0),
        );
        for part in &partials {
            for (o, &(sd, topk)) in out[base..].iter_mut().zip(part) {
                o.0 += sd;
                o.1 += topk;
            }
        }
    }

    fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        ShardedIndex::code_at(self, pos, attr)
    }

    fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        ShardedIndex::prefix_count(self, p, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};

    fn fig1_sharded(shards: usize) -> (PatternSpace, RankedIndex, ShardedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let single = RankedIndex::build(&ds, &space, &ranking);
        let sharded = ShardedIndex::build(&ds, &space, &ranking, shards);
        (space, single, sharded)
    }

    #[test]
    fn boundaries_cover_and_balance() {
        assert_eq!(shard_boundaries(16, 1), vec![0, 16]);
        assert_eq!(shard_boundaries(16, 3), vec![0, 6, 11, 16]);
        assert_eq!(shard_boundaries(2, 4), vec![0, 1, 2, 2, 2]);
        assert_eq!(shard_boundaries(0, 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn merged_counts_equal_single_index_all_patterns_all_k() {
        for shards in [1, 2, 3, 5, 16, 20] {
            let (space, single, sharded) = fig1_sharded(shards);
            assert_eq!(sharded.n(), 16);
            assert_eq!(sharded.shard_count(), shards);
            for a in 0..space.n_attrs() as AttrId {
                for v in 0..space.card(a) as u16 {
                    let p = Pattern::single(a, v);
                    for k in 0..=16 {
                        assert_eq!(
                            sharded.counts(&p, k),
                            single.counts(&p, k),
                            "shards={shards} a={a} v={v} k={k}"
                        );
                    }
                }
            }
            assert_eq!(
                sharded.counts(&Pattern::empty(), 5),
                single.counts(&Pattern::empty(), 5)
            );
        }
    }

    #[test]
    fn prefix_count_matches_fused_merge_all_shard_counts() {
        for shards in [1, 2, 3, 5, 16, 25] {
            let (space, single, sharded) = fig1_sharded(shards);
            for a in 0..space.n_attrs() as AttrId {
                for v in 0..space.card(a) as u16 {
                    let p = Pattern::single(a, v);
                    for k in 0..=16 {
                        assert_eq!(
                            sharded.prefix_count(&p, k),
                            single.counts(&p, k).1,
                            "shards={shards} a={a} v={v} k={k}"
                        );
                    }
                }
            }
            assert_eq!(sharded.prefix_count(&Pattern::empty(), 5), 5);
        }
    }

    #[test]
    fn child_counts_merge_equals_per_child_counts() {
        // 25 shards over 16 rows leaves 9 of them empty.
        let ks: Vec<usize> = (0..=18).collect();
        for shards in [1, 2, 3, 7, 25] {
            let (space, single, sharded) = fig1_sharded(shards);
            crate::space::assert_child_counts_match(&sharded, &single, &space, &ks);
        }
    }

    #[test]
    fn child_counts_fan_out_matches_unsharded() {
        // Past PARALLEL_MIN_ROWS the shards count on scoped threads (on a
        // multi-core host); the merge must not care which path ran.
        let rows = ShardedIndex::PARALLEL_MIN_ROWS + 5;
        let spec = rankfair_synth::RandomSpec {
            rows,
            attrs: 3,
            max_card: 3,
        };
        let ds = rankfair_synth::random_dataset(5, spec);
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(rankfair_synth::random_ranking(5, rows)).unwrap();
        let single = RankedIndex::build(&ds, &space, &ranking);
        let sharded = ShardedIndex::build(&ds, &space, &ranking, 3);
        let ks = [0, 1, 64, rows / 3 + 1, rows - 1, rows];
        crate::space::assert_child_counts_match(&sharded, &single, &space, &ks);
    }

    #[test]
    fn code_at_resolves_across_shard_boundaries() {
        for shards in [2, 3, 7, 16, 25] {
            let (space, single, sharded) = fig1_sharded(shards);
            for pos in 0..16 {
                for a in 0..space.n_attrs() as AttrId {
                    assert_eq!(
                        sharded.code_at(pos, a),
                        single.code_at(pos, a),
                        "shards={shards} pos={pos} a={a}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_shards_than_rows_leaves_empty_shards() {
        let (_space, single, sharded) = fig1_sharded(25);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 16);
        assert_eq!(sharded.shard_sizes().iter().filter(|&&s| s == 0).count(), 9);
        let p = Pattern::single(1, 0);
        assert_eq!(sharded.counts(&p, 4), single.counts(&p, 4));
    }

    #[test]
    fn k_smaller_than_first_shard_slice() {
        // With 2 shards of 8, k = 3 lies inside the first shard: every
        // other shard must contribute a zero prefix count.
        let (space, single, sharded) = fig1_sharded(2);
        let p = space.pattern(&[("School", "GP")]).unwrap();
        assert_eq!(sharded.counts(&p, 3), single.counts(&p, 3));
        assert_eq!(sharded.counts(&p, 0), single.counts(&p, 0));
    }
}
