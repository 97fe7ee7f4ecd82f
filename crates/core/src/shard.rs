//! Sharded counting: row ids partitioned into contiguous blocks of
//! membership maps, `s_D` merged additively, one global rank side.
//!
//! `s_D(p)` is **additive over disjoint row partitions**: for shards `s`
//! covering row ids `[lo_s, hi_s)`,
//!
//! ```text
//! s_D(p) = Σ_s  s_D,s(p)
//! ```
//!
//! where `s_D,s` counts `p` in shard `s`'s membership maps. Those maps
//! take no ranking, so a shard is the same whatever the order. `s_Rk(p)`
//! and the codes at rank positions come from one global set of rank
//! blocks, built on first read from the order and the shards' maps, as
//! in [`RankedIndex`](crate::RankedIndex). [`ShardedIndex::counts`] and
//! [`CountsProvider::child_counts`] sum the shards' `s_D` and read `s_Rk`
//! once; the engines run unchanged behind the [`CountsProvider`] surface.
//! The shards' counting fans out over scoped threads when each shard is
//! large enough for its scan to dominate the spawn cost.

use std::ops::Range;

use rankfair_data::{Dataset, TupleId, ValueCode};
use rankfair_rank::Ranking;

use crate::pattern::Pattern;
use crate::space::{AttrId, CountsProvider, MembershipMaps, PatternSpace, RankBlocks};

/// Row ids partitioned into contiguous blocks, one set of membership maps
/// per block, with `s_D` an additive merge of the per-shard counts and
/// `s_Rk` read from one global set of rank blocks.
///
/// Built by [`ShardedIndex::build`]; drop-in for
/// [`RankedIndex`](crate::RankedIndex) anywhere a [`CountsProvider`] is
/// accepted (every engine, the audit tasks, the report enrichment). A
/// single-shard instance counts exactly as the unsharded index.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    /// `boundaries[s]..boundaries[s+1]` is shard `s`'s block of row ids;
    /// `boundaries[0] == 0`, `boundaries[last] == n`. Blocks may be empty
    /// when there are more shards than rows.
    boundaries: Vec<usize>,
    shards: Vec<MembershipMaps>,
    rank: RankBlocks,
    /// Fan counting out over scoped threads: decided once at build time —
    /// more than one shard, enough rows per shard that its scan dominates
    /// thread spawn cost, and more than one core.
    parallel: bool,
}

/// Split `n` row ids into `shards` contiguous blocks whose sizes differ by
/// at most one (the first `n % shards` blocks get the extra row). Returns
/// the `shards + 1` block boundaries.
pub(crate) fn shard_boundaries(n: usize, shards: usize) -> Vec<usize> {
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
    /// Rows per shard below which counting stays sequential: a
    /// sub-64Ki-row scan finishes in the time a thread spawn costs. The
    /// build fans out once the whole table reaches it.
    pub const PARALLEL_MIN_ROWS: usize = 1 << 16;

    /// Builds `shards` sets of membership maps over contiguous blocks of
    /// row ids, and the global rank side of `ranking`, which reads its
    /// rows from the shared ranking as
    /// [`RankedIndex::build`](crate::RankedIndex::build) does. Shard sizes
    /// differ by at most one row; `shards` may exceed the row count,
    /// leaving trailing shards empty.
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
        Self::with_rank_side(ds, space, RankBlocks::shared(space, ranking), shards)
    }

    /// [`ShardedIndex::build`] over a raw rank order, copied (the
    /// monitor-free path used by tests and benches).
    ///
    /// # Panics
    /// Panics if `shards == 0` or `order` does not rank every row of `ds`
    /// (its length differs).
    pub fn build_from_order(
        ds: &Dataset,
        space: &PatternSpace,
        order: &[TupleId],
        shards: usize,
    ) -> Self {
        assert_eq!(
            order.len(),
            ds.n_rows(),
            "order must rank every dataset row"
        );
        Self::with_rank_side(ds, space, RankBlocks::owned(space, order), shards)
    }

    /// The shards' membership maps over `ds`'s rows, next to `rank`.
    fn with_rank_side(ds: &Dataset, space: &PatternSpace, rank: RankBlocks, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        let n = rank.n();
        let boundaries = shard_boundaries(n, shards);
        let spans: Vec<Range<usize>> = boundaries.windows(2).map(|w| w[0]..w[1]).collect();
        let many_cores = std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;
        let build_parallel = shards > 1 && many_cores && n >= Self::PARALLEL_MIN_ROWS;
        let shard_maps: Vec<MembershipMaps> = if build_parallel {
            let mut slots: Vec<Option<MembershipMaps>> = (0..shards).map(|_| None).collect();
            std::thread::scope(|scope| {
                for (slot, span) in slots.iter_mut().zip(&spans) {
                    scope.spawn(move || {
                        *slot = Some(MembershipMaps::build(ds, space, span.clone()))
                    });
                }
            });
            // lint:allow(panic-reachability) -- thread::scope joins every worker before returning, so each slot was written; a panicked worker re-raises inside scope() first
            slots.into_iter().map(|s| s.expect("shard built")).collect()
        } else {
            spans
                .iter()
                .map(|span| MembershipMaps::build(ds, space, span.clone()))
                .collect()
        };
        ShardedIndex {
            boundaries,
            shards: shard_maps,
            rank,
            parallel: shards > 1 && many_cores && n / shards >= Self::PARALLEL_MIN_ROWS,
        }
    }

    /// Number of tuples across all shards.
    pub fn n(&self) -> usize {
        self.rank.n()
    }

    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard row counts.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.boundaries.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// A row's codes from the membership maps of the shard holding it, for
    /// building rank blocks.
    fn row_codes(&self) -> impl Fn(usize, &mut [ValueCode]) + '_ {
        |row, out| {
            // First boundary strictly above `row`, minus one, is the
            // owning shard; repeated boundaries (empty shards) resolve
            // past them.
            let s = self.boundaries.partition_point(|&b| b <= row) - 1;
            self.shards[s].codes_of(row - self.boundaries[s], out);
        }
    }

    /// `(s_D(p), s_Rk(p))`: the additive merge of the shards' `s_D` (the
    /// identity in the module docs) and the global rank blocks' `s_Rk`.
    pub fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        (self.size_in_data(p), self.prefix_count(p, k))
    }

    /// `s_D(p)` alone, summed over the shards. Fans out over scoped
    /// threads for large shards, one thread per shard.
    pub fn size_in_data(&self, p: &Pattern) -> usize {
        if !self.parallel {
            return self.shards.iter().map(|shard| shard.size(p)).sum();
        }
        let mut partials = vec![0; self.shards.len()];
        std::thread::scope(|scope| {
            for (shard, slot) in self.shards.iter().zip(partials.iter_mut()) {
                scope.spawn(move || *slot = shard.size(p));
            }
        });
        partials.into_iter().sum()
    }

    /// `s_Rk(p)` alone, from the global rank blocks below `k`.
    pub fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        self.rank.prefix_count(p, k, &self.row_codes())
    }

    /// Value of `attr` for the tuple at rank position `pos`, from the
    /// global rank blocks.
    pub fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        self.rank.code_at(pos, attr, &self.row_codes())
    }

    /// Whether the tuple at rank position `pos` satisfies `p`.
    pub fn matches_at(&self, pos: usize, p: &Pattern) -> bool {
        p.matches(|a| self.code_at(pos, a))
    }

    /// Number of rank blocks built so far.
    #[cfg(test)]
    pub(crate) fn built_rank_blocks(&self) -> usize {
        self.rank.built()
    }
}

impl CountsProvider for ShardedIndex {
    fn n(&self) -> usize {
        ShardedIndex::n(self)
    }

    fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        ShardedIndex::counts(self, p, k)
    }

    /// The additive merge of per-shard child sizes — each shard counts the
    /// whole expansion on its rows, so large shards fan out over threads
    /// once per expansion, not once per child — then `s_Rk` of every child
    /// from the global rank blocks.
    fn child_counts(
        &self,
        parent: &Pattern,
        start: AttrId,
        k: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        let base = out.len();
        if let [shard] = &self.shards[..] {
            shard.child_sizes(parent, start, out);
        } else {
            let mut partials: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.shards.len()];
            if self.parallel {
                std::thread::scope(|scope| {
                    for (shard, slot) in self.shards.iter().zip(partials.iter_mut()) {
                        scope.spawn(move || shard.child_sizes(parent, start, slot));
                    }
                });
            } else {
                for (shard, slot) in self.shards.iter().zip(partials.iter_mut()) {
                    shard.child_sizes(parent, start, slot);
                }
            }
            // Every shard reports every child, so the first partial fixes
            // the child count.
            out.resize(base + partials[0].len(), (0, 0));
            for part in &partials {
                for (o, &(size, _)) in out[base..].iter_mut().zip(part) {
                    o.0 += size;
                }
            }
        }
        self.rank
            .add_child_prefix(parent, start, k, &mut out[base..], &self.row_codes());
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
    use crate::space::RankedIndex;
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
        // A card-1 attribute, whose only child each shard derives from its
        // parent alone; 50 shards over 40 rows leaves 10 of them empty.
        let (ds, space, order) = crate::space::partition_instance(40);
        let single = RankedIndex::build_from_order(&ds, &space, &order);
        let ks: Vec<usize> = (0..=42).collect();
        for shards in [3, 50] {
            let sharded = ShardedIndex::build_from_order(&ds, &space, &order, shards);
            crate::space::assert_child_counts_match(&sharded, &single, &space, &ks);
        }
    }

    #[test]
    fn child_counts_fan_out_matches_unsharded() {
        // At PARALLEL_MIN_ROWS rows per shard the shards count on scoped
        // threads (on a multi-core host); the merge must not care which
        // path ran.
        let rows = 3 * ShardedIndex::PARALLEL_MIN_ROWS + 5;
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
        let many_cores = std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;
        assert_eq!(sharded.parallel, many_cores);
        assert!(!ShardedIndex::build(&ds, &space, &ranking, 4).parallel);
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
        // With 2 shards of 8 rows, k = 3 is below the first shard's size:
        // the top-3 prefix still holds rows of both shards.
        let (space, single, sharded) = fig1_sharded(2);
        let p = space.pattern(&[("School", "GP")]).unwrap();
        assert_eq!(sharded.counts(&p, 3), single.counts(&p, 3));
        assert_eq!(sharded.counts(&p, 0), single.counts(&p, 0));
    }
}
