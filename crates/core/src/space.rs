use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use rankfair_data::{
    and_counts, intersect_counts_iter, intersect_into, Bitmap, Dataset, TupleId, ValueCode,
};
use rankfair_rank::Ranking;

use crate::pattern::Pattern;

/// Index of an attribute within a [`PatternSpace`] (not a dataset column
/// index — the space may select a subset of the dataset’s columns).
pub type AttrId = u16;

/// Error raised when constructing a [`PatternSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// The referenced dataset column is not categorical.
    NotCategorical(String),
    /// No categorical columns were available.
    Empty,
    /// A referenced column does not exist.
    UnknownColumn(String),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::NotCategorical(c) => {
                write!(f, "column `{c}` is not categorical")
            }
            SpaceError::Empty => write!(f, "no categorical attributes"),
            SpaceError::UnknownColumn(c) => write!(f, "no column named `{c}`"),
        }
    }
}

impl std::error::Error for SpaceError {}

#[derive(Debug, Clone)]
struct AttrInfo {
    name: String,
    labels: Vec<String>,
}

/// The set of attributes over which patterns are defined, in the fixed
/// order that drives the search tree of Definition 4.1.
#[derive(Debug, Clone)]
pub struct PatternSpace {
    attrs: Vec<AttrInfo>,
    dataset_cols: Vec<usize>,
}

impl PatternSpace {
    /// Builds a space over **all** categorical columns of `ds`, in
    /// declaration order.
    pub fn from_dataset(ds: &Dataset) -> Result<Self, SpaceError> {
        let cols = ds.categorical_columns();
        Self::from_columns(ds, &cols)
    }

    /// Builds a space over the given dataset columns (all must be
    /// categorical). The order of `cols` fixes the attribute order.
    pub fn from_columns(ds: &Dataset, cols: &[usize]) -> Result<Self, SpaceError> {
        if cols.is_empty() {
            return Err(SpaceError::Empty);
        }
        let mut attrs = Vec::with_capacity(cols.len());
        for &c in cols {
            let col = ds.column(c);
            match col.data() {
                rankfair_data::ColumnData::Categorical { labels, .. } => attrs.push(AttrInfo {
                    name: col.name().to_string(),
                    labels: labels.clone(),
                }),
                _ => return Err(SpaceError::NotCategorical(col.name().to_string())),
            }
        }
        Ok(PatternSpace {
            attrs,
            dataset_cols: cols.to_vec(),
        })
    }

    /// Builds a space from column names.
    pub fn from_column_names(ds: &Dataset, names: &[&str]) -> Result<Self, SpaceError> {
        let cols: Result<Vec<usize>, SpaceError> = names
            .iter()
            .map(|n| {
                ds.column_index(n)
                    .ok_or_else(|| SpaceError::UnknownColumn((*n).to_string()))
            })
            .collect();
        Self::from_columns(ds, &cols?)
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Cardinality of attribute `a`.
    pub fn card(&self, a: AttrId) -> usize {
        self.attrs[usize::from(a)].labels.len()
    }

    /// All attribute ids, typed — the checked replacement for the old
    /// `0..n_attrs() as u16` loops (a bare cast would wrap past
    /// `u16::MAX` attributes instead of failing).
    pub fn attr_ids(&self) -> std::ops::Range<AttrId> {
        0..AttrId::try_from(self.attrs.len()).expect("attribute count fits AttrId")
    }

    /// All value codes of attribute `a`, typed — the checked
    /// replacement for the old `0..card(a) as u16` loops. The data
    /// layer's dictionary cap reserves `ValueCode::MAX`, so every real
    /// cardinality fits.
    pub fn value_codes(&self, a: AttrId) -> std::ops::Range<ValueCode> {
        0..ValueCode::try_from(self.card(a)).expect("dictionary cap keeps cardinality in ValueCode")
    }

    /// Name of attribute `a`.
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.attrs[usize::from(a)].name
    }

    /// The `(a, v)` bindings of a search-tree node's children: every value
    /// of every attribute from `start` on, in the order
    /// [`RankedIndex::child_counts`] reports their counts.
    pub(crate) fn child_bindings(
        &self,
        start: AttrId,
    ) -> impl Iterator<Item = (AttrId, ValueCode)> + '_ {
        (start..self.attr_ids().end).flat_map(move |a| self.value_codes(a).map(move |v| (a, v)))
    }

    /// Label of value `v` of attribute `a`.
    pub fn label(&self, a: AttrId, v: ValueCode) -> &str {
        &self.attrs[usize::from(a)].labels[usize::from(v)]
    }

    /// Dataset column index backing attribute `a`.
    pub fn dataset_col(&self, a: AttrId) -> usize {
        self.dataset_cols[usize::from(a)]
    }

    /// Attribute id for the attribute named `name`, if present.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| i as AttrId)
    }

    /// Builds a pattern from `(attribute name, value label)` pairs.
    ///
    /// Returns `None` if a name or label is unknown, or an attribute
    /// repeats.
    pub fn pattern(&self, pairs: &[(&str, &str)]) -> Option<Pattern> {
        let mut terms = Vec::with_capacity(pairs.len());
        for &(name, label) in pairs {
            let a = self.attr_by_name(name)?;
            let v = self.attrs[usize::from(a)]
                .labels
                .iter()
                .position(|l| l == label)? as ValueCode;
            terms.push((a, v));
        }
        Pattern::from_terms(terms)
    }

    /// Renders a pattern as `{Attr=label, …}`.
    pub fn display(&self, p: &Pattern) -> String {
        let mut out = String::from("{");
        for (i, &(a, v)) in p.terms().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(self.attr_name(a));
            out.push('=');
            out.push_str(self.label(a, v));
        }
        out.push('}');
        out
    }

    /// Total number of non-empty patterns, `∏(card+1) − 1` — the size of
    /// the pattern graph. Saturates at `u64::MAX`.
    pub fn pattern_graph_size(&self) -> u64 {
        let mut total: u64 = 1;
        for a in &self.attrs {
            total = total.saturating_mul(a.labels.len() as u64 + 1);
        }
        total - 1
    }
}

/// Rank positions per rank block.
const BLOCK_LEN: usize = 64;

/// One bitmap per (attribute, value) over a contiguous block of row ids in
/// **dataset order**: bit `i` of `maps[a][v]` is set when the block's row
/// `i` has value `v` of attribute `a`. No ranking goes into them, so a
/// reorder never touches them, and `s_D` is read from them alone.
///
/// Every row holds exactly one value of every attribute, so an
/// attribute's maps partition the rows; [`MembershipMaps::child_sizes`] derives
/// each attribute's last child by subtraction.
#[derive(Debug, Clone)]
struct MembershipMaps {
    rows: usize,
    maps: Vec<Vec<Bitmap>>,
}

impl MembershipMaps {
    /// The maps of `ds`'s rows `rows`, each attribute's built from its
    /// column's code slice by [`Bitmap::per_value`].
    ///
    /// # Panics
    /// Panics if a code exceeds the space's cardinalities.
    fn build(ds: &Dataset, space: &PatternSpace, rows: Range<usize>) -> Self {
        let maps = space
            .attr_ids()
            .map(|a| {
                let codes = &ds.column(space.dataset_col(a)).code_slice()[rows.clone()];
                let card = space.card(a);
                let max = codes.iter().copied().max();
                assert!(
                    max.is_none_or(|v| usize::from(v) < card),
                    "code out of range for attribute"
                );
                Bitmap::per_value(codes, card)
            })
            .collect();
        MembershipMaps {
            rows: rows.len(),
            maps,
        }
    }

    /// The maps of `p`'s terms.
    fn term_maps<'s>(&'s self, p: &'s Pattern) -> impl Iterator<Item = &'s Bitmap> + Clone {
        p.terms()
            .iter()
            .map(|&(a, v)| &self.maps[usize::from(a)][usize::from(v)])
    }

    /// `s_D(p)` over these rows.
    fn size(&self, p: &Pattern) -> usize {
        intersect_counts_iter(self.term_maps(p), self.rows)
    }

    /// Appends `(s_D(child), 0)` over these rows for every child of
    /// `parent` with `a ≥ start`, in `(a, v)` order; `skip` holds one flag
    /// per child, and a skipped child gets a `(0, 0)` placeholder and no
    /// AND pass. ANDs the parent's maps once and counts the parent from
    /// that buffer, then counts each unskipped child with one two-operand
    /// pass over the buffer and the child's own map. An attribute's last
    /// child is the parent's size minus its siblings' when every sibling
    /// was counted, and is counted directly otherwise.
    fn child_sizes(
        &self,
        parent: &Pattern,
        start: AttrId,
        skip: &[bool],
        out: &mut Vec<(usize, usize)>,
    ) {
        let mut words = Vec::new();
        let parent_size = intersect_into(self.term_maps(parent), self.rows, &mut words);
        let mut flags = skip;
        for maps in &self.maps[usize::from(start)..] {
            let (attr_skip, rest) = flags.split_at(maps.len());
            flags = rest;
            let (Some((last, maps)), Some((&skip_last, attr_skip))) =
                (maps.split_last(), attr_skip.split_last())
            else {
                continue;
            };
            // The parent's size less every sibling counted so far; `None`
            // once a sibling was skipped.
            let mut remainder = Some(parent_size);
            for (m, &skipped) in maps.iter().zip(attr_skip) {
                if skipped {
                    remainder = None;
                    out.push((0, 0));
                } else {
                    let size = and_counts(&words, m);
                    remainder = remainder.map(|r| r - size);
                    out.push((size, 0));
                }
            }
            out.push(if skip_last {
                (0, 0)
            } else {
                (remainder.unwrap_or_else(|| and_counts(&words, last)), 0)
            });
        }
    }

    /// Writes row `row`'s codes into `out`, one per attribute: the value
    /// whose map holds the row.
    fn codes_of(&self, row: usize, out: &mut [ValueCode]) {
        for (o, maps) in out.iter_mut().zip(&self.maps) {
            // The maps partition the rows: exactly one holds `row`.
            *o = (0..)
                .zip(maps)
                .find_map(|(v, m)| m.get(row).then_some(v))
                .unwrap_or_default();
        }
    }

    /// Appends one row holding `codes`, one per attribute.
    fn push(&mut self, codes: &[ValueCode]) {
        for (maps, &v) in self.maps.iter_mut().zip(codes) {
            debug_assert!(
                usize::from(v) < maps.len(),
                "code out of range for attribute"
            );
            for m in maps.iter_mut() {
                m.push_zero();
            }
            maps[usize::from(v)].set(self.rows);
        }
        self.rows += 1;
    }
}

/// The rank side of an index: the rows in rank order, and one
/// [`RankBlock`] per 64 rank positions, built on first read.
///
/// `s_Rk` at `k`, and the codes of positions below `k`, read only blocks
/// `0..⌈k/64⌉`, so an audit whose `k_max` is 49 builds one block whatever
/// the row count. Blocks are built when read rather than sized up front:
/// an audit learns `k_max` only per run, and a monitor's walks read the
/// positions that tuples leaving the top-`k` fall to. The rows come from
/// the [`Ranking`] the index was built from, shared rather than copied,
/// and a block reads them through [`Ranking::top_k`], so blocks within a
/// lazily sorted ranking's head never finish its sort.
#[derive(Debug, Clone)]
struct RankBlocks {
    /// Number of ranked rows.
    n: usize,
    rows: RankRows,
    /// `value_base[a]` is the first word of attribute `a`'s values in a
    /// block's `words`; the last entry is the word count.
    value_base: Vec<usize>,
    blocks: Vec<OnceLock<RankBlock>>,
}

/// Where rank blocks read their rows: the ranking an index was built
/// from, or an owned order. Only monitors edit the order; the first edit
/// copies a shared ranking's order and owns it from then on.
#[derive(Debug, Clone)]
struct RankRows {
    /// The ranking the rows are read from; `None` once they are owned.
    shared: Option<Ranking>,
    /// The rows in rank order when `shared` is `None`.
    owned: Vec<TupleId>,
}

impl RankRows {
    /// The rows at rank positions `range`.
    fn get(&self, range: Range<usize>) -> &[TupleId] {
        match &self.shared {
            Some(ranking) => &ranking.top_k(range.end)[range.start..],
            None => &self.owned[range],
        }
    }

    /// The rows in rank order, owned: the first call copies a shared
    /// ranking's order.
    fn to_mut(&mut self) -> &mut Vec<TupleId> {
        if let Some(ranking) = self.shared.take() {
            self.owned = ranking.order().to_vec();
        }
        &mut self.owned
    }
}

/// Rank positions `64·b..64·b + 64` of block `b`.
#[derive(Debug, Clone)]
struct RankBlock {
    /// `codes[i·m + a]`: value of attribute `a` at the block's position
    /// `i`; `0` past the last position.
    codes: Vec<ValueCode>,
    /// `words[value_base[a] + v]`: bit `i` is set when the block's
    /// position `i` holds value `v` of attribute `a`.
    words: Vec<u64>,
}

impl RankBlock {
    /// Puts `codes`, one per attribute, at the block's position `i`,
    /// clearing the bits of the values the position held. A position never
    /// written holds code 0 with no bit set, so clearing it changes nothing.
    fn put(&mut self, value_base: &[usize], i: usize, codes: &[ValueCode]) {
        let bit = 1u64 << i;
        let m = codes.len();
        let held = &mut self.codes[i * m..(i + 1) * m];
        for ((old, &new), &base) in held.iter_mut().zip(codes).zip(value_base) {
            self.words[base + usize::from(*old)] &= !bit;
            self.words[base + usize::from(new)] |= bit;
            *old = new;
        }
    }

    /// The block's positions that match `p`, one bit each.
    fn matches(&self, value_base: &[usize], p: &Pattern) -> u64 {
        p.terms().iter().fold(!0, |word, &(a, v)| {
            word & self.words[value_base[usize::from(a)] + usize::from(v)]
        })
    }
}

impl RankBlocks {
    /// Rank blocks reading their rows from `ranking`, shared.
    fn shared(space: &PatternSpace, ranking: &Ranking) -> Self {
        let rows = RankRows {
            shared: Some(ranking.clone()),
            owned: Vec::new(),
        };
        Self::new(space, ranking.len(), rows)
    }

    fn new(space: &PatternSpace, n: usize, rows: RankRows) -> Self {
        let value_base = std::iter::once(0)
            .chain(space.attr_ids().scan(0, |end, a| {
                *end += space.card(a);
                Some(*end)
            }))
            .collect();
        RankBlocks {
            n,
            rows,
            value_base,
            blocks: (0..n.div_ceil(BLOCK_LEN))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Number of ranked rows.
    fn n(&self) -> usize {
        self.n
    }

    fn n_attrs(&self) -> usize {
        self.value_base.len() - 1
    }

    /// Number of search-tree children binding an attribute `≥ start`.
    fn children_from(&self, start: AttrId) -> usize {
        self.value_base[self.n_attrs()] - self.value_base[usize::from(start)]
    }

    /// Block `b`, built on first read: `codes_of(row, out)` writes a
    /// row's codes, one per attribute.
    fn block(&self, b: usize, codes_of: &impl Fn(usize, &mut [ValueCode])) -> &RankBlock {
        self.blocks[b].get_or_init(|| {
            let m = self.n_attrs();
            let mut block = RankBlock {
                codes: vec![0; BLOCK_LEN * m],
                words: vec![0; self.value_base[m]],
            };
            let mut codes = vec![0; m];
            let first = b * BLOCK_LEN;
            let rows = self.rows.get(first..self.n.min(first + BLOCK_LEN));
            for (i, &row) in rows.iter().enumerate() {
                codes_of(row as usize, &mut codes);
                block.put(&self.value_base, i, &codes);
            }
            block
        })
    }

    /// The blocks of the top-`k` prefix, each with the mask of its
    /// positions below `k`.
    fn prefix<'s>(
        &'s self,
        k: usize,
        codes_of: &'s impl Fn(usize, &mut [ValueCode]),
    ) -> impl Iterator<Item = (&'s RankBlock, u64)> + 's {
        let k = k.min(self.n());
        (0..k.div_ceil(BLOCK_LEN)).map(move |b| {
            let below = k - b * BLOCK_LEN;
            let mask = if below >= BLOCK_LEN {
                !0
            } else {
                (1 << below) - 1
            };
            (self.block(b, codes_of), mask)
        })
    }

    /// Value of `attr` at rank position `pos`.
    fn code_at(
        &self,
        pos: usize,
        attr: AttrId,
        codes_of: &impl Fn(usize, &mut [ValueCode]),
    ) -> ValueCode {
        let block = self.block(pos / BLOCK_LEN, codes_of);
        block.codes[pos % BLOCK_LEN * self.n_attrs() + usize::from(attr)]
    }

    /// `s_Rk(p)`.
    fn prefix_count(
        &self,
        p: &Pattern,
        k: usize,
        codes_of: &impl Fn(usize, &mut [ValueCode]),
    ) -> usize {
        self.prefix(k, codes_of)
            .map(|(block, mask)| (block.matches(&self.value_base, p) & mask).count_ones() as usize)
            .sum()
    }

    /// Adds `s_Rk` of every child of `parent` with `a ≥ start` to the
    /// second member of `out`'s entries, in `(a, v)` order: per block, one
    /// AND for the parent, then one AND and popcount per child.
    fn add_child_prefix(
        &self,
        parent: &Pattern,
        start: AttrId,
        k: usize,
        out: &mut [(usize, usize)],
        codes_of: &impl Fn(usize, &mut [ValueCode]),
    ) {
        let first = self.value_base[usize::from(start)];
        for (block, mask) in self.prefix(k, codes_of) {
            let parent_word = block.matches(&self.value_base, parent) & mask;
            for (o, &w) in out.iter_mut().zip(&block.words[first..]) {
                o.1 += (parent_word & w).count_ones() as usize;
            }
        }
    }

    /// Copies `order[lo..=hi]` into the owned rows and patches the
    /// positions `lo..=hi` of the blocks already built; `codes_of` reads
    /// the new occupants' codes.
    fn rewrite(
        &mut self,
        order: &[TupleId],
        lo: usize,
        hi: usize,
        codes_of: &impl Fn(usize, &mut [ValueCode]),
    ) {
        self.rows.to_mut()[lo..=hi].copy_from_slice(&order[lo..=hi]);
        let mut codes = vec![0; self.n_attrs()];
        for b in lo / BLOCK_LEN..=hi / BLOCK_LEN {
            let Some(block) = self.blocks[b].get_mut() else {
                continue;
            };
            let span = lo.max(b * BLOCK_LEN)..=hi.min((b + 1) * BLOCK_LEN - 1);
            for pos in span {
                codes_of(order[pos] as usize, &mut codes);
                block.put(&self.value_base, pos % BLOCK_LEN, &codes);
            }
        }
    }

    /// Appends `row`, holding `codes`, at a new last rank position of the
    /// owned rows.
    fn push(&mut self, row: TupleId, codes: &[ValueCode]) {
        let pos = self.n;
        self.rows.to_mut().push(row);
        self.n += 1;
        if pos.is_multiple_of(BLOCK_LEN) {
            self.blocks.push(OnceLock::new());
        } else if let Some(block) = self.blocks.last_mut().and_then(OnceLock::get_mut) {
            block.put(&self.value_base, pos % BLOCK_LEN, codes);
        }
    }

    /// Number of blocks built so far.
    #[cfg(test)]
    fn built(&self) -> usize {
        self.blocks.iter().filter(|b| b.get().is_some()).count()
    }
}

/// Writes a row's codes, read from `ds`, into `out`, one per attribute of
/// `space`.
fn dataset_codes<'a>(
    ds: &'a Dataset,
    space: &'a PatternSpace,
) -> impl Fn(usize, &mut [ValueCode]) + 'a {
    move |row, out| {
        for (o, a) in out.iter_mut().zip(space.attr_ids()) {
            *o = ds.column(space.dataset_col(a)).code(row);
            debug_assert!(
                usize::from(*o) < space.card(a),
                "code out of range for attribute"
            );
        }
    }
}

/// The counting index: membership maps for `s_D` and rank blocks for
/// `s_Rk`, split along what each count depends on. It is the one count
/// surface the engines, the baseline and the report read; an
/// [`AuditIndex`](crate::AuditIndex) derefs to it.
///
/// * `s_D(pattern)` = popcount of the AND of the pattern's membership
///   maps, one bitmap per (attribute, value) over row ids in dataset
///   order. No ranking goes into them.
/// * `s_Rk(pattern)` and the value of an attribute at rank position `pos`
///   ([`RankedIndex::code_at`], which feeds the incremental walk: the
///   tuple entering the top-`k` when `k` grows by one is position `k`)
///   come from the rank blocks of the top-`k` prefix. A rank block holds
///   64 positions' codes and one word per (attribute, value), and is
///   built on first read from the rank order and the membership maps.
///   An audit over `k ≤ 64` therefore builds one block, whatever the row
///   count; an audit whose `k_max` nears `n` builds them all, and the
///   layout is then a rank-order index plus the membership maps.
///
/// The membership maps are held as one or more contiguous row blocks
/// (shards, [`RankedIndex::sharded`]). `s_D` counts rows, so it is
/// additive over any partition of them: for blocks covering row ids
/// `[lo_s, hi_s)`,
///
/// ```text
/// s_D(p) = Σ_s  s_D,s(p)
/// ```
///
/// where `s_D,s` counts `p` in block `s`'s maps. The rank side is one
/// global set of rank blocks whatever the row blocks. A large sharded
/// build builds its blocks on scoped threads, one per block; counts read
/// the blocks one after another on the calling thread.
///
/// Both counts come one pattern at a time ([`RankedIndex::counts`]) or
/// for all children of a search node at once
/// ([`RankedIndex::child_counts`]). Every row holds exactly one value
/// of every attribute, so an attribute's membership maps partition the
/// rows, and `child_counts` derives each attribute's last `s_D` by
/// subtraction. Every count is valid at every `k`, after every
/// [`RankedIndex::grow`] and [`RankedIndex::rewrite_span`].
#[derive(Debug, Clone)]
pub struct RankedIndex {
    /// `bounds[s]..bounds[s + 1]` is row block `s`'s row ids;
    /// `bounds[0] == 0` and the last entry is `n`. Blocks may be empty
    /// when there are more blocks than rows.
    bounds: Vec<usize>,
    /// One set of membership maps per row block.
    data: Vec<MembershipMaps>,
    rank: RankBlocks,
}

/// Split `n` row ids into `blocks` contiguous blocks whose sizes differ by
/// at most one (the first `n % blocks` blocks get the extra row). Returns
/// the `blocks + 1` block boundaries.
fn shard_boundaries(n: usize, blocks: usize) -> Vec<usize> {
    let base = n / blocks;
    let rem = n % blocks;
    let mut bounds = Vec::with_capacity(blocks + 1);
    let mut at = 0;
    bounds.push(at);
    for s in 0..blocks {
        at += base + usize::from(s < rem);
        bounds.push(at);
    }
    bounds
}

impl RankedIndex {
    /// Rows from which a sharded build builds its row blocks on scoped
    /// threads: at most one per available core, each building a
    /// contiguous run of blocks.
    pub const PARALLEL_MIN_ROWS: usize = 1 << 16;

    /// Builds the index for `ds` under `ranking`, over the attributes of
    /// `space`, with one row block.
    ///
    /// Builds the membership maps from each column's codes and keeps a
    /// handle on `ranking`, whose rows the rank blocks read when a count
    /// first needs them: the order is not copied, and an audit whose
    /// `k_max` stays within the rows a lazily sorted ranking sorted at
    /// construction never finishes its sort. The first
    /// [`RankedIndex::rewrite_span`] or [`RankedIndex::grow`] copies the
    /// order.
    ///
    /// # Panics
    /// Panics if the ranking length differs from the dataset, or codes
    /// exceed the space’s cardinalities.
    pub fn build(ds: &Dataset, space: &PatternSpace, ranking: &Ranking) -> Self {
        Self::sharded(ds, space, ranking, 1)
    }

    /// [`RankedIndex::build`] with the membership maps cut into `shards`
    /// contiguous row blocks whose sizes differ by at most one row;
    /// `shards` may exceed the row count, leaving trailing blocks empty.
    /// Counts are the same as with one block.
    ///
    /// # Panics
    /// Panics if `shards == 0`, the ranking length differs from the
    /// dataset, or codes exceed the space’s cardinalities.
    pub fn sharded(ds: &Dataset, space: &PatternSpace, ranking: &Ranking, shards: usize) -> Self {
        assert_eq!(
            ranking.len(),
            ds.n_rows(),
            "ranking must cover every dataset row"
        );
        Self::with_rank_side(ds, space, RankBlocks::shared(space, ranking), shards)
    }

    /// The membership maps of `ds`'s rows in `shards` row blocks, next to
    /// `rank`.
    fn with_rank_side(ds: &Dataset, space: &PatternSpace, rank: RankBlocks, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        let n = rank.n();
        let bounds = shard_boundaries(n, shards);
        let spans: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(shards));
        let data: Vec<MembershipMaps> = if threads > 1 && n >= Self::PARALLEL_MIN_ROWS {
            let mut slots: Vec<Option<MembershipMaps>> = (0..shards).map(|_| None).collect();
            // One thread per run of `per` consecutive blocks, so a count
            // of blocks past the core count starts no more threads.
            let per = shards.div_ceil(threads);
            std::thread::scope(|scope| {
                for (run, spans) in slots.chunks_mut(per).zip(spans.chunks(per)) {
                    scope.spawn(move || {
                        for (slot, span) in run.iter_mut().zip(spans) {
                            *slot = Some(MembershipMaps::build(ds, space, span.clone()));
                        }
                    });
                }
            });
            // lint:allow(panic-reachability) -- thread::scope joins every worker before returning, so each slot was written; a panicked worker re-raises inside scope() first
            slots.into_iter().map(|s| s.expect("block built")).collect()
        } else {
            spans
                .into_iter()
                .map(|span| MembershipMaps::build(ds, space, span))
                .collect()
        };
        RankedIndex { bounds, data, rank }
    }

    /// Number of tuples.
    pub fn n(&self) -> usize {
        self.rank.n()
    }

    /// Number of row blocks (shards), including empty ones; `1` unless
    /// built by [`RankedIndex::sharded`].
    pub fn shard_count(&self) -> usize {
        self.data.len()
    }

    /// Rows per row block.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.bounds.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// A row's codes from the membership maps of the row block holding
    /// it, for building rank blocks.
    fn row_codes(&self) -> impl Fn(usize, &mut [ValueCode]) + '_ {
        |row, out| {
            // First boundary strictly above `row`, minus one, is the
            // owning block; repeated boundaries (empty blocks) resolve
            // past them.
            let s = self.bounds.partition_point(|&b| b <= row) - 1;
            self.data[s].codes_of(row - self.bounds[s], out);
        }
    }

    /// `(s_D(p), s_Rk(p))` of one pattern: a membership-map count and a
    /// read of the top-`k` rank blocks. The engines evaluate whole
    /// expansions through [`RankedIndex::child_counts`]; this
    /// single-pattern count serves the report, the baseline, the oracle
    /// and tests.
    pub fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        (self.size_in_data(p), self.prefix_count(p, k))
    }

    /// Appends `counts(parent.child(a, v), k)` to `out` for every
    /// search-tree child with `a ≥ start`, in `(a, v)` order (attributes
    /// ascending, then value codes ascending) — the order in which both
    /// engines store a node's children; this is how every fresh expansion
    /// is evaluated. `skip` holds one flag per child in that order: a
    /// skipped child gets no count, and its entry is a placeholder the
    /// caller must not read. `s_D` of every unskipped child comes from the
    /// membership maps (one parent AND, one two-operand pass per child,
    /// each attribute's last child by subtraction when none of its
    /// siblings was skipped), summed over the row blocks, each of which
    /// counts the whole expansion on its rows; then `s_Rk` from the rank
    /// blocks below `k`. With every child skipped nothing is counted, not
    /// even the parent.
    ///
    /// # Panics
    /// Panics unless `skip` holds one flag per child.
    pub fn child_counts(
        &self,
        parent: &Pattern,
        start: AttrId,
        k: usize,
        skip: &[bool],
        out: &mut Vec<(usize, usize)>,
    ) {
        let base = out.len();
        assert_eq!(
            skip.len(),
            self.rank.children_from(start),
            "one skip flag per child"
        );
        if !skip.contains(&false) {
            out.resize(base + skip.len(), (0, 0));
            return;
        }
        if let [maps] = &self.data[..] {
            maps.child_sizes(parent, start, skip, out);
        } else {
            // Every block reports every child.
            out.resize(base + skip.len(), (0, 0));
            let mut part = Vec::with_capacity(skip.len());
            for maps in &self.data {
                part.clear();
                maps.child_sizes(parent, start, skip, &mut part);
                for (o, &(size, _)) in out[base..].iter_mut().zip(&part) {
                    o.0 += size;
                }
            }
        }
        self.rank
            .add_child_prefix(parent, start, k, &mut out[base..], &self.row_codes());
    }

    /// `s_D(p)` alone, from the membership maps, summed over the row
    /// blocks.
    pub fn size_in_data(&self, p: &Pattern) -> usize {
        self.data.iter().map(|maps| maps.size(p)).sum()
    }

    /// `s_Rk(p)` alone, from the rank blocks below `k` — the engines'
    /// arena re-activation recount.
    pub fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        self.rank.prefix_count(p, k, &self.row_codes())
    }

    /// Value of `attr` for the tuple at rank position `pos` (0-based).
    pub fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        self.rank.code_at(pos, attr, &self.row_codes())
    }

    /// Appends the row just pushed onto `ds` (row id [`RankedIndex::n`])
    /// at a new last rank position: one bit per attribute in the last row
    /// block's membership maps, and its codes in the last rank block if
    /// that is built. The index stays valid; a live insertion then moves
    /// the row to its rank with [`RankedIndex::rewrite_span`], which covers
    /// every position from the insertion point to the end.
    ///
    /// # Panics
    /// Panics if `ds` has no row `n`.
    pub fn grow(&mut self, ds: &Dataset, space: &PatternSpace) {
        let row = self.n();
        let mut codes = vec![0; space.n_attrs()];
        dataset_codes(ds, space)(row, &mut codes);
        let last = self.data.len() - 1;
        self.data[last].push(&codes);
        self.bounds[last + 1] += 1;
        self.rank
            .push(TupleId::try_from(row).expect("row ids fit TupleId"), &codes);
    }

    /// Patches the index after ranking edits: copies `order[lo..=hi]`
    /// into the index's rank order and rewrites those positions of the
    /// rank blocks already built, reading the new occupants' codes from
    /// `ds`. Blocks not yet built are built from the new order when read,
    /// and the membership maps do not depend on the order. `O(hi−lo+1)`
    /// plus `O(m)` per built position, instead of a rebuild — the index
    /// half of the monitor's delta re-audit. The first edit (this or
    /// [`RankedIndex::grow`]) first copies the shared ranking's order,
    /// finishing its sort.
    ///
    /// The span and value codes are **internal invariants**: the primary
    /// caller is the monitor, whose edit validation rejects out-of-range
    /// rows and unknown labels before anything is applied, and whose
    /// spans come from [`ScoredRanking`] deltas over the same universe.
    /// Those are `debug_assert!`s — a violation still fails loudly in
    /// release via the slice indexing that follows, so the serving wire
    /// path cannot corrupt silently (tests/wire_robustness.rs drives
    /// corrupted `update` ops through the full stack to prove no panic
    /// escapes the in-band error handling). The order-*length* check
    /// stays a hard assert: a short-but-span-covering `order` from an
    /// external caller would otherwise rewrite the index silently from
    /// the wrong universe.
    ///
    /// # Panics
    /// Panics if `order` does not cover every position of the index.
    ///
    /// [`ScoredRanking`]: rankfair_rank::ScoredRanking
    pub fn rewrite_span(
        &mut self,
        ds: &Dataset,
        space: &PatternSpace,
        order: &[TupleId],
        lo: usize,
        hi: usize,
    ) {
        debug_assert!(hi < self.n() && lo <= hi, "span [{lo}, {hi}] out of range");
        assert_eq!(order.len(), self.n(), "order must cover every position");
        self.rank.rewrite(order, lo, hi, &dataset_codes(ds, space));
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

/// A seeded instance of `rows` rows over three random attributes and a
/// constant one: a card-1 attribute, placed second so that parents can
/// hold its one term and children follow it. Returns the dataset, the
/// space and a random rank order.
#[cfg(test)]
pub(crate) fn partition_instance(rows: usize) -> (Dataset, PatternSpace, Vec<TupleId>) {
    use rankfair_data::Column;
    use rankfair_synth::{random_dataset, random_ranking, RandomSpec};
    let spec = RandomSpec {
        rows,
        attrs: 3,
        max_card: 5,
    };
    let mut ds = random_dataset(11, spec);
    let constant = Column::categorical_encoded("constant", vec![0; rows], vec!["c".into()]);
    ds.push_column(constant).unwrap();
    let space = PatternSpace::from_columns(&ds, &[0, 3, 1, 2]).unwrap();
    (ds, space, random_ranking(11, rows))
}

/// The skip masks [`assert_child_counts_match`] tries on the children
/// binding attributes from `start`: none, every other child, only each
/// attribute's last child, all but each attribute's last child, and every
/// child.
#[cfg(test)]
pub(crate) fn skip_masks(space: &PatternSpace, start: AttrId) -> [Vec<bool>; 5] {
    let last: Vec<bool> = space
        .child_bindings(start)
        .map(|(a, v)| usize::from(v) + 1 == space.card(a))
        .collect();
    [
        vec![false; last.len()],
        (0..last.len()).map(|i| i % 2 == 1).collect(),
        last.clone(),
        last.iter().map(|&l| !l).collect(),
        vec![true; last.len()],
    ]
}

/// Checks `index.child_counts` against one `reference(pattern, k)` call
/// per child, at every `k` in `ks`, for every `start` from `0` to `m` (the
/// last has no children), every parent of 0–3 terms over the attributes
/// before `start` and every mask of [`skip_masks`]: each unskipped entry
/// must equal its reference. The batch must append one entry per child,
/// leaving what `out` already held in place.
#[cfg(test)]
pub(crate) fn assert_child_counts_match(
    index: &RankedIndex,
    reference: impl Fn(&Pattern, usize) -> (usize, usize),
    space: &PatternSpace,
    ks: &[usize],
) {
    const SENTINEL: (usize, usize) = (usize::MAX, 0);
    for start in 0..=space.attr_ids().end {
        let masks = skip_masks(space, start);
        let mut parents = vec![Pattern::empty()];
        for a in 0..start {
            let grown: Vec<Pattern> = parents
                .iter()
                .filter(|p| p.len() < 3)
                .flat_map(|p| space.value_codes(a).map(move |v| p.child(a, v)))
                .collect();
            parents.extend(grown);
        }
        for parent in &parents {
            for &k in ks {
                let want: Vec<(usize, usize)> = space
                    .child_bindings(start)
                    .map(|(a, v)| reference(&parent.child(a, v), k))
                    .collect();
                for skip in &masks {
                    let mut got = vec![SENTINEL];
                    index.child_counts(parent, start, k, skip, &mut got);
                    let at = format!("parent={parent:?} start={start} k={k} skip={skip:?}");
                    assert_eq!(got.len(), 1 + want.len(), "{at}");
                    assert_eq!(got[0], SENTINEL, "{at}");
                    for (i, (&g, &w)) in got[1..].iter().zip(&want).enumerate() {
                        if !skip[i] {
                            assert_eq!(g, w, "child {i} of {at}");
                        }
                    }
                }
            }
        }
    }
}

/// The rank-order reference the index is checked against: every rank
/// position's codes, read one at a time from the dataset, and every count
/// a loop over the positions.
#[cfg(test)]
pub(crate) struct RankOrderReference {
    /// `codes[pos][a]`: value of attribute `a` at rank position `pos`.
    codes: Vec<Vec<ValueCode>>,
}

#[cfg(test)]
impl RankOrderReference {
    pub(crate) fn build(ds: &Dataset, space: &PatternSpace, order: &[TupleId]) -> Self {
        let codes = order
            .iter()
            .map(|&row| {
                space
                    .attr_ids()
                    .map(|a| ds.code(row as usize, space.dataset_col(a)))
                    .collect()
            })
            .collect();
        RankOrderReference { codes }
    }

    pub(crate) fn n(&self) -> usize {
        self.codes.len()
    }

    /// `(s_D(p), s_Rk(p))`, one loop over the positions.
    pub(crate) fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        let (mut size, mut top) = (0, 0);
        for (pos, codes) in self.codes.iter().enumerate() {
            if p.matches(|a| codes[usize::from(a)]) {
                size += 1;
                top += usize::from(pos < k);
            }
        }
        (size, top)
    }

    pub(crate) fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        self.codes[pos][usize::from(attr)]
    }
}

/// Checks `index` against `reference`: `code_at` at every position;
/// `counts`, `size_in_data` and `prefix_count` of the empty pattern and
/// of every pattern of one and two terms, at every `k` in `ks`; and
/// `child_counts` through [`assert_child_counts_match`].
#[cfg(test)]
pub(crate) fn assert_index_matches(
    index: &RankedIndex,
    reference: &RankOrderReference,
    space: &PatternSpace,
    ks: &[usize],
) {
    assert_eq!(index.n(), reference.n());
    for pos in 0..reference.n() {
        for a in space.attr_ids() {
            assert_eq!(
                index.code_at(pos, a),
                reference.code_at(pos, a),
                "pos={pos} a={a}"
            );
        }
    }
    let mut patterns = vec![Pattern::empty()];
    for (a, v) in space.child_bindings(0) {
        let single = Pattern::single(a, v);
        patterns.extend(space.child_bindings(a + 1).map(|(b, w)| single.child(b, w)));
        patterns.push(single);
    }
    for p in &patterns {
        for &k in ks {
            let want = reference.counts(p, k);
            assert_eq!(index.counts(p, k), want, "p={p:?} k={k}");
            assert_eq!(index.size_in_data(p), want.0, "p={p:?}");
            assert_eq!(index.prefix_count(p, k), want.1, "p={p:?} k={k}");
        }
    }
    assert_child_counts_match(index, |p, k| reference.counts(p, k), space, ks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};

    /// [`RankedIndex::build`] over a raw rank order: the tuple at
    /// `order[pos]` occupies rank position `pos`.
    fn build_over(ds: &Dataset, space: &PatternSpace, order: &[TupleId]) -> RankedIndex {
        RankedIndex::build(ds, space, &Ranking::from_order(order.to_vec()).unwrap())
    }

    fn fig1() -> (Dataset, PatternSpace, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let index = RankedIndex::build(&ds, &space, &ranking);
        (ds, space, index)
    }

    #[test]
    fn space_reflects_categorical_columns() {
        let (_ds, space, _index) = fig1();
        assert_eq!(space.n_attrs(), 4);
        assert_eq!(space.attr_name(0), "Gender");
        assert_eq!(space.attr_name(3), "Failures");
        assert_eq!(space.card(3), 3); // failures 0/1/2
        assert_eq!(space.attr_by_name("School"), Some(1));
        assert_eq!(space.attr_by_name("Grade"), None); // numeric
    }

    #[test]
    fn numeric_column_rejected() {
        let ds = students_fig1();
        let grade_col = ds.column_index("Grade").unwrap();
        assert!(matches!(
            PatternSpace::from_columns(&ds, &[grade_col]),
            Err(SpaceError::NotCategorical(_))
        ));
        assert!(matches!(
            PatternSpace::from_columns(&ds, &[]),
            Err(SpaceError::Empty)
        ));
    }

    #[test]
    fn pattern_from_names_and_display() {
        let (_ds, space, _index) = fig1();
        let p = space
            .pattern(&[("School", "GP"), ("Address", "U")])
            .unwrap();
        assert_eq!(space.display(&p), "{School=GP, Address=U}");
        assert!(space.pattern(&[("School", "nope")]).is_none());
        assert!(space.pattern(&[("Nope", "GP")]).is_none());
    }

    #[test]
    fn example_2_3_counts() {
        // s_D({School=GP}) = 8 and s_R5 = 1 (Example 2.3 of the paper).
        let (_ds, space, index) = fig1();
        let p = space.pattern(&[("School", "GP")]).unwrap();
        assert_eq!(index.counts(&p, 5), (8, 1));
    }

    #[test]
    fn example_2_4_school_counts_in_top5() {
        let (_ds, space, index) = fig1();
        let ms = space.pattern(&[("School", "MS")]).unwrap();
        assert_eq!(index.counts(&ms, 5), (8, 4));
    }

    #[test]
    fn counts_match_naive_for_two_term_patterns() {
        let (ds, space, index) = fig1();
        let order = fig1_rank_order();
        for a in 0..space.n_attrs() as u16 {
            for b in (a + 1)..space.n_attrs() as u16 {
                for va in 0..space.card(a) as u16 {
                    for vb in 0..space.card(b) as u16 {
                        let p = Pattern::from_terms(vec![(a, va), (b, vb)]).unwrap();
                        for k in [0, 3, 7, 16] {
                            let naive_full = (0..16)
                                .filter(|&r| {
                                    ds.code(r, space.dataset_col(a)) == va
                                        && ds.code(r, space.dataset_col(b)) == vb
                                })
                                .count();
                            let naive_pre = order[..k]
                                .iter()
                                .filter(|&&r| {
                                    ds.code(r as usize, space.dataset_col(a)) == va
                                        && ds.code(r as usize, space.dataset_col(b)) == vb
                                })
                                .count();
                            assert_eq!(index.counts(&p, k), (naive_full, naive_pre));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn code_at_and_matches_at_follow_rank_order() {
        let (_ds, space, index) = fig1();
        // Rank position 0 is tuple 12: F, GP, U, failures 0.
        let gender = space.attr_by_name("Gender").unwrap();
        assert_eq!(space.label(gender, index.code_at(0, gender)), "F");
        let p = space
            .pattern(&[("School", "GP"), ("Address", "U")])
            .unwrap();
        assert!(index.matches_at(0, &p));
        assert!(!index.matches_at(1, &p)); // tuple 5 is MS/R
    }

    #[test]
    fn pattern_graph_size_counts_nonempty_patterns() {
        let (_ds, space, _index) = fig1();
        // (2+1)(2+1)(2+1)(3+1) − 1 = 107.
        assert_eq!(space.pattern_graph_size(), 107);
    }

    #[test]
    fn empty_pattern_counts_are_universe() {
        let (_ds, _space, index) = fig1();
        assert_eq!(index.counts(&Pattern::empty(), 5), (16, 5));
    }

    #[test]
    fn child_counts_equal_per_child_counts() {
        let (_ds, space, index) = fig1();
        let ks: Vec<usize> = (0..=18).collect();
        assert_child_counts_match(&index, |p, k| index.counts(p, k), &space, &ks);
    }

    #[test]
    fn child_counts_with_every_child_skipped_counts_nothing() {
        // A skipped child gets a placeholder and no count: with every
        // child skipped not even the parent is counted, so an index no
        // count has read yet still holds no rank block. A parent with no
        // children appends nothing.
        let (ds, space, order) = partition_instance(200);
        let index = build_over(&ds, &space, &order);
        for start in space.attr_ids().chain([space.attr_ids().end]) {
            let [none, .., all] = skip_masks(&space, start);
            let mut out = vec![(7, 7)];
            index.child_counts(&Pattern::empty(), start, 150, &all, &mut out);
            assert_eq!(out.len(), 1 + none.len(), "start={start}");
            assert_eq!(out[0], (7, 7));
        }
        assert_eq!(index.built_rank_blocks(), 0);
        // One counted child reads the rank blocks of the top 150.
        let [none, ..] = skip_masks(&space, 1);
        let mut one = vec![true; none.len()];
        one[0] = false;
        let mut out = Vec::new();
        index.child_counts(&Pattern::empty(), 1, 150, &one, &mut out);
        assert_eq!(out[0], index.counts(&Pattern::single(1, 0), 150));
        assert_eq!(index.built_rank_blocks(), 3);
    }

    /// The `k`s the layout tests read at: around the first two rank
    /// block edges, the whole table and past it.
    fn block_edge_ks(n: usize) -> [usize; 9] {
        [0, 1, 63, 64, 65, 127, 128, n, n + 7]
    }

    #[test]
    fn child_counts_partition_holds_past_a_block_and_after_rewrites() {
        use rankfair_data::RowValue;
        // 4 161 rows fill 66 words of every membership map (two 32-word
        // carry-save blocks and a remainder) and 66 rank blocks, the last
        // holding one position.
        let rows = 4_161;
        let (ds, space, order) = partition_instance(rows);
        let fresh = build_over(&ds, &space, &order);
        assert_eq!(fresh.built_rank_blocks(), 0);
        let reference = RankOrderReference::build(&ds, &space, &order);
        assert_index_matches(&fresh, &reference, &space, &block_edge_ks(rows));

        // Each reorder edits a fresh index whose rank blocks were read only
        // where `read` says: the rewrite patches built blocks and leaves
        // the rest to be built from the new order.
        let reorders: [(&str, usize, usize, &[usize]); 3] = [
            ("a built block", 10, 50, &[0]),
            ("an unbuilt block", 1_000, 1_050, &[]),
            ("a block edge", 2_000, 2_100, &[2_047]),
        ];
        for (what, lo, hi, read) in reorders {
            let mut index = build_over(&ds, &space, &order);
            for &pos in read {
                index.code_at(pos, 0);
            }
            let built = index.built_rank_blocks();
            let mut moved = order.clone();
            moved[lo..=hi].rotate_left(7);
            index.rewrite_span(&ds, &space, &moved, lo, hi);
            assert_eq!(index.built_rank_blocks(), built, "{what}");
            let reference = RankOrderReference::build(&ds, &space, &moved);
            assert_index_matches(&index, &reference, &space, &block_edge_ks(rows));
        }

        // An insertion: `grow` appends the new row at the last position,
        // into a built last block at 4 161 rows and into a new block at
        // 128, and `rewrite_span` moves it to rank position 100, shifting
        // every later position. The index is valid in between.
        let label = |l: &str| RowValue::Label(l.into());
        for rows in [4_161, 128] {
            let (mut ds, space, mut order) = partition_instance(rows);
            let mut index = build_over(&ds, &space, &order);
            index.code_at(rows - 1, 0);
            index.code_at(0, 0);
            ds.push_row(&[label("v1"), label("v0"), label("v1"), label("c")])
                .unwrap();
            index.grow(&ds, &space);
            order.push(TupleId::try_from(rows).unwrap());
            let ks = block_edge_ks(rows + 1);
            let grown = RankOrderReference::build(&ds, &space, &order);
            assert_index_matches(&index, &grown, &space, &ks);
            let row = order.pop().unwrap();
            order.insert(100, row);
            index.rewrite_span(&ds, &space, &order, 100, rows);
            let reference = RankOrderReference::build(&ds, &space, &order);
            assert_index_matches(&index, &reference, &space, &ks);
        }

        // `RankedIndex::build` shares a lazily sorted ranking of 8 193 rows
        // instead of copying its order: reading the first block leaves the
        // sort unfinished. The first edit copies the order, then patches
        // a built block or leaves an unbuilt one to be built from it. Each
        // edit starts from a fresh index read only at position 0.
        let rows = 8_193;
        let (mut ds, space, mut order) = partition_instance(rows);
        let mut scores = vec![0.0; rows];
        for (p, &row) in order.iter().enumerate() {
            scores[row as usize] = (rows - p) as f64;
        }
        let ranking = Ranking::from_scores_desc(&scores);
        let shared = |ds: &Dataset| {
            let index = RankedIndex::build(ds, &space, &ranking);
            index.code_at(0, 0);
            assert_eq!(index.built_rank_blocks(), 1);
            index
        };
        shared(&ds);
        assert!(!ranking.sort_finished_for_tests());
        let ks = [0, 1, 64, 65, 4_096, 4_097, rows];
        for (what, lo, hi) in [
            ("a built block", 10, 50),
            ("an unbuilt block", 6_000, 6_050),
        ] {
            let mut index = shared(&ds);
            let mut moved = order.clone();
            moved[lo..=hi].rotate_left(7);
            index.rewrite_span(&ds, &space, &moved, lo, hi);
            assert_eq!(index.built_rank_blocks(), 1, "{what}");
            let reference = RankOrderReference::build(&ds, &space, &moved);
            assert_index_matches(&index, &reference, &space, &ks);
        }
        // An insertion into a shared index: `grow` copies the order and
        // appends the new row, and `rewrite_span` moves it to position 100.
        let mut index = shared(&ds);
        ds.push_row(&[label("v1"), label("v0"), label("v1"), label("c")])
            .unwrap();
        index.grow(&ds, &space);
        order.push(TupleId::try_from(rows).unwrap());
        let ks = [0, 1, 64, 65, 4_096, 4_097, rows + 1];
        let grown = RankOrderReference::build(&ds, &space, &order);
        assert_index_matches(&index, &grown, &space, &ks);
        let row = order.pop().unwrap();
        order.insert(100, row);
        index.rewrite_span(&ds, &space, &order, 100, rows);
        let reference = RankOrderReference::build(&ds, &space, &order);
        assert_index_matches(&index, &reference, &space, &ks);
    }

    #[test]
    fn build_over_an_order_matches_a_per_bit_build() {
        for rows in [1, 63, 64, 65, 517, 4_161] {
            let (ds, space, order) = partition_instance(rows);
            let ks = block_edge_ks(rows);
            let index = build_over(&ds, &space, &order);
            let reference = RankOrderReference::build(&ds, &space, &order);
            assert_index_matches(&index, &reference, &space, &ks);
            // The membership maps: bit `row` of the map of each row's value.
            for a in space.attr_ids() {
                let col = ds.column(space.dataset_col(a));
                let mut want = vec![Bitmap::new(rows); space.card(a)];
                for row in 0..rows {
                    want[usize::from(col.code(row))].set(row);
                }
                assert_eq!(
                    index.data[0].maps[usize::from(a)],
                    want,
                    "rows={rows} a={a}"
                );
            }
            // Shards of row blocks, more shards than rows leaving trailing
            // blocks empty.
            let ranking = Ranking::from_order(order.clone()).unwrap();
            for shards in [1, 2, 3, 7, rows + 3] {
                let sharded = RankedIndex::sharded(&ds, &space, &ranking, shards);
                assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), rows);
                assert_index_matches(&sharded, &reference, &space, &ks);
            }
        }
    }

    #[test]
    #[should_panic(expected = "code out of range for attribute")]
    fn build_rejects_a_code_past_the_space_cardinality() {
        use rankfair_data::RowValue;
        // A label that arrives after the space was built has no bitmap.
        let mut ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        ds.push_row(&[
            RowValue::Label("X".into()),
            RowValue::Label("GP".into()),
            RowValue::Label("R".into()),
            RowValue::Label("1".into()),
            RowValue::Number(9.0),
        ])
        .unwrap();
        let order: Vec<TupleId> = (0..17).collect();
        build_over(&ds, &space, &order);
    }

    #[test]
    fn rewrite_span_matches_fresh_build_after_reorder() {
        let (ds, space, mut index) = fig1();
        let mut order = fig1_rank_order();
        // Rotate a middle span: positions 3..=8 change occupant.
        order[3..=8].rotate_left(2);
        index.rewrite_span(&ds, &space, &order, 3, 8);
        let fresh = RankedIndex::build(&ds, &space, &Ranking::from_order(order).unwrap());
        for a in 0..space.n_attrs() as u16 {
            for v in 0..space.card(a) as u16 {
                let p = Pattern::single(a, v);
                for k in 0..=16 {
                    assert_eq!(
                        index.counts(&p, k),
                        fresh.counts(&p, k),
                        "a={a} v={v} k={k}"
                    );
                }
            }
            for pos in 0..16 {
                assert_eq!(index.code_at(pos, a), fresh.code_at(pos, a));
            }
        }
    }

    #[test]
    fn grow_then_rewrite_covers_an_insertion() {
        use rankfair_data::RowValue;
        // One row block and three; the rank block built before the edits,
        // so that both patch it, or after them, so that it reads the grown
        // row from the last row block.
        for (shards, built_first) in [(1, true), (1, false), (3, true), (3, false)] {
            let (mut ds, space, _) = fig1();
            let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
            let mut index = RankedIndex::sharded(&ds, &space, &ranking, shards);
            // Append a 17th student and slot them in at rank position 5.
            ds.push_row(&[
                RowValue::Label("F".into()),
                RowValue::Label("GP".into()),
                RowValue::Label("R".into()),
                RowValue::Label("1".into()),
                RowValue::Number(9.0),
            ])
            .unwrap();
            let mut order = fig1_rank_order();
            order.insert(5, 16);
            if built_first {
                index.code_at(0, 0);
            }
            index.grow(&ds, &space);
            index.rewrite_span(&ds, &space, &order, 5, 16);
            let fresh = RankedIndex::build(&ds, &space, &Ranking::from_order(order).unwrap());
            assert_eq!(index.n(), 17);
            assert_eq!(index.shard_sizes().iter().sum::<usize>(), 17);
            for a in 0..space.n_attrs() as u16 {
                for v in 0..space.card(a) as u16 {
                    let p = Pattern::single(a, v);
                    // Every prefix: equal prefix counts at all k pins the
                    // block's words bit-for-bit (a position never written
                    // holds code 0 with no bit, so writing value 0 there
                    // must still set its bit).
                    for k in 0..=17 {
                        assert_eq!(
                            index.counts(&p, k),
                            fresh.counts(&p, k),
                            "shards={shards} built_first={built_first} a={a} v={v} k={k}"
                        );
                    }
                }
            }
        }
    }

    /// The fig. 1 instance's space, its one-block index and an index of
    /// `shards` row blocks.
    fn fig1_sharded(shards: usize) -> (PatternSpace, RankedIndex, RankedIndex) {
        let ds = students_fig1();
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(fig1_rank_order()).unwrap();
        let single = RankedIndex::build(&ds, &space, &ranking);
        let sharded = RankedIndex::sharded(&ds, &space, &ranking, shards);
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
            assert_child_counts_match(&sharded, |p, k| single.counts(p, k), &space, &ks);
        }
        // A card-1 attribute, whose only child each shard derives from its
        // parent alone; 50 shards over 40 rows leaves 10 of them empty.
        let (ds, space, order) = partition_instance(40);
        let ranking = Ranking::from_order(order).unwrap();
        let single = RankedIndex::build(&ds, &space, &ranking);
        let ks: Vec<usize> = (0..=42).collect();
        for shards in [3, 50] {
            let sharded = RankedIndex::sharded(&ds, &space, &ranking, shards);
            assert_child_counts_match(&sharded, |p, k| single.counts(p, k), &space, &ks);
        }
    }

    #[test]
    fn child_counts_fan_out_matches_unsharded() {
        // From PARALLEL_MIN_ROWS rows a sharded build builds its row
        // blocks on scoped threads (on a multi-core host), each thread a
        // run of blocks once the 7 blocks outnumber the cores; counts over
        // those blocks must not care which path built them.
        let rows = 3 * RankedIndex::PARALLEL_MIN_ROWS + 5;
        let spec = rankfair_synth::RandomSpec {
            rows,
            attrs: 3,
            max_card: 3,
        };
        let ds = rankfair_synth::random_dataset(5, spec);
        let space = PatternSpace::from_dataset(&ds).unwrap();
        let ranking = Ranking::from_order(rankfair_synth::random_ranking(5, rows)).unwrap();
        let single = RankedIndex::build(&ds, &space, &ranking);
        let sharded = RankedIndex::sharded(&ds, &space, &ranking, 7);
        assert_eq!(sharded.shard_count(), 7);
        let ks = [0, 1, 64, rows / 7 + 1, rows / 3 + 1, rows - 1, rows];
        assert_child_counts_match(&sharded, |p, k| single.counts(p, k), &space, &ks);
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
