use std::fmt;

use rankfair_data::{
    and_counts, intersect_counts_iter, intersect_into, intersect_prefix_iter, Bitmap, Dataset,
    TupleId, ValueCode,
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

/// The count surface the detection engines consume.
///
/// Everything in the lower and upper engines reaches the data through
/// four primitives — the universe size, the fused `(s_D, s_Rk)` count of
/// one pattern, the same pair for every child of an expanded node, and
/// the value of an attribute at a rank position — so any provider
/// implementing them runs the same algorithms unchanged: the single
/// [`RankedIndex`], the sharded additive merge of
/// [`ShardedIndex`](crate::ShardedIndex), or the
/// [`AuditIndex`](crate::AuditIndex) dispatching between them.
pub trait CountsProvider: Sync {
    /// Number of tuples.
    fn n(&self) -> usize;

    /// `(s_D(p), s_Rk(p))` — the pattern's size in the data and in the
    /// top-`k` prefix of the ranking.
    fn counts(&self, p: &Pattern, k: usize) -> (usize, usize);

    /// Appends `counts(parent.child(a, v), k)` to `out` for every
    /// search-tree child with `a ≥ start`, in `(a, v)` order (attributes
    /// ascending, then value codes ascending) — the order in which both
    /// engines intern a node's children. Providers share the parent's
    /// intersection across the children instead of recounting it per
    /// child; this is how every fresh expansion is evaluated.
    fn child_counts(
        &self,
        parent: &Pattern,
        start: AttrId,
        k: usize,
        out: &mut Vec<(usize, usize)>,
    );

    /// Value of `attr` for the tuple at rank position `pos` (0-based).
    fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode;

    /// `s_D(p)` alone.
    fn size_in_data(&self, p: &Pattern) -> usize {
        self.counts(p, 0).0
    }

    /// `s_Rk(p)` alone — the prefix half of [`CountsProvider::counts`].
    ///
    /// The engines call this when re-activating a stored node whose `s_D`
    /// is already interned in the arena, so providers should truncate the
    /// scan at `k` when they can ([`RankedIndex`] does); the default
    /// computes the fused pair and discards `s_D`.
    fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        self.counts(p, k).1
    }

    /// Whether the tuple at rank position `pos` satisfies `p`.
    fn matches_at(&self, pos: usize, p: &Pattern) -> bool {
        p.matches(|a| self.code_at(pos, a))
    }
}

/// The search-tree children of `parent` (Definition 4.1) with their
/// `(s_D, s_Rk)` at `k`, in `(a, v)` order, from one batched
/// [`CountsProvider::child_counts`] call — how both engines evaluate a
/// fresh expansion.
pub(crate) fn counted_children<'s>(
    index: &impl CountsProvider,
    space: &'s PatternSpace,
    parent: &'s Pattern,
    k: usize,
) -> impl Iterator<Item = (Pattern, (usize, usize))> + 's {
    let start = parent.max_attr().map_or(0, |a| a + 1);
    let mut counts = Vec::new();
    index.child_counts(parent, start, k, &mut counts);
    debug_assert_eq!(counts.len(), space.child_bindings(start).count());
    space
        .child_bindings(start)
        .zip(counts)
        .map(move |((a, v), c)| (parent.child(a, v), c))
}

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
    /// [`CountsProvider::child_counts`] reports their counts.
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

/// The dataset re-indexed in **rank order** with one bitmap per
/// (attribute, value) pair.
///
/// Position `p` of every structure refers to the tuple ranked `p+1`-th.
/// With this layout:
///
/// * `s_D(pattern)` = popcount of the AND of the term bitmaps,
/// * `s_Rk(pattern)` = popcount of the same AND over the first `k` bits,
///
/// both computed by one fused pass ([`RankedIndex::counts`]), or for all
/// children of a search node at once from their parent's AND
/// ([`CountsProvider::child_counts`]); and the tuple entering the top-k when
/// `k` grows by one is simply position `k` ([`RankedIndex::code_at`] feeds
/// the incremental walk).
#[derive(Debug, Clone)]
pub struct RankedIndex {
    n: usize,
    /// `codes[attr][pos]` — value of `attr` for the tuple at rank position
    /// `pos`.
    codes: Vec<Vec<ValueCode>>,
    /// `bitmaps[attr][value]` over rank positions.
    bitmaps: Vec<Vec<Bitmap>>,
}

impl RankedIndex {
    /// Builds the index for `ds` under `ranking`, over the attributes of
    /// `space`.
    ///
    /// # Panics
    /// Panics if the ranking length differs from the dataset, or codes
    /// exceed the space’s cardinalities.
    pub fn build(ds: &Dataset, space: &PatternSpace, ranking: &Ranking) -> Self {
        assert_eq!(
            ranking.len(),
            ds.n_rows(),
            "ranking must cover every dataset row"
        );
        Self::build_from_order(ds, space, ranking.order())
    }

    /// Builds the index over a (possibly partial) rank-order slice: the
    /// tuple at `order[pos]` occupies local position `pos`. This is the
    /// shard-local build — a contiguous block of a global ranking becomes
    /// its own index, with the additive-merge identity
    /// `counts(p, k) = Σ_shard counts(p, k ∩ shard span)` recovering the
    /// global counts (see [`ShardedIndex`](crate::ShardedIndex)).
    ///
    /// # Panics
    /// Panics if a row id is out of range for `ds`, or codes exceed the
    /// space's cardinalities.
    pub fn build_from_order(ds: &Dataset, space: &PatternSpace, order: &[TupleId]) -> Self {
        let n = order.len();
        let m = space.n_attrs();
        let mut codes = Vec::with_capacity(m);
        let mut bitmaps = Vec::with_capacity(m);
        for a in 0..m {
            let col = ds.column(space.dataset_col(a as AttrId));
            let card = space.card(a as AttrId);
            let mut attr_codes = Vec::with_capacity(n);
            let mut attr_maps = vec![Bitmap::new(n); card];
            for (pos, &row) in order.iter().enumerate() {
                let v = col.code(row as usize);
                assert!(usize::from(v) < card, "code out of range for attribute");
                attr_codes.push(v);
                attr_maps[usize::from(v)].set(pos);
            }
            codes.push(attr_codes);
            bitmaps.push(attr_maps);
        }
        RankedIndex { n, codes, bitmaps }
    }

    /// Number of tuples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The bitmaps of `p`'s terms.
    fn term_maps<'s>(&'s self, p: &'s Pattern) -> impl Iterator<Item = &'s Bitmap> + Clone {
        p.terms()
            .iter()
            .map(|&(a, v)| &self.bitmaps[usize::from(a)][usize::from(v)])
    }

    /// `(s_D(p), s_Rk(p))` of one pattern in one fused bitmap pass. The
    /// engines evaluate whole expansions through
    /// [`CountsProvider::child_counts`]; this single-pattern count serves
    /// the report, the baseline, the oracle and the shard merge.
    pub fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        intersect_counts_iter(self.term_maps(p), k, self.n)
    }

    /// `s_D(p)` alone.
    pub fn size_in_data(&self, p: &Pattern) -> usize {
        self.counts(p, 0).0
    }

    /// `s_Rk(p)` alone, walking only the bitmap blocks that overlap the
    /// top-`k` prefix — the engines' arena re-activation recount, which
    /// for `k ≪ n` touches a `k/n` fraction of the fused pass's blocks.
    pub fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        intersect_prefix_iter(self.term_maps(p), k, self.n)
    }

    /// Value of `attr` for the tuple at rank position `pos` (0-based).
    pub fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        self.codes[usize::from(attr)][pos]
    }

    /// Grows the index by one rank position (appended with placeholder
    /// codes and clear bits). The caller must follow up with
    /// [`RankedIndex::rewrite_span`] covering the new position — a live
    /// insertion shifts every position from the insertion point to the
    /// end, so the repaired span always includes it.
    pub fn grow(&mut self) {
        // The placeholder must be a code no attribute can have: a valid
        // code would fool `rewrite_span`'s `old == new` short-circuit into
        // skipping the position, leaving the new tuple's bit unset.
        for attr_codes in &mut self.codes {
            attr_codes.push(ValueCode::MAX);
        }
        for attr_maps in &mut self.bitmaps {
            for map in attr_maps {
                map.push_zero();
            }
        }
        self.n += 1;
    }

    /// Patches the index after ranking edits: for every position in
    /// `lo..=hi`, re-reads the occupant row from `order` and rewrites the
    /// position's codes and bitmap bits in place. `O((hi−lo+1)·m)` bit
    /// flips instead of the `O(n·m)` full rebuild — the index half of the
    /// monitor's delta re-audit.
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
        debug_assert!(hi < self.n && lo <= hi, "span [{lo}, {hi}] out of range");
        assert_eq!(order.len(), self.n, "order must cover every position");
        for (a, (attr_codes, attr_maps)) in self.codes.iter_mut().zip(&mut self.bitmaps).enumerate()
        {
            let col = ds.column(space.dataset_col(a as AttrId));
            for pos in lo..=hi {
                let new = col.code(order[pos] as usize);
                debug_assert!(
                    usize::from(new) < attr_maps.len(),
                    "code out of range for attribute"
                );
                let old = attr_codes[pos];
                if old != new {
                    // `old` may be the `grow` placeholder (no bit set yet).
                    if let Some(map) = attr_maps.get_mut(usize::from(old)) {
                        map.clear(pos);
                    }
                    attr_maps[usize::from(new)].set(pos);
                    attr_codes[pos] = new;
                }
            }
        }
    }

    /// Whether the tuple at rank position `pos` satisfies `p`.
    pub fn matches_at(&self, pos: usize, p: &Pattern) -> bool {
        p.matches(|a| self.code_at(pos, a))
    }
}

impl CountsProvider for RankedIndex {
    fn n(&self) -> usize {
        RankedIndex::n(self)
    }

    fn counts(&self, p: &Pattern, k: usize) -> (usize, usize) {
        RankedIndex::counts(self, p, k)
    }

    /// ANDs the parent's term bitmaps once, then counts each child with
    /// one two-operand pass over that buffer and the child's own bitmap.
    fn child_counts(
        &self,
        parent: &Pattern,
        start: AttrId,
        k: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        let mut words = Vec::new();
        intersect_into(self.term_maps(parent), self.n, &mut words);
        for maps in &self.bitmaps[usize::from(start)..] {
            out.extend(maps.iter().map(|m| and_counts(&words, m, k)));
        }
    }

    fn code_at(&self, pos: usize, attr: AttrId) -> ValueCode {
        RankedIndex::code_at(self, pos, attr)
    }

    fn prefix_count(&self, p: &Pattern, k: usize) -> usize {
        RankedIndex::prefix_count(self, p, k)
    }
}

/// Checks `index.child_counts` against one `reference.counts` call per
/// child, at every `k` in `ks`, for every `start` from `0` to `m` (the
/// last has no children) and every parent of 0–3 terms over the
/// attributes before `start`. The batch must append, leaving what `out`
/// already held in place.
#[cfg(test)]
pub(crate) fn assert_child_counts_match(
    index: &impl CountsProvider,
    reference: &impl CountsProvider,
    space: &PatternSpace,
    ks: &[usize],
) {
    const SENTINEL: (usize, usize) = (usize::MAX, 0);
    for start in 0..=space.attr_ids().end {
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
                let mut got = vec![SENTINEL];
                index.child_counts(parent, start, k, &mut got);
                let want: Vec<(usize, usize)> = std::iter::once(SENTINEL)
                    .chain(
                        space
                            .child_bindings(start)
                            .map(|(a, v)| reference.counts(&parent.child(a, v), k)),
                    )
                    .collect();
                assert_eq!(got, want, "parent={parent:?} start={start} k={k}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankfair_data::examples::{fig1_rank_order, students_fig1};

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
        assert_child_counts_match(&index, &index, &space, &ks);
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
        let (mut ds, space, mut index) = fig1();
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
        index.grow();
        index.rewrite_span(&ds, &space, &order, 5, 16);
        let fresh = RankedIndex::build(&ds, &space, &Ranking::from_order(order).unwrap());
        assert_eq!(index.n(), 17);
        for a in 0..space.n_attrs() as u16 {
            for v in 0..space.card(a) as u16 {
                let p = Pattern::single(a, v);
                // Every prefix: equal prefix counts at all k pins the
                // bitmaps bit-for-bit (regression: a grow placeholder code
                // of 0 skipped setting the new tuple's value-0 bits).
                for k in 0..=17 {
                    assert_eq!(
                        index.counts(&p, k),
                        fresh.counts(&p, k),
                        "a={a} v={v} k={k}"
                    );
                }
            }
        }
    }
}
