//! Packed bitsets over rank positions and the count kernels every
//! `(s_D, s_Rk)` pair is read through.
//!
//! A full-universe count ANDs its maps a block of 32 words at a time and
//! counts each block with a Harley–Seal carry-save popcount
//! ([`CarrySave`]): 4 independent lanes of 8 words, summed through a
//! carry-save adder tree so that one popcount serves 8 words of a lane.
//! The lanes vectorize on the baseline SSE2 target, and the kernel needs
//! no popcount instruction, `unsafe` code or build flag. Remainders
//! shorter than a block, and the prefix-only recount
//! [`intersect_prefix_iter`], count word by word.

use std::ops::Range;

use crate::ValueCode;

/// A fixed-length packed bitset over row positions.
///
/// The detection engine stores one bitmap per (attribute, value) pair with
/// rows laid out in **rank order**. The size of a pattern in the whole
/// dataset (`s_D`) is then the popcount of the AND of its term bitmaps, and
/// its size in the top-k (`s_Rk`) is the popcount of the same AND restricted
/// to the first `k` bits. One pattern's pair comes from
/// [`intersect_counts`] in a single fused pass; the children of one search
/// node share their parent's AND, so [`intersect_into`] computes it once
/// and [`and_counts`] adds one term per child.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    blocks: Vec<u64>,
    len: usize,
}

const BITS: usize = 64;

impl Bitmap {
    /// Creates an all-zero bitmap covering `len` positions.
    pub fn new(len: usize) -> Self {
        Bitmap {
            blocks: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// One bitmap per value `0..card` of a code column: bit `i` of map
    /// `v` is set when `codes[i] == v`. The codes go in 64 at a time and
    /// come out as one word per value, so every output word is written
    /// once, in order.
    ///
    /// # Panics
    /// Panics if a code is `card` or more.
    pub fn per_value(codes: &[ValueCode], card: usize) -> Vec<Bitmap> {
        let n_blocks = codes.len().div_ceil(BITS);
        let mut blocks: Vec<Vec<u64>> = (0..card).map(|_| Vec::with_capacity(n_blocks)).collect();
        let mut words = vec![0u64; card];
        for chunk in codes.chunks(BITS) {
            for (i, &c) in chunk.iter().enumerate() {
                words[usize::from(c)] |= 1 << i;
            }
            for (map, word) in blocks.iter_mut().zip(&mut words) {
                map.push(std::mem::take(word));
            }
        }
        blocks
            .into_iter()
            .map(|blocks| Bitmap {
                blocks,
                len: codes.len(),
            })
            .collect()
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / BITS] |= 1u64 << (i % BITS);
    }

    /// Clears bit `i` (no-op if it was already clear).
    ///
    /// Used by the live-monitor path: when a ranking edit changes which
    /// tuple occupies a rank position, the position's old (attribute,
    /// value) bit is cleared and the new one set, instead of rebuilding
    /// the whole index.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / BITS] &= !(1u64 << (i % BITS));
    }

    /// Grows the bitmap by one position, appended clear. Used when a new
    /// tuple is inserted into a live ranking.
    pub fn push_zero(&mut self) {
        if self.len.is_multiple_of(BITS) {
            self.blocks.push(0);
        }
        self.len += 1;
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / BITS] >> (i % BITS) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Number of set bits among the first `k` positions.
    pub fn count_prefix(&self, k: usize) -> usize {
        let k = k.min(self.len);
        let full = k / BITS;
        let mut total: usize = self.blocks[..full]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        let rem = k % BITS;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            total += (self.blocks[full] & mask).count_ones() as usize;
        }
        total
    }

    /// Raw blocks (used by the prefix recount [`intersect_prefix_iter`]).
    fn blocks(&self) -> &[u64] {
        &self.blocks
    }
}

/// Independent carry-save lanes: the baseline SSE2 target runs two per
/// instruction.
const LANES: usize = 4;
/// Words per carry-save block: 8 words for each of the [`LANES`] lanes.
const BLOCK: usize = 8 * LANES;
type Lanes = [u64; LANES];

/// A Harley–Seal carry-save popcount (Muła, Kurz and Lemire, arXiv
/// 1611.07612). Each lane sums its 8 words of a block bitwise through a
/// tree of carry-save adders into running `ones`, `twos` and `fours`
/// words, and only the carry of weight 8 is popcounted: one popcount per
/// 8 words. The default x86-64 target has no popcount instruction, so
/// every `count_ones` saved is a bit-twiddling sequence saved.
#[derive(Default)]
struct CarrySave {
    ones: Lanes,
    twos: Lanes,
    fours: Lanes,
    eights: usize,
}

/// `a + b + c = 2·high + low`, bitwise and per lane: returns `(high, low)`.
#[inline(always)]
fn csa(a: Lanes, b: Lanes, c: Lanes) -> (Lanes, Lanes) {
    let mut high = [0; LANES];
    let mut low = [0; LANES];
    for i in 0..LANES {
        let u = a[i] ^ b[i];
        high[i] = (a[i] & b[i]) | (u & c[i]);
        low[i] = u ^ c[i];
    }
    (high, low)
}

/// Set bits in `words`, one `count_ones` per word.
#[inline]
fn ones_in(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

impl CarrySave {
    /// Adds the set bits of one block; row `i` holds word `i` of every
    /// lane.
    #[inline(always)]
    fn add(&mut self, block: &[Lanes; 8]) {
        let [w0, w1, w2, w3, w4, w5, w6, w7] = *block;
        let (twos_a, ones) = csa(self.ones, w0, w1);
        let (twos_b, ones) = csa(ones, w2, w3);
        let (fours_a, twos) = csa(self.twos, twos_a, twos_b);
        let (twos_a, ones) = csa(ones, w4, w5);
        let (twos_b, ones) = csa(ones, w6, w7);
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights, fours) = csa(self.fours, fours_a, fours_b);
        self.ones = ones;
        self.twos = twos;
        self.fours = fours;
        self.eights += ones_in(&eights);
    }

    /// Set bits over every block added.
    #[inline]
    fn total(&self) -> usize {
        8 * self.eights + 4 * ones_in(&self.fours) + 2 * ones_in(&self.twos) + ones_in(&self.ones)
    }
}

/// Set bits in the words `range` of a word sequence that `fill` writes:
/// `fill(lo, buf)` stores words `lo..lo + buf.len()` into `buf`. Whole
/// blocks go through [`CarrySave`] from one stack buffer; the remainder
/// shorter than a block, and a range with no whole block, is counted
/// word by word.
#[inline]
fn count_words(range: Range<usize>, mut fill: impl FnMut(usize, &mut [u64])) -> usize {
    let mut buf = [[0; LANES]; 8];
    let (mut lo, mut total) = (range.start, 0);
    if range.len() >= BLOCK {
        let mut acc = CarrySave::default();
        while range.end - lo >= BLOCK {
            fill(lo, buf.as_flattened_mut());
            acc.add(&buf);
            lo += BLOCK;
        }
        total = acc.total();
    }
    let rest = &mut buf.as_flattened_mut()[..range.end - lo];
    fill(lo, rest);
    total + ones_in(rest)
}

/// `(set bits, set bits among the first k positions)` of the `n_words`
/// words `fill` writes (see [`count_words`]), from one sweep split at the
/// word holding `k`. `k` must be at most `64 · n_words`.
#[inline]
fn split_counts(
    n_words: usize,
    k: usize,
    mut fill: impl FnMut(usize, &mut [u64]),
) -> (usize, usize) {
    let (k_full, k_rem) = (k / BITS, k % BITS);
    let head = count_words(0..k_full, &mut fill);
    let tail = count_words(k_full..n_words, &mut fill);
    let partial = if k_rem > 0 {
        let mut word = [0];
        fill(k_full, &mut word);
        (word[0] & ((1u64 << k_rem) - 1)).count_ones() as usize
    } else {
        0
    };
    (head + tail, head + partial)
}

/// Computes `(|AND maps|, |AND maps ∩ [0, k)|)` in one pass.
///
/// With an empty `maps` slice the AND is the universe: returns
/// `(len, min(k, len))` where `len` is taken as `universe_len`.
pub fn intersect_counts(maps: &[&Bitmap], k: usize, universe_len: usize) -> (usize, usize) {
    intersect_counts_iter(maps.iter().copied(), k, universe_len)
}

/// Iterator form of [`intersect_counts`]: the same fused full/prefix
/// popcount without requiring the caller to materialize a `&[&Bitmap]`
/// slice. This is the one-pattern count (reports, baselines, the oracle,
/// shards); the engines count a node's children together with
/// [`intersect_into`] and [`and_counts`] instead.
///
/// The maps are ANDed a block of 32 words at a time into a stack buffer
/// and counted through the carry-save popcount, so the iterator is
/// re-walked once per 32 words. It must be `Clone` and cheap to advance
/// (a slice iterator plus a map closure is).
pub fn intersect_counts_iter<'a, I>(mut maps: I, k: usize, universe_len: usize) -> (usize, usize)
where
    I: Iterator<Item = &'a Bitmap> + Clone,
{
    let Some(first) = maps.next() else {
        return (universe_len, k.min(universe_len));
    };
    debug_assert!(maps.clone().all(|m| m.len == first.len));
    split_counts(first.blocks.len(), k.min(first.len), |lo, buf| {
        let words = lo..lo + buf.len();
        buf.copy_from_slice(&first.blocks[words.clone()]);
        for m in maps.clone() {
            for (o, &w) in buf.iter_mut().zip(&m.blocks[words.clone()]) {
                *o &= w;
            }
        }
    })
}

/// Computes `|AND maps ∩ [0, k)|` alone — the prefix half of
/// [`intersect_counts_iter`] — walking **only** the blocks that overlap
/// the first `k` positions instead of the whole universe.
///
/// This is the engine's prefix-only recount: when a stored node is
/// re-activated its `s_D` is already known, so only the top-`k` term of
/// the pair is needed, and for `k ≪ n` the truncated scan touches a
/// `k/n` fraction of the blocks the fused pass would.
///
/// With an empty `maps` iterator the AND is the universe: returns
/// `min(k, universe_len)`.
pub fn intersect_prefix_iter<'a, I>(maps: I, k: usize, universe_len: usize) -> usize
where
    I: Iterator<Item = &'a Bitmap> + Clone,
{
    let mut probe = maps.clone();
    let Some(first) = probe.next() else {
        return k.min(universe_len);
    };
    let len = first.len;
    debug_assert!(maps.clone().all(|m| m.len == len));
    let k = k.min(len);
    let k_full = k / BITS;
    let k_rem = k % BITS;
    let mut prefix = 0usize;
    for b in 0..k_full {
        let mut acc = first.blocks[b];
        for m in maps.clone().skip(1) {
            acc &= m.blocks()[b];
        }
        prefix += acc.count_ones() as usize;
    }
    if k_rem > 0 {
        let mut acc = first.blocks[k_full];
        for m in maps.clone().skip(1) {
            acc &= m.blocks()[k_full];
        }
        prefix += (acc & ((1u64 << k_rem) - 1)).count_ones() as usize;
    }
    prefix
}

/// ANDs `maps` into `out`, one word per 64-bit block of a
/// `universe_len`-position universe — the shared parent half of a batched
/// child count, fed to [`and_counts`] once per child — and returns the
/// parent's own `(|AND maps|, |AND maps ∩ [0, k)|)`, counted from `out`
/// through the carry-save popcount.
///
/// With no maps the AND is the universe: every position below
/// `universe_len` is set, and the bits past it stay clear.
pub fn intersect_into<'a>(
    maps: impl IntoIterator<Item = &'a Bitmap>,
    universe_len: usize,
    k: usize,
    out: &mut Vec<u64>,
) -> (usize, usize) {
    out.clear();
    let mut maps = maps.into_iter();
    let Some(first) = maps.next() else {
        out.resize(universe_len / BITS, !0);
        if !universe_len.is_multiple_of(BITS) {
            out.push((1u64 << (universe_len % BITS)) - 1);
        }
        return (universe_len, k.min(universe_len));
    };
    debug_assert_eq!(first.len, universe_len);
    out.extend_from_slice(&first.blocks);
    for m in maps {
        debug_assert_eq!(m.len, universe_len);
        for (o, &b) in out.iter_mut().zip(&m.blocks) {
            *o &= b;
        }
    }
    split_counts(out.len(), k.min(universe_len), |lo, buf| {
        buf.copy_from_slice(&out[lo..lo + buf.len()]);
    })
}

/// `(|parent ∧ map|, |parent ∧ map ∩ [0, k)|)` for a `parent` built by
/// [`intersect_into`] over `map`'s universe: one two-operand AND and
/// popcount sweep, split at the word holding `k` so both counts come out
/// of it. Each 32-word block is ANDed into a stack buffer and counted
/// through the carry-save popcount.
pub fn and_counts(parent: &[u64], map: &Bitmap, k: usize) -> (usize, usize) {
    debug_assert_eq!(parent.len(), map.blocks.len());
    split_counts(parent.len(), k.min(map.len), |lo, buf| {
        let words = lo..lo + buf.len();
        for ((o, &x), &y) in buf
            .iter_mut()
            .zip(&parent[words.clone()])
            .zip(&map.blocks[words])
        {
            *o = x & y;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_bools(bits: &[bool]) -> Bitmap {
        let mut m = Bitmap::new(bits.len());
        for (i, _) in bits.iter().enumerate().filter(|&(_, &b)| b) {
            m.set(i);
        }
        m
    }

    fn from_bits(bits: &[u8]) -> Bitmap {
        let mut m = Bitmap::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b == 1 {
                m.set(i);
            }
        }
        m
    }

    #[test]
    fn set_get_count() {
        let mut m = Bitmap::new(130);
        assert_eq!(m.count_ones(), 0);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1));
        assert_eq!(m.count_ones(), 4);
    }

    #[test]
    fn prefix_counts() {
        let m = from_bits(&[1, 0, 1, 1, 0, 1]);
        assert_eq!(m.count_prefix(0), 0);
        assert_eq!(m.count_prefix(1), 1);
        assert_eq!(m.count_prefix(3), 2);
        assert_eq!(m.count_prefix(4), 3);
        assert_eq!(m.count_prefix(6), 4);
        assert_eq!(m.count_prefix(100), 4); // clamped
    }

    #[test]
    fn prefix_across_block_boundary() {
        let mut m = Bitmap::new(200);
        for i in 0..200 {
            if i % 3 == 0 {
                m.set(i);
            }
        }
        for k in [0, 1, 63, 64, 65, 127, 128, 129, 199, 200] {
            let expect = (0..k).filter(|i| i % 3 == 0).count();
            assert_eq!(m.count_prefix(k), expect, "k={k}");
        }
    }

    #[test]
    fn intersect_empty_is_universe() {
        assert_eq!(intersect_counts(&[], 3, 10), (10, 3));
        assert_eq!(intersect_counts(&[], 30, 10), (10, 10));
    }

    #[test]
    fn intersect_two_maps() {
        let a = from_bits(&[1, 1, 0, 1, 1, 0, 1]);
        let b = from_bits(&[1, 0, 0, 1, 0, 0, 1]);
        let (full, pre) = intersect_counts(&[&a, &b], 4, 7);
        assert_eq!(full, 3); // positions 0, 3, 6
        assert_eq!(pre, 2); // positions 0, 3
    }

    #[test]
    fn intersect_matches_naive_on_random_maps() {
        // Deterministic xorshift so the test needs no rng dependency.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 517;
        for _case in 0..20 {
            let sets: Vec<Vec<bool>> = (0..3)
                .map(|_| (0..n).map(|_| next() % 3 == 0).collect())
                .collect();
            let maps: Vec<Bitmap> = sets.iter().map(|s| from_bools(s)).collect();
            let refs: Vec<&Bitmap> = maps.iter().collect();
            let k = (next() % (n as u64 + 1)) as usize;
            let naive_full = (0..n).filter(|&i| sets.iter().all(|s| s[i])).count();
            let naive_pre = (0..k).filter(|&i| sets.iter().all(|s| s[i])).count();
            assert_eq!(intersect_counts(&refs, k, n), (naive_full, naive_pre));
        }
    }

    #[test]
    fn prefix_iter_matches_fused_pair() {
        let a = from_bits(&[1, 1, 0, 1, 1, 0, 1]);
        let b = from_bits(&[1, 0, 0, 1, 0, 0, 1]);
        for k in 0..=7 {
            let (_, pre) = intersect_counts(&[&a, &b], k, 7);
            assert_eq!(intersect_prefix_iter([&a, &b].into_iter(), k, 7), pre);
        }
        // Empty maps: the universe, clamped.
        assert_eq!(intersect_prefix_iter(std::iter::empty(), 3, 10), 3);
        assert_eq!(intersect_prefix_iter(std::iter::empty(), 30, 10), 10);
        // Multi-block universes, k on and around block boundaries.
        let mut big_a = Bitmap::new(300);
        let mut big_b = Bitmap::new(300);
        for i in 0..300 {
            if i % 3 == 0 {
                big_a.set(i);
            }
            if i % 2 == 0 {
                big_b.set(i);
            }
        }
        for k in [0, 1, 63, 64, 65, 128, 200, 299, 300, 999] {
            let (_, pre) = intersect_counts(&[&big_a, &big_b], k, 300);
            assert_eq!(
                intersect_prefix_iter([&big_a, &big_b].into_iter(), k, 300),
                pre,
                "k={k}"
            );
        }
    }

    #[test]
    fn batched_child_kernels_match_naive_bit_loop() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // `cum[i]` = set bits among the first `i` positions, one bit at a time.
        let prefix_sums = |bits: &[bool]| -> Vec<usize> {
            std::iter::once(0)
                .chain(bits.iter().scan(0, |c, &b| {
                    *c += usize::from(b);
                    Some(*c)
                }))
                .collect()
        };
        // Up to 517 positions the counts never fill a 32-word carry-save
        // block; from 2 047 on they run whole blocks plus a remainder.
        for n in [1usize, 63, 64, 65, 517, 2_047, 2_048, 2_049, 4_161, 70_000] {
            // Random maps at densities 1/2, 1/3 and 1/9 between the two
            // extremes: all-ones saturates every carry level of a block.
            let mut sets: Vec<Vec<bool>> = [2u64, 3, 9]
                .iter()
                .map(|&d| (0..n).map(|_| next() % d == 0).collect())
                .collect();
            sets.insert(1, vec![true; n]);
            sets.push(vec![false; n]);
            sets.push(vec![true; n]);
            let maps: Vec<Bitmap> = sets.iter().map(|s| from_bools(s)).collect();
            let ks = [0, 1, 63, 64, 65, 2_047, 2_048, 2_049, n, n + 7];
            // Each rotation heads the parents with another map, so every
            // map is a parent term and a child of the others.
            for rot in 0..maps.len() {
                let order: Vec<usize> = (0..maps.len()).map(|i| (i + rot) % maps.len()).collect();
                for parent_terms in 0..=3 {
                    let (parent, children) = order.split_at(parent_terms);
                    let in_parent: Vec<bool> =
                        (0..n).map(|i| parent.iter().all(|&m| sets[m][i])).collect();
                    let parent_cum = prefix_sums(&in_parent);
                    let child_cums: Vec<Vec<usize>> = children
                        .iter()
                        .map(|&c| {
                            let both: Vec<bool> = in_parent
                                .iter()
                                .zip(&sets[c])
                                .map(|(&p, &b)| p && b)
                                .collect();
                            prefix_sums(&both)
                        })
                        .collect();
                    let terms = || parent.iter().map(|&m| &maps[m]);
                    // Stale contents the parent AND must overwrite.
                    let mut words = vec![0xdead_beef; 3];
                    for k in ks {
                        let at = |cum: &[usize]| (cum[n], cum[k.min(n)]);
                        let ctx = format!("n={n} rot={rot} parent_terms={parent_terms} k={k}");
                        let want = at(&parent_cum);
                        assert_eq!(intersect_into(terms(), n, k, &mut words), want, "{ctx}");
                        assert_eq!(intersect_counts_iter(terms(), k, n), want, "{ctx}");
                        assert_eq!(intersect_prefix_iter(terms(), k, n), want.1, "{ctx}");
                        for (&c, cum) in children.iter().zip(&child_cums) {
                            assert_eq!(and_counts(&words, &maps[c], k), at(cum), "{ctx} c={c}");
                        }
                    }
                    // The buffer holds exactly the parent's positions, its
                    // tail past `n` clear.
                    assert_eq!(words.len(), n.div_ceil(BITS), "n={n}");
                    for i in 0..words.len() * BITS {
                        let bit = words[i / BITS] >> (i % BITS) & 1 == 1;
                        assert_eq!(bit, i < n && in_parent[i], "n={n} bit {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_parent_is_the_universe_in_the_batched_kernels() {
        let mut words = Vec::new();
        assert_eq!(
            intersect_into(std::iter::empty(), 70, 9, &mut words),
            (70, 9)
        );
        assert_eq!(words, vec![!0, (1 << 6) - 1]);
        assert_eq!(
            intersect_into(std::iter::empty(), 128, 200, &mut words),
            (128, 128)
        );
        assert_eq!(words, vec![!0, !0]);
        assert_eq!(intersect_into(std::iter::empty(), 0, 5, &mut words), (0, 0));
        assert!(words.is_empty());
        assert_eq!(and_counts(&words, &Bitmap::new(0), 5), (0, 0));
        // Against the empty parent a child counts as itself.
        let child = from_bits(&[0, 1, 1, 0, 1]);
        intersect_into(std::iter::empty(), 5, 0, &mut words);
        for k in 0..=7 {
            assert_eq!(
                and_counts(&words, &child, k),
                (child.count_ones(), child.count_prefix(k))
            );
        }
    }

    #[test]
    fn per_value_matches_per_bit_set() {
        let mut state = 0x5DEE_CE66_D1CE_4E5Bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 63, 64, 65, 517] {
            for card in [1usize, 2, 5, 300] {
                let codes: Vec<ValueCode> = (0..n)
                    .map(|_| ValueCode::try_from(next() % card as u64).unwrap())
                    .collect();
                // The per-bit loop `per_value` replaced.
                let mut want = vec![Bitmap::new(n); card];
                for (i, &c) in codes.iter().enumerate() {
                    want[usize::from(c)].set(i);
                }
                assert_eq!(Bitmap::per_value(&codes, card), want, "n={n} card={card}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn per_value_rejects_a_code_past_card() {
        Bitmap::per_value(&[0, 2, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::new(5).set(5);
    }

    #[test]
    fn clear_and_push_zero() {
        let mut m = Bitmap::new(65);
        m.set(0);
        m.set(64);
        m.clear(64);
        m.clear(3); // already clear: no-op
        assert!(m.get(0) && !m.get(64) && !m.get(3));
        assert_eq!(m.count_ones(), 1);
        // Growing appends clear bits and extends blocks on the boundary.
        for _ in 0..64 {
            m.push_zero();
        }
        assert_eq!(m.len(), 129);
        assert!(!m.get(128));
        m.set(128);
        assert_eq!(m.count_prefix(129), 2);
        assert_eq!(m.count_prefix(128), 1);
    }
}
