//! Packed bitsets over row ids and the count kernels every `s_D` is
//! read through.
//!
//! A count ANDs its maps a block of 32 words at a time and counts each
//! block with a Harley–Seal carry-save popcount ([`CarrySave`]): 4
//! independent lanes of 8 words, summed through a carry-save adder tree
//! so that one popcount serves 8 words of a lane. The lanes vectorize on
//! the baseline SSE2 target, and the kernel needs no popcount
//! instruction, `unsafe` code or build flag. Remainders shorter than a
//! block count word by word.

use crate::ValueCode;

/// A fixed-length packed bitset over row ids.
///
/// The detection engine stores one bitmap per (attribute, value) pair over
/// the row ids in **dataset order**. The size of a pattern in the whole
/// dataset (`s_D`) is then the popcount of the AND of its term bitmaps: one
/// pattern's from [`intersect_counts_iter`]; the children of one search
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

    /// Grows the bitmap by one position, appended clear. Used when a new
    /// row is appended to a live dataset.
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

/// Set bits in the AND of `first` with every slice of `rest`, all of
/// `first`'s length. Each block of 32 words is ANDed into one stack
/// buffer and counted through [`CarrySave`]; the remainder shorter than a
/// block is counted word by word. `rest` is re-walked once per block, so
/// it must be cheap to clone and advance (a slice iterator plus a map
/// closure is).
#[inline]
fn and_count<'a>(first: &[u64], rest: impl Iterator<Item = &'a [u64]> + Clone) -> usize {
    let (blocks, tail) = first.as_chunks::<BLOCK>();
    let mut acc = CarrySave::default();
    let mut buf = [[0; LANES]; 8];
    for (b, block) in blocks.iter().enumerate() {
        let words = buf.as_flattened_mut();
        words.copy_from_slice(block);
        for other in rest.clone() {
            for (o, &w) in words.iter_mut().zip(&other[b * BLOCK..][..BLOCK]) {
                *o &= w;
            }
        }
        acc.add(&buf);
    }
    let lo = blocks.len() * BLOCK;
    let tail_ones: usize = tail
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            rest.clone()
                .fold(w, |w, other| w & other[lo + i])
                .count_ones() as usize
        })
        .sum();
    acc.total() + tail_ones
}

/// `|AND maps|`: the size of a pattern from its term maps, with no
/// buffer the caller must hold. This is the one-pattern count (reports,
/// the baselines, the oracle, shards); the engines count a node's
/// children together with [`intersect_into`] and [`and_counts`]
/// instead.
///
/// The maps are ANDed a block of 32 words at a time into a stack buffer
/// and counted through the carry-save popcount, so the iterator is
/// re-walked once per 32 words. It must be `Clone` and cheap to advance
/// (a slice iterator plus a map closure is). With no maps the AND is the
/// universe: returns `universe_len`.
pub fn intersect_counts_iter<'a, I>(mut maps: I, universe_len: usize) -> usize
where
    I: Iterator<Item = &'a Bitmap> + Clone,
{
    let Some(first) = maps.next() else {
        return universe_len;
    };
    debug_assert!(maps.clone().all(|m| m.len == first.len));
    and_count(&first.blocks, maps.map(|m| m.blocks.as_slice()))
}

/// ANDs `maps` into `out`, one word per 64-bit block of a
/// `universe_len`-position universe — the shared parent half of a batched
/// child count, fed to [`and_counts`] once per child — and returns the
/// parent's own `|AND maps|`, counted from `out` through the carry-save
/// popcount.
///
/// With no maps the AND is the universe: every position below
/// `universe_len` is set, and the bits past it stay clear.
pub fn intersect_into<'a>(
    maps: impl IntoIterator<Item = &'a Bitmap>,
    universe_len: usize,
    out: &mut Vec<u64>,
) -> usize {
    out.clear();
    let mut maps = maps.into_iter();
    let Some(first) = maps.next() else {
        out.resize(universe_len / BITS, !0);
        if !universe_len.is_multiple_of(BITS) {
            out.push((1u64 << (universe_len % BITS)) - 1);
        }
        return universe_len;
    };
    debug_assert_eq!(first.len, universe_len);
    out.extend_from_slice(&first.blocks);
    for m in maps {
        debug_assert_eq!(m.len, universe_len);
        for (o, &b) in out.iter_mut().zip(&m.blocks) {
            *o &= b;
        }
    }
    and_count(out, std::iter::empty())
}

/// `|parent ∧ map|` for a `parent` built by [`intersect_into`] over
/// `map`'s universe: one two-operand AND and popcount sweep, each
/// 32-word block ANDed into a stack buffer and counted through the
/// carry-save popcount.
pub fn and_counts(parent: &[u64], map: &Bitmap) -> usize {
    debug_assert_eq!(parent.len(), map.blocks.len());
    and_count(parent, std::iter::once(map.blocks.as_slice()))
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
    fn intersect_empty_is_universe() {
        assert_eq!(intersect_counts_iter(std::iter::empty(), 10), 10);
        assert_eq!(intersect_counts_iter(std::iter::empty(), 0), 0);
    }

    #[test]
    fn intersect_two_maps() {
        let a = from_bits(&[1, 1, 0, 1, 1, 0, 1]);
        let b = from_bits(&[1, 0, 0, 1, 0, 0, 1]);
        // Positions 0, 3 and 6.
        assert_eq!(intersect_counts_iter([&a, &b].into_iter(), 7), 3);
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
            let naive = (0..n).filter(|&i| sets.iter().all(|s| s[i])).count();
            assert_eq!(intersect_counts_iter(maps.iter(), n), naive);
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
        let ones = |bits: &[bool]| bits.iter().filter(|&&b| b).count();
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
            // Each rotation heads the parents with another map, so every
            // map is a parent term and a child of the others.
            for rot in 0..maps.len() {
                let order: Vec<usize> = (0..maps.len()).map(|i| (i + rot) % maps.len()).collect();
                for parent_terms in 0..=3 {
                    let (parent, children) = order.split_at(parent_terms);
                    let in_parent: Vec<bool> =
                        (0..n).map(|i| parent.iter().all(|&m| sets[m][i])).collect();
                    let terms = || parent.iter().map(|&m| &maps[m]);
                    let ctx = format!("n={n} rot={rot} parent_terms={parent_terms}");
                    // Stale contents the parent AND must overwrite.
                    let mut words = vec![0xdead_beef; 3];
                    let want = ones(&in_parent);
                    assert_eq!(intersect_into(terms(), n, &mut words), want, "{ctx}");
                    assert_eq!(intersect_counts_iter(terms(), n), want, "{ctx}");
                    for &c in children {
                        let both: Vec<bool> = in_parent
                            .iter()
                            .zip(&sets[c])
                            .map(|(&p, &b)| p && b)
                            .collect();
                        assert_eq!(and_counts(&words, &maps[c]), ones(&both), "{ctx} c={c}");
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
        assert_eq!(intersect_into(std::iter::empty(), 70, &mut words), 70);
        assert_eq!(words, vec![!0, (1 << 6) - 1]);
        assert_eq!(intersect_into(std::iter::empty(), 128, &mut words), 128);
        assert_eq!(words, vec![!0, !0]);
        assert_eq!(intersect_into(std::iter::empty(), 0, &mut words), 0);
        assert!(words.is_empty());
        assert_eq!(and_counts(&words, &Bitmap::new(0)), 0);
        // Against the empty parent a child counts as itself.
        let child = from_bits(&[0, 1, 1, 0, 1]);
        intersect_into(std::iter::empty(), 5, &mut words);
        assert_eq!(and_counts(&words, &child), child.count_ones());
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
    fn push_zero_appends_clear_bits() {
        let mut m = Bitmap::new(65);
        m.set(0);
        m.set(64);
        // Growing appends clear bits and extends blocks on the boundary.
        for _ in 0..64 {
            m.push_zero();
        }
        assert_eq!(m.len(), 129);
        assert!((65..129).all(|i| !m.get(i)));
        m.set(128);
        assert!(m.get(0) && m.get(64) && m.get(128));
        assert_eq!(m.count_ones(), 3);
    }
}
