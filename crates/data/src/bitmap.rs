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

    /// Raw blocks (used by the fused intersection below and by tests).
    fn blocks(&self) -> &[u64] {
        &self.blocks
    }
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
/// slice. This is the one-pattern count (reports, baselines, shards); the
/// engines count a node's children together with [`intersect_into`] and
/// [`and_counts`] instead.
///
/// The iterator is re-walked once per 64-bit block, so it must be `Clone`
/// and cheap to advance (a slice iterator plus a map closure is).
pub fn intersect_counts_iter<'a, I>(maps: I, k: usize, universe_len: usize) -> (usize, usize)
where
    I: Iterator<Item = &'a Bitmap> + Clone,
{
    let mut probe = maps.clone();
    let Some(first) = probe.next() else {
        return (universe_len, k.min(universe_len));
    };
    let len = first.len;
    debug_assert!(maps.clone().all(|m| m.len == len));
    let k = k.min(len);
    let n_blocks = first.blocks.len();
    let k_full = k / BITS;
    let k_rem = k % BITS;
    let mut full = 0usize;
    let mut prefix = 0usize;
    for b in 0..n_blocks {
        // First map copied, remaining ANDed in: avoids a !0 sentinel and
        // lets LLVM unroll the common 1–3 term case.
        let mut acc = first.blocks[b];
        for m in maps.clone().skip(1) {
            acc &= m.blocks()[b];
        }
        let ones = acc.count_ones() as usize;
        full += ones;
        if b < k_full {
            prefix += ones;
        } else if b == k_full && k_rem > 0 {
            prefix += (acc & ((1u64 << k_rem) - 1)).count_ones() as usize;
        }
    }
    (full, prefix)
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
/// child count, fed to [`and_counts`] once per child.
///
/// With no maps the AND is the universe: every position below
/// `universe_len` is set, and the bits past it stay clear.
pub fn intersect_into<'a>(
    maps: impl IntoIterator<Item = &'a Bitmap>,
    universe_len: usize,
    out: &mut Vec<u64>,
) {
    out.clear();
    let mut maps = maps.into_iter();
    let Some(first) = maps.next() else {
        out.resize(universe_len / BITS, !0);
        if !universe_len.is_multiple_of(BITS) {
            out.push((1u64 << (universe_len % BITS)) - 1);
        }
        return;
    };
    debug_assert_eq!(first.len, universe_len);
    out.extend_from_slice(&first.blocks);
    for m in maps {
        debug_assert_eq!(m.len, universe_len);
        for (o, &b) in out.iter_mut().zip(&m.blocks) {
            *o &= b;
        }
    }
}

/// `(|parent ∧ map|, |parent ∧ map ∩ [0, k)|)` for a `parent` built by
/// [`intersect_into`] over `map`'s universe: one two-operand AND and
/// popcount pass, split at the block holding `k` so both counts come out
/// of the same sweep. The loops are plain zips the compiler vectorizes.
pub fn and_counts(parent: &[u64], map: &Bitmap, k: usize) -> (usize, usize) {
    debug_assert_eq!(parent.len(), map.blocks.len());
    let ones = |a: &[u64], b: &[u64]| -> usize {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x & y).count_ones() as usize)
            .sum()
    };
    let k = k.min(map.len);
    let (k_full, k_rem) = (k / BITS, k % BITS);
    let head = ones(&parent[..k_full], &map.blocks[..k_full]);
    let tail = ones(&parent[k_full..], &map.blocks[k_full..]);
    let partial = if k_rem > 0 {
        (parent[k_full] & map.blocks[k_full] & ((1u64 << k_rem) - 1)).count_ones() as usize
    } else {
        0
    };
    (head + tail, head + partial)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let maps: Vec<Bitmap> = sets
                .iter()
                .map(|s| {
                    let mut m = Bitmap::new(n);
                    for (i, &b) in s.iter().enumerate() {
                        if b {
                            m.set(i);
                        }
                    }
                    m
                })
                .collect();
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
        for n in [1usize, 63, 64, 65, 517] {
            for _case in 0..4 {
                // Five bitmaps at densities 1/2, 1/3, ..., 1/6: up to three
                // form the parent, the rest are children.
                let sets: Vec<Vec<bool>> = (2..7u64)
                    .map(|d| (0..n).map(|_| next() % d == 0).collect())
                    .collect();
                let maps: Vec<Bitmap> = sets
                    .iter()
                    .map(|s| {
                        let mut m = Bitmap::new(n);
                        s.iter()
                            .enumerate()
                            .filter(|&(_, &b)| b)
                            .for_each(|(i, _)| m.set(i));
                        m
                    })
                    .collect();
                for parent_terms in 0..=3 {
                    let mut words = vec![0xdead_beef; 3];
                    intersect_into(&maps[..parent_terms], n, &mut words);
                    let in_parent = |i: usize| sets[..parent_terms].iter().all(|s| s[i]);
                    assert_eq!(words.len(), n.div_ceil(BITS), "n={n}");
                    for i in 0..words.len() * BITS {
                        let bit = words[i / BITS] >> (i % BITS) & 1 == 1;
                        assert_eq!(bit, i < n && in_parent(i), "n={n} bit {i}");
                    }
                    for (child, set) in maps.iter().zip(&sets).skip(parent_terms) {
                        for k in [0, 1, 63, 64, 65, n, n + 7] {
                            let naive = |end: usize| {
                                (0..end.min(n)).filter(|&i| in_parent(i) && set[i]).count()
                            };
                            assert_eq!(
                                and_counts(&words, child, k),
                                (naive(n), naive(k)),
                                "n={n} parent_terms={parent_terms} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_parent_is_the_universe_in_the_batched_kernels() {
        let mut words = Vec::new();
        intersect_into(std::iter::empty(), 70, &mut words);
        assert_eq!(words, vec![!0, (1 << 6) - 1]);
        intersect_into(std::iter::empty(), 128, &mut words);
        assert_eq!(words, vec![!0, !0]);
        intersect_into(std::iter::empty(), 0, &mut words);
        assert!(words.is_empty());
        assert_eq!(and_counts(&words, &Bitmap::new(0), 5), (0, 0));
        // Against the empty parent a child counts as itself.
        let child = from_bits(&[0, 1, 1, 0, 1]);
        intersect_into(std::iter::empty(), 5, &mut words);
        for k in 0..=7 {
            assert_eq!(
                and_counts(&words, &child, k),
                (child.count_ones(), child.count_prefix(k))
            );
        }
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
