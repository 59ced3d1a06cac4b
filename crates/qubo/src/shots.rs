//! Packed bit-string shot buffers — the wire format between samplers and
//! decoders.
//!
//! Every backend in the workspace produces *shots*: measurement outcomes
//! over `n` binary variables, tens of thousands per experiment. Storing
//! each shot as a heap-allocated `Vec<bool>` costs one allocation plus
//! `n` bytes per shot and makes aggregation hash whole byte vectors. A
//! [`ShotBuffer`] instead packs every shot into `⌈n/64⌉` `u64` words of
//! one contiguous row-major matrix: a shot append is a couple of word
//! stores, readout errors flip whole words at a time, and duplicate
//! detection hashes 8-byte words instead of bytes.
//!
//! The packing is a pure change of representation: bit `q` of a shot is
//! bit `q % 64` of row word `q / 64`, matching the basis-state convention
//! used everywhere else (variable/qubit `q` ↔ bit `q` of the basis index).
//! Unused high bits of the last word are kept zero so rows can be compared
//! and hashed directly.

/// A packed matrix of measurement shots: one row per shot, one bit per
/// variable, rows stored as `⌈num_bits/64⌉` little-endian `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotBuffer {
    num_bits: usize,
    words_per_shot: usize,
    len: usize,
    words: Vec<u64>,
}

/// Unpacks one packed row into the `Vec<bool>` form the decoders consume.
pub fn unpack_row(words: &[u64], num_bits: usize) -> Vec<bool> {
    (0..num_bits).map(|q| words[q / 64] >> (q % 64) & 1 == 1).collect()
}

impl ShotBuffer {
    /// An empty buffer for shots of `num_bits` bits each.
    pub fn new(num_bits: usize) -> Self {
        Self::with_capacity(num_bits, 0)
    }

    /// An empty buffer with room for `shots` rows pre-allocated.
    pub fn with_capacity(num_bits: usize, shots: usize) -> Self {
        // Zero-width shots still occupy one (all-zero) word so that row
        // iteration and hashing need no special case.
        let words_per_shot = num_bits.div_ceil(64).max(1);
        ShotBuffer {
            num_bits,
            words_per_shot,
            len: 0,
            words: Vec::with_capacity(shots * words_per_shot),
        }
    }

    /// Builds a buffer from unpacked reads (test/compatibility helper).
    pub fn from_bit_vecs(reads: &[Vec<bool>], num_bits: usize) -> Self {
        let mut buf = Self::with_capacity(num_bits, reads.len());
        for read in reads {
            buf.push_bits(read);
        }
        buf
    }

    /// Bits per shot.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// `u64` words per shot row.
    pub fn words_per_shot(&self) -> usize {
        self.words_per_shot
    }

    /// Number of shots stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no shots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a shot given as a basis-state index: bit `q` of `z` becomes
    /// bit `q` of the shot. Only valid for `num_bits ≤ 64` (the dense
    /// state-vector regime).
    pub fn push_index(&mut self, z: u64) {
        debug_assert!(self.num_bits <= 64, "push_index needs single-word shots");
        debug_assert!(self.num_bits == 64 || z >> self.num_bits == 0, "index {z} out of range");
        self.words.push(z);
        for _ in 1..self.words_per_shot {
            self.words.push(0);
        }
        self.len += 1;
    }

    /// Appends a shot from an unpacked bit slice.
    pub fn push_bits(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.num_bits, "shot width mismatch");
        let start = self.words.len();
        self.words.resize(start + self.words_per_shot, 0);
        for (q, &b) in bits.iter().enumerate() {
            if b {
                self.words[start + q / 64] |= 1u64 << (q % 64);
            }
        }
        self.len += 1;
    }

    /// Bit `bit` of shot `shot`.
    pub fn get(&self, shot: usize, bit: usize) -> bool {
        assert!(shot < self.len && bit < self.num_bits, "shot/bit out of range");
        self.words[shot * self.words_per_shot + bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Flips bit `bit` of shot `shot`.
    pub fn flip(&mut self, shot: usize, bit: usize) {
        assert!(shot < self.len && bit < self.num_bits, "shot/bit out of range");
        self.words[shot * self.words_per_shot + bit / 64] ^= 1u64 << (bit % 64);
    }

    /// XORs a whole word of flip decisions into row `shot` — the word-wise
    /// readout-error path. `mask` bits beyond `num_bits` are ignored so the
    /// zero-padding invariant of the last word survives.
    pub fn xor_word(&mut self, shot: usize, word: usize, mask: u64) {
        assert!(shot < self.len && word < self.words_per_shot, "shot/word out of range");
        self.words[shot * self.words_per_shot + word] ^= mask & self.word_mask(word);
    }

    /// Valid-bit mask of row word `word`.
    fn word_mask(&self, word: usize) -> u64 {
        let bits_before = word * 64;
        let bits_here = self.num_bits.saturating_sub(bits_before).min(64);
        if bits_here == 64 {
            u64::MAX
        } else {
            (1u64 << bits_here) - 1
        }
    }

    /// The packed words of row `shot`.
    pub fn row(&self, shot: usize) -> &[u64] {
        assert!(shot < self.len, "shot out of range");
        &self.words[shot * self.words_per_shot..(shot + 1) * self.words_per_shot]
    }

    /// Iterates over rows as packed word slices, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.words.chunks_exact(self.words_per_shot)
    }

    /// Unpacks row `shot` into a bit vector.
    pub fn row_bits(&self, shot: usize) -> Vec<bool> {
        unpack_row(self.row(shot), self.num_bits)
    }

    /// Iterates over rows as unpacked bit vectors (compatibility helper —
    /// prefer [`Self::rows`] on hot paths).
    pub fn iter_bits(&self) -> impl Iterator<Item = Vec<bool>> + '_ {
        self.rows().map(|row| unpack_row(row, self.num_bits))
    }

    /// Number of shots with bit `bit` set — the per-variable frequency the
    /// statistical tests assert on.
    pub fn count_ones(&self, bit: usize) -> usize {
        assert!(bit < self.num_bits, "bit out of range");
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        self.rows().filter(|row| row[word] & mask != 0).count()
    }

    /// Appends every shot of `other`, preserving order.
    pub fn append(&mut self, other: &ShotBuffer) {
        assert_eq!(self.num_bits, other.num_bits, "shot width mismatch");
        self.words.extend_from_slice(&other.words);
        self.len += other.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_round_trips_through_bits() {
        let mut buf = ShotBuffer::with_capacity(3, 4);
        for z in [0b000u64, 0b101, 0b111, 0b010] {
            buf.push_index(z);
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.row_bits(1), vec![true, false, true]);
        assert_eq!(buf.row_bits(3), vec![false, true, false]);
        assert!(buf.get(2, 2));
        assert!(!buf.get(0, 0));
    }

    #[test]
    fn push_bits_matches_push_index() {
        let mut a = ShotBuffer::new(5);
        a.push_index(0b10110);
        let mut b = ShotBuffer::new(5);
        b.push_bits(&[false, true, true, false, true]);
        assert_eq!(a, b);
    }

    #[test]
    fn wide_shots_span_multiple_words() {
        let n = 130;
        let mut bits = vec![false; n];
        bits[0] = true;
        bits[64] = true;
        bits[129] = true;
        let mut buf = ShotBuffer::new(n);
        buf.push_bits(&bits);
        assert_eq!(buf.words_per_shot(), 3);
        assert_eq!(buf.row(0), &[1, 1, 2]);
        assert_eq!(buf.row_bits(0), bits);
    }

    #[test]
    fn flip_and_xor_word_agree() {
        let mut a = ShotBuffer::new(7);
        a.push_index(0b1010101);
        let mut b = a.clone();
        for bit in [0, 3, 6] {
            a.flip(0, bit);
        }
        b.xor_word(0, 0, 0b1001001);
        assert_eq!(a, b);
    }

    #[test]
    fn xor_word_ignores_bits_beyond_width() {
        let mut buf = ShotBuffer::new(3);
        buf.push_index(0);
        buf.xor_word(0, 0, u64::MAX);
        assert_eq!(buf.row(0), &[0b111]);
    }

    #[test]
    fn append_preserves_order_and_count() {
        let mut a = ShotBuffer::new(2);
        a.push_index(0b01);
        let mut b = ShotBuffer::new(2);
        b.push_index(0b10);
        b.push_index(0b11);
        a.append(&b);
        assert_eq!(a.len(), 3);
        let rows: Vec<Vec<bool>> = a.iter_bits().collect();
        assert_eq!(rows, vec![vec![true, false], vec![false, true], vec![true, true]]);
    }

    #[test]
    fn count_ones_counts_per_variable() {
        let buf =
            ShotBuffer::from_bit_vecs(&[vec![true, false], vec![true, true], vec![false, true]], 2);
        assert_eq!(buf.count_ones(0), 2);
        assert_eq!(buf.count_ones(1), 2);
    }

    #[test]
    fn zero_width_shots_are_countable() {
        let mut buf = ShotBuffer::new(0);
        buf.push_bits(&[]);
        buf.push_bits(&[]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.rows().count(), 2);
        assert_eq!(buf.row(0), &[0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn append_rejects_mismatched_widths() {
        let mut a = ShotBuffer::new(2);
        a.append(&ShotBuffer::new(3));
    }
}
