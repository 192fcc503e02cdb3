//! Bit-vector utilities used throughout the codec.
//!
//! The paper indexes message bits as `m1 m2 … mn` and splits them into
//! consecutive `k`-bit segments `M_t = m_(t-1)k+1 … m_tk` (§3.1). We mirror
//! that convention with an **MSB-first** bit vector: bit 0 of a [`BitVec`]
//! is the most significant bit of its first byte, so a byte-oriented
//! payload round-trips in natural reading order.

/// A growable, MSB-first bit vector.
///
/// Bit `i` lives in byte `i / 8` at bit position `7 - (i % 8)`. This is the
/// order in which the spinal encoder consumes message bits: segment `t`
/// (0-based) is bits `[t*k, (t+1)*k)`, with the earlier bit more
/// significant inside the segment.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    bytes: Vec<u8>,
    len: usize,
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            bytes: vec![0u8; len.div_ceil(8)],
            len,
        }
    }

    /// Creates a bit vector from whole bytes; the resulting length is
    /// `bytes.len() * 8`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self {
            bytes: bytes.to_vec(),
            len: bytes.len() * 8,
        }
    }

    /// Creates a bit vector from a slice of booleans, preserving order.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::new();
        for &b in bits {
            v.push(b);
        }
        v
    }

    /// Builds a bit vector from the `len` low-order bits of `value`,
    /// most significant of those bits first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        let mut v = Self::new();
        v.push_bits(value, len);
        v
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Removes all bits, keeping the allocated capacity (so a reused
    /// buffer refills without touching the heap).
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
    }

    /// `true` when the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let byte = self.len / 8;
        if byte == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte] |= 1 << (7 - (self.len % 8));
        }
        self.len += 1;
    }

    /// Appends the `count` low-order bits of `value`, most significant
    /// of those bits first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn push_bits(&mut self, value: u64, count: usize) {
        assert!(count <= 64, "push_bits supports at most 64 bits");
        for i in (0..count).rev() {
            self.push((value >> i) & 1 == 1);
        }
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        (self.bytes[i / 8] >> (7 - (i % 8))) & 1 == 1
    }

    /// Sets bit `i` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let mask = 1 << (7 - (i % 8));
        if bit {
            self.bytes[i / 8] |= mask;
        } else {
            self.bytes[i / 8] &= !mask;
        }
    }

    /// Appends all bits of `other` — whole bytes at once when `self`
    /// ends on a byte boundary (padding bits are always zero, so
    /// `other`'s bytes append as they are).
    pub fn extend_from(&mut self, other: &BitVec) {
        if self.len.is_multiple_of(8) {
            self.bytes.extend_from_slice(&other.bytes);
            self.len += other.len;
            return;
        }
        for i in 0..other.len() {
            self.push(other.get(i));
        }
    }

    /// Reads `count ≤ 64` bits starting at bit `start`, returned in the low
    /// bits of a `u64` with the first-read bit most significant.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector or `count > 64`.
    pub fn get_range(&self, start: usize, count: usize) -> u64 {
        assert!(count <= 64, "get_range supports at most 64 bits");
        assert!(
            start + count <= self.len,
            "bit range {start}..{} out of range 0..{}",
            start + count,
            self.len
        );
        let mut out = 0u64;
        for i in 0..count {
            out = (out << 1) | u64::from(self.get(start + i));
        }
        out
    }

    /// The underlying bytes; the final byte is zero-padded when
    /// `len % 8 != 0`.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Converts to owned bytes (zero-padded in the final byte).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Number of positions at which `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(
            self.len, other.len,
            "hamming_distance requires equal lengths"
        );
        (0..self.len)
            .filter(|&i| self.get(i) != other.get(i))
            .count()
    }

    /// Truncates the vector to `len` bits (no-op if already shorter),
    /// clearing the now-unused padding bits.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.bytes.truncate(len.div_ceil(8));
        if !len.is_multiple_of(8) {
            let keep = 0xffu8 << (8 - (len % 8));
            if let Some(last) = self.bytes.last_mut() {
                *last &= keep;
            }
        }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_get_msb_first() {
        let mut v = BitVec::new();
        v.push(true);
        v.push(false);
        v.push(true);
        assert_eq!(v.len(), 3);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(v.get(2));
        // MSB-first: 101x_xxxx
        assert_eq!(v.as_bytes()[0], 0b1010_0000);
    }

    #[test]
    fn from_bytes_round_trip() {
        let bytes = [0xde, 0xad, 0xbe, 0xef];
        let v = BitVec::from_bytes(&bytes);
        assert_eq!(v.len(), 32);
        assert_eq!(v.to_bytes(), bytes);
        assert!(v.get(0)); // 0xde = 1101_1110
        assert!(v.get(1));
        assert!(!v.get(2));
    }

    #[test]
    fn from_u64_msb_first() {
        let v = BitVec::from_u64(0b1011, 4);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![true, false, true, true]);
    }

    #[test]
    fn get_range_reads_segments() {
        // 0b1100_1010 -> segments of 4: 0b1100, 0b1010
        let v = BitVec::from_bytes(&[0b1100_1010]);
        assert_eq!(v.get_range(0, 4), 0b1100);
        assert_eq!(v.get_range(4, 4), 0b1010);
        assert_eq!(v.get_range(2, 4), 0b0010);
    }

    #[test]
    fn zeros_is_all_zero() {
        let v = BitVec::zeros(17);
        assert_eq!(v.len(), 17);
        assert!(v.iter().all(|b| !b));
    }

    #[test]
    fn set_flips_bits() {
        let mut v = BitVec::zeros(10);
        v.set(3, true);
        v.set(9, true);
        assert!(v.get(3));
        assert!(v.get(9));
        v.set(3, false);
        assert!(!v.get(3));
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a = BitVec::from_bytes(&[0b1111_0000]);
        let b = BitVec::from_bytes(&[0b1010_0000]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn truncate_clears_padding() {
        let mut v = BitVec::from_bytes(&[0xff]);
        v.truncate(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.as_bytes()[0], 0b1110_0000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(4);
        v.get(4);
    }

    proptest! {
        #[test]
        fn prop_round_trip_bools(bits in proptest::collection::vec(any::<bool>(), 0..256)) {
            let v = BitVec::from_bools(&bits);
            prop_assert_eq!(v.len(), bits.len());
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(v.get(i), b);
            }
            let collected: Vec<bool> = v.iter().collect();
            prop_assert_eq!(collected, bits);
        }

        /// Appending, byte-wise from a byte boundary or bit-wise
        /// otherwise, equals building the concatenation bit by bit.
        #[test]
        fn prop_extend_from_is_concatenation(a in proptest::collection::vec(any::<bool>(), 0..40),
                                             b in proptest::collection::vec(any::<bool>(), 0..40)) {
            let mut v = BitVec::from_bools(&a);
            v.extend_from(&BitVec::from_bools(&b));
            prop_assert_eq!(v, BitVec::from_bools(&[a, b].concat()));
        }

        #[test]
        fn prop_get_range_matches_bitwise(bytes in proptest::collection::vec(any::<u8>(), 1..16),
                                          start in 0usize..64, count in 0usize..32) {
            let v = BitVec::from_bytes(&bytes);
            prop_assume!(start + count <= v.len());
            let r = v.get_range(start, count);
            for i in 0..count {
                let expect = v.get(start + i);
                let got = (r >> (count - 1 - i)) & 1 == 1;
                prop_assert_eq!(got, expect);
            }
        }

        #[test]
        fn prop_from_u64_get_range_inverse(value in any::<u64>(), len in 1usize..=64) {
            let masked = if len == 64 { value } else { value & ((1u64 << len) - 1) };
            let v = BitVec::from_u64(masked, len);
            prop_assert_eq!(v.get_range(0, len), masked);
        }

        #[test]
        fn prop_hamming_triangle(a in proptest::collection::vec(any::<bool>(), 32),
                                 b in proptest::collection::vec(any::<bool>(), 32),
                                 c in proptest::collection::vec(any::<bool>(), 32)) {
            let (a, b, c) = (BitVec::from_bools(&a), BitVec::from_bools(&b), BitVec::from_bools(&c));
            let ab = a.hamming_distance(&b);
            let bc = b.hamming_distance(&c);
            let ac = a.hamming_distance(&c);
            prop_assert!(ac <= ab + bc);
        }
    }
}
