//! LZ77 with a hardware-sized sliding window.
//!
//! Hardware LZ77 decompressors keep the window in on-chip RAM, so published
//! FPGA implementations use windows of a few hundred bytes to a few KB —
//! far smaller than software Zip's 32 KB. That is why LZ77 (71.4% saved)
//! loses to Zip (81.2%) in Table I: the inter-frame redundancy of a
//! configuration bitstream sits at distances a small window cannot reach.
//!
//! Stream format: `u32-LE original length`, then MSB-first tokens:
//! `1 | offset-1 (W bits) | length-3 (L bits)` or `0 | literal (8 bits)`.

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CodecError};

/// Minimum match length worth a token.
pub const MIN_MATCH: usize = 3;

/// LZ77 codec with configurable window/length field widths.
#[derive(Debug, Clone, Copy)]
pub struct Lz77 {
    offset_bits: u32,
    len_bits: u32,
}

impl Lz77 {
    /// The hardware-sized default: 512 B window (9 offset bits), 5 length
    /// bits (matches of 3..=34 bytes) — the window a BRAM-resident
    /// decompressor affords.
    #[must_use]
    pub fn hardware() -> Self {
        Lz77 {
            offset_bits: 9,
            len_bits: 5,
        }
    }

    /// A custom geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ offset_bits ≤ 24` and `1 ≤ len_bits ≤ 16`.
    #[must_use]
    pub fn with_geometry(offset_bits: u32, len_bits: u32) -> Self {
        assert!((1..=24).contains(&offset_bits), "offset bits out of range");
        assert!((1..=16).contains(&len_bits), "length bits out of range");
        Lz77 {
            offset_bits,
            len_bits,
        }
    }

    /// Window size in bytes.
    #[must_use]
    pub fn window(&self) -> usize {
        1 << self.offset_bits
    }

    /// Maximum encodable match length.
    #[must_use]
    pub fn max_match(&self) -> usize {
        MIN_MATCH + (1 << self.len_bits) - 1
    }

    /// Greedy tokenisation with a hash-chain match finder. Exposed for the
    /// deflate-like codec, which entropy-codes the same token stream.
    ///
    /// Candidate matches are extended eight bytes per step (XOR +
    /// `trailing_zeros`). This module's property tests pin the token
    /// stream to the same finder with byte-at-a-time extension, so the
    /// compression ratio cannot regress.
    #[must_use]
    pub fn tokenize(&self, input: &[u8]) -> Vec<Token> {
        self.tokenize_impl(input, false)
    }

    /// Reference tokenisation: identical finder, byte-at-a-time match
    /// extension. Exists to pin [`Self::tokenize`] in equivalence tests.
    #[cfg(test)]
    fn tokenize_reference(&self, input: &[u8]) -> Vec<Token> {
        self.tokenize_impl(input, true)
    }

    fn tokenize_impl(&self, input: &[u8], reference: bool) -> Vec<Token> {
        let window = self.window();
        let max_match = self.max_match();
        let mut tokens = Vec::new();
        let mut finder = MatchFinder::new(window);
        let mut i = 0usize;
        while i < input.len() {
            let (dist, len) = finder.best_match(input, i, max_match, reference);
            if len >= MIN_MATCH {
                tokens.push(Token::Match {
                    distance: dist as u32,
                    length: len as u32,
                });
                for k in i..i + len {
                    finder.insert(input, k);
                }
                i += len;
            } else {
                tokens.push(Token::Literal(input[i]));
                finder.insert(input, i);
                i += 1;
            }
        }
        tokens
    }
}

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A raw byte.
    Literal(u8),
    /// A back-reference `distance` bytes back, `length` bytes long.
    Match {
        /// Distance back into the window (1-based).
        distance: u32,
        /// Match length in bytes.
        length: u32,
    },
}

/// zlib-style hash-chain match finder.
///
/// Chain links are `u32` (half the memory traffic of the former `i64`
/// tables — the head table alone is 128 KB instead of 256 KB), with
/// [`NIL`] as the no-entry sentinel; ring indices use a mask since the
/// window is always a power of two.
#[derive(Debug)]
struct MatchFinder {
    window: usize,
    /// `window - 1`.
    mask: usize,
    head: Vec<u32>,
    prev: Vec<u32>,
    max_chain: usize,
}

const HASH_BITS: u32 = 15;

/// Empty-chain sentinel. Inputs are far below 4 GiB (the stream format
/// caps lengths at `u32` anyway), so no valid position collides with it.
const NIL: u32 = u32::MAX;

impl MatchFinder {
    fn new(window: usize) -> Self {
        debug_assert!(window.is_power_of_two());
        MatchFinder {
            window,
            mask: window - 1,
            head: vec![NIL; 1 << HASH_BITS],
            prev: vec![NIL; window],
            max_chain: 64,
        }
    }

    fn hash(input: &[u8], pos: usize) -> usize {
        let h = u32::from(input[pos])
            .wrapping_mul(0x9E37)
            .wrapping_add(u32::from(input[pos + 1]).wrapping_mul(0x79B9))
            .wrapping_add(u32::from(input[pos + 2]).wrapping_mul(0x0185));
        (h as usize) & ((1 << HASH_BITS) - 1)
    }

    fn insert(&mut self, input: &[u8], pos: usize) {
        if pos + MIN_MATCH > input.len() {
            return;
        }
        let h = Self::hash(input, pos);
        self.prev[pos & self.mask] = self.head[h];
        self.head[h] = pos as u32;
    }

    /// Returns `(distance, length)` of the best match at `pos` (length 0 if
    /// none). `reference` selects byte-at-a-time match extension instead
    /// of the word-level fast path; both compute the same length.
    fn best_match(
        &self,
        input: &[u8],
        pos: usize,
        max_match: usize,
        reference: bool,
    ) -> (usize, usize) {
        if pos + MIN_MATCH > input.len() {
            return (0, 0);
        }
        let limit = input.len().min(pos + max_match);
        let min_pos = pos.saturating_sub(self.window);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = self.head[Self::hash(input, pos)];
        let mut chain = 0;
        while cand != NIL && chain < self.max_chain {
            let c = cand as usize;
            if c < min_pos || c >= pos {
                break;
            }
            let l = if reference {
                let mut l = 0usize;
                while pos + l < limit && input[c + l] == input[pos + l] {
                    l += 1;
                }
                l
            } else {
                common_prefix(input, c, pos, limit)
            };
            if l > best_len {
                best_len = l;
                best_dist = pos - c;
                if pos + l == limit {
                    break;
                }
            }
            cand = self.prev[c & self.mask];
            chain += 1;
        }
        (best_dist, best_len)
    }
}

/// Length of the common prefix of `input[a..]` and `input[b..limit]`
/// (`a < b`), comparing eight bytes per step.
#[inline]
fn common_prefix(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let max = limit - b;
    let mut l = 0usize;
    // `a + l + 8 <= b + l + 8 <= limit` keeps both loads in bounds; for
    // overlapping candidates (`b - a < 8`) the earlier bytes re-read here
    // are exactly the bytes the byte-wise loop would have compared.
    while l + 8 <= max {
        let x = u64::from_le_bytes(input[a + l..a + l + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(input[b + l..b + l + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && input[a + l] == input[b + l] {
        l += 1;
    }
    l
}

impl Codec for Lz77 {
    fn name(&self) -> &'static str {
        "LZ77"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 8);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        let mut w = BitWriter::new();
        for token in self.tokenize(input) {
            match token {
                Token::Literal(b) => {
                    w.write_bit(false);
                    w.write_bits(u32::from(b), 8);
                }
                Token::Match { distance, length } => {
                    w.write_bit(true);
                    w.write_bits(distance - 1, self.offset_bits);
                    w.write_bits(length - MIN_MATCH as u32, self.len_bits);
                }
            }
        }
        out.extend_from_slice(&w.finish());
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let n = u32::from_le_bytes(input[0..4].try_into().expect("4 bytes")) as usize;
        let mut reader = BitReader::new(&input[4..]);
        let mut out = Vec::with_capacity(crate::output_capacity(n, input.len()));
        while out.len() < n {
            if reader.read_bit()? {
                let dist = reader.read_bits(self.offset_bits)? as usize + 1;
                let len = reader.read_bits(self.len_bits)? as usize + MIN_MATCH;
                if dist > out.len() {
                    return Err(CodecError::corrupt(format!(
                        "backreference {dist} beyond {} output bytes",
                        out.len()
                    )));
                }
                if out.len() + len > n {
                    return Err(CodecError::corrupt("match overruns output"));
                }
                let from = out.len() - dist;
                if len <= dist {
                    out.extend_from_within(from..from + len);
                } else {
                    // Overlapping copies are the RLE-like case (dist < len).
                    out.reserve(len);
                    for k in 0..len {
                        let b = out[from + k];
                        out.push(b);
                    }
                }
            } else {
                out.push(reader.read_bits(8)? as u8);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &Lz77, data: &[u8]) {
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            data,
            "len {}",
            data.len()
        );
    }

    #[test]
    fn repetitive_data_round_trips_and_shrinks() {
        let codec = Lz77::hardware();
        let data: Vec<u8> = b"abcabcabcabcabc".repeat(200);
        let packed = codec.compress(&data);
        assert!(packed.len() < data.len() / 4);
        roundtrip(&codec, &data);
    }

    #[test]
    fn overlapping_match_rle_case() {
        let codec = Lz77::hardware();
        // "aaaa..." forces dist=1, len>1 overlapping copies.
        roundtrip(&codec, &vec![b'a'; 5000]);
    }

    #[test]
    fn short_inputs_all_literal() {
        let codec = Lz77::hardware();
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            roundtrip(&codec, data);
        }
    }

    #[test]
    fn window_limits_reachable_redundancy() {
        // Two identical 2 KB blocks separated by 4 KB of incompressible
        // noise: a 1 KB window cannot link them, a 16 KB window can.
        let mut rng_state = 1u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (rng_state >> 33) as u8
                })
                .collect()
        };
        let block = noise(2048);
        let mut data = block.clone();
        data.extend(noise(4096));
        data.extend(&block);

        let small = Lz77::hardware().compress(&data).len();
        let large = Lz77::with_geometry(14, 8).compress(&data).len();
        assert!(
            (large as f64) < small as f64 * 0.85,
            "large window {large} should beat small {small}"
        );
        roundtrip(&Lz77::hardware(), &data);
        roundtrip(&Lz77::with_geometry(14, 8), &data);
    }

    #[test]
    fn max_match_length_respected() {
        let codec = Lz77::hardware();
        assert_eq!(codec.max_match(), 34);
        assert_eq!(codec.window(), 512);
        let tokens = codec.tokenize(&vec![0u8; 1000]);
        for t in tokens {
            if let Token::Match { length, .. } = t {
                assert!(length as usize <= codec.max_match());
                assert!(length as usize >= MIN_MATCH);
            }
        }
    }

    #[test]
    fn corrupt_backreference_detected() {
        let codec = Lz77::hardware();
        // Handcraft: n=4, then a match token with dist beyond output.
        let mut out = 4u32.to_le_bytes().to_vec();
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(100, 9); // dist = 101 into empty output
        w.write_bits(0, 5);
        out.extend_from_slice(&w.finish());
        assert!(matches!(
            codec.decompress(&out),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_stream_detected() {
        let codec = Lz77::hardware();
        let data = b"the quick brown fox jumps over the lazy dog".repeat(10);
        let mut packed = codec.compress(&data);
        packed.truncate(8);
        assert!(codec.decompress(&packed).is_err());
    }

    #[test]
    #[should_panic(expected = "offset bits")]
    fn absurd_geometry_rejected() {
        let _ = Lz77::with_geometry(30, 6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn lz_input_strategy() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..2048),
            // Low-entropy, match-rich data (bitstream-like).
            proptest::collection::vec(prop_oneof![Just(0u8), 1u8..6], 0..3072),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn word_at_a_time_lz77_matches_byte_at_a_time(data in lz_input_strategy()) {
            for lz in [Lz77::hardware(), Lz77::with_geometry(6, 4), Lz77::with_geometry(12, 8)] {
                let fast = lz.tokenize(&data);
                let slow = lz.tokenize_reference(&data);
                prop_assert_eq!(&fast, &slow, "token streams diverge");
            }
        }

        #[test]
        fn lz77_round_trips_at_every_geometry(data in lz_input_strategy()) {
            for lz in [Lz77::hardware(), Lz77::with_geometry(6, 4), Lz77::with_geometry(12, 8)] {
                let packed = lz.compress(&data);
                prop_assert_eq!(lz.decompress(&packed).expect("decompress"), data.clone());
            }
        }
    }
}
