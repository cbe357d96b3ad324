//! Order-0 canonical Huffman coding.
//!
//! Configuration bitstreams have a very skewed byte distribution (zero-heavy
//! frame words, a few recurring header bytes), which is why plain Huffman
//! already saves 72.3% in Table I — more than LZ77 with a hardware-sized
//! window.
//!
//! Stream format: `u32-LE original length`, 256 code lengths (one byte per
//! symbol, 0 = absent), then the MSB-first code bits.

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CodecError};
use std::collections::BinaryHeap;

/// Canonical Huffman codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Huffman;

impl Huffman {
    /// Creates the codec.
    #[must_use]
    pub fn new() -> Self {
        Huffman
    }
}

/// Computes Huffman code lengths for `freqs` (0 for absent symbols).
///
/// Degenerate cases: no symbols → all zero; one symbol → length 1.
#[must_use]
pub fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        /// Tie-break for determinism: smallest symbol in the subtree.
        order: u32,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(usize),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for min-heap.
            other
                .weight
                .cmp(&self.weight)
                .then_with(|| other.order.cmp(&self.order))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut lengths = vec![0u8; freqs.len()];
    let mut heap: BinaryHeap<Node> = freqs
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w > 0)
        .map(|(i, &w)| Node {
            weight: w,
            order: i as u32,
            kind: NodeKind::Leaf(i),
        })
        .collect();
    match heap.len() {
        0 => return lengths,
        1 => {
            if let NodeKind::Leaf(i) = heap.pop().expect("len 1").kind {
                lengths[i] = 1;
            }
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        heap.push(Node {
            weight: a.weight + b.weight,
            order: a.order.min(b.order),
            kind: NodeKind::Internal(Box::new(a), Box::new(b)),
        });
    }
    // Walk the tree assigning depths.
    let root = heap.pop().expect("one root");
    let mut stack = vec![(root, 0u8)];
    while let Some((node, depth)) = stack.pop() {
        match node.kind {
            NodeKind::Leaf(i) => lengths[i] = depth,
            NodeKind::Internal(a, b) => {
                stack.push((*a, depth + 1));
                stack.push((*b, depth + 1));
            }
        }
    }
    lengths
}

/// Assigns canonical codes (symbol-sorted within each length).
///
/// Returns `(code, length)` per symbol; absent symbols get `(0, 0)`.
#[must_use]
pub fn canonical_codes(lengths: &[u8]) -> Vec<(u64, u8)> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u64; max_len as usize + 1];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = vec![0u64; max_len as usize + 1];
    let mut code = 0u64;
    for l in 1..=max_len as usize {
        code = (code + count[l - 1]) << 1;
        next[l] = code;
    }
    let mut out = vec![(0u64, 0u8); lengths.len()];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 {
            out[sym] = (next[l as usize], l);
            next[l as usize] += 1;
        }
    }
    out
}

/// Canonical Huffman decoder over arbitrary symbol alphabets (shared with
/// the deflate-like codec).
///
/// Decoding has two paths: [`Self::decode`] is the bit-at-a-time
/// reference, and [`Self::decode_fast`] resolves codes of up to
/// [`Self::PRIMARY_BITS`] bits with a single table lookup on peeked bits,
/// falling back to the reference scan for the rare longer codes. The two
/// are bit-exact (see `tests/proptest_fastpath.rs`).
#[derive(Debug, Clone)]
pub struct CanonicalDecoder {
    max_len: u8,
    /// `first_code[l]`, `base_index[l]` per length.
    first_code: Vec<u64>,
    base_index: Vec<usize>,
    count: Vec<u64>,
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    /// Primary lookup table indexed by the next [`Self::PRIMARY_BITS`]
    /// bits: `(symbol << 8) | code_len` for codes that fit, 0 otherwise.
    lut: Vec<u32>,
}

impl CanonicalDecoder {
    /// Maximum plausible code length: a depth-48 Huffman code would need a
    /// Fibonacci-skewed input of >2^33 symbols, far beyond any bitstream.
    /// Longer lengths only occur in corrupt headers.
    pub const MAX_CODE_LEN: u8 = 48;

    /// Width of the primary lookup table (2^11 entries, 8 KB): covers
    /// every code the 256-symbol byte alphabet produces in practice while
    /// staying L1-resident.
    pub const PRIMARY_BITS: u8 = 11;

    /// Builds a decoder from per-symbol code lengths.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] if the lengths do not describe a prefix code
    /// (oversubscribed Kraft sum) or exceed [`Self::MAX_CODE_LEN`].
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > Self::MAX_CODE_LEN {
            return Err(CodecError::corrupt(format!(
                "implausible code length {max_len}"
            )));
        }
        let mut count = vec![0u64; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft inequality check.
        let mut kraft = 0u128;
        for (l, &c) in count.iter().enumerate().skip(1) {
            kraft += (c as u128) << (max_len as usize - l);
        }
        if max_len > 0 && kraft > 1u128 << (max_len as usize) {
            return Err(CodecError::corrupt("oversubscribed code lengths"));
        }
        let mut first_code = vec![0u64; max_len as usize + 1];
        let mut code = 0u64;
        for l in 1..=max_len as usize {
            code = (code + count[l - 1]) << 1;
            first_code[l] = code;
        }
        let mut symbols: Vec<u32> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut base_index = vec![0usize; max_len as usize + 1];
        let mut idx = 0usize;
        for l in 1..=max_len as usize {
            base_index[l] = idx;
            idx += count[l] as usize;
        }

        // Primary table: every code of length ≤ PRIMARY_BITS owns the
        // 2^(PRIMARY_BITS - len) slots sharing its prefix.
        let pb = u32::from(Self::PRIMARY_BITS);
        let mut lut = vec![0u32; 1 << pb];
        for l in 1..=max_len.min(Self::PRIMARY_BITS) {
            let lw = u32::from(l);
            for k in 0..count[l as usize] {
                let code = first_code[l as usize] + k;
                let sym = symbols[base_index[l as usize] + k as usize];
                debug_assert!(sym < 1 << 24, "symbol fits the packed entry");
                let base = (code << (pb - lw)) as usize;
                for slot in &mut lut[base..base + (1 << (pb - lw))] {
                    *slot = (sym << 8) | lw;
                }
            }
        }
        Ok(CanonicalDecoder {
            max_len,
            first_code,
            base_index,
            count,
            symbols,
            lut,
        })
    }

    /// Decodes one symbol from `reader`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input, [`CodecError::Corrupt`]
    /// for a bit pattern outside the code.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let mut code = 0u64;
        for l in 1..=self.max_len as usize {
            code = (code << 1) | u64::from(reader.read_bit()?);
            let c = self.count[l];
            if c > 0 && code >= self.first_code[l] && code - self.first_code[l] < c {
                let off = (code - self.first_code[l]) as usize;
                return Ok(self.symbols[self.base_index[l] + off]);
            }
        }
        Err(CodecError::corrupt("invalid huffman code"))
    }

    /// Decodes one symbol via the primary lookup table (bit-exact with
    /// [`Self::decode`]).
    ///
    /// Codes of up to [`Self::PRIMARY_BITS`] bits — all of them, for any
    /// realistic length distribution — resolve with one peek and one
    /// table load; longer codes fall back to the per-length scan.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input, [`CodecError::Corrupt`]
    /// for a bit pattern outside the code.
    #[inline]
    pub fn decode_fast(&self, reader: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let entry = self.lut[reader.peek_bits(u32::from(Self::PRIMARY_BITS)) as usize];
        if entry != 0 {
            // Zero padding past end-of-stream can only have selected this
            // entry if its code length exceeds the remaining bits, which
            // `consume` rejects — matching the reference path's Truncated.
            reader.consume(entry & 0xFF)?;
            return Ok(entry >> 8);
        }
        self.decode(reader)
    }
}

/// Appends one canonical code (up to [`CanonicalDecoder::MAX_CODE_LEN`]
/// bits) to `w` MSB-first, splitting it across at most two batched writes.
#[inline]
pub(crate) fn write_code(w: &mut BitWriter, code: u64, len: u8) {
    let len = u32::from(len);
    if len > 32 {
        w.write_bits((code >> 32) as u32, len - 32);
        w.write_bits(code as u32, 32);
    } else {
        w.write_bits(code as u32, len);
    }
}

impl Codec for Huffman {
    fn name(&self) -> &'static str {
        "Huffman"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut freqs = [0u64; 256];
        for &b in input {
            freqs[b as usize] += 1;
        }
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        let mut out = Vec::with_capacity(input.len() / 2 + 264);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        out.extend_from_slice(&lengths);
        let mut w = BitWriter::with_capacity(input.len() / 2);
        for &b in input {
            let (code, len) = codes[b as usize];
            write_code(&mut w, code, len);
        }
        out.extend_from_slice(&w.finish());
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 4 + 256 {
            return Err(CodecError::Truncated);
        }
        let n = u32::from_le_bytes(input[0..4].try_into().expect("4 bytes")) as usize;
        let decoder = CanonicalDecoder::from_lengths(&input[4..260])?;
        let mut reader = BitReader::new(&input[260..]);
        let mut out = Vec::with_capacity(crate::output_capacity(n, input.len()));
        for _ in 0..n {
            out.push(decoder.decode_fast(&mut reader)? as u8);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_data_compresses_near_entropy() {
        // 90% zeros, 10% spread: H ≈ 0.9·log(1/0.9) + ... ≈ 0.65 bits/byte
        // with a 16-symbol tail.
        let mut data = Vec::new();
        for i in 0..50_000u32 {
            data.push(if i % 10 == 0 { (i % 16) as u8 + 1 } else { 0 });
        }
        let h = Huffman::new();
        let packed = h.compress(&data);
        assert!(
            packed.len() < data.len() / 4,
            "{} vs {}",
            packed.len(),
            data.len()
        );
        assert_eq!(h.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn uniform_data_does_not_shrink() {
        let data: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let h = Huffman::new();
        let packed = h.compress(&data);
        // 8-bit codes for everything + header.
        assert!(packed.len() >= data.len());
        assert_eq!(h.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn single_symbol_input() {
        let h = Huffman::new();
        let data = vec![42u8; 1000];
        let packed = h.compress(&data);
        assert_eq!(h.decompress(&packed).unwrap(), data);
        // 1 bit per byte + 260-byte header.
        assert_eq!(packed.len(), 4 + 256 + 125);
    }

    #[test]
    fn empty_input() {
        let h = Huffman::new();
        let packed = h.compress(&[]);
        assert_eq!(h.decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn code_lengths_satisfy_kraft_equality() {
        let mut freqs = vec![0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = (i as u64 + 1) * 3;
        }
        let lengths = code_lengths(&freqs);
        let max = *lengths.iter().max().unwrap() as u32;
        let kraft: u128 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u128 << (max - u32::from(l)))
            .sum();
        assert_eq!(kraft, 1u128 << max, "full tree ⇒ Kraft equality");
    }

    #[test]
    fn canonical_codes_are_prefix_free_and_ordered() {
        let freqs = [50u64, 30, 10, 5, 5];
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        for (i, &(ci, li)) in codes.iter().enumerate() {
            for (j, &(cj, lj)) in codes.iter().enumerate() {
                if i == j || li == 0 || lj == 0 {
                    continue;
                }
                let (short, long, sc, lc) = if li <= lj {
                    (li, lj, ci, cj)
                } else {
                    (lj, li, cj, ci)
                };
                assert_ne!(lc >> (long - short), sc, "prefix violation {i} vs {j}");
            }
        }
    }

    #[test]
    fn truncated_stream_detected() {
        let h = Huffman::new();
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut packed = h.compress(&data);
        packed.truncate(packed.len() - 1);
        assert!(h.decompress(&packed).is_err());
        assert_eq!(h.decompress(&[1, 2, 3]), Err(CodecError::Truncated));
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three symbols of length 1 cannot form a prefix code.
        let lengths = [1u8, 1, 1];
        assert!(CanonicalDecoder::from_lengths(&lengths).is_err());
    }
}
