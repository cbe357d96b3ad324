//! Bit-level I/O shared by the codecs (MSB-first within each byte).
//!
//! Both ends are batched: [`BitWriter::write_bits`] shifts whole values
//! into a 64-bit accumulator and spills full bytes, and
//! [`BitReader::read_bits`] extracts up to 32 bits from one aligned
//! 8-byte load, so neither loops per bit; [`BitReader::peek_u64`] hands a
//! decoder a whole 64-bit window to cut a token from. The per-bit
//! methods remain as the reference path; `proptests` below pin the two
//! to identical streams.

use crate::CodecError;

/// Writes bits MSB-first into a growing byte buffer.
///
/// # Example
///
/// ```
/// use uparc_compress::bitio::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(8)?, 0xFF);
/// # Ok::<(), uparc_compress::CodecError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned in `acc` (always < 8 between calls).
    nbits: u32,
    acc: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Creates an empty writer with room for `bytes` output bytes.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            nbits: 0,
            acc: 0,
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u32::from(bit), 1);
    }

    /// Appends the low `n` bits of `value`, MSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "at most 32 bits per call");
        if n == 0 {
            return;
        }
        // `nbits < 8` on entry, so at most 39 bits are pending: the
        // accumulator never overflows and at most 4 bytes spill per call.
        self.acc = (self.acc << n) | (u64::from(value) & ((1u64 << n) - 1));
        self.nbits += n;
        let spill = (self.nbits / 8) as usize;
        if spill > 0 {
            // Emit all complete bytes with one copy instead of a push per
            // byte: the spilled bits, left-aligned, are exactly the first
            // `spill` bytes of the big-endian accumulator image. Bits of
            // `acc` above `nbits` are stale spilled data and shift out.
            self.nbits %= 8;
            let aligned = (self.acc >> self.nbits) << (64 - 8 * spill as u32);
            self.bytes
                .extend_from_slice(&aligned.to_be_bytes()[..spill]);
        }
    }

    /// Pads the final partial byte with zeros and returns the buffer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.bytes.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit index.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Remaining bits.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        let byte = self.bytes.get(self.pos / 8).ok_or(CodecError::Truncated)?;
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits MSB-first into the low bits of the result.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bits remain; the
    /// reader position is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32, CodecError> {
        assert!(n <= 32, "at most 32 bits per call");
        if self.remaining() < n as usize {
            return Err(CodecError::Truncated);
        }
        if n == 0 {
            return Ok(0);
        }
        let v = self.extract(n);
        self.pos += n as usize;
        Ok(v)
    }

    /// Returns the next `n` bits without consuming them, zero-padded past
    /// the end of the stream (so lookup-table decoders can index a full
    /// table width near the end of input).
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    #[must_use]
    pub fn peek_bits(&self, n: u32) -> u32 {
        assert!(n <= 32, "at most 32 bits per call");
        if n == 0 {
            return 0;
        }
        let avail = self.remaining().min(n as usize) as u32;
        if avail == 0 {
            return 0;
        }
        self.extract(avail) << (n - avail)
    }

    /// Returns the next 64 bits MSB-first without consuming them,
    /// zero-padded past the end of the stream.
    ///
    /// The window is one 8-byte load shifted to the bit offset, so
    /// whenever 8 bytes remain at least its top 57 bits are stream bits;
    /// a decoder whose tokens fit in 57 bits can take a whole token from
    /// it and bound-check each field with [`Self::consume`].
    #[inline]
    #[must_use]
    pub fn peek_u64(&self) -> u64 {
        let byte = self.pos / 8;
        let acc = match self.bytes.get(byte..byte + 8) {
            Some(chunk) => u64::from_be_bytes(chunk.try_into().expect("8 bytes")),
            None => {
                let mut buf = [0u8; 8];
                let tail = &self.bytes[byte..];
                buf[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(buf)
            }
        };
        acc << (self.pos % 8)
    }

    /// Consumes `n` bits previously inspected with [`Self::peek_bits`] or
    /// [`Self::peek_u64`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bits remain; the
    /// reader position is unchanged on error.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), CodecError> {
        if self.remaining() < n as usize {
            return Err(CodecError::Truncated);
        }
        self.pos += n as usize;
        Ok(())
    }

    /// Extracts `n` in-bounds bits starting at `pos` (1..=32).
    #[inline]
    fn extract(&self, n: u32) -> u32 {
        let byte = self.pos / 8;
        let off = (self.pos % 8) as u32;
        if self.bytes.len() - byte >= 8 {
            // Hot path: one aligned-from-slice big-endian load covers any
            // (offset, n ≤ 32) combination.
            let acc = u64::from_be_bytes(self.bytes[byte..byte + 8].try_into().expect("8 bytes"));
            ((acc << off) >> (64 - n)) as u32
        } else {
            // Near the end of the buffer: gather the ≤ 8 remaining bytes.
            let mut acc = 0u64;
            let tail = &self.bytes[byte..];
            for &b in tail {
                acc = (acc << 8) | u64::from(b);
            }
            let total = (tail.len() * 8) as u32;
            ((acc << (64 - total + off)) >> (64 - n)) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        let values = [
            (0u32, 1u32),
            (7, 3),
            (0xABCD, 16),
            (1, 1),
            (0xFFFF_FFFF, 32),
            (5, 11),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "{v}:{n}");
        }
    }

    #[test]
    fn reading_past_end_is_truncated() {
        let mut w = BitWriter::new();
        w.write_bits(0b1010, 4);
        let bytes = w.finish(); // padded to 8 bits
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0b1010_0000);
        assert_eq!(r.read_bit(), Err(CodecError::Truncated));
        assert_eq!(r.read_bits(4), Err(CodecError::Truncated));
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn remaining_counts_down() {
        let bytes = [0xFF, 0x00];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining(), 11);
    }

    #[test]
    fn peek_matches_read_and_pads_past_end() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for n in [1u32, 7, 13, 32] {
            let peeked = r.peek_bits(n);
            let mut probe = r.clone();
            assert_eq!(probe.read_bits(n).unwrap(), peeked, "peek({n})");
        }
        r.consume(32).unwrap();
        // 8 bits remain (3 data + 5 padding); a 16-bit peek zero-pads.
        assert_eq!(r.remaining(), 8);
        let padded = r.peek_bits(16);
        assert_eq!(padded >> 8, u32::from(bytes[4]));
        assert_eq!(padded & 0xFF, 0);
        assert!(r.consume(16).is_err());
        assert_eq!(r.remaining(), 8, "failed consume must not move");
        r.consume(8).unwrap();
        assert_eq!(r.peek_bits(32), 0, "peek at EOF is all zeros");
    }

    #[test]
    fn window_matches_peek_bits_at_every_position() {
        // 13 bytes: positions near the start take the 8-byte load, the
        // last 40 positions the zero-padded tail gather.
        let bytes = [
            0xA5, 0x5A, 0xFF, 0x00, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x81,
        ];
        let mut r = BitReader::new(&bytes);
        for pos in 0..=bytes.len() * 8 {
            let window = r.peek_u64();
            for n in 1..=32u32 {
                assert_eq!(
                    (window >> (64 - n)) as u32,
                    r.peek_bits(n),
                    "pos {pos} n {n}"
                );
            }
            // The top 57 bits are the stream, zero past its end.
            for k in 0..57 {
                let bit = bytes
                    .get((pos + k) / 8)
                    .map_or(0, |b| (b >> (7 - (pos + k) % 8)) & 1);
                assert_eq!(
                    (window >> (63 - k)) & 1,
                    u64::from(bit),
                    "pos {pos} bit {k}"
                );
            }
            if pos < bytes.len() * 8 {
                r.consume(1).unwrap();
            }
        }
        assert_eq!(r.peek_u64(), 0, "window at EOF is all zeros");
    }

    #[test]
    fn unaligned_tail_reads_cross_byte_boundaries() {
        // 9 bytes so the first extraction uses the 8-byte hot path and
        // later ones fall into the tail-gather path.
        let bytes = [0xA5, 0x5A, 0xFF, 0x00, 0x12, 0x34, 0x56, 0x78, 0x9A];
        let mut fast = BitReader::new(&bytes);
        let mut slow_pos = 0usize;
        for n in [3u32, 11, 1, 17, 9, 25, 6] {
            let expected = reference_bits(&bytes, &mut slow_pos, n);
            assert_eq!(fast.read_bits(n).unwrap(), expected, "n={n}");
        }
    }

    fn reference_bits(bytes: &[u8], pos: &mut usize, n: u32) -> u32 {
        let mut v = 0u32;
        for _ in 0..n {
            let bit = (bytes[*pos / 8] >> (7 - *pos % 8)) & 1;
            v = (v << 1) | u32::from(bit);
            *pos += 1;
        }
        v
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_bit_sequences_round_trip(
            values in proptest::collection::vec((any::<u32>(), 1u32..33), 0..200),
        ) {
            let mut w = BitWriter::new();
            for &(v, n) in &values {
                w.write_bits(v, n);
            }
            let total: usize = values.iter().map(|&(_, n)| n as usize).sum();
            let bytes = w.finish();
            prop_assert_eq!(bytes.len(), total.div_ceil(8));
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &values {
                let mask = if n == 32 { u32::MAX } else { (1 << n) - 1 };
                prop_assert_eq!(r.read_bits(n)?, v & mask);
            }
            // Padding only: remaining bits < 8 and all zero.
            prop_assert!(r.remaining() < 8);
            while r.remaining() > 0 {
                prop_assert!(!r.read_bit()?);
            }
        }

        #[test]
        fn batched_writer_matches_per_bit_reference(
            values in proptest::collection::vec((any::<u32>(), 1u32..33), 0..200),
        ) {
            // Reference: the original per-bit shift loop.
            let mut ref_bits: Vec<bool> = Vec::new();
            for &(v, n) in &values {
                for i in (0..n).rev() {
                    ref_bits.push((v >> i) & 1 == 1);
                }
            }
            let mut ref_bytes = Vec::new();
            let (mut cur, mut nbits) = (0u8, 0u32);
            for &b in &ref_bits {
                cur = (cur << 1) | u8::from(b);
                nbits += 1;
                if nbits == 8 {
                    ref_bytes.push(cur);
                    cur = 0;
                    nbits = 0;
                }
            }
            if nbits > 0 {
                ref_bytes.push(cur << (8 - nbits));
            }

            let mut w = BitWriter::new();
            for &(v, n) in &values {
                w.write_bits(v, n);
            }
            prop_assert_eq!(w.finish(), ref_bytes);
        }

        #[test]
        fn batched_reader_matches_per_bit_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            widths in proptest::collection::vec(1u32..33, 0..40),
        ) {
            let mut fast = BitReader::new(&bytes);
            let mut slow = BitReader::new(&bytes);
            for &n in &widths {
                let f = fast.read_bits(n);
                let s = if slow.remaining() < n as usize {
                    Err(crate::CodecError::Truncated)
                } else {
                    let mut v = 0u32;
                    for _ in 0..n {
                        v = (v << 1) | u32::from(slow.read_bit()?);
                    }
                    Ok(v)
                };
                prop_assert_eq!(&f, &s);
                if f.is_err() {
                    break;
                }
                let pk = fast.peek_bits(8);
                let expect = slow.clone().read_bits(8.min(slow.remaining() as u32))
                    .unwrap_or(0) << (8 - 8.min(slow.remaining() as u32));
                prop_assert_eq!(pk, expect);
            }
        }
    }
}
