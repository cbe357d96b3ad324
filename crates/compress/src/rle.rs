//! Run-length encoding — the scheme FaRM \[10\] implements.
//!
//! FaRM's hardware RLE operates on **32-bit configuration words** (the unit
//! the ICAP consumes): the stream is a sequence of `(count, word)` pairs.
//! Repeated words — blank frames, repeated configuration patterns — shrink
//! by up to 255×5/4; unique words expand by only 25% (5 bytes per 4), which
//! is why word-RLE is usable on dense bitstreams at all. The paper's
//! Table I reports 63% saved for it — the weakest of the seven algorithms.
//!
//! Stream format: `u8 tail-length`, tail bytes (input not a multiple of 4),
//! then `(count: u8 ≥ 1, word: 4 bytes)` pairs.

use crate::{Codec, CodecError};

/// FaRM-style 32-bit-word run-length codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rle;

impl Rle {
    /// Creates the codec.
    #[must_use]
    pub fn new() -> Self {
        Rle
    }
}

impl Codec for Rle {
    fn name(&self) -> &'static str {
        "RLE"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let tail_len = input.len() % 4;
        let (body, tail) = input.split_at(input.len() - tail_len);
        let mut out = Vec::with_capacity(input.len() / 2 + 8);
        out.push(tail_len as u8);
        out.extend_from_slice(tail);
        // Words are read straight off the byte slice (no staging
        // `Vec<&[u8]>` of chunk references), and the run scan compares two
        // words per step against the doubled pattern while whole 8-byte
        // chunks remain.
        let nwords = body.len() / 4;
        let word_at =
            |i: usize| u32::from_le_bytes(body[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        let mut i = 0usize;
        while i < nwords {
            let w = word_at(i);
            let pattern = u64::from(w) | (u64::from(w) << 32);
            let mut run = 1usize;
            while run + 2 <= 255 && i + run + 2 <= nwords {
                let chunk = u64::from_le_bytes(
                    body[(i + run) * 4..(i + run) * 4 + 8]
                        .try_into()
                        .expect("8 bytes"),
                );
                if chunk != pattern {
                    break;
                }
                run += 2;
            }
            while run < 255 && i + run < nwords && word_at(i + run) == w {
                run += 1;
            }
            out.push(run as u8);
            out.extend_from_slice(&w.to_le_bytes());
            i += run;
        }
        out
    }

    /// Expands the `(count, word)` pairs, then appends the unaligned tail.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (&tail_len, rest) = input.split_first().ok_or(CodecError::Truncated)?;
        let tail_len = tail_len as usize;
        if tail_len > 3 || rest.len() < tail_len {
            return Err(CodecError::corrupt("bad tail length"));
        }
        let (tail, pairs) = rest.split_at(tail_len);
        if pairs.len() % 5 != 0 {
            return Err(CodecError::Truncated);
        }
        // The format has no length header: the pairs give the exact size.
        // Zero counts contribute nothing here; the decode loop rejects
        // them when it reaches the offending pair.
        let total = pairs
            .chunks_exact(5)
            .map(|p| p[0] as usize * 4)
            .sum::<usize>()
            + tail_len;
        let mut out = Vec::with_capacity(total);
        for p in pairs.chunks_exact(5) {
            let count = p[0] as usize;
            if count == 0 {
                return Err(CodecError::corrupt("zero-length run"));
            }
            let word: [u8; 4] = p[1..5].try_into().expect("4 bytes");
            if count >= 4 {
                // Replicate through a 16-word stack pattern so long runs
                // land as 64-byte copies instead of count × 4-byte
                // appends.
                let mut pattern = [0u8; 64];
                for chunk in pattern.chunks_exact_mut(4) {
                    chunk.copy_from_slice(&word);
                }
                let mut reps = count;
                while reps >= 16 {
                    out.extend_from_slice(&pattern);
                    reps -= 16;
                }
                out.extend_from_slice(&pattern[..reps * 4]);
            } else {
                for _ in 0..count {
                    out.extend_from_slice(&word);
                }
            }
        }
        out.extend_from_slice(tail);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let codec = Rle::new();
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            data,
            "len {}",
            data.len()
        );
    }

    #[test]
    fn blank_regions_compress_well() {
        let blank = vec![0u8; 10_000];
        let packed = Rle::new().compress(&blank);
        assert!(packed.len() < 100, "{} bytes", packed.len());
        roundtrip(&blank);
    }

    #[test]
    fn word_mode_expands_unique_words_by_25_percent() {
        // 1000 distinct words -> 5 bytes each + 1 header byte.
        let data: Vec<u8> = (0u32..1000)
            .flat_map(|w| w.wrapping_mul(2_654_435_761).to_be_bytes())
            .collect();
        let rle = Rle::new();
        let packed = rle.compress(&data);
        assert_eq!(packed.len(), 1 + 1000 * 5);
        roundtrip(&data);
    }

    #[test]
    fn word_mode_catches_repeated_pattern_words() {
        // The same 0xAAAAAAAA word repeated is one pair per 255 words.
        let data: Vec<u8> = std::iter::repeat_n(0xAAu8, 4 * 600).collect();
        let rle = Rle::new();
        let packed = rle.compress(&data);
        assert_eq!(packed.len(), 1 + 5 * 600usize.div_ceil(255));
        roundtrip(&data);
    }

    #[test]
    fn unaligned_tails_survive() {
        for n in [1usize, 2, 3, 5, 6, 7, 1001] {
            let data: Vec<u8> = (0..n).map(|i| (i % 7) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn run_boundaries_at_255() {
        for n in [254usize * 4, 255 * 4, 256 * 4, 511 * 4] {
            roundtrip(&vec![7u8; n]);
        }
    }

    #[test]
    fn empty_input() {
        let rle = Rle::new();
        let packed = rle.compress(&[]);
        assert_eq!(rle.decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn malformed_streams_rejected() {
        let rle = Rle::new();
        assert_eq!(rle.decompress(&[]), Err(CodecError::Truncated));
        assert!(rle.decompress(&[0, 1, 2, 3]).is_err()); // ragged pairs
        assert!(matches!(
            rle.decompress(&[0, 0, 1, 2, 3, 4]),
            Err(CodecError::Corrupt { .. }) // zero-length run
        ));
        assert!(matches!(
            rle.decompress(&[9]),
            Err(CodecError::Corrupt { .. }) // tail length > 3
        ));
    }
}
