//! Block-parallel compression with deterministic framing.
//!
//! Compressing a large corpus up front makes encode latency — not the
//! decode-side hardware model — the bottleneck. [`BlockCodec`] splits
//! the input into fixed-size blocks, compresses each block independently
//! across worker threads ([`uparc_sim::sweep`]), and frames the results
//! in block order, so the output is **byte-identical regardless of
//! thread count**: parallelism changes scheduling, never the stream.
//!
//! Each block restarts the codec's model (dictionary, window, adaptive
//! probabilities), costing a little ratio versus whole-stream encoding —
//! measured in `BENCH_throughput.json`'s `parallel_encode` section —
//! in exchange for near-linear encode scaling and independently
//! decodable blocks.
//!
//! Only `bench_throughput` and tests use it. Catalog registration in
//! uparc-serve compresses each whole image with the single-stream codec
//! instead, one entry per worker over [`parallel_map`], because a staged
//! payload must be exactly what the controller's decompressor consumes.
//!
//! Frame format (all integers u32-LE):
//! `original length | block size | block count`, then per block
//! `compressed length | compressed bytes`.

use crate::{Algorithm, CodecError};
use uparc_sim::sweep::parallel_map;

/// Default block size: large enough that per-block model restarts cost
/// little ratio, small enough that a typical partial bitstream (hundreds
/// of KB) still splits across every worker.
pub const DEFAULT_BLOCK_SIZE: usize = 64 * 1024;

/// A block-parallel wrapper around one of the Table I algorithms.
#[derive(Debug, Clone, Copy)]
pub struct BlockCodec {
    algorithm: Algorithm,
    block_size: usize,
}

impl BlockCodec {
    /// Wraps `algorithm` with the [`DEFAULT_BLOCK_SIZE`].
    #[must_use]
    pub fn new(algorithm: Algorithm) -> Self {
        Self::with_block_size(algorithm, DEFAULT_BLOCK_SIZE)
    }

    /// Wraps `algorithm` with a custom block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or exceeds `u32::MAX`.
    #[must_use]
    pub fn with_block_size(algorithm: Algorithm, block_size: usize) -> Self {
        assert!(
            block_size > 0 && block_size <= u32::MAX as usize,
            "block size must be in 1..=u32::MAX"
        );
        BlockCodec {
            algorithm,
            block_size,
        }
    }

    /// The wrapped algorithm.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured block size in bytes.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Compresses `input`, one worker per block shard.
    ///
    /// The result depends only on the input, the algorithm and the block
    /// size — never on `UPARC_SWEEP_THREADS` or the machine's
    /// parallelism (pinned by `tests/proptest_fastpath.rs`).
    #[must_use]
    pub fn compress(&self, input: &[u8]) -> Vec<u8> {
        let blocks: Vec<&[u8]> = input.chunks(self.block_size).collect();
        let compressed: Vec<Vec<u8>> =
            parallel_map(&blocks, |block| self.algorithm.codec().compress(block));
        let framed: usize = compressed.iter().map(|c| c.len() + 4).sum();
        let mut out = Vec::with_capacity(12 + framed);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.block_size as u32).to_le_bytes());
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for c in &compressed {
            out.extend_from_slice(&(c.len() as u32).to_le_bytes());
            out.extend_from_slice(c);
        }
        out
    }

    /// Decompresses a [`Self::compress`] frame, blocks in parallel.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the frame structure is inconsistent or any block
    /// fails to decompress (the lowest-index failing block's error, for
    /// determinism).
    pub fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (n, block_size, payloads) = Self::split_frame(input)?;
        let n_blocks = payloads.len();
        let decoded = parallel_map(&payloads, |&payload| {
            self.algorithm.codec().decompress(payload)
        });
        let mut out = Vec::with_capacity(n);
        for (i, block) in decoded.into_iter().enumerate() {
            let block = block?;
            let expected = if i + 1 < n_blocks {
                block_size
            } else {
                n - (n_blocks - 1) * block_size
            };
            if block.len() != expected {
                return Err(CodecError::corrupt(format!(
                    "block {i} decoded to {} bytes, expected {expected}",
                    block.len()
                )));
            }
            out.extend_from_slice(&block);
        }
        Ok(out)
    }

    /// Validates the frame header and slices out the per-block payloads.
    #[allow(clippy::type_complexity)]
    fn split_frame(input: &[u8]) -> Result<(usize, usize, Vec<&[u8]>), CodecError> {
        if input.len() < 12 {
            return Err(CodecError::Truncated);
        }
        let word =
            |i: usize| u32::from_le_bytes(input[i..i + 4].try_into().expect("4 bytes")) as usize;
        let (n, block_size, n_blocks) = (word(0), word(4), word(8));
        if block_size == 0 {
            return Err(CodecError::corrupt("zero block size"));
        }
        if n_blocks != n.div_ceil(block_size) {
            return Err(CodecError::corrupt(format!(
                "block count {n_blocks} inconsistent with length {n} at block size {block_size}"
            )));
        }
        let mut payloads = Vec::with_capacity(n_blocks);
        let mut pos = 12usize;
        for _ in 0..n_blocks {
            let len = input
                .get(pos..pos + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
                .ok_or(CodecError::Truncated)?;
            pos += 4;
            payloads.push(input.get(pos..pos + len).ok_or(CodecError::Truncated)?);
            pos += len;
        }
        if pos != input.len() {
            return Err(CodecError::corrupt("trailing bytes after final block"));
        }
        Ok((n, block_size, payloads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0u32..100_000 {
            let word = if i % 11 == 0 {
                0
            } else {
                0x3000_0000 | (i % 97)
            };
            data.extend_from_slice(&word.to_le_bytes());
        }
        data
    }

    #[test]
    fn round_trips_every_algorithm() {
        let data = corpus();
        for alg in Algorithm::ALL {
            let bc = BlockCodec::new(alg);
            let packed = bc.compress(&data);
            assert_eq!(bc.decompress(&packed).unwrap(), data, "{alg}");
        }
    }

    #[test]
    fn empty_and_sub_block_inputs() {
        let bc = BlockCodec::new(Algorithm::XMatchPro);
        for n in [0usize, 1, 100, DEFAULT_BLOCK_SIZE - 1, DEFAULT_BLOCK_SIZE] {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let packed = bc.compress(&data);
            assert_eq!(bc.decompress(&packed).unwrap(), data, "len {n}");
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let data = corpus();
        let bc = BlockCodec::new(Algorithm::XMatchPro);
        let mut outputs = Vec::new();
        for threads in [1, 2, 8] {
            uparc_sim::sweep::pin_workers(threads);
            outputs.push(bc.compress(&data));
        }
        uparc_sim::sweep::unpin_workers();
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn block_boundaries_keep_most_of_the_ratio() {
        // Model restarts at block boundaries cost ratio (more on corpora
        // with long-range redundancy like this one), but the blocked
        // stream must remain strongly compressed, and larger blocks must
        // recover ratio monotonically toward the whole-stream encoder.
        let data = corpus();
        let whole = Algorithm::Zip.codec().compress(&data).len();
        let blocked = BlockCodec::new(Algorithm::Zip).compress(&data).len();
        let big_blocked = BlockCodec::with_block_size(Algorithm::Zip, 256 * 1024)
            .compress(&data)
            .len();
        assert!(blocked < data.len() / 10, "blocked {blocked}");
        assert!(
            whole < big_blocked && big_blocked < blocked,
            "whole {whole} < 256K blocks {big_blocked} < 64K blocks {blocked}"
        );
    }

    #[test]
    fn malformed_frames_rejected() {
        let bc = BlockCodec::new(Algorithm::Rle);
        assert_eq!(bc.decompress(&[1, 2, 3]), Err(CodecError::Truncated));
        let mut packed = bc.compress(&[7u8; 1000]);
        // Inconsistent block count.
        packed[8] ^= 1;
        assert!(matches!(
            bc.decompress(&packed),
            Err(CodecError::Corrupt { .. })
        ));
        packed[8] ^= 1;
        // Trailing garbage.
        packed.push(0);
        assert!(bc.decompress(&packed).is_err());
        packed.pop();
        // Truncated payload.
        let cut = packed.len() - 1;
        assert!(bc.decompress(&packed[..cut]).is_err());
    }

    #[test]
    fn wrong_block_length_detected() {
        // A frame whose header claims a longer original length than the
        // blocks decode to.
        let bc = BlockCodec::with_block_size(Algorithm::Rle, 16);
        let mut packed = bc.compress(&[42u8; 16]);
        packed[0] = 15; // claim 15 bytes: block count 1 still consistent
        assert!(matches!(
            bc.decompress(&packed),
            Err(CodecError::Corrupt { .. })
        ));
    }
}
