//! Chunked, resumable decompression.
//!
//! UPaRC's compressed pipeline overlaps decompression with the ICAP burst:
//! while the controller writes window `N` to the configuration port, the
//! decompressor fills window `N + 1` of the staging buffer (paper §III-C —
//! in hardware the X-MatchPRO core and the ICAP FSM run concurrently on
//! CLK_3/CLK_2). The software model needs the same shape: a decoder that
//! can produce *part* of the output, yield, and resume exactly where it
//! stopped.
//!
//! [`StreamDecoder`] is that shape. A decoder is created over the whole
//! compressed input and appends decoded bytes to a caller-owned output
//! buffer in budgeted chunks. The output buffer doubles as the decoder's
//! history (LZ back-references resolve against it), so the caller must
//! hand the *same* buffer to every call and never mutate the decoded
//! prefix in between.
//!
//! Every codec's one-shot [`Codec::decompress`](crate::Codec::decompress)
//! is the streaming decoder run with an unbounded budget, so there is
//! exactly one decode loop per codec and the chunked path cannot drift
//! from the one-shot path; the equivalence over arbitrary chunk splits is
//! additionally pinned by property tests (`tests/proptest_fastpath.rs`).

use crate::CodecError;

/// A resumable decompressor over one compressed stream.
///
/// Obtained from [`Codec::stream_decoder`](crate::Codec::stream_decoder).
/// See the [module docs](self) for the output-buffer contract.
pub trait StreamDecoder {
    /// Decodes and appends at least `budget` more bytes to `out`, unless
    /// the stream finishes first. May overshoot the budget by at most one
    /// token's worth of output (a match, phrase or run), so callers
    /// should treat `budget` as a scheduling hint, not an exact cut.
    ///
    /// Returns the number of bytes appended; `0` if and only if the
    /// stream was already finished (or `budget` is zero).
    ///
    /// # Errors
    ///
    /// The same [`CodecError`]s the codec's one-shot decompression
    /// produces, raised at the same token regardless of how the stream
    /// was chunked. After an error the decoder is poisoned and must not
    /// be used again.
    fn decode_into(&mut self, out: &mut Vec<u8>, budget: usize) -> Result<usize, CodecError>;

    /// True once the whole stream has been decoded.
    fn is_finished(&self) -> bool;

    /// Total decoded size of the stream, in bytes.
    ///
    /// Known up front for every codec (all formats either carry a length
    /// header or make it cheaply derivable), so pipeline stages can size
    /// staging buffers and window schedules before decoding starts.
    fn total_len(&self) -> usize;
}

/// Runs `dec` to completion into a fresh buffer (the shared one-shot
/// decompression harness the codecs' `decompress` impls use).
pub(crate) fn drain(mut dec: impl StreamDecoder) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(dec.total_len());
    while !dec.is_finished() {
        dec.decode_into(&mut out, usize::MAX)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Codec};

    /// Decodes `input` through `codec`'s streaming decoder in chunks of
    /// `budget` bytes, the way the pipeline drives decoders.
    fn decode_chunked(
        codec: &dyn Codec,
        input: &[u8],
        budget: usize,
    ) -> Result<Vec<u8>, CodecError> {
        let mut dec = codec.stream_decoder(input)?;
        let mut out = Vec::with_capacity(dec.total_len());
        while !dec.is_finished() {
            dec.decode_into(&mut out, budget)?;
        }
        Ok(out)
    }

    #[test]
    fn chunked_equals_one_shot_for_every_algorithm() {
        let mut data = Vec::new();
        for i in 0u32..5000 {
            data.extend_from_slice(&(i % 23).to_le_bytes());
        }
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let packed = codec.compress(&data);
            for budget in [1, 3, 64, 1021, usize::MAX] {
                let out = decode_chunked(codec.as_ref(), &packed, budget)
                    .unwrap_or_else(|e| panic!("{alg} budget {budget}: {e}"));
                assert_eq!(out, data, "{alg} budget {budget}");
            }
        }
    }
}
