//! # uparc-compress — lossless bitstream compression codecs
//!
//! UPaRC's compressed preloading mode stores bitstreams compressed in BRAM
//! and decompresses them in hardware on the way to the ICAP (paper §III-C).
//! Table I of the paper compares seven lossless algorithms on dense partial
//! bitstreams; this crate implements all seven, from scratch:
//!
//! | Algorithm | Module | Paper ratio (% saved) |
//! |---|---|---|
//! | RLE (FaRM's scheme) | [`rle`] | 63.0 |
//! | LZ77 (hardware-sized window) | [`lz77`] | 71.4 |
//! | Huffman (order-0, canonical) | [`huffman`] | 72.3 |
//! | X-MatchPRO (CAM dictionary + MTF) | [`xmatchpro`] | 74.2 |
//! | LZ78 (growing dictionary) | [`lz78`] | 75.6 |
//! | "Zip" (LZ77 + canonical Huffman) | [`deflate_like`] | 81.2 |
//! | "7-zip" (large-window LZ + range coder) | [`lzma_like`] | 81.9 |
//!
//! Every codec is exactly lossless (`decompress(compress(x)) == x` for all
//! byte strings — enforced by property tests), because configuration
//! bitstreams tolerate no loss.
//!
//! Each codec's [`Codec::decompress`] runs its decode loop to completion
//! in one call. The overlap of decompression with the ICAP burst is a
//! timing matter, which `uparc-core`'s pipeline model owns; the software
//! decoder only has to produce the image. A corrupt length header cannot
//! make a decoder reserve more than its input could plausibly unpack to.
//!
//! [`stats`] measures the content statistics (entropy, run mass) that
//! predict these ratios; [`hw`] models the corresponding *hardware decompressors*: output rate in
//! words per cycle, data-path width and maximum clock — the numbers behind
//! UPaRC_ii's 1.008 GB/s compressed-mode bandwidth.
//!
//! # Example
//!
//! ```
//! use uparc_compress::{Algorithm, Codec};
//!
//! let data = vec![0u8; 4096]; // a blank-ish configuration region
//! let codec = Algorithm::XMatchPro.codec();
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len() / 4);
//! assert_eq!(codec.decompress(&packed)?, data);
//! # Ok::<(), uparc_compress::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod deflate_like;
pub mod huffman;
pub mod hw;
pub mod lz77;
pub mod lz78;
pub mod lzma_like;
pub mod parallel;
pub mod rle;
pub mod stats;
pub mod xmatchpro;

use std::fmt;

/// Error produced when decompressing malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The compressed stream ended unexpectedly.
    Truncated,
    /// The stream contains an impossible token/backreference.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
}

impl CodecError {
    /// Convenience constructor for [`CodecError::Corrupt`].
    #[must_use]
    pub fn corrupt(detail: impl Into<String>) -> Self {
        CodecError::Corrupt {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::Corrupt { detail } => write!(f, "corrupt compressed stream: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A lossless compressor/decompressor.
pub trait Codec {
    /// Short identifier, matching the paper's Table I naming.
    fn name(&self) -> &'static str;

    /// Compresses `input`. Never fails; incompressible input may grow.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompresses `input`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the stream is truncated or corrupt.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError>;
}

/// Most output bytes a decoder reserves per input byte before decoding.
const RESERVE_PER_INPUT_BYTE: usize = 64;

/// The output capacity a decoder reserves for a stream of `input_len`
/// bytes whose length header claims `header` bytes: the header, but no
/// more than the input could plausibly unpack to, so a corrupt header
/// cannot request a 4 GiB buffer. A valid stream that unpacks further
/// only grows its output as it decodes.
pub(crate) fn output_capacity(header: usize, input_len: usize) -> usize {
    header.min(input_len.saturating_mul(RESERVE_PER_INPUT_BYTE))
}

/// The seven algorithms of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Run-length encoding (used by FaRM \[10\]).
    Rle,
    /// LZ77 with a hardware-sized sliding window.
    Lz77,
    /// Order-0 canonical Huffman coding.
    Huffman,
    /// X-MatchPRO \[12\] — the algorithm UPaRC and FlashCAP implement in
    /// hardware.
    XMatchPro,
    /// LZ78 with a growing dictionary.
    Lz78,
    /// "Zip": LZ77 + canonical Huffman entropy stage (deflate-like).
    Zip,
    /// "7-zip": large-window LZ + adaptive binary range coder (LZMA-like).
    SevenZip,
}

impl Algorithm {
    /// All algorithms, in Table I's row order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Rle,
        Algorithm::Lz77,
        Algorithm::Huffman,
        Algorithm::XMatchPro,
        Algorithm::Lz78,
        Algorithm::Zip,
        Algorithm::SevenZip,
    ];

    /// Instantiates the codec with its default (hardware-motivated)
    /// parameters.
    #[must_use]
    pub fn codec(self) -> Box<dyn Codec> {
        match self {
            Algorithm::Rle => Box::new(rle::Rle::new()),
            Algorithm::Lz77 => Box::new(lz77::Lz77::hardware()),
            Algorithm::Huffman => Box::new(huffman::Huffman::new()),
            Algorithm::XMatchPro => Box::new(xmatchpro::XMatchPro::new()),
            Algorithm::Lz78 => Box::new(lz78::Lz78::new()),
            Algorithm::Zip => Box::new(deflate_like::DeflateLike::new()),
            Algorithm::SevenZip => Box::new(lzma_like::LzmaLike::new()),
        }
    }

    /// The paper's Table I compression ratio (% of the original size saved).
    #[must_use]
    pub fn paper_ratio_percent(self) -> f64 {
        match self {
            Algorithm::Rle => 63.0,
            Algorithm::Lz77 => 71.4,
            Algorithm::Huffman => 72.3,
            Algorithm::XMatchPro => 74.2,
            Algorithm::Lz78 => 75.6,
            Algorithm::Zip => 81.2,
            Algorithm::SevenZip => 81.9,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Algorithm::Rle => "RLE",
            Algorithm::Lz77 => "LZ77",
            Algorithm::Huffman => "Huffman",
            Algorithm::XMatchPro => "X-MatchPRO",
            Algorithm::Lz78 => "LZ78",
            Algorithm::Zip => "Zip",
            Algorithm::SevenZip => "7-zip",
        };
        f.write_str(s)
    }
}

/// Compression ratio in the paper's convention: percent of the original
/// size *saved* (74.2% ⇒ output is ~4× smaller).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Ratio {
    original: usize,
    compressed: usize,
}

impl Ratio {
    /// Computes the ratio of a compression run.
    ///
    /// # Panics
    ///
    /// Panics if `original` is zero.
    #[must_use]
    pub fn new(original: usize, compressed: usize) -> Self {
        assert!(original > 0, "ratio of empty input is undefined");
        Ratio {
            original,
            compressed,
        }
    }

    /// Percent of the original size saved (Table I's unit); negative if the
    /// data expanded.
    #[must_use]
    pub fn percent_saved(self) -> f64 {
        (1.0 - self.compressed as f64 / self.original as f64) * 100.0
    }

    /// `original / compressed` (e.g. ≈4 for X-MatchPRO's 74.2%).
    #[must_use]
    pub fn factor(self) -> f64 {
        self.original as f64 / self.compressed as f64
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.percent_saved())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_follows_paper_convention() {
        // §III-C: 74.2% saved ⇔ about four times smaller.
        let r = Ratio::new(1000, 258);
        assert!((r.percent_saved() - 74.2).abs() < 0.01);
        assert!((r.factor() - 3.876).abs() < 0.01);
        assert_eq!(format!("{r}"), "74.2%");
    }

    #[test]
    fn ratio_negative_on_expansion() {
        assert!(Ratio::new(100, 120).percent_saved() < 0.0);
    }

    #[test]
    fn all_algorithms_instantiate() {
        for alg in Algorithm::ALL {
            let c = alg.codec();
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn paper_ratios_are_strictly_increasing_in_table_order() {
        let mut last = 0.0;
        for alg in Algorithm::ALL {
            let r = alg.paper_ratio_percent();
            assert!(r > last, "{alg} out of order");
            last = r;
        }
    }

    #[test]
    fn every_codec_round_trips_smoke() {
        let mut data = Vec::new();
        for i in 0u32..2000 {
            data.extend_from_slice(&(i % 37).to_le_bytes());
        }
        for alg in Algorithm::ALL {
            let c = alg.codec();
            let packed = c.compress(&data);
            let unpacked = c
                .decompress(&packed)
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert_eq!(unpacked, data, "{alg} round-trip failed");
        }
    }

    #[test]
    fn every_codec_handles_empty_input() {
        for alg in Algorithm::ALL {
            let c = alg.codec();
            let packed = c.compress(&[]);
            assert_eq!(c.decompress(&packed).unwrap(), Vec::<u8>::new(), "{alg}");
        }
    }
}
