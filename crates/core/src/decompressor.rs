//! The reconfigurable decompressor slot (paper §III-C).
//!
//! UPaRC's decompressor is itself a module in a reconfigurable partition:
//! the compression algorithm can be swapped at run time by partial
//! reconfiguration (the paper implements X-MatchPRO and lists this
//! flexibility as future work — we implement the swap in
//! [`crate::uparc::UParc::swap_decompressor`]). Each algorithm has its own
//! hardware characteristics (output rate, maximum clock, area), so after a
//! swap DyCloGen retunes CLK_3 (§III-C: "after being reconfigured, its
//! frequency will be dynamically modified by DyCloGen").

use uparc_compress::hw::HwDecompressor;
use uparc_compress::{Algorithm, Codec};

/// A decompressor instance occupying the reconfigurable slot.
#[derive(Debug, Clone)]
pub struct DecompressorSlot {
    algorithm: Algorithm,
    hw: HwDecompressor,
}

impl DecompressorSlot {
    /// The default UPaRC decompressor: X-MatchPRO, 64-bit path, 2 words per
    /// cycle, 126 MHz ⇒ 1.008 GB/s.
    #[must_use]
    pub fn xmatchpro() -> Self {
        DecompressorSlot {
            algorithm: Algorithm::XMatchPro,
            hw: HwDecompressor::uparc_xmatchpro(),
        }
    }

    /// A slot for `algorithm`, if a hardware decompressor model exists for
    /// it. Dictionary-heavy software algorithms (LZ78, Zip, 7-zip) have no
    /// practical streaming hardware decoder and return `None`.
    #[must_use]
    pub fn for_algorithm(algorithm: Algorithm) -> Option<Self> {
        let hw = match algorithm {
            Algorithm::XMatchPro => HwDecompressor::uparc_xmatchpro(),
            Algorithm::Rle => HwDecompressor::farm_rle(),
            Algorithm::Huffman => HwDecompressor::huffman(),
            Algorithm::Lz77 => HwDecompressor::lz77(),
            Algorithm::Lz78 | Algorithm::Zip | Algorithm::SevenZip => return None,
        };
        Some(DecompressorSlot { algorithm, hw })
    }

    /// The algorithm currently in the slot.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The hardware timing model.
    #[must_use]
    pub fn hw(&self) -> &HwDecompressor {
        &self.hw
    }

    /// Instantiates the matching software codec (used for staging and as
    /// the functional model of the hardware).
    #[must_use]
    pub fn codec(&self) -> Box<dyn Codec> {
        self.algorithm.codec()
    }
}

impl Default for DecompressorSlot {
    fn default() -> Self {
        DecompressorSlot::xmatchpro()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_sim::time::Frequency;

    #[test]
    fn default_slot_is_the_paper_decompressor() {
        let slot = DecompressorSlot::xmatchpro();
        assert_eq!(slot.algorithm(), Algorithm::XMatchPro);
        let bw = slot.hw().output_bandwidth(Frequency::from_mhz(126.0));
        assert!((bw - 1.008e9).abs() < 1e6);
    }

    #[test]
    fn hardware_exists_for_streaming_algorithms_only() {
        assert!(DecompressorSlot::for_algorithm(Algorithm::XMatchPro).is_some());
        assert!(DecompressorSlot::for_algorithm(Algorithm::Rle).is_some());
        assert!(DecompressorSlot::for_algorithm(Algorithm::Huffman).is_some());
        assert!(DecompressorSlot::for_algorithm(Algorithm::Lz77).is_some());
        assert!(DecompressorSlot::for_algorithm(Algorithm::Zip).is_none());
        assert!(DecompressorSlot::for_algorithm(Algorithm::SevenZip).is_none());
        assert!(DecompressorSlot::for_algorithm(Algorithm::Lz78).is_none());
    }

    #[test]
    fn codec_round_trips() {
        let slot = DecompressorSlot::for_algorithm(Algorithm::Rle).unwrap();
        let codec = slot.codec();
        let data = vec![0u8; 4096];
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }
}
