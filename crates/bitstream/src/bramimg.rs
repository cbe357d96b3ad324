//! The BRAM image layout of paper Fig. 3.
//!
//! The Manager preloads the dual-port BRAM with one 32-bit *mode word* —
//! carrying the payload size and the operation mode (with or without
//! compression) — followed by the configuration data. UReC reads the mode
//! word first and then either streams the payload straight to the ICAP or
//! routes it through the decompressor (paper §III-B, Fig. 4).
//!
//! Mode word encoding (this implementation):
//! * bit 31 — compressed flag,
//! * bits 30..24 — codec identifier (0 when uncompressed),
//! * bits 23..0 — payload size in 32-bit words (excluding the mode word).
//!
//! Compressed payloads additionally lead with one word holding the exact
//! compressed byte count, because compressed streams are not word-aligned.

use crate::error::BitstreamError;

/// Maximum payload size encodable in the 24-bit size field.
pub const MAX_SIZE_WORDS: u32 = (1 << 24) - 1;

/// The first word of a BRAM image (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeWord {
    /// Whether the payload is compressed.
    pub compressed: bool,
    /// Codec identifier (meaningful only when `compressed`).
    pub codec_id: u8,
    /// Payload length in words, excluding the mode word itself.
    pub size_words: u32,
}

impl ModeWord {
    /// Encodes the mode word.
    ///
    /// # Panics
    ///
    /// Panics if `size_words` exceeds [`MAX_SIZE_WORDS`] or `codec_id`
    /// exceeds 127.
    #[must_use]
    pub fn encode(self) -> u32 {
        assert!(self.size_words <= MAX_SIZE_WORDS, "size field overflow");
        assert!(self.codec_id < 128, "codec id field is 7 bits");
        (u32::from(self.compressed) << 31) | (u32::from(self.codec_id) << 24) | self.size_words
    }

    /// Decodes a mode word.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::BadModeWord`] if an uncompressed image carries a
    /// codec id.
    pub fn decode(word: u32) -> Result<Self, BitstreamError> {
        let compressed = word >> 31 == 1;
        let codec_id = ((word >> 24) & 0x7F) as u8;
        if !compressed && codec_id != 0 {
            return Err(BitstreamError::BadModeWord {
                detail: format!("uncompressed image with codec id {codec_id}"),
            });
        }
        Ok(ModeWord {
            compressed,
            codec_id,
            size_words: word & MAX_SIZE_WORDS,
        })
    }
}

/// A complete BRAM image: mode word plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BramImage {
    words: Vec<u32>,
}

impl BramImage {
    /// Builds an uncompressed image around a raw configuration word stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream exceeds the 24-bit size field.
    #[must_use]
    pub fn uncompressed(stream: &[u32]) -> Self {
        let mode = ModeWord {
            compressed: false,
            codec_id: 0,
            size_words: stream.len() as u32,
        };
        let mut words = Vec::with_capacity(stream.len() + 1);
        words.push(mode.encode());
        words.extend_from_slice(stream);
        BramImage { words }
    }

    /// Builds a compressed image: `[mode][byte count][packed bytes…]`.
    ///
    /// # Panics
    ///
    /// Panics if the packed payload exceeds the 24-bit size field.
    #[must_use]
    pub fn compressed(codec_id: u8, compressed_bytes: &[u8]) -> Self {
        let packed_words = (compressed_bytes.len() as u32).div_ceil(4);
        let mode = ModeWord {
            compressed: true,
            codec_id,
            size_words: packed_words + 1, // +1 for the byte-count word
        };
        let mut words = Vec::with_capacity(packed_words as usize + 2);
        words.push(mode.encode());
        words.push(compressed_bytes.len() as u32);
        let mut chunks = compressed_bytes.chunks_exact(4);
        for c in &mut chunks {
            words.push(u32::from_be_bytes(c.try_into().expect("4 bytes")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut pad = [0u8; 4];
            pad[..rem.len()].copy_from_slice(rem);
            words.push(u32::from_be_bytes(pad));
        }
        BramImage { words }
    }

    /// The full image (mode word first) — what the Manager writes to BRAM.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Image size in bytes, including the mode word — what counts against
    /// the 256 KB BRAM capacity.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Decodes the mode word.
    ///
    /// # Errors
    ///
    /// [`BitstreamError`] for an empty or inconsistent image.
    pub fn mode(&self) -> Result<ModeWord, BitstreamError> {
        let &mode = self.words.first().ok_or(BitstreamError::Truncated)?;
        let mode = ModeWord::decode(mode)?;
        if 1 + mode.size_words as usize != self.words.len() {
            return Err(BitstreamError::BadModeWord {
                detail: format!(
                    "size field {} vs actual payload {}",
                    mode.size_words,
                    self.words.len() - 1
                ),
            });
        }
        Ok(mode)
    }

    /// The codec id and exact compressed bytes of a compressed image.
    ///
    /// # Errors
    ///
    /// [`BitstreamError::BadModeWord`] if the image is uncompressed or the
    /// byte count is inconsistent.
    pub fn compressed_payload(&self) -> Result<(u8, Vec<u8>), BitstreamError> {
        let mode = self.mode()?;
        if !mode.compressed {
            return Err(BitstreamError::BadModeWord {
                detail: "image is uncompressed".to_owned(),
            });
        }
        let byte_count = *self.words.get(1).ok_or(BitstreamError::Truncated)? as usize;
        let available = (self.words.len() - 2) * 4;
        if byte_count > available {
            return Err(BitstreamError::BadModeWord {
                detail: format!("byte count {byte_count} exceeds payload {available}"),
            });
        }
        let mut bytes = Vec::with_capacity(byte_count);
        for &w in &self.words[2..] {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        bytes.truncate(byte_count);
        Ok((mode.codec_id, bytes))
    }

    /// Reconstructs an image from words read back out of a BRAM.
    #[must_use]
    pub fn from_words(words: Vec<u32>) -> Self {
        BramImage { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_word_round_trips() {
        for (c, id, size) in [
            (false, 0u8, 0u32),
            (true, 3, 12345),
            (true, 127, MAX_SIZE_WORDS),
        ] {
            let m = ModeWord {
                compressed: c,
                codec_id: id,
                size_words: size,
            };
            assert_eq!(ModeWord::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn uncompressed_mode_with_codec_rejected() {
        let word = 5 << 24; // codec 5, compressed bit clear
        assert!(matches!(
            ModeWord::decode(word),
            Err(BitstreamError::BadModeWord { .. })
        ));
    }

    #[test]
    fn uncompressed_image_round_trips() {
        let stream: Vec<u32> = (0..100).collect();
        let img = BramImage::uncompressed(&stream);
        let mode = img.mode().unwrap();
        assert!(!mode.compressed);
        assert_eq!(mode.size_words, 100);
        assert_eq!(&img.words()[1..], stream.as_slice());
        assert_eq!(img.size_bytes(), 101 * 4);
        assert!(img.compressed_payload().is_err());
    }

    #[test]
    fn compressed_image_round_trips_unaligned_lengths() {
        for n in [0usize, 1, 3, 4, 5, 1023] {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
            let img = BramImage::compressed(9, &bytes);
            let (codec, back) = img.compressed_payload().unwrap();
            assert_eq!(codec, 9);
            assert_eq!(back, bytes, "n={n}");
        }
    }

    #[test]
    fn inconsistent_size_field_detected() {
        let stream: Vec<u32> = (0..10).collect();
        let img = BramImage::uncompressed(&stream);
        let mut words = img.words().to_vec();
        words.pop(); // image now shorter than the mode word claims
        let broken = BramImage::from_words(words);
        assert!(matches!(
            broken.mode(),
            Err(BitstreamError::BadModeWord { .. })
        ));
    }

    #[test]
    fn oversized_byte_count_detected() {
        let img = BramImage::compressed(1, &[1, 2, 3, 4]);
        let mut words = img.words().to_vec();
        words[1] = 1000; // claims 1000 bytes, payload has 4
        let broken = BramImage::from_words(words);
        assert!(matches!(
            broken.compressed_payload(),
            Err(BitstreamError::BadModeWord { .. })
        ));
    }
}
