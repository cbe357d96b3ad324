//! Frame-addressed configuration memory.
//!
//! The configuration memory is what a bitstream ultimately modifies; the
//! integration tests use it to verify that a reconfiguration through any of
//! the controllers actually produced the intended frame contents (not just
//! plausible timing numbers).

use std::collections::BTreeMap;

use crate::device::Device;
use crate::ecc::{self, EccStatus};
use crate::error::FpgaError;

/// The configuration memory plane of one device: `frames × frame_words`
/// 32-bit words, addressed by a flat frame address (FAR).
///
/// Each frame has a stored ECC parity word. A legitimate write stores the
/// parity of the data it writes and only an upset can make the two
/// differ, so the plane keeps a stored parity only for the frames an
/// upset struck since their last write: a clean write is a plain copy,
/// and checking an unstruck frame reads nothing.
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    frame_words: usize,
    frames: u32,
    data: Vec<u32>,
    /// Stored parity of each frame struck since its last write, keyed by
    /// frame address. Every other frame's stored parity is the parity of
    /// its data.
    struck: BTreeMap<u32, u32>,
    writes: u64,
}

impl ConfigMemory {
    /// Creates an all-zero configuration memory for `device`.
    #[must_use]
    pub fn for_device(device: &Device) -> Self {
        let frame_words = device.family().frame_words();
        let frames = device.frames();
        ConfigMemory {
            frame_words,
            frames,
            data: vec![0; frames as usize * frame_words],
            struck: BTreeMap::new(),
            writes: 0,
        }
    }

    /// Words per frame.
    #[must_use]
    pub fn frame_words(&self) -> usize {
        self.frame_words
    }

    /// Number of frames.
    #[must_use]
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Total frame writes performed since creation.
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// The offset of word 0 of frame `far` in the plane, if `n` frames
    /// from `far` lie on the device; otherwise the first frame address
    /// off the device, as [`FpgaError::FrameOutOfRange`].
    fn span(&self, far: u32, n: usize) -> Result<usize, FpgaError> {
        if far as usize + n > self.frames as usize {
            let bad = if far >= self.frames { far } else { self.frames };
            return Err(FpgaError::FrameOutOfRange {
                far: bad,
                frames: self.frames,
            });
        }
        Ok(far as usize * self.frame_words)
    }

    /// Writes one frame at `far`.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] if `far` is outside the device.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not exactly [`ConfigMemory::frame_words`] long
    /// (the configuration logic can only ever deliver whole frames).
    pub fn write_frame(&mut self, far: u32, frame: &[u32]) -> Result<(), FpgaError> {
        assert_eq!(
            frame.len(),
            self.frame_words,
            "frames are exactly {} words",
            self.frame_words
        );
        let start = self.span(far, 1)?;
        self.data[start..start + self.frame_words].copy_from_slice(frame);
        self.struck.remove(&far);
        self.writes += 1;
        Ok(())
    }

    /// Writes `data.len() / frame_words` consecutive whole frames starting
    /// at `far` with one bounds check and one copy. Equivalent to calling
    /// [`ConfigMemory::write_frame`] per frame.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] if any of the frames falls outside
    /// the device; nothing is written in that case.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of frames.
    pub fn write_frames(&mut self, far: u32, data: &[u32]) -> Result<(), FpgaError> {
        assert_eq!(
            data.len() % self.frame_words,
            0,
            "multi-frame writes carry whole frames of {} words",
            self.frame_words
        );
        let n = data.len() / self.frame_words;
        let start = self.span(far, n)?;
        self.data[start..start + data.len()].copy_from_slice(data);
        if !self.struck.is_empty() {
            let written = far..far + n as u32;
            self.struck.retain(|f, _| !written.contains(f));
        }
        self.writes += n as u64;
        Ok(())
    }

    /// Checks an upset of `bit` in word `word` of frame `far` (`None`: the
    /// stored parity word) against the device and frame geometry, and
    /// returns the frame's stored parity and data. An unstruck frame gets
    /// its entry first: until this upset, its stored parity is the parity
    /// of its data.
    fn strike(
        &mut self,
        far: u32,
        word: Option<usize>,
        bit: u32,
    ) -> Result<(&mut u32, &mut [u32]), FpgaError> {
        let start = self.span(far, 1)?;
        if bit >= 32 || word.is_some_and(|w| w >= self.frame_words) {
            return Err(FpgaError::UpsetOutOfRange {
                far: Some(far),
                word,
                bit,
            });
        }
        let frame = &mut self.data[start..start + self.frame_words];
        let stored = self
            .struck
            .entry(far)
            .or_insert_with(|| ecc::frame_parity(frame));
        Ok((stored, frame))
    }

    /// Flips one bit **without** updating the frame's ECC parity — the
    /// semantics of a radiation upset, which is exactly what lets
    /// [`ConfigMemory::ecc_check`] expose it.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] if `far` is outside the device;
    /// [`FpgaError::UpsetOutOfRange`] if `word` or `bit` exceed the frame
    /// geometry. Nothing changes in either case.
    pub fn corrupt_bit(&mut self, far: u32, word: usize, bit: u32) -> Result<(), FpgaError> {
        let (_, frame) = self.strike(far, Some(word), bit)?;
        frame[word] ^= 1 << bit;
        Ok(())
    }

    /// Flips one bit of the *stored ECC parity word* of a frame, leaving
    /// the data intact — an upset in the check word itself. SECDED treats
    /// this as a detected-but-uncorrectable mismatch
    /// ([`EccStatus::MultiBit`]), so a scrubber falls back to golden repair
    /// instead of "correcting" a healthy frame.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] if `far` is outside the device;
    /// [`FpgaError::UpsetOutOfRange`] if `bit` is not below 32. Nothing
    /// changes in either case.
    pub fn corrupt_parity_bit(&mut self, far: u32, bit: u32) -> Result<(), FpgaError> {
        let (stored, _) = self.strike(far, None, bit)?;
        *stored ^= 1 << bit;
        Ok(())
    }

    /// ECC syndrome check of one frame (the FRAME_ECC primitive). A frame
    /// no upset struck since its last write checks clean without being
    /// read.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] if `far` is outside the device.
    pub fn ecc_check(&self, far: u32) -> Result<EccStatus, FpgaError> {
        let frame = self.read_frame(far)?;
        Ok(self
            .struck
            .get(&far)
            .map_or(EccStatus::Clean, |&stored| ecc::check(frame, stored)))
    }

    /// Reads one frame at `far` (readback through FDRO).
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] if `far` is outside the device.
    pub fn read_frame(&self, far: u32) -> Result<&[u32], FpgaError> {
        self.read_frames(far, 1)
    }

    /// Reads `frames` consecutive frames starting at `far` in place, as
    /// one slice of `frames × frame_words` words. Zero frames read as an
    /// empty slice wherever `far` is.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`], naming the first frame address off
    /// the device, if the range leaves it.
    pub fn read_frames(&self, far: u32, frames: u32) -> Result<&[u32], FpgaError> {
        if frames == 0 {
            return Ok(&[]);
        }
        let start = self.span(far, frames as usize)?;
        Ok(&self.data[start..start + frames as usize * self.frame_words])
    }

    /// Number of frames whose contents differ between `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two memories have different geometry.
    #[must_use]
    pub fn diff_frames(&self, other: &ConfigMemory) -> u32 {
        assert_eq!(self.frames, other.frames, "geometry mismatch");
        assert_eq!(self.frame_words, other.frame_words, "geometry mismatch");
        let mut n = 0;
        for far in 0..self.frames {
            let s = far as usize * self.frame_words;
            if self.data[s..s + self.frame_words] != other.data[s..s + self.frame_words] {
                n += 1;
            }
        }
        n
    }

    /// Clears the whole plane to zero (a full-device reconfiguration reset),
    /// including the ECC parity.
    pub fn clear(&mut self) {
        self.data.fill(0);
        self.struck.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ConfigMemory {
        let dev = Device::xc5vsx50t();
        ConfigMemory::for_device(&dev)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut cm = tiny();
        let frame: Vec<u32> = (0..41).collect();
        cm.write_frame(100, &frame).unwrap();
        assert_eq!(cm.read_frame(100).unwrap(), frame.as_slice());
        assert_eq!(cm.read_frame(99).unwrap(), vec![0u32; 41].as_slice());
        assert_eq!(cm.write_count(), 1);
    }

    #[test]
    fn out_of_range_far_rejected() {
        let mut cm = tiny();
        let frames = cm.frames();
        let frame = vec![0u32; cm.frame_words()];
        assert!(matches!(
            cm.write_frame(frames, &frame),
            Err(FpgaError::FrameOutOfRange { .. })
        ));
        assert!(cm.read_frame(frames).is_err());
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn short_frame_panics() {
        let mut cm = tiny();
        cm.write_frame(0, &[1, 2, 3]).unwrap();
    }

    #[test]
    fn ecc_flags_corruption_but_not_writes() {
        let mut cm = tiny();
        let frame: Vec<u32> = (0..41).map(|i| i * 7 + 1).collect();
        cm.write_frame(5, &frame).unwrap();
        assert_eq!(cm.ecc_check(5).unwrap(), EccStatus::Clean);
        cm.corrupt_bit(5, 12, 3).unwrap();
        assert_eq!(
            cm.ecc_check(5).unwrap(),
            EccStatus::SingleBit { word: 12, bit: 3 }
        );
        // A legitimate rewrite re-syncs the parity.
        cm.write_frame(5, &frame).unwrap();
        assert_eq!(cm.ecc_check(5).unwrap(), EccStatus::Clean);
        // Double corruption is detected but not located.
        cm.corrupt_bit(5, 0, 0).unwrap();
        cm.corrupt_bit(5, 40, 31).unwrap();
        assert_eq!(cm.ecc_check(5).unwrap(), EccStatus::MultiBit);
    }

    #[test]
    fn upsets_outside_the_frame_geometry_are_typed_errors() {
        let mut cm = tiny();
        let frame: Vec<u32> = (0..41).map(|i| i * 3 + 5).collect();
        cm.write_frame(7, &frame).unwrap();
        let outside = |word, bit| FpgaError::UpsetOutOfRange {
            far: Some(7),
            word,
            bit,
        };
        assert_eq!(cm.corrupt_bit(7, 41, 0), Err(outside(Some(41), 0)));
        assert_eq!(cm.corrupt_bit(7, 0, 32), Err(outside(Some(0), 32)));
        assert_eq!(cm.corrupt_parity_bit(7, 32), Err(outside(None, 32)));
        // The device bound is checked first.
        assert!(matches!(
            cm.corrupt_bit(cm.frames(), 41, 0),
            Err(FpgaError::FrameOutOfRange { .. })
        ));
        assert_eq!(cm.read_frame(7).unwrap(), frame.as_slice());
        assert_eq!(cm.ecc_check(7).unwrap(), EccStatus::Clean);
        assert!(cm.struck.is_empty(), "an invalid upset stores nothing");
    }

    #[test]
    fn only_struck_frames_keep_a_stored_parity() {
        let mut cm = tiny();
        let fw = cm.frame_words();
        let data: Vec<u32> = (0..(4 * fw) as u32).map(|i| i ^ 0x00FF_00FF).collect();
        cm.write_frames(20, &data).unwrap();
        assert!(cm.struck.is_empty(), "a clean write stores no parity");
        cm.corrupt_bit(21, 4, 9).unwrap();
        cm.corrupt_parity_bit(23, 2).unwrap();
        cm.corrupt_bit(30, 0, 0).unwrap();
        assert_eq!(cm.struck.len(), 3);
        // The same bit flipped back: the entry stays and reads clean.
        cm.corrupt_bit(30, 0, 0).unwrap();
        assert_eq!(cm.ecc_check(30).unwrap(), EccStatus::Clean);
        // A run over struck and unstruck frames drops exactly its own.
        cm.write_frames(21, &data[..3 * fw]).unwrap();
        assert_eq!(cm.struck.keys().copied().collect::<Vec<_>>(), vec![30]);
        cm.clear();
        assert!(cm.struck.is_empty());
    }

    #[test]
    fn read_frames_is_one_slice_with_the_per_frame_error() {
        let mut cm = tiny();
        let fw = cm.frame_words();
        let frames = cm.frames();
        let data: Vec<u32> = (0..(3 * fw) as u32).collect();
        cm.write_frames(frames - 3, &data).unwrap();
        assert_eq!(cm.read_frames(frames - 3, 3).unwrap(), data.as_slice());
        let off = |far| FpgaError::FrameOutOfRange { far, frames };
        assert_eq!(cm.read_frames(frames - 3, 4), Err(off(frames)));
        assert_eq!(cm.read_frames(frames + 5, 2), Err(off(frames + 5)));
        assert_eq!(cm.read_frames(u32::MAX, 2), Err(off(u32::MAX)));
        // Zero frames read as nothing, wherever they start.
        assert!(cm.read_frames(u32::MAX, 0).unwrap().is_empty());
    }

    #[test]
    fn multi_frame_write_matches_per_frame_writes() {
        let mut batched = tiny();
        let mut loop_based = tiny();
        let fw = batched.frame_words();
        let data: Vec<u32> = (0..(3 * fw) as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        batched.write_frames(7, &data).unwrap();
        for (k, frame) in data.chunks_exact(fw).enumerate() {
            loop_based.write_frame(7 + k as u32, frame).unwrap();
        }
        assert_eq!(batched.diff_frames(&loop_based), 0);
        assert_eq!(batched.write_count(), loop_based.write_count());
        for far in 7..10 {
            assert_eq!(batched.ecc_check(far).unwrap(), EccStatus::Clean);
        }
    }

    #[test]
    fn multi_frame_write_rejects_overhang_without_writing() {
        let mut cm = tiny();
        let fw = cm.frame_words();
        let frames = cm.frames();
        let data = vec![0xAAAA_5555u32; 2 * fw];
        assert!(matches!(
            cm.write_frames(frames - 1, &data),
            Err(FpgaError::FrameOutOfRange { .. })
        ));
        assert_eq!(cm.write_count(), 0);
        assert_eq!(
            cm.read_frame(frames - 1).unwrap(),
            vec![0u32; fw].as_slice()
        );
        // Empty writes are fine anywhere in range.
        cm.write_frames(0, &[]).unwrap();
        assert_eq!(cm.write_count(), 0);
    }

    #[test]
    fn diff_counts_changed_frames() {
        let mut a = tiny();
        let b = tiny();
        assert_eq!(a.diff_frames(&b), 0);
        let frame = vec![0xDEAD_BEEF; a.frame_words()];
        a.write_frame(0, &frame).unwrap();
        a.write_frame(500, &frame).unwrap();
        assert_eq!(a.diff_frames(&b), 2);
        a.clear();
        assert_eq!(a.diff_frames(&b), 0);
    }
}
