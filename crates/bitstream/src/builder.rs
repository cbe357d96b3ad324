//! Composes executable partial bitstreams.
//!
//! The builder emits exactly the packet sequence a vendor tool produces for
//! a partial bitstream: dummy/sync preamble, CRC reset, IDCODE check, WCFG,
//! the starting frame address, one large type-1+type-2 FDRI write carrying
//! all frame payloads, a CRC check word and the DESYNC trailer. The stream
//! is built sealed ([`Sealed`]): its check word is signed, and its FDRI
//! run's CRC contribution computed, once, here. The result executes on
//! [`uparc_fpga::Icap`] and is the byte payload that the compression codecs
//! and BRAM images operate on.

use std::sync::Arc;

use crate::error::BitstreamError;
use uparc_fpga::device::Device;
use uparc_fpga::format::{
    type1, type2, Command, ConfigRegister, Opcode, DUMMY_WORD, NOOP, SYNC_WORD,
};
use uparc_fpga::Sealed;

/// A fully assembled partial bitstream (sealed word stream + metadata).
///
/// The sealed stream is shared: a clone copies pointers, so a catalog
/// entry and the packed payload decided from it hold one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialBitstream {
    sealed: Sealed,
    far: u32,
    frame_count: u32,
    device_name: &'static str,
}

impl PartialBitstream {
    /// Builds a partial bitstream writing `payload` (a whole number of
    /// frames) starting at frame address `far`.
    ///
    /// This is the panicking convenience over
    /// [`PartialBitstream::try_build`]; callers placing images at runtime
    /// (an allocator handing out windows under churn) should use the
    /// fallible form so a rejection is an error, not a crash.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is empty or not a multiple of the family frame
    /// size, or if the frame range exceeds the device.
    #[must_use]
    pub fn build(device: &Device, far: u32, payload: &[u32]) -> Self {
        match Self::try_build(device, far, payload) {
            Ok(bs) => bs,
            Err(BitstreamError::EmptyPayload) => {
                panic!("payload must contain at least one frame")
            }
            Err(BitstreamError::RaggedPayload { frame_words, .. }) => {
                panic!("payload must be whole frames ({frame_words} words)")
            }
            Err(BitstreamError::FrameRange {
                far,
                frames,
                device_frames,
            }) => panic!(
                "frames {far}..{} exceed device ({device_frames} frames)",
                far.saturating_add(frames)
            ),
            Err(err) => panic!("{err}"),
        }
    }

    /// Builds a partial bitstream writing `payload` (a whole number of
    /// frames) starting at frame address `far`, reporting shape problems
    /// as typed errors.
    ///
    /// # Errors
    ///
    /// * [`BitstreamError::EmptyPayload`] — `payload` carries no frames.
    /// * [`BitstreamError::RaggedPayload`] — `payload` is not a whole
    ///   number of family frames.
    /// * [`BitstreamError::FrameRange`] — `far..far + frames` runs off the
    ///   end of the device.
    pub fn try_build(device: &Device, far: u32, payload: &[u32]) -> Result<Self, BitstreamError> {
        let fw = device.family().frame_words();
        if payload.is_empty() {
            return Err(BitstreamError::EmptyPayload);
        }
        if !payload.len().is_multiple_of(fw) {
            return Err(BitstreamError::RaggedPayload {
                words: payload.len(),
                frame_words: fw,
            });
        }
        let frame_count = (payload.len() / fw) as u32;
        if far
            .checked_add(frame_count)
            .is_none_or(|end| end > device.frames())
        {
            return Err(BitstreamError::FrameRange {
                far,
                frames: frame_count,
                device_frames: device.frames(),
            });
        }

        let write = |reg| type1(Opcode::Write, reg, 1);
        // One exact-size collect: the stream is allocated once, already
        // shared, and signed in place (the check word is a placeholder
        // until then).
        let words: Arc<[u32]> = [
            DUMMY_WORD,
            SYNC_WORD,
            NOOP,
            write(ConfigRegister::Cmd),
            Command::Rcrc as u32,
            NOOP,
            write(ConfigRegister::Idcode),
            device.idcode(),
            write(ConfigRegister::Cmd),
            Command::Wcfg as u32,
            write(ConfigRegister::Far),
            far,
            type1(Opcode::Write, ConfigRegister::Fdri, 0),
            type2(Opcode::Write, payload.len() as u32),
        ]
        .into_iter()
        .chain(payload.iter().copied())
        .chain([
            write(ConfigRegister::Crc),
            0,
            write(ConfigRegister::Cmd),
            Command::Desync as u32,
            NOOP,
        ])
        .collect();

        Ok(PartialBitstream {
            sealed: Sealed::sign(words),
            far,
            frame_count,
            device_name: device.name(),
        })
    }

    /// Rewrites the stream's frame address to `new_far` and re-signs it,
    /// so the relocated image is byte-identical to a fresh
    /// [`PartialBitstream::try_build`] of the same payload at the new
    /// address.
    ///
    /// Only two words change: the FAR register value and the CRC check
    /// word, which the seal writes as [`PartialBitstream::try_build`]'s
    /// does, so the result still passes ICAP verification.
    ///
    /// # Errors
    ///
    /// * [`BitstreamError::DeviceMismatch`] — `device` is not the device
    ///   the stream was built for.
    /// * [`BitstreamError::FrameRange`] — the image does not fit at
    ///   `new_far`.
    pub fn relocate(&self, device: &Device, new_far: u32) -> Result<Self, BitstreamError> {
        if device.name() != self.device_name {
            return Err(BitstreamError::DeviceMismatch {
                expected: self.device_name,
                found: device.name(),
            });
        }
        if new_far
            .checked_add(self.frame_count)
            .is_none_or(|end| end > device.frames())
        {
            return Err(BitstreamError::FrameRange {
                far: new_far,
                frames: self.frame_count,
                device_frames: device.frames(),
            });
        }

        let mut words: Arc<[u32]> = Arc::from(self.words());
        let stream = Arc::get_mut(&mut words).expect("a fresh copy is unshared");
        debug_assert_eq!(
            stream[10],
            type1(Opcode::Write, ConfigRegister::Far, 1),
            "FAR header drifted from the builder layout"
        );
        stream[11] = new_far;

        Ok(PartialBitstream {
            sealed: Sealed::sign(words),
            far: new_far,
            frame_count: self.frame_count,
            device_name: self.device_name,
        })
    }

    /// The executable word stream.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        self.sealed.words()
    }

    /// The sealed stream, for [`uparc_fpga::Icap::write_sealed`].
    #[must_use]
    pub fn sealed(&self) -> &Sealed {
        &self.sealed
    }

    /// Starting frame address.
    #[must_use]
    pub fn far(&self) -> u32 {
        self.far
    }

    /// Number of frames written.
    #[must_use]
    pub fn frame_count(&self) -> u32 {
        self.frame_count
    }

    /// The FDRI frame data carried by this bitstream (`frame_count` frames
    /// of the device's frame words), without the command preamble and
    /// trailer. This is the golden copy a repair path needs to rebuild a
    /// single-frame bitstream from.
    #[must_use]
    pub fn payload(&self) -> &[u32] {
        let words = self.words();
        &words[14..words.len() - 5]
    }

    /// Whether `other` is the same word stream: the same shared words
    /// (one pointer compare, as for a clone), or equal words.
    #[must_use]
    pub fn same_words(&self, other: &PartialBitstream) -> bool {
        self.sealed.same_words(&other.sealed)
    }

    /// Total size in bytes (the number the paper's bandwidth figures use).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words().len() * 4
    }

    /// Serialises to big-endian bytes (the on-disk/.bit byte order).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        words_to_bytes(self.words())
    }

    /// Whether `bytes` equals [`PartialBitstream::to_bytes`], compared in
    /// place without serialising the stream.
    #[must_use]
    pub fn eq_bytes(&self, bytes: &[u8]) -> bool {
        bytes.len() == self.size_bytes()
            && bytes
                .chunks_exact(4)
                .zip(self.words())
                .all(|(b, w)| *b == w.to_be_bytes())
    }

    /// Wraps the stream in a `.bit` container with the given design name.
    #[must_use]
    pub fn to_bitfile(&self, design_name: &str) -> crate::bitfile::BitFile {
        crate::bitfile::BitFile {
            design_name: design_name.to_owned(),
            part: self.device_name.to_lowercase(),
            date: "2011/09/14".to_owned(),
            time: "11:35:17".to_owned(),
            data: self.to_bytes(),
        }
    }
}

/// Serialises configuration words to big-endian bytes.
#[must_use]
pub fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    for &w in words {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out
}

/// Parses big-endian bytes back into configuration words.
///
/// # Errors
///
/// [`BitstreamError::Truncated`] if `bytes` is not a multiple of 4.
pub fn bytes_to_words(bytes: &[u8]) -> Result<Vec<u32>, BitstreamError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(BitstreamError::Truncated);
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_fpga::Icap;

    fn payload(device: &Device, frames: u32, fill: u32) -> Vec<u32> {
        vec![fill; device.family().frame_words() * frames as usize]
    }

    #[test]
    fn built_stream_executes_on_icap() {
        let device = Device::xc5vsx50t();
        let bs = PartialBitstream::build(&device, 200, &payload(&device, 5, 0xA5A5_5A5A));
        let mut icap = Icap::new(device);
        icap.write_words(bs.words()).unwrap();
        assert_eq!(icap.frames_committed(), 5);
        let frame = icap.config_memory().read_frame(202).unwrap();
        assert!(frame.iter().all(|&w| w == 0xA5A5_5A5A));
    }

    #[test]
    fn eq_bytes_matches_only_the_serialised_stream() {
        let device = Device::xc5vsx50t();
        let bs = PartialBitstream::build(&device, 0, &payload(&device, 2, 0x1234_5678));
        let bytes = bs.to_bytes();
        assert!(bs.eq_bytes(&bytes));
        assert!(!bs.eq_bytes(&bytes[..bytes.len() - 1]));
        assert!(!bs.eq_bytes(&[bytes.as_slice(), &[0; 4]].concat()));
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert!(!bs.eq_bytes(&flipped), "byte {i}");
        }
    }

    #[test]
    fn same_words_compares_the_pointer_then_the_words() {
        let device = Device::xc5vsx50t();
        let bs = PartialBitstream::build(&device, 0, &payload(&device, 2, 0x1234_5678));
        assert!(bs.same_words(&bs.clone()));
        let rebuilt = PartialBitstream::build(&device, 0, &payload(&device, 2, 0x1234_5678));
        assert!(bs.same_words(&rebuilt), "equal words, another allocation");
        let other = PartialBitstream::build(&device, 0, &payload(&device, 2, 0x1234_5679));
        assert!(!bs.same_words(&other));
        assert!(!bs.same_words(&bs.relocate(&device, 1).unwrap()));
    }

    #[test]
    fn size_overhead_is_small_and_fixed() {
        let device = Device::xc5vsx50t();
        let bs1 = PartialBitstream::build(&device, 0, &payload(&device, 1, 0));
        let bs100 = PartialBitstream::build(&device, 0, &payload(&device, 100, 0));
        let fw = device.family().frame_words();
        let overhead1 = bs1.words().len() - fw;
        let overhead100 = bs100.words().len() - 100 * fw;
        assert_eq!(overhead1, overhead100, "overhead is size-independent");
        assert!(overhead1 < 32, "overhead {overhead1} words");
    }

    #[test]
    fn payload_accessor_returns_exactly_the_frame_data() {
        let device = Device::xc5vsx50t();
        let data = payload(&device, 3, 0xCAFE_F00D);
        let bs = PartialBitstream::build(&device, 50, &data);
        assert_eq!(bs.payload(), &data[..]);
    }

    #[test]
    fn byte_serialisation_round_trips() {
        let device = Device::xc5vsx50t();
        let bs = PartialBitstream::build(&device, 10, &payload(&device, 3, 0x1234_5678));
        let bytes = bs.to_bytes();
        assert_eq!(bytes.len(), bs.size_bytes());
        assert_eq!(bytes_to_words(&bytes).unwrap(), bs.words());
        assert!(bytes_to_words(&bytes[..5]).is_err());
    }

    #[test]
    fn bitfile_wrapping_preserves_payload() {
        let device = Device::xc6vlx240t();
        let bs = PartialBitstream::build(&device, 99, &payload(&device, 2, 7));
        let bf = bs.to_bitfile("demo_rp1");
        let parsed = crate::bitfile::BitFile::parse(&bf.to_bytes()).unwrap();
        assert_eq!(parsed.design_name, "demo_rp1");
        assert_eq!(parsed.part, "xc6vlx240t");
        assert_eq!(bytes_to_words(&parsed.data).unwrap(), bs.words());
    }

    #[test]
    fn wrong_device_stream_fails_on_other_icap() {
        let v5 = Device::xc5vsx50t();
        let bs = PartialBitstream::build(&v5, 0, &payload(&v5, 1, 0));
        let mut icap = Icap::new(Device::xc6vlx240t());
        assert!(icap.write_words(bs.words()).is_err());
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let device = Device::xc5vsx50t();
        assert_eq!(
            PartialBitstream::try_build(&device, 0, &[]),
            Err(BitstreamError::EmptyPayload)
        );
        assert_eq!(
            PartialBitstream::try_build(&device, 0, &[1, 2, 3]),
            Err(BitstreamError::RaggedPayload {
                words: 3,
                frame_words: device.family().frame_words(),
            })
        );
        let far = device.frames() - 1;
        assert_eq!(
            PartialBitstream::try_build(&device, far, &payload(&device, 2, 0)),
            Err(BitstreamError::FrameRange {
                far,
                frames: 2,
                device_frames: device.frames(),
            })
        );
        // A FAR near u32::MAX must not wrap into an accepted window.
        assert!(matches!(
            PartialBitstream::try_build(&device, u32::MAX, &payload(&device, 2, 0)),
            Err(BitstreamError::FrameRange { .. })
        ));
        let ok = PartialBitstream::try_build(&device, 100, &payload(&device, 2, 9)).unwrap();
        assert_eq!(
            ok,
            PartialBitstream::build(&device, 100, &payload(&device, 2, 9))
        );
    }

    #[test]
    fn relocation_is_byte_identical_to_fresh_build() {
        let device = Device::xc5vsx50t();
        let data = payload(&device, 7, 0xDEAD_BEEF);
        let bs = PartialBitstream::build(&device, 300, &data);
        let moved = bs.relocate(&device, 41).unwrap();
        let fresh = PartialBitstream::build(&device, 41, &data);
        assert_eq!(moved, fresh);
        assert_eq!(moved.far(), 41);
        assert_eq!(moved.frame_count(), 7);
        // The relocated stream still passes ICAP CRC verification.
        let mut icap = Icap::new(device);
        icap.write_words(moved.words()).unwrap();
        assert_eq!(icap.frames_committed(), 7);
    }

    #[test]
    fn the_signed_check_word_is_the_running_crc_the_port_keeps() {
        use uparc_fpga::format::ConfigCrc;
        // The replay the builder ran before it sealed its streams: the
        // CRC from the RCRC command on, over the IDCODE, WCFG, FAR and
        // FDRI writes before the check.
        let replay = |device: &Device, far: u32, payload: &[u32]| {
            let mut crc = ConfigCrc::new();
            crc.update(ConfigRegister::Idcode, device.idcode());
            crc.update(ConfigRegister::Cmd, Command::Wcfg as u32);
            crc.update(ConfigRegister::Far, far);
            crc.update_run(ConfigRegister::Fdri, payload);
            crc.value()
        };
        for device in [Device::xc5vsx50t(), Device::xc6vlx240t()] {
            for (far, frames, seed) in [(0, 1u32, 1u32), (200, 5, 0xA5A5_5A5A), (37, 40, 7)] {
                let words = device.family().frame_words() * frames as usize;
                let data: Vec<u32> = (0..words as u32).map(|i| i.wrapping_mul(seed)).collect();
                let bs = PartialBitstream::build(&device, far, &data);
                let moved = bs.relocate(&device, far + 3).unwrap();
                for (bs, far) in [(&bs, far), (&moved, far + 3)] {
                    let stream = bs.words();
                    assert_eq!(stream[stream.len() - 4], replay(&device, far, &data));
                    assert_eq!(bs.sealed().words(), stream);
                    let mut icap = Icap::new(device.clone());
                    icap.write_sealed(bs.sealed()).unwrap();
                    assert_eq!(icap.frames_committed(), u64::from(frames));
                    assert_eq!(icap.config_memory().read_frame(far).unwrap()[1], seed);
                }
            }
        }
    }

    #[test]
    fn relocation_rejects_bad_targets() {
        let device = Device::xc5vsx50t();
        let bs = PartialBitstream::build(&device, 0, &payload(&device, 4, 1));
        assert!(matches!(
            bs.relocate(&device, device.frames() - 3),
            Err(BitstreamError::FrameRange { .. })
        ));
        assert!(matches!(
            bs.relocate(&Device::xc6vlx240t(), 0),
            Err(BitstreamError::DeviceMismatch { .. })
        ));
        // Self-relocation is the identity.
        assert_eq!(bs.relocate(&device, 0).unwrap(), bs);
    }

    #[test]
    #[should_panic(expected = "whole frames")]
    fn ragged_payload_rejected() {
        let device = Device::xc5vsx50t();
        let _ = PartialBitstream::build(&device, 0, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceed device")]
    fn overflowing_frame_range_rejected() {
        let device = Device::xc5vsx50t();
        let far = device.frames() - 1;
        let _ = PartialBitstream::build(&device, far, &payload(&device, 2, 0));
    }
}
