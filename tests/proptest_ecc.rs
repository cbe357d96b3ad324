//! Property-based tests of the frame-ECC SECDED edge cases.
//!
//! The scrubbing story leans on exact ECC semantics: a single-bit upset
//! must be *located* (correctable in place), while any double-bit upset —
//! including flips straddling the byte lanes of the word-parallel
//! syndrome kernel, and flips of the stored parity word itself — must
//! come back detected-but-uncorrectable, never silently clean and never
//! miscorrected to a wrong location.
//!
//! The configuration memory keeps a stored parity only for frames an
//! upset struck since their last write; the last property pins that lazy
//! plane to the eager one it replaced, which stores every frame's parity
//! at every write, over random sequences of writes, upsets and clears.

use proptest::prelude::*;
use uparc_repro::fpga::device::Geometry;
use uparc_repro::fpga::ecc::{check, frame_parity, EccStatus};
use uparc_repro::fpga::{ConfigMemory, Device, Family, FpgaError};

/// Frames of 1..=64 words (the real V5 frame is 41 words; odd sizes
/// exercise the `word < frame.len()` guard in `check`).
fn frame_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        proptest::collection::vec(any::<u32>(), 41..42),
        proptest::collection::vec(any::<u32>(), 1..64),
        // Sparse, bitstream-like frames: mostly zero words.
        proptest::collection::vec(prop_oneof![Just(0u32), any::<u32>()], 1..64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn clean_frames_check_clean(frame in frame_strategy()) {
        let p = frame_parity(&frame);
        prop_assert_eq!(check(&frame, p), EccStatus::Clean);
    }

    #[test]
    fn every_single_bit_flip_is_located_exactly(
        frame in frame_strategy(),
        pick in any::<u32>(),
    ) {
        let golden = frame_parity(&frame);
        let bits = frame.len() as u32 * 32;
        let index = pick % bits;
        let (word, bit) = ((index / 32) as usize, index % 32);
        let mut upset = frame;
        upset[word] ^= 1 << bit;
        prop_assert_eq!(
            check(&upset, golden),
            EccStatus::SingleBit { word, bit },
            "flip at {}:{}", word, bit
        );
    }

    #[test]
    fn any_distinct_double_flip_is_multibit(
        frame in frame_strategy(),
        pick in any::<u32>(),
        offset in any::<u32>(),
    ) {
        let golden = frame_parity(&frame);
        let bits = frame.len() as u32 * 32;
        prop_assume!(bits >= 2);
        let i1 = pick % bits;
        let i2 = (i1 + 1 + offset % (bits - 1)) % bits;
        prop_assert_ne!(i1, i2);
        let mut upset = frame;
        upset[(i1 / 32) as usize] ^= 1 << (i1 % 32);
        upset[(i2 / 32) as usize] ^= 1 << (i2 % 32);
        prop_assert_eq!(
            check(&upset, golden),
            EccStatus::MultiBit,
            "double flip at {} and {}", i1, i2
        );
    }

    #[test]
    fn lane_straddling_double_flips_are_multibit(
        frame in proptest::collection::vec(any::<u32>(), 2..64),
        word_pick in any::<u32>(),
        boundary in 0u32..4,
    ) {
        // Adjacent-bit pairs across the syndrome kernel's byte-lane table
        // boundaries (7|8, 15|16, 23|24) and the word boundary (31 of w |
        // 0 of w+1), whose carry fix-up is the trickiest path in the
        // kernel.
        let golden = frame_parity(&frame);
        let mut upset = frame;
        let w = (word_pick as usize) % (upset.len() - 1);
        match boundary {
            0 => { upset[w] ^= 1 << 7;  upset[w] ^= 1 << 8; }
            1 => { upset[w] ^= 1 << 15; upset[w] ^= 1 << 16; }
            2 => { upset[w] ^= 1 << 23; upset[w] ^= 1 << 24; }
            _ => { upset[w] ^= 1 << 31; upset[w + 1] ^= 1; }
        }
        prop_assert_eq!(
            check(&upset, golden),
            EccStatus::MultiBit,
            "boundary pair {} at word {}", boundary, w
        );
    }

    #[test]
    fn parity_word_flips_are_detected_not_correctable(
        frame in frame_strategy(),
        pbit in 0u32..32,
    ) {
        // An SEU in the *stored parity* leaves the data intact: the
        // syndrome must flag the frame (so a scrubber rewrites it) but a
        // lone parity-bit delta never forms a valid single-bit signature.
        let golden = frame_parity(&frame);
        let struck = golden ^ (1 << pbit);
        prop_assert_eq!(
            check(&frame, struck),
            EccStatus::MultiBit,
            "parity flip at bit {}", pbit
        );
    }

    #[test]
    fn simultaneous_data_and_parity_flips_never_pass_clean(
        frame in frame_strategy(),
        pick in any::<u32>(),
        pbit in 0u32..32,
    ) {
        // The nastiest aliasing candidate: one data flip plus one stored-
        // parity flip. Locating it correctly is not guaranteed (SECDED's
        // limit), but it must never read back as Clean.
        let golden = frame_parity(&frame);
        let bits = frame.len() as u32 * 32;
        let index = pick % bits;
        let mut upset = frame;
        upset[(index / 32) as usize] ^= 1 << (index % 32);
        prop_assert_ne!(
            check(&upset, golden ^ (1 << pbit)),
            EccStatus::Clean,
            "data flip {} + parity flip {}", index, pbit
        );
    }
}

// ------------------------------------------------- lazy stored parity --

/// The eager model of the stored parity: every frame carries one,
/// recomputed at every write, zeroed by a clear and changed otherwise
/// only by a parity upset.
struct EagerPlane {
    frame_words: usize,
    data: Vec<u32>,
    parity: Vec<u32>,
    writes: u64,
}

impl EagerPlane {
    fn new(frames: u32, frame_words: usize) -> Self {
        EagerPlane {
            frame_words,
            data: vec![0; frames as usize * frame_words],
            parity: vec![0; frames as usize],
            writes: 0,
        }
    }

    fn frame(&self, far: u32) -> &[u32] {
        let s = far as usize * self.frame_words;
        &self.data[s..s + self.frame_words]
    }

    fn write(&mut self, far: u32, frames: &[u32]) {
        for (k, frame) in frames.chunks_exact(self.frame_words).enumerate() {
            let s = (far as usize + k) * self.frame_words;
            self.data[s..s + self.frame_words].copy_from_slice(frame);
            self.parity[far as usize + k] = frame_parity(frame);
            self.writes += 1;
        }
    }

    fn check(&self, far: u32) -> EccStatus {
        check(self.frame(far), self.parity[far as usize])
    }
}

/// An 8-frame Virtex-5 plane (41-word frames), so random writes and
/// upsets keep landing on the same frames.
fn tiny_device() -> Device {
    let geometry = Geometry {
        rows: 1,
        majors: 2,
        minors: 4,
    };
    Device::custom("xcEccTiny", Family::Virtex5, 0x0123_4567, geometry, 100, 10)
}

/// `frames` frames of seeded content, some words left zero.
fn frames_from(seed: u32, frames: usize, frame_words: usize) -> Vec<u32> {
    (0..(frames * frame_words) as u32)
        .map(|i| {
            let x = (seed ^ i.wrapping_mul(0x9E37_79B9)).wrapping_mul(0x85EB_CA6B);
            if x.is_multiple_of(5) {
                0
            } else {
                x ^ (x >> 13)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_parity_matches_the_eager_model(
        steps in proptest::collection::vec((0u8..16, any::<u32>(), any::<u32>()), 1..48),
    ) {
        let device = tiny_device();
        let mut lazy = ConfigMemory::for_device(&device);
        let frames = lazy.frames();
        let fw = lazy.frame_words();
        let mut eager = EagerPlane::new(frames, fw);
        let mut last_flip = None;
        for (step, &(kind, a, b)) in steps.iter().enumerate() {
            let far = a % frames;
            match kind {
                // One frame, through `write_frame`.
                0..=2 => {
                    let frame = frames_from(b, 1, fw);
                    lazy.write_frame(far, &frame).expect("in range");
                    eager.write(far, &frame);
                }
                // A run of frames through `write_frames`: on an 8-frame
                // plane the runs cover struck and unstruck frames alike.
                3..=5 => {
                    let n = 1 + (b >> 8) % (frames - far);
                    let run = frames_from(b, n as usize, fw);
                    lazy.write_frames(far, &run).expect("in range");
                    eager.write(far, &run);
                }
                // A data upset, or the last one again at the same bit.
                6..=9 => {
                    let (far, word, bit) = match last_flip {
                        Some(flip) if kind == 9 => flip,
                        _ => (far, b as usize % fw, (b >> 16) % 32),
                    };
                    lazy.corrupt_bit(far, word, bit).expect("in geometry");
                    eager.data[far as usize * fw + word] ^= 1 << bit;
                    last_flip = Some((far, word, bit));
                }
                // An upset of the stored parity word.
                10..=12 => {
                    let bit = b % 32;
                    lazy.corrupt_parity_bit(far, bit).expect("in geometry");
                    eager.parity[far as usize] ^= 1 << bit;
                }
                // An upset outside the geometry changes nothing.
                13 | 14 => {
                    let (word, bit) = (fw + b as usize % 3, 32 + b % 3);
                    prop_assert_eq!(
                        lazy.corrupt_bit(far, word, b % 32),
                        Err(FpgaError::UpsetOutOfRange { far: Some(far), word: Some(word), bit: b % 32 })
                    );
                    prop_assert_eq!(
                        lazy.corrupt_bit(far, b as usize % fw, bit),
                        Err(FpgaError::UpsetOutOfRange { far: Some(far), word: Some(b as usize % fw), bit })
                    );
                    prop_assert_eq!(
                        lazy.corrupt_parity_bit(far, bit),
                        Err(FpgaError::UpsetOutOfRange { far: Some(far), word: None, bit })
                    );
                }
                _ => {
                    lazy.clear();
                    eager.data.fill(0);
                    eager.parity.fill(0);
                }
            }
            for f in 0..frames {
                prop_assert_eq!(
                    lazy.ecc_check(f).expect("on the device"),
                    eager.check(f),
                    "frame {} after step {} (kind {})", f, step, kind
                );
            }
            prop_assert_eq!(lazy.read_frames(0, frames).expect("whole plane"), eager.data.as_slice());
            prop_assert_eq!(lazy.write_count(), eager.writes);
        }
    }
}
