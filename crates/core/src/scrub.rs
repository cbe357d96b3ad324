//! Configuration-memory scrubbing — the fault-tolerance use case of the
//! paper's introduction.
//!
//! §I motivates fast reconfiguration with "high-performance or
//! fault-tolerant systems": a radiation-induced single-event upset (SEU)
//! in the configuration memory silently corrupts the circuit until it is
//! repaired, and the repair is a partial reconfiguration whose latency is
//! exactly what UPaRC minimises. The [`Scrubber`] implements the classic
//! readback loop:
//!
//! 1. **capture** a golden copy of a partition's frames,
//! 2. periodically **scan** by ICAP readback and diff against the golden,
//! 3. **repair** corrupted frames by rebuilding a minimal partial
//!    bitstream from the golden copy and reconfiguring through UPaRC.

use crate::error::UparcError;
use crate::uparc::{Mode, UParc, UparcReport};
use std::ops::Range;
use uparc_bitstream::builder::PartialBitstream;
use uparc_sim::time::SimTime;

/// A golden reference for one partition's frame range.
#[derive(Debug, Clone)]
pub struct Scrubber {
    far: u32,
    frames: u32,
    frame_words: usize,
    golden: Vec<u32>,
}

/// Outcome of one scrub pass.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// Frames scanned.
    pub scanned: u32,
    /// Frame addresses found corrupted.
    pub dirty: Vec<u32>,
    /// Time spent in readback.
    pub scan_time: SimTime,
    /// The repair reconfigurations performed (one per contiguous dirty
    /// range), empty if the scan was clean.
    pub repairs: Vec<UparcReport>,
}

impl ScrubReport {
    /// Total repair latency (the partition's downtime caused by this pass).
    #[must_use]
    pub fn repair_time(&self) -> SimTime {
        self.repairs.iter().map(UparcReport::elapsed).sum()
    }
}

impl Scrubber {
    /// Captures the golden reference by reading `frames` frames at `far`
    /// back through the ICAP.
    ///
    /// # Errors
    ///
    /// Frame-range or clock errors.
    pub fn capture(uparc: &mut UParc, far: u32, frames: u32) -> Result<Self, UparcError> {
        let golden = uparc.readback(far, frames)?.to_vec();
        Ok(Scrubber {
            far,
            frames,
            frame_words: uparc.icap().config_memory().frame_words(),
            golden,
        })
    }

    /// The protected frame range.
    #[must_use]
    pub fn range(&self) -> Range<u32> {
        self.far..self.far + self.frames
    }

    /// Scans the partition and repairs any corrupted frames from the
    /// golden copy; verifies the partition is clean afterwards.
    ///
    /// # Errors
    ///
    /// Readback or reconfiguration errors.
    pub fn scrub(&self, uparc: &mut UParc) -> Result<ScrubReport, UparcError> {
        let t0 = uparc.now();
        let current = uparc.readback(self.far, self.frames)?;
        let dirty: Vec<u32> = (0..self.frames)
            .filter(|&i| {
                let s = i as usize * self.frame_words;
                current[s..s + self.frame_words] != self.golden[s..s + self.frame_words]
            })
            .map(|i| self.far + i)
            .collect();
        let scan_time = uparc.now() - t0;

        let mut repairs = Vec::new();
        for range in contiguous_ranges(&dirty) {
            let start = (range.start - self.far) as usize * self.frame_words;
            let end = (range.end - self.far) as usize * self.frame_words;
            let bs = PartialBitstream::build(uparc.device(), range.start, &self.golden[start..end]);
            repairs.push(uparc.reconfigure_bitstream(&bs, Mode::Auto)?);
        }
        if !repairs.is_empty() {
            // Verify the repair took.
            let after = uparc.readback(self.far, self.frames)?;
            if after != self.golden.as_slice() {
                return Err(UparcError::Compression(
                    "scrub verification failed: partition still corrupt".into(),
                ));
            }
        }
        Ok(ScrubReport {
            scanned: self.frames,
            dirty,
            scan_time,
            repairs,
        })
    }
}

/// Golden-free scrubbing via the per-frame ECC syndrome (the FRAME_ECC
/// mechanism of Virtex-5/-6 devices).
///
/// Unlike [`Scrubber`], no golden copy is stored: single-bit upsets are
/// *located* by the Hamming syndrome and corrected in place; multi-bit
/// upsets are detected but need a golden-copy repair (returned for
/// escalation). The scan is paced by a timed readback and checks the
/// frames in place; the recovery ladder runs it after every successful
/// dispatch.
#[derive(Debug, Clone, Copy)]
pub struct EccScrubber {
    far: u32,
    frames: u32,
}

/// Outcome of one ECC scrub pass.
#[derive(Debug, Clone)]
pub struct EccScrubReport {
    /// Frames scanned.
    pub scanned: u32,
    /// Corrected single-bit upsets as `(far, word, bit)`.
    pub corrected: Vec<(u32, usize, u32)>,
    /// Frames with multi-bit upsets — detected, not correctable without a
    /// golden copy.
    pub uncorrectable: Vec<u32>,
    /// Time spent in the syndrome scan (readback-paced).
    pub scan_time: SimTime,
    /// The correction reconfigurations performed.
    pub repairs: Vec<UparcReport>,
}

impl EccScrubber {
    /// A scrubber over `frames` frames starting at `far`.
    #[must_use]
    pub fn new(far: u32, frames: u32) -> Self {
        EccScrubber { far, frames }
    }

    /// The protected frame range.
    #[must_use]
    pub fn range(&self) -> Range<u32> {
        self.far..self.far + self.frames
    }

    /// Scans by syndrome, corrects located single-bit upsets by rewriting
    /// the corrected frames through a partial bitstream. The scan reads
    /// the partition in place and copies only a frame it corrects, so a
    /// clean pass allocates nothing of its own.
    ///
    /// # Errors
    ///
    /// Readback or reconfiguration errors.
    pub fn scrub(&self, uparc: &mut UParc) -> Result<EccScrubReport, UparcError> {
        use uparc_fpga::ecc::EccStatus;
        // The readback paces the scan; the syndrome is checked on the
        // frames in place, where no fault can land after the readback.
        let t0 = uparc.now();
        uparc.readback(self.far, self.frames)?;
        let scan_time = uparc.now() - t0;
        let memory = uparc.icap().config_memory();

        let mut corrected = Vec::new();
        let mut uncorrectable = Vec::new();
        let mut fixes: Vec<(u32, Vec<u32>)> = Vec::new();
        for far in self.range() {
            match memory.ecc_check(far)? {
                EccStatus::Clean => {}
                EccStatus::SingleBit { word, bit } => {
                    let mut frame = memory.read_frame(far)?.to_vec();
                    frame[word] ^= 1 << bit;
                    corrected.push((far, word, bit));
                    fixes.push((far, frame));
                }
                EccStatus::MultiBit => uncorrectable.push(far),
            }
        }
        let mut repairs = Vec::new();
        for (far, frame) in fixes {
            let bs = PartialBitstream::build(uparc.device(), far, &frame);
            repairs.push(uparc.reconfigure_bitstream(&bs, Mode::Auto)?);
        }
        // Verify every corrected frame is clean now.
        for &(far, _, _) in &corrected {
            if uparc.icap().config_memory().ecc_check(far)? != EccStatus::Clean {
                return Err(UparcError::Compression(
                    "ecc scrub verification failed".into(),
                ));
            }
        }
        Ok(EccScrubReport {
            scanned: self.frames,
            corrected,
            uncorrectable,
            scan_time,
            repairs,
        })
    }
}

/// Groups sorted frame addresses into maximal contiguous ranges.
fn contiguous_ranges(sorted: &[u32]) -> Vec<Range<u32>> {
    let mut out: Vec<Range<u32>> = Vec::new();
    for &f in sorted {
        match out.last_mut() {
            Some(r) if r.end == f => r.end = f + 1,
            _ => out.push(f..f + 1),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_bitstream::synth::SynthProfile;
    use uparc_fpga::Device;
    use uparc_sim::time::Frequency;

    fn configured_system() -> (UParc, Scrubber) {
        let device = Device::xc5vsx50t();
        let payload = SynthProfile::dense().generate(&device, 400, 200, 5);
        let bs = PartialBitstream::build(&device, 400, &payload);
        let mut sys = UParc::builder(device).build().unwrap();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
            .unwrap();
        sys.reconfigure_bitstream(&bs, Mode::Raw).unwrap();
        let scrubber = Scrubber::capture(&mut sys, 400, 200).unwrap();
        (sys, scrubber)
    }

    #[test]
    fn clean_partition_scrubs_clean() {
        let (mut sys, scrubber) = configured_system();
        let report = scrubber.scrub(&mut sys).unwrap();
        assert_eq!(report.scanned, 200);
        assert!(report.dirty.is_empty());
        assert!(report.repairs.is_empty());
        assert!(report.scan_time > SimTime::ZERO);
    }

    #[test]
    fn single_upset_is_found_and_repaired() {
        let (mut sys, scrubber) = configured_system();
        sys.inject_upset(450, 7, 13).unwrap();
        let report = scrubber.scrub(&mut sys).unwrap();
        assert_eq!(report.dirty, vec![450]);
        assert_eq!(report.repairs.len(), 1);
        assert_eq!(report.repairs[0].bytes, 41 * 4 + 76); // 1 frame + 19-word overhead
                                                          // A second pass is clean.
        let clean = scrubber.scrub(&mut sys).unwrap();
        assert!(clean.dirty.is_empty());
    }

    #[test]
    fn scattered_upsets_repair_in_minimal_ranges() {
        let (mut sys, scrubber) = configured_system();
        for far in [410, 411, 412, 500, 599] {
            sys.inject_upset(far, 0, 0).unwrap();
        }
        let report = scrubber.scrub(&mut sys).unwrap();
        assert_eq!(report.dirty, vec![410, 411, 412, 500, 599]);
        assert_eq!(report.repairs.len(), 3, "three contiguous ranges");
        // The big range repaired 3 frames at once.
        assert!(report.repairs[0].bytes > report.repairs[1].bytes);
    }

    #[test]
    fn repair_latency_scales_inversely_with_frequency() {
        // The paper's point: faster reconfiguration = shorter outage.
        let run = |mhz: f64| {
            let (mut sys, scrubber) = configured_system();
            sys.set_reconfiguration_frequency(Frequency::from_mhz(mhz))
                .unwrap();
            for far in 420..470 {
                sys.inject_upset(far, 3, 3).unwrap();
            }
            scrubber.scrub(&mut sys).unwrap().repair_time()
        };
        let slow = run(50.0);
        let fast = run(362.5);
        assert!(
            slow.as_secs_f64() / fast.as_secs_f64() > 4.0,
            "slow {slow} vs fast {fast}"
        );
    }

    #[test]
    fn ecc_scrubber_corrects_single_bits_without_a_golden_copy() {
        let (mut sys, _) = configured_system();
        let ecc = EccScrubber::new(400, 200);
        assert_eq!(ecc.range(), 400..600);
        sys.inject_upset(470, 11, 5).unwrap();
        sys.inject_upset(530, 0, 31).unwrap();
        let report = ecc.scrub(&mut sys).unwrap();
        assert_eq!(report.scanned, 200);
        assert_eq!(report.corrected, vec![(470, 11, 5), (530, 0, 31)]);
        assert!(report.uncorrectable.is_empty());
        assert_eq!(report.repairs.len(), 2);
        // A second pass is clean.
        let clean = ecc.scrub(&mut sys).unwrap();
        assert!(clean.corrected.is_empty());
        assert!(clean.repairs.is_empty());
    }

    #[test]
    fn ecc_scrubber_escalates_multibit_upsets() {
        let (mut sys, golden) = configured_system();
        let ecc = EccScrubber::new(400, 200);
        // Two flips in one frame: beyond SECDED correction.
        sys.inject_upset(444, 1, 1).unwrap();
        sys.inject_upset(444, 2, 2).unwrap();
        let report = ecc.scrub(&mut sys).unwrap();
        assert_eq!(report.uncorrectable, vec![444]);
        assert!(report.corrected.is_empty());
        // The golden-copy scrubber handles the escalation.
        let repaired = golden.scrub(&mut sys).unwrap();
        assert_eq!(repaired.dirty, vec![444]);
        assert!(ecc.scrub(&mut sys).unwrap().uncorrectable.is_empty());
    }

    #[test]
    fn contiguous_ranges_groups_correctly() {
        assert_eq!(contiguous_ranges(&[]), Vec::<Range<u32>>::new());
        assert_eq!(contiguous_ranges(&[5]), vec![5..6]);
        assert_eq!(
            contiguous_ranges(&[1, 2, 3, 7, 9, 10]),
            vec![1..4, 7..8, 9..11]
        );
    }
}
