//! xps_hwicap \[6\] — the vendor's processor-driven reconfiguration
//! controller.
//!
//! A MicroBlaze copies the bitstream word by word from processor-cached
//! memory into the HWICAP write FIFO over the peripheral bus, polling
//! status along the way. Per-word driver cycles are the bottleneck:
//!
//! * **unoptimized driver** (~267 cycles/word at 100 MHz): ≈1.5 MB/s — the
//!   configuration the paper measures for its §V energy comparison
//!   (30 µJ/KB);
//! * **cache-resident, optimized driver** (~28 cycles/word): ≈14.5 MB/s —
//!   the best published figure \[9\], used in Table III.

use crate::{
    energy_uj, ControllerError, ControllerSpec, LargeBitstream, ReconfigController, ReconfigReport,
};
use uparc_bitstream::builder::PartialBitstream;
use uparc_fpga::{Device, Icap};
use uparc_sim::power::calib;
use uparc_sim::time::{Frequency, SimTime};

/// The xps_hwicap controller model.
#[derive(Debug, Clone)]
pub struct XpsHwicap {
    icap: Icap,
    /// MicroBlaze driver cost per 32-bit word.
    cycles_per_word: u64,
    /// Processor clock.
    mgr_clock: Frequency,
}

impl XpsHwicap {
    /// Cache-resident source with the optimized driver (Table III row:
    /// 14.5 MB/s).
    #[must_use]
    pub fn new(device: Device) -> Self {
        XpsHwicap {
            icap: Icap::new(device),
            cycles_per_word: 28,
            mgr_clock: Frequency::from_mhz(100.0),
        }
    }

    /// The unoptimized driver of the paper's §V measurement (≈1.5 MB/s,
    /// ≈30 µJ/KB).
    #[must_use]
    pub fn unoptimized(device: Device) -> Self {
        XpsHwicap {
            cycles_per_word: 267,
            ..XpsHwicap::new(device)
        }
    }

    /// The driver cost per word currently modeled.
    #[must_use]
    pub fn cycles_per_word(&self) -> u64 {
        self.cycles_per_word
    }
}

impl ReconfigController for XpsHwicap {
    fn spec(&self) -> ControllerSpec {
        ControllerSpec {
            name: "xps_hwicap",
            max_frequency: Frequency::from_mhz(120.0),
            large_bitstream: LargeBitstream::Unlimited,
        }
    }

    fn reconfigure(&mut self, bs: &PartialBitstream) -> Result<ReconfigReport, ControllerError> {
        let words = bs.words();
        self.icap.set_frequency(self.mgr_clock)?;
        self.icap.write_sealed(bs.sealed())?;

        let elapsed = self
            .mgr_clock
            .time_of_cycles(words.len() as u64 * self.cycles_per_word);
        // The MicroBlaze runs the copy loop for the whole duration; the
        // ICAP itself is active only one cycle in `cycles_per_word`.
        let icap_duty = 1.0 / self.cycles_per_word as f64;
        let energy = energy_uj(&[
            (calib::MANAGER_COPY_MW, elapsed),
            (
                calib::RECONFIG_PATH_MW_PER_MHZ * self.mgr_clock.as_mhz() * icap_duty,
                elapsed,
            ),
        ]);
        Ok(ReconfigReport {
            controller: "xps_hwicap",
            bytes: bs.size_bytes(),
            stored_bytes: bs.size_bytes(),
            elapsed,
            control_overhead: SimTime::ZERO,
            frequency: self.mgr_clock,
            energy_uj: energy,
        })
    }

    fn icap(&self) -> &Icap {
        &self.icap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_bitstream::synth::SynthProfile;

    fn bitstream(frames: u32) -> (Device, PartialBitstream) {
        let device = Device::xc5vsx50t();
        let payload = SynthProfile::dense().generate(&device, 0, frames, 3);
        let bs = PartialBitstream::build(&device, 0, &payload);
        (device, bs)
    }

    #[test]
    fn optimized_driver_hits_14_5_mb_s() {
        let (device, bs) = bitstream(600);
        let mut ctrl = XpsHwicap::new(device);
        let r = ctrl.reconfigure(&bs).unwrap();
        assert!(
            (r.bandwidth_mb_s() - 14.5).abs() < 0.5,
            "{:.2} MB/s",
            r.bandwidth_mb_s()
        );
        assert_eq!(ctrl.icap().frames_committed(), 600);
    }

    #[test]
    fn unoptimized_driver_hits_1_5_mb_s_and_30_uj_per_kb() {
        let (device, bs) = bitstream(600);
        let mut ctrl = XpsHwicap::unoptimized(device);
        let r = ctrl.reconfigure(&bs).unwrap();
        assert!(
            (r.bandwidth_mb_s() - 1.5).abs() < 0.05,
            "{:.2} MB/s",
            r.bandwidth_mb_s()
        );
        // §V: "30 µJ/KB of bitstream".
        assert!(
            (r.uj_per_kb() - 30.0).abs() < 2.0,
            "{:.2} µJ/KB",
            r.uj_per_kb()
        );
    }

    #[test]
    fn configuration_memory_is_actually_written() {
        let (device, bs) = bitstream(5);
        let expected = bs.words().to_vec();
        let mut ctrl = XpsHwicap::new(device);
        ctrl.reconfigure(&bs).unwrap();
        // The first written frame appears in configuration memory.
        let fw = ctrl.icap().config_memory().frame_words();
        let frame = ctrl.icap().config_memory().read_frame(0).unwrap();
        // The builder's preamble is 14 words (dummy, sync, noop, RCRC,
        // noop, IDCODE, WCFG, FAR, FDRI type-1 + type-2); payload follows.
        let payload_start = 14;
        assert_eq!(frame, &expected[payload_start..payload_start + fw]);
    }

    #[test]
    fn spec_matches_table3_row() {
        let ctrl = XpsHwicap::new(Device::xc5vsx50t());
        let spec = ctrl.spec();
        assert_eq!(spec.name, "xps_hwicap");
        assert_eq!(spec.large_bitstream, LargeBitstream::Unlimited);
        assert_eq!(spec.max_frequency, Frequency::from_mhz(120.0));
    }
}
