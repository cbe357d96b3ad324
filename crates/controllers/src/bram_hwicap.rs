//! BRAM_HWICAP \[9\] — vendor-DMA burst transfer from on-chip BRAM.
//!
//! The fastest of the \[9\] designs: the bitstream is preloaded into BRAM and
//! a Xilinx DMA engine bursts it into the ICAP at the system clock. Two
//! structural limits, both from reusing the vendor DMA (paper §III-B):
//! the design closes timing only up to ~120 MHz, and bursts pay a
//! per-burst bus cycle plus a fixed setup, capping the measured bandwidth
//! at ≈371 MB/s (93% of the 100 MHz theoretical 400 MB/s). Storage is
//! limited to on-chip BRAM with no compression (`-` in Table III).

use crate::store::BramStore;
use crate::{
    energy_uj, ControllerError, ControllerSpec, LargeBitstream, ReconfigController, ReconfigReport,
};
use uparc_bitstream::builder::PartialBitstream;
use uparc_fpga::{Device, Icap};
use uparc_sim::power::calib;
use uparc_sim::time::Frequency;

/// Dynamic-power coefficient of the vendor DMA + bus path, mW/MHz (larger
/// than UReC's 1.09 — the engine is "very large", §III-B).
const DMA_PATH_MW_PER_MHZ: f64 = 1.55;

/// The BRAM_HWICAP controller model.
#[derive(Debug, Clone)]
pub struct BramHwicap {
    icap: Icap,
    store: BramStore,
    clock: Frequency,
    /// Bus words per DMA burst.
    burst_words: u64,
    /// Bus cycles consumed per burst (burst_words + arbitration).
    burst_cycles: u64,
    /// Fixed DMA descriptor setup cycles per transfer.
    setup_cycles: u64,
}

impl BramHwicap {
    /// The published configuration on its Virtex-4 platform: 100 MHz system
    /// clock, 128 KB of staging BRAM, 16-word bursts.
    #[must_use]
    pub fn new(device: Device) -> Self {
        BramHwicap {
            icap: Icap::new(device),
            store: BramStore::new(128 * 1024),
            clock: Frequency::from_mhz(100.0),
            burst_words: 16,
            burst_cycles: 17,
            setup_cycles: 400,
        }
    }

    /// Runs the design at a different system clock.
    ///
    /// # Errors
    ///
    /// [`ControllerError::FrequencyTooHigh`] above the 120 MHz design limit.
    pub fn set_clock(&mut self, f: Frequency) -> Result<(), ControllerError> {
        let max = self.spec().max_frequency;
        if f > max {
            return Err(ControllerError::FrequencyTooHigh { requested: f, max });
        }
        self.clock = f;
        Ok(())
    }
}

impl ReconfigController for BramHwicap {
    fn spec(&self) -> ControllerSpec {
        ControllerSpec {
            name: "BRAM_HWICAP",
            max_frequency: Frequency::from_mhz(120.0),
            large_bitstream: LargeBitstream::Limited,
        }
    }

    fn reconfigure(&mut self, bs: &PartialBitstream) -> Result<ReconfigReport, ControllerError> {
        if !self.store.fits(bs.size_bytes()) {
            return Err(ControllerError::CapacityExceeded {
                required: bs.size_bytes(),
                available: self.store.capacity_bytes(),
            });
        }
        let words = bs.words();
        self.icap.set_frequency(self.clock)?;
        self.icap.write_sealed(bs.sealed())?;

        let n = words.len() as u64;
        let bursts = n.div_ceil(self.burst_words);
        let transfer_cycles = bursts * self.burst_cycles;
        let transfer = self.clock.time_of_cycles(transfer_cycles);
        let setup = self.clock.time_of_cycles(self.setup_cycles);
        let elapsed = setup + transfer;
        let energy = energy_uj(&[
            (calib::MANAGER_ACTIVE_WAIT_MW, elapsed),
            (DMA_PATH_MW_PER_MHZ * self.clock.as_mhz(), transfer),
        ]);
        Ok(ReconfigReport {
            controller: "BRAM_HWICAP",
            bytes: bs.size_bytes(),
            stored_bytes: bs.size_bytes(),
            elapsed,
            control_overhead: setup,
            frequency: self.clock,
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
    use uparc_sim::time::SimTime;

    fn bitstream(device: &Device, frames: u32) -> PartialBitstream {
        let payload = SynthProfile::dense().generate(device, 0, frames, 3);
        PartialBitstream::build(device, 0, &payload)
    }

    #[test]
    fn bandwidth_lands_at_371_mb_s() {
        // Its native Virtex-4 platform, ~100 KB bitstream.
        let device = Device::xc4vfx60();
        let bs = bitstream(&device, 600);
        let mut ctrl = BramHwicap::new(device);
        let r = ctrl.reconfigure(&bs).unwrap();
        assert!(
            (r.bandwidth_mb_s() - 371.0).abs() < 6.0,
            "{:.1} MB/s",
            r.bandwidth_mb_s()
        );
    }

    #[test]
    fn oversized_bitstream_rejected() {
        let device = Device::xc4vfx60();
        let bs = bitstream(&device, 900); // ~148 KB > 128 KB store
        let mut ctrl = BramHwicap::new(device);
        assert!(matches!(
            ctrl.reconfigure(&bs),
            Err(ControllerError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn clock_limit_enforced() {
        let mut ctrl = BramHwicap::new(Device::xc4vfx60());
        assert!(ctrl.set_clock(Frequency::from_mhz(120.0)).is_ok());
        assert!(matches!(
            ctrl.set_clock(Frequency::from_mhz(200.0)),
            Err(ControllerError::FrequencyTooHigh { .. })
        ));
    }

    #[test]
    fn setup_shrinks_relative_share_with_size() {
        let device = Device::xc4vfx60();
        let mut ctrl = BramHwicap::new(device.clone());
        let small = ctrl.reconfigure(&bitstream(&device, 20)).unwrap();
        let large = ctrl.reconfigure(&bitstream(&device, 700)).unwrap();
        let share = |r: &ReconfigReport| r.control_overhead.as_secs_f64() / r.elapsed.as_secs_f64();
        assert!(share(&small) > share(&large));
        assert_eq!(small.control_overhead, SimTime::from_us(4));
    }

    #[test]
    fn frames_land_in_config_memory() {
        let device = Device::xc4vfx60();
        let bs = bitstream(&device, 50);
        let mut ctrl = BramHwicap::new(device);
        ctrl.reconfigure(&bs).unwrap();
        assert_eq!(ctrl.icap().frames_committed(), 50);
    }
}
