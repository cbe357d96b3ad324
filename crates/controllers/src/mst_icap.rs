//! MST_ICAP \[9\] — DMA master fetching the bitstream from DDR2 SDRAM.
//!
//! Same DMA front-end as BRAM_HWICAP, but the bitstream lives in DDR2: the
//! capacity problem disappears (hundreds of MB, `+++` in Table III) at the
//! price of memory-controller efficiency — burst gaps cap the effective
//! fetch rate at ≈235 MB/s at the 100 MHz system clock, well below the
//! BRAM design's 371 MB/s. This is the trade the UPaRC paper's compressed
//! mode dissolves (large bitstreams *and* on-chip speed).

use crate::store::Ddr2;
use crate::{
    energy_uj, ControllerError, ControllerSpec, LargeBitstream, ReconfigController, ReconfigReport,
};
use uparc_bitstream::builder::PartialBitstream;
use uparc_fpga::{Device, Icap};
use uparc_sim::power::calib;
use uparc_sim::time::Frequency;

/// DMA + DDR2 I/O dynamic coefficient, mW/MHz (off-chip I/O is expensive).
const DDR2_PATH_MW_PER_MHZ: f64 = 2.1;

/// The MST_ICAP controller model.
#[derive(Debug, Clone)]
pub struct MstIcap {
    icap: Icap,
    ddr2: Ddr2,
    clock: Frequency,
    setup_cycles: u64,
}

impl MstIcap {
    /// The published configuration: 100 MHz system clock, MIG-style DDR2
    /// controller.
    #[must_use]
    pub fn new(device: Device) -> Self {
        MstIcap {
            icap: Icap::new(device),
            ddr2: Ddr2::ml506_mig(),
            clock: Frequency::from_mhz(100.0),
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

impl ReconfigController for MstIcap {
    fn spec(&self) -> ControllerSpec {
        ControllerSpec {
            name: "MST_ICAP",
            max_frequency: Frequency::from_mhz(120.0),
            large_bitstream: LargeBitstream::Unlimited,
        }
    }

    fn reconfigure(&mut self, bs: &PartialBitstream) -> Result<ReconfigReport, ControllerError> {
        let words = bs.words();
        self.icap.set_frequency(self.clock)?;
        self.icap.write_sealed(bs.sealed())?;

        // The ICAP write is pipelined behind the DDR2 fetch; the fetch is
        // strictly slower, so it sets the pace.
        let transfer = self.ddr2.fetch_time(words.len() as u64, self.clock);
        let setup = self.clock.time_of_cycles(self.setup_cycles);
        let elapsed = setup + transfer;
        let energy = energy_uj(&[
            (calib::MANAGER_ACTIVE_WAIT_MW, elapsed),
            (DDR2_PATH_MW_PER_MHZ * self.clock.as_mhz(), transfer),
        ]);
        Ok(ReconfigReport {
            controller: "MST_ICAP",
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

    fn bitstream(device: &Device, frames: u32) -> PartialBitstream {
        let payload = SynthProfile::dense().generate(device, 0, frames, 3);
        PartialBitstream::build(device, 0, &payload)
    }

    #[test]
    fn bandwidth_lands_at_235_mb_s() {
        let device = Device::xc4vfx60();
        let bs = bitstream(&device, 1500); // ~246 KB — DDR2 has room
        let mut ctrl = MstIcap::new(device);
        let r = ctrl.reconfigure(&bs).unwrap();
        assert!(
            (r.bandwidth_mb_s() - 235.0).abs() < 5.0,
            "{:.1} MB/s",
            r.bandwidth_mb_s()
        );
    }

    #[test]
    fn slower_than_bram_hwicap_but_unlimited() {
        let device = Device::xc4vfx60();
        let bs = bitstream(&device, 600);
        let mut mst = MstIcap::new(device.clone());
        let mut bram = crate::bram_hwicap::BramHwicap::new(device);
        let rm = mst.reconfigure(&bs).unwrap();
        let rb = bram.reconfigure(&bs).unwrap();
        assert!(rm.bandwidth_mb_s() < rb.bandwidth_mb_s());
        assert!(mst.spec().large_bitstream > bram.spec().large_bitstream);
    }

    #[test]
    fn bandwidth_scales_with_clock_up_to_limit() {
        let device = Device::xc4vfx60();
        let bs = bitstream(&device, 600);
        let mut ctrl = MstIcap::new(device);
        let r100 = ctrl.reconfigure(&bs).unwrap();
        ctrl.set_clock(Frequency::from_mhz(120.0)).unwrap();
        let r120 = ctrl.reconfigure(&bs).unwrap();
        let ratio = r120.bandwidth_mb_s() / r100.bandwidth_mb_s();
        assert!((ratio - 1.2).abs() < 0.02, "ratio {ratio:.3}");
    }

    #[test]
    fn frames_land_in_config_memory() {
        let device = Device::xc4vfx60();
        let bs = bitstream(&device, 30);
        let mut ctrl = MstIcap::new(device);
        ctrl.reconfigure(&bs).unwrap();
        assert_eq!(ctrl.icap().frames_committed(), 30);
    }
}
