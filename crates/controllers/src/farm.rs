//! FaRM \[10\] — Fast Reconfiguration Manager.
//!
//! FaRM preloads the bitstream into BRAM and streams it through a FIFO
//! into the ICAP at one word per cycle. It was the fastest controller in
//! the literature before UPaRC: its vendor DMA/FIFO front-end closes
//! timing at 200 MHz ⇒ 800 MB/s (Table III).
//! The paper's critique (§II): the frequency is *fixed*, the effective
//! throughput in compressed mode varies with the bitstream's regularity,
//! and RLE saves much less storage than X-MatchPRO (Table I: 63% vs 74.2%).
//! This model stages the bitstream uncompressed.

use crate::store::BramStore;
use crate::{
    energy_uj, ControllerError, ControllerSpec, LargeBitstream, ReconfigController, ReconfigReport,
};
use uparc_bitstream::builder::{bytes_to_words, PartialBitstream};
use uparc_fpga::{Device, Icap};
use uparc_sim::fault::{FaultInjector, FaultKind};
use uparc_sim::power::calib;
use uparc_sim::time::{Frequency, SimTime};

/// FaRM data-path coefficient, mW/MHz.
const FARM_PATH_MW_PER_MHZ: f64 = 1.35;

/// The FaRM controller model.
#[derive(Debug, Clone)]
pub struct Farm {
    icap: Icap,
    store: BramStore,
    clock: Frequency,
    setup_cycles: u64,
    injector: Option<FaultInjector>,
}

impl Farm {
    /// The design's 200 MHz ceiling with 128 KB of staging BRAM.
    #[must_use]
    pub fn new(device: Device) -> Self {
        Farm {
            icap: Icap::new(device),
            store: BramStore::new(128 * 1024),
            clock: Frequency::from_mhz(200.0),
            setup_cycles: 240,
            injector: None,
        }
    }

    /// Attaches a fault injector. FaRM has no simulated clock of its own,
    /// so *every* scheduled fault it understands (staged-stream flips,
    /// transient CRC glitches) fires on the next `reconfigure` call; faults
    /// it has no hardware for are left pending. FaRM has no recovery layer
    /// either — this is the unprotected baseline a resilience campaign
    /// compares the UPaRC policy against.
    pub fn attach_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Detaches the injector, returning it (with its applied-fault log).
    pub fn detach_fault_injector(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }
}

impl ReconfigController for Farm {
    fn spec(&self) -> ControllerSpec {
        ControllerSpec {
            name: "FaRM",
            max_frequency: Frequency::from_mhz(200.0),
            large_bitstream: LargeBitstream::Extended,
        }
    }

    fn reconfigure(&mut self, bs: &PartialBitstream) -> Result<ReconfigReport, ControllerError> {
        let raw = bs.to_bytes();
        let stored_bytes = raw.len();
        if !self.store.fits(stored_bytes) {
            return Err(ControllerError::CapacityExceeded {
                required: stored_bytes,
                available: self.store.capacity_bytes(),
            });
        }
        let mut words = bytes_to_words(&raw).expect("builder output is word-aligned");
        if let Some(injector) = self.injector.as_mut() {
            let flips =
                injector.take_all_due(SimTime::MAX, |k| matches!(k, FaultKind::StagedFlip { .. }));
            for kind in flips {
                if let FaultKind::StagedFlip { word, bit } = kind {
                    // Fold into the FDRI payload (indices 14..len-5), as a
                    // flip on real staged data would land.
                    let idx = 14 + word as usize % words.len().saturating_sub(19).max(1);
                    words[idx] ^= 1 << (u32::from(bit) % 32);
                }
            }
            if injector
                .take_due(SimTime::MAX, |k| matches!(k, FaultKind::CrcTransient))
                .is_some()
            {
                self.icap.arm_transient_crc();
            }
        }
        self.icap.set_frequency(self.clock)?;
        self.icap.write_words(&words)?;

        let transfer = self.clock.time_of_cycles(words.len() as u64);
        let setup = self.clock.time_of_cycles(self.setup_cycles);
        let elapsed = setup + transfer;
        let energy = energy_uj(&[
            (calib::MANAGER_ACTIVE_WAIT_MW, elapsed),
            (FARM_PATH_MW_PER_MHZ * self.clock.as_mhz(), transfer),
        ]);
        Ok(ReconfigReport {
            controller: "FaRM",
            bytes: raw.len(),
            stored_bytes,
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
    fn bandwidth_lands_at_800_mb_s() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 700); // ~115 KB
        let mut ctrl = Farm::new(device);
        let r = ctrl.reconfigure(&bs).unwrap();
        assert!(
            (r.bandwidth_mb_s() - 800.0).abs() < 10.0,
            "{:.1} MB/s",
            r.bandwidth_mb_s()
        );
    }

    #[test]
    fn a_bitstream_past_the_staging_bram_is_refused() {
        let device = Device::xc5vsx50t();
        // ~197 KB raw does not fit the 128 KB staging BRAM.
        let bs = bitstream(&device, 1200);
        let mut ctrl = Farm::new(device);
        assert!(matches!(
            ctrl.reconfigure(&bs),
            Err(ControllerError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn farm_is_fastest_baseline() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 600);
        let mut farm = Farm::new(device.clone());
        let rf = farm.reconfigure(&bs).unwrap();
        let mut xps = crate::xps_hwicap::XpsHwicap::new(device);
        let rx = xps.reconfigure(&bs).unwrap();
        assert!(rf.bandwidth_mb_s() > 50.0 * rx.bandwidth_mb_s());
    }

    #[test]
    fn injected_staged_flip_fails_without_recovery() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 40);
        let mut ctrl = Farm::new(device);
        let mut inj = FaultInjector::empty();
        inj.schedule(SimTime::ZERO, FaultKind::StagedFlip { word: 17, bit: 5 });
        ctrl.attach_fault_injector(inj);
        // The baseline has no healing: the corrupted stream errors out and
        // a bare retry (fault consumed) succeeds.
        assert!(matches!(
            ctrl.reconfigure(&bs),
            Err(ControllerError::Fpga(_))
        ));
        let log = ctrl.detach_fault_injector().unwrap();
        assert_eq!(log.log().len(), 1);
        assert!(!log.log()[0].recovered);
    }

    #[test]
    fn frames_land_in_config_memory() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 40);
        let mut ctrl = Farm::new(device);
        ctrl.reconfigure(&bs).unwrap();
        assert_eq!(ctrl.icap().frames_committed(), 40);
    }
}
