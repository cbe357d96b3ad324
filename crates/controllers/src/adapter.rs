//! Adapter exposing UPaRC through the common [`ReconfigController`] trait,
//! so the Table III harness (and downstream users) can sweep all seven
//! controllers uniformly.
//!
//! The two Table III instances are provided as constructors:
//! [`UparcController::uparc_i`] (preloading without compression, clocked at
//! the family's ceiling — 362.5 MHz on Virtex-5) and
//! [`UparcController::uparc_ii`] (preloading with compression, clocked at
//! the 255 MHz compressed-datapath ceiling).

use crate::{ControllerError, ControllerSpec, LargeBitstream, ReconfigController, ReconfigReport};
use uparc_bitstream::builder::PartialBitstream;
use uparc_core::uparc::{Mode, Packed, UParc, COMPRESSED_MODE_MAX};
use uparc_core::UparcError;
use uparc_fpga::{Device, Icap};
use uparc_sim::time::Frequency;

/// UPaRC wrapped as a [`ReconfigController`] with a fixed operating mode.
///
/// The controller decides a bitstream's staging once ([`Mode::decide`])
/// and keeps a packed decision: reconfiguring the same words again stages
/// the kept payload, with no encode and no round-trip decode.
#[derive(Debug)]
pub struct UparcController {
    system: UParc,
    /// The requested staging mode.
    mode: Mode,
    /// The last packed decision, reused while its source is the
    /// bitstream reconfigured.
    packed: Option<Packed>,
    name: &'static str,
    max_frequency: Frequency,
    large: LargeBitstream,
}

impl UparcController {
    /// `UPaRC_i` — preloading without compression at the family ceiling
    /// (1.433 GB/s on Virtex-5).
    ///
    /// # Errors
    ///
    /// Propagates system construction/retune failures.
    pub fn uparc_i(device: Device) -> Result<Self, UparcError> {
        let family = device.family();
        let cap = family
            .icap_overclock_limit()
            .min(family.bram_overclock_limit());
        let mut system = UParc::builder(device).build()?;
        let f = system.set_reconfiguration_frequency(cap)?;
        Ok(UparcController {
            system,
            mode: Mode::Raw,
            packed: None,
            name: "UPaRC_i",
            max_frequency: f,
            large: LargeBitstream::Limited,
        })
    }

    /// `UPaRC_ii` — preloading with compression at the 255 MHz compressed-
    /// datapath ceiling (decompressor-paced, ≈1.0 GB/s).
    ///
    /// # Errors
    ///
    /// Propagates system construction/retune failures.
    pub fn uparc_ii(device: Device) -> Result<Self, UparcError> {
        let mut system = UParc::builder(device).build()?;
        let f = system.set_reconfiguration_frequency(Frequency::from_mhz(COMPRESSED_MODE_MAX))?;
        Ok(UparcController {
            system,
            mode: Mode::Compressed,
            packed: None,
            name: "UPaRC_ii",
            max_frequency: f,
            large: LargeBitstream::Extended,
        })
    }

    /// The wrapped system (e.g. for power traces).
    #[must_use]
    pub fn system(&self) -> &UParc {
        &self.system
    }
}

impl From<UparcError> for ControllerError {
    fn from(e: UparcError) -> Self {
        match e {
            UparcError::BramCapacity {
                required,
                available,
            }
            | UparcError::RawTooLarge {
                required,
                available,
            } => ControllerError::CapacityExceeded {
                required,
                available,
            },
            UparcError::Frequency { requested, max, .. } => {
                ControllerError::FrequencyTooHigh { requested, max }
            }
            UparcError::Fpga(e) => ControllerError::Fpga(e),
            other => ControllerError::Compression(other.to_string()),
        }
    }
}

impl ReconfigController for UparcController {
    fn spec(&self) -> ControllerSpec {
        ControllerSpec {
            name: self.name,
            max_frequency: self.max_frequency,
            large_bitstream: self.large,
        }
    }

    fn reconfigure(&mut self, bs: &PartialBitstream) -> Result<ReconfigReport, ControllerError> {
        let mode = match &self.packed {
            Some(packed) if packed.source().same_words(bs) => Mode::Packed(packed.clone()),
            _ => {
                let mode = self.mode.clone().decide(
                    bs,
                    self.system.bram().capacity_bytes(),
                    self.system.decompressor().algorithm(),
                )?;
                if let Mode::Packed(packed) = &mode {
                    self.packed = Some(packed.clone());
                }
                mode
            }
        };
        let report = self.system.reconfigure_bitstream(bs, mode)?;
        Ok(ReconfigReport {
            controller: self.name,
            bytes: report.bytes,
            stored_bytes: report.stored_bytes,
            elapsed: report.elapsed(),
            control_overhead: report.control_overhead,
            frequency: report.frequency,
            energy_uj: report.energy_uj,
        })
    }

    fn icap(&self) -> &Icap {
        self.system.icap()
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
    fn uparc_i_tops_table3() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 1540); // ≈247 KB
        let mut ctrl = UparcController::uparc_i(device).unwrap();
        let r = ctrl.reconfigure(&bs).unwrap();
        assert!(
            (r.bandwidth_mb_s() - 1433.0).abs() < 15.0,
            "{:.0}",
            r.bandwidth_mb_s()
        );
        assert_eq!(ctrl.spec().max_frequency, Frequency::from_mhz(362.5));
    }

    #[test]
    fn uparc_ii_is_the_compressed_row() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 1300);
        let mut ctrl = UparcController::uparc_ii(device).unwrap();
        let r = ctrl.reconfigure(&bs).unwrap();
        assert!(r.stored_bytes < r.bytes / 2);
        assert!(r.bandwidth_mb_s() > 900.0, "{:.0}", r.bandwidth_mb_s());
        assert_eq!(ctrl.spec().large_bitstream, LargeBitstream::Extended);
    }

    #[test]
    fn uparc_ii_decides_a_bitstream_once() {
        let device = Device::xc5vsx50t();
        let a = bitstream(&device, 40);
        let b = PartialBitstream::build(
            &device,
            0,
            &SynthProfile::dense().generate(&device, 0, 40, 4),
        );
        let mut ctrl = UparcController::uparc_ii(device.clone()).unwrap();
        let payload = |ctrl: &UparcController| ctrl.packed.as_ref().map(|p| p.bytes().as_ptr());
        let first = ctrl.reconfigure(&a).unwrap();
        let kept = payload(&ctrl).expect("UPaRC_ii keeps its packed decision");
        // The same words again, from another allocation too: the kept
        // payload stages, not a fresh encoding of it.
        let rebuilt = PartialBitstream::build(&device, 0, a.payload());
        for bs in [&a, &rebuilt] {
            let again = ctrl.reconfigure(bs).unwrap();
            assert_eq!(payload(&ctrl), Some(kept));
            assert_eq!(again.stored_bytes, first.stored_bytes);
            assert_eq!(again.elapsed, first.elapsed);
            assert_eq!(again.energy_uj.to_bits(), first.energy_uj.to_bits());
        }
        // Another bitstream replaces the decision.
        ctrl.reconfigure(&b).unwrap();
        let replaced = ctrl.packed.as_ref().expect("decided");
        assert!(replaced.source().same_words(&b));
        // UPaRC_i stages raw and keeps nothing.
        let mut raw = UparcController::uparc_i(device).unwrap();
        raw.reconfigure(&a).unwrap();
        assert!(raw.packed.is_none());
    }

    #[test]
    fn every_table3_controller_fits_one_vec() {
        // The point of the adapter: heterogeneous sweep over the trait.
        let v5 = Device::xc5vsx50t;
        let mut all: Vec<Box<dyn ReconfigController>> = vec![
            Box::new(crate::xps_hwicap::XpsHwicap::new(v5())),
            Box::new(crate::mst_icap::MstIcap::new(v5())),
            Box::new(crate::flashcap::FlashCap::new(v5())),
            Box::new(crate::bram_hwicap::BramHwicap::new(v5())),
            Box::new(crate::farm::Farm::new(v5())),
            Box::new(UparcController::uparc_ii(v5()).unwrap()),
            Box::new(UparcController::uparc_i(v5()).unwrap()),
        ];
        let bs = bitstream(&v5(), 500); // ~82 KB fits every store
        let mut last_bw = 0.0;
        for ctrl in &mut all {
            let r = ctrl.reconfigure(&bs).unwrap();
            assert!(
                r.bandwidth_mb_s() > last_bw,
                "{} ({:.1} MB/s) must beat the previous row ({last_bw:.1})",
                r.controller,
                r.bandwidth_mb_s()
            );
            last_bw = r.bandwidth_mb_s();
        }
    }

    #[test]
    fn error_conversion_maps_capacity() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 2200); // ≈361 KB, too big raw
        let mut ctrl = UparcController::uparc_i(device).unwrap();
        assert!(matches!(
            ctrl.reconfigure(&bs),
            Err(ControllerError::CapacityExceeded { .. })
        ));
    }
}
