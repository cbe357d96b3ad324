//! # uparc-controllers — the baseline reconfiguration controllers
//!
//! Table III of the paper compares UPaRC against five controllers from the
//! literature. This crate reimplements all five as behavioural models, each
//! with its published bottleneck:
//!
//! | Controller | Bottleneck | Paper BW | Max freq |
//! |---|---|---|---|
//! | [`xps_hwicap::XpsHwicap`] | processor-driven word copy (per-word driver cycles) | 14.5 MB/s (cache) | 120 MHz |
//! | [`mst_icap::MstIcap`] | DDR2 fetch efficiency | 235 MB/s | 120 MHz |
//! | [`flashcap::FlashCap`] | streaming X-MatchPRO decompressor | 358 MB/s | 120 MHz |
//! | [`bram_hwicap::BramHwicap`] | vendor DMA burst overhead | 371 MB/s | 120 MHz |
//! | [`farm::Farm`] | vendor DMA 200 MHz ceiling | 800 MB/s | 200 MHz |
//!
//! Every controller implements [`ReconfigController`]: it pushes a real
//! configuration word stream through a real [`uparc_fpga::Icap`] (so the
//! configuration memory is genuinely written and CRC-checked) while a cycle
//! model accounts the elapsed time and a calibrated power model accounts
//! the energy.
//!
//! # Example
//!
//! ```
//! use uparc_controllers::{farm::Farm, ReconfigController};
//! use uparc_bitstream::{builder::PartialBitstream, synth::SynthProfile};
//! use uparc_fpga::Device;
//!
//! let device = Device::xc5vsx50t();
//! let payload = SynthProfile::dense().generate(&device, 0, 100, 1);
//! let bs = PartialBitstream::build(&device, 0, &payload);
//! let mut farm = Farm::new(device);
//! let report = farm.reconfigure(&bs)?;
//! // FaRM saturates at ~800 MB/s.
//! assert!(report.bandwidth_mb_s() > 700.0);
//! # Ok::<(), uparc_controllers::ControllerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod bram_hwicap;
pub mod farm;
pub mod flashcap;
pub mod mst_icap;
pub mod store;
pub mod xps_hwicap;

use std::fmt;
use uparc_bitstream::builder::PartialBitstream;
use uparc_fpga::{FpgaError, Icap};
use uparc_sim::time::{Frequency, SimTime};

/// Large-bitstream handling capability, in the paper's `+++`/`++`/`-`
/// notation (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LargeBitstream {
    /// `-` — limited to what fits raw in on-chip BRAM.
    Limited,
    /// `++` — extended by compression (or sizeable off-chip RAM).
    Extended,
    /// `+++` — effectively unlimited (external non-volatile storage).
    Unlimited,
}

impl fmt::Display for LargeBitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LargeBitstream::Limited => "-",
            LargeBitstream::Extended => "++",
            LargeBitstream::Unlimited => "+++",
        };
        f.write_str(s)
    }
}

/// Static characteristics of a controller (the non-measured Table III
/// columns).
#[derive(Debug, Clone)]
pub struct ControllerSpec {
    /// Controller name as in Table III.
    pub name: &'static str,
    /// Maximum operating frequency of the controller design.
    pub max_frequency: Frequency,
    /// Large-bitstream capability class.
    pub large_bitstream: LargeBitstream,
}

/// Outcome of one reconfiguration run.
#[derive(Debug, Clone)]
pub struct ReconfigReport {
    /// Controller name.
    pub controller: &'static str,
    /// Size of the (uncompressed) configuration stream delivered to ICAP.
    pub bytes: usize,
    /// Bytes occupied in the controller's staging memory (differs from
    /// `bytes` when compression is used).
    pub stored_bytes: usize,
    /// Total elapsed time from "Start" to "Finish".
    pub elapsed: SimTime,
    /// Control/setup share of `elapsed` (manager overhead).
    pub control_overhead: SimTime,
    /// Clock the transfer ran at.
    pub frequency: Frequency,
    /// Total energy above idle spent on the reconfiguration, µJ.
    pub energy_uj: f64,
}

impl ReconfigReport {
    /// Effective reconfiguration bandwidth in MB/s (paper convention:
    /// decimal megabytes of *configuration data* per second).
    #[must_use]
    pub fn bandwidth_mb_s(&self) -> f64 {
        self.bytes as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Energy efficiency in µJ per KiB of configuration data (the §V unit).
    #[must_use]
    pub fn uj_per_kb(&self) -> f64 {
        self.energy_uj / (self.bytes as f64 / 1024.0)
    }
}

/// Errors from the controller models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControllerError {
    /// The bitstream does not fit the controller's staging memory.
    CapacityExceeded {
        /// Required bytes.
        required: usize,
        /// Available bytes.
        available: usize,
    },
    /// A requested clock exceeds the controller's design limit.
    FrequencyTooHigh {
        /// Requested frequency.
        requested: Frequency,
        /// The controller's limit.
        max: Frequency,
    },
    /// The configuration port rejected the stream.
    Fpga(FpgaError),
    /// Compression round-trip failed (should never happen — indicates a
    /// corrupt staging memory).
    Compression(String),
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::CapacityExceeded {
                required,
                available,
            } => {
                write!(
                    f,
                    "bitstream of {required} bytes exceeds {available}-byte storage"
                )
            }
            ControllerError::FrequencyTooHigh { requested, max } => {
                write!(f, "requested {requested} exceeds controller limit {max}")
            }
            ControllerError::Fpga(e) => write!(f, "configuration port error: {e}"),
            ControllerError::Compression(s) => write!(f, "compression error: {s}"),
        }
    }
}

impl std::error::Error for ControllerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ControllerError::Fpga(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FpgaError> for ControllerError {
    fn from(e: FpgaError) -> Self {
        ControllerError::Fpga(e)
    }
}

/// A reconfiguration controller: stages a partial bitstream and drives it
/// into the ICAP, reporting time/bandwidth/energy.
pub trait ReconfigController {
    /// Static characteristics (Table III columns).
    fn spec(&self) -> ControllerSpec;

    /// Performs a full reconfiguration with the controller's default
    /// operating point.
    ///
    /// # Errors
    ///
    /// [`ControllerError`] on capacity/frequency/protocol failures.
    fn reconfigure(&mut self, bs: &PartialBitstream) -> Result<ReconfigReport, ControllerError>;

    /// The ICAP (and behind it the configuration memory) this controller
    /// drives — lets tests verify the reconfiguration actually landed.
    fn icap(&self) -> &Icap;
}

/// Integrates a set of `(power-mW, duration)` phases into µJ.
///
/// Controllers report energy *above idle*, matching how the paper extracts
/// reconfiguration energy from the oscilloscope traces.
#[must_use]
pub fn energy_uj(phases: &[(f64, SimTime)]) -> f64 {
    phases
        .iter()
        .map(|&(mw, t)| mw * t.as_secs_f64() * 1e3)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_bitstream_ordering_and_symbols() {
        assert!(LargeBitstream::Limited < LargeBitstream::Extended);
        assert!(LargeBitstream::Extended < LargeBitstream::Unlimited);
        assert_eq!(LargeBitstream::Limited.to_string(), "-");
        assert_eq!(LargeBitstream::Extended.to_string(), "++");
        assert_eq!(LargeBitstream::Unlimited.to_string(), "+++");
    }

    #[test]
    fn report_derives_bandwidth_and_efficiency() {
        let r = ReconfigReport {
            controller: "test",
            bytes: 216_500,
            stored_bytes: 216_500,
            elapsed: SimTime::from_us(550),
            control_overhead: SimTime::from_us(1),
            frequency: Frequency::from_mhz(100.0),
            energy_uj: 143.0,
        };
        assert!((r.bandwidth_mb_s() - 216_500.0 / 550e-6 / 1e6).abs() < 1e-9);
        assert!((r.uj_per_kb() - 143.0 / (216_500.0 / 1024.0)).abs() < 1e-9);
    }

    #[test]
    fn controller_error_display() {
        let e = ControllerError::CapacityExceeded {
            required: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10"));
        let e: ControllerError = FpgaError::NotSynced.into();
        assert!(e.to_string().contains("sync"));
    }
}
