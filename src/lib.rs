//! # uparc-repro — umbrella crate for the UPaRC reproduction
//!
//! A from-scratch Rust reproduction of *"UPaRC — Ultra-fast power-aware
//! reconfiguration controller"* (Bonamy, Pham, Pillement, Chillet —
//! DATE 2012), built on a deterministic, cycle-accurate simulation of the
//! FPGA substrate. This crate re-exports the workspace crates under stable
//! module names so the examples and integration tests use one import root;
//! library users can equally depend on the individual crates.
//!
//! * [`sim`] — time/clocks/events/power substrate.
//! * [`fpga`] — ICAP, configuration memory, BRAM, DCM/DRP, ECC, frame windows.
//! * [`bitstream`] — `.bit` container, stream builder/parser, synthetic
//!   workload generator.
//! * [`compress`] — the seven Table I codecs + hardware decompressor
//!   models.
//! * [`controllers`] — the five Table III baselines + the UPaRC adapter.
//! * [`core`] — UPaRC itself: UReC, DyCloGen, Manager, policies, scrubbing,
//!   the global optimizer.
//! * [`serve`] — the multi-tenant reconfiguration service: typed
//!   admission, power-budgeted per-region scheduling, workload generator.
//! * [`fleet`] — sharded rack-scale serving: hierarchical power caps,
//!   locality-aware cross-chip routing, mergeable latency histograms.
//! * [`place`] — dynamic placement under tenant churn: frame allocator,
//!   bitstream relocation, background defragmentation on idle ICAP time.
//!
//! # Example
//!
//! The paper's headline operating point, end to end:
//!
//! ```
//! use uparc_repro::bitstream::{builder::PartialBitstream, synth::SynthProfile};
//! use uparc_repro::core::uparc::{Mode, UParc};
//! use uparc_repro::fpga::Device;
//! use uparc_repro::sim::time::Frequency;
//!
//! let device = Device::xc5vsx50t();
//! let payload = SynthProfile::dense().generate(&device, 100, 1542, 7);
//! let bs = PartialBitstream::build(&device, 100, &payload); // ≈247 KB
//!
//! let mut uparc = UParc::builder(device).build()?;
//! uparc.set_reconfiguration_frequency(Frequency::from_mhz(362.5))?;
//! let report = uparc.reconfigure_bitstream(&bs, Mode::Auto)?;
//! assert!(report.bandwidth_mb_s() > 1400.0); // ≈1.44 GB/s effective
//! # Ok::<(), uparc_repro::core::UparcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use uparc_bitstream as bitstream;
pub use uparc_compress as compress;
pub use uparc_controllers as controllers;
pub use uparc_core as core;
pub use uparc_fleet as fleet;
pub use uparc_fpga as fpga;
pub use uparc_place as place;
pub use uparc_serve as serve;
pub use uparc_sim as sim;

/// The repository's power-model methodology document (`POWER.md`),
/// compiled here so every code block on that page runs as a doc-test and
/// its numbers cannot drift from the implementation.
#[doc = include_str!("../POWER.md")]
pub mod power_methodology {}
