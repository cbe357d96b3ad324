//! # uparc-fpga — behavioural models of the Xilinx FPGA substrate
//!
//! The UPaRC paper's experiments run on Virtex-5 (ML506) and Virtex-6 (ML605)
//! silicon. This crate models every hardware primitive those experiments
//! depend on, at the level of detail the paper's results are sensitive to:
//!
//! * [`family`]/[`device`] — device descriptors (process node, frame
//!   geometry, slice composition, ICAP overclocking ceilings, full-bitstream
//!   size — e.g. 2444 KB for the XC5VSX50T, as quoted in §IV).
//! * [`mod@format`] — the configuration stream format understood by the ICAP:
//!   sync word, type-1/type-2 packets, configuration registers and commands.
//! * [`icap`] — the Internal Configuration Access Port: a streaming parser
//!   that consumes one 32-bit word per clock cycle and commits frames to the
//!   configuration memory, with per-family maximum-frequency limits
//!   (V5: 362.5 MHz demonstrated; V6: a few MHz lower, §IV).
//! * [`seal`] — sealed streams: a stream's CRC check words written and
//!   each FDRI run's CRC contribution computed once, where it is built,
//!   so the ICAP folds a run's CRC with one GF(2) multiply.
//! * [`config_mem`] — frame-addressed configuration memory (FAR/FDRI), used
//!   by tests to verify that a reconfiguration actually landed.
//! * [`bram`] — dual-port block RAM with guaranteed (300 MHz) and
//!   overclocked operating regimes.
//! * [`dcm`] — the DCM clock manager with its Dynamic Reconfiguration Port
//!   (DRP), `F_out = F_in · M / D`, lock time, and a factor-search routine.
//! * [`resources`] — slice/LUT/FF accounting and the area estimator behind
//!   Table II.
//! * [`alloc`] — a free-interval allocator over the frame space, the one
//!   model of a reconfigurable region: a contiguous FAR window, claimed
//!   exactly for a declared region or placed at run time under tenant
//!   churn (first-fit/best-fit, coalescing frees, fragmentation metrics).
//! * [`variation`] — per-sample fmax variation and overclock screening
//!   (the §IV multi-sample experiment).
//!
//! # Architecture
//!
//! The configuration path the paper overclocks, as modelled here:
//!
//! ```text
//!    32-bit words            frames                  readback
//!   +-----------+   +------------------------+   +-------------+
//!   |   icap    |-->|       config_mem       |<--| tests/scrub |
//!   | (parser,  |   | (FAR-addressed frames) |   +-------------+
//!   |  fmax per |   +------------------------+
//!   |  family)  |                ^
//!   +-----------+                | geometry
//!         ^                +-----------+     +-----------+
//!   clock |                |  device   |---->|   alloc   |
//!   +-----------+          | + family  |     |  (frame   |
//!   |    dcm    |          +-----------+     |  windows) |
//!   | (DRP M/D) |                            +-----------+
//!   +-----------+
//! ```
//!
//! # Example
//!
//! ```
//! use uparc_fpga::device::Device;
//! use uparc_fpga::dcm::DcmConstraints;
//! use uparc_sim::time::Frequency;
//!
//! // The paper's headline clock: 100 MHz x 29/8 = 362.5 MHz.
//! let dev = Device::xc5vsx50t();
//! let (m, d, f) = DcmConstraints::for_family(dev.family())
//!     .best_factors(Frequency::from_mhz(100.0), Frequency::from_mhz(362.5))
//!     .expect("target is reachable");
//! assert_eq!((m, d), (29, 8));
//! assert_eq!(f, Frequency::from_mhz(362.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod bram;
pub mod config_mem;
pub mod dcm;
pub mod device;
pub mod ecc;
pub mod error;
pub mod family;
pub mod format;
pub mod icap;
pub mod resources;
pub mod seal;
pub mod variation;

pub use alloc::{AllocError, FitPolicy, FragStats, FrameAllocator};
pub use bram::Bram;
pub use config_mem::ConfigMemory;
pub use dcm::Dcm;
pub use device::Device;
pub use error::{DcmConstraintError, FpgaError};
pub use family::Family;
pub use icap::Icap;
pub use seal::Sealed;
