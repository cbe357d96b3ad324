//! # uparc-sim — simulation substrate for the UPaRC reproduction
//!
//! The UPaRC paper (Bonamy et al., DATE 2012) evaluates a hardware
//! reconfiguration controller on real Virtex-5/Virtex-6 boards. This crate
//! provides the laptop-scale substitute: a deterministic, cycle-accurate
//! simulation substrate with a power model calibrated against the paper's
//! shunt-resistor measurements.
//!
//! The crate is deliberately generic — it knows nothing about FPGAs. It
//! provides:
//!
//! * [`time`] — femtosecond-resolution simulation time ([`SimTime`]) and
//!   exact frequency/period arithmetic ([`Frequency`]).
//! * [`queue`] — a deterministic discrete-event queue ([`queue::EventQueue`]),
//!   a calendar-queue/timer-wheel hybrid with O(1) amortised operations;
//!   event-driven simulations are a loop that drains one queue.
//! * [`power`] — the calibration constants fitted to the paper's Figure 7
//!   ([`power::calib`]), the (V, f) reconfiguration power curve
//!   ([`power::reconfiguration_power_vf_mw`]) and the voltage-rail table
//!   ([`power::VfTable`]).
//! * [`fault`] — seeded deterministic fault plans ([`fault::FaultPlan`]) and
//!   the [`fault::FaultInjector`] that dispenses SEUs, staged-stream flips,
//!   transfer stalls, transient CRC corruptions and DCM lock failures for
//!   resilience campaigns.
//! * [`rng`] — the seeded generators: splitmix64, stateless and
//!   sequential, with the [`rng::substream`] seed derivation, and
//!   [`rng::Xoshiro256`] for the synthetic payload and request streams.
//! * [`trace`] — step-wise power traces with exact energy integration and an
//!   oscilloscope/shunt-resistor front-end model ([`trace::Oscilloscope`]).
//! * [`obs`] — structured observability: typed spans/instants recorded
//!   through the cheap [`obs::Obs`] handle, a deterministic metrics
//!   registry, and Chrome-trace / flamegraph exporters.
//! * [`stats`] — the mergeable log₂ latency histogram
//!   ([`stats::LogHistogram`]) every layer and the [`obs`] metrics registry
//!   record into, and the exact sorted-vector percentile it is checked
//!   against.
//! * [`sweep`] — a std-only scoped-thread parallel map and deterministic
//!   positional sharding, shared by the experiment harnesses and the
//!   block-parallel encoders.
//!
//! # Architecture
//!
//! Everything sits on the femtosecond [`SimTime`] axis; the layers above
//! only ever exchange timestamps, so a whole run is reproducible from a
//! seed:
//!
//! ```text
//!   +--------------------------------------------------------------+
//!   |  models (uparc-fpga / uparc-core / uparc-serve, downstream)  |
//!   +-------+----------------+----------------+--------------------+
//!           |                |                |
//!           v                v                v
//!      +---------+      +---------+      +----------+
//!      |  queue  |      |  power  |      |   obs    |  spans/metrics
//!      |         |      | + trace |      | recorder |  -> Chrome JSON,
//!      +---------+      +---------+      +----------+     flamegraph
//!           |                |                |
//!           +----------------+----------------+
//!                            v
//!              +---------------------------+
//!              | time: SimTime / Frequency |   exact integer fs
//!              +---------------------------+
//! ```
//!
//! # Example
//!
//! Reconfiguring 216.5 KB at 100 MHz through a 32-bit port takes 554 µs of
//! simulated time; at nominal voltage the calibrated power curve draws
//! exactly Fig. 7's measured 259 mW while active:
//!
//! ```
//! use uparc_sim::time::{Frequency, SimTime};
//! use uparc_sim::power::{calib, reconfiguration_power_vf_mw};
//!
//! let f = Frequency::from_mhz(100.0);
//! let words = 216_500 / 4 * 4 / 4; // 216.5 KB as 32-bit words
//! let t = f.time_of_cycles(words as u64);
//! assert!(t > SimTime::from_us(540) && t < SimTime::from_us(560));
//!
//! assert_eq!(reconfiguration_power_vf_mw(calib::V_NOM_V, f), 259.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod obs;
pub mod power;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod trace;

pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultRates, FaultRecord, FaultSpace};
pub use queue::EventQueue;
pub use time::{Frequency, SimTime};
pub use trace::{Oscilloscope, PowerTrace};
