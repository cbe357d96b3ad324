//! # uparc-sim — simulation substrate for the UPaRC reproduction
//!
//! The UPaRC paper (Bonamy et al., DATE 2012) evaluates a hardware
//! reconfiguration controller on real Virtex-5/Virtex-6 boards. This crate
//! provides the laptop-scale substitute: a deterministic, multi-clock-domain,
//! cycle-accurate simulation substrate with an analytic power model calibrated
//! against the paper's shunt-resistor measurements.
//!
//! The crate is deliberately generic — it knows nothing about FPGAs. It
//! provides:
//!
//! * [`time`] — femtosecond-resolution simulation time ([`SimTime`]) and
//!   exact frequency/period arithmetic ([`Frequency`]).
//! * [`clock`] — runtime-retunable clock domains ([`clock::ClockDomain`])
//!   and multi-rate edge merging ([`clock::MultiClock`]), the substrate for
//!   dynamic frequency scaling (DyCloGen in the paper).
//! * [`queue`] — a deterministic discrete-event queue ([`queue::EventQueue`]),
//!   a calendar-queue/timer-wheel hybrid with O(1) amortised operations,
//!   batch scheduling and whole-instant draining.
//! * [`engine`] — a process-based discrete-event kernel on top of it
//!   ([`engine::Engine`]) with a slab process table and batched
//!   same-instant dispatch, for asynchronous system-level scenarios.
//! * [`power`] — component-based power model (static + `mW/MHz` dynamic
//!   contributions with clock gating), plus the calibration constants fitted
//!   to the paper's Figure 7 in [`power::calib`].
//! * [`fault`] — seeded deterministic fault plans ([`fault::FaultPlan`]) and
//!   the [`fault::FaultInjector`] that dispenses SEUs, staged-stream flips,
//!   transfer stalls, transient CRC corruptions and DCM lock failures for
//!   resilience campaigns.
//! * [`rng`] — splitmix64, stateless and sequential, plus the
//!   [`rng::substream`] seed derivation every seeded generator shares.
//! * [`trace`] — step-wise power traces with exact energy integration and an
//!   oscilloscope/shunt-resistor front-end model ([`trace::Oscilloscope`]).
//! * [`obs`] — structured observability: typed spans/instants recorded
//!   through the cheap [`obs::Obs`] handle, a deterministic metrics
//!   registry, and Chrome-trace / flamegraph exporters.
//! * [`stats`] — small statistics helpers used by the benchmark harnesses.
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
//!      | engine  |      |  power  |      |   obs    |  spans/metrics
//!      | + queue |      | + trace |      | recorder |  -> Chrome JSON,
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
//! simulated time; with the paper's calibrated power model that costs about
//! 259 mW while active:
//!
//! ```
//! use uparc_sim::time::{Frequency, SimTime};
//! use uparc_sim::power::{calib, PowerModel};
//!
//! let f = Frequency::from_mhz(100.0);
//! let words = 216_500 / 4 * 4 / 4; // 216.5 KB as 32-bit words
//! let t = f.time_of_cycles(words as u64);
//! assert!(t > SimTime::from_us(540) && t < SimTime::from_us(560));
//!
//! let model = PowerModel::virtex6_calibrated();
//! let p = model.reconfiguration_power_mw(f);
//! assert!((p - 259.0).abs() / 259.0 < 0.10); // within 10% of Fig. 7
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod engine;
pub mod fault;
pub mod obs;
pub mod power;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod trace;

pub use clock::{ClockDomain, ClockId, MultiClock};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultRates, FaultRecord, FaultSpace};
pub use power::{ComponentId, PowerModel};
pub use queue::EventQueue;
pub use time::{Frequency, SimTime};
pub use trace::{Oscilloscope, PowerTrace};
