//! # uparc-core — UPaRC: the Ultra-fast Power-aware Reconfiguration Controller
//!
//! This crate is the paper's contribution (Fig. 2): a reconfiguration
//! controller that reaches 1.433 GB/s by overclocking a minimal custom
//! BRAM→ICAP burst path to 362.5 MHz, plus a dynamic clock generator that
//! retunes the reconfiguration clock at run time to trade speed against
//! power.
//!
//! * [`urec`] — UReC, the ultra-fast reconfiguration controller: a small
//!   FSM (26 slices) that bursts one word per cycle from the dual-port
//!   BRAM into the ICAP, with EN clock gating after "Finish" (Fig. 4).
//! * [`dyclogen`] — DyCloGen: three run-time-retunable clocks (CLK_1
//!   preload, CLK_2 reconfiguration, CLK_3 decompressor) programmed through
//!   the DCM's DRP (`F_out = F_in·M/D`; the paper's headline point is
//!   100 MHz × 29/8 = 362.5 MHz).
//! * [`manager`] — the Manager (a MicroBlaze in the paper): bitstream
//!   preloading, Start/Finish control and frequency adaptation; its active
//!   wait is what makes measured energy frequency-dependent (§V).
//! * [`decompressor`] — the reconfigurable decompressor slot (X-MatchPRO by
//!   default, swappable by partial reconfiguration — the paper's
//!   future-work feature, implemented here).
//! * [`uparc`] — the assembled system with both operating modes:
//!   `UPaRC_i` (preloading without compression, up to 362.5 MHz) and
//!   `UPaRC_ii` (preloading with compression, decompressor-paced).
//! * [`policy`] — power-aware frequency selection: lowest frequency meeting
//!   a deadline, power-budget capping, and energy-optimal choice.
//! * [`optimize`] — application-level ("global", §VI future work) frequency
//!   assignment: minimum peak power / minimum energy under a makespan.
//! * [`pipeline`] — cycle-faithful simulation of the compressed datapath's
//!   FIFO pipeline across the CLK_2/CLK_3 domains.
//! * [`schedule`] — a prefetch scheduler that overlaps preloading with idle
//!   time (\[13\]-style), hiding preload latency from module downtime.
//! * [`scrub`] — SEU scrubbing by readback + fast partial reconfiguration
//!   (the fault-tolerance motivation of §I).
//! * [`recovery`] — the self-healing layer: bounded retry with a
//!   degradation ladder (restage, retune retry, mode fallback, frequency
//!   fallback, watchdog abort, scrub-and-repair) around `reconfigure`.
//! * [`inventory`] — the primitive inventories behind Table II's slice
//!   counts.
//!
//! # Architecture
//!
//! The assembled controller mirrors the paper's Fig. 2; every arrow below
//! is a module boundary in this crate, and every timed hop can emit a
//! span through the [`obs`] handle attached with
//! [`uparc::UParc::set_observer`]:
//!
//! ```text
//!              host bitstream (maybe compressed)
//!                          |
//!                          v  preload (CLK_1)          spans
//!   +---------+      +-----------+                 .............
//!   | Manager |----->| dual-port |                 : Preload   :
//!   |  (FSM)  |      |   BRAM    |                 : IcapBurst :
//!   +---------+      +-----------+                 : Decompress:
//!        |                 |  burst (CLK_2)        : DcmRelock :
//!        | Start/Finish    v                       :...........:
//!        |           +-----------+    +------+
//!        +---------->|   UReC    |--->| ICAP |  1 word / CLK_2 cycle
//!        |           +-----------+    +------+
//!        v                 ^
//!   +----------+     +-----------+
//!   | DyCloGen |     | X-MatchPRO|  (UPaRC_ii only, CLK_3)
//!   | CLK_1..3 |     | decomp.   |
//!   +----------+     +-----------+
//! ```
//!
//! # Example
//!
//! ```
//! use uparc_core::uparc::{Mode, UParc};
//! use uparc_bitstream::{builder::PartialBitstream, synth::SynthProfile};
//! use uparc_fpga::Device;
//! use uparc_sim::time::Frequency;
//!
//! let device = Device::xc5vsx50t();
//! let payload = SynthProfile::dense().generate(&device, 100, 200, 1);
//! let bs = PartialBitstream::build(&device, 100, &payload);
//!
//! let mut uparc = UParc::builder(device).build()?;
//! uparc.set_reconfiguration_frequency(Frequency::from_mhz(362.5))?;
//! uparc.preload(&bs, Mode::Auto)?;
//! let report = uparc.reconfigure()?;
//! assert!(report.bandwidth_mb_s() > 1_000.0); // > 1 GB/s
//! # Ok::<(), uparc_core::UparcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompressor;
pub mod dyclogen;
pub mod error;
pub mod inventory;
pub mod manager;
pub mod optimize;
pub mod pipeline;
pub mod policy;
pub mod recovery;
pub mod schedule;
pub mod scrub;
pub mod uparc;
pub mod urec;

pub use error::UparcError;
pub use recovery::{RecoveryAction, RecoveryPolicy, RecoveryReport};
pub use uparc::UParc;

/// Structured observability, re-exported from [`uparc_sim::obs`]: attach an
/// [`obs::Obs`] built around an [`obs::TraceRecorder`] via
/// [`uparc::UParcBuilder::observer`] (or [`uparc::UParc::set_observer`]) to
/// capture `Preload` / `IcapBurst` / `DecompressStage` / `DcmRelock` spans
/// and the `uparc.*` / `dyclogen.*` / `recovery.*` metrics.
pub mod obs {
    pub use uparc_sim::obs::{
        chrome_trace, flame_summary, EventKind, Metrics, MetricsSnapshot, Obs, SpanId, TraceEvent,
        TraceRecorder,
    };
}
