//! # uparc-serve — a multi-tenant reconfiguration service on top of UPaRC
//!
//! The paper's whole point is that reconfiguration speed and power are a
//! *run-time* trade: DyCloGen retunes CLK_2 per request. This crate adds
//! the layer an on-demand hardware-task system needs to exploit that — a
//! long-running service that multiplexes many concurrent reconfiguration
//! requests over a fixed set of partial regions under a chip-level power
//! cap:
//!
//! * [`request`] — typed [`request::ReconfigRequest`]s (target region,
//!   bitstream id, deadline, priority, optional energy budget) and the
//!   typed [`request::AdmissionError`]s the admission layer rejects with;
//! * [`catalog`] — the bitstream inventory over named regions, each a
//!   frame window claimed in a [`uparc_fpga::alloc::FrameAllocator`]
//!   (every bitstream maps to the one region holding its whole window),
//!   with staging mode and size precomputed per entry;
//! * [`dynamic`] — the allocator-driven counterpart for churn workloads:
//!   admission consults a [`uparc_fpga::alloc::FrameAllocator`] for a
//!   window and the image is relocated (FAR rewrite + CRC replay) to
//!   wherever the window landed;
//! * [`scheduler`] — the scheduling policies ([`scheduler::Policy::Fifo`],
//!   [`scheduler::Policy::EarliestDeadlineFirst`],
//!   [`scheduler::Policy::PowerGreedy`]) and their candidate ordering;
//! * [`workload`] — seeded, reproducible open-loop arrival processes
//!   (uniform / bursty / diurnal) over the inventory;
//! * [`service`] — the service itself: per-region run queues driven by
//!   one loop over a [`uparc_sim::queue::EventQueue`], one
//!   [`uparc_core::UParc`] controller bank per region, operating points
//!   chosen through [`uparc_core::policy::PowerAwarePolicy::plan_vf`], and
//!   the self-healing [`uparc_core::recovery::RecoveryPolicy`] wrapped
//!   around every dispatch;
//! * [`metrics`] — per-request completion records, the scheduler's power
//!   envelope, and latency/miss-rate/energy summaries.
//!
//! # Architecture
//!
//! One event-driven scheduler multiplexes per-region UPaRC lanes; the
//! [`obs`] handle in [`service::ServiceConfig`] threads through every
//! layer, so a single `TraceRecorder` sees admission decisions, dispatch
//! spans and the power-cap samples on one timeline:
//!
//! ```text
//!   workload ----> admission ----> ready queues ----> dispatch
//!   (seeded         (catalog,       (one per            |
//!    arrivals)       deadline,       region,            v
//!       |            region          policy-     +-------------+
//!       |            checks)         ordered)    | UParc lane  | x regions
//!       v              |                         | (recovery-  |
//!    Admission      Admission                    |  wrapped)   |
//!    instants       instants                     +-------------+
//!                                                      |
//!   power cap <---- CapSample instants <---- per-lane busy power
//!   (defer when over budget)                 (sampled each event)
//! ```
//!
//! # Example
//!
//! ```
//! use uparc_fpga::Device;
//! use uparc_serve::catalog::Catalog;
//! use uparc_serve::scheduler::Policy;
//! use uparc_serve::service::{Service, ServiceConfig};
//! use uparc_serve::workload::{ArrivalPattern, WorkloadSpec};
//! use uparc_serve::request::BitstreamId;
//! use uparc_bitstream::{builder::PartialBitstream, synth::SynthProfile};
//! use uparc_sim::time::SimTime;
//!
//! let device = Device::xc5vsx50t();
//! let mut catalog = Catalog::new(device.clone());
//! let region = catalog.add_region("rp0", 100..160)?;
//! let payload = SynthProfile::dense().generate(&device, 100, 40, 7);
//! let bs = PartialBitstream::build(&device, 100, &payload);
//! catalog.register(BitstreamId(1), bs)?;
//!
//! let service = Service::new(catalog, ServiceConfig {
//!     policy: Policy::EarliestDeadlineFirst,
//!     ..ServiceConfig::default()
//! });
//! let spec = WorkloadSpec {
//!     requests: 10,
//!     mean_gap: SimTime::from_us(400),
//!     pattern: ArrivalPattern::Uniform,
//!     ..WorkloadSpec::default()
//! };
//! let requests = spec.generate(42, service.catalog());
//! let metrics = service.run(&requests);
//! assert_eq!(metrics.completions.len(), 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod dynamic;
pub mod metrics;
pub mod request;
pub mod scheduler;
pub mod service;
pub mod thermal;
pub mod workload;

pub use catalog::Catalog;
pub use dynamic::DynamicCatalog;
pub use metrics::{ServiceMetrics, ServiceSummary};
pub use request::{AdmissionError, ReconfigRequest};
pub use scheduler::Policy;
pub use service::{Service, ServiceConfig};
pub use workload::WorkloadSpec;

/// Structured observability, re-exported from [`uparc_sim::obs`]: set
/// [`service::ServiceConfig::obs`] to an [`obs::Obs`] built around an
/// [`obs::TraceRecorder`] to capture `Admission` / `Dispatch` / `CapSample`
/// events and the `serve.*` metrics alongside the per-lane controller
/// spans.
pub mod obs {
    pub use uparc_sim::obs::{
        chrome_trace, flame_summary, EventKind, Metrics, MetricsSnapshot, Obs, SpanId, TraceEvent,
        TraceRecorder,
    };
}
