//! # uparc-place — dynamic placement and defragmentation under churn
//!
//! The static pipeline places every bitstream at a region declared
//! before any traffic (`Catalog::add_region`). This crate is the
//! run-time alternative a multi-tenant deployment needs: tenants arrive
//! asking for *n* contiguous frames, an allocator hands out windows,
//! images are *relocated* to wherever they land (FAR rewrite + CRC
//! replay, byte-identical to a fresh build), and a background
//! defragmenter spends idle ICAP cycles compacting the frame space so
//! churn does not strand capacity in fragments.
//!
//! * [`churn`] — seeded tenant arrival/departure traces over hours of
//!   simulated time, one splitmix64 sub-stream per draw so traces are
//!   count-invariant;
//! * [`defrag`] — the sliding-compaction planner: one move at a time,
//!   foreground work always preempts it;
//! * [`sim`] — the event-queue run loop tying them to
//!   [`uparc_serve::dynamic::DynamicCatalog`]: admission consults the
//!   allocator, loads and moves share one ICAP's time, and every move,
//!   pass and rejection lands in the observability taxonomy
//!   (`Relocate` / `Compact` / `AllocFail`).
//!
//! # Architecture
//!
//! ```text
//!   churn trace ──arrivals──▶ admission ──window──▶ relocate + load
//!   (seeded)                 (FrameAllocator)       (FAR rewrite,
//!        │                        ▲   │              CRC replay)
//!        └──departs──▶ free ──────┘   │ idle?
//!            (coalesce)               ▼
//!                               defragmenter ──▶ Relocate spans,
//!                               (slide live images  Compact instants
//!                                into lowest gaps)
//! ```
//!
//! # Example
//!
//! ```
//! use uparc_place::churn::ChurnSpec;
//! use uparc_place::sim::{run_churn, PlacementConfig};
//!
//! let spec = ChurnSpec { tenants: 60, ..ChurnSpec::default() };
//! let out = run_churn(&spec, 42, PlacementConfig::default());
//! assert_eq!(out.placed + out.rejected, 60);
//! assert_eq!(out.invariant_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod defrag;
pub mod sim;

pub use churn::{Arrival, ChurnSpec};
pub use defrag::{Defragmenter, MovePlan};
pub use sim::{run_churn, ChurnOutcome, PlacementConfig};
