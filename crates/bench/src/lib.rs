//! # uparc-bench — the paper reproduction and the regression harnesses
//!
//! [`paper`] regenerates every table, figure and ablation of the UPaRC
//! paper as one run whose numbers are banded claims against the paper;
//! the `paper` binary checks them all and writes `BENCH_paper.json`. The
//! six `bench_*` regression binaries run through the shared [`harness`]
//! and write their reports with the byte-stable JSON writer in
//! [`report`]. `bitinfo` inspects `.bit` files. DESIGN.md §4 indexes the
//! experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod paper;
pub mod report;
