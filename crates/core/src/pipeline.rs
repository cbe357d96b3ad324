//! Cycle-faithful timing of the compressed datapath (UPaRC_ii).
//!
//! The compressed mode is a three-stage pipeline across two clock domains
//! (paper Fig. 2):
//!
//! ```text
//!   BRAM ──CLK_2──▶ input FIFO ──CLK_3──▶ decompressor ──▶ output FIFO ──CLK_2──▶ ICAP
//! ```
//!
//! The analytic model (`max(fetch, decompress, intake)`) captures the
//! steady state; this module times the pipeline edge by edge over the
//! merged CLK_2/CLK_3 edge stream, including FIFO warm-up, backpressure
//! and stall accounting — so the reported transfer time *is* the cycle
//! count, not a steady-state estimate.
//!
//! The decompressor's data-dependent burstiness is smoothed into its mean
//! expansion rate (output words per input word over the whole image) with
//! the hardware's per-cycle output cap; the FIFOs absorb exactly the kind
//! of short-term variation this abstracts, which is why the analytic model
//! and this simulation agree to within the warm-up time (asserted by the
//! tests and by `UParc` itself in debug builds).
//!
//! # Closed form
//!
//! Most runs need no stepping. Write I and O for the input and output
//! words, W for the words per CLK_3 cycle, FS for [`FS_PER_SEC`] and f2,
//! f3 for the clocks in hertz. When
//!
//! 1. I ≥ 1 and O ≥ W·I, the decompressor's credit always covers W words
//!    per CLK_3 edge;
//! 2. ⌈FS/f2⌉ ≤ ⌊FS/f3⌋, every CLK_3 period holds a CLK_2 edge, so the
//!    input FIFO never runs dry while input remains and no CLK_3 edge
//!    finds the output FIFO full;
//! 3. W + n_max ≤ [`FIFO_DEPTH`], with n_max = ⌊⌈FS/f3⌉ / ⌊FS/f2⌋⌋ + 1
//!    bounding the CLK_2 edges in one CLK_3 period, a full output FIFO
//!    cannot starve the ICAP,
//!
//! the finite FIFOs never hold the ICAP back: it takes each word on the
//! same CLK_2 edge as it would behind an unbounded output FIFO that the
//! decompressor fills with W words on every CLK_3 edge. Word n then
//! arrives at CLK_3 edge ⌈n/W⌉, and the ICAP takes it on the first CLK_2
//! edge after both that arrival and word n − 1: with b(j) the CLK_2 edges
//! at or before CLK_3 edge j (ties go to CLK_2), word n enters the ICAP
//! at edge D(n) = max(D(n − 1) + 1, b(⌈n/W⌉) + 1). Unrolled over the
//! two-stage tandem line, the last word enters at CLK_2 edge
//!
//! ```text
//!   K = O + max over 1 ≤ j ≤ ⌈O/W⌉ of (b(j) − W·(j − 1))
//! ```
//!
//! which is the very edge the stepper stops on, so the closed form *is*
//! the cycle count, reached without visiting the edges before it; the
//! other counters follow from K and the edge times. The stepper answers
//! every run outside the certificate and is the reference the closed form
//! is pinned against, field for field.

use uparc_sim::time::{Frequency, SimTime, FS_PER_SEC};

/// FIFO depth on each side of the decompressor (words).
pub const FIFO_DEPTH: usize = 16;

/// Stall/occupancy statistics of one compressed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Total CLK_2 edges until the last output word entered the ICAP.
    pub clk2_cycles: u64,
    /// Total CLK_3 edges dispatched during the transfer.
    pub clk3_cycles: u64,
    /// CLK_2 edges on which the ICAP had no word to consume.
    pub icap_starved_cycles: u64,
    /// CLK_3 edges on which the decompressor had no input available.
    pub decomp_starved_cycles: u64,
    /// CLK_3 edges on which the decompressor was blocked by a full output
    /// FIFO.
    pub decomp_blocked_cycles: u64,
    /// End-to-end transfer duration.
    pub elapsed: SimTime,
}

/// Parameters of one compressed transfer.
#[derive(Debug, Clone, Copy)]
pub struct PipelineRun {
    /// Words UReC fetches from BRAM (mode word + stored payload).
    pub input_words: u64,
    /// Decompressed words delivered to the ICAP.
    pub output_words: u64,
    /// Reconfiguration clock (BRAM fetch + ICAP intake).
    pub clk2: Frequency,
    /// Decompressor clock.
    pub clk3: Frequency,
    /// Hardware output cap, words per CLK_3 cycle (X-MatchPRO: 2).
    pub max_words_per_cycle: u32,
}

/// One rising edge of the merged two-domain clock.
enum Edge {
    /// A CLK_2 edge, at this many femtoseconds.
    Clk2(u64),
    /// A CLK_3 edge (its time never reaches the statistics).
    Clk3,
}

/// Most terms [`PipelineRun::closed_form`] visits to find its maximum;
/// runs that need more go to the stepper.
const MAX_SCAN: u128 = 256;

impl PipelineRun {
    /// Times the pipeline, returning its stall statistics.
    ///
    /// A run that meets the closed form's certificate (module docs) is
    /// answered by [`closed_form`](Self::closed_form) in O(1); any other
    /// by the edge stepper, [`step_edges`](Self::step_edges). The choice
    /// follows from the run's own parameters, and both give the same
    /// statistics wherever the certificate holds.
    ///
    /// # Panics
    ///
    /// Panics if `output_words` is zero (an empty transfer has no
    /// pipeline) or `max_words_per_cycle` is zero.
    #[must_use]
    pub fn simulate(&self) -> PipelineStats {
        self.closed_form().unwrap_or_else(|| self.step_edges())
    }

    /// The exact statistics of the run from the tandem-line formula
    /// (module docs), or `None` when its certificate does not hold or the
    /// maximum would take more than a bounded scan to find.
    ///
    /// Integer arithmetic only: O(1) checks, then at most 256 terms of
    /// the maximum, visited from the end of the line where it lies, each
    /// two divisions. Nothing is allocated.
    #[must_use]
    pub fn closed_form(&self) -> Option<PipelineStats> {
        let fs = u128::from(FS_PER_SEC);
        let f2 = u128::from(self.clk2.as_hz());
        let f3 = u128::from(self.clk3.as_hz());
        let i = u128::from(self.input_words);
        let o = u128::from(self.output_words);
        let w = u128::from(self.max_words_per_cycle);
        // 1. The credit pays for W words on every CLK_3 edge.
        if i == 0 || w == 0 || o < w * i {
            return None;
        }
        // 2. Every CLK_3 period holds a CLK_2 edge.
        if fs.div_ceil(f2) > fs / f3 {
            return None;
        }
        // 3. The output FIFO holds W words more than one CLK_3 period
        //    drains.
        let n_max = fs.div_ceil(f3).checked_div(fs / f2)? + 1;
        if w + n_max > FIFO_DEPTH as u128 {
            return None;
        }

        // CLK_2 edges at or before CLK_3 edge j, ties to CLK_2: the n ≥ 1
        // with ⌊n·FS/f2⌋ ≤ ⌊j·FS/f3⌋.
        let b = |j: u128| ((j * fs / f3 + 1) * f2 - 1) / fs;
        // The term of CLK_3 edge j in K's maximum (W·(j − 1) < O for
        // every j ≤ `last`).
        let last = o.div_ceil(w);
        let term = |j: u128| o - w * (j - 1) + b(j);
        // Since b(j) ≤ ⌈j·f2/f3⌉, term(j) ≤ O + ⌈j·f2/f3⌉ − W·(j − 1): a
        // bound that never rises along the scan, which starts at the
        // first CLK_3 edge when f2 ≤ W·f3 and at the last one otherwise.
        // Once the bound is at most the best term so far (which exceeds
        // O), no term left can beat it.
        let beaten = |j: u128, best: u128| j * f2 <= (best - o + w * (j - 1)) * f3;
        let rising = f2 > w * f3;
        let edge = |n: u128| if rising { last - n } else { n + 1 };
        let mut k = term(edge(0));
        for n in 1..last {
            let j = edge(n);
            if beaten(j, k) {
                break;
            }
            if n >= MAX_SCAN {
                return None;
            }
            k = k.max(term(j));
        }
        let elapsed = k * fs / f2;
        Some(PipelineStats {
            clk2_cycles: u64::try_from(k).ok()?,
            // CLK_3 edges strictly before the last CLK_2 edge.
            clk3_cycles: u64::try_from((elapsed * f3 - 1) / fs).ok()?,
            icap_starved_cycles: u64::try_from(k - o).ok()?,
            decomp_starved_cycles: 0,
            decomp_blocked_cycles: 0,
            elapsed: SimTime::from_fs(u64::try_from(elapsed).ok()?),
        })
    }

    /// Steps the pipeline edge by edge: the general path of
    /// [`simulate`](Self::simulate) and the reference its closed form is
    /// checked against.
    ///
    /// Both domains' edge times come from an incremental Bresenham
    /// accumulator — `floor(k · FS / f)` maintained by one add and one
    /// conditional carry per edge, exactly the value
    /// `Frequency::time_of_cycles(k)` returns — and simultaneous edges
    /// dispatch CLK_2 first. The tests pin this stepper field for field
    /// against edges computed with `time_of_cycles` directly.
    ///
    /// # Panics
    ///
    /// Panics if `output_words` is zero or `max_words_per_cycle` is zero.
    #[must_use]
    pub fn step_edges(&self) -> PipelineStats {
        let f2 = self.clk2.as_hz();
        let f3 = self.clk3.as_hz();
        // Per-edge time step, split into whole femtoseconds and remainder:
        // each edge advances the time by `q` fs plus a carry whenever the
        // remainder accumulator wraps.
        let (q2, r2) = (FS_PER_SEC / f2, FS_PER_SEC % f2);
        let (q3, r3) = (FS_PER_SEC / f3, FS_PER_SEC % f3);
        let (mut t2, mut a2) = (q2, r2); // next CLK_2 edge: time, remainder
        let (mut t3, mut a3) = (q3, r3); // next CLK_3 edge: time, remainder
        self.run_edges(|| {
            if t2 <= t3 {
                let edge = Edge::Clk2(t2);
                t2 += q2;
                a2 += r2;
                if a2 >= f2 {
                    t2 += 1;
                    a2 -= f2;
                }
                edge
            } else {
                t3 += q3;
                a3 += r3;
                if a3 >= f3 {
                    t3 += 1;
                    a3 -= f3;
                }
                Edge::Clk3
            }
        })
    }

    /// The FIFO state machine, driven by `next_edge` until the last
    /// output word enters the ICAP.
    fn run_edges(&self, mut next_edge: impl FnMut() -> Edge) -> PipelineStats {
        assert!(self.output_words > 0, "empty transfer");
        assert!(self.max_words_per_cycle > 0, "decompressor must emit");

        // Mean expansion rate, as a rational accumulator (out per in).
        let rate_num = self.output_words;
        let rate_den = self.input_words.max(1);

        let mut in_fifo = 0usize; // compressed words buffered
        let mut out_fifo = 0usize; // decompressed words buffered
        let mut fetched = 0u64;
        let mut emitted = 0u64;
        let mut consumed = 0u64;
        // Fractional output credit, scaled by rate_den.
        let mut credit = 0u64;

        let mut stats = PipelineStats {
            clk2_cycles: 0,
            clk3_cycles: 0,
            icap_starved_cycles: 0,
            decomp_starved_cycles: 0,
            decomp_blocked_cycles: 0,
            elapsed: SimTime::ZERO,
        };

        while consumed < self.output_words {
            if let Edge::Clk2(t) = next_edge() {
                stats.clk2_cycles += 1;
                // UReC fetch side: one BRAM word into the input FIFO.
                if fetched < self.input_words && in_fifo < FIFO_DEPTH {
                    fetched += 1;
                    in_fifo += 1;
                }
                // ICAP intake side: one word per cycle when available.
                if out_fifo > 0 {
                    out_fifo -= 1;
                    consumed += 1;
                    if consumed == self.output_words {
                        stats.elapsed = SimTime::from_fs(t);
                        break;
                    }
                } else {
                    stats.icap_starved_cycles += 1;
                }
            } else {
                stats.clk3_cycles += 1;
                // Decompressor: consume input when credit is low, emit up
                // to the hardware cap while credit and FIFO space allow.
                // Credit is low below one input's worth and below one
                // output's price alike: an image that packs larger than
                // it unpacks needs several inputs before its first word.
                let mut did_work = false;
                if in_fifo > 0 && credit < rate_num.max(rate_den) {
                    in_fifo -= 1;
                    credit += rate_num;
                    did_work = true;
                } else if in_fifo == 0 && fetched < self.input_words {
                    stats.decomp_starved_cycles += 1;
                }
                let mut burst = 0u32;
                while credit >= rate_den
                    && out_fifo < FIFO_DEPTH
                    && burst < self.max_words_per_cycle
                    && emitted < self.output_words
                {
                    credit -= rate_den;
                    out_fifo += 1;
                    emitted += 1;
                    burst += 1;
                }
                // Account tail credit: everything fetched but the division
                // left less than one word of credit at the end.
                if fetched == self.input_words
                    && emitted < self.output_words
                    && in_fifo == 0
                    && credit < rate_den
                {
                    // Flush rounding remainder (≤1 word over a whole image).
                    credit = rate_den;
                }
                if burst == 0 && !did_work && out_fifo >= FIFO_DEPTH {
                    stats.decomp_blocked_cycles += 1;
                }
            }
        }
        stats
    }

    /// The analytic steady-state lower bound the paper's numbers come from:
    /// `max(fetch at CLK_2, decompress at CLK_3, intake at CLK_2)`. The
    /// decompressor term covers both its sides: output capped at
    /// `max_words_per_cycle`, input consumed one word per cycle — the
    /// latter binds for incompressible payloads.
    #[must_use]
    pub fn analytic_bound(&self) -> SimTime {
        let fetch = self.clk2.time_of_cycles(self.input_words);
        let decomp_cycles = self
            .output_words
            .div_ceil(u64::from(self.max_words_per_cycle))
            .max(self.input_words);
        let decomp = self.clk3.time_of_cycles(decomp_cycles);
        let intake = self.clk2.time_of_cycles(self.output_words);
        fetch.max(decomp).max(intake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(input: u64, output: u64, f2: f64, f3: f64, wpc: u32) -> (PipelineStats, PipelineRun) {
        let r = PipelineRun {
            input_words: input,
            output_words: output,
            clk2: Frequency::from_mhz(f2),
            clk3: Frequency::from_mhz(f3),
            max_words_per_cycle: wpc,
        };
        (r.simulate(), r)
    }

    #[test]
    fn decompressor_limited_matches_the_paper_operating_point() {
        // UPaRC_ii: 4x-compressed image, CLK_2 255, CLK_3 125, 2 w/c.
        let out = 55_424u64; // 216.5 KB
        let (stats, r) = run(out / 4, out, 255.0, 125.0, 2);
        let bound = r.analytic_bound();
        // Simulated time within 1% of the steady-state bound (warm-up only).
        let ratio = stats.elapsed.as_secs_f64() / bound.as_secs_f64();
        assert!((1.0..1.01).contains(&ratio), "ratio {ratio:.4}");
        // ICAP at 255 MHz waits on the 250 Mword/s decompressor.
        assert!(stats.icap_starved_cycles > 0);
        assert!(stats.decomp_blocked_cycles < stats.clk3_cycles / 100);
    }

    #[test]
    fn decompressor_input_side_binds_on_incompressible_data() {
        // stored ≈ raw (rate ≈ 1): the decompressor consumes one input
        // word per CLK_3 cycle, so at 126 MHz it cannot keep up with the
        // 200 MHz fetch/intake — a bottleneck the naive
        // `output/words-per-cycle` formula misses.
        let (stats, r) = run(50_000, 50_000, 200.0, 126.0, 2);
        let bound = r.analytic_bound();
        assert_eq!(bound, Frequency::from_mhz(126.0).time_of_cycles(50_000));
        let ratio = stats.elapsed.as_secs_f64() / bound.as_secs_f64();
        assert!((1.0..1.02).contains(&ratio), "ratio {ratio:.4}");
        // The ICAP waits on the slow decompressor.
        assert!(stats.icap_starved_cycles > 0);
    }

    #[test]
    fn fetch_limited_when_clk2_is_the_slowest_link() {
        // rate ≈ 1 with CLK_2 slower than CLK_3: the BRAM fetch paces the
        // pipeline and the decompressor starves for input.
        let (stats, r) = run(50_000, 50_000, 100.0, 126.0, 2);
        let bound = r.analytic_bound();
        assert_eq!(bound, Frequency::from_mhz(100.0).time_of_cycles(50_000));
        let ratio = stats.elapsed.as_secs_f64() / bound.as_secs_f64();
        assert!((1.0..1.02).contains(&ratio), "ratio {ratio:.4}");
        assert!(stats.decomp_starved_cycles > 0);
    }

    #[test]
    fn icap_limited_when_clk2_is_slow() {
        // CLK_2 at 100 MHz cannot drain a decompressor emitting 250 Mw/s.
        let out = 40_000u64;
        let (stats, r) = run(out / 4, out, 100.0, 125.0, 2);
        let intake = Frequency::from_mhz(100.0).time_of_cycles(out);
        assert_eq!(r.analytic_bound(), intake);
        let ratio = stats.elapsed.as_secs_f64() / intake.as_secs_f64();
        assert!((1.0..1.01).contains(&ratio), "ratio {ratio:.4}");
        // Output FIFO back-pressures the decompressor.
        assert!(stats.decomp_blocked_cycles > 0);
    }

    /// Images that pack larger than they unpack (fewer output than input
    /// words), at a decompressor-bound, a fetch-bound and a fast-CLK_2
    /// clock pair: one input's credit buys less than one output word.
    fn packed_larger() -> impl Iterator<Item = (u64, u64, f64, f64, u32)> {
        let shapes = [(2, 1), (3, 2), (10, 9), (1000, 970), (5, 1)];
        let clocks = [(200.0, 125.0), (100.0, 125.0), (255.0, 50.0)];
        shapes
            .into_iter()
            .flat_map(move |(inp, out)| clocks.map(|(f2, f3)| (inp, out, f2, f3, 2)))
    }

    #[test]
    fn simulation_never_beats_the_analytic_bound() {
        let table = [
            (1000u64, 4000u64, 255.0, 125.0, 2u32),
            (5000, 5000, 300.0, 126.0, 2),
            (100, 4000, 255.0, 50.0, 2),
            (2500, 10_000, 150.0, 125.0, 1),
            (1, 10, 255.0, 125.0, 2),
        ];
        for (inp, out, f2, f3, wpc) in table.into_iter().chain(packed_larger()) {
            let (stats, r) = run(inp, out, f2, f3, wpc);
            assert!(
                stats.elapsed >= r.analytic_bound(),
                "({inp},{out},{f2},{f3},{wpc}): {} < {}",
                stats.elapsed,
                r.analytic_bound()
            );
        }
    }

    #[test]
    fn all_output_words_are_delivered_exactly_once() {
        let (stats, _) = run(777, 3200, 255.0, 125.0, 2);
        // Termination itself proves delivery; stall counters stay bounded.
        assert!(stats.clk2_cycles >= 3200);
        assert!(stats.clk3_cycles > 0);
    }

    #[test]
    fn fast_edge_step_matches_time_of_cycles() {
        // The Bresenham accumulator assumes `Frequency::time_of_cycles(k)`
        // equals floor(k · FS_PER_SEC / f) femtoseconds; pin that here so a
        // representation change in uparc-sim surfaces as a test failure,
        // not silent drift.
        for mhz in [100.0, 125.0, 126.0, 200.0, 255.0, 300.0, 362.5] {
            let f = Frequency::from_mhz(mhz);
            let hz = f.as_hz();
            for k in [1u64, 2, 3, 999, 1_000_000] {
                let expect = (u128::from(k) * u128::from(FS_PER_SEC) / u128::from(hz)) as u64;
                assert_eq!(f.time_of_cycles(k).as_fs(), expect, "{mhz} MHz, {k}");
            }
        }
    }

    /// The reference edge source: edge `k` of each domain at
    /// `time_of_cycles(k)`, ties to CLK_2 — the 128-bit arithmetic the
    /// Bresenham stepper in [`PipelineRun::simulate`] must reproduce.
    fn simulate_by_time_of_cycles(r: &PipelineRun) -> PipelineStats {
        let (mut k2, mut k3) = (1u64, 1u64);
        r.run_edges(|| {
            let t2 = r.clk2.time_of_cycles(k2);
            if t2 <= r.clk3.time_of_cycles(k3) {
                k2 += 1;
                Edge::Clk2(t2.as_fs())
            } else {
                k3 += 1;
                Edge::Clk3
            }
        })
    }

    #[test]
    fn bresenham_edges_equal_time_of_cycles_edges() {
        // Field-for-field equality, across bottleneck regimes, co-prime
        // clock pairs (where floor rounding and tie-breaks matter most),
        // and degenerate sizes. The last column says whether the closed
        // form answers the run; where it does, it must return the
        // stepper's statistics exactly.
        let table = [
            (1000u64, 4000u64, 255.0, 125.0, 2u32, true),
            (5000, 5000, 300.0, 126.0, 2, false),
            (100, 4000, 255.0, 50.0, 2, true),
            (2500, 10_000, 150.0, 125.0, 1, true),
            (1, 10, 255.0, 125.0, 2, true),
            (13_856, 55_424, 255.0, 125.0, 2, true),
            (50_000, 50_000, 200.0, 126.0, 2, false),
            (777, 3200, 362.5, 333.25, 3, true),
            (97, 389, 199.999, 66.667, 1, true),
            (1, 1, 100.0, 100.0, 1, true),
            (4096, 16_001, 255.0, 254.9, 2, true),
            // The service's three CLK_2 points at its 125 MHz CLK_3.
            (407, 1607, 254.545_455, 125.0, 2, true),
            (407, 1607, 160.0, 125.0, 2, true),
            (407, 1607, 158.823_529, 125.0, 2, true),
            // CLK_2 exactly W·CLK_3: every term of the maximum is W.
            (407, 1607, 250.0, 125.0, 2, true),
            // Certificate 1 fails: O < W·I.
            (407, 813, 254.545_455, 125.0, 2, false),
            // Certificate 2 fails: CLK_2 below CLK_3.
            (1000, 4000, 100.0, 125.0, 2, false),
            // Certificate 3 fails: 18 CLK_2 edges fit one CLK_3 period.
            (100, 4000, 255.0, 15.0, 2, false),
            // The maximum lies more than 256 CLK_3 edges from the end.
            (4096, 16_384, 250.1, 125.0, 2, false),
        ];
        let stepped_only = packed_larger().map(|(i, o, f2, f3, w)| (i, o, f2, f3, w, false));
        for (inp, out, f2, f3, wpc, closed) in table.into_iter().chain(stepped_only) {
            let r = PipelineRun {
                input_words: inp,
                output_words: out,
                clk2: Frequency::from_mhz(f2),
                clk3: Frequency::from_mhz(f3),
                max_words_per_cycle: wpc,
            };
            let stepped = r.step_edges();
            let case = format!("({inp},{out},{f2},{f3},{wpc})");
            assert_eq!(stepped, simulate_by_time_of_cycles(&r), "{case}");
            assert_eq!(r.closed_form(), closed.then_some(stepped), "{case}");
            assert_eq!(r.simulate(), stepped, "{case}");
        }
    }
}
