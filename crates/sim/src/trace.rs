//! Power traces and the oscilloscope/shunt-resistor measurement model.
//!
//! The paper measures FPGA core power on the ML605 through a shunt resistor,
//! a high-precision current amplifier and a digital oscilloscope (Fig. 6).
//! [`PowerTrace`] is the ideal step-wise power waveform produced by the
//! simulation; [`Oscilloscope`] resamples it at a fixed sample rate through
//! the shunt/amplifier chain, which is how the Figure 7 curves are
//! regenerated.

use crate::time::SimTime;

/// A step-wise power waveform: the power level holds between samples.
///
/// # Example
///
/// ```
/// use uparc_sim::trace::PowerTrace;
/// use uparc_sim::time::SimTime;
///
/// let mut tr = PowerTrace::new();
/// tr.push(SimTime::ZERO, 53.0);          // idle
/// tr.push(SimTime::from_us(100), 453.0); // reconfiguration burst
/// tr.push(SimTime::from_us(280), 53.0);  // back to idle
/// tr.finish(SimTime::from_us(400));
/// let e = tr.energy_uj();
/// assert!((e - (53.0*100e-6 + 453.0*180e-6 + 53.0*120e-6)*1e3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerTrace {
    /// (time, power-mW) step points, strictly increasing in time.
    steps: Vec<(SimTime, f64)>,
    /// End of the waveform; power is undefined past this point.
    end: Option<SimTime>,
}

impl PowerTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// Appends a power step at `at`. Consecutive equal-time pushes replace
    /// the previous level (last-write-wins within one instant).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last step or the trace is finished.
    pub fn push(&mut self, at: SimTime, power_mw: f64) {
        assert!(self.end.is_none(), "trace already finished");
        if let Some(&(last, _)) = self.steps.last() {
            assert!(at >= last, "trace steps must be time-ordered");
            if at == last {
                self.steps.last_mut().expect("nonempty").1 = power_mw;
                return;
            }
        }
        self.steps.push((at, power_mw));
    }

    /// Closes the waveform at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, already finished, or `at` precedes the
    /// last step.
    pub fn finish(&mut self, at: SimTime) {
        assert!(self.end.is_none(), "trace already finished");
        let &(last, _) = self.steps.last().expect("cannot finish an empty trace");
        assert!(at >= last, "finish time precedes last step");
        self.end = Some(at);
    }

    /// The step points `(time, power-mW)`.
    #[must_use]
    pub fn steps(&self) -> &[(SimTime, f64)] {
        &self.steps
    }

    /// End time, if [`PowerTrace::finish`] was called.
    #[must_use]
    pub fn end(&self) -> Option<SimTime> {
        self.end
    }

    /// Power level at `at`, or `None` outside the waveform.
    #[must_use]
    pub fn power_at(&self, at: SimTime) -> Option<f64> {
        let end = self.end?;
        if at > end || self.steps.first().map(|&(t, _)| at < t).unwrap_or(true) {
            return None;
        }
        let idx = self.steps.partition_point(|&(t, _)| t <= at);
        Some(self.steps[idx - 1].1)
    }

    /// Exact energy of the waveform in microjoules.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not finished.
    #[must_use]
    pub fn energy_uj(&self) -> f64 {
        let end = self.end.expect("finish the trace before integrating");
        let mut e = 0.0;
        for w in self.steps.windows(2) {
            let (t0, p) = w[0];
            let (t1, _) = w[1];
            e += p * (t1 - t0).as_secs_f64();
        }
        if let Some(&(t_last, p_last)) = self.steps.last() {
            e += p_last * (end - t_last).as_secs_f64();
        }
        e * 1e3 // mW·s = mJ → µJ
    }

    /// Energy above a `floor_mw` baseline within the window `[from, to]`,
    /// in microjoules: `∫ max(0, p(t) − floor) dt`.
    ///
    /// This is the "extra energy" extraction a recovery layer needs: with
    /// `floor_mw` at the idle level, the integral isolates what the active
    /// phases inside the window actually cost. A finished trace ends at
    /// its end; a live one holds its last level through `to`. Only the
    /// steps inside the window are visited (a binary search finds the
    /// first), so the cost does not grow with the trace's history.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    #[must_use]
    pub fn energy_above_uj(&self, floor_mw: f64, from: SimTime, to: SimTime) -> f64 {
        assert!(from <= to, "energy window is reversed");
        let end = self.end.map_or(to, |end| end.min(to));
        if end <= from {
            return 0.0;
        }
        // A step that ends by `from`, or starts at or after `end`, adds an
        // exact +0.0 (a zero-width interval times a finite power) to the
        // full scan from t = 0, so skipping it changes no bit of the sum.
        let first = self
            .steps
            .partition_point(|&(t, _)| t <= from)
            .saturating_sub(1);
        let mut e = 0.0;
        for (i, &(t0, p)) in self.steps.iter().enumerate().skip(first) {
            if t0 >= end {
                break;
            }
            let t1 = self.steps.get(i + 1).map_or(end, |&(t, _)| t.min(end));
            e += (p - floor_mw).max(0.0) * (t1 - t0.max(from)).as_secs_f64();
        }
        e * 1e3 // mW·s = mJ → µJ
    }

    /// Peak power level in mW.
    #[must_use]
    pub fn peak_mw(&self) -> f64 {
        self.steps.iter().map(|&(_, p)| p).fold(0.0, f64::max)
    }

    /// Duration for which power strictly exceeds `threshold_mw`.
    ///
    /// Useful for extracting "reconfiguration time" from a trace the way one
    /// would from an oscilloscope screenshot.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not finished.
    #[must_use]
    pub fn time_above(&self, threshold_mw: f64) -> SimTime {
        let end = self.end.expect("finish the trace first");
        let mut total = SimTime::ZERO;
        for w in self.steps.windows(2) {
            let (t0, p) = w[0];
            let (t1, _) = w[1];
            if p > threshold_mw {
                total += t1 - t0;
            }
        }
        if let Some(&(t_last, p_last)) = self.steps.last() {
            if p_last > threshold_mw {
                total += end - t_last;
            }
        }
        total
    }
}

/// The ML605 measurement chain of Fig. 6: shunt resistor, precision current
/// amplifier and digital oscilloscope sampling at a fixed rate.
///
/// Given an ideal [`PowerTrace`] it produces `(time, sampled power)` points,
/// converting through core voltage → current → shunt voltage and back.
#[derive(Debug, Clone)]
pub struct Oscilloscope {
    /// Core supply voltage (V). The paper runs the default 1.0 V.
    vcc: f64,
    /// Shunt resistance in ohms (ML605 uses milliohm-scale shunts).
    shunt_ohm: f64,
    /// Amplifier gain (V/V).
    gain: f64,
    /// Sample interval.
    sample_period: SimTime,
}

impl Oscilloscope {
    /// Creates the default ML605-like chain: 1.0 V core, 5 mΩ shunt, 100×
    /// amplifier, 1 µs sample period.
    #[must_use]
    pub fn ml605() -> Self {
        Oscilloscope {
            vcc: 1.0,
            shunt_ohm: 0.005,
            gain: 100.0,
            sample_period: SimTime::from_us(1),
        }
    }

    /// Overrides the sample period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn with_sample_period(mut self, period: SimTime) -> Self {
        assert!(!period.is_zero(), "sample period must be non-zero");
        self.sample_period = period;
        self
    }

    /// Core current in amperes for a given power level.
    #[must_use]
    pub fn current_a(&self, power_mw: f64) -> f64 {
        power_mw / 1e3 / self.vcc
    }

    /// Amplifier output voltage for a given power level — what the scope
    /// actually digitises.
    #[must_use]
    pub fn scope_voltage(&self, power_mw: f64) -> f64 {
        self.current_a(power_mw) * self.shunt_ohm * self.gain
    }

    /// Samples a finished trace at the configured rate, returning
    /// `(time, power-mW)` points reconstructed from the scope voltage.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not finished.
    #[must_use]
    pub fn sample(&self, trace: &PowerTrace) -> Vec<(SimTime, f64)> {
        let end = trace.end().expect("finish the trace before sampling");
        let start = trace
            .steps()
            .first()
            .map(|&(t, _)| t)
            .unwrap_or(SimTime::ZERO);
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            if let Some(p) = trace.power_at(t) {
                // Through the chain and back: voltage → current → power.
                let v = self.scope_voltage(p);
                let i = v / self.gain / self.shunt_ohm;
                out.push((t, i * self.vcc * 1e3));
            }
            match t.checked_add(self.sample_period) {
                Some(next) => t = next,
                None => break,
            }
        }
        out
    }
}

impl Default for Oscilloscope {
    fn default() -> Self {
        Oscilloscope::ml605()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7_like_trace() -> PowerTrace {
        // Manager burst, reconfiguration at 300 MHz, then idle (cf. Fig. 7).
        let mut tr = PowerTrace::new();
        tr.push(SimTime::ZERO, 53.0);
        tr.push(SimTime::from_us(10), 145.0); // manager control
        tr.push(SimTime::from_us(12), 453.0); // reconfiguration
        tr.push(SimTime::from_us(192), 53.0); // idle again
        tr.finish(SimTime::from_us(250));
        tr
    }

    #[test]
    fn energy_matches_hand_computation() {
        let tr = fig7_like_trace();
        let expected = (53.0 * 10.0 + 145.0 * 2.0 + 453.0 * 180.0 + 53.0 * 58.0) * 1e-6 * 1e3;
        assert!((tr.energy_uj() - expected).abs() < 1e-9);
    }

    #[test]
    fn power_at_interpolates_steps() {
        let tr = fig7_like_trace();
        assert_eq!(tr.power_at(SimTime::from_us(5)), Some(53.0));
        assert_eq!(tr.power_at(SimTime::from_us(12)), Some(453.0));
        assert_eq!(tr.power_at(SimTime::from_us(100)), Some(453.0));
        assert_eq!(tr.power_at(SimTime::from_us(200)), Some(53.0));
        assert_eq!(tr.power_at(SimTime::from_us(251)), None);
    }

    #[test]
    fn energy_above_integrates_only_the_window_excess() {
        let tr = fig7_like_trace();
        // Window covering everything, floor at idle: only the excess over
        // 53 mW counts.
        let expected = ((145.0 - 53.0) * 2.0 + (453.0 - 53.0) * 180.0) * 1e-6 * 1e3;
        let full = tr.energy_above_uj(53.0, SimTime::ZERO, SimTime::from_us(250));
        assert!((full - expected).abs() < 1e-9, "{full} vs {expected}");
        // A window clipped to half the reconfiguration plateau.
        let half = tr.energy_above_uj(53.0, SimTime::from_us(12), SimTime::from_us(102));
        assert!((half - (453.0 - 53.0) * 90.0 * 1e-6 * 1e3).abs() < 1e-9);
        // Floor above the peak: nothing left.
        assert_eq!(
            tr.energy_above_uj(1e6, SimTime::ZERO, SimTime::from_us(250)),
            0.0
        );
    }

    /// The full scan `energy_above_uj` used to run: every step from
    /// t = 0, each clipped to the window.
    fn energy_above_uj_reference(
        tr: &PowerTrace,
        floor_mw: f64,
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        let end = tr.end.expect("finish the trace before integrating");
        assert!(from <= to, "energy window is reversed");
        let clip = |t: SimTime| t.clamp(from, to.min(end));
        let mut e = 0.0;
        for w in tr.steps.windows(2) {
            let (t0, p) = w[0];
            let (t1, _) = w[1];
            e += (p - floor_mw).max(0.0) * (clip(t1) - clip(t0)).as_secs_f64();
        }
        if let Some(&(t_last, p_last)) = tr.steps.last() {
            e += (p_last - floor_mw).max(0.0) * (clip(end) - clip(t_last)).as_secs_f64();
        }
        e * 1e3
    }

    #[test]
    fn windowed_energy_equals_the_full_scan_bit_for_bit() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(20_120_312);
        let mut windows = 0;
        for _ in 0..300 {
            let mut live = PowerTrace::new();
            let mut t = rng.below(50);
            for _ in 0..1 + rng.below(40) {
                // Some levels sit exactly on the floor, some below it.
                let p = [53.0, 20.0, 53.0 + rng.unit_f64() * 400.0][rng.below(3) as usize];
                live.push(SimTime::from_ns(t), p);
                t += 1 + rng.below(30);
            }
            let last = live.steps().last().expect("pushed").0;
            let end = last + SimTime::from_ns(rng.below(30));
            let mut done = live.clone();
            done.finish(end);
            let span = end.as_fs() / 1_000_000 + 40;
            for k in 0..40 {
                let (a, b) = (rng.below(span), rng.below(span));
                let (from, to) = match k {
                    // Before the first step, zero width, past the end.
                    0 => (0, done.steps()[0].0.as_fs() / 1_000_000),
                    1 => (a, a),
                    2 => (a.min(end.as_fs() / 1_000_000), span + 10),
                    _ => (a.min(b), a.max(b)),
                };
                let (from, to) = (SimTime::from_ns(from), SimTime::from_ns(to));
                if from > end {
                    // The reference cannot clip past the end; there is
                    // nothing to integrate.
                    assert_eq!(done.energy_above_uj(53.0, from, to).to_bits(), 0);
                    continue;
                }
                let reference = energy_above_uj_reference(&done, 53.0, from, to);
                let got = done.energy_above_uj(53.0, from, to);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "[{from}, {to}] of {done:?}"
                );
                // A live trace read through `to` is the snapshot finished
                // there, as `UParc::energy_above_uj` reads it.
                if to >= last {
                    let mut snapshot = live.clone();
                    snapshot.finish(to);
                    let reference = energy_above_uj_reference(&snapshot, 53.0, from, to);
                    let got = live.energy_above_uj(53.0, from, to);
                    assert_eq!(got.to_bits(), reference.to_bits(), "live [{from}, {to}]");
                }
                windows += 1;
            }
        }
        assert!(windows > 10_000, "{windows} windows compared");
    }

    #[test]
    fn time_above_extracts_reconfiguration_duration() {
        let tr = fig7_like_trace();
        // Only the 453 mW plateau exceeds 200 mW; it lasts 180 µs.
        assert_eq!(tr.time_above(200.0), SimTime::from_us(180));
    }

    #[test]
    fn peak_is_reconfiguration_power() {
        assert!((fig7_like_trace().peak_mw() - 453.0).abs() < 1e-12);
    }

    #[test]
    fn equal_time_push_replaces() {
        let mut tr = PowerTrace::new();
        tr.push(SimTime::ZERO, 10.0);
        tr.push(SimTime::ZERO, 20.0);
        tr.finish(SimTime::from_us(1));
        assert_eq!(tr.steps().len(), 1);
        assert!((tr.energy_uj() - 20.0 * 1e-6 * 1e3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut tr = PowerTrace::new();
        tr.push(SimTime::from_us(5), 1.0);
        tr.push(SimTime::from_us(4), 1.0);
    }

    #[test]
    fn oscilloscope_round_trips_power() {
        let tr = fig7_like_trace();
        let scope = Oscilloscope::ml605().with_sample_period(SimTime::from_us(10));
        let samples = scope.sample(&tr);
        assert!(!samples.is_empty());
        for (t, p) in samples {
            let ideal = tr.power_at(t).unwrap();
            assert!(
                (p - ideal).abs() < 1e-9,
                "sample at {t} off: {p} vs {ideal}"
            );
        }
    }

    #[test]
    fn oscilloscope_chain_voltages_are_sane() {
        let scope = Oscilloscope::ml605();
        // 453 mW at 1.0 V = 453 mA; through 5 mΩ = 2.265 mV; ×100 = 226.5 mV.
        assert!((scope.current_a(453.0) - 0.453).abs() < 1e-12);
        assert!((scope.scope_voltage(453.0) - 0.2265).abs() < 1e-12);
    }

    #[test]
    fn sample_count_matches_duration() {
        let tr = fig7_like_trace();
        let scope = Oscilloscope::ml605(); // 1 µs period
        let samples = scope.sample(&tr);
        assert_eq!(samples.len(), 251); // 0..=250 µs inclusive
    }
}
