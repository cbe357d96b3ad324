//! Simulation time and frequency arithmetic.
//!
//! Simulated time is kept in integer **femtoseconds** so that every clock
//! frequency the UPaRC paper uses has an exactly representable period
//! ordering: 362.5 MHz has a period of 2 758 620 fs (truncated from
//! 2 758 620.689…), and cycle→time conversion is done with 128-bit
//! multiply-then-divide so the error never accumulates beyond one
//! femtosecond regardless of cycle count.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Femtoseconds per second (`1e15`).
pub const FS_PER_SEC: u64 = 1_000_000_000_000_000;
/// Femtoseconds per millisecond.
pub const FS_PER_MS: u64 = 1_000_000_000_000;
/// Femtoseconds per microsecond.
pub const FS_PER_US: u64 = 1_000_000_000;
/// Femtoseconds per nanosecond.
pub const FS_PER_NS: u64 = 1_000_000;
/// Femtoseconds per picosecond.
pub const FS_PER_PS: u64 = 1_000;

/// An instant (or duration) of simulated time, in femtoseconds.
///
/// `SimTime` is used both as a point on the simulation timeline and as a
/// duration; the arithmetic operators implement the usual affine mixing
/// (instant − instant = duration, instant + duration = instant).
///
/// The u64 range covers ~5.1 hours of simulated time at femtosecond
/// resolution, far beyond the sub-second experiments of the paper.
///
/// # Example
///
/// ```
/// use uparc_sim::time::SimTime;
///
/// let t = SimTime::from_us(550);
/// assert_eq!(t.as_ns(), 550_000);
/// assert!(t > SimTime::from_us(549));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (~5.1 simulated hours).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw femtoseconds.
    #[must_use]
    pub const fn from_fs(fs: u64) -> Self {
        SimTime(fs)
    }

    /// Creates a time from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps * FS_PER_PS)
    }

    /// Creates a time from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * FS_PER_NS)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * FS_PER_US)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * FS_PER_MS)
    }

    /// Creates a time from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * FS_PER_SEC)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// femtosecond. Negative or non-finite inputs saturate to zero.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let fs = s * FS_PER_SEC as f64;
        if fs >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(fs.round() as u64)
        }
    }

    /// Raw femtosecond count.
    #[must_use]
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// Truncating conversion to nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0 / FS_PER_NS
    }

    /// Truncating conversion to microseconds.
    #[must_use]
    pub const fn as_us(self) -> u64 {
        self.0 / FS_PER_US
    }

    /// Conversion to fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / FS_PER_SEC as f64
    }

    /// Conversion to fractional milliseconds.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / FS_PER_MS as f64
    }

    /// Conversion to fractional microseconds.
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / FS_PER_US as f64
    }

    /// Conversion to fractional nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating subtraction (clamps at [`SimTime::ZERO`]).
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// `true` iff this is time zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflow"),
        )
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("simulation time overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fs = self.0;
        if fs >= FS_PER_MS {
            write!(f, "{:.3} ms", self.as_ms_f64())
        } else if fs >= FS_PER_US {
            write!(f, "{:.3} us", self.as_us_f64())
        } else if fs >= FS_PER_NS {
            write!(f, "{:.3} ns", self.as_ns_f64())
        } else {
            write!(f, "{fs} fs")
        }
    }
}

/// A clock frequency in integer hertz.
///
/// The newtype keeps frequency arithmetic exact: cycle→time conversions go
/// through 128-bit integers, so `time_of_cycles(n)` is monotone in `n` and
/// never drifts more than 1 fs from the ideal `n / f`.
///
/// # Example
///
/// ```
/// use uparc_sim::time::Frequency;
///
/// // The paper's headline operating point.
/// let f = Frequency::from_mhz(362.5);
/// assert_eq!(f.as_hz(), 362_500_000);
/// // 32-bit ICAP word per cycle => 1.45 GB/s theoretical bandwidth.
/// assert_eq!(f.as_hz() * 4, 1_450_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from integer hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero — a stopped clock has no period.
    #[must_use]
    pub const fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency(hz)
    }

    /// Creates a frequency from (possibly fractional) megahertz, rounding to
    /// the nearest hertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not finite and strictly positive.
    #[must_use]
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(
            mhz.is_finite() && mhz > 0.0,
            "frequency must be finite and positive, got {mhz}"
        );
        Frequency::from_hz((mhz * 1e6).round() as u64)
    }

    /// The frequency in hertz.
    #[must_use]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The frequency in fractional megahertz.
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The period of one cycle, truncated to the femtosecond below.
    ///
    /// Prefer [`Frequency::time_of_cycles`] for multi-cycle spans — it does
    /// not accumulate the truncation error.
    #[must_use]
    pub fn period(self) -> SimTime {
        SimTime::from_fs(FS_PER_SEC / self.0)
    }

    /// Exact time at which cycle `n` completes (cycle 0 completes after one
    /// period), with ≤1 fs total error.
    #[must_use]
    pub fn time_of_cycles(self, cycles: u64) -> SimTime {
        let fs = (cycles as u128 * FS_PER_SEC as u128) / self.0 as u128;
        assert!(fs <= u64::MAX as u128, "cycle count overflows SimTime");
        SimTime::from_fs(fs as u64)
    }

    /// Number of *complete* cycles inside `window`: the floor inverse the
    /// tests check [`Frequency::time_of_cycles`] against.
    #[cfg(test)]
    fn cycles_in(self, window: SimTime) -> u64 {
        let c = (window.as_fs() as u128 * self.0 as u128) / FS_PER_SEC as u128;
        c as u64
    }

    /// Multiplies by a rational factor `m / d` (the DCM output equation
    /// `F_out = F_in · M / D`), rounding to the nearest hertz.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero or the result rounds to zero hertz.
    #[must_use]
    pub fn scaled(self, m: u32, d: u32) -> Frequency {
        assert!(d > 0, "division factor must be non-zero");
        let hz = (self.0 as u128 * m as u128 + (d as u128 / 2)) / d as u128;
        assert!(
            hz > 0 && hz <= u64::MAX as u128,
            "scaled frequency out of range"
        );
        Frequency::from_hz(hz as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.6} MHz", self.as_mhz())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} kHz", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_unit_constructors_agree() {
        assert_eq!(SimTime::from_ps(1), SimTime::from_fs(1_000));
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(3);
        assert_eq!(a + b, SimTime::from_ns(8));
        assert_eq!(a - b, SimTime::from_ns(2));
        assert_eq!(a * 4, SimTime::from_ns(20));
        assert_eq!(a / 5, SimTime::from_ns(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn simtime_sub_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn simtime_from_secs_f64_rounds_and_saturates() {
        assert_eq!(SimTime::from_secs_f64(1e-15), SimTime::from_fs(1));
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn simtime_display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_fs(12)), "12 fs");
        assert_eq!(format!("{}", SimTime::from_ns(1)), "1.000 ns");
        assert_eq!(format!("{}", SimTime::from_us(550)), "550.000 us");
        assert_eq!(format!("{}", SimTime::from_ms(2)), "2.000 ms");
    }

    #[test]
    fn frequency_period_of_paper_clocks() {
        // 100 MHz -> 10 ns.
        assert_eq!(Frequency::from_mhz(100.0).period(), SimTime::from_ns(10));
        // 362.5 MHz -> 2.758620... ns, truncated to fs.
        assert_eq!(
            Frequency::from_mhz(362.5).period(),
            SimTime::from_fs(2_758_620)
        );
    }

    #[test]
    fn frequency_time_of_cycles_has_no_drift() {
        let f = Frequency::from_mhz(362.5);
        // One million cycles at 362.5 MHz is exactly 1e6/362.5e6 s.
        let t = f.time_of_cycles(1_000_000);
        let ideal_fs = 1_000_000u128 * FS_PER_SEC as u128 / 362_500_000u128;
        assert_eq!(t.as_fs() as u128, ideal_fs);
        // Per-period truncation would have lost ~0.689 fs per cycle.
        let accumulated = f.period() * 1_000_000;
        assert!(t > accumulated);
    }

    #[test]
    fn frequency_cycles_in_inverts_time_of_cycles() {
        for &mhz in &[50.0, 100.0, 126.0, 200.0, 255.0, 300.0, 362.5] {
            let f = Frequency::from_mhz(mhz);
            for &n in &[1u64, 7, 1000, 123_456] {
                let t = f.time_of_cycles(n);
                let c = f.cycles_in(t);
                assert!(
                    c == n || c + 1 == n,
                    "{mhz} MHz, n={n}: round-trip gave {c}"
                );
            }
        }
    }

    #[test]
    fn frequency_scaled_matches_dcm_equation() {
        // The paper's DyCloGen point: 100 MHz * 29 / 8 = 362.5 MHz.
        let f = Frequency::from_mhz(100.0).scaled(29, 8);
        assert_eq!(f, Frequency::from_mhz(362.5));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn frequency_zero_rejected() {
        let _ = Frequency::from_hz(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn time_of_cycles_is_monotone_and_tight(
            hz in 1_000_000u64..500_000_000,
            n in 0u64..10_000_000,
        ) {
            let f = Frequency::from_hz(hz);
            let t0 = f.time_of_cycles(n);
            let t1 = f.time_of_cycles(n + 1);
            prop_assert!(t1 > t0, "strictly monotone");
            // Each cycle adds one period, up to 1 fs of truncation.
            let step = (t1 - t0).as_fs();
            let period = FS_PER_SEC / hz;
            prop_assert!(step == period || step == period + 1);
        }

        #[test]
        fn cycles_in_is_a_floor_inverse(
            hz in 1_000_000u64..500_000_000,
            n in 1u64..5_000_000,
        ) {
            let f = Frequency::from_hz(hz);
            let t = f.time_of_cycles(n);
            let c = f.cycles_in(t);
            // Truncation can lose at most one cycle.
            prop_assert!(c == n || c + 1 == n, "n={n}, c={c}");
            // And just before the nth edge, strictly fewer cycles fit.
            let before = t.saturating_sub(SimTime::from_fs(2));
            prop_assert!(f.cycles_in(before) < n);
        }

        #[test]
        fn scaled_matches_rational_arithmetic(
            hz in 1_000_000u64..200_000_000,
            m in 1u32..64,
            d in 1u32..64,
        ) {
            let f = Frequency::from_hz(hz).scaled(m, d);
            let exact = (u128::from(hz) * u128::from(m) + u128::from(d / 2)) / u128::from(d);
            prop_assert_eq!(u128::from(f.as_hz()), exact);
        }

        #[test]
        fn simtime_add_sub_round_trip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let x = SimTime::from_fs(a);
            let y = SimTime::from_fs(b);
            prop_assert_eq!((x + y) - y, x);
            prop_assert_eq!(x.saturating_sub(y) , SimTime::from_fs(a.saturating_sub(b)));
        }
    }
}
