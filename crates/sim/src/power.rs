//! The power model, calibrated to the paper.
//!
//! Classically (paper §V) FPGA core power splits into *static* power
//! (leakage; voltage- and device-dependent) and *dynamic* power (switching;
//! proportional to `α·C·V²·f`). At fixed core voltage the dynamic term of a
//! component reduces to a coefficient in **mW/MHz** times its clock
//! frequency, gated by its activity (the EN signal in UReC).
//!
//! The [`calib`] module carries the constants fitted to the paper's measured
//! operating points (Figure 7 and the §V energy comparison); the analytic
//! `P_base + c·f` regression reproduces all four measured reconfiguration
//! powers within 10%, and [`calib::fig7_measured_mw`] adds the *measured
//! overhead* residual on top (the Nafkha & Louet methodology: reconfiguration
//! power overhead is a first-class measured quantity, not a fit error), which
//! makes the model **exact** at the four anchors.
//!
//! [`VfTable`] extends the model to a second axis: discrete core-voltage
//! rails with `C·V²·f` dynamic scaling and regulator settle costs for rail
//! ramps (analogous to the DCM relock cost of a frequency retune). The full
//! methodology, with worked examples, is documented in the repository's
//! `POWER.md`.

use crate::time::{Frequency, SimTime};

/// Calibration constants for the Virtex-6 (ML605) measurement setup.
///
/// Derivation: the paper reports total FPGA core power during reconfiguration
/// of a 216.5 KB bitstream at four reconfiguration frequencies
/// (Fig. 7: 50 MHz → 183 mW, 100 → 259, 200 → 394, 300 → 453), with a
/// MicroBlaze manager in an active wait at a fixed 100 MHz. A least-squares
/// fit of `P = P_base + c·f` gives `c ≈ 1.09 mW/MHz` and
/// `P_base ≈ 145 mW`, which we split into the idle floor and the manager's
/// active-wait contribution using the §V energy figures
/// (xps_hwicap: 30 µJ/KB at 1.5 MB/s ⇒ the bare copy loop dissipates
/// ≈ 45 mW above idle; UPaRC at 50 MHz: 0.66 µJ/KB ⇒ idle ≈ 53 mW).
pub mod calib {
    /// Virtex-6 core idle power (static + clock infrastructure), mW.
    pub const V6_IDLE_MW: f64 = 53.0;
    /// MicroBlaze manager in active wait for "Finish" (100 MHz), mW above idle.
    pub const MANAGER_ACTIVE_WAIT_MW: f64 = 92.0;
    /// MicroBlaze manager running the xps_hwicap word-copy driver loop,
    /// mW above idle (lower switching activity than the tight spin loop).
    pub const MANAGER_COPY_MW: f64 = 45.0;
    /// MicroBlaze manager idle/sleeping contribution, mW (folded into idle).
    pub const MANAGER_IDLE_MW: f64 = 0.0;
    /// Reconfiguration data path (BRAM read + UReC + ICAP write), mW per MHz.
    pub const RECONFIG_PATH_MW_PER_MHZ: f64 = 1.09;
    /// Hardware decompressor dynamic coefficient, mW per MHz. The paper gives
    /// no direct measurement; scaled from its ~40x slice count versus UReC
    /// with a conservative activity factor.
    pub const DECOMPRESSOR_MW_PER_MHZ: f64 = 1.8;
    /// BRAM preload port (manager side) coefficient, mW per MHz.
    pub const PRELOAD_PATH_MW_PER_MHZ: f64 = 0.35;

    /// The four measured operating points of Fig. 7:
    /// `(reconfiguration frequency in MHz, total core power in mW)`.
    pub const FIG7_POINTS: [(f64, f64); 4] = [
        (50.0, 183.0),
        (100.0, 259.0),
        (200.0, 394.0),
        (300.0, 453.0),
    ];

    /// Reconfiguration times of the 216.5 KB bitstream reported in §V, per
    /// Fig. 7 frequency: `(MHz, microseconds)`.
    pub const FIG7_TIMES_US: [(f64, f64); 4] = [
        (50.0, 1100.0),
        (100.0, 550.0),
        (200.0, 270.0),
        (300.0, 180.0),
    ];

    /// Nominal VCCINT core voltage of the measurement setup, volts. All the
    /// Fig. 7 points were measured at this rail; the `C·V²·f` scaling of
    /// [`super::VfTable`] is relative to it.
    pub const V_NOM_V: f64 = 1.0;

    /// Core-rail regulator settle latency per 100 mV of swing, µs. A rail
    /// ramp is not usable until the regulator settles, exactly like a DCM
    /// is not usable until LOCKED re-asserts after a retune.
    pub const VRAIL_SETTLE_US_PER_100MV: f64 = 25.0;

    /// The analytic regression base `P_base` (idle floor plus the manager's
    /// active wait), mW — the intercept of the `P = P_base + c·f` fit.
    #[must_use]
    pub fn analytic_base_mw() -> f64 {
        V6_IDLE_MW + MANAGER_ACTIVE_WAIT_MW
    }

    /// Measured total core power during reconfiguration at `f_mhz` and
    /// nominal voltage, mW.
    ///
    /// This is the *primary* curve of the measured-overhead methodology:
    /// piecewise-linear interpolation of the four Fig. 7 anchors (so the
    /// model is **bit-exact** at every measured point), with the path term
    /// tapered linearly to zero below the measured span and the analytic
    /// `c` slope extrapolating above it.
    #[must_use]
    pub fn fig7_measured_mw(f_mhz: f64) -> f64 {
        let (f_lo, m_lo) = FIG7_POINTS[0];
        let (f_hi, m_hi) = FIG7_POINTS[FIG7_POINTS.len() - 1];
        if f_mhz <= f_lo {
            // Below the measured span the path term scales down from the
            // 50 MHz anchor so it hits zero at DC (a clock that never
            // edges switches nothing).
            let base = analytic_base_mw();
            return base + (m_lo - base) * (f_mhz.max(0.0) / f_lo);
        }
        if f_mhz >= f_hi {
            return m_hi + RECONFIG_PATH_MW_PER_MHZ * (f_mhz - f_hi);
        }
        for w in FIG7_POINTS.windows(2) {
            let (f0, m0) = w[0];
            let (f1, m1) = w[1];
            if f_mhz <= f1 {
                return m0 + (m1 - m0) * (f_mhz - f0) / (f1 - f0);
            }
        }
        unreachable!("the anchors cover the measured span")
    }
}

/// One discrete core-voltage operating rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageRail {
    /// Stable rail name (`"low"`, `"mid"`, `"nom"`).
    pub label: &'static str,
    /// Core voltage in volts.
    pub volts: f64,
    /// Highest reconfiguration clock the rail guarantees timing at;
    /// `None` means the rail is limited only by the family's overclock
    /// ceilings (the DCM grid cap).
    pub fmax: Option<Frequency>,
}

/// Discrete (V, f) operating points per family: a small set of voltage
/// rails, each with its own timing ceiling, plus the regulator settle
/// cost charged when a plan ramps the rail (VolTune-style fine-grained
/// runtime voltage control).
///
/// Dynamic power scales as `C·V²·f`: relative to the nominal rail, a
/// point at voltage `v` draws `(v / V_nom)²` of the nominal path power
/// at the same clock. Undervolted rails cap the clock (`fmax`) because
/// logic slows down as the rail drops — that tension is exactly what the
/// 2-D planner search trades off.
///
/// # Example
///
/// ```
/// use uparc_sim::power::{calib, VfTable};
///
/// let table = VfTable::voltune_virtex6();
/// let nom = table.nominal_index();
/// assert_eq!(table.rails()[nom].volts, calib::V_NOM_V);
/// // The low rail draws (0.85)² ≈ 72% of nominal path power.
/// assert!((table.scale(0) - 0.85_f64.powi(2)).abs() < 1e-12);
/// // Ramping between distinct rails costs regulator settle time.
/// assert!(table.settle(0, nom) > uparc_sim::time::SimTime::ZERO);
/// assert_eq!(table.settle(nom, nom), uparc_sim::time::SimTime::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfTable {
    rails: Vec<VoltageRail>,
    settle_us_per_100mv: f64,
    measured_overhead: bool,
}

impl VfTable {
    /// The VolTune-style three-rail table for the Virtex-6 measurement
    /// setup: an undervolted 0.85 V rail good to 150 MHz, a 0.90 V rail
    /// good to 250 MHz, and the nominal 1.00 V rail limited only by the
    /// family ceilings. Planner predictions on the nominal rail use the
    /// measured Fig. 7 curve ([`calib::fig7_measured_mw`]).
    #[must_use]
    pub fn voltune_virtex6() -> Self {
        VfTable {
            rails: vec![
                VoltageRail {
                    label: "low",
                    volts: 0.85,
                    fmax: Some(Frequency::from_mhz(150.0)),
                },
                VoltageRail {
                    label: "mid",
                    volts: 0.90,
                    fmax: Some(Frequency::from_mhz(250.0)),
                },
                VoltageRail {
                    label: "nom",
                    volts: calib::V_NOM_V,
                    fmax: None,
                },
            ],
            settle_us_per_100mv: calib::VRAIL_SETTLE_US_PER_100MV,
            measured_overhead: true,
        }
    }

    /// The degenerate pre-DVFS table: the nominal rail only, zero settle,
    /// and the analytic (pre-overhead) power model — the configuration
    /// under which the (V, f) planner is bit-identical to the
    /// frequency-only planner it replaced.
    #[must_use]
    pub fn nominal_only() -> Self {
        VfTable {
            rails: vec![VoltageRail {
                label: "nom",
                volts: calib::V_NOM_V,
                fmax: None,
            }],
            settle_us_per_100mv: 0.0,
            measured_overhead: false,
        }
    }

    /// The rails, ascending by voltage.
    #[must_use]
    pub fn rails(&self) -> &[VoltageRail] {
        &self.rails
    }

    /// Index of the nominal rail.
    ///
    /// # Panics
    ///
    /// Panics if the table carries no rail at [`calib::V_NOM_V`] (every
    /// constructor includes one).
    #[must_use]
    pub fn nominal_index(&self) -> usize {
        self.rails
            .iter()
            .position(|r| r.volts == calib::V_NOM_V)
            .expect("every table carries the nominal rail")
    }

    /// Whether planner predictions on this table use the measured Fig. 7
    /// curve (`true`) or the analytic `P_base + c·f` regression (`false`,
    /// the pre-DVFS behaviour).
    #[must_use]
    pub fn measured_overhead(&self) -> bool {
        self.measured_overhead
    }

    /// The `(v / V_nom)²` dynamic-power scale of rail `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn scale(&self, idx: usize) -> f64 {
        let r = self.rails[idx].volts / calib::V_NOM_V;
        r * r
    }

    /// Regulator settle time for a ramp from rail `from` to rail `to`
    /// (zero for `from == to`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn settle(&self, from: usize, to: usize) -> SimTime {
        let dv = (self.rails[from].volts - self.rails[to].volts).abs();
        SimTime::from_secs_f64(dv / 0.1 * self.settle_us_per_100mv * 1e-6)
    }
}

/// Total core power while the reconfiguration path is clocked at `freq`
/// on a rail at `volts`, with the manager drawing `wait_mw` above idle,
/// mW: `idle + wait + (volts / V_nom)² · path(freq)`. Every power
/// prediction and every simulated transfer draw goes through this one
/// formula.
///
/// `measured` selects the path term: the Nafkha-&-Louet measured-overhead
/// curve (the Fig. 7 totals above the analytic base) or the analytic
/// `c·f` regression. Fig. 7 was measured at nominal voltage with an
/// actively-waiting manager; under exactly those conditions the measured
/// model returns the curve itself, without a base/path round trip, so
/// the four anchors stay exact.
#[must_use]
pub fn core_power_mw(volts: f64, wait_mw: f64, freq: Frequency, measured: bool) -> f64 {
    let r = volts / calib::V_NOM_V;
    let scale = r * r;
    let mhz = freq.as_mhz();
    let path = if measured {
        if scale == 1.0 && wait_mw == calib::MANAGER_ACTIVE_WAIT_MW {
            return calib::fig7_measured_mw(mhz);
        }
        calib::fig7_measured_mw(mhz) - calib::analytic_base_mw()
    } else {
        calib::RECONFIG_PATH_MW_PER_MHZ * mhz
    };
    calib::V6_IDLE_MW + wait_mw + scale * path
}

/// Draw of the hardware decompressor clocked at `freq` on a rail at
/// `volts`, mW above idle: `(volts / V_nom)² · c_dec · f`, added on top
/// of [`core_power_mw`] during a compressed transfer.
#[must_use]
pub fn decompressor_power_mw(volts: f64, freq: Frequency) -> f64 {
    let r = volts / calib::V_NOM_V;
    r * r * (calib::DECOMPRESSOR_MW_PER_MHZ * freq.as_mhz())
}

/// Total core power while UPaRC reconfigures at `freq` on a rail at
/// `volts`, with the actively-waiting manager — the (V, f) extension of
/// the Fig. 7 curve. At nominal voltage this *is* the measured curve
/// ([`calib::fig7_measured_mw`], exact at the anchors); off-nominal, the
/// path term (measured overhead included) scales as `(v / V_nom)²`.
///
/// # Example
///
/// ```
/// use uparc_sim::power::{calib, reconfiguration_power_vf_mw};
/// use uparc_sim::time::Frequency;
///
/// // All four Fig. 7 anchors reproduce exactly at nominal voltage.
/// for (mhz, mw) in calib::FIG7_POINTS {
///     assert_eq!(
///         reconfiguration_power_vf_mw(calib::V_NOM_V, Frequency::from_mhz(mhz)),
///         mw,
///     );
/// }
/// // Undervolting scales only the path term, not the idle/manager base.
/// let p = reconfiguration_power_vf_mw(0.85, Frequency::from_mhz(100.0));
/// let expected = calib::analytic_base_mw() + 0.85_f64.powi(2) * (259.0 - calib::analytic_base_mw());
/// assert!((p - expected).abs() < 1e-9);
/// ```
#[must_use]
pub fn reconfiguration_power_vf_mw(volts: f64, freq: Frequency) -> f64 {
    core_power_mw(volts, calib::MANAGER_ACTIVE_WAIT_MW, freq, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_curve_is_exact_at_every_anchor() {
        // The regression anchor of the DVFS model: the measured-overhead
        // curve reproduces all four Fig. 7 points bit-exactly, not within
        // a tolerance.
        for (mhz, mw) in calib::FIG7_POINTS {
            assert_eq!(calib::fig7_measured_mw(mhz), mw, "{mhz} MHz");
            assert_eq!(
                reconfiguration_power_vf_mw(calib::V_NOM_V, Frequency::from_mhz(mhz)),
                mw,
                "{mhz} MHz at nominal voltage"
            );
        }
    }

    #[test]
    fn measured_curve_interpolates_and_extrapolates_sanely() {
        // Between anchors: linear. 150 MHz sits midway on the 100→200
        // segment.
        let mid = calib::fig7_measured_mw(150.0);
        assert!((mid - (259.0 + 394.0) / 2.0).abs() < 1e-9, "{mid}");
        // Below the span the path term tapers to zero at DC.
        assert!((calib::fig7_measured_mw(0.0) - calib::analytic_base_mw()).abs() < 1e-12);
        let low = calib::fig7_measured_mw(25.0);
        assert!(low > calib::analytic_base_mw() && low < 183.0, "{low}");
        // Above the span the analytic slope extrapolates.
        let high = calib::fig7_measured_mw(362.5);
        assert!(
            (high - (453.0 + 1.09 * 62.5)).abs() < 1e-9,
            "{high} vs analytic extrapolation"
        );
    }

    #[test]
    fn vf_power_scales_the_path_term_quadratically() {
        let f = Frequency::from_mhz(150.0);
        let base = calib::analytic_base_mw();
        let nominal_path = reconfiguration_power_vf_mw(calib::V_NOM_V, f) - base;
        for volts in [0.85, 0.90, 0.95] {
            let path = reconfiguration_power_vf_mw(volts, f) - base;
            let ratio = path / nominal_path;
            assert!(
                (ratio - volts * volts).abs() < 1e-9,
                "{volts} V: path ratio {ratio}"
            );
        }
    }

    #[test]
    fn voltune_table_rails_are_ordered_and_settle_is_symmetric() {
        let t = VfTable::voltune_virtex6();
        assert!(t.rails().windows(2).all(|w| w[0].volts < w[1].volts));
        assert_eq!(t.rails()[t.nominal_index()].volts, calib::V_NOM_V);
        assert!(t.measured_overhead());
        let n = t.rails().len();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(t.settle(a, b), t.settle(b, a));
                if a == b {
                    assert_eq!(t.settle(a, b), SimTime::ZERO);
                } else {
                    assert!(t.settle(a, b) > SimTime::ZERO);
                    // No ramp is longer than the full rail swing.
                    assert!(t.settle(a, b) <= t.settle(0, n - 1));
                }
            }
        }
        // 0.85 → 1.00 V is 1.5 swings of 100 mV at 25 µs each.
        let full = t.settle(0, t.nominal_index());
        assert!((full.as_us_f64() - 1.5 * calib::VRAIL_SETTLE_US_PER_100MV).abs() < 1e-6);
    }

    #[test]
    fn nominal_only_table_is_the_pre_dvfs_configuration() {
        let t = VfTable::nominal_only();
        assert_eq!(t.rails().len(), 1);
        assert_eq!(t.nominal_index(), 0);
        assert!(!t.measured_overhead());
        assert_eq!(t.scale(0), 1.0);
    }

    #[test]
    fn analytic_curve_is_the_least_squares_fit_of_fig7() {
        // DESIGN §3: the analytic `P_base + c·f` is the least-squares line
        // through the four Fig. 7 anchors (closed-form simple regression).
        let pts = calib::FIG7_POINTS;
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
        let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        assert!(
            (slope - calib::RECONFIG_PATH_MW_PER_MHZ).abs() < 5e-3,
            "slope {slope}"
        );
        assert!(
            (intercept - calib::analytic_base_mw()).abs() < 0.5,
            "intercept {intercept}"
        );
    }

    #[test]
    fn fig7_energy_decreases_with_frequency() {
        // Paper §V: with an actively-waiting manager, higher reconfiguration
        // frequency takes less time, so total energy decreases.
        let mut last = f64::INFINITY;
        for (mhz, us) in calib::FIG7_TIMES_US {
            let p = reconfiguration_power_vf_mw(calib::V_NOM_V, Frequency::from_mhz(mhz));
            let e = p * us; // nJ-scale proportional
            assert!(e < last, "energy must decrease with frequency");
            last = e;
        }
    }
}
