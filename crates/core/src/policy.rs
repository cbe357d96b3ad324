//! Power-aware frequency selection (paper §III-A3 and §V).
//!
//! "The power-aware solution is to use the lowest possible frequency which
//! meets timing constraints for the current application" (§V). The policy
//! searches the DCM-synthesisable frequency grid and picks the operating
//! point for a constraint:
//!
//! * [`Constraint::Deadline`] — slowest clock that still finishes in time
//!   (minimum power);
//! * [`Constraint::PowerBudget`] — fastest clock under a power cap;
//! * [`Constraint::MinEnergy`] — minimum-energy point, which *depends on
//!   the manager*: with an active wait, energy falls with frequency (run
//!   fast, finish early); with an event-driven manager it is flat in the
//!   path term and the slowest clock wins (§V's closing discussion);
//! * [`Constraint::MaxThroughput`] — the 362.5 MHz headline point.
//!
//! One search answers every question: [`PowerAwarePolicy::plan_vf`]
//! searches the (V, f) frontier of the policy's [`VfTable`] — path power
//! scales as `C·V²·f`, undervolted rails cap the clock, and switching
//! rails charges the regulator settle into both the predicted time and the
//! predicted energy. The policy builds the DCM frequency grid once, and
//! tabulates each rail's admissible prefix of it with the power there
//! once per table, so a query binary-searches at most three sorted
//! columns and allocates nothing. [`PowerAwarePolicy::plan`] is the
//! paper's 1-D view of it: a [`VfQuery::frequency_only`] query, which
//! pins the search to the nominal rail with the analytic (pre-DVFS) power
//! model and stays bit-identical to the original frequency-only planner
//! (see `POWER.md` for the methodology and the regression anchors).

use std::ops::Range;

use crate::error::UparcError;
use crate::manager::{self, Manager, ManagerConfig};
use uparc_fpga::dcm::DcmConstraints;
use uparc_fpga::family::Family;
use uparc_sim::power::{self, calib, VfTable};
use uparc_sim::time::{Frequency, SimTime};

/// A run-time constraint on a reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// Finish within the deadline (module downtime bound).
    Deadline(SimTime),
    /// Keep total core power at or below this many mW.
    PowerBudget {
        /// Total power cap (idle included), mW.
        mw: f64,
    },
    /// Minimise reconfiguration energy.
    MinEnergy,
    /// Minimise reconfiguration time.
    MaxThroughput,
}

/// The frequency-axis constraints of a [`VfQuery`].
///
/// Online schedulers (the `uparc-serve` admission/dispatch layer) pick an
/// operating point under *several* constraints at once: a hardware or
/// datapath frequency ceiling, the request's remaining deadline, the
/// residual chip-level power budget, and an optional per-request energy
/// budget. `None` leaves a dimension unconstrained.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanQuery {
    /// Raw bitstream size in bytes.
    pub bytes: usize,
    /// Hard frequency ceiling (e.g. 255 MHz for the compressed datapath).
    pub max_frequency: Option<Frequency>,
    /// Remaining time until the request's deadline.
    pub deadline: Option<SimTime>,
    /// Total-power cap in mW (idle included, same convention as
    /// [`Constraint::PowerBudget`]).
    pub power_cap_mw: Option<f64>,
    /// Per-request above-idle energy budget in µJ.
    pub energy_budget_uj: Option<f64>,
}

/// A 2-D (V, f) operating-point query for [`PowerAwarePolicy::plan_vf`].
#[derive(Debug, Clone, Copy, Default)]
pub struct VfQuery {
    /// The frequency-axis constraints (size, ceiling, deadline, caps).
    pub base: PlanQuery,
    /// The lane's current rail (index into the policy's [`VfTable`]);
    /// plans that switch rails are charged the regulator settle in both
    /// predicted time and predicted energy. `None` means the rail is
    /// already wherever the plan needs it (no ramp cost).
    pub current_rail: Option<usize>,
    /// Ceiling on rail voltage — thermal throttling demotes operating
    /// points by lowering this. When it excludes every rail, the search
    /// falls back to the lowest-voltage (coolest) rail.
    pub max_volts: Option<f64>,
    /// Pin the search to the nominal rail and the analytic (pre-DVFS)
    /// `c·f` power model. This makes the 2-D machinery degenerate
    /// bit-exactly to the original frequency-only planner.
    pub frequency_only: bool,
}

impl VfQuery {
    /// A full 2-D query over `base`'s constraints.
    #[must_use]
    pub fn new(base: PlanQuery) -> Self {
        VfQuery {
            base,
            ..VfQuery::default()
        }
    }

    /// The backward-compatible query: nominal rail, analytic power model.
    #[must_use]
    pub fn frequency_only(base: PlanQuery) -> Self {
        VfQuery {
            base,
            frequency_only: true,
            ..VfQuery::default()
        }
    }
}

/// A selected (V, f) operating point with its predictions.
#[derive(Debug, Clone, Copy)]
pub struct VfPlan {
    /// Index of the selected rail in the policy's [`VfTable`].
    pub rail: usize,
    /// The selected core voltage, volts.
    pub volts: f64,
    /// The CLK_2 target to hand to DyCloGen.
    pub frequency: Frequency,
    /// Regulator settle charged for reaching the rail from
    /// [`VfQuery::current_rail`] (zero when no ramp is needed).
    pub settle: SimTime,
    /// Predicted Start→Finish latency, rail settle included.
    pub predicted_time: SimTime,
    /// Predicted total core power during the transfer, mW.
    pub predicted_power_mw: f64,
    /// Predicted above-idle energy, µJ, ramp cost included.
    pub predicted_energy_uj: f64,
}

/// The frequency-selection policy for UPaRC_i (raw staging).
#[derive(Debug, Clone)]
pub struct PowerAwarePolicy {
    manager: Manager,
    vf: VfTable,
    /// The DCM-synthesisable CLK_2 grid up to the raw-mode cap, strictly
    /// ascending.
    grid: Vec<Frequency>,
    /// Per rail of `vf`, the total core power at each grid point up to
    /// the rail's `fmax`, in the table's power model, mW. A column's
    /// length is the rail's prefix of the grid, and on one rail power
    /// does not fall as f rises.
    rail_power_mw: Vec<Vec<f64>>,
    /// The nominal rail's column in the analytic model: what
    /// [`VfQuery::frequency_only`] queries plan on.
    nominal_analytic_mw: Vec<f64>,
}

impl PowerAwarePolicy {
    /// A policy for `family` with DyCloGen reference `fin` and the given
    /// manager behaviour. The (V, f) table defaults to the VolTune-style
    /// three-rail table calibrated on the paper's Virtex-6 measurements
    /// (like the rest of the power model); use
    /// [`PowerAwarePolicy::with_vf_table`] to override it.
    #[must_use]
    pub fn new(family: Family, fin: Frequency, manager: ManagerConfig) -> Self {
        let cap = family
            .icap_overclock_limit()
            .min(family.bram_overclock_limit());
        let mut grid: Vec<Frequency> = DcmConstraints::for_family(family)
            .synthesisable(fin)
            .map(|(_, _, f)| f)
            .filter(|&f| f <= cap)
            .collect();
        grid.sort_unstable();
        grid.dedup();
        PowerAwarePolicy {
            manager: Manager::with_config(manager),
            vf: VfTable::voltune_virtex6(),
            grid,
            rail_power_mw: Vec::new(),
            nominal_analytic_mw: Vec::new(),
        }
        .tabulated()
    }

    /// Replaces the (V, f) operating-point table and re-tabulates the
    /// frontier for it.
    #[must_use]
    pub fn with_vf_table(mut self, vf: VfTable) -> Self {
        self.vf = vf;
        self.tabulated()
    }

    /// Tabulates the frontier of the current table over the grid: each
    /// rail's `fmax` prefix with its power in the table's model, and the
    /// nominal rail's analytic column.
    fn tabulated(mut self) -> Self {
        let column = |volts: f64, fmax: Option<Frequency>, measured: bool| -> Vec<f64> {
            let len = self
                .grid
                .partition_point(|&f| fmax.is_none_or(|cap| f <= cap));
            let column: Vec<f64> = self.grid[..len]
                .iter()
                .map(|&f| self.power_mw(volts, f, measured))
                .collect();
            debug_assert!(
                column.windows(2).all(|w| w[0] <= w[1]),
                "power falls with f on the {volts} V rail"
            );
            column
        };
        let rails = self.vf.rails();
        debug_assert!(
            rails.windows(2).all(|w| w[0].volts <= w[1].volts),
            "rails ascend by voltage"
        );
        let measured = self.vf.measured_overhead();
        let rail_power_mw = rails
            .iter()
            .map(|r| column(r.volts, r.fmax, measured))
            .collect();
        let nominal = &rails[self.vf.nominal_index()];
        let nominal_analytic_mw = column(nominal.volts, nominal.fmax, false);
        self.rail_power_mw = rail_power_mw;
        self.nominal_analytic_mw = nominal_analytic_mw;
        self
    }

    /// The policy's (V, f) operating-point table.
    #[must_use]
    pub fn vf_table(&self) -> &VfTable {
        &self.vf
    }

    /// The paper's setup: 100 MHz reference, actively-waiting MicroBlaze.
    #[must_use]
    pub fn paper_setup(family: Family) -> Self {
        PowerAwarePolicy::new(family, Frequency::from_mhz(100.0), ManagerConfig::default())
    }

    /// All synthesisable CLK_2 frequencies up to the raw-mode cap,
    /// ascending and deduplicated (built once, in
    /// [`PowerAwarePolicy::new`]).
    #[must_use]
    pub fn frequency_grid(&self) -> &[Frequency] {
        &self.grid
    }

    /// Predicted Start→Finish latency for `bytes` of raw bitstream at `f`.
    #[must_use]
    pub fn predicted_time(&self, bytes: usize, f: Frequency) -> SimTime {
        // Mode word + one word per cycle.
        let words = (bytes as u64).div_ceil(4) + 1;
        self.manager.control_overhead() + f.time_of_cycles(words)
    }

    /// Predicted total core power during the transfer at `f` on the
    /// nominal rail (analytic model), mW.
    #[must_use]
    pub fn predicted_power_mw(&self, f: Frequency) -> f64 {
        self.power_mw(calib::V_NOM_V, f, false)
    }

    /// Predicted above-idle energy for `bytes` at `f` on the nominal rail
    /// (analytic model), µJ.
    #[must_use]
    pub fn predicted_energy_uj(&self, bytes: usize, f: Frequency) -> f64 {
        self.energy_uj(bytes, f, self.predicted_power_mw(f), SimTime::ZERO)
    }

    /// The steady above-idle draw the planner charges for the hardware
    /// decompressor during a compressed transfer, mW: the decompressor
    /// at the manager's clock on the nominal rail.
    #[must_use]
    pub fn decompressor_draw_mw(&self) -> f64 {
        power::decompressor_power_mw(calib::V_NOM_V, manager::CLOCK)
    }

    /// Total core power at an arbitrary (V, f) point, mW
    /// ([`power::core_power_mw`] with this policy's manager).
    fn power_mw(&self, volts: f64, f: Frequency, measured: bool) -> f64 {
        power::core_power_mw(volts, self.manager.wait_power_mw(), f, measured)
    }

    /// Above-idle energy of a transfer of `bytes` at clock `f` drawing
    /// `power_mw` in total, µJ, with the regulator `settle` charged at the
    /// manager's active-wait draw (the manager spins while the rail
    /// ramps, exactly as during a DCM relock).
    fn energy_uj(&self, bytes: usize, f: Frequency, power_mw: f64, settle: SimTime) -> f64 {
        let control = self.manager.control_overhead();
        let words = (bytes as u64).div_ceil(4) + 1;
        let transfer = f.time_of_cycles(words);
        calib::MANAGER_ACTIVE_WAIT_MW * control.as_secs_f64() * 1e3
            + (power_mw - calib::V6_IDLE_MW) * transfer.as_secs_f64() * 1e3
            + calib::MANAGER_ACTIVE_WAIT_MW * settle.as_secs_f64() * 1e3
    }

    /// Selects the operating point for `constraint` on a raw bitstream of
    /// `bytes`: the paper's 1-D view of [`PowerAwarePolicy::plan_vf`].
    /// Deadline, power-budget and throughput constraints are
    /// [`VfQuery::frequency_only`] queries; the minimum-energy point is a
    /// scan of the grid that resolves ties to the slowest clock.
    ///
    /// # Errors
    ///
    /// [`UparcError::DeadlineInfeasible`] / [`UparcError::BudgetInfeasible`]
    /// when no grid point satisfies the constraint.
    pub fn plan(&self, constraint: Constraint, bytes: usize) -> Result<VfPlan, UparcError> {
        let mut q = PlanQuery {
            bytes,
            ..PlanQuery::default()
        };
        match constraint {
            Constraint::MaxThroughput => {}
            Constraint::Deadline(deadline) => q.deadline = Some(deadline),
            Constraint::PowerBudget { mw } => q.power_cap_mw = Some(mw),
            Constraint::MinEnergy => {
                // Ties (the event-driven manager makes energy flat in
                // frequency) resolve to the *slowest* clock: same energy,
                // lower peak power. The fastest point at or below the
                // winner is the winner itself.
                let grid = &self.grid;
                let mut best = (grid[0], self.predicted_energy_uj(bytes, grid[0]));
                for &f in &grid[1..] {
                    let uj = self.predicted_energy_uj(bytes, f);
                    if uj < best.1 - 1e-9 {
                        best = (f, uj);
                    }
                }
                q.max_frequency = Some(best.0);
            }
        }
        let plan = self.plan_vf(&VfQuery::frequency_only(q))?;
        match constraint {
            Constraint::Deadline(deadline) if plan.predicted_time > deadline => {
                Err(UparcError::DeadlineInfeasible {
                    deadline,
                    best: plan.predicted_time,
                })
            }
            _ => Ok(plan),
        }
    }

    /// Selects a (V, f) operating point under all the constraints of `q`
    /// at once, with ramp costs charged into the plan.
    ///
    /// The search runs on the frontier tabulated at construction: per
    /// rail in play, binary searches over the ascending grid and the
    /// rail's power column find the ceiling's prefix, the power cap's
    /// prefix (power does not fall as f rises on one rail), the fastest
    /// point (the top of the capped prefix) and the cheapest
    /// deadline-meeting point (the first capped point that meets the
    /// deadline, since time does not rise with f). Energy is not monotone
    /// in f, so a query with an energy budget scans its capped prefixes
    /// instead. Undervolted rails drop their above-`fmax` clocks; a
    /// thermal `max_volts` that excludes every rail falls back to the
    /// lowest-voltage rail rather than refusing to plan (a throttled lane
    /// must still be able to cool down at the cheapest point). A call
    /// allocates nothing.
    ///
    /// The selection rule is power-aware (§V): among the admissible
    /// points that **meet the deadline** (regulator settle included),
    /// pick the lowest-power one, breaking ties towards lower energy,
    /// then lower voltage, then the slower clock. When no admissible
    /// point meets the deadline — or no deadline is given — return the
    /// fastest admissible point (best effort), preferring the higher
    /// clock, then lower power, then lower voltage on ties. Remaining
    /// ties go to the earlier rail in the table.
    ///
    /// With [`VfQuery::frequency_only`] the answer is bit-identical to
    /// the pre-DVFS frequency-only planner (the backward-compat pin in
    /// the property suite).
    ///
    /// # Errors
    ///
    /// * [`UparcError::UnknownRail`] — a 2-D query's `current_rail` is
    ///   not in the policy's table.
    /// * [`UparcError::Frequency`] — `max_frequency` is below the whole
    ///   grid (no synthesisable point under the ceiling), or every rail's
    ///   `fmax` is.
    /// * [`UparcError::BudgetInfeasible`] — `power_cap_mw` is below every
    ///   point (the floor reported is the cheapest point after the
    ///   frequency filter).
    /// * [`UparcError::EnergyBudgetInfeasible`] — `energy_budget_uj` is
    ///   below the minimum achievable energy for this size.
    pub fn plan_vf(&self, q: &VfQuery) -> Result<VfPlan, UparcError> {
        let rails = self.vf.rails();
        if let Some(rail) = q
            .current_rail
            .filter(|&r| !q.frequency_only && r >= rails.len())
        {
            return Err(UparcError::UnknownRail {
                rail,
                rails: rails.len(),
            });
        }
        let b = &q.base;
        // The grid ascends, so the ceiling keeps a prefix of it.
        let ceiling = self
            .grid
            .partition_point(|&f| b.max_frequency.is_none_or(|m| f <= m));
        let Some(&slowest) = self.grid[..ceiling].first() else {
            let max = b.max_frequency.expect("unfiltered grid is never empty");
            return Err(UparcError::Frequency {
                requested: max,
                max,
                limited_by: "dcm grid",
            });
        };
        let in_play = self.rails_in_play(q);
        let (mut any_point, mut power_floor) = (false, f64::INFINITY);
        let (mut any_capped, mut energy_floor) = (false, f64::INFINITY);
        let (mut fastest, mut cheapest): (Option<VfPlan>, Option<VfPlan>) = (None, None);
        for rail in in_play.clone() {
            let column = if q.frequency_only {
                &self.nominal_analytic_mw
            } else {
                &self.rail_power_mw[rail]
            };
            let power = &column[..column.len().min(ceiling)];
            let Some(&floor) = power.first() else {
                continue;
            };
            any_point = true;
            power_floor = power_floor.min(floor);
            let capped = power.partition_point(|&p| b.power_cap_mw.is_none_or(|cap| p <= cap));
            if capped == 0 {
                continue;
            }
            any_capped = true;
            let settle = match q.current_rail {
                Some(from) if !q.frequency_only => self.vf.settle(from, rail),
                _ => SimTime::ZERO,
            };
            let grid = &self.grid[..capped];
            let point = |i: usize| {
                let (f, power) = (grid[i], power[i]);
                VfPlan {
                    rail,
                    volts: rails[rail].volts,
                    frequency: f,
                    settle,
                    predicted_time: settle + self.predicted_time(b.bytes, f),
                    predicted_power_mw: power,
                    predicted_energy_uj: self.energy_uj(b.bytes, f, power, settle),
                }
            };
            let meets = |plan: &VfPlan| b.deadline.is_some_and(|d| plan.predicted_time <= d);
            if let Some(budget) = b.energy_budget_uj {
                for plan in (0..capped).map(point) {
                    energy_floor = energy_floor.min(plan.predicted_energy_uj);
                    if plan.predicted_energy_uj > budget {
                        continue;
                    }
                    keep(&mut fastest, plan, faster);
                    if meets(&plan) {
                        keep(&mut cheapest, plan, cheaper);
                    }
                }
                continue;
            }
            keep(&mut fastest, point(capped - 1), faster);
            if let Some(deadline) = b.deadline {
                let first =
                    grid.partition_point(|&f| settle + self.predicted_time(b.bytes, f) > deadline);
                // Power ties at the cheapest level fall to energy, then
                // the slower clock: offer the whole tied run.
                for i in (first..capped).take_while(|&i| power[i] == power[first]) {
                    keep(&mut cheapest, point(i), cheaper);
                }
            }
        }
        if !any_point {
            // Every candidate rail's fmax sits below the whole (ceilinged)
            // grid — only possible with a custom table that excludes the
            // unconstrained nominal rail.
            return Err(UparcError::Frequency {
                requested: slowest,
                max: rails[in_play.start].fmax.unwrap_or(slowest),
                limited_by: "vf rail fmax",
            });
        }
        if !any_capped {
            return Err(UparcError::BudgetInfeasible {
                budget_mw: b.power_cap_mw.expect("emptied by the power cap"),
                floor_mw: power_floor,
            });
        }
        let Some(fastest) = fastest else {
            return Err(UparcError::EnergyBudgetInfeasible {
                budget_uj: b.energy_budget_uj.expect("emptied by the energy budget"),
                floor_uj: energy_floor,
            });
        };
        Ok(cheapest.unwrap_or(fastest))
    }

    /// The rails `q` may plan on, as a range of table indices: the
    /// nominal rail for a frequency-only query, else every rail under
    /// `max_volts` — a prefix, since the rails ascend by voltage — or
    /// the coolest rail when the ceiling excludes them all.
    fn rails_in_play(&self, q: &VfQuery) -> Range<usize> {
        if q.frequency_only {
            let nominal = self.vf.nominal_index();
            return nominal..nominal + 1;
        }
        let allowed = self
            .vf
            .rails()
            .partition_point(|r| q.max_volts.is_none_or(|limit| r.volts <= limit));
        // Thermal demotion past the table: coolest rail wins.
        0..allowed.max(1)
    }
}

/// Whether `plan` beats `best` as the fastest point: shorter time, then
/// the higher clock, lower power, lower voltage.
fn faster(plan: &VfPlan, best: &VfPlan) -> bool {
    plan.predicted_time
        .cmp(&best.predicted_time)
        .then(best.frequency.cmp(&plan.frequency))
        .then(plan.predicted_power_mw.total_cmp(&best.predicted_power_mw))
        .then(plan.volts.total_cmp(&best.volts))
        .is_lt()
}

/// Whether `plan` beats `best` as the cheapest deadline-meeting point:
/// lower power, then lower energy, lower voltage, the slower clock.
fn cheaper(plan: &VfPlan, best: &VfPlan) -> bool {
    plan.predicted_power_mw
        .total_cmp(&best.predicted_power_mw)
        .then(
            plan.predicted_energy_uj
                .total_cmp(&best.predicted_energy_uj),
        )
        .then(plan.volts.total_cmp(&best.volts))
        .then(plan.frequency.cmp(&best.frequency))
        .is_lt()
}

/// Keeps `plan` in `best` when it strictly beats the incumbent, so the
/// earlier of two tied points wins.
fn keep(best: &mut Option<VfPlan>, plan: VfPlan, beats: fn(&VfPlan, &VfPlan) -> bool) {
    if best.as_ref().is_none_or(|b| beats(&plan, b)) {
        *best = Some(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> PowerAwarePolicy {
        PowerAwarePolicy::paper_setup(Family::Virtex5)
    }

    const BYTES: usize = 216_500;

    #[test]
    fn grid_contains_the_paper_points() {
        let p = policy();
        let grid = p.frequency_grid();
        for mhz in [50.0, 100.0, 200.0, 300.0, 362.5] {
            assert!(
                grid.contains(&Frequency::from_mhz(mhz)),
                "{mhz} MHz missing from the grid"
            );
        }
        let max = *grid.last().unwrap();
        assert_eq!(max, Frequency::from_mhz(362.5), "raw-mode cap");
    }

    #[test]
    fn deadline_picks_the_slowest_sufficient_clock() {
        let p = policy();
        // 216.5 KB at ~90 MHz takes ≈598 µs; a 600 µs deadline must pick
        // the slowest sufficient grid point, nothing faster than 100 MHz.
        let plan = p
            .plan(Constraint::Deadline(SimTime::from_us(600)), BYTES)
            .unwrap();
        assert!(
            plan.frequency >= Frequency::from_mhz(90.0),
            "{}",
            plan.frequency
        );
        assert!(
            plan.frequency <= Frequency::from_mhz(100.0),
            "{}",
            plan.frequency
        );
        assert!(plan.predicted_time <= SimTime::from_us(600));
        // A tight 200 µs deadline needs ≥ ~272 MHz.
        let plan = p
            .plan(Constraint::Deadline(SimTime::from_us(200)), BYTES)
            .unwrap();
        assert!(
            plan.frequency >= Frequency::from_mhz(272.0),
            "{}",
            plan.frequency
        );
        assert!(plan.predicted_time <= SimTime::from_us(200));
    }

    #[test]
    fn infeasible_deadline_reports_best_achievable() {
        let p = policy();
        let err = p
            .plan(Constraint::Deadline(SimTime::from_us(100)), BYTES)
            .unwrap_err();
        match err {
            UparcError::DeadlineInfeasible { best, .. } => {
                // Best is ≈ 216.5 KB / 1.45 GB/s + 1.2 µs ≈ 154 µs.
                assert!(
                    best > SimTime::from_us(150) && best < SimTime::from_us(160),
                    "{best}"
                );
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn power_budget_picks_the_fastest_clock_under_cap() {
        let p = policy();
        // Fig. 7: 259 mW at 100 MHz, 394 mW at 200 MHz. A 260 mW budget
        // must select ≈100 MHz, not more.
        let plan = p
            .plan(Constraint::PowerBudget { mw: 260.0 }, BYTES)
            .unwrap();
        assert!(plan.frequency <= Frequency::from_mhz(106.0));
        assert!(plan.frequency >= Frequency::from_mhz(100.0));
        assert!(plan.predicted_power_mw <= 260.0);
    }

    #[test]
    fn impossible_budget_reports_floor() {
        let p = policy();
        let err = p
            .plan(Constraint::PowerBudget { mw: 100.0 }, BYTES)
            .unwrap_err();
        assert!(matches!(err, UparcError::BudgetInfeasible { .. }));
    }

    #[test]
    fn min_energy_is_fastest_with_active_wait_slowest_without() {
        // §V: with the active wait, energy decreases with frequency; with
        // an event-driven manager it would be "the same for each
        // frequency" up to the path term, making the slowest clock win.
        let active = policy();
        let plan = active.plan(Constraint::MinEnergy, BYTES).unwrap();
        assert_eq!(plan.frequency, Frequency::from_mhz(362.5));

        let event_driven = PowerAwarePolicy::new(
            Family::Virtex5,
            Frequency::from_mhz(100.0),
            ManagerConfig { active_wait: false },
        );
        let plan = event_driven.plan(Constraint::MinEnergy, BYTES).unwrap();
        let grid = event_driven.frequency_grid();
        assert_eq!(plan.frequency, grid[0], "slowest grid point");
    }

    #[test]
    fn max_throughput_is_the_headline_point() {
        let plan = policy().plan(Constraint::MaxThroughput, BYTES).unwrap();
        assert_eq!(plan.frequency, Frequency::from_mhz(362.5));
        // ≈154 µs for 216.5 KB.
        assert!(plan.predicted_time < SimTime::from_us(160));
    }

    #[test]
    fn constrained_plan_honours_every_dimension() {
        let p = policy();
        // Deadline only: same answer as Constraint::Deadline.
        let q = PlanQuery {
            bytes: BYTES,
            deadline: Some(SimTime::from_us(600)),
            ..PlanQuery::default()
        };
        let plan = p.plan_vf(&VfQuery::frequency_only(q)).unwrap();
        let reference = p
            .plan(Constraint::Deadline(SimTime::from_us(600)), BYTES)
            .unwrap();
        assert_eq!(plan.frequency, reference.frequency);

        // A frequency ceiling caps the best-effort (no-deadline) answer.
        let q = PlanQuery {
            bytes: BYTES,
            max_frequency: Some(Frequency::from_mhz(255.0)),
            ..PlanQuery::default()
        };
        let plan = p.plan_vf(&VfQuery::frequency_only(q)).unwrap();
        assert!(plan.frequency <= Frequency::from_mhz(255.0));

        // A power cap excludes fast points even when the deadline wants
        // them: 260 mW admits ≈100 MHz at most (Fig. 7).
        let q = PlanQuery {
            bytes: BYTES,
            deadline: Some(SimTime::from_us(200)),
            power_cap_mw: Some(260.0),
            ..PlanQuery::default()
        };
        let plan = p.plan_vf(&VfQuery::frequency_only(q)).unwrap();
        assert!(plan.predicted_power_mw <= 260.0);
        assert!(plan.frequency <= Frequency::from_mhz(106.0));
    }

    #[test]
    fn constrained_plan_reports_typed_infeasibility() {
        let p = policy();
        let q = PlanQuery {
            bytes: BYTES,
            power_cap_mw: Some(100.0),
            ..PlanQuery::default()
        };
        assert!(matches!(
            p.plan_vf(&VfQuery::frequency_only(q)),
            Err(UparcError::BudgetInfeasible { .. })
        ));

        let q = PlanQuery {
            bytes: BYTES,
            energy_budget_uj: Some(1.0),
            ..PlanQuery::default()
        };
        match p.plan_vf(&VfQuery::frequency_only(q)) {
            Err(UparcError::EnergyBudgetInfeasible { floor_uj, .. }) => {
                assert!(floor_uj > 1.0, "{floor_uj}");
            }
            other => panic!("unexpected {other:?}"),
        }

        let q = PlanQuery {
            bytes: BYTES,
            max_frequency: Some(Frequency::from_mhz(1.0)),
            ..PlanQuery::default()
        };
        assert!(matches!(
            p.plan_vf(&VfQuery::frequency_only(q)),
            Err(UparcError::Frequency { .. })
        ));
    }

    #[test]
    fn vf_plan_exploits_an_undervolted_rail_under_a_tight_cap() {
        let p = policy();
        let base = PlanQuery {
            bytes: BYTES,
            power_cap_mw: Some(330.0),
            ..PlanQuery::default()
        };
        let dvfs = p.plan_vf(&VfQuery::new(base)).unwrap();
        let freq_only = p.plan_vf(&VfQuery::frequency_only(base)).unwrap();
        // 330 mW admits ≈169 MHz at nominal voltage (analytic model) but
        // ≈184 MHz on the 0.9 V rail — the 2-D search must find it.
        assert!(dvfs.volts < calib::V_NOM_V, "{dvfs:?}");
        assert!(dvfs.frequency > freq_only.frequency, "{dvfs:?}");
        assert!(dvfs.predicted_power_mw <= 330.0);
    }

    #[test]
    fn thermal_demotion_past_the_table_falls_back_to_the_coolest_rail() {
        let p = policy();
        let q = VfQuery {
            max_volts: Some(0.5),
            ..VfQuery::new(PlanQuery {
                bytes: BYTES,
                ..PlanQuery::default()
            })
        };
        let plan = p.plan_vf(&q).unwrap();
        let low = &p.vf_table().rails()[0];
        assert_eq!(plan.volts, low.volts);
        assert!(plan.frequency <= low.fmax.unwrap());
    }

    #[test]
    fn rail_switches_charge_settle_into_time_and_energy() {
        let p = policy();
        let base = PlanQuery {
            bytes: BYTES,
            power_cap_mw: Some(330.0),
            ..PlanQuery::default()
        };
        let free = p.plan_vf(&VfQuery::new(base)).unwrap();
        let ramped = p
            .plan_vf(&VfQuery {
                current_rail: Some(p.vf_table().nominal_index()),
                ..VfQuery::new(base)
            })
            .unwrap();
        assert!(free.volts < calib::V_NOM_V, "cap forces an undervolt");
        assert_eq!(free.settle, SimTime::ZERO, "no current rail, no ramp");
        if ramped.rail != p.vf_table().nominal_index() {
            assert!(ramped.settle > SimTime::ZERO);
            assert!(ramped.predicted_energy_uj > free.predicted_energy_uj);
        }
    }

    #[test]
    fn unknown_current_rail_is_a_typed_error() {
        let p = policy();
        let base = PlanQuery {
            bytes: BYTES,
            ..PlanQuery::default()
        };
        let rails = p.vf_table().rails().len();
        let q = VfQuery {
            current_rail: Some(rails),
            ..VfQuery::new(base)
        };
        assert_eq!(
            p.plan_vf(&q).unwrap_err(),
            UparcError::UnknownRail { rail: rails, rails }
        );
        // Frequency-only queries ignore the lane's rail, as before.
        let q = VfQuery {
            current_rail: Some(rails),
            ..VfQuery::frequency_only(base)
        };
        assert!(p.plan_vf(&q).is_ok());
    }

    #[test]
    fn predictions_match_fig7_calibration() {
        let p = policy();
        for (mhz, mw) in calib::FIG7_POINTS {
            let predicted = p.predicted_power_mw(Frequency::from_mhz(mhz));
            assert!(
                (predicted - mw).abs() / mw < 0.10,
                "{mhz} MHz: {predicted:.0} vs {mw} mW"
            );
        }
        for (mhz, us) in calib::FIG7_TIMES_US {
            let t = p.predicted_time(BYTES, Frequency::from_mhz(mhz));
            let err = (t.as_us_f64() - us).abs() / us;
            assert!(err < 0.02, "{mhz} MHz: {t} vs {us} µs");
        }
    }
}
