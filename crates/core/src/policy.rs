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
//! Since the DVFS extension the grid is two-dimensional: every policy
//! carries a [`VfTable`] of voltage rails, and [`PowerAwarePolicy::plan_vf`]
//! searches (rail, frequency) pairs — path power scales as `C·V²·f`,
//! undervolted rails cap the clock, and switching rails charges the
//! regulator settle into both the predicted time and the predicted
//! energy. A [`VfQuery::frequency_only`] query pins the same search to the
//! nominal rail with the analytic (pre-DVFS) power model, and stays
//! bit-identical to the original frequency-only planner (see `POWER.md`
//! for the methodology and the regression anchors).

use crate::error::UparcError;
use crate::manager::ManagerConfig;
use uparc_fpga::dcm::DcmConstraints;
use uparc_fpga::family::Family;
use uparc_sim::power::{calib, VfTable};
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

/// A selected operating point with its predictions.
#[derive(Debug, Clone, Copy)]
pub struct FrequencyPlan {
    /// The CLK_2 target to hand to DyCloGen.
    pub frequency: Frequency,
    /// Predicted Start→Finish latency.
    pub predicted_time: SimTime,
    /// Predicted total core power during the transfer, mW.
    pub predicted_power_mw: f64,
    /// Predicted above-idle energy, µJ.
    pub predicted_energy_uj: f64,
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
    family: Family,
    fin: Frequency,
    manager: ManagerConfig,
    vf: VfTable,
}

impl PowerAwarePolicy {
    /// A policy for `family` with DyCloGen reference `fin` and the given
    /// manager behaviour. The (V, f) table defaults to the VolTune-style
    /// three-rail table calibrated on the paper's Virtex-6 measurements
    /// (like the rest of the power model); use
    /// [`PowerAwarePolicy::with_vf_table`] to override it.
    #[must_use]
    pub fn new(family: Family, fin: Frequency, manager: ManagerConfig) -> Self {
        PowerAwarePolicy {
            family,
            fin,
            manager,
            vf: VfTable::voltune_virtex6(),
        }
    }

    /// Replaces the (V, f) operating-point table.
    #[must_use]
    pub fn with_vf_table(mut self, vf: VfTable) -> Self {
        self.vf = vf;
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
    /// ascending and deduplicated.
    #[must_use]
    pub fn frequency_grid(&self) -> Vec<Frequency> {
        let cap = self
            .family
            .icap_overclock_limit()
            .min(self.family.bram_overclock_limit());
        let c = DcmConstraints::for_family(self.family);
        let mut grid: Vec<Frequency> = Vec::new();
        for m in c.m_range.clone() {
            for d in c.d_range.clone() {
                if let Ok(f) = c.check(self.fin, m, d) {
                    if f <= cap {
                        grid.push(f);
                    }
                }
            }
        }
        grid.sort_unstable();
        grid.dedup();
        grid
    }

    /// Predicted Start→Finish latency for `bytes` of raw bitstream at `f`.
    #[must_use]
    pub fn predicted_time(&self, bytes: usize, f: Frequency) -> SimTime {
        let control = self
            .manager
            .clock
            .time_of_cycles(self.manager.control_overhead_cycles);
        // Mode word + one word per cycle.
        let words = (bytes as u64).div_ceil(4) + 1;
        control + f.time_of_cycles(words)
    }

    /// Predicted total core power during the transfer at `f`, mW.
    #[must_use]
    pub fn predicted_power_mw(&self, f: Frequency) -> f64 {
        let wait = if self.manager.active_wait {
            calib::MANAGER_ACTIVE_WAIT_MW
        } else {
            calib::MANAGER_IDLE_MW
        };
        calib::V6_IDLE_MW + wait + calib::RECONFIG_PATH_MW_PER_MHZ * f.as_mhz()
    }

    /// Predicted above-idle energy for `bytes` at `f`, µJ.
    #[must_use]
    pub fn predicted_energy_uj(&self, bytes: usize, f: Frequency) -> f64 {
        let control = self
            .manager
            .clock
            .time_of_cycles(self.manager.control_overhead_cycles);
        let words = (bytes as u64).div_ceil(4) + 1;
        let transfer = f.time_of_cycles(words);
        calib::MANAGER_ACTIVE_WAIT_MW * control.as_secs_f64() * 1e3
            + (self.predicted_power_mw(f) - calib::V6_IDLE_MW) * transfer.as_secs_f64() * 1e3
    }

    /// Total core power at an arbitrary (V, f) point, mW.
    ///
    /// `measured` selects the Nafkha-&-Louet measured-overhead curve
    /// (interpolating the Fig. 7 totals, exact at the four anchors) over
    /// the analytic `c·f` model; the path term scales as `(v / V_nom)²`
    /// either way. On the nominal rail with the measured model this *is*
    /// the measured curve, bit-exactly.
    fn power_point_mw(&self, volts: f64, f: Frequency, measured: bool) -> f64 {
        let wait = if self.manager.active_wait {
            calib::MANAGER_ACTIVE_WAIT_MW
        } else {
            calib::MANAGER_IDLE_MW
        };
        let base = calib::V6_IDLE_MW + wait;
        let r = volts / calib::V_NOM_V;
        let scale = r * r;
        if measured {
            if scale == 1.0 && self.manager.active_wait {
                // Fig. 7 measured an actively-waiting manager at nominal
                // voltage; return the measured total without a base/path
                // round-trip so the anchors stay exact.
                return calib::fig7_measured_mw(f.as_mhz());
            }
            base + scale * (calib::fig7_measured_mw(f.as_mhz()) - calib::analytic_base_mw())
        } else {
            base + scale * (calib::RECONFIG_PATH_MW_PER_MHZ * f.as_mhz())
        }
    }

    /// Above-idle energy at an arbitrary (V, f) point, µJ, with the
    /// regulator `settle` charged at the manager's active-wait draw (the
    /// manager spins while the rail ramps, exactly as during a DCM
    /// relock).
    fn energy_point_uj(
        &self,
        bytes: usize,
        volts: f64,
        f: Frequency,
        settle: SimTime,
        measured: bool,
    ) -> f64 {
        let control = self
            .manager
            .clock
            .time_of_cycles(self.manager.control_overhead_cycles);
        let words = (bytes as u64).div_ceil(4) + 1;
        let transfer = f.time_of_cycles(words);
        calib::MANAGER_ACTIVE_WAIT_MW * control.as_secs_f64() * 1e3
            + (self.power_point_mw(volts, f, measured) - calib::V6_IDLE_MW)
                * transfer.as_secs_f64()
                * 1e3
            + calib::MANAGER_ACTIVE_WAIT_MW * settle.as_secs_f64() * 1e3
    }

    /// Predicted total core power during a transfer at voltage `volts`
    /// and clock `f`, mW, under the policy table's power model.
    #[must_use]
    pub fn predicted_power_vf_mw(&self, volts: f64, f: Frequency) -> f64 {
        self.power_point_mw(volts, f, self.vf.measured_overhead())
    }

    /// Predicted above-idle energy for `bytes` at (`volts`, `f`) with a
    /// regulator `settle` charged in, µJ.
    #[must_use]
    pub fn predicted_energy_vf_uj(
        &self,
        bytes: usize,
        volts: f64,
        f: Frequency,
        settle: SimTime,
    ) -> f64 {
        self.energy_point_uj(bytes, volts, f, settle, self.vf.measured_overhead())
    }

    fn plan_at(&self, bytes: usize, f: Frequency) -> FrequencyPlan {
        FrequencyPlan {
            frequency: f,
            predicted_time: self.predicted_time(bytes, f),
            predicted_power_mw: self.predicted_power_mw(f),
            predicted_energy_uj: self.predicted_energy_uj(bytes, f),
        }
    }

    /// Selects the operating point for `constraint` on a raw bitstream of
    /// `bytes`.
    ///
    /// # Errors
    ///
    /// [`UparcError::DeadlineInfeasible`] / [`UparcError::BudgetInfeasible`]
    /// when no grid point satisfies the constraint.
    pub fn plan(&self, constraint: Constraint, bytes: usize) -> Result<FrequencyPlan, UparcError> {
        let grid = self.frequency_grid();
        let fastest = *grid.last().expect("grid is never empty");
        match constraint {
            Constraint::MaxThroughput => Ok(self.plan_at(bytes, fastest)),
            Constraint::Deadline(deadline) => grid
                .iter()
                .find(|&&f| self.predicted_time(bytes, f) <= deadline)
                .map(|&f| self.plan_at(bytes, f))
                .ok_or_else(|| UparcError::DeadlineInfeasible {
                    deadline,
                    best: self.predicted_time(bytes, fastest),
                }),
            Constraint::PowerBudget { mw } => grid
                .iter()
                .rev()
                .find(|&&f| self.predicted_power_mw(f) <= mw)
                .map(|&f| self.plan_at(bytes, f))
                .ok_or_else(|| UparcError::BudgetInfeasible {
                    budget_mw: mw,
                    floor_mw: self.predicted_power_mw(grid[0]),
                }),
            Constraint::MinEnergy => {
                // Ties (the event-driven manager makes energy flat in
                // frequency) resolve to the *slowest* clock: same energy,
                // lower peak power.
                let mut best = self.plan_at(bytes, grid[0]);
                for &f in &grid[1..] {
                    let plan = self.plan_at(bytes, f);
                    if plan.predicted_energy_uj < best.predicted_energy_uj - 1e-9 {
                        best = plan;
                    }
                }
                Ok(best)
            }
        }
    }

    /// Every admissible (V, f) operating point for `q`, sorted by the
    /// planner's best-effort preference: fastest first (settle included),
    /// ties broken towards the higher clock, then the lower power, then
    /// the lower voltage.
    ///
    /// The frontier applies the constraint cascade of a [`PlanQuery`] —
    /// frequency ceiling, power cap, energy budget — pointwise over the
    /// 2-D grid. Undervolted
    /// rails drop their above-`fmax` clocks; a thermal `max_volts` that
    /// excludes every rail falls back to the lowest-voltage rail rather
    /// than refusing to plan (a throttled lane must still be able to cool
    /// down at the cheapest point).
    ///
    /// # Errors
    ///
    /// * [`UparcError::BudgetInfeasible`] — `power_cap_mw` is below every
    ///   point (the floor reported is the cheapest point after the
    ///   frequency filter).
    /// * [`UparcError::EnergyBudgetInfeasible`] — `energy_budget_uj` is
    ///   below the minimum achievable energy for this size.
    /// * [`UparcError::Frequency`] — `max_frequency` is below the whole
    ///   grid (no synthesisable point under the ceiling), or every rail's
    ///   `fmax` is.
    ///
    /// The frontier is never returned empty.
    pub fn frontier(&self, q: &VfQuery) -> Result<Vec<VfPlan>, UparcError> {
        let measured = !q.frequency_only && self.vf.measured_overhead();
        let grid = self.frequency_grid();
        let ceiling: Vec<Frequency> = match q.base.max_frequency {
            Some(max) => grid.iter().copied().filter(|&f| f <= max).collect(),
            None => grid,
        };
        if ceiling.is_empty() {
            return Err(UparcError::Frequency {
                requested: q
                    .base
                    .max_frequency
                    .expect("unfiltered grid is never empty"),
                max: q.base.max_frequency.expect("checked above"),
                limited_by: "dcm grid",
            });
        }
        let rails: Vec<usize> = if q.frequency_only {
            vec![self.vf.nominal_index()]
        } else {
            let allowed: Vec<usize> = (0..self.vf.rails().len())
                .filter(|&i| {
                    q.max_volts
                        .is_none_or(|limit| self.vf.rails()[i].volts <= limit)
                })
                .collect();
            if allowed.is_empty() {
                // Thermal demotion past the table: coolest rail wins.
                let coolest = (0..self.vf.rails().len())
                    .min_by(|&a, &b| {
                        self.vf.rails()[a]
                            .volts
                            .total_cmp(&self.vf.rails()[b].volts)
                    })
                    .expect("tables always carry the nominal rail");
                vec![coolest]
            } else {
                allowed
            }
        };
        let mut points: Vec<(usize, Frequency)> = Vec::new();
        for &rail in &rails {
            let fmax = self.vf.rails()[rail].fmax;
            for &f in &ceiling {
                if fmax.is_none_or(|cap| f <= cap) {
                    points.push((rail, f));
                }
            }
        }
        if points.is_empty() {
            // Every candidate rail's fmax sits below the whole (ceilinged)
            // grid — only possible with a custom table that excludes the
            // unconstrained nominal rail.
            return Err(UparcError::Frequency {
                requested: ceiling[0],
                max: self.vf.rails()[rails[0]].fmax.unwrap_or(ceiling[0]),
                limited_by: "vf rail fmax",
            });
        }
        let settle_of = |rail: usize| -> SimTime {
            if q.frequency_only {
                SimTime::ZERO
            } else {
                q.current_rail
                    .map_or(SimTime::ZERO, |from| self.vf.settle(from, rail))
            }
        };
        let capped: Vec<(usize, Frequency)> = match q.base.power_cap_mw {
            Some(cap) => points
                .iter()
                .copied()
                .filter(|&(rail, f)| {
                    self.power_point_mw(self.vf.rails()[rail].volts, f, measured) <= cap
                })
                .collect(),
            None => points.clone(),
        };
        if capped.is_empty() {
            let floor_mw = points
                .iter()
                .map(|&(rail, f)| self.power_point_mw(self.vf.rails()[rail].volts, f, measured))
                .fold(f64::INFINITY, f64::min);
            return Err(UparcError::BudgetInfeasible {
                budget_mw: q.base.power_cap_mw.expect("emptied by the power filter"),
                floor_mw,
            });
        }
        let energy_of = |rail: usize, f: Frequency| -> f64 {
            self.energy_point_uj(
                q.base.bytes,
                self.vf.rails()[rail].volts,
                f,
                settle_of(rail),
                measured,
            )
        };
        let admissible: Vec<(usize, Frequency)> = match q.base.energy_budget_uj {
            Some(budget) => capped
                .iter()
                .copied()
                .filter(|&(rail, f)| energy_of(rail, f) <= budget)
                .collect(),
            None => capped.clone(),
        };
        if admissible.is_empty() {
            let floor_uj = capped
                .iter()
                .map(|&(rail, f)| energy_of(rail, f))
                .fold(f64::INFINITY, f64::min);
            return Err(UparcError::EnergyBudgetInfeasible {
                budget_uj: q
                    .base
                    .energy_budget_uj
                    .expect("emptied by the energy filter"),
                floor_uj,
            });
        }
        let mut plans: Vec<VfPlan> = admissible
            .into_iter()
            .map(|(rail, f)| {
                let volts = self.vf.rails()[rail].volts;
                let settle = settle_of(rail);
                VfPlan {
                    rail,
                    volts,
                    frequency: f,
                    settle,
                    predicted_time: settle + self.predicted_time(q.base.bytes, f),
                    predicted_power_mw: self.power_point_mw(volts, f, measured),
                    predicted_energy_uj: energy_of(rail, f),
                }
            })
            .collect();
        plans.sort_by(|a, b| {
            a.predicted_time
                .cmp(&b.predicted_time)
                .then(b.frequency.cmp(&a.frequency))
                .then(a.predicted_power_mw.total_cmp(&b.predicted_power_mw))
                .then(a.volts.total_cmp(&b.volts))
        });
        Ok(plans)
    }

    /// Selects a (V, f) operating point under all the constraints of `q`
    /// at once, with ramp costs charged into the plan.
    ///
    /// The selection rule is power-aware (§V): among the admissible
    /// points that **meet the deadline** (regulator settle included),
    /// pick the lowest-power one, breaking ties towards lower energy,
    /// then lower voltage, then the slower clock. When no admissible
    /// point meets the deadline — or no deadline is given — return the
    /// fastest admissible point (best effort), preferring the higher
    /// clock, then lower power, then lower voltage on ties.
    ///
    /// With [`VfQuery::frequency_only`] the answer is bit-identical to
    /// the pre-DVFS frequency-only planner (the backward-compat pin in
    /// the property suite).
    ///
    /// # Errors
    ///
    /// The typed infeasibilities of [`PowerAwarePolicy::frontier`].
    pub fn plan_vf(&self, q: &VfQuery) -> Result<VfPlan, UparcError> {
        let plans = self.frontier(q)?;
        if let Some(deadline) = q.base.deadline {
            let meeting = plans
                .iter()
                .filter(|p| p.predicted_time <= deadline)
                .min_by(|a, b| {
                    a.predicted_power_mw
                        .total_cmp(&b.predicted_power_mw)
                        .then(a.predicted_energy_uj.total_cmp(&b.predicted_energy_uj))
                        .then(a.volts.total_cmp(&b.volts))
                        .then(a.frequency.cmp(&b.frequency))
                });
            if let Some(best) = meeting {
                return Ok(*best);
            }
        }
        Ok(plans[0])
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
        let grid = policy().frequency_grid();
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
            ManagerConfig {
                active_wait: false,
                ..ManagerConfig::default()
            },
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
