//! Global power optimization of an application — the paper's closing
//! future work (§VI): "We will focus our future work on the global power
//! optimization of an application using high speed and energy efficient
//! partial dynamic reconfiguration."
//!
//! An application is a sequence of phases, each needing one module swap
//! followed by an execution window. The optimizer assigns a CLK_2 to
//! *every* swap at once, under a global makespan budget:
//!
//! * [`GlobalOptimizer::minimize_peak_power`] — the thermal/supply
//!   objective: the smallest power cap under which the whole application
//!   still fits its makespan. For this objective a *uniform* cap is
//!   provably optimal (the peak is a max over phases, and under any cap
//!   each phase's fastest admissible clock minimises its time), so the
//!   optimizer binary-searches the cap over the DCM grid's power levels.
//! * [`GlobalOptimizer::minimize_energy`] — the battery objective: with an
//!   actively-waiting manager energy falls with frequency, so the fastest
//!   clock wins everywhere; with an event-driven manager energy is flat
//!   and the slowest feasible uniform cap wins. Both fall out of the same
//!   search.

use crate::error::UparcError;
use crate::policy::{Constraint, PowerAwarePolicy, VfPlan};
use uparc_sim::time::SimTime;

/// One application phase: a module swap plus its execution window.
#[derive(Debug, Clone)]
pub struct AppPhase {
    /// Phase name (reporting).
    pub name: String,
    /// Size of the module's partial bitstream in bytes.
    pub bitstream_bytes: usize,
    /// Execution time after the swap.
    pub execution: SimTime,
}

impl AppPhase {
    /// Creates a phase.
    #[must_use]
    pub fn new(name: &str, bitstream_bytes: usize, execution: SimTime) -> Self {
        AppPhase {
            name: name.to_owned(),
            bitstream_bytes,
            execution,
        }
    }
}

/// A per-phase frequency assignment with its aggregate predictions.
#[derive(Debug, Clone)]
pub struct GlobalPlan {
    /// `(phase name, operating point)` in order.
    pub per_phase: Vec<(String, VfPlan)>,
    /// Peak reconfiguration power across phases, mW.
    pub peak_power_mw: f64,
    /// Total application time (swaps + executions).
    pub total_time: SimTime,
    /// Total above-idle reconfiguration energy, µJ.
    pub total_energy_uj: f64,
}

/// Application-level frequency optimizer.
#[derive(Debug, Clone)]
pub struct GlobalOptimizer {
    policy: PowerAwarePolicy,
}

impl GlobalOptimizer {
    /// Creates an optimizer on top of a per-swap policy.
    #[must_use]
    pub fn new(policy: PowerAwarePolicy) -> Self {
        GlobalOptimizer { policy }
    }

    /// The underlying per-swap policy.
    #[must_use]
    pub fn policy(&self) -> &PowerAwarePolicy {
        &self.policy
    }

    /// Evaluates the plan in which every phase runs at its fastest clock
    /// with power at most `cap_mw`.
    fn plan_under_cap(&self, phases: &[AppPhase], cap_mw: f64) -> Option<GlobalPlan> {
        let mut per_phase = Vec::with_capacity(phases.len());
        let mut total_time = SimTime::ZERO;
        let mut total_energy = 0.0;
        let mut peak: f64 = 0.0;
        for p in phases {
            let plan = self
                .policy
                .plan(Constraint::PowerBudget { mw: cap_mw }, p.bitstream_bytes)
                .ok()?;
            total_time += plan.predicted_time + p.execution;
            total_energy += plan.predicted_energy_uj;
            peak = peak.max(plan.predicted_power_mw);
            per_phase.push((p.name.clone(), plan));
        }
        Some(GlobalPlan {
            per_phase,
            peak_power_mw: peak,
            total_time,
            total_energy_uj: total_energy,
        })
    }

    /// Minimises the peak reconfiguration power subject to
    /// `total time ≤ makespan`.
    ///
    /// # Errors
    ///
    /// [`UparcError::DeadlineInfeasible`] if even the fastest clock misses
    /// the makespan.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn minimize_peak_power(
        &self,
        phases: &[AppPhase],
        makespan: SimTime,
    ) -> Result<GlobalPlan, UparcError> {
        assert!(!phases.is_empty(), "an application has at least one phase");
        let grid = self.policy.frequency_grid();
        // Candidate caps = the grid's distinct power levels, ascending.
        let mut feasible: Option<GlobalPlan> = None;
        let (mut lo, mut hi) = (0usize, grid.len() - 1);
        // Binary search the smallest grid index whose cap is feasible
        // (total time is monotone non-increasing in the cap).
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let cap = self.policy.predicted_power_mw(grid[mid]);
            let plan = self
                .plan_under_cap(phases, cap)
                .expect("cap taken from the grid is always realisable");
            if plan.total_time <= makespan {
                feasible = Some(plan);
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            } else {
                lo = mid + 1;
            }
        }
        feasible.ok_or_else(|| {
            let best = self
                .plan_under_cap(phases, f64::INFINITY)
                .expect("unbounded cap always realisable");
            UparcError::DeadlineInfeasible {
                deadline: makespan,
                best: best.total_time,
            }
        })
    }

    /// Minimises total reconfiguration energy subject to
    /// `total time ≤ makespan`. Energy is monotone in the (uniform) clock —
    /// decreasing with an active-wait manager, flat otherwise — so the
    /// optimum is at one end of the feasible cap range.
    ///
    /// # Errors
    ///
    /// [`UparcError::DeadlineInfeasible`] if even the fastest clock misses
    /// the makespan.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn minimize_energy(
        &self,
        phases: &[AppPhase],
        makespan: SimTime,
    ) -> Result<GlobalPlan, UparcError> {
        assert!(!phases.is_empty(), "an application has at least one phase");
        let fastest = self
            .plan_under_cap(phases, f64::INFINITY)
            .expect("unbounded cap always realisable");
        if fastest.total_time > makespan {
            return Err(UparcError::DeadlineInfeasible {
                deadline: makespan,
                best: fastest.total_time,
            });
        }
        let slowest_feasible = self.minimize_peak_power(phases, makespan)?;
        // Ties (flat energy with an event-driven manager) resolve to the
        // slower plan: same energy, lower peak power. The comparison is
        // relative because the two sums accumulate different FP noise.
        Ok(
            if fastest.total_energy_uj < slowest_feasible.total_energy_uj * (1.0 - 1e-6) {
                fastest
            } else {
                slowest_feasible
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ManagerConfig;
    use uparc_fpga::Family;
    use uparc_sim::time::Frequency;

    fn phases() -> Vec<AppPhase> {
        vec![
            AppPhase::new("fir", 100 * 1024, SimTime::from_ms(2)),
            AppPhase::new("fft", 160 * 1024, SimTime::from_ms(1)),
            AppPhase::new("turbo", 60 * 1024, SimTime::from_ms(3)),
        ]
    }

    fn optimizer() -> GlobalOptimizer {
        GlobalOptimizer::new(PowerAwarePolicy::paper_setup(Family::Virtex5))
    }

    #[test]
    fn generous_makespan_gives_low_peak_power() {
        let opt = optimizer();
        let loose = opt
            .minimize_peak_power(&phases(), SimTime::from_ms(20))
            .unwrap();
        let tight = opt
            .minimize_peak_power(&phases(), SimTime::from_us(6600))
            .unwrap();
        assert!(loose.peak_power_mw < tight.peak_power_mw);
        assert!(loose.total_time <= SimTime::from_ms(20));
        assert!(tight.total_time <= SimTime::from_us(6600));
    }

    #[test]
    fn result_matches_exhaustive_search_over_uniform_caps() {
        let opt = optimizer();
        let makespan = SimTime::from_us(7000);
        let plan = opt.minimize_peak_power(&phases(), makespan).unwrap();
        // Exhaustive scan over every grid power level.
        let grid = opt.policy().frequency_grid();
        let best = grid
            .iter()
            .map(|&f| opt.policy().predicted_power_mw(f))
            .filter(|&cap| {
                opt.plan_under_cap(&phases(), cap)
                    .is_some_and(|p| p.total_time <= makespan)
            })
            .fold(f64::INFINITY, f64::min);
        assert!((plan.peak_power_mw - best).abs() < 1e-9);
    }

    #[test]
    fn infeasible_makespan_reports_best_achievable() {
        let opt = optimizer();
        // Executions alone take 6 ms.
        let err = opt
            .minimize_peak_power(&phases(), SimTime::from_ms(5))
            .unwrap_err();
        assert!(matches!(err, UparcError::DeadlineInfeasible { .. }));
    }

    #[test]
    fn min_energy_runs_fast_with_active_wait_slow_without() {
        let active = optimizer();
        let plan = active
            .minimize_energy(&phases(), SimTime::from_ms(20))
            .unwrap();
        assert_eq!(plan.per_phase[0].1.frequency, Frequency::from_mhz(362.5));

        let event_driven = GlobalOptimizer::new(PowerAwarePolicy::new(
            Family::Virtex5,
            Frequency::from_mhz(100.0),
            ManagerConfig { active_wait: false },
        ));
        let plan = event_driven
            .minimize_energy(&phases(), SimTime::from_ms(20))
            .unwrap();
        // Flat energy: the low-peak-power (slow) plan is chosen.
        assert!(plan.per_phase[0].1.frequency < Frequency::from_mhz(100.0));
    }

    #[test]
    fn per_phase_times_and_energies_sum_up() {
        let opt = optimizer();
        let plan = opt
            .minimize_peak_power(&phases(), SimTime::from_ms(10))
            .unwrap();
        let time: SimTime = plan
            .per_phase
            .iter()
            .map(|(_, p)| p.predicted_time)
            .sum::<SimTime>()
            + phases().iter().map(|p| p.execution).sum::<SimTime>();
        assert_eq!(time, plan.total_time);
        let energy: f64 = plan
            .per_phase
            .iter()
            .map(|(_, p)| p.predicted_energy_uj)
            .sum();
        assert!((energy - plan.total_energy_uj).abs() < 1e-9);
    }
}
