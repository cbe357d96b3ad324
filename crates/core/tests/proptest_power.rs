//! Property tests for the (V, f) planner: cap monotonicity, ramp-cost
//! sanity, and the frequency-only backward-compatibility pin, over
//! randomized queries rather than the unit tests' fixed sweeps, plus
//! exact folds of every `plan_vf` and `plan` outcome over fixed grids.

use std::sync::OnceLock;

use proptest::prelude::*;
use uparc_core::manager::{Manager, ManagerConfig};
use uparc_core::policy::{Constraint, PlanQuery, PowerAwarePolicy, VfPlan, VfQuery};
use uparc_core::UparcError;
use uparc_fpga::dcm::DcmConstraints;
use uparc_fpga::Family;
use uparc_sim::power::{self, calib, VfTable};
use uparc_sim::time::{Frequency, SimTime};

fn planner() -> PowerAwarePolicy {
    PowerAwarePolicy::paper_setup(Family::Virtex5)
}

/// The pre-DVFS planner's operating point, kept with its reference.
#[derive(Debug, Clone, Copy)]
struct FrequencyPlan {
    frequency: Frequency,
    predicted_time: SimTime,
    predicted_power_mw: f64,
    predicted_energy_uj: f64,
}

/// The pre-DVFS frequency-only planner, kept verbatim as the regression
/// reference for the (V, f) rework: a [`VfQuery::frequency_only`] plan
/// must be bit-identical to this body on every query, typed error
/// payloads included.
fn plan_constrained_reference(
    p: &PowerAwarePolicy,
    q: &PlanQuery,
) -> Result<FrequencyPlan, UparcError> {
    let plan_at = |f: Frequency| FrequencyPlan {
        frequency: f,
        predicted_time: p.predicted_time(q.bytes, f),
        predicted_power_mw: p.predicted_power_mw(f),
        predicted_energy_uj: p.predicted_energy_uj(q.bytes, f),
    };
    let grid = p.frequency_grid();
    let ceiling: Vec<Frequency> = match q.max_frequency {
        Some(max) => grid.iter().copied().filter(|&f| f <= max).collect(),
        None => grid.to_vec(),
    };
    let Some(&floor_f) = ceiling.first() else {
        return Err(UparcError::Frequency {
            requested: q.max_frequency.expect("unfiltered grid is never empty"),
            max: q.max_frequency.expect("checked above"),
            limited_by: "dcm grid",
        });
    };
    let powered: Vec<Frequency> = match q.power_cap_mw {
        Some(cap) => ceiling
            .iter()
            .copied()
            .filter(|&f| p.predicted_power_mw(f) <= cap)
            .collect(),
        None => ceiling,
    };
    if powered.is_empty() {
        return Err(UparcError::BudgetInfeasible {
            budget_mw: q.power_cap_mw.expect("emptied by the power filter"),
            floor_mw: p.predicted_power_mw(floor_f),
        });
    }
    let admissible: Vec<Frequency> = match q.energy_budget_uj {
        Some(budget) => powered
            .iter()
            .copied()
            .filter(|&f| p.predicted_energy_uj(q.bytes, f) <= budget)
            .collect(),
        None => powered.clone(),
    };
    if admissible.is_empty() {
        let floor_uj = powered
            .iter()
            .map(|&f| p.predicted_energy_uj(q.bytes, f))
            .fold(f64::INFINITY, f64::min);
        return Err(UparcError::EnergyBudgetInfeasible {
            budget_uj: q.energy_budget_uj.expect("emptied by the energy filter"),
            floor_uj,
        });
    }
    let chosen = q
        .deadline
        .and_then(|d| {
            admissible
                .iter()
                .copied()
                .find(|&f| p.predicted_time(q.bytes, f) <= d)
        })
        .unwrap_or_else(|| *admissible.last().expect("checked non-empty"));
    Ok(plan_at(chosen))
}

/// The single-pass `plan_vf` that preceded the tabulated (V, f)
/// frontier, kept verbatim as the reference for the 2-D search, with the
/// private helpers it called. Its grid is built once, by the `check` scan
/// over every (M, D) pair that the old `frequency_grid` ran on each call.
struct SinglePass {
    manager: Manager,
    vf: VfTable,
    grid: Vec<Frequency>,
}

impl SinglePass {
    fn new(family: Family, fin: Frequency, manager: ManagerConfig, vf: VfTable) -> Self {
        let cap = family
            .icap_overclock_limit()
            .min(family.bram_overclock_limit());
        let c = DcmConstraints::for_family(family);
        let mut grid: Vec<Frequency> = Vec::new();
        for m in c.m_range.clone() {
            for d in c.d_range.clone() {
                if let Ok(f) = c.check(fin, m, d) {
                    if f <= cap {
                        grid.push(f);
                    }
                }
            }
        }
        grid.sort_unstable();
        grid.dedup();
        SinglePass {
            manager: Manager::with_config(manager),
            vf,
            grid,
        }
    }

    fn frequency_grid(&self) -> Vec<Frequency> {
        self.grid.clone()
    }

    fn predicted_time(&self, bytes: usize, f: Frequency) -> SimTime {
        // Mode word + one word per cycle.
        let words = (bytes as u64).div_ceil(4) + 1;
        self.manager.control_overhead() + f.time_of_cycles(words)
    }

    fn power_mw(&self, volts: f64, f: Frequency, measured: bool) -> f64 {
        power::core_power_mw(volts, self.manager.wait_power_mw(), f, measured)
    }

    fn energy_uj(&self, bytes: usize, f: Frequency, power_mw: f64, settle: SimTime) -> f64 {
        let control = self.manager.control_overhead();
        let words = (bytes as u64).div_ceil(4) + 1;
        let transfer = f.time_of_cycles(words);
        calib::MANAGER_ACTIVE_WAIT_MW * control.as_secs_f64() * 1e3
            + (power_mw - calib::V6_IDLE_MW) * transfer.as_secs_f64() * 1e3
            + calib::MANAGER_ACTIVE_WAIT_MW * settle.as_secs_f64() * 1e3
    }

    fn plan_vf(&self, q: &VfQuery) -> Result<VfPlan, UparcError> {
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
        let measured = !q.frequency_only && self.vf.measured_overhead();
        let grid = self.frequency_grid();
        // The grid ascends, so the ceiling keeps a prefix of it.
        let grid = &grid[..grid.partition_point(|&f| q.base.max_frequency.is_none_or(|m| f <= m))];
        let Some(&slowest) = grid.first() else {
            let max = q
                .base
                .max_frequency
                .expect("unfiltered grid is never empty");
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
        for &rail in &in_play {
            let (volts, fmax) = (rails[rail].volts, rails[rail].fmax);
            let settle = match q.current_rail {
                Some(from) if !q.frequency_only => self.vf.settle(from, rail),
                _ => SimTime::ZERO,
            };
            for &f in grid
                .iter()
                .take_while(|&&f| fmax.is_none_or(|cap| f <= cap))
            {
                any_point = true;
                let power = self.power_mw(volts, f, measured);
                power_floor = power_floor.min(power);
                if !q.base.power_cap_mw.is_none_or(|cap| power <= cap) {
                    continue;
                }
                any_capped = true;
                let energy = self.energy_uj(q.base.bytes, f, power, settle);
                energy_floor = energy_floor.min(energy);
                if !q
                    .base
                    .energy_budget_uj
                    .is_none_or(|budget| energy <= budget)
                {
                    continue;
                }
                let plan = VfPlan {
                    rail,
                    volts,
                    frequency: f,
                    settle,
                    predicted_time: settle + self.predicted_time(q.base.bytes, f),
                    predicted_power_mw: power,
                    predicted_energy_uj: energy,
                };
                let faster = |b: &VfPlan| {
                    plan.predicted_time
                        .cmp(&b.predicted_time)
                        .then(b.frequency.cmp(&plan.frequency))
                        .then(plan.predicted_power_mw.total_cmp(&b.predicted_power_mw))
                        .then(plan.volts.total_cmp(&b.volts))
                        .is_lt()
                };
                if fastest.as_ref().is_none_or(faster) {
                    fastest = Some(plan);
                }
                let cheaper = |b: &VfPlan| {
                    plan.predicted_power_mw
                        .total_cmp(&b.predicted_power_mw)
                        .then(plan.predicted_energy_uj.total_cmp(&b.predicted_energy_uj))
                        .then(plan.volts.total_cmp(&b.volts))
                        .then(plan.frequency.cmp(&b.frequency))
                        .is_lt()
                };
                let meets = q.base.deadline.is_some_and(|d| plan.predicted_time <= d);
                if meets && cheapest.as_ref().is_none_or(cheaper) {
                    cheapest = Some(plan);
                }
            }
        }
        if !any_point {
            // Every candidate rail's fmax sits below the whole (ceilinged)
            // grid — only possible with a custom table that excludes the
            // unconstrained nominal rail.
            return Err(UparcError::Frequency {
                requested: slowest,
                max: rails[in_play[0]].fmax.unwrap_or(slowest),
                limited_by: "vf rail fmax",
            });
        }
        if !any_capped {
            return Err(UparcError::BudgetInfeasible {
                budget_mw: q.base.power_cap_mw.expect("emptied by the power cap"),
                floor_mw: power_floor,
            });
        }
        let Some(fastest) = fastest else {
            return Err(UparcError::EnergyBudgetInfeasible {
                budget_uj: q
                    .base
                    .energy_budget_uj
                    .expect("emptied by the energy budget"),
                floor_uj: energy_floor,
            });
        };
        Ok(cheapest.unwrap_or(fastest))
    }

    /// The rails `q` may plan on, in table order: the nominal rail for a
    /// frequency-only query, else every rail under `max_volts` — or the
    /// coolest rail when the ceiling excludes them all.
    fn rails_in_play(&self, q: &VfQuery) -> Vec<usize> {
        let rails = self.vf.rails();
        if q.frequency_only {
            return vec![self.vf.nominal_index()];
        }
        let allowed: Vec<usize> = (0..rails.len())
            .filter(|&i| q.max_volts.is_none_or(|limit| rails[i].volts <= limit))
            .collect();
        if !allowed.is_empty() {
            return allowed;
        }
        // Thermal demotion past the table: coolest rail wins.
        let coolest = (0..rails.len())
            .min_by(|&a, &b| rails[a].volts.total_cmp(&rails[b].volts))
            .expect("tables always carry the nominal rail");
        vec![coolest]
    }
}

/// Every policy the 2-D pin covers, with its single-pass reference: both
/// families × both manager modes, on the default table and on the
/// nominal-only one. Built once: the reference grid's `check` scan is
/// slow in a debug build.
fn single_pass_pairs() -> &'static [(PowerAwarePolicy, SinglePass)] {
    static PAIRS: OnceLock<Vec<(PowerAwarePolicy, SinglePass)>> = OnceLock::new();
    PAIRS.get_or_init(|| {
        let fin = Frequency::from_mhz(100.0);
        let mut out = Vec::new();
        for vf in [VfTable::voltune_virtex6(), VfTable::nominal_only()] {
            for family in [Family::Virtex5, Family::Virtex6] {
                for active_wait in [true, false] {
                    let manager = ManagerConfig { active_wait };
                    out.push((
                        PowerAwarePolicy::new(family, fin, manager.clone())
                            .with_vf_table(vf.clone()),
                        SinglePass::new(family, fin, manager, vf.clone()),
                    ));
                }
            }
        }
        out
    })
}

/// Compares the frequency-only (V, f) plan for `q` with the reference:
/// frequencies, float bit patterns and typed errors alike.
fn check_against_reference(p: &PowerAwarePolicy, q: PlanQuery) -> Result<(), String> {
    match (
        p.plan_vf(&VfQuery::frequency_only(q)),
        plan_constrained_reference(p, &q),
    ) {
        (Ok(got), Ok(want))
            if got.frequency == want.frequency
                && got.predicted_time == want.predicted_time
                && got.predicted_power_mw.to_bits() == want.predicted_power_mw.to_bits()
                && got.predicted_energy_uj.to_bits() == want.predicted_energy_uj.to_bits() =>
        {
            Ok(())
        }
        (Err(got), Err(want)) if format!("{got:?}") == format!("{want:?}") => Ok(()),
        (got, want) => Err(format!(
            "divergence on {q:?}: got {got:?}, reference {want:?}"
        )),
    }
}

/// The backward-compat pin on a fixed grid of queries that reaches every
/// typed error and both selection rules.
#[test]
fn plan_constrained_is_bit_identical_to_the_reference() {
    let p = planner();
    let caps = [None, Some(100.0), Some(260.0), Some(420.0)];
    let deadlines = [
        None,
        Some(SimTime::from_us(200)),
        Some(SimTime::from_us(600)),
    ];
    let ceilings = [
        None,
        Some(Frequency::from_mhz(255.0)),
        Some(Frequency::from_mhz(1.0)),
    ];
    let energies = [None, Some(1.0), Some(50.0), Some(1e9)];
    for cap in caps {
        for deadline in deadlines {
            for ceiling in ceilings {
                for energy in energies {
                    let q = PlanQuery {
                        bytes: 216_500,
                        max_frequency: ceiling,
                        deadline,
                        power_cap_mw: cap,
                        energy_budget_uj: energy,
                    };
                    check_against_reference(&p, q).unwrap();
                }
            }
        }
    }
}

/// FNV-1a over 64-bit words: an exact digest of a sequence of planner
/// outcomes. A moved operating point, one changed bit of a prediction or
/// a different error payload changes it.
fn fold(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the typed error's `Debug` text (payload floats included) and
/// returns its variant name for the coverage tally.
fn fold_error(h: &mut u64, e: &UparcError) -> String {
    let text = format!("{e:?}");
    for b in text.bytes() {
        fold(h, u64::from(b));
    }
    text.split([' ', '{']).next().unwrap_or_default().to_owned()
}

/// Folds one plan's operating point and predictions, `rail` and `volts`
/// included.
fn fold_vf_plan(h: &mut u64, p: &VfPlan) {
    for w in [
        p.rail as u64,
        p.volts.to_bits(),
        p.frequency.as_hz(),
        p.settle.as_fs(),
        p.predicted_time.as_fs(),
        p.predicted_power_mw.to_bits(),
        p.predicted_energy_uj.to_bits(),
    ] {
        fold(h, w);
    }
}

/// Both families × both manager modes, on the default (V, f) table.
fn policies() -> Vec<PowerAwarePolicy> {
    let mut out = Vec::new();
    for family in [Family::Virtex5, Family::Virtex6] {
        for active_wait in [true, false] {
            let manager = ManagerConfig { active_wait };
            out.push(PowerAwarePolicy::new(
                family,
                Frequency::from_mhz(100.0),
                manager,
            ));
        }
    }
    out
}

/// Frequency-axis queries whose caps, deadlines, ceilings and energy
/// budgets reach every typed error and both selection rules.
fn base_queries() -> Vec<PlanQuery> {
    let mut out = Vec::new();
    for power_cap_mw in [None, Some(50.0), Some(260.0), Some(330.0)] {
        for deadline in [
            None,
            Some(SimTime::from_us(50)),
            Some(SimTime::from_us(600)),
        ] {
            for max_frequency in [None, Some(1.0), Some(255.0)] {
                for energy_budget_uj in [None, Some(1.0), Some(50.0), Some(90.0)] {
                    out.push(PlanQuery {
                        bytes: 216_500,
                        max_frequency: max_frequency.map(Frequency::from_mhz),
                        deadline,
                        power_cap_mw,
                        energy_budget_uj,
                    });
                }
            }
        }
    }
    out
}

/// Pins every `plan_vf` outcome — rail, clock, settle, time, power and
/// energy bits, or the typed error's payload — over a fixed grid of
/// 2-D queries. Recompute the digest only for a change meant to move
/// the planner.
#[test]
fn plan_vf_outcomes_are_pinned() {
    let mut h = FOLD_SEED;
    let mut kinds = std::collections::BTreeMap::<String, usize>::new();
    for p in policies() {
        for base in base_queries() {
            for current_rail in [None, Some(0), Some(2)] {
                for max_volts in [None, Some(0.87), Some(0.5)] {
                    let q = VfQuery {
                        current_rail,
                        max_volts,
                        ..VfQuery::new(base)
                    };
                    let kind = match p.plan_vf(&q) {
                        Ok(plan) => {
                            fold_vf_plan(&mut h, &plan);
                            "Ok".to_owned()
                        }
                        Err(e) => fold_error(&mut h, &e),
                    };
                    *kinds.entry(kind).or_default() += 1;
                }
            }
        }
    }
    let tally = format!("{kinds:?}");
    assert_eq!(
        tally,
        r#"{"BudgetInfeasible": 864, "EnergyBudgetInfeasible": 972, "Frequency": 1728, "Ok": 1620}"#,
        "every typed error and the success path are reached"
    );
    assert_eq!(h, 0x0c51_b3e0_0cd8_53dd, "plan_vf digest {h:#018x}");
}

/// Pins every `plan(Constraint)` outcome — clock, time, power and energy
/// bits, or the typed error's payload — for all four constraints.
#[test]
fn plan_outcomes_are_pinned() {
    let mut h = FOLD_SEED;
    let mut kinds = std::collections::BTreeMap::<String, usize>::new();
    let mut constraints = vec![Constraint::MinEnergy, Constraint::MaxThroughput];
    for us in [50, 150, 200, 600, 5_000] {
        constraints.push(Constraint::Deadline(SimTime::from_us(us)));
    }
    for mw in [50.0, 100.0, 183.0, 260.0, 330.0, 1e6] {
        constraints.push(Constraint::PowerBudget { mw });
    }
    for p in policies() {
        for bytes in [1, 6_600, 216_500, 400_000] {
            for &c in &constraints {
                let kind = match p.plan(c, bytes) {
                    Ok(plan) => {
                        for w in [
                            plan.frequency.as_hz(),
                            plan.predicted_time.as_fs(),
                            plan.predicted_power_mw.to_bits(),
                            plan.predicted_energy_uj.to_bits(),
                        ] {
                            fold(&mut h, w);
                        }
                        "Ok".to_owned()
                    }
                    Err(e) => fold_error(&mut h, &e),
                };
                *kinds.entry(kind).or_default() += 1;
            }
        }
    }
    assert_eq!(
        format!("{kinds:?}"),
        r#"{"BudgetInfeasible": 24, "DeadlineInfeasible": 20, "Ok": 164}"#
    );
    assert_eq!(h, 0xbb83_7d4d_7b78_562e, "plan digest {h:#018x}");
}

/// `ServiceConfig { vf: None }` plans on the nominal-only table: a 2-D
/// query there must equal the frequency-only query on the default table
/// in every field but the rail index.
#[test]
fn nominal_only_table_equals_the_frequency_only_query() {
    for p in policies() {
        let nominal = p.clone().with_vf_table(VfTable::nominal_only());
        for base in base_queries() {
            for current_rail in [None, Some(0)] {
                for max_volts in [None, Some(0.5)] {
                    let q = VfQuery {
                        current_rail,
                        max_volts,
                        ..VfQuery::new(base)
                    };
                    match (
                        nominal.plan_vf(&q),
                        p.plan_vf(&VfQuery::frequency_only(base)),
                    ) {
                        (Ok(mut got), Ok(want)) => {
                            assert_eq!(got.rail, 0);
                            got.rail = want.rail;
                            let (mut a, mut b) = (FOLD_SEED, FOLD_SEED);
                            fold_vf_plan(&mut a, &got);
                            fold_vf_plan(&mut b, &want);
                            assert_eq!(a, b, "{q:?}: {got:?} vs {want:?}");
                        }
                        (Err(got), Err(want)) => assert_eq!(got, want, "{q:?}"),
                        (got, want) => panic!("{q:?}: {got:?} vs {want:?}"),
                    }
                }
            }
        }
    }
}

proptest! {
    /// Raising the power cap can only add operating points, so the
    /// no-deadline plan (fastest admissible) never gets slower and the
    /// winning point always fits its cap.
    #[test]
    fn raising_the_cap_never_slows_the_plan(
        bytes in 1_000usize..400_000,
        cap_lo in 210.0f64..520.0,
        extra in 1.0f64..400.0,
    ) {
        let p = planner();
        let q = |cap: f64| VfQuery::new(PlanQuery {
            bytes,
            power_cap_mw: Some(cap),
            ..PlanQuery::default()
        });
        let lo = p.plan_vf(&q(cap_lo));
        let hi = p.plan_vf(&q(cap_lo + extra));
        if let Ok(a) = &lo {
            let b = hi.as_ref().expect("superset of a feasible cap is feasible");
            prop_assert!(b.predicted_time <= a.predicted_time);
            prop_assert!(a.predicted_power_mw <= cap_lo);
            prop_assert!(b.predicted_power_mw <= cap_lo + extra);
        }
    }

    /// With a deadline the planner minimizes power among deadline-meeting
    /// points; a raised cap keeps every old candidate, so if the tight
    /// cap met the deadline the loose cap must too, at no more power.
    #[test]
    fn raising_the_cap_never_raises_deadline_power(
        bytes in 1_000usize..400_000,
        cap_lo in 210.0f64..520.0,
        extra in 1.0f64..400.0,
        deadline_us in 50u64..5_000,
    ) {
        let p = planner();
        let deadline = SimTime::from_us(deadline_us);
        let q = |cap: f64| VfQuery::new(PlanQuery {
            bytes,
            deadline: Some(deadline),
            power_cap_mw: Some(cap),
            ..PlanQuery::default()
        });
        if let (Ok(a), Ok(b)) = (p.plan_vf(&q(cap_lo)), p.plan_vf(&q(cap_lo + extra))) {
            if a.predicted_time <= deadline {
                prop_assert!(b.predicted_time <= deadline);
                prop_assert!(b.predicted_power_mw <= a.predicted_power_mw);
            }
        }
    }

    /// Regulator settle is a metric on the rail set: zero on the
    /// diagonal, symmetric, and triangle-bounded (up to 1 fs of
    /// femtosecond truncation per leg). Oscillating a→b→a therefore
    /// always costs `2·settle(a,b)` over staying put — rapid voltage
    /// oscillation can never be free.
    #[test]
    fn settle_is_a_metric_so_oscillation_costs(
        a in 0usize..3,
        b in 0usize..3,
        c in 0usize..3,
    ) {
        let vf = planner().vf_table().clone();
        prop_assert_eq!(vf.settle(a, a), SimTime::ZERO);
        prop_assert_eq!(vf.settle(a, b), vf.settle(b, a));
        let fs = SimTime::from_fs(1);
        prop_assert!(vf.settle(a, c) <= vf.settle(a, b) + vf.settle(b, c) + fs);
        if a != b {
            prop_assert!(vf.settle(a, b) + vf.settle(b, a) > SimTime::ZERO);
        }
    }

    /// Re-planning from the rail the last plan landed on can only shed
    /// the settle: ramping away and back never beats staying.
    #[test]
    fn staying_on_the_planned_rail_never_loses(
        bytes in 50_000usize..400_000,
        cap in 250.0f64..520.0,
    ) {
        let p = planner();
        let base = PlanQuery {
            bytes,
            power_cap_mw: Some(cap),
            ..PlanQuery::default()
        };
        let mut q = VfQuery::new(base);
        q.current_rail = Some(p.vf_table().nominal_index());
        if let Ok(a) = p.plan_vf(&q) {
            let mut q2 = VfQuery::new(base);
            q2.current_rail = Some(a.rail);
            let b = p.plan_vf(&q2).expect("same constraints stay feasible");
            prop_assert!(b.predicted_time <= a.predicted_time);
            prop_assert!(b.predicted_energy_uj <= a.predicted_energy_uj);
        }
    }

    /// The backward-compat pin, randomized: a frequency-only (V, f)
    /// search on the nominal rail is bit-identical to the retained pre-DVFS
    /// reference implementation — frequencies, float payloads, and typed
    /// errors alike.
    #[test]
    fn plan_constrained_matches_the_pre_dvfs_reference(
        bytes in 1usize..400_000,
        ceiling in prop_oneof![
            Just(None),
            (10.0f64..400.0).prop_map(|m| Some(Frequency::from_mhz(m))),
        ],
        deadline_us in prop_oneof![Just(None), (10u64..5_000).prop_map(Some)],
        cap in prop_oneof![Just(None), (100.0f64..700.0).prop_map(Some)],
        budget in prop_oneof![Just(None), (1.0f64..2_000.0).prop_map(Some)],
    ) {
        let q = PlanQuery {
            bytes,
            max_frequency: ceiling,
            deadline: deadline_us.map(SimTime::from_us),
            power_cap_mw: cap,
            energy_budget_uj: budget,
        };
        check_against_reference(&planner(), q)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The 2-D pin, randomized: on every covered policy, the frontier
    /// search returns the single-pass reference's plan bit for bit, or
    /// the same typed error with the same payload.
    #[test]
    fn plan_vf_matches_the_single_pass_reference(
        bytes in 1usize..400_000,
        ceiling in prop_oneof![
            Just(None),
            (5.0f64..400.0).prop_map(|m| Some(Frequency::from_mhz(m))),
        ],
        deadline_us in prop_oneof![Just(None), (10u64..5_000).prop_map(Some)],
        cap in prop_oneof![Just(None), (50.0f64..700.0).prop_map(Some)],
        budget in prop_oneof![Just(None), (0.1f64..300.0).prop_map(Some)],
        current_rail in prop_oneof![Just(None), (0usize..4).prop_map(Some)],
        max_volts in prop_oneof![
            Just(None),
            Just(Some(0.85)),
            Just(Some(0.9)),
            (0.5f64..1.1).prop_map(Some),
        ],
        frequency_only in any::<bool>(),
    ) {
        let q = VfQuery {
            base: PlanQuery {
                bytes,
                max_frequency: ceiling,
                deadline: deadline_us.map(SimTime::from_us),
                power_cap_mw: cap,
                energy_budget_uj: budget,
            },
            current_rail,
            max_volts,
            frequency_only,
        };
        for (policy, reference) in single_pass_pairs() {
            let got = policy.plan_vf(&q);
            let want = reference.plan_vf(&q);
            let same = match (&got, &want) {
                (Ok(a), Ok(b)) => {
                    let (mut x, mut y) = (FOLD_SEED, FOLD_SEED);
                    fold_vf_plan(&mut x, a);
                    fold_vf_plan(&mut y, b);
                    x == y
                }
                (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
                _ => false,
            };
            prop_assert!(
                same,
                "{q:?} on {:?}: got {got:?}, reference {want:?}",
                policy.vf_table()
            );
        }
    }
}
