//! The traced fleet run: `Fleet::run_chaos` re-driven phase by phase
//! through the public `uparc-fleet` API, in the same order, with a host
//! clock around each layer.
//!
//! The replica must reproduce the untraced [`FleetOutcome`] exactly
//! before any of its timings are reported; [`Replica::mismatches`] lists
//! every total that differs. The rack-cap verification and the merge are
//! private to the library, so the replica carries its own copy of the
//! verification sweep: the traced batch then does the untraced batch's
//! work, and its verified peak and violations are checked too. Neither is
//! a named layer; their share of the library's batch is the residual.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use uparc_core::recovery::RecoveryPolicy;
use uparc_fleet::budget::{CapTimeline, EmergencyWindow, RackBudget};
use uparc_fleet::chip::{simulate_chip, ChipEnv, ChipInput, ChipOutcome, QueuedRequest};
use uparc_fleet::fleet::ShedCounts;
use uparc_fleet::router::RouteStats;
use uparc_fleet::{
    ChaosPlan, ChaosSpec, Fleet, FleetOutcome, FleetWorkloadSpec, HealthTimeline, RouteOutcome,
    Router, ShedReason,
};
use uparc_sim::obs::Obs;
use uparc_sim::power::calib;
use uparc_sim::stats::LogHistogram;
use uparc_sim::sweep::{parallel_map, worker_count};
use uparc_sim::time::SimTime;

/// Host time per layer of one traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `FleetWorkloadSpec::generate` over the whole stream.
    pub gen: Duration,
    /// Chaos plan and health timelines, then `Router::try_route` for
    /// every request.
    pub route: Duration,
    /// `RackBudget::schedule_chaos`.
    pub budget: Duration,
    /// The first `simulate_chip` fan-out, over every chip.
    pub chips: Duration,
    /// Sum of per-chip `simulate_chip` times in the first fan-out.
    pub chip_sum: Duration,
    /// Slowest single chip of the first fan-out.
    pub chip_slowest: Duration,
    /// Every failover round: orphan strikes, re-routes and re-simulated
    /// chips after the first fan-out.
    pub failover: Duration,
    /// The whole traced run.
    pub wall: Duration,
}

impl Phases {
    /// Time inside the named layers.
    pub fn named(&self) -> Duration {
        self.gen + self.route + self.budget + self.chips + self.failover
    }
}

/// One traced run: per-layer timings, work counts and merged totals.
pub struct Replica {
    pub phases: Phases,
    /// `try_route` calls, failover re-routes included.
    pub route_calls: u64,
    /// Requests handed to `simulate_chip`, re-simulated ones included.
    pub chip_requests: u64,
    /// Fan-outs after the first.
    pub failover_rounds: u64,
    pub orphans: u64,
    /// Chips re-simulated across the failover rounds.
    pub resimulated_chips: u64,
    pub workers: usize,
    outcome: FleetOutcome,
}

impl Replica {
    /// Names of the totals that differ from the untraced `expected`.
    pub fn mismatches(&self, expected: &FleetOutcome) -> Vec<&'static str> {
        let (a, b) = (&self.outcome, expected);
        let mut out = Vec::new();
        let mut cmp = |name, same: bool| {
            if !same {
                out.push(name);
            }
        };
        cmp("completed", a.completed == b.completed);
        cmp("shed", a.shed == b.shed);
        cmp("hits", a.hits == b.hits);
        cmp("misses", a.misses == b.misses);
        cmp("evictions", a.evictions == b.evictions);
        cmp(
            "decompressed_bytes",
            a.decompressed_bytes == b.decompressed_bytes,
        );
        cmp("route", a.route == b.route);
        cmp("words", a.words == b.words);
        cmp("checksum", a.checksum == b.checksum);
        cmp("energy_uj", a.energy_uj.to_bits() == b.energy_uj.to_bits());
        cmp("makespan", a.makespan == b.makespan);
        cmp("latency_us", a.latency_us == b.latency_us);
        cmp("failovers", a.failovers == b.failovers);
        cmp("faulted", a.faulted == b.faulted);
        cmp("healed", a.healed == b.healed);
        cmp(
            "peak_power_mw",
            a.peak_power_mw.to_bits() == b.peak_power_mw.to_bits(),
        );
        cmp("cap_violations", a.cap_violations == b.cap_violations);
        cmp(
            "cap_violations_emergency",
            a.cap_violations_emergency == b.cap_violations_emergency,
        );
        out
    }
}

/// Runs `spec` under `chaos` on `fleet` phase by phase.
///
/// # Panics
///
/// Panics if the rack cap cannot fund the surviving chips, which the
/// untraced run reports first.
pub fn run(fleet: &Fleet, spec: &FleetWorkloadSpec, chaos: &ChaosSpec) -> Replica {
    let t_wall = Instant::now();
    let catalog = fleet.catalog();
    let tables = fleet.tables();
    let config = fleet.config();
    let chips = config.chips;
    let epoch_fs = config.epoch.as_fs().max(1);
    let mut phases = Phases::default();

    let t = Instant::now();
    let stream = spec.generate(&catalog.ids());
    phases.gen = t.elapsed();

    let t = Instant::now();
    let plan = ChaosPlan::generate(chaos, chips);
    let health: Vec<HealthTimeline> = (0..chips)
        .map(|c| HealthTimeline::build(plan.chip(c), &config.health))
        .collect();
    let loss_at: Vec<Option<SimTime>> = (0..chips).map(|c| plan.chip(c).loss_at).collect();
    let mut router = Router::with_chaos(
        chips,
        config.route,
        config.chip_cache_bytes,
        tables.mean_service_estimate(),
        health,
        config.shed_backlog,
        Obs::null(),
    );
    let mut queues: Vec<Vec<QueuedRequest>> = vec![Vec::new(); chips];
    let mut demand: Vec<Vec<u64>> = Vec::new();
    let mut shed = ShedCounts::default();
    for req in &stream {
        let image_bytes = tables.facts(req.bitstream).image_bytes;
        match router.try_route(req, req.arrival, image_bytes) {
            RouteOutcome::Assigned(chip) => {
                let e = (req.arrival.as_fs() / epoch_fs) as usize;
                while demand.len() <= e {
                    demand.push(vec![0; chips]);
                }
                demand[e][chip] += 1;
                queues[chip].push(QueuedRequest::from(*req));
            }
            RouteOutcome::Shed(reason) => count_shed(&mut shed, reason),
        }
    }
    let mut route_calls = stream.len() as u64;
    phases.route = t.elapsed();

    let t = Instant::now();
    let budget = RackBudget {
        cap_mw: config.rack_cap_mw,
        epoch: config.epoch,
    };
    let timeline = CapTimeline::with_emergencies(config.rack_cap_mw, plan.emergencies());
    let schedule = budget
        .schedule_chaos(
            &demand,
            chips,
            calib::V6_IDLE_MW,
            tables.floor_mw(),
            &timeline,
            &loss_at,
        )
        .expect("the untraced run proved the cap feasible");
    phases.budget = t.elapsed();

    // The benchmark builds its fleets without `with_recovery`, so the
    // library runs faulted dispatches through the default ladder too.
    let recovery = RecoveryPolicy::default();
    let env = ChipEnv {
        catalog,
        tables,
        schedule: &schedule,
        cache_budget: config.chip_cache_bytes,
        plan: &plan,
        recovery: &recovery,
    };

    let mut outcomes: Vec<Option<ChipOutcome>> = (0..chips).map(|_| None).collect();
    let mut pending: Vec<usize> = (0..chips).collect();
    let mut failovers = 0u64;
    let est_fs = tables.mean_service_estimate().as_fs().max(1);
    let (mut chip_requests, mut rounds, mut orphan_count, mut resimulated) =
        (0u64, 0u64, 0u64, 0u64);
    let workers = worker_count(chips);
    let t_failover = Instant::now();
    let mut first_round = Duration::ZERO;
    while !pending.is_empty() {
        let t_round = Instant::now();
        let inputs: Vec<ChipInput> = pending
            .iter()
            .map(|&chip| ChipInput {
                chip,
                requests: queues[chip].clone(),
            })
            .collect();
        chip_requests += inputs.iter().map(|i| i.requests.len() as u64).sum::<u64>();
        let fresh = parallel_map(&inputs, |input| {
            let t = Instant::now();
            let o = simulate_chip(input, &env);
            (o, t.elapsed())
        });
        if rounds == 0 {
            first_round = t_round.elapsed();
            phases.chip_sum = fresh.iter().map(|(_, d)| *d).sum();
            phases.chip_slowest = fresh.iter().map(|(_, d)| *d).max().unwrap_or_default();
        } else {
            resimulated += inputs.len() as u64;
        }
        rounds += 1;
        let mut orphans: Vec<(usize, QueuedRequest)> = Vec::new();
        for (o, _) in fresh {
            let chip = o.chip;
            if !o.orphans.is_empty() {
                let gone: BTreeSet<u64> = o.orphans.iter().map(|q| q.req.index).collect();
                queues[chip].retain(|q| !gone.contains(&q.req.index));
                orphans.extend(o.orphans.iter().map(|&q| (chip, q)));
            }
            outcomes[chip] = Some(o);
        }
        orphan_count += orphans.len() as u64;
        orphans.sort_unstable_by_key(|(_, q)| (q.ready, q.req.index));
        pending.clear();
        for (_, mut q) in orphans {
            q.retries += 1;
            if q.retries > config.failover_retries {
                count_shed(&mut shed, ShedReason::RetriesExhausted);
                router.stats_shed();
                continue;
            }
            let backoff = est_fs << (q.retries - 1).min(6);
            q.ready += SimTime::from_fs(backoff);
            let image_bytes = tables.facts(q.req.bitstream).image_bytes;
            route_calls += 1;
            match router.try_route(&q.req, q.ready, image_bytes) {
                RouteOutcome::Assigned(to) => {
                    failovers += 1;
                    let pos = queues[to]
                        .partition_point(|e| (e.ready, e.req.index) <= (q.ready, q.req.index));
                    queues[to].insert(pos, q);
                    if !pending.contains(&to) {
                        pending.push(to);
                    }
                }
                RouteOutcome::Shed(reason) => count_shed(&mut shed, reason),
            }
        }
        pending.sort_unstable();
    }
    phases.chips = first_round;
    phases.failover = t_failover.elapsed() - first_round;
    let outcomes: Vec<ChipOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every chip simulated in round one"))
        .collect();

    let (peak_power_mw, cap_violations, cap_violations_emergency) =
        verify_rack(&outcomes, chips, &timeline, plan.emergencies(), &loss_at);
    let mut outcome = merge(spec, &outcomes, shed);
    outcome.route = router.stats();
    outcome.failovers = failovers;
    outcome.peak_power_mw = peak_power_mw;
    outcome.cap_violations = cap_violations;
    outcome.cap_violations_emergency = cap_violations_emergency;
    outcome.rack_cap_mw = config.rack_cap_mw;
    phases.wall = t_wall.elapsed();
    Replica {
        phases,
        route_calls,
        chip_requests,
        failover_rounds: rounds.saturating_sub(1),
        orphans: orphan_count,
        resimulated_chips: resimulated,
        workers,
        outcome,
    }
}

fn count_shed(shed: &mut ShedCounts, reason: ShedReason) {
    match reason {
        ShedReason::QueueFull => shed.queue_full += 1,
        ShedReason::NoLiveChip => shed.no_live_chip += 1,
        ShedReason::RetriesExhausted => shed.retries_exhausted += 1,
        ShedReason::DispatchFailed => shed.dispatch_failed += 1,
    }
}

/// Sums the chip outcomes in chip order, as the library's merge does, so
/// floating-point totals come out bit-identical.
fn merge(spec: &FleetWorkloadSpec, outcomes: &[ChipOutcome], mut shed: ShedCounts) -> FleetOutcome {
    let mut latency_us = LogHistogram::new();
    let mut degraded_latency_us = LogHistogram::new();
    let mut o = FleetOutcome {
        requests: spec.requests,
        chips: outcomes.len(),
        completed: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
        hit_rate: 0.0,
        decompressed_bytes: 0,
        route: RouteStats::default(),
        words: 0,
        energy_uj: 0.0,
        makespan: SimTime::ZERO,
        sim_words_per_sec: 0.0,
        latency_us: LogHistogram::new(),
        p50_us: 0.0,
        p95_us: 0.0,
        p99_us: 0.0,
        p999_us: 0.0,
        peak_power_mw: 0.0,
        rack_cap_mw: 0.0,
        cap_violations: 0,
        cap_violations_emergency: 0,
        mean_frequency_mhz: 0.0,
        min_chip_completed: u64::MAX,
        max_chip_completed: 0,
        checksum: 0,
        shed: ShedCounts::default(),
        failovers: 0,
        completed_failover: 0,
        chips_lost: 0,
        quarantines: 0,
        faulted: 0,
        healed: 0,
        faults_applied: 0,
        recovery_extra_time: SimTime::ZERO,
        recovery_extra_energy_uj: 0.0,
        degraded_completed: 0,
        degraded_latency_us: LogHistogram::new(),
        p99_steady_us: 0.0,
        p99_degraded_us: 0.0,
    };
    for c in outcomes {
        latency_us.merge(&c.latency_us);
        degraded_latency_us.merge(&c.degraded_latency_us);
        shed.dispatch_failed += c.failed.len() as u64;
        o.completed += c.completed;
        o.hits += c.hits;
        o.misses += c.misses;
        o.evictions += c.evictions;
        o.decompressed_bytes += c.decompressed_bytes;
        o.words += c.words;
        o.energy_uj += c.energy_uj;
        o.makespan = o.makespan.max(c.finish);
        o.checksum ^= c.checksum;
        o.faulted += c.faulted;
        o.healed += c.healed;
    }
    latency_us.merge(&degraded_latency_us);
    o.latency_us = latency_us;
    o.shed = shed;
    o
}

/// The rack-cap verification sweep: integrates what the chips actually
/// drew against the cap timeline and returns `(peak mW, steady
/// violations, emergency violations)`.
fn verify_rack(
    outcomes: &[ChipOutcome],
    chips: usize,
    timeline: &CapTimeline,
    emergencies: &[EmergencyWindow],
    loss_at: &[Option<SimTime>],
) -> (f64, u64, u64) {
    const CAP_EPSILON_MW: f64 = 1e-9;
    // (time_fs, phase, delta): ends (phase 0) apply before starts.
    let mut events: Vec<(u64, u8, f64)> = Vec::new();
    for o in outcomes {
        for &(start, end, draw) in &o.intervals {
            events.push((start, 1, draw));
            events.push((end, 0, -draw));
        }
    }
    for loss in loss_at.iter().flatten() {
        events.push((loss.as_fs(), 0, -calib::V6_IDLE_MW));
    }
    for w in emergencies {
        events.push((w.from.as_fs(), 1, 0.0));
        events.push((w.to.as_fs(), 1, 0.0));
    }
    events.sort_unstable_by_key(|a| (a.0, a.1));
    let mut current = chips as f64 * calib::V6_IDLE_MW;
    let mut peak = current;
    let (mut steady, mut emergency) = (0u64, 0u64);
    let mut i = 0;
    while i < events.len() {
        let key = (events[i].0, events[i].1);
        while i < events.len() && (events[i].0, events[i].1) == key {
            current += events[i].2;
            i += 1;
        }
        peak = peak.max(current);
        if key.1 == 1 && current > timeline.cap_at(key.0) + CAP_EPSILON_MW {
            if emergencies.iter().any(|w| w.contains(key.0)) {
                emergency += 1;
            } else {
                steady += 1;
            }
        }
    }
    (peak, steady, emergency)
}
