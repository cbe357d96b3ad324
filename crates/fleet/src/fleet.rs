//! Fleet orchestration: route → budget → simulate → verify → merge.
//!
//! The run is deterministic end to end: routing and cap scheduling are
//! sequential; the per-chip simulations are mutually independent and fan
//! out over [`uparc_sim::sweep::parallel_map`], whose results come back
//! in chip order regardless of worker count; aggregation walks chips in
//! index order. A [`FleetOutcome`] therefore renders byte-identically at
//! any `UPARC_SWEEP_THREADS` setting — `bench_fleet` gates on exactly
//! that.
//!
//! Chaos runs ([`Fleet::run_chaos`]) extend the pipeline with failover
//! rounds: chips that die mid-run spill their unfinished queue back as
//! orphans, which are re-routed to survivors (with bounded retries and
//! deterministic exponential backoff) and the affected chips re-simulated
//! — still sequential control flow around order-preserving fan-outs, so
//! chaos campaigns keep the byte-identity guarantee. Every request ends
//! in exactly one ledger: completed (possibly after failover) or shed
//! with a typed [`ShedReason`]; an assertion enforces the accounting
//! identity on every run.

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_core::policy::PowerAwarePolicy;
use uparc_core::recovery::RecoveryPolicy;
use uparc_fpga::Device;
use uparc_serve::catalog::Catalog;
use uparc_serve::request::BitstreamId;
use uparc_sim::obs::{EventKind, Obs};
use uparc_sim::power::calib;
use uparc_sim::stats::LogHistogram;
use uparc_sim::sweep::parallel_map;
use uparc_sim::time::{Frequency, SimTime};

use crate::budget::{CapTimeline, EmergencyWindow, RackBudget};
use crate::chaos::{ChaosPlan, ChaosSpec};
use crate::chip::{simulate_chip, ChipEnv, ChipInput, ChipOutcome, QueuedRequest};
use crate::health::{HealthConfig, HealthTimeline};
use crate::plan::PlanTables;
use crate::router::{RouteOutcome, RoutePolicy, RouteStats, Router, ShedReason};
use crate::workload::FleetWorkloadSpec;
use crate::FleetError;

/// Tolerance when checking total draw against the rack cap, mW.
const CAP_EPSILON_MW: f64 = 1e-9;

/// Fleet shape and policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated UPaRC chips.
    pub chips: usize,
    /// Total rack power cap (every chip's idle included), mW.
    pub rack_cap_mw: f64,
    /// Hierarchical-budget rebalance epoch.
    pub epoch: SimTime,
    /// Per-chip decompressed-image cache budget, bytes.
    pub chip_cache_bytes: usize,
    /// Request-to-chip routing policy.
    pub route: RoutePolicy,
    /// Slowest CLK_2 the fleet is willing to run: the operating grid is
    /// restricted to this and up, and the rack budget funds exactly this
    /// floor on every chip.
    pub min_frequency: Frequency,
    /// Health state-machine tuning for chaos runs.
    pub health: HealthConfig,
    /// Backlog threshold past which requests are shed (priority-scaled:
    /// priority 0 tolerates 4×, priority 3 only 1×). `None` never sheds
    /// on backlog.
    pub shed_backlog: Option<SimTime>,
    /// How many chip deaths one request may survive (via failover)
    /// before it is shed with [`ShedReason::RetriesExhausted`].
    pub failover_retries: u32,
}

/// A calibrated fleet, ready to run workloads.
#[derive(Debug)]
pub struct Fleet {
    catalog: Catalog,
    config: FleetConfig,
    planner: PowerAwarePolicy,
    tables: PlanTables,
}

/// Requests shed per [`ShedReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedCounts {
    /// Backlog past the priority-scaled threshold.
    pub queue_full: u64,
    /// No routable chip existed.
    pub no_live_chip: u64,
    /// The failover retry budget ran out.
    pub retries_exhausted: u64,
    /// The dispatch failed terminally even after recovery.
    pub dispatch_failed: u64,
}

impl ShedCounts {
    /// Total requests shed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.queue_full + self.no_live_chip + self.retries_exhausted + self.dispatch_failed
    }

    fn count(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => self.queue_full += 1,
            ShedReason::NoLiveChip => self.no_live_chip += 1,
            ShedReason::RetriesExhausted => self.retries_exhausted += 1,
            ShedReason::DispatchFailed => self.dispatch_failed += 1,
        }
    }
}

/// Merged, deterministic results of one fleet run (no wall-clock
/// anywhere — every field is reproducible bit-for-bit).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Requests in the stream.
    pub requests: u64,
    /// Chips in the fleet.
    pub chips: usize,
    /// Requests served to completion. `completed + shed.total()` always
    /// equals `requests` — no request is lost or double-served, asserted
    /// on every run.
    pub completed: u64,
    /// Fleet-wide decompressed-image cache hits.
    pub hits: u64,
    /// Fleet-wide cache misses (real decompressions).
    pub misses: u64,
    /// Fleet-wide cache evictions.
    pub evictions: u64,
    /// Hits over hits + misses.
    pub hit_rate: f64,
    /// Bytes actually decompressed on misses.
    pub decompressed_bytes: u64,
    /// Router tallies (warm/cold/spills; zero for random routing).
    pub route: RouteStats,
    /// Total ICAP words transferred.
    pub words: u64,
    /// Above-idle energy across the run, µJ.
    pub energy_uj: f64,
    /// When the last chip finished.
    pub makespan: SimTime,
    /// Simulated reconfiguration throughput: words / makespan.
    pub sim_words_per_sec: f64,
    /// Merged arrival-to-finish latency histogram (steady and degraded
    /// phases together), µs.
    pub latency_us: LogHistogram,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Verified peak total draw (idle of every live chip included), mW.
    pub peak_power_mw: f64,
    /// The rack cap the run was budgeted under, mW.
    pub rack_cap_mw: f64,
    /// Instants where total draw exceeded the effective rack cap outside
    /// emergency windows (gated to zero).
    pub cap_violations: u64,
    /// Instants where total draw exceeded an *emergency* cap inside its
    /// window (gated to zero).
    pub cap_violations_emergency: u64,
    /// Mean dispatched CLK_2 over all requests, MHz.
    pub mean_frequency_mhz: f64,
    /// Fewest requests any one chip served.
    pub min_chip_completed: u64,
    /// Most requests any one chip served.
    pub max_chip_completed: u64,
    /// XOR-fold of every served image (byte-identity witness).
    pub checksum: u64,
    /// Requests shed, by reason.
    pub shed: ShedCounts,
    /// Successful re-route attempts after chip deaths.
    pub failovers: u64,
    /// Completions that had been orphaned by a death at least once.
    pub completed_failover: u64,
    /// Chips permanently lost during the campaign.
    pub chips_lost: u64,
    /// Quarantine entries across all chips.
    pub quarantines: u64,
    /// Dispatches that hit at least one injected fault.
    pub faulted: u64,
    /// Faulted dispatches the recovery ladder completed anyway.
    pub healed: u64,
    /// Individual faults applied across all recovery dispatches.
    pub faults_applied: u64,
    /// Extra latency the recovery ladder added, summed.
    pub recovery_extra_time: SimTime,
    /// Extra energy the recovery ladder drew, µJ.
    pub recovery_extra_energy_uj: f64,
    /// Degraded-phase (faulted or failed-over) completions.
    pub degraded_completed: u64,
    /// Degraded-phase latency histogram, µs.
    pub degraded_latency_us: LogHistogram,
    /// Steady-phase 99th-percentile latency, µs.
    pub p99_steady_us: f64,
    /// Degraded-phase 99th-percentile latency, µs — reported apart so
    /// recovery detours are not averaged away.
    pub p99_degraded_us: f64,
}

impl FleetOutcome {
    /// Renders the outcome as a stable multi-line digest. Two runs of
    /// the same workload must produce byte-identical digests at any
    /// worker count; `bench_fleet` gates on this.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "requests={} chips={} completed={}\n",
            self.requests, self.chips, self.completed
        ));
        s.push_str(&format!(
            "cache: hits={} misses={} evictions={} hit_rate={:.6} decompressed_bytes={}\n",
            self.hits, self.misses, self.evictions, self.hit_rate, self.decompressed_bytes
        ));
        s.push_str(&format!(
            "route: warm={} cold={} spills={}\n",
            self.route.warm, self.route.cold, self.route.spills
        ));
        s.push_str(&format!(
            "sim: words={} makespan_us={:.3} words_per_sec={:.1} energy_uj={:.3}\n",
            self.words,
            self.makespan.as_us_f64(),
            self.sim_words_per_sec,
            self.energy_uj
        ));
        s.push_str(&format!(
            "latency_us: p50={:.3} p95={:.3} p99={:.3} p999={:.3}\n",
            self.p50_us, self.p95_us, self.p99_us, self.p999_us
        ));
        s.push_str(&format!(
            "power: peak_mw={:.3} cap_mw={:.3} violations={} violations_emergency={}\n",
            self.peak_power_mw,
            self.rack_cap_mw,
            self.cap_violations,
            self.cap_violations_emergency
        ));
        s.push_str(&format!(
            "balance: min_chip={} max_chip={} mean_freq_mhz={:.2} checksum={:016x}\n",
            self.min_chip_completed,
            self.max_chip_completed,
            self.mean_frequency_mhz,
            self.checksum
        ));
        s.push_str(&format!(
            "chaos: chips_lost={} quarantines={} failovers={} completed_failover={}\n",
            self.chips_lost, self.quarantines, self.failovers, self.completed_failover
        ));
        s.push_str(&format!(
            "shed: total={} queue_full={} no_live_chip={} retries_exhausted={} dispatch_failed={}\n",
            self.shed.total(),
            self.shed.queue_full,
            self.shed.no_live_chip,
            self.shed.retries_exhausted,
            self.shed.dispatch_failed
        ));
        s.push_str(&format!(
            "recovery: faulted={} healed={} faults_applied={} extra_time_us={:.3} extra_energy_uj={:.3}\n",
            self.faulted,
            self.healed,
            self.faults_applied,
            self.recovery_extra_time.as_us_f64(),
            self.recovery_extra_energy_uj
        ));
        s.push_str(&format!(
            "degraded: completed={} p99_steady_us={:.3} p99_degraded_us={:.3}\n",
            self.degraded_completed, self.p99_steady_us, self.p99_degraded_us
        ));
        s
    }
}

/// Sweeps every transfer interval across all chips and returns the
/// verified peak total draw plus the instants above the effective cap,
/// split into steady-cap and emergency-window violations.
///
/// This is the *independent* check: it ignores how the budget layer
/// decomposed the cap and simply integrates what the chips actually
/// drew — idle base included, with a dead chip's idle removed at its
/// death instant — against the cap *timeline*, so neither a budgeting
/// bug nor an emergency mis-decomposition can hide its own violations.
fn verify_rack(
    outcomes: &[ChipOutcome],
    chips: usize,
    timeline: &CapTimeline,
    emergencies: &[EmergencyWindow],
    loss_at: &[Option<SimTime>],
) -> (f64, u64, u64) {
    // (time_fs, phase, delta): ends (phase 0) apply before starts
    // (phase 1) at the same instant, so back-to-back transfers don't
    // double-count at the boundary.
    let mut events: Vec<(u64, u8, f64)> = Vec::new();
    for o in outcomes {
        for &(start, end, draw) in &o.intervals {
            events.push((start, 1, draw));
            events.push((end, 0, -draw));
        }
    }
    for loss in loss_at.iter().flatten() {
        // A dead chip stops drawing even its idle floor.
        events.push((loss.as_fs(), 0, -calib::V6_IDLE_MW));
    }
    // Synthetic zero-draw samplers at every emergency edge: the cap must
    // hold there even if no transfer event lands on the boundary.
    for w in emergencies {
        events.push((w.from.as_fs(), 1, 0.0));
        events.push((w.to.as_fs(), 1, 0.0));
    }
    events.sort_unstable_by_key(|a| (a.0, a.1));
    let base = chips as f64 * calib::V6_IDLE_MW;
    let mut current = base;
    let mut peak = base;
    let mut violations = 0u64;
    let mut emergency_violations = 0u64;
    let mut i = 0;
    while i < events.len() {
        // Apply every event at this (instant, phase) before sampling.
        let key = (events[i].0, events[i].1);
        while i < events.len() && (events[i].0, events[i].1) == key {
            current += events[i].2;
            i += 1;
        }
        if current > peak {
            peak = current;
        }
        if key.1 == 1 {
            let cap = timeline.cap_at(key.0);
            if current > cap + CAP_EPSILON_MW {
                if emergencies.iter().any(|w| w.contains(key.0)) {
                    emergency_violations += 1;
                } else {
                    violations += 1;
                }
            }
        }
    }
    (peak, violations, emergency_violations)
}

impl Fleet {
    /// Builds a fleet over `catalog`, calibrating the planning tables
    /// (one measured dispatch per bitstream shape per grid frequency).
    /// Faulted dispatches heal through [`RecoveryPolicy::default`].
    ///
    /// # Errors
    ///
    /// [`FleetError::NoChips`], [`FleetError::EmptyCatalog`], or
    /// [`FleetError::NoAdmissibleFrequency`].
    pub fn new(catalog: Catalog, config: FleetConfig) -> Result<Self, FleetError> {
        if config.chips == 0 {
            return Err(FleetError::NoChips);
        }
        let planner = PowerAwarePolicy::paper_setup(catalog.device().family());
        let tables = PlanTables::build(&catalog, &planner, config.min_frequency)?;
        Ok(Fleet {
            catalog,
            config,
            planner,
            tables,
        })
    }

    /// The bitstream inventory.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The fleet configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The operating-point planner the tables were calibrated against.
    #[must_use]
    pub fn planner(&self) -> &PowerAwarePolicy {
        &self.planner
    }

    /// The calibrated planning tables.
    #[must_use]
    pub fn tables(&self) -> &PlanTables {
        &self.tables
    }

    /// Runs `spec` through the fleet on the happy path: no chaos, no
    /// observability overhead. Equivalent to
    /// `run_chaos(spec, &ChaosSpec::quiet(), &Obs::null())`.
    ///
    /// # Errors
    ///
    /// [`FleetError::EmptyWorkload`] if `spec.requests` is zero, and
    /// [`FleetError::InfeasibleRackCap`] if the rack cap cannot fund
    /// every chip's idle plus the dynamic floor.
    pub fn run(&self, spec: &FleetWorkloadSpec) -> Result<FleetOutcome, FleetError> {
        self.run_chaos(spec, &ChaosSpec::quiet(), &Obs::null())
    }

    /// Runs `spec` under a chaos campaign: sequential deterministic
    /// routing against the health timelines, hierarchical cap scheduling
    /// over the emergency timeline and the surviving set, parallel chip
    /// simulation with fault injection and recovery, failover rounds for
    /// orphaned requests, rack-cap verification against the cap
    /// *timeline*, and merged summary statistics.
    ///
    /// # Errors
    ///
    /// [`FleetError::EmptyWorkload`] if `spec.requests` is zero, and
    /// [`FleetError::InfeasibleRackCap`] if any epoch's effective cap
    /// cannot fund the surviving chips' idle plus dynamic floor.
    ///
    /// # Panics
    ///
    /// Panics if the accounting identity `completed + shed == requests`
    /// (every request exactly once) is violated — that assertion is the
    /// chaos layer's core guarantee.
    pub fn run_chaos(
        &self,
        spec: &FleetWorkloadSpec,
        chaos: &ChaosSpec,
        obs: &Obs,
    ) -> Result<FleetOutcome, FleetError> {
        if spec.requests == 0 {
            return Err(FleetError::EmptyWorkload);
        }
        let ids = self.catalog.ids();
        let chips = self.config.chips;
        let epoch_fs = self.config.epoch.as_fs().max(1);
        let plan = ChaosPlan::generate(chaos, chips);

        // Announce rack-level emergencies up front (sequential phase).
        for w in plan.emergencies() {
            obs.instant(w.from, EventKind::CapEmergency { cap_mw: w.cap_mw });
        }

        // Expand per-chip chaos into health trajectories.
        let health: Vec<HealthTimeline> = (0..chips)
            .map(|c| HealthTimeline::build(plan.chip(c), &self.config.health))
            .collect();
        let loss_at: Vec<Option<SimTime>> = (0..chips).map(|c| plan.chip(c).loss_at).collect();
        let chips_lost = loss_at.iter().flatten().count() as u64;
        let quarantines: u64 = health.iter().map(HealthTimeline::quarantine_count).sum();

        // Phase 1 — sequential routing + per-epoch demand accounting.
        let mut router = Router::with_chaos(
            chips,
            self.config.route,
            self.config.chip_cache_bytes,
            self.tables.mean_service_estimate(),
            health,
            self.config.shed_backlog,
            obs.clone(),
        );
        let mut queues: Vec<Vec<QueuedRequest>> = vec![Vec::new(); chips];
        let mut demand: Vec<Vec<u64>> = Vec::new();
        let mut shed = ShedCounts::default();
        for i in 0..spec.requests {
            let req = spec.request(i, &ids);
            let image_bytes = self.tables.facts(req.bitstream).image_bytes;
            match router.try_route(&req, req.arrival, image_bytes) {
                RouteOutcome::Assigned(chip) => {
                    let e = (req.arrival.as_fs() / epoch_fs) as usize;
                    while demand.len() <= e {
                        demand.push(vec![0; chips]);
                    }
                    demand[e][chip] += 1;
                    queues[chip].push(QueuedRequest::from(req));
                }
                RouteOutcome::Shed(reason) => shed.count(reason),
            }
        }

        // Phase 2 — decompose the rack cap timeline over the survivors.
        let budget = RackBudget {
            cap_mw: self.config.rack_cap_mw,
            epoch: self.config.epoch,
        };
        let timeline = CapTimeline::with_emergencies(self.config.rack_cap_mw, plan.emergencies());
        let schedule = budget.schedule_chaos(
            &demand,
            chips,
            calib::V6_IDLE_MW,
            self.tables.floor_mw(),
            &timeline,
            &loss_at,
        )?;
        let recovery = RecoveryPolicy::default();
        let env = ChipEnv {
            catalog: &self.catalog,
            tables: &self.tables,
            schedule: &schedule,
            cache_budget: self.config.chip_cache_bytes,
            plan: &plan,
            recovery: &recovery,
        };

        // Phase 3 — simulate chips (order-preserving fan-out), then
        // failover rounds: orphans of dead chips are re-routed to
        // survivors with exponential backoff, the receiving chips
        // re-simulated. Each round is sequential control flow around a
        // parallel fan-out, so the result is worker-count independent.
        let mut outcomes: Vec<Option<ChipOutcome>> = (0..chips).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..chips).collect();
        let mut failovers = 0u64;
        let est_fs = self.tables.mean_service_estimate().as_fs().max(1);
        while !pending.is_empty() {
            let inputs: Vec<ChipInput> = pending
                .iter()
                .map(|&chip| ChipInput {
                    chip,
                    requests: queues[chip].clone(),
                })
                .collect();
            let fresh = parallel_map(&inputs, |input| simulate_chip(input, &env));
            // Collect this round's orphans in chip order, then strike
            // them from their queues so a later re-simulation of the
            // same chip cannot orphan them twice.
            let mut orphans: Vec<(usize, QueuedRequest)> = Vec::new();
            for o in fresh {
                let chip = o.chip;
                if !o.orphans.is_empty() {
                    let gone: std::collections::BTreeSet<u64> =
                        o.orphans.iter().map(|q| q.req.index).collect();
                    queues[chip].retain(|q| !gone.contains(&q.req.index));
                    orphans.extend(o.orphans.iter().map(|&q| (chip, q)));
                }
                outcomes[chip] = Some(o);
            }
            orphans.sort_unstable_by_key(|(_, q)| (q.ready, q.req.index));
            pending.clear();
            for (from, mut q) in orphans {
                q.retries += 1;
                if q.retries > self.config.failover_retries {
                    shed.count(ShedReason::RetriesExhausted);
                    router.stats_shed();
                    continue;
                }
                // Deterministic exponential backoff before re-dispatch.
                let backoff = est_fs << (q.retries - 1).min(6);
                q.ready += SimTime::from_fs(backoff);
                let image_bytes = self.tables.facts(q.req.bitstream).image_bytes;
                match router.try_route(&q.req, q.ready, image_bytes) {
                    RouteOutcome::Assigned(to) => {
                        obs.instant(
                            q.ready,
                            EventKind::Failover {
                                request: q.req.index,
                                from: from as u32,
                                to: to as u32,
                            },
                        );
                        failovers += 1;
                        let pos = queues[to]
                            .partition_point(|e| (e.ready, e.req.index) <= (q.ready, q.req.index));
                        queues[to].insert(pos, q);
                        if !pending.contains(&to) {
                            pending.push(to);
                        }
                    }
                    RouteOutcome::Shed(reason) => shed.count(reason),
                }
            }
            pending.sort_unstable();
        }
        let outcomes: Vec<ChipOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every chip simulated in round one"))
            .collect();

        // Phase 4 — independent rack-cap verification against the
        // emergency timeline and the surviving idle base.
        let (peak_power_mw, cap_violations, cap_violations_emergency) =
            verify_rack(&outcomes, chips, &timeline, plan.emergencies(), &loss_at);

        // Phase 5 — merge (chip order, deterministic) + accounting.
        let mut latency_us = LogHistogram::new();
        let mut degraded_latency_us = LogHistogram::new();
        let mut freq_mix = vec![0u64; self.tables.grid().len()];
        let (mut completed, mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64, 0u64);
        let (mut decompressed_bytes, mut words) = (0u64, 0u64);
        let mut energy_uj = 0.0f64;
        let mut makespan = SimTime::ZERO;
        let mut checksum = 0u64;
        let (mut min_chip, mut max_chip) = (u64::MAX, 0u64);
        let mut completed_failover = 0u64;
        let (mut faulted, mut healed, mut faults_applied) = (0u64, 0u64, 0u64);
        let mut recovery_extra_time = SimTime::ZERO;
        let mut recovery_extra_energy_uj = 0.0f64;
        let mut served_seen = vec![false; spec.requests as usize];
        for o in &outcomes {
            latency_us.merge(&o.latency_us);
            degraded_latency_us.merge(&o.degraded_latency_us);
            for (m, c) in freq_mix.iter_mut().zip(&o.freq_mix) {
                *m += c;
            }
            for &i in &o.served {
                assert!(
                    !served_seen[i as usize],
                    "request {i} served twice (chip {})",
                    o.chip
                );
                served_seen[i as usize] = true;
            }
            shed.dispatch_failed += o.failed.len() as u64;
            completed += o.completed;
            completed_failover += o.completed_failover;
            hits += o.hits;
            misses += o.misses;
            evictions += o.evictions;
            decompressed_bytes += o.decompressed_bytes;
            words += o.words;
            energy_uj += o.energy_uj;
            makespan = makespan.max(o.finish);
            checksum ^= o.checksum;
            min_chip = min_chip.min(o.completed);
            max_chip = max_chip.max(o.completed);
            faulted += o.faulted;
            healed += o.healed;
            faults_applied += o.faults_applied;
            recovery_extra_time += o.recovery_extra_time;
            recovery_extra_energy_uj += o.recovery_extra_energy_uj;
        }
        // The chaos layer's core guarantee: every request is accounted
        // exactly once — completed on some chip (possibly after
        // failover) or shed with a reason. Nothing lost, nothing
        // double-served.
        assert_eq!(
            completed + shed.total(),
            spec.requests,
            "accounting identity violated: {completed} completed + {} shed != {} requests",
            shed.total(),
            spec.requests
        );
        let staged = hits + misses;
        let dispatched: u64 = freq_mix.iter().sum();
        let mean_frequency_mhz = if dispatched > 0 {
            freq_mix
                .iter()
                .enumerate()
                .map(|(i, &n)| self.tables.frequency(i).as_mhz() * n as f64)
                .sum::<f64>()
                / dispatched as f64
        } else {
            0.0
        };
        let span = makespan.as_secs_f64();
        // Overall latency quantiles cover both phases, preserving the
        // pre-chaos meaning of p50…p999; the phase split is reported
        // alongside.
        let mut merged = latency_us.clone();
        merged.merge(&degraded_latency_us);
        let degraded_completed = degraded_latency_us.count();
        Ok(FleetOutcome {
            requests: spec.requests,
            chips,
            completed,
            hits,
            misses,
            evictions,
            hit_rate: if staged > 0 {
                hits as f64 / staged as f64
            } else {
                0.0
            },
            decompressed_bytes,
            route: router.stats(),
            words,
            energy_uj,
            makespan,
            sim_words_per_sec: if span > 0.0 { words as f64 / span } else { 0.0 },
            p50_us: merged.percentile(50.0).unwrap_or(0.0),
            p95_us: merged.percentile(95.0).unwrap_or(0.0),
            p99_us: merged.percentile(99.0).unwrap_or(0.0),
            p999_us: merged.percentile(99.9).unwrap_or(0.0),
            p99_steady_us: latency_us.percentile(99.0).unwrap_or(0.0),
            p99_degraded_us: degraded_latency_us.percentile(99.0).unwrap_or(0.0),
            latency_us: merged,
            peak_power_mw,
            rack_cap_mw: self.config.rack_cap_mw,
            cap_violations,
            cap_violations_emergency,
            mean_frequency_mhz,
            min_chip_completed: min_chip,
            max_chip_completed: max_chip,
            checksum,
            shed,
            failovers,
            completed_failover,
            chips_lost,
            quarantines,
            faulted,
            healed,
            faults_applied,
            recovery_extra_time,
            recovery_extra_energy_uj,
            degraded_completed,
            degraded_latency_us,
        })
    }
}

/// Builds a uniform synthetic catalog for fleet benches and tests:
/// `images` sparse-profile bitstreams of `frames_per_image` frames each,
/// all placed in one reconfigurable region, staged through the catalog's
/// default compressed datapath (the staging BRAM is sized to force
/// compression, so every image exercises the decompressed-image cache).
///
/// # Panics
///
/// Panics on invalid parameters (zero images/frames, or a region that
/// does not fit the device).
#[must_use]
pub fn synthetic_catalog(images: usize, frames_per_image: u32, seed: u64) -> Catalog {
    assert!(images > 0 && frames_per_image > 0, "empty catalog shape");
    let device = Device::xc5vsx50t();
    let frame_bytes = device.family().frame_bytes();
    // Size the staging BRAM below one raw image so every entry stages
    // compressed (mode word + byte count + payload must fit instead).
    let bram_bytes = (frames_per_image as usize * frame_bytes) / 2;
    let mut catalog = Catalog::new(device).with_bram_bytes(bram_bytes);
    catalog
        .add_region("pool", 100..100 + frames_per_image)
        .expect("region fits the device");
    let batch: Vec<(BitstreamId, PartialBitstream)> = (0..images)
        .map(|i| {
            let id = BitstreamId(i as u32 + 1);
            let payload = SynthProfile::sparse().generate(
                catalog.device(),
                100,
                frames_per_image,
                seed.wrapping_add(i as u64),
            );
            let bs = PartialBitstream::build(catalog.device(), 100, &payload);
            (id, bs)
        })
        .collect();
    catalog
        .register_batch(batch)
        .expect("synthetic batch registers");
    catalog
}
