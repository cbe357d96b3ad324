//! The reconfiguration service: admission, per-region dispatch, and the
//! power-budgeted event loop.
//!
//! One [`Service::run`] executes one request trace to completion by
//! draining a single [`EventQueue`] of arrivals and lane completions.
//! Each region gets its own [`UParc`] controller lane and run queue;
//! arrivals pass the admission checks or are rejected with a typed
//! [`AdmissionError`], and every time a lane frees up the configured
//! [`Policy`] picks the next request. Operating points come from
//! [`PowerAwarePolicy::plan_vf`], so [`Policy::PowerGreedy`] can hold the
//! summed draw of concurrent reconfigurations under a chip-level cap, and
//! every dispatch goes through the self-healing [`RecoveryPolicy`]'s full
//! ladder ([`RecoveryPolicy::default`]).

use std::collections::{BTreeMap, VecDeque};

use uparc_core::policy::{PlanQuery, PowerAwarePolicy, VfPlan, VfQuery};
use uparc_core::recovery::RecoveryPolicy;
use uparc_core::{UParc, UparcError};
use uparc_sim::obs::{EventKind, Obs};
use uparc_sim::power::{calib, VfTable};
use uparc_sim::queue::EventQueue;
use uparc_sim::time::{Frequency, SimTime};

use crate::catalog::Catalog;
use crate::metrics::{Completion, Failure, PowerSample, Rejection, ServiceMetrics};
use crate::request::{AdmissionError, BitstreamId, ReconfigRequest, RegionId};
use crate::scheduler::{candidate_order, Policy, Queued};
use crate::thermal::{LaneTemp, ThermalConfig};

/// Safety margin on estimated service times: the analytic transfer model
/// ignores pipeline fill and stall cycles, so admission pads it before
/// promising a deadline is reachable.
const ESTIMATE_MARGIN: f64 = 1.05;

/// Tolerance when checking sampled draw against the cap (floating-point
/// sums of per-lane draws).
const CAP_EPSILON_MW: f64 = 1e-9;

/// Tunables of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Dispatch policy.
    pub policy: Policy,
    /// Chip-level cap on the summed reconfiguration-path draw, in
    /// milliwatts. Only [`Policy::PowerGreedy`] schedules against it,
    /// but violations are counted under every policy. Default: no cap.
    pub power_cap_mw: f64,
    /// Per-region run-queue capacity; arrivals beyond it are rejected
    /// with [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Has no effect: no lane keeps a decompressed-image cache (a clean
    /// packed dispatch writes the staged payload's source words). Kept
    /// while the benchmark's dispatch probe still reads it.
    pub decompressed_cache_bytes: usize,
    /// (V, f) operating-point table for DVFS dispatch. `None` (the
    /// default) plans on [`VfTable::nominal_only`] — the nominal rail and
    /// the analytic power model — so every dispatch runs the nominal rail
    /// and the planner's answers are bit-identical to the original
    /// frequency-only planner.
    pub vf: Option<VfTable>,
    /// Per-region thermal model and throttling governor. `None` (the
    /// default) disables thermal accounting entirely. Requires `vf` to
    /// demote operating points; with `vf: None` the governor still caps
    /// the dispatch draw but can only trade frequency.
    pub thermal: Option<ThermalConfig>,
    /// Observability handle for the run: each lane reports through a
    /// region-tagged copy, the scheduler itself through the handle as
    /// given. The disabled [`Obs::null`] (the default) makes every
    /// instrumentation site a single-branch no-op.
    pub obs: Obs,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: Policy::Fifo,
            power_cap_mw: f64::INFINITY,
            queue_capacity: 32,
            decompressed_cache_bytes: 32 * 1024 * 1024,
            vf: None,
            thermal: None,
            obs: Obs::null(),
        }
    }
}

/// Per-bitstream scheduling facts, calibrated once per service in
/// [`Service::new`] by dry-run dispatches on a scratch controller. They
/// depend only on the catalog and the config, and the dispatch is
/// deterministic, so the calibration is exact for a fault-free dispatch.
#[derive(Debug, Clone, Copy)]
struct Est {
    /// Best-case dispatch-to-finish time with the lane idle (measured at
    /// the fastest admissible clock, the DCM relock from a cold lane
    /// included), margin included.
    service_fastest: SimTime,
    /// Same dispatch re-measured with CLK_2 already locked at the target
    /// — the relock-free service time. `service_fastest - service_pure`
    /// is the unhidden relock residual a dispatch pays exactly when the
    /// planned frequency differs from the lane's current one.
    service_pure: SimTime,
    /// The fastest admissible clock the estimates were measured at.
    fastest: Frequency,
    /// CLK_2 ceiling imposed by the datapath (compressed mode).
    ceiling: Option<Frequency>,
    /// Extra steady draw of the decompressor during the transfer, mW.
    extra_draw_mw: f64,
}

/// The reconfiguration service for one catalog.
#[derive(Debug, Clone)]
pub struct Service {
    catalog: Catalog,
    config: ServiceConfig,
    planner: PowerAwarePolicy,
    /// Every catalog entry's calibrated scheduling facts.
    ests: BTreeMap<BitstreamId, Est>,
}

impl Service {
    /// Creates a service over `catalog` with the paper's controller
    /// setup (100 MHz reference, actively-waiting manager), and
    /// calibrates it: every catalog entry is dispatched on a scratch
    /// controller lane at its fastest admissible clock, once paying the
    /// DCM relock and once without, and admission checks deadlines
    /// against those times.
    ///
    /// # Panics
    ///
    /// Panics if a controller lane cannot be built (no hardware
    /// decompressor for the catalog's algorithm) or a calibration
    /// dispatch fails on its fault-free scratch lane.
    #[must_use]
    pub fn new(catalog: Catalog, config: ServiceConfig) -> Self {
        let vf = config.vf.clone().unwrap_or_else(VfTable::nominal_only);
        let planner = PowerAwarePolicy::paper_setup(catalog.device().family()).with_vf_table(vf);
        let mut service = Service {
            catalog,
            config,
            planner,
            ests: BTreeMap::new(),
        };
        service.ests = service.calibrate();
        service
    }

    /// The catalog this service dispatches from.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The operating-point planner.
    #[must_use]
    pub fn planner(&self) -> &PowerAwarePolicy {
        &self.planner
    }

    /// Measures a full fault-free dispatch of `id` at CLK_2 `f` on a
    /// scratch controller: retune + preload + transfer + the recovery
    /// layer's verification, exactly as a lane would run it. The dispatch
    /// runs twice on the same scratch: the first pays the DCM relock from
    /// the cold lane (partially hidden behind the preload), the second
    /// re-runs with the factors already locked and measures the pure
    /// service time. Returns `(with_relock, pure)`.
    fn measure_dispatch(&self, id: BitstreamId, f: Frequency) -> (SimTime, SimTime) {
        let entry = self.catalog.entry(id).expect("measure of unknown id");
        let mut scratch = self.catalog.lane();
        scratch
            .set_reconfiguration_frequency(f)
            .expect("grid frequency is synthesizable");
        RecoveryPolicy::default()
            .reconfigure(&mut scratch, entry.bitstream(), entry.mode())
            .expect("fault-free dispatch on a scratch lane");
        let first = scratch.now();
        scratch
            .set_reconfiguration_frequency(f)
            .expect("retune to the locked frequency is free");
        RecoveryPolicy::default()
            .reconfigure(&mut scratch, entry.bitstream(), entry.mode())
            .expect("fault-free dispatch on a scratch lane");
        (first, scratch.now().saturating_sub(first))
    }

    /// Measures every catalog entry's [`Est`] at the fastest grid clock
    /// its datapath admits. The scratch lanes stay unobserved, so traces
    /// show only actual runs.
    fn calibrate(&self) -> BTreeMap<BitstreamId, Est> {
        let grid = self.planner.frequency_grid();
        self.catalog
            .ids()
            .into_iter()
            .map(|id| {
                let entry = self.catalog.entry(id).expect("id from catalog");
                let ceiling = entry.max_frequency();
                let fastest = grid
                    .iter()
                    .copied()
                    .rfind(|&f| ceiling.is_none_or(|c| f <= c))
                    .expect("frequency grid is never empty");
                let (with_relock, pure) = self.measure_dispatch(id, fastest);
                let est = Est {
                    service_fastest: SimTime::from_secs_f64(
                        with_relock.as_secs_f64() * ESTIMATE_MARGIN,
                    ),
                    service_pure: SimTime::from_secs_f64(pure.as_secs_f64() * ESTIMATE_MARGIN),
                    fastest,
                    ceiling,
                    extra_draw_mw: entry.decompressor_draw_mw(&self.planner),
                };
                (id, est)
            })
            .collect()
    }

    /// Runs one request trace to completion and returns its metrics.
    ///
    /// The run builds fresh controller lanes and serves on them; the
    /// scheduling estimates come from the calibration [`Service::new`]
    /// made, so an empty trace costs only the lane construction. The run
    /// is fully deterministic in `(catalog, config, requests)`: same
    /// inputs, identical metrics.
    ///
    /// # Panics
    ///
    /// Panics if a controller lane cannot be built (no hardware
    /// decompressor for the catalog's algorithm).
    #[must_use]
    pub fn run(&self, requests: &[ReconfigRequest]) -> ServiceMetrics {
        // Run lanes report through region-tagged handles.
        let lanes: Vec<UParc> = (0..self.catalog.region_count())
            .map(|region| {
                let mut lane = self.catalog.lane();
                lane.set_observer(self.config.obs.with_lane(region as u32));
                lane
            })
            .collect();
        let region_count = self.catalog.region_count();
        let node = LaneTemp::new(&self.config.thermal.unwrap_or_default());
        let mut state = ServeState {
            requests,
            catalog: &self.catalog,
            planner: &self.planner,
            config: &self.config,
            ests: &self.ests,
            lanes,
            queues: vec![VecDeque::new(); region_count],
            busy: vec![None; region_count],
            temps: vec![node; region_count],
            throttle_state: vec![false; region_count],
            current_f: vec![None; region_count],
            rails: vec![self.planner.vf_table().nominal_index(); region_count],
            metrics: ServiceMetrics::default(),
        };
        let mut q = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            q.schedule(r.arrival, Ev::Arrive(i));
        }
        while let Some((_, event)) = q.pop() {
            state.handle(&mut q, event);
        }
        let mut metrics = state.metrics;
        metrics.makespan = q.now();
        metrics.unserved = state.queues.iter().map(VecDeque::len).sum();
        metrics
    }
}

/// Events of one service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Request `i` of the trace arrives.
    Arrive(usize),
    /// Lane `lane` finished its dispatch.
    Done { lane: usize },
}

/// The state of one run: every lane, queue and meter the event
/// handlers read and update.
struct ServeState<'a> {
    requests: &'a [ReconfigRequest],
    catalog: &'a Catalog,
    planner: &'a PowerAwarePolicy,
    /// Policy, cap, queue capacity, DVFS table, thermal model
    /// and the scheduler-level observability handle (lanes carry their
    /// own region-tagged copies).
    config: &'a ServiceConfig,
    ests: &'a BTreeMap<BitstreamId, Est>,
    lanes: Vec<UParc>,
    queues: Vec<VecDeque<Queued>>,
    /// Per-lane draw above static idle while busy, in milliwatts.
    busy: Vec<Option<f64>>,
    /// Per-lane RC thermal node (only advanced when `thermal` is set).
    temps: Vec<LaneTemp>,
    /// Per-lane governor hysteresis state.
    throttle_state: Vec<bool>,
    /// The CLK_2 each lane is currently locked at (`None` until its
    /// first successful dispatch) — a dispatch at the same frequency
    /// skips the DCM relock, and admission's dry-run estimate mirrors
    /// that.
    current_f: Vec<Option<Frequency>>,
    /// The rail each lane's core supply currently sits on.
    rails: Vec<usize>,
    metrics: ServiceMetrics,
}

impl ServeState<'_> {
    /// Reacts to one event, then offers every idle lane its queue.
    fn handle(&mut self, q: &mut EventQueue<Ev>, event: Ev) {
        let now = q.now();
        match event {
            Ev::Arrive(i) => {
                let req = &self.requests[i];
                let verdict = self.admit(i, now);
                let outcome = verdict.as_ref().map_or_else(|e| e.label(), |_| "admitted");
                self.config.obs.instant(
                    now,
                    EventKind::Admission {
                        outcome,
                        request: req.id.0,
                    },
                );
                match verdict {
                    Ok(queued) => {
                        self.config.obs.count("serve.admitted", 1);
                        self.queues[req.region.0].push_back(queued);
                    }
                    Err(reason) => {
                        self.config.obs.count("serve.rejected", 1);
                        self.metrics.rejections.push(Rejection {
                            id: req.id,
                            at: now,
                            reason,
                        });
                    }
                }
            }
            Ev::Done { lane } => {
                self.busy[lane] = None;
                self.sample_power(now);
            }
        }
        self.dispatch_idle_lanes(q);
    }

    /// Runs the admission checks for request `i` arriving at `now`.
    fn admit(&self, i: usize, now: SimTime) -> Result<Queued, AdmissionError> {
        let req = &self.requests[i];
        let entry = self
            .catalog
            .entry(req.bitstream)
            .ok_or(AdmissionError::UnknownBitstream { id: req.bitstream })?;
        if req.region.0 >= self.queues.len() {
            return Err(AdmissionError::UnknownRegion { region: req.region });
        }
        if entry.region() != req.region {
            return Err(AdmissionError::RegionMismatch {
                requested: req.region,
                actual: entry.region(),
            });
        }
        if self.queues[req.region.0].len() >= self.config.queue_capacity {
            return Err(AdmissionError::QueueFull {
                region: req.region,
                capacity: self.config.queue_capacity,
            });
        }
        let est = self.ests[&req.bitstream];
        // Hopeless deadlines are rejected for every policy identically,
        // so policy comparisons run on the same admitted set. The dry-run
        // estimate mirrors the dispatch path: a lane already locked at
        // the entry's fastest clock skips the DCM relock, any other lane
        // pays it, and the dispatch may additionally pay the rail ramp
        // back to nominal (zero on the nominal-only table).
        if let Some(deadline) = req.deadline {
            let base = if self.current_f[req.region.0] == Some(est.fastest) {
                est.service_pure
            } else {
                est.service_fastest
            };
            let vf = self.planner.vf_table();
            let settle = vf.settle(self.rails[req.region.0], vf.nominal_index());
            let earliest_finish = now + base + settle;
            if deadline < earliest_finish {
                return Err(AdmissionError::DeadlineInfeasible {
                    deadline,
                    earliest_finish,
                });
            }
        }
        if let Some(budget) = req.energy_budget_uj {
            let q = PlanQuery {
                bytes: entry.raw_bytes(),
                max_frequency: est.ceiling,
                energy_budget_uj: Some(budget),
                ..PlanQuery::default()
            };
            if let Err(UparcError::EnergyBudgetInfeasible { floor_uj, .. }) =
                self.planner.plan_vf(&VfQuery::new(q))
            {
                return Err(AdmissionError::EnergyInfeasible {
                    budget_uj: budget,
                    floor_uj,
                });
            }
        }
        // PowerGreedy never dispatches above the cap, so a request that
        // cannot fit even with every other lane idle would starve in the
        // queue forever — reject it up front instead.
        if self.config.policy == Policy::PowerGreedy && self.config.power_cap_mw.is_finite() {
            let q = PlanQuery {
                bytes: entry.raw_bytes(),
                max_frequency: est.ceiling,
                power_cap_mw: Some(self.config.power_cap_mw - est.extra_draw_mw),
                ..PlanQuery::default()
            };
            if let Err(UparcError::BudgetInfeasible { floor_mw, .. }) =
                self.planner.plan_vf(&VfQuery::new(q))
            {
                return Err(AdmissionError::PowerInfeasible {
                    cap_mw: self.config.power_cap_mw,
                    floor_mw: floor_mw + est.extra_draw_mw,
                });
            }
        }
        Ok(Queued {
            req: i,
            id: req.id,
            deadline: req.deadline.unwrap_or(SimTime::MAX),
            priority: req.priority,
        })
    }

    /// Offers every idle lane its queue, in region order.
    fn dispatch_idle_lanes(&mut self, q: &mut EventQueue<Ev>) {
        for lane in 0..self.lanes.len() {
            if self.busy[lane].is_some() || self.queues[lane].is_empty() {
                continue;
            }
            let now = q.now();
            let order = candidate_order(self.config.policy, &self.queues[lane], now);
            for pos in order {
                if let Some((plan, throttled, temp_c)) = self.plan_for(lane, pos, now) {
                    self.dispatch(q, lane, pos, plan, throttled, temp_c);
                    break;
                }
            }
        }
    }

    /// Upper bound on the wall-clock of a dispatch at `plan`: the
    /// measured fastest-clock service time scaled by the clock ratio
    /// (the transfer scales inversely with CLK_2 and the fixed
    /// preload/verify parts do not grow), plus the rail settle.
    fn duration_bound(&self, est: &Est, plan: &VfPlan) -> SimTime {
        let ratio = est.fastest.as_mhz() / plan.frequency.as_mhz();
        SimTime::from_secs_f64(est.service_fastest.as_secs_f64() * ratio) + plan.settle
    }

    /// Tries to find an operating point for queue position `pos` of
    /// `lane` under the current power headroom and (when configured) the
    /// thermal governor. Returns the plan, whether the governor
    /// throttled it, and the lane temperature at planning time.
    fn plan_for(&mut self, lane: usize, pos: usize, now: SimTime) -> Option<(VfPlan, bool, f64)> {
        let queued = self.queues[lane][pos];
        let req = &self.requests[queued.req];
        let entry = self.catalog.entry(req.bitstream).expect("admitted request");
        let est = self.ests[&req.bitstream];
        let mut q = PlanQuery {
            bytes: entry.raw_bytes(),
            max_frequency: est.ceiling,
            energy_budget_uj: req.energy_budget_uj,
            ..PlanQuery::default()
        };
        // Greedy in the literal sense: each dispatch takes the fastest
        // operating point the residual power budget allows. Stretching
        // jobs toward their deadlines would save energy per request but
        // starves the queue under load.
        if self.config.policy == Policy::PowerGreedy && self.config.power_cap_mw.is_finite() {
            let others: f64 = self.busy.iter().flatten().sum();
            q.power_cap_mw = Some(self.config.power_cap_mw - others - est.extra_draw_mw);
        }
        // On the nominal-only table the governor can only demote the
        // clock; with DVFS rails it demotes whole (V, f) points.
        let mut vq = VfQuery {
            current_rail: Some(self.rails[lane]),
            ..VfQuery::new(q)
        };
        let Some(tcfg) = self.config.thermal else {
            return Some((self.planner.plan_vf(&vq).ok()?, false, 0.0));
        };
        let temp = self.temps[lane].temp_at(&tcfg, now);
        let mut throttled = self.throttle_state[lane];
        if throttled && temp < tcfg.release_at_c() {
            throttled = false;
        } else if !throttled && temp >= tcfg.throttle_at_c() {
            throttled = true;
        }
        if !throttled {
            if let Ok(plan) = self.planner.plan_vf(&vq) {
                let draw_w =
                    (plan.predicted_power_mw - calib::V6_IDLE_MW + est.extra_draw_mw) / 1e3;
                let dt = self.duration_bound(&est, &plan);
                if tcfg.step_c(temp, draw_w, dt) <= tcfg.limit_c {
                    self.throttle_state[lane] = false;
                    return Some((plan, false, temp));
                }
            }
            // The unthrottled plan would overshoot the junction limit
            // before it finishes — throttle this dispatch even though
            // the lane is below the entry threshold.
            throttled = true;
        }
        self.throttle_state[lane] = throttled;
        // Steady-state-safe demotion: cap the dispatch at the draw whose
        // equilibrium temperature is exactly the junction limit. The RC
        // response is monotone toward its drive, so whatever the
        // dispatch duration the node can never cross the limit.
        let thermal_cap = calib::V6_IDLE_MW + tcfg.sustainable_mw() - est.extra_draw_mw;
        vq.base.power_cap_mw = Some(
            vq.base
                .power_cap_mw
                .map_or(thermal_cap, |c| c.min(thermal_cap)),
        );
        let plan = self.planner.plan_vf(&vq).ok()?;
        Some((plan, true, temp))
    }

    /// Dispatches queue position `pos` of `lane` at the planned
    /// operating point.
    fn dispatch(
        &mut self,
        q: &mut EventQueue<Ev>,
        lane: usize,
        pos: usize,
        plan: VfPlan,
        throttled: bool,
        temp_c: f64,
    ) {
        let now = q.now();
        let queued = self.queues[lane]
            .remove(pos)
            .expect("position from candidate_order");
        let req = self.requests[queued.req];
        let entry = self.catalog.entry(req.bitstream).expect("admitted request");
        let est = self.ests[&req.bitstream];
        if let Some(tcfg) = self.config.thermal {
            self.config.obs.instant(
                now,
                EventKind::Thermal {
                    temp_c,
                    limit_c: tcfg.limit_c,
                    throttled,
                },
            );
            if throttled {
                self.metrics.thermal_throttles += 1;
                self.config.obs.count("thermal.throttles", 1);
            }
        }
        let uparc = &mut self.lanes[lane];
        uparc.advance_idle(now.saturating_sub(uparc.now()));
        // Ramp the lane's core rail to the planned voltage; the controller
        // charges the regulator settle into the dispatch (re-requesting
        // the current voltage is free).
        let _settle = uparc.set_core_voltage(plan.volts);
        self.rails[lane] = plan.rail;
        // The dispatch span (queue-exit to lane-finish) carries the lane
        // tag and opens before the lane's own spans, so the whole
        // reconfiguration nests under it in the trace.
        let span = uparc
            .obs()
            .begin(now, EventKind::Dispatch { request: req.id.0 });
        let outcome = match uparc.set_reconfiguration_frequency(plan.frequency) {
            Ok(_) => RecoveryPolicy::default().reconfigure(uparc, entry.bitstream(), entry.mode()),
            Err(e) => Err(e),
        };
        let finished = uparc.now();
        let wait = finished.saturating_sub(now);
        uparc.obs().end(finished, span);
        match outcome {
            Ok(rr) => {
                let missed = req.deadline.is_some_and(|d| finished > d);
                self.config.obs.count("serve.completions", 1);
                self.config.obs.observe(
                    "serve.latency_us",
                    finished.saturating_sub(req.arrival).as_us_f64(),
                );
                self.config
                    .obs
                    .observe("serve.energy_uj", rr.report.energy_uj + rr.extra_energy_uj);
                if missed {
                    self.config.obs.count("serve.deadline_misses", 1);
                }
                self.metrics.completions.push(Completion {
                    id: req.id,
                    region: RegionId(lane),
                    arrival: req.arrival,
                    dispatched: now,
                    finished,
                    deadline: req.deadline,
                    missed,
                    frequency: rr.report.frequency,
                    volts: plan.volts,
                    throttled,
                    compressed: rr.report.compressed,
                    energy_uj: rr.report.energy_uj + rr.extra_energy_uj,
                    attempts: rr.attempts,
                    healed: rr.healed(),
                });
                self.current_f[lane] = Some(rr.report.frequency);
            }
            Err(e) => {
                self.config.obs.count("serve.failures", 1);
                self.metrics.failures.push(Failure {
                    id: req.id,
                    at: finished,
                    error: e.to_string(),
                });
                self.current_f[lane] = None;
            }
        }
        let draw_mw = plan.predicted_power_mw - calib::V6_IDLE_MW + est.extra_draw_mw;
        self.busy[lane] = Some(draw_mw);
        if let Some(tcfg) = self.config.thermal {
            let end_c = self.temps[lane].apply(&tcfg, now, finished, draw_mw / 1e3);
            self.metrics.peak_temp_c = self.metrics.peak_temp_c.max(end_c);
            self.config.obs.gauge("thermal.temp_c", end_c);
            if end_c > tcfg.limit_c + 1e-9 {
                self.metrics.overtemp_dispatches += 1;
                self.config.obs.count("thermal.overtemp", 1);
            }
        }
        self.sample_power(now);
        q.schedule_in(wait, Ev::Done { lane });
    }

    /// Records the summed draw at a scheduling instant and counts cap
    /// violations. Static idle is chip-level, so it is counted once.
    fn sample_power(&mut self, at: SimTime) {
        let total_mw = calib::V6_IDLE_MW + self.busy.iter().flatten().sum::<f64>();
        self.config.obs.instant(
            at,
            EventKind::CapSample {
                total_mw,
                cap_mw: self.config.power_cap_mw,
            },
        );
        self.config.obs.gauge("serve.power_mw", total_mw);
        self.metrics.power.push(PowerSample { at, total_mw });
        if total_mw > self.config.power_cap_mw + CAP_EPSILON_MW {
            self.metrics.cap_violations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServiceSummary;
    use crate::request::{Priority, ReconfigRequest, RequestId};
    use crate::workload::{ArrivalPattern, WorkloadSpec};
    use uparc_bitstream::builder::PartialBitstream;
    use uparc_bitstream::synth::SynthProfile;
    use uparc_fpga::Device;

    fn two_region_catalog() -> Catalog {
        let device = Device::xc5vsx50t();
        let mut cat = Catalog::new(device);
        cat.add_region("rp0", 100..160).unwrap();
        cat.add_region("rp1", 200..260).unwrap();
        for (id, far, frames) in [(1u32, 100, 40), (2, 110, 25), (3, 200, 50)] {
            let payload = SynthProfile::dense().generate(cat.device(), far, frames, u64::from(id));
            let bs = PartialBitstream::build(cat.device(), far, &payload);
            cat.register(BitstreamId(id), bs).unwrap();
        }
        cat
    }

    /// Bench-scale modules (~150 KB raw, staged raw via a big BRAM):
    /// large enough that a faster CLK_2 saves more than the 25 µs rail
    /// ramp costs, so the (V, f) planner actually undervolts.
    fn large_two_region_catalog() -> Catalog {
        let device = Device::xc5vsx50t();
        let mut cat = Catalog::new(device).with_bram_bytes(256 * 1024);
        cat.add_region("rp0", 100..1100).unwrap();
        cat.add_region("rp1", 1200..2200).unwrap();
        for (id, far, frames) in [(1u32, 100, 900), (2, 1200, 700)] {
            let payload = SynthProfile::dense().generate(cat.device(), far, frames, u64::from(id));
            let bs = PartialBitstream::build(cat.device(), far, &payload);
            cat.register(BitstreamId(id), bs).unwrap();
        }
        cat
    }

    fn spec(requests: usize) -> WorkloadSpec {
        WorkloadSpec {
            requests,
            mean_gap: SimTime::from_us(150),
            pattern: ArrivalPattern::Uniform,
            deadline_slack_us: Some((200, 2_000)),
            energy_budget_uj: None,
        }
    }

    #[test]
    fn fifo_serves_a_trace_to_completion() {
        let catalog = two_region_catalog();
        let service = Service::new(catalog, ServiceConfig::default());
        let reqs = spec(20).generate(5, service.catalog());
        let m = service.run(&reqs);
        assert_eq!(
            m.completions.len() + m.rejections.len() + m.failures.len(),
            20
        );
        assert_eq!(m.unserved, 0, "open queue must drain");
        assert!(m.makespan >= reqs.last().unwrap().arrival);
        for c in &m.completions {
            assert!(c.dispatched >= c.arrival);
            assert!(c.finished > c.dispatched);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let catalog = two_region_catalog();
        for policy in Policy::ALL {
            let service = Service::new(
                catalog.clone(),
                ServiceConfig {
                    policy,
                    power_cap_mw: 600.0,
                    ..ServiceConfig::default()
                },
            );
            let reqs = spec(30).generate(11, service.catalog());
            let a = service.run(&reqs).summary();
            let b = service.run(&reqs).summary();
            assert_eq!(a, b, "policy {} must be deterministic", policy.label());
        }
    }

    #[test]
    fn power_greedy_respects_the_cap() {
        let catalog = two_region_catalog();
        // Tight enough that two concurrent full-speed transfers don't
        // fit, loose enough that one always does.
        let cap = 520.0;
        let service = Service::new(
            catalog,
            ServiceConfig {
                policy: Policy::PowerGreedy,
                power_cap_mw: cap,
                ..ServiceConfig::default()
            },
        );
        // Bursty arrivals force concurrent demand on both regions.
        let spec = WorkloadSpec {
            requests: 40,
            mean_gap: SimTime::from_us(60),
            pattern: ArrivalPattern::Bursty { burst: 8 },
            ..WorkloadSpec::default()
        };
        let reqs = spec.generate(3, service.catalog());
        let m = service.run(&reqs);
        assert_eq!(m.cap_violations, 0);
        for s in &m.power {
            assert!(
                s.total_mw <= cap + CAP_EPSILON_MW,
                "draw {} above cap at {:?}",
                s.total_mw,
                s.at
            );
        }
        assert!(!m.completions.is_empty());
    }

    #[test]
    fn dvfs_undervolts_under_a_tight_cap_and_stays_deterministic() {
        let catalog = large_two_region_catalog();
        let cfg = |vf| ServiceConfig {
            policy: Policy::PowerGreedy,
            power_cap_mw: 330.0,
            vf,
            ..ServiceConfig::default()
        };
        let spec = WorkloadSpec {
            requests: 30,
            mean_gap: SimTime::from_us(120),
            pattern: ArrivalPattern::Bursty { burst: 6 },
            ..WorkloadSpec::default()
        };
        let dvfs = Service::new(catalog.clone(), cfg(Some(VfTable::voltune_virtex6())));
        let reqs = spec.generate(13, dvfs.catalog());
        let m = dvfs.run(&reqs);
        assert_eq!(m.cap_violations, 0);
        assert!(
            m.completions.iter().any(|c| c.volts < 1.0),
            "a 330 mW cap must force undervolted dispatches"
        );
        assert_eq!(
            m.summary(),
            dvfs.run(&reqs).summary(),
            "DVFS run must be deterministic"
        );
        // Undervolting buys clock the frequency-only planner cannot
        // afford under the same cap.
        let freq_only = Service::new(catalog, cfg(None)).run(&reqs);
        assert_eq!(freq_only.cap_violations, 0);
        let max_mhz = |m: &ServiceMetrics| {
            m.completions
                .iter()
                .map(|c| c.frequency.as_mhz())
                .fold(0.0, f64::max)
        };
        assert!(max_mhz(&m) > max_mhz(&freq_only));
    }

    #[test]
    fn sustained_load_throttles_without_overtemperature() {
        let catalog = large_two_region_catalog();
        let tcfg = ThermalConfig::default();
        let service = Service::new(
            catalog,
            ServiceConfig {
                policy: Policy::PowerGreedy,
                queue_capacity: 256,
                vf: Some(VfTable::voltune_virtex6()),
                thermal: Some(tcfg),
                ..ServiceConfig::default()
            },
        );
        // A metronome faster than the service rate holds both lanes at
        // 100% duty — full speed would settle far above the junction
        // limit, so the governor has to throttle.
        let spec = WorkloadSpec {
            requests: 200,
            mean_gap: SimTime::from_us(10),
            pattern: ArrivalPattern::Sustained,
            ..WorkloadSpec::default()
        };
        let reqs = spec.generate(17, service.catalog());
        let m = service.run(&reqs);
        assert!(
            m.thermal_throttles > 0,
            "sustained full-duty load must throttle"
        );
        assert_eq!(m.overtemp_dispatches, 0);
        assert!(m.peak_temp_c > tcfg.ambient_c);
        assert!(m.peak_temp_c <= tcfg.limit_c + 1e-9);
        assert!(
            m.completions.iter().any(|c| c.throttled && c.volts < 1.0),
            "throttling must demote the operating point, not just the clock"
        );
    }

    #[test]
    fn service_is_clone_and_sync() {
        // Calibration lives in `new`, not behind interior mutability, so
        // one service can serve traces from many threads.
        fn shareable<T: Clone + Sync>() {}
        shareable::<Service>();
    }

    #[test]
    fn unknown_ids_reject_with_typed_errors() {
        let catalog = two_region_catalog();
        let service = Service::new(catalog, ServiceConfig::default());
        let mk = |arrival_us: u64, id: u32, region: usize| ReconfigRequest {
            id: RequestId(arrival_us),
            bitstream: BitstreamId(id),
            region: RegionId(region),
            arrival: SimTime::from_us(arrival_us),
            deadline: None,
            priority: Priority::Normal,
            energy_budget_uj: None,
        };
        let reqs = vec![
            mk(0, 99, 0), // unknown bitstream
            mk(1, 1, 1),  // wrong region
            mk(2, 2, 0),  // fine
        ];
        let m = service.run(&reqs);
        assert_eq!(m.completions.len(), 1);
        assert_eq!(m.rejections.len(), 2);
        assert_eq!(m.rejections[0].reason.label(), "unknown-bitstream");
        assert_eq!(m.rejections[1].reason.label(), "region-mismatch");
    }

    /// `(request id, finished in fs)` of every completion of the pinned run,
    /// in completion order.
    const PINNED_FINISHED: [(u64, u64); 29] = [
        (0, 1_547_572_940_997),
        (1, 2_595_145_881_994),
        (3, 3_411_189_411_265),
        (5, 4_458_762_352_262),
        (6, 5_506_335_293_259),
        (7, 6_671_775_293_258),
        (11, 7_837_215_293_257),
        (14, 9_002_655_293_256),
        (8, 10_168_095_293_255),
        (19, 11_333_535_293_254),
        (20, 12_498_975_293_253),
        (18, 13_664_415_293_252),
        (16, 14_829_855_293_251),
        (23, 15_995_295_293_250),
        (30, 17_160_735_293_249),
        (31, 18_326_175_293_248),
        (28, 19_491_615_293_247),
        (24, 20_657_055_293_246),
        (29, 21_822_495_293_245),
        (15, 22_987_935_293_244),
        (22, 24_153_375_293_243),
        (10, 24_969_418_822_514),
        (4, 25_785_462_351_785),
        (2, 26_601_505_881_056),
        (9, 27_417_549_410_327),
        (13, 28_233_592_939_598),
        (12, 29_141_318_653_883),
        (17, 30_049_044_368_168),
        (21, 30_956_770_082_453),
    ];

    /// One `PowerGreedy` run under a cap with DVFS and the thermal governor,
    /// pinned to the exact values the event loop produces. A rerun of the
    /// same code cannot catch a changed event order; these constants can.
    #[test]
    fn power_greedy_dvfs_thermal_run_is_pinned() {
        let service = Service::new(
            large_two_region_catalog(),
            ServiceConfig {
                policy: Policy::PowerGreedy,
                power_cap_mw: 420.0,
                queue_capacity: 8,
                vf: Some(VfTable::voltune_virtex6()),
                thermal: Some(ThermalConfig::default()),
                ..ServiceConfig::default()
            },
        );
        let spec = WorkloadSpec {
            requests: 32,
            mean_gap: SimTime::from_us(500),
            pattern: ArrivalPattern::Sustained,
            deadline_slack_us: Some((1_000, 8_000)),
            energy_budget_uj: None,
        };
        let m = service.run(&spec.generate(23, service.catalog()));
        let finished: Vec<(u64, u64)> = m
            .completions
            .iter()
            .map(|c| (c.id.0, c.finished.as_fs()))
            .collect();
        assert_eq!(finished, PINNED_FINISHED);
        assert_eq!(m.makespan, SimTime::from_fs(30_956_770_082_453));
        assert_eq!(m.thermal_throttles, 19);
        assert_eq!(
            m.summary(),
            ServiceSummary {
                completed: 29,
                rejected: 3,
                failed: 0,
                throughput_rps: 936.790_237_571_905_4,
                p50_latency_us: 4864.0,
                p95_latency_us: 23_654.399_999_999_998,
                p99_latency_us: 24_801.28,
                degraded_completed: 0,
                p99_steady_latency_us: 24_801.28,
                p99_degraded_latency_us: 0.0,
                deadline_misses: 18,
                deadline_miss_rate: 0.620_689_655_172_413_8,
                mean_energy_uj: 98.256_144_819_982_85,
                peak_power_mw: 419.285_714_37,
                cap_violations: 0,
                thermal_throttles: 19,
                overtemp_dispatches: 0,
                peak_temp_c: 84.913_996_612_525_01,
            }
        );
    }
}
