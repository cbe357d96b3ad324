//! The `service` workload: one chip running `uparc_serve::Service` over a
//! multi-region catalog, power-greedy under a cap, with DVFS rails, the
//! thermal governor and a deadline on every request.

use std::time::{Duration, Instant};

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_core::policy::{PlanQuery, VfQuery};
use uparc_core::uparc::COMPRESSED_MODE_MAX;
use uparc_fpga::Device;
use uparc_serve::catalog::Catalog;
use uparc_serve::metrics::{ServiceMetrics, ServiceSummary};
use uparc_serve::request::{BitstreamId, ReconfigRequest};
use uparc_serve::scheduler::Policy;
use uparc_serve::service::{Service, ServiceConfig};
use uparc_serve::thermal::ThermalConfig;
use uparc_serve::workload::{ArrivalPattern, WorkloadSpec};
use uparc_sim::power::{calib, VfTable};
use uparc_sim::stats::LogHistogram;
use uparc_sim::sweep::parallel_map;
use uparc_sim::time::{Frequency, SimTime};

use crate::probes::{self, Dispatch};
use crate::report::{median, peak_rss_mb, Report, WARM_UP};
use crate::Args;

const REGIONS: u32 = 4;
const MODULES_PER_REGION: u32 = 12;
/// Staging BRAM: modules above ~31 frames stage compressed, so the run
/// exercises both the raw and the decompressor datapath.
const BRAM_BYTES: usize = 5 * 1024;
const POWER_CAP_MW: f64 = 700.0;
/// Independent request traces per run. The simulated metrics pool all of
/// them, so the p99 rests on ~120 samples beyond it.
const TRACES: usize = 120;
/// Requests per trace: a run (~0.16 s) is far shorter than the seconds a
/// spell of host slowdown lasts, so some runs of each trace miss every
/// spell.
const REQUESTS: usize = 100;
/// Traces timed in the window, round-robin, one run at a time; each
/// keeps its fastest run. Four take ~0.6 s a round, so a fast spell of a
/// second reaches all of them, and each is timed ~20 times in 15 s.
const TIMED_TRACES: usize = 4;
/// Fewest timed runs of each timed trace, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Mean arrival gap: the lanes run well below saturation, so nearly
/// every request makes its deadline.
const MEAN_GAP: SimTime = SimTime::from_us(30);
const DEADLINE_SLACK_US: (u64, u64) = (70, 700);
/// Set-ups per run (~60 ms each); `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

fn build_catalog(seed: u64) -> Catalog {
    let device = Device::xc5vsx50t();
    let mut catalog = Catalog::new(device).with_bram_bytes(BRAM_BYTES);
    let mut id = 1u32;
    for r in 0..REGIONS {
        let base = 100 + r * 1000;
        catalog
            .add_region(&format!("rp{r}"), base..base + 120)
            .expect("region fits the device");
        for k in 0..MODULES_PER_REGION {
            let far = base + 2 * k;
            let frames = 12 + 3 * k;
            let payload = SynthProfile::dense().generate(
                catalog.device(),
                far,
                frames,
                seed.wrapping_add(u64::from(id)),
            );
            let bs = PartialBitstream::build(catalog.device(), far, &payload);
            catalog
                .register(BitstreamId(id), bs)
                .expect("module stages raw or compressed");
            id += 1;
        }
    }
    catalog
}

fn config() -> ServiceConfig {
    ServiceConfig {
        policy: Policy::PowerGreedy,
        power_cap_mw: POWER_CAP_MW,
        queue_capacity: 64,
        vf: Some(VfTable::voltune_virtex6()),
        thermal: Some(ThermalConfig::default()),
        ..ServiceConfig::default()
    }
}

/// Builds the catalog and runs the service's operating-point calibration
/// (an empty trace: `Service::run` measures every entry's dispatch before
/// serving). Returns the service and both halves' host times.
fn setup(seed: u64) -> (Service, Duration, Duration) {
    let t = Instant::now();
    let catalog = build_catalog(seed);
    let build = t.elapsed();
    let t = Instant::now();
    let service = Service::new(catalog, config());
    let _ = service.run(&[]);
    (service, build, t.elapsed())
}

/// Bit-exact digest of a run: the summary plus every completion's
/// identity, timing, operating point and energy.
type Digest = (ServiceSummary, Vec<(u64, u64, u64, u64, u64)>);

fn digest(m: &ServiceMetrics) -> Digest {
    (
        m.summary(),
        m.completions
            .iter()
            .map(|c| {
                (
                    c.id.0,
                    c.finished.as_fs(),
                    c.frequency.as_mhz().to_bits(),
                    c.volts.to_bits(),
                    c.energy_uj.to_bits(),
                )
            })
            .collect(),
    )
}

/// Rail changes per lane, counted from the completions in dispatch order
/// (every lane starts on the nominal rail).
fn vf_ramps(m: &ServiceMetrics) -> u64 {
    let mut rail = vec![calib::V_NOM_V; REGIONS as usize];
    let mut ramps = 0;
    for c in &m.completions {
        let lane = &mut rail[c.region.0];
        if *lane != c.volts {
            ramps += 1;
            *lane = c.volts;
        }
    }
    ramps
}

/// One trace with its reference run.
struct Trace {
    requests: Vec<ReconfigRequest>,
    reference: ServiceMetrics,
    digest: Digest,
}

fn trace_checks(r: &mut Report, traces: &[Trace]) {
    let summaries: Vec<ServiceSummary> = traces.iter().map(|t| t.reference.summary()).collect();
    r.check(
        "accounting: completed + rejected + failed == requests",
        traces.iter().zip(&summaries).all(|(t, s)| {
            s.completed + s.rejected + s.failed == t.requests.len() && t.reference.unserved == 0
        }),
    );
    r.check(
        "zero chip cap violations",
        summaries
            .iter()
            .all(|s| s.cap_violations == 0 && s.peak_power_mw <= POWER_CAP_MW),
    );
    r.check(
        "zero over-temperature dispatches",
        summaries.iter().all(|s| s.overtemp_dispatches == 0),
    );
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let seed = args.seed;
    let (mut build, mut calibrate, mut setup_total) = (Vec::new(), Vec::new(), Vec::new());
    let mut service = None;
    for _ in 0..SETUP_REPEATS {
        drop(service.take());
        let (s, b, c) = setup(seed);
        build.push(b.as_secs_f64());
        calibrate.push(c.as_secs_f64());
        setup_total.push((b + c).as_secs_f64());
        service = Some(s);
    }
    let service = service.expect("at least one set-up");
    let spec = WorkloadSpec {
        requests: REQUESTS,
        mean_gap: MEAN_GAP,
        pattern: ArrivalPattern::Uniform,
        deadline_slack_us: Some(DEADLINE_SLACK_US),
        energy_budget_uj: None,
    };
    let t = Instant::now();
    let requests: Vec<Vec<ReconfigRequest>> = (0..TRACES as u64)
        .map(|k| spec.generate(seed.wrapping_add(k << 32), service.catalog()))
        .collect();
    let gen_s = t.elapsed().as_secs_f64() / TRACES as f64;
    // Each trace's first run is its reference, served on the sweep workers.
    let traces: Vec<Trace> = parallel_map(&requests, |q| service.run(q))
        .into_iter()
        .zip(requests)
        .map(|(reference, requests)| Trace {
            digest: digest(&reference),
            requests,
            reference,
        })
        .collect();
    // Peak memory of the set-ups and the reference runs: read before the
    // runs whose count depends on host speed.
    let rss = peak_rss_mb();

    // Times one run of trace `k`: `(host seconds, whether it reproduced
    // the reference)`. Runs go one at a time, so no run shares the host
    // with another of its own.
    let serve = |k: usize| -> (f64, bool) {
        let t = Instant::now();
        let m = service.run(&traces[k].requests);
        let wall = t.elapsed().as_secs_f64();
        (wall, digest(&m) == traces[k].digest)
    };
    let mut identical = true;
    let t_warm = Instant::now();
    for k in (0..TIMED_TRACES).cycle() {
        if t_warm.elapsed() >= WARM_UP {
            break;
        }
        identical &= serve(k).1;
    }

    // Other tenants only ever slow a run down, in spells lasting seconds,
    // so each timed trace keeps its fastest run: the run least disturbed.
    let budget = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    let mut fastest = [f64::INFINITY; TIMED_TRACES];
    let (mut walls, mut traced_walls, mut calibrations) = (Vec::new(), Vec::new(), Vec::new());
    for k in (0..TIMED_TRACES).cycle() {
        if walls.len() >= MIN_RUNS * TIMED_TRACES && t_run.elapsed() >= budget {
            break;
        }
        let (wall, same) = serve(k);
        r.attempted += REQUESTS as u64;
        if !same {
            identical = false;
            r.failed += REQUESTS as u64;
        }
        fastest[k] = fastest[k].min(wall);
        walls.push(wall);
        if args.trace {
            // The traced side times the calibration alone, then the run.
            let t = Instant::now();
            let _ = service.run(&[]);
            calibrations.push(t.elapsed().as_secs_f64());
            let (wall, same) = serve(k);
            identical &= same;
            traced_walls.push(wall);
        }
    }
    let timed_completed: usize = traces[..TIMED_TRACES]
        .iter()
        .map(|t| t.reference.completions.len())
        .sum();
    let rate = timed_completed as f64 / fastest.iter().sum::<f64>();
    trace_checks(&mut r, &traces);
    r.check(
        "every run reproduces its trace's reference bit for bit",
        identical,
    );
    r.detail_values("run seconds", &walls);
    r.detail_values("fastest run seconds", &fastest);
    r.detail_values("setup times", &setup_total);

    // Simulated metrics pool the traces' reference runs.
    let mut latency = LogHistogram::new();
    let (mut completed, mut on_time, mut bytes, mut makespan_s, mut energy_uj) =
        (0usize, 0usize, 0u64, 0.0f64, 0.0f64);
    for t in &traces {
        let m = &t.reference;
        latency.merge(&m.latency_histogram());
        completed += m.completions.len();
        on_time += m
            .completions
            .iter()
            .filter(|c| c.deadline.is_some() && !c.missed)
            .count();
        // ICAP words of a dispatch: the raw stream plus the mode word.
        bytes += m
            .completions
            .iter()
            .map(|c| {
                let id = t.requests[c.id.0 as usize].bitstream;
                let raw = service.catalog().entry(id).expect("served id").raw_bytes();
                ((raw as u64).div_ceil(4) + 1) * 4
            })
            .sum::<u64>();
        makespan_s += m.makespan.as_secs_f64();
        energy_uj += m.completions.iter().map(|c| c.energy_uj).sum::<f64>();
    }
    let attempted = (TRACES * REQUESTS) as f64;
    r.detail("latency samples", completed);

    if args.trace {
        let t = TraceInputs {
            traces: &traces,
            build: &build,
            calibrate: &calibrate,
            calibrations: &calibrations,
            walls: &walls,
            traced_walls: &traced_walls,
            gen_s,
        };
        layer_metrics(&mut r, &service, &t);
    } else {
        let pct = |p: f64| latency.percentile(p).unwrap_or(f64::NAN);
        r.metric("setup_s", median(&setup_total), "s");
        r.metric("requests_per_s", rate, "1/s");
        r.metric("peak_rss_mb", rss, "MB");
        r.metric("sim_p50_us", pct(50.0), "us");
        r.metric("sim_p99_us", pct(99.0), "us");
        r.metric("sim_energy_uj_per_req", energy_uj / completed as f64, "uJ");
        r.metric("sim_gb_per_s", bytes as f64 / makespan_s / 1e9, "GB/s");
        r.metric("served_share", completed as f64 / attempted, "share");
        r.metric("on_time_share", on_time as f64 / attempted, "share");
        let err = probes::paper_bw_error_pct(seed);
        r.check(
            "UPaRC_i bandwidth within 10% of Table III",
            err.abs() <= 10.0,
        );
        r.metric("paper_bw_error_pct", err.abs(), "%");
    }
    r
}

struct TraceInputs<'a> {
    traces: &'a [Trace],
    build: &'a [f64],
    calibrate: &'a [f64],
    calibrations: &'a [f64],
    walls: &'a [f64],
    traced_walls: &'a [f64],
    gen_s: f64,
}

fn layer_metrics(r: &mut Report, service: &Service, t: &TraceInputs<'_>) {
    let catalog = service.catalog();
    let summaries: Vec<ServiceSummary> = t.traces.iter().map(|t| t.reference.summary()).collect();
    let sum = |f: &dyn Fn(&ServiceSummary) -> usize| summaries.iter().map(f).sum::<usize>() as f64;
    let requests = (t.traces.len() * REQUESTS) as f64;

    r.metric("catalog.build_s", median(t.build), "s");
    r.metric("plan.calibrate_s", median(t.calibrate), "s");
    r.metric(
        "plan.grid_points",
        service.planner().frequency_grid().len() as f64,
        "count",
    );
    r.metric("workload.gen_s", t.gen_s, "s");

    // The rack layers do not run on a single chip: their times are the
    // measured cost of the empty phase, their counts zero.
    for name in [
        "router.route_s",
        "budget.schedule_s",
        "chip.sim_s",
        "chip.slowest_s",
        "failover.s",
        "fleet.residual_s",
    ] {
        let t0 = Instant::now();
        r.metric(name, t0.elapsed().as_secs_f64(), "s");
    }
    for (name, unit) in [
        ("router.calls", "count"),
        ("router.warm_share", "share"),
        ("router.spill_share", "share"),
        ("router.shed", "count"),
        ("chip.requests", "count"),
        ("chip.hit_share", "share"),
        ("chip.misses", "count"),
        ("chip.decoded_mb", "MB"),
        ("chip.fanout_efficiency", "share"),
        ("failover.rounds", "count"),
        ("failover.orphans", "count"),
        ("failover.resimulated_chips", "count"),
    ] {
        r.metric(name, 0.0, unit);
    }
    r.metric(
        "compress.decode_mb_per_s",
        probes::decode_mb_per_s(catalog).expect("large modules stage compressed"),
        "MB/s",
    );
    r.metric(
        "recovery.faulted",
        sum(&|s| s.degraded_completed + s.failed),
        "count",
    );

    // Replay every trace's dispatches, in order, on one persistent lane
    // per region at the (V, f) each one used; plan the same requests.
    let mut dispatches = Vec::new();
    for tr in t.traces {
        for c in &tr.reference.completions {
            dispatches.push(Dispatch {
                id: tr.requests[c.id.0 as usize].bitstream,
                frequency: c.frequency,
                volts: Some(c.volts),
                lane: Some(c.region.0),
            });
        }
    }
    let (dispatch_us, ns_per_word) = probes::dispatch_cost(
        catalog,
        service.config().decompressed_cache_bytes,
        &dispatches,
    );
    r.metric("core.dispatch_us", dispatch_us, "us");
    r.metric("core.ns_per_word", ns_per_word, "ns");
    let vf = service.planner().vf_table();
    let queries: Vec<VfQuery> = dispatches
        .iter()
        .map(|d| {
            let entry = catalog.entry(d.id).expect("served id");
            let mut q = VfQuery::new(PlanQuery {
                bytes: entry.raw_bytes(),
                max_frequency: entry
                    .compressed()
                    .then(|| Frequency::from_mhz(COMPRESSED_MODE_MAX)),
                power_cap_mw: Some(POWER_CAP_MW),
                ..PlanQuery::default()
            });
            q.current_rail = Some(vf.nominal_index());
            q
        })
        .collect();
    let plan_us = probes::plan_vf_us(service.planner(), &queries);
    r.metric("planner.plan_vf_us", plan_us, "us");

    let calibrate_s = median(t.calibrations);
    let run_s = median(t.traced_walls);
    let dispatched = dispatches.len() as f64 / t.traces.len() as f64;
    // Each served request is planned at least twice: once by admission's
    // dry run under the cap and once at dispatch.
    let covered = calibrate_s + dispatched * (dispatch_us + 2.0 * plan_us) * 1e-6;
    r.metric("serve.calibrate_s", calibrate_s, "s");
    r.metric("serve.run_s", run_s, "s");
    r.metric("serve.residual_s", run_s - covered, "s");
    r.metric(
        "serve.rejected_share",
        sum(&|s| s.rejected) / requests,
        "share",
    );
    r.metric(
        "serve.deadline_misses",
        sum(&|s| s.deadline_misses),
        "count",
    );
    r.metric(
        "serve.throttles",
        summaries.iter().map(|s| s.thermal_throttles).sum::<u64>() as f64,
        "count",
    );
    r.metric(
        "serve.vf_ramps",
        t.traces.iter().map(|t| vf_ramps(&t.reference)).sum::<u64>() as f64,
        "count",
    );
    r.metric("layers.covered_share", covered / run_s, "share");
    let untraced = median(t.walls);
    r.metric(
        "trace_overhead_pct",
        (run_s - untraced) / untraced * 100.0,
        "%",
    );
    r.metric("latency.samples", sum(&|s| s.completed), "count");
}
