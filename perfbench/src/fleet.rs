//! The three rack-scale workloads: `fleet-random`, `fleet-locality` and
//! `fleet-chaos`, all over one 1024-chip, 4096-image fleet shape.

use std::time::{Duration, Instant};

use uparc_core::policy::{PlanQuery, VfQuery};
use uparc_core::uparc::COMPRESSED_MODE_MAX;
use uparc_fleet::{
    synthetic_catalog, ChaosSpec, Fleet, FleetConfig, FleetOutcome, FleetWorkloadSpec,
    HealthConfig, RoutePolicy,
};
use uparc_serve::catalog::Catalog;
use uparc_serve::request::BitstreamId;
use uparc_sim::obs::Obs;
use uparc_sim::time::{Frequency, SimTime};

use crate::probes::{self, Dispatch};
use crate::replica;
use crate::report::{median, peak_rss_mb, Report, MIN_BATCHES, WARM_UP};
use crate::Args;

const CHIPS: usize = 1024;
const IMAGES: usize = 4096;
const FRAMES_PER_IMAGE: u32 = 40;
/// Requests per timed batch on the quiet workloads. Random and locality
/// routing serve the same stream, so their image folds must agree.
const QUIET_REQUESTS: u64 = 200_000;
/// Requests per timed batch under chaos.
const CHAOS_REQUESTS: u64 = 400_000;
const MEAN_GAP: SimTime = SimTime::from_ns(56);
const RACK_CAP_MW: f64 = 450_000.0;
const CHIP_CACHE_BYTES: usize = 56 * 1024;
/// Set-ups per run (~0.45 s each); `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Seed of the chaos campaign: `bench_fleet`'s `chip_loss` cell. The
/// campaign is part of the workload's definition and stays fixed while
/// `--seed` varies the catalog and the request stream.
const CHAOS_SEED: u64 = 20120312 ^ 0xC4A05;
/// About eight calibrated dispatches (26.77 µs each at the mid grid
/// point) of backlog a holder may carry before locality routing spills.
const SPILL_WINDOW: SimTime = SimTime::from_ns(214_000);
/// Fleet requests finishing within this simulated latency count as on
/// time: about four calibrated dispatches.
const LATENCY_LIMIT_US: f64 = 100.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Random,
    Locality,
    Chaos,
}

impl Shape {
    fn requests(self) -> u64 {
        match self {
            Shape::Chaos => CHAOS_REQUESTS,
            _ => QUIET_REQUESTS,
        }
    }

    fn config(self, seed: u64) -> FleetConfig {
        let route = match self {
            Shape::Random => RoutePolicy::Random { seed },
            _ => RoutePolicy::Locality {
                spill_window: SPILL_WINDOW,
            },
        };
        FleetConfig {
            chips: CHIPS,
            rack_cap_mw: RACK_CAP_MW,
            epoch: SimTime::from_ms(1),
            chip_cache_bytes: CHIP_CACHE_BYTES,
            route,
            min_frequency: Frequency::from_mhz(50.0),
            health: HealthConfig::default(),
            shed_backlog: (self == Shape::Chaos).then(|| SimTime::from_ms(2)),
            failover_retries: 3,
        }
    }

    /// The `chip_loss` campaign over the batch's arrival span: chip
    /// deaths, ICAP wedges, SEU windows and ambient staged-image flips.
    /// Deaths run at four times `bench_fleet`'s rate: at its 15‰ some
    /// streams lost no queued request and so never failed over.
    fn chaos(self) -> ChaosSpec {
        if self != Shape::Chaos {
            return ChaosSpec::quiet();
        }
        let h = CHAOS_REQUESTS * MEAN_GAP.as_fs();
        ChaosSpec {
            seed: CHAOS_SEED,
            horizon: SimTime::from_fs(h),
            loss_permille: 60,
            wedge_permille: 30,
            wedge_window: SimTime::from_fs(h / 20),
            seu_permille: 30,
            seu_window: SimTime::from_fs(h / 12),
            seu_faults_per_request: 1,
            ambient_fault_ppm: 20,
            ..ChaosSpec::quiet()
        }
    }
}

/// Builds the catalog and calibrates the fleet; returns it with the two
/// set-up halves' host times.
fn setup(shape: Shape, seed: u64) -> (Fleet, Duration, Duration) {
    let t = Instant::now();
    let catalog = synthetic_catalog(IMAGES, FRAMES_PER_IMAGE, seed);
    let build = t.elapsed();
    let t = Instant::now();
    let fleet = Fleet::new(catalog, shape.config(seed)).expect("fleet shape is feasible");
    (fleet, build, t.elapsed())
}

fn run_untraced(fleet: &Fleet, spec: &FleetWorkloadSpec, chaos: &ChaosSpec) -> (FleetOutcome, f64) {
    let t = Instant::now();
    let o = fleet
        .run_chaos(spec, chaos, &Obs::null())
        .expect("rack cap funds every chip");
    (o, t.elapsed().as_secs_f64())
}

/// FNV-style fold of one image, the chip loop's byte-identity witness.
fn fold_image(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lane = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The image fold of a stream served in full, computed from the stream
/// and the catalog alone: it does not depend on routing, so random and
/// locality routing must both reach it.
fn expected_checksum(catalog: &Catalog, spec: &FleetWorkloadSpec) -> u64 {
    let codec = catalog.algorithm().codec();
    let ids = catalog.ids();
    let folds: Vec<u64> = ids
        .iter()
        .map(|&id| {
            let packed = catalog
                .entry(id)
                .and_then(|e| e.packed_bytes())
                .expect("fleet images stage compressed");
            fold_image(&codec.decompress(packed).expect("staged payload decodes"))
        })
        .collect();
    (0..spec.requests).fold(0, |acc, i| {
        let id = spec.request(i, &ids).bitstream;
        acc ^ folds[(id.0 - 1) as usize]
    })
}

/// Share of the latency histogram at or below `limit_us`, found by
/// inverting its percentile function.
fn share_within(o: &FleetOutcome, limit_us: f64) -> f64 {
    let h = &o.latency_us;
    if h.count() == 0 {
        return 0.0;
    }
    if h.max().is_some_and(|m| m <= limit_us) {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 100.0f64);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if h.percentile(mid).is_some_and(|v| v <= limit_us) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo / 100.0
}

fn outcome_checks(r: &mut Report, shape: Shape, o: &FleetOutcome, requests: u64) {
    r.check(
        "accounting: completed + shed == requests",
        o.completed + o.shed.total() == requests,
    );
    r.check(
        "zero verified rack-cap violations",
        o.cap_violations == 0 && o.cap_violations_emergency == 0 && o.peak_power_mw <= RACK_CAP_MW,
    );
    match shape {
        Shape::Chaos => {
            r.detail(
                "chaos",
                format!(
                    "{} chips lost, {} failovers, {} faulted, {} shed",
                    o.chips_lost,
                    o.failovers,
                    o.faulted,
                    o.shed.total()
                ),
            );
            r.check(
                "chaos campaign killed chips and failed over",
                o.chips_lost > 0 && o.failovers > 0 && o.faulted > 0,
            );
        }
        _ => {
            r.check("quiet fleet serves every request", o.completed == requests);
        }
    }
}

pub fn run(args: &Args, shape: Shape) -> Report {
    let mut r = Report::default();
    let seed = args.seed;
    let mut build = Vec::new();
    let mut calibrate = Vec::new();
    let mut setup_total = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous fleet first so set-ups do not overlap in memory.
        drop(fleet.take());
        let (f, b, c) = setup(shape, seed);
        build.push(b.as_secs_f64());
        calibrate.push(c.as_secs_f64());
        setup_total.push((b + c).as_secs_f64());
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up");
    let spec = FleetWorkloadSpec {
        requests: shape.requests(),
        mean_gap: MEAN_GAP,
        seed,
    };
    let chaos = shape.chaos();

    // Warm-up batches: first-touch page faults and allocator growth stay
    // out of the timed batches. The first outcome is the reference every
    // later batch must reproduce bit for bit.
    let (reference, _) = run_untraced(&fleet, &spec, &chaos);
    // Peak memory of the set-ups and one batch: read before the batches
    // whose count depends on host speed.
    let rss = peak_rss_mb();
    let t_warm = Instant::now();
    let mut identical = true;
    while t_warm.elapsed() < WARM_UP {
        identical &= run_untraced(&fleet, &spec, &chaos).0 == reference;
    }
    outcome_checks(&mut r, shape, &reference, spec.requests);
    if shape != Shape::Chaos {
        let expected = expected_checksum(fleet.catalog(), &spec);
        r.check(
            "image fold matches the stream's routing-independent fold",
            reference.checksum == expected,
        );
    }
    r.detail("checksum", format!("{:016x}", reference.checksum));

    let budget = Duration::from_secs_f64(args.seconds);
    let t_run = Instant::now();
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut traced: Vec<replica::Replica> = Vec::new();
    let mut replica_matches = true;
    while rates.len() < MIN_BATCHES || t_run.elapsed() < budget {
        let (o, wall) = run_untraced(&fleet, &spec, &chaos);
        r.attempted += spec.requests;
        if o != reference {
            identical = false;
            r.failed += spec.requests;
        }
        rates.push(o.completed as f64 / wall);
        walls.push(wall);
        if args.trace {
            let rep = replica::run(&fleet, &spec, &chaos);
            let diff = rep.mismatches(&reference);
            if !diff.is_empty() {
                replica_matches = false;
                r.detail("replica mismatches", diff.join(","));
            }
            traced.push(rep);
        }
    }
    r.check(
        "every batch reproduces the reference bit for bit",
        identical,
    );
    if args.trace {
        r.check(
            "traced replica reproduces the untraced totals",
            replica_matches,
        );
    }
    r.detail("batches", rates.len());
    r.detail_values("batch rates", &rates);
    r.detail_values("setup times", &setup_total);
    r.detail("latency samples", reference.latency_us.count());

    if args.trace {
        layer_metrics(
            &mut r, &fleet, &reference, &traced, &walls, &build, &calibrate,
        );
    } else {
        let words_bytes = reference.words as f64 * 4.0;
        r.metric("setup_s", median(&setup_total), "s");
        r.metric("requests_per_s", median(&rates), "1/s");
        r.metric("peak_rss_mb", rss, "MB");
        r.metric("sim_p50_us", reference.p50_us, "us");
        r.metric("sim_p99_us", reference.p99_us, "us");
        r.metric(
            "sim_energy_uj_per_req",
            reference.energy_uj / reference.completed as f64,
            "uJ",
        );
        r.metric(
            "sim_gb_per_s",
            words_bytes / reference.makespan.as_secs_f64() / 1e9,
            "GB/s",
        );
        r.metric(
            "served_share",
            reference.completed as f64 / spec.requests as f64,
            "share",
        );
        r.metric(
            "on_time_share",
            share_within(&reference, LATENCY_LIMIT_US) * reference.completed as f64
                / spec.requests as f64,
            "share",
        );
        let err = probes::paper_bw_error_pct(seed);
        r.check(
            "UPaRC_i bandwidth within 10% of Table III",
            err.abs() <= 10.0,
        );
        r.metric("paper_bw_error_pct", err.abs(), "%");
    }
    r
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    r: &mut Report,
    fleet: &Fleet,
    reference: &FleetOutcome,
    traced: &[replica::Replica],
    walls: &[f64],
    build: &[f64],
    calibrate: &[f64],
) {
    let med =
        |f: &dyn Fn(&replica::Replica) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let d = |x: Duration| x.as_secs_f64();
    let rep = &traced[0];
    let route = reference.route;
    let calls = rep.route_calls as f64;
    let staged = (reference.hits + reference.misses).max(1) as f64;
    let traced_wall = med(&|t| d(t.phases.wall));
    let untraced_wall = median(walls);

    r.metric("catalog.build_s", median(build), "s");
    r.metric("plan.calibrate_s", median(calibrate), "s");
    r.metric(
        "plan.grid_points",
        fleet.tables().grid().len() as f64,
        "count",
    );
    r.metric("workload.gen_s", med(&|t| d(t.phases.gen)), "s");
    r.metric("router.route_s", med(&|t| d(t.phases.route)), "s");
    r.metric("router.calls", calls, "count");
    r.metric("router.warm_share", route.warm as f64 / calls, "share");
    r.metric("router.spill_share", route.spills as f64 / calls, "share");
    r.metric("router.shed", route.shed as f64, "count");
    r.metric("budget.schedule_s", med(&|t| d(t.phases.budget)), "s");
    r.metric("chip.sim_s", med(&|t| d(t.phases.chips)), "s");
    r.metric("chip.requests", rep.chip_requests as f64, "count");
    r.metric("chip.hit_share", reference.hits as f64 / staged, "share");
    r.metric("chip.misses", reference.misses as f64, "count");
    r.metric(
        "chip.decoded_mb",
        reference.decompressed_bytes as f64 / 1e6,
        "MB",
    );
    r.metric("chip.slowest_s", med(&|t| d(t.phases.chip_slowest)), "s");
    r.metric(
        "chip.fanout_efficiency",
        med(&|t| d(t.phases.chip_sum) / (t.workers as f64 * d(t.phases.chips))),
        "share",
    );
    r.metric(
        "compress.decode_mb_per_s",
        probes::decode_mb_per_s(fleet.catalog()).expect("fleet images stage compressed"),
        "MB/s",
    );
    r.metric("failover.rounds", rep.failover_rounds as f64, "count");
    r.metric("failover.orphans", rep.orphans as f64, "count");
    r.metric(
        "failover.resimulated_chips",
        rep.resimulated_chips as f64,
        "count",
    );
    r.metric("failover.s", med(&|t| d(t.phases.failover)), "s");
    r.metric("recovery.faulted", reference.faulted as f64, "count");

    // One recovered dispatch per catalog image on a fleet scratch lane
    // (no decompressed-image cache), at the fastest point the compressed
    // datapath admits; planner queries under the mean per-chip cap.
    let tables = fleet.tables();
    let fastest = tables
        .grid()
        .iter()
        .copied()
        .rfind(|f| f.as_mhz() <= COMPRESSED_MODE_MAX)
        .expect("grid reaches the compressed ceiling");
    let sample: Vec<BitstreamId> = fleet.catalog().ids().into_iter().take(256).collect();
    let dispatches: Vec<Dispatch> = sample
        .iter()
        .map(|&id| Dispatch {
            id,
            frequency: fastest,
            volts: None,
            lane: None,
        })
        .collect();
    let (dispatch_us, ns_per_word) = probes::dispatch_cost(fleet.catalog(), 0, &dispatches);
    r.metric("core.dispatch_us", dispatch_us, "us");
    r.metric("core.ns_per_word", ns_per_word, "ns");
    let queries: Vec<VfQuery> = sample
        .iter()
        .map(|&id| {
            let entry = fleet.catalog().entry(id).expect("sampled id");
            VfQuery::frequency_only(PlanQuery {
                bytes: entry.raw_bytes(),
                max_frequency: Some(Frequency::from_mhz(COMPRESSED_MODE_MAX)),
                power_cap_mw: Some(RACK_CAP_MW / CHIPS as f64),
                ..PlanQuery::default()
            })
        })
        .collect();
    r.metric(
        "planner.plan_vf_us",
        probes::plan_vf_us(fleet.planner(), &queries),
        "us",
    );

    // The single-chip service layers do not run in a fleet workload: their
    // times are the measured cost of the empty phase.
    for name in ["serve.calibrate_s", "serve.run_s", "serve.residual_s"] {
        let t = Instant::now();
        r.metric(name, t.elapsed().as_secs_f64(), "s");
    }
    r.metric("serve.rejected_share", 0.0, "share");
    for name in ["serve.deadline_misses", "serve.throttles", "serve.vf_ramps"] {
        r.metric(name, 0.0, "count");
    }

    // The library's own batch is the whole: the residual is its time the
    // named layers do not explain (rack verification and the merge), each
    // traced batch paired with the untraced batch run just before it.
    let pairs = || {
        traced
            .iter()
            .zip(walls)
            .map(|(t, &u)| (d(t.phases.named()), u))
    };
    let residual: Vec<f64> = pairs().map(|(named, u)| u - named).collect();
    let covered: Vec<f64> = pairs().map(|(named, u)| named / u).collect();
    r.metric("fleet.residual_s", median(&residual), "s");
    r.metric("layers.covered_share", median(&covered), "share");
    r.metric(
        "trace_overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
        "%",
    );
    r.metric(
        "latency.samples",
        reference.latency_us.count() as f64,
        "count",
    );
}
