//! Machine-readable service benchmark: writes `BENCH_service.json` with
//! throughput, latency percentiles, deadline-miss rates, energy per
//! request, and power-cap behaviour of the `uparc-serve` scheduler
//! across a policy × power-cap grid.
//!
//! Everything reported here is *simulated* — the numbers are fully
//! deterministic in the seed, which the harness itself verifies by
//! running the whole grid twice and asserting byte-identical JSON.
//!
//! Run with `cargo run --release --bin bench_service`; pass `--smoke`
//! for a seconds-scale CI variant (smaller trace, same assertions).
//! Pass `--trace <path>` to additionally run one fully observed
//! power-greedy cell and write its Chrome-trace JSON (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>); a flamegraph-style
//! summary of the same run is printed to stdout. The written trace is
//! parsed back with the in-repo JSON parser before the file is accepted.
//!
//! Acceptance gates (asserted in every mode):
//! * `PowerGreedy` produces zero cap violations on every capped cell;
//! * EDF misses no more deadlines than FIFO on any cell;
//! * the report is byte-identical across two same-seed runs.

use uparc_bench::harness::{render_twice, Harness};
use uparc_bench::report::{Obj, Value};
use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_fpga::Device;
use uparc_serve::catalog::Catalog;
use uparc_serve::metrics::ServiceSummary;
use uparc_serve::request::BitstreamId;
use uparc_serve::scheduler::Policy;
use uparc_serve::service::{Service, ServiceConfig};
use uparc_serve::workload::{ArrivalPattern, WorkloadSpec};
use uparc_sim::obs::Obs;
use uparc_sim::time::SimTime;

/// Workload seed; the determinism gate reruns the grid with the same one.
const SEED: u64 = 20120312;

/// Power caps of the grid, in milliwatts; `None` = uncapped.
const CAPS: [Option<f64>; 4] = [None, Some(900.0), Some(700.0), Some(550.0)];

fn build_catalog() -> Catalog {
    let device = Device::xc5vsx50t();
    // 64 KB staging BRAM: the small modules stage raw, the large ones
    // go through the compressed datapath — the grid exercises both.
    let mut catalog = Catalog::new(device).with_bram_bytes(64 * 1024);
    catalog.add_region("rp0", 100..700).expect("rp0");
    catalog.add_region("rp1", 1000..1400).expect("rp1");
    catalog.add_region("rp2", 2000..2250).expect("rp2");
    let modules: [(u32, u32, u32); 6] = [
        (1, 100, 450), // 73.8 KB raw -> compressed
        (2, 150, 200),
        (3, 1000, 300),
        (4, 1050, 120),
        (5, 2000, 240),
        (6, 2010, 80),
    ];
    for (id, far, frames) in modules {
        let payload = SynthProfile::dense().generate(catalog.device(), far, frames, u64::from(id));
        let bs = PartialBitstream::build(catalog.device(), far, &payload);
        catalog
            .register(BitstreamId(id), bs)
            .unwrap_or_else(|e| panic!("register bs#{id}: {e}"));
    }
    catalog
}

fn grid_spec(smoke: bool) -> WorkloadSpec {
    WorkloadSpec {
        requests: if smoke { 60 } else { 240 },
        mean_gap: SimTime::from_us(120),
        pattern: ArrivalPattern::Uniform,
        deadline_slack_us: Some((500, 5_000)),
        energy_budget_uj: None,
    }
}

/// Serves `spec`'s seeded request stream under `policy` and `cap`.
fn serve(
    catalog: &Catalog,
    policy: Policy,
    cap: Option<f64>,
    spec: &WorkloadSpec,
    obs: &Obs,
) -> ServiceSummary {
    let service = Service::new(
        catalog.clone(),
        ServiceConfig {
            policy,
            power_cap_mw: cap.unwrap_or(f64::INFINITY),
            obs: obs.clone(),
            ..ServiceConfig::default()
        },
    );
    let requests = spec.generate(SEED, service.catalog());
    service.run(&requests).summary()
}

fn cap_label(cap: Option<f64>) -> String {
    cap.map_or_else(|| "none".to_owned(), |c| format!("{c:.0}"))
}

fn summary_row(policy: Policy, cap: Option<f64>, s: &ServiceSummary) -> Value {
    Obj::new()
        .field("policy", policy.label())
        .field("cap_mw", cap_label(cap).as_str())
        .field("completed", s.completed)
        .field("rejected", s.rejected)
        .field("failed", s.failed)
        .field("throughput_rps", Value::fixed(s.throughput_rps, 1))
        .field("p50_latency_us", Value::fixed(s.p50_latency_us, 3))
        .field("p95_latency_us", Value::fixed(s.p95_latency_us, 3))
        .field("p99_latency_us", Value::fixed(s.p99_latency_us, 3))
        .field("deadline_misses", s.deadline_misses)
        .field("deadline_miss_rate", Value::fixed(s.deadline_miss_rate, 4))
        .field("mean_energy_uj", Value::fixed(s.mean_energy_uj, 3))
        .field("peak_power_mw", Value::fixed(s.peak_power_mw, 1))
        .field("cap_violations", s.cap_violations)
        .into()
}

/// Runs the full grid plus the arrival-pattern sweep and renders the
/// report. Called twice; both renders must be byte-identical.
fn render_report(
    h: &Harness,
    catalog: &Catalog,
) -> (String, Vec<(Policy, Option<f64>, ServiceSummary)>) {
    let smoke = h.smoke;
    let mut cells = Vec::new();
    for cap in CAPS {
        for policy in Policy::ALL {
            let s = serve(catalog, policy, cap, &grid_spec(smoke), &Obs::null());
            cells.push((policy, cap, s));
        }
    }

    // Arrival-pattern sweep: the power-greedy scheduler under the tight
    // cap, across the three generator shapes.
    let patterns = [
        ("uniform", ArrivalPattern::Uniform),
        ("bursty", ArrivalPattern::Bursty { burst: 6 }),
        (
            "diurnal",
            ArrivalPattern::Diurnal {
                period: SimTime::from_ms(4),
            },
        ),
    ];
    let mut pattern_rows: Vec<Value> = Vec::new();
    for (name, pattern) in patterns {
        let spec = WorkloadSpec {
            pattern,
            ..grid_spec(smoke)
        };
        let s = serve(
            catalog,
            Policy::PowerGreedy,
            Some(700.0),
            &spec,
            &Obs::null(),
        );
        assert_eq!(s.cap_violations, 0, "pattern {name}: cap violated");
        pattern_rows.push(
            Obj::new()
                .field("pattern", name)
                .field("completed", s.completed)
                .field("rejected", s.rejected)
                .field("throughput_rps", Value::fixed(s.throughput_rps, 1))
                .field("p95_latency_us", Value::fixed(s.p95_latency_us, 3))
                .field("deadline_miss_rate", Value::fixed(s.deadline_miss_rate, 4))
                .field("peak_power_mw", Value::fixed(s.peak_power_mw, 1))
                .into(),
        );
    }

    let spec = grid_spec(smoke);
    let report = h
        .report()
        .field(
            "workload",
            Obj::new()
                .field("seed", SEED)
                .field("requests", spec.requests)
                .field("regions", catalog.region_count())
                .field("bitstreams", catalog.len())
                .field("mean_gap_us", Value::fixed(spec.mean_gap.as_us_f64(), 1))
                .field(
                    "deadline_slack_us",
                    vec![Value::from(500u64), Value::from(5_000u64)],
                ),
        )
        .field(
            "grid",
            cells
                .iter()
                .map(|(p, c, s)| summary_row(*p, *c, s))
                .collect::<Vec<Value>>(),
        )
        .field("patterns", pattern_rows);
    (report.render(), cells)
}

fn main() {
    let h = Harness::new("service", 1);
    let catalog = build_catalog();

    let (rendered, cells) = render_twice(|| render_report(&h, &catalog));
    for (policy, cap, s) in &cells {
        println!(
            "{:<13} cap {:>5} mW: {:>3} done, {:>2} miss, p95 {:>9.1} us, peak {:>6.1} mW, {} violations",
            policy.label(),
            cap_label(*cap),
            s.completed,
            s.deadline_misses,
            s.p95_latency_us,
            s.peak_power_mw,
            s.cap_violations,
        );
    }

    // ---- acceptance gates --------------------------------------------
    for (policy, cap, s) in &cells {
        assert_eq!(
            s.completed + s.rejected + s.failed,
            grid_spec(h.smoke).requests,
            "{} cap {}: requests unaccounted for",
            policy.label(),
            cap_label(*cap)
        );
        if *policy == Policy::PowerGreedy && cap.is_some() {
            assert_eq!(
                s.cap_violations,
                0,
                "power-greedy violated the {} mW cap",
                cap_label(*cap)
            );
            let cap_mw = cap.expect("checked");
            assert!(
                s.peak_power_mw <= cap_mw + 1e-9,
                "power-greedy peak {:.1} mW above the {:.0} mW cap",
                s.peak_power_mw,
                cap_mw
            );
        }
    }
    for cap in CAPS {
        let misses = |wanted: Policy| {
            cells
                .iter()
                .find(|(p, c, _)| *p == wanted && *c == cap)
                .map(|(_, _, s)| s.deadline_misses)
                .expect("cell exists")
        };
        assert!(
            misses(Policy::EarliestDeadlineFirst) <= misses(Policy::Fifo),
            "EDF missed more deadlines than FIFO at cap {}",
            cap_label(cap)
        );
    }

    // One fully observed power-greedy cell: the trace must carry more
    // events than the cell completed requests.
    h.trace("observed power-greedy cell", &[], |obs| {
        let spec = grid_spec(h.smoke);
        serve(&catalog, Policy::PowerGreedy, Some(700.0), &spec, obs).completed
    });

    h.write(&rendered, &[]);
}
