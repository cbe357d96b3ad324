//! Machine-readable power benchmark: writes `BENCH_power.json` with the
//! Fig. 7 calibration anchors and a policy grid comparing frequency-only
//! scaling against (V, f) co-scaling under power caps and the thermal
//! governor.
//!
//! Everything reported here is *simulated* — the numbers are fully
//! deterministic in the seed, which the harness itself verifies by
//! running the whole grid twice and asserting byte-identical JSON.
//!
//! Run with `cargo run --release --bin bench_power`; pass `--smoke` for
//! a seconds-scale CI variant (smaller trace, same assertions). Pass
//! `--trace <path>` to additionally run one fully observed DVFS+thermal
//! cell and write its Chrome-trace JSON; the export is parsed back with
//! the in-repo JSON parser and must carry `Vf` and `Thermal` events.
//!
//! Acceptance gates (asserted in every mode):
//! * the model reproduces the paper's four Fig. 7 measurements
//!   **exactly** at nominal voltage (the regression anchor);
//! * at the tightest feasible cap, DVFS dispatch spends at least 10%
//!   less energy per completed request than frequency-only dispatch,
//!   with zero cap violations and the same completed set;
//! * the sustained-load thermal scenario throttles but records zero
//!   over-temperature dispatches;
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
use uparc_serve::thermal::ThermalConfig;
use uparc_serve::workload::{ArrivalPattern, WorkloadSpec};
use uparc_sim::power::{calib, reconfiguration_power_vf_mw, VfTable};
use uparc_sim::time::{Frequency, SimTime};

/// Workload seed; the determinism gate reruns the grid with the same one.
const SEED: u64 = 20120312;

/// Power caps of the grid, in milliwatts; `None` = uncapped. 330 mW is
/// the tightest cap the slowest nominal operating point still fits, and
/// the cell the DVFS energy gate runs on.
const CAPS: [Option<f64>; 4] = [None, Some(550.0), Some(420.0), Some(330.0)];

/// The cap the DVFS-vs-frequency-only energy gate is asserted at.
const GATE_CAP_MW: f64 = 330.0;

/// Builds a raw-staging-only catalog: every module fits the staging
/// BRAM uncompressed, so no cell carries the decompressor's extra draw
/// and the frequency-only vs DVFS comparison isolates the (V, f) choice.
fn build_catalog() -> Catalog {
    let device = Device::xc5vsx50t();
    let mut catalog = Catalog::new(device).with_bram_bytes(256 * 1024);
    catalog.add_region("rp0", 100..1100).expect("rp0");
    catalog.add_region("rp1", 1200..2200).expect("rp1");
    let modules: [(u32, u32, u32); 3] = [
        (1, 100, 900), // 147.6 KB raw
        (2, 150, 500),
        (3, 1200, 700),
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

/// Open-loop arrivals slow enough that even the serialized 330 mW cell
/// drains its queues: no deadline or queue rejections, so every grid
/// cell completes the identical request set and energy-per-request is
/// an apples-to-apples comparison.
fn grid_spec(smoke: bool) -> WorkloadSpec {
    WorkloadSpec {
        requests: if smoke { 24 } else { 96 },
        mean_gap: SimTime::from_us(800),
        pattern: ArrivalPattern::Uniform,
        deadline_slack_us: None,
        energy_budget_uj: None,
    }
}

/// The sustained metronome that pins both lanes at full duty — the
/// scenario that forces the governor into steady-state throttling.
fn sustained_spec(smoke: bool) -> WorkloadSpec {
    WorkloadSpec {
        requests: if smoke { 80 } else { 200 },
        mean_gap: SimTime::from_us(10),
        pattern: ArrivalPattern::Sustained,
        deadline_slack_us: None,
        energy_budget_uj: None,
    }
}

fn cell_config(cap: Option<f64>, dvfs: bool, thermal: bool) -> ServiceConfig {
    ServiceConfig {
        policy: Policy::PowerGreedy,
        power_cap_mw: cap.unwrap_or(f64::INFINITY),
        queue_capacity: 256,
        vf: dvfs.then(VfTable::voltune_virtex6),
        thermal: thermal.then(ThermalConfig::default),
        ..ServiceConfig::default()
    }
}

/// Serves `spec`'s seeded request stream under `config`.
fn serve(catalog: &Catalog, config: ServiceConfig, spec: &WorkloadSpec) -> ServiceSummary {
    let service = Service::new(catalog.clone(), config);
    let requests = spec.generate(SEED, service.catalog());
    service.run(&requests).summary()
}

fn cap_label(cap: Option<f64>) -> String {
    cap.map_or_else(|| "none".to_owned(), |c| format!("{c:.0}"))
}

fn mode_label(dvfs: bool) -> &'static str {
    if dvfs {
        "dvfs"
    } else {
        "freq-only"
    }
}

fn summary_row(cap: Option<f64>, dvfs: bool, thermal: bool, s: &ServiceSummary) -> Value {
    Obj::new()
        .field("cap_mw", cap_label(cap).as_str())
        .field("mode", mode_label(dvfs))
        .field("thermal", thermal)
        .field("completed", s.completed)
        .field("rejected", s.rejected)
        .field("failed", s.failed)
        .field("throughput_rps", Value::fixed(s.throughput_rps, 1))
        .field("p95_latency_us", Value::fixed(s.p95_latency_us, 3))
        .field("mean_energy_uj", Value::fixed(s.mean_energy_uj, 3))
        .field("peak_power_mw", Value::fixed(s.peak_power_mw, 1))
        .field("cap_violations", s.cap_violations)
        .field("thermal_throttles", s.thermal_throttles)
        .field("overtemp_dispatches", s.overtemp_dispatches)
        .field("peak_temp_c", Value::fixed(s.peak_temp_c, 2))
        .into()
}

/// The Fig. 7 regression anchors: the (V, f) power model evaluated on
/// the nominal rail must reproduce the paper's four measured totals
/// exactly, not approximately.
fn fig7_rows() -> Vec<Value> {
    calib::FIG7_POINTS
        .iter()
        .map(|&(mhz, measured_mw)| {
            let model_mw = reconfiguration_power_vf_mw(calib::V_NOM_V, Frequency::from_mhz(mhz));
            assert!(
                model_mw == measured_mw,
                "Fig. 7 anchor {mhz} MHz: model {model_mw} mW != measured {measured_mw} mW"
            );
            Obj::new()
                .field("frequency_mhz", Value::fixed(mhz, 1))
                .field("measured_mw", Value::fixed(measured_mw, 1))
                .field("model_mw", Value::fixed(model_mw, 1))
                .field("exact", true)
                .into()
        })
        .collect()
}

/// Runs the whole grid plus the thermal scenario and renders the
/// report. Called twice; both renders must be byte-identical.
#[allow(clippy::type_complexity)]
fn render_report(
    h: &Harness,
    catalog: &Catalog,
) -> (String, Vec<(Option<f64>, bool, bool, ServiceSummary)>) {
    let smoke = h.smoke;
    let mut cells = Vec::new();
    for cap in CAPS {
        for dvfs in [false, true] {
            for thermal in [false, true] {
                let s = serve(catalog, cell_config(cap, dvfs, thermal), &grid_spec(smoke));
                cells.push((cap, dvfs, thermal, s));
            }
        }
    }

    // Sustained-load thermal scenario: full-duty metronome, DVFS on,
    // governor on, no chip-level cap — the junction limit is the only
    // thing holding the draw down.
    let th = serve(
        catalog,
        cell_config(None, true, true),
        &sustained_spec(smoke),
    );

    let spec = grid_spec(smoke);
    let tcfg = ThermalConfig::default();
    let report = h
        .report()
        .field(
            "workload",
            Obj::new()
                .field("seed", SEED)
                .field("requests", spec.requests)
                .field("regions", catalog.region_count())
                .field("bitstreams", catalog.len())
                .field("mean_gap_us", Value::fixed(spec.mean_gap.as_us_f64(), 1)),
        )
        .field("fig7_anchor", fig7_rows())
        .field(
            "grid",
            cells
                .iter()
                .map(|(c, d, t, s)| summary_row(*c, *d, *t, s))
                .collect::<Vec<Value>>(),
        )
        .field(
            "thermal_scenario",
            Obj::new()
                .field("pattern", "sustained")
                .field("requests", sustained_spec(smoke).requests)
                .field("limit_c", Value::fixed(tcfg.limit_c, 1))
                .field("ambient_c", Value::fixed(tcfg.ambient_c, 1))
                .field("completed", th.completed)
                .field("thermal_throttles", th.thermal_throttles)
                .field("overtemp_dispatches", th.overtemp_dispatches)
                .field("peak_temp_c", Value::fixed(th.peak_temp_c, 2))
                .field("mean_energy_uj", Value::fixed(th.mean_energy_uj, 3)),
        );

    // ---- thermal-scenario gates (asserted on both renders) -----------
    assert!(
        th.thermal_throttles > 0,
        "sustained full-duty load never throttled"
    );
    assert_eq!(th.overtemp_dispatches, 0, "thermal limit was crossed");
    assert!(
        th.peak_temp_c <= tcfg.limit_c + 1e-9,
        "peak temperature {:.2} above the {:.1} limit",
        th.peak_temp_c,
        tcfg.limit_c
    );
    assert!(th.completed > 0, "thermal scenario served nothing");

    (report.render(), cells)
}

fn main() {
    let h = Harness::new("power", 1);
    let catalog = build_catalog();

    let (rendered, cells) = render_twice(|| render_report(&h, &catalog));
    for (cap, dvfs, thermal, s) in &cells {
        println!(
            "cap {:>5} mW {:<9} thermal {:<5}: {:>3} done, {:>8.3} uJ/req, peak {:>6.1} mW, {} throttles, {} violations",
            cap_label(*cap),
            mode_label(*dvfs),
            thermal,
            s.completed,
            s.mean_energy_uj,
            s.peak_power_mw,
            s.thermal_throttles,
            s.cap_violations,
        );
    }

    // ---- acceptance gates --------------------------------------------
    for (cap, dvfs, thermal, s) in &cells {
        assert_eq!(
            s.completed + s.rejected + s.failed,
            grid_spec(h.smoke).requests,
            "cap {} {} thermal {}: requests unaccounted for",
            cap_label(*cap),
            mode_label(*dvfs),
            thermal
        );
        assert_eq!(
            s.cap_violations,
            0,
            "cap {} {}: power-greedy violated the cap",
            cap_label(*cap),
            mode_label(*dvfs)
        );
        if let Some(cap_mw) = cap {
            assert!(
                s.peak_power_mw <= cap_mw + 1e-9,
                "peak {:.1} mW above the {:.0} mW cap",
                s.peak_power_mw,
                cap_mw
            );
        }
        if *thermal {
            assert_eq!(
                s.overtemp_dispatches,
                0,
                "cap {} {}: thermal limit crossed",
                cap_label(*cap),
                mode_label(*dvfs)
            );
        }
    }

    // The headline claim: at the tightest cap, voltage/frequency
    // co-scaling spends at least 10% less energy per completed request
    // than frequency-only scaling, on the identical completed set.
    let cell = |dvfs: bool| {
        cells
            .iter()
            .find(|(c, d, t, _)| *c == Some(GATE_CAP_MW) && *d == dvfs && !*t)
            .map(|(_, _, _, s)| s)
            .expect("gate cell exists")
    };
    let (fo, dv) = (cell(false), cell(true));
    assert_eq!(
        fo.completed, dv.completed,
        "gate cells completed different request sets"
    );
    assert!(
        dv.mean_energy_uj <= 0.9 * fo.mean_energy_uj,
        "DVFS energy {:.3} uJ/req is not >=10% below frequency-only {:.3} uJ/req at {GATE_CAP_MW} mW",
        dv.mean_energy_uj,
        fo.mean_energy_uj
    );

    // One fully observed DVFS+thermal cell under sustained load: the
    // trace must carry the rail ramps and governor verdicts.
    h.trace("observed dvfs+thermal cell", &["Vf", "Thermal"], |obs| {
        let config = ServiceConfig {
            obs: obs.clone(),
            ..cell_config(Some(GATE_CAP_MW), true, true)
        };
        serve(&catalog, config, &sustained_spec(h.smoke)).completed
    });

    h.write(
        &rendered,
        &[
            "\"fig7_anchor\"",
            "\"exact\": true",
            "\"thermal_scenario\"",
            "\"overtemp_dispatches\": 0",
        ],
    );
}
