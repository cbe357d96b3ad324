//! Integration tests of the observability layer (`uparc-sim::obs`) over a
//! seeded `bench_service`-style run: span nesting/ordering invariants,
//! byte-identical exports for identical seeds, and the guarantee that
//! observation never perturbs simulated behaviour.

use std::collections::HashMap;
use std::sync::Arc;

use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::fpga::Device;
use uparc_repro::serve::catalog::Catalog;
use uparc_repro::serve::metrics::ServiceSummary;
use uparc_repro::serve::obs::{EventKind, Obs, SpanId, TraceEvent, TraceRecorder};
use uparc_repro::serve::request::BitstreamId;
use uparc_repro::serve::scheduler::Policy;
use uparc_repro::serve::service::{Service, ServiceConfig};
use uparc_repro::serve::workload::{ArrivalPattern, WorkloadSpec};
use uparc_repro::sim::obs::json;
use uparc_repro::sim::time::SimTime;

/// Workload seed shared by every test; determinism tests rerun with it.
const SEED: u64 = 0x0b5e_7ab1e;

/// A two-region catalog with one raw-staged and one compressed module per
/// region — small enough to run in seconds, rich enough that a trace
/// carries `Preload`, `DecompressStage`, `DcmRelock` and `IcapBurst`
/// spans on both lanes.
fn catalog() -> Catalog {
    let device = Device::xc5vsx50t();
    let mut catalog = Catalog::new(device).with_bram_bytes(64 * 1024);
    catalog.add_region("rp0", 100..700).expect("rp0");
    catalog.add_region("rp1", 1000..1400).expect("rp1");
    let modules: [(u32, u32, u32); 4] = [
        (1, 100, 450), // 73.8 KB raw -> staged compressed
        (2, 150, 120),
        (3, 1000, 300),
        (4, 1050, 60),
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

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        requests: 40,
        mean_gap: SimTime::from_us(150),
        pattern: ArrivalPattern::Uniform,
        deadline_slack_us: Some((500, 5_000)),
        energy_budget_uj: None,
    }
}

/// Runs the seeded workload once under `config`, returning the summary.
fn run_summary(config: ServiceConfig) -> ServiceSummary {
    let service = Service::new(catalog(), config);
    let requests = workload().generate(SEED, service.catalog());
    service.run(&requests).summary()
}

/// Runs the seeded workload with a fresh recording observer.
fn observed_run() -> (Arc<TraceRecorder>, Obs, ServiceSummary) {
    let recorder = Arc::new(TraceRecorder::new());
    let obs = Obs::recording(Arc::clone(&recorder));
    let summary = run_summary(ServiceConfig {
        policy: Policy::PowerGreedy,
        power_cap_mw: 700.0,
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    (recorder, obs, summary)
}

#[test]
fn spans_nest_and_order_over_a_seeded_service_run() {
    let (recorder, _obs, summary) = observed_run();
    let events = recorder.events();
    assert_eq!(recorder.dropped(), 0, "default capacity must fit this run");
    assert!(!events.is_empty());

    // (1) Span ids are assigned monotonically across the whole run.
    let mut last_id = 0u64;
    for ev in &events {
        if let TraceEvent::Begin { span, .. } = ev {
            assert!(span.0 > last_id, "span id {} not monotonic", span.0);
            last_id = span.0;
        }
    }

    // (2) Every End pairs an open Begin (no orphans, no double-close)
    //     and never moves backwards in time; per-lane emission follows
    //     stack discipline (a lane closes its innermost span first), so
    //     the flame summary's folded stacks are well-defined.
    let mut open: HashMap<SpanId, (Option<u32>, SimTime, &'static str)> = HashMap::new();
    let mut stacks: HashMap<Option<u32>, Vec<SpanId>> = HashMap::new();
    let mut dispatch_spans = 0usize;
    let mut admission_instants = 0usize;
    for ev in &events {
        match ev {
            TraceEvent::Begin {
                at,
                span,
                lane,
                kind,
            } => {
                assert!(
                    open.insert(*span, (*lane, *at, kind.label())).is_none(),
                    "span id {} reused while open",
                    span.0
                );
                stacks.entry(*lane).or_default().push(*span);
                if matches!(kind, EventKind::Dispatch { .. }) {
                    dispatch_spans += 1;
                    assert!(lane.is_some(), "dispatch spans carry the lane tag");
                }
            }
            TraceEvent::End { at, span } => {
                let (lane, begin, label) = open
                    .remove(span)
                    .unwrap_or_else(|| panic!("End for unopened span {}", span.0));
                assert!(
                    *at >= begin,
                    "{label} span {} ends at {at} before its begin {begin}",
                    span.0
                );
                let stack = stacks.get_mut(&lane).expect("lane stack exists");
                assert_eq!(
                    stack.pop(),
                    Some(*span),
                    "{label} span {} closed out of stack order on lane {lane:?}",
                    span.0
                );
            }
            TraceEvent::Instant { lane, kind, .. } => {
                if matches!(kind, EventKind::Admission { .. }) {
                    admission_instants += 1;
                    assert!(lane.is_none(), "admission verdicts are system-wide");
                }
            }
        }
    }
    assert!(open.is_empty(), "unclosed spans: {:?}", open.keys());

    // (3) Event counts line up with the run's outcome: one admission
    //     verdict per request, one dispatch span per served request.
    assert_eq!(admission_instants, workload().requests);
    assert_eq!(dispatch_spans, summary.completed + summary.failed);

    // (4) Time containment: every non-dispatch lane span lies inside an
    //     enclosing Dispatch interval on the same lane.
    let mut dispatch_windows: HashMap<u32, Vec<(SimTime, SimTime)>> = HashMap::new();
    let mut ends: HashMap<SpanId, SimTime> = HashMap::new();
    for ev in &events {
        if let TraceEvent::End { at, span } = ev {
            ends.insert(*span, *at);
        }
    }
    for ev in &events {
        if let TraceEvent::Begin {
            at,
            span,
            lane: Some(lane),
            kind: EventKind::Dispatch { .. },
        } = ev
        {
            dispatch_windows
                .entry(*lane)
                .or_default()
                .push((*at, ends[span]));
        }
    }
    for ev in &events {
        if let TraceEvent::Begin {
            at,
            span,
            lane: Some(lane),
            kind,
        } = ev
        {
            if matches!(kind, EventKind::Dispatch { .. }) {
                continue;
            }
            let end = ends[span];
            let contained = dispatch_windows
                .get(lane)
                .is_some_and(|ws| ws.iter().any(|(b, e)| b <= at && end <= *e));
            assert!(
                contained,
                "{} span {} [{at}, {end}] outside every dispatch on lane {lane}",
                kind.label(),
                span.0
            );
        }
    }
}

#[test]
fn chrome_trace_export_is_byte_identical_for_identical_seeds() {
    let (rec_a, obs_a, sum_a) = observed_run();
    let (rec_b, obs_b, sum_b) = observed_run();
    assert_eq!(sum_a, sum_b, "same seed, same summary");

    let trace_a = rec_a.chrome_trace(Some(obs_a.metrics()));
    let trace_b = rec_b.chrome_trace(Some(obs_b.metrics()));
    assert_eq!(trace_a, trace_b, "same seed, byte-identical Chrome trace");
    assert_eq!(
        rec_a.flame_summary(),
        rec_b.flame_summary(),
        "same seed, byte-identical flame summary"
    );

    // The export is valid JSON by the in-repo parser and structurally a
    // Chrome trace: a traceEvents array plus the embedded metrics block.
    let doc = json::parse(&trace_a).expect("export parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() > sum_a.completed, "trace carries the run");
    let metrics = doc.get("uparcMetrics").expect("embedded metrics");
    let counters = metrics.get("counters").expect("counters object");
    assert!(
        counters.get("serve.completions").is_some(),
        "scheduler metrics present"
    );
    assert!(
        counters.get("icap.bursts").is_some(),
        "lane metrics present"
    );
}

#[test]
fn null_recorder_run_matches_unobserved_run_bit_for_bit() {
    let base = ServiceConfig {
        policy: Policy::PowerGreedy,
        power_cap_mw: 700.0,
        ..ServiceConfig::default()
    };
    // `ServiceConfig::default()` carries no observer at all; `Obs::null`
    // is the explicit disabled handle; a recording run does strictly
    // more work. All three must produce the same simulated outcome.
    let unobserved = run_summary(base.clone());
    let null = run_summary(ServiceConfig {
        obs: Obs::null(),
        ..base.clone()
    });
    let (_rec, _obs, recorded) = observed_run();

    assert_eq!(unobserved, null, "the disabled handle perturbed the run");
    assert_eq!(unobserved, recorded, "recording perturbed the run");
    // Bit-for-bit, not just approximately: the Debug rendering prints
    // every f64 field exactly, so equal strings mean equal bits.
    assert_eq!(format!("{unobserved:?}"), format!("{null:?}"));
    assert_eq!(format!("{unobserved:?}"), format!("{recorded:?}"));
}
