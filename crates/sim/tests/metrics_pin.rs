//! Exact-value pin of the metrics registry's histogram exports.
//!
//! A fixed value set — signed and zero values, the underflow edge, every
//! power of two across the bucketed range, the overflow clamp and a
//! linear ramp — is observed into named histograms, and the text render,
//! the `uparcMetrics` block of the Chrome-trace export and the quantile
//! upper bounds are compared byte for byte against recorded output.

use std::sync::Arc;

use uparc_sim::obs::{Metrics, Obs, TraceRecorder};

fn edge_values() -> Vec<f64> {
    vec![
        0.0,
        -3.0,
        1e-300,
        2f64.powi(-33),
        1.5 * 2f64.powi(-32),
        1e-6,
    ]
}

fn pow2_values() -> Vec<f64> {
    let mut v: Vec<f64> = (-34..=29).map(|e| 2f64.powi(e)).collect();
    v.extend([2f64.powi(30), 3.0 * 2f64.powi(31), 1e12]);
    v
}

fn ramp_values() -> Vec<f64> {
    (1..=100).map(f64::from).collect()
}

fn pinned_registry() -> Metrics {
    let m = Metrics::new();
    for (name, values) in [
        ("pin.edge", edge_values()),
        ("pin.pow2", pow2_values()),
        ("pin.ramp", ramp_values()),
    ] {
        for &v in &values {
            m.observe(name, v);
            m.observe("pin.all", v);
        }
    }
    m
}

const QUANTILES: [f64; 9] = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

#[test]
fn render_text_is_pinned() {
    assert_eq!(
        pinned_registry().render_text(),
        concat!(
            "pin.all   count=173 mean=5829999651.092485 min=-3.000000 max=1000000000000.000000 p99<=2147483648.000000\n",
            "pin.edge  count=6 mean=-0.500000 min=-3.000000 max=0.000001 p99<=0.000002\n",
            "pin.pow2  count=67 mean=15053581113.313433 min=0.000000 max=1000000000000.000000 p99<=2147483648.000000\n",
            "pin.ramp  count=100 mean=50.500000 min=1.000000 max=100.000000 p99<=128.000000\n",
        )
    );
}

#[test]
fn chrome_trace_metrics_block_is_pinned() {
    let recorder = Arc::new(TraceRecorder::new());
    let obs = Obs::new(recorder.clone(), Arc::new(pinned_registry()));
    let trace = recorder.chrome_trace(Some(obs.metrics()));
    let block = &trace[trace.find("\"uparcMetrics\"").expect("metrics block")..];
    assert_eq!(
        block,
        concat!(
            "\"uparcMetrics\":{\"counters\":{},\"gauges\":{},\"histograms\":{",
            "\"pin.all\":{\"count\":173,\"mean\":5829999651.092485,\"min\":-3.000000,",
            "\"max\":1000000000000.000000,\"p99_le\":2147483648.000000},",
            "\"pin.edge\":{\"count\":6,\"mean\":-0.500000,\"min\":-3.000000,",
            "\"max\":0.000001,\"p99_le\":0.000002},",
            "\"pin.pow2\":{\"count\":67,\"mean\":15053581113.313433,\"min\":0.000000,",
            "\"max\":1000000000000.000000,\"p99_le\":2147483648.000000},",
            "\"pin.ramp\":{\"count\":100,\"mean\":50.500000,\"min\":1.000000,",
            "\"max\":100.000000,\"p99_le\":128.000000}}}\n}\n",
        )
    );
}

#[test]
fn quantile_upper_bounds_are_pinned() {
    // `{:?}` prints the shortest decimal that round-trips, so equal
    // strings mean equal bits.
    let bounds: Vec<String> = pinned_registry()
        .snapshot()
        .histograms
        .iter()
        .map(|(name, h)| {
            let q: Vec<f64> = QUANTILES
                .iter()
                .map(|&q| h.quantile_upper_bound(q))
                .collect();
            format!("{name} {q:?}")
        })
        .collect();
    assert_eq!(
        bounds,
        [
            "pin.all [0.0, 0.0, 4.76837158203125e-7, 4.0, 64.0, 128.0, 65536.0, 2147483648.0, 2147483648.0]",
            "pin.edge [0.0, 0.0, 0.0, 0.0, 0.0, 4.656612873077393e-10, 1.9073486328125e-6, 1.9073486328125e-6, 1.9073486328125e-6]",
            "pin.pow2 [0.0, 0.0, 7.450580596923828e-9, 7.62939453125e-6, 1.0, 131072.0, 134217728.0, 2147483648.0, 2147483648.0]",
            "pin.ramp [2.0, 2.0, 16.0, 32.0, 64.0, 128.0, 128.0, 128.0, 128.0]",
        ]
    );
}
