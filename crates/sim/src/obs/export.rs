//! Deterministic exporters: Chrome `trace_event` JSON and a compact
//! folded-stack text summary.
//!
//! Both exporters are pure functions of the event slice (plus the metrics
//! snapshot for the JSON export), format every float with fixed
//! precision, and iterate name-sorted maps — identical inputs produce
//! byte-identical output, which `tests/obs.rs` relies on.

use super::event::{EventKind, SpanId, TraceEvent};
use super::metrics::Metrics;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a fixed-precision JSON value; non-finite values
/// (the uncapped-power sentinel `f64::INFINITY`) become quoted strings,
/// which JSON proper cannot carry as numbers.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else if v == f64::INFINITY {
        "\"inf\"".to_owned()
    } else if v == f64::NEG_INFINITY {
        "\"-inf\"".to_owned()
    } else {
        "\"nan\"".to_owned()
    }
}

/// Timestamp in Chrome-trace microseconds, fixed 6-decimal (picosecond)
/// precision.
fn ts_us(at: SimTime) -> String {
    format!("{:.6}", at.as_us_f64())
}

/// Chrome-trace thread id for a lane tag: lane `n` maps to tid `n + 1`;
/// untagged (system-wide) events map to tid 0.
fn tid_of(lane: Option<u32>) -> u32 {
    lane.map_or(0, |l| l + 1)
}

/// The trace category for a kind — groups the timeline by subsystem.
fn category(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::IcapBurst { .. } => "icap",
        EventKind::DcmRelock { .. } => "clock",
        EventKind::DecompressStage { .. } | EventKind::Preload { .. } => "datapath",
        EventKind::RecoveryRung { .. } => "recovery",
        EventKind::Admission { .. } | EventKind::Dispatch { .. } | EventKind::CapSample { .. } => {
            "serve"
        }
        EventKind::ChipDown { .. }
        | EventKind::Failover { .. }
        | EventKind::CapEmergency { .. }
        | EventKind::Quarantine { .. } => "fleet",
        EventKind::Relocate { .. } | EventKind::Compact { .. } | EventKind::AllocFail { .. } => {
            "place"
        }
        EventKind::Vf { .. } | EventKind::Thermal { .. } => "power",
    }
}

/// The `"args"` object for a kind's typed payload.
fn args_json(kind: &EventKind) -> String {
    match kind {
        EventKind::IcapBurst { words } => format!("{{\"words\":{words}}}"),
        EventKind::DcmRelock { clock, target_mhz } => format!(
            "{{\"clock\":\"{}\",\"target_mhz\":{}}}",
            escape_json(clock),
            json_f64(*target_mhz)
        ),
        EventKind::DecompressStage { bytes } => format!("{{\"bytes\":{bytes}}}"),
        EventKind::Preload {
            stored_bytes,
            compressed,
        } => format!("{{\"stored_bytes\":{stored_bytes},\"compressed\":{compressed}}}"),
        EventKind::RecoveryRung { rung } => format!("{{\"rung\":\"{}\"}}", escape_json(rung)),
        EventKind::Admission { outcome, request } => format!(
            "{{\"outcome\":\"{}\",\"request\":{request}}}",
            escape_json(outcome)
        ),
        EventKind::Dispatch { request } => format!("{{\"request\":{request}}}"),
        EventKind::CapSample { total_mw, cap_mw } => format!(
            "{{\"total_mw\":{},\"cap_mw\":{}}}",
            json_f64(*total_mw),
            json_f64(*cap_mw)
        ),
        EventKind::ChipDown { chip } => format!("{{\"chip\":{chip}}}"),
        EventKind::Failover { request, from, to } => {
            format!("{{\"request\":{request},\"from\":{from},\"to\":{to}}}")
        }
        EventKind::CapEmergency { cap_mw } => {
            format!("{{\"cap_mw\":{}}}", json_f64(*cap_mw))
        }
        EventKind::Quarantine { chip } => format!("{{\"chip\":{chip}}}"),
        EventKind::Relocate { from, to, frames } => {
            format!("{{\"from\":{from},\"to\":{to},\"frames\":{frames}}}")
        }
        EventKind::Compact {
            moves,
            recovered_frames,
        } => format!("{{\"moves\":{moves},\"recovered_frames\":{recovered_frames}}}"),
        EventKind::AllocFail {
            frames,
            largest_free,
        } => format!("{{\"frames\":{frames},\"largest_free\":{largest_free}}}"),
        EventKind::Vf { from_mv, to_mv } => {
            format!("{{\"from_mv\":{from_mv},\"to_mv\":{to_mv}}}")
        }
        EventKind::Thermal {
            temp_c,
            limit_c,
            throttled,
        } => format!(
            "{{\"temp_c\":{},\"limit_c\":{},\"throttled\":{throttled}}}",
            json_f64(*temp_c),
            json_f64(*limit_c)
        ),
    }
}

/// Renders `events` as Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// * Spans become phase-`"X"` (complete) events — `Begin`/`End` records
///   are paired by span id; a span with no `End` in the buffer is
///   exported with zero duration and `"unclosed": true` in its args.
/// * Instants become phase-`"i"` events with `"s": "t"` (thread scope).
/// * `ts`/`dur` are microseconds at fixed 6-decimal precision; `pid` is
///   always 1; `tid` is `lane + 1` (0 for untagged events), with
///   `thread_name` metadata emitted per tid.
/// * `dropped` (ring-buffer evictions) lands in `otherData`; `metrics`,
///   when given, is embedded name-sorted under the top-level
///   `"uparcMetrics"` key, which trace viewers ignore.
///
/// Output is byte-identical for identical inputs.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent], dropped: u64, metrics: Option<&Metrics>) -> String {
    // Pair every End with its Begin up front.
    let mut end_at: BTreeMap<SpanId, SimTime> = BTreeMap::new();
    for ev in events {
        if let TraceEvent::End { at, span } = ev {
            end_at.insert(*span, *at);
        }
    }

    let mut records: Vec<String> = Vec::new();
    let mut tids: BTreeMap<u32, ()> = BTreeMap::new();

    for ev in events {
        match ev {
            TraceEvent::Begin {
                at,
                span,
                lane,
                kind,
            } => {
                let tid = tid_of(*lane);
                tids.insert(tid, ());
                let (dur, unclosed) = match end_at.get(span) {
                    Some(end) => (end.saturating_sub(*at), false),
                    None => (SimTime::ZERO, true),
                };
                let mut args = args_json(kind);
                if unclosed {
                    // Every kind renders a non-empty object: splice the
                    // flag in before the closing brace.
                    args.truncate(args.len() - 1);
                    args.push_str(",\"unclosed\":true}");
                }
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"id\":{},\"args\":{args}}}",
                    kind.label(),
                    category(kind),
                    ts_us(*at),
                    ts_us(dur),
                    span.0,
                ));
            }
            TraceEvent::End { .. } => {}
            TraceEvent::Instant { at, lane, kind } => {
                let tid = tid_of(*lane);
                tids.insert(tid, ());
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"args\":{}}}",
                    kind.label(),
                    category(kind),
                    ts_us(*at),
                    args_json(kind),
                ));
            }
        }
    }

    // Metadata: process and per-tid thread names, so Perfetto shows
    // "lane N" tracks instead of bare numbers.
    let mut meta: Vec<String> = Vec::new();
    meta.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"uparc\"}}"
            .to_owned(),
    );
    for tid in tids.keys() {
        let label = if *tid == 0 {
            "system".to_owned()
        } else {
            format!("lane {}", tid - 1)
        };
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for rec in meta.iter().chain(records.iter()) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(rec);
    }
    out.push_str("\n],\n\"displayTimeUnit\":\"ms\",\n");
    let _ = write!(
        out,
        "\"otherData\":{{\"producer\":\"uparc-sim::obs\",\"dropped_events\":\"{dropped}\"}}"
    );

    if let Some(metrics) = metrics {
        let snap = metrics.snapshot();
        out.push_str(",\n\"uparcMetrics\":{\"counters\":{");
        let mut first = true;
        for (name, v) in &snap.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", escape_json(name));
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, v) in &snap.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", escape_json(name), json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, h) in &snap.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p99_le\":{}}}",
                escape_json(name),
                h.count(),
                json_f64(h.mean().unwrap_or(0.0)),
                json_f64(h.min().unwrap_or(0.0)),
                json_f64(h.max().unwrap_or(0.0)),
                json_f64(h.quantile_upper_bound(0.99)),
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n}\n");
    out
}

/// Per-stack aggregate for the flame summary.
#[derive(Debug, Default, Clone, Copy)]
struct FlameCell {
    total: SimTime,
    count: u64,
}

/// Renders `events` as a compact folded-stack text summary: one line per
/// `(lane, span-stack path)`, with the stack rendered
/// `Outer;Inner`-style (flamegraph "folded" notation), the total time
/// spent in that stack, and the occurrence count. Instants appear as
/// zero-duration leaves. Lines are sorted by lane then path, so output
/// is deterministic.
///
/// ```text
/// [lane 0] Dispatch                      1423.250000 us  x12
/// [lane 0] Dispatch;IcapBurst             801.125000 us  x12
/// [system] CapSample                        0.000000 us  x40
/// ```
#[must_use]
pub fn flame_summary(events: &[TraceEvent]) -> String {
    // span id → (lane key, folded path, begin time)
    let mut open: BTreeMap<SpanId, (Option<u32>, String, SimTime)> = BTreeMap::new();
    // lane key → stack of open span ids (top = innermost)
    let mut stacks: BTreeMap<Option<u32>, Vec<SpanId>> = BTreeMap::new();
    // (lane key, path) → aggregate
    let mut cells: BTreeMap<(Option<u32>, String), FlameCell> = BTreeMap::new();

    let mut bump = |key: (Option<u32>, String), dur: SimTime| {
        let cell = cells.entry(key).or_default();
        cell.total = cell.total.checked_add(dur).unwrap_or(SimTime::MAX);
        cell.count += 1;
    };

    for ev in events {
        match ev {
            TraceEvent::Begin {
                at,
                span,
                lane,
                kind,
            } => {
                let stack = stacks.entry(*lane).or_default();
                let path = match stack.last().and_then(|top| open.get(top)) {
                    Some((_, parent, _)) => format!("{parent};{}", kind.label()),
                    None => kind.label().to_owned(),
                };
                stack.push(*span);
                open.insert(*span, (*lane, path, *at));
            }
            TraceEvent::End { at, span } => {
                if let Some((lane, path, begin)) = open.remove(span) {
                    if let Some(stack) = stacks.get_mut(&lane) {
                        if let Some(pos) = stack.iter().rposition(|s| s == span) {
                            stack.remove(pos);
                        }
                    }
                    bump((lane, path), at.saturating_sub(begin));
                }
            }
            TraceEvent::Instant { lane, kind, .. } => {
                let path = match stacks
                    .get(lane)
                    .and_then(|s| s.last())
                    .and_then(|top| open.get(top))
                {
                    Some((_, parent, _)) => format!("{parent};{}", kind.label()),
                    None => kind.label().to_owned(),
                };
                bump((*lane, path), SimTime::ZERO);
            }
        }
    }

    // Unclosed spans count once with zero duration.
    let leftovers: Vec<_> = open.into_values().collect();
    for (lane, path, _) in leftovers {
        bump((lane, path), SimTime::ZERO);
    }

    let width = cells
        .keys()
        .map(|(_, path)| path.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let mut out = String::new();
    for ((lane, path), cell) in &cells {
        let lane_label = match lane {
            Some(l) => format!("[lane {l}]"),
            None => "[system]".to_owned(),
        };
        let _ = writeln!(
            out,
            "{lane_label:<9} {path:<width$}  {:>16.6} us  x{}",
            cell.total.as_us_f64(),
            cell.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Obs, TraceRecorder};
    use std::sync::Arc;

    fn sample_recorder() -> Arc<TraceRecorder> {
        let rec = Arc::new(TraceRecorder::new());
        let obs = Obs::recording(Arc::clone(&rec)).with_lane(0);
        let outer = obs.begin(SimTime::from_us(10), EventKind::Dispatch { request: 1 });
        let inner = obs.begin(SimTime::from_us(12), EventKind::IcapBurst { words: 512 });
        obs.end(SimTime::from_us(15), inner);
        obs.instant(
            SimTime::from_us(16),
            EventKind::RecoveryRung { rung: "restage" },
        );
        obs.end(SimTime::from_us(20), outer);
        rec.instant(
            SimTime::from_us(21),
            None,
            EventKind::CapSample {
                total_mw: 123.0,
                cap_mw: f64::INFINITY,
            },
        );
        rec
    }

    #[test]
    fn chrome_trace_pairs_spans_and_is_deterministic() {
        let rec = sample_recorder();
        let a = rec.chrome_trace(None);
        let b = rec.chrome_trace(None);
        assert_eq!(a, b, "export must be byte-stable");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"name\":\"Dispatch\""));
        // Dispatch span: 10 µs → 20 µs.
        assert!(a.contains("\"ts\":10.000000,\"dur\":10.000000"), "{a}");
        // Infinity survives as a quoted sentinel, not invalid JSON.
        assert!(a.contains("\"cap_mw\":\"inf\""));
        // Lane 0 maps to tid 1, system events to tid 0.
        assert!(a.contains("\"tid\":1"));
        assert!(a.contains("\"name\":\"thread_name\""));
    }

    #[test]
    fn chrome_trace_flags_unclosed_spans() {
        let rec = TraceRecorder::new();
        rec.begin(
            SimTime::from_us(1),
            None,
            EventKind::Dispatch { request: 9 },
        );
        let trace = rec.chrome_trace(None);
        assert!(trace.contains("\"unclosed\":true"), "{trace}");
        assert!(trace.contains("\"dur\":0.000000"));
    }

    #[test]
    fn chrome_trace_parses_with_in_repo_parser() {
        let rec = sample_recorder();
        let obs = Obs::new(Arc::clone(&rec), Default::default());
        obs.metrics().count("icap.bursts", 1);
        obs.metrics().observe("serve.latency_us", 42.0);
        let trace = rec.chrome_trace(Some(obs.metrics()));
        let doc = crate::obs::json::parse(&trace).expect("export must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let metrics = doc.get("uparcMetrics").expect("embedded metrics");
        assert!(metrics.get("counters").is_some());
    }

    #[test]
    fn flame_summary_folds_nested_stacks() {
        let rec = sample_recorder();
        let flame = rec.flame_summary();
        assert!(flame.contains("Dispatch;IcapBurst"), "{flame}");
        assert!(flame.contains("Dispatch;RecoveryRung"), "{flame}");
        assert!(flame.contains("[system]"), "{flame}");
        assert!(flame.contains("x1"), "{flame}");
        // Deterministic.
        assert_eq!(flame, rec.flame_summary());
    }
}
