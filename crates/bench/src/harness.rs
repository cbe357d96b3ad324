//! The shared driver of the `bench_*` regression binaries.
//!
//! Every harness wraps its scenario in the same bookkeeping: parse
//! `--smoke` (the seconds-scale CI variant) and `--trace <path>` (a
//! Chrome-trace dump), open its report with the `schema`/`version`/`smoke`
//! header, prove the report is a pure function of the seed by rendering it
//! twice, record and validate a trace on request, and write
//! `BENCH_<name>.json` at the repository root. [`Harness`] owns all of it,
//! so a binary keeps only its scenario and its gates:
//!
//! ```no_run
//! use uparc_bench::harness::{render_twice, Harness};
//!
//! let h = Harness::new("example", 1);
//! let (rendered, total) = render_twice(|| {
//!     let total = if h.smoke { 10u64 } else { 1_000 };
//!     (h.report().field("total", total).render(), total)
//! });
//! assert!(total > 0, "gate");
//! h.trace("observed run", &[], |_obs| 0);
//! h.write(&rendered, &["\"total\""]);
//! ```

use std::path::Path;
use std::sync::Arc;

use uparc_sim::obs::{json, Obs, TraceRecorder};

use crate::report::JsonReport;

/// One `bench_*` binary: its report identity and the parsed common flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Harness {
    name: &'static str,
    version: u32,
    /// `--smoke`: run the small CI variant instead of the full benchmark.
    pub smoke: bool,
    /// `--trace <path>`: where to write the Chrome-trace export, if asked.
    trace_path: Option<String>,
}

impl Harness {
    /// The harness for report `BENCH_<name>.json` (schema
    /// `uparc-bench-<name>`, `version`), configured from the process's
    /// command line.
    #[must_use]
    pub fn new(name: &'static str, version: u32) -> Harness {
        Harness::from_args(name, version, std::env::args().skip(1))
    }

    /// As [`Harness::new`], from an explicit argument stream. Unknown
    /// arguments are ignored; a trailing `--trace` with no path asks for
    /// no trace.
    pub fn from_args<I, S>(name: &'static str, version: u32, args: I) -> Harness
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut harness = Harness {
            name,
            version,
            smoke: false,
            trace_path: None,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_ref() {
                "--smoke" => harness.smoke = true,
                "--trace" => harness.trace_path = args.next().map(|s| s.as_ref().to_owned()),
                _ => {}
            }
        }
        harness
    }

    /// A report opened with the header every `BENCH_*.json` starts with:
    /// `schema`, `version`, then `smoke`.
    #[must_use]
    pub fn report(&self) -> JsonReport {
        JsonReport::new(&format!("uparc-bench-{}", self.name), self.version)
            .field("smoke", self.smoke)
    }

    /// With `--trace <path>`, runs `scenario` against a recording
    /// observer and keeps its Chrome-trace export. The export is parsed
    /// back with the in-repo JSON parser and must hold more events than
    /// the count `scenario` returns, including one named each of `names`;
    /// only then is it written to `path`, and its flame summary printed
    /// under `title`. Without `--trace` the scenario does not run.
    ///
    /// # Panics
    ///
    /// Panics if the export fails any of those checks or cannot be
    /// written.
    pub fn trace(&self, title: &str, names: &[&str], scenario: impl FnOnce(&Obs) -> usize) {
        let Some(path) = &self.trace_path else { return };
        let recorder = Arc::new(TraceRecorder::new());
        let obs = Obs::recording(Arc::clone(&recorder));
        let floor = scenario(&obs);
        let trace = recorder.chrome_trace(Some(obs.metrics()));
        let events = check_trace(&trace, floor, names);
        std::fs::write(path, &trace).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "trace written: {path} ({events} events, {} bytes)",
            trace.len()
        );
        println!("--- flame summary ({title}) ---");
        print!("{}", recorder.flame_summary());
    }

    /// Writes `rendered` to `BENCH_<name>.json` at the repository root
    /// and reads it back.
    ///
    /// # Panics
    ///
    /// Panics, before anything is written, unless `rendered` opens with
    /// this harness's [`Harness::report`] header and contains every
    /// fragment of `required` (the fields CI and readers key on); also
    /// panics if the file cannot be written or reads back different.
    pub fn write(&self, rendered: &str, required: &[&str]) {
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.name
        );
        self.write_to(Path::new(&path), rendered, required);
        println!("report written: {path}");
    }

    fn write_to(&self, path: &Path, rendered: &str, required: &[&str]) {
        let header = self.report().render();
        assert!(
            rendered.starts_with(header.trim_end_matches("\n}\n")),
            "BENCH_{}.json does not open with its schema/version/smoke header",
            self.name
        );
        for fragment in required {
            assert!(
                rendered.contains(fragment),
                "BENCH_{}.json lost the {fragment} field",
                self.name
            );
        }
        let shown = path.display();
        std::fs::write(path, rendered).unwrap_or_else(|e| panic!("write {shown}: {e}"));
        let on_disk = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {shown}: {e}"));
        assert!(on_disk == rendered, "{shown} reads back different");
    }
}

/// Runs `render` twice and asserts both reports are byte-identical — the
/// proof that a report is a pure function of its seed. Returns the first
/// run's report and results.
///
/// # Panics
///
/// Panics if the two renders differ, naming the first differing line.
pub fn render_twice<T>(mut render: impl FnMut() -> (String, T)) -> (String, T) {
    let (first, out) = render();
    let (second, _) = render();
    let same = first
        .lines()
        .zip(second.lines())
        .take_while(|(a, b)| a == b);
    assert!(
        first == second,
        "same-seed rerun changed the report (first difference on line {})",
        same.count() + 1
    );
    (first, out)
}

/// Parses a Chrome-trace export and checks it holds more than `floor`
/// events, including one named each of `names`. Returns the event count.
fn check_trace(trace: &str, floor: usize, names: &[&str]) -> usize {
    let parsed =
        json::parse(trace).unwrap_or_else(|e| panic!("trace export is not valid JSON: {e}"));
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("trace has a traceEvents array");
    assert!(
        events.len() > floor,
        "trace carries {} events, expected more than {floor}",
        events.len()
    );
    for name in names {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(*name)),
            "trace carries no {name} events"
        );
    }
    events.len()
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;

    use super::*;

    fn parse(args: &[&str]) -> Harness {
        Harness::from_args("test", 1, args)
    }

    fn scratch_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("uparc-harness-{}-{tag}.json", std::process::id()))
    }

    #[test]
    fn parses_smoke_and_trace() {
        let h = parse(&["--smoke", "--trace", "out.json"]);
        assert!(h.smoke);
        assert_eq!(h.trace_path.as_deref(), Some("out.json"));
    }

    #[test]
    fn defaults_and_unknown_flags() {
        let h = parse(&["--unknown", "x"]);
        assert_eq!(h, parse(&[]));
        assert!(!h.smoke);
        assert!(h.trace_path.is_none());
    }

    #[test]
    fn trace_without_value_is_none() {
        assert!(parse(&["--trace"]).trace_path.is_none());
    }

    #[test]
    fn order_does_not_matter() {
        let h = parse(&["--trace", "t.json", "--smoke"]);
        assert!(h.smoke);
        assert_eq!(h.trace_path.as_deref(), Some("t.json"));
    }

    #[test]
    fn report_header_is_schema_version_smoke() {
        let rendered = parse(&["--smoke"]).report().field("x", 1u64).render();
        assert!(rendered.starts_with(
            "{\n  \"schema\": \"uparc-bench-test\",\n  \"version\": 1,\n  \"smoke\": true,\n"
        ));
    }

    #[test]
    fn write_reads_back_the_render() {
        let h = parse(&[]);
        let path = scratch_path("ok");
        let rendered = h.report().field("gate", true).render();
        h.write_to(&path, &rendered, &["\"gate\": true"]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_renders_panic_before_writing() {
        let h = parse(&[]);
        let other = Harness {
            name: "other",
            ..parse(&[])
        };
        let path = scratch_path("bad");
        // A missing required fragment, a smoke render in a full-mode run,
        // and another harness's schema.
        for (rendered, required) in [
            (
                h.report().field("gate", false).render(),
                &["\"gate\": true"][..],
            ),
            (parse(&["--smoke"]).report().render(), &[]),
            (other.report().render(), &[]),
        ] {
            let result = catch_unwind(AssertUnwindSafe(|| h.write_to(&path, &rendered, required)));
            assert!(result.is_err(), "{rendered}");
            assert!(!path.exists(), "nothing may be written");
        }
    }

    #[test]
    fn identical_renders_pass_the_rerun_check() {
        let mut runs = 0;
        let (rendered, out) = render_twice(|| {
            runs += 1;
            ("{}\n".to_owned(), runs)
        });
        assert_eq!((rendered.as_str(), out, runs), ("{}\n", 1, 2));
    }

    #[test]
    #[should_panic(expected = "first difference on line 2")]
    fn differing_renders_fail_the_rerun_check() {
        let mut runs = 0u64;
        let _ = render_twice(|| {
            runs += 1;
            (format!("{{\n  \"run\": {runs}\n}}\n"), ())
        });
    }

    #[test]
    fn trace_check_counts_events_and_names() {
        let trace = r#"{"traceEvents":[{"name":"Vf"},{"name":"Thermal"}]}"#;
        assert_eq!(check_trace(trace, 1, &["Vf", "Thermal"]), 2);
        for (floor, names) in [(2, &[][..]), (0, &["Relocate"][..])] {
            let result = catch_unwind(|| check_trace(trace, floor, names));
            assert!(result.is_err(), "floor {floor}, names {names:?}");
        }
        assert!(catch_unwind(|| check_trace("{\"traceEvents\":", 0, &[])).is_err());
    }

    #[test]
    fn committed_reports_are_full_mode_renders() {
        // A report committed from a `--smoke` run records CI-sized
        // workloads as if they were the paper-scale results.
        for name in [
            "throughput",
            "resilience",
            "service",
            "fleet",
            "placement",
            "power",
        ] {
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let header = format!("{{\n  \"schema\": \"uparc-bench-{name}\",\n  \"version\": ");
            assert!(text.starts_with(&header), "BENCH_{name}.json header");
            assert!(
                text.contains("\n  \"smoke\": false,\n"),
                "BENCH_{name}.json was committed from a --smoke run"
            );
        }
    }
}
