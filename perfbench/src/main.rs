//! One workload of the UPaRC simulator benchmark per process.
//!
//! ```text
//! uparc-perfbench --workload <fleet-random|fleet-locality|fleet-chaos|service>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The process sets the workload up several times (`setup_s` is the
//! median), runs the work once untimed for its reference, warms up for a
//! second, then repeats fixed-size work for `--seconds`: the fleets report
//! the median batch, the service each timed trace's fastest run. Every
//! batch or run must reproduce its reference bit for bit.
//! With `--trace 1` it reports per-layer metrics instead of end-to-end
//! ones.
//! The last line of standard output is the result object; `run.py` builds
//! this program and is the usual way to run it.

mod fleet;
mod probes;
mod replica;
mod report;
mod service;

use uparc_sim::sweep;

/// The repository's default workload seed.
const DEFAULT_SEED: u64 = 20120312;

/// Sweep workers for set-up and run, capped by the cores present: the
/// reference host has two.
const MAX_WORKERS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("uparc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One worker count for set-up and run alike: catalog registration,
    // calibration and the chip fan-out all go through the sweep pool.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = nproc.min(MAX_WORKERS);
    sweep::pin_workers(workers);
    let mut report = match args.workload.as_str() {
        "fleet-random" => fleet::run(&args, fleet::Shape::Random),
        "fleet-locality" => fleet::run(&args, fleet::Shape::Locality),
        "fleet-chaos" => fleet::run(&args, fleet::Shape::Chaos),
        "service" => service::run(&args),
        other => {
            eprintln!("uparc-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    report.detail("seed", args.seed);
    report.detail("workers", workers);
    report.detail("nproc", nproc);
    report.detail(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
