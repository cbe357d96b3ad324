//! Seeded resilience campaign: writes `BENCH_resilience.json` at the
//! repository root with detection/recovery coverage, completion rate and
//! MTTR (mean time to repair) for the recovery ladder, over a
//! fault-rate × policy grid plus a per-class single-fault table and a FaRM
//! no-recovery baseline.
//!
//! Everything in the JSON derives from the *simulated* system — fault
//! plans are expanded from seeds, times are simulated times — so the same
//! invocation always produces a byte-identical report (the `--smoke` flag
//! shrinks the grid, not the determinism); the harness runs the whole
//! campaign twice and asserts it.
//!
//! Run with `cargo run --release -p uparc-bench --bin bench_resilience`;
//! pass `--smoke` for the seconds-scale CI variant, and `--trace <path>`
//! to additionally rerun the hardest campaign cell observed and write its
//! Chrome-trace JSON (recovery rungs show as instants on the lane
//! timeline). The binary *fails* (non-zero exit) if the full policy
//! leaves any recoverable-by-design fault unrecovered — that is the CI
//! gate.

use uparc_bench::harness::{render_twice, Harness};
use uparc_bench::report::{Obj, Value};
use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_controllers::farm::Farm;
use uparc_controllers::ReconfigController;
use uparc_core::recovery::RecoveryPolicy;
use uparc_core::uparc::{Mode, UParc};
use uparc_core::UparcError;
use uparc_fpga::Device;
use uparc_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultRates, FaultSpace};
use uparc_sim::obs::Obs;
use uparc_sim::rng::{splitmix64, substream};
use uparc_sim::sweep;
use uparc_sim::time::{Frequency, SimTime};

/// The protected partition every scenario reconfigures.
const FAR: u32 = 300;
const FRAMES: u32 = 40;

/// Root seed of the bench; every cell seed is a splitmix64 sub-stream of
/// it (one lane per table) rather than a flat counter, so neighbouring
/// grid cells share no low-bit structure with each other or with the
/// fault plans they expand.
const BENCH_SEED: u64 = 0x0BE5_11E4_CE5E_ED01;
const LANE_SINGLE: u64 = 1;
const LANE_CAMPAIGN: u64 = 2;
const LANE_FARM: u64 = 3;

/// Seed of single-fault cell `(class, policy, s)`.
fn single_seed(class_idx: usize, policy_idx: usize, s: u64) -> u64 {
    substream(
        BENCH_SEED,
        LANE_SINGLE,
        (class_idx as u64 * 16 + policy_idx as u64) * 16 + s,
    )
}

/// Seed of campaign cell `(rate, policy, s)`.
fn campaign_seed(rate_idx: usize, policy_idx: usize, s: u64) -> u64 {
    substream(
        BENCH_SEED,
        LANE_CAMPAIGN,
        (rate_idx as u64 * 16 + policy_idx as u64) * 16 + s,
    )
}

/// Fault rates of the campaign grid.
const RATES: [u32; 3] = [0, 1, 3];

/// The three policies of the campaign. The healing policies get extra
/// attempt headroom over the library defaults: at fault rate 3 a single
/// round can see several stall aborts plus a CRC failure back to back.
fn policies() -> Vec<(&'static str, RecoveryPolicy)> {
    vec![
        ("none", RecoveryPolicy::none()),
        (
            "retry",
            RecoveryPolicy {
                max_attempts: 10,
                ..RecoveryPolicy::retry_only()
            },
        ),
        (
            "full",
            RecoveryPolicy {
                max_attempts: 10,
                ..RecoveryPolicy::default()
            },
        ),
    ]
}

/// Fault classes of the single-fault table. Every class except `none` is
/// recoverable by design under the full policy.
const CLASSES: &[&str] = &[
    "none",
    "config_seu",
    "parity_seu",
    "staged_flip_raw",
    "staged_flip_compressed",
    "crc_transient_overclock",
    "transfer_stall",
    "retune_lock",
];

fn system(device: &Device, mhz: f64) -> UParc {
    let mut sys = UParc::builder(device.clone()).build().expect("build");
    sys.set_reconfiguration_frequency(Frequency::from_mhz(mhz))
        .expect("retune");
    // Let the DCM lock so clean runs carry no relock wait.
    sys.advance_idle(SimTime::from_ms(1));
    sys
}

fn bitstream(device: &Device, seed: u64) -> PartialBitstream {
    let payload = SynthProfile::dense().generate(device, FAR, FRAMES, seed);
    PartialBitstream::build(device, FAR, &payload)
}

struct SingleRow {
    class: &'static str,
    policy: &'static str,
    seed: u64,
    ok: bool,
    error: &'static str,
    attempts: u32,
    actions: Vec<&'static str>,
    extra_time_us: f64,
    extra_energy_uj: f64,
    applied: usize,
    detected: usize,
    recovered: usize,
}

/// Runs one (class, policy, seed) scenario with exactly one injected
/// fault (or none, for the `none` class).
fn single_fault_cell(
    class: &'static str,
    policy_name: &'static str,
    policy: &RecoveryPolicy,
    seed: u64,
) -> SingleRow {
    let device = Device::xc5vsx50t();
    let bs = bitstream(&device, seed);
    let compressed = class == "staged_flip_compressed";
    let mode = if compressed {
        Mode::Compressed
    } else {
        Mode::Raw
    };
    // The compressed datapath caps CLK_2 at 255 MHz; CRC transients need
    // the overclocked regime, everything else runs at the headline clock.
    let mhz = if compressed { 200.0 } else { 362.5 };
    let r = splitmix64(seed ^ 0x05EE_D0FF_A017);

    // SEUs must strike *after* the partition is written to be observable;
    // a dry no-fault run pins the (deterministic) end-of-transfer instant.
    let strike_at = if matches!(class, "config_seu" | "parity_seu") {
        let mut dry = system(&device, mhz);
        let rec = RecoveryPolicy::none()
            .reconfigure(&mut dry, &bs, mode)
            .expect("dry run is fault-free");
        rec.report.started_at + rec.report.control_overhead + rec.report.transfer_time
    } else {
        SimTime::ZERO
    };

    let mut sys = system(&device, if class == "retune_lock" { 300.0 } else { mhz });
    let now = sys.now();
    let mut inj = FaultInjector::empty();
    match class {
        "none" => {}
        "config_seu" => inj.schedule(
            strike_at,
            FaultKind::ConfigSeu {
                frame: FAR + (r as u32) % FRAMES,
                word: ((r >> 32) as u32) % 41,
                bit: ((r >> 58) & 31) as u8,
            },
        ),
        "parity_seu" => inj.schedule(
            strike_at,
            FaultKind::ParitySeu {
                frame: FAR + (r as u32) % FRAMES,
                bit: ((r >> 58) & 31) as u8,
            },
        ),
        "staged_flip_raw" | "staged_flip_compressed" => inj.schedule(
            now,
            FaultKind::StagedFlip {
                word: r as u32,
                bit: ((r >> 58) & 31) as u8,
            },
        ),
        "crc_transient_overclock" => inj.schedule(now, FaultKind::CrcTransient),
        "transfer_stall" => inj.schedule(
            now,
            FaultKind::TransferStall {
                cycles: 450_000, // ~1.24 ms at 362.5 MHz: past the 1 ms watchdog
            },
        ),
        "retune_lock" => inj.schedule(now, FaultKind::RetuneLockFailure),
        _ => unreachable!("unknown class"),
    }
    sys.attach_fault_injector(inj);
    if class == "retune_lock" {
        // The armed failure fires on this factor-changing retune: the DRP
        // writes land but LOCKED never asserts.
        sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
            .expect("retune request is legal");
    }

    let outcome = policy.reconfigure(&mut sys, &bs, mode);
    let (applied, detected, recovered) =
        tally(&sys.detach_fault_injector().expect("attached above"));
    let mut row = SingleRow {
        class,
        policy: policy_name,
        seed,
        ok: outcome.is_ok(),
        error: "",
        attempts: 0,
        actions: Vec::new(),
        extra_time_us: 0.0,
        extra_energy_uj: 0.0,
        applied,
        detected,
        recovered,
    };
    match outcome {
        Ok(rec) => {
            row.attempts = rec.attempts;
            row.actions = rec.actions.iter().map(|a| a.label()).collect();
            row.extra_time_us = rec.extra_time.as_secs_f64() * 1e6;
            row.extra_energy_uj = rec.extra_energy_uj;
        }
        Err(e) => row.error = error_label(&e),
    }
    row
}

/// `(applied, detected, recovered)` fault counts of an injector's log.
fn tally(injector: &FaultInjector) -> (usize, usize, usize) {
    let log = injector.log();
    (
        log.len(),
        log.iter().filter(|f| f.detected).count(),
        log.iter().filter(|f| f.recovered).count(),
    )
}

/// Stable short name for a propagated error (JSON field).
fn error_label(e: &UparcError) -> &'static str {
    match e {
        UparcError::WatchdogTimeout { .. } => "watchdog_timeout",
        UparcError::Fpga(_) => "fpga",
        UparcError::Bitstream(_) => "bitstream",
        UparcError::Compression(_) => "compression",
        UparcError::Frequency { .. } => "frequency",
        _ => "other",
    }
}

struct CampaignRow {
    rate: u32,
    policy: &'static str,
    seed: u64,
    rounds: u32,
    rounds_ok: u32,
    healed_rounds: u32,
    attempts: u32,
    applied: usize,
    detected: usize,
    recovered: usize,
    pending_left: usize,
    mttr_us: f64,
    extra_energy_uj: f64,
}

/// Runs one seeded campaign cell: a generated fault plan against a short
/// schedule of reconfigurations (raw overclocked, compressed, raw again).
/// `obs` is a null handle on the grid; the `--trace` run passes a
/// recording one.
fn campaign_cell(
    rate: u32,
    policy_name: &'static str,
    policy: &RecoveryPolicy,
    seed: u64,
    obs: &Obs,
) -> CampaignRow {
    let device = Device::xc5vsx50t();
    let mut sys = system(&device, 362.5);
    sys.set_observer(obs.clone());
    let space = FaultSpace {
        frame_base: FAR,
        frames: FRAMES,
        frame_words: 41,
        staged_words: FRAMES * 41 + 20,
    };
    let rates = FaultRates {
        config_seu: rate,
        parity_seu: rate,
        staged_flip: rate,
        transfer_stall: rate,
        crc_transient: rate,
        retune_lock_failure: rate,
    };
    let plan = FaultPlan::generate(seed, &space, &rates, SimTime::from_ms(3));
    sys.attach_fault_injector(FaultInjector::new(&plan));

    let rounds: [(f64, Mode); 3] = [
        (362.5, Mode::Raw),
        (200.0, Mode::Compressed),
        (362.5, Mode::Raw),
    ];
    let mut rounds_ok = 0u32;
    let mut healed_rounds = 0u32;
    let mut attempts = 0u32;
    let mut mttr_sum = 0.0f64;
    let mut extra_energy = 0.0f64;
    for (i, &(mhz, mode)) in rounds.iter().enumerate() {
        let bs = bitstream(&device, seed.wrapping_add(i as u64));
        // A retune per round exercises armed lock failures; errors here are
        // fault-induced (arming consumed the fault) and end the round.
        if sys
            .set_reconfiguration_frequency(Frequency::from_mhz(mhz))
            .is_err()
        {
            continue;
        }
        match policy.reconfigure(&mut sys, &bs, mode) {
            Ok(rec) => {
                rounds_ok += 1;
                attempts += rec.attempts;
                extra_energy += rec.extra_energy_uj;
                if rec.healed() {
                    healed_rounds += 1;
                    mttr_sum += rec.extra_time.as_secs_f64() * 1e6;
                }
            }
            Err(_) => {
                attempts += policy.max_attempts;
            }
        }
        sys.advance_idle(SimTime::from_us(500));
    }
    let inj = sys.detach_fault_injector().expect("attached above");
    let (applied, detected, recovered) = tally(&inj);
    CampaignRow {
        rate,
        policy: policy_name,
        seed,
        rounds: rounds.len() as u32,
        rounds_ok,
        healed_rounds,
        attempts,
        applied,
        detected,
        recovered,
        pending_left: inj.remaining(),
        mttr_us: if healed_rounds > 0 {
            mttr_sum / f64::from(healed_rounds)
        } else {
            0.0
        },
        extra_energy_uj: extra_energy,
    }
}

struct FarmRow {
    class: &'static str,
    ok: bool,
    applied: usize,
    recovered: usize,
}

/// The no-recovery baseline: the same single faults against FaRM.
fn farm_cell(class: &'static str, seed: u64) -> FarmRow {
    let device = Device::xc5vsx50t();
    let bs = bitstream(&device, seed);
    let mut ctrl = Farm::new(device);
    let mut inj = FaultInjector::empty();
    match class {
        "staged_flip_raw" => inj.schedule(
            SimTime::ZERO,
            FaultKind::StagedFlip {
                word: seed as u32,
                bit: (seed % 32) as u8,
            },
        ),
        "crc_transient" => inj.schedule(SimTime::ZERO, FaultKind::CrcTransient),
        _ => unreachable!("unknown farm class"),
    }
    ctrl.attach_fault_injector(inj);
    let ok = ctrl.reconfigure(&bs).is_ok();
    let (applied, _, recovered) = tally(&ctrl.detach_fault_injector().expect("attached above"));
    FarmRow {
        class,
        ok,
        applied,
        recovered,
    }
}

/// Campaign totals of one (rate, policy) group of seeds.
struct Aggregate {
    rounds: u32,
    rounds_ok: u32,
    applied: usize,
    detected: usize,
    recovered: usize,
    mttr_us: f64,
}

fn aggregate(rows: &[CampaignRow], rate: u32, policy: &str) -> Aggregate {
    let rows: Vec<&CampaignRow> = rows
        .iter()
        .filter(|r| r.rate == rate && r.policy == policy)
        .collect();
    let healed: u32 = rows.iter().map(|r| r.healed_rounds).sum();
    Aggregate {
        rounds: rows.iter().map(|r| r.rounds).sum(),
        rounds_ok: rows.iter().map(|r| r.rounds_ok).sum(),
        applied: rows.iter().map(|r| r.applied).sum(),
        detected: rows.iter().map(|r| r.detected).sum(),
        recovered: rows.iter().map(|r| r.recovered).sum(),
        mttr_us: if healed > 0 {
            rows.iter()
                .map(|r| r.mttr_us * f64::from(r.healed_rounds))
                .sum::<f64>()
                / f64::from(healed)
        } else {
            0.0
        },
    }
}

/// Every table of one run: single faults, the campaign grid, FaRM.
struct Tables {
    single: Vec<SingleRow>,
    campaign: Vec<CampaignRow>,
    farm: Vec<FarmRow>,
}

/// Runs every table and renders the report. Called twice; both renders
/// must be byte-identical.
fn render_report(h: &Harness) -> (String, Tables) {
    let seeds_per_cell: u64 = if h.smoke { 2 } else { 6 };
    let policies = policies();

    // ---- Per-class single-fault table --------------------------------
    let mut single_cells: Vec<(&'static str, &'static str, RecoveryPolicy, u64)> = Vec::new();
    for (ci, &class) in CLASSES.iter().enumerate() {
        for (pi, (pname, policy)) in policies.iter().enumerate() {
            for s in 0..seeds_per_cell {
                single_cells.push((class, pname, policy.clone(), single_seed(ci, pi, s)));
            }
        }
    }
    let single = sweep::parallel_map(&single_cells, |(class, pname, policy, seed)| {
        single_fault_cell(class, pname, policy, *seed)
    });

    // ---- Fault-rate × policy campaign grid ---------------------------
    let mut campaign_cells: Vec<(u32, &'static str, RecoveryPolicy, u64)> = Vec::new();
    for (ri, &rate) in RATES.iter().enumerate() {
        for (pi, (pname, policy)) in policies.iter().enumerate() {
            for s in 0..seeds_per_cell {
                campaign_cells.push((rate, pname, policy.clone(), campaign_seed(ri, pi, s)));
            }
        }
    }
    let campaign = sweep::parallel_map(&campaign_cells, |(rate, pname, policy, seed)| {
        campaign_cell(*rate, pname, policy, *seed, &Obs::null())
    });

    // ---- FaRM baseline ------------------------------------------------
    let farm: Vec<FarmRow> = ["staged_flip_raw", "crc_transient"]
        .iter()
        .enumerate()
        .map(|(i, &c)| farm_cell(c, substream(BENCH_SEED, LANE_FARM, i as u64)))
        .collect();

    let mut aggregates: Vec<Value> = Vec::new();
    for rate in RATES {
        for (pname, _) in &policies {
            let a = aggregate(&campaign, rate, pname);
            aggregates.push(
                Obj::new()
                    .field("rate", rate)
                    .field("policy", *pname)
                    .field(
                        "completion_rate",
                        Value::fixed(f64::from(a.rounds_ok) / f64::from(a.rounds.max(1)), 4),
                    )
                    .field(
                        "detection_coverage",
                        Value::fixed(a.detected as f64 / (a.applied.max(1)) as f64, 4),
                    )
                    .field(
                        "recovery_coverage",
                        Value::fixed(a.recovered as f64 / (a.detected.max(1)) as f64, 4),
                    )
                    .field("mttr_us", Value::fixed(a.mttr_us, 3))
                    .into(),
            );
        }
    }

    let report = h
        .report()
        .field("seeds_per_cell", seeds_per_cell)
        .field(
            "partition",
            Obj::new().field("far", FAR).field("frames", FRAMES),
        )
        .field(
            "single_fault",
            single
                .iter()
                .map(|r| {
                    Obj::new()
                        .field("class", r.class)
                        .field("policy", r.policy)
                        .field("seed", r.seed)
                        .field("ok", r.ok)
                        .field("error", r.error)
                        .field("attempts", r.attempts)
                        .field(
                            "actions",
                            r.actions.iter().map(|&a| a.into()).collect::<Vec<Value>>(),
                        )
                        .field("extra_time_us", Value::fixed(r.extra_time_us, 3))
                        .field("extra_energy_uj", Value::fixed(r.extra_energy_uj, 3))
                        .field("faults_applied", r.applied)
                        .field("detected", r.detected)
                        .field("recovered", r.recovered)
                        .into()
                })
                .collect::<Vec<Value>>(),
        )
        .field(
            "campaign",
            campaign
                .iter()
                .map(|r| {
                    Obj::new()
                        .field("rate", r.rate)
                        .field("policy", r.policy)
                        .field("seed", r.seed)
                        .field("rounds", r.rounds)
                        .field("rounds_ok", r.rounds_ok)
                        .field("healed_rounds", r.healed_rounds)
                        .field("attempts", r.attempts)
                        .field("faults_applied", r.applied)
                        .field("detected", r.detected)
                        .field("recovered", r.recovered)
                        .field("pending_left", r.pending_left)
                        .field("mttr_us", Value::fixed(r.mttr_us, 3))
                        .field("extra_energy_uj", Value::fixed(r.extra_energy_uj, 3))
                        .into()
                })
                .collect::<Vec<Value>>(),
        )
        .field("aggregates", aggregates)
        .field(
            "farm_baseline",
            farm.iter()
                .map(|r| {
                    Obj::new()
                        .field("class", r.class)
                        .field("ok", r.ok)
                        .field("faults_applied", r.applied)
                        .field("recovered", r.recovered)
                        .into()
                })
                .collect::<Vec<Value>>(),
        );
    (
        report.render(),
        Tables {
            single,
            campaign,
            farm,
        },
    )
}

fn main() {
    let h = Harness::new("resilience", 2);
    let (rendered, t) = render_twice(|| render_report(&h));

    // ---- Acceptance gates (always on, smoke included) ----------------
    // 1. The full policy recovers every recoverable-by-design single
    //    fault, with nonzero-but-bounded overhead.
    for row in t.single.iter().filter(|r| r.policy == "full") {
        assert!(
            row.ok,
            "full policy failed recoverable class {} (seed {}): {}",
            row.class, row.seed, row.error
        );
        if row.class == "none" {
            assert_eq!(row.attempts, 1, "clean run retried");
        } else {
            assert!(
                !row.actions.is_empty(),
                "class {} healed with no recorded action",
                row.class
            );
            assert!(
                row.extra_time_us > 0.0 && row.extra_time_us < 50_000.0,
                "class {} recovery overhead {} us out of bounds",
                row.class,
                row.extra_time_us
            );
            assert!(
                row.recovered > 0,
                "class {} fault not marked recovered",
                row.class
            );
        }
    }
    // 2. The baseline policy does nothing: a clean run has zero overhead.
    for row in t
        .single
        .iter()
        .filter(|r| r.policy == "none" && r.class == "none")
    {
        assert!(row.ok && row.extra_time_us == 0.0 && row.extra_energy_uj < 1e-9);
    }
    // 3. Full-policy campaigns complete every round — no
    //    unrecovered-but-recoverable fault at any rate (the CI gate).
    for row in t.campaign.iter().filter(|r| r.policy == "full") {
        assert_eq!(
            row.rounds_ok, row.rounds,
            "full policy left rounds unrecovered at rate {} seed {}",
            row.rate, row.seed
        );
    }
    // 4. FaRM has no recovery: injected faults fail the call.
    for row in &t.farm {
        assert!(!row.ok, "farm baseline unexpectedly absorbed {}", row.class);
        assert_eq!(row.recovered, 0);
    }

    // ---- Console summary ---------------------------------------------
    let policies = policies();
    for (pname, _) in &policies {
        let rows: Vec<&SingleRow> = t
            .single
            .iter()
            .filter(|r| r.policy == *pname && r.class != "none")
            .collect();
        let ok = rows.iter().filter(|r| r.ok).count();
        println!("single-fault [{pname:>5}]: {ok}/{} recovered", rows.len());
    }
    for rate in RATES {
        for (pname, _) in &policies {
            let a = aggregate(&t.campaign, rate, pname);
            println!(
                "campaign rate {rate} [{pname:>5}]: {}/{} rounds ok, {}/{} faults detected",
                a.rounds_ok, a.rounds, a.detected, a.applied
            );
        }
    }

    // The hardest campaign cell — rate 3 (index 2), full policy (index
    // 2), first seed — observed, so the trace matches a grid row.
    h.trace("rate-3 full-policy campaign", &[], |obs| {
        let policy = RecoveryPolicy {
            max_attempts: 10,
            ..RecoveryPolicy::default()
        };
        let row = campaign_cell(3, "full", &policy, campaign_seed(2, 2, 0), obs);
        assert_eq!(row.rounds_ok, row.rounds, "traced cell left rounds broken");
        0
    });

    h.write(&rendered, &[]);
}
