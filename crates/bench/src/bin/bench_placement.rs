//! Machine-readable placement benchmark: writes `BENCH_placement.json`
//! with admission, fragmentation and defragmentation figures for the
//! `uparc-place` churn simulation across a churn-density × fit-policy ×
//! {defrag on/off} grid.
//!
//! Everything reported here is *simulated* and fully deterministic in
//! the seed; the harness verifies this by rendering the whole report
//! twice and asserting byte-identical JSON.
//!
//! Run with `cargo run --release --bin bench_placement`; pass `--smoke`
//! for a seconds-scale CI variant (shorter churn, same assertions).
//! Pass `--trace <path>` to additionally rerun one defrag-on cell with a
//! recording observer and write its Chrome-trace JSON (`Relocate` spans,
//! `Compact`/`AllocFail` instants); the export is parsed back with the
//! in-repo JSON parser before the file is accepted.
//!
//! Acceptance gates (asserted in every mode):
//! * every relocation move produces an image byte-identical to a fresh
//!   build at the destination address (`verified_moves == moves`, zero
//!   mismatches);
//! * zero placement overlaps / allocator invariant violations anywhere
//!   in the grid;
//! * at end of churn, defrag-on leaves a largest free block at least
//!   25% larger than defrag-off on every (churn, policy) pair;
//! * the report is byte-identical across two same-seed runs.

use uparc_bench::harness::{render_twice, Harness};
use uparc_bench::report::{Obj, Value};
use uparc_fpga::alloc::FitPolicy;
use uparc_fpga::device::Geometry;
use uparc_fpga::{Device, Family};
use uparc_place::churn::ChurnSpec;
use uparc_place::sim::{run_churn, ChurnOutcome, PlacementConfig};
use uparc_sim::obs::Obs;
use uparc_sim::time::SimTime;

/// Workload seed; the determinism gate reruns the grid with the same one.
const SEED: u64 = 20120312;

/// Required defrag uplift on the end-of-churn largest free block.
const UPLIFT_GATE: f64 = 1.25;

/// A mid-size placement arena: 2×25×44 = 2200 frames. Small enough that
/// hours of churn actually contend for frame space (the full XC5VSX50T
/// would swallow the whole trace without fragmenting).
fn arena_device() -> Device {
    let geometry = Geometry {
        rows: 2,
        majors: 25,
        minors: 44,
    };
    Device::custom(
        "xcArena2200",
        Family::Virtex5,
        0x0AD1_4093,
        geometry,
        8160,
        132,
    )
}

/// The two churn densities of the grid. Gaps are tens of seconds and
/// residencies tens of minutes: the full trace spans hours of simulated
/// time, the smoke trace about an hour.
fn churns(smoke: bool) -> Vec<(&'static str, ChurnSpec)> {
    let tenants = if smoke { 150 } else { 600 };
    let base = ChurnSpec {
        tenants,
        mean_gap: SimTime::from_secs(20),
        frames_min: 4,
        frames_max: 24,
        pinned_permille: 200,
        mean_hold: SimTime::from_secs(900),
    };
    vec![
        ("steady", base.clone()),
        (
            "dense",
            ChurnSpec {
                mean_hold: SimTime::from_secs(1800),
                frames_max: 32,
                ..base
            },
        ),
    ]
}

fn run_cell(spec: &ChurnSpec, policy: FitPolicy, defrag: bool, obs: &Obs) -> ChurnOutcome {
    run_churn(
        spec,
        SEED,
        PlacementConfig {
            device: arena_device(),
            policy,
            defrag,
            verify_moves: true,
            obs: obs.clone(),
            ..PlacementConfig::default()
        },
    )
}

struct Cell {
    churn: &'static str,
    policy: FitPolicy,
    defrag: bool,
    out: ChurnOutcome,
}

fn cell_row(c: &Cell) -> Value {
    let o = &c.out;
    Obj::new()
        .field("churn", c.churn)
        .field("policy", c.policy.label())
        .field("defrag", c.defrag)
        .field("arrivals", o.arrivals)
        .field("placed", o.placed)
        .field("rejected", o.rejected)
        .field("rejected_trapped", o.rejected_trapped)
        .field("departed", o.departed)
        .field("moves", o.moves)
        .field("moved_frames", o.moved_frames)
        .field("compact_passes", o.compact_passes)
        .field("verified_moves", o.verified_moves)
        .field("relocation_identical", o.verify_failures == 0)
        .field("overlaps", o.invariant_violations)
        .field("live_at_end", o.live_at_end)
        .field("live_frames", o.live_frames)
        .field("largest_free", o.final_frag.largest_free)
        .field("total_free", o.final_frag.total_free)
        .field("free_blocks", o.final_frag.free_blocks)
        .field("contiguity", Value::fixed(o.final_frag.contiguity(), 4))
        .field("icap_busy_ms", Value::fixed(o.icap_busy.as_ms_f64(), 3))
        .field("icap_defrag_ms", Value::fixed(o.icap_defrag.as_ms_f64(), 3))
        .field("makespan_s", Value::fixed(o.makespan.as_secs_f64(), 1))
        .into()
}

/// Runs the full grid and renders the report. Called twice; both renders
/// must be byte-identical.
fn render_report(h: &Harness) -> (String, Vec<Cell>) {
    let smoke = h.smoke;
    let mut cells = Vec::new();
    for (churn, spec) in churns(smoke) {
        for policy in [FitPolicy::FirstFit, FitPolicy::BestFit] {
            for defrag in [false, true] {
                cells.push(Cell {
                    churn,
                    policy,
                    defrag,
                    out: run_cell(&spec, policy, defrag, &Obs::null()),
                });
            }
        }
    }

    // Defrag uplift per (churn, policy) pair — the cells above come in
    // (defrag off, defrag on) pairs: how much more largest-free capacity
    // the defragmenter leaves at end of churn. Gated on both renders.
    let uplift_rows: Vec<Value> = cells
        .chunks(2)
        .map(|pair| {
            let (churn, policy) = (pair[0].churn, pair[0].policy.label());
            let off = pair[0].out.final_frag.largest_free;
            let on = pair[1].out.final_frag.largest_free;
            assert!(
                f64::from(on) >= UPLIFT_GATE * f64::from(off),
                "{churn}/{policy}: defrag-on largest free {on} < {UPLIFT_GATE}x defrag-off {off}"
            );
            Obj::new()
                .field("churn", churn)
                .field("policy", policy)
                .field("largest_free_off", off)
                .field("largest_free_on", on)
                .field(
                    "uplift",
                    Value::fixed(f64::from(on) / f64::from(off.max(1)), 3),
                )
                .into()
        })
        .collect();

    let device = arena_device();
    let specs = churns(smoke);
    let report = h
        .report()
        .field(
            "arena",
            Obj::new()
                .field("device", device.name())
                .field("frames", device.frames()),
        )
        .field(
            "workload",
            Obj::new()
                .field("seed", SEED)
                .field("tenants", specs[0].1.tenants)
                .field(
                    "mean_gap_s",
                    Value::fixed(specs[0].1.mean_gap.as_secs_f64(), 1),
                )
                .field("frames_min", specs[0].1.frames_min)
                .field("pinned_permille", specs[0].1.pinned_permille),
        )
        .field("grid", cells.iter().map(cell_row).collect::<Vec<Value>>())
        .field("defrag_uplift", uplift_rows);
    (report.render(), cells)
}

fn main() {
    let h = Harness::new("placement", 1);

    let (rendered, cells) = render_twice(|| render_report(&h));
    for c in &cells {
        let o = &c.out;
        println!(
            "{:<6} {:<9} defrag {:<5}: {:>3} placed, {:>3} shed, {:>4} moves, largest free {:>4}/{:<4}, {} passes",
            c.churn,
            c.policy.label(),
            c.defrag,
            o.placed,
            o.rejected,
            o.moves,
            o.final_frag.largest_free,
            o.final_frag.total_free,
            o.compact_passes,
        );
    }

    // ---- acceptance gates --------------------------------------------
    for c in &cells {
        let o = &c.out;
        let tag = format!("{}/{}/defrag={}", c.churn, c.policy.label(), c.defrag);
        assert_eq!(
            o.placed + o.rejected,
            o.arrivals,
            "{tag}: arrivals unaccounted"
        );
        assert_eq!(
            o.invariant_violations, 0,
            "{tag}: placement overlap detected"
        );
        assert_eq!(
            o.verify_failures, 0,
            "{tag}: relocated image not byte-identical"
        );
        if c.defrag {
            assert!(o.moves > 0, "{tag}: churn never triggered compaction");
            assert_eq!(o.verified_moves, o.moves, "{tag}: unverified moves");
            assert!(o.compact_passes > 0, "{tag}: no completed compaction pass");
        } else {
            assert_eq!(o.moves, 0, "{tag}: moves without a defragmenter");
            assert_eq!(o.icap_defrag, SimTime::ZERO, "{tag}: defrag time leaked");
        }
    }

    // The dense first-fit defrag-on cell again, observed: the trace must
    // carry Relocate spans and more events than the cell made moves.
    h.trace("observed defrag-on cell", &["Relocate"], |obs| {
        let (_, spec) = churns(h.smoke).remove(1);
        run_cell(&spec, FitPolicy::FirstFit, true, obs).moves as usize
    });

    h.write(
        &rendered,
        &[
            "\"relocation_identical\": true",
            "\"overlaps\": 0",
            "\"defrag_uplift\"",
            "\"rejected_trapped\"",
            "\"contiguity\"",
        ],
    );
}
