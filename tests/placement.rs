//! End-to-end tests of the dynamic placement stack: admission through
//! [`DynamicCatalog`], manual compaction with the [`Defragmenter`]
//! planner, and the full churn simulation with a recording observer.

use std::sync::Arc;

use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::fpga::alloc::{FitPolicy, FragStats};
use uparc_repro::fpga::device::Geometry;
use uparc_repro::fpga::{Device, Family, Icap};
use uparc_repro::place::churn::ChurnSpec;
use uparc_repro::place::defrag::Defragmenter;
use uparc_repro::place::sim::{run_churn, ChurnOutcome, PlacementConfig};
use uparc_repro::serve::dynamic::{DynamicCatalog, PlacementError};
use uparc_repro::serve::request::BitstreamId;
use uparc_repro::sim::obs::{Obs, TraceRecorder};
use uparc_repro::sim::time::SimTime;

fn arena(frames_minor: u32) -> Device {
    let geometry = Geometry {
        rows: 1,
        majors: 1,
        minors: frames_minor,
    };
    Device::custom("xcItest", Family::Virtex5, 0x0123_4567, geometry, 100, 10)
}

fn image(device: &Device, frames: u32, seed: u64) -> PartialBitstream {
    let payload = SynthProfile::dense().generate(device, 0, frames, seed);
    PartialBitstream::build(device, 0, &payload)
}

/// Churn a catalog into a fragmented state, then drive the planner to
/// quiescence by hand and check the frame space is fully compacted and
/// every surviving image still executes on the ICAP at its new address.
#[test]
fn manual_compaction_restores_contiguity() {
    let device = arena(64);
    let mut catalog = DynamicCatalog::new(device.clone(), FitPolicy::FirstFit);
    for id in 1u32..=6 {
        catalog
            .load(BitstreamId(id), &image(&device, 8, u64::from(id)))
            .unwrap();
    }
    // Punch holes: drop every other tenant.
    for id in [1u32, 3, 5] {
        catalog.unload(BitstreamId(id)).unwrap();
    }
    assert!(
        catalog.frag_stats().free_blocks > 1,
        "churn should fragment"
    );

    let planner = Defragmenter;
    let mut moves = 0;
    while let Some(plan) = planner.plan(&catalog) {
        let (from, to) = catalog.relocate_to(plan.id, plan.to).unwrap();
        assert_eq!(from.start, plan.from.start);
        assert_eq!(to.start, plan.to);
        catalog.check_invariants().unwrap();
        moves += 1;
        assert!(moves <= 16, "compaction does not terminate");
    }

    let stats = catalog.frag_stats();
    assert_eq!(stats.free_blocks, 1, "free space not coalesced");
    assert_eq!(stats.largest_free, stats.total_free);
    // Live images are packed from frame 0 with no gaps.
    let mut expected_start = 0;
    for live in catalog.allocator().live() {
        assert_eq!(live.start, expected_start);
        expected_start = live.end;
    }
    // Every relocated image still passes ICAP CRC verification.
    for (_, placed) in catalog.iter() {
        let mut icap = Icap::new(device.clone());
        icap.write_words(placed.bitstream().words()).unwrap();
        assert_eq!(
            icap.frames_committed(),
            u64::from(placed.bitstream().frame_count())
        );
    }
}

/// Admission failures are typed: a request larger than the total free
/// space is a hard rejection, while one blocked only by fragmentation
/// reports trapped capacity (a defragmenter could have admitted it).
#[test]
fn rejections_distinguish_trapped_capacity() {
    let device = arena(32);
    let mut catalog = DynamicCatalog::new(device.clone(), FitPolicy::FirstFit);
    for id in 1u32..=4 {
        catalog
            .load(BitstreamId(id), &image(&device, 8, u64::from(id)))
            .unwrap();
    }
    catalog.unload(BitstreamId(1)).unwrap();
    catalog.unload(BitstreamId(3)).unwrap();
    // 16 free frames in two 8-frame holes: 12 is trapped, 20 is not.
    let trapped = catalog
        .load(BitstreamId(9), &image(&device, 12, 9))
        .unwrap_err();
    match &trapped {
        PlacementError::NoCapacity {
            largest_free,
            total_free,
            ..
        } => {
            assert_eq!((*largest_free, *total_free), (8, 16));
        }
        other => panic!("expected NoCapacity, got {other}"),
    }
    assert!(trapped.is_trapped_capacity());
    let hard = catalog
        .load(BitstreamId(9), &image(&device, 20, 9))
        .unwrap_err();
    assert!(!hard.is_trapped_capacity());
}

/// The full churn simulation under a recording observer: the trace
/// export carries the placement taxonomy and the run's accounting holds.
#[test]
fn churn_simulation_emits_placement_taxonomy() {
    let recorder = Arc::new(TraceRecorder::new());
    let spec = ChurnSpec {
        tenants: 120,
        frames_min: 4,
        frames_max: 10,
        ..ChurnSpec::default()
    };
    let out = run_churn(
        &spec,
        7,
        PlacementConfig {
            device: arena(48),
            defrag: true,
            verify_moves: true,
            obs: Obs::recording(Arc::clone(&recorder)),
            ..PlacementConfig::default()
        },
    );
    assert_eq!(out.placed + out.rejected, out.arrivals);
    assert_eq!(out.invariant_violations, 0);
    assert_eq!(out.verify_failures, 0);
    assert!(out.moves > 0, "no compaction under churn");

    let trace = recorder.chrome_trace(None);
    assert!(trace.contains("\"name\":\"Relocate\""));
    assert!(trace.contains("\"name\":\"Compact\""));
    assert!(trace.contains("\"cat\":\"place\""));
    uparc_repro::sim::obs::json::parse(&trace).expect("trace export parses");
}

/// One churn run with background defrag, pinned to the exact outcome the
/// event loop produces: admissions, trapped-capacity rejections,
/// departures, relocation moves and passes, ICAP time, makespan and the
/// final fragmentation. A rerun of the same code cannot catch a changed
/// event order; these constants can.
#[test]
fn defrag_churn_run_is_pinned() {
    let spec = ChurnSpec {
        tenants: 150,
        mean_gap: SimTime::from_us(400),
        mean_hold: SimTime::from_ms(8),
        frames_min: 6,
        frames_max: 30,
        pinned_permille: 150,
    };
    let out = run_churn(
        &spec,
        3,
        PlacementConfig {
            device: arena(200),
            defrag: true,
            ..PlacementConfig::default()
        },
    );
    let mut histogram = [0u32; 32];
    histogram[6] = 1;
    assert_eq!(
        out,
        ChurnOutcome {
            arrivals: 150,
            placed: 63,
            rejected: 87,
            rejected_trapped: 1,
            departed: 53,
            moves: 281,
            moved_frames: 3935,
            compact_passes: 50,
            verified_moves: 0,
            verify_failures: 0,
            invariant_violations: 0,
            live_at_end: 10,
            live_frames: 123,
            final_frag: FragStats {
                total_free: 77,
                largest_free: 77,
                free_blocks: 1,
                histogram,
            },
            icap_busy: SimTime::from_fs(3_725_930_000_000),
            icap_defrag: SimTime::from_fs(3_333_480_000_000),
            makespan: SimTime::from_fs(67_050_512_153_123),
        }
    );
}
