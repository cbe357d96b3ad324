//! Allocation guard for the request path: after warm-up, the calls a
//! served request makes (the DCM factor search, the (V, f) planner, a
//! retune to the clock a lane is already locked at and a retune that
//! relocks it, the compressed pipeline's timing in closed form and by the
//! edge stepper) allocate nothing, an X-MatchPRO decode, the fleet chip
//! loop's miss path, allocates only its output, the first preload and
//! reconfigure of a packed catalog entry on a fresh lane decode nothing
//! (no request is as large as the image), a preload of a packed catalog
//! entry runs no encoder: it allocates the BRAM image and, now and then,
//! the power trace's growth, and a warm packed reconfigure and a clean
//! post-success ECC verification scan allocate only that growth.
//! No codec sizes its output by a corrupt length header:
//! a decode of a 64-byte sample whose header claims 4 GiB requests no
//! block over 64 KiB.
//!
//! A counting global allocator tallies allocations, and the largest single
//! request, per thread, and this file holds a single test, so the
//! harness's own threads never reach the count. The guard counts; it does
//! not time, so host noise cannot make it flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use uparc_repro::compress::xmatchpro::XMatchPro;
use uparc_repro::compress::{Algorithm, Codec};
use uparc_repro::core::dyclogen::OutputClock;
use uparc_repro::core::pipeline::PipelineRun;
use uparc_repro::core::policy::{PlanQuery, PowerAwarePolicy, VfQuery};
use uparc_repro::core::scrub::EccScrubber;
use uparc_repro::core::uparc::UParc;
use uparc_repro::core::UparcError;
use uparc_repro::fleet::fleet::synthetic_catalog;
use uparc_repro::fpga::dcm::DcmConstraints;
use uparc_repro::fpga::{Device, Family};
use uparc_repro::serve::request::BitstreamId;
use uparc_repro::sim::time::{Frequency, SimTime};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread and keeping the largest size requested.
struct Counting;

fn count_one(bytes: usize) {
    // A const-initialised `Cell` has no destructor, so the slot is never
    // torn down; `try_with` keeps the allocator panic-free regardless.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters it bumps first
// are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The largest single block `f` requests on this thread, in bytes.
fn largest_request_in(f: impl FnOnce()) -> usize {
    LARGEST.with(|m| m.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// Asserts that `call` makes exactly `expected` allocations per call
/// once it has run once.
fn assert_allocations<T>(what: &str, expected: u64, mut call: impl FnMut() -> T) {
    black_box(call());
    for _ in 0..3 {
        let n = allocations_in(|| {
            black_box(call());
        });
        assert_eq!(n, expected, "{what}: {n} allocation(s) per call");
    }
}

/// Asserts that `call` allocates nothing once it has run once.
fn assert_no_allocations<T>(what: &str, call: impl FnMut() -> T) {
    assert_allocations(what, 0, call);
}

#[test]
fn request_path_calls_do_not_allocate() {
    // The DCM factor search DyCloGen runs on every retune.
    let fin = Frequency::from_mhz(100.0);
    for family in [Family::Virtex4, Family::Virtex5, Family::Virtex6] {
        let c = DcmConstraints::for_family(family);
        for mhz in [33.0, 126.0, 362.5, 449.0] {
            let cap = Frequency::from_mhz(mhz);
            assert!(c.best_factors_at_most(fin, cap).is_some());
            assert_no_allocations(&format!("best_factors_at_most {family:?} {cap}"), || {
                c.best_factors_at_most(black_box(fin), black_box(cap))
            });
        }
    }

    // The planner: 2-D and frequency-only queries, on the success path
    // (best effort, deadline met, energy-budget scan) and every typed
    // error the default table can reach.
    let policy = PowerAwarePolicy::paper_setup(Family::Virtex5);
    let base = PlanQuery {
        bytes: 216_500,
        power_cap_mw: Some(330.0),
        ..PlanQuery::default()
    };
    let deadline = PlanQuery {
        deadline: Some(SimTime::from_us(600)),
        ..base
    };
    let energy = PlanQuery {
        energy_budget_uj: Some(90.0),
        ..base
    };
    let ceiling = PlanQuery {
        max_frequency: Some(Frequency::from_mhz(1.0)),
        ..base
    };
    let cap = PlanQuery {
        power_cap_mw: Some(50.0),
        ..base
    };
    let starved = PlanQuery {
        energy_budget_uj: Some(1.0),
        ..base
    };
    let two_d = |q: PlanQuery, rail: usize| VfQuery {
        current_rail: Some(rail),
        max_volts: Some(0.95),
        ..VfQuery::new(q)
    };
    let cases: [(&str, VfQuery, Option<&str>); 12] = [
        ("2-D best effort", two_d(base, 2), None),
        ("2-D deadline", two_d(deadline, 0), None),
        ("2-D energy budget", two_d(energy, 1), None),
        ("2-D unknown rail", two_d(base, 3), Some("UnknownRail")),
        ("2-D ceiling", two_d(ceiling, 2), Some("Frequency")),
        ("2-D power cap", two_d(cap, 2), Some("BudgetInfeasible")),
        (
            "2-D energy floor",
            two_d(starved, 2),
            Some("EnergyBudgetInfeasible"),
        ),
        ("1-D best effort", VfQuery::frequency_only(base), None),
        ("1-D deadline", VfQuery::frequency_only(deadline), None),
        (
            "1-D ceiling",
            VfQuery::frequency_only(ceiling),
            Some("Frequency"),
        ),
        (
            "1-D power cap",
            VfQuery::frequency_only(cap),
            Some("BudgetInfeasible"),
        ),
        (
            "1-D energy floor",
            VfQuery::frequency_only(starved),
            Some("EnergyBudgetInfeasible"),
        ),
    ];
    for (what, q, error) in cases {
        let outcome = policy.plan_vf(&q);
        let kind = outcome.as_ref().err().map(|e| match e {
            UparcError::UnknownRail { .. } => "UnknownRail",
            UparcError::Frequency { .. } => "Frequency",
            UparcError::BudgetInfeasible { .. } => "BudgetInfeasible",
            UparcError::EnergyBudgetInfeasible { .. } => "EnergyBudgetInfeasible",
            _ => "other",
        });
        assert_eq!(kind, error, "{what}: {outcome:?}");
        assert_no_allocations(&format!("plan_vf {what}"), || policy.plan_vf(black_box(&q)));
    }

    // A dispatch's retune to the clock its lane is already locked at.
    let mut lane = UParc::builder(Device::xc5vsx50t())
        .build()
        .expect("default lane builds");
    for mhz in [362.5, 200.0] {
        let target = Frequency::from_mhz(mhz);
        assert_eq!(lane.set_reconfiguration_frequency(target), Ok(target));
        assert_no_allocations(&format!("set_reconfiguration_frequency {target}"), || {
            lane.set_reconfiguration_frequency(black_box(target))
        });
    }

    // A dispatch's retune that relocks: the lane alternates between two
    // grid points, so every call writes new factors through the DRP.
    let targets = [362.5, 200.0].map(Frequency::from_mhz);
    let mut calls = 0;
    assert_no_allocations("set_reconfiguration_frequency relock", || {
        let target = targets[calls % 2];
        calls += 1;
        assert_eq!(
            lane.set_reconfiguration_frequency(black_box(target)),
            Ok(target)
        );
        let clk2 = lane
            .dyclogen()
            .frequency(OutputClock::Reconfiguration, lane.now());
        assert!(clk2.is_err(), "{target}: the DCM is relocking");
    });

    // A packed transfer's pipeline timing: the closed form at the
    // service's CLK_2 points (at or above CLK_3), the edge stepper below.
    for mhz in [254.545_455, 160.0, 50.0] {
        let run = PipelineRun {
            input_words: 407,
            output_words: 1_607,
            clk2: Frequency::from_mhz(mhz),
            clk3: Frequency::from_mhz(125.0),
            max_words_per_cycle: 2,
        };
        assert_eq!(run.closed_form().is_some(), mhz > 125.0, "{mhz} MHz");
        assert_no_allocations(&format!("PipelineRun::simulate at {mhz} MHz"), || {
            black_box(&run).simulate()
        });
    }

    // An X-MatchPRO decode allocates its output and nothing else: no
    // dictionary tables and no regrowth, also when the length is not a
    // multiple of 4 and the last tuple is clipped.
    let catalog = synthetic_catalog(1, 40, 20_120_312);
    let fleet_image = catalog
        .entry(BitstreamId(1))
        .and_then(|e| e.packed_bytes())
        .expect("fleet images stage compressed");
    let codec = catalog.algorithm().codec();
    assert_allocations("X-MatchPRO decode, fleet image", 1, || {
        codec
            .decompress(black_box(fleet_image))
            .expect("round-trips")
    });

    // The first preload and reconfigure of the entry on a fresh lane:
    // `Mode::decide` checked the round trip once, at registration, so the
    // preload stages the payload without decoding it, and the transfer,
    // whose BRAM holds the staged image, writes the payload's source
    // words without decoding the BRAM. Neither requests a block as large
    // as the decoded image; the largest holds the packed payload.
    let entry = catalog.entry(BitstreamId(1)).expect("registered");
    let mut lane = catalog.lane();
    let image_bytes = entry.raw_bytes();
    let largest = largest_request_in(|| {
        let staged = lane
            .preload(entry.bitstream(), entry.mode())
            .expect("stages");
        assert!(staged.compressed);
        black_box(lane.reconfigure().expect("configures"));
    });
    assert!(
        largest < image_bytes,
        "first packed preload and reconfigure: a {largest} B request \
         for a {image_bytes} B image"
    );
    // A warm preload of the entry's decided mode stages the packed
    // payload as it is: no encoder, no boxed codec, no decode.
    for _ in 0..16 {
        let n = allocations_in(|| {
            black_box(
                lane.preload(entry.bitstream(), entry.mode())
                    .expect("stages"),
            );
        });
        assert!(n <= 2, "warm packed preload: {n} allocation(s) per call");
    }
    // A warm reconfigure of the packed entry: the fetch reuses the
    // staging arena and the BRAM holds the staged image, so the payload's
    // source words go to the ICAP as they are. The only allocation is
    // the power trace's growth: a call adds three steps to it, so its
    // buffer doubles now and then, at most once per call.
    lane.reconfigure().expect("configures");
    let mut grown = 0;
    for _ in 0..64 {
        let n = allocations_in(|| {
            black_box(lane.reconfigure().expect("configures"));
        });
        assert!(
            n <= 1,
            "warm packed reconfigure: {n} allocation(s) per call"
        );
        grown += n;
    }
    assert!(grown <= 3, "the power trace grew on {grown} of 64 calls");
    // The verification scan after a clean dispatch: the readback borrows
    // the partition in place and no frame is struck, so the scan copies
    // nothing and computes no parity; the readback's two power steps grow
    // the trace now and then, at most once per call.
    let bs = entry.bitstream();
    assert_eq!(bs.frame_count(), 40);
    let scrubber = EccScrubber::new(bs.far(), bs.frame_count());
    let mut grown = 0;
    for _ in 0..64 {
        let n = allocations_in(|| {
            let scan = scrubber.scrub(&mut lane).expect("scans");
            assert!(scan.corrected.is_empty() && scan.uncorrectable.is_empty());
            black_box(scan);
        });
        assert!(
            n <= 1,
            "clean ECC verification scan: {n} allocation(s) per call"
        );
        grown += n;
    }
    assert!(grown <= 3, "{grown} of 64 clean scans allocated");
    let ragged: Vec<u8> = (0..6_561u32).map(|i| (i % 7 * 37 + i / 97) as u8).collect();
    for depth in [16, 128] {
        let codec = XMatchPro::with_dictionary(depth);
        let packed = codec.compress(&ragged);
        assert_eq!(codec.decompress(&packed).as_ref(), Ok(&ragged));
        assert_allocations(
            &format!("X-MatchPRO decode, 6,561 B, depth {depth}"),
            1,
            || codec.decompress(black_box(&packed)).expect("round-trips"),
        );
    }

    // A corrupt length header does not size the output: each codec packs
    // a 64-byte sample and the header then claims u32::MAX bytes (RLE has
    // no length header, so its stream stays as packed). Whether the
    // decode fails or not, it requests no block larger than its input
    // could plausibly unpack to.
    let sample: Vec<u8> = (0..64u32).map(|i| (i * 7 % 13) as u8).collect();
    for alg in Algorithm::ALL {
        let codec = alg.codec();
        let mut stream = codec.compress(&sample);
        if alg != Algorithm::Rle {
            stream[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let largest = largest_request_in(|| {
            let _ = black_box(codec.decompress(black_box(&stream)));
        });
        assert!(
            largest <= 64 << 10,
            "{alg}: a {largest} B request for a {} B stream",
            stream.len()
        );
    }
}
