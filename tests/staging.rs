//! One staging decision: a catalog entry's decided mode stages exactly
//! like `Mode::Auto` on a twin lane, through `UParc::preload` and through
//! the recovery ladder, and a packed payload that belongs to another
//! codec or another bitstream is a typed error on every path.

use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::compress::Algorithm;
use uparc_repro::core::recovery::{RecoveryAction, RecoveryPolicy};
use uparc_repro::core::uparc::{Mode, UParc};
use uparc_repro::core::UparcError;
use uparc_repro::fpga::Device;
use uparc_repro::serve::catalog::{Catalog, CatalogEntry};
use uparc_repro::serve::request::BitstreamId;
use uparc_repro::sim::fault::{FaultInjector, FaultPlan, FaultRates, FaultSpace};
use uparc_repro::sim::time::{Frequency, SimTime};

const CACHE_BYTES: usize = 1 << 20;
/// The boundary bitstream's frame count: its raw image sets the BRAM.
const BOUNDARY_FRAMES: u32 = 40;

fn bitstream(device: &Device, frames: u32, seed: u64) -> PartialBitstream {
    let payload = SynthProfile::dense().generate(device, 0, frames, seed);
    PartialBitstream::build(device, 0, &payload)
}

/// Two catalogs over the same five bitstreams: raw ones, packed ones, and
/// one whose raw image exactly fills the BRAM in the first catalog and is
/// 4 bytes over it in the second.
fn catalogs() -> Vec<Catalog> {
    let device = Device::xc5vsx50t();
    let boundary = bitstream(&device, BOUNDARY_FRAMES, 40).size_bytes();
    [boundary + 4, boundary]
        .into_iter()
        .map(|bram| {
            let mut cat = Catalog::new(device.clone()).with_bram_bytes(bram);
            cat.add_region("rp0", 0..100).unwrap();
            for (id, frames) in [8, 16, BOUNDARY_FRAMES, 48, 56].into_iter().enumerate() {
                let bs = bitstream(&device, frames, u64::from(frames));
                cat.register(BitstreamId(id as u32), bs).unwrap();
            }
            cat
        })
        .collect()
}

fn entries(cat: &Catalog) -> impl Iterator<Item = &CatalogEntry> {
    cat.ids().into_iter().map(|id| cat.entry(id).unwrap())
}

/// Everything a lane's staging can change, rendered for comparison.
fn lane_state(lane: &UParc) -> String {
    let bram = lane.bram();
    format!(
        "{:?} {:?} {:?}",
        lane.now(),
        lane.decomp_cache_stats(),
        bram.word_range(0, bram.capacity_words()).unwrap()
    )
}

#[test]
fn catalog_modes_stage_like_auto() {
    let [exact, over] = <[Catalog; 2]>::try_from(catalogs()).unwrap();
    let boundary = |cat: &Catalog| cat.entry(BitstreamId(2)).unwrap().compressed();
    assert!(!boundary(&exact), "the exactly-filling image stages raw");
    assert!(boundary(&over), "the image 4 bytes over stages packed");
    for cat in [&exact, &over] {
        let kinds: Vec<bool> = entries(cat).map(CatalogEntry::compressed).collect();
        assert!(kinds.contains(&true) && kinds.contains(&false), "{kinds:?}");
        let mut decided = cat.lane(CACHE_BYTES);
        let mut auto = cat.lane(CACHE_BYTES);
        // Twice round, so the second pass stages from a warm cache.
        for pass in 0..2 {
            for entry in entries(cat) {
                let bs = entry.bitstream();
                let a = decided.preload(bs, entry.mode()).unwrap();
                let b = auto.preload(bs, Mode::Auto).unwrap();
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "pass {pass}");
                assert_eq!(a.compressed, entry.compressed());
                assert_eq!(a.stored_bytes, entry.staged_words() * 4);
                assert_eq!(lane_state(&decided), lane_state(&auto), "pass {pass}");
            }
        }
        assert!(decided.decomp_cache_stats().hits > 0);
    }
}

#[test]
fn recovery_ladder_reports_match_for_decided_and_requested_modes() {
    let rates = FaultRates {
        config_seu: 1,
        parity_seu: 0,
        staged_flip: 2,
        transfer_stall: 0,
        crc_transient: 1,
        retune_lock_failure: 0,
    };
    let mut rungs = Vec::new();
    let mut seed = 0xC0DE_0000u64;
    for cat in catalogs() {
        for entry in entries(&cat) {
            let bs = entry.bitstream();
            // Each entry's decided mode against `Auto`, and, where the raw
            // image fits, a forced `Compressed` decided up front against
            // the request itself: that pair reaches mode fallback.
            let mut pairs = vec![(entry.mode(), Mode::Auto)];
            if !entry.compressed() {
                let packed = Mode::Compressed
                    .decide(bs, cat.bram_bytes(), cat.algorithm())
                    .unwrap();
                assert!(matches!(packed, Mode::Packed { .. }));
                pairs.push((packed, Mode::Compressed));
            }
            for (decided, requested) in pairs {
                seed += 1;
                let space = FaultSpace {
                    frame_base: bs.far(),
                    frames: bs.frame_count(),
                    frame_words: 41,
                    staged_words: entry.staged_words() as u32,
                };
                let plan = FaultPlan::generate(seed, &space, &rates, SimTime::from_us(1));
                let run = |mode: Mode| {
                    let mut lane = cat.lane(CACHE_BYTES);
                    lane.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
                        .unwrap();
                    lane.attach_fault_injector(FaultInjector::new(&plan));
                    let report = RecoveryPolicy::default().reconfigure(&mut lane, bs, mode);
                    let log = lane.detach_fault_injector().unwrap();
                    let state = format!("{report:?} {:?} {}", log.log(), lane_state(&lane));
                    (report.map(|r| r.actions), state)
                };
                let (actions, a) = run(decided);
                let (_, b) = run(requested);
                assert_eq!(a, b, "seed {seed:#x}");
                rungs.extend(actions.expect("the full ladder heals the plan"));
            }
        }
    }
    assert!(rungs.contains(&RecoveryAction::Restage), "{rungs:?}");
    assert!(rungs.contains(&RecoveryAction::ModeFallback), "{rungs:?}");
}

#[test]
fn foreign_packed_payloads_are_typed_errors() {
    let [cat, _] = <[Catalog; 2]>::try_from(catalogs()).unwrap();
    let packed: Vec<&CatalogEntry> = entries(&cat).filter(|e| e.compressed()).collect();
    let (one, other) = (packed[0], packed[1]);
    fn mismatch<T>(r: Result<T, UparcError>) -> bool {
        matches!(r, Err(UparcError::Compression(s)) if s == "staging round-trip mismatch")
    }
    fn codec<T>(r: Result<T, UparcError>) -> bool {
        r.err()
            == Some(UparcError::PackedCodec {
                packed: Algorithm::XMatchPro,
                slot: Algorithm::Rle,
            })
    }

    // Another bitstream's payload: decoded and compared on a cache miss,
    // compared with the cached image on a hit.
    let mut lane = cat.lane(CACHE_BYTES);
    assert!(mismatch(lane.preload(other.bitstream(), one.mode())));
    let stats = lane.decomp_cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
    lane.preload(one.bitstream(), one.mode()).unwrap();
    assert!(mismatch(lane.preload(other.bitstream(), one.mode())));
    assert_eq!(lane.decomp_cache_stats().hits, 1);

    // Another codec's payload, on a slot that has never seen it and on
    // one whose cache holds its image from before a decompressor swap.
    // The 256 KB default BRAM takes every image raw, so the ladder could
    // heal a corrupt transfer by mode fallback; it must not heal these.
    let device = cat.device().clone();
    let mut fresh = UParc::builder(device.clone())
        .decompressor(Algorithm::Rle)
        .build()
        .unwrap();
    assert!(codec(fresh.preload(one.bitstream(), one.mode())));
    let ladder = RecoveryPolicy::default();
    assert!(codec(ladder.reconfigure(
        &mut fresh,
        one.bitstream(),
        one.mode()
    )));
    let mut swapped = UParc::builder(device.clone()).build().unwrap();
    swapped.preload(one.bitstream(), one.mode()).unwrap();
    swapped.swap_decompressor(Algorithm::Rle).unwrap();
    assert!(codec(swapped.preload(one.bitstream(), one.mode())));
    assert!(codec(ladder.reconfigure(
        &mut swapped,
        one.bitstream(),
        one.mode()
    )));

    // The ladder propagates the foreign-bitstream error on both paths.
    for warm in [false, true] {
        let mut lane = UParc::builder(device.clone()).build().unwrap();
        if warm {
            lane.preload(one.bitstream(), one.mode()).unwrap();
        }
        let before = lane.decomp_cache_stats();
        let r = ladder.reconfigure(&mut lane, other.bitstream(), one.mode());
        assert!(mismatch(r), "warm {warm}");
        let after = lane.decomp_cache_stats();
        assert_eq!(after.hits - before.hits, u64::from(warm), "warm {warm}");
    }
}
