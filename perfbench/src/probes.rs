//! Direct timings of single layers, outside any workload run: the
//! catalog codec's decode, one recovered dispatch on a controller lane,
//! one (V, f) planner query, and the paper's Table III bandwidth point.

use std::hint::black_box;
use std::time::{Duration, Instant};

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_controllers::adapter::UparcController;
use uparc_controllers::ReconfigController;
use uparc_core::policy::{PowerAwarePolicy, VfQuery};
use uparc_core::recovery::RecoveryPolicy;
use uparc_core::uparc::UParc;
use uparc_fpga::Device;
use uparc_serve::catalog::Catalog;
use uparc_serve::request::BitstreamId;
use uparc_sim::time::Frequency;

/// Table III: UPaRC_i moves 247 KB of raw configuration data at
/// 362.5 MHz with 1433 MB/s.
const PAPER_UPARC_I_MB_S: f64 = 1433.0;
const PAPER_UPARC_I_BYTES: usize = 247 * 1024;

/// Shortest time a repeated probe is measured for, so one probe reading
/// is a mean over many calls rather than a single timer sample.
const PROBE_MIN: Duration = Duration::from_millis(200);

/// Signed relative error of the simulated UPaRC_i bandwidth against the
/// paper's 1433 MB/s, in percent, measured on a dense synthetic
/// bitstream of the paper's size.
pub fn paper_bw_error_pct(seed: u64) -> f64 {
    let device = Device::xc5vsx50t();
    let frames = (PAPER_UPARC_I_BYTES / device.family().frame_bytes()) as u32;
    let payload = SynthProfile::dense().generate(&device, 0, frames, seed);
    let bs = PartialBitstream::build(&device, 0, &payload);
    let mut ctrl = UparcController::uparc_i(device).expect("UPaRC_i builds on Virtex-5");
    let report = ctrl.reconfigure(&bs).expect("raw reconfiguration succeeds");
    (report.bandwidth_mb_s() - PAPER_UPARC_I_MB_S) / PAPER_UPARC_I_MB_S * 100.0
}

/// Decodes every compressed payload of `catalog` with its staging codec,
/// repeated for at least [`PROBE_MIN`]; returns decoded MB per host
/// second, or `None` when the catalog stages nothing compressed.
pub fn decode_mb_per_s(catalog: &Catalog) -> Option<f64> {
    let codec = catalog.algorithm().codec();
    let packed: Vec<&[u8]> = catalog
        .ids()
        .into_iter()
        .filter_map(|id| catalog.entry(id).and_then(|e| e.packed_bytes()))
        .collect();
    if packed.is_empty() {
        return None;
    }
    let t = Instant::now();
    let mut bytes = 0usize;
    while t.elapsed() < PROBE_MIN {
        for p in &packed {
            let image = codec
                .decompress(black_box(p))
                .expect("staged payload decodes");
            bytes += black_box(image).len();
        }
    }
    Some(bytes as f64 / 1e6 / t.elapsed().as_secs_f64())
}

/// One dispatch to time: which entry, on which lane, at which (V, f).
pub struct Dispatch {
    pub id: BitstreamId,
    pub frequency: Frequency,
    /// Core rail to ramp to first (DVFS lanes only).
    pub volts: Option<f64>,
    /// `Some(l)` replays on persistent lane `l`, so caches and clock locks
    /// carry over as in a service run; `None` uses a fresh scratch lane,
    /// as the fleet's faulted dispatches do.
    pub lane: Option<usize>,
}

/// Host cost of [`RecoveryPolicy::reconfigure`] on lanes built with the
/// catalog's staging setup: returns `(µs per dispatch, ns per ICAP
/// word)`. Only the `reconfigure` call is timed.
pub fn dispatch_cost(catalog: &Catalog, cache_bytes: usize, dispatches: &[Dispatch]) -> (f64, f64) {
    let recovery = RecoveryPolicy::default();
    let build_lane = || {
        UParc::builder(catalog.device().clone())
            .bram_bytes(catalog.bram_bytes())
            .decompressor(catalog.algorithm())
            .decompressed_cache_bytes(cache_bytes)
            .build()
            .expect("catalog algorithm has a hardware decompressor")
    };
    let mut lanes: Vec<UParc> = Vec::new();
    let mut host = Duration::ZERO;
    let mut words = 0u64;
    for d in dispatches {
        let entry = catalog.entry(d.id).expect("dispatch of a catalog entry");
        let mut scratch;
        let lane = match d.lane {
            Some(l) => {
                while lanes.len() <= l {
                    lanes.push(build_lane());
                }
                &mut lanes[l]
            }
            None => {
                scratch = build_lane();
                &mut scratch
            }
        };
        if let Some(v) = d.volts {
            lane.set_core_voltage(v);
        }
        lane.set_reconfiguration_frequency(d.frequency)
            .expect("dispatch frequency is synthesizable");
        let t = Instant::now();
        let report = recovery
            .reconfigure(lane, entry.bitstream(), entry.mode())
            .expect("fault-free dispatch");
        host += t.elapsed();
        words += (report.report.bytes as u64).div_ceil(4);
    }
    let n = dispatches.len().max(1) as f64;
    (
        host.as_secs_f64() * 1e6 / n,
        host.as_secs_f64() * 1e9 / words.max(1) as f64,
    )
}

/// Mean host µs of one [`PowerAwarePolicy::plan_vf`] call over `queries`,
/// repeated for at least [`PROBE_MIN`].
pub fn plan_vf_us(planner: &PowerAwarePolicy, queries: &[VfQuery]) -> f64 {
    assert!(!queries.is_empty(), "no planner queries to time");
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < PROBE_MIN {
        for q in queries {
            let _ = black_box(planner.plan_vf(black_box(q)));
            calls += 1;
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}
