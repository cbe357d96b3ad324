//! Pins the two seeded synthetic streams every reproduced number draws
//! from: the payload generator (`SynthProfile::generate`, both its
//! template bank and its per-word variation) and the request generator
//! (`WorkloadSpec::generate`) under every arrival pattern.
//!
//! Table I's savings, Table III's bandwidths, the figures and every
//! `BENCH_*.json` report are computed over these streams, so a change of
//! generator, seeding or draw mapping shows up here first, as a changed
//! fold, rather than as drift in the reports.

use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::fpga::Device;
use uparc_repro::serve::catalog::Catalog;
use uparc_repro::serve::request::BitstreamId;
use uparc_repro::serve::workload::{ArrivalPattern, WorkloadSpec};
use uparc_repro::sim::rng::splitmix64;
use uparc_repro::sim::time::SimTime;

/// Order-sensitive fold of a `u64` stream.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |h, w| splitmix64(h ^ w))
}

#[test]
fn synthetic_payloads_are_pinned() {
    let device = Device::xc5vsx50t();
    let mut folds = Vec::new();
    for profile in [
        SynthProfile::dense(),
        SynthProfile::sparse(),
        SynthProfile::noise(),
    ] {
        for (far, seed) in [(0, 1), (700, 0x00C0_FFEE)] {
            let payload = profile.generate(&device, far, 48, seed);
            folds.push(fold(payload.iter().map(|&w| u64::from(w))));
        }
    }
    // (dense, sparse, noise) × ((far 0, seed 1), (far 700, seed 0xC0FFEE)).
    assert_eq!(
        folds,
        [
            0x0A71_2606_D367_EFA6,
            0xE382_E203_85FC_2FC0,
            0xD1C9_62C6_6A1E_C255,
            0xC435_543A_FC42_E2C0,
            0xC6FF_F542_BD40_3AAC,
            0x80A3_D397_BD1B_C8DA,
        ]
    );
}

#[test]
fn synthetic_workloads_are_pinned() {
    let device = Device::xc5vsx50t();
    let mut catalog = Catalog::new(device);
    catalog.add_region("rp0", 100..160).unwrap();
    catalog.add_region("rp1", 200..260).unwrap();
    for (id, far, frames) in [(1u32, 100, 30), (2, 110, 20), (3, 200, 25), (4, 230, 12)] {
        let payload = SynthProfile::dense().generate(catalog.device(), far, frames, u64::from(id));
        let bs = PartialBitstream::build(catalog.device(), far, &payload);
        catalog.register(BitstreamId(id), bs).unwrap();
    }
    let patterns = [
        ArrivalPattern::Uniform,
        ArrivalPattern::Bursty { burst: 3 },
        ArrivalPattern::Diurnal {
            period: SimTime::from_ms(3),
        },
        ArrivalPattern::Sustained,
    ];
    let folds: Vec<u64> = patterns
        .into_iter()
        .map(|pattern| {
            let spec = WorkloadSpec {
                requests: 300,
                mean_gap: SimTime::from_us(50),
                pattern,
                deadline_slack_us: Some((40, 900)),
                energy_budget_uj: None,
            };
            fold(spec.generate(0x5EED, &catalog).iter().flat_map(|r| {
                [
                    r.id.0,
                    u64::from(r.bitstream.0),
                    r.arrival.as_fs(),
                    r.priority as u64,
                    r.deadline.map_or(u64::MAX, SimTime::as_fs),
                ]
            }))
        })
        .collect();
    assert_eq!(
        folds,
        [
            0xA098_29F8_F36F_9766,
            0xA2F8_0756_7A2A_2A0F,
            0xA036_F860_C555_6ADE,
            0x2A2F_2642_F09B_F6CB,
        ]
    );
}
