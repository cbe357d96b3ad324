//! Integration tests for the extension features: SEU scrubbing, sample
//! screening and floorplanning.

use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::compress::stats;
use uparc_repro::core::scrub::Scrubber;
use uparc_repro::core::uparc::{Mode, UParc};
use uparc_repro::fpga::variation::SampleLot;
use uparc_repro::fpga::{Device, Family};
use uparc_repro::serve::Catalog;
use uparc_repro::sim::time::Frequency;

#[test]
fn scrubbing_protects_a_floorplanned_partition() {
    let device = Device::xc5vsx50t();
    let range = 800..1000;
    Catalog::new(device.clone())
        .add_region("protected", range.clone())
        .expect("fits");

    let payload = SynthProfile::dense().generate(&device, range.start, range.end - range.start, 1);
    let bs = PartialBitstream::build(&device, range.start, &payload);
    let mut sys = UParc::builder(device).build().expect("build");
    sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
        .expect("tune");
    sys.reconfigure_bitstream(&bs, Mode::Raw)
        .expect("configure");

    let scrubber =
        Scrubber::capture(&mut sys, range.start, range.end - range.start).expect("golden");
    // Hit the partition with upsets at both ends.
    sys.inject_upset(range.start, 0, 0).expect("seu");
    sys.inject_upset(range.end - 1, 40, 31).expect("seu");
    let report = scrubber.scrub(&mut sys).expect("scrub");
    assert_eq!(report.dirty.len(), 2);
    assert_eq!(report.repairs.len(), 2);
    assert!(scrubber.scrub(&mut sys).expect("verify").dirty.is_empty());
}

#[test]
fn screening_and_system_limits_agree() {
    // The family ceilings enforced by the system are exactly the screened
    // minima of the sample lots.
    for family in [Family::Virtex5, Family::Virtex6] {
        let lot = SampleLot::draw(family, 200, 9);
        let screened = lot.screen(family.icap_overclock_limit());
        assert_eq!(screened.passed, screened.total, "{family}");
    }
    // And the UPaRC builder rejects clocks above them.
    let mut v6 = UParc::builder(Device::xc6vlx240t()).build().expect("build");
    assert!(v6
        .set_reconfiguration_frequency(Family::Virtex6.icap_overclock_limit())
        .is_ok());
    assert!(v6
        .set_reconfiguration_frequency(Frequency::from_mhz(362.5))
        .is_err());
}

#[test]
fn synthetic_profiles_have_distinct_statistics() {
    let device = Device::xc5vsx50t();
    let measure = |profile: &SynthProfile| {
        let words = profile.generate_bytes(&device, 64 * 1024, 5);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        stats::analyze(&bytes)
    };
    let dense = measure(&SynthProfile::dense());
    let sparse = measure(&SynthProfile::sparse());
    let noise = measure(&SynthProfile::noise());
    // Entropy ordering: noise ≫ dense > sparse.
    assert!(noise.entropy_bits > 7.9);
    assert!(dense.entropy_bits > sparse.entropy_bits);
    assert!(dense.entropy_bits < 3.5);
    // Run mass ordering: sparse blankest.
    assert!(sparse.runs.very_long > dense.runs.very_long);
    assert!(noise.runs.very_long < 0.01);
}
