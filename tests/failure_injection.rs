//! Failure-injection tests: corrupted streams, wrong devices, capacity
//! violations and illegal clocks must surface as typed errors — never as
//! silent misconfiguration.

use uparc_repro::bitstream::bramimg::{BramImage, ModeWord};
use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::compress::Algorithm;
use uparc_repro::controllers::farm::Farm;
use uparc_repro::controllers::{ControllerError, ReconfigController};
use uparc_repro::core::scrub::Scrubber;
use uparc_repro::core::uparc::{Mode, UParc};
use uparc_repro::core::UparcError;
use uparc_repro::fpga::{Device, FpgaError, Icap};
use uparc_repro::sim::fault::{FaultInjector, FaultKind};
use uparc_repro::sim::time::{Frequency, SimTime};

fn bitstream(device: &Device, frames: u32, seed: u64) -> PartialBitstream {
    let payload = SynthProfile::dense().generate(device, 0, frames, seed);
    PartialBitstream::build(device, 0, &payload)
}

#[test]
fn flipped_payload_bit_is_caught_by_the_config_crc() {
    let device = Device::xc5vsx50t();
    let bs = bitstream(&device, 50, 1);
    let mut words = bs.words().to_vec();
    // Flip one bit deep in the FDRI payload.
    let idx = words.len() / 2;
    words[idx] ^= 1 << 7;
    let mut icap = Icap::new(device);
    let err = icap.write_words(&words).expect_err("must fail");
    assert!(matches!(err, FpgaError::CrcMismatch { .. }), "{err}");
}

#[test]
fn bitstream_for_the_wrong_device_is_rejected_everywhere() {
    let v5 = Device::xc5vsx50t();
    let bs = bitstream(&v5, 10, 2);
    // Direct ICAP.
    let mut icap = Icap::new(Device::xc6vlx240t());
    assert!(matches!(
        icap.write_words(bs.words()),
        Err(FpgaError::WrongDevice { .. })
    ));
    // Through a controller.
    let mut farm = Farm::new(Device::xc6vlx240t());
    assert!(matches!(
        farm.reconfigure(&bs),
        Err(ControllerError::Fpga(FpgaError::WrongDevice { .. }))
    ));
    // Through UPaRC.
    let mut sys = UParc::builder(Device::xc6vlx240t()).build().expect("build");
    assert!(matches!(
        sys.reconfigure_bitstream(&bs, Mode::Raw),
        Err(UparcError::Fpga(FpgaError::WrongDevice { .. }))
    ));
}

#[test]
fn corrupt_compressed_staging_is_detected_not_executed() {
    // A compressed BRAM image whose payload bytes are garbage must fail in
    // the decompressor, not push garbage into the ICAP.
    let garbage = vec![0xFFu8; 600];
    let img = BramImage::compressed(4, &garbage); // codec 4 = X-MatchPRO
    let (_, payload) = img.compressed_payload().expect("well-formed wrapper");
    let codec = Algorithm::XMatchPro.codec();
    // Either the codec errors, or its output is not a valid config stream;
    // both are caught before any frame is committed.
    if let Ok(decoded) = codec.decompress(&payload) {
        let mut icap = Icap::new(Device::xc5vsx50t());
        let words: Vec<u32> = decoded
            .chunks(4)
            .map(|c| {
                let mut b = [0u8; 4];
                b[..c.len()].copy_from_slice(c);
                u32::from_be_bytes(b)
            })
            .collect();
        let _ = icap.write_words(&words); // may or may not error…
        assert_eq!(icap.frames_committed(), 0, "…but nothing is committed");
    }
}

#[test]
fn inconsistent_mode_word_is_rejected() {
    let stream: Vec<u32> = (0..50).collect();
    let img = BramImage::uncompressed(&stream);
    let mut words = img.words().to_vec();
    // Tamper with the size field: claims more words than present.
    words[0] = ModeWord {
        compressed: false,
        codec_id: 0,
        size_words: 1000,
    }
    .encode();
    let broken = BramImage::from_words(words);
    assert!(broken.mode().is_err());
}

#[test]
fn capacity_violations_are_typed_not_truncated() {
    let device = Device::xc5vsx50t();
    // ~1.1 MB raw — beyond even compressed staging at dense statistics? No:
    // dense compresses ~75%, so 1.1 MB → ~280 KB > 256 KB BRAM. Auto must
    // fail with a capacity error rather than store a truncated image.
    let bs = bitstream(&device, 7000, 3);
    let mut sys = UParc::builder(device).build().expect("build");
    match sys.preload(&bs, Mode::Auto) {
        Err(UparcError::BramCapacity {
            required,
            available,
        }) => {
            assert!(required > available);
        }
        Err(other) => panic!("unexpected error {other}"),
        Ok(pre) => panic!("must not fit, stored {}", pre.stored_bytes),
    }
    // And nothing is staged afterwards.
    assert!(matches!(
        sys.reconfigure(),
        Err(UparcError::NothingPreloaded)
    ));
}

#[test]
fn clock_ceilings_are_enforced_per_component() {
    let device = Device::xc5vsx50t();
    let mut sys = UParc::builder(device).build().expect("build");
    // Raw-path ceiling (ICAP/BRAM overclock).
    assert!(matches!(
        sys.set_reconfiguration_frequency(Frequency::from_mhz(400.0)),
        Err(UparcError::Frequency { .. })
    ));
    // Decompressor ceiling (126 MHz for X-MatchPRO).
    assert!(matches!(
        sys.set_decompressor_frequency(Frequency::from_mhz(200.0)),
        Err(UparcError::Frequency { .. })
    ));
    // And the compressed datapath rejects >255 MHz at reconfigure time.
    let bs = bitstream(sys.device(), 100, 4).clone();
    sys.set_reconfiguration_frequency(Frequency::from_mhz(300.0))
        .expect("legal raw clock");
    sys.preload(&bs, Mode::Compressed).expect("stages fine");
    assert!(matches!(
        sys.reconfigure(),
        Err(UparcError::Frequency {
            limited_by: "compressed datapath",
            ..
        })
    ));
}

#[test]
fn upsets_struck_mid_schedule_are_scrubbed_back_bit_identical() {
    // End-to-end self-healing: a live partition is protected by a golden
    // Scrubber while the system keeps reconfiguring *another* partition.
    // Seeded SEUs strike the live partition between those operations
    // (radiation does not wait for idle); a scrub pass must find every
    // upset frame and restore a bit-identical readback.
    let device = Device::xc5vsx50t();
    let mut sys = UParc::builder(device).build().expect("build");
    sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
        .expect("retune");
    sys.advance_idle(SimTime::from_ms(1)); // let the DCM lock

    // Configure and capture the live partition at frames 400..480.
    let live_payload = SynthProfile::dense().generate(sys.device(), 400, 80, 21);
    let live = PartialBitstream::build(sys.device(), 400, &live_payload);
    sys.reconfigure_bitstream(&live, Mode::Raw).expect("live");
    let golden = Scrubber::capture(&mut sys, 400, 80).expect("capture");
    let pristine = sys.readback(400, 80).expect("readback").to_vec();

    // Schedule the upsets: three SEUs (two in one frame — beyond SECDED
    // correction, so the golden copy is genuinely needed) spread across
    // the next millisecond of operation.
    let mut inj = FaultInjector::empty();
    let t = sys.now();
    for (dt_us, frame, word, bit) in [(50, 410, 7, 3), (250, 410, 20, 30), (600, 455, 0, 0)] {
        inj.schedule(
            t + SimTime::from_us(dt_us),
            FaultKind::ConfigSeu { frame, word, bit },
        );
    }
    sys.attach_fault_injector(inj);

    // The "schedule": keep swapping an unrelated partition while the
    // upsets land at operation boundaries in between.
    for seed in 0..4 {
        let bs = bitstream(sys.device(), 40, 30 + seed);
        sys.reconfigure_bitstream(&bs, Mode::Raw).expect("swap");
        sys.advance_idle(SimTime::from_us(300));
    }
    let inj = sys.fault_injector().expect("attached");
    assert_eq!(inj.remaining(), 0, "all upsets struck during the schedule");
    assert_eq!(inj.log().len(), 3);

    // The live partition is corrupt now — and one scrub pass heals it.
    assert_ne!(sys.readback(400, 80).expect("readback"), pristine);
    let report = golden.scrub(&mut sys).expect("scrub");
    assert_eq!(report.dirty, vec![410, 455]);
    assert_eq!(report.repairs.len(), 2, "one repair per dirty range");
    let healed = sys.readback(400, 80).expect("readback");
    assert_eq!(healed, pristine, "bit-identical restore");
    // A second pass confirms the repair took.
    assert!(golden.scrub(&mut sys).expect("rescrub").dirty.is_empty());
}

#[test]
fn truncated_bit_container_fails_cleanly() {
    let device = Device::xc5vsx50t();
    let bs = bitstream(&device, 20, 5);
    let bytes = bs.to_bitfile("trunc").to_bytes();
    for cut in [0, 10, 13, 40, bytes.len() - 1] {
        assert!(
            uparc_repro::bitstream::bitfile::BitFile::parse(&bytes[..cut]).is_err(),
            "cut {cut}"
        );
    }
}
