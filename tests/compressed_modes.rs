//! Compressed-mode integration across every hardware-decodable algorithm:
//! each slot stages, decompresses and configures identically to the raw
//! path, whether its transfer writes the staged payload's source words or
//! decodes a BRAM that differs from the staged image, at its own
//! characteristic throughput.

use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::compress::Algorithm;
use uparc_repro::core::recovery::{RecoveryAction, RecoveryPolicy};
use uparc_repro::core::uparc::{Mode, UParc};
use uparc_repro::core::UparcError;
use uparc_repro::fpga::Device;
use uparc_repro::sim::fault::{FaultInjector, FaultKind};
use uparc_repro::sim::rng::Xoshiro256;
use uparc_repro::sim::time::Frequency;

fn bitstream(device: &Device, frames: u32) -> PartialBitstream {
    let payload = SynthProfile::dense().generate(device, 70, frames, 9);
    PartialBitstream::build(device, 70, &payload)
}

/// A 20-frame module of seeded noise: every codec packs it larger than
/// it unpacks, so the decompressor reads more words than it writes.
fn incompressible(device: &Device) -> PartialBitstream {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0B17);
    let words = 20 * device.family().frame_words();
    let payload: Vec<u32> = (0..words).map(|_| rng.next_u64() as u32).collect();
    PartialBitstream::build(device, 70, &payload)
}

/// The algorithms with streaming hardware decoders.
const HW_ALGS: [Algorithm; 4] = [
    Algorithm::XMatchPro,
    Algorithm::Rle,
    Algorithm::Lz77,
    Algorithm::Huffman,
];

/// A lane with `alg` in the decompressor slot and CLK_2 at 200 MHz.
fn lane(device: &Device, alg: Algorithm) -> UParc {
    let mut sys = UParc::builder(device.clone())
        .decompressor(alg)
        .build()
        .expect("build");
    sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
        .expect("tune");
    sys
}

#[test]
fn every_hw_algorithm_configures_identically_to_raw() {
    let device = Device::xc5vsx50t();
    let mut decoded_lanes = 0;
    for (bs, packs_smaller) in [
        (bitstream(&device, 250), true),
        (incompressible(&device), false),
    ] {
        let mut reference = UParc::builder(device.clone()).build().expect("build");
        reference
            .reconfigure_bitstream(&bs, Mode::Raw)
            .expect("raw");

        for alg in HW_ALGS {
            // The clean lane's BRAM holds the staged image, so its
            // transfer writes the payload's source words.
            let mut clean = lane(&device, alg);
            let r = clean
                .reconfigure_bitstream(&bs, Mode::Compressed)
                .expect("compressed");
            assert!(r.compressed, "{alg}");
            assert_eq!(r.stored_bytes < r.bytes, packs_smaller, "{alg}");
            assert_eq!(
                reference
                    .icap()
                    .config_memory()
                    .diff_frames(clean.icap().config_memory()),
                0,
                "{alg} must configure the same frames"
            );

            // A staged flip of bit 0 of the last BRAM word, when that word
            // ends in zero padding, leaves the packed payload intact but
            // the BRAM unlike the staged image, so this lane's transfer
            // decodes the BRAM contents. Both paths must configure, time
            // and count exactly alike.
            let Ok(Mode::Packed(packed)) = Mode::Compressed.decide(&bs, 256 << 10, alg) else {
                panic!("{alg}: Compressed decides into Packed");
            };
            let packed_bytes = packed.bytes().len();
            if packed_bytes.is_multiple_of(4) {
                continue;
            }
            let mut decoded = lane(&device, alg);
            let mut inj = FaultInjector::empty();
            inj.schedule(
                decoded.now(),
                FaultKind::StagedFlip {
                    // Word `w` lands on BRAM word `1 + w`: the last one.
                    word: packed_bytes.div_ceil(4) as u32,
                    bit: 0,
                },
            );
            decoded.attach_fault_injector(inj);
            let c = decoded
                .reconfigure_bitstream(&bs, Mode::Compressed)
                .expect("a flip in the padding is harmless");
            assert_eq!(
                clean
                    .icap()
                    .config_memory()
                    .diff_frames(decoded.icap().config_memory()),
                0,
                "{alg}: decoded ≡ clean frames"
            );
            assert_eq!(
                c.transfer_time, r.transfer_time,
                "{alg}: decoded ≡ clean time"
            );
            assert_eq!(c.energy_uj, r.energy_uj, "{alg}: decoded ≡ clean energy");
            let (w, k) = (clean.icap(), decoded.icap());
            assert_eq!(k.words_consumed(), w.words_consumed(), "{alg}");
            assert_eq!(k.frames_committed(), w.frames_committed(), "{alg}");
            decoded_lanes += 1;
        }
    }
    assert!(decoded_lanes > 0, "no packed payload ended in padding");

    // A decode error fails the transfer before any configuration word
    // reaches the ICAP. The flip lands in the last quarter of the packed
    // 250-frame image, so more than 16 KB of the image decodes ahead of
    // the token it breaks: a transfer that wrote the image as it decoded
    // would have configured that much before failing. The first such flip
    // whose decode fails is taken, scanning from the image's end.
    let bs = bitstream(&device, 250);
    let alg = Algorithm::XMatchPro;
    let image_words = lane(&device, alg)
        .preload(&bs, Mode::Compressed)
        .expect("stages")
        .stored_bytes as u32
        / 4;
    assert!(bs.size_bytes() > 2 * 16 * 1024, "{} B", bs.size_bytes());
    let run = |word: u32, policy: RecoveryPolicy| {
        let mut sys = lane(&device, alg);
        let mut inj = FaultInjector::empty();
        inj.schedule(sys.now(), FaultKind::StagedFlip { word, bit: 31 });
        sys.attach_fault_injector(inj);
        let before = sys.icap().words_consumed();
        let outcome = policy.reconfigure(&mut sys, &bs, Mode::Compressed);
        (outcome, sys.icap().words_consumed() - before)
    };
    // `StagedFlip { word }` corrupts BRAM word `1 + word` of a compressed
    // image longer than `word + 1` words.
    let (word, written) = (image_words * 3 / 4..image_words - 1)
        .rev()
        .find_map(|word| match run(word, RecoveryPolicy::none()) {
            (Err(UparcError::Compression(_)), written) => Some((word, written)),
            _ => None,
        })
        .expect("a tail flip breaks the decode");
    assert_eq!(written, 0, "flip at word {word}: no word reaches the ICAP");
    let (healed, _) = run(word, RecoveryPolicy::default());
    let healed = healed.expect("mode fallback heals the stage");
    assert!(
        healed.actions.contains(&RecoveryAction::ModeFallback),
        "{:?}",
        healed.actions
    );
    assert!(!healed.preload.compressed, "final staging is raw");
}

#[test]
fn staging_footprint_follows_table1_ordering() {
    // Better Table I ratio ⇒ smaller BRAM footprint for the same module.
    let device = Device::xc5vsx50t();
    let bs = bitstream(&device, 600);
    let mut stored = Vec::new();
    for alg in [Algorithm::Rle, Algorithm::Lz77, Algorithm::XMatchPro] {
        let mut sys = UParc::builder(device.clone())
            .decompressor(alg)
            .build()
            .expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .expect("tune");
        let pre = sys.preload(&bs, Mode::Compressed).expect("stage");
        stored.push((alg, pre.stored_bytes));
    }
    // RLE stores the most, X-MatchPRO the least (cf. Table I: 63/71.4/74.2
    // on the calibrated workload; LZ77 and X-MatchPRO are close).
    assert!(stored[0].1 > stored[2].1, "{stored:?}");
    assert!(stored[0].1 > stored[1].1, "{stored:?}");
}

#[test]
fn throughput_reflects_each_decoder_rate() {
    let device = Device::xc5vsx50t();
    let bs = bitstream(&device, 800);
    let run = |alg: Algorithm| {
        let mut sys = UParc::builder(device.clone())
            .decompressor(alg)
            .build()
            .expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(255.0))
            .expect("tune");
        sys.reconfigure_bitstream(&bs, Mode::Compressed)
            .expect("run")
    };
    // X-MatchPRO: 2 w/c at ≤126 MHz ⇒ ~1 GB/s.
    let xmp = run(Algorithm::XMatchPro);
    let bw = |r: &uparc_repro::core::uparc::UparcReport| {
        r.bytes as f64 / r.transfer_time.as_secs_f64() / 1e6
    };
    assert!((bw(&xmp) - 1000.0).abs() < 20.0, "xmp {:.0}", bw(&xmp));
    // FaRM-class RLE: 1 w/c at ≤200 MHz ⇒ ~800 MB/s.
    let rle = run(Algorithm::Rle);
    assert!((bw(&rle) - 800.0).abs() < 20.0, "rle {:.0}", bw(&rle));
    // Bit-serial Huffman decoder: ~0.25 w/c at ≤150 MHz ⇒ ~150 MB/s.
    let huf = run(Algorithm::Huffman);
    assert!((bw(&huf) - 150.0).abs() < 10.0, "huffman {:.0}", bw(&huf));
}

#[test]
fn pipeline_and_analytic_pacing_agree_on_the_paper_point() {
    // The X-MatchPRO slot (integer 2 w/c) uses the cycle-faithful FIFO
    // pipeline; its result must sit within warm-up distance of the
    // steady-state bound the paper's 1.008 GB/s figure assumes.
    let device = Device::xc5vsx50t();
    let bs = bitstream(&device, 1300);
    let mut sys = UParc::builder(device.clone()).build().expect("build");
    sys.set_reconfiguration_frequency(Frequency::from_mhz(255.0))
        .expect("tune");
    let r = sys
        .reconfigure_bitstream(&bs, Mode::Compressed)
        .expect("run");
    let out_words = (r.bytes / 4) as u64;
    let f3 = r.decompressor_frequency.expect("compressed");
    let steady = f3.time_of_cycles(out_words.div_ceil(2));
    let ratio = r.transfer_time.as_secs_f64() / steady.as_secs_f64();
    assert!((1.0..1.01).contains(&ratio), "ratio {ratio:.4}");
}
