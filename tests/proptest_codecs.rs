//! Property-based tests on the compression substrate: exact losslessness
//! on arbitrary inputs (a configuration bitstream tolerates no loss), and
//! robustness of every decoder and of the bitstream parsers (the `.bit`
//! container, the packet scan and the ICAP) against arbitrary (corrupt)
//! inputs.

use proptest::prelude::*;
use uparc_repro::bitstream::bitfile::{BitFile, MAGIC};
use uparc_repro::bitstream::bramimg::{BramImage, ModeWord};
use uparc_repro::bitstream::parser::StreamInfo;
use uparc_repro::compress::Algorithm;
use uparc_repro::fpga::format::{type1, type2, ConfigRegister, Opcode, NOOP, SYNC_WORD};
use uparc_repro::fpga::{Device, Icap};

fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes.
        proptest::collection::vec(any::<u8>(), 0..2048),
        // Runs and repeats (bitstream-like).
        proptest::collection::vec(prop_oneof![Just(0u8), 1u8..8], 0..4096),
        // Word-structured data.
        proptest::collection::vec(any::<u32>(), 0..512)
            .prop_map(|ws| ws.iter().flat_map(|w| w.to_be_bytes()).collect()),
    ]
}

/// One configuration word: arbitrary, or one that gets the packet
/// parsers past it (a sync word, a NOOP, a type-1 read or write header of
/// any register, a type-2 write header, a command value or the test
/// device's IDCODE).
fn config_word() -> impl Strategy<Value = u32> {
    let idcode = Device::xc5vsx50t().idcode();
    prop_oneof![
        any::<u32>(),
        Just(SYNC_WORD),
        Just(NOOP),
        (any::<bool>(), 0u32..14, 0u32..4).prop_map(|(write, addr, count)| {
            let op = if write { Opcode::Write } else { Opcode::Read };
            let reg = ConfigRegister::from_addr(addr).expect("addresses 0..14 are registers");
            type1(op, reg, count)
        }),
        (0u32..64).prop_map(|count| type2(Opcode::Write, count)),
        0u32..16,
        Just(idcode),
    ]
}

/// Corrupt input: arbitrary bytes, or big-endian configuration words
/// partly drawn from valid packet headers, with a ragged tail.
fn garbage_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..512),
        (
            proptest::collection::vec(config_word(), 0..128),
            proptest::collection::vec(any::<u8>(), 0..4),
        )
            .prop_map(|(words, tail)| {
                let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
                bytes.extend(tail);
                bytes
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_codec_is_exactly_lossless(data in input_strategy()) {
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let packed = codec.compress(&data);
            let unpacked = codec.decompress(&packed)
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            prop_assert_eq!(&unpacked, &data, "{} round-trip", alg);
        }
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_input(garbage in garbage_strategy(), chunk in 1usize..8) {
        // Any outcome is fine (Ok with some output, or a typed error) —
        // a panic or non-termination is the only failure.
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let _ = codec.decompress(&garbage);
        }
        // The `.bit` container, bare and behind its magic.
        let _ = BitFile::parse(&garbage);
        let _ = BitFile::parse(&[&MAGIC[..], &garbage].concat());
        // The configuration words: the structural scan, and the ICAP
        // parser whole and, after a sync word, in small chunks.
        let device = Device::xc5vsx50t();
        let words: Vec<u32> = garbage
            .chunks_exact(4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let _ = StreamInfo::scan(device.family(), &words);
        let mut icap = Icap::new(device);
        let _ = icap.write_words(&words);
        icap.reset();
        let _ = icap.write_words(&[SYNC_WORD]);
        for part in words.chunks(chunk) {
            let _ = icap.write_words(part);
        }
    }

    #[test]
    fn truncated_streams_never_yield_wrong_data(data in proptest::collection::vec(any::<u8>(), 1..512), cut_fraction in 0.0f64..1.0) {
        // Cutting a compressed stream must either fail or (in rare cases of
        // aligned cuts) reproduce a prefix-consistent result — never panic.
        for alg in Algorithm::ALL {
            let codec = alg.codec();
            let packed = codec.compress(&data);
            let cut = ((packed.len() as f64) * cut_fraction) as usize;
            let _ = codec.decompress(&packed[..cut]);
        }
    }

    #[test]
    fn bitfile_container_round_trips(
        name in "[a-zA-Z0-9_./=]{0,40}",
        part in "[a-z0-9]{1,16}",
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let file = BitFile {
            design_name: name,
            part,
            date: "2011/09/14".to_owned(),
            time: "11:35:17".to_owned(),
            data,
        };
        let parsed = BitFile::parse(&file.to_bytes()).expect("round-trip");
        prop_assert_eq!(parsed, file);
    }

    #[test]
    fn mode_word_round_trips(compressed in any::<bool>(), codec_id in 0u8..128, size in 0u32..(1 << 24)) {
        let codec_id = if compressed { codec_id } else { 0 };
        let m = ModeWord { compressed, codec_id, size_words: size };
        prop_assert_eq!(ModeWord::decode(m.encode()).expect("round-trip"), m);
    }

    #[test]
    fn bram_images_round_trip_payloads(payload in proptest::collection::vec(any::<u8>(), 0..1024), codec_id in 1u8..8) {
        let img = BramImage::compressed(codec_id, &payload);
        let (id, bytes) = img.compressed_payload().expect("round-trip");
        prop_assert_eq!(id, codec_id);
        prop_assert_eq!(bytes, payload);
    }
}
