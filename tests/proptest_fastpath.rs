//! Property-based equivalence tests for the batched fast paths.
//!
//! Every fast path in the tree is paired with the slow path it replaces
//! and must be *bit-exact* with it — same outputs, same counters, same
//! errors at the same positions. These tests enforce that contract on
//! randomized inputs:
//!
//! * batched [`Icap::write_words`] ≡ one [`Icap::write_word`] per word, on
//!   well-formed, corrupted, truncated and off-device streams, under any
//!   chunking of the input, with upsets struck into the plane first so
//!   the frames' ECC state is compared too;
//! * [`Icap::write_sealed`] of a [`Sealed`] stream ≡ [`Icap::write_words`]
//!   of its signed words, on the same streams and on reshaped ones whose
//!   runs must not fold, with and without an armed CRC glitch and after an
//!   arbitrary prefix, so a sealed run's CRC folds into any register and
//!   parser state;
//! * the two-level-LUT Huffman decoder ≡ the bit-at-a-time reference.

use proptest::prelude::*;
use uparc_repro::compress::bitio::{BitReader, BitWriter};
use uparc_repro::compress::huffman::{canonical_codes, code_lengths, CanonicalDecoder};
use uparc_repro::fpga::format::{
    type1, type2, Command, ConfigCrc, ConfigRegister, Opcode, DUMMY_WORD, NOOP, SYNC_WORD,
};
use uparc_repro::fpga::{Device, Icap, Sealed};

// ---------------------------------------------------------------- ICAP --

/// Builds a well-formed partial bitstream configuring `frames` frames of
/// `fill`-derived content starting at `far` — without going through
/// `PartialBitstream`, so out-of-range FARs can be encoded too.
fn stream(dev: &Device, far: u32, payload: &[u32]) -> Vec<u32> {
    let mut v = vec![DUMMY_WORD, SYNC_WORD, NOOP];
    let mut crc = ConfigCrc::new();
    let push = |v: &mut Vec<u32>, crc: &mut ConfigCrc, reg: ConfigRegister, w: u32| {
        v.push(type1(Opcode::Write, reg, 1));
        v.push(w);
        crc.update(reg, w);
    };
    push(&mut v, &mut crc, ConfigRegister::Cmd, Command::Rcrc as u32);
    crc.reset();
    push(&mut v, &mut crc, ConfigRegister::Idcode, dev.idcode());
    push(&mut v, &mut crc, ConfigRegister::Cmd, Command::Wcfg as u32);
    push(&mut v, &mut crc, ConfigRegister::Far, far);
    v.push(type1(Opcode::Write, ConfigRegister::Fdri, 0));
    v.push(type2(Opcode::Write, payload.len() as u32));
    for &w in payload {
        v.push(w);
        crc.update(ConfigRegister::Fdri, w);
    }
    v.push(type1(Opcode::Write, ConfigRegister::Crc, 1));
    v.push(crc.value());
    v.push(type1(Opcode::Write, ConfigRegister::Cmd, 1));
    v.push(Command::Desync as u32);
    v
}

/// Asserts the two ports ended in the same externally observable state,
/// including the ECC state of the frames `case` struck.
fn assert_same_state(fast: &Icap, slow: &Icap, case: &IcapCase) {
    assert_eq!(fast.words_consumed(), slow.words_consumed(), "word counter");
    assert_eq!(
        fast.frames_committed(),
        slow.frames_committed(),
        "frame counter"
    );
    assert_eq!(fast.status(), slow.status(), "port status");
    assert_eq!(
        fast.config_memory().diff_frames(slow.config_memory()),
        0,
        "configuration plane contents"
    );
    assert_eq!(
        fast.config_memory().write_count(),
        slow.config_memory().write_count(),
        "frame write count"
    );
    for far in case.struck_frames() {
        assert_eq!(
            fast.config_memory().ecc_check(far),
            slow.config_memory().ecc_check(far),
            "ECC state of frame {far}"
        );
    }
}

/// A randomized stream and the upsets struck into a port before it
/// streams: a data bit in a frame the stream writes, and a data bit and a
/// parity bit in two frames it does not write. A written frame's upset is
/// overwritten by the per-frame path (`write_frame`) or the multi-frame
/// path (`write_frames`), whichever commits it; the others must survive
/// both.
#[derive(Debug, Clone)]
struct IcapCase {
    words: Vec<u32>,
    /// `(far, word, bit)`: in a written frame, then in an unwritten one.
    data_strikes: [(u32, usize, u32); 2],
    /// `(far, bit)` of the stored parity word of an unwritten frame.
    parity_strike: (u32, u32),
}

impl IcapCase {
    /// A fresh port with this case's upsets struck.
    fn port(&self) -> Icap {
        let mut icap = Icap::new(Device::xc5vsx50t());
        for (far, word, bit) in self.data_strikes {
            icap.inject_upset(far, word, bit)
                .expect("inside the geometry");
        }
        let (far, bit) = self.parity_strike;
        icap.inject_parity_upset(far, bit)
            .expect("inside the geometry");
        icap
    }

    fn struck_frames(&self) -> [u32; 3] {
        [
            self.data_strikes[0].0,
            self.data_strikes[1].0,
            self.parity_strike.0,
        ]
    }
}

/// A randomized stream: a well-formed base, optionally mutated (bit flip,
/// truncation, or an off-device FAR), for a handful of frames, with its
/// upsets derived from the same draw.
fn icap_stream_strategy() -> impl Strategy<Value = IcapCase> {
    let dev = Device::xc5vsx50t();
    let fw = dev.family().frame_words();
    let device_frames = dev.frames();
    (
        0u32..1000,
        0usize..5,
        proptest::collection::vec(any::<u32>(), 0..(5 * fw)),
        prop_oneof![
            Just(0u8), // pristine
            Just(1),   // single bit flip
            Just(2),   // truncation
            Just(3),   // FAR pushed off the device
        ],
        any::<u32>(),
    )
        .prop_map(move |(far, frames, pool, mutation, r)| {
            let payload = &pool[..(frames * fw).min(pool.len()) / fw * fw];
            let far = if mutation == 3 {
                device_frames - 1
            } else {
                far
            };
            let mut s = stream(&dev, far, payload);
            match mutation {
                1 => {
                    let i = r as usize % s.len();
                    s[i] ^= 1 << (r % 32);
                }
                2 => s.truncate(r as usize % (s.len() + 1)),
                _ => {}
            }
            // The upsets: a frame of the payload (or `far` itself when
            // there is none), then two frames at the other end of the
            // device from it.
            let h = r.wrapping_mul(0x9E37_79B9);
            let written_frames = (payload.len() / fw).max(1) as u32;
            let written = (far + h % written_frames).min(device_frames - 1);
            let spare = if far < device_frames / 2 {
                device_frames - 2 - h % 8
            } else {
                h % 8
            };
            let word = |x: u32| x as usize % fw;
            IcapCase {
                words: s,
                data_strikes: [
                    (written, word(h >> 3), (h >> 11) % 32),
                    (spare, word(h >> 16), (h >> 24) % 32),
                ],
                parity_strike: (spare + 1, (h >> 27) % 32),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_icap_equals_per_cycle_reference(case in icap_stream_strategy()) {
        let words = &case.words;
        let mut fast = case.port();
        let mut slow = case.port();
        let fr = fast.write_words(words);
        let sr = words.iter().try_for_each(|&w| slow.write_word(w));
        prop_assert_eq!(
            fr.map_err(|e| e.to_string()),
            sr.map_err(|e| e.to_string()),
            "result mismatch"
        );
        assert_same_state(&fast, &slow, &case);
    }

    #[test]
    fn batched_icap_is_chunking_invariant(
        case in icap_stream_strategy(),
        cuts in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let words = &case.words;
        let mut whole = case.port();
        let whole_result = whole.write_words(words).map_err(|e| e.to_string());

        // Feed the same stream in arbitrary pieces; stop at the first
        // error exactly like the single call does.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|&c| c as usize % (words.len() + 1)).collect();
        bounds.push(0);
        bounds.push(words.len());
        bounds.sort_unstable();
        let mut chunked = case.port();
        let mut chunked_result = Ok(());
        for pair in bounds.windows(2) {
            let r = chunked.write_words(&words[pair[0]..pair[1]]);
            if let Err(e) = r {
                chunked_result = Err(e.to_string());
                break;
            }
        }
        prop_assert_eq!(whole_result, chunked_result, "result mismatch");
        assert_same_state(&chunked, &whole, &case);
    }
}

/// Reshapes the FDRI write of a [`stream`]-built case that still holds it
/// whole, so that one of the conditions a sealed run must meet to fold
/// fails alone: 1 puts a ragged packet of `k` (1..frame) words before it
/// (the run starts with a partial frame buffered), 2 cuts the stream at a
/// frame boundary inside it (the port is owed more words than the run
/// holds), 3 appends `k` words to it (its tail is a partial frame).
fn reshape(words: &mut Vec<u32>, shape: u8, k: usize, fw: usize) {
    let fdri = type1(Opcode::Write, ConfigRegister::Fdri, 0);
    let n = words.get(12).map_or(0, |&w| w & 0x07FF_FFFF) as usize;
    let whole = words.len() > 13 + n
        && words[11] == fdri
        && words[12] == type2(Opcode::Write, n as u32)
        && n > 0;
    if !whole {
        return;
    }
    let k = 1 + k % (fw - 1);
    match shape {
        1 => {
            let ragged = std::iter::once(type1(Opcode::Write, ConfigRegister::Fdri, k as u32))
                .chain((0..k as u32).map(|j| j.wrapping_mul(0x0101_0101)));
            words.splice(11..11, ragged);
        }
        2 if n > fw => words.truncate(13 + (1 + k % (n / fw - 1)) * fw),
        3 => {
            words[12] = type2(Opcode::Write, (n + k) as u32);
            words.splice(13 + n..13 + n, (0..k as u32).map(|j| !j));
        }
        _ => {}
    }
}

/// A prefix to stream before the case: nothing, a whole well-formed stream
/// (the port ends desynced, its CRC register wherever that stream left
/// it), or a cut of one (the port may end mid-header, mid-run or synced).
fn prefix_strategy() -> impl Strategy<Value = Vec<u32>> {
    let dev = Device::xc5vsx50t();
    let fw = dev.family().frame_words();
    (0u8..3, any::<u32>()).prop_map(move |(kind, r)| {
        let payload: Vec<u32> = (0..(r % 3) as usize * fw)
            .map(|i| (i as u32).wrapping_mul(r | 1))
            .collect();
        let whole = stream(&dev, r % 900, &payload);
        match kind {
            0 => Vec::new(),
            1 => whole,
            _ => whole[..r as usize % (whole.len() + 1)].to_vec(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sealed_icap_equals_batched_words(
        case in icap_stream_strategy(),
        prefix in prefix_strategy(),
        shape in 0u8..6,
        k in any::<usize>(),
        glitch in any::<bool>(),
        keep_rcrc in any::<bool>(),
    ) {
        let fw = case.port().config_memory().frame_words();
        // Without its RCRC the stream's runs fold into whatever register
        // the prefix left, and its check word is foreign to that register.
        let mut words = case.words.clone();
        if !keep_rcrc && words.get(4) == Some(&(Command::Rcrc as u32)) {
            words[4] = Command::Null as u32;
        }
        reshape(&mut words, shape, k, fw);
        let sealed = Sealed::sign(words);
        let mut port = case.port();
        let _ = port.write_words(&prefix);
        if glitch {
            port.arm_transient_crc();
        }
        let mut sealed_port = port.clone();
        let reference = port.write_words(sealed.words());
        prop_assert_eq!(sealed_port.write_sealed(&sealed), reference, "result mismatch");
        assert_same_state(&sealed_port, &port, &case);
        // A probe after a fresh sync reads out what the counters do not:
        // a frame written without a FAR write lands where the port's FAR
        // points, and the CRC check reports the register in its mismatch
        // (or both ports fail the same way).
        let probe: Vec<u32> = [
            SYNC_WORD,
            type1(Opcode::Write, ConfigRegister::Cmd, 1),
            Command::Wcfg as u32,
            type1(Opcode::Write, ConfigRegister::Fdri, fw as u32),
        ]
        .into_iter()
        .chain(std::iter::repeat_n(0xFACE_0FF5, fw))
        .chain([type1(Opcode::Write, ConfigRegister::Crc, 1), 0])
        .collect();
        prop_assert_eq!(sealed_port.write_words(&probe), port.write_words(&probe), "probe");
        assert_same_state(&sealed_port, &port, &case);
    }
}

// ------------------------------------------------------------- Huffman --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lut_huffman_decode_matches_bit_at_a_time(
        freqs in proptest::collection::vec(0u64..1000, 2..260),
        picks in proptest::collection::vec(any::<u32>(), 0..400),
    ) {
        // At least two coded symbols, so a real tree exists.
        let mut freqs = freqs;
        freqs[0] = freqs[0].max(1);
        freqs[1] = freqs[1].max(1);

        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        let coded: Vec<u32> = (0..freqs.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();

        // Encode a random message MSB-first, exactly as the codecs do.
        let message: Vec<u32> =
            picks.iter().map(|&p| coded[p as usize % coded.len()]).collect();
        let mut w = BitWriter::new();
        for &sym in &message {
            let (code, len) = codes[sym as usize];
            for i in (0..len).rev() {
                w.write_bit((code >> i) & 1 == 1);
            }
        }
        let bytes = w.finish();

        let decoder = CanonicalDecoder::from_lengths(&lengths).expect("valid lengths");
        let mut slow = BitReader::new(&bytes);
        let mut fast = BitReader::new(&bytes);
        for (i, &expect) in message.iter().enumerate() {
            let s = decoder.decode(&mut slow).expect("reference decode");
            let f = decoder.decode_fast(&mut fast).expect("fast decode");
            prop_assert_eq!(s, expect, "reference wrong at {}", i);
            prop_assert_eq!(f, expect, "fast path wrong at {}", i);
            prop_assert_eq!(slow.remaining(), fast.remaining(), "cursor split at {}", i);
        }
    }
}
