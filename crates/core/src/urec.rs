//! UReC — the ultra-fast reconfiguration controller FSM (paper Fig. 4).
//!
//! UReC is deliberately tiny (26 slices, Table II): on "Start" it enables
//! the BRAM/ICAP clocks, reads the first BRAM word to learn the operation
//! mode and payload size (Fig. 3), then bursts **one word per clock edge**
//! without interruption — directly into the ICAP in raw mode, or to the
//! decompressor in compressed mode. When the payload is exhausted it raises
//! "Finish" and deasserts EN, gating the BRAM and ICAP clocks to save
//! power.
//!
//! The model is cycle-faithful: every call to [`Urec::rising_edge`] is one
//! CLK_2 edge and moves exactly one word (plus the one-cycle mode-word
//! read), so transfer time in cycles equals `1 + payload words` — the
//! property behind the 99%-of-theoretical bandwidth at 247 KB (Fig. 5).

use crate::error::UparcError;
use uparc_bitstream::bramimg::ModeWord;
use uparc_fpga::bram::{Bram, Port};
use uparc_fpga::{Icap, Sealed};

/// FSM state (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrecState {
    /// Waiting for "Start"; EN deasserted.
    Idle,
    /// First cycle after Start: reading the size|mode word.
    ReadMode,
    /// Burst transfer in progress.
    Stream,
    /// "Finish" raised; EN deasserted again.
    Done,
}

/// What happened on a clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrecEvent {
    /// Nothing (FSM idle or done).
    None,
    /// The mode word was read and decoded.
    ModeDecoded(ModeWord),
    /// One word moved from BRAM to the ICAP (raw mode).
    WordToIcap,
    /// One word fetched from BRAM for the decompressor (compressed mode).
    WordToDecompressor(u32),
    /// A zero-length image: "Finish" raised without moving any word. For
    /// non-empty images the final edge returns its word event and raises
    /// "Finish" simultaneously (check [`Urec::is_finished`]).
    Finished,
}

/// The UReC controller.
#[derive(Debug, Clone)]
pub struct Urec {
    state: UrecState,
    /// Next BRAM word address on port B.
    addr: usize,
    mode: Option<ModeWord>,
    remaining: u32,
    en: bool,
}

impl Default for Urec {
    fn default() -> Self {
        Self::new()
    }
}

impl Urec {
    /// A controller in the Idle state.
    #[must_use]
    pub fn new() -> Self {
        Urec {
            state: UrecState::Idle,
            addr: 0,
            mode: None,
            remaining: 0,
            en: false,
        }
    }

    /// Current FSM state.
    #[must_use]
    pub fn state(&self) -> UrecState {
        self.state
    }

    /// The EN signal (BRAM/ICAP clock enable).
    #[must_use]
    pub fn en(&self) -> bool {
        self.en
    }

    /// The decoded mode word, once read.
    #[must_use]
    pub fn mode(&self) -> Option<ModeWord> {
        self.mode
    }

    /// Whether "Finish" has been raised.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state == UrecState::Done
    }

    /// Asserts "Start": enables EN and arms the FSM.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already in progress.
    pub fn start(&mut self) {
        assert!(
            matches!(self.state, UrecState::Idle | UrecState::Done),
            "urec is already transferring"
        );
        self.state = UrecState::ReadMode;
        self.addr = 0;
        self.mode = None;
        self.remaining = 0;
        self.en = true;
    }

    /// One rising edge of CLK_2.
    ///
    /// # Errors
    ///
    /// Propagates BRAM/ICAP/mode-word errors; the FSM then parks in `Done`
    /// with EN deasserted (a hardware fault latch).
    pub fn rising_edge(
        &mut self,
        bram: &mut Bram,
        icap: &mut Icap,
    ) -> Result<UrecEvent, UparcError> {
        match self.state {
            UrecState::Idle | UrecState::Done => Ok(UrecEvent::None),
            UrecState::ReadMode => {
                let word = self.read_bram(bram)?;
                let mode = ModeWord::decode(word).map_err(|e| self.fault(e.into()))?;
                self.mode = Some(mode);
                self.remaining = mode.size_words;
                if mode.size_words == 0 {
                    self.finish();
                    return Ok(UrecEvent::Finished);
                }
                self.state = UrecState::Stream;
                Ok(UrecEvent::ModeDecoded(mode))
            }
            UrecState::Stream => {
                let word = self.read_bram(bram)?;
                let mode = self.mode.expect("stream state implies mode");
                self.remaining -= 1;
                let event = if mode.compressed {
                    UrecEvent::WordToDecompressor(word)
                } else {
                    icap.write_word(word).map_err(|e| self.fault(e.into()))?;
                    UrecEvent::WordToIcap
                };
                if self.remaining == 0 {
                    self.finish();
                }
                Ok(event)
            }
        }
    }

    /// Runs the armed transfer to completion in batch: cycle accounting and
    /// final state are identical to calling [`Urec::rising_edge`] in a loop
    /// (including the state left behind by a fault), but the payload moves
    /// as BRAM bursts into the ICAP's batched write path instead of one
    /// word per call.
    ///
    /// Returns the CLK_2 cycles consumed: one mode-word read plus one per
    /// payload word, identical to the per-edge count. In compressed mode
    /// the payload words fetched for the decompressor land in
    /// `to_decompressor` (cleared first, so its capacity is reused); in
    /// raw mode it is left empty.
    ///
    /// In raw mode, when the BRAM words streamed are exactly `staged`'s
    /// (one compare, the rule a packed image's transfer applies too), the
    /// ICAP takes them sealed ([`Icap::write_sealed`]); otherwise, as after
    /// a staged flip, it parses the BRAM words ([`Icap::write_words`]).
    /// Either way the ICAP's result and state are the same.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Urec::rising_edge`]; the FSM parks in `Done`
    /// with EN deasserted.
    pub fn run_burst(
        &mut self,
        bram: &mut Bram,
        icap: &mut Icap,
        to_decompressor: &mut Vec<u32>,
        staged: Option<&Sealed>,
    ) -> Result<u64, UparcError> {
        let mut cycles = 0u64;
        to_decompressor.clear();
        if self.state == UrecState::ReadMode {
            self.rising_edge(bram, icap)?;
            cycles += 1;
        }
        if matches!(self.state, UrecState::Idle | UrecState::Done) {
            return Ok(cycles);
        }
        let mode = self.mode.expect("stream state implies mode");
        let n = self.remaining as usize;
        // Clamp to what the BRAM can serve; any shortfall reproduces the
        // per-edge out-of-range fault after the served words.
        let avail = n.min(bram.capacity_words().saturating_sub(self.addr));
        if mode.compressed {
            to_decompressor.resize(avail, 0);
            bram.read_burst(Port::B, self.addr, to_decompressor)
                .map_err(|e| self.fault(e.into()))?;
            self.addr += avail;
            self.remaining -= avail as u32;
            cycles += avail as u64;
        } else {
            let before = icap.words_consumed();
            let result = match bram.word_range(self.addr, avail) {
                Ok(words) => match staged.filter(|s| s.words() == words) {
                    Some(sealed) => icap.write_sealed(sealed),
                    None => icap.write_words(words),
                },
                Err(e) => return Err(self.fault(e.into())),
            };
            // The ICAP counts every word it consumed — including the one a
            // protocol error stopped on — so its delta is exactly the
            // per-edge read/cycle count.
            let consumed = icap.words_consumed() - before;
            bram.account_reads(Port::B, consumed);
            self.addr += consumed as usize;
            self.remaining -= consumed as u32;
            cycles += consumed;
            result.map_err(|e| self.fault(e.into()))?;
        }
        if self.remaining > 0 {
            // The mode word claims more words than the BRAM holds; fault
            // exactly like the per-edge read at the first bad address.
            self.read_bram(bram)?;
            unreachable!("read past BRAM capacity must fail");
        }
        self.finish();
        Ok(cycles)
    }

    fn read_bram(&mut self, bram: &mut Bram) -> Result<u32, UparcError> {
        let word = bram
            .read_word(Port::B, self.addr)
            .map_err(|e| self.fault(e.into()))?;
        self.addr += 1;
        Ok(word)
    }

    fn finish(&mut self) {
        self.state = UrecState::Done;
        self.en = false;
    }

    fn fault(&mut self, e: UparcError) -> UparcError {
        self.finish();
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_bitstream::bramimg::BramImage;
    use uparc_bitstream::builder::PartialBitstream;
    use uparc_fpga::{Device, Family};

    fn setup(frames: u32) -> (Bram, Icap, PartialBitstream) {
        let device = Device::xc5vsx50t();
        let payload = vec![0x5A5A_A5A5u32; device.family().frame_words() * frames as usize];
        let bs = PartialBitstream::build(&device, 10, &payload);
        let mut bram = Bram::new(Family::Virtex5, 256 * 1024);
        let img = BramImage::uncompressed(bs.words());
        bram.load_image(Port::A, 0, img.words()).unwrap();
        (bram, Icap::new(device), bs)
    }

    #[test]
    fn transfer_takes_exactly_one_cycle_per_word_plus_mode_read() {
        let (mut bram, mut icap, bs) = setup(3);
        let mut urec = Urec::new();
        assert!(!urec.en());
        urec.start();
        assert!(urec.en());
        let mut cycles = 0u64;
        while !urec.is_finished() {
            urec.rising_edge(&mut bram, &mut icap).unwrap();
            cycles += 1;
        }
        assert_eq!(cycles, 1 + bs.words().len() as u64);
        assert!(!urec.en(), "EN gated after Finish");
        assert_eq!(icap.frames_committed(), 3);
    }

    #[test]
    fn mode_word_is_decoded_on_first_edge() {
        let (mut bram, mut icap, bs) = setup(1);
        let mut urec = Urec::new();
        urec.start();
        let ev = urec.rising_edge(&mut bram, &mut icap).unwrap();
        match ev {
            UrecEvent::ModeDecoded(mode) => {
                assert!(!mode.compressed);
                assert_eq!(mode.size_words as usize, bs.words().len());
            }
            other => panic!("expected mode decode, got {other:?}"),
        }
    }

    #[test]
    fn compressed_mode_routes_words_to_decompressor() {
        let mut bram = Bram::new(Family::Virtex5, 4096);
        let img = BramImage::compressed(3, &[1, 2, 3, 4, 5, 6, 7, 8]);
        bram.load_image(Port::A, 0, img.words()).unwrap();
        let mut icap = Icap::new(Device::xc5vsx50t());
        let mut urec = Urec::new();
        urec.start();
        urec.rising_edge(&mut bram, &mut icap).unwrap(); // mode
        let ev = urec.rising_edge(&mut bram, &mut icap).unwrap();
        assert!(matches!(ev, UrecEvent::WordToDecompressor(_)));
        // Nothing must reach the ICAP directly in compressed mode.
        assert_eq!(icap.words_consumed(), 0);
    }

    #[test]
    fn idle_and_done_edges_are_noops() {
        let (mut bram, mut icap, _) = setup(1);
        let mut urec = Urec::new();
        assert_eq!(
            urec.rising_edge(&mut bram, &mut icap).unwrap(),
            UrecEvent::None
        );
        urec.start();
        while !urec.is_finished() {
            urec.rising_edge(&mut bram, &mut icap).unwrap();
        }
        assert_eq!(
            urec.rising_edge(&mut bram, &mut icap).unwrap(),
            UrecEvent::None
        );
    }

    #[test]
    fn restart_after_done_is_allowed() {
        let (mut bram, mut icap, _) = setup(2);
        let mut urec = Urec::new();
        for _ in 0..2 {
            urec.start();
            while !urec.is_finished() {
                urec.rising_edge(&mut bram, &mut icap).unwrap();
            }
        }
        assert_eq!(icap.frames_committed(), 4);
    }

    #[test]
    #[should_panic(expected = "already transferring")]
    fn double_start_panics() {
        let (_, _, _) = setup(1);
        let mut urec = Urec::new();
        urec.start();
        urec.start();
    }

    #[test]
    fn zero_size_image_finishes_immediately() {
        let mut bram = Bram::new(Family::Virtex5, 4096);
        let img = BramImage::uncompressed(&[]);
        bram.load_image(Port::A, 0, img.words()).unwrap();
        let mut icap = Icap::new(Device::xc5vsx50t());
        let mut urec = Urec::new();
        urec.start();
        assert_eq!(
            urec.rising_edge(&mut bram, &mut icap).unwrap(),
            UrecEvent::Finished
        );
    }

    /// Runs per-edge to completion or first error; returns the cycles and
    /// the words fetched for the decompressor, as the burst reports them.
    fn run_edges(
        urec: &mut Urec,
        bram: &mut Bram,
        icap: &mut Icap,
    ) -> Result<(u64, Vec<u32>), UparcError> {
        let mut cycles = 0u64;
        let mut to_decompressor = Vec::new();
        while !urec.is_finished() {
            let ev = urec.rising_edge(bram, icap)?;
            cycles += 1;
            if let UrecEvent::WordToDecompressor(w) = ev {
                to_decompressor.push(w);
            }
        }
        Ok((cycles, to_decompressor))
    }

    /// Runs the burst to completion or first error, in the same shape as
    /// [`run_edges`]; the fetch buffer starts dirty to show it is cleared.
    fn run_burst(
        urec: &mut Urec,
        bram: &mut Bram,
        icap: &mut Icap,
        staged: Option<&Sealed>,
    ) -> Result<(u64, Vec<u32>), UparcError> {
        let mut to_decompressor = vec![0xDEAD_BEEF];
        let cycles = urec.run_burst(bram, icap, &mut to_decompressor, staged)?;
        Ok((cycles, to_decompressor))
    }

    #[test]
    fn burst_matches_per_edge_raw_transfer() {
        // A plain burst, and a burst handed the staged stream, which it
        // writes sealed while the BRAM holds exactly those words: both
        // match the per-edge run, on a clean BRAM and after a flip in the
        // payload (which the CRC then catches).
        for flip in [false, true] {
            for sealed in [false, true] {
                let (mut bram_a, mut icap_a, _) = setup(5);
                let (mut bram_b, mut icap_b, bs) = setup(5);
                if flip {
                    bram_a.corrupt_bit(40, 3).unwrap();
                    bram_b.corrupt_bit(40, 3).unwrap();
                }
                let mut edge = Urec::new();
                edge.start();
                let by_edge = run_edges(&mut edge, &mut bram_a, &mut icap_a);
                let mut burst = Urec::new();
                burst.start();
                let staged = sealed.then(|| bs.sealed());
                let by_burst = run_burst(&mut burst, &mut bram_b, &mut icap_b, staged);
                assert_eq!(by_edge, by_burst, "flip {flip}, sealed {sealed}");
                assert_eq!(by_edge.is_err(), flip);
                assert_eq!(edge.state(), burst.state());
                assert_eq!(icap_a.words_consumed(), icap_b.words_consumed());
                assert_eq!(icap_a.frames_committed(), icap_b.frames_committed());
                assert_eq!(bram_a.read_count(Port::B), bram_b.read_count(Port::B));
                assert_eq!(
                    icap_a.config_memory().diff_frames(icap_b.config_memory()),
                    0
                );
            }
        }
    }

    #[test]
    fn burst_matches_per_edge_compressed_fetch() {
        let payload: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        let mk = || {
            let mut bram = Bram::new(Family::Virtex5, 8192);
            bram.load_image(Port::A, 0, BramImage::compressed(4, &payload).words())
                .unwrap();
            (bram, Icap::new(Device::xc5vsx50t()))
        };
        let (mut bram_a, mut icap_a) = mk();
        let (mut bram_b, mut icap_b) = mk();
        let mut edge = Urec::new();
        edge.start();
        let by_edge = run_edges(&mut edge, &mut bram_a, &mut icap_a).unwrap();
        let mut burst = Urec::new();
        burst.start();
        let by_burst = run_burst(&mut burst, &mut bram_b, &mut icap_b, None).unwrap();
        assert_eq!(by_edge, by_burst);
        assert_eq!(bram_a.read_count(Port::B), bram_b.read_count(Port::B));
        assert_eq!(
            icap_b.words_consumed(),
            0,
            "compressed mode bypasses the ICAP"
        );
    }

    #[test]
    fn burst_faults_identically_on_short_bram() {
        // Mode word claims more words than the BRAM holds.
        let mk = || {
            let mut bram = Bram::new(Family::Virtex5, 8);
            bram.write_word(
                Port::A,
                0,
                ModeWord {
                    compressed: false,
                    codec_id: 0,
                    size_words: 100,
                }
                .encode(),
            )
            .unwrap();
            (bram, Icap::new(Device::xc5vsx50t()))
        };
        let (mut bram_a, mut icap_a) = mk();
        let (mut bram_b, mut icap_b) = mk();
        let mut edge = Urec::new();
        edge.start();
        let err_edge = run_edges(&mut edge, &mut bram_a, &mut icap_a).unwrap_err();
        let mut burst = Urec::new();
        burst.start();
        let err_burst = run_burst(&mut burst, &mut bram_b, &mut icap_b, None).unwrap_err();
        assert_eq!(format!("{err_edge}"), format!("{err_burst}"));
        assert!(burst.is_finished() && !burst.en());
        assert_eq!(bram_a.read_count(Port::B), bram_b.read_count(Port::B));
        assert_eq!(icap_a.words_consumed(), icap_b.words_consumed());
    }

    #[test]
    fn burst_on_zero_size_image_takes_one_cycle() {
        let mut bram = Bram::new(Family::Virtex5, 4096);
        bram.load_image(Port::A, 0, BramImage::uncompressed(&[]).words())
            .unwrap();
        let mut icap = Icap::new(Device::xc5vsx50t());
        let mut urec = Urec::new();
        urec.start();
        assert_eq!(
            run_burst(&mut urec, &mut bram, &mut icap, None).unwrap(),
            (1, vec![])
        );
        assert!(urec.is_finished());
    }

    #[test]
    fn fault_latches_done_and_gates_en() {
        // BRAM too small: address runs off the end mid-transfer.
        let mut bram = Bram::new(Family::Virtex5, 8);
        // Mode word claims 100 words.
        bram.write_word(
            Port::A,
            0,
            ModeWord {
                compressed: false,
                codec_id: 0,
                size_words: 100,
            }
            .encode(),
        )
        .unwrap();
        let mut icap = Icap::new(Device::xc5vsx50t());
        let mut urec = Urec::new();
        urec.start();
        let mut err = None;
        for _ in 0..10 {
            match urec.rising_edge(&mut bram, &mut icap) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.is_some());
        assert!(urec.is_finished());
        assert!(!urec.en());
    }
}
