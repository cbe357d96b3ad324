//! The Internal Configuration Access Port (ICAP) model.
//!
//! ICAP is the hardwired primitive through which a design reconfigures its
//! own device (paper Fig. 1). The model is a streaming parser: it accepts
//! exactly **one 32-bit word per clock cycle** (the property every fast
//! controller exploits — reconfiguration bandwidth is `4 bytes × f`), decodes
//! the packet protocol of [`crate::format`], and commits configuration
//! frames to a [`ConfigMemory`].
//!
//! Timing is externalised: callers count the words they pushed
//! ([`Icap::words_consumed`]) and convert to time with the clock they drive
//! the port at. [`Icap::set_frequency`] enforces the per-family overclock
//! ceiling the paper established experimentally (§IV).

use crate::config_mem::ConfigMemory;
use crate::device::Device;
use crate::error::FpgaError;
use crate::format::{
    decode, Command, ConfigCrc, ConfigRegister, Opcode, Packet, RunCrc, SYNC_WORD,
};
use crate::seal::{Sealed, SealedRun};
use uparc_sim::obs::Obs;
use uparc_sim::time::{Frequency, SimTime};

/// Result of pushing one word: whether the stream reached DESYNC (end of a
/// well-formed bitstream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcapStatus {
    /// Port is waiting for a sync word.
    Desynced,
    /// Port is synchronised and parsing packets.
    Synced,
}

/// The ICAP primitive attached to a device's configuration memory.
///
/// # Example
///
/// ```
/// use uparc_fpga::{Device, Icap};
/// use uparc_sim::time::Frequency;
///
/// let mut icap = Icap::new(Device::xc5vsx50t());
/// icap.set_frequency(Frequency::from_mhz(362.5))?; // paper's maximum
/// assert!(icap.set_frequency(Frequency::from_mhz(400.0)).is_err());
/// # Ok::<(), uparc_fpga::FpgaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Icap {
    device: Device,
    cfg: ConfigMemory,
    freq: Frequency,
    status: IcapStatus,
    crc: ConfigCrc,
    /// Register addressed by the last type-1 header (type-2 extends it).
    last_reg: Option<ConfigRegister>,
    /// Payload words still owed to `pending_reg`.
    pending_count: u32,
    pending_reg: Option<ConfigRegister>,
    /// Partial frame being assembled from FDRI words.
    frame_buf: Vec<u32>,
    far: u32,
    wcfg_enabled: bool,
    idcode_ok: bool,
    words: u64,
    frames_committed: u64,
    /// Simple register file for the registers the model stores verbatim.
    regs: [u32; 14],
    /// Armed fault: the next CRC comparison latches a corrupted checksum
    /// even if the stream arrived intact (marginal overclocked timing).
    crc_glitch: bool,
    /// Observability handle. The port is a cycle model with no notion of
    /// [`SimTime`], so it reports metrics only (burst/word counters); the
    /// time-stamped `IcapBurst` spans are emitted by the controller that
    /// drives it. Defaults to the disabled [`Obs::null`] handle.
    obs: Obs,
}

impl Icap {
    /// Creates a desynced ICAP for `device`, clocked at the datasheet
    /// specification frequency.
    #[must_use]
    pub fn new(device: Device) -> Self {
        let cfg = ConfigMemory::for_device(&device);
        let freq = device.family().icap_spec_frequency();
        let frame_words = device.family().frame_words();
        Icap {
            device,
            cfg,
            freq,
            status: IcapStatus::Desynced,
            crc: ConfigCrc::new(),
            last_reg: None,
            pending_count: 0,
            pending_reg: None,
            frame_buf: Vec::with_capacity(frame_words),
            far: 0,
            wcfg_enabled: false,
            idcode_ok: false,
            words: 0,
            frames_committed: 0,
            regs: [0; 14],
            crc_glitch: false,
            obs: Obs::null(),
        }
    }

    /// Attaches an observability handle; the port feeds the
    /// `icap.bursts` / `icap.words` counters through it. Pass
    /// [`Obs::null`] to detach.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Returns the port to its power-on state (the effect of a JPROGRAM /
    /// global reset): desynced, CRC and counters cleared, configuration
    /// plane zeroed. Keeps the existing allocations — unlike building a
    /// fresh [`Icap`], no memory is reallocated.
    pub fn reset(&mut self) {
        self.cfg.clear();
        self.status = IcapStatus::Desynced;
        self.crc = ConfigCrc::new();
        self.last_reg = None;
        self.pending_count = 0;
        self.pending_reg = None;
        self.frame_buf.clear();
        self.far = 0;
        self.wcfg_enabled = false;
        self.idcode_ok = false;
        self.words = 0;
        self.frames_committed = 0;
        self.regs = [0; 14];
        self.crc_glitch = false;
    }

    /// Aborts an in-flight configuration stream: desyncs the port and
    /// clears all *parser* state — CRC, partial frame, pending payload —
    /// while keeping the configuration plane and the cycle counters intact.
    ///
    /// This is what a controller does after a mid-stream error before
    /// retrying: already-committed frames stay committed (they were
    /// CRC-clean when written), and the next stream starts from a clean
    /// protocol state. Contrast with [`Icap::reset`], which zeroes the
    /// whole configuration plane.
    pub fn abort(&mut self) {
        self.status = IcapStatus::Desynced;
        self.crc = ConfigCrc::new();
        self.last_reg = None;
        self.pending_count = 0;
        self.pending_reg = None;
        self.frame_buf.clear();
        self.wcfg_enabled = false;
        self.idcode_ok = false;
    }

    /// The device this port belongs to.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Current port clock.
    #[must_use]
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// Sets the port clock.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrequencyTooHigh`] above the family's empirically
    /// reliable ceiling (V5: 362.5 MHz; V6: 358 MHz — §IV).
    pub fn set_frequency(&mut self, freq: Frequency) -> Result<(), FpgaError> {
        let max = self.device.family().icap_overclock_limit();
        if freq > max {
            return Err(FpgaError::FrequencyTooHigh {
                requested: freq,
                max,
            });
        }
        self.freq = freq;
        Ok(())
    }

    /// Synchronisation status.
    #[must_use]
    pub fn status(&self) -> IcapStatus {
        self.status
    }

    /// Total words clocked into the port (one per cycle).
    #[must_use]
    pub fn words_consumed(&self) -> u64 {
        self.words
    }

    /// Frames committed to configuration memory.
    #[must_use]
    pub fn frames_committed(&self) -> u64 {
        self.frames_committed
    }

    /// Time spent consuming `words` at the current clock (1 word/cycle).
    #[must_use]
    pub fn transfer_time(&self, words: u64) -> SimTime {
        self.freq.time_of_cycles(words)
    }

    /// The configuration memory behind the port.
    #[must_use]
    pub fn config_memory(&self) -> &ConfigMemory {
        &self.cfg
    }

    /// Reads back `frames` frames starting at `far` (the RCFG/FDRO path),
    /// in place: the frames come back as one borrowed slice of the
    /// configuration plane, and a caller that keeps them copies them.
    /// Readback consumes one port cycle per word, like configuration.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] if the range leaves the device.
    pub fn readback(&mut self, far: u32, frames: u32) -> Result<&[u32], FpgaError> {
        let words = self.cfg.read_frames(far, frames)?;
        self.words += words.len() as u64;
        Ok(words)
    }

    /// Injects a single-event upset: flips `bit` of word `word_idx` in
    /// frame `far` — the radiation fault model behind the scrubbing
    /// experiments (the fault-tolerance motivation of the paper's §I).
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] for an address outside the device;
    /// [`FpgaError::UpsetOutOfRange`] if `word_idx` or `bit` exceed the
    /// frame geometry.
    pub fn inject_upset(&mut self, far: u32, word_idx: usize, bit: u32) -> Result<(), FpgaError> {
        // Radiation flips the bit but does not update the frame's ECC
        // parity — that asymmetry is what the syndrome check detects.
        self.cfg.corrupt_bit(far, word_idx, bit)
    }

    /// Injects an upset into the stored ECC *parity word* of frame `far`
    /// (the check bits themselves take the hit, not the data).
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrameOutOfRange`] for an address outside the device;
    /// [`FpgaError::UpsetOutOfRange`] if `bit` is not below 32.
    pub fn inject_parity_upset(&mut self, far: u32, bit: u32) -> Result<(), FpgaError> {
        self.cfg.corrupt_parity_bit(far, bit)
    }

    /// Arms a transient CRC fault: the next CRC register comparison latches
    /// a corrupted checksum and reports [`FpgaError::CrcMismatch`] even if
    /// the stream arrived intact — the marginal-timing failure mode of the
    /// overclocked operating points (§IV). The fault is consumed by one
    /// comparison; a retry at the same or a safer clock succeeds.
    pub fn arm_transient_crc(&mut self) {
        self.crc_glitch = true;
    }

    /// Consumes the whole `words` slice, one word per cycle.
    ///
    /// This is the batched path and the reference for
    /// [`Icap::write_sealed`]: pre-sync dummy words are skipped with a
    /// single scan for the sync word, and FDRI payload runs are committed
    /// frame-at-a-time straight from the input slice (slicing-by-40 CRC,
    /// no per-word buffering). Packet headers and non-FDRI payloads take
    /// the exact per-word path. State evolution — including the state left
    /// behind by the first error — is bit-exact with calling
    /// [`Icap::write_word`] once per word (pinned by this module's unit
    /// tests and `tests/proptest_fastpath.rs`).
    ///
    /// # Errors
    ///
    /// Propagates the first protocol error (see [`Icap::write_word`]).
    pub fn write_words(&mut self, words: &[u32]) -> Result<(), FpgaError> {
        self.write_stream(words, &[])
    }

    /// Consumes a sealed stream's words, one word per cycle, exactly as
    /// [`Icap::write_words`] does, except at the start of an FDRI run the
    /// seal computed: when the whole run is pending, WCFG is on, no
    /// partial frame is buffered and the run's whole frames all lie on the
    /// device, the run commits in one multi-frame write and its CRC
    /// contribution folds into the register with one GF(2) multiply,
    /// instead of five table lookups per word. Any other run, every header,
    /// IDCODE, RCRC, the CRC comparison and an armed transient glitch go
    /// the way `write_words` takes them, so the result and the state left
    /// behind, errors included, are those of `write_words` on
    /// [`Sealed::words`] (pinned by this module's unit tests and
    /// `tests/proptest_fastpath.rs`). The CRC is still computed and
    /// compared, not assumed.
    ///
    /// # Errors
    ///
    /// Propagates the first protocol error (see [`Icap::write_word`]).
    pub fn write_sealed(&mut self, sealed: &Sealed) -> Result<(), FpgaError> {
        self.write_stream(sealed.words(), sealed.runs())
    }

    /// The parser loop of [`Icap::write_words`] and [`Icap::write_sealed`]:
    /// `runs` are the sealed FDRI runs of `words`, in stream order.
    fn write_stream(&mut self, words: &[u32], mut runs: &[SealedRun]) -> Result<(), FpgaError> {
        self.obs.count("icap.bursts", 1);
        self.obs.count("icap.words", words.len() as u64);
        let mut i = 0;
        while i < words.len() {
            if self.status == IcapStatus::Desynced {
                // Everything before the sync word is ignored; jump there.
                match words[i..].iter().position(|&w| w == SYNC_WORD) {
                    Some(k) => {
                        self.words += (k + 1) as u64;
                        self.status = IcapStatus::Synced;
                        i += k + 1;
                        continue;
                    }
                    None => {
                        self.words += (words.len() - i) as u64;
                        return Ok(());
                    }
                }
            }
            if self.pending_count > 0
                && self.pending_reg == Some(ConfigRegister::Fdri)
                && self.wcfg_enabled
            {
                while runs.first().is_some_and(|run| run.offset < i) {
                    runs = &runs[1..];
                }
                if let Some(run) = runs.first().filter(|run| run.offset == i) {
                    if self.fold_run(&words[i..i + run.len], run.crc) {
                        i += run.len;
                        continue;
                    }
                }
                let n = (self.pending_count as usize).min(words.len() - i);
                self.write_fdri_run(&words[i..i + n])?;
                i += n;
                continue;
            }
            self.write_word(words[i])?;
            i += 1;
        }
        Ok(())
    }

    /// The sealed fast path: commits `run`, a whole pending FDRI run of
    /// whole frames that all lie on the device, in one multi-frame write,
    /// and folds `crc`, its contribution, into the register. Returns
    /// `false`, with nothing touched, for a run that does not qualify.
    fn fold_run(&mut self, run: &[u32], crc: RunCrc) -> bool {
        let fw = self.cfg.frame_words();
        if run.len() != self.pending_count as usize
            || !self.frame_buf.is_empty()
            || !run.len().is_multiple_of(fw)
        {
            return false;
        }
        // The run is the whole pending count, so its frames fit a u32.
        let frames = self.pending_count / fw as u32;
        if self
            .far
            .checked_add(frames)
            .is_none_or(|end| end > self.cfg.frames())
        {
            return false;
        }
        self.cfg
            .write_frames(self.far, run)
            .expect("the run's frames lie on the device");
        self.crc.fold(crc);
        self.words += run.len() as u64;
        self.pending_count = 0;
        self.frames_committed += u64::from(frames);
        self.far += frames;
        true
    }

    /// Consumes an FDRI payload run (WCFG already enabled, `run.len()` not
    /// exceeding the pending count), committing whole frames directly from
    /// the input slice.
    fn write_fdri_run(&mut self, run: &[u32]) -> Result<(), FpgaError> {
        let fw = self.cfg.frame_words();
        let mut i = 0;
        // Top up a partially assembled frame first.
        if !self.frame_buf.is_empty() {
            let n = (fw - self.frame_buf.len()).min(run.len());
            self.frame_buf.extend_from_slice(&run[..n]);
            self.crc.update_run(ConfigRegister::Fdri, &run[..n]);
            self.words += n as u64;
            self.pending_count -= n as u32;
            i = n;
            if self.frame_buf.len() == fw {
                // On error the full frame stays buffered and FAR is
                // untouched — same state the per-word path leaves behind.
                self.cfg.write_frame(self.far, &self.frame_buf)?;
                self.frames_committed += 1;
                self.far += 1;
                self.frame_buf.clear();
            }
        }
        // Whole frames straight from the slice, no buffering. The fully
        // in-range prefix commits through the multi-frame path: one CRC
        // run and one copy of the whole block.
        let whole = (run.len() - i) / fw;
        let in_range = self.cfg.frames().saturating_sub(self.far) as usize;
        let fast = whole.min(in_range);
        if fast > 0 {
            let block = &run[i..i + fast * fw];
            self.crc.update_run(ConfigRegister::Fdri, block);
            self.cfg
                .write_frames(self.far, block)
                .expect("prefix clamped to the device");
            self.words += block.len() as u64;
            self.pending_count -= block.len() as u32;
            self.frames_committed += fast as u64;
            self.far += fast as u32;
            i += block.len();
        }
        // Any remaining whole frames run off the device: the per-frame loop
        // reproduces the per-word error state exactly.
        while run.len() - i >= fw {
            let frame = &run[i..i + fw];
            self.crc.update_run(ConfigRegister::Fdri, frame);
            self.words += fw as u64;
            self.pending_count -= fw as u32;
            i += fw;
            if let Err(e) = self.cfg.write_frame(self.far, frame) {
                // Emulate the per-word error state: the failed frame sits
                // fully buffered, FAR unchanged, commit count unchanged.
                self.frame_buf.clear();
                self.frame_buf.extend_from_slice(frame);
                return Err(e);
            }
            self.frames_committed += 1;
            self.far += 1;
        }
        // Leftover tail becomes the new partial frame.
        let tail = &run[i..];
        if !tail.is_empty() {
            self.frame_buf.extend_from_slice(tail);
            self.crc.update_run(ConfigRegister::Fdri, tail);
            self.words += tail.len() as u64;
            self.pending_count -= tail.len() as u32;
        }
        Ok(())
    }

    /// Clocks one 32-bit word into the port.
    ///
    /// # Errors
    ///
    /// * [`FpgaError::WrongDevice`] — IDCODE mismatch.
    /// * [`FpgaError::CrcMismatch`] — bad checksum word.
    /// * [`FpgaError::FrameOutOfRange`] — FDRI ran past the device.
    /// * [`FpgaError::MalformedPacket`] / [`FpgaError::UnknownRegister`] /
    ///   [`FpgaError::UnknownCommand`] — protocol violations.
    /// * [`FpgaError::TruncatedStream`] — DESYNC with a partial frame
    ///   buffered.
    pub fn write_word(&mut self, word: u32) -> Result<(), FpgaError> {
        self.words += 1;
        if self.status == IcapStatus::Desynced {
            if word == SYNC_WORD {
                self.status = IcapStatus::Synced;
            }
            // Dummy words and anything else pre-sync are ignored.
            return Ok(());
        }
        if self.pending_count > 0 {
            let reg = self
                .pending_reg
                .expect("pending payload implies a register");
            self.pending_count -= 1;
            return self.register_write(reg, word);
        }
        match decode(word)? {
            None => Ok(()), // NOOP
            Some(Packet::Type1 { op, reg, count }) => {
                self.last_reg = Some(reg);
                match op {
                    Opcode::Write => {
                        self.pending_reg = Some(reg);
                        self.pending_count = count;
                        Ok(())
                    }
                    // Readback is modeled at the ConfigMemory level; a read
                    // request through the write port carries no payload.
                    Opcode::Read | Opcode::Nop => Ok(()),
                }
            }
            Some(Packet::Type2 { op, count }) => {
                let reg = self.last_reg.ok_or(FpgaError::MalformedPacket { word })?;
                if matches!(op, Opcode::Write) {
                    self.pending_reg = Some(reg);
                    self.pending_count = count;
                }
                Ok(())
            }
        }
    }

    fn register_write(&mut self, reg: ConfigRegister, word: u32) -> Result<(), FpgaError> {
        // Every register write except the CRC check itself feeds the CRC.
        if reg != ConfigRegister::Crc {
            self.crc.update(reg, word);
        }
        match reg {
            ConfigRegister::Idcode => {
                if word != self.device.idcode() {
                    return Err(FpgaError::WrongDevice {
                        expected: self.device.idcode(),
                        got: word,
                    });
                }
                self.idcode_ok = true;
                self.regs[reg.addr() as usize] = word;
                Ok(())
            }
            ConfigRegister::Far => {
                self.far = word;
                self.frame_buf.clear();
                self.regs[reg.addr() as usize] = word;
                Ok(())
            }
            ConfigRegister::Fdri => {
                if !self.wcfg_enabled {
                    // FDRI data without WCFG is a protocol violation.
                    return Err(FpgaError::MalformedPacket { word });
                }
                self.frame_buf.push(word);
                if self.frame_buf.len() == self.cfg.frame_words() {
                    self.cfg.write_frame(self.far, &self.frame_buf)?;
                    self.frames_committed += 1;
                    self.far += 1;
                    self.frame_buf.clear();
                }
                Ok(())
            }
            ConfigRegister::Cmd => {
                let cmd =
                    Command::from_value(word).ok_or(FpgaError::UnknownCommand { value: word })?;
                match cmd {
                    Command::Rcrc => self.crc.reset(),
                    Command::Wcfg => self.wcfg_enabled = true,
                    Command::Desync => {
                        if !self.frame_buf.is_empty() {
                            return Err(FpgaError::TruncatedStream);
                        }
                        self.status = IcapStatus::Desynced;
                        self.wcfg_enabled = false;
                        self.pending_count = 0;
                        self.pending_reg = None;
                        self.last_reg = None;
                    }
                    // Startup/housekeeping commands are accepted as no-ops.
                    _ => {}
                }
                self.regs[reg.addr() as usize] = word;
                Ok(())
            }
            ConfigRegister::Crc => {
                let mut computed = self.crc.value();
                if std::mem::take(&mut self.crc_glitch) {
                    // Marginal timing corrupts the latched checksum; one
                    // flipped bit is enough to fail the comparison.
                    computed ^= 1;
                }
                if word != computed {
                    return Err(FpgaError::CrcMismatch {
                        computed,
                        expected: word,
                    });
                }
                Ok(())
            }
            // Stored verbatim; sufficient for the experiments.
            other => {
                self.regs[other.addr() as usize] = word;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{type1, type2, DUMMY_WORD, NOOP};
    use crate::seal::Sealed;

    fn icap() -> Icap {
        Icap::new(Device::xc5vsx50t())
    }

    /// Builds a minimal well-formed partial bitstream configuring `frames`
    /// frames starting at `far`, each filled with `far+i`.
    fn mini_stream(dev: &Device, far: u32, frames: u32) -> Vec<u32> {
        let fw = dev.family().frame_words() as u32;
        let mut v = vec![DUMMY_WORD, SYNC_WORD, NOOP];
        let mut crc = ConfigCrc::new();
        let push = |v: &mut Vec<u32>, reg: ConfigRegister, w: u32, crc: &mut ConfigCrc| {
            v.push(type1(Opcode::Write, reg, 1));
            v.push(w);
            crc.update(reg, w);
        };
        push(&mut v, ConfigRegister::Cmd, Command::Rcrc as u32, &mut crc);
        crc.reset();
        push(&mut v, ConfigRegister::Idcode, dev.idcode(), &mut crc);
        push(&mut v, ConfigRegister::Cmd, Command::Wcfg as u32, &mut crc);
        push(&mut v, ConfigRegister::Far, far, &mut crc);
        v.push(type1(Opcode::Write, ConfigRegister::Fdri, 0));
        v.push(type2(Opcode::Write, frames * fw));
        for i in 0..frames {
            for _ in 0..fw {
                v.push(far + i);
                crc.update(ConfigRegister::Fdri, far + i);
            }
        }
        v.push(type1(Opcode::Write, ConfigRegister::Crc, 1));
        v.push(crc.value());
        crc.update(ConfigRegister::Cmd, Command::Desync as u32);
        v.push(type1(Opcode::Write, ConfigRegister::Cmd, 1));
        v.push(Command::Desync as u32);
        v
    }

    #[test]
    fn parses_a_minimal_partial_bitstream() {
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        let words = mini_stream(&dev, 700, 3);
        icap.write_words(&words).unwrap();
        assert_eq!(icap.frames_committed(), 3);
        assert_eq!(icap.status(), IcapStatus::Desynced);
        for i in 0..3 {
            let frame = icap.config_memory().read_frame(700 + i).unwrap();
            assert!(frame.iter().all(|&w| w == 700 + i));
        }
        assert_eq!(icap.words_consumed(), words.len() as u64);
    }

    #[test]
    fn data_before_sync_is_ignored() {
        let mut icap = icap();
        icap.write_words(&[DUMMY_WORD, 0x1234_5678, DUMMY_WORD])
            .unwrap();
        assert_eq!(icap.status(), IcapStatus::Desynced);
        icap.write_word(SYNC_WORD).unwrap();
        assert_eq!(icap.status(), IcapStatus::Synced);
    }

    #[test]
    fn wrong_idcode_rejected() {
        let dev = Device::xc5vsx50t();
        let mut icap = Icap::new(Device::xc6vlx240t());
        let words = mini_stream(&dev, 0, 1);
        let err = icap.write_words(&words).unwrap_err();
        assert!(matches!(err, FpgaError::WrongDevice { .. }));
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        let mut words = mini_stream(&dev, 10, 2);
        // Flip one bit in the middle of the FDRI payload.
        let idx = words.len() - 10;
        words[idx] ^= 1;
        let err = icap.write_words(&words).unwrap_err();
        assert!(matches!(err, FpgaError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn fdri_without_wcfg_rejected() {
        let mut icap = icap();
        icap.write_word(SYNC_WORD).unwrap();
        icap.write_word(type1(Opcode::Write, ConfigRegister::Fdri, 1))
            .unwrap();
        assert!(icap.write_word(0xDEAD_BEEF).is_err());
    }

    #[test]
    fn fdri_past_end_of_device_rejected() {
        let dev = Device::xc5vsx50t();
        let last = dev.frames() - 1;
        let mut icap = icap();
        let words = mini_stream(&dev, last, 2); // second frame runs off the end
        let err = icap.write_words(&words).unwrap_err();
        assert!(matches!(err, FpgaError::FrameOutOfRange { .. }));
    }

    #[test]
    fn desync_with_partial_frame_is_truncation() {
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        icap.write_word(SYNC_WORD).unwrap();
        for (reg, val) in [
            (ConfigRegister::Idcode, dev.idcode()),
            (ConfigRegister::Cmd, Command::Wcfg as u32),
            (ConfigRegister::Far, 0),
        ] {
            icap.write_word(type1(Opcode::Write, reg, 1)).unwrap();
            icap.write_word(val).unwrap();
        }
        icap.write_word(type1(Opcode::Write, ConfigRegister::Fdri, 5))
            .unwrap();
        for i in 0..5 {
            icap.write_word(i).unwrap(); // 5 of 41 words: partial frame
        }
        icap.write_word(type1(Opcode::Write, ConfigRegister::Cmd, 1))
            .unwrap();
        let err = icap.write_word(Command::Desync as u32).unwrap_err();
        assert_eq!(err, FpgaError::TruncatedStream);
    }

    #[test]
    fn frequency_limits_enforced_per_family() {
        let mut v5 = Icap::new(Device::xc5vsx50t());
        assert!(v5.set_frequency(Frequency::from_mhz(362.5)).is_ok());
        assert!(v5.set_frequency(Frequency::from_mhz(363.0)).is_err());
        // §IV: 362.5 MHz "is not reliable" on the tested Virtex-6 samples.
        let mut v6 = Icap::new(Device::xc6vlx240t());
        assert!(v6.set_frequency(Frequency::from_mhz(362.5)).is_err());
        assert!(v6.set_frequency(Frequency::from_mhz(355.0)).is_ok());
    }

    #[test]
    fn transfer_time_matches_word_count() {
        let mut icap = icap();
        icap.set_frequency(Frequency::from_mhz(100.0)).unwrap();
        // 1000 words at 100 MHz = 10 µs.
        assert_eq!(icap.transfer_time(1000), SimTime::from_us(10));
    }

    #[test]
    fn resync_after_desync_allows_second_reconfiguration() {
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        icap.write_words(&mini_stream(&dev, 0, 1)).unwrap();
        icap.write_words(&mini_stream(&dev, 40, 2)).unwrap();
        assert_eq!(icap.frames_committed(), 3);
    }

    fn assert_observably_equal(fast: &Icap, slow: &Icap) {
        assert_eq!(fast.words_consumed(), slow.words_consumed());
        assert_eq!(fast.frames_committed(), slow.frames_committed());
        assert_eq!(fast.status(), slow.status());
        assert_eq!(fast.frame_buf, slow.frame_buf);
        assert_eq!(fast.far, slow.far);
        assert_eq!(fast.pending_count, slow.pending_count);
        assert_eq!(fast.crc.value(), slow.crc.value());
    }

    #[test]
    fn reset_restores_power_on_behavior() {
        let dev = Device::xc5vsx50t();
        let stream = mini_stream(&dev, 4, 3);
        let mut fresh = Icap::new(dev.clone());
        fresh.write_words(&stream).unwrap();

        let mut reused = Icap::new(dev);
        reused.write_words(&stream).unwrap();
        reused.reset();
        assert_eq!(reused.status(), IcapStatus::Desynced);
        assert_eq!(reused.words_consumed(), 0);
        assert_eq!(reused.frames_committed(), 0);
        reused.write_words(&stream).unwrap();

        assert_observably_equal(&reused, &fresh);
        for far in 4..7 {
            assert_eq!(
                reused.config_memory().read_frame(far).unwrap(),
                fresh.config_memory().read_frame(far).unwrap()
            );
        }
    }

    #[test]
    fn armed_crc_glitch_fails_one_clean_stream_then_clears() {
        let dev = Device::xc5vsx50t();
        let stream = mini_stream(&dev, 30, 2);
        let mut icap = icap();
        icap.arm_transient_crc();
        let err = icap.write_words(&stream).unwrap_err();
        assert!(matches!(err, FpgaError::CrcMismatch { .. }), "{err}");
        // The glitch is consumed: a straight retry succeeds.
        icap.abort();
        icap.write_words(&stream).unwrap();
        assert!(icap.frames_committed() >= 2);
    }

    #[test]
    fn abort_clears_parser_state_but_keeps_committed_frames() {
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        icap.write_words(&mini_stream(&dev, 4, 3)).unwrap();
        let words_before = icap.words_consumed();
        // Leave the port mid-stream: synced, WCFG on, partial frame buffered.
        icap.write_word(SYNC_WORD).unwrap();
        icap.write_word(type1(Opcode::Write, ConfigRegister::Cmd, 1))
            .unwrap();
        icap.write_word(Command::Wcfg as u32).unwrap();
        icap.write_word(type1(Opcode::Write, ConfigRegister::Far, 1))
            .unwrap();
        icap.write_word(50).unwrap();
        icap.write_word(type1(Opcode::Write, ConfigRegister::Fdri, 3))
            .unwrap();
        for i in 0..3 {
            icap.write_word(i).unwrap();
        }
        icap.abort();
        assert_eq!(icap.status(), IcapStatus::Desynced);
        // Committed frames and the cumulative cycle count survive.
        assert_eq!(icap.frames_committed(), 3);
        assert!(icap.words_consumed() > words_before);
        let frame = icap.config_memory().read_frame(5).unwrap();
        assert!(frame.iter().all(|&w| w == 5));
        // And a fresh stream parses cleanly afterwards.
        icap.write_words(&mini_stream(&dev, 40, 1)).unwrap();
        assert_eq!(icap.frames_committed(), 4);
    }

    #[test]
    fn parity_upset_is_flagged_as_uncorrectable() {
        use crate::ecc::EccStatus;
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        icap.write_words(&mini_stream(&dev, 8, 1)).unwrap();
        assert_eq!(icap.config_memory().ecc_check(8).unwrap(), EccStatus::Clean);
        icap.inject_parity_upset(8, 13).unwrap();
        assert_eq!(
            icap.config_memory().ecc_check(8).unwrap(),
            EccStatus::MultiBit
        );
    }

    #[test]
    fn upsets_outside_the_frame_geometry_are_typed_errors() {
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        icap.write_words(&mini_stream(&dev, 8, 1)).unwrap();
        assert_eq!(
            icap.inject_upset(8, 41, 0),
            Err(FpgaError::UpsetOutOfRange {
                far: Some(8),
                word: Some(41),
                bit: 0,
            })
        );
        assert_eq!(
            icap.inject_upset(8, 3, 32),
            Err(FpgaError::UpsetOutOfRange {
                far: Some(8),
                word: Some(3),
                bit: 32,
            })
        );
        assert_eq!(
            icap.inject_parity_upset(8, 40),
            Err(FpgaError::UpsetOutOfRange {
                far: Some(8),
                word: None,
                bit: 40,
            })
        );
        let frame = icap.config_memory().read_frame(8).unwrap();
        assert!(frame.iter().all(|&w| w == 8), "nothing flipped");
        assert_eq!(
            icap.config_memory().ecc_check(8).unwrap(),
            crate::ecc::EccStatus::Clean
        );
    }

    #[test]
    fn readback_borrows_the_frames_and_counts_their_words() {
        let dev = Device::xc5vsx50t();
        let mut icap = icap();
        icap.write_words(&mini_stream(&dev, 700, 3)).unwrap();
        let before = icap.words_consumed();
        let words = icap.readback(700, 3).unwrap();
        assert_eq!(words.len(), 3 * 41);
        assert!(words[41..82].iter().all(|&w| w == 701));
        assert_eq!(icap.words_consumed(), before + 3 * 41);
        // A range off the device counts nothing; zero frames read nothing.
        let frames = dev.frames();
        assert_eq!(
            icap.readback(frames - 1, 2),
            Err(FpgaError::FrameOutOfRange {
                far: frames,
                frames,
            })
        );
        assert!(icap.readback(frames + 1, 0).unwrap().is_empty());
        assert_eq!(icap.words_consumed(), before + 3 * 41);
    }

    #[test]
    fn batched_write_matches_per_word_reference() {
        let dev = Device::xc5vsx50t();
        let mut corrupt = mini_stream(&dev, 10, 2);
        let idx = corrupt.len() - 10;
        corrupt[idx] ^= 1;
        let variants = [
            mini_stream(&dev, 700, 3),
            corrupt,
            mini_stream(&dev, dev.frames() - 1, 2), // runs off the device
            vec![DUMMY_WORD; 16],                   // never syncs
        ];
        for words in &variants {
            let mut fast = icap();
            let mut slow = icap();
            let per_word = words.iter().try_for_each(|&w| slow.write_word(w));
            assert_eq!(fast.write_words(words), per_word);
            assert_observably_equal(&fast, &slow);
            for i in 0..3 {
                assert_eq!(
                    fast.config_memory()
                        .read_frame(700 + i)
                        .ok()
                        .map(<[u32]>::to_vec),
                    slow.config_memory()
                        .read_frame(700 + i)
                        .ok()
                        .map(<[u32]>::to_vec),
                );
            }
        }
    }

    /// Asserts that every field of the two ports is equal: the CRC
    /// register, the parser state, the counters and the whole plane with
    /// its stored parities.
    fn assert_identical(a: &Icap, b: &Icap) {
        let Icap {
            device,
            cfg,
            freq,
            status,
            crc,
            last_reg,
            pending_count,
            pending_reg,
            frame_buf,
            far,
            wcfg_enabled,
            idcode_ok,
            words,
            frames_committed,
            regs,
            crc_glitch,
            obs: _,
        } = a;
        assert_eq!(*device, b.device);
        assert!(*cfg == b.cfg, "configuration planes differ");
        assert_eq!(*freq, b.freq);
        assert_eq!(*status, b.status);
        assert_eq!(*crc, b.crc, "CRC register");
        assert_eq!(*last_reg, b.last_reg);
        assert_eq!(*pending_count, b.pending_count);
        assert_eq!(*pending_reg, b.pending_reg);
        assert_eq!(*frame_buf, b.frame_buf);
        assert_eq!(*far, b.far);
        assert_eq!(*wcfg_enabled, b.wcfg_enabled);
        assert_eq!(*idcode_ok, b.idcode_ok);
        assert_eq!(*words, b.words);
        assert_eq!(*frames_committed, b.frames_committed);
        assert_eq!(*regs, b.regs);
        assert_eq!(*crc_glitch, b.crc_glitch);
    }

    /// A stream whose FDRI run is `extra` words longer than `frames`
    /// whole frames, so its tail is a partial frame.
    fn ragged_stream(dev: &Device, far: u32, frames: u32, extra: u32) -> Vec<u32> {
        let fw = dev.family().frame_words() as u32;
        let mut v = mini_stream(dev, far, frames);
        let run = frames * fw;
        let at = v
            .iter()
            .position(|&w| w == type2(Opcode::Write, run))
            .unwrap();
        v[at] = type2(Opcode::Write, run + extra);
        let tail = at + 1 + run as usize;
        v.splice(tail..tail, (0..extra).map(|k| k ^ 0x5A5A));
        v
    }

    #[test]
    fn sealed_write_matches_write_words_field_for_field() {
        let dev = Device::xc5vsx50t();
        let frames = dev.frames();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n.max(1)
        };
        for case in 0..160 {
            let n = 1 + next(6) as u32;
            let far = match next(4) {
                0 => frames - 1, // runs off the device
                1 => frames - n, // ends on the last frame
                _ => next(u64::from(frames - n)) as u32,
            };
            let mut words = match next(3) {
                0 => ragged_stream(&dev, far, n, 1 + next(40) as u32),
                1 => [mini_stream(&dev, far, n), mini_stream(&dev, 0, 1)].concat(),
                _ => mini_stream(&dev, far, n),
            };
            match next(4) {
                0 => {
                    let i = next(words.len() as u64) as usize;
                    words[i] ^= 1 << next(32);
                }
                1 => words.truncate(next(words.len() as u64 + 1) as usize),
                _ => {}
            }
            let sealed = Sealed::sign(words);
            // A prefix leaves the port in any register and parser state:
            // mid-header, mid-run, synced or not.
            let mut port = icap();
            let prefix = mini_stream(&dev, 600, 2);
            let _ = port.write_words(&prefix[..next(prefix.len() as u64 + 1) as usize]);
            if next(2) == 0 {
                port.arm_transient_crc();
            }
            let mut sealed_port = port.clone();
            let reference = port.write_words(sealed.words());
            assert_eq!(sealed_port.write_sealed(&sealed), reference, "case {case}");
            assert_identical(&sealed_port, &port);
        }
    }

    #[test]
    fn only_a_whole_pending_run_of_frames_on_the_device_folds() {
        let dev = Device::xc5vsx50t();
        let fw = dev.family().frame_words();
        // Each case: the sealed stream, and whether its run folds on a
        // port that reaches the run having parsed the stream before it.
        let last = dev.frames() - 1;
        let mut partial = mini_stream(&dev, 0, 2);
        let fdri = partial
            .iter()
            .position(|&w| w == type2(Opcode::Write, 82))
            .unwrap();
        partial[fdri] = type2(Opcode::Write, 81); // a frame and 40 words
        let cases = [
            (mini_stream(&dev, 700, 3), true),
            (mini_stream(&dev, last - 2, 3), true),
            (mini_stream(&dev, last, 2), false),
            (ragged_stream(&dev, 10, 2, 7), false),
            (partial, false),
        ];
        for (k, (words, folds)) in cases.into_iter().enumerate() {
            let sealed = Sealed::sign(words);
            let run = sealed.runs()[0];
            let mut port = icap();
            port.write_words(&sealed.words()[..run.offset]).unwrap();
            let mut reference = port.clone();
            let block = &sealed.words()[run.offset..run.offset + run.len];
            assert_eq!(port.fold_run(block, run.crc), folds, "case {k}");
            if folds {
                reference.write_fdri_run(block).unwrap();
            }
            assert_identical(&port, &reference);
        }
        // A port with a partial frame buffered, or owed more words than
        // the run holds, does not fold a run that would otherwise.
        let sealed = Sealed::sign(mini_stream(&dev, 100, 2));
        let run = sealed.runs()[0];
        let block = &sealed.words()[run.offset..run.offset + run.len];
        let mut port = icap();
        port.write_words(&sealed.words()[..run.offset]).unwrap();
        port.frame_buf.push(0);
        assert!(!port.fold_run(block, run.crc));
        port.frame_buf.clear();
        port.pending_count += 1;
        assert!(!port.fold_run(block, run.crc));
        port.pending_count -= 1;
        assert!(port.fold_run(block, run.crc));
        assert_eq!(port.frames_committed(), 2);
        assert_eq!(run.len, 2 * fw);
    }

    #[test]
    fn batched_write_is_chunking_invariant() {
        // Feeding the stream in awkward chunk sizes (splitting FDRI runs
        // mid-frame) must leave the same state as one shot.
        let dev = Device::xc5vsx50t();
        let words = mini_stream(&dev, 100, 4);
        let mut oneshot = icap();
        oneshot.write_words(&words).unwrap();
        for chunk in [1usize, 7, 40, 41, 97] {
            let mut fast = icap();
            for c in words.chunks(chunk) {
                fast.write_words(c).unwrap();
            }
            assert_observably_equal(&fast, &oneshot);
        }
    }
}
