//! The assembled UPaRC system (paper Fig. 2).
//!
//! [`UParc`] wires the Manager, UReC, DyCloGen, the decompressor slot, the
//! 256 KB dual-port staging BRAM and the device's ICAP into one system with
//! a simulation clock and a power trace. The two operating modes of the
//! paper are both here:
//!
//! * **UPaRC_i — preloading without compression**: UReC streams the raw
//!   bitstream at up to 362.5 MHz (V5), 1.433 GB/s effective on a 247 KB
//!   bitstream (Table III / Fig. 5);
//! * **UPaRC_ii — preloading with compression**: the bitstream is staged
//!   compressed (X-MatchPRO by default: a 256 KB BRAM holds ~992 KB) and
//!   decompressed on the fly at 2 words/cycle ⇒ 1.008 GB/s, with the
//!   compressed datapath limited to 255 MHz.
//!
//! Power is tracked continuously into a [`PowerTrace`] calibrated against
//! the paper's Fig. 7 (see [`uparc_sim::power::calib`]), which is how the
//! Figure 7 harness regenerates the measured curves.

use crate::decompressor::DecompressorSlot;
use crate::dyclogen::{DyCloGen, OutputClock};
use crate::error::UparcError;
use crate::manager::{self, Manager, ManagerConfig};
use crate::urec::Urec;
use std::sync::Arc;
use uparc_bitstream::bramimg::BramImage;
use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_bitstream::BitstreamError;
use uparc_compress::Algorithm;
use uparc_fpga::bram::Bram;
use uparc_fpga::{Device, Icap};
use uparc_sim::fault::{FaultInjector, FaultKind};
use uparc_sim::obs::{EventKind, Obs};
use uparc_sim::power::{self, calib};
use uparc_sim::time::{Frequency, SimTime};
use uparc_sim::trace::PowerTrace;

/// Maximum reconfiguration clock of the compressed datapath (§IV: "the
/// highest frequency at compression mode is 255 MHz").
pub const COMPRESSED_MODE_MAX: f64 = 255.0;

/// Staging mode of [`UParc::preload`]: a request (`Auto`, `Compressed`)
/// or the decision it resolves to (`Raw`, `Packed`).
///
/// [`Mode::decide`] is the one place the decision is made, the only
/// place the staging encoder runs and the only place a [`Packed`] is
/// built, checked once to decode back to its bitstream. `preload` decides
/// every mode it is given; a caller that stages the same bitstream again
/// (the serving catalog, the recovery ladder's restages) keeps the
/// decided mode, so the image is packed and checked once, before
/// reconfiguration, as in UPaRC_ii (§III-A1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Raw if it fits the BRAM, compressed otherwise (the paper's policy,
    /// §III-C).
    Auto,
    /// Raw staging (UPaRC_i), requested or decided.
    Raw,
    /// Force compressed staging (UPaRC_ii); decides into [`Mode::Packed`].
    Compressed,
    /// Compressed staging of a payload packed and checked already: what
    /// `Compressed`, or `Auto` for an image over the BRAM, decides into.
    Packed(Packed),
}

/// A payload [`Mode::decide`] packed from a bitstream and decoded back to
/// it once. A clone copies pointers: the payload and the source's words
/// are shared, so the source is not stored twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packed {
    algorithm: Algorithm,
    /// Exactly the payload's bytes: the encoder's output buffer is sized
    /// for its worst case, several times what a payload keeps.
    bytes: Arc<[u8]>,
    source: PartialBitstream,
}

impl Packed {
    /// The packed configuration stream, exactly what the BRAM stages.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The bitstream the payload decodes to.
    #[must_use]
    pub fn source(&self) -> &PartialBitstream {
        &self.source
    }
}

impl Mode {
    /// Decides how `bs` stages in a `bram_bytes` BRAM whose decompressor
    /// runs `algorithm`: `Raw`, or `Packed` by `algorithm`'s encoder,
    /// after one decode of the payload is compared with `bs`. A decided
    /// mode comes back as it is, `Raw` after its capacity check.
    ///
    /// # Errors
    ///
    /// * [`UparcError::RawTooLarge`] — `Mode::Raw` and the raw image
    ///   (mode word included) exceeds the BRAM.
    /// * [`UparcError::Compression`] — the packed payload does not decode
    ///   back to `bs`.
    pub fn decide(
        self,
        bs: &PartialBitstream,
        bram_bytes: usize,
        algorithm: Algorithm,
    ) -> Result<Mode, UparcError> {
        let raw_image_bytes = bs.size_bytes() + 4; // + mode word
        match self {
            Mode::Raw if raw_image_bytes > bram_bytes => Err(UparcError::RawTooLarge {
                required: raw_image_bytes,
                available: bram_bytes,
            }),
            Mode::Auto if raw_image_bytes <= bram_bytes => Ok(Mode::Raw),
            Mode::Auto | Mode::Compressed => {
                let codec = algorithm.codec();
                let bytes = codec.compress(&bs.to_bytes());
                let unpacked = codec
                    .decompress(&bytes)
                    .map_err(|e| UparcError::Compression(e.to_string()))?;
                if !bs.eq_bytes(&unpacked) {
                    return Err(round_trip_mismatch());
                }
                Ok(Mode::Packed(Packed {
                    algorithm,
                    bytes: bytes.into(),
                    source: bs.clone(),
                }))
            }
            decided => Ok(decided),
        }
    }
}

/// The error of a packed payload that does not decode to the bitstream
/// it is staged for.
fn round_trip_mismatch() -> UparcError {
    UparcError::Compression("staging round-trip mismatch".into())
}

/// Maps a fault-plan `StagedFlip` word index onto a BRAM address that is
/// guaranteed to corrupt the *data* of the staged image, not its framing.
///
/// A raw image stages the full configuration stream behind the mode word, so
/// flips are folded into the FDRI payload region (addresses 15..len-5): a
/// flip on the sync word or IDCODE would surface as `WrongDevice` /
/// `NotSynced`, which the recovery ladder rightly treats as unrecoverable
/// and which no real SEU on staged *data* produces. A compressed image is
/// opaque payload throughout, so any address past the mode word qualifies.
fn staged_flip_addr(staged: &PreloadReport, word: u32) -> usize {
    let word = word as usize;
    let image_words = staged.stored_bytes / 4;
    if staged.compressed {
        1 + word % (image_words.saturating_sub(1)).max(1)
    } else {
        15 + word % (image_words.saturating_sub(20)).max(1)
    }
}

/// Report of a preload operation.
#[derive(Debug, Clone)]
pub struct PreloadReport {
    /// Whether the image was staged compressed.
    pub compressed: bool,
    /// Bytes occupied in the BRAM.
    pub stored_bytes: usize,
    /// Raw stream size in bytes.
    pub raw_bytes: usize,
    /// Preload duration (overlappable with idle time, §III-A1).
    pub duration: SimTime,
}

impl PreloadReport {
    /// Compression ratio in the paper's % saved convention (`None` if raw).
    #[must_use]
    pub fn percent_saved(&self) -> Option<f64> {
        self.compressed
            .then(|| (1.0 - self.stored_bytes as f64 / self.raw_bytes as f64) * 100.0)
    }
}

/// Report of one reconfiguration (Start → Finish).
#[derive(Debug, Clone)]
pub struct UparcReport {
    /// Raw configuration bytes delivered to the ICAP.
    pub bytes: usize,
    /// Bytes read out of the staging BRAM.
    pub stored_bytes: usize,
    /// Whether the compressed datapath was used.
    pub compressed: bool,
    /// Reconfiguration clock (CLK_2).
    pub frequency: Frequency,
    /// Decompressor clock (CLK_3), when the compressed path was used.
    pub decompressor_frequency: Option<Frequency>,
    /// Manager control overhead (constant; before the transfer).
    pub control_overhead: SimTime,
    /// Burst transfer duration.
    pub transfer_time: SimTime,
    /// Injected bus-stall time included in `transfer_time` (zero unless a
    /// fault campaign stalled the burst).
    pub stall: SimTime,
    /// Energy above idle, µJ.
    pub energy_uj: f64,
    /// System time at "Start".
    pub started_at: SimTime,
}

impl UparcReport {
    /// Total Start→Finish latency.
    #[must_use]
    pub fn elapsed(&self) -> SimTime {
        self.control_overhead + self.transfer_time
    }

    /// Effective reconfiguration bandwidth, MB/s (the Fig. 5 quantity:
    /// control overhead included).
    #[must_use]
    pub fn bandwidth_mb_s(&self) -> f64 {
        self.bytes as f64 / self.elapsed().as_secs_f64() / 1e6
    }

    /// Theoretical bandwidth at the used clock, MB/s (`4 × f`).
    #[must_use]
    pub fn theoretical_mb_s(&self) -> f64 {
        4.0 * self.frequency.as_hz() as f64 / 1e6
    }

    /// Effective / theoretical ratio (78.8% at 6.5 KB → 99% at 247 KB in
    /// Fig. 5).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.bandwidth_mb_s() / self.theoretical_mb_s()
    }

    /// Energy per KiB of configuration data, µJ/KiB (§V unit).
    #[must_use]
    pub fn uj_per_kb(&self) -> f64 {
        self.energy_uj / (self.bytes as f64 / 1024.0)
    }
}

/// Report of a run-time decompressor swap.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// The algorithm now occupying the slot.
    pub algorithm: Algorithm,
    /// The self-reconfiguration that installed it.
    pub reconfiguration: UparcReport,
    /// CLK_3 after retuning to the new block's maximum.
    pub clk3: Frequency,
}

/// Builder for [`UParc`].
#[derive(Debug, Clone)]
pub struct UParcBuilder {
    device: Device,
    bram_bytes: usize,
    manager: ManagerConfig,
    algorithm: Algorithm,
    obs: Obs,
}

impl UParcBuilder {
    /// Starts a builder for `device` with the paper's defaults: 256 KB
    /// BRAM, 100 MHz reference, MicroBlaze manager, X-MatchPRO slot.
    #[must_use]
    pub fn new(device: Device) -> Self {
        UParcBuilder {
            device,
            bram_bytes: 256 * 1024,
            manager: ManagerConfig::default(),
            algorithm: Algorithm::XMatchPro,
            obs: Obs::null(),
        }
    }

    /// Attaches an observability handle (see [`uparc_sim::obs`]); the
    /// system and its subcomponents report spans and metrics through it.
    /// Defaults to the disabled [`Obs::null`] handle.
    #[must_use]
    pub fn observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the staging BRAM size.
    #[must_use]
    pub fn bram_bytes(mut self, bytes: usize) -> Self {
        self.bram_bytes = bytes;
        self
    }

    /// Overrides the manager configuration (e.g. event-driven wait).
    #[must_use]
    pub fn manager(mut self, cfg: ManagerConfig) -> Self {
        self.manager = cfg;
        self
    }

    /// Selects the initial decompressor algorithm.
    #[must_use]
    pub fn decompressor(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Has no effect: the system keeps no decompressed-image cache (a
    /// clean packed transfer writes the staged payload's source words,
    /// so there is no decode to memoise). Kept while the benchmark's
    /// dispatch probe still builds its lanes through it.
    #[must_use]
    pub fn decompressed_cache_bytes(self, _bytes: usize) -> Self {
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// [`UparcError::NoHardwareDecompressor`] for a software-only algorithm,
    /// or a DyCloGen error from tuning CLK_3 to the decompressor's maximum.
    pub fn build(self) -> Result<UParc, UparcError> {
        let slot = DecompressorSlot::for_algorithm(self.algorithm).ok_or_else(|| {
            UparcError::NoHardwareDecompressor {
                algorithm: self.algorithm.to_string(),
            }
        })?;
        let family = self.device.family();
        // DyCloGen runs off the paper's 100 MHz reference.
        let mut dyclogen = DyCloGen::new(family, Frequency::from_mhz(100.0))?;
        // Tune CLK_3 to the decompressor's maximum from the start.
        let (_, _) = dyclogen.retune(
            OutputClock::Decompressor,
            slot.hw().max_frequency(),
            slot.hw().max_frequency(),
            SimTime::ZERO,
        )?;
        let icap = Icap::new(self.device.clone());
        let bram = Bram::new(family, self.bram_bytes);
        let mut trace = PowerTrace::new();
        trace.push(SimTime::ZERO, calib::V6_IDLE_MW);
        let mut sys = UParc {
            device: self.device,
            icap,
            bram,
            urec: Urec::new(),
            dyclogen,
            manager: Manager::with_config(self.manager),
            slot,
            staged: None,
            raw: None,
            packed: None,
            now: SimTime::ZERO,
            trace,
            fetched: Vec::new(),
            injector: None,
            watchdog: None,
            clk2_target: None,
            core_volts: calib::V_NOM_V,
            vrail_ready: SimTime::ZERO,
            obs: Obs::null(),
        };
        sys.set_observer(self.obs);
        Ok(sys)
    }
}

/// The UPaRC system.
#[derive(Debug)]
pub struct UParc {
    device: Device,
    icap: Icap,
    bram: Bram,
    urec: Urec,
    dyclogen: DyCloGen,
    manager: Manager,
    slot: DecompressorSlot,
    /// The last preload's report: what the BRAM holds.
    staged: Option<PreloadReport>,
    /// The bitstream the last preload staged, when it staged raw (a
    /// pointer): a transfer whose BRAM still holds its words writes it
    /// sealed.
    raw: Option<PartialBitstream>,
    /// The payload the last preload staged, when it staged packed.
    packed: Option<Packed>,
    now: SimTime,
    trace: PowerTrace,
    /// Payload words UReC fetched for the decompressor
    /// ([`Urec::run_burst`]); the capacity survives across
    /// reconfigurations, so a steady-state transfer allocates nothing.
    fetched: Vec<u32>,
    /// Attached fault injector (resilience campaigns); `None` = fault-free.
    injector: Option<FaultInjector>,
    /// Transfer watchdog limit in simulated time: a bus stall exceeding it
    /// aborts the transfer with [`UparcError::WatchdogTimeout`].
    watchdog: Option<SimTime>,
    /// Last CLK_2 target requested through
    /// [`UParc::set_reconfiguration_frequency`] — what a recovery layer
    /// re-requests after a lock failure.
    clk2_target: Option<Frequency>,
    /// Current core-rail voltage (DVFS); path power scales as
    /// `(core_volts / V_nom)²`.
    core_volts: f64,
    /// When the regulator finishes settling after the last
    /// [`UParc::set_core_voltage`]; reconfiguration waits it out exactly
    /// like a pending DCM relock.
    vrail_ready: SimTime,
    /// Observability handle (shared with the ICAP and DyCloGen); the
    /// disabled [`Obs::null`] by default.
    obs: Obs,
}

impl UParc {
    /// Starts a builder with the paper's defaults.
    #[must_use]
    pub fn builder(device: Device) -> UParcBuilder {
        UParcBuilder::new(device)
    }

    /// The target device.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ICAP (and configuration memory) — for verification.
    #[must_use]
    pub fn icap(&self) -> &Icap {
        &self.icap
    }

    /// The staging BRAM.
    #[must_use]
    pub fn bram(&self) -> &Bram {
        &self.bram
    }

    /// The decompressor slot.
    #[must_use]
    pub fn decompressor(&self) -> &DecompressorSlot {
        &self.slot
    }

    /// The clock generator.
    #[must_use]
    pub fn dyclogen(&self) -> &DyCloGen {
        &self.dyclogen
    }

    /// The observability handle this system reports through (recovery
    /// layers wrapping the system reuse it so their events share the
    /// recorder and lane tag).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attaches an observability handle, propagating it to the ICAP and
    /// DyCloGen. Pass [`Obs::null`] to detach.
    pub fn set_observer(&mut self, obs: Obs) {
        self.icap.set_observer(obs.clone());
        self.dyclogen.set_observer(obs.clone());
        self.obs = obs;
    }

    /// Attaches a fault injector; scheduled faults are applied at operation
    /// boundaries from now on. Replaces any previous injector.
    pub fn attach_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Removes and returns the attached fault injector.
    pub fn detach_fault_injector(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }

    /// The attached fault injector, if any.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Mutable access to the attached fault injector (recovery layers mark
    /// the log's `detected`/`recovered` flags through this).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// Sets (or clears) the transfer watchdog: a bus stall longer than
    /// `limit` of simulated time aborts the reconfiguration with
    /// [`UparcError::WatchdogTimeout`] instead of waiting it out.
    pub fn set_transfer_watchdog(&mut self, limit: Option<SimTime>) {
        self.watchdog = limit;
    }

    /// The current transfer watchdog limit.
    #[must_use]
    pub fn transfer_watchdog(&self) -> Option<SimTime> {
        self.watchdog
    }

    /// The last CLK_2 target requested through
    /// [`UParc::set_reconfiguration_frequency`].
    #[must_use]
    pub fn reconfiguration_target(&self) -> Option<Frequency> {
        self.clk2_target
    }

    /// Applies all due ambient faults (configuration-plane SEUs). Called at
    /// operation boundaries; radiation takes no simulated time.
    fn apply_ambient_faults(&mut self) {
        let Some(injector) = self.injector.as_mut() else {
            return;
        };
        let due = injector.take_all_due(self.now, |k| {
            matches!(k, FaultKind::ConfigSeu { .. } | FaultKind::ParitySeu { .. })
        });
        let frames = self.icap.config_memory().frames().max(1);
        let frame_words = self.icap.config_memory().frame_words().max(1);
        for kind in due {
            match kind {
                FaultKind::ConfigSeu { frame, word, bit } => {
                    let _ = self.icap.inject_upset(
                        frame % frames,
                        word as usize % frame_words,
                        u32::from(bit) % 32,
                    );
                }
                FaultKind::ParitySeu { frame, bit } => {
                    let _ = self
                        .icap
                        .inject_parity_upset(frame % frames, u32::from(bit) % 32);
                }
                _ => unreachable!("filtered to ambient kinds"),
            }
        }
    }

    /// Lets simulated idle time pass (power stays at the idle floor).
    pub fn advance_idle(&mut self, dt: SimTime) {
        self.trace.push(self.now, calib::V6_IDLE_MW);
        self.now += dt;
        self.apply_ambient_faults();
    }

    /// Snapshot of the power trace up to `now` (the oscilloscope view).
    #[must_use]
    pub fn power_trace(&self) -> PowerTrace {
        let mut t = self.trace.clone();
        t.finish(self.now);
        t
    }

    /// Energy above `floor_mw` from `from` to `now`, in µJ: the same
    /// integral as `power_trace().energy_above_uj(floor_mw, from, now())`,
    /// read off the live trace without the snapshot copy.
    #[must_use]
    pub fn energy_above_uj(&self, floor_mw: f64, from: SimTime) -> f64 {
        self.trace.energy_above_uj(floor_mw, from, self.now)
    }

    /// Retunes CLK_2 toward `target` through DyCloGen. The achievable cap
    /// is the lower of the ICAP overclock ceiling and the BRAM read-path
    /// ceiling for this family (V5: 362.5 MHz). Returns the achieved
    /// frequency; the retune costs the DCM relock time, accounted at the
    /// next reconfiguration.
    ///
    /// # Errors
    ///
    /// [`UparcError::Frequency`] above the cap, or
    /// [`UparcError::Unsynthesisable`] if no M/D combination lands close
    /// enough.
    pub fn set_reconfiguration_frequency(
        &mut self,
        target: Frequency,
    ) -> Result<Frequency, UparcError> {
        let family = self.device.family();
        let cap = family
            .icap_overclock_limit()
            .min(family.bram_overclock_limit());
        if let Some(injector) = self.injector.as_mut() {
            // A due lock-failure fault arms the CLK_2 DCM: the retune below
            // completes its DRP writes but LOCKED never asserts.
            if injector
                .take_due(self.now, |k| matches!(k, FaultKind::RetuneLockFailure))
                .is_some()
            {
                self.dyclogen.arm_lock_failure(OutputClock::Reconfiguration);
            }
        }
        let (f, _) = self
            .dyclogen
            .retune(OutputClock::Reconfiguration, target, cap, self.now)?;
        self.clk2_target = Some(target);
        Ok(f)
    }

    /// Ramps the core rail to `volts` (VolTune-style runtime voltage
    /// control). The regulator settle — [`calib::VRAIL_SETTLE_US_PER_100MV`]
    /// per 100 mV of swing — is accounted at the next reconfiguration,
    /// exactly like a DCM relock; the returned settle is what that
    /// reconfiguration will wait. Re-requesting the current voltage is
    /// free.
    ///
    /// # Panics
    ///
    /// On a non-finite or non-positive `volts` — rails are configuration,
    /// not data, so a bad rail is a programming error.
    pub fn set_core_voltage(&mut self, volts: f64) -> SimTime {
        assert!(
            volts.is_finite() && volts > 0.0,
            "core voltage must be positive, got {volts}"
        );
        if volts == self.core_volts {
            return SimTime::ZERO;
        }
        let swing = (volts - self.core_volts).abs();
        let settle = SimTime::from_secs_f64(swing / 0.1 * calib::VRAIL_SETTLE_US_PER_100MV * 1e-6);
        let span = self.obs.begin(
            self.now,
            EventKind::Vf {
                from_mv: (self.core_volts * 1000.0).round() as u32,
                to_mv: (volts * 1000.0).round() as u32,
            },
        );
        self.obs.end(self.now + settle, span);
        self.obs.count("power.vf_ramps", 1);
        self.obs.gauge("power.rail_mv", volts * 1000.0);
        self.obs.observe("power.settle_us", settle.as_us_f64());
        self.core_volts = volts;
        self.vrail_ready = self.now + settle;
        settle
    }

    /// Total core power while the reconfiguration path runs at `f2` on
    /// the current rail, mW (the analytic model the controller simulates).
    fn path_power_mw(&self, f2: Frequency) -> f64 {
        power::core_power_mw(self.core_volts, self.manager.wait_power_mw(), f2, false)
    }

    /// Retunes CLK_3 (decompressor clock), capped at the current block's
    /// maximum frequency.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`UParc::set_reconfiguration_frequency`].
    pub fn set_decompressor_frequency(
        &mut self,
        target: Frequency,
    ) -> Result<Frequency, UparcError> {
        let cap = self.slot.hw().max_frequency();
        let (f, _) = self
            .dyclogen
            .retune(OutputClock::Decompressor, target, cap, self.now)?;
        Ok(f)
    }

    /// Stages `bs` in the BRAM (paper §III-A1 / Fig. 3). Preloading is a
    /// Manager task and can overlap module execution; it advances the
    /// system clock but does not count as reconfiguration time.
    ///
    /// The mode is resolved by [`Mode::decide`], which checked a
    /// [`Mode::Packed`] payload once against the bitstream it was packed
    /// from. The payload stages as given, neither encoded nor decoded,
    /// once its codec is the slot's and `bs` is its source: the same
    /// shared words (one pointer compare) or equal words.
    ///
    /// # Errors
    ///
    /// * [`UparcError::RawTooLarge`] — `Mode::Raw` and the stream exceeds
    ///   the BRAM.
    /// * [`UparcError::BramCapacity`] — even the compressed image exceeds
    ///   the BRAM.
    /// * [`UparcError::PackedCodec`] — a `Packed` payload of another codec
    ///   than the slot's.
    /// * [`UparcError::Compression`] — the payload was packed from another
    ///   bitstream than `bs`.
    pub fn preload(
        &mut self,
        bs: &PartialBitstream,
        mode: Mode,
    ) -> Result<PreloadReport, UparcError> {
        self.apply_ambient_faults();
        let raw_bytes = bs.size_bytes();
        let slot = self.slot.algorithm();
        let (image, packed) = match mode.decide(bs, self.bram.capacity_bytes(), slot)? {
            Mode::Packed(packed) => {
                if packed.algorithm != slot {
                    return Err(UparcError::PackedCodec {
                        packed: packed.algorithm,
                        slot,
                    });
                }
                if !packed.source.same_words(bs) {
                    return Err(round_trip_mismatch());
                }
                (
                    BramImage::compressed(codec_id(slot), &packed.bytes),
                    Some(packed),
                )
            }
            _ => (BramImage::uncompressed(bs.words()), None),
        };
        let use_compression = packed.is_some();
        let stored_bytes = image.size_bytes();
        let duration = self.manager.preload(&mut self.bram, &image)?;
        let span = self.obs.begin(
            self.now,
            EventKind::Preload {
                stored_bytes: stored_bytes as u64,
                compressed: use_compression,
            },
        );
        // Preload runs at the manager's clock through BRAM port A.
        self.trace.push(
            self.now,
            calib::V6_IDLE_MW
                + calib::MANAGER_COPY_MW
                + calib::PRELOAD_PATH_MW_PER_MHZ * manager::CLOCK.as_mhz(),
        );
        self.now += duration;
        self.trace.push(self.now, calib::V6_IDLE_MW);
        self.obs.end(self.now, span);
        self.obs.count("uparc.preloads", 1);
        self.obs.observe("uparc.preload_us", duration.as_us_f64());
        let report = PreloadReport {
            compressed: use_compression,
            stored_bytes,
            raw_bytes,
            duration,
        };
        self.staged = Some(report.clone());
        self.raw = packed.is_none().then(|| bs.clone());
        self.packed = packed;
        Ok(report)
    }

    /// Performs the reconfiguration of the staged bitstream: the Manager
    /// raises "Start", UReC bursts the image (through the decompressor in
    /// compressed mode), "Finish" gates the clocks (Fig. 4).
    ///
    /// # Errors
    ///
    /// [`UparcError::NothingPreloaded`], frequency-cap violations for the
    /// compressed datapath, or ICAP protocol errors.
    pub fn reconfigure(&mut self) -> Result<UparcReport, UparcError> {
        let staged = self.staged.clone().ok_or(UparcError::NothingPreloaded)?;
        self.apply_ambient_faults();
        // Wait out any pending DCM relock (frequency adaptation latency)
        // and any core-rail ramp still settling.
        let ready = self
            .dyclogen
            .ready_at(OutputClock::Reconfiguration)
            .max(self.dyclogen.ready_at(OutputClock::Decompressor))
            .max(self.vrail_ready);
        if ready > self.now {
            self.advance_idle(ready - self.now);
        }
        let f2 = self
            .dyclogen
            .frequency(OutputClock::Reconfiguration, self.now)?;
        if staged.compressed && f2.as_mhz() > COMPRESSED_MODE_MAX {
            return Err(UparcError::Frequency {
                requested: f2,
                max: Frequency::from_mhz(COMPRESSED_MODE_MAX),
                limited_by: "compressed datapath",
            });
        }
        self.icap.set_frequency(f2)?;
        self.bram.classify_frequency(f2)?;

        // Transfer-window faults: staged-stream flips land in the BRAM,
        // a transient CRC glitch arms only in the marginal overclocked
        // regime (§IV), and a bus stall stretches the burst.
        let mut stall = SimTime::ZERO;
        if let Some(injector) = self.injector.as_mut() {
            let overclocked = f2 > self.device.family().bram_guaranteed_frequency();
            let now = self.now;
            let flips = injector.take_all_due(now, |k| matches!(k, FaultKind::StagedFlip { .. }));
            if overclocked
                && injector
                    .take_due(now, |k| matches!(k, FaultKind::CrcTransient))
                    .is_some()
            {
                self.icap.arm_transient_crc();
            }
            if let Some(FaultKind::TransferStall { cycles }) =
                injector.take_due(now, |k| matches!(k, FaultKind::TransferStall { .. }))
            {
                stall = f2.time_of_cycles(u64::from(cycles));
            }
            for kind in flips {
                if let FaultKind::StagedFlip { word, bit } = kind {
                    let addr = staged_flip_addr(&staged, word);
                    let _ = self.bram.corrupt_bit(addr, u32::from(bit) % 32);
                }
            }
        }

        let started_at = self.now;
        // Manager control burst (the pre-zero peak in Fig. 7).
        let control = self.manager.control_overhead();
        self.trace.push(
            self.now,
            calib::V6_IDLE_MW + self.manager.control_power_mw(),
        );
        self.now += control;

        // Watchdog: a stall beyond the limit means the bus is dead — abort
        // after `limit` of active waiting instead of sitting out the stall.
        if let Some(limit) = self.watchdog {
            if stall > limit {
                self.trace
                    .push(self.now, calib::V6_IDLE_MW + self.manager.wait_power_mw());
                self.now += limit;
                self.trace.push(self.now, calib::V6_IDLE_MW);
                self.icap.abort();
                return Err(UparcError::WatchdogTimeout { limit, stall });
            }
        }

        // Burst transfer.
        let result = if staged.compressed {
            self.transfer_compressed(&staged, f2)
        } else {
            self.transfer_raw().map(|cycles| {
                let t = f2.time_of_cycles(cycles);
                (t, None, self.path_power_mw(f2))
            })
        };
        let (mut transfer, decomp_freq, transfer_power) = match result {
            Ok(ok) => ok,
            Err(e) => {
                // A failed transfer leaves the port mid-stream: close the
                // power step and clear the parser state so a retry starts
                // from a clean protocol state (committed frames stay).
                self.trace.push(self.now, calib::V6_IDLE_MW);
                self.icap.abort();
                return Err(e);
            }
        };
        // The stall stretches the burst; the path stays clocked throughout.
        transfer += stall;
        let transfer_start = self.now;
        self.trace.push(self.now, transfer_power);
        self.now += transfer;
        // Finish: EN deasserts, clocks gate, power falls to idle.
        self.trace.push(self.now, calib::V6_IDLE_MW);
        // The burst span covers the whole BRAM→ICAP transfer; in
        // compressed mode the decompressor stage overlaps it (the pipeline
        // runs concurrently), so its span nests inside the burst.
        let burst = self.obs.begin(
            transfer_start,
            EventKind::IcapBurst {
                words: (staged.stored_bytes / 4) as u64,
            },
        );
        if staged.compressed {
            let decomp = self.obs.begin(
                transfer_start,
                EventKind::DecompressStage {
                    bytes: staged.raw_bytes as u64,
                },
            );
            self.obs.end(self.now, decomp);
        }
        self.obs.end(self.now, burst);
        self.obs.count("uparc.reconfigurations", 1);
        self.obs.observe("uparc.transfer_us", transfer.as_us_f64());
        self.apply_ambient_faults();

        let energy = (self.manager.control_power_mw()) * control.as_secs_f64() * 1e3
            + (transfer_power - calib::V6_IDLE_MW) * transfer.as_secs_f64() * 1e3;
        self.obs.observe("uparc.energy_uj", energy);
        Ok(UparcReport {
            bytes: staged.raw_bytes,
            stored_bytes: staged.stored_bytes,
            compressed: staged.compressed,
            frequency: f2,
            decompressor_frequency: decomp_freq,
            control_overhead: control,
            transfer_time: transfer,
            stall,
            energy_uj: energy,
            started_at,
        })
    }

    /// Convenience: preload then reconfigure.
    ///
    /// # Errors
    ///
    /// Propagates [`UParc::preload`] / [`UParc::reconfigure`] errors.
    pub fn reconfigure_bitstream(
        &mut self,
        bs: &PartialBitstream,
        mode: Mode,
    ) -> Result<UparcReport, UparcError> {
        self.preload(bs, mode)?;
        self.reconfigure()
    }

    /// Swaps the decompressor by partial reconfiguration *through UPaRC
    /// itself* (the paper's future-work feature, §VI): generates the new
    /// block's partial bitstream for the decompressor partition, stages it
    /// (compressed with the outgoing codec if needed), reconfigures, then
    /// retunes CLK_3 to the new block's maximum frequency.
    ///
    /// # Errors
    ///
    /// [`UparcError::NoHardwareDecompressor`] for software-only algorithms,
    /// plus any preload/reconfigure failure.
    pub fn swap_decompressor(&mut self, algorithm: Algorithm) -> Result<SwapReport, UparcError> {
        let new_slot = DecompressorSlot::for_algorithm(algorithm).ok_or_else(|| {
            UparcError::NoHardwareDecompressor {
                algorithm: algorithm.to_string(),
            }
        })?;
        // The decompressor partition sits at the top of the frame space;
        // its size follows from its slice count (~2 frames per slice).
        let frames = decompressor_partition_frames(&self.device);
        let far = self.device.frames() - frames;
        let payload = SynthProfile::dense().generate(
            &self.device,
            far,
            frames,
            0xDEC0_0000 | u64::from(codec_id(algorithm)),
        );
        let bs = PartialBitstream::build(&self.device, far, &payload);
        self.preload(&bs, Mode::Auto)?;
        let reconfiguration = self.reconfigure()?;
        self.slot = new_slot;
        let clk3 = {
            let cap = self.slot.hw().max_frequency();
            let (f, _) = self
                .dyclogen
                .retune(OutputClock::Decompressor, cap, cap, self.now)?;
            f
        };
        Ok(SwapReport {
            algorithm,
            reconfiguration,
            clk3,
        })
    }

    /// Reads back `frames` frames starting at `far` through the ICAP's
    /// readback path at CLK_2, advancing simulation time accordingly. Used
    /// by the scrubbing support ([`crate::scrub`]). The frames come back
    /// in place, as a borrowed slice of the configuration plane; a caller
    /// that keeps them copies them.
    ///
    /// # Errors
    ///
    /// Frame-range or clock errors.
    pub fn readback(&mut self, far: u32, frames: u32) -> Result<&[u32], UparcError> {
        self.apply_ambient_faults();
        let ready = self
            .dyclogen
            .ready_at(OutputClock::Reconfiguration)
            .max(self.vrail_ready);
        if ready > self.now {
            self.advance_idle(ready - self.now);
        }
        let f2 = self
            .dyclogen
            .frequency(OutputClock::Reconfiguration, self.now)?;
        // Readback keeps the path active like a (reverse) transfer.
        let path_mw = self.path_power_mw(f2);
        let words = self.icap.readback(far, frames)?;
        let duration = f2.time_of_cycles(words.len() as u64 + 2);
        self.trace.push(self.now, path_mw);
        self.now += duration;
        self.trace.push(self.now, calib::V6_IDLE_MW);
        Ok(words)
    }

    /// Injects a single-event upset into the configuration memory (fault
    /// model for the scrubbing experiments; takes no simulated time).
    ///
    /// # Errors
    ///
    /// [`UparcError::Fpga`] carrying
    /// [`FrameOutOfRange`](uparc_fpga::FpgaError::FrameOutOfRange) for an
    /// address outside the device, or
    /// [`UpsetOutOfRange`](uparc_fpga::FpgaError::UpsetOutOfRange) if
    /// `word_idx` or `bit` exceed the frame geometry.
    pub fn inject_upset(&mut self, far: u32, word_idx: usize, bit: u32) -> Result<(), UparcError> {
        self.icap.inject_upset(far, word_idx, bit)?;
        Ok(())
    }

    /// Streams the raw image through UReC; returns CLK_2 cycles consumed.
    /// Uses the batched burst path ([`Urec::run_burst`]), which is
    /// cycle-exact with the per-edge loop. A BRAM that still holds the
    /// words the last preload staged streams them sealed; one that
    /// differs (a staged flip) streams its own words.
    fn transfer_raw(&mut self) -> Result<u64, UparcError> {
        self.urec.start();
        self.urec.run_burst(
            &mut self.bram,
            &mut self.icap,
            &mut self.fetched,
            self.raw.as_ref().map(PartialBitstream::sealed),
        )
    }

    /// Runs the compressed pipeline; returns (duration, CLK_3, power).
    fn transfer_compressed(
        &mut self,
        staged: &PreloadReport,
        f2: Frequency,
    ) -> Result<(SimTime, Option<Frequency>, f64), UparcError> {
        let f3 = self
            .dyclogen
            .frequency(OutputClock::Decompressor, self.now)?;
        // UReC fetches the image from BRAM in one burst, handing payload
        // words to the decompressor FIFO (cycle-exact with the per-edge
        // loop). The fetch reuses the lane's buffer, so steady-state
        // reconfiguration allocates nothing on this path.
        self.urec.start();
        let fetch_cycles =
            self.urec
                .run_burst(&mut self.bram, &mut self.icap, &mut self.fetched, None)?;
        debug_assert!(self.fetched.len() <= staged.stored_bytes / 4);
        let mode = self.urec.mode().expect("finished transfer has a mode");
        if !mode.compressed {
            return Err(UparcError::Bitstream(BitstreamError::BadModeWord {
                detail: "image is uncompressed".to_owned(),
            }));
        }
        debug_assert_eq!(mode.codec_id, codec_id(self.slot.algorithm()));
        let fetched_words = self.fetched.len();
        // Functional model of the hardware decompressor: it reproduces the
        // bitstream the staged payload was packed from. A BRAM that still
        // holds exactly the image the last preload staged, for the slot's
        // codec, decodes to that payload's source (`Mode::decide` checked
        // the round trip once), so the source goes to the ICAP as it is,
        // sealed. A BRAM that differs (a staged flip) is decoded once, so a
        // decode error fails the transfer before any word reaches the
        // ICAP. The simulated pipeline timing below is the same either
        // way: it, not the host decode, models the decompressor filling
        // the output FIFO while the ICAP drains it.
        let slot = self.slot.algorithm();
        let clean = self
            .packed
            .as_ref()
            .filter(|p| p.algorithm == slot && holds_staged(&self.fetched, &p.bytes));
        let (raw_len, words_len) = if let Some(packed) = clean {
            self.icap.write_sealed(packed.source.sealed())?;
            (
                packed.source.size_bytes(),
                packed.source.words().len() as u64,
            )
        } else {
            // The payload is parsed in place — same layout and validation
            // as [`BramImage::compressed_payload`], without rebuilding the
            // image.
            let byte_count = *self.fetched.first().ok_or_else(|| {
                UparcError::Bitstream(BitstreamError::BadModeWord {
                    detail: "compressed image is missing its byte count".to_owned(),
                })
            })? as usize;
            let available = (fetched_words - 1) * 4;
            if byte_count > available {
                return Err(UparcError::Bitstream(BitstreamError::BadModeWord {
                    detail: format!("byte count {byte_count} exceeds payload {available}"),
                }));
            }
            let payload: Vec<u8> = self.fetched[1..]
                .iter()
                .flat_map(|w| w.to_be_bytes())
                .take(byte_count)
                .collect();
            let image = self
                .slot
                .codec()
                .decompress(&payload)
                .map_err(|e| UparcError::Compression(e.to_string()))?;
            let words_len = write_image(&mut self.icap, &image)?;
            (image.len(), words_len)
        };

        // Pipeline pacing: BRAM fetch at CLK_2, decompressor at CLK_3,
        // ICAP intake at CLK_2. When the decompressor's output rate is a
        // whole number of words per cycle (all the shipped hardware models
        // except Huffman's bit-serial decoder), the FIFO pipeline is
        // timed to the cycle (in closed form where its certificate holds,
        // edge by edge otherwise); else the steady-state analytic model
        // paces the transfer.
        let wpc = self.slot.hw().words_per_cycle();
        let transfer = if wpc.fract() == 0.0 && wpc >= 1.0 {
            let run = crate::pipeline::PipelineRun {
                // `fetch_cycles` counts the mode-word read too; the
                // pipeline moves the payload words.
                input_words: fetched_words as u64,
                output_words: words_len,
                clk2: f2,
                clk3: f3,
                max_words_per_cycle: wpc as u32,
            };
            let stats = run.simulate();
            debug_assert!(stats.elapsed >= run.analytic_bound());
            // + the mode-word cycle UReC spent before streaming.
            f2.time_of_cycles(1) + stats.elapsed
        } else {
            let fetch = f2.time_of_cycles(fetch_cycles);
            let decomp = self.slot.hw().decompression_time(raw_len, f3);
            let intake = f2.time_of_cycles(words_len);
            fetch.max(decomp).max(intake)
        };
        let power = self.path_power_mw(f2) + power::decompressor_power_mw(self.core_volts, f3);
        Ok((transfer, Some(f3), power))
    }
}

/// Whether the payload words UReC fetched (the byte-count word first)
/// hold exactly the compressed image a preload of `bytes` staged: the
/// byte count, then `bytes` as big-endian words, the last one zero-padded.
fn holds_staged(fetched: &[u32], bytes: &[u8]) -> bool {
    let Some((&count, words)) = fetched.split_first() else {
        return false;
    };
    let whole = bytes.chunks_exact(4);
    let tail = whole.remainder();
    count as usize == bytes.len()
        && words.len() == bytes.len().div_ceil(4)
        && words
            .iter()
            .zip(whole)
            .all(|(&w, b)| w == u32::from_be_bytes(b.try_into().expect("4 bytes")))
        && (tail.is_empty() || {
            let mut pad = [0; 4];
            pad[..tail.len()].copy_from_slice(tail);
            words.last() == Some(&u32::from_be_bytes(pad))
        })
}

/// Writes the whole words of a decoded `image` (big-endian configuration
/// words) to the ICAP in one burst; returns the number of words written.
///
/// # Errors
///
/// ICAP protocol errors, and [`BitstreamError::Truncated`] when `image`
/// is not word-aligned, raised after its aligned part is written.
fn write_image(icap: &mut Icap, image: &[u8]) -> Result<u64, UparcError> {
    let words: Vec<u32> = image
        .chunks_exact(4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    icap.write_words(&words)?;
    if !image.len().is_multiple_of(4) {
        return Err(UparcError::Bitstream(BitstreamError::Truncated));
    }
    Ok(words.len() as u64)
}

/// Frames occupied by the decompressor partition on `device` (~2 frames
/// per slice of the X-MatchPRO block).
#[must_use]
pub fn decompressor_partition_frames(device: &Device) -> u32 {
    let slices = crate::inventory::decompressor_slices(device.family());
    (slices * 2).min(device.frames() / 4)
}

/// Stable codec identifiers for the BRAM-image mode word.
fn codec_id(algorithm: Algorithm) -> u8 {
    match algorithm {
        Algorithm::Rle => 1,
        Algorithm::Lz77 => 2,
        Algorithm::Huffman => 3,
        Algorithm::XMatchPro => 4,
        Algorithm::Lz78 => 5,
        Algorithm::Zip => 6,
        Algorithm::SevenZip => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitstream(device: &Device, frames: u32, seed: u64) -> PartialBitstream {
        let payload = SynthProfile::dense().generate(device, 50, frames, seed);
        PartialBitstream::build(device, 50, &payload)
    }

    fn uparc() -> UParc {
        UParc::builder(Device::xc5vsx50t()).build().unwrap()
    }

    #[test]
    fn upsets_outside_the_frame_geometry_are_typed_errors() {
        use uparc_fpga::FpgaError;
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 4, 3);
        let mut sys = uparc();
        sys.reconfigure_bitstream(&bs, Mode::Raw).unwrap();
        // XC5VSX50T frames are 41 words: word 41 is the first past the end.
        assert_eq!(
            sys.inject_upset(51, 41, 0),
            Err(UparcError::Fpga(FpgaError::UpsetOutOfRange {
                far: Some(51),
                word: Some(41),
                bit: 0,
            }))
        );
        assert!(matches!(
            sys.inject_upset(51, 0, 32),
            Err(UparcError::Fpga(FpgaError::UpsetOutOfRange { .. }))
        ));
        let frames = device.frames();
        assert!(matches!(
            sys.inject_upset(frames, 0, 0),
            Err(UparcError::Fpga(FpgaError::FrameOutOfRange { .. }))
        ));
        assert_eq!(sys.readback(50, 4).unwrap(), bs.payload());
        sys.inject_upset(51, 40, 31).unwrap();
        assert_ne!(sys.readback(50, 4).unwrap(), bs.payload());
    }

    #[test]
    fn undervolting_scales_transfer_power_and_charges_settle() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 100, 9);

        let mut nominal = uparc();
        nominal.preload(&bs, Mode::Raw).unwrap();
        let base = nominal.reconfigure().unwrap();

        let mut undervolted = uparc();
        // Re-requesting the current rail is free.
        assert_eq!(undervolted.set_core_voltage(calib::V_NOM_V), SimTime::ZERO);
        let settle = undervolted.set_core_voltage(0.9);
        // 100 mV of swing at the calibrated slew.
        let expected = SimTime::from_secs_f64(calib::VRAIL_SETTLE_US_PER_100MV * 1e-6);
        assert_eq!(settle, expected);
        undervolted.preload(&bs, Mode::Raw).unwrap();
        let started = undervolted.now();
        let r = undervolted.reconfigure().unwrap();
        // The reconfiguration waited out the regulator (preload advanced
        // part of the settle window already).
        assert!(r.started_at >= started);
        assert!(r.started_at + r.control_overhead >= expected);
        // Path energy scales by (0.9)² while timing is unchanged.
        assert_eq!(r.transfer_time, base.transfer_time);
        assert!(
            r.energy_uj < base.energy_uj,
            "{} vs {}",
            r.energy_uj,
            base.energy_uj
        );
        let base_path = base.energy_uj
            - calib::MANAGER_ACTIVE_WAIT_MW * base.control_overhead.as_secs_f64() * 1e3
            - calib::MANAGER_ACTIVE_WAIT_MW * base.transfer_time.as_secs_f64() * 1e3;
        let under_path = r.energy_uj
            - calib::MANAGER_ACTIVE_WAIT_MW * r.control_overhead.as_secs_f64() * 1e3
            - calib::MANAGER_ACTIVE_WAIT_MW * r.transfer_time.as_secs_f64() * 1e3;
        assert!(
            (under_path / base_path - 0.81).abs() < 1e-9,
            "path-term scale {}",
            under_path / base_path
        );
    }

    #[test]
    fn uparc_i_reaches_1433_mb_s_on_247_kb() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 247 * 1024 / 164, 1); // ≈247 KB
        let mut sys = uparc();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
            .unwrap();
        let r = sys.reconfigure_bitstream(&bs, Mode::Raw).unwrap();
        assert!(!r.compressed);
        assert!(
            (r.bandwidth_mb_s() - 1433.0).abs() < 15.0,
            "{:.0} MB/s",
            r.bandwidth_mb_s()
        );
        assert!(r.efficiency() > 0.98, "efficiency {:.3}", r.efficiency());
    }

    #[test]
    fn small_bitstreams_pay_relatively_more_control_overhead() {
        // Fig. 5: 6.5 KB at 362.5 MHz ⇒ ~78.8% of theoretical.
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 41, 2); // 41 frames ≈ 6.57 KB
        let mut sys = uparc();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
            .unwrap();
        let r = sys.reconfigure_bitstream(&bs, Mode::Raw).unwrap();
        assert!(
            (r.efficiency() - 0.788).abs() < 0.03,
            "efficiency {:.3}",
            r.efficiency()
        );
    }

    #[test]
    fn uparc_ii_is_decompressor_limited_at_1008_mb_s() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 1300, 3); // ~213 KB
        let mut sys = uparc();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(255.0))
            .unwrap();
        let r = sys.reconfigure_bitstream(&bs, Mode::Compressed).unwrap();
        assert!(r.compressed);
        // The DCM grid from the 100 MHz reference reaches 125 MHz under
        // the decompressor's 126 MHz cap (within 1% of the paper's point).
        assert_eq!(r.decompressor_frequency, Some(Frequency::from_mhz(125.0)));
        // Transfer pace = 2 words/cycle at 125 MHz = 1.000 GB/s
        // (paper: 1.008 GB/s at exactly 126 MHz).
        let transfer_bw = r.bytes as f64 / r.transfer_time.as_secs_f64() / 1e6;
        assert!((transfer_bw - 1000.0).abs() < 12.0, "{transfer_bw:.0} MB/s");
    }

    #[test]
    fn decide_checks_the_round_trip_and_shares_the_source() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 40, 11);
        let Ok(Mode::Packed(packed)) = Mode::Compressed.decide(&bs, 1 << 18, Algorithm::XMatchPro)
        else {
            panic!("Compressed decides into Packed");
        };
        assert_eq!(packed.algorithm, Algorithm::XMatchPro);
        assert!(bs.eq_bytes(
            &Algorithm::XMatchPro
                .codec()
                .decompress(packed.bytes())
                .unwrap()
        ));
        // The source is the caller's stream, shared, not a copy.
        assert_eq!(packed.source().words().as_ptr(), bs.words().as_ptr());
        // A decided mode comes back as it is.
        let again = Mode::Packed(packed.clone())
            .decide(&bs, 1 << 18, Algorithm::Rle)
            .unwrap();
        assert_eq!(again, Mode::Packed(packed));
    }

    #[test]
    fn a_bram_that_differs_from_the_staged_image_is_decoded_alike() {
        // Two lanes stage the same payload; one then forgets it, as if its
        // BRAM no longer held the staged image, so its transfer decodes
        // the BRAM contents instead of writing the source words. Both
        // configure, time and count exactly alike, for every codec with a
        // hardware decoder, word-aligned payload or not.
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 400, 11);
        for alg in [
            Algorithm::XMatchPro,
            Algorithm::Rle,
            Algorithm::Lz77,
            Algorithm::Huffman,
        ] {
            let lane = || {
                let mut sys = UParc::builder(device.clone())
                    .decompressor(alg)
                    .build()
                    .unwrap();
                sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
                    .unwrap();
                sys.preload(&bs, Mode::Compressed).unwrap();
                sys
            };
            let (mut clean, mut decoded) = (lane(), lane());
            assert!(clean.packed.is_some(), "{alg}");
            decoded.packed = None;
            for round in 0..2 {
                let a = clean.reconfigure().unwrap();
                let b = decoded.reconfigure().unwrap();
                assert!(a.compressed, "{alg}");
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{alg} round {round}");
                let (c, d) = (clean.icap(), decoded.icap());
                assert_eq!(c.config_memory().diff_frames(d.config_memory()), 0);
                assert_eq!(c.words_consumed(), d.words_consumed(), "{alg}");
                assert_eq!(c.frames_committed(), d.frames_committed(), "{alg}");
            }
        }
    }

    #[test]
    fn a_raw_transfer_writes_sealed_only_while_the_bram_holds_the_stream() {
        // Two lanes stage the same raw stream; one then forgets it, so its
        // transfers parse the BRAM words. Both configure, time and count
        // alike, and after the same staged flip both fail alike.
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 40, 13);
        let lane = || {
            let mut sys = uparc();
            sys.preload(&bs, Mode::Raw).unwrap();
            sys
        };
        let (mut sealed, mut parsed) = (lane(), lane());
        assert!(sealed.raw.as_ref().is_some_and(|r| r.same_words(&bs)));
        parsed.raw = None;
        for round in 0..2 {
            let a = sealed.reconfigure().unwrap();
            let b = parsed.reconfigure().unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "round {round}");
            let (c, d) = (sealed.icap(), parsed.icap());
            assert_eq!(c.config_memory().diff_frames(d.config_memory()), 0);
            assert_eq!(c.words_consumed(), d.words_consumed());
            assert_eq!(c.frames_committed(), d.frames_committed());
        }
        for sys in [&mut sealed, &mut parsed] {
            sys.bram.corrupt_bit(100, 7).unwrap();
        }
        let a = sealed.reconfigure().unwrap_err();
        assert!(
            matches!(
                a,
                UparcError::Fpga(uparc_fpga::FpgaError::CrcMismatch { .. })
            ),
            "{a}"
        );
        assert_eq!(a, parsed.reconfigure().unwrap_err());
        assert_eq!(
            sealed.icap().words_consumed(),
            parsed.icap().words_consumed()
        );
        // A packed preload forgets the raw stream.
        sealed
            .set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .unwrap();
        sealed.preload(&bs, Mode::Compressed).unwrap();
        assert!(sealed.raw.is_none() && sealed.packed.is_some());
    }

    #[test]
    fn holds_staged_reads_the_byte_count_and_the_padded_tail() {
        for len in [0usize, 1, 3, 4, 5, 8, 13] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 1) as u8).collect();
            let image = BramImage::compressed(4, &bytes);
            let fetched = &image.words()[1..];
            assert!(holds_staged(fetched, &bytes), "len {len}");
            for word in 0..fetched.len() {
                for bit in [0, 7, 31] {
                    let mut flipped = fetched.to_vec();
                    flipped[word] ^= 1 << bit;
                    assert!(!holds_staged(&flipped, &bytes), "len {len} {word}:{bit}");
                }
            }
            assert!(!holds_staged(&fetched[..fetched.len() - 1], &bytes));
        }
        assert!(!holds_staged(&[], &[]));
    }

    #[test]
    fn compressed_mode_rejects_clocks_beyond_255() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 200, 4);
        let mut sys = uparc();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
            .unwrap();
        sys.preload(&bs, Mode::Compressed).unwrap();
        assert!(matches!(
            sys.reconfigure(),
            Err(UparcError::Frequency {
                limited_by: "compressed datapath",
                ..
            })
        ));
    }

    #[test]
    fn auto_mode_picks_compression_only_when_needed() {
        let device = Device::xc5vsx50t();
        let mut sys = uparc();
        let small = bitstream(&device, 200, 5); // 32 KB → raw
        let pre = sys.preload(&small, Mode::Auto).unwrap();
        assert!(!pre.compressed);
        let big = bitstream(&device, 2500, 6); // 410 KB → compressed
        let pre = sys.preload(&big, Mode::Auto).unwrap();
        assert!(pre.compressed);
        assert!(pre.stored_bytes <= sys.bram().capacity_bytes());
        assert!(pre.percent_saved().unwrap() > 50.0);
    }

    #[test]
    fn raw_mode_rejects_oversized_bitstreams() {
        let device = Device::xc5vsx50t();
        let big = bitstream(&device, 2500, 7);
        let mut sys = uparc();
        assert!(matches!(
            sys.preload(&big, Mode::Raw),
            Err(UparcError::RawTooLarge { .. })
        ));
    }

    #[test]
    fn reconfigure_without_preload_rejected() {
        let mut sys = uparc();
        assert!(matches!(
            sys.reconfigure(),
            Err(UparcError::NothingPreloaded)
        ));
    }

    #[test]
    fn configuration_memory_identical_between_modes() {
        // The compressed path must configure *exactly* the same frames.
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 300, 8);
        let mut raw_sys = uparc();
        raw_sys.reconfigure_bitstream(&bs, Mode::Raw).unwrap();
        let mut comp_sys = uparc();
        comp_sys
            .set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .unwrap();
        comp_sys
            .reconfigure_bitstream(&bs, Mode::Compressed)
            .unwrap();
        assert_eq!(
            raw_sys
                .icap()
                .config_memory()
                .diff_frames(comp_sys.icap().config_memory()),
            0
        );
        assert_eq!(raw_sys.icap().frames_committed(), 300);
    }

    #[test]
    fn power_trace_has_fig7_shape() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 1000, 9);
        let mut sys = uparc();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(300.0))
            .unwrap();
        sys.preload(&bs, Mode::Raw).unwrap();
        sys.advance_idle(SimTime::from_us(50));
        let r = sys.reconfigure().unwrap();
        sys.advance_idle(SimTime::from_us(50));
        let trace = sys.power_trace();
        // Peak power during transfer ≈ idle + manager + 1.09·300.
        let expected_peak = calib::V6_IDLE_MW + calib::MANAGER_ACTIVE_WAIT_MW + 1.09 * 300.0;
        assert!((trace.peak_mw() - expected_peak).abs() < 1.0);
        // The time above (idle + manager) is the transfer time.
        let above = trace.time_above(calib::V6_IDLE_MW + calib::MANAGER_ACTIVE_WAIT_MW + 1.0);
        assert_eq!(above, r.transfer_time);
    }

    #[test]
    fn frequency_scaling_halves_time_but_not_power() {
        // §V: "when the frequency is doubled, the reconfiguration time is
        // halved, but the power is not doubled".
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 1000, 10);
        let run = |mhz: f64| {
            let mut sys = uparc();
            sys.set_reconfiguration_frequency(Frequency::from_mhz(mhz))
                .unwrap();
            sys.reconfigure_bitstream(&bs, Mode::Raw).unwrap()
        };
        let r100 = run(100.0);
        let r200 = run(200.0);
        let t_ratio = r100.transfer_time.as_secs_f64() / r200.transfer_time.as_secs_f64();
        assert!((t_ratio - 2.0).abs() < 1e-6);
        let p100 = calib::V6_IDLE_MW + calib::MANAGER_ACTIVE_WAIT_MW + 1.09 * 100.0;
        let p200 = calib::V6_IDLE_MW + calib::MANAGER_ACTIVE_WAIT_MW + 1.09 * 200.0;
        assert!(p200 / p100 < 1.6);
        // And energy decreases with frequency (the active-wait effect).
        assert!(r200.energy_uj < r100.energy_uj);
    }

    #[test]
    fn dcm_relock_delays_the_next_reconfiguration() {
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 100, 11);
        let mut sys = uparc();
        sys.preload(&bs, Mode::Raw).unwrap();
        let before = sys.now();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(300.0))
            .unwrap();
        let r = sys.reconfigure().unwrap();
        // The reconfiguration could not start before the DCM relocked.
        assert!(r.started_at >= before + uparc_fpga::dcm::Dcm::LOCK_TIME);
    }

    #[test]
    fn swap_decompressor_changes_slot_and_clk3() {
        let _device = Device::xc5vsx50t();
        let mut sys = uparc();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .unwrap();
        let swap = sys.swap_decompressor(Algorithm::Rle).unwrap();
        assert_eq!(sys.decompressor().algorithm(), Algorithm::Rle);
        assert_eq!(swap.clk3, Frequency::from_mhz(200.0)); // FaRM RLE max
        assert!(
            swap.reconfiguration.bytes > 100_000,
            "the slot is a big module"
        );
        // Software-only algorithms cannot occupy the slot.
        assert!(matches!(
            sys.swap_decompressor(Algorithm::SevenZip),
            Err(UparcError::NoHardwareDecompressor { .. })
        ));
    }

    #[test]
    fn uparc_energy_efficiency_beats_30_uj_per_kb_by_tens() {
        // §V: xps_hwicap 30 µJ/KB vs UPaRC 0.66 µJ/KB (45×). At 50 MHz our
        // calibration gives ≈0.75 µJ/KB ⇒ ≈40×; same order, recorded in
        // EXPERIMENTS.md.
        let device = Device::xc5vsx50t();
        let bs = bitstream(&device, 1352, 12); // ≈216.5 KB
        let mut sys = uparc();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(50.0))
            .unwrap();
        let r = sys.reconfigure_bitstream(&bs, Mode::Raw).unwrap();
        assert!(r.uj_per_kb() < 1.0, "{:.3} µJ/KB", r.uj_per_kb());
        assert!(
            30.0 / r.uj_per_kb() > 35.0,
            "ratio {:.1}",
            30.0 / r.uj_per_kb()
        );
    }
}
