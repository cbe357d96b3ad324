//! Self-healing recovery around reconfiguration — the fault-tolerance
//! counterpart to the speed story.
//!
//! §I motivates UPaRC with fault-tolerant systems; §IV shows the marginal
//! overclocked operating points where CRC failures start to appear. This
//! module closes the loop: a [`RecoveryPolicy`] wraps
//! [`UParc::reconfigure`] with a bounded retry loop and a degradation
//! ladder, so that every *recoverable-by-design* fault (a flipped staged
//! word, a transient CRC failure at an overclocked point, a DCM that missed
//! lock, a stalled burst) is healed automatically, while structurally
//! unrecoverable errors (wrong device, capacity) still surface as their
//! original typed errors.
//!
//! The ladder, in escalation order:
//!
//! 1. **Retry / restage** — consumable faults (a transient CRC glitch, a
//!    corrupted staged image) go away once the BRAM is restaged from the
//!    host copy.
//! 2. **Retune retry** — a DCM lock failure is cleared by re-programming
//!    the M/D factors through the DRP.
//! 3. **Mode fallback** — decode corruption in compressed mode falls back
//!    to raw staging (when the raw image fits the BRAM).
//! 4. **Frequency fallback** — CRC failures at an overclocked CLK_2 drop
//!    to the family's guaranteed BRAM frequency (300 MHz, §V).
//! 5. **Watchdog abort** — a burst stalled beyond the watchdog limit is
//!    aborted in bounded simulated time instead of hanging.
//! 6. **Scrub and repair** — post-success ECC verification of the written
//!    partition corrects located single-bit upsets in place and rebuilds
//!    multi-bit-corrupted frames from the bitstream's own payload.
//!
//! Everything the recovery spent — extra attempts, extra simulated time,
//! extra energy above the successful attempt itself — is accounted in the
//! returned [`RecoveryReport`].

use crate::error::UparcError;
use crate::manager;
use crate::scrub::EccScrubber;
use crate::uparc::{Mode, PreloadReport, UParc, UparcReport};
use uparc_bitstream::builder::PartialBitstream;
use uparc_fpga::ecc::EccStatus;
use uparc_fpga::FpgaError;
use uparc_sim::fault::FaultKind;
use uparc_sim::obs::EventKind;
use uparc_sim::power::calib;
use uparc_sim::time::{Frequency, SimTime};

/// Knobs of the self-healing layer. [`RecoveryPolicy::default`] enables the
/// full ladder; [`RecoveryPolicy::none`] reproduces the bare
/// [`UParc::reconfigure`] behaviour (single attempt, no healing).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum reconfiguration attempts (including the first).
    pub max_attempts: u32,
    /// Climb the healing rungs: re-program the DCM after a lock failure
    /// (rung 2), fall back from compressed to raw staging on decode
    /// corruption when the raw image fits the BRAM (rung 3), drop CLK_2
    /// to the guaranteed BRAM frequency on a CRC failure at an
    /// overclocked point (rung 4), and ECC-verify the written partition
    /// after success, scrubbing single-bit upsets and golden-repairing
    /// multi-bit frames (rung 6). Without it, only retries and restages
    /// (rung 1) and the watchdog (rung 5) act.
    pub heal: bool,
    /// Transfer watchdog installed for the duration of the call (ladder
    /// rung 5); `None` leaves stalls unbounded.
    pub watchdog: Option<SimTime>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 4,
            heal: true,
            watchdog: Some(SimTime::from_ms(1)),
        }
    }
}

impl RecoveryPolicy {
    /// No healing at all: one attempt, no fallbacks, no verification. The
    /// baseline a resilience campaign compares against.
    #[must_use]
    pub fn none() -> Self {
        RecoveryPolicy {
            max_attempts: 1,
            heal: false,
            watchdog: None,
        }
    }

    /// Blind retries with restaging only — no fallbacks, no verification.
    /// Heals consumable faults but not persistent conditions.
    #[must_use]
    pub fn retry_only() -> Self {
        RecoveryPolicy {
            max_attempts: 4,
            heal: false,
            watchdog: Some(SimTime::from_ms(1)),
        }
    }
}

/// One healing step the recovery loop took, in the order taken.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RecoveryAction {
    /// The staged image was rebuilt in the BRAM from the host copy.
    Restage,
    /// The CLK_2 DCM was re-programmed after a lock failure.
    RetuneRetry {
        /// The target the retune re-requested.
        target: Frequency,
    },
    /// CLK_2 dropped from an overclocked point to the guaranteed ceiling.
    FrequencyFallback {
        /// The overclocked frequency that failed.
        from: Frequency,
        /// The guaranteed frequency retried at.
        to: Frequency,
    },
    /// Staging fell back from compressed to raw.
    ModeFallback,
    /// A stalled burst was aborted by the watchdog.
    WatchdogAbort {
        /// The watchdog limit that fired.
        limit: SimTime,
    },
    /// The post-success verification pass was re-run after a fault struck
    /// one of its own repair reconfigurations.
    VerifyRetry,
    /// Post-success ECC scrub corrected located single-bit upsets.
    ScrubRepair {
        /// Number of corrected bits.
        corrected: usize,
    },
    /// Multi-bit-corrupted frames were rebuilt from the bitstream payload.
    GoldenRepair {
        /// Number of frames rewritten.
        frames: usize,
    },
}

impl RecoveryAction {
    /// Stable short name (bench JSON key).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryAction::Restage => "restage",
            RecoveryAction::RetuneRetry { .. } => "retune_retry",
            RecoveryAction::FrequencyFallback { .. } => "frequency_fallback",
            RecoveryAction::ModeFallback => "mode_fallback",
            RecoveryAction::WatchdogAbort { .. } => "watchdog_abort",
            RecoveryAction::VerifyRetry => "verify_retry",
            RecoveryAction::ScrubRepair { .. } => "scrub_repair",
            RecoveryAction::GoldenRepair { .. } => "golden_repair",
        }
    }
}

/// What a recovered reconfiguration cost, beyond the reconfiguration
/// itself.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The final, successful reconfiguration.
    pub report: UparcReport,
    /// The final preload backing that reconfiguration.
    pub preload: PreloadReport,
    /// Reconfiguration attempts made (1 = clean first try).
    pub attempts: u32,
    /// Healing steps taken, in order (empty = clean first try).
    pub actions: Vec<RecoveryAction>,
    /// Simulated time spent beyond the final preload + reconfiguration
    /// (failed attempts, relocks, verification scans, repairs).
    pub extra_time: SimTime,
    /// Energy above the idle floor spent beyond the final preload +
    /// reconfiguration, in µJ.
    pub extra_energy_uj: f64,
    /// Faults the injector applied during this call.
    pub faults_applied: usize,
}

impl RecoveryReport {
    /// Whether any healing was needed.
    #[must_use]
    pub fn healed(&self) -> bool {
        !self.actions.is_empty()
    }
}

/// Errors that no amount of retrying fixes: the request itself is invalid
/// for this hardware.
fn is_unrecoverable(e: &UparcError) -> bool {
    matches!(
        e,
        UparcError::RawTooLarge { .. }
            | UparcError::BramCapacity { .. }
            | UparcError::Frequency { .. }
            | UparcError::Unsynthesisable { .. }
            | UparcError::DeadlineInfeasible { .. }
            | UparcError::BudgetInfeasible { .. }
            | UparcError::EnergyBudgetInfeasible { .. }
            | UparcError::UnknownRail { .. }
            | UparcError::NoHardwareDecompressor { .. }
            | UparcError::Fpga(FpgaError::WrongDevice { .. })
    )
}

/// Marks matching injector log records (from `log0` on) as detected.
fn mark_detected<F: Fn(&FaultKind) -> bool>(sys: &mut UParc, log0: usize, pred: F) {
    if let Some(inj) = sys.fault_injector_mut() {
        for rec in inj.log_mut().iter_mut().skip(log0) {
            if pred(&rec.kind) {
                rec.detected = true;
            }
        }
    }
}

/// Takes one ladder rung: records a `RecoveryRung` instant (and the
/// per-rung counter) on the system's observability handle, then appends
/// the action to the list.
fn take_rung(sys: &UParc, actions: &mut Vec<RecoveryAction>, action: RecoveryAction) {
    let obs = sys.obs();
    obs.instant(
        sys.now(),
        EventKind::RecoveryRung {
            rung: action.label(),
        },
    );
    obs.count("recovery.rungs", 1);
    actions.push(action);
}

impl RecoveryPolicy {
    /// Preloads and reconfigures `bs` under this policy, healing every
    /// recoverable fault along the way. `mode` is decided once per call
    /// ([`Mode::decide`]), so every restage stages the same payload.
    ///
    /// # Errors
    ///
    /// Structurally unrecoverable errors ([`UparcError::RawTooLarge`],
    /// [`UparcError::BramCapacity`], wrong-device streams, infeasible
    /// frequencies) and every preload error (a [`Mode::Packed`] payload
    /// of another codec or another bitstream included) propagate
    /// unchanged; recoverable errors propagate only once `max_attempts`
    /// is exhausted or the relevant ladder rung is disabled.
    pub fn reconfigure(
        &self,
        sys: &mut UParc,
        bs: &PartialBitstream,
        mode: Mode,
    ) -> Result<RecoveryReport, UparcError> {
        let prev_watchdog = sys.transfer_watchdog();
        sys.set_transfer_watchdog(self.watchdog);
        let out = self.run(sys, bs, mode);
        sys.set_transfer_watchdog(prev_watchdog);
        out
    }

    fn run(
        &self,
        sys: &mut UParc,
        bs: &PartialBitstream,
        mode: Mode,
    ) -> Result<RecoveryReport, UparcError> {
        let t0 = sys.now();
        let log0 = sys.fault_injector().map_or(0, |i| i.log().len());
        // Decided once per call: every restage stages the same payload.
        let mut mode = mode.decide(
            bs,
            sys.bram().capacity_bytes(),
            sys.decompressor().algorithm(),
        )?;
        let mut actions: Vec<RecoveryAction> = Vec::new();
        let mut need_preload = true;
        let mut preload: Option<PreloadReport> = None;
        let mut attempt = 0u32;

        let report = loop {
            attempt += 1;
            if need_preload {
                preload = Some(sys.preload(bs, mode.clone())?);
                need_preload = false;
            }
            match sys.reconfigure() {
                Ok(r) => break r,
                Err(e) => {
                    let retryable = attempt < self.max_attempts;
                    match &e {
                        UparcError::WatchdogTimeout { limit, .. } => {
                            mark_detected(sys, log0, |k| {
                                matches!(k, FaultKind::TransferStall { .. })
                            });
                            if !retryable {
                                return Err(e);
                            }
                            // The staged image is intact and the parser was
                            // aborted clean: a plain retry suffices.
                            take_rung(
                                sys,
                                &mut actions,
                                RecoveryAction::WatchdogAbort { limit: *limit },
                            );
                        }
                        UparcError::Fpga(FpgaError::DcmNotLocked) => {
                            // A lock failure is consumed (and logged) at the
                            // retune that armed it — possibly before this
                            // call — so match it across the whole log.
                            mark_detected(sys, 0, |k| matches!(k, FaultKind::RetuneLockFailure));
                            let target = sys.reconfiguration_target();
                            let (true, Some(target)) = (retryable && self.heal, target) else {
                                return Err(e);
                            };
                            sys.set_reconfiguration_frequency(target)?;
                            take_rung(sys, &mut actions, RecoveryAction::RetuneRetry { target });
                        }
                        e if is_unrecoverable(e) => return Err(e.clone()),
                        _ => {
                            // Data-corruption class: a flipped staged word
                            // or a CRC failure. The flip persists in the
                            // BRAM, so restaging is mandatory.
                            mark_detected(sys, log0, |k| {
                                matches!(k, FaultKind::StagedFlip { .. } | FaultKind::CrcTransient)
                            });
                            if !retryable {
                                return Err(e);
                            }
                            let is_crc =
                                matches!(&e, UparcError::Fpga(FpgaError::CrcMismatch { .. }));
                            let was_compressed = preload.as_ref().is_some_and(|p| p.compressed);
                            let raw_fits = bs.size_bytes() + 4 <= sys.bram().capacity_bytes();
                            if was_compressed && self.heal && raw_fits {
                                mode = Mode::Raw;
                                take_rung(sys, &mut actions, RecoveryAction::ModeFallback);
                            } else if is_crc && self.heal {
                                let guaranteed = sys.device().family().bram_guaranteed_frequency();
                                if let Some(from) =
                                    sys.reconfiguration_target().filter(|&t| t > guaranteed)
                                {
                                    sys.set_reconfiguration_frequency(guaranteed)?;
                                    take_rung(
                                        sys,
                                        &mut actions,
                                        RecoveryAction::FrequencyFallback {
                                            from,
                                            to: guaranteed,
                                        },
                                    );
                                }
                            }
                            take_rung(sys, &mut actions, RecoveryAction::Restage);
                            need_preload = true;
                        }
                    }
                }
            }
        };

        if self.heal {
            // The verification pass reconfigures too (scrub corrections,
            // golden repairs), so faults can strike *it* — a stalled or
            // corrupted repair burst is retried from the attempts budget
            // like any other recoverable failure.
            loop {
                match self.verify_partition(sys, bs, log0, &mut actions) {
                    Ok(()) => break,
                    Err(e) if attempt < self.max_attempts && !is_unrecoverable(&e) => {
                        attempt += 1;
                        take_rung(sys, &mut actions, RecoveryAction::VerifyRetry);
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        // Everything detected along the way ended in a verified success.
        // Lock failures detected before `log0` (armed at the preceding
        // retune) are healed by this success too.
        if let Some(inj) = sys.fault_injector_mut() {
            for (i, rec) in inj.log_mut().iter_mut().enumerate() {
                if rec.detected && (i >= log0 || matches!(rec.kind, FaultKind::RetuneLockFailure)) {
                    rec.recovered = true;
                }
            }
        }
        let faults_applied = sys.fault_injector().map_or(0, |i| i.log().len()) - log0;

        let preload = preload.expect("loop ran at least one preload");
        let t_end = sys.now();
        let base = report.elapsed() + preload.duration;
        let total = t_end - t0;
        let extra_time = if total > base {
            total - base
        } else {
            SimTime::ZERO
        };
        let preload_mw =
            calib::MANAGER_COPY_MW + calib::PRELOAD_PATH_MW_PER_MHZ * manager::CLOCK.as_mhz();
        let preload_uj = preload_mw * preload.duration.as_secs_f64() * 1e3;
        let extra_energy_uj =
            (sys.energy_above_uj(calib::V6_IDLE_MW, t0) - report.energy_uj - preload_uj).max(0.0);

        sys.obs().count("recovery.attempts", u64::from(attempt));
        if !actions.is_empty() {
            sys.obs().count("recovery.healed", 1);
        }
        Ok(RecoveryReport {
            report,
            preload,
            attempts: attempt,
            actions,
            extra_time,
            extra_energy_uj,
            faults_applied,
        })
    }

    /// ECC-verifies the frames `bs` wrote: single-bit upsets are scrubbed
    /// in place, multi-bit frames are rebuilt from the bitstream's own
    /// payload (which doubles as the golden copy).
    fn verify_partition(
        &self,
        sys: &mut UParc,
        bs: &PartialBitstream,
        log0: usize,
        actions: &mut Vec<RecoveryAction>,
    ) -> Result<(), UparcError> {
        let far = bs.far();
        let frames = bs.frame_count();
        let scrub = EccScrubber::new(far, frames).scrub(sys)?;
        if !scrub.corrected.is_empty() {
            mark_detected(sys, log0, |k| matches!(k, FaultKind::ConfigSeu { .. }));
            take_rung(
                sys,
                actions,
                RecoveryAction::ScrubRepair {
                    corrected: scrub.corrected.len(),
                },
            );
        }
        if scrub.uncorrectable.is_empty() {
            return Ok(());
        }
        mark_detected(sys, log0, |k| {
            matches!(k, FaultKind::ConfigSeu { .. } | FaultKind::ParitySeu { .. })
        });
        let fw = sys.icap().config_memory().frame_words();
        let payload = bs.payload();
        for &dirty in &scrub.uncorrectable {
            let i = (dirty - far) as usize;
            let golden = &payload[i * fw..(i + 1) * fw];
            let fix = PartialBitstream::build(sys.device(), dirty, golden);
            sys.reconfigure_bitstream(&fix, Mode::Raw)?;
        }
        for &dirty in &scrub.uncorrectable {
            if sys.icap().config_memory().ecc_check(dirty)? != EccStatus::Clean {
                return Err(UparcError::Compression(
                    "golden repair verification failed: frame still corrupt".into(),
                ));
            }
        }
        take_rung(
            sys,
            actions,
            RecoveryAction::GoldenRepair {
                frames: scrub.uncorrectable.len(),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_bitstream::synth::SynthProfile;
    use uparc_fpga::Device;
    use uparc_sim::fault::FaultInjector;
    use uparc_sim::time::Frequency;

    fn system() -> (UParc, PartialBitstream) {
        let device = Device::xc5vsx50t();
        let payload = SynthProfile::dense().generate(&device, 300, 60, 9);
        let bs = PartialBitstream::build(&device, 300, &payload);
        let mut sys = UParc::builder(device).build().unwrap();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(362.5))
            .unwrap();
        // Let the DCM lock so clean runs carry no relock wait.
        sys.advance_idle(SimTime::from_ms(1));
        (sys, bs)
    }

    #[test]
    fn clean_run_takes_one_attempt_and_no_actions() {
        let (mut sys, bs) = system();
        let rec = RecoveryPolicy::none()
            .reconfigure(&mut sys, &bs, Mode::Raw)
            .unwrap();
        assert_eq!(rec.attempts, 1);
        assert!(!rec.healed());
        assert_eq!(rec.extra_time, SimTime::ZERO);
        assert!(rec.extra_energy_uj < 1e-9, "{}", rec.extra_energy_uj);
    }

    #[test]
    fn transient_crc_at_overclock_heals_with_frequency_fallback() {
        let (mut sys, bs) = system();
        let mut inj = FaultInjector::empty();
        inj.schedule(sys.now(), FaultKind::CrcTransient);
        sys.attach_fault_injector(inj);
        let rec = RecoveryPolicy::default()
            .reconfigure(&mut sys, &bs, Mode::Raw)
            .unwrap();
        assert!(rec.attempts > 1);
        assert!(rec
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::FrequencyFallback { .. })));
        assert!(rec.extra_time > SimTime::ZERO);
        let log = sys.fault_injector().unwrap().log();
        assert!(log.iter().all(|r| r.detected && r.recovered));
    }

    #[test]
    fn policy_none_propagates_the_crc_error() {
        let (mut sys, bs) = system();
        let mut inj = FaultInjector::empty();
        inj.schedule(sys.now(), FaultKind::CrcTransient);
        sys.attach_fault_injector(inj);
        let err = RecoveryPolicy::none()
            .reconfigure(&mut sys, &bs, Mode::Raw)
            .unwrap_err();
        assert!(matches!(
            err,
            UparcError::Fpga(FpgaError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn wrong_device_stays_unrecoverable_under_the_full_policy() {
        let (mut sys, _) = system();
        let other = Device::xc6vlx240t();
        let payload = SynthProfile::dense().generate(&other, 0, 4, 1);
        let alien = PartialBitstream::build(&other, 0, &payload);
        let err = RecoveryPolicy::default()
            .reconfigure(&mut sys, &alien, Mode::Raw)
            .unwrap_err();
        assert!(matches!(
            err,
            UparcError::Fpga(FpgaError::WrongDevice { .. })
        ));
    }
}
