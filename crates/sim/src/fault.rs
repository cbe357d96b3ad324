//! Deterministic fault injection: seeded plans of simulated hardware faults.
//!
//! The UPaRC paper motivates ultra-fast reconfiguration with fault-tolerant
//! systems (§I): a single-event upset (SEU) in configuration memory silently
//! corrupts the running circuit until a partial reconfiguration repairs it,
//! and the overclocked operating points of §IV (362.5 MHz ICAP, BRAM beyond
//! its 300 MHz guarantee) are exactly where transfers become marginal. This
//! module provides the *scheduling* half of a resilience campaign: a
//! [`FaultPlan`] expands a `u64` seed into a sorted list of
//! [`ScheduledFault`]s, and a [`FaultInjector`] hands them out as simulated
//! time advances while keeping a [`FaultRecord`] log of what was applied,
//! detected and recovered.
//!
//! The module is deliberately free of `uparc-fpga` types: fault kinds speak
//! in raw frame/word/bit coordinates and the consumer (the system model)
//! maps them onto its own address spaces. Everything is reproducible from
//! the seed — no wall-clock, no global RNG.

use crate::rng;
use crate::time::SimTime;

/// One kind of injectable hardware fault.
///
/// Coordinates are raw indices into a [`FaultSpace`]; the consumer maps
/// them onto concrete resources (configuration frames, staging BRAM words,
/// the ICAP datapath, a DCM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// SEU in a configuration-memory frame: one data bit flips.
    ConfigSeu {
        /// Frame address (within the plan's [`FaultSpace`]).
        frame: u32,
        /// Word index within the frame.
        word: u32,
        /// Bit index within the word (0..32).
        bit: u8,
    },
    /// SEU in the stored ECC parity word of a frame (the check word itself
    /// is upset, not the data it protects).
    ParitySeu {
        /// Frame address (within the plan's [`FaultSpace`]).
        frame: u32,
        /// Bit index within the parity word (0..32).
        bit: u8,
    },
    /// Bit flip in a staged raw/compressed stream sitting in BRAM.
    StagedFlip {
        /// Word offset into the staged image.
        word: u32,
        /// Bit index within the word (0..32).
        bit: u8,
    },
    /// Transient bus stall: the transfer engine sees no data for the given
    /// number of clock cycles before resuming.
    TransferStall {
        /// Stall length in cycles of the transfer clock.
        cycles: u32,
    },
    /// Transient CRC corruption at a marginal (overclocked) transfer clock:
    /// the next config-CRC comparison latches a corrupted checksum even if
    /// the stream itself arrived intact.
    CrcTransient,
    /// DCM retune lock failure: the next retune completes its DRP writes
    /// but the DCM never asserts LOCKED until it is retuned again.
    RetuneLockFailure,
}

impl FaultKind {
    /// Short stable label for reports and JSON output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ConfigSeu { .. } => "config_seu",
            FaultKind::ParitySeu { .. } => "parity_seu",
            FaultKind::StagedFlip { .. } => "staged_flip",
            FaultKind::TransferStall { .. } => "transfer_stall",
            FaultKind::CrcTransient => "crc_transient",
            FaultKind::RetuneLockFailure => "retune_lock_failure",
        }
    }
}

/// A fault scheduled at an exact simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Simulated time at which the fault becomes due.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The coordinate space a plan draws fault locations from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpace {
    /// First frame address eligible for SEUs.
    pub frame_base: u32,
    /// Number of frames eligible for SEUs (SEU frames land in
    /// `frame_base..frame_base + frames`).
    pub frames: u32,
    /// Words per configuration frame.
    pub frame_words: u32,
    /// Size of the staged image in BRAM words (staged flips land in
    /// `0..staged_words`).
    pub staged_words: u32,
}

/// How many faults of each kind a plan schedules over its horizon.
///
/// Counts (not probabilities) keep campaigns exactly reproducible and let a
/// grid sweep the "fault rate" axis deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRates {
    /// SEUs in configuration-frame data.
    pub config_seu: u32,
    /// SEUs in stored frame parity words.
    pub parity_seu: u32,
    /// Bit flips in the staged BRAM image.
    pub staged_flip: u32,
    /// Transient transfer stalls.
    pub transfer_stall: u32,
    /// Transient CRC corruptions (consumed only at marginal clocks).
    pub crc_transient: u32,
    /// DCM retune lock failures.
    pub retune_lock_failure: u32,
}

impl FaultRates {
    /// Total number of faults the plan will schedule.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.config_seu
            + self.parity_seu
            + self.staged_flip
            + self.transfer_stall
            + self.crc_transient
            + self.retune_lock_failure
    }
}

/// Longest stall a plan will schedule, in transfer-clock cycles (~1.6 ms at
/// the 300 MHz guaranteed BRAM clock — comfortably past any sane watchdog).
pub const MAX_STALL_CYCLES: u32 = 500_000;

/// Shortest stall a plan will schedule, in transfer-clock cycles.
pub const MIN_STALL_CYCLES: u32 = 1_000;

/// A seeded, deterministic schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Expands `seed` into a schedule of [`FaultRates::total`] faults with
    /// locations drawn from `space` and times uniform over `[0, horizon)`.
    ///
    /// The expansion is pure: the same `(seed, space, rates, horizon)`
    /// always yields the identical plan, byte for byte.
    #[must_use]
    pub fn generate(seed: u64, space: &FaultSpace, rates: &FaultRates, horizon: SimTime) -> Self {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let span = horizon.as_fs().max(1);
        let at = |state: &mut u64| SimTime::from_fs(rng::next(state) % span);
        let mut faults = Vec::with_capacity(rates.total() as usize);
        let frames = space.frames.max(1);
        let frame_words = space.frame_words.max(1);
        let staged_words = space.staged_words.max(1);
        for _ in 0..rates.config_seu {
            let t = at(&mut state);
            let r = rng::next(&mut state);
            faults.push(ScheduledFault {
                at: t,
                kind: FaultKind::ConfigSeu {
                    frame: space.frame_base + (r as u32) % frames,
                    word: ((r >> 32) as u32) % frame_words,
                    bit: ((r >> 58) & 31) as u8,
                },
            });
        }
        for _ in 0..rates.parity_seu {
            let t = at(&mut state);
            let r = rng::next(&mut state);
            faults.push(ScheduledFault {
                at: t,
                kind: FaultKind::ParitySeu {
                    frame: space.frame_base + (r as u32) % frames,
                    bit: ((r >> 58) & 31) as u8,
                },
            });
        }
        for _ in 0..rates.staged_flip {
            let t = at(&mut state);
            let r = rng::next(&mut state);
            faults.push(ScheduledFault {
                at: t,
                kind: FaultKind::StagedFlip {
                    word: (r as u32) % staged_words,
                    bit: ((r >> 58) & 31) as u8,
                },
            });
        }
        for _ in 0..rates.transfer_stall {
            let t = at(&mut state);
            let r = rng::next(&mut state);
            let range = MAX_STALL_CYCLES - MIN_STALL_CYCLES;
            faults.push(ScheduledFault {
                at: t,
                kind: FaultKind::TransferStall {
                    cycles: MIN_STALL_CYCLES + (r as u32) % range,
                },
            });
        }
        for _ in 0..rates.crc_transient {
            let t = at(&mut state);
            faults.push(ScheduledFault {
                at: t,
                kind: FaultKind::CrcTransient,
            });
        }
        for _ in 0..rates.retune_lock_failure {
            let t = at(&mut state);
            faults.push(ScheduledFault {
                at: t,
                kind: FaultKind::RetuneLockFailure,
            });
        }
        // Stable sort by time: equal-time faults keep generation order, so
        // the plan is a pure function of its inputs.
        faults.sort_by_key(|f| f.at);
        FaultPlan { seed, faults }
    }

    /// The seed this plan was expanded from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, ascending by time.
    #[must_use]
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }
}

/// Log entry for one fault that was handed out by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// When the plan scheduled the fault.
    pub scheduled_at: SimTime,
    /// Simulated time at which the consumer actually applied it (fault
    /// application happens at operation boundaries, so this trails
    /// `scheduled_at`).
    pub applied_at: SimTime,
    /// What was applied.
    pub kind: FaultKind,
    /// Whether any detection mechanism (CRC, ECC, watchdog, typed error)
    /// observed the fault.
    pub detected: bool,
    /// Whether the system completed its operation despite the fault.
    pub recovered: bool,
}

/// Hands out scheduled faults as simulated time advances and logs what was
/// applied.
///
/// The injector is passive: the system model polls it at operation
/// boundaries with [`FaultInjector::take_due`] /
/// [`FaultInjector::take_all_due`], which remove due faults from the
/// pending queue and append a [`FaultRecord`]. Recovery layers then mark
/// records `detected`/`recovered` via [`FaultInjector::log_mut`].
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    /// Pending faults, ascending by scheduled time.
    pending: Vec<ScheduledFault>,
    log: Vec<FaultRecord>,
}

impl FaultInjector {
    /// Creates an injector from a plan.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            pending: plan.faults().to_vec(),
            log: Vec::new(),
        }
    }

    /// Creates an empty injector; faults can be added with
    /// [`FaultInjector::schedule`].
    #[must_use]
    pub fn empty() -> Self {
        FaultInjector::default()
    }

    /// Adds one fault, keeping the pending queue sorted by time.
    pub fn schedule(&mut self, at: SimTime, kind: FaultKind) {
        let idx = self.pending.partition_point(|f| f.at <= at);
        self.pending.insert(idx, ScheduledFault { at, kind });
    }

    /// Removes and returns the earliest pending fault that is due at `now`
    /// and matches `filter`, logging it as applied at `now`.
    pub fn take_due<F>(&mut self, now: SimTime, filter: F) -> Option<FaultKind>
    where
        F: Fn(&FaultKind) -> bool,
    {
        let idx = self
            .pending
            .iter()
            .position(|f| f.at <= now && filter(&f.kind))?;
        let fault = self.pending.remove(idx);
        self.log.push(FaultRecord {
            scheduled_at: fault.at,
            applied_at: now,
            kind: fault.kind,
            detected: false,
            recovered: false,
        });
        Some(fault.kind)
    }

    /// Removes and returns *all* pending faults due at `now` that match
    /// `filter`, in scheduled order, logging each.
    pub fn take_all_due<F>(&mut self, now: SimTime, filter: F) -> Vec<FaultKind>
    where
        F: Fn(&FaultKind) -> bool,
    {
        let mut taken = Vec::new();
        while let Some(kind) = self.take_due(now, &filter) {
            taken.push(kind);
        }
        taken
    }

    /// Faults not yet handed out, ascending by time.
    #[must_use]
    pub fn pending(&self) -> &[ScheduledFault] {
        &self.pending
    }

    /// Number of faults not yet handed out.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.pending.len()
    }

    /// The application log, in the order faults were handed out.
    #[must_use]
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// Mutable access to the log, for recovery layers marking faults
    /// detected/recovered.
    pub fn log_mut(&mut self) -> &mut [FaultRecord] {
        &mut self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::substream;

    #[test]
    fn substreams_are_pure_and_lane_separated() {
        // Pure in (seed, lane, index): re-derivation is identical.
        assert_eq!(substream(7, 1, 0), substream(7, 1, 0));
        // Neighbouring indices, lanes and seeds all decorrelate.
        assert_ne!(substream(7, 1, 0), substream(7, 1, 1));
        assert_ne!(substream(7, 1, 0), substream(7, 2, 0));
        assert_ne!(substream(7, 1, 0), substream(8, 1, 0));
        // A whole plan expanded from a sub-stream seed is therefore
        // independent of how many sibling sub-streams the campaign has.
        let plan = |i: u64| {
            FaultPlan::generate(
                substream(99, 3, i),
                &space(),
                &FaultRates {
                    config_seu: 2,
                    transfer_stall: 1,
                    ..FaultRates::default()
                },
                SimTime::from_ms(1),
            )
        };
        assert_eq!(plan(5), plan(5));
        assert_ne!(plan(5).faults(), plan(6).faults());
    }

    fn space() -> FaultSpace {
        FaultSpace {
            frame_base: 100,
            frames: 50,
            frame_words: 41,
            staged_words: 2048,
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let rates = FaultRates {
            config_seu: 3,
            parity_seu: 2,
            staged_flip: 4,
            transfer_stall: 1,
            crc_transient: 2,
            retune_lock_failure: 1,
        };
        let h = SimTime::from_us(500);
        let a = FaultPlan::generate(42, &space(), &rates, h);
        let b = FaultPlan::generate(42, &space(), &rates, h);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), rates.total() as usize);
        let c = FaultPlan::generate(43, &space(), &rates, h);
        assert_ne!(a, c, "different seed must change the plan");
    }

    #[test]
    fn plan_is_sorted_and_in_space() {
        let rates = FaultRates {
            config_seu: 20,
            staged_flip: 20,
            transfer_stall: 5,
            ..FaultRates::default()
        };
        let h = SimTime::from_ms(2);
        let plan = FaultPlan::generate(7, &space(), &rates, h);
        let faults = plan.faults();
        for pair in faults.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for f in faults {
            assert!(f.at < h);
            match f.kind {
                FaultKind::ConfigSeu { frame, word, bit } => {
                    assert!((100..150).contains(&frame));
                    assert!(word < 41);
                    assert!(bit < 32);
                }
                FaultKind::StagedFlip { word, bit } => {
                    assert!(word < 2048);
                    assert!(bit < 32);
                }
                FaultKind::TransferStall { cycles } => {
                    assert!((MIN_STALL_CYCLES..MAX_STALL_CYCLES).contains(&cycles));
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
    }

    #[test]
    fn injector_hands_out_due_faults_in_order() {
        let mut inj = FaultInjector::empty();
        inj.schedule(SimTime::from_us(30), FaultKind::CrcTransient);
        inj.schedule(
            SimTime::from_us(10),
            FaultKind::StagedFlip { word: 5, bit: 3 },
        );
        inj.schedule(
            SimTime::from_us(20),
            FaultKind::TransferStall { cycles: 5_000 },
        );
        assert_eq!(inj.remaining(), 3);
        // Nothing due yet.
        assert_eq!(inj.take_due(SimTime::from_us(5), |_| true), None);
        // Filter skips non-matching kinds even when earlier.
        let stall = inj.take_due(SimTime::from_us(25), |k| {
            matches!(k, FaultKind::TransferStall { .. })
        });
        assert_eq!(stall, Some(FaultKind::TransferStall { cycles: 5_000 }));
        // take_all_due drains what is left in scheduled order.
        let rest = inj.take_all_due(SimTime::from_ms(1), |_| true);
        assert_eq!(
            rest,
            vec![
                FaultKind::StagedFlip { word: 5, bit: 3 },
                FaultKind::CrcTransient
            ]
        );
        assert_eq!(inj.remaining(), 0);
        assert_eq!(inj.log().len(), 3);
        assert!(inj.log().iter().all(|r| !r.detected && !r.recovered));
    }
}
