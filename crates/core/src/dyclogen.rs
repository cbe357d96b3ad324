//! DyCloGen — the dynamic clock generator (paper §III-D).
//!
//! DyCloGen provides three run-time-retunable clocks:
//!
//! * `CLK_1` — bitstream preloading (the Manager's BRAM port A),
//! * `CLK_2` — the reconfiguration clock (UReC, BRAM port B, ICAP),
//! * `CLK_3` — the decompressor clock.
//!
//! Unlike partial reconfiguration, the clocks are modified *while the
//! system stays operational*: DyCloGen programs the multiply/divide factors
//! of a DCM through its Dynamic Reconfiguration Port. Retuning costs two
//! DRP writes plus the DCM relock time, which DyCloGen accounts for.

use crate::error::UparcError;
use uparc_fpga::dcm::{Dcm, DcmConstraints};
use uparc_fpga::family::Family;
use uparc_sim::obs::{EventKind, Obs};
use uparc_sim::time::{Frequency, SimTime};

/// The three output clocks of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputClock {
    /// CLK_1 — preload clock.
    Preload,
    /// CLK_2 — reconfiguration clock.
    Reconfiguration,
    /// CLK_3 — decompressor clock.
    Decompressor,
}

impl OutputClock {
    /// Stable short name (`"clk1"`/`"clk2"`/`"clk3"`, the paper's Fig. 2
    /// labels), used in trace events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OutputClock::Preload => "clk1",
            OutputClock::Reconfiguration => "clk2",
            OutputClock::Decompressor => "clk3",
        }
    }
}

/// The dynamic clock generator: three DCM synthesis outputs from one input
/// reference.
#[derive(Debug, Clone)]
pub struct DyCloGen {
    fin: Frequency,
    dcms: [Dcm; 3],
    /// How close (relative) a synthesised frequency must get to its target.
    tolerance: f64,
    /// Observability handle: emits a `DcmRelock` span per actual relock.
    obs: Obs,
}

impl DyCloGen {
    /// Creates a DyCloGen from a `fin` reference (the paper uses 100 MHz),
    /// with all three outputs initially at `fin` (M = D = 2).
    ///
    /// # Errors
    ///
    /// [`UparcError::Fpga`] if `fin` itself is outside the DCM range.
    pub fn new(family: Family, fin: Frequency) -> Result<Self, UparcError> {
        let mk = || Dcm::new(family, fin, 2, 2).map_err(UparcError::from);
        Ok(DyCloGen {
            fin,
            dcms: [mk()?, mk()?, mk()?],
            tolerance: 0.01,
            obs: Obs::null(),
        })
    }

    /// Attaches an observability handle; each actual relock then emits a
    /// `DcmRelock` span (DRP write to LOCKED) and bumps the
    /// `dyclogen.relocks` counter.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The input reference clock.
    #[must_use]
    pub fn input(&self) -> Frequency {
        self.fin
    }

    /// The constraint set of the synthesis tiles.
    #[must_use]
    pub fn constraints(&self) -> &DcmConstraints {
        self.dcms[0].constraints()
    }

    /// Current frequency of `clock`, if locked at `now`.
    ///
    /// # Errors
    ///
    /// [`UparcError::Fpga`] with [`uparc_fpga::FpgaError::DcmNotLocked`]
    /// during a relock.
    pub fn frequency(&self, clock: OutputClock, now: SimTime) -> Result<Frequency, UparcError> {
        Ok(self.dcms[clock as usize].output(now)?)
    }

    /// Retunes `clock` to the fastest synthesisable frequency at or below
    /// `target`, which itself may not exceed `cap`. Returns the achieved
    /// frequency and the time at which the clock is locked and usable.
    ///
    /// Retuning to the factors `clock` already holds writes nothing: the
    /// clock is usable once any relock still in flight ends.
    ///
    /// # Errors
    ///
    /// * [`UparcError::Frequency`] if `target` exceeds `cap`.
    /// * [`UparcError::Unsynthesisable`] if no legal M/D combination lands
    ///   at or below the target, or the fastest one is more than the
    ///   tolerance (1 %) below it.
    pub fn retune(
        &mut self,
        clock: OutputClock,
        target: Frequency,
        cap: Frequency,
        now: SimTime,
    ) -> Result<(Frequency, SimTime), UparcError> {
        if target > cap {
            return Err(UparcError::Frequency {
                requested: target,
                max: cap,
                limited_by: "component ceiling",
            });
        }
        let dcm = &mut self.dcms[clock as usize];
        // Exact hit if possible, otherwise the fastest not exceeding target.
        let (m, d, achieved) = dcm
            .constraints()
            .best_factors_at_most(self.fin, target)
            .ok_or(UparcError::Unsynthesisable { target })?;
        let rel_err = (target.as_hz() - achieved.as_hz()) as f64 / target.as_hz() as f64;
        if rel_err > self.tolerance {
            return Err(UparcError::Unsynthesisable { target });
        }
        if dcm.factors() == (m, d) && !dcm.lock_failed() {
            // Already tuned: no DRP write, but the clock is usable only
            // once a relock still in flight ends.
            return Ok((achieved, self.ready_at(clock).max(now)));
        }
        dcm.retune(m, d, now)?;
        let locked = dcm.locked_at().expect("retune drops lock");
        let span = self.obs.begin(
            now,
            EventKind::DcmRelock {
                clock: clock.label(),
                target_mhz: target.as_mhz(),
            },
        );
        self.obs.end(locked, span);
        self.obs.count("dyclogen.relocks", 1);
        Ok((achieved, locked))
    }

    /// Earliest time at which `clock` is (or becomes) usable.
    #[must_use]
    pub fn ready_at(&self, clock: OutputClock) -> SimTime {
        self.dcms[clock as usize]
            .locked_at()
            .unwrap_or(SimTime::ZERO)
    }

    /// Arms a lock failure on `clock`: the next retune completes its DRP
    /// writes but the DCM never asserts LOCKED (fault injection).
    pub fn arm_lock_failure(&mut self, clock: OutputClock) {
        self.dcms[clock as usize].arm_lock_failure();
    }

    /// Whether `clock`'s DCM is in a failed-lock state (cleared by the next
    /// successful retune).
    #[must_use]
    pub fn lock_failed(&self, clock: OutputClock) -> bool {
        self.dcms[clock as usize].lock_failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dyclogen() -> DyCloGen {
        DyCloGen::new(Family::Virtex5, Frequency::from_mhz(100.0)).unwrap()
    }

    #[test]
    fn paper_headline_point_synthesises_exactly() {
        let mut d = dyclogen();
        let cap = Family::Virtex5.icap_overclock_limit();
        let (f, locked) = d
            .retune(
                OutputClock::Reconfiguration,
                Frequency::from_mhz(362.5),
                cap,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(f, Frequency::from_mhz(362.5));
        assert_eq!(locked, Dcm::LOCK_TIME);
        // Before lock the output is unusable; after, it reads 362.5 MHz.
        assert!(d
            .frequency(OutputClock::Reconfiguration, SimTime::ZERO)
            .is_err());
        assert_eq!(
            d.frequency(OutputClock::Reconfiguration, locked).unwrap(),
            Frequency::from_mhz(362.5)
        );
    }

    #[test]
    fn clocks_are_independent() {
        let mut d = dyclogen();
        let cap = Frequency::from_mhz(450.0);
        d.retune(
            OutputClock::Reconfiguration,
            Frequency::from_mhz(300.0),
            cap,
            SimTime::ZERO,
        )
        .unwrap();
        // CLK_1 and CLK_3 stay locked at their old frequency.
        assert_eq!(
            d.frequency(OutputClock::Preload, SimTime::ZERO).unwrap(),
            Frequency::from_mhz(100.0)
        );
        assert_eq!(
            d.frequency(OutputClock::Decompressor, SimTime::ZERO)
                .unwrap(),
            Frequency::from_mhz(100.0)
        );
    }

    #[test]
    fn target_above_cap_rejected() {
        let mut d = dyclogen();
        let err = d
            .retune(
                OutputClock::Reconfiguration,
                Frequency::from_mhz(362.5),
                Frequency::from_mhz(300.0), // e.g. a guaranteed-BRAM cap
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, UparcError::Frequency { .. }));
    }

    #[test]
    fn achieved_frequency_never_exceeds_target() {
        let mut d = dyclogen();
        let cap = Frequency::from_mhz(450.0);
        let mut now = SimTime::ZERO;
        for mhz in [50.0, 126.0, 200.0, 255.0, 300.0, 362.5] {
            let (f, locked) = d
                .retune(
                    OutputClock::Decompressor,
                    Frequency::from_mhz(mhz),
                    cap,
                    now,
                )
                .unwrap();
            assert!(f <= Frequency::from_mhz(mhz));
            assert!(f.as_mhz() >= mhz * 0.99, "{mhz}: achieved {f}");
            now = locked;
        }
    }

    #[test]
    fn retune_to_current_frequency_is_free() {
        let mut d = dyclogen();
        let cap = Frequency::from_mhz(450.0);
        let t0 = SimTime::from_us(100);
        let (_, l1) = d
            .retune(
                OutputClock::Reconfiguration,
                Frequency::from_mhz(200.0),
                cap,
                t0,
            )
            .unwrap();
        let (_, l2) = d
            .retune(
                OutputClock::Reconfiguration,
                Frequency::from_mhz(200.0),
                cap,
                l1,
            )
            .unwrap();
        assert_eq!(l2, l1, "no relock when the factors are unchanged");
    }

    #[test]
    fn retune_to_current_factors_mid_relock_waits_for_the_lock() {
        let mut d = dyclogen();
        let cap = Frequency::from_mhz(450.0);
        let target = Frequency::from_mhz(200.0);
        let clock = OutputClock::Reconfiguration;
        let (_, locked) = d.retune(clock, target, cap, SimTime::ZERO).unwrap();
        assert_eq!(locked, Dcm::LOCK_TIME);
        // Asked again halfway through the relock: no new DRP write, and
        // the clock is usable only when the first relock ends.
        let mid = SimTime::from_us(5);
        let (f, again) = d.retune(clock, target, cap, mid).unwrap();
        assert_eq!(f, target);
        assert_eq!(again, locked);
        assert_eq!(d.ready_at(clock), locked);
        assert!(d.frequency(clock, mid).is_err());
        assert_eq!(d.frequency(clock, again).unwrap(), target);
    }

    #[test]
    fn unsynthesisable_target_rejected() {
        let mut d = dyclogen();
        // 33 MHz from 100 MHz: the best at-most grid point (32.26 MHz) is
        // 2.2 % below the target, beyond the 1 % tolerance.
        let err = d
            .retune(
                OutputClock::Preload,
                Frequency::from_mhz(33.0),
                Frequency::from_mhz(450.0),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, UparcError::Unsynthesisable { .. }));
    }
}
