//! Digital Clock Manager (DCM) with Dynamic Reconfiguration Port (DRP).
//!
//! DyCloGen changes clock frequencies *while the clock network stays
//! operational* by programming the DCM's multiply/divide factors through its
//! DRP (paper §III-D): `F_out = F_in · M / D`. The model enforces the legal
//! M/D/output ranges, the relock latency after a DRP write, and provides the
//! factor search DyCloGen runs to hit a target frequency — e.g. the paper's
//! `F_in = 100 MHz, M = 29, D = 8 → 362.5 MHz` point.

use crate::error::FpgaError;
use crate::family::Family;
use std::ops::RangeInclusive;
use uparc_sim::time::{Frequency, SimTime};

/// DRP register address of the multiply factor (stored as `M − 1`).
pub const DRP_ADDR_M: u16 = 0x50;
/// DRP register address of the divide factor (stored as `D − 1`).
pub const DRP_ADDR_D: u16 = 0x52;

/// Legal operating ranges of a family's DCM frequency synthesis.
#[derive(Debug, Clone)]
pub struct DcmConstraints {
    /// Legal multiply factors.
    pub m_range: RangeInclusive<u32>,
    /// Legal divide factors.
    pub d_range: RangeInclusive<u32>,
    /// Minimum synthesised output frequency.
    pub fout_min: Frequency,
    /// Maximum synthesised output frequency.
    pub fout_max: Frequency,
}

impl DcmConstraints {
    /// Constraints of `family`'s clock management tile.
    #[must_use]
    pub fn for_family(family: Family) -> Self {
        match family {
            Family::Virtex4 => DcmConstraints {
                m_range: 2..=32,
                d_range: 1..=32,
                fout_min: Frequency::from_mhz(32.0),
                fout_max: Frequency::from_mhz(320.0),
            },
            Family::Virtex5 | Family::Virtex6 => DcmConstraints {
                m_range: 2..=32,
                d_range: 1..=32,
                fout_min: Frequency::from_mhz(32.0),
                fout_max: Frequency::from_mhz(450.0),
            },
        }
    }

    /// Validates `(fin, m, d)` and returns the synthesised output frequency.
    ///
    /// This is the typed-error validator for factors that come from
    /// outside ([`Dcm::new`], [`Dcm::retune`]); the searches never build
    /// its errors.
    ///
    /// # Errors
    ///
    /// [`FpgaError::DcmOutOfRange`] if a factor or the output frequency is
    /// outside this tile's ranges.
    pub fn check(&self, fin: Frequency, m: u32, d: u32) -> Result<Frequency, FpgaError> {
        if !self.m_range.contains(&m) {
            return Err(FpgaError::dcm_out_of_range(format!(
                "m={m} outside {:?}",
                self.m_range
            )));
        }
        if !self.d_range.contains(&d) {
            return Err(FpgaError::dcm_out_of_range(format!(
                "d={d} outside {:?}",
                self.d_range
            )));
        }
        let fout = fin.scaled(m, d);
        if !self.output_in_range(fout) {
            return Err(FpgaError::dcm_out_of_range(format!(
                "fout {fout} outside [{}, {}]",
                self.fout_min, self.fout_max
            )));
        }
        Ok(fout)
    }

    /// Whether `fout` lies in the tile's synthesisable output range.
    fn output_in_range(&self, fout: Frequency) -> bool {
        (self.fout_min..=self.fout_max).contains(&fout)
    }

    /// Every legal `(M, D, F_out)` for the input clock `fin`, in (M, D)
    /// order: exactly the factor pairs [`DcmConstraints::check`] accepts,
    /// with the frequency it returns. Rejected pairs are skipped without
    /// building an error, so a search over the grid allocates nothing.
    pub fn synthesisable(
        &self,
        fin: Frequency,
    ) -> impl Iterator<Item = (u32, u32, Frequency)> + '_ {
        self.m_range.clone().flat_map(move |m| {
            self.d_range.clone().filter_map(move |d| {
                let fout = fin.scaled(m, d);
                self.output_in_range(fout).then_some((m, d, fout))
            })
        })
    }

    /// Finds the legal `(M, D)` whose output is closest to `target`
    /// (ties: smaller M, then smaller D — less VCO activity).
    ///
    /// Returns `None` when no legal combination exists for this input clock.
    #[must_use]
    pub fn best_factors(&self, fin: Frequency, target: Frequency) -> Option<(u32, u32, Frequency)> {
        // `min_by_key` keeps the first minimum, and the enumeration runs in
        // (M, D) order: that is the tie-break.
        self.synthesisable(fin)
            .min_by_key(|&(_, _, fout)| fout.as_hz().abs_diff(target.as_hz()))
    }

    /// Finds the legal `(M, D)` maximising the output frequency subject to
    /// `fout ≤ cap` (ties: smaller M, then smaller D).
    ///
    /// This is the search a power-aware policy runs: "fastest clock that a
    /// component still sustains".
    ///
    /// It visits each divider once rather than every (M, D) pair. For a
    /// fixed `D` the output `⌊(fin·M + ⌊D/2⌋) / D⌋` never falls as `M`
    /// grows, so the largest `M` whose output is at most
    /// `c = min(cap, fout_max)` is `⌊((c + 1)·D − ⌊D/2⌋ − 1) / fin⌋`,
    /// clamped to the top of `m_range`. A divider offers nothing when that
    /// `M` lies below `m_range` or its output below `fout_min`. The result
    /// is the highest per-divider output, ties going to the smaller `M`,
    /// then the smaller `D`: the first maximum of
    /// [`DcmConstraints::synthesisable`] in (M, D) order, with about two
    /// divisions per divider.
    #[must_use]
    pub fn best_factors_at_most(
        &self,
        fin: Frequency,
        cap: Frequency,
    ) -> Option<(u32, u32, Frequency)> {
        let c = u128::from(cap.min(self.fout_max).as_hz());
        let fin_hz = u128::from(fin.as_hz());
        let (m_min, m_max) = (*self.m_range.start(), *self.m_range.end());
        let mut best: Option<(u32, u32, Frequency)> = None;
        for d in self.d_range.clone() {
            let wide_d = u128::from(d);
            // fin·M + ⌊D/2⌋ < (c + 1)·D keeps the output at most c.
            let bound = ((c + 1) * wide_d - wide_d / 2 - 1) / fin_hz;
            let mut m = u32::try_from(bound).map_or(m_max, |m| m.min(m_max));
            if m < m_min {
                continue;
            }
            let fout = fin.scaled(m, d);
            if fout < self.fout_min {
                continue;
            }
            // The output rises strictly with M only while fin ≥ D hertz;
            // below that an output can repeat, and its first M wins.
            if fin_hz < wide_d {
                while m > m_min && fin.scaled(m - 1, d) == fout {
                    m -= 1;
                }
            }
            if best.is_none_or(|(bm, _, bf)| fout > bf || (fout == bf && m < bm)) {
                best = Some((m, d, fout));
            }
        }
        best
    }
}

/// A DCM instance: one frequency-synthesis output, retunable through DRP.
///
/// After any DRP write the output is unlocked for [`Dcm::LOCK_TIME`]; using
/// the output before relock is an error, which forces controllers to model
/// the retuning latency honestly.
///
/// # Example
///
/// ```
/// use uparc_fpga::dcm::{Dcm, DRP_ADDR_M, DRP_ADDR_D};
/// use uparc_fpga::family::Family;
/// use uparc_sim::time::{Frequency, SimTime};
///
/// let mut dcm = Dcm::new(Family::Virtex5, Frequency::from_mhz(100.0), 2, 2)?;
/// // Program M=29, D=8 through the DRP (the paper's 362.5 MHz point).
/// dcm.drp_write(DRP_ADDR_M, 28, SimTime::ZERO)?;
/// dcm.drp_write(DRP_ADDR_D, 7, SimTime::ZERO)?;
/// assert!(dcm.output(SimTime::ZERO).is_err());            // still locking
/// let t = dcm.locked_at().unwrap();
/// assert_eq!(dcm.output(t)?, Frequency::from_mhz(362.5)); // locked
/// # Ok::<(), uparc_fpga::FpgaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dcm {
    constraints: DcmConstraints,
    fin: Frequency,
    m: u32,
    d: u32,
    /// Time at which the current factors (re-)lock; `None` = locked since
    /// before time tracking (initial configuration).
    locked_at: Option<SimTime>,
    /// Armed fault: the *next* retune fails to assert LOCKED.
    lock_glitch: bool,
    /// The most recent retune failed to lock; cleared by a further retune.
    lock_failed: bool,
}

impl Dcm {
    /// Relock time after a DRP factor change.
    pub const LOCK_TIME: SimTime = SimTime::from_us(10);

    /// Creates a DCM locked at `fin · m / d` from power-up.
    ///
    /// # Errors
    ///
    /// [`FpgaError::DcmOutOfRange`] for illegal initial factors.
    pub fn new(family: Family, fin: Frequency, m: u32, d: u32) -> Result<Self, FpgaError> {
        let constraints = DcmConstraints::for_family(family);
        constraints.check(fin, m, d)?;
        Ok(Dcm {
            constraints,
            fin,
            m,
            d,
            locked_at: None,
            lock_glitch: false,
            lock_failed: false,
        })
    }

    /// The constraint set of this tile.
    #[must_use]
    pub fn constraints(&self) -> &DcmConstraints {
        &self.constraints
    }

    /// Current `(M, D)` factors.
    #[must_use]
    pub fn factors(&self) -> (u32, u32) {
        (self.m, self.d)
    }

    /// Time at which the most recent retune locks (`None` if locked from
    /// power-up).
    #[must_use]
    pub fn locked_at(&self) -> Option<SimTime> {
        self.locked_at
    }

    /// Whether the output is locked at `now`.
    #[must_use]
    pub fn is_locked(&self, now: SimTime) -> bool {
        !self.lock_failed && self.locked_at.is_none_or(|t| now >= t)
    }

    /// Arms a fault: the next [`Dcm::retune`] completes its DRP writes but
    /// LOCKED never asserts. A further retune relocks normally — the
    /// recovery a runtime controller is expected to perform.
    pub fn arm_lock_failure(&mut self) {
        self.lock_glitch = true;
    }

    /// Whether the most recent retune failed to lock.
    #[must_use]
    pub fn lock_failed(&self) -> bool {
        self.lock_failed
    }

    /// Writes a DRP register at simulation time `now`. Factor registers hold
    /// `value + 1`; any factor write drops lock for [`Dcm::LOCK_TIME`].
    ///
    /// DRP writes happen while the output is held in reset, so only the
    /// *individual* factor range is checked here; the combined output
    /// frequency is validated when the output is next used (at lock).
    ///
    /// # Errors
    ///
    /// [`FpgaError::DcmOutOfRange`] for an unknown DRP address or a factor
    /// outside its register range (the write is then rejected and the
    /// previous factor stays in force).
    pub fn drp_write(&mut self, addr: u16, value: u16, now: SimTime) -> Result<(), FpgaError> {
        let v = u32::from(value) + 1;
        match addr {
            DRP_ADDR_M => {
                if !self.constraints.m_range.contains(&v) {
                    return Err(FpgaError::dcm_out_of_range(format!(
                        "m={v} outside {:?}",
                        self.constraints.m_range
                    )));
                }
                self.m = v;
            }
            DRP_ADDR_D => {
                if !self.constraints.d_range.contains(&v) {
                    return Err(FpgaError::dcm_out_of_range(format!(
                        "d={v} outside {:?}",
                        self.constraints.d_range
                    )));
                }
                self.d = v;
            }
            _ => {
                return Err(FpgaError::dcm_out_of_range(format!(
                    "unknown drp address {addr:#x}"
                )))
            }
        }
        self.locked_at = Some(now + Self::LOCK_TIME);
        Ok(())
    }

    /// Retunes to `(m, d)` in one step (two DRP writes under output reset),
    /// returning the future output frequency.
    ///
    /// # Errors
    ///
    /// [`FpgaError::DcmOutOfRange`] if the final combination is illegal; the
    /// previous factors then stay in force.
    pub fn retune(&mut self, m: u32, d: u32, now: SimTime) -> Result<Frequency, FpgaError> {
        let fout = self.constraints.check(self.fin, m, d)?;
        self.drp_write(DRP_ADDR_M, (m - 1) as u16, now)?;
        self.drp_write(DRP_ADDR_D, (d - 1) as u16, now)?;
        // An armed lock glitch is consumed by exactly one retune: the DRP
        // writes land but LOCKED never asserts until the tile is retuned
        // again.
        self.lock_failed = std::mem::take(&mut self.lock_glitch);
        Ok(fout)
    }

    /// The synthesised output frequency, if locked at `now`.
    ///
    /// # Errors
    ///
    /// * [`FpgaError::DcmNotLocked`] during relock.
    /// * [`FpgaError::DcmOutOfRange`] if the programmed factor combination
    ///   synthesises an illegal output — such a DCM never locks.
    pub fn output(&self, now: SimTime) -> Result<Frequency, FpgaError> {
        let fout = self.constraints.check(self.fin, self.m, self.d)?;
        if !self.is_locked(now) {
            return Err(FpgaError::DcmNotLocked);
        }
        Ok(fout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_is_found_by_search() {
        let c = DcmConstraints::for_family(Family::Virtex5);
        let (m, d, f) = c
            .best_factors(Frequency::from_mhz(100.0), Frequency::from_mhz(362.5))
            .unwrap();
        assert_eq!((m, d), (29, 8));
        assert_eq!(f, Frequency::from_mhz(362.5));
    }

    #[test]
    fn search_covers_fig7_frequencies() {
        // Every Fig. 7 sweep point is exactly synthesisable from 100 MHz.
        let c = DcmConstraints::for_family(Family::Virtex6);
        for mhz in [50.0, 100.0, 200.0, 300.0] {
            let (_, _, f) = c
                .best_factors(Frequency::from_mhz(100.0), Frequency::from_mhz(mhz))
                .unwrap();
            assert_eq!(f, Frequency::from_mhz(mhz), "target {mhz} MHz");
        }
    }

    #[test]
    fn at_most_never_exceeds_cap() {
        let c = DcmConstraints::for_family(Family::Virtex5);
        let fin = Frequency::from_mhz(100.0);
        for cap_mhz in [33.0, 126.0, 255.0, 300.0, 362.5, 449.0] {
            let cap = Frequency::from_mhz(cap_mhz);
            let (m, d, f) = c.best_factors_at_most(fin, cap).unwrap();
            assert!(f <= cap, "cap {cap}: got {f} (m={m}, d={d})");
            // Away from the edge of the legal range the rich M/D grid gets
            // within 2% of the cap (near fout_min the grid is sparser).
            if cap_mhz >= 50.0 {
                assert!(
                    f.as_hz() as f64 >= cap.as_hz() as f64 * 0.98,
                    "cap {cap}: got {f}"
                );
            }
        }
    }

    /// Every (M, D) that `check` accepts, with its output, in (M, D)
    /// order: the grid as the searches found it before `synthesisable`.
    fn grid_by_check(c: &DcmConstraints, fin: Frequency) -> Vec<(u32, u32, Frequency)> {
        let mut grid = Vec::new();
        for m in c.m_range.clone() {
            for d in c.d_range.clone() {
                if let Ok(f) = c.check(fin, m, d) {
                    grid.push((m, d, f));
                }
            }
        }
        grid
    }

    /// The closest-match search as it was before `synthesisable`, over
    /// the `check` grid.
    fn best_factors_by_check(
        grid: &[(u32, u32, Frequency)],
        target: Frequency,
    ) -> Option<(u32, u32, Frequency)> {
        let mut best: Option<(u64, u32, u32, Frequency)> = None;
        for &(m, d, fout) in grid {
            let err = fout.as_hz().abs_diff(target.as_hz());
            let better = match &best {
                None => true,
                Some((be, bm, bd, _)) => {
                    err < *be || (err == *be && (m < *bm || (m == *bm && d < *bd)))
                }
            };
            if better {
                best = Some((err, m, d, fout));
            }
        }
        best.map(|(_, m, d, f)| (m, d, f))
    }

    /// `best_factors_at_most` as it was before `synthesisable`, over the
    /// `check` grid.
    fn best_factors_at_most_by_check(
        grid: &[(u32, u32, Frequency)],
        cap: Frequency,
    ) -> Option<(u32, u32, Frequency)> {
        let mut best: Option<(Frequency, u32, u32)> = None;
        for &(m, d, fout) in grid {
            if fout > cap {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bf, bm, bd)) => {
                    fout > *bf || (fout == *bf && (m < *bm || (m == *bm && d < *bd)))
                }
            };
            if better {
                best = Some((fout, m, d));
            }
        }
        best.map(|(f, m, d)| (m, d, f))
    }

    #[test]
    fn enumeration_and_searches_match_the_check_scan() {
        for family in [Family::Virtex4, Family::Virtex5, Family::Virtex6] {
            let c = DcmConstraints::for_family(family);
            for mhz in [25.0, 66.67, 100.0, 133.0] {
                let fin = Frequency::from_mhz(mhz);
                let by_check = grid_by_check(&c, fin);
                let listed: Vec<_> = c.synthesisable(fin).collect();
                assert_eq!(listed, by_check, "{family:?} at {fin}");
                // A coarse sweep from below the output range to above it,
                // plus exact hits on every legal output and 1 Hz either side.
                let mut targets: Vec<Frequency> = (0..24u64)
                    .map(|i| Frequency::from_hz(1_000_000 + i * 21_000_000))
                    .collect();
                for &(_, _, f) in &listed {
                    let hz = f.as_hz();
                    targets.extend([hz - 1, hz, hz + 1].map(Frequency::from_hz));
                }
                targets.sort_unstable();
                targets.dedup();
                for target in targets {
                    assert_eq!(
                        c.best_factors(fin, target),
                        best_factors_by_check(&by_check, target),
                        "{family:?} at {fin}, target {target}"
                    );
                    assert_eq!(
                        c.best_factors_at_most(fin, target),
                        best_factors_at_most_by_check(&by_check, target),
                        "{family:?} at {fin}, cap {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn at_most_search_keeps_the_first_m_of_a_repeated_output() {
        // Below fin = D hertz one output repeats across several M, and the
        // scan keeps the first of them. A smaller divider usually reaches
        // that output with a smaller M anyway; with D starting at 16 none
        // does, so the per-divider bound itself must step back. Only a
        // tile with a hertz-scale output range gets there.
        let c = DcmConstraints {
            d_range: 16..=32,
            fout_min: Frequency::from_hz(1),
            fout_max: Frequency::from_hz(1_000),
            ..DcmConstraints::for_family(Family::Virtex6)
        };
        for fin_hz in [8, 13, 20, 31, 32, 47] {
            let fin = Frequency::from_hz(fin_hz);
            let by_check = grid_by_check(&c, fin);
            for cap_hz in 1..=1_100 {
                let cap = Frequency::from_hz(cap_hz);
                assert_eq!(
                    c.best_factors_at_most(fin, cap),
                    best_factors_at_most_by_check(&by_check, cap),
                    "fin {fin}, cap {cap}"
                );
            }
        }
    }

    #[test]
    fn illegal_factors_rejected() {
        let c = DcmConstraints::for_family(Family::Virtex5);
        let fin = Frequency::from_mhz(100.0);
        assert!(c.check(fin, 1, 1).is_err()); // m too small
        assert!(c.check(fin, 33, 1).is_err()); // m too large
        assert!(c.check(fin, 2, 0).is_err()); // d zero
        assert!(c.check(fin, 32, 1).is_err()); // 3.2 GHz out of range
        assert!(c.check(fin, 2, 32).is_err()); // 6.25 MHz below fout_min
        assert_eq!(c.check(fin, 29, 8).unwrap(), Frequency::from_mhz(362.5));
    }

    #[test]
    fn drp_write_drops_lock_until_lock_time() {
        let mut dcm = Dcm::new(Family::Virtex5, Frequency::from_mhz(100.0), 4, 2).unwrap();
        assert!(dcm.is_locked(SimTime::ZERO));
        let t0 = SimTime::from_us(100);
        dcm.drp_write(DRP_ADDR_M, 5, t0).unwrap(); // M = 6
        assert!(!dcm.is_locked(t0));
        assert!(matches!(dcm.output(t0), Err(FpgaError::DcmNotLocked)));
        let relock = t0 + Dcm::LOCK_TIME;
        assert!(dcm.is_locked(relock));
        assert_eq!(dcm.output(relock).unwrap(), Frequency::from_mhz(300.0));
    }

    #[test]
    fn rejected_drp_write_keeps_previous_factors() {
        let mut dcm = Dcm::new(Family::Virtex5, Frequency::from_mhz(100.0), 29, 8).unwrap();
        // M = 32 with D = 8 gives 400 MHz (legal); M register value 31.
        // But M = 40 is out of the factor range entirely.
        assert!(dcm.drp_write(DRP_ADDR_M, 39, SimTime::ZERO).is_err());
        assert_eq!(dcm.factors(), (29, 8));
        assert!(
            dcm.is_locked(SimTime::ZERO),
            "failed write must not drop lock"
        );
    }

    #[test]
    fn retune_across_wide_ratio_changes() {
        // From 2/1 (200 MHz) to 29/8 (362.5 MHz): the transient M/D mix is
        // irrelevant because the output is reset during DRP programming.
        let mut dcm = Dcm::new(Family::Virtex5, Frequency::from_mhz(100.0), 2, 1).unwrap();
        let f = dcm.retune(29, 8, SimTime::ZERO).unwrap();
        assert_eq!(f, Frequency::from_mhz(362.5));
        assert_eq!(dcm.factors(), (29, 8));
        // And back down again.
        let t = dcm.locked_at().unwrap();
        let f = dcm.retune(2, 4, t).unwrap();
        assert_eq!(f, Frequency::from_mhz(50.0));
    }

    #[test]
    fn illegal_combination_never_locks() {
        let mut dcm = Dcm::new(Family::Virtex5, Frequency::from_mhz(100.0), 2, 2).unwrap();
        // Individually legal factors whose combination (3.2 GHz) is not.
        dcm.drp_write(DRP_ADDR_M, 31, SimTime::ZERO).unwrap(); // M = 32
        dcm.drp_write(DRP_ADDR_D, 0, SimTime::ZERO).unwrap(); // D = 1
        let after_lock_time = SimTime::from_ms(1);
        assert!(matches!(
            dcm.output(after_lock_time),
            Err(FpgaError::DcmOutOfRange { .. })
        ));
    }

    #[test]
    fn unknown_drp_address_rejected() {
        let mut dcm = Dcm::new(Family::Virtex5, Frequency::from_mhz(100.0), 2, 2).unwrap();
        assert!(dcm.drp_write(0x99, 0, SimTime::ZERO).is_err());
    }

    #[test]
    fn armed_lock_failure_holds_until_the_next_retune() {
        let mut dcm = Dcm::new(Family::Virtex6, Frequency::from_mhz(100.0), 2, 2).unwrap();
        dcm.arm_lock_failure();
        dcm.retune(3, 1, SimTime::ZERO).unwrap();
        assert!(dcm.lock_failed());
        // Even far past the nominal relock time, LOCKED never asserts.
        let late = SimTime::from_ms(10);
        assert!(!dcm.is_locked(late));
        assert!(matches!(dcm.output(late), Err(FpgaError::DcmNotLocked)));
        // A second retune (same factors) recovers normally.
        dcm.retune(3, 1, late).unwrap();
        assert!(!dcm.lock_failed());
        let relocked = late + Dcm::LOCK_TIME;
        assert_eq!(dcm.output(relocked).unwrap(), Frequency::from_mhz(300.0));
    }
}
