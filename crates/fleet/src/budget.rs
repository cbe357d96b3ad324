//! Hierarchical rack-level power budgeting.
//!
//! The single-chip scheduler already plans under a per-chip cap via
//! residual budgets handed to `PowerAwarePolicy::plan_vf`. At rack
//! scale the cap is a *rack* number: this module decomposes it into
//! per-chip caps, once per deterministic rebalance epoch, proportionally
//! to the demand the router assigned to each chip in that epoch.
//!
//! Every chip always keeps `idle + floor` of budget — enough to run the
//! slowest admissible operating point — so no chip can starve; only the
//! *spare* headroom above that floor is redistributed by demand. By
//! construction the per-chip caps sum to exactly the rack cap in every
//! epoch, which is what makes the fleet's independent verification sweep
//! (`fleet::verify_rack`) come out at zero violations.

use uparc_sim::time::SimTime;

use crate::FleetError;

/// A rack-level power emergency: between `from` and `to` the rack cap is
/// cut to `cap_mw` (facility brownout, cooling failure, grid curtailment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmergencyWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// The emergency rack cap inside the window, mW.
    pub cap_mw: f64,
}

impl EmergencyWindow {
    /// Whether `at_fs` falls inside the window.
    #[must_use]
    pub fn contains(&self, at_fs: u64) -> bool {
        self.from.as_fs() <= at_fs && at_fs < self.to.as_fs()
    }
}

/// The rack cap as a function of time: a base cap cut down by any
/// overlapping [`EmergencyWindow`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct CapTimeline {
    base_mw: f64,
    emergencies: Vec<EmergencyWindow>,
}

impl CapTimeline {
    /// A base cap cut by `emergencies` wherever they apply.
    #[must_use]
    pub fn with_emergencies(base_mw: f64, emergencies: &[EmergencyWindow]) -> Self {
        CapTimeline {
            base_mw,
            emergencies: emergencies.to_vec(),
        }
    }

    /// The effective rack cap at `at_fs` — the base cap, or the lowest
    /// emergency cap among windows containing the instant.
    #[must_use]
    pub fn cap_at(&self, at_fs: u64) -> f64 {
        self.emergencies
            .iter()
            .filter(|w| w.contains(at_fs))
            .map(|w| w.cap_mw)
            .fold(self.base_mw, f64::min)
    }

    /// The tightest cap anywhere in `[from_fs, to_fs)`.
    #[must_use]
    pub fn min_over(&self, from_fs: u64, to_fs: u64) -> f64 {
        self.emergencies
            .iter()
            .filter(|w| w.from.as_fs() < to_fs.max(from_fs + 1) && from_fs < w.to.as_fs())
            .map(|w| w.cap_mw)
            .fold(self.base_mw, f64::min)
    }

    /// End of the last emergency, in femtoseconds (0 if none).
    #[must_use]
    pub fn last_emergency_end_fs(&self) -> u64 {
        self.emergencies
            .iter()
            .map(|w| w.to.as_fs())
            .max()
            .unwrap_or(0)
    }
}

/// A rack-level power budget with a deterministic rebalance epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackBudget {
    /// Total rack cap (idle of every chip included), mW.
    pub cap_mw: f64,
    /// Rebalance period: per-chip caps are recomputed at each multiple.
    pub epoch: SimTime,
}

impl RackBudget {
    /// Decomposes the rack cap into per-chip caps for each epoch.
    ///
    /// `demand[e][c]` is the number of requests the router assigned to
    /// chip `c` arriving in epoch `e`. Each live chip's cap in an epoch is
    ///
    /// ```text
    /// cap[c][e] = idle + floor + spare · (1 + demand[e][c]) / Σ_live (1 + demand[e][c])
    /// ```
    ///
    /// with `spare = cap_e − live_chips·(idle + floor)`, where `cap_e` is
    /// the tightest rack cap `timeline` gives anywhere in the epoch (so
    /// emergency windows tighten the per-epoch pool). The `1 +` keeps
    /// idle chips fundable (a request routed near an epoch boundary may
    /// still be draining). Chips dead by an epoch's start (`loss_at`)
    /// drop to a zero cap, with their idle+floor reclaimed and the whole
    /// epoch cap re-decomposed over the surviving set, so the caps of the
    /// *live* set sum to `cap_e` exactly.
    ///
    /// The schedule always extends past the last emergency window, so
    /// a tail emergency tightens real epochs rather than falling off the
    /// clamped end of the table.
    ///
    /// # Errors
    ///
    /// [`FleetError::InfeasibleRackCap`] if any epoch's effective cap
    /// cannot fund `live_chips · (idle + floor)`.
    pub fn schedule_chaos(
        &self,
        demand: &[Vec<u64>],
        chips: usize,
        idle_mw: f64,
        floor_mw: f64,
        timeline: &CapTimeline,
        loss_at: &[Option<SimTime>],
    ) -> Result<CapSchedule, FleetError> {
        let epoch_fs = self.epoch.as_fs().max(1);
        let emergency_epochs = (timeline.last_emergency_end_fs() / epoch_fs + 1) as usize;
        let epochs = demand.len().max(emergency_epochs).max(1);
        let mut caps = vec![vec![0.0f64; epochs]; chips];
        for e in 0..epochs {
            let e_from = e as u64 * epoch_fs;
            let cap_e = timeline.min_over(e_from, e_from + epoch_fs);
            let live: Vec<bool> = (0..chips)
                .map(|c| loss_at[c].is_none_or(|t| t.as_fs() > e_from))
                .collect();
            let n_live = live.iter().filter(|&&l| l).count();
            if n_live == 0 {
                continue; // whole rack dark: every cap stays 0
            }
            let required_mw = n_live as f64 * (idle_mw + floor_mw);
            let spare = cap_e - required_mw;
            if spare < 0.0 {
                return Err(FleetError::InfeasibleRackCap {
                    required_mw,
                    cap_mw: cap_e,
                });
            }
            let weights: Vec<f64> = (0..chips)
                .map(|c| {
                    if live[c] {
                        1.0 + demand.get(e).map_or(0.0, |d| d[c] as f64)
                    } else {
                        0.0
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            for ((row, &w), &l) in caps.iter_mut().zip(&weights).zip(&live) {
                if l {
                    row[e] = idle_mw + floor_mw + spare * w / total;
                }
            }
        }
        Ok(CapSchedule { epoch_fs, caps })
    }
}

/// The per-chip, per-epoch cap table a [`RackBudget`] decomposes into.
#[derive(Debug, Clone, PartialEq)]
pub struct CapSchedule {
    epoch_fs: u64,
    /// `caps[chip][epoch]`, mW (idle included).
    caps: Vec<Vec<f64>>,
}

impl CapSchedule {
    /// Number of scheduled epochs.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.caps.first().map_or(0, Vec::len)
    }

    /// The epoch index containing `at_fs` (clamped to the last epoch:
    /// traffic draining past the scheduled horizon keeps its final
    /// allocation).
    #[must_use]
    fn epoch_of(&self, at_fs: u64) -> usize {
        ((at_fs / self.epoch_fs) as usize).min(self.epochs().saturating_sub(1))
    }

    /// Chip `c`'s cap at instant `at_fs`, mW.
    #[must_use]
    pub fn cap(&self, c: usize, at_fs: u64) -> f64 {
        self.caps[c][self.epoch_of(at_fs)]
    }

    /// The *minimum* cap chip `c` sees anywhere in `[from_fs, to_fs]`.
    ///
    /// Dispatch planning uses this over a conservative transfer window,
    /// so a transfer spanning a rebalance boundary is planned under the
    /// tightest cap it can encounter and never violates a lowered
    /// next-epoch allocation mid-flight.
    #[must_use]
    pub fn min_cap_over(&self, c: usize, from_fs: u64, to_fs: u64) -> f64 {
        let (first, last) = (self.epoch_of(from_fs), self.epoch_of(to_fs.max(from_fs)));
        self.caps[c][first..=last]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule under the budget's constant cap with every chip live.
    fn quiet(
        budget: &RackBudget,
        demand: &[Vec<u64>],
        chips: usize,
        floor_mw: f64,
    ) -> Result<CapSchedule, FleetError> {
        let timeline = CapTimeline::with_emergencies(budget.cap_mw, &[]);
        budget.schedule_chaos(demand, chips, 53.0, floor_mw, &timeline, &vec![None; chips])
    }

    #[test]
    fn caps_sum_to_the_rack_cap_every_epoch() {
        let budget = RackBudget {
            cap_mw: 4000.0,
            epoch: SimTime::from_ms(1),
        };
        let demand = vec![vec![10, 0, 0, 2], vec![0, 0, 5, 5], vec![1, 1, 1, 1]];
        let s = quiet(&budget, &demand, 4, 300.0).unwrap();
        assert_eq!(s.epochs(), 3);
        for e in 0..3 {
            let total: f64 = (0..4).map(|c| s.cap(c, e as u64 * 1_000_000_000_000)).sum();
            assert!(
                (total - 4000.0).abs() < 1e-9,
                "epoch {e} caps sum to {total}"
            );
        }
        // Demand tilts the split: chip 0 dominates epoch 0.
        assert!(s.cap(0, 0) > s.cap(1, 0));
        // Every chip keeps at least idle + floor.
        for c in 0..4 {
            for e in 0..3u64 {
                assert!(s.cap(c, e * 1_000_000_000_000) >= 53.0 + 300.0 - 1e-12);
            }
        }
    }

    #[test]
    fn infeasible_cap_is_rejected() {
        let budget = RackBudget {
            cap_mw: 100.0,
            epoch: SimTime::from_ms(1),
        };
        let err = quiet(&budget, &[vec![0, 0]], 2, 300.0).unwrap_err();
        assert!(matches!(err, FleetError::InfeasibleRackCap { .. }));
    }

    #[test]
    fn min_cap_over_spans_epoch_boundaries() {
        let budget = RackBudget {
            cap_mw: 1000.0,
            epoch: SimTime::from_us(100),
        };
        // Chip 0 busy in epoch 0, idle in epoch 1 → its cap drops.
        let demand = vec![vec![50, 0], vec![0, 50]];
        let s = quiet(&budget, &demand, 2, 100.0).unwrap();
        let e0 = s.cap(0, 0);
        let e1 = s.cap(0, 100_000_000_000);
        assert!(e0 > e1);
        // A window spanning the boundary sees the tighter epoch-1 cap.
        let w = s.min_cap_over(0, 99_000_000_000, 101_000_000_000);
        assert!((w - e1).abs() < 1e-12);
        // Past the horizon the last epoch's caps persist.
        assert!((s.cap(0, u64::MAX / 2) - e1).abs() < 1e-12);
    }

    #[test]
    fn emergency_epochs_redistribute_over_the_live_set() {
        let budget = RackBudget {
            cap_mw: 4000.0,
            epoch: SimTime::from_us(100),
        };
        // Chip 1 dies at 150 µs (start of epoch 1 is 100 µs, so it is
        // still live there; dead from epoch 2 on). Emergency cuts the
        // rack to 2500 mW across epochs 2–3.
        let timeline = CapTimeline::with_emergencies(
            4000.0,
            &[EmergencyWindow {
                from: SimTime::from_us(200),
                to: SimTime::from_us(400),
                cap_mw: 2500.0,
            }],
        );
        let loss = vec![None, Some(SimTime::from_us(150)), None, None];
        let demand = vec![vec![5, 5, 5, 5]; 5];
        let s = budget
            .schedule_chaos(&demand, 4, 53.0, 300.0, &timeline, &loss)
            .unwrap();
        let at = |e: u64| e * 100_000_000_000;
        // Epoch 1: chip 1 still live (dies mid-epoch), full cap pool.
        let total1: f64 = (0..4).map(|c| s.cap(c, at(1))).sum();
        assert!((total1 - 4000.0).abs() < 1e-9);
        // Epoch 2: emergency cap, chip 1 dark, live caps sum to 2500.
        assert_eq!(s.cap(1, at(2)), 0.0);
        let total2: f64 = (0..4).map(|c| s.cap(c, at(2))).sum();
        assert!((total2 - 2500.0).abs() < 1e-9, "live set sums to {total2}");
        for c in [0usize, 2, 3] {
            assert!(s.cap(c, at(2)) >= 53.0 + 300.0 - 1e-12);
        }
        // Epoch 4: emergency over, chip 1 still dead, back to 4000.
        let total4: f64 = (0..4).map(|c| s.cap(c, at(4))).sum();
        assert!((total4 - 4000.0).abs() < 1e-9);
        assert_eq!(s.cap(1, at(4)), 0.0);
    }

    #[test]
    fn emergency_past_demand_horizon_extends_the_schedule() {
        let budget = RackBudget {
            cap_mw: 2000.0,
            epoch: SimTime::from_us(100),
        };
        let timeline = CapTimeline::with_emergencies(
            2000.0,
            &[EmergencyWindow {
                from: SimTime::from_us(800),
                to: SimTime::from_us(900),
                cap_mw: 1200.0,
            }],
        );
        let s = budget
            .schedule_chaos(&[vec![1, 1]], 2, 53.0, 300.0, &timeline, &[None, None])
            .unwrap();
        // One demand epoch, but the table reaches past the emergency.
        assert!(s.epochs() >= 10);
        let total8: f64 = (0..2).map(|c| s.cap(c, 800_000_000_000)).sum();
        assert!((total8 - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_emergency_cap_is_rejected() {
        let budget = RackBudget {
            cap_mw: 2000.0,
            epoch: SimTime::from_us(100),
        };
        let timeline = CapTimeline::with_emergencies(
            2000.0,
            &[EmergencyWindow {
                from: SimTime::ZERO,
                to: SimTime::from_us(100),
                cap_mw: 100.0,
            }],
        );
        let err = budget
            .schedule_chaos(&[vec![0, 0]], 2, 53.0, 300.0, &timeline, &[None, None])
            .unwrap_err();
        assert!(matches!(
            err,
            FleetError::InfeasibleRackCap { cap_mw, .. } if cap_mw == 100.0
        ));
    }

    #[test]
    fn cap_timeline_takes_the_tightest_overlap() {
        let t = CapTimeline::with_emergencies(
            5000.0,
            &[
                EmergencyWindow {
                    from: SimTime::from_us(100),
                    to: SimTime::from_us(300),
                    cap_mw: 3000.0,
                },
                EmergencyWindow {
                    from: SimTime::from_us(200),
                    to: SimTime::from_us(400),
                    cap_mw: 2000.0,
                },
            ],
        );
        assert_eq!(t.cap_at(0), 5000.0);
        assert_eq!(t.cap_at(150_000_000_000), 3000.0);
        assert_eq!(t.cap_at(250_000_000_000), 2000.0);
        assert_eq!(t.cap_at(400_000_000_000), 5000.0);
        assert_eq!(t.min_over(0, 150_000_000_000), 3000.0);
        assert_eq!(t.min_over(0, 50_000_000_000), 5000.0);
        assert_eq!(t.min_over(350_000_000_000, 500_000_000_000), 2000.0);
        assert_eq!(t.last_emergency_end_fs(), 400_000_000_000);
    }

    #[test]
    fn empty_demand_still_schedules_one_epoch() {
        let budget = RackBudget {
            cap_mw: 1000.0,
            epoch: SimTime::from_ms(1),
        };
        let s = quiet(&budget, &[], 2, 100.0).unwrap();
        assert_eq!(s.epochs(), 1);
        assert!((s.cap(0, 0) - 500.0).abs() < 1e-9);
    }
}
