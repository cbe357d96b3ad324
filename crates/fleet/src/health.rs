//! Per-chip health state machine driven by a chaos schedule.
//!
//! The router never inspects raw chaos events; it consumes a
//! [`HealthTimeline`] — the precomputed trajectory of one chip through
//!
//! ```text
//!            wedge              wedge (while Suspect)
//! Healthy ─────────▶ Suspect ─────────▶ Quarantined
//!    ▲                  │                    │ hold elapses
//!    │   decay elapses  │                    ▼
//!    ├──────────────────┘               Repairing
//!    │                                       │ repair elapses
//!    └───────────────────────────────────────┘
//!
//!        any state ──── chip loss ────▶ Down (absorbing)
//! ```
//!
//! A single wedge marks the chip Suspect (still routable — one stall is
//! survivable via the recovery ladder); a second wedge before the
//! suspicion decays tips it into Quarantined, where the router stops
//! offering it work until a repair window has run. Permanent loss
//! truncates the whole trajectory into the absorbing `Down` state.

use uparc_sim::time::SimTime;

use crate::chaos::ChipChaos;

/// Router-visible health of one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipState {
    /// Fully operational.
    Healthy,
    /// Saw a recent wedge; still routable, but one more wedge before the
    /// suspicion decays quarantines it.
    Suspect,
    /// Held out of routing after repeated wedges.
    Quarantined,
    /// Running its repair window; not yet routable.
    Repairing,
    /// Permanently lost. Absorbing.
    Down,
}

impl ChipState {
    /// Stable label for rendering and traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChipState::Healthy => "healthy",
            ChipState::Suspect => "suspect",
            ChipState::Quarantined => "quarantined",
            ChipState::Repairing => "repairing",
            ChipState::Down => "down",
        }
    }

    /// Whether the router may assign new work in this state.
    #[must_use]
    pub fn routable(&self) -> bool {
        matches!(self, ChipState::Healthy | ChipState::Suspect)
    }
}

/// Tuning of the health state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// How long a chip stays Suspect after a wedge ends before it is
    /// trusted again.
    pub suspect_decay: SimTime,
    /// How long a quarantined chip is held after its wedge ends before
    /// repair starts.
    pub quarantine_hold: SimTime,
    /// Length of the repair window.
    pub repair_time: SimTime,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_decay: SimTime::from_us(200),
            quarantine_hold: SimTime::from_us(100),
            repair_time: SimTime::from_us(100),
        }
    }
}

/// One chip's precomputed health trajectory: `(at_fs, state)` transitions
/// ascending in time, starting with `(0, Healthy)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTimeline {
    transitions: Vec<(u64, ChipState)>,
}

impl HealthTimeline {
    /// Runs the state machine over `chaos`'s wedge windows and loss
    /// instant.
    #[must_use]
    pub fn build(chaos: &ChipChaos, cfg: &HealthConfig) -> Self {
        let mut t: Vec<(u64, ChipState)> = vec![(0, ChipState::Healthy)];
        // Pending decay back to Healthy; kept out of `t` until we know no
        // further wedge lands first (pushing it eagerly would let a later
        // wedge see Healthy where the machine is still Suspect).
        let mut pending_heal: Option<u64> = None;
        let state_at = |t: &[(u64, ChipState)], at: u64| {
            let i = t.partition_point(|&(f, _)| f <= at);
            t[i - 1].1
        };
        for &(ws, we) in &chaos.wedges {
            let (ws, we) = (ws.as_fs(), we.as_fs());
            if let Some(heal) = pending_heal {
                if heal <= ws {
                    t.push((heal, ChipState::Healthy));
                    pending_heal = None;
                }
            }
            match state_at(&t, ws) {
                ChipState::Healthy => {
                    t.push((ws, ChipState::Suspect));
                    pending_heal = Some(we + cfg.suspect_decay.as_fs());
                }
                ChipState::Suspect => {
                    pending_heal = None;
                    t.push((ws, ChipState::Quarantined));
                    let repair = we + cfg.quarantine_hold.as_fs();
                    t.push((repair, ChipState::Repairing));
                    t.push((repair + cfg.repair_time.as_fs(), ChipState::Healthy));
                }
                // A wedge inside quarantine/repair changes nothing: the
                // chip is already out of rotation for the window.
                ChipState::Quarantined | ChipState::Repairing | ChipState::Down => {}
            }
        }
        if let Some(heal) = pending_heal {
            t.push((heal, ChipState::Healthy));
        }
        if let Some(loss) = chaos.loss_at {
            let loss = loss.as_fs();
            t.retain(|&(f, _)| f < loss);
            if t.is_empty() {
                t.push((0, ChipState::Healthy));
            }
            t.push((loss.max(t.last().map_or(0, |&(f, _)| f)), ChipState::Down));
        }
        HealthTimeline { transitions: t }
    }

    /// A chip that never leaves Healthy.
    #[must_use]
    pub fn healthy() -> Self {
        HealthTimeline {
            transitions: vec![(0, ChipState::Healthy)],
        }
    }

    /// State at `at_fs`.
    #[must_use]
    pub fn state_at(&self, at_fs: u64) -> ChipState {
        let i = self.transitions.partition_point(|&(f, _)| f <= at_fs);
        self.transitions[i - 1].1
    }

    /// The raw `(at_fs, state)` transition list, ascending.
    #[must_use]
    pub fn transitions(&self) -> &[(u64, ChipState)] {
        &self.transitions
    }

    /// Number of quarantine entries along the trajectory.
    #[must_use]
    pub fn quarantine_count(&self) -> u64 {
        self.transitions
            .iter()
            .filter(|&&(_, s)| s == ChipState::Quarantined)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            suspect_decay: SimTime::from_us(200),
            quarantine_hold: SimTime::from_us(100),
            repair_time: SimTime::from_us(100),
        }
    }

    fn us(v: u64) -> SimTime {
        SimTime::from_us(v)
    }

    #[test]
    fn single_wedge_decays_back_to_healthy() {
        let chaos = ChipChaos {
            wedges: vec![(us(100), us(150))],
            ..ChipChaos::default()
        };
        let h = HealthTimeline::build(&chaos, &cfg());
        assert_eq!(h.state_at(us(50).as_fs()), ChipState::Healthy);
        assert_eq!(h.state_at(us(100).as_fs()), ChipState::Suspect);
        assert_eq!(h.state_at(us(349).as_fs()), ChipState::Suspect);
        // Decay = wedge end (150) + 200.
        assert_eq!(h.state_at(us(350).as_fs()), ChipState::Healthy);
        assert_eq!(h.quarantine_count(), 0);
    }

    #[test]
    fn second_wedge_while_suspect_quarantines_then_repairs() {
        let chaos = ChipChaos {
            wedges: vec![(us(100), us(150)), (us(200), us(250))],
            ..ChipChaos::default()
        };
        let h = HealthTimeline::build(&chaos, &cfg());
        assert_eq!(h.state_at(us(150).as_fs()), ChipState::Suspect);
        assert_eq!(h.state_at(us(200).as_fs()), ChipState::Quarantined);
        assert!(!h.state_at(us(200).as_fs()).routable());
        // Repair at wedge end (250) + hold (100); healthy again at +100.
        assert_eq!(h.state_at(us(350).as_fs()), ChipState::Repairing);
        assert_eq!(h.state_at(us(450).as_fs()), ChipState::Healthy);
        assert_eq!(h.quarantine_count(), 1);
    }

    #[test]
    fn wedge_after_decay_only_re_suspects() {
        // Second wedge lands after the first suspicion decayed: two
        // independent Suspect episodes, never a quarantine.
        let chaos = ChipChaos {
            wedges: vec![(us(100), us(150)), (us(600), us(650))],
            ..ChipChaos::default()
        };
        let h = HealthTimeline::build(&chaos, &cfg());
        assert_eq!(h.state_at(us(400).as_fs()), ChipState::Healthy);
        assert_eq!(h.state_at(us(600).as_fs()), ChipState::Suspect);
        assert_eq!(h.state_at(us(900).as_fs()), ChipState::Healthy);
        assert_eq!(h.quarantine_count(), 0);
    }

    #[test]
    fn loss_truncates_into_absorbing_down() {
        let chaos = ChipChaos {
            loss_at: Some(us(220)),
            wedges: vec![(us(100), us(150)), (us(200), us(250))],
            ..ChipChaos::default()
        };
        let h = HealthTimeline::build(&chaos, &cfg());
        assert_eq!(h.state_at(us(210).as_fs()), ChipState::Quarantined);
        assert_eq!(h.state_at(us(220).as_fs()), ChipState::Down);
        // The repair transitions scheduled after the loss are gone.
        assert_eq!(h.state_at(us(10_000).as_fs()), ChipState::Down);
        assert!(!ChipState::Down.routable());
    }

    #[test]
    fn loss_at_zero_is_down_from_the_start() {
        let chaos = ChipChaos {
            loss_at: Some(SimTime::ZERO),
            ..ChipChaos::default()
        };
        let h = HealthTimeline::build(&chaos, &cfg());
        assert_eq!(h.state_at(0), ChipState::Down);
    }
}
