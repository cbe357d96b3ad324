//! Deterministic fleet-scale chaos campaigns.
//!
//! A [`ChaosPlan`] expands a seeded [`ChaosSpec`] into per-chip event
//! schedules: permanent chip loss, transient brownouts (the chip's cap
//! slashed for a window), ICAP wedges (transfer stalls until the
//! watchdog fires), and elevated-SEU windows — plus rack-level power
//! [`EmergencyWindow`]s that cut the rack cap mid-run.
//!
//! Every per-chip schedule is a pure function of `(seed, chip)` through
//! [`uparc_sim::rng::substream`] sub-stream derivation: chip *c*'s
//! fate never depends on how many other chips the fleet has, so a
//! campaign is invariant to chip count and shard decomposition
//! (`tests/fleet.rs` pins this). Per-request fault coordinates come from
//! a further `(chip, request index)` sub-stream, so replaying any slice
//! of the request space reproduces the same faults.

use uparc_sim::rng::substream;
use uparc_sim::time::SimTime;

use crate::budget::EmergencyWindow;

/// Sub-stream lane for deriving per-chip seeds from the campaign seed.
const LANE_CHIP: u64 = 0xC4;
/// Per-chip lanes separating the independent event draws.
const LANE_LOSS: u64 = 1;
const LANE_BROWNOUT: u64 = 2;
const LANE_WEDGE: u64 = 3;
const LANE_SEU: u64 = 4;
/// Lane for per-request fault coordinate draws.
const LANE_REQUEST: u64 = 5;

/// The knobs of one chaos campaign. All probabilities are per chip and
/// drawn once per chip from its own sub-stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Campaign seed. Same seed, same campaign — byte for byte.
    pub seed: u64,
    /// Window in which chip-level events are drawn (event *onsets* land
    /// in `[0, horizon)`; their effects can extend past it).
    pub horizon: SimTime,
    /// Per-mille chance a chip dies permanently at a uniform instant.
    pub loss_permille: u32,
    /// Per-mille chance of one brownout window per chip.
    pub brownout_permille: u32,
    /// Brownout duration.
    pub brownout_window: SimTime,
    /// Fraction of the above-idle cap headroom a browned-out chip keeps
    /// (`0.0` = idle only, `1.0` = no effect).
    pub brownout_factor: f64,
    /// Per-mille chance of an ICAP-wedge episode (1–3 stall windows).
    pub wedge_permille: u32,
    /// Duration of one wedge window: dispatches starting inside it see a
    /// `TransferStall` past the watchdog and climb the recovery ladder.
    pub wedge_window: SimTime,
    /// Per-mille chance of one elevated-SEU window per chip.
    pub seu_permille: u32,
    /// Duration of the elevated-SEU window.
    pub seu_window: SimTime,
    /// Configuration-memory upsets injected into each dispatch that
    /// starts inside an SEU window.
    pub seu_faults_per_request: u32,
    /// Parts-per-million chance any individual dispatch (anywhere, any
    /// time) sees one ambient staged-image bit flip.
    pub ambient_fault_ppm: u32,
    /// Rack-level power emergencies, applied fleet-wide.
    pub emergencies: Vec<EmergencyWindow>,
}

impl ChaosSpec {
    /// A spec that injects nothing — the happy path.
    #[must_use]
    pub fn quiet() -> Self {
        ChaosSpec {
            seed: 0,
            horizon: SimTime::from_ms(1),
            loss_permille: 0,
            brownout_permille: 0,
            brownout_window: SimTime::ZERO,
            brownout_factor: 1.0,
            wedge_permille: 0,
            wedge_window: SimTime::ZERO,
            seu_permille: 0,
            seu_window: SimTime::ZERO,
            seu_faults_per_request: 0,
            ambient_fault_ppm: 0,
            emergencies: Vec::new(),
        }
    }
}

/// One chip's drawn chaos schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChipChaos {
    /// Permanent death instant, if the loss draw hit.
    pub loss_at: Option<SimTime>,
    /// `(from, to)` brownout window, if drawn (factor lives in the plan).
    pub brownout: Option<(SimTime, SimTime)>,
    /// ICAP wedge windows, ascending and non-overlapping.
    pub wedges: Vec<(SimTime, SimTime)>,
    /// `(from, to)` elevated-SEU window, if drawn.
    pub seu: Option<(SimTime, SimTime)>,
}

impl ChipChaos {
    /// Whether `at` falls inside a wedge window.
    #[must_use]
    pub fn wedged_at(&self, at: SimTime) -> bool {
        self.wedges.iter().any(|&(f, t)| f <= at && at < t)
    }

    /// Whether `at` falls inside the elevated-SEU window.
    #[must_use]
    pub fn seu_at(&self, at: SimTime) -> bool {
        self.seu.is_some_and(|(f, t)| f <= at && at < t)
    }
}

/// A fully expanded campaign: one [`ChipChaos`] per chip plus the
/// rack-level emergency windows.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    seed: u64,
    chips: Vec<ChipChaos>,
    emergencies: Vec<EmergencyWindow>,
    brownout_factor: f64,
    seu_faults_per_request: u32,
    ambient_fault_ppm: u32,
}

impl ChaosPlan {
    /// Expands `spec` for a fleet of `chips` chips.
    #[must_use]
    pub fn generate(spec: &ChaosSpec, chips: usize) -> Self {
        let mut emergencies = spec.emergencies.clone();
        emergencies.sort_by_key(|w| (w.from, w.to));
        ChaosPlan {
            seed: spec.seed,
            chips: (0..chips).map(|c| Self::chip_chaos(spec, c)).collect(),
            emergencies,
            brownout_factor: spec.brownout_factor,
            seu_faults_per_request: spec.seu_faults_per_request,
            ambient_fault_ppm: spec.ambient_fault_ppm,
        }
    }

    /// A plan that injects nothing for a fleet of `chips` chips.
    #[must_use]
    pub fn quiet(chips: usize) -> Self {
        Self::generate(&ChaosSpec::quiet(), chips)
    }

    /// Chip `chip`'s schedule — a pure function of `(spec, chip)`,
    /// independent of every other chip (the chip-count-invariance
    /// property the fleet's chaos tests pin).
    #[must_use]
    pub fn chip_chaos(spec: &ChaosSpec, chip: usize) -> ChipChaos {
        let cs = substream(spec.seed, LANE_CHIP, chip as u64);
        let horizon = spec.horizon.as_fs().max(1);
        let hit = |lane: u64, permille: u32| substream(cs, lane, 0) % 1000 < u64::from(permille);
        let at = |lane: u64, k: u64| SimTime::from_fs(substream(cs, lane, k) % horizon);
        let loss_at = hit(LANE_LOSS, spec.loss_permille).then(|| at(LANE_LOSS, 1));
        let brownout = (hit(LANE_BROWNOUT, spec.brownout_permille)
            && spec.brownout_window > SimTime::ZERO)
            .then(|| {
                let from = at(LANE_BROWNOUT, 1);
                (from, from + spec.brownout_window)
            });
        let mut wedges = Vec::new();
        if hit(LANE_WEDGE, spec.wedge_permille) && spec.wedge_window > SimTime::ZERO {
            let n = 1 + substream(cs, LANE_WEDGE, 1) % 3;
            let mut starts: Vec<SimTime> = (0..n).map(|k| at(LANE_WEDGE, 2 + k)).collect();
            starts.sort_unstable();
            let mut prev_end = SimTime::ZERO;
            for s in starts {
                // Windows are serialised: an overlapping draw starts
                // where the previous wedge ended.
                let from = s.max(prev_end);
                let to = from + spec.wedge_window;
                wedges.push((from, to));
                prev_end = to;
            }
        }
        let seu =
            (hit(LANE_SEU, spec.seu_permille) && spec.seu_window > SimTime::ZERO).then(|| {
                let from = at(LANE_SEU, 1);
                (from, from + spec.seu_window)
            });
        ChipChaos {
            loss_at,
            brownout,
            wedges,
            seu,
        }
    }

    /// Number of chips the plan covers.
    #[must_use]
    pub fn chips(&self) -> usize {
        self.chips.len()
    }

    /// Chip `c`'s schedule.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn chip(&self, c: usize) -> &ChipChaos {
        &self.chips[c]
    }

    /// The rack-level power emergencies, ascending by start.
    #[must_use]
    pub fn emergencies(&self) -> &[EmergencyWindow] {
        &self.emergencies
    }

    /// Fraction of above-idle cap headroom kept during a brownout.
    #[must_use]
    pub fn brownout_factor(&self) -> f64 {
        self.brownout_factor
    }

    /// Configuration upsets per dispatch inside an SEU window.
    #[must_use]
    pub fn seu_faults_per_request(&self) -> u32 {
        self.seu_faults_per_request
    }

    /// Parts-per-million ambient per-dispatch fault chance.
    #[must_use]
    pub fn ambient_fault_ppm(&self) -> u32 {
        self.ambient_fault_ppm
    }

    /// The `k`-th fault-coordinate draw for request `index` dispatched on
    /// chip `chip` — a pure sub-stream of `(seed, chip, index, k)`, so
    /// re-simulating any chip (or re-routing any request) reproduces the
    /// identical fault coordinates.
    #[must_use]
    pub fn request_draw(&self, chip: usize, index: u64, k: u64) -> u64 {
        let cs = substream(self.seed, LANE_CHIP, chip as u64);
        substream(substream(cs, LANE_REQUEST, index), LANE_REQUEST, k)
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.ambient_fault_ppm == 0
            && self.emergencies.is_empty()
            && self.chips.iter().all(|c| c == &ChipChaos::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spicy_spec(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            horizon: SimTime::from_ms(2),
            loss_permille: 300,
            brownout_permille: 400,
            brownout_window: SimTime::from_us(100),
            brownout_factor: 0.4,
            wedge_permille: 500,
            wedge_window: SimTime::from_us(50),
            seu_permille: 250,
            seu_window: SimTime::from_us(80),
            seu_faults_per_request: 2,
            ambient_fault_ppm: 100,
            emergencies: vec![EmergencyWindow {
                from: SimTime::from_us(500),
                to: SimTime::from_us(900),
                cap_mw: 10_000.0,
            }],
        }
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let spec = spicy_spec(77);
        assert_eq!(
            ChaosPlan::generate(&spec, 32),
            ChaosPlan::generate(&spec, 32)
        );
        assert_ne!(
            ChaosPlan::generate(&spec, 32),
            ChaosPlan::generate(&spicy_spec(78), 32)
        );
    }

    #[test]
    fn chip_streams_are_invariant_to_chip_count() {
        // The satellite-2 pin: adding chips to the fleet must never
        // perturb any existing chip's fault sequence. Chip c's schedule
        // in an N-chip plan equals its schedule in an (N+k)-chip plan.
        let spec = spicy_spec(2026);
        let small = ChaosPlan::generate(&spec, 8);
        let large = ChaosPlan::generate(&spec, 64);
        for c in 0..8 {
            assert_eq!(
                small.chip(c),
                large.chip(c),
                "chip {c}'s chaos changed when the fleet grew"
            );
        }
        // Per-request fault draws are sub-streams of the same chip seed,
        // so they are chip-count-invariant too.
        for c in 0..8 {
            for i in [0u64, 1, 999] {
                assert_eq!(small.request_draw(c, i, 0), large.request_draw(c, i, 0));
            }
        }
        // But distinct chips, requests and draw indices decorrelate.
        assert_ne!(small.request_draw(0, 5, 0), small.request_draw(1, 5, 0));
        assert_ne!(small.request_draw(0, 5, 0), small.request_draw(0, 6, 0));
        assert_ne!(small.request_draw(0, 5, 0), small.request_draw(0, 5, 1));
    }

    #[test]
    fn wedge_windows_are_sorted_and_disjoint() {
        let spec = ChaosSpec {
            wedge_permille: 1000,
            ..spicy_spec(3)
        };
        for c in 0..64 {
            let chaos = ChaosPlan::chip_chaos(&spec, c);
            for w in chaos.wedges.windows(2) {
                assert!(w[0].1 <= w[1].0, "chip {c}: overlapping wedges {w:?}");
            }
            for &(f, t) in &chaos.wedges {
                assert!(f < t);
                assert!(chaos.wedged_at(f));
                // End-exclusive — unless an adjacent window starts there.
                let adjacent = chaos.wedges.iter().any(|&(f2, _)| f2 == t);
                assert_eq!(chaos.wedged_at(t), adjacent);
            }
        }
    }

    #[test]
    fn quiet_plan_is_quiet() {
        let plan = ChaosPlan::quiet(16);
        assert!(plan.is_quiet());
        assert_eq!(plan.chips(), 16);
        for c in 0..16 {
            assert_eq!(plan.chip(c), &ChipChaos::default());
        }
        assert!(!ChaosPlan::generate(&spicy_spec(1), 16).is_quiet());
    }
}
