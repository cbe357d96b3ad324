//! Seeded tenant-churn workloads: allocate/free streams over hours of
//! simulated time.
//!
//! A churn trace is a sequence of tenant arrivals, each asking for a
//! contiguous frame window and (for transient tenants) holding it for a
//! residency time before departing. Expansion is pure: every per-tenant
//! draw comes from its own [`uparc_sim::rng::substream`] lane, so
//! tenant *i*'s size, gap, residency and payload are functions of
//! `(seed, i)` alone — growing the trace or reordering the grid never
//! shifts another tenant's draws (the same invariance the fault and
//! fleet campaigns pin).

use uparc_sim::rng::substream;
use uparc_sim::time::SimTime;

/// Sub-stream lanes, one per independent per-tenant draw.
const LANE_GAP: u64 = 0x70;
const LANE_FRAMES: u64 = 0x71;
const LANE_HOLD: u64 = 0x72;
const LANE_PIN: u64 = 0x73;
/// Payload lane, public so the placement sim derives each tenant's frame
/// data from the same seed discipline.
pub const LANE_PAYLOAD: u64 = 0x74;

/// Shape of a churn workload (the seed turns it into a concrete trace).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Tenant arrivals in the trace.
    pub tenants: u32,
    /// Mean inter-arrival gap (arrivals are jittered uniformly in
    /// `[0.5, 1.5) ×` this).
    pub mean_gap: SimTime,
    /// Mean residency of a transient tenant (same `[0.5, 1.5)` jitter).
    pub mean_hold: SimTime,
    /// Smallest window a tenant asks for, frames.
    pub frames_min: u32,
    /// Largest window a tenant asks for, frames (inclusive).
    pub frames_max: u32,
    /// Out of 1000 tenants, how many are *pinned*: they never depart, so
    /// they anchor the fragmentation the defragmenter has to work around.
    pub pinned_permille: u32,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            tenants: 400,
            mean_gap: SimTime::from_us(500),
            mean_hold: SimTime::from_ms(20),
            frames_min: 8,
            frames_max: 48,
            pinned_permille: 150,
        }
    }
}

/// One tenant arrival in an expanded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Tenant index (also the bitstream id the sim places under).
    pub tenant: u32,
    /// Arrival time.
    pub at: SimTime,
    /// Contiguous frames requested.
    pub frames: u32,
    /// Residency after the load completes; `None` pins the tenant for
    /// the rest of the run.
    pub hold: Option<SimTime>,
}

impl ChurnSpec {
    /// Expands the spec into a time-sorted arrival trace for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `frames_min` is zero or exceeds `frames_max`.
    #[must_use]
    pub fn expand(&self, seed: u64) -> Vec<Arrival> {
        assert!(
            0 < self.frames_min && self.frames_min <= self.frames_max,
            "frame range {}..={} is invalid",
            self.frames_min,
            self.frames_max
        );
        let jitter = |raw: u64, mean: SimTime| {
            // Uniform in [0.5, 1.5) × mean, in femtoseconds.
            let fs = mean.as_fs().max(1) as u128;
            let frac = u128::from(raw >> 11); // 53 significant bits
            let span = (fs / 2) + (fs * frac) / (1u128 << 53);
            SimTime::from_fs(span as u64)
        };
        let mut at = SimTime::ZERO;
        let mut out = Vec::with_capacity(self.tenants as usize);
        for tenant in 0..self.tenants {
            let t = u64::from(tenant);
            at += jitter(substream(seed, LANE_GAP, t), self.mean_gap);
            let spread = u64::from(self.frames_max - self.frames_min + 1);
            let frames = self.frames_min + (substream(seed, LANE_FRAMES, t) % spread) as u32;
            let pinned = substream(seed, LANE_PIN, t) % 1000 < u64::from(self.pinned_permille);
            let hold = if pinned {
                None
            } else {
                Some(jitter(substream(seed, LANE_HOLD, t), self.mean_hold))
            };
            out.push(Arrival {
                tenant,
                at,
                frames,
                hold,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_sorted() {
        let spec = ChurnSpec::default();
        let a = spec.expand(42);
        let b = spec.expand(42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a
            .iter()
            .all(|x| (spec.frames_min..=spec.frames_max).contains(&x.frames)));
        // Different seeds give different traces.
        assert_ne!(a, spec.expand(43));
    }

    #[test]
    fn tenant_draws_are_count_invariant() {
        // Growing the trace must not change earlier tenants' draws.
        let short = ChurnSpec {
            tenants: 50,
            ..ChurnSpec::default()
        };
        let long = ChurnSpec {
            tenants: 200,
            ..ChurnSpec::default()
        };
        let a = short.expand(7);
        let b = long.expand(7);
        assert_eq!(a[..], b[..50]);
    }

    #[test]
    fn pinned_fraction_tracks_the_permille() {
        let spec = ChurnSpec {
            tenants: 2000,
            pinned_permille: 250,
            ..ChurnSpec::default()
        };
        let pinned = spec.expand(1).iter().filter(|a| a.hold.is_none()).count();
        // 250‰ of 2000 = 500 expected; allow a generous band.
        assert!((380..=620).contains(&pinned), "{pinned}");
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn zero_frame_requests_rejected() {
        let spec = ChurnSpec {
            frames_min: 0,
            ..ChurnSpec::default()
        };
        let _ = spec.expand(0);
    }
}
