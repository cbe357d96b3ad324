//! Seeded synthetic workload generation.
//!
//! Open-loop arrival processes over a [`Catalog`]'s inventory: requests
//! arrive on their own clock regardless of service progress, which is
//! the regime where admission control and power-aware scheduling
//! actually matter. Generation is fully determined by `(spec, seed,
//! catalog)` — same inputs, byte-identical request trace.

use uparc_sim::rng::Xoshiro256;
use uparc_sim::time::SimTime;

use crate::catalog::Catalog;
use crate::request::{Priority, ReconfigRequest, RequestId};

/// Shape of the inter-arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Gaps uniform in `[0, 2 * mean_gap)` — a flat open-loop stream.
    Uniform,
    /// Requests arrive in back-to-back bursts of the given size; the
    /// whole burst budget is spent as one gap before each burst.
    Bursty {
        /// Number of requests per burst (>= 1).
        burst: usize,
    },
    /// Arrival rate swings over a period: troughs at twice the mean gap,
    /// crests at half of it, with a triangular profile in between.
    Diurnal {
        /// Length of one load cycle.
        period: SimTime,
    },
    /// Every gap is exactly the mean — a metronome. With a mean gap at
    /// or below the service time this holds every lane at ~100% duty,
    /// the regime that forces sustained thermal throttling.
    Sustained,
}

/// Parameters of one synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of requests to generate.
    pub requests: usize,
    /// Mean inter-arrival gap.
    pub mean_gap: SimTime,
    /// Arrival process shape.
    pub pattern: ArrivalPattern,
    /// When set, each request gets a deadline `arrival + U[lo, hi]`
    /// microseconds.
    pub deadline_slack_us: Option<(u64, u64)>,
    /// When set, every request carries this energy budget.
    pub energy_budget_uj: Option<f64>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            requests: 100,
            mean_gap: SimTime::from_us(200),
            pattern: ArrivalPattern::Uniform,
            deadline_slack_us: None,
            energy_budget_uj: None,
        }
    }
}

impl WorkloadSpec {
    /// Generates the request trace, sorted by arrival time.
    ///
    /// Bitstreams are drawn uniformly from the catalog; each request
    /// targets the region its bitstream is registered for, so every
    /// generated request passes the catalog-level admission checks.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or a burst size is zero.
    #[must_use]
    pub fn generate(&self, seed: u64, catalog: &Catalog) -> Vec<ReconfigRequest> {
        let ids = catalog.ids();
        assert!(!ids.is_empty(), "workload needs a non-empty catalog");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mean_fs = self.mean_gap.as_secs_f64() * 1e15;
        let mut now_fs: f64 = 0.0;
        let mut out = Vec::with_capacity(self.requests);
        for i in 0..self.requests {
            let gap_fs = match self.pattern {
                ArrivalPattern::Uniform => rng.unit_f64() * 2.0 * mean_fs,
                ArrivalPattern::Bursty { burst } => {
                    assert!(burst >= 1, "burst size must be >= 1");
                    if i % burst == 0 {
                        rng.unit_f64() * 2.0 * mean_fs * burst as f64
                    } else {
                        0.0
                    }
                }
                ArrivalPattern::Diurnal { period } => {
                    let period_fs = (period.as_secs_f64() * 1e15).max(1.0);
                    let phase = (now_fs / period_fs).fract();
                    // Triangular load profile: gap factor 0.5 at the
                    // crest (phase 0.5), 2.0 at the troughs (phase 0/1).
                    let factor = 0.5 + 3.0 * (phase - 0.5).abs();
                    rng.unit_f64() * 2.0 * mean_fs * factor
                }
                ArrivalPattern::Sustained => mean_fs,
            };
            now_fs += gap_fs;
            let arrival = SimTime::from_secs_f64(now_fs * 1e-15);
            let bitstream = ids[rng.below(ids.len() as u64) as usize];
            let region = catalog
                .entry(bitstream)
                .expect("id came from the catalog")
                .region();
            let priority = match rng.below(10) {
                0..=5 => Priority::Normal,
                6..=7 => Priority::High,
                _ => Priority::Low,
            };
            let deadline = self.deadline_slack_us.map(|(lo, hi)| {
                let slack = if hi > lo { lo + rng.below(hi - lo) } else { lo };
                arrival + SimTime::from_us(slack)
            });
            out.push(ReconfigRequest {
                id: RequestId(i as u64),
                bitstream,
                region,
                arrival,
                deadline,
                priority,
                energy_budget_uj: self.energy_budget_uj,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::BitstreamId;
    use uparc_bitstream::builder::PartialBitstream;
    use uparc_bitstream::synth::SynthProfile;
    use uparc_fpga::Device;

    fn sample_catalog() -> Catalog {
        let device = Device::xc5vsx50t();
        let mut cat = Catalog::new(device);
        cat.add_region("rp0", 100..160).unwrap();
        cat.add_region("rp1", 200..240).unwrap();
        for (id, far, frames) in [(1u32, 100, 30), (2, 110, 20), (3, 200, 25)] {
            let payload = SynthProfile::dense().generate(cat.device(), far, frames, u64::from(id));
            let bs = PartialBitstream::build(cat.device(), far, &payload);
            cat.register(BitstreamId(id), bs).unwrap();
        }
        cat
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cat = sample_catalog();
        let spec = WorkloadSpec {
            requests: 50,
            deadline_slack_us: Some((50, 500)),
            energy_budget_uj: Some(900.0),
            ..WorkloadSpec::default()
        };
        let a = spec.generate(7, &cat);
        let b = spec.generate(7, &cat);
        let c = spec.generate(8, &cat);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn arrivals_are_sorted_and_regions_match_catalog() {
        let cat = sample_catalog();
        for pattern in [
            ArrivalPattern::Uniform,
            ArrivalPattern::Bursty { burst: 5 },
            ArrivalPattern::Diurnal {
                period: SimTime::from_ms(2),
            },
            ArrivalPattern::Sustained,
        ] {
            let spec = WorkloadSpec {
                requests: 40,
                pattern,
                ..WorkloadSpec::default()
            };
            let reqs = spec.generate(11, &cat);
            for w in reqs.windows(2) {
                assert!(w[0].arrival <= w[1].arrival);
            }
            for r in &reqs {
                assert_eq!(cat.entry(r.bitstream).unwrap().region(), r.region);
            }
        }
    }

    #[test]
    fn bursts_share_an_arrival_instant() {
        let cat = sample_catalog();
        let spec = WorkloadSpec {
            requests: 20,
            pattern: ArrivalPattern::Bursty { burst: 4 },
            ..WorkloadSpec::default()
        };
        let reqs = spec.generate(3, &cat);
        // Within a burst, gaps are zero.
        for chunk in reqs.chunks(4) {
            for w in chunk.windows(2) {
                assert_eq!(w[0].arrival, w[1].arrival);
            }
        }
    }

    #[test]
    fn sustained_arrivals_are_a_metronome() {
        let cat = sample_catalog();
        let spec = WorkloadSpec {
            requests: 12,
            mean_gap: SimTime::from_us(80),
            pattern: ArrivalPattern::Sustained,
            ..WorkloadSpec::default()
        };
        let reqs = spec.generate(4, &cat);
        for w in reqs.windows(2) {
            assert_eq!(
                w[1].arrival.saturating_sub(w[0].arrival),
                SimTime::from_us(80)
            );
        }
    }

    #[test]
    fn deadlines_respect_slack_bounds() {
        let cat = sample_catalog();
        let spec = WorkloadSpec {
            requests: 60,
            deadline_slack_us: Some((100, 400)),
            ..WorkloadSpec::default()
        };
        for r in spec.generate(9, &cat) {
            let d = r.deadline.unwrap();
            let slack = d.saturating_sub(r.arrival);
            assert!(slack >= SimTime::from_us(100));
            assert!(slack < SimTime::from_us(400));
        }
    }
}
