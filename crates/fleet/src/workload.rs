//! Counter-based fleet workload generation.
//!
//! The single-chip generator in `uparc_serve::workload` draws arrivals
//! from a *sequential* RNG (each gap depends on the running stream
//! state), which makes the stream impossible to regenerate shard-by-shard.
//! At fleet scale the request stream must be shardable: request *i* here
//! is a pure function of `(seed, i)`, so any contiguous slice of the
//! index space — one shard's worth, or the whole run — reproduces exactly
//! the same per-request values. `tests/fleet.rs` pins this by comparing
//! sharded generation against the sequential stream.

use std::ops::Range;

use uparc_serve::request::BitstreamId;
use uparc_sim::rng::{splitmix64, GOLDEN};
use uparc_sim::time::SimTime;

/// One request of the fleet stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Position in the global stream (0-based).
    pub index: u64,
    /// Arrival instant. Arrivals are monotone in `index` by
    /// construction: request *i* arrives in `[i·gap, (i+1)·gap)`.
    pub arrival: SimTime,
    /// The requested bitstream.
    pub bitstream: BitstreamId,
    /// Service priority, 0 (highest) to 3 (lowest). Under overload the
    /// fleet sheds low-priority requests first: a priority-`p` request
    /// tolerates `(4 - p)` times the configured shed backlog before it
    /// is rejected.
    pub priority: u8,
}

/// A seeded open-loop fleet workload: `requests` arrivals with mean gap
/// `mean_gap`, each requesting a uniformly drawn catalog bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetWorkloadSpec {
    /// Total requests in the stream.
    pub requests: u64,
    /// Mean inter-arrival gap. Request *i* arrives at
    /// `i·gap + jitter_i` with `jitter_i` uniform in `[0, gap)`.
    pub mean_gap: SimTime,
    /// Stream seed.
    pub seed: u64,
}

impl FleetWorkloadSpec {
    /// Request `i` of the stream — a pure function of `(seed, i)` and
    /// the (ordered) id inventory, independent of any other index.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or `i >= self.requests`.
    #[must_use]
    pub fn request(&self, i: u64, ids: &[BitstreamId]) -> FleetRequest {
        assert!(!ids.is_empty(), "workload over an empty inventory");
        assert!(i < self.requests, "index {i} past the stream end");
        let base = self.seed.wrapping_add((i + 1).wrapping_mul(GOLDEN));
        let r_jitter = splitmix64(base);
        let r_pick = splitmix64(base.wrapping_add(GOLDEN));
        let gap = self.mean_gap.as_fs().max(1);
        let arrival = i * gap + r_jitter % gap;
        FleetRequest {
            index: i,
            arrival: SimTime::from_fs(arrival),
            bitstream: ids[(r_pick % ids.len() as u64) as usize],
            // Top byte of the pick draw: independent of the low bits the
            // modulus consumes, so adding priorities left the arrival and
            // bitstream streams byte-identical.
            priority: ((r_pick >> 56) & 3) as u8,
        }
    }

    /// Generates a contiguous slice of the stream (one shard's worth).
    ///
    /// # Panics
    ///
    /// Panics as [`FleetWorkloadSpec::request`] does.
    #[must_use]
    pub fn generate_range(&self, range: Range<u64>, ids: &[BitstreamId]) -> Vec<FleetRequest> {
        range.map(|i| self.request(i, ids)).collect()
    }

    /// Generates the whole stream, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics as [`FleetWorkloadSpec::request`] does.
    #[must_use]
    pub fn generate(&self, ids: &[BitstreamId]) -> Vec<FleetRequest> {
        self.generate_range(0..self.requests, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<BitstreamId> {
        (1..=n).map(BitstreamId).collect()
    }

    #[test]
    fn arrivals_are_monotone() {
        let spec = FleetWorkloadSpec {
            requests: 5000,
            mean_gap: SimTime::from_ns(80),
            seed: 7,
        };
        let stream = spec.generate(&ids(16));
        for pair in stream.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
    }

    #[test]
    fn requests_are_pure_in_the_index() {
        let spec = FleetWorkloadSpec {
            requests: 100,
            mean_gap: SimTime::from_us(1),
            seed: 42,
        };
        let inventory = ids(8);
        // Re-evaluating any index in any order yields the same request.
        let forward = spec.generate(&inventory);
        for i in (0..100).rev() {
            assert_eq!(spec.request(i, &inventory), forward[i as usize]);
        }
    }

    #[test]
    fn priorities_cover_all_classes() {
        let spec = FleetWorkloadSpec {
            requests: 4000,
            mean_gap: SimTime::from_ns(80),
            seed: 9,
        };
        let mut seen = [0u64; 4];
        for r in spec.generate(&ids(8)) {
            assert!(r.priority < 4);
            seen[r.priority as usize] += 1;
        }
        // Uniform top-byte draw: every class shows up in 4000 requests.
        assert!(seen.iter().all(|&n| n > 0), "priority classes {seen:?}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FleetWorkloadSpec {
            requests: 64,
            mean_gap: SimTime::from_us(1),
            seed: 1,
        };
        let b = FleetWorkloadSpec { seed: 2, ..a };
        let inventory = ids(32);
        assert_ne!(a.generate(&inventory), b.generate(&inventory));
    }

    #[test]
    #[should_panic(expected = "empty inventory")]
    fn empty_inventory_panics() {
        let spec = FleetWorkloadSpec {
            requests: 1,
            mean_gap: SimTime::from_us(1),
            seed: 0,
        };
        let _ = spec.request(0, &[]);
    }
}
