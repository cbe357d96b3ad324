//! The workspace's two seeded generators: splitmix64 and xoshiro256**.
//!
//! Fault plans, fleet workloads, chaos campaigns, churn traces and the
//! random router all draw from splitmix64, in two forms:
//!
//! * **stateless** — [`splitmix64`] maps a counter to a draw, so draw *i*
//!   of a stream is a pure function of `(seed, i)` and any shard of the
//!   index space regenerates on its own;
//! * **sequential** — [`next`] advances a running state by one step, for
//!   generators that expand a seed into a list in order.
//!
//! [`substream`] derives independent per-cell seeds from a campaign seed.
//!
//! The synthetic bitstream payloads (`uparc_bitstream::synth`) and the
//! service request traces (`uparc_serve::workload`) draw from
//! [`Xoshiro256`] instead, seeded by four splitmix64 steps. Table I's
//! savings, Table III's bandwidths and every `BENCH_*.json` report are
//! computed over those two streams, so `tests/seeded_streams.rs` pins
//! them bit for bit.
//!
//! Every function and method is `#[inline]`: the fleet router, the
//! workload generators and the payload generator call them once per
//! request or word from other crates, and nothing in the workspace
//! enables LTO.

/// Weyl increment of the splitmix64 generator (2⁶⁴ / φ).
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 output for counter `x`: the finalizer applied to
/// `x + GOLDEN`.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sequential splitmix64 step: returns the next draw and advances
/// `state` by [`GOLDEN`].
#[inline]
pub fn next(state: &mut u64) -> u64 {
    let draw = splitmix64(*state);
    *state = state.wrapping_add(GOLDEN);
    draw
}

/// Derives an independent sub-stream seed from a campaign seed.
///
/// Campaign grids must never derive per-cell seeds from a flat running
/// counter: appending a chip (or a policy, or a seed replicate) would
/// shift every later cell's fault sequence and invalidate comparisons
/// across runs. `substream` is instead a pure splitmix64 mix of
/// `(seed, lane, index)` — `lane` names the grid axis (chip faults,
/// campaign cells, …), `index` the position along it — so sub-stream
/// *k*'s draws are a function of *k* alone, no matter how many other
/// sub-streams exist. `tests/fleet.rs` pins this chip-count invariance
/// for fleet chaos plans.
#[inline]
#[must_use]
pub fn substream(seed: u64, lane: u64, index: u64) -> u64 {
    splitmix64(
        seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ index.wrapping_add(1).wrapping_mul(GOLDEN),
    )
}

/// xoshiro256** (Blackman & Vigna): 256 bits of state, 64-bit draws.
#[derive(Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expands `seed` into the full state with four sequential
    /// splitmix64 steps ([`next`]), as the xoshiro authors recommend.
    #[inline]
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        Xoshiro256 {
            s: [
                next(&mut state),
                next(&mut state),
                next(&mut state),
                next(&mut state),
            ],
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let draw = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        draw
    }

    /// A draw uniform in `[0, 1)`, from the top 53 bits of one
    /// [`Self::next_u64`].
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A draw uniform in `[0, span)` by multiply-shift (Lemire): the high
    /// word of one [`Self::next_u64`] times `span`. The bias is below
    /// `span / 2⁶⁴`, under 2⁻³² for any span this workspace draws.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    #[inline]
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "below: empty span");
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_steps_match_the_stateless_counter() {
        let mut state = 42u64;
        for i in 0..8u64 {
            assert_eq!(
                next(&mut state),
                splitmix64(42u64.wrapping_add(i.wrapping_mul(GOLDEN)))
            );
        }
        assert_eq!(state, 42u64.wrapping_add(8u64.wrapping_mul(GOLDEN)));
    }

    #[test]
    fn draws_are_pinned() {
        // Reference splitmix64 output for seed 0 (Vigna's test vector):
        // seed-pinned tests across the workspace depend on these bits.
        let mut state = 0u64;
        assert_eq!(next(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(&mut state), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_draws_stay_in_the_unit_interval_around_one_half() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_stays_within_its_span_and_covers_it() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.below(8);
            assert!(v < 8, "{v}");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every value in the span drawn");
    }

    #[test]
    #[should_panic(expected = "empty span")]
    fn below_zero_panics() {
        let _ = Xoshiro256::seed_from_u64(0).below(0);
    }

    #[test]
    fn xoshiro_draws_are_pinned() {
        // The payload and workload streams every report is computed over
        // start from these bits.
        let draws = |seed| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            [(); 4].map(|()| rng.next_u64())
        };
        assert_eq!(
            draws(0),
            [
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C,
            ]
        );
        assert_eq!(
            draws(42),
            [
                0x1578_0B2E_0C2E_C716,
                0x6104_D986_6D11_3A7E,
                0xAE17_5332_39E4_99A1,
                0xECB8_AD47_03B3_60A1,
            ]
        );
    }
}
