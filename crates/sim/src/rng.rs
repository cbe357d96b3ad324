//! splitmix64: the one seeded generator behind every reproducible stream.
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
//! Every helper is `#[inline]`: the fleet router and workload generator
//! call them once per request from other crates, and nothing in the
//! workspace enables LTO.

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
}
