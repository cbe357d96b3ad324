//! Streaming statistics: [`LogHistogram`], the mergeable log₂ histogram
//! every layer records latencies into (the [`crate::obs`] metrics registry
//! included), and the exact sorted-vector [`percentile`] it is checked
//! against. Nothing here is FPGA-specific.

/// Linear-interpolated percentile (`p` in `[0, 100]`). Returns `None` for an
/// empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Number of buckets in a [`LogHistogram`]: one underflow bucket plus
/// 64 power-of-two decades × 8 mantissa sub-buckets.
pub const LOG_HISTOGRAM_BUCKETS: usize = 1 + 64 * SUB_BUCKETS;

/// Mantissa sub-buckets per power-of-two decade (3 mantissa bits).
const SUB_BUCKETS: usize = 8;

/// Lowest bucketed exponent: values below `2^-33` fall into the underflow
/// bucket.
const MIN_EXP: i64 = -33;

/// Streaming, mergeable log₂ histogram with 8 mantissa sub-buckets per
/// power-of-two decade.
///
/// This is the fixed-footprint replacement for `sort`-based
/// [`percentile`]: recording is O(1) (an IEEE-754 exponent/mantissa
/// extraction, no transcendental math, so identical inputs give
/// identical histograms and byte-stable exports), the footprint is
/// O(buckets) (≈4 KB) regardless of how many values are observed, and
/// two histograms [`merge`](Self::merge) by element-wise
/// addition — so per-shard histograms recorded in parallel combine into a
/// fleet-wide summary without ever materialising a latency vector.
///
/// The 3 extra mantissa bits bound each bucket's width to 12.5% of its
/// lower edge, so any reported quantile lands within one bucket (≤12.5%
/// relative error) of the exact sorted-vector answer; reported values are
/// additionally clamped to the observed `[min, max]`.
///
/// Values that are NaN, non-positive, or below `2^-33` land in a single
/// underflow bucket; values at or above `2^31` land in the top bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; LOG_HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; LOG_HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for `value` (pure; exposed for tests).
    #[must_use]
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value <= 0.0 {
            return 0;
        }
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if exp < MIN_EXP {
            return 0;
        }
        let sub = ((bits >> 49) & 0x7) as usize;
        let idx = 1 + (exp - MIN_EXP) as usize * SUB_BUCKETS + sub;
        idx.min(LOG_HISTOGRAM_BUCKETS - 1)
    }

    /// Lower and upper edges of bucket `idx` (underflow bucket spans
    /// `[0, 2^-33)`).
    #[must_use]
    fn bucket_edges(idx: usize) -> (f64, f64) {
        if idx == 0 {
            return (0.0, (MIN_EXP as f64).exp2());
        }
        let rel = idx - 1;
        let exp = (rel / SUB_BUCKETS) as i64 + MIN_EXP;
        let sub = (rel % SUB_BUCKETS) as f64;
        let base = (exp as f64).exp2();
        let lo = base * (1.0 + sub / SUB_BUCKETS as f64);
        let hi = base * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64);
        (lo, hi)
    }

    /// Records one value.
    pub fn observe(&mut self, value: f64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Resets the histogram to empty in place.
    ///
    /// This is the windowed-reporting primitive: snapshot a phase's
    /// percentiles, `clear()`, and keep observing into the same
    /// allocation — so a degraded phase's latencies can be reported on
    /// their own instead of being averaged into steady state.
    pub fn clear(&mut self) {
        self.buckets = [0; LOG_HISTOGRAM_BUCKETS];
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Folds `other` into `self` (element-wise bucket addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded value, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimated percentile (`p` in `[0, 100]`), or `None` if empty.
    ///
    /// Walks the cumulative bucket counts to the bucket holding the
    /// requested rank and interpolates linearly inside it, then clamps to
    /// the observed `[min, max]`. Within one bucket (≤12.5% relative
    /// error) of the exact [`percentile`] over the same values.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.count == 0 {
            return None;
        }
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 100.0 {
            return Some(self.max);
        }
        // Fractional 0-indexed rank, matching `stats::percentile`.
        let rank = p / 100.0 * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            // This bucket covers ranks [cum, cum + c).
            if rank < (cum + c) as f64 {
                let (lo, hi) = Self::bucket_edges(idx);
                let frac = (rank - cum as f64 + 0.5) / c as f64;
                let v = lo + (hi - lo) * frac;
                return Some(v.clamp(self.min, self.max));
            }
            cum += c;
        }
        Some(self.max)
    }

    /// An upper bound on the `q`-quantile (`q` clamped to `[0, 1]`), read
    /// off whole power-of-two decades: the result is the exclusive upper
    /// edge `2^(e+1)` of the decade `[2^e, 2^(e+1))` holding the
    /// rank-`⌈q·count⌉` value, so it is within 2× of the true value. Values
    /// below `2^-32` report 0.0, as does an empty histogram; values at or
    /// above `2^31` clamp into the top decade and report `2^31`. This is
    /// the `p99<=` / `p99_le` figure the [`crate::obs`] metrics exports
    /// print.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        // The underflow bucket shares the lowest decade's 0.0 answer.
        let mut seen = self.buckets[0];
        for (decade, subs) in self.buckets[1..].chunks_exact(SUB_BUCKETS).enumerate() {
            seen += subs.iter().sum::<u64>();
            if seen >= rank {
                if decade == 0 {
                    return 0.0;
                }
                return 2f64.powi(decade as i32 + MIN_EXP as i32 + 1);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn log_histogram_basics() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert!((h.mean().unwrap() - 2.5).abs() < 1e-12);
        // Extremes clamp to observed min/max exactly.
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(100.0), Some(4.0));
    }

    #[test]
    fn log_histogram_percentiles_within_one_bucket_of_exact() {
        // The mergeable histogram must stay within one bucket (12.5%
        // relative) of the exact sorted-vector percentile for realistic
        // latency-shaped data spanning several decades.
        let mut xs = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Log-uniform over roughly [1, 8192) microseconds.
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            xs.push((u * 13.0).exp2());
        }
        let mut h = LogHistogram::new();
        for &x in &xs {
            h.observe(x);
        }
        for p in [1.0, 25.0, 50.0, 95.0, 99.0, 99.9] {
            let exact = percentile(&xs, p).unwrap();
            let est = h.percentile(p).unwrap();
            let ratio = est / exact;
            assert!(
                (1.0 / 1.125..=1.125).contains(&ratio),
                "p{p}: est {est} vs exact {exact} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn log_histogram_merge_equals_single_pass() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..1000u64 {
            // 0.25-quantized values make every partial sum exact in f64,
            // so the merged sum is bit-identical regardless of order.
            let v = (i as f64).mul_add(0.25, 0.5);
            all.observe(v);
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all, "merged shard histograms must be bit-identical");
    }

    #[test]
    fn log_histogram_underflow_and_overflow() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-1.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(LogHistogram::bucket_index(1e300), LOG_HISTOGRAM_BUCKETS - 1);
        assert_eq!(h.count(), 3);
        // Bucket index of 1.0 starts the exponent-0 decade.
        assert_eq!(LogHistogram::bucket_index(1.0), 1 + 33 * 8);
        // 1.125 is the next sub-bucket up.
        assert_eq!(LogHistogram::bucket_index(1.125), 1 + 33 * 8 + 1);
    }

    #[test]
    fn log_histogram_clear_resets_to_empty() {
        let mut h = LogHistogram::new();
        for v in [0.5, 3.0, 700.0, 12_000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        h.clear();
        assert_eq!(h, LogHistogram::new(), "clear must be a full reset");
        assert_eq!(h.percentile(99.0), None);
        // The cleared histogram is reusable: a fresh phase records into
        // the same allocation and reports only its own values.
        h.observe(42.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(42.0));
        assert_eq!(h.max(), Some(42.0));
    }

    #[test]
    fn histogram_quantile_bound_brackets_true_value() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 4.0, 8.0, 1000.0] {
            h.observe(v);
        }
        let p99 = h.quantile_upper_bound(0.99);
        assert!(p99 >= 1000.0, "p99 bound {p99} below max sample");
        assert!(p99 <= 2000.0, "p99 bound {p99} looser than 2x");
        // True p50 is 4.0; its decade is [4, 8), so the bound is 8.
        let p50 = h.quantile_upper_bound(0.5);
        assert!((4.0..=8.0).contains(&p50), "p50 bound {p50}");
    }
}
