//! Bitstream staging-memory models.
//!
//! Every controller's effective bandwidth is set by where the bitstream
//! lives before it reaches the ICAP. The paper's related-work section maps
//! out the options: external non-volatile CompactFlash (huge but slow),
//! DDR2 SDRAM (large, medium speed), on-chip BRAM (small, fast), and the
//! processor cache (the configuration used for xps_hwicap's 14.5 MB/s
//! figure in \[9\]). The baselines stage in DDR2 ([`Ddr2`]), BRAM
//! ([`BramStore`]) or the processor cache (a driver cost per word in
//! [`crate::xps_hwicap`]).

use uparc_sim::time::{Frequency, SimTime};

/// DDR2 SDRAM behind a memory controller, fetched in bursts.
///
/// MST_ICAP \[9\] reads the bitstream from DDR2; row-activation and
/// controller overhead between bursts cap the efficiency well below the
/// bus peak — the paper's Table III shows 235 MB/s at a 100 MHz ICAP clock
/// (59% of the 400 MB/s peak).
#[derive(Debug, Clone, Copy)]
pub struct Ddr2 {
    /// Words fetched per burst.
    burst_words: u32,
    /// Dead cycles between bursts (activation, turnaround, arbitration) in
    /// tenths of a cycle (to model fractional averages exactly).
    overhead_decicycles: u32,
}

impl Ddr2 {
    /// The \[9\] configuration: 8-word bursts, 5.6 cycles of overhead per
    /// burst ⇒ ≈235 MB/s at 100 MHz.
    #[must_use]
    pub fn ml506_mig() -> Self {
        Ddr2 {
            burst_words: 8,
            overhead_decicycles: 56,
        }
    }

    /// Cycles (in tenths) to fetch `words` at the bus clock.
    #[must_use]
    pub fn fetch_decicycles(&self, words: u64) -> u64 {
        let bursts = words.div_ceil(u64::from(self.burst_words));
        words * 10 + bursts * u64::from(self.overhead_decicycles)
    }

    /// Time to fetch `words` at bus clock `f`.
    #[must_use]
    pub fn fetch_time(&self, words: u64, f: Frequency) -> SimTime {
        let deci = self.fetch_decicycles(words);
        // time = deci/10 cycles; compute exactly via cycles*10 trick.
        SimTime::from_fs((f.time_of_cycles(deci).as_fs()) / 10)
    }
}

/// On-chip BRAM staging store: one word per cycle at the port clock, with
/// a hard capacity limit.
#[derive(Debug, Clone, Copy)]
pub struct BramStore {
    capacity_bytes: usize,
}

impl BramStore {
    /// A store of the given capacity.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        BramStore { capacity_bytes }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Whether a payload fits.
    #[must_use]
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes per second of a 1M-word fetch at bus clock `f`.
    fn ddr2_bandwidth(f: Frequency) -> f64 {
        let t = Ddr2::ml506_mig().fetch_time(1_000_000, f);
        4e6 / t.as_secs_f64()
    }

    #[test]
    fn ddr2_lands_at_235_mb_s_at_100mhz() {
        let bw = ddr2_bandwidth(Frequency::from_mhz(100.0)) / 1e6;
        assert!((bw - 235.0).abs() < 3.0, "effective {bw:.1} MB/s");
    }

    #[test]
    fn ddr2_scales_with_bus_clock() {
        let b100 = ddr2_bandwidth(Frequency::from_mhz(100.0));
        let b120 = ddr2_bandwidth(Frequency::from_mhz(120.0));
        assert!((b120 / b100 - 1.2).abs() < 0.01);
    }

    #[test]
    fn bram_store_capacity() {
        let store = BramStore::new(256 * 1024);
        assert!(store.fits(247 * 1024));
        assert!(!store.fits(300 * 1024));
    }
}
