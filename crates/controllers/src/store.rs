//! Bitstream staging-memory models.
//!
//! Every controller's effective bandwidth is set by where the bitstream
//! lives before it reaches the ICAP. The paper's related-work section maps
//! out the options: external non-volatile CompactFlash (huge but slow),
//! DDR2 SDRAM (large, medium speed), on-chip BRAM (small, fast), and the
//! processor cache (the configuration used for xps_hwicap's 14.5 MB/s
//! figure in \[9\]).

use uparc_sim::time::{Frequency, SimTime};

/// CompactFlash card behind the SystemACE/filesystem stack.
///
/// The paper measures ~180 KB/s end-to-end for xps_hwicap reading from CF
/// (§IV); the card+driver read bandwidth is the bottleneck.
#[derive(Debug, Clone, Copy)]
pub struct CompactFlash {
    /// Sustained read bandwidth, bytes/second.
    read_bw: f64,
}

impl CompactFlash {
    /// The ML506-era card + SystemACE driver stack.
    #[must_use]
    pub fn ml506() -> Self {
        CompactFlash {
            read_bw: 180.0 * 1024.0,
        }
    }

    /// Time to fetch `bytes` from the card.
    #[must_use]
    pub fn fetch_time(&self, bytes: usize) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.read_bw)
    }
}

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

    /// Effective read bandwidth at bus clock `f`, bytes/second.
    #[must_use]
    pub fn effective_bandwidth(&self, f: Frequency) -> f64 {
        let words = 1_000_000u64;
        let t = self.fetch_time(words, f);
        words as f64 * 4.0 / t.as_secs_f64()
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

    /// Time to stream `words` out at port clock `f` (1 word/cycle).
    #[must_use]
    pub fn stream_time(&self, words: u64, f: Frequency) -> SimTime {
        f.time_of_cycles(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_flash_is_the_slow_path() {
        let cf = CompactFlash::ml506();
        // 216.5 KB at ~180 KB/s ≈ 1.2 s.
        let t = cf.fetch_time(216_500);
        assert!(
            t > SimTime::from_ms(1100) && t < SimTime::from_ms(1300),
            "{t}"
        );
    }

    #[test]
    fn ddr2_lands_at_235_mb_s_at_100mhz() {
        let ddr = Ddr2::ml506_mig();
        let bw = ddr.effective_bandwidth(Frequency::from_mhz(100.0)) / 1e6;
        assert!((bw - 235.0).abs() < 3.0, "effective {bw:.1} MB/s");
    }

    #[test]
    fn ddr2_scales_with_bus_clock() {
        let ddr = Ddr2::ml506_mig();
        let b100 = ddr.effective_bandwidth(Frequency::from_mhz(100.0));
        let b120 = ddr.effective_bandwidth(Frequency::from_mhz(120.0));
        assert!((b120 / b100 - 1.2).abs() < 0.01);
    }

    #[test]
    fn bram_store_capacity_and_rate() {
        let store = BramStore::new(256 * 1024);
        assert!(store.fits(247 * 1024));
        assert!(!store.fits(300 * 1024));
        // 64k words at 100 MHz = 655.36 µs.
        let t = store.stream_time(65_536, Frequency::from_mhz(100.0));
        assert_eq!(t, SimTime::from_ns(655_360));
    }
}
