//! The Manager (paper §III-A) — bitstream preloading, reconfiguration
//! control and frequency adaptation.
//!
//! The paper implements the Manager as a MicroBlaze at a fixed 100 MHz; the
//! model captures the three costs that shape the results:
//!
//! * **preloading** — parsing the `.bit` preamble and copying the image
//!   into BRAM port A; done ahead of time (overlappable with idle, §III-A1)
//!   so it does not count against reconfiguration time;
//! * **control overhead** — the constant cost of launching UPaRC and
//!   timestamping around it (~1.2 µs at 100 MHz, calibrated so the Fig. 5
//!   effective-bandwidth ratios reproduce: 78.8% at 6.5 KB, 99% at 247 KB);
//! * **active wait** — the §V finding: the MicroBlaze spins on "Finish",
//!   burning ~92 mW above idle for the whole reconfiguration, which is why
//!   measured energy *decreases* with frequency. An event-driven manager
//!   (`active_wait = false`) removes that term — the paper's suggested fix,
//!   exercised by the `ablation_manager` section of `uparc_bench::paper`.

use crate::error::UparcError;
use uparc_bitstream::bitfile::BitFile;
use uparc_bitstream::bramimg::BramImage;
use uparc_bitstream::builder::bytes_to_words;
use uparc_fpga::bram::{Bram, Port};
use uparc_sim::power::calib;
use uparc_sim::time::{Frequency, SimTime};

/// Manager cost/behaviour parameters.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// The manager's own clock (fixed; the paper's MicroBlaze: 100 MHz).
    pub clock: Frequency,
    /// Constant control + measurement overhead per reconfiguration, cycles.
    pub control_overhead_cycles: u64,
    /// Preload copy cost per 32-bit word (bus write + loop), cycles.
    pub preload_cycles_per_word: u64,
    /// `.bit` preamble parsing cost, cycles.
    pub preamble_parse_cycles: u64,
    /// Whether the manager busy-waits for "Finish" (the measured setup) or
    /// sleeps until an interrupt (the paper's proposed improvement).
    pub active_wait: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            clock: Frequency::from_mhz(100.0),
            control_overhead_cycles: 120,
            preload_cycles_per_word: 2,
            preamble_parse_cycles: 400,
            active_wait: true,
        }
    }
}

/// The Manager model.
#[derive(Debug, Clone, Default)]
pub struct Manager {
    cfg: ManagerConfig,
}

impl Manager {
    /// A manager with the paper's configuration (MicroBlaze, 100 MHz,
    /// active wait).
    #[must_use]
    pub fn new() -> Self {
        Manager::default()
    }

    /// A manager with custom parameters.
    #[must_use]
    pub fn with_config(cfg: ManagerConfig) -> Self {
        Manager { cfg }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ManagerConfig {
        &self.cfg
    }

    /// Writes `image` into BRAM port A, returning the preload duration.
    ///
    /// # Errors
    ///
    /// [`UparcError::BramCapacity`] if the image does not fit.
    pub fn preload(&self, bram: &mut Bram, image: &BramImage) -> Result<SimTime, UparcError> {
        let words = image.words();
        if words.len() > bram.capacity_words() {
            return Err(UparcError::BramCapacity {
                required: words.len() * 4,
                available: bram.capacity_bytes(),
            });
        }
        bram.load_image(Port::A, 0, words)?;
        let cycles =
            self.cfg.preamble_parse_cycles + words.len() as u64 * self.cfg.preload_cycles_per_word;
        Ok(self.cfg.clock.time_of_cycles(cycles))
    }

    /// Parses a `.bit` container and preloads its configuration payload
    /// (what §III-A1 describes: parse the preamble, then load size +
    /// configuration data).
    ///
    /// # Errors
    ///
    /// Container/word-alignment errors, or [`UparcError::BramCapacity`].
    pub fn preload_bitfile(&self, bram: &mut Bram, file: &BitFile) -> Result<SimTime, UparcError> {
        let words = bytes_to_words(&file.data)?;
        let image = BramImage::uncompressed(&words);
        self.preload(bram, &image)
    }

    /// Constant control overhead around one reconfiguration.
    #[must_use]
    pub fn control_overhead(&self) -> SimTime {
        self.cfg
            .clock
            .time_of_cycles(self.cfg.control_overhead_cycles)
    }

    /// Manager power above idle while controlling/launching, mW.
    #[must_use]
    pub fn control_power_mw(&self) -> f64 {
        calib::MANAGER_ACTIVE_WAIT_MW
    }

    /// Manager power above idle while waiting for "Finish", mW: the spin
    /// loop if `active_wait`, near-zero for the event-driven variant.
    #[must_use]
    pub fn wait_power_mw(&self) -> f64 {
        if self.cfg.active_wait {
            calib::MANAGER_ACTIVE_WAIT_MW
        } else {
            calib::MANAGER_IDLE_MW
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_fpga::Family;

    #[test]
    fn control_overhead_is_1_2_us() {
        // 120 cycles at 100 MHz — the Fig. 5 calibration constant.
        assert_eq!(Manager::new().control_overhead(), SimTime::from_ns(1200));
    }

    #[test]
    fn preload_writes_and_costs_cycles() {
        let mgr = Manager::new();
        let mut bram = Bram::new(Family::Virtex5, 256 * 1024);
        let image = BramImage::uncompressed(&[7u32; 1000]);
        let t = mgr.preload(&mut bram, &image).unwrap();
        // 400 + 1001*2 cycles at 100 MHz.
        assert_eq!(t, SimTime::from_ns((400 + 1001 * 2) * 10));
        assert_eq!(bram.read_word(Port::B, 1).unwrap(), 7);
        assert_eq!(bram.write_count(Port::A), 1001);
    }

    #[test]
    fn oversized_image_rejected() {
        let mgr = Manager::new();
        let mut bram = Bram::new(Family::Virtex5, 64);
        let image = BramImage::uncompressed(&[0u32; 100]);
        assert!(matches!(
            mgr.preload(&mut bram, &image),
            Err(UparcError::BramCapacity { .. })
        ));
    }

    #[test]
    fn bitfile_preload_parses_and_loads() {
        let mgr = Manager::new();
        let mut bram = Bram::new(Family::Virtex5, 256 * 1024);
        let file = BitFile {
            design_name: "rp0".into(),
            part: "5vsx50t".into(),
            date: "2011/09/14".into(),
            time: "12:00:00".into(),
            data: (0u32..50).flat_map(|w| w.to_be_bytes()).collect(),
        };
        mgr.preload_bitfile(&mut bram, &file).unwrap();
        // Word 0 is the mode word; payload follows.
        assert_eq!(bram.read_word(Port::B, 1).unwrap(), 0);
        assert_eq!(bram.read_word(Port::B, 50).unwrap(), 49);
    }

    #[test]
    fn active_wait_power_is_the_spin_loop() {
        let spinning = Manager::new();
        assert!((spinning.wait_power_mw() - calib::MANAGER_ACTIVE_WAIT_MW).abs() < 1e-12);
        let event_driven = Manager::with_config(ManagerConfig {
            active_wait: false,
            ..ManagerConfig::default()
        });
        assert!(event_driven.wait_power_mw() < 1.0);
    }
}
