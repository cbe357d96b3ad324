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
use uparc_bitstream::bramimg::BramImage;
use uparc_fpga::bram::{Bram, Port};
use uparc_sim::power::calib;
use uparc_sim::time::{Frequency, SimTime};

/// The manager's own clock: the paper's MicroBlaze, fixed at 100 MHz.
pub(crate) const CLOCK: Frequency = Frequency::from_hz(100_000_000);

/// Constant control + measurement overhead per reconfiguration, cycles.
const CONTROL_OVERHEAD_CYCLES: u64 = 120;

/// Preload copy cost per 32-bit word (bus write + loop), cycles.
const PRELOAD_CYCLES_PER_WORD: u64 = 2;

/// `.bit` preamble parsing cost, cycles, paid by every preload.
const PREAMBLE_PARSE_CYCLES: u64 = 400;

/// Manager behaviour. The clock and cycle costs above are calibrated
/// constants of the design; only the wait strategy varies (§V's proposed
/// fix, the `ablation_manager` section).
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Whether the manager busy-waits for "Finish" (the measured setup) or
    /// sleeps until an interrupt (the paper's proposed improvement).
    pub active_wait: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig { active_wait: true }
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
        let cycles = PREAMBLE_PARSE_CYCLES + words.len() as u64 * PRELOAD_CYCLES_PER_WORD;
        Ok(CLOCK.time_of_cycles(cycles))
    }

    /// Constant control overhead around one reconfiguration.
    #[must_use]
    pub fn control_overhead(&self) -> SimTime {
        CLOCK.time_of_cycles(CONTROL_OVERHEAD_CYCLES)
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
    fn active_wait_power_is_the_spin_loop() {
        let spinning = Manager::new();
        assert!((spinning.wait_power_mw() - calib::MANAGER_ACTIVE_WAIT_MW).abs() < 1e-12);
        let event_driven = Manager::with_config(ManagerConfig { active_wait: false });
        assert!(event_driven.wait_power_mw() < 1.0);
    }
}
