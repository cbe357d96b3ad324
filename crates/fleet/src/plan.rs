//! Calibrated operating-point tables.
//!
//! `PowerAwarePolicy::plan_vf` predicts service times analytically;
//! these tables hold the full Start→Finish latency **measured** with a
//! real cycle-accurate [`UParc`](uparc_core::uparc::UParc) dispatch
//! (retune + preload + transfer).
//! That is why they are measured per bitstream *shape* (raw size ×
//! staging mode), once per frequency of the policy's grid restricted to
//! the fleet's operating range, beside the policy's nominal-rail power at
//! each frequency. Selecting an operating point for a request is then a
//! binary search over the power table — and a test pins the selection
//! against a frequency-only `plan_vf` for the same query.

use std::collections::BTreeMap;

use uparc_core::policy::PowerAwarePolicy;
use uparc_serve::catalog::Catalog;
use uparc_serve::request::BitstreamId;
use uparc_sim::power::calib;
use uparc_sim::time::{Frequency, SimTime};

use crate::FleetError;

/// Per-entry dispatch facts (precomputed so the hot loop never hashes or
/// re-derives them). The chip loop resolves them once per request with
/// [`PlanTables::facts`] and hands them to every other table accessor.
#[derive(Debug, Clone)]
pub struct EntryFacts {
    /// Index into the group tables.
    group: usize,
    /// Whether the entry stages a packed payload. Raw staging needs no
    /// decode, so it bypasses the chip's working set entirely.
    pub packed: bool,
    /// Decompressed image size in bytes (what the working set charges).
    pub image_bytes: usize,
    /// Transfer size in 32-bit words (mode word included), for
    /// throughput accounting.
    pub words: u64,
}

/// Calibrated tables for one bitstream shape.
#[derive(Debug, Clone)]
struct GroupTable {
    /// `grid[..admissible]` respects the datapath frequency ceiling.
    admissible: usize,
    /// Measured Start→Finish latency per admissible grid index.
    service: Vec<SimTime>,
    /// Above-idle energy per dispatch per admissible grid index, µJ
    /// (decompressor draw included for compressed staging).
    energy_uj: Vec<f64>,
    /// Extra steady draw during the transfer (decompressor), mW.
    extra_draw_mw: f64,
}

/// The fleet's precomputed planning tables.
///
/// Each index is one operating point on the nominal rail: a grid
/// frequency and its predicted power, both strictly ascending, so
/// [`PlanTables::select`]'s cap admission is a binary search.
#[derive(Debug, Clone)]
pub struct PlanTables {
    /// Synthesizable CLK_2 targets in the fleet operating range,
    /// ascending.
    grid: Vec<Frequency>,
    /// Total core power (idle included, decompressor excluded) per grid
    /// index — strictly ascending, so cap admission is a binary search.
    power_mw: Vec<f64>,
    groups: Vec<GroupTable>,
    entries: BTreeMap<u32, EntryFacts>,
}

impl PlanTables {
    /// Builds and calibrates tables for every entry of `catalog`.
    ///
    /// The grid is restricted to `min_frequency` and up: the slowest
    /// grid point defines the per-chip power floor the rack budget must
    /// fund, so a rack-scale deployment declares the slowest clock it is
    /// willing to run rather than reserving budget for pathological
    /// 6 MHz operating points.
    ///
    /// # Errors
    ///
    /// [`FleetError::EmptyCatalog`] for an empty catalog and
    /// [`FleetError::NoAdmissibleFrequency`] if the operating range is
    /// empty or excludes some entry's datapath ceiling.
    pub fn build(
        catalog: &Catalog,
        planner: &PowerAwarePolicy,
        min_frequency: Frequency,
    ) -> Result<Self, FleetError> {
        if catalog.is_empty() {
            return Err(FleetError::EmptyCatalog);
        }
        let grid: Vec<Frequency> = planner
            .frequency_grid()
            .iter()
            .copied()
            .filter(|&f| f >= min_frequency)
            .collect();
        if grid.is_empty() {
            return Err(FleetError::NoAdmissibleFrequency);
        }
        let power_mw = grid
            .iter()
            .map(|&f| planner.predicted_power_mw(f))
            .collect();

        let mut tables = PlanTables {
            grid,
            power_mw,
            groups: Vec::new(),
            entries: BTreeMap::new(),
        };
        let mut group_of: BTreeMap<(usize, bool), usize> = BTreeMap::new();
        for id in catalog.ids() {
            let entry = catalog.entry(id).expect("listed id resolves");
            let shape = (entry.raw_bytes(), entry.compressed());
            let group = match group_of.get(&shape) {
                Some(&g) => g,
                None => {
                    let admissible = match entry.max_frequency() {
                        Some(c) => tables.grid.partition_point(|&f| f <= c),
                        None => tables.grid.len(),
                    };
                    if admissible == 0 {
                        return Err(FleetError::NoAdmissibleFrequency);
                    }
                    let extra_draw_mw = entry.decompressor_draw_mw(planner);
                    let mut service = Vec::with_capacity(admissible);
                    let mut energy_uj = Vec::with_capacity(admissible);
                    for i in 0..admissible {
                        let f = tables.grid[i];
                        // A fresh scratch controller per point: no DCM
                        // relock residue.
                        let mut scratch = catalog.lane();
                        scratch
                            .set_reconfiguration_frequency(f)
                            .expect("grid frequency is synthesizable");
                        scratch
                            .reconfigure_bitstream(entry.bitstream(), entry.mode())
                            .expect("fault-free calibration dispatch");
                        let measured = scratch.now();
                        service.push(measured);
                        energy_uj.push(
                            planner.predicted_energy_uj(entry.raw_bytes(), f)
                                + extra_draw_mw * measured.as_secs_f64() * 1e3,
                        );
                    }
                    let g = tables.groups.len();
                    tables.groups.push(GroupTable {
                        admissible,
                        service,
                        energy_uj,
                        extra_draw_mw,
                    });
                    group_of.insert(shape, g);
                    g
                }
            };
            // The catalog checked at registration that every packed
            // payload decodes back to the raw image.
            tables.entries.insert(
                id.0,
                EntryFacts {
                    group,
                    packed: entry.compressed(),
                    image_bytes: entry.raw_bytes(),
                    words: (entry.raw_bytes() as u64).div_ceil(4) + 1,
                },
            );
        }
        Ok(tables)
    }

    /// The restricted frequency grid, ascending.
    #[must_use]
    pub fn grid(&self) -> &[Frequency] {
        &self.grid
    }

    /// Precomputed dispatch facts for `id`.
    ///
    /// # Panics
    ///
    /// Panics for an id the tables were not built over.
    #[must_use]
    pub fn facts(&self, id: BitstreamId) -> &EntryFacts {
        self.entries.get(&id.0).expect("id was calibrated")
    }

    /// Fastest admissible grid index for the entry `facts` describes
    /// under a total-power cap of `cap_mw` (idle and decompressor draw
    /// included), or `None` if even the slowest point exceeds the cap.
    #[must_use]
    pub fn select(&self, facts: &EntryFacts, cap_mw: f64) -> Option<usize> {
        let g = &self.groups[facts.group];
        let fit = self.power_mw[..g.admissible].partition_point(|&p| p + g.extra_draw_mw <= cap_mw);
        fit.checked_sub(1)
    }

    /// Measured Start→Finish latency of the entry at grid index `idx`.
    #[must_use]
    pub fn service(&self, facts: &EntryFacts, idx: usize) -> SimTime {
        self.groups[facts.group].service[idx]
    }

    /// The slowest admissible point's latency for the entry — the
    /// conservative window dispatch planning spans epoch caps with.
    #[must_use]
    pub fn slowest_service(&self, facts: &EntryFacts) -> SimTime {
        self.groups[facts.group].service[0]
    }

    /// Above-idle energy of one dispatch of the entry at grid index
    /// `idx`, µJ.
    #[must_use]
    pub fn energy_uj(&self, facts: &EntryFacts, idx: usize) -> f64 {
        self.groups[facts.group].energy_uj[idx]
    }

    /// Above-idle draw of the entry's transfer at grid index `idx`, mW
    /// (reconfiguration path plus decompressor).
    #[must_use]
    pub fn draw_above_idle_mw(&self, facts: &EntryFacts, idx: usize) -> f64 {
        let g = &self.groups[facts.group];
        self.power_mw[idx] - calib::V6_IDLE_MW + g.extra_draw_mw
    }

    /// The CLK_2 frequency at grid index `idx`.
    #[must_use]
    pub fn frequency(&self, idx: usize) -> Frequency {
        self.grid[idx]
    }

    /// The per-chip above-idle power floor: the draw of the slowest grid
    /// point plus the largest decompressor surcharge any entry needs.
    /// A chip whose cap funds idle + this floor can always dispatch.
    #[must_use]
    pub fn floor_mw(&self) -> f64 {
        let extra = self
            .groups
            .iter()
            .map(|g| g.extra_draw_mw)
            .fold(0.0, f64::max);
        self.power_mw[0] - calib::V6_IDLE_MW + extra
    }

    /// A mid-grid service-time estimate for router load modeling.
    #[must_use]
    pub fn mean_service_estimate(&self) -> SimTime {
        let g = &self.groups[0];
        g.service[g.admissible / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::synthetic_catalog;

    #[test]
    fn build_keeps_the_pre_dvfs_nominal_tables() {
        let catalog = synthetic_catalog(2, 40, 9);
        let planner = PowerAwarePolicy::paper_setup(catalog.device().family());
        let min = Frequency::from_mhz(50.0);
        let tables = PlanTables::build(&catalog, &planner, min).unwrap();
        let expected: Vec<Frequency> = planner
            .frequency_grid()
            .iter()
            .copied()
            .filter(|&f| f >= min)
            .collect();
        assert_eq!(tables.grid(), expected.as_slice());
        for (i, &f) in expected.iter().enumerate() {
            // Bit-identical to the analytic model the pre-DVFS tables
            // were built from.
            assert_eq!(
                tables.power_mw[i].to_bits(),
                planner.predicted_power_mw(f).to_bits()
            );
        }
    }
}
