//! Resource accounting: primitive inventories and slice packing.
//!
//! Table II of the paper reports the slice cost of each UPaRC block on
//! Virtex-5 and Virtex-6. Since we cannot run the Xilinx mapper, the
//! [`AreaEstimator`] reproduces it from first principles: a module is an
//! inventory of LUTs and flip-flops; slices follow from the family's slice
//! composition (V5: 4 LUT + 4 FF; V6: 4 LUT + 8 FF) divided by a packing
//! efficiency (the mapper never fills slices completely).

use crate::family::Family;

/// Typical slice packing efficiency of the vendor mapper on control-style
/// logic (fraction of slice LUT/FF capacity actually used after packing).
pub const DEFAULT_PACKING_EFFICIENCY: f64 = 0.80;

/// Primitive inventory of a hardware module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrimitiveInventory {
    /// Look-up tables.
    pub luts: u32,
    /// Flip-flops.
    pub ffs: u32,
    /// 36 Kb block RAMs.
    pub bram36: u32,
    /// DSP slices.
    pub dsp: u32,
}

impl PrimitiveInventory {
    /// Creates a LUT/FF-only inventory.
    #[must_use]
    pub const fn logic(luts: u32, ffs: u32) -> Self {
        PrimitiveInventory {
            luts,
            ffs,
            bram36: 0,
            dsp: 0,
        }
    }

    /// Component-wise sum of two inventories.
    #[must_use]
    pub const fn plus(self, other: PrimitiveInventory) -> PrimitiveInventory {
        PrimitiveInventory {
            luts: self.luts + other.luts,
            ffs: self.ffs + other.ffs,
            bram36: self.bram36 + other.bram36,
            dsp: self.dsp + other.dsp,
        }
    }
}

/// Slice-count estimator for a device family.
///
/// # Example
///
/// ```
/// use uparc_fpga::resources::{AreaEstimator, PrimitiveInventory};
/// use uparc_fpga::family::Family;
///
/// // UReC's inventory maps to 26 slices on both families (Table II).
/// let urec = PrimitiveInventory::logic(82, 64);
/// assert_eq!(AreaEstimator::new(Family::Virtex5).slices(&urec), 26);
/// assert_eq!(AreaEstimator::new(Family::Virtex6).slices(&urec), 26);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AreaEstimator {
    family: Family,
}

impl AreaEstimator {
    /// Creates an estimator packing at [`DEFAULT_PACKING_EFFICIENCY`].
    #[must_use]
    pub fn new(family: Family) -> Self {
        AreaEstimator { family }
    }

    /// The family this estimator targets.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    /// Estimated slice count of `inv`: the binding resource (LUTs or FFs)
    /// divided by per-slice capacity and the packing efficiency, rounded up.
    #[must_use]
    pub fn slices(&self, inv: &PrimitiveInventory) -> u32 {
        let lut_slices = inv.luts as f64 / self.family.luts_per_slice() as f64;
        let ff_slices = inv.ffs as f64 / self.family.ffs_per_slice() as f64;
        let ideal = lut_slices.max(ff_slices);
        (ideal / DEFAULT_PACKING_EFFICIENCY).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calibrated inventories used for Table II (see uparc-core).
    const URE_C: PrimitiveInventory = PrimitiveInventory::logic(82, 64);
    const DYCLOGEN: PrimitiveInventory = PrimitiveInventory::logic(56, 76);
    const DECOMPRESSOR: PrimitiveInventory = PrimitiveInventory::logic(2880, 3310);

    #[test]
    fn table2_slice_counts_reproduce() {
        let v5 = AreaEstimator::new(Family::Virtex5);
        let v6 = AreaEstimator::new(Family::Virtex6);
        assert_eq!(v5.slices(&DYCLOGEN), 24);
        assert_eq!(v6.slices(&DYCLOGEN), 18);
        assert_eq!(v5.slices(&URE_C), 26);
        assert_eq!(v6.slices(&URE_C), 26);
        assert_eq!(v5.slices(&DECOMPRESSOR), 1035);
        assert_eq!(v6.slices(&DECOMPRESSOR), 900);
    }

    #[test]
    fn ff_heavy_designs_shrink_on_virtex6() {
        // V6 slices hold twice the flip-flops, so FF-bound designs shrink.
        let ff_heavy = PrimitiveInventory::logic(10, 400);
        let v5 = AreaEstimator::new(Family::Virtex5).slices(&ff_heavy);
        let v6 = AreaEstimator::new(Family::Virtex6).slices(&ff_heavy);
        assert!(v6 < v5);
        // LUT-bound designs do not.
        let lut_heavy = PrimitiveInventory::logic(400, 10);
        let v5 = AreaEstimator::new(Family::Virtex5).slices(&lut_heavy);
        let v6 = AreaEstimator::new(Family::Virtex6).slices(&lut_heavy);
        assert_eq!(v5, v6);
    }

    #[test]
    fn inventory_plus_sums_fields() {
        let a = PrimitiveInventory {
            luts: 1,
            ffs: 2,
            bram36: 3,
            dsp: 4,
        };
        let b = PrimitiveInventory {
            luts: 10,
            ffs: 20,
            bram36: 30,
            dsp: 40,
        };
        let c = a.plus(b);
        assert_eq!(
            c,
            PrimitiveInventory {
                luts: 11,
                ffs: 22,
                bram36: 33,
                dsp: 44
            }
        );
    }
}
