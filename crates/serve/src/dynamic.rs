//! Allocator-driven placement: the dynamic counterpart of [`crate::catalog`].
//!
//! The static [`crate::catalog::Catalog`] claims fixed region windows in
//! a [`FrameAllocator`] up front and resolves every bitstream to one of
//! them at registration time. Under tenant churn there are no fixed
//! regions: a tenant asks for *n* contiguous frames, the
//! admission layer consults a [`FrameAllocator`] for a window, and the
//! image is *relocated* — FAR rewritten, CRC recomputed — to wherever the
//! window landed. [`DynamicCatalog`] owns that loop, and gives the
//! background defragmenter the targeted-move primitive
//! ([`DynamicCatalog::relocate_to`]) it compacts the frame space with.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::error::BitstreamError;
use uparc_fpga::alloc::{AllocError, FitPolicy, FragStats, FrameAllocator};
use uparc_fpga::Device;

use crate::request::BitstreamId;

/// Why a dynamic placement operation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlacementError {
    /// The id is already placed.
    Duplicate {
        /// The conflicting id.
        id: BitstreamId,
    },
    /// No image with this id is currently placed.
    Unknown {
        /// The missing id.
        id: BitstreamId,
    },
    /// The allocator has no window large enough — the typed admission
    /// rejection. `largest_free < requested <= total_free` means the
    /// capacity exists but is trapped in fragments (a defragmenter's
    /// cue); `total_free < requested` means the device is simply full.
    NoCapacity {
        /// Contiguous frames the image needs.
        requested: u32,
        /// Largest contiguous free block.
        largest_free: u32,
        /// Total free frames across all blocks.
        total_free: u32,
    },
    /// The allocator rejected a targeted window operation.
    Alloc(AllocError),
    /// Relocation failed (wrong device, window off the end).
    Bitstream(BitstreamError),
}

impl PlacementError {
    /// True when the rejection is due to fragmentation alone: enough
    /// total free capacity exists, but no single block fits the request.
    #[must_use]
    pub fn is_trapped_capacity(&self) -> bool {
        matches!(
            self,
            PlacementError::NoCapacity {
                requested,
                total_free,
                ..
            } if requested <= total_free
        )
    }
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::Duplicate { id } => write!(f, "{id} already placed"),
            PlacementError::Unknown { id } => write!(f, "{id} not placed"),
            PlacementError::NoCapacity {
                requested,
                largest_free,
                total_free,
            } => write!(
                f,
                "no window for {requested} frames (largest free {largest_free}, \
                 total free {total_free})"
            ),
            PlacementError::Alloc(e) => write!(f, "allocator: {e}"),
            PlacementError::Bitstream(e) => write!(f, "relocation: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl From<AllocError> for PlacementError {
    fn from(e: AllocError) -> Self {
        PlacementError::Alloc(e)
    }
}

impl From<BitstreamError> for PlacementError {
    fn from(e: BitstreamError) -> Self {
        PlacementError::Bitstream(e)
    }
}

/// One live image under dynamic placement.
#[derive(Debug, Clone)]
pub struct PlacedImage {
    bitstream: PartialBitstream,
    window: Range<u32>,
}

impl PlacedImage {
    /// The image, relocated to its current window.
    #[must_use]
    pub fn bitstream(&self) -> &PartialBitstream {
        &self.bitstream
    }

    /// The frame window the image currently occupies.
    #[must_use]
    pub fn window(&self) -> Range<u32> {
        self.window.clone()
    }
}

/// An allocator-backed bitstream inventory for churn workloads.
///
/// Every [`DynamicCatalog::load`] is an admission decision: the allocator
/// either hands back a window (and the image is relocated into it) or the
/// caller gets a typed [`PlacementError::NoCapacity`] carrying the
/// fragmentation facts needed to decide between shedding the tenant and
/// waiting for the defragmenter.
#[derive(Debug, Clone)]
pub struct DynamicCatalog {
    device: Device,
    allocator: FrameAllocator,
    policy: FitPolicy,
    entries: BTreeMap<BitstreamId, PlacedImage>,
}

impl DynamicCatalog {
    /// An empty dynamic catalog over the whole frame space of `device`.
    #[must_use]
    pub fn new(device: Device, policy: FitPolicy) -> Self {
        let allocator = FrameAllocator::for_device(&device);
        DynamicCatalog {
            device,
            allocator,
            policy,
            entries: BTreeMap::new(),
        }
    }

    /// The placement device.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configured fit policy.
    #[must_use]
    pub fn policy(&self) -> FitPolicy {
        self.policy
    }

    /// Read access to the underlying allocator (fragmentation queries).
    #[must_use]
    pub fn allocator(&self) -> &FrameAllocator {
        &self.allocator
    }

    /// Carves a static-logic window out before any tenant lands.
    ///
    /// # Errors
    ///
    /// Forwards the allocator's [`AllocError`] when the window is not
    /// free or out of range.
    pub fn reserve_static(&mut self, window: Range<u32>) -> Result<(), PlacementError> {
        self.allocator.reserve(window)?;
        Ok(())
    }

    /// Places `bitstream` wherever the allocator finds a window, relocating
    /// the image there. Returns the window.
    ///
    /// # Errors
    ///
    /// [`PlacementError::Duplicate`] for a live id,
    /// [`PlacementError::NoCapacity`] when no window fits,
    /// [`PlacementError::Bitstream`] if relocation fails (the window is
    /// rolled back).
    pub fn load(
        &mut self,
        id: BitstreamId,
        bitstream: &PartialBitstream,
    ) -> Result<Range<u32>, PlacementError> {
        if self.entries.contains_key(&id) {
            return Err(PlacementError::Duplicate { id });
        }
        let frames = bitstream.frame_count();
        let window = match self.allocator.alloc(frames, self.policy) {
            Ok(w) => w,
            Err(AllocError::Exhausted { requested, .. }) => {
                return Err(PlacementError::NoCapacity {
                    requested,
                    largest_free: self.allocator.largest_free(),
                    total_free: self.allocator.total_free(),
                });
            }
            Err(e) => return Err(e.into()),
        };
        let placed = match bitstream.relocate(&self.device, window.start) {
            Ok(bs) => bs,
            Err(e) => {
                self.allocator
                    .free(window)
                    .expect("fresh window frees cleanly");
                return Err(e.into());
            }
        };
        self.entries.insert(
            id,
            PlacedImage {
                bitstream: placed,
                window: window.clone(),
            },
        );
        Ok(window)
    }

    /// Removes a live image, returning the freed window (coalesced into
    /// the free list).
    ///
    /// # Errors
    ///
    /// [`PlacementError::Unknown`] for an id that is not placed.
    pub fn unload(&mut self, id: BitstreamId) -> Result<Range<u32>, PlacementError> {
        let entry = self
            .entries
            .remove(&id)
            .ok_or(PlacementError::Unknown { id })?;
        self.allocator
            .free(entry.window.clone())
            .expect("live windows free cleanly");
        Ok(entry.window)
    }

    /// Moves a live image to `new_start` (the defragmenter's primitive).
    /// The destination may overlap the source — the old window is freed
    /// before the new one is claimed, exactly like a downward memmove.
    /// Returns `(from, to)` windows. On failure the image stays put.
    ///
    /// # Errors
    ///
    /// [`PlacementError::Unknown`] for an unplaced id,
    /// [`PlacementError::Bitstream`] when the image does not fit at
    /// `new_start`, [`PlacementError::Alloc`] when another image holds
    /// part of the destination.
    pub fn relocate_to(
        &mut self,
        id: BitstreamId,
        new_start: u32,
    ) -> Result<(Range<u32>, Range<u32>), PlacementError> {
        let entry = self
            .entries
            .get(&id)
            .ok_or(PlacementError::Unknown { id })?;
        let old = entry.window.clone();
        let frames = entry.bitstream.frame_count();
        // Pure step first: a relocation failure leaves the allocator
        // untouched.
        let moved = entry.bitstream.relocate(&self.device, new_start)?;
        let new = new_start..new_start + frames;
        self.allocator
            .free(old.clone())
            .expect("live windows free cleanly");
        if let Err(e) = self.allocator.alloc_at(new.clone()) {
            self.allocator
                .alloc_at(old.clone())
                .expect("rollback to the old window");
            return Err(e.into());
        }
        let entry = self.entries.get_mut(&id).expect("entry is live");
        entry.bitstream = moved;
        entry.window = new.clone();
        Ok((old, new))
    }

    /// The live image for `id`, if placed.
    #[must_use]
    pub fn get(&self, id: BitstreamId) -> Option<&PlacedImage> {
        self.entries.get(&id)
    }

    /// Iterates live `(id, image)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BitstreamId, &PlacedImage)> {
        self.entries.iter().map(|(id, e)| (*id, e))
    }

    /// Number of live images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no image is placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fragmentation snapshot of the underlying allocator.
    #[must_use]
    pub fn frag_stats(&self) -> FragStats {
        self.allocator.frag_stats()
    }

    /// Verifies that live windows and the allocator agree exactly and no
    /// two placed images overlap; forwards the allocator's own invariant
    /// check.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.allocator.check_invariants()?;
        let mut windows: Vec<Range<u32>> =
            self.entries.values().map(|e| e.window.clone()).collect();
        windows.sort_by_key(|w| w.start);
        for pair in windows.windows(2) {
            if pair[1].start < pair[0].end {
                return Err(format!(
                    "placed images overlap: {}..{} and {}..{}",
                    pair[0].start, pair[0].end, pair[1].start, pair[1].end
                ));
            }
        }
        if windows != self.allocator.live() {
            return Err("catalog windows drifted from allocator live list".to_owned());
        }
        for e in self.entries.values() {
            if e.bitstream.far() != e.window.start
                || e.bitstream.frame_count() != e.window.end - e.window.start
            {
                return Err(format!(
                    "image at FAR {} disagrees with window {}..{}",
                    e.bitstream.far(),
                    e.window.start,
                    e.window.end
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_bitstream::synth::SynthProfile;
    use uparc_fpga::device::Geometry;
    use uparc_fpga::Family;

    fn tiny(minors: u32) -> Device {
        let geometry = Geometry {
            rows: 1,
            majors: 1,
            minors,
        };
        Device::custom("tiny", Family::Virtex5, 0x0123_4567, geometry, 100, 10)
    }

    fn image(device: &Device, frames: u32, seed: u64) -> PartialBitstream {
        let payload = SynthProfile::dense().generate(device, 0, frames, seed);
        PartialBitstream::build(device, 0, &payload)
    }

    fn catalog() -> DynamicCatalog {
        DynamicCatalog::new(Device::xc5vsx50t(), FitPolicy::FirstFit)
    }

    #[test]
    fn load_relocates_to_the_allocated_window() {
        let mut cat = catalog();
        let device = cat.device().clone();
        let bs = image(&device, 10, 1);
        let w = cat.load(BitstreamId(1), &bs).unwrap();
        assert_eq!(w, 0..10);
        let placed = cat.get(BitstreamId(1)).unwrap();
        assert_eq!(placed.bitstream().far(), 0);
        // The stored image is byte-identical to a fresh build at the
        // window (the bitstream was already at FAR 0 here; move a second
        // image to a nonzero window to see a real rewrite).
        let bs2 = image(&device, 7, 2);
        let w2 = cat.load(BitstreamId(2), &bs2).unwrap();
        assert_eq!(w2, 10..17);
        let fresh = PartialBitstream::build(&device, 10, bs2.payload());
        assert_eq!(cat.get(BitstreamId(2)).unwrap().bitstream(), &fresh);
        cat.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_and_unknown_ids_are_typed() {
        let mut cat = catalog();
        let device = cat.device().clone();
        let bs = image(&device, 4, 3);
        cat.load(BitstreamId(9), &bs).unwrap();
        assert_eq!(
            cat.load(BitstreamId(9), &bs),
            Err(PlacementError::Duplicate { id: BitstreamId(9) })
        );
        assert_eq!(
            cat.unload(BitstreamId(8)),
            Err(PlacementError::Unknown { id: BitstreamId(8) })
        );
        assert_eq!(cat.unload(BitstreamId(9)), Ok(0..4));
        assert!(cat.is_empty());
    }

    #[test]
    fn exhaustion_is_a_no_capacity_rejection() {
        let device = tiny(32);
        let mut cat = DynamicCatalog::new(device.clone(), FitPolicy::FirstFit);
        cat.load(BitstreamId(0), &image(&device, 20, 4)).unwrap();
        let err = cat
            .load(BitstreamId(1), &image(&device, 20, 5))
            .unwrap_err();
        assert_eq!(
            err,
            PlacementError::NoCapacity {
                requested: 20,
                largest_free: 12,
                total_free: 12,
            }
        );
        assert!(!err.is_trapped_capacity());
    }

    #[test]
    fn trapped_capacity_is_distinguished_from_full() {
        let device = tiny(30);
        let mut cat = DynamicCatalog::new(device.clone(), FitPolicy::FirstFit);
        for i in 0..3u32 {
            cat.load(BitstreamId(i), &image(&device, 10, u64::from(i)))
                .unwrap();
        }
        // Free the outer two: 20 free frames, largest block 10.
        cat.unload(BitstreamId(0)).unwrap();
        cat.unload(BitstreamId(2)).unwrap();
        let err = cat
            .load(BitstreamId(3), &image(&device, 15, 9))
            .unwrap_err();
        assert!(err.is_trapped_capacity(), "{err}");
    }

    #[test]
    fn relocate_to_supports_overlapping_downward_moves() {
        let mut cat = catalog();
        let device = cat.device().clone();
        let a = cat.load(BitstreamId(1), &image(&device, 10, 6)).unwrap();
        let bs_b = image(&device, 10, 7);
        cat.load(BitstreamId(2), &bs_b).unwrap();
        cat.unload(BitstreamId(1)).unwrap();
        let _ = a;
        // Image 2 lives at 10..20 with 0..10 free: slide it down 5.
        let (from, to) = cat.relocate_to(BitstreamId(2), 5).unwrap();
        assert_eq!((from, to), (10..20, 5..15));
        let fresh = PartialBitstream::build(&device, 5, bs_b.payload());
        assert_eq!(cat.get(BitstreamId(2)).unwrap().bitstream(), &fresh);
        cat.check_invariants().unwrap();
        // Moving onto another live image fails and rolls back.
        cat.load(BitstreamId(3), &image(&device, 10, 8)).unwrap(); // 15..25? no: first fit → 0..5? size 10 → 15..25
        let before = cat.get(BitstreamId(2)).unwrap().window();
        assert!(matches!(
            cat.relocate_to(BitstreamId(2), 20),
            Err(PlacementError::Alloc(_))
        ));
        assert_eq!(cat.get(BitstreamId(2)).unwrap().window(), before);
        cat.check_invariants().unwrap();
    }

    #[test]
    fn reserve_static_excludes_windows_from_placement() {
        let mut cat = catalog();
        let device = cat.device().clone();
        cat.reserve_static(0..100).unwrap();
        let w = cat.load(BitstreamId(1), &image(&device, 10, 10)).unwrap();
        assert_eq!(w, 100..110);
        cat.check_invariants().unwrap();
    }
}
