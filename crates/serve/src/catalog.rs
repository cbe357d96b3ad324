//! Bitstream inventory validated against the catalog's regions.
//!
//! A region is a window of the device's frame space, claimed in a
//! [`FrameAllocator`] when it is declared, so empty, out-of-device and
//! overlapping windows are typed [`CatalogError`]s. The service only
//! dispatches bitstreams that were registered ahead of time.
//! Registration resolves each bitstream's frame window to the one region
//! that holds it entirely and decides its staging once, with
//! [`Mode::decide`] under [`Mode::Auto`]: raw if the image fits the BRAM,
//! otherwise packed and checked by `decide` to round-trip, and here to
//! fit the BRAM. The entry keeps only the decided mode, whose packed
//! payload shares the entry's bitstream. Admission and scheduling size
//! transfers from it without touching a controller, and a controller
//! handed [`CatalogEntry::mode`] stages the packed payload without
//! encoding or decoding it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;

use uparc_bitstream::builder::PartialBitstream;
use uparc_compress::Algorithm;
use uparc_core::policy::PowerAwarePolicy;
use uparc_core::uparc::{Mode, UParc, COMPRESSED_MODE_MAX};
use uparc_core::UparcError;
use uparc_fpga::alloc::{AllocError, FrameAllocator};
use uparc_fpga::Device;
use uparc_sim::sweep;
use uparc_sim::time::Frequency;

use crate::request::{BitstreamId, RegionId};

/// Default staging BRAM capacity, matching [`uparc_core::UParc`]'s default.
pub const DEFAULT_BRAM_BYTES: usize = 256 * 1024;

/// The codec compressed entries are staged with: X-MatchPRO, the paper's
/// hardware decompressor.
const STAGING_ALGORITHM: Algorithm = Algorithm::XMatchPro;

/// Why a bitstream could not be registered.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// The id is already registered.
    DuplicateId {
        /// The conflicting id.
        id: BitstreamId,
    },
    /// The bitstream's frame window is not contained in any region.
    Unplaceable {
        /// Frame address register value of the bitstream.
        far: u32,
        /// Frame count of the bitstream.
        frames: u32,
    },
    /// Even the compressed image exceeds the staging BRAM.
    TooLarge {
        /// Bytes the staged image needs.
        required: usize,
        /// BRAM capacity in bytes.
        bram: usize,
    },
    /// A region's frame window is empty or runs past the device.
    InvalidRegion {
        /// Name of the rejected region.
        name: String,
        /// The allocator's reason.
        error: AllocError,
    },
    /// A region's frame window overlaps an already declared region.
    RegionOverlap {
        /// Name of the rejected region.
        new: String,
        /// Name of the declared region it overlaps.
        existing: String,
    },
    /// The staging codec did not reproduce the image it packed.
    Compression(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateId { id } => write!(f, "{id} already registered"),
            CatalogError::Unplaceable { far, frames } => write!(
                f,
                "frame window [{far}, {}) fits no region",
                far.saturating_add(*frames)
            ),
            CatalogError::TooLarge { required, bram } => {
                write!(f, "staged image needs {required} B, BRAM holds {bram} B")
            }
            CatalogError::InvalidRegion { name, error } => write!(f, "region {name:?}: {error}"),
            CatalogError::RegionOverlap { new, existing } => {
                write!(f, "region {new:?} overlaps region {existing:?}")
            }
            CatalogError::Compression(e) => write!(f, "staging codec: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One registered bitstream with its decided staging mode.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    bitstream: PartialBitstream,
    region: RegionId,
    /// [`Mode::Raw`] or [`Mode::Packed`]; a packed payload and its source
    /// are shared with `bitstream`, so cloning the catalog or handing the
    /// mode to a controller copies pointers, not the payload or the image.
    mode: Mode,
}

impl CatalogEntry {
    /// The bitstream itself.
    #[must_use]
    pub fn bitstream(&self) -> &PartialBitstream {
        &self.bitstream
    }

    /// The region this bitstream reconfigures.
    #[must_use]
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Raw configuration stream size in bytes.
    #[must_use]
    pub fn raw_bytes(&self) -> usize {
        self.bitstream.size_bytes()
    }

    /// Whether the image is staged compressed.
    #[must_use]
    pub fn compressed(&self) -> bool {
        matches!(self.mode, Mode::Packed(_))
    }

    /// Staged image size in words, mode word included (and, packed, the
    /// byte-count word).
    #[must_use]
    pub fn staged_words(&self) -> usize {
        match self.packed_bytes() {
            Some(packed) => 2 + packed.len().div_ceil(4),
            None => self.raw_bytes() / 4 + 1,
        }
    }

    /// The decided staging mode, [`Mode::Raw`] or [`Mode::Packed`]: what
    /// the service hands the controller, which stages it without
    /// encoding.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode.clone()
    }

    /// The compressed payload packed at registration, `None` when the
    /// entry stages raw. The bytes are exactly what the controller
    /// stages, so admission checks and prefetch planners can size
    /// transfers without recompressing.
    #[must_use]
    pub fn packed_bytes(&self) -> Option<&[u8]> {
        match &self.mode {
            Mode::Packed(packed) => Some(packed.bytes()),
            _ => None,
        }
    }

    /// CLK_2 ceiling of the entry's datapath: the compressed datapath's
    /// 255 MHz when it stages packed, none when raw.
    #[must_use]
    pub fn max_frequency(&self) -> Option<Frequency> {
        self.compressed()
            .then(|| Frequency::from_mhz(COMPRESSED_MODE_MAX))
    }

    /// The steady draw `planner` charges for the hardware decompressor
    /// during this entry's transfer, mW: its surcharge when the entry
    /// stages packed, none when raw.
    #[must_use]
    pub fn decompressor_draw_mw(&self, planner: &PowerAwarePolicy) -> f64 {
        if self.compressed() {
            planner.decompressor_draw_mw()
        } else {
            0.0
        }
    }
}

/// Decides how `bitstream` stages in a `bram_bytes` BRAM
/// ([`Mode::decide`] under [`Mode::Auto`], which checks that a packed
/// payload decodes back to the image) and checks that a packed payload
/// fits the BRAM, so every packed payload in a catalog round-trips and
/// stages.
fn decide_staging(bram_bytes: usize, bitstream: &PartialBitstream) -> Result<Mode, CatalogError> {
    let mode = Mode::Auto
        .decide(bitstream, bram_bytes, STAGING_ALGORITHM)
        .map_err(|e| {
            CatalogError::Compression(match e {
                UparcError::Compression(e) => e,
                e => e.to_string(),
            })
        })?;
    if let Mode::Packed(packed) = &mode {
        // Mode word + byte-count word + packed payload.
        let required = (2 + packed.bytes().len().div_ceil(4)) * 4;
        if required > bram_bytes {
            return Err(CatalogError::TooLarge {
                required,
                bram: bram_bytes,
            });
        }
    }
    Ok(mode)
}

/// The bitstream inventory and region map of one service instance.
#[derive(Debug, Clone)]
pub struct Catalog {
    device: Device,
    bram_bytes: usize,
    /// The regions' frame windows: `live()` is sorted by start and
    /// disjoint, which is what region lookup binary-searches.
    windows: FrameAllocator,
    /// Region names and windows in declaration order; `RegionId(i)`
    /// names `regions[i]`.
    regions: Vec<(String, Range<u32>)>,
    entries: BTreeMap<BitstreamId, CatalogEntry>,
}

impl Catalog {
    /// Creates an empty catalog for the given device.
    #[must_use]
    pub fn new(device: Device) -> Self {
        Catalog {
            windows: FrameAllocator::for_device(&device),
            device,
            bram_bytes: DEFAULT_BRAM_BYTES,
            regions: Vec::new(),
            entries: BTreeMap::new(),
        }
    }

    /// Overrides the staging BRAM capacity used for mode decisions.
    #[must_use]
    pub fn with_bram_bytes(mut self, bytes: usize) -> Self {
        self.bram_bytes = bytes;
        self
    }

    /// Declares a reconfigurable region over a frame window.
    ///
    /// # Errors
    ///
    /// [`CatalogError::InvalidRegion`] if the window is empty or runs
    /// past the device, [`CatalogError::RegionOverlap`] if it overlaps a
    /// declared region. A rejected region leaves the catalog unchanged.
    pub fn add_region(&mut self, name: &str, frames: Range<u32>) -> Result<RegionId, CatalogError> {
        self.windows
            .alloc_at(frames.clone())
            .map_err(|error| match error {
                AllocError::Conflict { .. } => {
                    // Windows are disjoint and sorted: the first one
                    // ending past `frames.start` is the one hit.
                    let live = self.windows.live();
                    let hit = &live[live.partition_point(|w| w.end <= frames.start)];
                    CatalogError::RegionOverlap {
                        new: name.to_owned(),
                        existing: self.regions[self.region_over(hit)].0.clone(),
                    }
                }
                error => CatalogError::InvalidRegion {
                    name: name.to_owned(),
                    error,
                },
            })?;
        self.regions.push((name.to_owned(), frames));
        Ok(RegionId(self.regions.len() - 1))
    }

    /// Registers a bitstream under `id`, resolving its region and
    /// staging mode.
    ///
    /// # Errors
    ///
    /// [`CatalogError`] if the id is taken, the frame window fits no
    /// region, even the compressed image exceeds the BRAM, or the packed
    /// payload does not decode back to the image.
    pub fn register(
        &mut self,
        id: BitstreamId,
        bitstream: PartialBitstream,
    ) -> Result<RegionId, CatalogError> {
        Ok(self.register_batch(vec![(id, bitstream)])?[0])
    }

    /// Registers a whole batch, compressing entries concurrently.
    ///
    /// Staging is decided across entries with
    /// [`sweep::parallel_map`]; each entry's codec runs single-threaded,
    /// so the catalog ends up byte-identical to sequential
    /// [`Catalog::register`] calls under any `UPARC_SWEEP_THREADS`
    /// setting. Registration is all-or-nothing: on any error the catalog
    /// is left unchanged.
    ///
    /// # Errors
    ///
    /// [`CatalogError`] as for [`Catalog::register`]; duplicate ids
    /// within the batch are rejected too.
    pub fn register_batch(
        &mut self,
        batch: Vec<(BitstreamId, PartialBitstream)>,
    ) -> Result<Vec<RegionId>, CatalogError> {
        let mut seen = BTreeSet::new();
        let mut regions = Vec::with_capacity(batch.len());
        for (id, bitstream) in &batch {
            if self.entries.contains_key(id) || !seen.insert(*id) {
                return Err(CatalogError::DuplicateId { id: *id });
            }
            regions.push(self.resolve_region(bitstream)?);
        }
        let bram_bytes = self.bram_bytes;
        let mut modes = Vec::with_capacity(batch.len());
        for mode in sweep::parallel_map(&batch, |(_, bitstream)| {
            decide_staging(bram_bytes, bitstream)
        }) {
            modes.push(mode?);
        }
        for (((id, bitstream), &region), mode) in batch.into_iter().zip(regions.iter()).zip(modes) {
            self.entries.insert(
                id,
                CatalogEntry {
                    bitstream,
                    region,
                    mode,
                },
            );
        }
        Ok(regions)
    }

    /// Resolves the region whose window holds the bitstream's whole
    /// frame window `[far, far + frames)`; a window straddling a region
    /// boundary or landing between regions is unplaceable.
    fn resolve_region(&self, bitstream: &PartialBitstream) -> Result<RegionId, CatalogError> {
        let (far, frames) = (bitstream.far(), bitstream.frame_count());
        // Windows are disjoint, so the last one starting at or before
        // `far` is the only possible container.
        let live = self.windows.live();
        match live[..live.partition_point(|w| w.start <= far)].last() {
            Some(w) if far.checked_add(frames).is_some_and(|end| end <= w.end) => {
                Ok(RegionId(self.region_over(w)))
            }
            _ => Err(CatalogError::Unplaceable { far, frames }),
        }
    }

    /// Index into `regions` of the region declared over `window`, one of
    /// the allocator's live windows.
    fn region_over(&self, window: &Range<u32>) -> usize {
        self.regions
            .iter()
            .position(|(_, w)| w == window)
            .expect("every live window was claimed by add_region")
    }

    /// Looks up a registered entry.
    #[must_use]
    pub fn entry(&self, id: BitstreamId) -> Option<&CatalogEntry> {
        self.entries.get(&id)
    }

    /// All registered ids in ascending order.
    #[must_use]
    pub fn ids(&self) -> Vec<BitstreamId> {
        self.entries.keys().copied().collect()
    }

    /// Number of declared regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of registered bitstreams.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no bitstream is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The device this catalog describes.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The staging BRAM capacity in bytes.
    #[must_use]
    pub fn bram_bytes(&self) -> usize {
        self.bram_bytes
    }

    /// The staging compression algorithm (X-MatchPRO, the paper's
    /// decompressor).
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        STAGING_ALGORITHM
    }

    /// Builds a controller lane with the catalog's staging setup (device,
    /// BRAM, decompressor); it stages every entry's [`CatalogEntry::mode`]
    /// without encoding or decoding.
    #[must_use]
    pub fn lane(&self) -> UParc {
        UParc::builder(self.device.clone())
            .bram_bytes(self.bram_bytes)
            .decompressor(STAGING_ALGORITHM)
            .build()
            .expect("catalog algorithm has a hardware decompressor")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_bitstream::synth::SynthProfile;

    fn catalog_with_region() -> (Catalog, RegionId) {
        let device = Device::xc5vsx50t();
        let mut cat = Catalog::new(device);
        let r = cat.add_region("rp0", 100..160).unwrap();
        (cat, r)
    }

    fn bitstream(cat: &Catalog, far: u32, frames: u32, seed: u64) -> PartialBitstream {
        let payload = SynthProfile::dense().generate(cat.device(), far, frames, seed);
        PartialBitstream::build(cat.device(), far, &payload)
    }

    #[test]
    fn register_resolves_region_and_mode() {
        let (mut cat, r0) = catalog_with_region();
        let bs = bitstream(&cat, 100, 40, 7);
        let region = cat.register(BitstreamId(1), bs).unwrap();
        assert_eq!(region, r0);
        let entry = cat.entry(BitstreamId(1)).unwrap();
        assert_eq!(entry.region(), r0);
        assert!(!entry.compressed(), "40 frames fit the 256 KB BRAM raw");
        assert_eq!(entry.staged_words(), entry.raw_bytes() / 4 + 1);
        assert_eq!(entry.mode(), Mode::Raw);
        // A bitstream filling the whole window resolves too.
        let full = bitstream(&cat, 100, 60, 8);
        assert_eq!(cat.register(BitstreamId(2), full), Ok(r0));
    }

    #[test]
    fn register_rejects_duplicates_and_strays() {
        let (mut cat, _) = catalog_with_region();
        cat.add_region("rp1", 160..220).unwrap();
        cat.add_region("rp2", 400..500).unwrap();
        let bs = bitstream(&cat, 100, 40, 7);
        cat.register(BitstreamId(1), bs.clone()).unwrap();
        assert!(matches!(
            cat.register(BitstreamId(1), bs),
            Err(CatalogError::DuplicateId { .. })
        ));
        // Straddling the rp0/rp1 boundary, in the 220..400 gap, running
        // from rp1 into the gap, and outside every region (above the
        // last and below the first).
        for (far, frames) in [(150, 20), (300, 10), (200, 40), (600, 10), (0, 50)] {
            let stray = bitstream(&cat, far, frames, 9);
            assert_eq!(
                cat.register(BitstreamId(2), stray),
                Err(CatalogError::Unplaceable { far, frames }),
                "[{far}, +{frames})"
            );
        }
    }

    #[test]
    fn regions_declared_out_of_address_order_resolve() {
        // Region ids follow declaration order; the lookup searches the
        // windows by address. Declare them shuffled to force the two
        // apart.
        let mut cat = Catalog::new(Device::xc5vsx50t());
        let windows = [800..900u32, 100..200, 500..800, 0..100, 300..450];
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(
                cat.add_region(&format!("rp{i}"), w.clone()),
                Ok(RegionId(i))
            );
        }
        let mut next = 0u32;
        let mut register = |cat: &mut Catalog, far: u32, frames: u32| {
            next += 1;
            let bs = bitstream(cat, far, frames, u64::from(next));
            cat.register(BitstreamId(next), bs)
        };
        for (i, w) in windows.iter().enumerate() {
            for (far, frames) in [(w.start, w.end - w.start), (w.start, 1), (w.end - 1, 1)] {
                assert_eq!(register(&mut cat, far, frames), Ok(RegionId(i)));
            }
        }
        // The 200..300 and 450..500 gaps hold nothing, and a window
        // running from a region into a gap fits no region either.
        for (far, frames) in [(200, 50), (460, 10), (150, 100)] {
            assert_eq!(
                register(&mut cat, far, frames),
                Err(CatalogError::Unplaceable { far, frames })
            );
        }
    }

    #[test]
    fn bad_region_windows_are_typed_errors() {
        let (mut cat, _) = catalog_with_region();
        // Empty is checked first, even inside a declared region.
        for empty in [5..5u32, 130..130] {
            let err = cat.add_region("rp", empty).unwrap_err();
            assert_eq!(
                err,
                CatalogError::InvalidRegion {
                    name: "rp".into(),
                    error: AllocError::Empty
                }
            );
            assert_eq!(err.to_string(), r#"region "rp": zero-frame window"#);
        }
        // Overlap from below, from above, inside and around rp0.
        for bad in [50..110u32, 159..200, 120..140, 0..1000] {
            assert_eq!(
                cat.add_region("bad", bad.clone()),
                Err(CatalogError::RegionOverlap {
                    new: "bad".into(),
                    existing: "rp0".into()
                }),
                "{bad:?}"
            );
        }
        // Adjacent windows on both sides are fine.
        assert_eq!(cat.add_region("below", 40..100), Ok(RegionId(1)));
        assert_eq!(cat.add_region("above", 160..220), Ok(RegionId(2)));
        // The error names the region actually hit.
        let err = cat.add_region("late", 210..230).unwrap_err();
        assert_eq!(err.to_string(), r#"region "late" overlaps region "above""#);
        // Windows past the device, partly or wholly.
        let frames = cat.device().frames();
        for big in [0..frames + 1, frames..frames + 10] {
            assert_eq!(
                cat.add_region("big", big.clone()),
                Err(CatalogError::InvalidRegion {
                    name: "big".into(),
                    error: AllocError::OutOfRange {
                        window: big,
                        frames
                    }
                })
            );
        }
        assert_eq!(cat.region_count(), 3, "rejected regions are not declared");
    }

    #[test]
    fn small_bram_forces_compression() {
        let device = Device::xc5vsx50t();
        let mut cat = Catalog::new(device).with_bram_bytes(8 * 1024);
        cat.add_region("rp0", 100..160).unwrap();
        // 60 frames of mostly-blank content: raw image exceeds the 8 KB
        // BRAM, compressed image fits easily.
        let payload = SynthProfile::sparse().generate(cat.device(), 100, 60, 7);
        let bs = PartialBitstream::build(cat.device(), 100, &payload);
        let raw = bs.size_bytes();
        assert!(raw + 4 > 8 * 1024);
        cat.register(BitstreamId(1), bs).unwrap();
        let entry = cat.entry(BitstreamId(1)).unwrap();
        assert!(entry.compressed());
        assert!(entry.staged_words() * 4 <= 8 * 1024);
        let Mode::Packed(packed) = entry.mode() else {
            panic!("a packed entry decides into Mode::Packed");
        };
        // The packed payload shares the entry's bitstream.
        assert_eq!(
            packed.source().words().as_ptr(),
            entry.bitstream().words().as_ptr()
        );
    }

    #[test]
    fn batch_registration_matches_sequential() {
        let make = || {
            let device = Device::xc5vsx50t();
            let mut cat = Catalog::new(device).with_bram_bytes(8 * 1024);
            cat.add_region("rp0", 100..160).unwrap();
            cat
        };
        let template = make();
        let batch: Vec<(BitstreamId, PartialBitstream)> = (0..6)
            .map(|i| {
                let payload = SynthProfile::sparse().generate(
                    template.device(),
                    100,
                    54 + i,
                    u64::from(i) * 31 + 7,
                );
                (
                    BitstreamId(i),
                    PartialBitstream::build(template.device(), 100, &payload),
                )
            })
            .collect();

        let mut sequential = make();
        for (id, bs) in batch.clone() {
            sequential.register(id, bs).unwrap();
        }
        let mut batched = make();
        let regions = batched.register_batch(batch).unwrap();
        assert_eq!(regions.len(), 6);

        assert_eq!(sequential.ids(), batched.ids());
        for id in sequential.ids() {
            let s = sequential.entry(id).unwrap();
            let b = batched.entry(id).unwrap();
            assert_eq!(s.region(), b.region());
            assert_eq!(s.compressed(), b.compressed());
            assert_eq!(s.staged_words(), b.staged_words());
            assert_eq!(s.packed_bytes(), b.packed_bytes());
            assert!(s.compressed(), "sparse 54+ frames exceed the 8 KB BRAM");
            assert!(s.packed_bytes().is_some());
        }
    }

    #[test]
    fn batch_rejects_duplicates_without_partial_registration() {
        let (mut cat, _) = catalog_with_region();
        let a = bitstream(&cat, 100, 10, 1);
        let b = bitstream(&cat, 100, 12, 2);
        let err = cat
            .register_batch(vec![(BitstreamId(1), a), (BitstreamId(1), b)])
            .unwrap_err();
        assert!(matches!(err, CatalogError::DuplicateId { .. }));
        assert!(cat.is_empty(), "all-or-nothing: nothing registered");
    }

    #[test]
    fn raw_entries_retain_no_packed_payload() {
        let (mut cat, _) = catalog_with_region();
        let bs = bitstream(&cat, 100, 40, 7);
        cat.register(BitstreamId(1), bs).unwrap();
        let entry = cat.entry(BitstreamId(1)).unwrap();
        assert!(!entry.compressed());
        assert_eq!(entry.packed_bytes(), None);
    }

    #[test]
    fn ids_iterate_in_ascending_order() {
        let (mut cat, _) = catalog_with_region();
        for id in [5u32, 1, 3] {
            let bs = bitstream(&cat, 100, 10 + id, u64::from(id));
            cat.register(BitstreamId(id), bs).unwrap();
        }
        assert_eq!(
            cat.ids(),
            vec![BitstreamId(1), BitstreamId(3), BitstreamId(5)]
        );
    }
}
