//! Bitstream inventory validated against the device floorplan.
//!
//! The service only dispatches bitstreams that were registered ahead of
//! time. Registration resolves each bitstream's frame window to exactly
//! one reconfigurable region via [`Floorplan::containing`], decides the
//! staging mode (raw if the image fits the BRAM, otherwise compressed),
//! and precomputes the staged image size so admission and scheduling can
//! estimate service times without touching a controller.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use uparc_bitstream::builder::PartialBitstream;
use uparc_compress::Algorithm;
use uparc_core::uparc::Mode;
use uparc_fpga::floorplan::Floorplan;
use uparc_fpga::{Device, FpgaError};
use uparc_sim::sweep;

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
    /// The floorplan rejected a region definition.
    Floorplan(FpgaError),
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
            CatalogError::Floorplan(e) => write!(f, "floorplan: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<FpgaError> for CatalogError {
    fn from(e: FpgaError) -> Self {
        CatalogError::Floorplan(e)
    }
}

/// One registered bitstream with its precomputed staging facts.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    bitstream: PartialBitstream,
    region: RegionId,
    raw_bytes: usize,
    compressed: bool,
    staged_words: usize,
    /// Compressed payload computed at registration (`None` for raw
    /// staging). Shared, so cloning the catalog or handing the bytes to a
    /// staging path copies a pointer, not the payload.
    packed: Option<Arc<Vec<u8>>>,
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
        self.raw_bytes
    }

    /// Whether the image is staged compressed.
    #[must_use]
    pub fn compressed(&self) -> bool {
        self.compressed
    }

    /// Staged image size in words, mode word included.
    #[must_use]
    pub fn staged_words(&self) -> usize {
        self.staged_words
    }

    /// The explicit staging mode the service passes to the controller.
    #[must_use]
    pub fn mode(&self) -> Mode {
        if self.compressed {
            Mode::Compressed
        } else {
            Mode::Raw
        }
    }

    /// The compressed payload computed at registration, `None` when the
    /// entry stages raw. The bytes are exactly what the controller's
    /// staging codec produces, so admission checks and prefetch planners
    /// can size transfers without recompressing.
    #[must_use]
    pub fn packed_bytes(&self) -> Option<&[u8]> {
        self.packed.as_deref().map(Vec::as_slice)
    }
}

/// Staging facts of one bitstream: the mode decision and, for compressed
/// staging, the payload itself.
struct StagingFacts {
    raw_bytes: usize,
    compressed: bool,
    staged_words: usize,
    packed: Option<Arc<Vec<u8>>>,
}

/// Mirrors `UParc::preload` with [`Mode::Auto`]: stage raw when the image
/// (mode word included) fits the BRAM, compress otherwise. The staged
/// word counts match what the controller will actually store.
fn stage_facts(
    bram_bytes: usize,
    bitstream: &PartialBitstream,
) -> Result<StagingFacts, CatalogError> {
    let raw_bytes = bitstream.size_bytes();
    if raw_bytes + 4 <= bram_bytes {
        return Ok(StagingFacts {
            raw_bytes,
            compressed: false,
            staged_words: raw_bytes / 4 + 1,
            packed: None,
        });
    }
    let packed = STAGING_ALGORITHM.codec().compress(&bitstream.to_bytes());
    // Mode word + byte-count word + packed payload.
    let words = 2 + packed.len().div_ceil(4);
    if words * 4 > bram_bytes {
        return Err(CatalogError::TooLarge {
            required: words * 4,
            bram: bram_bytes,
        });
    }
    Ok(StagingFacts {
        raw_bytes,
        compressed: true,
        staged_words: words,
        packed: Some(Arc::new(packed)),
    })
}

/// The bitstream inventory and region map of one service instance.
#[derive(Debug, Clone)]
pub struct Catalog {
    device: Device,
    floorplan: Floorplan,
    bram_bytes: usize,
    regions: Vec<uparc_fpga::floorplan::PartitionId>,
    entries: BTreeMap<BitstreamId, CatalogEntry>,
}

impl Catalog {
    /// Creates an empty catalog for the given device.
    #[must_use]
    pub fn new(device: Device) -> Self {
        let floorplan = Floorplan::new(device.clone());
        Catalog {
            device,
            floorplan,
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
    /// [`FpgaError`] if the window is invalid or overlaps an existing
    /// partition.
    pub fn add_region(&mut self, name: &str, frames: Range<u32>) -> Result<RegionId, FpgaError> {
        let pid = self.floorplan.add_partition(name, frames)?;
        self.regions.push(pid);
        Ok(RegionId(self.regions.len() - 1))
    }

    /// Registers a bitstream under `id`, resolving its region and
    /// staging mode.
    ///
    /// # Errors
    ///
    /// [`CatalogError`] if the id is taken, the frame window fits no
    /// region, or even the compressed image exceeds the BRAM.
    pub fn register(
        &mut self,
        id: BitstreamId,
        bitstream: PartialBitstream,
    ) -> Result<RegionId, CatalogError> {
        if self.entries.contains_key(&id) {
            return Err(CatalogError::DuplicateId { id });
        }
        let region = self.resolve_region(&bitstream)?;
        let facts = stage_facts(self.bram_bytes, &bitstream)?;
        self.insert_entry(id, bitstream, region, facts);
        Ok(region)
    }

    /// Registers a whole batch, compressing entries concurrently.
    ///
    /// Staging facts are computed across entries with
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
        let mut staged = Vec::with_capacity(batch.len());
        for facts in
            sweep::parallel_map(&batch, |(_, bitstream)| stage_facts(bram_bytes, bitstream))
        {
            staged.push(facts?);
        }
        for (((id, bitstream), &region), facts) in batch.into_iter().zip(regions.iter()).zip(staged)
        {
            self.insert_entry(id, bitstream, region, facts);
        }
        Ok(regions)
    }

    /// Resolves the unique region containing the bitstream's frame window.
    fn resolve_region(&self, bitstream: &PartialBitstream) -> Result<RegionId, CatalogError> {
        let pid = self
            .floorplan
            .containing(bitstream.far(), bitstream.frame_count())
            .ok_or(CatalogError::Unplaceable {
                far: bitstream.far(),
                frames: bitstream.frame_count(),
            })?;
        Ok(RegionId(
            self.regions
                .iter()
                .position(|&p| p == pid)
                .expect("every floorplan partition was added through add_region"),
        ))
    }

    fn insert_entry(
        &mut self,
        id: BitstreamId,
        bitstream: PartialBitstream,
        region: RegionId,
        facts: StagingFacts,
    ) {
        self.entries.insert(
            id,
            CatalogEntry {
                bitstream,
                region,
                raw_bytes: facts.raw_bytes,
                compressed: facts.compressed,
                staged_words: facts.staged_words,
                packed: facts.packed,
            },
        );
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

    /// The floorplan backing the region map.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
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
    }

    #[test]
    fn register_rejects_duplicates_and_strays() {
        let (mut cat, _) = catalog_with_region();
        let bs = bitstream(&cat, 100, 40, 7);
        cat.register(BitstreamId(1), bs.clone()).unwrap();
        assert!(matches!(
            cat.register(BitstreamId(1), bs),
            Err(CatalogError::DuplicateId { .. })
        ));
        // Frame window outside every region.
        let stray = bitstream(&cat, 300, 10, 9);
        assert!(matches!(
            cat.register(BitstreamId(2), stray),
            Err(CatalogError::Unplaceable { .. })
        ));
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
        assert_eq!(entry.mode(), Mode::Compressed);
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
