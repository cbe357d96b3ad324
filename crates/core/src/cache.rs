//! A byte-budgeted LRU cache of decompressed bitstreams.
//!
//! The fleet's chip loop (`uparc_fleet::chip`) runs the host-side staging
//! work of every dispatch for real: a chip keeps a working set of
//! decompressed images under a byte budget, a miss decodes the staged
//! payload with the actual codec, and a hit reuses the image.
//! [`DecompCache`] is that working set, keyed by the *content* of the
//! compressed payload. The controller itself ([`crate::uparc::UParc`])
//! caches nothing: a clean packed transfer writes the bitstream the
//! payload was packed from, which [`crate::uparc::Mode::decide`] checked
//! once.
//!
//! # Cached values
//!
//! `DecompCache<T>` stores any `T: AsRef<[u8]>` behind an [`Arc`] and
//! charges the budget by `as_ref().len()`, the decompressed image's size.
//! A caller keeps what it derives from an image once per decode beside it
//! — the chip loop stores the image with its fold — while the budget
//! still models decompressed bytes alone.
//!
//! # Keying and soundness
//!
//! A [`CacheKey`] fingerprints the compressed bytes (codec id, length and
//! two independent 64-bit FNV-style hashes over different seeds, folded a
//! 64-bit lane at a time). The
//! codecs are deterministic and lossless, so equal compressed bytes imply
//! equal decompressed output — serving a cached image is observably
//! identical to decompressing again. A 128-bit fingerprint collision is
//! vanishingly unlikely (and bounded further by the length field).
//!
//! # Eviction
//!
//! Least-recently-used by a monotonic access tick. The map is scanned
//! directly for the victim instead of maintaining an intrusive list. A
//! budget of zero disables the cache (every lookup misses without being
//! counted, nothing is stored).

use std::collections::HashMap;
use std::sync::Arc;

/// Content fingerprint of one compressed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    codec: u8,
    len: u64,
    h1: u64,
    h2: u64,
}

/// The 64-bit FNV-1a offset basis: [`CacheKey`]'s first fingerprint
/// lane, and the seed of the fleet chip loop's image fold.
pub const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes` starting from `seed`, folded one 64-bit lane at a
/// time (SWAR): eight bytes are mixed per multiply instead of one, so
/// fingerprinting runs at memory speed on the multi-hundred-KB payloads
/// this cache keys. The ragged tail falls back to byte-wise FNV-1a.
#[must_use]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = seed;
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        h ^= u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in lanes.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl CacheKey {
    /// Fingerprints `bytes` as produced by codec `codec`
    /// (see [`crate::uparc::codec_id`]).
    #[must_use]
    pub fn of(codec: u8, bytes: &[u8]) -> Self {
        CacheKey {
            codec,
            len: bytes.len() as u64,
            h1: fnv1a(FNV_OFFSET_BASIS, bytes),
            h2: fnv1a(0x6C62_272E_07BB_0142, bytes),
        }
    }
}

/// Hit/miss/eviction counters of a [`DecompCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to decompression.
    pub misses: u64,
    /// Entries evicted to make room under the byte budget.
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    data: Arc<T>,
    last_used: u64,
}

/// The byte-budgeted LRU cache (see the module docs).
#[derive(Debug, Clone)]
pub struct DecompCache<T> {
    budget: usize,
    used: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry<T>>,
    stats: CacheStats,
}

impl<T: AsRef<[u8]>> DecompCache<T> {
    /// Creates a cache holding at most `budget` bytes of decompressed
    /// data. A budget of zero disables the cache entirely.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        DecompCache {
            budget,
            used: 0,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The byte budget this cache was built with.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Decompressed bytes currently held.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Cached entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot (cumulative since construction).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up the decompressed image for `key`, refreshing its LRU
    /// position. Counts a hit or miss — unless the cache is disabled, in
    /// which case lookups are free and uncounted.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<T>> {
        if self.budget == 0 {
            return None;
        }
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.data))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a decompressed image, evicting least-recently-used entries
    /// until it fits. Images larger than the whole budget are not stored;
    /// re-inserting an existing key refreshes its LRU position only.
    pub fn insert(&mut self, key: CacheKey, data: Arc<T>) {
        let bytes = (*data).as_ref().len();
        if bytes > self.budget {
            return; // also covers the disabled (budget 0) cache
        }
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(&key) {
            debug_assert_eq!((*entry.data).as_ref().len(), bytes, "cache key collision");
            entry.last_used = self.tick;
            return;
        }
        while self.used + bytes > self.budget {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("used > 0 implies non-empty map");
            let evicted = self.map.remove(&oldest).expect("key just found");
            self.used -= (*evicted.data).as_ref().len();
            self.stats.evictions += 1;
        }
        self.used += bytes;
        self.map.insert(
            key,
            Entry {
                data,
                last_used: self.tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(tag: u8, len: usize) -> Arc<Vec<u8>> {
        Arc::new((0..len).map(|i| tag ^ (i as u8)).collect())
    }

    #[test]
    fn hit_after_insert_and_content_keying() {
        let mut cache = DecompCache::new(1024);
        let packed = [1u8, 2, 3, 4];
        let key = CacheKey::of(1, &packed);
        assert!(cache.get(&key).is_none());
        cache.insert(key, image(7, 100));
        let hit = cache.get(&key).expect("hit");
        assert_eq!(*hit, *image(7, 100));
        // The same bytes fingerprint identically; different bytes don't.
        assert_eq!(key, CacheKey::of(1, &[1, 2, 3, 4]));
        assert_ne!(key, CacheKey::of(1, &[1, 2, 3, 5]));
        assert_ne!(key, CacheKey::of(2, &packed));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let mut cache = DecompCache::new(250);
        let keys: Vec<CacheKey> = (0..3).map(|i| CacheKey::of(1, &[i])).collect();
        cache.insert(keys[0], image(0, 100));
        cache.insert(keys[1], image(1, 100));
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(cache.get(&keys[0]).is_some());
        cache.insert(keys[2], image(2, 100));
        assert_eq!(cache.len(), 2);
        assert!(cache.used() <= 250);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.get(&keys[0]).is_some(),
            "recently used entry survives"
        );
        assert!(cache.get(&keys[1]).is_none(), "LRU entry was evicted");
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn oversized_items_and_zero_budget_are_rejected() {
        let mut cache = DecompCache::new(50);
        let key = CacheKey::of(1, &[9]);
        cache.insert(key, image(9, 51));
        assert!(cache.is_empty());

        let mut disabled = DecompCache::new(0);
        disabled.insert(key, image(9, 1));
        assert!(disabled.get(&key).is_none());
        assert!(disabled.is_empty());
        assert_eq!(
            disabled.stats(),
            CacheStats::default(),
            "disabled cache counts nothing"
        );
    }

    #[test]
    fn derived_values_are_charged_by_their_image_bytes() {
        /// An image with a value derived from it once, cached beside it.
        struct Folded {
            image: Vec<u8>,
            fold: u64,
        }
        impl AsRef<[u8]> for Folded {
            fn as_ref(&self) -> &[u8] {
                &self.image
            }
        }
        let folded = |tag: u8| {
            Arc::new(Folded {
                image: vec![tag; 100],
                fold: u64::from(tag) * 3,
            })
        };
        let mut cache = DecompCache::<Folded>::new(250);
        let keys: Vec<CacheKey> = (0..3).map(|i| CacheKey::of(1, &[i])).collect();
        cache.insert(keys[0], folded(1));
        cache.insert(keys[1], folded(2));
        assert_eq!(cache.used(), 200, "the fold costs no budget");
        assert_eq!(cache.get(&keys[1]).map(|v| v.fold), Some(6));
        cache.insert(keys[2], folded(3));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&keys[0]).is_none(), "LRU entry was evicted");
        assert_eq!(cache.used(), 200);
    }
}
