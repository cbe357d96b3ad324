//! The fleet's one LRU: a chip's working set of decompressed images.
//!
//! A chip keeps the images it decompressed under a byte budget, and the
//! router models that working set to send each request where its image
//! already is. Both run this [`Lru`], keyed by [`BitstreamId`]: the
//! router holds an `Lru<()>` per chip, and [`crate::chip::simulate_chip`]
//! an `Lru<u64>` of image folds. Each entry is charged its decompressed
//! image's bytes, whatever its value weighs, so the two agree on every
//! admission and every victim by construction.
//!
//! The victim is the entry least recently touched by [`Lru::get`] or
//! [`Lru::insert`]. A working set holds a handful of images, so a linear
//! scan finds it faster than an intrusive list would.

use uparc_serve::request::BitstreamId;

#[derive(Debug)]
struct Entry<V> {
    id: BitstreamId,
    bytes: usize,
    last_used: u64,
    value: V,
}

/// A byte-budgeted least-recently-used set of images (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Lru<V> {
    budget: usize,
    used: usize,
    tick: u64,
    entries: Vec<Entry<V>>,
}

impl<V> Lru<V> {
    /// An empty set holding at most `budget` bytes; a zero budget admits
    /// nothing.
    pub(crate) fn new(budget: usize) -> Self {
        Lru {
            budget,
            used: 0,
            tick: 0,
            entries: Vec::new(),
        }
    }

    /// The value held for `id`, marking it most recently used; `None` if
    /// `id` is not held.
    pub(crate) fn get(&mut self, id: BitstreamId) -> Option<&V> {
        self.tick += 1;
        let entry = self.entries.iter_mut().find(|e| e.id == id)?;
        entry.last_used = self.tick;
        Some(&entry.value)
    }

    /// Admits `id`, an image of `bytes` decompressed bytes, as the most
    /// recently used entry. Least-recently-used entries are evicted until
    /// it fits, and `on_evict` hears each victim's id once. An image
    /// larger than the whole budget is refused without evicting anything.
    /// Returns whether `id` was admitted. The caller inserts only an `id`
    /// that [`Lru::get`] just missed.
    pub(crate) fn insert(
        &mut self,
        id: BitstreamId,
        bytes: usize,
        value: V,
        mut on_evict: impl FnMut(BitstreamId),
    ) -> bool {
        if self.budget == 0 || bytes > self.budget {
            return false;
        }
        debug_assert!(self.entries.iter().all(|e| e.id != id), "{id:?} is held");
        self.tick += 1;
        while self.used + bytes > self.budget {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].last_used)
                .expect("over budget implies a held entry");
            let gone = self.entries.swap_remove(lru);
            self.used -= gone.bytes;
            on_evict(gone.id);
        }
        self.used += bytes;
        self.entries.push(Entry {
            id,
            bytes,
            last_used: self.tick,
            value,
        });
        true
    }

    /// Forgets every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_sim::rng::Xoshiro256;

    fn id(n: u32) -> BitstreamId {
        BitstreamId(n)
    }

    /// Inserts `n`, expecting admission, and returns the victims.
    fn admit(lru: &mut Lru<u64>, n: u32, bytes: usize) -> Vec<BitstreamId> {
        let mut victims = Vec::new();
        assert!(lru.insert(id(n), bytes, u64::from(n) * 3, |v| victims.push(v)));
        victims
    }

    #[test]
    fn a_held_image_hits_with_its_value() {
        let mut lru = Lru::new(1024);
        assert_eq!(lru.get(id(1)), None);
        assert!(admit(&mut lru, 1, 100).is_empty());
        assert_eq!(lru.get(id(1)), Some(&3));
        assert_eq!(lru.get(id(2)), None);
    }

    #[test]
    fn recency_picks_the_victim() {
        let mut lru = Lru::new(250);
        admit(&mut lru, 0, 100);
        admit(&mut lru, 1, 100);
        // Touch 0 so 1 becomes the least recently used.
        assert!(lru.get(id(0)).is_some());
        assert_eq!(admit(&mut lru, 2, 100), [id(1)]);
        assert_eq!(lru.entries.len(), 2);
        assert_eq!(lru.used, 200);
        assert!(lru.get(id(0)).is_some(), "the touched entry survives");
        assert!(lru.get(id(1)).is_none(), "the LRU entry was evicted");
        assert!(lru.get(id(2)).is_some());
    }

    #[test]
    fn over_budget_images_and_a_zero_budget_admit_nothing() {
        let mut lru = Lru::new(50);
        admit(&mut lru, 1, 30);
        let mut victims = Vec::new();
        assert!(!lru.insert(id(2), 51, 0, |v| victims.push(v)));
        assert!(victims.is_empty(), "a refused image evicts nothing");
        assert!(lru.get(id(2)).is_none());
        assert!(lru.get(id(1)).is_some());

        let mut disabled = Lru::new(0);
        for bytes in [0, 1, 100] {
            assert!(!disabled.insert(id(9), bytes, (), |_| unreachable!()));
            assert!(disabled.get(id(9)).is_none());
        }
        assert!(disabled.entries.is_empty());
        assert_eq!(disabled.used, 0);
    }

    #[test]
    fn entries_are_charged_their_image_bytes_not_their_value() {
        let mut lru = Lru::new(250);
        admit(&mut lru, 1, 100);
        admit(&mut lru, 2, 100);
        assert_eq!(lru.used, 200, "the fold costs no budget");
        assert_eq!(lru.get(id(2)), Some(&6));
        assert_eq!(admit(&mut lru, 3, 100), [id(1)]);
        assert_eq!(lru.used, 200);
        lru.clear();
        assert_eq!(lru.used, 0);
        assert!(lru.get(id(2)).is_none());
    }

    /// Seeded random traffic against a recency-ordered reference: the
    /// same hits, the same victims in the same order, each reported once,
    /// and `used` always the held bytes, never past the budget.
    #[test]
    fn random_traffic_matches_a_recency_list() {
        for seed in 0..24u64 {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let budget = rng.below(4_000) as usize;
            let mut lru = Lru::new(budget);
            // (id, bytes), least recently used first.
            let mut model: Vec<(u32, usize)> = Vec::new();
            let mut ever_evicted = 0usize;
            for _ in 0..2_000 {
                let n = rng.below(32) as u32;
                // An image's size is a function of its id.
                let bytes = 200 + (n as usize * 37) % 700;
                let hit = lru.get(id(n)).copied();
                match model.iter().position(|&(m, _)| m == n) {
                    Some(pos) => {
                        assert_eq!(hit, Some(u64::from(n)), "seed {seed}");
                        let e = model.remove(pos);
                        model.push(e);
                    }
                    None => {
                        assert_eq!(hit, None, "seed {seed}");
                        let mut victims = Vec::new();
                        let admitted = lru.insert(id(n), bytes, u64::from(n), |v| victims.push(v));
                        let mut expected = Vec::new();
                        if bytes <= budget {
                            while model.iter().map(|e| e.1).sum::<usize>() + bytes > budget {
                                expected.push(id(model.remove(0).0));
                            }
                            model.push((n, bytes));
                        }
                        assert_eq!(admitted, bytes <= budget, "seed {seed}");
                        assert_eq!(victims, expected, "seed {seed}");
                        ever_evicted += victims.len();
                    }
                }
                let held: usize = model.iter().map(|e| e.1).sum();
                assert_eq!(lru.used, held, "seed {seed}");
                assert!(lru.used <= budget, "seed {seed}");
                assert_eq!(lru.entries.len(), model.len(), "seed {seed}");
            }
            if budget >= 900 {
                assert!(ever_evicted > 0, "seed {seed}: no eviction exercised");
            }
        }
    }
}
