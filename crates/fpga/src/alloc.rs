//! Free-interval allocation over a device's frame address space.
//!
//! [`FrameAllocator`] is the one model of a reconfigurable region's frame
//! window. A static region map claims each declared window exactly
//! ([`FrameAllocator::alloc_at`]), so the allocator's typed checks reject
//! empty, out-of-device and overlapping regions and its sorted live list
//! is the region lookup. Under tenant churn the controller instead treats
//! the reconfigurable frame range as a heap and places each image
//! wherever a window is free: a sorted free-interval list with
//! first-fit/best-fit policies, split on allocation, coalescing on free,
//! and the fragmentation metrics (free-block histogram,
//! largest-free/total-free ratio) a background defragmenter steers by.
//!
//! Frame windows are one-dimensional `Range<u32>` intervals — the FAR is
//! linear in (row, major, minor), so a contiguous FAR window is exactly
//! what one relocatable type-1/2 bitstream configures.

use crate::device::Device;
use std::ops::Range;

/// How [`FrameAllocator::alloc`] picks among candidate free blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FitPolicy {
    /// The lowest-addressed free block that fits. Cheapest decision; tends
    /// to keep high addresses clear but splinters the low range.
    #[default]
    FirstFit,
    /// The smallest free block that fits (ties to the lowest address).
    /// Preserves large blocks for large tenants at the cost of leaving
    /// many tiny slivers.
    BestFit,
}

impl FitPolicy {
    /// Stable lower-case label, used in reports and traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FitPolicy::FirstFit => "first_fit",
            FitPolicy::BestFit => "best_fit",
        }
    }
}

/// Why an allocator operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// No free block is large enough for the request.
    Exhausted {
        /// Contiguous frames requested.
        requested: u32,
        /// Largest contiguous free block available.
        largest_free: u32,
    },
    /// The requested window is (partly) outside the managed range.
    OutOfRange {
        /// The offending window.
        window: Range<u32>,
        /// Total frames managed.
        frames: u32,
    },
    /// The requested window is (partly) already allocated, or a free was
    /// asked for frames that are not live.
    Conflict {
        /// The offending window.
        window: Range<u32>,
    },
    /// A zero-length window was requested.
    Empty,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Exhausted {
                requested,
                largest_free,
            } => write!(
                f,
                "no free block of {requested} frames (largest free: {largest_free})"
            ),
            AllocError::OutOfRange { window, frames } => write!(
                f,
                "window {}..{} outside managed range of {frames} frames",
                window.start, window.end
            ),
            AllocError::Conflict { window } => {
                write!(
                    f,
                    "window {}..{} conflicts with live state",
                    window.start, window.end
                )
            }
            AllocError::Empty => write!(f, "zero-frame window"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Snapshot of the allocator's fragmentation state.
///
/// `histogram[k]` counts free blocks whose size `s` satisfies
/// `2^k <= s < 2^(k+1)` (bucket 31 also absorbs anything larger).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragStats {
    /// Sum of all free block sizes, frames.
    pub total_free: u32,
    /// Largest single free block, frames.
    pub largest_free: u32,
    /// Number of free blocks.
    pub free_blocks: u32,
    /// Log₂-bucketed free-block size histogram.
    pub histogram: [u32; 32],
}

impl FragStats {
    /// Largest-free/total-free ratio in `[0, 1]` — 1.0 means all free
    /// capacity is one contiguous block (no fragmentation), values near
    /// 0 mean the free space is shattered. An empty free list reports
    /// 1.0 (nothing to fragment).
    #[must_use]
    pub fn contiguity(&self) -> f64 {
        if self.total_free == 0 {
            1.0
        } else {
            f64::from(self.largest_free) / f64::from(self.total_free)
        }
    }
}

/// A free-interval allocator over `0..frames`.
///
/// Invariants (checked by [`FrameAllocator::check_invariants`], relied on
/// by every query): the free list is sorted by start, intervals are
/// non-empty, pairwise disjoint, and never adjacent (coalescing is eager),
/// and the free list and the live-allocation list exactly tile the
/// managed range together with reserved windows.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    frames: u32,
    // Sorted, disjoint, non-adjacent free intervals.
    free: Vec<Range<u32>>,
    // Sorted, disjoint live allocations (start → end).
    live: Vec<Range<u32>>,
    // Windows carved out for static logic; never returned by alloc.
    reserved: Vec<Range<u32>>,
}

impl FrameAllocator {
    /// An allocator over `0..frames`, all free.
    #[must_use]
    pub fn new(frames: u32) -> Self {
        let mut free = Vec::new();
        if frames > 0 {
            free.push(0..frames);
        }
        FrameAllocator {
            frames,
            free,
            live: Vec::new(),
            reserved: Vec::new(),
        }
    }

    /// An allocator over the whole frame space of `device`.
    #[must_use]
    pub fn for_device(device: &Device) -> Self {
        FrameAllocator::new(device.frames())
    }

    /// Total frames managed (free + live + reserved).
    #[must_use]
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Carves `window` out for static logic: the frames leave the free
    /// list permanently and are never handed to tenants.
    ///
    /// # Errors
    ///
    /// [`AllocError::Empty`], [`AllocError::OutOfRange`], or
    /// [`AllocError::Conflict`] if the window is not currently free.
    pub fn reserve(&mut self, window: Range<u32>) -> Result<(), AllocError> {
        self.carve(window.clone())?;
        let pos = self.reserved.partition_point(|r| r.start < window.start);
        self.reserved.insert(pos, window);
        Ok(())
    }

    /// Allocates `len` contiguous frames under `policy`.
    ///
    /// # Errors
    ///
    /// [`AllocError::Empty`] for `len == 0`;
    /// [`AllocError::Exhausted`] when no free block is large enough
    /// (carrying `largest_free` so admission layers can report how far
    /// off the request was).
    pub fn alloc(&mut self, len: u32, policy: FitPolicy) -> Result<Range<u32>, AllocError> {
        if len == 0 {
            return Err(AllocError::Empty);
        }
        let candidate = match policy {
            FitPolicy::FirstFit => self.free.iter().position(|b| b.end - b.start >= len),
            FitPolicy::BestFit => self
                .free
                .iter()
                .enumerate()
                .filter(|(_, b)| b.end - b.start >= len)
                .min_by_key(|(_, b)| b.end - b.start)
                .map(|(i, _)| i),
        };
        let Some(i) = candidate else {
            return Err(AllocError::Exhausted {
                requested: len,
                largest_free: self.largest_free(),
            });
        };
        let start = self.free[i].start;
        let window = start..start + len;
        if self.free[i].end - self.free[i].start == len {
            self.free.remove(i);
        } else {
            self.free[i].start += len;
        }
        let pos = self.live.partition_point(|r| r.start < start);
        self.live.insert(pos, window.clone());
        Ok(window)
    }

    /// Allocates exactly `window` (a targeted placement — the
    /// defragmenter uses this to claim a compaction destination).
    ///
    /// # Errors
    ///
    /// [`AllocError::Empty`], [`AllocError::OutOfRange`], or
    /// [`AllocError::Conflict`] if the window is not entirely free.
    pub fn alloc_at(&mut self, window: Range<u32>) -> Result<(), AllocError> {
        self.carve(window.clone())?;
        let pos = self.live.partition_point(|r| r.start < window.start);
        self.live.insert(pos, window);
        Ok(())
    }

    /// Frees a live window previously returned by [`FrameAllocator::alloc`]
    /// or claimed via [`FrameAllocator::alloc_at`], coalescing with free
    /// neighbours.
    ///
    /// # Errors
    ///
    /// [`AllocError::Conflict`] if `window` is not exactly one live
    /// allocation.
    pub fn free(&mut self, window: Range<u32>) -> Result<(), AllocError> {
        let pos = self
            .live
            .binary_search_by_key(&window.start, |r| r.start)
            .map_err(|_| AllocError::Conflict {
                window: window.clone(),
            })?;
        if self.live[pos] != window {
            return Err(AllocError::Conflict { window });
        }
        self.live.remove(pos);

        // Insert into the free list, merging with adjacent blocks.
        let mut merged = window;
        let pos = self.free.partition_point(|b| b.start < merged.start);
        if pos < self.free.len() && self.free[pos].start == merged.end {
            merged.end = self.free[pos].end;
            self.free.remove(pos);
        }
        if pos > 0 && self.free[pos - 1].end == merged.start {
            merged.start = self.free[pos - 1].start;
            self.free[pos - 1] = merged;
        } else {
            self.free.insert(pos, merged);
        }
        Ok(())
    }

    /// The live allocations, sorted by start.
    #[must_use]
    pub fn live(&self) -> &[Range<u32>] {
        &self.live
    }

    /// The free blocks, sorted by start.
    #[must_use]
    pub fn free_blocks(&self) -> &[Range<u32>] {
        &self.free
    }

    /// Sum of all free block sizes, frames.
    #[must_use]
    pub fn total_free(&self) -> u32 {
        self.free.iter().map(|b| b.end - b.start).sum()
    }

    /// Largest single free block, frames (0 when nothing is free).
    #[must_use]
    pub fn largest_free(&self) -> u32 {
        self.free.iter().map(|b| b.end - b.start).max().unwrap_or(0)
    }

    /// Snapshot of the fragmentation state.
    #[must_use]
    pub fn frag_stats(&self) -> FragStats {
        let mut histogram = [0u32; 32];
        for b in &self.free {
            let size = b.end - b.start;
            let bucket = (31 - u32::leading_zeros(size.max(1))).min(31) as usize;
            histogram[bucket] += 1;
        }
        FragStats {
            total_free: self.total_free(),
            largest_free: self.largest_free(),
            free_blocks: self.free.len() as u32,
            histogram,
        }
    }

    /// Verifies the structural invariants: free/live/reserved lists are
    /// sorted, non-empty, pairwise disjoint across all three, the free
    /// list is fully coalesced, and the three lists tile `0..frames`
    /// exactly. Returns a description of the first violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut all: Vec<(Range<u32>, &str)> = Vec::new();
        all.extend(self.free.iter().map(|r| (r.clone(), "free")));
        all.extend(self.live.iter().map(|r| (r.clone(), "live")));
        all.extend(self.reserved.iter().map(|r| (r.clone(), "reserved")));
        all.sort_by_key(|(r, _)| r.start);
        let mut cursor = 0u32;
        for (r, tag) in &all {
            if r.is_empty() {
                return Err(format!("empty {tag} interval at {}", r.start));
            }
            if r.start < cursor {
                return Err(format!(
                    "{tag} interval {}..{} overlaps previous (cursor {cursor})",
                    r.start, r.end
                ));
            }
            if r.start > cursor {
                return Err(format!("hole {cursor}..{} not in any list", r.start));
            }
            cursor = r.end;
        }
        if cursor != self.frames {
            return Err(format!("tiling ends at {cursor}, expected {}", self.frames));
        }
        for w in self.free.windows(2) {
            if w[0].end == w[1].start {
                return Err(format!(
                    "free blocks {}..{} and {}..{} not coalesced",
                    w[0].start, w[0].end, w[1].start, w[1].end
                ));
            }
        }
        Ok(())
    }

    /// Removes `window` from the free list (it must be entirely inside
    /// one free block), splitting the block as needed.
    fn carve(&mut self, window: Range<u32>) -> Result<(), AllocError> {
        if window.is_empty() {
            return Err(AllocError::Empty);
        }
        if window.end > self.frames {
            return Err(AllocError::OutOfRange {
                window,
                frames: self.frames,
            });
        }
        let pos = self
            .free
            .partition_point(|b| b.start <= window.start)
            .checked_sub(1)
            .ok_or(AllocError::Conflict {
                window: window.clone(),
            })?;
        let block = self.free[pos].clone();
        if window.start < block.start || window.end > block.end {
            return Err(AllocError::Conflict { window });
        }
        match (window.start == block.start, window.end == block.end) {
            (true, true) => {
                self.free.remove(pos);
            }
            (true, false) => self.free[pos].start = window.end,
            (false, true) => self.free[pos].end = window.start,
            (false, false) => {
                self.free[pos].end = window.start;
                self.free.insert(pos + 1, window.end..block.end);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_takes_lowest_best_fit_takes_tightest() {
        let mut a = FrameAllocator::new(100);
        // Carve 0..100 into free blocks 10..20 (size 10) and 40..100
        // (size 60) by allocating and freeing around them.
        let w0 = a.alloc(10, FitPolicy::FirstFit).unwrap(); // 0..10
        let _hole = a.alloc(10, FitPolicy::FirstFit).unwrap(); // 10..20
        let w2 = a.alloc(20, FitPolicy::FirstFit).unwrap(); // 20..40
        a.free(w0.clone()).unwrap();
        a.free(_hole).unwrap();
        a.free(w0).unwrap_err(); // double free is a Conflict
        let mut first = a.clone();
        let mut best = a.clone();
        // Free blocks now: 0..20, 40..100. A 5-frame request:
        assert_eq!(first.alloc(5, FitPolicy::FirstFit).unwrap(), 0..5);
        assert_eq!(best.alloc(5, FitPolicy::BestFit).unwrap(), 0..5);
        // A 15-frame request: first-fit still takes 0..20, best-fit too
        // (20 is tighter than 60); a 25-frame request must take 40..100.
        assert_eq!(first.alloc(25, FitPolicy::FirstFit).unwrap(), 40..65);
        let _ = w2;
        a.check_invariants().unwrap();
    }

    #[test]
    fn best_fit_prefers_tightest_block() {
        let mut a = FrameAllocator::new(100);
        let w0 = a.alloc(30, FitPolicy::FirstFit).unwrap(); // 0..30
        let _keep = a.alloc(10, FitPolicy::FirstFit).unwrap(); // 30..40
        let w2 = a.alloc(12, FitPolicy::FirstFit).unwrap(); // 40..52
        let _keep2 = a.alloc(10, FitPolicy::FirstFit).unwrap(); // 52..62
        a.free(w0).unwrap(); // free: 0..30
        a.free(w2).unwrap(); // free: 0..30, 40..52, 62..100
                             // Best fit for 12 frames is the exact 40..52 block.
        assert_eq!(a.alloc(12, FitPolicy::BestFit).unwrap(), 40..52);
        // First fit would have taken 0..12 instead.
        a.check_invariants().unwrap();
    }

    #[test]
    fn free_coalesces_in_both_directions() {
        let mut a = FrameAllocator::new(60);
        let w: Vec<_> = (0..3)
            .map(|_| a.alloc(20, FitPolicy::FirstFit).unwrap())
            .collect();
        assert_eq!(a.total_free(), 0);
        a.free(w[0].clone()).unwrap();
        a.free(w[2].clone()).unwrap();
        assert_eq!(a.free_blocks().len(), 2);
        // Freeing the middle merges all three into one block.
        a.free(w[1].clone()).unwrap();
        assert_eq!(a.free_blocks(), std::slice::from_ref(&(0..60)));
        assert_eq!(a.largest_free(), 60);
        a.check_invariants().unwrap();
    }

    #[test]
    fn exhaustion_reports_largest_free() {
        let mut a = FrameAllocator::new(50);
        let w0 = a.alloc(20, FitPolicy::FirstFit).unwrap();
        let _w1 = a.alloc(20, FitPolicy::FirstFit).unwrap();
        a.free(w0).unwrap();
        // Free: 0..20 and 40..50 — a 25-frame request cannot fit.
        assert_eq!(
            a.alloc(25, FitPolicy::FirstFit),
            Err(AllocError::Exhausted {
                requested: 25,
                largest_free: 20
            })
        );
        assert_eq!(a.alloc(0, FitPolicy::FirstFit), Err(AllocError::Empty));
    }

    #[test]
    fn reserve_carves_static_windows_out() {
        let mut a = FrameAllocator::new(100);
        a.reserve(40..60).unwrap();
        a.check_invariants().unwrap();
        // Reserved frames never come back.
        let got = a.alloc(40, FitPolicy::FirstFit).unwrap();
        assert_eq!(got, 0..40);
        assert_eq!(
            a.alloc(41, FitPolicy::FirstFit).unwrap_err(),
            AllocError::Exhausted {
                requested: 41,
                largest_free: 40
            }
        );
        // Double reservation conflicts; out-of-range rejected.
        assert!(matches!(
            a.reserve(50..55),
            Err(AllocError::Conflict { .. })
        ));
        assert!(matches!(
            a.reserve(90..120),
            Err(AllocError::OutOfRange { .. })
        ));
    }

    #[test]
    fn alloc_at_claims_exact_windows() {
        let mut a = FrameAllocator::new(100);
        a.alloc_at(10..30).unwrap();
        a.check_invariants().unwrap();
        assert!(matches!(
            a.alloc_at(20..40),
            Err(AllocError::Conflict { .. })
        ));
        a.alloc_at(30..40).unwrap();
        a.free(10..30).unwrap();
        a.free(30..40).unwrap();
        assert_eq!(a.free_blocks(), std::slice::from_ref(&(0..100)));
        a.check_invariants().unwrap();
    }

    #[test]
    fn frag_stats_histogram_buckets_by_log2() {
        let mut a = FrameAllocator::new(100);
        let w0 = a.alloc(1, FitPolicy::FirstFit).unwrap(); // 0..1
        let _k0 = a.alloc(1, FitPolicy::FirstFit).unwrap();
        let w2 = a.alloc(6, FitPolicy::FirstFit).unwrap(); // 2..8
        let _k1 = a.alloc(1, FitPolicy::FirstFit).unwrap();
        a.free(w0).unwrap();
        a.free(w2).unwrap();
        let s = a.frag_stats();
        // Free blocks: 0..1 (size 1, bucket 0), 2..8 (size 6, bucket 2),
        // 9..100 (size 91, bucket 6).
        assert_eq!(s.free_blocks, 3);
        assert_eq!(s.histogram[0], 1);
        assert_eq!(s.histogram[2], 1);
        assert_eq!(s.histogram[6], 1);
        assert_eq!(s.total_free, 98);
        assert_eq!(s.largest_free, 91);
        let c = s.contiguity();
        assert!((c - 91.0 / 98.0).abs() < 1e-12);
        assert!((FrameAllocator::new(0).frag_stats().contiguity() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn error_display_and_device_constructor() {
        let a = FrameAllocator::for_device(&Device::xc5vsx50t());
        assert_eq!(a.frames(), 15312);
        assert!(AllocError::Exhausted {
            requested: 9,
            largest_free: 3
        }
        .to_string()
        .contains("largest free: 3"));
        assert!(AllocError::Empty.to_string().contains("zero-frame"));
    }
}
