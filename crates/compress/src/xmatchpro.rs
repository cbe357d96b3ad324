//! X-MatchPRO — the dictionary codec UPaRC implements in hardware.
//!
//! X-MatchPRO (Núñez & Jones \[12\]) compresses 32-bit *tuples* against a
//! small content-addressable dictionary with a move-to-front replacement
//! policy. A tuple can match a dictionary entry fully or *partially* (at
//! least two of its four bytes); unmatched bytes travel as literals, and
//! runs of consecutive full matches at the front position are run-length
//! coded. The tuple-per-cycle structure is what makes the algorithm
//! implementable at >1 GB/s in hardware (§IV: the UPaRC decompressor does
//! 2 words/cycle at 126 MHz).
//!
//! Model fidelity: dictionary size, ≥2-byte partial matching, move-to-front
//! and full-match run-length coding follow the paper; the match-type prefix
//! code is a fixed-width simplification of the original's phased-binary/
//! static-Huffman fields, documented in DESIGN.md.
//!
//! Stream format: `u32-LE original length`, then per-tuple tokens:
//! * miss: `0 | 32-bit tuple`
//! * full match: `1 | location (4 bits) | 1 | run count (8 bits)`
//! * partial match: `1 | location (4 bits) | 0 | mask index (4 bits) |
//!   unmatched literal bytes`
//!
//! Dictionaries: only the encoder searches the CAM; the decoder reads the
//! position each token names. At the paper's depths (≤ 16 entries) the
//! move-to-front state is `MtfSlots` — stationary slots under a
//! nibble-packed order — and the encoder's `SmallDict` keeps its
//! byte-presence search tables on top of those slots, while the decoder
//! holds the bare slots. Deeper CAMs (32–128) use one `LargeDict` on both
//! sides. Encoder and decoder are one loop each, generic over their
//! dictionary and monomorphised by one branch on the depth. The decoder
//! cuts each token from one 64-bit window ([`BitReader::peek_u64`]) and
//! writes whole tuples into an output sized once per call, so it
//! allocates nothing but its output.

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CodecError};

/// Default dictionary entries (the hardware CAM depth the paper's
/// decompressor uses).
pub const DICT_SIZE: usize = 16;

/// Byte-match masks with ≥2 matching bytes, miss and full excluded, in a
/// fixed order shared by encoder and decoder.
const PARTIAL_MASKS: [u8; 10] = [
    0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100, // two bytes
    0b0111, 0b1011, 0b1101, 0b1110, // three bytes
];

/// Inverse of [`PARTIAL_MASKS`]: mask value → index (0xFF for masks with
/// fewer than two or all four bits set, which never reach the lookup).
const PARTIAL_MASK_INDEX: [u8; 16] = [
    0xFF, 0xFF, 0xFF, 0, 0xFF, 1, 2, 6, 0xFF, 3, 4, 7, 5, 8, 9, 0xFF,
];

/// X-MatchPRO codec with a configurable CAM dictionary depth.
#[derive(Debug, Clone, Copy)]
pub struct XMatchPro {
    dict_size: usize,
    loc_bits: u32,
}

impl Default for XMatchPro {
    fn default() -> Self {
        Self::new()
    }
}

impl XMatchPro {
    /// The paper's configuration: a 16-entry dictionary.
    #[must_use]
    pub fn new() -> Self {
        XMatchPro::with_dictionary(DICT_SIZE)
    }

    /// A custom CAM depth — Núñez & Jones explored 4..64 entries; deeper
    /// CAMs catch more matches at the cost of area and wider location
    /// fields.
    ///
    /// # Panics
    ///
    /// Panics unless `dict_size` is a power of two in `2..=128`.
    #[must_use]
    pub fn with_dictionary(dict_size: usize) -> Self {
        assert!(
            dict_size.is_power_of_two() && (2..=128).contains(&dict_size),
            "dictionary must be a power of two in 2..=128"
        );
        XMatchPro {
            dict_size,
            loc_bits: dict_size.trailing_zeros(),
        }
    }

    /// Reference encoder: the original token-at-a-time loop with
    /// per-field bit writes. Exists to pin the fused-write fast path in
    /// [`Codec::compress`] byte-for-byte (see the tests below).
    #[cfg(test)]
    fn compress_reference(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 8);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        let mut w = BitWriter::with_capacity(input.len() / 2);
        let mut dict = RefDict::new(self.dict_size);
        let total = input.len().div_ceil(4);
        let mut i = 0usize;
        while i < total {
            let tuple = tuple_at(input, i);
            match dict.best_match(tuple) {
                Some((loc, 0b1111)) => {
                    w.write_bit(true);
                    w.write_bits(loc as u32, self.loc_bits);
                    w.write_bit(true); // full
                                       // Run-length of consecutive identical tuples.
                    let mut run = 0u32;
                    while run < 255
                        && i + 1 + (run as usize) < total
                        && tuple_at(input, i + 1 + run as usize) == tuple
                    {
                        run += 1;
                    }
                    w.write_bits(run, 8);
                    dict.promote(Some(loc), tuple);
                    i += 1 + run as usize;
                    continue;
                }
                Some((loc, mask)) => {
                    w.write_bit(true);
                    w.write_bits(loc as u32, self.loc_bits);
                    w.write_bit(false); // partial
                    let mask_idx = PARTIAL_MASKS
                        .iter()
                        .position(|&m| m == mask)
                        .expect("mask with 2-3 bytes is in the table");
                    w.write_bits(mask_idx as u32, 4);
                    for (k, &byte) in tuple.to_le_bytes().iter().enumerate() {
                        if mask & (1 << k) == 0 {
                            w.write_bits(u32::from(byte), 8);
                        }
                    }
                    dict.promote(Some(loc), tuple);
                }
                None => {
                    w.write_bit(false);
                    w.write_bits(tuple, 32);
                    dict.promote(None, tuple);
                }
            }
            i += 1;
        }
        out.extend_from_slice(&w.finish());
        out
    }

    /// Reference decoder: the original field-at-a-time loop with byte-wise
    /// run replication. Exists to pin the batched fast path in
    /// [`Codec::decompress`] (see the tests below); returns exactly the
    /// errors of [`Codec::decompress`], at the same tokens.
    #[cfg(test)]
    fn decompress_reference(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let n = u32::from_le_bytes(input[0..4].try_into().expect("4 bytes")) as usize;
        let total_tuples = n.div_ceil(4);
        let mut r = BitReader::new(&input[4..]);
        let mut dict = RefDict::new(self.dict_size);
        let mut out = Vec::with_capacity(total_tuples * 4);
        let mut produced = 0usize;
        while produced < total_tuples {
            if r.read_bit()? {
                let loc = r.read_bits(self.loc_bits)? as usize;
                if loc >= self.dict_size {
                    return Err(CodecError::corrupt("dictionary location out of range"));
                }
                if r.read_bit()? {
                    // Full match + run.
                    let run = r.read_bits(8)? as usize;
                    let tuple = dict.at(loc);
                    if produced + 1 + run > total_tuples {
                        return Err(CodecError::corrupt("run overruns output"));
                    }
                    for _ in 0..=run {
                        out.extend_from_slice(&tuple.to_le_bytes());
                    }
                    dict.promote(Some(loc), tuple);
                    produced += 1 + run;
                } else {
                    let mask_idx = r.read_bits(4)? as usize;
                    let mask = *PARTIAL_MASKS
                        .get(mask_idx)
                        .ok_or_else(|| CodecError::corrupt("bad mask index"))?;
                    let mut bytes = dict.at(loc).to_le_bytes();
                    for (k, byte) in bytes.iter_mut().enumerate() {
                        if mask & (1 << k) == 0 {
                            *byte = r.read_bits(8)? as u8;
                        }
                    }
                    out.extend_from_slice(&bytes);
                    let tuple = u32::from_le_bytes(bytes);
                    dict.promote(Some(loc), tuple);
                    produced += 1;
                }
            } else {
                let tuple = r.read_bits(32)?;
                out.extend_from_slice(&tuple.to_le_bytes());
                dict.promote(None, tuple);
                produced += 1;
            }
        }
        out.truncate(n);
        Ok(out)
    }
}

/// Deepest CAM the nibble-packed [`MtfSlots`] hold; deeper dictionaries
/// use [`LargeDict`].
const MAX_SLOTS: usize = 16;

/// Most bytes one token writes: a full match plus a 255-tuple run.
const MAX_TOKEN_BYTES: usize = 256 * 4;

/// The move-to-front view both codec loops need: read a logical
/// position, promote one. The decoder is generic over it (over
/// [`MtfSlots`] or [`LargeDict`]), the encoder over [`Cam`], so each
/// representation gets its own monomorphised loop.
trait Mtf {
    /// An all-zero dictionary of `size` entries.
    fn new(size: usize) -> Self;

    /// The entry at logical MTF position `loc`.
    fn at(&self, loc: usize) -> u32;

    /// Move-to-front update: removes `from` (if `Some`) or the LRU entry,
    /// then inserts `tuple` at the front.
    fn promote(&mut self, from: Option<usize>, tuple: u32);
}

/// The CAM the encoder searches: an [`Mtf`] dictionary that also finds
/// its best match. The encoder is generic over it ([`SmallDict`] at the
/// paper's depths, [`LargeDict`] beyond), and all of them are pinned
/// against the byte-at-a-time [`RefDict`].
trait Cam: Mtf {
    /// Best match: returns `(location, mask)` with the most matching
    /// bytes (ties: lowest location). `None` if no entry matches ≥2
    /// bytes.
    fn best_match(&self, tuple: u32) -> Option<(usize, u8)>;
}

/// MTF dictionary of at most 16 entries (the paper's depth), organised
/// for the software hot path rather than as a literal shifting register
/// file.
///
/// A naive MTF dictionary shifts every entry on every promote, and the
/// next read immediately reloads what those scalar stores just wrote — a
/// store-forwarding stall per token. Here entries live in *stationary
/// physical slots* and only the MTF *order* moves, packed as a nibble
/// permutation in one `u64` (logical position `j` at bits `4j..4j+4`), so
/// a promote is a handful of register shifts and at most one store.
///
/// This is all the decoder holds at these depths; the encoder's
/// [`SmallDict`] keeps its match-search tables on top of it.
#[derive(Debug, Clone)]
struct MtfSlots {
    /// Tuple payload per physical slot; slots never move.
    entries: [u32; MAX_SLOTS],
    /// Nibble `j` = physical slot of logical MTF position `j`.
    order: u64,
    size: usize,
}

impl MtfSlots {
    /// The physical slot of logical position `loc`.
    #[inline]
    fn slot(&self, loc: usize) -> usize {
        debug_assert!(loc < self.size);
        ((self.order >> (4 * loc)) & 0xF) as usize
    }

    /// Rotates logical positions `0..=i` one lane up and puts physical
    /// slot `p` (the one at position `i`) in front.
    #[inline]
    fn rotate_to_front(&mut self, i: usize, p: usize) {
        let low = (1u64 << (4 * i)) - 1;
        let lane = 0xFu64 << (4 * i);
        self.order = (self.order & !(low | lane)) | ((self.order & low) << 4) | p as u64;
    }
}

impl Mtf for MtfSlots {
    fn new(size: usize) -> Self {
        debug_assert!((2..=MAX_SLOTS).contains(&size) && size.is_power_of_two());
        MtfSlots {
            entries: [0; MAX_SLOTS],
            order: 0xFEDC_BA98_7654_3210 & (u64::MAX >> (64 - 4 * size)),
            size,
        }
    }

    #[inline]
    fn at(&self, loc: usize) -> u32 {
        self.entries[self.slot(loc)]
    }

    /// MTF always installs the *incoming* tuple at the front: a full
    /// match re-inserts the identical value (no state change beyond the
    /// rotation), a partial match overwrites the matched entry and a miss
    /// replaces the LRU entry.
    #[inline]
    fn promote(&mut self, from: Option<usize>, tuple: u32) {
        let i = from.unwrap_or(self.size - 1);
        let p = self.slot(i);
        self.entries[p] = tuple;
        self.rotate_to_front(i, p);
    }
}

/// The encoder's CAM of at most 16 entries: [`MtfSlots`] plus the tables
/// that turn its best-match search into a few lookups instead of a scan.
///
/// `presence[k][b]` is a bitmap over physical slots whose byte `k` equals
/// `b`. Four loads plus boolean algebra over the four bitmaps yield the
/// candidate sets with ≥4, ≥3 and ≥2 matching bytes — the software
/// analogue of the per-byte comparators the hardware CAM evaluates in
/// parallel. The tables change only when a promote rewrites a slot's
/// payload (8 table edits); rotations never touch them.
///
/// Only the encoder searches, so only the encoder pays for the 2 KB
/// tables and their upkeep; the decoder holds the bare slots.
#[derive(Debug, Clone)]
struct SmallDict {
    slots: MtfSlots,
    /// `presence[k][b]`: physical slots whose byte `k` equals `b`.
    presence: Box<[[u16; 256]; 4]>,
}

impl Mtf for SmallDict {
    fn new(size: usize) -> Self {
        let mut presence = Box::new([[0u16; 256]; 4]);
        let full = if size == 16 {
            u16::MAX
        } else {
            (1u16 << size) - 1
        };
        for table in presence.iter_mut() {
            table[0] = full; // every slot starts as the zero tuple
        }
        SmallDict {
            slots: MtfSlots::new(size),
            presence,
        }
    }

    #[inline]
    fn at(&self, loc: usize) -> u32 {
        self.slots.at(loc)
    }

    /// As [`MtfSlots::promote`], but the slot and its table bits are
    /// rewritten only when the payload changes (never on a full match).
    #[inline]
    fn promote(&mut self, from: Option<usize>, tuple: u32) {
        let i = from.unwrap_or(self.slots.size - 1);
        let p = self.slots.slot(i);
        let old = self.slots.entries[p];
        if old != tuple {
            let bit = 1u16 << p;
            let old = old.to_le_bytes();
            let new = tuple.to_le_bytes();
            for k in 0..4 {
                self.presence[k][old[k] as usize] &= !bit;
                self.presence[k][new[k] as usize] |= bit;
            }
            self.slots.entries[p] = tuple;
        }
        self.slots.rotate_to_front(i, p);
    }
}

impl Cam for SmallDict {
    #[inline]
    fn best_match(&self, tuple: u32) -> Option<(usize, u8)> {
        let [b0, b1, b2, b3] = tuple.to_le_bytes();
        let m0 = self.presence[0][b0 as usize];
        let m1 = self.presence[1][b1 as usize];
        let m2 = self.presence[2][b2 as usize];
        let m3 = self.presence[3][b3 as usize];
        // Candidate slots by match count, from the pairwise structure:
        // ge4 = all four bytes, ge3 = any three, ge2 = any pair.
        let m01 = m0 & m1;
        let m23 = m2 & m3;
        let ge4 = m01 & m23;
        let cand = if ge4 != 0 {
            ge4
        } else {
            let ge3 = (m01 & (m2 | m3)) | (m23 & (m0 | m1));
            if ge3 != 0 {
                ge3
            } else {
                let ge2 = m01 | m23 | ((m0 | m1) & (m2 | m3));
                if ge2 == 0 {
                    return None;
                }
                ge2
            }
        };
        // Lowest *logical* position among the candidates: walk the MTF
        // order from the front. MTF locality keeps this walk short.
        let mut ord = self.slots.order;
        let mut loc = 0usize;
        let p = loop {
            let p = (ord & 0xF) as usize;
            if cand >> p & 1 == 1 {
                break p;
            }
            ord >>= 4;
            loc += 1;
            debug_assert!(loc < self.slots.size, "candidate bitmap names a live slot");
        };
        let mask = ((m0 >> p) & 1)
            | (((m1 >> p) & 1) << 1)
            | (((m2 >> p) & 1) << 2)
            | (((m3 >> p) & 1) << 3);
        Some((loc, mask as u8))
    }
}

/// CAM of 32–128 entries: a plain logical array with an auto-vectorised
/// SWAR scan. Depths beyond 16 exceed the `u16`/nibble packing of
/// [`MtfSlots`] and are off the paper's configuration, so they keep the
/// simpler shape — the same for encoder and decoder, and held inline so
/// neither allocates for it.
#[derive(Debug, Clone)]
struct LargeDict {
    entries: [u32; 128],
    size: usize,
}

impl Mtf for LargeDict {
    fn new(size: usize) -> Self {
        debug_assert!(size <= 128);
        LargeDict {
            entries: [0; 128],
            size,
        }
    }

    #[inline]
    fn at(&self, loc: usize) -> u32 {
        self.entries[loc]
    }

    /// The affected prefix is shifted one slot with a plain copy loop —
    /// equivalent to `remove` + `insert(0)`, and measurably faster than
    /// `rotate_right(1)` at CAM depths.
    #[inline]
    fn promote(&mut self, from: Option<usize>, tuple: u32) {
        let i = from.unwrap_or(self.size - 1);
        let prefix = &mut self.entries[..=i];
        for k in (1..prefix.len()).rev() {
            prefix[k] = prefix[k - 1];
        }
        prefix[0] = tuple;
    }
}

impl Cam for LargeDict {
    /// Branchless max-reduction: each entry contributes a key
    /// `(n << 8) | (255 - loc)` (zeroed when n < 2), so the running max
    /// picks the highest byte count and, among ties, the lowest
    /// location — the same entry the break-at-first-winner scan of the
    /// byte-wise reference selects, full matches included. The byte count
    /// comes from a SWAR zero-byte scan of `x = entry ^ tuple`: in
    /// `((x & 0x7F7F7F7F) + 0x7F7F7F7F) | x`, bit `8k+7` is set exactly
    /// when byte `k` of `x` is non-zero (the per-byte add cannot carry
    /// across byte lanes). The four mark bits are summed with shifts and
    /// adds rather than `count_ones` so the whole scan auto-vectorises
    /// (there is no per-lane popcount below AVX-512); the equality mask is
    /// only needed for the winner, so it is recomputed once after the
    /// loop.
    #[inline]
    fn best_match(&self, tuple: u32) -> Option<(usize, u8)> {
        let mut best = 0u32;
        for (loc, &entry) in self.entries[..self.size].iter().enumerate() {
            let diff = entry ^ tuple;
            let z = !((diff & 0x7F7F_7F7F).wrapping_add(0x7F7F_7F7F) | diff) & 0x8080_8080;
            let n = ((z >> 7) & 1) + ((z >> 15) & 1) + ((z >> 23) & 1) + (z >> 31);
            let key = if n >= 2 {
                (n << 8) | (255 - loc as u32)
            } else {
                0
            };
            best = best.max(key);
        }
        if best == 0 {
            return None;
        }
        let loc = 255 - (best & 0xFF) as usize;
        let diff = self.entries[loc] ^ tuple;
        let z = !((diff & 0x7F7F_7F7F).wrapping_add(0x7F7F_7F7F) | diff) & 0x8080_8080;
        let mask = (((z >> 7) & 1) | ((z >> 14) & 2) | ((z >> 21) & 4) | ((z >> 28) & 8)) as u8;
        Some((loc, mask))
    }
}

/// The CAM as the hardware describes it: a logical array searched a byte
/// at a time, where the first entry with the most matching bytes wins.
/// The reference codec loops use it, and the tests pin [`SmallDict`] and
/// [`LargeDict`] against it.
#[cfg(test)]
#[derive(Debug, Clone)]
struct RefDict(Vec<u32>);

#[cfg(test)]
impl Mtf for RefDict {
    fn new(size: usize) -> Self {
        RefDict(vec![0; size])
    }

    fn at(&self, loc: usize) -> u32 {
        self.0[loc]
    }

    fn promote(&mut self, from: Option<usize>, tuple: u32) {
        self.0.remove(from.unwrap_or(self.0.len() - 1));
        self.0.insert(0, tuple);
    }
}

#[cfg(test)]
impl Cam for RefDict {
    fn best_match(&self, tuple: u32) -> Option<(usize, u8)> {
        let t = tuple.to_le_bytes();
        let mut best: Option<(usize, u8, u32)> = None;
        for (loc, entry) in self.0.iter().enumerate() {
            let entry = entry.to_le_bytes();
            let mut mask = 0u8;
            for k in 0..4 {
                if entry[k] == t[k] {
                    mask |= 1 << k;
                }
            }
            let n = mask.count_ones();
            if n >= 2 && best.is_none_or(|(_, _, bn)| n > bn) {
                best = Some((loc, mask, n));
            }
        }
        best.map(|(loc, mask, _)| (loc, mask))
    }
}

/// The `i`-th 32-bit tuple of `input`, zero-padded at the tail.
#[inline]
fn tuple_at(input: &[u8], i: usize) -> u32 {
    let start = i * 4;
    if let Some(chunk) = input.get(start..start + 4) {
        u32::from_le_bytes(chunk.try_into().expect("4 bytes"))
    } else {
        let mut t = [0u8; 4];
        let tail = &input[start..];
        t[..tail.len()].copy_from_slice(tail);
        u32::from_le_bytes(t)
    }
}

impl Codec for XMatchPro {
    fn name(&self) -> &'static str {
        "X-MatchPRO"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        if self.dict_size <= MAX_SLOTS {
            self.encode::<SmallDict>(input)
        } else {
            self.encode::<LargeDict>(input)
        }
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if self.dict_size <= MAX_SLOTS {
            self.decode::<MtfSlots>(input)
        } else {
            self.decode::<LargeDict>(input)
        }
    }
}

impl XMatchPro {
    /// The encoder: one loop over CAM `D`, monomorphised per depth class
    /// by [`Codec::compress`].
    fn encode<D: Cam>(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 8);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        let mut w = BitWriter::with_capacity(input.len() / 2);
        let mut dict = D::new(self.dict_size);
        let total = input.len().div_ceil(4);
        let mut i = 0usize;
        while i < total {
            let tuple = tuple_at(input, i);
            match dict.best_match(tuple) {
                Some((loc, 0b1111)) => {
                    // Run-length of consecutive identical tuples, compared
                    // two tuples per step against the doubled pattern while
                    // whole 8-byte chunks remain, then tuple-wise over the
                    // tail.
                    let max_run = (total - i - 1).min(255);
                    let base = (i + 1) * 4;
                    let pattern = u64::from(tuple) | (u64::from(tuple) << 32);
                    let mut run = 0usize;
                    while run + 2 <= max_run && base + run * 4 + 8 <= input.len() {
                        let chunk = u64::from_le_bytes(
                            input[base + run * 4..base + run * 4 + 8]
                                .try_into()
                                .expect("8 bytes"),
                        );
                        if chunk != pattern {
                            break;
                        }
                        run += 2;
                    }
                    while run < max_run && tuple_at(input, i + 1 + run) == tuple {
                        run += 1;
                    }
                    // One fused write: `1 | loc | 1 | run` (≤ 17 bits).
                    w.write_bits(
                        (1 << (self.loc_bits + 9)) | ((loc as u32) << 9) | (1 << 8) | run as u32,
                        self.loc_bits + 10,
                    );
                    dict.promote(Some(loc), tuple);
                    i += 1 + run;
                    continue;
                }
                Some((loc, mask)) => {
                    let mask_idx = u32::from(PARTIAL_MASK_INDEX[mask as usize]);
                    debug_assert!(mask_idx < 16, "mask with 2-3 bytes is in the table");
                    let bytes = tuple.to_le_bytes();
                    let mut lit = 0u32;
                    let mut nlit = 0u32;
                    for (k, &byte) in bytes.iter().enumerate() {
                        if mask & (1 << k) == 0 {
                            lit = (lit << 8) | u32::from(byte);
                            nlit += 8;
                        }
                    }
                    // One fused write: `1 | loc | 0 | mask_idx | literals`
                    // (≤ 29 bits even at a 128-entry dictionary).
                    let prefix = (1 << (self.loc_bits + 5)) | ((loc as u32) << 5) | mask_idx;
                    w.write_bits((prefix << nlit) | lit, self.loc_bits + 6 + nlit);
                    dict.promote(Some(loc), tuple);
                }
                None => {
                    w.write_bit(false);
                    w.write_bits(tuple, 32);
                    dict.promote(None, tuple);
                }
            }
            i += 1;
        }
        out.extend_from_slice(&w.finish());
        out
    }

    /// The decoder: one token loop over dictionary `D`, monomorphised
    /// per depth class by [`Codec::decompress`].
    ///
    /// The output is sized once, zero-filled, to the stream's length, but
    /// never past what the tokens could write: a token takes at least
    /// `loc_bits + 10` bits and writes at most one run, so a corrupt
    /// length header cannot size the output beyond what the input could
    /// fill. A stream whose header outruns its tokens runs out of them
    /// first and fails.
    fn decode<D: Mtf>(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let n = u32::from_le_bytes(input[0..4].try_into().expect("4 bytes")) as usize;
        let mut decoder = XMatchDecoder {
            reader: BitReader::new(&input[4..]),
            dict: D::new(self.dict_size),
            loc_bits: self.loc_bits,
            total_tuples: n.div_ceil(4),
            tuples_done: 0,
        };
        let reachable =
            decoder.reader.remaining() / (self.loc_bits as usize + 10) * MAX_TOKEN_BYTES;
        let mut out = vec![0; n.min(reachable)];
        decoder.decode_tokens(&mut out)?;
        debug_assert_eq!(out.len(), n, "a finished stream fills its length");
        Ok(out)
    }
}

/// X-MatchPRO decoder state over dictionary `D`: the token reader, the
/// move-to-front dictionary and the count of tuples written.
#[derive(Debug)]
struct XMatchDecoder<'a, D> {
    reader: BitReader<'a>,
    dict: D,
    loc_bits: u32,
    total_tuples: usize,
    tuples_done: usize,
}

impl<D: Mtf> XMatchDecoder<'_, D> {
    /// Decodes every token into `out`, writing tuples by index.
    ///
    /// Each token is cut from one 64-bit window (a token is at most 33
    /// bits). The window is zero past the end of the stream, so every
    /// field is bound-checked by one [`BitReader::consume`] at its
    /// boundary, in stream order: a short stream raises
    /// [`CodecError::Truncated`] at the first field it cannot hold, before
    /// any later field is judged.
    ///
    /// Kept out of line: inlined into [`XMatchPro::decode`], the token
    /// loop decoded the fleet images about 4 % slower.
    #[inline(never)]
    fn decode_tokens(&mut self, out: &mut [u8]) -> Result<(), CodecError> {
        // `loc` is exactly `loc_bits` wide, so it cannot leave the
        // dictionary.
        let loc_bits = self.loc_bits;
        let loc_mask = (1usize << loc_bits) - 1;
        while self.tuples_done < self.total_tuples {
            let pos = self.tuples_done * 4;
            let w = self.reader.peek_u64();
            if w >> 63 == 0 {
                // Miss: `0 | tuple`.
                self.reader.consume(33)?;
                let tuple = (w >> 31) as u32;
                put_tuple(out, pos, tuple);
                self.dict.promote(None, tuple);
                self.tuples_done += 1;
                continue;
            }
            let loc = (w >> (63 - loc_bits)) as usize & loc_mask;
            if (w >> (62 - loc_bits)) & 1 == 1 {
                // Full match: `1 | loc | 1 | run`.
                self.reader.consume(loc_bits + 10)?;
                let count = 1 + ((w >> (54 - loc_bits)) as usize & 0xFF);
                if self.tuples_done + count > self.total_tuples {
                    return Err(CodecError::corrupt("run overruns output"));
                }
                let tuple = self.dict.at(loc);
                put_run(out, pos, count, tuple);
                self.dict.promote(Some(loc), tuple);
                self.tuples_done += count;
            } else {
                // Partial match: `1 | loc | 0 | mask index | literals`.
                self.reader.consume(loc_bits + 6)?;
                let mask = *PARTIAL_MASKS
                    .get((w >> (58 - loc_bits)) as usize & 0xF)
                    .ok_or_else(|| CodecError::corrupt("bad mask index"))?;
                // All unmatched literals (8 or 16 bits), lowest byte first.
                let mut nlit = (4 - mask.count_ones()) * 8;
                self.reader.consume(nlit)?;
                let lits = ((w << (loc_bits + 6)) >> (64 - nlit)) as u32;
                let mut bytes = self.dict.at(loc).to_le_bytes();
                for (k, byte) in bytes.iter_mut().enumerate() {
                    if mask & (1 << k) == 0 {
                        nlit -= 8;
                        *byte = (lits >> nlit) as u8;
                    }
                }
                let tuple = u32::from_le_bytes(bytes);
                put_tuple(out, pos, tuple);
                self.dict.promote(Some(loc), tuple);
                self.tuples_done += 1;
            }
        }
        Ok(())
    }
}

/// Writes `tuple` into `out` at byte `pos`, clipped at the end of `out`
/// (which only the stream's final tuple reaches).
#[inline]
fn put_tuple(out: &mut [u8], pos: usize, tuple: u32) {
    let bytes = tuple.to_le_bytes();
    match out.get_mut(pos..pos + 4) {
        Some(dst) => dst.copy_from_slice(&bytes),
        None => {
            let tail = &mut out[pos..];
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
    }
}

/// Writes `count` copies of `tuple` into `out` from byte `pos`.
///
/// Whole 64-byte blocks are stored while they fit in `out`, so the last
/// block may run past the run into bytes that later tokens overwrite (or
/// that a failed decode discards); only at the end of `out` is the fill
/// exact.
#[inline]
fn put_run(out: &mut [u8], pos: usize, count: usize, tuple: u32) {
    let bytes = tuple.to_le_bytes();
    let mut block = [0u8; 64];
    for chunk in block.chunks_exact_mut(4) {
        chunk.copy_from_slice(&bytes);
    }
    let end = (pos + 4 * count).min(out.len());
    let mut at = pos;
    while at < end {
        if let Some(dst) = out.get_mut(at..at + 64) {
            dst.copy_from_slice(&block);
            at += 64;
        } else {
            out[at..end].copy_from_slice(&block[..end - at]);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let codec = XMatchPro::new();
        let packed = codec.compress(data);
        assert_eq!(
            codec.decompress(&packed).unwrap(),
            data,
            "len {}",
            data.len()
        );
    }

    #[test]
    fn basic_round_trips() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"word");
        roundtrip(b"wordword");
        roundtrip(b"seven by");
        roundtrip(&b"ABCDABCEABCDABCF".repeat(100));
    }

    #[test]
    fn zero_regions_hit_the_run_coder() {
        let codec = XMatchPro::new();
        let data = vec![0u8; 64 * 1024];
        let packed = codec.compress(&data);
        // 16k tuples, runs of 256 → 64 run tokens of 14 bits each.
        assert!(packed.len() < 200, "{} bytes", packed.len());
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn word_structured_data_hits_partial_matches() {
        // Config words with a recurring 3-byte prefix and a varying low
        // byte exercise the partial-match path: each 32-bit tuple costs an
        // 18-bit token (1+4+1+4+8), i.e. ~43.7% saved. The paper's 74.2%
        // additionally benefits from full-match runs, which dense-but-
        // repetitive frame data provides (see the Table I harness).
        let mut data = Vec::new();
        for i in 0u32..30_000 {
            data.extend_from_slice(&(0x4060_1200u32 | (i % 97)).to_le_bytes());
        }
        let codec = XMatchPro::new();
        let packed = codec.compress(&data);
        let ratio = 1.0 - packed.len() as f64 / data.len() as f64;
        assert!(ratio > 0.42, "saved {:.1}%", ratio * 100.0);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn tail_bytes_survive() {
        for n in 1..=9 {
            let data: Vec<u8> = (0..n)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(1))
                .collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn run_length_boundary() {
        // Exactly 256 identical tuples = one full token + run 255; 257
        // needs a second token.
        for tuples in [255usize, 256, 257, 513] {
            let mut data = vec![0xABu8; 4 * tuples];
            data[0] = 0xAB; // ensure first tuple inserted as miss then runs
            roundtrip(&data);
        }
    }

    #[test]
    fn incompressible_data_survives() {
        let mut rng_state = 99u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng_state >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_detected() {
        let codec = XMatchPro::new();
        let packed = codec.compress(&vec![9u8; 1000]);
        assert!(codec.decompress(&packed[..4]).is_err());
        assert_eq!(codec.decompress(&[1]), Err(CodecError::Truncated));
    }

    #[test]
    fn all_dictionary_depths_round_trip() {
        let mut data = Vec::new();
        for i in 0u32..20_000 {
            data.extend_from_slice(&(0x1200_0000u32 | (i % 300)).to_le_bytes());
        }
        for size in [2usize, 4, 8, 16, 32, 64, 128] {
            let codec = XMatchPro::with_dictionary(size);
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed).unwrap(), data, "dict {size}");
        }
    }

    #[test]
    fn deeper_dictionaries_catch_more_matches_on_varied_data() {
        // A working set of 48 distinct tuples (no two share a byte in any
        // position, so partial matches cannot substitute): an 8-entry CAM
        // thrashes into misses, a 64-entry CAM holds the set and emits
        // full matches.
        let mut data = Vec::new();
        for i in 0u32..30_000 {
            let k = (i * 7) % 48;
            let tuple = [
                (k + 16) as u8,
                (2 * k + 16) as u8,
                (3 * k + 16) as u8,
                (4 * k + 16) as u8,
            ];
            data.extend_from_slice(&tuple);
        }
        let small = XMatchPro::with_dictionary(8).compress(&data).len();
        let large = XMatchPro::with_dictionary(64).compress(&data).len();
        assert!(
            (large as f64) < small as f64 * 0.6,
            "64-entry {large} vs 8-entry {small}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_dictionary_rejected() {
        let _ = XMatchPro::with_dictionary(20);
    }

    #[test]
    fn swar_match_equals_reference_across_mtf_evolution() {
        // Drive each CAM through a realistic MTF evolution and check its
        // search (the presence tables at 16 entries, the SWAR scan at 64)
        // against the byte-wise reference at every step.
        fn evolve<D: Cam>(size: usize) {
            let mut dict = D::new(size);
            let mut reference = RefDict::new(size);
            let mut state = 0x1234_5678_9ABC_DEF0u64;
            for step in 0..20_000u32 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Low-entropy bytes so ≥2-byte partial matches actually occur.
                let tuple = u32::from_le_bytes([
                    (state >> 33) as u8 & 0x7,
                    (state >> 41) as u8 & 0x7,
                    (state >> 49) as u8 & 0x7,
                    (state >> 57) as u8 & 0x7,
                ]);
                let fast = dict.best_match(tuple);
                assert_eq!(
                    fast,
                    reference.best_match(tuple),
                    "depth {size} step {step}"
                );
                let from = fast.map(|(loc, _)| loc);
                dict.promote(from, tuple);
                reference.promote(from, tuple);
            }
        }
        evolve::<SmallDict>(16);
        evolve::<LargeDict>(64);
    }

    #[test]
    fn small_and_large_dictionaries_evolve_identically() {
        // The nibble-permutation + presence-table CAM and the plain
        // shifting array are two representations of the same logical MTF
        // dictionary. Drive both through an evolution rich in partial
        // matches — which overwrite the matched entry, not just rotate —
        // and compare match results and the full logical view each step.
        let mut small = SmallDict::new(16);
        let mut large = LargeDict::new(16);
        let mut state = 0x0DDB_1A5E_5BAD_C0DEu64;
        for step in 0..30_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tuple = u32::from_le_bytes([
                (state >> 33) as u8 & 0xF,
                (state >> 41) as u8 & 0xF,
                (state >> 49) as u8 & 0xF,
                (state >> 57) as u8 & 0xF,
            ]);
            let sm = small.best_match(tuple);
            let lm = large.best_match(tuple);
            assert_eq!(sm, lm, "match diverges at step {step}");
            let from = sm.map(|(loc, _)| loc);
            small.promote(from, tuple);
            large.promote(from, tuple);
            for loc in 0..16 {
                assert_eq!(small.at(loc), large.at(loc), "step {step} loc {loc}");
            }
        }
    }

    #[test]
    fn fast_paths_match_reference_on_structured_data() {
        // Mixed misses / partials / full runs, plus the zero-padded tail.
        let mut state = 0xD1CEu64;
        for len in [0usize, 1, 3, 4, 7, 4096, 40_001] {
            let data: Vec<u8> = (0..len)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if (state >> 40) & 3 == 0 {
                        0
                    } else {
                        ((state >> 33) as u8 & 0x1F) | (i as u8 & 0x3)
                    }
                })
                .collect();
            let codec = XMatchPro::new();
            let fast = codec.compress(&data);
            let slow = codec.compress_reference(&data);
            assert_eq!(fast, slow, "encode diverges at len {len}");
            assert_eq!(
                codec.decompress(&fast).unwrap(),
                codec.decompress_reference(&fast).unwrap(),
                "decode diverges at len {len}"
            );
        }
    }

    /// One step of the LCG the decoder tests draw from.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A fleet-like sparse image of `len` bytes: about half the tokens
    /// are full-match runs (mostly of zero words), the rest config words
    /// sharing their high bytes (partial matches) and random words
    /// (misses).
    fn sparse_payload(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut data = Vec::with_capacity(len + 128);
        while data.len() < len {
            let word = match lcg(&mut state) % 10 {
                0..=4 => {
                    let word = if lcg(&mut state).is_multiple_of(4) {
                        0x2000_0000 | (lcg(&mut state) as u32 & 0xFF)
                    } else {
                        0
                    };
                    for _ in 0..lcg(&mut state) % 28 {
                        data.extend_from_slice(&word.to_le_bytes());
                    }
                    word
                }
                5..=7 => 0x4060_1200 | (lcg(&mut state) as u32 & 0x3FF),
                _ => lcg(&mut state) as u32 ^ (lcg(&mut state) as u32) << 16,
            };
            data.extend_from_slice(&word.to_le_bytes());
        }
        data.truncate(len);
        data
    }

    /// A dense payload of `len` bytes over a small byte alphabet: few
    /// runs, many partial matches and misses.
    fn dense_payload(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| (lcg(&mut state) % 7) as u8 * 37).collect()
    }

    #[test]
    fn decoder_matches_reference_on_errors() {
        // Every depth, on a sparse and a dense payload whose lengths are
        // not multiples of 4: the decoder must return exactly what the
        // reference returns — the same bytes or the same `CodecError` —
        // for every truncation of the packed stream and for seeded
        // single-bit flips.
        let mut errors_seen = std::collections::BTreeSet::new();
        for depth in [2usize, 4, 8, 16, 32, 64, 128] {
            let codec = XMatchPro::with_dictionary(depth);
            let payloads = [
                ("sparse", sparse_payload(6_561, depth as u64)),
                ("dense", dense_payload(1_531, !(depth as u64))),
            ];
            for (kind, data) in &payloads {
                let packed = codec.compress(data);
                assert_eq!(
                    codec.decompress(&packed).as_ref(),
                    Ok(data),
                    "{kind} depth {depth}"
                );
                for cut in 0..packed.len() {
                    let short = &packed[..cut];
                    assert_eq!(
                        codec.decompress(short),
                        codec.decompress_reference(short),
                        "{kind} depth {depth} cut at {cut} of {}",
                        packed.len()
                    );
                }
                let mut state = 0xF11B_0000 ^ depth as u64;
                for flip in 0..256 {
                    let bit = lcg(&mut state) as usize % (packed.len() * 8);
                    let mut bad = packed.clone();
                    bad[bit / 8] ^= 0x80 >> (bit % 8);
                    let decoded = codec.decompress(&bad);
                    assert_eq!(
                        decoded,
                        codec.decompress_reference(&bad),
                        "{kind} depth {depth} flip {flip} at bit {bit}"
                    );
                    if let Err(e) = &decoded {
                        errors_seen.insert(e.to_string());
                    }
                }
            }
        }
        // The flips reach every error the format can raise.
        assert_eq!(errors_seen.len(), 3, "{errors_seen:?}");

        // Where one token is both cut short and corrupt, `Truncated` must
        // win exactly when the reference raises it first. Truncating a
        // valid stream never makes a token corrupt, so cut short random
        // streams, whose small length header makes long runs overrun.
        let mut state = 0x5EED_5EEDu64;
        for depth in [2usize, 16, 128] {
            let codec = XMatchPro::with_dictionary(depth);
            for _ in 0..400 {
                let mut stream = (lcg(&mut state) as u32 % 64 + 1).to_le_bytes().to_vec();
                stream.extend((0..12).map(|_| lcg(&mut state) as u8));
                for cut in 4..=stream.len() {
                    let short = &stream[..cut];
                    assert_eq!(
                        codec.decompress(short),
                        codec.decompress_reference(short),
                        "depth {depth} stream {stream:02x?} cut at {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_masks_cover_all_2_and_3_byte_patterns() {
        assert_eq!(PARTIAL_MASKS.len(), 10);
        for &m in &PARTIAL_MASKS {
            let n = m.count_ones();
            assert!(n == 2 || n == 3);
        }
        let mut sorted = PARTIAL_MASKS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "masks must be distinct");
    }
}
