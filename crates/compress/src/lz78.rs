//! LZ78 with a growing phrase dictionary.
//!
//! Unlike LZ77's sliding window, LZ78 accumulates phrases over the *whole*
//! stream, so the frame-to-frame redundancy of a configuration bitstream is
//! reachable regardless of distance — the reason LZ78 (75.6% saved) beats
//! both LZ77 and X-MatchPRO in Table I.
//!
//! Stream format: `u32-LE original length`, then tokens
//! `index (k bits, k = ⌈log₂(dict size + 1)⌉) | has-byte flag | byte?`.
//! Only the final token may omit the byte. The dictionary resets when full.

use crate::bitio::{BitReader, BitWriter};
use crate::{Codec, CodecError};

/// Dictionary capacity before reset (entries, including the empty root).
pub const DICT_CAPACITY: usize = 65_536;

/// Open-addressed `(parent, byte) → index` map for the encoder.
///
/// The encoder probes this table once per input byte, so a general-purpose
/// `HashMap` spends most of the phrase-building time hashing (SipHash over
/// a 5-byte tuple) and allocating as it grows. Here the key packs into 24
/// bits (`parent < 65 536`, one byte), each slot is a single `u64` holding
/// `(key + 1) << 32 | index` (zero = empty), and the table is sized at
/// twice [`DICT_CAPACITY`] so linear probing stays short (load ≤ 0.5). A
/// failed lookup hands its empty slot to the following insert, so the
/// common miss-then-insert sequence probes once.
#[derive(Debug)]
struct PhraseTable {
    slots: Vec<u64>,
}

/// Twice the dictionary capacity, so the load factor never exceeds 0.5.
const TABLE_SLOTS: usize = 2 * DICT_CAPACITY;

impl PhraseTable {
    fn new() -> Self {
        PhraseTable {
            slots: vec![0; TABLE_SLOTS],
        }
    }

    /// Fibonacci hash of the packed key, mapped to a starting slot.
    #[inline]
    fn slot_of(key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B9) >> (32 - TABLE_SLOTS.trailing_zeros())) as usize
    }

    /// Looks up `key`; on a miss, returns the empty slot the probe ended
    /// at, which a subsequent [`Self::set`] of the same key may fill
    /// without re-probing.
    #[inline]
    fn lookup(&self, key: u32) -> Result<u32, usize> {
        let tag = u64::from(key) + 1;
        let mut s = Self::slot_of(key);
        loop {
            let e = self.slots[s];
            if e == 0 {
                return Err(s);
            }
            if e >> 32 == tag {
                return Ok(e as u32);
            }
            s = (s + 1) & (TABLE_SLOTS - 1);
        }
    }

    /// Fills the empty `slot` a failed [`Self::lookup`] of `key` returned.
    #[inline]
    fn set(&mut self, slot: usize, key: u32, index: u32) {
        debug_assert_eq!(self.slots[slot], 0);
        self.slots[slot] = ((u64::from(key) + 1) << 32) | u64::from(index);
    }

    fn clear(&mut self) {
        self.slots.fill(0);
    }
}

/// LZ78 codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lz78;

impl Lz78 {
    /// Creates the codec.
    #[must_use]
    pub fn new() -> Self {
        Lz78
    }
}

fn index_bits(dict_len: usize) -> u32 {
    // Enough bits to address any current entry (indices 0..dict_len).
    usize::BITS - (dict_len - 1).leading_zeros()
}

impl Codec for Lz78 {
    fn name(&self) -> &'static str {
        "LZ78"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 8);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        let mut w = BitWriter::new();
        // Entry 0 is the empty phrase; map (parent, byte) -> index.
        let mut dict = PhraseTable::new();
        let mut next_index = 1u32;
        let mut cur = 0u32; // current phrase index (0 = empty)
        for &b in input {
            let key = (cur << 8) | u32::from(b);
            let slot = match dict.lookup(key) {
                Ok(idx) => {
                    cur = idx;
                    continue;
                }
                Err(slot) => slot,
            };
            // Emit (cur, b), add the extended phrase.
            w.write_bits(cur, index_bits(next_index as usize));
            w.write_bit(true);
            w.write_bits(u32::from(b), 8);
            dict.set(slot, key, next_index);
            next_index += 1;
            cur = 0;
            if next_index as usize >= DICT_CAPACITY {
                dict.clear();
                next_index = 1;
            }
        }
        if cur != 0 {
            // Pending phrase at EOF: index-only token.
            w.write_bits(cur, index_bits(next_index as usize));
            w.write_bit(false);
        }
        out.extend_from_slice(&w.finish());
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let n = u32::from_le_bytes(input[0..4].try_into().expect("4 bytes")) as usize;
        let mut reader = BitReader::new(&input[4..]);
        // Mirror dictionary: entry -> (parent, byte, phrase length). The
        // stored length lets each phrase be written straight into the
        // output back-to-front during the parent walk, instead of through
        // a temporary buffer that is then reversed and copied.
        let mut entries: Vec<(u32, u8, u32)> = vec![(0, 0, 0)]; // index 0 = empty
        let mut out = Vec::with_capacity(crate::output_capacity(n, input.len()));
        while out.len() < n {
            let idx = reader.read_bits(index_bits(entries.len()))?;
            if idx as usize >= entries.len() {
                return Err(CodecError::corrupt(format!(
                    "index {idx} out of dictionary"
                )));
            }
            let plen = entries[idx as usize].2 as usize;
            let has_byte = reader.read_bit()?;
            let appended = if has_byte {
                Some(reader.read_bits(8)? as u8)
            } else {
                None
            };
            let total = plen + usize::from(has_byte);
            let start = out.len();
            if start + total > n {
                return Err(CodecError::corrupt("phrase overruns output"));
            }
            out.resize(start + total, 0);
            let mut end = start + plen;
            let mut walk = idx;
            while walk != 0 {
                let (parent, byte, _) = entries[walk as usize];
                end -= 1;
                out[end] = byte;
                walk = parent;
            }
            debug_assert_eq!(end, start);
            if let Some(b) = appended {
                out[start + plen] = b;
                entries.push((idx, b, plen as u32 + 1));
                if entries.len() >= DICT_CAPACITY {
                    entries.truncate(1);
                }
            }
            if !has_byte && out.len() < n {
                return Err(CodecError::corrupt("index-only token before end"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let codec = Lz78::new();
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
        roundtrip(b"a");
        roundtrip(b"aaaaaaa"); // exercises the EOF index-only token
        roundtrip(b"TOBEORNOTTOBEORTOBEORNOT");
        roundtrip(&b"abcabcabc".repeat(500));
    }

    #[test]
    fn long_range_redundancy_is_captured() {
        // Identical 2 KB blocks separated by 8 KB: LZ78's dictionary
        // persists across the gap (unlike a 1 KB LZ77 window).
        let mut rng_state = 7u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (rng_state >> 33) as u8 % 16 // mildly structured noise
                })
                .collect()
        };
        let block = noise(2048);
        let mut data = block.clone();
        data.extend(noise(8192));
        data.extend(&block);
        let codec = Lz78::new();
        let packed = codec.compress(&data);
        assert!(packed.len() < data.len());
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn dictionary_reset_round_trips() {
        // >64k distinct phrases force at least one reset.
        let mut data = Vec::new();
        for i in 0u32..300_000 {
            data.extend_from_slice(&i.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn index_bits_grows_with_dictionary() {
        assert_eq!(index_bits(1), 0); // only the empty phrase: no bits needed
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(4), 2);
        assert_eq!(index_bits(5), 3);
        assert_eq!(index_bits(65_536), 16);
    }

    #[test]
    fn corrupt_index_detected() {
        let codec = Lz78::new();
        // n=10 but first token references a nonexistent entry: with an empty
        // dictionary index_bits(1)=0 so the first index is always 0 — craft
        // a second token with an out-of-range index instead.
        let data = b"ab".to_vec();
        let mut packed = codec.compress(&data);
        // Flip bits in the payload until decoding fails or differs.
        let mut corrupted_detected = false;
        for i in 4..packed.len() {
            for bit in 0..8 {
                packed[i] ^= 1 << bit;
                match codec.decompress(&packed) {
                    Err(_) => corrupted_detected = true,
                    Ok(out) => {
                        if out != data {
                            corrupted_detected = true;
                        }
                    }
                }
                packed[i] ^= 1 << bit;
            }
        }
        assert!(corrupted_detected);
    }

    #[test]
    fn truncated_stream_detected() {
        let codec = Lz78::new();
        let packed = codec.compress(&b"hello world hello world".repeat(20));
        assert!(codec.decompress(&packed[..5]).is_err());
        assert_eq!(codec.decompress(&[0, 1]), Err(CodecError::Truncated));
    }
}
