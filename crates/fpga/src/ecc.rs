//! Frame ECC — Hamming SECDED over configuration frames.
//!
//! Virtex-5/-6 devices embed per-frame ECC (the `FRAME_ECC` primitive):
//! each frame carries parity that lets configuration scrubbers detect and
//! *locate* a single flipped bit without keeping a golden copy, and detect
//! (but not correct) multi-bit upsets. A legitimate frame write stores the
//! parity of the data it writes; a radiation upset corrupts the data (or
//! the stored parity) without that update, which is exactly how the
//! syndrome exposes it. [`crate::ConfigMemory`] therefore keeps a stored
//! parity only for frames an upset struck since their last write: every
//! other frame's stored parity is, by construction, the parity of its data.
//!
//! Encoding: the syndrome's low bits are the XOR of `(bit index + 1)` over
//! all set bits (a flipped bit at index *i* changes it by `i + 1`), and
//! one extra overall-parity bit distinguishes single flips (overall parity
//! changes) from double flips (it does not).

/// Per-byte-lane parity tables: `LANE[j][v]` packs, for byte value `v` in
/// lane `j` (bits `8j..8j+8`), the XOR of `(b + 1) & 31` over the lane's
/// set bits (bits 0..5) and the lane's popcount parity (bit 5).
const LANE: [[u8; 256]; 4] = {
    let mut lane = [[0u8; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut v = 0usize;
        while v < 256 {
            let mut low = 0u8;
            let mut par = 0u8;
            let mut t = 0u32;
            while t < 8 {
                if (v >> t) & 1 == 1 {
                    let b = 8 * (j as u32) + t;
                    low ^= ((b + 1) & 31) as u8;
                    par ^= 1;
                }
                t += 1;
            }
            lane[j][v] = low | (par << 5);
            v += 1;
        }
        j += 1;
    }
    lane
};

/// Parity word of a frame: `(position parity, overall parity)` packed as
/// `pos | (overall << 31)`.
///
/// Computed word-parallel: a set bit `b` of word `w` contributes
/// `w·32 + b + 1 = (w + carry) << 5 | ((b + 1) & 31)` with `carry = 1`
/// only for `b = 31`, so the high and low halves XOR independently. The
/// low half and the word's popcount parity come from four byte-lane table
/// lookups (the private `LANE` tables, 1 KB total); the high half is `w`
/// taken popcount times plus the `b = 31` carry fix-up. No per-set-bit
/// loop. The configuration memory runs it only when an upset strikes a
/// frame and when it checks a struck frame, never on a frame write.
#[must_use]
pub fn frame_parity(frame: &[u32]) -> u32 {
    let mut pos = 0u32;
    let mut overall = 0u32;
    for (w, &word) in frame.iter().enumerate() {
        let w = w as u32;
        let [b0, b1, b2, b3] = word.to_le_bytes();
        let packed = u32::from(
            LANE[0][usize::from(b0)]
                ^ LANE[1][usize::from(b1)]
                ^ LANE[2][usize::from(b2)]
                ^ LANE[3][usize::from(b3)],
        );
        let low = packed & 31;
        let par = packed >> 5;
        overall ^= par;
        // `w` XORed in once per set bit: survives iff popcount is odd.
        // Branchless fix-up: b = 31 contributes (w + 1) << 5, not w << 5.
        let high = (par.wrapping_neg() & w) ^ ((word >> 31).wrapping_neg() & (w ^ (w + 1)));
        pos ^= (high << 5) | low;
    }
    pos | (overall << 31)
}

/// Bit-at-a-time reference for [`frame_parity`] (pins the word-parallel
/// column masks).
#[cfg(test)]
fn frame_parity_reference(frame: &[u32]) -> u32 {
    let mut pos = 0u32;
    let mut overall = 0u32;
    for (w, &word) in frame.iter().enumerate() {
        let mut bits = word;
        overall ^= word.count_ones() & 1;
        while bits != 0 {
            let b = bits.trailing_zeros();
            let index = (w as u32) * 32 + b;
            pos ^= index + 1;
            bits &= bits - 1;
        }
    }
    pos | (overall << 31)
}

/// Outcome of an ECC check of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccStatus {
    /// Parity matches: no upset.
    Clean,
    /// Exactly one bit flipped — located.
    SingleBit {
        /// Word index within the frame.
        word: usize,
        /// Bit index within the word.
        bit: u32,
    },
    /// An even/multi-bit upset: detected but not locatable.
    MultiBit,
}

/// Compares the stored parity of a frame against its current contents.
#[must_use]
pub fn check(frame: &[u32], stored_parity: u32) -> EccStatus {
    let current = frame_parity(frame);
    if current == stored_parity {
        return EccStatus::Clean;
    }
    let pos_delta = (current ^ stored_parity) & 0x7FFF_FFFF;
    let overall_changed = (current ^ stored_parity) >> 31 == 1;
    if overall_changed && pos_delta >= 1 {
        let index = pos_delta - 1;
        let word = (index / 32) as usize;
        let bit = index % 32;
        if word < frame.len() {
            return EccStatus::SingleBit { word, bit };
        }
    }
    EccStatus::MultiBit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Vec<u32> {
        (0..41u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A)
            .collect()
    }

    #[test]
    fn clean_frame_checks_clean() {
        let f = frame();
        let p = frame_parity(&f);
        assert_eq!(check(&f, p), EccStatus::Clean);
    }

    #[test]
    fn every_single_bit_flip_is_located_exactly() {
        let golden = frame();
        let p = frame_parity(&golden);
        for word in [0usize, 1, 20, 40] {
            for bit in [0u32, 1, 15, 31] {
                let mut f = golden.clone();
                f[word] ^= 1 << bit;
                assert_eq!(
                    check(&f, p),
                    EccStatus::SingleBit { word, bit },
                    "flip at {word}:{bit}"
                );
            }
        }
    }

    #[test]
    fn double_flips_detected_as_multibit() {
        let golden = frame();
        let p = frame_parity(&golden);
        let mut f = golden.clone();
        f[3] ^= 1 << 4;
        f[17] ^= 1 << 9;
        assert_eq!(check(&f, p), EccStatus::MultiBit);
        // Two flips in the same word too.
        let mut f = golden.clone();
        f[3] ^= (1 << 4) | (1 << 5);
        assert_eq!(check(&f, p), EccStatus::MultiBit);
    }

    #[test]
    fn parity_of_all_zero_frame_is_zero() {
        let zeros = vec![0u32; 41];
        assert_eq!(frame_parity(&zeros), 0);
        // A flip in an all-zero frame is still located.
        let mut f = zeros.clone();
        f[10] ^= 1 << 7;
        assert_eq!(
            check(&f, frame_parity(&zeros)),
            EccStatus::SingleBit { word: 10, bit: 7 }
        );
    }

    #[test]
    fn word_parallel_parity_matches_bitwise_reference() {
        let mut x = 0x1234_5678u32;
        let mut frame = vec![0u32; 41];
        for trial in 0..200 {
            for w in frame.iter_mut() {
                x = x.wrapping_mul(0x0019_660D).wrapping_add(0x3C6E_F35F);
                // Mix densities: sparse, dense, all-ones, top-bit cases.
                *w = match trial % 4 {
                    0 => x,
                    1 => x & x.rotate_left(7),
                    2 => x | 0x8000_0000,
                    _ => u32::MAX,
                };
            }
            assert_eq!(frame_parity(&frame), frame_parity_reference(&frame));
        }
    }

    #[test]
    fn parity_is_content_sensitive() {
        let a = frame_parity(&frame());
        let mut other = frame();
        other[0] = other[0].wrapping_add(1);
        assert_ne!(a, frame_parity(&other));
    }
}
