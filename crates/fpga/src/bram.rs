//! Dual-port block RAM model.
//!
//! UReC stores bitstreams in a 256 KB dual-port BRAM: the Manager preloads
//! through port A while UReC streams to the ICAP through port B, so
//! preloading never stalls the reconfigurable module (paper §III-B). The
//! model captures capacity, the two independent ports with their own clocks,
//! and the guaranteed/overclocked frequency regimes (300 MHz guaranteed per
//! \[14\]; UReC's custom interface drives the read path to 362.5 MHz).

use crate::error::FpgaError;
use crate::family::Family;
use uparc_sim::time::Frequency;

/// Which operating regime a requested port clock falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyRegime {
    /// At or below the datasheet guarantee (≤300 MHz on V5/V6).
    Guaranteed,
    /// Above guarantee but within the empirically reliable ceiling —
    /// requires a custom interface like UReC's.
    Overclocked,
}

/// One of the two BRAM ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// Port A — the Manager's preload port in UPaRC.
    A,
    /// Port B — UReC's burst read port in UPaRC.
    B,
}

/// A dual-port BRAM of fixed byte capacity with 32-bit ports.
///
/// # Example
///
/// ```
/// use uparc_fpga::bram::{Bram, Port};
/// use uparc_fpga::family::Family;
///
/// // UPaRC's 256 KB bitstream store.
/// let mut bram = Bram::new(Family::Virtex5, 256 * 1024);
/// bram.write_word(Port::A, 0, 0x00036500)?; // size|mode word (Fig. 3)
/// assert_eq!(bram.read_word(Port::B, 0)?, 0x00036500);
/// # Ok::<(), uparc_fpga::FpgaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bram {
    family: Family,
    data: Vec<u32>,
    reads: [u64; 2],
    writes: [u64; 2],
}

impl Bram {
    /// Creates a zeroed BRAM of `capacity_bytes` (rounded down to whole
    /// 32-bit words).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes < 4`.
    #[must_use]
    pub fn new(family: Family, capacity_bytes: usize) -> Self {
        assert!(capacity_bytes >= 4, "bram must hold at least one word");
        Bram {
            family,
            data: vec![0; capacity_bytes / 4],
            reads: [0, 0],
            writes: [0, 0],
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Capacity in 32-bit words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.data.len()
    }

    /// Classifies a port clock against the family limits. The two ports
    /// clock independently: the overlap of UPaRC's preload and
    /// reconfiguration relies on it.
    ///
    /// # Errors
    ///
    /// [`FpgaError::FrequencyTooHigh`] beyond the overclock ceiling.
    pub fn classify_frequency(&self, freq: Frequency) -> Result<FrequencyRegime, FpgaError> {
        if freq <= self.family.bram_guaranteed_frequency() {
            Ok(FrequencyRegime::Guaranteed)
        } else if freq <= self.family.bram_overclock_limit() {
            Ok(FrequencyRegime::Overclocked)
        } else {
            Err(FpgaError::FrequencyTooHigh {
                requested: freq,
                max: self.family.bram_overclock_limit(),
            })
        }
    }

    /// Reads one word (one cycle on `port`).
    ///
    /// # Errors
    ///
    /// [`FpgaError::BramAddressOutOfRange`] for `addr` past the end.
    pub fn read_word(&mut self, port: Port, addr: usize) -> Result<u32, FpgaError> {
        let w = *self
            .data
            .get(addr)
            .ok_or(FpgaError::BramAddressOutOfRange {
                addr,
                words: self.data.len(),
            })?;
        self.reads[port as usize] += 1;
        Ok(w)
    }

    /// Writes one word (one cycle on `port`).
    ///
    /// # Errors
    ///
    /// [`FpgaError::BramAddressOutOfRange`] for `addr` past the end.
    pub fn write_word(&mut self, port: Port, addr: usize, word: u32) -> Result<(), FpgaError> {
        let words = self.data.len();
        let slot = self
            .data
            .get_mut(addr)
            .ok_or(FpgaError::BramAddressOutOfRange { addr, words })?;
        *slot = word;
        self.writes[port as usize] += 1;
        Ok(())
    }

    /// Burst read of `words.len()` consecutive words starting at `addr`
    /// (one read cycle per word, accounted in O(1)). This is UReC's port-B
    /// streaming pattern: one memcpy plus a single counter bump instead of
    /// `words.len()` bounds checks — bit- and cycle-exact with calling
    /// [`Bram::read_word`] per address.
    ///
    /// # Errors
    ///
    /// [`FpgaError::BramAddressOutOfRange`] if the burst leaves the array;
    /// no cycles are counted and `out` is untouched on error, matching a
    /// per-word loop that checks the first failing address up front.
    pub fn read_burst(
        &mut self,
        port: Port,
        addr: usize,
        out: &mut [u32],
    ) -> Result<(), FpgaError> {
        let words = self.data.len();
        let end = addr
            .checked_add(out.len())
            .filter(|&end| end <= words)
            .ok_or(FpgaError::BramAddressOutOfRange {
                addr: addr + out.len() - 1,
                words,
            })?;
        out.copy_from_slice(&self.data[addr..end]);
        self.reads[port as usize] += out.len() as u64;
        Ok(())
    }

    /// Borrowed view of a word range without cycle accounting — for
    /// zero-copy streaming where the caller does its own burst accounting
    /// (see [`Bram::read_burst`]).
    ///
    /// # Errors
    ///
    /// [`FpgaError::BramAddressOutOfRange`] if the range leaves the array.
    pub fn word_range(&self, addr: usize, len: usize) -> Result<&[u32], FpgaError> {
        let words = self.data.len();
        addr.checked_add(len)
            .filter(|&end| end <= words)
            .map(|end| &self.data[addr..end])
            .ok_or(FpgaError::BramAddressOutOfRange {
                addr: addr + len.saturating_sub(1),
                words,
            })
    }

    /// Records `n` read cycles on `port` without touching data — the
    /// accounting half of a zero-copy burst via [`Bram::word_range`].
    pub fn account_reads(&mut self, port: Port, n: u64) {
        self.reads[port as usize] += n;
    }

    /// Bulk image load through a port (counts one write cycle per word).
    ///
    /// # Errors
    ///
    /// [`FpgaError::BramOverflow`] if the image does not fit at `addr`.
    pub fn load_image(&mut self, port: Port, addr: usize, image: &[u32]) -> Result<(), FpgaError> {
        let end = addr.checked_add(image.len());
        match end {
            Some(end) if end <= self.data.len() => {
                self.data[addr..end].copy_from_slice(image);
                self.writes[port as usize] += image.len() as u64;
                Ok(())
            }
            _ => Err(FpgaError::BramOverflow {
                capacity: self.capacity_bytes(),
                requested: addr * 4 + image.len() * 4,
            }),
        }
    }

    /// Flips one bit of the stored word at `addr` — an SEU in the BRAM
    /// contents. The staging store carries no ECC of its own, so the
    /// corruption is only found downstream (config CRC, decoder error), not
    /// here.
    ///
    /// # Errors
    ///
    /// [`FpgaError::BramAddressOutOfRange`] for `addr` past the end;
    /// [`FpgaError::UpsetOutOfRange`] if `bit` is not below 32. Nothing
    /// changes in either case.
    pub fn corrupt_bit(&mut self, addr: usize, bit: u32) -> Result<(), FpgaError> {
        let words = self.data.len();
        let slot = self
            .data
            .get_mut(addr)
            .ok_or(FpgaError::BramAddressOutOfRange { addr, words })?;
        if bit >= 32 {
            return Err(FpgaError::UpsetOutOfRange {
                far: None,
                word: Some(addr),
                bit,
            });
        }
        *slot ^= 1 << bit;
        Ok(())
    }

    /// Read cycles performed on a port.
    #[must_use]
    pub fn read_count(&self, port: Port) -> u64 {
        self.reads[port as usize]
    }

    /// Write cycles performed on a port.
    #[must_use]
    pub fn write_count(&self, port: Port) -> u64 {
        self.writes[port as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bram() -> Bram {
        Bram::new(Family::Virtex5, 256 * 1024)
    }

    #[test]
    fn capacity_and_blocks() {
        let b = bram();
        assert_eq!(b.capacity_bytes(), 262_144);
        assert_eq!(b.capacity_words(), 65_536);
    }

    #[test]
    fn ports_share_storage() {
        let mut b = bram();
        b.write_word(Port::A, 42, 0xCAFE_F00D).unwrap();
        assert_eq!(b.read_word(Port::B, 42).unwrap(), 0xCAFE_F00D);
        assert_eq!(b.write_count(Port::A), 1);
        assert_eq!(b.read_count(Port::B), 1);
        assert_eq!(b.read_count(Port::A), 0);
    }

    #[test]
    fn out_of_range_access_rejected() {
        let mut b = bram();
        let n = b.capacity_words();
        assert!(b.read_word(Port::A, n).is_err());
        assert!(b.write_word(Port::B, n, 0).is_err());
    }

    #[test]
    fn upsets_outside_the_word_are_typed_errors() {
        let mut b = bram();
        b.write_word(Port::A, 9, 0x0F).unwrap();
        assert_eq!(
            b.corrupt_bit(9, 32),
            Err(FpgaError::UpsetOutOfRange {
                far: None,
                word: Some(9),
                bit: 32,
            })
        );
        let n = b.capacity_words();
        assert!(matches!(
            b.corrupt_bit(n, 40),
            Err(FpgaError::BramAddressOutOfRange { .. })
        ));
        assert_eq!(b.read_word(Port::B, 9).unwrap(), 0x0F, "nothing flipped");
        b.corrupt_bit(9, 31).unwrap();
        assert_eq!(b.read_word(Port::B, 9).unwrap(), 0x8000_000F);
    }

    #[test]
    fn image_overflow_rejected() {
        let mut b = Bram::new(Family::Virtex5, 16);
        assert!(b.load_image(Port::A, 0, &[1, 2, 3, 4]).is_ok());
        assert!(matches!(
            b.load_image(Port::A, 1, &[1, 2, 3, 4]),
            Err(FpgaError::BramOverflow { .. })
        ));
    }

    #[test]
    fn burst_read_matches_per_word_loop() {
        let mut b = bram();
        let image: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        b.load_image(Port::A, 24, &image).unwrap();
        let mut per_word = b.clone();
        let mut burst = vec![0u32; image.len()];
        b.read_burst(Port::B, 24, &mut burst).unwrap();
        let looped: Vec<u32> = (0..image.len())
            .map(|i| per_word.read_word(Port::B, 24 + i).unwrap())
            .collect();
        assert_eq!(burst, looped);
        assert_eq!(b.read_count(Port::B), per_word.read_count(Port::B));
    }

    #[test]
    fn burst_read_out_of_range_counts_nothing() {
        let mut b = Bram::new(Family::Virtex5, 16);
        let mut out = [7u32; 3];
        assert!(b.read_burst(Port::B, 2, &mut out).is_err());
        assert_eq!(out, [7, 7, 7], "buffer untouched on error");
        assert_eq!(b.read_count(Port::B), 0);
        assert!(b.word_range(2, 3).is_err());
        assert_eq!(b.word_range(1, 3).unwrap().len(), 3);
    }

    #[test]
    fn zero_copy_burst_accounting() {
        let mut b = bram();
        b.load_image(Port::A, 0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(b.word_range(0, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(b.read_count(Port::B), 0, "word_range counts no cycles");
        b.account_reads(Port::B, 4);
        assert_eq!(b.read_count(Port::B), 4);
    }

    #[test]
    fn frequency_regimes_match_paper() {
        let b = bram();
        assert_eq!(
            b.classify_frequency(Frequency::from_mhz(300.0)).unwrap(),
            FrequencyRegime::Guaranteed
        );
        // UReC drives the read port beyond the 300 MHz guarantee (§III-B).
        assert_eq!(
            b.classify_frequency(Frequency::from_mhz(362.5)).unwrap(),
            FrequencyRegime::Overclocked
        );
        assert!(b.classify_frequency(Frequency::from_mhz(400.0)).is_err());
    }
}
