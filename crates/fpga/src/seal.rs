//! Sealed configuration streams: signed once, where they are built.
//!
//! A vendor tool computes a partial bitstream's CRC check word once,
//! offline, and a controller only moves the words (paper §III). A
//! [`Sealed`] stream does the same for the model: [`Sealed::sign`] makes
//! one pass of the ICAP's packet grammar over the words, writes each CRC
//! check word from the running register (bitgen's job) and keeps, for
//! each FDRI payload run, the run's CRC contribution.
//! [`Icap::write_sealed`](crate::icap::Icap::write_sealed) then folds a
//! whole run into the port's CRC register with one GF(2) multiply instead
//! of a table lookup per byte. The port still computes and compares the
//! CRC; the seal only saves it re-reading the payload.

use std::sync::Arc;

use crate::format::{
    decode, Command, ConfigCrc, ConfigRegister, Opcode, Packet, RunCrc, SYNC_WORD,
};

/// One FDRI payload run of a sealed stream: `words[offset..offset + len]`
/// and its CRC contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SealedRun {
    pub(crate) offset: usize,
    pub(crate) len: usize,
    pub(crate) crc: RunCrc,
}

/// A configuration word stream with its CRC check words written and the
/// CRC contribution of every FDRI run computed, both from the stream's own
/// words by [`Sealed::sign`], its only constructor: no caller can pair run
/// facts with other words.
///
/// A clone copies pointers: the words and the run facts are shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    words: Arc<[u32]>,
    runs: Arc<[SealedRun]>,
}

impl Sealed {
    /// Signs `words` in one pass of the ICAP's packet grammar: the port's
    /// sync, type-1/type-2 headers, RCRC and DESYNC, with a running CRC
    /// register that starts where a fresh port's does. Every CRC-register
    /// payload word is overwritten with the register's value there, and
    /// every FDRI payload run (clamped to the end of the stream) gets its
    /// contribution. Headers the port would reject carry no payload here;
    /// nothing is assumed about what follows them.
    ///
    /// Any words sign: the pass allocates at most one run per word and
    /// sizes nothing by a header's count. The words are copied only if
    /// they are shared.
    #[must_use]
    pub fn sign(words: impl Into<Arc<[u32]>>) -> Sealed {
        let mut words: Arc<[u32]> = words.into();
        if Arc::get_mut(&mut words).is_none() {
            words = Arc::from(&words[..]);
        }
        let stream = Arc::get_mut(&mut words).expect("an unshared stream");
        let mut runs = Vec::new();
        let mut crc = ConfigCrc::new();
        let mut synced = false;
        let mut last_reg = None;
        let mut pending_reg = ConfigRegister::Crc;
        let mut pending = 0usize;
        let mut i = 0;
        while i < stream.len() {
            if !synced {
                match stream[i..].iter().position(|&w| w == SYNC_WORD) {
                    Some(k) => {
                        synced = true;
                        i += k + 1;
                        continue;
                    }
                    None => break,
                }
            }
            if pending > 0 && pending_reg == ConfigRegister::Fdri {
                let len = pending.min(stream.len() - i);
                let run = RunCrc::of(ConfigRegister::Fdri, &stream[i..i + len]);
                crc.fold(run);
                runs.push(SealedRun {
                    offset: i,
                    len,
                    crc: run,
                });
                pending -= len;
                i += len;
                continue;
            }
            let word = stream[i];
            i += 1;
            if pending > 0 {
                pending -= 1;
                match pending_reg {
                    ConfigRegister::Crc => stream[i - 1] = crc.value(),
                    ConfigRegister::Cmd => {
                        crc.update(ConfigRegister::Cmd, word);
                        match Command::from_value(word) {
                            Some(Command::Rcrc) => crc.reset(),
                            Some(Command::Desync) => {
                                synced = false;
                                pending = 0;
                                last_reg = None;
                            }
                            _ => {}
                        }
                    }
                    reg => crc.update(reg, word),
                }
                continue;
            }
            match decode(word) {
                Ok(Some(Packet::Type1 { op, reg, count })) => {
                    last_reg = Some(reg);
                    if op == Opcode::Write {
                        pending_reg = reg;
                        pending = count as usize;
                    }
                }
                Ok(Some(Packet::Type2 {
                    op: Opcode::Write,
                    count,
                })) => {
                    if let Some(reg) = last_reg {
                        pending_reg = reg;
                        pending = count as usize;
                    }
                }
                // NOOPs, type-2 reads and headers the port rejects.
                _ => {}
            }
        }
        Sealed {
            words,
            runs: runs.into(),
        }
    }

    /// The signed words.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Whether `other` holds the same words: the same shared words (one
    /// pointer compare, as for a clone), or equal words.
    #[must_use]
    pub fn same_words(&self, other: &Sealed) -> bool {
        Arc::ptr_eq(&self.words, &other.words) || self.words == other.words
    }

    /// The FDRI runs, in stream order.
    pub(crate) fn runs(&self) -> &[SealedRun] {
        &self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{type1, type2, DUMMY_WORD, NOOP};

    fn write(reg: ConfigRegister, count: u32) -> u32 {
        type1(Opcode::Write, reg, count)
    }

    #[test]
    fn sign_writes_the_check_word_the_port_computes() {
        let payload: Vec<u32> = (0..82u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let stream = [
            &[DUMMY_WORD, SYNC_WORD, NOOP, write(ConfigRegister::Cmd, 1)][..],
            &[Command::Rcrc as u32, write(ConfigRegister::Far, 1), 7],
            &[type1(Opcode::Write, ConfigRegister::Fdri, 0)],
            &[type2(Opcode::Write, payload.len() as u32)],
            &payload,
            &[write(ConfigRegister::Crc, 1), 0],
            &[write(ConfigRegister::Cmd, 1), Command::Desync as u32],
        ]
        .concat();
        let sealed = Sealed::sign(stream.clone());
        let mut expected = ConfigCrc::new();
        expected.update(ConfigRegister::Far, 7);
        expected.update_run(ConfigRegister::Fdri, &payload);
        let crc_at = stream.len() - 3;
        assert_eq!(sealed.words()[crc_at], expected.value());
        assert_eq!(sealed.words()[..crc_at], stream[..crc_at]);
        assert_eq!(sealed.runs().len(), 1);
        let run = sealed.runs()[0];
        assert_eq!((run.offset, run.len), (9, payload.len()));
        assert_eq!(run.crc, RunCrc::of(ConfigRegister::Fdri, &payload));
        // Signing a signed stream changes nothing.
        assert_eq!(Sealed::sign(sealed.words()), sealed);
    }

    #[test]
    fn runs_are_clamped_to_the_stream_and_headers_size_nothing() {
        // A type-2 count of 2^27 − 1 words over a three-word tail, and a
        // stream that never syncs.
        let stream = [
            SYNC_WORD,
            type1(Opcode::Write, ConfigRegister::Fdri, 0),
            type2(Opcode::Write, crate::format::TYPE2_MAX_COUNT),
            1,
            2,
            3,
        ];
        let sealed = Sealed::sign(&stream[..]);
        assert_eq!(sealed.words(), stream);
        assert_eq!(sealed.runs().len(), 1);
        assert_eq!((sealed.runs()[0].offset, sealed.runs()[0].len), (3, 3));
        let unsynced = Sealed::sign(vec![DUMMY_WORD; 5]);
        assert!(unsynced.runs().is_empty());
        assert!(Sealed::sign(Vec::new()).words().is_empty());
    }

    #[test]
    fn a_shared_stream_is_copied_and_a_fresh_one_is_not() {
        let words: Arc<[u32]> = Arc::from(vec![SYNC_WORD, write(ConfigRegister::Crc, 1), 5]);
        let sealed = Sealed::sign(Arc::clone(&words));
        assert_eq!(words[2], 5, "the caller's words are untouched");
        assert_ne!(sealed.words()[2], 5);
        let ptr = words.as_ptr();
        let owned = Sealed::sign(words);
        assert_eq!(owned.words().as_ptr(), ptr, "signed in place");
        assert!(owned.same_words(&sealed) && sealed.same_words(&sealed.clone()));
    }
}
