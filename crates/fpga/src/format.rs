//! The configuration stream format consumed by the ICAP.
//!
//! This is the packet-level protocol of UG191 ("Virtex-5 FPGA Configuration
//! User Guide", reference \[5\] of the paper), modeled faithfully enough that
//! the ICAP model is a real streaming parser and the bitstream crate a real
//! generator: dummy/sync preamble, type-1/type-2 packet headers,
//! configuration registers (FAR, FDRI, CMD, CRC, IDCODE, …) and commands
//! (RCRC, WCFG, DESYNC, …).
//!
//! Simplifications versus real silicon are noted inline (no bus-width
//! detection pattern, no pad frame after a row crossing, CRC-32C instead of
//! the undocumented Xilinx polynomial). None of these affect the timing or
//! power questions the paper asks.

/// Dummy word preceding synchronisation.
pub const DUMMY_WORD: u32 = 0xFFFF_FFFF;
/// Synchronisation word: configuration data before it is ignored/refused.
pub const SYNC_WORD: u32 = 0xAA99_5566;
/// A type-1 NOOP packet.
pub const NOOP: u32 = 0x2000_0000;

/// Configuration registers addressable by packet headers (UG191 table 6-5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ConfigRegister {
    /// Cyclic redundancy check.
    Crc = 0,
    /// Frame address register.
    Far = 1,
    /// Frame data input (configuration data port).
    Fdri = 2,
    /// Frame data output (readback).
    Fdro = 3,
    /// Command register.
    Cmd = 4,
    /// Control register 0.
    Ctl0 = 5,
    /// Masking register for CTL.
    Mask = 6,
    /// Status register.
    Stat = 7,
    /// Legacy output register.
    Lout = 8,
    /// Configuration option register 0.
    Cor0 = 9,
    /// Multiple frame write register.
    Mfwr = 10,
    /// Initial CBC value register.
    Cbc = 11,
    /// Device ID register.
    Idcode = 12,
    /// User access register.
    Axss = 13,
}

impl ConfigRegister {
    /// Decodes a register address field.
    #[must_use]
    pub fn from_addr(addr: u32) -> Option<ConfigRegister> {
        use ConfigRegister::*;
        Some(match addr {
            0 => Crc,
            1 => Far,
            2 => Fdri,
            3 => Fdro,
            4 => Cmd,
            5 => Ctl0,
            6 => Mask,
            7 => Stat,
            8 => Lout,
            9 => Cor0,
            10 => Mfwr,
            11 => Cbc,
            12 => Idcode,
            13 => Axss,
            _ => return None,
        })
    }

    /// The register's address field value.
    #[must_use]
    pub const fn addr(self) -> u32 {
        self as u32
    }
}

/// Commands written to the CMD register (UG191 table 6-6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Command {
    /// Null command.
    Null = 0,
    /// Write configuration data (enables FDRI writes).
    Wcfg = 1,
    /// Multiple frame write.
    Mfw = 2,
    /// Last frame.
    Lfrm = 3,
    /// Read configuration data.
    Rcfg = 4,
    /// Begin startup sequence.
    Start = 5,
    /// Reset capture.
    Rcap = 6,
    /// Reset CRC register.
    Rcrc = 7,
    /// Assert GHIGH (disable interconnect during config).
    Aghigh = 8,
    /// Switch clock source.
    Switch = 9,
    /// Pulse GRESTORE.
    Grestore = 10,
    /// Begin shutdown sequence.
    Shutdown = 11,
    /// Pulse GCAPTURE.
    Gcapture = 12,
    /// Desynchronise: the port ignores data until the next sync word.
    Desync = 13,
}

impl Command {
    /// Decodes a CMD register value.
    #[must_use]
    pub fn from_value(value: u32) -> Option<Command> {
        use Command::*;
        Some(match value {
            0 => Null,
            1 => Wcfg,
            2 => Mfw,
            3 => Lfrm,
            4 => Rcfg,
            5 => Start,
            6 => Rcap,
            7 => Rcrc,
            8 => Aghigh,
            9 => Switch,
            10 => Grestore,
            11 => Shutdown,
            12 => Gcapture,
            13 => Desync,
            _ => return None,
        })
    }
}

/// Packet opcode field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// No operation.
    Nop,
    /// Register read.
    Read,
    /// Register write.
    Write,
}

/// A decoded configuration packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packet {
    /// Type-1: addresses a register, carries up to 2047 payload words.
    Type1 {
        /// Operation.
        op: Opcode,
        /// Addressed register.
        reg: ConfigRegister,
        /// Payload word count.
        count: u32,
    },
    /// Type-2: extends the *previous* type-1's register with a large payload
    /// (up to 2^27−1 words) — how real tools write the whole FDRI payload.
    Type2 {
        /// Operation.
        op: Opcode,
        /// Payload word count.
        count: u32,
    },
}

/// Maximum payload of a type-1 packet.
pub const TYPE1_MAX_COUNT: u32 = 0x7FF;
/// Maximum payload of a type-2 packet.
pub const TYPE2_MAX_COUNT: u32 = 0x07FF_FFFF;

const fn op_bits(op: Opcode) -> u32 {
    match op {
        Opcode::Nop => 0b00,
        Opcode::Read => 0b01,
        Opcode::Write => 0b10,
    }
}

/// Encodes a type-1 packet header.
///
/// # Panics
///
/// Panics if `count` exceeds [`TYPE1_MAX_COUNT`].
#[must_use]
pub fn type1(op: Opcode, reg: ConfigRegister, count: u32) -> u32 {
    assert!(
        count <= TYPE1_MAX_COUNT,
        "type-1 payload too large: {count}"
    );
    (0b001 << 29) | (op_bits(op) << 27) | (reg.addr() << 13) | count
}

/// Encodes a type-2 packet header (register carried over from the previous
/// type-1).
///
/// # Panics
///
/// Panics if `count` exceeds [`TYPE2_MAX_COUNT`].
#[must_use]
pub fn type2(op: Opcode, count: u32) -> u32 {
    assert!(
        count <= TYPE2_MAX_COUNT,
        "type-2 payload too large: {count}"
    );
    (0b010 << 29) | (op_bits(op) << 27) | count
}

/// Decodes a packet header word.
///
/// Returns `None` for NOOPs (which carry no payload and no register) and
/// `Some(Err(..))`-like semantics are avoided: malformed headers return
/// `Err` through [`decode`]'s `Result`.
pub fn decode(word: u32) -> Result<Option<Packet>, crate::error::FpgaError> {
    let header_type = word >> 29;
    let op = match (word >> 27) & 0b11 {
        0b00 => Opcode::Nop,
        0b01 => Opcode::Read,
        0b10 => Opcode::Write,
        _ => return Err(crate::error::FpgaError::MalformedPacket { word }),
    };
    match header_type {
        0b001 => {
            if matches!(op, Opcode::Nop) {
                return Ok(None);
            }
            let addr = (word >> 13) & 0x3FFF;
            let reg = ConfigRegister::from_addr(addr)
                .ok_or(crate::error::FpgaError::UnknownRegister { addr })?;
            Ok(Some(Packet::Type1 {
                op,
                reg,
                count: word & TYPE1_MAX_COUNT,
            }))
        }
        0b010 => Ok(Some(Packet::Type2 {
            op,
            count: word & TYPE2_MAX_COUNT,
        })),
        _ => Err(crate::error::FpgaError::MalformedPacket { word }),
    }
}

/// Running CRC over `(register, word)` pairs, as maintained by the
/// configuration logic and checked on CRC-register writes.
///
/// Real Virtex devices use an undocumented 32-bit polynomial; we use CRC-32C
/// (Castagnoli). The *protocol* — reset via RCRC, update on every register
/// write, compare on CRC write — is the part that matters and is faithful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigCrc {
    state: u32,
}

impl Default for ConfigCrc {
    fn default() -> Self {
        Self::new()
    }
}

const CRC32C_POLY: u32 = 0x82F6_3B78; // reflected 0x1EDC6F41

/// Slicing tables: `CRC_TABLES[0]` is the classic byte table (8 shift
/// steps); `CRC_TABLES[k][i]` applies `8·(k+1)` steps. Forty tables
/// cover an 8-word × 5-byte FDRI block, so [`ConfigCrc::update_run`] can
/// absorb eight payload words per iteration with independent lookups
/// (slicing-by-40) instead of 320 sequential bit steps.
static CRC_TABLES: [[u32; 256]; 40] = {
    let mut tables = [[0u32; 256]; 40];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (c & 1).wrapping_neg();
            c = (c >> 1) ^ (CRC32C_POLY & mask);
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 40 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

impl ConfigCrc {
    /// A freshly reset CRC (the RCRC command).
    #[must_use]
    pub fn new() -> Self {
        ConfigCrc { state: 0xFFFF_FFFF }
    }

    /// Resets the running value (CMD = RCRC).
    pub fn reset(&mut self) {
        self.state = 0xFFFF_FFFF;
    }

    /// Absorbs one register write (table-driven, one lookup per byte).
    #[inline]
    pub fn update(&mut self, reg: ConfigRegister, word: u32) {
        let mut s = self.state;
        for byte in word.to_le_bytes().into_iter().chain([reg.addr() as u8]) {
            s = (s >> 8) ^ CRC_TABLES[0][((s ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = s;
    }

    /// Bit-at-a-time reference for [`Self::update`] (kept to pin the
    /// table construction).
    #[cfg(test)]
    fn update_bitwise(&mut self, reg: ConfigRegister, word: u32) {
        for byte in word.to_le_bytes().into_iter().chain([reg.addr() as u8]) {
            self.state ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (self.state & 1).wrapping_neg();
                self.state = (self.state >> 1) ^ (CRC32C_POLY & mask);
            }
        }
    }

    /// Absorbs a run of writes to the same register — the FDRI payload
    /// case. Eight words (a 40-byte block: 8 × word bytes + register byte)
    /// are folded per iteration with 40 independent table lookups
    /// (slicing-by-40); only four lookups depend on the running state, so
    /// the chain of sequential dependencies is one iteration, not one
    /// byte. Bit-exact with calling [`Self::update`] per word.
    #[inline]
    pub fn update_run(&mut self, reg: ConfigRegister, words: &[u32]) {
        let addr = reg.addr() as usize & 0xFF;
        // The eight register bytes of a block fold into one run-constant
        // term (tables 35, 30, 25, 20, 15, 10, 5, 0).
        let mut addr_fold = 0u32;
        let mut t = 0;
        while t <= 35 {
            addr_fold ^= CRC_TABLES[t][addr];
            t += 5;
        }
        let mut s = self.state;
        let mut chunks = words.chunks_exact(8);
        for q in &mut chunks {
            let mut acc = addr_fold;
            // Words 1..7 feed state-independent lanes (tables 34 down to 1).
            for (k, &w) in q[1..].iter().enumerate() {
                let b = w.to_le_bytes();
                let t = 34 - 5 * k;
                acc ^= CRC_TABLES[t][b[0] as usize]
                    ^ CRC_TABLES[t - 1][b[1] as usize]
                    ^ CRC_TABLES[t - 2][b[2] as usize]
                    ^ CRC_TABLES[t - 3][b[3] as usize];
            }
            let b0 = q[0].to_le_bytes();
            s = CRC_TABLES[39][((s ^ u32::from(b0[0])) & 0xFF) as usize]
                ^ CRC_TABLES[38][(((s >> 8) ^ u32::from(b0[1])) & 0xFF) as usize]
                ^ CRC_TABLES[37][(((s >> 16) ^ u32::from(b0[2])) & 0xFF) as usize]
                ^ CRC_TABLES[36][(((s >> 24) ^ u32::from(b0[3])) & 0xFF) as usize]
                ^ acc;
        }
        for &word in chunks.remainder() {
            let b = word.to_le_bytes();
            s = CRC_TABLES[4][((s ^ u32::from(b[0])) & 0xFF) as usize]
                ^ CRC_TABLES[3][(((s >> 8) ^ u32::from(b[1])) & 0xFF) as usize]
                ^ CRC_TABLES[2][(((s >> 16) ^ u32::from(b[2])) & 0xFF) as usize]
                ^ CRC_TABLES[1][(((s >> 24) ^ u32::from(b[3])) & 0xFF) as usize]
                ^ CRC_TABLES[0][addr];
        }
        self.state = s;
    }

    /// Absorbs a run whose contribution [`RunCrc::of`] computed: the
    /// same state as [`Self::update_run`] over the run's words, from one
    /// GF(2) multiply instead of a table lookup per byte.
    #[inline]
    pub(crate) fn fold(&mut self, run: RunCrc) {
        self.state = multiply(run.shift, self.state) ^ run.crc;
    }

    /// The value a CRC-register write is compared against.
    #[must_use]
    pub fn value(&self) -> u32 {
        !self.state
    }
}

/// What a run of writes to one register does to the CRC register, from
/// whatever state it starts. The register is linear over GF(2): a run of
/// n words (5n bytes) that starts from state `s` leaves `s · x^(40n) mod
/// P ⊕ c`, where `c` is the state the run leaves from a zero register
/// (zlib's `crc32_combine` identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunCrc {
    /// `x^(40n) mod P`: advances a start state past the run's bytes.
    shift: u32,
    /// The state the run leaves from a zero register.
    crc: u32,
}

impl RunCrc {
    /// The contribution of writing `words` to `reg`: one CRC pass.
    pub(crate) fn of(reg: ConfigRegister, words: &[u32]) -> RunCrc {
        let mut zero = ConfigCrc { state: 0 };
        zero.update_run(reg, words);
        RunCrc {
            shift: x_pow(40 * words.len() as u64),
            crc: zero.state,
        }
    }
}

/// `x^(2^k) mod P` for k = 0..64, reflected like the register (bit 31
/// holds the coefficient of x^0): the squares every power is built from.
static X2N: [u32; 64] = {
    let mut table = [0u32; 64];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 64 {
        table[k] = p;
        p = multiply(p, p);
        k += 1;
    }
    table
};

/// `a · b mod P` over GF(2) in the reflected representation (zlib's
/// `multmodp`): 32 shift-and-add steps, one per coefficient of `a`.
const fn multiply(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        product ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
        b = (b >> 1) ^ (CRC32C_POLY & (b & 1).wrapping_neg());
        i += 1;
    }
    product
}

/// `x^n mod P`, reflected: one multiply per set bit of `n`.
fn x_pow(n: u64) -> u32 {
    let mut p = 1 << 31; // x^0
    let mut bits = n;
    let mut k = 0;
    while bits != 0 {
        if bits & 1 == 1 {
            p = multiply(X2N[k], p);
        }
        bits >>= 1;
        k += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type1_round_trips() {
        let hdr = type1(Opcode::Write, ConfigRegister::Fdri, 0);
        assert_eq!(
            decode(hdr).unwrap(),
            Some(Packet::Type1 {
                op: Opcode::Write,
                reg: ConfigRegister::Fdri,
                count: 0
            })
        );
        let hdr = type1(Opcode::Write, ConfigRegister::Cmd, 1);
        assert_eq!(
            decode(hdr).unwrap(),
            Some(Packet::Type1 {
                op: Opcode::Write,
                reg: ConfigRegister::Cmd,
                count: 1
            })
        );
    }

    #[test]
    fn type2_round_trips_large_counts() {
        // A full XC5VSX50T FDRI payload is ~626k words — needs type-2.
        let hdr = type2(Opcode::Write, 626_000);
        assert_eq!(
            decode(hdr).unwrap(),
            Some(Packet::Type2 {
                op: Opcode::Write,
                count: 626_000
            })
        );
    }

    #[test]
    fn noop_decodes_to_none() {
        assert_eq!(decode(NOOP).unwrap(), None);
    }

    #[test]
    fn malformed_header_rejected() {
        // Header type 0b111 does not exist.
        let word = 0b111 << 29;
        assert!(decode(word).is_err());
        // Opcode 0b11 is reserved.
        let word = (0b001 << 29) | (0b11 << 27);
        assert!(decode(word).is_err());
    }

    #[test]
    fn unknown_register_rejected() {
        let word = (0b001 << 29) | (0b10 << 27) | (99 << 13);
        assert!(matches!(
            decode(word),
            Err(crate::error::FpgaError::UnknownRegister { addr: 99 })
        ));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn type1_count_overflow_panics() {
        let _ = type1(Opcode::Write, ConfigRegister::Fdri, TYPE1_MAX_COUNT + 1);
    }

    #[test]
    fn all_registers_round_trip() {
        for addr in 0..=13 {
            let reg = ConfigRegister::from_addr(addr).unwrap();
            assert_eq!(reg.addr(), addr);
        }
        assert!(ConfigRegister::from_addr(14).is_none());
    }

    #[test]
    fn all_commands_round_trip() {
        for v in 0..=13 {
            let cmd = Command::from_value(v).unwrap();
            assert_eq!(cmd as u32, v);
        }
        assert!(Command::from_value(14).is_none());
    }

    #[test]
    fn crc_is_deterministic_and_order_sensitive() {
        let mut a = ConfigCrc::new();
        let mut b = ConfigCrc::new();
        a.update(ConfigRegister::Far, 1);
        a.update(ConfigRegister::Fdri, 2);
        b.update(ConfigRegister::Fdri, 2);
        b.update(ConfigRegister::Far, 1);
        assert_ne!(a.value(), b.value(), "crc must be order-sensitive");
        let mut c = ConfigCrc::new();
        c.update(ConfigRegister::Far, 1);
        c.update(ConfigRegister::Fdri, 2);
        assert_eq!(a.value(), c.value(), "crc must be deterministic");
    }

    #[test]
    fn crc_reset_restores_initial_state() {
        let mut a = ConfigCrc::new();
        let initial = a.value();
        a.update(ConfigRegister::Cmd, 7);
        assert_ne!(a.value(), initial);
        a.reset();
        assert_eq!(a.value(), initial);
    }

    #[test]
    fn crc_distinguishes_register_from_data() {
        // Same word written to two different registers must differ.
        let mut a = ConfigCrc::new();
        let mut b = ConfigCrc::new();
        a.update(ConfigRegister::Far, 42);
        b.update(ConfigRegister::Fdri, 42);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn table_crc_matches_bitwise_reference() {
        let mut table = ConfigCrc::new();
        let mut bitwise = ConfigCrc::new();
        let mut word = 0x9E37_79B9u32;
        for i in 0..2000u32 {
            word = word.wrapping_mul(0x0019_660D).wrapping_add(0x3C6E_F35F);
            let reg = match i % 4 {
                0 => ConfigRegister::Far,
                1 => ConfigRegister::Fdri,
                2 => ConfigRegister::Cmd,
                _ => ConfigRegister::Idcode,
            };
            table.update(reg, word);
            bitwise.update_bitwise(reg, word);
            assert_eq!(table.value(), bitwise.value(), "diverged at step {i}");
        }
    }

    #[test]
    fn crc_run_matches_per_word_updates() {
        let words: Vec<u32> = (0..513u32)
            .map(|i| i.wrapping_mul(0x85EB_CA6B) ^ 0xDEAD_BEEF)
            .collect();
        let mut run = ConfigCrc::new();
        let mut per_word = ConfigCrc::new();
        run.update(ConfigRegister::Far, 7);
        per_word.update(ConfigRegister::Far, 7);
        run.update_run(ConfigRegister::Fdri, &words);
        for &w in &words {
            per_word.update(ConfigRegister::Fdri, w);
        }
        assert_eq!(run.value(), per_word.value());
        // Empty runs are a no-op.
        let before = run.value();
        run.update_run(ConfigRegister::Fdri, &[]);
        assert_eq!(run.value(), before);
    }

    #[test]
    fn powers_of_x_match_zero_bit_steps() {
        // x^n mod P is the state n zero-bit steps leave from x^0.
        let mut stepped = 1u32 << 31;
        for n in 0..=200u64 {
            assert_eq!(x_pow(n), stepped, "x^{n}");
            let mask = (stepped & 1).wrapping_neg();
            stepped = (stepped >> 1) ^ (CRC32C_POLY & mask);
        }
        // And the squares compose: x^(a+b) = x^a · x^b.
        for (a, b) in [(40, 1 << 20), (12_345, 67_890), (1 << 33, 40 * 626_000)] {
            assert_eq!(x_pow(a + b), multiply(x_pow(a), x_pow(b)), "{a} + {b}");
        }
    }

    #[test]
    fn folded_runs_match_update_run_from_any_state() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..2_000 {
            let len = match case % 4 {
                0 => (next() % 8) as usize,
                1 => (next() % 100) as usize,
                _ => (next() % 2_000) as usize,
            };
            let words: Vec<u32> = (0..len).map(|_| next() as u32).collect();
            let reg = ConfigRegister::from_addr((next() % 14) as u32).unwrap();
            let start = ConfigCrc {
                state: next() as u32,
            };
            let mut folded = start.clone();
            folded.fold(RunCrc::of(reg, &words));
            let mut replayed = start;
            replayed.update_run(reg, &words);
            assert_eq!(folded, replayed, "case {case}: {len} words to {reg:?}");
        }
    }
}
