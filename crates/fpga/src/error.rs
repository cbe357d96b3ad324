//! Error type shared by the FPGA primitive models.

use uparc_sim::time::Frequency;

/// The specific DCM synthesis constraint that was violated.
///
/// Carried as the [`std::error::Error::source`] of
/// [`FpgaError::DcmOutOfRange`], so callers that walk error chains see the
/// constraint itself rather than a flattened string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DcmConstraintError {
    /// Human-readable description of the violated constraint.
    pub reason: String,
}

impl DcmConstraintError {
    /// Creates a constraint error from its description.
    #[must_use]
    pub fn new(reason: impl Into<String>) -> Self {
        DcmConstraintError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for DcmConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for DcmConstraintError {}

/// Errors raised by the FPGA substrate models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FpgaError {
    /// A bitstream was written for a different device than the target.
    WrongDevice {
        /// IDCODE of the device being configured.
        expected: u32,
        /// IDCODE carried by the bitstream.
        got: u32,
    },
    /// The running CRC over the configuration stream did not match the
    /// checksum word in the bitstream.
    CrcMismatch {
        /// CRC computed by the configuration logic.
        computed: u32,
        /// CRC word found in the stream.
        expected: u32,
    },
    /// A frame address fell outside the device's configuration array.
    FrameOutOfRange {
        /// Offending frame address (flat index).
        far: u32,
        /// Number of frames in the device.
        frames: u32,
    },
    /// A clock was requested beyond a primitive's maximum safe frequency.
    FrequencyTooHigh {
        /// Requested frequency.
        requested: Frequency,
        /// Maximum the primitive sustains.
        max: Frequency,
    },
    /// Data did not fit in a BRAM.
    BramOverflow {
        /// Capacity in bytes.
        capacity: usize,
        /// Requested size in bytes.
        requested: usize,
    },
    /// A BRAM address was out of range.
    BramAddressOutOfRange {
        /// Offending word address.
        addr: usize,
        /// Number of words in the memory.
        words: usize,
    },
    /// Configuration data arrived before the sync word.
    NotSynced,
    /// A malformed packet was found in the configuration stream.
    MalformedPacket {
        /// The offending header word.
        word: u32,
    },
    /// An unknown configuration register was addressed.
    UnknownRegister {
        /// The register address field of the packet header.
        addr: u32,
    },
    /// An unknown command was written to the CMD register.
    UnknownCommand {
        /// The offending CMD value.
        value: u32,
    },
    /// DCM multiply/divide factors or output frequency out of legal range.
    DcmOutOfRange {
        /// The violated constraint — also exposed through
        /// [`std::error::Error::source`].
        violation: DcmConstraintError,
    },
    /// The DCM output was used before lock was (re-)acquired.
    DcmNotLocked,
    /// The configuration stream ended in the middle of a packet or frame.
    TruncatedStream,
}

impl std::fmt::Display for FpgaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpgaError::WrongDevice { expected, got } => write!(
                f,
                "bitstream targets device {got:#010x}, hardware is {expected:#010x}"
            ),
            FpgaError::CrcMismatch { computed, expected } => write!(
                f,
                "configuration crc mismatch: computed {computed:#010x}, stream has {expected:#010x}"
            ),
            FpgaError::FrameOutOfRange { far, frames } => {
                write!(f, "frame address {far} outside device ({frames} frames)")
            }
            FpgaError::FrequencyTooHigh { requested, max } => {
                write!(f, "requested {requested} exceeds maximum {max}")
            }
            FpgaError::BramOverflow {
                capacity,
                requested,
            } => write!(
                f,
                "data of {requested} bytes does not fit in {capacity}-byte bram"
            ),
            FpgaError::BramAddressOutOfRange { addr, words } => {
                write!(f, "bram word address {addr} out of range ({words} words)")
            }
            FpgaError::NotSynced => write!(f, "configuration data before sync word"),
            FpgaError::MalformedPacket { word } => {
                write!(f, "malformed configuration packet header {word:#010x}")
            }
            FpgaError::UnknownRegister { addr } => {
                write!(f, "unknown configuration register {addr:#x}")
            }
            FpgaError::UnknownCommand { value } => {
                write!(f, "unknown configuration command {value:#x}")
            }
            FpgaError::DcmOutOfRange { violation } => {
                write!(f, "dcm constraint violated: {violation}")
            }
            FpgaError::DcmNotLocked => write!(f, "dcm output used before lock"),
            FpgaError::TruncatedStream => write!(f, "configuration stream truncated"),
        }
    }
}

impl FpgaError {
    /// Convenience constructor for [`FpgaError::DcmOutOfRange`].
    #[must_use]
    pub fn dcm_out_of_range(reason: impl Into<String>) -> Self {
        FpgaError::DcmOutOfRange {
            violation: DcmConstraintError::new(reason),
        }
    }
}

impl std::error::Error for FpgaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FpgaError::DcmOutOfRange { violation } => Some(violation),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = FpgaError::WrongDevice {
            expected: 0x0286_E093,
            got: 0x0424_A093,
        };
        let s = e.to_string();
        assert!(s.contains("0x0424a093"));
        assert!(s.contains("0x0286e093"));
        let e = FpgaError::FrequencyTooHigh {
            requested: Frequency::from_mhz(400.0),
            max: Frequency::from_mhz(362.5),
        };
        assert!(e.to_string().contains("362.5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FpgaError>();
    }

    #[test]
    fn dcm_out_of_range_exposes_a_source_chain() {
        use std::error::Error as _;
        let e = FpgaError::dcm_out_of_range("m=99 outside 2..=32");
        let src = e.source().expect("DcmOutOfRange carries a source");
        assert_eq!(src.to_string(), "m=99 outside 2..=32");
        assert!(e.to_string().starts_with("dcm constraint violated:"));
        // Leaf variants stay sourceless.
        assert!(FpgaError::DcmNotLocked.source().is_none());
        assert!(FpgaError::NotSynced.source().is_none());
    }
}
