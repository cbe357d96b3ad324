//! Error type for the UPaRC system.

use uparc_bitstream::BitstreamError;
use uparc_compress::Algorithm;
use uparc_fpga::FpgaError;
use uparc_sim::time::{Frequency, SimTime};

/// Errors raised by the UPaRC system.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UparcError {
    /// A bitstream does not fit the staging BRAM, even compressed.
    BramCapacity {
        /// Bytes required (after the selected staging mode).
        required: usize,
        /// BRAM capacity in bytes.
        available: usize,
    },
    /// Raw staging was requested for a bitstream larger than the BRAM.
    RawTooLarge {
        /// Raw size in bytes.
        required: usize,
        /// BRAM capacity in bytes.
        available: usize,
    },
    /// No bitstream is preloaded.
    NothingPreloaded,
    /// A frequency request exceeds a hardware ceiling.
    Frequency {
        /// Requested frequency.
        requested: Frequency,
        /// The binding ceiling.
        max: Frequency,
        /// Which component binds.
        limited_by: &'static str,
    },
    /// DyCloGen cannot synthesise a frequency close enough to the target.
    Unsynthesisable {
        /// Requested target.
        target: Frequency,
    },
    /// A deadline is infeasible even at the maximum frequency.
    DeadlineInfeasible {
        /// The requested deadline.
        deadline: SimTime,
        /// Best achievable reconfiguration time.
        best: SimTime,
    },
    /// A power budget is below the floor (idle + manager) power.
    BudgetInfeasible {
        /// The requested budget in mW.
        budget_mw: f64,
        /// The minimum achievable power in mW.
        floor_mw: f64,
    },
    /// An energy budget is below the best achievable per-request energy.
    EnergyBudgetInfeasible {
        /// The requested budget in µJ.
        budget_uj: f64,
        /// The minimum achievable energy in µJ.
        floor_uj: f64,
    },
    /// A (V, f) query names a current rail the planner's table lacks.
    UnknownRail {
        /// The requested rail index.
        rail: usize,
        /// How many rails the table has.
        rails: usize,
    },
    /// No streaming hardware decompressor exists for the algorithm.
    NoHardwareDecompressor {
        /// Name of the algorithm.
        algorithm: String,
    },
    /// The transfer watchdog expired: a burst stalled longer than the
    /// configured limit, and the controller aborted the transfer.
    WatchdogTimeout {
        /// The configured watchdog limit.
        limit: SimTime,
        /// How long the bus would have stalled.
        stall: SimTime,
    },
    /// A [`Mode::Packed`](crate::uparc::Mode::Packed) payload was packed
    /// by another codec than the decompressor slot runs.
    PackedCodec {
        /// The codec that packed the payload.
        packed: Algorithm,
        /// The slot's codec.
        slot: Algorithm,
    },
    /// Underlying FPGA primitive error.
    Fpga(FpgaError),
    /// Bitstream container/stream error.
    Bitstream(BitstreamError),
    /// Compression round-trip failure (corrupt staging).
    Compression(String),
}

impl std::fmt::Display for UparcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UparcError::BramCapacity {
                required,
                available,
            } => write!(
                f,
                "bitstream needs {required} bytes of staging, bram has {available}"
            ),
            UparcError::RawTooLarge {
                required,
                available,
            } => write!(
                f,
                "raw bitstream of {required} bytes exceeds {available}-byte bram (use compression)"
            ),
            UparcError::NothingPreloaded => write!(f, "no bitstream preloaded"),
            UparcError::Frequency {
                requested,
                max,
                limited_by,
            } => {
                write!(f, "{requested} exceeds {limited_by} ceiling {max}")
            }
            UparcError::Unsynthesisable { target } => {
                write!(f, "dyclogen cannot synthesise {target}")
            }
            UparcError::DeadlineInfeasible { deadline, best } => {
                write!(f, "deadline {deadline} infeasible; best achievable {best}")
            }
            UparcError::BudgetInfeasible {
                budget_mw,
                floor_mw,
            } => {
                write!(f, "power budget {budget_mw} mW below floor {floor_mw} mW")
            }
            UparcError::EnergyBudgetInfeasible {
                budget_uj,
                floor_uj,
            } => {
                write!(f, "energy budget {budget_uj} uJ below floor {floor_uj} uJ")
            }
            UparcError::UnknownRail { rail, rails } => {
                write!(f, "rail {rail} is not in the {rails}-rail (V, f) table")
            }
            UparcError::NoHardwareDecompressor { algorithm } => {
                write!(f, "no streaming hardware decompressor for {algorithm}")
            }
            UparcError::WatchdogTimeout { limit, stall } => {
                write!(
                    f,
                    "transfer stalled {stall}, watchdog aborted after {limit}"
                )
            }
            UparcError::PackedCodec { packed, slot } => {
                write!(f, "payload packed by {packed} on a {slot} slot")
            }
            UparcError::Fpga(e) => write!(f, "fpga error: {e}"),
            UparcError::Bitstream(e) => write!(f, "bitstream error: {e}"),
            UparcError::Compression(s) => write!(f, "compression error: {s}"),
        }
    }
}

impl std::error::Error for UparcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UparcError::Fpga(e) => Some(e),
            UparcError::Bitstream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FpgaError> for UparcError {
    fn from(e: FpgaError) -> Self {
        UparcError::Fpga(e)
    }
}

impl From<BitstreamError> for UparcError {
    fn from(e: BitstreamError) -> Self {
        UparcError::Bitstream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: UparcError = FpgaError::NotSynced.into();
        assert!(e.to_string().contains("sync"));
        assert!(std::error::Error::source(&e).is_some());
        let e = UparcError::NothingPreloaded;
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<UparcError>();
    }
}
