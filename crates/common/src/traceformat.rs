//! The on-disk trace header.
//!
//! A recorded command trace (`hammertime-telemetry`'s `codec`) is a
//! serialized artifact that outlives the process that wrote it, so it
//! opens with this header — one magic, one version, and a
//! [`TraceKind`] tag — and a reader refuses a foreign file or a future
//! version. The kind tag has one value; a file carrying any other
//! (such as the retired `Ops` kind) fails to load.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// Magic string identifying any hammertime trace artifact.
pub const TRACE_MAGIC: &str = "HTRC";

/// Current trace format version. Bump on any incompatible change to
/// the payload format.
pub const TRACE_VERSION: u32 = 1;

/// Which payload follows the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A cycle-stamped telemetry event stream including the DDR
    /// commands the device executed (`hammertime-telemetry`).
    Commands,
}

/// Version header carried by every serialized trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Always [`TRACE_MAGIC`].
    pub magic: String,
    /// Format version, currently [`TRACE_VERSION`].
    pub version: u32,
    /// Payload kind.
    pub kind: TraceKind,
}

impl TraceHeader {
    /// Header for a telemetry command trace.
    pub fn commands() -> TraceHeader {
        TraceHeader {
            magic: TRACE_MAGIC.to_string(),
            version: TRACE_VERSION,
            kind: TraceKind::Commands,
        }
    }

    /// Checks magic and version; `Err(Error::Config)` with a
    /// diagnosable message on any mismatch.
    pub fn validate(&self) -> Result<()> {
        if self.magic != TRACE_MAGIC {
            return Err(Error::Config(format!(
                "not a hammertime trace: magic {:?} (want {TRACE_MAGIC:?})",
                self.magic
            )));
        }
        if self.version != TRACE_VERSION {
            return Err(Error::Config(format!(
                "unsupported trace version {} (this build reads version {TRACE_VERSION})",
                self.version
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_matching_kind() {
        assert!(TraceHeader::commands().validate().is_ok());
    }

    #[test]
    fn validate_rejects_mismatches() {
        let mut h = TraceHeader::commands();
        h.magic = "NOPE".into();
        assert!(h.validate().is_err());
        let mut h = TraceHeader::commands();
        h.version = TRACE_VERSION + 1;
        assert!(h.validate().is_err());
    }
}
