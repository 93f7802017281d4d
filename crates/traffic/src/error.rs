//! Error type of the live-traffic subsystem.

use std::fmt;

/// Everything that can go wrong ingesting or applying a traffic delta.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficError {
    /// A delta statement failed to parse. Carries the offending statement
    /// and a human-readable reason.
    Parse {
        /// The statement text that failed.
        statement: String,
        /// Why it failed.
        reason: String,
    },
    /// A speed factor below 1.0 was supplied. Factors must be ≥ 1.0:
    /// traffic only ever slows a road, so an effective weight never drops
    /// below its base — every cost stays ≥ 1 ms, which the search
    /// kernel's canonical-parent rule relies on (DESIGN.md §8).
    FactorBelowOne {
        /// The rejected factor.
        factor: f64,
    },
    /// A non-finite (NaN/∞) factor was supplied.
    FactorNotFinite,
    /// An edge id outside the network was referenced.
    EdgeOutOfRange {
        /// The rejected id.
        edge: u32,
        /// The network's edge count.
        num_edges: usize,
    },
    /// An unknown road-category tag was referenced by a `cat:` statement.
    UnknownCategory {
        /// The unrecognized tag.
        tag: String,
    },
    /// The write-ahead journal append failed (disk full, EIO, injected
    /// fault). The delta was **not** applied and the epoch did not move:
    /// durability is a precondition of publication. Servers map this to
    /// HTTP 503 — the client may retry.
    Journal {
        /// The underlying I/O error, stringified (this enum is `Clone +
        /// PartialEq`; `std::io::Error` is neither).
        reason: String,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Parse { statement, reason } => {
                write!(f, "cannot parse traffic statement {statement:?}: {reason}")
            }
            TrafficError::FactorBelowOne { factor } => {
                write!(
                    f,
                    "traffic factor {factor} < 1.0 (traffic only slows roads)"
                )
            }
            TrafficError::FactorNotFinite => write!(f, "traffic factor must be finite"),
            TrafficError::EdgeOutOfRange { edge, num_edges } => {
                write!(
                    f,
                    "edge {edge} out of range (network has {num_edges} edges)"
                )
            }
            TrafficError::UnknownCategory { tag } => {
                write!(f, "unknown road category tag {tag:?}")
            }
            TrafficError::Journal { reason } => {
                write!(f, "traffic journal append failed: {reason}")
            }
        }
    }
}

impl std::error::Error for TrafficError {}
