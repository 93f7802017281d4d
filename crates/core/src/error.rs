//! Error type for route computation.

use arp_roadnet::ids::NodeId;
use std::fmt;

/// Errors raised by shortest-path and alternative-route computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A query endpoint is not a valid vertex of the network.
    InvalidNode(NodeId),
    /// Source and target are the same vertex.
    SameSourceTarget(NodeId),
    /// No path exists from source to target.
    Unreachable {
        /// Query source.
        source: NodeId,
        /// Query target.
        target: NodeId,
    },
    /// A weight overlay has the wrong length for the network.
    WeightLengthMismatch {
        /// Expected number of edges.
        expected: usize,
        /// Provided overlay length.
        got: usize,
    },
    /// A query's penalty factor is not a number ≥ 1: penalized weights
    /// would fall below the public ones.
    InvalidPenaltyFactor,
    /// A technique that reads the request's tree pair was handed none
    /// ([`crate::AlternativesProvider::reads_pair`]): a caller bug.
    MissingPair,
    /// The search's [`crate::SearchBudget`] tripped (cancellation,
    /// deadline or expansion cap) before the search finished. Technique
    /// drivers catch this and return the alternatives admitted so far.
    Interrupted,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidNode(n) => write!(f, "invalid node {n}"),
            CoreError::SameSourceTarget(n) => {
                write!(f, "source and target are the same vertex {n}")
            }
            CoreError::Unreachable { source, target } => {
                write!(f, "no path from {source} to {target}")
            }
            CoreError::WeightLengthMismatch { expected, got } => {
                write!(
                    f,
                    "weight overlay has {got} entries, network has {expected} edges"
                )
            }
            CoreError::InvalidPenaltyFactor => {
                write!(f, "penalty factor must be a number at least 1")
            }
            CoreError::MissingPair => write!(f, "technique needs the request's tree pair"),
            CoreError::Interrupted => write!(f, "search interrupted by its budget"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CoreError::InvalidNode(NodeId(4)).to_string(),
            "invalid node n4"
        );
        assert!(CoreError::Unreachable {
            source: NodeId(1),
            target: NodeId(2)
        }
        .to_string()
        .contains("n1"));
        assert!(CoreError::WeightLengthMismatch {
            expected: 5,
            got: 3
        }
        .to_string()
        .contains("3"));
    }
}
