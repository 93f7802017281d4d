//! A–D blinding of the four approaches.
//!
//! "The approaches are named A-D … to hide the identities of the
//! approaches from the users, to avoid any biases or preconceived
//! notions" (§3). The paper's assignment is fixed (A: Google Maps,
//! B: Plateaus, C: Dissimilarity, D: Penalty), which is the order of
//! [`arp_core::ProviderKind::ALL`]. So a lane is a position: lane `i` runs
//! `ProviderKind::ALL[i]` and is shown under `LABELS[i]`. Which approach
//! stands behind a label stays server-side
//! ([`crate::QueryProcessor::unblind`]).

/// Blind labels shown to participants, by lane.
pub const LABELS: [char; 4] = ['A', 'B', 'C', 'D'];
