#![deny(missing_docs)]
//! # arp-traffic
//!
//! The **live-traffic subsystem**: epoch-versioned weight overlays,
//! delta ingestion, and a deterministic feed generator.
//!
//! The paper's central finding is that technique quality hinges on
//! *travel-time data divergence* — routes flip when the weights move.
//! This crate makes the weights move **while the system is under load**,
//! safely:
//!
//! * [`TrafficOverlay`] accumulates slow-down factors (per edge, per
//!   road category) and incident closures over an `arp-roadnet` graph,
//!   and materializes them into an effective weight column.
//! * [`TrafficDelta`] is the ingestion grammar
//!   (`cat:primary*1.8; close:412@3`), shared by `POST /api/traffic`
//!   and the feed.
//! * [`TrafficFeed`] deterministically generates rush-hour waves and
//!   incidents per city morphology ([`CityProfile`]).
//! * [`TrafficState`] publishes immutable [`EpochSnapshot`]s via an
//!   atomic epoch swap: readers pin one snapshot per request and can
//!   never observe a torn update (see the [`epoch`] module docs for the
//!   protocol).
//!
//! Search engines consume a snapshot's [`EpochSnapshot::weights`] column
//! like any other `&[Weight]`; an identity overlay shares the base
//! column outright, so serving without traffic is byte-identical to (and
//! as cheap as) not having this crate at all.
//!
//! ## Durability
//!
//! Traffic state survives crashes and restarts in one file format: the
//! [`journal`] module write-ahead-logs every accepted delta
//! (CRC-checksummed, appended *before* the epoch swap publishes) into
//! journal generations, each opened by a checkpoint of the whole overlay
//! written as delta text, and [`TrafficState::open`] rebuilds a state
//! that is epoch-for-epoch identical to the process that never crashed —
//! or, when it finds corruption, quarantines the bad generation and
//! serves the previous one instead of refusing to start (see
//! [`recovery`]).

pub mod delta;
pub mod epoch;
pub mod error;
pub mod feed;
pub mod journal;
pub mod metrics;
pub mod overlay;
pub mod recovery;

pub use delta::{TrafficDelta, TrafficOp};
pub use epoch::{ApplyOutcome, EpochSnapshot, TrafficState};
pub use error::TrafficError;
pub use feed::{CityProfile, TrafficFeed};
pub use journal::{FsyncPolicy, Journal, JournalRecord};
pub use metrics::{DurabilityMetrics, TrafficMetrics};
pub use overlay::{TrafficFactors, TrafficOverlay};
pub use recovery::{DurabilityConfig, RecoveryReport, RecoveryStatus};
