//! Traffic metric family, resolved once and updated on every epoch swap.

use arp_obs::{Counter, Gauge, Registry};

/// Pre-resolved instruments of the `arp_traffic_*` family. Resolved
/// from a disabled registry every update is a no-op, so a
/// [`crate::TrafficState`] without metrics costs nothing.
#[derive(Clone, Debug)]
pub struct TrafficMetrics {
    /// `arp_traffic_epoch` — the current graph epoch.
    pub epoch: Gauge,
    /// `arp_traffic_deltas_applied_total` — delta statements applied.
    pub deltas_applied: arp_obs::Counter,
    /// `arp_traffic_closures_active` — currently closed edges.
    pub closures_active: Gauge,
}

impl TrafficMetrics {
    /// Resolves the family against `registry`.
    pub fn new(registry: &Registry) -> TrafficMetrics {
        TrafficMetrics {
            epoch: registry.gauge(
                "arp_traffic_epoch",
                "Current live-traffic graph epoch (0 = base weights)",
                &[],
            ),
            deltas_applied: registry.counter(
                "arp_traffic_deltas_applied_total",
                "Traffic delta statements applied across all epochs",
                &[],
            ),
            closures_active: registry.gauge(
                "arp_traffic_closures_active",
                "Edges currently closed by live-traffic incidents",
                &[],
            ),
        }
    }
}

/// Pre-resolved instruments of the durability layer: journal appends,
/// checkpoints, and startup recovery.
#[derive(Clone, Debug)]
pub struct DurabilityMetrics {
    /// `arp_journal_records_total` — records appended to the WAL.
    pub journal_records: Counter,
    /// `arp_journal_bytes_total` — bytes appended to the WAL.
    pub journal_bytes: Counter,
    /// `arp_journal_fsyncs_total` — fsyncs issued by the WAL.
    pub journal_fsyncs: Counter,
    /// `arp_journal_torn_tails_total` — torn tail records truncated away
    /// during recovery.
    pub journal_torn_tails: Counter,
    /// `arp_journal_quarantines_total` — journal generations quarantined
    /// as corrupt.
    pub journal_quarantines: Counter,
    /// `arp_snapshot_writes_total` — checkpoints installed, each opening
    /// a new journal generation.
    pub snapshot_writes: Counter,
    /// `arp_snapshot_prunes_total` — old journal generations pruned.
    pub snapshot_prunes: Counter,
    /// `arp_recovery_replayed_records` — journal records replayed by the
    /// most recent startup recovery.
    pub recovery_replayed: Gauge,
    /// `arp_recovery_ms` — wall-clock milliseconds the most recent
    /// startup recovery took.
    pub recovery_ms: Gauge,
}

impl DurabilityMetrics {
    /// Resolves the family against `registry`.
    pub fn new(registry: &Registry) -> DurabilityMetrics {
        DurabilityMetrics {
            journal_records: registry.counter(
                "arp_journal_records_total",
                "Delta records appended to the traffic write-ahead journal",
                &[],
            ),
            journal_bytes: registry.counter(
                "arp_journal_bytes_total",
                "Bytes appended to the traffic write-ahead journal",
                &[],
            ),
            journal_fsyncs: registry.counter(
                "arp_journal_fsyncs_total",
                "fsync calls issued by the traffic write-ahead journal",
                &[],
            ),
            journal_torn_tails: registry.counter(
                "arp_journal_torn_tails_total",
                "Torn journal tail records truncated away during recovery",
                &[],
            ),
            journal_quarantines: registry.counter(
                "arp_journal_quarantines_total",
                "Corrupt journal generations quarantined instead of replayed",
                &[],
            ),
            snapshot_writes: registry.counter(
                "arp_snapshot_writes_total",
                "Traffic state checkpoints installed, each opening a journal generation",
                &[],
            ),
            snapshot_prunes: registry.counter(
                "arp_snapshot_prunes_total",
                "Old traffic journal generations pruned by retention",
                &[],
            ),
            recovery_replayed: registry.gauge(
                "arp_recovery_replayed_records",
                "Journal records replayed by the most recent startup recovery",
                &[],
            ),
            recovery_ms: registry.gauge(
                "arp_recovery_ms",
                "Wall-clock milliseconds the most recent startup recovery took",
                &[],
            ),
        }
    }
}
