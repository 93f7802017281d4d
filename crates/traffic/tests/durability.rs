//! Crash-recovery equivalence tests for the durable traffic state: a
//! recovered process must be epoch-for-epoch identical to the process
//! that never crashed, torn tails must truncate-and-continue, corruption
//! must quarantine-and-degrade, and absolute-expiry journaling must keep
//! TTL closures honest across downtime.

use std::path::PathBuf;
use std::sync::Arc;

use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
use arp_roadnet::category::RoadCategory;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::Point;
use arp_traffic::journal::read_journal as read_journal_outcome;
use arp_traffic::{
    DurabilityConfig, FsyncPolicy, RecoveryStatus, TrafficDelta, TrafficFeed, TrafficState,
    JOURNAL_FILE,
};

fn line(n: usize) -> Arc<RoadNetwork> {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_node(Point::new(i as f64 * 0.01, 0.0)))
        .collect();
    for i in 0..n - 1 {
        b.add_bidirectional(
            ids[i],
            ids[i + 1],
            EdgeSpec::category(RoadCategory::Primary),
        );
    }
    Arc::new(b.build())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arp_durability_test_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> DurabilityConfig {
    let mut cfg = DurabilityConfig::new(dir);
    // Most tests want the full journal preserved; checkpointing is
    // exercised explicitly where it matters.
    cfg.snapshot_every = 0;
    cfg
}

/// Drives the same scripted delta/tick sequence against any state.
fn drive(state: &TrafficState, feed: &TrafficFeed) {
    state
        .apply_delta(&TrafficDelta::parse("cat:primary*1.5; close:1@2").unwrap())
        .unwrap();
    state.advance_tick(feed).unwrap();
    state
        .apply_delta(&TrafficDelta::parse("edge:3*2.5; close:5").unwrap())
        .unwrap();
    state.advance_tick(feed).unwrap();
    state.advance_tick(feed).unwrap();
    state
        .apply_delta(&TrafficDelta::parse("reopen:5; edge:3*1.0").unwrap())
        .unwrap();
}

#[test]
fn recovery_is_epoch_for_epoch_identical_to_the_uncrashed_run() {
    let net = line(8);
    let feed = TrafficFeed::new(7, arp_traffic::CityProfile::for_city_name("melbourne"));

    // The never-crashed process.
    let reference = TrafficState::new(Arc::clone(&net));
    drive(&reference, &feed);

    // The crashed process: same sequence, durable, then dropped.
    let dir = temp_dir("equivalence");
    let (durable, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Clean);
    drive(&durable, &feed);
    let epoch_before = durable.epoch();
    drop(durable);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Replayed);
    assert_eq!(report.replayed_records, 6);
    assert_eq!(report.torn_tails, 0);
    assert!(report.quarantined.is_empty());
    assert_eq!(recovered.epoch(), epoch_before);
    assert_eq!(recovered.tick(), reference.tick());
    assert_eq!(
        recovered.snapshot().weights(),
        reference.snapshot().weights(),
        "recovered weight column must be byte-identical"
    );
    assert_eq!(recovered.overlay_snapshot(), reference.overlay_snapshot());

    // And the recovered state keeps evolving identically.
    recovered.advance_tick(&feed).unwrap();
    reference.advance_tick(&feed).unwrap();
    assert_eq!(recovered.epoch(), reference.epoch());
    assert_eq!(
        recovered.snapshot().weights(),
        reference.snapshot().weights()
    );
}

#[test]
fn second_recovery_without_new_writes_is_clean_and_identical() {
    let net = line(8);
    let dir = temp_dir("idempotent");
    let feed = TrafficFeed::quiet();
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    drive(&durable, &feed);
    let overlay = durable.overlay_snapshot();
    let (epoch, tick) = (durable.epoch(), durable.tick());
    drop(durable);

    // First recovery replays and writes a fresh checkpoint…
    let (first, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Replayed);
    drop(first);
    // …so the second one is a pure snapshot load: clean, same state.
    let (second, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Clean);
    assert_eq!(report.replayed_records, 0);
    assert_eq!((second.epoch(), second.tick()), (epoch, tick));
    assert_eq!(second.overlay_snapshot(), overlay);
}

#[test]
fn ttl_expiring_mid_downtime_is_expired_after_recovery() {
    let net = line(8);
    let quiet = TrafficFeed::quiet();

    // Journal: close edge 2 at tick 0 with TTL 2 (absolute expiry 2),
    // then ticks up to 3 — the closure dies at tick 2, *inside* the
    // journaled history. A replayer that re-interpreted the TTL as
    // relative-to-replay-time would resurrect it.
    let dir = temp_dir("ttl_downtime");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("close:2@2").unwrap())
        .unwrap();
    for _ in 0..3 {
        durable.advance_tick(&quiet).unwrap();
    }
    assert_eq!(durable.snapshot().closures(), 0, "expired while alive");
    let column_before = durable.snapshot().weights().to_vec();
    drop(durable);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Replayed);
    assert_eq!(
        recovered.snapshot().closures(),
        0,
        "replay must not resurrect a closure that expired mid-history"
    );
    assert!(!recovered.overlay_snapshot().is_closed(2));
    assert_eq!(recovered.snapshot().weights()[..], column_before[..]);
    assert_eq!(recovered.tick(), 3);
}

#[test]
fn ttl_still_live_at_crash_expires_on_schedule_after_recovery() {
    let net = line(8);
    let quiet = TrafficFeed::quiet();
    let dir = temp_dir("ttl_live");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    durable.advance_tick(&quiet).unwrap(); // tick 1
    durable
        .apply_delta(&TrafficDelta::parse("close:4@3").unwrap()) // expiry 4
        .unwrap();
    drop(durable);

    let (recovered, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert!(
        recovered.overlay_snapshot().is_closed(4),
        "expiry 4 > tick 1"
    );
    recovered.advance_tick(&quiet).unwrap(); // 2
    recovered.advance_tick(&quiet).unwrap(); // 3
    assert!(recovered.overlay_snapshot().is_closed(4));
    let outcome = recovered.advance_tick(&quiet).unwrap(); // 4
    assert_eq!(outcome.expired, 1, "expires exactly at its original tick");
    assert!(!recovered.overlay_snapshot().is_closed(4));
}

#[test]
fn torn_tail_truncates_and_replays_the_prefix() {
    let net = line(8);
    let dir = temp_dir("torn");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("cat:primary*1.5").unwrap())
        .unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("close:3").unwrap())
        .unwrap();
    drop(durable);

    // Chop mid-way into the last record: the crash-during-append shape.
    let journal = dir.join(JOURNAL_FILE);
    let len = std::fs::metadata(&journal).unwrap().len();
    arp_traffic::journal::truncate_journal(&journal, len - 3).unwrap();

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Replayed);
    assert_eq!(report.torn_tails, 1);
    assert_eq!(report.replayed_records, 1);
    assert_eq!(recovered.epoch(), 1, "only the intact record replays");
    assert!(!recovered.overlay_snapshot().is_closed(3));
    // The recovered process keeps serving and journaling normally.
    recovered
        .apply_delta(&TrafficDelta::parse("close:6").unwrap())
        .unwrap();
    assert_eq!(recovered.epoch(), 2);
}

#[test]
fn corrupt_journal_is_quarantined_and_state_degrades_to_base() {
    let net = line(8);
    let dir = temp_dir("quarantine");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("cat:primary*2.0").unwrap())
        .unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("close:3").unwrap())
        .unwrap();
    drop(durable);

    // Flip a bit in the FIRST record's payload: mid-file corruption.
    let journal = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes[10] ^= 0x08;
    std::fs::write(&journal, &bytes).unwrap();

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Degraded);
    assert_eq!(report.quarantined, vec![JOURNAL_FILE.to_string()]);
    assert_eq!(
        report.replayed_records, 0,
        "a corrupt journal replays nothing"
    );
    // No snapshot existed, so the degraded state is the base weights.
    assert_eq!(recovered.epoch(), 0);
    assert_eq!(recovered.snapshot().weights().as_slice(), net.weights());
    assert!(dir.join("journal.wal.quarantine").exists());
    // Serving continues: new deltas journal into a fresh file.
    recovered
        .apply_delta(&TrafficDelta::parse("close:1").unwrap())
        .unwrap();
    let outcome = read_journal_outcome(&journal).unwrap();
    assert_eq!(outcome.records.len(), 1);
}

#[test]
fn checkpoints_bound_the_journal_and_survive_restart() {
    let net = line(8);
    let dir = temp_dir("checkpoint");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.snapshot_every = 2;
    cfg.retain_snapshots = 2;
    cfg.fsync = FsyncPolicy::Interval(4);
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), cfg.clone()).unwrap();
    for i in 0..5 {
        durable
            .apply_delta(&TrafficDelta::parse(&format!("edge:{i}*2.0")).unwrap())
            .unwrap();
    }
    // 5 appends with snapshot_every=2: checkpoints after #2 and #4, so
    // exactly one record (the 5th) remains journaled.
    let outcome = read_journal_outcome(&dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(outcome.records.len(), 1);
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("snap-") && n.ends_with(".arps"))
        .collect();
    assert_eq!(snapshots.len(), 2, "retention keeps exactly 2 snapshots");
    let overlay = durable.overlay_snapshot();
    let epoch = durable.epoch();
    drop(durable);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), cfg).unwrap();
    assert_eq!(report.snapshot_epoch, Some(4));
    assert_eq!(report.replayed_records, 1);
    assert_eq!(recovered.epoch(), epoch);
    assert_eq!(recovered.overlay_snapshot(), overlay);
}

#[test]
fn flush_snapshot_makes_the_next_recovery_clean() {
    let net = line(8);
    let dir = temp_dir("flush");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert!(durable.durable());
    drive(&durable, &TrafficFeed::quiet());
    assert!(durable.flush_snapshot().unwrap(), "flushed a checkpoint");
    let epoch = durable.epoch();
    drop(durable);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Clean);
    assert_eq!(report.replayed_records, 0, "snapshot covers everything");
    assert_eq!(recovered.epoch(), epoch);

    // Non-durable states report flush as a no-op.
    let plain = TrafficState::new(net);
    assert!(!plain.durable());
    assert!(!plain.flush_snapshot().unwrap());
}

#[test]
fn journal_fault_hook_rejects_the_delta_without_moving_the_epoch() {
    let net = line(8);
    let dir = temp_dir("faulthook");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("cat:primary*1.5").unwrap())
        .unwrap();
    assert_eq!(durable.epoch(), 1);
    durable.set_journal_fault_hook(|| Err("disk full (injected)".to_string()));
    let err = durable
        .apply_delta(&TrafficDelta::parse("close:3").unwrap())
        .unwrap_err();
    assert!(matches!(err, arp_traffic::TrafficError::Journal { .. }));
    assert!(err.to_string().contains("disk full"));
    assert_eq!(durable.epoch(), 1, "epoch must not move on journal failure");
    assert_eq!(durable.tick(), 0);
    assert!(!durable.overlay_snapshot().is_closed(3));
    // A failed tick never happened either: tick counter stays put.
    let err = durable.advance_tick(&TrafficFeed::quiet()).unwrap_err();
    assert!(matches!(err, arp_traffic::TrafficError::Journal { .. }));
    assert_eq!(durable.tick(), 0);
    // Journal on disk holds exactly the one accepted record.
    let outcome = read_journal_outcome(&dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(outcome.records.len(), 1);
    // Clearing the hook restores service.
    durable.set_journal_fault_hook(|| Ok(()));
    durable
        .apply_delta(&TrafficDelta::parse("close:3").unwrap())
        .unwrap();
    assert_eq!(durable.epoch(), 2);
}
