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
use arp_traffic::journal::{generation_file, read_journal as read_journal_outcome};
use arp_traffic::{
    DurabilityConfig, FsyncPolicy, RecoveryStatus, TrafficDelta, TrafficFeed, TrafficState,
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

/// The file names in `dir` that end in `suffix`, sorted.
fn files_ending(dir: &PathBuf, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    names
}

/// Flips one bit inside the first record (the checkpoint) of the
/// generation at `path`: mid-file corruption.
fn corrupt_checkpoint(path: &PathBuf) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[10] ^= 0x08;
    std::fs::write(path, &bytes).unwrap();
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
    let journal = durable.journal_path().unwrap();
    drop(durable);

    // Chop mid-way into the last record: the crash-during-append shape.
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
    let journal = durable.journal_path().unwrap();
    drop(durable);

    // Flip a bit in the FIRST record's payload: mid-file corruption.
    corrupt_checkpoint(&journal);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Degraded);
    assert_eq!(report.quarantined, vec![generation_file(1)]);
    assert_eq!(
        report.replayed_records, 0,
        "a corrupt journal replays nothing"
    );
    // No older generation existed, so the degraded state is the base
    // weights.
    assert_eq!(recovered.epoch(), 0);
    assert_eq!(recovered.snapshot().weights().as_slice(), net.weights());
    assert!(dir.join("journal-1.wal.quarantine").exists());
    // Serving continues: new deltas journal into a fresh generation,
    // after its checkpoint.
    recovered
        .apply_delta(&TrafficDelta::parse("close:1").unwrap())
        .unwrap();
    let live = recovered.journal_path().unwrap();
    assert_eq!(live, dir.join(generation_file(2)));
    let outcome = read_journal_outcome(&live).unwrap();
    assert_eq!(outcome.records.len(), 2);
}

#[test]
fn checkpoints_bound_the_journal_and_survive_restart() {
    let net = line(8);
    let dir = temp_dir("checkpoint");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.snapshot_every = 2;
    cfg.fsync = FsyncPolicy::Interval(4);
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), cfg.clone()).unwrap();
    for i in 0..5 {
        durable
            .apply_delta(&TrafficDelta::parse(&format!("edge:{i}*2.0")).unwrap())
            .unwrap();
    }
    // 5 appends with snapshot_every=2: checkpoints after #2 and #4, so
    // the live generation holds its checkpoint and one record (the 5th).
    let outcome = read_journal_outcome(&durable.journal_path().unwrap()).unwrap();
    assert_eq!(outcome.records.len(), 2);
    assert_eq!(
        files_ending(&dir, ".wal"),
        ["journal-1.wal", "journal-2.wal", "journal-3.wal"],
        "the fresh generation and one per checkpoint"
    );
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
    // Journal on disk holds its checkpoint and the one accepted record.
    let outcome = read_journal_outcome(&durable.journal_path().unwrap()).unwrap();
    assert_eq!(outcome.records.len(), 2);
    // Clearing the hook restores service.
    durable.set_journal_fault_hook(|| Ok(()));
    durable
        .apply_delta(&TrafficDelta::parse("close:3").unwrap())
        .unwrap();
    assert_eq!(durable.epoch(), 2);
}

#[test]
fn retention_keeps_the_newest_three_generations() {
    let net = line(8);
    let dir = temp_dir("retention");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.snapshot_every = 2;
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), cfg.clone()).unwrap();
    for i in 0..9 {
        durable
            .apply_delta(&TrafficDelta::parse(&format!("edge:{i}*2.0")).unwrap())
            .unwrap();
    }
    // Generation 1 from the fresh start, 2..=5 from four checkpoints.
    assert_eq!(
        files_ending(&dir, ".wal"),
        ["journal-3.wal", "journal-4.wal", "journal-5.wal"]
    );
    let overlay = durable.overlay_snapshot();
    drop(durable);
    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), cfg).unwrap();
    assert_eq!(report.snapshot_epoch, Some(8));
    assert_eq!(report.replayed_records, 1);
    assert_eq!(
        (recovered.epoch(), recovered.overlay_snapshot()),
        (9, overlay)
    );
}

/// Quarantine never destroys evidence: every corrupt generation keeps
/// its own `*.quarantine` file, however many restarts find one.
#[test]
fn two_corruptions_across_two_restarts_leave_two_quarantine_files() {
    let net = line(8);
    let dir = temp_dir("two_quarantines");
    let (mut state, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    for round in 0..2 {
        state
            .apply_delta(&TrafficDelta::parse("close:3; edge:1*2.0").unwrap())
            .unwrap();
        corrupt_checkpoint(&state.journal_path().unwrap());
        drop(state);
        let report;
        (state, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
        assert_eq!(report.status, RecoveryStatus::Degraded, "round {round}");
        assert_eq!(state.epoch(), 0, "no older generation: base weights");
    }
    assert_eq!(
        files_ending(&dir, ".quarantine"),
        ["journal-1.wal.quarantine", "journal-2.wal.quarantine"]
    );
    assert_eq!(state.journal_path().unwrap(), dir.join(generation_file(3)));
}

/// Generations are numbered, not named by epoch: a checkpoint taken
/// after the epoch counter wrapped is still the newest one.
#[test]
fn a_durable_state_past_a_forced_wrap_recovers_epoch_for_epoch() {
    let net = line(8);
    let dir = temp_dir("wrap");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    for delta in ["cat:primary*1.5", "close:2", "edge:6*1.5"] {
        durable
            .apply_delta(&TrafficDelta::parse(delta).unwrap())
            .unwrap();
    }
    // Epoch 3 here, epoch 1 after the wrap: an epoch-ordered layout
    // would take this checkpoint for the newer one.
    assert!(durable.flush_snapshot().unwrap());
    durable.force_epoch(u64::MAX);
    durable
        .apply_delta(&TrafficDelta::parse("edge:4*3.0").unwrap())
        .unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("reopen:2").unwrap())
        .unwrap();
    assert_eq!(durable.epoch(), 1, "u64::MAX wrapped to 0, then 1");
    assert!(durable.flush_snapshot().unwrap());
    let (overlay, column) = (
        durable.overlay_snapshot(),
        durable.snapshot().weights().to_vec(),
    );
    drop(durable);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Clean);
    assert_eq!(report.snapshot_epoch, Some(1));
    assert_eq!(recovered.epoch(), 1);
    assert_eq!(recovered.overlay_snapshot(), overlay);
    assert_eq!(recovered.snapshot().weights()[..], column[..]);
}

/// A generation's records carry the wrap too: a crash after the forced
/// epoch, before any checkpoint, replays the wrapped numbering.
#[test]
fn a_crash_after_a_forced_wrap_replays_the_wrapped_epochs() {
    let net = line(8);
    let dir = temp_dir("wrap_crash");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    durable
        .apply_delta(&TrafficDelta::parse("close:2").unwrap())
        .unwrap();
    durable.force_epoch(u64::MAX);
    durable
        .apply_delta(&TrafficDelta::parse("edge:4*3.0").unwrap())
        .unwrap();
    let overlay = durable.overlay_snapshot();
    drop(durable);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Replayed);
    assert_eq!(report.snapshot_epoch, Some(u64::MAX));
    assert_eq!(
        (recovered.epoch(), recovered.overlay_snapshot()),
        (0, overlay)
    );
}

/// The fallback rung restores a state the live process published: with a
/// checkpoint every 2 records, five deltas leave generations opening at
/// epochs 0, 2 and 4; corrupting the newest checkpoint falls back to the
/// generation that ran from epoch 2 through epoch 4.
#[test]
fn a_corrupt_newest_checkpoint_falls_back_to_what_epoch_4_published() {
    let net = line(8);
    let dir = temp_dir("fallback");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.snapshot_every = 2;
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), cfg.clone()).unwrap();
    let mut published = Vec::new();
    for delta in [
        "edge:1*2.0",
        "close:2",
        "cat:primary*1.5",
        "reopen:2",
        "edge:1*3.0",
    ] {
        durable
            .apply_delta(&TrafficDelta::parse(delta).unwrap())
            .unwrap();
        published.push((
            durable.overlay_snapshot(),
            durable.snapshot().weights().to_vec(),
        ));
    }
    let newest = durable.journal_path().unwrap();
    assert_eq!(newest, dir.join(generation_file(3)));
    drop(durable);
    corrupt_checkpoint(&newest);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), cfg).unwrap();
    assert_eq!(report.status, RecoveryStatus::Degraded);
    assert_eq!(report.quarantined, vec![generation_file(3)]);
    assert_eq!(report.snapshot_epoch, Some(2));
    assert_eq!(recovered.epoch(), 4);
    let (overlay, column) = &published[3];
    assert_eq!(&recovered.overlay_snapshot(), overlay);
    assert_eq!(recovered.snapshot().weights()[..], column[..]);
}

/// A checkpoint longer than one record holds is split over several and
/// still recovers exactly.
#[test]
fn a_checkpoint_past_max_record_bytes_recovers_exactly() {
    let net = line(130_001);
    let edges = net.num_edges();
    let dir = temp_dir("split");
    let (durable, _) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    for chunk in (0..edges).collect::<Vec<_>>().chunks(26_000) {
        let text: Vec<String> = chunk.iter().map(|e| format!("edge:{e}*2.75")).collect();
        durable
            .apply_delta(&TrafficDelta::parse(&text.join("; ")).unwrap())
            .unwrap();
    }
    durable
        .apply_delta(&TrafficDelta::parse("cat:primary*1.25; close:7@@90; close:9").unwrap())
        .unwrap();
    assert!(durable.flush_snapshot().unwrap());
    let checkpoint = read_journal_outcome(&durable.journal_path().unwrap()).unwrap();
    assert!(checkpoint.records.len() >= 2, "the checkpoint is split");
    assert!(checkpoint
        .records
        .iter()
        .all(|r| r.epoch == durable.epoch()));
    let (overlay, column) = (
        durable.overlay_snapshot(),
        durable.snapshot().weights().to_vec(),
    );
    assert_eq!(overlay.num_edge_factors(), edges);
    drop(durable);

    let (recovered, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Clean);
    assert_eq!(report.replayed_records, 0, "split parts are the checkpoint");
    assert_eq!(recovered.overlay_snapshot(), overlay);
    assert_eq!(recovered.snapshot().weights()[..], column[..]);

    // A generation cut between the parts is no checkpoint at all.
    let live = recovered.journal_path().unwrap();
    drop(recovered);
    let first = read_journal_outcome(&live).unwrap().records[0].clone();
    assert!(first.delta.ends_with(';'));
    let cut = 8 + 16 + first.delta.len() as u64;
    arp_traffic::journal::truncate_journal(&live, cut).unwrap();
    let (fallback, report) = TrafficState::recover_with(Arc::clone(&net), config(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Degraded);
    assert_eq!(
        fallback.overlay_snapshot(),
        overlay,
        "the previous generation"
    );
}
