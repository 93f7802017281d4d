//! Startup recovery: rebuild a [`crate::TrafficState`] from a state
//! directory so a restarted process is **epoch-for-epoch identical** to
//! the process that never crashed.
//!
//! ## The replay invariant
//!
//! State lives in journal generations (see [`crate::journal`]): each
//! opens with a checkpoint of the whole overlay and goes on with every
//! delta published after it. Recovery replays the newest generation that
//! reads clean, starting from the identity overlay at tick 0, through
//! the *same* code path the live swap takes: every record — the
//! checkpoint's, then each delta's — is one overlay step (a record whose
//! tick is later expires the closures due by then; then its delta
//! applies at its tick) and republishes its journaled epoch verbatim.
//! The checkpoint opens with `clear`, so it lands exactly the state it
//! captured, and because journaled deltas carry **absolute** closure
//! expiries, replay is insensitive to how long the process was down.
//!
//! ## Failure ladder
//!
//! Recovery never refuses to start:
//!
//! 1. **Torn tail** — the generation's last record is incomplete (a
//!    crash mid-write): truncate it away, count it, replay the valid
//!    prefix.
//! 2. **Corrupt generation** — a mid-file checksum or framing violation,
//!    a first record that is not a checkpoint, a record whose epoch does
//!    not follow its predecessor's (records out of order, repeated or
//!    spliced in), a record cut inside a split checkpoint, or a delta
//!    that no longer validates: quarantine the file
//!    (`journal-<gen>.wal.quarantine`) and fall back to the previous
//!    generation, which holds every record up to the quarantined one's
//!    checkpoint; with none left, base weights. Verdict `degraded`.
//!
//! Whatever recovery established beyond a bare checkpoint (replayed
//! records, a torn tail, a quarantine) is folded into a new generation,
//! so the next start is clean. The verdict is surfaced in the
//! `/api/health` `recovery` block.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use arp_roadnet::csr::RoadNetwork;

use crate::delta::{TrafficDelta, TrafficOp};
use crate::error::TrafficError;
use crate::journal::{
    encode_record, generation_file, generation_of, read_journal, truncate_journal, FsyncPolicy,
    Journal, JournalReadOutcome, JournalRecord, MAX_RECORD_TEXT,
};
use crate::metrics::DurabilityMetrics;
use crate::overlay::TrafficOverlay;

/// Journal generations kept after each checkpoint: the live one and the
/// two it can fall back to.
const RETAINED_GENERATIONS: usize = 3;

/// Configuration of the durability layer (the `--state-dir`, `--fsync`
/// and `--snapshot-every` serve flags).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// The state directory (journal generations). Created if absent.
    pub dir: PathBuf,
    /// When journal appends fsync. Default: [`FsyncPolicy::Always`].
    pub fsync: FsyncPolicy,
    /// Start a new journal generation with a checkpoint every N journaled
    /// records; `0` disables periodic checkpoints. Default: 32.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Defaults (fsync `always`, checkpoint every 32 records) over `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 32,
        }
    }
}

/// The verdict of a startup recovery, surfaced by `/api/health`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryStatus {
    /// Nothing to repair: empty state dir, or a generation holding its
    /// checkpoint and nothing after it.
    Clean,
    /// State was rebuilt by replaying the records after a checkpoint (a
    /// torn tail may have been truncated away); the rebuilt state is
    /// exact.
    Replayed,
    /// A corrupt generation was quarantined: the process serves the
    /// newest state that could be proven intact (possibly base weights).
    /// Operator attention required — see OPERATIONS.md.
    Degraded,
}

impl RecoveryStatus {
    /// The lower-case verdict string used in `/api/health` and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryStatus::Clean => "clean",
            RecoveryStatus::Replayed => "replayed",
            RecoveryStatus::Degraded => "degraded",
        }
    }
}

/// What a startup recovery found and did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The overall verdict.
    pub status: RecoveryStatus,
    /// Epoch of the checkpoint that opens the replayed generation
    /// (`None` = no generation survived, started from base weights).
    pub snapshot_epoch: Option<u64>,
    /// Journal records replayed after that checkpoint.
    pub replayed_records: usize,
    /// Torn tail records truncated away (0 or 1 per recovery).
    pub torn_tails: usize,
    /// File names quarantined as corrupt (renamed to `*.quarantine`).
    pub quarantined: Vec<String>,
    /// The epoch the recovered state serves.
    pub epoch: u64,
    /// The feed tick the recovered state resumes at.
    pub tick: u64,
    /// Wall-clock duration of the recovery.
    pub duration_ms: u64,
}

/// Injectable failure hook fired before every journal append (the
/// `journal.append` failpoint site). `arp-traffic` has no dependency on
/// the serving tier's `FaultPlan`, so the demo layer installs a closure.
pub type JournalFaultHook = Box<dyn Fn() -> Result<(), String> + Send + Sync>;

/// The attached durability machinery of a recovered [`crate::TrafficState`]:
/// the live journal generation and the checkpoint cadence.
pub(crate) struct Durability {
    dir: PathBuf,
    fsync: FsyncPolicy,
    journal: Mutex<Journal>,
    snapshot_every: u64,
    records_since_checkpoint: AtomicU64,
    fault_hook: RwLock<Option<JournalFaultHook>>,
    metrics: DurabilityMetrics,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.dir)
            .field("snapshot_every", &self.snapshot_every)
            .finish_non_exhaustive()
    }
}

impl Durability {
    /// Appends one record to the journal (firing the failpoint hook
    /// first). Called **before** the epoch swap publishes; an error here
    /// must abort the swap, so the caller translates it into
    /// [`TrafficError::Journal`] and leaves state untouched.
    pub(crate) fn append(&self, epoch: u64, tick: u64, delta: &str) -> Result<(), TrafficError> {
        if let Some(hook) = self.fault_hook.read().expect("fault hook lock").as_ref() {
            hook().map_err(|reason| TrafficError::Journal { reason })?;
        }
        let receipt = self
            .journal
            .lock()
            .expect("journal lock")
            .append(epoch, tick, delta)
            .map_err(journal_err)?;
        self.metrics.journal_records.inc();
        self.metrics.journal_bytes.add(receipt.bytes);
        if receipt.synced {
            self.metrics.journal_fsyncs.inc();
        }
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// True once enough records accumulated to warrant a checkpoint.
    pub(crate) fn should_checkpoint(&self) -> bool {
        self.snapshot_every > 0
            && self.records_since_checkpoint.load(Ordering::Relaxed) >= self.snapshot_every
    }

    /// Starts a new generation with a checkpoint of `overlay` as
    /// published at `epoch` and `tick`, and moves the appender to it.
    /// The caller holds the traffic state still, so no append interleaves.
    pub(crate) fn checkpoint(
        &self,
        epoch: u64,
        tick: u64,
        overlay: &TrafficOverlay,
    ) -> Result<(), TrafficError> {
        let mut journal = self.journal.lock().expect("journal lock");
        // The generation being closed must hold every record up to this
        // checkpoint: a fallback to it after a corrupt successor loses
        // nothing, whatever the fsync policy deferred.
        journal.sync().map_err(journal_err)?;
        *journal = install_generation(&self.dir, epoch, tick, overlay, self.fsync, &self.metrics)
            .map_err(journal_err)?;
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// The live generation's file.
    pub(crate) fn journal_path(&self) -> PathBuf {
        self.journal
            .lock()
            .expect("journal lock")
            .path()
            .to_path_buf()
    }

    /// Installs (or clears) the `journal.append` failpoint hook.
    pub(crate) fn set_fault_hook(&self, hook: Option<JournalFaultHook>) {
        *self.fault_hook.write().expect("fault hook lock") = hook;
    }
}

/// The rebuilt state [`recover`] hands back to `TrafficState`.
pub(crate) struct RecoveredState {
    pub(crate) overlay: TrafficOverlay,
    pub(crate) tick: u64,
    pub(crate) epoch: u64,
    pub(crate) durability: Durability,
    pub(crate) report: RecoveryReport,
}

fn journal_err(e: std::io::Error) -> TrafficError {
    TrafficError::Journal {
        reason: e.to_string(),
    }
}

/// The generations in `dir`: the live files' numbers, oldest first, and
/// the number the next generation takes — one above every `journal-<n>`
/// name present, quarantined and temporary files included.
fn generations(dir: &Path) -> std::io::Result<(Vec<u64>, u64)> {
    let (mut live, mut next) = (Vec::new(), 1);
    for entry in fs::read_dir(dir)? {
        if let Some((gen, is_live)) = generation_of(&entry?.file_name().to_string_lossy()) {
            next = next.max(gen.saturating_add(1));
            if is_live {
                live.push(gen);
            }
        }
    }
    live.sort_unstable();
    Ok((live, next))
}

/// Writes the next generation — `overlay`'s checkpoint at `epoch` and
/// `tick`, split into records that each fit — opens it for appending and
/// prunes all but the newest [`RETAINED_GENERATIONS`].
fn install_generation(
    dir: &Path,
    epoch: u64,
    tick: u64,
    overlay: &TrafficOverlay,
    fsync: FsyncPolicy,
    metrics: &DurabilityMetrics,
) -> std::io::Result<Journal> {
    let mut records = Vec::new();
    let mut part = String::new();
    for op in overlay.to_delta().ops {
        let statement = op.to_string();
        // Room for "; " before the statement and the `;` that marks a
        // part as continued.
        if !part.is_empty() && part.len() + statement.len() + 3 > MAX_RECORD_TEXT {
            part.push(';');
            records.extend(encode_record(epoch, tick, &part));
            part.clear();
        }
        if !part.is_empty() {
            part.push_str("; ");
        }
        part.push_str(&statement);
    }
    records.extend(encode_record(epoch, tick, &part));
    let (live, next) = generations(dir)?;
    let journal = Journal::install(dir.join(generation_file(next)), &records, fsync)?;
    metrics.snapshot_writes.inc();
    let excess = (live.len() + 1).saturating_sub(RETAINED_GENERATIONS);
    for gen in &live[..excess] {
        if fs::remove_file(dir.join(generation_file(*gen))).is_ok() {
            metrics.snapshot_prunes.inc();
        }
    }
    Ok(journal)
}

/// A generation replayed from identity.
struct Replayed {
    overlay: TrafficOverlay,
    tick: u64,
    epoch: u64,
    checkpoint_epoch: u64,
    /// Records after the checkpoint's.
    records: usize,
}

/// Replays one generation's records through the live swap's overlay
/// step, or `None` if the generation does not read clean (see the
/// failure ladder in the module docs).
fn replay(net: &RoadNetwork, read: &JournalReadOutcome) -> Option<Replayed> {
    let first = read.records.first().filter(|_| !read.corrupt)?;
    // A part ending in `;` continues in the next record, under the same
    // epoch: the checkpoint runs up to the first part that does not, and
    // a generation cut before that part has no checkpoint.
    let continued = |rec: &JournalRecord| rec.delta.ends_with(';');
    let checkpoint_records = 1 + read.records.iter().position(|rec| !continued(rec))?;
    let last = read.records.last()?;
    let (mut overlay, mut tick, mut expected) = (TrafficOverlay::identity(), 0, first.epoch);
    for (i, rec) in read.records.iter().enumerate() {
        let delta = TrafficDelta::parse(&rec.delta).ok()?;
        if rec.epoch != expected || (i == 0 && delta.ops.first() != Some(&TrafficOp::Clear)) {
            return None;
        }
        overlay.step(net, &delta, tick, rec.tick).ok()?;
        tick = rec.tick;
        expected = rec.epoch.wrapping_add(u64::from(!continued(rec)));
    }
    Some(Replayed {
        overlay,
        tick,
        epoch: last.epoch,
        checkpoint_epoch: first.epoch,
        records: read.records.len() - checkpoint_records,
    })
}

/// Rebuilds the traffic state from `config.dir` per the module-level
/// failure ladder. Errors only on unrecoverable I/O (the directory or a
/// generation cannot be read, created or opened at all) — data
/// corruption degrades, it never errors.
pub(crate) fn recover(
    net: &RoadNetwork,
    config: &DurabilityConfig,
    metrics: DurabilityMetrics,
) -> Result<RecoveredState, TrafficError> {
    let start = Instant::now();
    fs::create_dir_all(&config.dir).map_err(journal_err)?;
    let (live, _) = generations(&config.dir).map_err(journal_err)?;
    let (mut quarantined, mut torn_tails, mut found) = (Vec::new(), 0usize, None);
    for gen in live.into_iter().rev() {
        let name = generation_file(gen);
        let path = config.dir.join(&name);
        let read = read_journal(&path).map_err(journal_err)?;
        match replay(net, &read) {
            Some(replayed) => {
                if read.torn_tail {
                    torn_tails += 1;
                    let _ = truncate_journal(&path, read.valid_len);
                }
                found = Some((path, replayed));
                break;
            }
            None => {
                // Generation numbers are never reused, so this name is
                // free: an earlier quarantine's evidence stays put.
                let _ = fs::rename(&path, path.with_extension("wal.quarantine"));
                quarantined.push(name);
            }
        }
    }

    let (overlay, tick, epoch, snapshot_epoch, replayed, live) = match found {
        Some((path, r)) => (
            r.overlay,
            r.tick,
            r.epoch,
            Some(r.checkpoint_epoch),
            r.records,
            Some(path),
        ),
        None => (TrafficOverlay::identity(), 0, 0, None, 0, None),
    };
    metrics.journal_torn_tails.add(torn_tails as u64);
    metrics.journal_quarantines.add(quarantined.len() as u64);
    metrics.recovery_replayed.set(replayed as i64);

    let journal = match &live {
        Some(path) => Journal::open(path, config.fsync),
        None => install_generation(&config.dir, 0, 0, &overlay, config.fsync, &metrics),
    };
    let durability = Durability {
        dir: config.dir.clone(),
        fsync: config.fsync,
        journal: Mutex::new(journal.map_err(journal_err)?),
        snapshot_every: config.snapshot_every,
        records_since_checkpoint: AtomicU64::new(0),
        fault_hook: RwLock::new(None),
        metrics,
    };
    // Fold whatever recovery established into a new generation so the
    // next restart starts clean (best-effort: on failure the surviving
    // generation stays the append target and the next recovery
    // re-replays).
    if live.is_some() && (replayed > 0 || torn_tails > 0 || !quarantined.is_empty()) {
        let _ = durability.checkpoint(epoch, tick, &overlay);
    }
    let duration_ms = start.elapsed().as_millis() as u64;
    durability.metrics.recovery_ms.set(duration_ms as i64);
    let status = if !quarantined.is_empty() {
        RecoveryStatus::Degraded
    } else if replayed > 0 || torn_tails > 0 {
        RecoveryStatus::Replayed
    } else {
        RecoveryStatus::Clean
    };
    let report = RecoveryReport {
        status,
        snapshot_epoch,
        replayed_records: replayed,
        torn_tails,
        quarantined,
        epoch,
        tick,
        duration_ms,
    };
    Ok(RecoveredState {
        overlay,
        tick,
        epoch,
        durability,
        report,
    })
}
