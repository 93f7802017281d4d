//! The write-ahead delta journal: every accepted delta batch is appended
//! here **before** the epoch swap publishes, so a crash can lose at most
//! work that was never acknowledged.
//!
//! ## Generations
//!
//! A state directory holds journal *generations*, `journal-<gen>.wal`.
//! Each one opens with a checkpoint — the whole overlay as delta text
//! (`clear; cat:…*f; edge:…*f; close:…@@expiry`), stamped with the
//! epoch and tick it was published under — and then takes every delta
//! appended until the next checkpoint starts generation `gen + 1`. A
//! generation is installed whole ([`Journal::install`]), so it never
//! exists without its checkpoint. Generation numbers are never reused:
//! a new one is numbered above every `journal-<n>` name in the
//! directory, set-aside `*.quarantine` files included.
//!
//! ## Record format
//!
//! A generation is a flat file of length-prefixed, CRC-checksummed
//! records (all integers little-endian):
//!
//! ```text
//! record  := [len: u32] [crc: u32] [payload: len bytes]
//! payload := [epoch: u64] [tick: u64] [delta: UTF-8 text]
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. `epoch` is the epoch the
//! swap will publish, `tick` the feed tick the delta was applied at
//! (closure TTLs are journaled as **absolute** expiry ticks via
//! [`crate::TrafficDelta::to_journal_form`], so replay after downtime
//! can never resurrect an expired closure). A record is written with one
//! `write(2)`, then fsynced per [`FsyncPolicy`]. Text longer than one
//! record holds is split over several records with the same epoch and
//! tick; every part but the last ends in `;`, so a file cut between the
//! parts is told from a complete one.
//!
//! ## Reading and failure classification
//!
//! [`read_journal`] walks the file and classifies what it finds:
//!
//! * a **torn tail** — the final record is incomplete (partial header,
//!   payload shorter than its length prefix, or a checksum mismatch on
//!   the very last record): the valid prefix is kept, the tail is meant
//!   to be truncated away and counted. This is the expected shape of a
//!   crash mid-`write`.
//! * **corruption** — a checksum or framing violation *before* the last
//!   record (a flipped bit, an overwritten region): the file as a whole
//!   is no longer trustworthy (length-prefixed streams cannot resync),
//!   so recovery quarantines it instead of guessing.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one record's payload; anything larger is framing
/// corruption (the HTTP layer caps delta bodies far below this).
pub const MAX_RECORD_BYTES: u32 = 4 << 20;

/// The longest delta text one record carries.
pub const MAX_RECORD_TEXT: usize = MAX_RECORD_BYTES as usize - PAYLOAD_HEADER;

/// Payload bytes before the delta text (epoch + tick).
const PAYLOAD_HEADER: usize = 16;

/// Record header bytes (length prefix + CRC).
const RECORD_HEADER: usize = 8;

/// File name of journal generation `gen` inside a state directory.
pub fn generation_file(gen: u64) -> String {
    format!("journal-{gen}.wal")
}

/// The generation a state-directory entry belongs to, and whether it is
/// the generation's live file: `journal-<gen>.wal` is, while derived
/// names (`journal-<gen>.wal.tmp`, `journal-<gen>.wal.quarantine`) still
/// hold `<gen>` against reuse.
pub fn generation_of(name: &str) -> Option<(u64, bool)> {
    let (digits, rest) = name.strip_prefix("journal-")?.split_once(".wal")?;
    Some((digits.parse().ok()?, rest.is_empty()))
}

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `data` (the checksum in every journal record).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// When the journal calls `fsync` after an append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: a crash loses nothing that was
    /// acknowledged. The default; the right choice everywhere except
    /// benchmarks.
    Always,
    /// `fsync` every N records: bounded loss window, amortized cost.
    Interval(u64),
    /// Never `fsync` explicitly (the OS flushes on its own schedule):
    /// fastest, loses up to the page-cache window on power failure.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag grammar: `always`, `never`, `interval`
    /// (every 8 records) or `interval:<n>`.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(8)),
            other => match other.strip_prefix("interval:") {
                Some(n) => {
                    let n: u64 = n.parse().map_err(|_| format!("bad fsync interval {n:?}"))?;
                    if n == 0 {
                        return Err("fsync interval must be >= 1 (use `always`)".to_string());
                    }
                    Ok(FsyncPolicy::Interval(n))
                }
                None => Err(format!(
                    "bad fsync policy {other:?} (expected always | interval[:n] | never)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(n) => write!(f, "interval:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// The epoch the swap published (replay republishes it verbatim).
    pub epoch: u64,
    /// The feed tick the delta was applied at.
    pub tick: u64,
    /// The delta in journal form (closure TTLs already absolute).
    pub delta: String,
}

/// Receipt for one append: how many bytes landed and whether they were
/// fsynced before returning.
#[derive(Clone, Copy, Debug)]
pub struct AppendReceipt {
    /// Bytes written (header + payload).
    pub bytes: u64,
    /// Whether this append fsynced per the policy.
    pub synced: bool,
}

/// Encodes one record (header + payload) into its on-disk bytes.
pub fn encode_record(epoch: u64, tick: u64, delta: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_HEADER + delta.len());
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&tick.to_le_bytes());
    payload.extend_from_slice(delta.as_bytes());
    let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// The append-side handle to a journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    fsync: FsyncPolicy,
    appends_since_sync: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    pub fn open(path: impl Into<PathBuf>, fsync: FsyncPolicy) -> std::io::Result<Journal> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            file,
            path,
            fsync,
            appends_since_sync: 0,
        })
    }

    /// Installs a new journal file at `path` holding `records` (encoded
    /// bytes) — written to `<path>.tmp`, fsynced, renamed into place and
    /// the directory fsynced, so a reader sees all of it or none — then
    /// opens it for appending.
    pub fn install(
        path: impl Into<PathBuf>,
        records: &[u8],
        fsync: FsyncPolicy,
    ) -> std::io::Result<Journal> {
        let path = path.into();
        let tmp = path.with_extension("wal.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(records)?;
        file.sync_all()?;
        fs::rename(&tmp, &path)?;
        if let Some(dir) = path.parent().and_then(|dir| File::open(dir).ok()) {
            let _ = dir.sync_all();
        }
        Journal::open(path, fsync)
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and applies the fsync policy. Called **before**
    /// the epoch swap publishes; an error here must abort the swap. A
    /// delta longer than [`MAX_RECORD_TEXT`] is refused: no reader would
    /// accept its record.
    pub fn append(&mut self, epoch: u64, tick: u64, delta: &str) -> std::io::Result<AppendReceipt> {
        if delta.len() > MAX_RECORD_TEXT {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("a {}-byte delta exceeds one journal record", delta.len()),
            ));
        }
        let record = encode_record(epoch, tick, delta);
        self.file.write_all(&record)?;
        self.appends_since_sync += 1;
        let synced = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(n) => self.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if synced {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
        }
        Ok(AppendReceipt {
            bytes: record.len() as u64,
            synced,
        })
    }

    /// Forces an fsync regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// What [`read_journal`] found.
#[derive(Clone, Debug, Default)]
pub struct JournalReadOutcome {
    /// The valid record prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// A torn/truncated tail record was detected (and must be truncated
    /// away before re-opening for append).
    pub torn_tail: bool,
    /// Corruption *before* the final record: the file cannot be trusted
    /// and must be quarantined; `records` should not be replayed.
    pub corrupt: bool,
    /// Byte length of the valid prefix (truncate the file to this on a
    /// torn tail).
    pub valid_len: u64,
}

/// Reads and classifies a journal file; see the module docs for the
/// torn-tail vs. corruption rules. A missing file reads as empty.
pub fn read_journal(path: &Path) -> std::io::Result<JournalReadOutcome> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalReadOutcome::default())
        }
        Err(e) => return Err(e),
    }
    let mut outcome = JournalReadOutcome::default();
    let mut off = 0usize;
    while off < buf.len() {
        let remaining = buf.len() - off;
        if remaining < RECORD_HEADER {
            outcome.torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("4 bytes"));
        let body_available = remaining - RECORD_HEADER;
        if len > MAX_RECORD_BYTES as usize || len < PAYLOAD_HEADER {
            // An impossible length prefix. If the claimed payload would
            // run past EOF this is indistinguishable from a torn write;
            // otherwise a full (absurd) record sits mid-file: corruption.
            if len > body_available {
                outcome.torn_tail = true;
            } else {
                outcome.corrupt = true;
            }
            break;
        }
        if len > body_available {
            outcome.torn_tail = true;
            break;
        }
        let payload = &buf[off + RECORD_HEADER..off + RECORD_HEADER + len];
        let at_eof = off + RECORD_HEADER + len == buf.len();
        if crc32(payload) != crc {
            // A bad checksum on the very last record is the torn-write
            // shape; anywhere earlier the file is corrupt.
            if at_eof {
                outcome.torn_tail = true;
            } else {
                outcome.corrupt = true;
            }
            break;
        }
        let epoch = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let tick = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let delta = match std::str::from_utf8(&payload[PAYLOAD_HEADER..]) {
            Ok(s) => s.to_string(),
            Err(_) => {
                // CRC-valid but not UTF-8: a writer bug or a checksum
                // collision — either way, not trustworthy.
                outcome.corrupt = true;
                break;
            }
        };
        outcome.records.push(JournalRecord { epoch, tick, delta });
        off += RECORD_HEADER + len;
        outcome.valid_len = off as u64;
    }
    if outcome.corrupt {
        // Quarantine semantics: a corrupt file's prefix is not replayed.
        outcome.records.clear();
        outcome.valid_len = 0;
    }
    Ok(outcome)
}

/// Truncates a journal to its valid prefix (after a torn tail).
pub fn truncate_journal(path: &Path, valid_len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arp_journal_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(generation_file(1))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = temp_path("roundtrip");
        let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
        j.append(1, 0, "close:3@@5; cat:primary*1.5").unwrap();
        j.append(2, 1, "").unwrap();
        j.append(3, 2, "edge:7*2.0").unwrap();
        let out = read_journal(&path).unwrap();
        assert!(!out.torn_tail && !out.corrupt);
        assert_eq!(out.records.len(), 3);
        assert_eq!(
            out.records[0],
            JournalRecord {
                epoch: 1,
                tick: 0,
                delta: "close:3@@5; cat:primary*1.5".to_string()
            }
        );
        assert_eq!(out.records[1].delta, "");
        assert_eq!(out.records[2].epoch, 3);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let path = temp_path("torn");
        let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
        j.append(1, 0, "close:1").unwrap();
        j.append(2, 0, "close:2").unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        // Chop into the middle of the second record.
        truncate_journal(&path, full - 3).unwrap();
        let out = read_journal(&path).unwrap();
        assert!(out.torn_tail && !out.corrupt);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].epoch, 1);
        // Truncating to the valid prefix then re-reading is clean.
        truncate_journal(&path, out.valid_len).unwrap();
        let again = read_journal(&path).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(again.records.len(), 1);
    }

    #[test]
    fn mid_file_bit_flip_is_corruption_not_a_torn_tail() {
        let path = temp_path("flip");
        let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
        j.append(1, 0, "close:1").unwrap();
        j.append(2, 0, "close:2").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit of the FIRST record.
        bytes[RECORD_HEADER + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let out = read_journal(&path).unwrap();
        assert!(out.corrupt);
        assert!(out.records.is_empty(), "a corrupt file replays nothing");
    }

    #[test]
    fn bad_checksum_on_the_last_record_reads_as_torn() {
        let path = temp_path("lastflip");
        let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
        j.append(1, 0, "close:1").unwrap();
        j.append(2, 0, "close:2").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let out = read_journal(&path).unwrap();
        assert!(out.torn_tail && !out.corrupt);
        assert_eq!(out.records.len(), 1);
    }

    #[test]
    fn missing_file_reads_empty_and_fsync_waits_its_interval() {
        let path = temp_path("interval");
        let out = read_journal(&path).unwrap();
        assert!(out.records.is_empty() && !out.torn_tail && !out.corrupt);
        let mut j = Journal::open(&path, FsyncPolicy::Interval(2)).unwrap();
        let first = j.append(1, 0, "clear").unwrap();
        assert!(!first.synced, "interval:2 defers the first fsync");
        let second = j.append(2, 0, "clear").unwrap();
        assert!(second.synced);
    }

    #[test]
    fn install_writes_whole_records_and_appends_after_them() {
        let path = temp_path("install");
        let mut records = encode_record(7, 3, "clear; close:1");
        records.extend(encode_record(7, 3, "edge:2*2"));
        let mut j = Journal::install(&path, &records, FsyncPolicy::Always).unwrap();
        assert!(!path.with_extension("wal.tmp").exists());
        j.append(8, 3, "close:2").unwrap();
        let out = read_journal(&path).unwrap();
        let epochs: Vec<u64> = out.records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![7, 7, 8]);
    }

    #[test]
    fn a_delta_longer_than_one_record_is_refused() {
        let path = temp_path("oversized");
        let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
        let text = "x".repeat(MAX_RECORD_TEXT + 1);
        assert!(j.append(1, 0, &text).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn generation_names_round_trip() {
        assert_eq!(generation_file(12), "journal-12.wal");
        assert_eq!(generation_of("journal-12.wal"), Some((12, true)));
        assert_eq!(
            generation_of("journal-12.wal.quarantine"),
            Some((12, false))
        );
        assert_eq!(generation_of("journal-3.wal.tmp"), Some((3, false)));
        assert_eq!(generation_of("journal.wal"), None);
        assert_eq!(generation_of("journal-x.wal"), None);
        assert_eq!(generation_of("snap-1.arps"), None);
    }

    #[test]
    fn fsync_policy_grammar() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("interval"), Ok(FsyncPolicy::Interval(8)));
        assert_eq!(
            FsyncPolicy::parse("interval:32"),
            Ok(FsyncPolicy::Interval(32))
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Interval(8).to_string(), "interval:8");
    }
}
