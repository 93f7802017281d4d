//! Property tests for journal corruption handling: for **any**
//! prefix-truncation, **any** single bit-flip and any structured
//! mutation (length prefix, duplicated / swapped / spliced records, an
//! invalid checkpoint) of the newest journal generation, recovery ends
//! in a state the live process published — a valid prefix, or the
//! previous generation after a quarantine — never panics, and never
//! publishes a state that the delta validator would reject.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
use arp_roadnet::category::RoadCategory;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::Point;
use arp_roadnet::weight::Weight;
use arp_traffic::journal::{encode_record, generation_of, read_journal, MAX_RECORD_BYTES};
use arp_traffic::{
    DurabilityConfig, RecoveryStatus, TrafficDelta, TrafficFeed, TrafficOverlay, TrafficState,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// The shared fixture: the journal generations written by driving a
/// real durable state through a mixed delta/tick history with a
/// checkpoint every 4 records, plus the overlay and weight column the
/// live process published at every epoch of that history (epoch 0 = base
/// weights).
struct Fixture {
    net: Arc<RoadNetwork>,
    /// `(file name, bytes)` of every generation, oldest first.
    generations: Vec<(String, Vec<u8>)>,
    /// `published[e]` is what the live process served at epoch `e`.
    published: Vec<(TrafficOverlay, Vec<Weight>)>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();
static CASE: AtomicUsize = AtomicUsize::new(0);

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let net = line(12);
        let dir =
            std::env::temp_dir().join(format!("arp_corruption_fixture_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.snapshot_every = 4;
        let (state, _) = TrafficState::recover_with(Arc::clone(&net), cfg).unwrap();
        let feed = TrafficFeed::new(11, arp_traffic::CityProfile::for_city_name("dhaka"));
        let publish = |state: &TrafficState| {
            (
                state.overlay_snapshot(),
                state.snapshot().weights().to_vec(),
            )
        };
        let mut published = vec![publish(&state)];
        let script = [
            "cat:primary*1.6; close:2@2",
            "edge:5*2.5; close:8",
            "close:4@@7; edge:9*1.5",
            "reopen:8; cat:primary*1.2",
            "close:1@3",
            "edge:5*1.0; clear",
            "cat:primary*1.9; close:6@1",
        ];
        for (i, delta) in script.iter().enumerate() {
            state
                .apply_delta(&TrafficDelta::parse(delta).unwrap())
                .unwrap();
            published.push(publish(&state));
            if i % 2 == 1 {
                state.advance_tick(&feed).unwrap();
                published.push(publish(&state));
            }
        }
        assert_eq!(state.epoch() as usize + 1, published.len());
        let mut generations: Vec<(u64, String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.ok()?.file_name().to_string_lossy().into_owned();
                let (gen, _) = generation_of(&name)?;
                Some((gen, name.clone(), std::fs::read(dir.join(&name)).unwrap()))
            })
            .collect();
        generations.sort();
        assert_eq!(generations.len(), 3, "checkpoints at epochs 4 and 8");
        let _ = std::fs::remove_dir_all(&dir);
        Fixture {
            net,
            generations: generations.into_iter().map(|(_, n, b)| (n, b)).collect(),
            published,
        }
    })
}

/// The records of a well-formed generation, each with its header.
fn records_of(bytes: &[u8]) -> Vec<Vec<u8>> {
    let (mut records, mut off) = (Vec::new(), 0);
    while off < bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        records.push(bytes[off..off + 8 + len].to_vec());
        off += 8 + len;
    }
    records
}

/// Recovers from the fixture's generations up to `gen` (the newest left
/// in the directory), that one mutated by `mutate`, and checks the
/// safety properties shared by every corruption shape. Returns the
/// verdict.
fn check_recovery(
    gen: usize,
    mutate: impl FnOnce(&mut Vec<u8>),
) -> Result<RecoveryStatus, TestCaseError> {
    let fx = fixture();
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("arp_corruption_case_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let gen = gen % fx.generations.len();
    for (name, bytes) in &fx.generations[..gen] {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let (name, bytes) = &fx.generations[gen];
    let mut bytes = bytes.clone();
    mutate(&mut bytes);
    std::fs::write(dir.join(name), &bytes).unwrap();

    // The one decoder never accepts a record past its cap.
    let read = read_journal(&dir.join(name)).unwrap();
    prop_assert!(read
        .records
        .iter()
        .all(|r| 16 + r.delta.len() <= MAX_RECORD_BYTES as usize));

    let mut cfg = DurabilityConfig::new(&dir);
    cfg.snapshot_every = 0;
    // Must not panic and must not refuse to start.
    let (state, report) = TrafficState::recover_with(Arc::clone(&fx.net), cfg).unwrap();

    // The recovered (overlay, epoch) is one the live process published:
    // same epoch numbering, same overlay, byte-identical weight column.
    let epoch = state.epoch() as usize;
    prop_assert!(
        epoch < fx.published.len(),
        "recovered epoch {epoch} beyond the original history"
    );
    let (overlay, column) = &fx.published[epoch];
    prop_assert_eq!(
        &state.overlay_snapshot(),
        overlay,
        "overlay at epoch {}",
        epoch
    );
    let snapshot = state.snapshot();
    prop_assert_eq!(
        snapshot.weights().as_slice(),
        &column[..],
        "recovered column must match the original at epoch {}",
        epoch
    );

    // The recovered overlay re-validates: its own checkpoint text applies
    // to the identity overlay and rebuilds it — corruption can never
    // smuggle in state the delta validator would reject.
    let mut rebuilt = TrafficOverlay::identity();
    let text = state.overlay_snapshot().to_delta().to_string();
    prop_assert!(rebuilt
        .apply(&fx.net, &TrafficDelta::parse(&text).unwrap(), state.tick())
        .is_ok());
    prop_assert_eq!(&rebuilt, overlay);

    // A quarantine is always surfaced as a degraded verdict, and a
    // degraded verdict always has something quarantined, kept on disk.
    prop_assert_eq!(
        report.status == RecoveryStatus::Degraded,
        !report.quarantined.is_empty()
    );
    for name in &report.quarantined {
        let kept = dir.join(name.clone() + ".quarantine").exists();
        prop_assert!(kept, "{} was not kept", name);
    }

    // The recovered state still serves and accepts new deltas.
    state
        .apply_delta(&TrafficDelta::parse("close:0").unwrap())
        .map_err(|e| TestCaseError::fail(format!("post-recovery delta rejected: {e}")))?;

    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report.status)
}

/// Rebuilds a generation from `records` after `edit` rearranged them.
fn rearrange(bytes: &mut Vec<u8>, edit: impl FnOnce(&mut Vec<Vec<u8>>)) {
    let mut records = records_of(bytes);
    edit(&mut records);
    *bytes = records.concat();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any prefix-truncation recovers to a valid prefix (or quarantines).
    #[test]
    fn any_prefix_truncation_recovers_or_quarantines(gen in 0usize..3, cut in 0usize..4096) {
        check_recovery(gen, |bytes| {
            let keep = cut % (bytes.len() + 1);
            bytes.truncate(keep)
        })?;
    }

    /// Any single bit-flip recovers to a valid prefix (or quarantines).
    #[test]
    fn any_single_bit_flip_recovers_or_quarantines(gen in 0usize..3, pos in 0usize..65536) {
        check_recovery(gen, |bytes| {
            let bit = pos % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8)
        })?;
    }

    /// Truncation and a bit-flip combined still never panic and never
    /// publish an invalid state.
    #[test]
    fn truncation_plus_bit_flip_is_still_safe(
        gen in 0usize..3,
        cut in 1usize..4096,
        pos in 0usize..65536,
    ) {
        check_recovery(gen, |bytes| {
            bytes.truncate(1 + cut % bytes.len());
            let bit = pos % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        })?;
    }

    /// Structured mutations — an edited length prefix, a duplicated or
    /// swapped record, a record spliced in from another generation, a
    /// checkpoint whose text fails validation — recover a published
    /// state or base weights. All but the length edit and the splice
    /// (which may land a genuine successor record) must quarantine.
    #[test]
    fn structured_mutations_recover_a_published_state(
        gen in 0usize..3,
        kind in 0usize..5,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let fx = fixture();
        let (a, b) = (a as usize, b as usize);
        let status = check_recovery(gen, |bytes| match kind {
            0 => {
                let records = records_of(bytes);
                let (mut off, i) = (0, a % records.len());
                for record in &records[..i] {
                    off += record.len();
                }
                let len = records[i].len() as u32 - 8;
                let lens = [0, 15, 16, len - 1, len + 1, MAX_RECORD_BYTES + 1, u32::MAX, b as u32];
                let edited = lens[b % lens.len()];
                bytes[off..off + 4].copy_from_slice(&edited.to_le_bytes());
            }
            1 => rearrange(bytes, |records| {
                let i = a % records.len();
                records.insert(i + 1, records[i].clone());
            }),
            2 => rearrange(bytes, |records| {
                let i = a % records.len();
                let j = (i + 1 + b % (records.len() - 1)) % records.len();
                records.swap(i, j);
            }),
            3 => rearrange(bytes, |records| {
                let others = fx.generations.len() - 1;
                let other = (gen % fx.generations.len() + 1 + b % others) % fx.generations.len();
                let donor = records_of(&fx.generations[other].1);
                let at = a % (records.len() + 1);
                records.insert(at, donor[b / 7 % donor.len()].clone());
            }),
            _ => rearrange(bytes, |records| {
                let header = &records[0][8..24];
                let epoch = u64::from_le_bytes(header[..8].try_into().unwrap());
                let tick = u64::from_le_bytes(header[8..].try_into().unwrap());
                let text = ["clear; edge:999*2", "clear; cat:primary*0.5", "edge:1*2"][b % 3];
                records[0] = encode_record(epoch, tick, text);
            }),
        })?;
        if matches!(kind, 1 | 2 | 4) {
            prop_assert_eq!(status, RecoveryStatus::Degraded, "mutation {} must quarantine", kind);
        }
    }
}

/// A length prefix past the record cap, with that many bytes behind it,
/// is corruption: the decoder reads no record out of it.
#[test]
fn a_length_prefix_past_the_cap_is_never_read() {
    let fx = fixture();
    let (name, bytes) = fx.generations.last().unwrap();
    let records = records_of(bytes);
    let mut bytes = records[0].clone();
    let len = MAX_RECORD_BYTES + 1;
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    bytes.resize(bytes.len() + len as usize + 1, b'x');
    let dir = std::env::temp_dir().join(format!("arp_corruption_cap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), &bytes).unwrap();
    let read = read_journal(&dir.join(name)).unwrap();
    assert!(read.corrupt && read.records.is_empty());
    let (state, report) =
        TrafficState::recover_with(Arc::clone(&fx.net), DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(report.status, RecoveryStatus::Degraded);
    assert_eq!(state.epoch(), 0);
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
}
