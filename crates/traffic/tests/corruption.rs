//! Property tests for journal corruption handling: for **any**
//! prefix-truncation and **any** single bit-flip of a journal, recovery
//! either replays a valid prefix of the original history or quarantines
//! the file — it never panics, and it never publishes a state that the
//! delta validator would reject.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
use arp_roadnet::category::RoadCategory;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::Point;
use arp_roadnet::weight::Weight;
use arp_traffic::{
    DurabilityConfig, RecoveryStatus, TrafficDelta, TrafficFeed, TrafficState, JOURNAL_FILE,
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

/// The shared fixture: one journal built by driving a real durable
/// state through a mixed delta/tick history, plus the reference weight
/// column for every epoch of that history (epoch 0 = base weights).
struct Fixture {
    net: Arc<RoadNetwork>,
    journal_bytes: Vec<u8>,
    /// `columns[e]` is the weight column published at epoch `e`.
    columns: Vec<Vec<Weight>>,
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
        cfg.snapshot_every = 0; // keep the whole history in the journal
        let (state, _) = TrafficState::recover_with(Arc::clone(&net), cfg).unwrap();
        let feed = TrafficFeed::new(11, arp_traffic::CityProfile::for_city_name("dhaka"));
        let mut columns = vec![net.weights().to_vec()];
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
            columns.push(state.snapshot().weights().to_vec());
            if i % 2 == 1 {
                state.advance_tick(&feed).unwrap();
                columns.push(state.snapshot().weights().to_vec());
            }
        }
        let journal_bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        Fixture {
            net,
            journal_bytes,
            columns,
        }
    })
}

/// Recovers from a journal mutated by `mutate` and checks the safety
/// properties shared by every corruption shape.
fn check_recovery(mutate: impl FnOnce(&mut Vec<u8>)) -> Result<(), TestCaseError> {
    let fx = fixture();
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("arp_corruption_case_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes = fx.journal_bytes.clone();
    mutate(&mut bytes);
    std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();

    let mut cfg = DurabilityConfig::new(&dir);
    cfg.snapshot_every = 0;
    // Must not panic and must not refuse to start.
    let (state, report) = TrafficState::recover_with(Arc::clone(&fx.net), cfg).unwrap();

    // The published state is always a valid prefix of the original
    // history: same epoch numbering, byte-identical weight column.
    let epoch = state.epoch() as usize;
    prop_assert!(
        epoch < fx.columns.len(),
        "recovered epoch {epoch} beyond the original history"
    );
    let snapshot = state.snapshot();
    prop_assert_eq!(
        snapshot.weights().as_slice(),
        &fx.columns[epoch][..],
        "recovered column must match the original at epoch {}",
        epoch
    );

    // The recovered overlay re-validates: rebuilding it from its own
    // entries (factor/category checks) and re-checking edge ranges must
    // succeed — corruption can never smuggle in invalid state.
    let overlay = state.overlay_snapshot();
    let rebuilt = arp_traffic::TrafficOverlay::from_parts(
        &overlay.category_factor_entries(),
        &overlay.edge_factor_entries(),
        &overlay.closure_entries(),
    );
    prop_assert!(rebuilt.is_some(), "recovered overlay fails re-validation");
    let num_edges = fx.net.num_edges();
    prop_assert!(overlay
        .edge_factor_entries()
        .iter()
        .all(|&(edge, _)| (edge as usize) < num_edges));
    prop_assert!(overlay
        .closure_entries()
        .iter()
        .all(|&(edge, _)| (edge as usize) < num_edges));

    // A quarantine is always surfaced as a degraded verdict, and a
    // degraded verdict always has something quarantined.
    prop_assert_eq!(
        report.status == RecoveryStatus::Degraded,
        !report.quarantined.is_empty()
    );

    // The recovered state still serves and accepts new deltas.
    state
        .apply_delta(&TrafficDelta::parse("close:0").unwrap())
        .map_err(|e| TestCaseError::fail(format!("post-recovery delta rejected: {e}")))?;

    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any prefix-truncation recovers to a valid prefix (or quarantines).
    #[test]
    fn any_prefix_truncation_recovers_or_quarantines(cut in 0usize..4096) {
        let len = fixture().journal_bytes.len();
        let keep = cut % (len + 1);
        check_recovery(|bytes| bytes.truncate(keep))?;
    }

    /// Any single bit-flip recovers to a valid prefix (or quarantines).
    #[test]
    fn any_single_bit_flip_recovers_or_quarantines(pos in 0usize..65536) {
        let len = fixture().journal_bytes.len();
        let bit = pos % (len * 8);
        check_recovery(|bytes| bytes[bit / 8] ^= 1 << (bit % 8))?;
    }

    /// Truncation and a bit-flip combined still never panic and never
    /// publish an invalid state.
    #[test]
    fn truncation_plus_bit_flip_is_still_safe(cut in 1usize..4096, pos in 0usize..65536) {
        let len = fixture().journal_bytes.len();
        let keep = 1 + cut % len;
        check_recovery(|bytes| {
            bytes.truncate(keep);
            let bit = pos % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        })?;
    }
}
