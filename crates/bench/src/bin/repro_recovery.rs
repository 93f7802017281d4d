//! Crash-recovery equivalence drill for the durable traffic state: on
//! all three study cities, drive a reference run through a mixed
//! delta/tick schedule, then crash it at random points — a byte-level
//! truncation of the write-ahead journal, roughly a third of them mid-
//! record (a torn tail) — and *assert* that the recovered process serves
//! byte-identical routes: the weight state replays epoch for epoch, the
//! recovered epoch's routes match the reference's routes at that epoch,
//! and driving the remaining schedule lands on the reference's final
//! routes exactly. A per-city quarantine drill additionally flips a bit
//! in the newest journal generation's checkpoint and asserts the state
//! degrades to the previous generation — everything up to that
//! checkpoint — instead of refusing to start.
//!
//! The report lands in `reports/recovery.txt`; CI fails on any route
//! mismatch or if fewer than 20 crash points ran.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_recovery
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use arp_citygen::{City, Scale};
use arp_core::SearchBudget;
use arp_demo::query::{QueryProcessor, SnappedQuery};
use arp_roadnet::csr::RoadNetwork;
use arp_traffic::{CityProfile, DurabilityConfig, RecoveryStatus, TrafficDelta, TrafficFeed};

/// Random byte-level crash points per city (3 cities → 21, plus one
/// quarantine drill each → 24 total; CI gates on ≥ 20).
const CRASH_POINTS_PER_CITY: usize = 7;
/// Route-comparison query pairs per city.
const PAIRS: usize = 2;
/// Seed for the crash-point positions.
const MASTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The event schedule every run replays: `Some(delta)` is an operator
/// delta through the ingest path, `None` a feed tick. Mixes category and
/// edge factors, relative-TTL closures (expiring mid-history), an
/// absolute-expiry closure, a reopen, a factor removal and a `clear` so
/// the journal exercises every op the grammar has.
fn schedule() -> Vec<Option<&'static str>> {
    vec![
        Some("cat:primary*1.4"),
        None,
        None,
        Some("close:7@2; edge:11*1.8"),
        None,
        None,
        None,
        Some("close:13@@9"),
        None,
        None,
        Some("cat:residential*1.6; close:21@5"),
        None,
        None,
        None,
        None,
        Some("reopen:21; edge:11*1.2"),
        None,
        None,
        Some("cat:primary*1.1; edge:33*2.0"),
        None,
        None,
        None,
        Some("close:5"),
        None,
        None,
        Some("edge:33*1.0; cat:residential*1.3"),
        None,
        None,
        None,
        None,
    ]
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A byte-exact signature of the routes all four techniques serve for
/// the comparison pairs, each prepared like a served request, under the
/// processor's *current* traffic epoch: per approach, every route's exact
/// cost and full edge sequence. Equal signatures = route-equivalent.
fn route_signature(processor: &QueryProcessor, pairs: &[SnappedQuery]) -> String {
    let (mut sig, unlimited) = (String::new(), SearchBudget::unlimited());
    for pair in pairs {
        let prepared = processor.prepare_substrate(processor.prepare_query(*pair), &unlimited);
        for slot in 0..processor.technique_slots() {
            match processor.compute_slot_prepared(&prepared, slot, &unlimited) {
                Ok((approach, _)) => {
                    let _ = write!(sig, "{}:", approach.label);
                    for route in &approach.routes {
                        let _ = write!(sig, "{}|{:?};", route.cost_ms, route.edges);
                    }
                }
                // A closure may disconnect a pair mid-history; the error
                // is part of the signature and must reproduce too.
                Err(e) => {
                    let _ = write!(sig, "{}:ERR {e};", processor.slot_label(slot));
                }
            }
        }
        sig.push('\n');
    }
    sig
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arp_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_processor(
    name: &str,
    net: &RoadNetwork,
    dir: &Path,
) -> (QueryProcessor, arp_traffic::RecoveryReport) {
    let mut config = DurabilityConfig::new(dir);
    // Keep the whole history in one journal generation so a byte cut can
    // land on any record; the quarantine drill flushes its own checkpoint.
    config.snapshot_every = 0;
    let processor = QueryProcessor::new(name.to_string(), net.clone(), 7)
        .with_traffic_durability(config)
        .expect("recovery never refuses to start");
    let report = processor
        .recovery_report()
        .expect("durability enabled")
        .clone();
    (processor, report)
}

/// Applies event `i` of the schedule to a processor's traffic state.
fn apply_event(processor: &QueryProcessor, feed: &TrafficFeed, event: Option<&str>) {
    match event {
        Some(delta) => {
            processor
                .traffic()
                .apply_delta(&TrafficDelta::parse(delta).unwrap())
                .expect("schedule deltas are valid");
        }
        None => {
            processor.traffic().advance_tick(feed).expect("tick");
        }
    }
}

struct CityOutcome {
    name: String,
    crash_points: usize,
    torn: usize,
    mismatches: usize,
    quarantine_ok: bool,
}

fn drill_city(city: City, seed_lane: u64) -> CityOutcome {
    let generated = arp_bench::generate_city(city, Scale::Small);
    let name = generated.name.clone();
    let net = generated.network;
    let feed = TrafficFeed::new(11, CityProfile::for_city_name(&name));
    let pairs: Vec<SnappedQuery> =
        arp_bench::random_queries(&net, PAIRS, 3 * 60_000, 40 * 60_000, 7)
            .into_iter()
            .map(|(s, t, _)| SnappedQuery {
                source: s,
                target: t,
            })
            .collect();
    let events = schedule();

    // Reference run: never crashes, journals everything, and records the
    // route signature at every epoch (epoch e = first e events applied).
    let ref_dir = temp_dir(&format!("{name}_ref"));
    let (reference, report) = durable_processor(&name, &net, &ref_dir);
    assert_eq!(report.status, RecoveryStatus::Clean, "{report:?}");
    let mut ref_sigs = vec![route_signature(&reference, &pairs)];
    for event in &events {
        apply_event(&reference, &feed, *event);
        ref_sigs.push(route_signature(&reference, &pairs));
    }
    assert_eq!(reference.traffic().epoch() as usize, events.len());
    let live = reference.traffic().journal_path().expect("durable");
    let generation = std::fs::read(&live).unwrap();
    drop(reference);
    // The generation opens with its checkpoint, installed whole before
    // any append, so a crash can cut only the records behind it.
    let head = 8 + u32::from_le_bytes(generation[..4].try_into().unwrap()) as usize;
    let (checkpoint, journal) = generation.split_at(head);

    // The journal's record boundaries (offset = record start), from the
    // length prefixes: a cut exactly here is a clean prefix, anywhere
    // else a torn tail.
    let mut boundaries = Vec::new();
    let mut offset = 0usize;
    while offset + 8 <= journal.len() {
        let len = u32::from_le_bytes(journal[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
        boundaries.push(offset.min(journal.len()));
    }

    // Kill-at-random-record: cut the journal at a random byte — every
    // third point exactly at a record boundary (a clean prefix), the
    // rest anywhere (almost always mid-record, a torn tail) — recover,
    // and demand byte-identical routes at the recovered epoch AND after
    // driving the remaining schedule to the end.
    let mut rng = MASTER_SEED ^ seed_lane;
    let (mut torn, mut mismatches) = (0usize, 0usize);
    for point in 0..CRASH_POINTS_PER_CITY {
        let cut = if point % 3 == 2 {
            boundaries[(splitmix64(&mut rng) as usize) % boundaries.len()]
        } else {
            1 + (splitmix64(&mut rng) as usize) % journal.len()
        };
        let dir = temp_dir(&format!("{name}_crash{point}"));
        std::fs::write(
            dir.join(live.file_name().unwrap()),
            [checkpoint, &journal[..cut]].concat(),
        )
        .unwrap();

        let (recovered, report) = durable_processor(&name, &net, &dir);
        assert!(
            report.quarantined.is_empty(),
            "a truncation is a torn tail, never a quarantine: {report:?}"
        );
        if report.torn_tails > 0 {
            torn += 1;
        }
        let epoch = report.epoch as usize;
        assert!(epoch <= events.len(), "{report:?}");
        if route_signature(&recovered, &pairs) != ref_sigs[epoch] {
            eprintln!("{name} crash point {point}: route mismatch at recovered epoch {epoch}");
            mismatches += 1;
        }
        // The crashed-and-recovered process must now evolve exactly like
        // the process that never crashed.
        for event in &events[epoch..] {
            apply_event(&recovered, &feed, *event);
        }
        if route_signature(&recovered, &pairs) != ref_sigs[events.len()] {
            eprintln!("{name} crash point {point}: route mismatch after replaying the rest");
            mismatches += 1;
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Quarantine drill: a checkpoint at epoch k starts a new generation
    // that journals the rest, then a bit flips in that checkpoint.
    // Recovery must quarantine the generation, fall back to the previous
    // one (epoch k's exact routes), report Degraded, and keep serving.
    let k = events.len() - 6;
    let dir = temp_dir(&format!("{name}_quarantine"));
    let (victim, _) = durable_processor(&name, &net, &dir);
    for event in &events[..k] {
        apply_event(&victim, &feed, *event);
    }
    assert!(victim.traffic().flush_snapshot().unwrap());
    for event in &events[k..] {
        apply_event(&victim, &feed, *event);
    }
    let journal_path = victim.traffic().journal_path().expect("durable");
    drop(victim);
    let mut bytes = std::fs::read(&journal_path).unwrap();
    bytes[10] ^= 0x10; // inside the checkpoint record's payload, mid-file
    std::fs::write(&journal_path, &bytes).unwrap();

    let (degraded, report) = durable_processor(&name, &net, &dir);
    let quarantine_ok = report.status == RecoveryStatus::Degraded
        && !report.quarantined.is_empty()
        && report.epoch as usize == k
        && route_signature(&degraded, &pairs) == ref_sigs[k]
        && degraded
            .traffic()
            .apply_delta(&TrafficDelta::parse("cat:primary*1.2").unwrap())
            .is_ok();
    if !quarantine_ok {
        eprintln!("{name} quarantine drill failed: {report:?}");
    }
    drop(degraded);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);

    CityOutcome {
        name,
        crash_points: CRASH_POINTS_PER_CITY + 1,
        torn,
        mismatches: mismatches + usize::from(!quarantine_ok),
        quarantine_ok,
    }
}

fn main() {
    let events = schedule();
    let ticks = events.iter().filter(|e| e.is_none()).count();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Crash-recovery equivalence: {} events per run ({} deltas, {ticks} ticks), \
         {CRASH_POINTS_PER_CITY} random journal cuts + 1 quarantine drill per city, \
         {PAIRS} query pairs x 4 techniques compared byte for byte",
        events.len(),
        events.len() - ticks,
    );

    let mut total_points = 0usize;
    let mut total_mismatches = 0usize;
    for (lane, city) in [City::Melbourne, City::Dhaka, City::Copenhagen]
        .into_iter()
        .enumerate()
    {
        let outcome = drill_city(city, lane as u64 + 1);
        let _ =
            writeln!(
            report,
            "  {:<12} {} crash points ({} torn tails), {} route mismatches, quarantine drill {}",
            outcome.name,
            outcome.crash_points,
            outcome.torn,
            outcome.mismatches,
            if outcome.quarantine_ok { "ok" } else { "FAILED" },
        );
        total_points += outcome.crash_points;
        total_mismatches += outcome.mismatches;
    }
    let _ = writeln!(
        report,
        "\ntotal: {total_points} crash points across 3 cities, {total_mismatches} route mismatches"
    );

    println!("{report}");
    let path = arp_bench::write_report("recovery.txt", &report);
    println!("report written to {}", path.display());

    assert!(
        total_points >= 20,
        "need at least 20 crash points, ran {total_points}"
    );
    assert_eq!(
        total_mismatches, 0,
        "crash recovery diverged from the reference"
    );
}
