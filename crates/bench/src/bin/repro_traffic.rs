//! Live-traffic replay: a full rush-hour day against the serving stack.
//!
//! Drives the deterministic [`arp_traffic::TrafficFeed`] through all 24
//! ticks of its day against the real `arp-serve` pipeline (admission,
//! epoch-keyed route cache, technique fan-out) and measures what the
//! epoch machinery is for:
//!
//! * **route-flip rate** — how often a tick's weight change flips the
//!   first-ranked route of at least one technique (the paper's
//!   data-divergence mechanism, §4.2, now happening *live*),
//! * **cache-hit decay and recovery** — every tick logically invalidates
//!   the whole route cache (each lane key ends in the publication number
//!   of the snapshot its request pinned), so the first pass after a tick
//!   misses and the second pass must hit again: epoch-scoped
//!   invalidation, not a cache flush.
//!
//! The run *asserts* both halves (the first pass after every tick hits no
//! lane, the second hits all four) rather than just reporting them, and
//! counts the first passes' misses. Report lands in
//! `reports/traffic.txt`; every column is a function of the feed and the
//! queries, so it regenerates byte-identically (CI diffs it). Latency
//! under churn is the benchmark's `rush-hour` workload.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_traffic
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use arp_citygen::Scale;
use arp_demo::backend::DemoBackend;
use arp_demo::query::{QueryProcessor, SnappedQuery};
use arp_serve::{RouteService, ServeConfig};
use arp_traffic::{CityProfile, TrafficFeed};

/// Distinct queries replayed each tick.
const DISTINCT: usize = 10;
/// Ticks of the feed's day (one epoch each).
const TICKS: u64 = 24;

fn main() {
    let city = arp_bench::generate_city(arp_citygen::City::Melbourne, Scale::Small);
    let name = city.name.clone();
    let pairs = arp_bench::random_queries(&city.network, DISTINCT, 3 * 60_000, 40 * 60_000, 17);
    let processor = Arc::new(QueryProcessor::new(name.clone(), city.network, 17));
    let registry = processor.registry().clone();
    let service = RouteService::new(
        DemoBackend::new(Arc::clone(&processor)),
        ServeConfig::default(),
        &registry,
    );
    let queries: Vec<SnappedQuery> = pairs
        .iter()
        .map(|&(s, t, _)| SnappedQuery {
            source: s,
            target: t,
        })
        .collect();

    let feed = TrafficFeed::new(arp_bench::MASTER_SEED, CityProfile::for_city_name(&name));
    let hits = || registry.counter_value("arp_serve_cache_hits_total", &[]);
    let misses = || registry.counter_value("arp_serve_cache_misses_total", &[]);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Live-traffic replay, {name}: {DISTINCT} distinct queries x 2 passes per tick, \
         {TICKS} feed ticks (one epoch each), release build"
    );
    let _ = writeln!(
        report,
        "feed: {:?} profile, seed {}, rush-hour peaks at ticks 8 and 17\n",
        feed.profile(),
        arp_bench::MASTER_SEED
    );
    let _ = writeln!(
        report,
        "  {:<5} {:>6} {:>5} {:>7} {:>8} {:>6} {:>10}",
        "tick", "epoch", "ops", "closed", "flips", "fails", "hit rate"
    );

    // First-ranked route per (query, approach) from the previous tick —
    // the flip detector compares against it.
    let mut previous: Vec<Vec<Option<Vec<u32>>>> = vec![vec![None; 4]; DISTINCT];
    let mut total_flips = 0usize;
    let mut flip_opportunities = 0usize;
    let mut first_pass_misses = 0u64;

    for tick in 0..TICKS {
        let outcome = processor
            .traffic()
            .advance_tick(&feed)
            .expect("feed deltas are valid by construction");

        let (h0, m0) = (hits(), misses());
        let mut flipped = 0usize;
        let mut failed = 0usize;
        // Two passes: the first re-populates the cache under the new
        // epoch, the second must be served from it.
        for pass in 0..2 {
            let (hits_before_pass, misses_before_pass) = (hits(), misses());
            for (qi, &snapped) in queries.iter().enumerate() {
                let resp = match service.route(processor.prepare_query(snapped)) {
                    Ok(resp) => resp,
                    Err(_) => {
                        // An incident closure can (rarely) disconnect a
                        // pair; the service degrades it to an error
                        // response, which is itself the designed
                        // behaviour — count it and move on.
                        failed += 1;
                        continue;
                    }
                };
                assert_eq!(resp.epoch, outcome.epoch, "response pinned a stale epoch");
                if pass == 1 {
                    continue; // flips are judged once per tick
                }
                let mut any_flip = false;
                for (ai, approach) in resp.approaches.iter().enumerate() {
                    let first: Option<Vec<u32>> = approach
                        .routes
                        .first()
                        .map(|r| r.edges.iter().map(|e| e.0).collect());
                    if let Some(prev) = &previous[qi][ai] {
                        flip_opportunities += 1;
                        if first.as_ref() != Some(prev) {
                            any_flip = true;
                        }
                    }
                    previous[qi][ai] = first;
                }
                if any_flip {
                    flipped += 1;
                }
            }
            let pass_hits = hits() - hits_before_pass;
            if pass == 0 {
                // The invalidation assertion: the bump moved every lane
                // key to the new publication, so nothing cached before it
                // answers.
                assert_eq!(pass_hits, 0, "tick {tick}: first pass hit a pre-bump entry");
                first_pass_misses += misses() - misses_before_pass;
            } else {
                // The recovery assertion: the first pass repopulated, so
                // the second pass of every non-failing query hits all
                // four lanes.
                let expected = (queries.len() - failed.min(queries.len())) as u64 * 4;
                assert!(
                    pass_hits >= expected,
                    "tick {tick}: second pass hit {pass_hits} lanes, expected >= {expected} \
                     — epoch-keyed cache failed to recover"
                );
            }
        }
        total_flips += flipped;
        let (h1, m1) = (hits(), misses());
        let tick_lookups = (h1 - h0) + (m1 - m0);
        let hit_rate = if tick_lookups == 0 {
            0.0
        } else {
            (h1 - h0) as f64 / tick_lookups as f64
        };
        let _ = writeln!(
            report,
            "  {:<5} {:>6} {:>5} {:>7} {:>8} {:>6} {:>9.0}%",
            tick + 1,
            outcome.epoch,
            outcome.applied,
            outcome.closures_active,
            flipped,
            failed,
            hit_rate * 100.0,
        );
    }

    let _ = writeln!(
        report,
        "\nday summary: {} requests, {} route-flip ticks / {} query-ticks observed, \
         {} lane lookups missed on the first pass after a tick",
        TICKS as usize * 2 * DISTINCT,
        total_flips,
        flip_opportunities / 4,
        first_pass_misses,
    );
    let _ = writeln!(
        report,
        "\nproperties checked: every response re-pinned the tick's epoch exactly; \
         after every tick the second pass was served from the epoch-keyed cache \
         (invalidation is epoch-scoped; older epochs' entries age out of the exact LRU)."
    );
    assert!(
        total_flips > 0,
        "a full rush-hour day must flip at least one first-ranked route"
    );

    let path = arp_bench::write_report("traffic.txt", &report);
    println!("{report}");
    println!("report written to {}", path.display());
}
