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
//! * **cache-hit decay and recovery** — no lane's key names a traffic
//!   column, so every hit on the first pass after a tick is judged
//!   against the tick's snapshot: a cached lane is carried — re-priced,
//!   not recomputed — when the tick changed no closure its searches could
//!   have read and, for the three pair readers, no factor; otherwise it
//!   is recomputed. The second pass must hit again: invalidation is
//!   per entry, not a cache flush. The pair readers carry only across
//!   the quiet hours, whose ticks restate every factor as it was.
//!
//! The run *asserts* all of it rather than just reporting it: on the
//! first pass after every tick every hit is a carried lane, and every
//! response equals the serial stages (`DemoBackend::compute` +
//! `assemble`) on the same pinned snapshot; the second pass hits all four
//! lanes of every query that did not fail on it. It counts the first
//! passes' misses and carried lanes per technique. Report lands in
//! `reports/traffic.txt`; every column is a function of the feed and the
//! queries, so it regenerates byte-identically (CI diffs it, and requires
//! every technique to carry lanes and no difference). Latency under churn
//! is the benchmark's `rush-hour` workload.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_traffic
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use arp_citygen::Scale;
use arp_demo::backend::DemoBackend;
use arp_demo::query::{QueryProcessor, QueryResponse, SnappedQuery};
use arp_serve::{CancelToken, Deadline, RouteBackend, RouteService, ServeConfig};
use arp_traffic::{CityProfile, TrafficFeed};

/// Distinct queries replayed each tick.
const DISTINCT: usize = 10;
/// Ticks of the feed's day (one epoch each).
const TICKS: u64 = 24;

/// Everything a response is rendered from, plus its routes' exact costs
/// and edges.
fn fingerprint(response: &QueryResponse) -> String {
    let approaches: Vec<_> = response
        .approaches
        .iter()
        .map(|a| (a.label, &a.routes))
        .collect();
    format!(
        "{} {} {} {} {approaches:?}",
        response.epoch, response.fastest_minutes, response.truncated, response.degraded
    )
}

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
    let serial = DemoBackend::new(Arc::clone(&processor));
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
    let techniques: Vec<String> = (0..serial.lanes()).map(|l| serial.lane_name(l)).collect();
    let carried = || -> Vec<u64> {
        techniques
            .iter()
            .map(|technique| {
                let labels = [("technique", technique.as_str())];
                registry.counter_value("arp_serve_cache_carried_total", &labels)
            })
            .collect()
    };

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
    let mut first_pass_carried = vec![0u64; techniques.len()];
    let mut differences = 0usize;

    for tick in 0..TICKS {
        let outcome = processor
            .traffic()
            .advance_tick(&feed)
            .expect("feed deltas are valid by construction");

        let (h0, m0) = (hits(), misses());
        let mut flipped = 0usize;
        // Per pass: a query that fails on both is one failure of each.
        let mut failed = [0usize; 2];
        // Two passes: the first re-populates the cache under the new
        // epoch, the second must be served from it.
        for pass in 0..2 {
            let (hits_before_pass, misses_before_pass, carried_before_pass) =
                (hits(), misses(), carried());
            for (qi, &snapped) in queries.iter().enumerate() {
                let pinned = processor.prepare_query(snapped);
                let resp = match service.route(pinned.clone()) {
                    Ok(resp) => resp,
                    Err(_) => {
                        // An incident closure can (rarely) disconnect a
                        // pair; the service degrades it to an error
                        // response, which is itself the designed
                        // behaviour — count it and move on.
                        failed[pass] += 1;
                        continue;
                    }
                };
                assert_eq!(resp.epoch, outcome.epoch, "response pinned a stale epoch");
                if pass == 1 {
                    continue; // flips are judged once per tick
                }
                // The serial stages on the same pinned snapshot: what a
                // carried lane must equal.
                let prepared = serial.prepare(pinned, &CancelToken::new(), &Deadline::never());
                let parts = (0..serial.lanes())
                    .map(|lane| serial.compute(&prepared, lane).expect("a healthy lane"))
                    .collect();
                let reference = serial.assemble(&prepared, parts);
                if fingerprint(&resp) != fingerprint(&reference) {
                    differences += 1;
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
                // The invalidation assertion: every entry was cached before
                // the bump, so a lane that hits answers only carried
                // across it.
                let pass_carried: Vec<u64> = carried()
                    .iter()
                    .zip(&carried_before_pass)
                    .map(|(after, before)| after - before)
                    .collect();
                assert_eq!(
                    pass_hits,
                    pass_carried.iter().sum::<u64>(),
                    "tick {tick}: first pass hit a pre-bump entry it did not carry"
                );
                first_pass_misses += misses() - misses_before_pass;
                for (total, lane) in first_pass_carried.iter_mut().zip(pass_carried) {
                    *total += lane;
                }
            } else {
                // The recovery assertion: the first pass repopulated, so
                // the second pass of every query that did not fail on it
                // hits all four lanes.
                let expected = (queries.len() - failed[1]) as u64 * 4;
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
            failed[0] + failed[1],
            hit_rate * 100.0,
        );
    }

    let carried_lanes: Vec<String> = techniques
        .iter()
        .zip(&first_pass_carried)
        .map(|(technique, lanes)| format!("{technique} {lanes}"))
        .collect();
    let _ = writeln!(
        report,
        "\nday summary: {} requests, {} route-flip ticks / {} query-ticks observed, \
         {} lane lookups missed on the first pass after a tick; lanes carried on it: {}; \
         {} first-pass responses differ from the serial stages",
        TICKS as usize * 2 * DISTINCT,
        total_flips,
        flip_opportunities / 4,
        first_pass_misses,
        carried_lanes.join(", "),
        differences,
    );
    let _ = writeln!(
        report,
        "\nproperties checked: every response re-pinned the tick's epoch exactly; \
         on the first pass after every tick every hit was a carried lane, equal to the serial \
         stages; the second pass was served from the cache (invalidation is per entry: a \
         refused entry is recomputed and overwritten in place)."
    );
    assert_eq!(
        differences, 0,
        "a served response differs from the serial stages"
    );
    assert!(
        total_flips > 0,
        "a full rush-hour day must flip at least one first-ranked route"
    );

    let path = arp_bench::write_report("traffic.txt", &report);
    println!("{report}");
    println!("report written to {}", path.display());
}
