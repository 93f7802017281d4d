//! Chaos drill for the fault-tolerant serving pipeline: sweeps flaky
//! fault rates over two technique lanes on all three study cities and
//! *asserts* the degraded-response ladder holds — availability stays at
//! or above 99% under p = 0.25 lane flakiness, degraded responses are
//! never served from the route cache (repeats self-heal), and an open
//! circuit breaker caps the worker time a dead lane can burn. The report
//! lands in `reports/chaos.txt` and feeds EXPERIMENTS.md; CI fails if it
//! is missing or empty.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_chaos
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use arp_citygen::{City, Scale};
use arp_demo::backend::DemoBackend;
use arp_demo::query::{QueryProcessor, SnappedQuery};
use arp_obs::Registry;
use arp_serve::{sites, BreakerConfig, FaultKind, FaultPlan, RouteService, ServeConfig};

/// Distinct queries per city.
const DISTINCT: usize = 12;
/// Times each distinct query is issued in the availability sweep.
const REPEATS: usize = 5;
/// The two technique lanes the flaky faults target; the other two stay
/// healthy, so a 200 with at least their routes is always possible.
const FLAKY_LANES: [&str; 2] = ["google_like", "penalty"];

struct CityFixture {
    name: String,
    processor: Arc<QueryProcessor>,
    queries: Vec<SnappedQuery>,
}

fn fixture(city: City) -> CityFixture {
    let generated = arp_bench::generate_city(city, Scale::Small);
    let name = generated.name.clone();
    let queries =
        arp_bench::random_queries(&generated.network, DISTINCT, 3 * 60_000, 40 * 60_000, 7)
            .into_iter()
            .map(|(s, t, _)| SnappedQuery {
                source: s,
                target: t,
            })
            .collect();
    let processor = Arc::new(QueryProcessor::new(name.clone(), generated.network, 7));
    CityFixture {
        name,
        processor,
        queries,
    }
}

fn flaky_plan(p: f64, seed_base: u64) -> FaultPlan {
    let mut plan = FaultPlan::disabled();
    if p > 0.0 {
        for (i, lane) in FLAKY_LANES.iter().enumerate() {
            plan = plan.with(
                sites::lane(lane),
                FaultKind::Flaky {
                    p,
                    seed: seed_base + i as u64,
                },
            );
        }
    }
    plan
}

fn service(
    fx: &CityFixture,
    config: ServeConfig,
    registry: &Registry,
) -> RouteService<DemoBackend> {
    RouteService::new(
        DemoBackend::new(Arc::clone(&fx.processor)),
        config,
        registry,
    )
}

fn main() {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Chaos drill: flaky faults on lanes {} and {}, release build",
        FLAKY_LANES[0], FLAKY_LANES[1]
    );

    availability_sweep(&mut report);
    degraded_is_never_cached(&mut report);
    breaker_caps_wasted_work(&mut report);
    journal_fault_rejects_without_publishing(&mut report);

    println!("{report}");
    let path = arp_bench::write_report("chaos.txt", &report);
    println!("report written to {}", path.display());
}

/// For each city and fault rate: issue the workload, count healthy /
/// degraded / errored replies, and assert ≥99% availability (a 200 with
/// at least one route) at p ≤ 0.25.
fn availability_sweep(report: &mut String) {
    let _ = writeln!(
        report,
        "\nAvailability sweep ({} requests per rate: {DISTINCT} distinct x {REPEATS})",
        DISTINCT * REPEATS
    );
    for city in [City::Melbourne, City::Dhaka, City::Copenhagen] {
        let fx = fixture(city);
        let _ = writeln!(report, "\n  {}", fx.name);
        let _ = writeln!(
            report,
            "    {:<10} {:>8} {:>10} {:>8} {:>10} {:>10}",
            "flaky p", "healthy", "degraded", "errors", "avail %", "injected"
        );
        for &p in &[0.0, 0.10, 0.25, 0.50] {
            let registry = Registry::new();
            let config = ServeConfig {
                faults: flaky_plan(p, 40),
                ..ServeConfig::default()
            };
            let service = service(&fx, config, &registry);
            let (mut healthy, mut degraded, mut errors, mut with_routes) = (0u64, 0u64, 0u64, 0u64);
            for _ in 0..REPEATS {
                for request in &fx.queries {
                    match service.route(fx.processor.prepare_query(*request)) {
                        Ok(resp) => {
                            if resp.approaches.iter().any(|a| !a.routes.is_empty()) {
                                with_routes += 1;
                            }
                            if resp.degraded {
                                degraded += 1;
                            } else {
                                healthy += 1;
                            }
                            if p == 0.0 {
                                assert!(
                                    !resp.degraded && resp.lane_status.is_empty(),
                                    "faults disabled must leave the response pristine"
                                );
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
            }
            let total = (DISTINCT * REPEATS) as u64;
            let availability = with_routes as f64 / total as f64 * 100.0;
            let injected: u64 = FLAKY_LANES
                .iter()
                .map(|lane| {
                    registry.counter_value(
                        "arp_serve_faults_injected_total",
                        &[("site", &sites::lane(lane)), ("kind", "flaky")],
                    )
                })
                .sum();
            let _ = writeln!(
                report,
                "    {:<10.2} {:>8} {:>10} {:>8} {:>9.1}% {:>10}",
                p, healthy, degraded, errors, availability, injected
            );
            if p <= 0.25 {
                assert!(
                    availability >= 99.0,
                    "{}: availability {availability:.1}% under p={p} flakiness",
                    fx.name
                );
            }
        }
    }
}

/// Degraded responses must never land in the route cache: under heavy
/// lane flakiness, repeating a query self-heals (each repeat re-attempts
/// only the lanes that failed; completed lanes come from the cache), and
/// once a query is healthy it stays healthy. A cached degraded response
/// would stay degraded forever.
fn degraded_is_never_cached(report: &mut String) {
    let fx = fixture(City::Melbourne);
    let registry = Registry::new();
    let config = ServeConfig {
        faults: flaky_plan(0.5, 90),
        // Sideline the breakers: a min_volume above the window length can
        // never be met, so heavy flakiness exercises the cache's
        // never-store-degraded rule without open-circuit cooldowns
        // stalling the repeats.
        breaker: BreakerConfig {
            min_volume: usize::MAX,
            ..BreakerConfig::default()
        },
        ..ServeConfig::default()
    };
    let service = service(&fx, config, &registry);

    let mut heal_attempts = Vec::new();
    for request in &fx.queries {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let resp = service
                .route(fx.processor.prepare_query(*request))
                .expect("two lanes are always healthy");
            if !resp.degraded {
                break;
            }
            assert!(
                attempts < 64,
                "query never healed — a degraded response may have been cached"
            );
        }
        // All four lanes are now cached; the repeat is served healthy
        // from the cache even though the fault plan is still armed.
        let again = service
            .route(fx.processor.prepare_query(*request))
            .expect("cached repeat");
        assert!(
            !again.degraded,
            "a degraded response was served from the cache"
        );
        heal_attempts.push(attempts);
    }
    let max = heal_attempts.iter().max().copied().unwrap_or(0);
    let mean = heal_attempts.iter().sum::<u32>() as f64 / heal_attempts.len() as f64;
    let _ = writeln!(
        report,
        "\nDegraded-never-cached (Melbourne, flaky p=0.50 on both lanes):\n    \
         every query healthy within {max} repeats (mean {mean:.1}); \
         cached repeats stay healthy with faults still armed"
    );
}

/// With one lane failing on every attempt, the circuit breaker opens
/// after `min_volume` recorded failures and everything after
/// short-circuits: the dead lane consumes no further worker time while
/// the other three techniques keep serving.
fn breaker_caps_wasted_work(report: &mut String) {
    const OUTAGE_REQUESTS: usize = 60;
    let fx = fixture(City::Copenhagen);
    let registry = Registry::new();
    let config = ServeConfig {
        faults: FaultPlan::disabled().with(
            sites::lane("penalty"),
            FaultKind::Error("injected outage".to_string()),
        ),
        breaker: BreakerConfig {
            window: 16,
            min_volume: 4,
            error_rate: 0.5,
            // Longer than the run: once open, the breaker stays open.
            cooldown_ms: 600_000,
        },
        // No route cache, so every request would otherwise re-run the
        // failing lane.
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let service = service(&fx, config, &registry);
    for i in 0..OUTAGE_REQUESTS {
        let resp = service
            .route(fx.processor.prepare_query(fx.queries[i % fx.queries.len()]))
            .expect("three healthy lanes always serve");
        assert!(
            resp.degraded,
            "the dead lane must mark the response degraded"
        );
        let served = resp
            .approaches
            .iter()
            .filter(|a| !a.routes.is_empty())
            .count();
        assert_eq!(served, 3, "three healthy techniques keep serving");
    }
    let lane = |reason: &str| {
        registry.counter_value(
            "arp_serve_lane_failures_total",
            &[("technique", "penalty"), ("reason", reason)],
        )
    };
    let attempts = lane("error");
    let short_circuited = lane("open_circuit");
    // Every attempt fails, so the breaker opens after min_volume (4)
    // recorded failures — four requests' worth, one attempt each. Leave
    // slack, but the bound must stay far below the 60 requests: that gap
    // is the worker time the breaker reclaimed.
    assert!(
        attempts <= 8,
        "breaker let {attempts} attempts through before opening"
    );
    assert!(
        short_circuited >= (OUTAGE_REQUESTS as u64).saturating_sub(8),
        "only {short_circuited} of {OUTAGE_REQUESTS} requests were short-circuited"
    );
    let _ = writeln!(
        report,
        "\nBreaker caps wasted work (Copenhagen, lane.penalty=error, cache off):\n    \
         {OUTAGE_REQUESTS} requests: {attempts} failing attempts reached the worker pool, \
         {short_circuited} short-circuited by the open breaker; all requests served 3/4 techniques"
    );
}

/// Disk-full / EIO during a journal append, modelled by the
/// `journal.append` failpoint: every `POST /api/traffic` answers `503`,
/// the epoch never moves (nothing unjournaled is ever published), every
/// rejection is counted, and the route-serving breaker ladder is
/// untouched — a storage outage on the ingest path must not degrade
/// route serving.
fn journal_fault_rejects_without_publishing(report: &mut String) {
    const ATTEMPTS: usize = 10;
    let generated = arp_bench::generate_city(City::Melbourne, Scale::Small);
    let dir = std::env::temp_dir().join(format!("arp_chaos_journal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let processor = QueryProcessor::new(generated.name.clone(), generated.network, 7)
        .with_traffic_durability(arp_traffic::DurabilityConfig::new(&dir))
        .expect("fresh state dir recovers clean");
    let config = ServeConfig {
        faults: FaultPlan::disabled().with(
            sites::JOURNAL_APPEND.to_string(),
            FaultKind::Error("injected disk full".to_string()),
        ),
        ..ServeConfig::default()
    };
    let app = arp_demo::DemoApp::with_config(processor, config);

    for _ in 0..ATTEMPTS {
        let resp = app.handle("POST", "/api/traffic", "cat:primary*1.5; close:3@2");
        assert_eq!(
            resp.status, 503,
            "append failure must be a 503: {}",
            resp.body
        );
        assert!(resp.retry_after.is_some(), "503 carries a retry hint");
    }
    assert_eq!(
        app.processor.traffic().epoch(),
        0,
        "no epoch may publish without its journal record"
    );
    let injected = app.processor.registry().counter_value(
        "arp_serve_faults_injected_total",
        &[("site", sites::JOURNAL_APPEND), ("kind", "error")],
    );
    assert_eq!(injected as usize, ATTEMPTS, "every rejection is counted");
    // The journal never saw a delta: the live generation holds only the
    // checkpoint it opened with, so recovery from this directory is a
    // clean start at epoch 0.
    let live = app.processor.traffic().journal_path().expect("durable");
    let journal = arp_traffic::journal::read_journal(&live).expect("journal reads");
    assert!(
        journal.records.len() == 1 && !journal.torn_tail,
        "a failed append must not leave bytes behind"
    );
    // Route serving is unaffected: health stays ready, breakers closed.
    let health = app.handle("GET", "/api/health", "");
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(
        health.body.contains("\"status\":\"ready\""),
        "{}",
        health.body
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = writeln!(
        report,
        "\nJournal-append fault (Melbourne, journal.append=error, durable state):\n    \
         {ATTEMPTS} delta posts: all 503 with Retry-After, epoch stayed 0, \
         {injected} injections counted, journal empty, serving health ready"
    );
}
