//! Concurrency smoke test: hammer `/api/route` from many threads with a
//! mix of repeated and unique queries and check that
//!
//! * every response is byte-identical to the single-threaded answer for
//!   the same body (parallel fan-out and caching change *when* work runs,
//!   never *what* comes back),
//! * the route cache actually absorbed the repeats (hit counter > 0),
//! * nothing was shed while concurrency stayed below the admission limit.
//!
//! The cross-city check runs the same comparison on Melbourne, Dhaka and
//! Copenhagen with caching on and off.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use arp_citygen::{City, Scale};
use arp_demo::json::{self, Json};
use arp_demo::prelude::*;
use arp_serve::ServeConfig;

fn app_with(city: City, seed: u64, config: ServeConfig) -> DemoApp {
    let g = arp_citygen::generate(city, Scale::Small, seed);
    DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, seed), config)
}

/// A served body minus its per-request `trace_id`: every request mints a
/// fresh id, so determinism comparisons go modulo that one field.
fn sans_trace_id(body: &str) -> String {
    let mut v = json::parse(body).expect("served body parses");
    if let Json::Object(map) = &mut v {
        assert!(map.remove("trace_id").is_some(), "missing trace_id: {body}");
    }
    v.to_string_compact()
}

/// A route body from bounding-box fractions, kept inside the study area.
fn body_at(app: &DemoApp, fs: (f64, f64), ft: (f64, f64)) -> String {
    let bb = app.processor.network().bbox();
    format!(
        r#"{{"slon": {}, "slat": {}, "tlon": {}, "tlat": {}}}"#,
        bb.min_lon + bb.width_deg() * fs.0,
        bb.min_lat + bb.height_deg() * fs.1,
        bb.min_lon + bb.width_deg() * ft.0,
        bb.min_lat + bb.height_deg() * ft.1,
    )
}

#[test]
fn parallel_and_cached_responses_match_across_cities() {
    for (city, seed) in [
        (City::Melbourne, 21u64),
        (City::Dhaka, 22),
        (City::Copenhagen, 23),
    ] {
        // Cache off, one worker: the lanes run one after another — the
        // serial shape.
        let serial = app_with(
            city,
            seed,
            ServeConfig {
                workers: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        // Cache on, full parallel fan-out.
        let parallel = app_with(city, seed, ServeConfig::default());

        let bodies = [
            body_at(&serial, (0.3, 0.4), (0.7, 0.7)),
            body_at(&serial, (0.25, 0.6), (0.75, 0.35)),
        ];
        for body in &bodies {
            let a = serial.handle("POST", "/api/route", body);
            let b = parallel.handle("POST", "/api/route", body);
            let b_cached = parallel.handle("POST", "/api/route", body);
            assert_eq!(a.status, 200, "{city:?}: {}", a.body);
            assert_eq!(
                sans_trace_id(&a.body),
                sans_trace_id(&b.body),
                "{city:?}: fan-out answer differs"
            );
            assert_eq!(
                sans_trace_id(&a.body),
                sans_trace_id(&b_cached.body),
                "{city:?}: cached answer differs"
            );
        }
    }
}

#[test]
fn hammering_route_is_deterministic_and_feeds_the_cache() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;

    let app = Arc::new(app_with(
        City::Melbourne,
        31,
        ServeConfig {
            // Admission comfortably above THREADS: nothing may be shed.
            max_inflight: 64,
            ..ServeConfig::default()
        },
    ));

    // Shared bodies (cache fodder) plus one unique query per thread.
    let shared: Vec<String> = vec![
        body_at(&app, (0.3, 0.4), (0.7, 0.7)),
        body_at(&app, (0.35, 0.3), (0.65, 0.75)),
        body_at(&app, (0.25, 0.55), (0.8, 0.45)),
    ];
    let unique: Vec<String> = (0..THREADS)
        .map(|i| {
            let f = 0.28 + 0.04 * i as f64;
            body_at(&app, (f, 0.35), (0.72, f))
        })
        .collect();

    // Single-threaded reference answers first.
    let mut expected: HashMap<String, String> = HashMap::new();
    for body in shared.iter().chain(unique.iter()) {
        let resp = app.handle("POST", "/api/route", body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        expected.insert(body.clone(), sans_trace_id(&resp.body));
    }

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let app = Arc::clone(&app);
            let shared = shared.clone();
            let mine = unique[t].clone();
            thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..ROUNDS {
                    let body = if round % 2 == 0 {
                        shared[(t + round) % shared.len()].clone()
                    } else {
                        mine.clone()
                    };
                    let resp = app.handle("POST", "/api/route", &body);
                    out.push((body, resp.status, resp.body));
                }
                out
            })
        })
        .collect();

    let mut responses = 0usize;
    for handle in handles {
        for (body, status, text) in handle.join().expect("worker thread") {
            assert_eq!(status, 200, "shed below the admission limit: {text}");
            assert_eq!(
                &sans_trace_id(&text),
                expected.get(&body).expect("known body"),
                "concurrent answer differs from the serial reference"
            );
            responses += 1;
        }
    }
    assert_eq!(responses, THREADS * ROUNDS);

    let registry = app.processor.registry();
    assert!(
        registry.counter_value("arp_serve_cache_hits_total", &[]) > 0,
        "repeated queries never hit the cache"
    );
    assert_eq!(
        registry.counter_value("arp_serve_shed_total", &[("reason", "admission_full")]),
        0,
        "requests were shed below the admission limit"
    );
}
