//! Acceptance tests of the epoch-customizable CH index tier's lifecycle.
//!
//! No request reads the tier — every tree pair comes from the bounded
//! builder (`arp_core::SearchSubstrate::build`) — so enabling it must
//! change no served byte, and what is under test is the tier itself: it
//! customizes whichever current epoch it is asked for (after deltas, TTL
//! reopens, the `u64::MAX` wraparound), the metric it hands out for an
//! epoch prices a pair **exactly** like the routes served on that epoch,
//! `metric_for` refuses every other epoch, serving never customizes, and
//! `/api/health` customizes the current epoch when it is read. The
//! adversarial mid-load test from the traffic subsystem is repeated with
//! the tier enabled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use arp_citygen::{City, Scale};
use arp_demo::json::{self, Json};
use arp_demo::query::{QueryProcessor, QueryResponse};
use arp_demo::{DemoApp, DemoBackend};
use arp_obs::Registry;
use arp_roadnet::weight::Weight;
use arp_serve::{RouteService, ServeConfig};
use arp_traffic::TrafficDelta;

const READY_TIMEOUT: Duration = Duration::from_secs(60);

fn route_body(app: &DemoApp, sx: f64, sy: f64, tx: f64, ty: f64) -> String {
    let bb = app.processor.network().bbox();
    format!(
        r#"{{"slon": {}, "slat": {}, "tlon": {}, "tlat": {}}}"#,
        bb.min_lon + bb.width_deg() * sx,
        bb.min_lat + bb.height_deg() * sy,
        bb.min_lon + bb.width_deg() * tx,
        bb.min_lat + bb.height_deg() * ty,
    )
}

/// A served body with its per-request `trace_id` removed: every request
/// mints its own id, so cross-app byte comparisons go modulo that one
/// field (BTreeMap-backed objects re-serialize deterministically).
fn sans_trace_id(body: &str) -> String {
    let mut v = json::parse(body).expect("served body parses");
    if let Json::Object(map) = &mut v {
        assert!(
            map.remove("trace_id").is_some(),
            "every route body carries a trace_id: {body}"
        );
    }
    v.to_string_compact()
}

/// Field-by-field equality of two query responses, route geometry and
/// costs included. `QueryResponse` carries no `PartialEq` on purpose
/// (it is not a wire type), so the audit spells the comparison out.
fn assert_same_response(ch: &QueryResponse, plain: &QueryResponse, context: &str) {
    assert_eq!(ch.epoch, plain.epoch, "{context}: epoch");
    assert_eq!(
        ch.fastest_minutes, plain.fastest_minutes,
        "{context}: fastest"
    );
    assert_eq!(
        ch.approaches.len(),
        plain.approaches.len(),
        "{context}: approach count"
    );
    for (a, b) in ch.approaches.iter().zip(&plain.approaches) {
        assert_eq!(a.label, b.label, "{context}");
        assert_eq!(
            a.routes.len(),
            b.routes.len(),
            "{context}: label {}",
            a.label
        );
        for (x, y) in a.routes.iter().zip(&b.routes) {
            assert_eq!(x.minutes, y.minutes, "{context}: label {}", a.label);
            assert_eq!(x.cost_ms, y.cost_ms, "{context}: label {}", a.label);
            assert_eq!(x.edges, y.edges, "{context}: label {}", a.label);
            assert_eq!(x.polyline, y.polyline, "{context}: label {}", a.label);
            assert_eq!(x.color, y.color, "{context}: label {}", a.label);
        }
    }
}

/// The tier's metric for the response's epoch must exist and price the
/// response's pair exactly like the fastest route served on that epoch —
/// i.e. the tier customized the epoch's weight column.
fn assert_metric_is_exact(qp: &QueryProcessor, response: &QueryResponse, context: &str) {
    let index = qp.ch_index().expect("tier enabled");
    let metric = index
        .metric_for(response.epoch)
        .unwrap_or_else(|| panic!("{context}: no metric for epoch {}", response.epoch));
    let fastest = response
        .approaches
        .iter()
        .filter_map(|a| a.routes.first())
        .map(|r| r.cost_ms)
        .min();
    assert_eq!(
        index
            .topology()
            .distance(&metric, response.source, response.target),
        fastest,
        "{context}: the epoch-{} metric disagrees with the served optimum",
        response.epoch
    );
}

/// Enabling the tier changes no served byte, and its metrics track the
/// overlay: for every city, the tier-enabled app and the plain app
/// serve **byte-identical** `/api/route` bodies — on the identity overlay
/// (epoch 0) and after a traffic delta (slowdowns per category and per
/// edge) — and on both epochs the metric asked for is exact.
#[test]
fn customization_tracks_epochs_across_cities_and_overlays() {
    for city in City::ALL {
        let make = |ch: bool| {
            let g = arp_citygen::generate(city, Scale::Tiny, 7);
            let qp = QueryProcessor::new(g.name.clone(), g.network, 7);
            let qp = if ch { qp.with_ch_index() } else { qp };
            DemoApp::with_config(qp, ServeConfig::default())
        };
        let plain = make(false);
        let fast = make(true);
        let index = fast.processor.ch_index().expect("tier enabled");

        let pairs = [(0.25, 0.30, 0.75, 0.70), (0.70, 0.25, 0.30, 0.80)];
        for epoch in 0..2u64 {
            assert!(
                index.wait_ready(epoch, READY_TIMEOUT),
                "{city}: customization must reach epoch {epoch}"
            );
            assert!(index.metric_for(epoch + 1).is_none(), "{city}");
            for &(sx, sy, tx, ty) in &pairs {
                let body = route_body(&plain, sx, sy, tx, ty);
                let a = plain.handle("POST", "/api/route", &body);
                let b = fast.handle("POST", "/api/route", &body);
                assert_eq!(a.status, 200, "{city}: {}", a.body);
                assert_eq!(
                    sans_trace_id(&a.body),
                    sans_trace_id(&b.body),
                    "{city}: epoch-{epoch} bodies must match"
                );
                let v = json::parse(&a.body).unwrap();
                let served = v.get("epoch").and_then(Json::as_f64);
                assert_eq!(served, Some(epoch as f64), "{city}");

                let bb = fast.processor.network().bbox();
                let at = |x: f64, y: f64| {
                    arp_roadnet::geo::Point::new(
                        bb.min_lon + bb.width_deg() * x,
                        bb.min_lat + bb.height_deg() * y,
                    )
                };
                let response = fast.processor.process(at(sx, sy), at(tx, ty)).unwrap();
                assert_eq!(response.epoch, epoch, "{city}");
                assert_metric_is_exact(&fast.processor, &response, &format!("{city}"));
            }
            if epoch == 1 {
                break;
            }
            // A non-identity overlay: category-wide and per-edge slowdowns.
            let delta = r#"{"delta": "cat:residential*1.7; edge:5*3.0"}"#;
            for app in [&plain, &fast] {
                let resp = app.handle("POST", "/api/traffic", delta);
                assert_eq!(resp.status, 200, "{city}: {}", resp.body);
            }
        }
        assert!(index.customizations() >= 2, "{city}");
    }
}

/// Serving never customizes: after an epoch bump, requests pinned to the
/// new epoch are served **immediately** and identically while the tier
/// still holds the old epoch's metric, which no one may take any more.
/// `/api/health` then asks for the current epoch, which customizes it
/// once and reports the tier ready on that epoch.
#[test]
fn serving_never_customizes_and_health_customizes_the_current_epoch() {
    let make = |ch: bool| {
        let g = arp_citygen::generate(City::Dhaka, Scale::Tiny, 9);
        let qp = QueryProcessor::new(g.name.clone(), g.network, 9);
        let qp = if ch { qp.with_ch_index() } else { qp };
        DemoApp::with_config(qp, ServeConfig::default())
    };
    let plain = make(false);
    let fast = make(true);
    let index = fast.processor.ch_index().unwrap();

    // Bump the epoch on both apps.
    let delta = r#"{"delta": "cat:primary*1.4"}"#;
    assert_eq!(plain.handle("POST", "/api/traffic", delta).status, 200);
    assert_eq!(fast.handle("POST", "/api/traffic", delta).status, 200);

    // The epoch-1 request serves right away, identically.
    let body = route_body(&plain, 0.3, 0.6, 0.75, 0.75);
    let a = plain.handle("POST", "/api/route", &body);
    let b = fast.handle("POST", "/api/route", &body);
    assert_eq!(a.status, 200, "{}", a.body);
    assert_eq!(
        sans_trace_id(&a.body),
        sans_trace_id(&b.body),
        "post-bump bytes must match the plain app's"
    );
    let v = json::parse(&b.body).unwrap();
    assert_eq!(v.get("epoch").and_then(Json::as_f64), Some(1.0));

    // The tier still holds epoch 0's metric, and refuses it.
    assert_eq!((index.ready_epoch(), index.customizations()), (0, 1));
    assert!(index.metric_for(0).is_none());

    // Health: enabled, and ready on epoch 1 — the read customized it.
    let health = fast.handle("GET", "/api/health", "");
    assert_eq!(health.status, 200, "{}", health.body);
    let v = json::parse(&health.body).unwrap();
    let ix = v.get("index").expect("index object in health");
    assert_eq!(ix.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(ix.get("ready").and_then(Json::as_bool), Some(true));
    assert_eq!(ix.get("metric_epoch").and_then(Json::as_f64), Some(1.0));
    assert_eq!(index.customizations(), 2);
    assert!(index.metric_for(1).is_some());

    // And an app without the tier reports it disabled.
    let health = plain.handle("GET", "/api/health", "");
    let v = json::parse(&health.body).unwrap();
    let ix = v.get("index").unwrap();
    assert_eq!(ix.get("enabled").and_then(Json::as_bool), Some(false));
}

/// The traffic subsystem's adversarial mid-load test, repeated on the CH
/// tier: the ticker bumps the epoch continuously while workers hammer
/// the pipeline, and every route in every response must re-cost exactly
/// under the single epoch the response claims. With the tier enabled
/// nothing customizes during the load, and asked afterwards the tier must
/// customize exactly the final epoch.
#[test]
fn epoch_bump_mid_load_never_mixes_epochs_on_the_ch_tier() {
    let g = arp_citygen::generate(City::Melbourne, Scale::Small, 7);
    let qp = Arc::new(QueryProcessor::new(g.name.clone(), g.network, 7).with_ch_index());
    let service = Arc::new(RouteService::new(
        DemoBackend::new(Arc::clone(&qp)),
        ServeConfig::default(),
        &Registry::disabled(),
    ));

    let columns: Arc<Mutex<HashMap<u64, Arc<Vec<Weight>>>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let snap = qp.traffic().snapshot();
        columns
            .lock()
            .unwrap()
            .insert(snap.epoch(), Arc::clone(snap.weights()));
    }

    let bb = qp.network().bbox();
    let endpoints = [
        (0.30, 0.60, 0.75, 0.75),
        (0.20, 0.30, 0.80, 0.70),
        (0.40, 0.20, 0.60, 0.85),
    ];
    let queries: Vec<_> = endpoints
        .iter()
        .map(|&(sx, sy, tx, ty)| {
            let s = arp_roadnet::geo::Point::new(
                bb.min_lon + bb.width_deg() * sx,
                bb.min_lat + bb.height_deg() * sy,
            );
            let t = arp_roadnet::geo::Point::new(
                bb.min_lon + bb.width_deg() * tx,
                bb.min_lat + bb.height_deg() * ty,
            );
            qp.snap(s, t).expect("inner points snap")
        })
        .collect();

    // The load provably spans every bump: the ticker starts only once
    // each worker holds an epoch-0 response, and each worker's last
    // request starts after the ticker has published its last epoch.
    let load_started = Arc::new(Barrier::new(4));
    let last_published = Arc::new(AtomicBool::new(false));

    // Each swap slows every residential edge further, so any two epochs
    // disagree on any route touching a residential street — a torn lane
    // cannot re-cost cleanly.
    let ticker = {
        let qp = Arc::clone(&qp);
        let columns = Arc::clone(&columns);
        let load_started = Arc::clone(&load_started);
        let last_published = Arc::clone(&last_published);
        thread::spawn(move || {
            load_started.wait();
            for round in 0..12u32 {
                let factor = 1.0 + 0.1 * f64::from(round + 1);
                let delta = TrafficDelta::parse(&format!("cat:residential*{factor:.3}")).unwrap();
                let outcome = qp.traffic().apply_delta(&delta).unwrap();
                let snap = qp.traffic().snapshot();
                assert_eq!(snap.epoch(), outcome.epoch);
                columns
                    .lock()
                    .unwrap()
                    .insert(snap.epoch(), Arc::clone(snap.weights()));
                thread::sleep(Duration::from_millis(3));
            }
            last_published.store(true, Ordering::Release);
        })
    };

    let mut workers = Vec::new();
    for worker in 0..3 {
        let qp = Arc::clone(&qp);
        let service = Arc::clone(&service);
        let queries = queries.clone();
        let load_started = Arc::clone(&load_started);
        let last_published = Arc::clone(&last_published);
        workers.push(thread::spawn(move || {
            let mut responses = Vec::new();
            for i in 0.. {
                let after_the_last_epoch = last_published.load(Ordering::Acquire);
                let snapped = queries[(worker + i) % queries.len()];
                let prepared = qp.prepare_query(snapped);
                let resp = service.route(prepared).expect("healthy service must route");
                responses.push(resp);
                if i == 0 {
                    load_started.wait();
                }
                if after_the_last_epoch {
                    break;
                }
            }
            responses
        }));
    }
    let responses: Vec<_> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    ticker.join().unwrap();

    // Audit: every route re-costs exactly under its response's epoch.
    let columns = columns.lock().unwrap();
    let mut epochs_seen = std::collections::BTreeSet::new();
    for resp in &responses {
        epochs_seen.insert(resp.epoch);
        let weights = columns
            .get(&resp.epoch)
            .unwrap_or_else(|| panic!("response stamped with unpublished epoch {}", resp.epoch));
        for approach in &resp.approaches {
            for route in &approach.routes {
                let recosted: u64 = route
                    .edges
                    .iter()
                    .map(|&e| u64::from(weights[e.index()]))
                    .sum();
                assert_eq!(
                    recosted, route.cost_ms,
                    "approach {} route does not re-cost under epoch {} — a mixed-epoch route",
                    approach.label, resp.epoch
                );
            }
        }
    }
    assert!(
        epochs_seen.len() >= 2,
        "the load must actually straddle an epoch bump (saw {epochs_seen:?})"
    );
    let index = qp.ch_index().unwrap();
    let last = qp.traffic().snapshot().epoch();
    assert!(
        index.wait_ready(last, READY_TIMEOUT),
        "the tier must customize the final epoch {last}"
    );
    let settled = service.route(qp.prepare_query(queries[0])).unwrap();
    assert_metric_is_exact(&qp, &settled, "after the load");
}

/// TTL closures through the tier: a `close:E@1` kills the only path (a
/// response with no route in any approach, not a panic, tier enabled or
/// not, and the epoch's metric agrees the pair is cut); the next feed
/// tick expires the closure, the tier customizes the reopen epoch, and
/// both stacks serve the same response again, priced exactly by the
/// reopen epoch's metric.
#[test]
fn ttl_closure_reopen_is_tracked_by_the_ch_tier() {
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::geo::Point;

    let build_net = || {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(144.00, -37.00));
        let n1 = b.add_node(Point::new(144.01, -37.00));
        let n2 = b.add_node(Point::new(144.02, -37.00));
        b.add_bidirectional(n0, n1, EdgeSpec::default());
        b.add_bidirectional(n1, n2, EdgeSpec::default());
        (b.build(), n0, n2)
    };
    let (net, n0, n2) = build_net();
    let cut: Vec<u32> = net
        .edges()
        .filter(|&e| {
            let (a, b) = (net.tail(e).0, net.head(e).0);
            (a, b) == (1, 2) || (a, b) == (2, 1)
        })
        .map(|e| e.0)
        .collect();
    assert_eq!(cut.len(), 2);

    let make = |ch: bool| {
        let (net, _, _) = build_net();
        let qp = QueryProcessor::new("Chain", net, 1);
        let qp = if ch { qp.with_ch_index() } else { qp };
        let qp = Arc::new(qp);
        let service = RouteService::new(
            DemoBackend::new(Arc::clone(&qp)),
            ServeConfig::default(),
            &Registry::disabled(),
        );
        (qp, service)
    };
    let (plain_qp, plain) = make(false);
    let (fast_qp, fast) = make(true);
    let snapped = arp_demo::SnappedQuery {
        source: n0,
        target: n2,
    };

    // Close the n1↔n2 pair for exactly one tick, on both stacks.
    let statements: Vec<String> = cut.iter().map(|e| format!("close:{e}@1")).collect();
    let delta = TrafficDelta::parse(&statements.join("; ")).unwrap();
    plain_qp.traffic().apply_delta(&delta).unwrap();
    fast_qp.traffic().apply_delta(&delta).unwrap();
    let index = fast_qp.ch_index().unwrap();
    assert!(index.wait_ready(1, READY_TIMEOUT));
    let cut_metric = index.metric_for(1).expect("epoch 1 customized");
    assert_eq!(index.topology().distance(&cut_metric, n0, n2), None);

    // Both stacks answer identically: every lane completes with no
    // route, and no breaker is charged for it.
    let closed_plain = plain.route(plain_qp.prepare_query(snapped)).unwrap();
    let closed_fast = fast.route(fast_qp.prepare_query(snapped)).unwrap();
    for closed in [&closed_plain, &closed_fast] {
        assert!(!closed.has_route() && !closed.degraded, "{closed:?}");
    }
    assert_same_response(&closed_fast, &closed_plain, "while closed");
    for lane in 0..4 {
        assert_eq!(plain.breaker_state(lane), arp_serve::BreakerState::Closed);
        assert_eq!(fast.breaker_state(lane), arp_serve::BreakerState::Closed);
    }

    // One feed tick expires the TTL; the same deterministic feed drives
    // both stacks so their columns stay identical.
    // A quiet feed: no incident may re-close the chain's only path while
    // we are proving the TTL reopen.
    let feed = arp_traffic::TrafficFeed::quiet();
    let out_plain = plain_qp.traffic().advance_tick(&feed).unwrap();
    let out_fast = fast_qp.traffic().advance_tick(&feed).unwrap();
    assert_eq!(out_plain.epoch, out_fast.epoch);
    assert_eq!(out_fast.expired, 2, "both TTL closures must expire");
    assert_eq!(out_fast.closures_active, 0);
    assert!(index.wait_ready(out_fast.epoch, READY_TIMEOUT));

    // Service restored on the reopen epoch, byte-identical across tiers.
    let a = plain.route(plain_qp.prepare_query(snapped)).unwrap();
    let b = fast.route(fast_qp.prepare_query(snapped)).unwrap();
    assert_eq!(a.epoch, out_fast.epoch);
    assert_same_response(&b, &a, "after TTL reopen");
    assert_metric_is_exact(&fast_qp, &b, "after TTL reopen");
}

/// Epoch wraparound through the tier: a forced `u64::MAX` epoch followed
/// by a delta wraps to epoch 0 — whose column is now *overlaid*, not the
/// base weights — and the exact-match gate hands out the overlaid metric
/// while refusing the stale pre-wrap one.
#[test]
fn forced_wraparound_epoch_is_customized_exactly() {
    let make = |ch: bool| {
        let g = arp_citygen::generate(City::Copenhagen, Scale::Tiny, 11);
        let qp = QueryProcessor::new(g.name.clone(), g.network, 11);
        let qp = if ch { qp.with_ch_index() } else { qp };
        let qp = Arc::new(qp);
        let service = RouteService::new(
            DemoBackend::new(Arc::clone(&qp)),
            ServeConfig::default(),
            &Registry::disabled(),
        );
        (qp, service)
    };
    let (plain_qp, plain) = make(false);
    let (fast_qp, fast) = make(true);
    let index = fast_qp.ch_index().unwrap();

    let delta = TrafficDelta::parse("cat:residential*1.6").unwrap();
    for qp in [&plain_qp, &fast_qp] {
        qp.traffic().force_epoch(u64::MAX);
    }
    // The forced epoch is customized too, so the wrapped epoch 0 must
    // replace a metric stamped `u64::MAX`, not the start-up one.
    assert!(index.wait_ready(u64::MAX, READY_TIMEOUT));
    for qp in [&plain_qp, &fast_qp] {
        let outcome = qp.traffic().apply_delta(&delta).unwrap();
        assert_eq!(outcome.epoch, 0, "the swap past u64::MAX must wrap");
    }
    assert!(index.wait_ready(0, READY_TIMEOUT));

    let bb = plain_qp.network().bbox();
    let s = arp_roadnet::geo::Point::new(
        bb.min_lon + bb.width_deg() * 0.3,
        bb.min_lat + bb.height_deg() * 0.6,
    );
    let t = arp_roadnet::geo::Point::new(
        bb.min_lon + bb.width_deg() * 0.75,
        bb.min_lat + bb.height_deg() * 0.75,
    );
    let snapped = plain_qp.snap(s, t).unwrap();

    let a = plain.route(plain_qp.prepare_query(snapped)).unwrap();
    let b = fast.route(fast_qp.prepare_query(snapped)).unwrap();
    assert_eq!(a.epoch, 0, "wrapped epoch is 0 again");
    assert_same_response(&b, &a, "wrapped epoch");
    assert_metric_is_exact(&fast_qp, &b, "wrapped epoch");
    assert!(
        index.metric_for(u64::MAX).is_none(),
        "pre-wrap epoch is stale"
    );
}
