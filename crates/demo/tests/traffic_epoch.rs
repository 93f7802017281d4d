//! The traffic subsystem's serving-layer acceptance tests.
//!
//! The central one is adversarial: bump the graph epoch continuously while
//! request threads hammer the serving pipeline, and prove that **no
//! response ever mixes epochs** — every route in every response re-costs
//! *exactly* (millisecond for millisecond, edge by edge) under the weight
//! column of the single epoch the response claims. A torn read — one lane
//! computed under the old weights, another under the new — would make at
//! least one route's edge-sum disagree with its priced cost, because
//! consecutive epochs here always differ on every residential edge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use arp_citygen::{City, Scale};
use arp_demo::query::QueryProcessor;
use arp_demo::DemoBackend;
use arp_obs::Registry;
use arp_roadnet::weight::Weight;
use arp_serve::{RouteService, ServeConfig};
use arp_traffic::TrafficDelta;

#[test]
fn epoch_bump_mid_load_never_serves_a_mixed_epoch_route() {
    let g = arp_citygen::generate(City::Melbourne, Scale::Small, 7);
    let qp = Arc::new(QueryProcessor::new(g.name.clone(), g.network, 7));
    let service = Arc::new(RouteService::new(
        DemoBackend::new(Arc::clone(&qp)),
        ServeConfig::default(),
        &Registry::disabled(),
    ));

    // Epoch → weight column, as published. The ticker records each column
    // right after its swap; requesters only *read* the map after every
    // thread has joined, so a response stamped with epoch N always finds
    // column N here.
    let columns: Mutex<HashMap<u64, Arc<Vec<Weight>>>> = Mutex::new(HashMap::new());
    let columns = Arc::new(columns);
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

    // The ticker: a dozen swaps, each making *every* residential edge
    // strictly slower than the previous epoch, so any two epochs disagree
    // on any route touching a residential street — and small-scale cities
    // are mostly residential, so torn lanes cannot re-cost cleanly.
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

    // The requesters: pin an epoch per request (exactly what the HTTP
    // handler does), route through the full serving pipeline — cache,
    // fan-out, assembly — and keep every response for post-hoc audit.
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
                    "approach {} route does not re-cost under epoch {} — a mixed-epoch \
                     response leaked through the serving pipeline",
                    approach.label, resp.epoch
                );
            }
        }
    }
    assert!(
        epochs_seen.len() >= 2,
        "the load must actually straddle an epoch bump (saw {epochs_seen:?})"
    );
}

/// A 3-node chain n0 – n1 – n2 whose middle edge pair is the only way
/// across, served with the default configuration, plus both directed
/// edges of that pair: with them closed, n2 is unreachable from n0 and
/// vice versa.
fn chain_service() -> (
    Arc<QueryProcessor>,
    RouteService<DemoBackend>,
    [arp_roadnet::ids::NodeId; 3],
    Vec<u32>,
) {
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::geo::Point;

    let mut b = GraphBuilder::new();
    let n0 = b.add_node(Point::new(144.00, -37.00));
    let n1 = b.add_node(Point::new(144.01, -37.00));
    let n2 = b.add_node(Point::new(144.02, -37.00));
    b.add_bidirectional(n0, n1, EdgeSpec::default());
    b.add_bidirectional(n1, n2, EdgeSpec::default());
    let net = b.build();
    let cut: Vec<u32> = net
        .edges()
        .filter(|&e| {
            (net.tail(e) == n1 && net.head(e) == n2) || (net.tail(e) == n2 && net.head(e) == n1)
        })
        .map(|e| e.0)
        .collect();
    assert_eq!(cut.len(), 2);

    let qp = Arc::new(QueryProcessor::new("Chain", net, 1));
    let service = RouteService::new(
        DemoBackend::new(Arc::clone(&qp)),
        ServeConfig::default(),
        &Registry::disabled(),
    );
    (qp, service, [n0, n1, n2], cut)
}

/// Applies one delta of `verb:<edge>` statements over `edges`.
fn apply_to_edges(qp: &QueryProcessor, verb: &str, edges: &[u32]) {
    let statements: Vec<String> = edges.iter().map(|e| format!("{verb}:{e}")).collect();
    let delta = TrafficDelta::parse(&statements.join("; ")).unwrap();
    qp.traffic().apply_delta(&delta).unwrap();
}

/// Closing the only edge into the target leaves every technique with
/// zero routes — a complete answer, not a lane failure, and never a
/// panic anywhere in the stack — and reopening restores the routes.
#[test]
fn only_path_closure_answers_no_route_and_reopening_restores_service() {
    let (qp, service, [n0, _, n2], cut) = chain_service();
    let snapped = arp_demo::SnappedQuery {
        source: n0,
        target: n2,
    };

    // Open: the pair routes.
    let open = service.route(qp.prepare_query(snapped)).unwrap();
    assert_eq!(open.epoch, 0);
    assert!(open.has_route());

    // Closed: every lane answers "no route at this epoch" — a complete,
    // healthy response with zero routes in every approach.
    apply_to_edges(&qp, "close", &cut);
    let closed = service.route(qp.prepare_query(snapped)).unwrap();
    assert_eq!(closed.epoch, 1);
    assert!(!closed.has_route(), "{closed:?}");
    assert!(!closed.degraded && !closed.truncated, "{closed:?}");
    assert_eq!(closed.fastest_minutes, 0);

    // Reopened: service restored, on a fresh epoch, same routes as before.
    apply_to_edges(&qp, "reopen", &cut);
    let reopened = service.route(qp.prepare_query(snapped)).unwrap();
    assert_eq!(reopened.epoch, 2);
    assert_eq!(reopened.fastest_minutes, open.fastest_minutes);
}

/// Regression: a trip beyond a closed road used to fail every lane with
/// `Unreachable`, each failure charged to that lane's circuit breaker,
/// so eight such requests opened all four breakers and the routable
/// request after them was refused ("circuit open") while the health
/// verdict read unhealthy. "No route" is every technique's complete
/// answer: the breakers stay closed and the service stays ready.
#[test]
fn an_unroutable_trip_keeps_every_breaker_closed() {
    let (qp, service, [n0, n1, n2], cut) = chain_service();
    apply_to_edges(&qp, "close", &cut);
    let beyond = arp_demo::SnappedQuery {
        source: n0,
        target: n2,
    };
    for _ in 0..8 {
        let response = service.route(qp.prepare_query(beyond)).unwrap();
        assert!(!response.has_route() && !response.degraded, "{response:?}");
    }
    for lane in 0..4 {
        assert_eq!(
            service.breaker_state(lane),
            arp_serve::BreakerState::Closed,
            "lane {lane}"
        );
    }
    assert_eq!(service.health().verdict, arp_serve::HealthVerdict::Ready);

    let routable = arp_demo::SnappedQuery {
        source: n0,
        target: n1,
    };
    let response = service.route(qp.prepare_query(routable)).unwrap();
    assert!(response.has_route() && !response.degraded, "{response:?}");
}

/// TTL expiry on the served path: a `close:E@1` cuts the chain's only
/// path, and the next feed tick expires the closure, so the trip is
/// served again on the new epoch with the open route.
#[test]
fn a_ttl_closure_expires_and_the_trip_is_served_again() {
    let (qp, service, [n0, _, n2], cut) = chain_service();
    let snapped = arp_demo::SnappedQuery {
        source: n0,
        target: n2,
    };
    let open = service.route(qp.prepare_query(snapped)).unwrap();
    assert!(open.has_route());

    let statements: Vec<String> = cut.iter().map(|e| format!("close:{e}@1")).collect();
    let delta = TrafficDelta::parse(&statements.join("; ")).unwrap();
    qp.traffic().apply_delta(&delta).unwrap();
    let closed = service.route(qp.prepare_query(snapped)).unwrap();
    assert_eq!(closed.epoch, 1);
    assert!(!closed.has_route() && !closed.degraded, "{closed:?}");

    let outcome = qp
        .traffic()
        .advance_tick(&arp_traffic::TrafficFeed::quiet())
        .unwrap();
    assert_eq!((outcome.expired, outcome.closures_active), (2, 0));
    let reopened = service.route(qp.prepare_query(snapped)).unwrap();
    assert_eq!(reopened.epoch, outcome.epoch);
    assert!(reopened.has_route() && !reopened.degraded, "{reopened:?}");
    assert_eq!(reopened.fastest_minutes, open.fastest_minutes);
    let edges = |r: &arp_demo::query::QueryResponse| -> Vec<_> {
        r.approaches[0]
            .routes
            .iter()
            .map(|x| x.edges.clone())
            .collect()
    };
    assert_eq!(edges(&reopened), edges(&open));
}

/// An epoch number can name two weight columns: `force_epoch(u64::MAX)`
/// and a delta wrap the epoch back to 0. The route cache must not serve
/// what it cached at the first epoch 0 for the second: the service that
/// cached the trip before the wrap answers what a fresh service answers
/// after it.
#[test]
fn a_wrapped_epoch_is_not_served_from_the_cache_of_its_namesake() {
    let g = arp_citygen::generate(City::Copenhagen, Scale::Tiny, 11);
    let qp = Arc::new(QueryProcessor::new(g.name.clone(), g.network, 11));
    let service = || {
        RouteService::new(
            DemoBackend::new(Arc::clone(&qp)),
            ServeConfig::default(),
            &Registry::disabled(),
        )
    };
    let warm = service();
    let bb = qp.network().bbox();
    let at = |x: f64, y: f64| {
        arp_roadnet::geo::Point::new(
            bb.min_lon + bb.width_deg() * x,
            bb.min_lat + bb.height_deg() * y,
        )
    };
    let snapped = qp.snap(at(0.3, 0.6), at(0.75, 0.75)).unwrap();
    let before = warm.route(qp.prepare_query(snapped)).unwrap();
    assert_eq!(before.epoch, 0);

    qp.traffic().force_epoch(u64::MAX);
    let delta = TrafficDelta::parse("cat:residential*3.0").unwrap();
    assert_eq!(qp.traffic().apply_delta(&delta).unwrap().epoch, 0);

    let fresh = service().route(qp.prepare_query(snapped)).unwrap();
    let served = warm.route(qp.prepare_query(snapped)).unwrap();
    assert_eq!(served.epoch, 0);
    assert_ne!(
        fresh.fastest_minutes, before.fastest_minutes,
        "the slowdown must move the trip"
    );
    assert_eq!(served.fastest_minutes, fresh.fastest_minutes);
    let weights = qp.traffic().snapshot().weights().clone();
    for approach in &served.approaches {
        for route in &approach.routes {
            let recosted: u64 = route
                .edges
                .iter()
                .map(|&e| u64::from(weights[e.index()]))
                .sum();
            assert_eq!(recosted, route.cost_ms, "approach {}", approach.label);
        }
    }
}
