//! Workspace-level integration tests: the complete paper pipeline from
//! synthetic OSM data to rated study tables, spanning every crate.

use alt_route_planner::prelude::*;
use arp_core::provider::standard_providers;
use arp_osm::constructor::{build_road_network, ConstructorConfig};
use arp_osm::export::network_to_osm;
use arp_osm::writer::write_osm_xml;
use arp_osm::xml::parse_osm_xml;

/// The full §3 data path: city → OSM XML → constructor → demo query
/// processor → four approaches → blinded display payload.
#[test]
fn osm_to_demo_pipeline() {
    let city = citygen::generate(City::Melbourne, Scale::Tiny, 2024);
    let xml = write_osm_xml(&network_to_osm(&city.network));
    let parsed = parse_osm_xml(&xml).unwrap();
    let (net, stats) = build_road_network(&parsed, &ConstructorConfig::default()).unwrap();
    assert_eq!(stats.dangling_refs, 0);
    assert_eq!(net.num_edges(), city.network.num_edges());

    let processor = QueryProcessor::new("Melbourne", net, 2024);
    let bb = processor.network().bbox();
    let s = Point::new(
        bb.min_lon + bb.width_deg() * 0.2,
        bb.min_lat + bb.height_deg() * 0.3,
    );
    let t = Point::new(
        bb.min_lon + bb.width_deg() * 0.8,
        bb.min_lat + bb.height_deg() * 0.75,
    );
    let resp = processor.process(s, t).unwrap();
    assert_eq!(resp.approaches.len(), 4);
    assert!(resp.fastest_minutes >= 1);
    // Every approach's fastest display time is >= the global fastest.
    for a in &resp.approaches {
        assert!(!a.routes.is_empty());
        assert!(a.routes[0].minutes >= resp.fastest_minutes);
    }
}

/// The §4 study pipeline on a small city, checking the blinding and the
/// statistics layer work against real provider output.
#[test]
fn study_to_tables_pipeline() {
    let city = citygen::generate(City::Melbourne, Scale::Small, 99);
    let providers = standard_providers(&city.network, 99);
    let config = StudyConfig {
        seed: 99,
        query: AltQuery::paper(),
        resident_bins: [8, 8, 0],
        nonresident_bins: [6, 6, 0],
    };
    let outcome = run_study(
        &city.network,
        &providers,
        &config,
        &Calibration::from_paper_targets(),
    );
    assert!(outcome.responses.len() >= 20);

    let t1 = table1(&outcome);
    let t2 = table2(&outcome);
    let t3 = table3(&outcome);
    assert_eq!(
        t2.rows[0].responses + t3.rows[0].responses,
        t1.rows[0].responses
    );
    // Ratings live on the 1..=5 scale, so every summary does too.
    for table in [&t1, &t2, &t3] {
        for row in &table.rows {
            for cell in &row.cells {
                if cell.n > 0 {
                    assert!((1.0..=5.0).contains(&cell.mean));
                    assert!(cell.sd <= 2.5);
                }
            }
        }
    }
    let report = anova_report(&outcome);
    assert!(report.all.is_some());
}

/// Cross-technique agreement: every technique's first route is the same
/// optimal cost, on every city.
#[test]
fn first_route_is_always_the_public_optimum() {
    for kind in City::ALL {
        let city = citygen::generate(kind, Scale::Tiny, 31);
        let net = &city.network;
        let queries_seed = 31;
        let mut ws = SearchSpace::new(net);
        let providers = standard_providers(net, 31);
        let n = net.num_nodes() as u32;
        let pairs = [(0u32, n / 2), (1, n - 2), (n / 3, 2 * n / 3)];
        let q = AltQuery::paper();
        for (a, b) in pairs {
            let (s, t) = (NodeId(a), NodeId(b));
            if s == t {
                continue;
            }
            let best = ws.shortest_path(net, net.weights(), s, t).unwrap().cost_ms;
            // The Google-like provider optimizes on its own data.
            for provider in providers
                .iter()
                .filter(|p| p.kind() != ProviderKind::GoogleLike)
            {
                let routes = provider.alternatives(net, net.weights(), s, t, &q).unwrap();
                assert_eq!(routes[0].path.cost_ms, best, "{kind:?} {}", provider.kind());
            }
            let unlimited = SearchBudget::unlimited();
            let yen = yen_k_shortest_paths(net, net.weights(), s, t, 1, &unlimited).unwrap();
            assert_eq!(yen[0].cost_ms, best, "{kind:?} yen");
        }
        let _ = queries_seed;
    }
}

/// The demo HTTP API drives the whole stack: route query, rating, results.
#[test]
fn http_api_full_session() {
    let city = citygen::generate(City::Copenhagen, Scale::Tiny, 5);
    let app = DemoApp::new(QueryProcessor::new(city.name.clone(), city.network, 5));

    let bb = app.processor.network().bbox();
    let body = format!(
        r#"{{"slon": {}, "slat": {}, "tlon": {}, "tlat": {}}}"#,
        bb.min_lon + bb.width_deg() * 0.25,
        bb.min_lat + bb.height_deg() * 0.25,
        bb.min_lon + bb.width_deg() * 0.7,
        bb.min_lat + bb.height_deg() * 0.8,
    );
    let route = app.handle("POST", "/api/route", &body);
    assert_eq!(route.status, 200, "{}", route.body);

    for i in 0..5 {
        let rate = format!(
            r#"{{"a": {}, "b": 4, "c": 3, "d": 5, "resident": {}, "fastest_minutes": 12, "comment": "say \"hi\" {i}"}}"#,
            1 + (i % 5),
            i % 2 == 0
        );
        assert_eq!(app.handle("POST", "/api/rate", &rate).status, 200);
    }
    assert_eq!(app.store.len(), 5);
    let results = app.handle("GET", "/api/results", "");
    assert!(results.body.contains("\"count\":5"));

    // The CSV export: a header, then one row per submission with its
    // comment quoted and inner quotes doubled.
    let csv = app.handle("GET", "/api/results.csv", "").body;
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(
        lines[0],
        "rating_a,rating_b,rating_c,rating_d,resident,fastest_minutes,comment"
    );
    assert_eq!(lines.len(), 6, "{csv}");
    for (i, row) in lines[1..].iter().enumerate() {
        let expected = format!(
            "{},4,3,5,{},12,\"say \"\"hi\"\" {i}\"",
            1 + (i % 5),
            i % 2 == 0
        );
        assert_eq!(*row, expected);
    }
}

/// Serialization round-trip of a generated city through the roadnet text
/// format preserves routing behaviour exactly.
#[test]
fn network_io_preserves_routing() {
    let city = citygen::generate(City::Dhaka, Scale::Tiny, 77);
    let text = arp_roadnet::io::network_to_string(&city.network);
    let restored = arp_roadnet::io::network_from_str(&text).unwrap();

    let mut ws1 = SearchSpace::new(&city.network);
    let mut ws2 = SearchSpace::new(&restored);
    let n = city.network.num_nodes() as u32;
    for (s, t) in [(0u32, n - 1), (n / 4, 3 * n / 4), (n / 2, 1)] {
        if s == t {
            continue;
        }
        let d1 = ws1.shortest_path(&city.network, city.network.weights(), NodeId(s), NodeId(t));
        let d2 = ws2.shortest_path(&restored, restored.weights(), NodeId(s), NodeId(t));
        match (d1, d2) {
            (Ok(a), Ok(b)) => assert_eq!(a.cost_ms, b.cost_ms),
            (Err(_), Err(_)) => {}
            other => panic!("routing diverged after io round-trip: {other:?}"),
        }
    }
}
