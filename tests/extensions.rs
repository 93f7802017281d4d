//! Integration tests for the extension machinery (alternative-graph
//! metrics, turn-aware routing, ESX, CH) working together on a real
//! synthetic city.

use alt_route_planner::prelude::*;
use arp_core::altgraph::alt_graph_metrics;
use arp_core::{turn_aware_shortest_path, ChTopology, EsxOptions, TurnModel};
use arp_roadnet::spatial::SpatialIndex;

fn city_query() -> (arp_citygen::GeneratedCity, NodeId, NodeId) {
    let g = citygen::generate(City::Melbourne, Scale::Tiny, 404);
    let idx = SpatialIndex::build(&g.network);
    let bb = g.network.bbox();
    let s = idx
        .nearest_node(
            &g.network,
            Point::new(
                bb.min_lon + bb.width_deg() * 0.2,
                bb.min_lat + bb.height_deg() * 0.25,
            ),
        )
        .unwrap();
    let t = idx
        .nearest_node(
            &g.network,
            Point::new(
                bb.min_lon + bb.width_deg() * 0.8,
                bb.min_lat + bb.height_deg() * 0.8,
            ),
        )
        .unwrap();
    (g, s, t)
}

#[test]
fn alt_graph_metrics_of_each_technique_are_sane() {
    let (g, s, t) = city_query();
    let net = &g.network;
    let q = AltQuery::paper();
    let best = shortest_path(net, net.weights(), s, t).unwrap().cost_ms;

    for provider in standard_providers(net, 404) {
        let routes = provider.alternatives(net, net.weights(), s, t, &q).unwrap();
        let paths: Vec<Path> = routes.into_iter().map(|r| r.path).collect();
        if paths.is_empty() {
            continue;
        }
        let m = alt_graph_metrics(net, net.weights(), &paths, best);
        assert!(m.total_distance >= 0.99, "{}: {m:?}", provider.kind());
        assert!(
            m.average_distance >= 0.99 && m.average_distance < 2.0,
            "{}: {m:?}",
            provider.kind()
        );
        // k=3 routes cannot need more than a handful of decisions.
        assert!(
            m.decision_edges <= 3 * paths.len(),
            "{}: {m:?}",
            provider.kind()
        );
    }
}

#[test]
fn turn_aware_route_never_turns_more_than_plain() {
    let (g, s, t) = city_query();
    let net = &g.network;
    let plain = shortest_path(net, net.weights(), s, t).unwrap();
    let aware = turn_aware_shortest_path(net, net.weights(), &TurnModel::default(), s, t).unwrap();
    // The real guarantee: the turn-aware route minimizes the *penalized*
    // objective, so it must not lose to the plain route under the model.
    let model = TurnModel::default();
    let penalized = |p: &Path| -> u64 {
        let turns: u64 = p
            .edges
            .windows(2)
            .map(|w| model.penalty_ms(net, w[0], w[1]) as u64)
            .sum();
        p.cost_under(net.weights()) + turns
    };
    assert!(
        penalized(&aware) <= penalized(&plain),
        "aware {} > plain {} under the turn model",
        penalized(&aware),
        penalized(&plain)
    );
    // And the geometric 45-degree turn count stays comparable (the model
    // uses a 30-degree threshold, so tiny discrepancies are expected).
    let plain_turns = arp_core::quality::turn_count(net, &plain, 45.0);
    let aware_turns = arp_core::quality::turn_count(net, &aware, 45.0);
    assert!(
        aware_turns <= plain_turns + 2,
        "aware {aware_turns} much worse than plain {plain_turns}"
    );
    // And the travel-time overhead stays moderate.
    let overhead = aware.cost_under(net.weights()) as f64 / plain.cost_ms as f64;
    assert!(overhead < 1.5, "turn-aware overhead {overhead}");
}

#[test]
fn esx_and_ch_agree_with_plain_search_on_city() {
    let (g, s, t) = city_query();
    let net = &g.network;
    let q = AltQuery::paper();
    let best = shortest_path(net, net.weights(), s, t).unwrap();

    let unlimited = SearchBudget::unlimited();
    let esx = esx_alternatives(
        net,
        net.weights(),
        s,
        t,
        &q,
        &EsxOptions::default(),
        &unlimited,
    );
    let esx = esx.unwrap();
    assert_eq!(esx[0].cost_ms, best.cost_ms);

    let topo = ChTopology::build(net);
    let metric = topo.customize(net, net.weights()).unwrap();
    assert_eq!(topo.distance(&metric, s, t), Some(best.cost_ms));
    let unpacked = topo
        .shortest_path(&metric, net, net.weights(), s, t)
        .unwrap();
    assert_eq!(unpacked.cost_ms, best.cost_ms);
    assert!(unpacked.validate(net));
}
