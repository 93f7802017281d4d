//! Property-based tests for the road-network substrate.

use arp_roadnet::prelude::*;
use arp_roadnet::scc::{largest_scc_subnetwork, strongly_connected_components};
use arp_roadnet::{geo, io};
use proptest::prelude::*;

/// Node coordinates plus an edge list `(tail, head, weight)`.
type GraphParts = (Vec<(f64, f64)>, Vec<(usize, usize, u32)>);

/// Strategy: a random small graph as (node points, edge list).
fn arb_graph() -> impl Strategy<Value = GraphParts> {
    (2usize..40).prop_flat_map(|n| {
        let nodes = proptest::collection::vec((144.0f64..145.0, -38.0f64..-37.0), n);
        let edges = proptest::collection::vec((0..n, 0..n, 1u32..100_000), 0..(n * 4));
        (nodes, edges)
    })
}

fn build(nodes: &[(f64, f64)], edges: &[(usize, usize, u32)]) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = nodes
        .iter()
        .map(|&(lon, lat)| b.add_node(Point::new(lon, lat)))
        .collect();
    for &(t, h, w) in edges {
        b.add_edge(
            ids[t],
            ids[h],
            EdgeSpec::category(RoadCategory::Primary).with_weight(w),
        );
    }
    b.build()
}

proptest! {
    #[test]
    fn csr_invariants_always_hold((nodes, edges) in arb_graph()) {
        let net = build(&nodes, &edges);
        prop_assert!(net.check_invariants());
    }

    #[test]
    fn forward_and_backward_adjacency_agree((nodes, edges) in arb_graph()) {
        let net = build(&nodes, &edges);
        // Every out-edge of v appears exactly once among in-edges of its head.
        let mut in_counts = vec![0usize; net.num_nodes()];
        for v in net.nodes() {
            for e in net.out_edges(v) {
                prop_assert_eq!(net.tail(e), v);
                in_counts[net.head(e).index()] += 1;
            }
        }
        for v in net.nodes() {
            prop_assert_eq!(net.in_edges(v).count(), in_counts[v.index()]);
            for e in net.in_edges(v) {
                prop_assert_eq!(net.head(e), v);
            }
        }
    }

    #[test]
    fn dedup_keeps_minimum_weight((nodes, edges) in arb_graph()) {
        let net = build(&nodes, &edges);
        use std::collections::HashMap;
        let mut best: HashMap<(u32, u32), u32> = HashMap::new();
        for &(t, h, w) in &edges {
            if t == h { continue; }
            let k = (t as u32, h as u32);
            let e = best.entry(k).or_insert(u32::MAX);
            *e = (*e).min(w);
        }
        prop_assert_eq!(net.num_edges(), best.len());
        for e in net.edges() {
            let k = (net.tail(e).0, net.head(e).0);
            prop_assert_eq!(net.weight(e), best[&k]);
        }
    }

    #[test]
    fn serialization_roundtrip((nodes, edges) in arb_graph()) {
        let net = build(&nodes, &edges);
        let back = io::network_from_str(&io::network_to_string(&net)).unwrap();
        prop_assert_eq!(back.num_nodes(), net.num_nodes());
        prop_assert_eq!(back.num_edges(), net.num_edges());
        for e in net.edges() {
            prop_assert_eq!(back.tail(e), net.tail(e));
            prop_assert_eq!(back.head(e), net.head(e));
            prop_assert_eq!(back.weight(e), net.weight(e));
            prop_assert_eq!(back.category(e), net.category(e));
        }
    }

    #[test]
    fn scc_component_ids_are_dense((nodes, edges) in arb_graph()) {
        let net = build(&nodes, &edges);
        let scc = strongly_connected_components(&net);
        prop_assert_eq!(scc.sizes.len(), scc.num_components);
        let total: u32 = scc.sizes.iter().sum();
        prop_assert_eq!(total as usize, net.num_nodes());
        for v in net.nodes() {
            prop_assert!((scc.component[v.index()] as usize) < scc.num_components);
        }
    }

    #[test]
    fn scc_respects_mutual_reachability_on_cycles(n in 2usize..30) {
        // A directed cycle plus a chord is still one SCC.
        let nodes: Vec<(f64, f64)> = (0..n).map(|i| (144.0 + i as f64 * 1e-3, -37.5)).collect();
        let mut edges: Vec<(usize, usize, u32)> = (0..n).map(|i| (i, (i + 1) % n, 10)).collect();
        edges.push((0, n / 2, 5));
        let net = build(&nodes, &edges);
        let scc = strongly_connected_components(&net);
        prop_assert_eq!(scc.num_components, 1);
    }

    #[test]
    fn largest_scc_is_strongly_connected((nodes, edges) in arb_graph()) {
        let net = build(&nodes, &edges);
        let (sub, _) = largest_scc_subnetwork(&net);
        if sub.num_nodes() > 0 {
            let scc = strongly_connected_components(&sub);
            prop_assert_eq!(scc.num_components, 1);
        }
    }

    #[test]
    fn nearest_node_matches_brute_force(
        (nodes, edges) in arb_graph(),
        qlon in 143.5f64..145.5,
        qlat in -38.5f64..-36.5,
    ) {
        let net = build(&nodes, &edges);
        let idx = SpatialIndex::build(&net);
        let q = Point::new(qlon, qlat);
        let fast = idx.nearest_node(&net, q).unwrap();
        let brute_d = net
            .nodes()
            .map(|v| geo::haversine_m(net.point(v), q))
            .fold(f64::INFINITY, f64::min);
        let fast_d = geo::haversine_m(net.point(fast), q);
        prop_assert!((fast_d - brute_d).abs() < 1e-6, "fast {} brute {}", fast_d, brute_d);
    }

    #[test]
    fn haversine_triangle_inequality(
        a in (144.0f64..145.0, -38.0f64..-37.0),
        b in (144.0f64..145.0, -38.0f64..-37.0),
        c in (144.0f64..145.0, -38.0f64..-37.0),
    ) {
        let pa = Point::new(a.0, a.1);
        let pb = Point::new(b.0, b.1);
        let pc = Point::new(c.0, c.1);
        let ab = geo::haversine_m(pa, pb);
        let bc = geo::haversine_m(pb, pc);
        let ac = geo::haversine_m(pa, pc);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn travel_time_monotone_in_length(
        l1 in 1.0f64..10_000.0,
        dl in 1.0f64..10_000.0,
        speed in 5.0f64..110.0,
    ) {
        let cfg = WeightConfig::paper();
        let w1 = cfg.travel_time_ms(l1, speed, RoadCategory::Primary);
        let w2 = cfg.travel_time_ms(l1 + dl, speed, RoadCategory::Primary);
        prop_assert!(w2 >= w1);
    }
}
