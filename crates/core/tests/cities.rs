//! Integration tests: the four techniques on all three synthetic study
//! cities, checking the structural claims the paper makes about them.

use std::sync::Arc;

use arp_citygen::{City, Scale};
use arp_core::prelude::*;
use arp_core::quality::route_set_features;
use arp_core::similarity::diversity;
use arp_core::{dissimilarity_alternatives_from_trees, Funnel, SearchSubstrate};
use arp_obs::Registry;
use arp_roadnet::ids::NodeId;
use arp_roadnet::spatial::SpatialIndex;
use arp_roadnet::weight::UNIT_SCALE;

/// The paths `provider` routes from `s` to `t` on `net`'s own weights.
fn routed(
    provider: &dyn AlternativesProvider,
    net: &arp_roadnet::RoadNetwork,
    (s, t): (NodeId, NodeId),
    q: &AltQuery,
) -> Vec<Path> {
    let routes = provider.alternatives(net, net.weights(), s, t, q).unwrap();
    routes.into_iter().map(|r| r.path).collect()
}

/// Deterministic medium-distance query endpoints: pick nodes near opposite
/// corners of the city.
fn corner_query(net: &arp_roadnet::RoadNetwork) -> (NodeId, NodeId) {
    let idx = SpatialIndex::build(net);
    let bb = net.bbox();
    let a = idx
        .nearest_node(
            net,
            arp_roadnet::geo::Point::new(
                bb.min_lon + bb.width_deg() * 0.25,
                bb.min_lat + bb.height_deg() * 0.25,
            ),
        )
        .unwrap();
    let b = idx
        .nearest_node(
            net,
            arp_roadnet::geo::Point::new(
                bb.min_lon + bb.width_deg() * 0.75,
                bb.min_lat + bb.height_deg() * 0.75,
            ),
        )
        .unwrap();
    (a, b)
}

#[test]
fn all_techniques_work_on_all_cities() {
    for city in City::ALL {
        let g = arp_citygen::generate(city, Scale::Small, 11);
        let net = &g.network;
        let (s, t) = corner_query(net);
        assert_ne!(s, t);
        let q = AltQuery::paper();
        let best = shortest_path(net, net.weights(), s, t).unwrap().cost_ms;

        for provider in standard_providers(net, 17) {
            let routes = provider
                .alternatives(net, net.weights(), s, t, &q)
                .unwrap_or_else(|e| panic!("{} on {city}: {e}", provider.kind()));
            assert!(
                !routes.is_empty(),
                "{} on {city} returned nothing",
                provider.kind()
            );
            for r in &routes {
                assert!(r.path.validate(net));
                assert_eq!(r.path.source(), s);
                assert_eq!(r.path.target(), t);
            }
            // Local techniques honour the stretch bound; the Google-like
            // provider optimizes on different data so its public-priced
            // stretch may exceed it slightly (the Fig. 4 phenomenon), but
            // never unboundedly.
            for r in &routes {
                let stretch = r.public_cost_ms as f64 / best as f64;
                let limit = if provider.kind() == ProviderKind::GoogleLike {
                    2.2
                } else {
                    q.epsilon + 1e-9
                };
                assert!(
                    stretch <= limit,
                    "{} on {city}: stretch {stretch} > {limit}",
                    provider.kind()
                );
            }
        }
    }
}

/// Deterministic sample of query pairs spread across the city.
fn sample_pairs(net: &arp_roadnet::RoadNetwork, count: u32) -> Vec<(NodeId, NodeId)> {
    let n = net.num_nodes() as u32;
    (0..count)
        .map(|i| (NodeId((i * 37) % n), NodeId((i * 101 + 7) % n)))
        .filter(|(s, t)| s != t)
        .collect()
}

#[test]
fn cch_is_exact_on_all_cities_under_overlays() {
    // The customizable-CH tier must agree with Dijkstra on distances,
    // and unpack to valid, exact, open edge lists, for every
    // city and for every overlay shape live traffic can produce: the
    // identity column, per-edge slowdowns, a category-wide slowdown,
    // and closures. One topology per city, one cheap customization per
    // column.
    use arp_core::ChTopology;
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::weight::CLOSED;

    for city in City::ALL {
        let g = arp_citygen::generate(city, Scale::Tiny, 7);
        let net = &g.network;
        let topo = ChTopology::build(net);

        // Per-edge overlay: every fifth edge slowed 4x.
        let mut per_edge = net.weights().to_vec();
        for (i, w) in per_edge.iter_mut().enumerate() {
            if i % 5 == 0 {
                *w = w.saturating_mul(4).min(u32::MAX - 1);
            }
        }
        // Category overlay: all residential roads slowed 2x, plus a
        // couple of closures on top.
        let mut category = net.weights().to_vec();
        for e in net.edges() {
            if net.category(e) == RoadCategory::Residential {
                category[e.index()] = category[e.index()].saturating_mul(2).min(u32::MAX - 1);
            }
        }
        category[net.num_edges() / 3] = CLOSED;
        category[net.num_edges() / 2] = CLOSED;

        for (label, column) in [
            ("identity", net.weights()),
            ("per-edge", &per_edge[..]),
            ("category+closures", &category[..]),
        ] {
            let metric = topo.customize(net, column).unwrap();
            let mut ws = SearchSpace::new(net);
            for (s, t) in sample_pairs(net, 10) {
                let expect = ws.shortest_distance(net, column, s, t).ok();
                assert_eq!(
                    topo.distance(&metric, s, t),
                    expect,
                    "{city}/{label}: {s} -> {t}"
                );
                let Some(expect) = expect else { continue };
                // Unpacked edge lists: the CH path is exact and valid.
                let unpacked = topo.shortest_path(&metric, net, column, s, t).unwrap();
                assert_eq!(unpacked.cost_ms, expect, "{city}/{label}");
                assert!(unpacked.validate(net), "{city}/{label}");
                for e in &unpacked.edges {
                    assert_ne!(column[e.index()], CLOSED, "{city}/{label}: closed edge");
                }
            }
        }
    }
}

#[test]
fn alternatives_are_diverse_on_cities() {
    // The whole point of alternative routes: the techniques should produce
    // sets with meaningful pairwise dissimilarity where the topology allows
    // it (bridges and freeway/surface duality guarantee that here).
    let g = arp_citygen::generate(City::Melbourne, Scale::Small, 23);
    let net = &g.network;
    let (s, t) = corner_query(net);
    let q = AltQuery::paper();

    let dis = routed(
        &DissimilarityProvider::new(&Registry::disabled()),
        net,
        (s, t),
        &q,
    );
    if dis.len() >= 2 {
        let d = diversity(&dis, net.weights());
        assert!(d > q.theta - 1e-9, "dissimilarity set diversity {d}");
    }

    let pla = routed(
        &PlateauProvider::new(&Registry::disabled()),
        net,
        (s, t),
        &q,
    );
    if pla.len() >= 2 {
        let d = diversity(&pla, net.weights());
        assert!(d > 0.05, "plateau set diversity {d}");
    }
}

#[test]
fn quality_report_is_sane_on_city() {
    let g = arp_citygen::generate(City::Copenhagen, Scale::Small, 5);
    let net = &g.network;
    let (s, t) = corner_query(net);
    let q = AltQuery::paper();
    let paths = routed(
        &PenaltyProvider::new(&Registry::disabled()),
        net,
        (s, t),
        &q,
    );
    let best = paths[0].cost_ms;
    let report = route_set_features(net, net.weights(), &paths, best, q.k);
    assert_eq!(report.count, paths.len());
    assert_eq!(report.first_stretch, 1.0);
    assert!(report.mean_stretch >= 1.0);
    assert!(report.mean_stretch <= q.epsilon + 1e-9);
    assert!((0.0..=1.0).contains(&report.diversity));
    assert!((0.0..=1.0).contains(&report.wide_share));
    assert!(report.max_wiggliness >= 1.0);
}

#[test]
fn yen_less_diverse_than_dissimilarity_on_city() {
    let g = arp_citygen::generate(City::Dhaka, Scale::Small, 31);
    let net = &g.network;
    let (s, t) = corner_query(net);
    let q = AltQuery::paper();

    let yen =
        yen_k_shortest_paths(net, net.weights(), s, t, 3, &SearchBudget::unlimited()).unwrap();
    let dis = routed(
        &DissimilarityProvider::new(&Registry::disabled()),
        net,
        (s, t),
        &q,
    );
    if yen.len() >= 2 && dis.len() >= 2 {
        let yen_div = diversity(&yen, net.weights());
        let dis_div = diversity(&dis, net.weights());
        assert!(
            dis_div >= yen_div,
            "dissimilarity ({dis_div}) should beat yen ({yen_div})"
        );
    }
}

#[test]
fn google_like_routes_flip_under_public_pricing_somewhere() {
    // Reproduces the Fig. 4 mechanism on a whole city: for at least one of
    // several queries, the Google-like provider's first route is NOT the
    // public optimum.
    let g = arp_citygen::generate(City::Melbourne, Scale::Small, 2);
    let net = &g.network;
    let idx = SpatialIndex::build(net);
    let provider = GoogleLikeProvider::new(net, 1234);
    let q = AltQuery::paper();
    let bb = net.bbox();

    let mut flips = 0usize;
    let mut total = 0usize;
    for i in 0..12 {
        let fx = 0.1 + 0.8 * ((i * 37 % 12) as f64 / 12.0);
        let fy = 0.1 + 0.8 * ((i * 53 % 12) as f64 / 12.0);
        let s = idx
            .nearest_node(
                net,
                arp_roadnet::geo::Point::new(
                    bb.min_lon + bb.width_deg() * fx,
                    bb.min_lat + bb.height_deg() * 0.15,
                ),
            )
            .unwrap();
        let t = idx
            .nearest_node(
                net,
                arp_roadnet::geo::Point::new(
                    bb.min_lon + bb.width_deg() * (1.0 - fx),
                    bb.min_lat + bb.height_deg() * fy,
                ),
            )
            .unwrap();
        if s == t {
            continue;
        }
        let Ok(routes) = provider.alternatives(net, net.weights(), s, t, &q) else {
            continue;
        };
        let Ok(best) = shortest_path(net, net.weights(), s, t) else {
            continue;
        };
        total += 1;
        if routes[0].public_cost_ms > best.cost_ms {
            flips += 1;
        }
    }
    assert!(total >= 6, "too few valid queries");
    assert!(flips > 0, "no data-mismatch flips in {total} queries");
}

#[test]
fn search_work_counters_are_pinned_on_dhaka() {
    // `(settled, heap_pops, relaxed)` summed over a fixed query set, as
    // counted before the search loops were folded into one kernel (the
    // bounded tree pair: as first built). The counters feed
    // `reports/perf.txt` and the benchmark's `core.*` ledger, so a
    // refactor of the kernel must reproduce them exactly.
    use arp_core::search::Direction;
    use arp_core::SearchStats;

    let g = arp_citygen::generate(City::Dhaka, Scale::Small, 11);
    let net = &g.network;
    let w = net.weights();
    let mut ws = SearchSpace::new(net);
    let [mut one, mut fwd, mut bwd, mut bounded, mut pruned] = [SearchStats::default(); 5];
    let unpruned = Arc::new(Landmarks::empty());
    let landmarks = Arc::new(Landmarks::build(net, w));
    for (s, t) in sample_pairs(net, 12) {
        ws.shortest_path(net, w, s, t).unwrap();
        one.accumulate(&ws.last_stats());
        ws.shortest_path_tree(net, w, s, Direction::Forward)
            .unwrap();
        fwd.accumulate(&ws.last_stats());
        ws.shortest_path_tree(net, w, t, Direction::Backward)
            .unwrap();
        bwd.accumulate(&ws.last_stats());
        let sub = SearchSubstrate::build(
            &mut ws,
            net,
            w,
            &unpruned,
            UNIT_SCALE,
            s,
            t,
            &AltQuery::paper(),
        );
        bounded.accumulate(&sub.unwrap().build_stats());
        let sub = SearchSubstrate::build(
            &mut ws,
            net,
            w,
            &landmarks,
            UNIT_SCALE,
            s,
            t,
            &AltQuery::paper(),
        );
        pruned.accumulate(&sub.unwrap().build_stats());
    }
    let counted = [one, fwd, bwd, bounded].map(|s| (s.settled, s.heap_pops, s.relaxed));
    assert_eq!(
        counted,
        [
            (9154, 9886, 26029),
            (21528, 23277, 60624),
            (21528, 23236, 60624),
            (18830, 20310, 53675),
        ],
        "one-to-one, forward trees, backward trees, bounded tree pairs"
    );
    // The landmark table prunes the ball — its probe included, the served
    // pairs settle less than the plain bounded pairs.
    assert!(
        pruned.settled < bounded.settled,
        "{pruned:?} vs {bounded:?}"
    );

    // Penalty's re-searches on the same queries, each handed its bounded
    // pair: pruned by the pair's labels, they settle fewer nodes than the
    // pair itself (unpruned they counted (23176, 25108, 65852)).
    let registry = arp_obs::Registry::new();
    let labels = [("technique", "penalty")];
    for (s, t) in sample_pairs(net, 12) {
        let sub = SearchSubstrate::build(
            &mut ws,
            net,
            w,
            &unpruned,
            UNIT_SCALE,
            s,
            t,
            &AltQuery::paper(),
        );
        let sub = sub.unwrap();
        let mut lane = SearchSpace::new(net);
        lane.set_metrics(SearchMetrics::new(&registry, &labels));
        let mut stats = Funnel::default();
        let options = PenaltyOptions::default();
        arp_core::penalty_alternatives_from_base(&mut lane, net, w, &sub, &options, &mut stats)
            .unwrap();
    }
    let work = |name| registry.counter_value(name, &labels);
    let penalty = (
        work("arp_search_settled_nodes_total"),
        work("arp_search_heap_pops_total"),
        work("arp_search_relaxed_edges_total"),
    );
    assert_eq!(penalty, (8495, 9210, 24604), "penalty re-searches");
    assert!(penalty.0 <= bounded.settled, "{penalty:?} vs {bounded:?}");
}

#[test]
fn bounded_tree_pair_equals_the_complete_pair_inside_the_ellipse_on_a_medium_city() {
    // Paper scale (~10k nodes): near, mid and far pairs, on the base
    // weights and with every ninth edge slowed and every 50th closed.
    // Inside the stretch ellipse the bounded pair is the complete pair —
    // labels and parents — so Plateaus and SSVP-D+ cannot tell them apart.
    use arp_core::plateau_alternatives_from_trees;
    use arp_core::search::Direction;
    use arp_roadnet::weight::{CLOSED, INFINITY};

    let g = arp_citygen::generate(City::Copenhagen, Scale::Medium, 5);
    let net = &g.network;
    let n = net.num_nodes() as u32;
    let mut overlay = net.weights().to_vec();
    for (i, w) in overlay.iter_mut().enumerate() {
        match i % 450 {
            0 => *w = CLOSED,
            r if r % 9 == 0 => *w = w.saturating_mul(3).min(u32::MAX - 1),
            _ => {}
        }
    }
    let (q, budget) = (AltQuery::paper(), SearchBudget::unlimited());
    let mut ws = SearchSpace::new(net);
    let (mut pairs, mut pruned) = (0, 0);
    // The served pairs: pruned by the base column's landmark table, which
    // bounds the overlay too.
    let landmarks = Arc::new(Landmarks::build(net, net.weights()));
    for column in [net.weights(), &overlay[..]] {
        for i in 0..6u32 {
            // Hops of 3, 60, 117, … vertex ids: ids are laid out block by
            // block, so the pairs range from next door to across town.
            let s = NodeId((i * 1931 + 17) % n);
            let t = NodeId((s.0 + 3 + i * i * 57) % n);
            let Ok(sub) =
                SearchSubstrate::build(&mut ws, net, column, &landmarks, UNIT_SCALE, s, t, &q)
            else {
                continue;
            };
            let fwd = ws.shortest_path_tree(net, column, s, Direction::Forward);
            let bwd = ws.shortest_path_tree(net, column, t, Direction::Backward);
            let (fwd, bwd) = (fwd.unwrap(), bwd.unwrap());
            let bound = sub.bound();
            assert_eq!(bound, q.search_bound(fwd.distance(t)), "{s}->{t}");
            for v in net.nodes() {
                let (df, db) = (fwd.distance(v), bwd.distance(v));
                let (f, b) = (sub.forward(), sub.backward());
                if df != INFINITY && db != INFINITY && df + db <= bound {
                    assert_eq!(f.distance(v), df, "{s}->{t}: d_f({v})");
                    assert_eq!(b.distance(v), db, "{s}->{t}: d_b({v})");
                    assert_eq!(f.parent(v), fwd.parent(v), "{s}->{t}: {v}");
                    assert_eq!(b.parent(v), bwd.parent(v), "{s}->{t}: {v}");
                } else {
                    assert!(!b.reached(v), "{s}->{t}: {v}");
                    let lb = landmarks.lower_bound(v, t, UNIT_SCALE);
                    assert!(!f.reached(v) || (f.distance(v) == df && df + lb <= bound));
                }
            }
            let plateaus = |f, b| {
                let options = PlateauOptions::default();
                let mut stats = Funnel::default();
                plateau_alternatives_from_trees(
                    net, column, &q, &options, &mut stats, f, b, &budget,
                )
            };
            assert_eq!(
                plateaus(sub.forward(), sub.backward()),
                plateaus(&fwd, &bwd),
                "{s}->{t}: Plateaus"
            );
            let ssvp = |f, b| {
                let options = DissimilarityOptions::default();
                let mut stats = Funnel::default();
                let paths = dissimilarity_alternatives_from_trees(
                    net, column, &q, &options, &mut stats, f, b, &budget,
                );
                (paths, stats)
            };
            assert_eq!(
                ssvp(sub.forward(), sub.backward()),
                ssvp(&fwd, &bwd),
                "{s}->{t}: SSVP-D+"
            );
            pairs += 1;
            pruned += usize::from(sub.build_stats().settled < u64::from(n) / 2);
        }
    }
    assert!(pairs >= 10, "only {pairs} of 12 pairs were routable");
    assert!(
        pruned >= 4,
        "only {pruned} builds stayed under a quarter of two sweeps"
    );
}

#[test]
fn all_four_providers_route_digest_is_pinned() {
    // FNV-1a over every route (edge ids, then the public cost) the four
    // study providers return for 8 fixed pairs per Small city, on the base
    // weights and on an overlay with slowdowns and a closure. The literals
    // were captured before the techniques' entry points were folded onto
    // the tree pair: whoever supplies the trees, the routes must not move.
    use arp_roadnet::weight::CLOSED;

    fn feed(hash: &mut u64, value: u64) {
        for byte in value.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    let q = AltQuery::paper();
    let mut digests = Vec::new();
    for city in City::ALL {
        let g = arp_citygen::generate(city, Scale::Small, 11);
        let net = &g.network;
        let pairs = sample_pairs(net, 8);
        // Every seventh edge slowed 3x; the middle edge of the first
        // pair's optimal route closed, so at least one answer must move.
        let mut overlay = net.weights().to_vec();
        for w in overlay.iter_mut().step_by(7) {
            *w = w.saturating_mul(3).min(u32::MAX - 1);
        }
        let first = shortest_path(net, net.weights(), pairs[0].0, pairs[0].1).unwrap();
        overlay[first.edges[first.edges.len() / 2].index()] = CLOSED;

        let providers = standard_providers(net, 17);
        for column in [net.weights(), &overlay[..]] {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for &(s, t) in &pairs {
                for provider in &providers {
                    match provider.alternatives(net, column, s, t, &q) {
                        Ok(routes) => {
                            for r in &routes {
                                feed(&mut hash, r.path.edges.len() as u64);
                                for e in &r.path.edges {
                                    feed(&mut hash, u64::from(e.0));
                                }
                                feed(&mut hash, r.public_cost_ms);
                            }
                            feed(&mut hash, routes.len() as u64);
                        }
                        Err(_) => feed(&mut hash, u64::MAX),
                    }
                }
            }
            digests.push(hash);
        }
    }
    assert_eq!(
        digests,
        [
            0xe4df9d1a332c1bc7,
            0x759bb729a792a722,
            0xa1ac6f22d88d70be,
            0x04042d6e15e5333b,
            0x147769bf182b92b9,
            0xe4b54ecf705a6e8f,
        ],
        "Melbourne, Dhaka, Copenhagen x (base weights, overlay)"
    );
}

/// Dhaka-Small's tree pair for the corner query, with a query hard enough
/// (five routes, θ = 0.7, a wide ellipse) that the sweep admits three paths
/// and visits every vertex of the network looking for more.
fn long_sweep_fixture() -> (arp_citygen::GeneratedCity, SearchSubstrate, AltQuery) {
    let g = arp_citygen::generate(City::Dhaka, Scale::Small, 31);
    let (s, t) = corner_query(&g.network);
    let query = AltQuery::paper()
        .with_k(5)
        .with_theta(0.7)
        .with_epsilon(3.0);
    let mut ws = SearchSpace::new(&g.network);
    let (net, unpruned) = (&g.network, &Arc::new(Landmarks::empty()));
    let sub = SearchSubstrate::build(
        &mut ws,
        net,
        net.weights(),
        unpruned,
        UNIT_SCALE,
        s,
        t,
        &query,
    )
    .unwrap();
    (g, sub, query)
}

fn sweep(
    net: &arp_roadnet::RoadNetwork,
    sub: &SearchSubstrate,
    query: &AltQuery,
    budget: &SearchBudget,
) -> (Vec<Path>, Funnel) {
    let mut stats = Funnel::default();
    let paths = dissimilarity_alternatives_from_trees(
        net,
        net.weights(),
        query,
        &DissimilarityOptions::default(),
        &mut stats,
        sub.forward(),
        sub.backward(),
        budget,
    )
    .unwrap();
    (paths, stats)
}

#[test]
fn cancelled_dissimilarity_sweep_does_no_work() {
    // The per-via-node poll runs ahead of the θ-test: a budget that is
    // already cancelled stops the sweep before anything is screened.
    let (g, sub, query) = long_sweep_fixture();
    let budget = SearchBudget::new();
    budget.cancel();
    let (paths, stats) = sweep(&g.network, &sub, &query, &budget);
    assert!(paths.is_empty());
    assert!(stats.interrupted);
    assert_eq!((stats.candidates, stats.screened), (0, 0));
}

#[test]
fn dissimilarity_sweep_cancelled_mid_flight_returns_a_prefix() {
    // Whenever the cancellation lands — before, during or after the sweep
    // — what comes back is a prefix of the uninterrupted admitted list.
    // The canceller starts at the same barrier as the sweep and spins a
    // little longer each round, so the trip point moves through the sweep.
    let (g, sub, query) = long_sweep_fixture();
    let (full, full_stats) = sweep(&g.network, &sub, &query, &SearchBudget::unlimited());
    assert!(full.len() >= 2 && full_stats.screened > 1000);

    for round in 0..64u32 {
        let budget = SearchBudget::new();
        let start = std::sync::Barrier::new(2);
        let (partial, stats) = std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..round * 200 {
                    std::hint::spin_loop();
                }
                budget.cancel();
            });
            start.wait();
            sweep(&g.network, &sub, &query, &budget)
        });
        assert!(partial.len() <= full.len(), "round {round}");
        for (p, f) in partial.iter().zip(&full) {
            assert_eq!(p.edges, f.edges, "round {round}: not a prefix");
        }
        if !stats.interrupted {
            assert_eq!(partial.len(), full.len(), "round {round}");
            assert_eq!(stats, full_stats, "round {round}");
        }
    }
}
