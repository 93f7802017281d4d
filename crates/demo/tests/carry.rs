//! A lane carried across a traffic bump equals a recomputation, for all
//! four lanes.
//!
//! No lane's cache key names a traffic column: a cached part is served at
//! a later epoch when the factors its searches read are unchanged (a pair
//! reader's; Google-like reads only closures) and no edge whose closure
//! changed has an endpoint in a map cell its searches read, re-priced on
//! the request's column. The property: on random pairs of Tiny and Small
//! cities, after every delta of a random sequence — closures on a lane's
//! routes, closures that cut a route vertex off, closures outside every
//! lane's read cells, a wall of closures around the cells the tree pair
//! read (Penalty's rounds often search beyond them), reopenings, each with
//! a factor change or a factor restated as it was — the response the
//! service serves through its
//! cache equals the serial stages on the same pinned snapshot. A factor
//! change carries no pair reader, a closure on a pair reader's route
//! carries none either, and a delta that changes nothing any lane read
//! (the first one is `cat:residential*1` on the identity overlay, the
//! shape of a quiet feed hour) carries all four. Across the seeds every
//! lane is carried and refused.

use std::sync::Arc;

use arp_citygen::{City, Scale};
use arp_core::{shortest_path, CellMap};
use arp_demo::query::{QueryProcessor, QueryResponse, SnappedQuery};
use arp_demo::DemoBackend;
use arp_obs::Registry;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_serve::{CancelToken, Deadline, RouteBackend, RouteService, ServeConfig};
use arp_traffic::TrafficDelta;

/// Deltas applied after each pair's first request.
const STEPS: usize = 12;

/// The categories the factor half of a delta moves.
const CATEGORIES: [&str; 4] = ["residential", "primary", "secondary", "tertiary"];

/// A 64-bit LCG: the property's whole input is its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }
}

/// Everything a response is rendered from, plus the server-side costs and
/// edges: what a carried lane must reproduce.
fn fingerprint(response: &QueryResponse) -> String {
    let approaches: Vec<_> = response
        .approaches
        .iter()
        .map(|a| (a.label, &a.routes))
        .collect();
    format!(
        "{} {} {} {} {:?}",
        response.epoch, response.fastest_minutes, response.truncated, response.degraded, approaches
    )
}

/// How every lane's hits after a bump went, in lane order.
#[derive(Default)]
struct Tally {
    carried: [u64; 4],
    refused: [u64; 4],
}

/// What the closure half of a step did.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Closure {
    /// Closed edges some lane may have read, or reopened one.
    MaybeRead,
    /// Closed an edge on a pair reader's first route.
    OnPairRoute,
    /// Closed only edges no lane read, or nothing.
    Unread,
}

fn run(city: City, scale: Scale, seed: u64, tally: &mut Tally) {
    let g = arp_citygen::generate(city, scale, seed);
    let qp = Arc::new(QueryProcessor::new(g.name.clone(), g.network, seed));
    let net = qp.network();
    let registry = Registry::new();
    let service = RouteService::new(
        DemoBackend::new(Arc::clone(&qp)),
        ServeConfig::default(),
        &registry,
    );
    let backend = DemoBackend::new(Arc::clone(&qp));
    let cells = CellMap::new(net);
    let carried = || {
        (0..backend.lanes()).map(|lane| {
            let technique = backend.lane_name(lane);
            let labels = [("technique", technique.as_str())];
            registry.counter_value("arp_serve_cache_carried_total", &labels)
        })
    };
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n = net.num_nodes();
    let q = loop {
        let (source, target) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
        let Ok(path) = shortest_path(net, net.weights(), source, target) else {
            continue;
        };
        if path.edges.len() >= 6 {
            break SnappedQuery { source, target };
        }
    };
    let mut closed: Vec<u32> = Vec::new();
    let mut factors = [1.0_f64; CATEGORIES.len()];
    for step in 0..=STEPS {
        let (mut closure, mut moved) = (Closure::Unread, false);
        if step > 0 {
            // What each lane read, and its first route, as served last.
            let served = service.route(qp.prepare_query(q)).unwrap();
            let bases: Vec<_> = served
                .approaches
                .iter()
                .map(|a| {
                    a.basis
                        .as_deref()
                        .expect("a completed lane keeps its basis")
                })
                .collect();
            let first_route = |lane: usize| -> &[EdgeId] {
                served.approaches[lane]
                    .routes
                    .first()
                    .map_or(&[], |r| &r.edges)
            };
            let mut delta: Vec<String> = Vec::new();
            let mut close = |edges: Vec<u32>| {
                delta.extend(edges.iter().map(|e| format!("close:{e}")));
                closed.extend(edges);
            };
            let google = first_route(0);
            let pair_route = first_route(1 + rng.below(3));
            match if step == 1 { 6 } else { rng.below(7) } {
                // A closure on Google-like's first route.
                0 if !google.is_empty() => {
                    close(vec![google[rng.below(google.len())].0]);
                    closure = Closure::MaybeRead;
                }
                // Every way into a vertex of that route: the vertex drops
                // out of what Google-like's searches reach.
                1 if google.len() > 2 => {
                    let v = net.head(google[1 + rng.below(google.len() - 2)]);
                    close(net.in_edges(v).map(|e| e.0).collect());
                    closure = Closure::MaybeRead;
                }
                // A closure on a pair reader's first route: every pair
                // reader read the pair, and the pair read that route.
                2 if !pair_route.is_empty() => {
                    close(vec![pair_route[rng.below(pair_route.len())].0]);
                    closure = Closure::OnPairRoute;
                }
                // A closure nothing any lane read can see.
                3 => {
                    let unread: Vec<u32> = net
                        .edges()
                        .filter(|&e| bases.iter().all(|b| !b.reads.reads_edge(net, e)))
                        .map(|e| e.0)
                        .collect();
                    close(
                        unread
                            .get(rng.below(unread.len()))
                            .copied()
                            .into_iter()
                            .collect(),
                    );
                }
                // Every edge outside the cells the pair read (Plateaus
                // reads nothing else): Penalty is carried only if its
                // rounds stayed inside them.
                4 => {
                    let (pair, shut) = (&bases[1].reads, Arc::clone(&bases[1].closed));
                    close(
                        net.edges()
                            .filter(|&e| shut.binary_search(&e.0).is_err())
                            .filter(|&e| !pair.reads_edge(net, e))
                            .map(|e| e.0)
                            .collect(),
                    );
                    closure = Closure::MaybeRead;
                }
                // Reopen what an earlier step closed: when there is one, an
                // edge out of a cell Google-like read into an unread one —
                // the way back into a vertex a closure cut off.
                5 if !closed.is_empty() => {
                    let read = |v| bases[0].reads.cells().contains(cells.cell(v));
                    let boundary = closed.iter().position(|&e| {
                        let e = EdgeId(e);
                        read(net.tail(e)) && !read(net.head(e))
                    });
                    let at = boundary.unwrap_or_else(|| rng.below(closed.len()));
                    delta.push(format!("reopen:{}", closed.swap_remove(at)));
                    closure = Closure::MaybeRead;
                }
                _ => {}
            }
            // Every step restates or moves a category factor. The first
            // restates factor 1 on the identity overlay.
            let category = if step == 1 {
                0
            } else {
                rng.below(CATEGORIES.len())
            };
            if step > 1 && rng.below(2) == 0 {
                let factor = factors[category];
                while factors[category] == factor {
                    factors[category] = 1.0 + rng.below(20) as f64 / 10.0;
                }
                moved = true;
            }
            delta.push(format!(
                "cat:{}*{}",
                CATEGORIES[category], factors[category]
            ));
            let delta = TrafficDelta::parse(&delta.join("; ")).unwrap();
            qp.traffic().apply_delta(&delta).unwrap();
        }
        let before: Vec<u64> = carried().collect();
        let pinned = qp.prepare_query(q);
        let served = service.route(pinned.clone()).unwrap();
        let prepared = backend.prepare(pinned, &CancelToken::new(), &Deadline::never());
        let parts = (0..backend.lanes())
            .map(|lane| backend.compute(&prepared, lane).unwrap())
            .collect();
        let serial = backend.assemble(&prepared, parts);
        let context = format!("{city:?} {scale:?} seed {seed}, step {step}: {q:?}");
        assert_eq!(fingerprint(&served), fingerprint(&serial), "{context}");
        if step == 0 {
            continue;
        }
        let lanes: Vec<bool> = carried().zip(before).map(|(a, b)| a > b).collect();
        for (lane, &was_carried) in lanes.iter().enumerate() {
            if was_carried {
                tally.carried[lane] += 1;
            } else {
                tally.refused[lane] += 1;
            }
        }
        let pair_readers_carried = lanes[1..].iter().any(|&c| c);
        if moved || closure == Closure::OnPairRoute {
            assert!(
                !pair_readers_carried,
                "{context}: {closure:?}, moved {moved}"
            );
        }
        if closure == Closure::Unread {
            assert!(lanes[0], "{context}: an unread closure refused Google-like");
            if !moved {
                assert!(lanes.iter().all(|&c| c), "{context}: {lanes:?}");
            }
        }
    }
}

#[test]
fn a_carried_lane_equals_a_recomputation() {
    let mut tally = Tally::default();
    for (i, city) in City::ALL.into_iter().enumerate() {
        for scale in [Scale::Tiny, Scale::Small] {
            for seed in [3, 11] {
                run(city, scale, seed + i as u64, &mut tally);
            }
        }
    }
    for lane in 0..4 {
        assert!(tally.carried[lane] > 0, "lane {lane} was never carried");
        assert!(tally.refused[lane] > 0, "lane {lane} was never refused");
    }
}
