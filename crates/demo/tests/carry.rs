//! A Google-like lane carried across a traffic bump equals a
//! recomputation.
//!
//! Google-like's cache key names no traffic column: a cached part is
//! served at a later epoch when no edge whose closure changed has an
//! endpoint in a map cell its searches read, re-priced on the request's
//! column. The property: on random pairs of Tiny and Small cities, after
//! every delta of a random sequence — closures on the lane's routes,
//! closures that cut a route vertex off, closures outside its read cells,
//! reopenings and factor-only deltas — the response the service serves
//! through its cache equals the serial stages on the same pinned
//! snapshot, and across the seeds some lane was carried and some refused.

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

/// How one city's sequences went.
#[derive(Default)]
struct Tally {
    carried: u64,
    refused: u64,
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
        let labels = [("technique", "google_like")];
        registry.counter_value("arp_serve_cache_carried_total", &labels)
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
    for step in 0..=STEPS {
        if step > 0 {
            // What the lane read, and its first route, as served last.
            let served = service.route(qp.prepare_query(q)).unwrap();
            let google = &served.approaches[0];
            let basis = google
                .basis
                .as_deref()
                .expect("a Google-like lane keeps its basis");
            let route: &[EdgeId] = google.routes.first().map_or(&[], |r| &r.edges);
            let mut delta: Vec<String> = Vec::new();
            let mut close = |edges: Vec<u32>| {
                delta.extend(edges.iter().map(|e| format!("close:{e}")));
                closed.extend(edges);
            };
            match rng.below(5) {
                // A closure on the lane's first route.
                0 if !route.is_empty() => close(vec![route[rng.below(route.len())].0]),
                // Every way into a vertex of that route: the vertex drops
                // out of what the searches reach.
                1 if route.len() > 2 => {
                    let v = net.head(route[1 + rng.below(route.len() - 2)]);
                    close(net.in_edges(v).map(|e| e.0).collect());
                }
                // A closure nothing the lane read can see.
                2 => {
                    let unread: Vec<u32> = net
                        .edges()
                        .filter(|&e| !basis.reads.reads_edge(net, e))
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
                // Reopen what an earlier step closed: when there is one, an
                // edge out of a read cell into an unread one — the way back
                // into a vertex a closure cut off.
                3 if !closed.is_empty() => {
                    let read = |v| basis.reads.cells().contains(cells.cell(v));
                    let boundary = closed.iter().position(|&e| {
                        let e = EdgeId(e);
                        read(net.tail(e)) && !read(net.head(e))
                    });
                    let at = boundary.unwrap_or_else(|| rng.below(closed.len()));
                    delta.push(format!("reopen:{}", closed.swap_remove(at)));
                }
                _ => {}
            }
            // Every step moves the public column too: a factor a carried
            // lane must be re-priced under.
            let category = ["residential", "primary", "secondary", "tertiary"][rng.below(4)];
            delta.push(format!(
                "cat:{category}*{}",
                1.0 + rng.below(20) as f64 / 10.0
            ));
            let delta = TrafficDelta::parse(&delta.join("; ")).unwrap();
            qp.traffic().apply_delta(&delta).unwrap();
        }
        let before = carried();
        let pinned = qp.prepare_query(q);
        let served = service.route(pinned.clone()).unwrap();
        let prepared = backend.prepare(pinned, &CancelToken::new(), &Deadline::never());
        let parts = (0..backend.lanes())
            .map(|lane| backend.compute(&prepared, lane).unwrap())
            .collect();
        let serial = backend.assemble(&prepared, parts);
        assert_eq!(
            fingerprint(&served),
            fingerprint(&serial),
            "{city:?} {scale:?} seed {seed}, step {step}: {q:?}"
        );
        if step > 0 {
            match carried() - before {
                0 => tally.refused += 1,
                _ => tally.carried += 1,
            }
        }
    }
}

#[test]
fn a_carried_google_like_lane_equals_a_recomputation() {
    let mut tally = Tally::default();
    for (i, city) in City::ALL.into_iter().enumerate() {
        for scale in [Scale::Tiny, Scale::Small] {
            for seed in [3, 11] {
                run(city, scale, seed + i as u64, &mut tally);
            }
        }
    }
    assert!(tally.carried > 0, "no lane was carried");
    assert!(tally.refused > 0, "no lane was refused");
}
