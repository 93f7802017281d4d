//! Wall-clock performance table (the §2 cost claims) as a text artifact,
//! one table per city for EXPERIMENTS.md. Each city also gets an
//! `arp-obs` search-work snapshot (settled nodes, heap pops, relaxed
//! edges per technique); see DESIGN.md §7 for the metric names. A
//! counting global allocator measures what one served cache miss
//! allocates (the heap table; DESIGN.md §8), and the landmark table shows
//! what the landmark bounds prune off each Large city's tree pairs.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_perf
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use arp_citygen::{City, Scale};
use arp_core::prelude::*;
use arp_core::search::{Direction, SearchSpace};
use arp_core::{ChTopology, SearchMetrics};
use arp_demo::backend::INLINE_BELOW_SETTLED;
use arp_demo::{DemoBackend, QueryProcessor, SnappedQuery};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::UNIT_SCALE;
use arp_serve::RouteBackend;
use arp_traffic::{CityProfile, TrafficFeed, TrafficState};

/// The system allocator, counting the allocations and the bytes asked of
/// it (a reallocation counts as one allocation of its new size).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

impl Counting {
    fn count(size: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }

    /// `(allocations, bytes)` so far.
    fn read() -> (u64, u64) {
        (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn time_per_query(mut f: impl FnMut(), queries: usize, reps: usize) -> f64 {
    // Warm-up round.
    f();
    let started = Instant::now();
    for _ in 0..reps {
        f();
    }
    started.elapsed().as_secs_f64() * 1000.0 / (reps * queries) as f64
}

fn row(report: &mut String, name: &str, ms: f64) {
    let _ = writeln!(report, "  {name:<26} {ms:>9.3} ms/query");
}

/// Great-circle trip-distance buckets of the tree-pair sweep, km.
const BUCKETS_KM: [(f64, f64); 7] = [
    (0.5, 2.0),
    (2.0, 4.0),
    (4.0, 7.0),
    (7.0, 10.0),
    (10.0, 14.0),
    (14.0, 18.0),
    (18.0, 24.0),
];
const PAIRS_PER_BUCKET: usize = 8;

/// Random pairs of `net` whose endpoints lie `lo..hi` km apart, drawn from
/// `rng` until `count` are found that `accept` takes.
fn pairs_between(
    net: &arp_roadnet::csr::RoadNetwork,
    rng: &mut impl rand::RngExt,
    (lo, hi): (f64, f64),
    count: usize,
    mut accept: impl FnMut(NodeId, NodeId) -> bool,
) -> Vec<(NodeId, NodeId)> {
    let n = net.num_nodes() as u32;
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (s, t) = (
            NodeId(rng.random_range(0..n)),
            NodeId(rng.random_range(0..n)),
        );
        let km = arp_roadnet::geo::haversine_m(net.point(s), net.point(t)) / 1000.0;
        if lo <= km && km < hi && accept(s, t) {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Trip-distance bands of the heap table, km: the benchmark's `short-hop`
/// and `cross-town` request lists, then a mid-town band wholly above the
/// inline threshold.
const HEAP_BANDS: [(&str, f64, f64); 3] =
    [("short", 0.5, 2.0), ("long", 2.0, 24.0), ("mid", 7.0, 10.0)];
const HEAP_PAIRS: usize = 40;

/// What one served cache miss allocates on Copenhagen-Large — pin the
/// epoch, grow the tree pair, run the four lanes, assemble — per band,
/// after a warm-up pass over the same pairs has filled the scratch pools.
/// CI gates the short band's bytes below `4·n`: one `u32` per vertex,
/// which any per-request O(n) buffer would exceed. `inline` is the share
/// of the band's pairs whose pair-reading lanes the service runs on the
/// request thread (`DemoBackend::inline_late_lanes`, a function of the
/// pair): CI gates the short band at 1.00 and the 7–10 km band at 0.00.
fn heap_per_request(report: &mut String) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let city = arp_bench::generate_city(City::Copenhagen, Scale::Large);
    let n = city.network.num_nodes();
    let qp = Arc::new(QueryProcessor::new(
        city.name,
        city.network,
        arp_bench::MASTER_SEED,
    ));
    let backend = DemoBackend::new(Arc::clone(&qp));
    let budget = SearchBudget::unlimited();
    let serve = |(source, target): (NodeId, NodeId)| {
        let request = qp.prepare_query(SnappedQuery { source, target });
        let request = qp.prepare_substrate(request, &budget);
        let lanes: Result<Vec<_>, _> = (0..qp.technique_slots())
            .map(|slot| qp.compute_slot_prepared(&request, slot, &budget))
            .collect();
        let lanes = lanes.map(|lanes| lanes.into_iter().map(|(lane, _)| lane).collect());
        lanes.map(|lanes| qp.assemble(&request, lanes))
    };
    let _ = writeln!(
        report,
        "\nHeap per served miss ({}-Large, {n} nodes; per request after a warm-up pass; \
         CI: short-band bytes < 4n; inline = share of pairs settling < {INLINE_BELOW_SETTLED} \
         labels, CI: short 1.00, 7-10 km 0.00):",
        qp.name()
    );
    let _ = writeln!(
        report,
        "  {:<6} {:<6} {:>5} {:>11} {:>10} {:>9} {:>6}",
        "band", "km", "pairs", "bytes/req", "allocs/req", "4n", "inline"
    );
    let mut rng = StdRng::seed_from_u64(arp_bench::MASTER_SEED);
    for (band, lo, hi) in HEAP_BANDS {
        let pairs = pairs_between(qp.network(), &mut rng, (lo, hi), HEAP_PAIRS, |s, t| {
            serve((s, t)).is_ok()
        });
        let before = Counting::read();
        for &pair in &pairs {
            let _ = serve(pair);
        }
        let after = Counting::read();
        let per_request = |total: u64| total as f64 / pairs.len() as f64;
        let inline = pairs.iter().filter(|&&(source, target)| {
            let request = qp.prepare_query(SnappedQuery { source, target });
            backend.inline_late_lanes(&qp.prepare_substrate(request, &budget))
        });
        let _ = writeln!(
            report,
            "  {:<6} {:<6} {:>5} {:>11.0} {:>10.1} {:>9} {:>6.2}",
            band,
            format!("{lo}-{hi}"),
            pairs.len(),
            per_request(after.1 - before.1),
            per_request(after.0 - before.0),
            4 * n,
            per_request(inline.count() as u64)
        );
    }
}

/// A [`DemoBackend`] whose late wave always runs on the request thread
/// (`inline`) or always on the pool: the two paths the crossover table
/// times. Everything else is the demo backend's.
struct ForcedPath {
    inner: DemoBackend,
    inline: bool,
}

impl RouteBackend for ForcedPath {
    type Request = <DemoBackend as RouteBackend>::Request;
    type Part = <DemoBackend as RouteBackend>::Part;
    type Response = <DemoBackend as RouteBackend>::Response;

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }
    fn lane_name(&self, lane: usize) -> String {
        self.inner.lane_name(lane)
    }
    fn lane_key(&self, request: &Self::Request, lane: usize) -> String {
        self.inner.lane_key(request, lane)
    }
    fn prepare(
        &self,
        request: Self::Request,
        token: &arp_serve::CancelToken,
        deadline: &arp_serve::Deadline,
    ) -> Self::Request {
        self.inner.prepare(request, token, deadline)
    }
    fn reads_prepare(&self, lane: usize) -> bool {
        self.inner.reads_prepare(lane)
    }
    fn inline_late_lanes(&self, _request: &Self::Request) -> bool {
        self.inline
    }
    fn run_lane(
        &self,
        request: &Self::Request,
        lane: usize,
        token: &arp_serve::CancelToken,
    ) -> Result<arp_serve::LaneOutcome<Self::Part>, String> {
        self.inner.run_lane(request, lane, token)
    }
    fn assemble_lanes(
        &self,
        request: &Self::Request,
        parts: Vec<Option<Self::Part>>,
        statuses: &[arp_serve::LaneStatus],
    ) -> Option<Self::Response> {
        self.inner.assemble_lanes(request, parts, statuses)
    }
}

/// Settled-label buckets of the crossover table: `lo..hi` labels settled
/// by the request's tree-pair build.
const SETTLED_BUCKETS: [(u64, u64); 8] = [
    (0, 250),
    (250, 500),
    (500, 750),
    (750, 1_000),
    (1_000, 1_500),
    (1_500, 2_500),
    (2_500, 5_000),
    (5_000, u64::MAX),
];

/// Where running the pair-reading lanes on the request thread stops
/// paying, on Copenhagen-Large trips 0.5–6 km apart: each pair is served
/// as a cache miss through a [`arp_serve::RouteService`] (the benchmark's
/// serving configuration, cache off) whose late wave is forced inline or
/// onto the pool, alternating, and timed end to end. Per settled-label
/// bucket, medians over pairs of: the three pair-reading lanes run
/// serially (`sum`) and the slowest of them (`max`), each path's served
/// time, and the per-pair saving of inline (positive: inline is faster).
/// `sum - max` is the most a fan-out can win back on a host with a free
/// core per lane; `save + sum - max` is what the hand-off costs.
/// `INLINE_BELOW_SETTLED` is read off this table.
fn inline_crossover(report: &mut String) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PAIRS: usize = 320;
    const REPS: usize = 9;
    let city = arp_bench::generate_city(City::Copenhagen, Scale::Large);
    let qp = Arc::new(QueryProcessor::new(
        city.name,
        city.network,
        arp_bench::MASTER_SEED,
    ));
    let budget = SearchBudget::unlimited();
    let settled = |(source, target): (NodeId, NodeId)| {
        let request = qp.prepare_query(SnappedQuery { source, target });
        qp.prepare_substrate(request, &budget).pair_settled()
    };
    let mut rng = StdRng::seed_from_u64(arp_bench::MASTER_SEED);
    let pairs = pairs_between(qp.network(), &mut rng, (0.5, 6.0), PAIRS, |s, t| {
        settled((s, t)).is_some()
    });
    let mut config = arp_serve::ServeConfig {
        cache_capacity: 0,
        ..arp_serve::ServeConfig::default()
    };
    config.trace.sample = 0.0;
    config.trace.slow_ms = 0;
    let services = [false, true].map(|inline| {
        let backend = ForcedPath {
            inner: DemoBackend::new(Arc::clone(&qp)),
            inline,
        };
        arp_serve::RouteService::new(backend, config.clone(), &arp_obs::Registry::disabled())
    });
    let serve = |path: usize, (source, target): (NodeId, NodeId)| {
        let started = Instant::now();
        let served = services[path].route(qp.prepare_query(SnappedQuery { source, target }));
        assert!(served.is_ok(), "a routable pair is served");
        started.elapsed().as_secs_f64() * 1000.0
    };
    // Warm-up: both services, every pair once.
    for &pair in &pairs {
        serve(0, pair);
        serve(1, pair);
    }
    // The late lanes on their own, serially: `(sum, max)` of their
    // median times per pair.
    let late: Vec<usize> = (0..qp.technique_slots())
        .filter(|&slot| qp.slot_reads_pair(slot))
        .collect();
    let serial: Vec<(f64, f64)> = pairs
        .iter()
        .map(|&(source, target)| {
            let request = qp.prepare_query(SnappedQuery { source, target });
            let request = qp.prepare_substrate(request, &budget);
            let lanes = late.iter().map(|&slot| {
                let mut ms = Vec::with_capacity(REPS);
                for _ in 0..REPS {
                    let started = Instant::now();
                    let _ = qp.compute_slot_prepared(&request, slot, &budget);
                    ms.push(started.elapsed().as_secs_f64() * 1000.0);
                }
                ms.sort_by(f64::total_cmp);
                ms[REPS / 2]
            });
            lanes.fold((0.0, 0.0), |(sum, max), ms| (sum + ms, f64::max(max, ms)))
        })
        .collect();
    let mut times = vec![[Vec::new(), Vec::new()]; pairs.len()];
    for rep in 0..REPS {
        for (pair, times) in pairs.iter().zip(&mut times) {
            for path in [rep % 2, 1 - rep % 2] {
                times[path].push(serve(path, *pair));
            }
        }
    }
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
    };
    let _ = writeln!(
        report,
        "\nInline crossover by settled labels ({}-Large, {} pairs 0.5-6 km, {REPS} alternating \
         reps; served miss ms, median of per-pair medians; save = fan-out - inline; \
         threshold {INLINE_BELOW_SETTLED}):",
        qp.name(),
        pairs.len()
    );
    let _ = writeln!(
        report,
        "  {:<11} {:>5} {:>7} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "settled", "pairs", "median", "sum", "max", "sum-max", "fan-out", "inline", "save"
    );
    /// One pair: settled labels, serial `(sum, max)`, served `[fan-out, inline]`.
    type PairRow = (u64, (f64, f64), [f64; 2]);
    let per_pair: Vec<PairRow> = pairs
        .iter()
        .zip(serial)
        .zip(times)
        .map(|((&pair, serial), [fanned, inline])| {
            let settled = settled(pair).expect("drawn pairs are routable");
            (settled, serial, [median(fanned), median(inline)])
        })
        .collect();
    for (lo, hi) in SETTLED_BUCKETS {
        let bucket: Vec<&PairRow> = per_pair
            .iter()
            .filter(|(settled, _, _)| (lo..hi).contains(settled))
            .collect();
        let column = |f: fn(&PairRow) -> f64| median(bucket.iter().map(|p| f(p)).collect());
        let label = if hi == u64::MAX {
            format!("{lo}+")
        } else {
            format!("{lo}-{hi}")
        };
        let _ = writeln!(
            report,
            "  {:<11} {:>5} {:>7.0} | {:>7.3} {:>7.3} {:>7.3} | {:>7.3} {:>7.3} {:>7.3}",
            label,
            bucket.len(),
            column(|p| p.0 as f64),
            column(|p| p.1 .0),
            column(|p| p.1 .1),
            column(|p| p.1 .0 - p.1 .1),
            column(|p| p.2[0]),
            column(|p| p.2[1]),
            column(|p| p.2[0] - p.2[1]),
        );
    }
}

/// What one supplier of a tree pair costs per pair: work counters summed
/// over a bucket's pairs, and wall-clock ms per pair.
#[derive(Default)]
struct PairCost {
    settled: u64,
    relaxed: u64,
    ms: f64,
}

/// Up to [`PAIRS_PER_BUCKET`] routable pairs of `net` per trip-distance
/// bucket of [`BUCKETS_KM`], drawn from the report's seed.
fn bucketed_pairs(net: &RoadNetwork) -> Vec<Vec<(NodeId, NodeId)>> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let (w, n) = (net.weights(), net.num_nodes() as u32);
    let mut rng = StdRng::seed_from_u64(arp_bench::MASTER_SEED);
    let mut buckets: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); BUCKETS_KM.len()];
    for _ in 0..200_000 {
        if buckets.iter().all(|b| b.len() == PAIRS_PER_BUCKET) {
            break;
        }
        let (s, t) = (
            NodeId(rng.random_range(0..n)),
            NodeId(rng.random_range(0..n)),
        );
        let km = arp_roadnet::geo::haversine_m(net.point(s), net.point(t)) / 1000.0;
        let bucket = BUCKETS_KM.iter().position(|&(lo, hi)| lo <= km && km < hi);
        if let Some(bucket) = bucket.filter(|&b| buckets[b].len() < PAIRS_PER_BUCKET) {
            if shortest_path(net, w, s, t).is_ok() {
                buckets[bucket].push((s, t));
            }
        }
    }
    buckets
}

/// A request's tree pair on Copenhagen-Large (the benchmark's
/// `short-hop` / `cross-town` city), by trip distance: two complete
/// Dijkstra trees against the bounded builder every request uses
/// (`SearchSubstrate::build` with the base column's landmark table).
/// `relaxed` is the deterministic column CI gates on: bounded ≤ full on
/// every pair, and ≤ 10 % of full below 2 km.
fn tree_pair_sweep(report: &mut String) {
    let city = arp_bench::generate_city(City::Copenhagen, Scale::Large);
    let net = city.network;
    let w = net.weights();
    let buckets = bucketed_pairs(&net);
    let landmarks = Arc::new(Landmarks::build(&net, w));

    let (q, reps) = (AltQuery::paper(), 3);
    let mut ws = SearchSpace::new(&net);
    let _ = writeln!(
        report,
        "\nTree-pair sweep by trip distance ({}-Large, {} nodes; per pair: settled, relaxed, ms; \
         bounded = the request path):",
        city.name,
        net.num_nodes()
    );
    let _ = writeln!(
        report,
        "  {:<8} {:>5} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>7} | {:>8} {:>6}",
        "km",
        "pairs",
        "full-set",
        "full-rlx",
        "full-ms",
        "bnd-set",
        "bnd-rlx",
        "bnd-ms",
        "rlx/full",
        "bnd<=f"
    );
    for (&(lo, hi), pairs) in BUCKETS_KM.iter().zip(&buckets) {
        let [mut full, mut bounded] = <[PairCost; 2]>::default();
        let mut never_more = 0;
        for &(s, t) in pairs {
            let mut full_relaxed = 0;
            for (root, direction) in [(s, Direction::Forward), (t, Direction::Backward)] {
                let _ = ws.shortest_path_tree(&net, w, root, direction);
                full.settled += ws.last_stats().settled;
                full_relaxed += ws.last_stats().relaxed;
            }
            full.relaxed += full_relaxed;
            let grown = SearchSubstrate::build(&mut ws, &net, w, &landmarks, UNIT_SCALE, s, t, &q)
                .expect("swept pairs are routable");
            bounded.settled += grown.build_stats().settled;
            bounded.relaxed += grown.build_stats().relaxed;
            never_more += usize::from(grown.build_stats().relaxed <= full_relaxed);
        }
        full.ms = time_per_query(
            || {
                for &(s, t) in pairs {
                    let _ = ws.shortest_path_tree(&net, w, s, Direction::Forward);
                    let _ = ws.shortest_path_tree(&net, w, t, Direction::Backward);
                }
            },
            pairs.len(),
            reps,
        );
        bounded.ms = time_per_query(
            || {
                for &(s, t) in pairs {
                    let _ =
                        SearchSubstrate::build(&mut ws, &net, w, &landmarks, UNIT_SCALE, s, t, &q);
                }
            },
            pairs.len(),
            reps,
        );
        let per_pair = |total: u64| total / pairs.len().max(1) as u64;
        let _ = writeln!(
            report,
            "  {:<8} {:>5} | {:>8} {:>8} {:>7.3} | {:>8} {:>8} {:>7.3} | {:>8.3} {:>6}",
            format!("{lo}-{hi}"),
            pairs.len(),
            per_pair(full.settled),
            per_pair(full.relaxed),
            full.ms,
            per_pair(bounded.settled),
            per_pair(bounded.relaxed),
            bounded.ms,
            bounded.relaxed as f64 / full.relaxed.max(1) as f64,
            never_more,
        );
    }
}

/// What the landmark bounds prune, on each Large city by trip distance:
/// per pair, the forward labels of the plain ball (the build fed the
/// empty table) and of the landmark-pruned forward tree, the backward
/// labels (the ellipse, the same either way) and the labels of the A\*
/// probe that finds the bound. Deterministic counts; CI gates the pruned
/// forward count at ≤ the ball's in every band.
fn landmark_pruning(report: &mut String) {
    let _ = writeln!(
        report,
        "\nLandmark pruning by trip distance (per pair: forward labels of the ball and of the \
         landmark-pruned tree, backward labels, A* probe labels; CI: fwd-alt <= fwd-ball):"
    );
    let _ = writeln!(
        report,
        "  {:<10} {:<8} {:>5} | {:>8} {:>8} | {:>8} {:>6}",
        "city", "km", "pairs", "fwd-ball", "fwd-alt", "bwd", "probe"
    );
    let q = AltQuery::paper();
    let unpruned = Arc::new(Landmarks::empty());
    let mut tables = Vec::new();
    for city in City::ALL {
        let city = arp_bench::generate_city(city, Scale::Large);
        let net = &city.network;
        let started = Instant::now();
        let landmarks = Arc::new(Landmarks::build(net, net.weights()));
        tables.push((city.name.clone(), landmarks.bytes(), started.elapsed()));
        let mut ws = SearchSpace::new(net);
        for (&(lo, hi), pairs) in BUCKETS_KM.iter().zip(&bucketed_pairs(net)) {
            let [mut ball, mut pruned, mut backward, mut probe] = [0u64; 4];
            for &(s, t) in pairs {
                let mut grow = |table| {
                    SearchSubstrate::build(&mut ws, net, net.weights(), table, UNIT_SCALE, s, t, &q)
                        .expect("bucketed pairs are routable")
                };
                let plain = grow(&unpruned);
                let alt = grow(&landmarks);
                let labels = |tree: &arp_core::ShortestPathTree| tree.order().len() as u64;
                ball += labels(plain.forward());
                pruned += labels(alt.forward());
                backward += labels(alt.backward());
                probe += alt.build_stats().settled - labels(alt.forward()) - labels(alt.backward());
            }
            let per_pair = |total: u64| total / pairs.len().max(1) as u64;
            let _ = writeln!(
                report,
                "  {:<10} {:<8} {:>5} | {:>8} {:>8} | {:>8} {:>6}",
                city.name,
                format!("{lo}-{hi}"),
                pairs.len(),
                per_pair(ball),
                per_pair(pruned),
                per_pair(backward),
                per_pair(probe),
            );
        }
    }
    for (city, bytes, took) in tables {
        let _ = writeln!(
            report,
            "  {city:<10} table {:.2} MB, built in {:.1} ms",
            bytes as f64 / 1e6,
            took.as_secs_f64() * 1000.0
        );
    }
}

/// The feed ticks of the traffic table: `rush-hour`'s deltas, the morning
/// ramp to its peak at tick 8 and down, then four ticks of free flow.
const TRAFFIC_TICKS: std::ops::RangeInclusive<u64> = 6..=14;

/// What the bound scale wins back under traffic, on Dhaka-Large (the
/// `rush-hour` city) under `TrafficFeed` seed 1's Organic deltas at
/// [`TRAFFIC_TICKS`], each applied as a served state applies a posted delta,
/// over 24 routable pairs 7.7–12.5 km apart (the band of the benchmark's hot
/// pairs). Per tick: the published bound scale `s`, then the labels per
/// pair (the A\* probe and both trees) with the base column's table read at
/// 1.0 (`unscaled`) and at `s` (`scaled`), with the empty table (`empty`),
/// and with a table built on the tick's own column (`own`; the empty table
/// when a closure leaves that column not strongly connected). Deterministic
/// counts; CI gates `scaled <= unscaled` at every tick and `scaled <
/// unscaled` at the peak.
fn landmark_bound_under_traffic(report: &mut String) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let city = arp_bench::generate_city(City::Dhaka, Scale::Large);
    let net = Arc::new(city.network);
    let base = Arc::new(Landmarks::build(&net, net.weights()));
    let unpruned = Arc::new(Landmarks::empty());
    let mut rng = StdRng::seed_from_u64(arp_bench::MASTER_SEED);
    let pairs = pairs_between(&net, &mut rng, (7.7, 12.5), 24, |s, t| {
        shortest_path(&net, net.weights(), s, t).is_ok()
    });
    let state = TrafficState::new(Arc::clone(&net));
    let feed = TrafficFeed::new(1, CityProfile::Organic);
    let _ = writeln!(
        report,
        "\nLandmark bound under traffic ({}-Large, {} pairs 7.7-12.5 km, feed seed 1 Organic; labels \
         per pair with the base table read at 1.0 and at the tick's bound scale s, with the empty \
         table, and with a table of the tick's own column; CI: scaled <= unscaled, < at tick 8):",
        city.name,
        pairs.len()
    );
    let _ = writeln!(
        report,
        "  {:>4} {:>6} | {:>8} {:>8} {:>8} | {:>8}",
        "tick", "s", "unscaled", "scaled", "empty", "own"
    );
    let q = AltQuery::paper();
    let mut ws = SearchSpace::new(&net);
    for tick in TRAFFIC_TICKS {
        let delta = feed.delta_for_tick(tick, net.num_edges());
        state
            .apply_delta(&delta)
            .expect("feed deltas name edges of the network");
        let epoch = state.snapshot();
        let (weights, scale) = (epoch.weights(), epoch.bound_scale());
        let own = Arc::new(Landmarks::build(&net, weights));
        let bounds = [
            (&base, UNIT_SCALE),
            (&base, scale),
            (&unpruned, UNIT_SCALE),
            (&own, UNIT_SCALE),
        ];
        let mut labels = [0u64; 4];
        let mut routable = 0;
        for &(s, t) in &pairs {
            let mut grow = |(table, scale): (&Arc<Landmarks>, u32)| {
                SearchSubstrate::build(&mut ws, &net, weights, table, scale, s, t, &q)
                    .map(|pair| pair.build_stats().settled)
            };
            let Ok(settled) = bounds
                .map(&mut grow)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
            else {
                continue;
            };
            routable += 1;
            for (sum, n) in labels.iter_mut().zip(settled) {
                *sum += n;
            }
        }
        let [unscaled, scaled, empty, own] = labels.map(|n| n / routable.max(1));
        let _ = writeln!(
            report,
            "  {tick:>4} {:>6.3} | {unscaled:>8} {scaled:>8} {empty:>8} | {own:>8}",
            scale as f64 / UNIT_SCALE as f64
        );
    }
}

fn main() {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Wall-clock per-query timings (ms), 8 queries x 5 reps, release build"
    );

    for city_kind in City::ALL {
        let city = arp_bench::generate_city(city_kind, Scale::Small);
        let net = city.network;
        let queries = arp_bench::random_queries(&net, 8, 3 * 60_000, 40 * 60_000, 7);
        let q = AltQuery::paper();
        let reps = 5;

        let _ = writeln!(
            report,
            "\n{} ({} nodes, {} edges)",
            city.name,
            net.num_nodes(),
            net.num_edges()
        );

        let mut ws = SearchSpace::new(&net);
        row(
            &mut report,
            "dijkstra 1-to-1",
            time_per_query(
                || {
                    for &(s, t, _) in &queries {
                        let _ = ws.shortest_path(&net, net.weights(), s, t);
                    }
                },
                queries.len(),
                reps,
            ),
        );
        let mut ws2 = SearchSpace::new(&net);
        row(
            &mut report,
            "shortest-path tree",
            time_per_query(
                || {
                    for &(s, _, _) in &queries {
                        let _ = ws2.shortest_path_tree(&net, net.weights(), s, Direction::Forward);
                    }
                },
                queries.len(),
                reps,
            ),
        );
        let study = standard_providers(&net, arp_bench::MASTER_SEED);
        for (label, kind) in [
            ("plateaus k=3", ProviderKind::Plateaus),
            ("penalty k=3", ProviderKind::Penalty),
            ("dissimilarity k=3", ProviderKind::Dissimilarity),
        ] {
            let provider = study
                .iter()
                .find(|p| p.kind() == kind)
                .expect("one provider per kind");
            row(
                &mut report,
                label,
                time_per_query(
                    || {
                        for &(s, t, _) in &queries {
                            let _ = provider.alternatives(&net, net.weights(), s, t, &q);
                        }
                    },
                    queries.len(),
                    reps,
                ),
            );
        }
        let unlimited = SearchBudget::unlimited();
        let esx = EsxOptions::default();
        row(
            &mut report,
            "esx k=3",
            time_per_query(
                || {
                    for &(s, t, _) in &queries {
                        let _ = esx_alternatives(&net, net.weights(), s, t, &q, &esx, &unlimited);
                    }
                },
                queries.len(),
                reps,
            ),
        );
        row(
            &mut report,
            "yen k=3",
            time_per_query(
                || {
                    for &(s, t, _) in &queries {
                        let _ = yen_k_shortest_paths(&net, net.weights(), s, t, 3, &unlimited);
                    }
                },
                queries.len(),
                reps,
            ),
        );

        // Search-work counters: one instrumented pass of the four demo
        // providers over the same queries, into a fresh per-city registry.
        // Each query's tree pair is grown once, pruned by the base column's
        // landmark table, and handed to every provider, as the serving
        // layer does; its work is the `pair` row.
        let registry = arp_obs::Registry::new();
        let providers = instrumented_providers(&net, arp_bench::MASTER_SEED, &registry);
        let landmarks = Arc::new(Landmarks::build(&net, net.weights()));
        let pair_labels = [("technique", "pair")];
        ws.set_metrics(SearchMetrics::new(&registry, &pair_labels));
        for &(s, t, _) in &queries {
            let pair = SearchSubstrate::build(
                &mut ws,
                &net,
                net.weights(),
                &landmarks,
                UNIT_SCALE,
                s,
                t,
                &q,
            )
            .expect("benchmark queries are routable");
            for provider in &providers {
                let _ = provider.answer(
                    &net,
                    net.weights(),
                    pair.trip(),
                    Some(&pair),
                    &unlimited,
                    None,
                );
            }
        }
        let _ = writeln!(report, "  search work over {} queries:", queries.len());
        report.push_str(&arp_bench::metrics_snapshot(&registry));
        let pair = |name: &str| registry.counter_value(name, &pair_labels);
        let _ = writeln!(
            report,
            "  {:<15} {:>6} {:>10} {:>10} {:>10} {:>6} {:>6}",
            "pair",
            queries.len(),
            pair("arp_search_settled_nodes_total"),
            pair("arp_search_heap_pops_total"),
            pair("arp_search_relaxed_edges_total"),
            "-",
            "-"
        );

        // The hierarchy's fixed costs and its point query; what a tree
        // pair costs through it is the Large-scale sweep below.
        let topo_start = Instant::now();
        let topo = ChTopology::build(&net);
        let topo_ms = topo_start.elapsed().as_secs_f64() * 1000.0;
        let _ = writeln!(
            report,
            "  {:<26} {topo_ms:>9.1} ms total ({} arcs, {} triangles)",
            "CCH topology build",
            topo.num_arcs(),
            topo.num_triangles()
        );
        let customize_start = Instant::now();
        let metric = topo
            .customize(&net, net.weights())
            .expect("base column customizes");
        let customize_ms = customize_start.elapsed().as_secs_f64() * 1000.0;
        let _ = writeln!(
            report,
            "  {:<26} {customize_ms:>9.1} ms total (per-epoch cost)",
            "CCH customization"
        );

        row(
            &mut report,
            "CCH query",
            time_per_query(
                || {
                    for &(s, t, _) in &queries {
                        let _ = topo.distance(&metric, s, t);
                    }
                },
                queries.len(),
                reps,
            ),
        );
    }

    heap_per_request(&mut report);
    inline_crossover(&mut report);
    tree_pair_sweep(&mut report);
    landmark_pruning(&mut report);
    landmark_bound_under_traffic(&mut report);

    println!("{report}");
    let path = arp_bench::write_report("perf.txt", &report);
    println!("report written to {}", path.display());
}
