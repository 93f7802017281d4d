//! The four workloads: seeded request lists over `Scale::Large` cities.
//!
//! Every endpoint is the coordinate of a node of the in-process
//! `arp_citygen::generate` twin, so snapping never fails. Lists are a
//! pure function of `(workload, seed, seconds)` — never of the machine.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use arp_citygen::{City, GeneratedCity, Scale};
use arp_roadnet::{NodeId, RoadNetwork, SpatialIndex};
use arp_traffic::{CityProfile, TrafficFeed};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::stats::{digest, Zipf};

/// Seed of the generated cities and of `arp serve --seed`.
pub const CITY_SEED: u64 = 42;

/// `--seconds` the request counts below are sized for; other values
/// scale them linearly.
pub const BASE_SECONDS: f64 = 20.0;

/// Fewest requests in a `solo` list: leaves ten beyond the 95th
/// percentile.
const MIN_SOLO: usize = 200;

/// Candidates drawn per request kept by [`stratified_pairs`].
const OVERSAMPLE: usize = 8;

/// First feed tick of `rush-hour`: the morning ramp (peak at tick 8).
const FIRST_TICK: u64 = 6;

pub const NAMES: [&str; 4] = ["cross-town", "short-hop", "commuter", "rush-hour"];

/// One step of a client's list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /api/route` with `bodies[i]`.
    Route(usize),
    /// `POST /api/traffic` with `deltas[i]`.
    Traffic(usize),
}

pub struct Plan {
    pub name: &'static str,
    pub city: City,
    /// Serve with `--state-dir <tmp> --fsync always`.
    pub durable: bool,
    /// Distinct route request bodies.
    pub bodies: Vec<String>,
    /// Great-circle origin–destination distance of each body, km.
    pub km: Vec<f64>,
    /// Delta grammar texts, in posting order.
    pub deltas: Vec<String>,
    /// Sent once per lap before anything is timed.
    pub warm: Vec<usize>,
    /// One client, one request in flight, in order.
    pub solo: Vec<Op>,
    /// Dealt to the crowd's clients by [`Plan::crowd_slices`].
    pub crowd: Vec<Op>,
    /// Deltas posted after the crowd in the traced run only, each
    /// followed by polling until the index is ready again.
    pub probes: Vec<usize>,
    /// The byte check of an end-to-end run compares every n-th `solo`
    /// response; the twin recomputes each one, so this bounds its cost.
    pub check_stride: usize,
    /// The traced run replays (and compares) every n-th `solo` request.
    /// 1 where the route cache is in play: a thinned list would hit less.
    pub twin_stride: usize,
}

impl Plan {
    /// `Route` ops are dealt round-robin; every `Traffic` op goes to
    /// client 0, in place, so one writer posts inline beside the readers.
    pub fn crowd_slices(&self, clients: usize) -> Vec<Vec<Op>> {
        let clients = clients.max(1);
        let mut slices = vec![Vec::new(); clients];
        let mut next = 0;
        for &op in &self.crowd {
            match op {
                Op::Traffic(_) => slices[0].push(op),
                Op::Route(_) => {
                    slices[next % clients].push(op);
                    next += 1;
                }
            }
        }
        slices
    }

    fn op_text(&self, op: &Op) -> String {
        match *op {
            Op::Route(i) => self.bodies[i].clone(),
            Op::Traffic(i) => format!("traffic:{}", self.deltas[i]),
        }
    }

    /// Digest of everything sent as a route request, in order.
    pub fn request_digest(&self) -> u64 {
        let warm: Vec<Op> = self.warm.iter().map(|&i| Op::Route(i)).collect();
        let texts: Vec<String> = warm
            .iter()
            .chain(&self.solo)
            .chain(&self.crowd)
            .map(|op| self.op_text(op))
            .collect();
        digest(texts.iter().map(String::as_str))
    }

    pub fn delta_digest(&self) -> u64 {
        digest(self.deltas.iter().map(String::as_str))
    }

    pub fn route_count(ops: &[Op]) -> usize {
        ops.iter().filter(|op| matches!(op, Op::Route(_))).count()
    }
}

pub fn city_of(name: &str) -> Option<City> {
    match name {
        "cross-town" | "short-hop" => Some(City::Copenhagen),
        "commuter" => Some(City::Melbourne),
        "rush-hour" => Some(City::Dhaka),
        _ => None,
    }
}

pub fn generate_city(city: City) -> GeneratedCity {
    arp_citygen::generate(city, Scale::Large, CITY_SEED)
}

fn scaled(base: usize, seconds: f64, floor: usize) -> usize {
    ((base as f64 * seconds / BASE_SECONDS).round() as usize).max(floor)
}

struct Builder<'a> {
    net: &'a RoadNetwork,
    /// Nodes whose own coordinate snaps back to them, so two distinct
    /// node pairs are two distinct cache keys.
    usable: Vec<NodeId>,
    rng: StdRng,
    seen: BTreeSet<(NodeId, NodeId)>,
    bodies: Vec<String>,
    km: Vec<f64>,
}

impl<'a> Builder<'a> {
    fn new(net: &'a RoadNetwork, workload: &str, seed: u64) -> Builder<'a> {
        let index = SpatialIndex::build(net);
        let usable = net
            .nodes()
            .filter(|&n| index.nearest_node(net, net.point(n)) == Some(n))
            .collect();
        // The workload's name salts the seed: `cross-town` and
        // `short-hop` share a city but not a stream.
        let salt = digest([workload]);
        Builder {
            net,
            usable,
            rng: StdRng::seed_from_u64(seed ^ salt),
            seen: BTreeSet::new(),
            bodies: Vec::new(),
            km: Vec::new(),
        }
    }

    fn km_between(&self, s: NodeId, t: NodeId) -> f64 {
        self.net.point(s).distance_m(&self.net.point(t)) / 1000.0
    }

    /// `n` distinct node pairs, never drawn before, whose great-circle
    /// distance lies in `range`, returned in ascending distance.
    ///
    /// Drawn uniformly, then thinned: of every [`OVERSAMPLE`] consecutive
    /// candidates in distance order one is kept. The kept pairs are
    /// still uniform draws, but their distances sit at fixed quantiles,
    /// so two seeds give lists of the same difficulty and a latency
    /// percentile does not move with the luck of the draw.
    fn stratified_pairs(&mut self, n: usize, range: RangeInclusive<f64>) -> Vec<usize> {
        let want = n * OVERSAMPLE;
        let mut candidates = Vec::with_capacity(want);
        let mut draws = 0usize;
        while candidates.len() < want {
            draws += 1;
            assert!(
                draws < 50_000_000,
                "no node pairs {range:?} km apart on this network"
            );
            let s = self.usable[self.rng.random_range(0..self.usable.len())];
            let t = self.usable[self.rng.random_range(0..self.usable.len())];
            let km = self.km_between(s, t);
            if s != t && range.contains(&km) && self.seen.insert((s, t)) {
                candidates.push((km, s, t));
            }
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut kept = Vec::with_capacity(n);
        for group in candidates.chunks(OVERSAMPLE) {
            let (km, s, t) = group[self.rng.random_range(0..group.len())];
            let (a, b) = (self.net.point(s), self.net.point(t));
            self.bodies.push(format!(
                "{{\"slon\":{},\"slat\":{},\"tlon\":{},\"tlat\":{}}}",
                a.lon, a.lat, b.lon, b.lat
            ));
            self.km.push(km);
            kept.push(self.bodies.len() - 1);
        }
        kept
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.rng.random_range(0..=i));
        }
    }

    /// A shuffled list of `n` all-distinct route ops.
    fn distinct_routes(&mut self, n: usize, range: RangeInclusive<f64>) -> Vec<Op> {
        let mut ids = self.stratified_pairs(n, range);
        self.shuffle(&mut ids);
        ids.into_iter().map(Op::Route).collect()
    }

    /// The great-circle distances at quantiles `lo` and `hi` of uniform
    /// random node pairs, km.
    fn distance_band(&mut self, lo: f64, hi: f64) -> RangeInclusive<f64> {
        const SAMPLES: usize = 4000;
        let mut km: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let s = self.usable[self.rng.random_range(0..self.usable.len())];
                let t = self.usable[self.rng.random_range(0..self.usable.len())];
                self.km_between(s, t)
            })
            .collect();
        km.sort_by(f64::total_cmp);
        let at = |q: f64| km[((SAMPLES - 1) as f64 * q) as usize];
        at(lo)..=at(hi)
    }

    /// A hot set of typical trips — the middle third of uniform pairs by
    /// length — in popularity order: the pair of median length first,
    /// then outwards. A cached response costs what its body weighs and a
    /// recomputed one what its trip spans; keeping the hot pairs alike
    /// keeps both from moving with the seed.
    fn hot_set(&mut self, n: usize) -> Vec<usize> {
        let band = self.distance_band(1.0 / 3.0, 2.0 / 3.0);
        let by_km = self.stratified_pairs(n, band);
        let mid = n / 2;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (i.abs_diff(mid), i));
        order.into_iter().map(|i| by_km[i]).collect()
    }

    fn zipf_routes(&mut self, hot: &[usize], zipf: &Zipf, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| Op::Route(hot[zipf.sample(&mut self.rng)]))
            .collect()
    }
}

/// Builds `name`'s plan on `net` (the twin of the city [`city_of`] names).
pub fn plan(name: &str, net: &RoadNetwork, seed: u64, seconds: f64) -> Option<Plan> {
    let name = *NAMES.iter().find(|&&n| n == name)?;
    let city = city_of(name)?;
    let mut b = Builder::new(net, name, seed);
    // `cross-town` leaves the shortest trips to `short-hop` and drops the
    // rare corner-to-corner ones: a few 150 ms requests would otherwise
    // take a fifth of the run and decide its 95th percentile by luck.
    let across = 2.0..=24.0;
    let mut deltas = Vec::new();
    let mut probes = Vec::new();
    let (check_stride, twin_stride) = match name {
        "cross-town" | "short-hop" => (10, 3),
        _ => (12, 1),
    };
    let (warm, solo, crowd) = match name {
        "cross-town" => {
            let warm = b.stratified_pairs(6, across.clone());
            let solo = b.distinct_routes(scaled(200, seconds, MIN_SOLO), across.clone());
            let crowd = b.distinct_routes(scaled(70, seconds, 20), across);
            (warm, solo, crowd)
        }
        "short-hop" => {
            let hop = 0.5..=2.0;
            let warm = b.stratified_pairs(6, hop.clone());
            let solo = b.distinct_routes(scaled(220, seconds, MIN_SOLO), hop.clone());
            let crowd = b.distinct_routes(scaled(140, seconds, 20), hop);
            (warm, solo, crowd)
        }
        "commuter" => {
            let hot = b.hot_set(32);
            let zipf = Zipf::new(hot.len(), 1.1);
            let solo = b.zipf_routes(&hot, &zipf, scaled(600, seconds, MIN_SOLO));
            let crowd = b.zipf_routes(&hot, &zipf, scaled(1600, seconds, 20));
            (hot, solo, crowd)
        }
        "rush-hour" => {
            let hot = b.hot_set(24);
            let zipf = Zipf::new(hot.len(), 1.0);
            let feed = TrafficFeed::new(seed, CityProfile::Organic);
            let mut tick = FIRST_TICK;
            let mut next_delta = |deltas: &mut Vec<String>| loop {
                let delta = feed.delta_for_tick(tick, net.num_edges());
                tick += 1;
                if !delta.is_empty() {
                    deltas.push(delta.to_string());
                    return deltas.len() - 1;
                }
            };
            const READS_PER_ROUND: usize = 80;
            let mut rounds = |b: &mut Builder, deltas: &mut Vec<String>, n: usize| {
                let mut ops = Vec::new();
                for _ in 0..n {
                    ops.push(Op::Traffic(next_delta(deltas)));
                    ops.extend(b.zipf_routes(&hot, &zipf, READS_PER_ROUND));
                }
                ops
            };
            let solo_rounds = scaled(4, seconds, MIN_SOLO.div_ceil(READS_PER_ROUND));
            let solo = rounds(&mut b, &mut deltas, solo_rounds);
            let crowd = rounds(&mut b, &mut deltas, scaled(5, seconds, 1));
            probes = (0..3).map(|_| next_delta(&mut deltas)).collect();
            (hot, solo, crowd)
        }
        _ => unreachable!("name was looked up in NAMES"),
    };
    Some(Plan {
        name,
        city,
        durable: name == "rush-hour",
        bodies: b.bodies,
        km: b.km,
        deltas,
        warm,
        solo,
        crowd,
        probes,
        check_stride,
        twin_stride,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net() -> RoadNetwork {
        arp_citygen::generate(City::Dhaka, Scale::Small, 9).network
    }

    #[test]
    fn same_seed_same_digests_and_other_seed_differs() {
        let net = small_net();
        for name in NAMES {
            let a = plan(name, &net, 1, 20.0).unwrap();
            let b = plan(name, &net, 1, 20.0).unwrap();
            let c = plan(name, &net, 2, 20.0).unwrap();
            assert_eq!(a.request_digest(), b.request_digest(), "{name}");
            assert_eq!(a.delta_digest(), b.delta_digest(), "{name}");
            assert_ne!(a.request_digest(), c.request_digest(), "{name}");
            assert!(Plan::route_count(&a.solo) >= MIN_SOLO, "{name}");
        }
        assert!(plan("nonsense", &net, 1, 20.0).is_none());
    }

    #[test]
    fn miss_workloads_never_repeat_a_pair() {
        let net = small_net();
        for name in ["cross-town", "short-hop"] {
            let p = plan(name, &net, 3, 20.0).unwrap();
            let unique: BTreeSet<&String> = p.bodies.iter().collect();
            assert_eq!(unique.len(), p.bodies.len(), "{name}");
            let sent = p.warm.len() + p.solo.len() + p.crowd.len();
            assert_eq!(sent, p.bodies.len(), "{name}: each body is sent once");
        }
        let hop = plan("short-hop", &net, 3, 20.0).unwrap();
        assert!(hop.km.iter().all(|km| (0.5..=2.0).contains(km)));
    }

    #[test]
    fn rush_hour_rounds_start_with_a_write_and_slices_keep_it_on_client_0() {
        let net = small_net();
        let p = plan("rush-hour", &net, 1, 20.0).unwrap();
        assert!(p.durable);
        assert!(matches!(p.solo[0], Op::Traffic(0)));
        assert!(p.deltas.iter().all(|d| !d.is_empty()));
        let slices = p.crowd_slices(2);
        assert!(slices[1].iter().all(|op| matches!(op, Op::Route(_))));
        let writes = |ops: &[Op]| ops.len() - Plan::route_count(ops);
        assert_eq!(writes(&slices[0]), writes(&p.crowd));
        assert_eq!(
            slices.iter().map(Vec::len).sum::<usize>(),
            p.crowd.len(),
            "nothing is dropped or duplicated"
        );
        // The popular pairs are the typical ones: the head of the hot set
        // sits between the extremes of trip length.
        let head = p.km[p.warm[0]];
        let (lo, hi) = p.warm.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &i| {
            (lo.min(p.km[i]), hi.max(p.km[i]))
        });
        assert!(lo < head && head < hi);
    }
}
