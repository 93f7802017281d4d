//! A commercial-style provider that optimizes on **its own traffic data**.
//!
//! The paper could not make Google Maps use OpenStreetMap data, and
//! identifies that mismatch as the dominant uncontrolled factor of the
//! study (§4.2, Fig. 4): a route optimal under Google's travel times can
//! look slow and detour-laden when priced with OSM times, and vice versa.
//!
//! [`GoogleLikeProvider`] reproduces that mechanism. It derives a private
//! per-edge travel-time table from the public one via a deterministic
//! [`TrafficModel`] (smooth corridor-level congestion + per-edge noise —
//! the structure matters: spatially correlated differences flip route
//! choices, i.i.d. noise would average out over a long path). Routes are
//! computed on the private table with the extra "commercial" filters from
//! §4.2 (overlap pruning, local optimality, comfort ranking), then priced
//! on the public weights by the caller like every other provider.

use std::sync::Arc;

use arp_obs::Registry;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::Point;
use arp_roadnet::ids::EdgeId;
use arp_roadnet::weight::Weight;

use crate::error::CoreError;
use crate::filters::{filter_routes, FilterConfig};
use crate::kernel::ClosedWhere;
use crate::landmarks::Landmarks;
use crate::metrics::TechniqueMetrics;
use crate::plateau::{plateau_alternatives_from_trees, PlateauOptions};
use crate::reads::{CellMap, ReadCells};
use crate::substrate::{SearchSubstrate, Trip};

use super::{lane_workspace, observed_call, AlternativesProvider, ProviderKind, ProviderOutcome};
use crate::budget::SearchBudget;

/// Deterministic synthetic traffic model producing a private copy of the
/// edge weights.
#[derive(Clone, Copy, Debug)]
pub struct TrafficModel {
    /// Seed of the model (phases and noise derive from it).
    pub seed: u64,
    /// Amplitude of the smooth corridor-level congestion field (`0.2` means
    /// ±20 % swings across town).
    pub corridor_amplitude: f64,
    /// Amplitude of the per-edge noise.
    pub edge_noise_amplitude: f64,
    /// Time-of-day congestion level in `[0, 1]`: 0 = free flow (3 am,
    /// where the study queries Google's API), 1 = peak hour. Congestion
    /// adds a directional slowdown on arterials and surface streets on top
    /// of the data-source mismatch.
    pub congestion: f64,
}

impl TrafficModel {
    /// The default model: ±18 % corridor swings, ±8 % edge noise — enough
    /// to flip marginal route choices without changing the network's
    /// large-scale structure (the study queries at 3 am to avoid congestion,
    /// but the *estimates* still differ between data sources).
    pub fn new(seed: u64) -> TrafficModel {
        TrafficModel {
            seed,
            corridor_amplitude: 0.18,
            edge_noise_amplitude: 0.08,
            congestion: 0.0,
        }
    }

    /// The model at a given time of day, as hour-of-day in `[0, 24)`.
    /// Congestion follows a double-peak commuter profile (8 am / 5 pm);
    /// 3 am — the study's query time — is free flow.
    pub fn at_hour(seed: u64, hour: f64) -> TrafficModel {
        let morning = (-((hour - 8.0) / 2.0).powi(2)).exp();
        let evening = (-((hour - 17.0) / 2.5).powi(2)).exp();
        TrafficModel {
            congestion: (morning + evening).min(1.0),
            ..Self::new(seed)
        }
    }

    /// SplitMix64 — deterministic, platform-independent hash.
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn hash01(&self, v: u64) -> f64 {
        (Self::splitmix(self.seed ^ v) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The private/public factor for an edge with the given id and
    /// midpoint, normalized into the unit square of the network bbox.
    pub fn factor(&self, edge: EdgeId, unit_x: f64, unit_y: f64) -> f64 {
        let phase1 = self.hash01(0xA11CE) * std::f64::consts::TAU;
        let phase2 = self.hash01(0xB0B) * std::f64::consts::TAU;
        let corridor = (unit_x * 3.0 * std::f64::consts::TAU + phase1).sin()
            * (unit_y * 2.0 * std::f64::consts::TAU + phase2).sin();
        let noise = self.hash01(edge.0 as u64) * 2.0 - 1.0;
        let f = 1.0 + self.corridor_amplitude * corridor + self.edge_noise_amplitude * noise;
        f.max(0.5)
    }

    /// Congestion slowdown for an edge at unit position `(ux, uy)`:
    /// strongest on arterials near the city centre, mild on freeways,
    /// mildest on residential streets (peak traffic concentrates on the
    /// main corridors).
    pub fn congestion_factor(
        &self,
        category: arp_roadnet::category::RoadCategory,
        ux: f64,
        uy: f64,
    ) -> f64 {
        if self.congestion <= 0.0 {
            return 1.0;
        }
        use arp_roadnet::category::RoadCategory as C;
        let severity = match category {
            C::Motorway | C::MotorwayLink => 0.7,
            C::Trunk | C::Primary | C::Secondary => 0.9,
            C::Tertiary => 0.5,
            C::Residential | C::Unclassified | C::Service => 0.35,
        };
        // CBD proximity: congestion decays with distance from the centre.
        let d2 = (ux - 0.5).powi(2) + (uy - 0.5).powi(2);
        let central = (-d2 * 6.0).exp();
        1.0 + self.congestion * severity * (0.4 + 0.6 * central)
    }

    /// Builds the private weight table for `net` from its public weights.
    pub fn private_weights(&self, net: &RoadNetwork) -> Vec<Weight> {
        let bb = net.bbox();
        let w = bb.width_deg().max(1e-9);
        let h = bb.height_deg().max(1e-9);
        net.edges()
            .map(|e| {
                let mid = midpoint(net, e);
                let ux = (mid.lon - bb.min_lon) / w;
                let uy = (mid.lat - bb.min_lat) / h;
                let f = self.factor(e, ux, uy) * self.congestion_factor(net.category(e), ux, uy);
                let priv_w = (net.weight(e) as f64 * f).round();
                (priv_w.max(1.0) as Weight).min(u32::MAX - 1)
            })
            .collect()
    }
}

fn midpoint(net: &RoadNetwork, e: EdgeId) -> Point {
    let a = net.point(net.tail(e));
    let b = net.point(net.head(e));
    a.lerp(&b, 0.5)
}

/// The Google-Maps stand-in provider (see module docs).
pub struct GoogleLikeProvider {
    /// Private travel-time table indexed by `EdgeId`.
    private_weights: Vec<Weight>,
    /// The landmark table of the private column, which bounds it under
    /// any public closures too: closing an edge never shortens a route.
    landmarks: Arc<Landmarks>,
    /// Options of the underlying route computation.
    plateau_options: PlateauOptions,
    /// Commercial post-filters (§4.2 limitation #4).
    filters: FilterConfig,
    /// The grid cell of every vertex: what a call records as read.
    cells: Arc<CellMap>,
    /// Per-technique metrics (label `technique="google_like"`).
    metrics: TechniqueMetrics,
}

impl GoogleLikeProvider {
    /// Builds the provider for `net` with the default traffic model,
    /// recording nothing.
    pub fn new(net: &RoadNetwork, seed: u64) -> GoogleLikeProvider {
        Self::with_model(net, TrafficModel::new(seed), &Registry::disabled())
    }

    /// Builds the provider with an explicit traffic model, its
    /// per-technique metrics resolved from `registry`, and the landmark
    /// table of its private column.
    pub fn with_model(
        net: &RoadNetwork,
        model: TrafficModel,
        registry: &Registry,
    ) -> GoogleLikeProvider {
        let private_weights = model.private_weights(net);
        GoogleLikeProvider {
            landmarks: Arc::new(Landmarks::build(net, &private_weights)),
            private_weights,
            plateau_options: PlateauOptions {
                max_similarity: 0.8,
                min_plateau_fraction: 0.01,
            },
            filters: FilterConfig::commercial(),
            cells: Arc::new(CellMap::new(net)),
            metrics: TechniqueMetrics::new(registry, ProviderKind::GoogleLike.slug()),
        }
    }

    /// The provider's private travel-time table (for experiments that need
    /// to price routes "the way Google sees them", as Fig. 4 does).
    pub fn private_weights(&self) -> &[Weight] {
        &self.private_weights
    }
}

impl AlternativesProvider for GoogleLikeProvider {
    fn kind(&self) -> ProviderKind {
        ProviderKind::GoogleLike
    }

    /// The public pair describes the public column, which this provider
    /// does not search: it answers from the trip alone.
    fn reads_pair(&self) -> bool {
        false
    }

    fn answer(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError> {
        self.answer_reading(net, public_weights, trip, pair, budget)
            .0
    }

    /// Every search of a call — the private pair's A\* probe and trees,
    /// the filters' window probes — runs in one workspace that records
    /// the cells it settles. Those searches read `public_weights` only
    /// for closures, edge by edge as they settle an endpoint; Plateaus
    /// reads the pair's labels and the comfort ranking private costs, so
    /// the cells bound everything the routes depend on.
    fn answer_reading(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        _pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
    ) -> (Result<ProviderOutcome, CoreError>, Option<ReadCells>) {
        let (s, t, query) = (trip.source, trip.target, &trip.query);
        let mut reads = None;
        let answer = observed_call(&self.metrics, public_weights, |funnel| {
            if self.private_weights.len() != net.num_edges() {
                return Err(CoreError::WeightLengthMismatch {
                    expected: net.num_edges(),
                    got: self.private_weights.len(),
                });
            }
            // Closures are physical ground truth, not a travel-time
            // estimate: an edge hard-closed in the public column (a
            // live-traffic incident) is closed for this provider too, even
            // though its *factors* diverge — a commercial provider
            // disagrees about how slow a road is, not about whether it
            // exists. Every search reads the private table through the
            // public closures, edge by edge; nothing is copied. Routes
            // never use a closed edge, so pricing them on the private
            // table alone is the same.
            let private = ClosedWhere {
                weights: &self.private_weights,
                closures: public_weights,
            };
            // Plateaus on the PRIVATE data, on a pair grown here and pruned
            // by the private column's table: a public pair would describe
            // the other column. `observed_call`
            // prices the routes on the public data, like the paper's query
            // processor does for Google's. A build the budget interrupts
            // yields what it had proven (the private optimum once the
            // forward tree is complete) as the call's partial.
            let mut ws = lane_workspace(&self.metrics, net, budget);
            ws.record_reads(&self.cells);
            let landmarks = &self.landmarks;
            let own =
                match SearchSubstrate::build_under(&mut ws, net, private, landmarks, s, t, query) {
                    Ok(own) => own,
                    Err((CoreError::Interrupted, proven)) => {
                        funnel.interrupted = true;
                        return Ok(proven.into_iter().collect());
                    }
                    Err((e, _)) => {
                        // A complete search proved the target unreachable.
                        if matches!(e, CoreError::Unreachable { .. }) {
                            reads = ws.take_reads();
                        }
                        return Err(e);
                    }
                };
            let paths = plateau_alternatives_from_trees(
                net,
                &self.private_weights,
                query,
                &self.plateau_options,
                funnel,
                own.forward(),
                own.backward(),
                budget,
            )?;
            if funnel.interrupted {
                return Ok(paths);
            }
            // The commercial post-filters probe local optimality. A
            // Plateaus route is `sp(s,u) + plateau + sp(v,t)`, so almost
            // every window lies on a path of one of `own`'s trees and its
            // labels certify it; the rest are point-to-point searches in
            // the same workspace. A trip before or during them serves the
            // raw set as the partial.
            let filtered =
                filter_routes(&mut ws, net, private, &own, paths, query.k, &self.filters);
            match filtered {
                Ok(kept) => {
                    reads = ws.take_reads();
                    Ok(kept)
                }
                Err((CoreError::Interrupted, unfiltered)) => {
                    funnel.interrupted = true;
                    Ok(unfiltered)
                }
                Err((e, _)) => Err(e),
            }
        });
        (answer, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use crate::query::AltQuery;
    use arp_roadnet::ids::NodeId;

    #[test]
    fn traffic_model_is_deterministic() {
        let net = grid(6);
        let a = TrafficModel::new(7).private_weights(&net);
        let b = TrafficModel::new(7).private_weights(&net);
        assert_eq!(a, b);
        let c = TrafficModel::new(8).private_weights(&net);
        assert_ne!(a, c);
    }

    #[test]
    fn private_weights_deviate_but_moderately() {
        let net = grid(8);
        let private = TrafficModel::new(3).private_weights(&net);
        let mut ratio_sum = 0.0;
        let mut differing = 0usize;
        for e in net.edges() {
            let r = private[e.index()] as f64 / net.weight(e) as f64;
            assert!(r > 0.5 && r < 1.6, "ratio {r} out of range");
            ratio_sum += r;
            if private[e.index()] != net.weight(e) {
                differing += 1;
            }
        }
        let mean = ratio_sum / net.num_edges() as f64;
        assert!((mean - 1.0).abs() < 0.15, "mean ratio {mean}");
        assert!(differing > net.num_edges() / 2);
    }

    #[test]
    fn provider_answers_and_prices_publicly() {
        let net = grid(8);
        let p = GoogleLikeProvider::new(&net, 99);
        let q = AltQuery::paper();
        let routes = p
            .alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q)
            .unwrap();
        assert!(!routes.is_empty());
        for r in &routes {
            assert_eq!(r.public_cost_ms, r.path.cost_under(net.weights()));
        }
    }

    #[test]
    fn routes_are_optimal_privately_not_necessarily_publicly() {
        // The Fig. 4 mechanism: Google's first route is the best under its
        // own data, but may be beaten under public data.
        let net = grid(10);
        let provider = GoogleLikeProvider::new(&net, 5);
        let q = AltQuery::paper();
        let mut found_mismatch = false;
        for (s, t) in [(0u32, 99u32), (9, 90), (5, 94), (50, 49), (0, 90)] {
            let Ok(routes) = provider.alternatives(&net, net.weights(), NodeId(s), NodeId(t), &q)
            else {
                continue;
            };
            let public_best =
                crate::search::shortest_path(&net, net.weights(), NodeId(s), NodeId(t))
                    .unwrap()
                    .cost_ms;
            // Private-first route: optimal under private weights.
            let private_best = crate::search::shortest_path(
                &net,
                provider.private_weights(),
                NodeId(s),
                NodeId(t),
            )
            .unwrap();
            assert_eq!(
                routes[0].path.cost_under(provider.private_weights()),
                private_best.cost_ms,
                "google-first must be privately optimal"
            );
            if routes[0].public_cost_ms > public_best {
                found_mismatch = true;
            }
        }
        assert!(
            found_mismatch,
            "traffic model too weak: no route choice ever flipped"
        );
    }

    /// A hard closure in the public column (a live-traffic incident) binds
    /// the private search too: the provider disagrees about travel times,
    /// never about whether a road physically exists.
    #[test]
    fn public_closures_bind_the_private_search() {
        use arp_roadnet::weight::CLOSED;

        let net = grid(4);
        let p = GoogleLikeProvider::new(&net, 99);
        let q = AltQuery::paper();
        let target = NodeId(15);
        let mut weights = net.weights().to_vec();
        for e in net.edges() {
            if net.head(e) == target {
                weights[e.index()] = CLOSED;
            }
        }
        assert!(
            p.alternatives(&net, &weights, NodeId(0), target, &q)
                .is_err(),
            "all roads into the target are closed; the private table must not route"
        );
        // And with no closures present the private table is untouched —
        // routes match the closure-free call exactly.
        let plain = p.alternatives(&net, net.weights(), NodeId(0), target, &q);
        let again = p.alternatives(&net, net.weights(), NodeId(0), target, &q);
        assert_eq!(plain.unwrap(), again.unwrap());
    }

    #[test]
    fn mismatched_network_rejected() {
        let net = grid(4);
        let other = grid(5);
        let registry = Registry::new();
        let p = GoogleLikeProvider::with_model(&net, TrafficModel::new(1), &registry);
        assert!(matches!(
            p.alternatives(
                &other,
                other.weights(),
                NodeId(0),
                NodeId(24),
                &AltQuery::paper()
            ),
            Err(CoreError::WeightLengthMismatch { .. })
        ));
        // The rejected call is a call: every error is counted against one.
        let labels = &[("technique", "google_like")][..];
        let count = |name| registry.counter_value(name, labels);
        assert_eq!(count("arp_technique_calls_total"), 1);
        assert_eq!(count("arp_technique_errors_total"), 1);
    }

    /// A complete call reports the cells its searches read, which cover
    /// every edge of its routes; an unreachable target proven by a
    /// complete search reports them too; an interrupted call reports none.
    #[test]
    fn a_complete_call_reports_what_it_read() {
        use arp_roadnet::weight::CLOSED;

        let net = grid(8);
        let p = GoogleLikeProvider::new(&net, 99);
        let trip = |t| Trip {
            source: NodeId(0),
            target: NodeId(t),
            query: AltQuery::paper(),
        };
        let unlimited = SearchBudget::unlimited();
        let (answer, reads) = p.answer_reading(&net, net.weights(), &trip(63), None, &unlimited);
        let reads = reads.expect("a complete call reports its reads");
        let routes = answer.unwrap().routes();
        assert!(!routes.is_empty());
        for route in &routes {
            assert!(route.path.edges.iter().all(|&e| reads.reads_edge(&net, e)));
        }

        let mut walled = net.weights().to_vec();
        for e in net.edges().filter(|&e| net.head(e) == NodeId(63)) {
            walled[e.index()] = CLOSED;
        }
        let (answer, reads) = p.answer_reading(&net, &walled, &trip(63), None, &unlimited);
        assert!(matches!(answer, Err(CoreError::Unreachable { .. })));
        assert!(
            reads.is_some(),
            "a proven unreachable target reports its reads"
        );

        let cancelled = SearchBudget::new();
        cancelled.cancel();
        let (answer, reads) = p.answer_reading(&net, net.weights(), &trip(63), None, &cancelled);
        assert!(answer.unwrap().is_interrupted());
        assert!(reads.is_none());
    }

    /// A route whose every window the private pair's labels certify costs
    /// no search beyond that pair.
    #[test]
    fn certified_windows_cost_nothing_beyond_the_private_pair() {
        let net = grid(8);
        let registry = Registry::new();
        let p = GoogleLikeProvider::with_model(&net, TrafficModel::new(99), &registry);
        let (s, t, q) = (NodeId(0), NodeId(63), AltQuery::paper());
        let routes = p.alternatives(&net, net.weights(), s, t, &q).unwrap();
        assert!(routes.len() >= 2, "a route past the first was probed");
        let mut ws = crate::search::SearchSpace::new(&net);
        let private = p.private_weights();
        let own = SearchSubstrate::build(&mut ws, &net, private, &p.landmarks, s, t, &q).unwrap();
        let labels = &[("technique", "google_like")][..];
        assert_eq!(
            registry.counter_value("arp_search_settled_nodes_total", labels),
            own.build_stats().settled
        );
    }
}

#[cfg(test)]
mod congestion_tests {
    use super::*;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;

    fn two_edge_net() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(144.0, -37.0));
        let c = b.add_node(Point::new(144.01, -37.0));
        b.add_bidirectional(a, c, EdgeSpec::category(RoadCategory::Primary));
        b.build()
    }

    #[test]
    fn hour_profile_peaks_at_commute_times() {
        let night = TrafficModel::at_hour(1, 3.0);
        let morning = TrafficModel::at_hour(1, 8.0);
        let midday = TrafficModel::at_hour(1, 12.5);
        let evening = TrafficModel::at_hour(1, 17.0);
        assert!(night.congestion < 0.05, "{}", night.congestion);
        assert!(morning.congestion > 0.9);
        assert!(evening.congestion > 0.9);
        assert!(midday.congestion < morning.congestion);
        assert!(midday.congestion > night.congestion);
    }

    #[test]
    fn congestion_scales_private_weights_up() {
        let net = two_edge_net();
        let free = TrafficModel::at_hour(7, 3.0).private_weights(&net);
        let peak = TrafficModel::at_hour(7, 8.0).private_weights(&net);
        for e in net.edges() {
            assert!(peak[e.index()] > free[e.index()], "{e:?}");
        }
    }

    #[test]
    fn congestion_hits_arterials_hardest() {
        let m = TrafficModel {
            congestion: 1.0,
            ..TrafficModel::new(0)
        };
        let arterial = m.congestion_factor(RoadCategory::Primary, 0.5, 0.5);
        let freeway = m.congestion_factor(RoadCategory::Motorway, 0.5, 0.5);
        let residential = m.congestion_factor(RoadCategory::Residential, 0.5, 0.5);
        assert!(arterial > freeway);
        assert!(freeway > residential);
        // Suburban arterial is less congested than the same road downtown.
        let suburban = m.congestion_factor(RoadCategory::Primary, 0.05, 0.05);
        assert!(suburban < arterial);
    }

    #[test]
    fn free_flow_congestion_is_identity() {
        let m = TrafficModel::new(4);
        assert_eq!(m.congestion_factor(RoadCategory::Primary, 0.5, 0.5), 1.0);
    }
}
