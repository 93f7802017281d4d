//! The demo's query processor (§3).
//!
//! "The input to the query processor is a pair of source and target
//! locations … First, the query processor performs geo-coordinate matching
//! and selects the closest vertices … Then \[it\] computes the alternative
//! routes … For each of the routes generated by these four approaches, the
//! query processor computes its travel time by using the OSM data. Each
//! travel time is rounded to display time in minutes."

use std::sync::Arc;

use arp_core::path::{cost_of, Path};
use arp_core::provider::AlternativesProvider;
use arp_core::query::{AltQuery, Route};
use arp_core::substrate::{SearchSubstrate, Trip};
use arp_core::{
    CellMap, CoreError, Landmarks, ProviderKind, ProviderOutcome, ReadCells, SearchBudget,
    SearchMetrics, SearchSpace,
};
use arp_obs::{Counter, Registry};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::{BoundingBox, Point};
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::spatial::SpatialIndex;
use arp_roadnet::weight::ms_to_display_minutes;
use arp_serve::{CacheHit, LaneStatus};
use arp_traffic::{
    DurabilityConfig, EpochSnapshot, RecoveryReport, TrafficError, TrafficFactors, TrafficState,
};

use crate::blind::LABELS;
use crate::error::DemoError;
use crate::index::IndexManager;
use crate::render::vertices_along;

/// Maximum distance between a clicked location and its matched vertex.
pub const MATCH_RADIUS_M: f64 = 2_000.0;

/// Route colors, in rank order, as the demo UI draws them.
pub const ROUTE_COLORS: [&str; 5] = ["#1a67d6", "#1f9e4b", "#8e44ad", "#e67e22", "#c0392b"];

/// One displayed route.
#[derive(Clone, Debug)]
pub struct RouteInfo {
    /// Travel time in whole display minutes (OSM data, rounded).
    pub minutes: u64,
    /// Exact travel time in ms on the public weights.
    pub cost_ms: u64,
    /// Route geometry as a polyline of coordinates.
    pub polyline: Vec<Point>,
    /// Display color.
    pub color: &'static str,
    /// The route's edge sequence. Server-side only (never rendered as
    /// such): lets tests and audits re-cost the route exactly against any
    /// epoch's weight column, and lets the `/api/route` writer look each
    /// polyline point up by vertex — so when non-empty, `polyline` must be
    /// the coordinates of the vertices these edges pass, in order.
    pub edges: Vec<EdgeId>,
}

/// The routes of one (blinded) approach. Computed once per lane and then
/// shared by refcount: the route cache, the assembled response and the
/// renderer all hold the same `Arc<ApproachRoutes>`.
#[derive(Clone, Debug)]
pub struct ApproachRoutes {
    /// Blind label (A–D).
    pub label: char,
    /// Routes in provider rank order.
    pub routes: Vec<RouteInfo>,
    /// What the routes were computed and priced under: every part a lane
    /// completed carries one, and no cache key names a traffic column.
    /// `None` for a part that is never cached (a truncated lane, or the
    /// empty stand-in of a lane that failed). Server-side only, never
    /// rendered.
    pub basis: Option<Box<Basis>>,
}

/// What a lane's routes were computed and priced under: what proves that
/// a cached copy still answers a later traffic epoch
/// ([`QueryProcessor::reuse_slot`], DESIGN.md §8 "Cache key
/// normalization").
#[derive(Clone, Debug)]
pub struct Basis {
    /// The closed edges the lane's searches ran under, sorted (shared with
    /// the snapshot that pinned them).
    pub closed: Arc<[u32]>,
    /// The map cells those searches read: for a lane that reads the
    /// request's tree pair, the pair's searches and its own.
    pub reads: ReadCells,
    /// The factors of the column the searches read, shared with the
    /// snapshot that pinned them; `None` for a lane that reads only the
    /// column's closures (Google-like searches its own column).
    pub factors: Option<Arc<TrafficFactors>>,
    /// The publication whose public column priced the routes' minutes.
    pub publication: u64,
}

/// A query normalized to network vertices — the serving layer's request
/// type. Two raw coordinate pairs that snap to the same vertices are the
/// same `SnappedQuery`, which is what makes route-cache keys meaningful.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SnappedQuery {
    /// Matched source vertex.
    pub source: NodeId,
    /// Matched target vertex.
    pub target: NodeId,
}

/// A [`SnappedQuery`] pinned to a traffic epoch, plus what its prepare
/// step proved — the serving layer's request type, built by
/// [`QueryProcessor::prepare_query`].
///
/// The request's tree pair (forward + backward shortest-path trees and
/// the base route, see [`SearchSubstrate`]) is grown **once**, on the
/// pinned epoch's weights, by the prepare step
/// ([`QueryProcessor::prepare_substrate`]) and handed read-only via `Arc`
/// to the technique lanes that read it — all but Google-like, which
/// reads only the snapped trip and the pinned epoch
/// ([`QueryProcessor::slot_reads_pair`]). Nothing else grows or writes
/// it, so a pair always answers the request and epoch it travels with.
///
/// Cache identity is [`PreparedQuery::snapped`] alone: the pair is
/// derived state and never part of a cache key, and the pinned snapshot
/// is what every hit is checked against — see
/// [`QueryProcessor::slot_cache_key_at`] and [`QueryProcessor::reuse_slot`].
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    /// The snapped endpoints (the cache identity, with the epoch).
    pub snapped: SnappedQuery,
    /// The prepare step's outcome: the request's tree pair, or why there
    /// is none — the budget tripped (with the base route, when the
    /// forward tree had proven it) or the pair is unroutable. Starts as
    /// `Err((Interrupted, None))`: nothing proven yet.
    pub(crate) substrate: Result<Arc<SearchSubstrate>, (CoreError, Option<Path>)>,
    /// The map cells the pair's searches read, whether or not they ran
    /// to a verdict (`None` before the prepare step): every pair reader's
    /// record starts from them ([`QueryProcessor::compute_slot_prepared`]).
    pub(crate) pair_reads: Option<ReadCells>,
    /// The pinned traffic epoch this request computes and prices on
    /// (epoch 0 shares the base column). Pinned once at request
    /// construction ([`QueryProcessor::prepare_query`]), **before** the
    /// cache probe, so the snapshot a hit is checked against and the one
    /// a miss computes on can never disagree.
    pub overlay: Arc<EpochSnapshot>,
}

impl PreparedQuery {
    /// The traffic epoch this request is pinned to (0 = base weights).
    pub fn epoch(&self) -> u64 {
        self.overlay.epoch()
    }

    /// How many labels the prepare step's tree-pair build settled, when
    /// it built the pair (`None` before prepare, or when the build was
    /// interrupted or found no route).
    pub fn pair_settled(&self) -> Option<u64> {
        let pair = self.substrate.as_ref().ok()?;
        Some(pair.build_stats().settled)
    }
}

impl QueryResponse {
    /// Whether any approach shows a route. A served response without
    /// one means the matched points are not connected at its epoch: the
    /// serving layer serves one only when some lane completed, and a
    /// completed lane without a route proves it.
    pub fn has_route(&self) -> bool {
        self.approaches.iter().any(|a| !a.routes.is_empty())
    }
}

/// Answer to a demo query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Vertex the source location matched to.
    pub source: NodeId,
    /// Vertex the target location matched to.
    pub target: NodeId,
    /// Fastest travel time in display minutes.
    pub fastest_minutes: u64,
    /// Per-approach routes, in blind-label order A–D.
    pub approaches: Vec<Arc<ApproachRoutes>>,
    /// Whether the response was truncated by the request deadline: some
    /// approaches may show fewer routes (or none) than an unhurried run
    /// would have produced.
    pub truncated: bool,
    /// Whether the response is degraded: at least one approach failed or
    /// was short-circuited by its open breaker, and the rest were served
    /// anyway. Degraded responses are never cached.
    pub degraded: bool,
    /// Per-approach lane verdicts, keyed by the **blind** label (A–D) so
    /// the response never leaks which technique failed. Empty on the
    /// healthy path, where the response must stay byte-identical to the
    /// serial reference.
    pub lane_status: Vec<(char, LaneStatus)>,
    /// The traffic epoch the routes were computed and priced on. 0 =
    /// base weights (no overlay active). Every route in the response
    /// comes from this one epoch — mixed-epoch responses cannot be
    /// constructed, because the epoch is pinned per request before any
    /// lane runs.
    pub epoch: u64,
}

/// Instruments of the tree-pair builds (DESIGN.md §8,
/// docs/OPERATIONS.md). Resolved once from the processor's registry so
/// the per-request path never touches the registry lock.
#[derive(Clone, Debug, Default)]
struct SubstrateMetrics {
    /// `arp_substrate_builds_total` — tree pairs grown successfully.
    builds: Counter,
    /// `arp_substrate_build_failures_total` — builds abandoned: the
    /// budget tripped mid-build, or the pair is unroutable.
    build_failures: Counter,
    /// The builds' searches, `arp_search_*{technique="pair"}`.
    search: SearchMetrics,
}

impl SubstrateMetrics {
    fn new(registry: &Registry) -> SubstrateMetrics {
        SubstrateMetrics {
            builds: registry.counter(
                "arp_substrate_builds_total",
                "Tree pairs built (one per uncached, runnable request).",
                &[],
            ),
            build_failures: registry.counter(
                "arp_substrate_build_failures_total",
                "Tree-pair builds abandoned (budget tripped mid-build, or unroutable pair).",
                &[],
            ),
            search: SearchMetrics::new(registry, &[("technique", "pair")]),
        }
    }
}

/// The demo back-end: network + spatial index + providers + live-traffic
/// state.
///
/// Its technique lanes (slots) are positions in [`ProviderKind::ALL`]:
/// slot `i` runs `providers[i]`, the approach `ProviderKind::ALL[i]`, under
/// the blind label `LABELS[i]` (see [`crate::blind`]).
pub struct QueryProcessor {
    name: String,
    network: Arc<RoadNetwork>,
    spatial: SpatialIndex,
    /// The four providers, built in [`ProviderKind::ALL`] order.
    providers: Vec<Box<dyn AlternativesProvider>>,
    /// The landmark table of the network's base column. It prunes the tree
    /// pair of every request, whatever epoch it pins, read at the pinned
    /// snapshot's bound scale (`EpochSnapshot::bound_scale`): every open
    /// edge of that epoch's column weighs at least that multiple of its
    /// base weight, so the scaled bound stays a consistent lower bound
    /// there and follows the traffic without a table per epoch.
    landmarks: Arc<Landmarks>,
    /// The grid cell of every vertex: what the tree pairs and the lanes
    /// record as read ([`Basis::reads`]).
    cells: Arc<CellMap>,
    query: AltQuery,
    registry: Registry,
    substrate_metrics: SubstrateMetrics,
    traffic: Arc<TrafficState>,
    /// What crash recovery found when the traffic state was made durable
    /// ([`QueryProcessor::with_traffic_durability`]). `None` means the
    /// in-memory default: no journal, nothing to recover.
    recovery: Option<RecoveryReport>,
    /// The epoch-customizable CH index tier ([`IndexManager`]), when
    /// enabled. No request consults it.
    index: Option<IndexManager>,
}

impl QueryProcessor {
    /// Builds the processor for a network with a fresh, enabled metrics
    /// [`Registry`] and the landmark table of its base column. `seed`
    /// parameterizes the Google-like provider's private data.
    pub fn new(name: impl Into<String>, network: RoadNetwork, seed: u64) -> QueryProcessor {
        let registry = Registry::new();
        let spatial = SpatialIndex::build(&network);
        let providers = arp_core::provider::instrumented_providers(&network, seed, &registry);
        let landmarks = Arc::new(Landmarks::build(&network, network.weights()));
        let cells = Arc::new(CellMap::new(&network));
        let substrate_metrics = SubstrateMetrics::new(&registry);
        let network = Arc::new(network);
        let (traffic, recovery) = TrafficState::open(Arc::clone(&network), None, &registry)
            .expect("an in-memory state has nothing to fail on");
        QueryProcessor {
            name: name.into(),
            network,
            spatial,
            providers,
            landmarks,
            cells,
            query: AltQuery::paper(),
            registry,
            substrate_metrics,
            traffic: Arc::new(traffic),
            recovery,
            index: None,
        }
    }

    /// Makes the traffic state durable: recovers from `config.dir` (the
    /// newest journal generation that reads clean, its checkpoint and the
    /// records after it; torn tails truncated, corrupt generations
    /// quarantined) and journals every subsequently accepted
    /// delta **before** its epoch publishes. Call this **before**
    /// [`QueryProcessor::with_ch_index`]: the index tier reads the traffic
    /// state it was built beside, and replacing that state under it would
    /// leave the tier customizing a state no request pins.
    ///
    /// The recovery outcome is kept on the processor
    /// ([`QueryProcessor::recovery_report`]) so `/api/health` can report
    /// `"recovery": "degraded"` when something was quarantined.
    pub fn with_traffic_durability(
        mut self,
        config: DurabilityConfig,
    ) -> Result<QueryProcessor, TrafficError> {
        assert!(
            self.index.is_none(),
            "enable durability before the CH index tier: the index must \
             read the recovered traffic state"
        );
        let (traffic, report) =
            TrafficState::open(Arc::clone(&self.network), Some(config), &self.registry)?;
        self.traffic = Arc::new(traffic);
        self.recovery = report;
        Ok(self)
    }

    /// The crash-recovery report, when
    /// [`QueryProcessor::with_traffic_durability`] ran. `None` means the
    /// traffic state is in-memory only.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Enables the epoch-customizable CH index tier: builds the
    /// topology and customizes the current epoch synchronously. The tier
    /// answers no request ([`QueryProcessor::prepare_substrate`]) and
    /// nothing keeps it current in the background: a later epoch is
    /// customized when someone asks for it ([`IndexManager::metric_for`],
    /// or the `/api/health` `index` block).
    pub fn with_ch_index(mut self) -> QueryProcessor {
        self.index = Some(IndexManager::new(
            Arc::clone(&self.network),
            Arc::clone(&self.traffic),
            &self.registry,
        ));
        self
    }

    /// The CH index tier, when [`QueryProcessor::with_ch_index`] enabled
    /// it. `/api/health` asks it for the current epoch's metric and
    /// reports the answer.
    pub fn ch_index(&self) -> Option<&IndexManager> {
        self.index.as_ref()
    }

    /// The metrics registry the four providers report into. The HTTP layer
    /// shares it for request metrics and the `/api/metrics` exposition.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Study-area rectangle (clicks outside are rejected, like the demo's
    /// "specified rectangular area").
    pub fn study_area(&self) -> BoundingBox {
        self.network.bbox().padded(0.002)
    }

    /// City name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying network.
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// The live-traffic authority: `POST /api/traffic` applies deltas
    /// here, the feed ticker advances it, and every request pins one of
    /// its epoch snapshots.
    pub fn traffic(&self) -> &Arc<TrafficState> {
        &self.traffic
    }

    /// Pins the current traffic epoch to a snapped query — the request
    /// constructor for epoch-aware serving. Runs **before** the cache
    /// probe ([`crate::DemoBackend`] checks every hit against the pinned
    /// snapshot), so what a hit is judged against and what a miss
    /// computes on always agree; the pinned column then outlives any
    /// number of mid-request epoch swaps.
    pub fn prepare_query(&self, snapped: SnappedQuery) -> PreparedQuery {
        PreparedQuery {
            snapped,
            substrate: Err((CoreError::Interrupted, None)),
            pair_reads: None,
            overlay: self.traffic.snapshot(),
        }
    }

    /// Geo-coordinate matching: nearest vertex within [`MATCH_RADIUS_M`].
    pub fn match_point(&self, p: Point, which: &'static str) -> Result<NodeId, DemoError> {
        if !self.study_area().contains(p) {
            return Err(DemoError::OutOfArea { which });
        }
        self.spatial
            .nearest_node_within(&self.network, p, MATCH_RADIUS_M)
            .map(|(n, _)| n)
            .ok_or(DemoError::NoNearbyRoad { which })
    }

    /// Geo-coordinate matching for both endpoints: the normalization step
    /// in front of the serving layer's cache.
    pub fn snap(&self, source: Point, target: Point) -> Result<SnappedQuery, DemoError> {
        let s = self.match_point(source, "source")?;
        let t = self.match_point(target, "target")?;
        if s == t {
            return Err(DemoError::SameLocation);
        }
        Ok(SnappedQuery {
            source: s,
            target: t,
        })
    }

    /// Number of technique slots (always four).
    pub fn technique_slots(&self) -> usize {
        ProviderKind::ALL.len()
    }

    /// The route-cache key for one technique slot of a snapped query:
    /// `{city}:{source vertex}:{target vertex}:{technique}:{k}`. It names
    /// no traffic column: a tick leaves every key as it was, and each hit
    /// is checked against the request's pinned snapshot instead
    /// ([`Self::reuse_slot`]), so an entry a tick did not touch is served
    /// on and one it did is overwritten in place — no sweep runs and no
    /// stale copy per column piles up in the LRU. Documented in DESIGN.md
    /// §8 and §10.
    pub fn slot_cache_key_at(&self, q: &SnappedQuery, slot: usize) -> String {
        let (name, technique, k) = (&self.name, self.slot_technique(slot), self.query.k);
        let (source, target) = (q.source.0, q.target.0);
        format!("{name}:{source}:{target}:{technique}:{k}")
    }

    /// Whether a part cached under a lane's key answers `q` — the serving
    /// layer's [`arp_serve::RouteBackend::reuse`], one rule for every
    /// lane, read off the part's [`Basis`]:
    ///
    /// - at the publication that priced it, the part is fresh;
    /// - a lane whose searches read the public column's factors (a pair
    ///   reader) is refused when `q`'s factors differ from the ones it ran
    ///   under;
    /// - any lane is refused when an edge whose closure differs between
    ///   the two snapshots has an endpoint in a cell its searches read;
    /// - anything else is carried: under equal factors the two columns
    ///   differ only on those closures, so every search would run the
    ///   same under `q`, and the routes are re-priced on `q`'s column,
    ///   exactly as a miss prices them.
    ///
    /// A part without a basis is refused and recomputed.
    pub fn reuse_slot(
        &self,
        q: &PreparedQuery,
        cached: Arc<ApproachRoutes>,
    ) -> Option<CacheHit<Arc<ApproachRoutes>>> {
        let basis = cached.basis.as_deref()?;
        let overlay = &q.overlay;
        if basis.publication == overlay.publication() {
            return Some(CacheHit::Fresh(cached));
        }
        let factors = overlay.factors();
        if let Some(read) = &basis.factors {
            if !Arc::ptr_eq(read, factors) && **read != **factors {
                return None;
            }
        }
        let closed = overlay.closed();
        let unread = Arc::ptr_eq(&basis.closed, closed)
            || symmetric_difference(&basis.closed, closed)
                .all(|e| !basis.reads.reads_edge(&self.network, EdgeId(e)));
        if !unread {
            return None;
        }
        let weights = overlay.weights();
        let routes = cached
            .routes
            .iter()
            .map(|route| {
                let cost_ms = cost_of(&route.edges, weights);
                RouteInfo {
                    minutes: ms_to_display_minutes(cost_ms),
                    cost_ms,
                    ..route.clone()
                }
            })
            .collect();
        Some(CacheHit::Carried(Arc::new(ApproachRoutes {
            label: cached.label,
            routes,
            basis: Some(Box::new(Basis {
                closed: Arc::clone(closed),
                reads: basis.reads.clone(),
                factors: basis.factors.as_ref().map(|_| Arc::clone(factors)),
                publication: overlay.publication(),
            })),
        })))
    }

    /// The prepare step — the one place this processor grows a tree
    /// pair: grows the [`SearchSubstrate`] for `request` under a
    /// cooperative budget, on its pinned epoch's weights, pruned by the
    /// base column's landmark table, read at the epoch's bound scale, to
    /// the stretch bound of the processor's [`AltQuery`], and records
    /// the outcome on the request for every lane to read, with the map
    /// cells the build's searches read. Failures are
    /// [`SearchSubstrate::build`]'s: the budget tripped (with the base
    /// route, when the forward tree had proven it), or the pair is
    /// unroutable. The workspace and the pair's trees are lent from
    /// `arp_core`'s scratch pools and go back when the request drops
    /// (DESIGN.md §8 "What a miss allocates").
    ///
    /// The CH index tier ([`QueryProcessor::with_ch_index`]) is not
    /// consulted — the bounded search beats its whole-city sweep at every
    /// trip length the benchmark drives (EXPERIMENTS.md).
    pub fn prepare_substrate(
        &self,
        mut request: PreparedQuery,
        budget: &SearchBudget,
    ) -> PreparedQuery {
        let metrics = self.substrate_metrics.search.clone();
        let mut ws = SearchSpace::pooled(&self.network, budget.clone(), metrics);
        ws.record_reads(&self.cells);
        let SnappedQuery { source, target } = request.snapped;
        let weights = request.overlay.weights();
        let built = SearchSubstrate::build(
            &mut ws,
            &self.network,
            weights,
            &self.landmarks,
            request.overlay.bound_scale(),
            source,
            target,
            &self.query,
        );
        match &built {
            Ok(_) => self.substrate_metrics.builds.inc(),
            Err(_) => self.substrate_metrics.build_failures.inc(),
        }
        request.pair_reads = ws.take_reads();
        request.substrate = built.map(Arc::new);
        request
    }

    /// Whether a technique slot reads the request's tree pair
    /// ([`AlternativesProvider::reads_pair`]). A slot that does not needs
    /// no prepare step, so the serving layer may start it first.
    pub fn slot_reads_pair(&self, slot: usize) -> bool {
        self.providers[slot].reads_pair()
    }

    /// Computes one technique slot under a cooperative [`SearchBudget`]:
    /// run that provider on the request's trip (and its tree pair, when
    /// the provider reads one), price its routes on the public (OSM)
    /// weights, round to minutes, attach the blind label. Slots are
    /// independent, so the serving layer runs them in parallel. A budget
    /// tripped mid-slot (the serving layer builds one over the request's
    /// cancel token) stops the technique within one budget-check
    /// interval; the slot then returns the routes admitted so far plus
    /// `true` for "interrupted".
    ///
    /// A slot that reads the pair only reads what the prepare step
    /// ([`QueryProcessor::prepare_substrate`]) left on the request. A
    /// prepare interrupted before its pair was complete serves the forward
    /// tree's proven base route (or nothing) as the slot's partial; any
    /// other failure is the slot's error — the technique never runs. A
    /// slot that does not read the pair ([`Self::slot_reads_pair`]) never
    /// looks at prepare's outcome: it answers the snapped trip on the
    /// pinned epoch under its own budget, prepared or not.
    ///
    /// A pair with no route at this epoch ([`CoreError::Unreachable`],
    /// from the pair or from the technique's own search) is a complete
    /// answer with zero routes, not an error: it is what every technique
    /// says about the trip.
    ///
    /// Each slot's record of the cells its searches read starts from the
    /// pair's (a pair reader) or empty (Google-like), and the provider adds
    /// its own. A slot whose outcome was not interrupted keeps it in its
    /// [`Basis`], with the snapshot's closures, factors (when it read them)
    /// and publication; an interrupted slot keeps none. Only a kept basis
    /// is ever judged against a later epoch ([`Self::reuse_slot`]).
    pub fn compute_slot_prepared(
        &self,
        q: &PreparedQuery,
        slot: usize,
        budget: &SearchBudget,
    ) -> Result<(Arc<ApproachRoutes>, bool), DemoError> {
        let (net, weights) = (&*self.network, q.overlay.weights());
        let provider = &self.providers[slot];
        let trip = Trip {
            source: q.snapped.source,
            target: q.snapped.target,
            query: self.query,
        };
        let mut reads = if provider.reads_pair() {
            q.pair_reads.clone()
        } else {
            Some(ReadCells::new(&self.cells))
        };
        let answered = match (provider.reads_pair(), &q.substrate) {
            (false, _) => provider.answer(net, weights, &trip, None, budget, reads.as_mut()),
            (true, Ok(pair)) => {
                provider.answer(net, weights, &trip, Some(pair), budget, reads.as_mut())
            }
            (true, Err((CoreError::Interrupted, proven))) => {
                let partial = proven
                    .iter()
                    .map(|p| Route::new(p.clone(), weights))
                    .collect();
                Ok(ProviderOutcome::Interrupted { partial })
            }
            (true, Err((e, _))) => Err(e.clone()),
        };
        let outcome = match answered {
            Err(CoreError::Unreachable { .. }) => ProviderOutcome::Complete(Vec::new()),
            answered => answered?,
        };
        let basis = reads.filter(|_| !outcome.is_interrupted()).map(|reads| {
            Box::new(Basis {
                closed: Arc::clone(q.overlay.closed()),
                reads,
                factors: provider
                    .reads_pair()
                    .then(|| Arc::clone(q.overlay.factors())),
                publication: q.overlay.publication(),
            })
        });
        Ok(self.price_slot(slot, outcome, basis))
    }

    /// Prices a provider outcome on the public (OSM) weights, rounds to
    /// minutes, attaches rank colors, the slot's blind label and `basis`.
    fn price_slot(
        &self,
        slot: usize,
        outcome: ProviderOutcome,
        basis: Option<Box<Basis>>,
    ) -> (Arc<ApproachRoutes>, bool) {
        let interrupted = outcome.is_interrupted();
        let routes = outcome.routes();
        let infos: Vec<RouteInfo> = routes
            .iter()
            .enumerate()
            .map(|(rank, r)| {
                debug_assert!(
                    vertices_along(&self.network, &r.path.edges).eq(r.path.nodes.iter().copied()),
                    "a path's nodes are the vertices its edges pass"
                );
                RouteInfo {
                    minutes: r.display_minutes(),
                    cost_ms: r.public_cost_ms,
                    polyline: r
                        .path
                        .nodes
                        .iter()
                        .map(|&n| self.network.point(n))
                        .collect(),
                    color: ROUTE_COLORS[rank % ROUTE_COLORS.len()],
                    edges: r.path.edges.clone(),
                }
            })
            .collect();
        (
            Arc::new(ApproachRoutes {
                label: self.slot_label(slot),
                routes: infos,
                basis,
            }),
            interrupted,
        )
    }

    /// Combines per-slot results (in slot order) into the response,
    /// stamped with the request's pinned epoch. Deterministic in its
    /// inputs, so assembling fanned-out slots yields exactly what the
    /// serial path produces. A response without any route
    /// ([`QueryResponse::has_route`]) has `fastest_minutes` 0.
    pub fn assemble(
        &self,
        q: &PreparedQuery,
        approaches: Vec<Arc<ApproachRoutes>>,
    ) -> QueryResponse {
        let fastest_ms = approaches
            .iter()
            .filter_map(|a| a.routes.first())
            .map(|r| r.cost_ms)
            .min();
        QueryResponse {
            source: q.snapped.source,
            target: q.snapped.target,
            fastest_minutes: fastest_ms.map_or(0, ms_to_display_minutes),
            approaches,
            truncated: false,
            degraded: false,
            lane_status: Vec::new(),
            epoch: q.epoch(),
        }
    }

    /// The blind label of one technique slot.
    pub fn slot_label(&self, slot: usize) -> char {
        LABELS[slot]
    }

    /// The technique slug of one slot — the serving layer's lane name
    /// (breaker identity, failure metrics, `lane.<slug>` failpoint site).
    /// Server-side only: responses carry blind labels, never slugs.
    pub fn slot_technique(&self, slot: usize) -> &'static str {
        ProviderKind::ALL[slot].slug()
    }

    /// Processes a query serially: match endpoints, pin the current
    /// traffic epoch, grow the request's tree pair, run all four
    /// approaches in slot order on this thread against that epoch's
    /// weights, assemble.
    ///
    /// This is the *reference path*: the parallel serving layer
    /// (`arp-serve` driving [`QueryProcessor::compute_slot_prepared`])
    /// must produce byte-identical responses, which the demo's
    /// concurrency tests check. A pair with no route at the pinned epoch
    /// answers [`DemoError::NoRoute`], as `/api/route` answers 404.
    pub fn process(&self, source: Point, target: Point) -> Result<QueryResponse, DemoError> {
        let q = self.snap(source, target)?;
        let prepared = self.prepare_substrate(self.prepare_query(q), &SearchBudget::unlimited());
        let approaches = (0..self.technique_slots())
            .map(|slot| {
                self.compute_slot_prepared(&prepared, slot, &SearchBudget::unlimited())
                    .map(|(approach, _)| approach)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let response = self.assemble(&prepared, approaches);
        if response.has_route() {
            Ok(response)
        } else {
            Err(DemoError::NoRoute)
        }
    }

    /// Unblinds a label (server-side only; never exposed through the API).
    pub fn unblind(&self, label: char) -> Option<ProviderKind> {
        let slot = LABELS.iter().position(|&l| l == label)?;
        Some(ProviderKind::ALL[slot])
    }
}

/// The ids in exactly one of two sorted, duplicate-free slices, in
/// increasing order.
fn symmetric_difference<'a>(a: &'a [u32], b: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || loop {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => (i, j) = (i + 1, j + 1),
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                return Some(x);
            }
            (_, Some(&y)) => {
                j += 1;
                return Some(y);
            }
            (Some(&x), None) => {
                i += 1;
                return Some(x);
            }
            (None, None) => return None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_citygen::{City, Scale};

    fn processor() -> QueryProcessor {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 6);
        QueryProcessor::new(g.name.clone(), g.network, 6)
    }

    fn inner_points(qp: &QueryProcessor) -> (Point, Point) {
        let bb = qp.network().bbox();
        (
            Point::new(
                bb.min_lon + bb.width_deg() * 0.3,
                bb.min_lat + bb.height_deg() * 0.6,
            ),
            Point::new(
                bb.min_lon + bb.width_deg() * 0.75,
                bb.min_lat + bb.height_deg() * 0.75,
            ),
        )
    }

    #[test]
    fn process_returns_four_blinded_approaches() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let resp = qp.process(a, b).unwrap();
        assert_eq!(resp.approaches.len(), 4);
        let labels: Vec<char> = resp.approaches.iter().map(|a| a.label).collect();
        assert_eq!(labels, vec!['A', 'B', 'C', 'D']);
        for approach in &resp.approaches {
            assert!(!approach.routes.is_empty(), "label {}", approach.label);
            for r in &approach.routes {
                assert!(r.polyline.len() >= 2);
                assert_eq!(r.minutes, ms_to_display_minutes(r.cost_ms));
            }
        }
        assert!(resp.fastest_minutes > 0);
    }

    #[test]
    fn queries_feed_the_metrics_registry() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        qp.process(a, b).unwrap();
        for technique in ["google_like", "plateaus", "dissimilarity", "penalty"] {
            let labels = [("technique", technique)];
            assert_eq!(
                qp.registry()
                    .counter_value("arp_technique_calls_total", &labels),
                1,
                "{technique}"
            );
            // The serial path prepares one shared substrate like the
            // served path, so only the lanes that search beyond it settle
            // anything of their own.
            let settled = qp
                .registry()
                .counter_value("arp_search_settled_nodes_total", &labels);
            let searches_itself = matches!(technique, "google_like" | "penalty");
            assert_eq!(settled > 0, searches_itself, "{technique}");
        }
        assert_eq!(
            qp.registry()
                .counter_value("arp_substrate_builds_total", &[]),
            1
        );
    }

    #[test]
    fn out_of_area_click_rejected() {
        let qp = processor();
        let (a, _) = inner_points(&qp);
        let far = Point::new(100.0, 0.0);
        assert!(matches!(
            qp.process(far, a),
            Err(DemoError::OutOfArea { which: "source" })
        ));
        assert!(matches!(
            qp.process(a, far),
            Err(DemoError::OutOfArea { which: "target" })
        ));
    }

    #[test]
    fn same_location_rejected() {
        let qp = processor();
        let (a, _) = inner_points(&qp);
        assert!(matches!(qp.process(a, a), Err(DemoError::SameLocation)));
    }

    #[test]
    fn routes_within_each_approach_are_distinct() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let resp = qp.process(a, b).unwrap();
        for approach in &resp.approaches {
            for i in 0..approach.routes.len() {
                for j in i + 1..approach.routes.len() {
                    assert_ne!(
                        approach.routes[i].polyline, approach.routes[j].polyline,
                        "label {} ranks {i},{j}",
                        approach.label
                    );
                }
            }
        }
    }

    #[test]
    fn lane_table_is_the_paper_assignment() {
        // Slot i is ProviderKind::ALL[i] under LABELS[i] (A: Google Maps,
        // B: Plateaus, C: Dissimilarity, D: Penalty), and it runs that
        // provider: computing it alone calls that technique only.
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let prepared = qp.prepare_substrate(
            qp.prepare_query(qp.snap(a, b).unwrap()),
            &SearchBudget::unlimited(),
        );
        let calls = |kind: ProviderKind| {
            qp.registry()
                .counter_value("arp_technique_calls_total", &[("technique", kind.slug())])
        };
        assert_eq!(qp.technique_slots(), ProviderKind::ALL.len());
        for (slot, kind) in ProviderKind::ALL.into_iter().enumerate() {
            assert_eq!(qp.slot_technique(slot), kind.slug());
            assert_eq!(qp.slot_label(slot), LABELS[slot]);
            assert_eq!(qp.unblind(LABELS[slot]), Some(kind));
            let before = ProviderKind::ALL.map(calls);
            let (approach, _) = qp
                .compute_slot_prepared(&prepared, slot, &SearchBudget::unlimited())
                .unwrap();
            assert_eq!(approach.label, LABELS[slot]);
            let after = ProviderKind::ALL.map(calls);
            for (other, (b, a)) in before.iter().zip(after).enumerate() {
                assert_eq!(a - b, u64::from(other == slot), "slot {slot}, {kind}");
            }
        }
        assert_eq!(qp.unblind('E'), None);
    }

    #[test]
    fn symmetric_difference_walks_both_sorted_sets() {
        let diff = |a: &[u32], b: &[u32]| symmetric_difference(a, b).collect::<Vec<_>>();
        assert_eq!(diff(&[1, 3, 5, 9], &[2, 3, 9, 11]), [1, 2, 5, 11]);
        assert_eq!(diff(&[], &[4, 7]), [4, 7]);
        assert_eq!(diff(&[4, 7], &[]), [4, 7]);
        assert!(diff(&[2, 8], &[2, 8]).is_empty());
    }

    #[test]
    fn colors_follow_rank() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let resp = qp.process(a, b).unwrap();
        for approach in &resp.approaches {
            for (rank, r) in approach.routes.iter().enumerate() {
                assert_eq!(r.color, ROUTE_COLORS[rank % ROUTE_COLORS.len()]);
            }
        }
    }
}
