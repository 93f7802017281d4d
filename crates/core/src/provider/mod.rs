//! Route providers: the four approaches compared by the user study.
//!
//! A [`AlternativesProvider`] answers an alternative-routes query with a
//! list of [`Route`]s whose travel times are always priced on the *public*
//! (OpenStreetMap) weights — mirroring the paper's query processor, which
//! displays OSM-derived travel times for every approach including Google
//! Maps (§3).

pub mod google_like;

use std::sync::Arc;

use arp_obs::Registry;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{Weight, UNIT_SCALE};

use crate::budget::SearchBudget;
use crate::dissimilarity::{dissimilarity_alternatives_from_trees, DissimilarityOptions};
use crate::error::CoreError;
use crate::landmarks::Landmarks;
use crate::metrics::{Funnel, TechniqueMetrics};
use crate::path::Path;
use crate::penalty::{penalty_alternatives_from_base, PenaltyOptions};
use crate::plateau::{plateau_alternatives_from_trees, PlateauOptions};
use crate::query::{AltQuery, Route};
use crate::reads::{CellMap, ReadCells};
use crate::search::SearchSpace;
use crate::substrate::{SearchSubstrate, Trip};

pub use google_like::{GoogleLikeProvider, TrafficModel};

/// Identity of an approach, in the paper's A–D presentation order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProviderKind {
    /// A commercial-style provider optimizing on its own (different) data —
    /// the stand-in for Google Maps.
    GoogleLike,
    /// The Plateaus technique (Choice Routing).
    Plateaus,
    /// The Dissimilarity technique (SSVP-D+).
    Dissimilarity,
    /// The Penalty technique.
    Penalty,
}

impl ProviderKind {
    /// All four approaches in the paper's fixed order
    /// (A: Google Maps, B: Plateaus, C: Dissimilarity, D: Penalty).
    pub const ALL: [ProviderKind; 4] = [
        ProviderKind::GoogleLike,
        ProviderKind::Plateaus,
        ProviderKind::Dissimilarity,
        ProviderKind::Penalty,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ProviderKind::GoogleLike => "Google Maps",
            ProviderKind::Plateaus => "Plateaus",
            ProviderKind::Dissimilarity => "Dissimilarity",
            ProviderKind::Penalty => "Penalty",
        }
    }

    /// Stable lowercase identifier used as the `technique` metric label.
    pub fn slug(self) -> &'static str {
        match self {
            ProviderKind::GoogleLike => "google_like",
            ProviderKind::Plateaus => "plateaus",
            ProviderKind::Dissimilarity => "dissimilarity",
            ProviderKind::Penalty => "penalty",
        }
    }
}

impl std::fmt::Display for ProviderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a budgeted provider call: either the technique converged, or
/// its [`SearchBudget`] tripped and these are the routes admitted up to
/// that point (an *anytime* partial, possibly empty).
#[derive(Clone, Debug)]
pub enum ProviderOutcome {
    /// The technique ran to completion.
    Complete(Vec<Route>),
    /// The budget tripped (cancellation, deadline or expansion cap)
    /// before the technique converged.
    Interrupted {
        /// Routes admitted before the trip, in the technique's usual
        /// admission order.
        partial: Vec<Route>,
    },
}

impl ProviderOutcome {
    /// The routes, whether or not the call converged.
    pub fn routes(self) -> Vec<Route> {
        match self {
            ProviderOutcome::Complete(routes) => routes,
            ProviderOutcome::Interrupted { partial } => partial,
        }
    }

    /// Whether the call was cut short by its budget.
    pub fn is_interrupted(&self) -> bool {
        matches!(self, ProviderOutcome::Interrupted { .. })
    }
}

/// A technique that answers alternative-route queries.
pub trait AlternativesProvider: Send + Sync {
    /// Which approach this is.
    fn kind(&self) -> ProviderKind;

    /// Whether [`AlternativesProvider::answer`] reads the request's tree
    /// pair on the public column. A technique that does not (one that
    /// searches its own data, as the Google-like provider does) reads
    /// only the [`Trip`], so it can run before any pair exists, and
    /// nobody grows a public pair for it alone.
    fn reads_pair(&self) -> bool {
        true
    }

    /// Computes up to `query.k` routes from `source` to `target` with no
    /// budget: grows the call's tree pair on `public_weights`
    /// ([`SearchSubstrate::build`], with the empty landmark table: a
    /// one-shot call has no table to amortize) when the technique reads
    /// one, and
    /// hands the trip (and the pair) to [`AlternativesProvider::answer`].
    /// Failures to grow it (`source == target`, an unreachable target)
    /// are the call's error.
    fn alternatives(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
    ) -> Result<Vec<Route>, CoreError> {
        let trip = Trip {
            source,
            target,
            query: *query,
        };
        let unlimited = SearchBudget::unlimited();
        if !self.reads_pair() {
            return self
                .answer(net, public_weights, &trip, None, &unlimited)
                .map(ProviderOutcome::routes);
        }
        let mut ws = SearchSpace::new(net);
        let unpruned = Arc::new(Landmarks::empty());
        let pair = SearchSubstrate::build(
            &mut ws,
            net,
            public_weights,
            &unpruned,
            UNIT_SCALE,
            source,
            target,
            query,
        )
        .map_err(|(e, _)| e)?;
        self.answer(net, public_weights, pair.trip(), Some(&pair), &unlimited)
            .map(ProviderOutcome::routes)
    }

    /// Answers `trip` under a cooperative [`SearchBudget`]: every
    /// internal search polls `budget`, and a trip mid-call yields
    /// [`ProviderOutcome::Interrupted`] carrying the routes admitted so
    /// far rather than an error.
    ///
    /// `public_weights` are the OSM-derived travel times used for display
    /// — the column `pair` was grown on; a provider may optimize on
    /// different internal data, but the returned routes are always priced
    /// on the public weights.
    ///
    /// `pair` is the request's one [`SearchSubstrate`], grown for `trip`:
    /// Plateaus and Dissimilarity sweep its trees, Penalty starts from its
    /// base route and prunes its re-searches by its labels. A technique
    /// that [reads the pair](AlternativesProvider::reads_pair) and is
    /// handed none fails with [`CoreError::MissingPair`]. The Google-like
    /// provider searches *private* weights, for which the public trees
    /// would be wrong: it reads only `trip` and grows its own pair on its
    /// own column, so it is handed none.
    fn answer(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError>;

    /// [`AlternativesProvider::answer`], with the cells of `cells` that
    /// its own searches read ([`crate::reads`]) when the provider records
    /// them and the call ran to its end: a [`ProviderOutcome::Complete`]
    /// answer, or a [`CoreError::Unreachable`] that a complete search
    /// proved. The pair it is handed is not its own: whoever grew the pair
    /// records what the pair's searches read. A run under a column that
    /// differs from `public_weights` only on edges with no endpoint in a
    /// cell the call and its pair read is the same run, with the same
    /// answer. An interrupted or failed call reads `None`, and so does
    /// the default, which records nothing: a call that reads `None` can
    /// only be recomputed.
    fn answer_reading(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
        cells: &Arc<CellMap>,
    ) -> (Result<ProviderOutcome, CoreError>, Option<ReadCells>) {
        let _ = cells;
        let answer = self.answer(net, public_weights, trip, pair, budget);
        (answer, None)
    }
}

/// What a call that ran no search of its own read: nothing, once it ran to
/// its end ([`AlternativesProvider::answer_reading`]).
fn searched_nothing(
    answer: Result<ProviderOutcome, CoreError>,
    cells: &Arc<CellMap>,
) -> (Result<ProviderOutcome, CoreError>, Option<ReadCells>) {
    let ended = matches!(
        answer,
        Ok(ProviderOutcome::Complete(_)) | Err(CoreError::Unreachable { .. })
    );
    let reads = ended.then(|| ReadCells::new(cells));
    (answer, reads)
}

/// The pair a pair-reading technique was handed for `trip`, or
/// [`CoreError::MissingPair`] — a caller that skipped the build.
fn handed<'a>(
    trip: &Trip,
    pair: Option<&'a SearchSubstrate>,
) -> Result<&'a SearchSubstrate, CoreError> {
    debug_assert!(
        pair.is_some(),
        "a pair-reading technique was handed no pair"
    );
    let pair = pair.ok_or(CoreError::MissingPair)?;
    // By address too: a NaN penalty factor is unequal to itself.
    debug_assert!(
        std::ptr::eq(pair.trip(), trip) || pair.trip() == trip,
        "the pair answers another trip"
    );
    Ok(pair)
}

/// The shared prologue and epilogue of every provider call: count and
/// time the call, run `technique`, record the [`Funnel`] it filled, then
/// count the error — or price the accepted paths on the public weights
/// and wrap them in the call's outcome (interrupted when the funnel says
/// so), recording the admission and interruption counters.
fn observed_call(
    metrics: &TechniqueMetrics,
    public_weights: &[Weight],
    technique: impl FnOnce(&mut Funnel) -> Result<Vec<Path>, CoreError>,
) -> Result<ProviderOutcome, CoreError> {
    let _timer = metrics.begin_call();
    let mut funnel = Funnel::default();
    let result = technique(&mut funnel);
    metrics.record(&funnel);
    let paths = result.inspect_err(|_| metrics.errors.inc())?;
    metrics.admitted.add(paths.len() as u64);
    let routes: Vec<Route> = paths
        .into_iter()
        .map(|p| Route::new(p, public_weights))
        .collect();
    Ok(if funnel.interrupted {
        metrics.interrupted.inc();
        ProviderOutcome::Interrupted { partial: routes }
    } else {
        ProviderOutcome::Complete(routes)
    })
}

/// A pooled workspace reporting into the technique's search counters and
/// polling the call's budget, whoever used its label store last.
fn lane_workspace(
    metrics: &TechniqueMetrics,
    net: &RoadNetwork,
    budget: &SearchBudget,
) -> SearchSpace {
    SearchSpace::pooled(net, budget.clone(), metrics.search().clone())
}

/// The Plateaus provider.
#[derive(Clone, Debug)]
pub struct PlateauProvider {
    /// Algorithm options.
    pub options: PlateauOptions,
    metrics: TechniqueMetrics,
}

impl PlateauProvider {
    /// The provider with default options, its per-technique metrics
    /// resolved from `registry` (label `technique="plateaus"`).
    pub fn new(registry: &Registry) -> Self {
        PlateauProvider {
            options: PlateauOptions::default(),
            metrics: TechniqueMetrics::new(registry, ProviderKind::Plateaus.slug()),
        }
    }
}

impl AlternativesProvider for PlateauProvider {
    fn kind(&self) -> ProviderKind {
        ProviderKind::Plateaus
    }

    fn answer(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError> {
        observed_call(&self.metrics, public_weights, |funnel| {
            let pair = handed(trip, pair)?;
            plateau_alternatives_from_trees(
                net,
                public_weights,
                pair.query(),
                &self.options,
                funnel,
                pair.forward(),
                pair.backward(),
                budget,
            )
        })
    }

    /// Plateaus joins the pair's trees and searches nothing of its own.
    fn answer_reading(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
        cells: &Arc<CellMap>,
    ) -> (Result<ProviderOutcome, CoreError>, Option<ReadCells>) {
        let answer = self.answer(net, public_weights, trip, pair, budget);
        searched_nothing(answer, cells)
    }
}

/// The Penalty provider.
#[derive(Clone, Debug)]
pub struct PenaltyProvider {
    /// Algorithm options.
    pub options: PenaltyOptions,
    metrics: TechniqueMetrics,
}

impl PenaltyProvider {
    /// The provider with default options, its per-technique metrics
    /// resolved from `registry` (label `technique="penalty"`).
    pub fn new(registry: &Registry) -> Self {
        PenaltyProvider {
            options: PenaltyOptions::default(),
            metrics: TechniqueMetrics::new(registry, ProviderKind::Penalty.slug()),
        }
    }
}

impl AlternativesProvider for PenaltyProvider {
    fn kind(&self) -> ProviderKind {
        ProviderKind::Penalty
    }

    fn answer(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError> {
        self.rounds(net, public_weights, trip, pair, budget, None).0
    }

    /// Penalty's rounds run in one workspace that records the cells they
    /// settle. They read `public_weights` edge by edge as they settle a
    /// tail, and its penalty raises an edge of a found route (and its
    /// reverse), both with an endpoint on that route; the base route and
    /// the via-walks that bound each round are the pair's.
    fn answer_reading(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
        cells: &Arc<CellMap>,
    ) -> (Result<ProviderOutcome, CoreError>, Option<ReadCells>) {
        self.rounds(net, public_weights, trip, pair, budget, Some(cells))
    }
}

impl PenaltyProvider {
    /// Answers `trip`, recording in `cells` what the rounds read when
    /// asked to and every round ran.
    fn rounds(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
        cells: Option<&Arc<CellMap>>,
    ) -> (Result<ProviderOutcome, CoreError>, Option<ReadCells>) {
        let mut reads = None;
        let answer = observed_call(&self.metrics, public_weights, |funnel| {
            let pair = handed(trip, pair)?;
            // Iteration zero is the pair's base route — never a search of
            // its own. The penalized re-searches run here, under this
            // call's budget, pruned by the pair's labels.
            let mut ws = lane_workspace(&self.metrics, net, budget);
            if let Some(cells) = cells {
                ws.record_reads(cells);
            }
            let paths = penalty_alternatives_from_base(
                &mut ws,
                net,
                public_weights,
                pair,
                &self.options,
                funnel,
            )?;
            if !funnel.interrupted {
                reads = ws.take_reads();
            }
            Ok(paths)
        });
        (answer, reads)
    }
}

/// The Dissimilarity (SSVP-D+) provider.
#[derive(Clone, Debug)]
pub struct DissimilarityProvider {
    /// Algorithm options.
    pub options: DissimilarityOptions,
    metrics: TechniqueMetrics,
}

impl DissimilarityProvider {
    /// The provider with default options, its per-technique metrics
    /// resolved from `registry` (label `technique="dissimilarity"`).
    pub fn new(registry: &Registry) -> Self {
        DissimilarityProvider {
            options: DissimilarityOptions::default(),
            metrics: TechniqueMetrics::new(registry, ProviderKind::Dissimilarity.slug()),
        }
    }
}

impl AlternativesProvider for DissimilarityProvider {
    fn kind(&self) -> ProviderKind {
        ProviderKind::Dissimilarity
    }

    fn answer(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError> {
        observed_call(&self.metrics, public_weights, |funnel| {
            let pair = handed(trip, pair)?;
            dissimilarity_alternatives_from_trees(
                net,
                public_weights,
                pair.query(),
                &self.options,
                funnel,
                pair.forward(),
                pair.backward(),
                budget,
            )
        })
    }

    /// SSVP-D+ sweeps the pair's via-vertices and searches nothing of its
    /// own.
    fn answer_reading(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        trip: &Trip,
        pair: Option<&SearchSubstrate>,
        budget: &SearchBudget,
        cells: &Arc<CellMap>,
    ) -> (Result<ProviderOutcome, CoreError>, Option<ReadCells>) {
        let answer = self.answer(net, public_weights, trip, pair, budget);
        searched_nothing(answer, cells)
    }
}

/// Builds the study's four providers in A–D order, recording nothing:
/// [`instrumented_providers`] on a disabled registry.
pub fn standard_providers(net: &RoadNetwork, seed: u64) -> Vec<Box<dyn AlternativesProvider>> {
    instrumented_providers(net, seed, &Registry::disabled())
}

/// Builds the study's four providers in A–D order, every provider
/// recording per-call metrics (calls, latency, candidate funnel, search
/// counters) into `registry` under its `technique` label. `seed`
/// parameterizes the Google-like provider's private traffic data.
pub fn instrumented_providers(
    net: &RoadNetwork,
    seed: u64,
    registry: &Registry,
) -> Vec<Box<dyn AlternativesProvider>> {
    let google = GoogleLikeProvider::with_model(net, TrafficModel::new(seed), registry);
    vec![
        Box::new(google),
        Box::new(PlateauProvider::new(registry)),
        Box::new(DissimilarityProvider::new(registry)),
        Box::new(PenaltyProvider::new(registry)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;

    /// The tree pair of `query` between `s` and `t` on `net`'s weights,
    /// grown in a fresh, unbudgeted workspace.
    fn pair_of(net: &RoadNetwork, (s, t): (u32, u32), query: &AltQuery) -> SearchSubstrate {
        let mut ws = SearchSpace::new(net);
        let unpruned = &crate::fixtures::unpruned();
        SearchSubstrate::build(
            &mut ws,
            net,
            net.weights(),
            unpruned,
            UNIT_SCALE,
            NodeId(s),
            NodeId(t),
            query,
        )
        .unwrap()
    }

    #[test]
    fn provider_kinds_are_in_paper_order() {
        assert_eq!(ProviderKind::ALL[0].name(), "Google Maps");
        assert_eq!(ProviderKind::ALL[1].name(), "Plateaus");
        assert_eq!(ProviderKind::ALL[2].name(), "Dissimilarity");
        assert_eq!(ProviderKind::ALL[3].name(), "Penalty");
    }

    #[test]
    fn all_four_providers_answer_queries() {
        let net = grid(8);
        let providers = standard_providers(&net, 42);
        assert_eq!(providers.len(), 4);
        let q = AltQuery::paper();
        for p in &providers {
            let routes = p
                .alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q)
                .unwrap_or_else(|e| panic!("{} failed: {e}", p.kind()));
            assert!(!routes.is_empty(), "{} returned nothing", p.kind());
            assert!(routes.len() <= q.k);
            for r in &routes {
                assert!(r.path.validate(&net));
                assert_eq!(r.public_cost_ms, r.path.cost_under(net.weights()));
            }
        }
    }

    #[test]
    fn instrumented_providers_record_calls_and_search_work() {
        // 81 vertices: no other test lends label stores of this size.
        let net = grid(9);
        let pair = pair_of(&net, (0, 80), &AltQuery::paper());
        let budget = SearchBudget::unlimited();
        let answer = |provider: &dyn AlternativesProvider| {
            provider
                .answer(&net, net.weights(), pair.trip(), Some(&pair), &budget)
                .unwrap()
        };
        let reg = Registry::new();
        let providers = instrumented_providers(&net, 42, &reg);
        // Penalty first: a pool lends the store returned last, so
        // Google-like's lane reuses the one Penalty's lane released.
        for lane in [3, 0, 1, 2] {
            answer(providers[lane].as_ref());
        }
        for (lane, kind) in ProviderKind::ALL.into_iter().enumerate() {
            let labels = &[("technique", kind.slug())][..];
            // Each technique's search counters are its own: what it
            // records when it runs alone.
            let alone = Registry::new();
            answer(instrumented_providers(&net, 42, &alone)[lane].as_ref());
            for name in [
                "arp_search_queries_total",
                "arp_search_settled_nodes_total",
                "arp_search_heap_pops_total",
                "arp_search_relaxed_edges_total",
            ] {
                let (shared, own) = (
                    reg.counter_value(name, labels),
                    alone.counter_value(name, labels),
                );
                assert_eq!(shared, own, "{kind} {name}");
            }
            assert_eq!(
                reg.counter_value("arp_technique_calls_total", labels),
                1,
                "{kind}"
            );
            // The tree-pair techniques sweep the pair they are handed;
            // only Google-like (its private pair, its probes) and Penalty
            // (its re-searches) search for themselves.
            let searches_itself = matches!(kind, ProviderKind::GoogleLike | ProviderKind::Penalty);
            for name in [
                "arp_search_settled_nodes_total",
                "arp_search_heap_pops_total",
            ] {
                let work = reg.counter_value(name, labels);
                assert_eq!(work > 0, searches_itself, "{kind} {name}: {work}");
            }
            assert_eq!(reg.counter_value("arp_technique_errors_total", labels), 0);
        }
        // Technique-specific internals fired too.
        assert!(reg.counter_value("arp_penalty_iterations_total", &[("technique", "penalty")]) > 0);
        assert!(reg.counter_value("arp_plateau_found_total", &[("technique", "plateaus")]) > 0);
        // The whole store renders as Prometheus text.
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE arp_technique_latency_ms histogram"));
        assert!(text.contains(r#"arp_technique_calls_total{technique="penalty"} 1"#));
    }

    #[test]
    fn uninstrumented_providers_record_nothing() {
        let net = grid(6);
        let providers = standard_providers(&net, 7);
        let q = AltQuery::paper();
        for p in &providers {
            p.alternatives(&net, net.weights(), NodeId(0), NodeId(35), &q)
                .unwrap();
        }
        // Nothing to assert against a registry — the point is simply that
        // the detached path works and stays panic-free.
    }

    #[test]
    fn interrupted_calls_count_as_interrupted_not_errors() {
        let net = grid(8);
        let reg = Registry::new();
        let providers = instrumented_providers(&net, 42, &reg);
        let pair = pair_of(&net, (0, 63), &AltQuery::paper());
        for p in &providers {
            // A pre-cancelled budget: every provider must return an
            // Interrupted outcome (with whatever partial it has), not Err.
            let budget = SearchBudget::new();
            budget.cancel();
            let outcome = p
                .answer(&net, net.weights(), pair.trip(), Some(&pair), &budget)
                .unwrap_or_else(|e| panic!("{} errored on cancellation: {e}", p.kind()));
            assert!(outcome.is_interrupted(), "{}", p.kind());
            let partial = outcome.routes();
            if p.kind() == ProviderKind::Penalty {
                // Handed the pair, Penalty's base route is proven before
                // its first poll.
                assert_eq!(partial.len(), 1);
                assert_eq!(partial[0].path.edges, pair.base_route().edges);
            } else {
                assert!(partial.is_empty(), "{}: nothing was admitted", p.kind());
            }
        }
        for kind in ProviderKind::ALL {
            let labels = &[("technique", kind.slug())][..];
            assert_eq!(
                reg.counter_value("arp_technique_interrupted_total", labels),
                1,
                "{kind}"
            );
            assert_eq!(
                reg.counter_value("arp_technique_errors_total", labels),
                0,
                "{kind}"
            );
        }
    }

    /// A call that ran to its end reports what its own searches read.
    /// With what its pair's searches read, the cells hold an endpoint of
    /// every edge of its routes, and closing every edge outside them
    /// changes no route. An interrupted call reports nothing.
    #[test]
    fn a_call_that_ran_to_its_end_reports_what_it_read() {
        use arp_roadnet::weight::CLOSED;

        let net = grid(12);
        let cells = Arc::new(CellMap::new(&net));
        let (query, table) = (
            AltQuery::paper(),
            Arc::new(Landmarks::build(&net, net.weights())),
        );
        let recorded = |weights: &[Weight]| {
            let mut ws = SearchSpace::new(&net);
            ws.record_reads(&cells);
            let (s, t) = (NodeId(26), NodeId(94));
            let pair =
                SearchSubstrate::build(&mut ws, &net, weights, &table, UNIT_SCALE, s, t, &query);
            (
                pair.unwrap(),
                ws.take_reads().expect("a recording workspace"),
            )
        };
        let (pair, pair_reads) = recorded(net.weights());
        let unlimited = SearchBudget::unlimited();
        let cancelled = SearchBudget::new();
        cancelled.cancel();
        let edges = |routes: Vec<Route>| -> Vec<Vec<_>> {
            routes.into_iter().map(|r| r.path.edges).collect()
        };
        for p in standard_providers(&net, 42) {
            let handed = p.reads_pair().then_some(&pair);
            let (answer, own) =
                p.answer_reading(&net, net.weights(), pair.trip(), handed, &unlimited, &cells);
            let mut reads = own.unwrap_or_else(|| panic!("{}: no reads", p.kind()));
            if p.reads_pair() {
                reads.union_with(&pair_reads);
            }
            let routes = answer.unwrap().routes();
            assert!(!routes.is_empty(), "{}", p.kind());
            for route in &routes {
                assert!(route.path.edges.iter().all(|&e| reads.reads_edge(&net, e)));
            }
            let mut walled = net.weights().to_vec();
            let unread: Vec<_> = net
                .edges()
                .filter(|&e| !reads.reads_edge(&net, e))
                .collect();
            assert!(!unread.is_empty(), "{}: the call read every cell", p.kind());
            for e in unread {
                walled[e.index()] = CLOSED;
            }
            let (again, _) = recorded(&walled);
            let handed = p.reads_pair().then_some(&again);
            let rerun = p.answer(&net, &walled, again.trip(), handed, &unlimited);
            assert_eq!(
                edges(rerun.unwrap().routes()),
                edges(routes),
                "{}",
                p.kind()
            );

            let handed = p.reads_pair().then_some(&pair);
            let (answer, reads) =
                p.answer_reading(&net, net.weights(), pair.trip(), handed, &cancelled, &cells);
            assert!(answer.unwrap().is_interrupted(), "{}", p.kind());
            assert!(reads.is_none(), "{}", p.kind());
        }
    }

    #[test]
    fn budgeted_outcome_matches_unbudgeted_routes_when_unlimited() {
        let net = grid(8);
        let q = AltQuery::paper();
        let pair = pair_of(&net, (0, 63), &q);
        for p in standard_providers(&net, 42) {
            let direct = p
                .alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q)
                .unwrap();
            let outcome = p
                .answer(
                    &net,
                    net.weights(),
                    pair.trip(),
                    Some(&pair),
                    &SearchBudget::unlimited(),
                )
                .unwrap();
            assert!(!outcome.is_interrupted());
            let routes = outcome.routes();
            assert_eq!(routes.len(), direct.len(), "{}", p.kind());
            for (a, b) in routes.iter().zip(direct.iter()) {
                assert_eq!(a.path.edges, b.path.edges, "{}", p.kind());
            }
        }
    }

    #[test]
    fn public_costs_bound_by_stretch_for_local_techniques() {
        let net = grid(8);
        let q = AltQuery::paper();
        let best = crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(63))
            .unwrap()
            .cost_ms;
        for p in standard_providers(&net, 1) {
            if p.kind() == ProviderKind::GoogleLike {
                continue; // Google optimizes on different data; see Fig. 4.
            }
            let routes = p
                .alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q)
                .unwrap();
            for r in &routes {
                assert!(
                    r.public_cost_ms <= q.cost_bound(best),
                    "{}: {} > bound",
                    p.kind(),
                    r.public_cost_ms
                );
            }
        }
    }
}
