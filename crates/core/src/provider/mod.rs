//! Route providers: the four approaches compared by the user study.
//!
//! A [`AlternativesProvider`] answers an alternative-routes query with a
//! list of [`Route`]s whose travel times are always priced on the *public*
//! (OpenStreetMap) weights — mirroring the paper's query processor, which
//! displays OSM-derived travel times for every approach including Google
//! Maps (§3).

pub mod google_like;

use arp_obs::Registry;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::Weight;

use crate::budget::SearchBudget;
use crate::dissimilarity::{
    dissimilarity_alternatives_from_trees, dissimilarity_alternatives_observed,
    DissimilarityOptions,
};
use crate::error::CoreError;
use crate::metrics::TechniqueMetrics;
use crate::path::Path;
use crate::penalty::{
    penalty_alternatives_from_base, penalty_alternatives_observed, PenaltyOptions,
};
use crate::plateau::{
    plateau_alternatives_from_trees, plateau_alternatives_observed, PlateauOptions,
};
use crate::query::{AltQuery, Route};
use crate::search::SearchSpace;
use crate::substrate::ProviderContext;

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

    /// Computes up to `query.k` routes from `source` to `target`.
    ///
    /// `public_weights` are the OSM-derived travel times used for display;
    /// a provider may optimize on different internal data, but the returned
    /// routes are always priced on the public weights.
    fn alternatives(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
    ) -> Result<Vec<Route>, CoreError> {
        self.alternatives_with_budget(
            net,
            public_weights,
            source,
            target,
            query,
            &SearchBudget::unlimited(),
        )
        .map(|outcome| outcome.routes())
    }

    /// Like [`AlternativesProvider::alternatives`] but under a cooperative
    /// [`SearchBudget`]: every internal search polls `budget`, and a trip
    /// mid-call yields [`ProviderOutcome::Interrupted`] carrying the
    /// routes admitted so far rather than an error.
    fn alternatives_with_budget(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError>;

    /// Like [`AlternativesProvider::alternatives_with_budget`], but
    /// handed an optional per-request [`ProviderContext`] carrying
    /// shared search artifacts
    /// ([`crate::substrate::SearchSubstrate`]).
    ///
    /// Providers that can reuse the substrate skip the corresponding
    /// searches — Plateaus and Dissimilarity take the tree pair, Penalty
    /// takes the base route. The Google-like provider keeps the default:
    /// its search runs on *private* weights, so the substrate's trees
    /// (built on the public overlay) would be wrong for it; only the
    /// shared OSM re-costing pass (pricing via [`Route::new`]) applies.
    /// The default — and every provider handed an empty or mismatched
    /// context — delegates to the self-computing path, so the routes
    /// returned are byte-identical either way.
    #[allow(clippy::too_many_arguments)]
    fn alternatives_in_context(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
        ctx: &ProviderContext<'_>,
    ) -> Result<ProviderOutcome, CoreError> {
        let _ = ctx;
        self.alternatives_with_budget(net, public_weights, source, target, query, budget)
    }
}

/// Prices accepted paths on the public weights and wraps them in the
/// call's outcome, recording the admission and interruption counters —
/// the shared epilogue of every local provider, on both the
/// self-computing and the substrate-fed path.
fn price_outcome(
    metrics: &TechniqueMetrics,
    public_weights: &[Weight],
    paths: Vec<Path>,
    interrupted: bool,
) -> ProviderOutcome {
    metrics.admitted.add(paths.len() as u64);
    let routes: Vec<Route> = paths
        .into_iter()
        .map(|p| Route::new(p, public_weights))
        .collect();
    if interrupted {
        metrics.interrupted.inc();
        ProviderOutcome::Interrupted { partial: routes }
    } else {
        ProviderOutcome::Complete(routes)
    }
}

/// The shared prologue and epilogue of every provider call, on both the
/// self-computing and the substrate-fed path: count and time the call,
/// run `technique`, `record` its funnel counters, then count the error
/// or price the accepted paths ([`price_outcome`]).
fn observed_call<S: Default>(
    metrics: &TechniqueMetrics,
    public_weights: &[Weight],
    record: fn(&TechniqueMetrics, &S),
    interrupted: fn(&S) -> bool,
    technique: impl FnOnce(&mut S) -> Result<Vec<Path>, CoreError>,
) -> Result<ProviderOutcome, CoreError> {
    let _timer = metrics.begin_call();
    let mut stats = S::default();
    let result = technique(&mut stats);
    record(metrics, &stats);
    match result {
        Ok(paths) => Ok(price_outcome(
            metrics,
            public_weights,
            paths,
            interrupted(&stats),
        )),
        Err(e) => {
            metrics.errors.inc();
            Err(e)
        }
    }
}

/// A fresh workspace reporting into the technique's search counters and
/// polling the call's budget.
fn lane_workspace(
    metrics: &TechniqueMetrics,
    net: &RoadNetwork,
    budget: &SearchBudget,
) -> SearchSpace {
    let mut ws = SearchSpace::new(net);
    ws.set_metrics(metrics.search().clone());
    ws.set_budget(budget.clone());
    ws
}

/// The Plateaus provider.
#[derive(Clone, Debug, Default)]
pub struct PlateauProvider {
    /// Algorithm options.
    pub options: PlateauOptions,
    metrics: TechniqueMetrics,
}

impl PlateauProvider {
    /// Attaches per-technique metrics resolved from `registry`
    /// (label `technique="plateaus"`).
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = TechniqueMetrics::new(registry, ProviderKind::Plateaus.slug());
        self
    }
}

impl AlternativesProvider for PlateauProvider {
    fn kind(&self) -> ProviderKind {
        ProviderKind::Plateaus
    }

    fn alternatives_with_budget(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError> {
        observed_call(
            &self.metrics,
            public_weights,
            TechniqueMetrics::record_plateau,
            |s| s.interrupted,
            |stats| {
                let mut ws = lane_workspace(&self.metrics, net, budget);
                plateau_alternatives_observed(
                    &mut ws,
                    net,
                    public_weights,
                    source,
                    target,
                    query,
                    &self.options,
                    stats,
                )
            },
        )
    }

    fn alternatives_in_context(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
        ctx: &ProviderContext<'_>,
    ) -> Result<ProviderOutcome, CoreError> {
        // Reuse the substrate's forward/backward tree pair; a missing or
        // mismatched substrate falls back to growing our own.
        let Some(sub) = ctx.substrate_for(net, source, target) else {
            return self.alternatives_with_budget(
                net,
                public_weights,
                source,
                target,
                query,
                budget,
            );
        };
        observed_call(
            &self.metrics,
            public_weights,
            TechniqueMetrics::record_plateau,
            |s| s.interrupted,
            |stats| {
                plateau_alternatives_from_trees(
                    net,
                    public_weights,
                    query,
                    &self.options,
                    stats,
                    sub.forward(),
                    sub.backward(),
                    budget,
                )
            },
        )
    }
}

/// The Penalty provider.
#[derive(Clone, Debug, Default)]
pub struct PenaltyProvider {
    /// Algorithm options.
    pub options: PenaltyOptions,
    metrics: TechniqueMetrics,
}

impl PenaltyProvider {
    /// Attaches per-technique metrics resolved from `registry`
    /// (label `technique="penalty"`).
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = TechniqueMetrics::new(registry, ProviderKind::Penalty.slug());
        self
    }
}

impl AlternativesProvider for PenaltyProvider {
    fn kind(&self) -> ProviderKind {
        ProviderKind::Penalty
    }

    fn alternatives_with_budget(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError> {
        observed_call(
            &self.metrics,
            public_weights,
            TechniqueMetrics::record_penalty,
            |s| s.interrupted,
            |stats| {
                let mut ws = lane_workspace(&self.metrics, net, budget);
                penalty_alternatives_observed(
                    &mut ws,
                    net,
                    public_weights,
                    source,
                    target,
                    query,
                    &self.options,
                    stats,
                )
            },
        )
    }

    fn alternatives_in_context(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
        ctx: &ProviderContext<'_>,
    ) -> Result<ProviderOutcome, CoreError> {
        // Reuse the substrate's base optimal route as iteration zero; the
        // penalized re-searches still run here, under this call's budget.
        let Some(sub) = ctx.substrate_for(net, source, target) else {
            return self.alternatives_with_budget(
                net,
                public_weights,
                source,
                target,
                query,
                budget,
            );
        };
        observed_call(
            &self.metrics,
            public_weights,
            TechniqueMetrics::record_penalty,
            |s| s.interrupted,
            |stats| {
                let mut ws = lane_workspace(&self.metrics, net, budget);
                penalty_alternatives_from_base(
                    &mut ws,
                    net,
                    public_weights,
                    source,
                    target,
                    query,
                    &self.options,
                    stats,
                    sub.base_route(),
                )
            },
        )
    }
}

/// The Dissimilarity (SSVP-D+) provider.
#[derive(Clone, Debug, Default)]
pub struct DissimilarityProvider {
    /// Algorithm options.
    pub options: DissimilarityOptions,
    metrics: TechniqueMetrics,
}

impl DissimilarityProvider {
    /// Attaches per-technique metrics resolved from `registry`
    /// (label `technique="dissimilarity"`).
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = TechniqueMetrics::new(registry, ProviderKind::Dissimilarity.slug());
        self
    }
}

impl AlternativesProvider for DissimilarityProvider {
    fn kind(&self) -> ProviderKind {
        ProviderKind::Dissimilarity
    }

    fn alternatives_with_budget(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
    ) -> Result<ProviderOutcome, CoreError> {
        observed_call(
            &self.metrics,
            public_weights,
            TechniqueMetrics::record_dissimilarity,
            |s| s.interrupted,
            |stats| {
                let mut ws = lane_workspace(&self.metrics, net, budget);
                dissimilarity_alternatives_observed(
                    &mut ws,
                    net,
                    public_weights,
                    source,
                    target,
                    query,
                    &self.options,
                    stats,
                )
            },
        )
    }

    fn alternatives_in_context(
        &self,
        net: &RoadNetwork,
        public_weights: &[Weight],
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
        budget: &SearchBudget,
        ctx: &ProviderContext<'_>,
    ) -> Result<ProviderOutcome, CoreError> {
        // Reuse the substrate's tree pair for the via-node sweep's
        // distance arrays; a missing or mismatched substrate falls back
        // to growing our own.
        let Some(sub) = ctx.substrate_for(net, source, target) else {
            return self.alternatives_with_budget(
                net,
                public_weights,
                source,
                target,
                query,
                budget,
            );
        };
        observed_call(
            &self.metrics,
            public_weights,
            TechniqueMetrics::record_dissimilarity,
            |s| s.interrupted,
            |stats| {
                dissimilarity_alternatives_from_trees(
                    net,
                    public_weights,
                    query,
                    &self.options,
                    stats,
                    sub.forward(),
                    sub.backward(),
                    budget,
                )
            },
        )
    }
}

/// Builds the study's four providers in A–D order. `seed` parameterizes the
/// Google-like provider's private traffic data.
pub fn standard_providers(net: &RoadNetwork, seed: u64) -> Vec<Box<dyn AlternativesProvider>> {
    vec![
        Box::new(GoogleLikeProvider::new(net, seed)),
        Box::new(PlateauProvider::default()),
        Box::new(DissimilarityProvider::default()),
        Box::new(PenaltyProvider::default()),
    ]
}

/// Like [`standard_providers`] but with every provider recording per-call
/// metrics (calls, latency, candidate funnel, search counters) into
/// `registry` under its `technique` label. Passing
/// [`Registry::disabled()`] yields exactly [`standard_providers`].
pub fn instrumented_providers(
    net: &RoadNetwork,
    seed: u64,
    registry: &Registry,
) -> Vec<Box<dyn AlternativesProvider>> {
    vec![
        Box::new(GoogleLikeProvider::new(net, seed).with_metrics(registry)),
        Box::new(PlateauProvider::default().with_metrics(registry)),
        Box::new(DissimilarityProvider::default().with_metrics(registry)),
        Box::new(PenaltyProvider::default().with_metrics(registry)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;

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
        let net = grid(8);
        let reg = Registry::new();
        let providers = instrumented_providers(&net, 42, &reg);
        let q = AltQuery::paper();
        for p in &providers {
            p.alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q)
                .unwrap();
        }
        for kind in ProviderKind::ALL {
            let labels = &[("technique", kind.slug())][..];
            assert_eq!(
                reg.counter_value("arp_technique_calls_total", labels),
                1,
                "{kind}"
            );
            assert!(
                reg.counter_value("arp_search_settled_nodes_total", labels) > 0,
                "{kind} recorded no search work"
            );
            assert!(
                reg.counter_value("arp_search_heap_pops_total", labels) > 0,
                "{kind} recorded no heap pops"
            );
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
        let q = AltQuery::paper();
        for p in &providers {
            // A pre-cancelled budget: every provider must return an
            // Interrupted outcome (with whatever partial it has), not Err.
            let budget = SearchBudget::new();
            budget.cancel();
            let outcome = p
                .alternatives_with_budget(&net, net.weights(), NodeId(0), NodeId(63), &q, &budget)
                .unwrap_or_else(|e| panic!("{} errored on cancellation: {e}", p.kind()));
            assert!(outcome.is_interrupted(), "{}", p.kind());
            assert!(outcome.routes().is_empty(), "nothing was admitted");
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

    #[test]
    fn budgeted_outcome_matches_unbudgeted_routes_when_unlimited() {
        let net = grid(8);
        let q = AltQuery::paper();
        for p in standard_providers(&net, 42) {
            let direct = p
                .alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q)
                .unwrap();
            let outcome = p
                .alternatives_with_budget(
                    &net,
                    net.weights(),
                    NodeId(0),
                    NodeId(63),
                    &q,
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
