//! Observability glue: per-query search statistics and the pre-resolved
//! metric bundles the hot paths flush them into.
//!
//! The search workspace ([`crate::search::SearchSpace`]) always counts
//! its work into a plain [`SearchStats`] (three `u64` increments per
//! settled vertex — unmeasurable against heap traffic). Exporting those
//! counts is opt-in: attach a [`SearchMetrics`] bundle resolved from an
//! [`arp_obs::Registry`] and every completed query is added to the shared
//! counters. Detached bundles (the default) make the flush a no-op, so
//! uninstrumented callers pay nothing.
//!
//! Metric names and label conventions are documented in DESIGN.md §7.

use arp_obs::{Counter, Histogram, Registry, DEFAULT_LATENCY_BUCKETS_MS};

/// Work counters of one search query.
///
/// `settled <= heap_pops` (stale heap entries are popped but not settled)
/// and `relaxed` counts every edge inspected from a settled vertex.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Heap extractions, including stale entries.
    pub heap_pops: u64,
    /// Vertices settled (popped with an up-to-date label).
    pub settled: u64,
    /// Edges inspected for relaxation from settled vertices.
    pub relaxed: u64,
    /// [`crate::SearchBudget`] polls performed (one per check interval of
    /// heap pops, plus one on entry) —
    /// the overhead knob of cooperative cancellation.
    pub budget_checks: u64,
}

impl SearchStats {
    /// Accumulates another query's counts into `self`.
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.heap_pops += other.heap_pops;
        self.settled += other.settled;
        self.relaxed += other.relaxed;
        self.budget_checks += other.budget_checks;
    }
}

/// Pre-resolved counters a search workspace flushes [`SearchStats`] into.
///
/// Resolve once with [`SearchMetrics::new`] (labels typically identify the
/// algorithm or the owning technique), attach with
/// `SearchSpace::set_metrics`.
/// The `Default` bundle is detached and records nothing.
#[derive(Clone, Debug, Default)]
pub struct SearchMetrics {
    queries: Counter,
    settled: Counter,
    heap_pops: Counter,
    relaxed: Counter,
    budget_checks: Counter,
}

impl SearchMetrics {
    /// Resolves the four search counters under `labels`
    /// (e.g. `[("technique", "penalty")]` or `[("algo", "dijkstra")]`).
    pub fn new(registry: &Registry, labels: &[(&str, &str)]) -> SearchMetrics {
        SearchMetrics {
            queries: registry.counter(
                "arp_search_queries_total",
                "Search queries completed.",
                labels,
            ),
            settled: registry.counter(
                "arp_search_settled_nodes_total",
                "Vertices settled by searches.",
                labels,
            ),
            heap_pops: registry.counter(
                "arp_search_heap_pops_total",
                "Priority-queue extractions by searches (incl. stale entries).",
                labels,
            ),
            relaxed: registry.counter(
                "arp_search_relaxed_edges_total",
                "Edges inspected for relaxation by searches.",
                labels,
            ),
            budget_checks: registry.counter(
                "arp_search_budget_checks_total",
                "Cooperative-cancellation budget polls performed by searches.",
                labels,
            ),
        }
    }

    /// Flushes one completed query's counts.
    #[inline]
    pub fn record(&self, stats: &SearchStats) {
        self.queries.inc();
        self.settled.add(stats.settled);
        self.heap_pops.add(stats.heap_pops);
        self.relaxed.add(stats.relaxed);
        self.budget_checks.add(stats.budget_checks);
    }
}

/// Candidate-funnel counters of one technique call: what it generated,
/// why it dropped what it dropped, and its internals. Plateaus, SSVP-D+
/// and Penalty each fill the fields they have (the rest stay 0); the
/// Google-like provider reports its Plateaus run. The provider flushes
/// every field into its [`TechniqueMetrics`].
///
/// A Plateaus, SSVP-D+ or Penalty call that returns `Ok` balances:
/// `candidates` is the number of routes returned plus every `rejected_*`
/// count. SSVP-D+ screens via-nodes before any path exists, so each
/// via-node it visits is either `screened` or one of its `candidates`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Candidate routes examined: plateaus considered, via-paths built,
    /// Penalty's base route plus every re-search's route.
    pub candidates: u64,
    /// Candidates over the stretch bound.
    pub rejected_bound: u64,
    /// Candidates equal to an earlier route.
    pub rejected_duplicate: u64,
    /// Candidates too similar to an admitted route.
    pub rejected_similarity: u64,
    /// Candidates that revisit a vertex.
    pub rejected_non_simple: u64,
    /// Plateaus below the minimum weight.
    pub rejected_short: u64,
    /// SSVP-D+ via-nodes dismissed by the θ-test on the tree labels alone,
    /// before any path was built.
    pub screened: u64,
    /// Penalty's penalized re-searches that found a route.
    pub iterations: u64,
    /// Plateaus in the forward/backward tree pair.
    pub plateaus_found: u64,
    /// The call's [`crate::SearchBudget`] tripped; the returned routes are
    /// the ones admitted up to that point.
    pub interrupted: bool,
}

/// Pre-resolved per-technique metrics a provider records its calls into:
/// call/error counts, a latency histogram, candidate-funnel counters and
/// the technique-specific internals (penalty iterations, plateaus found,
/// rejection reasons).
///
/// Built with [`TechniqueMetrics::new`]; the `Default` bundle is detached.
#[derive(Clone, Debug, Default)]
pub struct TechniqueMetrics {
    pub(crate) calls: Counter,
    pub(crate) errors: Counter,
    pub(crate) interrupted: Counter,
    pub(crate) latency: Histogram,
    pub(crate) generated: Counter,
    pub(crate) admitted: Counter,
    pub(crate) rejected_bound: Counter,
    pub(crate) rejected_duplicate: Counter,
    pub(crate) rejected_similarity: Counter,
    pub(crate) rejected_non_simple: Counter,
    pub(crate) rejected_screened: Counter,
    pub(crate) rejected_short: Counter,
    pub(crate) penalty_iterations: Counter,
    pub(crate) plateaus_found: Counter,
    /// Search counters labeled with this technique, for the provider's
    /// internal workspaces.
    pub(crate) search: SearchMetrics,
}

impl TechniqueMetrics {
    /// Resolves the technique bundle under `technique` (the
    /// [`crate::provider::ProviderKind::slug`] values).
    pub fn new(registry: &Registry, technique: &str) -> TechniqueMetrics {
        let labels: &[(&str, &str)] = &[("technique", technique)];
        let rejected = |reason: &str| {
            registry.counter(
                "arp_technique_rejected_total",
                "Candidate routes rejected, by reason.",
                &[("technique", technique), ("reason", reason)],
            )
        };
        TechniqueMetrics {
            calls: registry.counter(
                "arp_technique_calls_total",
                "Alternative-route queries answered per technique.",
                labels,
            ),
            errors: registry.counter(
                "arp_technique_errors_total",
                "Alternative-route queries that returned an error.",
                labels,
            ),
            interrupted: registry.counter(
                "arp_technique_interrupted_total",
                "Alternative-route queries cut short by their budget \
                 (partial routes were returned; not counted as errors).",
                labels,
            ),
            latency: registry.histogram(
                "arp_technique_latency_ms",
                "Per-call latency of a technique in milliseconds.",
                labels,
                &DEFAULT_LATENCY_BUCKETS_MS,
            ),
            generated: registry.counter(
                "arp_technique_candidates_total",
                "Candidate routes generated before filtering.",
                labels,
            ),
            admitted: registry.counter(
                "arp_technique_admitted_total",
                "Routes admitted into the returned result set.",
                labels,
            ),
            rejected_bound: rejected("bound"),
            rejected_duplicate: rejected("duplicate"),
            rejected_similarity: rejected("similarity"),
            rejected_non_simple: rejected("non_simple"),
            rejected_screened: rejected("screened"),
            rejected_short: rejected("short"),
            penalty_iterations: registry.counter(
                "arp_penalty_iterations_total",
                "Penalized re-search iterations run by the Penalty technique.",
                labels,
            ),
            plateaus_found: registry.counter(
                "arp_plateau_found_total",
                "Plateaus discovered in forward/backward tree pairs.",
                labels,
            ),
            search: SearchMetrics::new(registry, labels),
        }
    }

    /// Search counters labeled with this technique, to attach to the
    /// provider's internal workspace.
    pub fn search(&self) -> &SearchMetrics {
        &self.search
    }

    /// Records the funnel of one call (admitted routes are recorded
    /// separately from the final result length).
    pub(crate) fn record(&self, funnel: &Funnel) {
        self.generated.add(funnel.candidates);
        self.rejected_bound.add(funnel.rejected_bound);
        self.rejected_duplicate.add(funnel.rejected_duplicate);
        self.rejected_similarity.add(funnel.rejected_similarity);
        self.rejected_non_simple.add(funnel.rejected_non_simple);
        self.rejected_short.add(funnel.rejected_short);
        self.rejected_screened.add(funnel.screened);
        self.penalty_iterations.add(funnel.iterations);
        self.plateaus_found.add(funnel.plateaus_found);
    }

    /// Records the bookkeeping shared by every call: one call, its final
    /// admitted count, and the elapsed span (via the returned timer).
    pub(crate) fn begin_call(&self) -> arp_obs::Timer {
        self.calls.inc();
        self.latency.start_timer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut a = SearchStats {
            heap_pops: 1,
            settled: 2,
            relaxed: 3,
            budget_checks: 1,
        };
        a.accumulate(&SearchStats {
            heap_pops: 10,
            settled: 20,
            relaxed: 30,
            budget_checks: 4,
        });
        assert_eq!(
            a,
            SearchStats {
                heap_pops: 11,
                settled: 22,
                relaxed: 33,
                budget_checks: 5,
            }
        );
    }

    #[test]
    fn detached_bundles_record_nothing() {
        let m = SearchMetrics::default();
        m.record(&SearchStats {
            heap_pops: 5,
            settled: 5,
            relaxed: 5,
            ..SearchStats::default()
        });
        let t = TechniqueMetrics::default();
        let timer = t.begin_call();
        assert_eq!(timer.stop_ms(), 0.0);
    }

    #[test]
    fn every_funnel_field_lands_in_its_own_series() {
        let reg = Registry::new();
        let metrics = TechniqueMetrics::new(&reg, "plateaus");
        metrics.record(&Funnel {
            candidates: 1,
            rejected_bound: 2,
            rejected_duplicate: 3,
            rejected_similarity: 4,
            rejected_non_simple: 5,
            rejected_short: 6,
            screened: 7,
            iterations: 8,
            plateaus_found: 9,
            interrupted: true,
        });
        let technique = ("technique", "plateaus");
        let rejected = |reason| {
            reg.counter_value(
                "arp_technique_rejected_total",
                &[technique, ("reason", reason)],
            )
        };
        let reasons = [
            "bound",
            "duplicate",
            "similarity",
            "non_simple",
            "short",
            "screened",
        ];
        assert_eq!(reasons.map(rejected), [2, 3, 4, 5, 6, 7]);
        let count = |name| reg.counter_value(name, &[technique]);
        assert_eq!(count("arp_technique_candidates_total"), 1);
        assert_eq!(count("arp_penalty_iterations_total"), 8);
        assert_eq!(count("arp_plateau_found_total"), 9);
        // Interruption and admission are the call's outcome, counted by
        // the provider wrapper, not by the funnel flush.
        assert_eq!(count("arp_technique_interrupted_total"), 0);
        assert_eq!(count("arp_technique_admitted_total"), 0);
    }

    #[test]
    fn search_metrics_flush_to_registry() {
        let reg = Registry::new();
        let m = SearchMetrics::new(&reg, &[("algo", "dijkstra")]);
        m.record(&SearchStats {
            heap_pops: 7,
            settled: 6,
            relaxed: 20,
            budget_checks: 2,
        });
        m.record(&SearchStats {
            heap_pops: 3,
            settled: 3,
            relaxed: 9,
            budget_checks: 1,
        });
        let labels = &[("algo", "dijkstra")][..];
        assert_eq!(reg.counter_value("arp_search_queries_total", labels), 2);
        assert_eq!(
            reg.counter_value("arp_search_settled_nodes_total", labels),
            9
        );
        assert_eq!(reg.counter_value("arp_search_heap_pops_total", labels), 10);
        assert_eq!(
            reg.counter_value("arp_search_relaxed_edges_total", labels),
            29
        );
        assert_eq!(
            reg.counter_value("arp_search_budget_checks_total", labels),
            3
        );
    }
}
