//! The serving layer's instrument bundle.
//!
//! All handles come pre-resolved from one [`arp_obs::Registry`] so the hot
//! path never touches the registry lock; `Default` bundles are detached
//! no-ops (the same convention as `arp-core`'s `TechniqueMetrics`).
//!
//! Metric names (all under the `arp_serve_` prefix, documented in
//! DESIGN.md §8):
//!
//! * `arp_serve_queue_depth` — gauge, current worker-queue backlog,
//! * `arp_serve_inflight_requests` — gauge, admitted route requests,
//! * `arp_serve_admitted_total` / `arp_serve_shed_total{reason}` /
//!   `arp_serve_deadline_timeouts_total` — admission outcomes,
//! * `arp_serve_cancellations_total` — requests whose deadline tripped
//!   the cooperative cancel token (in-flight lanes interrupted; the
//!   client may still get a truncated response, so this is **not** a
//!   subset of `deadline_timeouts_total`),
//! * `arp_serve_jobs_total` — lane jobs executed by the worker pool,
//! * `arp_serve_lanes_inline_total{technique}` — lane attempts the
//!   request thread ran itself instead of handing them to the pool
//!   (resolved per lane by the service; see
//!   [`crate::RouteBackend::inline_late_lanes`]),
//! * `arp_serve_cache_{hits,misses,evictions}_total`,
//!   `arp_serve_cache_entries` — route-cache behaviour,
//! * `arp_serve_cache_carried_total{technique}` — hits served at another
//!   traffic column than the one they were priced on, re-priced by
//!   [`crate::RouteBackend::reuse`] (resolved per lane by the service),
//! * `arp_serve_stage_latency_ms{stage}` — per-stage latency histograms
//!   (`admit`, `cache_probe`, `prepare`, `compute`, `assemble`; the
//!   `prepare` stage is the shared-substrate build, see
//!   [`crate::RouteBackend::prepare`]),
//! * `arp_serve_request_latency_ms` — end-to-end latency histogram.
//!
//! The fault-tolerance layer (DESIGN.md §9) adds:
//!
//! * `arp_serve_degraded_responses_total` — responses served with at
//!   least one failed or breaker-open lane,
//! * `arp_serve_lane_failures_total{technique,reason}` — resolved per
//!   lane by the service (the technique names come from the backend),
//! * `arp_serve_breaker_state{technique}` /
//!   `arp_serve_breaker_transitions_total` — circuit-breaker telemetry,
//! * `arp_serve_faults_injected_total{site,kind}` — injected failpoints.

use arp_obs::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS_MS};

/// Counters and gauges describing the route cache (one exact LRU).
#[derive(Clone, Debug, Default)]
pub struct CacheMetrics {
    /// Entries served from the cache, carried ones included.
    pub hits: Counter,
    /// Lookups that found nothing the backend would serve.
    pub misses: Counter,
    /// Entries evicted to make room (LRU).
    pub evictions: Counter,
    /// Current number of live entries.
    pub entries: Gauge,
}

impl CacheMetrics {
    /// Resolves the cache instruments from `registry`.
    pub fn new(registry: &Registry) -> CacheMetrics {
        CacheMetrics {
            hits: registry.counter(
                "arp_serve_cache_hits_total",
                "Route-cache lookups answered by a usable entry.",
                &[],
            ),
            misses: registry.counter(
                "arp_serve_cache_misses_total",
                "Route-cache lookups that found no usable entry.",
                &[],
            ),
            evictions: registry.counter(
                "arp_serve_cache_evictions_total",
                "Route-cache entries evicted by the LRU policy.",
                &[],
            ),
            entries: registry.gauge("arp_serve_cache_entries", "Live route-cache entries.", &[]),
        }
    }
}

/// Every instrument of the serving layer, resolved once at construction.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// Worker-queue backlog.
    pub queue_depth: Gauge,
    /// Route requests currently past admission and not yet answered.
    pub inflight: Gauge,
    /// Requests that passed admission.
    pub admitted: Counter,
    /// Requests shed because the in-flight bound was reached.
    pub shed_admission: Counter,
    /// Requests abandoned at their deadline with nothing to serve.
    pub timeouts: Counter,
    /// Requests whose deadline tripped the cooperative cancel token,
    /// interrupting in-flight lanes. Counted whether or not a truncated
    /// response could still be served.
    pub cancellations: Counter,
    /// Jobs executed by pool workers.
    pub jobs_executed: Counter,
    /// Responses served degraded: at least one lane failed or was
    /// short-circuited by its open breaker, and the rest were served
    /// anyway.
    pub degraded: Counter,
    /// Cache behaviour.
    pub cache: CacheMetrics,
    /// Admission latency (time spent acquiring the in-flight permit).
    pub stage_admit: Histogram,
    /// Cache-probe latency.
    pub stage_cache: Histogram,
    /// Shared-preparation latency ([`crate::RouteBackend::prepare`] —
    /// the substrate build in the demo backend). Observed only for
    /// requests with at least one runnable lane.
    pub stage_prepare: Histogram,
    /// Compute latency (fan-out submit to last lane done).
    pub stage_compute: Histogram,
    /// Response-assembly latency.
    pub stage_assemble: Histogram,
    /// End-to-end request latency.
    pub total: Histogram,
}

impl ServeMetrics {
    /// Resolves every serving instrument from `registry`.
    pub fn new(registry: &Registry) -> ServeMetrics {
        let stage = |name: &str| {
            registry.histogram(
                "arp_serve_stage_latency_ms",
                "Per-stage latency of one route request, in milliseconds.",
                &[("stage", name)],
                &DEFAULT_LATENCY_BUCKETS_MS,
            )
        };
        ServeMetrics {
            queue_depth: registry.gauge(
                "arp_serve_queue_depth",
                "Lane jobs waiting in the worker pool's queue.",
                &[],
            ),
            inflight: registry.gauge(
                "arp_serve_inflight_requests",
                "Route requests past admission and not yet answered.",
                &[],
            ),
            admitted: registry.counter(
                "arp_serve_admitted_total",
                "Route requests that passed admission control.",
                &[],
            ),
            shed_admission: registry.counter(
                "arp_serve_shed_total",
                "Route requests shed by the serving layer, by reason.",
                &[("reason", "admission_full")],
            ),
            timeouts: registry.counter(
                "arp_serve_deadline_timeouts_total",
                "Route requests abandoned at their deadline with nothing to serve.",
                &[],
            ),
            cancellations: registry.counter(
                "arp_serve_cancellations_total",
                "Route requests whose deadline tripped the cooperative cancel token.",
                &[],
            ),
            jobs_executed: registry.counter(
                "arp_serve_jobs_total",
                "Jobs executed by the worker pool.",
                &[],
            ),
            degraded: registry.counter(
                "arp_serve_degraded_responses_total",
                "Responses served with at least one failed or breaker-open lane.",
                &[],
            ),
            cache: CacheMetrics::new(registry),
            stage_admit: stage("admit"),
            stage_cache: stage("cache_probe"),
            stage_prepare: stage("prepare"),
            stage_compute: stage("compute"),
            stage_assemble: stage("assemble"),
            total: registry.histogram(
                "arp_serve_request_latency_ms",
                "End-to-end latency of one route request through the serving layer.",
                &[],
                &DEFAULT_LATENCY_BUCKETS_MS,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_bundle_records_nothing() {
        let m = ServeMetrics::default();
        m.admitted.inc();
        m.queue_depth.set(5);
        m.cache.hits.inc();
        assert_eq!(m.admitted.get(), 0);
        assert_eq!(m.queue_depth.get(), 0);
        assert_eq!(m.cache.hits.get(), 0);
    }

    #[test]
    fn resolved_bundle_lands_in_registry() {
        let registry = Registry::new();
        let m = ServeMetrics::new(&registry);
        m.admitted.inc();
        m.shed_admission.inc();
        m.cache.hits.add(3);
        m.cancellations.inc();
        assert_eq!(registry.counter_value("arp_serve_admitted_total", &[]), 1);
        assert_eq!(
            registry.counter_value("arp_serve_cancellations_total", &[]),
            1
        );
        assert_eq!(
            registry.counter_value("arp_serve_shed_total", &[("reason", "admission_full")]),
            1
        );
        assert_eq!(registry.counter_value("arp_serve_cache_hits_total", &[]), 3);
        let text = registry.render_prometheus();
        assert!(
            text.contains("# TYPE arp_serve_shed_total counter"),
            "{text}"
        );
        assert!(text.contains("arp_serve_stage_latency_ms"), "{text}");
    }
}
