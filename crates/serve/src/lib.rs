//! `arp-serve` — the production serving layer between the HTTP front-end
//! and the routing techniques.
//!
//! The paper's user study compares four alternative-route techniques on
//! every query; serving that comparison interactively means computing
//! four independent route sets per request. This crate turns that shape
//! into a serving architecture:
//!
//! * A private worker pool — a fixed set of threads over one FIFO
//!   (`Mutex` + `Condvar`, std only). Each request fans its techniques
//!   out as one job per *lane*, so a request costs roughly the slowest
//!   technique instead of their sum. Every lane job holds its request's
//!   admission permit, so admission alone bounds the backlog. A late
//!   wave the backend declares small
//!   ([`RouteBackend::inline_late_lanes`]) runs on the request thread
//!   instead, where the hand-off would cost more than the lanes.
//! * [`RouteCache`] — one exact LRU route cache keyed per lane by
//!   (city, snapped source, snapped target, technique, k), so repeat
//!   queries bypass recomputation entirely and partially-cached queries
//!   recompute only their missing lanes.
//! * [`Admission`] + [`Deadline`] — bounded in-flight requests with load
//!   shedding (HTTP 503 + `Retry-After`) and per-request deadlines. A
//!   request stays in flight until its last lane is done.
//! * [`CancelToken`] — cooperative cancellation of *in-flight* work: an
//!   expired deadline trips a per-request token that running lanes
//!   observe (via a search budget in the real backend), so a timed-out
//!   request frees its workers within one budget-check interval and the
//!   client gets whatever routes finished (a truncated `200`) instead of
//!   a full-cost late response.
//! * [`ServeMetrics`] — queue depth, shed/timeout counters, cache
//!   hit/miss/eviction counters and per-stage latency histograms,
//!   all through `arp-obs` and exported by the demo's `/api/metrics`.
//! * **Fault tolerance** (DESIGN.md §9) — [`FaultPlan`] failpoint
//!   injection (zero-overhead when disabled), per-technique
//!   [`CircuitBreaker`]s, and a degraded-response ladder: a lane gets one
//!   attempt, and a failed or panicked lane is marked
//!   [`LaneStatus::Failed`] while the other techniques' routes are still
//!   served. [`RouteService::health`] snapshots it all for `/api/health`.
//!
//! The crate is deliberately backend-agnostic: [`RouteService`] drives
//! any [`RouteBackend`], and `arp-demo` provides the road-network one.
//! Request lifecycle: accept → admit → cache probe → prepare (shared
//! substrate) → fan-out → assemble (docs/ARCHITECTURE.md walks through
//! it end to end).

#![deny(missing_docs)]

mod admission;
mod breaker;
mod cache;
mod cancel;
mod fault;
mod metrics;
mod pool;
mod service;

pub use admission::{adaptive_retry_after, Admission, Deadline, Permit};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::RouteCache;
pub use cancel::CancelToken;
pub use fault::{sites, FaultKind, FaultPlan};
pub use metrics::{CacheMetrics, ServeMetrics};
pub use service::{
    CacheHit, HealthReport, HealthVerdict, LaneHealth, LaneOutcome, LaneStatus, RouteBackend,
    RouteService, ServeConfig, ServeError,
};
