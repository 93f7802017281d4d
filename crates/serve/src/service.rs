//! The route service: admission → cache probe → parallel fan-out →
//! assembly.
//!
//! [`RouteService`] is generic over a [`RouteBackend`] so the serving
//! machinery stays independent of the demo crate (which depends on this
//! crate, not the other way round). The backend names its *lanes* — one
//! per alternative-route technique — and the service:
//!
//! 1. **admits** the request or sheds it ([`ServeError::Overloaded`],
//!    with an adaptive `Retry-After` hint scaled by queue pressure); the
//!    admission permit is shared with every lane job and freed when the
//!    last one is done, so admission alone bounds the worker queue,
//! 2. **probes the cache** per lane, so a repeat query recomputes nothing
//!    and a partially-cached query recomputes only its missing lanes,
//! 3. **fans out** the missing lanes onto the worker pool in two waves of
//!    one fan-out (`pool::Scatter`) — but only lanes whose **circuit
//!    breaker** admits them; an open breaker short-circuits its lane
//!    instantly instead of queueing doomed work:
//!    - the *early* lanes, those that do not read what `prepare` adds
//!      ([`RouteBackend::reads_prepare`]), are submitted first;
//!    - then, only when some runnable lane reads it, the request thread
//!      **prepares** shared per-request artifacts once
//!      ([`RouteBackend::prepare`] — the demo backend grows the tree pair
//!      its pair-reading lanes then read) while the early lanes run;
//!    - then the *late* lanes are submitted, handed the prepared request.
//!      When the backend says the prepared request bounds them small
//!      ([`RouteBackend::inline_late_lanes`] — the demo backend reads how
//!      many labels the tree pair settled), the request thread runs them
//!      itself, one after another, in the same fan-out: the same attempt
//!      (failpoint, panic containment, cache write-back, lane span), no
//!      hand-off to a worker. The deadline is checked before each inline
//!      lane; once expired, the token trips and the rest hand back their
//!      partials. A late lane armed with a delay failpoint is bounded by
//!      nothing, so that request fans out. Every other lane runs
//!      [`RouteBackend::run_lane`] on a worker,
//! 4. **joins** every lane once, bounded by the request deadline, under
//!    one cancel token and grace period,
//! 5. **assembles** the lanes with one call to
//!    [`RouteBackend::assemble_lanes`] — every lane's part (or `None`)
//!    and status, in lane order regardless of completion order — so a
//!    request whose lanes all completed is byte-identical to the serial
//!    path.
//!
//! Successful lane results are written back to the cache from the worker
//! thread that computed them; failed and truncated lanes are never
//! cached.
//!
//! **Failure isolation.** A lane that errors or panics does not fail
//! the request: it gets one attempt, and a failed attempt marks it
//! [`LaneStatus::Failed`] while the other techniques' routes are still
//! assembled and served as a *degraded* response. A lane is a pure
//! function of its request, so a second attempt on the same inputs would
//! fail the same way; the degraded response is not cached, so the next
//! identical request computes the lane afresh, and the lane's circuit
//! breaker caps a lane that keeps failing. Only when the assembly finds
//! nothing worth serving does the request error
//! ([`ServeError::AllLanesFailed`], HTTP 502). DESIGN.md §9 documents the
//! full degraded-response ladder.
//!
//! Deadlines act **cooperatively** on in-flight work: when a request's
//! deadline expires, the service trips a per-request [`CancelToken`] that
//! running lanes observe (through a search budget in the real backend),
//! collects whatever partials they hand back within a bounded grace
//! period, and serves a *truncated* response if at least one lane has
//! something to show — reserving [`ServeError::DeadlineExceeded`] for
//! requests where nothing finished. DESIGN.md §8 documents the
//! cancellation ladder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admission::{adaptive_retry_after, Admission, Deadline, Permit};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::cache::RouteCache;
use crate::cancel::CancelToken;
use crate::fault::{sites, FaultPlan};
use crate::metrics::ServeMetrics;
use crate::pool::{Scatter, WorkerPool};
use arp_obs::{
    Counter, Registry, SpanCollector, SpanGuard, SpanStatus, TraceConfig, TraceContext,
    TraceReceipt,
};

/// How one lane ended under cooperative cancellation and failure
/// isolation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaneOutcome<P> {
    /// The lane ran to completion; the part is cacheable.
    Complete(P),
    /// The lane was interrupted and returns the partial work it had
    /// admitted so far. Never cached — the truncation is an artifact of
    /// this request's deadline, not a property of the query.
    Truncated(P),
}

/// Per-lane verdict carried by a degraded response (the response's
/// `lane_status` map).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneStatus {
    /// The lane completed normally (computed or cached).
    Ok,
    /// The lane was cut short by the deadline; its routes are a prefix.
    Truncated,
    /// The lane's attempt failed (error or panic).
    Failed,
    /// The lane's circuit breaker was open; it was never attempted.
    OpenCircuit,
}

impl LaneStatus {
    /// Stable string for response rendering (`ok | truncated | failed |
    /// open_circuit`).
    pub fn as_str(&self) -> &'static str {
        match self {
            LaneStatus::Ok => "ok",
            LaneStatus::Truncated => "truncated",
            LaneStatus::Failed => "failed",
            LaneStatus::OpenCircuit => "open_circuit",
        }
    }

    /// Whether this status degrades the response (a failure, as opposed
    /// to deadline truncation).
    pub fn is_degraded(&self) -> bool {
        matches!(self, LaneStatus::Failed | LaneStatus::OpenCircuit)
    }
}

/// What a backend must provide for the service to run it.
///
/// `Request` is the *normalized* request — for road networks that means
/// coordinates already snapped to nodes, so every request that resolves
/// to the same (city, source node, target node, technique, k) tuple
/// shares cache entries regardless of the raw coordinates sent.
pub trait RouteBackend: Send + Sync + 'static {
    /// A normalized route request.
    type Request: Clone + Send + Sync + 'static;
    /// One lane's (technique's) computed result.
    type Part: Clone + Send + 'static;
    /// The assembled response.
    type Response;

    /// Number of lanes (techniques) per request.
    fn lanes(&self) -> usize;

    /// A stable, human-readable name for `lane` (the technique slug).
    /// Names the lane's circuit breaker, failure metrics and failpoint
    /// site (`lane.<name>`).
    fn lane_name(&self, lane: usize) -> String {
        format!("lane{lane}")
    }

    /// The cache key for `lane` of `request`. Must encode everything the
    /// lane's result depends on — city, snapped endpoints, technique, k.
    /// Must not depend on anything [`RouteBackend::prepare`] adds: the
    /// cache probe runs *before* preparation (a fully-cached request
    /// never prepares anything).
    fn lane_key(&self, request: &Self::Request, lane: usize) -> String;

    /// Prepares shared per-request artifacts **once**, before the lanes
    /// that read them fan out — in the demo backend this builds the
    /// `arp_core::substrate::SearchSubstrate` (forward + backward
    /// shortest-path trees and the base route) that the pair-reading
    /// technique lanes then read instead of recomputing.
    ///
    /// Called only when at least one lane that
    /// [reads it](RouteBackend::reads_prepare) will actually run: fully
    /// cached requests, requests whose every missing lane is
    /// short-circuited by an open breaker and requests whose runnable
    /// lanes all skip it never prepare. Lanes that skip it are already
    /// running when it is called.
    /// `token` is the same per-request [`CancelToken`] the lanes
    /// observe, and `deadline` is the request deadline — cooperative
    /// backends bound the preparation by both so an expiring request
    /// aborts its preparation (its lanes then serve what it proved)
    /// instead of finishing it pointlessly.
    ///
    /// Returns the request, augmented with whatever was prepared; the
    /// augmented request is what the late lanes and assembly see.
    /// The default is the identity — backends opt in.
    fn prepare(
        &self,
        request: Self::Request,
        token: &CancelToken,
        deadline: &Deadline,
    ) -> Self::Request {
        let _ = (token, deadline);
        request
    }

    /// Whether `lane` reads what [`RouteBackend::prepare`] adds to the
    /// request. A lane that does not is submitted *before* `prepare`
    /// runs, handed the unprepared request, and overlaps with it; a
    /// request whose runnable lanes all answer `false` skips `prepare`.
    /// This describes the backend's lanes, it is not a setting. The
    /// default, `true`, keeps every lane behind `prepare`.
    fn reads_prepare(&self, lane: usize) -> bool {
        let _ = lane;
        true
    }

    /// Whether the late lanes of `request` — those that read what
    /// [`RouteBackend::prepare`] added, handed the prepared request — are
    /// small enough to run one after another on the request thread
    /// rather than on the pool. Asked once per request, after `prepare`.
    /// Answer `true` only when the prepared request bounds what those
    /// lanes do (the demo backend reads how many labels its tree pair
    /// settled): a wave run inline costs their sum instead of the
    /// slowest one plus the hand-off, and an inline lane is interrupted
    /// only by the token, so an expired deadline is seen between lanes,
    /// not during one. This describes the request, it is not a setting.
    /// The default, `false`, hands every lane to the pool.
    fn inline_late_lanes(&self, request: &Self::Request) -> bool {
        let _ = request;
        false
    }

    /// Runs one lane on a worker thread under the request's cancel
    /// token. Cooperative backends build their search budget over
    /// [`CancelToken::flag`], so a tripped token stops the search within
    /// one budget-check interval and the lane returns
    /// [`LaneOutcome::Truncated`] with its partial work. A backend that
    /// ignores the token frees the worker only once the lane finishes on
    /// its own. `Err` fails the lane; only [`LaneOutcome::Complete`]
    /// parts are cached.
    fn run_lane(
        &self,
        request: &Self::Request,
        lane: usize,
        token: &CancelToken,
    ) -> Result<LaneOutcome<Self::Part>, String>;

    /// Assembles the response from every lane's part, in lane order —
    /// `None` where the lane has nothing to show: it was abandoned,
    /// interrupted without a partial, failed, or short-circuited by its
    /// breaker. `statuses` holds one [`LaneStatus`] per lane, so the
    /// response can carry its per-lane verdicts and its `truncated` /
    /// `degraded` flags. On a request whose every status is
    /// [`LaneStatus::Ok`] every part is present, and the response must be
    /// the one a serial run of the lanes assembles.
    ///
    /// Returning `None` declares nothing worth serving: the request fails
    /// with [`ServeError::DeadlineExceeded`] when a deadline cut it short,
    /// and with [`ServeError::AllLanesFailed`] otherwise.
    fn assemble_lanes(
        &self,
        request: &Self::Request,
        parts: Vec<Option<Self::Part>>,
        statuses: &[LaneStatus],
    ) -> Option<Self::Response>;

    /// Attributes stamped on the root span when a trace starts — the
    /// demo backend reports the pinned traffic epoch and the request's
    /// base cache key here. The default stamps nothing.
    fn trace_attrs(&self, request: &Self::Request) -> Vec<(&'static str, String)> {
        let _ = request;
        Vec::new()
    }

    /// Attributes stamped on the `prepare` span after
    /// [`RouteBackend::prepare`] returns — the demo backend reports
    /// whether the shared substrate was built. The default stamps
    /// nothing.
    fn prepare_attrs(&self, request: &Self::Request) -> Vec<(&'static str, String)> {
        let _ = request;
        Vec::new()
    }
}

/// Tunables for the serving layer.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads computing technique lanes.
    pub workers: usize,
    /// Bound on concurrently admitted route requests. A request holds its
    /// slot until its last lane is done, so this also bounds the lane
    /// queue at `max_inflight × lanes` jobs.
    pub max_inflight: usize,
    /// Total route-cache entries; zero disables the cache.
    pub cache_capacity: usize,
    /// Per-request deadline; zero disables deadlines (see
    /// [`ServeConfig::request_deadline`]).
    pub deadline: Duration,
    /// How long an expired request waits for its interrupted lanes to
    /// hand back partial results. One search-budget check interval is
    /// enough for a cooperative backend; zero collects nothing.
    pub cancel_grace: Duration,
    /// The failpoint plan (disabled by default; see [`FaultPlan`]).
    pub faults: FaultPlan,
    /// Per-technique circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Request tracing: head-sampling rate, trace ring capacity and the
    /// slow-request threshold (see [`arp_obs::TraceConfig`]).
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            max_inflight: 32,
            cache_capacity: 4096,
            deadline: Duration::from_secs(10),
            cancel_grace: Duration::from_millis(100),
            faults: FaultPlan::disabled(),
            breaker: BreakerConfig::default(),
            trace: TraceConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The per-request [`Deadline`]. This is the **single** place where a
    /// zero setting is read as "deadlines disabled" and mapped to
    /// [`Deadline::never`]; the `Deadline` type itself treats a zero
    /// timeout literally (already expired).
    pub fn request_deadline(&self) -> Deadline {
        if self.deadline.is_zero() {
            Deadline::never()
        } else {
            Deadline::after(self.deadline)
        }
    }
}

/// Why the service refused or failed a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Shed at admission: too many requests in flight. Answer HTTP 503
    /// with `Retry-After: {retry_after_s}`.
    Overloaded {
        /// Seconds the client should wait before retrying (adaptive,
        /// 1–5; see [`adaptive_retry_after`]).
        retry_after_s: u32,
    },
    /// The request's deadline expired before every lane finished.
    DeadlineExceeded,
    /// The backend's assembly found nothing worth serving, and no
    /// deadline was involved: every lane failed (errors, panics or open
    /// breakers), or what survived holds no answer. Answer HTTP 502: the
    /// service is up, its techniques are not.
    AllLanesFailed {
        /// The failed lanes' reasons, joined for the error body.
        reasons: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { retry_after_s } => {
                write!(f, "overloaded; retry after {retry_after_s}s")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::AllLanesFailed { reasons } => {
                write!(f, "all technique lanes failed: {reasons}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Health verdict for load balancers and operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Fully serving: no breaker open, queue has room.
    Ready,
    /// Serving with reduced capability: some breaker open or the worker
    /// queue is saturated.
    Degraded,
    /// Not usefully serving: every technique's breaker is open.
    Unhealthy,
}

impl HealthVerdict {
    /// Stable string for the health endpoint.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthVerdict::Ready => "ready",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Unhealthy => "unhealthy",
        }
    }
}

/// One lane's health entry.
#[derive(Clone, Debug)]
pub struct LaneHealth {
    /// The lane's technique name.
    pub technique: String,
    /// Its breaker state.
    pub breaker: BreakerState,
}

/// A point-in-time health snapshot of the service (the `/api/health`
/// payload).
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Overall verdict.
    pub verdict: HealthVerdict,
    /// Jobs waiting in the worker queue.
    pub queue_depth: usize,
    /// The most jobs that can wait: `max_inflight × lanes`, the bound
    /// admission puts on the queue.
    pub queue_capacity: usize,
    /// Requests currently admitted.
    pub inflight: usize,
    /// The admission bound.
    pub max_inflight: usize,
    /// Per-lane breaker states.
    pub lanes: Vec<LaneHealth>,
    /// Live route-cache entries.
    pub cache_entries: i64,
    /// Route-cache hits so far.
    pub cache_hits: u64,
    /// Route-cache misses so far.
    pub cache_misses: u64,
}

/// Per-lane runtime state: breaker and instruments.
struct LaneRuntime {
    name: String,
    /// Precomputed failpoint site (`lane.<name>`).
    site: String,
    breaker: CircuitBreaker,
    /// `arp_serve_lane_failures_total{technique,reason}`.
    fail_error: Counter,
    fail_panic: Counter,
    fail_abandoned: Counter,
    fail_open_circuit: Counter,
    /// `arp_serve_lanes_inline_total{technique}`: attempts run on the
    /// request thread instead of the pool.
    inline: Counter,
}

impl LaneRuntime {
    fn new(name: String, config: &BreakerConfig, registry: &Registry) -> LaneRuntime {
        let site = sites::lane(&name);
        let failures = |reason: &str| {
            registry.counter(
                "arp_serve_lane_failures_total",
                "Technique lanes that failed, by technique and reason.",
                &[("technique", name.as_str()), ("reason", reason)],
            )
        };
        let breaker = CircuitBreaker::with_instruments(
            *config,
            registry.gauge(
                "arp_serve_breaker_state",
                "Circuit-breaker state per technique (0 closed, 1 half-open, 2 open).",
                &[("technique", name.as_str())],
            ),
            registry.counter(
                "arp_serve_breaker_transitions_total",
                "Circuit-breaker state transitions across all techniques.",
                &[],
            ),
        );
        LaneRuntime {
            site,
            breaker,
            fail_error: failures("error"),
            fail_panic: failures("panic"),
            fail_abandoned: failures("abandoned"),
            fail_open_circuit: failures("open_circuit"),
            inline: registry.counter(
                "arp_serve_lanes_inline_total",
                "Technique lanes run on the request thread instead of the worker pool.",
                &[("technique", name.as_str())],
            ),
            name,
        }
    }
}

/// How one lane attempt ended (the fan-out's slot type): the backend's
/// outcome, or why there is none.
type LaneReply<P> = Result<LaneOutcome<P>, LaneFailure>;

/// An attempt that ended without a part.
struct LaneFailure {
    error: String,
    /// The attempt panicked (contained by its `catch_unwind`) rather
    /// than returning an error; files under `reason="panic"`.
    panicked: bool,
}

/// What the lanes of one request have produced so far: the accumulators
/// every lane outcome — cached or computed — is folded into.
struct LaneResults<P> {
    /// Per lane, the part to assemble (`None` = nothing to show).
    parts: Vec<Option<P>>,
    statuses: Vec<LaneStatus>,
    /// `<lane name>: <reason>` of every lane that ended without a part.
    failures: Vec<String>,
    truncated: bool,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "lane panicked".to_string()
    }
}

/// The route cache as the service shares it: lane results by lane key.
type LaneCache<B> = Arc<RouteCache<String, <B as RouteBackend>::Part>>;

/// Everything one lane attempt needs, owned so it can run on a worker
/// thread.
struct LaneAttempt<B: RouteBackend> {
    backend: Arc<B>,
    /// The cache and this lane's key in it, when the cache is enabled.
    cache: Option<(LaneCache<B>, String)>,
    faults: FaultPlan,
    site: String,
    lane: usize,
    token: CancelToken,
    request: B::Request,
    /// The request's admission permit, held until the attempt is done:
    /// a lane draining past its deadline still counts as in flight, so
    /// admission bounds the lane queue.
    _permit: Arc<Permit>,
    /// The attempt's trace span, opened at submission time; travels
    /// with the attempt to whichever thread runs it and records on
    /// drop at the end of [`LaneAttempt::run`].
    span: SpanGuard,
}

impl<B: RouteBackend> LaneAttempt<B> {
    /// Runs the attempt: fire the lane's failpoint, compute, cache a
    /// complete result. Panics (real or injected) are contained here so
    /// a panicking technique is indistinguishable from an erroring one
    /// at the fan-out layer.
    fn run(mut self) -> LaneReply<B::Part> {
        // The span opened when the lane was submitted; everything up to
        // here was time spent waiting in the worker queue.
        let picked_up_us = self.span.start_us() + self.span.elapsed_us();
        self.span.record_child(
            "queue",
            self.span.start_us(),
            picked_up_us,
            SpanStatus::Ok,
            Vec::new(),
        );
        self.span
            .attr_u64("queue_wait_us", picked_up_us - self.span.start_us());
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Injected faults and backend errors surface identically to
            // the fan-out layer but are told apart on the span.
            if let Err(message) = self.faults.fire(&self.site) {
                return Err((true, message));
            }
            self.backend
                .run_lane(&self.request, self.lane, &self.token)
                .map_err(|error| (false, error))
        }));
        if self.token.is_cancelled() {
            self.span.attr("cancelled", "true");
        }
        let (key, detail, failure) = match result {
            Ok(Ok(outcome)) => {
                match &outcome {
                    LaneOutcome::Complete(part) => {
                        // Only complete lanes are cached: a truncated part
                        // reflects this request's deadline, a failure is
                        // not a result at all.
                        if let Some((cache, key)) = self.cache.take() {
                            cache.put(key, part.clone());
                        }
                        self.span.attr("outcome", "complete");
                    }
                    LaneOutcome::Truncated(_) => {
                        self.span.set_status(SpanStatus::Truncated);
                        self.span.attr("outcome", "truncated");
                    }
                }
                return Ok(outcome);
            }
            Ok(Err((injected, error))) => {
                let key = if injected { "fault_injected" } else { "error" };
                let failure = LaneFailure {
                    error,
                    panicked: false,
                };
                (key, failure.error.clone(), failure)
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let failure = LaneFailure {
                    error: format!("lane panicked: {message}"),
                    panicked: true,
                };
                ("panic", message, failure)
            }
        };
        self.span.set_status(SpanStatus::Failed);
        self.span.attr("outcome", "failed");
        self.span.attr(key, detail);
        Err(failure)
    }
}

/// The serving pipeline over one backend. See the module docs for the
/// request lifecycle. Dropping the service closes the job queue, drains
/// it and joins the workers.
pub struct RouteService<B: RouteBackend> {
    backend: Arc<B>,
    pool: WorkerPool,
    cache: Option<LaneCache<B>>,
    admission: Admission,
    config: ServeConfig,
    metrics: ServeMetrics,
    lanes: Vec<LaneRuntime>,
    epoch: Instant,
    /// Per-request trace collector (ring buffer + sampling verdicts).
    tracer: SpanCollector,
}

impl<B: RouteBackend> RouteService<B> {
    /// Builds the service and registers its instruments in `registry`
    /// (a [`Registry::disabled`] one hands out detached no-ops).
    pub fn new(backend: B, mut config: ServeConfig, registry: &Registry) -> RouteService<B> {
        let metrics = ServeMetrics::new(registry);
        config.faults = config.faults.clone().attach_metrics(registry);
        let pool = WorkerPool::new(
            config.workers,
            metrics.queue_depth.clone(),
            metrics.jobs_executed.clone(),
        );
        let cache = (config.cache_capacity > 0).then(|| {
            Arc::new(RouteCache::new(
                config.cache_capacity,
                metrics.cache.clone(),
            ))
        });
        let admission = Admission::new(config.max_inflight, metrics.inflight.clone());
        let lanes = (0..backend.lanes())
            .map(|lane| LaneRuntime::new(backend.lane_name(lane), &config.breaker, registry))
            .collect();
        let tracer = SpanCollector::new(&config.trace, registry);
        RouteService {
            backend: Arc::new(backend),
            pool,
            cache,
            admission,
            config,
            metrics,
            lanes,
            epoch: Instant::now(),
            tracer,
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// The most lane jobs that can wait in the worker queue: every job
    /// holds its request's admission permit.
    fn queue_bound(&self) -> usize {
        self.admission.max_inflight() * self.backend.lanes()
    }

    fn attempt(
        &self,
        lane: usize,
        key: Option<String>,
        request: &B::Request,
        token: &CancelToken,
        permit: &Arc<Permit>,
        span: SpanGuard,
    ) -> LaneAttempt<B> {
        LaneAttempt {
            backend: Arc::clone(&self.backend),
            cache: self.cache.clone().zip(key),
            faults: self.config.faults.clone(),
            site: self.lanes[lane].site.clone(),
            lane,
            token: token.clone(),
            request: request.clone(),
            _permit: Arc::clone(permit),
            span,
        }
    }

    /// Runs one request through the full pipeline.
    pub fn route(&self, request: B::Request) -> Result<B::Response, ServeError> {
        self.route_traced(request).1
    }

    /// Runs one request through the full pipeline under a trace: every
    /// stage — admission, cache probe, prepare, each lane attempt
    /// (including breaker short-circuits) and assembly —
    /// records a span, and the returned [`TraceReceipt`] carries the
    /// trace id the HTTP layer echoes back plus the slow/kept verdicts
    /// for the slow-request log.
    pub fn route_traced(
        &self,
        request: B::Request,
    ) -> (TraceReceipt, Result<B::Response, ServeError>) {
        let ctx = self.tracer.start_trace();
        let mut root = ctx.span("request");
        for (key, value) in self.backend.trace_attrs(&request) {
            root.attr(key, value);
        }
        let (status, result) = self.route_stages(request, &ctx, &mut root);
        root.set_status(status);
        drop(root);
        (ctx.finish(status), result)
    }

    /// The pipeline body: returns the request's final [`SpanStatus`]
    /// (what the trace is filed under) alongside the response.
    fn route_stages(
        &self,
        mut request: B::Request,
        ctx: &TraceContext,
        root: &mut SpanGuard,
    ) -> (SpanStatus, Result<B::Response, ServeError>) {
        let root_id = root.id();
        let total_timer = self.metrics.total.start_timer();

        // Stage 1: admission.
        let admit_timer = self.metrics.stage_admit.start_timer();
        let mut admit_span = ctx.child_span("admission", root_id);
        let Some(permit) = self.admission.try_acquire() else {
            admit_timer.discard();
            total_timer.discard();
            self.metrics.shed_admission.inc();
            let retry_after_s = adaptive_retry_after(
                self.admission.inflight(),
                self.admission.max_inflight(),
                self.pool.queue_len(),
                self.queue_bound(),
            );
            admit_span.set_status(SpanStatus::Failed);
            admit_span.attr("outcome", "shed");
            admit_span.attr_u64("retry_after_s", u64::from(retry_after_s));
            drop(admit_span);
            return (
                SpanStatus::Failed,
                Err(ServeError::Overloaded { retry_after_s }),
            );
        };
        // Shared with every lane job: the slot frees when the request and
        // all of its lanes are done.
        let permit = Arc::new(permit);
        admit_span.attr_u64("inflight", self.admission.inflight() as u64);
        drop(admit_span);
        admit_timer.stop_ms();
        self.metrics.admitted.inc();
        let deadline = self.config.request_deadline();

        // Stage 2: per-lane cache probe. Each lane's key is built here,
        // once, and handed to the lane's attempt for the write-back; a
        // disabled cache builds none. An injected `cache.get` error
        // degrades the probe to a full miss — the cache is an
        // optimization, never a dependency.
        let lanes = self.backend.lanes();
        let cache_timer = self.metrics.stage_cache.start_timer();
        let mut probe_span = ctx.child_span("cache_probe", root_id);
        let mut parts: Vec<Option<B::Part>> = vec![None; lanes];
        let mut keys: Vec<Option<String>> = vec![None; lanes];
        if let Some(cache) = &self.cache {
            for (lane, key) in keys.iter_mut().enumerate() {
                *key = Some(self.backend.lane_key(&request, lane));
            }
            match self.config.faults.fire(sites::CACHE_GET) {
                Ok(()) => {
                    for (slot, key) in parts.iter_mut().zip(&keys) {
                        *slot = key.as_ref().and_then(|key| cache.get(key));
                    }
                }
                Err(message) => probe_span.attr("fault_injected", message),
            }
        }
        let hits = parts.iter().filter(|slot| slot.is_some()).count();
        probe_span.attr_u64("hits", hits as u64);
        probe_span.attr_u64("lanes", lanes as u64);
        drop(probe_span);
        cache_timer.stop_ms();

        // Stage 3: fan out the missing lanes — gated per lane by its
        // circuit breaker — under a per-request cancel token. On deadline
        // expiry the token is tripped; cooperative lanes hand back
        // partials within the grace period.
        let missing: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter_map(|(lane, slot)| slot.is_none().then_some(lane))
            .collect();
        let mut out = LaneResults {
            parts,
            statuses: vec![LaneStatus::Ok; lanes],
            failures: Vec::new(),
            truncated: false,
        };
        let mut deadline_hit = false;
        if !missing.is_empty() {
            let now = self.now_ms();
            let mut runnable: Vec<usize> = Vec::with_capacity(missing.len());
            for &lane in &missing {
                if self.lanes[lane].breaker.try_acquire(now) {
                    runnable.push(lane);
                } else {
                    // Open breaker: short-circuit without consuming a
                    // worker or a queue slot.
                    out.statuses[lane] = LaneStatus::OpenCircuit;
                    self.lanes[lane].fail_open_circuit.inc();
                    out.failures
                        .push(format!("{}: circuit open", self.lanes[lane].name));
                    let tick = ctx.tick_us();
                    let attrs = vec![
                        ("technique", self.lanes[lane].name.clone()),
                        ("breaker", "open".to_string()),
                        ("outcome", "open_circuit".to_string()),
                    ];
                    ctx.record_span("lane", Some(root_id), tick, tick, SpanStatus::Failed, attrs);
                }
            }

            // One fan-out in two waves, under one cancel token. The
            // early lanes do not read what `prepare` adds: they start
            // first, on the request as it came in, and overlap with it.
            let token = CancelToken::new();
            let scatter = Scatter::new();
            let (early, late): (Vec<usize>, Vec<usize>) = runnable
                .into_iter()
                .partition(|&lane| !self.backend.reads_prepare(lane));
            // Keys do not depend on `prepare` (the `lane_key` contract), so
            // the probe's key stays valid for a late lane's prepared request.
            // An inline lane runs the same attempt on this thread.
            let submit = |lane: usize, key: Option<String>, request: &B::Request, inline: bool| {
                let mut span = ctx.child_span("lane", root_id);
                span.attr("technique", self.lanes[lane].name.clone());
                span.attr_u64("attempt", 1);
                span.attr("breaker", self.lanes[lane].breaker.state().as_str());
                if inline {
                    span.attr("inline", "true");
                    self.lanes[lane].inline.inc();
                }
                let attempt = self.attempt(lane, key, request, &token, &permit, span);
                if inline {
                    scatter.run_here(move || attempt.run());
                } else {
                    scatter.submit(&self.pool, move || attempt.run());
                }
            };
            for &lane in &early {
                submit(lane, keys[lane].take(), &request, false);
            }

            // Shared preparation, once per request — but only when a lane
            // that reads it will run. The backend sees the same cancel
            // token the lanes observe, so a deadline that expires
            // mid-preparation aborts it cooperatively.
            if !late.is_empty() {
                let prepare_timer = self.metrics.stage_prepare.start_timer();
                let mut prepare_span = ctx.child_span("prepare", root_id);
                request = self.backend.prepare(request, &token, &deadline);
                for (key, value) in self.backend.prepare_attrs(&request) {
                    prepare_span.attr(key, value);
                }
                drop(prepare_span);
                prepare_timer.stop_ms();
            }

            // A small late wave runs on this thread, lane after lane. An
            // armed delay failpoint is bounded by nothing the backend
            // read, so such a request fans out.
            let inline = !late.is_empty()
                && self.backend.inline_late_lanes(&request)
                && !late
                    .iter()
                    .any(|&lane| self.config.faults.delays(&self.lanes[lane].site));
            let compute_start = Instant::now();
            for &lane in &late {
                // Between inline lanes the deadline is checked as `join`
                // would check it: once expired, the token trips and every
                // lane still to run hands back its partial at once.
                if inline && deadline.expired() {
                    token.cancel();
                }
                submit(lane, keys[lane].take(), &request, inline);
            }
            let fanout = scatter.join(deadline, &token, self.config.cancel_grace);
            self.metrics
                .stage_compute
                .observe(compute_start.elapsed().as_secs_f64() * 1_000.0);

            // A token tripped before the join was the deadline, seen
            // between inline lanes.
            deadline_hit = fanout.deadline_hit || token.is_cancelled();
            if deadline_hit {
                self.metrics.cancellations.inc();
                out.truncated = true;
                root.attr("cancelled", "true");
            }
            // Settle in lane order, whichever wave a lane ran in, so the
            // failure reasons are listed in lane order.
            let mut settled: Vec<_> = early.into_iter().chain(late).zip(fanout.slots).collect();
            settled.sort_by_key(|&(lane, _)| lane);
            for (lane, slot) in settled {
                let runtime = &self.lanes[lane];
                match self.settle(lane, slot, &mut out) {
                    Ok(()) => {}
                    Err(Some(failure)) => {
                        let counter = if failure.panicked {
                            &runtime.fail_panic
                        } else {
                            &runtime.fail_error
                        };
                        counter.inc();
                        out.statuses[lane] = LaneStatus::Failed;
                        out.failures
                            .push(format!("{}: {}", runtime.name, failure.error));
                    }
                    // Abandoned while queued, or a straggler that outlived
                    // the grace period: a deadline artifact, part of the
                    // truncation.
                    Err(None) if deadline_hit => out.statuses[lane] = LaneStatus::Truncated,
                    Err(None) => {
                        out.statuses[lane] = LaneStatus::Failed;
                        runtime.fail_abandoned.inc();
                        out.failures
                            .push(format!("{}: lane abandoned", runtime.name));
                    }
                }
            }
        }
        let LaneResults {
            parts,
            statuses,
            failures,
            truncated,
            ..
        } = out;

        // Stage 4: assemble in lane order, one call whatever the lanes'
        // statuses.
        let degraded = statuses.iter().any(LaneStatus::is_degraded);
        let assemble_timer = self.metrics.stage_assemble.start_timer();
        let mut assemble_span = ctx.child_span("assemble", root_id);
        let Some(response) = self.backend.assemble_lanes(&request, parts, &statuses) else {
            // Nothing worth serving. A tripped deadline degrades to a
            // timeout; pure lane failure is a bad gateway.
            assemble_timer.discard();
            total_timer.discard();
            assemble_span.set_status(SpanStatus::Failed);
            if deadline_hit || (truncated && !degraded) {
                self.metrics.timeouts.inc();
                assemble_span.attr("outcome", "deadline_exceeded");
                drop(assemble_span);
                return (SpanStatus::Failed, Err(ServeError::DeadlineExceeded));
            }
            let reasons = if failures.is_empty() {
                "no lane produced a result".to_string()
            } else {
                failures.join("; ")
            };
            assemble_span.attr("outcome", "all_lanes_failed");
            drop(assemble_span);
            return (
                SpanStatus::Failed,
                Err(ServeError::AllLanesFailed { reasons }),
            );
        };
        if degraded {
            self.metrics.degraded.inc();
            assemble_span.attr("outcome", "degraded");
        } else if truncated {
            assemble_span.attr("outcome", "truncated");
        }
        drop(assemble_span);
        assemble_timer.stop_ms();
        total_timer.stop_ms();
        let status = if degraded {
            SpanStatus::Degraded
        } else if truncated {
            SpanStatus::Truncated
        } else {
            SpanStatus::Ok
        };
        (status, Ok(response))
    }

    /// Settles one attempt whose breaker slot was acquired: lands its part
    /// (and status) in `out`, or hands back why there is none — `None`
    /// when the attempt never reported at all. Either way the breaker
    /// gets its answer here, exactly once per attempt.
    fn settle(
        &self,
        lane: usize,
        reply: Option<LaneReply<B::Part>>,
        out: &mut LaneResults<B::Part>,
    ) -> Result<(), Option<LaneFailure>> {
        let runtime = &self.lanes[lane];
        let outcome = match reply {
            Some(Ok(done)) => done,
            unanswered => {
                // Also when the outcome is unknown: the lane acquired its
                // breaker (possibly as the half-open probe) but never
                // reported back. The breaker must still get an answer —
                // otherwise a half-open probe leaks and the lane stays
                // open_circuit forever — and "unknown" conservatively
                // counts as a failure, which also lets a persistently
                // hanging lane trip its circuit instead of eating the
                // full deadline on every request.
                runtime.breaker.record_failure(self.now_ms());
                return Err(unanswered.and_then(Result::err));
            }
        };
        runtime.breaker.record_success(self.now_ms());
        let (part, status) = match outcome {
            LaneOutcome::Complete(part) => (part, LaneStatus::Ok),
            // Interrupted — under deadline pressure, or by a backend-side
            // expansion cap. Either way a partial response, not a lane
            // failure.
            LaneOutcome::Truncated(part) => {
                out.truncated = true;
                (part, LaneStatus::Truncated)
            }
        };
        out.parts[lane] = Some(part);
        out.statuses[lane] = status;
        Ok(())
    }

    /// A point-in-time health snapshot: queue depth, in-flight count,
    /// per-technique breaker states and cache statistics, with an
    /// overall verdict (every breaker open → unhealthy; any breaker open
    /// or the queue saturated → degraded; otherwise ready).
    pub fn health(&self) -> HealthReport {
        let lanes: Vec<LaneHealth> = self
            .lanes
            .iter()
            .map(|runtime| LaneHealth {
                technique: runtime.name.clone(),
                breaker: runtime.breaker.state(),
            })
            .collect();
        let open = lanes
            .iter()
            .filter(|l| l.breaker == BreakerState::Open)
            .count();
        let queue_depth = self.pool.queue_len();
        let queue_capacity = self.queue_bound();
        let verdict = if !lanes.is_empty() && open == lanes.len() {
            HealthVerdict::Unhealthy
        } else if open > 0 || queue_depth >= queue_capacity {
            HealthVerdict::Degraded
        } else {
            HealthVerdict::Ready
        };
        HealthReport {
            verdict,
            queue_depth,
            queue_capacity,
            inflight: self.admission.inflight(),
            max_inflight: self.admission.max_inflight(),
            lanes,
            cache_entries: self.metrics.cache.entries.get(),
            cache_hits: self.metrics.cache.hits.get(),
            cache_misses: self.metrics.cache.misses.get(),
        }
    }

    /// Records a traffic-epoch bump against the route cache: every entry
    /// currently held was keyed under an older publication (the backend
    /// ends the lane key in the snapshot's publication number), so all of
    /// them just became logically unreachable. The entries themselves age
    /// out through the ordinary LRU eviction — this only advances
    /// `arp_serve_cache_epoch_invalidations_total` by the live entry
    /// count, keeping the tick O(1) instead of a full-cache sweep. Entries
    /// an earlier bump already made unreachable are counted again.
    pub fn note_epoch_invalidations(&self) {
        let live = self.metrics.cache.entries.get();
        if live > 0 {
            self.metrics.cache.epoch_invalidations.add(live as u64);
        }
    }

    /// The breaker state of one lane (for tests and introspection).
    pub fn breaker_state(&self, lane: usize) -> BreakerState {
        self.lanes[lane].breaker.state()
    }

    /// The backend being served.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The service's metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The trace collector: the ring buffer of kept traces and the
    /// sampling verdicts behind the `/api/debug/traces` and
    /// `/api/trace/<id>` endpoints.
    pub fn tracer(&self) -> &SpanCollector {
        &self.tracer
    }

    /// The admission gate (for HTTP-layer introspection).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A backend whose lanes echo the request; used to observe the
    /// service's caching, shedding, deadline and failure behaviour.
    struct EchoBackend {
        lanes: usize,
        delay: Duration,
        /// Fails on every attempt.
        fail_lane: Option<usize>,
        /// Panics on every attempt.
        panic_lane: Option<usize>,
        /// Fails while `flaky_failures` is positive (each failed attempt
        /// decrements it), then succeeds — a recoverable fault.
        flaky_lane: Option<usize>,
        flaky_failures: AtomicUsize,
        computes: AtomicUsize,
    }

    impl EchoBackend {
        fn new(lanes: usize) -> EchoBackend {
            EchoBackend {
                lanes,
                delay: Duration::ZERO,
                fail_lane: None,
                panic_lane: None,
                flaky_lane: None,
                flaky_failures: AtomicUsize::new(0),
                computes: AtomicUsize::new(0),
            }
        }

        fn computes(&self) -> usize {
            self.computes.load(Ordering::SeqCst)
        }
    }

    impl RouteBackend for EchoBackend {
        type Request = (u32, u32);
        type Part = String;
        type Response = String;

        fn lanes(&self) -> usize {
            self.lanes
        }

        fn lane_key(&self, request: &(u32, u32), lane: usize) -> String {
            format!("echo:{}:{}:{lane}", request.0, request.1)
        }

        fn run_lane(
            &self,
            request: &(u32, u32),
            lane: usize,
            _token: &CancelToken,
        ) -> Result<LaneOutcome<String>, String> {
            self.computes.fetch_add(1, Ordering::SeqCst);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            if self.fail_lane == Some(lane) {
                return Err(format!("lane {lane} refused"));
            }
            if self.panic_lane == Some(lane) {
                panic!("lane {lane} exploded");
            }
            if self.flaky_lane == Some(lane)
                && self
                    .flaky_failures
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                return Err(format!("lane {lane} flaked"));
            }
            Ok(LaneOutcome::Complete(format!(
                "lane{lane}({},{})",
                request.0, request.1
            )))
        }

        fn assemble_lanes(
            &self,
            request: &(u32, u32),
            parts: Vec<Option<String>>,
            statuses: &[LaneStatus],
        ) -> Option<String> {
            present(parts)
                .map(|body| marked(format!("{},{} => {body}", request.0, request.1), statuses))
        }
    }

    /// The present parts joined by `|`; `None` when no lane has one.
    fn present(parts: Vec<Option<String>>) -> Option<String> {
        let present: Vec<String> = parts.into_iter().flatten().collect();
        (!present.is_empty()).then(|| present.join("|"))
    }

    /// `body`, followed by the lane statuses in brackets unless every
    /// lane is ok.
    fn marked(body: String, statuses: &[LaneStatus]) -> String {
        if statuses.iter().all(|status| *status == LaneStatus::Ok) {
            return body;
        }
        let statuses: Vec<&str> = statuses.iter().map(LaneStatus::as_str).collect();
        format!("{body} [{}]", statuses.join(","))
    }

    fn service(backend: EchoBackend, config: ServeConfig) -> RouteService<EchoBackend> {
        RouteService::new(backend, config, &Registry::disabled())
    }

    #[test]
    fn lanes_assemble_in_lane_order() {
        let svc = service(EchoBackend::new(4), ServeConfig::default());
        let out = svc.route((3, 9)).unwrap();
        assert_eq!(out, "3,9 => lane0(3,9)|lane1(3,9)|lane2(3,9)|lane3(3,9)");
        assert_eq!(svc.backend().computes(), 4);
    }

    #[test]
    fn repeat_requests_are_served_from_cache() {
        let registry = Registry::new();
        let svc = RouteService::new(EchoBackend::new(4), ServeConfig::default(), &registry);
        let first = svc.route((1, 2)).unwrap();
        let second = svc.route((1, 2)).unwrap();
        assert_eq!(first, second);
        assert_eq!(svc.backend().computes(), 4, "repeat recomputed a lane");
        assert_eq!(svc.metrics().cache.hits.get(), 4);
        assert_eq!(svc.metrics().cache.misses.get(), 4);
    }

    #[test]
    fn disabled_cache_recomputes_every_time() {
        let config = ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let svc = service(EchoBackend::new(3), config);
        svc.route((1, 2)).unwrap();
        svc.route((1, 2)).unwrap();
        assert_eq!(svc.backend().computes(), 6);
    }

    #[test]
    fn admission_full_sheds_with_adaptive_retry_after() {
        let config = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let svc = service(EchoBackend::new(2), config);
        let _occupied = svc.admission().try_acquire().unwrap();
        let err = svc.route((1, 2)).unwrap_err();
        // Admission saturated (1/1), queue empty: pressure 0.5 → 3 s.
        assert_eq!(err, ServeError::Overloaded { retry_after_s: 3 });
    }

    #[test]
    fn deadline_expiry_abandons_the_request() {
        let mut backend = EchoBackend::new(4);
        backend.delay = Duration::from_millis(80);
        // Zero grace: the non-cooperative 80 ms lanes cannot land a
        // partial after the 30 ms deadline, so there is nothing to serve.
        let config = ServeConfig {
            workers: 1,
            deadline: Duration::from_millis(30),
            cancel_grace: Duration::ZERO,
            ..ServeConfig::default()
        };
        let registry = Registry::new();
        let svc = RouteService::new(backend, config, &registry);
        let err = svc.route((1, 2)).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(svc.metrics().timeouts.get(), 1);
    }

    #[test]
    fn failed_lane_degrades_the_response_instead_of_failing_it() {
        let mut backend = EchoBackend::new(3);
        backend.fail_lane = Some(1);
        let registry = Registry::new();
        let svc = RouteService::new(backend, ServeConfig::default(), &registry);
        let out = svc.route((4, 5)).unwrap();
        assert_eq!(
            out, "4,5 => lane0(4,5)|lane2(4,5) [ok,failed,ok]",
            "the healthy lanes are served, the failed one is marked"
        );
        assert_eq!(svc.metrics().degraded.get(), 1);
        assert_eq!(
            registry.counter_value(
                "arp_serve_lane_failures_total",
                &[("technique", "lane1"), ("reason", "error")]
            ),
            1
        );
        // One attempt per lane: the failing lane is computed once.
        assert_eq!(svc.backend().computes(), 3);
        // The failed lane was never cached: a repeat recomputes it, once,
        // while the healthy lanes come from cache.
        svc.route((4, 5)).unwrap();
        assert_eq!(svc.backend().computes(), 4);
    }

    /// Regression: a panicking technique used to fail the whole request
    /// (`ServeError::Lane`). It must degrade instead — HTTP 200 with the
    /// other techniques' routes.
    #[test]
    fn panicking_lane_still_serves_the_other_techniques() {
        let mut backend = EchoBackend::new(4);
        backend.panic_lane = Some(2);
        let registry = Registry::new();
        let config = ServeConfig::default();
        let svc = RouteService::new(backend, config, &registry);
        let out = svc.route((7, 8)).unwrap();
        assert_eq!(
            out,
            "7,8 => lane0(7,8)|lane1(7,8)|lane3(7,8) [ok,ok,failed,ok]"
        );
        assert_eq!(
            registry.counter_value(
                "arp_serve_lane_failures_total",
                &[("technique", "lane2"), ("reason", "panic")]
            ),
            1
        );
        // The pool survives: an untouched request still serves cleanly.
        let clean = svc.route((1, 1)).unwrap();
        assert!(clean.contains("lane0(1,1)"));
    }

    #[test]
    fn all_lanes_failing_is_a_bad_gateway() {
        let mut backend = EchoBackend::new(1);
        backend.fail_lane = Some(0);
        let svc = service(backend, ServeConfig::default());
        let err = svc.route((1, 2)).unwrap_err();
        match err {
            ServeError::AllLanesFailed { reasons } => {
                assert!(reasons.contains("refused"), "{reasons}");
            }
            other => panic!("expected AllLanesFailed, got {other:?}"),
        }
    }

    #[test]
    fn breaker_opens_and_short_circuits_the_broken_lane() {
        let mut backend = EchoBackend::new(2);
        backend.fail_lane = Some(0);
        let registry = Registry::new();
        let config = ServeConfig {
            cache_capacity: 0,
            breaker: BreakerConfig {
                window: 8,
                min_volume: 3,
                error_rate: 0.5,
                cooldown_ms: 60_000,
            },
            ..ServeConfig::default()
        };
        let svc = RouteService::new(backend, config, &registry);
        for i in 0..3 {
            let out = svc.route((i, i)).unwrap();
            assert!(out.contains("[failed,ok]"), "{out}");
        }
        assert_eq!(svc.breaker_state(0), BreakerState::Open);
        let before = svc.backend().computes();
        let out = svc.route((9, 9)).unwrap();
        assert!(
            out.contains("[open_circuit,ok]"),
            "short-circuited lane must be reported as open_circuit: {out}"
        );
        assert_eq!(
            svc.backend().computes(),
            before + 1,
            "the open lane must not consume worker time"
        );
        assert_eq!(
            registry.counter_value(
                "arp_serve_lane_failures_total",
                &[("technique", "lane0"), ("reason", "open_circuit")]
            ),
            1
        );
        assert!(registry.counter_value("arp_serve_breaker_transitions_total", &[]) >= 1);
        let health = svc.health();
        assert_eq!(health.verdict, HealthVerdict::Degraded);
        assert_eq!(health.lanes[0].breaker, BreakerState::Open);
        assert_eq!(health.lanes[1].breaker, BreakerState::Closed);
    }

    #[test]
    fn health_reports_unhealthy_when_every_breaker_is_open() {
        let mut backend = EchoBackend::new(1);
        backend.fail_lane = Some(0);
        let config = ServeConfig {
            cache_capacity: 0,
            breaker: BreakerConfig {
                window: 4,
                min_volume: 1,
                error_rate: 0.1,
                cooldown_ms: 60_000,
            },
            ..ServeConfig::default()
        };
        let svc = service(backend, config);
        assert_eq!(svc.health().verdict, HealthVerdict::Ready);
        let _ = svc.route((1, 2));
        assert_eq!(svc.health().verdict, HealthVerdict::Unhealthy);
        // With its only breaker open the request cannot be served at all.
        let err = svc.route((3, 4)).unwrap_err();
        match err {
            ServeError::AllLanesFailed { reasons } => {
                assert!(reasons.contains("circuit open"), "{reasons}");
            }
            other => panic!("expected AllLanesFailed, got {other:?}"),
        }
    }

    /// Lane 0 misbehaves according to `mode` — 0 = fail fast, 1 = hang
    /// non-cooperatively (longer than deadline + grace, so its fan-out
    /// slot comes back `None`), 2 = succeed. Lane 1 always succeeds
    /// instantly.
    struct MoodyBackend {
        mode: AtomicUsize,
    }

    impl RouteBackend for MoodyBackend {
        type Request = (u32, u32);
        type Part = String;
        type Response = String;

        fn lanes(&self) -> usize {
            2
        }

        fn lane_key(&self, request: &(u32, u32), lane: usize) -> String {
            format!("moody:{}:{}:{lane}", request.0, request.1)
        }

        fn run_lane(
            &self,
            _request: &(u32, u32),
            lane: usize,
            _token: &CancelToken,
        ) -> Result<LaneOutcome<String>, String> {
            if lane == 0 {
                match self.mode.load(Ordering::SeqCst) {
                    0 => return Err("lane 0 refused".to_string()),
                    1 => std::thread::sleep(Duration::from_millis(300)),
                    _ => {}
                }
            }
            Ok(LaneOutcome::Complete(format!("lane{lane}")))
        }

        fn assemble_lanes(
            &self,
            _request: &(u32, u32),
            parts: Vec<Option<String>>,
            statuses: &[LaneStatus],
        ) -> Option<String> {
            present(parts).map(|body| marked(body, statuses))
        }
    }

    /// Regression: a half-open probe whose lane came back `None`
    /// (abandoned or straggling past the grace period) used to leave
    /// `probe_inflight` set forever, wedging the lane as `open_circuit`
    /// until restart. The unknown outcome must re-open the breaker —
    /// releasing the probe — so the lane can recover.
    #[test]
    fn abandoned_half_open_probe_reopens_the_breaker_instead_of_leaking() {
        let backend = MoodyBackend {
            mode: AtomicUsize::new(0),
        };
        let config = ServeConfig {
            workers: 4,
            cache_capacity: 0,
            deadline: Duration::from_millis(40),
            cancel_grace: Duration::from_millis(10),
            breaker: BreakerConfig {
                window: 4,
                min_volume: 1,
                error_rate: 0.1,
                cooldown_ms: 1,
            },
            ..ServeConfig::default()
        };
        let svc = RouteService::new(backend, config, &Registry::disabled());

        // A fast failure opens the breaker (min volume 1).
        let out = svc.route((1, 1)).unwrap();
        assert!(out.contains("[failed,ok]"), "{out}");
        assert_eq!(svc.breaker_state(0), BreakerState::Open);

        // After the cooldown the next request holds the half-open probe —
        // and hangs past deadline + grace, so the probe's outcome is
        // unknown (`None` slot). The breaker must re-open, not stay
        // half-open with the probe leaked.
        svc.backend().mode.store(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(5));
        let out = svc.route((2, 2)).unwrap();
        assert!(out.contains("[truncated,ok]"), "{out}");
        assert_eq!(
            svc.breaker_state(0),
            BreakerState::Open,
            "an unknown probe outcome must re-open the breaker"
        );

        // The lane recovers: after another cooldown the probe runs, comes
        // back healthy, and closes the circuit. With a leaked probe this
        // request would short-circuit as open_circuit forever.
        svc.backend().mode.store(2, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(5));
        let out = svc.route((3, 3)).unwrap();
        assert!(out.contains("lane0"), "the probe lane must run: {out}");
        assert_eq!(svc.breaker_state(0), BreakerState::Closed);
    }

    /// A lane that never answers within deadline + grace must still feed
    /// its breaker: hangs are failures too, or a persistently hanging
    /// technique would consume a worker plus the full deadline on every
    /// request without ever tripping its circuit.
    #[test]
    fn hanging_lane_eventually_trips_its_breaker() {
        let backend = MoodyBackend {
            mode: AtomicUsize::new(1),
        };
        let config = ServeConfig {
            workers: 6,
            cache_capacity: 0,
            deadline: Duration::from_millis(30),
            cancel_grace: Duration::ZERO,
            breaker: BreakerConfig {
                window: 4,
                min_volume: 2,
                error_rate: 0.5,
                cooldown_ms: 60_000,
            },
            ..ServeConfig::default()
        };
        let svc = RouteService::new(backend, config, &Registry::disabled());
        for i in 0..2 {
            let out = svc.route((i, i)).unwrap();
            assert!(out.contains("[truncated,ok]"), "{out}");
        }
        assert_eq!(
            svc.breaker_state(0),
            BreakerState::Open,
            "hanging outcomes must count as breaker failures"
        );
        let out = svc.route((9, 9)).unwrap();
        assert!(out.contains("[open_circuit,ok]"), "{out}");
    }

    #[test]
    fn injected_lane_fault_degrades_and_counts() {
        let registry = Registry::new();
        let config = ServeConfig {
            faults: FaultPlan::parse("lane.lane0=error:chaos").unwrap(),
            ..ServeConfig::default()
        };
        let svc = RouteService::new(EchoBackend::new(2), config, &registry);
        let out = svc.route((5, 5)).unwrap();
        assert!(out.contains("[failed,ok]"), "{out}");
        assert_eq!(
            registry.counter_value(
                "arp_serve_faults_injected_total",
                &[("site", "lane.lane0"), ("kind", "error")]
            ),
            1
        );
    }

    #[test]
    fn injected_cache_outage_degrades_to_a_full_miss() {
        let config = ServeConfig {
            faults: FaultPlan::parse("cache.get=error").unwrap(),
            ..ServeConfig::default()
        };
        let svc = service(EchoBackend::new(2), config);
        let a = svc.route((1, 2)).unwrap();
        let b = svc.route((1, 2)).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            svc.backend().computes(),
            4,
            "a failed cache probe must recompute, not fail the request"
        );
    }

    /// Two lanes. Lane 0 skips `prepare`, says it has started, then
    /// blocks on `gate` whatever its token says: a non-cooperative
    /// straggler. `prepare` waits for that start, so a deadline always
    /// finds lane 0 running, never still queued.
    struct StragglerBackend {
        started: (
            std::sync::Mutex<std::sync::mpsc::Sender<()>>,
            std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
        ),
        gate: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl RouteBackend for StragglerBackend {
        type Request = (u32, u32);
        type Part = String;
        type Response = String;

        fn lanes(&self) -> usize {
            2
        }

        fn lane_key(&self, request: &(u32, u32), lane: usize) -> String {
            format!("straggler:{}:{}:{lane}", request.0, request.1)
        }

        fn reads_prepare(&self, lane: usize) -> bool {
            lane != 0
        }

        fn prepare(
            &self,
            request: (u32, u32),
            _token: &CancelToken,
            _deadline: &Deadline,
        ) -> (u32, u32) {
            self.started.1.lock().unwrap().recv().unwrap();
            request
        }

        fn run_lane(
            &self,
            _request: &(u32, u32),
            lane: usize,
            _token: &CancelToken,
        ) -> Result<LaneOutcome<String>, String> {
            if lane == 0 {
                self.started.0.lock().unwrap().send(()).unwrap();
                // Released by the test, or by its sender dropping.
                let _ = self.gate.lock().unwrap().recv();
            }
            Ok(LaneOutcome::Complete(format!("lane{lane}")))
        }

        fn assemble_lanes(
            &self,
            _request: &(u32, u32),
            parts: Vec<Option<String>>,
            _statuses: &[LaneStatus],
        ) -> Option<String> {
            present(parts)
        }
    }

    /// A lane still draining past its request's deadline keeps the
    /// request in flight: with one admission slot the next request is
    /// shed while the straggler runs, and the slot frees once it is done.
    #[test]
    fn a_straggling_lane_holds_its_admission_slot() {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel();
        let backend = StragglerBackend {
            started: (started_tx.into(), started_rx.into()),
            gate: gate.into(),
        };
        let config = ServeConfig {
            workers: 1,
            max_inflight: 1,
            cache_capacity: 0,
            deadline: Duration::from_millis(20),
            cancel_grace: Duration::ZERO,
            ..ServeConfig::default()
        };
        let svc = RouteService::new(backend, config, &Registry::disabled());
        // Rebound after `svc`, so it drops first: a failed assertion
        // releases the straggler instead of hanging the pool's drop.
        let release = release;
        assert_eq!(svc.route((1, 2)), Err(ServeError::DeadlineExceeded));
        assert_eq!(svc.health().inflight, 1, "the straggler holds the slot");
        assert!(
            matches!(svc.route((3, 4)), Err(ServeError::Overloaded { .. })),
            "a second request is shed while the straggler runs"
        );
        let admission = svc.admission().clone();
        release.send(()).unwrap();
        // Dropping the service drains the pool, so the straggler has
        // finished.
        drop(svc);
        assert_eq!(admission.inflight(), 0);
    }

    /// A cooperative backend: lane 0 answers immediately, other lanes
    /// poll the cancel token every millisecond for `spin` and return
    /// `Truncated` as soon as it trips.
    struct CooperativeBackend {
        lanes: usize,
        spin: Duration,
    }

    impl RouteBackend for CooperativeBackend {
        type Request = (u32, u32);
        type Part = String;
        type Response = (String, bool);

        fn lanes(&self) -> usize {
            self.lanes
        }

        fn lane_key(&self, request: &(u32, u32), lane: usize) -> String {
            format!("coop:{}:{}:{lane}", request.0, request.1)
        }

        fn run_lane(
            &self,
            _request: &(u32, u32),
            lane: usize,
            token: &CancelToken,
        ) -> Result<LaneOutcome<String>, String> {
            if lane == 0 {
                return Ok(LaneOutcome::Complete("lane0".to_string()));
            }
            let start = Instant::now();
            while start.elapsed() < self.spin {
                if token.is_cancelled() {
                    return Ok(LaneOutcome::Truncated(format!("lane{lane}-partial")));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(LaneOutcome::Complete(format!("lane{lane}")))
        }

        fn assemble_lanes(
            &self,
            _request: &(u32, u32),
            parts: Vec<Option<String>>,
            statuses: &[LaneStatus],
        ) -> Option<(String, bool)> {
            let cut_short = statuses.iter().any(|status| *status != LaneStatus::Ok);
            present(parts).map(|body| (body, cut_short))
        }
    }

    #[test]
    fn deadline_with_cooperative_backend_serves_truncated_response() {
        let backend = CooperativeBackend {
            lanes: 3,
            spin: Duration::from_secs(5),
        };
        let config = ServeConfig {
            workers: 4,
            cache_capacity: 0,
            deadline: Duration::from_millis(40),
            cancel_grace: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        let registry = Registry::new();
        let svc = RouteService::new(backend, config, &registry);
        let start = Instant::now();
        let (body, truncated) = svc.route((1, 2)).unwrap();
        assert!(truncated, "deadline pressure must mark the response");
        assert!(body.contains("lane0"), "the finished lane is served");
        assert!(body.contains("partial"), "interrupted partials are served");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "cancellation must beat the 5 s spin: {:?}",
            start.elapsed()
        );
        assert_eq!(svc.metrics().cancellations.get(), 1);
        assert_eq!(
            svc.metrics().timeouts.get(),
            0,
            "truncated 200, not a timeout"
        );
        assert_eq!(
            svc.metrics().degraded.get(),
            0,
            "truncation is not degradation: no lane failed"
        );
    }

    /// Two lanes over a `(source, target, prepared)` request: lane 0
    /// reads nothing `prepare` adds, lane 1 does. Each lane echoes whether
    /// the request it was handed had been prepared. `prepare` waits
    /// (bounded) for lane 0 to start, then takes `prepare_sleep`; lane 0
    /// polls its token for up to `spin` and comes back truncated when it
    /// trips.
    struct WaveBackend {
        /// Set once lane 0 has started.
        started: (std::sync::Mutex<bool>, std::sync::Condvar),
        /// Whether a `prepare` gave up waiting for lane 0.
        waited_out: std::sync::atomic::AtomicBool,
        prepares: AtomicUsize,
        prepare_sleep: Duration,
        spin: Duration,
        /// Token polls lane 0 made before it stopped.
        polls: AtomicUsize,
        /// Lane 0 fails while this is positive.
        lane0_failures: AtomicUsize,
    }

    /// How long a `WaveBackend::prepare` waits for lane 0 to start.
    const LANE0_WAIT: Duration = Duration::from_secs(5);

    impl WaveBackend {
        fn new(prepare_sleep: Duration, spin: Duration) -> WaveBackend {
            WaveBackend {
                started: Default::default(),
                waited_out: Default::default(),
                prepares: AtomicUsize::new(0),
                prepare_sleep,
                spin,
                polls: AtomicUsize::new(0),
                lane0_failures: AtomicUsize::new(0),
            }
        }
    }

    impl RouteBackend for WaveBackend {
        type Request = (u32, u32, bool);
        type Part = String;
        type Response = String;

        fn lanes(&self) -> usize {
            2
        }

        fn lane_key(&self, request: &(u32, u32, bool), lane: usize) -> String {
            format!("wave:{}:{}:{lane}", request.0, request.1)
        }

        fn reads_prepare(&self, lane: usize) -> bool {
            lane != 0
        }

        fn prepare(
            &self,
            request: (u32, u32, bool),
            _token: &CancelToken,
            _deadline: &Deadline,
        ) -> (u32, u32, bool) {
            self.prepares.fetch_add(1, Ordering::SeqCst);
            let (started, signal) = &self.started;
            let guard = started.lock().unwrap();
            let (guard, wait) = signal
                .wait_timeout_while(guard, LANE0_WAIT, |started| !*started)
                .unwrap();
            drop(guard);
            self.waited_out.store(wait.timed_out(), Ordering::SeqCst);
            std::thread::sleep(self.prepare_sleep);
            (request.0, request.1, true)
        }

        fn run_lane(
            &self,
            request: &(u32, u32, bool),
            lane: usize,
            token: &CancelToken,
        ) -> Result<LaneOutcome<String>, String> {
            if lane == 0 {
                *self.started.0.lock().unwrap() = true;
                self.started.1.notify_all();
                if self
                    .lane0_failures
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err("lane 0 refused".to_string());
                }
                let start = Instant::now();
                while start.elapsed() < self.spin {
                    if token.is_cancelled() {
                        return Ok(LaneOutcome::Truncated("lane0-partial".to_string()));
                    }
                    self.polls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(LaneOutcome::Complete(format!(
                "lane{lane}(prepared={})",
                request.2
            )))
        }

        fn assemble_lanes(
            &self,
            _request: &(u32, u32, bool),
            parts: Vec<Option<String>>,
            statuses: &[LaneStatus],
        ) -> Option<String> {
            let parts: Vec<String> = parts.into_iter().map(Option::unwrap_or_default).collect();
            Some(marked(parts.join("|"), statuses))
        }
    }

    /// A lane that does not read what `prepare` adds is running while
    /// `prepare` runs: `prepare` sees it start instead of waiting out its
    /// bound, and it was handed the request as it came in.
    #[test]
    fn a_lane_that_skips_prepare_runs_while_prepare_does() {
        let svc = RouteService::new(
            WaveBackend::new(Duration::ZERO, Duration::ZERO),
            ServeConfig::default(),
            &Registry::disabled(),
        );
        let (receipt, out) = svc.route_traced((1, 2, false));
        assert_eq!(out.unwrap(), "lane0(prepared=false)|lane1(prepared=true)");
        let backend = svc.backend();
        assert_eq!(backend.prepares.load(Ordering::SeqCst), 1);
        assert!(
            !backend.waited_out.load(Ordering::SeqCst),
            "prepare waited {LANE0_WAIT:?} for a lane that had not started"
        );
        // Lane 0's span opens before the `prepare` span ends; both are
        // the root's children and the trace stays well-nested.
        let trace = svc.tracer().trace(receipt.id).expect("trace kept");
        let prepare = trace.span("prepare").expect("prepare span");
        let root = trace.root().expect("root span").id;
        let lanes: Vec<_> = trace.spans_named("lane").collect();
        assert_eq!(lanes.len(), 2);
        assert!(lanes.iter().all(|lane| lane.parent == Some(root)));
        assert!(lanes.iter().any(|lane| lane.start_us < prepare.end_us));
        assert!(trace.well_nested());
    }

    /// A deadline that expires while `prepare` runs trips the one token
    /// the early lane observes: the lane, running since before `prepare`,
    /// hands back its partial and the response is truncated.
    #[test]
    fn a_deadline_during_prepare_truncates_the_early_lane() {
        let config = ServeConfig {
            deadline: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let svc = RouteService::new(
            WaveBackend::new(Duration::from_millis(300), Duration::from_secs(5)),
            config,
            &Registry::disabled(),
        );
        let start = Instant::now();
        let out = svc.route((1, 2, false)).unwrap();
        assert!(out.starts_with("lane0-partial|"), "{out}");
        assert!(out.contains("[truncated,"), "{out}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
        // Lane 0 polled its token all through `prepare`, not only after.
        let polls = svc.backend().polls.load(Ordering::SeqCst);
        assert!(polls >= 20, "lane 0 polled {polls} times before the trip");
    }

    /// When every missing lane skips `prepare`, nothing prepares: no
    /// `prepare` span, and the prepare stage records nothing.
    #[test]
    fn prepare_is_skipped_when_no_missing_lane_reads_it() {
        let registry = Registry::new();
        let config = ServeConfig::default();
        let backend = WaveBackend::new(Duration::ZERO, Duration::ZERO);
        backend.lane0_failures.store(1, Ordering::SeqCst);
        let svc = RouteService::new(backend, config, &registry);
        // Lane 0 fails and is not cached; lane 1 is.
        let first = svc.route((1, 2, false)).unwrap();
        assert_eq!(first, "|lane1(prepared=true) [failed,ok]");
        assert_eq!(svc.metrics().stage_prepare.count(), 1);

        let (receipt, second) = svc.route_traced((1, 2, false));
        assert_eq!(
            second.unwrap(),
            "lane0(prepared=false)|lane1(prepared=true)"
        );
        let trace = svc.tracer().trace(receipt.id).expect("trace kept");
        assert!(trace.span("prepare").is_none());
        assert!(trace.span("lane").is_some());
        assert_eq!(svc.metrics().stage_prepare.count(), 1);
        assert_eq!(svc.backend().prepares.load(Ordering::SeqCst), 1);
    }

    /// Three lanes whose late wave is always run inline: lane 0 skips
    /// `prepare` and answers at once; `prepare` takes 150 ms; lanes 1
    /// and 2 record the thread they ran on and spin on their token for
    /// up to 5 s, handing back a partial once it trips.
    #[derive(Default)]
    struct InlineBackend {
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl RouteBackend for InlineBackend {
        type Request = (u32, u32);
        type Part = String;
        type Response = String;

        fn lanes(&self) -> usize {
            3
        }

        fn lane_key(&self, request: &(u32, u32), lane: usize) -> String {
            format!("inline:{}:{}:{lane}", request.0, request.1)
        }

        fn reads_prepare(&self, lane: usize) -> bool {
            lane != 0
        }

        fn prepare(
            &self,
            request: (u32, u32),
            _token: &CancelToken,
            _deadline: &Deadline,
        ) -> (u32, u32) {
            std::thread::sleep(Duration::from_millis(150));
            request
        }

        fn inline_late_lanes(&self, _request: &(u32, u32)) -> bool {
            true
        }

        fn run_lane(
            &self,
            _request: &(u32, u32),
            lane: usize,
            token: &CancelToken,
        ) -> Result<LaneOutcome<String>, String> {
            if lane == 0 {
                return Ok(LaneOutcome::Complete("lane0".to_string()));
            }
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(5) {
                if token.is_cancelled() {
                    return Ok(LaneOutcome::Truncated(format!("lane{lane}-partial")));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(LaneOutcome::Complete(format!("lane{lane}")))
        }

        fn assemble_lanes(
            &self,
            _request: &(u32, u32),
            parts: Vec<Option<String>>,
            statuses: &[LaneStatus],
        ) -> Option<String> {
            present(parts).map(|body| marked(body, statuses))
        }
    }

    /// A deadline that expires during `prepare` is seen before the inline
    /// wave starts: the token trips, each inline lane hands back its
    /// partial at once on the request thread, and the truncated response
    /// counts one cancellation, as a fanned-out wave would.
    #[test]
    fn an_expired_deadline_before_an_inline_wave_serves_the_truncated_ladder() {
        let registry = Registry::new();
        let config = ServeConfig {
            deadline: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let svc = RouteService::new(InlineBackend::default(), config, &registry);
        let start = Instant::now();
        let (receipt, out) = svc.route_traced((1, 2));
        assert_eq!(
            out.unwrap(),
            "lane0|lane1-partial|lane2-partial [ok,truncated,truncated]"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
        let here = std::thread::current().id();
        assert_eq!(*svc.backend().threads.lock().unwrap(), vec![here, here]);
        assert_eq!(svc.metrics().cancellations.get(), 1);
        assert_eq!(svc.metrics().timeouts.get(), 0);
        for (lane, inline) in [("lane0", 0), ("lane1", 1), ("lane2", 1)] {
            let labels = [("technique", lane)];
            let counted = registry.counter_value("arp_serve_lanes_inline_total", &labels);
            assert_eq!(counted, inline, "{lane}");
        }
        let trace = svc.tracer().trace(receipt.id).expect("trace kept");
        let inline: Vec<_> = trace
            .spans_named("lane")
            .filter_map(|span| span.attr("inline"))
            .collect();
        assert_eq!(inline, ["true", "true"]);
        assert!(trace.well_nested());
    }

    #[test]
    fn tripped_deadline_frees_its_worker_for_other_requests() {
        // One worker, two lanes: lane 0 is instant, lane 1 spins
        // cooperatively for up to 5 s under a 40 ms deadline. Request A's
        // tripped deadline must free the worker; request B right behind
        // it then gets its own lane 0 computed (a truncated Ok). If A's
        // lane were still spinning, B's lanes would never start and B
        // would degrade to DeadlineExceeded.
        let backend = CooperativeBackend {
            lanes: 2,
            spin: Duration::from_secs(5),
        };
        let config = ServeConfig {
            workers: 1,
            cache_capacity: 0,
            deadline: Duration::from_millis(40),
            cancel_grace: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        let registry = Registry::new();
        let svc = RouteService::new(backend, config, &registry);
        let (body_a, truncated_a) = svc.route((9, 9)).unwrap();
        assert!(truncated_a);
        assert!(body_a.contains("lane0"));
        let start = Instant::now();
        let (body_b, _) = svc
            .route((1, 1))
            .expect("worker was not freed by A's cancellation");
        assert!(body_b.contains("lane0"), "B's fast lane must have run");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "worker still busy: {:?}",
            start.elapsed()
        );
        assert_eq!(svc.metrics().cancellations.get(), 2);
    }

    /// The tentpole invariant at the serve layer: a degraded request's
    /// trace holds a well-nested tree with spans for every stage —
    /// admission, cache probe, prepare, one attempt per lane (the failed
    /// one marked so), queue waits, assembly — and the tail rule keeps it
    /// even though head sampling is off.
    #[test]
    fn degraded_request_trace_covers_every_stage() {
        let mut backend = EchoBackend::new(2);
        backend.fail_lane = Some(1);
        let registry = Registry::new();
        let config = ServeConfig {
            trace: arp_obs::TraceConfig {
                sample: 0.0,
                ..arp_obs::TraceConfig::default()
            },
            ..ServeConfig::default()
        };
        let svc = RouteService::new(backend, config, &registry);
        let (receipt, result) = svc.route_traced((3, 4));
        let out = result.unwrap();
        assert!(out.contains("[ok,failed]"), "{out}");
        assert_eq!(receipt.status, SpanStatus::Degraded);
        assert!(receipt.kept, "tail rule must keep a degraded trace");

        let trace = svc.tracer().trace(receipt.id).expect("trace in ring");
        assert!(trace.well_nested(), "{:?}", trace.spans);
        assert_eq!(trace.root().unwrap().name, "request");
        assert_eq!(trace.root().unwrap().status, SpanStatus::Degraded);
        for stage in ["admission", "cache_probe", "prepare", "assemble"] {
            assert!(trace.span(stage).is_some(), "missing {stage} span");
        }
        assert_eq!(
            trace.span("assemble").unwrap().attr("outcome"),
            Some("degraded")
        );
        // One attempt per lane, each with its retroactive queue-wait
        // child; the failing lane is not attempted again.
        let lane_spans: Vec<_> = trace.spans_named("lane").collect();
        assert_eq!(lane_spans.len(), 2, "{lane_spans:?}");
        assert_eq!(trace.spans_named("queue").count(), 2);
        assert!(lane_spans.iter().all(|s| s.attr("attempt") == Some("1")));
        let failed = lane_spans
            .iter()
            .find(|s| s.status == SpanStatus::Failed)
            .expect("failed lane span");
        assert_eq!(failed.attr("technique"), Some("lane1"));
        assert!(failed.attr("error").is_some(), "{failed:?}");
        assert!(
            lane_spans
                .iter()
                .all(|s| s.parent == Some(trace.root().unwrap().id)),
            "lane spans hang off the root"
        );
        assert!(registry.counter_value("arp_trace_spans_total", &[]) >= 9);
        assert_eq!(registry.counter_value("arp_trace_sampled_total", &[]), 1);
    }

    /// An open breaker's short-circuited lane still shows up in the
    /// trace — as an instant span marked `open_circuit` — and a cached
    /// repeat's trace records the probe hits without lane spans.
    #[test]
    fn short_circuits_and_cache_hits_are_traced() {
        let mut backend = EchoBackend::new(2);
        backend.fail_lane = Some(0);
        let config = ServeConfig {
            breaker: BreakerConfig {
                window: 8,
                min_volume: 1,
                error_rate: 0.1,
                cooldown_ms: 60_000,
            },
            ..ServeConfig::default()
        };
        let svc = service(backend, config);
        let _ = svc.route((1, 2)).unwrap(); // opens lane0's breaker
        assert_eq!(svc.breaker_state(0), BreakerState::Open);

        let (receipt, result) = svc.route_traced((5, 6));
        result.unwrap();
        let trace = svc.tracer().trace(receipt.id).expect("degraded trace kept");
        assert!(trace.well_nested(), "{:?}", trace.spans);
        let short = trace
            .spans_named("lane")
            .find(|s| s.attr("outcome") == Some("open_circuit"))
            .expect("short-circuit span");
        assert_eq!(short.attr("breaker"), Some("open"));
        assert_eq!(short.duration_us(), 0, "an instant span");

        // Repeat: lane1 is cached; lane0 still short-circuits, so the
        // trace is kept (degraded) and the probe recorded its hit.
        let (receipt, result) = svc.route_traced((5, 6));
        result.unwrap();
        let trace = svc.tracer().trace(receipt.id).expect("repeat trace kept");
        assert_eq!(trace.span("cache_probe").unwrap().attr("hits"), Some("1"));
        assert_eq!(
            trace
                .spans_named("lane")
                .filter(|s| s.attr("outcome") != Some("open_circuit"))
                .count(),
            0,
            "cached lanes must not fan out"
        );
    }

    /// Span attributes whose *values* the pin below records; every other
    /// attribute (durations, queue waits, error texts) is pinned by key.
    const PINNED_ATTR_VALUES: [&str; 4] = ["technique", "attempt", "outcome", "breaker"];

    /// Runs one scripted request and appends what it showed the outside
    /// to `log`: the response (or the error with its exact `reasons`),
    /// then one line per span — `name <parent status [attributes]` —
    /// sorted, because `queue` children take their ids on worker threads.
    fn pin_request(
        log: &mut Vec<String>,
        label: &str,
        svc: &RouteService<EchoBackend>,
        request: (u32, u32),
    ) {
        let (receipt, result) = svc.route_traced(request);
        log.push(format!("== {label}: {result:?}"));
        let Some(trace) = svc.tracer().trace(receipt.id) else {
            log.push("(trace not kept)".to_string());
            return;
        };
        let mut spans: Vec<String> = trace
            .spans
            .iter()
            .map(|span| {
                let parent = trace
                    .spans
                    .iter()
                    .find(|s| Some(s.id) == span.parent)
                    .map_or("-", |s| s.name);
                let mut attrs: Vec<String> = span
                    .attrs
                    .iter()
                    .map(|(key, value)| {
                        if PINNED_ATTR_VALUES.contains(key) {
                            format!("{key}={value}")
                        } else {
                            key.to_string()
                        }
                    })
                    .collect();
                attrs.sort();
                format!(
                    "{} <{parent} {} [{}]",
                    span.name,
                    span.status.as_str(),
                    attrs.join(" ")
                )
            })
            .collect();
        spans.sort();
        log.extend(spans);
    }

    /// The failure ladder's oracle: a fixed script through every rung —
    /// healthy, cached, failed, panicked, breaker-opened, short-circuited,
    /// probe outage, head sampling off — pinning per request the
    /// response and the span tree's shape, and at the end every
    /// `arp_serve_*` counter plus the spans recorded and traces kept.
    #[test]
    fn failure_ladder_is_pinned() {
        let registry = Registry::new();
        let mut log = Vec::new();
        let breaker = BreakerConfig {
            window: 8,
            min_volume: 3,
            error_rate: 0.5,
            cooldown_ms: 60_000,
        };

        let mut backend = EchoBackend::new(3);
        backend.flaky_lane = Some(1);
        let svc = RouteService::new(backend, ServeConfig::default(), &registry);
        pin_request(&mut log, "healthy miss", &svc, (1, 2));
        pin_request(&mut log, "cached repeat", &svc, (1, 2));
        svc.backend().flaky_failures.store(1, Ordering::SeqCst);
        pin_request(&mut log, "flaky lane fails its one attempt", &svc, (3, 4));
        drop(svc);

        let mut backend = EchoBackend::new(1);
        backend.fail_lane = Some(0);
        let svc = RouteService::new(backend, ServeConfig::default(), &registry);
        pin_request(&mut log, "only lane fails", &svc, (5, 6));
        drop(svc);

        let mut backend = EchoBackend::new(1);
        backend.panic_lane = Some(0);
        let svc = RouteService::new(backend, ServeConfig::default(), &registry);
        pin_request(&mut log, "only lane panics", &svc, (7, 8));
        drop(svc);

        // Lane 0 always fails, one attempt per request: its third failure
        // reaches the breaker's minimum volume and opens it.
        let mut backend = EchoBackend::new(2);
        backend.fail_lane = Some(0);
        let config = ServeConfig {
            cache_capacity: 0,
            breaker,
            ..ServeConfig::default()
        };
        let svc = RouteService::new(backend, config, &registry);
        pin_request(&mut log, "lane fails", &svc, (1, 1));
        pin_request(&mut log, "lane fails again", &svc, (2, 2));
        assert_eq!(svc.breaker_state(0), BreakerState::Closed);
        pin_request(&mut log, "third failure opens the breaker", &svc, (4, 4));
        assert_eq!(svc.breaker_state(0), BreakerState::Open);
        pin_request(&mut log, "open breaker short-circuits", &svc, (3, 3));
        drop(svc);

        let config = ServeConfig {
            faults: FaultPlan::parse("cache.get=error").unwrap(),
            ..ServeConfig::default()
        };
        let svc = RouteService::new(EchoBackend::new(2), config, &registry);
        pin_request(&mut log, "cache.get outage, first", &svc, (1, 2));
        pin_request(&mut log, "cache.get outage, repeat", &svc, (1, 2));
        drop(svc);

        // Head sampling off: spans are recorded all the same (they reach
        // `arp_trace_spans_total`), a healthy trace is dropped at finish
        // and the tail rule keeps the degraded one whole.
        let mut backend = EchoBackend::new(2);
        backend.fail_lane = Some(0);
        let mut config = ServeConfig::default();
        config.trace.sample = 0.0;
        let svc = RouteService::new(backend, config.clone(), &registry);
        pin_request(&mut log, "unsampled, degraded", &svc, (1, 2));
        drop(svc);
        let svc = RouteService::new(EchoBackend::new(2), config, &registry);
        pin_request(&mut log, "unsampled, healthy", &svc, (1, 2));
        drop(svc);

        // Every moved counter (a series absent here reads 0). A worker
        // bumps `arp_serve_jobs_total` after the requester is already
        // awake, so that one is not a function of the script.
        log.push("== counters".to_string());
        for sample in registry.samples() {
            if let arp_obs::SampleValue::Counter(value) = sample.value {
                let pinned = sample.name.starts_with("arp_serve_")
                    || sample.name == "arp_trace_spans_total"
                    || sample.name == "arp_trace_sampled_total";
                if pinned && sample.name != "arp_serve_jobs_total" && value > 0 {
                    let labels: Vec<String> = sample
                        .labels
                        .iter()
                        .map(|(key, value)| format!("{key}={value}"))
                        .collect();
                    log.push(format!("{}{{{}}} {value}", sample.name, labels.join(",")));
                }
            }
        }

        let transcript = log.join("\n");
        assert_eq!(
            transcript,
            PINNED_LADDER.trim(),
            "the failure ladder moved; full transcript:\n{transcript}"
        );
    }

    const PINNED_LADDER: &str = r#"
== healthy miss: Ok("1,2 => lane0(1,2)|lane1(1,2)|lane2(1,2)")
admission <request ok [inflight]
assemble <request ok []
cache_probe <request ok [hits lanes]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane2]
prepare <request ok []
queue <lane ok []
queue <lane ok []
queue <lane ok []
request <- ok []
== cached repeat: Ok("1,2 => lane0(1,2)|lane1(1,2)|lane2(1,2)")
admission <request ok [inflight]
assemble <request ok []
cache_probe <request ok [hits lanes]
request <- ok []
== flaky lane fails its one attempt: Ok("3,4 => lane0(3,4)|lane2(3,4) [ok,failed,ok]")
admission <request ok [inflight]
assemble <request ok [outcome=degraded]
cache_probe <request ok [hits lanes]
lane <request failed [attempt=1 breaker=closed error outcome=failed queue_wait_us technique=lane1]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane2]
prepare <request ok []
queue <lane ok []
queue <lane ok []
queue <lane ok []
request <- degraded []
== only lane fails: Err(AllLanesFailed { reasons: "lane0: lane 0 refused" })
admission <request ok [inflight]
assemble <request failed [outcome=all_lanes_failed]
cache_probe <request ok [hits lanes]
lane <request failed [attempt=1 breaker=closed error outcome=failed queue_wait_us technique=lane0]
prepare <request ok []
queue <lane ok []
request <- failed []
== only lane panics: Err(AllLanesFailed { reasons: "lane0: lane panicked: lane 0 exploded" })
admission <request ok [inflight]
assemble <request failed [outcome=all_lanes_failed]
cache_probe <request ok [hits lanes]
lane <request failed [attempt=1 breaker=closed outcome=failed panic queue_wait_us technique=lane0]
prepare <request ok []
queue <lane ok []
request <- failed []
== lane fails: Ok("1,1 => lane1(1,1) [failed,ok]")
admission <request ok [inflight]
assemble <request ok [outcome=degraded]
cache_probe <request ok [hits lanes]
lane <request failed [attempt=1 breaker=closed error outcome=failed queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
prepare <request ok []
queue <lane ok []
queue <lane ok []
request <- degraded []
== lane fails again: Ok("2,2 => lane1(2,2) [failed,ok]")
admission <request ok [inflight]
assemble <request ok [outcome=degraded]
cache_probe <request ok [hits lanes]
lane <request failed [attempt=1 breaker=closed error outcome=failed queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
prepare <request ok []
queue <lane ok []
queue <lane ok []
request <- degraded []
== third failure opens the breaker: Ok("4,4 => lane1(4,4) [failed,ok]")
admission <request ok [inflight]
assemble <request ok [outcome=degraded]
cache_probe <request ok [hits lanes]
lane <request failed [attempt=1 breaker=closed error outcome=failed queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
prepare <request ok []
queue <lane ok []
queue <lane ok []
request <- degraded []
== open breaker short-circuits: Ok("3,3 => lane1(3,3) [open_circuit,ok]")
admission <request ok [inflight]
assemble <request ok [outcome=degraded]
cache_probe <request ok [hits lanes]
lane <request failed [breaker=open outcome=open_circuit technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
prepare <request ok []
queue <lane ok []
request <- degraded []
== cache.get outage, first: Ok("1,2 => lane0(1,2)|lane1(1,2)")
admission <request ok [inflight]
assemble <request ok []
cache_probe <request ok [fault_injected hits lanes]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
prepare <request ok []
queue <lane ok []
queue <lane ok []
request <- ok []
== cache.get outage, repeat: Ok("1,2 => lane0(1,2)|lane1(1,2)")
admission <request ok [inflight]
assemble <request ok []
cache_probe <request ok [fault_injected hits lanes]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
prepare <request ok []
queue <lane ok []
queue <lane ok []
request <- ok []
== unsampled, degraded: Ok("1,2 => lane1(1,2) [failed,ok]")
admission <request ok [inflight]
assemble <request ok [outcome=degraded]
cache_probe <request ok [hits lanes]
lane <request failed [attempt=1 breaker=closed error outcome=failed queue_wait_us technique=lane0]
lane <request ok [attempt=1 breaker=closed outcome=complete queue_wait_us technique=lane1]
prepare <request ok []
queue <lane ok []
queue <lane ok []
request <- degraded []
== unsampled, healthy: Ok("1,2 => lane0(1,2)|lane1(1,2)")
(trace not kept)
== counters
arp_serve_admitted_total{} 13
arp_serve_breaker_transitions_total{} 1
arp_serve_cache_hits_total{} 3
arp_serve_cache_misses_total{} 12
arp_serve_degraded_responses_total{} 6
arp_serve_faults_injected_total{kind=error,site=cache.get} 2
arp_serve_lane_failures_total{reason=error,technique=lane0} 5
arp_serve_lane_failures_total{reason=error,technique=lane1} 1
arp_serve_lane_failures_total{reason=open_circuit,technique=lane0} 1
arp_serve_lane_failures_total{reason=panic,technique=lane0} 1
arp_trace_sampled_total{} 12
arp_trace_spans_total{} 111
"#;
}
