//! A dependency-free HTTP server exposing the demo system.
//!
//! Endpoints (mirroring the paper's web demo):
//!
//! * `GET  /`             — the interactive map page (see [`crate::html`]),
//! * `GET  /api/meta`     — study area, city name, approach labels,
//! * `GET  /api/network`  — a down-sampled edge set for drawing the map,
//! * `POST /api/route`    — `{slon, slat, tlon, tlat}` → blinded routes,
//! * `POST /api/rate`     — `{a, b, c, d, resident, fastest_minutes, comment}`,
//! * `GET  /api/results`  — per-label rating summaries,
//! * `GET  /api/results.csv` — the raw response CSV,
//! * `GET  /api/metrics`  — Prometheus text exposition of every counter
//!   and histogram in the processor's [`arp_obs::Registry`],
//! * `GET  /api/health`   — serving health: verdict, queue pressure,
//!   per-technique breaker states, cache occupancy, and the live-traffic
//!   state (current graph epoch, overlay size, active closures),
//! * `POST /api/traffic`  — applies a traffic delta (either raw grammar,
//!   `cat:primary*1.8; close:412@3`, or wrapped as `{"delta": "…"}`);
//!   success bumps the graph epoch atomically, so subsequent routes see
//!   the new weights while in-flight requests finish on the epoch they
//!   pinned at admission,
//! * `GET  /api/debug/traces` — the trace ring buffer, newest first,
//!   filterable with `?min_ms=`, `?status=degraded` and `?technique=`,
//! * `GET  /api/trace/<id>` — one captured trace rendered as a nested
//!   span tree.
//!
//! Every request through the serving pipeline is traced: the response
//! body carries `"trace_id"` (echoed as an `X-Arp-Trace-Id` header, on
//! successes and serving failures alike), head-sampled traces plus every
//! slow/degraded/truncated/failed request land in the ring buffer behind
//! the debug endpoints, and requests crossing the `slow_ms` threshold
//! emit a single-line JSON log to stderr for grep-ability.
//!
//! Every request increments `arp_http_requests_total{endpoint,status}` and
//! feeds `arp_http_request_latency_ms{endpoint}`; unknown paths share the
//! `other` endpoint label so cardinality stays bounded.
//!
//! `POST /api/route` runs through the `arp-serve` pipeline: admission
//! control (overload answers `503` with an adaptive `Retry-After`), a
//! per-technique route cache, and parallel technique fan-out on the
//! worker pool with per-lane failure isolation — a failed or panicked
//! technique degrades its lane instead of the whole request, so the
//! response stays `200` while at least one technique produced routes
//! (`502` when all of them failed, `504` when the deadline passed with
//! nothing to serve, `404` when a technique answered that the matched
//! points are not connected at the request's traffic epoch).
//! Degraded responses carry `"degraded": true` and a
//! `"lane_status"` map keyed by blind label; healthy responses omit both
//! keys and stay byte-identical to the fault-free wire format. The
//! serving instruments (`arp_serve_*`) share the processor's registry, so
//! `/api/metrics` exposes queue depth, shed counts, cache hit rates,
//! lane failures and breaker states alongside the technique metrics.
//!
//! The request handler is a pure function over `(method, path, body)` so
//! tests exercise the full API without sockets; [`crate::wire`] puts it
//! on TCP.

use std::sync::{Arc, OnceLock};

use arp_obs::{
    CompletedTrace, Counter, Histogram, Registry, Span, SpanStatus, TraceId, TraceReceipt,
    DEFAULT_LATENCY_BUCKETS_MS,
};
use arp_roadnet::geo::Point;
use arp_serve::{RouteService, ServeConfig, ServeError};

use crate::backend::DemoBackend;
use crate::error::DemoError;
use crate::html;
use crate::json::{self, Json};
use crate::query::QueryProcessor;
use crate::render::{self, CoordText};
use crate::store::{ResponseStore, Submission};
use crate::wire::STATUSES;

/// Cap on `POST /api/traffic` bodies. Deltas are operator commands — a
/// handful of statements, not bulk data — so anything past this is a
/// client bug or abuse, answered `413` before parsing.
pub const TRAFFIC_BODY_CAP: usize = 64 * 1024;

/// An HTTP response produced by the handler.
#[derive(Clone, Debug, PartialEq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, …).
    pub status: u16,
    /// Content type.
    pub content_type: &'static str,
    /// Body bytes (UTF-8 text for all our endpoints).
    pub body: String,
    /// `Retry-After` header value in seconds (load-shedding responses).
    pub retry_after: Option<u32>,
    /// The request's trace id, echoed as an `X-Arp-Trace-Id` header.
    /// Set on every response that ran the serving pipeline.
    pub trace_id: Option<String>,
}

impl HttpResponse {
    fn ok(content_type: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type,
            body,
            retry_after: None,
            trace_id: None,
        }
    }

    fn ok_json(v: Json) -> HttpResponse {
        HttpResponse::ok("application/json", v.to_string_compact())
    }

    /// The one error-rendering path: every non-200 reply — client 400s,
    /// the serving ladder's 502/503/504 — goes through here, so the body
    /// shape (`{"error": …}`) and the optional `Retry-After` header stay
    /// uniform across endpoints.
    fn render_error(
        status: u16,
        message: impl Into<String>,
        retry_after: Option<u32>,
    ) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: Json::object([("error", Json::String(message.into()))]).to_string_compact(),
            retry_after,
            trace_id: None,
        }
    }

    fn error(status: u16, message: impl Into<String>) -> HttpResponse {
        HttpResponse::render_error(status, message, None)
    }

    pub(crate) fn overloaded(retry_after_s: u32) -> HttpResponse {
        HttpResponse::render_error(503, "overloaded, please retry", Some(retry_after_s))
    }

    /// Maps the serving pipeline's failure ladder onto HTTP statuses:
    /// 503 (shed, with an adaptive `Retry-After`), 504 (deadline, nothing
    /// finished), 502 (every technique lane failed). The trace id rides
    /// along in the body and header — a shed or failed request is kept
    /// by the tail-sampling rules, so the id is immediately resolvable
    /// at `GET /api/trace/<id>`.
    fn serve_error(err: &ServeError, trace_id: TraceId) -> HttpResponse {
        let (status, message, retry_after) = match err {
            ServeError::Overloaded { retry_after_s } => (
                503,
                "overloaded, please retry".to_string(),
                Some(*retry_after_s),
            ),
            ServeError::DeadlineExceeded => (
                504,
                "route computation exceeded its deadline".to_string(),
                None,
            ),
            ServeError::AllLanesFailed { reasons } => {
                (502, format!("all technique lanes failed: {reasons}"), None)
            }
        };
        HttpResponse::traced_error(status, message, retry_after, trace_id)
    }

    /// An error reply of the serving pipeline: the body carries the
    /// request's trace id beside the message, and so does the
    /// `X-Arp-Trace-Id` header.
    fn traced_error(
        status: u16,
        message: String,
        retry_after: Option<u32>,
        trace_id: TraceId,
    ) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: Json::object([
                ("error", Json::str(message)),
                ("trace_id", Json::str(trace_id.to_string())),
            ])
            .to_string_compact(),
            retry_after,
            trace_id: Some(trace_id.to_string()),
        }
    }
}

/// What a request is counted under: the bounded-cardinality `endpoint`
/// label of the HTTP metrics.
#[derive(Clone, Copy)]
enum Endpoint {
    Index,
    Meta,
    Network,
    Route,
    Rate,
    Results,
    ResultsCsv,
    Metrics,
    Health,
    Traffic,
    DebugTraces,
    Trace,
    Other,
}

impl Endpoint {
    const COUNT: usize = Endpoint::Other as usize + 1;

    /// Maps a request to its endpoint. The query string never
    /// participates (it is unbounded), and every `/api/trace/<id>` shares
    /// one label for the same reason.
    fn of(method: &str, path: &str) -> Endpoint {
        let path = path.split_once('?').map_or(path, |(p, _)| p);
        match (method, path) {
            ("GET", "/") => Endpoint::Index,
            ("GET", "/api/meta") => Endpoint::Meta,
            ("GET", "/api/network") => Endpoint::Network,
            ("POST", "/api/route") => Endpoint::Route,
            ("POST", "/api/rate") => Endpoint::Rate,
            ("GET", "/api/results") => Endpoint::Results,
            ("GET", "/api/results.csv") => Endpoint::ResultsCsv,
            ("GET", "/api/metrics") => Endpoint::Metrics,
            ("GET", "/api/health") => Endpoint::Health,
            ("POST", "/api/traffic") => Endpoint::Traffic,
            ("GET", "/api/debug/traces") => Endpoint::DebugTraces,
            ("GET", p) if p.starts_with("/api/trace/") => Endpoint::Trace,
            _ => Endpoint::Other,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Endpoint::Index => "index",
            Endpoint::Meta => "meta",
            Endpoint::Network => "network",
            Endpoint::Route => "route",
            Endpoint::Rate => "rate",
            Endpoint::Results => "results",
            Endpoint::ResultsCsv => "results_csv",
            Endpoint::Metrics => "metrics",
            Endpoint::Health => "health",
            Endpoint::Traffic => "traffic",
            Endpoint::DebugTraces => "debug_traces",
            Endpoint::Trace => "trace",
            Endpoint::Other => "other",
        }
    }
}

/// The two per-request HTTP instruments, resolved from the registry the
/// first time an endpoint (and an endpoint's status) is seen and lock-free
/// after that, so a request takes no registry mutex. Resolved lazily, not
/// at start-up, because a series that was never hit must stay out of
/// `/api/metrics`.
#[derive(Default)]
struct HttpMetrics {
    /// `arp_http_request_latency_ms{endpoint}`, indexed by [`Endpoint`].
    latency: [OnceLock<Histogram>; Endpoint::COUNT],
    /// `arp_http_requests_total{endpoint,status}`, indexed by
    /// [`Endpoint`] × [`STATUSES`].
    requests: [[OnceLock<Counter>; STATUSES.len()]; Endpoint::COUNT],
}

impl HttpMetrics {
    fn latency(&self, registry: &Registry, endpoint: Endpoint) -> &Histogram {
        self.latency[endpoint as usize].get_or_init(|| {
            registry.histogram(
                "arp_http_request_latency_ms",
                "Wall-clock time handling one HTTP request, in milliseconds.",
                &[("endpoint", endpoint.label())],
                &DEFAULT_LATENCY_BUCKETS_MS,
            )
        })
    }

    fn count(&self, registry: &Registry, endpoint: Endpoint, status: u16) {
        let resolve = || {
            registry.counter(
                "arp_http_requests_total",
                "HTTP requests served, by endpoint and status code.",
                &[
                    ("endpoint", endpoint.label()),
                    ("status", &status.to_string()),
                ],
            )
        };
        match STATUSES.iter().position(|(s, _)| *s == status) {
            Some(slot) => self.requests[endpoint as usize][slot]
                .get_or_init(resolve)
                .inc(),
            None => resolve().inc(),
        }
    }
}

/// The demo application state shared across connections.
pub struct DemoApp {
    /// The query processor (network + providers + live traffic).
    pub processor: Arc<QueryProcessor>,
    /// The feedback store.
    pub store: ResponseStore,
    /// Shared metrics registry (cloned from the processor's, so HTTP,
    /// serving and technique metrics land in one exposition).
    registry: Registry,
    http: HttpMetrics,
    /// The serving pipeline `/api/route` runs through.
    service: RouteService<DemoBackend>,
    /// The network's rendered coordinates, which `/api/route` bodies are
    /// written from.
    coords: CoordText,
}

impl DemoApp {
    /// Builds the app for a processor with the default serving
    /// configuration, sharing its metrics registry.
    pub fn new(processor: QueryProcessor) -> DemoApp {
        DemoApp::with_config(processor, ServeConfig::default())
    }

    /// Builds the app with an explicit serving configuration.
    pub fn with_config(processor: QueryProcessor, config: ServeConfig) -> DemoApp {
        let registry = processor.registry().clone();
        let processor = Arc::new(processor);
        let service =
            RouteService::new(DemoBackend::new(Arc::clone(&processor)), config, &registry);
        // Wire the journal-append failpoint into the durability layer:
        // when a chaos plan arms `journal.append`, the hook fires inside
        // the traffic swap, *before* the epoch publishes — modelling a
        // full disk or an EIO exactly where a real one would land.
        let plan = service.config().faults.clone();
        if plan.is_enabled() {
            processor
                .traffic()
                .set_journal_fault_hook(move || plan.fire(arp_serve::sites::JOURNAL_APPEND));
        }
        DemoApp {
            coords: CoordText::new(processor.network().points()),
            processor,
            store: ResponseStore::new(),
            registry,
            http: HttpMetrics::default(),
            service,
        }
    }

    /// The serving pipeline (admission, cache, worker pool).
    pub fn service(&self) -> &RouteService<DemoBackend> {
        &self.service
    }

    /// Answers a request `read_request` refused at the wire — a body
    /// past [`crate::wire::MAX_BODY_BYTES`], a header block past the line
    /// or count bounds, an unreadable `Content-Length`. The request was
    /// never read to its end, so this cannot go through the normal
    /// handler. Still counted in `arp_http_requests_total` under the
    /// endpoint's label.
    pub(crate) fn reject_unread(
        &self,
        method: &str,
        path: &str,
        refusal: (u16, &str),
    ) -> HttpResponse {
        let endpoint = Endpoint::of(method, path);
        let resp = HttpResponse::error(refusal.0, refusal.1);
        self.http.count(&self.registry, endpoint, resp.status);
        resp
    }

    /// Dispatches one request, recording the request count (by endpoint
    /// and status) and handling latency into the shared registry.
    pub fn handle(&self, method: &str, path: &str, body: &str) -> HttpResponse {
        let endpoint = Endpoint::of(method, path);
        let timer = self.http.latency(&self.registry, endpoint).start_timer();
        let resp = self.dispatch(endpoint, method, path, body);
        drop(timer);
        self.http.count(&self.registry, endpoint, resp.status);
        resp
    }

    /// Runs the handler of `endpoint`, which [`Endpoint::of`] matched
    /// from `method` and `path`. The query string is split off here —
    /// only the debug endpoints consume it.
    fn dispatch(&self, endpoint: Endpoint, method: &str, path: &str, body: &str) -> HttpResponse {
        let (path, query) = path.split_once('?').unwrap_or((path, ""));
        match endpoint {
            Endpoint::Index => HttpResponse::ok(
                "text/html; charset=utf-8",
                html::index_page(self.processor.name()),
            ),
            Endpoint::Meta => self.meta(),
            Endpoint::Network => self.network_sample(),
            Endpoint::Route => self.route(body),
            Endpoint::Rate => self.rate(body),
            Endpoint::Results => self.results(),
            Endpoint::ResultsCsv => HttpResponse::ok("text/csv", self.store.to_csv()),
            Endpoint::Metrics => HttpResponse::ok(
                "text/plain; version=0.0.4",
                self.registry.render_prometheus(),
            ),
            Endpoint::Health => self.health(),
            Endpoint::Traffic => self.traffic(body),
            Endpoint::DebugTraces => self.debug_traces(query),
            Endpoint::Trace => {
                self.trace_tree(path.strip_prefix("/api/trace/").unwrap_or_default())
            }
            Endpoint::Other if matches!(method, "GET" | "POST") => {
                HttpResponse::error(404, format!("no such endpoint {path}"))
            }
            Endpoint::Other => HttpResponse::error(405, format!("method {method} not allowed")),
        }
    }

    fn meta(&self) -> HttpResponse {
        let bb = self.processor.study_area();
        HttpResponse::ok_json(Json::object([
            ("city", Json::str(self.processor.name())),
            ("min_lon", Json::Number(bb.min_lon)),
            ("min_lat", Json::Number(bb.min_lat)),
            ("max_lon", Json::Number(bb.max_lon)),
            ("max_lat", Json::Number(bb.max_lat)),
            (
                "labels",
                Json::Array(crate::blind::LABELS.map(Json::str).to_vec()),
            ),
        ]))
    }

    fn network_sample(&self) -> HttpResponse {
        let net = self.processor.network();
        const MAX_SEGMENTS: usize = 5_000;
        let step = net.num_edges().div_ceil(MAX_SEGMENTS).max(1);
        let mut segments = Vec::new();
        for e in net.edges().step_by(step) {
            let a = net.point(net.tail(e));
            let b = net.point(net.head(e));
            segments.push(Json::Array(vec![
                Json::Number(a.lon),
                Json::Number(a.lat),
                Json::Number(b.lon),
                Json::Number(b.lat),
            ]));
        }
        HttpResponse::ok_json(Json::object([("segments", Json::Array(segments))]))
    }

    fn route(&self, body: &str) -> HttpResponse {
        let req = match json::parse(body) {
            Ok(v) => v,
            Err(e) => return HttpResponse::error(400, e.to_string()),
        };
        let num = |key: &str| -> Result<f64, DemoError> {
            req.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| DemoError::BadRequest(format!("missing number {key:?}")))
        };
        let parsed = (|| -> Result<_, DemoError> {
            let s = Point::new(num("slon")?, num("slat")?);
            let t = Point::new(num("tlon")?, num("tlat")?);
            Ok((s, t))
        })();
        let (s, t) = match parsed {
            Ok(p) => p,
            Err(e) => return HttpResponse::error(400, e.to_string()),
        };
        // Normalize to vertices here (client errors stay at the HTTP
        // layer), then run the snapped query through the serving pipeline.
        // `backend.snap` is the pre-fan-out failpoint: an injected error
        // models the normalization dependency failing outright.
        if let Err(message) = self
            .service
            .config()
            .faults
            .fire(arp_serve::sites::BACKEND_SNAP)
        {
            return HttpResponse::error(500, message);
        }
        let snapped = match self.processor.snap(s, t) {
            Ok(q) => q,
            Err(
                e @ (DemoError::OutOfArea { .. }
                | DemoError::NoNearbyRoad { .. }
                | DemoError::SameLocation),
            ) => return HttpResponse::error(400, e.to_string()),
            Err(e) => return HttpResponse::error(500, e.to_string()),
        };
        // Pin the current traffic snapshot *here*, before the serving
        // pipeline's cache probe: every cached lane is checked against it,
        // so a tick that lands after this line can never hand this
        // request a route computed under different weights (and vice versa).
        let (receipt, outcome) = self
            .service
            .route_traced(self.processor.prepare_query(snapped));
        self.log_slow(&receipt);
        match outcome {
            // A technique answered, and no approach has a route: the
            // matched points are not connected at this epoch (a closure
            // cut them apart). The client's question has no answer; the
            // service is fine.
            Ok(resp) if !resp.has_route() => {
                HttpResponse::traced_error(404, DemoError::NoRoute.to_string(), None, receipt.id)
            }
            Ok(resp) => HttpResponse {
                status: 200,
                content_type: "application/json",
                body: render::route_body(&resp, receipt.id, self.processor.network(), &self.coords),
                retry_after: None,
                trace_id: Some(receipt.id.to_string()),
            },
            Err(e) => HttpResponse::serve_error(&e, receipt.id),
        }
    }

    /// Emits the threshold-gated slow-request log line: single-line JSON
    /// to stderr, so `grep slow_request` over process logs yields one
    /// parseable record per offender, each resolvable at
    /// `GET /api/trace/<id>` (slow traces are always tail-kept).
    fn log_slow(&self, receipt: &TraceReceipt) {
        if !receipt.slow {
            return;
        }
        let line = Json::object([
            ("event", Json::str("slow_request")),
            ("trace_id", Json::str(receipt.id.to_string())),
            ("duration_ms", Json::Number(receipt.duration_ms)),
            ("status", Json::str(receipt.status.as_str())),
            (
                "threshold_ms",
                Json::Number(self.service.tracer().slow_ms() as f64),
            ),
        ]);
        eprintln!("{}", line.to_string_compact());
    }

    /// `POST /api/traffic` — ingests a traffic delta and bumps the graph
    /// epoch atomically.
    ///
    /// The body is either raw delta grammar
    /// (`cat:primary*1.8; close:412@3; reopen:9; clear`) or a JSON object
    /// `{"delta": "<grammar>"}` — the JSON form exists so callers already
    /// speaking JSON to this API never need a second content type. A
    /// delta is all-or-nothing: one invalid statement rejects the whole
    /// body with a 400 and the epoch does not move. On success the reply
    /// carries the new epoch, the number of operations applied, and the
    /// closure count. The route cache needs no word of the bump: every
    /// cached lane is checked against the snapshot its request pinned, so
    /// requests after the bump carry it or miss.
    ///
    /// Operator endpoint: like `/api/health` it is not participant-facing
    /// and does not touch the blinding.
    fn traffic(&self, body: &str) -> HttpResponse {
        // Cap check before any parsing: deltas are short operator
        // commands, so an oversized body is rejected outright instead of
        // being parsed (and journaled) at unbounded cost.
        if body.len() > TRAFFIC_BODY_CAP {
            return HttpResponse::error(
                413,
                format!(
                    "traffic delta body of {} bytes exceeds the {TRAFFIC_BODY_CAP}-byte cap",
                    body.len()
                ),
            );
        }
        let text = match json::parse(body) {
            Ok(v) => match v.get("delta").and_then(Json::as_str) {
                Some(s) => s.to_string(),
                None => {
                    return HttpResponse::error(
                        400,
                        "JSON body must carry a \"delta\" string (or send raw delta grammar)",
                    )
                }
            },
            // Not JSON: treat the body as raw delta grammar.
            Err(_) => body.to_string(),
        };
        let delta = match arp_traffic::TrafficDelta::parse(&text) {
            Ok(d) => d,
            Err(e) => return HttpResponse::error(400, e.to_string()),
        };
        match self.processor.traffic().apply_delta(&delta) {
            Ok(outcome) => HttpResponse::ok_json(Json::object([
                ("epoch", Json::Number(outcome.epoch as f64)),
                ("applied", Json::Number(outcome.applied as f64)),
                ("expired", Json::Number(outcome.expired as f64)),
                (
                    "closures_active",
                    Json::Number(outcome.closures_active as f64),
                ),
            ])),
            // A journal-append failure is the storage layer's problem,
            // not the client's: the delta was valid, the epoch did not
            // move, and a retry may well succeed once the disk recovers —
            // so it maps to 503 + Retry-After, never 400.
            Err(e @ arp_traffic::TrafficError::Journal { .. }) => {
                HttpResponse::render_error(503, e.to_string(), Some(1))
            }
            Err(e) => HttpResponse::error(400, e.to_string()),
        }
    }

    fn rate(&self, body: &str) -> HttpResponse {
        let submission = match json::parse(body) {
            Ok(req) => submission_of(&req),
            Err(e) => return HttpResponse::error(400, e.to_string()),
        };
        match submission.and_then(|s| self.store.submit(s).map_err(|e| e.to_string())) {
            Ok(()) => HttpResponse::ok_json(Json::object([
                ("ok", Json::Bool(true)),
                ("total_responses", Json::Number(self.store.len() as f64)),
            ])),
            Err(e) => HttpResponse::error(400, e),
        }
    }

    /// `GET /api/health` — the serving pipeline's liveness snapshot for
    /// load balancers and operators: queue pressure, inflight count,
    /// per-technique breaker states and cache occupancy. `ready` and
    /// `degraded` answer 200 (still taking traffic); `unhealthy` (every
    /// breaker open) answers 503 so a balancer rotates the instance out.
    ///
    /// This is an operator endpoint, not a participant-facing one, so it
    /// names techniques directly — the blinding only governs `/api/route`
    /// responses.
    fn health(&self) -> HttpResponse {
        let report = self.service.health();
        let snapshot = self.processor.traffic().snapshot();
        // The CH index tier's readiness verdict: asking for the current
        // epoch's metric customizes it when the published one is older
        // (the first read after a bump pays one customization), so
        // `ready` is `false` only when another epoch published in
        // between. No request reads the tier, so neither is a
        // degradation, and a disabled tier is the configured steady
        // state.
        let index = match self.processor.ch_index() {
            Some(index) => {
                let ready = index.metric_for(snapshot.epoch()).is_some();
                Json::object([
                    ("enabled", Json::Bool(true)),
                    ("ready", Json::Bool(ready)),
                    ("metric_epoch", Json::Number(index.ready_epoch() as f64)),
                    (
                        "customizations",
                        Json::Number(index.customizations() as f64),
                    ),
                ])
            }
            None => Json::object([("enabled", Json::Bool(false))]),
        };
        // The durability layer's recovery outcome: `disabled` when the
        // traffic state is in-memory only; otherwise what the last
        // startup found — `clean`, `replayed` (journal suffix applied,
        // possibly with a truncated torn tail) or `degraded` (something
        // was quarantined and the state fell back to what remained
        // valid). Operators alert on `degraded` and triage the
        // `*.quarantine` files (docs/OPERATIONS.md).
        let recovery = match self.processor.recovery_report() {
            Some(r) => Json::object([
                ("status", Json::str(r.status.as_str())),
                (
                    "snapshot_epoch",
                    match r.snapshot_epoch {
                        Some(e) => Json::Number(e as f64),
                        None => Json::Null,
                    },
                ),
                ("replayed_records", Json::Number(r.replayed_records as f64)),
                ("torn_tails", Json::Number(r.torn_tails as f64)),
                (
                    "quarantined",
                    Json::Array(r.quarantined.iter().map(Json::str).collect()),
                ),
                ("epoch", Json::Number(r.epoch as f64)),
                ("duration_ms", Json::Number(r.duration_ms as f64)),
            ]),
            None => Json::object([("status", Json::str("disabled"))]),
        };
        let status = match report.verdict {
            arp_serve::HealthVerdict::Unhealthy => 503,
            _ => 200,
        };
        let breakers = Json::object_of(
            report
                .lanes
                .iter()
                .map(|l| (l.technique.clone(), Json::str(l.breaker.as_str()))),
        );
        let body = Json::object([
            ("status", Json::str(report.verdict.as_str())),
            ("queue_depth", Json::Number(report.queue_depth as f64)),
            ("queue_capacity", Json::Number(report.queue_capacity as f64)),
            ("inflight", Json::Number(report.inflight as f64)),
            ("max_inflight", Json::Number(report.max_inflight as f64)),
            ("breakers", breakers),
            (
                "cache",
                Json::object([
                    ("entries", Json::Number(report.cache_entries as f64)),
                    ("hits", Json::Number(report.cache_hits as f64)),
                    ("misses", Json::Number(report.cache_misses as f64)),
                ]),
            ),
            (
                "traffic",
                Json::object([
                    ("epoch", Json::Number(snapshot.epoch() as f64)),
                    ("overlay_size", Json::Number(snapshot.overlay_size() as f64)),
                    ("closures_active", Json::Number(snapshot.closures() as f64)),
                ]),
            ),
            ("index", index),
            ("recovery", recovery),
        ]);
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.to_string_compact(),
            retry_after: None,
            trace_id: None,
        }
    }

    fn results(&self) -> HttpResponse {
        let to_json = |resident: Option<bool>| -> Json {
            Json::Array(
                self.store
                    .summary(resident)
                    .into_iter()
                    .map(|s| {
                        Json::object([
                            ("label", Json::str(s.label.to_string())),
                            ("count", Json::Number(s.count as f64)),
                            ("mean", Json::Number(s.mean)),
                            ("sd", Json::Number(s.sd)),
                        ])
                    })
                    .collect(),
            )
        };
        HttpResponse::ok_json(Json::object([
            ("all", to_json(None)),
            ("residents", to_json(Some(true))),
            ("non_residents", to_json(Some(false))),
        ]))
    }

    /// `GET /api/debug/traces` — the ring buffer of kept traces, newest
    /// first, one summary line each. Filters compose (logical AND):
    ///
    /// * `?min_ms=N` — only traces at least `N` ms end to end,
    /// * `?status=ok|truncated|degraded|failed` — only that final status,
    /// * `?technique=<slug>` — only traces with a lane span for that
    ///   technique, one of the service's lane names (operator endpoint,
    ///   so slugs are fine — blinding only governs `/api/route`).
    ///
    /// Unknown filters and malformed values are 400s, not silent no-ops:
    /// a typo'd filter during an incident must not masquerade as "no
    /// matching traces".
    fn debug_traces(&self, query: &str) -> HttpResponse {
        let tracer = self.service.tracer();
        let mut min_ms = 0.0_f64;
        let mut status: Option<SpanStatus> = None;
        let mut technique: Option<String> = None;
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "min_ms" => match value.parse::<f64>() {
                    Ok(v) if v >= 0.0 => min_ms = v,
                    _ => return HttpResponse::error(400, format!("bad min_ms {value:?}")),
                },
                "status" => match SpanStatus::parse(value) {
                    Some(s) => status = Some(s),
                    None => return HttpResponse::error(400, format!("bad status {value:?}")),
                },
                "technique" => {
                    let slugs: Vec<&str> = (0..self.processor.technique_slots())
                        .map(|slot| self.processor.slot_technique(slot))
                        .collect();
                    if !slugs.contains(&value) {
                        let accepted = slugs.join("|");
                        let message = format!("bad technique {value:?}, one of {accepted}");
                        return HttpResponse::error(400, message);
                    }
                    technique = Some(value.to_string());
                }
                _ => return HttpResponse::error(400, format!("unknown filter {key:?}")),
            }
        }
        let mut traces = tracer.traces();
        traces.reverse(); // newest first: incidents read from the top
        let matches: Vec<Json> = traces
            .iter()
            .filter(|t| t.duration_ms >= min_ms)
            .filter(|t| status.is_none_or(|s| t.status == s))
            .filter(|t| {
                technique.as_deref().is_none_or(|tech| {
                    t.spans_named("lane")
                        .any(|s| s.attr("technique") == Some(tech))
                })
            })
            .map(|t| {
                Json::object([
                    ("trace_id", Json::str(t.id.to_string())),
                    ("duration_ms", Json::Number(t.duration_ms)),
                    ("status", Json::str(t.status.as_str())),
                    ("slow", Json::Bool(t.slow)),
                    ("spans", Json::Number(t.spans.len() as f64)),
                ])
            })
            .collect();
        HttpResponse::ok_json(Json::object([
            ("count", Json::Number(matches.len() as f64)),
            ("capacity", Json::Number(tracer.capacity() as f64)),
            ("traces", Json::Array(matches)),
        ]))
    }

    /// `GET /api/trace/<id>` — one kept trace rendered as a nested span
    /// tree. 400 for a malformed id, 404 when the id was never kept (not
    /// sampled, not slow, healthy) or has been evicted from the ring.
    fn trace_tree(&self, id_text: &str) -> HttpResponse {
        let tracer = self.service.tracer();
        let Some(id) = TraceId::parse(id_text) else {
            return HttpResponse::error(400, format!("malformed trace id {id_text:?}"));
        };
        let Some(trace) = tracer.trace(id) else {
            return HttpResponse::error(
                404,
                format!("trace {id} not found (not sampled, or evicted from the ring)"),
            );
        };
        let root = match trace.root() {
            Some(root) => span_node(&trace, root),
            None => Json::Null,
        };
        HttpResponse::ok_json(Json::object([
            ("trace_id", Json::str(trace.id.to_string())),
            ("duration_ms", Json::Number(trace.duration_ms)),
            ("status", Json::str(trace.status.as_str())),
            ("slow", Json::Bool(trace.slow)),
            ("head_sampled", Json::Bool(trace.head_sampled)),
            ("well_nested", Json::Bool(trace.well_nested())),
            ("root", root),
        ]))
    }
}

/// Renders one span and, recursively, its children. Depth is bounded by
/// the pipeline's span structure (request → stage → lane → queue), not
/// by input, so recursion is safe.
fn span_node(trace: &CompletedTrace, span: &Span) -> Json {
    let children: Vec<Json> = trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| span_node(trace, s))
        .collect();
    Json::object([
        ("name", Json::str(span.name)),
        ("start_us", Json::Number(span.start_us as f64)),
        ("duration_us", Json::Number(span.duration_us() as f64)),
        ("status", Json::str(span.status.as_str())),
        (
            "attrs",
            Json::object_of(
                span.attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v.clone()))),
            ),
        ),
        ("children", Json::Array(children)),
    ])
}

/// Reads `/api/rate`'s feedback form. Ratings `a`–`d` are required, each
/// an integer 1–5; `resident` (a boolean), `fastest_minutes` (a
/// non-negative integer) and `comment` (a string) may be absent. A field
/// of the wrong shape is refused, never coerced.
fn submission_of(req: &Json) -> Result<Submission, String> {
    fn optional<T>(
        req: &Json,
        key: &str,
        what: &str,
        read: impl Fn(&Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        req.get(key)
            .map(|v| read(v).ok_or(format!("{key} must be {what}")))
            .transpose()
    }
    let integer = |v: &Json| {
        v.as_f64()
            .filter(|n| n.fract() == 0.0 && (0.0..u64::MAX as f64).contains(n))
    };
    let rating = |key: &str| {
        optional(req, key, "an integer 1-5", |v| {
            integer(v)
                .filter(|n| (1.0..=5.0).contains(n))
                .map(|n| n as u8)
        })?
        .ok_or_else(|| "ratings a-d are required".to_string())
    };
    Ok(Submission {
        ratings: [rating("a")?, rating("b")?, rating("c")?, rating("d")?],
        resident: optional(req, "resident", "a boolean", Json::as_bool)?.unwrap_or(false),
        fastest_minutes: optional(req, "fastest_minutes", "a non-negative integer", |v| {
            integer(v).map(|n| n as u64)
        })?
        .unwrap_or(0),
        comment: optional(req, "comment", "a string", |v| {
            v.as_str().map(str::to_string)
        })?
        .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::tests::reference_body;
    use crate::wire::{
        read_request, serve, serve_connections, write_response, RawRequest, ShutdownHandle,
        IO_TIMEOUT, MAX_BODY_BYTES, MAX_CONNECTIONS, MAX_HEADERS, MAX_LINE_BYTES,
    };
    use arp_citygen::{City, Scale};
    use proptest::prelude::*;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn app() -> DemoApp {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        DemoApp::new(QueryProcessor::new(g.name.clone(), g.network, 12))
    }

    fn route_body(app: &DemoApp) -> String {
        let bb = app.processor.network().bbox();
        format!(
            r#"{{"slon": {}, "slat": {}, "tlon": {}, "tlat": {}}}"#,
            bb.min_lon + bb.width_deg() * 0.3,
            bb.min_lat + bb.height_deg() * 0.4,
            bb.min_lon + bb.width_deg() * 0.7,
            bb.min_lat + bb.height_deg() * 0.7,
        )
    }

    #[test]
    fn index_page_served() {
        let app = app();
        let resp = app.handle("GET", "/", "");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("<html"));
        assert!(resp.body.contains("Melbourne"));
    }

    #[test]
    fn meta_endpoint() {
        let app = app();
        let resp = app.handle("GET", "/api/meta", "");
        assert_eq!(resp.status, 200);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("city").unwrap().as_str(), Some("Melbourne"));
        assert!(
            v.get("min_lon").unwrap().as_f64().unwrap()
                < v.get("max_lon").unwrap().as_f64().unwrap()
        );
        assert_eq!(
            v.get("labels").unwrap().to_string_compact(),
            r#"["A","B","C","D"]"#
        );
    }

    #[test]
    fn network_sample_endpoint() {
        let app = app();
        let resp = app.handle("GET", "/api/network", "");
        assert_eq!(resp.status, 200);
        let v = json::parse(&resp.body).unwrap();
        let segs = v.get("segments").unwrap().as_array().unwrap();
        assert!(!segs.is_empty());
        assert!(segs.len() <= 5_000);
        assert_eq!(segs[0].as_array().unwrap().len(), 4);
    }

    #[test]
    fn route_endpoint_full_flow() {
        let app = app();
        let resp = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        let approaches = v.get("approaches").unwrap().as_array().unwrap();
        assert_eq!(approaches.len(), 4);
        for a in approaches {
            let routes = a.get("routes").unwrap().as_array().unwrap();
            assert!(!routes.is_empty());
            for r in routes {
                assert!(r.get("minutes").unwrap().as_f64().unwrap() >= 1.0);
            }
        }
        // GeoJSON embedded and parseable.
        let gj = v.get("geojson").unwrap().as_str().unwrap();
        assert!(json::parse(gj).is_ok());
    }

    /// A body nested past the parser's cap is a 400 on every JSON door
    /// (`/api/traffic` then reads it as delta grammar and rejects it
    /// there). Unbounded, ten thousand brackets overflowed the handler's
    /// stack and aborted the whole server.
    #[test]
    fn a_deeply_nested_body_is_a_400_on_every_endpoint() {
        let app = app();
        let body = "[".repeat(10_000);
        for path in ["/api/route", "/api/rate", "/api/traffic"] {
            let resp = app.handle("POST", path, &body);
            assert_eq!(resp.status, 400, "{path}: {}", resp.body);
        }
    }

    #[test]
    fn route_endpoint_rejects_bad_input() {
        let app = app();
        assert_eq!(app.handle("POST", "/api/route", "not json").status, 400);
        assert_eq!(
            app.handle("POST", "/api/route", r#"{"slon": 1}"#).status,
            400
        );
        let out_of_area = r#"{"slon": 0, "slat": 0, "tlon": 1, "tlat": 1}"#;
        assert_eq!(app.handle("POST", "/api/route", out_of_area).status, 400);
    }

    #[test]
    fn rate_and_results_flow() {
        let app = app();
        let rate = r#"{"a": 3, "b": 5, "c": 4, "d": 4, "resident": true, "fastest_minutes": 18, "comment": "nice"}"#;
        let resp = app.handle("POST", "/api/rate", rate);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp2 = app.handle("POST", "/api/rate", r#"{"a": 1, "b": 2, "c": 3, "d": 4}"#);
        assert_eq!(resp2.status, 200);

        let results = app.handle("GET", "/api/results", "");
        let v = json::parse(&results.body).unwrap();
        let all = v.get("all").unwrap().as_array().unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].get("count").unwrap().as_f64(), Some(2.0));
        let residents = v.get("residents").unwrap().as_array().unwrap();
        assert_eq!(residents[0].get("count").unwrap().as_f64(), Some(1.0));

        let csv = app.handle("GET", "/api/results.csv", "");
        assert_eq!(csv.status, 200);
        assert!(csv.body.lines().count() >= 3);
    }

    #[test]
    fn rate_rejects_invalid() {
        let app = app();
        assert_eq!(
            app.handle("POST", "/api/rate", r#"{"a": 9, "b": 1, "c": 1, "d": 1}"#)
                .status,
            400
        );
        assert_eq!(app.handle("POST", "/api/rate", r#"{"a": 3}"#).status, 400);
    }

    #[test]
    fn rate_refuses_malformed_numbers_and_fields_instead_of_coercing_them() {
        let app = app();
        for body in [
            r#"{"a":5.5,"b":3,"c":3,"d":3}"#,
            r#"{"a":3,"b":4.9,"c":3,"d":3}"#,
            r#"{"a":3,"b":3,"c":"3","d":3}"#,
            r#"{"a":3,"b":3,"c":3,"d":-3}"#,
            r#"{"a":3,"b":3,"c":3,"d":3,"fastest_minutes":-3}"#,
            r#"{"a":3,"b":3,"c":3,"d":3,"fastest_minutes":2.7}"#,
            r#"{"a":3,"b":3,"c":3,"d":3,"resident":"yes"}"#,
            r#"{"a":3,"b":3,"c":3,"d":3,"comment":7}"#,
        ] {
            let resp = app.handle("POST", "/api/rate", body);
            assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        }
        assert!(app.store.is_empty());

        // The demo page's shape: integer radios, a checkbox, a string.
        let page = r#"{"a":1,"b":5,"c":3,"d":2,"resident":false,"fastest_minutes":0,"comment":""}"#;
        assert_eq!(app.handle("POST", "/api/rate", page).status, 200);
        assert_eq!(
            app.store.snapshot()[0],
            Submission {
                ratings: [1, 5, 3, 2],
                resident: false,
                fastest_minutes: 0,
                comment: String::new(),
            }
        );
    }

    #[test]
    fn metrics_endpoint_exposes_prometheus_text() {
        let app = app();
        let ok = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(ok.status, 200, "{}", ok.body);
        app.handle("GET", "/nope", "");

        let resp = app.handle("GET", "/api/metrics", "");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; version=0.0.4");
        let body = &resp.body;

        // HTTP request metrics from the two calls above.
        assert!(
            body.contains(r#"arp_http_requests_total{endpoint="route",status="200"} 1"#),
            "{body}"
        );
        assert!(
            body.contains(r#"arp_http_requests_total{endpoint="other",status="404"} 1"#),
            "{body}"
        );
        assert!(body.contains("# TYPE arp_http_requests_total counter"));
        assert!(body.contains("# TYPE arp_http_request_latency_ms histogram"));
        assert!(
            body.contains(r#"arp_http_request_latency_ms_bucket{endpoint="route",le="+Inf"} 1"#),
            "{body}"
        );

        // Technique metrics flowed through the shared registry.
        for technique in ["google_like", "plateaus", "dissimilarity", "penalty"] {
            assert!(
                body.contains(&format!(
                    r#"arp_technique_calls_total{{technique="{technique}"}} 1"#
                )),
                "{technique}: {body}"
            );
        }
        assert!(body.contains("arp_search_settled_nodes_total{"), "{body}");

        // Valid exposition: every line is a HELP/TYPE comment or a sample
        // whose last token parses as a number.
        for line in body.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
            } else {
                let (_, value) = line.rsplit_once(' ').expect("sample line");
                assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            }
        }
    }

    #[test]
    fn metrics_endpoint_counts_itself_on_later_scrapes() {
        let app = app();
        app.handle("GET", "/api/metrics", "");
        let resp = app.handle("GET", "/api/metrics", "");
        assert!(
            resp.body
                .contains(r#"arp_http_requests_total{endpoint="metrics",status="200"} 1"#),
            "{}",
            resp.body
        );
    }

    #[test]
    fn unknown_paths_404() {
        let app = app();
        assert_eq!(app.handle("GET", "/nope", "").status, 404);
        assert_eq!(app.handle("DELETE", "/api/meta", "").status, 405);
    }

    /// Extracts and parses the `trace_id` a served route body carries.
    fn served_trace_id(resp: &HttpResponse) -> TraceId {
        let v = json::parse(&resp.body).unwrap();
        let text = v
            .get("trace_id")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no trace_id in {}", resp.body));
        assert_eq!(
            resp.trace_id.as_deref(),
            Some(text),
            "header id must match the body id"
        );
        TraceId::parse(text).unwrap()
    }

    #[test]
    fn served_body_is_byte_identical_to_the_serial_path() {
        let app = app();
        let body = route_body(&app);
        let served = app.handle("POST", "/api/route", &body);
        assert_eq!(served.status, 200, "{}", served.body);

        // The serial reference: snap + process on this thread, rendered
        // by the Json-tree oracle rather than the handler's writer. The
        // trace id is the one per-request field, so the reference borrows
        // the served one to keep the comparison byte-exact.
        let req = json::parse(&body).unwrap();
        let s = Point::new(
            req.get("slon").unwrap().as_f64().unwrap(),
            req.get("slat").unwrap().as_f64().unwrap(),
        );
        let t = Point::new(
            req.get("tlon").unwrap().as_f64().unwrap(),
            req.get("tlat").unwrap().as_f64().unwrap(),
        );
        let processed = app.processor.process(s, t).unwrap();
        let id = served_trace_id(&served);
        let serial = reference_body(&processed, id);
        assert_eq!(served.body, serial, "fan-out must match serial path");

        // And a repeat request — served from the route cache — is
        // byte-identical too, modulo its own fresh trace id.
        let repeat = app.handle("POST", "/api/route", &body);
        let repeat_id = served_trace_id(&repeat);
        assert_ne!(repeat_id, id, "every request gets its own trace");
        let serial = reference_body(&processed, repeat_id);
        assert_eq!(repeat.body, serial, "cached reply must match");
    }

    /// `body` minus its `"trace_id":"…",` member — the one per-request
    /// field (it always sits before `truncated`, so a comma follows).
    fn without_trace_id(body: &str) -> String {
        const KEY: &str = "\"trace_id\":\"";
        let start = body.find(KEY).expect("served bodies carry a trace id");
        let value = start + KEY.len();
        let end = value + body[value..].find("\",").expect("closing quote") + 2;
        format!("{}{}", &body[..start], &body[end..])
    }

    #[test]
    fn route_body_digest_is_pinned() {
        // FNV-1a over the served `/api/route` body (trace id removed) for
        // one fixed pair per Small city, seed 42. The literals were
        // captured on the Json-tree renderer, before the body became a
        // streamed write: however the body is produced, its bytes must not
        // move.
        let digests: Vec<u64> = City::ALL
            .into_iter()
            .map(|city| {
                let g = arp_citygen::generate(city, Scale::Small, 42);
                let app = DemoApp::new(QueryProcessor::new(g.name.clone(), g.network, 42));
                let served = app.handle("POST", "/api/route", &route_body(&app));
                assert_eq!(served.status, 200, "{}", served.body);
                without_trace_id(&served.body)
                    .bytes()
                    .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                    })
            })
            .collect();
        assert_eq!(
            digests,
            [0xd916d9041d916c5c, 0x3fbd2c6f32a4b96f, 0x85959fb11e70d624,],
            "Melbourne, Dhaka, Copenhagen"
        );
    }

    #[test]
    fn route_sheds_with_503_when_admission_is_full() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let config = arp_serve::ServeConfig {
            max_inflight: 1,
            ..arp_serve::ServeConfig::default()
        };
        let app = DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, 12), config);
        // Occupy the only admission slot, then request a route.
        let _slot = app.service().admission().try_acquire().unwrap();
        let resp = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(resp.status, 503, "{}", resp.body);
        // The hint is adaptive: admission is saturated (ratio 1.0) and the
        // queue idle (0.0), so the 1 s base scales by 1 + 4 * 0.5 to 3 s.
        assert_eq!(resp.retry_after, Some(3));
        assert!(resp.body.contains("overloaded"), "{}", resp.body);
        assert_eq!(
            app.registry
                .counter_value("arp_serve_shed_total", &[("reason", "admission_full")]),
            1
        );
    }

    #[test]
    fn metrics_expose_the_serving_layer() {
        let app = app();
        let body = route_body(&app);
        assert_eq!(app.handle("POST", "/api/route", &body).status, 200);
        assert_eq!(app.handle("POST", "/api/route", &body).status, 200);

        let text = app.handle("GET", "/api/metrics", "").body;
        assert!(text.contains("arp_serve_admitted_total 2"), "{text}");
        // First query misses all four lanes, the repeat hits all four.
        assert!(text.contains("arp_serve_cache_misses_total 4"), "{text}");
        assert!(text.contains("arp_serve_cache_hits_total 4"), "{text}");
        assert!(text.contains("arp_serve_cache_entries 4"), "{text}");
        assert!(text.contains("arp_serve_queue_depth"), "{text}");
        assert!(
            text.contains(r#"arp_serve_stage_latency_ms_bucket{stage="compute",le="+Inf"} 1"#),
            "{text}"
        );
        // The cached repeat ran zero technique computations.
        assert!(
            text.contains(r#"arp_technique_calls_total{technique="penalty"} 1"#),
            "{text}"
        );
    }

    /// The tree pair prepare grows for a miss is searched work like any
    /// lane's, so `/api/metrics` counts it under `technique="pair"`.
    #[test]
    fn metrics_count_the_tree_pair_of_a_miss() {
        let app = app();
        let settled = |app: &DemoApp| {
            app.registry
                .counter_value("arp_search_settled_nodes_total", &[("technique", "pair")])
        };
        assert_eq!(settled(&app), 0);
        assert_eq!(
            app.handle("POST", "/api/route", &route_body(&app)).status,
            200
        );
        let after_miss = settled(&app);
        assert!(after_miss > 0);
        let text = app.handle("GET", "/api/metrics", "").body;
        let series = format!(r#"arp_search_settled_nodes_total{{technique="pair"}} {after_miss}"#);
        assert!(text.contains(&series), "{text}");
        // A hit grows no pair.
        assert_eq!(
            app.handle("POST", "/api/route", &route_body(&app)).status,
            200
        );
        assert_eq!(settled(&app), after_miss);
    }

    #[test]
    fn real_socket_roundtrip_with_graceful_shutdown() {
        let app = Arc::new(app());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::new();
        let server = {
            let app = Arc::clone(&app);
            let shutdown = shutdown.clone();
            std::thread::spawn(move || serve(app, listener, shutdown))
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /api/meta HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200 OK"), "{buf}");
        assert!(buf.contains("Melbourne"));

        // The server thread exits cleanly instead of leaking.
        shutdown.request_shutdown();
        server.join().unwrap();
    }

    /// The regression this PR exists for: a panicking technique used to
    /// fail the whole request with a 500. Now the panic is contained to
    /// its lane and the other three techniques' routes are still served.
    #[test]
    fn panicking_lane_still_serves_the_other_techniques_over_http() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let config = arp_serve::ServeConfig {
            faults: arp_serve::FaultPlan::parse("lane.google_like=panic").unwrap(),
            ..arp_serve::ServeConfig::default()
        };
        let app = DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, 12), config);
        let resp = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(resp.status, 200, "{}", resp.body);

        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true));
        let approaches = v.get("approaches").unwrap().as_array().unwrap();
        assert_eq!(approaches.len(), 4, "blind A-D structure is preserved");
        let served = approaches
            .iter()
            .filter(|a| !a.get("routes").unwrap().as_array().unwrap().is_empty())
            .count();
        assert_eq!(served, 3, "three healthy lanes, one failed: {}", resp.body);

        // The lane-status map is keyed by blind label only and marks
        // exactly the panicked lane as failed.
        let status = v.get("lane_status").unwrap();
        let failed: Vec<&str> = ["A", "B", "C", "D"]
            .iter()
            .filter(|l| status.get(l).and_then(Json::as_str) == Some("failed"))
            .copied()
            .collect();
        assert_eq!(failed.len(), 1, "{}", resp.body);
        assert!(!resp.body.contains("google_like"), "blinding leaked");
    }

    /// Healthy responses must not carry the degraded keys — the wire
    /// format with faults disabled is byte-for-byte the pre-existing one.
    #[test]
    fn healthy_responses_omit_the_degraded_keys() {
        let app = app();
        let resp = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        assert!(v.get("degraded").is_none(), "{}", resp.body);
        assert!(v.get("lane_status").is_none(), "{}", resp.body);
        // The trace id is part of the healthy wire format too.
        served_trace_id(&resp);
    }

    #[test]
    fn injected_snap_fault_is_a_500() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let config = arp_serve::ServeConfig {
            faults: arp_serve::FaultPlan::parse("backend.snap=error:snap store down").unwrap(),
            ..arp_serve::ServeConfig::default()
        };
        let app = DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, 12), config);
        let resp = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(resp.status, 500, "{}", resp.body);
        assert!(resp.body.contains("snap store down"), "{}", resp.body);
    }

    #[test]
    fn health_endpoint_reports_ready_with_closed_breakers() {
        let app = app();
        let resp = app.handle("GET", "/api/health", "");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ready"));
        let breakers = v.get("breakers").unwrap();
        for technique in ["google_like", "plateaus", "dissimilarity", "penalty"] {
            assert_eq!(
                breakers.get(technique).and_then(Json::as_str),
                Some("closed"),
                "{}",
                resp.body
            );
        }
        assert!(v.get("queue_capacity").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("max_inflight").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(v.get("inflight").unwrap().as_f64(), Some(0.0));
    }

    /// A three-node chain `n0 – n1 – n2` served under `config`, with the
    /// road between `n1` and `n2` closed through `POST /api/traffic`,
    /// plus the `/api/route` bodies of the cut trip `n0 → n2` and the
    /// routable trip `n0 → n1`.
    fn closed_chain_app(config: ServeConfig) -> (DemoApp, String, String) {
        use arp_roadnet::builder::{EdgeSpec, GraphBuilder};

        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(144.00, -37.00));
        let n1 = b.add_node(Point::new(144.01, -37.001));
        let n2 = b.add_node(Point::new(144.02, -37.00));
        b.add_bidirectional(n0, n1, EdgeSpec::default());
        b.add_bidirectional(n1, n2, EdgeSpec::default());
        let net = b.build();
        let cut: Vec<String> = net
            .edges()
            .filter(|&e| net.tail(e) != n0 && net.head(e) != n0)
            .map(|e| format!("close:{}", e.0))
            .collect();
        assert_eq!(cut.len(), 2);
        let app = DemoApp::with_config(QueryProcessor::new("Chain", net, 1), config);
        let trip = |from, to| {
            let (from, to) = (
                app.processor.network().point(from),
                app.processor.network().point(to),
            );
            format!(
                r#"{{"slon": {}, "slat": {}, "tlon": {}, "tlat": {}}}"#,
                from.lon, from.lat, to.lon, to.lat
            )
        };
        let (unroutable, routable) = (trip(n0, n2), trip(n0, n1));
        let resp = app.handle("POST", "/api/traffic", &cut.join("; "));
        assert_eq!(resp.status, 200, "{}", resp.body);
        (app, unroutable, routable)
    }

    /// Asserts the 404 "no route" answer, with its trace id.
    fn assert_no_route(resp: &HttpResponse) {
        assert_eq!(resp.status, 404, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("no route between the matched points")
        );
        assert_eq!(
            v.get("trace_id").and_then(Json::as_str),
            resp.trace_id.as_deref()
        );
    }

    /// A trip beyond a road closed through `POST /api/traffic` answers
    /// 404 with a trace id — every technique's complete answer is "no
    /// route", so no breaker is charged: after eight such requests
    /// `/api/health` still reads ready and a routable request answers
    /// 200. (It used to open all four breakers: 502, then "circuit open"
    /// for every request and a 503 health check.)
    #[test]
    fn a_trip_beyond_a_closed_road_answers_404_and_keeps_the_service_ready() {
        let (app, unroutable, routable) = closed_chain_app(ServeConfig::default());
        for _ in 0..8 {
            assert_no_route(&app.handle("POST", "/api/route", &unroutable));
        }
        let resp = app.handle("GET", "/api/health", "");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ready"));
        let resp = app.handle("POST", "/api/route", &routable);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    /// Regression: the same trip with one technique failing answered 502
    /// "all technique lanes failed" — first with the injected fault, then
    /// "circuit open" — although the other three lanes had answered
    /// completely. A completed lane proves the trip unroutable at the
    /// pinned epoch, so it answers 404 whether the broken lane failed or
    /// was short-circuited.
    #[test]
    fn an_unroutable_trip_with_a_failed_lane_answers_404() {
        let config = ServeConfig {
            faults: arp_serve::FaultPlan::parse("lane.penalty=error").unwrap(),
            breaker: arp_serve::BreakerConfig {
                window: 8,
                min_volume: 2,
                error_rate: 0.5,
                ..arp_serve::BreakerConfig::default()
            },
            ..ServeConfig::default()
        };
        let (app, unroutable, _) = closed_chain_app(config);
        for _ in 0..4 {
            assert_no_route(&app.handle("POST", "/api/route", &unroutable));
        }
        let resp = app.handle("GET", "/api/health", "");
        let v = json::parse(&resp.body).unwrap();
        let penalty = v.get("breakers").unwrap().get("penalty");
        assert_eq!(
            penalty.and_then(Json::as_str),
            Some("open"),
            "{}",
            resp.body
        );
    }

    /// A permanently failing lane trips its breaker; `/api/health` then
    /// degrades the verdict and names the open breaker.
    #[test]
    fn health_endpoint_degrades_when_a_breaker_opens() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let config = arp_serve::ServeConfig {
            faults: arp_serve::FaultPlan::parse("lane.penalty=error:backend gone").unwrap(),
            breaker: arp_serve::BreakerConfig {
                window: 8,
                min_volume: 2,
                error_rate: 0.5,
                ..arp_serve::BreakerConfig::default()
            },
            ..arp_serve::ServeConfig::default()
        };
        let app = DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, 12), config);
        let body = route_body(&app);
        for _ in 0..3 {
            let resp = app.handle("POST", "/api/route", &body);
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        let resp = app.handle("GET", "/api/health", "");
        assert_eq!(resp.status, 200, "degraded still serves: {}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("degraded"));
        assert_eq!(
            v.get("breakers")
                .unwrap()
                .get("penalty")
                .and_then(Json::as_str),
            Some("open"),
            "{}",
            resp.body
        );
    }

    /// The endpoints of a `/api/route` body.
    fn route_points(body: &str) -> (Point, Point) {
        let req = json::parse(body).unwrap();
        let at = |lon: &str, lat: &str| {
            let coord = |key| req.get(key).and_then(Json::as_f64).unwrap();
            Point::new(coord(lon), coord(lat))
        };
        (at("slon", "slat"), at("tlon", "tlat"))
    }

    /// Google-like lanes the cache served re-priced across a bump.
    fn carried(app: &DemoApp) -> u64 {
        let labels = [("technique", "google_like")];
        app.registry
            .counter_value("arp_serve_cache_carried_total", &labels)
    }

    /// A delta through `POST /api/traffic` that moves a factor bumps the
    /// epoch, invalidates the cached routes of the three pair readers,
    /// which read the factors, and the next route request recomputes them
    /// under — and reports — the new epoch. A factor-only bump closes
    /// nothing, so Google-like's cached lane is carried: re-priced on the
    /// new column, byte-equal to the serial stages.
    #[test]
    fn traffic_endpoint_bumps_the_epoch_and_invalidates_cached_routes() {
        let app = app();
        let body = route_body(&app);

        let first = app.handle("POST", "/api/route", &body);
        assert_eq!(first.status, 200, "{}", first.body);
        let v = json::parse(&first.body).unwrap();
        assert_eq!(v.get("epoch").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            app.registry
                .counter_value("arp_serve_cache_misses_total", &[]),
            4
        );

        // Slow every residential street down 2×.
        let resp = app.handle(
            "POST",
            "/api/traffic",
            r#"{"delta": "cat:residential*2.0"}"#,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("epoch").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("applied").and_then(Json::as_f64), Some(1.0));

        // Health reports the new epoch and the overlay size.
        let health = app.handle("GET", "/api/health", "");
        let v = json::parse(&health.body).unwrap();
        let traffic = v.get("traffic").unwrap();
        assert_eq!(traffic.get("epoch").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            traffic.get("overlay_size").and_then(Json::as_f64),
            Some(1.0)
        );

        // The same query now misses the three pair readers (the factors
        // they read moved), carries Google-like, and the response carries
        // the new epoch and the serial stages' bytes.
        let second = app.handle("POST", "/api/route", &body);
        assert_eq!(second.status, 200, "{}", second.body);
        let v = json::parse(&second.body).unwrap();
        assert_eq!(v.get("epoch").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            app.registry
                .counter_value("arp_serve_cache_misses_total", &[]),
            7,
            "epoch bump must invalidate the three pair readers' lanes"
        );
        assert_eq!(carried(&app), 1, "a bump that closes nothing carries");
        let (s, t) = route_points(&body);
        let serial = app.processor.process(s, t).unwrap();
        let serial = reference_body(&serial, served_trace_id(&second));
        assert_eq!(
            second.body, serial,
            "a carried lane must match the serial stages"
        );

        // A raw-grammar body (no JSON wrapper) works too.
        let resp = app.handle("POST", "/api/traffic", "close:0@2; cat:primary*1.5");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        assert_eq!(v.get("epoch").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("closures_active").and_then(Json::as_f64), Some(1.0));
    }

    /// A bump that closes an edge of Google-like's first route changes
    /// what its searches read: its cached lane is refused and recomputed
    /// with the other three, nothing is carried.
    #[test]
    fn a_bump_closing_google_likes_route_recomputes_every_lane() {
        let app = app();
        let body = route_body(&app);
        let first = app.handle("POST", "/api/route", &body);
        assert_eq!(first.status, 200, "{}", first.body);
        let (s, t) = route_points(&body);
        let before = app.processor.process(s, t).unwrap();
        let edge = before.approaches[0].routes[0].edges[1];

        let delta = format!("close:{}", edge.0);
        let resp = app.handle("POST", "/api/traffic", &delta);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let second = app.handle("POST", "/api/route", &body);
        assert_eq!(second.status, 200, "{}", second.body);
        assert_eq!(
            app.registry
                .counter_value("arp_serve_cache_misses_total", &[]),
            8,
            "a closure on Google-like's route must invalidate all four lanes"
        );
        assert_eq!(carried(&app), 0);
        let serial = app.processor.process(s, t).unwrap();
        assert!(serial.approaches[0].routes[0]
            .edges
            .iter()
            .all(|&e| e != edge));
        let serial = reference_body(&serial, served_trace_id(&second));
        assert_eq!(second.body, serial);
    }

    /// Invalid deltas are rejected whole — a 400, and the epoch does not
    /// move (atomicity is observable from the outside).
    #[test]
    fn traffic_endpoint_rejects_bad_deltas_without_moving_the_epoch() {
        let app = app();
        for bad in [
            r#"{"delta": "cat:nope*2.0"}"#,                  // unknown category
            r#"{"delta": "cat:primary*0.5"}"#,               // speed-up: factor < 1
            r#"{"delta": "edge:999999999*2.0"}"#,            // edge out of range
            r#"{"delta": "cat:primary*1.5; close:banana"}"#, // one bad statement kills all
            r#"{"wrong_key": "clear"}"#,                     // JSON without "delta"
            "total : nonsense",                              // unparseable raw grammar
        ] {
            let resp = app.handle("POST", "/api/traffic", bad);
            assert_eq!(resp.status, 400, "{bad} → {}", resp.body);
        }
        assert_eq!(app.processor.traffic().epoch(), 0, "epoch must not move");
    }

    /// Statements a client might post: accepted ones, and ones the
    /// grammar or the network refuses (an edge past the last one).
    const TRAFFIC_STATEMENTS: [&str; 16] = [
        "edge:0*2.0",
        "edge:7*1.25",
        " cat:trunk_link*1.8 ",
        "close:3@2",
        "close:5",
        "close:4@@9",
        "reopen:3",
        "clear",
        "edge:999999999*2.0",
        "close:4294967295",
        "cat:autobahn*2",
        "edge:1*0.5",
        "edge:1*NaN",
        "close:banana",
        "edge:1",
        "é",
    ];
    const TRAFFIC_SEPARATORS: [&str; 3] = [";", " ; ", ";;"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn a_traffic_post_answers_200_or_400_and_moves_the_epoch_by_its_verdict(
            posts in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::collection::vec(
                        (0usize..TRAFFIC_STATEMENTS.len(), 0usize..TRAFFIC_SEPARATORS.len()),
                        0..4,
                    ),
                ),
                64,
            ),
        ) {
            let app = app();
            for (form, statements) in &posts {
                let delta: String = statements
                    .iter()
                    .map(|&(i, j)| [TRAFFIC_STATEMENTS[i], TRAFFIC_SEPARATORS[j]].concat())
                    .collect();
                // Raw grammar, the JSON form, or JSON without a delta.
                let body = match form {
                    0 => delta,
                    1 => Json::object([("delta", Json::String(delta))]).to_string_compact(),
                    _ => Json::object([("wrong_key", Json::String(delta))]).to_string_compact(),
                };
                let before = app.processor.traffic().epoch();
                let resp = app.handle("POST", "/api/traffic", &body);
                let moved = app.processor.traffic().epoch() - before;
                match resp.status {
                    200 => prop_assert_eq!(moved, 1, "{}", body),
                    400 => prop_assert_eq!(moved, 0, "{}", body),
                    status => prop_assert!(false, "{} → {} {}", body, status, resp.body),
                }
            }
        }
    }

    /// The Prometheus exposition content type, checked on a real socket:
    /// scrapers key their parser off the `version=0.0.4` parameter, so
    /// the header must survive the wire, not just the in-process handler.
    #[test]
    fn metrics_content_type_is_prometheus_text_on_the_wire() {
        let app = Arc::new(app());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::new();
        let server = {
            let app = Arc::clone(&app);
            let shutdown = shutdown.clone();
            std::thread::spawn(move || serve(app, listener, shutdown))
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /api/metrics HTTP/1.1\r\nHost: localhost\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        shutdown.request_shutdown();
        server.join().unwrap();

        assert!(buf.starts_with("HTTP/1.1 200 OK"), "{buf}");
        let (head, _) = buf.split_once("\r\n\r\n").expect("header/body split");
        assert!(
            head.lines()
                .any(|l| l.eq_ignore_ascii_case("Content-Type: text/plain; version=0.0.4")),
            "exposition content type missing on the wire: {head}"
        );
    }

    fn temp_state_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "arp_demo_{name}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Satellite: the `POST /api/traffic` body cap is exact — a body of
    /// cap bytes is processed, cap + 1 bytes answers `413`, and the
    /// rejected request does not move the epoch.
    #[test]
    fn traffic_endpoint_enforces_the_body_cap_at_the_boundary() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let app = DemoApp::new(QueryProcessor::new(g.name.clone(), g.network, 12));

        // Exactly at the cap: a valid delta padded to the cap applies.
        let delta = "cat:primary*1.5";
        let at_cap = format!("{delta}{}", " ".repeat(TRAFFIC_BODY_CAP - delta.len()));
        assert_eq!(at_cap.len(), TRAFFIC_BODY_CAP);
        let resp = app.handle("POST", "/api/traffic", &at_cap);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(app.processor.traffic().epoch(), 1);

        // One byte over: 413, epoch untouched, nothing parsed.
        let over = format!("{at_cap} ");
        assert_eq!(over.len(), TRAFFIC_BODY_CAP + 1);
        let resp = app.handle("POST", "/api/traffic", &over);
        assert_eq!(resp.status, 413, "{}", resp.body);
        assert!(resp.body.contains("cap"), "{}", resp.body);
        assert_eq!(app.processor.traffic().epoch(), 1, "413 must not apply");
        assert_eq!(
            app.registry.counter_value(
                "arp_http_requests_total",
                &[("endpoint", "traffic"), ("status", "413")]
            ),
            1
        );
    }

    /// The CH tier customizes when asked, never per delta: traffic
    /// deltas and routes leave it at its start-up customization, the
    /// first health read after them customizes the current epoch once
    /// and reports it ready, and a second read reuses that metric.
    #[test]
    fn the_ch_tier_customizes_on_the_first_health_read_only() {
        let g = arp_citygen::generate(City::Dhaka, Scale::Tiny, 9);
        let app = DemoApp::new(QueryProcessor::new(g.name.clone(), g.network, 9).with_ch_index());
        let customizations = || {
            app.registry
                .counter_value("arp_ch_customizations_total", &[])
        };
        assert_eq!(customizations(), 1, "start-up customizes epoch 0");
        for factor in ["1.2", "1.4", "1.6"] {
            let delta = format!("cat:residential*{factor}");
            assert_eq!(app.handle("POST", "/api/traffic", &delta).status, 200);
            let resp = app.handle("POST", "/api/route", &route_body(&app));
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        assert_eq!(customizations(), 1, "deltas and routes customize nothing");
        for _ in 0..2 {
            let v = json::parse(&app.handle("GET", "/api/health", "").body).unwrap();
            let index = v.get("index").unwrap();
            assert_eq!(index.get("ready").and_then(Json::as_bool), Some(true));
            assert_eq!(index.get("metric_epoch").and_then(Json::as_f64), Some(3.0));
            assert_eq!(
                index.get("customizations").and_then(Json::as_f64),
                Some(2.0)
            );
            assert_eq!(customizations(), 2);
        }
    }

    /// Health reads that ask the CH tier at once customize the current
    /// epoch once: the check and the customization share one mutex.
    #[test]
    fn concurrent_health_reads_customize_the_ch_tier_once() {
        let g = arp_citygen::generate(City::Dhaka, Scale::Tiny, 9);
        let app = DemoApp::new(QueryProcessor::new(g.name.clone(), g.network, 9).with_ch_index());
        assert_eq!(
            app.handle("POST", "/api/traffic", "cat:primary*1.5").status,
            200
        );
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    assert_eq!(app.handle("GET", "/api/health", "").status, 200);
                });
            }
        });
        let index = app.processor.ch_index().unwrap();
        assert_eq!((index.ready_epoch(), index.customizations()), (1, 2));
    }

    /// Without durability, `/api/health` reports the recovery layer as
    /// disabled — distinguishable from a clean recovery.
    #[test]
    fn health_reports_recovery_disabled_without_durability() {
        let app = app();
        let v = json::parse(&app.handle("GET", "/api/health", "").body).unwrap();
        assert_eq!(
            v.get("recovery")
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("disabled")
        );
    }

    /// The durable path end to end over HTTP: a fresh state-dir recovers
    /// clean, deltas journal as they apply, and a second app built from
    /// the same directory reports the replay and serves the same epoch.
    #[test]
    fn durable_app_recovers_journaled_deltas_across_restarts() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let dir = temp_state_dir("durable_http");

        let processor = QueryProcessor::new(g.name.clone(), g.network.clone(), 12)
            .with_traffic_durability(arp_traffic::DurabilityConfig::new(&dir))
            .unwrap();
        let app = DemoApp::new(processor);
        let v = json::parse(&app.handle("GET", "/api/health", "").body).unwrap();
        let recovery = v.get("recovery").unwrap();
        assert_eq!(recovery.get("status").and_then(Json::as_str), Some("clean"));
        assert_eq!(recovery.get("epoch").and_then(Json::as_f64), Some(0.0));

        let resp = app.handle("POST", "/api/traffic", r#"{"delta": "cat:primary*1.7"}"#);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp = app.handle("POST", "/api/traffic", "close:3@5");
        assert_eq!(resp.status, 200, "{}", resp.body);
        drop(app);

        // "Crash" (no flush) and restart from the same directory.
        let processor = QueryProcessor::new(g.name.clone(), g.network.clone(), 12)
            .with_traffic_durability(arp_traffic::DurabilityConfig::new(&dir))
            .unwrap();
        let report = processor.recovery_report().unwrap().clone();
        assert_eq!(report.epoch, 2, "both deltas replayed: {report:?}");
        let app = DemoApp::new(processor);
        let v = json::parse(&app.handle("GET", "/api/health", "").body).unwrap();
        let recovery = v.get("recovery").unwrap();
        assert_eq!(recovery.get("epoch").and_then(Json::as_f64), Some(2.0));
        let traffic = v.get("traffic").unwrap();
        assert_eq!(traffic.get("epoch").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            traffic.get("closures_active").and_then(Json::as_f64),
            Some(1.0)
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected `journal.append` fault (disk full, EIO) answers `503`
    /// with a retry hint; the epoch does not move, so nothing was
    /// published that the journal does not cover.
    #[test]
    fn journal_append_fault_is_a_503_and_the_epoch_does_not_move() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let dir = temp_state_dir("journal_fault");
        let processor = QueryProcessor::new(g.name.clone(), g.network, 12)
            .with_traffic_durability(arp_traffic::DurabilityConfig::new(&dir))
            .unwrap();
        let config = arp_serve::ServeConfig {
            faults: arp_serve::FaultPlan::parse("journal.append=error:disk full").unwrap(),
            ..arp_serve::ServeConfig::default()
        };
        let app = DemoApp::with_config(processor, config);

        let resp = app.handle("POST", "/api/traffic", r#"{"delta": "cat:primary*1.5"}"#);
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert_eq!(resp.retry_after, Some(1));
        assert!(resp.body.contains("disk full"), "{}", resp.body);
        assert_eq!(app.processor.traffic().epoch(), 0, "epoch must not move");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Content-Length` past the wire cap is answered `413` without the
    /// server reading the body at all — the client never even sends it.
    #[test]
    fn oversized_content_length_is_rejected_on_the_wire_without_reading() {
        let app = Arc::new(app());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::new();
        let server = {
            let app = Arc::clone(&app);
            let shutdown = shutdown.clone();
            std::thread::spawn(move || serve(app, listener, shutdown))
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /api/traffic HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .unwrap();
        // Deliberately send no body: the 413 must come back anyway.
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        shutdown.request_shutdown();
        server.join().unwrap();
        assert!(buf.starts_with("HTTP/1.1 413 Payload Too Large"), "{buf}");
        assert_eq!(
            app.registry.counter_value(
                "arp_http_requests_total",
                &[("endpoint", "traffic"), ("status", "413")]
            ),
            1
        );
    }

    /// A chunked body used to be read as an empty one: `POST /api/traffic`
    /// answered `200` with `applied: 0`, published and journalled a new
    /// epoch, and dropped the real delta. A transfer-coded request is now
    /// refused with `501` and nothing is applied — also when a
    /// `Content-Length` comes with it.
    #[test]
    fn a_transfer_encoded_body_is_refused_and_applies_nothing() {
        let app = Arc::new(app());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::new();
        let server = {
            let app = Arc::clone(&app);
            let shutdown = shutdown.clone();
            std::thread::spawn(move || serve(app, listener, shutdown))
        };
        let chunked = "Transfer-Encoding: chunked\r\n";
        for length in ["", "Content-Length: 7\r\n"] {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST /api/traffic HTTP/1.1\r\nHost: localhost\r\n{chunked}{length}\r\n\
                 7\r\nclose:0\r\n0\r\n\r\n"
            )
            .unwrap();
            let mut buf = String::new();
            stream.read_to_string(&mut buf).unwrap();
            assert!(buf.starts_with("HTTP/1.1 501 Not Implemented"), "{buf}");
            assert!(buf.contains("send Content-Length"), "{buf}");
        }
        shutdown.request_shutdown();
        server.join().unwrap();
        assert_eq!(app.processor.traffic().epoch(), 0, "nothing was applied");
        assert_eq!(
            app.registry.counter_value(
                "arp_http_requests_total",
                &[("endpoint", "traffic"), ("status", "501")]
            ),
            2
        );
    }

    /// Starts the accept loop on a fresh port with `io_timeout` standing
    /// in for [`IO_TIMEOUT`]; returns the address and what stops it.
    fn spawn_server(
        io_timeout: Duration,
    ) -> (
        std::net::SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<()>,
    ) {
        spawn_app_server(Arc::new(app()), io_timeout)
    }

    /// [`spawn_server`] for an app the caller keeps, to read its metrics.
    fn spawn_app_server(
        app: Arc<DemoApp>,
        io_timeout: Duration,
    ) -> (
        std::net::SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::new();
        let server = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || serve_connections(app, listener, shutdown, io_timeout))
        };
        (addr, shutdown, server)
    }

    /// Sends `request` and returns everything the server answered. A
    /// server that answers without reading the request (the accept loop's
    /// `503`) resets the connection, so I/O errors just end the exchange.
    fn exchange(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(request.as_bytes());
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        buf
    }

    /// Sockets that connect and say nothing used to pin every handler
    /// thread for as long as they stayed open, so each later request —
    /// health checks included — was shed with `503`. The read timeout
    /// must hand the slots back while the silent sockets are still open.
    #[test]
    fn silent_connections_give_their_slots_back_after_the_read_timeout() {
        let (addr, shutdown, server) = spawn_server(Duration::from_millis(200));
        let silent: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let health = "GET /api/health HTTP/1.1\r\nHost: localhost\r\n\r\n";
        // Shed while the silent sockets hold every slot, served once they
        // have timed out; 5 s is far beyond 200 ms and far short of never.
        let start = std::time::Instant::now();
        let mut answer = exchange(addr, health);
        while !answer.starts_with("HTTP/1.1 200 OK") {
            assert!(
                answer.is_empty() || answer.starts_with("HTTP/1.1 503"),
                "only shedding may precede service: {answer}"
            );
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "silent connections still hold every slot: {answer}"
            );
            std::thread::sleep(Duration::from_millis(20));
            answer = exchange(addr, health);
        }
        drop(silent);
        shutdown.request_shutdown();
        server.join().unwrap();
    }

    /// The `arp_http_handler_threads` gauge of `app`.
    fn handler_threads(app: &DemoApp) -> i64 {
        app.registry
            .gauge("arp_http_handler_threads", "", &[])
            .get()
    }

    /// Polls `done` every 10 ms for up to 5 s.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(5), "{what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// One client asking again and again is served by the handler thread
    /// the accept loop already has, not by a new thread per connection: a
    /// handler counts as idle before it closes the connection, so the
    /// client's next connection always finds it idle.
    #[test]
    fn sequential_requests_reuse_one_handler_thread() {
        let app = Arc::new(app());
        let (addr, shutdown, server) = spawn_app_server(Arc::clone(&app), IO_TIMEOUT);
        let health = "GET /api/health HTTP/1.1\r\nHost: localhost\r\n\r\n";
        for _ in 0..50 {
            let answer = exchange(addr, health);
            assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
        }
        assert_eq!(handler_threads(&app), 1);
        shutdown.request_shutdown();
        server.join().unwrap();
    }

    /// A handler is spawned only while every handler is busy, and one
    /// left idle for the I/O timeout retires: a burst of held connections
    /// grows the pool by exactly one thread each, and it shrinks back to
    /// nothing once they close, while the server keeps serving.
    #[test]
    fn idle_handler_threads_retire_after_the_io_timeout() {
        let app = Arc::new(app());
        let (addr, shutdown, server) =
            spawn_app_server(Arc::clone(&app), Duration::from_millis(200));
        let held: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        eventually("each held connection has its handler", || {
            handler_threads(&app) == 4
        });
        drop(held);
        eventually("idle handlers retire", || handler_threads(&app) == 0);
        let meta = "GET /api/meta HTTP/1.1\r\nHost: localhost\r\n\r\n";
        assert!(exchange(addr, meta).starts_with("HTTP/1.1 200 OK"));
        shutdown.request_shutdown();
        server.join().unwrap();
    }

    /// Shutting down releases every idle handler at once instead of
    /// leaving it to wait out its (here 10 s) idle timeout.
    #[test]
    fn no_handler_thread_is_left_waiting_after_shutdown() {
        let app = Arc::new(app());
        let (addr, shutdown, server) = spawn_app_server(Arc::clone(&app), IO_TIMEOUT);
        let meta = "GET /api/meta HTTP/1.1\r\nHost: localhost\r\n\r\n";
        let clients: Vec<_> = (0..3)
            .map(|_| std::thread::spawn(move || exchange(addr, meta)))
            .collect();
        for client in clients {
            assert!(client.join().unwrap().starts_with("HTTP/1.1 200 OK"));
        }
        assert!(handler_threads(&app) >= 1);
        shutdown.request_shutdown();
        server.join().unwrap();
        assert_eq!(handler_threads(&app), 0);
    }

    /// A header line that never ends is refused once the line cap is
    /// reached: the peer keeps writing 64 MiB, the server stops reading.
    /// A reader that counts the bytes read through it.
    struct CountingReader<R> {
        inner: R,
        bytes: usize,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n;
            Ok(n)
        }
    }

    #[test]
    fn endless_header_line_is_refused_after_the_line_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /api/health HTTP/1.1\r\nX-Filler: ")
                .unwrap();
            // The server hangs up long before 64 MiB; a failed write is
            // the expected way for this loop to end.
            let chunk = [b'a'; 64 * 1024];
            for _ in 0..1024 {
                if stream.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut wire = CountingReader {
            inner: stream,
            bytes: 0,
        };
        let request = read_request(&mut wire).unwrap().unwrap();
        assert_eq!(request.path, "/api/health");
        assert_eq!(request.refused.map(|(status, _)| status), Some(431));
        assert!(
            wire.bytes <= 4 * MAX_LINE_BYTES,
            "read {} bytes of a line capped at {MAX_LINE_BYTES}",
            wire.bytes
        );
        drop(wire);
        peer.join().unwrap();
    }

    #[test]
    fn header_flood_and_unreadable_content_length_are_refused_on_the_wire() {
        let (addr, shutdown, server) = spawn_server(IO_TIMEOUT);
        let headers = |n: usize| -> String { (0..n).map(|i| format!("X-{i}: v\r\n")).collect() };
        let get = |headers: String| format!("GET /api/health HTTP/1.1\r\n{headers}\r\n");

        let at_the_cap = exchange(addr, &get(headers(MAX_HEADERS)));
        assert!(at_the_cap.starts_with("HTTP/1.1 200 OK"), "{at_the_cap}");
        let flood = exchange(addr, &get(headers(MAX_HEADERS + 1)));
        assert!(
            flood.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
            "{flood}"
        );
        // Used to be read as 0 — the body was then left on the wire and
        // the empty request handled as if it were the real one.
        let garbled = exchange(
            addr,
            "POST /api/route HTTP/1.1\r\nContent-Length: many\r\n\r\n{}",
        );
        assert!(garbled.starts_with("HTTP/1.1 400 Bad Request"), "{garbled}");
        assert!(garbled.contains("malformed Content-Length"), "{garbled}");

        shutdown.request_shutdown();
        server.join().unwrap();
    }

    /// Two `Content-Length`s that disagree used to resolve to the last
    /// one: the server then waited for 500 bytes of a 5-byte body and
    /// read whatever followed as part of it.
    #[test]
    fn conflicting_content_lengths_are_refused_on_the_wire() {
        let (addr, shutdown, server) = spawn_server(Duration::from_secs(1));
        let conflicting = exchange(
            addr,
            "POST /api/route HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 500\r\n\r\nhello",
        );
        assert!(
            conflicting.starts_with("HTTP/1.1 400 Bad Request"),
            "{conflicting}"
        );
        assert!(
            conflicting.contains("conflicting Content-Length"),
            "{conflicting}"
        );
        shutdown.request_shutdown();
        server.join().unwrap();
    }

    #[test]
    fn an_identical_duplicate_content_length_is_accepted() {
        let (addr, shutdown, server) = spawn_server(IO_TIMEOUT);
        let body = route_body(&app());
        let length = format!("Content-Length: {}\r\n", body.len());
        let request = format!("POST /api/route HTTP/1.1\r\n{length}{length}\r\n{body}");
        let routed = exchange(addr, &request);
        assert!(routed.starts_with("HTTP/1.1 200 OK"), "{routed}");
        shutdown.request_shutdown();
        server.join().unwrap();
    }

    /// How far past what it parsed `read_request` may read: its
    /// `BufReader`'s buffer.
    const READ_AHEAD: usize = 8 * 1024;

    /// Request lines: two endpoints, a path that is not UTF-8 and a lone
    /// method. One more index draws a line past `MAX_LINE_BYTES`.
    const REQUEST_LINES: [&[u8]; 4] = [
        b"POST /api/route HTTP/1.1\r\n",
        b"GET /api/health HTTP/1.1\r\n",
        b"GET /caf\xe9 HTTP/1.1\r\n",
        b"BREW\r\n",
    ];
    /// Header names as clients spell them.
    const LENGTH_NAMES: [&str; 3] = ["Content-Length", "content-length", "CONTENT-LENGTH"];
    const ENCODING_NAMES: [&str; 3] = [
        "Transfer-Encoding",
        "transfer-encoding",
        "tRaNsFeR-eNcOdInG",
    ];
    /// Filler headers sent ahead of the drawn ones: none, or around
    /// `MAX_HEADERS`.
    const FLOODS: [usize; 5] = [0, 0, MAX_HEADERS - 2, MAX_HEADERS, MAX_HEADERS + 1];
    /// Body bytes, among them a split `é` and bytes that are never UTF-8.
    const BODY_BYTES: [u8; 10] = [b'{', b'}', b'"', b'a', b'1', b'\r', b'\n', 0xc3, 0xa9, 0xff];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn read_request_refuses_with_a_4xx_or_reads_exactly_the_declared_body(
            line in 0usize..=REQUEST_LINES.len(),
            flood in 0usize..FLOODS.len(),
            headers in proptest::collection::vec((0usize..5, 0usize..3, 0usize..8), 0..5),
            body in proptest::collection::vec(0usize..BODY_BYTES.len(), 0..24),
        ) {
            let body: Vec<u8> = body.iter().map(|&i| BODY_BYTES[i]).collect();
            let n = body.len();
            // The statuses the request gives grounds for, and the lengths
            // it declares, tallied as it is written.
            let mut grounds = Vec::new();
            let mut lengths = Vec::new();
            let mut head = match REQUEST_LINES.get(line) {
                Some(line) => line.to_vec(),
                None => {
                    grounds.push(431);
                    format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_LINE_BYTES)).into_bytes()
                }
            };
            for i in 0..FLOODS[flood] {
                head.extend(format!("X-Filler-{i}: v\r\n").as_bytes());
            }
            if FLOODS[flood] + headers.len() > MAX_HEADERS {
                grounds.push(431);
            }
            for &(kind, case, value) in &headers {
                match kind {
                    0 => {
                        let declared = [n, n + 1, n.saturating_sub(1), MAX_BODY_BYTES + 1];
                        let text = match declared.get(value) {
                            Some(length) => {
                                lengths.push(*length);
                                length.to_string()
                            }
                            None => {
                                grounds.push(400);
                                ["many", "", "-1", "99999999999999999999999"][value - 4].to_string()
                            }
                        };
                        head.extend(format!("{}: {text}\r\n", LENGTH_NAMES[case]).as_bytes());
                    }
                    1 => {
                        grounds.push(501);
                        head.extend(format!("{}: chunked\r\n", ENCODING_NAMES[case]).as_bytes());
                    }
                    2 => head.extend(b"X-Tag: v\r\n"),
                    3 => head.extend(b"X-Bytes: \xff\xfe\r\n"),
                    _ => {
                        grounds.push(431);
                        head.extend(format!("X-Long: {}\r\n", "a".repeat(MAX_LINE_BYTES)).as_bytes());
                    }
                }
            }
            head.extend(b"\r\n");
            if lengths.iter().any(|&length| length != lengths[0]) {
                grounds.push(400);
            }
            let oversized = lengths.iter().any(|&length| length > MAX_BODY_BYTES);
            if oversized {
                grounds.push(413);
            }
            let declared = lengths.first().copied().unwrap_or(0);

            // An oversized declaration is backed by that many bytes on
            // the wire, so reading it would succeed.
            let wire = [head.as_slice(), &body].concat();
            let filler = if oversized { MAX_BODY_BYTES + 1 } else { 0 };
            let mut peer = CountingReader {
                inner: wire.as_slice().chain(std::io::repeat(b'x').take(filler as u64)),
                bytes: 0,
            };
            let sent = String::from_utf8_lossy(&wire).into_owned();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                read_request(&mut peer)
            }));
            prop_assert!(outcome.is_ok(), "read_request panicked on {:?}", sent);
            match outcome.unwrap() {
                Ok(Some(RawRequest { refused: Some((status, _)), .. })) => {
                    prop_assert!(
                        grounds.contains(&status),
                        "{} refused, grounds {:?}: {:?}", status, grounds, sent
                    );
                    prop_assert!(peer.bytes <= head.len() + READ_AHEAD, "read {} bytes", peer.bytes);
                }
                Ok(Some(request)) => {
                    prop_assert!(grounds.is_empty(), "accepted despite {:?}: {:?}", grounds, sent);
                    prop_assert_eq!(request.body, String::from_utf8_lossy(&body[..declared]));
                    prop_assert!(peer.bytes <= head.len() + declared + READ_AHEAD);
                }
                Ok(None) => prop_assert!(false, "no request in {:?}", sent),
                // The peer hung up before the declared body ended.
                Err(err) => {
                    prop_assert!(grounds.is_empty() && declared > n, "{}: {:?}", err, sent);
                    prop_assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
                }
            }
        }
    }

    /// The form's fields, and one it does not know.
    const FORM_FIELDS: [&str; 8] = [
        "a",
        "b",
        "c",
        "d",
        "resident",
        "fastest_minutes",
        "comment",
        "extra",
    ];

    /// Values of the documented shape for form field `key`, and values
    /// of other shapes. `None` leaves the field out.
    fn form_values(key: &str) -> [Vec<Option<Json>>; 2] {
        let number = |n: f64| Some(Json::Number(n));
        match key {
            "resident" => [
                vec![None, Some(Json::Bool(true)), Some(Json::Bool(false))],
                vec![number(1.0), Some(Json::str("true")), Some(Json::Null)],
            ],
            "fastest_minutes" => [
                vec![None, number(0.0), number(42.0), number(1e19)],
                vec![
                    number(-1.0),
                    number(2.5),
                    number(1e20),
                    Some(Json::str("7")),
                    Some(Json::Bool(true)),
                ],
            ],
            "comment" => [
                vec![None, Some(Json::str("")), Some(Json::str("é"))],
                vec![number(3.0), Some(Json::Null), Some(Json::Array(Vec::new()))],
            ],
            // An unknown field is ignored: no shape is wrong for it.
            "extra" => [0, 1].map(|_| vec![None, Some(Json::Null), number(7.0)]),
            _ => [
                (1..=5).map(|r| number(f64::from(r))).collect(),
                vec![
                    None,
                    number(0.0),
                    number(6.0),
                    number(2.5),
                    number(-1.0),
                    Some(Json::str("3")),
                    Some(Json::Bool(true)),
                ],
            ],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn submission_of_accepts_exactly_the_documented_shapes(
            // A form with every field of its documented shape, except at
            // most one: `wrong` indexes `FORM_FIELDS`; "extra" and past it,
            // none.
            wrong in 0usize..9,
            picks in proptest::collection::vec(0usize..64, FORM_FIELDS.len()),
        ) {
            let form = Json::object_of(FORM_FIELDS.iter().zip(&picks).enumerate().filter_map(
                |(i, (&key, &pick))| {
                    let values = &form_values(key)[usize::from(i == wrong)];
                    values[pick % values.len()].clone().map(|v| (key.to_string(), v))
                },
            ));
            let number = |key: &str| match form.get(key) {
                Some(Json::Number(n)) => Some(*n),
                _ => None,
            };
            let read = submission_of(&form);
            let shown = form.to_string_compact();
            if wrong < 7 {
                prop_assert!(read.is_err(), "{} read as {:?}", shown, read);
            } else {
                let expected = Submission {
                    ratings: ["a", "b", "c", "d"].map(|key| number(key).unwrap_or(0.0) as u8),
                    resident: form.get("resident").and_then(Json::as_bool).unwrap_or(false),
                    fastest_minutes: number("fastest_minutes").map_or(0, |n| n as u64),
                    comment: form.get("comment").and_then(Json::as_str).unwrap_or("").to_string(),
                };
                prop_assert_eq!(read, Ok(expected), "{}", shown);
            }
        }
    }

    #[test]
    fn retry_after_header_is_written_on_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            write_response(&mut stream, &HttpResponse::overloaded(3)).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        writer.join().unwrap();
        assert!(buf.starts_with("HTTP/1.1 503 Service Unavailable"), "{buf}");
        assert!(buf.contains("Retry-After: 3\r\n"), "{buf}");
    }

    /// The acceptance-criteria walk, end to end: a degraded request's
    /// trace id resolves at `GET /api/trace/<id>` and the tree shows
    /// admission, queue, prepare, every attempted lane (with its breaker
    /// attribute) and assemble.
    #[test]
    fn degraded_request_trace_is_servable_from_the_debug_endpoints() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let config = arp_serve::ServeConfig {
            faults: arp_serve::FaultPlan::parse("lane.penalty=error:boom").unwrap(),
            // Head sampling off: the trace must be kept by the degraded
            // tail rule alone.
            trace: arp_obs::TraceConfig {
                sample: 0.0,
                ..arp_obs::TraceConfig::default()
            },
            ..arp_serve::ServeConfig::default()
        };
        let app = DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, 12), config);
        let resp = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let id = served_trace_id(&resp);

        let tree = app.handle("GET", &format!("/api/trace/{id}"), "");
        assert_eq!(tree.status, 200, "{}", tree.body);
        let v = json::parse(&tree.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("degraded"));
        assert_eq!(v.get("well_nested").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("head_sampled").and_then(Json::as_bool), Some(false));

        let root = v.get("root").unwrap();
        assert_eq!(root.get("name").and_then(Json::as_str), Some("request"));
        let attrs = root.get("attrs").unwrap();
        assert_eq!(attrs.get("traffic_epoch").and_then(Json::as_str), Some("0"));
        assert!(attrs.get("cache_key").is_some(), "{}", tree.body);
        let publication = attrs.get("publication").and_then(Json::as_str);
        assert_eq!(
            publication.and_then(|p| p.parse().ok()),
            Some(app.processor.traffic().snapshot().publication()),
            "{}",
            tree.body
        );

        let children = root.get("children").unwrap().as_array().unwrap();
        let named = |name: &str| -> Vec<&Json> {
            children
                .iter()
                .filter(|c| c.get("name").and_then(Json::as_str) == Some(name))
                .collect()
        };
        for stage in ["admission", "cache_probe", "prepare", "assemble"] {
            assert_eq!(named(stage).len(), 1, "missing {stage}: {}", tree.body);
        }
        assert_eq!(
            named("assemble")[0]
                .get("attrs")
                .unwrap()
                .get("outcome")
                .and_then(Json::as_str),
            Some("degraded")
        );

        // One attempt per lane; the failed one is not attempted again.
        let lanes = named("lane");
        assert_eq!(lanes.len(), 4, "{}", tree.body);
        let failed = lanes
            .iter()
            .find(|l| l.get("status").and_then(Json::as_str) == Some("failed"))
            .expect("failed lane span");
        let failed_attrs = failed.get("attrs").unwrap();
        assert_eq!(
            failed_attrs.get("technique").and_then(Json::as_str),
            Some("penalty")
        );
        assert_eq!(
            failed_attrs.get("fault_injected").and_then(Json::as_str),
            Some("injected fault at lane.penalty: boom")
        );
        for lane in &lanes {
            let attrs = lane.get("attrs").unwrap();
            assert!(attrs.get("technique").is_some(), "{}", tree.body);
            // Every attempt carries the breaker state at submit.
            assert!(attrs.get("breaker").is_some(), "{}", tree.body);
            // Every executed lane records its retroactive queue-wait
            // child (a short-circuit would not, but none occur here).
            let queues = lane.get("children").unwrap().as_array().unwrap();
            assert_eq!(
                queues
                    .iter()
                    .filter(|c| c.get("name").and_then(Json::as_str) == Some("queue"))
                    .count(),
                1,
                "{}",
                tree.body
            );
        }

        // The listing finds it through every filter, and misses it when
        // a filter excludes it.
        let hit = |query: &str| -> usize {
            let resp = app.handle("GET", &format!("/api/debug/traces{query}"), "");
            assert_eq!(resp.status, 200, "{query}: {}", resp.body);
            let v = json::parse(&resp.body).unwrap();
            v.get("traces")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .filter(|t| t.get("trace_id").and_then(Json::as_str) == Some(&id.to_string()))
                .count()
        };
        assert_eq!(hit(""), 1);
        assert_eq!(hit("?status=degraded"), 1);
        assert_eq!(hit("?technique=penalty&min_ms=0"), 1);
        assert_eq!(hit("?status=failed"), 0);
        assert_eq!(hit("?min_ms=600000"), 0);

        // Filter hygiene: typos are 400s, not empty result sets.
        let typo = app.handle("GET", "/api/debug/traces?technique=nonexistent", "");
        assert_eq!(typo.status, 400);
        assert!(
            typo.body
                .contains("google_like|plateaus|dissimilarity|penalty"),
            "{}",
            typo.body
        );
        assert_eq!(
            app.handle("GET", "/api/debug/traces?min_ms=x", "").status,
            400
        );
        assert_eq!(
            app.handle("GET", "/api/debug/traces?status=bogus", "")
                .status,
            400
        );
        assert_eq!(
            app.handle("GET", "/api/debug/traces?nope=1", "").status,
            400
        );

        // Trace lookup hygiene.
        assert_eq!(app.handle("GET", "/api/trace/zzz", "").status, 400);
        assert_eq!(
            app.handle("GET", "/api/trace/00000000000000ff", "").status,
            404
        );
    }

    /// A shed request (503) still carries a resolvable trace id: the
    /// failed tail rule keeps the trace, whose admission span names the
    /// shed.
    #[test]
    fn shed_requests_carry_a_resolvable_trace_id() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let config = arp_serve::ServeConfig {
            max_inflight: 1,
            ..arp_serve::ServeConfig::default()
        };
        let app = DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, 12), config);
        let _slot = app.service().admission().try_acquire().unwrap();
        let resp = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(resp.status, 503, "{}", resp.body);
        let v = json::parse(&resp.body).unwrap();
        let id = v
            .get("trace_id")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(resp.trace_id.as_deref(), Some(id.as_str()));

        let tree = app.handle("GET", &format!("/api/trace/{id}"), "");
        assert_eq!(tree.status, 200, "{}", tree.body);
        let v = json::parse(&tree.body).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("failed"));
        let root = v.get("root").unwrap();
        let admission = root
            .get("children")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("admission"))
            .expect("admission span");
        assert_eq!(
            admission
                .get("attrs")
                .unwrap()
                .get("outcome")
                .and_then(Json::as_str),
            Some("shed")
        );
    }

    /// With head sampling off (`--trace-sample 0`) every response still
    /// mints a trace id, and the debug endpoints serve exactly what the
    /// tail rules kept: the shed request, not the healthy one.
    #[test]
    fn unsampled_tracing_serves_only_tail_kept_traces() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 12);
        let mut config = arp_serve::ServeConfig {
            max_inflight: 1,
            ..arp_serve::ServeConfig::default()
        };
        config.trace.sample = 0.0;
        let app = DemoApp::with_config(QueryProcessor::new(g.name.clone(), g.network, 12), config);
        let healthy = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(healthy.status, 200, "{}", healthy.body);
        let healthy_id = served_trace_id(&healthy);
        let occupied = app.service().admission().try_acquire().unwrap();
        let shed = app.handle("POST", "/api/route", &route_body(&app));
        assert_eq!(shed.status, 503, "{}", shed.body);
        drop(occupied);
        let shed_id = served_trace_id(&shed);

        let listed = app.handle("GET", "/api/debug/traces", "");
        assert_eq!(listed.status, 200, "{}", listed.body);
        let v = json::parse(&listed.body).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(1.0));
        let kept = &v.get("traces").unwrap().as_array().unwrap()[0];
        assert_eq!(
            kept.get("trace_id").and_then(Json::as_str),
            Some(shed_id.to_string().as_str())
        );
        assert_eq!(kept.get("status").and_then(Json::as_str), Some("failed"));
        let tree = |id: TraceId| app.handle("GET", &format!("/api/trace/{id}"), "").status;
        assert_eq!((tree(healthy_id), tree(shed_id)), (404, 200));
    }

    /// A body far larger than one segment arrives whole however slowly the
    /// peer drains the socket, and however little each `write` takes.
    #[test]
    fn large_body_survives_short_writes_on_the_wire() {
        /// Takes at most `chunk` bytes per call, like a full send buffer.
        struct Trickle {
            taken: Vec<u8>,
            chunk: usize,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.chunk);
                self.taken.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut resp = HttpResponse::ok_json(Json::Null);
        resp.body = (0..100_000u32)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        resp.trace_id = Some("00000000deadbeef".to_string());
        for chunk in [1, 1_460] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let writer = {
                let resp = resp.clone();
                std::thread::spawn(move || {
                    let (mut stream, _) = listener.accept().unwrap();
                    write_response(&mut stream, &resp).unwrap();
                })
            };
            let mut stream = TcpStream::connect(addr).unwrap();
            let (mut wire, mut buf) = (Vec::new(), vec![0u8; chunk]);
            loop {
                match stream.read(&mut buf).unwrap() {
                    0 => break,
                    n => wire.extend_from_slice(&buf[..n]),
                }
            }
            writer.join().unwrap();
            let text = String::from_utf8(wire).unwrap();
            let (head, body) = text.split_once("\r\n\r\n").unwrap();
            assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
            assert!(head.contains("Content-Length: 100000\r\n"), "{head}");
            assert!(head.ends_with("Connection: close"), "{head}");
            assert_eq!(body, resp.body, "peer reading {chunk} bytes at a time");

            let mut trickle = Trickle {
                taken: Vec::new(),
                chunk,
            };
            write_response(&mut trickle, &resp).unwrap();
            assert_eq!(trickle.taken, text.as_bytes(), "{chunk}-byte writes");
        }
    }

    #[test]
    fn trace_id_header_is_written_on_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut resp = HttpResponse::ok_json(Json::object([("ok", Json::Bool(true))]));
            resp.trace_id = Some("00000000deadbeef".to_string());
            write_response(&mut stream, &resp).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        writer.join().unwrap();
        assert!(
            buf.contains("X-Arp-Trace-Id: 00000000deadbeef\r\n"),
            "{buf}"
        );
    }
}
