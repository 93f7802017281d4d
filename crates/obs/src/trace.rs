//! Per-request tracing: span trees, tail-sampled capture, a bounded
//! ring of completed traces.
//!
//! Aggregate counters say *that* a request was slow; a trace says
//! *where*. This module is the dependency-free substrate: a
//! [`SpanCollector`] hands out one [`TraceContext`] per request, the
//! request's stages open [`SpanGuard`]s (monotonic start/end ticks,
//! a status, `key=value` attributes), and on finish the assembled
//! [`CompletedTrace`] is either kept in a fixed-capacity ring buffer or
//! discarded.
//!
//! **Sampling.** Keeping every trace of a busy server is pointless; the
//! interesting ones are the outliers. The collector therefore combines
//! two rules:
//!
//! * **head sampling** — a deterministic, evenly-spread fraction of all
//!   traces (`sample` of [`TraceConfig`]) is kept regardless of outcome,
//!   so the ring always holds representative *healthy* requests to
//!   compare against;
//! * **tail rules** — a trace whose final status is not
//!   [`SpanStatus::Ok`] (degraded, truncated, failed) or whose total
//!   duration reaches `slow_ms` is **always** kept, head sample or not.
//!   The decision is made at finish time, which is what makes it a tail
//!   rule: the spans are recorded first, the verdict comes after.
//!
//! **Cost model.** Span recording is lock-light: a guard accumulates its
//! attributes locally and takes the per-trace mutex exactly once, on
//! end, to push the completed span (the only contention is between one
//! request's own lanes). There is no off switch — every request records
//! its spans; `sample` and the ring capacity bound what is *kept*.
//!
//! The collector exports four counters into the registry it was built
//! with: `arp_trace_spans_total`, `arp_trace_sampled_total`,
//! `arp_trace_dropped_total` (ring evictions) and
//! `arp_trace_slow_requests_total`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::instruments::Counter;
use crate::registry::Registry;

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits.
///
/// Mixed from a process-wide seed and a sequence counter so concurrent
/// requests never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }

    fn generate() -> TraceId {
        static SEED: OnceLock<u64> = OnceLock::new();
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seed = *SEED.get_or_init(|| {
            // Wall-clock nanos give cross-process entropy; the sequence
            // below guarantees in-process uniqueness either way.
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e37_79b9_7f4a_7c15)
        });
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        TraceId(if id == 0 { 1 } else { id })
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The standard 64-bit finalizer; one application decorrelates the seed
/// and sequence bits into an id that looks random per request.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How a span (or a whole trace) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Cut short by deadline pressure; carries partial work.
    Truncated,
    /// Served, but with at least one failed or short-circuited part.
    Degraded,
    /// Failed outright.
    Failed,
}

impl SpanStatus {
    /// Stable string for rendering and filters
    /// (`ok | truncated | degraded | failed`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Truncated => "truncated",
            SpanStatus::Degraded => "degraded",
            SpanStatus::Failed => "failed",
        }
    }

    /// Parses the `as_str` form (for endpoint filters).
    pub fn parse(s: &str) -> Option<SpanStatus> {
        match s {
            "ok" => Some(SpanStatus::Ok),
            "truncated" => Some(SpanStatus::Truncated),
            "degraded" => Some(SpanStatus::Degraded),
            "failed" => Some(SpanStatus::Failed),
            _ => None,
        }
    }
}

/// One completed span: a named interval of its trace, with ticks in
/// microseconds since the trace started (monotonic clock, so durations
/// are always non-negative).
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within the trace (the root is 1).
    pub id: u32,
    /// Parent span id; `None` only for the root.
    pub parent: Option<u32>,
    /// Stage name (`request`, `admission`, `queue`, `prepare`, `lane`,
    /// `assemble`, …).
    pub name: &'static str,
    /// Start tick, µs since the trace origin.
    pub start_us: u64,
    /// End tick, µs since the trace origin (`>= start_us`).
    pub end_us: u64,
    /// How the span ended.
    pub status: SpanStatus,
    /// `key=value` attributes (technique, cache key, epoch, breaker
    /// verdicts, …).
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Looks up one attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Tunables for the collector. `Default` keeps everything (full
/// sampling) in a 256-trace ring and flags requests slower than 500 ms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// Head-sampling rate in `[0, 1]`: the fraction of traces kept
    /// regardless of outcome, spread evenly over the request sequence
    /// (0.1 keeps exactly every 10th). Tail rules keep slow/degraded/
    /// failed/truncated traces even at 0.
    pub sample: f64,
    /// Ring-buffer capacity in completed traces; the oldest is evicted
    /// (and counted in `arp_trace_dropped_total`) when full.
    pub buffer: usize,
    /// Requests at least this slow are always kept and counted in
    /// `arp_trace_slow_requests_total`; 0 disables the slow rule.
    pub slow_ms: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample: 1.0,
            buffer: 256,
            slow_ms: 500,
        }
    }
}

/// A finished trace as held by the ring buffer.
#[derive(Clone, Debug)]
pub struct CompletedTrace {
    /// The trace id.
    pub id: TraceId,
    /// End-to-end duration in milliseconds.
    pub duration_ms: f64,
    /// The root status the request finished with.
    pub status: SpanStatus,
    /// Whether the head sampler picked this trace (a tail-kept trace may
    /// have `false` here).
    pub head_sampled: bool,
    /// Whether the trace crossed the slow threshold.
    pub slow: bool,
    /// All recorded spans, in completion order. The root has id 1 and no
    /// parent.
    pub spans: Vec<Span>,
}

impl CompletedTrace {
    /// The root span, if recorded.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// The first span with this name.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Every span with this name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Structural well-formedness: exactly one root, every parent link
    /// resolves to an earlier-created span (ids are assigned in creation
    /// order, so parent ids are strictly smaller — no cycles), every
    /// child's interval is contained in its parent's, and every duration
    /// is non-negative.
    pub fn well_nested(&self) -> bool {
        let mut roots = 0usize;
        for span in &self.spans {
            if span.end_us < span.start_us {
                return false;
            }
            match span.parent {
                None => roots += 1,
                Some(parent_id) => {
                    if parent_id >= span.id {
                        return false;
                    }
                    let Some(parent) = self.spans.iter().find(|s| s.id == parent_id) else {
                        return false;
                    };
                    if span.start_us < parent.start_us || span.end_us > parent.end_us {
                        return false;
                    }
                }
            }
        }
        roots == 1
    }
}

/// The mutable heart of one in-flight trace. Guards across threads share
/// it through an `Arc`; the mutex is taken only to push a completed span.
#[derive(Debug)]
struct ActiveTrace {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl ActiveTrace {
    fn tick_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("trace poisoned").push(span);
    }

    /// Files an already-over interval under a fresh span id.
    fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        start_us: u64,
        end_us: u64,
        status: SpanStatus,
        attrs: Vec<(&'static str, String)>,
    ) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_us,
            end_us: end_us.max(start_us),
            status,
            attrs,
        });
    }
}

/// The recording state shared by a collector's contexts and counters.
#[derive(Debug)]
struct CollectorInner {
    /// Head-sampling rate in permille (‰), pre-scaled from the config.
    sample_permille: u64,
    capacity: usize,
    slow_ms: u64,
    /// Request sequence driving the evenly-spread head sampler.
    seq: AtomicU64,
    ring: Mutex<VecDeque<CompletedTrace>>,
    spans_total: Counter,
    sampled_total: Counter,
    dropped_total: Counter,
    slow_total: Counter,
}

/// Hands out per-request [`TraceContext`]s and owns the ring buffer of
/// kept traces. Cheap to clone (an `Arc` handle).
#[derive(Clone, Debug)]
pub struct SpanCollector {
    inner: Arc<CollectorInner>,
}

impl SpanCollector {
    /// Builds a collector and registers its four counters in `registry`.
    pub fn new(config: &TraceConfig, registry: &Registry) -> SpanCollector {
        let inner = CollectorInner {
            sample_permille: (config.sample.clamp(0.0, 1.0) * 1000.0).round() as u64,
            capacity: config.buffer.max(1),
            slow_ms: config.slow_ms,
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            spans_total: registry.counter(
                "arp_trace_spans_total",
                "Spans recorded across all traces (kept or not).",
                &[],
            ),
            sampled_total: registry.counter(
                "arp_trace_sampled_total",
                "Traces kept in the ring buffer (head sample or tail rule).",
                &[],
            ),
            dropped_total: registry.counter(
                "arp_trace_dropped_total",
                "Kept traces evicted from the ring buffer to make room.",
                &[],
            ),
            slow_total: registry.counter(
                "arp_trace_slow_requests_total",
                "Requests at or above the slow-request threshold.",
                &[],
            ),
        };
        SpanCollector {
            inner: Arc::new(inner),
        }
    }

    /// Starts a new trace. The head-sampling verdict is drawn here (from
    /// the request sequence, evenly spread); the tail verdict waits for
    /// [`TraceContext::finish`].
    pub fn start_trace(&self) -> TraceContext {
        let inner = &self.inner;
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        // Bresenham spread: keep iff the running total of kept traces
        // advances at this sequence number — exactly `sample` of all
        // requests, without bursts.
        let p = inner.sample_permille;
        let head_sampled = (seq + 1) * p / 1000 > seq * p / 1000;
        TraceContext {
            id: TraceId::generate(),
            head_sampled,
            trace: Arc::new(ActiveTrace {
                origin: Instant::now(),
                next_id: AtomicU32::new(1),
                spans: Mutex::new(Vec::with_capacity(16)),
            }),
            collector: Arc::clone(inner),
        }
    }

    /// The kept traces, oldest first (a snapshot; the ring keeps
    /// evolving).
    pub fn traces(&self) -> Vec<CompletedTrace> {
        let ring = self.inner.ring.lock().expect("trace ring poisoned");
        ring.iter().cloned().collect()
    }

    /// Looks up one kept trace by id.
    pub fn trace(&self, id: TraceId) -> Option<CompletedTrace> {
        let ring = self.inner.ring.lock().expect("trace ring poisoned");
        ring.iter().find(|t| t.id == id).cloned()
    }

    /// Number of traces currently kept.
    pub fn len(&self) -> usize {
        self.inner.ring.lock().expect("trace ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The slow-request threshold in milliseconds (0 = rule off).
    pub fn slow_ms(&self) -> u64 {
        self.inner.slow_ms
    }
}

/// The verdicts [`TraceContext::finish`] hands back, for response
/// rendering and the slow-request log line.
#[derive(Clone, Copy, Debug)]
pub struct TraceReceipt {
    /// The trace id to echo in the response.
    pub id: TraceId,
    /// End-to-end duration in milliseconds.
    pub duration_ms: f64,
    /// The final status the trace was filed under.
    pub status: SpanStatus,
    /// Whether the trace crossed the slow threshold (the caller should
    /// emit its slow-request log line iff this is set).
    pub slow: bool,
    /// Whether the trace landed in the ring buffer (and is therefore
    /// visible to the debug endpoints).
    pub kept: bool,
}

/// One request's tracing handle: mints child spans and, at the end,
/// files the trace.
#[derive(Debug)]
pub struct TraceContext {
    id: TraceId,
    head_sampled: bool,
    trace: Arc<ActiveTrace>,
    collector: Arc<CollectorInner>,
}

impl TraceContext {
    /// This trace's id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Opens a root-level span (parent `None`). The first one opened is
    /// the root (id 1); a request has exactly one.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::open(&self.trace, name, None)
    }

    /// Opens a span under `parent` (a [`SpanGuard::id`]).
    pub fn child_span(&self, name: &'static str, parent: u32) -> SpanGuard {
        SpanGuard::open(&self.trace, name, Some(parent))
    }

    /// Records an already-over interval as a span — for instants (a
    /// breaker short-circuit) and retroactive measurements (queue wait).
    pub fn record_span(
        &self,
        name: &'static str,
        parent: Option<u32>,
        start_us: u64,
        end_us: u64,
        status: SpanStatus,
        attrs: Vec<(&'static str, String)>,
    ) {
        self.trace
            .record(name, parent, start_us, end_us, status, attrs);
    }

    /// The current tick in µs since the trace origin.
    pub fn tick_us(&self) -> u64 {
        self.trace.tick_us()
    }

    /// Finishes the trace under `status`: applies the head-sample and
    /// tail-keep rules, files the trace into the ring (evicting the
    /// oldest when full) and updates the `arp_trace_*` counters. Spans
    /// recorded by stragglers after this point are silently lost — the
    /// trace is already filed.
    pub fn finish(self, status: SpanStatus) -> TraceReceipt {
        let (trace, collector) = (&self.trace, &self.collector);
        let duration_ms = trace.origin.elapsed().as_secs_f64() * 1000.0;
        let mut spans = std::mem::take(&mut *trace.spans.lock().expect("trace poisoned"));
        // An abandoned lane may record its span from a worker thread in
        // the instant between the root guard ending and the trace being
        // filed; extend the root to cover such stragglers so the filed
        // tree stays well-nested.
        if let Some(max_end) = spans.iter().map(|s| s.end_us).max() {
            if let Some(root) = spans.iter_mut().find(|s| s.parent.is_none()) {
                root.end_us = root.end_us.max(max_end);
            }
        }
        collector.spans_total.add(spans.len() as u64);
        let slow = collector.slow_ms > 0 && duration_ms >= collector.slow_ms as f64;
        if slow {
            collector.slow_total.inc();
        }
        let kept = self.head_sampled || slow || status != SpanStatus::Ok;
        if kept {
            collector.sampled_total.inc();
            let completed = CompletedTrace {
                id: self.id,
                duration_ms,
                status,
                head_sampled: self.head_sampled,
                slow,
                spans,
            };
            let mut ring = collector.ring.lock().expect("trace ring poisoned");
            ring.push_back(completed);
            while ring.len() > collector.capacity {
                ring.pop_front();
                collector.dropped_total.inc();
            }
        }
        TraceReceipt {
            id: self.id,
            duration_ms,
            status,
            slow,
            kept,
        }
    }
}

/// An open span. Accumulates attributes locally and records itself into
/// the trace exactly once — on [`SpanGuard::end`] or drop. `Send`, so a
/// lane guard travels to the worker thread that runs the lane.
#[derive(Debug)]
pub struct SpanGuard {
    trace: Arc<ActiveTrace>,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_us: u64,
    status: SpanStatus,
    attrs: Vec<(&'static str, String)>,
}

impl SpanGuard {
    fn open(trace: &Arc<ActiveTrace>, name: &'static str, parent: Option<u32>) -> SpanGuard {
        SpanGuard {
            trace: Arc::clone(trace),
            id: trace.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_us: trace.tick_us(),
            status: SpanStatus::Ok,
            attrs: Vec::new(),
        }
    }

    /// This span's id, for parenting children.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Stamps one `key=value` attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        self.attrs.push((key, value.into()));
    }

    /// Stamps an integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        self.attrs.push((key, value.to_string()));
    }

    /// Sets the status the span will be recorded with.
    pub fn set_status(&mut self, status: SpanStatus) {
        self.status = status;
    }

    /// µs elapsed since this span started.
    pub fn elapsed_us(&self) -> u64 {
        self.trace.tick_us().saturating_sub(self.start_us)
    }

    /// This span's start tick (µs since the trace origin).
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// Opens a child of this span.
    pub fn child(&self, name: &'static str) -> SpanGuard {
        SpanGuard::open(&self.trace, name, Some(self.id))
    }

    /// Records an already-over interval as a child of this span (e.g.
    /// the queue wait, measured retroactively when the lane starts).
    pub fn record_child(
        &self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        status: SpanStatus,
        attrs: Vec<(&'static str, String)>,
    ) {
        self.trace
            .record(name, Some(self.id), start_us, end_us, status, attrs);
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.trace.push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us: self.start_us,
            end_us: self.trace.tick_us().max(self.start_us),
            status: self.status,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector(sample: f64, buffer: usize, slow_ms: u64) -> (SpanCollector, Registry) {
        let registry = Registry::new();
        let c = SpanCollector::new(
            &TraceConfig {
                sample,
                buffer,
                slow_ms,
            },
            &registry,
        );
        (c, registry)
    }

    #[test]
    fn trace_ids_are_unique_and_round_trip() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        let text = a.to_string();
        assert_eq!(text.len(), 16);
        assert_eq!(TraceId::parse(&text), Some(a));
        assert_eq!(TraceId::parse("nope"), None);
        assert_eq!(TraceId::parse(""), None);
    }

    #[test]
    fn spans_nest_and_attributes_stick() {
        let (c, registry) = collector(1.0, 8, 0);
        let ctx = c.start_trace();
        let id = ctx.id();
        let mut root = ctx.span("request");
        root.attr("city", "melbourne");
        {
            let mut child = ctx.child_span("admission", root.id());
            child.attr_u64("inflight", 3);
        }
        let lane = root.child("lane");
        lane.record_child(
            "queue",
            lane.start_us(),
            lane.start_us(),
            SpanStatus::Ok,
            vec![],
        );
        drop(lane);
        drop(root);
        let receipt = ctx.finish(SpanStatus::Ok);
        assert_eq!(receipt.id, id);
        assert!(receipt.kept, "sample 1.0 keeps everything");
        let t = c.trace(id).expect("kept trace is retrievable");
        assert!(t.well_nested(), "{:?}", t.spans);
        assert_eq!(t.root().unwrap().attr("city"), Some("melbourne"));
        assert_eq!(t.span("admission").unwrap().attr("inflight"), Some("3"));
        assert!(t.span("queue").is_some());
        assert_eq!(registry.counter_value("arp_trace_spans_total", &[]), 4);
        assert_eq!(registry.counter_value("arp_trace_sampled_total", &[]), 1);
    }

    #[test]
    fn head_sampling_keeps_an_even_exact_fraction() {
        let (c, _registry) = collector(0.1, 1024, 0);
        let mut kept = 0;
        for _ in 0..100 {
            let ctx = c.start_trace();
            ctx.span("request").end();
            if ctx.finish(SpanStatus::Ok).kept {
                kept += 1;
            }
        }
        assert_eq!(kept, 10, "0.1 sampling keeps exactly 10 of 100");
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn tail_rules_keep_unhealthy_traces_despite_zero_sampling() {
        let (c, registry) = collector(0.0, 16, 0);
        for status in [
            SpanStatus::Ok,
            SpanStatus::Degraded,
            SpanStatus::Truncated,
            SpanStatus::Failed,
        ] {
            let ctx = c.start_trace();
            ctx.span("request").end();
            let receipt = ctx.finish(status);
            assert_eq!(
                receipt.kept,
                status != SpanStatus::Ok,
                "tail rule for {status:?}"
            );
        }
        assert_eq!(c.len(), 3);
        assert_eq!(registry.counter_value("arp_trace_sampled_total", &[]), 3);
    }

    #[test]
    fn slow_traces_are_kept_and_counted() {
        let (c, registry) = collector(0.0, 16, 1);
        let ctx = c.start_trace();
        ctx.span("request").end();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let receipt = ctx.finish(SpanStatus::Ok);
        assert!(receipt.slow);
        assert!(receipt.kept);
        assert_eq!(
            registry.counter_value("arp_trace_slow_requests_total", &[]),
            1
        );
    }

    #[test]
    fn ring_eviction_counts_each_drop() {
        let (c, registry) = collector(1.0, 3, 0);
        let mut ids = Vec::new();
        for _ in 0..5 {
            let ctx = c.start_trace();
            ids.push(ctx.id());
            ctx.finish(SpanStatus::Ok);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(registry.counter_value("arp_trace_dropped_total", &[]), 2);
        assert!(c.trace(ids[0]).is_none(), "oldest evicted");
        assert!(c.trace(ids[4]).is_some(), "newest kept");
    }

    #[test]
    fn unsampled_traces_still_mint_unique_ids_and_count_their_spans() {
        let (c, registry) = collector(0.0, 16, 0);
        let a = c.start_trace();
        let b = c.start_trace();
        assert_ne!(a.id(), b.id());
        let mut span = a.span("request");
        span.attr("recorded", "x");
        drop(span);
        let receipt = a.finish(SpanStatus::Ok);
        assert!(!receipt.kept);
        assert_eq!(c.len(), 0);
        assert_eq!(registry.counter_value("arp_trace_spans_total", &[]), 1);
        b.finish(SpanStatus::Ok);
    }

    #[test]
    fn well_nested_rejects_malformed_trees() {
        let base = Span {
            id: 1,
            parent: None,
            name: "request",
            start_us: 0,
            end_us: 100,
            status: SpanStatus::Ok,
            attrs: Vec::new(),
        };
        let trace = |spans: Vec<Span>| CompletedTrace {
            id: TraceId(1),
            duration_ms: 0.1,
            status: SpanStatus::Ok,
            head_sampled: true,
            slow: false,
            spans,
        };
        // A child escaping its parent's interval.
        let escaped = Span {
            id: 2,
            parent: Some(1),
            end_us: 150,
            ..base.clone()
        };
        assert!(!trace(vec![base.clone(), escaped]).well_nested());
        // A dangling parent link.
        let dangling = Span {
            id: 2,
            parent: Some(7),
            ..base.clone()
        };
        assert!(!trace(vec![base.clone(), dangling]).well_nested());
        // Two roots.
        let second_root = Span {
            id: 2,
            ..base.clone()
        };
        assert!(!trace(vec![base.clone(), second_root]).well_nested());
        // The healthy shape passes.
        let child = Span {
            id: 2,
            parent: Some(1),
            start_us: 10,
            end_us: 90,
            ..base.clone()
        };
        assert!(trace(vec![base, child]).well_nested());
    }
}
