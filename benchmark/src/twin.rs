//! The in-process twin of the server: the byte check, and the traced run
//! that times calls into each crate's public functions.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arp_citygen::GeneratedCity;
use arp_core::ChTopology;
use arp_demo::json::{self, Json};
use arp_demo::{response_to_geojson, DemoApp, DemoBackend, QueryProcessor, QueryResponse};
use arp_roadnet::{Point, RoadNetwork};
use arp_serve::{CancelToken, Deadline, RouteBackend, RouteService, ServeConfig};
use arp_traffic::{
    CityProfile, DurabilityConfig, FsyncPolicy, TrafficDelta, TrafficFeed, TrafficState,
};

use crate::probe;
use crate::stats::{digest, median};
use crate::workload::{Op, Plan, CITY_SEED};

/// Calls per set-up or write primitive; the metric is their median.
const PRIMITIVE_CALLS: usize = 3;

/// The configuration `arp serve --trace-sample 0 --slow-ms 0` runs with.
pub fn serve_config() -> ServeConfig {
    let mut config = ServeConfig::default();
    config.trace.sample = 0.0;
    config.trace.slow_ms = 0;
    config
}

/// The twin the byte check needs. Without the CH tier: responses are
/// byte-identical either way (the repository's `ch_index` suite pins
/// that) and skipping the contraction saves seconds per run.
pub fn plain_app(city: GeneratedCity) -> DemoApp {
    let processor = QueryProcessor::new(city.name, city.network, CITY_SEED);
    DemoApp::with_config(processor, serve_config())
}

/// A response body without its `"trace_id":"…"` member, the one field
/// that differs between two servings of the same request.
pub fn strip_trace_id(body: &str) -> String {
    const KEY: &str = "\"trace_id\":\"";
    let Some(start) = body.find(KEY) else {
        return body.to_string();
    };
    let value = start + KEY.len();
    let Some(end) = body[value..].find('"').map(|i| value + i + 1) else {
        return body.to_string();
    };
    let (before, after) = (&body[..start], &body[end..]);
    // Drop the one comma that separated the member from a neighbour.
    match after.strip_prefix(',') {
        Some(rest) => format!("{before}{rest}"),
        None => format!("{}{after}", before.strip_suffix(',').unwrap_or(before)),
    }
}

#[derive(Default)]
pub struct Check {
    pub checked: usize,
    pub mismatched: usize,
}

impl Check {
    fn compare(&mut self, live: &str, twin: &str) {
        self.checked += 1;
        if strip_trace_id(live) != strip_trace_id(twin) {
            self.mismatched += 1;
        }
    }
}

fn apply_delta(app: &DemoApp, delta: &str) -> Result<(), String> {
    let reply = app.handle("POST", "/api/traffic", delta);
    if reply.status != 200 {
        return Err(format!("twin refused delta {delta:?}: {}", reply.body));
    }
    Ok(())
}

/// Replays the `solo` list on `app`, applying the same deltas at the same
/// positions, and compares the bodies the live server returned.
pub fn byte_check(app: &DemoApp, plan: &Plan, kept: &[(usize, String)]) -> Result<Check, String> {
    let mut check = Check::default();
    let mut kept = kept.iter().peekable();
    for (position, &op) in plan.solo.iter().enumerate() {
        match op {
            Op::Traffic(i) => apply_delta(app, &plan.deltas[i])?,
            Op::Route(i) => {
                if let Some((_, live)) = kept.next_if(|(p, _)| *p == position) {
                    let twin = app.handle("POST", "/api/route", &plan.bodies[i]);
                    check.compare(live, &twin.body);
                }
            }
        }
    }
    Ok(check)
}

/// The `/api/route` body rebuilt through `arp_demo`'s public `Json` and
/// `response_to_geojson`, without the `trace_id` member. The server's own
/// renderer is private, so this replica is what the traced run times as
/// `demo.render`; it is compared with the real body on every request, so
/// it cannot drift from the wire format unnoticed.
pub fn render_replica(response: &QueryResponse) -> String {
    let approaches = response
        .approaches
        .iter()
        .map(|approach| {
            let routes = approach
                .routes
                .iter()
                .map(|route| {
                    let polyline = route
                        .polyline
                        .iter()
                        .map(|p| Json::Array(vec![Json::Number(p.lon), Json::Number(p.lat)]))
                        .collect();
                    Json::object([
                        ("minutes", Json::Number(route.minutes as f64)),
                        ("color", Json::str(route.color)),
                        ("polyline", Json::Array(polyline)),
                    ])
                })
                .collect();
            Json::object([
                ("label", Json::str(approach.label.to_string())),
                ("routes", Json::Array(routes)),
            ])
        })
        .collect();
    Json::object([
        (
            "fastest_minutes",
            Json::Number(response.fastest_minutes as f64),
        ),
        ("approaches", Json::Array(approaches)),
        ("truncated", Json::Bool(response.truncated)),
        ("epoch", Json::Number(response.epoch as f64)),
        ("geojson", Json::str(response_to_geojson(response))),
    ])
    .to_string_compact()
}

/// A timed interval: its name, the request it belongs to and the span
/// that caused it. Times are raw microseconds since the recorder began;
/// the ledger's metrics are the same intervals in reference-machine ms.
pub struct Span {
    pub name: String,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &str, request: usize, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ms.
    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.now_us();
        (self.spans[id].end_us - self.spans[id].start_us) / 1e3
    }

    fn time<T>(
        &mut self,
        name: &str,
        request: usize,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, request, parent);
        let value = call();
        (value, self.close(id))
    }

    /// What recording one span costs, in ms: the overhead the traced run
    /// adds to every call it times.
    pub fn cost_per_span_ms() -> f64 {
        const N: usize = 20_000;
        let mut scratch = Recorder::new();
        let started = Instant::now();
        for i in 0..N {
            let ((), _) = scratch.time("calibration", i, None, || ());
        }
        std::hint::black_box(&scratch.spans);
        started.elapsed().as_secs_f64() * 1e3 / N as f64
    }

    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::object([
                    ("id", Json::Number(id as f64)),
                    ("name", Json::str(s.name.as_str())),
                    ("request", Json::Number(s.request as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
                    ),
                    ("start_us", Json::Number(s.start_us)),
                    ("end_us", Json::Number(s.end_us)),
                ])
            })
            .collect();
        Json::object([("spans", Json::Array(spans))]).to_string_compact()
    }
}

/// The serial replay of one request's pipeline stages.
pub struct Stages {
    pub substrate_ms: f64,
    /// `(technique slug, ms)` in lane order.
    pub lanes_ms: Vec<(String, f64)>,
    pub assemble_ms: f64,
}

impl Stages {
    /// Raw times → reference-machine times.
    fn scaled(mut self, factor: f64) -> Stages {
        self.substrate_ms *= factor;
        self.assemble_ms *= factor;
        for (_, ms) in &mut self.lanes_ms {
            *ms *= factor;
        }
        self
    }

    /// Substrate plus the four lanes, one after the other.
    pub fn compute_ms(&self) -> f64 {
        self.substrate_ms + self.lanes_ms.iter().map(|(_, ms)| ms).sum::<f64>()
    }
}

/// Everything timed for one route request on the twin.
pub struct Measured {
    /// False for a warm-up request.
    pub solo: bool,
    pub km: f64,
    pub handle_ms: f64,
    pub parse_ms: f64,
    pub snap_ms: f64,
    pub pin_ms: f64,
    pub route_ms: f64,
    pub render_ms: f64,
    /// Present when this was the first request for its pair at its
    /// epoch — the only ones the server computes rather than looks up.
    pub stages: Option<Stages>,
}

pub struct Traced {
    pub recorder: Recorder,
    pub measured: Vec<Measured>,
    pub check: Check,
}

fn parse_route_body(body: &str) -> Option<(Point, Point)> {
    let request = json::parse(body).ok()?;
    let number = |key: &str| request.get(key).and_then(Json::as_f64);
    Some((
        Point::new(number("slon")?, number("slat")?),
        Point::new(number("tlon")?, number("tlat")?),
    ))
}

/// One route request of the replay.
struct Item {
    /// Its number among the replayed requests (the spans' `request`).
    request: usize,
    /// Position in `plan.solo`; `None` for a warm-up request.
    position: Option<usize>,
    body_id: usize,
}

/// What the replay root's children took, raw ms, and where the request
/// snapped to.
struct Replayed {
    snapped: arp_demo::SnappedQuery,
    parse_ms: f64,
    snap_ms: f64,
    pin_ms: f64,
    route_ms: f64,
    render_ms: f64,
}

/// Replays warm-up and every `plan.twin_stride`-th `solo` route request on three
/// instances that share `app`'s processor but no cache, so no measurement
/// warms the cache for another: `app` itself (`DemoApp::handle`), a
/// second `RouteService` (parse → snap → pin → route → render, nested
/// under one root span), and a bare `DemoBackend` (substrate, the four
/// lanes one after the other, assemble).
///
/// The list is cut into segments at its deltas. Within a segment the
/// three passes run one after the other, each over the whole segment, so
/// every pass sees what the server sees — the same code on consecutive
/// requests — rather than a CPU cache the other passes just emptied.
/// A delta is applied once (the traffic state is the processor's) and the
/// replay then waits for the index, so all three passes of the next
/// segment see the same, customized epoch.
pub fn traced_replay(
    app: &DemoApp,
    plan: &Plan,
    kept: &[(usize, String)],
) -> Result<Traced, String> {
    let processor = &app.processor;
    let service = RouteService::new(
        DemoBackend::new(Arc::clone(processor)),
        serve_config(),
        processor.registry(),
    );
    let backend = DemoBackend::new(Arc::clone(processor));

    let mut segments: Vec<(Option<usize>, Vec<Item>)> = vec![(None, Vec::new())];
    let mut solo_routes = 0usize;
    let mut request = 0usize;
    let warm = plan.warm.iter().map(|&i| (None, Op::Route(i)));
    let solo = plan.solo.iter().enumerate().map(|(p, &op)| (Some(p), op));
    for (position, op) in warm.chain(solo) {
        match op {
            Op::Traffic(delta) => segments.push((Some(delta), Vec::new())),
            Op::Route(body_id) => {
                if position.is_some() {
                    solo_routes += 1;
                    if !(solo_routes - 1).is_multiple_of(plan.twin_stride) {
                        continue;
                    }
                }
                let items = &mut segments.last_mut().expect("starts non-empty").1;
                items.push(Item {
                    request,
                    position,
                    body_id,
                });
                request += 1;
            }
        }
    }

    let mut recorder = Recorder::new();
    let mut check = Check::default();
    let mut kept = kept.iter().peekable();
    let mut computed = BTreeSet::new();
    // Indexed by `Item::request`; each pass has its own probe series.
    let mut handled: Vec<f64> = Vec::new();
    let mut replayed: Vec<Replayed> = Vec::new();
    let mut stages: Vec<Option<Stages>> = Vec::new();
    let mut handle_probes = probe::Series::new();
    let mut replay_probes = probe::Series::new();
    let mut stage_probes = probe::Series::new();

    for (delta, items) in &segments {
        if let Some(delta) = *delta {
            apply_delta(app, &plan.deltas[delta])?;
            let epoch = processor.traffic().epoch();
            let index = processor
                .ch_index()
                .expect("the traced twin has the CH tier");
            if !index.wait_ready(epoch, Duration::from_secs(20)) {
                return Err(format!("twin index not ready at epoch {epoch}"));
            }
        }
        let epoch = processor.traffic().epoch();

        // What `handle` served, for the render replica to be held against.
        let mut served = Vec::with_capacity(items.len());
        for item in items {
            let body = &plan.bodies[item.body_id];
            handle_probes.before(item.request);
            let (reply, ms) = recorder.time("demo.handle", item.request, None, || {
                app.handle("POST", "/api/route", body)
            });
            handled.push(ms);
            if let Some((_, live)) = kept.next_if(|(p, _)| Some(*p) == item.position) {
                check.compare(live, &reply.body);
            }
            served.push(digest([strip_trace_id(&reply.body).as_str()]));
        }

        for (item, served) in items.iter().zip(served) {
            let (body, request) = (&plan.bodies[item.body_id], item.request);
            replay_probes.before(request);
            let root = recorder.open("request", request, None);
            let (points, parse_ms) =
                recorder.time("demo.parse", request, Some(root), || parse_route_body(body));
            let (s, t) = points.ok_or_else(|| format!("unparseable body {body}"))?;
            let (snapped, snap_ms) =
                recorder.time("roadnet.snap", request, Some(root), || processor.snap(s, t));
            let snapped = snapped.map_err(|e| format!("twin cannot snap {body}: {e}"))?;
            let (prepared, pin_ms) = recorder.time("traffic.pin", request, Some(root), || {
                processor.prepare_query(snapped)
            });
            let (routed, route_ms) = recorder.time("serve.route", request, Some(root), || {
                service.route(prepared)
            });
            let routed = routed.map_err(|e| format!("twin route failed for {body}: {e:?}"))?;
            let (rendered, render_ms) = recorder.time("demo.render", request, Some(root), || {
                render_replica(&routed)
            });
            recorder.close(root);
            if digest([rendered.as_str()]) != served {
                return Err(format!(
                    "the render replica differs from the served body for {body}"
                ));
            }
            replayed.push(Replayed {
                snapped,
                parse_ms,
                snap_ms,
                pin_ms,
                route_ms,
                render_ms,
            });
        }

        for item in items {
            if !computed.insert((item.body_id, epoch)) {
                stages.push(None);
                continue;
            }
            let (body, request) = (&plan.bodies[item.body_id], item.request);
            stage_probes.before(request);
            let root = recorder.open("stages", request, None);
            let pinned = processor.prepare_query(replayed[request].snapped);
            let (prepared, substrate_ms) =
                recorder.time("core.substrate", request, Some(root), || {
                    backend.prepare(pinned, &CancelToken::new(), &Deadline::never())
                });
            let mut lanes_ms = Vec::new();
            let mut parts = Vec::new();
            for lane in 0..backend.lanes() {
                let slug = backend.lane_name(lane);
                let (part, ms) =
                    recorder.time(&format!("core.lane.{slug}"), request, Some(root), || {
                        backend.compute(&prepared, lane)
                    });
                parts.push(part.map_err(|e| format!("twin lane {slug} failed for {body}: {e}"))?);
                lanes_ms.push((slug, ms));
            }
            let (assembled, assemble_ms) =
                recorder.time("demo.assemble", request, Some(root), || {
                    backend.assemble(&prepared, parts)
                });
            std::hint::black_box(assembled);
            recorder.close(root);
            stages.push(Some(Stages {
                substrate_ms,
                lanes_ms,
                assemble_ms,
            }));
        }
    }

    // Raw → reference-machine ms, each pass by its own probes.
    let [handle_factors, replay_factors, stage_factors] =
        [handle_probes, replay_probes, stage_probes].map(|mut series| {
            series.after(request);
            series.factors(request)
        });
    let items = segments.iter().flat_map(|(_, items)| items);
    let measured = items
        .zip(handled)
        .zip(replayed)
        .zip(stages)
        .map(|(((item, handle_ms), r), stages)| {
            let i = item.request;
            let f = replay_factors[i];
            Measured {
                solo: item.position.is_some(),
                km: plan.km[item.body_id],
                handle_ms: handle_ms * handle_factors[i],
                parse_ms: r.parse_ms * f,
                snap_ms: r.snap_ms * f,
                pin_ms: r.pin_ms * f,
                route_ms: r.route_ms * f,
                render_ms: r.render_ms * f,
                stages: stages.map(|s| s.scaled(stage_factors[i])),
            }
        })
        .collect();
    Ok(Traced {
        recorder,
        measured,
        check,
    })
}

/// Medians, in ms, of the set-up and write primitives.
pub struct Primitives {
    pub generate_ms: f64,
    pub processor_new_ms: f64,
    pub cch_build_ms: f64,
    pub cch_customize_ms: f64,
    pub traffic_parse_ms: f64,
    pub traffic_apply_ms: f64,
    pub traffic_apply_durable_ms: f64,
}

fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = call();
    (value, started.elapsed().as_secs_f64() * 1e3)
}

fn median_of_calls(mut call: impl FnMut() -> f64) -> f64 {
    median(&(0..PRIMITIVE_CALLS).map(|_| call()).collect::<Vec<_>>())
}

/// Times the set-up primitives on `net` and the write primitives on the
/// peak-hour delta of `seed`'s feed. `scratch` is a directory for the
/// durable state; it is removed again.
pub fn primitives(
    plan: &Plan,
    net: &RoadNetwork,
    seed: u64,
    scratch: &std::path::Path,
) -> Result<Primitives, String> {
    let mut probes = probe::burst(3);
    let generate_ms = median_of_calls(|| timed(|| crate::workload::generate_city(plan.city)).1);
    let processor_new_ms = median_of_calls(|| {
        let net = net.clone();
        timed(|| QueryProcessor::new(plan.city.name(), net, CITY_SEED)).1
    });
    let (topology, first_build_ms) = timed(|| ChTopology::build(net));
    let mut builds = vec![first_build_ms];
    builds.extend((1..PRIMITIVE_CALLS).map(|_| timed(|| ChTopology::build(net)).1));
    let mut customizes = Vec::new();
    for _ in 0..PRIMITIVE_CALLS {
        let (metric, ms) = timed(|| topology.customize(net, net.weights()));
        metric.map_err(|e| format!("customize failed: {e}"))?;
        customizes.push(ms);
    }

    let profile = CityProfile::for_city_name(plan.city.name());
    let feed = TrafficFeed::new(seed, profile);
    let texts: Vec<String> = (0..PRIMITIVE_CALLS as u64)
        .map(|i| feed.delta_for_tick(7 + i, net.num_edges()).to_string())
        .collect();
    let mut deltas = Vec::new();
    let mut parse_ms = Vec::new();
    for text in &texts {
        let (delta, ms) = timed(|| TrafficDelta::parse(text));
        deltas.push(delta.map_err(|e| format!("feed delta does not parse: {e}"))?);
        parse_ms.push(ms);
    }
    let shared = Arc::new(net.clone());
    let apply_all = |state: &TrafficState| -> Result<f64, String> {
        let mut ms = Vec::new();
        for delta in &deltas {
            let (outcome, took) = timed(|| state.apply_delta(delta));
            outcome.map_err(|e| format!("apply_delta: {e}"))?;
            ms.push(took);
        }
        Ok(median(&ms))
    };
    let traffic_apply_ms = apply_all(&TrafficState::new(Arc::clone(&shared)))?;
    let mut durability = DurabilityConfig::new(scratch);
    durability.fsync = FsyncPolicy::Always;
    let durable = TrafficState::recover_with(shared, durability)
        .map_err(|e| format!("{}: {e}", scratch.display()));
    let traffic_apply_durable_ms = durable.and_then(|(state, _)| apply_all(&state));
    let _ = std::fs::remove_dir_all(scratch);
    probes.extend(probe::burst(3));

    // Raw → reference-machine ms, by the probes around the block.
    let f = probe::factor(&probes);
    Ok(Primitives {
        generate_ms: generate_ms * f,
        processor_new_ms: processor_new_ms * f,
        cch_build_ms: median(&builds) * f,
        cch_customize_ms: median(&customizes) * f,
        traffic_parse_ms: median(&parse_ms) * f,
        traffic_apply_ms: traffic_apply_ms * f,
        traffic_apply_durable_ms: traffic_apply_durable_ms? * f,
    })
}

/// Median of `PRIMITIVE_CALLS` renders of `GET /api/metrics`, in
/// reference-machine ms.
pub fn metrics_render_ms(app: &DemoApp) -> f64 {
    let raw = median_of_calls(|| timed(|| app.handle("GET", "/api/metrics", "")).1);
    raw * probe::factor(&probe::burst(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_is_stripped_wherever_it_sits() {
        let middle = r#"{"geojson":"x","trace_id":"00aa11bb22cc33dd","truncated":false}"#;
        assert_eq!(
            strip_trace_id(middle),
            r#"{"geojson":"x","truncated":false}"#
        );
        let last = r#"{"error":"overloaded","trace_id":"00aa11bb22cc33dd"}"#;
        assert_eq!(strip_trace_id(last), r#"{"error":"overloaded"}"#);
        let only = r#"{"trace_id":"00aa11bb22cc33dd"}"#;
        assert_eq!(strip_trace_id(only), "{}");
        let none = r#"{"epoch":0}"#;
        assert_eq!(strip_trace_id(none), none);
        let a = middle.replace("00aa", "ffee");
        assert_eq!(strip_trace_id(&a), strip_trace_id(middle));
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut r = Recorder::new();
        let root = r.open("request", 7, None);
        let ((), child_ms) = r.time("demo.parse", 7, Some(root), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let root_ms = r.close(root);
        assert!(child_ms >= 2.0 && root_ms >= child_ms);
        assert_eq!(r.spans[1].parent, Some(root));
        assert!(r.spans[0].start_us <= r.spans[1].start_us);
        assert!(r.spans[1].end_us <= r.spans[0].end_us);
        let parsed = json::parse(&r.to_json()).unwrap();
        let spans = parsed.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("name").and_then(Json::as_str),
            Some("demo.parse")
        );
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert!(Recorder::cost_per_span_ms() < 0.05);
    }
}
