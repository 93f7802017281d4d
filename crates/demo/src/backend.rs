//! The demo's [`RouteBackend`]: how `arp-serve` drives the query
//! processor.
//!
//! Each of the four techniques is one *lane* — lane `i` is
//! `ProviderKind::ALL[i]`, shown under the blind label `LABELS[i]` — so the
//! serving layer computes them in parallel and caches them independently
//! — a repeat query recomputes nothing, and a query that shares endpoints
//! with a cached one recomputes only the lanes that expired.
//!
//! Its one assembly ([`RouteBackend::assemble_lanes`]) owns the mapping
//! from lane statuses to the response (DESIGN.md §9). The inherent
//! [`DemoBackend::compute`] and [`DemoBackend::assemble`] are the serial
//! stages that served responses are compared against.

use std::sync::Arc;

use arp_core::SearchBudget;
use arp_roadnet::weight::UNIT_SCALE;
use arp_serve::{CacheHit, CancelToken, Deadline, LaneOutcome, LaneStatus, RouteBackend};

use crate::query::{ApproachRoutes, PreparedQuery, QueryProcessor, QueryResponse};

/// A request whose tree-pair build settled fewer labels than this runs
/// its pair-reading lanes on the request thread
/// ([`RouteBackend::inline_late_lanes`]). Those lanes read only inside
/// the pair's stretch ellipse, so the count bounds their work; below it,
/// the three in a row cost less than handing them to the pool and
/// waiting for the slowest. The value is where the two paths cross on
/// Copenhagen-Large (`repro_perf`'s "Inline crossover" table, recorded in
/// EXPERIMENTS.md). It is a property of the lanes, not a setting.
pub const INLINE_BELOW_SETTLED: u64 = 1_500;

/// Adapts a [`QueryProcessor`] to the serving layer's lane model.
pub struct DemoBackend {
    processor: Arc<QueryProcessor>,
}

impl DemoBackend {
    /// Wraps a shared processor.
    pub fn new(processor: Arc<QueryProcessor>) -> DemoBackend {
        DemoBackend { processor }
    }

    /// The wrapped processor.
    pub fn processor(&self) -> &QueryProcessor {
        &self.processor
    }

    /// Runs one lane to its end under a token nothing trips: the serial
    /// reference stage that served responses are compared against.
    pub fn compute(
        &self,
        request: &PreparedQuery,
        lane: usize,
    ) -> Result<Arc<ApproachRoutes>, String> {
        match self.run_lane(request, lane, &CancelToken::new())? {
            LaneOutcome::Complete(part) | LaneOutcome::Truncated(part) => Ok(part),
        }
    }

    /// Assembles every lane's part, in lane order: the serial reference
    /// stage that served responses are compared against.
    pub fn assemble(
        &self,
        request: &PreparedQuery,
        parts: Vec<Arc<ApproachRoutes>>,
    ) -> QueryResponse {
        self.processor.assemble(request, parts)
    }
}

impl RouteBackend for DemoBackend {
    type Request = PreparedQuery;
    type Part = Arc<ApproachRoutes>;
    type Response = QueryResponse;

    fn lanes(&self) -> usize {
        self.processor.technique_slots()
    }

    fn lane_name(&self, lane: usize) -> String {
        // The technique slug (server-side identity: breakers, metrics,
        // `lane.<slug>` failpoints). Responses only ever carry the blind
        // label.
        self.processor.slot_technique(lane).to_string()
    }

    fn lane_key(&self, request: &PreparedQuery, lane: usize) -> String {
        // Keyed on the snapped endpoints alone: no key names a traffic
        // column, and `reuse` checks every hit against the request's
        // pinned snapshot. The substrate is derived state and stays out of
        // the key; the cache probe runs before `prepare` anyway, which is
        // exactly why the snapshot is pinned at request construction
        // rather than in `prepare`.
        self.processor.slot_cache_key_at(&request.snapped, lane)
    }

    fn reuse(
        &self,
        request: &PreparedQuery,
        _lane: usize,
        cached: Arc<ApproachRoutes>,
    ) -> Option<CacheHit<Arc<ApproachRoutes>>> {
        self.processor.reuse_slot(request, cached)
    }

    fn reads_prepare(&self, lane: usize) -> bool {
        // Prepare grows the public tree pair; a technique that never
        // reads it (Google-like searches its own column) starts first.
        self.processor.slot_reads_pair(lane)
    }

    fn prepare(
        &self,
        request: PreparedQuery,
        token: &CancelToken,
        deadline: &Deadline,
    ) -> PreparedQuery {
        // Grow the request's tree pair once, under the same cancel token
        // the lanes observe plus whatever headroom the deadline leaves. A
        // build that cannot finish (tripped token, expired deadline,
        // unroutable pair) leaves its error on the request, and every lane
        // that reads the pair serves what it had proven.
        let mut budget = SearchBudget::with_cancel_flag(token.flag());
        if !deadline.is_unbounded() {
            match deadline.remaining() {
                Some(headroom) => budget = budget.with_deadline(headroom),
                // Already expired: don't start a doomed build.
                None => return request,
            }
        }
        self.processor.prepare_substrate(request, &budget)
    }

    fn inline_late_lanes(&self, request: &PreparedQuery) -> bool {
        // Only a built pair bounds the lanes that read it: a prepare that
        // failed, was interrupted or ran out of deadline fans out.
        request
            .pair_settled()
            .is_some_and(|settled| settled < INLINE_BELOW_SETTLED)
    }

    fn run_lane(
        &self,
        request: &PreparedQuery,
        lane: usize,
        token: &CancelToken,
    ) -> Result<LaneOutcome<Arc<ApproachRoutes>>, String> {
        // The serving layer's cancel token becomes the technique's search
        // budget: a tripped deadline stops the in-flight search within one
        // budget-check interval, and the routes admitted so far come back
        // as a truncated lane.
        let budget = SearchBudget::with_cancel_flag(token.flag());
        match self.processor.compute_slot_prepared(request, lane, &budget) {
            Ok((part, true)) => Ok(LaneOutcome::Truncated(part)),
            Ok((part, false)) => Ok(LaneOutcome::Complete(part)),
            Err(e) => Err(e.to_string()),
        }
    }

    fn assemble_lanes(
        &self,
        request: &PreparedQuery,
        parts: Vec<Option<Arc<ApproachRoutes>>>,
        statuses: &[LaneStatus],
    ) -> Option<QueryResponse> {
        // A lane that completed answered for the trip at the pinned
        // epoch, and every technique's column shares that epoch's
        // closures: with an `ok` lane and no route anywhere the trip is
        // unroutable (a 404), not a request with nothing to serve.
        if !statuses.contains(&LaneStatus::Ok)
            && parts.iter().flatten().all(|a| a.routes.is_empty())
        {
            return None;
        }
        // A missing lane keeps its blind label with no routes, so the
        // UI's A–D structure survives.
        let approaches = parts
            .into_iter()
            .enumerate()
            .map(|(lane, part)| {
                part.unwrap_or_else(|| {
                    Arc::new(ApproachRoutes {
                        label: self.processor.slot_label(lane),
                        routes: Vec::new(),
                        basis: None,
                    })
                })
            })
            .collect();
        let mut response = self.processor.assemble(request, approaches);
        // The verdicts are keyed by blind label: which technique failed
        // stays server-side. An all-`ok` response carries none of them.
        if statuses.iter().any(|status| *status != LaneStatus::Ok) {
            response.truncated = statuses.contains(&LaneStatus::Truncated);
            response.degraded = statuses.iter().any(LaneStatus::is_degraded);
            response.lane_status = statuses
                .iter()
                .enumerate()
                .map(|(lane, status)| (self.processor.slot_label(lane), *status))
                .collect();
        }
        Some(response)
    }

    fn trace_attrs(&self, request: &PreparedQuery) -> Vec<(&'static str, String)> {
        // Root-span identity: the pinned traffic epoch (via the
        // overlay's own hook, so the attribute key stays in one place),
        // the publication number that names the snapshot's column, and a
        // representative cache key covering city + snapped endpoints.
        vec![
            request.overlay.trace_attr(),
            ("publication", request.overlay.publication().to_string()),
            (
                "cache_key",
                self.processor.slot_cache_key_at(&request.snapped, 0),
            ),
        ]
    }

    fn prepare_attrs(&self, request: &PreparedQuery) -> Vec<(&'static str, String)> {
        // Whether the pair was built, the bound scale its landmark bound
        // was read at and the labels it settled: a large pair at a slack
        // scale says why a miss was slow.
        let substrate = match request.substrate {
            Ok(_) => "ready",
            Err(_) => "none",
        };
        let scale = request.overlay.bound_scale() as f64 / UNIT_SCALE as f64;
        let mut attrs = vec![
            ("substrate", substrate.to_string()),
            ("bound_scale", format!("{scale:.2}")),
        ];
        if let Some(settled) = request.pair_settled() {
            attrs.push(("pair_settled", settled.to_string()));
        }
        attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_citygen::{City, Scale};
    use arp_obs::Registry;
    use arp_roadnet::category::ALL_CATEGORIES;
    use arp_roadnet::geo::Point;
    use arp_serve::{RouteService, ServeConfig};

    use crate::query::SnappedQuery;

    fn processor() -> Arc<QueryProcessor> {
        let g = arp_citygen::generate(City::Dhaka, Scale::Small, 9);
        Arc::new(QueryProcessor::new(g.name.clone(), g.network, 9))
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

    /// The sum of `registry`'s per-technique `counter` over the lanes
    /// that read the pair.
    fn pair_readers_total(registry: &Registry, backend: &DemoBackend, counter: &str) -> u64 {
        (0..backend.lanes())
            .filter(|&lane| backend.reads_prepare(lane))
            .map(|lane| {
                let technique = backend.lane_name(lane);
                let labels = [("technique", technique.as_str())];
                registry.counter_value(counter, &labels)
            })
            .sum()
    }

    /// Every response the service serves — Google-like started before
    /// prepare, the other lanes after it, on the request thread for a
    /// small pair and on the pool otherwise, or carried across the epoch —
    /// is byte-equal to the serial `prepare → compute × 4 → assemble`
    /// path, on twelve pairs before and after an epoch that closes an
    /// edge on one of their routes. Both paths occur on both sides of the
    /// epoch.
    #[test]
    fn served_responses_equal_the_serial_stages_across_an_epoch() {
        use crate::render::{route_body, CoordText};

        let qp = processor();
        let net = qp.network();
        let n = net.num_nodes() as u64;
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            arp_roadnet::ids::NodeId(((state >> 33) % n) as u32)
        };
        let mut pairs = Vec::new();
        while pairs.len() < 12 {
            let (source, target) = (next(), next());
            if source != target
                && arp_core::shortest_path(net, net.weights(), source, target).is_ok()
            {
                pairs.push(SnappedQuery { source, target });
            }
        }
        let registry = Registry::new();
        let service = RouteService::new(
            DemoBackend::new(Arc::clone(&qp)),
            ServeConfig::default(),
            &registry,
        );
        let backend = DemoBackend::new(Arc::clone(&qp));
        let inlined = || pair_readers_total(&registry, &backend, "arp_serve_lanes_inline_total");
        let carried = || pair_readers_total(&registry, &backend, "arp_serve_cache_carried_total");
        let (id, coords) = (
            arp_obs::TraceId::parse("00000000deadbeef").unwrap(),
            CoordText::new(net.points()),
        );
        let bodies = || -> Vec<String> {
            let mut paths = [0; 2];
            let bodies = pairs
                .iter()
                .map(|&q| {
                    let (inline_before, carried_before) = (inlined(), carried());
                    let served = service.route(qp.prepare_query(q)).unwrap();
                    let inline = inlined() - inline_before;
                    let request = backend.prepare(
                        qp.prepare_query(q),
                        &CancelToken::new(),
                        &Deadline::never(),
                    );
                    // The pair readers not carried ran inline exactly when
                    // the pair is small.
                    let ran = 3 - (carried() - carried_before);
                    let small = backend.inline_late_lanes(&request);
                    assert_eq!(inline, if small { ran } else { 0 }, "{q:?}");
                    if ran > 0 {
                        paths[usize::from(small)] += 1;
                    }
                    let parts = (0..backend.lanes())
                        .map(|lane| backend.compute(&request, lane).unwrap())
                        .collect();
                    let serial = backend.assemble(&request, parts);
                    let body = route_body(&served, id, net, &coords);
                    assert_eq!(body, route_body(&serial, id, net, &coords), "{q:?}");
                    body
                })
                .collect();
            assert!(
                paths.iter().all(|&n| n > 0),
                "fanned out, inline: {paths:?}"
            );
            bodies
        };
        let before = bodies();
        let first =
            arp_core::shortest_path(net, net.weights(), pairs[0].source, pairs[0].target).unwrap();
        let closed = first.edges[first.edges.len() / 2];
        let delta = arp_traffic::TrafficDelta::parse(&format!("close:{}", closed.0)).unwrap();
        qp.traffic().apply_delta(&delta).unwrap();
        let after = bodies();
        assert_ne!(
            before[0], after[0],
            "the closure moved the first pair's routes"
        );
    }

    /// A delay failpoint is bounded by nothing the pair says, so a small
    /// trip whose Penalty lane is armed with one fans out: the request
    /// answers within its deadline plus the grace period, Penalty's
    /// verdict truncated, instead of sleeping on the request thread.
    #[test]
    fn a_small_trip_with_a_delayed_lane_fans_out_and_answers_by_its_deadline() {
        use std::time::{Duration, Instant};

        let qp = processor();
        let (a, b) = inner_points(&qp);
        let far = qp.snap(a, b).unwrap();
        let (net, w) = (qp.network(), qp.network().weights());
        let along = arp_core::shortest_path(net, w, far.source, far.target).unwrap();
        let q = SnappedQuery {
            source: far.source,
            target: along.nodes[3],
        };
        let backend = DemoBackend::new(Arc::clone(&qp));
        assert!(backend.inline_late_lanes(&prepared(&qp, q)), "a small trip");

        let (deadline, grace) = (Duration::from_millis(100), Duration::from_millis(100));
        let registry = Registry::new();
        let config = ServeConfig {
            deadline,
            cancel_grace: grace,
            faults: arp_serve::FaultPlan::parse("lane.penalty=delay:1000").unwrap(),
            ..ServeConfig::default()
        };
        let service = RouteService::new(DemoBackend::new(Arc::clone(&qp)), config, &registry);
        let start = Instant::now();
        let response = service.route(qp.prepare_query(q)).unwrap();
        let took = start.elapsed();
        // Scheduling slack on top of deadline + grace, far below the
        // 1 s the lane sleeps.
        assert!(
            took < deadline + grace + Duration::from_millis(300),
            "{took:?}"
        );
        assert!(response.truncated && !response.degraded, "{response:?}");
        let penalty = (0..backend.lanes())
            .find(|&lane| backend.lane_name(lane) == "penalty")
            .map(|lane| qp.slot_label(lane))
            .unwrap();
        assert!(
            response
                .lane_status
                .contains(&(penalty, LaneStatus::Truncated)),
            "{:?}",
            response.lane_status
        );
        assert_eq!(
            pair_readers_total(&registry, &backend, "arp_serve_lanes_inline_total"),
            0,
            "the delayed request fanned out"
        );

        // Unarmed, the same trip runs its three pair readers inline.
        let registry = Registry::new();
        let service = RouteService::new(
            DemoBackend::new(Arc::clone(&qp)),
            ServeConfig::default(),
            &registry,
        );
        assert!(service
            .route(qp.prepare_query(q))
            .unwrap()
            .lane_status
            .is_empty());
        assert_eq!(
            pair_readers_total(&registry, &backend, "arp_serve_lanes_inline_total"),
            3
        );
    }

    /// The request for `q` after an unhurried prepare step.
    fn prepared(qp: &QueryProcessor, q: SnappedQuery) -> PreparedQuery {
        qp.prepare_substrate(qp.prepare_query(q), &SearchBudget::unlimited())
    }

    #[test]
    fn cancelled_token_truncates_lanes_and_partial_assembly_marks_it() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let prepared = prepared(&qp, qp.snap(a, b).unwrap());
        let backend = DemoBackend::new(Arc::clone(&qp));

        // A lane that finished before the deadline…
        let outcome = backend.run_lane(&prepared, 0, &CancelToken::new());
        let Ok(LaneOutcome::Complete(full)) = outcome else {
            panic!("an untripped lane completes: {outcome:?}");
        };
        // …and one whose token was already tripped when it started: the
        // budget interrupts it immediately, yielding an empty partial.
        let token = CancelToken::new();
        token.cancel();
        let outcome = backend.run_lane(&prepared, 1, &token).unwrap();
        let LaneOutcome::Truncated(partial) = outcome else {
            panic!("cancelled lane must come back truncated");
        };
        assert!(partial.routes.is_empty());

        // Partial assembly keeps the blind A-D structure and flags the
        // truncation; abandoned slots keep their label with no routes.
        let full_routes = full.routes.len();
        let parts = vec![Some(full), Some(partial), None, None];
        let statuses = [
            LaneStatus::Ok,
            LaneStatus::Truncated,
            LaneStatus::Truncated,
            LaneStatus::Truncated,
        ];
        let resp = backend
            .assemble_lanes(&prepared, parts, &statuses)
            .expect("one lane finished");
        assert!(resp.truncated && !resp.degraded);
        assert_eq!(resp.approaches.len(), 4);
        assert_eq!(resp.approaches[0].routes.len(), full_routes);
        assert!(resp.approaches[2].routes.is_empty());
        let labels: Vec<char> = resp.approaches.iter().map(|a| a.label).collect();
        assert_eq!(labels, vec!['A', 'B', 'C', 'D']);

        // Nothing finished at all → no partial response; the serving
        // layer degrades that to DeadlineExceeded (HTTP 504).
        let statuses = [LaneStatus::Truncated; 4];
        assert!(backend
            .assemble_lanes(&prepared, vec![None, None, None, None], &statuses)
            .is_none());
    }

    #[test]
    fn prepare_builds_the_substrate_and_lanes_only_read_it() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let q = qp.snap(a, b).unwrap();
        let backend = DemoBackend::new(Arc::clone(&qp));
        let token = CancelToken::new();

        let prepared = backend.prepare(qp.prepare_query(q), &token, &Deadline::never());
        assert!(prepared.substrate.is_ok(), "healthy build must succeed");
        for lane in 0..backend.lanes() {
            let outcome = backend.run_lane(&prepared, lane, &token);
            assert!(
                matches!(outcome, Ok(LaneOutcome::Complete(_))),
                "lane {lane}"
            );
        }
        // One build by prepare; the lanes grew nothing.
        assert_eq!(
            qp.registry()
                .counter_value("arp_substrate_builds_total", &[]),
            1
        );
    }

    /// Every lane of `q`, prepared and computed without a budget, in its
    /// `Debug` form: every field a response is rendered from (not the
    /// basis a cached Google-like lane is checked by).
    fn lanes_of(qp: &QueryProcessor, q: SnappedQuery) -> Vec<String> {
        let request = prepared(qp, q);
        let lane = |slot| qp.compute_slot_prepared(&request, slot, &SearchBudget::unlimited());
        let lanes = (0..qp.technique_slots()).map(|slot| {
            let (part, interrupted) = lane(slot).unwrap();
            format!("{} {:?} {interrupted}", part.label, part.routes)
        });
        lanes.collect()
    }

    #[test]
    fn recycled_scratch_leaks_nothing_from_one_request_into_the_next() {
        // The label stores, tree arrays and overlays a request uses are
        // lent from process-wide pools and reused by the next one.
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let request_a = qp.snap(a, b).unwrap();
        // An epoch that closes an edge in the middle of A's first route,
        // and what a processor that served nothing before answers there.
        let (net, w) = (qp.network(), qp.network().weights());
        let first = arp_core::shortest_path(net, w, request_a.source, request_a.target).unwrap();
        let closed = first.edges[first.edges.len() / 2];
        let delta = arp_traffic::TrafficDelta::parse(&format!("close:{}", closed.0)).unwrap();
        let fresh = processor();
        fresh.traffic().apply_delta(&delta).unwrap();
        let want = lanes_of(&fresh, request_a);

        let served = lanes_of(&qp, request_a);
        // B: the way back, served once, then again with its build
        // interrupted in the forward tree — the cap trips at the search's
        // first in-loop poll — leaving half-written trees behind.
        let request_b = SnappedQuery {
            source: request_a.target,
            target: request_a.source,
        };
        lanes_of(&qp, request_b);
        let cap = SearchBudget::new().with_expansion_cap(1);
        let interrupted = qp.prepare_substrate(qp.prepare_query(request_b), &cap);
        assert!(matches!(
            interrupted.substrate,
            Err((arp_core::CoreError::Interrupted, None))
        ));
        drop(interrupted);
        qp.traffic().apply_delta(&delta).unwrap();
        let again = lanes_of(&qp, request_a);
        assert_ne!(again, served, "the closure moved A's routes");
        assert_eq!(again, want);
    }

    /// Slots 1–3 read the pair and serve what the interrupted prepare had
    /// proven. Slot 0, Google-like, never reads it: it answers the trip
    /// on its private column under its own budget, complete.
    #[test]
    fn a_prepare_interrupted_between_its_trees_serves_the_base_route() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let far = qp.snap(a, b).unwrap();
        let (net, w) = (qp.network(), qp.network().weights());
        // A few blocks along the way: a forward tree small enough to
        // finish between two budget polls.
        let along = arp_core::shortest_path(net, w, far.source, far.target).unwrap();
        let q = SnappedQuery {
            source: far.source,
            target: along.nodes[4],
        };
        let direct = arp_core::shortest_path(net, w, q.source, q.target).unwrap();
        // The smallest cap that lets the build prove the base route: the
        // landmark probe and the forward tree complete (residual pops are
        // charged at the end), the cap trips sticky, and the backward
        // tree's entry poll interrupts.
        let prepared = (1..10_000)
            .map(|cap| {
                let cap = SearchBudget::new().with_expansion_cap(cap);
                qp.prepare_substrate(qp.prepare_query(q), &cap)
            })
            .find(|p| {
                matches!(
                    p.substrate,
                    Err((arp_core::CoreError::Interrupted, Some(_)))
                )
            })
            .expect("some cap lands between the trees");
        for slot in 1..qp.technique_slots() {
            let (part, interrupted) = qp
                .compute_slot_prepared(&prepared, slot, &SearchBudget::unlimited())
                .unwrap();
            assert!(interrupted, "slot {slot}");
            assert_eq!(part.routes.len(), 1, "slot {slot}");
            assert_eq!(part.routes[0].edges, direct.edges, "slot {slot}");
            assert_eq!(part.routes[0].cost_ms, direct.cost_ms, "slot {slot}");
        }
        let (google, interrupted) = qp
            .compute_slot_prepared(&prepared, 0, &SearchBudget::unlimited())
            .unwrap();
        assert!(!interrupted);
        let private = arp_core::GoogleLikeProvider::new(net, 9);
        let private = arp_core::AlternativesProvider::alternatives(
            &private,
            net,
            w,
            q.source,
            q.target,
            &arp_core::AltQuery::paper(),
        )
        .unwrap();
        let edges = |routes: &[crate::query::RouteInfo]| -> Vec<_> {
            routes.iter().map(|r| r.edges.clone()).collect()
        };
        let want: Vec<_> = private.into_iter().map(|r| r.path.edges).collect();
        assert_eq!(edges(&google.routes), want);
        // Only Google-like ran: the pair readers served what prepare had
        // proven.
        for technique in ["google_like", "plateaus", "dissimilarity", "penalty"] {
            let labels = [("technique", technique)];
            let calls = qp
                .registry()
                .counter_value("arp_technique_calls_total", &labels);
            assert_eq!(calls, u64::from(technique == "google_like"), "{technique}");
        }
    }

    #[test]
    fn prepare_span_reports_whether_the_substrate_is_ready() {
        let g = arp_citygen::generate(City::Dhaka, Scale::Small, 9);
        let qp = Arc::new(QueryProcessor::new(g.name.clone(), g.network, 9).with_ch_index());
        let (a, b) = inner_points(&qp);
        let q = qp.snap(a, b).unwrap();
        let index = qp.ch_index().unwrap();
        let service = RouteService::new(
            DemoBackend::new(Arc::clone(&qp)),
            ServeConfig::default(),
            &Registry::disabled(),
        );
        let prepare_at = |epoch: u64| {
            let (receipt, response) = service.route_traced(qp.prepare_query(q));
            assert_eq!(response.unwrap().epoch, epoch);
            let trace = service.tracer().trace(receipt.id).expect("trace kept");
            let prepare = trace.span("prepare").expect("prepare span");
            let attr = |key| prepare.attr(key).map(str::to_string);
            (attr("substrate"), attr("bound_scale"), attr("pair_settled"))
        };
        let settled_now = || {
            let pair = qp.prepare_substrate(qp.prepare_query(q), &SearchBudget::unlimited());
            pair.pair_settled().map(|n| n.to_string())
        };
        // The index tier is enabled and ready at epoch 0, then left behind
        // at epoch 1, which nobody asks it for: neither state is consulted,
        // the substrate is built either way, and serving customizes
        // nothing. Free flow reads the table at 1.0; slowing every category
        // by 1.5 reads it at 1.5, and the span carries the labels the pair
        // settled.
        let free = settled_now();
        let (substrate, scale, settled) = prepare_at(0);
        assert_eq!(substrate.as_deref(), Some("ready"));
        assert_eq!((scale.as_deref(), settled), (Some("1.00"), free));
        let every = ALL_CATEGORIES.map(|c| format!("cat:{}*1.5", c.osm_tag()));
        let delta = arp_traffic::TrafficDelta::parse(&every.join("; ")).unwrap();
        qp.traffic().apply_delta(&delta).unwrap();
        let slowed = settled_now();
        let (substrate, scale, settled) = prepare_at(1);
        assert_eq!(substrate.as_deref(), Some("ready"));
        assert_eq!((scale.as_deref(), settled), (Some("1.50"), slowed));
        assert_eq!((index.ready_epoch(), index.customizations()), (0, 1));
        // A request whose build could not run says so, and reports no pair.
        let tripped = CancelToken::new();
        tripped.cancel();
        let unbuilt = service
            .backend()
            .prepare(qp.prepare_query(q), &tripped, &Deadline::never());
        assert_eq!(
            service.backend().prepare_attrs(&unbuilt),
            [
                ("substrate", "none".to_string()),
                ("bound_scale", "1.50".to_string())
            ]
        );
    }

    #[test]
    fn tripped_token_or_expired_deadline_skips_the_build() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let q = qp.snap(a, b).unwrap();
        let backend = DemoBackend::new(Arc::clone(&qp));

        // Zero-headroom deadline: the build is not even started.
        let token = CancelToken::new();
        let prepared = backend.prepare(
            qp.prepare_query(q),
            &token,
            &Deadline::after(std::time::Duration::ZERO),
        );
        assert!(prepared.substrate.is_err());
        assert_eq!(
            qp.registry()
                .counter_value("arp_substrate_builds_total", &[]),
            0
        );

        // Already-tripped token: the build starts and trips at its first
        // budget check, before it has proven anything.
        let tripped = CancelToken::new();
        tripped.cancel();
        let prepared = backend.prepare(qp.prepare_query(q), &tripped, &Deadline::never());
        assert!(matches!(
            prepared.substrate,
            Err((arp_core::CoreError::Interrupted, None))
        ));
        assert_eq!(
            qp.registry()
                .counter_value("arp_substrate_build_failures_total", &[]),
            1
        );
        // A lane that reads the pair serves that as an empty partial, and
        // grows nothing.
        let fresh = CancelToken::new();
        let outcome = backend.run_lane(&prepared, 1, &fresh).unwrap();
        assert!(matches!(outcome, LaneOutcome::Truncated(part) if part.routes.is_empty()));
        assert_eq!(
            qp.registry()
                .counter_value("arp_substrate_build_failures_total", &[]),
            1
        );
    }

    #[test]
    fn disconnected_pair_answers_no_route_per_lane_without_panicking() {
        use arp_roadnet::builder::{EdgeSpec, GraphBuilder};

        // Two components: {0,1} and {2,3}, no edges between them.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(144.00, -37.00));
        let n1 = b.add_node(Point::new(144.01, -37.00));
        let n2 = b.add_node(Point::new(144.20, -37.20));
        let n3 = b.add_node(Point::new(144.21, -37.20));
        b.add_bidirectional(n0, n1, EdgeSpec::default());
        b.add_bidirectional(n2, n3, EdgeSpec::default());
        let net = b.build();
        let qp = Arc::new(QueryProcessor::new("Islands", net, 1));
        let backend = DemoBackend::new(Arc::clone(&qp));
        let q = SnappedQuery {
            source: n0,
            target: n2,
        };

        // The pair build fails cleanly (counted, not propagated)…
        let token = CancelToken::new();
        let prepared = backend.prepare(qp.prepare_query(q), &token, &Deadline::never());
        assert!(prepared.substrate.is_err());
        // …and each lane completes with no route: the pair-reading ones
        // from prepare's error, Google-like from its own search.
        for lane in 0..backend.lanes() {
            let outcome = backend.run_lane(&prepared, lane, &token);
            assert!(
                matches!(&outcome, Ok(LaneOutcome::Complete(part)) if part.routes.is_empty()),
                "lane {lane}: {outcome:?}"
            );
        }
        assert_eq!(
            qp.registry()
                .counter_value("arp_substrate_build_failures_total", &[]),
            1
        );

        // End to end: the serving layer answers a healthy response with no
        // route in any approach, never a panic, and the serial path
        // answers `NoRoute`.
        let service = RouteService::new(
            DemoBackend::new(Arc::clone(&qp)),
            ServeConfig::default(),
            &Registry::disabled(),
        );
        let response = service.route(qp.prepare_query(q)).unwrap();
        assert!(!response.has_route() && !response.degraded, "{response:?}");
        let (s, t) = (qp.network().point(n0), qp.network().point(n2));
        assert!(matches!(qp.process(s, t), Err(crate::DemoError::NoRoute)));
    }

    #[test]
    fn same_endpoint_pair_yields_no_substrate() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let q = qp.snap(a, b).unwrap();
        let same = SnappedQuery {
            source: q.source,
            target: q.source,
        };
        assert!(prepared(&qp, same).substrate.is_err());
    }

    #[test]
    fn lane_keys_cover_city_endpoints_technique_and_k() {
        let qp = processor();
        let (a, b) = inner_points(&qp);
        let q = qp.snap(a, b).unwrap();
        let prepared = qp.prepare_query(q);
        let backend = DemoBackend::new(Arc::clone(&qp));
        let keys: Vec<String> = (0..backend.lanes())
            .map(|l| backend.lane_key(&prepared, l))
            .collect();
        assert_eq!(keys.len(), 4);
        for key in &keys {
            assert!(key.starts_with("Dhaka:"), "{key}");
            assert!(key.contains(&format!(":{}:", q.source.0)), "{key}");
        }
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), 4, "technique must distinguish lane keys");
    }
}
