//! The per-layer ledger of a traced run: layer = crate, every metric
//! named `<crate>.<what>`.

use crate::lap::Lap;
use crate::prom::{ratio, Delta};
use crate::stats::{mean, median};
use crate::twin::{Measured, Primitives, Recorder, Traced};
use crate::Metric;

/// The four technique lanes, by the server's slug.
pub const LANES: [&str; 4] = ["google_like", "plateaus", "dissimilarity", "penalty"];

/// Spans the traced run records around one route request: `demo.handle`,
/// the `request` root and its five children.
const SPANS_PER_REQUEST: f64 = 7.0;

/// Every per-layer metric with its unit and which way is better, in the
/// order reported. `BENCHMARK.json` lists exactly these (a unit test
/// holds the two together).
pub fn catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> = [
        ("wire.self_ms", "ms", "lower"),
        ("wire.resp_kb", "kB", "lower"),
        ("demo.handle_ms", "ms", "lower"),
        ("demo.parse_ms", "ms", "lower"),
        ("demo.render_self_ms", "ms", "lower"),
        ("demo.assemble_ms", "ms", "lower"),
        ("roadnet.snap_ms", "ms", "lower"),
        ("traffic.pin_ms", "ms", "lower"),
        ("serve.route_ms", "ms", "lower"),
        ("serve.lane_speedup", "ratio", "higher"),
        ("core.substrate_ms", "ms", "lower"),
        ("core.lane.google_like_ms", "ms", "lower"),
        ("core.lane.plateaus_ms", "ms", "lower"),
        ("core.lane.dissimilarity_ms", "ms", "lower"),
        ("core.lane.penalty_ms", "ms", "lower"),
        ("core.compute_ms.near", "ms", "lower"),
        ("core.compute_ms.mid", "ms", "lower"),
        ("core.compute_ms.far", "ms", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("citygen.generate_ms", "ms", "lower"),
        ("demo.processor_new_ms", "ms", "lower"),
        ("core.cch_build_ms", "ms", "lower"),
        ("core.cch_customize_ms", "ms", "lower"),
        ("traffic.parse_ms", "ms", "lower"),
        ("traffic.apply_ms", "ms", "lower"),
        ("traffic.apply_durable_ms", "ms", "lower"),
        ("obs.metrics_render_ms", "ms", "lower"),
        ("serve.cache_hit_ratio", "ratio", "higher"),
        ("serve.stage.admit_ms", "ms", "lower"),
        ("serve.stage.cache_probe_ms", "ms", "lower"),
        ("serve.stage.prepare_ms", "ms", "lower"),
        ("serve.stage.compute_ms", "ms", "lower"),
        ("serve.stage.assemble_ms", "ms", "lower"),
        ("serve.failed_ops", "count", "lower"),
        ("serve.retries", "count", "lower"),
        ("serve.inline_fallbacks", "count", "lower"),
        ("core.settled_per_req", "count", "lower"),
        ("core.relaxed_per_req", "count", "lower"),
        ("core.heap_pops_per_req", "count", "lower"),
        ("core.settled_google_like_share", "ratio", "lower"),
    ]
    .into_iter()
    .map(|(name, unit, better)| (name.to_string(), unit, better))
    .collect();
    for lane in LANES {
        all.push((
            format!("core.funnel.{lane}_candidates_per_req"),
            "count",
            "lower",
        ));
    }
    for lane in LANES {
        all.push((format!("core.funnel.{lane}_yield"), "ratio", "higher"));
    }
    for (name, unit) in [
        ("core.ch_fallback_share", "ratio"),
        ("demo.index_customize_ms", "ms"),
        ("traffic.post_ms", "ms"),
        ("traffic.epoch_ready_ms", "ms"),
        ("traffic.journal_bytes_per_delta", "count"),
        ("traffic.fsyncs_per_delta", "count"),
    ] {
        all.push((name.to_string(), unit, "lower"));
    }
    all
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Median over the requests of `pick`, 0 when none qualifies.
fn median_of<'a>(
    requests: impl IntoIterator<Item = &'a Measured>,
    pick: impl Fn(&Measured) -> Option<f64>,
) -> f64 {
    median_or_zero(&requests.into_iter().filter_map(pick).collect::<Vec<_>>())
}

pub fn metrics(
    lap: &Lap,
    traced: &Traced,
    primitives: &Primitives,
    metrics_render_ms: f64,
) -> Vec<Metric> {
    let mut values: Vec<(String, f64, String)> = Vec::new();
    let mut put =
        |name: &str, value: f64, note: String| values.push((name.to_string(), value, note));

    // The traced twin. Latency medians are over `solo` requests; the
    // stage replay also covers warm-up, where `commuter` computes.
    let solo: Vec<&Measured> = traced.measured.iter().filter(|m| m.solo).collect();
    let n_solo = format!("n={} solo requests on the twin", solo.len());
    let computed: Vec<&Measured> = traced
        .measured
        .iter()
        .filter(|m| m.stages.is_some())
        .collect();
    let n_computed = format!("n={} computed requests on the twin", computed.len());
    let solo_of =
        |pick: &dyn Fn(&Measured) -> f64| median_of(solo.iter().copied(), |m| Some(pick(m)));

    // Wire self time comes from the live lap alone: what the client saw
    // minus what the server's own `handle` histogram saw, over the same
    // `solo` requests. (Subtracting the twin's `handle` instead would set
    // a ~0.4 ms difference against two ~20 ms numbers measured minutes
    // apart on a machine that drifts by more than that.)
    let solo_phase = Delta {
        from: &lap.scrapes[0],
        to: &lap.scrapes[1],
    };
    let route = [("endpoint", "route")];
    let served = solo_phase.sum("arp_http_request_latency_ms_count", &route);
    let server_side = solo_phase.sum("arp_http_request_latency_ms_sum", &route);
    let round_trips: f64 = lap.solo.route_ms.iter().sum();
    put(
        "wire.self_ms",
        ratio(round_trips - server_side, served) * lap.lap_factor(),
        format!(
            "n={served} live solo requests, mean round trip {:.3} - mean server-side handle {:.3} (raw ms)",
            ratio(round_trips, served),
            ratio(server_side, served)
        ),
    );
    put(
        "wire.resp_kb",
        lap.solo.body_bytes as f64 / 1024.0 / lap.solo.route_ms.len().max(1) as f64,
        format!("mean of {} live solo bodies", lap.solo.route_ms.len()),
    );
    let handle_ms = solo_of(&|m| m.handle_ms);
    put("demo.handle_ms", handle_ms, n_solo.clone());
    put("demo.parse_ms", solo_of(&|m| m.parse_ms), n_solo.clone());
    put(
        "demo.render_self_ms",
        solo_of(&|m| m.handle_ms - m.parse_ms - m.snap_ms - m.pin_ms - m.route_ms),
        format!("{n_solo}, handle - parse - snap - pin - route"),
    );
    put(
        "demo.assemble_ms",
        median_of(computed.iter().copied(), |m| {
            Some(m.stages.as_ref()?.assemble_ms)
        }),
        n_computed.clone(),
    );
    put("roadnet.snap_ms", solo_of(&|m| m.snap_ms), n_solo.clone());
    put("traffic.pin_ms", solo_of(&|m| m.pin_ms), n_solo.clone());
    put("serve.route_ms", solo_of(&|m| m.route_ms), n_solo.clone());
    put(
        "serve.lane_speedup",
        median_of(computed.iter().copied(), |m| {
            Some(m.stages.as_ref()?.compute_ms() / m.route_ms)
        }),
        format!("{n_computed}, serial substrate + lanes / parallel route"),
    );
    put(
        "core.substrate_ms",
        median_of(computed.iter().copied(), |m| {
            Some(m.stages.as_ref()?.substrate_ms)
        }),
        n_computed.clone(),
    );
    for lane in LANES {
        put(
            &format!("core.lane.{lane}_ms"),
            median_of(computed.iter().copied(), |m| {
                let lanes = &m.stages.as_ref()?.lanes_ms;
                lanes
                    .iter()
                    .find(|(slug, _)| slug == lane)
                    .map(|(_, ms)| *ms)
            }),
            n_computed.clone(),
        );
    }
    let mut by_km = computed.clone();
    by_km.sort_by(|a, b| a.km.total_cmp(&b.km));
    let third = by_km.len().div_ceil(3).max(1);
    let mut terciles = by_km.chunks(third);
    for name in ["near", "mid", "far"] {
        let tercile = terciles.next().unwrap_or(&[]);
        let km: Vec<f64> = tercile.iter().map(|m| m.km).collect();
        put(
            &format!("core.compute_ms.{name}"),
            median_of(tercile.iter().copied(), |m| {
                Some(m.stages.as_ref()?.compute_ms())
            }),
            format!(
                "n={}, median {:.1} km apart",
                tercile.len(),
                median_or_zero(&km)
            ),
        );
    }
    // Share of `handle` time the replayed calls do not account for:
    // metrics bookkeeping, the trace id, and whatever the two passes —
    // separate computations of the same request — disagree by.
    let handled: f64 = solo.iter().map(|m| m.handle_ms).sum();
    let attributed: f64 = solo
        .iter()
        .map(|m| m.parse_ms + m.snap_ms + m.pin_ms + m.route_ms + m.render_ms)
        .sum();
    put(
        "trace.unattributed_share",
        ratio(handled - attributed, handled),
        format!("{n_solo}, (handle - parse - snap - pin - route - render replica) / handle"),
    );
    let span_ms = Recorder::cost_per_span_ms();
    put(
        "trace.overhead_share",
        ratio(SPANS_PER_REQUEST * span_ms, handle_ms),
        format!(
            "{SPANS_PER_REQUEST} spans x {:.5} ms per span / handle p50",
            span_ms
        ),
    );

    // Set-up and write primitives.
    let calls = "median of 3 calls".to_string();
    put("citygen.generate_ms", primitives.generate_ms, calls.clone());
    put(
        "demo.processor_new_ms",
        primitives.processor_new_ms,
        calls.clone(),
    );
    put("core.cch_build_ms", primitives.cch_build_ms, calls.clone());
    put(
        "core.cch_customize_ms",
        primitives.cch_customize_ms,
        calls.clone(),
    );
    put(
        "traffic.parse_ms",
        primitives.traffic_parse_ms,
        calls.clone(),
    );
    put(
        "traffic.apply_ms",
        primitives.traffic_apply_ms,
        calls.clone(),
    );
    put(
        "traffic.apply_durable_ms",
        primitives.traffic_apply_durable_ms,
        calls.clone(),
    );
    put("obs.metrics_render_ms", metrics_render_ms, calls);

    // Counts from the live server, end of warm-up → end of crowd.
    let d = Delta {
        from: &lap.scrapes[0],
        to: &lap.scrapes[2],
    };
    let requests = (lap.solo.route_ms.len() + lap.crowd.route_ms.len()) as f64;
    // Times the server or the load generator measured over the lap, raw →
    // reference-machine ms.
    let lap_factor = lap.lap_factor();
    let n_live = format!("n={requests} live solo + crowd requests");
    let hits = d.sum("arp_serve_cache_hits_total", &[]);
    let misses = d.sum("arp_serve_cache_misses_total", &[]);
    put(
        "serve.cache_hit_ratio",
        ratio(hits, hits + misses),
        format!("{hits} hits, {misses} misses"),
    );
    for stage in ["admit", "cache_probe", "prepare", "compute", "assemble"] {
        let labels = [("stage", stage)];
        put(
            &format!("serve.stage.{stage}_ms"),
            d.mean("arp_serve_stage_latency_ms", &labels) * lap_factor,
            format!(
                "mean of {} observations",
                d.sum("arp_serve_stage_latency_ms_count", &labels)
            ),
        );
    }
    let failed_ops = d.sum("arp_serve_shed_total", &[])
        + d.sum("arp_serve_deadline_timeouts_total", &[])
        + d.sum("arp_serve_degraded_responses_total", &[])
        + d.sum("arp_serve_lane_failures_total", &[]);
    put(
        "serve.failed_ops",
        failed_ops,
        "shed + deadline + degraded + lane failures".into(),
    );
    put(
        "serve.retries",
        d.sum("arp_serve_retries_total", &[]),
        n_live.clone(),
    );
    put(
        "serve.inline_fallbacks",
        d.sum("arp_serve_inline_fallback_total", &[]),
        n_live.clone(),
    );
    let settled = d.sum("arp_search_settled_nodes_total", &[]);
    put(
        "core.settled_per_req",
        ratio(settled, requests),
        n_live.clone(),
    );
    put(
        "core.relaxed_per_req",
        ratio(d.sum("arp_search_relaxed_edges_total", &[]), requests),
        n_live.clone(),
    );
    put(
        "core.heap_pops_per_req",
        ratio(d.sum("arp_search_heap_pops_total", &[]), requests),
        n_live.clone(),
    );
    put(
        "core.settled_google_like_share",
        ratio(
            d.sum(
                "arp_search_settled_nodes_total",
                &[("technique", "google_like")],
            ),
            settled,
        ),
        n_live.clone(),
    );
    for lane in LANES {
        let labels = [("technique", lane)];
        let candidates = d.sum("arp_technique_candidates_total", &labels);
        put(
            &format!("core.funnel.{lane}_candidates_per_req"),
            ratio(candidates, requests),
            n_live.clone(),
        );
    }
    for lane in LANES {
        let labels = [("technique", lane)];
        let candidates = d.sum("arp_technique_candidates_total", &labels);
        let admitted = d.sum("arp_technique_admitted_total", &labels);
        put(
            &format!("core.funnel.{lane}_yield"),
            ratio(admitted, candidates),
            format!("{admitted} admitted of {candidates}"),
        );
    }
    let fallbacks = d.sum("arp_ch_fallbacks_total", &[]);
    let queries = d.sum("arp_ch_queries_total", &[]);
    put(
        "core.ch_fallback_share",
        ratio(fallbacks, fallbacks + queries),
        format!("{fallbacks} fallbacks, {queries} CH builds"),
    );
    put(
        "demo.index_customize_ms",
        d.mean("arp_ch_customize_ms", &[]) * lap_factor,
        format!(
            "mean of {} background customizations",
            d.sum("arp_ch_customize_ms_count", &[])
        ),
    );
    let posts: Vec<f64> = lap
        .solo
        .post_ms
        .iter()
        .chain(&lap.crowd.post_ms)
        .copied()
        .collect();
    put(
        "traffic.post_ms",
        median_or_zero(&posts) * lap_factor,
        format!(
            "n={} live posts, mean {:.3}",
            posts.len(),
            mean(&posts) * lap_factor
        ),
    );
    put(
        "traffic.epoch_ready_ms",
        median_or_zero(&lap.epoch_ready_ms) * lap_factor,
        format!("n={} probes after the crowd", lap.epoch_ready_ms.len()),
    );
    let deltas = d.sum("arp_journal_records_total", &[]);
    put(
        "traffic.journal_bytes_per_delta",
        ratio(d.sum("arp_journal_bytes_total", &[]), deltas),
        format!("{deltas} journaled deltas"),
    );
    put(
        "traffic.fsyncs_per_delta",
        ratio(d.sum("arp_journal_fsyncs_total", &[]), deltas),
        format!("{deltas} journaled deltas"),
    );

    // Report in catalogue order, with the catalogue's units.
    catalogue()
        .into_iter()
        .map(|(name, unit, _)| {
            let (_, value, note) = values
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("ledger never computed {name}"));
            Metric {
                name,
                value: *value,
                unit,
                note: note.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_demo::json::{self, Json};

    /// `BENCHMARK.json` and the code agree on every name, unit and
    /// direction, and the file stays inside the contract's limits.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(String, String, String)> = spec
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = catalogue()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.len() <= 128);
        for (name, unit, _) in &ours {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }
}
