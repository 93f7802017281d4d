//! One lap = one server lifetime: launch → warm-up → `solo` → `crowd` →
//! kill. Every lap of a run replays byte-identical inputs.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use arp_demo::json::{self, Json};

use crate::http;
use crate::probe;
use crate::prom::Scrape;
use crate::server::{Launch, Server};
use crate::workload::{Op, Plan};

/// What one client saw while replaying its list.
#[derive(Default)]
pub struct Replay {
    /// Connect → last byte of each `Route` op, in list order, ms.
    pub route_ms: Vec<f64>,
    /// Round trip of each `Traffic` op, ms.
    pub post_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub body_bytes: usize,
    /// `(position in the list, response body)` of the responses kept for
    /// the byte check.
    pub kept: Vec<(usize, String)>,
    /// Machine-speed probes taken between route requests (`solo` only).
    pub probes: probe::Series,
}

impl Replay {
    fn absorb(&mut self, other: Replay) {
        self.route_ms.extend(other.route_ms);
        self.post_ms.extend(other.post_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.body_bytes += other.body_bytes;
    }
}

/// Probes taken back to back at a phase boundary.
const BOUNDARY_PROBES: usize = 4;

pub struct Lap {
    pub setup_s: f64,
    pub warm_failed: usize,
    pub solo: Replay,
    pub crowd: Replay,
    pub crowd_elapsed_s: f64,
    pub warm_elapsed_s: f64,
    pub solo_elapsed_s: f64,
    /// Server CPU from end of warm-up to end of `crowd` ÷ route requests
    /// answered in between.
    pub cpu_ms_per_req: f64,
    pub rss_mb: f64,
    /// `/api/metrics` after warm-up, after `solo`, after `crowd`.
    pub scrapes: [Scrape; 3],
    /// `POST /api/traffic` reply → `/api/health` reports the index ready.
    pub epoch_ready_ms: Vec<f64>,
    /// Probes run while the server was starting.
    pub setup_probes: Vec<f64>,
    /// Probes after the crowd's last request. (Not in between: with every
    /// core busy a probe would measure the server, not the machine.)
    pub crowd_probes: Vec<f64>,
}

impl Lap {
    /// Raw launch time × this = reference-machine time. The probes that
    /// ran beside the launch share memory bandwidth and disk with it, and
    /// contention can only slow a probe down: when they read slower than
    /// the probes of the idle gaps in `solo` a few seconds later, the
    /// later ones are the better estimate of the machine.
    pub fn setup_factor(&self) -> f64 {
        let idle: Vec<f64> = self.solo.probes.samples_ms().collect();
        probe::factor(&self.setup_probes).max(probe::factor(&idle))
    }

    /// `solo` latencies in reference-machine ms, in list order.
    pub fn solo_ref_ms(&self) -> Vec<f64> {
        let raw = &self.solo.route_ms;
        let factors = self.solo.probes.factors(raw.len());
        raw.iter().zip(factors).map(|(ms, f)| ms * f).collect()
    }

    /// For what spans the lap rather than one request — the crowd's
    /// elapsed time and the server's CPU time: every probe from the start
    /// of `solo` to the end of `crowd`. A burst of three at a phase
    /// boundary can sit wholly inside a 60 ms stall; the median of some
    /// thirty cannot.
    pub fn lap_factor(&self) -> f64 {
        let solo = self.solo.probes.samples_ms();
        let all: Vec<f64> = solo.chain(self.crowd_probes.iter().copied()).collect();
        probe::factor(&all)
    }
}

pub struct LapOptions<'a> {
    pub binary: &'a Path,
    /// Where a durable workload's `--state-dir` goes.
    pub state_dir: PathBuf,
    pub clients: usize,
    /// Keep the body of every `keep_stride`-th `solo` route response.
    pub keep_stride: Option<usize>,
    /// Post the plan's probe deltas after the crowd and time readiness.
    pub probe: bool,
}

/// The structural check every route response gets: a 200 whose JSON is
/// neither truncated nor degraded, carries an epoch, and has at least one
/// route under each of the four blind labels. Bodies are compact JSON
/// with sorted keys (the repository's byte-identity suites pin that), so
/// substring tests are exact — and cost the load generator microseconds
/// where a parse of ~100 KB would cost a share of a core.
pub fn route_response_ok(status: u16, body: &str) -> bool {
    const SERVED_LABELS: [&str; 4] = [
        "\"label\":\"A\",\"routes\":[{",
        "\"label\":\"B\",\"routes\":[{",
        "\"label\":\"C\",\"routes\":[{",
        "\"label\":\"D\",\"routes\":[{",
    ];
    status == 200
        && body.contains("\"truncated\":false")
        && !body.contains("\"degraded\":true")
        && body.contains("\"epoch\":")
        && SERVED_LABELS.iter().all(|served| body.contains(served))
}

fn replay(
    addr: SocketAddr,
    plan: &Plan,
    ops: &[Op],
    keep_stride: Option<usize>,
    probed: bool,
) -> Replay {
    let mut out = Replay::default();
    let mut routes = 0usize;
    for (position, &op) in ops.iter().enumerate() {
        if probed {
            out.probes.before(routes);
        }
        out.attempted += 1;
        let started = Instant::now();
        let (path, body) = match op {
            Op::Route(i) => ("/api/route", &plan.bodies[i]),
            Op::Traffic(i) => ("/api/traffic", &plan.deltas[i]),
        };
        let result = http::exchange(addr, "POST", path, body);
        let ms = match &result {
            Ok(timed) => timed.ms,
            Err(_) => started.elapsed().as_secs_f64() * 1e3,
        };
        let ok = match (op, result) {
            (Op::Route(_), result) => {
                out.route_ms.push(ms);
                let keep = keep_stride.is_some_and(|stride| routes.is_multiple_of(stride));
                routes += 1;
                match result {
                    Ok(timed) => {
                        let ok = route_response_ok(timed.response.status, &timed.response.body);
                        out.body_bytes += timed.response.body.len();
                        if keep {
                            out.kept.push((position, timed.response.body));
                        }
                        ok
                    }
                    Err(_) => false,
                }
            }
            (Op::Traffic(_), result) => {
                out.post_ms.push(ms);
                matches!(result, Ok(timed) if timed.response.status == 200)
            }
        };
        if !ok {
            out.failed += 1;
        }
    }
    if probed {
        out.probes.after(routes);
    }
    out
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let response = http::get(addr, "/api/metrics").map_err(|e| format!("/api/metrics: {e}"))?;
    if response.status != 200 {
        return Err(format!("/api/metrics answered {}", response.status));
    }
    Ok(Scrape::parse(&response.body))
}

fn index_ready(addr: SocketAddr) -> bool {
    let Ok(response) = http::get(addr, "/api/health") else {
        return false;
    };
    json::parse(&response.body)
        .ok()
        .and_then(|health| {
            health
                .get("index")
                .and_then(|index| index.get("ready"))
                .and_then(Json::as_bool)
        })
        .unwrap_or(false)
}

pub fn run_lap(plan: &Plan, options: &LapOptions) -> Result<Lap, String> {
    let server = Server::launch(&Launch {
        binary: options.binary,
        city: &plan.city.name().to_ascii_lowercase(),
        state_dir: plan.durable.then(|| options.state_dir.clone()),
    })?;
    let addr = server.addr;

    let warm_ops: Vec<Op> = plan.warm.iter().map(|&i| Op::Route(i)).collect();
    let started = Instant::now();
    let warm_failed = replay(addr, plan, &warm_ops, None, false).failed;
    let warm_elapsed_s = started.elapsed().as_secs_f64();
    let cpu_start = server.cpu_ms()?;
    let after_warm = scrape(addr)?;

    let started = Instant::now();
    let solo = replay(addr, plan, &plan.solo, options.keep_stride, true);
    let solo_elapsed_s = started.elapsed().as_secs_f64();
    let after_solo = scrape(addr)?;

    let slices = plan.crowd_slices(options.clients);
    let barrier = Barrier::new(slices.len() + 1);
    let mut crowd = Replay::default();
    let mut crowd_elapsed_s = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .map(|slice| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    replay(addr, plan, slice, None, false)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for handle in handles {
            crowd.absorb(handle.join().expect("a crowd client panicked"));
        }
        crowd_elapsed_s = started.elapsed().as_secs_f64();
    });
    let cpu_end = server.cpu_ms()?;
    let after_crowd = scrape(addr)?;
    let crowd_probes = probe::burst(BOUNDARY_PROBES);

    let mut epoch_ready_ms = Vec::new();
    if options.probe {
        for &delta in &plan.probes {
            let post = http::exchange(addr, "POST", "/api/traffic", &plan.deltas[delta])
                .map_err(|e| format!("probe delta: {e}"))?;
            if post.response.status != 200 {
                return Err(format!("probe delta answered {}", post.response.status));
            }
            let replied = Instant::now();
            while !index_ready(addr) {
                if replied.elapsed() > Duration::from_secs(20) {
                    return Err("the index never became ready after a delta".into());
                }
            }
            epoch_ready_ms.push(replied.elapsed().as_secs_f64() * 1e3);
        }
    }

    let answered = solo.route_ms.len() + crowd.route_ms.len();
    Ok(Lap {
        setup_s: server.setup_s,
        warm_failed,
        cpu_ms_per_req: (cpu_end - cpu_start) / answered.max(1) as f64,
        rss_mb: server.peak_rss_mb()?,
        solo,
        crowd,
        crowd_elapsed_s,
        warm_elapsed_s,
        solo_elapsed_s,
        scrapes: [after_warm, after_solo, after_crowd],
        epoch_ready_ms,
        setup_probes: server.setup_probes.clone(),
        crowd_probes,
    })
}

#[cfg(test)]
mod tests {
    use super::route_response_ok;

    fn body(labels: &[&str], tail: &str) -> String {
        let approaches: Vec<String> = labels
            .iter()
            .map(|l| format!("{{\"label\":\"{l}\",\"routes\":[{{\"color\":\"#1a67d6\"}}]}}"))
            .collect();
        format!(
            "{{\"approaches\":[{}],\"epoch\":0,\"fastest_minutes\":12,{tail}}}",
            approaches.join(",")
        )
    }

    #[test]
    fn structural_check_wants_four_served_labels_and_a_clean_status() {
        let good = body(&["A", "B", "C", "D"], "\"truncated\":false");
        assert!(route_response_ok(200, &good));
        assert!(!route_response_ok(503, &good));
        assert!(!route_response_ok(
            200,
            &body(&["A", "B", "C"], "\"truncated\":false")
        ));
        assert!(!route_response_ok(
            200,
            &body(&["A", "B", "C", "D"], "\"truncated\":true")
        ));
        let degraded = body(
            &["A", "B", "C", "D"],
            "\"truncated\":false,\"degraded\":true",
        );
        assert!(!route_response_ok(200, &degraded));
        let empty_lane = good.replacen("[{\"color\":\"#1a67d6\"}]", "[]", 1);
        assert!(!route_response_ok(200, &empty_lane));
    }
}
