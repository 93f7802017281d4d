//! Serving-layer throughput/latency table: queries per second and
//! p50/p99 latency of the `arp-serve` pipeline for 1/4/8 workers with the
//! route cache on and off, under a concurrent mixed workload of repeated
//! and unique queries — plus a deadline sweep that *asserts* cooperative
//! cancellation reclaims worker time compared to lanes that ignore the
//! cancel token. The report lands in `reports/serve.txt` and feeds
//! EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_serve
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arp_citygen::Scale;
use arp_demo::backend::DemoBackend;
use arp_demo::query::{PreparedQuery, QueryProcessor, SnappedQuery};
use arp_obs::Registry;
use arp_serve::{
    CancelToken, LaneError, LaneOutcome, LaneStatus, RouteBackend, RouteService, ServeConfig,
};

/// Client threads issuing requests concurrently.
const CLIENTS: usize = 4;
/// Distinct queries in the workload.
const DISTINCT: usize = 16;
/// Times each distinct query is issued (mixed/interleaved).
const REPEATS: usize = 6;

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let index = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[index]
}

fn main() {
    let city = arp_bench::generate_city(arp_citygen::City::Melbourne, Scale::Small);
    let name = city.name.clone();
    let queries = arp_bench::random_queries(&city.network, DISTINCT, 3 * 60_000, 40 * 60_000, 11);
    let processor = Arc::new(QueryProcessor::new(name.clone(), city.network, 11));

    // The request sequence interleaves the distinct queries so repeats are
    // spread across the run (and across client threads).
    let requests: Vec<SnappedQuery> = (0..DISTINCT * REPEATS)
        .map(|i| {
            let (s, t, _) = queries[i % DISTINCT];
            SnappedQuery {
                source: s,
                target: t,
            }
        })
        .collect();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Serving-layer throughput, {name}: {} requests ({DISTINCT} distinct x {REPEATS}), {CLIENTS} client threads, release build",
        requests.len()
    );
    let _ = writeln!(
        report,
        "\n  {:<22} {:>9} {:>10} {:>10} {:>10}",
        "configuration", "qps", "p50 ms", "p99 ms", "hit rate"
    );

    for &workers in &[1usize, 4, 8] {
        for &cache_on in &[false, true] {
            let registry = Registry::new();
            let config = ServeConfig {
                workers,
                queue_capacity: 64,
                max_inflight: 64,
                cache_capacity: if cache_on { 4096 } else { 0 },
                ..ServeConfig::default()
            };
            let service = Arc::new(RouteService::new(
                DemoBackend::new(Arc::clone(&processor)),
                config,
                &registry,
            ));

            let started = Instant::now();
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let service = Arc::clone(&service);
                    let requests = requests.clone();
                    std::thread::spawn(move || {
                        let mut latencies_ms = Vec::new();
                        for request in requests.iter().skip(client).step_by(CLIENTS) {
                            let t0 = Instant::now();
                            service
                                .route(PreparedQuery::new(*request))
                                .expect("route request");
                            latencies_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
                        }
                        latencies_ms
                    })
                })
                .collect();
            let mut latencies_ms: Vec<f64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect();
            let wall_s = started.elapsed().as_secs_f64();
            latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));

            let hits = registry.counter_value("arp_serve_cache_hits_total", &[]);
            let misses = registry.counter_value("arp_serve_cache_misses_total", &[]);
            let hit_rate = if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            };
            let _ = writeln!(
                report,
                "  {:<22} {:>9.1} {:>10.2} {:>10.2} {:>9.0}%",
                format!(
                    "{workers} workers, cache {}",
                    if cache_on { "on" } else { "off" }
                ),
                latencies_ms.len() as f64 / wall_s,
                percentile(&latencies_ms, 0.50),
                percentile(&latencies_ms, 0.99),
                hit_rate * 100.0,
            );
        }
    }

    deadline_sweep(&mut report);

    println!("{report}");
    let path = arp_bench::write_report("serve.txt", &report);
    println!("report written to {}", path.display());
}

/// A synthetic backend whose four lanes each spin for a fixed duration in
/// 1 ms slices, accumulating the wall time every lane actually burned
/// into a shared counter. Cooperative lanes poll the cancel token each
/// slice; non-cooperative lanes ignore it and always run to completion.
struct SpinBackend {
    cooperative: bool,
    work: Duration,
    busy_ns: Arc<AtomicU64>,
}

impl RouteBackend for SpinBackend {
    type Request = u32;
    type Part = ();
    type Response = bool;

    fn lanes(&self) -> usize {
        4
    }

    fn lane_key(&self, request: &u32, lane: usize) -> String {
        format!("spin:{request}:{lane}")
    }

    fn compute(&self, _request: &u32, _lane: usize) -> Result<(), String> {
        std::thread::sleep(self.work);
        Ok(())
    }

    fn assemble(&self, _request: &u32, _parts: Vec<()>) -> bool {
        false
    }

    fn compute_cancellable(
        &self,
        _request: &u32,
        _lane: usize,
        token: &CancelToken,
    ) -> Result<LaneOutcome<()>, LaneError> {
        let start = Instant::now();
        while start.elapsed() < self.work {
            if self.cooperative && token.is_cancelled() {
                self.busy_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                return Ok(LaneOutcome::Truncated(()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(LaneOutcome::Complete(()))
    }

    fn assemble_degraded(
        &self,
        _request: &u32,
        parts: Vec<Option<()>>,
        _statuses: &[LaneStatus],
    ) -> Option<bool> {
        parts.iter().any(Option::is_some).then_some(true)
    }
}

/// Runs the same over-deadline workload against cooperative and
/// non-cooperative lanes and asserts that cancellation reclaims worker
/// time — the whole point of threading a budget through the searches.
fn deadline_sweep(report: &mut String) {
    const SWEEP_REQUESTS: u32 = 8;
    let work = Duration::from_millis(60);
    let deadline = Duration::from_millis(12);

    let mut busy_s = [0.0f64; 2];
    for (index, cooperative) in [false, true].into_iter().enumerate() {
        let busy_ns = Arc::new(AtomicU64::new(0));
        let config = ServeConfig {
            workers: 4,
            cache_capacity: 0,
            deadline,
            cancel_grace: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        let registry = Registry::new();
        let service = RouteService::new(
            SpinBackend {
                cooperative,
                work,
                busy_ns: Arc::clone(&busy_ns),
            },
            config,
            &registry,
        );
        for request in 0..SWEEP_REQUESTS {
            // Over-deadline requests answer truncated (cooperative) or
            // late-but-collected (non-cooperative); neither is a failure
            // the sweep cares about.
            let _ = service.route(request);
        }
        // Join the workers so every lane's busy time is accounted for.
        service.shutdown();
        busy_s[index] = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
    }

    let [ignored_s, cooperative_s] = busy_s;
    let reclaimed = 100.0 * (1.0 - cooperative_s / ignored_s);
    let _ = writeln!(
        report,
        "\nDeadline sweep: {SWEEP_REQUESTS} requests, 4 lanes x {} ms synthetic work, {} ms deadline",
        work.as_millis(),
        deadline.as_millis()
    );
    let _ = writeln!(
        report,
        "  lanes ignoring the cancel token burned {ignored_s:.2} worker-seconds"
    );
    let _ = writeln!(
        report,
        "  cooperative lanes burned {cooperative_s:.2} worker-seconds ({reclaimed:.0}% reclaimed)"
    );
    assert!(
        cooperative_s < ignored_s * 0.5,
        "cooperative cancellation must reclaim worker time: \
         {cooperative_s:.2}s cooperative vs {ignored_s:.2}s ignored"
    );
}
