//! Deadline sweep: runs one over-deadline workload against lanes that
//! poll the cancel token and lanes that ignore it, and *asserts* that
//! cooperative cancellation reclaims worker time. The report lands in
//! `reports/serve.txt` and feeds EXPERIMENTS.md. (Throughput and latency
//! of the serving layer are the benchmark's job — benchmark/README.md.)
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_serve
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arp_obs::Registry;
use arp_serve::{CancelToken, LaneOutcome, LaneStatus, RouteBackend, RouteService, ServeConfig};

fn main() {
    let mut report = String::new();
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

    fn run_lane(
        &self,
        _request: &u32,
        _lane: usize,
        token: &CancelToken,
    ) -> Result<LaneOutcome<()>, String> {
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

    /// Whether a lane was cut short; `None` when no lane has a part.
    fn assemble_lanes(
        &self,
        _request: &u32,
        parts: Vec<Option<()>>,
        statuses: &[LaneStatus],
    ) -> Option<bool> {
        let cut_short = statuses.contains(&LaneStatus::Truncated);
        parts.iter().any(Option::is_some).then_some(cut_short)
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
        // Dropping the service joins the workers, so every lane's busy
        // time is accounted for.
        drop(service);
        busy_s[index] = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
    }

    let [ignored_s, cooperative_s] = busy_s;
    let reclaimed = 100.0 * (1.0 - cooperative_s / ignored_s);
    let _ = writeln!(
        report,
        "Deadline sweep: {SWEEP_REQUESTS} requests, 4 lanes x {} ms synthetic work, {} ms deadline",
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
