//! Socket-to-socket benchmark of `arp serve` at `Scale::Large`.
//!
//! ```text
//! arp-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! arp-benchmark --selfcheck [--seed N] [--seconds S]
//! ```
//!
//! Run from the repository root. `--trace 0` (the default) measures the
//! end-to-end metrics over three laps; `--trace 1` measures the per-layer
//! ledger over one lap and an in-process twin. The last line printed for
//! each workload is its result as one JSON object. See `README.md`.

mod http;
mod lap;
mod ledger;
mod probe;
mod prom;
mod server;
mod stats;
mod twin;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use arp_demo::json::{self, Json};

use lap::{run_lap, Lap, LapOptions};
use stats::{lap_min, max, median, min, p95, spread};
use workload::{Plan, BASE_SECONDS, NAMES};

/// Laps of a `--trace 0` run. Never fewer: a lap is one server lifetime,
/// and both `setup_s` and the per-request lap minimum need repeats.
const LAPS: usize = 3;

/// Where traces and durable state go; `.gitignore`d.
const OUT_DIR: &str = "benchmark/out";

/// A named value with its unit, as printed and as reported.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, per-lap values and the like, for the human reader.
    pub note: String,
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let entry = Json::object([("value", Json::Number(value)), ("unit", Json::str(m.unit))]);
            (m.name.clone(), entry)
        });
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Number(self.attempted.max(1) as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", Json::object_of(metrics)),
        ])
        .to_string_compact()
    }

    fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload:<11} {:<40} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "{workload:<11} attempted {} failed {}",
            self.attempted, self.failed
        );
        println!("{}", self.to_json());
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: NAMES.to_vec(),
        seed: 1,
        seconds: BASE_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let name = NAMES.iter().find(|&&n| n == value).ok_or_else(|| {
                    format!("unknown workload {value:?} (known: {})", NAMES.join(", "))
                })?;
                args.workloads = vec![name];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn state_dir(plan: &Plan, lap: usize) -> PathBuf {
    Path::new(OUT_DIR).join(format!("state-{}-{}-{lap}", plan.name, std::process::id()))
}

fn laps_note(values: &[f64]) -> String {
    let laps: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!(
        "laps [{}] spread {:.1}%",
        laps.join(" "),
        spread(values) * 100.0
    )
}

/// Requests sent and failed in the laps' warm-up, `solo` and `crowd`.
fn tally(plan: &Plan, laps: &[Lap]) -> (usize, usize) {
    let attempted = laps
        .iter()
        .map(|l| plan.warm.len() + l.solo.attempted + l.crowd.attempted)
        .sum();
    let failed = laps
        .iter()
        .map(|l| l.warm_failed + l.solo.failed + l.crowd.failed)
        .sum();
    (attempted, failed)
}

fn print_phases(plan: &Plan, laps: &[Lap]) {
    for (i, lap) in laps.iter().enumerate() {
        println!(
            "{:<11} lap {} launch {:.2} s; warm-up {:.2} s, {}/{} failed; solo {:.2} s, {}/{} failed; crowd {:.2} s, {}/{} failed; probe ms: launch {:.1}, solo {:.1}, crowd {:.1} {:.1?}",
            plan.name,
            i + 1,
            lap.setup_s,
            lap.warm_elapsed_s,
            lap.warm_failed,
            plan.warm.len(),
            lap.solo_elapsed_s,
            lap.solo.failed,
            lap.solo.attempted,
            lap.crowd_elapsed_s,
            lap.crowd.failed,
            lap.crowd.attempted,
            median(&lap.setup_probes),
            median(&lap.solo.probes.samples_ms().collect::<Vec<_>>()),
            median(&lap.crowd_probes),
            lap.crowd_probes
        );
    }
}

fn report_check(plan: &Plan, check: &twin::Check, lap: &Lap) -> Result<(), String> {
    println!(
        "{:<11} byte check: {} of {} solo bodies compared with the twin, {} differ",
        plan.name,
        check.checked,
        lap.solo.route_ms.len(),
        check.mismatched
    );
    if check.checked == 0 {
        return Err("the byte check compared nothing".into());
    }
    Ok(())
}

fn end_to_end(
    binary: &Path,
    plan: &Plan,
    city: arp_citygen::GeneratedCity,
) -> Result<Outcome, String> {
    let mut laps = Vec::with_capacity(LAPS);
    for i in 0..LAPS {
        laps.push(run_lap(
            plan,
            &LapOptions {
                binary,
                state_dir: state_dir(plan, i),
                clients: clients(),
                // Lap 1's bodies are the ones compared with the twin.
                keep_stride: (i == 0).then_some(plan.check_stride),
                probe: false,
            },
        )?);
    }
    print_phases(plan, &laps);
    let app = twin::plain_app(city);
    let check = twin::byte_check(&app, plan, &laps[0].solo.kept)?;
    report_check(plan, &check, &laps[0])?;

    // Every time below is in reference-machine units: raw × the lap's
    // probe factor (see `probe`). The raw per-lap values ride along in
    // the notes.
    let per_lap = |f: &dyn Fn(&Lap) -> f64| laps.iter().map(f).collect::<Vec<f64>>();
    let setup = per_lap(&|l| l.setup_s * l.setup_factor());
    let solo_laps: Vec<Vec<f64>> = laps.iter().map(Lap::solo_ref_ms).collect();
    let best = lap_min(&solo_laps);
    let lap_p50: Vec<f64> = solo_laps.iter().map(|ms| median(ms)).collect();
    let lap_p95: Vec<f64> = solo_laps.iter().map(|ms| p95(ms)).collect();
    let raw_capacity = |l: &Lap| l.crowd.route_ms.len() as f64 / l.crowd_elapsed_s;
    let capacity = per_lap(&|l| raw_capacity(l) / l.lap_factor());
    let cpu = per_lap(&|l| l.cpu_ms_per_req * l.lap_factor());
    let rss = per_lap(&|l| l.rss_mb);
    let crowd_n = laps[0].crowd.route_ms.len();
    let raw = |f: &dyn Fn(&Lap) -> f64| format!("raw {}", laps_note(&per_lap(f)));
    let metric = |name: &str, value: f64, unit: &'static str, note: String| Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    };
    let metrics = vec![
        metric(
            "setup_s",
            min(&setup),
            "s",
            format!(
                "min of {LAPS} launches, {}; {}",
                laps_note(&setup),
                raw(&|l| l.setup_s)
            ),
        ),
        metric(
            "route_p50_ms",
            median(&best),
            "ms",
            format!(
                "n={} lap-min samples, per-{}; {}",
                best.len(),
                laps_note(&lap_p50),
                raw(&|l| median(&l.solo.route_ms))
            ),
        ),
        metric(
            "route_p95_ms",
            p95(&best),
            "ms",
            format!(
                "n={} lap-min samples, per-{}; {}",
                best.len(),
                laps_note(&lap_p95),
                raw(&|l| p95(&l.solo.route_ms))
            ),
        ),
        metric(
            "capacity_rps",
            max(&capacity),
            "1/s",
            format!(
                "best lap, {} clients x {crowd_n} requests, {}; {}",
                clients(),
                laps_note(&capacity),
                raw(&raw_capacity)
            ),
        ),
        metric(
            "cpu_ms_per_req",
            min(&cpu),
            "ms",
            format!(
                "best lap, n={} requests, {}; {}",
                best.len() + crowd_n,
                laps_note(&cpu),
                raw(&|l| l.cpu_ms_per_req)
            ),
        ),
        metric(
            "rss_mb",
            median(&rss),
            "MB",
            format!("median lap, {}", laps_note(&rss)),
        ),
    ];
    // Not a metric, but the number that explains a closed loop: with `c`
    // requests in flight, latency is `c ÷ throughput` (Little's law), so a
    // crowd's latency says nothing the capacity does not.
    let best_lap = laps
        .iter()
        .max_by(|a, b| raw_capacity(a).total_cmp(&raw_capacity(b)))
        .expect("LAPS > 0");
    println!(
        "{:<11} crowd, best lap (raw): p50 latency {:.3} ms with {} in flight; {} / {:.2} per s = {:.3} ms",
        plan.name,
        median(&best_lap.crowd.route_ms),
        clients(),
        clients(),
        raw_capacity(best_lap),
        clients() as f64 * 1e3 / raw_capacity(best_lap)
    );
    let (attempted, failed) = tally(plan, &laps);
    Ok(Outcome {
        metrics,
        attempted: attempted + check.checked,
        failed: failed + check.mismatched,
    })
}

fn per_layer(
    binary: &Path,
    plan: &Plan,
    city: arp_citygen::GeneratedCity,
    seed: u64,
) -> Result<Outcome, String> {
    let lap = run_lap(
        plan,
        &LapOptions {
            binary,
            state_dir: state_dir(plan, 0),
            clients: clients(),
            keep_stride: Some(plan.twin_stride),
            probe: true,
        },
    )?;
    print_phases(plan, std::slice::from_ref(&lap));
    let processor =
        arp_demo::QueryProcessor::new(city.name, city.network, workload::CITY_SEED).with_ch_index();
    let app = arp_demo::DemoApp::with_config(processor, twin::serve_config());
    let traced = twin::traced_replay(&app, plan, &lap.solo.kept)?;
    let render_ms = twin::metrics_render_ms(&app);
    // After the replay: the primitives build and drop several cities and
    // hierarchies, and the replay should run in a heap as fresh as the
    // server's.
    let network = app.processor.network();
    let primitives = twin::primitives(plan, network, seed, &state_dir(plan, 1))?;
    report_check(plan, &traced.check, &lap)?;
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.json", plan.name));
    std::fs::write(&trace_path, traced.recorder.to_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "{:<11} {} spans written to {}",
        plan.name,
        traced.recorder.spans.len(),
        trace_path.display()
    );
    let metrics = ledger::metrics(&lap, &traced, &primitives, render_ms);
    // Does the ledger close? The live lap's own solo median against the
    // two layers that should add up to it.
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (live, layers) = (
        median(&lap.solo_ref_ms()),
        value("wire.self_ms") + value("demo.handle_ms"),
    );
    println!(
        "{:<11} ledger: live solo p50 (this lap) {live:.3} ms; wire.self_ms + demo.handle_ms = {layers:.3} ms ({:+.1}%)",
        plan.name,
        (layers / live - 1.0) * 100.0
    );
    let (attempted, failed) = tally(plan, std::slice::from_ref(&lap));
    Ok(Outcome {
        metrics,
        attempted: attempted + traced.check.checked,
        failed: failed + traced.check.mismatched,
    })
}

fn run_workload(binary: &Path, name: &str, args: &Args, trace: bool) -> Result<Outcome, String> {
    let city_id = workload::city_of(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let city = workload::generate_city(city_id);
    let plan = workload::plan(name, &city.network, args.seed, args.seconds)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    println!(
        "{name:<11} {} large, {} nodes, seed {}, {} clients; warm-up {}, solo {} routes, crowd {} routes, {} deltas; request digest {:016x}, delta digest {:016x}",
        city.name,
        city.network.num_nodes(),
        args.seed,
        clients(),
        plan.warm.len(),
        Plan::route_count(&plan.solo),
        Plan::route_count(&plan.crowd),
        plan.deltas.len(),
        plan.request_digest(),
        plan.delta_digest()
    );
    if trace {
        per_layer(binary, &plan, city, args.seed)
    } else {
        end_to_end(binary, &plan, city)
    }
}

/// The `bound` of every end-to-end metric, read from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str)?;
            let bound = e.get("bound").and_then(Json::as_f64)?;
            let lower = e.get("better").and_then(Json::as_str)? == "lower";
            Some((name.to_string(), bound, lower))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Runs the whole set twice, the second time in reverse workload order,
/// and holds each end-to-end metric's relative difference against its
/// bound.
fn selfcheck(binary: &Path, args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut order: Vec<&str> = args.workloads.clone();
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for &name in &order {
            let outcome = run_workload(binary, name, args, false)?;
            outcome.print(name);
            set.push((name, outcome));
        }
        sets.push(set);
        order.reverse();
    }
    let mut ok = true;
    for (name, first) in &sets[0] {
        let (_, second) = sets[1]
            .iter()
            .find(|(n, _)| n == name)
            .expect("both sets ran the same workloads");
        ok &= first.correct() && second.correct();
        for (a, b) in first.metrics.iter().zip(&second.metrics) {
            let (_, bound, lower) = bounds
                .iter()
                .find(|(n, _, _)| *n == a.name)
                .ok_or_else(|| format!("BENCHMARK.json does not list {}", a.name))?;
            // Positive = the second set is worse.
            let worse = if *lower {
                b.value / a.value - 1.0
            } else {
                a.value / b.value - 1.0
            };
            let verdict = if worse.abs() <= *bound {
                "ok"
            } else {
                "EXCEEDS"
            };
            ok &= worse.abs() <= *bound;
            println!(
                "selfcheck {name:<11} {:<16} {:>12.4} -> {:>12.4} {:<4} {:+7.2}% (bound {:.0}%) {verdict}",
                a.name,
                a.value,
                b.value,
                a.unit,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    let binary = server::build_arp()?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if args.selfcheck {
        return selfcheck(&binary, args);
    }
    let mut ok = true;
    for &name in &args.workloads {
        let outcome = run_workload(&binary, name, args, args.trace)?;
        outcome.print(name);
        ok &= outcome.correct();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: arp-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark failed: requests failed or outputs differ (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}
