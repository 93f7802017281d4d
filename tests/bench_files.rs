//! The committed benchmark trajectory: every `BENCH_<pr>.json` at the
//! repository root, read with `arp_demo::json` and held to one schema.
//!
//! A file records one change's parent/change comparison on the benchmark
//! that `BENCHMARK.json` declares:
//!
//! - `pr`, `source` (how the numbers were taken, or where a backfilled
//!   file copied them from), `parent_rev`, `change_rev`, `cores`, and
//!   `backfilled` (`true` when the medians were copied from the change
//!   log rather than recomputed from committed runs);
//! - `medians`: for every workload and every end-to-end metric in
//!   `BENCHMARK.json`, a `parent` and a `change` cell of `median`, `q1`
//!   and `q3` (a backfilled file has `null` quartiles, and `null` medians
//!   where its source recorded none);
//! - `runs`: every run the medians come from, each the benchmark's last line
//!   (`{correct, attempted, failed, metrics}`) verbatim under `line`,
//!   tagged with its `side`, `workload`, `seed`, `pair`, `trace` (the
//!   `--trace 1` per-layer runs), both revs and the core count.
//!
//! A measured file's cells must be what its end-to-end runs give:
//! the median, and the quartiles interpolated linearly between order
//! statistics (at ranks `(n − 1)/4` and `3(n − 1)/4`).
//!
//! The newest file is also the regression gate of the trajectory: no
//! change-side median of its end-to-end cells may be worse, by more than
//! the cell's `BENCHMARK.json` bound, than both the previous file's
//! change-side median and the best median ever recorded.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use arp_demo::json::{self, Json};

/// What `BENCHMARK.json` declares: workload names and end-to-end
/// metrics.
struct Declared {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

/// An end-to-end metric: its unit, which way is better, and the
/// relative amount by which a change may make it worse.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

impl Metric {
    /// Whether `value` is worse than `reference` by more than the bound.
    fn regresses(&self, value: f64, reference: f64) -> bool {
        if self.lower_is_better {
            value > reference * (1.0 + self.bound)
        } else {
            value < reference * (1.0 - self.bound)
        }
    }

    /// The better of two values.
    fn best(&self, a: f64, b: f64) -> f64 {
        if self.lower_is_better {
            a.min(b)
        } else {
            a.max(b)
        }
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

fn declared() -> Declared {
    let spec = read_json(&root().join("BENCHMARK.json"));
    let list = |key: &str| spec.get(key).and_then(Json::as_array).expect(key);
    let text = |entry: &Json, field: &str| {
        let value = entry.get(field).and_then(Json::as_str);
        value.expect(field).to_string()
    };
    let metrics = list("end_to_end")
        .iter()
        .map(|entry| Metric {
            name: text(entry, "name"),
            unit: text(entry, "unit"),
            lower_is_better: match text(entry, "better").as_str() {
                "lower" => true,
                "higher" => false,
                other => panic!("`better` is {other:?}"),
            },
            bound: entry.get("bound").and_then(Json::as_f64).expect("bound"),
        })
        .collect();
    Declared {
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        metrics,
    }
}

/// Every `BENCH_<n>.json` at the root, with its `n`.
fn bench_files() -> Vec<(u64, PathBuf)> {
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(root())
        .expect("repository root")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let pr = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some((pr.parse().ok()?, path))
        })
        .collect();
    files.sort();
    files
}

fn object(value: &Json) -> Option<&BTreeMap<String, Json>> {
    match value {
        Json::Object(map) => Some(map),
        _ => None,
    }
}

/// A number or `null`, and nothing else.
fn number_or_null(cell: &Json, key: &str, what: &str) -> Option<f64> {
    match cell.get(key) {
        Some(Json::Null) => None,
        Some(Json::Number(x)) if x.is_finite() => Some(*x),
        other => panic!("{what}: `{key}` is {other:?}, not a number or null"),
    }
}

/// Median and quartiles, quartiles interpolated between order statistics.
fn summary(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let at = |rank: f64| {
        let (low, frac) = (rank.floor() as usize, rank.fract());
        let high = (low + 1).min(values.len() - 1);
        values[low] + (values[high] - values[low]) * frac
    };
    let last = (values.len() - 1) as f64;
    [at(last / 2.0), at(last / 4.0), at(3.0 * last / 4.0)]
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn every_bench_file_follows_the_trajectory_schema() {
    let declared = declared();
    let files = bench_files();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    for (pr, path) in &files {
        let what = path.file_name().unwrap().to_string_lossy().into_owned();
        let file = read_json(path);
        assert_eq!(
            file.get("pr").and_then(Json::as_f64),
            Some(*pr as f64),
            "{what}: pr"
        );
        for key in ["source", "parent_rev", "change_rev"] {
            let value = file.get(key).and_then(Json::as_str);
            assert!(
                value.is_some_and(|v| !v.is_empty()),
                "{what}: `{key}` missing"
            );
        }
        let cores = file.get("cores").and_then(Json::as_f64);
        assert!(cores.is_some_and(|c| c >= 1.0), "{what}: cores");
        let backfilled = file.get("backfilled").and_then(Json::as_bool);
        let backfilled = backfilled.unwrap_or_else(|| panic!("{what}: `backfilled` missing"));
        let runs = file.get("runs").and_then(Json::as_array).expect("runs");
        assert_eq!(
            runs.is_empty(),
            backfilled,
            "{what}: runs are what a measured file holds"
        );

        // Every run: tagged, and its result line complete.
        let mut measured: BTreeMap<(String, String, String), Vec<f64>> = BTreeMap::new();
        for (i, run) in runs.iter().enumerate() {
            let what = format!("{what} run {i}");
            let side = run.get("side").and_then(Json::as_str);
            assert!(matches!(side, Some("parent" | "change")), "{what}: side");
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .expect("workload");
            assert!(
                declared.workloads.iter().any(|w| w == workload),
                "{what}: {workload}"
            );
            for key in ["seed", "pair", "cores"] {
                assert!(
                    run.get(key).and_then(Json::as_f64).is_some(),
                    "{what}: `{key}`"
                );
            }
            assert_eq!(run.get("cores"), file.get("cores"), "{what}: cores");
            for key in ["parent_rev", "change_rev"] {
                assert_eq!(run.get(key), file.get(key), "{what}: {key}");
            }
            let trace = run.get("trace").and_then(Json::as_bool).expect("trace");
            let line = run
                .get("line")
                .unwrap_or_else(|| panic!("{what}: no result line"));
            assert!(
                line.get("correct").and_then(Json::as_bool).is_some(),
                "{what}: correct"
            );
            for key in ["attempted", "failed"] {
                assert!(
                    line.get(key).and_then(Json::as_f64).is_some(),
                    "{what}: `{key}`"
                );
            }
            let metrics = line.get("metrics").and_then(object).expect("metrics");
            if trace {
                continue;
            }
            for Metric { name, unit, .. } in &declared.metrics {
                let metric = metrics.get(name);
                let metric = metric.unwrap_or_else(|| panic!("{what}: no `{name}`"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                let value = metric.get("value").and_then(Json::as_f64).expect("value");
                let key = (
                    workload.to_string(),
                    name.clone(),
                    side.unwrap().to_string(),
                );
                measured.entry(key).or_default().push(value);
            }
        }

        // Every workload carries every end-to-end metric, both sides.
        let medians = file
            .get("medians")
            .unwrap_or_else(|| panic!("{what}: no medians"));
        for workload in &declared.workloads {
            let cells = medians.get(workload);
            let cells = cells.unwrap_or_else(|| panic!("{what}: no `{workload}`"));
            for Metric { name, .. } in &declared.metrics {
                let metric = cells.get(name);
                let metric = metric.unwrap_or_else(|| panic!("{what}: {workload} has no `{name}`"));
                for side in ["parent", "change"] {
                    let what = format!("{what}: {workload} {name} {side}");
                    let cell = metric
                        .get(side)
                        .unwrap_or_else(|| panic!("{what}: missing"));
                    let median = number_or_null(cell, "median", &what);
                    let q1 = number_or_null(cell, "q1", &what);
                    let q3 = number_or_null(cell, "q3", &what);
                    if backfilled {
                        assert!(q1.is_none() && q3.is_none(), "{what}: backfilled quartiles");
                        continue;
                    }
                    let key = (workload.clone(), name.clone(), side.to_string());
                    let values = measured.remove(&key);
                    let values = values.unwrap_or_else(|| panic!("{what}: no runs"));
                    let [m, low, high] = summary(values);
                    let recorded = [median, q1, q3].map(|x| x.expect("a measured cell"));
                    for (got, want) in recorded.into_iter().zip([m, low, high]) {
                        assert!(close(got, want), "{what}: {got} recorded, runs give {want}");
                    }
                }
            }
        }
    }
}

/// The median a file records for one side of one cell, when it records
/// one.
fn median(file: &Json, workload: &str, metric: &str, side: &str) -> Option<f64> {
    let cell = file.get("medians")?.get(workload)?.get(metric)?.get(side)?;
    cell.get("median").and_then(Json::as_f64)
}

#[test]
fn the_newest_file_regresses_no_end_to_end_cell() {
    let declared = declared();
    let files: Vec<(u64, Json)> = bench_files()
        .into_iter()
        .map(|(pr, path)| (pr, read_json(&path)))
        .collect();
    let [.., (previous_pr, previous), (newest_pr, newest)] = &files[..] else {
        panic!("the trajectory needs two files to compare");
    };
    let mut regressions = Vec::new();
    for workload in &declared.workloads {
        for metric in &declared.metrics {
            let name = &metric.name;
            let got = median(newest, workload, name, "change");
            let previous = median(previous, workload, name, "change");
            let (Some(got), Some(previous)) = (got, previous) else {
                continue;
            };
            // Every median recorded before the newest change: both sides
            // of every older file, and the newest file's parent side.
            let older = files[..files.len() - 1].iter().flat_map(|(_, file)| {
                ["parent", "change"].map(|side| median(file, workload, name, side))
            });
            let best = older
                .chain([median(newest, workload, name, "parent")])
                .flatten()
                .fold(previous, |a, b| metric.best(a, b));
            if metric.regresses(got, previous) && metric.regresses(got, best) {
                regressions.push(format!(
                    "{workload} {name}: {got} in BENCH_{newest_pr}, \
                     {previous} in BENCH_{previous_pr}, best {best}"
                ));
            }
        }
    }
    assert!(
        regressions.is_empty(),
        "worse than both the previous file and the best ever by more than the bound:\n{}",
        regressions.join("\n")
    );
}
