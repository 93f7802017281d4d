#![warn(missing_docs)]
//! # arp-bench
//!
//! The reproduction harness: one binary per table/figure of the paper
//! (`repro_table1` … `repro_fig4`, see DESIGN.md's per-experiment index)
//! plus the wall-clock `repro_perf` tables for the algorithms' §2 cost claims.
//!
//! This library hosts shared helpers: city caching, deterministic query
//! generation, and text-report plumbing used by every `repro_*` binary.

use std::path::PathBuf;
use std::sync::OnceLock;

use arp_citygen::{City, GeneratedCity, Scale};
use arp_core::search::{Direction, SearchSpace};
use arp_core::{AltQuery, AlternativesProvider, Path};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::INFINITY;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The workspace-level seed every experiment derives from, so the whole
/// reproduction is a pure function of this constant.
pub const MASTER_SEED: u64 = 20220509; // ICDE 2022 week

/// Generates (and memoizes per process) the default experiment city:
/// Melbourne at Medium scale.
pub fn melbourne_medium() -> &'static GeneratedCity {
    static CITY: OnceLock<GeneratedCity> = OnceLock::new();
    CITY.get_or_init(|| arp_citygen::generate(City::Melbourne, Scale::Medium, MASTER_SEED))
}

/// Generates a city fresh (no memoization) — for sweeps over cities.
pub fn generate_city(city: City, scale: Scale) -> GeneratedCity {
    arp_citygen::generate(city, scale, MASTER_SEED)
}

/// Deterministic random routable query pairs with a minimum fastest time.
///
/// Uses one forward shortest-path tree per source, like the study sampler,
/// to guarantee routability and measure the fastest travel time.
pub fn random_queries(
    net: &RoadNetwork,
    count: usize,
    min_ms: u64,
    max_ms: u64,
    seed: u64,
) -> Vec<(NodeId, NodeId, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = SearchSpace::new(net);
    let mut out = Vec::with_capacity(count);
    let n = net.num_nodes() as u32;
    let mut guard = 0;
    while out.len() < count && guard < count * 20 {
        guard += 1;
        let s = NodeId(rng.random_range(0..n));
        let Ok(tree) = ws.shortest_path_tree(net, net.weights(), s, Direction::Forward) else {
            continue;
        };
        let candidates: Vec<u32> = (0..n)
            .filter(|&v| {
                let d = tree.distance(NodeId(v));
                v != s.0 && d != INFINITY && d >= min_ms && d <= max_ms
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        for _ in 0..4 {
            if out.len() >= count {
                break;
            }
            let t = candidates[rng.random_range(0..candidates.len())];
            out.push((s, NodeId(t), tree.distance(NodeId(t))));
        }
    }
    out
}

/// The paths `provider` routes from `s` to `t` on `net`'s public weights
/// ([`AlternativesProvider::alternatives`]), or `None` when it fails.
pub fn routed_paths(
    provider: &dyn AlternativesProvider,
    net: &RoadNetwork,
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
) -> Option<Vec<Path>> {
    let routes = provider
        .alternatives(net, net.weights(), s, t, query)
        .ok()?;
    Some(routes.into_iter().map(|r| r.path).collect())
}

/// The four demo techniques' metric label values, in provider order.
pub const TECHNIQUE_SLUGS: [&str; 4] = ["google_like", "plateaus", "dissimilarity", "penalty"];

/// Formats the per-technique work counters (calls, settled nodes, heap
/// pops, relaxed edges, candidates vs admitted routes) accumulated in
/// `registry` — the snapshot table `repro_perf` prints under each city's
/// timing rows. See DESIGN.md §7 for the metric names behind each column.
pub fn metrics_snapshot(registry: &arp_obs::Registry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<15} {:>6} {:>10} {:>10} {:>10} {:>6} {:>6}",
        "technique", "calls", "settled", "heap-pops", "relaxed", "cand", "admit"
    );
    for technique in TECHNIQUE_SLUGS {
        let labels = [("technique", technique)];
        let c = |name: &str| registry.counter_value(name, &labels);
        let _ = writeln!(
            out,
            "  {:<15} {:>6} {:>10} {:>10} {:>10} {:>6} {:>6}",
            technique,
            c("arp_technique_calls_total"),
            c("arp_search_settled_nodes_total"),
            c("arp_search_heap_pops_total"),
            c("arp_search_relaxed_edges_total"),
            c("arp_technique_candidates_total"),
            c("arp_technique_admitted_total"),
        );
    }
    out
}

/// Writes a report file under `reports/` (created on demand) and echoes
/// the path, so every repro binary leaves an artifact for EXPERIMENTS.md.
pub fn write_report(name: &str, content: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("reports");
    std::fs::create_dir_all(&dir).expect("create reports dir");
    let dir = dir.canonicalize().expect("canonicalize reports dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write report");
    path
}

/// Runs the full-size calibrated reproduction study (237 responses on
/// Melbourne at Medium scale, calibration fitted for 6 rounds), memoized
/// per process. `repro_table1`, `repro_table2`, `repro_table3` and
/// `repro_anova` each call it once, so each fits it again in its own
/// process.
pub fn calibrated_study() -> &'static (arp_userstudy::StudyOutcome, arp_userstudy::Calibration) {
    static STUDY: OnceLock<(arp_userstudy::StudyOutcome, arp_userstudy::Calibration)> =
        OnceLock::new();
    STUDY.get_or_init(|| {
        let city = melbourne_medium();
        let providers = arp_core::provider::standard_providers(&city.network, MASTER_SEED);
        let config = arp_userstudy::StudyConfig::paper(MASTER_SEED);
        let mut calibration = arp_userstudy::Calibration::from_paper_targets();
        eprintln!("fitting calibration (6 rounds of the full study)…");
        let residual = calibration.fit(&city.network, &providers, &config, 6, 0.9);
        eprintln!("calibration residual after fit: {residual:.3}");
        let outcome = arp_userstudy::run_study(&city.network, &providers, &config, &calibration);
        (outcome, calibration)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_queries_are_deterministic_and_bounded() {
        let g = generate_city(City::Melbourne, Scale::Tiny);
        let a = random_queries(&g.network, 10, 60_000, 600_000, 7);
        let b = random_queries(&g.network, 10, 60_000, 600_000, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for &(s, t, ms) in &a {
            assert_ne!(s, t);
            assert!((60_000..=600_000).contains(&ms));
        }
    }

    #[test]
    fn counters_are_nonzero_after_a_melbourne_query() {
        let g = generate_city(City::Melbourne, Scale::Tiny);
        let registry = arp_obs::Registry::new();
        let providers =
            arp_core::provider::instrumented_providers(&g.network, MASTER_SEED, &registry);
        let (s, t, _) = random_queries(&g.network, 1, 60_000, 600_000, 7)[0];
        let q = arp_core::AltQuery::paper();
        for p in &providers {
            p.alternatives(&g.network, g.network.weights(), s, t, &q)
                .unwrap();
        }
        let snapshot = metrics_snapshot(&registry);
        for technique in TECHNIQUE_SLUGS {
            let labels = [("technique", technique)];
            assert_eq!(
                registry.counter_value("arp_technique_calls_total", &labels),
                1,
                "{technique}"
            );
            // Plateaus and Dissimilarity sweep the pair `alternatives`
            // grew for them; Google-like and Penalty search for themselves.
            let searches_itself = matches!(technique, "google_like" | "penalty");
            for name in [
                "arp_search_settled_nodes_total",
                "arp_search_heap_pops_total",
                "arp_search_relaxed_edges_total",
            ] {
                assert_eq!(
                    registry.counter_value(name, &labels) > 0,
                    searches_itself,
                    "{technique} {name}\n{snapshot}"
                );
            }
            assert!(snapshot.contains(technique), "{snapshot}");
        }
    }

    #[test]
    fn impossible_bounds_return_fewer() {
        let g = generate_city(City::Melbourne, Scale::Tiny);
        // No 10-hour routes in a tiny city.
        let q = random_queries(&g.network, 5, 36_000_000, 72_000_000, 1);
        assert!(q.is_empty());
    }
}
