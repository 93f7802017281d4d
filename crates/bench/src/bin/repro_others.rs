//! §2.4 "Other techniques" comparison: the paper argues (a) naive Yen
//! k-shortest paths are "all expected to be very similar to each other",
//! (b) edge-exclusion / limited-overlap variants (ESX-style) fix that at
//! extra cost, (c) Pareto/skyline paths are a different axis entirely.
//! This experiment quantifies those claims against the three study
//! techniques on the same query batch. No timings: the report is a pure
//! function of the seed (CI diffs it); `repro_perf` times ESX and Yen.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_others
//! ```

use std::fmt::Write as _;

use arp_core::prelude::*;
use arp_core::quality::route_set_features;

fn main() {
    let city = arp_bench::melbourne_medium();
    let net = &city.network;
    let queries = arp_bench::random_queries(
        net,
        30,
        8 * 60_000,
        45 * 60_000,
        arp_bench::MASTER_SEED ^ 0x07E5,
    );
    let q = AltQuery::paper();

    struct Row {
        name: &'static str,
        routes: f64,
        stretch: f64,
        diversity: f64,
    }
    let mut rows: Vec<Row> = Vec::new();

    let mut run =
        |name: &'static str,
         f: &mut dyn FnMut(arp_roadnet::NodeId, arp_roadnet::NodeId) -> Option<Vec<Path>>| {
            let mut routes = 0.0;
            let mut stretch = 0.0;
            let mut diversity = 0.0;
            let mut n = 0usize;
            for &(s, t, best) in &queries {
                let Some(paths) = f(s, t) else { continue };
                if paths.is_empty() {
                    continue;
                }
                let report = route_set_features(net, net.weights(), &paths, best, q.k);
                routes += report.count as f64;
                stretch += report.mean_stretch;
                diversity += report.diversity;
                n += 1;
            }
            let nf = n.max(1) as f64;
            rows.push(Row {
                name,
                routes: routes / nf,
                stretch: stretch / nf,
                diversity: diversity / nf,
            });
        };

    let providers = standard_providers(net, arp_bench::MASTER_SEED);
    for (name, kind) in [
        ("plateaus", ProviderKind::Plateaus),
        ("penalty", ProviderKind::Penalty),
        ("dissimilarity (SSVP-D+)", ProviderKind::Dissimilarity),
    ] {
        let provider = providers
            .iter()
            .find(|p| p.kind() == kind)
            .expect("one provider per kind");
        run(name, &mut |s, t| {
            arp_bench::routed_paths(&**provider, net, (s, t), &q)
        });
    }
    let unlimited = SearchBudget::unlimited();
    run("yen k=3 (naive KSP)", &mut |s, t| {
        yen_k_shortest_paths(net, net.weights(), s, t, 3, &unlimited).ok()
    });
    run("esx (k-SPwLO)", &mut |s, t| {
        esx_alternatives(
            net,
            net.weights(),
            s,
            t,
            &q,
            &EsxOptions::default(),
            &unlimited,
        )
        .ok()
    });
    run("pareto (time x distance)", &mut |s, t| {
        pareto_paths(net, net.weights(), s, t, &ParetoOptions::default())
            .ok()
            .map(|rs| rs.into_iter().take(q.k).map(|r| r.path).collect())
    });

    let mut report = String::new();
    let _ = writeln!(
        report,
        "§2.4 other-techniques comparison over {} queries on {}",
        queries.len(),
        city.name
    );
    let _ = writeln!(
        report,
        "\n{:<26} {:>7} {:>9} {:>10}",
        "technique", "routes", "stretch", "diversity"
    );
    for r in &rows {
        let _ = writeln!(
            report,
            "{:<26} {:>7.2} {:>9.3} {:>10.3}",
            r.name, r.routes, r.stretch, r.diversity
        );
    }

    let yen = rows.iter().find(|r| r.name.starts_with("yen")).unwrap();
    let dedicated_min_div = rows
        .iter()
        .filter(|r| !r.name.starts_with("yen") && !r.name.starts_with("pareto"))
        .map(|r| r.diversity)
        .fold(f64::INFINITY, f64::min);
    let _ =
        writeln!(
        report,
        "\nclaim checks:\n  yen diversity ({:.3}) below every dedicated technique (min {:.3}): {}",
        yen.diversity,
        dedicated_min_div,
        if yen.diversity < dedicated_min_div { "YES" } else { "NO" }
    );
    println!("{report}");
    let path = arp_bench::write_report("others.txt", &report);
    println!("report written to {}", path.display());
}
