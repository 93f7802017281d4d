//! Reproduces the penalty-factor recommendation the study adopts:
//! "As suggested in \[4\], for the Penalty approach, the penalty that we
//! apply to each edge is 1.4" (§3).
//!
//! Reference \[4\] (Bader et al.) evaluates penalty factors by the quality
//! of the resulting *alternative graph*: enough extra road offered
//! (totalDistance up), routes staying near-optimal (averageDistance low),
//! and a manageable number of decision points. This binary sweeps the
//! factor and prints those metrics plus route-set diversity; 1.4 should
//! sit at the knee — smaller factors fail to produce alternatives,
//! larger ones inflate averageDistance.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_penalty_factor
//! ```

use std::fmt::Write as _;

use arp_core::altgraph::alt_graph_metrics;
use arp_core::prelude::*;
use arp_core::similarity::diversity;

fn main() {
    let city = arp_bench::melbourne_medium();
    let net = &city.network;
    let queries = arp_bench::random_queries(
        net,
        30,
        8 * 60_000,
        45 * 60_000,
        arp_bench::MASTER_SEED ^ 0xFAC7,
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Penalty-factor sweep ([4]'s alternative-graph metrics) over {} queries",
        queries.len()
    );
    let _ = writeln!(
        report,
        "\n{:>8} {:>7} {:>10} {:>14} {:>14} {:>10}",
        "factor", "routes", "diversity", "totalDistance", "avgDistance", "decisions"
    );

    struct Score {
        factor: f64,
        routes: f64,
        diversity: f64,
        total: f64,
        avg: f64,
    }
    let mut scores: Vec<Score> = Vec::new();

    let penalty = PenaltyProvider::new(&arp_obs::Registry::disabled());
    for step in 0..=8 {
        let factor = 1.1 + step as f64 * 0.1;
        let q = AltQuery::paper().with_penalty_factor(factor);
        let mut routes = 0.0;
        let mut div = 0.0;
        let mut total = 0.0;
        let mut avg = 0.0;
        let mut decisions = 0.0;
        let mut n = 0usize;
        for &(s, t, best) in &queries {
            let Some(paths) = arp_bench::routed_paths(&penalty, net, (s, t), &q) else {
                continue;
            };
            if paths.is_empty() {
                continue;
            }
            let m = alt_graph_metrics(net, net.weights(), &paths, best);
            if !m.average_distance.is_finite() {
                continue;
            }
            routes += paths.len() as f64;
            div += diversity(&paths, net.weights());
            total += m.total_distance;
            avg += m.average_distance;
            decisions += m.decision_edges as f64;
            n += 1;
        }
        let nf = n.max(1) as f64;
        let _ = writeln!(
            report,
            "{:>8.1} {:>7.2} {:>10.3} {:>14.3} {:>14.3} {:>10.1}",
            factor,
            routes / nf,
            div / nf,
            total / nf,
            avg / nf,
            decisions / nf
        );
        scores.push(Score {
            factor,
            routes: routes / nf,
            diversity: div / nf,
            total: total / nf,
            avg: avg / nf,
        });
    }

    // The knee: smallest factor whose diversity and totalDistance are
    // within 95% of the sweep's plateau (bigger factors only add
    // averageDistance).
    let max_div = scores.iter().map(|s| s.diversity).fold(0.0, f64::max);
    let max_total = scores.iter().map(|s| s.total).fold(0.0, f64::max);
    let knee = scores
        .iter()
        .find(|s| s.diversity >= 0.92 * max_div && s.total >= 0.92 * max_total && s.routes >= 2.5)
        .map(|s| s.factor);
    let _ = writeln!(
        report,
        "\nknee of the sweep (diversity & totalDistance plateau, k routes delivered): {}",
        knee.map(|f| format!("{f:.1}"))
            .unwrap_or_else(|| "none".into())
    );
    let reproduced = knee.is_some_and(|f| (1.2..=1.5).contains(&f));
    let _ = writeln!(
        report,
        "paper/[4] use 1.4; reproduced (knee within 1.2..=1.5): {}",
        if reproduced { "YES" } else { "NO" }
    );
    let _ = writeln!(
        report,
        "(averageDistance grows monotonically with the factor: {})",
        scores.windows(2).all(|w| w[1].avg >= w[0].avg - 0.02)
    );

    println!("{report}");
    let path = arp_bench::write_report("penalty_factor.txt", &report);
    println!("report written to {}", path.display());
}
