//! Ablation study over the design choices DESIGN.md §6 calls out:
//!
//! 1. Penalty: penalize only forward edges vs. forward + reverse;
//!    similarity rejection filter on/off.
//! 2. Plateaus: overlap pruning threshold.
//! 3. Dissimilarity: θ sweep {0.3, 0.5, 0.7}.
//! 4. The §4.2-#4 "commercial" filters (overlap pruning, local
//!    optimality, comfort ranking) applied to Penalty's raw output.
//!
//! Metrics: success@k, mean stretch, diversity, local optimality — the
//! objective counterparts of what the study participants rated.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_ablation
//! ```

use std::fmt::Write as _;

use arp_core::prelude::*;
use arp_core::quality::{local_optimality, route_set_features};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::UNIT_SCALE;

struct Row {
    name: String,
    routes: f64,
    stretch: f64,
    diversity: f64,
    local_opt: f64,
    turns_per_km: f64,
}

fn evaluate(
    net: &RoadNetwork,
    queries: &[(NodeId, NodeId, u64)],
    name: &str,
    mut run: impl FnMut(NodeId, NodeId) -> Option<Vec<Path>>,
) -> Row {
    let mut routes = 0.0;
    let mut stretch = 0.0;
    let mut diversity = 0.0;
    let mut local_opt = 0.0;
    let mut turns = 0.0;
    let mut n = 0usize;
    for &(s, t, best) in queries {
        let Some(paths) = run(s, t) else { continue };
        if paths.is_empty() {
            continue;
        }
        let w = net.weights();
        let q = route_set_features(net, w, &paths, best, AltQuery::paper().k);
        routes += q.count as f64;
        stretch += q.mean_stretch;
        diversity += q.diversity;
        local_opt += paths
            .iter()
            .map(|p| local_optimality(net, w, p, 0.25, 8).share())
            .sum::<f64>()
            / paths.len() as f64;
        turns += q.turns_per_km;
        n += 1;
    }
    let n = n.max(1) as f64;
    Row {
        name: name.to_string(),
        routes: routes / n,
        stretch: stretch / n,
        diversity: diversity / n,
        local_opt: local_opt / n,
        turns_per_km: turns / n,
    }
}

fn main() {
    let city = arp_bench::melbourne_medium();
    let net = &city.network;
    let queries = arp_bench::random_queries(
        net,
        40,
        8 * 60_000,
        50 * 60_000,
        arp_bench::MASTER_SEED ^ 0xAB1A,
    );
    let base_query = AltQuery::paper();

    let mut rows: Vec<Row> = Vec::new();

    let off = arp_obs::Registry::disabled();

    // 1. Penalty variants.
    let mut penalty = PenaltyProvider::new(&off);
    for (name, options) in [
        (
            "penalty fwd-only, no sim filter",
            PenaltyOptions {
                max_similarity: 1.0,
                penalize_reverse: false,
            },
        ),
        (
            "penalty fwd+rev, no sim filter",
            PenaltyOptions {
                max_similarity: 1.0,
                penalize_reverse: true,
            },
        ),
        (
            "penalty fwd+rev, sim<=0.9 (default)",
            PenaltyOptions {
                max_similarity: 0.9,
                penalize_reverse: true,
            },
        ),
        (
            "penalty fwd+rev, sim<=0.6",
            PenaltyOptions {
                max_similarity: 0.6,
                penalize_reverse: true,
            },
        ),
    ] {
        penalty.options = options;
        rows.push(evaluate(net, &queries, name, |s, t| {
            arp_bench::routed_paths(&penalty, net, (s, t), &base_query)
        }));
    }

    // 2. Plateau overlap pruning.
    let mut plateaus = PlateauProvider::new(&off);
    for (name, max_similarity) in [
        ("plateau sim<=1.0 (no pruning)", 1.0),
        ("plateau sim<=0.9 (default)", 0.9),
        ("plateau sim<=0.6", 0.6),
    ] {
        plateaus.options = PlateauOptions {
            max_similarity,
            min_plateau_fraction: 0.01,
        };
        rows.push(evaluate(net, &queries, name, |s, t| {
            arp_bench::routed_paths(&plateaus, net, (s, t), &base_query)
        }));
    }

    // 3. Dissimilarity θ sweep.
    let dissimilarity = DissimilarityProvider::new(&off);
    for theta in [0.3, 0.5, 0.7] {
        let q = base_query.with_theta(theta);
        rows.push(evaluate(
            net,
            &queries,
            &format!("dissimilarity theta={theta}"),
            |s, t| arp_bench::routed_paths(&dissimilarity, net, (s, t), &q),
        ));
    }

    // 4. §4.2-#4 commercial filters on Penalty's raw output.
    penalty.options = PenaltyOptions {
        max_similarity: 1.0,
        penalize_reverse: true,
    };
    let commercial = FilterConfig::commercial();
    rows.push(evaluate(
        net,
        &queries,
        "penalty raw + commercial filters",
        |s, t| {
            let paths = arp_bench::routed_paths(&penalty, net, (s, t), &base_query)?;
            // The public pair `alternatives()` would grow: its labels
            // certify the windows they can.
            let mut ws = SearchSpace::new(net);
            let unpruned = &std::sync::Arc::new(Landmarks::empty());
            let w = net.weights();
            let pair =
                SearchSubstrate::build(&mut ws, net, w, unpruned, UNIT_SCALE, s, t, &base_query)
                    .ok()?;
            let k = base_query.k;
            apply_filters(&mut ws, net, net.weights(), &pair, paths, k, &commercial).ok()
        },
    ));

    // 5. Turn-aware routing (§4.2: "less zig-zag is better"): replace the
    // recommended first route with the turn-aware optimum.
    rows.push(evaluate(net, &queries, "turn-aware first route", |s, t| {
        arp_core::turn_aware_shortest_path(
            net,
            net.weights(),
            &arp_core::TurnModel::default(),
            s,
            t,
        )
        .ok()
        .map(|mut p| {
            // Price without the synthetic turn penalties for comparison.
            p.cost_ms = p.cost_under(net.weights());
            vec![p]
        })
    }));
    rows.push(evaluate(net, &queries, "plain first route", |s, t| {
        shortest_path(net, net.weights(), s, t)
            .ok()
            .map(|p| vec![p])
    }));

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Ablation study over {} queries on {}",
        queries.len(),
        city.name
    );
    let _ = writeln!(
        report,
        "\n{:<38} {:>7} {:>9} {:>10} {:>10} {:>9}",
        "configuration", "routes", "stretch", "diversity", "local-opt", "turns/km"
    );
    for r in &rows {
        let _ = writeln!(
            report,
            "{:<38} {:>7.2} {:>9.3} {:>10.3} {:>10.3} {:>9.2}",
            r.name, r.routes, r.stretch, r.diversity, r.local_opt, r.turns_per_km
        );
    }

    let _ = writeln!(report, "\nexpected shapes:");
    let _ = writeln!(
        report,
        "  - tighter similarity filters raise diversity, may lower route count"
    );
    let _ = writeln!(
        report,
        "  - higher theta raises diversity and lowers route count"
    );
    let _ = writeln!(
        report,
        "  - commercial filters raise local optimality of the set"
    );
    let _ = writeln!(
        report,
        "  - turn-aware routing cuts turns/km at a small stretch cost"
    );

    println!("{report}");
    let path = arp_bench::write_report("ablation.txt", &report);
    println!("report written to {}", path.display());
}
