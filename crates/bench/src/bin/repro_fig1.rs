//! Reproduces **Fig. 1**: the plateau construction. Grows the forward and
//! backward shortest-path trees for one long-distance query, joins them,
//! lists the most prominent plateaus (Fig. 1c) and the alternative paths
//! built from the top-5 plateaus (Fig. 1d).
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_fig1
//! ```

use std::fmt::Write as _;

use arp_core::plateau::find_plateaus;
use arp_core::search::{Direction, SearchSpace};
use arp_core::Path;
use arp_roadnet::weight::ms_to_display_minutes;

fn main() {
    let city = arp_bench::melbourne_medium();
    let net = &city.network;

    // One long query, like Cambridge -> Manchester in the paper's figure.
    let queries =
        arp_bench::random_queries(net, 1, 25 * 60_000, 80 * 60_000, arp_bench::MASTER_SEED);
    let &(s, t, fastest) = queries
        .first()
        .expect("a long query exists at Medium scale");

    let mut ws = SearchSpace::new(net);
    let fwd = ws
        .shortest_path_tree(net, net.weights(), s, Direction::Forward)
        .unwrap();
    let bwd = ws
        .shortest_path_tree(net, net.weights(), t, Direction::Backward)
        .unwrap();

    let mut report = String::new();
    let reached_f = fwd.order().len();
    let reached_b = bwd.order().len();
    let _ = writeln!(report, "Fig. 1 reproduction: plateaus for {s} -> {t}");
    let _ = writeln!(
        report,
        "  fastest path: {} min",
        ms_to_display_minutes(fastest)
    );
    let _ = writeln!(
        report,
        "  (a) forward tree T_f reaches {reached_f} vertices"
    );
    let _ = writeln!(
        report,
        "  (b) backward tree T_b reaches {reached_b} vertices"
    );

    let mut plateaus = find_plateaus(net, &fwd, &bwd);
    plateaus.sort_by_key(|p| std::cmp::Reverse(p.weight_ms));
    let _ = writeln!(
        report,
        "  (c) {} plateaus found; ten most prominent:",
        plateaus.len()
    );
    let _ = writeln!(
        report,
        "      {:>4} {:>12} {:>10} {:>12} {:>12}",
        "#", "plateau(min)", "edges", "via(min)", "stretch"
    );
    for (i, pl) in plateaus.iter().take(10).enumerate() {
        let _ = writeln!(
            report,
            "      {:>4} {:>12.1} {:>10} {:>12} {:>12.3}",
            i + 1,
            pl.weight_ms as f64 / 60_000.0,
            pl.edges.len(),
            ms_to_display_minutes(pl.via_cost_ms),
            pl.via_cost_ms as f64 / fastest as f64
        );
    }

    // (d) the five alternative paths from the five longest plateaus.
    let _ = writeln!(report, "  (d) alternative paths from the top-5 plateaus:");
    for (i, pl) in plateaus.iter().take(5).enumerate() {
        let Some(prefix) = fwd.path_edges(net, pl.start) else {
            continue;
        };
        let Some(suffix) = bwd.path_edges(net, pl.end) else {
            continue;
        };
        let mut edges = prefix;
        edges.extend_from_slice(&pl.edges);
        edges.extend_from_slice(&suffix);
        let path = Path::from_edges(net, net.weights(), edges);
        let _ = writeln!(
            report,
            "      path {}: {:>3} min, {:>5.1} km, {} vertices, simple: {}",
            i + 1,
            ms_to_display_minutes(path.cost_ms),
            path.length_m(net) / 1000.0,
            path.nodes.len(),
            path.is_simple()
        );
    }

    // Sanity line mirroring the paper's claim: the longest plateau is the
    // shortest path itself.
    let top = &plateaus[0];
    let _ = writeln!(
        report,
        "\nclaim check — longest plateau spans the optimal route: {}",
        top.via_cost_ms == fastest && top.start == s && top.end == t
    );

    println!("{report}");
    let path = arp_bench::write_report("fig1.txt", &report);
    println!("report written to {}", path.display());
}
