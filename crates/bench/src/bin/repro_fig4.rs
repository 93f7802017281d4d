//! Reproduces **Fig. 4**: the data-mismatch case study. The paper found a
//! query where Google's third ("purple") route looks slower than the
//! Plateaus purple route under OpenStreetMap data, yet is *faster* when
//! Google's own data prices both — evidence that the providers disagree
//! because their underlying data differs, not because one is worse.
//!
//! This binary scans queries for exactly that double flip between the
//! Google-like provider (private traffic data) and Plateaus (public OSM
//! data), then prints the four-way cost table for the first hits.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_fig4
//! ```

use std::fmt::Write as _;

use arp_core::prelude::*;
use arp_core::similarity::similarity;
use arp_roadnet::weight::ms_to_minutes_f64;

fn main() {
    let city = arp_bench::melbourne_medium();
    let net = &city.network;
    let google = GoogleLikeProvider::new(net, arp_bench::MASTER_SEED);
    let plateaus = PlateauProvider::new(&arp_obs::Registry::disabled());
    let query = AltQuery::paper();

    let queries = arp_bench::random_queries(
        net,
        120,
        8 * 60_000,
        60 * 60_000,
        arp_bench::MASTER_SEED ^ 0xF164,
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Fig. 4 reproduction: routes that flip between data sets ({} candidate queries)",
        queries.len()
    );
    let _ = writeln!(
        report,
        "\n{:>6} {:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>9}",
        "s", "t", "G/osm(min)", "P/osm(min)", "G/priv(min)", "P/priv(min)", "overlap"
    );

    let mut flips = 0usize;
    let mut weaker = 0usize;
    for &(s, t, _fast) in &queries {
        let Ok(g_routes) = google.alternatives(net, net.weights(), s, t, &query) else {
            continue;
        };
        let Ok(p_routes) = plateaus.alternatives(net, net.weights(), s, t, &query) else {
            continue;
        };
        // Compare the last ("purple") route of each approach, like the
        // paper does; skip queries where either returns fewer than 2.
        let (Some(g_last), Some(p_last)) = (g_routes.last(), p_routes.last()) else {
            continue;
        };
        if g_routes.len() < 2 || p_routes.len() < 2 {
            continue;
        }
        let (g_path, p_path) = (&g_last.path, &p_last.path);
        if g_path.edges == p_path.edges {
            continue; // same purple route, nothing to compare
        }
        let g_osm = g_path.cost_under(net.weights());
        let p_osm = p_path.cost_under(net.weights());
        let g_priv = g_path.cost_under(google.private_weights());
        let p_priv = p_path.cost_under(google.private_weights());

        // The paper's Fig. 4 pattern: Google's route slower on OSM data but
        // faster on Google's data.
        let full_flip = g_osm > p_osm && g_priv < p_priv;
        let one_sided = g_osm > p_osm;
        if one_sided {
            weaker += 1;
        }
        if full_flip && flips < 8 {
            flips += 1;
            let _ = writeln!(
                report,
                "{:>6} {:>6} | {:>12.1} {:>12.1} | {:>12.1} {:>12.1} | {:>8.0}%",
                s.0,
                t.0,
                ms_to_minutes_f64(g_osm),
                ms_to_minutes_f64(p_osm),
                ms_to_minutes_f64(g_priv),
                ms_to_minutes_f64(p_priv),
                similarity(g_path, p_path, net.weights()) * 100.0
            );
        }
    }

    let _ = writeln!(
        report,
        "\nqueries where the Google-like purple route is slower under OSM data: {weaker}"
    );
    let _ = writeln!(
        report,
        "queries with the full Fig. 4 flip (slower on OSM data AND faster on its own data): {flips} shown (capped at 8)"
    );
    let _ = writeln!(
        report,
        "\nconclusion reproduced (at least one full flip found): {}",
        if flips > 0 { "YES" } else { "NO" }
    );

    println!("{report}");
    let path = arp_bench::write_report("fig4.txt", &report);
    println!("report written to {}", path.display());
}
