//! A Melbourne commute scenario: the workload the paper's introduction
//! motivates. A commuter crossing the Yarra compares the four approaches'
//! alternatives, including how the Google-like provider's reliance on its
//! own traffic data shows up (the Fig. 4 phenomenon).
//!
//! ```sh
//! cargo run --release --example melbourne_commute
//! ```

use alt_route_planner::prelude::*;
use arp_core::quality::{local_optimality, route_set_features, stretch};
use arp_core::similarity::similarity;
use arp_roadnet::weight::ms_to_display_minutes;

fn main() {
    let city = citygen::generate(City::Melbourne, Scale::Medium, 7);
    let net = &city.network;
    let index = SpatialIndex::build(net);
    let bb = net.bbox();

    // Home in the northern suburbs, office south of the river.
    let home = index
        .nearest_node(
            net,
            Point::new(
                bb.min_lon + bb.width_deg() * 0.35,
                bb.min_lat + bb.height_deg() * 0.85,
            ),
        )
        .unwrap();
    let office = index
        .nearest_node(
            net,
            Point::new(
                bb.min_lon + bb.width_deg() * 0.65,
                bb.min_lat + bb.height_deg() * 0.25,
            ),
        )
        .unwrap();

    let best = shortest_path(net, net.weights(), home, office).expect("commutable");
    println!(
        "Commute: {} -> {}  (fastest {} min, {:.1} km)\n",
        home,
        office,
        ms_to_display_minutes(best.cost_ms),
        best.length_m(net) / 1000.0
    );

    let query = AltQuery::paper();
    for provider in standard_providers(net, 7) {
        let routes = provider
            .alternatives(net, net.weights(), home, office, &query)
            .expect("routable");
        let paths: Vec<_> = routes.iter().map(|r| r.path.clone()).collect();
        let quality = route_set_features(net, net.weights(), &paths, best.cost_ms, query.k);
        let local_opt = paths
            .iter()
            .map(|p| local_optimality(net, net.weights(), p, 0.25, 8).share())
            .sum::<f64>()
            / paths.len() as f64;

        println!("== {} ==", provider.kind());
        for (i, r) in routes.iter().enumerate() {
            let overlap_with_best = similarity(&r.path, &best, net.weights());
            println!(
                "  route {}: {:>3} min  stretch {:.2}  overlap-with-fastest {:.0}%",
                i + 1,
                ms_to_display_minutes(r.public_cost_ms),
                stretch(r.public_cost_ms, best.cost_ms),
                overlap_with_best * 100.0
            );
        }
        println!(
            "  set quality: diversity {:.2}, mean stretch {:.2}, wide-road share {:.0}%, locally-optimal {:.0}%\n",
            quality.diversity,
            quality.mean_stretch,
            quality.wide_share * 100.0,
            local_opt * 100.0
        );
    }

    // The §4.2/Fig. 4 effect: price the Google-like provider's first route
    // under both data sets.
    let google = GoogleLikeProvider::new(net, 7);
    let routes = google
        .alternatives(net, net.weights(), home, office, &query)
        .unwrap();
    let first = &routes[0].path;
    println!("Data-mismatch check on the Google-like recommendation:");
    println!(
        "  under OSM data:    {} min (public optimum {} min)",
        ms_to_display_minutes(first.cost_under(net.weights())),
        ms_to_display_minutes(best.cost_ms)
    );
    println!(
        "  under private data: {} min (its own optimum)",
        ms_to_display_minutes(first.cost_under(google.private_weights()))
    );
}
