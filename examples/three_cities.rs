//! Cross-city comparison on Melbourne, Dhaka and Copenhagen (the three
//! networks in the paper's title): objective route-set quality and wall
//! time per technique, over a batch of random medium-length queries.
//!
//! ```sh
//! cargo run --release --example three_cities
//! ```

use std::time::Instant;

use alt_route_planner::prelude::*;
use arp_core::quality::route_set_features;
use arp_roadnet::weight::minutes_to_ms;

fn main() {
    let query = AltQuery::paper();
    println!(
        "{:<12} {:<14} {:>7} {:>9} {:>9} {:>9} {:>10}",
        "city", "technique", "routes", "stretch", "diversity", "wide%", "ms/query"
    );

    for city_kind in City::ALL {
        let city = citygen::generate(city_kind, Scale::Small, 99);
        let net = &city.network;
        let index = SpatialIndex::build(net);
        let bb = net.bbox();

        // Deterministic spread of 12 medium-length queries.
        let mut queries = Vec::new();
        for i in 0..12u32 {
            let fx = 0.1 + 0.8 * ((i * 7 % 12) as f64 / 12.0);
            let fy = 0.1 + 0.8 * ((i * 5 % 12) as f64 / 12.0);
            let s = index
                .nearest_node(
                    net,
                    Point::new(
                        bb.min_lon + bb.width_deg() * fx,
                        bb.min_lat + bb.height_deg() * 0.1,
                    ),
                )
                .unwrap();
            let t = index
                .nearest_node(
                    net,
                    Point::new(
                        bb.min_lon + bb.width_deg() * (1.0 - fx),
                        bb.min_lat + bb.height_deg() * fy,
                    ),
                )
                .unwrap();
            if s == t {
                continue;
            }
            if let Ok(best) = shortest_path(net, net.weights(), s, t) {
                if best.cost_ms >= minutes_to_ms(3.0) {
                    queries.push((s, t, best.cost_ms));
                }
            }
        }

        for provider in standard_providers(net, 99) {
            let mut count = 0usize;
            let mut stretch_sum = 0.0;
            let mut div_sum = 0.0;
            let mut wide_sum = 0.0;
            let mut routes_sum = 0usize;
            let started = Instant::now();
            for &(s, t, best) in &queries {
                let Ok(routes) = provider.alternatives(net, net.weights(), s, t, &query) else {
                    continue;
                };
                let paths: Vec<_> = routes.iter().map(|r| r.path.clone()).collect();
                let q = route_set_features(net, net.weights(), &paths, best, query.k);
                count += 1;
                routes_sum += q.count;
                stretch_sum += q.mean_stretch;
                div_sum += q.diversity;
                wide_sum += q.wide_share;
            }
            let elapsed = started.elapsed().as_secs_f64() * 1000.0 / count.max(1) as f64;
            println!(
                "{:<12} {:<14} {:>7.1} {:>9.3} {:>9.3} {:>8.0}% {:>10.2}",
                city.name,
                provider.kind().to_string(),
                routes_sum as f64 / count.max(1) as f64,
                stretch_sum / count.max(1) as f64,
                div_sum / count.max(1) as f64,
                wide_sum / count.max(1) as f64 * 100.0,
                elapsed
            );
        }
        println!();
    }
}
