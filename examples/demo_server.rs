//! Launches the web demo (Figs. 2–3): an interactive map where you pick a
//! source and a target, see the four approaches' routes blinded as A–D,
//! and submit 1–5 ratings.
//!
//! ```sh
//! cargo run --release --example demo_server [city] [port]
//! # then open http://127.0.0.1:8765
//! ```

use std::net::TcpListener;
use std::sync::Arc;

use alt_route_planner::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let city_kind: City = args
        .next()
        .map(|s| s.parse().expect("city: melbourne | dhaka | copenhagen"))
        .unwrap_or(City::Melbourne);
    let port: u16 = args
        .next()
        .map(|s| s.parse().expect("port number"))
        .unwrap_or(8765);

    let city = citygen::generate(city_kind, Scale::Medium, 42);
    println!(
        "Generated {} ({} nodes, {} edges)",
        city.name,
        city.network.num_nodes(),
        city.network.num_edges()
    );
    let processor = QueryProcessor::new(city.name.clone(), city.network, 42);
    let app = Arc::new(DemoApp::new(processor));

    let listener = TcpListener::bind(("127.0.0.1", port)).expect("bind demo port");
    println!("Demo running at http://127.0.0.1:{port}/  (Ctrl-C to stop)");
    serve(app, listener, ShutdownHandle::new()).expect("serve");
}
