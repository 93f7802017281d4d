#![warn(missing_docs)]
//! # alt-route-planner
//!
//! A complete, from-scratch Rust reproduction of *"Comparing Alternative
//! Route Planning Techniques"* (ICDE 2022): the road-network substrate,
//! the three published alternative-route techniques (Penalty, Plateaus,
//! Dissimilarity/SSVP-D+) plus a Google-Maps-like provider, the web demo
//! system, and the user-study + statistics apparatus that regenerates the
//! paper's tables and ANOVA.
//!
//! This facade crate re-exports the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`roadnet`] | CSR road networks, geometry, categories, travel-time weights |
//! | [`citygen`] | deterministic Melbourne / Dhaka / Copenhagen generators |
//! | [`osm`] | OSM XML parse/write, rectangle filter, network constructor |
//! | [`core`] | Dijkstra/SPTs, Penalty, Plateaus, SSVP-D+, Yen, providers |
//! | [`obs`] | counters/gauges/histograms, Prometheus text exposition |
//! | [`userstudy`] | participants, sampling, calibration, Tables 1–3, ANOVA |
//! | [`demo`] | query processor, A–D blinding, HTTP server, response store |
//!
//! ## Quickstart
//!
//! ```
//! use alt_route_planner::prelude::*;
//!
//! // 1. A deterministic synthetic Melbourne.
//! let city = citygen::generate(City::Melbourne, Scale::Tiny, 42);
//! let net = &city.network;
//!
//! // 2. Pick a query with the spatial index (geo-coordinate matching).
//! let index = SpatialIndex::build(net);
//! let bb = net.bbox();
//! let s = index.nearest_node(net, Point::new(bb.min_lon + bb.width_deg() * 0.2,
//!                                            bb.min_lat + bb.height_deg() * 0.2)).unwrap();
//! let t = index.nearest_node(net, Point::new(bb.min_lon + bb.width_deg() * 0.8,
//!                                            bb.min_lat + bb.height_deg() * 0.8)).unwrap();
//!
//! // 3. Alternative routes with the paper's parameters.
//! let query = AltQuery::paper();
//! let plateaus = PlateauProvider::new(&alt_route_planner::obs::Registry::disabled());
//! let routes = plateaus.alternatives(net, net.weights(), s, t, &query).unwrap();
//! assert!(!routes.is_empty());
//! ```

pub use arp_citygen as citygen;
pub use arp_core as core;
pub use arp_demo as demo;
pub use arp_obs as obs;
pub use arp_osm as osm;
pub use arp_roadnet as roadnet;
pub use arp_userstudy as userstudy;

/// One-stop import for examples and downstream experiments.
pub mod prelude {
    pub use arp_citygen::{self as citygen, City, GeneratedCity, Scale};
    pub use arp_core::prelude::*;
    pub use arp_demo::prelude::*;
    pub use arp_roadnet::prelude::*;
    pub use arp_userstudy::prelude::*;
}
