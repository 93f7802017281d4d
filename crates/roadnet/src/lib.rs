#![deny(missing_docs)]
//! # arp-roadnet
//!
//! Road-network substrate for the alternative-route-planning study.
//!
//! This crate provides the weighted directed graph model that every other
//! crate in the workspace builds on:
//!
//! * [`ids`] — strongly typed node/edge identifiers,
//! * [`geo`] — WGS-84 points, bounding boxes and haversine geometry,
//! * [`category`] — road categories with default speeds and OSM tag mapping,
//! * [`weight`] — travel-time weighting, including the paper's ×1.3
//!   non-freeway calibration (§3 of the paper),
//! * [`builder`] — incremental graph construction with de-duplication,
//! * [`csr`] — the immutable compressed-sparse-row [`RoadNetwork`],
//! * [`spatial`] — a uniform-grid nearest-vertex index ("geo-coordinate
//!   matching" in the paper's query processor),
//! * [`scc`] — strongly connected components and largest-SCC extraction,
//! * [`io`] — a compact, versioned text serialization.
//!
//! The design follows the conventions of open-source routing engines: node
//! and edge attributes live in parallel columnar arrays indexed by
//! [`ids::EdgeId`], edges are grouped by tail vertex so a node's out-edges
//! are a contiguous id range, and a second offset array provides reverse
//! adjacency for backward searches.
//!
//! ```
//! use arp_roadnet::prelude::*;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(144.96, -37.81));
//! let c = b.add_node(Point::new(144.97, -37.81));
//! b.add_edge(a, c, EdgeSpec::category(RoadCategory::Primary));
//! b.add_edge(c, a, EdgeSpec::category(RoadCategory::Primary));
//! let net = b.build();
//! assert_eq!(net.num_nodes(), 2);
//! assert_eq!(net.num_edges(), 2);
//! ```

pub mod builder;
pub mod category;
pub mod csr;
pub mod error;
pub mod geo;
pub mod ids;
pub mod io;
pub mod scc;
pub mod spatial;
pub mod weight;

pub use builder::{EdgeSpec, GraphBuilder};
pub use category::RoadCategory;
pub use csr::RoadNetwork;
pub use error::RoadNetError;
pub use geo::{haversine_m, BoundingBox, Point};
pub use ids::{EdgeId, NodeId};
pub use spatial::SpatialIndex;
pub use weight::{Weight, WeightConfig, CLOSED, INFINITY};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::builder::{EdgeSpec, GraphBuilder};
    pub use crate::category::RoadCategory;
    pub use crate::csr::RoadNetwork;
    pub use crate::error::RoadNetError;
    pub use crate::geo::{haversine_m, BoundingBox, Point};
    pub use crate::ids::{EdgeId, NodeId};
    pub use crate::spatial::SpatialIndex;
    pub use crate::weight::{Weight, WeightConfig, CLOSED, INFINITY};
}
