#![warn(missing_docs)]
//! # arp-osm
//!
//! The paper's **Road Network Constructor** (§3): parse OpenStreetMap XML,
//! clip it to a rectangular study area, and turn drivable ways into the
//! weighted directed road network the routing techniques run on.
//!
//! The crate is self-contained: [`xml`] is a minimal hand-rolled pull
//! parser for the OSM subset (`<node>`, `<way>`, `<nd>`, `<tag>`,
//! `<bounds>`), [`writer`] emits the same subset, [`filter`] clips to a
//! bounding rectangle, and [`constructor`] applies the paper's rules:
//!
//! * only drivable `highway=*` ways become edges,
//! * `oneway` tags control edge direction,
//! * travel time = length / maxspeed (category default when untagged),
//! * non-freeway edges get the ×1.3 calibration factor,
//! * the largest strongly connected component is kept.
//!
//! Real Geofabrik extracts are not available offline, and `arp-citygen`
//! builds its networks directly with `arp_roadnet::builder::GraphBuilder`,
//! so served networks never pass through this crate. The path the paper
//! describes is a tested equivalence instead: the tests export a generated
//! city through [`export::network_to_osm`], re-import it here and check
//! that the network survives the round trip.

pub mod constructor;
pub mod error;
pub mod export;
pub mod filter;
pub mod model;
pub mod writer;
pub mod xml;

pub use constructor::{build_road_network, ConstructorConfig, ConstructorStats};
pub use error::OsmError;
pub use filter::filter_bbox;
pub use model::{OsmData, OsmNode, OsmWay};
pub use writer::write_osm_xml;
pub use xml::parse_osm_xml;
