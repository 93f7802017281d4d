#![warn(missing_docs)]
//! # arp-demo
//!
//! The paper's web-based demonstration system (§3, Figs. 2–3), rebuilt as
//! a dependency-free Rust service:
//!
//! * [`query`] — the query processor: geo-coordinate matching, the four
//!   approaches, OSM-priced travel times rounded to minutes,
//! * [`blind`] — the paper's fixed A–D labels: lane `i` is the approach
//!   `ProviderKind::ALL[i]` under `LABELS[i]`, unblinded server-side only,
//! * [`index`] — the epoch-customizable CH index tier: a per-city
//!   topology customized per traffic epoch in the background, handed
//!   out on an exact-epoch match only (no request reads it),
//! * [`store`] — the feedback form's in-memory response store (ratings,
//!   residency, comments), exported as CSV,
//! * [`server`] — the JSON API and the interactive map page ([`html`]) as
//!   a pure function of the request,
//! * [`wire`] — HTTP/1.1 on std's TCP: framing, the connection handler
//!   threads and [`serve`]'s accept loop, stopped by a [`ShutdownHandle`],
//! * [`geojson`] / [`json`] — hand-rolled serialization for the API; the
//!   `/api/route` body itself is streamed by the private `render` module
//!   from a per-network table of rendered coordinates.
//!
//! ```no_run
//! use arp_citygen::{City, Scale};
//! use arp_demo::prelude::*;
//! use std::net::TcpListener;
//! use std::sync::Arc;
//!
//! let city = arp_citygen::generate(City::Melbourne, Scale::Medium, 42);
//! let app = Arc::new(DemoApp::new(QueryProcessor::new(city.name.clone(), city.network, 42)));
//! let listener = TcpListener::bind("127.0.0.1:8080").unwrap();
//! arp_demo::serve(app, listener, ShutdownHandle::new()).unwrap();
//! ```

pub mod backend;
pub mod blind;
pub mod error;
pub mod geojson;
pub mod html;
pub mod index;
pub mod json;
pub mod query;
mod render;
pub mod server;
pub mod store;
pub mod wire;

pub use backend::DemoBackend;
pub use error::DemoError;
pub use geojson::response_to_geojson;
pub use index::IndexManager;
pub use query::{
    ApproachRoutes, PreparedQuery, QueryProcessor, QueryResponse, RouteInfo, SnappedQuery,
};
pub use server::{DemoApp, HttpResponse};
pub use store::{ResponseStore, Submission};
pub use wire::{serve, ShutdownHandle};

/// Convenient glob import.
pub mod prelude {
    pub use crate::error::DemoError;
    pub use crate::geojson::response_to_geojson;
    pub use crate::query::{QueryProcessor, QueryResponse};
    pub use crate::server::{DemoApp, HttpResponse};
    pub use crate::store::{ResponseStore, Submission};
    pub use crate::wire::{serve, ShutdownHandle};
}
