#![warn(missing_docs)]
//! # arp-core
//!
//! Alternative route planning techniques — the subject matter of the ICDE
//! 2022 comparative user study. The crate implements, from scratch:
//!
//! * a reusable shortest-path engine ([`search`], [`cch`]): Dijkstra
//!   with generation-stamped labels, forward/backward shortest-path trees
//!   and a customizable contraction hierarchy — all thin callers of one
//!   label-setting kernel, whose parents are canonical (smallest tight
//!   edge),
//! * the search [`substrate`] — both trees plus the base optimal route —
//!   that Plateaus, SSVP-D+ and Penalty are functions of: it is the one
//!   input every provider is handed ([`AlternativesProvider::answer`]),
//!   grown once per request by a serving layer or per call by
//!   [`AlternativesProvider::alternatives`], with the same routine, and
//!   pruned to the stretch ellipse by a column's [`landmarks`] table,
//! * the three published techniques the study compares —
//!   [`penalty`] (§2.1), [`plateau`] (§2.2) and [`dissimilarity`]
//!   (SSVP-D+, §2.3) — plus [`yen`]'s algorithm as the classic baseline
//!   (§2.4),
//! * a Google-Maps stand-in ([`provider::google_like`]) that reproduces the
//!   study's central confound: a provider optimizing on different
//!   underlying travel-time data (§4.2, Fig. 4),
//! * path [`similarity`] measures, objective [`quality`] metrics (stretch,
//!   diversity, turns, wide-road share, local optimality) and the optional
//!   [`filters`] the paper says could "easily be included" (§4.2).
//!
//! Each technique has one entry point. Plateaus, SSVP-D+ and Penalty
//! take a tree pair ([`plateau_alternatives_from_trees`],
//! [`dissimilarity_alternatives_from_trees`],
//! [`penalty_alternatives_from_base`]); a caller that holds no pair asks
//! the technique's provider, whose [`AlternativesProvider::alternatives`]
//! grows one, as the example below does. [`esx_alternatives`] and
//! [`yen_k_shortest_paths`] take the call's [`SearchBudget`].
//!
//! All algorithms run against any [`arp_roadnet::RoadNetwork`] and an
//! explicit weight overlay (`&[Weight]`), so the same code serves the
//! public OSM weights, penalized copies, and the commercial provider's
//! private traffic data.
//!
//! ```
//! use arp_core::prelude::*;
//! use arp_roadnet::prelude::*;
//!
//! // A small two-corridor network.
//! let mut b = GraphBuilder::new();
//! let s = b.add_node(Point::new(144.00, -37.00));
//! let a = b.add_node(Point::new(144.01, -37.00));
//! let c = b.add_node(Point::new(144.01, -37.01));
//! let t = b.add_node(Point::new(144.02, -37.00));
//! b.add_bidirectional(s, a, EdgeSpec::category(RoadCategory::Primary));
//! b.add_bidirectional(a, t, EdgeSpec::category(RoadCategory::Primary));
//! b.add_bidirectional(s, c, EdgeSpec::category(RoadCategory::Secondary));
//! b.add_bidirectional(c, t, EdgeSpec::category(RoadCategory::Secondary));
//! let net = b.build();
//!
//! let query = AltQuery::paper(); // k=3, ε=1.4, θ=0.5, penalty 1.4
//! let plateaus = PlateauProvider::new(&arp_obs::Registry::disabled());
//! let routes = plateaus.alternatives(&net, net.weights(), s, t, &query).unwrap();
//! assert!(!routes.is_empty());
//! ```

pub mod admissibility;
pub mod altgraph;
pub mod budget;
pub mod cch;
pub mod dissimilarity;
pub mod error;
pub mod esx;
pub mod filters;
mod kernel;
pub mod landmarks;
pub mod metrics;
pub mod pareto;
pub mod path;
pub mod penalty;
pub mod plateau;
pub mod provider;
pub mod quality;
pub mod query;
pub mod reads;
mod scratch;
pub mod search;
pub mod similarity;
pub mod substrate;
pub mod turns;
pub mod yen;

pub use admissibility::{
    admissibility, admissible_share, AdmissibilityCriteria, AdmissibilityReport,
};
pub use budget::SearchBudget;
pub use cch::{ChMetric, ChTopology};
pub use dissimilarity::{dissimilarity_alternatives_from_trees, DissimilarityOptions};
pub use error::CoreError;
pub use esx::{esx_alternatives, EsxOptions};
pub use filters::{apply_filters, FilterConfig};
pub use landmarks::Landmarks;
pub use metrics::{Funnel, SearchMetrics, SearchStats, TechniqueMetrics};
pub use pareto::{pareto_paths, ParetoOptions, ParetoRoute};
pub use path::Path;
pub use penalty::{penalty_alternatives_from_base, PenaltyOptions};
pub use plateau::{find_plateaus, plateau_alternatives_from_trees, Plateau, PlateauOptions};
pub use provider::{
    instrumented_providers, standard_providers, AlternativesProvider, DissimilarityProvider,
    GoogleLikeProvider, PenaltyProvider, PlateauProvider, ProviderKind, ProviderOutcome,
    TrafficModel,
};
pub use query::{AltQuery, Route};
pub use reads::{CellMap, CellSet, ReadCells};
pub use search::{shortest_path, Direction, SearchSpace, ShortestPathTree};
pub use substrate::{SearchSubstrate, Trip};
pub use turns::{turn_aware_shortest_path, TurnModel};
pub use yen::yen_k_shortest_paths;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::budget::SearchBudget;
    pub use crate::dissimilarity::DissimilarityOptions;
    pub use crate::error::CoreError;
    pub use crate::esx::{esx_alternatives, EsxOptions};
    pub use crate::filters::{apply_filters, FilterConfig};
    pub use crate::landmarks::Landmarks;
    pub use crate::metrics::{SearchMetrics, SearchStats, TechniqueMetrics};
    pub use crate::pareto::{pareto_paths, ParetoOptions, ParetoRoute};
    pub use crate::path::Path;
    pub use crate::penalty::PenaltyOptions;
    pub use crate::plateau::PlateauOptions;
    pub use crate::provider::{
        instrumented_providers, standard_providers, AlternativesProvider, DissimilarityProvider,
        GoogleLikeProvider, PenaltyProvider, PlateauProvider, ProviderKind, ProviderOutcome,
    };
    pub use crate::query::{AltQuery, Route};
    pub use crate::search::{shortest_path, Direction, SearchSpace};
    pub use crate::substrate::{SearchSubstrate, Trip};
    pub use crate::yen::yen_k_shortest_paths;
}

/// Test fixtures shared by the unit tests of every module.
#[cfg(test)]
pub(crate) mod fixtures {
    use arp_obs::Registry;
    use arp_roadnet::prelude::*;

    use crate::{AltQuery, AlternativesProvider, CoreError, Landmarks, Path, PlateauProvider};

    /// The empty landmark table: a build fed it grows the plain ball.
    pub(crate) fn unpruned() -> std::sync::Arc<Landmarks> {
        std::sync::Arc::new(Landmarks::empty())
    }

    /// The paths `provider` routes from `s` to `t` on `net`'s own weights
    /// ([`AlternativesProvider::alternatives`]).
    pub(crate) fn routed(
        provider: &dyn AlternativesProvider,
        net: &RoadNetwork,
        (s, t): (u32, u32),
        query: &AltQuery,
    ) -> Result<Vec<Path>, CoreError> {
        provider
            .alternatives(net, net.weights(), NodeId(s), NodeId(t), query)
            .map(|routes| routes.into_iter().map(|r| r.path).collect())
    }

    /// The plateau paths from `s` to `t` under default options.
    pub(crate) fn plateaus(
        net: &RoadNetwork,
        st: (u32, u32),
        query: &AltQuery,
    ) -> Result<Vec<Path>, CoreError> {
        routed(&PlateauProvider::new(&Registry::disabled()), net, st, query)
    }

    /// An `n`×`n` grid of bidirectional primary roads with uniform
    /// weights, nodes numbered row by row.
    pub(crate) fn grid(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..n {
            for x in 0..n {
                ids.push(b.add_node(Point::new(144.0 + x as f64 * 0.01, -37.0 - y as f64 * 0.01)));
            }
        }
        let road = || EdgeSpec::category(RoadCategory::Primary);
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if x + 1 < n {
                    b.add_bidirectional(ids[i], ids[i + 1], road());
                }
                if y + 1 < n {
                    b.add_bidirectional(ids[i], ids[i + n], road());
                }
            }
        }
        b.build()
    }

    /// Two disjoint one-way routes from node 0 to node 3: `0 → 1 → 3` of
    /// 2 × 1.75·10⁹ ms and `0 → 2 → 3` of 2 × 2.2·10⁹ ms. Every edge fits
    /// a `Weight`, yet the second route costs more than `u32::MAX`.
    pub(crate) fn two_long_routes() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let [s, a, c, t] =
            [0, 1, 2, 3].map(|i| b.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)));
        for (x, y, w) in [
            (s, a, 1_750_000_000),
            (a, t, 1_750_000_000),
            (s, c, 2_200_000_000),
            (c, t, 2_200_000_000),
        ] {
            b.add_edge(x, y, EdgeSpec::default().with_weight(w));
        }
        b.build()
    }
}
