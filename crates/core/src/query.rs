//! Alternative-route query parameters and results.

use arp_roadnet::weight::Cost;

use crate::path::Path;

/// Parameters of an alternative-routes query.
///
/// Defaults are the paper's §3 settings: `k = 3` routes, penalty factor
/// **1.4**, stretch upper bound ε = **1.4** (no alternative slower than
/// 1.4× the fastest), dissimilarity threshold θ = **0.5**.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AltQuery {
    /// Number of routes to report (including the fastest).
    pub k: usize,
    /// Stretch upper bound: alternatives must cost ≤ `epsilon ×` optimum.
    pub epsilon: f64,
    /// Dissimilarity threshold θ for the Dissimilarity technique.
    pub theta: f64,
    /// Penalty factor for the Penalty technique.
    pub penalty_factor: f64,
    /// Iteration budget multiplier: iterative techniques may run up to
    /// `max_iteration_factor × k` rounds looking for admissible paths.
    pub max_iteration_factor: usize,
}

impl Default for AltQuery {
    fn default() -> Self {
        AltQuery {
            k: 3,
            epsilon: 1.4,
            theta: 0.5,
            penalty_factor: 1.4,
            max_iteration_factor: 4,
        }
    }
}

impl AltQuery {
    /// The paper's parameters (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Sets the number of routes.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the stretch bound ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the dissimilarity threshold θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the penalty factor.
    pub fn with_penalty_factor(mut self, f: f64) -> Self {
        self.penalty_factor = f;
        self
    }

    /// Maximum admissible cost given the optimum `best`.
    pub fn cost_bound(&self, best: Cost) -> Cost {
        (best as f64 * self.epsilon).floor() as Cost
    }

    /// How far a tree pair must be grown to answer this query: every
    /// vertex a technique looks at has `d_f + d_b ≤` [`AltQuery::cost_bound`],
    /// clamped to `best` so that `epsilon < 1` still reaches the target.
    pub fn search_bound(&self, best: Cost) -> Cost {
        self.cost_bound(best).max(best)
    }

    /// Total iteration budget for iterative techniques.
    pub fn iteration_budget(&self) -> usize {
        self.k * self.max_iteration_factor.max(1)
    }
}

/// A route returned by a provider: the path plus its cost on the *public*
/// (OpenStreetMap) weights — the paper's query processor always displays
/// travel times computed from OSM data regardless of which data the
/// provider itself optimized on (§3).
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// The underlying path.
    pub path: Path,
    /// Travel time on the public weights, in milliseconds.
    pub public_cost_ms: Cost,
}

impl Route {
    /// Wraps a path, pricing it under the public weights.
    pub fn new(path: Path, public_weights: &[arp_roadnet::weight::Weight]) -> Route {
        let public_cost_ms = path.cost_under(public_weights);
        Route {
            path,
            public_cost_ms,
        }
    }

    /// Travel time in whole display minutes (what the demo UI shows).
    pub fn display_minutes(&self) -> u64 {
        arp_roadnet::weight::ms_to_display_minutes(self.public_cost_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let q = AltQuery::paper();
        assert_eq!(q.k, 3);
        assert_eq!(q.epsilon, 1.4);
        assert_eq!(q.theta, 0.5);
        assert_eq!(q.penalty_factor, 1.4);
    }

    #[test]
    fn builder_methods() {
        let q = AltQuery::default()
            .with_k(5)
            .with_epsilon(1.2)
            .with_theta(0.7)
            .with_penalty_factor(1.1);
        assert_eq!(q.k, 5);
        assert_eq!(q.epsilon, 1.2);
        assert_eq!(q.theta, 0.7);
        assert_eq!(q.penalty_factor, 1.1);
    }

    #[test]
    fn cost_bound_scales() {
        let q = AltQuery::default();
        assert_eq!(q.cost_bound(1000), 1400);
        assert_eq!(q.cost_bound(0), 0);
        assert_eq!(q.search_bound(1000), 1400);
        // ε < 1 admits no alternative, but the search still reaches the target.
        let tight = q.with_epsilon(0.5);
        assert_eq!(
            (tight.cost_bound(1000), tight.search_bound(1000)),
            (500, 1000)
        );
    }

    #[test]
    fn iteration_budget_positive() {
        assert!(AltQuery::default().iteration_budget() >= 3);
        let q = AltQuery {
            max_iteration_factor: 0,
            ..Default::default()
        };
        assert_eq!(q.iteration_budget(), q.k);
    }
}
