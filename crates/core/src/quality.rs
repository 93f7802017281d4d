//! Objective route-quality measures.
//!
//! The paper's §4.2 lists the factors participants perceived: detours,
//! zig-zag (turns), wide roads, and stretch relative to the fastest route.
//! This module quantifies each of them, plus the *local optimality* notion
//! of Abraham et al. that the plateau paths satisfy by construction.
//! [`route_set_features`] is the one definition of a route set's factors.
//!
//! Local optimality is one window walk, `window_probes`, answered per
//! window either by a lower bound on the endpoints' distance that meets
//! the window's cost (the commercial filters read it off a tree pair's
//! labels, see [`crate::filters`]) or by a point-to-point search. The
//! offline measures here pass a zero bound and search every window.

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::{haversine_m, turn_angle_deg};
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{Cost, Weight};

use crate::error::CoreError;
use crate::kernel::Weights;
use crate::path::Path;
use crate::search::SearchSpace;

/// Stretch of a path relative to the optimum: `cost / best` (≥ 1).
pub fn stretch(path_cost: Cost, best_cost: Cost) -> f64 {
    if best_cost == 0 {
        return 1.0;
    }
    path_cost as f64 / best_cost as f64
}

/// Number of significant turns along the path (geometry direction changes
/// of at least `threshold_deg` at interior vertices). The "less zig-zag is
/// better" perception feature.
pub fn turn_count(net: &RoadNetwork, path: &Path, threshold_deg: f64) -> usize {
    if path.nodes.len() < 3 {
        return 0;
    }
    path.nodes
        .windows(3)
        .filter(|w| {
            let a = net.point(w[0]);
            let b = net.point(w[1]);
            let c = net.point(w[2]);
            turn_angle_deg(a, b, c) >= threshold_deg
        })
        .count()
}

/// Turns per kilometre — normalizes zig-zag across route lengths.
pub fn turns_per_km(net: &RoadNetwork, path: &Path, threshold_deg: f64) -> f64 {
    let km = path.length_m(net) / 1000.0;
    if km <= 0.0 {
        return 0.0;
    }
    turn_count(net, path, threshold_deg) as f64 / km
}

/// Length-weighted share of the path on "wide" roads (category width score
/// ≥ 0.6: motorways, trunks and primary arterials). The "highest rated path
/// follows wide roads" perception feature.
pub fn wide_road_share(net: &RoadNetwork, path: &Path) -> f64 {
    let total: f64 = path.length_m(net);
    if total <= 0.0 {
        return 0.0;
    }
    let wide: f64 = path
        .edges
        .iter()
        .filter(|&&e| net.category(e).width_score() >= 0.6)
        .map(|&e| net.length_m(e) as f64)
        .sum();
    wide / total
}

/// Wiggliness: path length over great-circle distance between endpoints
/// (≥ 1). High values look like detours on a map even when the travel time
/// is good — the "apparent detours that are not" effect from §4.2.
pub fn wiggliness(net: &RoadNetwork, path: &Path) -> f64 {
    let direct = haversine_m(net.point(path.source()), net.point(path.target()));
    if direct <= 0.0 {
        return 1.0;
    }
    (path.length_m(net) / direct).max(1.0)
}

/// Result of a local-optimality probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalOptimality {
    /// Number of probed windows.
    pub windows: usize,
    /// Number of windows that were shortest paths between their endpoints.
    pub optimal_windows: usize,
}

impl LocalOptimality {
    /// Fraction of probed windows that were locally optimal (1.0 when no
    /// window was probed — short paths are trivially optimal).
    pub fn share(&self) -> f64 {
        if self.windows == 0 {
            1.0
        } else {
            self.optimal_windows as f64 / self.windows as f64
        }
    }

    /// True when every probed window is a shortest path.
    pub fn is_locally_optimal(&self) -> bool {
        self.optimal_windows == self.windows
    }

    /// Reads the measure off one [`window_probes`] walk.
    pub(crate) fn of(probes: &[(Cost, Cost)]) -> LocalOptimality {
        LocalOptimality {
            windows: probes.len(),
            optimal_windows: probes.iter().filter(|(window, d)| d == window).count(),
        }
    }
}

/// The sliding-window probe both Abraham et al. measures read: windows
/// of weight ≈ `fraction ×` path cost, slid across the path with ~50 %
/// stride, at most `max_probes` of them, so it is cheap enough for
/// interactive use. Yields `(window cost, shortest distance between its
/// endpoints)` per probe; nothing for paths too short to probe.
///
/// `lower_bound(a, b)` is a lower bound on `d(a, b)` under `weights`. A
/// window `a → b` is itself an `a → b` path, so when the bound equals its
/// cost the window is a shortest path and costs nothing; every other
/// window is answered by one point-to-point search in `ws` — under its
/// budget, into its metrics. [`CoreError::Interrupted`] when the budget
/// trips. A zero bound searches every window.
pub(crate) fn window_probes(
    ws: &mut SearchSpace,
    net: &RoadNetwork,
    weights: impl Weights,
    path: &Path,
    fraction: f64,
    max_probes: usize,
    lower_bound: impl Fn(NodeId, NodeId) -> Cost,
) -> Result<Vec<(Cost, Cost)>, CoreError> {
    let t = (path.cost_ms as f64 * fraction) as Cost;
    if t == 0 || path.edges.len() < 2 {
        return Ok(Vec::new());
    }

    // Prefix costs along the path.
    let mut prefix: Vec<Cost> = Vec::with_capacity(path.edges.len() + 1);
    prefix.push(0);
    for &e in &path.edges {
        prefix.push(prefix.last().unwrap() + weights.weight(e.0) as Cost);
    }

    let mut probes = Vec::new();
    let mut i = 0usize;
    while i < path.edges.len() && probes.len() < max_probes {
        // Find j so the window [i, j] has weight >= t (or end of path).
        let mut j = i + 1;
        while j < path.edges.len() && prefix[j] - prefix[i] < t {
            j += 1;
        }
        let (a, b) = (path.nodes[i], path.nodes[j]);
        let window = prefix[j] - prefix[i];
        if a != b {
            let d = if lower_bound(a, b) == window {
                Ok(window)
            } else {
                ws.distance_under(net, weights, a, b)
            };
            match d {
                Ok(d) => probes.push((window, d)),
                Err(e @ CoreError::Interrupted) => return Err(e),
                Err(_) => {}
            }
        }
        // ~50% stride.
        let stride = ((j - i) / 2).max(1);
        i += stride;
    }
    Ok(probes)
}

/// [`window_probes`] for offline analysis: every window searched, in a
/// fresh workspace under no budget, which nothing can interrupt.
pub(crate) fn unbudgeted_window_probes(
    net: &RoadNetwork,
    weights: &[Weight],
    path: &Path,
    fraction: f64,
    max_probes: usize,
) -> Vec<(Cost, Cost)> {
    window_probes(
        &mut SearchSpace::new(net),
        net,
        weights,
        path,
        fraction,
        max_probes,
        |_, _| 0,
    )
    .expect("an unlimited budget never interrupts")
}

/// Probes T-local optimality: windows of weight ≈ `t_fraction ×` path cost
/// are tested for being shortest paths between their endpoints. A path
/// where some window admits a shortcut contains what Abraham et al. call a
/// non-locally-optimal detour.
pub fn local_optimality(
    net: &RoadNetwork,
    weights: &[Weight],
    path: &Path,
    t_fraction: f64,
    max_probes: usize,
) -> LocalOptimality {
    LocalOptimality::of(&unbudgeted_window_probes(
        net, weights, path, t_fraction, max_probes,
    ))
}

/// The route-set factors the paper's §4.2 explains every rating by, on
/// one weight column: what the simulated raters read and what the
/// reports average. An empty set has `count: 0` and zeros throughout.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RouteSetFeatures {
    /// Number of routes shown (fewer than requested reads as a failure).
    pub count: usize,
    /// Requested number of routes.
    pub requested: usize,
    /// Mean stretch of the set relative to the optimum.
    pub mean_stretch: f64,
    /// Stretch of the *first* (recommended) route — the data-mismatch
    /// signal: a provider optimizing on other data recommends a route
    /// that is not the optimum (Fig. 4).
    pub first_stretch: f64,
    /// Mean pairwise dissimilarity (1.0 = all disjoint).
    pub diversity: f64,
    /// Worst wiggliness (route length / great-circle), the
    /// apparent-detour signal.
    pub max_wiggliness: f64,
    /// Mean turns (of at least 45°) per km.
    pub turns_per_km: f64,
    /// Mean wide-road share.
    pub wide_share: f64,
}

/// The features of `paths`, answered for `requested` routes, against
/// `weights` and the optimum's cost `best_cost`.
pub fn route_set_features(
    net: &RoadNetwork,
    weights: &[Weight],
    paths: &[Path],
    best_cost: Cost,
    requested: usize,
) -> RouteSetFeatures {
    let Some(first) = paths.first() else {
        return RouteSetFeatures {
            requested,
            ..RouteSetFeatures::default()
        };
    };
    let n = paths.len() as f64;
    let mean = |f: &dyn Fn(&Path) -> f64| paths.iter().map(f).sum::<f64>() / n;
    RouteSetFeatures {
        count: paths.len(),
        requested,
        mean_stretch: mean(&|p| stretch(p.cost_under(weights), best_cost)),
        first_stretch: stretch(first.cost_under(weights), best_cost),
        diversity: crate::similarity::diversity(paths, weights),
        max_wiggliness: paths
            .iter()
            .map(|p| wiggliness(net, p))
            .fold(0.0f64, f64::max),
        turns_per_km: mean(&|p| turns_per_km(net, p, 45.0)),
        wide_share: mean(&|p| wide_road_share(net, p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{grid, plateaus};

    use arp_roadnet::ids::NodeId;

    fn path_via(net: &RoadNetwork, nodes: &[u32]) -> Path {
        let edges = nodes
            .windows(2)
            .map(|w| net.find_edge(NodeId(w[0]), NodeId(w[1])).unwrap())
            .collect();
        Path::from_edges(net, net.weights(), edges)
    }

    #[test]
    fn stretch_basics() {
        assert_eq!(stretch(1000, 1000), 1.0);
        assert_eq!(stretch(1400, 1000), 1.4);
        assert_eq!(stretch(5, 0), 1.0);
    }

    #[test]
    fn straight_path_has_no_turns() {
        let net = grid(4);
        let p = path_via(&net, &[0, 1, 2, 3]);
        assert_eq!(turn_count(&net, &p, 45.0), 0);
        assert_eq!(turns_per_km(&net, &p, 45.0), 0.0);
    }

    #[test]
    fn staircase_path_counts_turns() {
        let net = grid(4);
        // 0 -> 1 -> 5 -> 6 -> 10: right-angle turns at 1, 5, 6.
        let p = path_via(&net, &[0, 1, 5, 6, 10]);
        assert_eq!(turn_count(&net, &p, 45.0), 3);
        assert!(turns_per_km(&net, &p, 45.0) > 0.0);
    }

    #[test]
    fn wide_share_on_primary_grid_is_one() {
        let net = grid(3);
        let p = path_via(&net, &[0, 1, 2]);
        assert!((wide_road_share(&net, &p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wiggliness_straight_vs_staircase() {
        let net = grid(4);
        let straight = path_via(&net, &[0, 1, 2, 3]);
        assert!((wiggliness(&net, &straight) - 1.0).abs() < 0.02);
        let staircase = path_via(&net, &[0, 1, 5, 6, 10]);
        assert!(wiggliness(&net, &staircase) > 1.2);
    }

    #[test]
    fn shortest_path_is_locally_optimal() {
        let net = grid(6);
        let p = crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        let lo = local_optimality(&net, net.weights(), &p, 0.3, 16);
        assert!(lo.is_locally_optimal(), "{lo:?}");
        assert_eq!(lo.share(), 1.0);
    }

    #[test]
    fn detour_path_is_not_locally_optimal() {
        let net = grid(6);
        // A path that doubles back: 0 ->1 ->7(down) ->6(left) ->12(down)... make
        // an obvious non-optimal wiggle 0->1->7->6->12->13->... to 35.
        let p = path_via(&net, &[0, 1, 7, 6, 12, 13, 14, 20, 21, 27, 28, 34, 35]);
        let lo = local_optimality(&net, net.weights(), &p, 0.3, 16);
        assert!(lo.windows > 0);
        assert!(!lo.is_locally_optimal(), "{lo:?}");
    }

    #[test]
    fn short_paths_trivially_optimal() {
        let net = grid(3);
        let p = path_via(&net, &[0, 1]);
        let lo = local_optimality(&net, net.weights(), &p, 0.25, 8);
        assert_eq!(lo.windows, 0);
        assert_eq!(lo.share(), 1.0);
    }

    #[test]
    fn route_set_features_aggregates() {
        let net = grid(6);
        let q = crate::query::AltQuery::paper();
        let paths = plateaus(&net, (0, 35), &q).unwrap();
        let best = paths[0].cost_ms;
        let f = route_set_features(&net, net.weights(), &paths, best, q.k);
        assert_eq!((f.count, f.requested), (paths.len(), q.k));
        assert!(f.mean_stretch >= 1.0 && f.mean_stretch <= 1.4 + 1e-9);
        assert_eq!(f.first_stretch, 1.0);
        assert!(f.diversity >= 0.0 && f.diversity <= 1.0);
        assert!(f.wide_share > 0.9);
    }

    #[test]
    fn a_first_route_off_the_optimum_has_first_stretch_above_one() {
        let net = grid(4);
        // The optimum runs along the top row and down one block; the
        // detour between the same corners zig-zags and comes first.
        let best = path_via(&net, &[0, 1, 2, 3, 7]);
        let detour = path_via(&net, &[0, 4, 5, 1, 2, 6, 7]);
        let (w, b) = (net.weights(), best.cost_ms);
        let f = route_set_features(&net, w, &[detour.clone(), best.clone()], b, 3);
        assert_eq!((f.count, f.requested), (2, 3));
        assert_eq!(f.first_stretch, stretch(detour.cost_ms, b));
        assert!(f.first_stretch > 1.0, "{f:?}");
        assert_eq!(f.mean_stretch, (f.first_stretch + 1.0) / 2.0);
        assert!(f.max_wiggliness >= wiggliness(&net, &detour));
        let optimum_first = route_set_features(&net, w, &[best, detour], b, 3);
        assert_eq!(optimum_first.first_stretch, 1.0);
        assert_eq!(optimum_first.mean_stretch, f.mean_stretch);
    }

    #[test]
    fn an_empty_set_has_zero_features() {
        let net = grid(3);
        let f = route_set_features(&net, net.weights(), &[], 100, 3);
        assert_eq!(
            f,
            RouteSetFeatures {
                requested: 3,
                ..RouteSetFeatures::default()
            }
        );
    }
}
