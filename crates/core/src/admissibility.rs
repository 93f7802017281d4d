//! Admissible alternatives in the sense of Abraham, Delling, Goldberg &
//! Werneck, *Alternative Routes in Road Networks* — the paper's reference
//! \[2\] and the source of its ε = 1.4 "upper bound" and local-optimality
//! vocabulary.
//!
//! An alternative path P is **admissible** w.r.t. the optimal path OPT
//! when three criteria hold:
//!
//! 1. **Limited sharing**: the weighted overlap with OPT is at most γ
//!    (the alternative is "significantly different"),
//! 2. **Local optimality**: every subpath of weight ≤ T is a shortest
//!    path (no local detours),
//! 3. **Uniformly bounded stretch (UBS)**: *every* subpath of P has
//!    stretch at most 1 + ε, not just P as a whole.
//!
//! Exact verification of (2) and (3) is quadratic in path length, so both
//! are read off the sliding-window probe of
//! [`crate::quality::local_optimality`] — sound for rejection (a failed
//! probe is a genuine violation) and empirically tight for acceptance.

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::weight::{Cost, Weight};

use crate::path::Path;
use crate::quality::{unbudgeted_window_probes, LocalOptimality};
use crate::similarity::overlap_ratio;

/// The (γ, T, ε) thresholds of the admissibility definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissibilityCriteria {
    /// Maximum weighted sharing with the optimal path, in `[0, 1]`.
    pub gamma: f64,
    /// Local-optimality window as a fraction of the optimal cost.
    pub t_fraction: f64,
    /// Uniformly-bounded-stretch slack: every subpath stretch ≤ 1 + ε.
    pub epsilon_ubs: f64,
    /// Probe budget per criterion.
    pub max_probes: usize,
}

impl Default for AdmissibilityCriteria {
    fn default() -> Self {
        // The literature's common evaluation setting: γ = 0.8, T = 25 % of
        // the optimum, UBS ε = 0.25.
        AdmissibilityCriteria {
            gamma: 0.8,
            t_fraction: 0.25,
            epsilon_ubs: 0.25,
            max_probes: 12,
        }
    }
}

/// Per-path admissibility verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissibilityReport {
    /// Weighted sharing with the optimal path.
    pub sharing: f64,
    /// Sharing criterion satisfied.
    pub sharing_ok: bool,
    /// Local-optimality criterion satisfied (probed).
    pub locally_optimal: bool,
    /// Worst probed subpath stretch.
    pub max_window_stretch: f64,
    /// UBS criterion satisfied (probed).
    pub ubs_ok: bool,
}

impl AdmissibilityReport {
    /// All three criteria hold.
    pub fn admissible(&self) -> bool {
        self.sharing_ok && self.locally_optimal && self.ubs_ok
    }
}

/// Worst stretch over probed windows of roughly `window_fraction ×` path
/// cost (the UBS probe). Returns 1.0 for paths too short to probe.
pub fn max_window_stretch(
    net: &RoadNetwork,
    weights: &[Weight],
    path: &Path,
    window_fraction: f64,
    max_probes: usize,
) -> f64 {
    let probes = unbudgeted_window_probes(net, weights, path, window_fraction, max_probes);
    worst_stretch(&probes)
}

/// The worst `window cost / shortest distance` over one probe walk.
fn worst_stretch(probes: &[(Cost, Cost)]) -> f64 {
    probes
        .iter()
        .filter(|&&(_, d)| d > 0)
        .fold(1.0, |worst, &(window, d)| {
            worst.max(window as f64 / d as f64)
        })
}

/// Evaluates a path against the admissibility criteria.
pub fn admissibility(
    net: &RoadNetwork,
    weights: &[Weight],
    alternative: &Path,
    optimal: &Path,
    criteria: &AdmissibilityCriteria,
) -> AdmissibilityReport {
    let sharing = overlap_ratio(alternative, optimal, weights);
    // Criteria 2 and 3 probe the same windows: walk them once.
    let probes = unbudgeted_window_probes(
        net,
        weights,
        alternative,
        criteria.t_fraction,
        criteria.max_probes,
    );
    let stretch = worst_stretch(&probes);
    AdmissibilityReport {
        sharing,
        sharing_ok: sharing <= criteria.gamma + 1e-9,
        locally_optimal: LocalOptimality::of(&probes).is_locally_optimal(),
        max_window_stretch: stretch,
        ubs_ok: stretch <= 1.0 + criteria.epsilon_ubs + 1e-9,
    }
}

/// Fraction of a technique's alternatives (the routes after the first)
/// that are admissible. `None` when the set has no alternatives.
pub fn admissible_share(
    net: &RoadNetwork,
    weights: &[Weight],
    paths: &[Path],
    criteria: &AdmissibilityCriteria,
) -> Option<f64> {
    let (optimal, alts) = paths.split_first()?;
    if alts.is_empty() {
        return None;
    }
    let admissible = alts
        .iter()
        .filter(|p| admissibility(net, weights, p, optimal, criteria).admissible())
        .count();
    Some(admissible as f64 / alts.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{grid, plateaus};
    use crate::query::AltQuery;
    use crate::search::shortest_path;

    use arp_roadnet::csr::RoadNetwork;

    use arp_roadnet::ids::NodeId;

    fn path_via(net: &RoadNetwork, nodes: &[u32]) -> Path {
        let edges = nodes
            .windows(2)
            .map(|w| net.find_edge(NodeId(w[0]), NodeId(w[1])).unwrap())
            .collect();
        Path::from_edges(net, net.weights(), edges)
    }

    #[test]
    fn optimal_path_fails_sharing_only() {
        let net = grid(6);
        let opt = shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        let report = admissibility(
            &net,
            net.weights(),
            &opt,
            &opt,
            &AdmissibilityCriteria::default(),
        );
        assert!(!report.sharing_ok, "a copy of OPT shares 100%");
        assert!(report.locally_optimal);
        assert!(report.ubs_ok);
        assert!(!report.admissible());
    }

    #[test]
    fn disjoint_shortest_alternative_is_admissible() {
        let net = grid(6);
        // OPT along the top+right L; alternative along left+bottom L:
        // both are shortest paths, disjoint except endpoints.
        let opt = path_via(&net, &[0, 1, 2, 3, 4, 5, 11, 17, 23, 29, 35]);
        let alt = path_via(&net, &[0, 6, 12, 18, 24, 30, 31, 32, 33, 34, 35]);
        let report = admissibility(
            &net,
            net.weights(),
            &alt,
            &opt,
            &AdmissibilityCriteria::default(),
        );
        assert!(report.sharing_ok, "sharing = {}", report.sharing);
        assert!(report.locally_optimal);
        assert!(report.ubs_ok, "stretch = {}", report.max_window_stretch);
        assert!(report.admissible());
    }

    #[test]
    fn zigzag_fails_local_optimality_and_ubs() {
        let net = grid(6);
        let opt = shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        // A heavy zig-zag: down-up-down wiggles across the grid.
        let zig = path_via(
            &net,
            &[
                0, 6, 7, 1, 2, 8, 9, 3, 4, 10, 11, 17, 16, 22, 23, 29, 28, 34, 35,
            ],
        );
        let report = admissibility(
            &net,
            net.weights(),
            &zig,
            &opt,
            &AdmissibilityCriteria::default(),
        );
        assert!(!report.locally_optimal || !report.ubs_ok, "{report:?}");
        assert!(!report.admissible());
    }

    #[test]
    fn max_window_stretch_of_shortest_path_is_one() {
        let net = grid(6);
        let opt = shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        let s = max_window_stretch(&net, net.weights(), &opt, 0.3, 12);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn plateau_alternatives_are_mostly_admissible() {
        // The headline theorem of [2]: plateau paths are locally optimal;
        // with the default γ they should overwhelmingly pass.
        let net = grid(8);
        let paths = plateaus(&net, (0, 63), &AltQuery::paper()).unwrap();
        if paths.len() >= 2 {
            let share = admissible_share(
                &net,
                net.weights(),
                &paths,
                &AdmissibilityCriteria::default(),
            )
            .unwrap();
            assert!(share >= 0.5, "plateau admissible share {share}");
        }
    }

    #[test]
    fn admissible_share_edge_cases() {
        let net = grid(4);
        let opt = shortest_path(&net, net.weights(), NodeId(0), NodeId(15)).unwrap();
        assert!(
            admissible_share(&net, net.weights(), &[], &AdmissibilityCriteria::default()).is_none()
        );
        assert!(admissible_share(
            &net,
            net.weights(),
            &[opt],
            &AdmissibilityCriteria::default()
        )
        .is_none());
    }
}
