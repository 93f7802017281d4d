//! Additional filtering/ranking criteria (§4.2, limitation #4).
//!
//! The paper notes that the implemented techniques could "easily include"
//! extra filters — pruning near-duplicate routes, dropping routes that fail
//! local optimality, and ranking by driver-perceivable features (fewer
//! turns, wider roads). This module provides exactly those, as a composable
//! post-processing stage used by the Google-like provider and by the
//! ablation experiments.
//!
//! The local-optimality filter is handed the tree pair its candidates were
//! grown on. A window whose cost equals a difference of that pair's exact
//! labels is a shortest path — each difference is a lower bound on the
//! window's endpoint distance — so it is certified without a search; only
//! the rest are searched. Candidates read off the pair, such as Plateaus
//! routes `sp(s,u) + plateau + sp(v,t)`, leave few windows to search.

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::weight::Weight;

use crate::error::CoreError;
use crate::kernel::ClosedWhere;
use crate::path::Path;
use crate::quality::{turns_per_km, wide_road_share, window_probes, LocalOptimality};
use crate::search::SearchSpace;
use crate::similarity::similarity;
use crate::substrate::SearchSubstrate;

/// Configuration of the post-filter stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilterConfig {
    /// Drop a route whose similarity to a kept route exceeds this.
    pub max_similarity: Option<f64>,
    /// Drop routes that fail the T-local-optimality probe.
    pub require_local_optimality: bool,
    /// Window size for the local-optimality probe (fraction of route cost).
    pub lo_t_fraction: f64,
    /// Re-rank by a composite comfort score (turns + road width) instead of
    /// pure cost; the fastest route always stays first.
    pub comfort_ranking: bool,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            max_similarity: Some(0.8),
            require_local_optimality: false,
            lo_t_fraction: 0.25,
            comfort_ranking: false,
        }
    }
}

impl FilterConfig {
    /// No filtering at all (the study's baseline configuration).
    pub fn none() -> Self {
        FilterConfig {
            max_similarity: None,
            require_local_optimality: false,
            comfort_ranking: false,
            ..Default::default()
        }
    }

    /// Everything on — what the paper speculates a commercial product does.
    pub fn commercial() -> Self {
        FilterConfig {
            max_similarity: Some(0.8),
            require_local_optimality: true,
            lo_t_fraction: 0.25,
            comfort_ranking: true,
        }
    }
}

/// Applies the configured filters to a route set.
///
/// Routes must be sorted so the preferred (fastest) route is first; the
/// first route is always kept. Returns at most `k` routes.
///
/// `pair` is a tree pair grown on `weights` — typically the one the
/// candidates were read off. A local-optimality window whose cost its
/// labels prove shortest ([`SearchSubstrate`]'s lower bound equals it) is
/// certified without a search; every other window is a point-to-point
/// search in `ws` — under its budget, into its metrics. When the budget
/// trips mid-probe the error hands the unfiltered set back, so an
/// interrupted caller can serve it as its partial. The kept routes are
/// the ones searching every window would keep.
pub fn apply_filters(
    ws: &mut SearchSpace,
    net: &RoadNetwork,
    weights: &[Weight],
    pair: &SearchSubstrate,
    paths: Vec<Path>,
    k: usize,
    config: &FilterConfig,
) -> Result<Vec<Path>, (CoreError, Vec<Path>)> {
    let column = ClosedWhere {
        weights,
        closures: weights,
    };
    filter_routes(ws, net, column, pair, paths, k, config)
}

/// [`apply_filters`] on `column.weights` with `column.closures` closing
/// edges for the local-optimality searches. Routes never use a closed
/// edge, so they are priced on `column.weights` alone.
pub(crate) fn filter_routes(
    ws: &mut SearchSpace,
    net: &RoadNetwork,
    column: ClosedWhere<'_>,
    pair: &SearchSubstrate,
    mut paths: Vec<Path>,
    k: usize,
    config: &FilterConfig,
) -> Result<Vec<Path>, (CoreError, Vec<Path>)> {
    let weights = column.weights;
    if paths.is_empty() || k == 0 {
        paths.truncate(k);
        return Ok(paths);
    }

    let mut keep = vec![false; paths.len()];
    let mut kept_so_far = 0;
    for (i, path) in paths.iter().enumerate() {
        if kept_so_far >= k && !config.comfort_ranking {
            break;
        }
        if i > 0 {
            if let Some(max_sim) = config.max_similarity {
                let mut kept = paths.iter().zip(&keep).filter(|(_, &keep)| keep);
                if kept.any(|(p, _)| similarity(path, p, weights) > max_sim) {
                    continue;
                }
            }
            if config.require_local_optimality {
                let fraction = config.lo_t_fraction;
                let bound = |a, b| pair.distance_lower_bound(a, b);
                match window_probes(ws, net, column, path, fraction, 8, bound) {
                    Ok(probes) if LocalOptimality::of(&probes).is_locally_optimal() => {}
                    Ok(_) => continue,
                    Err(e) => return Err((e, paths)),
                }
            }
        }
        keep[i] = true;
        kept_so_far += 1;
    }
    let mut kept: Vec<Path> = paths
        .into_iter()
        .zip(keep)
        .filter_map(|(path, keep)| keep.then_some(path))
        .collect();

    if config.comfort_ranking && kept.len() > 2 {
        // Keep the fastest first; order the rest by comfort-adjusted cost:
        // a penalty per turn per km and a bonus for the wide-road share.
        const TURNS_WEIGHT: f64 = 0.05;
        const WIDTH_WEIGHT: f64 = 0.15;
        let best_cost = kept[0].cost_ms.max(1);
        let score = |p: &Path| -> f64 {
            let rel_cost = p.cost_under(weights) as f64 / best_cost as f64;
            rel_cost + TURNS_WEIGHT * turns_per_km(net, p, 45.0)
                - WIDTH_WEIGHT * wide_road_share(net, p)
        };
        let mut rest: Vec<(f64, Path)> = kept.drain(1..).map(|p| (score(&p), p)).collect();
        rest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        kept.extend(rest.into_iter().map(|(_, p)| p));
    }

    kept.truncate(k);
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use arp_roadnet::weight::UNIT_SCALE;

    use arp_roadnet::ids::NodeId;

    fn path_via(net: &RoadNetwork, nodes: &[u32]) -> Path {
        let edges = nodes
            .windows(2)
            .map(|w| net.find_edge(NodeId(w[0]), NodeId(w[1])).unwrap())
            .collect();
        Path::from_edges(net, net.weights(), edges)
    }

    /// The corner-to-corner tree pair of a grid on its own weights, grown
    /// in `ws`.
    fn corner_pair(ws: &mut SearchSpace, net: &RoadNetwork) -> SearchSubstrate {
        let corner = NodeId(net.num_nodes() as u32 - 1);
        let query = crate::query::AltQuery::paper();
        let unpruned = &crate::fixtures::unpruned();
        SearchSubstrate::build(
            ws,
            net,
            net.weights(),
            unpruned,
            UNIT_SCALE,
            NodeId(0),
            corner,
            &query,
        )
        .unwrap()
    }

    /// The filters applied on the network's own weights in a fresh,
    /// unbudgeted workspace.
    fn filtered(net: &RoadNetwork, paths: Vec<Path>, k: usize, cfg: &FilterConfig) -> Vec<Path> {
        let mut ws = SearchSpace::new(net);
        let pair = corner_pair(&mut ws, net);
        apply_filters(&mut ws, net, net.weights(), &pair, paths, k, cfg).unwrap()
    }

    #[test]
    fn similarity_filter_drops_near_duplicates() {
        let net = grid(4);
        let a = path_via(&net, &[0, 1, 2, 3, 7, 11, 15]);
        let b = path_via(&net, &[0, 1, 2, 3, 7, 11, 15]); // duplicate
        let c = path_via(&net, &[0, 4, 8, 12, 13, 14, 15]); // disjoint
        let cfg = FilterConfig::default();
        let kept = filtered(&net, vec![a, b, c.clone()], 3, &cfg);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[1].edges, c.edges);
    }

    #[test]
    fn first_route_always_kept() {
        let net = grid(4);
        // Even a wildly detouring first route survives: it is the anchor.
        let weird = path_via(&net, &[0, 1, 5, 4, 8, 9, 13, 14, 15]);
        let cfg = FilterConfig::commercial();
        let kept = filtered(&net, vec![weird.clone()], 3, &cfg);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].edges, weird.edges);
    }

    #[test]
    fn local_optimality_filter_drops_detours() {
        let net = grid(6);
        let best =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        // A zig-zag detour route.
        let detour = path_via(
            &net,
            &[0, 1, 7, 6, 12, 13, 19, 18, 24, 25, 31, 32, 33, 34, 35],
        );
        let cfg = FilterConfig {
            max_similarity: None,
            require_local_optimality: true,
            ..Default::default()
        };
        let kept = filtered(&net, vec![best.clone(), detour], 3, &cfg);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].edges, best.edges);
    }

    #[test]
    fn a_trip_mid_probe_hands_the_unfiltered_set_back() {
        use crate::budget::SearchBudget;

        let net = grid(6);
        let mut ws = SearchSpace::new(&net);
        let pair = corner_pair(&mut ws, &net);
        let best = pair.base_route().clone();
        // Its first window doubles back (0 → 1 → 7 → 6): the labels bound
        // d(0, 6) by one block, below the window's cost, so only a search
        // can decide it.
        let detour = path_via(&net, &[0, 1, 7, 6, 12, 18, 24, 30, 31, 32, 33, 34, 35]);
        let paths = vec![best, detour];
        let budget = SearchBudget::new();
        budget.cancel();
        ws.set_budget(budget);
        let cfg = FilterConfig {
            max_similarity: None,
            ..FilterConfig::commercial()
        };
        let Err((CoreError::Interrupted, unfiltered)) =
            apply_filters(&mut ws, &net, net.weights(), &pair, paths.clone(), 3, &cfg)
        else {
            panic!("the detour window's probe must trip");
        };
        assert_eq!(unfiltered, paths);
        // Without probes to run, a tripped budget is never consulted.
        let none = FilterConfig::none();
        let kept = apply_filters(&mut ws, &net, net.weights(), &pair, paths, 3, &none);
        assert_eq!(kept.unwrap().len(), 2);
    }

    #[test]
    fn a_route_the_labels_certify_never_polls_a_tripped_budget() {
        use crate::budget::SearchBudget;

        let net = grid(6);
        let mut ws = SearchSpace::new(&net);
        let pair = corner_pair(&mut ws, &net);
        // Another corner-to-corner shortest path: every window's cost is
        // the difference of its endpoints' forward labels.
        let other = path_via(&net, &[0, 6, 12, 18, 24, 30, 31, 32, 33, 34, 35]);
        let paths = vec![pair.base_route().clone(), other];
        let budget = SearchBudget::new();
        budget.cancel();
        ws.set_budget(budget);
        let cfg = FilterConfig {
            max_similarity: None,
            ..FilterConfig::commercial()
        };
        let kept = apply_filters(&mut ws, &net, net.weights(), &pair, paths.clone(), 3, &cfg);
        assert_eq!(kept.unwrap(), paths);
        assert_eq!(ws.last_stats().budget_checks, 0, "no window was searched");
    }

    #[test]
    fn no_filter_config_keeps_everything_up_to_k() {
        let net = grid(4);
        let a = path_via(&net, &[0, 1, 2, 3]);
        let b = path_via(&net, &[0, 1, 2, 3]);
        let cfg = FilterConfig::none();
        let kept = filtered(&net, vec![a, b], 5, &cfg);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn truncates_to_k() {
        let net = grid(4);
        let paths: Vec<Path> = vec![
            path_via(&net, &[0, 1, 2, 3]),
            path_via(&net, &[0, 4, 5, 6, 7]),
            path_via(&net, &[0, 4, 8, 12, 13]),
        ];
        let kept = filtered(&net, paths, 2, &FilterConfig::none());
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn comfort_ranking_prefers_straight_routes() {
        let net = grid(6);
        let best = crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(5)).unwrap();
        // Two alternatives of identical cost structure: a straight-ish one
        // and a staircase, both 0 -> 5 avoiding the direct row partially.
        let staircase = path_via(&net, &[0, 6, 7, 1, 2, 8, 9, 3, 4, 10, 11, 5]);
        let straight = path_via(&net, &[0, 6, 7, 8, 9, 10, 11, 5]);
        let cfg = FilterConfig {
            max_similarity: None,
            require_local_optimality: false,
            comfort_ranking: true,
            ..Default::default()
        };
        let kept = filtered(
            &net,
            vec![best.clone(), staircase.clone(), straight.clone()],
            3,
            &cfg,
        );
        assert_eq!(kept[0].edges, best.edges);
        // The straighter alternative should rank before the staircase.
        assert_eq!(kept[1].edges, straight.edges, "comfort ranking failed");
    }

    #[test]
    fn empty_and_k_zero() {
        let net = grid(3);
        assert!(filtered(&net, vec![], 3, &FilterConfig::default()).is_empty());
        let p = path_via(&net, &[0, 1]);
        assert!(filtered(&net, vec![p], 0, &FilterConfig::default()).is_empty());
    }
}
