//! ESX-style k-shortest paths with limited overlap (§2.4's reference to
//! Chondrogiannis et al., SIGSPATIAL 2015).
//!
//! The algorithm grows the result set in shortest-first order. When the
//! current shortest candidate overlaps an already-chosen path beyond the
//! threshold, ESX *excludes* an edge of that overlap (here: the heaviest
//! shared edge) and recomputes, steering the search away from the shared
//! corridor while preserving optimality of what remains. Compared to the
//! Penalty technique this converges with fewer, more targeted graph
//! edits; compared to SSVP-D+ it bounds overlap asymmetrically
//! (`shared / len(candidate)`).

use std::collections::HashSet;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Weight, CLOSED};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::path::Path;
use crate::query::AltQuery;
use crate::search::SearchSpace;
use crate::similarity::overlap_ratio;

/// Options for the ESX-style algorithm.
#[derive(Clone, Copy, Debug)]
pub struct EsxOptions {
    /// Maximum admissible overlap `len(p ∩ q) / len(p)` of a new path `p`
    /// with any chosen path `q`. The k-SPwLO literature uses 0.5–0.8.
    pub max_overlap: f64,
}

impl Default for EsxOptions {
    fn default() -> Self {
        EsxOptions { max_overlap: 0.6 }
    }
}

/// Computes up to `query.k` limited-overlap paths, shortest first, under
/// a cooperative [`SearchBudget`]: find `sp(source, target)`, then grow
/// the result set, excluding the heaviest shared edge of
/// over-overlapping candidates.
///
/// A trip mid-call returns the paths chosen so far (an anytime result);
/// inspect `budget.is_cancelled()` to tell a partial set apart from a
/// converged one. A trip before the first path is found returns `Ok`
/// with an empty set.
pub fn esx_alternatives(
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
    query: &AltQuery,
    options: &EsxOptions,
    budget: &SearchBudget,
) -> Result<Vec<Path>, CoreError> {
    if query.k == 0 {
        return Ok(Vec::new());
    }
    let mut ws = SearchSpace::new(net);
    ws.set_budget(budget.clone());
    let Some(best) = ws.base_route(net, weights, source, target)? else {
        return Ok(Vec::new());
    };
    let bound = query.cost_bound(best.cost_ms);

    let mut overlay = weights.to_vec();
    let mut excluded: HashSet<EdgeId> = HashSet::new();

    let mut result: Vec<Path> = Vec::with_capacity(query.k);
    result.push(best);

    // Edge-exclusion budget: give up on a candidate slot after this many
    // exclusions (the underlying problem is NP-hard).
    const MAX_EXCLUSIONS: usize = 200;

    'outer: while result.len() < query.k {
        // Poll between candidate generations so a tripped budget stops
        // the technique before the next recompute.
        if budget.interrupted() {
            break;
        }
        let mut exclusions_this_round = 0usize;
        loop {
            let candidate = match ws.shortest_path(net, &overlay, source, target) {
                Ok(p) => p,
                // Interrupted: hand back what is already chosen.
                Err(CoreError::Interrupted) => break 'outer,
                // Graph disconnected by exclusions.
                Err(_) => break 'outer,
            };
            let true_cost = candidate.cost_under(weights);
            if true_cost > bound {
                break 'outer; // everything further is too long
            }
            let candidate = Path {
                cost_ms: true_cost,
                ..candidate
            };

            // Find the chosen path with the worst overlap.
            let mut worst: Option<(usize, f64)> = None;
            for (i, chosen) in result.iter().enumerate() {
                let o = overlap_ratio(&candidate, chosen, weights);
                if worst.is_none_or(|(_, w)| o > w) {
                    worst = Some((i, o));
                }
            }
            let (worst_idx, worst_overlap) = worst.expect("result set is non-empty");

            if worst_overlap <= options.max_overlap {
                result.push(candidate);
                continue 'outer;
            }

            // Exclude the heaviest shared edge with the worst-overlap path.
            exclusions_this_round += 1;
            if exclusions_this_round > MAX_EXCLUSIONS {
                break 'outer;
            }
            let chosen_edges: HashSet<EdgeId> = result[worst_idx].edges.iter().copied().collect();
            let Some(&heaviest) = candidate
                .edges
                .iter()
                .filter(|e| chosen_edges.contains(e) && !excluded.contains(e))
                .max_by_key(|e| weights[e.index()])
            else {
                break 'outer; // nothing left to exclude
            };
            excluded.insert(heaviest);
            overlay[heaviest.index()] = CLOSED;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;

    #[test]
    fn first_is_shortest_rest_bounded() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &EsxOptions::default(),
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert!(!paths.is_empty());
        let best =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(63)).unwrap();
        assert_eq!(paths[0].cost_ms, best.cost_ms);
        for p in &paths {
            assert!(p.validate(&net));
            assert!(p.cost_ms <= q.cost_bound(best.cost_ms));
        }
    }

    #[test]
    fn overlap_constraint_holds() {
        let net = grid(8);
        let q = AltQuery::paper();
        let opts = EsxOptions { max_overlap: 0.5 };
        let paths = esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &opts,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        for i in 1..paths.len() {
            for j in 0..i {
                let o = overlap_ratio(&paths[i], &paths[j], net.weights());
                assert!(o <= opts.max_overlap + 1e-9, "paths {j},{i}: overlap {o}");
            }
        }
        assert!(paths.len() >= 2, "a grid has low-overlap alternatives");
    }

    #[test]
    fn line_graph_returns_only_the_path() {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_bidirectional(w[0], w[1], EdgeSpec::category(RoadCategory::Primary));
        }
        let net = b.build();
        let paths = esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(4),
            &AltQuery::paper(),
            &EsxOptions::default(),
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn k_zero_and_unreachable() {
        let net = grid(4);
        assert!(esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(15),
            &AltQuery::paper().with_k(0),
            &EsxOptions::default(),
            &SearchBudget::unlimited(),
        )
        .unwrap()
        .is_empty());

        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let disconnected = b.build();
        assert!(esx_alternatives(
            &disconnected,
            disconnected.weights(),
            NodeId(1),
            NodeId(0),
            &AltQuery::paper(),
            &EsxOptions::default(),
            &SearchBudget::unlimited(),
        )
        .is_err());
    }

    #[test]
    fn a_route_costing_more_than_u32_max_is_still_found() {
        // Excluding the first route's heaviest edge closes it; the second
        // route, dearer than any single weight, must come back at its
        // real cost.
        let net = crate::fixtures::two_long_routes();
        let (s, t) = (NodeId(0), NodeId(3));
        let q = AltQuery::paper();
        let paths = esx_alternatives(
            &net,
            net.weights(),
            s,
            t,
            &q,
            &EsxOptions::default(),
            &SearchBudget::unlimited(),
        )
        .unwrap();
        let costs: Vec<u64> = paths.iter().map(|p| p.cost_ms).collect();
        assert_eq!(costs, [3_500_000_000, 4_400_000_000]);
    }

    #[test]
    fn budgeted_call_returns_partial_prefix() {
        let net = grid(8);
        let q = AltQuery::paper();
        let full = esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &EsxOptions::default(),
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert!(full.len() > 1);
        // Cap of one pop: the first search completes (residual charge),
        // the sticky trip stops the loop before the second candidate.
        let budget = SearchBudget::new().with_expansion_cap(1);
        let partial = esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &EsxOptions::default(),
            &budget,
        )
        .unwrap();
        assert!(budget.is_cancelled());
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].edges, full[0].edges);
    }

    #[test]
    fn tighter_overlap_not_more_paths() {
        let net = grid(8);
        let q = AltQuery::paper().with_k(5);
        let loose = esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &EsxOptions { max_overlap: 0.8 },
            &SearchBudget::unlimited(),
        )
        .unwrap();
        let tight = esx_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &EsxOptions { max_overlap: 0.2 },
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert!(tight.len() <= loose.len());
    }
}
