//! The **Penalty** technique (§2.1 of the paper).
//!
//! Iteratively computes shortest paths; after each iteration every edge of
//! the newly found path has its weight multiplied by the penalty factor
//! (1.4 in the paper) in a private overlay, so subsequent iterations are
//! steered onto different streets. Candidates are priced on the *original*
//! weights, and rejected when they exceed the stretch bound, duplicate an
//! earlier path, or are nearly identical to one (the additional filtering
//! criterion the paper mentions).

use std::collections::HashSet;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{apply_penalty, Weight};

use crate::error::CoreError;
use crate::path::Path;
use crate::query::AltQuery;
use crate::search::SearchSpace;
use crate::similarity::similarity;

/// Options specific to the penalty algorithm.
#[derive(Clone, Copy, Debug)]
pub struct PenaltyOptions {
    /// Reject a candidate whose similarity to an accepted path exceeds
    /// this (1.0 disables the filter — any non-duplicate is accepted).
    pub max_similarity: f64,
    /// Also penalize the reverse edge of every path edge, discouraging
    /// trivial there-and-back variations on two-way streets.
    pub penalize_reverse: bool,
}

impl Default for PenaltyOptions {
    fn default() -> Self {
        PenaltyOptions {
            max_similarity: 0.9,
            penalize_reverse: true,
        }
    }
}

/// Candidate-funnel counters of one penalty call, for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PenaltyStats {
    /// Penalized re-search iterations actually run (shortest path found).
    pub iterations: u64,
    /// Candidate paths generated, including the initial shortest path.
    pub candidates: u64,
    /// Candidates rejected for exceeding the stretch bound.
    pub rejected_bound: u64,
    /// Candidates rejected as exact duplicates of earlier paths.
    pub rejected_duplicate: u64,
    /// Candidates rejected by the similarity filter.
    pub rejected_similarity: u64,
    /// Candidates rejected for revisiting a vertex.
    pub rejected_non_simple: u64,
    /// The workspace's [`crate::SearchBudget`] tripped mid-call; the
    /// returned paths are the alternatives admitted up to that point.
    pub interrupted: bool,
}

/// Computes up to `query.k` alternative paths with the penalty method.
///
/// The first returned path is always the true shortest path. Paths are
/// returned in discovery order, which is non-decreasing penalized cost but
/// not necessarily non-decreasing true cost.
pub fn penalty_alternatives(
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
    query: &AltQuery,
    options: &PenaltyOptions,
) -> Result<Vec<Path>, CoreError> {
    let mut ws = SearchSpace::new(net);
    let mut stats = PenaltyStats::default();
    penalty_alternatives_from_base(
        &mut ws, net, weights, source, target, query, options, &mut stats, None,
    )
}

/// The technique itself: penalize the base optimal route and iterate
/// re-searches on the private overlay, all through `ws` (and its budget).
/// `base` is the prepared `sp(source, target)` under `weights` —
/// typically a [`crate::substrate::SearchSubstrate`]'s; with `None` the
/// call first finds it with one early-terminated search of its own. The
/// candidate funnel of the call is reported into `stats` (which is reset
/// first).
#[allow(clippy::too_many_arguments)]
pub fn penalty_alternatives_from_base(
    ws: &mut SearchSpace,
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
    query: &AltQuery,
    options: &PenaltyOptions,
    stats: &mut PenaltyStats,
    base: Option<&Path>,
) -> Result<Vec<Path>, CoreError> {
    *stats = PenaltyStats::default();
    if query.k == 0 {
        return Ok(Vec::new());
    }
    if source == target {
        return Err(CoreError::SameSourceTarget(source));
    }
    let Some(best) = ws.base_route(net, weights, source, target, base)? else {
        // Nothing admitted yet: an interrupted call is not an error, it
        // just has no partial routes to hand back.
        stats.interrupted = true;
        return Ok(Vec::new());
    };
    // Private penalized overlay.
    let mut overlay: Vec<Weight> = weights.to_vec();
    let bound = query.cost_bound(best.cost_ms);
    stats.candidates += 1;

    let mut accepted: Vec<Path> = Vec::with_capacity(query.k);
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    seen.insert(best.key());
    penalize(&mut overlay, net, &best, query.penalty_factor, options);
    accepted.push(best);

    let budget = query.iteration_budget();
    for _ in 1..budget {
        if accepted.len() >= query.k {
            break;
        }
        // Poll between rounds so a budget tripped by a sibling search (or
        // the deadline) stops the technique before the next re-search.
        if ws.budget().interrupted() {
            stats.interrupted = true;
            break;
        }
        let candidate = match ws.shortest_path(net, &overlay, source, target) {
            Ok(p) => p,
            Err(CoreError::Interrupted) => {
                stats.interrupted = true;
                break;
            }
            Err(_) => break,
        };
        stats.iterations += 1;
        stats.candidates += 1;
        // Price on the true weights.
        let true_cost = candidate.cost_under(weights);
        let candidate = Path {
            cost_ms: true_cost,
            ..candidate
        };
        // Penalize regardless of acceptance so the search keeps moving.
        penalize(&mut overlay, net, &candidate, query.penalty_factor, options);

        if true_cost > bound {
            // Everything from here on only gets more expensive in the
            // overlay, but true cost is not monotone; keep trying within
            // the budget only if we are still below the bound by overlay.
            stats.rejected_bound += 1;
            continue;
        }
        if !seen.insert(candidate.key()) {
            stats.rejected_duplicate += 1;
            continue;
        }
        if !candidate.is_simple() {
            stats.rejected_non_simple += 1;
            continue;
        }
        let too_similar = accepted
            .iter()
            .any(|p| similarity(&candidate, p, weights) > options.max_similarity);
        if too_similar {
            stats.rejected_similarity += 1;
            continue;
        }
        accepted.push(candidate);
    }
    Ok(accepted)
}

fn penalize(
    overlay: &mut [Weight],
    net: &RoadNetwork,
    path: &Path,
    factor: f64,
    options: &PenaltyOptions,
) {
    for &e in &path.edges {
        overlay[e.index()] = apply_penalty(overlay[e.index()], factor);
        if options.penalize_reverse {
            if let Some(r) = net.reverse_edge(e) {
                overlay[r.index()] = apply_penalty(overlay[r.index()], factor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;

    #[test]
    fn first_path_is_shortest() {
        let net = grid(6);
        let q = AltQuery::paper();
        let paths = penalty_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(35),
            &q,
            &PenaltyOptions::default(),
        )
        .unwrap();
        assert!(!paths.is_empty());
        let direct =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        assert_eq!(paths[0].cost_ms, direct.cost_ms);
    }

    #[test]
    fn produces_k_distinct_paths_on_grid() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = penalty_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &PenaltyOptions::default(),
        )
        .unwrap();
        assert_eq!(paths.len(), 3);
        for i in 0..paths.len() {
            assert!(paths[i].validate(&net));
            assert!(paths[i].is_simple());
            for j in i + 1..paths.len() {
                assert_ne!(paths[i].edges, paths[j].edges);
            }
        }
    }

    #[test]
    fn all_paths_within_stretch_bound() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = penalty_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &PenaltyOptions::default(),
        )
        .unwrap();
        let best = paths[0].cost_ms;
        for p in &paths {
            assert!(p.cost_ms <= q.cost_bound(best), "{} > bound", p.cost_ms);
            // Costs are true costs, not penalized ones.
            assert_eq!(p.cost_ms, p.cost_under(net.weights()));
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let net = grid(4);
        let q = AltQuery::paper().with_k(0);
        let paths = penalty_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(15),
            &q,
            &PenaltyOptions::default(),
        )
        .unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn k_one_returns_only_shortest() {
        let net = grid(4);
        let q = AltQuery::paper().with_k(1);
        let paths = penalty_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(15),
            &q,
            &PenaltyOptions::default(),
        )
        .unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn line_graph_has_single_alternative() {
        // On a path graph there is only one route; penalty cannot invent more.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_bidirectional(w[0], w[1], EdgeSpec::category(RoadCategory::Primary));
        }
        let net = b.build();
        let paths = penalty_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(4),
            &AltQuery::paper(),
            &PenaltyOptions::default(),
        )
        .unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn unreachable_is_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        assert!(penalty_alternatives(
            &net,
            net.weights(),
            NodeId(1),
            NodeId(0),
            &AltQuery::paper(),
            &PenaltyOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn observed_stats_balance_the_funnel() {
        let net = grid(8);
        let mut ws = SearchSpace::new(&net);
        let mut stats = PenaltyStats::default();
        let paths = penalty_alternatives_from_base(
            &mut ws,
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &AltQuery::paper(),
            &PenaltyOptions::default(),
            &mut stats,
            None,
        )
        .unwrap();
        assert!(stats.iterations >= 1);
        assert_eq!(stats.candidates, stats.iterations + 1);
        let rejected = stats.rejected_bound
            + stats.rejected_duplicate
            + stats.rejected_similarity
            + stats.rejected_non_simple;
        assert_eq!(stats.candidates, paths.len() as u64 + rejected);
    }

    #[test]
    fn interrupted_call_returns_admitted_prefix() {
        use crate::budget::SearchBudget;

        let net = grid(8);
        let q = AltQuery::paper();
        // Uninterrupted reference run.
        let full = penalty_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &PenaltyOptions::default(),
        )
        .unwrap();
        assert!(full.len() > 1);

        // Cancel after the first search: the technique must return the
        // shortest path alone and flag the interruption, not error out.
        let mut ws = SearchSpace::new(&net);
        let mut stats = PenaltyStats::default();
        // Expansion cap of one pop: the initial search completes (its
        // residual pops are only charged at the end), the cap then trips
        // sticky, and the between-rounds poll stops the second round.
        ws.set_budget(SearchBudget::new().with_expansion_cap(1));
        let partial = penalty_alternatives_from_base(
            &mut ws,
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &PenaltyOptions::default(),
            &mut stats,
            None,
        )
        .unwrap();
        assert!(stats.interrupted);
        assert!(partial.len() < full.len());
        assert!(!partial.is_empty(), "shortest path already admitted");
        // Admission order is deterministic: the partial run is a prefix.
        for (got, want) in partial.iter().zip(full.iter()) {
            assert_eq!(got.edges, want.edges);
        }
    }

    #[test]
    fn strict_similarity_filter_reduces_overlap() {
        let net = grid(8);
        let loose = PenaltyOptions {
            max_similarity: 1.0,
            penalize_reverse: true,
        };
        let strict = PenaltyOptions {
            max_similarity: 0.5,
            penalize_reverse: true,
        };
        let q = AltQuery::paper();
        let pl =
            penalty_alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q, &loose).unwrap();
        let ps =
            penalty_alternatives(&net, net.weights(), NodeId(0), NodeId(63), &q, &strict).unwrap();
        let div_loose = crate::similarity::diversity(&pl, net.weights());
        let div_strict = crate::similarity::diversity(&ps, net.weights());
        assert!(div_strict >= div_loose - 1e-9);
    }
}
