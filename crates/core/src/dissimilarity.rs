//! The **Dissimilarity** technique — SSVP-D+ (§2.3 of the paper,
//! Chondrogiannis et al.).
//!
//! Single-source via-paths: grow a forward tree from `s` and a backward
//! tree from `t`; every vertex `u` induces the via-path
//! `sp(s,u) · sp(u,t)` of length `d_f(u) + d_b(u)`. Vertices are visited in
//! ascending via-path length and a via-path is admitted when its
//! dissimilarity to every already-admitted path exceeds the threshold θ
//! (0.5 in the paper), guaranteeing the result set is pairwise dissimilar
//! while keeping paths short.

use std::collections::HashSet;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{Weight, INFINITY};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::path::Path;
use crate::query::AltQuery;
use crate::search::{Direction, SearchSpace, ShortestPathTree};
use crate::similarity::dissimilarity_to_set;

/// Options specific to the SSVP-D+ algorithm.
#[derive(Clone, Copy, Debug)]
pub struct DissimilarityOptions {
    /// Skip via-paths that revisit a vertex (they contain a loop and can
    /// never be a sensible recommendation).
    pub require_simple: bool,
    /// Upper bound on how many via-nodes are examined, as a multiple of
    /// `k`; guards worst-case latency on dense graphs (the underlying
    /// problem is NP-hard and this is the standard practical cut-off).
    pub max_candidates_factor: usize,
}

impl Default for DissimilarityOptions {
    fn default() -> Self {
        DissimilarityOptions {
            require_simple: true,
            max_candidates_factor: 4000,
        }
    }
}

/// Candidate-funnel counters of one SSVP-D+ call, for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DissimilarityStats {
    /// Via-paths materialized and examined.
    pub candidates: u64,
    /// Via-paths rejected as exact duplicates of earlier ones.
    pub rejected_duplicate: u64,
    /// Via-paths rejected for revisiting a vertex.
    pub rejected_non_simple: u64,
    /// Via-paths rejected for insufficient dissimilarity to the result set.
    pub rejected_dissimilar: u64,
    /// The workspace's [`crate::SearchBudget`] tripped mid-call; the
    /// returned paths are the alternatives admitted up to that point.
    pub interrupted: bool,
}

/// Computes up to `query.k` pairwise-dissimilar paths with SSVP-D+.
pub fn dissimilarity_alternatives(
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
    query: &AltQuery,
    options: &DissimilarityOptions,
) -> Result<Vec<Path>, CoreError> {
    let mut ws = SearchSpace::new(net);
    dissimilarity_alternatives_with(&mut ws, net, weights, source, target, query, options)
}

/// Like [`dissimilarity_alternatives`] but reusing a caller workspace.
pub fn dissimilarity_alternatives_with(
    ws: &mut SearchSpace,
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
    query: &AltQuery,
    options: &DissimilarityOptions,
) -> Result<Vec<Path>, CoreError> {
    let mut stats = DissimilarityStats::default();
    dissimilarity_alternatives_observed(
        ws, net, weights, source, target, query, options, &mut stats,
    )
}

/// Like [`dissimilarity_alternatives_with`] but also reporting the
/// candidate funnel of the call into `stats` (which is reset first).
#[allow(clippy::too_many_arguments)]
pub fn dissimilarity_alternatives_observed(
    ws: &mut SearchSpace,
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
    query: &AltQuery,
    options: &DissimilarityOptions,
    stats: &mut DissimilarityStats,
) -> Result<Vec<Path>, CoreError> {
    *stats = DissimilarityStats::default();
    if query.k == 0 {
        return Ok(Vec::new());
    }
    if source == target {
        return Err(CoreError::SameSourceTarget(source));
    }
    let fwd = match ws.shortest_path_tree(net, weights, source, Direction::Forward) {
        Ok(tree) => tree,
        Err(CoreError::Interrupted) => {
            // Interrupted before anything was admitted: empty partial.
            stats.interrupted = true;
            return Ok(Vec::new());
        }
        Err(e) => return Err(e),
    };
    if !fwd.reached(target) {
        return Err(CoreError::Unreachable { source, target });
    }
    let bwd = match ws.shortest_path_tree(net, weights, target, Direction::Backward) {
        Ok(tree) => tree,
        Err(CoreError::Interrupted) => {
            // The forward tree already proves the shortest path; hand it
            // back as the (sole) partial alternative.
            stats.interrupted = true;
            let edges = fwd.path_edges(net, target).unwrap_or_default();
            if edges.is_empty() {
                return Ok(Vec::new());
            }
            return Ok(vec![Path::from_edges(net, weights, edges)]);
        }
        Err(e) => return Err(e),
    };
    Ok(sweep_via_nodes(
        net,
        weights,
        query,
        options,
        stats,
        &fwd,
        &bwd,
        ws.budget(),
    ))
}

/// Like [`dissimilarity_alternatives_observed`], but reusing a prepared
/// tree pair — typically a [`crate::substrate::SearchSubstrate`]'s —
/// instead of growing one per call. `budget` governs the sweep's
/// cooperative polls only; the tree-building cost was paid by whoever
/// grew the trees. The sweep itself is the exact code the
/// self-computing path runs, so results are byte-identical.
#[allow(clippy::too_many_arguments)]
pub fn dissimilarity_alternatives_from_trees(
    net: &RoadNetwork,
    weights: &[Weight],
    query: &AltQuery,
    options: &DissimilarityOptions,
    stats: &mut DissimilarityStats,
    fwd: &ShortestPathTree,
    bwd: &ShortestPathTree,
    budget: &SearchBudget,
) -> Result<Vec<Path>, CoreError> {
    *stats = DissimilarityStats::default();
    if query.k == 0 {
        return Ok(Vec::new());
    }
    let (source, target) = (fwd.root, bwd.root);
    if source == target {
        return Err(CoreError::SameSourceTarget(source));
    }
    debug_assert_eq!(fwd.direction, Direction::Forward);
    debug_assert_eq!(bwd.direction, Direction::Backward);
    if !fwd.reached(target) {
        return Err(CoreError::Unreachable { source, target });
    }
    Ok(sweep_via_nodes(
        net, weights, query, options, stats, fwd, bwd, budget,
    ))
}

/// The tree-independent tail of SSVP-D+: visit via-nodes in ascending
/// via-path length and admit pairwise-dissimilar paths. Shared verbatim
/// by [`dissimilarity_alternatives_observed`] (self-computed trees) and
/// [`dissimilarity_alternatives_from_trees`] (substrate-fed trees).
#[allow(clippy::too_many_arguments)]
fn sweep_via_nodes(
    net: &RoadNetwork,
    weights: &[Weight],
    query: &AltQuery,
    options: &DissimilarityOptions,
    stats: &mut DissimilarityStats,
    fwd: &ShortestPathTree,
    bwd: &ShortestPathTree,
    budget: &SearchBudget,
) -> Vec<Path> {
    let target = bwd.root;
    let best = fwd.distance(target);
    let bound = query.cost_bound(best);

    // Via-nodes in ascending via-path length, bounded by the stretch limit.
    let mut candidates: Vec<(u64, u32)> = (0..net.num_nodes() as u32)
        .filter_map(|v| {
            let df = fwd.dist[v as usize];
            let db = bwd.dist[v as usize];
            if df == INFINITY || db == INFINITY {
                return None;
            }
            let via = df + db;
            (via <= bound).then_some((via, v))
        })
        .collect();
    candidates.sort_unstable();

    let max_candidates = query
        .k
        .saturating_mul(options.max_candidates_factor)
        .max(64);
    let mut accepted: Vec<Path> = Vec::with_capacity(query.k);
    let mut seen: HashSet<Vec<u32>> = HashSet::new();

    for &(_via, v) in candidates.iter().take(max_candidates) {
        if accepted.len() >= query.k {
            break;
        }
        // Poll per candidate: materializing and comparing via-paths is
        // the expensive part of the sweep.
        if budget.interrupted() {
            stats.interrupted = true;
            break;
        }
        let v = NodeId(v);
        let Some(prefix) = fwd.path_edges(net, v) else {
            continue;
        };
        let Some(suffix) = bwd.path_edges(net, v) else {
            continue;
        };
        let mut edges = prefix;
        edges.extend_from_slice(&suffix);
        if edges.is_empty() {
            continue;
        }
        let path = Path::from_edges(net, weights, edges);
        stats.candidates += 1;
        if options.require_simple && !path.is_simple() {
            stats.rejected_non_simple += 1;
            continue;
        }
        if !seen.insert(path.key()) {
            stats.rejected_duplicate += 1;
            continue;
        }
        if accepted.is_empty() {
            // The first admissible candidate is the shortest path itself
            // (the target's via-path, or any via-node on the optimal route).
            accepted.push(path);
            continue;
        }
        if dissimilarity_to_set(&path, &accepted, weights) > query.theta {
            accepted.push(path);
        } else {
            stats.rejected_dissimilar += 1;
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use crate::similarity::similarity;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};

    use arp_roadnet::geo::Point;

    #[test]
    fn first_result_is_shortest_path() {
        let net = grid(7);
        let paths = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(48),
            &AltQuery::paper(),
            &DissimilarityOptions::default(),
        )
        .unwrap();
        assert!(!paths.is_empty());
        let direct =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(48)).unwrap();
        assert_eq!(paths[0].cost_ms, direct.cost_ms);
    }

    #[test]
    fn results_respect_theta() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &DissimilarityOptions::default(),
        )
        .unwrap();
        assert!(paths.len() >= 2, "got {}", paths.len());
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                let sim = similarity(&paths[i], &paths[j], net.weights());
                assert!(
                    sim < 1.0 - q.theta + 1e-9,
                    "pair ({i},{j}) similarity {sim} violates theta"
                );
            }
        }
    }

    #[test]
    fn results_within_stretch_bound() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &q,
            &DissimilarityOptions::default(),
        )
        .unwrap();
        let best = paths[0].cost_ms;
        for p in &paths {
            assert!(p.cost_ms <= q.cost_bound(best));
            assert!(p.validate(&net));
            assert!(p.is_simple());
        }
    }

    #[test]
    fn higher_theta_gives_fewer_or_equal_paths() {
        let net = grid(8);
        let loose = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &AltQuery::paper().with_theta(0.1).with_k(5),
            &DissimilarityOptions::default(),
        )
        .unwrap();
        let strict = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &AltQuery::paper().with_theta(0.9).with_k(5),
            &DissimilarityOptions::default(),
        )
        .unwrap();
        assert!(strict.len() <= loose.len());
    }

    #[test]
    fn via_paths_are_ascending_in_cost() {
        let net = grid(8);
        let paths = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &AltQuery::paper(),
            &DissimilarityOptions::default(),
        )
        .unwrap();
        for w in paths.windows(2) {
            assert!(w[0].cost_ms <= w[1].cost_ms, "paths not in ascending cost");
        }
    }

    #[test]
    fn observed_stats_balance_the_funnel() {
        let net = grid(8);
        let mut ws = SearchSpace::new(&net);
        let mut stats = DissimilarityStats::default();
        let paths = dissimilarity_alternatives_observed(
            &mut ws,
            &net,
            net.weights(),
            NodeId(0),
            NodeId(63),
            &AltQuery::paper(),
            &DissimilarityOptions::default(),
            &mut stats,
        )
        .unwrap();
        let rejected =
            stats.rejected_duplicate + stats.rejected_non_simple + stats.rejected_dissimilar;
        assert_eq!(stats.candidates, paths.len() as u64 + rejected);
        assert!(stats.rejected_dissimilar > 0, "theta filter never fired");
    }

    #[test]
    fn unreachable_is_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        assert!(dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(1),
            NodeId(0),
            &AltQuery::paper(),
            &DissimilarityOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn k_zero_and_k_one() {
        let net = grid(5);
        let none = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(24),
            &AltQuery::paper().with_k(0),
            &DissimilarityOptions::default(),
        )
        .unwrap();
        assert!(none.is_empty());
        let one = dissimilarity_alternatives(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(24),
            &AltQuery::paper().with_k(1),
            &DissimilarityOptions::default(),
        )
        .unwrap();
        assert_eq!(one.len(), 1);
    }
}
