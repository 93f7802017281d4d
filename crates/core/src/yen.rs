//! Yen's k-shortest loopless paths (§2.4 of the paper).
//!
//! Included as the classic baseline: applied trivially its k paths are
//! nearly identical to each other, which is exactly why alternative-route
//! techniques exist. The experiments use it (a) to validate the other
//! algorithms' shortest paths and (b) to demonstrate the low diversity of
//! naive k-shortest-path sets.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight, CLOSED};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::path::Path;
use crate::search::SearchSpace;

/// Computes the `k` shortest loopless paths from `source` to `target`
/// in ascending cost order, under a cooperative [`SearchBudget`].
/// Returns fewer than `k` when the graph does not contain that many
/// simple paths.
///
/// A trip mid-call returns the paths found so far (still in ascending
/// cost order); inspect `budget.is_cancelled()` to tell a partial set
/// apart from a converged one. A trip before the first path is found
/// returns `Ok` with an empty set.
pub fn yen_k_shortest_paths(
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
    k: usize,
    budget: &SearchBudget,
) -> Result<Vec<Path>, CoreError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut ws = SearchSpace::new(net);
    ws.set_budget(budget.clone());
    let Some(best) = ws.base_route(net, weights, source, target)? else {
        return Ok(Vec::new());
    };

    let mut result: Vec<Path> = vec![best];
    // Candidate heap keyed by cost; set for dedup.
    let mut heap: BinaryHeap<Reverse<(Cost, Vec<u32>)>> = BinaryHeap::new();
    let mut in_heap: HashSet<Vec<u32>> = HashSet::new();

    // Mutable overlay used to remove edges by closing them.
    let mut overlay = weights.to_vec();

    'rounds: while result.len() < k {
        // Poll between candidate generations: each round runs up to
        // |prev| spur searches, so this is where a tripped budget stops
        // the algorithm with the paths found so far.
        if budget.interrupted() {
            break;
        }
        let prev = result.last().unwrap().clone();
        // Spur from every vertex of the previous path except the target.
        for i in 0..prev.edges.len() {
            let spur_node = prev.nodes[i];
            let root_edges = &prev.edges[..i];

            // Block edges that would recreate an already-found path with
            // the same root.
            let mut blocked_edges: Vec<EdgeId> = Vec::new();
            for p in &result {
                if p.edges.len() > i && p.edges[..i] == *root_edges {
                    blocked_edges.push(p.edges[i]);
                }
            }
            // Block the root's vertices (loopless requirement) by blocking
            // all their incident edges.
            let mut blocked_nodes: Vec<NodeId> = prev.nodes[..i].to_vec();
            blocked_nodes.retain(|&n| n != spur_node);

            for &e in &blocked_edges {
                overlay[e.index()] = CLOSED;
            }
            let mut blocked_node_edges: Vec<EdgeId> = Vec::new();
            for &n in &blocked_nodes {
                for e in net.out_edges(n) {
                    blocked_node_edges.push(e);
                }
                for e in net.in_edges(n) {
                    blocked_node_edges.push(e);
                }
            }
            for &e in &blocked_node_edges {
                overlay[e.index()] = CLOSED;
            }

            let spur = ws.shortest_path(net, &overlay, spur_node, target);

            // Restore the overlay.
            for &e in &blocked_edges {
                overlay[e.index()] = weights[e.index()];
            }
            for &e in &blocked_node_edges {
                overlay[e.index()] = weights[e.index()];
            }

            let spur_path = match spur {
                Ok(p) => p,
                // An interrupted spur search would silently bias the
                // candidate set; stop the whole round instead.
                Err(CoreError::Interrupted) => break 'rounds,
                // Every way on from the spur node is blocked.
                Err(_) => continue,
            };

            let mut edges = root_edges.to_vec();
            edges.extend_from_slice(&spur_path.edges);
            let total = Path::from_edges(net, weights, edges);
            if !total.is_simple() {
                continue;
            }
            let key = total.key();
            if in_heap.contains(&key) || result.iter().any(|p| p.key() == key) {
                continue;
            }
            in_heap.insert(key.clone());
            heap.push(Reverse((total.cost_ms, key)));
            // Keep the path body alongside: store in map keyed by edge ids.
            // To avoid a second map we reconstruct from the key below.
        }

        let Some(Reverse((cost, key))) = heap.pop() else {
            break;
        };
        let edges: Vec<EdgeId> = key.iter().map(|&e| EdgeId(e)).collect();
        let path = Path::from_edges(net, weights, edges);
        debug_assert_eq!(path.cost_ms, cost);
        result.push(path);
    }

    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{grid, plateaus};
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;

    #[test]
    fn costs_non_decreasing_and_paths_distinct() {
        let net = grid(5);
        let paths = yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(24),
            6,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(paths.len(), 6);
        for w in paths.windows(2) {
            assert!(w[0].cost_ms <= w[1].cost_ms);
        }
        for i in 0..paths.len() {
            assert!(paths[i].is_simple());
            assert!(paths[i].validate(&net));
            for j in i + 1..paths.len() {
                assert_ne!(paths[i].edges, paths[j].edges);
            }
        }
    }

    #[test]
    fn first_is_shortest() {
        let net = grid(4);
        let paths = yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(15),
            3,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        let direct =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(15)).unwrap();
        assert_eq!(paths[0].cost_ms, direct.cost_ms);
    }

    #[test]
    fn line_graph_has_one_path() {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_bidirectional(w[0], w[1], EdgeSpec::category(RoadCategory::Primary));
        }
        let net = b.build();
        let paths = yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(3),
            5,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn second_shortest_on_asymmetric_triangle() {
        // s -> t direct (fast), s -> m -> t (slower): exactly two simple paths.
        let mut b = GraphBuilder::new();
        let s = b.add_node(Point::new(0.0, 0.0));
        let m = b.add_node(Point::new(0.01, 0.01));
        let t = b.add_node(Point::new(0.02, 0.0));
        b.add_edge(s, t, EdgeSpec::default().with_weight(100));
        b.add_edge(s, m, EdgeSpec::default().with_weight(80));
        b.add_edge(m, t, EdgeSpec::default().with_weight(80));
        let net = b.build();
        let paths = yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(2),
            5,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].cost_ms, 100);
        assert_eq!(paths[1].cost_ms, 160);
    }

    #[test]
    fn a_path_costing_more_than_u32_max_is_still_found() {
        // The spur from the source blocks the first path's first edge; the
        // second path must come back at its real cost.
        let net = crate::fixtures::two_long_routes();
        let paths = yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(3),
            2,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        let costs: Vec<Cost> = paths.iter().map(|p| p.cost_ms).collect();
        assert_eq!(costs, [3_500_000_000, 4_400_000_000]);
    }

    #[test]
    fn yen_paths_are_highly_similar() {
        // The motivating observation from §2.4: naive k-shortest paths have
        // low diversity compared to a dedicated alternative-route method.
        let net = grid(6);
        let yen = yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(35),
            3,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        let yen_div = crate::similarity::diversity(&yen, net.weights());
        let plat = plateaus(&net, (0, 35), &crate::query::AltQuery::paper()).unwrap();
        if plat.len() >= 2 {
            let plat_div = crate::similarity::diversity(&plat, net.weights());
            assert!(plat_div >= yen_div, "plateau {plat_div} vs yen {yen_div}");
        }
    }

    #[test]
    fn budgeted_call_returns_ascending_partial() {
        let net = grid(5);
        let full = yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(24),
            6,
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(full.len(), 6);
        // Cap of one pop: the first search completes (residual charge),
        // the sticky trip stops the round loop before any spur search.
        let budget = SearchBudget::new().with_expansion_cap(1);
        let (s, t) = (NodeId(0), NodeId(24));
        let partial = yen_k_shortest_paths(&net, net.weights(), s, t, 6, &budget).unwrap();
        assert!(budget.is_cancelled());
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].edges, full[0].edges);
    }

    #[test]
    fn k_zero_empty() {
        let net = grid(3);
        assert!(yen_k_shortest_paths(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(8),
            0,
            &SearchBudget::unlimited()
        )
        .unwrap()
        .is_empty());
    }
}
