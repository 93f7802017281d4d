//! Turn-aware routing via the edge-expanded graph.
//!
//! Study participants told the authors that "less zig-zag is better" and
//! that the best-rated routes "follow wide roads" (§4.2). Plain
//! node-based Dijkstra cannot price turns — the cost of moving through an
//! intersection depends on the *pair* of edges used. The standard fix,
//! implemented here, searches the **edge-expanded graph**: states are
//! directed edges, transitions are edge pairs sharing an intersection,
//! and each transition pays the downstream edge's travel time plus a turn
//! penalty derived from the geometry (straight-on is free; sharper turns
//! and U-turns cost more).
//!
//! The experiments use this to quantify what the paper only speculates
//! about: adding the §4.2 turn criterion to a technique trades a little
//! travel time for visibly straighter routes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::geo::turn_angle_deg;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{is_closed, Cost, Weight, INFINITY};

use crate::error::CoreError;
use crate::path::Path;

/// Turn-cost model: penalty in ms as a function of the turn angle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TurnModel {
    /// Angle (degrees) below which a direction change is free.
    pub straight_threshold_deg: f64,
    /// Penalty for an ordinary turn (threshold..135°), in ms.
    pub turn_penalty_ms: Weight,
    /// Penalty for a sharp turn / U-turn (≥ 135°), in ms.
    pub sharp_penalty_ms: Weight,
}

impl Default for TurnModel {
    fn default() -> Self {
        TurnModel {
            straight_threshold_deg: 30.0,
            turn_penalty_ms: 8_000,   // ~8 s per turn: deceleration + wait
            sharp_penalty_ms: 20_000, // U-turns are strongly discouraged
        }
    }
}

impl TurnModel {
    /// A model with no penalties (turn-aware search degenerates to plain
    /// shortest paths; used to validate the machinery).
    pub fn free() -> TurnModel {
        TurnModel {
            straight_threshold_deg: 180.0,
            turn_penalty_ms: 0,
            sharp_penalty_ms: 0,
        }
    }

    /// Penalty for continuing from `incoming` to `outgoing` at their
    /// shared intersection.
    pub fn penalty_ms(&self, net: &RoadNetwork, incoming: EdgeId, outgoing: EdgeId) -> Weight {
        debug_assert_eq!(net.head(incoming), net.tail(outgoing));
        let a = net.point(net.tail(incoming));
        let b = net.point(net.head(incoming));
        let c = net.point(net.head(outgoing));
        let angle = turn_angle_deg(a, b, c);
        if angle < self.straight_threshold_deg {
            0
        } else if angle < 135.0 {
            self.turn_penalty_ms
        } else {
            self.sharp_penalty_ms
        }
    }
}

/// Turn-aware shortest path from `source` to `target`.
///
/// Runs Dijkstra over edge states: `dist[e]` is the cheapest cost of
/// arriving at `head(e)` having just traversed `e`, including all turn
/// penalties so far. The reported [`Path::cost_ms`] **includes** turn
/// penalties; use [`Path::cost_under`] for the pure travel time. A
/// [`CLOSED`](arp_roadnet::weight::CLOSED) edge is impassable, as in every
/// other search.
pub fn turn_aware_shortest_path(
    net: &RoadNetwork,
    weights: &[Weight],
    model: &TurnModel,
    source: NodeId,
    target: NodeId,
) -> Result<Path, CoreError> {
    if source.index() >= net.num_nodes() {
        return Err(CoreError::InvalidNode(source));
    }
    if target.index() >= net.num_nodes() {
        return Err(CoreError::InvalidNode(target));
    }
    if source == target {
        return Err(CoreError::SameSourceTarget(source));
    }
    if weights.len() != net.num_edges() {
        return Err(CoreError::WeightLengthMismatch {
            expected: net.num_edges(),
            got: weights.len(),
        });
    }

    let m = net.num_edges();
    let mut dist: Vec<Cost> = vec![INFINITY; m];
    let mut parent: Vec<EdgeId> = vec![EdgeId::INVALID; m];
    let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();

    for e in net.out_edges(source) {
        if is_closed(weights[e.index()]) {
            continue;
        }
        let d = weights[e.index()] as Cost;
        if d < dist[e.index()] {
            dist[e.index()] = d;
            heap.push(Reverse((d, e.0)));
        }
    }

    let mut best_final: Option<EdgeId> = None;
    let mut best_cost = INFINITY;
    while let Some(Reverse((d, e))) = heap.pop() {
        let e = EdgeId(e);
        if d > dist[e.index()] {
            continue;
        }
        if d >= best_cost {
            break; // every remaining state is at least as expensive
        }
        let v = net.head(e);
        if v == target {
            if d < best_cost {
                best_cost = d;
                best_final = Some(e);
            }
            continue;
        }
        for next in net.out_edges(v) {
            if is_closed(weights[next.index()]) {
                continue;
            }
            // Forbid immediate backtracking over the same two-way street
            // unless the model prices it (it does, as a sharp turn).
            let nd = d + weights[next.index()] as Cost + model.penalty_ms(net, e, next) as Cost;
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                parent[next.index()] = e;
                heap.push(Reverse((nd, next.0)));
            }
        }
    }

    let Some(final_edge) = best_final else {
        return Err(CoreError::Unreachable { source, target });
    };
    let mut edges = Vec::new();
    let mut cur = final_edge;
    loop {
        edges.push(cur);
        let p = parent[cur.index()];
        if p.is_invalid() {
            break;
        }
        cur = p;
    }
    edges.reverse();
    let mut path = Path::from_edges(net, weights, edges);
    path.cost_ms = best_cost; // include turn penalties
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use crate::quality::turn_count;
    use crate::search::shortest_path;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};

    use arp_roadnet::geo::Point;
    use arp_roadnet::weight::CLOSED;

    #[test]
    fn free_model_matches_plain_dijkstra() {
        let net = grid(6);
        let model = TurnModel::free();
        for (s, t) in [(0u32, 35u32), (3, 32), (12, 23)] {
            let plain = shortest_path(&net, net.weights(), NodeId(s), NodeId(t)).unwrap();
            let aware = turn_aware_shortest_path(&net, net.weights(), &model, NodeId(s), NodeId(t))
                .unwrap();
            assert_eq!(aware.cost_ms, plain.cost_ms, "{s}->{t}");
            assert!(aware.validate(&net));
        }
    }

    #[test]
    fn penalties_reduce_turn_count() {
        // Corner-to-corner on a grid: many monotone staircase paths tie on
        // travel time; the turn-aware search must pick one with the
        // minimum number of bends (exactly 1 for an L-shaped route).
        let net = grid(7);
        let model = TurnModel::default();
        let aware =
            turn_aware_shortest_path(&net, net.weights(), &model, NodeId(0), NodeId(48)).unwrap();
        let turns = turn_count(&net, &aware, 45.0);
        assert!(turns <= 1, "turn-aware path has {turns} turns");
        // Travel time (without penalties) stays optimal here: an L-path is
        // also a shortest path.
        let plain = shortest_path(&net, net.weights(), NodeId(0), NodeId(48)).unwrap();
        assert_eq!(aware.cost_under(net.weights()), plain.cost_ms);
    }

    #[test]
    fn reported_cost_includes_penalties() {
        let net = grid(5);
        let model = TurnModel::default();
        let aware =
            turn_aware_shortest_path(&net, net.weights(), &model, NodeId(0), NodeId(24)).unwrap();
        let travel = aware.cost_under(net.weights());
        let turns = turn_count(&net, &aware, 45.0) as u64;
        assert_eq!(aware.cost_ms, travel + turns * model.turn_penalty_ms as u64);
    }

    #[test]
    fn turn_model_prices_geometry() {
        let net = grid(3);
        let model = TurnModel::default();
        // Straight through the middle row: 0 -> 1 -> 2.
        let e01 = net.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e12 = net.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(model.penalty_ms(&net, e01, e12), 0);
        // Right angle: 0 -> 1 -> 4.
        let e14 = net.find_edge(NodeId(1), NodeId(4)).unwrap();
        assert_eq!(model.penalty_ms(&net, e01, e14), model.turn_penalty_ms);
        // U-turn: 0 -> 1 -> 0.
        let e10 = net.find_edge(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(model.penalty_ms(&net, e01, e10), model.sharp_penalty_ms);
    }

    #[test]
    fn errors_match_contract() {
        let net = grid(3);
        let model = TurnModel::default();
        assert!(matches!(
            turn_aware_shortest_path(&net, net.weights(), &model, NodeId(0), NodeId(0)),
            Err(CoreError::SameSourceTarget(_))
        ));
        assert!(matches!(
            turn_aware_shortest_path(&net, net.weights(), &model, NodeId(0), NodeId(99)),
            Err(CoreError::InvalidNode(_))
        ));
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let tiny = b.build();
        assert!(matches!(
            turn_aware_shortest_path(&tiny, tiny.weights(), &model, NodeId(1), NodeId(0)),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn turn_cost_can_justify_longer_route() {
        // A zig-zag cheap route vs a straight slightly slower route: with
        // penalties the straight one wins.
        let mut b = GraphBuilder::new();
        let s = b.add_node(Point::new(0.000, 0.000));
        let z1 = b.add_node(Point::new(0.010, 0.010));
        let z2 = b.add_node(Point::new(0.020, 0.000));
        let z3 = b.add_node(Point::new(0.030, 0.010));
        let t = b.add_node(Point::new(0.040, 0.000));
        let m1 = b.add_node(Point::new(0.013, 0.000));
        let m2 = b.add_node(Point::new(0.027, 0.000));
        // Zig-zag: total weight 40_000 with 3 direction flips.
        for (a, c) in [(s, z1), (z1, z2), (z2, z3), (z3, t)] {
            b.add_bidirectional(a, c, EdgeSpec::default().with_weight(10_000));
        }
        // Straight middle road: total weight 45_000, no turns.
        for (a, c) in [(s, m1), (m1, m2), (m2, t)] {
            b.add_bidirectional(a, c, EdgeSpec::default().with_weight(15_000));
        }
        let net = b.build();
        let plain = shortest_path(&net, net.weights(), NodeId(0), NodeId(4)).unwrap();
        assert_eq!(plain.cost_ms, 40_000, "zig-zag is the time-optimal route");
        let aware = turn_aware_shortest_path(
            &net,
            net.weights(),
            &TurnModel::default(),
            NodeId(0),
            NodeId(4),
        )
        .unwrap();
        assert_eq!(
            aware.cost_under(net.weights()),
            45_000,
            "turn-aware search prefers the straight road"
        );
        assert_eq!(turn_count(&net, &aware, 45.0), 0);
    }

    /// A short corridor `s → a → t` and a long one `s → b → c → t`, the
    /// long one priced past `CLOSED` read as a number — so a search that
    /// treats a closure as a very slow road still takes the short one.
    fn two_corridors() -> (RoadNetwork, EdgeId, EdgeId) {
        let mut b = GraphBuilder::new();
        let s = b.add_node(Point::new(0.00, 0.00));
        let a = b.add_node(Point::new(0.01, 0.00));
        let t = b.add_node(Point::new(0.02, 0.00));
        let b1 = b.add_node(Point::new(0.00, 0.01));
        let c = b.add_node(Point::new(0.02, 0.01));
        for (from, to) in [(s, a), (a, t)] {
            b.add_edge(from, to, EdgeSpec::default().with_weight(10_000));
        }
        for (from, to) in [(s, b1), (b1, c), (c, t)] {
            b.add_edge(from, to, EdgeSpec::default().with_weight(2_000_000_000));
        }
        let net = b.build();
        let short_exit = net.find_edge(a, t).unwrap();
        let long_exit = net.find_edge(c, t).unwrap();
        (net, short_exit, long_exit)
    }

    #[test]
    fn closed_edge_is_impassable_not_merely_expensive() {
        let (net, short_exit, _) = two_corridors();
        let mut column = net.weights().to_vec();
        column[short_exit.index()] = CLOSED;
        for model in [TurnModel::free(), TurnModel::default()] {
            let path =
                turn_aware_shortest_path(&net, &column, &model, NodeId(0), NodeId(2)).unwrap();
            assert!(!path.edges.contains(&short_exit), "{:?}", path.edges);
            assert_eq!(path.cost_under(&column), 6_000_000_000);
        }
    }

    #[test]
    fn closed_cut_is_unreachable() {
        let (net, short_exit, long_exit) = two_corridors();
        let mut column = net.weights().to_vec();
        column[short_exit.index()] = CLOSED;
        column[long_exit.index()] = CLOSED;
        let routed =
            turn_aware_shortest_path(&net, &column, &TurnModel::default(), NodeId(0), NodeId(2));
        assert!(matches!(routed, Err(CoreError::Unreachable { .. })));
        // Closing the source's own out-edges cuts it off in the seeding loop.
        let mut column = net.weights().to_vec();
        for e in net.out_edges(NodeId(0)) {
            column[e.index()] = CLOSED;
        }
        let routed =
            turn_aware_shortest_path(&net, &column, &TurnModel::default(), NodeId(0), NodeId(2));
        assert!(matches!(routed, Err(CoreError::Unreachable { .. })));
    }
}
