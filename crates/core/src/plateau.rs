//! The **Plateaus** technique (§2.2 of the paper, Jones's Choice Routing).
//!
//! Two shortest-path trees are grown — a forward tree `T_f` from the source
//! and a backward tree `T_b` from the target. An edge common to both trees
//! (it is `v`'s forward parent *and* its tail's backward parent) lies on a
//! *plateau*; maximal chains of common edges are the plateaus. Longer
//! plateaus yield more meaningful alternatives, so the top-k plateaus by
//! length are selected and each is completed into a full path
//! `sp(s,u) + plateau(u,v) + sp(v,t)`.
//!
//! The shortest path itself is always the longest plateau, so it is always
//! the first result. Plateau paths are locally optimal by construction
//! (every subpath inside the plateau is a shortest path in both trees).

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::metrics::Funnel;
use crate::path::Path;
use crate::query::AltQuery;
use crate::search::{Direction, ShortestPathTree};
use crate::similarity::similarity;
use crate::substrate::open_pair;

/// A plateau: a maximal chain of edges common to the forward and backward
/// shortest-path trees.
#[derive(Clone, Debug)]
pub struct Plateau {
    /// Chain edges in travel order (`start` → `end`).
    pub edges: Vec<EdgeId>,
    /// First vertex of the chain (closer to the source).
    pub start: NodeId,
    /// Last vertex of the chain (closer to the target).
    pub end: NodeId,
    /// Total weight of the chain in ms.
    pub weight_ms: Cost,
    /// Cost of the full path through this plateau:
    /// `d_f(start) + weight + d_b(end)`.
    pub via_cost_ms: Cost,
}

/// Options specific to the plateau algorithm.
#[derive(Clone, Copy, Debug)]
pub struct PlateauOptions {
    /// Reject a completed path whose similarity to an already accepted one
    /// exceeds this.
    pub max_similarity: f64,
    /// Minimum plateau weight as a fraction of the shortest-path cost;
    /// micro-plateaus below this are noise.
    pub min_plateau_fraction: f64,
}

impl Default for PlateauOptions {
    fn default() -> Self {
        PlateauOptions {
            max_similarity: 0.9,
            min_plateau_fraction: 0.01,
        }
    }
}

/// Finds all plateaus of the tree pair, unsorted: in the id order of
/// their first vertices.
pub fn find_plateaus(
    net: &RoadNetwork,
    fwd: &ShortestPathTree,
    bwd: &ShortestPathTree,
) -> Vec<Plateau> {
    debug_assert_eq!(fwd.direction, Direction::Forward);
    debug_assert_eq!(bwd.direction, Direction::Backward);

    // Edge e = (u, v) is common iff fwd.parent(v) == e and bwd.parent(u) == e.
    let is_common = |e: EdgeId| -> bool {
        let u = net.tail(e);
        let v = net.head(e);
        fwd.parent(v) == e && bwd.parent(u) == e
    };

    // Each vertex has at most one outgoing common edge (its backward
    // parent) and at most one incoming common edge (its forward parent),
    // so common edges form vertex-disjoint chains.
    let out_common = |u: NodeId| -> Option<EdgeId> {
        let e = bwd.parent(u);
        (!e.is_invalid() && is_common(e)).then_some(e)
    };
    let in_common = |v: NodeId| -> Option<EdgeId> {
        let e = fwd.parent(v);
        (!e.is_invalid() && is_common(e)).then_some(e)
    };

    // Chain starts: vertices with an outgoing common edge but no incoming
    // one. Only a vertex the backward tree reached has a backward parent,
    // so its id window holds every start. Scanning the window in id order
    // — not the tree's settle order, whose ids jump about — keeps the
    // accesses local and yields the plateaus in the id order ties are
    // broken by.
    let mut plateaus = Vec::new();
    for u in bwd.id_window() {
        if out_common(u).is_none() || in_common(u).is_some() {
            continue;
        }
        let mut edges = Vec::new();
        let mut weight: Cost = 0;
        let mut cur = u;
        while let Some(e) = out_common(cur) {
            edges.push(e);
            weight += fwd.distance(net.head(e)) - fwd.distance(cur);
            cur = net.head(e);
        }
        let via_cost = fwd.distance(u) + weight + bwd.distance(cur);
        plateaus.push(Plateau {
            edges,
            start: u,
            end: cur,
            weight_ms: weight,
            via_cost_ms: via_cost,
        });
    }
    plateaus
}

/// The technique itself: a function of the forward/backward tree pair,
/// whoever grew it (typically a [`crate::SearchSubstrate`]). The trees must have
/// been grown under `weights`. `budget` governs the sweep's cooperative
/// polls; the candidate funnel of the call is reported into `funnel`
/// (which is reset first).
#[allow(clippy::too_many_arguments)]
pub fn plateau_alternatives_from_trees(
    net: &RoadNetwork,
    weights: &[Weight],
    query: &AltQuery,
    options: &PlateauOptions,
    funnel: &mut Funnel,
    fwd: &ShortestPathTree,
    bwd: &ShortestPathTree,
    budget: &SearchBudget,
) -> Result<Vec<Path>, CoreError> {
    let Some((best_cost, bound)) = open_pair(query, funnel, fwd, bwd)? else {
        return Ok(Vec::new());
    };
    let min_weight = (best_cost as f64 * options.min_plateau_fraction) as Cost;

    let mut plateaus = find_plateaus(net, fwd, bwd);
    funnel.plateaus_found = plateaus.len() as u64;
    // Rank plateaus by weight (longest first) — "longer plateaus result in
    // more meaningful alternative paths".
    plateaus.sort_by(|a, b| {
        b.weight_ms
            .cmp(&a.weight_ms)
            .then(a.via_cost_ms.cmp(&b.via_cost_ms))
    });

    let mut accepted: Vec<Path> = Vec::with_capacity(query.k);
    for pl in &plateaus {
        if accepted.len() >= query.k {
            break;
        }
        // Poll per sweep iteration: completing paths costs tree walks and
        // similarity checks, so a tripped budget stops the sweep too.
        if budget.interrupted() {
            funnel.interrupted = true;
            break;
        }
        funnel.candidates += 1;
        if pl.via_cost_ms > bound {
            funnel.rejected_bound += 1;
            continue;
        }
        if pl.weight_ms < min_weight && !accepted.is_empty() {
            funnel.rejected_short += 1;
            continue;
        }
        // Assemble sp(s, start) + plateau + sp(end, t).
        let Some(prefix) = fwd.path_edges(net, pl.start) else {
            continue;
        };
        let Some(suffix) = bwd.path_edges(net, pl.end) else {
            continue;
        };
        let mut edges = prefix;
        edges.extend_from_slice(&pl.edges);
        edges.extend_from_slice(&suffix);
        if edges.is_empty() {
            continue;
        }
        let path = Path::from_edges(net, weights, edges);
        debug_assert_eq!(path.source(), fwd.root);
        debug_assert_eq!(path.target(), bwd.root);
        if !path.is_simple() {
            funnel.rejected_non_simple += 1;
            continue;
        }
        let too_similar = accepted
            .iter()
            .any(|p| similarity(&path, p, weights) > options.max_similarity);
        if too_similar {
            funnel.rejected_similarity += 1;
            continue;
        }
        accepted.push(path);
    }

    // The plateau containing the whole shortest path guarantees at least
    // one result; keep results sorted by cost for presentation.
    accepted.sort_by_key(|p| p.cost_ms);
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{grid, plateaus};
    use crate::search::SearchSpace;
    use crate::substrate::SearchSubstrate;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;
    use arp_roadnet::weight::UNIT_SCALE;

    /// Ladder: two corridors of different cost between s and t.
    fn two_corridors() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let s = b.add_node(Point::new(0.00, 0.0));
        let a1 = b.add_node(Point::new(0.01, 0.002));
        let a2 = b.add_node(Point::new(0.02, 0.002));
        let a3 = b.add_node(Point::new(0.03, 0.002));
        let b1 = b.add_node(Point::new(0.01, -0.002));
        let b2 = b.add_node(Point::new(0.02, -0.002));
        let b3 = b.add_node(Point::new(0.03, -0.002));
        let t = b.add_node(Point::new(0.04, 0.0));
        let fast = EdgeSpec::category(RoadCategory::Primary).with_speed(80.0);
        let slow = EdgeSpec::category(RoadCategory::Primary).with_speed(60.0);
        for (x, y, spec) in [
            (s, a1, fast),
            (a1, a2, fast),
            (a2, a3, fast),
            (a3, t, fast),
            (s, b1, slow),
            (b1, b2, slow),
            (b2, b3, slow),
            (b3, t, slow),
        ] {
            b.add_bidirectional(x, y, spec);
        }
        b.build()
    }

    #[test]
    fn shortest_path_is_first_plateau_result() {
        let net = grid(6);
        let q = AltQuery::paper();
        let paths = plateaus(&net, (0, 35), &q).unwrap();
        assert!(!paths.is_empty());
        let direct =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        assert_eq!(paths[0].cost_ms, direct.cost_ms);
    }

    #[test]
    fn two_corridors_found_as_two_plateaus() {
        let net = two_corridors();
        let q = AltQuery::paper();
        let paths = plateaus(&net, (0, 7), &q).unwrap();
        assert!(paths.len() >= 2, "got {}", paths.len());
        // The two routes are nearly disjoint.
        let sim = similarity(&paths[0], &paths[1], net.weights());
        assert!(sim < 0.1, "similarity {sim}");
    }

    #[test]
    fn plateaus_are_vertex_disjoint() {
        let net = grid(7);
        let mut ws = SearchSpace::new(&net);
        let fwd = ws
            .shortest_path_tree(&net, net.weights(), NodeId(0), Direction::Forward)
            .unwrap();
        let bwd = ws
            .shortest_path_tree(&net, net.weights(), NodeId(48), Direction::Backward)
            .unwrap();
        let plateaus = find_plateaus(&net, &fwd, &bwd);
        let mut seen = std::collections::HashSet::new();
        for pl in &plateaus {
            let mut cur = pl.start;
            assert!(seen.insert(cur), "plateaus share vertex {cur}");
            for &e in &pl.edges {
                cur = net.head(e);
                assert!(seen.insert(cur), "plateaus share vertex {cur}");
            }
        }
    }

    #[test]
    fn longest_plateau_is_the_shortest_path() {
        let net = grid(6);
        let mut ws = SearchSpace::new(&net);
        let (s, t) = (NodeId(0), NodeId(35));
        let fwd = ws
            .shortest_path_tree(&net, net.weights(), s, Direction::Forward)
            .unwrap();
        let bwd = ws
            .shortest_path_tree(&net, net.weights(), t, Direction::Backward)
            .unwrap();
        let mut plateaus = find_plateaus(&net, &fwd, &bwd);
        plateaus.sort_by_key(|p| std::cmp::Reverse(p.weight_ms));
        let top = &plateaus[0];
        // The top plateau spans the whole optimal route: via cost equals
        // the shortest distance and the chain runs s -> t.
        assert_eq!(top.via_cost_ms, fwd.distance(t));
        assert_eq!(top.start, s);
        assert_eq!(top.end, t);
    }

    #[test]
    fn all_results_within_stretch_bound() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = plateaus(&net, (0, 63), &q).unwrap();
        let best = paths[0].cost_ms;
        for p in &paths {
            assert!(p.cost_ms <= q.cost_bound(best));
            assert!(p.validate(&net));
            assert!(p.is_simple());
        }
    }

    #[test]
    fn results_sorted_by_cost() {
        let net = grid(8);
        let paths = plateaus(&net, (0, 63), &AltQuery::paper()).unwrap();
        for w in paths.windows(2) {
            assert!(w[0].cost_ms <= w[1].cost_ms);
        }
    }

    #[test]
    fn observed_stats_count_plateaus_and_candidates() {
        let net = grid(8);
        let (budget, query) = (SearchBudget::unlimited(), AltQuery::paper());
        let mut ws = SearchSpace::new(&net);
        let unpruned = &crate::fixtures::unpruned();
        let (s, t) = (NodeId(0), NodeId(63));
        let sub = SearchSubstrate::build(
            &mut ws,
            &net,
            net.weights(),
            unpruned,
            UNIT_SCALE,
            s,
            t,
            &query,
        )
        .unwrap();
        let mut funnel = Funnel::default();
        let paths = plateau_alternatives_from_trees(
            &net,
            net.weights(),
            &query,
            &PlateauOptions::default(),
            &mut funnel,
            sub.forward(),
            sub.backward(),
            &budget,
        )
        .unwrap();
        // The balance itself is the `every_funnel_balances` property.
        assert!(funnel.plateaus_found >= funnel.candidates);
        assert!(funnel.candidates >= paths.len() as u64);
    }

    #[test]
    fn unreachable_is_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        assert!(matches!(
            plateaus(&net, (1, 0), &AltQuery::paper()),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn k_zero_empty() {
        let net = grid(4);
        let paths = plateaus(&net, (0, 15), &AltQuery::paper().with_k(0)).unwrap();
        assert!(paths.is_empty());
    }
}
