//! Paths through a road network.
//!
//! A [`Path`] stores both its vertex sequence and its edge sequence, plus
//! its cost under the weights it was computed with. Costs can be
//! re-evaluated under a different weight overlay with [`Path::cost_under`]
//! — that is exactly what the paper's query processor does when it prices
//! Google's routes with OpenStreetMap data (§3, §4.2).

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight};

use crate::kernel::Weights;

/// A simple (or not) directed path through a road network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    /// Vertex sequence; `nodes.len() == edges.len() + 1`.
    pub nodes: Vec<NodeId>,
    /// Edge sequence.
    pub edges: Vec<EdgeId>,
    /// Total cost in ms under the weights the path was computed with.
    pub cost_ms: Cost,
}

impl Path {
    /// Builds a path from an edge sequence, deriving nodes and cost.
    ///
    /// # Panics
    /// Panics in debug builds if consecutive edges do not join up.
    pub fn from_edges(net: &RoadNetwork, weights: &[Weight], edges: Vec<EdgeId>) -> Path {
        Self::from_edges_under(net, weights, edges)
    }

    /// [`Path::from_edges`] priced under any [`Weights`].
    pub(crate) fn from_edges_under(
        net: &RoadNetwork,
        weights: impl Weights,
        edges: Vec<EdgeId>,
    ) -> Path {
        assert!(!edges.is_empty(), "a path needs at least one edge");
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(net.tail(edges[0]));
        let mut cost: Cost = 0;
        for &e in &edges {
            debug_assert_eq!(net.tail(e), *nodes.last().unwrap(), "edges must join up");
            nodes.push(net.head(e));
            cost += weights.weight(e.0) as Cost;
        }
        Path {
            nodes,
            edges,
            cost_ms: cost,
        }
    }

    /// The source vertex.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The target vertex.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the path has no edges (never produced by the algorithms,
    /// but required pairing for `len`).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total cost under a different weight overlay.
    pub fn cost_under(&self, weights: &[Weight]) -> Cost {
        self.edges.iter().map(|e| weights[e.index()] as Cost).sum()
    }

    /// Total geometric length in metres.
    pub fn length_m(&self, net: &RoadNetwork) -> f64 {
        self.edges.iter().map(|&e| net.length_m(e) as f64).sum()
    }

    /// True if no vertex repeats (loopless path).
    pub fn is_simple(&self) -> bool {
        let mut seen: Vec<NodeId> = self.nodes.clone();
        seen.sort_unstable();
        seen.windows(2).all(|w| w[0] != w[1])
    }

    /// Validates internal consistency against the network.
    pub fn validate(&self, net: &RoadNetwork) -> bool {
        if self.nodes.len() != self.edges.len() + 1 {
            return false;
        }
        for (i, &e) in self.edges.iter().enumerate() {
            if e.index() >= net.num_edges() {
                return false;
            }
            if net.tail(e) != self.nodes[i] || net.head(e) != self.nodes[i + 1] {
                return false;
            }
        }
        true
    }

    /// A canonical hashable key for de-duplicating identical paths.
    pub fn key(&self) -> Vec<u32> {
        self.edges.iter().map(|e| e.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;

    /// Line 0 -> 1 -> 2 -> 3 with unit-ish weights.
    fn line() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_bidirectional(w[0], w[1], EdgeSpec::category(RoadCategory::Primary));
        }
        b.build()
    }

    fn edge(net: &RoadNetwork, t: u32, h: u32) -> EdgeId {
        net.find_edge(NodeId(t), NodeId(h)).unwrap()
    }

    #[test]
    fn from_edges_builds_consistent_path() {
        let net = line();
        let edges = vec![edge(&net, 0, 1), edge(&net, 1, 2), edge(&net, 2, 3)];
        let p = Path::from_edges(&net, net.weights(), edges);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(3));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.validate(&net));
        assert!(p.is_simple());
        assert_eq!(p.cost_ms, p.cost_under(net.weights()));
    }

    #[test]
    fn cost_under_overlay() {
        let net = line();
        let edges = vec![edge(&net, 0, 1), edge(&net, 1, 2)];
        let p = Path::from_edges(&net, net.weights(), edges);
        let doubled: Vec<u32> = net.weights().iter().map(|w| w * 2).collect();
        assert_eq!(p.cost_under(&doubled), p.cost_ms * 2);
    }

    #[test]
    fn non_simple_path_detected() {
        let net = line();
        // 0 -> 1 -> 0 revisits node 0.
        let edges = vec![edge(&net, 0, 1), edge(&net, 1, 0)];
        let p = Path::from_edges(&net, net.weights(), edges);
        assert!(!p.is_simple());
        assert!(p.validate(&net));
    }

    #[test]
    fn length_accumulates() {
        let net = line();
        let p = Path::from_edges(
            &net,
            net.weights(),
            vec![edge(&net, 0, 1), edge(&net, 1, 2)],
        );
        let expected: f64 = p.edges.iter().map(|&e| net.length_m(e) as f64).sum();
        assert!((p.length_m(&net) - expected).abs() < 1e-9);
        assert!(p.length_m(&net) > 1000.0);
    }

    #[test]
    fn key_distinguishes_paths() {
        let net = line();
        let a = Path::from_edges(&net, net.weights(), vec![edge(&net, 0, 1)]);
        let b = Path::from_edges(&net, net.weights(), vec![edge(&net, 1, 2)]);
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), a.clone().key());
    }

    #[test]
    fn validate_rejects_corruption() {
        let net = line();
        let mut p = Path::from_edges(&net, net.weights(), vec![edge(&net, 0, 1)]);
        p.nodes[1] = NodeId(3);
        assert!(!p.validate(&net));
        let mut q = Path::from_edges(&net, net.weights(), vec![edge(&net, 0, 1)]);
        q.edges[0] = EdgeId(9999);
        assert!(!q.validate(&net));
    }
}
