//! The immutable compressed-sparse-row road network.
//!
//! Edges are sorted by tail vertex, so [`RoadNetwork::out_edges`] of a node
//! is a contiguous range of [`EdgeId`]s; a second offset array groups edge
//! ids by head vertex for backward searches. All edge attributes live in
//! parallel columnar arrays indexed by `EdgeId`, which keeps hot search
//! loops cache-friendly (only the weight column is touched by Dijkstra).

use crate::category::RoadCategory;
use crate::geo::{BoundingBox, Point};
use crate::ids::{EdgeId, NodeId};
use crate::weight::{Weight, WeightConfig};

/// An immutable directed road network in CSR form.
///
/// Construct one with [`crate::GraphBuilder`], the OSM constructor in
/// `arp-osm`, or a city generator in `arp-citygen`.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    points: Vec<Point>,
    fwd_offsets: Vec<u32>,
    edge_tail: Vec<NodeId>,
    edge_head: Vec<NodeId>,
    edge_len_m: Vec<f32>,
    edge_speed_kmh: Vec<f32>,
    edge_category: Vec<RoadCategory>,
    edge_weight_ms: Vec<Weight>,
    bwd_offsets: Vec<u32>,
    bwd_edges: Vec<EdgeId>,
    bbox: BoundingBox,
    weight_config: WeightConfig,
}

impl RoadNetwork {
    /// Assembles a network from raw parts. Intended for use by
    /// [`crate::GraphBuilder`] and the serialization layer; invariants are
    /// checked with debug assertions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        points: Vec<Point>,
        fwd_offsets: Vec<u32>,
        edge_tail: Vec<NodeId>,
        edge_head: Vec<NodeId>,
        edge_len_m: Vec<f32>,
        edge_speed_kmh: Vec<f32>,
        edge_category: Vec<RoadCategory>,
        edge_weight_ms: Vec<Weight>,
        bwd_offsets: Vec<u32>,
        bwd_edges: Vec<EdgeId>,
        bbox: BoundingBox,
        weight_config: WeightConfig,
    ) -> Self {
        debug_assert_eq!(fwd_offsets.len(), points.len() + 1);
        debug_assert_eq!(bwd_offsets.len(), points.len() + 1);
        debug_assert_eq!(edge_tail.len(), edge_head.len());
        debug_assert_eq!(edge_tail.len(), edge_weight_ms.len());
        debug_assert_eq!(edge_tail.len(), bwd_edges.len());
        let net = RoadNetwork {
            points,
            fwd_offsets,
            edge_tail,
            edge_head,
            edge_len_m,
            edge_speed_kmh,
            edge_category,
            edge_weight_ms,
            bwd_offsets,
            bwd_edges,
            bbox,
            weight_config,
        };
        debug_assert!(net.check_invariants());
        net
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_head.len()
    }

    /// True if the network has no vertices.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Coordinates of `node`.
    #[inline]
    pub fn point(&self, node: NodeId) -> Point {
        self.points[node.index()]
    }

    /// All node coordinates, indexed by `NodeId`.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Bounding box of all vertices.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// The travel-time model the edge weights were derived with.
    pub fn weight_config(&self) -> WeightConfig {
        self.weight_config
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.points.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_head.len() as u32).map(EdgeId)
    }

    /// Out-edges of `node` as a contiguous id range.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let lo = self.fwd_offsets[node.index()];
        let hi = self.fwd_offsets[node.index() + 1];
        (lo..hi).map(EdgeId)
    }

    /// Edge ids whose head is `node`.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        let lo = self.bwd_offsets[node.index()] as usize;
        let hi = self.bwd_offsets[node.index() + 1] as usize;
        self.bwd_edges[lo..hi].iter().copied()
    }

    /// Number of out-edges of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        (self.fwd_offsets[node.index() + 1] - self.fwd_offsets[node.index()]) as usize
    }

    /// Tail (source vertex) of `edge`.
    #[inline]
    pub fn tail(&self, edge: EdgeId) -> NodeId {
        self.edge_tail[edge.index()]
    }

    /// Head (target vertex) of `edge`.
    #[inline]
    pub fn head(&self, edge: EdgeId) -> NodeId {
        self.edge_head[edge.index()]
    }

    /// Travel time of `edge` in milliseconds.
    #[inline]
    pub fn weight(&self, edge: EdgeId) -> Weight {
        self.edge_weight_ms[edge.index()]
    }

    /// Geometric length of `edge` in metres.
    #[inline]
    pub fn length_m(&self, edge: EdgeId) -> f32 {
        self.edge_len_m[edge.index()]
    }

    /// Speed limit of `edge` in km/h.
    #[inline]
    pub fn speed_kmh(&self, edge: EdgeId) -> f32 {
        self.edge_speed_kmh[edge.index()]
    }

    /// Road category of `edge`.
    #[inline]
    pub fn category(&self, edge: EdgeId) -> RoadCategory {
        self.edge_category[edge.index()]
    }

    /// The full weight column; useful for building private weight overlays
    /// (the Penalty technique and the Google-like provider both copy it).
    pub fn weights(&self) -> &[Weight] {
        &self.edge_weight_ms
    }

    /// Finds an edge `tail -> head` if one exists (after builder
    /// de-duplication there is at most one).
    pub fn find_edge(&self, tail: NodeId, head: NodeId) -> Option<EdgeId> {
        self.out_edges(tail).find(|&e| self.head(e) == head)
    }

    /// The reverse edge `head -> tail` of `edge`, if the road is two-way.
    pub fn reverse_edge(&self, edge: EdgeId) -> Option<EdgeId> {
        self.find_edge(self.head(edge), self.tail(edge))
    }

    /// Verifies the structural invariants of the CSR arrays. Used by debug
    /// assertions and by property tests.
    pub fn check_invariants(&self) -> bool {
        let n = self.num_nodes();
        let m = self.num_edges();
        if self.fwd_offsets.len() != n + 1 || self.bwd_offsets.len() != n + 1 {
            return false;
        }
        if self.fwd_offsets[0] != 0 || self.fwd_offsets[n] as usize != m {
            return false;
        }
        if self.bwd_offsets[0] != 0 || self.bwd_offsets[n] as usize != m {
            return false;
        }
        if self.fwd_offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        if self.bwd_offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        // Every edge's tail matches its CSR bucket.
        for v in 0..n {
            let lo = self.fwd_offsets[v] as usize;
            let hi = self.fwd_offsets[v + 1] as usize;
            for e in lo..hi {
                if self.edge_tail[e].index() != v {
                    return false;
                }
                if self.edge_head[e].index() >= n {
                    return false;
                }
            }
            let blo = self.bwd_offsets[v] as usize;
            let bhi = self.bwd_offsets[v + 1] as usize;
            for be in blo..bhi {
                let e = self.bwd_edges[be];
                if e.index() >= m || self.edge_head[e.index()].index() != v {
                    return false;
                }
            }
        }
        true
    }

    /// Total length of all edges in kilometres — a handy summary statistic.
    pub fn total_length_km(&self) -> f64 {
        self.edge_len_m.iter().map(|&l| l as f64).sum::<f64>() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EdgeSpec, GraphBuilder};

    fn line_graph(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.add_node(Point::new(i as f64 * 0.01, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_bidirectional(w[0], w[1], EdgeSpec::category(RoadCategory::Primary));
        }
        b.build()
    }

    #[test]
    fn invariants_hold_for_line_graph() {
        let net = line_graph(10);
        assert!(net.check_invariants());
        assert_eq!(net.num_nodes(), 10);
        assert_eq!(net.num_edges(), 18);
    }

    #[test]
    fn degrees_of_line_graph() {
        let net = line_graph(5);
        assert_eq!(net.out_degree(NodeId(0)), 1);
        assert_eq!(net.out_degree(NodeId(2)), 2);
        assert_eq!(net.in_edges(NodeId(2)).count(), 2);
        assert_eq!(net.in_edges(NodeId(4)).count(), 1);
    }

    #[test]
    fn find_edge_and_reverse() {
        let net = line_graph(3);
        let e = net.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(net.tail(e), NodeId(0));
        assert_eq!(net.head(e), NodeId(1));
        let r = net.reverse_edge(e).unwrap();
        assert_eq!(net.tail(r), NodeId(1));
        assert_eq!(net.head(r), NodeId(0));
        assert!(net.find_edge(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn edge_attribute_access() {
        let net = line_graph(3);
        for e in net.edges() {
            assert!(net.weight(e) > 0);
            assert!(net.length_m(e) > 0.0);
            assert_eq!(net.category(e), RoadCategory::Primary);
            assert_eq!(net.speed_kmh(e), RoadCategory::Primary.default_speed_kmh());
        }
    }

    #[test]
    fn nodes_and_edges_iterators() {
        let net = line_graph(4);
        assert_eq!(net.nodes().count(), 4);
        assert_eq!(net.edges().count(), net.num_edges());
        assert_eq!(net.weights().len(), net.num_edges());
    }

    #[test]
    fn total_length_positive() {
        let net = line_graph(3);
        assert!(net.total_length_km() > 0.0);
    }
}
