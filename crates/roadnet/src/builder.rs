//! Incremental construction of a [`RoadNetwork`].
//!
//! The builder accepts nodes and directed edges in any order, optionally
//! de-duplicates parallel edges (keeping the fastest), drops self-loops and
//! then produces the immutable CSR representation in one pass.

use crate::category::RoadCategory;
use crate::csr::RoadNetwork;
use crate::geo::{haversine_m, BoundingBox, Point};
use crate::ids::NodeId;
use crate::weight::{Weight, WeightConfig};

/// Attributes of an edge being added to the builder.
///
/// Length and weight may be left implicit: length defaults to the haversine
/// distance between the endpoints and weight to the travel time derived from
/// the builder's [`WeightConfig`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeSpec {
    /// Road category (drives default speed, calibration and perception).
    pub category: RoadCategory,
    /// Maximum speed in km/h; `None` uses the category default.
    pub speed_kmh: Option<f32>,
    /// Geometric length in metres; `None` derives it from node coordinates.
    pub length_m: Option<f64>,
    /// Pre-computed travel time in ms; `None` derives it from length/speed.
    pub weight_ms: Option<Weight>,
}

impl EdgeSpec {
    /// Spec with only a category; everything else is derived.
    pub fn category(category: RoadCategory) -> Self {
        EdgeSpec {
            category,
            speed_kmh: None,
            length_m: None,
            weight_ms: None,
        }
    }

    /// Sets the speed limit in km/h.
    pub fn with_speed(mut self, kmh: f32) -> Self {
        self.speed_kmh = Some(kmh);
        self
    }

    /// Sets the geometric length in metres.
    pub fn with_length(mut self, m: f64) -> Self {
        self.length_m = Some(m);
        self
    }

    /// Sets the exact edge weight in milliseconds (a 0 is raised to the
    /// 1 ms floor every network weight keeps).
    pub fn with_weight(mut self, ms: Weight) -> Self {
        self.weight_ms = Some(ms);
        self
    }
}

impl Default for EdgeSpec {
    fn default() -> Self {
        EdgeSpec::category(RoadCategory::Unclassified)
    }
}

#[derive(Clone, Debug)]
struct PendingEdge {
    tail: u32,
    head: u32,
    length_m: f32,
    speed_kmh: f32,
    category: RoadCategory,
    weight_ms: Weight,
}

/// Incremental builder for [`RoadNetwork`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    points: Vec<Point>,
    edges: Vec<PendingEdge>,
    weight_config: WeightConfig,
    dedup_parallel: bool,
    drop_self_loops: bool,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// A builder with the paper's weight model, parallel-edge
    /// de-duplication and self-loop removal enabled.
    pub fn new() -> Self {
        GraphBuilder {
            points: Vec::new(),
            edges: Vec::new(),
            weight_config: WeightConfig::paper(),
            dedup_parallel: true,
            drop_self_loops: true,
        }
    }

    /// A builder with a custom travel-time model.
    pub fn with_weight_config(config: WeightConfig) -> Self {
        GraphBuilder {
            weight_config: config,
            ..Self::new()
        }
    }

    /// Pre-allocates for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut b = Self::new();
        b.points.reserve(nodes);
        b.edges.reserve(edges);
        b
    }

    /// Disables parallel-edge de-duplication (keeps every inserted edge).
    pub fn keep_parallel_edges(mut self) -> Self {
        self.dedup_parallel = false;
        self
    }

    /// Keeps self-loops instead of silently dropping them.
    pub fn keep_self_loops(mut self) -> Self {
        self.drop_self_loops = false;
        self
    }

    /// The travel-time model in effect.
    pub fn weight_config(&self) -> WeightConfig {
        self.weight_config
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of edges added so far (before de-duplication).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node at `point` and returns its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId::from(self.points.len());
        self.points.push(point);
        id
    }

    /// Adds a directed edge `tail -> head` with the given spec.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added.
    pub fn add_edge(&mut self, tail: NodeId, head: NodeId, spec: EdgeSpec) {
        assert!(tail.index() < self.points.len(), "unknown tail {tail}");
        assert!(head.index() < self.points.len(), "unknown head {head}");
        if self.drop_self_loops && tail == head {
            return;
        }
        let length_m = spec
            .length_m
            .unwrap_or_else(|| haversine_m(self.points[tail.index()], self.points[head.index()]));
        let speed_kmh = spec
            .speed_kmh
            .unwrap_or_else(|| spec.category.default_speed_kmh());
        // Every weight that enters a network — derived, explicit or read
        // back from a file — is at least 1 ms: the search kernel's
        // canonical parents need strictly positive costs.
        let weight_ms = spec
            .weight_ms
            .unwrap_or_else(|| {
                self.weight_config
                    .travel_time_ms(length_m, speed_kmh as f64, spec.category)
            })
            .max(1);
        self.edges.push(PendingEdge {
            tail: tail.0,
            head: head.0,
            length_m: length_m as f32,
            speed_kmh,
            category: spec.category,
            weight_ms,
        });
    }

    /// Adds both `a -> b` and `b -> a` with the same spec (two-way street).
    pub fn add_bidirectional(&mut self, a: NodeId, b: NodeId, spec: EdgeSpec) {
        self.add_edge(a, b, spec);
        self.add_edge(b, a, spec);
    }

    /// Finalizes the network into its immutable CSR form.
    pub fn build(mut self) -> RoadNetwork {
        let n = self.points.len();

        if self.dedup_parallel {
            // Sort by (tail, head, weight) and keep the fastest edge of each
            // parallel group. Sorting also establishes CSR order.
            self.edges.sort_unstable_by(|a, b| {
                (a.tail, a.head, a.weight_ms).cmp(&(b.tail, b.head, b.weight_ms))
            });
            self.edges
                .dedup_by(|next, first| next.tail == first.tail && next.head == first.head);
        } else {
            self.edges.sort_by_key(|e| e.tail);
        }

        let m = self.edges.len();
        let mut fwd_offsets = vec![0u32; n + 1];
        for e in &self.edges {
            fwd_offsets[e.tail as usize + 1] += 1;
        }
        for i in 0..n {
            fwd_offsets[i + 1] += fwd_offsets[i];
        }

        let mut edge_tail = Vec::with_capacity(m);
        let mut edge_head = Vec::with_capacity(m);
        let mut edge_len_m = Vec::with_capacity(m);
        let mut edge_speed = Vec::with_capacity(m);
        let mut edge_cat = Vec::with_capacity(m);
        let mut edge_weight = Vec::with_capacity(m);
        for e in &self.edges {
            edge_tail.push(NodeId(e.tail));
            edge_head.push(NodeId(e.head));
            edge_len_m.push(e.length_m);
            edge_speed.push(e.speed_kmh);
            edge_cat.push(e.category);
            edge_weight.push(e.weight_ms);
        }

        // Backward adjacency: edge ids grouped by head vertex.
        let mut bwd_offsets = vec![0u32; n + 1];
        for h in &edge_head {
            bwd_offsets[h.index() + 1] += 1;
        }
        for i in 0..n {
            bwd_offsets[i + 1] += bwd_offsets[i];
        }
        let mut cursor = bwd_offsets.clone();
        let mut bwd_edges = vec![crate::ids::EdgeId::INVALID; m];
        for (i, h) in edge_head.iter().enumerate() {
            let slot = cursor[h.index()] as usize;
            bwd_edges[slot] = crate::ids::EdgeId::from(i);
            cursor[h.index()] += 1;
        }

        let bbox = BoundingBox::of_points(&self.points);

        RoadNetwork::from_parts(
            self.points,
            fwd_offsets,
            edge_tail,
            edge_head,
            edge_len_m,
            edge_speed,
            edge_cat,
            edge_weight,
            bwd_offsets,
            bwd_edges,
            bbox,
            self.weight_config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;

    fn p(lon: f64, lat: f64) -> Point {
        Point::new(lon, lat)
    }

    #[test]
    fn build_tiny_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(144.0, -37.0));
        let c = b.add_node(p(144.01, -37.0));
        let d = b.add_node(p(144.02, -37.0));
        b.add_edge(a, c, EdgeSpec::category(RoadCategory::Primary));
        b.add_edge(c, d, EdgeSpec::category(RoadCategory::Primary));
        b.add_edge(d, a, EdgeSpec::category(RoadCategory::Primary));
        let net = b.build();
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_edges(), 3);
        // Out-edges of `a` is exactly one edge heading to c.
        let out: Vec<_> = net.out_edges(a).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(net.head(out[0]), c);
        assert_eq!(net.tail(out[0]), a);
    }

    #[test]
    fn derived_length_matches_haversine() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(144.0, -37.0));
        let c = b.add_node(p(144.01, -37.0));
        b.add_edge(a, c, EdgeSpec::category(RoadCategory::Primary));
        let net = b.build();
        let e = net.out_edges(a).next().unwrap();
        let expect = haversine_m(p(144.0, -37.0), p(144.01, -37.0));
        assert!((net.length_m(e) as f64 - expect).abs() < 0.5);
    }

    #[test]
    fn explicit_weight_is_respected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(0.0, 0.0));
        let c = b.add_node(p(0.1, 0.0));
        b.add_edge(
            a,
            c,
            EdgeSpec::category(RoadCategory::Primary).with_weight(12345),
        );
        let net = b.build();
        let e = net.out_edges(a).next().unwrap();
        assert_eq!(net.weight(e), 12345);
    }

    #[test]
    fn every_weight_is_floored_at_one_ms() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(0.0, 0.0));
        let c = b.add_node(p(0.0, 0.0));
        // Zero length, and an explicit zero.
        b.add_edge(a, c, EdgeSpec::default());
        b.add_edge(c, a, EdgeSpec::default().with_weight(0));
        let net = b.build();
        assert!(net.edges().all(|e| net.weight(e) == 1));
    }

    #[test]
    fn parallel_edges_deduplicated_keeping_fastest() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(0.0, 0.0));
        let c = b.add_node(p(0.1, 0.0));
        b.add_edge(
            a,
            c,
            EdgeSpec::category(RoadCategory::Primary).with_weight(5000),
        );
        b.add_edge(
            a,
            c,
            EdgeSpec::category(RoadCategory::Primary).with_weight(3000),
        );
        b.add_edge(
            a,
            c,
            EdgeSpec::category(RoadCategory::Primary).with_weight(9000),
        );
        let net = b.build();
        assert_eq!(net.num_edges(), 1);
        let e = net.out_edges(a).next().unwrap();
        assert_eq!(net.weight(e), 3000);
    }

    #[test]
    fn keep_parallel_edges_mode() {
        let mut b = GraphBuilder::new().keep_parallel_edges();
        let a = b.add_node(p(0.0, 0.0));
        let c = b.add_node(p(0.1, 0.0));
        b.add_edge(a, c, EdgeSpec::default().with_weight(5000));
        b.add_edge(a, c, EdgeSpec::default().with_weight(3000));
        let net = b.build();
        assert_eq!(net.num_edges(), 2);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(0.0, 0.0));
        b.add_edge(a, a, EdgeSpec::default());
        assert_eq!(b.num_edges(), 0);
        let mut b2 = GraphBuilder::new().keep_self_loops();
        let a2 = b2.add_node(p(0.0, 0.0));
        b2.add_edge(a2, a2, EdgeSpec::default().with_length(10.0));
        assert_eq!(b2.num_edges(), 1);
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(0.0, 0.0));
        let c = b.add_node(p(0.1, 0.0));
        b.add_bidirectional(a, c, EdgeSpec::category(RoadCategory::Secondary));
        let net = b.build();
        assert_eq!(net.num_edges(), 2);
        assert_eq!(net.out_degree(a), 1);
        assert_eq!(net.out_degree(c), 1);
        assert_eq!(net.in_edges(a).count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown head")]
    fn unknown_endpoint_panics() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(p(0.0, 0.0));
        b.add_edge(a, NodeId(99), EdgeSpec::default());
    }

    #[test]
    fn backward_adjacency_is_consistent() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(p(0.0, 0.0));
        let n1 = b.add_node(p(0.01, 0.0));
        let n2 = b.add_node(p(0.02, 0.0));
        b.add_edge(n0, n2, EdgeSpec::default());
        b.add_edge(n1, n2, EdgeSpec::default());
        b.add_edge(n2, n0, EdgeSpec::default());
        let net = b.build();
        let incoming: Vec<EdgeId> = net.in_edges(n2).collect();
        assert_eq!(incoming.len(), 2);
        for e in incoming {
            assert_eq!(net.head(e), n2);
        }
        assert_eq!(net.in_edges(n0).count(), 1);
        assert_eq!(net.in_edges(n1).count(), 0);
    }

    #[test]
    fn empty_graph_builds() {
        let net = GraphBuilder::new().build();
        assert_eq!(net.num_nodes(), 0);
        assert_eq!(net.num_edges(), 0);
        assert!(net.bbox().is_empty());
    }
}
