//! Bidirectional Dijkstra.
//!
//! Runs a forward search from the source and a backward search from the
//! target simultaneously; terminates when the sum of both frontiers' next
//! keys can no longer improve the best meeting vertex. On city networks
//! this settles roughly half the vertices of a unidirectional search and
//! is the workhorse for the many point-to-point probes issued by the
//! local-optimality filter.

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::kernel::{self, Column, InEdges, Labels, OutEdges, Poller};
use crate::metrics::{SearchMetrics, SearchStats};
use crate::path::Path;

/// Reusable workspace for bidirectional searches.
pub struct BidirSearch {
    fwd: Labels,
    bwd: Labels,
    stats: SearchStats,
    metrics: SearchMetrics,
    budget: SearchBudget,
}

impl BidirSearch {
    /// A workspace sized for `net`.
    pub fn new(net: &RoadNetwork) -> BidirSearch {
        BidirSearch {
            fwd: Labels::new(net.num_nodes()),
            bwd: Labels::new(net.num_nodes()),
            stats: SearchStats::default(),
            metrics: SearchMetrics::default(),
            budget: SearchBudget::unlimited(),
        }
    }

    /// Attaches pre-resolved counters; every subsequent query flushes its
    /// [`SearchStats`] (both directions combined) into them.
    pub fn set_metrics(&mut self, metrics: SearchMetrics) {
        self.metrics = metrics;
    }

    /// Attaches a cooperative [`SearchBudget`], polled on entry and once
    /// per check interval of combined heap pops; a trip aborts the query
    /// with [`CoreError::Interrupted`].
    pub fn set_budget(&mut self, budget: SearchBudget) {
        self.budget = budget;
    }

    /// The workspace's current budget.
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// Work counters of the most recently completed query.
    pub fn last_stats(&self) -> SearchStats {
        self.stats
    }

    /// Shortest-path distance `source -> target`, or an error if
    /// unreachable. Equivalent to unidirectional Dijkstra but typically
    /// settles far fewer vertices.
    pub fn shortest_distance(
        &mut self,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<Cost, CoreError> {
        self.run(net, weights, source, target).map(|(d, _)| d)
    }

    /// Shortest path `source -> target`.
    pub fn shortest_path(
        &mut self,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<Path, CoreError> {
        let (_, meet) = self.run(net, weights, source, target)?;
        // Forward half: walk parents back from the meeting vertex.
        let mut edges = Vec::new();
        let mut cur = meet;
        while cur != source.0 {
            let e = EdgeId(self.fwd.parent(cur));
            edges.push(e);
            cur = net.tail(e).0;
        }
        edges.reverse();
        // Backward half: walk backward parents forward to the target.
        let mut cur = meet;
        while cur != target.0 {
            let e = EdgeId(self.bwd.parent(cur));
            edges.push(e);
            cur = net.head(e).0;
        }
        Ok(Path::from_edges(net, weights, edges))
    }

    /// Distance and meeting vertex. Terminates once the sum of both
    /// frontiers' next keys cannot beat the best meeting seen.
    fn run(
        &mut self,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<(Cost, u32), CoreError> {
        kernel::check_endpoints(net.num_nodes(), source, target)?;
        let column = Column::new(net, weights)?;
        let mut poller = Poller::new(&self.budget);
        let outcome = kernel::search_bidirectional(
            &mut self.fwd,
            &mut self.bwd,
            &OutEdges(column),
            &InEdges(column),
            source.0,
            target.0,
            Cost::saturating_add,
            &mut poller,
        );
        self.stats = poller.finish();
        self.metrics.record(&self.stats);
        outcome?.ok_or(CoreError::Unreachable { source, target })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use crate::search::SearchSpace;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};

    use arp_roadnet::geo::Point;
    use arp_roadnet::weight::CLOSED;

    #[test]
    fn matches_unidirectional_on_grid() {
        let net = grid(8);
        let mut uni = SearchSpace::new(&net);
        let mut bi = BidirSearch::new(&net);
        for (s, t) in [(0u32, 63u32), (7, 56), (20, 43), (1, 62), (33, 30)] {
            let d1 = uni
                .shortest_path(&net, net.weights(), NodeId(s), NodeId(t))
                .unwrap();
            let d2 = bi
                .shortest_path(&net, net.weights(), NodeId(s), NodeId(t))
                .unwrap();
            assert_eq!(d1.cost_ms, d2.cost_ms, "{s}->{t}");
            assert!(d2.validate(&net));
            assert_eq!(d2.source(), NodeId(s));
            assert_eq!(d2.target(), NodeId(t));
        }
    }

    #[test]
    fn matches_on_one_way_asymmetric_graph() {
        // Directed cycle with a chord: forward and backward distances differ.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64 * 0.01, 0.0)))
            .collect();
        for i in 0..6 {
            b.add_edge(
                ids[i],
                ids[(i + 1) % 6],
                EdgeSpec::default().with_weight(100 + i as u32),
            );
        }
        b.add_edge(ids[0], ids[3], EdgeSpec::default().with_weight(250));
        let net = b.build();
        let mut uni = SearchSpace::new(&net);
        let mut bi = BidirSearch::new(&net);
        for s in 0..6u32 {
            for t in 0..6u32 {
                if s == t {
                    continue;
                }
                let d1 = uni
                    .shortest_distance(&net, net.weights(), NodeId(s), NodeId(t))
                    .unwrap();
                let d2 = bi
                    .shortest_distance(&net, net.weights(), NodeId(s), NodeId(t))
                    .unwrap();
                assert_eq!(d1, d2, "{s}->{t}");
            }
        }
    }

    #[test]
    fn unreachable_and_errors() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        let mut bi = BidirSearch::new(&net);
        assert!(matches!(
            bi.shortest_distance(&net, net.weights(), NodeId(1), NodeId(0)),
            Err(CoreError::Unreachable { .. })
        ));
        assert!(matches!(
            bi.shortest_distance(&net, net.weights(), NodeId(0), NodeId(0)),
            Err(CoreError::SameSourceTarget(_))
        ));
        assert!(matches!(
            bi.shortest_distance(&net, net.weights(), NodeId(0), NodeId(9)),
            Err(CoreError::InvalidNode(_))
        ));
    }

    #[test]
    fn closed_edges_block_both_directions() {
        let net = grid(4);
        let mut bi = BidirSearch::new(&net);
        let base = bi
            .shortest_path(&net, net.weights(), NodeId(0), NodeId(15))
            .unwrap();
        // Close every edge the base route used; the search must reroute
        // (the grid has parallel paths) and never traverse a closed edge.
        let mut overlay = net.weights().to_vec();
        for &e in &base.edges {
            overlay[e.index()] = CLOSED;
        }
        let alt = bi
            .shortest_path(&net, &overlay, NodeId(0), NodeId(15))
            .unwrap();
        for &e in &alt.edges {
            assert_ne!(overlay[e.index()], CLOSED);
        }
        // Close everything: unreachable, not a panic.
        let all_closed = vec![CLOSED; net.num_edges()];
        assert!(matches!(
            bi.shortest_distance(&net, &all_closed, NodeId(0), NodeId(15)),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn stats_cover_both_directions() {
        let net = grid(8);
        let mut bi = BidirSearch::new(&net);
        bi.shortest_distance(&net, net.weights(), NodeId(0), NodeId(63))
            .unwrap();
        let s = bi.last_stats();
        assert!(s.settled > 0);
        assert!(s.settled <= s.heap_pops);
        assert!(s.relaxed > 0);
    }

    #[test]
    fn pre_cancelled_budget_interrupts_the_query() {
        let net = grid(8);
        let mut bi = BidirSearch::new(&net);
        let budget = SearchBudget::new();
        budget.cancel();
        bi.set_budget(budget);
        assert!(matches!(
            bi.shortest_distance(&net, net.weights(), NodeId(0), NodeId(63)),
            Err(CoreError::Interrupted)
        ));
        assert_eq!(bi.last_stats().heap_pops, 0);
        // Detaching restores normal behaviour.
        bi.set_budget(SearchBudget::unlimited());
        assert!(bi
            .shortest_distance(&net, net.weights(), NodeId(0), NodeId(63))
            .is_ok());
    }

    #[test]
    fn workspace_reuse() {
        let net = grid(6);
        let mut bi = BidirSearch::new(&net);
        let d1 = bi
            .shortest_distance(&net, net.weights(), NodeId(0), NodeId(35))
            .unwrap();
        for t in 1..30u32 {
            let _ = bi.shortest_distance(&net, net.weights(), NodeId(0), NodeId(t));
        }
        let d2 = bi
            .shortest_distance(&net, net.weights(), NodeId(0), NodeId(35))
            .unwrap();
        assert_eq!(d1, d2);
    }
}
