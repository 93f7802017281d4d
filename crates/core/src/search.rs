//! Dijkstra searches and shortest-path trees. Parents are canonical —
//! the smallest tight [`EdgeId`] — so a route or tree is a function of the
//! distance labels alone, never of heap pop order.
//!
//! All searches are generic over a **weight overlay** (`&[Weight]` indexed
//! by `EdgeId`): the Penalty technique and the Google-like provider run the
//! same machinery over modified weights.
//!
//! [`SearchSpace`] is a reusable workspace with generation-stamped labels,
//! so repeated queries (the alternative-route algorithms run many) pay no
//! per-query clearing cost. A serving layer lends its workspaces and
//! their trees' arrays from pools ([`SearchSpace::pooled`]), so a request
//! allocates nothing sized by the network and clears only what it labelled.

use std::sync::Arc;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight, INFINITY};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::kernel::{
    self, ArcView, Column, Exhaust, InEdges, Labels, Logged, OutEdges, Poller, ReachTarget,
    ReachTargetWithin, Reduced, Rule, Weights, WithinBound,
};
use crate::metrics::{SearchMetrics, SearchStats};
use crate::path::Path;
use crate::reads::{CellMap, ReadCells};
use crate::scratch::{Loan, Pool, Scratch};

/// Search direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Relax out-edges: distances are `d(root → v)`.
    Forward,
    /// Relax in-edges: distances are `d(v → root)`.
    Backward,
}

/// A tree's dense label and parent arrays plus its settle order. Clean
/// means every label [`INFINITY`], every parent [`EdgeId::INVALID`] and no
/// order: the order lists exactly the entries ever set, so cleaning walks
/// it alone.
#[derive(Debug, Default)]
pub(crate) struct TreeArrays {
    dist: Vec<Cost>,
    parent: Vec<EdgeId>,
    order: Vec<NodeId>,
}

impl Scratch for TreeArrays {
    fn pool() -> &'static Pool<TreeArrays> {
        static POOL: Pool<TreeArrays> = Pool::new();
        &POOL
    }
    fn with_size(n: usize) -> TreeArrays {
        TreeArrays {
            dist: vec![INFINITY; n],
            parent: vec![EdgeId::INVALID; n],
            order: Vec::new(),
        }
    }
    fn size(&self) -> usize {
        self.dist.len()
    }
    fn clean(&mut self) {
        for v in self.order.drain(..) {
            self.dist[v.index()] = INFINITY;
            self.parent[v.index()] = EdgeId::INVALID;
        }
    }
}

/// A shortest-path tree rooted at `root`: complete, or — grown under a
/// bounding rule — the labels that rule kept, up to the bound it was
/// grown to.
///
/// For a forward tree, [`ShortestPathTree::parent`] of `v` is the last
/// edge of a shortest path `root → v` (its head is `v`). For a backward
/// tree, it is the first edge of a shortest path `v → root` (its tail is
/// `v`). Its arrays are filled from its settle order, and — when grown in
/// a pooled workspace — go back to their pool when the tree drops.
#[derive(Debug)]
pub struct ShortestPathTree {
    /// Tree root.
    pub root: NodeId,
    /// Search direction the tree was grown in.
    pub direction: Direction,
    /// The smallest and the largest id the tree reached.
    ids: (u32, u32),
    arrays: Loan<TreeArrays>,
}

impl ShortestPathTree {
    /// Distance of `v` from/to the root ([`INFINITY`] = unreached).
    #[inline]
    pub fn distance(&self, v: NodeId) -> Cost {
        self.arrays.dist[v.index()]
    }

    /// True if `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.distance(v) != INFINITY
    }

    /// The tree edge at `v` ([`EdgeId::INVALID`] at the root and at an
    /// unreached vertex).
    #[inline]
    pub fn parent(&self, v: NodeId) -> EdgeId {
        self.arrays.parent[v.index()]
    }

    /// Every reached vertex, in the order the search settled it: the root
    /// first, and every vertex after the other end of its parent edge.
    pub fn order(&self) -> &[NodeId] {
        &self.arrays.order
    }

    /// The distance label of every vertex, by vertex id.
    pub(crate) fn distances(&self) -> &[Cost] {
        &self.arrays.dist
    }

    /// The ids from the smallest to the largest the tree reached: every
    /// tree vertex, among others, in id order.
    pub(crate) fn id_window(&self) -> impl Iterator<Item = NodeId> {
        (self.ids.0..=self.ids.1).map(NodeId)
    }

    /// A clean scratch buffer of `size`, lent the way this tree's arrays
    /// were: from its pool, or fresh.
    pub(crate) fn scratch<U: Scratch>(&self, size: usize) -> Loan<U> {
        self.arrays.sibling(size)
    }

    /// Edge sequence of the tree path between `root` and `v`.
    ///
    /// Forward tree: edges of `root → v`, in travel order.
    /// Backward tree: edges of `v → root`, in travel order.
    /// Returns `None` if `v` is unreached. For `v == root` returns an empty
    /// edge list.
    pub fn path_edges(&self, net: &RoadNetwork, v: NodeId) -> Option<Vec<EdgeId>> {
        if !self.reached(v) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = v;
        while cur != self.root {
            let e = self.parent(cur);
            debug_assert!(!e.is_invalid());
            edges.push(e);
            cur = match self.direction {
                Direction::Forward => net.tail(e),
                Direction::Backward => net.head(e),
            };
        }
        if self.direction == Direction::Forward {
            edges.reverse();
        }
        Some(edges)
    }
}

/// Reusable Dijkstra workspace.
///
/// Label arrays are generation-stamped: starting a new query bumps the
/// generation instead of clearing, so a query on a large network touches
/// only the vertices it actually settles.
pub struct SearchSpace {
    labels: Loan<Labels>,
    stats: SearchStats,
    metrics: SearchMetrics,
    budget: SearchBudget,
    /// What this workspace's queries read, when it records
    /// ([`SearchSpace::record_reads`]).
    reads: Option<ReadCells>,
}

impl SearchSpace {
    /// A workspace sized for `net` that owns its label store and its
    /// trees' arrays: nothing it allocates outlives it.
    pub fn new(net: &RoadNetwork) -> SearchSpace {
        SearchSpace {
            labels: Loan::fresh(net.num_nodes()),
            stats: SearchStats::default(),
            metrics: SearchMetrics::default(),
            budget: SearchBudget::unlimited(),
            reads: None,
        }
    }

    /// A workspace for one caller, polling `budget` and counting into
    /// `metrics`: its label store is lent from the pool of stores sized
    /// for `net`, and so are the arrays of every tree it grows. Each goes
    /// back when its owner drops, and a store is reused as it was left —
    /// the generation stamps retire the last caller's labels — so a loan
    /// costs what the caller's searches touch, not O(n).
    pub fn pooled(net: &RoadNetwork, budget: SearchBudget, metrics: SearchMetrics) -> SearchSpace {
        SearchSpace {
            labels: Loan::take(net.num_nodes()),
            stats: SearchStats::default(),
            metrics,
            budget,
            reads: None,
        }
    }

    /// A clean scratch buffer of `size`, lent the way this workspace's
    /// label store was: from its pool, or fresh.
    pub(crate) fn scratch<U: Scratch>(&self, size: usize) -> Loan<U> {
        self.labels.sibling(size)
    }

    /// Attaches pre-resolved counters; every subsequent query flushes its
    /// [`SearchStats`] into them. The default (detached) bundle is free.
    pub fn set_metrics(&mut self, metrics: SearchMetrics) {
        self.metrics = metrics;
    }

    /// Attaches a cooperative [`SearchBudget`]; every subsequent query
    /// polls it on entry and once per check interval of heap pops, and
    /// returns [`CoreError::Interrupted`] once it trips. The default
    /// ([`SearchBudget::unlimited`]) never trips and costs nothing.
    pub fn set_budget(&mut self, budget: SearchBudget) {
        self.budget = budget;
    }

    /// The workspace's current budget (shared; cancelling it from another
    /// clone interrupts searches running here).
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// Starts recording the cells of `map` that every later query of this
    /// workspace reads (`crate::reads`): the cell of each vertex it
    /// settles.
    pub(crate) fn record_reads(&mut self, map: &Arc<CellMap>) {
        self.reads = Some(ReadCells::new(map));
    }

    /// What the queries since [`SearchSpace::record_reads`] read, ending
    /// the record.
    pub(crate) fn take_reads(&mut self) -> Option<ReadCells> {
        self.reads.take()
    }

    /// Work counters of the most recently completed query.
    pub fn last_stats(&self) -> SearchStats {
        self.stats
    }

    /// Runs the kernel from `root` and flushes the query's counters —
    /// also when the budget interrupts it.
    fn run<A: ArcView, R: Rule>(
        &mut self,
        arcs: &A,
        root: NodeId,
        rule: R,
    ) -> Result<(), CoreError> {
        let mut poller = Poller::new(&self.budget);
        let labels = &mut self.labels;
        let outcome = match &mut self.reads {
            None => kernel::search(labels, arcs, root.0, rule, &mut poller),
            Some(reads) => {
                let rule = reads.recording(rule);
                kernel::search(labels, arcs, root.0, rule, &mut poller)
            }
        };
        self.stats = poller.finish();
        self.metrics.record(&self.stats);
        outcome
    }

    /// One-to-one shortest path with early termination at `target`.
    pub fn shortest_path(
        &mut self,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<Path, CoreError> {
        let edges = self.path_under(net, weights, source, target, ReachTarget(target.0))?;
        Ok(Path::from_edges(net, weights, edges))
    }

    /// The edges of [`SearchSpace::shortest_path`] under `weights`, found
    /// labelling a vertex `v` at `d` only while `d + lower(v) ≤ limit`.
    /// `lower(v)` must be a lower bound on `d(v, target)` under `weights`,
    /// and `limit` an upper bound on `d(source, target)` — the cost of any
    /// known walk. Every vertex of a shortest path passes, so the route is
    /// the one `shortest_path` returns (DESIGN.md §8); only the search
    /// work shrinks.
    pub(crate) fn shortest_path_within(
        &mut self,
        net: &RoadNetwork,
        weights: impl Weights,
        source: NodeId,
        target: NodeId,
        lower: impl Fn(u32) -> Cost,
        limit: Cost,
    ) -> Result<Vec<EdgeId>, CoreError> {
        let rule = ReachTargetWithin {
            target: target.0,
            within: WithinBound {
                lower,
                bound: limit,
            },
        };
        self.path_under(net, weights, source, target, rule)
    }

    /// `d(source, target)` under `weights`.
    pub(crate) fn distance_under(
        &mut self,
        net: &RoadNetwork,
        weights: impl Weights,
        source: NodeId,
        target: NodeId,
    ) -> Result<Cost, CoreError> {
        self.reach(net, weights, source, target, ReachTarget(target.0))?;
        Ok(self.labels.dist(target.0))
    }

    /// `d(source, target)` under `weights` by A\*: the one-to-one search
    /// over the reduced costs of `potential`, a consistent lower bound on
    /// each vertex's distance to `target` under `weights`
    /// ([`crate::landmarks`]). Labels only: the search's parents are not
    /// canonical.
    pub(crate) fn distance_toward(
        &mut self,
        net: &RoadNetwork,
        weights: impl Weights,
        source: NodeId,
        target: NodeId,
        potential: impl Fn(u32) -> Cost,
    ) -> Result<Cost, CoreError> {
        kernel::check_endpoints(net.num_nodes(), source, target)?;
        let arcs = Reduced::new(OutEdges(Column::new(net, weights)?), &potential);
        self.run(&arcs, source, ReachTarget(target.0))?;
        match self.labels.dist(target.0) {
            INFINITY => Err(CoreError::Unreachable { source, target }),
            d => Ok(d + potential(source.0)),
        }
    }

    /// The one-to-one search under `rule`, which stops at `target`; fails
    /// unless it labelled `target`.
    fn reach<R: Rule>(
        &mut self,
        net: &RoadNetwork,
        weights: impl Weights,
        source: NodeId,
        target: NodeId,
        rule: R,
    ) -> Result<(), CoreError> {
        kernel::check_endpoints(net.num_nodes(), source, target)?;
        let arcs = OutEdges(Column::new(net, weights)?);
        self.run(&arcs, source, rule)?;
        if self.labels.dist(target.0) == INFINITY {
            return Err(CoreError::Unreachable { source, target });
        }
        Ok(())
    }

    /// The edges of the route [`SearchSpace::reach`] finds under `rule`.
    fn path_under<R: Rule>(
        &mut self,
        net: &RoadNetwork,
        weights: impl Weights,
        source: NodeId,
        target: NodeId,
        rule: R,
    ) -> Result<Vec<EdgeId>, CoreError> {
        self.reach(net, weights, source, target, rule)?;
        // The kernel's parents are canonical (smallest tight in-edge per
        // settled vertex): the same route the substrate's forward tree
        // yields, regardless of heap pop order.
        let mut edges = Vec::new();
        let mut cur = target.0;
        while cur != source.0 {
            let e = EdgeId(self.labels.parent(cur));
            edges.push(e);
            cur = net.tail(e).0;
        }
        edges.reverse();
        Ok(edges)
    }

    /// The base optimal route of a technique call that grows no tree pair
    /// (ESX, Yen): one search of this workspace's own. `Ok(None)` when
    /// that search was interrupted: the call has admitted nothing.
    pub(crate) fn base_route(
        &mut self,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<Option<Path>, CoreError> {
        match self.shortest_path(net, weights, source, target) {
            Ok(path) => Ok(Some(path)),
            Err(CoreError::Interrupted) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Distance of the shortest path without materializing it.
    pub fn shortest_distance(
        &mut self,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<Cost, CoreError> {
        self.distance_under(net, weights, source, target)
    }

    /// Grows a tree from `root` over `weights` in `direction` under `rule`
    /// and returns the labels it settled `≤ bound()` — read once the
    /// search is over, so a rule may learn it on the way — with the
    /// kernel's canonical parents (smallest tight edge): the tree depends
    /// only on the distance labels, not on heap pop order. A rule that
    /// prunes (a landmark-pruned forward tree, a backward tree over the
    /// ellipse) leaves the vertices it refused unlabelled; every rule
    /// grown here settles each label it kept `≤ bound()` before it stops,
    /// so the recorded settle order lists the whole tree, and the tree's
    /// arrays are filled by walking it: the work is what the search
    /// settled, not O(n).
    pub(crate) fn tree_under<R: Rule>(
        &mut self,
        net: &RoadNetwork,
        weights: impl Weights,
        root: NodeId,
        direction: Direction,
        rule: R,
        bound: impl FnOnce() -> Cost,
    ) -> Result<ShortestPathTree, CoreError> {
        if root.index() >= net.num_nodes() {
            return Err(CoreError::InvalidNode(root));
        }
        let column = Column::new(net, weights)?;
        let mut arrays = self.scratch::<TreeArrays>(net.num_nodes());
        let rule = Logged {
            rule,
            order: &mut arrays.order,
        };
        match direction {
            Direction::Forward => self.run(&OutEdges(column), root, rule)?,
            Direction::Backward => self.run(&InEdges(column), root, rule)?,
        }
        let bound = bound();
        let TreeArrays {
            dist,
            parent,
            order,
        } = &mut *arrays;
        // Settled labels never decrease, so the ones beyond the bound are
        // a suffix of the order.
        let inside = order.partition_point(|v| self.labels.dist(v.0) <= bound);
        order.truncate(inside);
        let mut ids = (root.0, root.0);
        for &v in order.iter() {
            dist[v.index()] = self.labels.dist(v.0);
            if v != root {
                parent[v.index()] = EdgeId(self.labels.parent(v.0));
            }
            ids = (ids.0.min(v.0), ids.1.max(v.0));
        }
        Ok(ShortestPathTree {
            root,
            direction,
            ids,
            arrays,
        })
    }

    /// Grows a complete shortest-path tree from `root`.
    pub fn shortest_path_tree(
        &mut self,
        net: &RoadNetwork,
        weights: &[Weight],
        root: NodeId,
        direction: Direction,
    ) -> Result<ShortestPathTree, CoreError> {
        self.tree_under(net, weights, root, direction, Exhaust, || INFINITY)
    }
}

/// Convenience: one-shot shortest path with a fresh workspace.
pub fn shortest_path(
    net: &RoadNetwork,
    weights: &[Weight],
    source: NodeId,
    target: NodeId,
) -> Result<Path, CoreError> {
    SearchSpace::new(net).shortest_path(net, weights, source, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};

    use arp_roadnet::geo::Point;
    use arp_roadnet::weight::CLOSED;

    #[test]
    fn two_nodes_at_one_point_do_not_make_parents_cyclic() {
        // `a` and `b` share a coordinate and are joined both ways by
        // zero-length streets, each with a smaller id than the street from
        // the source into its head. Were those streets free, `a` and `b`
        // would tie at one label, each street would win its tie, the
        // parents would form the loop a ↔ b and `path_edges` would walk it
        // forever: the search runs on a thread and must answer in time.
        let mut g = GraphBuilder::new();
        let a = g.add_node(Point::new(144.01, -37.0));
        let b = g.add_node(Point::new(144.01, -37.0));
        let s = g.add_node(Point::new(144.0, -37.0));
        g.add_bidirectional(a, b, EdgeSpec::default());
        g.add_edge(s, a, EdgeSpec::default());
        g.add_edge(s, b, EdgeSpec::default());
        let net = g.build();
        let edge = |u, v| net.out_edges(u).find(|&e| net.head(e) == v).unwrap();
        assert!(edge(a, b) < edge(s, b) && edge(b, a) < edge(s, a));
        let (done, answer) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let paths = [a, b].map(|v| shortest_path(&net, net.weights(), s, v).unwrap());
            let _ = done.send(paths.map(|p| p.nodes));
        });
        let nodes = answer
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("shortest_path must return");
        assert_eq!(nodes, [vec![s, a], vec![s, b]]);
    }

    #[test]
    fn shortest_path_on_grid() {
        let net = grid(4);
        let mut ws = SearchSpace::new(&net);
        let p = ws
            .shortest_path(&net, net.weights(), NodeId(0), NodeId(15))
            .unwrap();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(15));
        assert_eq!(p.len(), 6);
        assert!(p.validate(&net));
        assert!(p.is_simple());
    }

    #[test]
    fn same_endpoints_rejected() {
        let net = grid(3);
        let mut ws = SearchSpace::new(&net);
        assert_eq!(
            ws.shortest_path(&net, net.weights(), NodeId(1), NodeId(1)),
            Err(CoreError::SameSourceTarget(NodeId(1)))
        );
    }

    #[test]
    fn invalid_node_rejected() {
        let net = grid(3);
        let mut ws = SearchSpace::new(&net);
        assert!(matches!(
            ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(999)),
            Err(CoreError::InvalidNode(_))
        ));
    }

    #[test]
    fn wrong_overlay_length_rejected() {
        let net = grid(3);
        let mut ws = SearchSpace::new(&net);
        let short = vec![1u32; 3];
        assert!(matches!(
            ws.shortest_path(&net, &short, NodeId(0), NodeId(1)),
            Err(CoreError::WeightLengthMismatch { .. })
        ));
    }

    #[test]
    fn unreachable_detected() {
        // Two disconnected edges.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        let d = b.add_node(Point::new(0.1, 0.0));
        let e = b.add_node(Point::new(0.11, 0.0));
        b.add_bidirectional(a, c, EdgeSpec::default());
        b.add_bidirectional(d, e, EdgeSpec::default());
        let net = b.build();
        let mut ws = SearchSpace::new(&net);
        assert!(matches!(
            ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(3)),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn workspace_reuse_is_consistent() {
        let net = grid(5);
        let mut ws = SearchSpace::new(&net);
        let d1 = ws
            .shortest_distance(&net, net.weights(), NodeId(0), NodeId(24))
            .unwrap();
        // Run unrelated queries in between.
        for t in 1..20 {
            let _ = ws.shortest_distance(&net, net.weights(), NodeId(0), NodeId(t));
        }
        let d2 = ws
            .shortest_distance(&net, net.weights(), NodeId(0), NodeId(24))
            .unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn overlay_changes_route() {
        let net = grid(3);
        let mut ws = SearchSpace::new(&net);
        let base = ws
            .shortest_path(&net, net.weights(), NodeId(0), NodeId(2))
            .unwrap();
        // Penalize the direct horizontal edges heavily.
        let mut overlay = net.weights().to_vec();
        for &e in &base.edges {
            overlay[e.index()] *= 100;
        }
        let alt = ws
            .shortest_path(&net, &overlay, NodeId(0), NodeId(2))
            .unwrap();
        assert_ne!(alt.edges, base.edges);
        // Cost on ORIGINAL weights is at least the shortest.
        assert!(alt.cost_under(net.weights()) >= base.cost_ms);
    }

    #[test]
    fn closed_edges_are_not_traversable() {
        // Path graph 0 -> 1 -> 2; close the only edge into 2.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        let d = b.add_node(Point::new(0.02, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        b.add_edge(c, d, EdgeSpec::default());
        let net = b.build();
        let mut ws = SearchSpace::new(&net);
        ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(2))
            .unwrap();
        let mut overlay = net.weights().to_vec();
        overlay[1] = CLOSED;
        assert!(matches!(
            ws.shortest_path(&net, &overlay, NodeId(0), NodeId(2)),
            Err(CoreError::Unreachable { .. })
        ));
        let fwd = ws
            .shortest_path_tree(&net, &overlay, NodeId(0), Direction::Forward)
            .unwrap();
        assert!(!fwd.reached(NodeId(2)));
        let bwd = ws
            .shortest_path_tree(&net, &overlay, NodeId(2), Direction::Backward)
            .unwrap();
        assert!(!bwd.reached(NodeId(0)));
    }

    #[test]
    fn forward_tree_distances_match_queries() {
        let net = grid(5);
        let mut ws = SearchSpace::new(&net);
        let tree = ws
            .shortest_path_tree(&net, net.weights(), NodeId(0), Direction::Forward)
            .unwrap();
        for t in 1..25u32 {
            let d = ws
                .shortest_distance(&net, net.weights(), NodeId(0), NodeId(t))
                .unwrap();
            assert_eq!(tree.distance(NodeId(t)), d, "node {t}");
        }
        assert_eq!(tree.distance(NodeId(0)), 0);
    }

    #[test]
    fn backward_tree_distances_match_queries() {
        let net = grid(5);
        let mut ws = SearchSpace::new(&net);
        let tree = ws
            .shortest_path_tree(&net, net.weights(), NodeId(24), Direction::Backward)
            .unwrap();
        for s in 0..24u32 {
            let d = ws
                .shortest_distance(&net, net.weights(), NodeId(s), NodeId(24))
                .unwrap();
            assert_eq!(tree.distance(NodeId(s)), d, "node {s}");
        }
    }

    #[test]
    fn tree_path_edges_reconstruct() {
        let net = grid(4);
        let mut ws = SearchSpace::new(&net);
        let fwd = ws
            .shortest_path_tree(&net, net.weights(), NodeId(0), Direction::Forward)
            .unwrap();
        let edges = fwd.path_edges(&net, NodeId(15)).unwrap();
        let p = Path::from_edges(&net, net.weights(), edges);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(15));
        assert_eq!(p.cost_ms, fwd.distance(NodeId(15)));

        let bwd = ws
            .shortest_path_tree(&net, net.weights(), NodeId(15), Direction::Backward)
            .unwrap();
        let edges = bwd.path_edges(&net, NodeId(0)).unwrap();
        let p = Path::from_edges(&net, net.weights(), edges);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(15));
        assert_eq!(p.cost_ms, bwd.distance(NodeId(0)));
    }

    #[test]
    fn tree_root_path_is_empty() {
        let net = grid(3);
        let mut ws = SearchSpace::new(&net);
        let tree = ws
            .shortest_path_tree(&net, net.weights(), NodeId(4), Direction::Forward)
            .unwrap();
        assert_eq!(tree.path_edges(&net, NodeId(4)), Some(vec![]));
    }

    #[test]
    fn one_shot_helper() {
        let net = grid(3);
        let p = shortest_path(&net, net.weights(), NodeId(0), NodeId(8)).unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn stats_count_search_work() {
        let net = grid(4);
        let mut ws = SearchSpace::new(&net);
        ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(15))
            .unwrap();
        let s = ws.last_stats();
        assert!(s.settled > 0);
        assert!(s.settled <= s.heap_pops);
        // Every settled vertex except the source was reached via an edge.
        assert!(s.relaxed + 1 >= s.settled);
    }

    #[test]
    fn attached_metrics_accumulate_across_queries() {
        let net = grid(4);
        let reg = arp_obs::Registry::new();
        let mut ws = SearchSpace::new(&net);
        ws.set_metrics(crate::metrics::SearchMetrics::new(
            &reg,
            &[("algo", "dijkstra")],
        ));
        ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(15))
            .unwrap();
        ws.shortest_path(&net, net.weights(), NodeId(15), NodeId(0))
            .unwrap();
        let labels = &[("algo", "dijkstra")][..];
        assert_eq!(reg.counter_value("arp_search_queries_total", labels), 2);
        assert!(reg.counter_value("arp_search_settled_nodes_total", labels) > 0);
        assert!(reg.counter_value("arp_search_heap_pops_total", labels) > 0);
        assert!(reg.counter_value("arp_search_relaxed_edges_total", labels) > 0);
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let net = grid(5);
        let mut plain = SearchSpace::new(&net);
        let mut budgeted = SearchSpace::new(&net);
        budgeted.set_budget(SearchBudget::unlimited());
        let a = plain
            .shortest_path(&net, net.weights(), NodeId(0), NodeId(24))
            .unwrap();
        let b = budgeted
            .shortest_path(&net, net.weights(), NodeId(0), NodeId(24))
            .unwrap();
        assert_eq!(a.edges, b.edges, "uncancelled paths must be byte-identical");
        assert_eq!(budgeted.last_stats().budget_checks, 0);
    }

    #[test]
    fn pre_cancelled_budget_interrupts_before_any_work() {
        let net = grid(4);
        let mut ws = SearchSpace::new(&net);
        let budget = SearchBudget::new();
        budget.cancel();
        ws.set_budget(budget);
        assert_eq!(
            ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(15)),
            Err(CoreError::Interrupted)
        );
        assert_eq!(ws.last_stats().heap_pops, 0, "released with zero pops");
    }

    #[test]
    fn manual_clock_deadline_interrupts_the_next_poll() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let net = grid(8);
        let clock = Arc::new(AtomicU64::new(0));
        let mut ws = SearchSpace::new(&net);
        ws.set_budget(SearchBudget::new().with_manual_deadline(Arc::clone(&clock), 10));
        // Clock before the deadline: the search completes normally.
        ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(63))
            .unwrap();
        // Advance the injected clock past the deadline: the very next
        // poll interrupts, releasing the worker with zero pops.
        clock.store(10, Ordering::Relaxed);
        assert_eq!(
            ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(63)),
            Err(CoreError::Interrupted)
        );
        assert_eq!(ws.last_stats().heap_pops, 0);
    }

    #[test]
    fn cancellation_from_another_thread_is_observed() {
        let net = grid(16);
        let budget = SearchBudget::new();
        let shared = budget.clone();
        let worker = std::thread::spawn(move || {
            let mut ws = SearchSpace::new(&net);
            ws.set_budget(shared);
            // Keep searching until the owner cancels (bounded retries so a
            // regression fails instead of hanging).
            for _ in 0..1_000_000 {
                match ws.shortest_path_tree(&net, net.weights(), NodeId(0), Direction::Forward) {
                    Ok(_) => continue,
                    Err(CoreError::Interrupted) => return true,
                    Err(_) => return false,
                }
            }
            false
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        budget.cancel();
        assert!(worker.join().unwrap(), "worker observed the cancellation");
    }
}
