//! Customizable contraction hierarchies (CCH) — the epoch-customizable
//! index tier behind the serving substrate.
//!
//! A classic weight-dependent CH prunes shortcuts with witness searches
//! against the *base* weights, so a live-traffic tick invalidates the
//! whole index (a witness path can be slowed or closed arbitrarily, and
//! the pruned shortcut has no replacement). This module splits the index
//! the CRP/CCH way instead:
//!
//! * [`ChTopology`] — the **metric-independent** half, built once per
//!   city at startup: a contraction order over the graph *structure*
//!   (witness searches are demoted to an ordering heuristic; no shortcut
//!   is ever pruned by one) plus the full elimination fill-in, stored as
//!   undirected *arcs* `{lo, hi}` with `rank[lo] < rank[hi]`, the
//!   upward-arc CSR the queries walk, and the precomputed **lower
//!   triangle** list the customization relaxes.
//! * [`ChMetric`] — the cheap per-epoch half: two weights per arc
//!   (`up` = lo→hi, `down` = hi→lo) computed by
//!   [`ChTopology::customize`] in one linear pass over the original
//!   edges (a `CLOSED` edge simply contributes nothing) followed by one
//!   pass over the triangles in middle-rank order. No heap, no witness
//!   searches — re-customizing after a traffic tick costs milliseconds
//!   where rebuilding a weighted hierarchy costs seconds.
//!
//! Because every fill-in arc is kept, basic customization is exact for
//! **any** non-negative metric: overlay factors ≥ 1.0, category slowdowns,
//! and `CLOSED` edges (mapped to [`INFINITY`], which saturates through
//! the triangle relaxations) all yield exact shortest-path distances,
//! verified against Dijkstra in the tests.
//!
//! The point query — [`ChTopology::shortest_path`] /
//! [`ChTopology::distance`] — is the classic bidirectional upward search,
//! run by the shared search kernel over the upward arcs, with recursive
//! triangle unpacking back to original edges.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight, CLOSED, INFINITY};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::kernel::{self, ArcView, Labels, Poller};
use crate::path::Path;

/// Sentinel for "no arc" / "no triangle": the arc weight comes straight
/// from an original edge.
const NONE: u32 = u32::MAX;

/// Weight of the "deleted neighbours" term in the contraction priority.
const DELETED_NEIGHBOURS_WEIGHT: f64 = 1.0;

/// The metric-independent half of a customizable CH: contraction order,
/// fill-in arc set, upward-arc CSR and the lower-triangle list.
///
/// Built once per network by [`ChTopology::build`]; any number of
/// [`ChMetric`]s (one per traffic epoch) can be customized against it
/// concurrently — the topology is never mutated after construction.
pub struct ChTopology {
    num_nodes: usize,
    num_edges: usize,
    /// Contraction rank per node; higher = contracted later.
    rank: Vec<u32>,
    /// Arc endpoints, `rank[arc_lo[a]] < rank[arc_hi[a]]`, numbered by
    /// upper-endpoint rank descending.
    arc_lo: Vec<u32>,
    arc_hi: Vec<u32>,
    /// CSR over arcs keyed by their lower endpoint (the upward
    /// adjacency both query searches walk).
    up_first: Vec<u32>,
    up_arcs: Vec<u32>,
    /// Lower triangles, sorted by middle rank ascending: relaxing them
    /// in order makes one pass sufficient ([`ChTopology::customize`]).
    /// `tri_lo_arc[t] = {mid, lo}` and `tri_hi_arc[t] = {mid, hi}` are
    /// the two side arcs of `tri_arc[t] = {lo, hi}`.
    tri_arc: Vec<u32>,
    tri_lo_arc: Vec<u32>,
    tri_hi_arc: Vec<u32>,
    /// Per original edge: the arc it maps onto (`NONE` for self-loops)
    /// and whether it runs lo→hi (`up`) or hi→lo (`down`).
    edge_arc: Vec<u32>,
    edge_is_up: Vec<bool>,
}

/// One customized metric: per-arc `up`/`down` costs for a single weight
/// column (traffic epoch), plus the unpacking data (`via_*` = the
/// triangle whose lower path won, or the best original edge).
///
/// Stamped with the epoch of the column it was customized from; the
/// serving tier's `IndexManager` only hands a metric to a request pinned
/// to the **same** epoch, so a stale metric can never leak into a newer
/// response.
pub struct ChMetric {
    epoch: u64,
    up: Vec<Cost>,
    down: Vec<Cost>,
    via_up: Vec<u32>,
    via_down: Vec<u32>,
    best_up: Vec<EdgeId>,
    best_down: Vec<EdgeId>,
}

impl ChMetric {
    /// Stamps the metric with the traffic epoch of the weight column it
    /// was customized from (0 = base weights).
    pub fn with_epoch(mut self, epoch: u64) -> ChMetric {
        self.epoch = epoch;
        self
    }

    /// The traffic epoch this metric was customized for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The hierarchy's upward arcs (lower endpoint → higher) under one cost
/// column: `metric.up` climbs along travel direction, `metric.down`
/// climbs against it. Parents are arc ids.
struct UpArcs<'a>(&'a ChTopology, &'a [Cost]);

impl ArcView for UpArcs<'_> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes
    }
    #[inline]
    fn arcs(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let topo = self.0;
        let (first, last) = (topo.up_first[v as usize], topo.up_first[v as usize + 1]);
        topo.up_arcs[first as usize..last as usize].iter().copied()
    }
    #[inline]
    fn to(&self, a: u32) -> u32 {
        self.0.arc_hi[a as usize]
    }
    #[inline]
    fn cost(&self, a: u32) -> Cost {
        self.1[a as usize]
    }
}

impl ChTopology {
    /// Builds the topology. No witness search ever prunes a shortcut —
    /// that would bake the build-time metric into the topology.
    pub fn build(net: &RoadNetwork) -> ChTopology {
        let n = net.num_nodes();
        // Undirected elimination graph (self-loops never matter).
        let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n];
        for e in net.edges() {
            let (t, h) = (net.tail(e).0, net.head(e).0);
            if t != h {
                adj[t as usize].insert(h);
                adj[h as usize].insert(t);
            }
        }

        let mut contracted = vec![false; n];
        let mut deleted = vec![0u32; n];
        let mut rank = vec![0u32; n];
        // Neighbors of each node at its contraction time (all
        // higher-ranked): exactly the arcs with that node as `lo`.
        let mut contract_nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut order: Vec<u32> = Vec::with_capacity(n);

        // Edge difference (fill-in minus degree) plus the
        // deleted-neighbours term, lazily re-evaluated. The fill-in
        // count only steers the order, never the shortcut set.
        let priority =
            |adj: &[HashSet<u32>], contracted: &[bool], deleted: &[u32], v: u32| -> i64 {
                let nbrs: Vec<u32> = adj[v as usize]
                    .iter()
                    .copied()
                    .filter(|&u| !contracted[u as usize])
                    .collect();
                let degree = nbrs.len() as i64;
                let mut fill = 0i64;
                for (i, &a) in nbrs.iter().enumerate() {
                    for &b in nbrs.iter().skip(i + 1) {
                        if !adj[a as usize].contains(&b) {
                            fill += 1;
                        }
                    }
                }
                (fill - degree) * 4
                    + (deleted[v as usize] as f64 * DELETED_NEIGHBOURS_WEIGHT) as i64
            };

        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
        for v in 0..n as u32 {
            heap.push(Reverse((priority(&adj, &contracted, &deleted, v), v)));
        }
        let mut next_rank = 0u32;
        while let Some(Reverse((p, v))) = heap.pop() {
            if contracted[v as usize] {
                continue;
            }
            let current = priority(&adj, &contracted, &deleted, v);
            if current > p {
                heap.push(Reverse((current, v)));
                continue;
            }
            let mut nbrs: Vec<u32> = adj[v as usize]
                .iter()
                .copied()
                .filter(|&u| !contracted[u as usize])
                .collect();
            nbrs.sort_unstable();
            // Chordal fill-in: every neighbor pair becomes adjacent.
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in nbrs.iter().skip(i + 1) {
                    if adj[a as usize].insert(b) {
                        adj[b as usize].insert(a);
                    }
                }
            }
            for &u in &nbrs {
                deleted[u as usize] += 1;
            }
            contracted[v as usize] = true;
            rank[v as usize] = next_rank;
            next_rank += 1;
            contract_nbrs[v as usize] = nbrs;
            order.push(v);
        }

        // Arc set: {v, u} for every u adjacent to v when v contracted.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for &v in &order {
            for &u in &contract_nbrs[v as usize] {
                pairs.push((v, u));
            }
        }
        // Arc ids: upper-endpoint rank descending (deterministic
        // tie-break on the lower endpoint's rank).
        pairs.sort_unstable_by_key(|&(lo, hi)| (Reverse(rank[hi as usize]), rank[lo as usize]));
        let m = pairs.len();
        let mut arc_lo = Vec::with_capacity(m);
        let mut arc_hi = Vec::with_capacity(m);
        let mut arc_index: HashMap<(u32, u32), u32> = HashMap::with_capacity(m);
        for (i, &(lo, hi)) in pairs.iter().enumerate() {
            arc_lo.push(lo);
            arc_hi.push(hi);
            arc_index.insert((lo.min(hi), lo.max(hi)), i as u32);
        }

        // Upward CSR keyed by the lower endpoint.
        let mut up_first = vec![0u32; n + 1];
        for &lo in &arc_lo {
            up_first[lo as usize + 1] += 1;
        }
        for i in 0..n {
            up_first[i + 1] += up_first[i];
        }
        let mut cursor = up_first.clone();
        let mut up_arcs = vec![0u32; m];
        for (i, &lo) in arc_lo.iter().enumerate() {
            up_arcs[cursor[lo as usize] as usize] = i as u32;
            cursor[lo as usize] += 1;
        }

        // Lower triangles, middle rank ascending (= contraction order).
        let mut tri_arc = Vec::new();
        let mut tri_lo_arc = Vec::new();
        let mut tri_hi_arc = Vec::new();
        for &v in &order {
            let nbrs = &contract_nbrs[v as usize];
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in nbrs.iter().skip(i + 1) {
                    let (lo, hi) = if rank[a as usize] < rank[b as usize] {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    tri_arc.push(arc_index[&(lo.min(hi), lo.max(hi))]);
                    tri_lo_arc.push(arc_index[&(v.min(lo), v.max(lo))]);
                    tri_hi_arc.push(arc_index[&(v.min(hi), v.max(hi))]);
                }
            }
        }

        // Map every original edge onto its arc.
        let mut edge_arc = vec![NONE; net.num_edges()];
        let mut edge_is_up = vec![false; net.num_edges()];
        for e in net.edges() {
            let (t, h) = (net.tail(e).0, net.head(e).0);
            if t == h {
                continue;
            }
            edge_arc[e.index()] = arc_index[&(t.min(h), t.max(h))];
            edge_is_up[e.index()] = rank[t as usize] < rank[h as usize];
        }

        ChTopology {
            num_nodes: n,
            num_edges: net.num_edges(),
            rank,
            arc_lo,
            arc_hi,
            up_first,
            up_arcs,
            tri_arc,
            tri_lo_arc,
            tri_hi_arc,
            edge_arc,
            edge_is_up,
        }
    }

    /// Number of arcs (original adjacencies + elimination fill-in).
    pub fn num_arcs(&self) -> usize {
        self.arc_lo.len()
    }

    /// Number of lower triangles the customization relaxes.
    pub fn num_triangles(&self) -> usize {
        self.tri_arc.len()
    }

    /// Contraction rank of a node.
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Whether this topology was built for a network of `net`'s shape.
    pub fn matches(&self, net: &RoadNetwork) -> bool {
        self.num_nodes == net.num_nodes() && self.num_edges == net.num_edges()
    }

    /// Customizes a metric for one weight column (traffic epoch).
    ///
    /// Two linear passes: originals first (`CLOSED` contributes nothing,
    /// leaving the arc at [`INFINITY`] unless a parallel edge or a
    /// triangle fills it), then the triangles in middle-rank order —
    /// each arc's side arcs are final before the arc itself is relaxed,
    /// so one pass yields the exact all-pairs-respecting arc costs for
    /// any non-negative metric.
    pub fn customize(&self, net: &RoadNetwork, weights: &[Weight]) -> Result<ChMetric, CoreError> {
        if weights.len() != self.num_edges {
            return Err(CoreError::WeightLengthMismatch {
                expected: self.num_edges,
                got: weights.len(),
            });
        }
        let m = self.arc_lo.len();
        let mut up = vec![INFINITY; m];
        let mut down = vec![INFINITY; m];
        let mut via_up = vec![NONE; m];
        let mut via_down = vec![NONE; m];
        let mut best_up = vec![EdgeId::INVALID; m];
        let mut best_down = vec![EdgeId::INVALID; m];

        // Edge ids ascend, and the comparison is strict: among equal-cost
        // parallel edges the smallest id wins, keeping unpacked paths
        // deterministic.
        for e in net.edges() {
            let a = self.edge_arc[e.index()];
            if a == NONE {
                continue;
            }
            let w = weights[e.index()];
            if w == CLOSED {
                continue;
            }
            let c = w as Cost;
            if self.edge_is_up[e.index()] {
                if c < up[a as usize] {
                    up[a as usize] = c;
                    best_up[a as usize] = e;
                }
            } else if c < down[a as usize] {
                down[a as usize] = c;
                best_down[a as usize] = e;
            }
        }

        for t in 0..self.tri_arc.len() {
            let a = self.tri_arc[t] as usize;
            let la = self.tri_lo_arc[t] as usize;
            let ha = self.tri_hi_arc[t] as usize;
            // up(a): lo → mid (down side of {mid,lo}) → hi (up side of
            // {mid,hi}).
            if down[la] != INFINITY && up[ha] != INFINITY {
                let c = down[la] + up[ha];
                if c < up[a] {
                    up[a] = c;
                    via_up[a] = t as u32;
                }
            }
            // down(a): hi → mid → lo.
            if down[ha] != INFINITY && up[la] != INFINITY {
                let c = down[ha] + up[la];
                if c < down[a] {
                    down[a] = c;
                    via_down[a] = t as u32;
                }
            }
        }

        Ok(ChMetric {
            epoch: 0,
            up,
            down,
            via_up,
            via_down,
            best_up,
            best_down,
        })
    }

    /// Exact shortest-path distance under `metric`, or `None` when
    /// unreachable, out of range, or `source == target`.
    pub fn distance(&self, metric: &ChMetric, source: NodeId, target: NodeId) -> Option<Cost> {
        let budget = SearchBudget::unlimited();
        self.query(metric, source, target, &mut Poller::new(&budget))
            .ok()
            .flatten()
            .map(|(d, _, _, _)| d)
    }

    /// Exact shortest path under `metric`, unpacked to original edges.
    ///
    /// `weights` must be the column `metric` was customized from — it is
    /// only used to cost the returned [`Path`].
    pub fn shortest_path(
        &self,
        metric: &ChMetric,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<Path, CoreError> {
        let budget = SearchBudget::unlimited();
        let Some((_, meet, fwd, bwd)) =
            self.query(metric, source, target, &mut Poller::new(&budget))?
        else {
            return Err(CoreError::Unreachable { source, target });
        };
        let mut edges = Vec::new();
        // Forward half: walk meet → source collecting upward arcs, then
        // unpack them source-first.
        let mut chain = Vec::new();
        let mut v = meet;
        while v != source.0 {
            let ai = fwd.parent(v);
            chain.push(ai);
            v = self.arc_lo[ai as usize];
        }
        for &ai in chain.iter().rev() {
            self.unpack_up(metric, ai, &mut edges);
        }
        // Backward half: each parent arc is travelled hi → lo.
        let mut v = meet;
        while v != target.0 {
            let ai = bwd.parent(v);
            self.unpack_down(metric, ai, &mut edges);
            v = self.arc_lo[ai as usize];
        }
        Ok(Path::from_edges(net, weights, edges))
    }

    /// Bidirectional upward search, terminating once the smaller of the
    /// two frontiers' next keys cannot beat the best meeting seen.
    /// `Ok(None)` when unreachable; otherwise `(distance, meeting node,
    /// forward labels, backward labels)` whose parents are arc ids.
    #[allow(clippy::type_complexity)]
    pub(crate) fn query(
        &self,
        metric: &ChMetric,
        source: NodeId,
        target: NodeId,
        poller: &mut Poller<'_>,
    ) -> Result<Option<(Cost, u32, Labels, Labels)>, CoreError> {
        kernel::check_endpoints(self.num_nodes, source, target)?;
        let (mut fwd, mut bwd) = (Labels::new(self.num_nodes), Labels::new(self.num_nodes));
        let met = kernel::search_bidirectional(
            &mut fwd,
            &mut bwd,
            &UpArcs(self, &metric.up),
            &UpArcs(self, &metric.down),
            source.0,
            target.0,
            poller,
        )?;
        Ok(met.map(|(d, meet)| (d, meet, fwd, bwd)))
    }

    /// Unpacks the lo→hi traversal of an arc into original edges.
    fn unpack_up(&self, metric: &ChMetric, ai: u32, out: &mut Vec<EdgeId>) {
        let via = metric.via_up[ai as usize];
        if via == NONE {
            debug_assert!(!metric.best_up[ai as usize].is_invalid());
            out.push(metric.best_up[ai as usize]);
        } else {
            // lo → mid (down side of {mid,lo}), then mid → hi.
            self.unpack_down(metric, self.tri_lo_arc[via as usize], out);
            self.unpack_up(metric, self.tri_hi_arc[via as usize], out);
        }
    }

    /// Unpacks the hi→lo traversal of an arc into original edges.
    fn unpack_down(&self, metric: &ChMetric, ai: u32, out: &mut Vec<EdgeId>) {
        let via = metric.via_down[ai as usize];
        if via == NONE {
            debug_assert!(!metric.best_down[ai as usize].is_invalid());
            out.push(metric.best_down[ai as usize]);
        } else {
            // hi → mid (down side of {mid,hi}), then mid → lo.
            self.unpack_down(metric, self.tri_hi_arc[via as usize], out);
            self.unpack_up(metric, self.tri_lo_arc[via as usize], out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchSpace;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;

    fn grid(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..n {
            for x in 0..n {
                ids.push(b.add_node(Point::new(144.0 + x as f64 * 0.01, -37.0 - y as f64 * 0.01)));
            }
        }
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if x + 1 < n {
                    b.add_bidirectional(
                        ids[i],
                        ids[i + 1],
                        EdgeSpec::category(RoadCategory::Primary),
                    );
                }
                if y + 1 < n {
                    b.add_bidirectional(
                        ids[i],
                        ids[i + n],
                        EdgeSpec::category(RoadCategory::Secondary),
                    );
                }
            }
        }
        b.build()
    }

    fn assert_exact(net: &RoadNetwork, weights: &[Weight], topo: &ChTopology, metric: &ChMetric) {
        let mut ws = SearchSpace::new(net);
        let n = net.num_nodes() as u32;
        for s in (0..n).step_by(3) {
            for t in (0..n).step_by(4) {
                if s == t {
                    continue;
                }
                let expect = ws
                    .shortest_distance(net, weights, NodeId(s), NodeId(t))
                    .ok();
                assert_eq!(
                    topo.distance(metric, NodeId(s), NodeId(t)),
                    expect,
                    "{s} -> {t}"
                );
            }
        }
    }

    #[test]
    fn distances_match_dijkstra_on_base_weights() {
        let net = grid(6);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        assert_exact(&net, net.weights(), &topo, &metric);
    }

    #[test]
    fn recustomization_tracks_overlays_and_closures() {
        let net = grid(5);
        let topo = ChTopology::build(&net);
        // Per-edge overlay: every third edge slowed 3x.
        let mut overlay = net.weights().to_vec();
        for (i, w) in overlay.iter_mut().enumerate() {
            if i % 3 == 0 {
                *w = w.saturating_mul(3).min(u32::MAX - 1);
            }
        }
        let metric = topo.customize(&net, &overlay).unwrap();
        assert_exact(&net, &overlay, &topo, &metric);
        // Closures on top: the same topology, another cheap customization.
        overlay[0] = CLOSED;
        overlay[7] = CLOSED;
        let metric = topo.customize(&net, &overlay).unwrap();
        assert_exact(&net, &overlay, &topo, &metric);
    }

    #[test]
    fn closed_only_path_is_unreachable() {
        // 0 -> 1 -> 2, close the only edge into 2.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        let d = b.add_node(Point::new(0.02, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        b.add_edge(c, d, EdgeSpec::default());
        let net = b.build();
        let topo = ChTopology::build(&net);
        let mut overlay = net.weights().to_vec();
        overlay[1] = CLOSED;
        let metric = topo.customize(&net, &overlay).unwrap();
        assert_eq!(topo.distance(&metric, NodeId(0), NodeId(2)), None);
        assert!(matches!(
            topo.shortest_path(&metric, &net, &overlay, NodeId(0), NodeId(2)),
            Err(CoreError::Unreachable { .. })
        ));
        // Reopening (a fresh customization on the restored column)
        // restores exactness — the topology never changed.
        let metric = topo.customize(&net, net.weights()).unwrap();
        assert_exact(&net, net.weights(), &topo, &metric);
    }

    #[test]
    fn unpacked_paths_are_valid_and_optimal() {
        let net = grid(6);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        let mut ws = SearchSpace::new(&net);
        for (s, t) in [(0u32, 35u32), (3, 30), (7, 28), (12, 23), (35, 0)] {
            let p = topo
                .shortest_path(&metric, &net, net.weights(), NodeId(s), NodeId(t))
                .unwrap();
            assert!(p.validate(&net), "{s}->{t}");
            let d = ws
                .shortest_distance(&net, net.weights(), NodeId(s), NodeId(t))
                .unwrap();
            assert_eq!(p.cost_ms, d, "{s}->{t}");
        }
    }

    #[test]
    fn unpacked_paths_avoid_closed_edges() {
        let net = grid(5);
        let topo = ChTopology::build(&net);
        let mut overlay = net.weights().to_vec();
        // Close a handful of edges; every unpacked path must avoid them.
        for i in [0usize, 5, 11, 20] {
            overlay[i] = CLOSED;
        }
        let metric = topo.customize(&net, &overlay).unwrap();
        for (s, t) in [(0u32, 24u32), (4, 20), (2, 22)] {
            if let Ok(p) = topo.shortest_path(&metric, &net, &overlay, NodeId(s), NodeId(t)) {
                for e in &p.edges {
                    assert_ne!(overlay[e.index()], CLOSED, "path uses a closed edge");
                }
            }
        }
    }

    #[test]
    fn ranks_are_a_permutation_and_arcs_cover_edges() {
        let net = grid(5);
        let topo = ChTopology::build(&net);
        let mut ranks: Vec<u32> = (0..25).map(|v| topo.rank(NodeId(v))).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..25).collect::<Vec<_>>());
        assert!(topo.num_arcs() >= 40, "arcs must cover the 40 adjacencies");
        assert!(topo.matches(&net));
    }

    #[test]
    fn metric_epoch_stamp_round_trips() {
        let net = grid(3);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        assert_eq!(metric.epoch(), 0);
        assert_eq!(metric.with_epoch(9).epoch(), 9);
    }
}
