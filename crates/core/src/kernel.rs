//! The one label-setting shortest-path kernel.
//!
//! Every exact node-labelled search in this crate — one-to-one Dijkstra,
//! forward/backward trees and the CCH query — is [`settle_next`] driven
//! by [`search`] or (the CCH query) [`search_bidirectional`],
//! monomorphised over
//!
//! * an [`ArcView`]: which arcs leave a vertex and what they cost
//!   ([`OutEdges`] / [`InEdges`] over a CSR weight [`Column`] here, the
//!   hierarchy's upward arcs over `metric.up` / `metric.down` in
//!   [`crate::cch`]), and
//! * a [`Rule`]: when to stop, what to label and what to observe
//!   ([`Exhaust`], [`ReachTarget`], [`ReachTargetWithin`] — the
//!   one-to-one stop that labels only vertices whose label plus a lower
//!   bound to the target stays within a known walk's cost, which keeps
//!   Penalty's re-searches inside the request's tree pair — the forward
//!   rules [`GrowToBound`] (a ball that learns its radius on the way) and
//!   [`WithinBound`] (the landmark-pruned forward tree, its bound known
//!   in advance) with the backward [`InsideEllipse`], which together grow
//!   a request's tree pair no further than its stretch bound, [`Logged`],
//!   which records any rule's settle order, [`Recorded`], which records
//!   the map cells any rule's search read, and the meeting rule of the
//!   bidirectional upward search, which stops once `min(kf, kb)` reaches
//!   the best meeting).
//!
//! [`Reduced`] is an [`ArcView`] too: out-edges under the reduced costs
//! of a landmark potential, over which the kernel runs the A\* probe that
//! finds a request's `d(s, t)` before its forward tree starts.
//!
//! What every search needs lives here exactly once: the
//! generation-stamped [`Labels`] (including the wrap-around reset), the
//! stale-entry check, the non-traversable-arc skip, the **canonical
//! parent** (a relaxation that ties the label keeps the smaller arc id,
//! so every final label's parent is its smallest tight arc, whatever the
//! pop order) and the [`Poller`] (entry poll, one poll per
//! [`CHECK_INTERVAL`] pops, partial-interval charge on exit, counters that
//! survive an interrupt).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight, CLOSED, INFINITY};

use crate::budget::{SearchBudget, CHECK_INTERVAL};
use crate::error::CoreError;
use crate::metrics::SearchStats;
use crate::query::AltQuery;
use crate::reads::CellSet;
use crate::scratch::{Pool, Scratch};

/// The arcs a search may leave a vertex by, and their costs.
pub(crate) trait ArcView {
    /// Number of vertices (sizes the label store).
    fn num_nodes(&self) -> usize;
    /// Ids of the arcs leaving `v` in this view's direction.
    fn arcs(&self, v: u32) -> impl Iterator<Item = u32> + '_;
    /// The vertex arc `a` leads to.
    fn to(&self, a: u32) -> u32;
    /// Cost of traversing `a`; [`INFINITY`] marks an arc that cannot be
    /// traversed (a `CLOSED` edge, an arc no open edge customizes).
    fn cost(&self, a: u32) -> Cost;
}

/// Per-edge weights a search reads, by edge id: a weight column, or one
/// with closures or penalties laid over another. [`CLOSED`] marks an edge
/// no search may traverse.
pub(crate) trait Weights: Copy {
    /// Number of edges covered.
    fn num_edges(&self) -> usize;
    /// Weight of edge `e`.
    fn weight(&self, e: u32) -> Weight;
}

impl Weights for &[Weight] {
    #[inline]
    fn num_edges(&self) -> usize {
        self.len()
    }
    #[inline]
    fn weight(&self, e: u32) -> Weight {
        self[e as usize]
    }
}

/// `weights`, with every edge that `closures` marks [`CLOSED`] closed too:
/// one column's travel times under another's closures, decided as each
/// edge is read.
#[derive(Clone, Copy)]
pub(crate) struct ClosedWhere<'a> {
    pub(crate) weights: &'a [Weight],
    pub(crate) closures: &'a [Weight],
}

impl Weights for ClosedWhere<'_> {
    /// The edges both columns cover.
    #[inline]
    fn num_edges(&self) -> usize {
        self.weights.len().min(self.closures.len())
    }
    #[inline]
    fn weight(&self, e: u32) -> Weight {
        match self.closures[e as usize] {
            CLOSED => CLOSED,
            _ => self.weights[e as usize],
        }
    }
}

/// A road network paired with weights of matching length — what the two
/// CSR views below read.
#[derive(Clone, Copy)]
pub(crate) struct Column<'a, W> {
    net: &'a RoadNetwork,
    weights: W,
}

impl<'a, W: Weights> Column<'a, W> {
    /// Fails unless `weights` has one entry per edge of `net`.
    pub(crate) fn new(net: &'a RoadNetwork, weights: W) -> Result<Self, CoreError> {
        if weights.num_edges() != net.num_edges() {
            return Err(CoreError::WeightLengthMismatch {
                expected: net.num_edges(),
                got: weights.num_edges(),
            });
        }
        Ok(Column { net, weights })
    }

    #[inline]
    fn cost(&self, e: u32) -> Cost {
        match self.weights.weight(e) {
            CLOSED => INFINITY,
            w => w as Cost,
        }
    }
}

/// Out-edges under a weight column: a forward search, labels are
/// `d(root → v)`, parents are [`EdgeId`]s.
pub(crate) struct OutEdges<'a, W>(pub(crate) Column<'a, W>);

impl<W: Weights> ArcView for OutEdges<'_, W> {
    fn num_nodes(&self) -> usize {
        self.0.net.num_nodes()
    }
    #[inline]
    fn arcs(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.0.net.out_edges(NodeId(v)).map(|e| e.0)
    }
    #[inline]
    fn to(&self, a: u32) -> u32 {
        self.0.net.head(EdgeId(a)).0
    }
    #[inline]
    fn cost(&self, a: u32) -> Cost {
        self.0.cost(a)
    }
}

/// In-edges under a weight column: a backward search, labels are
/// `d(v → root)`, parents are [`EdgeId`]s.
pub(crate) struct InEdges<'a, W>(pub(crate) Column<'a, W>);

impl<W: Weights> ArcView for InEdges<'_, W> {
    fn num_nodes(&self) -> usize {
        self.0.net.num_nodes()
    }
    #[inline]
    fn arcs(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.0.net.in_edges(NodeId(v)).map(|e| e.0)
    }
    #[inline]
    fn to(&self, a: u32) -> u32 {
        self.0.net.tail(EdgeId(a)).0
    }
    #[inline]
    fn cost(&self, a: u32) -> Cost {
        self.0.cost(a)
    }
}

/// Out-edges under the reduced costs `w(u, v) + π(v) − π(u)` of a
/// consistent potential `π` — a lower bound on every vertex's distance to
/// the target that no arc beats, `π(u) ≤ w(u, v) + π(v)`, such as a
/// landmark bound on a column no cheaper than the table's. Reduced costs
/// are then ≥ 0, a search over them is A\*, and it settles the target at
/// `d(root, target) − π(root)`. A zero reduced cost breaks the tie rule's
/// premise, so only labels are read off such a search, never parents.
pub(crate) struct Reduced<'a, W, P> {
    out: OutEdges<'a, W>,
    potential: P,
    /// `π` of the vertex whose arcs are being read: the kernel reads the
    /// costs of `arcs(v)` right after asking for them.
    tail: Cell<Cost>,
}

impl<'a, W, P> Reduced<'a, W, P> {
    pub(crate) fn new(out: OutEdges<'a, W>, potential: P) -> Self {
        Reduced {
            out,
            potential,
            tail: Cell::new(0),
        }
    }
}

impl<W: Weights, P: Fn(u32) -> Cost> ArcView for Reduced<'_, W, P> {
    fn num_nodes(&self) -> usize {
        self.out.num_nodes()
    }
    #[inline]
    fn arcs(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.tail.set((self.potential)(v));
        self.out.arcs(v)
    }
    #[inline]
    fn to(&self, a: u32) -> u32 {
        self.out.to(a)
    }
    #[inline]
    fn cost(&self, a: u32) -> Cost {
        match self.out.cost(a) {
            INFINITY => INFINITY,
            w => (w + (self.potential)(self.to(a))).saturating_sub(self.tail.get()),
        }
    }
}

/// Rejects out-of-range endpoints and `source == target`.
pub(crate) fn check_endpoints(
    num_nodes: usize,
    source: NodeId,
    target: NodeId,
) -> Result<(), CoreError> {
    if source.index() >= num_nodes {
        return Err(CoreError::InvalidNode(source));
    }
    if target.index() >= num_nodes {
        return Err(CoreError::InvalidNode(target));
    }
    if source == target {
        return Err(CoreError::SameSourceTarget(source));
    }
    Ok(())
}

/// When a search stops and what it reports on the way.
pub(crate) trait Rule {
    /// `v` was settled with final label `d`; `true` ends the search before
    /// `v` is expanded.
    #[inline]
    fn settled(&mut self, _v: u32, _d: Cost) -> bool {
        false
    }
    /// Whether a relaxation that would first label `v`, with `d`, is
    /// recorded; a refused vertex is not labelled through that arc. Every
    /// rule's answer is monotone — admitted at `d`, admitted below `d` —
    /// so the kernel asks only when `v` has no label yet: an improvement
    /// of a label is always admitted.
    #[inline]
    fn admits(&self, _v: u32, _d: Cost) -> bool {
        true
    }
    /// The label of `v` just improved to `d`.
    #[inline]
    fn improved(&mut self, _v: u32, _d: Cost) {}
}

/// Run until the heap is empty: a complete tree.
pub(crate) struct Exhaust;

impl Rule for Exhaust {}

/// Stop when the target is settled.
pub(crate) struct ReachTarget(pub(crate) u32);

impl Rule for ReachTarget {
    #[inline]
    fn settled(&mut self, v: u32, _d: Cost) -> bool {
        v == self.0
    }
}

/// [`ReachTarget`] under [`WithinBound`]: labels `v` at `d` only while
/// `d + lower(v) ≤ bound`, given a lower bound `lower(v)` on
/// `d(v, target)` and an upper bound `bound` on `d(root, target)`. Every
/// vertex `u` of a shortest `root → target` path has `d(root, u) +
/// lower(u) ≤ d(root, target) ≤ bound`, so it is labelled exactly, and
/// every tight arc into it comes from another such vertex: the target's
/// label and canonical parent chain are the ones [`ReachTarget`] finds.
pub(crate) struct ReachTargetWithin<L> {
    pub(crate) target: u32,
    pub(crate) within: WithinBound<L>,
}

impl<L: Fn(u32) -> Cost> Rule for ReachTargetWithin<L> {
    #[inline]
    fn settled(&mut self, v: u32, _d: Cost) -> bool {
        v == self.target
    }
    #[inline]
    fn admits(&self, v: u32, d: Cost) -> bool {
        self.within.admits(v, d)
    }
}

/// The forward half of a bounded tree pair: grow from the source until
/// the query's stretch bound. Settling `target` at `d` fixes
/// `bound = query.search_bound(d)`, and the first vertex settled beyond it
/// ends the search — so every label `≤ bound` is final. `bound` starts at
/// — and, when `target` is never reached, stays — [`INFINITY`]: a
/// complete tree.
pub(crate) struct GrowToBound<'a> {
    pub(crate) target: u32,
    pub(crate) query: &'a AltQuery,
    pub(crate) bound: &'a Cell<Cost>,
}

impl Rule for GrowToBound<'_> {
    #[inline]
    fn settled(&mut self, v: u32, d: Cost) -> bool {
        if v == self.target {
            self.bound.set(self.query.search_bound(d));
        }
        d > self.bound.get()
    }
}

/// Label `v` at `d` only while `d + lower(v) ≤ bound`, given a lower
/// bound `lower(v)` on `d(v, target)`. Alone it is the forward half of a
/// landmark-pruned tree pair, its stretch bound known in advance: with a
/// consistent `lower` and run to exhaustion, every label is final and
/// exact — every vertex of a shortest path to an admitted vertex is
/// admitted too — and every vertex of the stretch ellipse is labelled,
/// with its canonical parent.
pub(crate) struct WithinBound<L> {
    pub(crate) lower: L,
    pub(crate) bound: Cost,
}

impl<L: Fn(u32) -> Cost> Rule for WithinBound<L> {
    #[inline]
    fn admits(&self, v: u32, d: Cost) -> bool {
        d + (self.lower)(v) <= self.bound
    }
}

/// The backward half: label `v` only while `d_f(v) + d ≤ bound`, reading
/// `d_f` off the finished forward labels. Run to exhaustion this labels
/// exactly the stretch ellipse, every label final: a shortest-path
/// successor of an in-ellipse vertex lies in the ellipse too.
pub(crate) struct InsideEllipse<'a> {
    pub(crate) forward: &'a [Cost],
    pub(crate) bound: Cost,
}

impl Rule for InsideEllipse<'_> {
    #[inline]
    fn admits(&self, v: u32, d: Cost) -> bool {
        let df = self.forward[v as usize];
        df != INFINITY && df + d <= self.bound
    }
}

/// `rule`, with every vertex it settles appended to `order`: each vertex
/// after the other end of its tight arcs, so a tree's parent always
/// precedes its child.
pub(crate) struct Logged<'a, R> {
    pub(crate) rule: R,
    pub(crate) order: &'a mut Vec<NodeId>,
}

impl<R: Rule> Rule for Logged<'_, R> {
    #[inline]
    fn settled(&mut self, v: u32, d: Cost) -> bool {
        self.order.push(NodeId(v));
        self.rule.settled(v, d)
    }
    #[inline]
    fn admits(&self, v: u32, d: Cost) -> bool {
        self.rule.admits(v, d)
    }
    #[inline]
    fn improved(&mut self, v: u32, d: Cost) {
        self.rule.improved(v, d)
    }
}

/// `rule`, with the map cell of every vertex it settles added to `read`
/// (`cells[v]` is the cell of `v`): the search reads the arcs of each
/// one, and no others ([`crate::reads`]).
pub(crate) struct Recorded<'a, R> {
    pub(crate) rule: R,
    pub(crate) cells: &'a [u16],
    pub(crate) read: &'a mut CellSet,
}

impl<R: Rule> Rule for Recorded<'_, R> {
    #[inline]
    fn settled(&mut self, v: u32, d: Cost) -> bool {
        self.read.insert(self.cells[v as usize]);
        self.rule.settled(v, d)
    }
    #[inline]
    fn admits(&self, v: u32, d: Cost) -> bool {
        self.rule.admits(v, d)
    }
    #[inline]
    fn improved(&mut self, v: u32, d: Cost) {
        self.rule.improved(v, d)
    }
}

/// Generation-stamped label store plus its priority queue.
///
/// Starting a query bumps the generation instead of clearing, so a query
/// touches only the vertices it labels; an entry is live only while its
/// stamp equals the current generation. That makes every store clean
/// between queries, so stores are lent from a [`Pool`].
#[derive(Default)]
pub(crate) struct Labels {
    dist: Vec<Cost>,
    parent: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
}

impl Labels {
    /// An empty store for `n` vertices.
    pub(crate) fn new(n: usize) -> Labels {
        Labels {
            dist: vec![0; n],
            parent: vec![0; n],
            stamp: vec![0; n],
            generation: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            *self = Labels::new(n);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: reset everything once every 2^32 queries.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
    }

    /// Label of `v` in the current query ([`INFINITY`] = unlabelled).
    #[inline]
    pub(crate) fn dist(&self, v: u32) -> Cost {
        if self.stamp[v as usize] == self.generation {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    /// The smallest arc id among those that gave `v` its current label:
    /// for a final label, its smallest tight arc. Only meaningful for a
    /// labelled vertex other than the root.
    #[inline]
    pub(crate) fn parent(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    #[inline]
    fn set(&mut self, v: u32, d: Cost, parent: u32) {
        self.stamp[v as usize] = self.generation;
        self.dist[v as usize] = d;
        self.parent[v as usize] = parent;
    }

    fn seed(&mut self, root: u32) {
        self.set(root, 0, u32::MAX);
        self.heap.push(Reverse((0, root)));
    }

    fn next_key(&self) -> Cost {
        self.heap.peek().map_or(INFINITY, |Reverse((key, _))| *key)
    }
}

impl Scratch for Labels {
    fn pool() -> &'static Pool<Labels> {
        static POOL: Pool<Labels> = Pool::new();
        &POOL
    }
    fn with_size(n: usize) -> Labels {
        Labels::new(n)
    }
    fn size(&self) -> usize {
        self.stamp.len()
    }
    /// Nothing to undo: the next query's generation retires every label.
    fn clean(&mut self) {}
}

/// Budget polling and work counting for one query.
pub(crate) struct Poller<'a> {
    budget: &'a SearchBudget,
    stats: SearchStats,
    pops_since_poll: u64,
}

impl<'a> Poller<'a> {
    pub(crate) fn new(budget: &'a SearchBudget) -> Poller<'a> {
        Poller {
            budget,
            stats: SearchStats::default(),
            pops_since_poll: 0,
        }
    }

    /// Polls the budget, charging `pops` heap pops. Free when unlimited.
    #[inline]
    fn poll(&mut self, pops: u64) -> Result<(), CoreError> {
        if self.budget.is_limited() {
            self.stats.budget_checks += 1;
            if self.budget.charge(pops) {
                return Err(CoreError::Interrupted);
            }
        }
        Ok(())
    }

    #[inline]
    fn popped(&mut self) -> Result<(), CoreError> {
        self.stats.heap_pops += 1;
        self.pops_since_poll += 1;
        if self.pops_since_poll == CHECK_INTERVAL {
            self.pops_since_poll = 0;
            self.poll(CHECK_INTERVAL)?;
        }
        Ok(())
    }

    /// Charges the partial interval, keeping the budget's expansion count
    /// cumulative across queries, and hands back the query's counters —
    /// also after an interrupt, so callers can still flush them.
    pub(crate) fn finish(self) -> SearchStats {
        self.budget.charge(self.pops_since_poll);
        self.stats
    }
}

/// Pops one heap entry of `labels` and, unless it is stale, settles and
/// expands its vertex. `false` once this store's search is over: the heap
/// ran dry or the rule stopped at the settled vertex.
#[inline]
fn settle_next<A: ArcView, R: Rule>(
    labels: &mut Labels,
    arcs: &A,
    rule: &mut R,
    poller: &mut Poller<'_>,
) -> Result<bool, CoreError> {
    let Some(Reverse((d, v))) = labels.heap.pop() else {
        return Ok(false);
    };
    poller.popped()?;
    if d > labels.dist(v) {
        return Ok(true); // stale entry
    }
    poller.stats.settled += 1;
    if rule.settled(v, d) {
        return Ok(false);
    }
    for a in arcs.arcs(v) {
        poller.stats.relaxed += 1;
        let w = arcs.cost(a);
        if w == INFINITY {
            continue;
        }
        let (to, nd) = (arcs.to(a), d + w);
        let label = labels.dist(to);
        if nd < label && (label != INFINITY || rule.admits(to, nd)) {
            labels.set(to, nd, a);
            labels.heap.push(Reverse((nd, to)));
            rule.improved(to, nd);
        } else if nd == label && a < labels.parent(to) {
            // A tie keeps the smaller arc id. Costs are ≥ 1 (the network
            // builder floors every weight at 1 ms), so every tight arc's
            // tail settles before its head: a final label's parent is its
            // smallest tight arc, whatever the pop order.
            labels.parent[to as usize] = a;
        }
    }
    Ok(true)
}

/// Unidirectional search from `root` until `rule` stops it or the heap
/// runs dry. The caller validates `root`.
pub(crate) fn search<A: ArcView, R: Rule>(
    labels: &mut Labels,
    arcs: &A,
    root: u32,
    mut rule: R,
    poller: &mut Poller<'_>,
) -> Result<(), CoreError> {
    labels.begin(arcs.num_nodes());
    poller.poll(0)?;
    labels.seed(root);
    while settle_next(labels, arcs, &mut rule, poller)? {}
    Ok(())
}

/// The bidirectional meeting rule: every label improvement on one side
/// is a candidate meeting with the other side's current label.
struct Meet<'a> {
    other: &'a Labels,
    /// Cost and vertex of the best meeting seen.
    best: &'a mut (Cost, u32),
}

impl Rule for Meet<'_> {
    #[inline]
    fn improved(&mut self, v: u32, d: Cost) {
        let total = d.saturating_add(self.other.dist(v));
        if total < self.best.0 {
            *self.best = (total, v);
        }
    }
}

/// The CCH query's bidirectional upward search: `fwd` grows from
/// `source` over `out`, `bwd` from `target` over `inn`, always expanding
/// the side with the smaller next key, until `min(kf, kb)` — on upward
/// arcs, a lower bound on any meeting not yet seen — reaches the best one
/// found. Returns `(distance, meeting vertex)`, or `None` when
/// unreachable. The caller validates the endpoints (`source != target`).
pub(crate) fn search_bidirectional<F: ArcView, B: ArcView>(
    fwd: &mut Labels,
    bwd: &mut Labels,
    out: &F,
    inn: &B,
    source: u32,
    target: u32,
    poller: &mut Poller<'_>,
) -> Result<Option<(Cost, u32)>, CoreError> {
    fwd.begin(out.num_nodes());
    bwd.begin(inn.num_nodes());
    poller.poll(0)?;
    fwd.seed(source);
    bwd.seed(target);
    let mut best = (INFINITY, u32::MAX);
    loop {
        let (kf, kb) = (fwd.next_key(), bwd.next_key());
        if kf.min(kb) >= best.0 {
            break;
        }
        let best = &mut best;
        if kf <= kb {
            settle_next(fwd, out, &mut Meet { other: bwd, best }, poller)?;
        } else {
            settle_next(bwd, inn, &mut Meet { other: fwd, best }, poller)?;
        }
    }
    Ok((best.0 != INFINITY).then_some(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cch::ChTopology;
    use crate::fixtures::grid;
    use crate::search::{Direction, SearchSpace};
    use arp_citygen::{City, Scale};
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::geo::Point;

    /// The labels of one unbudgeted search.
    fn labels_of<A: ArcView, R: Rule>(arcs: &A, root: NodeId, rule: R) -> Labels {
        let mut labels = Labels::new(arcs.num_nodes());
        let budget = SearchBudget::unlimited();
        search(&mut labels, arcs, root.0, rule, &mut Poller::new(&budget)).unwrap();
        labels
    }

    #[test]
    fn a_tie_keeps_the_smaller_arc_in_either_relaxation_order() {
        // Diamond s→{a,b}→t, both branches costing 4, plus a far vertex
        // beyond the stretch bound. In the first weighting `a` settles
        // before `b` from the source and after it from the target, in the
        // second the other way round: the smaller tight arc of `t`
        // (forward) and of `s` (backward) is relaxed first in one and
        // second in the other.
        for [sa, at, sb, bt] in [[1, 3, 3, 1], [3, 1, 1, 3]] {
            let mut g = GraphBuilder::new();
            let [s, a, b, t, far] =
                [0, 1, 2, 3, 4].map(|i| g.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)));
            for (u, v, w) in [(s, a, sa), (a, t, at), (s, b, sb), (b, t, bt), (t, far, 10)] {
                g.add_edge(u, v, EdgeSpec::default().with_weight(w));
            }
            let net = g.build();
            let edge = |u, v| net.out_edges(u).find(|&e| net.head(e) == v).unwrap().0;
            let into_t = edge(a, t).min(edge(b, t));
            let out_of_s = edge(s, a).min(edge(s, b));
            let column = Column::new(&net, net.weights()).unwrap();
            let (out, inn) = (OutEdges(column), InEdges(column));

            let forward = labels_of(&out, s, Exhaust);
            assert_eq!((forward.dist(t.0), forward.parent(t.0)), (4, into_t));
            assert_eq!(labels_of(&out, s, ReachTarget(t.0)).parent(t.0), into_t);
            assert_eq!(labels_of(&inn, t, Exhaust).parent(s.0), out_of_s);
            assert_eq!(labels_of(&inn, t, ReachTarget(s.0)).parent(s.0), out_of_s);
            // Exact lower bounds and an exact limit: both branches pass
            // with equality, `far` (no way to `t`) never does.
            let to_t = labels_of(&inn, t, Exhaust);
            let within = ReachTargetWithin {
                target: t.0,
                within: WithinBound {
                    lower: |v| to_t.dist(v).min(5),
                    bound: 4,
                },
            };
            assert_eq!(labels_of(&out, s, within).parent(t.0), into_t);

            let (query, bound) = (AltQuery::paper(), Cell::new(INFINITY));
            let to_bound = GrowToBound {
                target: t.0,
                query: &query,
                bound: &bound,
            };
            let ball = labels_of(&out, s, to_bound);
            assert_eq!((bound.get(), ball.parent(t.0)), (5, into_t));
            let ball: Vec<Cost> = (0..5).map(|v| ball.dist(v)).collect();
            let inside = InsideEllipse {
                forward: &ball,
                bound: bound.get(),
            };
            let ellipse = labels_of(&inn, t, inside);
            assert_eq!((ellipse.dist(s.0), ellipse.parent(s.0)), (4, out_of_s));
            assert_eq!(ellipse.dist(far.0), INFINITY);
        }
    }

    #[test]
    fn budget_contract_holds_for_every_instantiation() {
        let city = arp_citygen::generate(City::Dhaka, Scale::Small, 11);
        let (net, w) = (&city.network, city.network.weights());
        let topo = ChTopology::build(net);
        let metric = topo.customize(net, w).unwrap();
        let (s, t) = (NodeId(3), NodeId(net.num_nodes() as u32 - 5));
        let query = AltQuery::paper();
        fn grow<'a>(t: NodeId, query: &'a AltQuery, bound: &'a Cell<Cost>) -> GrowToBound<'a> {
            let target = t.0;
            GrowToBound {
                target,
                query,
                bound,
            }
        }
        let bound = Cell::new(INFINITY);
        let ball = SearchSpace::new(net)
            .tree_under(
                net,
                w,
                s,
                Direction::Forward,
                grow(t, &query, &bound),
                || bound.get(),
            )
            .unwrap();
        let bound = bound.get();
        // Every instantiation of the kernel: run one query under `budget`,
        // report how it ended and what it counted.
        let run = |which: &str, budget: &SearchBudget| {
            let mut ws = SearchSpace::new(net);
            ws.set_budget(budget.clone());
            let mut poller = Poller::new(budget);
            let mut stats = SearchStats::default();
            let outcome = match which {
                "one-to-one" => ws.shortest_path(net, w, s, t).map(drop),
                "pruned one-to-one" => {
                    let limit = ball.distance(t);
                    ws.shortest_path_within(net, w, s, t, |_| 0, limit)
                        .map(drop)
                }
                "forward tree" => ws
                    .shortest_path_tree(net, w, s, Direction::Forward)
                    .map(drop),
                "backward tree" => ws
                    .shortest_path_tree(net, w, t, Direction::Backward)
                    .map(drop),
                "bounded forward tree" => {
                    let learnt = Cell::new(INFINITY);
                    ws.tree_under(
                        net,
                        w,
                        s,
                        Direction::Forward,
                        grow(t, &query, &learnt),
                        || INFINITY,
                    )
                    .map(drop)
                }
                "bounded backward tree" => {
                    let inside = InsideEllipse {
                        forward: ball.distances(),
                        bound,
                    };
                    ws.tree_under(net, w, t, Direction::Backward, inside, || INFINITY)
                        .map(drop)
                }
                _ => topo.query(&metric, s, t, &mut poller).map(drop),
            };
            stats.accumulate(&ws.last_stats());
            stats.accumulate(&poller.finish());
            (outcome, stats)
        };
        for name in [
            "one-to-one",
            "pruned one-to-one",
            "forward tree",
            "backward tree",
            "bounded forward tree",
            "bounded backward tree",
            "CCH query",
        ] {
            // A pre-cancelled budget releases the caller before any work.
            let cancelled = SearchBudget::new();
            cancelled.cancel();
            let (outcome, stats) = run(name, &cancelled);
            assert_eq!(outcome, Err(CoreError::Interrupted), "{name}");
            assert_eq!((stats.heap_pops, stats.settled), (0, 0), "{name}");
            assert_eq!(stats.budget_checks, 1, "{name}: the entry poll");

            // Without a cap every pop is charged, partial intervals
            // included, and the charge is cumulative across queries.
            let open = SearchBudget::new();
            let (outcome, first) = run(name, &open);
            assert_eq!(outcome, Ok(()), "{name}");
            assert!(first.settled > 0 && first.settled <= first.heap_pops);
            assert_eq!(open.expansions(), first.heap_pops, "{name}");
            let (_, second) = run(name, &open);
            assert_eq!(second, first, "{name}: same query, same work");
            assert_eq!(open.expansions(), 2 * first.heap_pops, "{name}");

            // A cap trips within one check interval of being reached,
            // whether inside a long query or at the entry of a later one.
            let cap = first.heap_pops + first.heap_pops / 2;
            let capped = SearchBudget::new().with_expansion_cap(cap);
            let mut popped = 0;
            let tripped = (0..4).any(|_| {
                let (outcome, stats) = run(name, &capped);
                popped += stats.heap_pops;
                outcome == Err(CoreError::Interrupted)
            });
            assert!(tripped, "{name}: cap never tripped");
            assert_eq!(capped.expansions(), popped, "{name}");
            assert!(
                (cap..cap + CHECK_INTERVAL).contains(&popped),
                "{name}: cap {cap}, popped {popped}"
            );
        }
    }

    #[test]
    fn expansion_cap_interrupts_within_one_check_interval() {
        // 4096 nodes: a full tree search far exceeds two intervals.
        let net = grid(64);
        let mut ws = SearchSpace::new(&net);
        ws.set_budget(SearchBudget::new().with_expansion_cap(2 * CHECK_INTERVAL));
        let err = ws
            .shortest_path_tree(&net, net.weights(), NodeId(0), Direction::Forward)
            .unwrap_err();
        assert_eq!(err, CoreError::Interrupted);
        let s = ws.last_stats();
        assert!(
            s.heap_pops <= 2 * CHECK_INTERVAL,
            "must stop within one interval of the cap, popped {}",
            s.heap_pops
        );
        assert!(s.budget_checks >= 2);
    }

    #[test]
    fn expansion_cap_accumulates_across_queries() {
        let net = grid(16);
        let mut ws = SearchSpace::new(&net);
        ws.set_budget(SearchBudget::new().with_expansion_cap(CHECK_INTERVAL));
        // Small queries never hit the in-loop interval check, but their
        // residual pops accumulate; eventually the entry poll trips.
        let mut tripped = false;
        for _ in 0..10_000 {
            match ws.shortest_distance(&net, net.weights(), NodeId(0), NodeId(255)) {
                Ok(_) => {}
                Err(CoreError::Interrupted) => {
                    tripped = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(tripped, "cumulative expansion cap never tripped");
    }

    #[test]
    fn stamp_wrap_around_resets_the_store() {
        let net = grid(3);
        let arcs = OutEdges(Column::new(&net, net.weights()).unwrap());
        let budget = SearchBudget::unlimited();
        let mut labels = Labels::new(net.num_nodes());
        // Generation 1 labels every vertex …
        search(&mut labels, &arcs, 0, Exhaust, &mut Poller::new(&budget)).unwrap();
        assert_ne!(labels.dist(0), INFINITY);
        // … and 2^32 queries later generation 1 comes round again: the
        // old stamps must not read as labels of the new query.
        labels.generation = u32::MAX;
        let stop_at_root = ReachTarget(8);
        search(
            &mut labels,
            &arcs,
            8,
            stop_at_root,
            &mut Poller::new(&budget),
        )
        .unwrap();
        assert_eq!(labels.generation, 1, "generation 0 is skipped");
        assert_eq!(labels.dist(8), 0);
        assert_eq!(labels.dist(0), INFINITY, "stale stamps were cleared");
    }
}
