//! The **search substrate**: the one input every technique is a function
//! of.
//!
//! The paper's query processor answers each request by running four
//! alternative-route techniques on the same (source, target) pair, and
//! three of them are defined on the same raw material — Plateaus joins a
//! forward and a backward shortest-path tree, SSVP-D+ sweeps via-nodes
//! over the same pair, and Penalty starts from the base optimal route,
//! which is just the forward tree's path to the target, and keeps its
//! re-searches inside what the pair's labels prove
//! (`SearchSubstrate::target_lower_bound`). A [`SearchSubstrate`] is
//! that material: one forward tree, one backward tree (each with the
//! order its search settled it in), the base route, the endpoints and
//! [`AltQuery`] it was grown for, and the build's [`SearchStats`].
//!
//! Every technique only looks at vertices inside the query's **stretch
//! ellipse**, `d_f(v) + d_b(v) ≤ B = ε·d(s,t)`, so the pair is grown no
//! further. [`SearchSubstrate::build`] takes the column's
//! [`Landmarks`] table: an A\* probe over its reduced costs finds
//! `d(s,t)` and so `B`, the forward search then labels `v` only while
//! `d + lb(v,t) ≤ B`, and the backward search labels the ellipse. With
//! the empty table there is no probe and the forward search is the plain
//! ball of radius `B`, which learns `B` when it settles the target. Either
//! way the build records the bound it grew to. Inside the ellipse labels
//! **and parents** equal the complete trees' — the kernel keeps the
//! smallest tight edge as every tree's parent, a shortest-path predecessor
//! of an in-ellipse vertex is itself in the ellipse, and the landmark
//! bound, being consistent, never prunes one — so every technique returns
//! the routes it returns on complete trees (the differential property
//! tests in `crates/core/tests/proptests.rs` pin this down). Every
//! forward label outside the ellipse is exact too. Every technique that
//! reads the pair is handed it ([`crate::AlternativesProvider::answer`]);
//! whoever grew it — a serving layer once per request, or
//! [`crate::AlternativesProvider::alternatives`] per call — grew it with
//! this one function: a substrate has one supplier. The Google-like
//! provider reads only the pair's [`Trip`] and grows its own on its
//! private column and its own table, with the same function.
//!
//! Every build cooperates with cancellation: it runs under the
//! workspace's [`crate::SearchBudget`], and a trip mid-build surfaces as
//! [`CoreError::Interrupted`].

use std::cell::Cell;
use std::sync::Arc;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{Cost, Weight, INFINITY};

use crate::error::CoreError;
use crate::kernel::{GrowToBound, InsideEllipse, Weights, WithinBound};
use crate::landmarks::{Landmarks, Toward};
use crate::metrics::{Funnel, SearchStats};
use crate::path::Path;
use crate::query::AltQuery;
use crate::search::{Direction, SearchSpace, ShortestPathTree};

/// What a request asks for, on no column in particular: its endpoints
/// and the [`AltQuery`] they are answered under. A [`SearchSubstrate`]
/// records the trip it was grown for ([`SearchSubstrate::trip`]); a
/// technique that grows its own pair on its own column reads nothing
/// else ([`crate::AlternativesProvider::reads_pair`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trip {
    /// The source vertex.
    pub source: NodeId,
    /// The target vertex.
    pub target: NodeId,
    /// The query the trip is answered under.
    pub query: AltQuery,
}

/// Per-request search artifacts shared read-only across techniques:
/// forward + backward shortest-path trees, the base optimal route, the
/// request they answer and the build's work counters.
///
/// The artifact is tied to the weight column it was built on; callers
/// that query several columns (e.g. the Google-like provider's private
/// weights) grow a pair per column. Keeping column and pair together is
/// the supplier's contract — a serving layer keeps both on the request
/// that pinned them.
#[derive(Debug)]
pub struct SearchSubstrate {
    trip: Trip,
    /// Every vertex with `d_f + d_b ≤ bound` carries its exact labels.
    bound: Cost,
    /// The table the pair was grown with, and the target's row in it with
    /// the bound scale the table is read at.
    landmarks: Arc<Landmarks>,
    toward: Toward,
    forward: ShortestPathTree,
    backward: ShortestPathTree,
    base: Path,
    build_stats: SearchStats,
}

impl SearchSubstrate {
    /// Grows the tree pair of `query` in `ws` — under its budget, into its
    /// metrics: the forward tree from `source` over what the stretch bound
    /// `B = query.search_bound(d(source, target))` admits, the backward
    /// tree from `target` over the ellipse inside it, and the base route
    /// read off the forward tree. This is the one place a tree pair is
    /// grown for a request.
    ///
    /// `landmarks` is the table of a column `base` ([`Landmarks::build`]),
    /// or the empty table, and `scale` a bound scale (16.16 fixed point,
    /// [`UNIT_SCALE`](arp_roadnet::weight::UNIT_SCALE) = 1.0) with
    /// `w ≥ scale · base` on every open edge of `weights`: a traffic epoch of the base column passes its snapshot's
    /// `bound_scale`, any column no cheaper edge by edge than the table's
    /// passes `UNIT_SCALE`. The bound read is then `⌊scale · lb(v,
    /// target)⌋`, a lower bound on `weights` (`d ≥ scale · d_base ≥ scale ·
    /// lb`) and consistent on it (`scale · lb(u) ≤ scale · base(u, v) +
    /// scale · lb(v) ≤ w(u, v) + scale · lb(v)`, and the floor keeps that,
    /// `w` being an integer). A table finds `B` with an A\* probe first and
    /// prunes the forward tree to `d + ⌊scale · lb(v, target)⌋ ≤ B`; the
    /// empty table grows the forward tree as the ball of radius `B`. The
    /// pair's labels inside the ellipse are the same either way.
    ///
    /// A workspace that records ([`SearchSpace::record_reads`]) records
    /// the cells the probe and both trees settled: every weight the pair
    /// depends on is an edge out of a forward-settled vertex or into a
    /// backward-settled one.
    ///
    /// Failures: [`CoreError::SameSourceTarget`] for `source == target`,
    /// [`CoreError::Unreachable`] when `target` cannot be reached,
    /// [`CoreError::Interrupted`] when the budget trips. The error carries
    /// the base route when the forward tree had already proven it — a trip
    /// during the backward tree — so an interrupted caller still has the
    /// optimal route to serve as its partial.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        ws: &mut SearchSpace,
        net: &RoadNetwork,
        weights: &[Weight],
        landmarks: &Arc<Landmarks>,
        scale: u32,
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
    ) -> Result<SearchSubstrate, (CoreError, Option<Path>)> {
        Self::build_under(ws, net, weights, landmarks, scale, source, target, query)
    }

    /// [`SearchSubstrate::build`] over any [`Weights`] — the Google-like
    /// provider's private column under the public closures.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_under(
        ws: &mut SearchSpace,
        net: &RoadNetwork,
        weights: impl Weights,
        landmarks: &Arc<Landmarks>,
        scale: u32,
        source: NodeId,
        target: NodeId,
        query: &AltQuery,
    ) -> Result<SearchSubstrate, (CoreError, Option<Path>)> {
        if source == target {
            return Err((CoreError::SameSourceTarget(source), None));
        }
        let toward = landmarks.toward(target, scale);
        let lower = |v| landmarks.lower(v, &toward);
        let mut build_stats = SearchStats::default();
        let (forward, bound) = if landmarks.is_empty() {
            let bound = Cell::new(INFINITY);
            let to_bound = GrowToBound {
                target: target.0,
                query,
                bound: &bound,
            };
            let forward = ws
                .tree_under(net, weights, source, Direction::Forward, to_bound, || {
                    bound.get()
                })
                .map_err(|e| (e, None))?;
            (forward, bound.get())
        } else {
            let best = ws
                .distance_toward(net, weights, source, target, lower)
                .map_err(|e| (e, None))?;
            build_stats.accumulate(&ws.last_stats());
            let bound = query.search_bound(best);
            let within = WithinBound { lower, bound };
            let forward = ws
                .tree_under(net, weights, source, Direction::Forward, within, || bound)
                .map_err(|e| (e, None))?;
            (forward, bound)
        };
        build_stats.accumulate(&ws.last_stats());
        if !forward.reached(target) {
            return Err((CoreError::Unreachable { source, target }, None));
        }
        let inside = InsideEllipse {
            forward: forward.distances(),
            bound,
        };
        let backward = ws
            .tree_under(net, weights, target, Direction::Backward, inside, || {
                INFINITY
            })
            .map_err(|e| (e, Some(base_route(net, weights, &forward, target))))?;
        build_stats.accumulate(&ws.last_stats());
        Ok(SearchSubstrate {
            trip: Trip {
                source,
                target,
                query: *query,
            },
            bound,
            landmarks: Arc::clone(landmarks),
            toward,
            base: base_route(net, weights, &forward, target),
            forward,
            backward,
            build_stats,
        })
    }

    /// The via-cost the pair was grown to: every vertex with
    /// `d_f + d_b ≤ bound` carries the labels and parents of the complete
    /// trees, nothing beyond it is promised.
    pub fn bound(&self) -> Cost {
        self.bound
    }

    /// The trip the pair was grown for: its endpoints and query.
    pub fn trip(&self) -> &Trip {
        &self.trip
    }

    /// The request's source vertex (the forward tree's root).
    pub fn source(&self) -> NodeId {
        self.trip.source
    }

    /// The request's target vertex (the backward tree's root).
    pub fn target(&self) -> NodeId {
        self.trip.target
    }

    /// The query the pair was grown for: its stretch set the bound, and
    /// every technique handed the pair answers it.
    pub fn query(&self) -> &AltQuery {
        &self.trip.query
    }

    /// The forward shortest-path tree rooted at the source.
    pub fn forward(&self) -> &ShortestPathTree {
        &self.forward
    }

    /// The backward shortest-path tree rooted at the target.
    pub fn backward(&self) -> &ShortestPathTree {
        &self.backward
    }

    /// The base optimal route, `sp(source, target)`. Byte-identical to
    /// what [`crate::shortest_path`] returns for the same overlay.
    pub fn base_route(&self) -> &Path {
        &self.base
    }

    /// Work counters of the substrate build (the probe, when a table
    /// prunes the pair, and both tree searches accumulated) — what a
    /// request pays for its pair, exactly once.
    pub fn build_stats(&self) -> SearchStats {
        self.build_stats
    }

    /// A lower bound on `d(a, b)` under the column the pair was grown on,
    /// read off its labels: `d_f(b) − d_f(a)` and `d_b(a) − d_b(b)` (the
    /// triangle inequality through the source and through the target),
    /// each only where both labels are present — and every present label
    /// is exact: the forward search settles every label it keeps, each
    /// one's shortest path admitted before it, and the backward search is
    /// complete over the ellipse. 0 when no label pair applies.
    pub(crate) fn distance_lower_bound(&self, a: NodeId, b: NodeId) -> Cost {
        let gap = |tree: &ShortestPathTree, near: NodeId, far: NodeId| {
            let (near, far) = (tree.distance(near), tree.distance(far));
            if near == INFINITY || far == INFINITY {
                0
            } else {
                far.saturating_sub(near)
            }
        };
        gap(&self.forward, a, b).max(gap(&self.backward, b, a))
    }

    /// A lower bound on `d(v, target)` under the column the pair was grown
    /// on, and so under any column no cheaper edge by edge: `d_b(v)` inside
    /// the ellipse; for a forward-labelled vertex outside it, the larger of
    /// `bound + 1 − d_f(v)` (since `d_f(v) + d_b(v) > bound` there) and the
    /// landmark bound `lb(v)`, read at the build's bound scale; `lb(v)` for
    /// a vertex neither tree reached.
    #[inline]
    pub(crate) fn target_lower_bound(&self, v: u32) -> Cost {
        let node = NodeId(v);
        match (self.backward.distance(node), self.forward.distance(node)) {
            (INFINITY, INFINITY) => self.landmarks.lower(v, &self.toward),
            (INFINITY, df) => (self.bound + 1 - df).max(self.landmarks.lower(v, &self.toward)),
            (db, _) => db,
        }
    }
}

/// The prologue of a technique fed a tree pair: resets `funnel`, then
/// answers `None` when `query` asks for no route, fails on equal or
/// disconnected endpoints, and otherwise yields the optimum's cost and
/// the query's stretch bound on it.
pub(crate) fn open_pair(
    query: &AltQuery,
    funnel: &mut Funnel,
    fwd: &ShortestPathTree,
    bwd: &ShortestPathTree,
) -> Result<Option<(Cost, Cost)>, CoreError> {
    *funnel = Funnel::default();
    if query.k == 0 {
        return Ok(None);
    }
    let (source, target) = (fwd.root, bwd.root);
    if source == target {
        return Err(CoreError::SameSourceTarget(source));
    }
    debug_assert_eq!(fwd.direction, Direction::Forward);
    debug_assert_eq!(bwd.direction, Direction::Backward);
    if !fwd.reached(target) {
        return Err(CoreError::Unreachable { source, target });
    }
    let best = fwd.distance(target);
    Ok(Some((best, query.cost_bound(best))))
}

/// `sp(root, target)` read off a forward tree that reaches `target`.
fn base_route(
    net: &RoadNetwork,
    weights: impl Weights,
    forward: &ShortestPathTree,
    target: NodeId,
) -> Path {
    let edges = forward
        .path_edges(net, target)
        .expect("target reached in the forward tree");
    Path::from_edges_under(net, weights, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SearchBudget;
    use crate::fixtures::{grid, unpruned};
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::weight::UNIT_SCALE;

    use arp_roadnet::geo::Point;

    /// The bounded build of `query` with `landmarks` in a fresh,
    /// unbudgeted workspace.
    fn build_with(
        net: &RoadNetwork,
        weights: &[Weight],
        landmarks: &Arc<Landmarks>,
        (s, t): (u32, u32),
        query: &AltQuery,
    ) -> Result<SearchSubstrate, CoreError> {
        let mut ws = SearchSpace::new(net);
        SearchSubstrate::build(
            &mut ws,
            net,
            weights,
            landmarks,
            UNIT_SCALE,
            NodeId(s),
            NodeId(t),
            query,
        )
        .map_err(|(error, _)| error)
    }

    /// The bounded build of `query` with the empty table: the plain ball.
    fn build(
        net: &RoadNetwork,
        weights: &[Weight],
        st: (u32, u32),
        query: &AltQuery,
    ) -> Result<SearchSubstrate, CoreError> {
        build_with(net, weights, &unpruned(), st, query)
    }

    #[test]
    fn landmarks_prune_the_ball_and_keep_every_label_they_keep_exact() {
        let net = grid(16);
        let table = Arc::new(Landmarks::build(&net, net.weights()));
        let mut ws = SearchSpace::new(&net);
        for (s, t) in [(0, 255), (17, 20), (120, 3), (200, 201)] {
            let query = AltQuery::paper();
            let ball = build(&net, net.weights(), (s, t), &query).unwrap();
            let pruned = build_with(&net, net.weights(), &table, (s, t), &query).unwrap();
            assert_eq!(pruned.bound(), ball.bound());
            assert_eq!(pruned.base_route().edges, ball.base_route().edges);
            let (fwd, bwd) = (pruned.forward(), pruned.backward());
            assert_eq!(bwd.order(), ball.backward().order(), "{s}->{t}");
            assert!(fwd.order().len() <= ball.forward().order().len());
            for v in net.nodes() {
                assert_eq!(bwd.distance(v), ball.backward().distance(v));
                assert_eq!(bwd.parent(v), ball.backward().parent(v));
                if bwd.reached(v) || fwd.reached(v) {
                    // Inside the ellipse, and every forward label outside
                    // it, is the ball's: exact, with the canonical parent.
                    assert_eq!(fwd.distance(v), ball.forward().distance(v), "{v}");
                    assert_eq!(fwd.parent(v), ball.forward().parent(v), "{v}");
                }
                // Penalty's bound only tightens, and stays sound.
                let (tight, loose) = (pruned.target_lower_bound(v.0), ball.target_lower_bound(v.0));
                let d = ws.shortest_distance(&net, net.weights(), v, NodeId(t));
                assert!(loose <= tight && tight <= d.unwrap_or(0), "{v}");
            }
        }
        // Corner to corner the ellipse is most of the grid; two blocks
        // apart the table leaves a sliver of the ball.
        let near = (build(&net, net.weights(), (17, 20), &AltQuery::paper()).unwrap())
            .forward()
            .order()
            .len();
        let pruned = build_with(&net, net.weights(), &table, (17, 20), &AltQuery::paper());
        assert!(2 * pruned.unwrap().forward().order().len() < near);
    }

    #[test]
    fn the_probe_is_counted_and_an_unreachable_target_is_found_by_it() {
        let net = grid(8);
        let table = Arc::new(Landmarks::build(&net, net.weights()));
        let query = AltQuery::paper();
        let sub = build_with(&net, net.weights(), &table, (0, 63), &query).unwrap();
        let trees = (sub.forward().order().len() + sub.backward().order().len()) as u64;
        assert!(sub.build_stats().settled > trees, "the probe settles too");
        // Every edge out of the target's two neighbours closed: the probe
        // proves it unreachable before any tree grows.
        let mut closed = net.weights().to_vec();
        for v in [NodeId(55), NodeId(62)] {
            for e in net.out_edges(v) {
                closed[e.index()] = arp_roadnet::weight::CLOSED;
            }
        }
        assert!(matches!(
            build_with(&net, &closed, &table, (0, 63), &query),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn base_route_equals_direct_shortest_path() {
        let net = grid(8);
        let sub = build(&net, net.weights(), (0, 63), &AltQuery::paper()).unwrap();
        let direct = crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(63));
        let direct = direct.unwrap();
        assert_eq!(sub.base_route().edges, direct.edges);
        assert_eq!(sub.base_route().cost_ms, direct.cost_ms);
        assert_eq!(sub.base_route().nodes, direct.nodes);
    }

    #[test]
    fn trees_are_rooted_and_oriented() {
        let net = grid(6);
        let (s, t) = (NodeId(0), NodeId(35));
        let sub = build(&net, net.weights(), (0, 35), &AltQuery::paper()).unwrap();
        assert_eq!(sub.forward().root, s);
        assert_eq!(sub.forward().direction, Direction::Forward);
        assert_eq!(sub.backward().root, t);
        assert_eq!(sub.backward().direction, Direction::Backward);
        assert_eq!(sub.forward().distance(t), sub.base_route().cost_ms);
        assert_eq!(sub.backward().distance(s), sub.base_route().cost_ms);
    }

    #[test]
    fn build_counts_both_tree_searches_and_stops_at_the_bound() {
        let net = grid(16);
        let n = net.num_nodes() as u64;
        // A stretch so wide that the ellipse is the whole graph: two
        // complete sweeps.
        let everything = AltQuery::paper().with_epsilon(1e3);
        let sub = build(&net, net.weights(), (0, 255), &everything).unwrap();
        assert_eq!(sub.build_stats().settled, 2 * n);
        assert!(sub.build_stats().heap_pops >= sub.build_stats().settled);
        // Two blocks apart at the paper's ε: a handful of vertices.
        let near = build(&net, net.weights(), (0, 2), &AltQuery::paper()).unwrap();
        assert!(
            near.build_stats().settled < n / 8,
            "a near pair must not sweep the city: {:?}",
            near.build_stats()
        );
    }

    #[test]
    fn the_pair_records_the_request_it_answers() {
        let net = grid(6);
        let wide = AltQuery::paper().with_epsilon(2.0).with_k(5);
        let sub = build(&net, net.weights(), (0, 35), &wide).unwrap();
        assert_eq!((sub.source(), sub.target()), (NodeId(0), NodeId(35)));
        assert_eq!(sub.query(), &wide);
        assert_eq!(sub.bound(), wide.search_bound(sub.base_route().cost_ms));
    }

    #[test]
    fn epsilon_below_one_still_proves_the_base_route() {
        let net = grid(8);
        let tight = AltQuery::paper().with_epsilon(0.5);
        let sub = build(&net, net.weights(), (0, 63), &tight).unwrap();
        let direct = crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(63));
        assert_eq!(sub.base_route().edges, direct.unwrap().edges);
        assert_eq!(sub.bound(), sub.base_route().cost_ms);
    }

    #[test]
    fn label_bounds_are_sound_and_tight_on_tree_paths() {
        let net = grid(6);
        let mut ws = SearchSpace::new(&net);
        // A corner-to-corner pair labels the whole grid; a two-block pair
        // leaves most vertices unlabelled on one side or both.
        for (s, t) in [(0, 35), (14, 16)] {
            let sub = build(&net, net.weights(), (s, t), &AltQuery::paper()).unwrap();
            for a in net.nodes() {
                for b in net.nodes().filter(|&b| b != a) {
                    let d = ws.shortest_distance(&net, net.weights(), a, b).unwrap();
                    assert!(sub.distance_lower_bound(a, b) <= d, "{a}->{b}");
                }
                // Tree paths are shortest paths, and their labels say so.
                let (df, db) = (sub.forward().distance(a), sub.backward().distance(a));
                if df != INFINITY && a != sub.source() {
                    assert_eq!(sub.distance_lower_bound(sub.source(), a), df);
                }
                if db != INFINITY && a != sub.target() {
                    assert_eq!(sub.distance_lower_bound(a, sub.target()), db);
                }
            }
        }
    }

    #[test]
    fn same_source_target_is_an_error() {
        let net = grid(4);
        assert!(matches!(
            build(&net, net.weights(), (3, 3), &AltQuery::paper()),
            Err(CoreError::SameSourceTarget(_))
        ));
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        assert!(matches!(
            build(&net, net.weights(), (1, 0), &AltQuery::paper()),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn interrupted_build_hands_back_what_the_forward_tree_proved() {
        let net = grid(8);
        let (s, t) = (NodeId(0), NodeId(63));
        let query = AltQuery::paper();
        // Cap of one pop: the forward tree completes (residual pops are
        // charged at the end), the cap trips sticky, and the backward
        // tree's entry poll interrupts.
        let mut ws = SearchSpace::new(&net);
        ws.set_budget(SearchBudget::new().with_expansion_cap(1));
        let unpruned = &unpruned();
        let Err((CoreError::Interrupted, Some(base))) = SearchSubstrate::build(
            &mut ws,
            &net,
            net.weights(),
            unpruned,
            UNIT_SCALE,
            s,
            t,
            &query,
        ) else {
            panic!("the trip must land between the two trees");
        };
        let direct = crate::search::shortest_path(&net, net.weights(), s, t).unwrap();
        assert_eq!(base.edges, direct.edges);
        // A trip before the forward tree completes proves nothing.
        let cancelled = SearchBudget::new();
        cancelled.cancel();
        ws.set_budget(cancelled);
        assert!(matches!(
            SearchSubstrate::build(
                &mut ws,
                &net,
                net.weights(),
                unpruned,
                UNIT_SCALE,
                s,
                t,
                &query
            ),
            Err((CoreError::Interrupted, None))
        ));
    }
}
