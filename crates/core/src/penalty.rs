//! The **Penalty** technique (§2.1 of the paper).
//!
//! Iteratively computes shortest paths; after each iteration every edge of
//! the newly found path has its weight multiplied by the penalty factor
//! (1.4 in the paper) in a private overlay, so subsequent iterations are
//! steered onto different streets. Candidates are priced on the *original*
//! weights, and rejected when they exceed the stretch bound, duplicate an
//! earlier path, or are nearly identical to one (the additional filtering
//! criterion the paper mentions).
//!
//! Iteration zero is the base route of the request's tree pair. Every
//! penalized re-search after it stays inside what that pair proves: the
//! factor is ≥ 1, so an overlay weight is never below its public one, the
//! pair's labels give a lower bound `lb(v)` on `d(v, t)` under the
//! overlay, and the cheapest known
//! `s → t` walk under the current overlay — an earlier candidate, or a
//! via-vertex walk along the pair's two trees — is an upper bound `U` on
//! the round's optimum. A round labels `v` at `d` only while
//! `d + lb(v) ≤ U`. Every vertex of a shortest penalized route passes that
//! test, so each round returns the route an unpruned search returns
//! (DESIGN.md §8) and only the settled count shrinks.

use std::collections::HashSet;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{apply_penalty, Cost, Weight, INFINITY};

use crate::error::CoreError;
use crate::kernel::Weights;
use crate::metrics::Funnel;
use crate::path::Path;
use crate::query::AltQuery;
use crate::scratch::{Loan, Pool, Scratch};
use crate::search::SearchSpace;
use crate::similarity::similarity;
use crate::substrate::SearchSubstrate;

/// Options specific to the penalty algorithm.
#[derive(Clone, Copy, Debug)]
pub struct PenaltyOptions {
    /// Reject a candidate whose similarity to an accepted path exceeds
    /// this (1.0 disables the filter — any non-duplicate is accepted).
    pub max_similarity: f64,
    /// Also penalize the reverse edge of every path edge, discouraging
    /// trivial there-and-back variations on two-way streets.
    pub penalize_reverse: bool,
}

impl Default for PenaltyOptions {
    fn default() -> Self {
        PenaltyOptions {
            max_similarity: 0.9,
            penalize_reverse: true,
        }
    }
}

/// The technique itself on the tree pair `pair` grown on `weights`: its
/// base route is iteration zero, and the penalized re-searches run on a
/// private overlay through `ws` (and its budget), each pruned by the
/// pair's labels. The query and endpoints are the pair's. The candidate
/// funnel of the call is reported into `funnel` (which is reset first).
///
/// Fails with [`CoreError::InvalidPenaltyFactor`] before any search when
/// the query's factor is not a number ≥ 1: a cheaper overlay would break
/// the lower bounds the re-searches are pruned by.
pub fn penalty_alternatives_from_base(
    ws: &mut SearchSpace,
    net: &RoadNetwork,
    weights: &[Weight],
    pair: &SearchSubstrate,
    options: &PenaltyOptions,
    funnel: &mut Funnel,
) -> Result<Vec<Path>, CoreError> {
    *funnel = Funnel::default();
    let query = pair.query();
    check_factor(query)?;
    if query.k == 0 {
        return Ok(Vec::new());
    }
    let (source, target) = (pair.source(), pair.target());
    let best = pair.base_route().clone();
    // Private penalized overlay: only the raised weights are stored.
    let mut overlay = Overlay {
        public: weights,
        raised: ws.scratch(net.num_edges()),
    };
    let bound = query.cost_bound(best.cost_ms);
    funnel.candidates += 1;

    let mut accepted: Vec<Path> = Vec::with_capacity(query.k);
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    seen.insert(best.key());
    overlay.penalize(net, &best, query.penalty_factor, options);
    accepted.push(best);

    let mut via = ViaWalks::new(ws, net, pair);
    // The edges of every candidate found so far: `s → t` walks whose
    // overlay cost bounds each later round from above.
    let mut walks: Vec<Vec<EdgeId>> = Vec::new();
    let budget = query.iteration_budget();
    for _ in 1..budget {
        if accepted.len() >= query.k {
            break;
        }
        // Poll between rounds so a budget tripped by a sibling search (or
        // the deadline) stops the technique before the next re-search.
        if ws.budget().interrupted() {
            funnel.interrupted = true;
            break;
        }
        let view = &overlay;
        let price =
            |edges: &Vec<EdgeId>| -> Cost { edges.iter().map(|e| view.weight(e.0) as Cost).sum() };
        let limit = walks.iter().map(price).fold(via.cheapest(view), Cost::min);
        let lower = |v| pair.target_lower_bound(v);
        let edges = match ws.shortest_path_within(net, view, source, target, lower, limit) {
            Ok(edges) => edges,
            Err(CoreError::Interrupted) => {
                funnel.interrupted = true;
                break;
            }
            Err(e) => {
                debug_assert!(
                    !matches!(e, CoreError::Unreachable { .. }),
                    "a pruned round lost the target: its bounds are unsound"
                );
                return Err(e);
            }
        };
        funnel.iterations += 1;
        funnel.candidates += 1;
        walks.push(edges.clone());
        // Price on the true weights.
        let candidate = Path::from_edges(net, weights, edges);
        let true_cost = candidate.cost_ms;
        // Penalize regardless of acceptance so the search keeps moving.
        overlay.penalize(net, &candidate, query.penalty_factor, options);

        if true_cost > bound {
            // Everything from here on only gets more expensive in the
            // overlay, but true cost is not monotone; keep trying within
            // the budget only if we are still below the bound by overlay.
            funnel.rejected_bound += 1;
            continue;
        }
        if !seen.insert(candidate.key()) {
            funnel.rejected_duplicate += 1;
            continue;
        }
        if !candidate.is_simple() {
            funnel.rejected_non_simple += 1;
            continue;
        }
        let too_similar = accepted
            .iter()
            .any(|p| similarity(&candidate, p, weights) > options.max_similarity);
        if too_similar {
            funnel.rejected_similarity += 1;
            continue;
        }
        accepted.push(candidate);
    }
    Ok(accepted)
}

/// Rejects a factor that is not a number ≥ 1 (NaN included).
fn check_factor(query: &AltQuery) -> Result<(), CoreError> {
    if query.penalty_factor >= 1.0 {
        Ok(())
    } else {
        Err(CoreError::InvalidPenaltyFactor)
    }
}

/// The public column with Penalty's raised weights laid over it — what
/// its searches read. Only the raised edges are stored, in a recycled
/// per-edge column: nothing is copied per call, and cleaning resets just
/// the edges raised.
struct Overlay<'a> {
    public: &'a [Weight],
    raised: Loan<Raised>,
}

impl Overlay<'_> {
    /// Multiplies the weight of every edge of `path` (and, per `options`,
    /// of its reverse) by `factor`.
    fn penalize(&mut self, net: &RoadNetwork, path: &Path, factor: f64, options: &PenaltyOptions) {
        for &e in &path.edges {
            self.raise(e, factor);
            if options.penalize_reverse {
                if let Some(r) = net.reverse_edge(e) {
                    self.raise(r, factor);
                }
            }
        }
    }

    fn raise(&mut self, e: EdgeId, factor: f64) {
        let w = apply_penalty((&*self).weight(e.0), factor);
        let raised = &mut *self.raised;
        if raised.weight[e.index()] == NOT_RAISED {
            raised.edges.push(e);
        }
        raised.weight[e.index()] = w;
    }
}

impl Weights for &Overlay<'_> {
    #[inline]
    fn num_edges(&self) -> usize {
        self.public.len()
    }
    #[inline]
    fn weight(&self, e: u32) -> Weight {
        match self.raised.weight[e as usize] {
            NOT_RAISED => self.public[e as usize],
            w => w,
        }
    }
}

/// An edge's entry in [`Raised::weight`] while it carries its public
/// weight. A raised weight of 0 reads the same either way: a public 0.
const NOT_RAISED: Weight = 0;

/// Penalty's raised weights by edge ([`NOT_RAISED`] elsewhere) and the
/// edges raised, which is what cleaning resets.
#[derive(Default)]
struct Raised {
    weight: Vec<Weight>,
    edges: Vec<EdgeId>,
}

impl Scratch for Raised {
    fn pool() -> &'static Pool<Raised> {
        static POOL: Pool<Raised> = Pool::new();
        &POOL
    }
    fn with_size(m: usize) -> Raised {
        Raised {
            weight: vec![NOT_RAISED; m],
            edges: Vec::new(),
        }
    }
    fn size(&self) -> usize {
        self.weight.len()
    }
    fn clean(&mut self) {
        for e in self.edges.drain(..) {
            self.weight[e.index()] = NOT_RAISED;
        }
    }
}

/// The via-vertex walks `s → v → t` of a tree pair — the forward tree's
/// branch to `v`, then the backward tree's branch from it — for every `v`
/// in the stretch ellipse, priced under an overlay. A branch of an
/// in-ellipse vertex stays in the ellipse, so one pass over it in each
/// tree's settle order prices every walk.
struct ViaWalks<'a> {
    net: &'a RoadNetwork,
    pair: &'a SearchSubstrate,
    /// The ellipse in forward settle order.
    ellipse: Vec<NodeId>,
    /// Per vertex, the overlay cost of its forward branch `s → v` — until
    /// the backward pass reaches `v` and replaces it with the cost of its
    /// backward branch `v → t`.
    branch: Loan<Branches>,
}

impl<'a> ViaWalks<'a> {
    fn new(ws: &SearchSpace, net: &'a RoadNetwork, pair: &'a SearchSubstrate) -> ViaWalks<'a> {
        let backward = pair.backward();
        let ellipse = pair.forward().order().iter();
        let ellipse = ellipse.copied().filter(|&v| backward.reached(v)).collect();
        ViaWalks {
            net,
            pair,
            ellipse,
            branch: ws.scratch(net.num_nodes()),
        }
    }

    /// The cost of the cheapest via-vertex walk under `overlay`.
    fn cheapest(&mut self, overlay: &Overlay<'_>) -> Cost {
        let (forward, backward) = (self.pair.forward(), self.pair.backward());
        let branch = &mut self.branch.0;
        for &v in &self.ellipse {
            let e = forward.parent(v);
            branch[v.index()] = if e.is_invalid() {
                0
            } else {
                branch[self.net.tail(e).index()] + overlay.weight(e.0) as Cost
            };
        }
        // A vertex's backward parent leads to one the backward tree
        // settled earlier, whose entry already holds its backward branch.
        let mut cheapest = INFINITY;
        for &v in backward.order() {
            let e = backward.parent(v);
            let from = if e.is_invalid() {
                0
            } else {
                overlay.weight(e.0) as Cost + branch[self.net.head(e).index()]
            };
            cheapest = cheapest.min(branch[v.index()] + from);
            branch[v.index()] = from;
        }
        cheapest
    }
}

/// [`ViaWalks::branch`]'s per-vertex column. Each pass writes an entry
/// before it reads it — a vertex's parent precedes it in settle order —
/// so whatever an earlier loan left behind is never read: cleaning is a
/// no-op.
#[derive(Default)]
struct Branches(Vec<Cost>);

impl Scratch for Branches {
    fn pool() -> &'static Pool<Branches> {
        static POOL: Pool<Branches> = Pool::new();
        &POOL
    }
    fn with_size(n: usize) -> Branches {
        Branches(vec![0; n])
    }
    fn size(&self) -> usize {
        self.0.len()
    }
    fn clean(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{grid, routed};
    use crate::metrics::SearchStats;
    use crate::PenaltyProvider;
    use arp_obs::Registry;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;
    use arp_roadnet::weight::UNIT_SCALE;

    #[test]
    fn first_path_is_shortest() {
        let net = grid(6);
        let q = AltQuery::paper();
        let paths = penalties(&net, (0, 35), &q, PenaltyOptions::default()).unwrap();
        assert!(!paths.is_empty());
        let direct =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(35)).unwrap();
        assert_eq!(paths[0].cost_ms, direct.cost_ms);
    }

    #[test]
    fn produces_k_distinct_paths_on_grid() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = penalties(&net, (0, 63), &q, PenaltyOptions::default()).unwrap();
        assert_eq!(paths.len(), 3);
        for i in 0..paths.len() {
            assert!(paths[i].validate(&net));
            assert!(paths[i].is_simple());
            for j in i + 1..paths.len() {
                assert_ne!(paths[i].edges, paths[j].edges);
            }
        }
    }

    #[test]
    fn all_paths_within_stretch_bound() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = penalties(&net, (0, 63), &q, PenaltyOptions::default()).unwrap();
        let best = paths[0].cost_ms;
        for p in &paths {
            assert!(p.cost_ms <= q.cost_bound(best), "{} > bound", p.cost_ms);
            // Costs are true costs, not penalized ones.
            assert_eq!(p.cost_ms, p.cost_under(net.weights()));
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let net = grid(4);
        let q = AltQuery::paper().with_k(0);
        let paths = penalties(&net, (0, 15), &q, PenaltyOptions::default()).unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn k_one_returns_only_shortest() {
        let net = grid(4);
        let q = AltQuery::paper().with_k(1);
        let paths = penalties(&net, (0, 15), &q, PenaltyOptions::default()).unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn line_graph_has_single_alternative() {
        // On a path graph there is only one route; penalty cannot invent more.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_bidirectional(w[0], w[1], EdgeSpec::category(RoadCategory::Primary));
        }
        let net = b.build();
        let paths = penalties(&net, (0, 4), &AltQuery::paper(), PenaltyOptions::default()).unwrap();
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn unreachable_is_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        assert!(penalties(&net, (1, 0), &AltQuery::paper(), PenaltyOptions::default()).is_err());
    }

    /// The penalty paths from `s` to `t` under `options`.
    fn penalties(
        net: &RoadNetwork,
        st: (u32, u32),
        query: &AltQuery,
        options: PenaltyOptions,
    ) -> Result<Vec<Path>, CoreError> {
        let mut provider = PenaltyProvider::new(&Registry::disabled());
        provider.options = options;
        routed(&provider, net, st, query)
    }

    /// The tree pair of `query` between `s` and `t` on `net`'s own
    /// weights, grown in `ws`.
    fn pair_of(
        ws: &mut SearchSpace,
        net: &RoadNetwork,
        (s, t): (u32, u32),
        query: &AltQuery,
    ) -> SearchSubstrate {
        let unpruned = &crate::fixtures::unpruned();
        SearchSubstrate::build(
            ws,
            net,
            net.weights(),
            unpruned,
            UNIT_SCALE,
            NodeId(s),
            NodeId(t),
            query,
        )
        .unwrap()
    }

    #[test]
    fn interrupted_call_returns_admitted_prefix() {
        use crate::budget::SearchBudget;

        let net = grid(8);
        let q = AltQuery::paper();
        // Uninterrupted reference run.
        let full = penalties(&net, (0, 63), &q, PenaltyOptions::default()).unwrap();
        assert!(full.len() > 1);

        // Cancel after the first re-search: the technique must return
        // what it admitted so far and flag the interruption, not error
        // out.
        let mut ws = SearchSpace::new(&net);
        let pair = pair_of(&mut ws, &net, (0, 63), &q);
        let mut funnel = Funnel::default();
        // Expansion cap of one pop: the first re-search completes (its
        // residual pops are only charged at the end), the cap then trips
        // sticky, and the between-rounds poll stops the second round.
        ws.set_budget(SearchBudget::new().with_expansion_cap(1));
        let partial = penalty_alternatives_from_base(
            &mut ws,
            &net,
            net.weights(),
            &pair,
            &PenaltyOptions::default(),
            &mut funnel,
        )
        .unwrap();
        assert!(funnel.interrupted);
        assert!(partial.len() < full.len());
        assert!(!partial.is_empty(), "shortest path already admitted");
        // Admission order is deterministic: the partial run is a prefix.
        for (got, want) in partial.iter().zip(full.iter()) {
            assert_eq!(got.edges, want.edges);
        }
    }

    #[test]
    fn a_round_whose_route_leaves_the_ellipse_by_one_is_unchanged_by_the_pruning() {
        // Base route s→x→t costs 10, so the pair's bound is 14. Doubling
        // it makes round 1 tie at 15 between s→x→y→t (14 public, inside
        // the ellipse, so a via walk pins U at exactly 15) and s→v→t
        // (15 public: v is forward-labelled at 7 and lies one unit
        // outside the ellipse, so lb(v) = 14 + 1 − 7 = 8 is exact). The
        // tie goes to v→t, the smaller arc into t, so round 1 finds the
        // route through v — admitted only because `lb` and `U` are both
        // tight — and rejects it for the stretch bound; round 2 finds y.
        // A pruning one unit too eager finds y in round 1 and stops.
        let mut g = GraphBuilder::new();
        let [s, x, v, y, t] =
            [0, 1, 2, 3, 4].map(|i| g.add_node(Point::new(144.0 + i as f64 * 0.01, -37.0)));
        for (a, b, w) in [
            (s, x, 1),
            (x, t, 9),
            (s, v, 7),
            (v, t, 8),
            (x, y, 6),
            (y, t, 7),
        ] {
            g.add_edge(a, b, EdgeSpec::default().with_weight(w));
        }
        let net = g.build();
        let edge = |a, b| net.out_edges(a).find(|&e| net.head(e) == b).unwrap();
        assert!(edge(v, t) < edge(y, t), "the tie must favour v");
        let q = AltQuery::paper().with_penalty_factor(2.0).with_k(2);
        let mut ws = SearchSpace::new(&net);
        let pair = pair_of(&mut ws, &net, (s.0, t.0), &q);
        assert_eq!(pair.bound(), 14);
        assert_eq!(pair.target_lower_bound(v.0), 8);
        let mut funnel = Funnel::default();
        let options = PenaltyOptions::default();
        let paths = penalty_alternatives_from_base(
            &mut ws,
            &net,
            net.weights(),
            &pair,
            &options,
            &mut funnel,
        )
        .unwrap();
        let routes: Vec<Vec<NodeId>> = paths.iter().map(|p| p.nodes.clone()).collect();
        assert_eq!(routes, [vec![s, x, t], vec![s, x, y, t]]);
        assert_eq!((funnel.iterations, funnel.rejected_bound), (2, 1));
    }

    #[test]
    fn a_factor_below_one_is_rejected_before_any_search() {
        let net = grid(4);
        let options = PenaltyOptions::default();
        for factor in [0.9, 0.0, -1.4, f64::NAN] {
            let q = AltQuery::paper().with_penalty_factor(factor);
            let got = penalties(&net, (0, 15), &q, options);
            assert_eq!(got, Err(CoreError::InvalidPenaltyFactor), "{factor}");
            let pair = pair_of(&mut SearchSpace::new(&net), &net, (0, 15), &q);
            let (mut ws, mut funnel) = (SearchSpace::new(&net), Funnel::default());
            let got = penalty_alternatives_from_base(
                &mut ws,
                &net,
                net.weights(),
                &pair,
                &options,
                &mut funnel,
            );
            assert_eq!(got, Err(CoreError::InvalidPenaltyFactor), "{factor}");
            assert_eq!(
                ws.last_stats(),
                SearchStats::default(),
                "{factor}: searched"
            );
        }
        // A factor of exactly 1 penalizes nothing, and is allowed.
        let q = AltQuery::paper().with_penalty_factor(1.0);
        let got = penalties(&net, (0, 15), &q, options);
        assert_eq!(
            got.unwrap().len(),
            1,
            "every round finds the base route again"
        );
    }

    #[test]
    fn strict_similarity_filter_reduces_overlap() {
        let net = grid(8);
        let loose = PenaltyOptions {
            max_similarity: 1.0,
            penalize_reverse: true,
        };
        let strict = PenaltyOptions {
            max_similarity: 0.5,
            penalize_reverse: true,
        };
        let q = AltQuery::paper();
        let pl = penalties(&net, (0, 63), &q, loose).unwrap();
        let ps = penalties(&net, (0, 63), &q, strict).unwrap();
        let div_loose = crate::similarity::diversity(&pl, net.weights());
        let div_strict = crate::similarity::diversity(&ps, net.weights());
        assert!(div_strict >= div_loose - 1e-9);
    }
}
