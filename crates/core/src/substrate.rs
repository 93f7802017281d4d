//! The shared **search substrate**: per-request artifacts every
//! technique would otherwise recompute.
//!
//! The paper's query processor answers each request by running four
//! alternative-route techniques on the same (source, target) pair, and
//! three of them start from the same raw material — Plateaus grows a
//! forward *and* a backward shortest-path tree, SSVP-D+ grows the same
//! pair, and Penalty (like ESX) starts from the base optimal route, which
//! is just the forward tree's path to the target. A [`SearchSubstrate`]
//! computes that material **once**: one forward tree, one backward tree,
//! the base route, and the build's [`SearchStats`] so serving layers can
//! account the cost exactly once per request.
//!
//! Techniques receive the substrate through an optional
//! [`ProviderContext`] (see
//! [`AlternativesProvider::alternatives_in_context`]); every provider
//! falls back to self-computing when no substrate is supplied, so
//! existing library callers are unaffected, and the substrate-fed path
//! is **byte-identical** to the self-computed one — the trees are built
//! by the same [`SearchSpace::shortest_path_tree`] the techniques call
//! themselves, and the base route reconstructed from the full forward
//! tree equals the early-terminated [`crate::shortest_path`] result
//! (every on-path vertex settles before the target does, because edge
//! weights are clamped ≥ 1 ms). The property tests in
//! `crates/core/tests/proptests.rs` pin this equivalence down.
//!
//! The build cooperates with cancellation: it runs under a
//! [`SearchBudget`], and a trip mid-build surfaces as
//! [`CoreError::Interrupted`] so the caller can abort the request or
//! fall back to per-lane self-computation.
//!
//! [`AlternativesProvider::alternatives_in_context`]:
//!     crate::provider::AlternativesProvider::alternatives_in_context
//! [`SearchSpace::shortest_path_tree`]:
//!     crate::search::SearchSpace::shortest_path_tree

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_roadnet::weight::{Cost, Weight, INFINITY};

use crate::budget::SearchBudget;
use crate::cch::{ChMetric, ChTopology};
use crate::error::CoreError;
use crate::metrics::SearchStats;
use crate::path::Path;
use crate::search::{canonical_tree_from_dists, Direction, SearchSpace, ShortestPathTree};

/// Per-request search artifacts shared read-only across techniques:
/// forward + backward shortest-path trees, the base optimal route, and
/// the build's work counters.
///
/// Built once per (source, target) pair by [`SearchSubstrate::build`]
/// and handed to the four technique drivers via [`ProviderContext`].
/// The artifact is tied to the weight overlay it was built on; callers
/// that query several overlays (e.g. the Google-like provider's private
/// weights) must not share one substrate across them —
/// [`SearchSubstrate::matches`] guards the structural part of that
/// contract (endpoints and network shape), the overlay identity is the
/// caller's responsibility.
#[derive(Clone, Debug)]
pub struct SearchSubstrate {
    source: NodeId,
    target: NodeId,
    num_nodes: usize,
    num_edges: usize,
    epoch: u64,
    forward: ShortestPathTree,
    backward: ShortestPathTree,
    base: Path,
    build_stats: SearchStats,
}

impl SearchSubstrate {
    /// Builds the substrate: forward tree from `source`, backward tree
    /// from `target`, base route reconstructed from the forward tree.
    ///
    /// Runs under `budget`; a trip mid-build returns
    /// [`CoreError::Interrupted`] (there is no useful partial substrate —
    /// half a tree helps no technique). Other failures mirror the
    /// techniques' own prologues: [`CoreError::SameSourceTarget`] for
    /// `source == target`, [`CoreError::Unreachable`] when the forward
    /// tree never reaches `target`.
    pub fn build(
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
        budget: &SearchBudget,
    ) -> Result<SearchSubstrate, CoreError> {
        if source == target {
            return Err(CoreError::SameSourceTarget(source));
        }
        let mut ws = SearchSpace::new(net);
        ws.set_budget(budget.clone());
        let forward = ws.shortest_path_tree(net, weights, source, Direction::Forward)?;
        let mut build_stats = ws.last_stats();
        if !forward.reached(target) {
            return Err(CoreError::Unreachable { source, target });
        }
        let backward = ws.shortest_path_tree(net, weights, target, Direction::Backward)?;
        build_stats.accumulate(&ws.last_stats());
        let edges = forward
            .path_edges(net, target)
            .expect("target reached in the forward tree");
        let base = Path::from_edges(net, weights, edges);
        Ok(SearchSubstrate {
            source,
            target,
            num_nodes: net.num_nodes(),
            num_edges: net.num_edges(),
            epoch: 0,
            forward,
            backward,
            base,
            build_stats,
        })
    }

    /// Builds the same substrate through the customizable-CH index tier
    /// ([`ChTopology`] + a [`ChMetric`] customized from **the same**
    /// `weights` column): two budgeted PHAST one-to-all passes produce
    /// the exact forward/backward distance arrays, and the trees are
    /// re-parented by the same canonical rule
    /// ([`crate::search::SearchSpace::shortest_path_tree`] uses it too),
    /// so the result is **byte-identical** to [`SearchSubstrate::build`]
    /// — same trees, same base route — while settling only the upward
    /// search cones instead of the whole graph twice.
    ///
    /// The caller owns the pairing contract: `metric` must be customized
    /// from `weights`. A metric from another epoch's column would produce
    /// wrong distances, which is why the serving tier's index manager
    /// only hands out a metric whose epoch stamp equals the request's
    /// pinned epoch.
    pub fn build_with_ch(
        net: &RoadNetwork,
        weights: &[Weight],
        topo: &ChTopology,
        metric: &ChMetric,
        source: NodeId,
        target: NodeId,
        budget: &SearchBudget,
    ) -> Result<SearchSubstrate, CoreError> {
        if source == target {
            return Err(CoreError::SameSourceTarget(source));
        }
        if !topo.matches(net) {
            // A mismatched topology cannot answer for this network;
            // treat it like a length mismatch rather than mis-routing.
            return Err(CoreError::WeightLengthMismatch {
                expected: net.num_edges(),
                got: weights.len(),
            });
        }
        let mut build_stats = SearchStats::default();
        let dist_f =
            topo.phast_distances(metric, source, Direction::Forward, budget, &mut build_stats)?;
        if dist_f[target.index()] == INFINITY {
            return Err(CoreError::Unreachable { source, target });
        }
        let dist_b = topo.phast_distances(
            metric,
            target,
            Direction::Backward,
            budget,
            &mut build_stats,
        )?;
        let forward = canonical_tree_from_dists(net, weights, source, Direction::Forward, dist_f);
        let backward = canonical_tree_from_dists(net, weights, target, Direction::Backward, dist_b);
        let edges = forward
            .path_edges(net, target)
            .expect("target reached in the forward tree");
        let base = Path::from_edges(net, weights, edges);
        Ok(SearchSubstrate {
            source,
            target,
            num_nodes: net.num_nodes(),
            num_edges: net.num_edges(),
            epoch: 0,
            forward,
            backward,
            base,
            build_stats,
        })
    }

    /// Stamps the substrate with the traffic **epoch** of the weight
    /// column it was built on (0 = the base, un-overlaid weights).
    /// [`SearchSubstrate::matches`] then rejects reuse across epochs,
    /// turning the "keep overlay and substrate paired" contract from a
    /// convention into a checked guard.
    pub fn with_epoch(mut self, epoch: u64) -> SearchSubstrate {
        self.epoch = epoch;
        self
    }

    /// The traffic epoch this substrate was built on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The request's source vertex (the forward tree's root).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The request's target vertex (the backward tree's root).
    pub fn target(&self) -> NodeId {
        self.target
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

    /// Per-node forward distances `d(source → v)`
    /// ([`arp_roadnet::weight::INFINITY`] = unreached) — the pruning
    /// array via-node sweeps and Yen-style deviation searches consult.
    pub fn forward_distances(&self) -> &[Cost] {
        &self.forward.dist
    }

    /// Per-node backward distances `d(v → target)`.
    pub fn backward_distances(&self) -> &[Cost] {
        &self.backward.dist
    }

    /// Work counters of the substrate build (both tree searches
    /// accumulated) — what each reusing technique *saves*, and what the
    /// serving layer charges against the request exactly once.
    pub fn build_stats(&self) -> SearchStats {
        self.build_stats
    }

    /// Whether this substrate answers (`source`, `target`) on a network
    /// of the same shape **at `epoch`**. Providers call this before
    /// reusing an injected substrate and self-compute on a mismatch, so
    /// a stale or misrouted substrate degrades to correct (if slower)
    /// behaviour instead of wrong routes. The epoch check rejects
    /// cross-epoch reuse after a live-traffic tick; within one epoch the
    /// *weight overlay* is still not fingerprinted (that would cost O(E)
    /// per check) — keeping overlay and substrate paired is the
    /// supplier's contract.
    pub fn matches(&self, net: &RoadNetwork, source: NodeId, target: NodeId, epoch: u64) -> bool {
        self.source == source
            && self.target == target
            && self.num_nodes == net.num_nodes()
            && self.num_edges == net.num_edges()
            && self.epoch == epoch
    }
}

/// Optional per-call context handed to
/// [`crate::provider::AlternativesProvider::alternatives_in_context`].
///
/// Today it carries at most a [`SearchSubstrate`]; the struct exists so
/// future shared artifacts (e.g. a contraction-hierarchy overlay) extend
/// the signature without breaking providers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProviderContext<'a> {
    /// The shared substrate, if one was prepared for this request.
    pub substrate: Option<&'a SearchSubstrate>,
    /// The traffic epoch the *request* is pinned to (0 = base weights).
    /// [`ProviderContext::substrate_for`] only hands out the substrate
    /// when its own epoch stamp matches, so a substrate prepared before
    /// a live-traffic tick is never mixed into a post-tick request.
    pub epoch: u64,
}

impl<'a> ProviderContext<'a> {
    /// A context carrying nothing: providers self-compute.
    pub fn empty() -> ProviderContext<'static> {
        ProviderContext {
            substrate: None,
            epoch: 0,
        }
    }

    /// A context carrying a prepared substrate (epoch 0 = base weights).
    pub fn with_substrate(substrate: &'a SearchSubstrate) -> ProviderContext<'a> {
        ProviderContext {
            substrate: Some(substrate),
            epoch: 0,
        }
    }

    /// A context carrying a prepared substrate for a request pinned to
    /// `epoch`. The substrate must carry the same stamp
    /// ([`SearchSubstrate::with_epoch`]) to be reused.
    pub fn with_substrate_at_epoch(
        substrate: &'a SearchSubstrate,
        epoch: u64,
    ) -> ProviderContext<'a> {
        ProviderContext {
            substrate: Some(substrate),
            epoch,
        }
    }

    /// The substrate, but only if it matches this call's endpoints,
    /// network shape and the request's epoch
    /// ([`SearchSubstrate::matches`]); `None` otherwise, which sends the
    /// provider down its self-computing path.
    pub fn substrate_for(
        &self,
        net: &RoadNetwork,
        source: NodeId,
        target: NodeId,
    ) -> Option<&'a SearchSubstrate> {
        self.substrate
            .filter(|s| s.matches(net, source, target, self.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::grid;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};

    use arp_roadnet::geo::Point;

    #[test]
    fn base_route_equals_direct_shortest_path() {
        let net = grid(8);
        let (s, t) = (NodeId(0), NodeId(63));
        let sub =
            SearchSubstrate::build(&net, net.weights(), s, t, &SearchBudget::unlimited()).unwrap();
        let direct = crate::search::shortest_path(&net, net.weights(), s, t).unwrap();
        assert_eq!(sub.base_route().edges, direct.edges);
        assert_eq!(sub.base_route().cost_ms, direct.cost_ms);
        assert_eq!(sub.base_route().nodes, direct.nodes);
    }

    #[test]
    fn trees_are_rooted_and_oriented() {
        let net = grid(6);
        let (s, t) = (NodeId(0), NodeId(35));
        let sub =
            SearchSubstrate::build(&net, net.weights(), s, t, &SearchBudget::unlimited()).unwrap();
        assert_eq!(sub.forward().root, s);
        assert_eq!(sub.forward().direction, Direction::Forward);
        assert_eq!(sub.backward().root, t);
        assert_eq!(sub.backward().direction, Direction::Backward);
        assert_eq!(sub.forward_distances()[t.index()], sub.base_route().cost_ms);
        assert_eq!(
            sub.backward_distances()[s.index()],
            sub.base_route().cost_ms
        );
    }

    #[test]
    fn build_counts_both_tree_searches() {
        let net = grid(6);
        let sub = SearchSubstrate::build(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(35),
            &SearchBudget::unlimited(),
        )
        .unwrap();
        // Both trees settle every reachable vertex: two full sweeps.
        assert_eq!(sub.build_stats().settled, 2 * net.num_nodes() as u64);
        assert!(sub.build_stats().heap_pops >= sub.build_stats().settled);
    }

    #[test]
    fn ch_build_is_byte_identical_to_dijkstra_build() {
        let net = grid(8);
        let topo = ChTopology::build(&net);
        // Identity column and a slowed overlay with a closure.
        let mut overlay = net.weights().to_vec();
        for (i, w) in overlay.iter_mut().enumerate() {
            if i % 4 == 1 {
                *w = w.saturating_mul(2).min(u32::MAX - 1);
            }
        }
        overlay[3] = arp_roadnet::weight::CLOSED;
        for column in [net.weights(), &overlay[..]] {
            let metric = topo.customize(&net, column).unwrap();
            for (s, t) in [(0u32, 63u32), (7, 56), (20, 43)] {
                let plain = SearchSubstrate::build(
                    &net,
                    column,
                    NodeId(s),
                    NodeId(t),
                    &SearchBudget::unlimited(),
                )
                .unwrap();
                let fast = SearchSubstrate::build_with_ch(
                    &net,
                    column,
                    &topo,
                    &metric,
                    NodeId(s),
                    NodeId(t),
                    &SearchBudget::unlimited(),
                )
                .unwrap();
                assert_eq!(fast.forward().dist, plain.forward().dist, "{s}->{t}");
                assert_eq!(fast.forward().parent, plain.forward().parent, "{s}->{t}");
                assert_eq!(fast.backward().dist, plain.backward().dist, "{s}->{t}");
                assert_eq!(fast.backward().parent, plain.backward().parent, "{s}->{t}");
                assert_eq!(fast.base_route().edges, plain.base_route().edges);
                assert_eq!(fast.base_route().cost_ms, plain.base_route().cost_ms);
            }
        }
    }

    #[test]
    fn ch_build_settles_fewer_nodes() {
        let net = grid(16);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        let plain = SearchSubstrate::build(
            &net,
            net.weights(),
            NodeId(0),
            NodeId(255),
            &SearchBudget::unlimited(),
        )
        .unwrap();
        let fast = SearchSubstrate::build_with_ch(
            &net,
            net.weights(),
            &topo,
            &metric,
            NodeId(0),
            NodeId(255),
            &SearchBudget::unlimited(),
        )
        .unwrap();
        assert!(
            fast.build_stats().settled < plain.build_stats().settled,
            "CH build must settle fewer nodes ({} vs {})",
            fast.build_stats().settled,
            plain.build_stats().settled
        );
    }

    #[test]
    fn ch_build_mirrors_dijkstra_errors() {
        let net = grid(4);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        assert!(matches!(
            SearchSubstrate::build_with_ch(
                &net,
                net.weights(),
                &topo,
                &metric,
                NodeId(3),
                NodeId(3),
                &SearchBudget::unlimited()
            ),
            Err(CoreError::SameSourceTarget(_))
        ));
        let budget = SearchBudget::new();
        budget.cancel();
        assert!(matches!(
            SearchSubstrate::build_with_ch(
                &net,
                net.weights(),
                &topo,
                &metric,
                NodeId(0),
                NodeId(15),
                &budget
            ),
            Err(CoreError::Interrupted)
        ));
        // A topology built for another network shape is rejected.
        let other = grid(5);
        assert!(SearchSubstrate::build_with_ch(
            &other,
            other.weights(),
            &topo,
            &metric,
            NodeId(0),
            NodeId(24),
            &SearchBudget::unlimited()
        )
        .is_err());
    }

    #[test]
    fn same_source_target_is_an_error() {
        let net = grid(4);
        assert!(matches!(
            SearchSubstrate::build(
                &net,
                net.weights(),
                NodeId(3),
                NodeId(3),
                &SearchBudget::unlimited()
            ),
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
            SearchSubstrate::build(
                &net,
                net.weights(),
                NodeId(1),
                NodeId(0),
                &SearchBudget::unlimited()
            ),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn cancelled_budget_interrupts_the_build() {
        let net = grid(8);
        let budget = SearchBudget::new();
        budget.cancel();
        assert!(matches!(
            SearchSubstrate::build(&net, net.weights(), NodeId(0), NodeId(63), &budget),
            Err(CoreError::Interrupted)
        ));
    }

    #[test]
    fn context_filters_mismatched_substrates() {
        let net = grid(6);
        let (s, t) = (NodeId(0), NodeId(35));
        let sub =
            SearchSubstrate::build(&net, net.weights(), s, t, &SearchBudget::unlimited()).unwrap();
        let ctx = ProviderContext::with_substrate(&sub);
        assert!(ctx.substrate_for(&net, s, t).is_some());
        // Wrong endpoints → no reuse.
        assert!(ctx.substrate_for(&net, s, NodeId(34)).is_none());
        assert!(ctx.substrate_for(&net, NodeId(1), t).is_none());
        // Different network shape → no reuse.
        let other = grid(5);
        assert!(ctx.substrate_for(&other, s, t).is_none());
        // The empty context never offers one.
        assert!(ProviderContext::empty().substrate_for(&net, s, t).is_none());
    }

    #[test]
    fn cross_epoch_reuse_is_rejected() {
        let net = grid(6);
        let (s, t) = (NodeId(0), NodeId(35));
        let sub = SearchSubstrate::build(&net, net.weights(), s, t, &SearchBudget::unlimited())
            .unwrap()
            .with_epoch(7);
        assert_eq!(sub.epoch(), 7);
        assert!(sub.matches(&net, s, t, 7));
        assert!(!sub.matches(&net, s, t, 8), "post-tick reuse must fail");
        assert!(!sub.matches(&net, s, t, 0));
        // The context only offers the substrate at its own epoch.
        let ctx = ProviderContext::with_substrate_at_epoch(&sub, 7);
        assert!(ctx.substrate_for(&net, s, t).is_some());
        let stale = ProviderContext::with_substrate_at_epoch(&sub, 8);
        assert!(stale.substrate_for(&net, s, t).is_none());
        // The epoch-0 constructor pairs only with epoch-0 substrates.
        assert!(ProviderContext::with_substrate(&sub)
            .substrate_for(&net, s, t)
            .is_none());
    }
}
