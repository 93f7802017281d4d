//! The **Dissimilarity** technique — SSVP-D+ (§2.3 of the paper,
//! Chondrogiannis et al.).
//!
//! Single-source via-paths: grow a forward tree from `s` and a backward
//! tree from `t`; every vertex `u` induces the via-path
//! `sp(s,u) · sp(u,t)` of length `d_f(u) + d_b(u)`. Vertices are visited in
//! ascending via-path length and a via-path is admitted when its
//! dissimilarity to every already-admitted path exceeds the threshold θ
//! (0.5 in the paper), guaranteeing the result set is pairwise dissimilar
//! while keeping paths short.
//!
//! The θ-test never touches a path. A via-path is two tree branches, so
//! its length is `d_f(u) + d_b(u)` and the length it shares with an
//! admitted path `A` is `F_A(u) + B_A(u)`, where
//! `F_A(u) = F_A(parent_f(u)) + [e_f(u) ∈ A]·w(e_f(u))`, `F_A(s) = 0`, is a
//! prefix sum down the forward tree and `B_A` its mirror image down the
//! backward tree (`LabelScreen`). Each sum is memoised per tree vertex,
//! so the sweep costs O(k · vertices visited) instead of building, hashing
//! and comparing a path per via-node; only the via-nodes that pass the
//! test — a handful per request — are materialized, checked for loops and
//! duplicates, and admitted.

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight, INFINITY};

use crate::budget::SearchBudget;
use crate::error::CoreError;
use crate::metrics::Funnel;
use crate::path::Path;
use crate::query::AltQuery;
use crate::scratch::{Loan, Pool, Scratch};
use crate::search::{Direction, ShortestPathTree};
use crate::similarity::similarity_of_lengths;
use crate::substrate::open_pair;

/// Options specific to the SSVP-D+ algorithm.
#[derive(Clone, Copy, Debug)]
pub struct DissimilarityOptions {
    /// Upper bound on how many via-nodes are examined — screened by the
    /// θ-test or materialized — as a multiple of `k`; guards worst-case
    /// latency on dense graphs (the underlying problem is NP-hard and
    /// this is the standard practical cut-off).
    pub max_candidates_factor: usize,
}

impl Default for DissimilarityOptions {
    fn default() -> Self {
        DissimilarityOptions {
            max_candidates_factor: 4000,
        }
    }
}

/// The technique itself: a function of the forward/backward tree pair,
/// whoever grew it (typically a [`crate::SearchSubstrate`]). The trees must have
/// been grown under `weights`: the sweep reads via-path lengths off their
/// labels. Visits via-nodes in ascending via-path length and admits
/// pairwise-dissimilar paths. `budget` governs the sweep's cooperative
/// polls; the candidate funnel of the call is reported into `funnel`
/// (which is reset first).
#[allow(clippy::too_many_arguments)]
pub fn dissimilarity_alternatives_from_trees(
    net: &RoadNetwork,
    weights: &[Weight],
    query: &AltQuery,
    options: &DissimilarityOptions,
    funnel: &mut Funnel,
    fwd: &ShortestPathTree,
    bwd: &ShortestPathTree,
    budget: &SearchBudget,
) -> Result<Vec<Path>, CoreError> {
    let Some((_, bound)) = open_pair(query, funnel, fwd, bwd)? else {
        return Ok(Vec::new());
    };

    // Via-nodes in ascending via-path length (ties by id), bounded by the
    // stretch limit: only vertices the backward tree reached qualify.
    let mut candidates: Vec<(Cost, u32)> = bwd
        .order()
        .iter()
        .filter_map(|&v| {
            let (df, db) = (fwd.distance(v), bwd.distance(v));
            if df == INFINITY {
                return None;
            }
            let via = df + db;
            (via <= bound).then_some((via, v.0))
        })
        .collect();
    candidates.sort_unstable();

    let max_candidates = query
        .k
        .saturating_mul(options.max_candidates_factor)
        .max(64);
    let mut accepted: Vec<Path> = Vec::with_capacity(query.k);
    let mut screen = LabelScreen::new(net, weights, fwd, bwd);

    for &(via, v) in candidates.iter().take(max_candidates) {
        if accepted.len() >= query.k {
            break;
        }
        // Poll per via-node, ahead of any work on it.
        if budget.interrupted() {
            funnel.interrupted = true;
            break;
        }
        let v = NodeId(v);
        // The first admissible candidate is the shortest path itself (the
        // target's via-path, or any via-node on the optimal route) and is
        // admitted unconditionally; everything after it faces the θ-test.
        if !accepted.is_empty() && !screen.passes_theta(v, via, query.theta) {
            funnel.screened += 1;
            continue;
        }
        let path = screen.via_path(v);
        debug_assert_eq!(path.cost_ms, via, "tree labels disagree with weights");
        funnel.candidates += 1;
        // A via-path that revisits a vertex contains a loop and is never a
        // sensible recommendation. The θ-test ran before the path existed,
        // so a built via-path is never rejected for similarity.
        if !path.is_simple() {
            funnel.rejected_non_simple += 1;
            continue;
        }
        // Every simple, new survivor is admitted, so the via-paths seen so
        // far that a duplicate could repeat are exactly the admitted ones.
        if accepted.iter().any(|a| a.edges == path.edges) {
            funnel.rejected_duplicate += 1;
            continue;
        }
        screen.admit(&path);
        accepted.push(path);
    }
    Ok(accepted)
}

/// Memo value of a prefix sum not computed yet.
const UNKNOWN: Cost = Cost::MAX;

/// What the θ-test needs to know about one admitted path `A`.
struct AdmittedPath {
    /// `A`'s edges, sorted for membership tests.
    edges: Vec<EdgeId>,
    /// `len(A)`.
    len: Cost,
    /// `F_A` (index 0) and `B_A` (index 1) by memo slot: the weight of the
    /// tree branch between the root and a vertex that lies on `A`.
    shared: [Vec<Cost>; 2],
}

/// SSVP-D+'s θ-test evaluated on search-tree labels (module docs): the
/// via-path of `v` is never built, yet every decision equals the one
/// [`crate::similarity::dissimilarity_to_set`] makes on the built path,
/// because the integer lengths are equal and both feed
/// [`similarity_of_lengths`].
///
/// Scratch is a recycled slot map plus O(vertices walked) per admitted
/// path — never a per-path array over the whole network, and nothing
/// cleared or allocated per call beyond what the walks touch.
struct LabelScreen<'a> {
    net: &'a RoadNetwork,
    weights: &'a [Weight],
    /// Forward tree (index 0) and backward tree (index 1).
    trees: [&'a ShortestPathTree; 2],
    slots: Loan<MemoSlots>,
    admitted: Vec<AdmittedPath>,
    /// Walk stack: `(memo slot, parent edge)` of the vertices between the
    /// via-node and the nearest memoised ancestor.
    branch: Vec<(usize, EdgeId)>,
}

impl<'a> LabelScreen<'a> {
    fn new(
        net: &'a RoadNetwork,
        weights: &'a [Weight],
        fwd: &'a ShortestPathTree,
        bwd: &'a ShortestPathTree,
    ) -> Self {
        LabelScreen {
            net,
            weights,
            trees: [fwd, bwd],
            slots: fwd.scratch(net.num_nodes()),
            admitted: Vec::new(),
            branch: Vec::new(),
        }
    }

    /// Whether the via-path of `v` (of length `via`) is more than `theta`
    /// dissimilar to every admitted path.
    fn passes_theta(&mut self, v: NodeId, via: Cost, theta: f64) -> bool {
        (0..self.admitted.len()).all(|j| {
            let shared = self.shared_prefix(0, j, v) + self.shared_prefix(1, j, v);
            1.0 - similarity_of_lengths(shared, via, self.admitted[j].len) > theta
        })
    }

    /// `F_j(v)` (`side` 0) or `B_j(v)` (`side` 1): walks up the tree to
    /// the nearest vertex whose sum is known, then fills the memo back
    /// down, so each tree vertex is summed once per admitted path.
    fn shared_prefix(&mut self, side: usize, j: usize, v: NodeId) -> Cost {
        let tree = self.trees[side];
        let path = &mut self.admitted[j];
        let memo = &mut path.shared[side];
        let mut sum = 0;
        let mut cur = v;
        self.branch.clear();
        while cur != tree.root {
            let slot = self.slots.of(cur);
            if let Some(&known) = memo.get(slot).filter(|&&known| known != UNKNOWN) {
                sum = known;
                break;
            }
            let e = tree.parent(cur);
            self.branch.push((slot, e));
            cur = match tree.direction {
                Direction::Forward => self.net.tail(e),
                Direction::Backward => self.net.head(e),
            };
        }
        // The walk may have handed out new slots.
        if memo.len() < self.slots.count() {
            memo.resize(self.slots.count(), UNKNOWN);
        }
        for &(slot, e) in self.branch.iter().rev() {
            if path.edges.binary_search(&e).is_ok() {
                sum += self.weights[e.index()] as Cost;
            }
            memo[slot] = sum;
        }
        sum
    }

    /// Builds the via-path of `v` from the two tree branches.
    fn via_path(&self, v: NodeId) -> Path {
        let [fwd, bwd] = self.trees;
        let mut edges = fwd
            .path_edges(self.net, v)
            .expect("a via-node is reached by the forward tree");
        edges.extend(
            bwd.path_edges(self.net, v)
                .expect("a via-node is reached by the backward tree"),
        );
        Path::from_edges(self.net, self.weights, edges)
    }

    /// Adds `path` to the set later via-nodes are tested against.
    fn admit(&mut self, path: &Path) {
        let mut edges = path.edges.clone();
        edges.sort_unstable();
        self.admitted.push(AdmittedPath {
            edges,
            len: path.cost_ms,
            shared: [Vec::new(), Vec::new()],
        });
    }
}

/// The memo slots of [`LabelScreen`], handed out in the order walks first
/// reach vertices. Clean means no vertex has one.
#[derive(Default)]
struct MemoSlots {
    /// Vertex → 1 + its slot; 0 while it has none.
    slot: Vec<u32>,
    /// Slot → vertex: what cleaning resets.
    vertices: Vec<NodeId>,
}

impl MemoSlots {
    /// The slot of `v`, handing out the next one on its first visit.
    fn of(&mut self, v: NodeId) -> usize {
        let slot = &mut self.slot[v.index()];
        if *slot == 0 {
            self.vertices.push(v);
            *slot = self.vertices.len() as u32;
        }
        (*slot - 1) as usize
    }

    /// Slots handed out so far.
    fn count(&self) -> usize {
        self.vertices.len()
    }
}

impl Scratch for MemoSlots {
    fn pool() -> &'static Pool<MemoSlots> {
        static POOL: Pool<MemoSlots> = Pool::new();
        &POOL
    }
    fn with_size(n: usize) -> MemoSlots {
        MemoSlots {
            slot: vec![0; n],
            vertices: Vec::new(),
        }
    }
    fn size(&self) -> usize {
        self.slot.len()
    }
    fn clean(&mut self) {
        for v in self.vertices.drain(..) {
            self.slot[v.index()] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{grid, routed};
    use crate::similarity::similarity;
    use crate::DissimilarityProvider;
    use arp_obs::Registry;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::geo::Point;

    /// The SSVP-D+ paths from `s` to `t` under default options.
    fn dissimilar(
        net: &RoadNetwork,
        st: (u32, u32),
        query: &AltQuery,
    ) -> Result<Vec<Path>, CoreError> {
        routed(
            &DissimilarityProvider::new(&Registry::disabled()),
            net,
            st,
            query,
        )
    }

    #[test]
    fn first_result_is_shortest_path() {
        let net = grid(7);
        let paths = dissimilar(&net, (0, 48), &AltQuery::paper()).unwrap();
        assert!(!paths.is_empty());
        let direct =
            crate::search::shortest_path(&net, net.weights(), NodeId(0), NodeId(48)).unwrap();
        assert_eq!(paths[0].cost_ms, direct.cost_ms);
    }

    #[test]
    fn results_respect_theta() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = dissimilar(&net, (0, 63), &q).unwrap();
        assert!(paths.len() >= 2, "got {}", paths.len());
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                let sim = similarity(&paths[i], &paths[j], net.weights());
                assert!(
                    sim < 1.0 - q.theta + 1e-9,
                    "pair ({i},{j}) similarity {sim} violates theta"
                );
            }
        }
    }

    #[test]
    fn results_within_stretch_bound() {
        let net = grid(8);
        let q = AltQuery::paper();
        let paths = dissimilar(&net, (0, 63), &q).unwrap();
        let best = paths[0].cost_ms;
        for p in &paths {
            assert!(p.cost_ms <= q.cost_bound(best));
            assert!(p.validate(&net));
            assert!(p.is_simple());
        }
    }

    #[test]
    fn higher_theta_gives_fewer_or_equal_paths() {
        let net = grid(8);
        let loose =
            dissimilar(&net, (0, 63), &AltQuery::paper().with_theta(0.1).with_k(5)).unwrap();
        let strict =
            dissimilar(&net, (0, 63), &AltQuery::paper().with_theta(0.9).with_k(5)).unwrap();
        assert!(strict.len() <= loose.len());
    }

    #[test]
    fn via_paths_are_ascending_in_cost() {
        let net = grid(8);
        let paths = dissimilar(&net, (0, 63), &AltQuery::paper()).unwrap();
        for w in paths.windows(2) {
            assert!(w[0].cost_ms <= w[1].cost_ms, "paths not in ascending cost");
        }
    }

    #[test]
    fn unreachable_is_error() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        let net = b.build();
        assert!(dissimilar(&net, (1, 0), &AltQuery::paper()).is_err());
    }

    #[test]
    fn k_zero_and_k_one() {
        let net = grid(5);
        let none = dissimilar(&net, (0, 24), &AltQuery::paper().with_k(0)).unwrap();
        assert!(none.is_empty());
        let one = dissimilar(&net, (0, 24), &AltQuery::paper().with_k(1)).unwrap();
        assert_eq!(one.len(), 1);
    }
}
