//! Property-based tests for the routing core on random strongly connected
//! graphs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use arp_core::prelude::*;
use arp_core::quality;
use arp_core::search::{Direction, ShortestPathTree};
use arp_core::similarity;
use arp_core::{ChTopology, Funnel, Landmarks};
use arp_obs::Registry;
use arp_roadnet::category::ALL_CATEGORIES;
use arp_roadnet::prelude::*;
use arp_roadnet::weight::{apply_penalty, Cost, UNIT_SCALE};
use arp_traffic::{EpochSnapshot, TrafficDelta, TrafficState};
use proptest::prelude::*;

/// Random strongly connected graph: a Hamiltonian cycle (guaranteeing
/// strong connectivity) plus random chords with random weights.
fn arb_scc_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    (4usize..25).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n, 500_000u32..1_000_000), 0..n * 3);
        (Just(n), chords)
    })
}

fn build(n: usize, chords: &[(usize, usize, u32)]) -> RoadNetwork {
    build_weighed(n, chords, |w| w)
}

/// [`build`]'s graph with every edge weight `w` replaced by `1 + w % 9`
/// ms: edges so short that a traffic factor rounds on nearly every one.
fn build_short(n: usize, chords: &[(usize, usize, u32)]) -> RoadNetwork {
    build_weighed(n, chords, |w| 1 + w % 9)
}

/// [`build`]'s graph with its edge weights passed through `weigh`.
fn build_weighed(n: usize, chords: &[(usize, usize, u32)], weigh: fn(u32) -> u32) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            b.add_node(Point::new(
                144.0 + (i % 5) as f64 * 0.01,
                -37.0 - (i / 5) as f64 * 0.01,
            ))
        })
        .collect();
    for i in 0..n {
        b.add_edge(
            ids[i],
            ids[(i + 1) % n],
            EdgeSpec::category(RoadCategory::Primary)
                .with_weight(weigh(500_000 + (i as u32 * 7919) % 100_000)),
        );
    }
    for &(t, h, w) in chords {
        if t != h {
            b.add_edge(
                ids[t],
                ids[h],
                EdgeSpec::category(RoadCategory::Secondary).with_weight(weigh(w)),
            );
        }
    }
    b.build()
}

/// The paths `provider` routes from `s` to `t` on `weights`
/// ([`AlternativesProvider::alternatives`]).
fn routed(
    provider: &dyn AlternativesProvider,
    net: &RoadNetwork,
    weights: &[Weight],
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
) -> Vec<Path> {
    let routes = provider.alternatives(net, weights, s, t, query).unwrap();
    routes.into_iter().map(|r| r.path).collect()
}

/// Bellman-Ford reference distance.
fn bellman_ford(net: &RoadNetwork, s: NodeId) -> Vec<u64> {
    let mut dist = vec![u64::MAX; net.num_nodes()];
    dist[s.index()] = 0;
    for _ in 0..net.num_nodes() {
        let mut changed = false;
        for e in net.edges() {
            let (t, h) = (net.tail(e), net.head(e));
            if dist[t.index()] != u64::MAX {
                let nd = dist[t.index()] + net.weight(e) as u64;
                if nd < dist[h.index()] {
                    dist[h.index()] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Textbook Dijkstra — the one oracle every fast search is checked
/// against. Dense labels, no stamps, no budget, no metrics; it shares no
/// code with the crate's search kernel. `Forward` gives `d(root → v)`,
/// `Backward` gives `d(v → root)`; `CLOSED` edges are not traversable.
fn reference_dijkstra(
    net: &RoadNetwork,
    weights: &[Weight],
    root: NodeId,
    direction: Direction,
) -> Vec<Cost> {
    let mut dist = vec![INFINITY; net.num_nodes()];
    let mut heap = BinaryHeap::from([Reverse((0, root))]);
    dist[root.index()] = 0;
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        let edges: Vec<(EdgeId, NodeId)> = match direction {
            Direction::Forward => net.out_edges(v).map(|e| (e, net.head(e))).collect(),
            Direction::Backward => net.in_edges(v).map(|e| (e, net.tail(e))).collect(),
        };
        for (e, u) in edges {
            if weights[e.index()] == CLOSED {
                continue;
            }
            let nd = d + weights[e.index()] as Cost;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// A tree's label of every vertex, by id ([`INFINITY`] = unreached).
fn labels_of(tree: &ShortestPathTree, net: &RoadNetwork) -> Vec<Cost> {
    net.nodes().map(|v| tree.distance(v)).collect()
}

/// `got` must be a valid `s → t` path over open edges costing exactly
/// `want`, or `Unreachable` when the reference says so.
fn expect_path(
    what: &str,
    net: &RoadNetwork,
    weights: &[Weight],
    (s, t): (NodeId, NodeId),
    got: Result<Path, CoreError>,
    want: Cost,
) -> Result<(), String> {
    match got {
        Err(CoreError::Unreachable { .. }) if want == INFINITY => Ok(()),
        Ok(p)
            if p.cost_ms == want
                && p.validate(net)
                && (p.source(), p.target()) == (s, t)
                && p.edges.iter().all(|e| weights[e.index()] != CLOSED)
                && p.cost_under(weights) == want =>
        {
            Ok(())
        }
        other => Err(format!("{what} {s}->{t}: {other:?}, reference {want}")),
    }
}

/// Drives **every** instantiation of the search kernel for one query and
/// compares it with [`reference_dijkstra`]: one-to-one (whose edge list
/// must be the chain of [`reference_parent`]s), both trees, CCH distance
/// and unpacked path.
fn check_against_reference(
    net: &RoadNetwork,
    weights: &[Weight],
    topo: &ChTopology,
    (s, t): (NodeId, NodeId),
) -> Result<(), String> {
    let from_s = reference_dijkstra(net, weights, s, Direction::Forward);
    let to_t = reference_dijkstra(net, weights, t, Direction::Backward);
    let want = from_s[t.index()];
    let st = (s, t);
    let same = |what: &str, got: &[Cost], reference: &[Cost]| {
        (got == reference)
            .then_some(())
            .ok_or(format!("{what} from {s}/{t} differs from the reference"))
    };

    let mut ws = SearchSpace::new(net);
    let got = ws.shortest_path(net, weights, s, t);
    let route = got.as_ref().map_or(Vec::new(), |p| p.edges.clone());
    expect_path("one-to-one", net, weights, st, got, want)?;
    let (mut chain, mut v) = (Vec::new(), t);
    while want != INFINITY && v != s {
        let e = reference_parent(net, weights, &from_s, v, Direction::Forward);
        chain.push(e);
        v = net.tail(e);
    }
    chain.reverse();
    if route != chain {
        return Err(format!(
            "one-to-one {s}->{t}: {route:?}, canonical chain {chain:?}"
        ));
    }
    let tree = ws.shortest_path_tree(net, weights, s, Direction::Forward);
    same("forward tree", &labels_of(&tree.unwrap(), net), &from_s)?;
    let tree = ws.shortest_path_tree(net, weights, t, Direction::Backward);
    same("backward tree", &labels_of(&tree.unwrap(), net), &to_t)?;

    let metric = topo.customize(net, weights).unwrap();
    let got = topo.distance(&metric, s, t).unwrap_or(INFINITY);
    same("CCH distance", &[got], &[want])?;
    let got = topo.shortest_path(&metric, net, weights, s, t);
    expect_path("CCH", net, weights, st, got, want)
}

/// A live-traffic-shaped overlay: per edge one of closed (code 0),
/// untouched, or slowed by a factor 2–4.
fn overlay(net: &RoadNetwork, codes: &[u32]) -> Vec<Weight> {
    let apply = |(&w, &code): (&Weight, &u32)| match code {
        0 => CLOSED,
        1..=5 => w,
        _ => w * (code - 4),
    };
    net.weights().iter().zip(codes).map(apply).collect()
}

/// `weights` rounded down to multiples of 250 s (the random graphs' edges
/// cost ≥ 500 s), so that path lengths tie.
fn tie_rounded(weights: &[Weight]) -> Vec<Weight> {
    let round = |&w: &Weight| {
        if w == CLOSED {
            w
        } else {
            w / 250_000 * 250_000
        }
    };
    weights.iter().map(round).collect()
}

/// The empty landmark table: a build fed it grows the plain ball.
fn unpruned() -> Arc<Landmarks> {
    Arc::new(Landmarks::empty())
}

/// The landmark table of `base`, a column no dearer edge by edge than
/// every column it is handed with: the network's own weights for them and
/// for an [`overlay`] of them, their [`tie_rounded`] copy for a rounded
/// overlay (rounding down keeps the order of two weights).
fn table_of(net: &RoadNetwork, base: &[Weight]) -> Arc<Landmarks> {
    Arc::new(Landmarks::build(net, base))
}

/// A fixed pseudo-random [`overlay`] for a whole city: closes 1 edge in
/// 40 and slows 1 in 4 by a factor 2–4.
fn fixed_overlay(net: &RoadNetwork) -> Vec<Weight> {
    let codes: Vec<u32> = (0..net.num_edges() as u32)
        .map(|i| match (i.wrapping_mul(2_654_435_761) >> 16) % 40 {
            0 => 0,
            1..=29 => 1,
            v => 6 + v % 3,
        })
        .collect();
    overlay(net, &codes)
}

#[test]
fn every_search_matches_the_reference_on_a_medium_city() {
    // Paper scale (~10k nodes), one fixed seed, with and without the
    // fixed overlay.
    let g = arp_citygen::generate(arp_citygen::City::Copenhagen, arp_citygen::Scale::Medium, 5);
    let net = &g.network;
    let topo = ChTopology::build(net);
    let n = net.num_nodes() as u32;
    for weights in [net.weights().to_vec(), fixed_overlay(net)] {
        for i in 0..6u32 {
            let st = (NodeId((i * 1931 + 17) % n), NodeId((i * 4409 + 401) % n));
            check_against_reference(net, &weights, &topo, st).unwrap();
        }
    }
}

/// SSVP-D+'s sweep as it was before the θ-test moved onto the tree
/// labels — the oracle the label-only sweep is checked against: build the
/// via-path of **every** via-node visited, then test it for loops,
/// duplicates and dissimilarity with the public path functions. Returns
/// the admitted paths and how many via-nodes were visited.
fn reference_sweep(
    net: &RoadNetwork,
    weights: &[Weight],
    query: &AltQuery,
    options: &DissimilarityOptions,
    fwd: &ShortestPathTree,
    bwd: &ShortestPathTree,
) -> (Vec<Path>, u64) {
    let target = bwd.root;
    let best = fwd.distance(target);
    let bound = query.cost_bound(best);

    // Via-nodes in ascending via-path length, bounded by the stretch limit.
    let mut candidates: Vec<(u64, u32)> = (0..net.num_nodes() as u32)
        .filter_map(|v| {
            let df = fwd.distance(NodeId(v));
            let db = bwd.distance(NodeId(v));
            if df == INFINITY || db == INFINITY {
                return None;
            }
            let via = df + db;
            (via <= bound).then_some((via, v))
        })
        .collect();
    candidates.sort_unstable();

    let max_candidates = query
        .k
        .saturating_mul(options.max_candidates_factor)
        .max(64);
    let mut accepted: Vec<Path> = Vec::with_capacity(query.k);
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut visited = 0;

    for &(_via, v) in candidates.iter().take(max_candidates) {
        if accepted.len() >= query.k {
            break;
        }
        let v = NodeId(v);
        let Some(prefix) = fwd.path_edges(net, v) else {
            continue;
        };
        let Some(suffix) = bwd.path_edges(net, v) else {
            continue;
        };
        let mut edges = prefix;
        edges.extend_from_slice(&suffix);
        if edges.is_empty() {
            continue;
        }
        let path = Path::from_edges(net, weights, edges);
        visited += 1;
        if !path.is_simple() {
            continue;
        }
        if !seen.insert(path.key()) {
            continue;
        }
        if accepted.is_empty() {
            // The first admissible candidate is the shortest path itself
            // (the target's via-path, or any via-node on the optimal route).
            accepted.push(path);
            continue;
        }
        if similarity::dissimilarity_to_set(&path, &accepted, weights) > query.theta {
            accepted.push(path);
        }
    }
    (accepted, visited)
}

/// One SSVP-D+ query answered by the crate's label-only sweep and by
/// [`reference_sweep`] over the same tree pair: the admitted lists must be
/// identical, the funnel must account for exactly the via-nodes the
/// reference visited, and the result must hold the technique's
/// by-construction invariants. `Ok(None)` when `t` is unreachable;
/// otherwise the number of via-nodes visited.
fn check_sweep_against_reference(
    net: &RoadNetwork,
    weights: &[Weight],
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
    options: &DissimilarityOptions,
) -> Result<Option<u64>, String> {
    let budget = SearchBudget::unlimited();
    let mut ws = SearchSpace::new(net);
    let unpruned = &unpruned();
    let Ok(sub) =
        arp_core::SearchSubstrate::build(&mut ws, net, weights, unpruned, UNIT_SCALE, s, t, query)
    else {
        return Ok(None);
    };
    let (fwd, bwd) = (sub.forward(), sub.backward());
    let what = format!(
        "{s}->{t} k={} theta={} factor={}",
        query.k, query.theta, options.max_candidates_factor
    );
    let mut stats = Funnel::default();
    let got = arp_core::dissimilarity_alternatives_from_trees(
        net, weights, query, options, &mut stats, fwd, bwd, &budget,
    )
    .map_err(|e| format!("{what}: {e}"))?;
    let (want, visited) = reference_sweep(net, weights, query, options, fwd, bwd);

    let costs = |paths: &[Path]| paths.iter().map(|p| p.cost_ms).collect::<Vec<_>>();
    if got != want {
        return Err(format!(
            "{what}: admitted {:?}, reference {:?}",
            costs(&got),
            costs(&want)
        ));
    }
    let rejected = stats.rejected_duplicate + stats.rejected_non_simple;
    if stats.candidates != got.len() as u64 + rejected
        || stats.screened + stats.candidates != visited
    {
        return Err(format!(
            "{what}: funnel {stats:?}, reference visited {visited}"
        ));
    }

    let best = fwd.distance(t);
    let holds = got.first().is_some_and(|p| p.cost_ms == best)
        && got.len() <= query.k
        && got.windows(2).all(|w| w[0].cost_ms <= w[1].cost_ms)
        && got.iter().all(|p| {
            p.cost_ms <= query.cost_bound(best)
                && p.validate(net)
                && (p.source(), p.target()) == (s, t)
                && p.is_simple()
        })
        && (0..got.len()).all(|j| {
            // The orientation the sweep tests: the later path against
            // each earlier one.
            (0..j).all(|i| 1.0 - similarity::similarity(&got[j], &got[i], weights) > query.theta)
        });
    if !holds {
        return Err(format!(
            "{what}: invariant broken, costs {:?}, best {best}",
            costs(&got)
        ));
    }
    Ok(Some(visited))
}

/// The canonical parent of `v` read off reference labels: the smallest
/// tight open edge. Shares no code with the kernel's tie rule.
fn reference_parent(
    net: &RoadNetwork,
    weights: &[Weight],
    dist: &[Cost],
    v: NodeId,
    direction: Direction,
) -> EdgeId {
    let tight = |e: &EdgeId, u: NodeId| {
        weights[e.index()] != CLOSED
            && dist[u.index()] != INFINITY
            && dist[u.index()] + weights[e.index()] as Cost == dist[v.index()]
    };
    let best = match direction {
        Direction::Forward => net.in_edges(v).filter(|e| tight(e, net.tail(*e))).min(),
        Direction::Backward => net.out_edges(v).filter(|e| tight(e, net.head(*e))).min(),
    };
    best.unwrap_or(EdgeId::INVALID)
}

/// The bounded builder fed `landmarks` against [`reference_dijkstra`] and
/// against the complete tree pair, for one query: (a) inside the stretch
/// ellipse both trees carry the reference label and the canonical parent,
/// (b) outside it the backward tree keeps nothing and a forward label is
/// exact with `d + lb ≤ bound` (`lb` ≡ 0 for the empty table: the ball),
/// (c) same-endpoint, unreachable and cancelled-budget errors are the
/// ones a pair of complete trees gives, (d) Plateaus and SSVP-D+ return
/// the same edge lists (and SSVP-D+ the same funnel) on the bounded and
/// on the complete pair. `Ok(false)` when the pair is unroutable.
fn check_bounded_build(
    net: &RoadNetwork,
    weights: &[Weight],
    (landmarks, scale): (&Arc<Landmarks>, u32),
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
) -> Result<bool, String> {
    let what = format!(
        "{s}->{t} eps={} landmarks={} scale={scale}",
        query.epsilon,
        landmarks.landmarks().len()
    );
    let build = |ws: &mut SearchSpace| {
        arp_core::SearchSubstrate::build(ws, net, weights, landmarks, scale, s, t, query)
            .map_err(|(e, _)| e)
    };
    let mut ws = SearchSpace::new(net);
    let cancelled = SearchBudget::new();
    cancelled.cancel();
    ws.set_budget(cancelled);
    let interrupted = ws.shortest_path_tree(net, weights, s, Direction::Forward);
    if s != t && build(&mut ws).err() != interrupted.err() {
        return Err(format!("{what}: a cancelled build must be Interrupted"));
    }
    ws.set_budget(SearchBudget::unlimited());

    let from_s = reference_dijkstra(net, weights, s, Direction::Forward);
    let to_t = reference_dijkstra(net, weights, t, Direction::Backward);
    let best = from_s[t.index()];
    let sub = match build(&mut ws) {
        Err(CoreError::SameSourceTarget(_)) if s == t => return Ok(false),
        Err(CoreError::Unreachable { .. }) if s != t && best == INFINITY => return Ok(false),
        Ok(sub) if s != t && best != INFINITY => sub,
        other => return Err(format!("{what}: {:?}, reference {best}", other.map(drop))),
    };
    let bound = query.search_bound(best);
    if sub.bound() != bound || sub.base_route().cost_ms != best {
        return Err(format!("{what}: bound {} for best {best}", sub.bound()));
    }
    let (fwd, bwd) = (sub.forward(), sub.backward());
    for v in net.nodes() {
        let (df, db) = (from_s[v.index()], to_t[v.index()]);
        let inside = df != INFINITY && db != INFINITY && df + db <= bound;
        let (kf, kb) = (fwd.distance(v), bwd.distance(v));
        let ok = if inside {
            // (a)
            (kf, kb) == (df, db)
                && (v == s
                    || fwd.parent(v)
                        == reference_parent(net, weights, &from_s, v, Direction::Forward))
                && (v == t
                    || bwd.parent(v)
                        == reference_parent(net, weights, &to_t, v, Direction::Backward))
        } else {
            // (b): the forward run may keep what its bound admits, exactly
            // labelled; the backward run keeps nothing outside the ellipse.
            let admitted = |d: Cost| d + landmarks.lower_bound(v, t, scale) <= bound;
            kb == INFINITY && (kf == INFINITY || (kf == df && admitted(df)))
        };
        if !ok {
            return Err(format!(
                "{what}: vertex {v} inside={inside} kept ({kf}, {kb}), reference ({df}, {db}), bound {bound}"
            ));
        }
    }

    // (d)
    let full_f = ws
        .shortest_path_tree(net, weights, s, Direction::Forward)
        .unwrap();
    let full_b = ws
        .shortest_path_tree(net, weights, t, Direction::Backward)
        .unwrap();
    let budget = SearchBudget::unlimited();
    let plateaus = |f: &ShortestPathTree, b: &ShortestPathTree| {
        let mut stats = Funnel::default();
        let paths = arp_core::plateau_alternatives_from_trees(
            net,
            weights,
            query,
            &PlateauOptions::default(),
            &mut stats,
            f,
            b,
            &budget,
        );
        // Plateaus beyond the bound exist only in the complete pair; what
        // the funnel does with the ones inside it must not move.
        let inside = stats.candidates - stats.rejected_bound;
        (
            paths,
            inside,
            stats.rejected_short,
            stats.rejected_similarity,
            stats.rejected_non_simple,
        )
    };
    if plateaus(fwd, bwd) != plateaus(&full_f, &full_b) {
        return Err(format!("{what}: Plateaus differs on the bounded pair"));
    }
    let sweep = |f: &ShortestPathTree, b: &ShortestPathTree| {
        let mut stats = Funnel::default();
        let paths = arp_core::dissimilarity_alternatives_from_trees(
            net,
            weights,
            query,
            &DissimilarityOptions::default(),
            &mut stats,
            f,
            b,
            &budget,
        );
        (paths, stats)
    };
    if sweep(fwd, bwd) != sweep(&full_f, &full_b) {
        return Err(format!("{what}: SSVP-D+ differs on the bounded pair"));
    }
    Ok(true)
}

/// SplitMix64 of `seed ^ i`: the per-item draws of the filter property.
fn draw(seed: u64, i: u64) -> u64 {
    let mut x = (seed ^ i).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A `rows × cols` grid of two-way streets with random weights in
/// 30–90 s.
fn random_grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..rows * cols)
        .map(|i| {
            let (x, y) = ((i % cols) as f64, (i / cols) as f64);
            b.add_node(Point::new(144.0 + x * 0.01, -37.0 - y * 0.01))
        })
        .collect();
    let mut next = 0u64;
    let mut street = |b: &mut GraphBuilder, u: usize, v: usize| {
        next += 1;
        let w = 30_000 + (draw(seed, next) % 60_000) as u32;
        let spec = EdgeSpec::category(RoadCategory::Secondary).with_weight(w);
        b.add_bidirectional(ids[u], ids[v], spec);
    };
    for i in 0..rows * cols {
        if i % cols + 1 < cols {
            street(&mut b, i, i + 1);
        }
        if i / cols + 1 < rows {
            street(&mut b, i, i + cols);
        }
    }
    b.build()
}

/// The three weightings the filter property runs on: the network's own,
/// a seeded live-traffic overlay (1 edge in 20 closed, 1 in 4 slowed
/// 2–4×), and that overlay with every open edge at one uniform weight —
/// the tie-richest column there is.
fn filter_weightings(net: &RoadNetwork, seed: u64) -> [Vec<Weight>; 3] {
    let codes: Vec<u32> = (0..net.num_edges() as u64)
        .map(|i| match draw(seed, i) % 20 {
            0 => 0,
            1..=14 => 1,
            v => 6 + v as u32 % 3,
        })
        .collect();
    let slowed = overlay(net, &codes);
    let uniform = slowed
        .iter()
        .map(|&w| if w == CLOSED { w } else { 60_000 })
        .collect();
    [net.weights().to_vec(), slowed, uniform]
}

/// T-local optimality with **every** window searched: the walk of
/// `quality::local_optimality`, written out on the test side and
/// answered by plain one-to-one searches, no labels consulted.
fn reference_locally_optimal(
    net: &RoadNetwork,
    weights: &[Weight],
    path: &Path,
    fraction: f64,
) -> bool {
    let t = (path.cost_ms as f64 * fraction) as Cost;
    if t == 0 || path.edges.len() < 2 {
        return true;
    }
    let mut prefix = vec![0];
    for e in &path.edges {
        prefix.push(prefix.last().unwrap() + weights[e.index()] as Cost);
    }
    let mut ws = SearchSpace::new(net);
    let (mut i, mut probes) = (0, 0);
    while i < path.edges.len() && probes < 8 {
        let mut j = i + 1;
        while j < path.edges.len() && prefix[j] - prefix[i] < t {
            j += 1;
        }
        let (a, b) = (path.nodes[i], path.nodes[j]);
        if a != b {
            if let Ok(d) = ws.shortest_distance(net, weights, a, b) {
                probes += 1;
                if d != prefix[j] - prefix[i] {
                    return false;
                }
            }
        }
        i += ((j - i) / 2).max(1);
    }
    true
}

/// The similarity and local-optimality filters with every window
/// searched — the oracle for [`apply_filters`] (comfort ranking off; it
/// only reorders what these two keep).
fn reference_filters(
    net: &RoadNetwork,
    weights: &[Weight],
    paths: &[Path],
    k: usize,
    config: &FilterConfig,
) -> Vec<Path> {
    let mut kept: Vec<Path> = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        if kept.len() >= k {
            break;
        }
        let similar = |max: f64| {
            let mut kept = kept.iter();
            kept.any(|p| similarity::similarity(path, p, weights) > max)
        };
        let rejected = i > 0
            && (config.max_similarity.is_some_and(similar)
                || (config.require_local_optimality
                    && !reference_locally_optimal(net, weights, path, config.lo_t_fraction)));
        if !rejected {
            kept.push(path.clone());
        }
    }
    kept
}

/// Candidates of a query on its tree pair, cheapest first: every plateau
/// route (no similarity pruning, no minimum plateau), Penalty's routes
/// and via-paths `sp(s, v) + sp(v, t)` through up to six vertices of the
/// ellipse — whose windows across `v` no label certifies.
fn filter_candidates(net: &RoadNetwork, weights: &[Weight], pair: &SearchSubstrate) -> Vec<Path> {
    let (fwd, bwd) = (pair.forward(), pair.backward());
    let query = pair.query().with_k(6);
    let options = PlateauOptions {
        max_similarity: 1.0,
        min_plateau_fraction: 0.0,
    };
    let mut paths = arp_core::plateau_alternatives_from_trees(
        net,
        weights,
        &query,
        &options,
        &mut Funnel::default(),
        fwd,
        bwd,
        &SearchBudget::unlimited(),
    )
    .unwrap();
    let penalty = PenaltyProvider::new(&Registry::disabled());
    let st = (pair.source(), pair.target());
    paths.extend(routed(&penalty, net, weights, st, &query));
    let inside: Vec<NodeId> = net
        .nodes()
        .filter(|&v| fwd.reached(v) && bwd.reached(v))
        .collect();
    for &v in inside.iter().step_by(inside.len() / 6 + 1) {
        let mut edges = fwd.path_edges(net, v).unwrap();
        edges.extend(bwd.path_edges(net, v).unwrap());
        if !edges.is_empty() {
            paths.push(Path::from_edges(net, weights, edges));
        }
    }
    paths.sort_by_key(|p| p.cost_under(weights));
    paths
}

/// [`apply_filters`] on the labels of the pair the candidates were grown
/// on against [`reference_filters`], for three pairs of `net` under each
/// of [`filter_weightings`].
fn check_filters_against_reference(
    net: &RoadNetwork,
    seed: u64,
    fraction: f64,
    k: usize,
) -> Result<(), String> {
    let n = net.num_nodes() as u64;
    let weightings = filter_weightings(net, seed);
    // The uniform column is cheaper than the network's own on some edges:
    // its table is its own, with the closures open.
    let open: Vec<Weight> = weightings[2].iter().map(|_| 60_000).collect();
    let own = table_of(net, net.weights());
    let tables = [own.clone(), own, table_of(net, &open)];
    for (w, (weights, landmarks)) in weightings.iter().zip(&tables).enumerate() {
        for q in 0..3u64 {
            let s = NodeId((draw(seed, 2 * q + 1) % n) as u32);
            let t = NodeId((draw(seed, 2 * q + 2) % n) as u32);
            let mut ws = SearchSpace::new(net);
            let query = AltQuery::paper();
            let Ok(pair) =
                SearchSubstrate::build(&mut ws, net, weights, landmarks, UNIT_SCALE, s, t, &query)
            else {
                continue;
            };
            let paths = filter_candidates(net, weights, &pair);
            for max_similarity in [Some(0.8), None] {
                let config = FilterConfig {
                    max_similarity,
                    lo_t_fraction: fraction,
                    comfort_ranking: false,
                    ..FilterConfig::commercial()
                };
                let got = apply_filters(&mut ws, net, weights, &pair, paths.clone(), k, &config);
                let want = reference_filters(net, weights, &paths, k, &config);
                if got.as_ref() != Ok(&want) {
                    return Err(format!(
                        "weighting {w}, {s}->{t}, {max_similarity:?}: kept {:?}, reference {:?}",
                        got.map(|kept| kept.len()),
                        want.len()
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn dissimilarity_sweep_matches_the_reference_on_a_medium_city() {
    // Paper scale, one fixed seed, 24 pairs; the odd pairs run under the
    // closure-and-slowdown overlay of the search test above. The small
    // factor caps the sweep at 64 via-nodes, far inside every ellipse.
    let g = arp_citygen::generate(arp_citygen::City::Copenhagen, arp_citygen::Scale::Medium, 5);
    let net = &g.network;
    let weightings = [net.weights().to_vec(), fixed_overlay(net)];
    let n = net.num_nodes() as u32;
    let (mut reachable, mut capped) = (0, 0);
    for i in 0..24u32 {
        let st = (NodeId((i * 1931 + 17) % n), NodeId((i * 4409 + 401) % n));
        let weights = &weightings[i as usize % 2];
        for factor in [4000, 1] {
            let options = DissimilarityOptions {
                max_candidates_factor: factor,
            };
            let visited =
                check_sweep_against_reference(net, weights, st, &AltQuery::paper(), &options)
                    .unwrap();
            reachable += usize::from(visited.is_some());
            capped += usize::from(factor == 1 && visited == Some(64));
        }
    }
    assert!(reachable >= 40, "only {reachable} of 48 sweeps ran");
    assert!(capped >= 10, "the via-node cap bit in only {capped} sweeps");
}

/// Penalty as it was before its re-searches were pruned by the tree pair
/// — the oracle the pruned loop is checked against: its own base-route
/// search, then every round an unpruned one-to-one search over the whole
/// overlay. Returns the admitted paths, the funnel and the settled count
/// of the re-searches.
fn reference_penalty(
    net: &RoadNetwork,
    weights: &[Weight],
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
    options: &PenaltyOptions,
) -> Result<(Vec<Path>, Funnel, u64), CoreError> {
    let penalize = |overlay: &mut [Weight], path: &Path| {
        for &e in &path.edges {
            let reverse = net.reverse_edge(e).filter(|_| options.penalize_reverse);
            for e in std::iter::once(e).chain(reverse) {
                overlay[e.index()] = apply_penalty(overlay[e.index()], query.penalty_factor);
            }
        }
    };
    let (mut stats, mut settled) = (Funnel::default(), 0);
    let mut ws = SearchSpace::new(net);
    let best = ws.shortest_path(net, weights, s, t)?;
    let mut overlay = weights.to_vec();
    let bound = query.cost_bound(best.cost_ms);
    stats.candidates += 1;
    let mut seen = HashSet::from([best.key()]);
    penalize(&mut overlay, &best);
    let mut accepted = vec![best];
    for _ in 1..query.iteration_budget() {
        if accepted.len() >= query.k {
            break;
        }
        let Ok(candidate) = ws.shortest_path(net, &overlay, s, t) else {
            break;
        };
        settled += ws.last_stats().settled;
        stats.iterations += 1;
        stats.candidates += 1;
        let cost_ms = candidate.cost_under(weights);
        let candidate = Path {
            cost_ms,
            ..candidate
        };
        penalize(&mut overlay, &candidate);
        if cost_ms > bound {
            stats.rejected_bound += 1;
        } else if !seen.insert(candidate.key()) {
            stats.rejected_duplicate += 1;
        } else if !candidate.is_simple() {
            stats.rejected_non_simple += 1;
        } else if accepted
            .iter()
            .any(|p| similarity::similarity(&candidate, p, weights) > options.max_similarity)
        {
            stats.rejected_similarity += 1;
        } else {
            accepted.push(candidate);
        }
    }
    Ok((accepted, stats, settled))
}

/// One Penalty query answered by the pruned loop on the query's tree pair,
/// grown with `landmarks`, and by [`reference_penalty`]: the same paths
/// (edges, costs, admission order), the same funnel, the same errors, and
/// no more settled nodes. `Ok(false)` when the pair is unroutable.
fn check_penalty_against_reference(
    net: &RoadNetwork,
    weights: &[Weight],
    landmarks: &Arc<Landmarks>,
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
    options: &PenaltyOptions,
) -> Result<bool, String> {
    let what = format!(
        "{s}->{t} eps={} factor={} {options:?}",
        query.epsilon, query.penalty_factor
    );
    let want = reference_penalty(net, weights, (s, t), query, options);
    let registry = arp_obs::Registry::new();
    let labels = [("technique", "penalty")];
    let mut ws = SearchSpace::new(net);
    let pair =
        match SearchSubstrate::build(&mut ws, net, weights, landmarks, UNIT_SCALE, s, t, query) {
            Ok(pair) => pair,
            Err((e, _)) if want.as_ref().err() == Some(&e) => return Ok(false),
            Err((e, _)) => return Err(format!("{what}: pair {e}, reference {want:?}")),
        };
    ws.set_metrics(SearchMetrics::new(&registry, &labels));
    let mut stats = Funnel::default();
    let got =
        arp_core::penalty_alternatives_from_base(&mut ws, net, weights, &pair, options, &mut stats)
            .map_err(|e| format!("{what}: {e}"))?;
    let (want, want_stats, want_settled) = want.map_err(|e| format!("{what}: reference {e}"))?;
    let costs = |paths: &[Path]| paths.iter().map(|p| p.cost_ms).collect::<Vec<_>>();
    if got != want || stats != want_stats {
        return Err(format!(
            "{what}: admitted {:?} {stats:?}, reference {:?} {want_stats:?}",
            costs(&got),
            costs(&want)
        ));
    }
    let settled = registry.counter_value("arp_search_settled_nodes_total", &labels);
    if settled > want_settled {
        return Err(format!(
            "{what}: settled {settled} > reference {want_settled}"
        ));
    }
    Ok(true)
}

/// Whether two trees are the same: root, direction, settle order, and
/// every vertex's label and parent.
fn same_tree(net: &RoadNetwork, a: &ShortestPathTree, b: &ShortestPathTree) -> bool {
    let entry = |tree: &ShortestPathTree, v| (tree.distance(v), tree.parent(v));
    (a.root, a.direction) == (b.root, b.direction)
        && a.order() == b.order()
        && net.nodes().all(|v| entry(a, v) == entry(b, v))
}

/// The Google-like provider's routes as computed on a masked copy of its
/// private column — the column with every publicly closed edge closed —
/// in a fresh workspace: the oracle for its searches reading the public
/// closures edge by edge.
fn reference_google_like(
    net: &RoadNetwork,
    public: &[Weight],
    provider: &GoogleLikeProvider,
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
) -> Vec<Vec<EdgeId>> {
    let masked: Vec<Weight> = provider
        .private_weights()
        .iter()
        .zip(public)
        .map(|(&w, &p)| if p == CLOSED { CLOSED } else { w })
        .collect();
    let mut ws = SearchSpace::new(net);
    let Ok(own) =
        SearchSubstrate::build(&mut ws, net, &masked, &unpruned(), UNIT_SCALE, s, t, query)
    else {
        return Vec::new();
    };
    let options = PlateauOptions {
        max_similarity: 0.8,
        min_plateau_fraction: 0.01,
    };
    let budget = SearchBudget::unlimited();
    let (fwd, bwd, mut funnel) = (own.forward(), own.backward(), Funnel::default());
    let paths = arp_core::plateau_alternatives_from_trees(
        net,
        &masked,
        query,
        &options,
        &mut funnel,
        fwd,
        bwd,
        &budget,
    )
    .unwrap();
    let config = FilterConfig::commercial();
    let kept = apply_filters(&mut ws, net, &masked, &own, paths, query.k, &config).unwrap();
    kept.into_iter().map(|p| p.edges).collect()
}

/// Runs `ops` — each one request: endpoints, weighting, ε, k and budget
/// drawn from its bits — through pooled workspaces whose label stores and
/// tree arrays are recycled from request to request, some kept alive
/// across later ones. Every tree pair, interrupted build and technique
/// answer must equal a fresh workspace's, and Google-like's the masked
/// column's.
fn check_reuse(
    net: &RoadNetwork,
    columns: [&[Weight]; 2],
    landmarks: &Arc<Landmarks>,
    google: &GoogleLikeProvider,
    ops: &[u32],
) -> Result<(), String> {
    let n = net.num_nodes() as u32;
    let unlimited = SearchBudget::unlimited();
    let (mut kept, mut held) = (Vec::new(), Vec::new());
    for (i, &op) in ops.iter().enumerate() {
        let bits = |shift: u32, span: u32| (op >> shift) % span;
        let (s, t) = (NodeId(op % n), NodeId(bits(5, n)));
        let weights = columns[bits(10, 2) as usize];
        let query = AltQuery::paper()
            .with_epsilon([1.0, 1.4, 2.5][bits(11, 3) as usize])
            .with_k([1, 3, 5][bits(13, 3) as usize]);
        // One build in four runs under a small expansion cap.
        let budget = || match bits(15, 4) {
            0 => SearchBudget::new().with_expansion_cap(u64::from(bits(17, 40)) + 1),
            _ => SearchBudget::unlimited(),
        };
        let what = format!("op {i}: {s}->{t} eps={} k={}", query.epsilon, query.k);
        let mut ws = SearchSpace::pooled(net, budget(), SearchMetrics::default());
        let mut fresh = SearchSpace::new(net);
        fresh.set_budget(budget());
        let got =
            SearchSubstrate::build(&mut ws, net, weights, landmarks, UNIT_SCALE, s, t, &query);
        let want = SearchSubstrate::build(
            &mut fresh, net, weights, landmarks, UNIT_SCALE, s, t, &query,
        );
        let (pair, fresh_pair) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (Err(got), Err(want)) if got == want => continue,
            (got, want) => {
                let (got, want) = (got.map(|p| p.bound()), want.map(|p| p.bound()));
                return Err(format!("{what}: built {got:?}, fresh {want:?}"));
            }
        };
        let trees = [
            (pair.forward(), fresh_pair.forward()),
            (pair.backward(), fresh_pair.backward()),
        ];
        if !trees.iter().all(|(a, b)| same_tree(net, a, b)) {
            return Err(format!("{what}: a recycled tree differs from a fresh one"));
        }
        ws.set_budget(SearchBudget::unlimited());
        fresh.set_budget(SearchBudget::unlimited());
        let mut answers = Vec::new();
        for (ws, pair) in [(&mut ws, &pair), (&mut fresh, &fresh_pair)] {
            let (fwd, bwd, mut funnel) = (pair.forward(), pair.backward(), Funnel::default());
            let plateau = PlateauOptions::default();
            let dissimilarity = DissimilarityOptions::default();
            let penalty = PenaltyOptions::default();
            answers.push([
                arp_core::plateau_alternatives_from_trees(
                    net,
                    weights,
                    &query,
                    &plateau,
                    &mut funnel,
                    fwd,
                    bwd,
                    &unlimited,
                ),
                arp_core::dissimilarity_alternatives_from_trees(
                    net,
                    weights,
                    &query,
                    &dissimilarity,
                    &mut funnel,
                    fwd,
                    bwd,
                    &unlimited,
                ),
                arp_core::penalty_alternatives_from_base(
                    ws,
                    net,
                    weights,
                    pair,
                    &penalty,
                    &mut funnel,
                ),
            ]);
        }
        if answers[0] != answers[1] {
            return Err(format!(
                "{what}: {:?} vs fresh {:?}",
                answers[0], answers[1]
            ));
        }
        let routes = google
            .answer(net, weights, pair.trip(), None, &unlimited, None)
            .unwrap();
        let routes: Vec<_> = routes.routes().into_iter().map(|r| r.path.edges).collect();
        let want = reference_google_like(net, weights, google, (s, t), &query);
        if routes != want {
            return Err(format!("{what}: google-like {routes:?}, masked {want:?}"));
        }
        // Keep some pairs and workspaces on loan across later requests.
        if bits(23, 3) == 0 {
            kept.push(pair);
        }
        if bits(25, 4) == 0 {
            held.push(ws);
        }
        if kept.len() + held.len() > 4 {
            kept.clear();
            held.clear();
        }
    }
    Ok(())
}

/// An `n`×`n` grid of two-way primary roads, nodes numbered row by row.
fn grid(n: usize) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..n * n)
        .map(|i| {
            let (x, y) = ((i % n) as f64, (i / n) as f64);
            b.add_node(Point::new(144.0 + x * 0.01, -37.0 - y * 0.01))
        })
        .collect();
    for i in 0..n * n {
        let road = EdgeSpec::category(RoadCategory::Primary);
        if i % n + 1 < n {
            b.add_bidirectional(ids[i], ids[i + 1], road);
        }
        if i / n + 1 < n {
            b.add_bidirectional(ids[i], ids[i + n], road);
        }
    }
    b.build()
}

/// Plateaus (under `plateau`), SSVP-D+ and Penalty on the tree pair of
/// one query: every funnel must balance — `candidates` is the routes returned plus every
/// rejection — SSVP-D+ must screen or build every via-node it visits
/// ([`reference_sweep`] counts them), and Penalty's candidates are its
/// base route plus one per re-search. Returns the three funnels in that
/// order, or `None` when the pair is unroutable.
fn check_funnels(
    net: &RoadNetwork,
    weights: &[Weight],
    (s, t): (NodeId, NodeId),
    query: &AltQuery,
    plateau: &PlateauOptions,
) -> Result<Option<[Funnel; 3]>, String> {
    let what = format!(
        "{s}->{t} eps={} k={} theta={} {plateau:?}",
        query.epsilon, query.k, query.theta
    );
    let mut ws = SearchSpace::new(net);
    let Ok(pair) =
        SearchSubstrate::build(&mut ws, net, weights, &unpruned(), UNIT_SCALE, s, t, query)
    else {
        return Ok(None);
    };
    let (fwd, bwd, budget) = (pair.forward(), pair.backward(), SearchBudget::unlimited());
    let options = DissimilarityOptions::default();
    let [mut plateaus, mut ssvp, mut penalty] = [Funnel::default(); 3];
    let returned = [
        arp_core::plateau_alternatives_from_trees(
            net,
            weights,
            query,
            plateau,
            &mut plateaus,
            fwd,
            bwd,
            &budget,
        ),
        arp_core::dissimilarity_alternatives_from_trees(
            net, weights, query, &options, &mut ssvp, fwd, bwd, &budget,
        ),
        arp_core::penalty_alternatives_from_base(
            &mut ws,
            net,
            weights,
            &pair,
            &PenaltyOptions::default(),
            &mut penalty,
        ),
    ];
    let funnels = [plateaus, ssvp, penalty];
    for (name, (paths, f)) in ["plateaus", "ssvp", "penalty"]
        .iter()
        .zip(returned.into_iter().zip(&funnels))
    {
        let returned = paths.map_err(|e| format!("{what} {name}: {e}"))?.len() as u64;
        let rejected = f.rejected_bound
            + f.rejected_duplicate
            + f.rejected_similarity
            + f.rejected_non_simple
            + f.rejected_short;
        if f.interrupted || f.candidates != returned + rejected {
            return Err(format!("{what} {name}: returned {returned}, funnel {f:?}"));
        }
    }
    let (_, visited) = reference_sweep(net, weights, query, &options, fwd, bwd);
    if ssvp.screened + ssvp.candidates != visited {
        return Err(format!("{what}: visited {visited}, funnel {ssvp:?}"));
    }
    if penalty.candidates != penalty.iterations + 1 {
        return Err(format!("{what}: penalty funnel {penalty:?}"));
    }
    Ok(Some(funnels))
}

/// A landmark table against the columns it is handed with: for every
/// target `t`, `lb(t, t) = 0`, `lb(v, t) ≤ d(v, t)` on each of `columns`
/// at every `v`, and `lb(u, t) ≤ w(u, v) + lb(v, t)` on every open arc of
/// `base`, the column the table was built on.
fn check_landmarks(
    net: &RoadNetwork,
    base: &[Weight],
    columns: &[&[Weight]],
    table: &Landmarks,
) -> Result<(), String> {
    for t in net.nodes() {
        if table.lower_bound(t, t, UNIT_SCALE) != 0 {
            return Err(format!(
                "lb({t}, {t}) = {}",
                table.lower_bound(t, t, UNIT_SCALE)
            ));
        }
        for column in columns {
            let to_t = reference_dijkstra(net, column, t, Direction::Backward);
            if let Some(v) = net
                .nodes()
                .find(|&v| table.lower_bound(v, t, UNIT_SCALE) > to_t[v.index()])
            {
                let lb = table.lower_bound(v, t, UNIT_SCALE);
                return Err(format!("lb({v}, {t}) = {lb} > d = {}", to_t[v.index()]));
            }
        }
        for e in net.edges().filter(|e| base[e.index()] != CLOSED) {
            let (u, v) = (net.tail(e), net.head(e));
            let (lu, lv) = (
                table.lower_bound(u, t, UNIT_SCALE),
                table.lower_bound(v, t, UNIT_SCALE),
            );
            if lu > base[e.index()] as Cost + lv {
                return Err(format!(
                    "lb({u}, {t}) = {lu} > w({e}) + lb({v}, {t}) = {lv}"
                ));
            }
        }
    }
    Ok(())
}

/// `net` under a random traffic epoch drawn from `seed`, published by the
/// traffic state a serving process keeps: each road category slowed with
/// probability 3/4, up to 5 edges slowed on top and up to 3 closed, every
/// factor of three decimals in 1–3, so that short edges round. The
/// snapshot carries the column and its bound scale.
fn random_epoch(net: &RoadNetwork, seed: u64) -> Arc<EpochSnapshot> {
    let state = TrafficState::new(Arc::new(net.clone()));
    let m = net.num_edges() as u64;
    let factor = |i| 1.0 + (draw(seed, i) % 2001) as f64 / 1000.0;
    let mut ops = Vec::new();
    for (c, category) in (0..).zip(ALL_CATEGORIES) {
        if !draw(seed, 100 + c).is_multiple_of(4) {
            ops.push(format!("cat:{}*{:.3}", category.osm_tag(), factor(200 + c)));
        }
    }
    for i in 0..draw(seed, 1) % 6 {
        ops.push(format!(
            "edge:{}*{:.3}",
            draw(seed, 300 + i) % m,
            factor(400 + i)
        ));
    }
    for i in 0..draw(seed, 2) % 4 {
        ops.push(format!("close:{}", draw(seed, 500 + i) % m));
    }
    if !ops.is_empty() {
        let delta = TrafficDelta::parse(&ops.join("; ")).expect("a well-formed delta");
        state.apply_delta(&delta).expect("edges of the network");
    }
    state.snapshot()
}

/// The base column's landmark table read at `epoch`'s bound scale `s`,
/// against the epoch's column, toward every target of `targets`: the bound
/// is exactly `⌊s · lb(v, t)⌋` (the product taken apart, in `u128`), at
/// most the reference distance `d(v, t)` at every `v`, and consistent on
/// every open arc.
fn check_scaled_bound(
    net: &RoadNetwork,
    table: &Landmarks,
    epoch: &EpochSnapshot,
    targets: impl IntoIterator<Item = NodeId>,
) -> Result<(), String> {
    let (column, s) = (epoch.weights(), epoch.bound_scale());
    let scaled = |v, t| table.lower_bound(v, t, s);
    for t in targets {
        let to_t = reference_dijkstra(net, column, t, Direction::Backward);
        for v in net.nodes() {
            let lb = table.lower_bound(v, t, UNIT_SCALE);
            let floor = ((u128::from(lb) * u128::from(s)) >> 16) as Cost;
            let got = scaled(v, t);
            if got != floor {
                return Err(format!(
                    "lb({v}, {t}) = {lb} reads {got} at {s}, not {floor}"
                ));
            }
            if got > to_t[v.index()] {
                return Err(format!(
                    "lb({v}, {t}) at {s} = {got} > d = {}",
                    to_t[v.index()]
                ));
            }
        }
        for e in net.edges().filter(|e| column[e.index()] != CLOSED) {
            let (u, v) = (net.tail(e), net.head(e));
            let (lu, lv, w) = (scaled(u, t), scaled(v, t), column[e.index()]);
            if lu > w as Cost + lv {
                return Err(format!(
                    "at {s}: lb({u}, {t}) = {lu} > w({e}) = {w} + lb({v}, {t}) = {lv}"
                ));
            }
        }
    }
    Ok(())
}

/// The tree pair of each of `pairs` on `epoch`'s column, grown with the
/// base column's table read at the epoch's bound scale, at 1.0, and with
/// the empty table: each passes [`check_bounded_build`] (labels and
/// parents inside the ellipse are the reference's), and each of the four
/// techniques answers the same routes on all three.
fn check_epoch_pairs(
    net: &RoadNetwork,
    table: &Arc<Landmarks>,
    epoch: &EpochSnapshot,
    pairs: &[(u32, u32)],
    query: &AltQuery,
) -> Result<(), String> {
    let column = &epoch.weights()[..];
    let empty = unpruned();
    let bounds = [
        (table, epoch.bound_scale()),
        (table, UNIT_SCALE),
        (&empty, UNIT_SCALE),
    ];
    let providers = standard_providers(net, 7);
    let budget = SearchBudget::unlimited();
    let mut ws = SearchSpace::new(net);
    for &(s, t) in pairs {
        let st = (NodeId(s), NodeId(t));
        let mut answers = Vec::new();
        for (landmarks, scale) in bounds {
            check_bounded_build(net, column, (landmarks, scale), st, query)?;
            let Ok(pair) =
                SearchSubstrate::build(&mut ws, net, column, landmarks, scale, st.0, st.1, query)
            else {
                continue;
            };
            let answer = |p: &dyn AlternativesProvider| {
                let fed = p.reads_pair().then_some(&pair);
                let outcome = p.answer(net, column, pair.trip(), fed, &budget, None);
                outcome.map(|o| o.routes())
            };
            answers.push(
                providers
                    .iter()
                    .map(|p| answer(p.as_ref()))
                    .collect::<Vec<_>>(),
            );
        }
        if answers.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!(
                "{s}->{t} at {}: the techniques' routes differ",
                epoch.bound_scale()
            ));
        }
    }
    Ok(())
}

#[test]
fn the_scaled_bound_holds_on_small_cities_under_random_epochs() {
    for (seed, city) in (11u64..).zip(arp_citygen::City::ALL) {
        let net = arp_citygen::generate(city, arp_citygen::Scale::Small, seed).network;
        let table = table_of(&net, net.weights());
        let n = net.num_nodes() as u64;
        for round in 0..2 {
            let epoch = random_epoch(&net, seed * 10 + round);
            let targets = (0..3).map(|i| NodeId((draw(seed, 900 + i) % n) as u32));
            check_scaled_bound(&net, &table, &epoch, targets)
                .unwrap_or_else(|e| panic!("{city:?}: {e}"));
            let pairs: Vec<(u32, u32)> = (0..2)
                .map(|i| {
                    (
                        (draw(seed, 950 + i) % n) as u32,
                        (draw(seed, 960 + i) % n) as u32,
                    )
                })
                .collect();
            check_epoch_pairs(&net, &table, &epoch, &pairs, &AltQuery::paper())
                .unwrap_or_else(|e| panic!("{city:?}: {e}"));
        }
    }
}

#[test]
fn landmark_tables_of_the_tiny_cities_are_full() {
    // Both columns a serving process builds a table on — the base column
    // and the Google-like provider's private one — are strongly
    // connected, so every entry is finite and no table is empty.
    for city in arp_citygen::City::ALL {
        let net = arp_citygen::generate(city, arp_citygen::Scale::Tiny, 3).network;
        let slowed = fixed_overlay(&net);
        // The private column under the overlay's closures: what the
        // Google-like provider searches during that epoch.
        let private = arp_core::TrafficModel::new(7).private_weights(&net);
        let closed = |(&w, &p): (&Weight, &Weight)| if p == CLOSED { CLOSED } else { w };
        let masked: Vec<Weight> = private.iter().zip(&slowed).map(closed).collect();
        for (column, overlaid) in [(net.weights(), &slowed), (&private[..], &masked)] {
            let table = Landmarks::build(&net, column);
            assert_eq!(
                table.landmarks().len(),
                arp_core::landmarks::LANDMARKS,
                "{city:?}"
            );
            assert_eq!(table.bytes(), 64 * net.num_nodes());
            check_landmarks(&net, column, &[column, overlaid], &table)
                .unwrap_or_else(|e| panic!("{city:?}: {e}"));
        }
    }
}

#[test]
fn the_bounded_build_check_catches_a_table_one_unit_too_tight() {
    // A grid corner to corner at ε = 1: the ellipse is the shortest
    // paths, so every vertex of it sits on its boundary. A table whose one
    // landmark is the target bounds d(v, t) exactly; raising one entry by
    // a single unit at an in-ellipse vertex prunes that vertex, and the
    // check must notice.
    let net = grid(6);
    let (s, t) = (NodeId(0), NodeId(35));
    let query = AltQuery::paper().with_epsilon(1.0);
    let from = reference_dijkstra(&net, net.weights(), t, Direction::Forward);
    let to = reference_dijkstra(&net, net.weights(), t, Direction::Backward);
    let (from, mut to) = ([from], [to]);
    let exact = Arc::new(Landmarks::from_distances(&[t], &from, &to));
    assert_eq!(
        check_bounded_build(&net, net.weights(), (&exact, UNIT_SCALE), (s, t), &query),
        Ok(true)
    );
    let from_s = reference_dijkstra(&net, net.weights(), s, Direction::Forward);
    let on_the_boundary = |v: &NodeId| from_s[v.index()] + to[0][v.index()] == from_s[t.index()];
    let v = net
        .nodes()
        .filter(|v| ![s, t].contains(v))
        .find(on_the_boundary);
    let v = v.expect("a shortest path has an inner vertex");
    to[0][v.index()] += 1;
    let tight = Arc::new(Landmarks::from_distances(&[t], &from, &to));
    let tight = (&tight, UNIT_SCALE);
    assert!(check_bounded_build(&net, net.weights(), tight, (s, t), &query).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let reference = bellman_ford(&net, NodeId(0));
        let mut ws = SearchSpace::new(&net);
        for t in 1..n as u32 {
            let p = ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(t)).unwrap();
            prop_assert_eq!(p.cost_ms, reference[t as usize]);
            prop_assert!(p.validate(&net));
        }
    }

    #[test]
    fn trees_agree_with_point_queries((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let mut ws = SearchSpace::new(&net);
        let fwd = ws.shortest_path_tree(&net, net.weights(), NodeId(0), Direction::Forward).unwrap();
        let bwd = ws.shortest_path_tree(&net, net.weights(), NodeId(0), Direction::Backward).unwrap();
        for v in 1..n as u32 {
            let to_v = ws.shortest_path(&net, net.weights(), NodeId(0), NodeId(v)).unwrap().cost_ms;
            let from_v = ws.shortest_path(&net, net.weights(), NodeId(v), NodeId(0)).unwrap().cost_ms;
            prop_assert_eq!(fwd.distance(NodeId(v)), to_v);
            prop_assert_eq!(bwd.distance(NodeId(v)), from_v);
        }
    }

    #[test]
    fn every_technique_returns_valid_bounded_paths((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let (s, t) = (NodeId(0), NodeId((n / 2) as u32));
        if s == t { return Ok(()); }
        let q = AltQuery::paper();
        let best = shortest_path(&net, net.weights(), s, t).unwrap().cost_ms;

        let off = Registry::disabled();
        let pen = routed(&PenaltyProvider::new(&off), &net, net.weights(), (s, t), &q);
        let pla = routed(&PlateauProvider::new(&off), &net, net.weights(), (s, t), &q);
        let dis = routed(&DissimilarityProvider::new(&off), &net, net.weights(), (s, t), &q);

        for (name, paths) in [("penalty", &pen), ("plateau", &pla), ("dissimilarity", &dis)] {
            prop_assert!(!paths.is_empty(), "{} empty", name);
            prop_assert!(paths.len() <= q.k);
            prop_assert_eq!(paths[0].cost_ms, best, "{} first path not optimal", name);
            for p in paths.iter() {
                prop_assert!(p.validate(&net), "{} invalid path", name);
                prop_assert!(p.is_simple(), "{} non-simple path", name);
                prop_assert_eq!(p.source(), s);
                prop_assert_eq!(p.target(), t);
                prop_assert!(p.cost_ms <= q.cost_bound(best), "{} exceeds stretch", name);
            }
        }

        // Dissimilarity guarantee: pairwise similarity below 1 - theta.
        for i in 0..dis.len() {
            for j in i + 1..dis.len() {
                let sim = similarity::similarity(&dis[i], &dis[j], net.weights());
                prop_assert!(sim <= 1.0 - q.theta + 1e-9);
            }
        }
    }

    #[test]
    fn every_funnel_balances(
        ((n, chords), epsilon, k, theta, min_plateau) in
            (arb_scc_graph(), 1.0f64..=3.0, 1usize..6, -1.0f64..0.9, 0.0f64..0.5),
    ) {
        // Every candidate a technique examines is returned or rejected for
        // exactly one reason, on random graphs (own and tie-rounded
        // weights) at a random stretch, k, θ (below 0 SSVP-D+ reaches its
        // loop and duplicate checks) and minimum plateau — and on the 8×8
        // grid's corner query at the paper's settings, where the θ-test
        // and Penalty's re-searches both have to fire.
        let net = build(n, &chords);
        let tied = tie_rounded(net.weights());
        let query = AltQuery::paper().with_epsilon(epsilon).with_k(k).with_theta(theta);
        let plateau = PlateauOptions { min_plateau_fraction: min_plateau, ..PlateauOptions::default() };
        for weights in [net.weights(), &tied[..]] {
            for (s, t) in [(0, n - 1), (n - 1, 0), (n / 2, 1)] {
                let st = (NodeId(s as u32), NodeId(t as u32));
                let checked = check_funnels(&net, weights, st, &query, &plateau);
                prop_assert!(checked.is_ok(), "{:?}", checked);
            }
        }
        let grid = grid(8);
        let (st, paper) = ((NodeId(0), NodeId(63)), PlateauOptions::default());
        let checked = check_funnels(&grid, grid.weights(), st, &AltQuery::paper(), &paper);
        prop_assert!(matches!(checked, Ok(Some(_))), "grid: {:?}", checked);
        let [_, ssvp, penalty] = checked.unwrap().unwrap();
        prop_assert!(ssvp.screened > 0, "the θ-test never fired");
        prop_assert!(penalty.iterations >= 1, "no re-search ran");
    }

    #[test]
    fn yen_costs_sorted_and_simple((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let t = NodeId((n - 1) as u32);
        let paths = yen_k_shortest_paths(&net, net.weights(), NodeId(0), t, 4, &SearchBudget::unlimited()).unwrap();
        prop_assert!(!paths.is_empty());
        for w in paths.windows(2) {
            prop_assert!(w[0].cost_ms <= w[1].cost_ms);
        }
        for p in &paths {
            prop_assert!(p.is_simple());
            prop_assert!(p.validate(&net));
        }
        // Yen's second path (when it exists) is the true second-shortest:
        // no technique can produce a non-optimal path cheaper than it.
        if paths.len() >= 2 {
            let second = paths[1].cost_ms;
            prop_assert!(second >= paths[0].cost_ms);
        }
    }

    #[test]
    fn similarity_bounds_hold((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let t = NodeId((n - 1) as u32);
        let paths = yen_k_shortest_paths(&net, net.weights(), NodeId(0), t, 3, &SearchBudget::unlimited()).unwrap();
        for p in &paths {
            for q in &paths {
                let s = similarity::similarity(p, q, net.weights());
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }
        let d = similarity::diversity(&paths, net.weights());
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn local_optimality_of_shortest_path((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let t = NodeId((n - 1) as u32);
        let p = shortest_path(&net, net.weights(), NodeId(0), t).unwrap();
        let lo = quality::local_optimality(&net, net.weights(), &p, 0.4, 8);
        prop_assert!(lo.is_locally_optimal(), "{:?}", lo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cch_distances_match_dijkstra((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let topo = arp_core::ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        let mut ws = SearchSpace::new(&net);
        for s in (0..n as u32).step_by(3) {
            for t in (0..n as u32).step_by(4) {
                if s == t { continue; }
                let expect = ws.shortest_distance(&net, net.weights(), NodeId(s), NodeId(t)).ok();
                prop_assert_eq!(topo.distance(&metric, NodeId(s), NodeId(t)), expect, "{} -> {}", s, t);
            }
        }
    }

    #[test]
    fn every_search_matches_the_reference_under_overlays(
        ((n, chords), codes) in (arb_scc_graph(), proptest::collection::vec(0u32..9, 100)),
    ) {
        // At most 25 cycle edges + 72 chords, so 100 codes cover every
        // edge. Closures may disconnect the graph: then every engine
        // must agree on unreachability too. The second weighting rounds
        // the overlay to multiples of 250 s so that shortest paths tie.
        let net = build(n, &chords);
        let slowed = overlay(&net, &codes);
        let tied = tie_rounded(&slowed);
        let topo = ChTopology::build(&net);
        for weights in [&slowed, &tied] {
            for (s, t) in [(0, n - 1), (n - 1, 0), (n / 2, 1)] {
                let checked = check_against_reference(
                    &net, weights, &topo, (NodeId(s as u32), NodeId(t as u32)),
                );
                prop_assert!(checked.is_ok(), "{:?}", checked);
            }
        }
    }

    #[test]
    fn dissimilarity_sweep_matches_the_reference(
        ((n, chords), codes) in (arb_scc_graph(), proptest::collection::vec(0u32..9, 100)),
    ) {
        // Every edge of these graphs is a one-way street, so via-paths
        // that loop back through a vertex do occur. Three weightings: the
        // network's own, the closure-and-slowdown overlay, and the same
        // overlay rounded to multiples of 250 s so that via-path lengths
        // tie. ε = 3 keeps most of the graph inside the ellipse. A looping
        // or repeated via-path is never dissimilar to what came before
        // it, so only θ < 0 — a test every path passes — lets one reach
        // the loop and duplicate checks.
        let net = build(n, &chords);
        let slowed = overlay(&net, &codes);
        let tied = tie_rounded(&slowed);
        for weights in [net.weights(), &slowed[..], &tied[..]] {
            for (s, t) in [(0, n - 1), (n / 2, 1)] {
                let st = (NodeId(s as u32), NodeId(t as u32));
                for (k, theta, max_candidates_factor) in [
                    (1, 0.5, 4000), (3, 0.0, 4000), (3, 0.5, 1), (3, 0.5, 4000),
                    (3, 0.9, 1), (5, 0.0, 4000), (5, 0.5, 4000), (5, 0.9, 4000),
                    (5, -1.0, 4000),
                ] {
                    let query = AltQuery::paper().with_k(k).with_theta(theta).with_epsilon(3.0);
                    let options = DissimilarityOptions { max_candidates_factor };
                    let checked = check_sweep_against_reference(&net, weights, st, &query, &options);
                    prop_assert!(checked.is_ok(), "{:?}", checked);
                }
            }
        }
    }

    #[test]
    fn reused_workspaces_and_recycled_trees_match_fresh_ones(
        ((n, chords), codes, ops) in (
            arb_scc_graph(),
            proptest::collection::vec(0u32..9, 100),
            proptest::collection::vec(0u32..u32::MAX, 16),
        ),
    ) {
        // One sequence of requests on the network's own weights and under
        // a closure-and-slowdown overlay, through workspaces and trees
        // recycled from one request to the next.
        let net = build(n, &chords);
        let slowed = overlay(&net, &codes);
        let google = GoogleLikeProvider::new(&net, 7);
        let landmarks = table_of(&net, net.weights());
        let columns = [net.weights(), &slowed[..]];
        let checked = check_reuse(&net, columns, &landmarks, &google, &ops);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn landmark_bounds_are_sound_and_consistent(
        ((n, chords), codes) in (arb_scc_graph(), proptest::collection::vec(0u32..9, 100)),
    ) {
        // A table built once on a base column bounds that column and every
        // overlay of it — factors ≥ 1 and closures — and a table on the
        // tie-rounded base column bounds the tie-rounded overlay.
        let net = build(n, &chords);
        let slowed = overlay(&net, &codes);
        let rounded = tie_rounded(net.weights());
        let tied = tie_rounded(&slowed);
        for (base, overlaid) in [(net.weights(), &slowed[..]), (&rounded[..], &tied[..])] {
            let table = Landmarks::build(&net, base);
            prop_assert!(!table.is_empty(), "a strongly connected column");
            let checked = check_landmarks(&net, base, &[base, overlaid], &table);
            prop_assert!(checked.is_ok(), "{:?}", checked);
        }
    }

    #[test]
    fn the_scaled_bound_is_sound_consistent_and_prunes_nothing_inside_the_ellipse(
        ((n, chords), seed, epsilon) in (arb_scc_graph(), any::<u64>(), 1.0f64..=2.5),
    ) {
        // The base column's table read at a random epoch's bound scale, on
        // the random graphs as drawn and with edges of a few ms, where
        // factors round on nearly every edge.
        for net in [build(n, &chords), build_short(n, &chords)] {
            let table = table_of(&net, net.weights());
            let epoch = random_epoch(&net, seed);
            prop_assert!(epoch.bound_scale() >= UNIT_SCALE);
            let checked = check_scaled_bound(&net, &table, &epoch, net.nodes());
            prop_assert!(checked.is_ok(), "{:?}", checked);
            let last = n as u32 - 1;
            for epsilon in [1.0, epsilon] {
                let query = AltQuery::paper().with_epsilon(epsilon);
                let pairs = [(0, last), (last, 0), (last / 2, 1)];
                let checked = check_epoch_pairs(&net, &table, &epoch, &pairs, &query);
                prop_assert!(checked.is_ok(), "{:?}", checked);
            }
        }
    }

    #[test]
    fn the_scaled_bound_holds_on_tiny_cities_under_random_epochs(
        (city, seed) in (0usize..3, any::<u64>()),
    ) {
        let net = arp_citygen::generate(
            arp_citygen::City::ALL[city],
            arp_citygen::Scale::Tiny,
            seed % 16,
        )
        .network;
        let table = table_of(&net, net.weights());
        let epoch = random_epoch(&net, seed);
        let n = net.num_nodes() as u64;
        let targets = (0..4).map(|i| NodeId((draw(seed, 900 + i) % n) as u32));
        let checked = check_scaled_bound(&net, &table, &epoch, targets);
        prop_assert!(checked.is_ok(), "{:?}", checked);
        let pairs: Vec<(u32, u32)> = (0..3)
            .map(|i| ((draw(seed, 950 + i) % n) as u32, (draw(seed, 960 + i) % n) as u32))
            .collect();
        let checked = check_epoch_pairs(&net, &table, &epoch, &pairs, &AltQuery::paper());
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn bounded_substrate_matches_the_reference_inside_the_ellipse(
        ((n, chords), codes, epsilon) in
            (arb_scc_graph(), proptest::collection::vec(0u32..9, 100), 1.0f64..=2.5),
    ) {
        // The one builder every request's tree pair comes from, on the
        // network's own weights and under the closure-and-slowdown
        // overlay (which may disconnect the pair), at a random stretch.
        let net = build(n, &chords);
        let slowed = overlay(&net, &codes);
        let tables = [unpruned(), table_of(&net, net.weights())];
        // ε = 1 puts every vertex of the ellipse exactly on its boundary.
        for epsilon in [1.0, epsilon] {
            let query = AltQuery::paper().with_epsilon(epsilon);
            for weights in [net.weights(), &slowed[..]] {
                for (s, t) in [(0, n - 1), (n - 1, 0), (n / 2, 1), (2, 2)] {
                    let st = (NodeId(s as u32), NodeId(t as u32));
                    for landmarks in &tables {
                        let bound = (landmarks, UNIT_SCALE);
                        let checked = check_bounded_build(&net, weights, bound, st, &query);
                        prop_assert!(checked.is_ok(), "{:?}", checked);
                    }
                }
            }
        }
    }

    #[test]
    fn certified_filters_match_the_reference(
        (graph, seed, fraction, k) in (0u32..6, any::<u64>(), 0.1f64..0.45, 1usize..5),
    ) {
        // A local-optimality window the pair's labels certify is never
        // searched; the routes kept must be the ones searching every
        // window keeps. Random grids and generated Tiny cities, each under
        // its own weights, a closure-and-slowdown overlay and a uniform
        // (tie-rich) column.
        let net = match graph {
            0..=2 => random_grid(3 + seed as usize % 6, 3 + (seed >> 8) as usize % 6, seed),
            city => arp_citygen::generate(
                arp_citygen::City::ALL[city as usize - 3],
                arp_citygen::Scale::Tiny,
                seed % 16,
            )
            .network,
        };
        let checked = check_filters_against_reference(&net, seed, fraction, k);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn esx_respects_overlap_bound((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let t = NodeId((n - 1) as u32);
        let q = AltQuery::paper();
        let opts = EsxOptions::default();
        let paths = esx_alternatives(&net, net.weights(), NodeId(0), t, &q, &opts, &SearchBudget::unlimited()).unwrap();
        prop_assert!(!paths.is_empty());
        for i in 1..paths.len() {
            for j in 0..i {
                let o = arp_core::similarity::overlap_ratio(&paths[i], &paths[j], net.weights());
                prop_assert!(o <= opts.max_overlap + 1e-9);
            }
        }
    }

    #[test]
    fn interrupted_runs_are_prefixes_of_full_runs(
        ((n, chords), cap) in (arb_scc_graph(), 1u64..4096),
    ) {
        // Cooperative cancellation must be *anytime*: a run interrupted at
        // an arbitrary expansion cap returns a prefix of the uninterrupted
        // run's routes — same admission order, byte-identical edges —
        // never a different or reordered set.
        let net = build(n, &chords);
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let q = AltQuery::paper();

        let full = routed(&PenaltyProvider::new(&Registry::disabled()), &net, net.weights(), (s, t), &q);
        // The cap covers the pair's growth too: a trip between its trees
        // leaves the proven base route as the whole partial.
        let mut ws = SearchSpace::new(&net);
        ws.set_budget(SearchBudget::new().with_expansion_cap(cap));
        let partial = match SearchSubstrate::build(&mut ws, &net, net.weights(), &unpruned(), UNIT_SCALE, s, t, &q) {
            Ok(pair) => arp_core::penalty_alternatives_from_base(
                &mut ws, &net, net.weights(), &pair, &PenaltyOptions::default(),
                &mut Funnel::default(),
            ).unwrap(),
            Err((CoreError::Interrupted, base)) => base.into_iter().collect(),
            Err((e, _)) => panic!("{e}"),
        };
        prop_assert!(partial.len() <= full.len(), "penalty grew under a budget");
        for (p, f) in partial.iter().zip(full.iter()) {
            prop_assert_eq!(&p.edges, &f.edges, "penalty partial is not a prefix");
        }

        let unlimited = SearchBudget::unlimited();
        let full = yen_k_shortest_paths(&net, net.weights(), s, t, 4, &unlimited).unwrap();
        let budget = SearchBudget::new().with_expansion_cap(cap);
        let partial = yen_k_shortest_paths(&net, net.weights(), s, t, 4, &budget).unwrap();
        prop_assert!(partial.len() <= full.len(), "yen grew under a budget");
        for (p, f) in partial.iter().zip(full.iter()) {
            prop_assert_eq!(&p.edges, &f.edges, "yen partial is not a prefix");
        }

        let full = esx_alternatives(
            &net, net.weights(), s, t, &q, &EsxOptions::default(), &unlimited,
        ).unwrap();
        let budget = SearchBudget::new().with_expansion_cap(cap);
        let partial = esx_alternatives(
            &net, net.weights(), s, t, &q, &EsxOptions::default(), &budget,
        ).unwrap();
        prop_assert!(partial.len() <= full.len(), "esx grew under a budget");
        for (p, f) in partial.iter().zip(full.iter()) {
            prop_assert_eq!(&p.edges, &f.edges, "esx partial is not a prefix");
        }
    }

    #[test]
    fn substrate_fed_techniques_match_self_computed((n, chords) in arb_scc_graph()) {
        // Whoever supplies the substrate — the call's own build
        // (`alternatives`) or a shared one — every consumer must return
        // *byte-identical* routes: same edges, same costs, same admission
        // order. This is what lets the serving layer hand one substrate to
        // all lanes without changing a single response byte (DESIGN.md §8).
        let net = build(n, &chords);
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let q = AltQuery::paper();
        let budget = SearchBudget::unlimited();
        let mut ws = SearchSpace::new(&net);
        // The shared pair is the served one, pruned by the landmark table;
        // `alternatives` grows the plain ball.
        let landmarks = table_of(&net, net.weights());
        let sub = arp_core::SearchSubstrate::build(&mut ws, &net, net.weights(), &landmarks, UNIT_SCALE, s, t, &q).unwrap();

        for provider in standard_providers(&net, 42) {
            let own = provider.alternatives(&net, net.weights(), s, t, &q).unwrap();
            let fed = provider.answer(&net, net.weights(), sub.trip(), Some(&sub), &budget, None)
                .unwrap().routes();
            prop_assert_eq!(&own, &fed, "{} differs on the shared substrate", provider.kind());
        }
    }

    #[test]
    fn pruned_penalty_matches_reference_penalty(
        ((n, chords), codes, epsilon, factor) in (
            arb_scc_graph(),
            proptest::collection::vec(0u32..9, 100),
            1.05f64..=2.5,
            1.0f64..=2.0,
        ),
    ) {
        // Penalty's re-searches label only what the tree pair's bounds
        // admit; the routes, costs, admission order and funnel must be the
        // unpruned loop's. Three weightings: the network's own, the
        // closure-and-slowdown overlay (which may disconnect the pair),
        // and that overlay rounded to multiples of 250 s so that penalized
        // paths tie. ε below 1 (nothing but the base route is admissible),
        // the paper's 1.4, a random ε and one so wide that the ellipse is
        // the whole graph; factors from 1 (no penalty at all) to 2.
        let net = build(n, &chords);
        let slowed = overlay(&net, &codes);
        let tied = tie_rounded(&slowed);
        let wide = PenaltyOptions { max_similarity: 1.0, penalize_reverse: false };
        let own = table_of(&net, net.weights());
        let rounded = table_of(&net, &tie_rounded(net.weights()));
        let columns = [(net.weights(), &own), (&slowed[..], &own), (&tied[..], &rounded)];
        for (weights, landmarks) in columns {
            for (s, t) in [(0, n - 1), (n - 1, 0), (n / 2, 1)] {
                let st = (NodeId(s as u32), NodeId(t as u32));
                for epsilon in [0.9, 1.4, epsilon, 50.0] {
                    for (factor, k) in [(factor, 3), (1.0, 2), (2.0, 5)] {
                        let query = AltQuery::paper()
                            .with_epsilon(epsilon)
                            .with_penalty_factor(factor)
                            .with_k(k);
                        for options in [PenaltyOptions::default(), wide] {
                            let checked = check_penalty_against_reference(
                                &net, weights, landmarks, st, &query, &options,
                            );
                            prop_assert!(checked.is_ok(), "{:?}", checked);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pareto_frontier_contains_optimum((n, chords) in arb_scc_graph()) {
        let net = build(n, &chords);
        let t = NodeId((n - 1) as u32);
        let routes = pareto_paths(&net, net.weights(), NodeId(0), t, &ParetoOptions::default()).unwrap();
        let best = shortest_path(&net, net.weights(), NodeId(0), t).unwrap().cost_ms;
        prop_assert_eq!(routes[0].time_ms, best);
        // Frontier is sorted by time and strictly improving in distance.
        for w in routes.windows(2) {
            prop_assert!(w[0].time_ms <= w[1].time_ms);
            prop_assert!(w[0].dist_m >= w[1].dist_m);
        }
        for r in &routes {
            prop_assert!(r.path.validate(&net));
        }
    }
}
