//! The identity-overlay regression suite: a traffic overlay whose
//! operations net out to *no change* must be invisible — byte for byte —
//! to every technique, on every city.
//!
//! This is the contract that makes the traffic subsystem safe to keep
//! always-on: serving with an identity overlay (the state every instance
//! boots into, and the state any instance returns to once every factor is
//! reset and every closure reopened) produces exactly the routes the
//! pre-traffic pipeline produced. Not "equivalent" routes — the same
//! `Route` values, node for node, cost for cost, whether a provider is
//! handed a shared substrate or its call grows its own. The overlay even
//! shares the base weight allocation (`Arc::ptr_eq`), so the zero-traffic
//! fast path costs nothing.

use std::sync::Arc;

use arp_citygen::{City, Scale};
use arp_core::{AltQuery, SearchBudget, SearchSpace, SearchSubstrate};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::NodeId;
use arp_traffic::{TrafficDelta, TrafficState};

/// Deterministic routable node pairs spread across the network: candidate
/// endpoints at fixed fractions of the node range, kept only when a route
/// exists between them.
fn routable_pairs(net: &RoadNetwork) -> Vec<(NodeId, NodeId)> {
    let n = net.num_nodes();
    let mut space = SearchSpace::new(net);
    let candidates = [
        (n / 5, 4 * n / 5),
        (n / 3, 2 * n / 3),
        (n / 10, 9 * n / 10),
        (2 * n / 5, 3 * n / 5),
    ];
    let pairs: Vec<(NodeId, NodeId)> = candidates
        .into_iter()
        .map(|(a, b)| (NodeId(a as u32), NodeId(b as u32)))
        .filter(|&(a, b)| a != b && space.shortest_distance(net, net.weights(), a, b).is_ok())
        .collect();
    assert!(
        !pairs.is_empty(),
        "generated city must contain at least one routable candidate pair"
    );
    pairs
}

/// A delta whose statements cancel out exactly: category slowed and
/// restored, an edge scaled and unscaled, an edge closed and reopened.
/// Applying it bumps the epoch (epoch counts *swaps*, not changes) but
/// must leave the effective weights identical to — and sharing the
/// allocation of — the base column.
fn identity_round_trip(city: City) {
    let g = arp_citygen::generate(city, Scale::Small, 42);
    let net = Arc::new(g.network);
    let state = TrafficState::new(Arc::clone(&net));
    let base = state.snapshot();
    assert_eq!(base.epoch(), 0);

    let delta = TrafficDelta::parse(
        "cat:primary*1.8; edge:3*2.5; close:7@9; cat:primary*1.0; edge:3*1.0; reopen:7",
    )
    .unwrap();
    let outcome = state.apply_delta(&delta).unwrap();
    assert_eq!(outcome.epoch, 1);
    let snap = state.snapshot();
    assert_eq!(snap.epoch(), 1);
    assert_eq!(snap.overlay_size(), 0, "all operations must cancel out");
    assert!(
        Arc::ptr_eq(snap.weights(), base.weights()),
        "identity overlay must share the base weight allocation"
    );

    // Sharing the allocation makes value identity trivial, but the real
    // contract is behavioural: run all four techniques on both columns,
    // on the pair their call grows (`alternatives`) and on a shared one
    // (`answer`), and demand the same `Route` values. This keeps the test
    // meaningful even if materialization later stops short-circuiting the
    // identity case.
    let query = AltQuery::paper();
    let providers = arp_core::standard_providers(&net, 42);
    let budget = SearchBudget::unlimited();
    let mut ws = arp_core::SearchSpace::new(&net);
    // The served pairs: pruned by the base column's landmark table.
    let landmarks = Arc::new(arp_core::Landmarks::build(&net, net.weights()));
    for (s, t) in routable_pairs(&net) {
        let sub_base = SearchSubstrate::build(
            &mut ws,
            &net,
            base.weights(),
            &landmarks,
            base.bound_scale(),
            s,
            t,
            &query,
        )
        .expect("routable pair must yield a substrate");
        let sub_snap = SearchSubstrate::build(
            &mut ws,
            &net,
            snap.weights(),
            &landmarks,
            snap.bound_scale(),
            s,
            t,
            &query,
        )
        .expect("routable pair must yield a substrate");

        for p in &providers {
            let plain_base = p
                .alternatives(&net, base.weights(), s, t, &query)
                .expect("base column must route");
            let plain_snap = p
                .alternatives(&net, snap.weights(), s, t, &query)
                .expect("identity column must route");
            assert_eq!(
                plain_base,
                plain_snap,
                "{}: identity overlay changed the self-computed routes",
                p.kind()
            );

            let fed_base = p
                .answer(
                    &net,
                    base.weights(),
                    sub_base.trip(),
                    Some(&sub_base),
                    &budget,
                    None,
                )
                .expect("base substrate path must route")
                .routes();
            let fed_snap = p
                .answer(
                    &net,
                    snap.weights(),
                    sub_snap.trip(),
                    Some(&sub_snap),
                    &budget,
                    None,
                )
                .expect("identity substrate path must route")
                .routes();
            assert_eq!(
                fed_base,
                fed_snap,
                "{}: identity overlay changed the substrate-fed routes",
                p.kind()
            );
            assert_eq!(
                plain_base,
                fed_base,
                "{}: substrate-fed routes diverged from self-computed ones",
                p.kind()
            );
        }
    }
}

#[test]
fn identity_overlay_is_invisible_on_melbourne() {
    identity_round_trip(City::Melbourne);
}

#[test]
fn identity_overlay_is_invisible_on_dhaka() {
    identity_round_trip(City::Dhaka);
}

#[test]
fn identity_overlay_is_invisible_on_copenhagen() {
    identity_round_trip(City::Copenhagen);
}
