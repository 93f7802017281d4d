//! [`TrafficOverlay`]: the accumulated live-traffic state — per-category
//! and per-edge slow-down factors plus incident closures — and its
//! materialization into an effective weight column.
//!
//! The overlay is **copy-on-write at the column level**: applying a delta
//! clones the (small) overlay, mutates the clone, and materializes one
//! fresh `Vec<Weight>` for the new epoch; in-flight readers keep the
//! previous epoch's column untouched. An identity overlay materializes to
//! the base column itself (shared, not copied), so serving with no
//! traffic active costs zero extra memory and produces byte-identical
//! results by construction.

use std::collections::BTreeMap;
use std::sync::Arc;

use arp_roadnet::category::{RoadCategory, ALL_CATEGORIES};
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::weight::{scale_weight, Weight, CLOSED, UNIT_SCALE};

use crate::delta::{TrafficDelta, TrafficOp};
use crate::error::TrafficError;

/// Number of road categories (the size of the per-category factor table).
const NUM_CATEGORIES: usize = ALL_CATEGORIES.len();

/// The slow-down half of an overlay: every factor, no closure. Two
/// overlays with equal factors materialize columns that differ exactly on
/// the edges one of them closes and the other does not.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficFactors {
    /// Slow-down per road category, indexed by [`RoadCategory::code`].
    category: [f64; NUM_CATEGORIES],
    /// Per-edge slow-down, keyed by edge id. `BTreeMap` keeps iteration
    /// (and thus materialization and reporting) deterministic.
    edges: BTreeMap<u32, f64>,
}

impl TrafficFactors {
    /// Every factor 1.0.
    fn identity() -> TrafficFactors {
        TrafficFactors {
            category: [1.0; NUM_CATEGORIES],
            edges: BTreeMap::new(),
        }
    }

    /// What `edge` of `net`, `base` ms long, weighs under these factors
    /// when it is open: its category's factor times its own, applied with
    /// [`scale_weight`] (`base` itself, bit for bit, at factor 1.0).
    pub(crate) fn weigh(&self, net: &RoadNetwork, edge: u32, base: Weight) -> Weight {
        let mut factor = self.category[net.category(arp_roadnet::EdgeId(edge)).code() as usize];
        if let Some(f) = self.edges.get(&edge) {
            factor *= f;
        }
        if factor == 1.0 {
            base
        } else {
            scale_weight(base, factor)
        }
    }

    /// The **bound scale** of these factors: the largest 16.16 fixed-point
    /// `s` ([`UNIT_SCALE`] = 1.0) with `w · UNIT_SCALE ≥ s · base` on
    /// every edge of `column`, the materialization of `base` under them. A
    /// closed edge is measured at the weight these factors give it open,
    /// so closures never move the scale: it is a function of the factors
    /// alone. Measured, not derived from the factors, so it covers
    /// [`scale_weight`]'s rounding and saturation. One pass, comparing
    /// ratios by cross-multiplication (weights are below 2³², so the
    /// products fit a `u64`) and dividing once; an edge of base weight 0
    /// bounds nothing and is skipped.
    pub(crate) fn bound_scale(&self, net: &RoadNetwork, base: &[Weight], column: &[Weight]) -> u32 {
        if *self == TrafficFactors::identity() {
            return UNIT_SCALE;
        }
        // The least `w / base` so far, as `(w, base)`.
        let mut least: Option<(u64, u64)> = None;
        for (e, (&b, &w)) in base.iter().zip(column).enumerate() {
            if b == 0 || b == CLOSED {
                continue;
            }
            let w = if w == CLOSED {
                self.weigh(net, e as u32, b)
            } else {
                w
            };
            let (w, b) = (w as u64, b as u64);
            if least.is_none_or(|(lw, lb)| w * lb < lw * b) {
                least = Some((w, b));
            }
        }
        least.map_or(UNIT_SCALE, |(w, b)| {
            ((w << 16) / b).min(u32::MAX as u64) as u32
        })
    }
}

/// Accumulated live-traffic state over one road network.
///
/// Factors compose multiplicatively per edge: `category_factor ×
/// edge_factor`, both defaulting to 1.0. Closures override factors
/// entirely ([`CLOSED`] wins). All mutation goes through
/// [`TrafficOverlay::apply`], which validates against the network before
/// touching anything, so an overlay is never half-updated.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficOverlay {
    factors: TrafficFactors,
    /// Closed edges → expiry tick (`None` = until explicitly reopened).
    closures: BTreeMap<u32, Option<u64>>,
}

impl Default for TrafficOverlay {
    fn default() -> Self {
        TrafficOverlay::identity()
    }
}

impl TrafficOverlay {
    /// The identity overlay: every factor 1.0, no closures.
    pub fn identity() -> TrafficOverlay {
        TrafficOverlay {
            factors: TrafficFactors::identity(),
            closures: BTreeMap::new(),
        }
    }

    /// True if materializing would reproduce the base column exactly.
    pub fn is_identity(&self) -> bool {
        self.closures.is_empty() && self.factors == TrafficFactors::identity()
    }

    /// Number of active incident closures.
    pub fn num_closures(&self) -> usize {
        self.closures.len()
    }

    /// Number of per-edge factor overrides.
    pub fn num_edge_factors(&self) -> usize {
        self.factors.edges.len()
    }

    /// Number of road categories with a non-1.0 factor.
    pub fn num_category_factors(&self) -> usize {
        self.factors.category.iter().filter(|&&f| f != 1.0).count()
    }

    /// The overlay's factors, without its closures.
    pub fn factors(&self) -> &TrafficFactors {
        &self.factors
    }

    /// Total number of overlay entries (the "overlay size" that
    /// `/api/health` reports).
    pub fn size(&self) -> usize {
        self.num_closures() + self.num_edge_factors() + self.num_category_factors()
    }

    /// True if `edge` is currently closed.
    pub fn is_closed(&self, edge: u32) -> bool {
        self.closures.contains_key(&edge)
    }

    /// The closed edges, in increasing id order.
    pub fn closed_edges(&self) -> impl Iterator<Item = u32> + '_ {
        self.closures.keys().copied()
    }

    /// The overlay as one delta that rebuilds it from any state:
    /// `clear`, then every non-1.0 category factor, every edge factor and
    /// every closure (closure expiries in their absolute `@@` form), each
    /// in key order. A journal checkpoint is this delta's text.
    pub fn to_delta(&self) -> TrafficDelta {
        let categories = self
            .factors
            .category
            .iter()
            .enumerate()
            .filter(|(_, &factor)| factor != 1.0)
            .map(|(code, &factor)| TrafficOp::CategoryFactor {
                category: code as u8,
                factor,
            });
        let edges = self
            .factors
            .edges
            .iter()
            .map(|(&edge, &factor)| TrafficOp::EdgeFactor { edge, factor });
        let closures = self.closures.iter().map(|(&edge, &expiry)| match expiry {
            Some(expiry) => TrafficOp::CloseAt { edge, expiry },
            None => TrafficOp::Close { edge, ttl: None },
        });
        let ops = std::iter::once(TrafficOp::Clear)
            .chain(categories)
            .chain(edges)
            .chain(closures);
        TrafficDelta { ops: ops.collect() }
    }

    /// One step of the published history, the only way the live swap
    /// and journal replay move an overlay: entering a later tick (`tick >
    /// from`) first expires the closures due by `tick`, then `delta`
    /// applies at `tick`. Returns `(expired, applied)`. On error no
    /// statement applied, but closures may have expired, so callers step
    /// a copy.
    pub(crate) fn step(
        &mut self,
        net: &RoadNetwork,
        delta: &TrafficDelta,
        from: u64,
        tick: u64,
    ) -> Result<(usize, usize), TrafficError> {
        let expired = if tick > from { self.expire(tick) } else { 0 };
        Ok((expired, self.apply(net, delta, tick)?))
    }

    /// Validates every statement of `delta` against `net` **before**
    /// applying any of them, then applies all in order. `now` is the
    /// current feed tick; `close:<id>@<ttl>` closures expire at
    /// `now + ttl` (see [`TrafficOverlay::expire`]).
    ///
    /// Returns the number of statements applied.
    pub fn apply(
        &mut self,
        net: &RoadNetwork,
        delta: &TrafficDelta,
        now: u64,
    ) -> Result<usize, TrafficError> {
        for op in &delta.ops {
            self.validate(net, op)?;
        }
        for op in &delta.ops {
            self.apply_op(op, now);
        }
        Ok(delta.ops.len())
    }

    fn validate(&self, net: &RoadNetwork, op: &TrafficOp) -> Result<(), TrafficError> {
        let check_edge = |edge: u32| -> Result<(), TrafficError> {
            if (edge as usize) < net.num_edges() {
                Ok(())
            } else {
                Err(TrafficError::EdgeOutOfRange {
                    edge,
                    num_edges: net.num_edges(),
                })
            }
        };
        let check_factor = |factor: f64| -> Result<(), TrafficError> {
            if !factor.is_finite() {
                Err(TrafficError::FactorNotFinite)
            } else if factor < 1.0 {
                Err(TrafficError::FactorBelowOne { factor })
            } else {
                Ok(())
            }
        };
        match op {
            TrafficOp::EdgeFactor { edge, factor } => {
                check_edge(*edge)?;
                check_factor(*factor)
            }
            TrafficOp::CategoryFactor { category, factor } => {
                if RoadCategory::from_code(*category).is_none() {
                    return Err(TrafficError::UnknownCategory {
                        tag: format!("code {category}"),
                    });
                }
                check_factor(*factor)
            }
            TrafficOp::Close { edge, .. }
            | TrafficOp::CloseAt { edge, .. }
            | TrafficOp::Reopen { edge } => check_edge(*edge),
            TrafficOp::Clear => Ok(()),
        }
    }

    fn apply_op(&mut self, op: &TrafficOp, now: u64) {
        match op {
            TrafficOp::EdgeFactor { edge, factor } => {
                if *factor == 1.0 {
                    self.factors.edges.remove(edge);
                } else {
                    self.factors.edges.insert(*edge, *factor);
                }
            }
            TrafficOp::CategoryFactor { category, factor } => {
                self.factors.category[*category as usize] = *factor;
            }
            TrafficOp::Close { edge, ttl } => {
                let expiry = ttl.map(|t| now.saturating_add(t as u64));
                self.closures.insert(*edge, expiry);
            }
            TrafficOp::CloseAt { edge, expiry } => {
                // The absolute form carries its expiry verbatim — `now`
                // plays no part, which is exactly why journal replay
                // after downtime cannot resurrect expired closures.
                self.closures.insert(*edge, Some(*expiry));
            }
            TrafficOp::Reopen { edge } => {
                self.closures.remove(edge);
            }
            TrafficOp::Clear => *self = TrafficOverlay::identity(),
        }
    }

    /// Removes closures whose expiry tick is `<= now`. Returns how many
    /// expired. Factors never expire (the feed replaces them each tick).
    pub fn expire(&mut self, now: u64) -> usize {
        let before = self.closures.len();
        self.closures
            .retain(|_, expiry| expiry.map(|at| at > now).unwrap_or(true));
        before - self.closures.len()
    }

    /// Materializes the effective weight column for `base` under this
    /// overlay.
    ///
    /// The identity overlay returns `base` itself (`Arc::clone`, zero
    /// copies — the byte-identity guarantee is structural, not numeric).
    /// Otherwise a fresh column is built with [`scale_weight`] (exact
    /// identity for untouched edges, saturating and sentinel-preserving
    /// for the rest) and [`CLOSED`] stamped over closed edges.
    pub fn materialize(&self, net: &RoadNetwork, base: &Arc<Vec<Weight>>) -> Arc<Vec<Weight>> {
        debug_assert_eq!(base.len(), net.num_edges());
        if self.is_identity() {
            return Arc::clone(base);
        }
        let mut column: Vec<Weight> = base
            .iter()
            .enumerate()
            .map(|(i, &w)| self.factors.weigh(net, i as u32, w))
            .collect();
        for &edge in self.closures.keys() {
            column[edge as usize] = CLOSED;
        }
        Arc::new(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::geo::Point;

    fn line(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(Point::new(i as f64 * 0.01, 0.0)))
            .collect();
        for i in 0..n - 1 {
            b.add_bidirectional(
                ids[i],
                ids[i + 1],
                EdgeSpec::category(RoadCategory::Primary),
            );
        }
        b.build()
    }

    fn base_of(net: &RoadNetwork) -> Arc<Vec<Weight>> {
        Arc::new(net.weights().to_vec())
    }

    #[test]
    fn identity_overlay_shares_the_base_column() {
        let net = line(4);
        let base = base_of(&net);
        let overlay = TrafficOverlay::identity();
        assert!(overlay.is_identity());
        assert_eq!(overlay.size(), 0);
        let column = overlay.materialize(&net, &base);
        assert!(Arc::ptr_eq(&column, &base), "identity must not copy");
    }

    #[test]
    fn factors_compose_and_closures_win() {
        let net = line(4);
        let base = base_of(&net);
        let mut overlay = TrafficOverlay::identity();
        let delta = TrafficDelta::parse("cat:primary*2.0; edge:0*1.5; close:1").unwrap();
        assert_eq!(overlay.apply(&net, &delta, 0).unwrap(), 3);
        let column = overlay.materialize(&net, &base);
        // Edge 0: category 2.0 × edge 1.5 = 3.0.
        assert_eq!(column[0], scale_weight(base[0], 3.0));
        // Edge 1: closed, regardless of its category factor.
        assert_eq!(column[1], CLOSED);
        // Other primaries: category factor only.
        assert_eq!(column[2], scale_weight(base[2], 2.0));
        assert_eq!(overlay.size(), 3);
    }

    #[test]
    fn validation_rejects_without_partial_application() {
        let net = line(3);
        let mut overlay = TrafficOverlay::identity();
        // Second statement is out of range: nothing may apply.
        let delta = TrafficDelta::parse("edge:0*2.0; close:999").unwrap();
        assert!(matches!(
            overlay.apply(&net, &delta, 0),
            Err(TrafficError::EdgeOutOfRange { .. })
        ));
        assert!(overlay.is_identity(), "failed delta must not half-apply");
    }

    #[test]
    fn ttl_expiry_restores_the_base_weight_exactly() {
        let net = line(4);
        let base = base_of(&net);
        let mut overlay = TrafficOverlay::identity();
        overlay
            .apply(&net, &TrafficDelta::parse("close:2@3").unwrap(), 10)
            .unwrap();
        assert!(overlay.is_closed(2));
        assert_eq!(overlay.expire(12), 0, "not yet: expires at 13");
        assert!(overlay.is_closed(2));
        assert_eq!(overlay.expire(13), 1);
        assert!(!overlay.is_closed(2));
        // Back to identity: the materialized column IS the base again.
        assert!(overlay.is_identity());
        assert!(Arc::ptr_eq(&overlay.materialize(&net, &base), &base));
    }

    #[test]
    fn untimed_closures_survive_expiry_until_reopened() {
        let net = line(4);
        let mut overlay = TrafficOverlay::identity();
        overlay
            .apply(&net, &TrafficDelta::parse("close:1").unwrap(), 0)
            .unwrap();
        assert_eq!(overlay.expire(u64::MAX), 0);
        assert!(overlay.is_closed(1));
        overlay
            .apply(&net, &TrafficDelta::parse("reopen:1").unwrap(), 0)
            .unwrap();
        assert!(!overlay.is_closed(1));
    }

    #[test]
    fn clear_returns_to_identity() {
        let net = line(4);
        let mut overlay = TrafficOverlay::identity();
        overlay
            .apply(
                &net,
                &TrafficDelta::parse("cat:primary*3.0; close:0; edge:1*2.0; clear").unwrap(),
                0,
            )
            .unwrap();
        assert!(overlay.is_identity());
    }

    #[test]
    fn absolute_closures_ignore_now_and_expire_at_their_tick() {
        let net = line(4);
        let mut overlay = TrafficOverlay::identity();
        // Applied at tick 10, but the expiry is absolute tick 5: the
        // closure is already stale and the next expiry sweep removes it.
        overlay
            .apply(&net, &TrafficDelta::parse("close:2@@5").unwrap(), 10)
            .unwrap();
        assert!(overlay.is_closed(2));
        assert_eq!(overlay.expire(10), 1, "expiry 5 <= now 10");
        assert!(!overlay.is_closed(2));
        // A future absolute expiry behaves exactly like close:2@<ttl>.
        overlay
            .apply(&net, &TrafficDelta::parse("close:2@@13").unwrap(), 10)
            .unwrap();
        assert_eq!(overlay.expire(12), 0);
        assert_eq!(overlay.expire(13), 1);
    }

    #[test]
    fn to_delta_rebuilds_the_overlay_from_any_state() {
        let net = line(8);
        let mut overlay = TrafficOverlay::identity();
        overlay
            .apply(
                &net,
                &TrafficDelta::parse("cat:primary*1.7; edge:2*3.0; close:4@@9; close:6").unwrap(),
                0,
            )
            .unwrap();
        let delta = overlay.to_delta();
        assert_eq!(
            delta.to_string(),
            "clear; cat:primary*1.7; edge:2*3; close:4@@9; close:6"
        );
        let mut rebuilt = TrafficOverlay::identity();
        rebuilt
            .apply(
                &net,
                &TrafficDelta::parse("cat:residential*2.0; close:1").unwrap(),
                0,
            )
            .unwrap();
        // Through the text, as a checkpoint travels, and at a later tick:
        // `@@` expiries ignore the tick they apply at.
        let text = TrafficDelta::parse(&delta.to_string()).unwrap();
        rebuilt.apply(&net, &text, 50).unwrap();
        assert_eq!(rebuilt, overlay);
        assert_eq!(TrafficOverlay::identity().to_delta().to_string(), "clear");
    }

    #[test]
    fn a_step_into_a_later_tick_expires_before_it_applies() {
        let net = line(4);
        let mut overlay = TrafficOverlay::identity();
        let close = TrafficDelta::parse("close:1@@3").unwrap();
        assert_eq!(overlay.step(&net, &close, 0, 0).unwrap(), (0, 1));
        // Same tick: nothing expires, even a closure already due.
        assert_eq!(
            overlay.step(&net, &TrafficDelta::empty(), 3, 3).unwrap(),
            (0, 0)
        );
        assert!(overlay.is_closed(1));
        assert_eq!(
            overlay.step(&net, &TrafficDelta::empty(), 3, 4).unwrap(),
            (1, 0)
        );
        assert!(overlay.is_identity());
    }

    #[test]
    fn setting_a_factor_back_to_one_removes_the_entry() {
        let net = line(4);
        let mut overlay = TrafficOverlay::identity();
        overlay
            .apply(&net, &TrafficDelta::parse("edge:1*2.0").unwrap(), 0)
            .unwrap();
        assert_eq!(overlay.num_edge_factors(), 1);
        overlay
            .apply(
                &net,
                &TrafficDelta::parse("edge:1*1.0; cat:primary*1.0").unwrap(),
                0,
            )
            .unwrap();
        assert!(overlay.is_identity());
    }
}
