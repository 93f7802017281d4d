//! Travel-time weighting.
//!
//! Edge weights are travel times stored as integral **milliseconds**
//! (`u32`); path costs accumulate in `u64`. Integral weights make search
//! results exactly reproducible across platforms and let distance labels be
//! compared without floating-point tolerance.
//!
//! The paper (§3) computes the travel time of an edge as
//! `length / maxspeed`, then multiplies by **1.3** for every segment that is
//! not a freeway/motorway, to account for intersections, traffic lights and
//! turns. That calibration lives in [`WeightConfig`].

use crate::category::RoadCategory;

/// Edge weight: travel time in milliseconds.
pub type Weight = u32;

/// Path cost / distance label: travel time in milliseconds.
pub type Cost = u64;

/// Sentinel for "unreached" distance labels.
pub const INFINITY: Cost = u64::MAX;

/// Sentinel weight for a **closed** edge (live-traffic incident
/// closures). Search engines skip edges carrying this weight entirely,
/// so a closure behaves like edge removal, not like a very slow road.
///
/// `u32::MAX` never occurs naturally: [`WeightConfig::travel_time_ms`],
/// [`apply_penalty`] and [`scale_weight`] all saturate at
/// `u32::MAX - 1` (which the ESX/Yen drivers use as their own *soft*
/// block — a huge-but-traversable weight — so the two sentinels stay
/// distinct).
pub const CLOSED: Weight = u32::MAX;

/// True if `weight` is the [`CLOSED`] closure sentinel.
#[inline]
pub fn is_closed(weight: Weight) -> bool {
    weight == CLOSED
}

/// Converts milliseconds to whole display minutes, rounding half-up — the
/// demo system "rounds to display time in minutes" (§3).
pub fn ms_to_display_minutes(ms: Cost) -> u64 {
    (ms + 30_000) / 60_000
}

/// Converts milliseconds to fractional minutes.
pub fn ms_to_minutes_f64(ms: Cost) -> f64 {
    ms as f64 / 60_000.0
}

/// Converts a fractional number of minutes to milliseconds.
pub fn minutes_to_ms(minutes: f64) -> Cost {
    (minutes * 60_000.0).round() as Cost
}

/// Configuration of the travel-time model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightConfig {
    /// Multiplier applied to non-freeway segments to approximate stops at
    /// intersections and traffic lights. The paper uses **1.3**.
    pub non_freeway_factor: f64,
    /// Global speed scale (1.0 = free flow). Lets experiments model uniform
    /// congestion without rebuilding the network.
    pub speed_scale: f64,
}

impl Default for WeightConfig {
    fn default() -> Self {
        WeightConfig {
            non_freeway_factor: 1.3,
            speed_scale: 1.0,
        }
    }
}

impl WeightConfig {
    /// The paper's calibrated model (×1.3 on non-freeway segments).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A naive model with no intersection calibration; used by the
    /// calibration experiment to show why ×1.3 is needed.
    pub fn uncalibrated() -> Self {
        WeightConfig {
            non_freeway_factor: 1.0,
            speed_scale: 1.0,
        }
    }

    /// Travel time in milliseconds for a segment of `length_m` metres,
    /// driven at `speed_kmh`, classified as `category`.
    ///
    /// Returns at least 1 ms — zero-length segments included — so that
    /// edge weights are strictly positive: the search kernel's canonical
    /// parents rely on it (a zero-weight cycle of tight edges would make
    /// them cyclic).
    pub fn travel_time_ms(&self, length_m: f64, speed_kmh: f64, category: RoadCategory) -> Weight {
        let speed = (speed_kmh * self.speed_scale).max(1.0);
        let seconds = length_m.max(0.0) / (speed / 3.6);
        let factor = if category.is_freeway() {
            1.0
        } else {
            self.non_freeway_factor
        };
        let ms = (seconds * factor * 1000.0).round();
        debug_assert!(ms >= 0.0);
        if ms < 1.0 {
            1
        } else if ms >= u32::MAX as f64 {
            u32::MAX - 1
        } else {
            ms as Weight
        }
    }
}

/// Saturating multiplication of an edge weight by a penalty factor,
/// as used by the Penalty technique (factor 1.4 in the paper).
///
/// The [`CLOSED`] sentinel is preserved: penalizing a closed edge must
/// not turn it back into a (very slow) traversable one.
pub fn apply_penalty(weight: Weight, factor: f64) -> Weight {
    debug_assert!(factor >= 1.0);
    if weight == CLOSED {
        return CLOSED;
    }
    let w = (weight as f64 * factor).round();
    if w >= u32::MAX as f64 {
        u32::MAX - 1
    } else {
        w as Weight
    }
}

/// Saturating multiplication of an edge weight by a live-traffic factor
/// (rush-hour congestion). Like [`apply_penalty`] but keeps a floor of
/// 1 ms on positive weights (Dijkstra's strict-positivity invariant) and
/// preserves both the zero weight of zero-length segments and the
/// [`CLOSED`] sentinel. A factor of exactly `1.0` returns `weight`
/// unchanged, bit for bit — the identity-overlay guarantee.
pub fn scale_weight(weight: Weight, factor: f64) -> Weight {
    debug_assert!(factor >= 1.0);
    if weight == CLOSED || weight == 0 {
        return weight;
    }
    let w = (weight as f64 * factor).round();
    if w >= (u32::MAX - 1) as f64 {
        u32::MAX - 1
    } else if w < 1.0 {
        1
    } else {
        w as Weight
    }
}

/// 1.0 in the 16.16 fixed point of a **bound scale**. When every open
/// edge of one column weighs at least `s / UNIT_SCALE` times its weight in
/// another, so does every distance, and a lower bound on the other
/// column's distances, multiplied by that factor, bounds this one's
/// (`arp_traffic::EpochSnapshot::bound_scale`, DESIGN.md §8).
pub const UNIT_SCALE: u32 = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeway_has_no_calibration_factor() {
        let cfg = WeightConfig::paper();
        // 1000 m at 100 km/h = 36 s.
        let w = cfg.travel_time_ms(1000.0, 100.0, RoadCategory::Motorway);
        assert_eq!(w, 36_000);
    }

    #[test]
    fn non_freeway_gets_1_3_factor() {
        let cfg = WeightConfig::paper();
        // 1000 m at 50 km/h = 72 s; ×1.3 = 93.6 s.
        let w = cfg.travel_time_ms(1000.0, 50.0, RoadCategory::Tertiary);
        assert_eq!(w, 93_600);
    }

    #[test]
    fn uncalibrated_model_skips_factor() {
        let cfg = WeightConfig::uncalibrated();
        let w = cfg.travel_time_ms(1000.0, 50.0, RoadCategory::Tertiary);
        assert_eq!(w, 72_000);
    }

    #[test]
    fn zero_length_weighs_one_ms() {
        let cfg = WeightConfig::paper();
        assert_eq!(cfg.travel_time_ms(0.0, 50.0, RoadCategory::Primary), 1);
        assert_eq!(cfg.travel_time_ms(-5.0, 50.0, RoadCategory::Primary), 1);
    }

    #[test]
    fn tiny_positive_length_is_at_least_one_ms() {
        let cfg = WeightConfig::paper();
        assert!(cfg.travel_time_ms(0.001, 100.0, RoadCategory::Motorway) >= 1);
    }

    #[test]
    fn absurd_lengths_saturate() {
        let cfg = WeightConfig::paper();
        let w = cfg.travel_time_ms(1e15, 1.0, RoadCategory::Service);
        assert_eq!(w, u32::MAX - 1);
    }

    #[test]
    fn speed_scale_slows_traffic() {
        let base = WeightConfig::paper();
        let congested = WeightConfig {
            speed_scale: 0.5,
            ..base
        };
        let w1 = base.travel_time_ms(1000.0, 60.0, RoadCategory::Primary);
        let w2 = congested.travel_time_ms(1000.0, 60.0, RoadCategory::Primary);
        assert!((w2 as f64 / w1 as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn display_minutes_rounding() {
        assert_eq!(ms_to_display_minutes(0), 0);
        assert_eq!(ms_to_display_minutes(29_999), 0);
        assert_eq!(ms_to_display_minutes(30_000), 1);
        assert_eq!(ms_to_display_minutes(90_000), 2); // 1.5 min rounds up
        assert_eq!(ms_to_display_minutes(minutes_to_ms(24.4)), 24);
    }

    #[test]
    fn minute_conversions_roundtrip() {
        let ms = minutes_to_ms(12.5);
        assert!((ms_to_minutes_f64(ms) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn penalty_multiplies_and_saturates() {
        assert_eq!(apply_penalty(1000, 1.4), 1400);
        assert_eq!(apply_penalty(u32::MAX - 1, 1.4), u32::MAX - 1);
    }

    #[test]
    fn penalty_preserves_the_closed_sentinel() {
        assert_eq!(apply_penalty(CLOSED, 1.4), CLOSED);
        assert!(is_closed(apply_penalty(CLOSED, 1.0)));
    }

    #[test]
    fn scale_weight_identity_is_exact() {
        for w in [0u32, 1, 37, 93_600, u32::MAX - 1, CLOSED] {
            assert_eq!(scale_weight(w, 1.0), w, "{w}");
        }
    }

    #[test]
    fn scale_weight_preserves_sentinels_and_floors() {
        assert_eq!(scale_weight(CLOSED, 2.0), CLOSED);
        assert_eq!(scale_weight(0, 2.0), 0);
        assert_eq!(scale_weight(1000, 1.5), 1500);
        assert_eq!(scale_weight(u32::MAX - 1, 10.0), u32::MAX - 1);
    }
}
