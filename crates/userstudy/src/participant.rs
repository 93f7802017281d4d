//! Simulated study participants.
//!
//! A participant perceives the quality of a route set through the factors
//! the paper's §4.2 documents and maps perceived utility onto the 1–5
//! rating scale. The model's components:
//!
//! * **route-quality features** (diversity, stretch, apparent detours,
//!   zig-zag, wide roads) weighted by mild personal preferences,
//! * **familiarity**: residents discount "apparent detours that are not"
//!   (they know the tunnels); non-residents penalize them harder,
//! * **favorite-route bias**: a per-response random effect shared by all
//!   four approaches (a participant whose favorite street is missing rates
//!   *everything* lower — the "no route using Blackburn rd" comment),
//! * **idiosyncratic noise** with participant-specific spread.

use arp_core::quality::RouteSetFeatures;
use rand::rngs::StdRng;
use rand::RngExt;

/// A simulated participant.
#[derive(Clone, Copy, Debug)]
pub struct Participant {
    /// Lives (or has lived) in the study city.
    pub resident: bool,
    /// Std-dev of the per-rating noise (people differ in decisiveness).
    pub noise_sd: f64,
    /// Multiplier on the apparent-detour penalty (residents < 1,
    /// non-residents > 1).
    pub misperception: f64,
    /// Personal weight on comfort features (turns, wide roads).
    pub comfort_pref: f64,
    /// Per-response random effect (favorite-route bias); drawn once per
    /// response and applied to all four approaches.
    pub response_effect: f64,
}

impl Participant {
    /// Draws a participant with the given residency from `rng`.
    pub fn draw(resident: bool, rng: &mut StdRng) -> Participant {
        let noise_sd = rng.random_range(0.95..1.45);
        let misperception = if resident {
            rng.random_range(0.3..0.8)
        } else {
            rng.random_range(0.9..1.6)
        };
        let comfort_pref = rng.random_range(0.5..1.5);
        // Favorite-route bias: usually near zero, occasionally strongly
        // negative ("none of these use my street").
        let response_effect = if rng.random_bool(0.2) {
            -rng.random_range(0.3..1.0)
        } else {
            rng.random_range(-0.2..0.2)
        };
        Participant {
            resident,
            noise_sd,
            misperception,
            comfort_pref,
            response_effect,
        }
    }
}

/// Standard-normal sample via Box–Muller.
pub fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// What a rater reads off an approach that answered nothing: a set
/// asked for `requested` routes that is slow, detoured, zig-zagging and
/// off the wide roads. Core measures an empty set as zeros; the
/// pessimism is a perception policy.
pub fn unanswered(requested: usize) -> RouteSetFeatures {
    RouteSetFeatures {
        count: 0,
        requested,
        mean_stretch: 2.0,
        first_stretch: 2.0,
        diversity: 0.0,
        max_wiggliness: 2.0,
        turns_per_km: 4.0,
        wide_share: 0.0,
    }
}

/// Perceived utility of a route set for this participant, before the
/// calibration intercept and noise. Centered so a typical good route set
/// contributes ≈ 0. An empty set is perceived as [`unanswered`].
pub fn perceived_utility(p: &Participant, f: &RouteSetFeatures) -> f64 {
    let f = &if f.count == 0 {
        unanswered(f.requested)
    } else {
        *f
    };
    let missing = f.requested.saturating_sub(f.count) as f64;
    let stretch_excess = (f.mean_stretch - 1.15).max(-0.15);
    let first_excess = (f.first_stretch - 1.0).max(0.0);
    let wiggle_excess = (f.max_wiggliness - 1.35).max(-0.35);
    let diversity_signal = f.diversity - 0.55;
    let turns_signal = f.turns_per_km - 2.0;
    let wide_signal = f.wide_share - 0.5;

    0.55 * diversity_signal
        - 0.9 * stretch_excess
        - 1.1 * first_excess
        - 0.5 * p.misperception * wiggle_excess
        + p.comfort_pref * (0.25 * wide_signal - 0.05 * turns_signal)
        - 0.35 * missing
}

/// Maps utility to the discrete 1–5 rating.
pub fn to_rating(utility: f64) -> u8 {
    utility.round().clamp(1.0, 5.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn baseline_features() -> RouteSetFeatures {
        RouteSetFeatures {
            count: 3,
            requested: 3,
            mean_stretch: 1.15,
            diversity: 0.55,
            max_wiggliness: 1.35,
            turns_per_km: 2.0,
            wide_share: 0.5,
            first_stretch: 1.0,
        }
    }

    #[test]
    fn baseline_utility_is_near_zero() {
        let mut r = rng(1);
        let p = Participant::draw(true, &mut r);
        let u = perceived_utility(&p, &baseline_features());
        assert!(u.abs() < 0.05, "u = {u}");
    }

    #[test]
    fn diversity_improves_utility() {
        let mut r = rng(2);
        let p = Participant::draw(true, &mut r);
        let mut good = baseline_features();
        good.diversity = 0.9;
        assert!(perceived_utility(&p, &good) > perceived_utility(&p, &baseline_features()));
    }

    #[test]
    fn stretch_and_missing_routes_hurt() {
        let mut r = rng(3);
        let p = Participant::draw(false, &mut r);
        let mut stretched = baseline_features();
        stretched.mean_stretch = 1.4;
        assert!(perceived_utility(&p, &stretched) < perceived_utility(&p, &baseline_features()));
        let mut missing = baseline_features();
        missing.count = 1;
        assert!(
            perceived_utility(&p, &missing) < perceived_utility(&p, &baseline_features()) - 0.5
        );
    }

    #[test]
    fn non_residents_penalize_apparent_detours_more() {
        // Average over many draws: misperception ranges don't overlap.
        let mut r = rng(4);
        let mut wiggly = baseline_features();
        wiggly.max_wiggliness = 2.0;
        let mut res_sum = 0.0;
        let mut non_sum = 0.0;
        for _ in 0..200 {
            let res = Participant::draw(true, &mut r);
            let non = Participant::draw(false, &mut r);
            res_sum += perceived_utility(&res, &wiggly);
            non_sum += perceived_utility(&non, &wiggly);
        }
        assert!(non_sum / 200.0 < res_sum / 200.0 - 0.1);
    }

    #[test]
    fn first_route_mismatch_hurts() {
        let mut r = rng(5);
        let p = Participant::draw(true, &mut r);
        let mut mismatch = baseline_features();
        mismatch.first_stretch = 1.2; // recommended route 20% slower publicly
        assert!(
            perceived_utility(&p, &mismatch) < perceived_utility(&p, &baseline_features()) - 0.1
        );
    }

    #[test]
    fn an_empty_set_is_perceived_as_unanswered_not_as_zeros() {
        let mut r = rng(8);
        let p = Participant::draw(false, &mut r);
        let empty = RouteSetFeatures {
            requested: 3,
            ..RouteSetFeatures::default()
        };
        assert_eq!(
            perceived_utility(&p, &empty),
            perceived_utility(&p, &unanswered(3))
        );
        // Read literally, core's zeros are shorter than the optimum.
        let zeros = RouteSetFeatures { count: 1, ..empty };
        assert!(perceived_utility(&p, &empty) < perceived_utility(&p, &zeros) - 1.0);
    }

    #[test]
    fn rating_clamps() {
        assert_eq!(to_rating(-3.0), 1);
        assert_eq!(to_rating(3.4), 3);
        assert_eq!(to_rating(3.6), 4);
        assert_eq!(to_rating(9.0), 5);
    }

    #[test]
    fn normal_sampler_moments() {
        let mut r = rng(6);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = sample_normal(&mut r);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn participants_vary_but_deterministically() {
        let mut r1 = rng(7);
        let mut r2 = rng(7);
        let a = Participant::draw(true, &mut r1);
        let b = Participant::draw(true, &mut r2);
        assert_eq!(a.noise_sd, b.noise_sd);
        assert_eq!(a.response_effect, b.response_effect);
    }
}
