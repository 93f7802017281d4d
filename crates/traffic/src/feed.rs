//! [`TrafficFeed`]: a deterministic, seedable generator of traffic ticks.
//!
//! The feed is **stateless**: `delta_for_tick(tick, num_edges)` is a pure
//! function of `(seed, profile, tick)`, so replaying a schedule — in the
//! `repro_traffic` bench, in tests, or across serve restarts — always
//! produces the identical sequence of deltas. Each tick is one "hour" of
//! a 24-tick day: rush-hour waves crest at ticks 8 and 17, with the slow
//! -down distributed over road categories according to the city's
//! morphology, plus randomly spawned incident closures with short TTLs.

use arp_roadnet::category::RoadCategory;

use crate::delta::{TrafficDelta, TrafficOp};

/// City morphology: decides which road categories bear the rush hour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CityProfile {
    /// Melbourne-like regular grid: arterials (motorway/primary) jam
    /// first, the grid absorbs the rest.
    Grid,
    /// Dhaka-like dense organic web: congestion is everywhere, the
    /// minor-road mesh saturates along with the arterials.
    Organic,
    /// Copenhagen-like radial "finger plan": the radial trunk fingers
    /// carry the commute and jam hardest.
    Radial,
}

impl CityProfile {
    /// Maps a city name (as used by `arp-citygen`) to its profile.
    /// Unknown names get [`CityProfile::Grid`].
    pub fn for_city_name(name: &str) -> CityProfile {
        match name {
            "Dhaka" => CityProfile::Organic,
            "Copenhagen" => CityProfile::Radial,
            _ => CityProfile::Grid,
        }
    }

    /// Per-category share of the peak slow-down (1.0 = full amplitude).
    fn category_share(self, category: RoadCategory) -> f64 {
        use RoadCategory::*;
        match self {
            CityProfile::Grid => match category {
                Motorway | MotorwayLink => 1.0,
                Trunk | Primary => 0.8,
                Secondary => 0.5,
                Tertiary | Residential => 0.3,
                Unclassified | Service => 0.1,
            },
            CityProfile::Organic => match category {
                Motorway | MotorwayLink => 0.7,
                Trunk | Primary => 0.9,
                Secondary | Tertiary => 0.8,
                Residential | Unclassified => 0.6,
                Service => 0.3,
            },
            CityProfile::Radial => match category {
                Motorway | MotorwayLink | Trunk => 1.0,
                Primary => 0.6,
                Secondary => 0.4,
                Tertiary | Residential | Unclassified | Service => 0.2,
            },
        }
    }
}

/// The deterministic tick generator. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct TrafficFeed {
    seed: u64,
    profile: CityProfile,
    /// Peak extra slow-down at the rush-hour crest: a category with
    /// share 1.0 reaches factor `1.0 + amplitude`.
    amplitude: f64,
    /// Expected incident closures spawned per tick (each with a TTL of
    /// 1–4 ticks).
    incident_rate: f64,
}

impl TrafficFeed {
    /// A feed with the default rush-hour shape: peak factor `1.0 +
    /// amplitude` on the profile's busiest categories, ~`incident_rate`
    /// closures per tick.
    pub fn new(seed: u64, profile: CityProfile) -> TrafficFeed {
        TrafficFeed {
            seed,
            profile,
            amplitude: 1.2,
            incident_rate: 0.5,
        }
    }

    /// A feed that never changes anything: every tick yields the empty
    /// delta (the epoch still advances — quiet hours are real hours).
    pub fn quiet() -> TrafficFeed {
        TrafficFeed {
            seed: 0,
            profile: CityProfile::Grid,
            amplitude: 0.0,
            incident_rate: 0.0,
        }
    }

    /// The feed's city profile.
    pub fn profile(&self) -> CityProfile {
        self.profile
    }

    /// Rush-hour intensity in `[0, 1]` for a tick: two triangular waves
    /// peaking at hours 8 and 17 of the 24-tick day, each 3 hours wide.
    pub fn intensity(&self, tick: u64) -> f64 {
        let hour = (tick % 24) as f64;
        let peak = |center: f64| -> f64 {
            let d = (hour - center).abs();
            (1.0 - d / 3.0).max(0.0)
        };
        peak(8.0).max(peak(17.0))
    }

    /// The delta for `tick` on a network of `num_edges` edges. Pure:
    /// identical `(seed, profile, tick)` always yields the identical
    /// delta. Quiet hours (intensity 0, no incident drawn) yield the
    /// empty delta.
    pub fn delta_for_tick(&self, tick: u64, num_edges: usize) -> TrafficDelta {
        let mut ops = Vec::new();
        let intensity = self.intensity(tick);
        if self.amplitude > 0.0 {
            for &category in &arp_roadnet::category::ALL_CATEGORIES {
                let share = self.profile.category_share(category);
                let factor = 1.0 + self.amplitude * intensity * share;
                // Round to 3 decimals so the grammar rendering of a
                // feed delta round-trips exactly.
                let factor = (factor * 1000.0).round() / 1000.0;
                ops.push(TrafficOp::CategoryFactor {
                    category: category.code(),
                    factor,
                });
            }
        }
        if self.incident_rate > 0.0 && num_edges > 0 {
            let mut rng = Xorshift::new(self.seed, tick);
            // Poisson-ish: draw ⌈rate⌉ candidates, keep each with
            // probability rate/⌈rate⌉.
            let draws = self.incident_rate.ceil() as u32;
            let keep = self.incident_rate / draws as f64;
            for _ in 0..draws {
                if rng.next_f64() < keep {
                    let edge = (rng.next_u64() % num_edges as u64) as u32;
                    let ttl = 1 + (rng.next_u64() % 4) as u32;
                    ops.push(TrafficOp::Close {
                        edge,
                        ttl: Some(ttl),
                    });
                }
            }
        }
        TrafficDelta { ops }
    }
}

/// Minimal xorshift64* PRNG, split-seeded per tick so the feed stays
/// stateless (no generator to advance or persist).
struct Xorshift {
    state: u64,
}

impl Xorshift {
    fn new(seed: u64, tick: u64) -> Xorshift {
        // SplitMix64-style scrambling of (seed, tick) into a non-zero state.
        let mut z = seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Xorshift {
            state: z | 1, // never zero
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tick_same_delta() {
        let a = TrafficFeed::new(42, CityProfile::Organic);
        let b = TrafficFeed::new(42, CityProfile::Organic);
        for tick in 0..48 {
            assert_eq!(a.delta_for_tick(tick, 1000), b.delta_for_tick(tick, 1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = TrafficFeed::new(1, CityProfile::Grid);
        let b = TrafficFeed::new(2, CityProfile::Grid);
        let differs = (0..48).any(|t| a.delta_for_tick(t, 1000) != b.delta_for_tick(t, 1000));
        assert!(differs);
    }

    #[test]
    fn rush_hour_peaks_and_quiet_troughs() {
        let feed = TrafficFeed::new(7, CityProfile::Grid);
        assert_eq!(feed.intensity(8), 1.0);
        assert_eq!(feed.intensity(17), 1.0);
        assert_eq!(feed.intensity(2), 0.0);
        assert!(feed.intensity(7) > feed.intensity(6));
        // Day 2 repeats day 1.
        assert_eq!(feed.intensity(8), feed.intensity(32));
    }

    #[test]
    fn quiet_feed_emits_empty_deltas() {
        let feed = TrafficFeed::quiet();
        for tick in 0..24 {
            assert!(feed.delta_for_tick(tick, 500).is_empty());
        }
    }

    #[test]
    fn factors_are_valid_grammar() {
        // Every generated delta must survive a grammar round-trip (the
        // feed and POST /api/traffic share one validation path).
        let feed = TrafficFeed::new(9, CityProfile::Radial);
        for tick in 0..24 {
            let delta = feed.delta_for_tick(tick, 250);
            let rendered = delta.to_string();
            assert_eq!(TrafficDelta::parse(&rendered).unwrap(), delta, "{rendered}");
            for op in &delta.ops {
                if let TrafficOp::CategoryFactor { factor, .. } = op {
                    assert!(*factor >= 1.0);
                }
            }
        }
    }

    #[test]
    fn incidents_reference_valid_edges() {
        let feed = TrafficFeed::new(3, CityProfile::Organic);
        let mut spawned = 0;
        for tick in 0..400 {
            for op in feed.delta_for_tick(tick, 77).ops {
                if let TrafficOp::Close { edge, ttl } = op {
                    assert!(edge < 77);
                    assert!((1..=4).contains(&ttl.unwrap()));
                    spawned += 1;
                }
            }
        }
        assert!(spawned > 150, "rate 0.5 over 400 ticks spawned {spawned}");
    }

    #[test]
    fn profiles_weight_categories_differently() {
        let grid = TrafficFeed::new(5, CityProfile::Grid);
        let organic = TrafficFeed::new(5, CityProfile::Organic);
        let grid_d = grid.delta_for_tick(8, 100);
        let organic_d = organic.delta_for_tick(8, 100);
        assert_ne!(grid_d, organic_d);
        let residential = RoadCategory::Residential.code();
        let get = |d: &TrafficDelta| {
            d.ops
                .iter()
                .find_map(|op| match op {
                    TrafficOp::CategoryFactor { category, factor } if *category == residential => {
                        Some(*factor)
                    }
                    _ => None,
                })
                .unwrap()
        };
        assert!(
            get(&organic_d) > get(&grid_d),
            "Dhaka's residential web jams harder than Melbourne's"
        );
    }
}
