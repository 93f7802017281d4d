//! The user-study simulator.
//!
//! Mirrors the paper's protocol (§4): queries are sampled per length bin
//! for a resident and a non-resident population, each response shows the
//! routes of all four approaches for one query, and the participant rates
//! each approach 1–5. Group means are anchored to the published tables via
//! a [`crate::calibrate::Calibration`]; variances, bin structure and the
//! ANOVA outcome emerge from the perception model.

use arp_core::provider::AlternativesProvider;
use arp_core::quality::{stretch, turns_per_km, wide_road_share, wiggliness};
use arp_core::query::AltQuery;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::weight::{minutes_to_ms, Cost};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calibrate::Calibration;
use crate::participant::{
    perceived_utility, sample_normal, to_rating, Participant, RouteSetFeatures,
};
use crate::sampler::{sample_queries, StudyQuery};

/// Route-length bin (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LengthBin {
    /// Fastest time in (0, 10] minutes.
    Small,
    /// Fastest time in (10, 25] minutes.
    Medium,
    /// Fastest time in (25, 80] minutes.
    Long,
}

impl LengthBin {
    /// All bins in table order.
    pub const ALL: [LengthBin; 3] = [LengthBin::Small, LengthBin::Medium, LengthBin::Long];

    /// Dense index (small = 0, medium = 1, long = 2).
    pub fn index(self) -> usize {
        match self {
            LengthBin::Small => 0,
            LengthBin::Medium => 1,
            LengthBin::Long => 2,
        }
    }

    /// Classifies a fastest travel time; `None` above 80 minutes (the
    /// paper's study area never produced such routes).
    pub fn from_ms(ms: Cost) -> Option<LengthBin> {
        if ms == 0 {
            None
        } else if ms <= minutes_to_ms(10.0) {
            Some(LengthBin::Small)
        } else if ms <= minutes_to_ms(25.0) {
            Some(LengthBin::Medium)
        } else if ms <= minutes_to_ms(80.0) {
            Some(LengthBin::Long)
        } else {
            None
        }
    }

    /// Row label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            LengthBin::Small => "Small Routes (0, 10] (mins)",
            LengthBin::Medium => "Medium Routes (10, 25] (mins)",
            LengthBin::Long => "Long Routes (25, 80] (mins)",
        }
    }
}

/// Configuration of a study run.
#[derive(Clone, Copy, Debug)]
pub struct StudyConfig {
    /// Master seed (queries, participants and noise all derive from it).
    pub seed: u64,
    /// Query parameters handed to every provider.
    pub query: AltQuery,
    /// Resident responses per bin (small, medium, long).
    pub resident_bins: [usize; 3],
    /// Non-resident responses per bin.
    pub nonresident_bins: [usize; 3],
}

impl StudyConfig {
    /// The paper's group sizes: residents 38/83/35, non-residents 28/26/27
    /// (total 237).
    pub fn paper(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            query: AltQuery::paper(),
            resident_bins: [38, 83, 35],
            nonresident_bins: [28, 26, 27],
        }
    }

    /// A reduced configuration for tests (quick, small/medium bins only).
    pub fn smoke(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            query: AltQuery::paper(),
            resident_bins: [6, 6, 0],
            nonresident_bins: [4, 4, 0],
        }
    }

    /// Total number of responses requested.
    pub fn total_responses(&self) -> usize {
        self.resident_bins.iter().sum::<usize>() + self.nonresident_bins.iter().sum::<usize>()
    }
}

/// One response: a participant rated all four approaches for one query.
#[derive(Clone, Debug)]
pub struct ResponseRecord {
    /// Whether the participant is a resident.
    pub resident: bool,
    /// Length bin of the query.
    pub bin: LengthBin,
    /// The query itself.
    pub query: StudyQuery,
    /// Ratings in approach order (Google-like, Plateaus, Dissimilarity,
    /// Penalty).
    pub ratings: [u8; 4],
    /// The features each rating was based on (same order).
    pub features: [RouteSetFeatures; 4],
}

/// The outcome of a study run.
#[derive(Clone, Debug, Default)]
pub struct StudyOutcome {
    /// All responses.
    pub responses: Vec<ResponseRecord>,
}

impl StudyOutcome {
    /// Ratings of one approach over an optionally filtered subset.
    pub fn ratings_of(
        &self,
        approach: usize,
        resident: Option<bool>,
        bin: Option<LengthBin>,
    ) -> Vec<f64> {
        self.responses
            .iter()
            .filter(|r| resident.is_none_or(|want| r.resident == want))
            .filter(|r| bin.is_none_or(|want| r.bin == want))
            .map(|r| r.ratings[approach] as f64)
            .collect()
    }

    /// Number of responses matching a filter.
    pub fn count(&self, resident: Option<bool>, bin: Option<LengthBin>) -> usize {
        self.responses
            .iter()
            .filter(|r| resident.is_none_or(|want| r.resident == want))
            .filter(|r| bin.is_none_or(|want| r.bin == want))
            .count()
    }
}

/// Computes the perception features of one approach's answer to a query:
/// the five `route_set_quality` aggregates the rater model reads, by the
/// same expressions, without its local-optimality searches.
pub fn features_of_routes(
    net: &RoadNetwork,
    query: &AltQuery,
    fastest_ms: Cost,
    routes: &[arp_core::query::Route],
) -> RouteSetFeatures {
    if routes.is_empty() {
        return RouteSetFeatures {
            count: 0,
            requested: query.k,
            mean_stretch: 2.0,
            diversity: 0.0,
            max_wiggliness: 2.0,
            turns_per_km: 4.0,
            wide_share: 0.0,
            first_stretch: 2.0,
        };
    }
    let (w, n) = (net.weights(), routes.len() as f64);
    let paths: Vec<arp_core::Path> = routes.iter().map(|r| r.path.clone()).collect();
    let mean = |f: &dyn Fn(&arp_core::Path) -> f64| paths.iter().map(f).sum::<f64>() / n;
    RouteSetFeatures {
        count: routes.len(),
        requested: query.k,
        mean_stretch: mean(&|p| stretch(p.cost_under(w), fastest_ms)),
        diversity: arp_core::similarity::diversity(&paths, w),
        max_wiggliness: paths.iter().map(|p| wiggliness(net, p)).fold(0.0, f64::max),
        turns_per_km: mean(&|p| turns_per_km(net, p, 45.0)),
        wide_share: mean(&|p| wide_road_share(net, p)),
        first_stretch: routes[0].public_cost_ms as f64 / fastest_ms.max(1) as f64,
    }
}

/// Runs the full study.
///
/// `providers` must be the four approaches in paper order (see
/// [`arp_core::provider::standard_providers`]). Under-fillable bins are
/// skipped silently; check `outcome.count(..)` against the config if exact
/// totals matter.
pub fn run_study(
    net: &RoadNetwork,
    providers: &[Box<dyn AlternativesProvider>],
    config: &StudyConfig,
    calibration: &Calibration,
) -> StudyOutcome {
    assert_eq!(
        providers.len(),
        4,
        "the study compares exactly 4 approaches"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut outcome = StudyOutcome::default();
    for (resident, quotas, qseed) in [
        (true, config.resident_bins, config.seed.wrapping_add(1)),
        (false, config.nonresident_bins, config.seed.wrapping_add(2)),
    ] {
        let queries = sample_queries(net, quotas, qseed);
        for sq in queries {
            let participant = Participant::draw(resident, &mut rng);
            let mut ratings = [0u8; 4];
            let mut features = [RouteSetFeatures::default(); 4];
            for (a, provider) in providers.iter().enumerate() {
                let routes = provider
                    .alternatives(net, net.weights(), sq.source, sq.target, &config.query)
                    .unwrap_or_default();
                let f = features_of_routes(net, &config.query, sq.fastest_ms, &routes);
                let intercept = calibration.intercept(a, resident, sq.bin);
                let noise = sample_normal(&mut rng) * participant.noise_sd;
                let utility = intercept
                    + perceived_utility(&participant, &f)
                    + participant.response_effect
                    + noise;
                ratings[a] = to_rating(utility);
                features[a] = f;
            }
            outcome.responses.push(ResponseRecord {
                resident,
                bin: sq.bin,
                query: sq,
                ratings,
                features,
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_citygen::{City, Scale};
    use arp_core::provider::standard_providers;

    #[test]
    fn bins_classify_correctly() {
        assert_eq!(LengthBin::from_ms(0), None);
        assert_eq!(
            LengthBin::from_ms(minutes_to_ms(5.0)),
            Some(LengthBin::Small)
        );
        assert_eq!(
            LengthBin::from_ms(minutes_to_ms(10.0)),
            Some(LengthBin::Small)
        );
        assert_eq!(
            LengthBin::from_ms(minutes_to_ms(10.1)),
            Some(LengthBin::Medium)
        );
        assert_eq!(
            LengthBin::from_ms(minutes_to_ms(25.0)),
            Some(LengthBin::Medium)
        );
        assert_eq!(
            LengthBin::from_ms(minutes_to_ms(26.0)),
            Some(LengthBin::Long)
        );
        assert_eq!(
            LengthBin::from_ms(minutes_to_ms(80.0)),
            Some(LengthBin::Long)
        );
        assert_eq!(LengthBin::from_ms(minutes_to_ms(81.0)), None);
    }

    #[test]
    fn paper_config_totals() {
        let c = StudyConfig::paper(1);
        assert_eq!(c.total_responses(), 237);
        assert_eq!(c.resident_bins.iter().sum::<usize>(), 156);
        assert_eq!(c.nonresident_bins.iter().sum::<usize>(), 81);
    }

    #[test]
    fn smoke_study_runs_end_to_end() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Small, 8);
        let providers = standard_providers(&g.network, 8);
        let config = StudyConfig::smoke(21);
        let cal = Calibration::from_paper_targets();
        let outcome = run_study(&g.network, &providers, &config, &cal);
        assert!(
            outcome.responses.len() >= 16,
            "got {}",
            outcome.responses.len()
        );
        for r in &outcome.responses {
            for &rating in &r.ratings {
                assert!((1..=5).contains(&rating));
            }
            for f in &r.features {
                assert!(f.count <= 3);
            }
        }
        // Both populations present.
        assert!(outcome.count(Some(true), None) >= 10);
        assert!(outcome.count(Some(false), None) >= 6);
    }

    #[test]
    fn study_is_deterministic() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Tiny, 8);
        let providers = standard_providers(&g.network, 8);
        let config = StudyConfig {
            seed: 5,
            query: AltQuery::paper(),
            resident_bins: [4, 0, 0],
            nonresident_bins: [3, 0, 0],
        };
        let cal = Calibration::from_paper_targets();
        let a = run_study(&g.network, &providers, &config, &cal);
        let b = run_study(&g.network, &providers, &config, &cal);
        assert_eq!(a.responses.len(), b.responses.len());
        for (x, y) in a.responses.iter().zip(&b.responses) {
            assert_eq!(x.ratings, y.ratings);
        }
    }

    #[test]
    fn ratings_of_filters_work() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Tiny, 8);
        let providers = standard_providers(&g.network, 8);
        let config = StudyConfig {
            seed: 5,
            query: AltQuery::paper(),
            resident_bins: [5, 0, 0],
            nonresident_bins: [5, 0, 0],
        };
        let cal = Calibration::from_paper_targets();
        let outcome = run_study(&g.network, &providers, &config, &cal);
        let all = outcome.ratings_of(0, None, None);
        let res = outcome.ratings_of(0, Some(true), None);
        let non = outcome.ratings_of(0, Some(false), None);
        assert_eq!(all.len(), res.len() + non.len());
        let small = outcome.ratings_of(1, None, Some(LengthBin::Small));
        assert_eq!(small.len(), all.len());
        assert!(outcome
            .ratings_of(1, None, Some(LengthBin::Long))
            .is_empty());
    }
}
