//! The user-study simulator.
//!
//! Mirrors the paper's protocol (§4): queries are sampled per length bin
//! for a resident and a non-resident population, each response shows the
//! routes of all four approaches for one query, and the participant rates
//! each approach 1–5. Group means are anchored to the published tables via
//! a [`crate::calibrate::Calibration`]; variances, bin structure and the
//! ANOVA outcome emerge from the perception model.

use arp_core::provider::AlternativesProvider;
use arp_core::quality::route_set_features;
use arp_core::query::AltQuery;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::weight::{minutes_to_ms, Cost};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calibrate::Calibration;
use crate::participant::{perceived_utility, sample_normal, to_rating, Participant};
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
            for (a, provider) in providers.iter().enumerate() {
                let paths: Vec<arp_core::Path> = provider
                    .alternatives(net, net.weights(), sq.source, sq.target, &config.query)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|r| r.path)
                    .collect();
                let f =
                    route_set_features(net, net.weights(), &paths, sq.fastest_ms, config.query.k);
                let intercept = calibration.intercept(a, resident, sq.bin);
                let noise = sample_normal(&mut rng) * participant.noise_sd;
                let utility = intercept
                    + perceived_utility(&participant, &f)
                    + participant.response_effect
                    + noise;
                ratings[a] = to_rating(utility);
            }
            outcome.responses.push(ResponseRecord {
                resident,
                bin: sq.bin,
                query: sq,
                ratings,
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::unanswered;
    use arp_citygen::{City, Scale};
    use arp_core::provider::{standard_providers, ProviderKind, ProviderOutcome};
    use arp_core::{CoreError, SearchBudget, SearchSubstrate, Trip};
    use arp_roadnet::weight::Weight;

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

    /// An approach that never answers.
    struct Silent;

    impl AlternativesProvider for Silent {
        fn kind(&self) -> ProviderKind {
            ProviderKind::Penalty
        }

        fn answer(
            &self,
            _: &RoadNetwork,
            _: &[Weight],
            _: &Trip,
            _: Option<&SearchSubstrate>,
            _: &SearchBudget,
        ) -> Result<ProviderOutcome, CoreError> {
            Ok(ProviderOutcome::Complete(Vec::new()))
        }
    }

    #[test]
    fn an_approach_that_answers_nothing_is_rated_as_unanswered() {
        let g = arp_citygen::generate(City::Melbourne, Scale::Tiny, 8);
        let mut providers = standard_providers(&g.network, 8);
        providers[3] = Box::new(Silent);
        let config = StudyConfig {
            seed: 5,
            query: AltQuery::paper(),
            resident_bins: [4, 0, 0],
            nonresident_bins: [3, 0, 0],
        };
        let cal = Calibration::from_paper_targets();
        let outcome = run_study(&g.network, &providers, &config, &cal);
        assert_eq!(outcome.responses.len(), 7);

        // Replay the study's draws: a participant per response, then one
        // noise draw per approach in order.
        let mut rng = StdRng::seed_from_u64(config.seed);
        for r in &outcome.responses {
            let p = Participant::draw(r.resident, &mut rng);
            let noise: Vec<f64> = (0..4)
                .map(|_| sample_normal(&mut rng) * p.noise_sd)
                .collect();
            let utility = cal.intercept(3, r.resident, r.bin)
                + perceived_utility(&p, &unanswered(config.query.k))
                + p.response_effect
                + noise[3];
            assert_eq!(r.ratings[3], to_rating(utility), "{r:?}");
        }
        let mean = |a| {
            let v = outcome.ratings_of(a, None, None);
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!((0..3).all(|a| mean(3) < mean(a)));
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
