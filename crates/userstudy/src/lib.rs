#![warn(missing_docs)]
//! # arp-userstudy
//!
//! The user-study apparatus of the reproduction: simulated participants
//! rate the four approaches' alternative routes, and the statistics layer
//! regenerates the paper's Tables 1–3 and one-way ANOVA (§4).
//!
//! Real participants cannot be reproduced offline; what this crate makes
//! reproducible is the full *pipeline*: stratified query sampling by
//! fastest-travel-time bin, blind rating collection, group summaries
//! `m(sd)`, and the significance test. The perception model encodes every
//! mechanism the paper's §4.2 documents (apparent detours, resident
//! familiarity, favorite-route bias, comfort preferences, data mismatch),
//! and a [`calibrate::Calibration`] layer anchors cell means to the
//! published tables so the mixture rows and ANOVA outcome can be compared
//! against the paper (see DESIGN.md for the substitution rationale).
//!
//! ```no_run
//! use arp_citygen::{City, Scale};
//! use arp_core::provider::standard_providers;
//! use arp_userstudy::prelude::*;
//!
//! let city = arp_citygen::generate(City::Melbourne, Scale::Medium, 42);
//! let providers = standard_providers(&city.network, 42);
//! let config = StudyConfig::paper(42);
//! let cal = Calibration::from_paper_targets();
//! let outcome = run_study(&city.network, &providers, &config, &cal);
//! println!("{}", render(&table1(&outcome)));
//! println!("{}", render_anova(&anova_report(&outcome)));
//! ```

pub mod anova;
pub mod calibrate;
pub mod dist;
pub mod paper;
pub mod participant;
pub mod posthoc;
pub mod power;
pub mod sampler;
pub mod stats;
pub mod study;
pub mod tables;

pub use anova::{one_way_anova, AnovaResult};
pub use calibrate::Calibration;
pub use posthoc::{kruskal_wallis, pairwise_welch, KruskalWallisResult, PairwiseComparison};
pub use power::{required_n, simulate_power, PowerDesign};
pub use sampler::{sample_queries, StudyQuery};
pub use stats::{Summary, Welford};
pub use study::{run_study, LengthBin, ResponseRecord, StudyConfig, StudyOutcome};
pub use tables::{anova_report, render, render_anova, render_vs_paper, table1, table2, table3};

/// Convenient glob import.
pub mod prelude {
    pub use crate::anova::{one_way_anova, AnovaResult};
    pub use crate::calibrate::Calibration;
    pub use crate::sampler::{sample_queries, StudyQuery};
    pub use crate::stats::{Summary, Welford};
    pub use crate::study::{run_study, LengthBin, StudyConfig, StudyOutcome};
    pub use crate::tables::{
        anova_report, render, render_anova, render_vs_paper, table1, table2, table3,
    };
}
