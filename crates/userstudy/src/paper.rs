//! Published numbers from the paper (Tables 1–3 and the §4.1 ANOVA),
//! used as calibration targets and as the reference column in the
//! reproduction reports.

use crate::study::LengthBin;

/// Index of each approach in the paper's column order.
pub const APPROACHES: [&str; 4] = ["Google Maps", "Plateaus", "Dissimilarity", "Penalty"];

/// One row of a published table: mean and sd per approach plus group size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// Row label as printed in the paper.
    pub label: &'static str,
    /// Mean rating per approach (paper column order).
    pub means: [f64; 4],
    /// Standard deviation per approach.
    pub sds: [f64; 4],
    /// Number of responses in the group.
    pub responses: u32,
}

/// Table 1 — all 237 responses.
pub const TABLE1: [PaperRow; 4] = [
    PaperRow {
        label: "Overall",
        means: [3.37, 3.63, 3.58, 3.56],
        sds: [1.33, 1.25, 1.29, 1.17],
        responses: 237,
    },
    PaperRow {
        label: "Small Routes (0, 10] (mins)",
        means: [3.53, 3.48, 3.69, 3.81],
        sds: [1.17, 1.27, 1.18, 1.08],
        responses: 66,
    },
    PaperRow {
        label: "Medium Routes (10, 25] (mins)",
        means: [3.44, 3.51, 3.58, 3.42],
        sds: [1.39, 1.27, 1.26, 1.23],
        responses: 109,
    },
    PaperRow {
        label: "Long Routes (25, 80] (mins)",
        means: [3.11, 3.98, 3.45, 3.54],
        sds: [1.36, 1.13, 1.44, 1.14],
        responses: 62,
    },
];

/// Table 2 — Melbourne residents only (156 responses).
pub const TABLE2: [PaperRow; 4] = [
    PaperRow {
        label: "Melbourne residents",
        means: [3.55, 3.69, 3.70, 3.66],
        sds: [1.28, 1.17, 1.22, 1.12],
        responses: 156,
    },
    PaperRow {
        label: "Small Routes (0, 10] (mins)",
        means: [3.50, 3.42, 3.68, 3.97],
        sds: [1.16, 1.27, 1.25, 0.99],
        responses: 38,
    },
    PaperRow {
        label: "Medium Routes (10, 25] (mins)",
        means: [3.64, 3.70, 3.78, 3.55],
        sds: [1.28, 1.14, 1.13, 1.17],
        responses: 83,
    },
    PaperRow {
        label: "Long Routes (25, 80] (mins)",
        means: [3.40, 3.97, 3.54, 3.60],
        sds: [1.42, 1.10, 1.44, 1.09],
        responses: 35,
    },
];

/// Table 3 — non-residents only (81 responses).
pub const TABLE3: [PaperRow; 4] = [
    PaperRow {
        label: "Non-residents",
        means: [3.04, 3.51, 3.34, 3.37],
        sds: [1.37, 1.38, 1.37, 1.25],
        responses: 81,
    },
    PaperRow {
        label: "Small Routes (0, 10] (mins)",
        means: [3.57, 3.57, 3.71, 3.61],
        sds: [1.20, 1.29, 1.08, 1.17],
        responses: 28,
    },
    PaperRow {
        label: "Medium Routes (10, 25] (mins)",
        means: [2.81, 2.92, 2.96, 3.00],
        sds: [1.55, 1.47, 1.48, 1.33],
        responses: 26,
    },
    PaperRow {
        label: "Long Routes (25, 80] (mins)",
        means: [2.74, 4.00, 3.33, 3.48],
        sds: [1.23, 1.21, 1.47, 1.22],
        responses: 27,
    },
];

/// Published ANOVA p-values (§4.1): all respondents, residents,
/// non-residents.
pub const ANOVA_P_ALL: f64 = 0.16;
/// Residents-only ANOVA p-value.
pub const ANOVA_P_RESIDENTS: f64 = 0.68;
/// Non-residents-only ANOVA p-value.
pub const ANOVA_P_NON_RESIDENTS: f64 = 0.18;

/// Calibration target: mean rating for `(approach, resident, bin)` from
/// the bin rows of Tables 2 and 3.
pub fn target_mean(approach: usize, resident: bool, bin: LengthBin) -> f64 {
    let table = if resident { &TABLE2 } else { &TABLE3 };
    let row = match bin {
        LengthBin::Small => &table[1],
        LengthBin::Medium => &table[2],
        LengthBin::Long => &table[3],
    };
    row.means[approach]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_rows_sum_to_group_totals() {
        assert_eq!(
            TABLE1[1].responses + TABLE1[2].responses + TABLE1[3].responses,
            TABLE1[0].responses
        );
        assert_eq!(
            TABLE2[1].responses + TABLE2[2].responses + TABLE2[3].responses,
            TABLE2[0].responses
        );
        assert_eq!(
            TABLE3[1].responses + TABLE3[2].responses + TABLE3[3].responses,
            TABLE3[0].responses
        );
        assert_eq!(
            TABLE2[0].responses + TABLE3[0].responses,
            TABLE1[0].responses
        );
    }

    #[test]
    fn table1_bins_consistent_with_table2_and_3() {
        // Bin sizes: 38+28=66, 83+26=109, 35+27=62.
        assert_eq!(
            TABLE2[1].responses + TABLE3[1].responses,
            TABLE1[1].responses
        );
        assert_eq!(
            TABLE2[2].responses + TABLE3[2].responses,
            TABLE1[2].responses
        );
        assert_eq!(
            TABLE2[3].responses + TABLE3[3].responses,
            TABLE1[3].responses
        );
    }

    #[test]
    fn headline_observations_hold_in_constants() {
        // Plateaus highest, Google lowest overall.
        let overall = &TABLE1[0];
        let max = overall.means.iter().cloned().fold(f64::MIN, f64::max);
        let min = overall.means.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(overall.means[1], max); // Plateaus
        assert_eq!(overall.means[0], min); // Google Maps
                                           // Penalty best for small routes (all respondents).
        let small = &TABLE1[1];
        assert!(small.means[3] >= small.means.iter().cloned().fold(f64::MIN, f64::max) - 1e-9);
        // Plateaus best for long routes.
        let long = &TABLE1[3];
        assert!(long.means[1] >= long.means.iter().cloned().fold(f64::MIN, f64::max) - 1e-9);
    }

    #[test]
    fn targets_lookup() {
        assert_eq!(target_mean(0, true, LengthBin::Small), 3.50);
        assert_eq!(target_mean(1, false, LengthBin::Long), 4.00);
    }
}
