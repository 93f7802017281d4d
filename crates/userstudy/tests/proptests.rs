//! Property-based tests for the statistics layer.

use arp_userstudy::anova::one_way_anova;
use arp_userstudy::dist::{betai, chi2_sf, f_sf, gammainc_lower, t_sf};
use arp_userstudy::posthoc::kruskal_wallis;
use arp_userstudy::stats::{Summary, Welford};
use proptest::prelude::*;

fn arb_group() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1.0f64..5.0, 3..60)
}

proptest! {
    #[test]
    fn welford_matches_two_pass(values in arb_group()) {
        let mut w = Welford::new();
        for &x in &values {
            w.push(x);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((w.mean() - mean).abs() < 1e-10);
        prop_assert!((w.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn anova_is_invariant_under_group_order(a in arb_group(), b in arb_group(), c in arb_group()) {
        let r1 = one_way_anova(&[&a, &b, &c]).unwrap();
        let r2 = one_way_anova(&[&c, &a, &b]).unwrap();
        prop_assert!((r1.f - r2.f).abs() < 1e-9 || (r1.f.is_infinite() && r2.f.is_infinite()));
        prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
    }

    #[test]
    fn anova_is_invariant_under_shift(a in arb_group(), b in arb_group(), shift in -3.0f64..3.0) {
        // Adding the same constant to every observation leaves F unchanged.
        let sa: Vec<f64> = a.iter().map(|x| x + shift).collect();
        let sb: Vec<f64> = b.iter().map(|x| x + shift).collect();
        let r1 = one_way_anova(&[&a, &b]).unwrap();
        let r2 = one_way_anova(&[&sa, &sb]).unwrap();
        if r1.f.is_finite() && r2.f.is_finite() {
            prop_assert!((r1.f - r2.f).abs() < 1e-6, "{} vs {}", r1.f, r2.f);
        }
    }

    #[test]
    fn kruskal_wallis_invariant_under_monotone_transform(a in arb_group(), b in arb_group()) {
        // A rank test must not change under strictly increasing transforms.
        let ta: Vec<f64> = a.iter().map(|x| x.exp()).collect();
        let tb: Vec<f64> = b.iter().map(|x| x.exp()).collect();
        let r1 = kruskal_wallis(&[&a, &b]).unwrap();
        let r2 = kruskal_wallis(&[&ta, &tb]).unwrap();
        prop_assert!((r1.h - r2.h).abs() < 1e-9, "{} vs {}", r1.h, r2.h);
    }

    #[test]
    fn p_values_are_probabilities(
        f in 0.0f64..50.0,
        d1 in 1.0f64..20.0,
        d2 in 2.0f64..500.0,
    ) {
        let p = f_sf(f, d1, d2);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn betai_is_monotone_in_x(a in 0.3f64..20.0, b in 0.3f64..20.0, x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(betai(a, b, lo) <= betai(a, b, hi) + 1e-12);
    }

    #[test]
    fn gammainc_is_monotone(a in 0.3f64..20.0, x1 in 0.0f64..40.0, x2 in 0.0f64..40.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(gammainc_lower(a, lo) <= gammainc_lower(a, hi) + 1e-12);
    }

    #[test]
    fn chi2_and_t_tails_are_valid(x in 0.0f64..100.0, k in 1.0f64..30.0) {
        let c = chi2_sf(x, k);
        prop_assert!((0.0..=1.0).contains(&c));
        let t = t_sf(x, k);
        prop_assert!((0.0..=0.5 + 1e-12).contains(&t));
    }

    #[test]
    fn summary_paper_format_is_parseable(values in arb_group()) {
        let s = Summary::of(&values);
        let txt = s.paper_format();
        // "m.mm (s.ss)" shape.
        prop_assert!(txt.contains('(') && txt.ends_with(')'));
        let mean_part: f64 = txt.split(' ').next().unwrap().parse().unwrap();
        prop_assert!((mean_part - s.mean).abs() < 0.005 + 1e-12);
    }
}
