//! Special functions for statistical distributions.
//!
//! A self-contained implementation of the log-gamma function (Lanczos),
//! the regularized incomplete beta function (Lentz continued fraction) and
//! the F-distribution CDF — exactly the machinery needed to convert the
//! one-way ANOVA F statistic into the p-values the paper reports (§4.1).

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Uses the standard continued-fraction expansion with the symmetry
/// transform for numerical stability.
pub fn betai(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "shape parameters must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the F distribution with `d1`, `d2` degrees of freedom.
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> f64 {
    if f <= 0.0 {
        return 0.0;
    }
    let x = d1 * f / (d1 * f + d2);
    betai(d1 / 2.0, d2 / 2.0, x)
}

/// Survival function (p-value): `P(F > f)`.
pub fn f_sf(f: f64, d1: f64, d2: f64) -> f64 {
    (1.0 - f_cdf(f, d1, d2)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(1.0) - 0.0).abs() < 1e-12);
        assert!((ln_gamma(2.0) - 0.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(11.0) - 3_628_800.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi).
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn betai_boundaries() {
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn betai_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[
            (2.0, 5.0, 0.3),
            (0.5, 0.5, 0.7),
            (4.0, 4.0, 0.5),
            (10.0, 2.0, 0.9),
        ] {
            let lhs = betai(a, b, x);
            let rhs = 1.0 - betai(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn betai_uniform_case() {
        // I_x(1,1) = x.
        for x in [0.1, 0.25, 0.5, 0.9] {
            assert!((betai(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn f_cdf_known_quantiles() {
        // Median of F(1,1) is 1.0 (CDF(1) = 0.5).
        assert!((f_cdf(1.0, 1.0, 1.0) - 0.5).abs() < 1e-9);
        // F(2, 10): CDF at the 95th percentile 4.1028 ≈ 0.95.
        assert!((f_cdf(4.1028, 2.0, 10.0) - 0.95).abs() < 1e-4);
        // F(3, 944): 95th percentile ≈ 2.614 (large-sample ANOVA shape).
        let p = f_cdf(2.614, 3.0, 944.0);
        assert!((p - 0.95).abs() < 2e-3, "got {p}");
    }

    #[test]
    fn f_sf_complements_cdf() {
        let (f, d1, d2) = (1.7, 3.0, 940.0);
        assert!((f_sf(f, d1, d2) + f_cdf(f, d1, d2) - 1.0).abs() < 1e-12);
        assert_eq!(f_sf(0.0, 3.0, 10.0), 1.0);
        assert_eq!(f_sf(-1.0, 3.0, 10.0), 1.0);
    }

    #[test]
    fn f_sf_monotone_decreasing() {
        let mut prev = 1.0;
        for i in 1..40 {
            let f = i as f64 * 0.25;
            let p = f_sf(f, 3.0, 500.0);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes style). Needed for the chi-square CDF behind the
/// Kruskal–Wallis test.
pub fn gammainc_lower(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut n = a;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a, x) = 1 - P(a, x).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Chi-square survival function `P(X > x)` with `k` degrees of freedom.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    (1.0 - gammainc_lower(k / 2.0, x / 2.0)).clamp(0.0, 1.0)
}

/// Student's t survival function `P(T > t)` with `df` degrees of freedom
/// (one-sided), via the incomplete beta function.
pub fn t_sf(t: f64, df: f64) -> f64 {
    let x = df / (df + t * t);
    let p = 0.5 * betai(df / 2.0, 0.5, x);
    if t >= 0.0 {
        p
    } else {
        1.0 - p
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn gammainc_known_values() {
        // P(1, x) = 1 - e^{-x}.
        for x in [0.1, 0.5, 1.0, 3.0, 10.0] {
            let expect = 1.0 - f64::exp(-x);
            assert!((gammainc_lower(1.0, x) - expect).abs() < 1e-10, "x={x}");
        }
        // P(a, 0) = 0 and P(a, inf) -> 1.
        assert_eq!(gammainc_lower(2.5, 0.0), 0.0);
        assert!(gammainc_lower(2.5, 100.0) > 0.999_999);
    }

    #[test]
    fn chi2_known_quantiles() {
        // chi2(3): 95th percentile = 7.815.
        assert!((chi2_sf(7.815, 3.0) - 0.05).abs() < 1e-3);
        // chi2(1): P(X > 3.841) = 0.05.
        assert!((chi2_sf(3.841, 1.0) - 0.05).abs() < 1e-3);
        assert_eq!(chi2_sf(0.0, 4.0), 1.0);
    }

    #[test]
    fn t_sf_known_quantiles() {
        // t(10): P(T > 1.812) = 0.05.
        assert!((t_sf(1.812, 10.0) - 0.05).abs() < 1e-3);
        // Symmetry.
        assert!((t_sf(-1.812, 10.0) - 0.95).abs() < 1e-3);
        // Large df approaches the normal tail.
        assert!((t_sf(1.96, 10_000.0) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn chi2_monotone() {
        let mut prev = 1.0;
        for i in 1..30 {
            let p = chi2_sf(i as f64 * 0.5, 3.0);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }
}
