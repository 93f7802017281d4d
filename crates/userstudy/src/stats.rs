//! Basic descriptive statistics: running mean/variance (Welford) and the
//! `m(sd)` formatting the paper's tables use.

/// Running mean and variance accumulator (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance with Bessel's correction (0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sum of squared deviations from the mean (for ANOVA).
    pub fn sum_sq(&self) -> f64 {
        self.m2
    }
}

/// A computed summary: count, mean, standard deviation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
}

impl Summary {
    /// Summarizes a slice of observations.
    pub fn of(values: &[f64]) -> Summary {
        let mut w = Welford::new();
        for &v in values {
            w.push(v);
        }
        Summary {
            n: w.count(),
            mean: w.mean(),
            sd: w.sd(),
        }
    }

    /// The paper's `m(sd)` cell format, e.g. `3.63 (1.25)`.
    pub fn paper_format(&self) -> String {
        format!("{:.2} ({:.2})", self.mean, self.sd)
    }
}

impl From<&Welford> for Summary {
    fn from(w: &Welford) -> Summary {
        Summary {
            n: w.count(),
            mean: w.mean(),
            sd: w.sd(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        let mut w1 = Welford::new();
        w1.push(3.5);
        assert_eq!(w1.mean(), 3.5);
        assert_eq!(w1.sd(), 0.0);
    }

    #[test]
    fn summary_paper_format() {
        let s = Summary::of(&[3.0, 4.0, 5.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        let txt = s.paper_format();
        assert!(txt.starts_with("3.60 ("), "{txt}");
    }
}
