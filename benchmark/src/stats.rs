//! Sample arithmetic: percentiles, per-request lap minima, the Zipf
//! sampler and the FNV digest of a request list.

use rand::rngs::StdRng;
use rand::RngExt;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics. Panics on an empty slice: every caller has a fixed,
/// non-zero sample count.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The 95th percentile, smoothed: the mean of the order statistics from
/// the 92.5th to the 97.5th percentile. A single order statistic of 200
/// samples rests on the one request that happens to rank 190th; the mean
/// of the ten around it estimates the same point of the distribution with
/// a third of the scatter between seeds.
pub fn p95(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = (sorted.len() - 1) as f64;
    let (lo, hi) = (
        (0.925 * last).round() as usize,
        (0.975 * last).round() as usize,
    );
    mean(&sorted[lo..=hi])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// (max − min) ÷ median: how far the laps of one run disagree.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (max(samples) - min(samples)) / m
    }
}

/// Request `i`'s latency is its minimum over the laps. Every lap replays
/// the same list, and interference from neighbours only ever adds time,
/// so the minimum is the least disturbed observation of that request.
pub fn lap_min(laps: &[Vec<f64>]) -> Vec<f64> {
    let n = laps.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| laps.iter().map(|lap| lap[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Zipf over ranks `0..n`: P(rank r) ∝ 1 / (r + 1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a 64 over a sequence of byte strings, each terminated so that
/// `["ab","c"]` and `["a","bc"]` differ.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        part.bytes().for_each(&mut eat);
        eat(0xff);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // 200 samples leave ten beyond the 95th percentile.
        let ramp: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = percentile(&ramp, 0.95);
        assert_eq!(ramp.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn p95_averages_the_order_statistics_around_it() {
        let ramp: Vec<f64> = (0..200).map(f64::from).collect();
        // Ranks 184..=194 of 0..=199, centred on 189.
        assert_eq!(p95(&ramp), 189.0);
        assert!((p95(&ramp) - percentile(&ramp, 0.95)).abs() < 0.1);
        assert_eq!(p95(&[3.0]), 3.0);
        // One outlier at the very top does not enter the window.
        let mut spiked = ramp.clone();
        spiked[199] = 1e9;
        assert_eq!(p95(&spiked), 189.0);
    }

    #[test]
    fn lap_min_takes_each_request_s_best_lap() {
        let laps = vec![
            vec![10.0, 5.0, 9.0],
            vec![8.0, 7.0, 9.5],
            vec![9.0, 6.0, 3.0],
        ];
        assert_eq!(lap_min(&laps), vec![8.0, 5.0, 3.0]);
        // A short lap (a failed run) truncates, it never panics.
        assert_eq!(lap_min(&[vec![1.0, 2.0], vec![0.5]]), vec![0.5]);
        assert!(lap_min(&[]).is_empty());
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn zipf_is_reproducible_and_skewed() {
        let z = Zipf::new(100, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1), "same seed, same draws");
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&r| r < 100));
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        // P(rank 0) = 1 / H(100, 1.1) ≈ 0.234.
        assert!((0.20..0.27).contains(&top), "rank-0 share {top}");
        let tail = a.iter().filter(|&&r| r >= 50).count() as f64 / a.len() as f64;
        assert!(tail < 0.15, "tail share {tail}");
    }

    #[test]
    fn digest_depends_on_content_and_boundaries() {
        assert_eq!(digest(["ab", "c"]), digest(["ab", "c"]));
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_ne!(digest(["ab"]), digest(["ab", ""]));
    }
}
