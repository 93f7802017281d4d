//! The machine-speed probe: a fixed piece of benchmark-owned work, timed
//! beside every phase.
//!
//! The box this runs on is shared: for minutes at a stretch a neighbour
//! slows *everything* — wall time and CPU time alike — by up to 1.4×,
//! which no number of laps inside a one-minute run can filter out. The
//! probe measures that state directly. Every timed metric is reported as
//! `raw × NOMINAL_MS ÷ probe_ms`, i.e. in milliseconds of a machine on
//! which the probe takes exactly [`NOMINAL_MS`].
//!
//! The probe is a Dijkstra search over a synthetic grid with a binary
//! heap — the same mix of heap sifts and scattered loads the server
//! spends its time in — and shares no code with the repository, so no
//! change to the repository can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::stats::median;

/// What one probe takes on the reference box when nothing disturbs it.
pub const NOMINAL_MS: f64 = 7.0;

const SIDE: usize = 272;

fn arc_weight(node: usize, direction: usize) -> u32 {
    let mut z = (node * 4 + direction) as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    1 + ((z >> 40) & 0xff) as u32
}

/// A full shortest-path tree over a `SIDE × SIDE` grid.
fn search() {
    let n = SIDE * SIDE;
    let mut dist = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[n / 2] = 0;
    heap.push(Reverse((0u32, n / 2)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        let (x, y) = (u % SIDE, u / SIDE);
        let neighbours = [
            (x > 0).then(|| u - 1),
            (x + 1 < SIDE).then(|| u + 1),
            (y > 0).then(|| u - SIDE),
            (y + 1 < SIDE).then(|| u + SIDE),
        ];
        for (direction, v) in neighbours.into_iter().enumerate() {
            let Some(v) = v else { continue };
            let candidate = d + arc_weight(u, direction);
            if candidate < dist[v] {
                dist[v] = candidate;
                heap.push(Reverse((candidate, v)));
            }
        }
    }
    std::hint::black_box(&dist);
}

/// One probe, in ms: the search twice, the second one timed. The first
/// refills the caches the server's last request emptied; without it a
/// probe between two requests reads ~15 % slower than one at a quiet
/// phase boundary, and how much slower would depend on how much memory
/// the server touches — on the very thing being measured.
pub fn run() -> f64 {
    search();
    let started = Instant::now();
    search();
    started.elapsed().as_secs_f64() * 1e3
}

/// `n` probes back to back.
pub fn burst(n: usize) -> Vec<f64> {
    (0..n).map(|_| run()).collect()
}

/// The factor that turns a raw time measured beside `samples` into
/// reference-machine time. Above 1 when the machine ran fast.
pub fn factor(samples: &[f64]) -> f64 {
    NOMINAL_MS / median(samples)
}

/// A list of requests is probed between requests whenever this long has
/// passed since the last probe: often enough to follow the machine,
/// rarely enough to cost a few percent of the phase.
const INTERVAL: Duration = Duration::from_millis(250);

/// The probes taken while a list of requests ran, one request in flight.
#[derive(Default)]
pub struct Series {
    /// `(index of the request the probe ran before, ms)`.
    samples: Vec<(usize, f64)>,
    last: Option<Instant>,
}

impl Series {
    pub fn new() -> Series {
        Series::default()
    }

    /// Call before request `index`: probes if one is due.
    pub fn before(&mut self, index: usize) {
        if self.last.is_none_or(|at| at.elapsed() >= INTERVAL) {
            self.samples.push((index, run()));
            self.last = Some(Instant::now());
        }
    }

    /// Call after the last of `requests` requests: probes once more.
    pub fn after(&mut self, requests: usize) {
        self.samples.push((requests, run()));
    }

    /// One factor per request.
    pub fn factors(&self, requests: usize) -> Vec<f64> {
        local_factors(requests, &self.samples)
    }

    pub fn samples_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|&(_, ms)| ms)
    }
}

/// One factor per request of a list that was probed now and then:
/// `probes` holds `(index of the request the probe ran before, ms)` in
/// order, the last one after the final request. Request `i` is scaled by
/// the two probes before it and the two after, so the factor follows a
/// machine whose speed drifts within a phase.
fn local_factors(requests: usize, probes: &[(usize, f64)]) -> Vec<f64> {
    (0..requests)
        .map(|i| {
            let after = probes.partition_point(|&(at, _)| at <= i);
            let lo = after.saturating_sub(2).min(probes.len().saturating_sub(4));
            let hi = (lo + 4).min(probes.len());
            let window: Vec<f64> = probes[lo..hi].iter().map(|&(_, ms)| ms).collect();
            factor(&window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_settles_the_whole_grid_and_takes_measurable_time() {
        assert!(run() > 1.0);
        assert_eq!(arc_weight(7, 2), arc_weight(7, 2));
        assert!((1..=256).contains(&arc_weight(12345, 3)));
    }

    #[test]
    fn a_slow_machine_scales_times_down() {
        assert_eq!(factor(&[NOMINAL_MS]), 1.0);
        assert_eq!(factor(&[2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS]), 0.5);
    }

    #[test]
    fn local_factors_follow_a_drift() {
        let slow = 2.0 * NOMINAL_MS;
        // Probes before requests 0, 10, 20, 30, 40, 50 and after the last;
        // the machine halves its speed from request 30 on.
        let probes: Vec<(usize, f64)> = [0, 10, 20, 30, 40, 50, 60]
            .into_iter()
            .map(|at| (at, if at < 30 { NOMINAL_MS } else { slow }))
            .collect();
        let f = local_factors(60, &probes);
        assert_eq!(f.len(), 60);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[12], 1.0);
        assert_eq!(f[45], 0.5);
        assert_eq!(f[59], 0.5);
        assert!(
            f[25] < 1.0 && f[25] > 0.5,
            "the window straddles the change"
        );
        // A list with fewer probes than a window still gets a factor.
        assert_eq!(local_factors(3, &[(0, slow), (3, slow)]), vec![0.5; 3]);
    }
}
