//! Retry policy for failed technique lanes.
//!
//! A transiently failed lane gets **one** more chance, under a shared
//! per-request budget, and only when the request can afford it:
//!
//! * **Budget** — at most [`RetryPolicy::budget`] retries per request
//!   across all lanes, so a request with every lane failing cannot
//!   multiply its own cost.
//! * **Headroom** — a retry is only attempted when the remaining
//!   deadline exceeds the backoff *plus* the lane's expected duration
//!   ([`LaneLatency`], a per-technique EWMA fed by completed lanes).
//!   Retrying into a deadline that cannot fit the lane would burn a
//!   worker to produce a guaranteed timeout.
//! * **Backoff** — decorrelated jitter (`min(cap, uniform(base,
//!   3·prev))`), drawn from a seeded splitmix64 stream so tests and
//!   chaos runs are deterministic. No `rand` dependency.
//!
//! Transience is declared by the backend through [`crate::LaneError`]:
//! a malformed query fails identically on every attempt and is never
//! retried, while an injected fault, a panicked worker, or a flaky
//! dependency is worth one more try.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::admission::Deadline;
use crate::fault::splitmix64;

/// Retry tunables, shared by every request of a service.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum retries per request, across all of its lanes.
    pub budget: u32,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 2,
            seed: 0x5eed,
        }
    }
}

/// Backoff lower bound: the first retry waits at least this long.
const BACKOFF_BASE: Duration = Duration::from_millis(2);
/// Backoff upper bound.
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Per-request retry bookkeeping: the remaining budget and the jitter
/// stream state.
#[derive(Debug)]
pub struct RetryState {
    policy: RetryPolicy,
    remaining: u32,
    prev: Duration,
    rng: u64,
}

impl RetryState {
    /// Fresh state for one request. `stream` decorrelates concurrent
    /// requests (the service passes a per-request sequence number).
    pub fn new(policy: RetryPolicy, stream: u64) -> RetryState {
        RetryState {
            policy,
            remaining: policy.budget,
            prev: BACKOFF_BASE,
            rng: policy
                .seed
                .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Retries still allowed for this request.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Decides whether a failed lane is worth retrying now. Consumes one
    /// unit of budget and returns the backoff to sleep before the
    /// attempt, or `None` when the budget is spent or the remaining
    /// deadline cannot fit `backoff + expected_lane_ms`.
    pub fn next_attempt(&mut self, deadline: &Deadline, expected_lane_ms: u64) -> Option<Duration> {
        if self.remaining == 0 {
            return None;
        }
        let backoff = self.draw_backoff();
        // An unknown lane duration (no completions yet) still reserves a
        // millisecond so a dead deadline can never justify a retry.
        let needed = backoff + Duration::from_millis(expected_lane_ms.max(1));
        match deadline.remaining() {
            Some(left) if left > needed => {
                self.remaining -= 1;
                Some(backoff)
            }
            _ => None,
        }
    }

    /// Gives back one unit of budget consumed by [`RetryState::next_attempt`]
    /// when the attempt was refused downstream before it ran (the lane's
    /// circuit breaker said no). A refused retry costs nothing, so it must
    /// not starve a later lane of its retry.
    pub fn refund(&mut self) {
        self.remaining = (self.remaining + 1).min(self.policy.budget);
    }

    /// Decorrelated jitter: `min(cap, uniform(base, 3·prev))`, drawn
    /// deterministically from the seeded stream.
    fn draw_backoff(&mut self) -> Duration {
        self.rng = splitmix64(self.rng);
        let unit = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        let base = BACKOFF_BASE.as_secs_f64();
        let upper = (self.prev.as_secs_f64() * 3.0).max(base);
        let drawn = Duration::from_secs_f64(base + (upper - base) * unit);
        let capped = drawn.min(BACKOFF_CAP);
        self.prev = capped.max(BACKOFF_BASE);
        capped
    }
}

/// A shareable EWMA of one lane's completion time, in milliseconds —
/// the "expected lane p50" the retry headroom check consults. Detached
/// from any registry; cloning shares the estimate.
#[derive(Clone, Debug, Default)]
pub struct LaneLatency {
    /// EWMA in milliseconds (0 = no observation yet).
    ewma_ms: Arc<AtomicU64>,
}

impl LaneLatency {
    /// A tracker with no observations.
    pub fn new() -> LaneLatency {
        LaneLatency::default()
    }

    /// Folds one completed-lane duration into the estimate
    /// (`new = (3·old + sample) / 4`; the first sample seeds it).
    pub fn observe_ms(&self, sample_ms: u64) {
        let sample = sample_ms.max(1);
        let mut current = self.ewma_ms.load(Ordering::Relaxed);
        loop {
            let next = if current == 0 {
                sample
            } else {
                (3 * current + sample) / 4
            };
            match self.ewma_ms.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current estimate in milliseconds (0 = unknown).
    pub fn estimate_ms(&self) -> u64 {
        self.ewma_ms.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_bounds_total_retries() {
        let policy = RetryPolicy {
            budget: 2,
            ..RetryPolicy::default()
        };
        let mut state = RetryState::new(policy, 0);
        let deadline = Deadline::never();
        assert!(state.next_attempt(&deadline, 1).is_some());
        assert!(state.next_attempt(&deadline, 1).is_some());
        assert!(state.next_attempt(&deadline, 1).is_none(), "budget spent");
    }

    #[test]
    fn no_retry_when_deadline_cannot_fit_the_lane() {
        let mut state = RetryState::new(RetryPolicy::default(), 0);
        // 20 ms left but the lane's p50 is 500 ms: retrying would only
        // manufacture a timeout.
        let deadline = Deadline::after(Duration::from_millis(20));
        assert!(state.next_attempt(&deadline, 500).is_none());
        assert_eq!(
            state.remaining(),
            RetryPolicy::default().budget,
            "a refused attempt must not consume budget"
        );
        // The same deadline easily fits a 1 ms lane.
        assert!(state.next_attempt(&deadline, 1).is_some());
    }

    #[test]
    fn refund_restores_budget_without_exceeding_it() {
        let policy = RetryPolicy {
            budget: 1,
            ..RetryPolicy::default()
        };
        let mut state = RetryState::new(policy, 0);
        let deadline = Deadline::never();
        assert!(state.next_attempt(&deadline, 1).is_some());
        assert_eq!(state.remaining(), 0);
        // The breaker refused the attempt: the budget comes back and a
        // later lane can still retry.
        state.refund();
        assert_eq!(state.remaining(), 1);
        assert!(state.next_attempt(&deadline, 1).is_some());
        // Refunding cannot mint budget beyond the policy's cap.
        state.refund();
        state.refund();
        assert_eq!(state.remaining(), 1);
    }

    #[test]
    fn expired_deadline_never_retries() {
        let mut state = RetryState::new(RetryPolicy::default(), 0);
        let dead = Deadline::after(Duration::ZERO);
        assert!(state.next_attempt(&dead, 1).is_none());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy {
            budget: 8,
            seed: 99,
        };
        let draw_all = |stream: u64| -> Vec<Duration> {
            let mut state = RetryState::new(policy, stream);
            (0..8)
                .filter_map(|_| state.next_attempt(&Deadline::never(), 1))
                .collect()
        };
        let a = draw_all(7);
        let b = draw_all(7);
        assert_eq!(a, b, "same policy + stream, same backoffs");
        for d in &a {
            assert!(*d >= BACKOFF_BASE && *d <= BACKOFF_CAP, "{d:?}");
        }
        assert_ne!(draw_all(8), a, "streams decorrelate");
    }

    #[test]
    fn latency_ewma_tracks_and_is_shared() {
        let lat = LaneLatency::new();
        assert_eq!(lat.estimate_ms(), 0);
        lat.observe_ms(100);
        assert_eq!(lat.estimate_ms(), 100, "first sample seeds the EWMA");
        let shared = lat.clone();
        shared.observe_ms(20);
        assert_eq!(lat.estimate_ms(), 80, "(3*100 + 20) / 4");
        for _ in 0..32 {
            lat.observe_ms(20);
        }
        assert!(lat.estimate_ms() <= 25, "EWMA converges to recent samples");
    }
}
