//! Admission control: a bounded in-flight request count and per-request
//! deadlines.
//!
//! The serving layer admits at most `max_inflight` route requests at a
//! time. A request that cannot get a permit is shed immediately — the
//! HTTP layer turns that into `503 Service Unavailable` with a
//! `Retry-After` header — because queueing it would only add latency to
//! work that is already too slow. This is classic load shedding: keep the
//! latency of admitted requests bounded by refusing the excess instead of
//! absorbing it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arp_obs::Gauge;

/// A point in time after which a request is no longer worth finishing.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Option<Instant>,
}

/// Upper bound on one `Condvar` wait when there is no deadline; waits
/// simply re-arm, so the exact value only bounds wake-up latency in
/// pathological clock scenarios.
const NEVER_WAIT_CHUNK: Duration = Duration::from_secs(3_600);

impl Deadline {
    /// A deadline that never expires.
    pub fn never() -> Deadline {
        Deadline { at: None }
    }

    /// A deadline `timeout` from now. A zero timeout is **already
    /// expired** — "no time at all", not "no deadline". Callers that mean
    /// "disabled" must say so explicitly with [`Deadline::never`]; the
    /// config layer makes that translation once (see
    /// [`crate::service::ServeConfig::request_deadline`]) instead of every
    /// timing primitive re-interpreting zero.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline {
            at: Some(Instant::now() + timeout),
        }
    }

    /// Time left, or `None` once expired. Never-expiring deadlines return
    /// a large chunk suitable for a condvar wait.
    pub fn remaining(&self) -> Option<Duration> {
        match self.at {
            None => Some(NEVER_WAIT_CHUNK),
            Some(at) => {
                let now = Instant::now();
                if now >= at {
                    None
                } else {
                    Some(at - now)
                }
            }
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }

    /// Whether this is a never-expiring deadline ([`Deadline::never`]).
    ///
    /// [`Deadline::remaining`] deliberately blurs the distinction by
    /// returning a large wait chunk for `never` — right for condvar
    /// loops, wrong for callers that would turn the chunk into a *real*
    /// time budget (e.g. a search deadline). Those callers check here
    /// first.
    pub fn is_unbounded(&self) -> bool {
        self.at.is_none()
    }
}

/// An adaptive `Retry-After` hint for shed requests, in seconds.
///
/// A fixed hint herds every shed client back at the same instant, which
/// re-creates the overload that shed them. Instead the hint scales with
/// the pressure that caused the shed — the mean of the in-flight ratio
/// and the queue-backlog ratio — from 1 s (idle, pressure 0) up to 5 s
/// (saturated, pressure 1).
pub fn adaptive_retry_after(
    inflight: usize,
    max_inflight: usize,
    queue_len: usize,
    queue_capacity: usize,
) -> u32 {
    let ratio = |n: usize, d: usize| {
        if d == 0 {
            1.0
        } else {
            (n as f64 / d as f64).min(1.0)
        }
    };
    let pressure = (ratio(inflight, max_inflight) + ratio(queue_len, queue_capacity)) / 2.0;
    (1.0 + 4.0 * pressure).round() as u32
}

struct AdmissionState {
    inflight: AtomicUsize,
    max_inflight: usize,
    gauge: Gauge,
}

/// A counting gate over in-flight requests.
#[derive(Clone)]
pub struct Admission {
    state: Arc<AdmissionState>,
}

/// Holding a permit is being admitted; dropping it releases the slot.
pub struct Permit {
    state: Arc<AdmissionState>,
}

impl Admission {
    /// A gate admitting at most `max_inflight` concurrent requests (at
    /// least one). The `gauge` mirrors the current in-flight count.
    pub fn new(max_inflight: usize, gauge: Gauge) -> Admission {
        Admission {
            state: Arc::new(AdmissionState {
                inflight: AtomicUsize::new(0),
                max_inflight: max_inflight.max(1),
                gauge,
            }),
        }
    }

    /// Tries to admit one request; `None` means shed it.
    pub fn try_acquire(&self) -> Option<Permit> {
        let state = &self.state;
        let mut current = state.inflight.load(Ordering::Relaxed);
        loop {
            if current >= state.max_inflight {
                return None;
            }
            match state.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    state.gauge.set((current + 1) as i64);
                    return Some(Permit {
                        state: Arc::clone(state),
                    });
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Requests currently admitted.
    pub fn inflight(&self) -> usize {
        self.state.inflight.load(Ordering::Acquire)
    }

    /// The admission bound.
    pub fn max_inflight(&self) -> usize {
        self.state.max_inflight
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let previous = self.state.inflight.fetch_sub(1, Ordering::AcqRel);
        self.state.gauge.set(previous.saturating_sub(1) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_the_bound_and_sheds_beyond() {
        let gate = Admission::new(2, Gauge::default());
        let a = gate.try_acquire().expect("first");
        let _b = gate.try_acquire().expect("second");
        assert!(gate.try_acquire().is_none(), "third should be shed");
        drop(a);
        assert!(gate.try_acquire().is_some(), "slot freed by drop");
    }

    #[test]
    fn gauge_mirrors_inflight() {
        let registry = arp_obs::Registry::new();
        let gauge = registry.gauge("inflight", "", &[]);
        let gate = Admission::new(4, gauge.clone());
        let a = gate.try_acquire().unwrap();
        let b = gate.try_acquire().unwrap();
        assert_eq!(gauge.get(), 2);
        drop(a);
        drop(b);
        assert_eq!(gauge.get(), 0);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn bound_is_at_least_one() {
        let gate = Admission::new(0, Gauge::default());
        assert_eq!(gate.max_inflight(), 1);
        let _p = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_none());
    }

    #[test]
    fn concurrent_acquires_never_exceed_the_bound() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let gate = Admission::new(3, Gauge::default());
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let gate = gate.clone();
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Some(permit) = gate.try_acquire() {
                            let seen = gate.inflight();
                            peak.fetch_max(seen, Ordering::SeqCst);
                            assert!(seen <= 3, "inflight {seen} exceeded bound");
                            drop(permit);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn retry_after_scales_with_pressure_and_clamps() {
        // Idle: the 1 s floor.
        assert_eq!(adaptive_retry_after(0, 32, 0, 128), 1);
        // Admission full, queue empty: half pressure → 3 s.
        assert_eq!(adaptive_retry_after(32, 32, 0, 128), 3);
        // Everything saturated: the 5 s ceiling.
        assert_eq!(adaptive_retry_after(32, 32, 128, 128), 5);
        // Monotonic in queue depth, and a backlog past the bound clamps.
        let hints: Vec<u32> = (0..=256)
            .map(|q| adaptive_retry_after(32, 32, q, 128))
            .collect();
        assert!(hints.windows(2).all(|w| w[0] <= w[1]), "{hints:?}");
        assert!(hints.iter().all(|h| (3..=5).contains(h)), "{hints:?}");
        // Zero capacities count as full pressure, not a division blow-up.
        assert_eq!(adaptive_retry_after(0, 0, 0, 0), 5);
    }

    #[test]
    fn deadline_semantics() {
        assert!(!Deadline::never().expired());
        assert!(Deadline::never().remaining().is_some());
        // Zero is "no time at all", not "disabled": the request was dead
        // on arrival. Disabling deadlines is the config layer's job
        // (`ServeConfig::request_deadline` maps a zero setting to
        // `Deadline::never()`).
        let zero = Deadline::after(Duration::ZERO);
        assert!(zero.expired(), "zero = already expired");
        assert!(zero.remaining().is_none());
        let d = Deadline::after(Duration::from_millis(10));
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(15));
        assert!(d.expired());
        assert!(d.remaining().is_none());
    }
}
