//! Property tests for the sharded LRU route cache and the per-technique
//! circuit breaker.
//!
//! The breaker takes time as an explicit `now_ms` argument, so these
//! properties drive a manual clock and never sleep.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use arp_serve::{BreakerConfig, BreakerState, CacheMetrics, CircuitBreaker, ShardedCache};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The live entry count never exceeds the effective capacity, no
    /// matter the key churn.
    #[test]
    fn capacity_is_never_exceeded(
        capacity in 1usize..12,
        shards in 1usize..5,
        ops in proptest::collection::vec((0u8..32, 0u32..1_000), 1..120),
    ) {
        let cache: ShardedCache<String, u32> =
            ShardedCache::new(capacity, shards, CacheMetrics::default());
        for (key, value) in ops {
            cache.put(format!("k{key}"), value);
            prop_assert!(
                cache.len() <= cache.capacity(),
                "len {} exceeded capacity {}",
                cache.len(),
                cache.capacity()
            );
        }
    }

    /// Any hit returns the most recently put value for that key. (Misses
    /// are always allowed — eviction may have removed the entry — but a
    /// *wrong* hit never is.)
    #[test]
    fn hits_return_the_latest_put(
        ops in proptest::collection::vec(
            (0u8..6, 0u32..1_000, proptest::bool::ANY),
            1..100,
        ),
    ) {
        let cache: ShardedCache<String, u32> =
            ShardedCache::new(4, 2, CacheMetrics::default());
        let mut latest: HashMap<String, u32> = HashMap::new();
        for (key, value, is_put) in ops {
            let key = format!("k{key}");
            if is_put {
                cache.put(key.clone(), value);
                latest.insert(key, value);
            } else if let Some(got) = cache.get(&key) {
                let &expected = latest.get(&key).expect("hit for a never-put key");
                prop_assert_eq!(got, expected, "hit returned a superseded value");
            }
        }
    }

    /// With fewer distinct keys than capacity (so eviction is impossible),
    /// a get always hits and returns the latest value.
    #[test]
    fn get_after_put_hits(
        ops in proptest::collection::vec((0u8..4, 0u32..1_000), 1..80),
    ) {
        // 4 distinct keys, capacity 16: no eviction can ever occur.
        let cache: ShardedCache<String, u32> =
            ShardedCache::new(16, 4, CacheMetrics::default());
        let mut latest: HashMap<String, u32> = HashMap::new();
        for (key, value) in ops {
            let key = format!("k{key}");
            cache.put(key.clone(), value);
            latest.insert(key, value);
            for (k, &v) in &latest {
                prop_assert_eq!(cache.get(k), Some(v), "un-evictable entry missed");
            }
        }
    }

    /// The breaker state machine never recovers Open → Closed directly:
    /// every recovery passes through a HalfOpen probe. And while the
    /// cooldown is running, an open breaker refuses every acquire.
    #[test]
    fn breaker_never_closes_straight_from_open(
        window in 1usize..8,
        min_volume in 1usize..6,
        error_rate in 0.1f64..1.0,
        cooldown_ms in 1u64..40,
        ops in proptest::collection::vec((0u8..3, 0u64..20), 1..200),
    ) {
        let breaker = CircuitBreaker::new(BreakerConfig {
            window,
            min_volume,
            error_rate,
            cooldown_ms,
        });
        let mut now = 0u64;
        let mut prev = breaker.state();
        let mut opened_at = 0u64;
        for (op, advance) in ops {
            now += advance;
            match op {
                0 => breaker.record_success(now),
                1 => breaker.record_failure(now),
                _ => {
                    let admitted = breaker.try_acquire(now);
                    if prev == BreakerState::Open && now < opened_at + cooldown_ms {
                        prop_assert!(
                            !admitted,
                            "open breaker admitted a lane {}ms into a {}ms cooldown",
                            now - opened_at,
                            cooldown_ms
                        );
                    }
                }
            }
            let cur = breaker.state();
            prop_assert!(
                !(prev == BreakerState::Open && cur == BreakerState::Closed),
                "breaker closed straight from open, skipping the half-open probe"
            );
            if cur == BreakerState::Open && prev != BreakerState::Open {
                opened_at = now;
            }
            prev = cur;
        }
    }

    /// While the breaker is closed, its sliding window agrees exactly
    /// with a naive bounded-deque model: eviction never loses or
    /// double-counts a failure, so the error rate the trip decision sees
    /// is exact.
    #[test]
    fn breaker_window_eviction_keeps_the_error_rate_exact(
        window in 1usize..10,
        outcomes in proptest::collection::vec(proptest::bool::ANY, 1..150),
    ) {
        let breaker = CircuitBreaker::new(BreakerConfig {
            window,
            min_volume: 1,
            error_rate: 0.75,
            cooldown_ms: 1_000,
        });
        let mut model: VecDeque<bool> = VecDeque::new();
        for (i, failed) in outcomes.into_iter().enumerate() {
            if breaker.state() != BreakerState::Closed {
                break;
            }
            if model.len() == window {
                model.pop_front();
            }
            model.push_back(failed);
            if failed {
                breaker.record_failure(i as u64);
            } else {
                breaker.record_success(i as u64);
            }
            // The window is not cleared by a trip, so the comparison
            // holds even on the recording that opened the circuit.
            let expected = model.iter().filter(|&&f| f).count();
            prop_assert_eq!(breaker.window_failures(), expected, "failure count drifted");
            prop_assert_eq!(breaker.window_volume(), model.len(), "volume drifted");
        }
    }
}

proptest! {
    // Concurrency properties spawn real threads; fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hammering `record_failure` from many threads transitions the
    /// breaker Closed → Open exactly once (the transitions counter is how
    /// operators alert on flapping — double counting would page someone),
    /// and once the cooldown elapses exactly one concurrent acquire wins
    /// the half-open probe.
    #[test]
    fn concurrent_recordings_do_not_double_transition(
        threads in 2usize..6,
        per_thread in 1usize..30,
    ) {
        let registry = arp_obs::Registry::new();
        let transitions = registry.counter("test_breaker_transitions", "", &[]);
        let breaker = Arc::new(CircuitBreaker::with_instruments(
            BreakerConfig {
                window: 64,
                min_volume: 1,
                error_rate: 0.01,
                cooldown_ms: 1_000,
            },
            arp_obs::Gauge::default(),
            transitions.clone(),
        ));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let breaker = Arc::clone(&breaker);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        breaker.record_failure(i as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(breaker.state(), BreakerState::Open);
        prop_assert_eq!(transitions.get(), 1, "concurrent failures double-transitioned");

        // Past the cooldown, exactly one concurrent acquire becomes the
        // half-open probe; the rest stay short-circuited.
        let probe_time = 10_000u64;
        let admitted: usize = (0..threads)
            .map(|_| {
                let breaker = Arc::clone(&breaker);
                std::thread::spawn(move || breaker.try_acquire(probe_time))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        prop_assert_eq!(admitted, 1, "half-open must admit a single probe");
        prop_assert_eq!(breaker.state(), BreakerState::HalfOpen);
    }
}
