//! Property tests for the route cache (one exact LRU, checked against a
//! reference model), the per-technique circuit breaker and the service's
//! degraded-response ladder.
//!
//! The breaker takes time as an explicit `now_ms` argument, so these
//! properties drive a manual clock and never sleep; the cache's threaded
//! stress test joins its threads and never sleeps either. The ladder's
//! lanes answer from a script, so nothing there depends on timing.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use arp_obs::Registry;
use arp_serve::{
    BreakerConfig, BreakerState, CacheMetrics, CancelToken, CircuitBreaker, LaneOutcome,
    LaneStatus, RouteBackend, RouteCache, RouteService, ServeConfig, ServeError,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The live entry count never exceeds the capacity, no matter the
    /// key churn.
    #[test]
    fn capacity_is_never_exceeded(
        capacity in 1usize..12,
        ops in proptest::collection::vec((0u8..32, 0u32..1_000), 1..120),
    ) {
        let cache: RouteCache<String, u32> = RouteCache::new(capacity, CacheMetrics::default());
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
        let cache: RouteCache<String, u32> = RouteCache::new(4, CacheMetrics::default());
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
        let cache: RouteCache<String, u32> = RouteCache::new(16, CacheMetrics::default());
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

    /// The cache is an exact LRU: on any get/put sequence it agrees with
    /// a reference model — a `Vec` kept in recency order, least recent
    /// first — on every hit, miss and value, on its length, on the
    /// evictions counter and on the entries gauge.
    #[test]
    fn the_cache_matches_an_exact_lru_model(
        capacity in 1usize..9,
        ops in proptest::collection::vec(
            (0u8..13, 0u32..1_000, proptest::bool::ANY),
            1..150,
        ),
    ) {
        let cache: RouteCache<u8, u32> =
            RouteCache::new(capacity, CacheMetrics::new(&arp_obs::Registry::new()));
        let mut model: Vec<(u8, u32)> = Vec::new();
        let mut evictions = 0u64;
        for (key, value, is_put) in ops {
            let found = model.iter().position(|&(k, _)| k == key);
            if is_put {
                match found {
                    Some(at) => {
                        model.remove(at);
                    }
                    None if model.len() == capacity => {
                        model.remove(0);
                        evictions += 1;
                    }
                    None => {}
                }
                model.push((key, value));
                cache.put(key, value);
            } else {
                let expected = found.map(|at| {
                    let entry = model.remove(at);
                    model.push(entry);
                    entry.1
                });
                prop_assert_eq!(cache.get(&key), expected, "get of key {}", key);
            }
            prop_assert_eq!(cache.len(), model.len());
            prop_assert_eq!(cache.metrics().evictions.get(), evictions);
            prop_assert_eq!(cache.metrics().entries.get(), cache.len() as i64);
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

/// Threads racing gets and puts over a small cache leave it within its
/// capacity, with every get counted exactly once as a hit or a miss.
#[test]
fn concurrent_gets_and_puts_keep_the_cache_bounded_and_counted() {
    const THREADS: usize = 4;
    const GETS_PER_THREAD: u64 = 2_000;
    let cache: Arc<RouteCache<u64, u64>> = Arc::new(RouteCache::new(
        8,
        CacheMetrics::new(&arp_obs::Registry::new()),
    ));
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|thread| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..GETS_PER_THREAD {
                    let key = (i * 7 + thread * 3) % 24;
                    if cache.get(&key).is_none() {
                        cache.put(key, i);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let metrics = cache.metrics();
    assert!(cache.len() <= cache.capacity(), "len {}", cache.len());
    assert_eq!(metrics.entries.get(), cache.len() as i64);
    assert_eq!(
        metrics.hits.get() + metrics.misses.get(),
        THREADS as u64 * GETS_PER_THREAD
    );
}

/// How a scripted lane ends.
const COMPLETE: u8 = 0;
const TRUNCATED: u8 = 1;
const ERROR: u8 = 2;
const PANIC: u8 = 3;

/// Four lanes whose request scripts each lane's outcome, whether the
/// assembly refuses and whether the lanes run on the request thread;
/// records the statuses of every assembly call.
#[derive(Default)]
struct ScriptedBackend {
    assembled: Mutex<Vec<Vec<LaneStatus>>>,
}

/// One request: an outcome per lane, whether to refuse assembling, and
/// whether its lanes run inline.
type Script = (Vec<u8>, bool, bool);

impl RouteBackend for ScriptedBackend {
    type Request = Script;
    type Part = String;
    type Response = Vec<Option<String>>;

    fn lanes(&self) -> usize {
        4
    }

    fn lane_key(&self, request: &Script, lane: usize) -> String {
        format!("{request:?}:{lane}")
    }

    fn inline_late_lanes(&self, (_, _, inline): &Script) -> bool {
        *inline
    }

    fn run_lane(
        &self,
        (outcomes, _, _): &Script,
        lane: usize,
        _token: &CancelToken,
    ) -> Result<LaneOutcome<String>, String> {
        match outcomes[lane] {
            COMPLETE => Ok(LaneOutcome::Complete(format!("lane{lane}"))),
            TRUNCATED => Ok(LaneOutcome::Truncated(format!("lane{lane}-partial"))),
            ERROR => Err(format!("lane {lane} refused")),
            _ => panic!("lane {lane} exploded"),
        }
    }

    fn assemble_lanes(
        &self,
        (_, refuse, _): &Script,
        parts: Vec<Option<String>>,
        statuses: &[LaneStatus],
    ) -> Option<Vec<Option<String>>> {
        self.assembled.lock().unwrap().push(statuses.to_vec());
        (!refuse && parts.iter().any(Option::is_some)).then_some(parts)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With the cache off and breakers that cannot open, every admitted
    /// request — its lanes on the pool or on the request thread — is
    /// assembled exactly once, handed one status per lane in lane order
    /// as its script says; the request is served exactly when the
    /// assembly answers, and otherwise fails as the ladder says, its
    /// reasons naming the failed lanes in lane order.
    #[test]
    fn the_degraded_ladder_follows_each_lanes_script(
        scripts in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..4, 4),
                proptest::bool::ANY,
                proptest::bool::ANY,
            ),
            1..6,
        ),
    ) {
        let config = ServeConfig {
            cache_capacity: 0,
            breaker: BreakerConfig {
                min_volume: usize::MAX,
                ..BreakerConfig::default()
            },
            ..ServeConfig::default()
        };
        let svc = RouteService::new(ScriptedBackend::default(), config, &Registry::disabled());
        for script in scripts {
            let (outcomes, refuse, _) = &script;
            let statuses: Vec<LaneStatus> = outcomes
                .iter()
                .map(|&outcome| match outcome {
                    COMPLETE => LaneStatus::Ok,
                    TRUNCATED => LaneStatus::Truncated,
                    _ => LaneStatus::Failed,
                })
                .collect();
            let parts: Vec<Option<String>> = outcomes
                .iter()
                .enumerate()
                .map(|(lane, &outcome)| match outcome {
                    COMPLETE => Some(format!("lane{lane}")),
                    TRUNCATED => Some(format!("lane{lane}-partial")),
                    _ => None,
                })
                .collect();
            let failures: Vec<String> = outcomes
                .iter()
                .enumerate()
                .filter_map(|(lane, &outcome)| match outcome {
                    ERROR => Some(format!("lane{lane}: lane {lane} refused")),
                    PANIC => Some(format!("lane{lane}: lane panicked: lane {lane} exploded")),
                    _ => None,
                })
                .collect();
            let want = if !refuse && parts.iter().any(Option::is_some) {
                Ok(parts)
            } else if statuses.contains(&LaneStatus::Truncated) && failures.is_empty() {
                Err(ServeError::DeadlineExceeded)
            } else if failures.is_empty() {
                Err(ServeError::AllLanesFailed {
                    reasons: "no lane produced a result".to_string(),
                })
            } else {
                Err(ServeError::AllLanesFailed {
                    reasons: failures.join("; "),
                })
            };

            let got = svc.route(script.clone());
            let assembled = std::mem::take(&mut *svc.backend().assembled.lock().unwrap());
            prop_assert_eq!(assembled, vec![statuses], "assembly calls for {:?}", script);
            prop_assert_eq!(got, want, "result of {:?}", script);
        }
    }
}
