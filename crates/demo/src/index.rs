//! The epoch-customizable CH index tier.
//!
//! [`IndexManager`] owns one metric-independent [`ChTopology`] per city
//! (built once, at startup) and keeps a cheap per-epoch [`ChMetric`]
//! customized against the live-traffic overlay. Nothing waits for it, and
//! since the request path grows its tree pairs no further than the stretch
//! bound (`arp_core::SearchSubstrate::build`) no request consults it
//! either: [`IndexManager::metric_for`] hands out a metric **only** when
//! its epoch matches the asked-for epoch exactly, for whoever wants exact
//! hierarchy queries on a pinned epoch. Because a metric is published
//! under the epoch of the snapshot it was customized from, it can never
//! be paired with a newer claimed epoch — the exact-match gate makes the
//! race unrepresentable rather than merely unlikely.
//!
//! Customization runs on one background thread fed by the traffic
//! state's epoch listener ([`arp_traffic::TrafficState::set_epoch_listener`]).
//! The feed slot is *latest-wins*: if three ticks land while one
//! customization is in flight, the intermediate epochs are skipped and
//! the worker customizes straight to the newest (those epochs are already
//! stale).
//!
//! Instruments (DESIGN.md §11, docs/OPERATIONS.md):
//!
//! * `arp_ch_customizations_total` — metrics customized and published,
//! * `arp_ch_customize_ms` — customization wall time.

use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arp_core::{ChMetric, ChTopology};
use arp_obs::{Counter, Histogram, Registry};
use arp_roadnet::csr::RoadNetwork;
use arp_traffic::{EpochSnapshot, TrafficState};

/// Histogram buckets for customization wall time: customization is a
/// linear pass over the arcs and triangles, so even Large cities sit in
/// the tens of milliseconds — the tail buckets exist to make a
/// regression obvious, not to be hit.
const CUSTOMIZE_BUCKETS_MS: &[f64] = &[1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 5000.0];

/// Instruments of the CH index tier, resolved once at construction.
#[derive(Clone, Debug)]
struct ChIndexMetrics {
    customizations: Counter,
    customize_ms: Histogram,
}

impl ChIndexMetrics {
    fn new(registry: &Registry) -> ChIndexMetrics {
        ChIndexMetrics {
            customizations: registry.counter(
                "arp_ch_customizations_total",
                "CH metrics customized and published (one per traffic epoch reached).",
                &[],
            ),
            customize_ms: registry.histogram(
                "arp_ch_customize_ms",
                "Wall-clock time of one CH metric customization, in milliseconds.",
                &[],
                CUSTOMIZE_BUCKETS_MS,
            ),
        }
    }
}

/// The customizer's inbox: at most one snapshot waits at a time
/// (latest-wins), plus the control bits the worker honours.
#[derive(Default)]
struct Pending {
    next: Option<Arc<EpochSnapshot>>,
    paused: bool,
    shutdown: bool,
}

/// State shared between the serving path, the epoch listener, and the
/// customizer thread. Split from [`IndexManager`] so the listener and
/// the worker can hold it without keeping the manager's destructor from
/// ever running.
struct Inner {
    network: Arc<RoadNetwork>,
    topology: ChTopology,
    /// The newest customized metric. Its [`ChMetric::epoch`] stamp is
    /// the readiness gate: `metric_for` compares it against the epoch
    /// asked for.
    published: RwLock<Arc<ChMetric>>,
    pending: Mutex<Pending>,
    work: Condvar,
    /// Signalled after every publication so `wait_ready` can block
    /// without polling.
    published_cv: Condvar,
    metrics: ChIndexMetrics,
}

impl Inner {
    /// Customizes `snapshot`'s weight column and publishes the result
    /// under the snapshot's epoch. Infallible in practice: the only
    /// customize error is a column-length mismatch, which cannot happen
    /// for snapshots of the same network the topology was built on.
    fn customize_and_publish(&self, snapshot: &EpochSnapshot) {
        let timer = self.metrics.customize_ms.start_timer();
        match self.topology.customize(&self.network, snapshot.weights()) {
            Ok(metric) => {
                drop(timer);
                *self.published.write().unwrap() = Arc::new(metric.with_epoch(snapshot.epoch()));
                self.metrics.customizations.inc();
                // Wake `wait_ready` blockers. The condvar pairs with the
                // `pending` mutex purely for the wait protocol.
                let _guard = self.pending.lock().unwrap();
                self.published_cv.notify_all();
            }
            Err(_) => {
                timer.discard();
                debug_assert!(
                    false,
                    "customization over a same-network snapshot cannot fail"
                );
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let snapshot = {
                let mut slot = self.pending.lock().unwrap();
                loop {
                    if slot.shutdown {
                        return;
                    }
                    if slot.paused || slot.next.is_none() {
                        slot = self.work.wait(slot).unwrap();
                        continue;
                    }
                    break slot.next.take().unwrap();
                }
            };
            self.customize_and_publish(&snapshot);
        }
    }
}

/// The serving layer's CH index tier: one immutable per-city topology,
/// one background-customized per-epoch metric, and a strict readiness
/// gate. See the module docs for the protocol.
pub struct IndexManager {
    inner: Arc<Inner>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for IndexManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexManager")
            .field("ready_epoch", &self.ready_epoch())
            .finish_non_exhaustive()
    }
}

impl IndexManager {
    /// Builds the topology, customizes the current epoch **synchronously**
    /// (so a freshly started server reports the tier ready), spawns the
    /// customizer thread, and registers the epoch listener that feeds it.
    pub fn new(
        network: Arc<RoadNetwork>,
        traffic: &TrafficState,
        registry: &Registry,
    ) -> IndexManager {
        let topology = ChTopology::build(&network);
        let metrics = ChIndexMetrics::new(registry);
        let snapshot = traffic.snapshot();
        let initial = topology
            .customize(&network, snapshot.weights())
            .expect("base customization over the network's own column cannot fail")
            .with_epoch(snapshot.epoch());
        metrics.customizations.inc();
        let inner = Arc::new(Inner {
            network,
            topology,
            published: RwLock::new(Arc::new(initial)),
            pending: Mutex::new(Pending::default()),
            work: Condvar::new(),
            published_cv: Condvar::new(),
            metrics,
        });

        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("arp-ch-customizer".into())
                .spawn(move || inner.worker_loop())
                .expect("spawning the CH customizer thread")
        };

        // Every epoch publication (delta, tick, forced bump) lands in the
        // latest-wins slot; the listener runs on the writer's thread and
        // must stay cheap, so it only swaps a pointer and signals.
        let listener_inner = Arc::clone(&inner);
        traffic.set_epoch_listener(move |snapshot: &Arc<EpochSnapshot>| {
            let mut slot = listener_inner.pending.lock().unwrap();
            slot.next = Some(Arc::clone(snapshot));
            listener_inner.work.notify_all();
        });

        IndexManager {
            inner,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// The per-city topology (contraction order, shortcut arcs,
    /// triangles). Immutable for the manager's lifetime.
    pub fn topology(&self) -> &ChTopology {
        &self.inner.topology
    }

    /// The metric for `epoch`, **iff** it is exactly the one published.
    /// The exact-epoch comparison is the tier's core safety property: a
    /// caller pinned to epoch `e` can only ever be handed a metric
    /// customized from epoch `e`'s weight column.
    pub fn metric_for(&self, epoch: u64) -> Option<Arc<ChMetric>> {
        let metric = Arc::clone(&self.inner.published.read().unwrap());
        (metric.epoch() == epoch).then_some(metric)
    }

    /// The epoch of the newest published metric.
    pub fn ready_epoch(&self) -> u64 {
        self.inner.published.read().unwrap().epoch()
    }

    /// Blocks until a metric for exactly `epoch` is published, up to
    /// `timeout`. Returns whether it is. Test and drill hook — the
    /// serving path never waits.
    pub fn wait_ready(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut slot = self.inner.pending.lock().unwrap();
        loop {
            if self.ready_epoch() == epoch {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (next, timed_out) = self
                .inner
                .published_cv
                .wait_timeout(slot, remaining)
                .unwrap();
            slot = next;
            if timed_out.timed_out() {
                return self.ready_epoch() == epoch;
            }
        }
    }

    /// Parks the customizer thread: enqueued snapshots accumulate
    /// (latest-wins) but nothing is customized until [`IndexManager::resume`]
    /// or a manual [`IndexManager::customize_now`]. Lets tests hold the
    /// tier in its not-ready state deterministically.
    pub fn pause(&self) {
        self.inner.pending.lock().unwrap().paused = true;
    }

    /// Un-parks the customizer thread.
    pub fn resume(&self) {
        let mut slot = self.inner.pending.lock().unwrap();
        slot.paused = false;
        self.inner.work.notify_all();
    }

    /// Synchronously customizes the pending snapshot on the calling
    /// thread, if one is queued. Returns whether it did any work.
    /// Deterministic companion to [`IndexManager::pause`] for tests.
    pub fn customize_now(&self) -> bool {
        let snapshot = self.inner.pending.lock().unwrap().next.take();
        match snapshot {
            Some(snapshot) => {
                self.inner.customize_and_publish(&snapshot);
                true
            }
            None => false,
        }
    }

    /// Published-metric customizations so far (startup included).
    pub fn customizations(&self) -> u64 {
        self.inner.metrics.customizations.get()
    }
}

impl Drop for IndexManager {
    fn drop(&mut self) {
        {
            let mut slot = self.inner.pending.lock().unwrap();
            slot.shutdown = true;
            self.inner.work.notify_all();
        }
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_citygen::{City, Scale};
    use arp_traffic::TrafficDelta;

    fn state_and_manager() -> (Arc<RoadNetwork>, Arc<TrafficState>, IndexManager) {
        let g = arp_citygen::generate(City::Copenhagen, Scale::Tiny, 3);
        let network = Arc::new(g.network);
        let traffic = Arc::new(TrafficState::new(Arc::clone(&network)));
        let registry = Registry::new();
        let manager = IndexManager::new(Arc::clone(&network), &traffic, &registry);
        (network, traffic, manager)
    }

    #[test]
    fn startup_metric_is_ready_at_epoch_zero() {
        let (_, _, manager) = state_and_manager();
        assert_eq!(manager.ready_epoch(), 0);
        assert!(manager.metric_for(0).is_some());
        assert_eq!(manager.customizations(), 1);
    }

    #[test]
    fn epoch_bump_recustomizes_in_the_background() {
        let (_, traffic, manager) = state_and_manager();
        let delta = TrafficDelta::parse("cat:residential*2.0").unwrap();
        let outcome = traffic.apply_delta(&delta).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert!(
            manager.wait_ready(1, Duration::from_secs(30)),
            "customizer must reach epoch 1"
        );
        assert!(manager.metric_for(1).is_some());
        assert_eq!(manager.customizations(), 2);
    }

    #[test]
    fn not_ready_epoch_has_no_metric_until_customized() {
        let (_, traffic, manager) = state_and_manager();
        manager.pause();
        let delta = TrafficDelta::parse("cat:primary*1.5").unwrap();
        traffic.apply_delta(&delta).unwrap();
        // The worker is parked: epoch 1's metric cannot exist yet.
        assert!(manager.metric_for(1).is_none());
        // Manual customization publishes it deterministically.
        assert!(manager.customize_now());
        assert!(manager.metric_for(1).is_some());
        assert_eq!(manager.ready_epoch(), 1);
        manager.resume();
    }

    #[test]
    fn pending_slot_is_latest_wins() {
        let (_, traffic, manager) = state_and_manager();
        manager.pause();
        for _ in 0..3 {
            let delta = TrafficDelta::parse("cat:residential*1.1").unwrap();
            traffic.apply_delta(&delta).unwrap();
        }
        // Three publications queued while parked; one customization jumps
        // straight to the newest epoch.
        assert!(manager.customize_now());
        assert_eq!(manager.ready_epoch(), 3);
        assert!(!manager.customize_now(), "slot must be drained");
        // The skipped epochs never get a metric.
        assert!(manager.metric_for(1).is_none());
        assert!(manager.metric_for(2).is_none());
        assert!(manager.metric_for(3).is_some());
        manager.resume();
    }

    #[test]
    fn forced_wraparound_epoch_is_served_exactly() {
        let (_, traffic, manager) = state_and_manager();
        traffic.force_epoch(u64::MAX);
        let delta = TrafficDelta::parse("cat:residential*1.2").unwrap();
        let outcome = traffic.apply_delta(&delta).unwrap();
        assert_eq!(outcome.epoch, 0, "epoch must wrap");
        assert!(
            manager.wait_ready(0, Duration::from_secs(30)),
            "customizer must reach the wrapped epoch"
        );
        // Exact-match still gates correctly across the wrap: the wrapped
        // epoch-0 metric carries the *overlaid* weights, and stale
        // pre-wrap epochs are refused.
        assert!(manager.metric_for(0).is_some());
        assert!(manager.metric_for(u64::MAX).is_none());
    }

    #[test]
    fn shutdown_joins_the_worker() {
        let (_, traffic, manager) = state_and_manager();
        drop(manager);
        // The listener still fires into the dropped manager's inner state
        // without panicking or deadlocking.
        let delta = TrafficDelta::parse("cat:residential*1.3").unwrap();
        traffic.apply_delta(&delta).unwrap();
    }
}
