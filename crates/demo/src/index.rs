//! The epoch-customizable CH index tier.
//!
//! [`IndexManager`] owns one metric-independent [`ChTopology`] per city
//! (built once, at startup) and one [`ChMetric`] customized from a traffic
//! snapshot. No request consults it — the request path grows its tree
//! pairs no further than the stretch bound (`arp_core::SearchSubstrate::build`)
//! — so nothing keeps it current in the background either: whoever asks
//! for the current epoch's metric ([`IndexManager::metric_for`],
//! [`IndexManager::wait_ready`], the `/api/health` `index` block)
//! customizes it on their own thread when the published metric came from
//! an older snapshot. One mutex covers the check and the customization,
//! so two callers asking at once customize once.
//!
//! A metric is handed out **only** for the current epoch, and only once
//! it was customized from the current snapshot. The gate compares the
//! snapshot's publication number ([`EpochSnapshot::publication`]), not its
//! epoch: a forced epoch or a wrap past `u64::MAX` can give two weight
//! columns one epoch number, never one publication number. A past epoch
//! gets no metric.
//!
//! Instruments (DESIGN.md §11, docs/OPERATIONS.md):
//!
//! * `arp_ch_customizations_total` — metrics customized and published,
//! * `arp_ch_customize_ms` — customization wall time.

use std::sync::{Arc, Mutex};
use std::time::Duration;

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
                "CH metrics customized and published (startup, then one per traffic epoch asked for).",
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

/// The published metric, stamped with its snapshot's epoch, beside that
/// snapshot's publication number.
struct Published {
    publication: u64,
    metric: Arc<ChMetric>,
}

/// The serving layer's CH index tier: one immutable per-city topology,
/// one metric customized on demand, and a strict readiness gate. See the
/// module docs for the protocol.
pub struct IndexManager {
    network: Arc<RoadNetwork>,
    traffic: Arc<TrafficState>,
    topology: ChTopology,
    published: Mutex<Published>,
    metrics: ChIndexMetrics,
}

impl std::fmt::Debug for IndexManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexManager")
            .field("ready_epoch", &self.ready_epoch())
            .finish_non_exhaustive()
    }
}

impl IndexManager {
    /// Builds the topology and customizes `traffic`'s current epoch, so a
    /// freshly started server reports the tier ready.
    pub fn new(
        network: Arc<RoadNetwork>,
        traffic: Arc<TrafficState>,
        registry: &Registry,
    ) -> IndexManager {
        let topology = ChTopology::build(&network);
        let metrics = ChIndexMetrics::new(registry);
        let initial = customize(&topology, &network, &metrics, &traffic.snapshot());
        IndexManager {
            network,
            traffic,
            topology,
            published: Mutex::new(initial),
            metrics,
        }
    }

    /// The per-city topology (contraction order, shortcut arcs,
    /// triangles). Immutable for the manager's lifetime.
    pub fn topology(&self) -> &ChTopology {
        &self.topology
    }

    /// The metric for `epoch` **iff** it is the current epoch, customized
    /// here first when the published metric came from an older snapshot.
    /// A caller pinned to epoch `e` can only ever be handed a metric
    /// customized from the weight column `e` names now; a past epoch gets
    /// `None`.
    pub fn metric_for(&self, epoch: u64) -> Option<Arc<ChMetric>> {
        // Reading the snapshot under the lock keeps the published
        // publication number from ever moving backwards.
        let mut published = self.published.lock().unwrap();
        let snapshot = self.traffic.snapshot();
        if snapshot.epoch() != epoch {
            return None;
        }
        if published.publication != snapshot.publication() {
            *published = customize(&self.topology, &self.network, &self.metrics, &snapshot);
        }
        Some(Arc::clone(&published.metric))
    }

    /// The epoch of the newest published metric.
    pub fn ready_epoch(&self) -> u64 {
        self.published.lock().unwrap().metric.epoch()
    }

    /// Whether a metric for exactly `epoch` is available: `metric_for`
    /// without the metric. Nothing customizes in the background, so there
    /// is nothing to wait for and `_timeout` bounds nothing; the parameter
    /// stays for the callers that pass one.
    pub fn wait_ready(&self, epoch: u64, _timeout: Duration) -> bool {
        self.metric_for(epoch).is_some()
    }

    /// Published-metric customizations so far (startup included).
    pub fn customizations(&self) -> u64 {
        self.metrics.customizations.get()
    }
}

/// Customizes `snapshot`'s weight column and counts it. Customization
/// only fails on a column-length mismatch, which cannot happen for
/// snapshots of the network the topology was built on.
fn customize(
    topology: &ChTopology,
    network: &RoadNetwork,
    metrics: &ChIndexMetrics,
    snapshot: &EpochSnapshot,
) -> Published {
    let timer = metrics.customize_ms.start_timer();
    let metric = topology
        .customize(network, snapshot.weights())
        .expect("customization over a same-network snapshot cannot fail");
    drop(timer);
    metrics.customizations.inc();
    Published {
        publication: snapshot.publication(),
        metric: Arc::new(metric.with_epoch(snapshot.epoch())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arp_citygen::{City, Scale};
    use arp_roadnet::ids::NodeId;
    use arp_traffic::TrafficDelta;

    fn state_and_manager() -> (Arc<RoadNetwork>, Arc<TrafficState>, IndexManager) {
        let g = arp_citygen::generate(City::Copenhagen, Scale::Tiny, 3);
        let network = Arc::new(g.network);
        let traffic = Arc::new(TrafficState::new(Arc::clone(&network)));
        let registry = Registry::new();
        let manager = IndexManager::new(Arc::clone(&network), Arc::clone(&traffic), &registry);
        (network, traffic, manager)
    }

    fn bump(traffic: &TrafficState, delta: &str) -> u64 {
        let delta = TrafficDelta::parse(delta).unwrap();
        traffic.apply_delta(&delta).unwrap().epoch
    }

    #[test]
    fn startup_metric_is_ready_at_epoch_zero() {
        let (_, _, manager) = state_and_manager();
        assert_eq!(manager.ready_epoch(), 0);
        assert!(manager.metric_for(0).is_some());
        assert_eq!(manager.customizations(), 1);
    }

    #[test]
    fn an_epoch_is_customized_once_when_first_asked_for() {
        let (_, traffic, manager) = state_and_manager();
        assert_eq!(bump(&traffic, "cat:residential*2.0"), 1);
        // Nothing customizes in the background.
        assert_eq!(manager.customizations(), 1);
        assert_eq!(manager.ready_epoch(), 0);
        assert!(manager.wait_ready(1, Duration::ZERO));
        assert_eq!(manager.ready_epoch(), 1);
        assert_eq!(manager.customizations(), 2);
        // Asking again reuses the published metric.
        assert!(manager.metric_for(1).is_some());
        assert_eq!(manager.customizations(), 2);
    }

    #[test]
    fn past_and_future_epochs_get_no_metric() {
        let (_, traffic, manager) = state_and_manager();
        for _ in 0..3 {
            bump(&traffic, "cat:residential*1.1");
        }
        // Only the current epoch is customized; the skipped ones never
        // are, and asking for them customizes nothing.
        for epoch in [0, 1, 2, 4] {
            assert!(manager.metric_for(epoch).is_none(), "epoch {epoch}");
        }
        assert_eq!(manager.customizations(), 1);
        assert!(manager.metric_for(3).is_some());
        assert_eq!(manager.customizations(), 2);
    }

    #[test]
    fn forced_wraparound_epoch_is_served_exactly() {
        let (network, traffic, manager) = state_and_manager();
        let base = manager.metric_for(0).expect("start-up metric");
        traffic.force_epoch(u64::MAX);
        assert_eq!(bump(&traffic, "cat:residential*1.2"), 0, "epoch must wrap");
        // Epoch 0 names the overlaid column now, not the start-up one:
        // its metric must price pairs like Dijkstra on that column.
        let wrapped = manager.metric_for(0).expect("the current epoch");
        assert_eq!(manager.customizations(), 2);
        let snapshot = traffic.snapshot();
        let n = network.num_nodes() as u32;
        let mut moved = 0;
        for (s, t) in [(0, n - 1), (n / 4, 3 * n / 4), (n / 2, 1), (n - 2, n / 3)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let dijkstra = arp_core::shortest_path(&network, snapshot.weights(), s, t)
                .ok()
                .map(|p| p.cost_ms);
            let topology = manager.topology();
            assert_eq!(topology.distance(&wrapped, s, t), dijkstra, "{s:?}->{t:?}");
            moved += usize::from(topology.distance(&base, s, t) != dijkstra);
        }
        assert!(moved > 0, "the overlay must move some probed distance");
        assert!(manager.metric_for(u64::MAX).is_none(), "pre-wrap epoch");
    }
}
