//! Epoch-versioned publication of traffic state: [`EpochSnapshot`] (what
//! readers pin) and [`TrafficState`] (the single writer that swaps them).
//!
//! ## The epoch-swap protocol
//!
//! A delta is applied in four steps, all under one short write lock:
//! clone the overlay, mutate the clone, materialize the new effective
//! weight column into a fresh `Arc<Vec<Weight>>`, then publish a new
//! [`EpochSnapshot`] with `epoch = old + 1` (wrapping). Readers call
//! [`TrafficState::snapshot`] **once per request** and keep the returned
//! `Arc` for the request's whole lifetime — that single clone *is* the
//! epoch pin: the column it references is immutable and stays alive
//! however many swaps happen mid-request, so an in-flight search can
//! never observe a torn update or a mixture of two epochs. The trade is
//! one `Arc` clone per request against zero synchronization inside the
//! search hot loops.
//!
//! An epoch number is what responses report, not an identity: a forced
//! epoch or a wrap past `u64::MAX` can give two columns one number. Every
//! snapshot also carries a publication number
//! ([`EpochSnapshot::publication`]) that no other snapshot in the process
//! shares, and whatever is keyed on a column keys on that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use arp_obs::Registry;
use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::weight::Weight;

use crate::delta::TrafficDelta;
use crate::error::TrafficError;
use crate::feed::TrafficFeed;
use crate::metrics::{DurabilityMetrics, TrafficMetrics};
use crate::overlay::TrafficOverlay;
use crate::recovery::{self, Durability, DurabilityConfig, RecoveryReport};

/// One immutable, published traffic epoch: the effective weight column,
/// its closed edges, plus the summary numbers `/api/health` reports.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    publication: u64,
    weights: Arc<Vec<Weight>>,
    /// The edges `weights` marks closed, sorted.
    closed: Arc<[u32]>,
    overlay_size: usize,
}

impl EpochSnapshot {
    /// A snapshot of `overlay`'s materialized column `weights` under
    /// `epoch`, numbered past every snapshot made before it in this
    /// process. When `overlay` closes what `previous` closed, the
    /// snapshot shares `previous`'s closed set.
    fn publish(
        epoch: u64,
        weights: Arc<Vec<Weight>>,
        overlay: &TrafficOverlay,
        previous: Option<&EpochSnapshot>,
    ) -> Arc<Self> {
        static PUBLICATIONS: AtomicU64 = AtomicU64::new(0);
        let closed = match previous {
            Some(p) if p.closed.iter().copied().eq(overlay.closed_edges()) => Arc::clone(&p.closed),
            _ => overlay.closed_edges().collect(),
        };
        Arc::new(EpochSnapshot {
            epoch,
            publication: PUBLICATIONS.fetch_add(1, Ordering::Relaxed),
            weights,
            closed,
            overlay_size: overlay.size(),
        })
    }

    /// The epoch stamp (0 = base weights, never overlaid).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The publication number: advanced by every swap and every
    /// [`TrafficState::force_epoch`], never reset, so unlike the epoch it
    /// names exactly one weight column. Caches of per-column results key
    /// on it.
    pub fn publication(&self) -> u64 {
        self.publication
    }

    /// The effective weight column (shared; cloning the `Arc` is cheap).
    pub fn weights(&self) -> &Arc<Vec<Weight>> {
        &self.weights
    }

    /// Active incident closures at publication time.
    pub fn closures(&self) -> usize {
        self.closed.len()
    }

    /// The edges this snapshot's column closes, in increasing id order:
    /// the closures a search of any other column under this epoch's
    /// closures reads. Shared with the snapshot before it when a swap
    /// left them unchanged (a factor-only delta, a forced epoch), so
    /// `Arc::ptr_eq` is a cheap first test of equality.
    pub fn closed(&self) -> &Arc<[u32]> {
        &self.closed
    }

    /// Total overlay entries (closures + edge factors + category
    /// factors) at publication time.
    pub fn overlay_size(&self) -> usize {
        self.overlay_size
    }

    /// The traffic-epoch attribute a request's root trace span is
    /// stamped with, tying every captured trace to the exact weight
    /// column it was served under.
    pub fn trace_attr(&self) -> (&'static str, String) {
        ("traffic_epoch", self.epoch.to_string())
    }
}

/// Outcome of one applied delta / advanced tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// The epoch the swap published.
    pub epoch: u64,
    /// Statements applied by this delta.
    pub applied: usize,
    /// TTL closures that expired during this application.
    pub expired: usize,
    /// Closures active after the swap.
    pub closures_active: usize,
}

/// Interior-mutable writer state, guarded by one `RwLock`.
#[derive(Debug)]
struct State {
    overlay: TrafficOverlay,
    tick: u64,
    snapshot: Arc<EpochSnapshot>,
}

/// The live-traffic authority for one road network: owns the overlay,
/// the tick counter and the current epoch, and publishes immutable
/// [`EpochSnapshot`]s.
///
/// Thread-safe: any number of readers pin snapshots while one writer
/// (the feed ticker or `POST /api/traffic`) swaps epochs.
pub struct TrafficState {
    net: Arc<RoadNetwork>,
    base: Arc<Vec<Weight>>,
    metrics: TrafficMetrics,
    state: RwLock<State>,
    /// The durability layer, attached when [`TrafficState::open`] is
    /// handed a [`DurabilityConfig`]. When present, every swap journals
    /// its delta **before** publishing (journal-then-apply) and
    /// periodically starts a new journal generation with a checkpoint.
    durability: Option<Arc<Durability>>,
}

impl std::fmt::Debug for TrafficState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficState")
            .field("epoch", &self.epoch())
            .field("tick", &self.tick())
            .finish_non_exhaustive()
    }
}

impl TrafficState {
    /// An in-memory state recording no metrics: [`TrafficState::open`]
    /// without durability on a disabled registry.
    pub fn new(net: Arc<RoadNetwork>) -> TrafficState {
        let opened = Self::open(net, None, &Registry::disabled());
        opened.expect("an in-memory state has nothing to fail on").0
    }

    /// A durable state recording no metrics: [`TrafficState::open`] with
    /// `config` on a disabled registry.
    pub fn recover_with(
        net: Arc<RoadNetwork>,
        config: DurabilityConfig,
    ) -> Result<(TrafficState, RecoveryReport), TrafficError> {
        let (state, report) = Self::open(net, Some(config), &Registry::disabled())?;
        Ok((state, report.expect("a durable open always reports")))
    }

    /// Opens the traffic state of `net`, its instruments resolved from
    /// `registry` (a [`Registry::disabled`] one records nothing).
    ///
    /// Without `durability` the state starts at epoch 0 with the identity
    /// overlay — the published column is the base weights themselves
    /// (shared, not copied) — lives in memory only, and there is no
    /// report. With it, the state is rebuilt from `config.dir` by
    /// replaying the newest journal generation that reads clean (see
    /// [`crate::recovery`] for the replay invariant and the
    /// corruption-degradation ladder) and journals every subsequent swap
    /// into the same directory.
    pub fn open(
        net: Arc<RoadNetwork>,
        durability: Option<DurabilityConfig>,
        registry: &Registry,
    ) -> Result<(TrafficState, Option<RecoveryReport>), TrafficError> {
        let metrics = TrafficMetrics::new(registry);
        let (overlay, tick, epoch, durability, report) = match durability {
            Some(config) => {
                let r = recovery::recover(&net, &config, DurabilityMetrics::new(registry))?;
                let durability = Some(Arc::new(r.durability));
                (r.overlay, r.tick, r.epoch, durability, Some(r.report))
            }
            None => (TrafficOverlay::identity(), 0, 0, None, None),
        };
        let base = Arc::new(net.weights().to_vec());
        let snapshot =
            EpochSnapshot::publish(epoch, overlay.materialize(&net, &base), &overlay, None);
        metrics.epoch.set(epoch as i64);
        metrics.closures_active.set(snapshot.closures() as i64);
        let state = TrafficState {
            net,
            base,
            metrics,
            state: RwLock::new(State {
                overlay,
                tick,
                snapshot,
            }),
            durability,
        };
        Ok((state, report))
    }

    /// True if this state journals its swaps (opened with a
    /// [`DurabilityConfig`]).
    pub fn durable(&self) -> bool {
        self.durability.is_some()
    }

    /// A copy of the current overlay — the authoritative factor/closure
    /// state behind the published snapshot. Used by recovery tests to
    /// re-validate a replayed state and by operators via debug tooling.
    pub fn overlay_snapshot(&self) -> TrafficOverlay {
        self.state
            .read()
            .expect("traffic lock poisoned")
            .overlay
            .clone()
    }

    /// Installs the `journal.append` failpoint hook (the serving tier
    /// wires its `FaultPlan` in here; `arp-traffic` itself has no
    /// dependency on the fault-injection machinery). No-op on a
    /// non-durable state.
    pub fn set_journal_fault_hook(
        &self,
        hook: impl Fn() -> Result<(), String> + Send + Sync + 'static,
    ) {
        if let Some(durability) = &self.durability {
            durability.set_fault_hook(Some(Box::new(hook)));
        }
    }

    /// Forces a checkpoint of the current state: a new journal
    /// generation opening with it, so a restart after it replays the
    /// checkpoint alone. Returns `Ok(false)` on a non-durable state.
    pub fn flush_snapshot(&self) -> Result<bool, TrafficError> {
        let Some(durability) = &self.durability else {
            return Ok(false);
        };
        // The read lock holds writers off, so no swap journals a record
        // into the generation this checkpoint closes after it was taken.
        let state = self.state.read().expect("traffic lock poisoned");
        durability.checkpoint(state.snapshot.epoch, state.tick, &state.overlay)?;
        Ok(true)
    }

    /// The live journal generation's file, `None` on a non-durable state.
    pub fn journal_path(&self) -> Option<std::path::PathBuf> {
        self.durability.as_ref().map(|d| d.journal_path())
    }

    /// The network this state overlays.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// Pins the current epoch: the returned snapshot (and its weight
    /// column) is immutable and survives any number of later swaps.
    /// Call once per request, at request-construction time.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.state.read().expect("traffic lock poisoned").snapshot)
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.state
            .read()
            .expect("traffic lock poisoned")
            .snapshot
            .epoch
    }

    /// The current feed tick.
    pub fn tick(&self) -> u64 {
        self.state.read().expect("traffic lock poisoned").tick
    }

    /// Applies an explicit delta (the `POST /api/traffic` path) at the
    /// current tick and swaps in a new epoch. Validation failures leave
    /// the published snapshot untouched.
    pub fn apply_delta(&self, delta: &TrafficDelta) -> Result<ApplyOutcome, TrafficError> {
        let mut state = self.state.write().expect("traffic lock poisoned");
        let now = state.tick;
        self.swap(&mut state, delta, now)
    }

    /// Advances the feed clock one tick: expires TTL closures, generates
    /// the feed's delta for the new tick, applies it, and swaps in a new
    /// epoch — one atomic publication per tick.
    pub fn advance_tick(&self, feed: &TrafficFeed) -> Result<ApplyOutcome, TrafficError> {
        let mut state = self.state.write().expect("traffic lock poisoned");
        let tick = state.tick + 1;
        let delta = feed.delta_for_tick(tick, self.net.num_edges());
        // Expiry happens inside swap, on the clone: if the journal append
        // fails, neither the tick counter nor the closures have moved —
        // the failed tick never happened.
        self.swap(&mut state, &delta, tick)
    }

    /// Test/operations hook: republishes the current overlay under an
    /// arbitrary epoch number. Exists so wraparound-sized epochs are
    /// testable without 2^64 swaps; the serving stack treats epochs as
    /// opaque identity, so any value (including `u64::MAX`, which the
    /// next swap wraps to 0) must serve correctly; the snapshot gets a new
    /// publication number like any swap's. A durable state starts
    /// a new journal generation at the forced epoch (best-effort, like a
    /// swap's checkpoint), so replay never meets a jump in the numbering.
    pub fn force_epoch(&self, epoch: u64) {
        let mut state = self.state.write().expect("traffic lock poisoned");
        let weights = state.overlay.materialize(&self.net, &self.base);
        state.snapshot =
            EpochSnapshot::publish(epoch, weights, &state.overlay, Some(&state.snapshot));
        self.metrics.epoch.set(epoch as i64);
        if let Some(durability) = &self.durability {
            let _ = durability.checkpoint(epoch, state.tick, &state.overlay);
        }
    }

    /// The one swap path: clone-mutate-**journal**-materialize-publish.
    /// Runs under the caller's write lock so validation, mutation and
    /// publication are one atomic step. The clone takes the overlay step
    /// journal replay takes too: when `now` is a later tick (the feed-tick
    /// path) its TTL closures expire before the delta applies, and the
    /// tick counter commits only on success.
    ///
    /// With durability attached, the journal append sits between
    /// validation and publication: a delta that cannot be made durable
    /// (disk full, EIO, injected fault) is rejected with
    /// [`TrafficError::Journal`] and the epoch never moves — the
    /// journal can describe epochs the process never served, but never
    /// the reverse.
    fn swap(
        &self,
        state: &mut State,
        delta: &TrafficDelta,
        now: u64,
    ) -> Result<ApplyOutcome, TrafficError> {
        let mut next = state.overlay.clone();
        let (expired, applied) = next.step(&self.net, delta, state.tick, now)?;
        let epoch = state.snapshot.epoch.wrapping_add(1);
        if let Some(durability) = &self.durability {
            // Journal form carries absolute closure expiries, so replay
            // after downtime reproduces exactly this application.
            let journal_delta = delta.to_journal_form(now);
            durability.append(epoch, now, &journal_delta.to_string())?;
        }
        let closures_active = next.num_closures();
        let weights = next.materialize(&self.net, &self.base);
        state.snapshot = EpochSnapshot::publish(epoch, weights, &next, Some(&state.snapshot));
        state.overlay = next;
        state.tick = now;
        self.metrics.epoch.set(epoch as i64);
        self.metrics.deltas_applied.add(applied as u64);
        self.metrics.closures_active.set(closures_active as i64);
        if let Some(durability) = &self.durability {
            if durability.should_checkpoint() {
                // Best-effort: a failed checkpoint must not fail the
                // already-published swap; the counter stays up, so the
                // next swap retries.
                let _ = durability.checkpoint(epoch, now, &state.overlay);
            }
        }
        Ok(ApplyOutcome {
            epoch,
            applied,
            expired,
            closures_active,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::TrafficFeed;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;
    use arp_roadnet::weight::CLOSED;

    fn line(n: usize) -> Arc<RoadNetwork> {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(Point::new(i as f64 * 0.01, 0.0)))
            .collect();
        for i in 0..n - 1 {
            b.add_bidirectional(
                ids[i],
                ids[i + 1],
                EdgeSpec::category(RoadCategory::Primary),
            );
        }
        Arc::new(b.build())
    }

    #[test]
    fn epoch_zero_shares_the_base_column() {
        let net = line(4);
        let state = TrafficState::new(Arc::clone(&net));
        let snap = state.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.weights().as_slice(), net.weights());
        // Same allocation as the state's base — zero-copy identity.
        assert!(Arc::ptr_eq(snap.weights(), &state.base));
    }

    #[test]
    fn pinned_snapshots_survive_later_swaps() {
        let net = line(4);
        let state = TrafficState::new(Arc::clone(&net));
        let pinned = state.snapshot();
        let before: Vec<Weight> = pinned.weights().to_vec();
        state
            .apply_delta(&TrafficDelta::parse("close:0; cat:primary*2.0").unwrap())
            .unwrap();
        // The pinned epoch still reads the old weights, bit for bit.
        assert_eq!(pinned.weights()[..], before[..]);
        assert_eq!(pinned.epoch(), 0);
        // A fresh pin sees the new epoch.
        let now = state.snapshot();
        assert_eq!(now.epoch(), 1);
        assert_eq!(now.weights()[0], CLOSED);
    }

    #[test]
    fn failed_deltas_do_not_swap() {
        let net = line(3);
        let state = TrafficState::new(net);
        assert!(state
            .apply_delta(&TrafficDelta::parse("close:999").unwrap())
            .is_err());
        assert_eq!(state.epoch(), 0);
        assert_eq!(state.snapshot().overlay_size(), 0);
    }

    #[test]
    fn ticks_expire_ttl_closures_and_restore_base_exactly() {
        let net = line(5);
        let state = TrafficState::new(Arc::clone(&net));
        let quiet = TrafficFeed::quiet();
        state
            .apply_delta(&TrafficDelta::parse("close:1@2").unwrap())
            .unwrap();
        assert_eq!(state.snapshot().closures(), 1);
        // Tick 1: still closed (expires at tick 2).
        let o = state.advance_tick(&quiet).unwrap();
        assert_eq!((o.expired, o.closures_active), (0, 1));
        // Tick 2: expired; the column is the base again — same bytes AND
        // the same allocation (identity overlay short-circuit).
        let o = state.advance_tick(&quiet).unwrap();
        assert_eq!((o.expired, o.closures_active), (1, 0));
        let snap = state.snapshot();
        assert_eq!(snap.weights().as_slice(), net.weights());
        assert!(Arc::ptr_eq(snap.weights(), &state.base));
        assert_eq!(snap.epoch(), 3, "every tick is its own epoch");
    }

    #[test]
    fn epoch_survives_wraparound_sized_bumps() {
        let net = line(3);
        let state = TrafficState::new(net);
        state.force_epoch(u64::MAX);
        assert_eq!(state.epoch(), u64::MAX);
        let pinned = state.snapshot();
        let o = state
            .apply_delta(&TrafficDelta::parse("edge:0*2.0").unwrap())
            .unwrap();
        assert_eq!(o.epoch, 0, "u64::MAX wraps to 0");
        // The two epochs stay distinct pins despite the wrap.
        assert_eq!(pinned.epoch(), u64::MAX);
        assert_ne!(pinned.weights(), state.snapshot().weights());
    }

    #[test]
    fn every_publication_gets_a_number_no_other_snapshot_has() {
        let net = line(4);
        let state = TrafficState::new(net);
        let mut seen = vec![state.snapshot().publication()];
        state
            .apply_delta(&TrafficDelta::parse("edge:0*2.0").unwrap())
            .unwrap();
        seen.push(state.snapshot().publication());
        state.advance_tick(&TrafficFeed::quiet()).unwrap();
        seen.push(state.snapshot().publication());
        // A rejected delta publishes nothing.
        assert!(state
            .apply_delta(&TrafficDelta::parse("close:999").unwrap())
            .is_err());
        assert_eq!(state.snapshot().publication(), seen[2]);
        // Forcing an epoch republishes, and the swap past `u64::MAX` wraps
        // the epoch back to 0 but not the publication number.
        state.force_epoch(u64::MAX);
        seen.push(state.snapshot().publication());
        state
            .apply_delta(&TrafficDelta::parse("edge:1*2.0").unwrap())
            .unwrap();
        let wrapped = state.snapshot();
        assert_eq!(wrapped.epoch(), 0);
        seen.push(wrapped.publication());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
    }

    #[test]
    fn a_swap_that_closes_nothing_new_shares_the_closed_set() {
        let net = line(5);
        let state = TrafficState::new(net);
        let base = state.snapshot();
        assert!(base.closed().is_empty());
        state
            .apply_delta(&TrafficDelta::parse("close:3; close:1").unwrap())
            .unwrap();
        let closed = state.snapshot();
        assert_eq!(closed.closed()[..], [1, 3]);
        assert_eq!(closed.closures(), 2);
        // A factor-only delta and a forced epoch keep the same set, and
        // share it.
        state
            .apply_delta(&TrafficDelta::parse("edge:0*2.0").unwrap())
            .unwrap();
        assert!(Arc::ptr_eq(state.snapshot().closed(), closed.closed()));
        state.force_epoch(40);
        assert!(Arc::ptr_eq(state.snapshot().closed(), closed.closed()));
        // Reopening changes it.
        state
            .apply_delta(&TrafficDelta::parse("reopen:1").unwrap())
            .unwrap();
        assert_eq!(state.snapshot().closed()[..], [3]);
    }

    #[test]
    fn metrics_track_swaps() {
        let net = line(4);
        let reg = arp_obs::Registry::new();
        let (state, _) = TrafficState::open(net, None, &reg).unwrap();
        state
            .apply_delta(&TrafficDelta::parse("close:0; edge:1*3.0").unwrap())
            .unwrap();
        assert_eq!(
            reg.counter_value("arp_traffic_deltas_applied_total", &[]),
            2
        );
        let rendered = reg.render_prometheus();
        assert!(rendered.contains("arp_traffic_epoch 1"));
        assert!(rendered.contains("arp_traffic_closures_active 1"));
    }
}
