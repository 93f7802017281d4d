//! Failpoint injection: deterministic, zero-overhead-when-disabled
//! fault sites for exercising the serving layer's failure handling.
//!
//! A [`FaultPlan`] maps *named sites* in the request path to a
//! [`FaultKind`]. The serving layer consults the plan at three sites —
//! `lane.<technique>` (per-technique compute), `backend.snap` (request
//! normalization in the demo) and `cache.get` (route-cache probe) — so
//! every failure-handling behaviour (circuit breakers, the
//! degraded-response ladder) is testable without real hardware faults.
//!
//! Design constraints, in order:
//!
//! * **Zero overhead when disabled.** A disabled plan is a `None`
//!   inside; [`FaultPlan::fire`] is a single branch and returns without
//!   ever hashing a site name. Production services run with
//!   `FaultPlan::default()` and pay one predictable branch per site.
//! * **Deterministic.** `Flaky { p, seed }` draws from a seeded
//!   splitmix64 stream keyed by the per-site hit counter — no `rand`,
//!   no wall clock — so a chaos run with a fixed seed injects the exact
//!   same fault sequence every time (`repro_chaos` depends on this).
//! * **Configurable from the command line.** `arp serve --faults
//!   "lane.penalty=flaky:0.25:42,cache.get=delay:5"` parses into a plan
//!   via [`FaultPlan::parse`]; the grammar is documented there.
//!
//! Every *fired* fault increments
//! `arp_serve_faults_injected_total{site,kind}` (resolved lazily, only
//! on the already-slow injected path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arp_obs::{Counter, Registry};

/// Well-known failpoint site names used by the serving pipeline.
pub mod sites {
    /// The route-cache probe (an injected error degrades to a full miss).
    pub const CACHE_GET: &str = "cache.get";
    /// Request normalization in the HTTP layer (the demo's geo snap).
    pub const BACKEND_SNAP: &str = "backend.snap";
    /// The traffic write-ahead journal append (an injected error models
    /// disk-full/EIO: the delta is rejected with 503 and the epoch never
    /// moves).
    pub const JOURNAL_APPEND: &str = "journal.append";

    /// The compute site for one technique lane: `lane.<technique>`.
    pub fn lane(technique: &str) -> String {
        format!("lane.{technique}")
    }
}

/// What an armed failpoint does when it fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Fail with the given error message.
    Error(String),
    /// Panic (the fan-out's panic containment must absorb it).
    Panic,
    /// Fail with probability `p` per hit, deterministically: the n-th hit
    /// of the site draws from a splitmix64 stream seeded with `seed`, so
    /// the same plan injects the same fault sequence on every run.
    Flaky {
        /// Per-hit failure probability in `[0, 1]`.
        p: f64,
        /// Stream seed; same seed, same coin flips.
        seed: u64,
    },
}

impl FaultKind {
    /// The bounded-cardinality `kind` metric label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Delay(_) => "delay",
            FaultKind::Error(_) => "error",
            FaultKind::Panic => "panic",
            FaultKind::Flaky { .. } => "flaky",
        }
    }
}

/// One armed site in a plan.
#[derive(Debug)]
struct Failpoint {
    site: String,
    kind: FaultKind,
    /// Hits so far (drives the deterministic flaky stream).
    hits: AtomicU64,
    /// Faults actually fired (a flaky site that passes does not count).
    /// Kept locally so [`FaultPlan::injected_at`] works on unattached
    /// plans, whose `injected` counter is a detached no-op.
    fired: AtomicU64,
    /// `arp_serve_faults_injected_total{site,kind}` — counts *fired*
    /// faults, not hits.
    injected: Counter,
}

impl Failpoint {
    fn fired(&self) {
        self.fired.fetch_add(1, Ordering::Relaxed);
        self.injected.inc();
    }
}

/// sebastiano vigna's splitmix64: one 64-bit mix, good enough to turn
/// `(seed, hit-index)` into an independent uniform draw.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A registry of armed failpoints. Cloning shares the plan (and its hit
/// counters). The default plan is disabled and costs one branch per
/// site check.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Vec<Failpoint>>>,
}

impl FaultPlan {
    /// The disabled plan: never injects, never allocates.
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any site is armed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Arms `site` with `kind` (replacing any previous arming of the
    /// same site). Programmatic equivalent of one `site=spec` entry.
    pub fn with(self, site: impl Into<String>, kind: FaultKind) -> FaultPlan {
        let site = site.into();
        let mut points: Vec<Failpoint> = match self.inner {
            Some(arc) => arc
                .iter()
                .filter(|f| f.site != site)
                .map(|f| Failpoint {
                    site: f.site.clone(),
                    kind: f.kind.clone(),
                    // Carry the untouched sites' progress over (as
                    // `attach_metrics` does): re-arming one site must not
                    // reset the deterministic flaky streams or fired
                    // counts of the others.
                    hits: AtomicU64::new(f.hits.load(Ordering::Relaxed)),
                    fired: AtomicU64::new(f.fired.load(Ordering::Relaxed)),
                    injected: f.injected.clone(),
                })
                .collect(),
            None => Vec::new(),
        };
        points.push(Failpoint {
            site,
            kind,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            injected: Counter::default(),
        });
        FaultPlan {
            inner: Some(Arc::new(points)),
        }
    }

    /// Parses a plan from its command-line spec: comma-separated
    /// `site=kind` entries where `kind` is one of
    ///
    /// * `delay:<ms>` — sleep `<ms>` milliseconds,
    /// * `error` or `error:<message>` — fail with a message,
    /// * `panic` — panic at the site,
    /// * `flaky:<p>` or `flaky:<p>:<seed>` — fail with probability
    ///   `<p>` (deterministic; seed defaults to 1).
    ///
    /// Example: `lane.penalty=flaky:0.25:42,cache.get=delay:5`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::disabled();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, kind_spec) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is not site=kind"))?;
            let mut fields = kind_spec.split(':');
            let kind = match fields.next().unwrap_or("") {
                "delay" => {
                    let ms: u64 = fields
                        .next()
                        .ok_or_else(|| format!("delay at {site:?} needs milliseconds"))?
                        .trim_end_matches("ms")
                        .parse()
                        .map_err(|_| format!("bad delay for {site:?}"))?;
                    FaultKind::Delay(Duration::from_millis(ms))
                }
                "error" => FaultKind::Error(fields.next().unwrap_or("injected fault").to_string()),
                "panic" => FaultKind::Panic,
                "flaky" => {
                    let p: f64 = fields
                        .next()
                        .ok_or_else(|| format!("flaky at {site:?} needs a probability"))?
                        .parse()
                        .map_err(|_| format!("bad probability for {site:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability for {site:?} must be in [0,1]"));
                    }
                    let seed: u64 = match fields.next() {
                        Some(s) => s.parse().map_err(|_| format!("bad seed for {site:?}"))?,
                        None => 1,
                    };
                    FaultKind::Flaky { p, seed }
                }
                other => return Err(format!("unknown fault kind {other:?} at {site:?}")),
            };
            plan = plan.with(site.trim(), kind);
        }
        Ok(plan)
    }

    /// Resolves the per-site injection counters from `registry`
    /// (`arp_serve_faults_injected_total{site,kind}`). Call once at
    /// service construction; a plan left unattached counts into detached
    /// no-op counters.
    pub fn attach_metrics(self, registry: &Registry) -> FaultPlan {
        let Some(points) = self.inner else {
            return self;
        };
        let attached = points
            .iter()
            .map(|f| Failpoint {
                site: f.site.clone(),
                kind: f.kind.clone(),
                hits: AtomicU64::new(f.hits.load(Ordering::Relaxed)),
                fired: AtomicU64::new(f.fired.load(Ordering::Relaxed)),
                injected: registry.counter(
                    "arp_serve_faults_injected_total",
                    "Faults fired by the failpoint plan, by site and kind.",
                    &[("site", &f.site), ("kind", f.kind.label())],
                ),
            })
            .collect();
        FaultPlan {
            inner: Some(Arc::new(attached)),
        }
    }

    /// Checks `site` and *fires* its fault if armed: sleeps on
    /// [`FaultKind::Delay`], panics on [`FaultKind::Panic`], and returns
    /// `Err` on [`FaultKind::Error`] / a failing [`FaultKind::Flaky`]
    /// draw. The disabled plan returns `Ok(())` after a single branch.
    pub fn fire(&self, site: &str) -> Result<(), String> {
        let Some(points) = &self.inner else {
            return Ok(());
        };
        let Some(point) = points.iter().find(|f| f.site == site) else {
            return Ok(());
        };
        let hit = point.hits.fetch_add(1, Ordering::Relaxed);
        match &point.kind {
            FaultKind::Delay(d) => {
                point.fired();
                std::thread::sleep(*d);
                Ok(())
            }
            FaultKind::Error(message) => {
                point.fired();
                Err(format!("injected fault at {site}: {message}"))
            }
            FaultKind::Panic => {
                point.fired();
                panic!("injected panic at {site}");
            }
            FaultKind::Flaky { p, seed } => {
                // Map the (seed, hit) pair to a uniform draw in [0, 1).
                let draw = splitmix64(seed.wrapping_add(hit).wrapping_mul(0x2545_f491_4f6c_dd1d));
                let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
                if unit < *p {
                    point.fired();
                    Err(format!("injected flaky fault at {site} (hit {hit})"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Whether `site` is armed with a [`FaultKind::Delay`]: a sleep that
    /// nothing about the request bounds.
    pub(crate) fn delays(&self, site: &str) -> bool {
        self.inner
            .as_ref()
            .and_then(|points| points.iter().find(|f| f.site == site))
            .is_some_and(|f| matches!(f.kind, FaultKind::Delay(_)))
    }

    /// Total faults fired at `site` so far (0 for unarmed sites).
    pub fn injected_at(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|points| points.iter().find(|f| f.site == site))
            .map(|f| f.fired.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_a_no_op() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        assert!(plan.fire("lane.penalty").is_ok());
        assert_eq!(plan.injected_at("lane.penalty"), 0);
    }

    #[test]
    fn unarmed_sites_pass_through() {
        let plan = FaultPlan::disabled().with("cache.get", FaultKind::Panic);
        assert!(plan.fire("lane.penalty").is_ok());
    }

    #[test]
    fn error_fault_fails_every_hit() {
        let plan = FaultPlan::disabled().with("lane.x", FaultKind::Error("boom".into()));
        for _ in 0..3 {
            let err = plan.fire("lane.x").unwrap_err();
            assert!(err.contains("boom"), "{err}");
        }
        assert_eq!(plan.injected_at("lane.x"), 3);
    }

    #[test]
    #[should_panic(expected = "injected panic at lane.y")]
    fn panic_fault_panics() {
        let plan = FaultPlan::disabled().with("lane.y", FaultKind::Panic);
        let _ = plan.fire("lane.y");
    }

    #[test]
    fn flaky_is_deterministic_and_near_its_rate() {
        let make = || FaultPlan::disabled().with("lane.z", FaultKind::Flaky { p: 0.25, seed: 42 });
        let a = make();
        let b = make();
        let run = |plan: &FaultPlan| -> Vec<bool> {
            (0..400).map(|_| plan.fire("lane.z").is_err()).collect()
        };
        let fa = run(&a);
        let fb = run(&b);
        assert_eq!(fa, fb, "same seed must flip the same coins");
        let rate = fa.iter().filter(|&&f| f).count() as f64 / fa.len() as f64;
        assert!(
            (rate - 0.25).abs() < 0.08,
            "empirical rate {rate} too far from 0.25"
        );
        // A different seed flips different coins.
        let c = FaultPlan::disabled().with("lane.z", FaultKind::Flaky { p: 0.25, seed: 7 });
        assert_ne!(run(&c), fa);
    }

    #[test]
    fn flaky_extremes() {
        let never = FaultPlan::disabled().with("s", FaultKind::Flaky { p: 0.0, seed: 3 });
        let always = FaultPlan::disabled().with("s", FaultKind::Flaky { p: 1.0, seed: 3 });
        for _ in 0..50 {
            assert!(never.fire("s").is_ok());
            assert!(always.fire("s").is_err());
        }
    }

    #[test]
    fn delay_fault_sleeps() {
        let plan =
            FaultPlan::disabled().with("cache.get", FaultKind::Delay(Duration::from_millis(20)));
        let start = std::time::Instant::now();
        assert!(plan.fire("cache.get").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(plan.injected_at("cache.get"), 1);
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let plan = FaultPlan::parse(
            "lane.penalty=flaky:0.25:42, cache.get=delay:5ms, backend.snap=error:no snap, journal.append=panic",
        )
        .unwrap();
        assert!(plan.is_enabled());
        let err = plan.fire("backend.snap").unwrap_err();
        assert!(err.contains("no snap"), "{err}");
        assert!(plan.fire("cache.get").is_ok());
        // Re-arming a site replaces its kind.
        let plan = plan.with("backend.snap", FaultKind::Error("other".into()));
        assert!(plan.fire("backend.snap").unwrap_err().contains("other"));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("lane.penalty").is_err());
        assert!(FaultPlan::parse("s=explode").is_err());
        assert!(FaultPlan::parse("s=flaky:1.5").is_err());
        assert!(FaultPlan::parse("s=flaky").is_err());
        assert!(FaultPlan::parse("s=delay:abc").is_err());
        // The empty spec is the disabled plan, not an error.
        assert_eq!(FaultPlan::parse("").map(|p| p.is_enabled()), Ok(false));
    }

    #[test]
    fn with_preserves_untouched_sites_progress() {
        // Arming a new site must not reset the others: their fired counts
        // survive, and a flaky stream continues where it left off rather
        // than replaying its prefix.
        let plan = FaultPlan::disabled().with("lane.a", FaultKind::Error("x".into()));
        let _ = plan.fire("lane.a");
        let plan = plan.with("lane.b", FaultKind::Panic);
        assert_eq!(plan.injected_at("lane.a"), 1, "fired count reset by with()");

        let flaky = || FaultKind::Flaky { p: 0.5, seed: 9 };
        let reference = FaultPlan::disabled().with("lane.z", flaky());
        let expected: Vec<bool> = (0..40).map(|_| reference.fire("lane.z").is_err()).collect();
        let plan = FaultPlan::disabled().with("lane.z", flaky());
        let mut observed: Vec<bool> = (0..20).map(|_| plan.fire("lane.z").is_err()).collect();
        let plan = plan.with("lane.b", FaultKind::Panic);
        observed.extend((0..20).map(|_| plan.fire("lane.z").is_err()));
        assert_eq!(observed, expected, "flaky stream restarted by with()");
    }

    #[test]
    fn attached_metrics_land_in_the_registry() {
        let registry = Registry::new();
        let plan = FaultPlan::parse("lane.a=error")
            .unwrap()
            .attach_metrics(&registry);
        let _ = plan.fire("lane.a");
        let _ = plan.fire("lane.a");
        assert_eq!(
            registry.counter_value(
                "arp_serve_faults_injected_total",
                &[("site", "lane.a"), ("kind", "error")]
            ),
            2
        );
    }
}
