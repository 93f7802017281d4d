//! Property tests for the trace/span invariants.
//!
//! The collector's contract: no matter how concurrent requests
//! interleave their span recording, every kept trace is a well-nested
//! tree (one root, resolvable parent links, children contained in their
//! parents, non-negative durations), and ring-buffer eviction under
//! overflow is counted in `arp_trace_dropped_total` exactly.

use std::sync::Arc;

use arp_obs::{Registry, SpanCollector, SpanStatus, TraceConfig};
use proptest::prelude::*;

fn collector(sample: f64, buffer: usize) -> (SpanCollector, Registry) {
    let registry = Registry::new();
    let c = SpanCollector::new(
        &TraceConfig {
            sample,
            buffer,
            slow_ms: 0,
        },
        &registry,
    );
    (c, registry)
}

proptest! {
    // Thread-spawning properties: fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of concurrent requests yields well-nested,
    /// parent-linked spans with non-negative durations. Each thread
    /// plays one request: a root, a fanned-out set of "lane" children
    /// (each with a retroactive "queue" grandchild, like the serving
    /// layer records), and a final "assemble" child.
    #[test]
    fn concurrent_requests_yield_well_nested_traces(
        threads in 1usize..6,
        lanes_per in 1usize..5,
        spin in 0u32..200,
    ) {
        let (c, _registry) = collector(1.0, 256);
        let collector = Arc::new(c);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let collector = Arc::clone(&collector);
                std::thread::spawn(move || {
                    let ctx = collector.start_trace();
                    let id = ctx.id();
                    let mut root = ctx.span("request");
                    root.attr_u64("thread", t as u64);
                    let mut lane_guards = Vec::new();
                    for lane in 0..lanes_per {
                        let mut g = ctx.child_span("lane", root.id());
                        g.attr_u64("lane", lane as u64);
                        lane_guards.push(g);
                    }
                    for g in lane_guards {
                        for _ in 0..spin {
                            std::hint::spin_loop();
                        }
                        g.record_child(
                            "queue",
                            g.start_us(),
                            g.start_us(),
                            SpanStatus::Ok,
                            Vec::new(),
                        );
                        drop(g);
                    }
                    ctx.child_span("assemble", root.id()).end();
                    drop(root);
                    ctx.finish(SpanStatus::Ok);
                    id
                })
            })
            .collect();
        let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for id in ids {
            let trace = collector.trace(id).expect("sample 1.0 keeps every trace");
            prop_assert!(trace.well_nested(), "malformed tree: {:?}", trace.spans);
            // Exactly the expected shape: root + lanes + queues + assemble.
            prop_assert_eq!(trace.spans.len(), 2 + 2 * lanes_per);
            for span in &trace.spans {
                prop_assert!(span.end_us >= span.start_us, "negative duration");
                if let Some(parent) = span.parent {
                    prop_assert!(
                        trace.spans.iter().any(|s| s.id == parent),
                        "dangling parent {parent}"
                    );
                }
            }
            prop_assert_eq!(trace.spans_named("lane").count(), lanes_per);
            prop_assert_eq!(trace.spans_named("queue").count(), lanes_per);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overflowing the ring evicts exactly the surplus, and every
    /// eviction is counted in `arp_trace_dropped_total` — no more, no
    /// fewer. The survivors are precisely the newest `capacity` traces.
    #[test]
    fn ring_overflow_counts_drops_exactly(
        capacity in 1usize..10,
        total in 0usize..40,
    ) {
        let (c, registry) = collector(1.0, capacity);
        let mut ids = Vec::new();
        for _ in 0..total {
            let ctx = c.start_trace();
            ids.push(ctx.id());
            ctx.span("request").end();
            ctx.finish(SpanStatus::Ok);
        }
        let expected_dropped = total.saturating_sub(capacity);
        prop_assert_eq!(
            registry.counter_value("arp_trace_dropped_total", &[]),
            expected_dropped as u64
        );
        prop_assert_eq!(c.len(), total.min(capacity));
        prop_assert_eq!(
            registry.counter_value("arp_trace_sampled_total", &[]),
            total as u64
        );
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(
                c.trace(*id).is_some(),
                i >= expected_dropped,
                "wrong eviction order at {i}"
            );
        }
    }

    /// The sampler keeps an exact, evenly spread fraction: over any run
    /// length, the number of head-kept traces is `floor(n * rate)` ± 1,
    /// and with tail rules off nothing else is kept.
    #[test]
    fn head_sampler_is_exact(permille in 0u32..=1000, n in 1usize..300) {
        let rate = permille as f64 / 1000.0;
        let (c, _registry) = collector(rate, 4096);
        let mut kept = 0usize;
        for _ in 0..n {
            let ctx = c.start_trace();
            if ctx.finish(SpanStatus::Ok).kept {
                kept += 1;
            }
        }
        let expected = n * permille as usize / 1000;
        prop_assert!(
            kept == expected || kept == expected + 1,
            "kept {kept} of {n} at {rate}, expected ~{expected}"
        );
    }
}
