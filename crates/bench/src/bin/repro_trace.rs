//! Request tracing: span-tree integrity.
//!
//! On all three cities, against the real `arp-serve` pipeline
//! (admission, cache, technique fan-out): sample rate 1.0 over a mixed
//! workload (healthy fan-outs, cached repeats, and fault-injected
//! degraded requests). Every kept trace must be a
//! well-nested tree — one root, resolvable parent links, children
//! contained in their parents — for **100% of requests**, asserted per
//! request and reported per city.
//!
//! Every number in the report is a function of the workload alone, so
//! `reports/trace.txt` regenerates byte-identically (CI diffs it). What
//! tracing *costs* is the benchmark's `trace.overhead_share` row
//! (benchmark/README.md), measured over the socket.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_trace
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use arp_citygen::{City, Scale};
use arp_demo::backend::DemoBackend;
use arp_demo::query::{QueryProcessor, SnappedQuery};
use arp_obs::{SpanStatus, TraceConfig};
use arp_serve::{FaultPlan, RouteService, ServeConfig};

/// Distinct queries per city.
const DISTINCT: usize = 12;

fn snapped(
    pairs: &[(arp_roadnet::ids::NodeId, arp_roadnet::ids::NodeId, u64)],
) -> Vec<SnappedQuery> {
    pairs
        .iter()
        .map(|&(s, t, _)| SnappedQuery {
            source: s,
            target: t,
        })
        .collect()
}

fn main() {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Request tracing: span-tree integrity \
         ({DISTINCT} distinct queries per city, release build, seed {})",
        arp_bench::MASTER_SEED
    );

    let _ = writeln!(
        report,
        "\nwell-nestedness at sample 1.0 (healthy + cached + degraded workload)"
    );
    let mut nested_total = 0usize;
    let mut traces_total = 0usize;

    for city in City::ALL {
        let generated = arp_bench::generate_city(city, Scale::Small);
        let name = generated.name.clone();
        let pairs = arp_bench::random_queries(
            &generated.network,
            DISTINCT,
            3 * 60_000,
            40 * 60_000,
            arp_bench::MASTER_SEED,
        );
        let queries = snapped(&pairs);
        let processor = Arc::new(QueryProcessor::new(
            name.clone(),
            generated.network,
            arp_bench::MASTER_SEED,
        ));
        let registry = processor.registry().clone();

        // Every request traced, mixed outcomes.
        let trace_all = TraceConfig {
            sample: 1.0,
            buffer: 4096,
            slow_ms: 0,
        };
        let healthy = RouteService::new(
            DemoBackend::new(Arc::clone(&processor)),
            ServeConfig {
                trace: trace_all,
                ..ServeConfig::default()
            },
            &registry,
        );
        let degraded = RouteService::new(
            DemoBackend::new(Arc::clone(&processor)),
            ServeConfig {
                trace: trace_all,
                faults: FaultPlan::parse("lane.penalty=error:trace bench fault")
                    .expect("static spec"),
                ..ServeConfig::default()
            },
            &registry,
        );

        let mut nested = 0usize;
        let mut total = 0usize;
        let mut spans = 0usize;
        let mut audit =
            |service: &RouteService<DemoBackend>, query: SnappedQuery, want: Option<SpanStatus>| {
                let (receipt, result) = service.route_traced(processor.prepare_query(query));
                assert!(result.is_ok(), "{name}: route failed");
                assert!(receipt.kept, "{name}: sample 1.0 must keep every trace");
                if let Some(status) = want {
                    assert_eq!(receipt.status, status, "{name}: unexpected status");
                }
                let trace = service
                    .tracer()
                    .trace(receipt.id)
                    .expect("kept trace resolvable by id");
                total += 1;
                spans += trace.spans.len();
                if trace.well_nested() {
                    nested += 1;
                } else {
                    panic!("{name}: malformed span tree: {:?}", trace.spans);
                }
            };
        for &query in &queries {
            audit(&healthy, query, Some(SpanStatus::Ok)); // cold: full fan-out
            audit(&healthy, query, Some(SpanStatus::Ok)); // warm: cache hits
            audit(&degraded, query, Some(SpanStatus::Degraded)); // injected fault
        }
        nested_total += nested;
        traces_total += total;
        let _ = writeln!(
            report,
            "  {name:<11} traces {nested}/{total} well-nested (100%), {spans} spans"
        );
    }

    let _ = writeln!(
        report,
        "\nall traces well-nested: {nested_total}/{traces_total} (100%)"
    );
    assert_eq!(
        nested_total, traces_total,
        "every span tree must be well-nested"
    );

    let _ = writeln!(
        report,
        "\nproperties checked: every trace at sample 1.0 was kept, resolvable by id \
         and well-nested (one root, resolved parents, contained children)."
    );

    let path = arp_bench::write_report("trace.txt", &report);
    println!("{report}");
    println!("report written to {}", path.display());
}
