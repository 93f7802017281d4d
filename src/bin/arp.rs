//! `arp` — command-line interface to the alternative-route-planning
//! toolkit.
//!
//! ```text
//! arp generate  <city> [--scale tiny|small|medium|large] [--seed N] [--out FILE]
//! arp export-osm <city> [--scale ...] [--seed N] --out FILE
//! arp route     <city|FILE.arn> --from LON,LAT --to LON,LAT
//!               [--technique plateaus|penalty|dissimilarity|google|esx|pareto|yen]
//!               [--k N] [--geojson FILE]
//! arp study     <city> [--scale ...] [--seed N]
//! arp serve     <city> [--port P] [--seed N] [--workers N] [--cache N]
//!               [--faults SPEC]  (e.g. `lane.penalty=flaky:0.2,cache.get=error:down`)
//!               [--traffic-tick-ms MS] [--traffic-seed N]  (live-traffic feed; off by default)
//!               [--ch on|off]  (the CH index tier; on by default)
//!               [--state-dir DIR]  (durable traffic state: checkpointed journal generations + crash recovery)
//!               [--fsync always|interval[:N]|never] [--snapshot-every N]
//!               [--trace-sample R] [--trace-buffer N] [--slow-ms MS]  (request tracing)
//! ```
//!
//! Flags are validated against a per-subcommand allowlist: an unknown
//! `--flag` is an error (it used to be silently ignored), and a flag
//! missing its value never swallows the next `--flag` as the value.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use alt_route_planner::prelude::*;
use arp_core::quality::turn_count;
use arp_demo::query::MATCH_RADIUS_M;
use arp_roadnet::weight::ms_to_display_minutes;

fn usage() -> ! {
    eprintln!(
        "usage:\n  arp generate  <city> [--scale S] [--seed N] [--out FILE]\n  arp export-osm <city> [--scale S] [--seed N] --out FILE\n  arp route     <city|FILE.arn> --from LON,LAT --to LON,LAT [--technique T] [--k N] [--geojson FILE]\n  arp study     <city> [--scale S] [--seed N]\n  arp serve     <city> [--port P] [--seed N] [--workers N] [--cache N] [--faults SPEC] [--traffic-tick-ms MS] [--traffic-seed N] [--ch on|off] [--state-dir DIR] [--fsync always|interval[:N]|never] [--snapshot-every N] [--trace-sample R] [--trace-buffer N] [--slow-ms MS]\n\ncities: melbourne | dhaka | copenhagen   scales: tiny | small | medium | large"
    );
    std::process::exit(2)
}

/// The flags each subcommand accepts. `None` for an unknown subcommand —
/// the caller reports it before any flag is looked at.
fn allowed_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "generate" | "export-osm" => &["scale", "seed", "out"],
        "route" => &["scale", "seed", "from", "to", "technique", "k", "geojson"],
        "study" => &["scale", "seed"],
        "serve" => &[
            "port",
            "seed",
            "scale",
            "workers",
            "cache",
            "faults",
            "traffic-tick-ms",
            "traffic-seed",
            "ch",
            "state-dir",
            "fsync",
            "snapshot-every",
            "trace-sample",
            "trace-buffer",
            "slow-ms",
        ],
        _ => return None,
    })
}

/// Splits argv into positional args and `--key value` flags, validated
/// against the subcommand's allowlist.
///
/// Two historical bugs are rejected here rather than silently absorbed:
/// an unknown flag used to be accepted and ignored (a typo like
/// `--trafic-tick-ms` left the feed off without a word), and a `--key`
/// missing its value used to swallow the next `--flag` as the value
/// (`--traffic-tick-ms --workers 4` parsed as tick "--workers" plus a
/// stray positional "4").
fn parse_args(
    cmd: &str,
    args: &[String],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let Some(allowed) = allowed_flags(cmd) else {
        return Err(format!("unknown command {cmd:?}"));
    };
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if !allowed.contains(&key) {
                return Err(format!(
                    "unknown flag --{key} for `arp {cmd}` (accepted: {})",
                    allowed
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
            match args.get(i + 1) {
                None => return Err(format!("missing value for --{key}")),
                Some(value) if value.starts_with("--") => {
                    return Err(format!(
                        "missing value for --{key} (next argument {value:?} is a flag)"
                    ))
                }
                Some(value) => {
                    flags.insert(key.to_string(), value.clone());
                }
            }
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn parse_scale(flags: &HashMap<String, String>) -> Scale {
    match flags.get("scale").map(String::as_str) {
        None | Some("medium") => Scale::Medium,
        Some("tiny") => Scale::Tiny,
        Some("small") => Scale::Small,
        Some("large") => Scale::Large,
        Some(other) => {
            eprintln!("unknown scale {other:?}");
            usage();
        }
    }
}

fn parse_seed(flags: &HashMap<String, String>) -> u64 {
    flags
        .get("seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42)
}

fn load_network(arg: &str, flags: &HashMap<String, String>) -> (String, arp_roadnet::RoadNetwork) {
    if arg.ends_with(".arn") {
        let net = arp_roadnet::io::load_network(std::path::Path::new(arg)).unwrap_or_else(|e| {
            eprintln!("cannot load {arg}: {e}");
            std::process::exit(1);
        });
        (arg.to_string(), net)
    } else {
        let city: City = arg.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        });
        let g = citygen::generate(city, parse_scale(flags), parse_seed(flags));
        (g.name, g.network)
    }
}

fn parse_point(s: &str) -> Point {
    let Some((lon, lat)) = s.split_once(',') else {
        eprintln!("expected LON,LAT, got {s:?}");
        usage();
    };
    match (lon.trim().parse(), lat.trim().parse()) {
        (Ok(lon), Ok(lat)) => Point::new(lon, lat),
        _ => {
            eprintln!("bad coordinates {s:?}");
            usage();
        }
    }
}

fn cmd_generate(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(city_arg) = positional.first() else {
        usage()
    };
    let (name, net) = load_network(city_arg, flags);
    println!(
        "{name}: {} nodes, {} edges, {:.0} km of road, bbox {:.4}..{:.4} lon {:.4}..{:.4} lat",
        net.num_nodes(),
        net.num_edges(),
        net.total_length_km(),
        net.bbox().min_lon,
        net.bbox().max_lon,
        net.bbox().min_lat,
        net.bbox().max_lat,
    );
    if let Some(out) = flags.get("out") {
        arp_roadnet::io::save_network(&net, std::path::Path::new(out)).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
        println!("written to {out}");
    }
    ExitCode::SUCCESS
}

fn cmd_export_osm(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(city_arg) = positional.first() else {
        usage()
    };
    let Some(out) = flags.get("out") else {
        eprintln!("export-osm requires --out FILE");
        usage();
    };
    let (_, net) = load_network(city_arg, flags);
    let xml = arp_osm::writer::write_osm_xml(&arp_osm::export::network_to_osm(&net));
    std::fs::write(out, xml).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("OSM XML written to {out}");
    ExitCode::SUCCESS
}

fn cmd_route(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(net_arg) = positional.first() else {
        usage()
    };
    let (Some(from), Some(to)) = (flags.get("from"), flags.get("to")) else {
        eprintln!("route requires --from and --to");
        usage();
    };
    let (name, net) = load_network(net_arg, flags);
    let index = SpatialIndex::build(&net);
    let s = index
        .nearest_node_within(&net, parse_point(from), MATCH_RADIUS_M)
        .map(|(n, _)| n)
        .unwrap_or_else(|| {
            eprintln!("--from is not near any road of {name}");
            std::process::exit(1);
        });
    let t = index
        .nearest_node_within(&net, parse_point(to), MATCH_RADIUS_M)
        .map(|(n, _)| n)
        .unwrap_or_else(|| {
            eprintln!("--to is not near any road of {name}");
            std::process::exit(1);
        });

    let k = flags
        .get("k")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(3);
    let query = AltQuery::paper().with_k(k);
    let technique = flags
        .get("technique")
        .map(String::as_str)
        .unwrap_or("plateaus");
    let weights = net.weights();
    let study = |kind: ProviderKind| {
        let providers = standard_providers(&net, parse_seed(flags));
        let provider = providers
            .iter()
            .find(|p| p.kind() == kind)
            .expect("one provider per kind");
        provider
            .alternatives(&net, weights, s, t, &query)
            .map(|rs| rs.into_iter().map(|r| r.path).collect())
    };
    let unlimited = SearchBudget::unlimited();
    let paths: Vec<Path> = match technique {
        "plateaus" => study(ProviderKind::Plateaus),
        "penalty" => study(ProviderKind::Penalty),
        "dissimilarity" => study(ProviderKind::Dissimilarity),
        "google" => study(ProviderKind::GoogleLike),
        "esx" => esx_alternatives(
            &net,
            weights,
            s,
            t,
            &query,
            &EsxOptions::default(),
            &unlimited,
        ),
        "yen" => yen_k_shortest_paths(&net, weights, s, t, k, &unlimited),
        "pareto" => pareto_paths(&net, weights, s, t, &ParetoOptions::default())
            .map(|rs| rs.into_iter().map(|r| r.path).collect()),
        other => {
            eprintln!("unknown technique {other:?}");
            usage();
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("routing failed: {e}");
        std::process::exit(1);
    });

    println!("{technique} routes {s} -> {t} on {name}:");
    for (i, p) in paths.iter().enumerate() {
        println!(
            "  route {}: {:>3} min  {:>6.1} km  {:>3} turns  {} vertices",
            i + 1,
            ms_to_display_minutes(p.cost_under(weights)),
            p.length_m(&net) / 1000.0,
            turn_count(&net, p, 45.0),
            p.nodes.len()
        );
    }

    if let Some(out) = flags.get("geojson") {
        // Reuse the demo GeoJSON by wrapping paths as one approach.
        let resp = arp_demo::query::QueryResponse {
            source: s,
            target: t,
            truncated: false,
            degraded: false,
            lane_status: Vec::new(),
            epoch: 0,
            fastest_minutes: paths
                .first()
                .map(|p| ms_to_display_minutes(p.cost_under(weights)))
                .unwrap_or(0),
            approaches: vec![Arc::new(arp_demo::query::ApproachRoutes {
                label: 'A',
                routes: paths
                    .iter()
                    .enumerate()
                    .map(|(rank, p)| arp_demo::query::RouteInfo {
                        minutes: ms_to_display_minutes(p.cost_under(weights)),
                        cost_ms: p.cost_under(weights),
                        polyline: p.nodes.iter().map(|&n| net.point(n)).collect(),
                        color: arp_demo::query::ROUTE_COLORS
                            [rank % arp_demo::query::ROUTE_COLORS.len()],
                        edges: p.edges.clone(),
                    })
                    .collect(),
                basis: None,
            })],
        };
        std::fs::write(out, response_to_geojson(&resp)).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
        println!("geojson written to {out}");
    }
    ExitCode::SUCCESS
}

fn cmd_study(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(city_arg) = positional.first() else {
        usage()
    };
    let (name, net) = load_network(city_arg, flags);
    let seed = parse_seed(flags);
    println!(
        "running a user study on {name} ({} nodes)…",
        net.num_nodes()
    );
    let providers = standard_providers(&net, seed);
    let config = StudyConfig {
        seed,
        query: AltQuery::paper(),
        resident_bins: [12, 24, 10],
        nonresident_bins: [8, 8, 8],
    };
    let outcome = run_study(
        &net,
        &providers,
        &config,
        &Calibration::from_paper_targets(),
    );
    println!("{}", render(&table1(&outcome)));
    println!("{}", render_anova(&anova_report(&outcome)));
    ExitCode::SUCCESS
}

fn cmd_serve(positional: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(city_arg) = positional.first() else {
        usage()
    };
    let (name, net) = load_network(city_arg, flags);
    let port: u16 = flags
        .get("port")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(8765);
    let flag_usize = |key: &str, default: usize| -> usize {
        flags
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(default)
    };
    let defaults = arp_serve::ServeConfig::default();
    // `--faults 'lane.penalty=flaky:0.2,cache.get=error:down'` arms
    // failpoints for chaos drills; absent, injection costs one branch.
    let faults = flags
        .get("faults")
        .map(|spec| {
            arp_serve::FaultPlan::parse(spec).unwrap_or_else(|e| {
                eprintln!("bad --faults spec: {e}");
                usage()
            })
        })
        .unwrap_or_default();
    // Request tracing: `--trace-sample 0.1` head-keeps 10% of requests
    // (slow/degraded/failed ones are always kept by the tail rules),
    // `--trace-buffer` sizes the debug ring, `--slow-ms` sets the
    // slow-request log threshold (0 turns the log line off). A sample
    // rate of exactly 0 with slow-ms 0 still traces — tail rules keep
    // every non-ok request for `/api/trace/<id>`.
    let trace = arp_obs::TraceConfig {
        sample: flags
            .get("trace-sample")
            .map(|v| match v.parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => r,
                _ => {
                    eprintln!("--trace-sample must be a rate in [0, 1], got {v:?}");
                    usage()
                }
            })
            .unwrap_or(defaults.trace.sample),
        buffer: flag_usize("trace-buffer", defaults.trace.buffer),
        slow_ms: flags
            .get("slow-ms")
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(defaults.trace.slow_ms),
    };
    let config = arp_serve::ServeConfig {
        workers: flag_usize("workers", defaults.workers),
        // `--cache 0` disables the route cache.
        cache_capacity: flag_usize("cache", defaults.cache_capacity),
        faults,
        trace,
        ..defaults
    };
    println!(
        "serving config: {} workers, cache {} entries, tracing {:.0}% sample / {} ring / slow at {} ms{}",
        config.workers,
        config.cache_capacity,
        config.trace.sample * 100.0,
        config.trace.buffer,
        config.trace.slow_ms,
        if config.faults.is_enabled() {
            ", fault injection ARMED"
        } else {
            ""
        }
    );
    // `--ch off` disables the CH index tier; on (the default), the
    // topology is contracted and the current epoch customized before the
    // listener binds. A later epoch is customized only when `/api/health`
    // reads the tier's readiness, on that request's thread; nothing runs
    // per delta. Responses are byte-identical either way — no request
    // reads the tier.
    let ch_enabled = match flags.get("ch").map(String::as_str) {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            eprintln!("--ch must be `on` or `off`, got {other:?}");
            usage();
        }
    };
    let mut processor = QueryProcessor::new(name.clone(), net, parse_seed(flags));
    // `--state-dir DIR` makes the traffic state durable: recover from the
    // directory's newest intact journal generation, then journal every
    // accepted delta before its epoch publishes. Runs **before** the CH
    // index tier, which reads the traffic state it was built beside, so
    // the hierarchy customizes from the recovered epoch, not epoch 0.
    if let Some(dir) = flags.get("state-dir") {
        let mut durability = arp_traffic::DurabilityConfig::new(dir);
        if let Some(spec) = flags.get("fsync") {
            durability.fsync = arp_traffic::FsyncPolicy::parse(spec).unwrap_or_else(|e| {
                eprintln!("bad --fsync spec: {e}");
                usage()
            });
        }
        durability.snapshot_every =
            flag_usize("snapshot-every", durability.snapshot_every as usize) as u64;
        processor = processor
            .with_traffic_durability(durability)
            .unwrap_or_else(|e| {
                eprintln!("cannot recover traffic state from {dir}: {e}");
                std::process::exit(1);
            });
        let report = processor
            .recovery_report()
            .expect("durability just enabled");
        println!(
            "traffic state recovered from {dir}: {} (epoch {}, {} records replayed, {} torn tails, {} quarantined) in {} ms",
            report.status.as_str(),
            report.epoch,
            report.replayed_records,
            report.torn_tails,
            report.quarantined.len(),
            report.duration_ms
        );
        for file in &report.quarantined {
            eprintln!("  quarantined: {file} (triage per docs/OPERATIONS.md)");
        }
    }
    if ch_enabled {
        processor = processor.with_ch_index();
        let index = processor.ch_index().expect("just enabled");
        println!(
            "CH index tier on: {} hierarchy arcs, metric ready at epoch {}",
            index.topology().num_arcs(),
            index.ready_epoch()
        );
    }
    let app = std::sync::Arc::new(DemoApp::with_config(processor, config));
    // `--traffic-tick-ms 2000` turns the deterministic feed on: a ticker
    // thread advances the rush-hour schedule (24 ticks/day, morphology
    // from the city name) every interval, bumping the graph epoch.
    // `--traffic-seed` varies the schedule; 0 ms (the default) leaves the
    // feed off and the server at epoch 0 — byte-identical to pre-traffic
    // serving. Operators can always push explicit deltas through
    // `POST /api/traffic`, ticker or not.
    let tick_ms = flag_usize("traffic-tick-ms", 0);
    if tick_ms > 0 {
        let feed_seed = flags
            .get("traffic-seed")
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or_else(|| parse_seed(flags));
        let profile = arp_traffic::CityProfile::for_city_name(&name);
        let feed = arp_traffic::TrafficFeed::new(feed_seed, profile);
        let app = std::sync::Arc::clone(&app);
        println!("traffic feed on: {profile:?} profile, seed {feed_seed}, tick every {tick_ms} ms");
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_millis(tick_ms as u64));
            match app.processor.traffic().advance_tick(&feed) {
                Ok(outcome) => println!(
                    "traffic tick → epoch {}, {} ops applied, {} expired, {} closures",
                    outcome.epoch, outcome.applied, outcome.expired, outcome.closures_active
                ),
                Err(e) => eprintln!("traffic tick failed: {e}"),
            }
        });
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
        eprintln!("cannot bind port {port}: {e}");
        std::process::exit(1);
    });
    println!("{name} demo at http://127.0.0.1:{port}/");
    serve(app, listener, ShutdownHandle::new());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let (positional, flags) = parse_args(cmd, rest).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    match cmd.as_str() {
        "generate" => cmd_generate(&positional, &flags),
        "export-osm" => cmd_export_osm(&positional, &flags),
        "route" => cmd_route(&positional, &flags),
        "study" => cmd_study(&positional, &flags),
        "serve" => cmd_serve(&positional, &flags),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn known_flags_and_positionals_parse() {
        let (positional, flags) = parse_args(
            "serve",
            &argv(&["melbourne", "--port", "9000", "--traffic-tick-ms", "250"]),
        )
        .unwrap();
        assert_eq!(positional, vec!["melbourne"]);
        assert_eq!(flags.get("port").map(String::as_str), Some("9000"));
        assert_eq!(
            flags.get("traffic-tick-ms").map(String::as_str),
            Some("250")
        );
    }

    /// The first historical bug: an unknown flag was silently ignored, so
    /// a typo like `--trafic-tick-ms` left the feed off without a word.
    #[test]
    fn unknown_flag_is_rejected_not_ignored() {
        let err = parse_args("serve", &argv(&["melbourne", "--trafic-tick-ms", "250"]))
            .expect_err("typo'd flag must not be swallowed");
        assert!(err.contains("--trafic-tick-ms"), "{err}");
        assert!(
            err.contains("--traffic-tick-ms"),
            "the hint lists accepted flags: {err}"
        );
        // Admission bounds the lane queue; there is no queue flag.
        assert!(parse_args("serve", &argv(&["melbourne", "--queue", "8"])).is_err());
    }

    /// The second historical bug: `--key` missing its value swallowed the
    /// next `--flag` as the value (`--traffic-tick-ms --workers 4` parsed
    /// as tick "--workers" plus a stray positional "4").
    #[test]
    fn flag_missing_its_value_does_not_swallow_the_next_flag() {
        let err = parse_args(
            "serve",
            &argv(&["melbourne", "--traffic-tick-ms", "--workers", "4"]),
        )
        .expect_err("a flag is not a value");
        assert!(err.contains("missing value for --traffic-tick-ms"), "{err}");

        let err = parse_args("serve", &argv(&["melbourne", "--port"]))
            .expect_err("trailing flag has no value");
        assert!(err.contains("missing value for --port"), "{err}");
    }

    /// The durability flags parse on `serve` and only on `serve`.
    #[test]
    fn durability_flags_are_serve_only() {
        let (_, flags) = parse_args(
            "serve",
            &argv(&[
                "dhaka",
                "--state-dir",
                "/var/lib/arp",
                "--fsync",
                "interval:16",
                "--snapshot-every",
                "64",
            ]),
        )
        .unwrap();
        assert_eq!(
            flags.get("state-dir").map(String::as_str),
            Some("/var/lib/arp")
        );
        assert_eq!(flags.get("fsync").map(String::as_str), Some("interval:16"));
        assert_eq!(flags.get("snapshot-every").map(String::as_str), Some("64"));
        assert!(parse_args("route", &argv(&["dhaka", "--state-dir", "/x"])).is_err());
        assert!(parse_args("study", &argv(&["dhaka", "--fsync", "never"])).is_err());
    }

    /// The tracing flags parse on `serve` and only on `serve`.
    #[test]
    fn tracing_flags_are_serve_only() {
        let (_, flags) = parse_args(
            "serve",
            &argv(&[
                "copenhagen",
                "--trace-sample",
                "0.1",
                "--trace-buffer",
                "512",
                "--slow-ms",
                "250",
            ]),
        )
        .unwrap();
        assert_eq!(flags.get("trace-sample").map(String::as_str), Some("0.1"));
        assert_eq!(flags.get("trace-buffer").map(String::as_str), Some("512"));
        assert_eq!(flags.get("slow-ms").map(String::as_str), Some("250"));
        assert!(parse_args("route", &argv(&["dhaka", "--trace-sample", "1"])).is_err());
        assert!(parse_args("study", &argv(&["dhaka", "--slow-ms", "10"])).is_err());
    }

    /// Allowlists are per-subcommand: a serve-only flag is an error on
    /// `route`, and negative-looking values (single dash) stay values.
    #[test]
    fn allowlists_are_per_subcommand() {
        assert!(parse_args("route", &argv(&["melbourne", "--workers", "4"])).is_err());
        assert!(parse_args("study", &argv(&["dhaka", "--seed", "7"])).is_ok());
        assert!(parse_args("nonsense", &argv(&[])).is_err());
        let (_, flags) = parse_args(
            "route",
            &argv(&["melbourne", "--from", "-37.8,144.9", "--to", "-37.7,145.0"]),
        )
        .unwrap();
        assert_eq!(flags.get("from").map(String::as_str), Some("-37.8,144.9"));
    }
}
