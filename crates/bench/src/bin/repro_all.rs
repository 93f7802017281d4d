//! Runs the complete reproduction suite in one command: every table,
//! figure and extension experiment, writing all artifacts under
//! `reports/`. Each binary runs as its own child process, so the three
//! tables and the ANOVA each fit the calibrated study
//! (`arp_bench::calibrated_study`) again.
//!
//! ```sh
//! cargo run --release -p arp-bench --bin repro_all
//! ```

use std::process::Command;

fn main() {
    // Every binary runs as a child from this binary's own target
    // directory. `calibrated_study()` is memoized per process only, so
    // the four binaries that read it each fit it again.
    let binaries = [
        "repro_table1",
        "repro_table2",
        "repro_table3",
        "repro_anova",
        "repro_fig1",
        "repro_fig2",
        "repro_fig4",
        "repro_calibration",
        "repro_ablation",
        "repro_others",
        "repro_timeofday",
        "repro_power",
        "repro_admissibility",
        "repro_penalty_factor",
        "repro_perf",
    ];

    let self_path = std::env::current_exe().expect("current exe path");
    let bin_dir = self_path.parent().expect("target dir");

    let mut failures = Vec::new();
    for name in binaries {
        let path = bin_dir.join(name);
        println!("==> {name}");
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(name);
            }
            Err(e) => {
                eprintln!("{name} failed to start: {e} (build all bins first: cargo build --release -p arp-bench)");
                failures.push(name);
            }
        }
    }

    if failures.is_empty() {
        println!(
            "\nall {} experiments completed; artifacts in reports/",
            binaries.len()
        );
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
