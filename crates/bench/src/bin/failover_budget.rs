//! Regenerates E10: leader-kill failover attribution — the sweep table
//! (per-phase budget + throughput dip per scenario), the unavailability
//! p50/p99 summary, and optionally the canonical clean run's timeline
//! CSV and annotated Perfetto trace. See EXPERIMENTS.md §E10.
//!
//! Flags: `--quick` runs the three-scenario CI smoke; `--seed N`
//! overrides the canonical scenario's seed; `--csv PATH` /
//! `--trace PATH` write the clean run's timeline CSV and Perfetto
//! counter-track trace.

use netsim::timeseries::chrome_trace_json_with;
use p4ce_harness::experiments::e10_failover;
use p4ce_harness::print_markdown;

fn main() {
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut csv: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed takes a u64"),
                )
            }
            "--csv" => csv = Some(argv.next().expect("--csv takes a path")),
            "--trace" => trace = Some(argv.next().expect("--trace takes a path")),
            other => {
                eprintln!(
                    "unknown argument: {other} \
                     (supported: --quick, --seed N, --csv PATH, --trace PATH)"
                );
                std::process::exit(2);
            }
        }
    }

    let mut scenarios = e10_failover::configs(quick);
    if let Some(seed) = seed {
        for s in &mut scenarios {
            s.cfg.seed = seed;
        }
    }

    let mut rows = Vec::with_capacity(scenarios.len());
    let mut canonical = None;
    for s in &scenarios {
        let out = s.run();
        rows.push(e10_failover::row(s, &out));
        if canonical.is_none() && s.groups == 1 && s.cfg.chaos.is_none() {
            canonical = Some(out);
        }
    }
    print_markdown("E10 — failover attribution (leader kill)", &rows);
    println!(
        "unavailability_ms p50={} p99={}",
        e10_failover::unavailability_percentile(&rows, 50.0),
        e10_failover::unavailability_percentile(&rows, 99.0),
    );

    let canonical = canonical.expect("sweep contains a clean scenario");
    println!("canonical budget ({}):", canonical.budget.unavailability());
    for p in &canonical.budget.phases {
        println!("  {:<24} {}", p.name, p.duration());
    }
    if let Some(path) = csv {
        std::fs::write(&path, canonical.timeline.to_csv()).expect("write timeline csv");
        println!("timeline csv: {path}");
    }
    if let Some(path) = trace {
        let json = chrome_trace_json_with(&canonical.records, &canonical.timeline);
        std::fs::write(&path, json).expect("write perfetto trace");
        println!("perfetto trace: {path}");
    }
}
