//! The consensus benchmark: one workload per process, on one thread.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats untraced passes on the builders' own deployments
//! for `--seconds` and reports the end-to-end metrics, wall times rescaled
//! by the reference kernel (see `reference`). `--trace 1` runs
//! one untraced pass and two passes on the benchmark's wrapped copy of
//! the deployment, proves they match, and reports the per-layer metrics.
//! The last line of standard output is the JSON result. See README.md
//! for the workloads and every metric.

mod alloc;
mod check;
mod cluster;
mod ledger;
mod reference;
mod workload;
mod wrap;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cluster::{Cluster, HostNode, Spec, SwitchNode};
use ledger::Layer;
use workload::{Pass, System, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Untraced passes per run, at least.
const MIN_PASSES: usize = 3;
/// Set-ups timed after each untraced pass.
const SETUPS_PER_PASS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// The run's result, printed as the last line.
struct Report {
    correct: bool,
    attempted: u64,
    refused: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            refused: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            self.fail(format!("{name} is not a number"));
            0.0
        };
        self.metrics.push(Metric { name, unit, value });
    }

    fn fail(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    /// Charges the passes' requests and records any failed check.
    fn check_passes(&mut self, passes: &[Pass]) {
        for p in passes {
            self.attempted += p.attempted;
            self.refused += p.refused;
            if let Err(e) = &p.gate {
                self.fail(format!("correctness gate: {e}"));
            }
        }
        if passes.iter().any(|p| p.sim != passes[0].sim) {
            self.fail("simulated results differ between passes".into());
        }
    }

    fn print(&self) {
        for p in &self.problems {
            println!("FAILED: {p}");
        }
        for m in &self.metrics {
            println!("{:<44} {:>16} {}", m.name, m.value, m.unit);
        }
        let mut json = String::new();
        // A run that fails a check fails every request; otherwise only
        // the refused ones failed.
        let failed = if self.correct {
            self.refused
        } else {
            self.attempted
        };
        write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            failed
        )
        .expect("writing to a String");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ns_per_decide(p: &Pass) -> f64 {
    p.wall.as_nanos() as f64 / p.sim.decided as f64
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// The untraced run: passes until `seconds` have gone by, each followed
/// by timed set-ups.
fn end_to_end<H: HostNode, S: SwitchNode>(
    args: &Args,
    build: fn(&Spec) -> Cluster<H, S>,
    report: &mut Report,
) {
    let wl = args.workload;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = Vec::new();
    let (mut host_ns, mut wall_ns, mut setups, mut wall_setups, mut speeds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = None;
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let pass = workload::run_pass(wl, args.seed, build, false);
        // Later passes reuse the heap the first one freed, and how far
        // that heap grows depends on how many passes fit into `seconds`.
        peak_rss.get_or_insert_with(peak_rss_mib);
        // The kernel runs between the pass and its set-ups, so both are
        // rescaled by the machine's speed at that moment.
        let speed = reference::speed();
        speeds.push(speed);
        wall_ns.push(ns_per_decide(&pass));
        host_ns.push(ns_per_decide(&pass) * speed);
        passes.push(pass);
        for _ in 0..SETUPS_PER_PASS {
            let wall = workload::set_up(wl, args.seed, build).2.as_secs_f64();
            wall_setups.push(wall);
            setups.push(wall * speed);
        }
    }
    report.check_passes(&passes);
    let sim = &passes[0].sim;
    println!(
        "{}: {} passes, {} decided per pass over {} ms simulated",
        wl.name,
        passes.len(),
        sim.decided,
        sim.span_ns as f64 / 1e6
    );
    println!(
        "latency percentiles over {} decided values (p50 {} ns, p99 {} ns)",
        sim.samples, sim.p50_ns, sim.p99_ns
    );
    println!(
        "client: {} requests per pass, {} refused",
        passes[0].attempted, passes[0].refused
    );
    println!(
        "unscaled wall time: {:.1} ns/decide, set-up {:.6} s; reference kernel {:.2} ms \
         (medians; nominal {} ms)",
        median(wall_ns),
        median(wall_setups),
        reference::NOMINAL.as_secs_f64() * 1e3 / median(speeds),
        reference::NOMINAL.as_millis()
    );
    report.metric("host_ns_per_decide", "ns", median(host_ns));
    report.metric("setup_s", "s", median(setups));
    report.metric(
        "peak_rss_mib",
        "MiB",
        peak_rss.expect("at least one pass ran"),
    );
    report.metric(
        "sim_ops_per_s",
        "ops/sim_s",
        sim.decided as f64 / (sim.span_ns as f64 / 1e9),
    );
    report.metric("sim_p50_latency_us", "sim_us", sim.p50_ns as f64 / 1e3);
    report.metric("sim_p99_latency_us", "sim_us", sim.p99_ns as f64 / 1e3);
    if let Some(phases) = sim.phases_ns {
        report.metric(
            "sim_unavailability_ms",
            "sim_ms",
            phases.iter().sum::<u64>() as f64 / 1e6,
        );
    }
}

/// The traced run: an untraced pass on the builder's deployment, then
/// two passes on the wrapped one, which must match it bit for bit.
fn per_layer<HP, SP, HT, ST>(
    args: &Args,
    plain: fn(&Spec) -> Cluster<HP, SP>,
    traced: fn(&Spec) -> Cluster<HT, ST>,
    report: &mut Report,
) where
    HP: HostNode,
    SP: SwitchNode,
    HT: HostNode,
    ST: SwitchNode,
{
    let wl = args.workload;
    let timer_ns = ledger::calibrate();
    let base = workload::run_pass(wl, args.seed, plain, false);
    let first = workload::run_pass(wl, args.seed, traced, true);
    let second = workload::run_pass(wl, args.seed, traced, true);
    for (name, t) in [("first", &first), ("second", &second)] {
        if t.proof != base.proof {
            report.fail(format!(
                "observer proof: {name} traced pass {:?} differs from the builder's {:?}",
                t.proof, base.proof
            ));
        }
    }
    if first.heap != second.heap {
        report.fail("heap counts differ between the two traced passes".into());
    }
    if first.counts != second.counts {
        report.fail("work counts differ between the two traced passes".into());
    }
    let (w1, w2) = (
        first.window.expect("traced"),
        second.window.expect("traced"),
    );
    if (w1.frame_events, w1.timer_events) != (w2.frame_events, w2.timer_events) {
        report.fail("event counts differ between the two traced passes".into());
    }
    let passes = [base, first, second];
    report.check_passes(&passes);
    let [base, _, t] = passes;

    let w = t.window.expect("traced");
    let heap = t.heap.expect("traced");
    let self_ns = w.self_ns(timer_ns);
    let timer_total = w.timer_total_ns(timer_ns);
    assert_eq!(
        self_ns.iter().sum::<i64>() + timer_total as i64,
        w.total_ns as i64,
        "calibrated self times plus timer cost must equal the traced total"
    );
    let d = t.sim.decided as f64;
    let k = &t.counts;
    let per = |x: f64| x / d;
    let share = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let layer_ns = |l: Layer| per(self_ns[l.index()] as f64);
    let member_crate = match wl.system {
        System::P4ce => "core",
        System::Mu => "mu",
    };
    let untraced_ns = ns_per_decide(&base);
    let traced_ns = per(w.total_ns as f64);
    println!(
        "{}: traced total {:.1} ns/decide = layer self times {:.1} + timer {:.1} \
         ({} intervals at {} ns); untraced {:.1} ns/decide",
        wl.name,
        traced_ns,
        per(self_ns.iter().sum::<i64>() as f64),
        per(timer_total as f64),
        w.intervals.iter().sum::<u64>(),
        timer_ns,
        untraced_ns
    );

    report.metric("netsim.self_ns_per_decide", "ns", layer_ns(Layer::Engine));
    report.metric(
        "netsim.events_per_decide",
        "events/decide",
        per(k.events as f64),
    );
    report.metric(
        "netsim.frame_events_per_decide",
        "events/decide",
        per(w.frame_events as f64),
    );
    report.metric(
        "netsim.timer_events_per_decide",
        "events/decide",
        per(w.timer_events as f64),
    );
    report.metric(
        "netsim.wire_bytes_per_decide",
        "B/decide",
        per(k.wire_bytes as f64),
    );
    report.metric(
        "rdma.leader.self_ns_per_decide",
        "ns",
        layer_ns(Layer::RdmaLeader),
    );
    report.metric(
        "rdma.replica.self_ns_per_decide",
        "ns",
        layer_ns(Layer::RdmaReplica),
    );
    report.metric(
        "rdma.tx_packets_per_decide",
        "pkts/decide",
        per(k.tx_packets as f64),
    );
    report.metric(
        "rdma.rx_packets_per_decide",
        "pkts/decide",
        per(k.rx_packets as f64),
    );
    report.metric("rdma.acks_per_decide", "pkts/decide", per(k.acks as f64));
    report.metric(
        "rdma.retransmits_per_decide",
        "pkts/decide",
        per(k.retransmits as f64),
    );
    report.metric(
        "rdma.ack_templated_share",
        "ratio",
        share(k.acks_templated, k.acks_serialized),
    );
    report.metric(
        "rdma.rx_zero_copy_share",
        "ratio",
        share(k.rx_zero_copy, k.rx_copied),
    );
    report.metric(
        "rdma.leader.cpu_busy_share",
        "ratio",
        k.leader_busy_ns as f64 / t.sim.span_ns as f64,
    );
    report.metric("tofino.self_ns_per_decide", "ns", layer_ns(Layer::Tofino));
    report.metric(
        "tofino.emitted_patched_share",
        "ratio",
        share(k.emitted_patched, k.emitted_reserialized),
    );
    report.metric(
        "tofino.multicast_copies_per_decide",
        "pkts/decide",
        per(k.multicast_copies as f64),
    );
    report.metric(
        "p4ce_switch.self_ns_per_decide",
        "ns",
        layer_ns(Layer::P4ceSwitch),
    );
    report.metric(
        "p4ce_switch.scattered_per_decide",
        "pkts/decide",
        per(k.scattered as f64),
    );
    report.metric(
        "p4ce_switch.acks_absorbed_per_decide",
        "pkts/decide",
        per(k.acks_absorbed as f64),
    );
    for krate in ["core", "mu"] {
        let (leader, replica) = if krate == member_crate {
            (
                layer_ns(Layer::MemberLeader),
                layer_ns(Layer::MemberReplica),
            )
        } else {
            (0.0, 0.0)
        };
        report.metric(format!("{krate}.leader.self_ns_per_decide"), "ns", leader);
        report.metric(format!("{krate}.replica.self_ns_per_decide"), "ns", replica);
    }
    report.metric("client.self_ns_per_decide", "ns", layer_ns(Layer::Client));
    for (r, role) in alloc::ROLES.iter().enumerate() {
        report.metric(
            format!("heap.{role}.allocs_per_decide"),
            "allocs/decide",
            per(heap.allocs[r] as f64),
        );
        report.metric(
            format!("heap.{role}.alloc_bytes_per_decide"),
            "B/decide",
            per(heap.alloc_bytes[r] as f64),
        );
        report.metric(
            format!("heap.{role}.live_growth_bytes_per_decide"),
            "B/decide",
            per(heap.live_growth[r] as f64),
        );
    }
    if let Some(phases) = t.sim.phases_ns {
        for (name, ns) in ["detection", "election", "fence", "reaccel", "first_decide"]
            .iter()
            .zip(phases)
        {
            report.metric(format!("failover.{name}_ms"), "sim_ms", ns as f64 / 1e6);
        }
    }
    report.metric("trace.timer_ns", "ns", timer_ns as f64);
    report.metric(
        "trace.overhead_pct",
        "%",
        100.0 * (traced_ns - untraced_ns) / untraced_ns,
    );
    report.metric(
        "trace.calibrated_gap_pct",
        "%",
        100.0 * (traced_ns - per(timer_total as f64) - untraced_ns) / untraced_ns,
    );
}

fn main() {
    alloc::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    match (args.workload.system, args.trace) {
        (System::P4ce, false) => end_to_end(&args, cluster::plain_p4ce, &mut report),
        (System::Mu, false) => end_to_end(&args, cluster::plain_mu, &mut report),
        (System::P4ce, true) => per_layer(
            &args,
            cluster::plain_p4ce,
            cluster::traced_p4ce,
            &mut report,
        ),
        (System::Mu, true) => per_layer(&args, cluster::plain_mu, cluster::traced_mu, &mut report),
    }
    report.print();
}
