//! Link-level chaos: seeded random fault schedules run against whole
//! clusters, judged by the explorer's oracle suite at the heal and at
//! the end, with liveness demanded after the heal.
//!
//! The runner builds a cluster, lets it reach steady state, installs a
//! [`FaultPlan`] on **both directions** of every member↔switch primary
//! link (loss, duplication, reordering, jitter, corruption — plus one
//! time-bounded partition isolating a single member), keeps proposing
//! values to whichever member claims operational leadership, heals the
//! links, drains, and reports:
//!
//! * **safety** — the same probes and oracles the explorer audits after
//!   every step ([`crate::explore::oracle`]: single writer, unique
//!   leader, agreement, prefix consistency, exactly-once) run once at
//!   the heal and once at the end; the first firing lands in
//!   [`ChaosReport::violation`], a value, never a panic,
//! * **liveness** — callers assert `decided_final > decided_at_heal`,
//! * **determinism** — the run is a pure function of the [`ChaosSpec`]:
//!   rerunning the same spec reproduces the [`ChaosReport`] exactly.

use bytes::Bytes;
use netsim::{FaultPlan, FaultStats, NodeId, PortId, SimDuration, SimTime, Simulation, Tracer};
use rdma::Host;
use replication::{LogEntry, StateMachine};

use crate::explore::oracle::{audit, Violation};
use crate::explore::{deployment_probes, record_applied};
use crate::repro::Repro;
use crate::runner::System;
use crate::{splitmix, unit};

/// Everything a chaos run perturbs, derived deterministically from one
/// seed by [`ChaosSpec::seeded`]. All instants are offsets from the
/// storm start (the moment fault plans are installed), so the same spec
/// can be replayed regardless of how long cluster setup took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Simulation seed; also seeds the per-link schedule derivation.
    pub seed: u64,
    /// Per-frame loss probability on every faulted link.
    pub loss: f64,
    /// Per-frame duplication probability (before per-link scaling).
    pub duplicate: f64,
    /// Per-frame reordering probability (before per-link scaling).
    pub reorder: f64,
    /// How far a reordered frame may be held back.
    pub reorder_window: SimDuration,
    /// Uniform extra delay bound added to every frame.
    pub jitter: SimDuration,
    /// Per-frame payload-corruption probability (before scaling).
    pub corrupt: f64,
    /// The member whose switch links suffer the transient partition
    /// (never member 0, so the steady-state leader stays reachable).
    pub partition_member: usize,
    /// Partition start, as an offset from storm start.
    pub partition_from: SimDuration,
    /// Partition end, as an offset from storm start.
    pub partition_until: SimDuration,
    /// How long the fault plans stay installed.
    pub storm: SimDuration,
    /// Post-heal window during which the cluster must decide again.
    pub drain: SimDuration,
    /// Gap between chaos-client proposal attempts.
    pub propose_every: SimDuration,
}

impl ChaosSpec {
    /// Draws a random-but-reproducible schedule for an `n_members`
    /// cluster: at least 1% loss, a mix of the other fault types, and
    /// one partition isolating a random non-leader member mid-storm.
    ///
    /// # Panics
    ///
    /// Panics if `n_members < 2`.
    pub fn seeded(seed: u64, n_members: usize) -> ChaosSpec {
        assert!(n_members >= 2, "a cluster needs at least two members");
        let mut s = seed;
        let loss = 0.01 + 0.03 * unit(&mut s);
        let duplicate = 0.01 * unit(&mut s);
        let reorder = 0.15 * unit(&mut s);
        let reorder_window = SimDuration::from_nanos(500 + splitmix(&mut s) % 2500);
        let jitter = SimDuration::from_nanos(splitmix(&mut s) % 300);
        let corrupt = 0.002 * unit(&mut s);
        let partition_member = 1 + (splitmix(&mut s) as usize) % (n_members - 1);
        let from_us = 1_500 + splitmix(&mut s) % 1_000;
        let len_us = 1_500 + splitmix(&mut s) % 1_000;
        ChaosSpec {
            seed,
            loss,
            duplicate,
            reorder,
            reorder_window,
            jitter,
            corrupt,
            partition_member,
            partition_from: SimDuration::from_micros(from_us),
            partition_until: SimDuration::from_micros(from_us + len_us),
            storm: SimDuration::from_millis(8),
            drain: SimDuration::from_millis(5),
            propose_every: SimDuration::from_micros(20),
        }
    }

    /// Serializes the spec (plus the deployment shape) as a `kind=chaos`
    /// reproducer, the chaos counterpart of
    /// [`crate::explore::ExploreSpec::to_repro`].
    pub fn to_repro(&self, system: System, n_members: usize) -> Repro {
        let mut r = Repro::new("chaos");
        r.set("system", system.name());
        r.set("members", n_members);
        r.set("seed", self.seed);
        r.set("loss", self.loss);
        r.set("duplicate", self.duplicate);
        r.set("reorder", self.reorder);
        r.set("reorder_window_ns", self.reorder_window.as_nanos());
        r.set("jitter_ns", self.jitter.as_nanos());
        r.set("corrupt", self.corrupt);
        r.set("partition_member", self.partition_member);
        r.set("partition_from_ns", self.partition_from.as_nanos());
        r.set("partition_until_ns", self.partition_until.as_nanos());
        r.set("storm_ns", self.storm.as_nanos());
        r.set("drain_ns", self.drain.as_nanos());
        r.set("propose_every_ns", self.propose_every.as_nanos());
        r
    }

    /// Decodes a `kind=chaos` reproducer back into a runnable
    /// `(system, n_members, spec)` triple.
    ///
    /// # Errors
    ///
    /// Reports a wrong kind, a missing/unparseable field, or a member
    /// count the system cannot build.
    pub fn from_repro(r: &Repro) -> Result<(System, usize, ChaosSpec), String> {
        if r.kind != "chaos" {
            return Err(format!("not a chaos reproducer: kind={}", r.kind));
        }
        // Reproducers from before Mu runs had no `system` key.
        let system: System = r.get("system").unwrap_or("p4ce").parse()?;
        let n_members = r.parse("members")?;
        system.check_members(n_members)?;
        let ns = |key: &str| -> Result<SimDuration, String> {
            Ok(SimDuration::from_nanos(r.parse::<u64>(key)?))
        };
        let spec = ChaosSpec {
            seed: r.parse("seed")?,
            loss: r.parse("loss")?,
            duplicate: r.parse("duplicate")?,
            reorder: r.parse("reorder")?,
            reorder_window: ns("reorder_window_ns")?,
            jitter: ns("jitter_ns")?,
            corrupt: r.parse("corrupt")?,
            partition_member: r.parse("partition_member")?,
            partition_from: ns("partition_from_ns")?,
            partition_until: ns("partition_until_ns")?,
            storm: ns("storm_ns")?,
            drain: ns("drain_ns")?,
            propose_every: ns("propose_every_ns")?,
        };
        Ok((system, n_members, spec))
    }
}

/// What a chaos run observed. Two runs of the same [`ChaosSpec`] must
/// produce equal reports — that equality *is* the determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Proposal attempts the chaos client made.
    pub proposals_attempted: u64,
    /// Attempts the contacted leader accepted.
    pub proposals_accepted: u64,
    /// Highest decided count across members at the heal instant.
    pub decided_at_heal: u64,
    /// Highest decided count across members at run end.
    pub decided_final: u64,
    /// Shortest applied-log length across the steady-state replicas
    /// (members `1..n`) at run end — the leader applies nothing through
    /// the remote-write path, so it is excluded.
    pub applied_min: usize,
    /// FNV-1a digest over every member's applied (seq, payload) log.
    pub log_hash: u64,
    /// Total simulator events processed (replay fingerprint).
    pub events_processed: u64,
    /// Frames the loss plans removed from the wire.
    pub frames_dropped: u64,
    /// Frames delivered twice.
    pub frames_duplicated: u64,
    /// Frames delivered with a flipped bit.
    pub frames_corrupted: u64,
    /// Frames dropped inside the partition window.
    pub partition_dropped: u64,
    /// Packets retransmitted by the hosts' retransmission timers
    /// (`QueuePair::check_timeout` firing).
    pub timeout_retransmits: u64,
    /// Packets retransmitted in response to peer NAKs
    /// (`QueuePair::handle_nak` firing).
    pub nak_retransmits: u64,
    /// Frames the hosts discarded as unparseable (corruption landing).
    pub parse_drops: u64,
    /// Deduplicated `(view, member)` pairs that claimed leadership
    /// (`BecameLeader`, plus `LeaderOperational` on Mu's members), in
    /// member order — the claims the unique-leader oracle audits.
    pub leader_views: Vec<(u64, u8)>,
    /// The first oracle violation, from the audit at the heal (step 0)
    /// or, if that one passed, at the end (step 1).
    pub violation: Option<Violation>,
}

/// Records every applied entry, for the oracle probes
/// ([`crate::explore::oracle::MemberProbe`]) to audit.
#[derive(Default)]
pub struct ChaosRecorder {
    /// Applied sequence numbers, in application order.
    pub seqs: Vec<u64>,
    /// Applied payloads, in application order.
    pub payloads: Vec<Vec<u8>>,
}

impl StateMachine for ChaosRecorder {
    fn apply(&mut self, entry: &LogEntry) {
        self.seqs.push(entry.seq);
        self.payloads.push(entry.payload.to_vec());
    }
}

/// The per-direction plan for one member's switch link. Loss stays at
/// the spec's floor on every link; the other probabilities get a
/// per-direction scale so no two links misbehave identically.
fn link_plan(spec: &ChaosSpec, member: usize, reverse: bool, storm_start: SimTime) -> FaultPlan {
    let mut s = spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (((member as u64) << 1) | u64::from(reverse));
    let scale = 0.5 + unit(&mut s);
    let mut plan = FaultPlan::new()
        .loss(spec.loss)
        .duplicate(spec.duplicate * scale)
        .reorder(spec.reorder * scale, spec.reorder_window)
        .jitter(spec.jitter)
        .corrupt(spec.corrupt * scale);
    if member == spec.partition_member {
        plan = plan.partition(
            storm_start + spec.partition_from,
            storm_start + spec.partition_until,
        );
    }
    plan
}

pub(crate) fn install_storm(
    sim: &mut Simulation,
    members: &[NodeId],
    spec: &ChaosSpec,
    storm_start: SimTime,
) {
    let primary = PortId::from_index(0);
    for (i, &m) in members.iter().enumerate() {
        sim.set_fault_plan(m, primary, link_plan(spec, i, false, storm_start));
        let (sw, swp) = sim.peer_of(m, primary);
        sim.set_fault_plan(sw, swp, link_plan(spec, i, true, storm_start));
    }
}

pub(crate) fn clear_storm(sim: &mut Simulation, members: &[NodeId]) {
    let primary = PortId::from_index(0);
    for &m in members {
        sim.clear_fault_plan(m, primary);
        let (sw, swp) = sim.peer_of(m, primary);
        sim.clear_fault_plan(sw, swp);
    }
}

/// Sums injected-fault counters over both directions of every member
/// link (counters survive `clear_fault_plan`).
fn fault_totals(sim: &Simulation, members: &[NodeId]) -> FaultStats {
    let primary = PortId::from_index(0);
    let mut total = FaultStats::default();
    for &m in members {
        let (sw, swp) = sim.peer_of(m, primary);
        for s in [sim.fault_stats(m, primary), sim.fault_stats(sw, swp)] {
            total.dropped += s.dropped;
            total.partition_dropped += s.partition_dropped;
            total.duplicated += s.duplicated;
            total.reordered += s.reordered;
            total.corrupted += s.corrupted;
        }
    }
    total
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The run itself, shared between the P4CE and Mu deployments;
/// `accelerated` is the system's extra readiness condition on top of
/// member 0 leading operationally.
fn chaos_body<C: mu::Comm>(
    spec: &ChaosSpec,
    d: &mut mu::Deployment<C>,
    accelerated: impl Fn(&mu::Deployment<C>) -> bool,
) -> ChaosReport {
    record_applied(d);
    let setup_deadline = d.sim.now() + SimDuration::from_millis(300);
    while d.sim.now() < setup_deadline && !(d.member(0).is_operational_leader() && accelerated(d)) {
        d.sim.run_for(SimDuration::from_millis(1));
    }
    assert!(
        d.member(0).is_operational_leader() && accelerated(d),
        "cluster never reached steady state"
    );

    let storm_start = d.sim.now();
    install_storm(&mut d.sim, &d.members, spec, storm_start);

    let n = d.members.len();
    let mut attempted = 0u64;
    let mut accepted = 0u64;
    let mut next_value = 0u64;
    let mut propose_until = |d: &mut mu::Deployment<C>, until: SimTime| {
        while d.sim.now() < until {
            d.sim.run_for(spec.propose_every);
            if let Some(l) = (0..n).find(|&i| d.member(i).is_operational_leader()) {
                attempted += 1;
                let payload = Bytes::from(next_value.to_be_bytes().to_vec());
                next_value += 1;
                if d.with_member(l, move |m, ops| m.propose_value(payload, ops)) {
                    accepted += 1;
                }
            }
        }
    };
    propose_until(d, storm_start + spec.storm);

    clear_storm(&mut d.sim, &d.members);
    let decided_at_heal = (0..n).map(|i| d.member(i).stats.decided).max().unwrap_or(0);
    let at_heal = audit(&deployment_probes(d), 0);

    let drain_until = d.sim.now() + spec.drain;
    propose_until(d, drain_until);
    // Let replicas catch up on applying the tail.
    d.sim.run_for(SimDuration::from_millis(2));

    let groups = deployment_probes(d);
    let violation = at_heal.or_else(|| audit(&groups, 1));
    let probes = &groups[0];

    let injected = fault_totals(&d.sim, &d.members);
    let mut timeout_retransmits = 0;
    let mut nak_retransmits = 0;
    let mut parse_drops = 0;
    for &node in &d.members {
        let s = d.sim.node_ref::<Host<mu::Member<C>>>(node).stats();
        timeout_retransmits += s.timeout_retransmits;
        nak_retransmits += s.nak_retransmits;
        parse_drops += s.parse_drops;
    }
    let decided_final = (0..n).map(|i| d.member(i).stats.decided).max().unwrap_or(0);
    let applied_min = probes
        .iter()
        .skip(1)
        .map(|p| p.applied_seqs.len())
        .min()
        .unwrap_or(0);
    let mut log_hash = 0xcbf2_9ce4_8422_2325u64;
    for p in probes {
        for (seq, payload) in p.applied_seqs.iter().zip(&p.applied_payloads) {
            fnv1a(&mut log_hash, &seq.to_be_bytes());
            fnv1a(&mut log_hash, payload);
        }
    }

    ChaosReport {
        proposals_attempted: attempted,
        proposals_accepted: accepted,
        decided_at_heal,
        decided_final,
        applied_min,
        log_hash,
        events_processed: d.sim.events_processed(),
        frames_dropped: injected.dropped,
        frames_duplicated: injected.duplicated,
        frames_corrupted: injected.corrupted,
        partition_dropped: injected.partition_dropped,
        timeout_retransmits,
        nak_retransmits,
        parse_drops,
        leader_views: probes
            .iter()
            .flat_map(|p| p.leader_claims.iter().copied())
            .collect(),
        violation,
    }
}

/// Runs a seeded chaos schedule against an `n_members` cluster of
/// `system`. `tracer` collects the storm's cross-layer record stream
/// (see [`netsim::TraceHandle`]) so a failing schedule can be exported
/// and visualized; the report is identical either way — tracing
/// observes, never perturbs.
///
/// # Panics
///
/// Panics if the cluster never reaches steady state (for P4CE: never
/// accelerates) — a setup failure, not a safety verdict; those land in
/// [`ChaosReport::violation`].
pub fn run(spec: &ChaosSpec, n_members: usize, system: System, tracer: &Tracer) -> ChaosReport {
    match system {
        System::P4ce => {
            let mut d = p4ce::ClusterBuilder::new(n_members)
                .seed(spec.seed)
                .tracer(tracer.clone())
                .build();
            chaos_body(spec, &mut d, |d| d.leader().is_accelerated())
        }
        System::Mu => {
            let mut d = mu::ClusterBuilder::new(n_members)
                .seed(spec.seed)
                .tracer(tracer.clone())
                .build();
            chaos_body(spec, &mut d, |_| true)
        }
    }
}

/// Runs a decoded `kind=chaos` reproducer; `tracer` as in [`run`]
/// (`p4ce-explore replay --trace`). The replayed report carries the
/// original run's verdict.
///
/// # Errors
///
/// Reports a malformed reproducer.
pub fn replay(repro: &Repro, tracer: &Tracer) -> Result<ChaosReport, String> {
    let (system, n, spec) = ChaosSpec::from_repro(repro)?;
    Ok(run(&spec, n, system, tracer))
}

/// What [`shrink_spec`] converged on: the reduced spec and how many
/// candidate runs it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkChaos {
    /// The smallest spec that still fails.
    pub spec: ChaosSpec,
    /// Candidate runs spent shrinking.
    pub runs: u32,
}

/// Greedily minimizes a failing [`ChaosSpec`] against an arbitrary
/// failure predicate: each pass tries to zero one fault dimension, drop
/// the partition, or halve the storm/drain windows, keeping a change
/// only if the failure persists, until a fixpoint. The predicate
/// abstraction exists so tests can shrink against a synthetic failure
/// without paying for real cluster runs.
pub fn shrink_spec(spec: &ChaosSpec, fails: &mut dyn FnMut(&ChaosSpec) -> bool) -> ShrunkChaos {
    fn candidates(s: &ChaosSpec) -> Vec<ChaosSpec> {
        let mut out = Vec::new();
        let mut push = |edit: &dyn Fn(&mut ChaosSpec)| {
            let mut c = *s;
            edit(&mut c);
            if c != *s {
                out.push(c);
            }
        };
        push(&|c| c.duplicate = 0.0);
        push(&|c| {
            c.reorder = 0.0;
            c.reorder_window = SimDuration::ZERO;
        });
        push(&|c| c.corrupt = 0.0);
        push(&|c| c.jitter = SimDuration::ZERO);
        push(&|c| c.loss = 0.0);
        push(&|c| c.partition_from = c.partition_until); // empty window
        push(&|c| {
            c.storm = SimDuration::from_nanos(c.storm.as_nanos() / 2);
            c.partition_until = c.partition_until.min(c.storm);
            c.partition_from = c.partition_from.min(c.partition_until);
        });
        push(&|c| c.drain = SimDuration::from_nanos(c.drain.as_nanos() / 2));
        out
    }

    let mut best = *spec;
    let mut runs = 0u32;
    loop {
        let mut improved = false;
        for c in candidates(&best) {
            runs += 1;
            if fails(&c) {
                best = c;
                improved = true;
                break; // restart candidate generation from the new best
            }
        }
        if !improved {
            return ShrunkChaos { spec: best, runs };
        }
    }
}

/// Runs `spec` on `system`; if an oracle fires, shrinks the spec to a
/// minimal still-violating schedule, prints the `kind=chaos`
/// reproducer, and fails. The integration tests in `tests/chaos.rs`
/// route through this, so every red chaos run comes with a replayable
/// seed file in its output.
///
/// # Panics
///
/// Panics with the violation after printing the reproducer, and
/// wherever [`run`] does.
pub fn run_checked(spec: &ChaosSpec, n_members: usize, system: System) -> ChaosReport {
    let run_spec = |s: &ChaosSpec| run(s, n_members, system, &Tracer::disabled());
    let report = run_spec(spec);
    if let Some(v) = &report.violation {
        let shrunk = shrink_spec(spec, &mut |s| run_spec(s).violation.is_some());
        eprintln!(
            "chaos run failed; minimal reproducer (after {} shrink runs):",
            shrunk.runs
        );
        eprint!("{}", shrunk.spec.to_repro(system, n_members).encode());
        panic!("chaos run violated safety: {v}");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_specs_are_reproducible_and_bounded() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = ChaosSpec::seeded(seed, 3);
            let b = ChaosSpec::seeded(seed, 3);
            assert_eq!(a, b, "same seed, same spec");
            assert!(a.loss >= 0.01, "loss floor is 1%");
            assert!(a.loss <= 0.04);
            assert!(a.partition_member >= 1 && a.partition_member < 3);
            assert!(a.partition_from < a.partition_until);
            assert!(
                a.partition_until <= a.storm,
                "partition must heal before (or with) the storm"
            );
        }
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let a = ChaosSpec::seeded(1, 5);
        let b = ChaosSpec::seeded(2, 5);
        assert_ne!(a, b);
    }

    #[test]
    fn chaos_spec_round_trips_through_repro() {
        let spec = ChaosSpec::seeded(0xC4A0_5001, 3);
        let text = spec.to_repro(System::P4ce, 3).encode();
        let (system, n, back) =
            ChaosSpec::from_repro(&Repro::decode(&text).expect("decode")).expect("from_repro");
        assert_eq!(system, System::P4ce);
        assert_eq!(n, 3);
        assert_eq!(back, spec);
        assert!(
            ChaosSpec::from_repro(&Repro::new("explore")).is_err(),
            "wrong kind must be rejected"
        );
    }

    #[test]
    fn chaos_reproducer_with_members_out_of_range_is_rejected() {
        let spec = ChaosSpec::seeded(1, 3);
        for (system, max) in [
            (System::P4ce, p4ce::MAX_GROUP_MEMBERS),
            (System::Mu, mu::MAX_GROUP_MEMBERS),
        ] {
            let mut r = spec.to_repro(system, 3);
            for bad in [0, 1, max + 1] {
                r.set("members", bad);
                assert!(
                    ChaosSpec::from_repro(&r).is_err(),
                    "{system} with {bad} members must be rejected"
                );
            }
            r.set("members", max);
            assert!(ChaosSpec::from_repro(&r).is_ok(), "{system} takes {max}");
        }
    }

    #[test]
    fn shrinking_keeps_only_the_dimension_that_matters() {
        // Synthetic failure: the bug needs ≥1% loss, nothing else.
        let spec = ChaosSpec::seeded(0xBAD_CA5E, 3);
        let shrunk = shrink_spec(&spec, &mut |s| s.loss >= 0.01);
        assert!(shrunk.spec.loss >= 0.01, "the culprit survives");
        assert_eq!(shrunk.spec.duplicate, 0.0);
        assert_eq!(shrunk.spec.reorder, 0.0);
        assert_eq!(shrunk.spec.corrupt, 0.0);
        assert_eq!(shrunk.spec.jitter, SimDuration::ZERO);
        assert_eq!(
            shrunk.spec.partition_from, shrunk.spec.partition_until,
            "the partition window collapses"
        );
        assert!(shrunk.spec.storm < spec.storm, "the storm shortens");
        assert!(shrunk.runs > 0);
    }

    #[test]
    fn shrinking_a_passing_predicate_changes_nothing() {
        let spec = ChaosSpec::seeded(1, 3);
        let shrunk = shrink_spec(&spec, &mut |_| false);
        assert_eq!(shrunk.spec, spec);
    }

    #[test]
    fn partition_lands_only_on_the_chosen_member() {
        let spec = ChaosSpec::seeded(7, 5);
        let start = SimTime::from_micros(100);
        for member in 0..5 {
            for reverse in [false, true] {
                let plan = link_plan(&spec, member, reverse, start);
                assert_eq!(
                    !plan.partitions.is_empty(),
                    member == spec.partition_member,
                    "member {member} reverse {reverse}"
                );
            }
        }
    }
}
