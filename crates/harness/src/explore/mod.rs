//! Bounded model checking over the deterministic simulator.
//!
//! The netsim event queue is a total order except where several events
//! share a timestamp; there the real world gets to pick, and a consensus
//! bug hides in exactly those picks. This module turns each pick into an
//! explicit *decision*: a [`GuidedScheduler`] plugged into
//! [`netsim::Simulation::set_scheduler`] consumes a decision vector at
//! every branching point (≥ 2 co-enabled events), so a schedule is just
//! a `branch index → choice` map and any run can be replayed bit-for-bit
//! from one.
//!
//! On top of that sit three exploration strategies:
//!
//! - [`explore`] — exhaustive delay-bounded DFS (Emmi et al.): enumerate
//!   every decision vector whose total "delay" (sum of choices) stays
//!   within a bound. Small bounds cover the schedules real networks
//!   actually produce — a handful of reorderings around the FIFO run.
//! - [`random_walk`] — seeded random schedules, for depth the DFS bound
//!   cannot afford.
//! - [`replay`] — re-run one schedule from a [`Repro`] seed file.
//!
//! After *every* explored step the [`oracle`] suite audits a snapshot of
//! all members; the first violation aborts the schedule and (via
//! [`shrink`]) is reduced to a minimal reproducer. Exploration is
//! stateless in the CHESS tradition: each schedule re-executes the
//! deployment from scratch, so there is no snapshot/restore machinery to
//! trust — only the simulator's own determinism, which
//! `tests/determinism.rs` already pins down.

pub mod oracle;
pub mod shrink;

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use netsim::{EventInfo, FaultPlan, PortId, Scheduler, SimDuration, Simulation, Tracer};
use rdma::Host;

use crate::chaos::ChaosRecorder;
use crate::repro::{decode_decisions, encode_decisions, Repro};
use crate::runner::System;
use crate::splitmix;
use mu::MemberEvent;

use oracle::{audit, MemberProbe, Violation};

/// How long an explored partition lasts — effectively "for the rest of
/// the schedule" at model-checking horizons.
const PARTITION_HOLD: SimDuration = SimDuration::from_millis(10_000);

/// One model-checking scenario: which deployment to build, how to
/// perturb it, and how far to explore each schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreSpec {
    /// System under test.
    pub system: System,
    /// Cluster size (members *per group* when `groups > 1`).
    pub n_members: usize,
    /// Consensus groups sharing the switch. 1 = the classic single-group
    /// deployment; ≥ 2 builds that many P4CE groups behind one switch and
    /// audits each group with the full oracle suite plus group isolation
    /// (explored proposals carry a 2-byte group tag).
    pub groups: u16,
    /// **Test-only mutation**: cross-wire the switch's per-group scatter
    /// tables (each group's writes egress to a co-resident group's
    /// replicas), the bug the group-isolation oracle exists to catch.
    pub crosswire_groups: bool,
    /// Deterministic simulation seed (setup phase and payload stream).
    pub seed: u64,
    /// P4CE only: whether the fabric runs the P4CE program. `false`
    /// forces leaders into direct-replication fallback, where write
    /// grants name member IPs and the single-writer oracle has teeth.
    pub p4ce_enabled: bool,
    /// **Test-only mutation**: skip old-epoch grant revocation (the bug
    /// the single-writer oracle exists to catch).
    pub skip_epoch_revoke: bool,
    /// Partition member 0 (the steady-state leader) from the fabric at
    /// this explored step, forcing an election under exploration.
    pub partition_leader_at: Option<u32>,
    /// Inject one client proposal every this many explored steps
    /// (0 = none) so the log-shape oracles have data to audit.
    pub propose_every: u32,
    /// Explored steps per schedule (the setup phase runs before this,
    /// un-explored, under plain FIFO).
    pub horizon: u32,
}

impl ExploreSpec {
    /// A healthy accelerated P4CE cluster under proposal load.
    pub fn p4ce(n_members: usize) -> ExploreSpec {
        ExploreSpec {
            system: System::P4ce,
            n_members,
            groups: 1,
            crosswire_groups: false,
            seed: 42,
            p4ce_enabled: true,
            skip_epoch_revoke: false,
            partition_leader_at: None,
            propose_every: 25,
            horizon: 400,
        }
    }

    /// A healthy sharded deployment: `groups` accelerated P4CE groups of
    /// `members_per_group` members behind one switch, tagged proposals
    /// flowing into every group.
    pub fn sharded(groups: u16, members_per_group: usize) -> ExploreSpec {
        ExploreSpec {
            groups,
            ..ExploreSpec::p4ce(members_per_group)
        }
    }

    /// The injected-bug scenario for multi-group isolation: two groups
    /// with cross-wired scatter tables. Every schedule must trip the
    /// group-isolation oracle as soon as one misdirected write is
    /// applied.
    pub fn crosswire_mutation(members_per_group: usize) -> ExploreSpec {
        ExploreSpec {
            crosswire_groups: true,
            horizon: 2_000,
            ..ExploreSpec::sharded(2, members_per_group)
        }
    }

    /// A healthy Mu cluster under proposal load.
    pub fn mu(n_members: usize) -> ExploreSpec {
        ExploreSpec {
            system: System::Mu,
            ..ExploreSpec::p4ce(n_members)
        }
    }

    /// The injected-bug scenario: plain fabric, revocation skipped, the
    /// leader partitioned mid-exploration. The ensuing election must
    /// trip the single-writer oracle on every schedule.
    pub fn single_writer_mutation(n_members: usize) -> ExploreSpec {
        ExploreSpec {
            p4ce_enabled: false,
            skip_epoch_revoke: true,
            partition_leader_at: Some(40),
            propose_every: 0,
            horizon: 20_000,
            ..ExploreSpec::p4ce(n_members)
        }
    }

    /// Serializes the scenario plus a schedule into a reproducer.
    pub fn to_repro(&self, decisions: &BTreeMap<u32, u32>) -> Repro {
        let mut r = Repro::new("explore");
        r.set("system", self.system.name());
        r.set("members", self.n_members);
        r.set("groups", self.groups);
        r.set("crosswire_groups", self.crosswire_groups);
        r.set("seed", self.seed);
        r.set("p4ce_enabled", self.p4ce_enabled);
        r.set("skip_epoch_revoke", self.skip_epoch_revoke);
        r.set(
            "partition_leader_at",
            match self.partition_leader_at {
                Some(s) => s.to_string(),
                None => "-".to_owned(),
            },
        );
        r.set("propose_every", self.propose_every);
        r.set("horizon", self.horizon);
        r.set("decisions", encode_decisions(decisions));
        r
    }

    /// Parses a reproducer back into a scenario and schedule.
    ///
    /// # Errors
    ///
    /// Reports a wrong `kind`, missing/malformed fields, or a deployment
    /// shape [`ExploreSpec::check`] refuses.
    pub fn from_repro(r: &Repro) -> Result<(ExploreSpec, BTreeMap<u32, u32>), String> {
        if r.kind != "explore" {
            return Err(format!("expected kind=explore, got {}", r.kind));
        }
        let partition_leader_at = match r.get("partition_leader_at") {
            None | Some("-") => None,
            Some(s) => Some(s.parse().map_err(|_| format!("bad partition step {s}"))?),
        };
        // Multi-group fields postdate the format; old reproducers mean a
        // single classic group.
        let groups = match r.get("groups") {
            None => 1,
            Some(s) => s.parse().map_err(|_| format!("bad groups {s}"))?,
        };
        let crosswire_groups = match r.get("crosswire_groups") {
            None => false,
            Some(s) => s.parse().map_err(|_| format!("bad crosswire_groups {s}"))?,
        };
        let spec = ExploreSpec {
            system: r.parse("system")?,
            n_members: r.parse("members")?,
            groups,
            crosswire_groups,
            seed: r.parse("seed")?,
            p4ce_enabled: r.parse("p4ce_enabled")?,
            skip_epoch_revoke: r.parse("skip_epoch_revoke")?,
            partition_leader_at,
            propose_every: r.parse("propose_every")?,
            horizon: r.parse("horizon")?,
        };
        spec.check()?;
        let decisions = decode_decisions(r.get("decisions").unwrap_or("-"))?;
        Ok((spec, decisions))
    }

    /// Checks that the spec describes a deployment the builders accept:
    /// `n_members` within the system's group size, `groups` within
    /// `1..=256`, and several groups only behind the P4CE switch.
    ///
    /// # Errors
    ///
    /// Names the first field out of range.
    pub fn check(&self) -> Result<(), String> {
        self.system.check_members(self.n_members)?;
        if !(1..=256).contains(&self.groups) {
            return Err(format!("groups={}: takes 1..=256", self.groups));
        }
        if self.groups > 1 && self.system == System::Mu {
            return Err("groups>1: multi-group exploration targets the P4CE switch".to_owned());
        }
        Ok(())
    }
}

/// The pluggable scheduler exploration runs under: at each branching
/// point (≥ 2 co-enabled events) it either looks up the decision vector
/// (missing entry = 0 = FIFO) or, in random mode, rolls the dice — and
/// records `(candidate count, choice)` either way so the DFS knows the
/// branching structure it just traversed and a random walk's schedule
/// can be replayed.
struct GuidedScheduler {
    decisions: BTreeMap<u32, u32>,
    rng: Option<u64>,
    trace: Arc<Mutex<Vec<(u32, u32)>>>,
    cursor: u32,
}

impl Scheduler for GuidedScheduler {
    fn choose(&mut self, candidates: &[EventInfo]) -> usize {
        if candidates.len() < 2 {
            return 0;
        }
        let n = candidates.len() as u32;
        let idx = self.cursor;
        self.cursor += 1;
        let choice = match self.rng.as_mut() {
            Some(state) => (splitmix(state) % u64::from(n)) as u32,
            None => self.decisions.get(&idx).copied().unwrap_or(0).min(n - 1),
        };
        self.trace
            .lock()
            .expect("scheduler trace poisoned")
            .push((n, choice));
        choice as usize
    }
}

/// What one schedule produced.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The first oracle violation, if any.
    pub violation: Option<Violation>,
    /// Candidate count at each branching point encountered, in order —
    /// the DFS uses this to enumerate sibling schedules.
    pub branch_counts: Vec<u32>,
    /// The non-FIFO decisions actually taken (replay vector).
    pub decisions: BTreeMap<u32, u32>,
    /// Explored steps executed (may stop early on violation or drained
    /// queue).
    pub steps: u32,
}

/// One proposal into every group that currently has an operational
/// leader. With several groups the payload carries a 2-byte group tag,
/// which is what the group-isolation oracle audits.
fn propose_into<C: mu::Comm>(d: &mut mu::Deployment<C>, counter: u64) -> bool {
    let groups = d.groups();
    let mut any = false;
    for g in 0..groups {
        let Some(l) = (0..d.group_size())
            .map(|i| d.at(g, i))
            .find(|&k| d.member(k).is_operational_leader())
        else {
            continue;
        };
        let mut payload = Vec::new();
        if groups > 1 {
            payload.extend_from_slice(&(g as u16).to_be_bytes());
        }
        payload.extend_from_slice(&counter.to_be_bytes());
        let payload = Bytes::from(payload);
        any |= d.with_member(l, move |m, ops| m.propose_value(payload, ops));
    }
    any
}

/// Installs a [`ChaosRecorder`] on every member, so the probes see
/// what each member applied.
pub(crate) fn record_applied<C: mu::Comm>(d: &mut mu::Deployment<C>) {
    for k in 0..d.members.len() {
        d.member_mut(k)
            .set_state_machine(Box::new(ChaosRecorder::default()));
    }
}

/// Snapshots every member for the oracles, one list per group.
pub(crate) fn deployment_probes<C: mu::Comm>(d: &mu::Deployment<C>) -> Vec<Vec<MemberProbe>> {
    (0..d.groups())
        .map(|g| {
            let ips: Vec<Ipv4Addr> = (0..d.group_size()).map(|i| mu::member_ip(g, i)).collect();
            (0..ips.len())
                .map(|i| {
                    let host = d.sim.node_ref::<Host<mu::Member<C>>>(d.members[d.at(g, i)]);
                    probe_from(host, i, &ips)
                })
                .collect()
        })
        .collect()
}

fn probe_from<C: mu::Comm>(host: &Host<mu::Member<C>>, i: usize, ips: &[Ipv4Addr]) -> MemberProbe {
    let app = host.app();
    let mut write_grants = Vec::new();
    if let Some(region) = app.log_region() {
        // Audit cluster members only: the switch is a conduit whose
        // grant is epoch-independent by design.
        for &ip in ips {
            if host.memory().effective_perms(region, ip).remote_write {
                write_grants.push(ip);
            }
        }
    }
    let (applied_seqs, applied_payloads) = app
        .state_machine()
        .and_then(|sm| (sm as &dyn std::any::Any).downcast_ref::<ChaosRecorder>())
        .map(|rec| (rec.seqs.clone(), rec.payloads.clone()))
        .unwrap_or_default();
    let mut leader_claims = Vec::new();
    for (_, ev) in &app.stats.events {
        if let MemberEvent::BecameLeader { view } | MemberEvent::LeaderOperational { view } = ev {
            let claim = (*view, i as u8);
            if !leader_claims.contains(&claim) {
                leader_claims.push(claim);
            }
        }
    }
    MemberProbe {
        ip: ips[i],
        applied_seqs,
        applied_payloads,
        next_apply_seq: app.next_apply_seq(),
        epoch_leader: app.epoch_leader(),
        write_grants,
        leader_claims,
    }
}

/// Executes one schedule of `spec` from scratch: FIFO setup, then
/// `spec.horizon` explored steps under the given decision vector (or a
/// random walk when `rng` is set), auditing the oracles after every
/// step. `tracer` collects the cross-layer record stream of the
/// schedule, which is how a shrunk reproducer gets visualized
/// (`p4ce-explore replay --trace`); tracing observes, never perturbs.
pub fn run_schedule(
    spec: &ExploreSpec,
    decisions: &BTreeMap<u32, u32>,
    rng: Option<u64>,
    tracer: &Tracer,
) -> ScheduleOutcome {
    // A small log keeps per-schedule allocation negligible; model
    // checking re-builds the deployment thousands of times.
    let log_size = 64 << 10;
    match spec.system {
        System::P4ce => {
            // Shrink control-plane latencies so the un-explored setup
            // phase is short: the switch reconfigures fast, and (behind
            // a plain fabric) the leader gives up on acceleration fast.
            // Keep re-probe ≥ reconfig so a healthy handshake still
            // completes between probes.
            let switch_cfg = p4ce_switch::P4ceSwitchConfig {
                p4ce_enabled: spec.p4ce_enabled,
                crosswire_groups: spec.crosswire_groups,
                reconfig_delay: SimDuration::from_micros(500),
                ..Default::default()
            };
            let reaccel = if spec.p4ce_enabled {
                SimDuration::from_millis(5)
            } else {
                SimDuration::from_micros(200)
            };
            let d = p4ce::ClusterBuilder::new(spec.n_members)
                .groups(usize::from(spec.groups))
                .seed(spec.seed)
                .log_size(log_size)
                .switch_config(switch_cfg)
                .skip_epoch_revoke(spec.skip_epoch_revoke)
                .reaccel_period(reaccel)
                .tracer(tracer.clone())
                .build();
            run_on(spec, d, decisions, rng, |d| {
                !spec.p4ce_enabled || (0..d.groups()).all(|g| d.member(d.at(g, 0)).is_accelerated())
            })
        }
        System::Mu => {
            let d = mu::ClusterBuilder::new(spec.n_members)
                .seed(spec.seed)
                .log_size(log_size)
                .tracer(tracer.clone())
                .build();
            run_on(spec, d, decisions, rng, |_| true)
        }
    }
}

/// [`run_schedule`] on a built deployment of either system;
/// `accelerated` is the system's extra readiness condition on top of an
/// operational leader in every group.
fn run_on<C: mu::Comm>(
    spec: &ExploreSpec,
    mut d: mu::Deployment<C>,
    decisions: &BTreeMap<u32, u32>,
    rng: Option<u64>,
    accelerated: impl Fn(&mu::Deployment<C>) -> bool,
) -> ScheduleOutcome {
    record_applied(&mut d);
    // Drive the deployment to steady state under plain FIFO. The
    // explored window starts from an operational cluster so every
    // schedule perturbs the protocol, not the boot sequence.
    let ready = |d: &mu::Deployment<C>| {
        (0..d.groups())
            .all(|g| (0..d.group_size()).any(|i| d.member(d.at(g, i)).is_operational_leader()))
            && accelerated(d)
    };
    let deadline = d.sim.now() + SimDuration::from_millis(200);
    while d.sim.now() < deadline && !ready(&d) {
        d.sim.run_for(SimDuration::from_micros(50));
    }
    assert!(
        ready(&d),
        "explore setup never reached steady state ({spec:?})"
    );

    let trace = Arc::new(Mutex::new(Vec::new()));
    d.sim.set_scheduler(Box::new(GuidedScheduler {
        decisions: decisions.clone(),
        rng,
        trace: Arc::clone(&trace),
        cursor: 0,
    }));

    let mut violation = None;
    let mut steps = 0;
    let mut proposal = 0u64;
    for step in 0..spec.horizon {
        if spec.partition_leader_at == Some(step) {
            // Member 0 of group 0: faults stay confined to one group.
            let node = d.members[0];
            partition_member(&mut d.sim, node);
        }
        if spec.propose_every > 0
            && step % spec.propose_every == 0
            && propose_into(&mut d, proposal)
        {
            proposal += 1;
        }
        if !d.sim.step() {
            break;
        }
        steps = step + 1;
        violation = audit(&deployment_probes(&d), step);
        if violation.is_some() {
            break;
        }
    }

    let trace = trace.lock().expect("scheduler trace poisoned");
    let branch_counts = trace.iter().map(|&(n, _)| n).collect();
    let decisions = trace
        .iter()
        .enumerate()
        .filter(|&(_, &(_, c))| c != 0)
        .map(|(i, &(_, c))| (i as u32, c))
        .collect();
    ScheduleOutcome {
        violation,
        branch_counts,
        decisions,
        steps,
    }
}

fn partition_member(sim: &mut Simulation, node: netsim::NodeId) {
    let port = PortId::from_index(0);
    let now = sim.now();
    let until = now + PARTITION_HOLD;
    sim.set_fault_plan(node, port, FaultPlan::new().partition(now, until));
    let (peer, peer_port) = sim.peer_of(node, port);
    sim.set_fault_plan(peer, peer_port, FaultPlan::new().partition(now, until));
}

/// Exploration resource limits: schedule count and wall-clock budget.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop after this many schedules.
    pub max_schedules: u64,
    /// Stop once this much wall-clock time has elapsed.
    pub max_wall: Option<std::time::Duration>,
}

impl Budget {
    /// A schedule-count budget with no wall-clock limit.
    pub fn schedules(max_schedules: u64) -> Budget {
        Budget {
            max_schedules,
            max_wall: None,
        }
    }

    /// Adds a wall-clock deadline.
    pub fn with_deadline(mut self, wall: std::time::Duration) -> Budget {
        self.max_wall = Some(wall);
        self
    }
}

/// Why exploration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreStatus {
    /// Every schedule within the delay bound was checked; none violated.
    Exhausted,
    /// An oracle fired (see the counterexample).
    Violated,
    /// The schedule budget ran out first.
    BudgetExhausted,
    /// The wall-clock deadline ran out first.
    DeadlineExceeded,
}

/// A violating schedule, ready for shrinking or serialization.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What fired.
    pub violation: Violation,
    /// The decision vector that reproduces it.
    pub decisions: BTreeMap<u32, u32>,
}

/// Exploration result.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Largest number of branching points seen in one schedule — the
    /// width of the explored frontier.
    pub max_branch_points: usize,
    /// Why exploration stopped.
    pub status: ExploreStatus,
    /// The violating schedule, when `status == Violated`.
    pub counterexample: Option<Counterexample>,
}

/// Exhaustive delay-bounded DFS: checks every schedule whose decisions
/// sum to at most `delay_bound`, in lexicographic order starting from
/// plain FIFO. Stops at the first violation or when the budget runs
/// dry.
pub fn explore(spec: &ExploreSpec, delay_bound: u32, budget: Budget) -> ExploreReport {
    let started = Instant::now();
    let mut vector: Vec<u32> = Vec::new();
    let mut schedules = 0u64;
    let mut max_branch_points = 0usize;
    loop {
        let decisions: BTreeMap<u32, u32> = vector
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        let outcome = run_schedule(spec, &decisions, None, &Tracer::disabled());
        schedules += 1;
        max_branch_points = max_branch_points.max(outcome.branch_counts.len());
        if let Some(violation) = outcome.violation {
            return ExploreReport {
                schedules,
                max_branch_points,
                status: ExploreStatus::Violated,
                counterexample: Some(Counterexample {
                    violation,
                    decisions,
                }),
            };
        }
        // Backtrack: find the deepest branching point whose choice can
        // be incremented without blowing the delay bound, truncate
        // everything after it (those positions revert to FIFO).
        let counts = &outcome.branch_counts;
        let choice_at = |v: &[u32], i: usize| v.get(i).copied().unwrap_or(0);
        let mut next = None;
        for i in (0..counts.len()).rev() {
            let c = choice_at(&vector, i);
            let prefix_cost: u32 = (0..i).map(|j| choice_at(&vector, j)).sum();
            if c + 1 < counts[i] && prefix_cost + c < delay_bound {
                let mut nv: Vec<u32> = (0..i).map(|j| choice_at(&vector, j)).collect();
                nv.push(c + 1);
                next = Some(nv);
                break;
            }
        }
        let Some(nv) = next else {
            return done(schedules, max_branch_points, ExploreStatus::Exhausted);
        };
        // Only charge the budget when there is more frontier to visit:
        // a fully explored bound is Exhausted even on its last schedule.
        if schedules >= budget.max_schedules {
            return done(schedules, max_branch_points, ExploreStatus::BudgetExhausted);
        }
        if let Some(wall) = budget.max_wall {
            if started.elapsed() >= wall {
                return done(
                    schedules,
                    max_branch_points,
                    ExploreStatus::DeadlineExceeded,
                );
            }
        }
        vector = nv;
    }
}

fn done(schedules: u64, max_branch_points: usize, status: ExploreStatus) -> ExploreReport {
    ExploreReport {
        schedules,
        max_branch_points,
        status,
        counterexample: None,
    }
}

/// Random schedule exploration: `budget.max_schedules` independent
/// seeded walks. Violating walks are replayable — the recorded decision
/// vector lands in the counterexample, not the RNG seed.
pub fn random_walk(spec: &ExploreSpec, budget: Budget) -> ExploreReport {
    let started = Instant::now();
    let mut schedules = 0u64;
    let mut max_branch_points = 0usize;
    let mut state = spec.seed ^ 0x7061_6365; // "pace"
    while schedules < budget.max_schedules {
        if let Some(wall) = budget.max_wall {
            if started.elapsed() >= wall {
                return done(
                    schedules,
                    max_branch_points,
                    ExploreStatus::DeadlineExceeded,
                );
            }
        }
        let walk_seed = splitmix(&mut state);
        let outcome = run_schedule(spec, &BTreeMap::new(), Some(walk_seed), &Tracer::disabled());
        schedules += 1;
        max_branch_points = max_branch_points.max(outcome.branch_counts.len());
        if let Some(violation) = outcome.violation {
            return ExploreReport {
                schedules,
                max_branch_points,
                status: ExploreStatus::Violated,
                counterexample: Some(Counterexample {
                    violation,
                    decisions: outcome.decisions,
                }),
            };
        }
    }
    done(schedules, max_branch_points, ExploreStatus::BudgetExhausted)
}

/// Replays a serialized reproducer and reports what it does now;
/// `tracer` collects the schedule's records so a failing one can be
/// exported and visualized.
///
/// # Errors
///
/// Reports a malformed reproducer.
pub fn replay(repro: &Repro, tracer: &Tracer) -> Result<ScheduleOutcome, String> {
    let (spec, decisions) = ExploreSpec::from_repro(repro)?;
    Ok(run_schedule(&spec, &decisions, None, tracer))
}

#[cfg(test)]
mod tests {
    use super::oracle::OracleKind;
    use super::*;

    #[test]
    fn mutation_is_caught_and_shrinks_small() {
        let spec = ExploreSpec::single_writer_mutation(3);
        let report = explore(&spec, 0, Budget::schedules(1));
        assert_eq!(report.status, ExploreStatus::Violated, "bug must be caught");
        let cex = report.counterexample.expect("counterexample");
        assert_eq!(cex.violation.oracle, OracleKind::SingleWriter);

        let shrunk = shrink::shrink(&spec, &cex.decisions).expect("still violates");
        assert_eq!(shrunk.violation.oracle, OracleKind::SingleWriter);
        assert!(
            shrunk.decisions.len() <= 20,
            "reproducer must be small, got {} decisions",
            shrunk.decisions.len()
        );
        assert!(shrunk.spec.horizon <= spec.horizon);

        // The shrunk reproducer survives a serialize/parse/replay trip.
        let text = shrunk.spec.to_repro(&shrunk.decisions).encode();
        let back = Repro::decode(&text).expect("decode");
        let outcome = replay(&back, &Tracer::disabled()).expect("replay");
        let v = outcome.violation.expect("replayed violation");
        assert_eq!(v.oracle, OracleKind::SingleWriter);
    }

    #[test]
    fn healthy_p4ce_mutation_free_run_stays_clean() {
        // The same scenario without the mutation must pass: the oracle
        // fires on the bug, not on fallback elections per se.
        let mut spec = ExploreSpec::single_writer_mutation(3);
        spec.skip_epoch_revoke = false;
        let report = explore(&spec, 0, Budget::schedules(1));
        assert_eq!(report.status, ExploreStatus::Exhausted);
    }

    #[test]
    fn sharded_clean_walks_stay_clean() {
        // Two accelerated groups behind one switch, tagged proposals
        // into both, randomized event interleavings: no oracle — group
        // isolation included — may fire.
        let spec = ExploreSpec::sharded(2, 3);
        let report = random_walk(&spec, Budget::schedules(3));
        assert_eq!(report.status, ExploreStatus::BudgetExhausted);
        assert!(report.counterexample.is_none());
    }

    #[test]
    fn crosswired_groups_are_caught_by_group_isolation() {
        let spec = ExploreSpec::crosswire_mutation(3);
        let report = explore(&spec, 0, Budget::schedules(1));
        assert_eq!(report.status, ExploreStatus::Violated, "bug must be caught");
        let cex = report.counterexample.expect("counterexample");
        assert_eq!(cex.violation.oracle, OracleKind::GroupIsolation);
        assert!(cex.violation.detail.contains("group"));

        // The counterexample round-trips through a reproducer file.
        let text = spec.to_repro(&cex.decisions).encode();
        let back = Repro::decode(&text).expect("decode");
        let outcome = replay(&back, &Tracer::disabled()).expect("replay");
        let v = outcome.violation.expect("replayed violation");
        assert_eq!(v.oracle, OracleKind::GroupIsolation);
    }

    #[test]
    fn explore_reproducer_with_members_out_of_range_is_rejected() {
        for (spec, max) in [
            (ExploreSpec::p4ce(3), p4ce::MAX_GROUP_MEMBERS),
            (ExploreSpec::mu(3), mu::MAX_GROUP_MEMBERS),
        ] {
            let mut r = spec.to_repro(&BTreeMap::new());
            for bad in [0, 1, max + 1] {
                r.set("members", bad);
                assert!(ExploreSpec::from_repro(&r).is_err(), "{bad} members");
            }
            r.set("members", max);
            assert!(ExploreSpec::from_repro(&r).is_ok(), "{max} members");
        }
    }

    #[test]
    fn explore_reproducer_with_groups_out_of_range_is_rejected() {
        let mut r = ExploreSpec::sharded(2, 3).to_repro(&BTreeMap::new());
        for bad in [0, 257] {
            r.set("groups", bad);
            assert!(ExploreSpec::from_repro(&r).is_err(), "{bad} groups");
        }
        r.set("groups", 256);
        assert!(ExploreSpec::from_repro(&r).is_ok());
    }

    #[test]
    fn multi_group_mu_reproducer_is_rejected() {
        let mut r = ExploreSpec::mu(3).to_repro(&BTreeMap::new());
        r.set("groups", 2);
        assert!(ExploreSpec::from_repro(&r).is_err());
        r.set("groups", 1);
        assert!(ExploreSpec::from_repro(&r).is_ok());
    }

    #[test]
    fn spec_round_trips_through_repro() {
        let spec = ExploreSpec::single_writer_mutation(3);
        let mut decisions = BTreeMap::new();
        decisions.insert(4u32, 2u32);
        let r = spec.to_repro(&decisions);
        let (spec2, d2) = ExploreSpec::from_repro(&r).expect("parse");
        assert_eq!(spec2, spec);
        assert_eq!(d2, decisions);

        let healthy = ExploreSpec::p4ce(3);
        let r2 = healthy.to_repro(&BTreeMap::new());
        let (spec3, d3) = ExploreSpec::from_repro(&r2).expect("parse");
        assert_eq!(spec3, healthy);
        assert!(d3.is_empty());

        // Multi-group fields survive the trip…
        let sharded = ExploreSpec::crosswire_mutation(3);
        let r3 = sharded.to_repro(&BTreeMap::new());
        let (spec4, _) = ExploreSpec::from_repro(&r3).expect("parse");
        assert_eq!(spec4, sharded);

        // …and reproducers predating them parse as one classic group.
        let mut legacy = healthy.to_repro(&BTreeMap::new());
        legacy.unset("groups");
        legacy.unset("crosswire_groups");
        let (spec5, _) = ExploreSpec::from_repro(&legacy).expect("parse legacy");
        assert_eq!(spec5.groups, 1);
        assert!(!spec5.crosswire_groups);
    }
}
