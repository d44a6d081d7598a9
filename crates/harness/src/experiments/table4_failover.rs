//! E5 — Table IV: average fail-over times.
//!
//! Four scenarios, both systems. Expected shape (paper §V-E):
//!
//! | scenario            | Mu      | P4CE    |
//! |---------------------|---------|---------|
//! | new comm. group     | ~0.1 ms | ~40.1 ms|
//! | crashed replica     | ≈0 (+detection) | +40 ms reconfiguration |
//! | crashed leader      | ~0.9 ms | ~40.9 ms|
//! | crashed switch      | ~60 ms  | ~60 ms  |

use mu::{Comm, MemberEvent};
use netsim::{SimDuration, SimTime};
use replication::WorkloadSpec;

use crate::report::{fmt_f64, TableRow};
use crate::runner::System;

/// One fail-over measurement.
#[derive(Debug, Clone, Copy)]
pub struct FailoverRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// System under test.
    pub system: System,
    /// Time to detect the failure (heartbeats / timeouts), ms.
    pub detection_ms: f64,
    /// Recovery work after detection (permission changes, switch
    /// reconfiguration, reconnects), ms.
    pub recovery_ms: f64,
    /// Total disruption, ms.
    pub total_ms: f64,
}

impl TableRow for FailoverRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "scenario",
            "system",
            "detection_ms",
            "recovery_ms",
            "total_ms",
        ]
    }
    fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.to_owned(),
            self.system.to_string(),
            fmt_f64(self.detection_ms),
            fmt_f64(self.recovery_ms),
            fmt_f64(self.total_ms),
        ]
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        total_requests: 0,
        warmup_requests: 0,
        ..WorkloadSpec::closed(2, 64, 0)
    }
}

/// Scenario 1: configure a fresh communication group at steady state
/// (permissions already granted, so the cost is pure communication
/// setup: CM round-trips for Mu, CM + 40 ms reconfiguration for P4CE).
pub fn new_group(system: System) -> FailoverRow {
    let took = match system {
        System::Mu => rebuild(mu_cluster(false), 30, |e| {
            matches!(e, MemberEvent::LeaderOperational { .. })
        }),
        System::P4ce => rebuild(p4ce_cluster(false), 80, |e| {
            matches!(e, MemberEvent::GroupEstablished)
        }),
    };
    FailoverRow {
        scenario: "new communication group",
        system,
        detection_ms: 0.0,
        recovery_ms: ms(took),
        total_ms: ms(took),
    }
}

fn mu_cluster(backup_fabric: bool) -> mu::Deployment {
    mu::ClusterBuilder::new(3)
        .workload(workload())
        .backup_fabric(backup_fabric)
        .build()
}

fn p4ce_cluster(backup_fabric: bool) -> p4ce::Deployment {
    p4ce::ClusterBuilder::new(3)
        .workload(workload())
        .backup_fabric(backup_fabric)
        .build()
}

/// Rebuilds the leader's communication at `settle_ms` and times it up to
/// the `done` event.
fn rebuild<C: Comm>(
    mut d: mu::Deployment<C>,
    settle_ms: u64,
    done: impl Fn(&MemberEvent) -> bool,
) -> SimDuration {
    d.sim.run_until(SimTime::from_millis(settle_ms));
    let t0 = d.sim.now();
    d.with_member(0, |member, ops| member.force_rebuild_comm(ops));
    d.sim.run_until(t0 + SimDuration::from_millis(200));
    let stats = &d.leader().stats;
    let started = stats
        .event_time_after(t0, |e| matches!(e, MemberEvent::CommRebuildStarted))
        .expect("rebuild started");
    let finished = stats
        .event_time_after(started, done)
        .expect("rebuild finished");
    finished.duration_since(started)
}

/// Scenario 2: a replica crashes.
pub fn crashed_replica(system: System) -> FailoverRow {
    match system {
        System::Mu => {
            let mut d = mu_cluster(false);
            d.sim.run_until(SimTime::from_millis(30));
            let t_kill = d.sim.now();
            d.kill_member(2);
            d.sim.run_until(t_kill + SimDuration::from_millis(100));
            let leader = d.leader();
            let excluded = leader
                .stats
                .event_time_after(t_kill, |e| matches!(e, MemberEvent::ReplicaExcluded { .. }))
                .expect("replica excluded");
            let det = excluded.duration_since(t_kill);
            FailoverRow {
                scenario: "crashed replica",
                system: System::Mu,
                detection_ms: ms(det),
                recovery_ms: 0.0,
                total_ms: ms(det),
            }
        }
        System::P4ce => {
            let mut d = p4ce_cluster(false);
            d.sim.run_until(SimTime::from_millis(80));
            let t_kill = d.sim.now();
            d.kill_member(2);
            d.sim.run_until(t_kill + SimDuration::from_millis(200));
            let leader = d.leader();
            let started = leader
                .stats
                .event_time_after(t_kill, |e| matches!(e, MemberEvent::CommRebuildStarted))
                .expect("rebuild started");
            let done = leader
                .stats
                .event_time_after(started, |e| matches!(e, MemberEvent::GroupEstablished))
                .expect("group rebuilt");
            FailoverRow {
                scenario: "crashed replica",
                system: System::P4ce,
                detection_ms: ms(started.duration_since(t_kill)),
                recovery_ms: ms(done.duration_since(started)),
                total_ms: ms(done.duration_since(t_kill)),
            }
        }
    }
}

/// Scenario 3: the leader crashes; the next-lowest member takes over.
pub fn crashed_leader(system: System) -> FailoverRow {
    let (detection, recovery) = match system {
        System::Mu => takeover(mu_cluster(false), 30, 200),
        System::P4ce => takeover(p4ce_cluster(false), 80, 300),
    };
    FailoverRow {
        scenario: "crashed leader",
        system,
        detection_ms: ms(detection),
        recovery_ms: ms(recovery),
        total_ms: ms(detection + recovery),
    }
}

/// Kills the leader at `settle_ms`; returns (kill → takeover, takeover →
/// first decision) as seen by member 1 within `observe_ms`.
fn takeover<C: Comm>(
    mut d: mu::Deployment<C>,
    settle_ms: u64,
    observe_ms: u64,
) -> (SimDuration, SimDuration) {
    d.sim.run_until(SimTime::from_millis(settle_ms));
    let t_kill = d.sim.now();
    d.kill_member(0);
    d.sim
        .run_until(t_kill + SimDuration::from_millis(observe_ms));
    let stats = &d.member(1).stats;
    let became = stats
        .event_time_after(t_kill, |e| matches!(e, MemberEvent::BecameLeader { .. }))
        .expect("took over");
    let first = stats
        .event_time_after(became, |e| matches!(e, MemberEvent::FirstDecision { .. }))
        .expect("decided");
    (became.duration_since(t_kill), first.duration_since(became))
}

/// Scenario 4: the switch dies; the cluster reroutes over the backup
/// fabric (both systems pay the RDMA timeout + reconnection penalty).
pub fn crashed_switch(system: System) -> FailoverRow {
    let (detection, total) = match system {
        System::Mu => reroute(mu_cluster(true), 30),
        System::P4ce => reroute(p4ce_cluster(true), 80),
    };
    FailoverRow {
        scenario: "crashed switch",
        system,
        detection_ms: ms(detection),
        recovery_ms: ms(total - detection),
        total_ms: ms(total),
    }
}

/// Powers the switch off at `settle_ms`; returns (kill → path
/// fail-over, kill → first decision on the backup fabric).
fn reroute<C: Comm>(mut d: mu::Deployment<C>, settle_ms: u64) -> (SimDuration, SimDuration) {
    d.sim.run_until(SimTime::from_millis(settle_ms));
    let t_kill = d.sim.now();
    d.kill_switch();
    d.sim.run_until(t_kill + SimDuration::from_millis(300));
    let stats = &d.leader().stats;
    let failover = stats
        .event_time_after(t_kill, |e| matches!(e, MemberEvent::PathFailover))
        .expect("path failover");
    let first = stats
        .event_time_after(failover, |e| matches!(e, MemberEvent::FirstDecision { .. }))
        .expect("decided after recovery");
    (
        failover.duration_since(t_kill),
        first.duration_since(t_kill),
    )
}

/// Runs all of Table IV.
pub fn run() -> Vec<FailoverRow> {
    let mut rows = Vec::new();
    for &system in &[System::Mu, System::P4ce] {
        rows.push(new_group(system));
    }
    for &system in &[System::Mu, System::P4ce] {
        rows.push(crashed_replica(system));
    }
    for &system in &[System::Mu, System::P4ce] {
        rows.push(crashed_leader(system));
    }
    for &system in &[System::Mu, System::P4ce] {
        rows.push(crashed_switch(system));
    }
    rows
}
