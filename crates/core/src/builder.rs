//! One-call construction of a complete P4CE deployment: members, the
//! P4CE-programmed switch, links and routes — and optionally a backup
//! plain-L3 fabric for switch-crash experiments.

use netsim::{LinkSpec, SimDuration, Simulation, Tracer};
use p4ce_switch::{AckDropStage, P4ceProgram, P4ceSwitchConfig};
use rdma::{Host, HostConfig};
use replication::{ClusterConfig, MemberId, ProtocolTiming, WorkloadSpec};
use std::net::Ipv4Addr;
use tofino::{L3Forwarder, Switch, SwitchConfig};

use crate::member::{P4ceMember, P4ceMemberConfig, SwitchGroup};

/// Builds a ready-to-run P4CE cluster inside a [`Simulation`].
///
/// ```
/// use p4ce::{ClusterBuilder};
/// use netsim::SimTime;
/// use replication::WorkloadSpec;
///
/// let mut deployment = ClusterBuilder::new(3)
///     .workload(WorkloadSpec::closed(4, 64, 200))
///     .build();
/// deployment.sim.run_until(SimTime::from_millis(100));
/// assert_eq!(deployment.leader().stats.decided, 200);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    n_members: usize,
    workload: Option<WorkloadSpec>,
    switch_cfg: P4ceSwitchConfig,
    link: LinkSpec,
    backup_fabric: bool,
    seed: u64,
    async_reconfig: bool,
    parser_cost: Option<SimDuration>,
    verb_cost: Option<SimDuration>,
    tweak_rx_capacity: Vec<(usize, usize)>,
    tweak_rx_cost: Vec<(usize, SimDuration)>,
    timing: Option<ProtocolTiming>,
    log_size: Option<usize>,
    skip_epoch_revoke: bool,
    reaccel_period: Option<SimDuration>,
    tracer: Tracer,
}

impl ClusterBuilder {
    /// A cluster of `n_members` (1 leader + n-1 replicas at steady state).
    ///
    /// # Panics
    ///
    /// Panics if `n_members < 2`.
    pub fn new(n_members: usize) -> Self {
        assert!(n_members >= 2, "a cluster needs at least two members");
        ClusterBuilder {
            n_members,
            workload: None,
            switch_cfg: P4ceSwitchConfig::default(),
            link: LinkSpec::default(),
            backup_fabric: false,
            seed: 42,
            async_reconfig: false,
            parser_cost: None,
            verb_cost: None,
            tweak_rx_capacity: Vec::new(),
            tweak_rx_cost: Vec::new(),
            timing: None,
            log_size: None,
            skip_epoch_revoke: false,
            reaccel_period: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the leader-driven workload.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Overrides the switch program configuration.
    pub fn switch_config(mut self, cfg: P4ceSwitchConfig) -> Self {
        self.switch_cfg = cfg;
        self
    }

    /// Selects the ACK-drop placement (the §IV-D ablation).
    pub fn ack_drop(mut self, stage: AckDropStage) -> Self {
        self.switch_cfg.ack_drop = stage;
        self
    }

    /// Selects how the switch aggregates flow-control credits (the §IV-C
    /// design choice vs. the naive passthrough).
    pub fn credit_mode(mut self, mode: p4ce_switch::CreditMode) -> Self {
        self.switch_cfg.credit_mode = mode;
        self
    }

    /// Overrides the link characteristics.
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Adds a second, plain-L3 fabric every host is also connected to
    /// (needed for the switch-crash fail-over experiment).
    pub fn backup_fabric(mut self, enable: bool) -> Self {
        self.backup_fabric = enable;
        self
    }

    /// Reconfigure the switch asynchronously (keep replicating while the
    /// group rebuilds) — the Lesson-3 extension.
    pub fn async_reconfig(mut self, enable: bool) -> Self {
        self.async_reconfig = enable;
        self
    }

    /// Sets the deterministic simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the link-management and failure-detection timing (chaos
    /// tests tighten these to provoke reconnects quickly).
    pub fn timing(mut self, timing: ProtocolTiming) -> Self {
        self.timing = Some(timing);
        self
    }

    /// Overrides each member's replicated-log size (default 16 MiB).
    /// Model-checking runs shrink it so thousands of re-executions stay
    /// cheap.
    pub fn log_size(mut self, bytes: usize) -> Self {
        self.log_size = Some(bytes);
        self
    }

    /// **Test-only mutation**: disable old-epoch grant revocation (see
    /// [`P4ceMemberConfig::skip_epoch_revoke`]). Used by the explorer to
    /// prove its single-writer oracle catches the bug.
    pub fn skip_epoch_revoke(mut self, enable: bool) -> Self {
        self.skip_epoch_revoke = enable;
        self
    }

    /// Runs the cluster behind a plain (non-P4CE) fabric: the switch
    /// ignores group requests, so leaders fall back to direct
    /// replication (§III-A).
    pub fn p4ce_enabled(mut self, enable: bool) -> Self {
        self.switch_cfg.p4ce_enabled = enable;
        self
    }

    /// Overrides how long a leader waits on the switch before falling
    /// back to direct replication (and how often it re-probes for
    /// acceleration). Model-checking runs shrink it so fallback
    /// scenarios stay cheap.
    pub fn reaccel_period(mut self, period: SimDuration) -> Self {
        self.reaccel_period = Some(period);
        self
    }

    /// Attaches a trace sink. Member hosts emit records labelled `m0`,
    /// `m1`, …; the P4CE switch emits as `switch`. Disabled by default —
    /// the hot paths then pay a single branch per potential event.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Overrides the switch's per-parser packet cost (scaled-down parser
    /// budgets for the §IV-D ablation).
    pub fn parser_cost(mut self, cost: SimDuration) -> Self {
        self.parser_cost = Some(cost);
        self
    }

    /// Overrides every host's CPU cost per verb interaction (post/reap) —
    /// the calibration knob behind the paper's CPU-bound rates.
    pub fn verb_cost(mut self, cost: SimDuration) -> Self {
        self.verb_cost = Some(cost);
        self
    }

    /// Shrinks member `i`'s NIC receive capacity (slow-replica credit
    /// experiments).
    pub fn member_rx_capacity(mut self, member: usize, capacity: usize) -> Self {
        self.tweak_rx_capacity.push((member, capacity));
        self
    }

    /// Slows member `i`'s NIC receive engine (per-packet processing
    /// cost) — a straggling replica.
    pub fn member_rx_cost(mut self, member: usize, cost: SimDuration) -> Self {
        self.tweak_rx_cost.push((member, cost));
        self
    }

    /// Assembles the simulation.
    pub fn build(self) -> Deployment {
        let member_ip = |i: usize| Ipv4Addr::new(10, 0, 0, 1 + i as u8);
        let switch_ip = Ipv4Addr::new(10, 0, 0, 100);
        let ips: Vec<Ipv4Addr> = (0..self.n_members).map(member_ip).collect();
        let mut cluster = ClusterConfig::new(&ips);
        if let Some(timing) = self.timing {
            cluster.timing = timing;
        }
        if let Some(bytes) = self.log_size {
            cluster.log_size = bytes;
        }
        let mut sim = Simulation::new(self.seed);

        let mut members = Vec::new();
        for i in 0..self.n_members {
            let mut mcfg = P4ceMemberConfig::new(cluster.clone(), MemberId(i as u8), switch_ip);
            mcfg.workload = self.workload;
            mcfg.async_reconfig = self.async_reconfig;
            mcfg.skip_epoch_revoke = self.skip_epoch_revoke;
            if let Some(period) = self.reaccel_period {
                mcfg.reaccel_period = period;
            }
            if self.backup_fabric {
                // Ports follow connection order: the primary fabric is
                // connected first (port 0), the backup second (port 1).
                mcfg.backup_port = Some(netsim::PortId::from_index(1));
                mcfg.path_failover_delay = SimDuration::from_millis(55);
            }
            let mut hcfg = HostConfig::new(member_ip(i));
            hcfg.tracer = self.tracer.labeled(&format!("m{i}"));
            if let Some(cost) = self.verb_cost {
                hcfg.post_cost = cost;
                hcfg.reap_cost = cost;
            }
            if let Some(&(_, cap)) = self.tweak_rx_capacity.iter().find(|&&(m, _)| m == i) {
                hcfg.rx_capacity = cap;
            }
            if let Some(&(_, cost)) = self.tweak_rx_cost.iter().find(|&&(m, _)| m == i) {
                hcfg.nic_rx_cost = cost;
            }
            members.push(sim.add_node(Box::new(Host::new(hcfg, P4ceMember::new(mcfg)))));
        }

        let program = P4ceProgram::new(self.switch_cfg);
        let mut hw = SwitchConfig::tofino1(switch_ip);
        hw.tracer = self.tracer.labeled("switch");
        if let Some(cost) = self.parser_cost {
            hw.parser_cost = cost;
        }
        let switch = sim.add_node(Box::new(Switch::new(hw, self.n_members, program)));
        for (i, &m) in members.iter().enumerate() {
            let (_, swp) = sim.connect(m, switch, self.link);
            sim.node_mut::<Switch<P4ceProgram>>(switch)
                .add_route(member_ip(i), swp);
        }

        let backup = if self.backup_fabric {
            let backup_ip = Ipv4Addr::new(10, 0, 0, 101);
            let b = sim.add_node(Box::new(Switch::new(
                SwitchConfig::tofino1(backup_ip),
                self.n_members,
                L3Forwarder,
            )));
            for (i, &m) in members.iter().enumerate() {
                let (_, swp) = sim.connect(m, b, self.link);
                sim.node_mut::<Switch<L3Forwarder>>(b)
                    .add_route(member_ip(i), swp);
            }
            Some(b)
        } else {
            None
        };

        Deployment::new(sim, cluster, members, switch, backup)
    }
}

/// A built P4CE deployment; [`Deployment::switch_program`] reads the
/// switch's stats.
pub type Deployment = mu::Deployment<SwitchGroup>;
