//! One-call construction of a complete P4CE deployment: one or more
//! consensus groups behind the P4CE-programmed switch — and optionally a
//! backup plain-L3 fabric for switch-crash experiments. The members,
//! switch, links and routes are wired by [`mu::ClusterBuilder::wire`],
//! the same code that builds Mu.

use netsim::{LinkSpec, SimDuration, Tracer};
use p4ce_switch::{AckDropStage, GroupSpec, P4ceProgram, P4ceSwitchConfig};
use replication::{ProtocolTiming, WorkloadSpec};
use tofino::SwitchConfig;

use crate::member::{P4ceMemberConfig, SwitchGroup};

/// The most members one P4CE group can have: the leader's group request
/// names every replica in CM private data ([`GroupSpec::MAX_REPLICAS`]).
pub const MAX_GROUP_MEMBERS: usize = GroupSpec::MAX_REPLICAS + 1;

/// Builds a ready-to-run P4CE deployment inside a
/// [`netsim::Simulation`]: `groups` groups (one by default) of
/// `n_members` members each, behind one switch.
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
///
/// // Two groups behind the one switch; member `i` of group `g` is
/// // `d.member(d.at(g, i))`.
/// let mut d = ClusterBuilder::new(3).groups(2).build();
/// d.sim.run_until(SimTime::from_millis(100));
/// assert!(d.member(d.at(1, 0)).is_accelerated());
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    base: mu::ClusterBuilder,
    groups: usize,
    switch_cfg: P4ceSwitchConfig,
    async_reconfig: bool,
    parser_cost: Option<SimDuration>,
    parser_slices: Option<usize>,
    tweak_rx_cost: Vec<(usize, SimDuration)>,
    skip_epoch_revoke: bool,
    reaccel_period: Option<SimDuration>,
}

impl ClusterBuilder {
    /// A group of `n_members` (1 leader + n-1 replicas at steady state).
    ///
    /// # Panics
    ///
    /// Panics if `n_members < 2` or `n_members > MAX_GROUP_MEMBERS`.
    pub fn new(n_members: usize) -> Self {
        assert!(
            n_members <= MAX_GROUP_MEMBERS,
            "{n_members} members per P4CE group: the group request to the switch \
             names at most {} replicas, so a group has at most {MAX_GROUP_MEMBERS} members",
            GroupSpec::MAX_REPLICAS
        );
        ClusterBuilder {
            base: mu::ClusterBuilder::new(n_members),
            groups: 1,
            switch_cfg: P4ceSwitchConfig::default(),
            async_reconfig: false,
            parser_cost: None,
            parser_slices: None,
            tweak_rx_cost: Vec::new(),
            skip_epoch_revoke: false,
            reaccel_period: None,
        }
    }

    /// Builds `groups` independent consensus groups of this size behind
    /// the one switch (default 1). Group `g`'s members are
    /// `10.0.g.(1+i)` and trace as `g{g}m{i}`.
    ///
    /// # Panics
    ///
    /// Panics at build time if `groups` is zero or more than 256.
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Sets the leader-driven workload (every group's leader drives it).
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.base = self.base.workload(spec);
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
        self.base = self.base.link(link);
        self
    }

    /// Adds a second, plain-L3 fabric every host is also connected to
    /// (needed for the switch-crash fail-over experiment).
    pub fn backup_fabric(mut self, enable: bool) -> Self {
        self.base = self.base.backup_fabric(enable);
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
        self.base = self.base.seed(seed);
        self
    }

    /// Overrides the link-management and failure-detection timing (chaos
    /// tests tighten these to provoke reconnects quickly).
    pub fn timing(mut self, timing: ProtocolTiming) -> Self {
        self.base = self.base.timing(timing);
        self
    }

    /// Overrides each member's replicated-log size (default 16 MiB).
    /// Model-checking runs shrink it so thousands of re-executions stay
    /// cheap.
    pub fn log_size(mut self, bytes: usize) -> Self {
        self.base = self.base.log_size(bytes);
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
    /// `m1`, … (`g{g}m{i}` with several groups); the P4CE switch emits as
    /// `switch`. Disabled by default — the hot paths then pay a single
    /// branch per potential event.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.base = self.base.tracer(tracer);
        self
    }

    /// Overrides the switch's per-parser packet cost (scaled-down parser
    /// budgets for the §IV-D ablation).
    pub fn parser_cost(mut self, cost: SimDuration) -> Self {
        self.parser_cost = Some(cost);
        self
    }

    /// Pools the switch's ports onto `k` shared parser slices per
    /// direction (see [`SwitchConfig::parser_slices`]) — the contention
    /// model the groups-sweep experiment drives into its knee.
    pub fn parser_slices(mut self, k: usize) -> Self {
        self.parser_slices = Some(k);
        self
    }

    /// Overrides every host's CPU cost per verb interaction (post/reap) —
    /// the calibration knob behind the paper's CPU-bound rates.
    pub fn verb_cost(mut self, cost: SimDuration) -> Self {
        self.base = self.base.verb_cost(cost);
        self
    }

    /// Shrinks member `k`'s NIC receive capacity (slow-replica credit
    /// experiments).
    pub fn member_rx_capacity(mut self, member: usize, capacity: usize) -> Self {
        self.base = self.base.member_rx_capacity(member, capacity);
        self
    }

    /// Slows member `k`'s NIC receive engine (per-packet processing
    /// cost) — a straggling replica.
    pub fn member_rx_cost(mut self, member: usize, cost: SimDuration) -> Self {
        self.tweak_rx_cost.push((member, cost));
        self
    }

    /// Assembles the simulation.
    pub fn build(self) -> Deployment {
        let mut hw = SwitchConfig::tofino1(mu::SWITCH_IP);
        if let Some(cost) = self.parser_cost {
            hw.parser_cost = cost;
        }
        hw.parser_slices = self.parser_slices;
        let program = P4ceProgram::new(self.switch_cfg);
        self.base.wire(self.groups, hw, program, |k, base, host| {
            if let Some(&(_, cost)) = self.tweak_rx_cost.iter().find(|&&(m, _)| m == k) {
                host.nic_rx_cost = cost;
            }
            let mut cfg = P4ceMemberConfig::new(base.cluster, base.id, mu::SWITCH_IP);
            cfg.workload = base.workload;
            cfg.backup_port = base.backup_port;
            cfg.path_failover_delay = base.path_failover_delay;
            cfg.async_reconfig = self.async_reconfig;
            cfg.skip_epoch_revoke = self.skip_epoch_revoke;
            if let Some(period) = self.reaccel_period {
                cfg.reaccel_period = period;
            }
            cfg
        })
    }
}

/// A built P4CE deployment; [`Deployment::switch_program`] reads the
/// switch's stats.
pub type Deployment = mu::Deployment<SwitchGroup>;
