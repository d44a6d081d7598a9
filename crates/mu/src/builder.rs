//! One-call construction of a deployment: members behind one switch,
//! links and routes, and an optional backup fabric.
//!
//! The wiring is written once, in [`ClusterBuilder::wire`]: Mu's `build`
//! calls it with a plain L3 switch, and P4CE's builder calls it with its
//! switch program and member settings.

use netsim::{LinkSpec, NodeId, PortId, SimDuration, Simulation, Tracer};
use rdma::{Host, HostConfig};
use replication::{ClusterConfig, MemberId, ProtocolTiming, WorkloadSpec};
use std::marker::PhantomData;
use std::net::Ipv4Addr;
use tofino::{L3Forwarder, Switch, SwitchConfig, SwitchProgram};

use crate::deployment::{member_label, Deployment};
use crate::member::{Comm, Member, MuMemberConfig};

/// The fabric switch's address.
pub const SWITCH_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

const BACKUP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 101);

/// The most members one group can have: member `i` is host `.(1+i)`,
/// which must stay below the switch's `.100` and the backup's `.101`.
pub const MAX_GROUP_MEMBERS: usize = SWITCH_IP.octets()[3] as usize - 1;

/// The most groups one switch can carry: group `g` is the third octet.
pub(crate) const MAX_GROUPS: usize = 256;

/// The address of member `i` of group `g`: `10.0.g.(1+i)`. With one
/// group this is `10.0.0.(1+i)`.
///
/// # Panics
///
/// Panics if `g` or `i` is outside the address scheme.
pub fn member_ip(g: usize, i: usize) -> Ipv4Addr {
    assert!(
        g < MAX_GROUPS && i < MAX_GROUP_MEMBERS,
        "member {i} of group {g} has no address in 10.0.g.(1+i)"
    );
    Ipv4Addr::new(10, 0, g as u8, 1 + i as u8)
}

/// Builds a ready-to-run Mu cluster inside a [`Simulation`].
///
/// ```
/// use mu::ClusterBuilder;
/// use replication::WorkloadSpec;
/// use netsim::SimTime;
///
/// let mut deployment = ClusterBuilder::new(3)
///     .workload(WorkloadSpec::closed(4, 64, 100))
///     .build();
/// deployment.sim.run_until(SimTime::from_millis(50));
/// assert_eq!(deployment.leader().stats.decided, 100);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    n_members: usize,
    workload: Option<WorkloadSpec>,
    link: LinkSpec,
    backup_fabric: bool,
    seed: u64,
    verb_cost: Option<SimDuration>,
    tweak_rx_capacity: Vec<(usize, usize)>,
    timing: Option<ProtocolTiming>,
    log_size: Option<usize>,
    tracer: Tracer,
}

impl ClusterBuilder {
    /// A cluster of `n_members` (1 leader + n-1 replicas at steady state).
    ///
    /// # Panics
    ///
    /// Panics if `n_members < 2` or `n_members > MAX_GROUP_MEMBERS`.
    pub fn new(n_members: usize) -> Self {
        assert!(n_members >= 2, "a cluster needs at least two members");
        assert!(
            n_members <= MAX_GROUP_MEMBERS,
            "{n_members} members per group: the address scheme 10.0.g.(1+i) \
             gives at most {MAX_GROUP_MEMBERS} before the switch's {SWITCH_IP}"
        );
        ClusterBuilder {
            n_members,
            workload: None,
            link: LinkSpec::default(),
            backup_fabric: false,
            seed: 42,
            verb_cost: None,
            tweak_rx_capacity: Vec::new(),
            timing: None,
            log_size: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the leader-driven workload.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Overrides the link characteristics.
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Adds a second, plain-L3 fabric every host is also connected to
    /// (switch-crash fail-over).
    pub fn backup_fabric(mut self, enable: bool) -> Self {
        self.backup_fabric = enable;
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

    /// Attaches a trace sink. Each member's host (and application) emits
    /// records labelled `m0`, `m1`, … (`g{g}m{i}` with several groups);
    /// the switch's program emits as `switch`. Disabled by default — the
    /// hot paths then pay a single branch per potential event.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Shrinks member `i`'s NIC receive capacity.
    pub fn member_rx_capacity(mut self, member: usize, capacity: usize) -> Self {
        self.tweak_rx_capacity.push((member, capacity));
        self
    }

    /// Overrides every host's CPU cost per verb interaction (post/reap) —
    /// the calibration knob behind the paper's CPU-bound rates.
    pub fn verb_cost(mut self, cost: SimDuration) -> Self {
        self.verb_cost = Some(cost);
        self
    }

    /// Assembles the simulation.
    pub fn build(self) -> Deployment {
        self.wire(
            1,
            SwitchConfig::tofino1(SWITCH_IP),
            L3Forwarder,
            |_, cfg, _| cfg,
        )
    }

    /// The wiring every deployment shares: `groups` groups of this
    /// builder's size behind one switch built from `hw` and `program`.
    ///
    /// Member `i` of group `g` is addressed [`member_ip`]`(g, i)` and sits
    /// at [`Deployment::at`]`(g, i)`. Each member starts from the
    /// decision module's configuration (its group's [`ClusterConfig`],
    /// id, workload, backup port) and its host configuration (address,
    /// trace label, verb cost, receive capacity); `finish(k, cfg, host)`
    /// turns them into member `k`'s strategy configuration and may adjust
    /// its host.
    ///
    /// Construction order fixes node and port ids, so it is part of every
    /// run: all members group-major, then the switch, then its links in
    /// member order, then the backup fabric the same way. Ports follow
    /// connection order, so a host's primary fabric is port 0 and its
    /// backup port 1.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or more than 256.
    pub fn wire<C: Comm, P: SwitchProgram + 'static>(
        &self,
        groups: usize,
        mut hw: SwitchConfig,
        program: P,
        mut finish: impl FnMut(usize, MuMemberConfig, &mut HostConfig) -> C::Config,
    ) -> Deployment<C> {
        assert!(
            (1..=MAX_GROUPS).contains(&groups),
            "{groups} groups: the address scheme 10.0.g.(1+i) gives 1 to {MAX_GROUPS}"
        );
        let n = self.n_members;
        let mut sim = Simulation::new(self.seed);

        let mut members = Vec::with_capacity(groups * n);
        for g in 0..groups {
            let ips: Vec<Ipv4Addr> = (0..n).map(|i| member_ip(g, i)).collect();
            let mut cluster = ClusterConfig::new(&ips);
            if let Some(timing) = self.timing {
                cluster.timing = timing;
            }
            if let Some(bytes) = self.log_size {
                cluster.log_size = bytes;
            }
            for (i, &ip) in ips.iter().enumerate() {
                let k = members.len();
                let mut mcfg = MuMemberConfig::new(cluster.clone(), MemberId(i as u8));
                mcfg.workload = self.workload;
                if self.backup_fabric {
                    mcfg.backup_port = Some(PortId::from_index(1));
                }
                let mut hcfg = HostConfig::new(ip);
                hcfg.tracer = self.tracer.labeled(&member_label(groups, g, i));
                if let Some(cost) = self.verb_cost {
                    hcfg.post_cost = cost;
                    hcfg.reap_cost = cost;
                }
                if let Some(&(_, cap)) = self.tweak_rx_capacity.iter().find(|&&(m, _)| m == k) {
                    hcfg.rx_capacity = cap;
                }
                let cfg = finish(k, mcfg, &mut hcfg);
                members.push(sim.add_node(Box::new(Host::new(hcfg, Member::<C>::new(cfg)))));
            }
        }

        hw.tracer = self.tracer.labeled("switch");
        let switch = self.attach(&mut sim, &members, hw, program);
        if self.backup_fabric {
            self.attach(
                &mut sim,
                &members,
                SwitchConfig::tofino1(BACKUP_IP),
                L3Forwarder,
            );
        }

        Deployment {
            sim,
            members,
            switch,
            group_size: n,
            comm: PhantomData,
        }
    }

    /// Adds a switch and links every member to it, with a route to each.
    fn attach<P: SwitchProgram + 'static>(
        &self,
        sim: &mut Simulation,
        members: &[NodeId],
        hw: SwitchConfig,
        program: P,
    ) -> NodeId {
        let switch = sim.add_node(Box::new(Switch::new(hw, members.len(), program)));
        for (k, &m) in members.iter().enumerate() {
            let (_, swp) = sim.connect(m, switch, self.link);
            sim.node_mut::<Switch<P>>(switch)
                .add_route(member_ip(k / self.n_members, k % self.n_members), swp);
        }
        switch
    }
}
