//! One-call construction of a Mu deployment: members behind a plain L3
//! switch fabric, with an optional backup fabric.

use netsim::{LinkSpec, SimDuration, Simulation, Tracer};
use rdma::{Host, HostConfig};
use replication::{ClusterConfig, MemberId, ProtocolTiming, WorkloadSpec};
use std::net::Ipv4Addr;
use tofino::{L3Forwarder, Switch, SwitchConfig};

use crate::deployment::Deployment;
use crate::direct::MuMember;
use crate::member::MuMemberConfig;

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
    /// Panics if `n_members < 2`.
    pub fn new(n_members: usize) -> Self {
        assert!(n_members >= 2, "a cluster needs at least two members");
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

    /// Adds a second, plain-L3 fabric (switch-crash fail-over).
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
    /// records labelled `m0`, `m1`, … Disabled by default — the hot paths
    /// then pay a single branch per potential event.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Shrinks member `i`'s NIC receive capacity.
    pub fn member_rx_capacity(mut self, member: usize, capacity: usize) -> Self {
        self.tweak_rx_capacity.push((member, capacity));
        self
    }

    /// Overrides every host's CPU cost per verb interaction (post/reap).
    pub fn verb_cost(mut self, cost: SimDuration) -> Self {
        self.verb_cost = Some(cost);
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
            let mut mcfg = MuMemberConfig::new(cluster.clone(), MemberId(i as u8));
            mcfg.workload = self.workload;
            if self.backup_fabric {
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
            members.push(sim.add_node(Box::new(Host::new(hcfg, MuMember::new(mcfg)))));
        }

        let switch = sim.add_node(Box::new(Switch::new(
            SwitchConfig::tofino1(switch_ip),
            self.n_members,
            L3Forwarder,
        )));
        for (i, &m) in members.iter().enumerate() {
            let (_, swp) = sim.connect(m, switch, self.link);
            sim.node_mut::<Switch<L3Forwarder>>(switch)
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
