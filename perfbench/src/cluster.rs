//! The deployments a workload runs on: the builders' own (untraced) and
//! the benchmark's wrapped copy of them (traced), behind one interface.

use std::marker::PhantomData;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mu::{MuMember, MuMemberConfig};
use netsim::{Context, LinkSpec, Node, NodeId, SimDuration, Simulation, Tracer};
use p4ce::{P4ceMember, P4ceMemberConfig, P4ceProgram, P4ceSwitchConfig};
use p4ce_switch::P4ceSwitchStats;
use rdma::{Host, HostConfig, HostOps, HostStats};
use replication::{ClusterConfig, MemberId};
use tofino::{L3Forwarder, Switch, SwitchConfig, SwitchStats};

use crate::check::{Recorder, SharedLog};
use crate::wrap::{Member, TimedApp, TimedNode, TimedProgram};

/// What to build.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Members in the consensus group.
    pub members: usize,
    /// Simulation seed.
    pub seed: u64,
}

/// A member host node, bare or wrapped.
pub trait HostNode: Node {
    /// The member application.
    type App: Member;
    /// The host.
    fn host(&self) -> &Host<Self::App>;
    /// The host, mutably.
    fn host_mut(&mut self) -> &mut Host<Self::App>;
    /// Runs `f` against the member with live host operations.
    fn with_ops<R>(
        &mut self,
        ctx: &mut Context<'_>,
        f: impl FnOnce(&mut Self::App, &mut HostOps<'_, '_>) -> R,
    ) -> R;
}

impl<M: Member> HostNode for Host<M> {
    type App = M;
    fn host(&self) -> &Host<M> {
        self
    }
    fn host_mut(&mut self) -> &mut Host<M> {
        self
    }
    fn with_ops<R>(
        &mut self,
        ctx: &mut Context<'_>,
        f: impl FnOnce(&mut M, &mut HostOps<'_, '_>) -> R,
    ) -> R {
        Host::with_ops(self, ctx, f)
    }
}

impl<M: Member> HostNode for TimedNode<Host<TimedApp<M>>> {
    type App = TimedApp<M>;
    fn host(&self) -> &Host<TimedApp<M>> {
        &self.inner
    }
    fn host_mut(&mut self) -> &mut Host<TimedApp<M>> {
        &mut self.inner
    }
    fn with_ops<R>(
        &mut self,
        ctx: &mut Context<'_>,
        f: impl FnOnce(&mut TimedApp<M>, &mut HostOps<'_, '_>) -> R,
    ) -> R {
        self.timed(|host| host.with_ops(ctx, f))
    }
}

/// The switch node, bare or wrapped.
pub trait SwitchNode: Node {
    /// Pipeline counters, and the P4CE program's when it runs one.
    fn counters(&self) -> (SwitchStats, Option<P4ceSwitchStats>);
}

impl SwitchNode for Switch<P4ceProgram> {
    fn counters(&self) -> (SwitchStats, Option<P4ceSwitchStats>) {
        (self.stats(), Some(self.program().stats))
    }
}

impl SwitchNode for Switch<L3Forwarder> {
    fn counters(&self) -> (SwitchStats, Option<P4ceSwitchStats>) {
        (self.stats(), None)
    }
}

impl SwitchNode for TimedNode<Switch<TimedProgram<P4ceProgram>>> {
    fn counters(&self) -> (SwitchStats, Option<P4ceSwitchStats>) {
        (self.inner.stats(), Some(self.inner.program().inner.stats))
    }
}

impl SwitchNode for TimedNode<Switch<L3Forwarder>> {
    fn counters(&self) -> (SwitchStats, Option<P4ceSwitchStats>) {
        (self.inner.stats(), None)
    }
}

/// A deployment: its simulation, node ids and the members' applied logs.
pub struct Cluster<H, S> {
    /// The simulation.
    pub sim: Simulation,
    /// Member node ids, in member-id order.
    pub members: Vec<NodeId>,
    /// The switch node id.
    pub switch: NodeId,
    /// Each member's applied log, in member-id order.
    pub logs: Vec<SharedLog>,
    nodes: PhantomData<fn() -> (H, S)>,
}

impl<H: HostNode, S: SwitchNode> Cluster<H, S> {
    /// Member `i`'s application.
    pub fn app(&self, i: usize) -> &H::App {
        self.host(i).app()
    }

    /// Member `i`'s host.
    pub fn host(&self, i: usize) -> &Host<H::App> {
        self.sim.node_ref::<H>(self.members[i]).host()
    }

    /// Member `i`'s application, mutably.
    pub fn app_mut(&mut self, i: usize) -> &mut H::App {
        self.sim.node_mut::<H>(self.members[i]).host_mut().app_mut()
    }

    /// Proposes `payload` through member `i`; `false` when refused.
    pub fn propose(&mut self, i: usize, payload: Bytes) -> bool {
        self.sim.with_node::<H, _>(self.members[i], |node, ctx| {
            node.with_ops(ctx, |app, ops| app.propose(payload, ops))
        })
    }

    /// Crashes member `i`.
    pub fn kill(&mut self, i: usize) {
        self.sim.set_node_down(self.members[i], true);
    }

    /// `true` unless member `i` was killed.
    pub fn live(&self, i: usize) -> bool {
        !self.sim.is_node_down(self.members[i])
    }

    /// Host counters of member `i`.
    pub fn host_stats(&self, i: usize) -> HostStats {
        self.host(i).stats()
    }

    /// Simulated CPU busy time of member `i`'s host.
    pub fn cpu_busy(&self, i: usize) -> SimDuration {
        self.host(i).cpu_busy()
    }

    /// Switch counters.
    pub fn switch_counters(&self) -> (SwitchStats, Option<P4ceSwitchStats>) {
        self.sim.node_ref::<S>(self.switch).counters()
    }

    /// Bytes clocked onto every link, both directions.
    pub fn wire_bytes(&self) -> u64 {
        let mut total = 0;
        for &node in self.members.iter().chain([&self.switch]) {
            for p in 0..self.sim.port_count(node) {
                total += self
                    .sim
                    .link_stats(node, netsim::PortId::from_index(p as u32))
                    .wire_bytes;
            }
        }
        total
    }
}

fn new_logs(n: usize) -> Vec<SharedLog> {
    (0..n).map(|_| SharedLog::default()).collect()
}

fn assemble<H, S>(
    sim: Simulation,
    members: Vec<NodeId>,
    switch: NodeId,
    logs: Vec<SharedLog>,
) -> Cluster<H, S> {
    Cluster {
        sim,
        members,
        switch,
        logs,
        nodes: PhantomData,
    }
}

/// Installs a [`Recorder`] on every member of a builder-made deployment.
fn record_plain<M: Member, S>(
    mut sim: Simulation,
    members: Vec<NodeId>,
    switch: NodeId,
) -> Cluster<Host<M>, S> {
    let logs = new_logs(members.len());
    for (&id, log) in members.iter().zip(&logs) {
        sim.node_mut::<Host<M>>(id)
            .app_mut()
            .install(Box::new(Recorder(log.clone())));
    }
    assemble(sim, members, switch, logs)
}

/// The untraced P4CE deployment: `p4ce::ClusterBuilder::build` itself.
pub type PlainP4ce = Cluster<Host<P4ceMember>, Switch<P4ceProgram>>;
/// The untraced Mu deployment: `mu::ClusterBuilder::build` itself.
pub type PlainMu = Cluster<Host<MuMember>, Switch<L3Forwarder>>;
/// The wrapped P4CE deployment.
pub type TracedP4ce =
    Cluster<TimedNode<Host<TimedApp<P4ceMember>>>, TimedNode<Switch<TimedProgram<P4ceProgram>>>>;
/// The wrapped Mu deployment.
pub type TracedMu = Cluster<TimedNode<Host<TimedApp<MuMember>>>, TimedNode<Switch<L3Forwarder>>>;

/// Builds the untraced P4CE deployment.
pub fn plain_p4ce(spec: &Spec) -> PlainP4ce {
    let d = p4ce::ClusterBuilder::new(spec.members)
        .seed(spec.seed)
        .build();
    record_plain(d.sim, d.members, d.switch)
}

/// Builds the untraced Mu deployment.
pub fn plain_mu(spec: &Spec) -> PlainMu {
    let d = mu::ClusterBuilder::new(spec.members)
        .seed(spec.seed)
        .build();
    record_plain(d.sim, d.members, d.switch)
}

// Both builders address member `i` as 10.0.0.(1+i) and the switch as
// 10.0.0.100, and wire every member to the switch in member order.
fn member_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1 + i as u8)
}

const SWITCH_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn host_config(i: usize) -> HostConfig {
    let mut hcfg = HostConfig::new(member_ip(i));
    hcfg.tracer = Tracer::disabled().labeled(&format!("m{i}"));
    hcfg
}

/// Builds the wrapped P4CE deployment from the constructors
/// `p4ce::ClusterBuilder::build` uses, in the same order.
pub fn traced_p4ce(spec: &Spec) -> TracedP4ce {
    let ips: Vec<Ipv4Addr> = (0..spec.members).map(member_ip).collect();
    let cluster = ClusterConfig::new(&ips);
    let mut sim = Simulation::new(spec.seed);
    let logs = new_logs(spec.members);
    let mut members = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let mcfg = P4ceMemberConfig::new(cluster.clone(), MemberId(i as u8), SWITCH_IP);
        let mut member = P4ceMember::new(mcfg);
        member.set_state_machine(Box::new(Recorder(log.clone())));
        let host = Host::new(host_config(i), TimedApp { inner: member });
        members.push(sim.add_node(Box::new(TimedNode { inner: host })));
    }
    let program = TimedProgram {
        inner: P4ceProgram::new(P4ceSwitchConfig::default()),
    };
    let mut hw = SwitchConfig::tofino1(SWITCH_IP);
    hw.tracer = Tracer::disabled().labeled("switch");
    let switch = sim.add_node(Box::new(TimedNode {
        inner: Switch::new(hw, spec.members, program),
    }));
    for (i, &m) in members.iter().enumerate() {
        let (_, swp) = sim.connect(m, switch, LinkSpec::default());
        sim.node_mut::<TimedNode<Switch<TimedProgram<P4ceProgram>>>>(switch)
            .inner
            .add_route(member_ip(i), swp);
    }
    assemble(sim, members, switch, logs)
}

/// Builds the wrapped Mu deployment from the constructors
/// `mu::ClusterBuilder::build` uses, in the same order.
pub fn traced_mu(spec: &Spec) -> TracedMu {
    let ips: Vec<Ipv4Addr> = (0..spec.members).map(member_ip).collect();
    let cluster = ClusterConfig::new(&ips);
    let mut sim = Simulation::new(spec.seed);
    let logs = new_logs(spec.members);
    let mut members = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let mcfg = MuMemberConfig::new(cluster.clone(), MemberId(i as u8));
        let mut member = MuMember::new(mcfg);
        member.set_state_machine(Box::new(Recorder(log.clone())));
        let host = Host::new(host_config(i), TimedApp { inner: member });
        members.push(sim.add_node(Box::new(TimedNode { inner: host })));
    }
    let switch = sim.add_node(Box::new(TimedNode {
        inner: Switch::new(SwitchConfig::tofino1(SWITCH_IP), spec.members, L3Forwarder),
    }));
    for (i, &m) in members.iter().enumerate() {
        let (_, swp) = sim.connect(m, switch, LinkSpec::default());
        sim.node_mut::<TimedNode<Switch<L3Forwarder>>>(switch)
            .inner
            .add_route(member_ip(i), swp);
    }
    assemble(sim, members, switch, logs)
}
