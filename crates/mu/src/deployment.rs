//! A built cluster: the simulation plus where its members and fabric
//! switch live, for either communication strategy.

use netsim::{NodeId, Simulation};
use rdma::Host;
use replication::ClusterConfig;
use std::marker::PhantomData;
use tofino::Switch;

use crate::direct::Direct;
use crate::member::{Accelerator, Comm, Member};

/// A built deployment of members running strategy `C` (Mu's [`Direct`]
/// unless named otherwise).
pub struct Deployment<C: Comm = Direct> {
    /// The simulation to drive.
    pub sim: Simulation,
    /// The cluster description.
    pub cluster: ClusterConfig,
    /// Member node ids, in member-id order.
    pub members: Vec<NodeId>,
    /// The fabric switch node id.
    pub switch: NodeId,
    /// The backup fabric node id, if built.
    pub backup: Option<NodeId>,
    comm: PhantomData<fn() -> C>,
}

impl<C: Comm> Deployment<C> {
    /// Wraps a simulation whose nodes `members` host [`Member<C>`]s.
    pub fn new(
        sim: Simulation,
        cluster: ClusterConfig,
        members: Vec<NodeId>,
        switch: NodeId,
        backup: Option<NodeId>,
    ) -> Self {
        Deployment {
            sim,
            cluster,
            members,
            switch,
            backup,
            comm: PhantomData,
        }
    }

    /// The member application of member `i`.
    pub fn member(&self, i: usize) -> &Member<C> {
        self.sim.node_ref::<Host<Member<C>>>(self.members[i]).app()
    }

    /// Mutable access to member `i` (e.g. to reset measurement windows).
    pub fn member_mut(&mut self, i: usize) -> &mut Member<C> {
        self.sim
            .node_mut::<Host<Member<C>>>(self.members[i])
            .app_mut()
    }

    /// Runs a closure against member `i` with live host operations — the
    /// way external code injects actions (e.g. proposing client values)
    /// into a running member.
    pub fn with_member<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut Member<C>, &mut rdma::HostOps<'_, '_>) -> R,
    ) -> R {
        let node = self.members[i];
        self.sim
            .with_node::<Host<Member<C>>, _>(node, |host, ctx| host.with_ops(ctx, f))
    }

    /// The steady-state leader (member 0).
    pub fn leader(&self) -> &Member<C> {
        self.member(0)
    }

    /// Crashes member `i` (process + NIC power-off).
    pub fn kill_member(&mut self, i: usize) {
        let node = self.members[i];
        self.sim.set_node_down(node, true);
    }

    /// Powers the fabric switch off.
    pub fn kill_switch(&mut self) {
        let node = self.switch;
        self.sim.set_node_down(node, true);
    }
}

impl<C: Accelerator> Deployment<C> {
    /// The fabric switch's program, for stats.
    pub fn switch_program(&self) -> &C::Program {
        self.sim
            .node_ref::<Switch<C::Program>>(self.switch)
            .program()
    }
}

impl<C: Comm> std::fmt::Debug for Deployment<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("members", &self.members.len())
            .field("backup", &self.backup.is_some())
            .finish()
    }
}
