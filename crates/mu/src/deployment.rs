//! A built cluster: the simulation plus where its members and fabric
//! switch live, for either communication strategy and any number of
//! groups behind the one switch.

use netsim::{NodeId, Simulation};
use rdma::Host;
use std::marker::PhantomData;
use tofino::Switch;

use crate::direct::Direct;
use crate::member::{Accelerator, Comm, Member};

/// The trace label of member `i` of group `g` in a deployment of
/// `groups` groups: `m{i}` for one group, `g{g}m{i}` for more.
pub(crate) fn member_label(groups: usize, g: usize, i: usize) -> String {
    if groups == 1 {
        format!("m{i}")
    } else {
        format!("g{g}m{i}")
    }
}

/// A built deployment of members running strategy `C` (Mu's [`Direct`]
/// unless named otherwise).
///
/// Every per-member accessor takes one index into [`Deployment::members`]:
/// with one group it is the member id, and member `i` of group `g` is at
/// [`Deployment::at`]`(g, i)`.
pub struct Deployment<C: Comm = Direct> {
    /// The simulation to drive.
    pub sim: Simulation,
    /// Member node ids, group-major and in member-id order within a
    /// group.
    pub members: Vec<NodeId>,
    /// The fabric switch node id.
    pub switch: NodeId,
    pub(crate) group_size: usize,
    pub(crate) comm: PhantomData<fn() -> C>,
}

impl<C: Comm> Deployment<C> {
    /// Number of groups behind the switch.
    pub fn groups(&self) -> usize {
        self.members.len() / self.group_size
    }

    /// Members per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The index of member `i` of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a member id of the groups' size.
    pub fn at(&self, g: usize, i: usize) -> usize {
        assert!(
            i < self.group_size,
            "member {i} of a {}-member group",
            self.group_size
        );
        g * self.group_size + i
    }

    /// The trace label of member `k` (`m{i}`, or `g{g}m{i}` with several
    /// groups).
    pub fn label(&self, k: usize) -> String {
        member_label(self.groups(), k / self.group_size, k % self.group_size)
    }

    /// The member application of member `k`.
    pub fn member(&self, k: usize) -> &Member<C> {
        self.sim.node_ref::<Host<Member<C>>>(self.members[k]).app()
    }

    /// Mutable access to member `k` (e.g. to reset measurement windows).
    pub fn member_mut(&mut self, k: usize) -> &mut Member<C> {
        self.sim
            .node_mut::<Host<Member<C>>>(self.members[k])
            .app_mut()
    }

    /// Runs a closure against member `k` with live host operations — the
    /// way external code injects actions (e.g. proposing client values)
    /// into a running member.
    pub fn with_member<R>(
        &mut self,
        k: usize,
        f: impl FnOnce(&mut Member<C>, &mut rdma::HostOps<'_, '_>) -> R,
    ) -> R {
        let node = self.members[k];
        self.sim
            .with_node::<Host<Member<C>>, _>(node, |host, ctx| host.with_ops(ctx, f))
    }

    /// The steady-state leader (member 0 of group 0).
    pub fn leader(&self) -> &Member<C> {
        self.member(0)
    }

    /// Crashes member `k` (process + NIC power-off).
    pub fn kill_member(&mut self, k: usize) {
        let node = self.members[k];
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
            .field("groups", &self.groups())
            .field("group_size", &self.group_size)
            .finish()
    }
}
