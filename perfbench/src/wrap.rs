//! Forwarding wrappers at the three layer boundaries of a deployment.
//!
//! Each wrapper calls straight through to the wrapped value and only
//! opens a [`ledger`] span around the call:
//!
//! - [`TimedNode`] around every `netsim::Node` (hosts and the switch),
//!   which separates the engine from the nodes;
//! - [`TimedApp`] around every member's `rdma::RdmaApp`, which separates
//!   the `rdma` host from `core`/`mu`;
//! - [`TimedProgram`] around the `tofino::SwitchProgram`, which separates
//!   the pipeline from `p4ce-switch`.
//!
//! None of them touches the frames, timers or randomness the simulation
//! sees, which is what lets the traced deployment reproduce the builder's
//! run event for event.

use bytes::Bytes;
use mu::{MemberStats, MuMember};
use netsim::{Context, Frame, Node, PortId, SimTime, TimerToken};
use p4ce::P4ceMember;
use rdma::{CmEvent, Completion, Host, HostOps, NakCode, Qpn, RdmaApp, RegionHandle, RoceView};
use replication::StateMachine;
use tofino::{
    ControlOps, EgressMeta, IngressMeta, IngressVerdict, PipelineOps, Switch, SwitchProgram,
    ViewVerdict,
};

use crate::ledger::{self, Layer};

/// What the benchmark needs from a member application, for both systems.
pub trait Member: RdmaApp {
    /// `true` while this member believes it is the leader.
    fn leads(&self) -> bool;
    /// `true` while this member leads with a working replication path
    /// (for P4CE: accelerated through the switch).
    fn steady(&self) -> bool;
    /// `true` while proposals are accepted.
    fn operational(&self) -> bool;
    /// Measurement counters.
    fn stats(&self) -> &MemberStats;
    /// Restarts the latency and throughput window at `now`.
    fn reset_measurements(&mut self, now: SimTime);
    /// Proposes a client value; `false` when refused.
    fn propose(&mut self, payload: Bytes, ops: &mut HostOps<'_, '_>) -> bool;
    /// Installs the replicated state machine.
    fn install(&mut self, sm: Box<dyn StateMachine>);
}

impl Member for P4ceMember {
    fn leads(&self) -> bool {
        self.believed_leader() == Some(self.id())
    }
    fn steady(&self) -> bool {
        self.is_operational_leader() && self.is_accelerated()
    }
    fn operational(&self) -> bool {
        self.is_operational_leader()
    }
    fn stats(&self) -> &MemberStats {
        &self.stats
    }
    fn reset_measurements(&mut self, now: SimTime) {
        P4ceMember::reset_measurements(self, now);
    }
    fn propose(&mut self, payload: Bytes, ops: &mut HostOps<'_, '_>) -> bool {
        self.propose_value(payload, ops)
    }
    fn install(&mut self, sm: Box<dyn StateMachine>) {
        self.set_state_machine(sm);
    }
}

impl Member for MuMember {
    fn leads(&self) -> bool {
        self.believed_leader() == Some(self.id())
    }
    fn steady(&self) -> bool {
        self.is_operational_leader()
    }
    fn operational(&self) -> bool {
        self.is_operational_leader()
    }
    fn stats(&self) -> &MemberStats {
        &self.stats
    }
    fn reset_measurements(&mut self, now: SimTime) {
        MuMember::reset_measurements(self, now);
    }
    fn propose(&mut self, payload: Bytes, ops: &mut HostOps<'_, '_>) -> bool {
        self.propose_value(payload, ops)
    }
    fn install(&mut self, sm: Box<dyn StateMachine>) {
        self.set_state_machine(sm);
    }
}

/// A member application whose callbacks run inside a member span.
pub struct TimedApp<M> {
    /// The wrapped member.
    pub inner: M,
}

impl<M: Member> TimedApp<M> {
    fn layer(&self) -> Layer {
        if self.inner.leads() {
            Layer::MemberLeader
        } else {
            Layer::MemberReplica
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        ledger::enter(self.layer());
        let r = f(&mut self.inner);
        ledger::exit();
        r
    }
}

impl<M: Member> RdmaApp for TimedApp<M> {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        self.timed(|m| m.on_start(ops));
    }
    fn on_completion(&mut self, completion: Completion, ops: &mut HostOps<'_, '_>) {
        self.timed(|m| m.on_completion(completion, ops));
    }
    fn on_cm_event(&mut self, event: CmEvent, ops: &mut HostOps<'_, '_>) {
        self.timed(|m| m.on_cm_event(event, ops));
    }
    fn on_remote_write(
        &mut self,
        region: RegionHandle,
        offset: u64,
        payload: &Bytes,
        ops: &mut HostOps<'_, '_>,
    ) {
        self.timed(|m| m.on_remote_write(region, offset, payload, ops));
    }
    fn on_timer(&mut self, token: u64, ops: &mut HostOps<'_, '_>) {
        self.timed(|m| m.on_timer(token, ops));
    }
    fn on_nak(&mut self, qpn: Qpn, code: NakCode, ops: &mut HostOps<'_, '_>) {
        self.timed(|m| m.on_nak(qpn, code, ops));
    }
}

impl<M: Member> Member for TimedApp<M> {
    fn leads(&self) -> bool {
        self.inner.leads()
    }
    fn steady(&self) -> bool {
        self.inner.steady()
    }
    fn operational(&self) -> bool {
        self.inner.operational()
    }
    fn stats(&self) -> &MemberStats {
        self.inner.stats()
    }
    fn reset_measurements(&mut self, now: SimTime) {
        self.inner.reset_measurements(now);
    }
    fn propose(&mut self, payload: Bytes, ops: &mut HostOps<'_, '_>) -> bool {
        self.timed(|m| m.propose(payload, ops))
    }
    fn install(&mut self, sm: Box<dyn StateMachine>) {
        self.inner.install(sm);
    }
}

/// A switch program whose calls run inside a `p4ce-switch` span.
pub struct TimedProgram<P> {
    /// The wrapped program.
    pub inner: P,
}

impl<P: SwitchProgram> TimedProgram<P> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        ledger::enter(Layer::P4ceSwitch);
        let r = f(&mut self.inner);
        ledger::exit();
        r
    }
}

impl<P: SwitchProgram> SwitchProgram for TimedProgram<P> {
    fn on_start(&mut self, ops: &mut dyn ControlOps) {
        self.timed(|p| p.on_start(ops));
    }
    fn ingress_view(
        &mut self,
        view: &RoceView<'_>,
        meta: IngressMeta,
        ops: &dyn PipelineOps,
    ) -> ViewVerdict {
        self.timed(|p| p.ingress_view(view, meta, ops))
    }
    fn ingress(
        &mut self,
        pkt: &mut rdma::RocePacket,
        meta: IngressMeta,
        ops: &dyn PipelineOps,
    ) -> IngressVerdict {
        self.timed(|p| p.ingress(pkt, meta, ops))
    }
    fn egress(
        &mut self,
        pkt: &mut rdma::RocePacket,
        meta: EgressMeta,
        ops: &dyn PipelineOps,
    ) -> bool {
        self.timed(|p| p.egress(pkt, meta, ops))
    }
    fn on_cpu_packet(&mut self, pkt: rdma::RocePacket, ops: &mut dyn ControlOps) {
        self.timed(|p| p.on_cpu_packet(pkt, ops));
    }
    fn on_timer(&mut self, token: u64, ops: &mut dyn ControlOps) {
        self.timed(|p| p.on_timer(token, ops));
    }
}

/// Which layer a wrapped node's callbacks belong to.
pub trait NodeLayer {
    /// The layer of the next callback.
    fn layer(&self) -> Layer;
}

impl<M: Member> NodeLayer for Host<M> {
    fn layer(&self) -> Layer {
        if self.app().leads() {
            Layer::RdmaLeader
        } else {
            Layer::RdmaReplica
        }
    }
}

impl<P: SwitchProgram> NodeLayer for Switch<P> {
    fn layer(&self) -> Layer {
        Layer::Tofino
    }
}

/// A node whose callbacks run inside a span of its layer.
pub struct TimedNode<N> {
    /// The wrapped node.
    pub inner: N,
}

impl<N: Node + NodeLayer> TimedNode<N> {
    /// Runs `f` over the wrapped node inside a span of its layer.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut N) -> R) -> R {
        ledger::enter(self.inner.layer());
        let r = f(&mut self.inner);
        ledger::exit();
        r
    }
}

impl<N: Node + NodeLayer> Node for TimedNode<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.timed(|n| n.on_start(ctx));
    }
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut Context<'_>) {
        ledger::note_event(true);
        self.timed(|n| n.on_frame(port, frame, ctx));
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        ledger::note_event(false);
        self.timed(|n| n.on_timer(token, ctx));
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}
