//! Mu's communication: direct fan-out from the leader's CPU.
//!
//! The leader opens one queue pair *per replica* and replicates each
//! value with one RDMA write per replica, counting acknowledgements on
//! its own CPU — the communication pattern P4CE moves into the switch.

use bytes::Bytes;
use rdma::{Completion, HostOps};
use replication::MemberId;

use crate::member::{Comm, Member, MuMemberConfig};
use crate::stats::MemberEvent;

/// The Mu member application. Plug into an [`rdma::Host`].
pub type MuMember = Member<Direct>;

/// Mu's [`Comm`] strategy: the leader writes every replica's log over
/// the member's direct links.
#[derive(Debug)]
pub struct Direct {
    /// Set once `f` direct links are up (announced as
    /// [`MemberEvent::LeaderOperational`]); cleared on a failed write that
    /// leaves fewer than `f`, and at every epoch boundary.
    operational: bool,
}

impl Comm for Direct {
    type Config = MuMemberConfig;

    fn from_config(cfg: MuMemberConfig) -> (MuMemberConfig, Self) {
        (cfg, Direct { operational: false })
    }

    fn ready(m: &MuMember) -> bool {
        m.comm.operational
    }

    fn post(m: &mut MuMember, seq: u64, at: usize, bytes: Bytes, ops: &mut HostOps<'_, '_>) {
        m.post_direct(seq, at, bytes, ops);
    }

    fn stand_down(&mut self) {
        self.operational = false;
    }

    fn take_over(m: &mut MuMember, ops: &mut HostOps<'_, '_>) {
        m.open_direct_links(ops);
    }

    fn on_liveness(m: &mut MuMember, ops: &mut HostOps<'_, '_>) {
        m.maintain_direct_links(ops);
    }

    fn rebuild(m: &mut MuMember, ops: &mut HostOps<'_, '_>) {
        m.comm.operational = false;
        m.close_direct_links(ops);
        m.open_direct_links(ops);
    }

    fn on_path_failover(&mut self, _ops: &mut HostOps<'_, '_>) {
        self.operational = false;
    }

    /// Announces the quorum, then starts the workload once every *live*
    /// replica is wired up (so early entries reach everyone), and only
    /// then re-posts undecided entries to the new link.
    fn on_direct_up(m: &mut MuMember, peer: MemberId, ops: &mut HostOps<'_, '_>) {
        let ready = m.ready_direct_links();
        if m.is_leader() && !m.comm.operational && ready >= m.cluster().f() {
            m.comm.operational = true;
            let view = m.view();
            m.stats
                .event(ops.now(), MemberEvent::LeaderOperational { view });
        }
        if ready >= m.live_peers().len() {
            m.maybe_start_workload(ops);
        }
        m.repost_direct(peer, ops);
    }

    /// Mu's leader sees every replica's flow-control credit (P4CE's
    /// leader sees only the switch's aggregate), and a lost link may cost
    /// it the quorum.
    fn on_direct_completion(m: &mut MuMember, c: &Completion) {
        if c.status.is_success() {
            m.stats.min_credit_seen = m.stats.min_credit_seen.min(c.credits);
        } else if m.ready_direct_links() < m.cluster().f() {
            m.comm.operational = false;
        }
    }
}
