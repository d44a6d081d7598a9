//! The P4CE member: Mu's decision module over in-network communication.
//!
//! Heartbeats, lowest-live-id election, permission-fenced logs and the
//! direct links are the shared [`mu::Member`]; this module is only the
//! leader's communication strategy, [`SwitchGroup`] (§III):
//!
//! * **accelerated path** — the leader opens *one* RDMA connection to the
//!   switch, piggybacking the replica set; each consensus is a single
//!   write to the BCast queue pair, and the single returning ACK already
//!   represents `f` replica acknowledgements;
//! * **fallback path** — on a NAK or transport timeout the leader reverts
//!   to direct, Mu-style replication (one write per replica), and
//!   periodically retries the accelerated path (§III-A);
//! * **reconfiguration** — replica-set changes and view changes rebuild
//!   the communication group, which costs the switch's 40 ms
//!   reconfiguration delay (Table IV). The asynchronous variant the paper
//!   sketches (manual replication *while* reconfiguring) is available as
//!   [`P4ceMemberConfig::async_reconfig`].

use bytes::Bytes;
use mu::{Accelerator, Comm, Member, MuMemberConfig, WR_STRATEGY};
use netsim::{PortId, SimDuration, SimTime, TraceEvent};
use p4ce_switch::{GroupJoin, GroupRetire, GroupSpec, P4ceProgram};
use rdma::{CmEvent, Completion, HostOps, Qpn, RegionAdvert, WrId};
use replication::{ClusterConfig, MemberId, WorkloadSpec};
use std::net::Ipv4Addr;

pub use mu::{MemberEvent, MemberStats};

// Application timer classes owned by this strategy.
const T_REACCEL: u64 = 6 << 48;
const T_GROUP_RETRY: u64 = 7 << 48;

/// The P4CE member application. Plug into an [`rdma::Host`].
pub type P4ceMember = Member<SwitchGroup>;

/// Configuration of one P4CE member.
#[derive(Debug, Clone)]
pub struct P4ceMemberConfig {
    /// The cluster this member belongs to.
    pub cluster: ClusterConfig,
    /// This member's identity.
    pub id: MemberId,
    /// The P4CE-enabled switch's address.
    pub switch_ip: Ipv4Addr,
    /// The client workload this member drives when leading.
    pub workload: Option<WorkloadSpec>,
    /// Backup fabric port for multi-homed hosts.
    pub backup_port: Option<PortId>,
    /// Route-update + reconnection penalty after a path fail-over.
    pub path_failover_delay: SimDuration,
    /// How often a fallen-back leader retries in-network acceleration,
    /// also the patience for a group handshake before giving up.
    pub reaccel_period: SimDuration,
    /// Keep replicating through the old group (or directly) while the
    /// switch reconfigures — the asynchronous variant of §V-E's Lesson 3.
    pub async_reconfig: bool,
    /// **Test-only mutation**: on an epoch change, skip revoking the old
    /// epoch's write grants (the safety-critical step of §III's
    /// permission-switch protocol). Exists so the model checker's
    /// single-writer oracle can prove it catches the bug; never enable
    /// outside the explorer's mutation-check mode.
    pub skip_epoch_revoke: bool,
}

impl P4ceMemberConfig {
    /// A member of `cluster` with id `id` behind `switch_ip`, no workload.
    pub fn new(cluster: ClusterConfig, id: MemberId, switch_ip: Ipv4Addr) -> Self {
        P4ceMemberConfig {
            cluster,
            id,
            switch_ip,
            workload: None,
            backup_port: None,
            path_failover_delay: SimDuration::from_millis(55),
            reaccel_period: SimDuration::from_millis(100),
            async_reconfig: false,
            skip_epoch_revoke: false,
        }
    }
}

/// The leader's communication path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Nothing established.
    Down,
    /// Group handshake with the switch in flight (since the marked time).
    SwitchConnecting(SimTime),
    /// In-network replication live on this queue pair.
    Accelerated(Qpn),
    /// Direct (Mu-style) replication.
    Fallback,
}

/// P4CE's [`Comm`] strategy: one write to a communication group in the
/// switch, with the shared direct links as fallback.
#[derive(Debug)]
pub struct SwitchGroup {
    switch_ip: Ipv4Addr,
    reaccel_period: SimDuration,
    async_reconfig: bool,
    skip_epoch_revoke: bool,
    path: Path,
    switch_handshake: Option<u64>,
    switch_advert: Option<RegionAdvert>,
    /// The switch-assigned id of the group this leader drives, learned
    /// from the trailing bytes of the switch's ConnectReply. Names the
    /// group in a retire request; survives until retire or the next
    /// establishment overwrites it.
    group_id: Option<u16>,
    group_members: Vec<MemberId>,
}

impl SwitchGroup {
    /// Asks the switch to build a communication group over the live
    /// replicas.
    fn request_group(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        let alive = m.live_peers();
        let f = m.cluster().f();
        if alive.len() < f {
            return; // no quorum to build over; heartbeats will retry
        }
        let spec = GroupSpec {
            f: f as u8,
            replicas: alive.iter().map(|&(_, ip)| ip).collect(),
        };
        let s = &mut m.comm;
        s.group_members = alive.iter().map(|&(id, _)| id).collect();
        let hs = ops.connect(s.switch_ip, spec.encode());
        s.switch_handshake = Some(hs);
        if !matches!(s.path, Path::Accelerated(_)) || !s.async_reconfig {
            s.path = Path::SwitchConnecting(ops.now());
        }
    }

    /// Reverts to direct, un-accelerated replication (§III-A). Undecided
    /// entries re-flow as each direct link comes up (the catch-up write
    /// covers the log bytes; per-seq posts earn the ACK counts).
    fn fall_back(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        let s = &mut m.comm;
        match s.path {
            Path::Fallback => return,
            Path::Accelerated(qpn) => ops.destroy_qp(qpn),
            _ => {}
        }
        s.path = Path::Fallback;
        m.stats.event(ops.now(), MemberEvent::FellBack);
        ops.tracer().emit(ops.now(), || TraceEvent::FellBack);
        m.open_direct_links(ops);
    }

    fn reaccel_tick(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        if !m.is_leader() {
            return;
        }
        let s = &mut m.comm;
        match s.path {
            Path::SwitchConnecting(since)
                // The switch never answered: it is gone (or unreachable);
                // revert to manual replication.
                if ops.now().saturating_duration_since(since) >= s.reaccel_period => {
                    s.switch_handshake = None;
                    Self::fall_back(m, ops);
                }
            Path::Fallback => {
                // Periodically probe for a P4CE-enabled switch (§III-A),
                // staying on the working path meanwhile.
                Self::request_group(m, ops);
                m.comm.path = Path::Fallback;
            }
            _ => {}
        }
        ops.set_app_timer(m.comm.reaccel_period, T_REACCEL);
    }

    fn on_group_established(
        m: &mut P4ceMember,
        qpn: Qpn,
        advert: RegionAdvert,
        ops: &mut HostOps<'_, '_>,
    ) {
        // Drop the direct path: the accelerated one replaces it.
        m.close_direct_links(ops);
        let s = &mut m.comm;
        s.switch_handshake = None;
        s.path = Path::Accelerated(qpn);
        s.switch_advert = Some(advert);
        m.stats.event(ops.now(), MemberEvent::GroupEstablished);
        ops.tracer()
            .emit(ops.now(), || TraceEvent::GroupEstablished);
        // Re-replicate anything that was in doubt or parked during the
        // outage.
        for (seq, at, data) in m.undecided(ops) {
            ops.post_write(qpn, WrId(WR_STRATEGY | seq), at as u64, advert.rkey, data);
        }
        m.resume(ops);
    }
}

impl Comm for SwitchGroup {
    type Config = P4ceMemberConfig;

    fn from_config(cfg: P4ceMemberConfig) -> (MuMemberConfig, Self) {
        let decision = MuMemberConfig {
            cluster: cfg.cluster,
            id: cfg.id,
            workload: cfg.workload,
            backup_port: cfg.backup_port,
            path_failover_delay: cfg.path_failover_delay,
        };
        let comm = SwitchGroup {
            switch_ip: cfg.switch_ip,
            reaccel_period: cfg.reaccel_period,
            async_reconfig: cfg.async_reconfig,
            skip_epoch_revoke: cfg.skip_epoch_revoke,
            path: Path::Down,
            switch_handshake: None,
            switch_advert: None,
            group_id: None,
            group_members: Vec::new(),
        };
        (decision, comm)
    }

    fn ready(m: &P4ceMember) -> bool {
        match m.comm.path {
            Path::Accelerated(_) => true,
            Path::Fallback => m.ready_direct_links() >= m.cluster().f(),
            _ => false,
        }
    }

    fn post(m: &mut P4ceMember, seq: u64, at: usize, bytes: Bytes, ops: &mut HostOps<'_, '_>) {
        match m.comm.path {
            Path::Accelerated(qpn) => {
                let advert = m.comm.switch_advert.expect("accelerated has advert");
                // One write to the switch replaces n writes to replicas:
                // the virtual VA is zero-based, so the log offset is the
                // address (§IV-A).
                let wr_id = WrId(WR_STRATEGY | seq);
                let view = m.view();
                ops.tracer().emit(ops.now(), || TraceEvent::PostBound {
                    view,
                    seq,
                    qpn: u64::from(qpn.masked()),
                    wr_id: wr_id.0,
                });
                ops.post_write(qpn, wr_id, at as u64, advert.rkey, bytes);
            }
            Path::Fallback => m.post_direct(seq, at, bytes, ops),
            // No path (reconfiguring): the entry stays pending and is
            // re-posted when the group comes up.
            _ => {}
        }
    }

    fn stand_down(&mut self) {
        self.path = Path::Down;
    }

    fn take_over(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        Self::request_group(m, ops);
        ops.set_app_timer(m.comm.reaccel_period, T_REACCEL);
    }

    /// A replica died while we lead: the communication group must be
    /// rebuilt (§V-E, "Crashed replica": +40 ms in P4CE).
    fn on_liveness(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        match m.comm.path {
            Path::Accelerated(_) => {
                let alive = m.live_peers();
                if m.comm
                    .group_members
                    .iter()
                    .all(|id| alive.iter().any(|(p, _)| p == id))
                {
                    return;
                }
                // Rebuild with the survivors.
                m.stats.event(ops.now(), MemberEvent::CommRebuildStarted);
                if !m.comm.async_reconfig {
                    // The paper's implementation pauses replication
                    // until the switch is reconfigured.
                    m.comm.path = Path::Down;
                }
                Self::request_group(m, ops);
            }
            Path::Fallback => m.maintain_direct_links(ops),
            _ => {}
        }
    }

    fn rebuild(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        m.comm.on_path_failover(ops);
        Self::request_group(m, ops);
    }

    /// Destroys the group's queue pair; nothing is established after.
    fn on_path_failover(&mut self, ops: &mut HostOps<'_, '_>) {
        if let Path::Accelerated(qpn) = self.path {
            ops.destroy_qp(qpn);
        }
        self.path = Path::Down;
    }

    fn on_path_recovered(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        m.restart_detector_grace();
        if m.is_leader() {
            // Revert to manual replication over the new route; the
            // reaccel probe will look for a P4CE switch later.
            Self::fall_back(m, ops);
        }
    }

    fn on_direct_up(m: &mut P4ceMember, peer: MemberId, ops: &mut HostOps<'_, '_>) {
        m.repost_direct(peer, ops);
        m.maybe_start_workload(ops);
    }

    fn direct_active(&self) -> bool {
        self.path == Path::Fallback
    }

    fn on_cm_event(m: &mut P4ceMember, ev: &CmEvent, ops: &mut HostOps<'_, '_>) -> bool {
        match *ev {
            CmEvent::Connected {
                handshake_id,
                qpn,
                ref private_data,
                ..
            } if Some(handshake_id) == m.comm.switch_handshake => {
                if let Ok(advert) = RegionAdvert::decode(private_data) {
                    // The switch appends its group id after the advert.
                    m.comm.group_id = private_data
                        .get(RegionAdvert::WIRE_LEN..RegionAdvert::WIRE_LEN + 2)
                        .map(|b| u16::from_be_bytes([b[0], b[1]]));
                    Self::on_group_established(m, qpn, advert, ops);
                }
            }
            CmEvent::Rejected { handshake_id, .. }
                if Some(handshake_id) == m.comm.switch_handshake =>
            {
                // A replica refused the group (likely a leadership race):
                // retry after a beat.
                m.comm.switch_handshake = None;
                if m.is_leader() && !m.is_accelerated() {
                    m.comm.path = Path::Down;
                    ops.set_app_timer(m.cluster().timing.group_retry_delay, T_GROUP_RETRY);
                }
            }
            _ => return false,
        }
        true
    }

    fn on_completion(m: &mut P4ceMember, c: &Completion, ops: &mut HostOps<'_, '_>) {
        if !c.status.is_success() {
            // A NAK forwarded by the switch, or the ACK timed out: revert
            // to un-accelerated communication (§III-A).
            Self::fall_back(m, ops);
            return;
        }
        // The single ACK certifies f replica acknowledgements.
        m.stats.min_credit_seen = m.stats.min_credit_seen.min(c.credits);
        m.decide(c.wr_id.0 & 0xffff_ffff_ffff, ops);
    }

    /// §III-A: any NAK forwarded by the switch means a replica is
    /// misbehaving (or being overrun): revert to un-accelerated
    /// communication; the re-acceleration probe will try again later.
    fn on_nak(m: &mut P4ceMember, qpn: Qpn, ops: &mut HostOps<'_, '_>) {
        if m.comm.path == Path::Accelerated(qpn) {
            Self::fall_back(m, ops);
        }
    }

    fn on_timer(m: &mut P4ceMember, token: u64, ops: &mut HostOps<'_, '_>) {
        match token {
            T_REACCEL => Self::reaccel_tick(m, ops),
            T_GROUP_RETRY if m.is_leader() && !m.is_accelerated() => Self::request_group(m, ops),
            _ => {}
        }
    }

    fn join_leader(private_data: &[u8]) -> Option<Ipv4Addr> {
        GroupJoin::decode(private_data).ok().map(|join| join.leader)
    }

    fn skip_epoch_revoke(&self) -> bool {
        self.skip_epoch_revoke
    }
}

impl Accelerator for SwitchGroup {
    type Program = P4ceProgram;

    fn is_accelerated(&self) -> bool {
        matches!(self.path, Path::Accelerated(_))
    }

    fn group_id(&self) -> Option<u16> {
        self.group_id
    }

    /// Names the group in a [`GroupRetire`] to the switch
    /// (fire-and-forget — the switch's reject completes the exchange and
    /// is ignored because no switch handshake is pending), destroys the
    /// BCast queue pair, and falls back to direct replication. The
    /// periodic re-acceleration probe will build a fresh switch group —
    /// with a new id — on its own.
    fn retire(m: &mut P4ceMember, ops: &mut HostOps<'_, '_>) {
        if !m.is_accelerated() {
            return;
        }
        let s = &mut m.comm;
        if let Some(gid) = s.group_id.take() {
            ops.connect(s.switch_ip, GroupRetire { gid }.encode());
        }
        Self::fall_back(m, ops);
    }
}
