//! The member: Mu's decision module, generic over how a leader
//! communicates with its replicas.
//!
//! Every member runs the same decision state machine (§III):
//!
//! * it exposes a **heartbeat counter** (RDMA-readable by everyone) and a
//!   **log region** (writable only by the current leader, enforced with
//!   RDMA permissions);
//! * it reads every peer's heartbeat each period and feeds a failure
//!   detector; the live member with the lowest id is the leader;
//! * view changes re-fence the log: a replica revokes the old leader and
//!   grants the new one after the permission-change delay the paper
//!   measures at 0.9 ms (§V-E);
//! * a value is decided once `f` replica NICs acknowledged it.
//!
//! How the leader's writes reach the replicas is the [`Comm`] strategy's
//! business — the one part of the member P4CE replaces. Mu's strategy,
//! [`crate::Direct`], writes each replica's log over its own queue pair
//! and counts the acknowledgements on the leader's CPU. Those direct
//! links live here, because P4CE falls back to exactly them (§III-A).

use bytes::Bytes;
use netsim::{PortId, SimDuration, SimTime, TraceEvent};
use rdma::{
    CmEvent, Completion, CompletionStatus, HostOps, NakCode, Permissions, Psn, Qpn, RdmaApp,
    RegionAdvert, RegionHandle, RejectReason, WrId,
};
use replication::{
    ArrivalClock, ClusterConfig, FailureDetector, HeartbeatCounter, LogReader, LogWriter, MemberId,
    ProtocolTiming, ViewTracker, WorkloadMode, WorkloadSpec,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::Ipv4Addr;
use tofino::SwitchProgram;

use crate::stats::{MemberEvent, MemberStats};

// Connection kinds, carried as the first private-data byte (P4CE's
// switch group join uses `GroupJoin::TAG` = 3).
const KIND_HEARTBEAT: u8 = 1;
const KIND_REPLICATION: u8 = 2;

// Application timer classes (within the 56-bit app token space). Classes
// from 6 up belong to the communication strategy.
const T_HEARTBEAT: u64 = 1 << 48;
const T_ARRIVAL: u64 = 2 << 48;
const T_DEFER_ACCEPT: u64 = 3 << 48;
const T_RECONNECT: u64 = 4 << 48;
const T_PATH_RECOVER: u64 = 5 << 48;
const T_CLASS_MASK: u64 = 0xff << 48;
const T_DATA_MASK: u64 = !T_CLASS_MASK & ((1 << 56) - 1);

// Work-request id classes.
const WR_HB: u64 = 1 << 56;
/// Work-request id class reserved for the strategy's own path; its
/// completions go to [`Comm::on_completion`].
pub const WR_STRATEGY: u64 = 2 << 56;
const WR_DIRECT: u64 = 3 << 56;
const WR_CATCHUP: u64 = 4 << 56;
const WR_CLASS_MASK: u64 = 0xff << 56;
const WR_SEQ_MASK: u64 = 0xffff_ffff_ffff;

/// Configuration of the decision module, which is all of a Mu member.
#[derive(Debug, Clone)]
pub struct MuMemberConfig {
    /// The cluster this member belongs to.
    pub cluster: ClusterConfig,
    /// This member's identity.
    pub id: MemberId,
    /// The client workload this member drives *when it is the leader*.
    pub workload: Option<WorkloadSpec>,
    /// A backup fabric port, if the host is multi-homed (switch-crash
    /// fail-over, §V-E).
    pub backup_port: Option<PortId>,
    /// Route-update plus reconnection penalty after a path fail-over
    /// (the bulk of the paper's 60 ms switch-crash recovery).
    pub path_failover_delay: SimDuration,
}

impl MuMemberConfig {
    /// A member of `cluster` with id `id` and no workload.
    pub fn new(cluster: ClusterConfig, id: MemberId) -> Self {
        MuMemberConfig {
            cluster,
            id,
            workload: None,
            backup_port: None,
            path_failover_delay: SimDuration::from_millis(55),
        }
    }
}

/// How a leader gets its log entries to the replicas: the part of the
/// member that differs between Mu ([`crate::Direct`]) and P4CE.
///
/// Dispatch is static — [`Member`] is generic over its strategy — and
/// every hook sits where the two systems actually differ. Hooks that need
/// the decision state take the whole member; the strategy's own state is
/// its [`Member::comm`].
pub trait Comm: Sized + 'static {
    /// The per-member configuration the strategy is built from.
    type Config;

    /// Splits a configuration into the decision module's part and the
    /// strategy.
    fn from_config(cfg: Self::Config) -> (MuMemberConfig, Self);

    /// `true` while a proposal can be replicated right away.
    fn ready(m: &Member<Self>) -> bool;

    /// Replicates entry `seq`, already appended locally as `bytes` at log
    /// offset `at`.
    fn post(m: &mut Member<Self>, seq: u64, at: usize, bytes: Bytes, ops: &mut HostOps<'_, '_>);

    /// Forgets the current path at an epoch boundary (taking over
    /// leadership, or losing it).
    fn stand_down(&mut self);

    /// Opens a new leader's replication path.
    fn take_over(m: &mut Member<Self>, ops: &mut HostOps<'_, '_>);

    /// A heartbeat round without a leadership change, while leading:
    /// replicas may have died or come back.
    fn on_liveness(m: &mut Member<Self>, ops: &mut HostOps<'_, '_>);

    /// Tears the replication path down and builds it again (the "new
    /// communication group" scenario of Table IV).
    fn rebuild(m: &mut Member<Self>, ops: &mut HostOps<'_, '_>);

    /// The fabric died and the host moved to its backup port; the member
    /// has already dropped its heartbeat and direct links.
    fn on_path_failover(&mut self, ops: &mut HostOps<'_, '_>);

    /// Routes re-converged on the backup fabric; heartbeats resume next.
    fn on_path_recovered(_m: &mut Member<Self>, _ops: &mut HostOps<'_, '_>) {}

    /// Direct link `peer` came up and was caught up on the log. The
    /// member drains parked arrivals and tops up a closed loop afterwards.
    fn on_direct_up(m: &mut Member<Self>, peer: MemberId, ops: &mut HostOps<'_, '_>);

    /// A write on a direct link completed: after a failure the link is
    /// already dropped; an acknowledgement has yet to count towards its
    /// entry's decision.
    fn on_direct_completion(_m: &mut Member<Self>, _c: &Completion) {}

    /// Whether a leader re-dials direct links that refused it.
    fn direct_active(&self) -> bool {
        true
    }

    /// A CM event, before the member handles it; `true` if it concerned
    /// the strategy's own handshake.
    fn on_cm_event(_m: &mut Member<Self>, _ev: &CmEvent, _ops: &mut HostOps<'_, '_>) -> bool {
        false
    }

    /// A completion of class [`WR_STRATEGY`].
    fn on_completion(_m: &mut Member<Self>, _c: &Completion, _ops: &mut HostOps<'_, '_>) {}

    /// A NAK arrived on one of this host's queue pairs.
    fn on_nak(_m: &mut Member<Self>, _qpn: Qpn, _ops: &mut HostOps<'_, '_>) {}

    /// An application timer of a strategy-owned class (6 and up).
    fn on_timer(_m: &mut Member<Self>, _token: u64, _ops: &mut HostOps<'_, '_>) {}

    /// Replica side: the leader a connection request from a non-member
    /// serves (P4CE's switch joins a group on its leader's behalf).
    fn join_leader(_private_data: &[u8]) -> Option<Ipv4Addr> {
        None
    }

    /// **Test-only mutation**: skip revoking the old epoch's write
    /// grants, so the explorer's single-writer oracle has a real bug to
    /// catch.
    fn skip_epoch_revoke(&self) -> bool {
        false
    }
}

/// A strategy that can replicate through a communication group inside
/// the switch. Gives its member and deployment the accelerator's
/// read-outs and controls.
pub trait Accelerator: Comm {
    /// The program the deployment's fabric switch runs.
    type Program: SwitchProgram + 'static;

    /// `true` while replication runs through the switch.
    fn is_accelerated(&self) -> bool;

    /// The switch-assigned id of the group this leader drives.
    fn group_id(&self) -> Option<u16>;

    /// Retires the switch group and falls back to the direct links.
    fn retire(m: &mut Member<Self>, ops: &mut HostOps<'_, '_>);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Idle,
    Connecting,
    Ready,
    Dead,
}

/// A heartbeat link, or a leader's direct replication link.
#[derive(Debug)]
struct Link {
    state: LinkState,
    qpn: Option<Qpn>,
    advert: Option<RegionAdvert>,
    /// Heartbeat ticks spent down or dialling (see [`Link::redial_due`]).
    backoff: u32,
    /// The peer's heartbeat counter as last read (heartbeat links).
    last_seen: u64,
}

impl Link {
    fn new(state: LinkState) -> Self {
        Link {
            state,
            qpn: None,
            advert: None,
            backoff: 0,
            last_seen: 0,
        }
    }

    /// Advances a down link's clock by one heartbeat tick; `true` when
    /// it is time to dial again. A handshake that never completes (its
    /// packets died with the fabric) is abandoned and retried soon.
    fn redial_due(&mut self, timing: &ProtocolTiming) -> bool {
        match self.state {
            LinkState::Dead => {
                self.backoff += 1;
                if self.backoff < timing.link_redial_ticks {
                    return false;
                }
                self.backoff = 0;
                true
            }
            LinkState::Connecting => {
                self.backoff += 1;
                if self.backoff >= timing.link_abandon_ticks {
                    self.backoff = timing.link_retry_soon_ticks;
                    self.state = LinkState::Dead;
                }
                false
            }
            LinkState::Idle | LinkState::Ready => false,
        }
    }
}

/// An undecided entry. It leaves the map the moment it is decided.
#[derive(Debug)]
struct PendingDecision {
    acks: u32,
    arrived: SimTime,
    size: usize,
    /// Where the entry sits in the log (for re-replication after a path
    /// change).
    at: usize,
    len: usize,
}

/// A connection request, parked while its permission change applies.
#[derive(Debug, Clone)]
struct ConnectRequest {
    handshake_id: u64,
    from_ip: Ipv4Addr,
    from_qpn: Qpn,
    start_psn: Psn,
    /// The leader this connection serves (differs from `from_ip` for
    /// switch-originated joins).
    leader_ip: Ipv4Addr,
}

/// A consensus member over communication strategy `C`. Plug into an
/// [`rdma::Host`].
pub struct Member<C: Comm> {
    cfg: MuMemberConfig,
    /// The communication strategy's state.
    pub comm: C,
    // Regions.
    log_region: Option<RegionHandle>,
    hb_region: Option<RegionHandle>,
    hb_scratch: Option<RegionHandle>,
    // Decision-protocol state.
    counter: HeartbeatCounter,
    detector: FailureDetector,
    views: ViewTracker,
    writer: LogWriter,
    reader: LogReader,
    /// Seq the next state-machine application must carry: an epoch
    /// rebuild replays the log from the head, and entries below this
    /// mark were already applied (exactly-once application).
    next_apply_seq: u64,
    // Links.
    hb_links: BTreeMap<MemberId, Link>,
    direct_links: BTreeMap<MemberId, Link>,
    handshake_peer: HashMap<u64, (u8, MemberId)>,
    deferred: HashMap<u64, ConnectRequest>,
    next_defer: u64,
    // Replica-side grant state for this epoch.
    granted_ips: BTreeSet<Ipv4Addr>,
    view_writer_qpns: BTreeSet<u32>,
    epoch_leader: Option<Ipv4Addr>,
    // Leadership.
    i_am_leader: bool,
    first_decision_pending: bool,
    // Replication.
    pending: BTreeMap<u64, PendingDecision>,
    parked: VecDeque<SimTime>,
    // Workload.
    arrivals: Option<ArrivalClock>,
    workload_started: bool,
    payload_proto: Bytes,
    // Path fail-over.
    failed_over: bool,
    /// Heartbeat ticks to wait before feeding the failure detector —
    /// covers link establishment at start-up (no information is not a
    /// stall).
    detector_grace: u32,
    state_machine: Option<Box<dyn replication::StateMachine>>,
    /// Measurements.
    pub stats: MemberStats,
}

impl<C: Comm> Member<C> {
    /// Builds the member application.
    pub fn new(cfg: C::Config) -> Self {
        let (cfg, comm) = C::from_config(cfg);
        let peers = cfg.cluster.peers_of(cfg.id);
        let hb_links = peers
            .iter()
            .map(|&(id, _)| (id, Link::new(LinkState::Idle)));
        Member {
            comm,
            log_region: None,
            hb_region: None,
            hb_scratch: None,
            counter: HeartbeatCounter::new(),
            detector: FailureDetector::new(
                cfg.cluster.failure_threshold,
                peers.iter().map(|&(id, _)| id),
            ),
            views: ViewTracker::new(),
            writer: LogWriter::new(cfg.cluster.log_size),
            reader: LogReader::new(),
            next_apply_seq: 0,
            hb_links: hb_links.collect(),
            direct_links: BTreeMap::new(),
            handshake_peer: HashMap::new(),
            deferred: HashMap::new(),
            next_defer: 0,
            granted_ips: BTreeSet::new(),
            view_writer_qpns: BTreeSet::new(),
            epoch_leader: None,
            i_am_leader: false,
            first_decision_pending: false,
            pending: BTreeMap::new(),
            parked: VecDeque::new(),
            arrivals: None,
            workload_started: false,
            payload_proto: Bytes::new(),
            failed_over: false,
            detector_grace: cfg.cluster.timing.detector_grace_ticks,
            state_machine: None,
            cfg,
            stats: MemberStats::default(),
        }
    }

    /// Installs the replicated state machine: every decided entry that
    /// becomes visible in this member's log is applied to it, in order.
    pub fn set_state_machine(&mut self, sm: Box<dyn replication::StateMachine>) {
        self.state_machine = Some(sm);
    }

    /// The installed state machine, for post-run inspection.
    pub fn state_machine(&self) -> Option<&dyn replication::StateMachine> {
        self.state_machine.as_deref()
    }

    /// Proposes a client-supplied value for consensus. Returns `false`
    /// when this member is not currently an operational leader (callers
    /// should retry against the actual leader).
    pub fn propose_value(&mut self, payload: Bytes, ops: &mut HostOps<'_, '_>) -> bool {
        if !self.is_operational_leader() {
            return false;
        }
        let now = ops.now();
        self.propose_payload(payload, now, ops);
        true
    }

    /// This member's id.
    pub fn id(&self) -> MemberId {
        self.cfg.id
    }

    /// `true` while this member leads with a working replication path.
    pub fn is_operational_leader(&self) -> bool {
        self.i_am_leader && C::ready(self)
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
        self.views.view()
    }

    /// The leader this member currently believes in.
    pub fn believed_leader(&self) -> Option<MemberId> {
        self.views.leader()
    }

    /// Handle of this member's replicated-log region, once registered.
    /// Invariant oracles pair it with [`rdma::Host::memory`] to audit who
    /// holds write permission on the log.
    pub fn log_region(&self) -> Option<RegionHandle> {
        self.log_region
    }

    /// The leader whose epoch the current log-write grants belong to
    /// (`None` before the first grant, and from every epoch boundary
    /// until the next leader connects).
    pub fn epoch_leader(&self) -> Option<Ipv4Addr> {
        self.epoch_leader
    }

    /// Peers this member has granted log-write permission to in the
    /// current epoch (its own bookkeeping; the NIC-enforced truth lives
    /// in [`rdma::Host::memory`]).
    pub fn granted_ips(&self) -> &BTreeSet<Ipv4Addr> {
        &self.granted_ips
    }

    /// Sequence number the next applied entry must carry — applied
    /// entries are exactly `0..next_apply_seq`, in order.
    pub fn next_apply_seq(&self) -> u64 {
        self.next_apply_seq
    }

    /// Clears the measurement window (latency samples and throughput),
    /// restarting it at `now`. Experiment harnesses call this after
    /// warm-up.
    pub fn reset_measurements(&mut self, now: SimTime) {
        self.stats.latency.clear();
        self.stats.throughput.reset(now);
    }

    /// Tears down and re-establishes the replication path (the "configure
    /// a new communication group" scenario of Table IV). Only meaningful
    /// on the current leader.
    pub fn force_rebuild_comm(&mut self, ops: &mut HostOps<'_, '_>) {
        if !self.i_am_leader {
            return;
        }
        self.stats.event(ops.now(), MemberEvent::CommRebuildStarted);
        C::rebuild(self, ops);
    }
}

/// Accelerator read-outs and controls (P4CE's member).
impl<C: Accelerator> Member<C> {
    /// The switch-assigned group id, while this member leads an
    /// accelerated group (and until the next group replaces it).
    pub fn group_id(&self) -> Option<u16> {
        self.comm.group_id()
    }

    /// `true` while replication is switch-accelerated.
    pub fn is_accelerated(&self) -> bool {
        self.comm.is_accelerated()
    }

    /// Retires this leader's switch group and falls back to direct
    /// replication; the group keeps deciding over the direct path.
    pub fn retire_comm(&mut self, ops: &mut HostOps<'_, '_>) {
        C::retire(self, ops);
    }
}

/// The building blocks a [`Comm`] strategy composes its path from.
impl<C: Comm> Member<C> {
    /// The cluster this member belongs to.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cfg.cluster
    }

    /// `true` while this member believes it leads.
    pub fn is_leader(&self) -> bool {
        self.i_am_leader
    }

    /// The peers the failure detector believes alive, in id order.
    pub fn live_peers(&self) -> Vec<(MemberId, Ipv4Addr)> {
        self.cfg
            .cluster
            .peers_of(self.cfg.id)
            .into_iter()
            .filter(|&(id, _)| self.detector.is_alive(id))
            .collect()
    }

    /// Restarts the failure detector's grace window (after a path
    /// fail-over, no information is not a stall).
    pub fn restart_detector_grace(&mut self) {
        self.detector_grace = self.cfg.cluster.timing.detector_grace_ticks;
    }

    /// Every undecided entry as `(seq, log offset, bytes)`, in order.
    pub fn undecided(&self, ops: &mut HostOps<'_, '_>) -> Vec<(u64, usize, Bytes)> {
        let region = self.log_region.expect("registered");
        let read =
            |p: &PendingDecision| Bytes::copy_from_slice(ops.read_local(region, p.at, p.len));
        self.pending
            .iter()
            .map(|(&seq, p)| (seq, p.at, read(p)))
            .collect()
    }

    /// Decides pending entry `seq` (P4CE's switch ACK certifies `f`
    /// replicas at once).
    pub fn decide(&mut self, seq: u64, ops: &mut HostOps<'_, '_>) {
        let now = ops.now();
        let Some(PendingDecision { arrived, size, .. }) = self.pending.remove(&seq) else {
            return;
        };
        self.stats.decided += 1;
        let view = self.views.view();
        ops.tracer().emit(now, || TraceEvent::Decide { view, seq });
        if self.first_decision_pending {
            self.first_decision_pending = false;
            self.stats
                .event(now, MemberEvent::FirstDecision { view, seq });
        }
        // Without a generated workload, proposals come from an outside
        // client: every decision counts, there is no warm-up to skip.
        let warmup = self.cfg.workload.map_or(0, |spec| spec.warmup_requests);
        if self.stats.decided == warmup {
            self.stats.throughput.reset(now);
            self.stats.latency.clear();
        } else if self.stats.decided > warmup {
            self.stats
                .latency
                .record(now.saturating_duration_since(arrived));
            self.stats.throughput.record(size as u64);
        }
        // Closed loop: a decision frees a slot.
        if let Some(spec) = self.cfg.workload {
            if matches!(spec.mode, WorkloadMode::Closed { .. })
                && !self.workload_done(&spec)
                && C::ready(self)
            {
                self.propose(now, ops);
            }
        }
    }

    /// Starts the builder workload once this leader can replicate.
    pub fn maybe_start_workload(&mut self, ops: &mut HostOps<'_, '_>) {
        if !self.i_am_leader || self.workload_started || !C::ready(self) {
            return;
        }
        let Some(spec) = self.cfg.workload else {
            return;
        };
        self.workload_started = true;
        if self.payload_proto.len() != spec.value_size {
            self.payload_proto = Bytes::from(vec![0xCD; spec.value_size]);
        }
        match spec.mode {
            WorkloadMode::OpenLoop { rate_per_sec } => {
                let clock = ArrivalClock::new(ops.now(), rate_per_sec);
                let first = clock.next_arrival();
                self.arrivals = Some(clock);
                ops.set_app_timer(first.saturating_duration_since(ops.now()), T_ARRIVAL);
            }
            WorkloadMode::Closed { inflight } => self.top_up(&spec, inflight, ops),
        }
    }

    /// Resumes proposing after the path came (back) up: starts the
    /// workload, proposes parked arrivals and tops a closed loop up.
    pub fn resume(&mut self, ops: &mut HostOps<'_, '_>) {
        self.maybe_start_workload(ops);
        self.drain_parked(ops);
        self.reprime_closed_loop(ops);
    }

    /// Number of direct links ready to carry writes.
    pub fn ready_direct_links(&self) -> usize {
        self.direct_links
            .values()
            .filter(|l| l.state == LinkState::Ready)
            .count()
    }

    /// Dials a direct link to every live peer, forgetting the old ones.
    pub fn open_direct_links(&mut self, ops: &mut HostOps<'_, '_>) {
        self.direct_links.clear();
        for (peer, _) in self.live_peers() {
            self.connect_direct(peer, ops);
        }
    }

    /// Destroys every direct link's queue pair.
    pub fn close_direct_links(&mut self, ops: &mut HostOps<'_, '_>) {
        for link in self.direct_links.values_mut() {
            if let Some(qpn) = link.qpn.take() {
                ops.destroy_qp(qpn);
            }
            link.state = LinkState::Dead;
        }
    }

    /// Drops the direct links of replicas that died and re-dials live
    /// replicas that have none (self-healing, e.g. after a path
    /// fail-over).
    pub fn maintain_direct_links(&mut self, ops: &mut HostOps<'_, '_>) {
        let dead: Vec<MemberId> = self
            .direct_links
            .keys()
            .copied()
            .filter(|&id| !self.detector.is_alive(id))
            .collect();
        for id in dead {
            self.exclude_replica(id, ops);
        }
        let timing = self.cfg.cluster.timing;
        for (peer, _) in self.live_peers() {
            let needs_connect = match self.direct_links.get_mut(&peer) {
                None => true,
                Some(l) => l.redial_due(&timing),
            };
            if needs_connect {
                self.connect_direct(peer, ops);
            }
        }
    }

    /// Writes entry `seq` to every ready direct link.
    pub fn post_direct(&mut self, seq: u64, at: usize, bytes: Bytes, ops: &mut HostOps<'_, '_>) {
        let view = self.views.view();
        for (&peer, l) in &self.direct_links {
            if l.state != LinkState::Ready {
                continue;
            }
            let (qpn, advert) = (l.qpn.expect("ready"), l.advert.expect("ready"));
            let wr_id = WrId(WR_DIRECT | (u64::from(peer.0) << 48) | seq);
            ops.tracer().emit(ops.now(), || TraceEvent::PostBound {
                view,
                seq,
                qpn: u64::from(qpn.masked()),
                wr_id: wr_id.0,
            });
            ops.post_write(
                qpn,
                wr_id,
                advert.va + at as u64,
                advert.rkey,
                bytes.clone(),
            );
        }
    }

    /// Re-replicates every undecided entry to the freshly connected
    /// direct link `peer`.
    pub fn repost_direct(&mut self, peer: MemberId, ops: &mut HostOps<'_, '_>) {
        let Some(link) = self.direct_links.get(&peer) else {
            return;
        };
        let (Some(qpn), Some(advert)) = (link.qpn, link.advert) else {
            return;
        };
        for (seq, at, data) in self.undecided(ops) {
            ops.post_write(
                qpn,
                WrId(WR_DIRECT | (u64::from(peer.0) << 48) | seq),
                advert.va + at as u64,
                advert.rkey,
                data,
            );
        }
    }
}

impl<C: Comm> Member<C> {
    fn peer_index(&self, peer: MemberId) -> usize {
        self.cfg
            .cluster
            .members
            .iter()
            .position(|&(id, _)| id == peer)
            .expect("peer is part of the cluster")
    }

    /// Drops `id`'s ready direct link.
    fn exclude_replica(&mut self, id: MemberId, ops: &mut HostOps<'_, '_>) {
        let ready = |l: &&mut Link| l.state == LinkState::Ready;
        if let Some(link) = self.direct_links.get_mut(&id).filter(ready) {
            link.state = LinkState::Dead;
            if let Some(qpn) = link.qpn.take() {
                ops.destroy_qp(qpn);
            }
            self.stats
                .event(ops.now(), MemberEvent::ReplicaExcluded { id });
        }
    }

    fn connect_direct(&mut self, peer: MemberId, ops: &mut HostOps<'_, '_>) {
        let ip = self.cfg.cluster.addr_of(peer);
        let hs = ops.connect(ip, Bytes::from_static(&[KIND_REPLICATION]));
        self.handshake_peer.insert(hs, (KIND_REPLICATION, peer));
        self.direct_links
            .insert(peer, Link::new(LinkState::Connecting));
    }

    // ------------------------------------------------------------------
    // Heartbeats & views
    // ------------------------------------------------------------------

    fn heartbeat_tick(&mut self, ops: &mut HostOps<'_, '_>) {
        // Publish our own liveness.
        let value = self.counter.tick();
        if let Some(region) = self.hb_region {
            ops.write_local(region, 0, &value.to_be_bytes());
        }
        // Feed the detector with the freshest knowledge of every peer —
        // once the grace window for link establishment has passed.
        let peers: Vec<MemberId> = self.hb_links.keys().copied().collect();
        if self.detector_grace > 0 {
            self.detector_grace -= 1;
        } else {
            for peer in &peers {
                let last = self.hb_links[peer].last_seen;
                self.detector.observe(*peer, last);
            }
        }
        // Issue this round's reads and drive reconnects.
        let timing = self.cfg.cluster.timing;
        for peer in peers {
            let link = self.hb_links.get_mut(&peer).expect("known peer");
            match link.state {
                LinkState::Ready => {
                    let (qpn, advert) = (
                        link.qpn.expect("ready link has a QP"),
                        link.advert.expect("ready link has an advert"),
                    );
                    let slot = self.peer_index(peer) * 8;
                    ops.post_read(
                        qpn,
                        WrId(WR_HB | u64::from(peer.0)),
                        advert.va,
                        advert.rkey,
                        8,
                        self.hb_scratch.expect("registered"),
                        slot,
                    );
                }
                LinkState::Idle => self.connect_hb(peer, ops),
                LinkState::Dead | LinkState::Connecting => {
                    if link.redial_due(&timing) {
                        self.connect_hb(peer, ops);
                    }
                }
            }
        }
        self.update_view(ops);
        // A dead fabric looks like every peer dying at once: fail over to
        // the backup path if we have one.
        if !self.failed_over
            && self.cfg.backup_port.is_some()
            && self.detector.alive_peers().is_empty()
            && self.views.view() > 0
        {
            self.path_failover(ops);
            return;
        }
        ops.set_app_timer(self.cfg.cluster.heartbeat_period, T_HEARTBEAT);
    }

    fn connect_hb(&mut self, peer: MemberId, ops: &mut HostOps<'_, '_>) {
        let ip = self.cfg.cluster.addr_of(peer);
        let hs = ops.connect(ip, Bytes::from_static(&[KIND_HEARTBEAT]));
        self.handshake_peer.insert(hs, (KIND_HEARTBEAT, peer));
        self.hb_links.get_mut(&peer).expect("known peer").state = LinkState::Connecting;
    }

    fn update_view(&mut self, ops: &mut HostOps<'_, '_>) {
        let mut alive: BTreeSet<MemberId> = self.detector.alive_peers();
        alive.insert(self.cfg.id);
        let Some(change) = self.views.update(&alive) else {
            if self.i_am_leader {
                C::on_liveness(self, ops);
            }
            return;
        };
        self.stats.event(
            ops.now(),
            MemberEvent::ViewChange {
                view: change.view,
                leader: change.new,
            },
        );
        ops.tracer().emit(ops.now(), || TraceEvent::ViewChange {
            view: change.view,
            leader: change.new.map_or(u64::MAX, |m| u64::from(m.0)),
        });
        let i_lead = change.new == Some(self.cfg.id);
        if i_lead && !self.i_am_leader {
            self.become_leader(change.view, ops);
        } else if !i_lead {
            self.i_am_leader = false;
            self.comm.stand_down();
            self.fence_log(ops);
        }
    }

    /// Fences out the deposed leader's grants on this member's own log:
    /// revoke every granted IP, close the QPN allowlist, forget the
    /// epoch. Runs on every epoch boundary (view change while not
    /// leading, and taking over leadership) — unless the test-only
    /// `skip_epoch_revoke` mutation is armed, which models precisely
    /// this fence being forgotten so the explorer's single-writer
    /// oracle has a real bug to catch.
    fn fence_log(&mut self, ops: &mut HostOps<'_, '_>) {
        if self.comm.skip_epoch_revoke() {
            return;
        }
        if let Some(region) = self.log_region {
            for ip in std::mem::take(&mut self.granted_ips) {
                ops.revoke(region, ip);
            }
            self.view_writer_qpns.clear();
            ops.set_allowed_writer_qpns(region, Some(self.view_writer_qpns.clone()));
            self.epoch_leader = None;
        }
    }

    fn become_leader(&mut self, view: u64, ops: &mut HostOps<'_, '_>) {
        self.i_am_leader = true;
        self.comm.stand_down();
        self.workload_started = false;
        self.first_decision_pending = true;
        // A new leader's own log is also an old-epoch log.
        self.fence_log(ops);
        self.stats
            .event(ops.now(), MemberEvent::BecameLeader { view });
        // Continue the log from what we consumed as a replica.
        self.writer
            .resume(self.reader.offset(), self.reader.consumed());
        C::take_over(self, ops);
    }

    fn path_failover(&mut self, ops: &mut HostOps<'_, '_>) {
        self.failed_over = true;
        self.first_decision_pending = true;
        self.stats.event(ops.now(), MemberEvent::PathFailover);
        let backup = self.cfg.backup_port.expect("checked by caller");
        ops.set_active_port(backup);
        // Tear down everything bound to the dead path.
        for link in self.hb_links.values_mut() {
            if let Some(qpn) = link.qpn.take() {
                ops.destroy_qp(qpn);
            }
            link.state = LinkState::Dead;
            link.backoff = 0;
        }
        self.close_direct_links(ops);
        self.comm.on_path_failover(ops);
        // Routes re-converge and connections re-establish after the
        // fail-over penalty; heartbeats resume then.
        ops.set_app_timer(self.cfg.path_failover_delay, T_PATH_RECOVER);
    }

    // ------------------------------------------------------------------
    // Workload
    // ------------------------------------------------------------------

    fn workload_done(&self, spec: &WorkloadSpec) -> bool {
        spec.total_requests != 0 && self.stats.issued >= spec.total_requests
    }

    fn arrival_tick(&mut self, ops: &mut HostOps<'_, '_>) {
        let Some(spec) = self.cfg.workload else {
            return;
        };
        if self.workload_done(&spec) {
            return;
        }
        let now = ops.now();
        if C::ready(self) {
            self.propose(now, ops);
        } else {
            // The path is down or reconfiguring: requests queue (their
            // latency will include the outage).
            self.parked.push_back(now);
            self.stats.issued += 1;
        }
        if let Some(clock) = &mut self.arrivals {
            let next = clock.advance();
            if !self.workload_done(&spec) {
                ops.set_app_timer(next.saturating_duration_since(ops.now()), T_ARRIVAL);
            }
        }
    }

    fn drain_parked(&mut self, ops: &mut HostOps<'_, '_>) {
        while C::ready(self) {
            let Some(arrived) = self.parked.pop_front() else {
                break;
            };
            self.stats.issued -= 1; // propose() re-counts it
            self.propose(arrived, ops);
        }
    }

    /// Tops a closed-loop workload back up to its in-flight target after
    /// an outage.
    fn reprime_closed_loop(&mut self, ops: &mut HostOps<'_, '_>) {
        let Some(spec) = self.cfg.workload else {
            return;
        };
        let WorkloadMode::Closed { inflight } = spec.mode else {
            return;
        };
        if !self.workload_started || !C::ready(self) {
            return;
        }
        self.top_up(&spec, inflight.saturating_sub(self.pending.len()), ops);
    }

    /// Proposes up to `n` generated values, stopping at the workload's
    /// total.
    fn top_up(&mut self, spec: &WorkloadSpec, n: usize, ops: &mut HostOps<'_, '_>) {
        for _ in 0..n {
            if self.workload_done(spec) {
                break;
            }
            let now = ops.now();
            self.propose(now, ops);
        }
    }

    /// One consensus: append locally, hand the value to the
    /// communication strategy, and wait for `f` acknowledgements.
    fn propose(&mut self, arrived: SimTime, ops: &mut HostOps<'_, '_>) {
        let payload = self.payload_proto.clone();
        self.propose_payload(payload, arrived, ops);
    }

    fn propose_payload(&mut self, payload: Bytes, arrived: SimTime, ops: &mut HostOps<'_, '_>) {
        debug_assert!(self.i_am_leader);
        let size = payload.len();
        let Ok((entry, bytes, at)) = self.writer.append(payload) else {
            return; // log full: experiments size logs to avoid this
        };
        let region = self.log_region.expect("registered at start");
        ops.write_local(region, at, &bytes);
        self.stats.issued += 1;
        let (view, seq) = (self.views.view(), entry.seq);
        ops.tracer()
            .emit(ops.now(), || TraceEvent::Propose { view, seq });
        self.pending.insert(
            seq,
            PendingDecision {
                acks: 0,
                arrived,
                size,
                at,
                len: bytes.len(),
            },
        );
        C::post(self, seq, at, bytes, ops);
    }

    fn on_direct_completion(
        &mut self,
        peer: MemberId,
        seq: u64,
        c: &Completion,
        ops: &mut HostOps<'_, '_>,
    ) {
        if !c.status.is_success() {
            // The replica (or the path to it) failed: exclude it.
            self.exclude_replica(peer, ops);
            C::on_direct_completion(self, c);
            return;
        }
        C::on_direct_completion(self, c);
        let Some(p) = self.pending.get_mut(&seq) else {
            return;
        };
        p.acks += 1;
        if p.acks >= self.cfg.cluster.f() as u32 {
            self.decide(seq, ops);
        }
    }

    // ------------------------------------------------------------------
    // Connection management (replica side + leader handshakes)
    // ------------------------------------------------------------------

    fn on_connect_request(
        &mut self,
        mut req: ConnectRequest,
        private_data: &[u8],
        ops: &mut HostOps<'_, '_>,
    ) {
        if let Some(leader_ip) = C::join_leader(private_data) {
            req.leader_ip = leader_ip;
            return self.defer_accept(req, ops);
        }
        match private_data.first() {
            Some(&KIND_HEARTBEAT) => {
                let advert = advert_of(self.hb_region.expect("registered at start"), ops);
                ops.accept(
                    req.handshake_id,
                    req.from_ip,
                    req.from_qpn,
                    req.start_psn,
                    advert,
                );
            }
            Some(&KIND_REPLICATION) => self.defer_accept(req, ops),
            _ => ops.reject(req.handshake_id, req.from_ip, RejectReason::NotListening),
        }
    }

    fn defer_accept(&mut self, req: ConnectRequest, ops: &mut HostOps<'_, '_>) {
        // Only the member we believe leads may write our log (§III). The
        // grant itself takes the permission-change delay to apply; the
        // reply signals readiness.
        let believed = self.views.leader().map(|id| self.cfg.cluster.addr_of(id));
        if believed != Some(req.leader_ip) {
            ops.reject(req.handshake_id, req.from_ip, RejectReason::NotAuthorized);
            return;
        }
        // Permission changes cost 0.9 ms — but only when the epoch's
        // grants actually change (the incumbent leader re-connecting, or
        // adding a second path next to its first, pays nothing).
        let unchanged =
            self.epoch_leader == Some(req.leader_ip) && self.granted_ips.contains(&req.from_ip);
        let delay = if unchanged {
            SimDuration::ZERO
        } else {
            self.cfg.cluster.permission_change_delay
        };
        let key = self.next_defer;
        self.next_defer += 1;
        self.deferred.insert(key, req);
        ops.set_app_timer(delay, T_DEFER_ACCEPT | key);
    }

    fn finish_deferred_accept(&mut self, key: u64, ops: &mut HostOps<'_, '_>) {
        let Some(d) = self.deferred.remove(&key) else {
            return;
        };
        // The leader may have changed while the grant was applying.
        let believed = self.views.leader().map(|id| self.cfg.cluster.addr_of(id));
        if believed != Some(d.leader_ip) {
            ops.reject(d.handshake_id, d.from_ip, RejectReason::NotAuthorized);
            return;
        }
        let region = self.log_region.expect("registered at start");
        // New epoch? Revoke everything from the previous leader. Only
        // this epoch's queue pairs may write the log, so a deposed
        // leader's stale connection NAKs; a new leader also means a new
        // epoch of the log.
        if self.epoch_leader != Some(d.leader_ip) {
            let stale = std::mem::take(&mut self.granted_ips);
            if !self.comm.skip_epoch_revoke() {
                for ip in stale {
                    ops.revoke(region, ip);
                }
            }
            self.view_writer_qpns.clear();
            self.epoch_leader = Some(d.leader_ip);
            self.reader.reset();
            ops.write_local(region, 0, &[0u8; 16]);
        }
        ops.grant(region, d.from_ip, Permissions::WRITE);
        self.granted_ips.insert(d.from_ip);
        let advert = advert_of(region, ops);
        let qpn = ops.accept(d.handshake_id, d.from_ip, d.from_qpn, d.start_psn, advert);
        self.view_writer_qpns.insert(qpn.masked());
        ops.set_allowed_writer_qpns(region, Some(self.view_writer_qpns.clone()));
    }

    fn on_connected(
        &mut self,
        handshake_id: u64,
        qpn: Qpn,
        private_data: &[u8],
        ops: &mut HostOps<'_, '_>,
    ) {
        let Some((kind, peer)) = self.handshake_peer.remove(&handshake_id) else {
            return;
        };
        let advert = RegionAdvert::decode(private_data).ok();
        match kind {
            KIND_HEARTBEAT => {
                if let Some(link) = self.hb_links.get_mut(&peer) {
                    link.state = LinkState::Ready;
                    link.qpn = Some(qpn);
                    link.advert = advert;
                    link.backoff = 0;
                }
            }
            KIND_REPLICATION => {
                if let Some(link) = self.direct_links.get_mut(&peer) {
                    link.state = LinkState::Ready;
                    link.qpn = Some(qpn);
                    link.advert = advert;
                }
                // Catch the replica up on everything already appended so
                // its log has no gap (simplified Mu state transfer), in
                // chunks that each stay comfortably inside the transport's
                // retransmission timeout.
                const CHUNK: usize = 64 << 10;
                if let Some(advert) = advert {
                    let (region, prefix) =
                        (self.log_region.expect("registered"), self.writer.offset());
                    for off in (0..prefix).step_by(CHUNK) {
                        let end = (off + CHUNK).min(prefix);
                        let data = Bytes::copy_from_slice(ops.read_local(region, off, end - off));
                        let wr_id = WrId(WR_CATCHUP | u64::from(peer.0));
                        ops.post_write(qpn, wr_id, advert.va + off as u64, advert.rkey, data);
                    }
                }
                C::on_direct_up(self, peer, ops);
                self.drain_parked(ops);
                self.reprime_closed_loop(ops);
            }
            _ => {}
        }
    }

    fn on_rejected(&mut self, handshake_id: u64, ops: &mut HostOps<'_, '_>) {
        let Some((kind, peer)) = self.handshake_peer.remove(&handshake_id) else {
            return;
        };
        match kind {
            KIND_HEARTBEAT => {
                if let Some(link) = self.hb_links.get_mut(&peer) {
                    link.state = LinkState::Dead;
                }
            }
            // The replica has not adopted us yet: retry shortly.
            KIND_REPLICATION if self.i_am_leader => {
                ops.set_app_timer(
                    self.cfg.cluster.timing.replica_reconnect_delay,
                    T_RECONNECT | u64::from(peer.0),
                );
            }
            _ => {}
        }
    }

    fn retry_direct(&mut self, peer: MemberId, ops: &mut HostOps<'_, '_>) {
        if !self.i_am_leader || !self.detector.is_alive(peer) || !self.comm.direct_active() {
            return;
        }
        self.connect_direct(peer, ops);
    }
}

/// The encoded advert a peer needs to reach `region` remotely.
fn advert_of(region: RegionHandle, ops: &mut HostOps<'_, '_>) -> Bytes {
    let info = ops.region_info(region);
    RegionAdvert {
        va: info.va,
        rkey: info.rkey,
        len: info.len,
    }
    .encode()
}

impl<C: Comm> RdmaApp for Member<C> {
    fn on_start(&mut self, ops: &mut HostOps<'_, '_>) {
        // The log: writable only by the (future) leader.
        let log = ops.register_region(self.cfg.cluster.log_size, Permissions::NONE);
        ops.watch_region(log);
        self.log_region = Some(log);
        // The heartbeat counter: readable by everyone.
        let hb = ops.register_region(8, Permissions::READ);
        self.hb_region = Some(hb);
        // Landing pad for our reads of peers' counters.
        let scratch = ops.register_region(8 * self.cfg.cluster.n(), Permissions::NONE);
        self.hb_scratch = Some(scratch);
        // Kick the heartbeat loop; the first tick also opens hb links.
        ops.set_app_timer(self.cfg.cluster.heartbeat_period, T_HEARTBEAT);
    }

    fn on_completion(&mut self, c: Completion, ops: &mut HostOps<'_, '_>) {
        match c.wr_id.0 & WR_CLASS_MASK {
            WR_HB => {
                let peer = MemberId((c.wr_id.0 & 0xff) as u8);
                if c.status.is_success() {
                    let slot = self.peer_index(peer) * 8;
                    let raw = ops.read_local(self.hb_scratch.expect("registered"), slot, 8);
                    let value = u64::from_be_bytes(raw.try_into().expect("8 bytes"));
                    if let Some(link) = self.hb_links.get_mut(&peer) {
                        link.last_seen = value;
                    }
                } else if let Some(link) = self.hb_links.get_mut(&peer) {
                    if c.status != CompletionStatus::Flushed {
                        if let Some(qpn) = link.qpn.take() {
                            ops.destroy_qp(qpn);
                        }
                    } else {
                        link.qpn = None;
                    }
                    link.state = LinkState::Dead;
                }
            }
            WR_STRATEGY => C::on_completion(self, &c, ops),
            WR_DIRECT => {
                let peer = MemberId(((c.wr_id.0 >> 48) & 0xff) as u8);
                self.on_direct_completion(peer, c.wr_id.0 & WR_SEQ_MASK, &c, ops);
            }
            _ => {} // WR_CATCHUP: state transfer, not part of any decision
        }
    }

    fn on_cm_event(&mut self, ev: CmEvent, ops: &mut HostOps<'_, '_>) {
        if C::on_cm_event(self, &ev, ops) {
            return;
        }
        match ev {
            CmEvent::ConnectRequestReceived {
                handshake_id,
                from_ip,
                from_qpn,
                start_psn,
                private_data,
            } => {
                let req = ConnectRequest {
                    handshake_id,
                    from_ip,
                    from_qpn,
                    start_psn,
                    leader_ip: from_ip,
                };
                self.on_connect_request(req, &private_data, ops);
            }
            CmEvent::Connected {
                handshake_id,
                qpn,
                private_data,
                ..
            } => self.on_connected(handshake_id, qpn, &private_data, ops),
            CmEvent::Rejected { handshake_id, .. } => self.on_rejected(handshake_id, ops),
            CmEvent::Established { .. } => {}
        }
    }

    fn on_remote_write(
        &mut self,
        region: RegionHandle,
        offset: u64,
        payload: &Bytes,
        ops: &mut HostOps<'_, '_>,
    ) {
        if Some(region) != self.log_region {
            return;
        }
        // Fast path: drain entries straight out of the delivered payload
        // (zero-copy slices of the received frame). The region sweep
        // afterwards picks up anything the payload path could not serve —
        // entries completed by earlier deliveries, or a reader positioned
        // outside the delivered range — and is a no-op in steady state.
        let log_size = self.cfg.cluster.log_size;
        let entries = {
            let mut entries = self
                .reader
                .drain_payload(payload, offset as usize)
                .unwrap_or_default();
            let log = ops.read_local(region, 0, log_size);
            entries.extend(self.reader.drain(log).unwrap_or_default());
            entries
        };
        for entry in &entries {
            // Epoch rebuilds replay the log from the head; skip what
            // this member already applied so application is exactly-once.
            if entry.seq < self.next_apply_seq {
                continue;
            }
            self.next_apply_seq = entry.seq + 1;
            self.stats.applied += 1;
            let seq = entry.seq;
            ops.tracer().emit(ops.now(), || TraceEvent::Apply { seq });
            if let Some(sm) = &mut self.state_machine {
                sm.apply(entry);
            }
        }
    }

    fn on_nak(&mut self, qpn: Qpn, _code: NakCode, ops: &mut HostOps<'_, '_>) {
        C::on_nak(self, qpn, ops);
    }

    fn on_timer(&mut self, token: u64, ops: &mut HostOps<'_, '_>) {
        let data = token & T_DATA_MASK;
        match token & T_CLASS_MASK {
            T_HEARTBEAT => self.heartbeat_tick(ops),
            T_ARRIVAL => self.arrival_tick(ops),
            T_DEFER_ACCEPT => self.finish_deferred_accept(data, ops),
            T_RECONNECT => self.retry_direct(MemberId((data & 0xff) as u8), ops),
            T_PATH_RECOVER => {
                // Routes have re-converged on the backup fabric: resume
                // heartbeats (links reconnect lazily from the tick).
                for link in self.hb_links.values_mut() {
                    link.state = LinkState::Idle;
                }
                C::on_path_recovered(self, ops);
                self.heartbeat_tick(ops);
            }
            _ => C::on_timer(self, token, ops),
        }
    }
}
