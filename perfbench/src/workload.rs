//! The four workloads and one pass over a deployment: build, reach
//! steady state, warm up, measure, check.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use netsim::{LatencyRecorder, SimDuration, SimTime};
use p4ce_harness::failover::FailoverBudget;

use crate::alloc::{self, HeapCounts};
use crate::check::{check_logs, logs_digest, payload_hash, splitmix64};
use crate::cluster::{Cluster, HostNode, Spec, SwitchNode};
use crate::ledger::{self, Layer, Window};
use crate::wrap::Member;

/// Which system a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// In-network replication through the P4CE switch program.
    P4ce,
    /// Mu: the leader writes to every replica directly.
    Mu,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The benchmark's client keeps `inflight` values open at member 0.
    Closed {
        /// Requests in flight.
        inflight: usize,
        /// Simulated span measured after warm-up.
        measure: SimDuration,
    },
    /// The benchmark's client proposes on a fixed schedule and member 0
    /// is killed `kill_after` into steady state.
    Failover {
        /// Time between proposals.
        period: SimDuration,
        /// Steady state to kill.
        kill_after: SimDuration,
        /// Kill to end of run.
        observe: SimDuration,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The system under test.
    pub system: System,
    /// Members in the group.
    pub members: usize,
    /// Bytes per proposed value.
    pub value_size: usize,
    /// Arrival process.
    pub kind: Kind,
}

/// Simulated time between steady state and the measured phase.
pub const WARMUP: SimDuration = SimDuration::from_millis(5);

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "p4ce_small",
        system: System::P4ce,
        members: 4,
        value_size: 64,
        kind: Kind::Closed {
            inflight: 16,
            measure: SimDuration::from_millis(20),
        },
    },
    Workload {
        name: "p4ce_large",
        system: System::P4ce,
        members: 4,
        value_size: 8192,
        kind: Kind::Closed {
            inflight: 16,
            measure: SimDuration::from_millis(3),
        },
    },
    Workload {
        name: "mu_small",
        system: System::Mu,
        members: 4,
        value_size: 64,
        kind: Kind::Closed {
            inflight: 16,
            measure: SimDuration::from_millis(20),
        },
    },
    Workload {
        name: "p4ce_failover",
        system: System::P4ce,
        members: 3,
        value_size: 64,
        kind: Kind::Failover {
            period: SimDuration::from_micros(1),
            kill_after: SimDuration::from_millis(20),
            observe: SimDuration::from_millis(200),
        },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn spec(&self, seed: u64) -> Spec {
        Spec {
            members: self.members,
            seed,
        }
    }
}

/// Simulated-time results of a pass; identical for every pass of one
/// workload and seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFigures {
    /// Values decided in the measured phase.
    pub decided: u64,
    /// Length of the measured phase.
    pub span_ns: u64,
    /// Latency samples in the measured phase.
    pub samples: u64,
    /// Median decide latency.
    pub p50_ns: u64,
    /// 99th-percentile decide latency.
    pub p99_ns: u64,
    /// The failover budget's five phases, which sum to the client-visible
    /// unavailability; only a workload with a kill has them.
    pub phases_ns: Option<[u64; 5]>,
}

/// What the untraced and traced runs must agree on bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proof {
    /// `Simulation::events_processed` at the end of the run.
    pub events: u64,
    /// Values decided over the whole run.
    pub decided: u64,
    /// Digest of every member's applied log.
    pub log_digest: u64,
}

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Deterministic work counters, summed over the deployment.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(
                #[allow(missing_docs)]
                pub $field: u64,
            )*
        }

        impl Counts {
            fn minus(self, o: Counts) -> Counts {
                Counts { $($field: self.$field - o.$field,)* }
            }
        }
    };
}

counts!(
    events,
    wire_bytes,
    tx_packets,
    rx_packets,
    acks,
    retransmits,
    acks_templated,
    acks_serialized,
    rx_zero_copy,
    rx_copied,
    multicast_copies,
    emitted_patched,
    emitted_reserialized,
    scattered,
    acks_absorbed,
    leader_busy_ns,
);

/// Everything one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// Simulated-time results.
    pub sim: SimFigures,
    /// Work counters over the measured phase.
    pub counts: Counts,
    /// The observer-proof triple.
    pub proof: Proof,
    /// Requests the client issued over the whole run.
    pub attempted: u64,
    /// Requests no leader accepted.
    pub refused: u64,
    /// The correctness gate's verdict.
    pub gate: Result<(), String>,
    /// Per-layer wall time of the measured phase (traced passes).
    pub window: Option<Window>,
    /// Heap traffic of the measured phase (traced passes).
    pub heap: Option<HeapCounts>,
}

fn snapshot<H: HostNode, S: SwitchNode>(c: &Cluster<H, S>, leader: usize) -> Counts {
    let mut k = Counts {
        events: c.sim.events_processed(),
        wire_bytes: c.wire_bytes(),
        leader_busy_ns: c.cpu_busy(leader).as_nanos(),
        ..Counts::default()
    };
    for i in 0..c.members.len() {
        let h = c.host_stats(i);
        k.tx_packets += h.packets_sent;
        k.rx_packets += h.packets_received;
        k.acks += h.acks_sent;
        k.retransmits += h.retransmits;
        k.acks_templated += h.acks_templated;
        k.acks_serialized += h.acks_serialized;
        k.rx_zero_copy += h.rx_zero_copy_deliveries;
        k.rx_copied += h.rx_copied_deliveries;
    }
    let (sw, program) = c.switch_counters();
    k.multicast_copies = sw.multicast_copies;
    k.emitted_patched = sw.emitted_patched;
    k.emitted_reserialized = sw.emitted_reserialized;
    if let Some(p) = program {
        k.scattered = p.scattered;
        k.acks_absorbed = p.acks_absorbed;
    }
    k
}

fn decided_total<H: HostNode, S: SwitchNode>(c: &Cluster<H, S>) -> u64 {
    (0..c.members.len()).map(|i| c.app(i).stats().decided).sum()
}

/// One recorder holding every sample of `recs`, replayed in sorted
/// order: the nearest-rank percentile at `(i + ½) / n` is sample `i`.
fn pooled<'a>(recs: impl Iterator<Item = &'a LatencyRecorder>) -> LatencyRecorder {
    let mut all = LatencyRecorder::new();
    for rec in recs {
        let mut rec = rec.clone();
        let n = rec.len();
        for i in 0..n {
            all.record(rec.percentile((i as f64 + 0.5) * 100.0 / n as f64));
        }
    }
    all
}

/// Bytes of the client's random pool beyond one value, so consecutive
/// values start at different offsets.
const POOL_SLACK: usize = 4096;

/// Values of the benchmark's client: an 8-byte request number, then a
/// window of a pool of splitmix64 bytes seeded by the run's seed, at an
/// offset picked by the request number. Every value is distinct.
struct Client {
    pool: Vec<u8>,
    issued: u64,
    size: usize,
}

impl Client {
    fn new(seed: u64, size: usize) -> Self {
        let mut state = splitmix64(seed);
        let mut pool = Vec::with_capacity(size + POOL_SLACK + 8);
        while pool.len() < size + POOL_SLACK {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            pool.extend_from_slice(&splitmix64(state).to_le_bytes());
        }
        Client {
            pool,
            issued: 0,
            size,
        }
    }

    fn next(&mut self) -> Bytes {
        let n = self.issued;
        self.issued += 1;
        let at = (splitmix64(n) % POOL_SLACK as u64) as usize;
        let mut v = Vec::with_capacity(self.size);
        v.extend_from_slice(&n.to_le_bytes());
        v.extend_from_slice(&self.pool[at..at + self.size.saturating_sub(8)]);
        v.truncate(self.size);
        Bytes::from(v)
    }
}

/// The closed-loop client: keeps `inflight` values open at member 0 and
/// tops them up at the simulated instant member 0 decides one.
struct ClosedClient {
    client: Client,
    inflight: u64,
    /// Member 0's decided count at the last top-up.
    seen_decided: u64,
    /// Proposal instants of the open values, oldest first. A leader
    /// decides in seq order, so a decision closes the oldest.
    open: VecDeque<SimTime>,
    /// Proposal-to-decision latency of every closed value.
    latency: LatencyRecorder,
    /// Payload hash of every value member 0 accepted, in proposal order.
    accepted: Vec<u64>,
    refused: u64,
}

impl ClosedClient {
    /// Runs the simulation event by event until its clock reaches
    /// `until`, serving member 0 after every event.
    fn run_to<H: HostNode, S: SwitchNode>(
        &mut self,
        c: &mut Cluster<H, S>,
        until: SimTime,
        traced: bool,
    ) {
        while c.sim.now() < until {
            let stepped = c.sim.step();
            assert!(stepped, "heartbeats keep the event queue busy");
            let decided = c.app(0).stats().decided;
            if decided == self.seen_decided {
                continue;
            }
            let now = c.sim.now();
            for _ in self.seen_decided..decided {
                let at = self.open.pop_front().expect("a decided value was open");
                self.latency.record(now.saturating_duration_since(at));
            }
            self.seen_decided = decided;
            if traced {
                ledger::enter(Layer::Client);
            }
            self.top_up(c);
            if traced {
                ledger::exit();
            }
        }
    }

    fn top_up<H: HostNode, S: SwitchNode>(&mut self, c: &mut Cluster<H, S>) {
        loop {
            let s = c.app(0).stats();
            let issued = s.issued;
            if issued - s.decided >= self.inflight {
                return;
            }
            let payload = self.client.next();
            let hash = payload_hash(&payload);
            // `propose_value` also accepts a value its log writer then
            // drops; only a grown `issued` count means it went out.
            if !c.propose(0, payload) || c.app(0).stats().issued == issued {
                self.refused += 1;
                return;
            }
            self.accepted.push(hash);
            self.open.push_back(c.sim.now());
        }
    }
}

/// Starts the measured phase: allocation counting and the ledger when
/// traced, then the wall clock.
fn begin(traced: bool) -> Instant {
    if traced {
        alloc::start();
        ledger::start();
    }
    Instant::now()
}

/// Ends the measured phase.
fn end(traced: bool, t0: Instant) -> (Duration, Option<Window>, Option<HeapCounts>) {
    let wall = t0.elapsed();
    if traced {
        let window = ledger::stop();
        let heap = alloc::stop();
        (wall, Some(window), Some(heap))
    } else {
        (wall, None, None)
    }
}

/// Runs the simulation in short steps until member 0 is steady; returns
/// the instant it got there.
fn reach_steady_state<H: HostNode, S: SwitchNode>(c: &mut Cluster<H, S>) -> SimTime {
    let limit = SimTime::from_millis(2_000);
    while !c.app(0).steady() {
        assert!(c.sim.now() < limit, "member 0 never reached steady state");
        c.sim.run_for(SimDuration::from_micros(10));
    }
    c.sim.now()
}

/// Builds a deployment and brings it to steady state, returning it with
/// the wall time that took.
pub fn set_up<H: HostNode, S: SwitchNode>(
    wl: &Workload,
    seed: u64,
    build: fn(&Spec) -> Cluster<H, S>,
) -> (Cluster<H, S>, SimTime, Duration) {
    let t0 = Instant::now();
    let mut c = build(&wl.spec(seed));
    let t_ss = reach_steady_state(&mut c);
    (c, t_ss, t0.elapsed())
}

/// One full pass of `wl` on the deployment `build` makes.
pub fn run_pass<H: HostNode, S: SwitchNode>(
    wl: &Workload,
    seed: u64,
    build: fn(&Spec) -> Cluster<H, S>,
    traced: bool,
) -> Pass {
    let (c, t_ss, _) = set_up(wl, seed, build);
    match wl.kind {
        Kind::Closed { inflight, measure } => {
            closed_loop(c, wl, seed, inflight, measure, t_ss, traced)
        }
        Kind::Failover {
            period,
            kill_after,
            observe,
        } => failover(c, wl, seed, t_ss, period, kill_after, observe, traced),
    }
}

fn closed_loop<H: HostNode, S: SwitchNode>(
    mut c: Cluster<H, S>,
    wl: &Workload,
    seed: u64,
    inflight: usize,
    measure: SimDuration,
    t_ss: SimTime,
    traced: bool,
) -> Pass {
    let n = c.members.len();
    let mut client = ClosedClient {
        client: Client::new(seed, wl.value_size),
        inflight: inflight as u64,
        seen_decided: c.app(0).stats().decided,
        open: VecDeque::new(),
        latency: LatencyRecorder::new(),
        accepted: Vec::new(),
        refused: 0,
    };
    client.top_up(&mut c);
    client.run_to(&mut c, t_ss + WARMUP, traced);
    let warm = c.sim.now();
    client.latency.clear();
    let before = snapshot(&c, 0);
    let decided_before = decided_total(&c);
    let t0 = begin(traced);
    client.run_to(&mut c, warm + measure, traced);
    let (wall, window, heap) = end(traced, t0);
    let counts = snapshot(&c, 0).minus(before);
    let decided_all = decided_total(&c);

    let lat = &mut client.latency;
    let sim = SimFigures {
        decided: decided_all - decided_before,
        span_ns: c.sim.now().saturating_duration_since(warm).as_nanos(),
        samples: lat.len() as u64,
        p50_ns: lat.percentile(50.0).as_nanos(),
        p99_ns: lat.percentile(99.0).as_nanos(),
        phases_ns: None,
    };
    let live = vec![true; n];
    let decided_by_0 = c.app(0).stats().decided as usize;
    let must_hold = &client.accepted[..decided_by_0.min(client.accepted.len())];
    Pass {
        wall,
        gate: check_logs(&c.logs, &live, decided_all, must_hold),
        proof: Proof {
            events: c.sim.events_processed(),
            decided: decided_all,
            log_digest: logs_digest(&c.logs),
        },
        attempted: client.client.issued,
        refused: client.refused,
        sim,
        counts,
        window,
        heap,
    }
}

#[allow(clippy::too_many_arguments)]
fn failover<H: HostNode, S: SwitchNode>(
    mut c: Cluster<H, S>,
    wl: &Workload,
    seed: u64,
    t_ss: SimTime,
    period: SimDuration,
    kill_after: SimDuration,
    observe: SimDuration,
    traced: bool,
) -> Pass {
    let n = c.members.len();
    let t_measure = t_ss + WARMUP;
    let t_kill = t_ss + kill_after;
    let t_end = t_kill + observe;
    let mut client = Client::new(seed, wl.value_size);
    // Hashes of the values member 0 accepted, in proposal order.
    let mut accepted_by_0: Vec<u64> = Vec::new();
    let mut refused = 0u64;
    let mut seen_decided = 0u64;
    let mut last_decide_seen = t_ss;
    let mut decided_at_kill = None;
    let mut busy_at_kill = Vec::new();
    let mut measuring: Option<(Instant, Counts, u64)> = None;

    let mut due = t_ss;
    while due < t_end {
        c.sim.run_until(due);
        assert_eq!(c.sim.now(), due, "the client proposes exactly on time");
        if due == t_measure {
            for i in 0..n {
                c.app_mut(i).reset_measurements(due);
            }
            let before = snapshot(&c, 0);
            let decided = decided_total(&c);
            measuring = Some((begin(traced), before, decided));
        }
        if measuring.is_some() {
            ledger::enter(Layer::Client);
        }
        let decided = decided_total(&c);
        if decided > seen_decided {
            seen_decided = decided;
            if due <= t_kill {
                last_decide_seen = due;
            }
        }
        if due == t_kill {
            assert!(c.app(0).leads(), "member 0 leads until the kill");
            decided_at_kill = Some(c.app(0).stats().decided as usize);
            busy_at_kill = (0..n).map(|i| c.cpu_busy(i)).collect();
            c.kill(0);
        }
        let payload = client.next();
        let leader = (0..n).find(|&i| c.live(i) && c.app(i).operational());
        let hash = (leader == Some(0)).then(|| payload_hash(&payload));
        match leader {
            Some(l) if c.propose(l, payload) => accepted_by_0.extend(hash),
            _ => refused += 1,
        }
        if measuring.is_some() {
            ledger::exit();
        }
        due += period;
    }
    c.sim.run_until(t_end);
    let (t0, before, decided_before) = measuring.expect("the measured phase started");
    let (wall, window, heap) = end(traced, t0);
    let decided_all = decided_total(&c);

    let successor = (1..n)
        .find(|&i| {
            c.app(i)
                .stats()
                .event_time_after(t_kill, |e| {
                    matches!(e, mu::MemberEvent::FirstDecision { .. })
                })
                .is_some()
        })
        .expect("a surviving member took over and decided");
    // The leader's CPU: member 0 up to the kill, its successor after.
    let mut counts = snapshot(&c, successor).minus(before);
    counts.leader_busy_ns = (busy_at_kill[0].as_nanos() - before.leader_busy_ns)
        + (c.cpu_busy(successor) - busy_at_kill[successor]).as_nanos();
    let budget = FailoverBudget::from_events(t_kill, last_decide_seen, c.app(successor).stats());
    assert!(budget.reconciles(), "failover phases must telescope");
    let mut phases_ns = [0u64; 5];
    for (slot, phase) in phases_ns.iter_mut().zip(&budget.phases) {
        *slot = phase.duration().as_nanos();
    }
    assert_eq!(
        phases_ns.iter().sum::<u64>(),
        budget.unavailability().as_nanos()
    );

    let mut lat = pooled((0..n).map(|i| &c.app(i).stats().latency));
    let sim = SimFigures {
        decided: decided_all - decided_before,
        span_ns: t_end.saturating_duration_since(t_measure).as_nanos(),
        samples: lat.len() as u64,
        p50_ns: lat.percentile(50.0).as_nanos(),
        p99_ns: lat.percentile(99.0).as_nanos(),
        phases_ns: Some(phases_ns),
    };
    let live: Vec<bool> = (0..n).map(|i| c.live(i)).collect();
    let decided_by_0 = decided_at_kill.expect("the kill happened");
    let must_hold = &accepted_by_0[..decided_by_0.min(accepted_by_0.len())];
    Pass {
        wall,
        gate: check_logs(&c.logs, &live, decided_all, must_hold),
        proof: Proof {
            events: c.sim.events_processed(),
            decided: decided_all,
            log_digest: logs_digest(&c.logs),
        },
        attempted: client.issued,
        refused,
        sim,
        counts,
        window,
        heap,
    }
}
