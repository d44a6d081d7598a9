//! The sharded KV service: consistent-hash key→group routing over a
//! multi-group P4CE deployment, driven by an open-loop client
//! population with Zipfian key skew.
//!
//! One [`ShardedPointConfig`] describes a whole service instance: `G`
//! consensus groups behind one switch, a key space, a skew exponent and
//! an offered load. [`run_sharded_point`] builds it, routes every
//! sampled key through the [`HashRing`] to its group's leader, and
//! returns per-group and aggregate goodput/latency — the measurement
//! the groups-sweep experiment scans for the switch's contention knee.
//!
//! Everything here is a pure function of the config, like the
//! single-group runner: [`run_sharded_points_parallel`] is bit-identical
//! to the sequential sweep (the `threads_used` provenance field aside).

use bytes::{BufMut, Bytes, BytesMut};
use netsim::{group_scoped, MetricsRegistry, SimDuration, SimTime, Tracer};
use p4ce::{ClusterBuilder, Deployment, LogEntry, P4ceMember, StateMachine};
use rdma::Host;

use crate::{mix64, unit};

// ---------------------------------------------------------------------
// Key → group routing
// ---------------------------------------------------------------------

/// 64-bit FNV-1a — the ring's (and the log fingerprint's) hash. Stable,
/// dependency-free, and good enough at spreading virtual nodes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring mapping keys to groups. Each group owns
/// `vnodes` points on the ring; a key belongs to the first point at or
/// clockwise of its own hash. Adding or retiring one group moves only
/// ~`1/G` of the key space — the property that makes group lifecycle
/// cheap for the service above.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, group)`, sorted by position.
    points: Vec<(u64, u16)>,
}

impl HashRing {
    /// A ring over groups `0..groups` with `vnodes` points each.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0` or `vnodes == 0`.
    pub fn new(groups: u16, vnodes: usize) -> Self {
        assert!(groups > 0 && vnodes > 0, "ring needs groups and vnodes");
        let mut points = Vec::with_capacity(usize::from(groups) * vnodes);
        for g in 0..groups {
            for v in 0..vnodes {
                let mut tag = [0u8; 10];
                tag[..2].copy_from_slice(&g.to_be_bytes());
                tag[2..].copy_from_slice(&(v as u64).to_be_bytes());
                // Raw FNV over short, mostly-equal tags clusters in the
                // high bits, which would let one group's vnode arc swallow
                // the whole ring; the avalanche spreads them.
                points.push((mix64(fnv1a64(&tag)), g));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points }
    }

    /// The group owning `key`.
    pub fn group_of(&self, key: u64) -> u16 {
        let h = mix64(fnv1a64(&key.to_be_bytes()));
        let i = self.points.partition_point(|&(pos, _)| pos < h);
        self.points[i % self.points.len()].1
    }
}

// ---------------------------------------------------------------------
// Zipfian key sampler
// ---------------------------------------------------------------------

/// A seeded Zipf(θ) sampler over keys `0..n`: key `k` is drawn with
/// probability ∝ `1/(k+1)^θ`. θ = 0 degenerates to uniform; θ ≈ 0.99 is
/// the YCSB-style skew the sharded-KV population uses. Inversion over a
/// precomputed CDF: one `splitmix` draw and one binary search per
/// sample, fully deterministic in the seed.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    state: u64,
}

impl ZipfSampler {
    /// A sampler over `n` keys with exponent `theta`, seeded.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative.
    pub fn new(n: usize, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "need a non-empty key space");
        assert!(theta >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("non-empty");
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler {
            cdf,
            state: seed ^ 0x5a17_f00d_cafe_d00d,
        }
    }

    /// Draws the next key.
    pub fn next_key(&mut self) -> u64 {
        let u = unit(&mut self.state);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

// ---------------------------------------------------------------------
// The replicated store
// ---------------------------------------------------------------------

/// A `PUT` as replicated through a shard's log: fixed 18-byte header
/// (key, owning group, client counter), zero-padded to the configured
/// value size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKvCommand {
    /// The key being written.
    pub key: u64,
    /// The group the router sent this command to — the store audits it.
    pub group: u16,
    /// Client-side sequence counter (made the value for verifiability).
    pub counter: u64,
}

/// Encoded length of the command header.
pub const SHARD_CMD_LEN: usize = 18;

impl ShardKvCommand {
    /// Serializes, padded with zeros to `value_size` (min the header).
    pub fn encode(&self, value_size: usize) -> Bytes {
        let len = value_size.max(SHARD_CMD_LEN);
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u64(self.key);
        buf.put_u16(self.group);
        buf.put_u64(self.counter);
        while buf.len() < len {
            buf.put_u8(0);
        }
        buf.freeze()
    }

    /// Deserializes the header.
    pub fn decode(bytes: &[u8]) -> Option<ShardKvCommand> {
        if bytes.len() < SHARD_CMD_LEN {
            return None;
        }
        Some(ShardKvCommand {
            key: u64::from_be_bytes(bytes[0..8].try_into().ok()?),
            group: u16::from_be_bytes(bytes[8..10].try_into().ok()?),
            counter: u64::from_be_bytes(bytes[10..18].try_into().ok()?),
        })
    }
}

/// Each member's copy of its shard's store. Beyond the map it keeps a
/// running FNV fingerprint of `(seq, payload)` in application order —
/// the bit-exact log identity the isolation and determinism tests
/// compare — and counts *foreign* entries (commands routed to another
/// group), which must stay zero unless the cross-wiring mutation is
/// armed.
#[derive(Debug)]
pub struct ShardKvStore {
    /// The group this store's member belongs to.
    pub group: u16,
    /// key → (counter of the last applied PUT).
    pub map: std::collections::BTreeMap<u64, u64>,
    /// Entries applied.
    pub applied: u64,
    /// Entries tagged for a different group (cross-group contamination).
    pub foreign: u64,
    /// FNV-1a fold over every applied `(seq, payload)`.
    pub log_hash: u64,
}

impl ShardKvStore {
    /// An empty store for a member of `group`.
    pub fn new(group: u16) -> Self {
        ShardKvStore {
            group,
            map: std::collections::BTreeMap::new(),
            applied: 0,
            foreign: 0,
            log_hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl StateMachine for ShardKvStore {
    fn apply(&mut self, entry: &LogEntry) {
        self.log_hash ^= fnv1a64(&entry.seq.to_be_bytes());
        self.log_hash = self
            .log_hash
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(fnv1a64(&entry.payload));
        self.applied += 1;
        if let Some(cmd) = ShardKvCommand::decode(&entry.payload) {
            if cmd.group != self.group {
                self.foreign += 1;
            }
            self.map.insert(cmd.key, cmd.counter);
        }
    }
}

/// Reads member `(g, i)`'s store back out of a deployment.
pub fn store_of(d: &Deployment, g: usize, i: usize) -> &ShardKvStore {
    d.member(d.at(g, i))
        .state_machine()
        .and_then(|sm| (sm as &dyn std::any::Any).downcast_ref::<ShardKvStore>())
        .expect("ShardKvStore installed on every member")
}

// ---------------------------------------------------------------------
// The measured point
// ---------------------------------------------------------------------

/// Configuration of one sharded-KV service point.
#[derive(Debug, Clone)]
pub struct ShardedPointConfig {
    /// Number of consensus groups (shards) behind the one switch.
    pub groups: usize,
    /// Members per group (leader included).
    pub members_per_group: usize,
    /// Key-space size.
    pub keys: usize,
    /// Zipf exponent of the client population (0 = uniform).
    pub zipf_theta: f64,
    /// Bytes per replicated value (≥ the 18-byte command header).
    pub value_size: usize,
    /// Client proposals issued per tick (aggregate, before routing).
    pub burst: usize,
    /// Tick spacing of the open-loop client population.
    pub propose_every: SimDuration,
    /// Warm-up time after every leader is operational.
    pub warmup: SimDuration,
    /// Measurement window.
    pub window: SimDuration,
    /// Simulation seed (also seeds the Zipf sampler).
    pub seed: u64,
    /// Optional parser-slice pooling on the switch (contention model).
    pub parser_slices: Option<usize>,
    /// Optional parser-cost override.
    pub parser_cost: Option<SimDuration>,
    /// Trace sink.
    pub tracer: Tracer,
}

impl ShardedPointConfig {
    /// A point with `groups` shards: 3 members each, 256 keys at
    /// θ = 0.99, 64-byte values, `groups` proposals per 2 µs tick.
    pub fn new(groups: usize) -> Self {
        ShardedPointConfig {
            groups,
            members_per_group: 3,
            keys: 256,
            zipf_theta: 0.99,
            value_size: 64,
            burst: groups,
            propose_every: SimDuration::from_micros(2),
            warmup: SimDuration::from_millis(2),
            window: SimDuration::from_millis(10),
            seed: 42,
            parser_slices: None,
            parser_cost: None,
            tracer: Tracer::disabled(),
        }
    }
}

/// One group's slice of a [`ShardedOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardGroupOutcome {
    /// Decisions recorded at this group's leader inside the window.
    pub decided: u64,
    /// Decided operations per second.
    pub ops_per_sec: f64,
    /// Useful bytes decided per second.
    pub goodput_bytes_per_sec: f64,
    /// 99th-percentile decision latency, µs.
    pub p99_latency_us: f64,
    /// Whether the group ended the window on the in-network path.
    pub accelerated: bool,
    /// Replica 1's log fingerprint after the drain (the leader applies
    /// nothing — its log identity lives in its replicas).
    pub log_hash: u64,
    /// Foreign (other-group-tagged) entries applied across the group's
    /// members. Zero in any healthy run.
    pub foreign: u64,
}

/// What one sharded point produced. `PartialEq` excludes only the
/// `threads_used` provenance field, exactly like
/// [`crate::runner::PointOutcome`], so parallel and sequential sweeps
/// can be asserted identical.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Per-group measurements, in group order.
    pub per_group: Vec<ShardGroupOutcome>,
    /// Sum of the groups' decided rates.
    pub aggregate_ops_per_sec: f64,
    /// Sum of the groups' goodput.
    pub aggregate_goodput_bytes_per_sec: f64,
    /// Worst per-group p99, µs — the service's tail.
    pub p99_latency_us: f64,
    /// Client proposals issued inside the window (offered load).
    pub proposed: u64,
    /// Total simulator events processed (virtual-time fingerprint).
    pub events_processed: u64,
    /// OS threads of the sweep that produced this outcome. Excluded
    /// from `PartialEq`.
    pub threads_used: usize,
}

impl PartialEq for ShardedOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.per_group == other.per_group
            && self.aggregate_ops_per_sec == other.aggregate_ops_per_sec
            && self.aggregate_goodput_bytes_per_sec == other.aggregate_goodput_bytes_per_sec
            && self.p99_latency_us == other.p99_latency_us
            && self.proposed == other.proposed
            && self.events_processed == other.events_processed
    }
}

/// Builds the deployment a sharded point runs on (shared with the
/// isolation test, which needs the deployment before the client
/// exists).
pub fn build_sharded(cfg: &ShardedPointConfig) -> Deployment {
    let mut b = ClusterBuilder::new(cfg.members_per_group)
        .groups(cfg.groups)
        .seed(cfg.seed)
        .tracer(cfg.tracer.clone());
    if let Some(k) = cfg.parser_slices {
        b = b.parser_slices(k);
    }
    if let Some(c) = cfg.parser_cost {
        b = b.parser_cost(c);
    }
    let mut d = b.build();
    for g in 0..cfg.groups {
        for i in 0..cfg.members_per_group {
            d.member_mut(d.at(g, i))
                .set_state_machine(Box::new(ShardKvStore::new(g as u16)));
        }
    }
    d
}

/// Steps the deployment until every group's leader is operational.
///
/// # Panics
///
/// Panics if any leader is still down after 500 ms of simulated time.
pub fn await_leaders(d: &mut Deployment) {
    let deadline = SimTime::ZERO + SimDuration::from_millis(500);
    loop {
        let ready = (0..d.groups()).all(|g| d.member(d.at(g, 0)).is_operational_leader());
        if ready {
            return;
        }
        assert!(
            d.sim.now() < deadline,
            "a shard leader never became operational"
        );
        d.sim.run_for(SimDuration::from_millis(1));
    }
}

/// The open-loop client population: every `propose_every`, `burst`
/// Zipf-sampled keys are routed through `ring` and proposed to their
/// group's leader. Returns how many proposals were accepted.
fn drive(
    d: &mut Deployment,
    ring: &HashRing,
    zipf: &mut ZipfSampler,
    counter: &mut u64,
    cfg: &ShardedPointConfig,
    until: SimTime,
) -> u64 {
    let mut proposed = 0;
    while d.sim.now() < until {
        for _ in 0..cfg.burst {
            let key = zipf.next_key();
            let g = usize::from(ring.group_of(key));
            *counter += 1;
            let payload = ShardKvCommand {
                key,
                group: g as u16,
                counter: *counter,
            }
            .encode(cfg.value_size);
            let ok = d.with_member(d.at(g, 0), |m, ops| {
                m.is_operational_leader() && m.propose_value(payload, ops)
            });
            if ok {
                proposed += 1;
            }
        }
        d.sim.run_for(cfg.propose_every);
    }
    proposed
}

/// Runs one sharded point.
pub fn run_sharded_point(cfg: &ShardedPointConfig) -> ShardedOutcome {
    run_sharded(cfg, None)
}

/// Runs one sharded point and snapshots every layer's counters under
/// group-scoped names: `g{g}.member.{i}.*`, `g{g}.host.{i}.*`,
/// `g{g}.switch.gid`, plus the shared switch as `switch.*` and its
/// per-group slices as `switch.g{gid}.*`.
pub fn run_sharded_point_metered(cfg: &ShardedPointConfig) -> (ShardedOutcome, MetricsRegistry) {
    let mut reg = MetricsRegistry::new();
    let outcome = run_sharded(cfg, Some(&mut reg));
    (outcome, reg)
}

fn run_sharded(cfg: &ShardedPointConfig, metrics: Option<&mut MetricsRegistry>) -> ShardedOutcome {
    let ring = HashRing::new(cfg.groups as u16, 64);
    let mut zipf = ZipfSampler::new(cfg.keys, cfg.zipf_theta, cfg.seed);
    let mut counter = 0u64;
    let mut d = build_sharded(cfg);
    await_leaders(&mut d);

    // Warm up under load, then reset every leader's window.
    let warm_end = d.sim.now() + cfg.warmup;
    drive(&mut d, &ring, &mut zipf, &mut counter, cfg, warm_end);
    let t0 = d.sim.now();
    for g in 0..cfg.groups {
        d.member_mut(d.at(g, 0)).reset_measurements(t0);
    }

    let window_end = d.sim.now() + cfg.window;
    let proposed = drive(&mut d, &ring, &mut zipf, &mut counter, cfg, window_end);
    let now = d.sim.now();

    // Drain in-flight decisions so replica stores (and their log
    // fingerprints) settle; rates stay pinned to the window end.
    d.sim.run_for(SimDuration::from_millis(2));
    let events_processed = d.sim.events_processed();

    if let Some(reg) = metrics {
        for g in 0..cfg.groups {
            for i in 0..cfg.members_per_group {
                let k = d.at(g, i);
                d.member(k)
                    .stats
                    .register_into(reg, &group_scoped(g, &format!("member.{i}")));
                d.sim
                    .node_ref::<Host<P4ceMember>>(d.members[k])
                    .stats()
                    .register_into(reg, &group_scoped(g, &format!("host.{i}")));
            }
            if let Some(gid) = d.switch_program().gid_of_leader(mu::member_ip(g, 0)) {
                reg.set_counter(&group_scoped(g, "switch.gid"), u64::from(gid));
            }
        }
        d.switch_program().stats.register_into(reg, "switch");
        d.switch_program().register_groups_into(reg, "switch");
    }

    let mut per_group = Vec::with_capacity(cfg.groups);
    for g in 0..cfg.groups {
        let foreign: u64 = (0..cfg.members_per_group)
            .map(|i| store_of(&d, g, i).foreign)
            .sum();
        let log_hash = store_of(&d, g, 1).log_hash;
        let accelerated = d.member(d.at(g, 0)).is_accelerated();
        let leader = d.member_mut(d.at(g, 0));
        let stats = &mut leader.stats;
        per_group.push(ShardGroupOutcome {
            decided: stats.throughput.ops(),
            ops_per_sec: stats.throughput.ops_per_sec(now),
            goodput_bytes_per_sec: stats.throughput.goodput_bytes_per_sec(now),
            p99_latency_us: stats.latency.percentile(99.0).as_micros_f64(),
            accelerated,
            log_hash,
            foreign,
        });
    }
    ShardedOutcome {
        aggregate_ops_per_sec: per_group.iter().map(|g| g.ops_per_sec).sum(),
        aggregate_goodput_bytes_per_sec: per_group.iter().map(|g| g.goodput_bytes_per_sec).sum(),
        p99_latency_us: per_group
            .iter()
            .map(|g| g.p99_latency_us)
            .fold(0.0, f64::max),
        proposed,
        events_processed,
        threads_used: 1,
        per_group,
    }
}

/// Runs every sharded point in order on the calling thread.
pub fn run_sharded_points(cfgs: &[ShardedPointConfig]) -> Vec<ShardedOutcome> {
    cfgs.iter().map(run_sharded_point).collect()
}

/// Runs the sharded points across `threads` OS threads; outcomes are
/// identical to [`run_sharded_points`] (every field except
/// `threads_used`) because each point is a self-contained virtual-time
/// simulation. Same work-stealing loop as
/// [`crate::runner::run_points_parallel`].
///
/// # Panics
///
/// Panics if any worker panics, or if `threads` is zero.
pub fn run_sharded_points_parallel(
    cfgs: &[ShardedPointConfig],
    threads: usize,
) -> Vec<ShardedOutcome> {
    crate::runner::in_parallel(cfgs, threads, run_sharded_point, |o, threads_used| {
        ShardedOutcome { threads_used, ..o }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_total_and_stable() {
        let ring = HashRing::new(4, 64);
        for key in 0..512u64 {
            let g = ring.group_of(key);
            assert!(g < 4);
            assert_eq!(ring.group_of(key), g, "same key, same group");
        }
        // Every group owns a reasonable share of a uniform key space.
        let mut counts = [0usize; 4];
        for key in 0..4096u64 {
            counts[usize::from(ring.group_of(key))] += 1;
        }
        for (g, &c) in counts.iter().enumerate() {
            assert!(c > 4096 / 16, "group {g} owns only {c}/4096 keys");
        }
    }

    #[test]
    fn ring_reassigns_a_minority_when_a_group_joins() {
        let before = HashRing::new(4, 64);
        let after = HashRing::new(5, 64);
        let moved = (0..4096u64)
            .filter(|&k| {
                let b = before.group_of(k);
                let a = after.group_of(k);
                a != b && a != 4
            })
            .count();
        // Keys either stay put or move to the new group; consistent
        // hashing means almost nothing reshuffles among the old groups.
        assert!(
            moved < 4096 / 20,
            "{moved}/4096 keys reshuffled among old groups"
        );
    }

    #[test]
    fn zipf_skews_towards_the_head() {
        let mut z = ZipfSampler::new(100, 0.99, 7);
        let mut head = 0usize;
        const DRAWS: usize = 10_000;
        for _ in 0..DRAWS {
            if z.next_key() < 10 {
                head += 1;
            }
        }
        // Zipf(0.99) over 100 keys puts ~55% of the mass on the top 10.
        assert!(head > DRAWS / 3, "only {head}/{DRAWS} draws hit the head");
        // And uniform does not.
        let mut u = ZipfSampler::new(100, 0.0, 7);
        let mut head_u = 0usize;
        for _ in 0..DRAWS {
            if u.next_key() < 10 {
                head_u += 1;
            }
        }
        assert!(
            head_u < DRAWS / 5,
            "{head_u}/{DRAWS} uniform draws hit the head"
        );
    }

    #[test]
    fn command_round_trips_with_padding() {
        let cmd = ShardKvCommand {
            key: 0xdead_beef,
            group: 3,
            counter: 41,
        };
        let wire = cmd.encode(64);
        assert_eq!(wire.len(), 64);
        assert_eq!(ShardKvCommand::decode(&wire), Some(cmd));
        assert_eq!(ShardKvCommand::decode(&wire[..10]), None);
    }
}
