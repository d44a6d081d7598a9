//! Invariant oracles: safety predicates evaluated over a snapshot of
//! every member's externally observable state, after every explored
//! step and at a chaos run's heal and end.
//!
//! The oracles mirror the safety arguments the paper inherits from Mu
//! (§III): decided values form one agreed sequence, at most one member
//! leads a view, entries apply exactly once and in order, and — the
//! RDMA-specific one — at any instant at most the current epoch's leader
//! holds write permission on a member's log. The last check audits the
//! *NIC-enforced* permission table ([`rdma::HostMemory`]), not member
//! bookkeeping, because the permission table is what actually fences a
//! deposed leader.

use std::fmt;
use std::net::Ipv4Addr;

/// Which invariant an oracle guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Members agree on decided payloads (common-prefix equality).
    Agreement,
    /// Members agree on decided sequence numbers (common-prefix
    /// equality).
    PrefixConsistency,
    /// Each member applies entries exactly once, in order, gap-free.
    ExactlyOnce,
    /// At most one member claims (operational) leadership of a view.
    UniqueLeader,
    /// Only the current epoch's leader may hold write permission on a
    /// member's log region.
    SingleWriter,
    /// In a multi-group deployment, a member applies only entries
    /// proposed to its own group (every explored proposal carries a
    /// 2-byte group tag). Catches switch-side cross-wiring, where a
    /// group's replicas replicate a co-resident group's log perfectly —
    /// agreeing with each other — and only the tag betrays the leak.
    GroupIsolation,
}

impl OracleKind {
    /// Stable identifier used in reproducer files.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Agreement => "agreement",
            OracleKind::PrefixConsistency => "prefix-consistency",
            OracleKind::ExactlyOnce => "exactly-once",
            OracleKind::UniqueLeader => "unique-leader",
            OracleKind::SingleWriter => "single-writer",
            OracleKind::GroupIsolation => "group-isolation",
        }
    }

    /// Parses [`OracleKind::name`] back.
    pub fn from_name(name: &str) -> Option<OracleKind> {
        Some(match name {
            "agreement" => OracleKind::Agreement,
            "prefix-consistency" => OracleKind::PrefixConsistency,
            "exactly-once" => OracleKind::ExactlyOnce,
            "unique-leader" => OracleKind::UniqueLeader,
            "single-writer" => OracleKind::SingleWriter,
            "group-isolation" => OracleKind::GroupIsolation,
            _ => return None,
        })
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An oracle firing: which invariant broke, at which step, and a
/// human-readable account of the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Explored-step index (0-based) after which the check failed; a
    /// chaos run numbers its two audits 0 (at the heal) and 1 (at the
    /// end).
    pub step: u32,
    /// The invariant that broke.
    pub oracle: OracleKind,
    /// Evidence, for humans.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at step {}: {}",
            self.oracle, self.step, self.detail
        )
    }
}

/// Everything the oracles need to know about one member, extracted
/// after a step. Pure data — snapshots compare and clone freely.
#[derive(Debug, Clone)]
pub struct MemberProbe {
    /// This member's address.
    pub ip: Ipv4Addr,
    /// Applied sequence numbers, in application order.
    pub applied_seqs: Vec<u64>,
    /// Applied payloads, in application order.
    pub applied_payloads: Vec<Vec<u8>>,
    /// The member's next-to-apply sequence number.
    pub next_apply_seq: u64,
    /// The leader whose epoch the current log grants serve.
    pub epoch_leader: Option<Ipv4Addr>,
    /// Cluster-member IPs holding WRITE on this member's log region,
    /// per the NIC's permission table (the switch, a mere conduit, is
    /// excluded).
    pub write_grants: Vec<Ipv4Addr>,
    /// Deduplicated `(view, member)` leadership claims from this
    /// member's event history.
    pub leader_claims: Vec<(u64, u8)>,
}

/// Runs every oracle over the snapshot; returns the first violation.
/// `step` is stamped into the returned [`Violation`].
pub fn check_all(probes: &[MemberProbe], step: u32) -> Option<Violation> {
    let fire = |oracle, detail| {
        Some(Violation {
            step,
            oracle,
            detail,
        })
    };
    if let Some(d) = single_writer(probes) {
        return fire(OracleKind::SingleWriter, d);
    }
    if let Some(d) = unique_leader(probes) {
        return fire(OracleKind::UniqueLeader, d);
    }
    if let Some(d) = agreement(probes) {
        return fire(OracleKind::Agreement, d);
    }
    if let Some(d) = prefix_consistency(probes) {
        return fire(OracleKind::PrefixConsistency, d);
    }
    if let Some(d) = exactly_once(probes) {
        return fire(OracleKind::ExactlyOnce, d);
    }
    None
}

/// Runs every oracle over one *group's* snapshot of a multi-group
/// deployment: the group-isolation check (each applied payload's leading
/// two bytes must equal `group_tag`) first, then the whole single-group
/// suite within the group.
pub fn check_group(probes: &[MemberProbe], step: u32, group_tag: u16) -> Option<Violation> {
    if let Some(detail) = group_isolation(probes, group_tag) {
        return Some(Violation {
            step,
            oracle: OracleKind::GroupIsolation,
            detail,
        });
    }
    check_all(probes, step)
}

/// Audits a whole deployment, one probe list per group: the
/// single-group suite ([`check_all`]) for one group, and
/// [`check_group`] on every group otherwise, the firing group named in
/// the evidence. Explored steps and chaos runs both judge through here.
pub(crate) fn audit(groups: &[Vec<MemberProbe>], step: u32) -> Option<Violation> {
    if let [probes] = groups {
        return check_all(probes, step);
    }
    groups.iter().enumerate().find_map(|(g, probes)| {
        check_group(probes, step, g as u16).map(|mut v| {
            v.detail = format!("group {g}: {}", v.detail);
            v
        })
    })
}

fn group_isolation(probes: &[MemberProbe], group_tag: u16) -> Option<String> {
    let want = group_tag.to_be_bytes();
    for (i, p) in probes.iter().enumerate() {
        for (k, payload) in p.applied_payloads.iter().enumerate() {
            if payload.len() < 2 || payload[..2] != want {
                return Some(format!(
                    "member {i} ({}) of group {group_tag} applied entry {k} \
                     tagged {:?} — another group's proposal leaked in",
                    p.ip,
                    payload.get(..2)
                ));
            }
        }
    }
    None
}

fn single_writer(probes: &[MemberProbe]) -> Option<String> {
    for (i, p) in probes.iter().enumerate() {
        let Some(leader) = p.epoch_leader else {
            continue;
        };
        for &g in &p.write_grants {
            if g != leader {
                return Some(format!(
                    "member {i} ({}): {g} holds WRITE on the log, but the \
                     epoch leader is {leader}",
                    p.ip
                ));
            }
        }
    }
    None
}

fn unique_leader(probes: &[MemberProbe]) -> Option<String> {
    let mut claims: Vec<(u64, u8)> = Vec::new();
    for p in probes {
        for &c in &p.leader_claims {
            if !claims.contains(&c) {
                claims.push(c);
            }
        }
    }
    for (i, &(view, member)) in claims.iter().enumerate() {
        for &(v2, m2) in &claims[..i] {
            if view == v2 && member != m2 {
                return Some(format!(
                    "members {member} and {m2} both claimed leadership of view {view}"
                ));
            }
        }
    }
    None
}

fn agreement(probes: &[MemberProbe]) -> Option<String> {
    for a in 0..probes.len() {
        for b in (a + 1)..probes.len() {
            let n = probes[a]
                .applied_payloads
                .len()
                .min(probes[b].applied_payloads.len());
            if probes[a].applied_payloads[..n] != probes[b].applied_payloads[..n] {
                return Some(format!(
                    "members {a} and {b} disagree on decided payloads within \
                     their common prefix ({n} entries)"
                ));
            }
        }
    }
    None
}

fn prefix_consistency(probes: &[MemberProbe]) -> Option<String> {
    for a in 0..probes.len() {
        for b in (a + 1)..probes.len() {
            let n = probes[a]
                .applied_seqs
                .len()
                .min(probes[b].applied_seqs.len());
            if probes[a].applied_seqs[..n] != probes[b].applied_seqs[..n] {
                return Some(format!(
                    "members {a} and {b} disagree on decided sequence numbers \
                     within their common prefix ({n} entries)"
                ));
            }
        }
    }
    None
}

fn exactly_once(probes: &[MemberProbe]) -> Option<String> {
    for (i, p) in probes.iter().enumerate() {
        for (k, &seq) in p.applied_seqs.iter().enumerate() {
            if seq != k as u64 {
                return Some(format!(
                    "member {i} applied seq {seq} at position {k} (expected {k}): \
                     a skip or re-application"
                ));
            }
        }
        if p.next_apply_seq != p.applied_seqs.len() as u64 {
            return Some(format!(
                "member {i}: next_apply_seq {} does not match {} applied entries",
                p.next_apply_seq,
                p.applied_seqs.len()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(i: u8) -> MemberProbe {
        MemberProbe {
            ip: Ipv4Addr::new(10, 0, 0, 1 + i),
            applied_seqs: vec![0, 1, 2],
            applied_payloads: vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()],
            next_apply_seq: 3,
            epoch_leader: Some(Ipv4Addr::new(10, 0, 0, 1)),
            write_grants: vec![Ipv4Addr::new(10, 0, 0, 1)],
            leader_claims: vec![(0, 0)],
        }
    }

    #[test]
    fn clean_snapshot_passes_every_oracle() {
        let probes = [probe(0), probe(1), probe(2)];
        assert_eq!(check_all(&probes, 7), None);
    }

    #[test]
    fn stale_grant_trips_single_writer() {
        let mut probes = [probe(0), probe(1)];
        probes[1].epoch_leader = Some(Ipv4Addr::new(10, 0, 0, 2));
        // 10.0.0.1's grant was never revoked.
        let v = check_all(&probes, 3).expect("must fire");
        assert_eq!(v.oracle, OracleKind::SingleWriter);
        assert_eq!(v.step, 3);
        assert!(v.detail.contains("10.0.0.1"));
    }

    #[test]
    fn two_leaders_in_one_view_trip_unique_leader() {
        let mut probes = [probe(0), probe(1)];
        probes[1].leader_claims = vec![(0, 1)];
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::UniqueLeader);
    }

    #[test]
    fn diverging_payloads_trip_agreement() {
        let mut probes = [probe(0), probe(1)];
        probes[1].applied_payloads[1] = b"X".to_vec();
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::Agreement);
    }

    #[test]
    fn diverging_seqs_trip_prefix_consistency() {
        let mut probes = [probe(0), probe(1)];
        probes[1].applied_seqs[2] = 9;
        // Payload prefixes still match, so agreement stays quiet and the
        // seq-level oracle reports.
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::PrefixConsistency);
    }

    #[test]
    fn gap_or_replay_trips_exactly_once() {
        let mut probes = [probe(0)];
        probes[0].applied_seqs = vec![0, 2];
        probes[0].applied_payloads = vec![b"a".to_vec(), b"c".to_vec()];
        probes[0].next_apply_seq = 3;
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::ExactlyOnce);

        probes[0].applied_seqs = vec![0, 1];
        probes[0].applied_payloads = vec![b"a".to_vec(), b"b".to_vec()];
        probes[0].next_apply_seq = 5;
        let v = check_all(&probes, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::ExactlyOnce);
    }

    #[test]
    fn foreign_group_tag_trips_group_isolation() {
        let tagged = |tag: u16, i: u8| {
            let mut p = probe(i);
            p.applied_payloads = (0u64..3)
                .map(|c| {
                    let mut v = tag.to_be_bytes().to_vec();
                    v.extend_from_slice(&c.to_be_bytes());
                    v
                })
                .collect();
            p
        };
        // A group whose members only applied its own proposals is clean.
        let probes = [tagged(1, 0), tagged(1, 1), tagged(1, 2)];
        assert_eq!(check_group(&probes, 4, 1), None);

        // The same members audited as group 0 — or with one foreign
        // entry — fire, even though they agree perfectly intra-group.
        let v = check_group(&probes, 4, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::GroupIsolation);
        assert_eq!(v.step, 4);
        let mut leaky = [tagged(0, 0), tagged(0, 1)];
        leaky[1].applied_payloads[2][..2].copy_from_slice(&7u16.to_be_bytes());
        let v = check_group(&leaky, 9, 0).expect("must fire");
        assert_eq!(v.oracle, OracleKind::GroupIsolation);
        assert!(v.detail.contains("group 0"));

        // Too-short payloads cannot be attributed to any group.
        let mut short = [tagged(0, 0)];
        short[0].applied_payloads[0] = vec![0];
        assert!(check_group(&short, 0, 0).is_some());
    }

    #[test]
    fn check_group_still_runs_the_single_group_suite() {
        let tag = 2u16.to_be_bytes();
        let mut probes = [probe(0), probe(1)];
        for p in &mut probes {
            for payload in &mut p.applied_payloads {
                let mut v = tag.to_vec();
                v.extend_from_slice(payload);
                *payload = v;
            }
        }
        probes[1].applied_payloads[1] = [&tag[..], b"X"].concat();
        let v = check_group(&probes, 0, 2).expect("must fire");
        assert_eq!(v.oracle, OracleKind::Agreement);
    }

    #[test]
    fn oracle_kind_names_round_trip() {
        for k in [
            OracleKind::Agreement,
            OracleKind::PrefixConsistency,
            OracleKind::ExactlyOnce,
            OracleKind::UniqueLeader,
            OracleKind::SingleWriter,
            OracleKind::GroupIsolation,
        ] {
            assert_eq!(OracleKind::from_name(k.name()), Some(k));
        }
        assert_eq!(OracleKind::from_name("nope"), None);
    }
}
