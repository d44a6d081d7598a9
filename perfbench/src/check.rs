//! The correctness gate: a benchmark-owned state machine on every member
//! and the checks run over what it recorded.

use std::cell::RefCell;
use std::rc::Rc;

use replication::{LogEntry, StateMachine};

/// What one member applied, in order.
#[derive(Debug, Default)]
pub struct AppliedLog {
    /// Payload hash of each applied entry; the index is the entry's seq.
    pub hashes: Vec<u64>,
    /// The first `(expected, got)` sequence-number mismatch, if any.
    pub gap: Option<(u64, u64)>,
}

/// Shared handle to a member's [`AppliedLog`].
pub type SharedLog = Rc<RefCell<AppliedLog>>;

/// The state machine installed on every member: records `(seq, hash)`.
pub struct Recorder(pub SharedLog);

impl StateMachine for Recorder {
    fn apply(&mut self, entry: &LogEntry) {
        let mut log = self.0.borrow_mut();
        let expected = log.hashes.len() as u64;
        if entry.seq != expected && log.gap.is_none() {
            log.gap = Some((expected, entry.seq));
        }
        log.hashes.push(payload_hash(&entry.payload));
    }
}

/// A word-at-a-time 64-bit hash of a payload (FxHash mixing, finished
/// with a splitmix64 avalanche).
pub fn payload_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    }
    splitmix64(h)
}

/// The splitmix64 finalizer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One digest over every member's applied log, in member order.
pub fn logs_digest(logs: &[SharedLog]) -> u64 {
    let mut h = 0u64;
    for (i, log) in logs.iter().enumerate() {
        let log = log.borrow();
        h = splitmix64(h ^ i as u64 ^ ((log.hashes.len() as u64) << 8));
        for &x in &log.hashes {
            h = splitmix64(h ^ x);
        }
    }
    h
}

/// Checks the applied logs of one run.
///
/// - every log's sequence numbers are contiguous from 0;
/// - every live member's log is a prefix of the longest live log, so each
///   seq carries one payload everywhere;
/// - the longest live log holds at least `decided` entries;
/// - it starts with exactly `must_hold`: the values the client saw
///   decided before a leader was killed.
pub fn check_logs(
    logs: &[SharedLog],
    live: &[bool],
    decided: u64,
    must_hold: &[u64],
) -> Result<(), String> {
    let logs: Vec<_> = logs.iter().map(|l| l.borrow()).collect();
    for (i, log) in logs.iter().enumerate() {
        if let Some((expected, got)) = log.gap {
            return Err(format!(
                "member {i} applied seq {got} where {expected} was due"
            ));
        }
    }
    let longest = (0..logs.len())
        .filter(|&i| live[i])
        .max_by_key(|&i| logs[i].hashes.len())
        .ok_or("no live member")?;
    let reference = &logs[longest].hashes;
    for (i, log) in logs.iter().enumerate() {
        if live[i] && !reference.starts_with(&log.hashes) {
            return Err(format!(
                "member {i}'s log is not a prefix of member {longest}'s"
            ));
        }
    }
    if (reference.len() as u64) < decided {
        return Err(format!(
            "{decided} values decided but the longest live log holds {}",
            reference.len()
        ));
    }
    if !reference.starts_with(must_hold) {
        return Err(format!(
            "a value decided before the kill is missing from the survivors' logs \
             ({} expected)",
            must_hold.len()
        ));
    }
    Ok(())
}
