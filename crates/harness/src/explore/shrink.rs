//! Counterexample reduction: from a violating schedule to the smallest
//! replayable reproducer we can find.
//!
//! The shrinker works on the same representation exploration does — an
//! [`ExploreSpec`] plus a sparse decision vector — and only ever
//! *re-runs* candidates, so a reduced reproducer is correct by
//! construction (it was executed and it violated). Three reductions run
//! to fixpoint:
//!
//! 1. **Horizon truncation** — cut the schedule right after the
//!    violating step; everything later is noise by definition.
//! 2. **Fault-plan pruning** — drop the injected partition if the
//!    violation survives without it.
//! 3. **Decision delta-debugging** — drop each non-FIFO decision
//!    (missing decisions mean FIFO, so dropping is always well-formed)
//!    and keep the drop if the violation survives.
//!
//! Any oracle violation counts as "survives", not just the original
//! kind: if removing a decision morphs one safety violation into
//! another, the result is still a bug reproducer — and usually a more
//! fundamental one.

use std::collections::BTreeMap;

use netsim::Tracer;

use super::oracle::Violation;
use super::{run_schedule, ExploreSpec};

/// A reduced counterexample, plus how much work reduction took.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The reduced scenario (possibly shorter horizon, fewer faults).
    pub spec: ExploreSpec,
    /// The reduced decision vector.
    pub decisions: BTreeMap<u32, u32>,
    /// The violation the reduced schedule still produces.
    pub violation: Violation,
    /// Schedules executed while shrinking.
    pub schedules: u64,
}

/// Reduces a violating `(spec, decisions)` pair. Returns `None` if the
/// input does not actually violate (stale counterexample).
pub fn shrink(spec: &ExploreSpec, decisions: &BTreeMap<u32, u32>) -> Option<Shrunk> {
    let mut schedules = 0u64;
    let mut run = |spec: &ExploreSpec, decisions: &BTreeMap<u32, u32>| {
        schedules += 1;
        run_schedule(spec, decisions, None, &Tracer::disabled()).violation
    };

    let mut spec = spec.clone();
    let mut decisions = decisions.clone();
    let mut violation = run(&spec, &decisions)?;
    spec.horizon = violation.step + 1;

    if spec.partition_leader_at.is_some() {
        let mut candidate = spec.clone();
        candidate.partition_leader_at = None;
        if let Some(v) = run(&candidate, &decisions) {
            candidate.horizon = v.step + 1;
            spec = candidate;
            violation = v;
        }
    }

    // Delta-debug the decision vector to fixpoint. Each successful drop
    // may move the violating step, so re-truncate as we go.
    loop {
        let mut reduced = false;
        for key in decisions.keys().copied().collect::<Vec<_>>() {
            let mut candidate = decisions.clone();
            candidate.remove(&key);
            if let Some(v) = run(&spec, &candidate) {
                decisions = candidate;
                spec.horizon = spec.horizon.min(v.step + 1);
                violation = v;
                reduced = true;
            }
        }
        if !reduced {
            break;
        }
    }

    Some(Shrunk {
        spec,
        decisions,
        violation,
        schedules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::System;

    #[test]
    fn non_violating_input_shrinks_to_none() {
        let spec = ExploreSpec {
            system: System::P4ce,
            n_members: 3,
            groups: 1,
            crosswire_groups: false,
            seed: 42,
            p4ce_enabled: true,
            skip_epoch_revoke: false,
            partition_leader_at: None,
            propose_every: 0,
            horizon: 10,
        };
        assert!(shrink(&spec, &BTreeMap::new()).is_none());
    }
}
