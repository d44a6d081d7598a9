//! Chaos tests: seeded random link-fault schedules against live
//! clusters. Every run is judged by the explorer's oracle suite
//! (single writer, unique leader, agreement, prefix consistency,
//! exactly-once) at the heal and at the end, and must come back with no
//! violation; these tests additionally pin liveness after the heal,
//! that the storm really happened, that both QP recovery paths
//! (retransmission timeout and NAK) were exercised, and that a rerun of
//! the same schedule replays bit-for-bit.

use netsim::{SimDuration, Tracer};
use p4ce_harness::chaos::run_checked;
use p4ce_harness::{ChaosReport, ChaosSpec, System};

/// All chaos runs route through [`run_checked`]: a violating run
/// shrinks its schedule and prints a replayable `kind=chaos` reproducer
/// before it fails.
fn run(spec: &ChaosSpec, n: usize, system: System) -> ChaosReport {
    let r = run_checked(spec, n, system);
    assert!(r.violation.is_none(), "oracle fired: {r:?}");
    r
}

fn run_p4ce(spec: &ChaosSpec, n: usize) -> ChaosReport {
    run(spec, n, System::P4ce)
}

fn run_mu(spec: &ChaosSpec, n: usize) -> ChaosReport {
    run(spec, n, System::Mu)
}

#[test]
fn p4ce_cluster_survives_seeded_chaos() {
    let spec = ChaosSpec::seeded(0xC4A0_5001, 3);
    assert!(
        spec.loss >= 0.01,
        "the schedule must carry at least 1% loss"
    );
    let r = run_p4ce(&spec, 3);
    // The storm actually happened...
    assert!(r.frames_dropped > 0, "loss plans must fire: {r:?}");
    assert!(
        r.partition_dropped > 0,
        "the partition must swallow frames: {r:?}"
    );
    // ...consensus survived it (the oracle suite passed, see `run`)...
    assert!(r.proposals_accepted > 0, "some proposals must land: {r:?}");
    assert!(r.applied_min > 0, "every member applied something: {r:?}");
    assert!(
        !r.leader_views.is_empty(),
        "the unique-leader check must see at least the initial leader: {r:?}"
    );
    // ...and the cluster decided new values after the heal.
    assert!(
        r.decided_final > r.decided_at_heal,
        "liveness after heal: {r:?}"
    );
}

#[test]
fn chaos_reaches_both_qp_recovery_paths() {
    let spec = ChaosSpec::seeded(0xC4A0_5002, 3);
    let r = run_p4ce(&spec, 3);
    assert!(
        r.timeout_retransmits > 0,
        "injected faults must drive QueuePair::check_timeout: {r:?}"
    );
    assert!(
        r.nak_retransmits > 0,
        "injected faults must drive QueuePair::handle_nak: {r:?}"
    );
}

#[test]
fn same_seed_and_schedule_replays_identically() {
    let spec = ChaosSpec::seeded(0xDE7E_0001, 3);
    let first = run_p4ce(&spec, 3);
    let second = run_p4ce(&spec, 3);
    assert_eq!(
        first, second,
        "a chaos run must be a pure function of its spec"
    );
}

#[test]
fn chaos_reproducer_replays_the_same_run() {
    let spec = ChaosSpec::seeded(0xDE7E_0001, 3);
    let direct = run_p4ce(&spec, 3);
    let text = spec.to_repro(System::P4ce, 3).encode();
    let repro = p4ce_harness::Repro::decode(&text).expect("well-formed reproducer");
    let replayed = p4ce_harness::chaos::replay(&repro, &Tracer::disabled()).expect("replayable");
    assert!(replayed.violation.is_none(), "{replayed:?}");
    assert_eq!(direct, replayed, "a reproducer must replay bit-for-bit");
}

#[test]
fn mu_cluster_survives_seeded_chaos() {
    let spec = ChaosSpec::seeded(0x4D55_0001, 3);
    let r = run_mu(&spec, 3);
    assert!(r.frames_dropped > 0, "{r:?}");
    assert!(r.partition_dropped > 0, "{r:?}");
    assert!(r.decided_final > r.decided_at_heal, "{r:?}");
    assert!(r.applied_min > 0, "{r:?}");
}

#[test]
fn five_member_p4ce_cluster_survives_chaos() {
    let mut spec = ChaosSpec::seeded(0x5EED_0005, 5);
    // Five members generate proportionally more traffic; a shorter
    // storm keeps the test affordable without weakening the faults.
    spec.storm = SimDuration::from_millis(6);
    spec.drain = SimDuration::from_millis(4);
    let r = run_p4ce(&spec, 5);
    assert!(r.partition_dropped > 0, "{r:?}");
    assert!(r.decided_final > r.decided_at_heal, "{r:?}");
    assert!(r.applied_min > 0, "{r:?}");
}
