//! # p4ce-harness — experiment drivers for the P4CE reproduction
//!
//! One module per table/figure of the paper's evaluation (§V), plus the
//! §IV-D ablation and the §VI P4xos comparison:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`experiments::fig5_goodput`] | Fig. 5 — goodput vs. value size |
//! | [`experiments::maxrate`] | §V-C — max consensus/s at 64 B |
//! | [`experiments::fig6_latency`] | Fig. 6 — latency vs. throughput |
//! | [`experiments::fig7_burst`] | Fig. 7 — burst latency |
//! | [`experiments::table4_failover`] | Table IV — fail-over times |
//! | [`experiments::ablation_ackdrop`] | §IV-D — ACK-drop placement |
//! | [`experiments::related_p4xos`] | §VI — P4xos latency comparison |
//!
//! The binaries in `p4ce-bench` are thin wrappers over these modules;
//! each prints a markdown table whose shape mirrors the paper's artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod explore;
pub mod failover;
pub mod report;
pub mod repro;
pub mod runner;
pub mod shard;
pub mod tracing;

pub use chaos::{ChaosRecorder, ChaosReport, ChaosSpec};
pub use explore::{Budget, ExploreReport, ExploreSpec, ExploreStatus};
pub use failover::{
    run_failover, FailoverBudget, FailoverConfig, FailoverOutcome, FailoverPhase, ThroughputDip,
    FAILOVER_PHASES,
};
pub use report::{print_markdown, to_csv, to_markdown, truncation_warning, write_csv, TableRow};
pub use repro::Repro;
pub use runner::{
    run_point, run_point_metered, run_points, run_points_parallel, PointConfig, PointOutcome,
    System,
};
pub use shard::{
    run_sharded_point, run_sharded_point_metered, run_sharded_points, run_sharded_points_parallel,
    HashRing, ShardGroupOutcome, ShardKvCommand, ShardKvStore, ShardedOutcome, ShardedPointConfig,
    ZipfSampler,
};
pub use tracing::{
    run_point_traced, run_point_traced_with, stage_rows, stage_table, write_chrome_trace,
    TracedPoint,
};
