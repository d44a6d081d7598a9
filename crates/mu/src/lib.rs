//! # mu — the Mu baseline: microsecond consensus over RDMA
//!
//! A faithful model of Mu (Aguilera et al., OSDI '20), the protocol P4CE
//! adopts its decision layer from and evaluates against (§III, §V). The
//! leader replicates values by writing each replica's log directly with
//! one-sided RDMA writes — one write *per replica* per consensus — and
//! aggregates the acknowledgements on its own CPU. Liveness is
//! heartbeat-based; a single writer is enforced with RDMA permissions.
//!
//! The interesting property for the paper's evaluation: Mu's leader
//! divides its network link and its CPU across `n` replicas, which is
//! exactly the bottleneck P4CE removes.
//!
//! The decision module is written once, as [`Member`], generic over a
//! [`Comm`] strategy: [`Direct`] is Mu's communication, and the `p4ce`
//! crate plugs its switch group (with fallback to the same direct links)
//! into the same member. [`MuMember`] is `Member<Direct>`.
//!
//! The deployment is written once too: [`ClusterBuilder::wire`] puts the
//! members, the switch, the links and routes and the optional backup
//! fabric together for both systems, and one [`Deployment`] holds the
//! result — with one group or, for P4CE, several behind one switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod deployment;
mod direct;
mod member;
mod stats;

pub use builder::{member_ip, ClusterBuilder, MAX_GROUP_MEMBERS, SWITCH_IP};
pub use deployment::Deployment;
pub use direct::{Direct, MuMember};
pub use member::{Accelerator, Comm, Member, MuMemberConfig, WR_STRATEGY};
pub use stats::{MemberEvent, MemberStats};
