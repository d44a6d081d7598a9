//! A *sharded* key-value store: several independent P4CE consensus
//! groups behind one switch pipeline, with a consistent-hash ring
//! routing each key to the group that owns it.
//!
//! This is the multi-tenant deployment the paper's switch design allows:
//! the group ID travels in every wire message, the switch keeps
//! per-group scatter/gather tables, and groups share nothing but parser
//! slices — so each shard decides at full speed, in parallel.
//!
//! ```sh
//! cargo run --release --example sharded_kv
//! ```

use netsim::{SimDuration, SimTime};
use p4ce::ClusterBuilder;
use p4ce_harness::shard::store_of;
use p4ce_harness::{HashRing, ShardKvCommand, ShardKvStore};

const GROUPS: usize = 3;
const MEMBERS: usize = 3;

fn main() {
    let mut deployment = ClusterBuilder::new(MEMBERS).groups(GROUPS).build();

    // Install a store on every replica; each knows its own group so it
    // can flag cross-shard contamination (there must be none).
    for g in 0..GROUPS {
        for i in 0..MEMBERS {
            let k = deployment.at(g, i);
            deployment
                .member_mut(k)
                .set_state_machine(Box::new(ShardKvStore::new(g as u16)));
        }
    }

    // Let every group elect its leader and get accelerated.
    deployment.sim.run_until(SimTime::from_millis(60));
    for g in 0..GROUPS {
        assert!(deployment.member(deployment.at(g, 0)).is_accelerated());
    }

    // The router: a consistent-hash ring over the shards. Keys are
    // 64-bit; a string key hashes onto the ring first.
    let ring = HashRing::new(GROUPS as u16, 64);
    let cities = [
        ("zurich", 8001u64),
        ("neuchatel", 2000),
        ("lausanne", 1003),
        ("geneva", 1201),
        ("bern", 3011),
        ("basel", 4051),
        ("lugano", 6900),
        ("st-gallen", 9000),
    ];

    println!("sharded key-value store over {GROUPS} P4CE groups");
    let mut per_group = [0u64; GROUPS];
    for (i, (name, zip)) in cities.iter().enumerate() {
        let key = p4ce_harness::shard::fnv1a64(name.as_bytes());
        let group = ring.group_of(key);
        per_group[group as usize] += 1;
        println!("  PUT {name:>10} -> shard {group}");
        let payload = ShardKvCommand {
            key,
            group,
            counter: *zip,
        }
        .encode(64);
        let leader = deployment.at(group as usize, 0);
        deployment.with_member(leader, move |leader, ops| {
            let accepted = leader.propose_value(payload, ops);
            assert!(accepted, "group leaders accept their own shard's keys");
        });
        deployment
            .sim
            .run_for(SimDuration::from_micros(10 * (i as u64 + 1)));
    }
    deployment.sim.run_for(SimDuration::from_millis(1));

    // Every replica of every shard holds exactly its shard's keys — and
    // nothing that belongs to a different group ever leaked in.
    for (g, &expected) in per_group.iter().enumerate() {
        for i in 1..MEMBERS {
            let store = store_of(&deployment, g, i);
            assert_eq!(store.applied, expected, "shard {g} replica {i}");
            assert_eq!(store.foreign, 0, "cross-shard contamination");
            assert_eq!(store.log_hash, store_of(&deployment, g, 1).log_hash);
        }
        println!(
            "  shard {g}: {expected} keys on each of {} replicas, log hash {:016x}",
            MEMBERS - 1,
            store_of(&deployment, g, 1).log_hash
        );
    }
    println!("all shards converged, zero cross-shard leakage ✓");
}
