//! The reference kernel that rescales wall times to a fixed machine speed.
//!
//! On a shared host the machine's speed drifts by tens of percent from
//! one minute to the next, more than a run's repeats can average out. A
//! fixed kernel timed right next to each pass slows down with the
//! machine, so a wall time multiplied by `NOMINAL / kernel time` stays
//! put (README.md, "Rescaling wall time", has the measurements). The
//! kernel uses only the standard library, so no change to the crates
//! under test can move it. Like them it is allocation-, hash- and
//! branch-heavy: an event heap, a hash table of small buffers and a byte
//! hash over them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::check::splitmix64;

/// The kernel's wall time at the nominal speed: about its time on a
/// quiet core of a 2.1 GHz Xeon VM, so rescaled figures read close to
/// wall time there.
pub const NOMINAL: Duration = Duration::from_millis(40);

/// Steps of the kernel.
const STEPS: u64 = 200_000;

/// Runs the kernel once and returns `NOMINAL / its wall time`: the
/// factor that rescales a wall time measured now to the nominal speed.
pub fn speed() -> f64 {
    let t0 = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut table: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut state = 1u64;
    let mut acc = 0u64;
    for i in 0..STEPS {
        state = splitmix64(state);
        heap.push(Reverse(state >> 20));
        if heap.len() > 4096 {
            acc ^= heap.pop().expect("the heap is not empty").0;
        }
        let len = 64 + (state >> 50) as usize % 192;
        if let Some(old) = table.insert(state % 8192, vec![i as u8; len]) {
            acc = old
                .iter()
                .fold(acc, |h, &b| h.rotate_left(5) ^ u64::from(b));
        }
    }
    black_box(acc);
    NOMINAL.as_secs_f64() / t0.elapsed().as_secs_f64()
}
