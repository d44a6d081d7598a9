//! A counting global allocator that attributes heap traffic to the
//! deployment role whose span is open (see [`crate::ledger`]).
//!
//! Counting is off unless a traced pass switches it on, so an untraced
//! run pays one relaxed load and one branch per allocation call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Roles heap traffic is attributed to, in report order.
pub const ROLES: [&str; 5] = ["engine", "leader", "replica", "switch", "client"];

/// Forwards to the system allocator, counting while enabled.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ROLE: AtomicUsize = AtomicUsize::new(0);

// Statistics only: every atomic here is `Relaxed` because none of them
// publishes other data, and the benchmark reads them on the thread that
// wrote them.
static ALLOCS: [AtomicU64; ROLES.len()] = [const { AtomicU64::new(0) }; ROLES.len()];
static ALLOC_BYTES: [AtomicU64; ROLES.len()] = [const { AtomicU64::new(0) }; ROLES.len()];
static FREED_BYTES: [AtomicU64; ROLES.len()] = [const { AtomicU64::new(0) }; ROLES.len()];

/// Heap traffic per role over one counting window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapCounts {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: [u64; ROLES.len()],
    /// Bytes requested by those calls.
    pub alloc_bytes: [u64; ROLES.len()],
    /// Bytes allocated minus bytes freed while the role's span was open.
    pub live_growth: [i64; ROLES.len()],
}

/// Pins glibc's mmap threshold at its start-up value of 128 KiB.
///
/// glibc raises the threshold to the size of any mmapped block it frees,
/// so once a deployment has been torn down the next one's multi-MiB log
/// regions come from the heap and are zeroed by hand (about 7 ms per
/// `mu_small` set-up) instead of arriving as fresh zero pages (under
/// 1 ms). When that switch happened depended on the run's history, which
/// made set-up times bimodal; with the threshold pinned every deployment
/// meets the allocator a fresh process would.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets an allocator parameter; it is
        // called before anything else runs on the only thread.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
    }
}

/// Sets the role the next allocations are charged to (an index into
/// [`ROLES`]).
pub fn set_role(role: usize) {
    ROLE.store(role, Relaxed);
}

/// Zeroes the counters and starts counting.
pub fn start() {
    for i in 0..ROLES.len() {
        ALLOCS[i].store(0, Relaxed);
        ALLOC_BYTES[i].store(0, Relaxed);
        FREED_BYTES[i].store(0, Relaxed);
    }
    ENABLED.store(true, Relaxed);
}

/// Stops counting and returns what was counted since [`start`].
pub fn stop() -> HeapCounts {
    ENABLED.store(false, Relaxed);
    let mut c = HeapCounts::default();
    for i in 0..ROLES.len() {
        c.allocs[i] = ALLOCS[i].load(Relaxed);
        c.alloc_bytes[i] = ALLOC_BYTES[i].load(Relaxed);
        c.live_growth[i] = c.alloc_bytes[i] as i64 - FREED_BYTES[i].load(Relaxed) as i64;
    }
    c
}

#[inline]
fn note_alloc(bytes: usize) {
    let r = ROLE.load(Relaxed);
    ALLOCS[r].fetch_add(1, Relaxed);
    ALLOC_BYTES[r].fetch_add(bytes as u64, Relaxed);
}

#[inline]
fn note_free(bytes: usize) {
    FREED_BYTES[ROLE.load(Relaxed)].fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting side only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            note_free(layout.size());
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            note_free(layout.size());
            note_alloc(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
