//! Wall-clock self time per layer, measured from outside the program.
//!
//! The benchmark's forwarding wrappers call [`enter`] and [`exit`] at
//! every call into a layer. Each call reads the clock once and charges
//! the interval since the previous read to the layer on top of the span
//! stack, so the layers' raw times telescope exactly to the traced total.
//! Every interval also holds one clock read and the bookkeeping around
//! it; [`calibrate`] measures that cost so the report can subtract it.

use std::cell::RefCell;
use std::time::Instant;

use crate::alloc;

/// A layer of the deployment, as seen from the benchmark's wrappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The `netsim` engine: everything outside a node callback.
    Engine,
    /// The benchmark's own open-loop client (between engine runs).
    Client,
    /// `rdma::Host` of the member that believes it leads.
    RdmaLeader,
    /// `rdma::Host` of every other member.
    RdmaReplica,
    /// The leader's member application (`core` or `mu`).
    MemberLeader,
    /// The replicas' member application.
    MemberReplica,
    /// The `tofino` switch pipeline.
    Tofino,
    /// The `p4ce-switch` program inside the pipeline.
    P4ceSwitch,
    /// The empty spans [`calibrate`] times.
    Calibration,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 9;

impl Layer {
    /// Index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The heap role ([`alloc::ROLES`]) this layer's allocations go to.
    fn role(self) -> usize {
        match self {
            Layer::Engine | Layer::Calibration => 0,
            Layer::RdmaLeader | Layer::MemberLeader => 1,
            Layer::RdmaReplica | Layer::MemberReplica => 2,
            Layer::Tofino | Layer::P4ceSwitch => 3,
            Layer::Client => 4,
        }
    }
}

/// What one timing window recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Wall time from [`start`] to [`stop`].
    pub total_ns: u64,
    /// Wall time charged to each layer, timer cost included.
    pub raw_ns: [u64; LAYERS],
    /// Clock intervals charged to each layer.
    pub intervals: [u64; LAYERS],
    /// Frame deliveries seen by the node wrappers.
    pub frame_events: u64,
    /// Timer firings seen by the node wrappers.
    pub timer_events: u64,
}

impl Window {
    /// Self time of each layer with `timer_ns` subtracted per interval.
    /// Signed: a layer whose calls are shorter than the calibrated read
    /// cost comes out slightly negative rather than being clamped, so the
    /// sum stays exact.
    pub fn self_ns(&self, timer_ns: u64) -> [i64; LAYERS] {
        let mut out = [0i64; LAYERS];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.raw_ns[i] as i64 - (timer_ns * self.intervals[i]) as i64;
        }
        out
    }

    /// Total calibrated timer cost of the window.
    pub fn timer_total_ns(&self, timer_ns: u64) -> u64 {
        timer_ns * self.intervals.iter().sum::<u64>()
    }
}

struct Ledger {
    on: bool,
    first: Option<Instant>,
    last: Option<Instant>,
    stack: [Layer; 8],
    depth: usize,
    raw_ns: [u64; LAYERS],
    intervals: [u64; LAYERS],
    frame_events: u64,
    timer_events: u64,
}

impl Ledger {
    fn top(&self) -> Layer {
        if self.depth == 0 {
            Layer::Engine
        } else {
            self.stack[self.depth - 1]
        }
    }

    fn boundary(&mut self) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        let last = self.last.expect("a running window has a last read");
        let top = self.top().index();
        self.raw_ns[top] += (now - last).as_nanos() as u64;
        self.intervals[top] += 1;
        self.last = Some(now);
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = const {
        RefCell::new(Ledger {
            on: false,
            first: None,
            last: None,
            stack: [Layer::Engine; 8],
            depth: 0,
            raw_ns: [0; LAYERS],
            intervals: [0; LAYERS],
            frame_events: 0,
            timer_events: 0,
        })
    };
}

/// Opens a span of `layer`.
pub fn enter(layer: Layer) {
    LEDGER.with_borrow_mut(|l| {
        l.boundary();
        l.stack[l.depth] = layer;
        l.depth += 1;
    });
    alloc::set_role(layer.role());
}

/// Closes the innermost span.
pub fn exit() {
    let top = LEDGER.with_borrow_mut(|l| {
        l.boundary();
        l.depth -= 1;
        l.top()
    });
    alloc::set_role(top.role());
}

/// Counts one event delivered to a wrapped node.
pub fn note_event(frame: bool) {
    LEDGER.with_borrow_mut(|l| {
        if l.on {
            if frame {
                l.frame_events += 1;
            } else {
                l.timer_events += 1;
            }
        }
    });
}

/// Starts a timing window (no span may be open).
pub fn start() {
    LEDGER.with_borrow_mut(|l| {
        assert_eq!(l.depth, 0, "timing window opened inside a span");
        let now = Instant::now();
        l.on = true;
        l.first = Some(now);
        l.last = Some(now);
        l.raw_ns = [0; LAYERS];
        l.intervals = [0; LAYERS];
        l.frame_events = 0;
        l.timer_events = 0;
    });
}

/// Ends the timing window and checks that the layers' raw times add up
/// exactly to its wall time.
pub fn stop() -> Window {
    LEDGER.with_borrow_mut(|l| {
        assert_eq!(l.depth, 0, "timing window closed inside a span");
        l.boundary();
        l.on = false;
        let first = l.first.take().expect("window was started");
        let last = l.last.take().expect("window was started");
        let w = Window {
            total_ns: (last - first).as_nanos() as u64,
            raw_ns: l.raw_ns,
            intervals: l.intervals,
            frame_events: l.frame_events,
            timer_events: l.timer_events,
        };
        assert_eq!(
            w.raw_ns.iter().sum::<u64>(),
            w.total_ns,
            "layer times must telescope to the window"
        );
        w
    })
}

/// The cost of one clock interval: the median, over batches, of the wall
/// time per interval of empty spans. Rounded to whole nanoseconds so the
/// calibrated self times stay exact integers.
pub fn calibrate() -> u64 {
    const PAIRS: u64 = 200_000;
    let mut per: Vec<f64> = (0..9)
        .map(|_| {
            start();
            for _ in 0..PAIRS {
                enter(Layer::Calibration);
                exit();
            }
            let w = stop();
            w.total_ns as f64 / w.intervals.iter().sum::<u64>() as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[per.len() / 2].round() as u64
}
