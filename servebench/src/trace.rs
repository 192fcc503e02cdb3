//! Layer spans for the traced run.
//!
//! The benchmark wraps each call it makes into a layer of the serving
//! stack in [`span`]. With tracing on, a span on the load thread
//! measures its wall time and the heap allocations made inside it, and
//! charges the layer its *self* share: the part not covered by spans
//! nested inside it (a transport call inside `Server::tick` is charged
//! to `transport`, the rest of the tick to `server`). Self times of all
//! layers therefore add up to the time covered by top-level spans, and
//! the rest of the wall time is the unattributed remainder.
//!
//! Spans on other threads (the shard threads `Server::tick_sharded`
//! spawns) are not timed: the load thread waits inside its own
//! `server` span meanwhile, so their time is that span's. Transport
//! calls and wire bytes are counted on every thread.
//!
//! Everything lives in fixed-size thread-locals and atomics: tracing
//! allocates nothing, so traced and untraced runs make the same
//! allocations.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::alloc;

/// A layer of the serving stack, named after its module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Server::tick`, `tick_sharded`, `add_connection`,
    /// `add_resume_connection`, `reap_closed`.
    Server,
    /// `Transport::send`/`recv` through the benchmark's wrapper, TCP
    /// connect and accept, loopback pair construction.
    Transport,
    /// `ServeClient::new`, `tick`, `reconnect` and drop.
    Client,
    /// `Server::snapshot_into`, dropping the killed server,
    /// `Server::restore`, and the first tick after a restore.
    Snapshot,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [
        Layer::Server,
        Layer::Transport,
        Layer::Client,
        Layer::Snapshot,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Server => "server",
            Layer::Transport => "transport",
            Layer::Client => "client",
            Layer::Snapshot => "snapshot",
        }
    }
}

/// Self time and allocations charged to one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Wall nanoseconds inside the layer's spans, minus nested spans.
    pub self_ns: u64,
    /// Heap allocations inside the layer's spans, minus nested spans.
    pub allocs: u64,
}

/// Per-layer totals plus the thread-wide I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Indexed like [`Layer::ALL`].
    pub layers: [LayerTotals; 4],
    /// `Transport::send`/`recv` calls, on every thread.
    pub io_calls: u64,
    /// Bytes accepted by `Transport::send`, on every thread.
    pub wire_bytes: u64,
}

impl Totals {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = *self;
        for (o, e) in out.layers.iter_mut().zip(earlier.layers.iter()) {
            o.self_ns -= e.self_ns;
            o.allocs -= e.allocs;
        }
        out.io_calls -= earlier.io_calls;
        out.wire_bytes -= earlier.wire_bytes;
        out
    }

    /// The totals of one layer.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.layers[layer as usize]
    }

    /// Self time summed over layers.
    pub fn attributed_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.self_ns).sum()
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static IO_CALLS: AtomicU64 = AtomicU64::new(0);
static WIRE_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOAD_THREAD: Cell<bool> = const { Cell::new(false) };
    /// (ns, allocs) covered by spans nested in the innermost open span.
    static CHILD: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static LAYERS: Cell<[LayerTotals; 4]> = const {
        Cell::new([LayerTotals { self_ns: 0, allocs: 0 }; 4])
    };
}

/// Switches tracing on or off, making the calling thread the load
/// thread whose spans are timed.
pub fn set_enabled(on: bool) {
    LOAD_THREAD.with(|d| d.set(true));
    ON.store(on, Ordering::Relaxed);
}

/// Whether tracing is on.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` as a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() || !LOAD_THREAD.with(Cell::get) {
        return f();
    }
    let outer = CHILD.with(|c| c.replace((0, 0)));
    let a0 = alloc::allocations();
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::allocations() - a0;
    let (child_ns, child_allocs) = CHILD.with(|c| c.replace((outer.0 + ns, outer.1 + allocs)));
    LAYERS.with(|l| {
        let mut layers = l.get();
        let t = &mut layers[layer as usize];
        t.self_ns += ns.saturating_sub(child_ns);
        t.allocs += allocs.saturating_sub(child_allocs);
        l.set(layers);
    });
    r
}

/// Counts one transport call that moved `sent` bytes outward.
pub fn io(sent: usize) {
    if enabled() {
        IO_CALLS.fetch_add(1, Ordering::Relaxed);
        WIRE_BYTES.fetch_add(sent as u64, Ordering::Relaxed);
    }
}

/// The running totals (read on the load thread).
pub fn totals() -> Totals {
    Totals {
        layers: LAYERS.with(Cell::get),
        io_calls: IO_CALLS.load(Ordering::Relaxed),
        wire_bytes: WIRE_BYTES.load(Ordering::Relaxed),
    }
}
