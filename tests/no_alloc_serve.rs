//! Steady-state allocation freedom for the serving event loop: once a
//! shard's connections are established and its buffers warm, a serial
//! `Server::tick` — egress flush (including the backpressured partial
//! send), empty-ingress polling, a drive round over the live sessions
//! (including a session whose due attempt waits for a gap to fill), and
//! periodic cumulative-ACK snapshots against a capped egress queue —
//! must never touch the heap. Allocation is an admission-time cost, not
//! a per-tick cost.
//!
//! Same counting-allocator harness as `tests/no_alloc.rs`; one test per
//! binary keeps the counter honest. Only the `server.tick()` calls are
//! inside the measured window — client driving happens outside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

use spinal_codes::link::FeedbackMode;
use spinal_codes::serve::{
    encode_frame, loopback_pair, ClientConfig, Frame, Hello, ServeClient, ServeConfig, Server,
    SymbolRun, Transport,
};
use spinal_codes::{BitVec, IqSymbol, Slot};

#[test]
fn steady_state_server_tick_performs_zero_heap_allocation() {
    // A small egress cap so the queue reaches its final size during
    // warm-up; frames past the cap are dropped (counted), not grown.
    let cfg = ServeConfig {
        egress_high_water: 256,
        egress_capacity: 1 << 10,
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();

    // Two live sessions that never decode (the noise hook zeroes every
    // symbol, so the CRC can never verify) and never exhaust (huge
    // symbol budget): the shard stays occupied for the whole window.
    //   A: plain ACK-only flow — its lane sits at NeedMore, not due.
    //   B: cumulative-ACK flow with period 1 — every tick the server
    //      synthesises a snapshot frame into B's capped egress queue.
    //   C: a hand-framed peer that withholds levels 2..=4 of a k = 4,
    //      B = 16 spine: its attempt is due but cannot fit the frontier
    //      cap (16 × 16^4 nodes), so every drive walks it and waits.
    let garbage = |_: IqSymbol| IqSymbol::new(0.0, 0.0);
    let (a_local, a_remote) = loopback_pair(1 << 12);
    let (b_local, b_remote) = loopback_pair(1 << 12);
    let (mut c_local, c_remote) = loopback_pair(1 << 12);
    let a_handle = server.add_connection(a_remote);
    server.add_connection(b_remote);
    server.add_connection(c_remote);
    let mut c_bytes = Vec::new();
    encode_frame(
        &Frame::Hello(Hello {
            message_bits: 32,
            k: 4,
            c: 8,
            beam: 16,
            max_symbols: 1 << 20,
            seed: 3,
            mode: FeedbackMode::AckOnly,
        }),
        &mut c_bytes,
    )
    .unwrap();
    let around_gap: Vec<(Slot, IqSymbol)> = [0u32, 1, 5, 6, 7]
        .iter()
        .map(|&t| (Slot::new(t, 0), IqSymbol::new(0.0, 0.0)))
        .collect();
    encode_frame(
        &Frame::Data {
            seq: 0,
            run: SymbolRun::Slots(&around_gap),
        },
        &mut c_bytes,
    )
    .unwrap();
    assert_eq!(c_local.send(&c_bytes).unwrap(), c_bytes.len());
    let a_cfg = ClientConfig {
        max_symbols: 1 << 20,
        ..ClientConfig::default()
    };
    let b_cfg = ClientConfig {
        max_symbols: 1 << 20,
        mode: FeedbackMode::CumulativeAck { period: 1 },
        seed: 2,
        ..ClientConfig::default()
    };
    let payload = BitVec::from_bytes(&[0xca, 0xfe]);
    let mut a = ServeClient::new(a_local, &a_cfg, &payload)
        .unwrap()
        .with_noise(Box::new(garbage));
    let mut b = ServeClient::new(b_local, &b_cfg, &payload)
        .unwrap()
        .with_noise(Box::new(garbage));

    // Warm-up 1: establish both sessions and stream enough symbols that
    // the decoders run several (failing) attempts, sizing every scratch
    // buffer, observation set, event list, and wire buffer.
    for _ in 0..60 {
        a.tick();
        b.tick();
        server.tick();
    }
    assert_eq!(server.live_sessions(), 3, "all three sessions must be live");

    // Warm-up 2: go silent. The clients stop draining feedback, so B's
    // per-tick snapshots first fill the loopback pipe, then its egress
    // queue up to the cap — the steady fixed point every measured tick
    // will repeat (stalled flush, skipped ingress, dropped snapshot).
    for _ in 0..800 {
        server.tick();
    }
    let warm = server.stats();
    assert!(
        warm.egress_overflow > 0,
        "warm-up must reach the egress cap so the window cannot grow it"
    );

    // Measured window: flush (stalled partial sends), ingress polling
    // (empty transports), a drive round over two live-but-idle lanes,
    // and one cumulative-ACK snapshot per tick for B.
    let before = allocations();
    for _ in 0..200 {
        server.tick();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state server tick must not allocate (saw {} allocations)",
        after - before
    );

    // The window must have been doing real per-tick work, not idling:
    // snapshots kept overflowing B's capped queue, and its stalled
    // egress held the connection above the high-water mark.
    let stats = server.stats();
    assert_eq!(stats.ticks, warm.ticks + 200);
    assert!(
        stats.egress_overflow > warm.egress_overflow,
        "cumulative-ACK snapshots must have fired inside the window"
    );
    assert!(
        stats.backpressure_ticks > 0,
        "a stalled egress queue must register backpressure"
    );
    assert_eq!(server.live_sessions(), 3);
    assert!(!server.is_closed(a_handle));

    // Sanity: the dialogue is still healable — when the clients resume
    // draining, session A (ACK-only, garbage symbols, huge budget) is
    // still at NeedMore rather than closed.
    for _ in 0..5 {
        a.tick();
        b.tick();
        server.tick();
    }
    assert_eq!(server.live_sessions(), 3);
    let stats = server.stats();
    assert_eq!(stats.decoded + stats.exhausted + stats.abandoned, 0);
}
