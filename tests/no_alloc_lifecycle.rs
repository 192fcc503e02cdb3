//! Steady-state allocation freedom for the connection-lifecycle
//! machinery: with one idle-but-live connection, one detached (orphan)
//! session being driven toward resumption, and a graceful drain in
//! progress, a serial `Server::tick` — idle-deadline bookkeeping, a
//! keepalive PING enqueued mid-window, the drain-deadline check, and
//! the detached session's TTL scan — must never touch the heap.
//!
//! Detach and re-attach themselves are admission-time costs (a fresh
//! connection's buffers), so the warm-up performs one full
//! disconnect → RESUME → re-attach cycle to size every lifecycle
//! buffer (flow table, resume queue, egress slack for PING
//! and GO-AWAY) before the measured window opens on the second,
//! unresumed disconnect.
//!
//! Same counting-allocator harness as `tests/no_alloc_serve.rs`; one
//! test per binary keeps the counter honest.

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

use spinal_codes::serve::{loopback_pair, ClientConfig, ServeClient, ServeConfig, Server};
use spinal_codes::{BitVec, IqSymbol};

#[test]
fn lifecycle_steady_state_performs_zero_heap_allocation() {
    // keepalive_idle is tuned so the PING to the idle-but-live
    // connection fires *inside* the measured window (warm-up goes
    // silent ~800 ticks before it opens); idle_deadline stays infinite
    // so the connection is probed, never detached. The detached
    // session's tick TTL is infinite so its flow is scanned every
    // measured tick without expiring.
    // The resume secret is pinned so the server is snapshottable: the
    // warm-restart phase below images this server and re-measures the
    // restored one.
    let mut cfg = ServeConfig {
        keepalive_idle: 900,
        resume_secret: Some(0x5EED_FACE),
        ..ServeConfig::default()
    };
    cfg.pool.detach_ttl = u64::MAX;
    let mut server = Server::new(cfg).unwrap();

    // Both sessions use the zeroing noise hook (the CRC can never
    // verify) and a huge symbol budget, so neither decodes nor
    // exhausts: A stays live and idle; B's session survives detached.
    let garbage = |_: IqSymbol| IqSymbol::new(0.0, 0.0);
    let payload = BitVec::from_bytes(&[0xca, 0xfe]);
    let (a_local, a_remote) = loopback_pair(1 << 12);
    let (b_local, b_remote) = loopback_pair(1 << 12);
    let a_handle = server.add_connection(a_remote);
    server.add_connection(b_remote);
    let a_cfg = ClientConfig {
        max_symbols: 1 << 20,
        ..ClientConfig::default()
    };
    let b_cfg = ClientConfig {
        max_symbols: 1 << 20,
        seed: 2,
        ..ClientConfig::default()
    };
    let mut a = ServeClient::new(a_local, &a_cfg, &payload)
        .unwrap()
        .with_noise(Box::new(garbage));
    let mut b = ServeClient::new(b_local, &b_cfg, &payload)
        .unwrap()
        .with_noise(Box::new(garbage));

    // Warm-up 1: admit both flows and stream enough symbols to size
    // the decoders' scratch state.
    for _ in 0..60 {
        a.tick();
        b.tick();
        server.tick();
    }
    assert_eq!(server.live_sessions(), 2);

    // Warm-up 2: one full disconnect → RESUME → re-attach cycle for B,
    // sizing the flow table, the resume queue, and the fresh
    // connection's buffers.
    let token = b.resume_token().expect("admitted client holds a token");
    let (srv2, cli2) = loopback_pair(1 << 12);
    server.add_resume_connection(srv2, token);
    drop(b.reconnect(cli2));
    for _ in 0..10 {
        a.tick();
        b.tick();
        server.tick();
    }
    assert_eq!(server.stats().resumed, 1, "warm-up resume must land");
    assert_eq!(server.live_sessions(), 2);

    // Disconnect B again and leave it orphaned: the measured window
    // holds a detached session the whole way through.
    drop(b);
    for _ in 0..200 {
        server.tick();
        if server.detached_sessions() == 1 {
            break;
        }
    }
    // `live_sessions` counts attached *and* detached pool entries: A's
    // attached session plus B's orphan.
    assert_eq!(server.live_sessions(), 2);
    assert_eq!(server.detached_sessions(), 1);

    // Start a graceful drain with a far-off deadline: GO-AWAY to A is
    // enqueued (and latched) during warm-up 3, and every measured tick
    // re-checks the deadline without acting on it.
    server.begin_drain(1 << 40);

    // Warm-up 3: go silent so every per-tick code path reaches its
    // fixed point (stalled lanes, GO-AWAY flushed, detached drive).
    for _ in 0..800 {
        server.tick();
    }
    let warm = server.stats();
    assert_eq!(
        warm.keepalive_pings, 0,
        "PING must not fire before the window"
    );

    // Measured window: idle bookkeeping for A (the keepalive PING
    // fires ~100 ticks in and is encoded, enqueued, and flushed),
    // drain-deadline checks, the detached flow's TTL scan, and a
    // drive round over one live and one detached lane.
    let before = allocations();
    for _ in 0..200 {
        server.tick();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state lifecycle tick must not allocate (saw {} allocations)",
        after - before
    );

    // The window must have exercised the lifecycle machinery for real.
    let stats = server.stats();
    assert_eq!(stats.ticks, warm.ticks + 200);
    assert_eq!(
        stats.keepalive_pings, 1,
        "the keepalive probe must have fired inside the window"
    );
    assert!(server.draining());
    assert_eq!(server.live_sessions(), 2, "A attached + B's orphan");
    assert_eq!(server.detached_sessions(), 1, "B must still be resumable");
    assert!(!server.is_closed(a_handle));
    assert_eq!(stats.idle_closed, 0);
    assert_eq!(stats.expired, 0);

    // Sanity: the probed connection is still healable — A resumes
    // ticking (answering the PING with a PONG) and stays live.
    for _ in 0..5 {
        a.tick();
        server.tick();
    }
    assert_eq!(server.live_sessions(), 2);

    // ---- Warm restart: the restored server reaches the same
    // allocation-free steady state. ----

    // The snapshot itself may allocate (header vectors, checkpoint
    // demotion), but it must reuse the caller's buffer across calls:
    // once sized by the first image, a second image does not regrow it.
    let mut image = Vec::new();
    server.snapshot_into(&mut image).unwrap();
    let sized = image.capacity();
    server.snapshot_into(&mut image).unwrap();
    assert_eq!(
        image.capacity(),
        sized,
        "a second snapshot must reuse the caller's buffer, not regrow it"
    );

    // Restore: both sessions come back detached; A re-attaches through
    // the ordinary RESUME path with the token it already holds, and B's
    // orphan stays resumable.
    let a_token = a.resume_token().expect("admitted client holds a token");
    let mut server = Server::restore(cfg, &image).unwrap();
    assert_eq!(server.live_sessions(), 2);
    assert_eq!(server.detached_sessions(), 2);
    let (srv3, cli3) = loopback_pair(1 << 12);
    server.add_resume_connection(srv3, a_token);
    drop(a.reconnect(cli3));

    // Warm-up: re-admission and the fresh connection's buffers are
    // allocation-time costs; streaming runs the restored decoder hot
    // (packed-checkpoint promotion included), then silence reaches the
    // per-tick fixed point.
    for _ in 0..60 {
        a.tick();
        server.tick();
    }
    assert_eq!(server.stats().resumed, 2, "A must re-attach after restore");
    assert_eq!(server.detached_sessions(), 1, "B's orphan survives restart");
    for _ in 0..800 {
        server.tick();
    }
    let warm = server.stats();

    // Measured window: the restored server's steady state — A's live
    // lane, B's restored orphan on its TTL scan, idle bookkeeping —
    // allocates nothing, exactly like the pre-crash server.
    let before = allocations();
    for _ in 0..200 {
        server.tick();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "restored-server steady-state tick must not allocate (saw {} allocations)",
        after - before
    );

    let stats = server.stats();
    assert_eq!(stats.ticks, warm.ticks + 200);
    assert_eq!(stats.snapshots, 2, "counters survive the restart");
    assert_eq!(server.live_sessions(), 2);
    assert_eq!(server.detached_sessions(), 1);
}
