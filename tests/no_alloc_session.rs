//! Steady-state allocation freedom for streaming sessions: after the
//! first trial warms a session pair's buffers (observation set, decoder
//! scratch, checkpoint store, plan caches, genie truth, payload), a
//! rebind → stream → incremental-decode cycle must never touch the heap
//! again. This is the per-connection cost model of a long-running
//! service: allocation only at session establishment.
//!
//! Same counting-allocator harness as `tests/no_alloc.rs`; one test per
//! binary keeps the counter honest.

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

use spinal_codes::{
    AnyTerminator, BeamConfig, BeamDecoder, BitVec, CodeParams, Lookup3, MultiConfig, MultiDecoder,
    NoPuncture, Poll, RxConfig, RxSession, SessionEvent, TxSession,
};
use spinal_core::map::LinearMapper;
use spinal_core::{AwgnCost, Encoder};

#[test]
fn steady_state_session_cycle_performs_zero_heap_allocation() {
    let base = CodeParams::builder()
        .message_bits(48)
        .k(8)
        .seed(0)
        .build()
        .unwrap();
    let mapper = LinearMapper::new(10);
    let beam = BeamConfig::paper_default();

    // Distinct per-trial messages, built before the measured window.
    let messages: Vec<BitVec> = (0..6u8)
        .map(|i| BitVec::from_bytes(&[i ^ 0xca, i ^ 0xfe, i ^ 0x42, i, i ^ 0x5a, i ^ 0x13]))
        .collect();

    // Decoders built before the window. Cloning a built decoder is
    // allocation-free (all fields are `Copy` here).
    let decoders: Vec<BeamDecoder<Lookup3, LinearMapper, AwgnCost>> = (0..6u64)
        .map(|seed| {
            BeamDecoder::new(
                &base.reseeded(seed),
                Lookup3::new(seed),
                mapper,
                AwgnCost,
                beam,
            )
            .unwrap()
        })
        .collect();
    let mut tx = TxSession::new(
        Encoder::new(&base.reseeded(0), Lookup3::new(0), mapper, &messages[0]).unwrap(),
        NoPuncture::new(),
    );
    let mut rx: RxSession<Lookup3, LinearMapper, AwgnCost, NoPuncture> = RxSession::new(
        decoders[0].clone(),
        NoPuncture::new(),
        AnyTerminator::genie(messages[0].clone()),
        RxConfig {
            beam,
            max_symbols: 4096,
            ..RxConfig::default()
        },
    )
    .unwrap();

    // One full trial: rebind both sessions to `seed`, stream noiseless
    // symbols one at a time until the genie accepts.
    let run_trial = |tx: &mut TxSession<Lookup3, LinearMapper, NoPuncture>,
                     rx: &mut RxSession<Lookup3, LinearMapper, AwgnCost, NoPuncture>,
                     seed: u64| {
        let msg = &messages[seed as usize % messages.len()];
        tx.rebind(&base.reseeded(seed), Lookup3::new(seed), msg)
            .unwrap();
        rx.rebind(decoders[seed as usize].clone());
        rx.terminator_mut().genie_mut().unwrap().set_truth(msg);
        loop {
            let (_slot, x) = tx.next_symbol();
            match rx.ingest(&[x]).unwrap() {
                Poll::NeedMore { .. } => continue,
                Poll::Decoded { .. } => break,
                Poll::Exhausted { .. } => panic!("noiseless trial must decode"),
            }
        }
        assert_eq!(rx.payload(), Some(msg));
    };

    // Warm-up: two trials size every buffer (checkpoints, plans, arena,
    // payload) to its steady shape.
    run_trial(&mut tx, &mut rx, 0);
    run_trial(&mut tx, &mut rx, 1);

    // Steady state: further trials must not allocate at all.
    let before = allocations();
    for seed in 2..6u64 {
        run_trial(&mut tx, &mut rx, seed);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state session cycle must not allocate (saw {} allocations)",
        after - before
    );
    assert!(
        rx.checkpoints().levels_resumed() > 0,
        "per-symbol retries must resume from checkpoints"
    );

    // ---- Multi-session scheduler: a warm pool's ingest/drive cycle
    // must be equally allocation-free (the per-connection cost model of
    // a pool serving many receivers: allocation only at establishment).
    const POOL_SESSIONS: usize = 4;
    let mut pool: MultiDecoder<Lookup3, LinearMapper, AwgnCost, NoPuncture> =
        MultiDecoder::new(MultiConfig::default());
    let mut txs: Vec<TxSession<Lookup3, LinearMapper, NoPuncture>> = (0..POOL_SESSIONS as u64)
        .map(|s| {
            TxSession::new(
                Encoder::new(
                    &base.reseeded(s),
                    Lookup3::new(s),
                    mapper,
                    &messages[s as usize],
                )
                .unwrap(),
                NoPuncture::new(),
            )
        })
        .collect();
    let ids: Vec<_> = (0..POOL_SESSIONS)
        .map(|s| {
            pool.insert(
                RxSession::new(
                    decoders[s].clone(),
                    NoPuncture::new(),
                    AnyTerminator::genie(messages[s].clone()),
                    RxConfig {
                        beam,
                        max_symbols: 4096,
                        ..RxConfig::default()
                    },
                )
                .unwrap(),
            )
            .unwrap()
        })
        .collect();
    let mut events: Vec<SessionEvent> = Vec::new();
    // One pooled trial: rebind every lane to `base_seed + lane`, stream
    // one noiseless symbol per session per drive until all decode.
    let run_pool_trial = |pool: &mut MultiDecoder<Lookup3, LinearMapper, AwgnCost, NoPuncture>,
                          txs: &mut Vec<TxSession<Lookup3, LinearMapper, NoPuncture>>,
                          events: &mut Vec<SessionEvent>,
                          base_seed: u64| {
        for (lane, (tx, &id)) in txs.iter_mut().zip(&ids).enumerate() {
            let seed = (base_seed + lane as u64) % 6;
            let msg = &messages[seed as usize];
            tx.rebind(&base.reseeded(seed), Lookup3::new(seed), msg)
                .unwrap();
            pool.rebind(id, decoders[seed as usize].clone()).unwrap();
            let rx = pool.get_mut(id).unwrap();
            rx.terminator_mut().genie_mut().unwrap().set_truth(msg);
        }
        let mut live = POOL_SESSIONS;
        while live > 0 {
            for (tx, &id) in txs.iter_mut().zip(&ids) {
                if pool.get(id).unwrap().is_finished() {
                    continue;
                }
                let (_slot, x) = tx.next_symbol();
                pool.ingest(id, &[x]).unwrap();
            }
            pool.drive_into(events);
            live -= events.iter().filter(|e| e.is_decoded()).count();
        }
    };

    // Warm-up sizes the pool's shared scratch, event/due lists, and
    // every lane's buffers.
    run_pool_trial(&mut pool, &mut txs, &mut events, 0);
    run_pool_trial(&mut pool, &mut txs, &mut events, 1);

    let before = allocations();
    for base_seed in 2..6u64 {
        run_pool_trial(&mut pool, &mut txs, &mut events, base_seed);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state multi-session cycle must not allocate (saw {} allocations)",
        after - before
    );
}
