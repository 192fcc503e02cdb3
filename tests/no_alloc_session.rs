//! Steady-state allocation freedom for streaming sessions: after the
//! first trial warms a session pair's buffers (observation set, decoder
//! scratch, genie truth, payload), a rebind → stream → decode cycle
//! must never touch the heap
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
    AnyTerminator, BeamConfig, BeamDecoder, BitVec, CodeParams, DecoderScratch, Lookup3,
    NoPuncture, Poll, RxConfig, RxSession, TxSession,
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
    let mut scratch = DecoderScratch::new();

    // One full trial: rebind both sessions to `seed`, stream noiseless
    // symbols one at a time until the genie accepts.
    let mut run_trial = |tx: &mut TxSession<Lookup3, LinearMapper, NoPuncture>,
                         rx: &mut RxSession<Lookup3, LinearMapper, AwgnCost, NoPuncture>,
                         seed: u64| {
        let msg = &messages[seed as usize % messages.len()];
        tx.rebind(&base.reseeded(seed), Lookup3::new(seed), msg)
            .unwrap();
        rx.rebind(decoders[seed as usize].clone());
        rx.terminator_mut().genie_mut().unwrap().set_truth(msg);
        loop {
            let (_slot, x) = tx.next_symbol();
            match rx.ingest(&mut scratch, &[x]).unwrap() {
                Poll::NeedMore { .. } => continue,
                Poll::Decoded { .. } => break,
                Poll::Exhausted { .. } => panic!("noiseless trial must decode"),
            }
        }
        assert_eq!(rx.payload(), Some(msg));
    };

    // Warm-up: two trials size every buffer (plans, arena, payload) to
    // its steady shape.
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

    // ---- Sessions lending one scratch: a warm fleet's absorb/poll
    // cycle must be equally allocation-free (the per-connection cost
    // model of a server shard serving many receivers through one
    // scratch: allocation only at establishment).
    const FLEET: usize = 4;
    let mut txs: Vec<TxSession<Lookup3, LinearMapper, NoPuncture>> = (0..FLEET as u64)
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
    let mut rxs: Vec<RxSession<Lookup3, LinearMapper, AwgnCost, NoPuncture>> = (0..FLEET)
        .map(|s| {
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
            .unwrap()
        })
        .collect();
    let mut shared = DecoderScratch::new();
    // One fleet trial: rebind every lane to `base_seed + lane`, absorb
    // one noiseless symbol per live session per round, then poll every
    // session through the one scratch, until all decode.
    let mut run_fleet_trial =
        |txs: &mut Vec<TxSession<Lookup3, LinearMapper, NoPuncture>>,
         rxs: &mut Vec<RxSession<Lookup3, LinearMapper, AwgnCost, NoPuncture>>,
         base_seed: u64| {
            for (lane, (tx, rx)) in txs.iter_mut().zip(rxs.iter_mut()).enumerate() {
                let seed = (base_seed + lane as u64) % 6;
                let msg = &messages[seed as usize];
                tx.rebind(&base.reseeded(seed), Lookup3::new(seed), msg)
                    .unwrap();
                rx.rebind(decoders[seed as usize].clone());
                rx.terminator_mut().genie_mut().unwrap().set_truth(msg);
            }
            let mut live = FLEET;
            while live > 0 {
                for (tx, rx) in txs.iter_mut().zip(rxs.iter_mut()) {
                    if !rx.is_finished() {
                        rx.absorb_at(&[tx.next_symbol()]).unwrap();
                    }
                }
                for rx in rxs.iter_mut() {
                    if let Some(Poll::Decoded { .. }) = rx.poll(&mut shared) {
                        live -= 1;
                    }
                }
            }
        };

    // Warm-up sizes the shared scratch and every lane's buffers.
    run_fleet_trial(&mut txs, &mut rxs, 0);
    run_fleet_trial(&mut txs, &mut rxs, 1);

    let before = allocations();
    for base_seed in 2..6u64 {
        run_fleet_trial(&mut txs, &mut rxs, base_seed);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state multi-session cycle must not allocate (saw {} allocations)",
        after - before
    );
}
