//! Steady-state allocation freedom: after a warm-up attempt,
//! `BeamDecoder::decode_into` with a reused `DecoderScratch` and
//! `DecodeResult` must never touch the heap again — across repeated
//! attempts, growing observation sets, and the rateless re-decode
//! pattern.
//!
//! Verified with a counting global allocator: every allocation anywhere
//! in the process bumps a counter, and the steady-state window must see
//! zero. The test binary is therefore single-threaded by construction
//! (each `#[test]` here is the only one in its binary run — Rust runs
//! tests in one process, so this file holds exactly one test to keep the
//! counter honest).

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
    AwgnCost, BeamConfig, BeamDecoder, BitVec, CodeParams, DecodeResult, DecoderScratch, Encoder,
    Lookup3, Observations,
};
use spinal_core::map::LinearMapper;
use spinal_core::symbol::Slot;

#[test]
fn steady_state_decode_performs_zero_heap_allocation() {
    let params = CodeParams::builder()
        .message_bits(48)
        .k(8)
        .seed(7)
        .build()
        .unwrap();
    let message = BitVec::from_bytes(&[0xca, 0xfe, 0x42, 0x13, 0x37, 0x5a]);
    let enc = Encoder::new(&params, Lookup3::new(7), LinearMapper::new(10), &message).unwrap();
    let decoder = BeamDecoder::new(
        &params,
        Lookup3::new(7),
        LinearMapper::new(10),
        AwgnCost,
        BeamConfig::paper_default(),
    )
    .unwrap();

    // The rateless pattern: observations accumulate pass by pass, with a
    // re-decode after each. Build every observation set up front so the
    // measured window contains only decode work.
    let max_passes = 6u32;
    let obs_sets: Vec<Observations<_>> = (1..=max_passes)
        .map(|passes| {
            let mut obs = Observations::new(params.n_segments());
            for pass in 0..passes {
                for t in 0..params.n_segments() {
                    let slot = Slot::new(t, pass);
                    obs.push(slot, enc.symbol(slot));
                }
            }
            obs
        })
        .collect();

    let mut scratch = DecoderScratch::new();
    let mut result = DecodeResult::default();

    // Warm-up: the largest observation set sizes every buffer to its
    // peak, and a full sweep warms the per-attempt shapes.
    decoder.decode_into(obs_sets.last().unwrap(), &mut scratch, &mut result);
    for obs in &obs_sets {
        decoder.decode_into(obs, &mut scratch, &mut result);
    }
    assert_eq!(result.message, message, "decoder must actually work");

    // Steady state: repeated rateless sweeps, zero allocations.
    let before = allocations();
    for _ in 0..3 {
        for obs in &obs_sets {
            decoder.decode_into(obs, &mut scratch, &mut result);
        }
    }
    let after = allocations();
    assert_eq!(result.message, message);
    assert_eq!(
        after - before,
        0,
        "steady-state decode_into must not allocate (saw {} allocations)",
        after - before
    );
}
