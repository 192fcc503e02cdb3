//! x86_64 kernels: AVX2 (runtime-detected) and SSE2 (baseline).
//!
//! The intrinsic kernels here are integer arithmetic — wrapping
//! adds/subs, shifts, XORs, byte shuffles and popcounts — so each is
//! bit-identical to its scalar counterpart by construction. The AVX2
//! row scorer is no intrinsic code at all: it recompiles the safe
//! row-scoring body for AVX2, the same float operations per child in
//! the same order. The property tests in [`super`] and [`crate::hash`]
//! pin all of it on every machine the suite runs on.
//!
//! Safety model: the only `unsafe` operations are (a) calling
//! `#[target_feature(enable = "avx2")]` functions, done strictly after
//! `is_x86_feature_detected!("avx2")`, and (b) raw-pointer loads/stores,
//! whose bounds are established by the safe entry points (they truncate
//! every slice to a whole number of vector chunks first).

#![allow(unsafe_code)]

use crate::decode::batch::{self, ObsRead, PackedMask};
use crate::decode::cost::CostModel;
use crate::decode::select::SIGN_FOLD;
use crate::map::Mapper;

use core::arch::x86_64::*;

// ---------------------------------------------------------------------
// Generic row scoring
// ---------------------------------------------------------------------

/// [`batch::score_row`] compiled for AVX2: the same safe body, so the
/// same IEEE-754 operations per child, four children per vector.
/// Returns `false` (scoring nothing) when the CPU lacks AVX2.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_costs_avx2<M: Mapper, C: CostModel<M::Symbol>>(
    mapper: &M,
    cost: &C,
    blocks: &[u64],
    reads: &[ObsRead],
    level_obs: &[(u32, M::Symbol)],
    parent_cost: f64,
    out_keys: &mut [u64],
) -> bool {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return false;
    }
    // SAFETY: AVX2 checked above; the body is safe code.
    unsafe {
        row_costs_avx2_inner(
            mapper,
            cost,
            blocks,
            reads,
            level_obs,
            parent_cost,
            out_keys,
        )
    };
    true
}

/// # Safety
///
/// The running CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn row_costs_avx2_inner<M: Mapper, C: CostModel<M::Symbol>>(
    mapper: &M,
    cost: &C,
    blocks: &[u64],
    reads: &[ObsRead],
    level_obs: &[(u32, M::Symbol)],
    parent_cost: f64,
    out_keys: &mut [u64],
) {
    batch::score_row(
        mapper,
        cost,
        blocks,
        reads,
        level_obs,
        parent_cost,
        out_keys,
    );
}

// ---------------------------------------------------------------------
// Packed-bit mask collapse
// ---------------------------------------------------------------------

/// AVX2 collapse: 4 children per iteration, nibble-LUT popcount
/// (`pshufb`) + `psadbw` horizontal sums. Returns the number of leading
/// children processed.
pub(crate) fn packed_rows_avx2(
    blocks: &[u64],
    n: usize,
    masks: &[PackedMask],
    parent_cost: u64,
    out_keys: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n4 = n - n % 4;
    // SAFETY: AVX2 checked above; all accesses below stay inside
    // `blocks[m.pos*n .. m.pos*n + n]` and `out_keys[..n4]`.
    unsafe { packed_rows_avx2_inner(blocks, n, masks, parent_cost, out_keys, n4) };
    n4
}

#[target_feature(enable = "avx2")]
unsafe fn packed_rows_avx2_inner(
    blocks: &[u64],
    n: usize,
    masks: &[PackedMask],
    parent_cost: u64,
    out_keys: &mut [u64],
    n4: usize,
) {
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low_nibble = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let base = _mm256_set1_epi64x(parent_cost as i64);
    let take_lows = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    for c in (0..n4).step_by(4) {
        let mut acc = zero;
        for m in masks {
            let v = _mm256_loadu_si256(blocks.as_ptr().add(m.pos as usize * n + c).cast());
            let x = _mm256_and_si256(
                _mm256_xor_si256(v, _mm256_set1_epi64x(m.obs as i64)),
                _mm256_set1_epi64x(m.sel as i64),
            );
            let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_nibble));
            let hi =
                _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi64::<4>(x), low_nibble));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi), zero));
        }
        // tot holds 4 small non-negative integers (< 2^31): route their
        // low dwords through the exact i32 → f64 conversion. The f64
        // stays in-register — the key-only frontier stores just its
        // order-preserving key (raw bits with the sign bit folded, see
        // `decode::select`).
        let tot = _mm256_add_epi64(acc, base);
        let lows = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(tot, take_lows));
        let pd = _mm256_cvtepi32_pd(lows);
        _mm256_storeu_si256(
            out_keys.as_mut_ptr().add(c).cast(),
            _mm256_xor_si256(
                _mm256_castpd_si256(pd),
                _mm256_set1_epi64x(SIGN_FOLD as i64),
            ),
        );
    }
}

/// SSE2 collapse: 2 children per iteration, bit-parallel popcount +
/// `psadbw`. SSE2 is unconditionally available on x86_64, so there is
/// no runtime check. Returns the number of leading children processed.
pub(crate) fn packed_rows_sse2(
    blocks: &[u64],
    n: usize,
    masks: &[PackedMask],
    parent_cost: u64,
    out_keys: &mut [u64],
) -> usize {
    let n2 = n - n % 2;
    // SAFETY: SSE2 is part of the x86_64 baseline; all accesses below
    // stay inside `blocks[m.pos*n .. m.pos*n + n]` and `out_keys[..n2]`.
    unsafe { packed_rows_sse2_inner(blocks, n, masks, parent_cost, out_keys, n2) };
    n2
}

#[target_feature(enable = "sse2")]
unsafe fn packed_rows_sse2_inner(
    blocks: &[u64],
    n: usize,
    masks: &[PackedMask],
    parent_cost: u64,
    out_keys: &mut [u64],
    n2: usize,
) {
    let m55 = _mm_set1_epi64x(0x5555_5555_5555_5555_u64 as i64);
    let m33 = _mm_set1_epi64x(0x3333_3333_3333_3333_u64 as i64);
    let m0f = _mm_set1_epi64x(0x0f0f_0f0f_0f0f_0f0f_u64 as i64);
    let zero = _mm_setzero_si128();
    let base = _mm_set1_epi64x(parent_cost as i64);
    for c in (0..n2).step_by(2) {
        let mut acc = zero;
        for m in masks {
            let v = _mm_loadu_si128(blocks.as_ptr().add(m.pos as usize * n + c).cast());
            let mut x = _mm_and_si128(
                _mm_xor_si128(v, _mm_set1_epi64x(m.obs as i64)),
                _mm_set1_epi64x(m.sel as i64),
            );
            // Bit-parallel byte popcount, then psadbw to sum the bytes
            // of each 64-bit lane.
            x = _mm_sub_epi64(x, _mm_and_si128(_mm_srli_epi64::<1>(x), m55));
            x = _mm_add_epi64(
                _mm_and_si128(x, m33),
                _mm_and_si128(_mm_srli_epi64::<2>(x), m33),
            );
            x = _mm_and_si128(_mm_add_epi64(x, _mm_srli_epi64::<4>(x)), m0f);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(x, zero));
        }
        let tot = _mm_add_epi64(acc, base);
        // Gather the two low dwords and convert exactly; the f64 stays
        // in-register. Keys are the cost bits with the sign bit folded.
        let lows = _mm_shuffle_epi32::<0b10_00_10_00>(tot);
        let pd = _mm_cvtepi32_pd(lows);
        _mm_storeu_si128(
            out_keys.as_mut_ptr().add(c).cast(),
            _mm_xor_si128(_mm_castpd_si128(pd), _mm_set1_epi64x(SIGN_FOLD as i64)),
        );
    }
}

// ---------------------------------------------------------------------
// Shared 8-lane u32 plumbing
// ---------------------------------------------------------------------

/// Splits eight u64 values (two vectors) into their low and high u32
/// halves, each as one 8×u32 vector in element order.
#[target_feature(enable = "avx2")]
fn split_lo_hi(v0: __m256i, v1: __m256i) -> (__m256i, __m256i) {
    let idx_lo = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    let idx_hi = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
    let l0 = _mm256_permutevar8x32_epi32(v0, idx_lo);
    let l1 = _mm256_permutevar8x32_epi32(v1, idx_lo);
    let h0 = _mm256_permutevar8x32_epi32(v0, idx_hi);
    let h1 = _mm256_permutevar8x32_epi32(v1, idx_hi);
    (
        _mm256_blend_epi32::<0b1111_0000>(l0, l1),
        _mm256_blend_epi32::<0b1111_0000>(h0, h1),
    )
}

/// Recombines per-lane `(hi << 32) | lo` u64 results from two 8×u32
/// vectors, returning them as two 4×u64 vectors in element order.
#[target_feature(enable = "avx2")]
fn merge_hi_lo(hi: __m256i, lo: __m256i) -> (__m256i, __m256i) {
    let a = _mm256_unpacklo_epi32(lo, hi); // r0 r1 | r4 r5
    let b = _mm256_unpackhi_epi32(lo, hi); // r2 r3 | r6 r7
    (
        _mm256_permute2x128_si256::<0x20>(a, b),
        _mm256_permute2x128_si256::<0x31>(a, b),
    )
}

/// Loads 8 u64 from `p` as two vectors.
///
/// # Safety
///
/// `p` must be valid for reading 8 u64 values.
#[target_feature(enable = "avx2")]
unsafe fn load8(p: *const u64) -> (__m256i, __m256i) {
    (
        _mm256_loadu_si256(p.cast()),
        _mm256_loadu_si256(p.add(4).cast()),
    )
}

/// Stores two 4×u64 vectors to `p`.
///
/// # Safety
///
/// `p` must be valid for writing 8 u64 values.
#[target_feature(enable = "avx2")]
unsafe fn store8(p: *mut u64, v0: __m256i, v1: __m256i) {
    _mm256_storeu_si256(p.cast(), v0);
    _mm256_storeu_si256(p.cast::<__m256i>().add(1), v1);
}

// ---------------------------------------------------------------------
// lookup3: 8 interleaved lanes of the 32-bit mix/final network
// ---------------------------------------------------------------------

macro_rules! rot32v {
    ($v:expr, $r:literal) => {
        _mm256_or_si256(
            _mm256_slli_epi32::<$r>($v),
            _mm256_srli_epi32::<{ 32 - $r }>($v),
        )
    };
}

/// Eight lanes of the scalar `lookup3` body: inputs are the
/// pre-initialized `a`, `b`, `c` accumulators and the fourth input word;
/// returns the `(b, c)` pair the 64-bit digest is built from.
#[target_feature(enable = "avx2")]
fn lookup3_core8(
    mut a: __m256i,
    mut b: __m256i,
    mut c: __m256i,
    w3: __m256i,
) -> (__m256i, __m256i) {
    macro_rules! mixstep {
        ($x:ident, $y:ident, $r:literal, $z:ident, $w:ident) => {
            $x = _mm256_sub_epi32($x, $y);
            $x = _mm256_xor_si256($x, rot32v!($y, $r));
            $z = _mm256_add_epi32($z, $w);
        };
    }
    macro_rules! finstep {
        ($x:ident, $y:ident, $r:literal) => {
            $x = _mm256_xor_si256($x, $y);
            $x = _mm256_sub_epi32($x, rot32v!($y, $r));
        };
    }
    mixstep!(a, c, 4, c, b);
    mixstep!(b, a, 6, a, c);
    mixstep!(c, b, 8, b, a);
    mixstep!(a, c, 16, c, b);
    mixstep!(b, a, 19, a, c);
    mixstep!(c, b, 4, b, a);
    a = _mm256_add_epi32(a, w3);
    finstep!(c, b, 14);
    finstep!(a, c, 11);
    finstep!(b, a, 25);
    finstep!(c, b, 16);
    finstep!(a, c, 4);
    finstep!(b, a, 14);
    finstep!(c, b, 24);
    let _ = a;
    (b, c)
}

/// The seed-derived `lookup3` initial values (matching `hash.rs`).
#[inline(always)]
fn lookup3_inits(seed: u64) -> (u32, u32) {
    let init = 0xdeadbeef_u32
        .wrapping_add(4 << 2)
        .wrapping_add(seed as u32);
    (init, init.wrapping_add((seed >> 32) as u32))
}

pub(crate) fn lookup3_batch_avx2(
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n8 = states.len() - states.len() % 8;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n8]` only.
    unsafe { lookup3_batch_inner(seed, states, segments, out, n8) };
    n8
}

#[target_feature(enable = "avx2")]
unsafe fn lookup3_batch_inner(
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
    n8: usize,
) {
    let (init, init_c) = lookup3_inits(seed);
    let vinit = _mm256_set1_epi32(init as i32);
    let vinit_c = _mm256_set1_epi32(init_c as i32);
    for i in (0..n8).step_by(8) {
        let (s0, s1) = load8(states.as_ptr().add(i));
        let (g0, g1) = load8(segments.as_ptr().add(i));
        let (slo, shi) = split_lo_hi(s0, s1);
        let (glo, ghi) = split_lo_hi(g0, g1);
        let a = _mm256_add_epi32(vinit, slo);
        let b = _mm256_add_epi32(vinit, shi);
        let c = _mm256_add_epi32(vinit_c, glo);
        let (rb, rc) = lookup3_core8(a, b, c, ghi);
        let (o0, o1) = merge_hi_lo(rb, rc);
        store8(out.as_mut_ptr().add(i), o0, o1);
    }
}

pub(crate) fn lookup3_fixed_state_avx2(
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n8 = segments.len() - segments.len() % 8;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n8]` only.
    unsafe { lookup3_fixed_state_inner(seed, state, segments, out, n8) };
    n8
}

#[target_feature(enable = "avx2")]
unsafe fn lookup3_fixed_state_inner(
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
    n8: usize,
) {
    let (init, init_c) = lookup3_inits(seed);
    let a0 = _mm256_set1_epi32(init.wrapping_add(state as u32) as i32);
    let b0 = _mm256_set1_epi32(init.wrapping_add((state >> 32) as u32) as i32);
    let vinit_c = _mm256_set1_epi32(init_c as i32);
    for i in (0..n8).step_by(8) {
        let (g0, g1) = load8(segments.as_ptr().add(i));
        let (glo, ghi) = split_lo_hi(g0, g1);
        let c = _mm256_add_epi32(vinit_c, glo);
        let (rb, rc) = lookup3_core8(a0, b0, c, ghi);
        let (o0, o1) = merge_hi_lo(rb, rc);
        store8(out.as_mut_ptr().add(i), o0, o1);
    }
}

pub(crate) fn lookup3_fixed_segment_avx2(
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n8 = states.len() - states.len() % 8;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n8]` only.
    unsafe { lookup3_fixed_segment_inner(seed, states, segment, out, n8) };
    n8
}

#[target_feature(enable = "avx2")]
unsafe fn lookup3_fixed_segment_inner(
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
    n8: usize,
) {
    let (init, init_c) = lookup3_inits(seed);
    let vinit = _mm256_set1_epi32(init as i32);
    let c0 = _mm256_set1_epi32(init_c.wrapping_add(segment as u32) as i32);
    let w3 = _mm256_set1_epi32((segment >> 32) as u32 as i32);
    for i in (0..n8).step_by(8) {
        let (s0, s1) = load8(states.as_ptr().add(i));
        let (slo, shi) = split_lo_hi(s0, s1);
        let a = _mm256_add_epi32(vinit, slo);
        let b = _mm256_add_epi32(vinit, shi);
        let (rb, rc) = lookup3_core8(a, b, c0, w3);
        let (o0, o1) = merge_hi_lo(rb, rc);
        store8(out.as_mut_ptr().add(i), o0, o1);
    }
}

// ---------------------------------------------------------------------
// one-at-a-time: 8 inputs × the lo/hi chain pair
// ---------------------------------------------------------------------

/// Eight lanes of the byte-serial one-at-a-time pair: both 32-bit chains
/// (lo, hi) over the 16 little-endian bytes of each lane's
/// `(state, segment)`.
#[target_feature(enable = "avx2")]
fn oaat_core8(seed: u64, s0: __m256i, s1: __m256i, g0: __m256i, g1: __m256i) -> (__m256i, __m256i) {
    let mut hlo = _mm256_set1_epi32(seed as u32 as i32);
    let mut hhi = _mm256_set1_epi32(((seed >> 32) as u32 ^ 0x9e37_79b9) as i32);
    let ff = _mm256_set1_epi64x(0xff);
    macro_rules! mixbyte {
        ($h:ident, $bytes:expr) => {
            $h = _mm256_add_epi32($h, $bytes);
            $h = _mm256_add_epi32($h, _mm256_slli_epi32::<10>($h));
            $h = _mm256_xor_si256($h, _mm256_srli_epi32::<6>($h));
        };
    }
    for (v0, v1) in [(s0, s1), (g0, g1)] {
        for i in 0..8 {
            let cnt = _mm_cvtsi32_si128(8 * i);
            let b0 = _mm256_and_si256(_mm256_srl_epi64(v0, cnt), ff);
            let b1 = _mm256_and_si256(_mm256_srl_epi64(v1, cnt), ff);
            let (bytes, _) = split_lo_hi(b0, b1);
            mixbyte!(hlo, bytes);
            mixbyte!(hhi, bytes);
        }
    }
    macro_rules! avalanche {
        ($h:ident) => {
            $h = _mm256_add_epi32($h, _mm256_slli_epi32::<3>($h));
            $h = _mm256_xor_si256($h, _mm256_srli_epi32::<11>($h));
            $h = _mm256_add_epi32($h, _mm256_slli_epi32::<15>($h));
        };
    }
    avalanche!(hlo);
    avalanche!(hhi);
    (hhi, hlo)
}

pub(crate) fn oaat_batch_avx2(
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n8 = states.len() - states.len() % 8;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n8]` only.
    unsafe { oaat_batch_inner(seed, states, segments, out, n8) };
    n8
}

#[target_feature(enable = "avx2")]
unsafe fn oaat_batch_inner(
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
    n8: usize,
) {
    for i in (0..n8).step_by(8) {
        let (s0, s1) = load8(states.as_ptr().add(i));
        let (g0, g1) = load8(segments.as_ptr().add(i));
        let (hi, lo) = oaat_core8(seed, s0, s1, g0, g1);
        let (o0, o1) = merge_hi_lo(hi, lo);
        store8(out.as_mut_ptr().add(i), o0, o1);
    }
}

pub(crate) fn oaat_fixed_state_avx2(
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n8 = segments.len() - segments.len() % 8;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n8]` only.
    unsafe { oaat_fixed_state_inner(seed, state, segments, out, n8) };
    n8
}

#[target_feature(enable = "avx2")]
unsafe fn oaat_fixed_state_inner(
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
    n8: usize,
) {
    let s = _mm256_set1_epi64x(state as i64);
    for i in (0..n8).step_by(8) {
        let (g0, g1) = load8(segments.as_ptr().add(i));
        let (hi, lo) = oaat_core8(seed, s, s, g0, g1);
        let (o0, o1) = merge_hi_lo(hi, lo);
        store8(out.as_mut_ptr().add(i), o0, o1);
    }
}

pub(crate) fn oaat_fixed_segment_avx2(
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n8 = states.len() - states.len() % 8;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n8]` only.
    unsafe { oaat_fixed_segment_inner(seed, states, segment, out, n8) };
    n8
}

#[target_feature(enable = "avx2")]
unsafe fn oaat_fixed_segment_inner(
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
    n8: usize,
) {
    let g = _mm256_set1_epi64x(segment as i64);
    for i in (0..n8).step_by(8) {
        let (s0, s1) = load8(states.as_ptr().add(i));
        let (hi, lo) = oaat_core8(seed, s0, s1, g, g);
        let (o0, o1) = merge_hi_lo(hi, lo);
        store8(out.as_mut_ptr().add(i), o0, o1);
    }
}

// ---------------------------------------------------------------------
// splitmix: 4 u64 lanes with emulated 64-bit multiplies
// ---------------------------------------------------------------------

const SM_GOLD: u64 = 0x9e37_79b9_7f4a_7c15;
const SM_M1: u64 = 0xbf58_476d_1ce4_e5b9;
const SM_M2: u64 = 0x94d0_49bb_1331_11eb;

/// `x.wrapping_mul(y)` per u64 lane (AVX2 has only 32×32→64 multiplies).
#[target_feature(enable = "avx2")]
fn mul64(x: __m256i, y: u64) -> __m256i {
    let yv = _mm256_set1_epi64x(y as i64);
    let yh = _mm256_set1_epi64x((y >> 32) as i64);
    let lo = _mm256_mul_epu32(x, yv);
    let c1 = _mm256_mul_epu32(_mm256_srli_epi64::<32>(x), yv);
    let c2 = _mm256_mul_epu32(x, yh);
    _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(_mm256_add_epi64(c1, c2)))
}

/// Four lanes of Stafford's Mix13 finalizer.
#[target_feature(enable = "avx2")]
fn mix64x4v(mut z: __m256i) -> __m256i {
    z = _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z));
    z = mul64(z, SM_M1);
    z = _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z));
    z = mul64(z, SM_M2);
    _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
}

pub(crate) fn splitmix_batch_avx2(
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n4 = states.len() - states.len() % 4;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n4]` only.
    unsafe { splitmix_batch_inner(seed, states, segments, out, n4) };
    n4
}

#[target_feature(enable = "avx2")]
unsafe fn splitmix_batch_inner(
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
    n4: usize,
) {
    let gold = _mm256_set1_epi64x(SM_GOLD as i64);
    for i in (0..n4).step_by(4) {
        let s = _mm256_loadu_si256(states.as_ptr().add(i).cast());
        let g = _mm256_loadu_si256(segments.as_ptr().add(i).cast());
        let seg = mix64x4v(mul64(_mm256_add_epi64(g, gold), seed | 1));
        let r = mix64x4v(_mm256_xor_si256(s, seg));
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), r);
    }
}

pub(crate) fn splitmix_fixed_state_avx2(
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n4 = segments.len() - segments.len() % 4;
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n4]` only.
    unsafe { splitmix_fixed_state_inner(seed, state, segments, out, n4) };
    n4
}

#[target_feature(enable = "avx2")]
unsafe fn splitmix_fixed_state_inner(
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
    n4: usize,
) {
    let gold = _mm256_set1_epi64x(SM_GOLD as i64);
    let s = _mm256_set1_epi64x(state as i64);
    for i in (0..n4).step_by(4) {
        let g = _mm256_loadu_si256(segments.as_ptr().add(i).cast());
        let seg = mix64x4v(mul64(_mm256_add_epi64(g, gold), seed | 1));
        let r = mix64x4v(_mm256_xor_si256(s, seg));
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), r);
    }
}

pub(crate) fn splitmix_fixed_segment_avx2(
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    let n4 = states.len() - states.len() % 4;
    // The per-segment premix is segment-only: hoist it as a scalar,
    // through the one canonical Mix13 implementation.
    let seg = crate::hash::SplitMix::mix64(segment.wrapping_add(SM_GOLD).wrapping_mul(seed | 1));
    // SAFETY: AVX2 checked; the inner loop reads/writes `[..n4]` only.
    unsafe { splitmix_fixed_segment_inner(seg, states, out, n4) };
    n4
}

#[target_feature(enable = "avx2")]
unsafe fn splitmix_fixed_segment_inner(seg: u64, states: &[u64], out: &mut [u64], n4: usize) {
    let segv = _mm256_set1_epi64x(seg as i64);
    for i in (0..n4).step_by(4) {
        let s = _mm256_loadu_si256(states.as_ptr().add(i).cast());
        let r = mix64x4v(_mm256_xor_si256(s, segv));
        _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), r);
    }
}
