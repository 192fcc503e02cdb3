//! Runtime-dispatched SIMD kernels for the decode hot loops.
//!
//! Three inner loops of the beam decoder run here. Two are pure integer
//! arithmetic — the batched spine-hash sweeps ([`crate::hash`]) and the
//! per-block XOR+popcount mask collapse on packed-bit channels
//! ([`crate::decode::beam`]) — so a vectorized implementation is
//! **bit-identical** to the scalar one by construction: wrapping adds,
//! shifts, XORs and popcounts have exactly one answer. The third, the
//! generic row scoring (`row_costs`), is floating point: one safe
//! body that runs the same IEEE-754 operations per child in the same
//! order on every tier (no FMA contraction, no reassociation), so it is
//! bit-identical too; only which children share an instruction differs.
//! This module selects the widest kernel the running CPU supports *at
//! runtime* (`std::arch` feature detection; no compile-time
//! `target-cpu` flags needed) and falls back to the scalar paths
//! everywhere else.
//!
//! | kernel | AVX2 (x86_64) | SSE2 (x86_64) | NEON (aarch64) | scalar |
//! |---|---|---|---|---|
//! | row scoring (generic costs) | 4 children/vector | baseline body | baseline body | baseline body |
//! | packed-bit mask collapse | 4 children/iter | 2 children/iter | 2 children/iter | ✓ |
//! | `lookup3` batch lanes | 8 lanes | — | — | 4-lane ILP |
//! | `one-at-a-time` batch lanes | 8 lanes | — | — | 4-lane ILP |
//! | `splitmix` batch lanes | 4 lanes | — | — | 4-lane ILP |
//!
//! ("—" means that tier uses the scalar 4-lane ILP kernel; SipHash-2-4
//! stays scalar everywhere: its 64-bit rotate chain gains little below
//! AVX-512. "Baseline body" is the row-scoring body compiled for the
//! build's baseline target, which the compiler vectorizes with SSE2 or
//! NEON.)
//!
//! The chosen tier is reported in
//! [`DecodeStats::kernel_dispatch`](crate::decode::DecodeStats) and the
//! bench JSON artifacts, and every tier available on the running machine
//! is cross-checked against the scalar path by the `bench_beam_decode
//! --quick` CI step and the property tests in this module and
//! [`crate::hash`].
//!
//! This is the only module in the crate allowed to contain `unsafe`
//! (the crate is `#![deny(unsafe_code)]`): all of it is calls into
//! `#[target_feature]` functions — `core::arch` intrinsics or the safe
//! row-scoring body — behind runtime feature checks, with slice bounds
//! handled by the safe wrappers in this file.

use crate::decode::batch::{self, ObsRead, PackedMask};
use crate::decode::cost::CostModel;
use crate::decode::select::cost_key;
use crate::map::Mapper;

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

/// Which SIMD tier a decode ran its kernels on. Every tier is
/// bit-identical; the variant is diagnostic (reported in
/// [`DecodeStats`](crate::decode::DecodeStats) and the bench JSON) and a
/// bench/test override point
/// ([`BeamDecoder::with_kernel_dispatch`](crate::decode::BeamDecoder::with_kernel_dispatch)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelDispatch {
    /// Portable scalar Rust (the reference tier, available everywhere).
    #[default]
    Scalar,
    /// x86_64 SSE2 (baseline on every x86_64 CPU).
    Sse2,
    /// x86_64 AVX2, selected when the running CPU reports it.
    Avx2,
    /// AArch64 Advanced SIMD (baseline on every aarch64 CPU).
    Neon,
}

impl KernelDispatch {
    /// The widest tier the running CPU supports, detected once per
    /// process and cached.
    pub fn detect() -> Self {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<KernelDispatch> = OnceLock::new();
        *DETECTED.get_or_init(Self::detect_uncached)
    }

    #[cfg(target_arch = "x86_64")]
    fn detect_uncached() -> Self {
        if std::arch::is_x86_feature_detected!("avx2") {
            KernelDispatch::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            KernelDispatch::Sse2
        }
    }

    #[cfg(target_arch = "aarch64")]
    fn detect_uncached() -> Self {
        // Advanced SIMD is part of the aarch64 baseline.
        KernelDispatch::Neon
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn detect_uncached() -> Self {
        KernelDispatch::Scalar
    }

    /// Every tier the running machine can execute, narrowest first —
    /// the list the CI bit-identity self-check sweeps.
    pub fn supported() -> Vec<Self> {
        let mut tiers = vec![KernelDispatch::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(KernelDispatch::Sse2);
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(KernelDispatch::Avx2);
            }
        }
        #[cfg(target_arch = "aarch64")]
        tiers.push(KernelDispatch::Neon);
        tiers
    }

    /// Short stable name for logs and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Sse2 => "sse2",
            KernelDispatch::Avx2 => "avx2",
            KernelDispatch::Neon => "neon",
        }
    }
}

impl std::fmt::Display for KernelDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Largest integer path cost the vectorized i32→f64 conversion handles;
/// rows whose parent cost exceeds it (or is fractional) take the scalar
/// f64 path. Far above any realistic Hamming path cost.
const PACKED_INT_COST_MAX: f64 = (1u64 << 30) as f64;

/// Collapses one expansion row's packed-bit level cost: for every child
/// `c` of the row, `errs(c) = Σ_m popcount((blocks[m.pos·n + c] ^ m.obs)
/// & m.sel)`, then writes the order-preserving key of
/// `cost = parent_cost + errs`. The key-only frontier stores no `f64`
/// costs — the float exists only in-register during the exact integer →
/// f64 conversion. Packed costs are small exact integers, so the whole
/// accumulation runs in integer arithmetic end-to-end on every tier and
/// the key it materializes is bit-identical to the scalar
/// per-observation loop's.
pub(crate) fn packed_row_costs(
    dispatch: KernelDispatch,
    blocks: &[u64],
    n: usize,
    masks: &[PackedMask],
    parent_cost: f64,
    out_keys: &mut [u64],
) {
    debug_assert_eq!(out_keys.len(), n);
    debug_assert!(blocks.len() >= masks.iter().map(|m| m.pos as usize + 1).max().unwrap_or(0) * n);
    // The SIMD tiers accumulate the parent cost as an integer; bail to
    // scalar when it is not one (possible only with exotic custom cost
    // models — every packed level's own contribution is integral).
    let integral = (0.0..=PACKED_INT_COST_MAX).contains(&parent_cost)
        && parent_cost == (parent_cost as u64) as f64;
    let done = match (dispatch, integral) {
        #[cfg(target_arch = "x86_64")]
        (KernelDispatch::Avx2, true) => {
            x86::packed_rows_avx2(blocks, n, masks, parent_cost as u64, out_keys)
        }
        #[cfg(target_arch = "x86_64")]
        (KernelDispatch::Sse2, true) => {
            x86::packed_rows_sse2(blocks, n, masks, parent_cost as u64, out_keys)
        }
        #[cfg(target_arch = "aarch64")]
        (KernelDispatch::Neon, true) => {
            neon::packed_rows_neon(blocks, n, masks, parent_cost as u64, out_keys)
        }
        _ => 0,
    };
    packed_rows_scalar(blocks, n, masks, parent_cost, &mut out_keys[done..], done);
}

/// The scalar reference tier of [`packed_row_costs`], starting at child
/// column `first` (the SIMD tiers hand it their remainder columns).
fn packed_rows_scalar(
    blocks: &[u64],
    n: usize,
    masks: &[PackedMask],
    parent_cost: f64,
    out_keys: &mut [u64],
    first: usize,
) {
    for (i, slot_k) in out_keys.iter_mut().enumerate() {
        let c = first + i;
        let mut errs = 0u32;
        for m in masks {
            let block = blocks[m.pos as usize * n + c];
            errs += ((block ^ m.obs) & m.sel).count_ones();
        }
        *slot_k = cost_key(parent_cost + f64::from(errs));
    }
}

/// Scores one expansion row's generic (non-packed) level cost into
/// `out_keys`: [`batch::score_row`]'s observation-major loop, compiled
/// for the AVX2 tier when the dispatch selects it and for the build's
/// baseline otherwise (scalar, SSE2 and NEON run that one body). Every
/// tier executes the same IEEE-754 operations per child in the same
/// order, so the keys are bit-identical across tiers.
#[allow(clippy::too_many_arguments, unused_variables)]
pub(crate) fn row_costs<M: Mapper, C: CostModel<M::Symbol>>(
    dispatch: KernelDispatch,
    mapper: &M,
    cost: &C,
    blocks: &[u64],
    reads: &[ObsRead],
    level_obs: &[(u32, M::Symbol)],
    parent_cost: f64,
    out_keys: &mut [u64],
) {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2
        && x86::row_costs_avx2(
            mapper,
            cost,
            blocks,
            reads,
            level_obs,
            parent_cost,
            out_keys,
        )
    {
        return;
    }
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

/// `lookup3` element-wise batch (`out[i] = hash(states[i], segments[i])`)
/// on the given tier. Returns how many leading elements were processed
/// (0 when the tier has no kernel for this family); the caller finishes
/// the remainder on the scalar path.
#[allow(unused_variables)]
pub(crate) fn lookup3_batch(
    dispatch: KernelDispatch,
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::lookup3_batch_avx2(seed, states, segments, out);
    }
    0
}

/// `lookup3` broadcast-state batch on the given tier; see
/// [`lookup3_batch`] for the contract.
#[allow(unused_variables)]
pub(crate) fn lookup3_fixed_state(
    dispatch: KernelDispatch,
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::lookup3_fixed_state_avx2(seed, state, segments, out);
    }
    0
}

/// `lookup3` broadcast-segment batch on the given tier; see
/// [`lookup3_batch`] for the contract.
#[allow(unused_variables)]
pub(crate) fn lookup3_fixed_segment(
    dispatch: KernelDispatch,
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::lookup3_fixed_segment_avx2(seed, states, segment, out);
    }
    0
}

/// `one-at-a-time` element-wise batch; see [`lookup3_batch`] for the
/// contract.
#[allow(unused_variables)]
pub(crate) fn oaat_batch(
    dispatch: KernelDispatch,
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::oaat_batch_avx2(seed, states, segments, out);
    }
    0
}

/// `one-at-a-time` broadcast-state batch; see [`lookup3_batch`] for the
/// contract.
#[allow(unused_variables)]
pub(crate) fn oaat_fixed_state(
    dispatch: KernelDispatch,
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::oaat_fixed_state_avx2(seed, state, segments, out);
    }
    0
}

/// `one-at-a-time` broadcast-segment batch; see [`lookup3_batch`] for
/// the contract.
#[allow(unused_variables)]
pub(crate) fn oaat_fixed_segment(
    dispatch: KernelDispatch,
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::oaat_fixed_segment_avx2(seed, states, segment, out);
    }
    0
}

/// `splitmix` element-wise batch; see [`lookup3_batch`] for the
/// contract.
#[allow(unused_variables)]
pub(crate) fn splitmix_batch(
    dispatch: KernelDispatch,
    seed: u64,
    states: &[u64],
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::splitmix_batch_avx2(seed, states, segments, out);
    }
    0
}

/// `splitmix` broadcast-state batch (the decoder's child-row sweep);
/// see [`lookup3_batch`] for the contract.
#[allow(unused_variables)]
pub(crate) fn splitmix_fixed_state(
    dispatch: KernelDispatch,
    seed: u64,
    state: u64,
    segments: &[u64],
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::splitmix_fixed_state_avx2(seed, state, segments, out);
    }
    0
}

/// `splitmix` broadcast-segment batch (the decoder's block fill: the
/// per-segment premix is hoisted out of the loop); see
/// [`lookup3_batch`] for the contract.
#[allow(unused_variables)]
pub(crate) fn splitmix_fixed_segment(
    dispatch: KernelDispatch,
    seed: u64,
    states: &[u64],
    segment: u64,
    out: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if dispatch == KernelDispatch::Avx2 {
        return x86::splitmix_fixed_segment_avx2(seed, states, segment, out);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::AwgnCost;
    use crate::map::LinearMapper;
    use crate::symbol::IqSymbol;
    use proptest::prelude::*;

    fn masks_from(pairs: &[(u32, u64, u64)]) -> Vec<PackedMask> {
        pairs
            .iter()
            .map(|&(pos, sel, obs)| PackedMask {
                pos,
                sel,
                obs: obs & sel,
            })
            .collect()
    }

    /// Every supported tier's packed collapse is bit-identical to the
    /// scalar tier, for every row width (covering SIMD remainders).
    #[test]
    fn packed_rows_all_tiers_match_scalar() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 63, 256] {
            let masks = masks_from(&[
                (0, u64::MAX, 0xdead_beef_0bad_f00d),
                (1, 0xffff_0000_ffff_0000, 0x1234_0000_abcd_0000),
            ]);
            let blocks: Vec<u64> = (0..2 * n as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13))
                .collect();
            let mut ref_keys = vec![0u64; n];
            packed_row_costs(
                KernelDispatch::Scalar,
                &blocks,
                n,
                &masks,
                7.0,
                &mut ref_keys,
            );
            for tier in KernelDispatch::supported() {
                let mut keys = vec![0u64; n];
                packed_row_costs(tier, &blocks, n, &masks, 7.0, &mut keys);
                for c in 0..n {
                    assert_eq!(keys[c], ref_keys[c], "{tier} n={n} c={c}");
                }
            }
        }
    }

    /// A fractional parent cost must fall back to the (bit-identical)
    /// scalar f64 path on every tier.
    #[test]
    fn packed_rows_fractional_parent_cost() {
        let n = 8;
        let masks = masks_from(&[(0, u64::MAX, 0x5555_5555_5555_5555)]);
        let blocks: Vec<u64> = (0..n as u64).map(|i| i * 0x0101_0101).collect();
        for tier in KernelDispatch::supported() {
            let mut keys = vec![0u64; n];
            packed_row_costs(tier, &blocks, n, &masks, 2.25, &mut keys);
            for c in 0..n {
                let errs = (blocks[c] ^ 0x5555_5555_5555_5555).count_ones();
                assert_eq!(keys[c], cost_key(2.25 + f64::from(errs)), "{tier} c={c}");
            }
        }
    }

    /// The child-at-a-time reference for [`row_costs`]: each child's
    /// cost accumulated observation by observation, its windows read
    /// from the row's block-major cache gathered back into a per-child
    /// one.
    fn child_major_keys(
        mapper: &LinearMapper,
        blocks: &[u64],
        n: usize,
        reads: &[ObsRead],
        level_obs: &[(u32, IqSymbol)],
        parent_cost: f64,
    ) -> Vec<u64> {
        let n_blocks = blocks.len() / n;
        (0..n)
            .map(|c| {
                let own: Vec<u64> = (0..n_blocks).map(|b| blocks[b * n + c]).collect();
                let mut acc = parent_cost;
                for (r, &(_, observed)) in reads.iter().zip(level_obs) {
                    acc += AwgnCost.cost(observed, mapper.map(batch::read_obs(&own, r)));
                }
                cost_key(acc)
            })
            .collect()
    }

    #[test]
    fn detect_is_supported_and_stable() {
        let d = KernelDispatch::detect();
        assert_eq!(d, KernelDispatch::detect());
        assert!(KernelDispatch::supported().contains(&d));
        assert!(!d.as_str().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Observation-major row scoring equals the child-major loop bit
        /// for bit on every tier: rows of 2–64 children, 1–4
        /// observations (repeated passes included), symbol widths whose
        /// reads straddle blocks (`c = 10`) or align (`c = 8`), random
        /// received points and parent costs.
        #[test]
        fn prop_row_costs_tiers_match_child_major(
            c in 2u32..=16,
            k in 1u32..=6,
            passes in proptest::collection::vec(0u32..12, 1..=4),
            parent in 0.0f64..500.0,
            salt in any::<u64>(),
            noise in any::<u64>(),
        ) {
            let mapper = LinearMapper::new(c);
            let n = 1usize << k;
            let (mut block_ids, mut reads) = (Vec::new(), Vec::new());
            batch::plan_level(passes.iter().copied(), mapper.bits_per_symbol(), &mut block_ids, &mut reads);
            let blocks: Vec<u64> = (0..(block_ids.len() * n) as u64)
                .map(|i| (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left((i % 61) as u32))
                .collect();
            let level_obs: Vec<(u32, IqSymbol)> = passes
                .iter()
                .enumerate()
                .map(|(j, &pass)| {
                    let z = noise.rotate_left(13 * j as u32);
                    let jitter = |w: u64| (w & 0xffff) as f64 / 65536.0 - 0.5;
                    let hyp = mapper.map(z >> 7);
                    (pass, IqSymbol::new(hyp.i + jitter(z), hyp.q + jitter(z >> 16)))
                })
                .collect();
            let want = child_major_keys(&mapper, &blocks, n, &reads, &level_obs, parent);
            for tier in KernelDispatch::supported() {
                let mut keys = vec![0u64; n];
                row_costs(tier, &mapper, &AwgnCost, &blocks, &reads, &level_obs, parent, &mut keys);
                prop_assert_eq!(&keys, &want);
            }
        }

        /// Random blocks/masks/widths: all tiers agree bit-for-bit.
        #[test]
        fn prop_packed_rows_tiers_agree(
            n in 1usize..40,
            sel in any::<u64>(),
            obs in any::<u64>(),
            base in 0u64..1_000_000,
            salt in any::<u64>(),
        ) {
            let masks = masks_from(&[(0, sel, obs), (1, !sel, obs.rotate_left(7))]);
            let blocks: Vec<u64> = (0..2 * n as u64)
                .map(|i| i.wrapping_mul(salt | 1).rotate_left((i % 63) as u32))
                .collect();
            let parent = base as f64;
            let mut ref_keys = vec![0u64; n];
            packed_row_costs(KernelDispatch::Scalar, &blocks, n, &masks, parent, &mut ref_keys);
            for tier in KernelDispatch::supported() {
                let mut keys = vec![0u64; n];
                packed_row_costs(tier, &blocks, n, &masks, parent, &mut keys);
                for c in 0..n {
                    prop_assert_eq!(keys[c], ref_keys[c]);
                }
            }
        }
    }
}
