//! Shared hash-block batching for the tree decoders.
//!
//! Every observation at tree level `t` reads its symbol bits out of the
//! *same* few 64-bit expansion blocks of the candidate child spine
//! (`expand`: block `j` of spine `s` is `H(s, EXPAND_SALT + j)`). The
//! naive decoder calls [`crate::expand::expand_bits`] once or twice per
//! `(child, observation)` pair, re-hashing blocks that several
//! observations share. This module plans a level once — the distinct
//! block indices any observation touches, and a per-observation read
//! descriptor into that block cache — so each child hashes each distinct
//! block exactly once no matter how many observations the level has.
//!
//! Used by both the beam decoder ([`crate::decode::beam`]) and the ML
//! decoder ([`crate::decode::ml`]).

use crate::decode::cost::CostModel;
use crate::decode::select::cost_key;
use crate::expand::{read_window, window_straddles, EXPAND_SALT};
use crate::hash::SpineHash;
use crate::map::Mapper;

/// How one observation's symbol bits sit inside the level's block cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ObsRead {
    /// Cache position of the block holding the first bit.
    lo: u32,
    /// Cache position of the block holding the last bit (== `lo` unless
    /// the read straddles a block boundary).
    hi: u32,
    /// Bit offset of the read inside the first block.
    offset: u32,
    /// Number of bits read (`bits_per_symbol`, 1..=64).
    count: u32,
}

impl ObsRead {
    /// `true` when the read spans two expansion blocks.
    #[cfg(test)]
    pub(crate) fn straddles(&self) -> bool {
        self.lo != self.hi
    }
}

/// Plans one tree level: fills `block_ids` with the sorted, deduplicated
/// *salted* expansion-block segments (`EXPAND_SALT + index`) needed by
/// any observation, and `reads` with one descriptor per observation (in
/// observation order) pointing into that cache. Storing the salt in the
/// plan lets the fill step hand the ids straight to the batched hash
/// entry points. Both vectors are cleared first and reused across calls,
/// so steady-state planning allocates nothing.
pub(crate) fn plan_level(
    passes: impl Iterator<Item = u32> + Clone,
    bits_per_symbol: u32,
    block_ids: &mut Vec<u64>,
    reads: &mut Vec<ObsRead>,
) {
    debug_assert!((1..=64).contains(&bits_per_symbol));
    block_ids.clear();
    reads.clear();
    for pass in passes.clone() {
        let start = u64::from(pass) * u64::from(bits_per_symbol);
        let first = start / 64;
        let last = (start + u64::from(bits_per_symbol) - 1) / 64;
        block_ids.push(EXPAND_SALT + first);
        if last != first {
            block_ids.push(EXPAND_SALT + last);
        }
    }
    block_ids.sort_unstable();
    block_ids.dedup();
    for pass in passes {
        let start = u64::from(pass) * u64::from(bits_per_symbol);
        let first = start / 64;
        let last = (start + u64::from(bits_per_symbol) - 1) / 64;
        let pos = |b: u64| {
            block_ids
                .binary_search(&(EXPAND_SALT + b))
                .expect("planned block") as u32
        };
        reads.push(ObsRead {
            lo: pos(first),
            hi: pos(last),
            offset: (start % 64) as u32,
            count: bits_per_symbol,
        });
    }
}

/// Hashes the planned blocks of `spine` into `blocks` (the level's block
/// cache), one batched hash call over the distinct salted ids.
/// `blocks.len()` must equal `block_ids.len()`; the cost is one hash
/// invocation per *distinct* block, however many observations share it.
#[inline]
pub(crate) fn fill_blocks<H: SpineHash>(
    hash: &H,
    spine: u64,
    block_ids: &[u64],
    blocks: &mut [u64],
) {
    debug_assert_eq!(block_ids.len(), blocks.len());
    hash.hash_batch_fixed_state(spine, block_ids, blocks);
}

/// Fills the block cache for a whole *run of sibling spines* at once, in
/// block-major layout: `blocks[b * spines.len() + c]` is salted block
/// `block_ids[b]` of `spines[c]`. Each distinct block is one
/// [`SpineHash::hash_batch_fixed_segment`] sweep over the run — the
/// beam decoder's expansion loop batches a parent's entire child row
/// this way.
#[inline]
pub(crate) fn fill_blocks_for_spines<H: SpineHash>(
    hash: &H,
    spines: &[u64],
    block_ids: &[u64],
    blocks: &mut [u64],
) {
    debug_assert_eq!(block_ids.len() * spines.len(), blocks.len());
    for (row, &id) in blocks.chunks_exact_mut(spines.len().max(1)).zip(block_ids) {
        hash.hash_batch_fixed_segment(spines, id, row);
    }
}

/// One expansion block's packed observations on a 1-bit channel:
/// `sel` marks the stream bits observed at this level inside block
/// `block_ids[pos]`, `obs` carries the received bits at those positions.
/// A child's level cost is `Σ popcount((block ^ obs) & sel)` — the
/// whole per-observation Hamming loop in two ALU ops per block. Exact:
/// every packed cost is a small integer, so the `f64` sum is identical
/// to per-observation accumulation in any order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedMask {
    /// Cache position (index into `block_ids`).
    pub pos: u32,
    /// Selector: which bits of the block are observed.
    pub sel: u64,
    /// Observed bits, aligned with `sel`.
    pub obs: u64,
}

/// Builds the packed per-block masks for a 1-bit-per-symbol level out of
/// `(pass, observed bit)` pairs. Returns `false` (leaving `out` empty)
/// when a stream bit is observed more than once — popcount would count
/// the duplicate once where the per-observation loop counts it twice, so
/// such levels take the generic path.
pub(crate) fn plan_packed_level(
    obs_bits: impl Iterator<Item = (u32, u8)>,
    block_ids: &[u64],
    out: &mut Vec<PackedMask>,
) -> bool {
    out.clear();
    for (pass, bit) in obs_bits {
        let id = EXPAND_SALT + u64::from(pass) / 64;
        let pos = block_ids.binary_search(&id).expect("planned block") as u32;
        let mask = 1u64 << (63 - (pass % 64));
        let entry = match out.iter_mut().find(|m| m.pos == pos) {
            Some(m) => m,
            None => {
                out.push(PackedMask {
                    pos,
                    sel: 0,
                    obs: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        if entry.sel & mask != 0 {
            out.clear();
            return false;
        }
        entry.sel |= mask;
        if bit & 1 == 1 {
            entry.obs |= mask;
        }
    }
    true
}

/// Scores one parent's child row against a level, observation-major:
/// child `c`'s cost starts at `parent_cost`, and each observation in
/// turn reads its symbol bits for every child of the row out of the
/// block-major cache filled by [`fill_blocks_for_spines`], maps them and
/// adds its branch cost; then `out_keys[c]` becomes the cost's key.
/// The key slots double as the row's `f64` accumulator (as raw bits), so
/// scoring needs no buffer of its own.
///
/// Each child gets the same IEEE-754 operations in the same order as a
/// child-at-a-time loop (parent cost, then observation 0, 1, …; Rust
/// never contracts to FMA or reassociates), so the keys are
/// bit-identical to it — only the loop order across children changes,
/// which lets each observation's map + cost run in SIMD lanes. The
/// kernel tiers compile this one body per instruction set
/// ([`crate::kernels::row_costs`]).
#[inline(always)]
pub(crate) fn score_row<M: Mapper, C: CostModel<M::Symbol>>(
    mapper: &M,
    cost: &C,
    blocks: &[u64],
    reads: &[ObsRead],
    level_obs: &[(u32, M::Symbol)],
    parent_cost: f64,
    out_keys: &mut [u64],
) {
    let n = out_keys.len();
    out_keys.fill(parent_cost.to_bits());
    for (r, &(_, observed)) in reads.iter().zip(level_obs) {
        let (offset, count) = (r.offset, r.count);
        let lo = &blocks[r.lo as usize * n..][..n];
        let add = |acc: &mut u64, bits: u64| {
            let sum = f64::from_bits(*acc) + cost.cost(observed, mapper.map(bits));
            *acc = sum.to_bits();
        };
        // One loop per window shape: inside each, `read_window`'s own
        // straddle test is already decided, so the body is branch-free.
        if window_straddles(offset, count) {
            let hi = &blocks[r.hi as usize * n..][..n];
            for ((acc, &b0), &b1) in out_keys.iter_mut().zip(lo).zip(hi) {
                add(acc, read_window(b0, b1, offset, count));
            }
        } else {
            for (acc, &b0) in out_keys.iter_mut().zip(lo) {
                add(acc, read_window(b0, b0, offset, count));
            }
        }
    }
    for k in out_keys.iter_mut() {
        *k = cost_key(f64::from_bits(*k));
    }
}

/// Reads one observation's symbol bits out of the filled block cache.
/// Bit-identical to [`crate::expand::expand_bits`] over the same stream.
#[inline]
pub(crate) fn read_obs(blocks: &[u64], r: &ObsRead) -> u64 {
    read_window(
        blocks[r.lo as usize],
        blocks[r.hi as usize],
        r.offset,
        r.count,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::symbol_bits;
    use crate::hash::{Lookup3, SplitMix};
    use proptest::prelude::*;

    fn check_plan_matches_expand(passes: &[u32], bps: u32, spine: u64) {
        let h = Lookup3::new(17);
        let mut ids = Vec::new();
        let mut reads = Vec::new();
        plan_level(passes.iter().copied(), bps, &mut ids, &mut reads);
        let mut blocks = vec![0u64; ids.len()];
        fill_blocks(&h, spine, &ids, &mut blocks);
        for (r, &pass) in reads.iter().zip(passes) {
            assert_eq!(
                read_obs(&blocks, r),
                symbol_bits(&h, spine, pass, bps),
                "pass {pass} bps {bps}"
            );
        }
    }

    #[test]
    fn cached_reads_match_expand_bits() {
        check_plan_matches_expand(&[0, 1, 2, 3], 20, 0xdead_beef);
        check_plan_matches_expand(&[0, 5, 999], 20, 42);
        check_plan_matches_expand(&[7, 7, 7], 1, 1);
        check_plan_matches_expand(&[0], 64, 3);
        check_plan_matches_expand(&[1, 3], 64, 3);
    }

    #[test]
    fn blocks_are_deduplicated() {
        // bps = 20: passes 0..=2 all fit in blocks 0 and 1.
        let mut ids = Vec::new();
        let mut reads = Vec::new();
        plan_level([0u32, 1, 2].into_iter(), 20, &mut ids, &mut reads);
        assert_eq!(ids, vec![EXPAND_SALT]);
        assert_eq!(reads.len(), 3);
        // Pass 3 (bits 60..80) straddles into block 1.
        plan_level([0u32, 1, 2, 3].into_iter(), 20, &mut ids, &mut reads);
        assert_eq!(ids, vec![EXPAND_SALT, EXPAND_SALT + 1]);
        assert!(reads[3].straddles());
    }

    #[test]
    fn sparse_passes_hash_only_touched_blocks() {
        // Passes {0, 999} at bps = 32 touch blocks {0, 499} — the cache
        // must hold exactly those two, not the whole 0..=499 range.
        let mut ids = Vec::new();
        let mut reads = Vec::new();
        plan_level([0u32, 999].into_iter(), 32, &mut ids, &mut reads);
        assert_eq!(ids, vec![EXPAND_SALT, EXPAND_SALT + 499]);
    }

    #[test]
    fn spine_run_cache_matches_per_spine_cache() {
        // The block-major run cache must read back exactly what the
        // per-spine cache (and expand_bits) produce, for every sibling.
        let h = Lookup3::new(23);
        let spines: Vec<u64> = (0..13).map(|i| 0x1000 + i * 7).collect();
        let passes = [0u32, 3, 7];
        let bps = 20;
        let mut ids = Vec::new();
        let mut reads = Vec::new();
        plan_level(passes.iter().copied(), bps, &mut ids, &mut reads);
        let mut run = vec![0u64; ids.len() * spines.len()];
        fill_blocks_for_spines(&h, &spines, &ids, &mut run);
        for (c, &spine) in spines.iter().enumerate() {
            for (r, &pass) in reads.iter().zip(&passes) {
                let n = spines.len();
                let (b0, b1) = (run[r.lo as usize * n + c], run[r.hi as usize * n + c]);
                assert_eq!(
                    read_window(b0, b1, r.offset, r.count),
                    symbol_bits(&h, spine, pass, bps),
                    "spine {c} pass {pass}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_cached_reads_match_expand_bits(
            passes in proptest::collection::vec(0u32..2000, 1..8),
            bps in 1u32..=64,
            spine in any::<u64>(),
        ) {
            let h = SplitMix::new(5);
            let mut ids = Vec::new();
            let mut reads = Vec::new();
            plan_level(passes.iter().copied(), bps, &mut ids, &mut reads);
            let mut blocks = vec![0u64; ids.len()];
            fill_blocks(&h, spine, &ids, &mut blocks);
            for (r, &pass) in reads.iter().zip(&passes) {
                prop_assert_eq!(read_obs(&blocks, r), symbol_bits(&h, spine, pass, bps));
            }
        }
    }
}
