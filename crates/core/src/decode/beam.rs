//! The practical "graceful scale-down" beam decoder (§3.2).
//!
//! The ideal ML decoder expands the full decoding tree (2ⁿ leaves); the
//! practical decoder "maintains no more than B nodes" per level: it
//! expands each retained node to its `2^k` children, accumulates the
//! cumulative path cost against every observation at that level, and
//! keeps the `B` lowest-cost nodes (ties broken arbitrarily). As `B`
//! grows the achieved rate approaches capacity; complexity is linear in
//! message length — `O(L · (n/k) · B · 2^k)` cost evaluations.
//!
//! Two refinements beyond the paper's two-paragraph sketch, both needed
//! for the punctured rateless operation its Figure 2 relies on
//! (DESIGN.md §2.4–2.5):
//!
//! * **Unobserved levels.** Under puncturing a decode attempt may find
//!   *no* observations at some tree level; every child then ties with its
//!   parent's cost and pruning to `B` would pick arbitrarily (losing the
//!   true path with probability `≈ 1 − B/2^k` per gap). When
//!   [`BeamConfig::defer_prune_unobserved`] is set (default), the decoder
//!   instead carries the whole frontier across such levels — bounded by
//!   [`BeamConfig::max_frontier`] — and lets the next observed level do
//!   the pruning. This is what lets rates exceed `k` bits/symbol at high
//!   SNR.
//! * **Tail segments.** Levels past the message carry known zero
//!   segments (§4), so only the zero branch is expanded there.
//!
//! # Engine architecture
//!
//! The decode hot path is built for steady-state rateless operation,
//! where the receiver re-decodes from scratch after every sub-pass:
//!
//! * **Structure-of-arrays frontier.** A hypothesis is four parallel
//!   entries — `spines: Vec<u64>`, `keys: Vec<u64>`, `parents: Vec<u32>`,
//!   `segs: Vec<u16>` — instead of a struct per node. The hot loop is
//!   **key-only**: the `f64` path cost lives exclusively as its
//!   order-preserving integer image ([`crate::decode::select::cost_key`],
//!   a bijection), so ranking, pruning, and checkpointing never touch a
//!   float, and the redundant 8-byte cost mirror PRs 1–5 carried per
//!   child is gone from the store bandwidth. Costs are materialized
//!   (via the exact inverse [`crate::decode::select::key_cost`]) only at
//!   the finish boundary. The expansion loop walks flat slices with no
//!   branching beyond the observation loop, which the vectorizer and
//!   prefetcher both like.
//! * **Reusable scratch.** All working memory lives in a
//!   [`DecoderScratch`] that survives across levels *and* across decode
//!   attempts. [`BeamDecoder::decode_into`] additionally reuses the
//!   output buffers, so a warmed-up attempt performs **zero heap
//!   allocation** (verified by the `no_alloc` integration test).
//! * **Hash-block deduplication.** All observations at a level read
//!   their symbol bits out of the same few 64-bit expansion blocks of
//!   the child spine. The engine plans each level once
//!   (the private `decode::batch` module), hashes each *distinct* block exactly
//!   once per child, and slices every observation out of the cached
//!   blocks — collapsing what was one or two hash invocations per
//!   `(child, observation)` pair into one per `(child, distinct block)`.
//!   [`DecodeStats::hash_calls`] reports the resulting hash count.
//! * **Partial selection.** Pruning and final ranking use
//!   `select_nth_unstable` to find the `B` lowest-cost nodes in `O(n)`,
//!   then sort only those `B`. Ties break canonically by expansion index
//!   (the paper's "arbitrarily", made deterministic), so results are
//!   bit-identical to the straightforward reference implementation in
//!   [`crate::decode::reference`].

use crate::bits::BitVec;
use crate::decode::batch::{self, ObsRead, PackedMask};
use crate::decode::ckpt_pack::{bits_for, BitReader, BitWriter, PackedCheckpoints};
use crate::decode::cost::CostModel;
use crate::decode::select::{self, cost_key, key_cost, SelectMode, SelectScratch};
use crate::decode::{Candidate, DecodeResult, DecodeStats, Observations};
use crate::error::SpinalError;
use crate::hash::SpineHash;
use crate::kernels::{self, KernelDispatch};
use crate::map::Mapper;
use crate::params::CodeParams;
use crate::spine::INITIAL_SPINE;

/// Resource configuration for the beam decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BeamConfig {
    /// `B`: hypotheses retained per observed tree level. Figure 2 uses 16.
    pub beam_width: usize,
    /// Upper bound on the frontier carried across *unobserved* levels
    /// (and on any single expansion). Bounds memory and work per decode
    /// attempt; crossing it forces an early prune with arbitrary
    /// tie-breaking, degrading gracefully rather than failing.
    pub max_frontier: usize,
    /// Carry the frontier across unobserved levels instead of pruning to
    /// `B` blindly (see module docs). Disable to get the paper's literal
    /// fixed-B algorithm at every level.
    pub defer_prune_unobserved: bool,
}

impl BeamConfig {
    /// The Figure 2 configuration: `B = 16`.
    pub fn paper_default() -> Self {
        Self::with_beam(16)
    }

    /// A configuration with the given beam width and default resource
    /// caps.
    pub fn with_beam(beam_width: usize) -> Self {
        Self {
            beam_width,
            max_frontier: 1 << 16,
            defer_prune_unobserved: true,
        }
    }

    /// Checks the configuration's invariants: the beam width must be at
    /// least 1 and no larger than the frontier cap.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::BeamConfig`] on violation.
    pub fn validate(&self) -> Result<(), SpinalError> {
        if self.beam_width < 1 || self.max_frontier < self.beam_width {
            return Err(SpinalError::BeamConfig {
                beam_width: self.beam_width,
                max_frontier: self.max_frontier,
            });
        }
        Ok(())
    }
}

impl Default for BeamConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Reusable working memory for [`BeamDecoder`] decode attempts.
///
/// Holds the structure-of-arrays frontier, the child expansion buffers,
/// the backtracking arena, the level's hash-block cache, and the
/// selection/backtrack scratch. Create one per decoding loop (or per
/// worker thread) and pass it to [`BeamDecoder::decode_with_scratch`] /
/// [`BeamDecoder::decode_into`]; after the first attempt warms the
/// capacities up, subsequent attempts allocate nothing.
///
/// A scratch is not tied to a particular decoder, message length, or
/// symbol type and may be shared between them sequentially.
#[derive(Clone, Debug, Default)]
pub struct DecoderScratch {
    /// Current frontier, one entry per retained hypothesis. `keys` holds
    /// each path cost as its order-preserving integer image
    /// ([`crate::decode::select::cost_key`], a bijection) — the hot loop
    /// carries no `f64` cost array at all; floats are recovered with
    /// [`crate::decode::select::key_cost`] only at the finish boundary.
    spines: Vec<u64>,
    keys: Vec<u64>,
    parents: Vec<u32>,
    segs: Vec<u16>,
    /// Child buffers the frontier expands into (swapped per level).
    next_spines: Vec<u64>,
    next_keys: Vec<u64>,
    next_parents: Vec<u32>,
    next_segs: Vec<u16>,
    /// Backtracking arena of committed `(parent, segment)` records.
    arena_parents: Vec<u32>,
    arena_segs: Vec<u16>,
    /// The level plan: distinct expansion-block ids + per-observation reads.
    block_ids: Vec<u64>,
    reads: Vec<ObsRead>,
    /// Bit-channel fast path: per-block XOR/popcount masks (empty when
    /// the level is not packable).
    packed: Vec<PackedMask>,
    /// Hash-block cache in block-major child-run layout.
    blocks: Vec<u64>,
    /// The ascending segment values `0, 1, 2, …` handed to the batched
    /// child-spine hash (`seg_ids[..level_branch]` per parent row).
    seg_ids: Vec<u64>,
    /// Index ordering used by the partial selections.
    order: Vec<u32>,
    /// Radix-select partition buffers.
    selector: SelectScratch,
    /// Segment buffer for backtracking.
    path: Vec<u16>,
    /// The level-plan geometry slot every incremental attempt reads
    /// (see [`PlanGeo`]).
    plan_geo: PlanGeo,
}

impl DecoderScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One level's hash-block plan *geometry* (`block_ids` + `reads`), kept
/// in the scratch for incremental attempts. The geometry is a pure
/// function of the level's observation pass list and the mapper's
/// bits-per-symbol — independent of the hash seed and of observed
/// values — so any level of any session with the same key reuses it
/// unchanged. The key is stored and compared, never hashed, so two
/// geometries cannot alias. The packed masks embed observed bit
/// *values* and stay per-session in [`CachedPlan`].
#[derive(Clone, Debug, Default)]
struct PlanGeo {
    /// Bits per symbol the geometry was built for (0 = empty slot).
    bps: u32,
    /// The exact pass list the geometry was built for.
    passes: Vec<u32>,
    block_ids: Vec<u64>,
    reads: Vec<ObsRead>,
}

impl PlanGeo {
    /// Makes the slot hold `level_obs`'s geometry, rebuilding it only
    /// when the key differs from the one it holds.
    fn refresh<S>(&mut self, level_obs: &[(u32, S)], bps: u32) {
        let passes = level_obs.iter().map(|&(pass, _)| pass);
        if self.bps == bps && self.passes.iter().copied().eq(passes.clone()) {
            return;
        }
        batch::plan_level(passes.clone(), bps, &mut self.block_ids, &mut self.reads);
        self.passes.clear();
        self.passes.extend(passes);
        self.bps = bps;
    }
}

/// Default for the largest entering frontier [`BeamCheckpoints`] will
/// snapshot. Levels whose frontier exceeds the limit (deep
/// unobserved-gap deferral) stop the checkpoint prefix for that attempt;
/// resumption then starts below them. Bounds checkpoint memory at
/// `limit × n_levels` entries per store. The limit is a per-store knob
/// ([`BeamCheckpoints::with_max_frontier`]) so a multi-session pool can
/// trade per-session resumption depth against its global memory budget.
pub const MAX_CHECKPOINT_FRONTIER: usize = 1 << 12;

/// One level's snapshot: the frontier *entering* the level, the arena
/// prefix committed before it, and the cumulative work counters.
#[derive(Clone, Debug, Default)]
struct SavedLevel {
    spines: Vec<u64>,
    keys: Vec<u64>,
    parents: Vec<u32>,
    segs: Vec<u16>,
    arena_len: usize,
    stats: DecodeStats,
}

/// The contiguous prefix of per-level snapshots a prior attempt left
/// behind. Entries `[0, valid)` describe the current observation prefix.
#[derive(Clone, Debug, Default)]
struct SavedStates {
    levels: Vec<SavedLevel>,
    valid: u32,
}

impl SavedStates {
    /// Snapshots the state entering level `t`. Only extends the valid
    /// prefix contiguously, and skips (freezing the prefix) when the
    /// frontier exceeds `limit` — too large to be worth copying.
    #[allow(clippy::too_many_arguments)]
    fn save(
        &mut self,
        t: u32,
        limit: usize,
        spines: &[u64],
        keys: &[u64],
        parents: &[u32],
        segs: &[u16],
        arena_len: usize,
        stats: DecodeStats,
    ) {
        if t != self.valid || spines.len() > limit {
            return;
        }
        if self.levels.len() <= t as usize {
            self.levels.resize_with(t as usize + 1, SavedLevel::default);
        }
        let e = &mut self.levels[t as usize];
        e.spines.clear();
        e.spines.extend_from_slice(spines);
        e.keys.clear();
        e.keys.extend_from_slice(keys);
        e.parents.clear();
        e.parents.extend_from_slice(parents);
        e.segs.clear();
        e.segs.extend_from_slice(segs);
        e.arena_len = arena_len;
        e.stats = stats;
        self.valid = t + 1;
    }
}

/// One level's cached per-session plan half: the packed XOR/popcount
/// masks (see [`crate::decode::batch`]), which embed observed bit values
/// and are invalidated by observation-count changes. `obs_len ==
/// usize::MAX` marks a never-built or reset entry. The geometry half
/// lives in the scratch's [`PlanGeo`] slot.
#[derive(Clone, Debug)]
struct CachedPlan {
    obs_len: usize,
    packed: Vec<PackedMask>,
}

impl Default for CachedPlan {
    fn default() -> Self {
        Self {
            obs_len: usize::MAX,
            packed: Vec::new(),
        }
    }
}

/// Persistent cross-attempt state for [`BeamDecoder::decode_incremental`]:
/// per-level frontier checkpoints, the backtracking arena they index
/// into, and per-level packed-mask caches.
///
/// A retry that only added observations at levels `>= d` (e.g. one more
/// punctured sub-pass, or the next symbol of an in-progress pass) resumes
/// the level sweep at `d` instead of level 0: everything below `d` saw
/// identical observations, so the saved frontier is exactly what a
/// from-scratch decode would recompute. The result — message, costs,
/// candidates, *and* [`DecodeStats`] (reported as-if-from-scratch) — is
/// **bit-identical** to [`BeamDecoder::decode_into`] over the same
/// observation set.
///
/// # Contract
///
/// A checkpoint store belongs to one `(decoder, observation set)` pair at
/// a time, and the observation set must be **append-only** between
/// attempts. Call [`reset`](Self::reset) whenever the observations are
/// cleared or the decoder (parameters, hash, config) changes; stale
/// checkpoints are also discarded automatically when the observation
/// count shrinks or the level count changes. After the first attempt
/// warms the buffers, checkpointing allocates nothing.
///
/// # The packed tier
///
/// Alongside the raw per-level snapshots, the store keeps (by default)
/// a **compressed** image of the same prefix, refilled at every attempt
/// finish: topology only — the parent index into the previous level's
/// committed frontier plus the `k`-bit segment, bit-packed, with the
/// per-level work counters varint-coded (see the private
/// `decode::ckpt_pack` module). Spines and cost keys are *not* stored;
/// they are recomputed on restore by replaying the per-entry spine hash
/// and cost accumulation — the identical arithmetic the expansion loop
/// used, so the rebuilt snapshots are bit-for-bit the originals. That
/// makes [`demote`](Self::demote) possible: drop the raw tier (~20× the
/// bytes) while keeping full resumption depth, at the cost of one
/// transparent unpack on the session's next attempt.
#[derive(Clone, Debug)]
pub struct BeamCheckpoints {
    saved: SavedStates,
    /// The backtracking arena shared across attempts (replaces the
    /// per-attempt arena in [`DecoderScratch`]).
    arena_parents: Vec<u32>,
    arena_segs: Vec<u16>,
    plans: Vec<CachedPlan>,
    /// Observation count at the last attempt (shrinkage ⇒ stale).
    obs_len: usize,
    n_levels: u32,
    levels_resumed: u64,
    levels_run: u64,
    /// Largest entering frontier this store will snapshot (see
    /// [`MAX_CHECKPOINT_FRONTIER`], the default).
    max_frontier: usize,
    /// Compressed image of `saved` (topology + stats bitstream),
    /// refilled at every attempt finish while `packing` is on.
    packed: PackedCheckpoints,
    /// Raw tier dropped; the next attempt must unpack before resuming.
    demoted: bool,
    /// Maintain the packed tier (on by default; turning it off also
    /// discards the blob, since it would go stale at the next attempt).
    packing: bool,
    /// Packs performed over the store's lifetime.
    packs: u64,
    /// Demote→unpack round trips over the store's lifetime.
    unpacks: u64,
}

impl Default for BeamCheckpoints {
    fn default() -> Self {
        Self {
            saved: SavedStates::default(),
            arena_parents: Vec::new(),
            arena_segs: Vec::new(),
            plans: Vec::new(),
            obs_len: 0,
            n_levels: 0,
            levels_resumed: 0,
            levels_run: 0,
            max_frontier: MAX_CHECKPOINT_FRONTIER,
            packed: PackedCheckpoints::default(),
            demoted: false,
            packing: true,
            packs: 0,
            unpacks: 0,
        }
    }
}

impl BeamCheckpoints {
    /// Creates an empty checkpoint store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store that snapshots frontiers only up to
    /// `limit` entries per level (default:
    /// [`MAX_CHECKPOINT_FRONTIER`]). Smaller limits cap the store's
    /// memory; `0` disables checkpointing entirely (every attempt then
    /// decodes from scratch — results are unchanged, only work is).
    pub fn with_max_frontier(limit: usize) -> Self {
        Self {
            max_frontier: limit,
            ..Self::default()
        }
    }

    /// The per-level snapshot frontier limit in use.
    pub fn max_frontier(&self) -> usize {
        self.max_frontier
    }

    /// Discards all checkpoints and cached plans (keeping capacity), so
    /// the next attempt decodes from level 0. Required when the
    /// observation set is cleared or the decoder changes.
    pub fn reset(&mut self) {
        self.saved.valid = 0;
        for plan in &mut self.plans {
            plan.obs_len = usize::MAX;
        }
        self.obs_len = 0;
        self.n_levels = 0;
        self.packed.clear();
        self.demoted = false;
    }

    /// [`reset`](Self::reset) that also returns every buffer's memory to
    /// the allocator — the multi-session scheduler's eviction path:
    /// an evicted session decodes from scratch on its next retry
    /// (bit-identical results, more work) and re-warms its buffers only
    /// if it keeps running.
    pub fn release(&mut self) {
        self.reset();
        self.saved.levels = Vec::new();
        self.arena_parents = Vec::new();
        self.arena_segs = Vec::new();
        self.plans = Vec::new();
        self.packed.bytes = Vec::new();
    }

    /// Heap bytes currently held by this store (capacity-based: saved
    /// frontiers, the backtracking arena, and cached packed masks). The
    /// figure a pool-level checkpoint-memory budget accounts against.
    pub fn memory_bytes(&self) -> usize {
        use core::mem::size_of;
        let mut bytes = self.arena_parents.capacity() * size_of::<u32>()
            + self.arena_segs.capacity() * size_of::<u16>();
        for level in &self.saved.levels {
            bytes += level.spines.capacity() * size_of::<u64>()
                + level.keys.capacity() * size_of::<u64>()
                + level.parents.capacity() * size_of::<u32>()
                + level.segs.capacity() * size_of::<u16>();
        }
        for plan in &self.plans {
            bytes += plan.packed.capacity() * size_of::<PackedMask>();
        }
        bytes + self.packed.memory_bytes()
    }

    /// Heap bytes the compressed checkpoint image currently holds —
    /// what a demoted session's resumable state costs.
    pub fn packed_bytes(&self) -> usize {
        self.packed.memory_bytes()
    }

    /// The packed checkpoint image, when one is in sync with the saved
    /// prefix — the bytes a pool snapshot carries across a process
    /// restart. `None` when packing is off or nothing has been packed.
    pub fn packed_image(&self) -> Option<&[u8]> {
        if self.packed.active {
            Some(&self.packed.bytes)
        } else {
            None
        }
    }

    /// Whether the raw snapshot tier has been dropped in favour of the
    /// packed image ([`demote`](Self::demote)); cleared transparently by
    /// the next attempt's restore.
    pub fn is_demoted(&self) -> bool {
        self.demoted
    }

    /// Whether a [`demote`](Self::demote) right now would succeed: the
    /// packed image is in sync and the raw tier is still resident.
    pub fn can_demote(&self) -> bool {
        self.packed.active && !self.demoted && self.saved.valid > 0
    }

    /// Drops the raw snapshot tier — saved frontiers, arena, and cached
    /// plans — keeping only the packed image (~20× smaller at the
    /// paper-default shape) and the resume depth. The next attempt
    /// transparently unpacks, recomputing the raw snapshots bit-for-bit,
    /// so results are unchanged; only that attempt's restore does extra
    /// work (one hash + cost evaluation per saved entry — still ~`2^k`×
    /// cheaper than re-expanding from scratch). Returns `false` (doing
    /// nothing) when there is nothing packed to fall back on.
    pub fn demote(&mut self) -> bool {
        if !self.can_demote() {
            return false;
        }
        self.saved.levels = Vec::new();
        self.arena_parents = Vec::new();
        self.arena_segs = Vec::new();
        self.plans = Vec::new();
        self.demoted = true;
        true
    }

    /// Enables or disables the packed tier (on by default). Disabling
    /// discards the current blob — it would silently go stale at the
    /// next attempt otherwise. On a demoted store the blob is the only
    /// surviving tier, so disabling falls all the way back to a cold
    /// store (full replay at the next attempt — checkpoints are policy,
    /// results never change).
    pub fn set_packing(&mut self, enabled: bool) {
        self.packing = enabled;
        if !enabled {
            if self.demoted {
                self.reset();
            }
            self.packed.clear();
        }
    }

    /// Whether the packed tier is maintained.
    pub fn packing(&self) -> bool {
        self.packing
    }

    /// Packs performed over the store's lifetime (one per attempt finish
    /// while packing is on).
    pub fn packs(&self) -> u64 {
        self.packs
    }

    /// Demote→unpack round trips served over the store's lifetime.
    pub fn unpacks(&self) -> u64 {
        self.unpacks
    }

    /// Number of tree levels the valid checkpoint prefix covers — the
    /// deepest point the next retry could resume from. A scheduler uses
    /// this (with the session's dirty depth) to rank retries by cost.
    pub fn valid_levels(&self) -> u32 {
        self.saved.valid
    }

    /// Tree levels skipped via checkpoint resumption, accumulated over
    /// the store's lifetime — the direct measure of the incremental-retry
    /// saving.
    pub fn levels_resumed(&self) -> u64 {
        self.levels_resumed
    }

    /// Tree levels actually expanded across all attempts.
    pub fn levels_run(&self) -> u64 {
        self.levels_run
    }
}

/// Where the level loop gets its hash-block plans from.
enum PlanSource<'a> {
    /// Rebuild every level's plan into per-attempt scratch buffers
    /// (the batch path).
    Scratch {
        block_ids: &'a mut Vec<u64>,
        reads: &'a mut Vec<ObsRead>,
        packed: &'a mut Vec<PackedMask>,
    },
    /// The incremental path: geometry from the scratch's slot (rebuilt
    /// only when a level's pass list differs from the one it holds),
    /// packed masks from the per-session cache (rebuilt only when a
    /// level's observation count changed).
    Cached {
        cache: &'a mut Vec<CachedPlan>,
        geo: &'a mut PlanGeo,
    },
}

/// The SoA frontier entering a level; a level step leaves it holding
/// the frontier entering the next level.
struct Frontier<'a> {
    spines: &'a mut Vec<u64>,
    keys: &'a mut Vec<u64>,
    parents: &'a mut Vec<u32>,
    segs: &'a mut Vec<u16>,
}

/// The expansion working buffers a level step borrows. Contents never
/// carry information across steps.
struct ExpandScratch<'a> {
    spines: &'a mut Vec<u64>,
    keys: &'a mut Vec<u64>,
    parents: &'a mut Vec<u32>,
    segs: &'a mut Vec<u16>,
    blocks: &'a mut Vec<u64>,
    seg_ids: &'a mut Vec<u64>,
    order: &'a mut Vec<u32>,
    selector: &'a mut SelectScratch,
}

impl DecoderScratch {
    /// Splits the scratch into the frontier, the expansion buffers, the
    /// plan-geometry slot, and the backtrack path buffer (the
    /// incremental attempt's layout).
    fn split_mut(&mut self) -> (Frontier<'_>, ExpandScratch<'_>, &mut PlanGeo, &mut Vec<u16>) {
        (
            Frontier {
                spines: &mut self.spines,
                keys: &mut self.keys,
                parents: &mut self.parents,
                segs: &mut self.segs,
            },
            ExpandScratch {
                spines: &mut self.next_spines,
                keys: &mut self.next_keys,
                parents: &mut self.next_parents,
                segs: &mut self.next_segs,
                blocks: &mut self.blocks,
                seg_ids: &mut self.seg_ids,
                order: &mut self.order,
                selector: &mut self.selector,
            },
            &mut self.plan_geo,
            &mut self.path,
        )
    }
}

/// The practical spinal decoder: B-beam search over the decoding tree.
///
/// # Example
///
/// ```
/// use spinal_core::bits::BitVec;
/// use spinal_core::decode::{AwgnCost, BeamConfig, BeamDecoder, Observations};
/// use spinal_core::encode::Encoder;
/// use spinal_core::hash::Lookup3;
/// use spinal_core::map::LinearMapper;
/// use spinal_core::params::CodeParams;
/// use spinal_core::symbol::Slot;
///
/// let params = CodeParams::new(24, 8).unwrap();
/// let message = BitVec::from_bytes(&[0xca, 0xfe, 0x42]);
/// let enc = Encoder::new(&params, Lookup3::new(0), LinearMapper::new(10), &message).unwrap();
///
/// // Noiseless channel, two full passes.
/// let mut obs = Observations::new(params.n_segments());
/// for pass in 0..2 {
///     for t in 0..3 {
///         let slot = Slot::new(t, pass);
///         obs.push(slot, enc.symbol(slot));
///     }
/// }
///
/// let dec = BeamDecoder::new(&params, Lookup3::new(0), LinearMapper::new(10),
///                            AwgnCost, BeamConfig::paper_default()).unwrap();
/// assert_eq!(dec.decode(&obs).message, message);
/// ```
#[derive(Clone, Debug)]
pub struct BeamDecoder<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>> {
    params: CodeParams,
    hash: H,
    mapper: M,
    cost: C,
    config: BeamConfig,
    /// SIMD tier for the integer kernels, resolved once at construction
    /// (feature detection is cached but still an atomic load; the hot
    /// path reads a field instead).
    kernel_dispatch: KernelDispatch,
    /// Top-B selection algorithm (radix above the size threshold by
    /// default; the comparator everywhere as a bench/test baseline).
    select_mode: SelectMode,
}

impl<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>> BeamDecoder<H, M, C> {
    /// Builds a decoder. `params`, `hash` (same seed!) and `mapper` must
    /// match the encoder's.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::BeamConfig`] when the configuration's
    /// invariants do not hold (see [`BeamConfig::validate`]).
    pub fn new(
        params: &CodeParams,
        hash: H,
        mapper: M,
        cost: C,
        config: BeamConfig,
    ) -> Result<Self, SpinalError> {
        config.validate()?;
        Ok(Self {
            params: *params,
            hash,
            mapper,
            cost: cost.clone(),
            config,
            kernel_dispatch: KernelDispatch::detect(),
            select_mode: SelectMode::Auto,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &BeamConfig {
        &self.config
    }

    /// The SIMD tier this decoder's integer kernels run on (also
    /// reported per decode in [`DecodeStats::kernel_dispatch`]).
    pub fn kernel_dispatch(&self) -> KernelDispatch {
        self.kernel_dispatch
    }

    /// Pins the integer kernels to a specific SIMD tier. Every tier is
    /// **bit-identical** (the point of integer kernels); this is the
    /// override the benches and the CI scalar-equivalence self-check
    /// use. Tiers the CPU cannot execute silently fall back to scalar.
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.kernel_dispatch = dispatch;
        self
    }

    /// Pins the top-B selection algorithm (default
    /// [`SelectMode::Auto`]). [`SelectMode::Comparator`] restores the
    /// pre-cost-engine `select_nth_unstable` path — bit-identical, used
    /// as the bench baseline.
    pub fn with_select_mode(mut self, mode: SelectMode) -> Self {
        self.select_mode = mode;
        self
    }

    /// The code parameters this decoder was built for.
    pub fn params(&self) -> &CodeParams {
        &self.params
    }

    /// The constellation mapper this decoder scores against.
    pub fn mapper(&self) -> &M {
        &self.mapper
    }

    /// Runs one decode attempt over everything received so far and
    /// returns the best hypotheses.
    ///
    /// The attempt is self-contained (the paper re-decodes from scratch
    /// each pass). This convenience entry point allocates a fresh
    /// [`DecoderScratch`] per call; decoding loops should hold one and
    /// use [`decode_with_scratch`](Self::decode_with_scratch) (or
    /// [`decode_into`](Self::decode_into) to also reuse the output
    /// buffers).
    ///
    /// # Panics
    ///
    /// Panics if `obs` was created for a different spine length.
    pub fn decode(&self, obs: &Observations<M::Symbol>) -> DecodeResult {
        let mut scratch = DecoderScratch::new();
        self.decode_with_scratch(obs, &mut scratch)
    }

    /// Like [`decode`](Self::decode), reusing `scratch` for all working
    /// memory. After warm-up the search itself performs no heap
    /// allocation; only the returned [`DecodeResult`] is built fresh.
    pub fn decode_with_scratch(
        &self,
        obs: &Observations<M::Symbol>,
        scratch: &mut DecoderScratch,
    ) -> DecodeResult {
        let mut out = DecodeResult::default();
        self.decode_into(obs, scratch, &mut out);
        out
    }

    /// The fully buffer-reusing entry point: decodes into `out`,
    /// recycling its message/candidate storage. With a warmed-up
    /// `scratch` and `out`, a decode attempt performs **zero heap
    /// allocation**.
    ///
    /// This is the one-shot form of the search:
    /// [`decode_incremental`](Self::decode_incremental) runs the same
    /// level sweep but resumes from per-level checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `obs` was created for a different spine length.
    pub fn decode_into(
        &self,
        obs: &Observations<M::Symbol>,
        scratch: &mut DecoderScratch,
        out: &mut DecodeResult,
    ) {
        self.check_levels(obs);
        let n_levels = self.params.n_segments();
        let DecoderScratch {
            spines,
            keys,
            parents,
            segs,
            next_spines,
            next_keys,
            next_parents,
            next_segs,
            arena_parents,
            arena_segs,
            block_ids,
            reads,
            packed,
            blocks,
            seg_ids,
            order,
            selector,
            path,
            plan_geo: _,
        } = scratch;
        init_root(spines, keys, parents, segs, arena_parents, arena_segs);
        let mut stats = fresh_stats(self.kernel_dispatch);
        let mut plans = PlanSource::Scratch {
            block_ids,
            reads,
            packed,
        };
        for t in 0..n_levels {
            self.level_core(
                t,
                obs,
                Frontier {
                    spines: &mut *spines,
                    keys: &mut *keys,
                    parents: &mut *parents,
                    segs: &mut *segs,
                },
                ExpandScratch {
                    spines: &mut *next_spines,
                    keys: &mut *next_keys,
                    parents: &mut *next_parents,
                    segs: &mut *next_segs,
                    blocks: &mut *blocks,
                    seg_ids: &mut *seg_ids,
                    order: &mut *order,
                    selector: &mut *selector,
                },
                arena_parents,
                arena_segs,
                &mut plans,
                None,
                &mut stats,
            );
        }
        self.finish_core(
            Frontier {
                spines,
                keys,
                parents,
                segs,
            },
            arena_parents,
            arena_segs,
            None,
            order,
            selector,
            path,
            stats,
            out,
        );
    }

    /// Incremental re-decode for rateless retry loops: bit-identical to
    /// [`decode_into`](Self::decode_into) over the same observations, but
    /// resumes the level sweep from the deepest checkpoint at or below
    /// `dirty_from` — the lowest spine position that received a new
    /// observation since the previous attempt with this `ckpt`. Levels
    /// below the resume point are not re-expanded; their saved frontier
    /// is exactly what a from-scratch decode would recompute, because
    /// their observations did not change.
    ///
    /// Pass `dirty_from = 0` (or a fresh/reset `ckpt`) to decode from
    /// scratch; pass `dirty_from >= n_segments` when no observation was
    /// added to re-rank the saved final frontier without any expansion.
    ///
    /// The reported [`DecodeStats`] are *as-if-from-scratch* (prefix
    /// counters are restored from the checkpoint), so results compare
    /// bit-for-bit with the batch path; the actual work saved is
    /// tracked on the checkpoint store
    /// ([`BeamCheckpoints::levels_resumed`]).
    ///
    /// See [`BeamCheckpoints`] for the append-only observation contract.
    ///
    /// # Panics
    ///
    /// Panics if `obs` was created for a different spine length.
    pub fn decode_incremental(
        &self,
        obs: &Observations<M::Symbol>,
        dirty_from: u32,
        ckpt: &mut BeamCheckpoints,
        scratch: &mut DecoderScratch,
        out: &mut DecodeResult,
    ) {
        let (start, mut stats) = self.attempt_begin(obs, dirty_from, ckpt, scratch);
        let n_levels = self.params.n_segments();
        for t in start..n_levels {
            let (fr, ex, geo, _) = scratch.split_mut();
            self.ckpt_level(t, obs, ckpt, fr, ex, geo, &mut stats);
        }
        let (fr, ex, _, path) = scratch.split_mut();
        self.ckpt_finish(ckpt, fr, ex.order, ex.selector, path, stats, out);
    }

    /// The head of an incremental attempt: validates/refreshes the
    /// checkpoint store, picks the resume level, restores the entering
    /// frontier into `scratch`'s frontier buffers (or initializes the
    /// root for a from-scratch start), and rolls the arena back. Returns
    /// the start level and the as-if-from-scratch work counters entering
    /// it.
    fn attempt_begin(
        &self,
        obs: &Observations<M::Symbol>,
        dirty_from: u32,
        ckpt: &mut BeamCheckpoints,
        scratch: &mut DecoderScratch,
    ) -> (u32, DecodeStats) {
        self.check_levels(obs);
        let n_levels = self.params.n_segments();
        if ckpt.n_levels != n_levels || obs.len() < ckpt.obs_len {
            // Geometry changed or observations shrank: everything saved
            // is stale.
            ckpt.reset();
            ckpt.n_levels = n_levels;
        }
        let start = dirty_from
            .min(n_levels)
            .min(ckpt.saved.valid.saturating_sub(1));
        ckpt.levels_resumed += u64::from(start);
        ckpt.levels_run += u64::from(n_levels - start);
        ckpt.obs_len = obs.len();
        if ckpt.plans.len() < n_levels as usize {
            ckpt.plans
                .resize_with(n_levels as usize, CachedPlan::default);
        }
        if ckpt.demoted {
            // The raw snapshot tier was dropped by `demote`; rebuild the
            // levels this restore needs from the packed topology. The
            // recompute replays the expansion arithmetic exactly, so the
            // rebuilt snapshots are bit-for-bit what was demoted. A
            // from-scratch start needs nothing back.
            if start > 0 {
                self.unpack_checkpoints(start, obs, ckpt, scratch);
                ckpt.unpacks += 1;
            }
            ckpt.demoted = false;
        }

        let init_stats = if start == 0 {
            fresh_stats(self.kernel_dispatch)
        } else {
            ckpt.saved.levels[start as usize].stats
        };
        if start > 0 {
            // Restore the frontier entering `start` and roll the arena
            // back to what was committed before it. The checkpoint holds
            // cost keys natively, so restore is a straight copy.
            let e = &ckpt.saved.levels[start as usize];
            scratch.spines.clear();
            scratch.spines.extend_from_slice(&e.spines);
            scratch.keys.clear();
            scratch.keys.extend_from_slice(&e.keys);
            scratch.parents.clear();
            scratch.parents.extend_from_slice(&e.parents);
            scratch.segs.clear();
            scratch.segs.extend_from_slice(&e.segs);
            ckpt.arena_parents.truncate(e.arena_len);
            ckpt.arena_segs.truncate(e.arena_len);
        } else {
            init_root(
                &mut scratch.spines,
                &mut scratch.keys,
                &mut scratch.parents,
                &mut scratch.segs,
                &mut ckpt.arena_parents,
                &mut ckpt.arena_segs,
            );
        }
        // Checkpoints at and above the resume point are about to be
        // overwritten.
        ckpt.saved.valid = start;
        (start, init_stats)
    }

    /// [`level_core`](Self::level_core) wired to a checkpoint store's
    /// arena, packed-mask cache, and saver, and to the scratch's
    /// plan-geometry slot.
    #[allow(clippy::too_many_arguments)]
    fn ckpt_level(
        &self,
        t: u32,
        obs: &Observations<M::Symbol>,
        ckpt: &mut BeamCheckpoints,
        fr: Frontier<'_>,
        ex: ExpandScratch<'_>,
        geo: &mut PlanGeo,
        stats: &mut DecodeStats,
    ) {
        let BeamCheckpoints {
            saved,
            arena_parents,
            arena_segs,
            plans,
            max_frontier,
            ..
        } = ckpt;
        let mut plans = PlanSource::Cached { cache: plans, geo };
        self.level_core(
            t,
            obs,
            fr,
            ex,
            arena_parents,
            arena_segs,
            &mut plans,
            Some((saved, *max_frontier)),
            stats,
        );
    }

    /// [`finish_core`](Self::finish_core) wired to a checkpoint store.
    #[allow(clippy::too_many_arguments)]
    fn ckpt_finish(
        &self,
        ckpt: &mut BeamCheckpoints,
        fr: Frontier<'_>,
        order: &mut Vec<u32>,
        selector: &mut SelectScratch,
        path: &mut Vec<u16>,
        stats: DecodeStats,
        out: &mut DecodeResult,
    ) {
        let BeamCheckpoints {
            saved,
            arena_parents,
            arena_segs,
            max_frontier,
            packed,
            packing,
            packs,
            ..
        } = ckpt;
        self.finish_core(
            fr,
            arena_parents,
            arena_segs,
            Some((saved, *max_frontier)),
            order,
            selector,
            path,
            stats,
            out,
        );
        // Keep the compressed tier in sync with the snapshots this
        // attempt just (re)wrote, so the store is demotable at any
        // point between attempts.
        if *packing && saved.valid > 0 {
            self.pack_checkpoints(saved, packed);
            *packs += 1;
        }
    }

    /// Serializes `saved`'s valid prefix into `packed`: per level, the
    /// entry count and varint-coded work counters, then — spines and
    /// cost keys elided — each entry's parent *slot* (index into the
    /// previous level's committed frontier, `⌈log2 |C|⌉` bits) and
    /// segment (`k` bits; zero bits at tail levels). Refills the
    /// retained buffer in place, so steady-state packing allocates
    /// nothing once the buffer has reached its working size.
    fn pack_checkpoints(&self, saved: &SavedStates, packed: &mut PackedCheckpoints) {
        let msg_segs = self.params.message_segments();
        let k = self.params.k();
        packed.bytes.clear();
        let mut w = BitWriter::new(&mut packed.bytes);
        w.push_varint(u64::from(saved.valid));
        let mut prev_nodes = 0u64;
        let mut prev_hash = 0u64;
        for t in 0..saved.valid as usize {
            let e = &saved.levels[t];
            w.push_varint(e.spines.len() as u64);
            // Work counters are nondecreasing across the sweep: store
            // per-level deltas (level 0 is absolute).
            w.push_varint(e.stats.nodes_expanded - prev_nodes);
            w.push_varint(e.stats.hash_calls - prev_hash);
            w.push_varint(e.stats.frontier_peak as u64);
            w.push(u64::from(e.stats.complete), 1);
            prev_nodes = e.stats.nodes_expanded;
            prev_hash = e.stats.hash_calls;
            if t == 0 {
                debug_assert_eq!(e.spines.len(), 1, "level 0 holds exactly the root");
                continue;
            }
            // The committed frontier the slots index into: its size is
            // the arena growth between the two snapshots (level 1's
            // parent is the root, which is not in the arena).
            let committed_prev = if t == 1 {
                1
            } else {
                e.arena_len - saved.levels[t - 1].arena_len
            };
            let slot_bits = bits_for(committed_prev);
            let seg_bits = if (t as u32 - 1) < msg_segs { k } else { 0 };
            let base = saved.levels[t - 1].arena_len as u32;
            for (j, &seg) in e.segs.iter().enumerate() {
                let slot = if t == 1 {
                    0
                } else {
                    u64::from(e.parents[j] - base)
                };
                w.push(slot, slot_bits);
                w.push(u64::from(seg), seg_bits);
            }
        }
        w.finish();
        packed.active = true;
    }

    /// Rebuilds `saved.levels[0..=start]` (and the arena prefix and
    /// packed-mask caches below `start`) from the packed image, after a
    /// [`BeamCheckpoints::demote`]. Spines and cost keys are recomputed
    /// by replaying, per entry, exactly the arithmetic the expansion
    /// loop used — the single-step spine hash, then either the packed
    /// XOR/popcount kernel or the sequential per-observation cost fold —
    /// so the rebuilt snapshots are bit-identical to the demoted ones.
    /// Pre-prunes between levels are replayed with the same canonical
    /// selection to reconstruct each level's committed frontier (which
    /// the next level's slots index into). Cost: one hash + one cost
    /// evaluation per saved entry — `2^k`× less work than re-expanding
    /// the sweep from scratch.
    fn unpack_checkpoints(
        &self,
        start: u32,
        obs: &Observations<M::Symbol>,
        ckpt: &mut BeamCheckpoints,
        scratch: &mut DecoderScratch,
    ) {
        let msg_segs = self.params.message_segments();
        let k = self.params.k();
        let branch = 1usize << k;
        let bps = self.mapper.bits_per_symbol();
        let BeamCheckpoints {
            saved,
            arena_parents,
            arena_segs,
            plans,
            packed,
            ..
        } = ckpt;
        debug_assert!(packed.active, "unpack without a packed image");
        let mut r = BitReader::new(&packed.bytes);
        let packed_valid = r.pull_varint() as u32;
        debug_assert!(
            start < packed_valid,
            "resume level {start} beyond packed prefix {packed_valid}"
        );
        if saved.levels.len() <= start as usize {
            saved
                .levels
                .resize_with(start as usize + 1, SavedLevel::default);
        }
        arena_parents.clear();
        arena_segs.clear();

        let dispatch = self.kernel_dispatch;
        let mut prev_nodes = 0u64;
        let mut prev_hash = 0u64;
        let mut pull_stats = |r: &mut BitReader<'_>| {
            prev_nodes += r.pull_varint();
            prev_hash += r.pull_varint();
            let frontier_peak = r.pull_varint() as usize;
            let complete = r.pull(1) != 0;
            DecodeStats {
                nodes_expanded: prev_nodes,
                frontier_peak,
                hash_calls: prev_hash,
                complete,
                kernel_dispatch: dispatch,
            }
        };

        // The previous level's committed (post-pre-prune) frontier —
        // what this level's slots index into — lives in the expansion
        // scratch buffers.
        let prev_spines = &mut scratch.next_spines;
        let prev_keys = &mut scratch.next_keys;
        let prev_parents = &mut scratch.next_parents;
        let prev_segs = &mut scratch.next_segs;
        let blocks = &mut scratch.blocks;
        let order = &mut scratch.order;
        let selector = &mut scratch.selector;
        let geo = &mut scratch.plan_geo;

        // Level 0: the root (C_0 — never pruned, never committed).
        let n0 = r.pull_varint() as usize;
        debug_assert_eq!(n0, 1, "level 0 holds exactly the root");
        let stats0 = pull_stats(&mut r);
        {
            let e = &mut saved.levels[0];
            e.spines.clear();
            e.spines.push(INITIAL_SPINE);
            e.keys.clear();
            e.keys.push(cost_key(0.0));
            e.parents.clear();
            e.parents.push(u32::MAX);
            e.segs.clear();
            e.segs.push(0);
            e.arena_len = 0;
            e.stats = stats0;
        }
        prev_spines.clear();
        prev_spines.push(INITIAL_SPINE);
        prev_keys.clear();
        prev_keys.push(cost_key(0.0));
        prev_parents.clear();
        prev_parents.push(u32::MAX);
        prev_segs.clear();
        prev_segs.push(0);

        for u in 1..=start as usize {
            // Sweep `u-1`'s arena commit: its committed frontier gains
            // the stable indices this level's parents point at.
            let base = saved.levels[u - 1].arena_len as u32;
            if u >= 2 {
                debug_assert_eq!(arena_parents.len(), base as usize);
                arena_parents.extend_from_slice(prev_parents);
                arena_segs.extend_from_slice(prev_segs);
            }
            let n = r.pull_varint() as usize;
            let stats = pull_stats(&mut r);
            let slot_bits = bits_for(prev_spines.len());
            let seg_bits = if (u as u32 - 1) < msg_segs { k } else { 0 };

            // Entries of this level were scored against level `u-1`'s
            // observations; refresh that plan (also re-warming the
            // packed-mask cache the demote dropped).
            let level_obs = obs.at_level(u as u32 - 1);
            geo.refresh(level_obs, bps);
            let p = &mut plans[u - 1];
            if p.obs_len != level_obs.len() {
                build_packed(
                    &self.mapper,
                    &self.cost,
                    level_obs,
                    bps,
                    &geo.block_ids,
                    &mut p.packed,
                );
                p.obs_len = level_obs.len();
            }
            blocks.clear();
            blocks.resize(geo.block_ids.len(), 0);

            let e = &mut saved.levels[u];
            e.spines.clear();
            e.keys.clear();
            e.parents.clear();
            e.segs.clear();
            for _ in 0..n {
                let slot = r.pull(slot_bits) as usize;
                let seg = r.pull(seg_bits) as u16;
                let pspine = prev_spines[slot];
                let pkey = prev_keys[slot];
                let spine = self.hash.hash(pspine, u64::from(seg));
                let key = if geo.reads.is_empty() {
                    pkey
                } else {
                    // Replay the expansion's scoring for this one child:
                    // same block cache, same kernel / fold, same
                    // float-operation order — bit-identical keys.
                    let pcost = key_cost(pkey);
                    batch::fill_blocks(&self.hash, spine, &geo.block_ids, blocks);
                    if !p.packed.is_empty() {
                        let mut one = [0u64; 1];
                        kernels::packed_row_costs(dispatch, blocks, 1, &p.packed, pcost, &mut one);
                        one[0]
                    } else {
                        let mut acc = pcost;
                        for (rd, &(_, observed)) in geo.reads.iter().zip(level_obs) {
                            acc += self
                                .cost
                                .cost(observed, self.mapper.map(batch::read_obs(blocks, rd)));
                        }
                        cost_key(acc)
                    }
                };
                let parent = if u == 1 { u32::MAX } else { base + slot as u32 };
                e.spines.push(spine);
                e.keys.push(key);
                e.parents.push(parent);
                e.segs.push(seg);
            }
            e.arena_len = arena_parents.len();
            e.stats = stats;

            // Replay sweep `u`'s pre-prune to obtain C_u — the frontier
            // the *next* level's slots index into. (Not needed past the
            // resume level: sweep `start` itself will run live.)
            if (u as u32) < start {
                let level_branch = if u as u32 >= msg_segs { 1 } else { branch };
                let cap_parents = (self.config.max_frontier / level_branch).max(1);
                prev_spines.clear();
                prev_keys.clear();
                prev_parents.clear();
                prev_segs.clear();
                if n > cap_parents {
                    select::select_smallest(
                        &e.keys,
                        cap_parents,
                        order,
                        selector,
                        self.select_mode,
                    );
                    for &i in order.iter() {
                        let i = i as usize;
                        prev_spines.push(e.spines[i]);
                        prev_keys.push(e.keys[i]);
                        prev_parents.push(e.parents[i]);
                        prev_segs.push(e.segs[i]);
                    }
                } else {
                    prev_spines.extend_from_slice(&e.spines);
                    prev_keys.extend_from_slice(&e.keys);
                    prev_parents.extend_from_slice(&e.parents);
                    prev_segs.extend_from_slice(&e.segs);
                }
            }
        }
    }

    /// Installs a packed checkpoint image carried across a process
    /// restart into `ckpt`, leaving the store exactly as if it had just
    /// been [`demoted`](BeamCheckpoints::demote): the blob is the only
    /// resident tier and the next attempt transparently unpacks it,
    /// replaying the expansion arithmetic bit-for-bit. `obs_len` must be
    /// the restored observation count the blob was packed against.
    ///
    /// The blob is **untrusted** (it crossed a process boundary): before
    /// installing, its structure is re-derived against this decoder's
    /// shape — level counts, per-level entry counts against the
    /// committed-frontier evolution the pre-prune replay will
    /// reconstruct, every parent slot in range, and the bitstream length
    /// consistent — so a forged or damaged image can never make the
    /// later unpack index out of bounds or over-allocate.
    ///
    /// # Errors
    ///
    /// [`SpinalError::Snapshot`] with
    /// [`SnapshotErrorKind::Corrupt`](crate::error::SnapshotErrorKind::Corrupt)
    /// when the blob fails structural validation; `ckpt` is left reset
    /// (cold — the session decodes from scratch, results unchanged).
    pub fn adopt_packed_checkpoints(
        &self,
        ckpt: &mut BeamCheckpoints,
        obs_len: usize,
        blob: &[u8],
    ) -> Result<(), SpinalError> {
        ckpt.reset();
        ckpt.n_levels = self.params.n_segments();
        ckpt.obs_len = obs_len;
        let limit = ckpt.max_frontier.min(self.config.max_frontier);
        let valid = self.validate_packed_blob(blob, limit)?;
        ckpt.packed.bytes.clear();
        ckpt.packed.bytes.extend_from_slice(blob);
        ckpt.packed.active = true;
        ckpt.saved.valid = valid;
        ckpt.demoted = true;
        Ok(())
    }

    /// Walks an untrusted packed image, mirroring the exact arithmetic
    /// [`unpack_checkpoints`](Self::unpack_checkpoints) will replay —
    /// including the committed-frontier evolution of the pre-prune —
    /// without computing any hashes. Returns the valid-prefix depth.
    fn validate_packed_blob(&self, blob: &[u8], limit: usize) -> Result<u32, SpinalError> {
        const CORRUPT: SpinalError = SpinalError::Snapshot {
            kind: crate::error::SnapshotErrorKind::Corrupt,
        };
        // A bounded varint pull: rejects encodings whose magnitude
        // overflows u64 instead of shifting past the accumulator (the
        // unchecked reader is only ever run on validated bytes).
        fn pull_varint_checked(r: &mut BitReader<'_>) -> Result<u64, SpinalError> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = r.pull(8);
                let group = byte & 0x7f;
                if shift >= 64 || (group << shift) >> shift != group {
                    return Err(CORRUPT);
                }
                v |= group << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
            }
        }

        let n_levels = self.params.n_segments();
        let msg_segs = self.params.message_segments();
        let k = self.params.k();
        let branch = 1usize << k;
        let total_bits = (blob.len() as u64) * 8;
        let mut r = BitReader::new(blob);

        let valid = pull_varint_checked(&mut r)?;
        if valid < 1 || valid > u64::from(n_levels) + 1 {
            return Err(CORRUPT);
        }
        let valid = valid as u32;
        // Work counters are per-level deltas; their running sums must
        // stay within u64 or the unpack's accumulation would overflow.
        let mut nodes = 0u64;
        let mut hash = 0u64;
        let pull_level_stats = |r: &mut BitReader<'_>, nodes: &mut u64, hash: &mut u64| {
            *nodes = nodes.checked_add(pull_varint_checked(r)?).ok_or(CORRUPT)?;
            *hash = hash.checked_add(pull_varint_checked(r)?).ok_or(CORRUPT)?;
            pull_varint_checked(r)?; // frontier_peak
            r.pull(1); // complete
            Ok::<(), SpinalError>(())
        };

        // Level 0 holds exactly the root.
        if pull_varint_checked(&mut r)? != 1 {
            return Err(CORRUPT);
        }
        pull_level_stats(&mut r, &mut nodes, &mut hash)?;

        let mut prev_committed = 1usize; // |C_0|: the root
        for u in 1..valid {
            let n = pull_varint_checked(&mut r)? as usize;
            // The frontier entering level `u` is the children of the
            // previous committed frontier, post-prune: bounded by both
            // the store/snapshot limit and the expansion fan-out.
            let parent_branch = if (u - 1) >= msg_segs { 1 } else { branch };
            if n < 1 || n > limit || n > prev_committed.saturating_mul(parent_branch) {
                return Err(CORRUPT);
            }
            pull_level_stats(&mut r, &mut nodes, &mut hash)?;
            let slot_bits = bits_for(prev_committed);
            let seg_bits = if (u - 1) < msg_segs { k } else { 0 };
            for _ in 0..n {
                let slot = r.pull(slot_bits) as usize;
                r.pull(seg_bits);
                if slot >= prev_committed {
                    return Err(CORRUPT);
                }
            }
            if r.overran() {
                return Err(CORRUPT);
            }
            // Replay the pre-prune's committed-frontier size for the
            // next level's slot addressing (same formula as the unpack).
            let level_branch = if u >= msg_segs { 1usize } else { branch };
            let cap_parents = (self.config.max_frontier / level_branch).max(1);
            prev_committed = n.min(cap_parents);
        }
        // The bitstream must end exactly where the walk did (up to the
        // writer's sub-byte padding): overrun means truncation, slack of
        // a byte or more means trailing garbage.
        if r.overran() || total_bits - r.bit_pos() >= 8 {
            return Err(CORRUPT);
        }
        Ok(valid)
    }

    fn check_levels(&self, obs: &Observations<M::Symbol>) {
        assert_eq!(
            obs.n_levels(),
            self.params.n_segments(),
            "observations sized for {} levels, code has {}",
            obs.n_levels(),
            self.params.n_segments()
        );
    }

    /// One level of the beam sweep: snapshot, pre-prune, arena commit,
    /// plan, expand, prune. `fr` holds the frontier entering level `t`
    /// and leaves holding the frontier entering `t + 1`; `ex` is pure
    /// scratch. Both the batch and incremental entry points are loops
    /// over this one function, so they cannot drift apart.
    #[allow(clippy::too_many_arguments)]
    fn level_core(
        &self,
        t: u32,
        obs: &Observations<M::Symbol>,
        fr: Frontier<'_>,
        ex: ExpandScratch<'_>,
        arena_parents: &mut Vec<u32>,
        arena_segs: &mut Vec<u16>,
        plans: &mut PlanSource<'_>,
        saver: Option<(&mut SavedStates, usize)>,
        stats: &mut DecodeStats,
    ) {
        let msg_segs = self.params.message_segments();
        let branch = 1usize << self.params.k();
        let bps = self.mapper.bits_per_symbol();
        let Frontier {
            spines: fr_spines,
            keys: fr_keys,
            parents: fr_parents,
            segs: fr_segs,
        } = fr;
        let ExpandScratch {
            spines: next_spines,
            keys: next_keys,
            parents: next_parents,
            segs: next_segs,
            blocks,
            seg_ids,
            order,
            selector,
        } = ex;
        if seg_ids.len() < branch {
            seg_ids.extend(seg_ids.len() as u64..branch as u64);
        }

        let root_level = t == 0;
        let level_obs = obs.at_level(t);
        let tail = t >= msg_segs;
        let level_branch = if tail { 1 } else { branch };

        // Snapshot the state entering this level so a later attempt
        // whose first new observation sits at or above `t` can resume
        // here.
        if let Some((sv, limit)) = saver {
            sv.save(
                t,
                limit,
                fr_spines,
                fr_keys,
                fr_parents,
                fr_segs,
                arena_parents.len(),
                *stats,
            );
        }

        // Pre-prune so the expansion never exceeds max_frontier.
        let cap_parents = (self.config.max_frontier / level_branch).max(1);
        if fr_spines.len() > cap_parents {
            select_into(
                order,
                selector,
                self.select_mode,
                cap_parents,
                (
                    fr_spines.as_slice(),
                    fr_keys.as_slice(),
                    fr_parents.as_slice(),
                    fr_segs.as_slice(),
                ),
                (
                    &mut *next_spines,
                    &mut *next_keys,
                    &mut *next_parents,
                    &mut *next_segs,
                ),
            );
            std::mem::swap(fr_spines, next_spines);
            std::mem::swap(fr_keys, next_keys);
            std::mem::swap(fr_parents, next_parents);
            std::mem::swap(fr_segs, next_segs);
        }

        // Commit this level's parents to the arena (children need
        // stable indices to point at).
        let parent_base = arena_parents.len() as u32;
        if !root_level {
            arena_parents.extend_from_slice(fr_parents);
            arena_segs.extend_from_slice(fr_segs);
        }

        // Plan the level once: distinct expansion blocks + one read
        // descriptor per observation; on 1-bit channels, also try to
        // collapse the whole level into XOR/popcount block masks. The
        // incremental path reuses the geometry slot while the pass list
        // matches and the packed masks while the level's observation
        // count is unchanged (observations are append-only, so equal
        // count means equal content).
        let (plan_blocks, plan_reads, plan_packed): (&[u64], &[ObsRead], &[PackedMask]) =
            match plans {
                PlanSource::Scratch {
                    block_ids,
                    reads,
                    packed,
                } => {
                    build_plan(
                        &self.mapper,
                        &self.cost,
                        level_obs,
                        bps,
                        block_ids,
                        reads,
                        packed,
                    );
                    (block_ids, reads, packed)
                }
                PlanSource::Cached { cache, geo } => {
                    geo.refresh(level_obs, bps);
                    let p = &mut cache[t as usize];
                    if p.obs_len != level_obs.len() {
                        build_packed(
                            &self.mapper,
                            &self.cost,
                            level_obs,
                            bps,
                            &geo.block_ids,
                            &mut p.packed,
                        );
                        p.obs_len = level_obs.len();
                    }
                    (&geo.block_ids, &geo.reads, &p.packed)
                }
            };

        // Expand every parent into the pre-sized child buffers.
        let n_parents = fr_spines.len();
        let n_children = n_parents * level_branch;
        next_spines.clear();
        next_spines.resize(n_children, 0);
        next_keys.clear();
        next_keys.resize(n_children, 0);
        next_parents.clear();
        next_parents.resize(n_children, 0);
        next_segs.clear();
        next_segs.resize(n_children, 0);
        expand_level(
            &self.hash,
            &self.mapper,
            &self.cost,
            self.kernel_dispatch,
            fr_spines,
            fr_keys,
            parent_base,
            root_level,
            &seg_ids[..level_branch],
            level_obs,
            plan_blocks,
            plan_reads,
            plan_packed,
            blocks,
            next_spines,
            next_keys,
            next_parents,
            next_segs,
        );
        stats.nodes_expanded += n_children as u64;
        stats.frontier_peak = stats.frontier_peak.max(n_children);
        // One spine-step hash per child, plus one hash per distinct
        // expansion block per child at observed levels.
        stats.hash_calls += n_children as u64 * (1 + plan_blocks.len() as u64);

        // Prune: to B at observed levels (or always, if deferral is
        // off); otherwise only enforce the frontier cap.
        let keep = if !level_obs.is_empty() || !self.config.defer_prune_unobserved {
            self.config.beam_width
        } else {
            self.config.max_frontier
        };
        if n_children > keep {
            select_into(
                order,
                selector,
                self.select_mode,
                keep,
                (
                    next_spines.as_slice(),
                    next_keys.as_slice(),
                    next_parents.as_slice(),
                    next_segs.as_slice(),
                ),
                (
                    &mut *fr_spines,
                    &mut *fr_keys,
                    &mut *fr_parents,
                    &mut *fr_segs,
                ),
            );
        } else {
            std::mem::swap(fr_spines, next_spines);
            std::mem::swap(fr_keys, next_keys);
            std::mem::swap(fr_parents, next_parents);
            std::mem::swap(fr_segs, next_segs);
        }
    }

    /// The tail of a sweep: snapshot the final frontier (entry
    /// `n_levels`, so an attempt with no new observations is a pure
    /// re-rank), rank the survivors, and materialize `out`.
    #[allow(clippy::too_many_arguments)]
    fn finish_core(
        &self,
        fr: Frontier<'_>,
        arena_parents: &[u32],
        arena_segs: &[u16],
        saver: Option<(&mut SavedStates, usize)>,
        order: &mut Vec<u32>,
        selector: &mut SelectScratch,
        path: &mut Vec<u16>,
        stats: DecodeStats,
        out: &mut DecodeResult,
    ) {
        let n_levels = self.params.n_segments();
        let Frontier {
            spines: fr_spines,
            keys: fr_keys,
            parents: fr_parents,
            segs: fr_segs,
        } = fr;
        if let Some((sv, limit)) = saver {
            sv.save(
                n_levels,
                limit,
                fr_spines,
                fr_keys,
                fr_parents,
                fr_segs,
                arena_parents.len(),
                stats,
            );
        }

        // Rank the surviving hypotheses: select the top-B, sort only
        // those (canonical (cost, index) order over the integer keys —
        // identical to a stable full sort by cost).
        let n = fr_spines.len();
        let take = n.min(self.config.beam_width.max(1));
        if n > take {
            select::select_smallest(fr_keys, take, order, selector, self.select_mode);
        } else {
            order.clear();
            order.extend(0..n as u32);
            order.sort_unstable_by(&by_key_then_index(fr_keys));
        }

        // Materialize the result, reusing the output buffers.
        out.stats = stats;
        out.candidates.truncate(take);
        while out.candidates.len() < take {
            out.candidates.push(Candidate {
                message: BitVec::new(),
                cost: 0.0,
            });
        }
        for (slot, &idx) in out.candidates.iter_mut().zip(order.iter()) {
            let i = idx as usize;
            // The finish boundary is where f64 costs re-materialize:
            // `key_cost` is the exact inverse of `cost_key`, so the
            // reported cost is bit-identical to the accumulated float.
            slot.cost = key_cost(fr_keys[i]);
            backtrack_into(
                &self.params,
                arena_parents,
                arena_segs,
                fr_parents[i],
                fr_segs[i],
                path,
                &mut slot.message,
            );
        }
        out.cost = out.candidates[0].cost;
        let best = &out.candidates[0].message;
        out.message.clear();
        out.message.extend_from(best);
    }
}

/// Initializes the frontier to the root placeholder (not in the arena;
/// its children use parent = `u32::MAX`) and clears the arena.
fn init_root(
    fr_spines: &mut Vec<u64>,
    fr_keys: &mut Vec<u64>,
    fr_parents: &mut Vec<u32>,
    fr_segs: &mut Vec<u16>,
    arena_parents: &mut Vec<u32>,
    arena_segs: &mut Vec<u16>,
) {
    fr_spines.clear();
    fr_keys.clear();
    fr_parents.clear();
    fr_segs.clear();
    fr_spines.push(INITIAL_SPINE);
    fr_keys.push(cost_key(0.0));
    fr_parents.push(u32::MAX);
    fr_segs.push(0);
    arena_parents.clear();
    arena_segs.clear();
}

/// The work counters a from-scratch attempt starts with.
fn fresh_stats(kernel_dispatch: KernelDispatch) -> DecodeStats {
    DecodeStats {
        nodes_expanded: 0,
        frontier_peak: 1,
        hash_calls: 0,
        complete: true,
        kernel_dispatch,
    }
}

/// Builds one level's hash-block plan (and, on bit channels, the packed
/// XOR/popcount masks) into the given buffers.
fn build_plan<M: Mapper, C: CostModel<M::Symbol>>(
    mapper: &M,
    cost: &C,
    level_obs: &[(u32, M::Symbol)],
    bps: u32,
    block_ids: &mut Vec<u64>,
    reads: &mut Vec<ObsRead>,
    packed: &mut Vec<PackedMask>,
) {
    packed.clear();
    if level_obs.is_empty() {
        block_ids.clear();
        reads.clear();
        return;
    }
    batch::plan_level(level_obs.iter().map(|&(p, _)| p), bps, block_ids, reads);
    build_packed(mapper, cost, level_obs, bps, block_ids, packed);
}

/// Builds just the packed XOR/popcount masks for one level against an
/// already-built geometry (`block_ids`) — the per-session half of a
/// plan (the masks embed observed bit values, so they cannot be shared
/// across sessions).
fn build_packed<M: Mapper, C: CostModel<M::Symbol>>(
    mapper: &M,
    cost: &C,
    level_obs: &[(u32, M::Symbol)],
    bps: u32,
    block_ids: &[u64],
    packed: &mut Vec<PackedMask>,
) {
    packed.clear();
    if level_obs.is_empty() || bps != 1 || !mapper.bit_identity() {
        return;
    }
    let mut packable = true;
    let bits = level_obs
        .iter()
        .map_while(|&(pass, sym)| match cost.packed_bit(sym) {
            Some(bit) => Some((pass, bit)),
            None => {
                packable = false;
                None
            }
        });
    if !batch::plan_packed_level(bits, block_ids, packed) || !packable {
        packed.clear();
    }
}

/// Keeps the `keep` lowest-cost entries of `src` in canonical
/// `(cost, expansion index)` order, writing them into `dst` (cleared
/// first). The canonical tie-break realizes the paper's "breaking ties
/// arbitrarily" deterministically, and matches a stable sort by cost.
/// Ranking reads the order-preserving integer keys, never the floats
/// ([`crate::decode::select`] proves the two orders identical).
type SoaRef<'a> = (&'a [u64], &'a [u64], &'a [u32], &'a [u16]);
type SoaMut<'a> = (
    &'a mut Vec<u64>,
    &'a mut Vec<u64>,
    &'a mut Vec<u32>,
    &'a mut Vec<u16>,
);

/// The canonical total order every selection in this module uses: cost
/// key ascending, position (expansion index) breaking ties. Identical
/// to the `(f64 cost, index)` order [`crate::decode::reference`] ranks
/// by — the key transform is order-preserving.
fn by_key_then_index(keys: &[u64]) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + '_ {
    move |a: &u32, b: &u32| keys[*a as usize].cmp(&keys[*b as usize]).then(a.cmp(b))
}

fn select_into(
    order: &mut Vec<u32>,
    selector: &mut SelectScratch,
    mode: SelectMode,
    keep: usize,
    src: SoaRef<'_>,
    dst: SoaMut<'_>,
) {
    let (src_spines, src_keys, src_parents, src_segs) = src;
    let (dst_spines, dst_keys, dst_parents, dst_segs) = dst;
    debug_assert!(src_keys.len() > keep);
    select::select_smallest(src_keys, keep, order, selector, mode);
    dst_spines.clear();
    dst_keys.clear();
    dst_parents.clear();
    dst_segs.clear();
    for &i in order.iter() {
        let i = i as usize;
        dst_spines.push(src_spines[i]);
        dst_keys.push(src_keys[i]);
        dst_parents.push(src_parents[i]);
        dst_segs.push(src_segs[i]);
    }
}

/// Expands one level with the flat loop over its parents, batched: each
/// parent's whole child row is spine-hashed in one
/// [`SpineHash::hash_batch_fixed_state`] sweep (directly into the output
/// spine row), the row's expansion blocks are filled block-major by
/// [`batch::fill_blocks_for_spines`] into `blocks`, and only the
/// per-observation cost accumulation runs per child. Output slices hold
/// exactly the level's children.
#[allow(clippy::too_many_arguments)]
fn expand_level<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>>(
    hash: &H,
    mapper: &M,
    cost: &C,
    dispatch: KernelDispatch,
    parent_spines: &[u64],
    parent_keys: &[u64],
    parent_base: u32,
    root_level: bool,
    seg_ids: &[u64],
    level_obs: &[(u32, M::Symbol)],
    block_ids: &[u64],
    reads: &[ObsRead],
    packed: &[PackedMask],
    blocks: &mut Vec<u64>,
    out_spines: &mut [u64],
    out_keys: &mut [u64],
    out_parents: &mut [u32],
    out_segs: &mut [u16],
) {
    let level_branch = seg_ids.len();
    debug_assert_eq!(out_spines.len(), parent_spines.len() * level_branch);
    blocks.clear();
    blocks.resize(block_ids.len() * level_branch, 0);
    // Chunked iterators instead of indexed writes: one child row per
    // `zip` step, no bounds checks in the hot loop.
    let parents = parent_spines.iter().zip(parent_keys);
    let children = out_spines
        .chunks_exact_mut(level_branch)
        .zip(out_keys.chunks_exact_mut(level_branch))
        .zip(out_parents.chunks_exact_mut(level_branch))
        .zip(out_segs.chunks_exact_mut(level_branch));
    for (p, ((&pspine, &pkey), (((row_s, row_k), row_p), row_g))) in
        parents.zip(children).enumerate()
    {
        let parent_idx = if root_level {
            u32::MAX
        } else {
            parent_base + p as u32
        };
        // One batched hash sweep computes the whole child-spine row.
        hash.hash_batch_fixed_state(pspine, seg_ids, row_s);
        if reads.is_empty() {
            row_k.fill(pkey);
        } else {
            // The parent's float cost is rebuilt from its key once per
            // row (register-only; the frontier stores keys exclusively)
            // so the accumulation order matches the from-scratch path
            // bit-for-bit.
            let pcost = key_cost(pkey);
            // One batched sweep per distinct expansion block fills the
            // row's block cache (block-major), then the cost loop reads
            // cached words only.
            batch::fill_blocks_for_spines(hash, row_s, block_ids, blocks);
            if !packed.is_empty() {
                // Bit-channel fast path: the level's whole Hamming cost
                // is an XOR + popcount per cached block, accumulated in
                // integer arithmetic end-to-end on the selected SIMD
                // tier. Exact — packed costs are small integers, so the
                // key it materializes is bit-identical to the
                // per-observation loop's.
                kernels::packed_row_costs(dispatch, blocks, level_branch, packed, pcost, row_k);
            } else {
                for (c, slot_k) in row_k.iter_mut().enumerate() {
                    let mut acc = pcost;
                    for (r, &(_, observed)) in reads.iter().zip(level_obs) {
                        let hyp = mapper.map(batch::read_obs_strided(blocks, level_branch, c, r));
                        acc += cost.cost(observed, hyp);
                    }
                    *slot_k = cost_key(acc);
                }
            }
        }
        row_p.fill(parent_idx);
        for (seg, slot_g) in row_g.iter_mut().enumerate() {
            *slot_g = seg as u16;
        }
    }
}

/// Reconstructs the message bits along a leaf's root path into `out`
/// (cleared first), using `path` as the segment scratch buffer.
fn backtrack_into(
    params: &CodeParams,
    arena_parents: &[u32],
    arena_segs: &[u16],
    leaf_parent: u32,
    leaf_seg: u16,
    path: &mut Vec<u16>,
    out: &mut BitVec,
) {
    path.clear();
    path.push(leaf_seg);
    let mut idx = leaf_parent;
    while idx != u32::MAX {
        path.push(arena_segs[idx as usize]);
        idx = arena_parents[idx as usize];
    }
    path.reverse();
    debug_assert_eq!(path.len(), params.n_segments() as usize);
    let k = params.k() as usize;
    out.clear();
    for &seg in path.iter().take(params.message_segments() as usize) {
        for i in (0..k).rev() {
            out.push((seg >> i) & 1 == 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::cost::{AwgnCost, BscCost};
    use crate::decode::reference::reference_decode;
    use crate::encode::Encoder;
    use crate::hash::Lookup3;
    use crate::map::{BinaryMapper, LinearMapper};
    use crate::symbol::Slot;
    use proptest::prelude::*;

    fn params(bits: u32, k: u32, tail: u32) -> CodeParams {
        CodeParams::builder()
            .message_bits(bits)
            .k(k)
            .tail_segments(tail)
            .seed(42)
            .build()
            .unwrap()
    }

    fn noiseless_obs(
        enc: &Encoder<Lookup3, LinearMapper>,
        passes: u32,
    ) -> Observations<crate::symbol::IqSymbol> {
        let mut obs = Observations::new(enc.params().n_segments());
        for pass in 0..passes {
            for t in 0..enc.params().n_segments() {
                let slot = Slot::new(t, pass);
                obs.push(slot, enc.symbol(slot));
            }
        }
        obs
    }

    #[test]
    fn decodes_noiseless_awgn() {
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[0x13, 0x37, 0xbe]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let res = dec.decode(&noiseless_obs(&enc, 1));
        assert_eq!(res.message, msg);
        assert_eq!(res.cost, 0.0);
        assert!(res.stats.complete);
    }

    #[test]
    fn decodes_noiseless_bsc() {
        let p = params(16, 4, 0);
        let msg = BitVec::from_bytes(&[0xa5, 0x3c]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), BinaryMapper::new(), &msg).unwrap();
        let mut obs = Observations::new(p.n_segments());
        for pass in 0..8 {
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, pass);
                obs.push(slot, enc.symbol(slot));
            }
        }
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            BinaryMapper::new(),
            BscCost,
            BeamConfig::with_beam(4),
        )
        .unwrap();
        let res = dec.decode(&obs);
        assert_eq!(res.message, msg);
        assert_eq!(res.cost, 0.0);
    }

    #[test]
    fn recovers_from_bsc_bit_flips() {
        // Flip a few received bits; with enough passes Hamming-ML recovers.
        let p = params(16, 4, 0);
        let msg = BitVec::from_bytes(&[0x7e, 0x81]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), BinaryMapper::new(), &msg).unwrap();
        let mut obs = Observations::new(p.n_segments());
        let mut flipped = 0;
        for pass in 0..16 {
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, pass);
                let mut bit = enc.symbol(slot);
                // Deterministically corrupt every 7th symbol.
                if (pass * p.n_segments() + t) % 7 == 3 {
                    bit ^= 1;
                    flipped += 1;
                }
                obs.push(slot, bit);
            }
        }
        assert!(flipped > 0);
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            BinaryMapper::new(),
            BscCost,
            BeamConfig::with_beam(16),
        )
        .unwrap();
        let res = dec.decode(&obs);
        assert_eq!(res.message, msg);
        assert!(res.cost > 0.0, "corrupted symbols must show up as cost");
    }

    #[test]
    fn unobserved_gap_recovered_with_deferral() {
        // Observe levels 0 and 2 only (the punctured high-SNR situation).
        // With deferral the decoder carries all 2^k continuations across
        // level 1 and the level-2 observation disambiguates.
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[0x42, 0x99, 0x17]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let mut obs = Observations::new(3);
        for &t in &[0u32, 2] {
            for pass in 0..2 {
                let slot = Slot::new(t, pass);
                obs.push(slot, enc.symbol(slot));
            }
        }
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let res = dec.decode(&obs);
        assert_eq!(res.message, msg, "deferral must bridge the gap");

        // Without deferral the beam prunes blindly at level 1 and almost
        // surely loses the true path (16 of 256 survive).
        let literal = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig {
                defer_prune_unobserved: false,
                ..BeamConfig::paper_default()
            },
        )
        .unwrap();
        let res2 = literal.decode(&obs);
        // (Not asserting failure — it is probabilistic — but the work
        // done must be strictly smaller without deferral.)
        assert!(res2.stats.frontier_peak <= res.stats.frontier_peak);
    }

    #[test]
    fn tail_segments_only_expand_zero_branch() {
        let p = params(16, 8, 2);
        let msg = BitVec::from_bytes(&[0xaa, 0x55]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(8), &msg).unwrap();
        let mut obs = Observations::new(p.n_segments());
        for t in 0..p.n_segments() {
            let slot = Slot::new(t, 0);
            obs.push(slot, enc.symbol(slot));
        }
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(8),
            AwgnCost,
            BeamConfig::with_beam(4),
        )
        .unwrap();
        let res = dec.decode(&obs);
        assert_eq!(res.message, msg);
        assert_eq!(res.message.len(), 16, "tail bits are stripped");
        // Work bound: levels 0,1 expand 4·256; tail levels expand ≤ 4·1.
        assert!(res.stats.nodes_expanded <= 2 * 4 * 256 + 2 * 4 + 256);
    }

    #[test]
    fn beam_one_is_greedy_and_cheap() {
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[1, 2, 3]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::with_beam(1),
        )
        .unwrap();
        let res = dec.decode(&noiseless_obs(&enc, 1));
        // Noiseless: even B = 1 follows the zero-cost path.
        assert_eq!(res.message, msg);
        // Exactly 2^8 children per level, 3 levels.
        assert_eq!(res.stats.nodes_expanded, 3 * 256);
        assert_eq!(res.candidates.len(), 1);
    }

    #[test]
    fn candidates_sorted_and_bounded() {
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[0xf0, 0x0f, 0x3c]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::with_beam(8),
        )
        .unwrap();
        let res = dec.decode(&noiseless_obs(&enc, 2));
        assert!(res.candidates.len() <= 8);
        for w in res.candidates.windows(2) {
            assert!(w[0].cost <= w[1].cost, "candidates must be sorted");
        }
        assert_eq!(res.candidates[0].message, res.message);
    }

    #[test]
    fn empty_observations_return_some_message() {
        let p = params(24, 8, 0);
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::with_beam(2),
        )
        .unwrap();
        let res = dec.decode(&Observations::new(3));
        assert_eq!(res.message.len(), 24);
        assert_eq!(res.cost, 0.0);
    }

    #[test]
    fn scratch_reuse_is_equivalent_and_stable() {
        // The same scratch carried across attempts (and across decoders
        // of different shapes) must not change any output.
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[0x11, 0x22, 0x33]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let mut scratch = DecoderScratch::new();
        let mut out = DecodeResult::default();
        for passes in [1u32, 2, 3, 1] {
            let obs = noiseless_obs(&enc, passes);
            let fresh = dec.decode(&obs);
            dec.decode_into(&obs, &mut scratch, &mut out);
            assert_eq!(out.message, fresh.message, "passes {passes}");
            assert_eq!(out.cost.to_bits(), fresh.cost.to_bits());
            assert_eq!(out.candidates, fresh.candidates);
            assert_eq!(out.stats, fresh.stats);
        }
    }

    #[test]
    fn matches_reference_implementation() {
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[0x5a, 0xc3, 0x96]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let obs = noiseless_obs(&enc, 3);
        let opt = dec.decode(&obs);
        let reference = reference_decode(
            &p,
            &Lookup3::new(p.seed()),
            &LinearMapper::new(10),
            &AwgnCost,
            &BeamConfig::paper_default(),
            &obs,
        );
        assert_eq!(opt.message, reference.message);
        assert_eq!(opt.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(opt.candidates, reference.candidates);
        assert_eq!(opt.stats.nodes_expanded, reference.stats.nodes_expanded);
        assert_eq!(opt.stats.frontier_peak, reference.stats.frontier_peak);
    }

    #[test]
    fn duplicate_bit_observations_fall_back_and_match_reference() {
        // The same slot received twice (e.g. a repeated transmission):
        // the XOR/popcount packing must bail (it would count the
        // duplicate once) and the generic loop must match the reference
        // bit-for-bit.
        let p = params(16, 4, 0);
        let msg = BitVec::from_bytes(&[0x3c, 0x99]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), BinaryMapper::new(), &msg).unwrap();
        let mut obs = Observations::new(p.n_segments());
        for pass in 0..6 {
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, pass);
                let mut bit = enc.symbol(slot);
                if (pass + t) % 5 == 1 {
                    bit ^= 1;
                }
                obs.push(slot, bit);
                if pass == 2 {
                    obs.push(slot, bit ^ 1); // duplicate stream bit
                }
            }
        }
        let cfg = BeamConfig::with_beam(8);
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            BinaryMapper::new(),
            BscCost,
            cfg,
        )
        .unwrap();
        let opt = dec.decode(&obs);
        let reference = reference_decode(
            &p,
            &Lookup3::new(p.seed()),
            &BinaryMapper::new(),
            &BscCost,
            &cfg,
            &obs,
        );
        assert_eq!(opt.message, reference.message);
        assert_eq!(opt.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(opt.candidates, reference.candidates);
    }

    #[test]
    fn hash_dedup_cuts_hash_calls_on_multi_observation_levels() {
        // 4 passes at c = 10 (20 bits/symbol) read blocks {0, 1}: the
        // naive decoder hashes ≥ 4 expansion blocks per child, the
        // deduplicated engine exactly 2.
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[0xab, 0xcd, 0xef]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let obs = noiseless_obs(&enc, 4);
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let opt = dec.decode(&obs);
        let reference = reference_decode(
            &p,
            &Lookup3::new(p.seed()),
            &LinearMapper::new(10),
            &AwgnCost,
            &BeamConfig::paper_default(),
            &obs,
        );
        assert!(
            opt.stats.hash_calls * 2 <= reference.stats.hash_calls,
            "dedup {} vs naive {}",
            opt.stats.hash_calls,
            reference.stats.hash_calls
        );
    }

    /// The wide cost engine's central claim: every supported SIMD tier
    /// × both selection algorithms produces bit-identical decodes, on
    /// both the packed-bit (BSC) and soft (AWGN) paths, with the tier
    /// reported in the stats.
    #[test]
    fn all_kernel_tiers_and_select_modes_bit_identical() {
        // Packed-bit path (integer cost accumulation + popcount
        // collapse + radix select over integer keys).
        let p = params(32, 4, 0);
        let msg = BitVec::from_bytes(&[0x1b, 0xe7, 0x44, 0x92]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), BinaryMapper::new(), &msg).unwrap();
        let mut obs = Observations::new(p.n_segments());
        for pass in 0..12u32 {
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, pass);
                let mut bit = enc.symbol(slot);
                if (pass * 31 + t * 7) % 11 == 2 {
                    bit ^= 1;
                }
                obs.push(slot, bit);
            }
        }
        let make = |tier, mode| {
            BeamDecoder::new(
                &p,
                Lookup3::new(p.seed()).with_dispatch(tier),
                BinaryMapper::new(),
                BscCost,
                BeamConfig::with_beam(8),
            )
            .unwrap()
            .with_kernel_dispatch(tier)
            .with_select_mode(mode)
        };
        let baseline = make(KernelDispatch::Scalar, SelectMode::Comparator).decode(&obs);
        for tier in KernelDispatch::supported() {
            for mode in [SelectMode::Auto, SelectMode::Comparator] {
                let dec = make(tier, mode);
                let res = dec.decode(&obs);
                assert_eq!(res.message, baseline.message, "{tier} {mode:?}");
                assert_eq!(res.cost.to_bits(), baseline.cost.to_bits());
                assert_eq!(res.candidates, baseline.candidates);
                assert_eq!(res.stats.nodes_expanded, baseline.stats.nodes_expanded);
                assert_eq!(res.stats.hash_calls, baseline.stats.hash_calls);
                assert_eq!(res.stats.kernel_dispatch, tier, "stats report the tier");
            }
        }

        // Soft path (f64 costs through the order-preserving key
        // transform).
        let pa = params(24, 8, 0);
        let msga = BitVec::from_bytes(&[0x42, 0x13, 0x37]);
        let enca =
            Encoder::new(&pa, Lookup3::new(pa.seed()), LinearMapper::new(10), &msga).unwrap();
        let obsa = noiseless_obs(&enca, 2);
        let base = BeamDecoder::new(
            &pa,
            Lookup3::new(pa.seed()).with_dispatch(KernelDispatch::Scalar),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap()
        .with_kernel_dispatch(KernelDispatch::Scalar)
        .with_select_mode(SelectMode::Comparator)
        .decode(&obsa);
        for tier in KernelDispatch::supported() {
            let res = BeamDecoder::new(
                &pa,
                Lookup3::new(pa.seed()).with_dispatch(tier),
                LinearMapper::new(10),
                AwgnCost,
                BeamConfig::paper_default(),
            )
            .unwrap()
            .with_kernel_dispatch(tier)
            .decode(&obsa);
            assert_eq!(res.message, base.message, "{tier}");
            assert_eq!(res.cost.to_bits(), base.cost.to_bits());
            assert_eq!(res.candidates, base.candidates);
        }
    }

    #[test]
    #[should_panic(expected = "observations sized for")]
    fn level_count_mismatch_panics() {
        let p = params(24, 8, 0);
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::default(),
        )
        .unwrap();
        dec.decode(&Observations::new(5));
    }

    #[test]
    fn invalid_config_rejected_with_typed_error() {
        let p = params(24, 8, 0);
        for (beam_width, max_frontier) in [(64usize, 8usize), (0, 8)] {
            let err = BeamDecoder::new(
                &p,
                Lookup3::new(p.seed()),
                LinearMapper::new(10),
                AwgnCost,
                BeamConfig {
                    beam_width,
                    max_frontier,
                    defer_prune_unobserved: true,
                },
            )
            .unwrap_err();
            assert_eq!(
                err,
                crate::error::SpinalError::BeamConfig {
                    beam_width,
                    max_frontier
                }
            );
        }
    }

    /// The incremental entry point must be bit-identical to the batch
    /// decode at every step of a growing observation set, for every
    /// chunking of arrivals (per symbol, per sub-pass, per pass) and
    /// under strided puncturing where resumption actually skips levels.
    #[test]
    fn incremental_decode_matches_batch_at_every_step() {
        use crate::puncture::{PunctureSchedule, StridedPuncture};
        let p = params(64, 8, 0); // 8 levels: strided sub-passes skip prefixes
        let msg = BitVec::from_bytes(&[0x1f, 0x2e, 0x3d, 0x4c, 0x5b, 0x6a, 0x79, 0x88]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::with_beam(4),
        )
        .unwrap();
        let sched = StridedPuncture::stride8();
        let mut obs = Observations::new(p.n_segments());
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut inc = DecodeResult::default();
        for g in 0..24u32 {
            let slots = sched.subpass_slots(p.n_segments(), g);
            if slots.is_empty() {
                continue;
            }
            let dirty = slots.iter().map(|s| s.t).min().unwrap();
            for &slot in &slots {
                obs.push(slot, enc.symbol(slot));
            }
            dec.decode_incremental(&obs, dirty, &mut ckpt, &mut scratch, &mut inc);
            let batch = dec.decode(&obs);
            assert_eq!(inc.message, batch.message, "subpass {g}");
            assert_eq!(inc.cost.to_bits(), batch.cost.to_bits());
            assert_eq!(inc.candidates, batch.candidates);
            assert_eq!(inc.stats, batch.stats, "stats are as-if-from-scratch");
        }
        assert!(
            ckpt.levels_resumed() > 0,
            "strided sub-passes must have resumed past saved levels"
        );
    }

    /// One-symbol-at-a-time arrivals (the link-simulation pattern): every
    /// retry after a symbol at level t resumes at t.
    #[test]
    fn incremental_decode_per_symbol_arrivals() {
        let p = params(40, 8, 0);
        let msg = BitVec::from_bytes(&[9, 8, 7, 6, 5]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let mut obs = Observations::new(p.n_segments());
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut inc = DecodeResult::default();
        for pass in 0..2u32 {
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, pass);
                obs.push(slot, enc.symbol(slot));
                dec.decode_incremental(&obs, t, &mut ckpt, &mut scratch, &mut inc);
                let batch = dec.decode(&obs);
                assert_eq!(inc.message, batch.message, "pass {pass} t {t}");
                assert_eq!(inc.cost.to_bits(), batch.cost.to_bits());
                assert_eq!(inc.candidates, batch.candidates);
                assert_eq!(inc.stats, batch.stats);
            }
        }
        // Re-rank with nothing new: still identical.
        dec.decode_incremental(&obs, p.n_segments(), &mut ckpt, &mut scratch, &mut inc);
        let batch = dec.decode(&obs);
        assert_eq!(inc.candidates, batch.candidates);
        // 5 levels x 10 arrivals: levels below the dirty one are skipped.
        assert!(ckpt.levels_resumed() >= 10, "{}", ckpt.levels_resumed());
    }

    /// Clearing the observations without resetting the checkpoints is
    /// caught by the shrinkage guard; resetting works too.
    #[test]
    fn incremental_checkpoints_survive_reset_and_shrink() {
        let p = params(24, 8, 0);
        let msg_a = BitVec::from_bytes(&[1, 2, 3]);
        let msg_b = BitVec::from_bytes(&[4, 5, 6]);
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut out = DecodeResult::default();
        for (msg, use_reset) in [(&msg_a, false), (&msg_b, true), (&msg_a, false)] {
            let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), msg).unwrap();
            let mut obs = Observations::new(p.n_segments());
            if use_reset {
                ckpt.reset();
            }
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, 0);
                obs.push(slot, enc.symbol(slot));
                // A fresh (smaller) observation set: the shrinkage guard
                // must invalidate stale checkpoints even without reset().
                dec.decode_incremental(&obs, t, &mut ckpt, &mut scratch, &mut out);
                assert_eq!(out.candidates, dec.decode(&obs).candidates, "t {t}");
            }
            assert_eq!(out.message, *msg);
        }
    }

    /// Duplicate observations at one level (packed-mask fallback) under
    /// incremental retries: the cached plan is rebuilt when the level's
    /// count changes and results stay identical to batch.
    #[test]
    fn incremental_decode_bsc_duplicates_match_batch() {
        let p = params(16, 4, 0);
        let msg = BitVec::from_bytes(&[0x3c, 0x99]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), BinaryMapper::new(), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            BinaryMapper::new(),
            BscCost,
            BeamConfig::with_beam(8),
        )
        .unwrap();
        let mut obs = Observations::new(p.n_segments());
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut inc = DecodeResult::default();
        for pass in 0..6u32 {
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, pass);
                let mut bit = enc.symbol(slot);
                if (pass + t) % 5 == 1 {
                    bit ^= 1;
                }
                obs.push(slot, bit);
                if pass == 2 {
                    obs.push(slot, bit ^ 1); // duplicate stream bit
                }
            }
            dec.decode_incremental(&obs, 0, &mut ckpt, &mut scratch, &mut inc);
            let batch = dec.decode(&obs);
            assert_eq!(inc.message, batch.message, "pass {pass}");
            assert_eq!(inc.cost.to_bits(), batch.cost.to_bits());
            assert_eq!(inc.candidates, batch.candidates);
        }
    }

    /// Demoting to the packed tier between attempts must be invisible:
    /// every restore recomputes the snapshots bit-for-bit, so results
    /// (message, costs, candidates, stats) stay identical to batch at
    /// every step. Strided puncturing plus a tight frontier cap makes
    /// the unpack replay pre-prunes and multi-level resumption.
    #[test]
    fn demoted_checkpoints_restore_bit_identical() {
        use crate::puncture::{PunctureSchedule, StridedPuncture};
        let p = params(32, 4, 0); // 8 levels, branch 16
        let msg = BitVec::from_bytes(&[0xa5, 0x17, 0x68, 0xf3]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig {
                beam_width: 8,
                max_frontier: 64,
                defer_prune_unobserved: true,
            },
        )
        .unwrap();
        let sched = StridedPuncture::stride8();
        let mut obs = Observations::new(p.n_segments());
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut inc = DecodeResult::default();
        let mut raw_peak = 0usize;
        for g in 0..24u32 {
            let slots = sched.subpass_slots(p.n_segments(), g);
            if slots.is_empty() {
                continue;
            }
            let dirty = slots.iter().map(|s| s.t).min().unwrap();
            for &slot in &slots {
                obs.push(slot, enc.symbol(slot));
            }
            dec.decode_incremental(&obs, dirty, &mut ckpt, &mut scratch, &mut inc);
            let batch = dec.decode(&obs);
            assert_eq!(inc.message, batch.message, "subpass {g}");
            assert_eq!(inc.cost.to_bits(), batch.cost.to_bits());
            assert_eq!(inc.candidates, batch.candidates);
            assert_eq!(inc.stats, batch.stats, "stats are as-if-from-scratch");
            raw_peak = raw_peak.max(ckpt.memory_bytes());
            // Demote after every attempt: the next one must unpack.
            assert!(ckpt.demote(), "a finished attempt is always demotable");
            assert!(ckpt.is_demoted());
            assert!(
                ckpt.memory_bytes() <= ckpt.packed_bytes(),
                "demote leaves only the packed image resident"
            );
        }
        assert!(ckpt.levels_resumed() > 0, "resumption must have happened");
        assert!(ckpt.unpacks() > 0, "demoted restores must have unpacked");
        assert!(ckpt.packs() > 0);
        assert!(
            ckpt.packed_bytes() * 5 <= raw_peak,
            "packed tier ({}) must be >=5x smaller than raw ({})",
            ckpt.packed_bytes(),
            raw_peak
        );
    }

    /// Demote/unpack on the bit-channel packed-kernel path, across every
    /// supported SIMD tier: the unpack recompute routes through the same
    /// XOR/popcount kernel, so restored keys are bit-identical on all of
    /// them.
    #[test]
    fn demoted_checkpoints_bit_identical_across_kernel_tiers() {
        let p = params(64, 4, 0);
        let msg = BitVec::from_bytes(&[0x3c, 0x99, 0x5a, 0xc3, 0x0f, 0xf0, 0x81, 0x7e]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), BinaryMapper::new(), &msg).unwrap();
        for tier in KernelDispatch::supported() {
            let dec = BeamDecoder::new(
                &p,
                Lookup3::new(p.seed()).with_dispatch(tier),
                BinaryMapper::new(),
                BscCost,
                BeamConfig::with_beam(8),
            )
            .unwrap()
            .with_kernel_dispatch(tier);
            let mut obs = Observations::new(p.n_segments());
            let mut ckpt = BeamCheckpoints::new();
            let mut scratch = DecoderScratch::new();
            let mut inc = DecodeResult::default();
            for pass in 0..3u32 {
                for t in 0..p.n_segments() {
                    let slot = Slot::new(t, pass);
                    let mut bit = enc.symbol(slot);
                    if (pass + t) % 7 == 2 {
                        bit ^= 1;
                    }
                    obs.push(slot, bit);
                    // Demote before each retry: resumption at `t` must
                    // unpack every saved level below it.
                    ckpt.demote();
                    dec.decode_incremental(&obs, t, &mut ckpt, &mut scratch, &mut inc);
                    let batch = dec.decode(&obs);
                    assert_eq!(inc.message, batch.message, "{tier} pass {pass} t {t}");
                    assert_eq!(inc.cost.to_bits(), batch.cost.to_bits());
                    assert_eq!(inc.candidates, batch.candidates);
                    assert_eq!(inc.stats, batch.stats);
                }
            }
            assert!(ckpt.unpacks() > p.n_segments() as u64, "{tier}");
        }
    }

    /// Deep resumption out of a demoted store: per-symbol arrivals with
    /// a demote before every retry, so each restore unpacks a growing
    /// prefix (the hardest replay path: every saved level rebuilt).
    #[test]
    fn demoted_per_symbol_arrivals_match_batch() {
        let p = params(40, 8, 0);
        let msg = BitVec::from_bytes(&[9, 8, 7, 6, 5]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let mut obs = Observations::new(p.n_segments());
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut inc = DecodeResult::default();
        for pass in 0..2u32 {
            for t in 0..p.n_segments() {
                let slot = Slot::new(t, pass);
                obs.push(slot, enc.symbol(slot));
                ckpt.demote();
                dec.decode_incremental(&obs, t, &mut ckpt, &mut scratch, &mut inc);
                let batch = dec.decode(&obs);
                assert_eq!(inc.message, batch.message, "pass {pass} t {t}");
                assert_eq!(inc.cost.to_bits(), batch.cost.to_bits());
                assert_eq!(inc.candidates, batch.candidates);
                assert_eq!(inc.stats, batch.stats);
            }
        }
        assert!(ckpt.levels_resumed() >= 10);
        // Every retry whose resume level is > 0 unpacked (the t == 0
        // retries restart from the root with nothing to rebuild).
        assert!(ckpt.unpacks() >= 8, "{}", ckpt.unpacks());
    }

    /// Packing can be turned off (the blob is discarded so it can never
    /// go stale), and a store with packing off refuses to demote.
    #[test]
    fn packing_toggle_discards_blob_and_blocks_demote() {
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[1, 2, 3]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let obs = noiseless_obs(&enc, 1);
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut out = DecodeResult::default();
        dec.decode_incremental(&obs, 0, &mut ckpt, &mut scratch, &mut out);
        assert!(ckpt.can_demote());
        assert!(ckpt.packed_bytes() > 0);
        ckpt.set_packing(false);
        assert!(!ckpt.can_demote());
        assert!(!ckpt.demote());
        dec.decode_incremental(&obs, 0, &mut ckpt, &mut scratch, &mut out);
        assert!(!ckpt.can_demote(), "no blob is maintained while off");
        ckpt.set_packing(true);
        dec.decode_incremental(&obs, 0, &mut ckpt, &mut scratch, &mut out);
        assert!(ckpt.can_demote(), "re-enabled packing refills at finish");
        let batch = dec.decode(&obs);
        assert_eq!(out.candidates, batch.candidates);
    }

    /// Disabling packing on a *demoted* store discards the only
    /// surviving tier — the store must fall back to cold (full replay)
    /// rather than try to restore from the vanished blob. Regression
    /// for a crash the API fuzzer found: demote → set_packing(false) →
    /// next attempt unpacked an empty blob into an empty frontier.
    #[test]
    fn disabling_packing_while_demoted_falls_back_to_cold() {
        let p = params(24, 8, 0);
        let msg = BitVec::from_bytes(&[9, 8, 7]);
        let enc = Encoder::new(&p, Lookup3::new(p.seed()), LinearMapper::new(10), &msg).unwrap();
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(p.seed()),
            LinearMapper::new(10),
            AwgnCost,
            BeamConfig::paper_default(),
        )
        .unwrap();
        let obs = noiseless_obs(&enc, 1);
        let mut ckpt = BeamCheckpoints::new();
        let mut scratch = DecoderScratch::new();
        let mut out = DecodeResult::default();
        dec.decode_incremental(&obs, 0, &mut ckpt, &mut scratch, &mut out);
        assert!(ckpt.demote());
        ckpt.set_packing(false);
        assert!(!ckpt.is_demoted(), "cold store, not a demoted one");
        dec.decode_incremental(&obs, 2, &mut ckpt, &mut scratch, &mut out);
        let batch = dec.decode(&obs);
        assert_eq!(out.candidates, batch.candidates);
        assert_eq!(out.stats, batch.stats, "full replay, as-if-from-scratch");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Round-trip invariant: any message, noiseless channel, one full
        /// pass, paper-default beam — decoding must recover the message.
        #[test]
        fn prop_noiseless_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 3),
                                    seed in any::<u64>()) {
            let p = CodeParams::builder().message_bits(24).k(8).seed(seed).build().unwrap();
            let msg = BitVec::from_bytes(&bytes);
            let enc = Encoder::new(&p, Lookup3::new(seed), LinearMapper::new(10), &msg).unwrap();
            let mut obs = Observations::new(3);
            for t in 0..3 {
                let slot = Slot::new(t, 0);
                obs.push(slot, enc.symbol(slot));
            }
            let dec = BeamDecoder::new(&p, Lookup3::new(seed), LinearMapper::new(10),
                                       AwgnCost, BeamConfig::paper_default()).unwrap();
            let res = dec.decode(&obs);
            prop_assert_eq!(res.message, msg);
            prop_assert_eq!(res.cost, 0.0);
        }

        /// Work scales linearly with message length (the scale-down
        /// property): nodes expanded = levels · B_effective · 2^k exactly
        /// when every level is observed.
        #[test]
        fn prop_linear_work(segs in 2u32..10) {
            let p = CodeParams::builder().message_bits(4 * segs).k(4).seed(9).build().unwrap();
            let msg = BitVec::zeros((4 * segs) as usize);
            let enc = Encoder::new(&p, Lookup3::new(9), LinearMapper::new(6), &msg).unwrap();
            let mut obs = Observations::new(segs);
            for t in 0..segs {
                obs.push(Slot::new(t, 0), enc.symbol(Slot::new(t, 0)));
            }
            let b = 4usize;
            let dec = BeamDecoder::new(&p, Lookup3::new(9), LinearMapper::new(6),
                                       AwgnCost, BeamConfig::with_beam(b)).unwrap();
            let res = dec.decode(&obs);
            // Level 0 expands 1·16, later levels ≤ B·16.
            let bound = 16 + (segs as u64 - 1) * (b as u64) * 16;
            prop_assert!(res.stats.nodes_expanded <= bound);
            prop_assert_eq!(res.message.len(), (4 * segs) as usize);
        }
    }
}
