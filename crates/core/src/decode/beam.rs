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
//!   true path with probability `≈ 1 − B/2^k` per gap). The decoder
//!   instead carries the whole frontier across such levels — bounded by
//!   [`BeamConfig::max_frontier`] — and lets the next observed level do
//!   the pruning. This is what lets rates exceed `k` bits/symbol at high
//!   SNR. A long enough gap still reaches the cap, and the decoder then
//!   pre-prunes blindly, as the paper paths measure it. The decoder
//!   can also walk an attempt's frontier sizes without expanding
//!   anything, to tell whether it fits under the cap before it runs,
//!   which is how a session with
//!   [`RxConfig::exact_attempts`](crate::session::RxConfig::exact_attempts)
//!   set (every served one) waits for the symbols that fill its gap
//!   instead.
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
//!   a bijection), so ranking and pruning never touch a float, and no
//!   8-byte cost mirror per child adds to the store bandwidth. Costs are
//!   materialized (via the exact inverse
//!   [`crate::decode::select::key_cost`]) only at the finish boundary.
//!   The expansion loop walks flat slices a child row at a time and
//!   scores each row observation-major
//!   ([`crate::kernels`]' row scoring), so each observation's map + cost
//!   runs in SIMD lanes across the row's children, bit-identical to
//!   scoring one child at a time.
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

    /// Parents a level that branches `branch` ways may expand: the
    /// pre-prune bound that keeps any single expansion within
    /// `max_frontier`.
    fn parent_cap(&self, branch: usize) -> usize {
        (self.max_frontier / branch).max(1)
    }

    /// Children a level keeps: `B` at an observed level, otherwise only
    /// the frontier cap.
    fn survivors(&self, observed: bool) -> usize {
        if observed {
            self.beam_width
        } else {
            self.max_frontier
        }
    }
}

/// A decode attempt's frontier arithmetic, predicted without expanding
/// a node (see [`BeamDecoder::walk_attempt`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AttemptWalk {
    /// Every level's expansion stays within
    /// [`BeamConfig::max_frontier`]: the attempt carries every
    /// hypothesis its observations cannot yet tell apart, with no
    /// pre-prune and no blind prune at the cap, so it is bit-identical
    /// to an attempt with an unbounded frontier.
    pub(crate) fits: bool,
    /// Children the attempt generates: exactly the
    /// [`DecodeStats::nodes_expanded`] it reports.
    pub(crate) nodes: u64,
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
}

impl DecoderScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
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
    /// SIMD tier for the kernels, resolved once at construction
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

    /// The SIMD tier this decoder's kernels run on (also
    /// reported per decode in [`DecodeStats::kernel_dispatch`]).
    pub fn kernel_dispatch(&self) -> KernelDispatch {
        self.kernel_dispatch
    }

    /// Pins the kernels to a specific SIMD tier. Every tier is
    /// **bit-identical** (see [`crate::kernels`]); this is the override
    /// the benches and the CI scalar-equivalence self-check use. Tiers
    /// the CPU cannot execute silently fall back to scalar.
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

    /// Walks the frontier arithmetic of an attempt over `obs` level by
    /// level — pre-prune, expansion, prune — without hashing or
    /// allocating anything: the frontier enters level 0 as the root,
    /// and each level expands `min(F, cap) × branch` children, where a
    /// message level branches `2^k` ways and a tail level once. The
    /// walk reports whether the attempt fits (`F × branch ≤
    /// max_frontier` at every level) and the children it generates.
    ///
    /// # Panics
    ///
    /// Panics if `obs` was created for a different spine length.
    pub(crate) fn walk_attempt(&self, obs: &Observations<M::Symbol>) -> AttemptWalk {
        self.check_levels(obs);
        let msg_segs = self.params.message_segments();
        let branch = 1usize << self.params.k();
        let mut walk = AttemptWalk {
            fits: true,
            nodes: 0,
        };
        let mut frontier = 1usize;
        for t in 0..self.params.n_segments() {
            let level_branch = if t >= msg_segs { 1 } else { branch };
            walk.fits &= frontier.saturating_mul(level_branch) <= self.config.max_frontier;
            let children = frontier.min(self.config.parent_cap(level_branch)) * level_branch;
            walk.nodes += children as u64;
            frontier = children.min(self.config.survivors(!obs.at_level(t).is_empty()));
        }
        walk
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
        // The frontier starts as the root placeholder: it is not in the
        // arena, so its children point at parent `u32::MAX`.
        scratch.spines.clear();
        scratch.keys.clear();
        scratch.parents.clear();
        scratch.segs.clear();
        scratch.spines.push(INITIAL_SPINE);
        scratch.keys.push(cost_key(0.0));
        scratch.parents.push(u32::MAX);
        scratch.segs.push(0);
        scratch.arena_parents.clear();
        scratch.arena_segs.clear();
        let mut stats = DecodeStats {
            nodes_expanded: 0,
            frontier_peak: 1,
            hash_calls: 0,
            complete: true,
            kernel_dispatch: self.kernel_dispatch,
        };
        for t in 0..self.params.n_segments() {
            self.level_core(t, obs, scratch, &mut stats);
        }
        self.finish_core(scratch, stats, out);
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

    /// One level of the beam sweep: pre-prune, arena commit, plan,
    /// expand, prune. The scratch's frontier enters level `t` and
    /// leaves holding the frontier entering `t + 1`; its other working
    /// buffers carry nothing from one level to the next.
    fn level_core(
        &self,
        t: u32,
        obs: &Observations<M::Symbol>,
        scratch: &mut DecoderScratch,
        stats: &mut DecodeStats,
    ) {
        let msg_segs = self.params.message_segments();
        let branch = 1usize << self.params.k();
        let bps = self.mapper.bits_per_symbol();
        let DecoderScratch {
            spines: fr_spines,
            keys: fr_keys,
            parents: fr_parents,
            segs: fr_segs,
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
            path: _,
        } = scratch;
        if seg_ids.len() < branch {
            seg_ids.extend(seg_ids.len() as u64..branch as u64);
        }

        let root_level = t == 0;
        let level_obs = obs.at_level(t);
        let tail = t >= msg_segs;
        let level_branch = if tail { 1 } else { branch };

        // Pre-prune so the expansion never exceeds max_frontier.
        let cap_parents = self.config.parent_cap(level_branch);
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
        // collapse the whole level into XOR/popcount block masks.
        build_plan(
            &self.mapper,
            &self.cost,
            level_obs,
            bps,
            block_ids,
            reads,
            packed,
        );

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
            block_ids,
            reads,
            packed,
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
        stats.hash_calls += n_children as u64 * (1 + block_ids.len() as u64);

        // Prune: to B at observed levels (or always, if deferral is
        // off); otherwise only enforce the frontier cap.
        let keep = self.config.survivors(!level_obs.is_empty());
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

    /// The tail of a sweep: rank the surviving hypotheses and
    /// materialize `out`.
    fn finish_core(
        &self,
        scratch: &mut DecoderScratch,
        stats: DecodeStats,
        out: &mut DecodeResult,
    ) {
        let DecoderScratch {
            spines: fr_spines,
            keys: fr_keys,
            parents: fr_parents,
            segs: fr_segs,
            arena_parents,
            arena_segs,
            order,
            selector,
            path,
            ..
        } = scratch;

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
    if bps != 1 || !mapper.bit_identity() {
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
/// [`batch::fill_blocks_for_spines`] into `blocks`, and the row is
/// scored from that cache in one kernel call (packed collapse on bit
/// channels, observation-major row scoring otherwise). Output slices
/// hold exactly the level's children.
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
            // so the accumulation order matches the reference decoder's
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
                // Generic path: observation-major over the row, so each
                // observation's map + cost runs in SIMD lanes across
                // the children (bit-identical per child).
                kernels::row_costs(
                    dispatch, mapper, cost, blocks, reads, level_obs, pcost, row_k,
                );
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

    /// Noiseless observations of the levels `observed` selects (one or
    /// two passes each) for a `k`-bit code of `segs` message and `tail`
    /// tail segments, with a random message.
    fn walk_case(
        k: u32,
        segs: u32,
        tail: u32,
        msg_seed: u64,
        observed: impl Fn(u32) -> bool,
        passes: u64,
    ) -> (CodeParams, Observations<crate::symbol::IqSymbol>) {
        let p = params(k * segs, k, tail);
        let msg: BitVec = (0..k * segs)
            .map(|i| (msg_seed.rotate_left(i) & 1) == 1)
            .collect();
        let enc = Encoder::new(&p, Lookup3::new(42), LinearMapper::new(6), &msg).unwrap();
        let mut obs = Observations::new(p.n_segments());
        for t in (0..p.n_segments()).filter(|&t| observed(t)) {
            for pass in 0..1 + ((passes >> t) & 1) as u32 {
                obs.push(Slot::new(t, pass), enc.symbol(Slot::new(t, pass)));
            }
        }
        (p, obs)
    }

    fn walk_decoder(
        p: &CodeParams,
        beam_width: usize,
        max_frontier: usize,
    ) -> BeamDecoder<Lookup3, LinearMapper, AwgnCost> {
        let cfg = BeamConfig {
            beam_width,
            max_frontier,
        };
        BeamDecoder::new(p, Lookup3::new(42), LinearMapper::new(6), AwgnCost, cfg).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The walk prices an attempt exactly: it predicts the decode's
        /// `nodes_expanded`, pre-prunes and blind prunes at the cap
        /// included, over random shapes, caps and slot patterns.
        #[test]
        fn prop_walk_predicts_nodes_expanded(k in 2u32..=5, segs in 1u32..=8, tail in 0u32..=2,
                                             beam in 1usize..=16, cap_exp in 0u32..=12,
                                             cap_frac in 0usize..1024,
                                             mask in any::<u64>(), passes in any::<u64>(),
                                             msg_seed in any::<u64>()) {
            let cap = beam.max((1 << cap_exp) + (1usize << cap_exp) * cap_frac / 1024);
            let (p, obs) = walk_case(k, segs, tail, msg_seed, |t| (mask >> t) & 1 == 1, passes);
            let dec = walk_decoder(&p, beam, cap);
            let res = dec.decode(&obs);
            prop_assert_eq!(dec.walk_attempt(&obs).nodes, res.stats.nodes_expanded);
        }

        /// The fit rule is tight and the attempts it admits are exact:
        /// the walk says "fits" exactly when an unbounded decode's
        /// frontier peak stays within the cap, and a fitting attempt is
        /// bit-identical — result and work counters — to the unbounded
        /// one. Unobserved runs are limited so the unbounded decode
        /// stays under 2^14 nodes a level.
        #[test]
        fn prop_walk_fits_iff_unbounded_peak_fits(k in 2u32..=5, segs in 1u32..=8,
                                                  tail in 0u32..=2, beam in 1usize..=16,
                                                  cap_exp in 0u32..=14, cap_frac in 0usize..1024,
                                                  mask in any::<u64>(), passes in any::<u64>(),
                                                  msg_seed in any::<u64>()) {
            let cap = beam.max((1 << cap_exp) + (1usize << cap_exp) * cap_frac / 1024);
            let mut max_run = 0u32;
            while beam << (k * (max_run + 2)) <= 1 << 14 {
                max_run += 1;
            }
            let mut observed = 0u64;
            let mut run = 0;
            for t in 0..segs + tail {
                if (mask >> t) & 1 == 1 || (t < segs && run == max_run) {
                    observed |= 1 << t;
                    run = 0;
                } else {
                    run += 1;
                }
            }
            let (p, obs) = walk_case(k, segs, tail, msg_seed, |t| (observed >> t) & 1 == 1, passes);
            let capped = walk_decoder(&p, beam, cap);
            let unbounded = walk_decoder(&p, beam, 1 << 24).decode(&obs);
            let walk = capped.walk_attempt(&obs);
            prop_assert_eq!(walk.fits, unbounded.stats.frontier_peak <= cap);
            if walk.fits {
                let res = capped.decode(&obs);
                prop_assert_eq!(&res.message, &unbounded.message);
                prop_assert_eq!(res.cost.to_bits(), unbounded.cost.to_bits());
                prop_assert_eq!(&res.candidates, &unbounded.candidates);
                prop_assert_eq!(res.stats, unbounded.stats);
            }
        }
    }
}
