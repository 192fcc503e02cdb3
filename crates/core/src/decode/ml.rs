//! The exact maximum-likelihood decoder (Eq. 4) via branch-and-bound.
//!
//! §3.2 defines the ideal ML decoder as a full expansion of the decoding
//! tree — `2^n` leaves — and picks the minimum-cost root-to-leaf path.
//! A literal implementation is hopeless beyond toy sizes, but because
//! edge costs are non-negative the cumulative cost is non-decreasing
//! along any path, so depth-first search with the classic bound — abandon
//! a subtree as soon as its partial cost reaches the best complete cost
//! found so far — returns the *exact* ML estimate while visiting a tiny
//! fraction of the tree at reasonable SNR. Children are explored
//! cheapest-first to tighten the bound early (best-first within a node).
//!
//! The decoder honours a node budget ([`MlConfig::max_nodes`]); if the
//! budget trips, the search returns the best leaf found with
//! `stats.complete = false`. This keeps worst-case behaviour (very low
//! SNR, little data) bounded, in the same "scale-down" spirit as the beam
//! decoder.
//!
//! Like the beam decoder, the ML decoder batches its hash work: each
//! level's observation layout is planned once (the private
//! `decode::batch` module), and every candidate child hashes each
//! distinct expansion block exactly once however many observations the
//! level holds. Working buffers live in a reusable [`MlScratch`]
//! ([`MlDecoder::decode_with_scratch`]).
//!
//! Use this decoder for small messages only (tests, theorem validation,
//! beam-vs-ML comparisons); the beam decoder is the practical one.

use crate::bits::BitVec;
use crate::decode::batch;
use crate::decode::cost::CostModel;
use crate::decode::select::{self, cost_key, key_cost, SelectMode, SelectScratch};
use crate::decode::{Candidate, DecodeResult, DecodeStats, Observations};
use crate::error::SpinalError;
use crate::hash::SpineHash;
use crate::map::Mapper;
use crate::params::CodeParams;
use crate::spine::INITIAL_SPINE;

/// Resource configuration for the ML decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MlConfig {
    /// Maximum number of tree edges to evaluate before giving up and
    /// returning the best complete path found so far.
    pub max_nodes: u64,
}

impl Default for MlConfig {
    fn default() -> Self {
        Self {
            max_nodes: 1 << 24, // ~16.7M edge evaluations
        }
    }
}

/// One level's hash-block plan.
#[derive(Clone, Debug, Default)]
struct LevelPlan {
    block_ids: Vec<u64>,
    reads: Vec<batch::ObsRead>,
}

/// Reusable working memory for [`MlDecoder`] decode attempts: per-level
/// hash-block plans, per-depth child buffers, and the block cache.
/// Mirrors the beam decoder's [`crate::decode::DecoderScratch`] —
/// including its key-only cost representation: children carry
/// `(cost_key, spine, seg)`, ranked with the shared integer selection
/// engine ([`crate::decode::select`]), never by float comparison.
#[derive(Clone, Debug, Default)]
pub struct MlScratch {
    plans: Vec<LevelPlan>,
    child_bufs: Vec<Vec<(u64, u64, u16)>>,
    /// Per-depth buffers holding the strictly-improving children in
    /// visit order (separate from `child_bufs` so the selection scratch
    /// below is free again before the recursion re-enters it).
    picked_bufs: Vec<Vec<(u64, u64, u16)>>,
    keys: Vec<u64>,
    order: Vec<u32>,
    selector: SelectScratch,
    blocks: Vec<u64>,
}

impl MlScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Exact ML decoder for spinal codes (small messages).
///
/// # Example
///
/// ```
/// use spinal_core::bits::BitVec;
/// use spinal_core::decode::{AwgnCost, MlConfig, MlDecoder, Observations};
/// use spinal_core::encode::Encoder;
/// use spinal_core::hash::Lookup3;
/// use spinal_core::map::LinearMapper;
/// use spinal_core::params::CodeParams;
/// use spinal_core::symbol::Slot;
///
/// let params = CodeParams::new(12, 4).unwrap();
/// let message = BitVec::from_u64(0xbeb, 12);
/// let enc = Encoder::new(&params, Lookup3::new(0), LinearMapper::new(6), &message).unwrap();
/// let mut obs = Observations::new(3);
/// for t in 0..3 {
///     obs.push(Slot::new(t, 0), enc.symbol(Slot::new(t, 0)));
/// }
/// let dec = MlDecoder::new(&params, Lookup3::new(0), LinearMapper::new(6),
///                          AwgnCost, MlConfig::default()).unwrap();
/// let res = dec.decode(&obs);
/// assert_eq!(res.message, message);
/// assert!(res.stats.complete);
/// ```
#[derive(Clone, Debug)]
pub struct MlDecoder<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>> {
    params: CodeParams,
    hash: H,
    mapper: M,
    cost: C,
    config: MlConfig,
}

struct Search<'a, H: SpineHash, M: Mapper, C: CostModel<M::Symbol>> {
    dec: &'a MlDecoder<H, M, C>,
    obs: &'a Observations<M::Symbol>,
    scratch: &'a mut MlScratch,
    best_cost: f64,
    best_path: Vec<u16>,
    path: Vec<u16>,
    nodes: u64,
    hash_calls: u64,
    budget_hit: bool,
}

impl<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>> MlDecoder<H, M, C> {
    /// Builds a decoder; `params`, `hash` and `mapper` must match the
    /// encoder's.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::NodeBudget`] when `config.max_nodes` is
    /// zero.
    pub fn new(
        params: &CodeParams,
        hash: H,
        mapper: M,
        cost: C,
        config: MlConfig,
    ) -> Result<Self, SpinalError> {
        if config.max_nodes == 0 {
            return Err(SpinalError::NodeBudget);
        }
        Ok(Self {
            params: *params,
            hash,
            mapper,
            cost,
            config,
        })
    }

    /// Returns the exact ML estimate (or best-effort under the node
    /// budget; check `stats.complete`).
    ///
    /// # Panics
    ///
    /// Panics if `obs` was created for a different spine length.
    pub fn decode(&self, obs: &Observations<M::Symbol>) -> DecodeResult {
        let mut scratch = MlScratch::new();
        self.decode_with_scratch(obs, &mut scratch)
    }

    /// Like [`decode`](Self::decode), reusing `scratch` across attempts
    /// (the rateless receiver re-decodes after every sub-pass).
    pub fn decode_with_scratch(
        &self,
        obs: &Observations<M::Symbol>,
        scratch: &mut MlScratch,
    ) -> DecodeResult {
        assert_eq!(
            obs.n_levels(),
            self.params.n_segments(),
            "observations sized for {} levels, code has {}",
            obs.n_levels(),
            self.params.n_segments()
        );
        let n_levels = self.params.n_segments() as usize;
        let bps = self.mapper.bits_per_symbol();

        // Plan every level once per attempt.
        if scratch.plans.len() < n_levels {
            scratch.plans.resize_with(n_levels, LevelPlan::default);
        }
        if scratch.child_bufs.len() < n_levels {
            scratch.child_bufs.resize_with(n_levels, Vec::new);
        }
        if scratch.picked_bufs.len() < n_levels {
            scratch.picked_bufs.resize_with(n_levels, Vec::new);
        }
        let mut max_blocks = 0;
        for t in 0..n_levels {
            let plan = &mut scratch.plans[t];
            let level_obs = obs.at_level(t as u32);
            if level_obs.is_empty() {
                plan.block_ids.clear();
                plan.reads.clear();
            } else {
                batch::plan_level(
                    level_obs.iter().map(|&(p, _)| p),
                    bps,
                    &mut plan.block_ids,
                    &mut plan.reads,
                );
            }
            max_blocks = max_blocks.max(plan.block_ids.len());
        }
        scratch.blocks.clear();
        scratch.blocks.resize(max_blocks, 0);

        let mut search = Search {
            dec: self,
            obs,
            scratch,
            best_cost: f64::INFINITY,
            best_path: Vec::new(),
            path: Vec::with_capacity(n_levels),
            nodes: 0,
            hash_calls: 0,
            budget_hit: false,
        };
        search.dfs(0, INITIAL_SPINE, 0.0);
        debug_assert_eq!(search.best_path.len(), n_levels);

        let message = self.segments_to_message(&search.best_path);
        let stats = DecodeStats {
            nodes_expanded: search.nodes,
            frontier_peak: n_levels,
            hash_calls: search.hash_calls,
            complete: !search.budget_hit,
            kernel_dispatch: crate::kernels::KernelDispatch::Scalar,
        };
        DecodeResult {
            message: message.clone(),
            cost: search.best_cost,
            candidates: vec![Candidate {
                message,
                cost: search.best_cost,
            }],
            stats,
        }
    }

    fn segments_to_message(&self, segs: &[u16]) -> BitVec {
        let k = self.params.k() as usize;
        let mut bits = BitVec::new();
        for &seg in segs.iter().take(self.params.message_segments() as usize) {
            for i in (0..k).rev() {
                bits.push((seg >> i) & 1 == 1);
            }
        }
        bits
    }
}

impl<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>> Search<'_, H, M, C> {
    /// Scores all children of `(level, spine, cost)` into `children`
    /// using the level's block plan (one hash per distinct block per
    /// child). Costs are stored as their order-preserving integer keys
    /// ([`cost_key`], a bijection — [`key_cost`] recovers the exact
    /// float).
    fn score_children(
        &mut self,
        level: u32,
        spine: u64,
        cost: f64,
        children: &mut Vec<(u64, u64, u16)>,
    ) {
        let params = &self.dec.params;
        let tail = level >= params.message_segments();
        let branch = if tail { 1u64 } else { 1u64 << params.k() };
        let level_obs = self.obs.at_level(level);
        children.clear();
        let scratch = &mut *self.scratch;
        let plan = &scratch.plans[level as usize];
        let blocks = &mut scratch.blocks[..plan.block_ids.len()];
        for seg in 0..branch {
            let child_spine = self.dec.hash.hash(spine, seg);
            let mut c = cost;
            if !plan.reads.is_empty() {
                batch::fill_blocks(&self.dec.hash, child_spine, &plan.block_ids, blocks);
                for (r, &(_, observed)) in plan.reads.iter().zip(level_obs) {
                    let hyp = self.dec.mapper.map(batch::read_obs(blocks, r));
                    c += self.dec.cost.cost(observed, hyp);
                }
            }
            children.push((cost_key(c), child_spine, seg as u16));
        }
        self.hash_calls += branch * (1 + plan.block_ids.len() as u64);
    }

    fn dfs(&mut self, level: u32, spine: u64, cost: f64) {
        let params = &self.dec.params;
        if level == params.n_segments() {
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best_path = self.path.clone();
            }
            return;
        }
        if self.nodes >= self.dec.config.max_nodes {
            self.budget_hit = true;
            // Budget exhausted: still complete the current path greedily
            // so best_path is always a full-depth path.
            if self.best_path.is_empty() {
                self.greedy_finish(level, spine, cost);
            }
            return;
        }

        // Evaluate all children, then visit the strictly-improving ones
        // cheapest-first: count how many beat the current bound, pull
        // exactly those with the shared integer selection engine (the
        // canonical `(key, index)` order — identical to the stable sort
        // by float cost this replaced), and skip ranking the rest.
        let mut children = std::mem::take(&mut self.scratch.child_bufs[level as usize]);
        let mut picked = std::mem::take(&mut self.scratch.picked_bufs[level as usize]);
        self.score_children(level, spine, cost, &mut children);
        self.nodes += children.len() as u64;
        let bound = cost_key(self.best_cost);
        picked.clear();
        {
            let scratch = &mut *self.scratch;
            scratch.keys.clear();
            scratch.keys.extend(children.iter().map(|c| c.0));
            let m = scratch.keys.iter().filter(|&&key| key < bound).count();
            if m > 0 {
                if m < scratch.keys.len() {
                    select::select_smallest(
                        &scratch.keys,
                        m,
                        &mut scratch.order,
                        &mut scratch.selector,
                        SelectMode::Auto,
                    );
                } else {
                    scratch.order.clear();
                    scratch.order.extend(0..scratch.keys.len() as u32);
                    let keys = &scratch.keys;
                    scratch.order.sort_unstable_by(|&a, &b| {
                        keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b))
                    });
                }
                picked.extend(scratch.order.iter().map(|&i| children[i as usize]));
            }
        }

        for &(key, child_spine, seg) in picked.iter() {
            if key >= cost_key(self.best_cost) {
                break; // the bound tightened past the remaining children
            }
            self.path.push(seg);
            self.dfs(level + 1, child_spine, key_cost(key));
            self.path.pop();
        }
        self.scratch.child_bufs[level as usize] = children;
        self.scratch.picked_bufs[level as usize] = picked;
    }

    /// Completes the current prefix by always taking the locally cheapest
    /// child — used only to guarantee a full-depth answer when the node
    /// budget expires before any leaf was reached.
    fn greedy_finish(&mut self, mut level: u32, mut spine: u64, mut cost: f64) {
        let params = &self.dec.params;
        let mut path = self.path.clone();
        let mut children = Vec::new();
        while level < params.n_segments() {
            self.score_children(level, spine, cost, &mut children);
            // `min_by_key` keeps the first of equal minima — the same
            // tie-break the float `min_by` this replaced had.
            let best = children
                .iter()
                .copied()
                .min_by_key(|c| c.0)
                .expect("at least one child");
            path.push(best.2);
            spine = best.1;
            cost = key_cost(best.0);
            level += 1;
        }
        self.best_cost = cost;
        self.best_path = path;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::beam::{BeamConfig, BeamDecoder};
    use crate::decode::cost::{AwgnCost, BscCost};
    use crate::encode::Encoder;
    use crate::hash::Lookup3;
    use crate::map::{BinaryMapper, LinearMapper};
    use crate::symbol::{IqSymbol, Slot};
    use proptest::prelude::*;

    fn full_obs(enc: &Encoder<Lookup3, LinearMapper>, passes: u32) -> Observations<IqSymbol> {
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
    fn noiseless_exact_recovery() {
        let p = CodeParams::new(12, 4).unwrap();
        let msg = BitVec::from_u64(0x5a3, 12);
        let enc = Encoder::new(&p, Lookup3::new(0), LinearMapper::new(6), &msg).unwrap();
        let dec = MlDecoder::new(
            &p,
            Lookup3::new(0),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig::default(),
        )
        .unwrap();
        let res = dec.decode(&full_obs(&enc, 1));
        assert_eq!(res.message, msg);
        assert_eq!(res.cost, 0.0);
        assert!(res.stats.complete);
        assert!(res.stats.hash_calls > 0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_decode() {
        let p = CodeParams::new(12, 4).unwrap();
        let msg = BitVec::from_u64(0x9ac, 12);
        let enc = Encoder::new(&p, Lookup3::new(4), LinearMapper::new(6), &msg).unwrap();
        let dec = MlDecoder::new(
            &p,
            Lookup3::new(4),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig::default(),
        )
        .unwrap();
        let mut scratch = MlScratch::new();
        for passes in [1u32, 2, 1] {
            let obs = full_obs(&enc, passes);
            let fresh = dec.decode(&obs);
            let reused = dec.decode_with_scratch(&obs, &mut scratch);
            assert_eq!(fresh.message, reused.message);
            assert_eq!(fresh.cost.to_bits(), reused.cost.to_bits());
            assert_eq!(fresh.stats, reused.stats);
        }
    }

    #[test]
    fn branch_and_bound_prunes_noiseless_tree() {
        // Noiseless: once the zero-cost leaf is found, every other branch
        // dies immediately, so the node count stays near levels · 2^k.
        let p = CodeParams::new(16, 4).unwrap();
        let msg = BitVec::from_u64(0xbeef, 16);
        let enc = Encoder::new(&p, Lookup3::new(7), LinearMapper::new(6), &msg).unwrap();
        let dec = MlDecoder::new(
            &p,
            Lookup3::new(7),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig::default(),
        )
        .unwrap();
        let res = dec.decode(&full_obs(&enc, 1));
        assert_eq!(res.message, msg);
        assert!(
            res.stats.nodes_expanded <= 4 * 16 * 2,
            "expected near-greedy node count, got {}",
            res.stats.nodes_expanded
        );
    }

    #[test]
    fn ml_matches_exhaustive_beam_under_corruption() {
        // Corrupt observations; the ML decoder and an effectively
        // exhaustive beam (B = 2^n) must agree on the argmin.
        let p = CodeParams::new(8, 4).unwrap();
        let msg = BitVec::from_u64(0x9d, 8);
        let enc = Encoder::new(&p, Lookup3::new(3), LinearMapper::new(6), &msg).unwrap();
        let mut obs = Observations::new(2);
        for t in 0..2 {
            let slot = Slot::new(t, 0);
            let sym = enc.symbol(slot);
            // Shift every observation off its lattice point.
            obs.push(slot, IqSymbol::new(sym.i + 0.21, sym.q - 0.17));
        }
        let ml = MlDecoder::new(
            &p,
            Lookup3::new(3),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig::default(),
        )
        .unwrap()
        .decode(&obs);
        let beam = BeamDecoder::new(
            &p,
            Lookup3::new(3),
            LinearMapper::new(6),
            AwgnCost,
            BeamConfig {
                beam_width: 256,
                max_frontier: 1 << 16,
            },
        )
        .unwrap()
        .decode(&obs);
        assert_eq!(ml.message, beam.message);
        assert!((ml.cost - beam.cost).abs() < 1e-9);
        assert!(ml.stats.complete);
    }

    #[test]
    fn bsc_ml_decodes_with_flips() {
        let p = CodeParams::new(8, 4).unwrap();
        let msg = BitVec::from_u64(0x6b, 8);
        let enc = Encoder::new(&p, Lookup3::new(5), BinaryMapper::new(), &msg).unwrap();
        let mut obs = Observations::new(2);
        for pass in 0..12u32 {
            for t in 0..2 {
                let slot = Slot::new(t, pass);
                let mut bit = enc.symbol(slot);
                if (pass + t) % 6 == 1 {
                    bit ^= 1;
                }
                obs.push(slot, bit);
            }
        }
        let res = MlDecoder::new(
            &p,
            Lookup3::new(5),
            BinaryMapper::new(),
            BscCost,
            MlConfig::default(),
        )
        .unwrap()
        .decode(&obs);
        assert_eq!(res.message, msg);
    }

    #[test]
    fn node_budget_returns_best_effort() {
        let p = CodeParams::new(16, 4).unwrap();
        let msg = BitVec::from_u64(0x1234, 16);
        let enc = Encoder::new(&p, Lookup3::new(1), LinearMapper::new(6), &msg).unwrap();
        let res = MlDecoder::new(
            &p,
            Lookup3::new(1),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig { max_nodes: 8 },
        )
        .unwrap()
        .decode(&full_obs(&enc, 1));
        assert!(!res.stats.complete);
        assert_eq!(res.message.len(), 16, "must still return a full message");
    }

    #[test]
    fn tail_segments_constrain_search() {
        let p = CodeParams::builder()
            .message_bits(8)
            .k(4)
            .tail_segments(2)
            .build()
            .unwrap();
        let msg = BitVec::from_u64(0x3e, 8);
        let enc = Encoder::new(&p, Lookup3::new(2), LinearMapper::new(6), &msg).unwrap();
        let mut obs = Observations::new(4);
        for t in 0..4 {
            obs.push(Slot::new(t, 0), enc.symbol(Slot::new(t, 0)));
        }
        let res = MlDecoder::new(
            &p,
            Lookup3::new(2),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig::default(),
        )
        .unwrap()
        .decode(&obs);
        assert_eq!(res.message, msg);
        assert_eq!(res.message.len(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// ML optimality invariant: the returned cost is a global minimum
        /// over all 2^n messages (verified by exhaustive enumeration on a
        /// tiny code).
        #[test]
        fn prop_ml_is_global_min(msg_val in 0u64..256, ni in -0.4..0.4f64, nq in -0.4..0.4f64) {
            let p = CodeParams::new(8, 4).unwrap();
            let msg = BitVec::from_u64(msg_val, 8);
            let enc = Encoder::new(&p, Lookup3::new(8), LinearMapper::new(4), &msg).unwrap();
            let mut obs = Observations::new(2);
            for t in 0..2 {
                let slot = Slot::new(t, 0);
                let s = enc.symbol(slot);
                obs.push(slot, IqSymbol::new(s.i + ni, s.q + nq));
            }
            let res = MlDecoder::new(&p, Lookup3::new(8), LinearMapper::new(4),
                                     AwgnCost, MlConfig::default()).unwrap().decode(&obs);
            // Exhaustive check.
            let mut best = f64::INFINITY;
            for cand in 0u64..256 {
                let cm = BitVec::from_u64(cand, 8);
                let ce = Encoder::new(&p, Lookup3::new(8), LinearMapper::new(4), &cm).unwrap();
                let mut cost = 0.0;
                for t in 0..2u32 {
                    let slot = Slot::new(t, 0);
                    cost += obs.at_level(t)[0].1.dist_sq(&ce.symbol(slot));
                }
                best = best.min(cost);
            }
            prop_assert!((res.cost - best).abs() < 1e-9,
                         "ML cost {} vs exhaustive min {}", res.cost, best);
        }
    }
}
