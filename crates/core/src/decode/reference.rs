//! Straightforward reference implementation of the beam decoder.
//!
//! This is the *specification* the optimized engine in
//! [`crate::decode::beam`] is tested against: a direct, array-of-structs
//! transcription of §3.2 with per-`(child, observation)`
//! [`crate::expand::expand_bits`] calls (no hash-block caching, no
//! scratch reuse, no parallelism) and canonical `(cost, expansion index)`
//! tie-breaking. For every input, [`reference_decode`] and
//! [`crate::decode::BeamDecoder::decode`] must produce **bit-identical**
//! messages, costs, candidate lists, and search statistics (all but
//! [`super::DecodeStats::hash_calls`], which is precisely what the
//! optimized engine reduces — here it counts the naive decoder's actual
//! hash invocations, making the two comparable).
//!
//! It is deliberately kept simple and slow; the `bench_beam_decode`
//! binary uses it as the pre-optimization baseline.

use crate::bits::BitVec;
use crate::decode::beam::BeamConfig;
use crate::decode::cost::CostModel;
use crate::decode::{Candidate, DecodeResult, DecodeStats, Observations};
use crate::expand::symbol_bits;
use crate::hash::SpineHash;
use crate::map::Mapper;
use crate::params::CodeParams;
use crate::spine::INITIAL_SPINE;

#[derive(Clone, Copy)]
struct Node {
    spine: u64,
    cost: f64,
    parent: u32,
    seg: u16,
    /// Expansion index within its level, the canonical tie-breaker.
    index: u32,
}

/// Decodes `obs` with the straightforward baseline algorithm. Semantics
/// (and exact output, including float bit patterns) match
/// [`crate::decode::BeamDecoder::decode`]; see the module docs.
///
/// # Panics
///
/// Panics if `obs` was created for a different spine length, or if
/// `config` is invalid (same contract as [`crate::decode::BeamDecoder`]).
pub fn reference_decode<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>>(
    params: &CodeParams,
    hash: &H,
    mapper: &M,
    cost: &C,
    config: &BeamConfig,
    obs: &Observations<M::Symbol>,
) -> DecodeResult {
    assert!(config.beam_width >= 1, "beam width must be at least 1");
    assert!(
        config.max_frontier >= config.beam_width,
        "max_frontier ({}) must be >= beam_width ({})",
        config.max_frontier,
        config.beam_width
    );
    assert_eq!(
        obs.n_levels(),
        params.n_segments(),
        "observations sized for {} levels, code has {}",
        obs.n_levels(),
        params.n_segments()
    );
    let n_levels = params.n_segments();
    let msg_segs = params.message_segments();
    let branch = 1usize << params.k();
    let bps = mapper.bits_per_symbol();

    let mut arena: Vec<(u32, u16)> = Vec::new();
    let mut beam = vec![Node {
        spine: INITIAL_SPINE,
        cost: 0.0,
        parent: u32::MAX,
        seg: 0,
        index: 0,
    }];
    let mut root_level = true;
    let mut stats = DecodeStats {
        nodes_expanded: 0,
        frontier_peak: 1,
        hash_calls: 0,
        complete: true,
        // The reference decoder is the scalar specification.
        kernel_dispatch: crate::kernels::KernelDispatch::Scalar,
    };

    for t in 0..n_levels {
        let level_obs = obs.at_level(t);
        let tail = t >= msg_segs;
        let level_branch = if tail { 1 } else { branch };

        let cap_parents = (config.max_frontier / level_branch).max(1);
        if beam.len() > cap_parents {
            retain_best(&mut beam, cap_parents);
        }

        let parent_base = arena.len() as u32;
        if !root_level {
            arena.extend(beam.iter().map(|n| (n.parent, n.seg)));
        }

        let mut next = Vec::with_capacity(beam.len() * level_branch);
        for (i, node) in beam.iter().enumerate() {
            let parent_idx = if root_level {
                u32::MAX
            } else {
                parent_base + i as u32
            };
            for seg in 0..level_branch as u64 {
                let child_spine = hash.hash(node.spine, seg);
                stats.hash_calls += 1;
                let mut c = node.cost;
                for &(pass, observed) in level_obs {
                    let hyp = mapper.map(symbol_bits(hash, child_spine, pass, bps));
                    // expand_bits hashes one block, or two when the
                    // symbol's bit window straddles a block boundary.
                    let start = u64::from(pass) * u64::from(bps);
                    let straddles = (start % 64) + u64::from(bps) > 64;
                    stats.hash_calls += if straddles { 2 } else { 1 };
                    c += cost.cost(observed, hyp);
                }
                next.push(Node {
                    spine: child_spine,
                    cost: c,
                    parent: parent_idx,
                    seg: seg as u16,
                    index: next.len() as u32,
                });
            }
        }
        stats.nodes_expanded += next.len() as u64;
        stats.frontier_peak = stats.frontier_peak.max(next.len());

        let keep = if !level_obs.is_empty() {
            config.beam_width
        } else {
            config.max_frontier
        };
        if next.len() > keep {
            retain_best(&mut next, keep);
        }
        beam = next;
        root_level = false;
    }

    // Rank the survivors: a full stable sort by cost, which with the
    // per-level `index` tie-break is the canonical order.
    beam.sort_by(cmp_node);
    let take = beam.len().min(config.beam_width.max(1));
    let candidates: Vec<Candidate> = beam[..take]
        .iter()
        .map(|n| Candidate {
            message: backtrack(params, &arena, n),
            cost: n.cost,
        })
        .collect();
    let best = &candidates[0];
    DecodeResult {
        message: best.message.clone(),
        cost: best.cost,
        candidates,
        stats,
    }
}

fn cmp_node(a: &Node, b: &Node) -> std::cmp::Ordering {
    a.cost
        .partial_cmp(&b.cost)
        .expect("finite costs")
        .then(a.index.cmp(&b.index))
}

/// Keeps the `keep` lowest-cost nodes in canonical `(cost, index)` order.
fn retain_best(nodes: &mut Vec<Node>, keep: usize) {
    if nodes.len() > keep {
        nodes.select_nth_unstable_by(keep - 1, cmp_node);
        nodes.truncate(keep);
        nodes.sort_by(cmp_node);
    }
}

fn backtrack(params: &CodeParams, arena: &[(u32, u16)], leaf: &Node) -> BitVec {
    let mut segs = Vec::with_capacity(params.n_segments() as usize);
    segs.push(leaf.seg);
    let mut idx = leaf.parent;
    while idx != u32::MAX {
        let (parent, seg) = arena[idx as usize];
        segs.push(seg);
        idx = parent;
    }
    segs.reverse();
    debug_assert_eq!(segs.len(), params.n_segments() as usize);
    let k = params.k() as usize;
    let mut bits = BitVec::new();
    for &seg in segs.iter().take(params.message_segments() as usize) {
        for i in (0..k).rev() {
            bits.push((seg >> i) & 1 == 1);
        }
    }
    bits
}
