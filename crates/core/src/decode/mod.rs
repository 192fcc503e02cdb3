//! Decoders for spinal codes: shared types, the practical beam decoder,
//! and the exact maximum-likelihood decoder.
//!
//! Both decoders "replay the encoder at the decoder over the set of
//! received symbols and all possible combinations of k-bit inputs to the
//! hash function at each stage" (§3.2), growing the decoding tree whose
//! nodes are spine values. [`beam::BeamDecoder`] keeps the best `B` nodes
//! per level (the paper's practical "graceful scale-down" decoder);
//! [`ml::MlDecoder`] explores the full tree with branch-and-bound pruning
//! and realizes the ML rule of Eq. 4 exactly.

pub(crate) mod batch;
pub mod beam;
pub mod cost;
pub mod ml;
pub mod reference;
pub mod select;

pub use beam::{BeamConfig, BeamDecoder, DecoderScratch};
pub use cost::{AwgnCost, BecCost, BscCost, CostModel};
pub use ml::{MlConfig, MlDecoder, MlScratch};
pub use reference::reference_decode;
pub use select::{cost_key, SelectMode};

use crate::bits::BitVec;
use crate::kernels::KernelDispatch;
use crate::symbol::Slot;

/// The receiver's slot-labelled observations, grouped by spine position.
///
/// In rateless operation symbols for the same position arrive across
/// multiple passes; the decoder's per-edge cost at tree level `t` sums
/// over every observation at that level (§3.2: cost
/// `Σ_i ‖y_{t,i} − x_{t,i}(s_t)‖²`).
#[derive(Clone, Debug)]
pub struct Observations<S> {
    levels: Vec<Vec<(u32, S)>>,
    count: usize,
}

impl<S: Copy> Observations<S> {
    /// Creates an empty observation set for a spine of `n_levels`
    /// positions.
    pub fn new(n_levels: u32) -> Self {
        Self {
            levels: vec![Vec::new(); n_levels as usize],
            count: 0,
        }
    }

    /// Forgets every recorded symbol, keeping the per-level capacity —
    /// simulation workers reuse one observation set across trials this
    /// way (no steady-state allocation).
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.count = 0;
    }

    /// Records the symbol received in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot.t` is outside the spine this set was created for.
    pub fn push(&mut self, slot: Slot, symbol: S) {
        self.levels[slot.t as usize].push((slot.pass, symbol));
        self.count += 1;
    }

    /// Records a batch of received `(slot, symbol)` pairs.
    pub fn extend<I: IntoIterator<Item = (Slot, S)>>(&mut self, iter: I) {
        for (slot, sym) in iter {
            self.push(slot, sym);
        }
    }

    /// All observations at spine position `t`, as `(pass, symbol)` pairs
    /// in arrival order.
    pub fn at_level(&self, t: u32) -> &[(u32, S)] {
        &self.levels[t as usize]
    }

    /// Total number of received symbols.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when nothing has been received yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of spine positions (tree levels).
    pub fn n_levels(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Number of positions with at least one observation.
    pub fn observed_levels(&self) -> u32 {
        self.levels.iter().filter(|l| !l.is_empty()).count() as u32
    }
}

/// One decoded message hypothesis with its path cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// The hypothesised message (tail segments stripped).
    pub message: BitVec,
    /// Cumulative path cost (ℓ² for AWGN, Hamming for BSC).
    pub cost: f64,
}

/// Work counters reported by a decode call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DecodeStats {
    /// Tree edges evaluated (children generated).
    pub nodes_expanded: u64,
    /// Largest temporary frontier the decoder held at once.
    pub frontier_peak: usize,
    /// Spine-hash invocations performed: one per child generated, plus
    /// the expansion-block hashes needed to score it. The optimized
    /// engine hashes each distinct block once per child however many
    /// observations share it, so this is the direct measure of the
    /// hash-deduplication win over [`reference::reference_decode`].
    pub hash_calls: u64,
    /// `false` if the search was cut short by a resource cap (the ML
    /// decoder's node budget); the result is then best-effort.
    pub complete: bool,
    /// The SIMD tier the kernels ran on (diagnostic: every tier
    /// is bit-identical, see [`crate::kernels`]). The reference decoder
    /// always reports [`KernelDispatch::Scalar`].
    pub kernel_dispatch: KernelDispatch,
}

/// The outcome of a decode attempt.
#[derive(Clone, Debug, Default)]
pub struct DecodeResult {
    /// The minimum-cost message hypothesis.
    pub message: BitVec,
    /// Its path cost.
    pub cost: f64,
    /// The surviving hypotheses in ascending cost order (the beam's final
    /// contents; used by CRC-based termination). Always contains at least
    /// the best hypothesis.
    pub candidates: Vec<Candidate>,
    /// Work counters.
    pub stats: DecodeStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_group_by_level() {
        let mut obs: Observations<u8> = Observations::new(3);
        obs.push(Slot::new(0, 0), 10);
        obs.push(Slot::new(2, 0), 20);
        obs.push(Slot::new(0, 1), 11);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs.at_level(0), &[(0, 10), (1, 11)]);
        assert_eq!(obs.at_level(1), &[]);
        assert_eq!(obs.at_level(2), &[(0, 20)]);
        assert_eq!(obs.observed_levels(), 2);
        assert_eq!(obs.n_levels(), 3);
    }

    #[test]
    fn observations_extend_batches() {
        let mut obs: Observations<u8> = Observations::new(2);
        obs.extend([(Slot::new(0, 0), 1), (Slot::new(1, 0), 2)]);
        assert_eq!(obs.len(), 2);
        assert!(!obs.is_empty());
    }

    #[test]
    #[should_panic]
    fn observations_reject_out_of_range() {
        let mut obs: Observations<u8> = Observations::new(2);
        obs.push(Slot::new(2, 0), 1);
    }
}
