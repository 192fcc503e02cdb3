//! Puncturing schedules: which symbols actually get transmitted, and the
//! sub-pass boundaries at which the receiver attempts to decode.
//!
//! §3.1: "we actually obtain rates higher than k bits/symbol using
//! puncturing, where the transmitter does not send each successive spine
//! value in every pass." The paper does not pin down a schedule; we adopt
//! the natural strided one (DESIGN.md §2.4): each pass is divided into
//! `stride` sub-passes, and sub-pass `j` transmits the symbols of spine
//! positions `t ≡ order[j] (mod stride)`, with `order` the bit-reversed
//! enumeration (`[0,4,2,6,1,5,3,7]` for stride 8) so that early sub-passes
//! spread coverage as evenly as possible.
//!
//! Decode attempts happen after every non-empty sub-pass, so with stride 8
//! the achievable rates extend to `8k` bits/symbol — at high SNR the
//! receiver can succeed long before a pass completes.

use crate::error::SpinalError;
use crate::symbol::Slot;

/// A deterministic transmission schedule over the rateless symbol stream.
///
/// Both sides know the schedule: the sender emits symbols sub-pass by
/// sub-pass, and the receiver labels each received sample with its
/// [`Slot`] before handing it to the decoder (§3.2 requires slot-labelled
/// observations).
pub trait PunctureSchedule: Clone + Send + Sync + std::fmt::Debug {
    /// Number of sub-passes that make up one pass (decode-attempt
    /// granularity is one sub-pass).
    fn subpasses_per_pass(&self) -> u32;

    /// Writes the slots transmitted in global sub-pass `g` (0-based) for
    /// a spine of length `n_spine`, in transmission order, into `out`
    /// (cleared first) — the one required enumeration method, so the
    /// allocation-free streaming path and the convenience form below can
    /// never disagree. May leave `out` empty when the stride exceeds
    /// `n_spine` and the sub-pass's residue class is unpopulated.
    fn subpass_slots_into(&self, n_spine: u32, g: u32, out: &mut Vec<Slot>);

    /// Convenience form of
    /// [`subpass_slots_into`](Self::subpass_slots_into) returning a
    /// fresh vector.
    fn subpass_slots(&self, n_spine: u32, g: u32) -> Vec<Slot> {
        let mut out = Vec::new();
        self.subpass_slots_into(n_spine, g, &mut out);
        out
    }

    /// Short stable name for experiment logs.
    fn name(&self) -> &'static str;

    /// Convenience: the pass index that global sub-pass `g` belongs to.
    fn pass_of_subpass(&self, g: u32) -> u32 {
        g / self.subpasses_per_pass()
    }
}

/// No puncturing: every pass transmits every spine position in order
/// (one sub-pass per pass). The maximum rate is `k` bits/symbol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoPuncture;

impl NoPuncture {
    /// Creates the trivial schedule.
    pub fn new() -> Self {
        Self
    }
}

impl PunctureSchedule for NoPuncture {
    fn subpasses_per_pass(&self) -> u32 {
        1
    }

    fn subpass_slots_into(&self, n_spine: u32, g: u32, out: &mut Vec<Slot>) {
        out.clear();
        out.extend((0..n_spine).map(|t| Slot::new(t, g)));
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// How a strided pass orders its sub-pass residues.
///
/// The residue *set* per pass is identical either way (full coverage);
/// the order decides how evenly the spine is covered after a partial
/// pass, which is when high-SNR receivers decode.
/// [`BitReversed`](SubpassOrder::BitReversed), the paper default,
/// optimizes this. [`DeepFirst`](SubpassOrder::DeepFirst) (descending
/// residues) is an opt-in probe; `ablation_puncturing` prints its rate
/// grid beside the bit-reversed one (see README).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SubpassOrder {
    /// Bit-reversed enumeration (`[0,4,2,6,1,5,3,7]` for stride 8): the
    /// paper-faithful default, maximal early coverage spread.
    #[default]
    BitReversed,
    /// Descending residues (`[7,6,5,4,3,2,1,0]` for stride 8): deep
    /// spine positions first.
    DeepFirst,
}

/// Strided puncturing with a configurable sub-pass ordering
/// (bit-reversed by default).
///
/// Pass `ℓ` is split into `stride` sub-passes; sub-pass `j` sends the
/// pass-`ℓ` symbols of positions `t ≡ order[j] (mod stride)` in ascending
/// `t`. The default `order` is the bit-reversal permutation of
/// `0..stride`, which maximises the spread of early coverage (positions
/// hit 0, stride/2, stride/4, 3·stride/4, … apart); see [`SubpassOrder`]
/// for the deep-first alternative. The order is computed from
/// `(stride, ordering)` on demand, so the schedule is a plain `Copy`
/// value and cloning it never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedPuncture {
    stride: u32,
    ordering: SubpassOrder,
}

impl StridedPuncture {
    /// Creates a strided schedule with the given stride and the default
    /// bit-reversed sub-pass ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::Stride`] unless `stride` is a power of two
    /// in `2..=64` (bit-reversal needs a power of two; stride 1 is
    /// [`NoPuncture`]).
    pub fn new(stride: u32) -> Result<Self, SpinalError> {
        Self::with_order(stride, SubpassOrder::BitReversed)
    }

    /// Creates a strided schedule with an explicit sub-pass ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::Stride`] for a stride outside the
    /// power-of-two range `2..=64`.
    pub fn with_order(stride: u32, ordering: SubpassOrder) -> Result<Self, SpinalError> {
        if !stride.is_power_of_two() || !(2..=64).contains(&stride) {
            return Err(SpinalError::Stride(stride));
        }
        Ok(Self { stride, ordering })
    }

    /// The paper-default stride-8 schedule (`order = [0,4,2,6,1,5,3,7]`).
    pub fn stride8() -> Self {
        Self::new(8).expect("8 is a valid stride")
    }

    /// The stride.
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// The residue sub-pass `j` of every pass sends (`j < stride`):
    /// entry `j` of the bit-reversed or descending order.
    pub fn residue(&self, j: u32) -> u32 {
        match self.ordering {
            SubpassOrder::BitReversed => j.reverse_bits() >> (32 - self.stride.trailing_zeros()),
            SubpassOrder::DeepFirst => self.stride - 1 - j,
        }
    }

    /// The ordering variant in use.
    pub fn ordering(&self) -> SubpassOrder {
        self.ordering
    }
}

impl PunctureSchedule for StridedPuncture {
    fn subpasses_per_pass(&self) -> u32 {
        self.stride
    }

    fn subpass_slots_into(&self, n_spine: u32, g: u32, out: &mut Vec<Slot>) {
        let pass = g / self.stride;
        let residue = self.residue(g % self.stride);
        out.clear();
        out.extend(
            (residue..n_spine)
                .step_by(self.stride as usize)
                .map(|t| Slot::new(t, pass)),
        );
    }

    fn name(&self) -> &'static str {
        match self.ordering {
            SubpassOrder::BitReversed => "strided",
            SubpassOrder::DeepFirst => "strided-deep",
        }
    }
}

/// Either of the two built-in schedules behind one concrete type, for
/// run-time configuration in the experiment harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnySchedule {
    /// See [`NoPuncture`].
    None(NoPuncture),
    /// See [`StridedPuncture`].
    Strided(StridedPuncture),
}

impl AnySchedule {
    /// The unpunctured schedule.
    pub fn none() -> Self {
        AnySchedule::None(NoPuncture)
    }

    /// The strided schedule with the given stride.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::Stride`] for a stride outside the
    /// power-of-two range `2..=64`.
    pub fn strided(stride: u32) -> Result<Self, SpinalError> {
        Ok(AnySchedule::Strided(StridedPuncture::new(stride)?))
    }

    /// The strided schedule with an explicit sub-pass ordering (the
    /// `deep-first` probe, or the default).
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::Stride`] for a stride outside the
    /// power-of-two range `2..=64`.
    pub fn strided_with(stride: u32, ordering: SubpassOrder) -> Result<Self, SpinalError> {
        Ok(AnySchedule::Strided(StridedPuncture::with_order(
            stride, ordering,
        )?))
    }
}

impl PunctureSchedule for AnySchedule {
    fn subpasses_per_pass(&self) -> u32 {
        match self {
            AnySchedule::None(s) => s.subpasses_per_pass(),
            AnySchedule::Strided(s) => s.subpasses_per_pass(),
        }
    }

    fn subpass_slots_into(&self, n_spine: u32, g: u32, out: &mut Vec<Slot>) {
        match self {
            AnySchedule::None(s) => s.subpass_slots_into(n_spine, g, out),
            AnySchedule::Strided(s) => s.subpass_slots_into(n_spine, g, out),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnySchedule::None(s) => s.name(),
            AnySchedule::Strided(s) => s.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A schedule's residue order over one pass.
    fn order(s: &StridedPuncture) -> Vec<u32> {
        (0..s.stride()).map(|j| s.residue(j)).collect()
    }

    #[test]
    fn stride8_order_matches_design() {
        let s = StridedPuncture::stride8();
        assert_eq!(order(&s), [0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn no_puncture_sends_whole_pass() {
        let s = NoPuncture::new();
        let slots = s.subpass_slots(3, 5);
        assert_eq!(
            slots,
            vec![Slot::new(0, 5), Slot::new(1, 5), Slot::new(2, 5)]
        );
        assert_eq!(s.subpasses_per_pass(), 1);
        assert_eq!(s.pass_of_subpass(5), 5);
    }

    #[test]
    fn strided_subpass_residues() {
        let s = StridedPuncture::new(8).unwrap();
        // Sub-pass 0 of pass 0: residue 0 → t = 0, 8, 16 for n_spine = 20.
        assert_eq!(
            s.subpass_slots(20, 0),
            vec![Slot::new(0, 0), Slot::new(8, 0), Slot::new(16, 0)]
        );
        // Sub-pass 1: residue order[1] = 4 → t = 4, 12.
        assert_eq!(
            s.subpass_slots(20, 1),
            vec![Slot::new(4, 0), Slot::new(12, 0)]
        );
        // Sub-pass 8 = first sub-pass of pass 1.
        assert_eq!(
            s.subpass_slots(20, 8),
            vec![Slot::new(0, 1), Slot::new(8, 1), Slot::new(16, 1)]
        );
    }

    #[test]
    fn strided_small_spine_has_empty_subpasses() {
        // n_spine = 3 (the paper's m = 24, k = 8): residues 3..8 are
        // unpopulated, so 5 of 8 sub-passes are empty.
        let s = StridedPuncture::new(8).unwrap();
        let sizes: Vec<usize> = (0..8).map(|g| s.subpass_slots(3, g).len()).collect();
        assert_eq!(sizes, vec![1, 0, 1, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn one_pass_covers_every_position_exactly_once() {
        for ordering in [SubpassOrder::BitReversed, SubpassOrder::DeepFirst] {
            for stride in [2u32, 4, 8, 16] {
                let s = StridedPuncture::with_order(stride, ordering).unwrap();
                for n_spine in [1u32, 3, 8, 13, 32] {
                    let mut seen = HashSet::new();
                    for g in 0..stride {
                        for slot in s.subpass_slots(n_spine, g) {
                            assert_eq!(slot.pass, 0);
                            assert!(
                                seen.insert(slot.t),
                                "duplicate t={} stride={stride} {ordering:?}",
                                slot.t
                            );
                        }
                    }
                    assert_eq!(
                        seen.len() as u32,
                        n_spine,
                        "stride={stride} n={n_spine} {ordering:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn deep_first_sends_deep_residues_first() {
        let s = StridedPuncture::with_order(8, SubpassOrder::DeepFirst).unwrap();
        assert_eq!(order(&s), [7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(s.ordering(), SubpassOrder::DeepFirst);
        assert_eq!(s.name(), "strided-deep");
        // Residues descend monotonically within a pass.
        for (j, w) in order(&s).windows(2).enumerate() {
            assert!(w[0] > w[1], "order must descend at {j}");
        }
        // The default remains the paper schedule.
        assert_eq!(
            StridedPuncture::stride8().ordering(),
            SubpassOrder::BitReversed
        );
        assert_eq!(StridedPuncture::stride8().name(), "strided");
        // AnySchedule plumbs the variant through.
        let any = AnySchedule::strided_with(4, SubpassOrder::DeepFirst).unwrap();
        assert_eq!(any.name(), "strided-deep");
        assert_eq!(
            any.subpass_slots(10, 0),
            StridedPuncture::with_order(4, SubpassOrder::DeepFirst)
                .unwrap()
                .subpass_slots(10, 0)
        );
        assert!(AnySchedule::strided_with(5, SubpassOrder::DeepFirst).is_err());
    }

    #[test]
    fn rejects_invalid_strides_with_typed_error() {
        for bad in [0u32, 1, 6, 128] {
            assert_eq!(
                StridedPuncture::new(bad).unwrap_err(),
                crate::error::SpinalError::Stride(bad),
                "stride {bad}"
            );
            assert!(AnySchedule::strided(bad).is_err());
        }
    }

    #[test]
    fn any_schedule_delegates() {
        let a = AnySchedule::strided(4).unwrap();
        let b = StridedPuncture::new(4).unwrap();
        assert_eq!(a.subpass_slots(10, 3), b.subpass_slots(10, 3));
        assert_eq!(a.subpasses_per_pass(), 4);
        assert_eq!(AnySchedule::none().name(), "none");
        assert_eq!(a.name(), "strided");
    }

    proptest! {
        #[test]
        fn prop_bit_reversed_order_is_permutation(log in 1u32..=6) {
            let s = StridedPuncture::new(1 << log).unwrap();
            let mut sorted = order(&s);
            sorted.sort_unstable();
            let expect: Vec<u32> = (0..(1 << log)).collect();
            prop_assert_eq!(sorted, expect);
        }

        #[test]
        fn prop_slots_belong_to_their_subpass(stride_log in 1u32..=5,
                                              n_spine in 1u32..64,
                                              g in 0u32..40) {
            let s = StridedPuncture::new(1 << stride_log).unwrap();
            for slot in s.subpass_slots(n_spine, g) {
                prop_assert!(slot.t < n_spine);
                prop_assert_eq!(slot.pass, g / s.subpasses_per_pass());
                prop_assert_eq!(slot.t % s.stride(), s.residue(g % s.stride()));
            }
        }

        #[test]
        fn prop_early_subpasses_spread(stride_log in 2u32..=4) {
            // After the first two sub-passes the covered residues must be
            // stride/2 apart (bit-reversal property).
            let stride = 1u32 << stride_log;
            let s = StridedPuncture::new(stride).unwrap();
            prop_assert_eq!(s.residue(0), 0);
            prop_assert_eq!(s.residue(1), stride / 2);
        }
    }
}
