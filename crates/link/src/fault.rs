//! Deterministic, seeded link-fault injection: composable transforms of
//! a slot-labelled symbol stream.
//!
//! The robustness contract of this repository — no panic, no livelock,
//! no silent mis-decode; degrade by paying symbols — is only testable if
//! degraded inputs are *reproducible*. This module provides the faulted
//! link as a pure function: every per-symbol decision (drop, duplicate,
//! reorder, corrupt, mislabel) is drawn from a counter-based seed
//! stream, exactly like the simulation engine's per-trial seeds
//! (`spinal_sim::engine`), so a faulted run is **bit-identical at any
//! worker count** and across kernel tiers — the fault sequence depends
//! only on `(plan seed, symbol index)`, never on scheduling.
//!
//! A [`FaultPlan`] is an ordered list of [`LinkFault`] transforms plus a
//! seed; [`FaultPlan::stream`] instantiates the stateful
//! [`FaultStream`] that pushes transmitted symbols through the faults
//! and emits zero or more [`Delivery`] records per push (zero for a
//! drop, two for a duplicate, late ones for reordering).
//!
//! # Example
//!
//! ```
//! use spinal_link::fault::{Delivery, FaultPlan, LinkFault};
//! use spinal_core::symbol::Slot;
//! use spinal_core::IqSymbol;
//!
//! let plan = FaultPlan::new(7)
//!     .with(LinkFault::Drop { p: 0.2 })
//!     .with(LinkFault::Duplicate { p: 0.1 });
//! plan.validate().unwrap();
//! let mut out = Vec::new();
//! let runs: Vec<Vec<Delivery>> = (0..2)
//!     .map(|_| {
//!         let mut stream = plan.stream();
//!         let mut all = Vec::new();
//!         for seq in 0..100u64 {
//!             let sym = IqSymbol::new(seq as f64, 0.0);
//!             stream.push(seq, Slot::new(0, 0), sym, &mut out);
//!             all.extend(out.iter().copied());
//!         }
//!         stream.finish(&mut out);
//!         all.extend(out.iter().copied());
//!         all
//!     })
//!     .collect();
//! assert_eq!(runs[0], runs[1], "same plan, same seed => same stream");
//! assert!(runs[0].len() < 100 + 20, "drops outweigh duplicates here");
//! ```

use spinal_core::symbol::Slot;
use spinal_core::{IqSymbol, SpinalError};
use spinal_sim::stats::derive_seed;

/// Stream label base for per-fault decision draws (fault `j` draws from
/// stream `FAULT_DECISION_BASE + j`).
const FAULT_DECISION_BASE: u64 = 0x4641_0000;
/// Stream label for corruption replacement values.
const FAULT_CORRUPT_VALUES: u64 = 0x4641_ff00;

/// Maps a 64-bit draw onto `[0, 1)` (53 mantissa bits, exactly like the
/// channel PRNG), so fault probabilities compare exactly.
#[inline]
pub(crate) fn unit(r: u64) -> f64 {
    (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One composable link-fault transform. Probabilities are per transmitted
/// symbol; faults in a [`FaultPlan`] apply in order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFault {
    /// The symbol is erased in flight (BEC on the data link): nothing is
    /// delivered.
    Drop {
        /// Per-symbol drop probability.
        p: f64,
    },
    /// The symbol is delivered twice (a retransmitting relay, a
    /// multipath echo); duplicates carry the same `seq` and slot label.
    Duplicate {
        /// Per-symbol duplication probability.
        p: f64,
    },
    /// The symbol is held back and delivered up to `window` symbols
    /// late, after symbols transmitted later (an out-of-order path).
    Reorder {
        /// Per-symbol reorder probability.
        p: f64,
        /// Most symbols a reordered symbol can be delayed by (≥ 1).
        window: u32,
    },
    /// Burst corruption: with probability `p` a burst starts, replacing
    /// this and the next `len - 1` symbols with saturated garbage I/Q
    /// values (an interferer keying on).
    Burst {
        /// Per-symbol burst-start probability.
        p: f64,
        /// Symbols a burst lasts (≥ 1).
        len: u32,
    },
    /// The symbol arrives with the *previous* symbol's slot label (a
    /// stale or corrupted header): evidence lands at the wrong spine
    /// position but stays in range, so decoding degrades instead of
    /// erroring.
    StaleSlot {
        /// Per-symbol mislabel probability.
        p: f64,
    },
}

impl LinkFault {
    fn probability(&self) -> f64 {
        match *self {
            LinkFault::Drop { p }
            | LinkFault::Duplicate { p }
            | LinkFault::Reorder { p, .. }
            | LinkFault::Burst { p, .. }
            | LinkFault::StaleSlot { p } => p,
        }
    }
}

/// Counts of faults a [`FaultStream`] actually applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Symbols erased by [`LinkFault::Drop`].
    pub dropped: u64,
    /// Extra copies emitted by [`LinkFault::Duplicate`].
    pub duplicated: u64,
    /// Symbols delayed by [`LinkFault::Reorder`].
    pub reordered: u64,
    /// Symbols garbled by [`LinkFault::Burst`].
    pub corrupted: u64,
    /// Symbols mislabelled by [`LinkFault::StaleSlot`].
    pub mislabelled: u64,
}

/// A seeded, ordered fault composition — the full description of a
/// degraded link, reproducible from `(faults, seed)` alone.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<LinkFault>,
    seed: u64,
}

impl FaultPlan {
    /// An empty (pass-through) plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        Self {
            faults: Vec::new(),
            seed,
        }
    }

    /// Appends a fault to the composition (applied after the existing
    /// ones).
    #[must_use]
    pub fn with(mut self, fault: LinkFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The same composition under a different decision seed — the
    /// per-frame / per-trial derivation hook (counter-based, like the
    /// simulation engine's trial seeds).
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        Self {
            faults: self.faults.clone(),
            seed,
        }
    }

    /// Checks every fault's parameters with typed errors.
    ///
    /// # Errors
    ///
    /// [`SpinalError::Probability`] for a probability outside `[0, 1]`,
    /// [`SpinalError::AtLeastOne`] for a zero reorder window or burst
    /// length.
    pub fn validate(&self) -> Result<(), SpinalError> {
        for fault in &self.faults {
            let p = fault.probability();
            if !(0.0..=1.0).contains(&p) {
                return Err(SpinalError::Probability {
                    name: "link fault",
                    value: p,
                });
            }
            match *fault {
                LinkFault::Reorder { window: 0, .. } => {
                    return Err(SpinalError::AtLeastOne {
                        name: "reorder window",
                        value: 0,
                    })
                }
                LinkFault::Burst { len: 0, .. } => {
                    return Err(SpinalError::AtLeastOne {
                        name: "burst length",
                        value: 0,
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Instantiates the stateful stream that applies this plan.
    pub fn stream(&self) -> FaultStream {
        FaultStream {
            faults: self.faults.clone(),
            seed: self.seed,
            index: 0,
            burst_left: 0,
            last_slot: None,
            held: Vec::new(),
            order: 0,
            counters: FaultCounters::default(),
        }
    }
}

/// One symbol delivered by a [`FaultStream`]: the opaque sequence tag
/// the caller pushed (duplicates repeat it), the — possibly mislabelled
/// — slot, and the — possibly corrupted — symbol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivery {
    /// The caller's sequence tag for the pushed symbol.
    pub seq: u64,
    /// The slot label the receiver sees.
    pub slot: Slot,
    /// The I/Q value the receiver sees.
    pub symbol: IqSymbol,
}

/// A held (reordered) symbol awaiting its release index.
#[derive(Clone, Copy, Debug)]
struct Held {
    due: u64,
    order: u64,
    delivery: Delivery,
}

/// The stateful application of a [`FaultPlan`] to one symbol stream.
///
/// Every decision is a pure function of `(plan seed, fault position,
/// push index)` — two streams built from the same plan produce
/// bit-identical deliveries regardless of what else the process is
/// doing, which is what makes faulted ensemble runs reproducible at any
/// worker count.
#[derive(Clone, Debug)]
pub struct FaultStream {
    faults: Vec<LinkFault>,
    seed: u64,
    /// Symbols pushed so far — the decision counter.
    index: u64,
    /// Remaining symbols of an in-progress corruption burst.
    burst_left: u32,
    /// The previous pushed symbol's true slot (stale-label source).
    last_slot: Option<Slot>,
    held: Vec<Held>,
    order: u64,
    counters: FaultCounters,
}

impl FaultStream {
    /// Pushes one transmitted symbol through the fault composition.
    /// `out` is cleared, then receives this push's deliveries **in
    /// arrival order**: reordered symbols whose delay expired first,
    /// then the pushed symbol itself (unless dropped or held), then its
    /// duplicate (if any). `seq` is an opaque tag echoed in deliveries —
    /// senders use their per-frame stream position so receivers can
    /// detect gaps.
    pub fn push(&mut self, seq: u64, slot: Slot, symbol: IqSymbol, out: &mut Vec<Delivery>) {
        out.clear();
        let i = self.index;
        self.index += 1;

        let mut dropped = false;
        let mut duplicate = false;
        let mut delay = 0u64;
        let mut corrupt = self.burst_left > 0;
        if corrupt {
            self.burst_left -= 1;
        }
        let mut stale = false;
        for (j, fault) in self.faults.iter().enumerate() {
            let r = derive_seed(self.seed, FAULT_DECISION_BASE + j as u64, i);
            let hit = unit(r) < fault.probability();
            match *fault {
                LinkFault::Drop { .. } if hit => dropped = true,
                LinkFault::Duplicate { .. } if hit => duplicate = true,
                LinkFault::Reorder { window, .. } if hit => {
                    delay = 1 + (r >> 33) % u64::from(window.max(1));
                }
                LinkFault::Burst { len, .. } if hit && !corrupt => {
                    corrupt = true;
                    self.burst_left = len.saturating_sub(1);
                }
                LinkFault::StaleSlot { .. } if hit => stale = true,
                _ => {}
            }
        }

        // Release expired holds before this push's own delivery.
        self.release(i, out);

        let last = self.last_slot.replace(slot);
        if dropped {
            self.counters.dropped += 1;
            return;
        }
        let mut delivery = Delivery { seq, slot, symbol };
        if corrupt {
            // Saturated garbage at the constellation's corners; exact
            // binary values keep faulted runs bit-stable everywhere.
            let rc = derive_seed(self.seed, FAULT_CORRUPT_VALUES, i);
            delivery.symbol = IqSymbol::new(
                if rc & 1 == 0 { 3.5 } else { -3.5 },
                if rc & 2 == 0 { 3.5 } else { -3.5 },
            );
            self.counters.corrupted += 1;
        }
        if stale {
            if let Some(prev) = last {
                delivery.slot = prev;
                self.counters.mislabelled += 1;
            }
        }
        let copies = if duplicate {
            self.counters.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            if delay > 0 {
                self.counters.reordered += 1;
                self.held.push(Held {
                    due: i + delay,
                    order: self.order,
                    delivery,
                });
            } else {
                out.push(delivery);
            }
            self.order += 1;
        }
    }

    /// Appends the held deliveries whose release index has arrived, in
    /// `(due, insertion)` order.
    fn release(&mut self, now: u64, out: &mut Vec<Delivery>) {
        loop {
            let next = self
                .held
                .iter()
                .enumerate()
                .filter(|(_, h)| h.due <= now)
                .min_by_key(|(_, h)| (h.due, h.order));
            let Some((pos, _)) = next else { break };
            out.push(self.held.swap_remove(pos).delivery);
        }
    }

    /// Flushes every still-held symbol (stream end): `out` is cleared,
    /// then receives them in `(due, insertion)` order.
    pub fn finish(&mut self, out: &mut Vec<Delivery>) {
        out.clear();
        self.release(u64::MAX, out);
    }

    /// What the stream has applied so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u64) -> IqSymbol {
        IqSymbol::new(i as f64 * 0.25, -(i as f64) * 0.125)
    }

    fn run(plan: &FaultPlan, n: u64) -> Vec<Delivery> {
        let mut stream = plan.stream();
        let mut out = Vec::new();
        let mut all = Vec::new();
        for i in 0..n {
            stream.push(
                i,
                Slot::new((i % 6) as u32, (i / 6) as u32),
                sym(i),
                &mut out,
            );
            all.extend(out.iter().copied());
        }
        stream.finish(&mut out);
        all.extend(out.iter().copied());
        all
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::new(1);
        let all = run(&plan, 50);
        assert_eq!(all.len(), 50);
        for (i, d) in all.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
            assert_eq!(d.symbol, sym(i as u64));
        }
    }

    #[test]
    fn streams_are_reproducible_and_seed_sensitive() {
        let plan = FaultPlan::new(9)
            .with(LinkFault::Drop { p: 0.3 })
            .with(LinkFault::Duplicate { p: 0.2 })
            .with(LinkFault::Reorder { p: 0.2, window: 5 })
            .with(LinkFault::Burst { p: 0.05, len: 3 })
            .with(LinkFault::StaleSlot { p: 0.1 });
        assert_eq!(run(&plan, 200), run(&plan, 200), "same seed, same stream");
        assert_ne!(
            run(&plan, 200),
            run(&plan.reseeded(10), 200),
            "different seed, different stream"
        );
    }

    #[test]
    fn drop_rate_matches_probability() {
        let plan = FaultPlan::new(3).with(LinkFault::Drop { p: 0.25 });
        let n = 4000u64;
        let all = run(&plan, n);
        let rate = 1.0 - all.len() as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn duplicates_share_seq_and_slot() {
        let plan = FaultPlan::new(4).with(LinkFault::Duplicate { p: 1.0 });
        let all = run(&plan, 20);
        assert_eq!(all.len(), 40);
        for pair in all.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn reordering_is_bounded_and_complete() {
        let plan = FaultPlan::new(5).with(LinkFault::Reorder { p: 0.5, window: 4 });
        let n = 500u64;
        let all = run(&plan, n);
        assert_eq!(all.len(), n as usize, "reorder never loses symbols");
        let mut seen: Vec<u64> = all.iter().map(|d| d.seq).collect();
        for (pos, d) in all.iter().enumerate() {
            // A symbol pushed at seq i appears no later than ~window
            // pushes after its turn.
            assert!(
                (pos as i64 - d.seq as i64).unsigned_abs() <= 8,
                "seq {} at position {pos}",
                d.seq
            );
        }
        seen.sort_unstable();
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1), "no seq lost");
        let mut stream = plan.stream();
        let mut out = Vec::new();
        for i in 0..n {
            stream.push(i, Slot::new(0, 0), sym(i), &mut out);
        }
        assert!(stream.counters().reordered > n / 4);
    }

    #[test]
    fn bursts_corrupt_runs_of_symbols() {
        let plan = FaultPlan::new(6).with(LinkFault::Burst { p: 0.02, len: 4 });
        let all = run(&plan, 1000);
        let corrupted: Vec<bool> = all
            .iter()
            .map(|d| d.symbol.i.abs() == 3.5 && d.symbol.q.abs() == 3.5)
            .collect();
        let total = corrupted.iter().filter(|&&c| c).count();
        assert!(total >= 40, "bursts must corrupt in bulk, got {total}");
        // Runs: at least one full-length burst appears.
        let mut best = 0usize;
        let mut cur = 0usize;
        for &c in &corrupted {
            cur = if c { cur + 1 } else { 0 };
            best = best.max(cur);
        }
        assert!(best >= 4, "longest corrupted run {best}");
    }

    #[test]
    fn stale_slots_stay_in_range() {
        let plan = FaultPlan::new(7).with(LinkFault::StaleSlot { p: 0.5 });
        let all = run(&plan, 300);
        assert_eq!(all.len(), 300);
        let mislabelled = all
            .iter()
            .enumerate()
            .filter(|(i, d)| d.slot != Slot::new((*i as u64 % 6) as u32, (*i as u64 / 6) as u32))
            .count();
        assert!(mislabelled > 60, "stale labels must occur: {mislabelled}");
        for d in &all {
            assert!(d.slot.t < 6, "stale labels reuse real slots only");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad_p = FaultPlan::new(0).with(LinkFault::Drop { p: 1.5 });
        assert!(matches!(
            bad_p.validate().unwrap_err(),
            SpinalError::Probability { .. }
        ));
        let bad_window = FaultPlan::new(0).with(LinkFault::Reorder { p: 0.1, window: 0 });
        assert_eq!(
            bad_window.validate().unwrap_err(),
            SpinalError::AtLeastOne {
                name: "reorder window",
                value: 0
            }
        );
        let bad_len = FaultPlan::new(0).with(LinkFault::Burst { p: 0.1, len: 0 });
        assert_eq!(
            bad_len.validate().unwrap_err(),
            SpinalError::AtLeastOne {
                name: "burst length",
                value: 0
            }
        );
        assert!(FaultPlan::new(0).validate().is_ok());
    }
}
