//! The sharded, deterministic Monte-Carlo simulation engine.
//!
//! Every experiment in this repository is a pile of independent trials;
//! the engine is the one place that turns that pile into work:
//!
//! * **Sharding.** Trials are split into fixed-size *chunks* (the unit of
//!   scheduling), and chunks are claimed work-stealing-style from a
//!   shared counter by `workers` threads. A slow chunk never stalls the
//!   others; an idle worker always has the next chunk to grab. A worker
//!   runs a chunk's trials one at a time through
//!   [`Scenario::run_trial`].
//! * **Counter-based randomness.** Trial `i` derives its seed as
//!   `SplitMix(master_seed, i)` — a pure function of the trial index, so
//!   a trial's randomness does not depend on which worker runs it, in
//!   what order, or how many workers exist.
//! * **Deterministic reduction.** Each chunk accumulates into its own
//!   [`Scenario::Acc`]; completed chunks are merged **in chunk order**
//!   (worker threads advance a shared prefix). Floating-point reduction
//!   order is therefore fixed, and every statistic is **bit-identical
//!   for any worker count**. (The chunk size is part of the experiment
//!   definition, like the seed: changing it re-orders the reduction.)
//! * **Zero steady-state allocation.** Each worker owns one long-lived
//!   [`Scenario::Worker`] — for the rateless experiment, one sender and
//!   one receiver session rebound to each trial's code, the one decoder
//!   scratch their attempts run through, and message buffers — reused
//!   across every trial it runs, the same discipline the beam decoder's
//!   `DecoderScratch` follows.
//! * **Early stop.** [`SimEngine::run_until`] evaluates a stop predicate
//!   after each in-order chunk merge (e.g. a Wilson-interval width from
//!   [`crate::stats::wilson_halfwidth`], or a rate standard error). The
//!   stop decision is made on the deterministic chunk-prefix, so the
//!   reported statistics and trial count are *also* bit-identical for
//!   any worker count — extra chunks computed past the stop point are
//!   discarded, never merged.
//!
//! The engine is generic over the trial body ([`Scenario`]) and, for the
//! channel-coding harnesses, over the channel itself ([`ChannelModel`]:
//! AWGN with optional ADC quantization, BSC, BEC, Rayleigh block
//! fading), so one sweep API covers every scenario grid in the paper and
//! beyond.
//!
//! # Example — a custom scenario
//!
//! ```
//! use spinal_sim::engine::{Accumulate, Scenario, SimEngine, Trial};
//!
//! #[derive(Default)]
//! struct CoinAcc {
//!     heads: u64,
//!     trials: u64,
//! }
//! impl Accumulate for CoinAcc {
//!     fn merge(&mut self, o: Self) {
//!         self.heads += o.heads;
//!         self.trials += o.trials;
//!     }
//! }
//! struct Coin;
//! impl Scenario for Coin {
//!     type Worker = ();
//!     type Acc = CoinAcc;
//!     fn make_worker(&self) {}
//!     fn empty_acc(&self) -> CoinAcc {
//!         CoinAcc::default()
//!     }
//!     fn run_trial(&self, t: Trial, _w: &mut (), acc: &mut CoinAcc) {
//!         acc.heads += t.seed & 1; // a "fair coin" from the trial seed
//!         acc.trials += 1;
//!     }
//! }
//!
//! let acc = SimEngine::with_workers(4).run(&Coin, 1000, 7);
//! assert_eq!(acc.trials, 1000);
//! // Bit-identical to the serial run, whatever the worker count.
//! assert_eq!(acc.heads, SimEngine::serial().run(&Coin, 1000, 7).heads);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spinal_channel::{
    AdcQuantizer, AwgnChannel, BecChannel, BscChannel, Channel, RayleighBlockFading,
};
use spinal_core::hash::{SpineHash, SplitMix};
use spinal_core::symbol::IqSymbol;
use spinal_core::BecCost;

/// Default trials per scheduling chunk: small enough to load-balance a
/// handful of workers on short runs, large enough that the per-chunk
/// bookkeeping (one accumulator, two lock acquisitions) is noise.
pub const DEFAULT_CHUNK_TRIALS: u64 = 32;

/// One trial's identity, as handed to [`Scenario::run_trial`].
#[derive(Clone, Copy, Debug)]
pub struct Trial {
    /// The global trial index, `0..trials`.
    pub index: u64,
    /// The counter-based per-trial seed: `SplitMix(master_seed, index)`.
    /// Scenarios may use it directly or derive labelled sub-streams from
    /// `index` with [`crate::stats::derive_seed`]; either way the
    /// randomness is a pure function of `(master_seed, index)`.
    pub seed: u64,
}

/// A mergeable per-chunk statistics accumulator.
///
/// `merge` must behave like running `other`'s trials after `self`'s
/// (order matters for floating-point reductions; the engine always
/// merges in chunk order).
pub trait Accumulate: Send {
    /// Folds another accumulator's trials into this one.
    fn merge(&mut self, other: Self);
}

/// One Monte-Carlo experiment: how to build per-worker state, and what
/// one trial does.
pub trait Scenario: Sync {
    /// Long-lived per-worker state (encoder, decoder scratch, channel
    /// buffers, …), created once per worker thread and reused across all
    /// trials that worker runs. Warm-up allocations happen here or on
    /// the first trials; the steady state allocates nothing.
    type Worker: Send;
    /// The statistics accumulated per chunk and merged in chunk order.
    type Acc: Accumulate;

    /// Creates one worker's reusable state.
    fn make_worker(&self) -> Self::Worker;

    /// Creates an empty accumulator (one per chunk).
    fn empty_acc(&self) -> Self::Acc;

    /// Runs one trial. All randomness must derive from `trial`
    /// ([`Trial::seed`] or [`Trial::index`]); worker state must carry no
    /// information between trials that affects results (buffers carry
    /// *capacity*, never *content*).
    fn run_trial(&self, trial: Trial, worker: &mut Self::Worker, acc: &mut Self::Acc);
}

/// The counter-based per-trial seed: `SplitMix(master_seed, index)`.
#[inline]
pub fn trial_seed(master_seed: u64, index: u64) -> u64 {
    SplitMix::new(master_seed).hash(master_seed, index)
}

/// The sharded Monte-Carlo runner. See the [module docs](self) for the
/// determinism contract.
#[derive(Clone, Copy, Debug)]
pub struct SimEngine {
    workers: usize,
    chunk: u64,
}

impl SimEngine {
    /// A single-worker engine (the default for the library entry points:
    /// same chunked reduction, no threads).
    pub fn serial() -> Self {
        Self::with_workers(1)
    }

    /// An engine with `workers` threads and the default chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        Self {
            workers,
            chunk: DEFAULT_CHUNK_TRIALS,
        }
    }

    /// An engine sized to the machine
    /// ([`crate::runner::default_threads`]).
    pub fn machine() -> Self {
        Self::with_workers(crate::runner::default_threads())
    }

    /// Overrides the trials-per-chunk scheduling granularity. The chunk
    /// size is part of the experiment definition: results are
    /// bit-identical across worker counts *at a given chunk size*.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunk_trials(mut self, chunk: u64) -> Self {
        assert!(chunk >= 1, "chunk must hold at least one trial");
        self.chunk = chunk;
        self
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs exactly `trials` trials of `scenario` and returns the merged
    /// statistics.
    pub fn run<S: Scenario>(&self, scenario: &S, trials: u64, master_seed: u64) -> S::Acc {
        self.run_until(scenario, trials, master_seed, |_, _| false)
            .0
    }

    /// Runs up to `max_trials` trials, evaluating `stop(merged, trials
    /// so far)` after each in-order chunk merge; returns the merged
    /// statistics and the number of trials they cover. The stop decision
    /// sits on the deterministic chunk prefix, so both return values are
    /// bit-identical for any worker count.
    pub fn run_until<S, F>(
        &self,
        scenario: &S,
        max_trials: u64,
        master_seed: u64,
        stop: F,
    ) -> (S::Acc, u64)
    where
        S: Scenario,
        F: Fn(&S::Acc, u64) -> bool + Sync,
    {
        let n_chunks = max_trials.div_ceil(self.chunk);
        let chunk_range = |ci: u64| {
            let lo = ci * self.chunk;
            let hi = (lo + self.chunk).min(max_trials);
            lo..hi
        };
        let chunk_acc = |ci: u64, worker: &mut S::Worker| {
            let mut acc = scenario.empty_acc();
            for index in chunk_range(ci) {
                let trial = Trial {
                    index,
                    seed: trial_seed(master_seed, index),
                };
                scenario.run_trial(trial, worker, &mut acc);
            }
            acc
        };

        if self.workers == 1 || n_chunks <= 1 {
            // Serial fast path — identical chunk structure and merge
            // order, no thread machinery.
            let mut worker = scenario.make_worker();
            let mut merged = scenario.empty_acc();
            let mut done = 0u64;
            for ci in 0..n_chunks {
                let acc = chunk_acc(ci, &mut worker);
                merged.merge(acc);
                done = chunk_range(ci).end;
                if stop(&merged, done) {
                    break;
                }
            }
            return (merged, done);
        }

        // Parallel path: work-stealing chunk claims, in-order prefix
        // merge under a small mutex. Completed-but-unmerged chunks wait
        // in a map keyed by chunk index, so memory is bounded by the
        // chunks actually in flight — never by `max_trials` (an
        // early-stop budget may be enormous). `thread::scope` joins all
        // workers before the merged prefix is returned.
        struct Prefix<A> {
            merged: A,
            next: u64,
            done: u64,
            stopped: bool,
        }
        let pending: Mutex<HashMap<u64, S::Acc>> = Mutex::new(HashMap::new());
        let next_chunk = AtomicU64::new(0);
        // First chunk index that must NOT be started (set on early stop).
        let stop_before = AtomicU64::new(u64::MAX);
        let prefix = Mutex::new(Prefix {
            merged: scenario.empty_acc(),
            next: 0,
            done: 0,
            stopped: false,
        });

        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n_chunks as usize) {
                scope.spawn(|| {
                    let mut worker = scenario.make_worker();
                    loop {
                        let ci = next_chunk.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks || ci >= stop_before.load(Ordering::Relaxed) {
                            break;
                        }
                        let acc = chunk_acc(ci, &mut worker);
                        pending.lock().expect("pending poisoned").insert(ci, acc);

                        // Advance the deterministic merge prefix as far
                        // as completed chunks allow.
                        let mut p = prefix.lock().expect("prefix poisoned");
                        while !p.stopped && p.next < n_chunks {
                            let taken = pending.lock().expect("pending poisoned").remove(&p.next);
                            let Some(acc) = taken else { break };
                            let ci = p.next;
                            p.merged.merge(acc);
                            p.done = chunk_range(ci).end;
                            p.next += 1;
                            if stop(&p.merged, p.done) {
                                p.stopped = true;
                                stop_before.store(p.next, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });

        let p = prefix.into_inner().expect("prefix poisoned");
        (p.merged, p.done)
    }
}

// ---------------------------------------------------------------------
// Channel models: the engine-facing abstraction over channel families.
// ---------------------------------------------------------------------

/// A channel *family* the harness can instantiate per trial: the
/// scenario holds the model (grid point parameters), and each trial gets
/// its own seeded channel instance. This is what makes the rateless
/// harness generic over AWGN / BSC / BEC / fading with one sweep API.
pub trait ChannelModel<S>: Sync {
    /// The per-trial channel instance.
    type Ch: Channel<S>;

    /// Builds a fresh channel for one trial from its noise seed.
    fn make(&self, noise_seed: u64) -> Self::Ch;

    /// Short stable name for experiment logs.
    fn name(&self) -> &'static str;
}

/// Complex AWGN at a fixed SNR, with the receiver's optional ADC
/// quantization folded in (§5's 14-bit converter) — the Figure 2
/// channel.
#[derive(Clone, Copy, Debug)]
pub struct AwgnModel {
    /// SNR in dB for unit-energy signals.
    pub snr_db: f64,
    /// ADC bits per I/Q dimension (`None` = ideal receiver).
    pub adc_bits: Option<u32>,
    /// The mapper's peak coordinate, used to size the ADC clipping range
    /// (`peak + 4σ` headroom, as in the §5 receiver).
    pub peak: f64,
}

impl AwgnModel {
    /// An ideal (unquantized) AWGN receiver at `snr_db`.
    pub fn ideal(snr_db: f64) -> Self {
        Self {
            snr_db,
            adc_bits: None,
            peak: 0.0,
        }
    }
}

/// AWGN followed by ADC quantization (identity when `adc` is `None`).
#[derive(Clone, Debug)]
pub struct AwgnAdcChannel {
    inner: AwgnChannel,
    adc: Option<AdcQuantizer>,
}

impl Channel<IqSymbol> for AwgnAdcChannel {
    #[inline]
    fn transmit(&mut self, x: IqSymbol) -> IqSymbol {
        let y = self.inner.transmit(x);
        match &self.adc {
            Some(q) => q.quantize_symbol(y),
            None => y,
        }
    }
}

impl ChannelModel<IqSymbol> for AwgnModel {
    type Ch = AwgnAdcChannel;

    fn make(&self, noise_seed: u64) -> AwgnAdcChannel {
        let inner = AwgnChannel::from_snr_db(self.snr_db, noise_seed);
        let adc = self.adc_bits.map(|bits| {
            let headroom = self.peak + 4.0 * (inner.sigma2() / 2.0).sqrt();
            AdcQuantizer::new(bits, headroom)
        });
        AwgnAdcChannel { inner, adc }
    }

    fn name(&self) -> &'static str {
        "awgn"
    }
}

/// The binary symmetric channel at crossover probability `p` (Thm. 2).
#[derive(Clone, Copy, Debug)]
pub struct BscModel {
    /// Crossover probability.
    pub p: f64,
}

impl ChannelModel<u8> for BscModel {
    type Ch = BscChannel;

    fn make(&self, noise_seed: u64) -> BscChannel {
        BscChannel::new(self.p, noise_seed)
    }

    fn name(&self) -> &'static str {
        "bsc"
    }
}

/// The binary erasure channel at erasure probability `e`. Erasures are
/// surfaced as [`BecCost::ERASURE`] so the decoder can score them with
/// [`BecCost`] (zero cost against every hypothesis — the receiver knows
/// the bit is gone).
#[derive(Clone, Copy, Debug)]
pub struct BecModel {
    /// Erasure probability.
    pub e: f64,
}

/// [`BecChannel`] adapted to the symbol-in/symbol-out [`Channel`] trait:
/// erased bits become [`BecCost::ERASURE`].
#[derive(Clone, Debug)]
pub struct ErasureChannel {
    inner: BecChannel,
}

impl Channel<u8> for ErasureChannel {
    #[inline]
    fn transmit(&mut self, x: u8) -> u8 {
        match self.inner.transmit(x) {
            Some(bit) => bit,
            None => BecCost::ERASURE,
        }
    }
}

impl ChannelModel<u8> for BecModel {
    type Ch = ErasureChannel;

    fn make(&self, noise_seed: u64) -> ErasureChannel {
        ErasureChannel {
            inner: BecChannel::new(self.e, noise_seed),
        }
    }

    fn name(&self) -> &'static str {
        "bec"
    }
}

/// Rayleigh block fading over AWGN with a coherent receiver: the gain
/// `h ~ CN(0,1)` holds for `block_len` symbols, the receiver knows it
/// (perfect CSI) and equalizes, so the decoder sees a per-block SNR
/// scaled by `|h|²` — the time-varying regime that motivates rateless
/// operation (§1).
#[derive(Clone, Copy, Debug)]
pub struct FadingModel {
    /// Mean SNR in dB.
    pub snr_db: f64,
    /// Coherence block length in symbols.
    pub block_len: u32,
}

/// The per-trial fading channel instance.
#[derive(Clone, Debug)]
pub struct FadingAwgnChannel {
    fading: RayleighBlockFading,
    awgn: AwgnChannel,
}

impl Channel<IqSymbol> for FadingAwgnChannel {
    #[inline]
    fn transmit(&mut self, x: IqSymbol) -> IqSymbol {
        let g = self.fading.next_gain();
        let y = self.awgn.transmit(spinal_channel::apply(g, x));
        spinal_channel::equalize(g, y)
    }
}

impl ChannelModel<IqSymbol> for FadingModel {
    type Ch = FadingAwgnChannel;

    fn make(&self, noise_seed: u64) -> FadingAwgnChannel {
        // Independent noise and fading processes from one seed, via
        // fixed stream labels.
        let noise = crate::stats::derive_seed(noise_seed, 0x0fad, 0);
        let fade = crate::stats::derive_seed(noise_seed, 0x0fad, 1);
        FadingAwgnChannel {
            fading: RayleighBlockFading::new(self.block_len, fade),
            awgn: AwgnChannel::from_snr_db(self.snr_db, noise),
        }
    }

    fn name(&self) -> &'static str {
        "rayleigh-awgn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    /// A scenario with floating-point statistics whose merge order
    /// matters at the last bit — the sharpest determinism probe.
    struct FpScenario;

    #[derive(Default)]
    struct FpAcc {
        stats: RunningStats,
        sum: u64,
    }

    impl Accumulate for FpAcc {
        fn merge(&mut self, o: Self) {
            self.stats.merge(&o.stats);
            self.sum = self.sum.wrapping_add(o.sum);
        }
    }

    impl Scenario for FpScenario {
        type Worker = u64; // trials served, proving reuse
        type Acc = FpAcc;
        fn make_worker(&self) -> u64 {
            0
        }
        fn empty_acc(&self) -> FpAcc {
            FpAcc::default()
        }
        fn run_trial(&self, t: Trial, served: &mut u64, acc: &mut FpAcc) {
            *served += 1;
            // An irrational-ish per-trial value exercising fp rounding.
            let x = (t.seed >> 11) as f64 * 1e-9 + 1.0 / (t.index + 1) as f64;
            acc.stats.push(x);
            acc.sum = acc.sum.wrapping_add(t.seed);
        }
    }

    fn run(workers: usize, chunk: u64, trials: u64) -> FpAcc {
        SimEngine::with_workers(workers)
            .chunk_trials(chunk)
            .run(&FpScenario, trials, 0xDECAF)
    }

    #[test]
    fn bit_identical_across_worker_counts() {
        for chunk in [1, 3, 16, 64] {
            let base = run(1, chunk, 333);
            for workers in [2, 8] {
                let other = run(workers, chunk, 333);
                assert_eq!(base.stats.count(), other.stats.count());
                assert_eq!(
                    base.stats.mean().to_bits(),
                    other.stats.mean().to_bits(),
                    "chunk {chunk} workers {workers}"
                );
                assert_eq!(
                    base.stats.stderr().to_bits(),
                    other.stats.stderr().to_bits()
                );
                assert_eq!(base.sum, other.sum);
            }
        }
    }

    #[test]
    fn integer_stats_independent_of_chunk_size() {
        let a = run(4, 5, 250);
        let b = run(2, 64, 250);
        assert_eq!(a.sum, b.sum);
        assert_eq!(a.stats.count(), b.stats.count());
    }

    #[test]
    fn trial_seeds_are_counter_based() {
        assert_eq!(trial_seed(7, 42), trial_seed(7, 42));
        assert_ne!(trial_seed(7, 42), trial_seed(7, 43));
        assert_ne!(trial_seed(7, 42), trial_seed(8, 42));
    }

    #[test]
    fn early_stop_is_deterministic_and_prefix_based() {
        // Stop once 100 trials are merged: every worker count must
        // deliver the same statistics over the same trial count.
        let stop = |_: &FpAcc, done: u64| done >= 100;
        let (a, na) = SimEngine::serial()
            .chunk_trials(16)
            .run_until(&FpScenario, 1000, 5, stop);
        for workers in [2, 8] {
            let (b, nb) = SimEngine::with_workers(workers).chunk_trials(16).run_until(
                &FpScenario,
                1000,
                5,
                stop,
            );
            assert_eq!(na, nb);
            assert_eq!(a.stats.count(), b.stats.count());
            assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
        }
        // 100 is not a multiple of 16: the stop lands at the covering
        // chunk boundary.
        assert_eq!(na, 112);
    }

    #[test]
    fn zero_trials_is_empty() {
        let acc = SimEngine::with_workers(3).run(&FpScenario, 0, 1);
        assert_eq!(acc.stats.count(), 0);
        assert_eq!(acc.sum, 0);
    }

    #[test]
    fn trial_count_not_multiple_of_chunk() {
        let acc = run(3, 8, 21);
        assert_eq!(acc.stats.count(), 21);
    }

    #[test]
    fn erasure_channel_marks_losses() {
        let mut ch = BecModel { e: 1.0 }.make(1);
        assert_eq!(ch.transmit(1), BecCost::ERASURE);
        let mut ch = BecModel { e: 0.0 }.make(1);
        assert_eq!(ch.transmit(1), 1);
        assert_eq!(ch.transmit(0), 0);
    }

    #[test]
    fn fading_channel_is_deterministic() {
        let model = FadingModel {
            snr_db: 10.0,
            block_len: 4,
        };
        let mut a = model.make(9);
        let mut b = model.make(9);
        for _ in 0..16 {
            let x = IqSymbol::new(1.0, -0.5);
            let (ya, yb) = (a.transmit(x), b.transmit(x));
            assert_eq!(ya.i.to_bits(), yb.i.to_bits());
            assert_eq!(ya.q.to_bits(), yb.q.to_bits());
        }
    }
}
