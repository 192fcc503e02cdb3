//! The rateless experiment: the §5 methodology, reproduced.
//!
//! "In these experiments we assume that the receiver informs the sender as
//! soon as it is able to fully decode the data; this allows us to isolate
//! the evaluation of the performance of spinal codes." Concretely, per
//! trial:
//!
//! 1. draw a fresh random message (and a fresh hash seed);
//! 2. stream symbols sub-pass by sub-pass through the channel (AWGN with
//!    optional ADC quantization, or BSC);
//! 3. after each sub-pass, run a decode attempt over everything received;
//! 4. stop at the first attempt the terminator accepts (genie: best
//!    hypothesis equals the truth; CRC: a candidate's checksum verifies)
//!    and record the rate `message bits / symbols sent`.
//!
//! The decode-attempt schedule can be thinned geometrically
//! ([`RatelessConfig::attempt_growth`]) to keep very-low-SNR runs
//! affordable; growth 1.0 attempts after every non-empty sub-pass, the
//! paper's idealised receiver.
//!
//! All trial loops run on the sharded [`crate::engine::SimEngine`]: each
//! worker owns a long-lived encoder / decoder scratch / observation set
//! reused across trials (zero steady-state allocation in genie mode),
//! per-trial randomness is counter-based, and every statistic is
//! bit-identical for any worker count. The harness is generic over the
//! channel through [`crate::engine::ChannelModel`], so AWGN (with ADC),
//! BSC, BEC and Rayleigh fading all share this one implementation —
//! see [`run_awgn_with`], [`run_bsc_with`], [`run_bec_with`],
//! [`run_fading_with`], and the early-stopping [`run_awgn_until`].

use crate::engine::{
    Accumulate, AwgnModel, BecModel, BscModel, ChannelModel, FadingModel, Scenario, SimEngine,
    Trial,
};
use crate::stats::{derive_seed, wilson_halfwidth, RunningStats};
use spinal_channel::{Channel, Rng};
use spinal_core::decode::{BeamConfig, BeamDecoder, CostModel, DecoderScratch};
use spinal_core::frame::{frame_encode, AnyTerminator, Checksum};
use spinal_core::hash::{AnyHash, HashFamily};
use spinal_core::map::{AnyIqMapper, BinaryMapper, Mapper};
use spinal_core::params::CodeParams;
use spinal_core::puncture::{AnySchedule, PunctureSchedule};
use spinal_core::session::{Poll, RxConfig, RxSession, TxSession};
use spinal_core::symbol::Slot;
use spinal_core::{AwgnCost, BecCost, BitVec, BscCost, Encoder, SpinalError};

/// How the receiver decides it has decoded successfully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// The §5 genie: success exactly when the best hypothesis is the
    /// true message. Isolates code performance.
    Genie,
    /// The practical §3.2 receiver: success when a beam candidate's CRC
    /// verifies. Pays the checksum's rate overhead and can terminate on
    /// an undetected error (counted separately).
    Crc(Checksum),
}

/// Configuration of an AWGN rateless experiment.
#[derive(Clone, Debug)]
pub struct RatelessConfig {
    /// Spinal-code message length in bits (including the CRC in
    /// [`Termination::Crc`] mode).
    pub message_bits: u32,
    /// Segment size `k`.
    pub k: u32,
    /// Known tail segments (§4).
    pub tail_segments: u32,
    /// Spine-hash family.
    pub hash: HashFamily,
    /// Constellation mapper (carries `c`).
    pub mapper: AnyIqMapper,
    /// Transmission schedule.
    pub schedule: AnySchedule,
    /// Beam decoder resources.
    pub beam: BeamConfig,
    /// ADC bits per dimension at the receiver (`None` = ideal receiver).
    pub adc_bits: Option<u32>,
    /// Give up after this many passes (a trial that exhausts this is a
    /// failure contributing rate 0).
    pub max_passes: u32,
    /// Decode-attempt thinning: the next attempt waits until the symbol
    /// count reaches `ceil(previous × growth)`. 1.0 = attempt after every
    /// non-empty sub-pass.
    pub attempt_growth: f64,
    /// Success criterion.
    pub termination: Termination,
}

impl RatelessConfig {
    /// The Figure 2 configuration: m = 24, k = 8, c = 10, B = 16,
    /// stride-8 puncturing, 14-bit ADC, genie termination.
    pub fn fig2() -> Self {
        Self {
            message_bits: 24,
            k: 8,
            tail_segments: 0,
            hash: HashFamily::Lookup3,
            mapper: AnyIqMapper::linear(10),
            schedule: AnySchedule::strided(8).expect("8 is a valid stride"),
            beam: BeamConfig::paper_default(),
            adc_bits: Some(14),
            max_passes: 1000,
            attempt_growth: 1.05,
            termination: Termination::Genie,
        }
    }
}

/// Configuration of a BSC rateless experiment (binary mapper; one coded
/// bit per spine value per pass).
#[derive(Clone, Debug)]
pub struct BscRatelessConfig {
    /// Message length in bits.
    pub message_bits: u32,
    /// Segment size `k`.
    pub k: u32,
    /// Known tail segments.
    pub tail_segments: u32,
    /// Spine-hash family.
    pub hash: HashFamily,
    /// Transmission schedule.
    pub schedule: AnySchedule,
    /// Beam decoder resources.
    pub beam: BeamConfig,
    /// Pass budget.
    pub max_passes: u32,
    /// Decode-attempt thinning (see [`RatelessConfig::attempt_growth`]).
    pub attempt_growth: f64,
    /// Success criterion.
    pub termination: Termination,
}

impl BscRatelessConfig {
    /// A sensible default BSC experiment: k = 4, B = 16, unpunctured.
    pub fn default_k4(message_bits: u32) -> Self {
        Self {
            message_bits,
            k: 4,
            tail_segments: 0,
            hash: HashFamily::Lookup3,
            schedule: AnySchedule::none(),
            beam: BeamConfig::paper_default(),
            max_passes: 400,
            attempt_growth: 1.0,
            termination: Termination::Genie,
        }
    }
}

/// Aggregated results of a rateless experiment.
#[derive(Clone, Debug)]
pub struct RatelessOutcome {
    /// Trials run.
    pub trials: u32,
    /// Trials decoded correctly before the pass budget expired.
    pub successes: u32,
    /// CRC-mode trials that terminated on a wrong payload.
    pub undetected: u32,
    /// Per-trial rate in payload bits per symbol (failures contribute 0).
    pub rate: RunningStats,
    /// Symbols needed, over successful trials only.
    pub symbols_on_success: RunningStats,
    /// Decode attempts per trial.
    pub attempts: RunningStats,
    /// Symbols transmitted across *all* trials (failures included).
    pub total_symbols: u64,
    /// Payload bits per trial (for the throughput computation).
    payload_bits: u32,
}

impl RatelessOutcome {
    fn new(payload_bits: u32) -> Self {
        Self {
            trials: 0,
            successes: 0,
            undetected: 0,
            rate: RunningStats::new(),
            symbols_on_success: RunningStats::new(),
            attempts: RunningStats::new(),
            total_symbols: 0,
            payload_bits,
        }
    }

    /// Mean achieved rate (bits/symbol), failures counted as zero.
    pub fn rate_mean(&self) -> f64 {
        self.rate.mean()
    }

    /// Standard error of the mean rate.
    pub fn rate_stderr(&self) -> f64 {
        self.rate.stderr()
    }

    /// Aggregate throughput: correctly delivered payload bits divided by
    /// all symbols transmitted (failed trials' symbols included). Unlike
    /// [`rate_mean`](Self::rate_mean) — a mean of per-trial ratios, which
    /// Jensen's inequality biases upward for short messages — this is the
    /// operational long-run rate. Note that under genie termination even
    /// this metric can edge past capacity at very low SNR: the genie's
    /// stop signal is unpaid side information worth ~log2(attempts) bits,
    /// which is material against a 24-bit message (see EXPERIMENTS.md).
    pub fn throughput(&self) -> f64 {
        if self.total_symbols == 0 {
            0.0
        } else {
            f64::from(self.successes) * f64::from(self.payload_bits) / self.total_symbols as f64
        }
    }

    /// Fraction of trials decoded correctly.
    pub fn success_fraction(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            f64::from(self.successes) / f64::from(self.trials)
        }
    }
}

impl Accumulate for RatelessOutcome {
    fn merge(&mut self, other: Self) {
        if other.trials == 0 {
            return;
        }
        if self.trials == 0 {
            *self = other;
            return;
        }
        debug_assert_eq!(self.payload_bits, other.payload_bits);
        self.trials += other.trials;
        self.successes += other.successes;
        self.undetected += other.undetected;
        self.rate.merge(&other.rate);
        self.symbols_on_success.merge(&other.symbols_on_success);
        self.attempts.merge(&other.attempts);
        self.total_symbols += other.total_symbols;
    }
}

/// Per-worker reusable state for the rateless scenario: one sender and
/// one receiver session, rebound to each trial's reseeded code, and the
/// one scratch every decode attempt runs through — after the first
/// trial warms them, a genie-mode worker performs **zero heap
/// allocation** per trial (CRC-mode framing still builds one message
/// per trial). Every retry decodes from the root.
pub struct RatelessWorker<M: Mapper, C: CostModel<M::Symbol>> {
    tx: Option<TxSession<AnyHash, M, AnySchedule>>,
    rx: Option<RxSession<AnyHash, M, C, AnySchedule>>,
    scratch: DecoderScratch,
    message: BitVec,
    payload: BitVec,
    sub: Vec<(Slot, M::Symbol)>,
    noisy: Vec<M::Symbol>,
}

/// The generic rateless experiment: one trial = draw message, stream
/// sub-passes through the channel, re-decode on the thinned attempt
/// schedule, stop at acceptance. Instantiated per channel family via
/// [`ChannelModel`].
struct RatelessScenario<'a, M: Mapper, C: CostModel<M::Symbol>, CM: ChannelModel<M::Symbol>> {
    message_bits: u32,
    k: u32,
    tail_segments: u32,
    hash: HashFamily,
    mapper: M,
    cost: C,
    schedule: &'a AnySchedule,
    beam: BeamConfig,
    max_passes: u32,
    attempt_growth: f64,
    termination: Termination,
    payload_bits: u32,
    channel: CM,
    /// `derive_seed` stream labels for (code, noise, message) — kept
    /// distinct per channel family so ported entry points reproduce the
    /// pre-engine trial randomness.
    streams: [u64; 3],
    master_seed: u64,
}

/// Fills `out` with `bits` random bits (no allocation once warmed).
fn random_message_into(rng: &mut Rng, bits: u32, out: &mut BitVec) {
    out.clear();
    for _ in 0..bits {
        out.push(rng.bit());
    }
}

impl<M, C, CM> RatelessScenario<'_, M, C, CM>
where
    M: Mapper,
    C: CostModel<M::Symbol>,
    CM: ChannelModel<M::Symbol>,
{
    fn params(&self, code_seed: u64) -> CodeParams {
        CodeParams::builder()
            .message_bits(self.message_bits)
            .k(self.k)
            .tail_segments(self.tail_segments)
            .seed(code_seed)
            .build()
            .expect("invalid rateless configuration")
    }
}

impl<M, C, CM> Scenario for RatelessScenario<'_, M, C, CM>
where
    M: Mapper,
    C: CostModel<M::Symbol>,
    CM: ChannelModel<M::Symbol>,
    M::Symbol: Send,
{
    type Worker = RatelessWorker<M, C>;
    type Acc = RatelessOutcome;

    fn make_worker(&self) -> Self::Worker {
        RatelessWorker {
            tx: None,
            rx: None,
            scratch: DecoderScratch::new(),
            message: BitVec::new(),
            payload: BitVec::new(),
            sub: Vec::new(),
            noisy: Vec::new(),
        }
    }

    fn empty_acc(&self) -> RatelessOutcome {
        RatelessOutcome::new(self.payload_bits)
    }

    fn run_trial(&self, trial: Trial, w: &mut Self::Worker, acc: &mut RatelessOutcome) {
        let code_seed = derive_seed(self.master_seed, self.streams[0], trial.index);
        let noise_seed = derive_seed(self.master_seed, self.streams[1], trial.index);
        let msg_seed = derive_seed(self.master_seed, self.streams[2], trial.index);
        let RatelessWorker {
            tx,
            rx,
            scratch,
            message,
            payload,
            sub,
            noisy,
        } = w;

        // Draw the trial's message (and, in CRC mode, frame it).
        let mut rng = Rng::seed_from(msg_seed);
        match self.termination {
            Termination::Genie => random_message_into(&mut rng, self.message_bits, message),
            Termination::Crc(ck) => {
                random_message_into(&mut rng, self.message_bits - ck.width() as u32, payload);
                *message = frame_encode(payload, ck);
            }
        }

        // Rebind the worker's long-lived sender/receiver sessions to
        // this trial's reseeded code.
        let params = self.params(code_seed);
        let hash = AnyHash::new(self.hash, code_seed);
        let tx = match tx {
            Some(t) => {
                t.rebind(&params, hash, message)
                    .expect("message length validated by config");
                t
            }
            None => tx.insert(TxSession::new(
                Encoder::new(&params, hash, self.mapper.clone(), message)
                    .expect("message length validated by config"),
                self.schedule.clone(),
            )),
        };
        let decoder = BeamDecoder::new(
            &params,
            hash,
            self.mapper.clone(),
            self.cost.clone(),
            self.beam,
        )
        .expect("beam config validated by run entry point");
        let rx = match rx {
            Some(r) => {
                r.rebind(decoder);
                r
            }
            None => {
                let terminator = match self.termination {
                    Termination::Genie => AnyTerminator::genie(BitVec::new()),
                    Termination::Crc(ck) => AnyTerminator::crc(ck),
                };
                rx.insert(
                    RxSession::new(
                        decoder,
                        self.schedule.clone(),
                        terminator,
                        RxConfig {
                            beam: self.beam,
                            max_symbols: u64::MAX, // the pass budget bounds the loop
                            attempt_growth: self.attempt_growth,
                            ..RxConfig::default()
                        },
                    )
                    .expect("attempt_growth validated by run entry point"),
                )
            }
        };
        if let Termination::Genie = self.termination {
            rx.terminator_mut()
                .genie_mut()
                .expect("genie session")
                .set_truth(message);
        }
        let mut channel = self.channel.make(noise_seed);

        // Stream sub-passes until the terminator accepts or the pass
        // budget is spent; empty sub-passes consume budget without
        // symbols.
        let mut finished = false;
        for _ in 0..self
            .max_passes
            .saturating_mul(self.schedule.subpasses_per_pass())
        {
            tx.next_subpass_into(sub);
            if sub.is_empty() {
                continue;
            }
            noisy.clear();
            noisy.extend(sub.iter().map(|&(_, x)| channel.transmit(x)));
            let poll = rx.ingest(scratch, noisy).expect("session still listening");
            if let Poll::Decoded { .. } = poll {
                finished = true;
                break;
            }
        }

        let correct = finished
            && match self.termination {
                // The genie accepts exactly the truth.
                Termination::Genie => true,
                Termination::Crc(_) => rx.payload() == Some(&*payload),
            };
        let sent = rx.symbols();
        acc.trials += 1;
        acc.attempts.push(f64::from(rx.attempts()));
        acc.total_symbols += sent;
        if correct {
            acc.successes += 1;
            acc.rate.push(f64::from(self.payload_bits) / sent as f64);
            acc.symbols_on_success.push(sent as f64);
        } else {
            if finished {
                acc.undetected += 1;
            }
            acc.rate.push(0.0);
        }
    }
}

/// When to cut a Monte-Carlo run short: evaluated by the engine after
/// each deterministic chunk merge, so early-stopped results are still
/// bit-identical for any worker count.
#[derive(Clone, Copy, Debug)]
pub struct StopRule {
    /// Never stop before this many trials.
    pub min_trials: u64,
    /// Normal quantile for the Wilson interval (1.96 ≈ 95%).
    pub z: f64,
    /// Stop once the Wilson half-width of the success fraction is at or
    /// below this.
    pub max_success_halfwidth: Option<f64>,
    /// Stop once the standard error of the mean rate is at or below
    /// this.
    pub max_rate_stderr: Option<f64>,
}

impl StopRule {
    /// A 95% Wilson-interval rule on the success fraction.
    pub fn success_within(halfwidth: f64, min_trials: u64) -> Self {
        Self {
            min_trials,
            z: 1.96,
            max_success_halfwidth: Some(halfwidth),
            max_rate_stderr: None,
        }
    }

    /// A rate-standard-error rule.
    pub fn rate_stderr_within(stderr: f64, min_trials: u64) -> Self {
        Self {
            min_trials,
            z: 1.96,
            max_success_halfwidth: None,
            max_rate_stderr: Some(stderr),
        }
    }

    /// `true` once every configured criterion is met (and at least one
    /// is configured).
    pub fn satisfied(&self, acc: &RatelessOutcome, trials_done: u64) -> bool {
        if trials_done < self.min_trials {
            return false;
        }
        if self.max_success_halfwidth.is_none() && self.max_rate_stderr.is_none() {
            return false;
        }
        if let Some(target) = self.max_success_halfwidth {
            if wilson_halfwidth(u64::from(acc.successes), u64::from(acc.trials), self.z) > target {
                return false;
            }
        }
        if let Some(target) = self.max_rate_stderr {
            if acc.rate.stderr() > target || acc.rate.count() < 2 {
                return false;
            }
        }
        true
    }
}

fn payload_bits_for(message_bits: u32, termination: Termination) -> u32 {
    match termination {
        Termination::Genie => message_bits,
        // Saturating: a message shorter than its checksum is rejected by
        // `run_generic` before any trial runs.
        Termination::Crc(ck) => message_bits.saturating_sub(ck.width() as u32),
    }
}

/// Runs the generic rateless experiment on `engine`, optionally early
/// stopping. Returns the merged outcome (its `trials` field reports how
/// many trials it covers).
fn run_generic<M, C, CM>(
    scenario: &RatelessScenario<'_, M, C, CM>,
    max_trials: u32,
    engine: &SimEngine,
    stop: Option<&StopRule>,
) -> Result<RatelessOutcome, SpinalError>
where
    M: Mapper,
    C: CostModel<M::Symbol>,
    CM: ChannelModel<M::Symbol>,
    M::Symbol: Send,
{
    // Validate the whole configuration up front with typed errors, so
    // per-trial construction can rely on it unconditionally.
    if scenario.attempt_growth.is_nan() || scenario.attempt_growth < 1.0 {
        return Err(SpinalError::AttemptGrowth(scenario.attempt_growth));
    }
    scenario.beam.validate()?;
    CodeParams::builder()
        .message_bits(scenario.message_bits)
        .k(scenario.k)
        .tail_segments(scenario.tail_segments)
        .build()?;
    if let Termination::Crc(ck) = scenario.termination {
        if scenario.message_bits <= ck.width() as u32 {
            return Err(SpinalError::CrcWidth {
                message_bits: scenario.message_bits,
                crc_bits: ck.width() as u32,
            });
        }
    }
    let (outcome, _trials) = engine.run_until(
        scenario,
        u64::from(max_trials),
        scenario.master_seed,
        |acc: &RatelessOutcome, done| stop.is_some_and(|rule| rule.satisfied(acc, done)),
    );
    Ok(outcome)
}

impl RatelessConfig {
    /// The scenario for this configuration over an arbitrary I-Q channel
    /// model (the `streams` labels keep trial randomness stable per
    /// family).
    fn scenario<CM: ChannelModel<spinal_core::IqSymbol>>(
        &self,
        channel: CM,
        streams: [u64; 3],
        seed: u64,
    ) -> RatelessScenario<'_, AnyIqMapper, AwgnCost, CM> {
        RatelessScenario {
            message_bits: self.message_bits,
            k: self.k,
            tail_segments: self.tail_segments,
            hash: self.hash,
            mapper: self.mapper.clone(),
            cost: AwgnCost,
            schedule: &self.schedule,
            beam: self.beam,
            max_passes: self.max_passes,
            attempt_growth: self.attempt_growth,
            termination: self.termination,
            payload_bits: payload_bits_for(self.message_bits, self.termination),
            channel,
            streams,
            master_seed: seed,
        }
    }
}

impl BscRatelessConfig {
    fn scenario<C: CostModel<u8>, CM: ChannelModel<u8>>(
        &self,
        cost: C,
        channel: CM,
        streams: [u64; 3],
        seed: u64,
    ) -> RatelessScenario<'_, BinaryMapper, C, CM> {
        RatelessScenario {
            message_bits: self.message_bits,
            k: self.k,
            tail_segments: self.tail_segments,
            hash: self.hash,
            mapper: BinaryMapper::new(),
            cost,
            schedule: &self.schedule,
            beam: self.beam,
            max_passes: self.max_passes,
            attempt_growth: self.attempt_growth,
            termination: self.termination,
            payload_bits: payload_bits_for(self.message_bits, self.termination),
            channel,
            streams,
            master_seed: seed,
        }
    }
}

/// Runs `trials` AWGN trials at `snr_db` and aggregates (serial engine —
/// the historical entry point).
pub fn run_awgn(
    cfg: &RatelessConfig,
    snr_db: f64,
    trials: u32,
    seed: u64,
) -> Result<RatelessOutcome, SpinalError> {
    run_awgn_with(cfg, snr_db, trials, seed, &SimEngine::serial())
}

/// [`run_awgn`] on an explicit [`SimEngine`] (sharded across its
/// workers; bit-identical for any worker count).
pub fn run_awgn_with(
    cfg: &RatelessConfig,
    snr_db: f64,
    trials: u32,
    seed: u64,
    engine: &SimEngine,
) -> Result<RatelessOutcome, SpinalError> {
    run_awgn_until(cfg, snr_db, trials, seed, engine, None)
}

/// [`run_awgn_with`] with an optional early-stop rule: runs at most
/// `max_trials`, stopping once `stop` is satisfied on the deterministic
/// chunk prefix.
pub fn run_awgn_until(
    cfg: &RatelessConfig,
    snr_db: f64,
    max_trials: u32,
    seed: u64,
    engine: &SimEngine,
    stop: Option<&StopRule>,
) -> Result<RatelessOutcome, SpinalError> {
    let model = AwgnModel {
        snr_db,
        adc_bits: cfg.adc_bits,
        peak: cfg.mapper.peak(),
    };
    run_generic(
        &cfg.scenario(model, [0, 1, 2], seed),
        max_trials,
        engine,
        stop,
    )
}

/// Runs `trials` Rayleigh block-fading trials at mean SNR `snr_db` with
/// coherence `block_len` symbols (coherent receiver; ideal ADC).
pub fn run_fading_with(
    cfg: &RatelessConfig,
    snr_db: f64,
    block_len: u32,
    trials: u32,
    seed: u64,
    engine: &SimEngine,
) -> Result<RatelessOutcome, SpinalError> {
    if block_len == 0 {
        return Err(SpinalError::BlockLength(block_len));
    }
    let model = FadingModel { snr_db, block_len };
    run_generic(
        &cfg.scenario(model, [20, 21, 22], seed),
        trials,
        engine,
        None,
    )
}

/// Runs `trials` BSC trials at crossover probability `p` and aggregates
/// (serial engine — the historical entry point).
pub fn run_bsc(
    cfg: &BscRatelessConfig,
    p: f64,
    trials: u32,
    seed: u64,
) -> Result<RatelessOutcome, SpinalError> {
    run_bsc_with(cfg, p, trials, seed, &SimEngine::serial())
}

/// [`run_bsc`] on an explicit [`SimEngine`].
pub fn run_bsc_with(
    cfg: &BscRatelessConfig,
    p: f64,
    trials: u32,
    seed: u64,
    engine: &SimEngine,
) -> Result<RatelessOutcome, SpinalError> {
    run_bsc_until(cfg, p, trials, seed, engine, None)
}

/// [`run_bsc_with`] with an optional early-stop rule.
pub fn run_bsc_until(
    cfg: &BscRatelessConfig,
    p: f64,
    max_trials: u32,
    seed: u64,
    engine: &SimEngine,
    stop: Option<&StopRule>,
) -> Result<RatelessOutcome, SpinalError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SpinalError::Probability {
            name: "crossover",
            value: p,
        });
    }
    run_generic(
        &cfg.scenario(BscCost, BscModel { p }, [10, 11, 12], seed),
        max_trials,
        engine,
        stop,
    )
}

/// Runs `trials` binary-erasure trials at erasure probability `e`:
/// erased bits reach the decoder as [`BecCost::ERASURE`] and cost
/// nothing against any hypothesis, surviving bits are exact.
pub fn run_bec_with(
    cfg: &BscRatelessConfig,
    e: f64,
    trials: u32,
    seed: u64,
    engine: &SimEngine,
) -> Result<RatelessOutcome, SpinalError> {
    if !(0.0..=1.0).contains(&e) {
        return Err(SpinalError::Probability {
            name: "erasure",
            value: e,
        });
    }
    run_generic(
        &cfg.scenario(BecCost, BecModel { e }, [30, 31, 32], seed),
        trials,
        engine,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RatelessConfig {
        RatelessConfig {
            message_bits: 16,
            k: 4,
            tail_segments: 0,
            hash: HashFamily::Lookup3,
            mapper: AnyIqMapper::linear(6),
            schedule: AnySchedule::none(),
            beam: BeamConfig::with_beam(8),
            adc_bits: None,
            max_passes: 60,
            attempt_growth: 1.0,
            termination: Termination::Genie,
        }
    }

    #[test]
    fn high_snr_decodes_in_one_pass() {
        // At 30 dB with k = 4 (capacity ≈ 10 bits/symbol), one pass must
        // almost always suffice: rate = k.
        let out = run_awgn(&quick_cfg(), 30.0, 20, 1).unwrap();
        assert_eq!(out.trials, 20);
        assert!(out.success_fraction() > 0.95, "{}", out.success_fraction());
        assert!(
            (out.rate_mean() - 4.0).abs() < 0.3,
            "rate {}",
            out.rate_mean()
        );
        assert_eq!(out.undetected, 0);
    }

    #[test]
    fn moderate_snr_needs_more_passes_but_succeeds() {
        // At 0 dB, capacity = 1 bit/symbol: expect ~4+ passes, rate ≤ ~1.
        let out = run_awgn(&quick_cfg(), 0.0, 15, 2).unwrap();
        assert!(out.success_fraction() > 0.9, "{}", out.success_fraction());
        let r = out.rate_mean();
        assert!(r > 0.3 && r < 1.1, "rate {r} implausible at 0 dB");
        // More symbols than one pass (4 symbols).
        assert!(out.symbols_on_success.mean() > 8.0);
    }

    #[test]
    fn rate_monotone_in_snr() {
        let cfg = quick_cfg();
        let lo = run_awgn(&cfg, 0.0, 15, 3).unwrap().rate_mean();
        let hi = run_awgn(&cfg, 20.0, 15, 3).unwrap().rate_mean();
        assert!(hi > lo + 0.5, "rates: lo {lo}, hi {hi}");
    }

    #[test]
    fn throughput_below_rate_mean_and_positive() {
        // Jensen: the mean of per-trial ratios upper-bounds the aggregate
        // throughput when (as here) essentially every trial succeeds.
        let out = run_awgn(&quick_cfg(), 10.0, 20, 4).unwrap();
        assert!(out.success_fraction() > 0.9);
        assert!(out.throughput() > 0.0);
        assert!(
            out.throughput() <= out.rate_mean() + 1e-9,
            "throughput {} > rate_mean {}",
            out.throughput(),
            out.rate_mean()
        );
        // Every successful trial's symbols are included in the total.
        let success_symbol_sum =
            out.symbols_on_success.mean() * out.symbols_on_success.count() as f64;
        assert!(out.total_symbols as f64 >= success_symbol_sum - 1e-6);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = quick_cfg();
        let a = run_awgn(&cfg, 5.0, 10, 42).unwrap();
        let b = run_awgn(&cfg, 5.0, 10, 42).unwrap();
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.rate.mean(), b.rate.mean());
        assert_eq!(a.symbols_on_success.count(), b.symbols_on_success.count());
    }

    #[test]
    fn adc_at_14_bits_is_transparent() {
        let mut cfg = quick_cfg();
        let ideal = run_awgn(&cfg, 10.0, 15, 7).unwrap();
        cfg.adc_bits = Some(14);
        let quantized = run_awgn(&cfg, 10.0, 15, 7).unwrap();
        // 14-bit quantization must not measurably change the rate.
        assert!(
            (ideal.rate_mean() - quantized.rate_mean()).abs() < 0.25,
            "ideal {} vs adc {}",
            ideal.rate_mean(),
            quantized.rate_mean()
        );
    }

    #[test]
    fn coarse_adc_hurts() {
        let mut cfg = quick_cfg();
        cfg.adc_bits = Some(2); // 2-bit ADC mangles the dense constellation
        let coarse = run_awgn(&cfg, 25.0, 10, 8).unwrap();
        cfg.adc_bits = Some(14);
        let fine = run_awgn(&cfg, 25.0, 10, 8).unwrap();
        assert!(
            coarse.rate_mean() < fine.rate_mean(),
            "coarse {} !< fine {}",
            coarse.rate_mean(),
            fine.rate_mean()
        );
    }

    #[test]
    fn crc_mode_pays_overhead_and_terminates() {
        let mut cfg = quick_cfg();
        cfg.message_bits = 32; // 16 payload + 16 CRC
        cfg.termination = Termination::Crc(Checksum::Crc16);
        let out = run_awgn(&cfg, 20.0, 15, 9).unwrap();
        assert!(out.success_fraction() > 0.8, "{}", out.success_fraction());
        // Rate counts only payload bits: 16 payload over ≥ 8 symbols.
        assert!(out.rate_mean() < 4.0);
    }

    #[test]
    fn punctured_high_snr_exceeds_k() {
        // The §3.1 puncturing claim: with stride-8 sub-passes and genie
        // feedback at 35 dB, rates above k are reachable (gap levels are
        // bridged by the deferred-prune beam).
        let cfg = RatelessConfig {
            message_bits: 24,
            k: 8,
            tail_segments: 0,
            hash: HashFamily::Lookup3,
            mapper: AnyIqMapper::linear(10),
            schedule: AnySchedule::strided(8).expect("8 is a valid stride"),
            beam: BeamConfig::paper_default(),
            adc_bits: Some(14),
            max_passes: 200,
            attempt_growth: 1.0,
            termination: Termination::Genie,
        };
        let out = run_awgn(&cfg, 35.0, 10, 11).unwrap();
        assert!(out.success_fraction() > 0.9);
        assert!(
            out.rate_mean() > 8.5,
            "puncturing should push rate above k = 8, got {}",
            out.rate_mean()
        );
    }

    #[test]
    fn bsc_clean_channel_one_pass_per_k() {
        // p = 0: decode after k passes (k bits/segment need k coded bits
        // at rate 1... actually after 1 pass the beam sees 1 bit per
        // segment — not enough to distinguish 2^k children, so several
        // passes are required; rate = k/L ≤ 1 for BSC).
        let cfg = BscRatelessConfig::default_k4(16);
        let out = run_bsc(&cfg, 0.0, 10, 1).unwrap();
        assert!(out.success_fraction() > 0.9);
        // Rate can approach C = 1 bit per channel use but not exceed it
        // (plus slack for the short block).
        let r = out.rate_mean();
        assert!(r > 0.4 && r <= 1.01, "clean BSC rate {r}");
    }

    #[test]
    fn bsc_noisy_channel_rate_below_capacity_ballpark() {
        let cfg = BscRatelessConfig::default_k4(16);
        let out = run_bsc(&cfg, 0.11, 15, 2).unwrap(); // C ≈ 0.5
        assert!(out.success_fraction() > 0.8, "{}", out.success_fraction());
        let r = out.rate_mean();
        // Genie termination on a 16-bit message gets ~log2(attempts)
        // bits of free side information, so the per-trial rate mean can
        // sit somewhat above C at this block length; the ballpark bound
        // is correspondingly loose. The aggregate throughput (payload
        // over *all* symbols, Jensen-free) is the tighter operational
        // metric and gets the tighter bound.
        assert!(r > 0.1 && r < 0.65, "BSC(0.11) rate {r}");
        let t = out.throughput();
        assert!(t > 0.1 && t < 0.60, "BSC(0.11) throughput {t}");
    }

    #[test]
    fn hopeless_channel_reports_failures() {
        // p = 0.5 carries zero information; the pass budget must expire.
        let cfg = BscRatelessConfig {
            max_passes: 12,
            ..BscRatelessConfig::default_k4(16)
        };
        let out = run_bsc(&cfg, 0.5, 5, 3).unwrap();
        assert_eq!(out.successes, 0);
        assert_eq!(out.rate_mean(), 0.0);
    }

    /// Acceptance contract: every reported statistic — success
    /// fraction, rate mean/stderr, symbol counts — is bit-identical
    /// whatever the worker count, at several chunk sizes.
    #[test]
    fn engine_output_bit_identical_across_worker_counts() {
        let cfg = quick_cfg();
        for chunk in [4u64, 16, 64] {
            let base =
                run_awgn_with(&cfg, 8.0, 30, 77, &SimEngine::serial().chunk_trials(chunk)).unwrap();
            for workers in [2usize, 8] {
                let out = run_awgn_with(
                    &cfg,
                    8.0,
                    30,
                    77,
                    &SimEngine::with_workers(workers).chunk_trials(chunk),
                )
                .unwrap();
                assert_eq!(out.trials, base.trials);
                assert_eq!(out.successes, base.successes, "chunk {chunk} w {workers}");
                assert_eq!(out.undetected, base.undetected);
                assert_eq!(out.total_symbols, base.total_symbols);
                assert_eq!(
                    out.success_fraction().to_bits(),
                    base.success_fraction().to_bits()
                );
                assert_eq!(out.rate_mean().to_bits(), base.rate_mean().to_bits());
                assert_eq!(out.rate_stderr().to_bits(), base.rate_stderr().to_bits());
                assert_eq!(
                    out.symbols_on_success.mean().to_bits(),
                    base.symbols_on_success.mean().to_bits()
                );
            }
        }
        // BSC path too.
        let bsc = BscRatelessConfig::default_k4(16);
        let a = run_bsc_with(&bsc, 0.03, 24, 5, &SimEngine::serial().chunk_trials(8)).unwrap();
        let b = run_bsc_with(
            &bsc,
            0.03,
            24,
            5,
            &SimEngine::with_workers(8).chunk_trials(8),
        )
        .unwrap();
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.total_symbols, b.total_symbols);
        assert_eq!(a.rate_mean().to_bits(), b.rate_mean().to_bits());
    }

    #[test]
    fn early_stop_caps_trials_deterministically() {
        let cfg = quick_cfg();
        // At 20 dB essentially everything succeeds: a loose Wilson
        // target is reached long before the 400-trial budget.
        let rule = StopRule::success_within(0.2, 16);
        let engine = SimEngine::serial().chunk_trials(8);
        let out = run_awgn_until(&cfg, 20.0, 400, 3, &engine, Some(&rule)).unwrap();
        assert!(out.trials < 400, "early stop never fired ({})", out.trials);
        assert!(out.trials >= 16);
        // Same stopped statistics with a different worker count.
        let par = run_awgn_until(
            &cfg,
            20.0,
            400,
            3,
            &SimEngine::with_workers(4).chunk_trials(8),
            Some(&rule),
        )
        .unwrap();
        assert_eq!(par.trials, out.trials);
        assert_eq!(par.rate_mean().to_bits(), out.rate_mean().to_bits());
    }

    #[test]
    fn bec_clean_and_erasure_rates() {
        let cfg = BscRatelessConfig::default_k4(16);
        let engine = SimEngine::serial();
        // e = 0: the BEC is transparent, rate matches the clean BSC.
        let clean = run_bec_with(&cfg, 0.0, 10, 1, &engine).unwrap();
        assert!(clean.success_fraction() > 0.9);
        assert!(clean.rate_mean() > 0.4);
        // e = 0.3 (capacity 0.7): decodes, but needs more symbols; the
        // rate cannot exceed the surviving-bit fraction by much.
        let lossy = run_bec_with(&cfg, 0.3, 10, 2, &engine).unwrap();
        assert!(
            lossy.success_fraction() > 0.8,
            "{}",
            lossy.success_fraction()
        );
        assert!(
            lossy.symbols_on_success.mean() > clean.symbols_on_success.mean(),
            "erasures must cost symbols: {} !> {}",
            lossy.symbols_on_success.mean(),
            clean.symbols_on_success.mean()
        );
    }

    #[test]
    fn fading_decodes_at_high_mean_snr() {
        let cfg = quick_cfg();
        let out = run_fading_with(&cfg, 25.0, 8, 12, 4, &SimEngine::serial()).unwrap();
        assert!(out.success_fraction() > 0.7, "{}", out.success_fraction());
        // Deep fades make rate vary; just demand sane bounds.
        assert!(out.rate_mean() > 0.0 && out.rate_mean() <= 4.0 + 1e-9);
    }

    #[test]
    fn attempt_growth_reduces_attempts() {
        let mut cfg = quick_cfg();
        let dense = run_awgn(&cfg, 0.0, 8, 5).unwrap();
        cfg.attempt_growth = 1.5;
        let sparse = run_awgn(&cfg, 0.0, 8, 5).unwrap();
        assert!(
            sparse.attempts.mean() < dense.attempts.mean(),
            "sparse {} !< dense {}",
            sparse.attempts.mean(),
            dense.attempts.mean()
        );
        // Thinning may overshoot, never undershoot symbols.
        assert!(sparse.symbols_on_success.mean() >= dense.symbols_on_success.mean() * 0.99);
    }
}
