//! The symbol-granularity link simulation engine.
//!
//! Time advances one transmitted symbol per tick. Each tick:
//!
//! 1. Feedback messages whose propagation delay has elapsed are
//!    delivered to the sender: ACKs (individual or cumulative) retire
//!    frames — delivery is a *sender-side* event — and NACKs seek the
//!    frame's [`TxSession`] back to the first missing position for
//!    replay. Retired slots are refilled with fresh frames, if any
//!    remain.
//! 2. The sender picks the next frame round-robin (firing its retry
//!    timeout first, if armed and expired) and transmits that frame's
//!    next stream symbol — a fresh one at the frontier, or a replayed
//!    one below it — through the shared AWGN channel and then through
//!    the frame's seeded [`FaultStream`], which may drop it, duplicate
//!    it, corrupt it, mislabel it, or hold it for later ticks.
//! 3. Whatever the fault stream delivers reaches the receiver. For an
//!    undecoded frame the symbols are ingested slot-labelled and the
//!    pool runs the (incremental, thinned) decode attempt; for a decoded
//!    frame each arrival triggers a re-ACK (how a lost ACK heals in
//!    [`FeedbackMode::AckOnly`]). Feedback sends are themselves erased
//!    with probability [`FeedbackConfig::loss`].
//!
//! Liveness never depends on feedback: the per-frame symbol budget
//! [`LinkConfig::max_symbols_per_frame`] cuts any frame the sender has
//! overspent on, so even a total feedback blackout (loss = 1.0)
//! terminates with every frame accounted for — delivered, exhausted, or
//! abandoned.
//!
//! Every random decision — frame payloads, channel noise, link faults,
//! feedback erasures — is drawn from counter-derived seed streams, so a
//! run is a pure function of `(cfg, n_frames, seed)` and ensembles are
//! bit-identical at any worker count.

use crate::fault::{unit, Delivery, FaultStream};
use crate::protocol::{FeedbackConfig, FeedbackMode, LinkConfig, LinkReport};
use spinal_channel::{AwgnChannel, Channel, Rng};
use spinal_core::frame::{frame_encode, AnyTerminator};
use spinal_core::hash::AnyHash;
use spinal_core::map::AnyIqMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::AnySchedule;
use spinal_core::sched::{MultiConfig, MultiDecoder, SessionEvent, SessionId, SessionOutcome};
use spinal_core::session::{Poll, RxConfig, RxSession, TxPosition, TxSession};
use spinal_core::symbol::{IqSymbol, Slot};
use spinal_core::{AwgnCost, BitVec, Encoder, SpinalError};
use spinal_sim::engine::{Accumulate, Scenario, SimEngine, Trial};
use spinal_sim::stats::derive_seed;

/// Seed-stream labels (`derive_seed(seed, LABEL, index)`): per-frame
/// code seeds, per-frame payloads, channel noise, per-frame fault
/// streams, feedback erasures.
const STREAM_CODE: u64 = 60;
const STREAM_MSG: u64 = 61;
const STREAM_CHANNEL: u64 = 62;
const STREAM_FAULT: u64 = 63;
const STREAM_FEEDBACK: u64 = 64;

/// The receiver pool type: every in-flight frame's session lives in one
/// [`MultiDecoder`], so the window's sessions decode through a single
/// shared scratch instead of one cold scratch per frame.
type RxPool = MultiDecoder<AnyHash, AnyIqMapper, AwgnCost, AnySchedule>;

/// One frame in flight: sender session and replay log, the pool id of
/// its receiver session, its fault stream, and both sides' protocol
/// state. The receiver's checkpoint store makes the per-symbol decode
/// attempts incremental — under `NoPuncture`, a symbol at spine
/// position `t` resumes the tree sweep at level `t` instead of level 0.
struct LinkFrame {
    idx: u32,
    /// Truth the receiver must reproduce: the CRC-stripped payload under
    /// CRC termination, the whole message under genie termination.
    payload: BitVec,
    tx: TxSession<AnyHash, AnyIqMapper, AnySchedule>,
    rx_id: SessionId,
    /// `positions[s]` = the [`TxSession`] cursor before stream symbol
    /// `s` was first produced — the seek target when `s` is replayed.
    positions: Vec<TxPosition>,
    /// Next stream position to send; below `positions.len()` during a
    /// replay, at it when transmitting fresh symbols.
    next_seq: u64,
    /// Transmissions charged against [`LinkConfig::max_symbols_per_frame`]
    /// (replays included).
    sent_total: u64,
    fault: FaultStream,
    first_sent_at: Option<u64>,
    /// Receiver-side decode time (the sender does not know this).
    decoded_at: Option<u64>,
    /// The accepted payload mismatched the truth (CRC false accept).
    misdecoded: bool,
    /// Receiver-side gap detector for [`FeedbackMode::Nack`].
    next_seq_expected: u64,
    last_nacked: Option<u64>,
    /// Sender-side retry timer: last tick with evidence of progress and
    /// the current (backed-off) timeout; 0 disables.
    last_progress: u64,
    cur_timeout: u64,
}

impl LinkFrame {
    fn new(
        cfg: &LinkConfig,
        pool: &mut RxPool,
        seed: u64,
        frame_idx: u32,
    ) -> Result<Self, SpinalError> {
        let code_seed = derive_seed(seed, STREAM_CODE, u64::from(frame_idx));
        let msg_seed = derive_seed(seed, STREAM_MSG, u64::from(frame_idx));
        let params = CodeParams::builder()
            .message_bits(cfg.message_bits)
            .k(cfg.k)
            .seed(code_seed)
            .build()?;
        let hash = AnyHash::new(cfg.hash, code_seed);
        let mut rng = Rng::seed_from(msg_seed);
        let (payload, message) = match cfg.crc {
            Some(ck) => {
                let payload: BitVec = (0..cfg.message_bits as usize - ck.width())
                    .map(|_| rng.bit())
                    .collect();
                let framed = frame_encode(&payload, ck);
                (payload, framed)
            }
            None => {
                let message: BitVec = (0..cfg.message_bits).map(|_| rng.bit()).collect();
                (message.clone(), message)
            }
        };
        let tx = TxSession::new(
            Encoder::new(&params, hash, cfg.mapper.clone(), &message)?,
            cfg.schedule.clone(),
        );
        let terminator = match cfg.crc {
            Some(ck) => AnyTerminator::crc(ck),
            None => AnyTerminator::genie(message.clone()),
        };
        let decoder = spinal_core::decode::BeamDecoder::new(
            &params,
            hash,
            cfg.mapper.clone(),
            AwgnCost,
            cfg.beam,
        )?;
        let rx = RxSession::new(
            decoder,
            cfg.schedule.clone(),
            terminator,
            RxConfig {
                beam: cfg.beam,
                max_symbols: cfg.max_symbols_per_frame,
                attempt_growth: cfg.attempt_growth,
                ..RxConfig::default()
            },
        )?;
        let rx_id = pool.insert(rx)?;
        let fault = cfg
            .faults
            .reseeded(derive_seed(seed, STREAM_FAULT, u64::from(frame_idx)))
            .stream();
        Ok(Self {
            idx: frame_idx,
            payload,
            tx,
            rx_id,
            positions: Vec::new(),
            next_seq: 0,
            sent_total: 0,
            fault,
            first_sent_at: None,
            decoded_at: None,
            misdecoded: false,
            next_seq_expected: 0,
            last_nacked: None,
            last_progress: 0,
            cur_timeout: 0,
        })
    }
}

/// One feedback message in flight on the reverse link.
enum FbKind {
    Ack(u32),
    Nack(u32, u64),
    Cum(Vec<u32>),
}

struct FbMsg {
    due: u64,
    kind: FbKind,
}

/// Draws the feedback BEC and enqueues the message if it survives.
#[allow(clippy::too_many_arguments)]
fn send_feedback(
    kind: FbKind,
    now: u64,
    feedback: &FeedbackConfig,
    delay: u64,
    seed: u64,
    fb_counter: &mut u64,
    queue: &mut Vec<FbMsg>,
    report: &mut LinkReport,
) {
    report.feedback_sent += 1;
    let r = derive_seed(seed, STREAM_FEEDBACK, *fb_counter);
    *fb_counter += 1;
    if unit(r) < feedback.loss {
        report.feedback_lost += 1;
    } else {
        queue.push(FbMsg {
            due: now + delay,
            kind,
        });
    }
}

/// How the transmitting frame's tick ended.
enum TickEnd {
    Keep,
    Exhaust,
    Abandon,
}

/// Runs the link protocol for `n_frames` frames and reports.
///
/// # Errors
///
/// Returns a typed [`SpinalError`] for an invalid configuration
/// (window, attempt growth, feedback, faults, or code parameters)
/// without running any symbol of simulation.
pub fn simulate_link(
    cfg: &LinkConfig,
    n_frames: u32,
    seed: u64,
) -> Result<LinkReport, SpinalError> {
    cfg.validate()?;
    let mut channel = AwgnChannel::from_snr_db(cfg.snr_db, derive_seed(seed, STREAM_CHANNEL, 0));

    let mut report = LinkReport {
        frames_requested: n_frames,
        ..LinkReport::default()
    };

    // All in-flight receiver sessions share one decoder pool, so every
    // decode attempt runs through the pool's single hot scratch. The attempt ceiling routes
    // pathological frames to quarantine (the `Abandon` outcome).
    let mut pool = RxPool::new(MultiConfig {
        max_session_attempts: cfg.max_attempts_per_frame,
        ..MultiConfig::default()
    });
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut ingest_buf: Vec<(Slot, IqSymbol)> = Vec::new();
    let mut fb_queue: Vec<FbMsg> = Vec::new();
    let mut fb_counter: u64 = 0;
    // Receiver-side cumulative state: frames decoded but (as far as the
    // receiver can tell) not yet retired by the sender.
    let mut decoded_unretired: Vec<u32> = Vec::new();

    let mut next_frame_idx: u32 = 0;
    let mut window: Vec<LinkFrame> = Vec::new();
    while window.len() < cfg.frames_in_flight as usize && next_frame_idx < n_frames {
        window.push(LinkFrame::new(cfg, &mut pool, seed, next_frame_idx)?);
        next_frame_idx += 1;
    }

    let mut now: u64 = 0;
    let mut rr: usize = 0; // round-robin pointer

    while !window.is_empty() {
        // 1. Deliver due feedback to the sender.
        let mut i = 0;
        while i < fb_queue.len() {
            if fb_queue[i].due > now {
                i += 1;
                continue;
            }
            match fb_queue.swap_remove(i).kind {
                FbKind::Ack(fidx) => retire(
                    fidx,
                    now,
                    cfg,
                    seed,
                    &mut window,
                    &mut pool,
                    &mut report,
                    &mut next_frame_idx,
                    n_frames,
                )?,
                FbKind::Nack(fidx, seq) => {
                    if let Some(f) = window.iter_mut().find(|f| f.idx == fidx) {
                        // Seek back to the first position the receiver
                        // is missing and replay from there.
                        if (seq as usize) < f.positions.len() {
                            f.next_seq = f.next_seq.min(seq);
                        }
                        f.last_progress = now;
                    }
                }
                FbKind::Cum(list) => {
                    for fidx in list {
                        retire(
                            fidx,
                            now,
                            cfg,
                            seed,
                            &mut window,
                            &mut pool,
                            &mut report,
                            &mut next_frame_idx,
                            n_frames,
                        )?;
                    }
                }
            }
        }
        if window.is_empty() {
            break;
        }

        // Periodic cumulative snapshot (receiver → sender).
        if let FeedbackMode::CumulativeAck { period } = cfg.feedback.mode {
            if now > 0 && now.is_multiple_of(period) && !decoded_unretired.is_empty() {
                send_feedback(
                    FbKind::Cum(decoded_unretired.clone()),
                    now,
                    &cfg.feedback,
                    cfg.feedback_delay,
                    seed,
                    &mut fb_counter,
                    &mut fb_queue,
                    &mut report,
                );
            }
        }

        // 2. Round-robin transmit one symbol.
        rr %= window.len();
        let cur = rr;
        rr += 1;
        let mut tick_end = TickEnd::Keep;
        {
            let frame = &mut window[cur];

            // Retry timeout: no sign of progress for a full (backed-off)
            // timeout => rewind halfway and replay, guarding against
            // data-direction loss the receiver never saw.
            if frame.cur_timeout > 0
                && !frame.positions.is_empty()
                && now.saturating_sub(frame.last_progress) >= frame.cur_timeout
            {
                frame.next_seq = frame.next_seq.min(frame.positions.len() as u64 / 2);
                frame.last_progress = now;
                frame.cur_timeout = ((frame.cur_timeout as f64) * cfg.feedback.backoff)
                    .ceil()
                    .max(frame.cur_timeout as f64 + 1.0) as u64;
            }

            let s = frame.next_seq;
            if (s as usize) < frame.positions.len() {
                frame.tx.seek(frame.positions[s as usize]);
                report.symbols_replayed += 1;
            } else {
                frame.positions.push(frame.tx.position());
            }
            let (slot, x) = frame.tx.next_symbol();
            frame.next_seq = s + 1;
            let y = channel.transmit(x);
            report.symbols_sent += 1;
            frame.sent_total += 1;
            if frame.first_sent_at.is_none() {
                frame.first_sent_at = Some(now);
                frame.last_progress = now;
                frame.cur_timeout = cfg.feedback.timeout;
            }
            frame.fault.push(s, slot, y, &mut deliveries);

            // 3. Receiver side.
            if frame.decoded_at.is_some() {
                // Already decoded: every arrival triggers a re-ACK, so a
                // lost ACK heals as long as the sender keeps sending.
                if !deliveries.is_empty()
                    && matches!(
                        cfg.feedback.mode,
                        FeedbackMode::AckOnly | FeedbackMode::Nack
                    )
                {
                    send_feedback(
                        FbKind::Ack(frame.idx),
                        now,
                        &cfg.feedback,
                        cfg.feedback_delay,
                        seed,
                        &mut fb_counter,
                        &mut fb_queue,
                        &mut report,
                    );
                }
            } else if !deliveries.is_empty() {
                if cfg.feedback.mode == FeedbackMode::Nack {
                    for d in deliveries.iter() {
                        let gap = frame.next_seq_expected;
                        if d.seq > gap && frame.last_nacked != Some(gap) {
                            frame.last_nacked = Some(gap);
                            send_feedback(
                                FbKind::Nack(frame.idx, gap),
                                now,
                                &cfg.feedback,
                                cfg.feedback_delay,
                                seed,
                                &mut fb_counter,
                                &mut fb_queue,
                                &mut report,
                            );
                        }
                        if frame.last_nacked == Some(d.seq) {
                            frame.last_nacked = None;
                        }
                        if d.seq >= frame.next_seq_expected {
                            frame.next_seq_expected = d.seq + 1;
                        }
                    }
                }
                ingest_buf.clear();
                ingest_buf.extend(deliveries.iter().map(|d| (d.slot, d.symbol)));
                pool.ingest_at(frame.rx_id, &ingest_buf)
                    .expect("undecoded frame session is live and listening");
                pool.drive_into(&mut events);
                let ev = events
                    .iter()
                    .find(|e| e.id == frame.rx_id)
                    .expect("ingested session reports an event");
                match &ev.outcome {
                    SessionOutcome::Poll(Poll::NeedMore { .. })
                    | SessionOutcome::Deferred { .. } => {}
                    SessionOutcome::Poll(Poll::Decoded { symbols_used, .. }) => {
                        frame.decoded_at = Some(now);
                        report.symbols_to_decode.push(*symbols_used as f64);
                        let accepted = pool
                            .get(frame.rx_id)
                            .expect("decoded session is live")
                            .payload();
                        frame.misdecoded = accepted != Some(&frame.payload);
                        match cfg.feedback.mode {
                            FeedbackMode::AckOnly | FeedbackMode::Nack => send_feedback(
                                FbKind::Ack(frame.idx),
                                now,
                                &cfg.feedback,
                                cfg.feedback_delay,
                                seed,
                                &mut fb_counter,
                                &mut fb_queue,
                                &mut report,
                            ),
                            FeedbackMode::CumulativeAck { .. } => {
                                decoded_unretired.push(frame.idx);
                            }
                        }
                    }
                    SessionOutcome::Poll(Poll::Exhausted { .. }) => {
                        tick_end = TickEnd::Exhaust;
                    }
                    SessionOutcome::Abandoned { .. } => {
                        tick_end = TickEnd::Abandon;
                    }
                }
            }

            // Sender-side budget: the liveness guarantee — a frame the
            // sender has overspent on is cut even if feedback is dead.
            if matches!(tick_end, TickEnd::Keep) && frame.sent_total >= cfg.max_symbols_per_frame {
                tick_end = TickEnd::Exhaust;
            }
        }

        match tick_end {
            TickEnd::Keep => {}
            TickEnd::Exhaust | TickEnd::Abandon => {
                let frame = window.swap_remove(cur);
                pool.remove(frame.rx_id)
                    .expect("removed frame session is live");
                match tick_end {
                    TickEnd::Exhaust => report.frames_exhausted += 1,
                    _ => report.frames_abandoned += 1,
                }
                if next_frame_idx < n_frames {
                    window.push(LinkFrame::new(cfg, &mut pool, seed, next_frame_idx)?);
                    next_frame_idx += 1;
                }
            }
        }
        now += 1;
    }

    Ok(report)
}

/// Retires a frame the sender just learned is decoded: the delivery
/// event. An acknowledgement for a frame no longer in the window is a
/// duplicate.
#[allow(clippy::too_many_arguments)]
fn retire(
    fidx: u32,
    now: u64,
    cfg: &LinkConfig,
    seed: u64,
    window: &mut Vec<LinkFrame>,
    pool: &mut RxPool,
    report: &mut LinkReport,
    next_frame_idx: &mut u32,
    n_frames: u32,
) -> Result<(), SpinalError> {
    let Some(pos) = window.iter().position(|f| f.idx == fidx) else {
        report.duplicate_acks += 1;
        return Ok(());
    };
    let frame = window.swap_remove(pos);
    pool.remove(frame.rx_id).expect("retired frame is live");
    report.frames_delivered += 1;
    if frame.misdecoded {
        report.frames_misdecoded += 1;
    }
    let decoded_at = frame.decoded_at.expect("ACK implies decode");
    let first = frame.first_sent_at.expect("decoded implies sent");
    report.decode_latency.push((decoded_at - first) as f64);
    report.completion_latency.push(now - first);
    if *next_frame_idx < n_frames {
        window.push(LinkFrame::new(cfg, pool, seed, *next_frame_idx)?);
        *next_frame_idx += 1;
    }
    Ok(())
}

impl Accumulate for LinkReport {
    fn merge(&mut self, o: Self) {
        LinkReport::merge(self, &o);
    }
}

/// One independent link run (a "replication") per engine trial.
struct LinkScenario<'a> {
    cfg: &'a LinkConfig,
    n_frames: u32,
}

impl Scenario for LinkScenario<'_> {
    type Worker = ();
    type Acc = LinkReport;

    fn make_worker(&self) {}

    fn empty_acc(&self) -> LinkReport {
        LinkReport::default()
    }

    fn run_trial(&self, trial: Trial, _w: &mut (), acc: &mut LinkReport) {
        Accumulate::merge(
            acc,
            simulate_link(self.cfg, self.n_frames, trial.seed)
                .expect("config validated by simulate_link_ensemble"),
        );
    }
}

/// Runs `replications` independent copies of the link simulation on
/// `engine` (one replication per trial, counter-based seeds) and merges
/// their reports — the cheap way to tighten the latency/throughput
/// confidence intervals of a protocol operating point. Statistics are
/// bit-identical for any worker count, faults included.
pub fn simulate_link_ensemble(
    cfg: &LinkConfig,
    n_frames: u32,
    replications: u32,
    seed: u64,
    engine: &SimEngine,
) -> Result<LinkReport, SpinalError> {
    cfg.validate()?;
    Ok(engine.run(
        &LinkScenario { cfg, n_frames },
        u64::from(replications),
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, LinkFault};
    use spinal_core::frame::Checksum;

    #[test]
    fn zero_delay_high_snr_approaches_code_rate() {
        // With no feedback delay the protocol adds no overhead: the
        // throughput equals the code's achieved rate (~k at high SNR).
        let cfg = LinkConfig::demo(30.0, 0, 1);
        let report = simulate_link(&cfg, 20, 1).unwrap();
        assert_eq!(report.frames_delivered, 20);
        assert_eq!(report.frames_exhausted, 0);
        let tput = report.throughput(cfg.message_bits);
        assert!(
            (tput - 4.0).abs() < 0.4,
            "zero-delay throughput {tput}, expected ~k = 4"
        );
    }

    #[test]
    fn stop_and_wait_pays_the_delay() {
        // W = 1: each frame costs N + D symbols. At 30 dB N ≈ 4, so
        // D = 16 should cut throughput to ~16/(4+16) = 0.8 bits/symbol.
        let fast = simulate_link(&LinkConfig::demo(30.0, 0, 1), 20, 2).unwrap();
        let slow = simulate_link(&LinkConfig::demo(30.0, 16, 1), 20, 2).unwrap();
        let (tf, ts) = (fast.throughput(16), slow.throughput(16));
        assert!(
            ts < tf * 0.45,
            "delay must hurt stop-and-wait: {tf} -> {ts}"
        );
        assert!((ts - 0.8).abs() < 0.3, "expected ~0.8, got {ts}");
    }

    #[test]
    fn pipelining_recovers_the_delay_loss() {
        // A deep window fills the ACK gap with other frames' symbols.
        let sw = simulate_link(&LinkConfig::demo(30.0, 16, 1), 24, 3).unwrap();
        let pipe = simulate_link(&LinkConfig::demo(30.0, 16, 6), 24, 3).unwrap();
        let (t1, t6) = (sw.throughput(16), pipe.throughput(16));
        assert!(
            t6 > t1 * 1.5,
            "pipelining must beat stop-and-wait: W=1 {t1}, W=6 {t6}"
        );
    }

    #[test]
    fn all_frames_delivered_at_reasonable_snr() {
        let report = simulate_link(&LinkConfig::demo(10.0, 8, 3), 15, 4).unwrap();
        assert_eq!(report.frames_delivered, 15);
        assert_eq!(report.delivery_fraction(), 1.0);
        assert!(report.symbols_to_decode.mean() >= 4.0);
        assert!(report.decode_latency.count() == 15);
        assert_eq!(report.completion_latency.len(), 15);
        let p50 = report.latency_percentile(0.5).unwrap();
        let p99 = report.latency_percentile(0.99).unwrap();
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    }

    #[test]
    fn hopeless_snr_exhausts_frames() {
        let mut cfg = LinkConfig::demo(-25.0, 4, 2);
        cfg.max_symbols_per_frame = 64;
        let report = simulate_link(&cfg, 6, 5).unwrap();
        assert!(report.frames_exhausted > 0, "expected exhaustion at -25 dB");
        assert_eq!(
            report.frames_exhausted + report.frames_delivered + report.frames_abandoned,
            6,
            "every frame accounted for"
        );
    }

    #[test]
    fn attempt_ceiling_abandons_distinct_from_exhaustion() {
        // A tiny attempt ceiling quarantines hopeless frames long before
        // their symbol budget would run out — and the two outcomes are
        // counted apart.
        let mut cfg = LinkConfig::demo(-25.0, 4, 2);
        cfg.max_symbols_per_frame = 512;
        cfg.max_attempts_per_frame = 3;
        let report = simulate_link(&cfg, 6, 5).unwrap();
        assert!(report.frames_abandoned > 0, "expected quarantines");
        assert_eq!(
            report.frames_exhausted + report.frames_delivered + report.frames_abandoned,
            6
        );
        // The ceiling binds well below the symbol budget.
        assert!(report.symbols_sent < 6 * 512);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = LinkConfig::demo(12.0, 8, 2);
        let a = simulate_link(&cfg, 10, 7).unwrap();
        let b = simulate_link(&cfg, 10, 7).unwrap();
        assert_eq!(a.symbols_sent, b.symbols_sent);
        assert_eq!(a.frames_delivered, b.frames_delivered);
    }

    #[test]
    fn zero_frames_is_empty_report() {
        let report = simulate_link(&LinkConfig::demo(10.0, 4, 2), 0, 0).unwrap();
        assert_eq!(report.symbols_sent, 0);
        assert_eq!(report.frames_delivered, 0);
    }

    #[test]
    fn ensemble_is_bit_identical_across_worker_counts() {
        let mut cfg = LinkConfig::demo(15.0, 4, 2);
        // Faults and feedback loss exercise every derived seed stream;
        // worker count still must not change a single bit.
        cfg.faults = FaultPlan::default()
            .with(LinkFault::Drop { p: 0.1 })
            .with(LinkFault::Duplicate { p: 0.05 })
            .with(LinkFault::Reorder { p: 0.1, window: 3 });
        cfg.feedback.loss = 0.2;
        let serial =
            simulate_link_ensemble(&cfg, 4, 6, 21, &SimEngine::serial().chunk_trials(2)).unwrap();
        let sharded =
            simulate_link_ensemble(&cfg, 4, 6, 21, &SimEngine::with_workers(3).chunk_trials(2))
                .unwrap();
        assert_eq!(serial.frames_delivered, sharded.frames_delivered);
        assert_eq!(serial.symbols_sent, sharded.symbols_sent);
        assert_eq!(serial.symbols_replayed, sharded.symbols_replayed);
        assert_eq!(serial.feedback_lost, sharded.feedback_lost);
        assert_eq!(
            serial.decode_latency.mean().to_bits(),
            sharded.decode_latency.mean().to_bits()
        );
        assert_eq!(serial.frames_requested, 24);
        // In-order chunk merges keep even the latency vector's order.
        assert_eq!(serial.completion_latency, sharded.completion_latency);
    }

    #[test]
    fn latency_grows_with_window_under_load() {
        // Sharing the channel across W frames stretches each frame's
        // decode latency even as throughput improves.
        let w1 = simulate_link(&LinkConfig::demo(20.0, 32, 1), 16, 9).unwrap();
        let w4 = simulate_link(&LinkConfig::demo(20.0, 32, 4), 16, 9).unwrap();
        assert!(
            w4.decode_latency.mean() > w1.decode_latency.mean(),
            "W=4 latency {} !> W=1 latency {}",
            w4.decode_latency.mean(),
            w1.decode_latency.mean()
        );
    }

    #[test]
    fn data_loss_costs_symbols_but_delivers() {
        let clean = simulate_link(&LinkConfig::demo(15.0, 4, 2), 12, 11).unwrap();
        let mut cfg = LinkConfig::demo(15.0, 4, 2);
        cfg.faults = FaultPlan::default().with(LinkFault::Drop { p: 0.3 });
        let lossy = simulate_link(&cfg, 12, 11).unwrap();
        assert_eq!(lossy.frames_delivered, 12, "drops must not kill frames");
        assert!(
            lossy.symbols_sent > clean.symbols_sent,
            "loss must cost symbols: {} !> {}",
            lossy.symbols_sent,
            clean.symbols_sent
        );
    }

    #[test]
    fn ack_loss_heals_through_reacks() {
        let mut cfg = LinkConfig::demo(15.0, 8, 2);
        cfg.feedback.loss = 0.7;
        let report = simulate_link(&cfg, 10, 13).unwrap();
        assert_eq!(report.frames_delivered, 10, "re-ACKs must repair loss");
        assert!(report.feedback_lost > 0, "the BEC must actually fire");
        assert!(
            report.feedback_sent > 10,
            "healing needs more feedback than one ACK per frame"
        );
    }

    #[test]
    fn total_feedback_blackout_terminates() {
        // loss = 1.0: the sender never hears anything. The per-frame
        // symbol budget must still terminate the run with every frame
        // accounted for — the no-livelock guarantee.
        let mut cfg = LinkConfig::demo(20.0, 4, 2);
        cfg.feedback.loss = 1.0;
        cfg.max_symbols_per_frame = 128;
        let report = simulate_link(&cfg, 6, 17).unwrap();
        assert_eq!(report.frames_delivered, 0);
        assert_eq!(report.frames_exhausted, 6);
        assert_eq!(report.symbols_sent, 6 * 128);
        assert_eq!(report.feedback_lost, report.feedback_sent);
    }

    #[test]
    fn nack_mode_replays_after_gaps() {
        let mut cfg = LinkConfig::demo(15.0, 6, 2);
        cfg.feedback.mode = FeedbackMode::Nack;
        cfg.faults = FaultPlan::default().with(LinkFault::Drop { p: 0.3 });
        let report = simulate_link(&cfg, 12, 19).unwrap();
        assert_eq!(report.frames_delivered, 12);
        assert!(
            report.symbols_replayed > 0,
            "gaps must trigger NACK-driven seek replay"
        );
    }

    #[test]
    fn cumulative_ack_survives_heavy_feedback_loss() {
        let mut cfg = LinkConfig::demo(15.0, 4, 2);
        cfg.feedback.mode = FeedbackMode::CumulativeAck { period: 16 };
        cfg.feedback.loss = 0.6;
        let report = simulate_link(&cfg, 10, 23).unwrap();
        assert_eq!(
            report.frames_delivered, 10,
            "the next snapshot repeats lost news"
        );
    }

    #[test]
    fn timeout_replays_when_data_link_is_dark() {
        // Heavy data-direction loss with plain ACKs: the retry timer is
        // what recovers (there is no NACK to ask for replay).
        let mut cfg = LinkConfig::demo(15.0, 4, 1);
        cfg.faults = FaultPlan::default().with(LinkFault::Drop { p: 0.5 });
        cfg.feedback.timeout = 64;
        cfg.feedback.backoff = 2.0;
        let report = simulate_link(&cfg, 8, 29).unwrap();
        assert_eq!(report.frames_delivered, 8);
    }

    #[test]
    fn crc_termination_delivers_without_misdecodes() {
        let mut cfg = LinkConfig::demo(15.0, 4, 2);
        cfg.message_bits = 32;
        cfg.crc = Some(Checksum::Crc16);
        let report = simulate_link(&cfg, 10, 31).unwrap();
        assert_eq!(report.frames_delivered, 10);
        assert_eq!(
            report.frames_misdecoded, 0,
            "silent corruption under CRC termination"
        );
        // The CRC overhead shows up as goodput < throughput.
        let g = report.goodput(cfg.message_bits, cfg.crc);
        let t = report.throughput(cfg.message_bits);
        assert!((g - t * 0.5).abs() < 1e-9, "goodput {g}, throughput {t}");
    }

    #[test]
    fn every_fault_class_is_survivable_and_deterministic() {
        let mut cfg = LinkConfig::demo(18.0, 4, 2);
        cfg.faults = FaultPlan::default()
            .with(LinkFault::Drop { p: 0.15 })
            .with(LinkFault::Duplicate { p: 0.1 })
            .with(LinkFault::Reorder { p: 0.15, window: 4 })
            .with(LinkFault::Burst { p: 0.01, len: 3 })
            .with(LinkFault::StaleSlot { p: 0.05 });
        cfg.feedback.mode = FeedbackMode::Nack;
        cfg.feedback.loss = 0.2;
        cfg.max_symbols_per_frame = 2000;
        let a = simulate_link(&cfg, 10, 37).unwrap();
        let b = simulate_link(&cfg, 10, 37).unwrap();
        assert_eq!(
            a.frames_delivered + a.frames_exhausted + a.frames_abandoned,
            10,
            "every frame accounted for under compound faults"
        );
        assert!(a.frames_delivered >= 8, "most frames should survive");
        assert_eq!(a.symbols_sent, b.symbols_sent);
        assert_eq!(a.symbols_replayed, b.symbols_replayed);
        assert_eq!(a.feedback_sent, b.feedback_sent);
        assert_eq!(a.completion_latency, b.completion_latency);
    }
}
