//! The §6 link experiments, run through the serving stack.
//!
//! The paper leaves "a feedback link-layer protocol for rateless spinal
//! codes" as future work (§6); this crate's server and client speak
//! one, and [`simulate_link`] measures it. One [`Server`] serves a
//! window of [`LinkConfig::frames_in_flight`] [`ServeClient`]s over
//! loopback links, one tick per transmitted symbol: each tick the
//! server runs one cycle, every client absorbs its feedback, and the
//! next streaming client in round-robin order sends one symbol through
//! its frame's [`spinal_link::FaultPlan`] and the one shared AWGN
//! channel. A frame with a verdict leaves the window and the next one
//! opens. The reverse link is [`LinkConfig::feedback`] at the server's
//! end of each link: [`crate::ChaosEvent::FeedbackLoss`] erases ACK,
//! NACK and cumulative-ACK frames and [`crate::ChaosEvent::FeedbackDelay`]
//! holds them.
//!
//! Delivery is a sender-side event: a frame counts when its client
//! learns of the decode. A decode whose ACK is lost keeps costing
//! symbols until a re-ACK or a later snapshot gets through, or until
//! the per-frame symbol budget cuts the frame off — the budget, not the
//! feedback, guarantees that every run ends. Every draw comes from a
//! counter-derived seed stream, so a run is a pure function of
//! `(cfg, n_frames, seed)` and an ensemble is bit-identical at any
//! worker count. Frames are CRC-16 framed, and the schedule, hash,
//! mapper family and attempt policy are the server's.

use std::sync::{Arc, Mutex};

use spinal_channel::{AwgnChannel, Channel, Rng};
use spinal_core::bits::BitVec;
use spinal_core::error::SpinalError;
use spinal_sim::engine::{Accumulate, Scenario, SimEngine, Trial};
use spinal_sim::stats::derive_seed;

use crate::client::{ClientConfig, ClientOutcome, ServeClient};
use crate::protocol::{LinkConfig, LinkReport};
use crate::server::{MultiConfig, ServeConfig, Server};
use crate::transport::{loopback_pair, ChaosTransport, LoopbackTransport};

/// Seed-stream labels (`derive_seed(seed, LABEL, index)`): per-frame
/// code seeds, per-frame payloads, channel noise, per-frame data
/// faults, per-frame feedback events.
const STREAM_CODE: u64 = 60;
const STREAM_MSG: u64 = 61;
const STREAM_CHANNEL: u64 = 62;
const STREAM_FAULT: u64 = 63;
const STREAM_FEEDBACK: u64 = 64;

/// Bytes each loopback link holds in flight per direction.
const PIPE_BYTES: usize = 1 << 16;

impl LinkReport {
    /// Books a frame that left the window with `outcome` at tick `now`.
    fn settle(&mut self, frame: &LinkFrame, outcome: ClientOutcome, now: u64) {
        match outcome {
            ClientOutcome::Decoded { .. } => {
                self.frames_delivered += 1;
                if frame.client.decoded_payload() != Some(&frame.payload) {
                    self.frames_misdecoded += 1;
                }
                let first = frame.first_sent.expect("a decoded frame sent a symbol");
                self.completion_latency.push(now - first);
            }
            ClientOutcome::Exhausted => self.frames_exhausted += 1,
            _ => self.frames_abandoned += 1,
        }
        self.symbols_sent += frame.client.symbols_sent();
        self.symbols_replayed += frame.client.symbols_replayed();
    }
}

/// One frame in the window: the payload it must deliver, its client,
/// and the tick of its first symbol.
struct LinkFrame {
    payload: BitVec,
    client: ServeClient<LoopbackTransport>,
    first_sent: Option<u64>,
}

impl LinkFrame {
    /// Opens frame `idx`: connects a client to `server` and queues its
    /// HELLO.
    fn open(
        cfg: &LinkConfig,
        server: &mut Server<ChaosTransport<LoopbackTransport>>,
        channel: &Arc<Mutex<AwgnChannel>>,
        seed: u64,
        idx: u64,
    ) -> Result<Self, SpinalError> {
        let mut rng = Rng::seed_from(derive_seed(seed, STREAM_MSG, idx));
        let payload: BitVec = (0..cfg.payload_bits).map(|_| rng.bit()).collect();
        let (local, remote) = loopback_pair(PIPE_BYTES);
        let feedback = cfg
            .feedback
            .reseeded(derive_seed(seed, STREAM_FEEDBACK, idx));
        server.add_connection(feedback.wrap(remote));
        let client_cfg = ClientConfig {
            k: cfg.k,
            c: cfg.c,
            beam: cfg.beam,
            max_symbols: cfg.max_symbols_per_frame,
            seed: derive_seed(seed, STREAM_CODE, idx),
            mode: cfg.mode,
            burst: 1,
            ..ClientConfig::default()
        };
        let faults = cfg.faults.reseeded(derive_seed(seed, STREAM_FAULT, idx));
        let channel = Arc::clone(channel);
        let client = ServeClient::new(local, &client_cfg, &payload)?
            .with_fault(&faults)
            .with_noise(Box::new(move |x| {
                channel.lock().expect("channel lock").transmit(x)
            }));
        Ok(Self {
            payload,
            client,
            first_sent: None,
        })
    }
}

/// Runs the link protocol for `n_frames` frames and reports.
///
/// # Errors
///
/// Returns [`LinkConfig::validate`]'s typed error for an invalid
/// configuration, before any tick runs.
pub fn simulate_link(
    cfg: &LinkConfig,
    n_frames: u32,
    seed: u64,
) -> Result<LinkReport, SpinalError> {
    cfg.validate()?;
    let mut server = Server::new(ServeConfig {
        pool: MultiConfig {
            max_session_attempts: cfg.max_attempts_per_frame,
            // A frame its sender gives up on leaves a detached flow
            // behind; it expires on the next tick.
            detach_ttl: 0,
            ..MultiConfig::default()
        },
        ..ServeConfig::default()
    })?;
    let channel = Arc::new(Mutex::new(AwgnChannel::from_snr_db(
        cfg.snr_db,
        derive_seed(seed, STREAM_CHANNEL, 0),
    )));
    let mut report = LinkReport {
        frames_requested: n_frames,
        ..LinkReport::default()
    };
    let mut window: Vec<LinkFrame> = Vec::new();
    let mut opened = 0;
    let mut turn = 0;
    for now in 0.. {
        while window.len() < cfg.frames_in_flight as usize && opened < n_frames {
            window.push(LinkFrame::open(
                cfg,
                &mut server,
                &channel,
                seed,
                u64::from(opened),
            )?);
            opened += 1;
        }
        if window.is_empty() {
            break;
        }
        server.tick();
        for frame in &mut window {
            frame.client.poll();
        }
        window.retain(|frame| match frame.client.outcome() {
            Some(outcome) => {
                report.settle(frame, outcome, now);
                false
            }
            None => true,
        });
        server.reap_closed();

        // The next streaming frame in round-robin order sends one
        // symbol; frames still in their handshake wait their turn.
        let n = window.len();
        let Some(j) = (0..n)
            .map(|i| (turn + i) % n)
            .find(|&j| window[j].client.is_streaming())
        else {
            continue;
        };
        turn = j + 1;
        let frame = &mut window[j];
        frame.client.send_burst();
        frame.first_sent.get_or_insert(now);
        if frame.client.symbols_sent() >= cfg.max_symbols_per_frame {
            let frame = window.remove(j);
            report.settle(&frame, ClientOutcome::Exhausted, now);
        }
    }
    Ok(report)
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

/// Runs `replications` independent copies of [`simulate_link`] on
/// `engine` (one replication per trial, counter-based seeds) and merges
/// their reports. The result is bit-identical for any worker count,
/// faults and feedback events included.
///
/// # Errors
///
/// Returns [`LinkConfig::validate`]'s typed error for an invalid
/// configuration, before any replication runs.
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
    use crate::transport::ChaosEvent;
    use spinal_link::{FaultPlan, FeedbackMode, LinkFault};

    fn run(cfg: &LinkConfig, frames: u32, seed: u64) -> LinkReport {
        simulate_link(cfg, frames, seed).unwrap()
    }

    fn lossy(mut cfg: LinkConfig, p: f64) -> LinkConfig {
        cfg.feedback = cfg.feedback.with(ChaosEvent::FeedbackLoss { p });
        cfg
    }

    fn faulty(mut cfg: LinkConfig, faults: &[LinkFault]) -> LinkConfig {
        cfg.faults = faults
            .iter()
            .fold(FaultPlan::default(), |plan, &f| plan.with(f));
        cfg
    }

    fn accounted(r: &LinkReport) -> u32 {
        r.frames_delivered + r.frames_exhausted + r.frames_abandoned
    }

    #[test]
    fn zero_delay_high_snr_approaches_code_rate() {
        // With no feedback delay the protocol wastes only the symbols
        // sent during the serving loop's own two-tick round trip: a
        // 32-bit frame decodes from ~5 symbols at 30 dB, so a 16-bit
        // payload costs ~7.
        let report = run(&LinkConfig::demo(30.0, 0, 1), 20, 1);
        assert_eq!((report.frames_delivered, report.frames_exhausted), (20, 0));
        let g = report.goodput(16);
        assert!((1.8..=3.2).contains(&g), "goodput {g}, expected ~16/7");
    }

    #[test]
    fn stop_and_wait_pays_the_delay() {
        // W = 1: each frame costs N + D + 2 symbols. At 30 dB N ≈ 5, so
        // D = 16 should cut goodput to ~16/23 ≈ 0.7 bits/symbol.
        let gf = run(&LinkConfig::demo(30.0, 0, 1), 20, 2).goodput(16);
        let gs = run(&LinkConfig::demo(30.0, 16, 1), 20, 2).goodput(16);
        assert!(
            gs < gf * 0.45,
            "delay must hurt stop-and-wait: {gf} -> {gs}"
        );
        assert!((gs - 0.7).abs() < 0.2, "expected ~0.7, got {gs}");
    }

    #[test]
    fn pipelining_recovers_the_delay_loss() {
        // A deep window fills the ACK gap with other frames' symbols.
        let g1 = run(&LinkConfig::demo(30.0, 16, 1), 24, 3).goodput(16);
        let g6 = run(&LinkConfig::demo(30.0, 16, 6), 24, 3).goodput(16);
        assert!(g6 > g1 * 1.5, "W=1 {g1}, W=6 {g6}");
    }

    #[test]
    fn all_frames_delivered_at_reasonable_snr() {
        let report = run(&LinkConfig::demo(10.0, 8, 3), 15, 4);
        assert_eq!((report.frames_delivered, report.frames_misdecoded), (15, 0));
        assert_eq!(report.completion_latency.len(), 15);
        let (p50, p99) = (
            report.latency_percentile(0.5),
            report.latency_percentile(0.99),
        );
        assert!(p50 <= p99, "p50 {p50:?} > p99 {p99:?}");
    }

    #[test]
    fn hopeless_snr_exhausts_frames() {
        let mut cfg = LinkConfig::demo(-25.0, 4, 2);
        cfg.max_symbols_per_frame = 64;
        let report = run(&cfg, 6, 5);
        assert!(report.frames_exhausted > 0, "expected exhaustion at -25 dB");
        assert_eq!(accounted(&report), 6, "every frame accounted for");
    }

    #[test]
    fn attempt_ceiling_abandons_distinct_from_exhaustion() {
        // A tiny attempt ceiling abandons hopeless frames long before
        // their symbol budget would run out, and the two outcomes are
        // counted apart.
        let mut cfg = LinkConfig::demo(-25.0, 4, 2);
        cfg.max_symbols_per_frame = 512;
        cfg.max_attempts_per_frame = 3;
        let report = run(&cfg, 6, 5);
        assert!(report.frames_abandoned > 0, "expected abandonments");
        assert_eq!(accounted(&report), 6);
        assert!(report.symbols_sent < 6 * 512, "the ceiling binds first");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = LinkConfig::demo(12.0, 8, 2);
        assert_eq!(run(&cfg, 10, 7), run(&cfg, 10, 7));
        assert_ne!(run(&cfg, 10, 7), run(&cfg, 10, 8));
    }

    #[test]
    fn zero_frames_is_empty_report() {
        assert_eq!(
            run(&LinkConfig::demo(10.0, 4, 2), 0, 0),
            LinkReport::default()
        );
    }

    #[test]
    fn ensemble_is_bit_identical_across_worker_counts() {
        // Faults and feedback loss exercise every derived seed stream;
        // worker count still must not change a single bit, down to the
        // order of the latency vector.
        let drops = [
            LinkFault::Drop { p: 0.1 },
            LinkFault::Duplicate { p: 0.05 },
            LinkFault::Reorder { p: 0.1, window: 3 },
        ];
        let mut cfg = lossy(faulty(LinkConfig::demo(15.0, 4, 2), &drops), 0.2);
        cfg.mode = FeedbackMode::Nack;
        let ensemble = |engine: SimEngine| {
            simulate_link_ensemble(&cfg, 4, 6, 21, &engine.chunk_trials(2)).unwrap()
        };
        let serial = ensemble(SimEngine::serial());
        assert_eq!(serial.frames_requested, 24);
        assert_eq!(serial, ensemble(SimEngine::with_workers(3)));
    }

    #[test]
    fn latency_grows_with_window_under_load() {
        // Sharing the channel across W frames stretches each frame's
        // completion latency even as goodput improves.
        let l1 = run(&LinkConfig::demo(20.0, 32, 1), 16, 9).latency_percentile(0.5);
        let l4 = run(&LinkConfig::demo(20.0, 32, 4), 16, 9).latency_percentile(0.5);
        assert!(l4 > l1, "W=4 latency {l4:?} !> W=1 latency {l1:?}");
    }

    #[test]
    fn data_loss_costs_symbols_but_delivers() {
        let clean = run(&LinkConfig::demo(15.0, 4, 2), 12, 11);
        let cfg = faulty(LinkConfig::demo(15.0, 4, 2), &[LinkFault::Drop { p: 0.3 }]);
        let lossy = run(&cfg, 12, 11);
        assert_eq!(lossy.frames_delivered, 12, "drops must not kill frames");
        assert!(
            lossy.symbols_sent > clean.symbols_sent,
            "loss must cost symbols"
        );
    }

    #[test]
    fn ack_only_delivers_over_a_dark_data_link() {
        // Half the data symbols vanish and nothing asks for a replay:
        // the sender's fresh rateless symbols fill the gaps.
        let cfg = faulty(LinkConfig::demo(15.0, 4, 1), &[LinkFault::Drop { p: 0.5 }]);
        let report = run(&cfg, 8, 29);
        assert_eq!((report.frames_delivered, report.symbols_replayed), (8, 0));
    }

    #[test]
    fn ack_loss_heals_through_reacks() {
        let clean = run(&LinkConfig::demo(15.0, 8, 2), 10, 13);
        let report = run(&lossy(LinkConfig::demo(15.0, 8, 2), 0.7), 10, 13);
        assert_eq!(report.frames_delivered, 10, "re-ACKs must repair loss");
        assert!(
            report.symbols_sent > clean.symbols_sent,
            "healing costs the symbols that draw re-ACKs"
        );
    }

    #[test]
    fn total_feedback_blackout_terminates() {
        // Every ACK is erased: the sender never hears anything. The
        // per-frame symbol budget must still end the run with every
        // frame accounted for — the no-livelock guarantee.
        let mut cfg = lossy(LinkConfig::demo(20.0, 4, 2), 1.0);
        cfg.max_symbols_per_frame = 128;
        let report = run(&cfg, 6, 17);
        assert_eq!((report.frames_delivered, report.frames_exhausted), (0, 6));
        assert_eq!(report.symbols_sent, 6 * 128);
    }

    #[test]
    fn nack_mode_replays_after_gaps() {
        let mut cfg = faulty(LinkConfig::demo(15.0, 6, 2), &[LinkFault::Drop { p: 0.3 }]);
        cfg.mode = FeedbackMode::Nack;
        let report = run(&cfg, 12, 19);
        assert_eq!(report.frames_delivered, 12);
        assert!(report.symbols_replayed > 0, "gaps must trigger NACK replay");
    }

    #[test]
    fn cumulative_ack_survives_heavy_feedback_loss() {
        let mut cfg = lossy(LinkConfig::demo(15.0, 4, 2), 0.6);
        cfg.mode = FeedbackMode::CumulativeAck { period: 16 };
        let report = run(&cfg, 10, 23);
        assert_eq!(
            report.frames_delivered, 10,
            "the next snapshot repeats lost news"
        );
    }

    #[test]
    fn crc_termination_delivers_without_misdecodes() {
        let mut cfg = LinkConfig::demo(15.0, 4, 2);
        cfg.payload_bits = 32;
        let report = run(&cfg, 10, 31);
        assert_eq!((report.frames_delivered, report.frames_misdecoded), (10, 0));
        // Goodput counts payload bits only, never the CRC.
        let bits = report.goodput(32) * report.symbols_sent as f64;
        assert!((bits - 320.0).abs() < 1e-9);
    }

    #[test]
    fn every_fault_class_is_survivable_and_deterministic() {
        let faults = [
            LinkFault::Drop { p: 0.15 },
            LinkFault::Duplicate { p: 0.1 },
            LinkFault::Reorder { p: 0.15, window: 4 },
            LinkFault::Burst { p: 0.01, len: 3 },
            LinkFault::StaleSlot { p: 0.05 },
        ];
        let mut cfg = lossy(faulty(LinkConfig::demo(18.0, 4, 2), &faults), 0.2);
        cfg.mode = FeedbackMode::Nack;
        cfg.max_symbols_per_frame = 2000;
        let report = run(&cfg, 10, 37);
        assert_eq!(accounted(&report), 10, "every frame accounted for");
        assert!(report.frames_delivered >= 8, "most frames should survive");
        assert_eq!(report, run(&cfg, 10, 37));
    }
}
