//! Fuzz-style no-panic harness over the public session and serving
//! APIs (ROADMAP error-boundary item), on the offline proptest shim.
//!
//! Three surfaces, all driven by random byte/word streams:
//!
//! * **Constructors** — arbitrary (mostly invalid) parameter, schedule,
//!   and beam configurations must come back as typed
//!   [`spinal_codes::SpinalError`]s, never panics.
//! * **`RxSession::ingest_at`** — arbitrary slot-labelled symbol
//!   streams (out-of-order, duplicated, out-of-range, after
//!   termination) must poll or error, never panic, and out-of-range
//!   slots must consume nothing.
//! * **Lent-scratch session streams** — random interleavings of
//!   create / `absorb_at` (in and out of range) / poll-all through one
//!   shared scratch / rebuild from the observations (as a restore
//!   does) / drop, over thinned and
//!   exact-or-wait sessions, with an attempt ceiling that abandons a
//!   due session instead of polling it; after every poll round, each
//!   session that absorbed symbols since its last poll reported exactly
//!   one `Poll`, no other session reported any, and an abandoned
//!   session rejects further symbols.
//! * **Faulted ingest streams** — symbol streams run through a seeded
//!   `LinkFault` composition (drops, duplicates, reordering, bursts,
//!   stale slot labels) before `ingest_at`: in-range faulted slots must
//!   ingest cleanly whatever the interleaving.
//! * **Server dialogue streams** — arbitrary bytes pushed at a serving
//!   event loop (optionally after a valid HELLO, so the post-admission
//!   DATA path is also reached): the server must absorb them without
//!   panicking, surface violations as protocol closes, and keep its
//!   outcome counters consistent.
//!
//! The harness asserts *absence of panics* and basic state sanity, not
//! decoded payloads — the equivalence suites own correctness.

use proptest::prelude::*;
use spinal_codes::{AnyTerminator, BitVec, DecoderScratch, IqSymbol, RxConfig, Slot, SpinalCode};
use spinal_core::decode::{AwgnCost, BeamConfig, BeamDecoder};
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::{AnySchedule, StridedPuncture};
use spinal_core::session::{RxSession, TxSession};

type Rx = RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;
type Tx = TxSession<Lookup3, LinearMapper, StridedPuncture>;

/// A bounded, finite symbol derived from fuzz words (the receiver
/// contract: channel outputs are finite reals).
fn symbol_from(w: u64) -> IqSymbol {
    let i = ((w & 0xffff) as f64 - 32768.0) / 256.0;
    let q = (((w >> 16) & 0xffff) as f64 - 32768.0) / 256.0;
    IqSymbol::new(i, q)
}

fn fuzz_code(seed: u64) -> (SpinalCode<Lookup3, LinearMapper, StridedPuncture>, BitVec) {
    let msg = BitVec::from_bytes(&[seed as u8, (seed >> 8) as u8, (seed >> 16) as u8]);
    (SpinalCode::fig2(24, seed).expect("fig2 is valid"), msg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Constructors: every outcome is `Ok` or a typed error.
    #[test]
    fn fuzz_constructors_never_panic(
        bits in 0u32..80,
        k in 0u32..20,
        tail in 0u32..6,
        stride in 0u32..24,
        beam in 0usize..80,
        frontier in 0usize..700,
        seed in any::<u64>(),
    ) {
        let params = CodeParams::builder()
            .message_bits(bits)
            .k(k)
            .tail_segments(tail)
            .seed(seed)
            .build();
        let _ = AnySchedule::strided(stride);
        if let Ok(p) = params {
            let cfg = BeamConfig {
                beam_width: beam,
                max_frontier: frontier,
            };
            let dec = BeamDecoder::new(
                &p,
                Lookup3::new(seed),
                LinearMapper::new(10),
                AwgnCost,
                cfg,
            );
            if let (Ok(d), Ok(sched)) = (dec, StridedPuncture::new(stride.max(1))) {
                // A valid decoder must always yield a working session.
                let rx = Rx::new(
                    d,
                    sched,
                    AnyTerminator::genie(BitVec::zeros(bits as usize)),
                    RxConfig::default(),
                );
                prop_assert!(rx.is_ok());
            }
        }
    }

    /// `ingest_at` under arbitrary slot streams: never panics; an
    /// out-of-range slot errors without consuming; a finished session
    /// reports `SessionFinished`.
    #[test]
    fn fuzz_ingest_at_never_panics(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let (code, msg) = fuzz_code(seed);
        let mut rx = code
            .awgn_rx_session(
                AnyTerminator::genie(msg),
                RxConfig { max_symbols: 64, ..RxConfig::default() },
            )
            .expect("valid session");
        let mut scratch = DecoderScratch::new();
        let n_levels = 3u32; // fig2(24): 24 / 8 segments
        for (i, &op) in ops.iter().enumerate() {
            let t = (op % 5) as u32; // sometimes out of range (>= 3)
            let pass = ((op >> 3) % 40) as u32;
            let batch = [
                (Slot::new(t, pass), symbol_from(op)),
                (Slot::new((op >> 11) as u32 % n_levels, pass / 2), symbol_from(op >> 7)),
            ];
            let before = rx.symbols();
            match rx.ingest_at(&mut scratch, &batch) {
                Ok(_) => {}
                Err(spinal_codes::SpinalError::SlotOutOfRange { t: bad, .. }) => {
                    prop_assert!(bad >= n_levels, "op {i}");
                    prop_assert_eq!(rx.symbols(), before, "errors consume nothing");
                }
                Err(spinal_codes::SpinalError::SessionFinished) => {
                    prop_assert!(rx.is_finished(), "op {i}");
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// Lent-scratch session streams: thinned and exact-or-wait sessions,
    /// out-of-range slots, released stores and an attempt ceiling —
    /// typed errors only, and every poll round keeps the poll contract.
    #[test]
    fn fuzz_lent_scratch_streams_never_panic(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 1..96),
        ceiling in 1u32..24,
    ) {
        struct Lane {
            code: SpinalCode<Lookup3, LinearMapper, StridedPuncture>,
            cfg: RxConfig,
            msg: BitVec,
            tx: Tx,
            rx: Rx,
            /// Symbols absorbed since the session's last poll.
            absorbed: bool,
        }
        let mut lanes: Vec<Lane> = Vec::new();
        let mut scratch = DecoderScratch::new();
        // The poll contract: one `Poll` for each session that absorbed
        // symbols since its last poll, none for any other. A due session
        // at the ceiling is abandoned instead of polled, as a server
        // does.
        macro_rules! poll_all {
            () => {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    let reported = if lane.rx.attempts() >= ceiling && lane.rx.attempt_due() {
                        lane.rx.abandon();
                        prop_assert!(lane.rx.is_abandoned() && lane.rx.payload().is_none());
                        true
                    } else {
                        lane.rx.poll(&mut scratch).is_some()
                    };
                    prop_assert_eq!(reported, lane.absorbed, "lane {} poll contract", i);
                    lane.absorbed = false;
                }
            };
        }
        for &op in &ops {
            let pick = (op >> 4) as usize;
            match op % 10 {
                0 | 1 => {
                    // A fresh session; some thin their attempts or wait
                    // for an exact fit, so a poll also reports arrivals
                    // without attempting.
                    if lanes.len() < 8 {
                        let (code, msg) = fuzz_code(seed ^ op);
                        let cfg = RxConfig {
                            max_symbols: 48,
                            attempt_growth: if (op >> 8) & 1 == 1 { 1.5 } else { 1.0 },
                            exact_attempts: (op >> 9) & 1 == 1,
                            ..RxConfig::default()
                        };
                        let rx = code
                            .awgn_rx_session(AnyTerminator::genie(msg.clone()), cfg)
                            .expect("valid session");
                        let tx = code.tx_session(&msg).expect("valid tx");
                        lanes.push(Lane { code, cfg, msg, tx, rx, absorbed: false });
                    }
                }
                2..=4 => {
                    // Arrivals for a random session, sometimes with a
                    // slot outside the spine.
                    if !lanes.is_empty() {
                        let idx = pick % lanes.len();
                        let lane = &mut lanes[idx];
                        let mut batch = Vec::new();
                        for _ in 0..1 + (op >> 12) % 3 {
                            batch.push(lane.tx.next_symbol());
                        }
                        if (op >> 14) % 7 == 0 {
                            batch.push((Slot::new(3 + (op >> 16) as u32 % 4, 0), symbol_from(op)));
                        }
                        let before = lane.rx.symbols();
                        match lane.rx.absorb_at(&batch) {
                            Ok(()) => lane.absorbed = true,
                            Err(spinal_codes::SpinalError::SlotOutOfRange { t, .. }) => {
                                prop_assert!(t >= 3);
                                prop_assert_eq!(lane.rx.symbols(), before, "errors consume nothing");
                            }
                            Err(spinal_codes::SpinalError::SessionFinished) => {
                                prop_assert!(lane.rx.is_finished());
                            }
                            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                        }
                    }
                }
                5 | 6 => {
                    poll_all!();
                }
                7 => {
                    // Rebuild a random polled session from what it has
                    // heard, as a restore would, whatever the
                    // interleaving.
                    if !lanes.is_empty() {
                        let idx = pick % lanes.len();
                        let lane = &mut lanes[idx];
                        if !lane.absorbed && !lane.rx.is_finished() {
                            let obs = lane.rx.observations();
                            let arrivals: Vec<(Slot, IqSymbol)> = (0..obs.n_levels())
                                .flat_map(|t| {
                                    obs.at_level(t)
                                        .iter()
                                        .map(move |&(pass, y)| (Slot::new(t, pass), y))
                                })
                                .collect();
                            let mut fresh = lane
                                .code
                                .awgn_rx_session(AnyTerminator::genie(lane.msg.clone()), lane.cfg)
                                .expect("valid session");
                            fresh
                                .restore_receive_state(
                                    &arrivals,
                                    lane.rx.attempts(),
                                    lane.rx.next_attempt(),
                                    lane.rx.dirty_from(),
                                )
                                .expect("a live session's own state restores");
                            prop_assert!(!fresh.attempt_due(), "a polled session owes no attempt");
                            lane.rx = fresh;
                        }
                    }
                }
                8 => {
                    // Drop a random session, as a server drops a flow.
                    if !lanes.is_empty() {
                        lanes.swap_remove(pick % lanes.len());
                    }
                }
                _ => {
                    // Abandoned sessions stay finished and reject input.
                    for lane in &mut lanes {
                        if lane.rx.is_abandoned() {
                            prop_assert_eq!(
                                lane.rx.absorb_at(&[(Slot::new(0, 0), symbol_from(op))]),
                                Err(spinal_codes::SpinalError::SessionFinished)
                            );
                        }
                    }
                }
            }
        }
        poll_all!();
    }

    /// Faulted ingest streams: a seeded `LinkFault` composition between
    /// the encoder and `ingest_at` (drops, duplicates, reordering,
    /// bursts, stale labels) must never panic the receiver — faulted
    /// slots stay in range, so every delivery ingests cleanly until the
    /// session finishes.
    #[test]
    fn fuzz_faulted_ingest_streams_never_panic(
        seed in any::<u64>(),
        p_drop in 0.0..0.6f64,
        p_dup in 0.0..0.5f64,
        p_reorder in 0.0..0.5f64,
        window in 1u32..6,
        p_stale in 0.0..0.4f64,
        n in 8usize..80,
    ) {
        use spinal_codes::link::{FaultPlan, LinkFault};
        let (code, msg) = fuzz_code(seed);
        let mut tx = code.tx_session(&msg).expect("valid tx");
        let mut rx = code
            .awgn_rx_session(
                AnyTerminator::genie(msg.clone()),
                RxConfig { max_symbols: 256, ..RxConfig::default() },
            )
            .expect("valid session");
        let mut scratch = DecoderScratch::new();
        let plan = FaultPlan::new(seed)
            .with(LinkFault::Drop { p: p_drop })
            .with(LinkFault::Duplicate { p: p_dup })
            .with(LinkFault::Reorder { p: p_reorder, window })
            .with(LinkFault::Burst { p: 0.05, len: 2 })
            .with(LinkFault::StaleSlot { p: p_stale });
        plan.validate().expect("fuzzed plan parameters are in range");
        let mut stream = plan.stream();
        let mut out = Vec::new();
        for s in 0..n as u64 {
            let (slot, x) = tx.next_symbol();
            stream.push(s, slot, x, &mut out);
            let batch: Vec<(Slot, IqSymbol)> =
                out.iter().map(|d| (d.slot, d.symbol)).collect();
            if batch.is_empty() {
                continue;
            }
            if rx.is_finished() {
                prop_assert!(rx.ingest_at(&mut scratch, &batch).is_err(), "finished sessions reject");
            } else {
                let poll = rx.ingest_at(&mut scratch, &batch);
                prop_assert!(poll.is_ok(), "faulted in-range slots must ingest: {poll:?}");
            }
        }
    }

    /// Server dialogue byte streams: a serving event loop fed arbitrary
    /// client bytes — raw soup against the greeting state, or soup
    /// after a valid HELLO so the admitted DATA path is exercised —
    /// must never panic, and every flow must end in a counted outcome
    /// (decode, protocol close, busy, exhaust, abandon) or still be
    /// mid-dialogue; nothing silently vanishes.
    #[test]
    fn fuzz_server_session_streams_never_panic(
        soup in proptest::collection::vec(any::<u8>(), 0..768),
        chunk in 1usize..128,
        hello_first in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use spinal_codes::serve::{
            encode_frame, loopback_pair, Frame, Hello, ServeConfig, Server, Transport,
        };
        use spinal_codes::link::FeedbackMode;

        let mut server = Server::new(ServeConfig::default()).expect("default config is valid");
        let (mut local, remote) = loopback_pair(1 << 16);
        let handle = server.add_connection(remote);

        let mut stream = Vec::new();
        if hello_first {
            encode_frame(
                &Frame::Hello(Hello {
                    message_bits: 48,
                    k: 4,
                    c: 8,
                    beam: 4,
                    max_symbols: 1 << 12,
                    seed,
                    mode: FeedbackMode::AckOnly,
                }),
                &mut stream,
            )
            .expect("HELLO encodes");
        }
        stream.extend_from_slice(&soup);

        let mut sent = 0usize;
        while sent < stream.len() {
            let end = (sent + chunk).min(stream.len());
            match local.send(&stream[sent..end]) {
                Ok(0) | Err(_) => break,
                Ok(n) => sent += n,
            }
            server.tick();
        }
        // Drain whatever feedback the server produced and keep ticking:
        // the dialogue must settle without panicking.
        let mut rx = Vec::new();
        for _ in 0..8 {
            server.tick();
            let _ = local.recv(&mut rx);
        }
        let stats = server.stats();
        let admitted = u64::from(hello_first);
        prop_assert_eq!(stats.admitted, admitted, "exactly the valid HELLOs admit");
        prop_assert!(
            stats.decoded + stats.exhausted + stats.abandoned <= stats.admitted,
            "terminal decode outcomes require an admitted session"
        );
        if !hello_first && !soup.is_empty() && server.is_closed(handle) {
            // Soup at the greeting can only close via protocol error or
            // a (vanishingly unlikely) forged Close frame.
            prop_assert!(stats.protocol_errors >= 1);
        }
        // The connection slot stays reapable whatever happened.
        drop(local);
        server.tick();
        server.reap_closed();
        prop_assert_eq!(server.stats().admitted, admitted);
    }
}
