//! Fuzz-style no-panic harness over the public session and pool APIs
//! (ROADMAP error-boundary item), on the offline proptest shim.
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
//! * **`MultiDecoder` id streams** — random interleavings of
//!   insert / ingest / drive / remove / checkpoint-store release /
//!   caller-side detach and re-attach / cost-ranked shed among the
//!   caller's orphans, including stale (generational) and
//!   double-removed ids, against pools with admission ceilings
//!   (`PoolFull`) and attempt ceilings (an abandoned session rejects
//!   ingest with `SessionQuarantined`); every drive must emit one event
//!   per session that absorbed symbols since the last drive, and none
//!   for any other.
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
use spinal_codes::{
    AnyTerminator, BitVec, IqSymbol, MultiConfig, MultiDecoder, RxConfig, SessionId,
    SessionOutcome, Slot, SpinalCode,
};
use spinal_core::decode::{AwgnCost, BeamConfig, BeamDecoder};
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::{AnySchedule, StridedPuncture};
use spinal_core::session::{RxSession, TxSession};

type Pool = MultiDecoder<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;
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
                defer_prune_unobserved: beam % 2 == 0,
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
        let n_levels = 3u32; // fig2(24): 24 / 8 segments
        for (i, &op) in ops.iter().enumerate() {
            let t = (op % 5) as u32; // sometimes out of range (>= 3)
            let pass = ((op >> 3) % 40) as u32;
            let batch = [
                (Slot::new(t, pass), symbol_from(op)),
                (Slot::new((op >> 11) as u32 % n_levels, pass / 2), symbol_from(op >> 7)),
            ];
            let before = rx.symbols();
            match rx.ingest_at(&batch) {
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

    /// Pool id streams: stale ids, double removes, admission and attempt
    /// ceilings, thinned and exact-or-wait sessions — typed errors only,
    /// live sessions stay reachable, abandoned sessions reject ingest
    /// but remain removable, and every drive keeps the drive contract.
    #[test]
    fn fuzz_pool_id_streams_never_panic(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 1..96),
        ceiling in 0u32..24,
        max_sessions in 1usize..8,
    ) {
        let mut pool = Pool::new(MultiConfig {
            max_session_attempts: ceiling.max(1),
            max_sessions,
            ..MultiConfig::default()
        });
        let mut lanes: Vec<(SessionId, Tx)> = Vec::new();
        let mut dead: Vec<SessionId> = Vec::new();
        let mut orphans: Vec<SessionId> = Vec::new();
        // Live ids that absorbed symbols since the last drive.
        let mut absorbed: Vec<SessionId> = Vec::new();
        let mut events = Vec::new();
        // Cost-ranked shedding takes sessions without a caller-side
        // remove; reconcile the live set after every op that can do so.
        // The orphan set is the caller's alone (the pool keeps none).
        macro_rules! reconcile {
            () => {
                lanes.retain(|(id, _)| {
                    if pool.get(*id).is_some() {
                        true
                    } else {
                        dead.push(*id);
                        false
                    }
                });
                orphans.retain(|&id| pool.get(id).is_some());
                absorbed.retain(|&id| pool.get(id).is_some());
            };
        }
        // The drive contract: exactly one event for each session that
        // absorbed symbols since the last drive and none for any other;
        // abandonments first, then attempts, then polls that ran no
        // attempt, each in ascending slot order.
        macro_rules! drive {
            () => {
                let before: Vec<(SessionId, u32)> = lanes
                    .iter()
                    .map(|(id, _)| (*id, pool.get(*id).expect("live id").attempts()))
                    .collect();
                pool.drive_into(&mut events);
                prop_assert_eq!(events.len(), absorbed.len(), "one event per absorbing session");
                let mut last = None;
                for ev in &events {
                    prop_assert!(absorbed.contains(&ev.id), "event for an idle session: {ev:?}");
                    let phase = match ev.outcome {
                        SessionOutcome::Abandoned { .. } => 0u8,
                        SessionOutcome::Poll(_) => {
                            let (_, was) = before.iter().find(|(id, _)| *id == ev.id).expect("live id");
                            if pool.get(ev.id).expect("live id").attempts() > *was { 1 } else { 2 }
                        }
                    };
                    let key = (phase, ev.id.slot());
                    prop_assert!(last < Some(key), "drive events out of order: {:?}", events);
                    last = Some(key);
                }
                absorbed.clear();
            };
        }
        for &op in &ops {
            match op % 12 {
                0 | 1 => {
                    // Insert a fresh session; a full pool must reject
                    // with the typed admission error.
                    let (code, msg) = fuzz_code(seed ^ op);
                    // Some sessions thin their attempts or wait for an
                    // exact fit, so a drive also polls without attempting.
                    let rx = code
                        .awgn_rx_session(
                            AnyTerminator::genie(msg.clone()),
                            RxConfig {
                                max_symbols: 48,
                                attempt_growth: if (op >> 8) & 1 == 1 { 1.5 } else { 1.0 },
                                exact_attempts: (op >> 9) & 1 == 1,
                                ..RxConfig::default()
                            },
                        )
                        .expect("valid session");
                    let tx = code.tx_session(&msg).expect("valid tx");
                    match pool.insert(rx) {
                        Ok(id) => lanes.push((id, tx)),
                        Err(spinal_codes::SpinalError::PoolFull { live, max_sessions: m }) => {
                            prop_assert_eq!(live, pool.len());
                            prop_assert!(pool.len() >= m, "PoolFull below the ceiling");
                        }
                        Err(other) => prop_assert!(false, "unexpected insert error {other:?}"),
                    }
                }
                2 | 3 => {
                    // Ingest into a random live or dead id.
                    let pick = (op >> 4) as usize;
                    if !lanes.is_empty() && !pick.is_multiple_of(3) {
                        let idx = pick % lanes.len();
                        let (id, tx) = &mut lanes[idx];
                        let (_slot, x) = tx.next_symbol();
                        let abandoned = pool.get(*id).is_some_and(|rx| rx.is_abandoned());
                        // Finished sessions yield SessionFinished — fine.
                        let res = pool.ingest(*id, &[x]);
                        if abandoned {
                            prop_assert!(
                                matches!(res, Err(spinal_codes::SpinalError::SessionQuarantined)),
                                "abandoned ingest must report SessionQuarantined, got {res:?}"
                            );
                        }
                        if res.is_ok() && !absorbed.contains(id) {
                            absorbed.push(*id);
                        }
                    } else if let Some(&id) = dead.get(pick % dead.len().max(1)) {
                        prop_assert!(pool.ingest(id, &[symbol_from(op)]).is_err(),
                                     "stale id must be rejected");
                    }
                }
                4 | 8 => {
                    drive!();
                }
                5 => {
                    // Remove a random id (possibly already removed).
                    let pick = (op >> 4) as usize;
                    if !lanes.is_empty() {
                        let (id, _) = lanes.remove(pick % lanes.len());
                        prop_assert!(pool.remove(id).is_ok());
                        prop_assert!(pool.remove(id).is_err(), "double remove");
                        dead.push(id);
                        reconcile!();
                    }
                }
                6 => {
                    // Release a random live session's checkpoint store,
                    // leaving it as a restore would: its next attempt
                    // decodes from level 0, whatever the interleaving.
                    let pick = (op >> 4) as usize;
                    if !lanes.is_empty() {
                        let (id, _) = &lanes[pick % lanes.len()];
                        let rx = pool.get_mut(*id).expect("live id");
                        rx.evict_checkpoints();
                        prop_assert_eq!(rx.checkpoints().valid_levels(), 0);
                    }
                }
                9 => {
                    // Orphan a random live session: its connection is gone,
                    // which only the caller records.
                    let pick = (op >> 4) as usize;
                    if !lanes.is_empty() {
                        let (id, _) = &lanes[pick % lanes.len()];
                        if !orphans.contains(id) {
                            orphans.push(*id);
                        }
                    }
                }
                10 => {
                    // Re-attach a tracked orphan (or a random live
                    // session, a no-op when attached).
                    let pick = (op >> 4) as usize;
                    if !orphans.is_empty() && (op >> 3) % 2 == 0 {
                        let id = orphans.swap_remove(pick % orphans.len());
                        prop_assert!(pool.get(id).is_some(), "re-attached id resolves");
                    } else if !lanes.is_empty() {
                        let (id, _) = &lanes[pick % lanes.len()];
                        orphans.retain(|o| o != id);
                    }
                }
                11 => {
                    // Cost-ranked shed: only the caller's orphans (and
                    // stale ids, which are skipped) are candidates; the
                    // victim vanishes and its id goes stale.
                    let candidates = orphans.iter().chain(dead.first()).copied();
                    match pool.shed_costliest(candidates) {
                        Some(sid) => {
                            prop_assert!(orphans.contains(&sid), "only orphans are shed");
                            prop_assert!(pool.get(sid).is_none(), "shed sessions are gone");
                        }
                        None => prop_assert!(orphans.is_empty(), "an orphan was left unshed"),
                    }
                    for (id, _) in &lanes {
                        if !orphans.contains(id) {
                            prop_assert!(pool.get(*id).is_some(), "attached sessions are never shed");
                        }
                    }
                    reconcile!();
                }
                _ => {
                    // Stale lookups are None, live ones Some.
                    for &id in &dead {
                        prop_assert!(pool.get(id).is_none());
                    }
                    for (id, _) in &lanes {
                        prop_assert!(pool.get(*id).is_some());
                    }
                }
            }
        }
        drive!();
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
                prop_assert!(rx.ingest_at(&batch).is_err(), "finished sessions reject");
            } else {
                let poll = rx.ingest_at(&batch);
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
