//! End-to-end serve dialogues over the deterministic loopback:
//! decode, NACK recovery, lost feedback, admission control,
//! backpressure, terminal closes, the per-tick drive budget,
//! exact-or-wait attempts, and serial-vs-sharded bit-identity over a
//! mixed-feedback fleet.

use spinal_core::bits::BitVec;
use spinal_core::decode::{AwgnCost, BeamConfig, DecoderScratch};
use spinal_core::frame::{frame_encode, AnyTerminator, Checksum};
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::StridedPuncture;
use spinal_core::session::RxConfig;
use spinal_core::symbol::{IqSymbol, Slot};
use spinal_core::SpinalCode;
use spinal_link::{FaultPlan, FeedbackMode, LinkFault};
use spinal_serve::{
    encode_frame, loopback_pair, loopback_pair_chunked, ChaosEvent, ChaosPlan, ChaosTransport,
    ClientConfig, ClientOutcome, Frame, Hello, LoopbackTransport, MultiConfig, ServeClient,
    ServeConfig, Server, SymbolRun, Transport, WireDecoder,
};
use spinal_sim::stats::derive_seed;

const MAX_TICKS: usize = 20_000;

fn payload(i: u64) -> BitVec {
    BitVec::from_bytes(&[(i & 0xff) as u8, ((i * 7 + 3) & 0xff) as u8])
}

/// Ticks server and clients until every client has a verdict; returns
/// the tick at which each client finished.
fn run_to_done<T: Transport + Send>(
    server: &mut Server<T>,
    clients: &mut [ServeClient<LoopbackTransport>],
    sharded: bool,
) -> Vec<usize> {
    let mut finished = vec![0; clients.len()];
    for tick in 1..=MAX_TICKS {
        if sharded {
            server.tick_sharded();
        } else {
            server.tick();
        }
        let mut all_done = true;
        for (c, at) in clients.iter_mut().zip(&mut finished) {
            c.tick();
            if *at == 0 && c.is_done() {
                *at = tick;
            }
            all_done &= c.is_done();
        }
        if all_done {
            return finished;
        }
    }
    panic!("dialogue did not finish within {MAX_TICKS} ticks");
}

#[test]
fn single_flow_decodes_over_loopback() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let p = payload(1);
    let mut clients = vec![ServeClient::new(local, &ClientConfig::default(), &p).unwrap()];
    run_to_done(&mut server, &mut clients, false);

    let out = clients[0].outcome().unwrap();
    assert!(matches!(out, ClientOutcome::Decoded { symbols_used, .. } if symbols_used > 0));
    assert_eq!(clients[0].decoded_payload(), Some(&p));
    let stats = server.stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.decoded, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn chunked_transport_reassembles_identically() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair_chunked(1 << 16, 0xfeed);
    server.add_connection(remote);
    let p = payload(2);
    let mut clients = vec![ServeClient::new(local, &ClientConfig::default(), &p).unwrap()];
    run_to_done(&mut server, &mut clients, false);
    assert!(matches!(
        clients[0].outcome(),
        Some(ClientOutcome::Decoded { .. })
    ));
    assert_eq!(clients[0].decoded_payload(), Some(&p));
}

#[test]
fn nack_mode_recovers_from_drops_and_faults() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let p = payload(3);
    let cfg = ClientConfig {
        mode: FeedbackMode::Nack,
        ..ClientConfig::default()
    };
    let plan = FaultPlan::new(99)
        .with(LinkFault::Drop { p: 0.25 })
        .with(LinkFault::Duplicate { p: 0.1 });
    let mut clients = vec![ServeClient::new(local, &cfg, &p).unwrap().with_fault(&plan)];
    run_to_done(&mut server, &mut clients, false);
    assert!(matches!(
        clients[0].outcome(),
        Some(ClientOutcome::Decoded { .. })
    ));
    assert_eq!(clients[0].decoded_payload(), Some(&p));
}

#[test]
fn cumulative_ack_mode_reports_decode() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let p = payload(4);
    let cfg = ClientConfig {
        mode: FeedbackMode::CumulativeAck { period: 7 },
        ..ClientConfig::default()
    };
    let mut clients = vec![ServeClient::new(local, &cfg, &p).unwrap()];
    run_to_done(&mut server, &mut clients, false);
    assert!(matches!(
        clients[0].outcome(),
        Some(ClientOutcome::Decoded { .. })
    ));
    assert_eq!(clients[0].decoded_payload(), Some(&p));
}

/// Runs `flows` flows in `mode` to their verdicts against one server
/// whose end of each link is wrapped in `plan` (reseeded per flow).
fn run_lossy_fleet(
    mode: FeedbackMode,
    plan: &ChaosPlan,
    flows: u64,
) -> Vec<ServeClient<LoopbackTransport>> {
    let mut server: Server<ChaosTransport<LoopbackTransport>> =
        Server::new(ServeConfig::default()).unwrap();
    let mut clients = Vec::new();
    for i in 0..flows {
        let (local, remote) = loopback_pair(1 << 16);
        server.add_connection(plan.reseeded(derive_seed(plan.seed(), 85, i)).wrap(remote));
        let cfg = ClientConfig {
            seed: 400 + i,
            mode,
            ..ClientConfig::default()
        };
        clients.push(ServeClient::new(local, &cfg, &payload(i)).unwrap());
    }
    run_to_done(&mut server, &mut clients, false);
    assert_eq!(server.stats().decoded, flows);
    clients
}

/// Which of `n` feedback frames, sent one per tick through the server
/// end of a link wrapped in `plan`, reach the peer.
fn surviving_feedback(plan: &ChaosPlan, n: u64) -> Vec<bool> {
    let (server_end, mut peer) = loopback_pair(1 << 16);
    let mut server_end = plan.wrap(server_end);
    let mut out = Vec::new();
    (0..n)
        .map(|i| {
            out.clear();
            encode_frame(&Frame::Nack { expected_seq: i }, &mut out).unwrap();
            server_end.send(&out).unwrap();
            let mut got = Vec::new();
            peer.recv(&mut got).unwrap();
            !got.is_empty()
        })
        .collect()
}

/// An ACK-only flow whose first ACK and first re-ACK are erased on the
/// way back still learns of its decode: every DATA frame that reaches
/// a decoded flow draws another ACK, so the third one gets through. It
/// decodes exactly as its lossless twin does and pays the two extra
/// bursts that drew the re-ACKs.
#[test]
fn ack_only_flow_heals_erased_acks_through_reacks() {
    let plan = |seed: u64| ChaosPlan::new(seed).with(ChaosEvent::FeedbackLoss { p: 0.5 });
    // The first flow's frames are reseeded from the plan seed (stream
    // 85, flow 0): pick a plan whose draws erase, erase, then pass.
    let seed = (0..)
        .find(|&s| surviving_feedback(&plan(derive_seed(s, 85, 0)), 3) == [false, false, true])
        .unwrap();
    let clean = &run_lossy_fleet(FeedbackMode::AckOnly, &ChaosPlan::new(seed), 1)[0];
    let lossy = &run_lossy_fleet(FeedbackMode::AckOnly, &plan(seed), 1)[0];
    assert_eq!(lossy.outcome(), clean.outcome(), "the decode is unchanged");
    assert_eq!(lossy.decoded_payload(), Some(&payload(0)));
    let burst = ClientConfig::default().burst as u64;
    assert_eq!(
        lossy.symbols_sent(),
        clean.symbols_sent() + 2 * burst,
        "two bursts drew re-ACKs"
    );
}

/// At 60% feedback loss every cumulative-ACK flow still delivers: a
/// lost snapshot's news is repeated by the next one, at the price of
/// the symbols the sender streams meanwhile.
#[test]
fn cumulative_ack_flows_deliver_through_later_snapshots_at_60pct_loss() {
    let mode = FeedbackMode::CumulativeAck { period: 3 };
    let flows = 8;
    let clean = run_lossy_fleet(mode, &ChaosPlan::new(0x60), flows);
    let lossy = run_lossy_fleet(
        mode,
        &ChaosPlan::new(0x60).with(ChaosEvent::FeedbackLoss { p: 0.6 }),
        flows,
    );
    for (i, client) in lossy.iter().enumerate() {
        assert!(matches!(
            client.outcome(),
            Some(ClientOutcome::Decoded { .. })
        ));
        assert_eq!(client.decoded_payload(), Some(&payload(i as u64)));
    }
    let sent = |fleet: &[ServeClient<_>]| fleet.iter().map(ServeClient::symbols_sent).sum::<u64>();
    assert!(sent(&lossy) > sent(&clean), "lost snapshots cost symbols");
}

/// The feedback events act on whole frames: `FeedbackLoss` erases only
/// ACK, NACK and cumulative-ACK frames, `FeedbackDelay` holds exactly
/// those for its ticks while every other frame leaves at once, the
/// peer decodes every byte it receives as whole frames, and one seed
/// always erases the same frames.
#[test]
fn feedback_events_erase_or_delay_whole_feedback_frames() {
    const DELAY: u64 = 3;
    const SENT: u64 = 60;
    let run = |seed: u64| {
        let plan = ChaosPlan::new(seed)
            .with(ChaosEvent::FeedbackLoss { p: 0.5 })
            .with(ChaosEvent::FeedbackDelay { ticks: DELAY });
        let (server_end, mut peer) = loopback_pair(1 << 16);
        let mut server_end = plan.wrap(server_end);
        let mut wire = WireDecoder::new();
        let (mut out, mut rx) = (Vec::new(), Vec::new());
        let mut arrived = Vec::new();
        for tick in 0..SENT + DELAY {
            out.clear();
            if tick < SENT {
                let feedback = match tick % 3 {
                    0 => Frame::Ack {
                        symbols_used: tick,
                        attempts: 1,
                    },
                    1 => Frame::Nack { expected_seq: tick },
                    _ => Frame::CumAck {
                        decoded: false,
                        symbols_used: tick,
                    },
                };
                encode_frame(&feedback, &mut out).unwrap();
                encode_frame(&Frame::Pong { nonce: tick }, &mut out).unwrap();
            }
            assert_eq!(server_end.send(&out).unwrap(), out.len());
            // The server polls each connection once per tick.
            server_end.recv(&mut Vec::new()).unwrap();
            rx.clear();
            peer.recv(&mut rx).unwrap();
            wire.push_bytes(&rx);
            while let Some(frame) = wire.next_frame().expect("only whole frames arrive") {
                let sent_at = match frame {
                    Frame::Pong { nonce } => {
                        assert_eq!(nonce, tick, "other frames leave at once");
                        continue;
                    }
                    Frame::Ack { symbols_used, .. } => symbols_used,
                    Frame::Nack { expected_seq } => expected_seq,
                    Frame::CumAck { symbols_used, .. } => symbols_used,
                    other => panic!("unexpected frame {other:?}"),
                };
                assert_eq!(tick, sent_at + DELAY, "feedback is held {DELAY} ticks");
                arrived.push(sent_at);
            }
        }
        assert_eq!(arrived.len() as u64 + server_end.erased_frames(), SENT);
        arrived
    };
    let a = run(7);
    assert!(
        (15..=45).contains(&a.len()),
        "about half of {SENT} survive, got {}",
        a.len()
    );
    assert_eq!(a, run(7), "same seed, same erasures");
    assert_ne!(a, run(8), "another seed, other erasures");
}

#[test]
fn pool_full_rejects_with_busy() {
    let cfg = ServeConfig {
        pool: MultiConfig {
            max_sessions: 1,
            ..MultiConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();
    let (a_local, a_remote) = loopback_pair(1 << 16);
    let (b_local, b_remote) = loopback_pair(1 << 16);
    server.add_connection(a_remote);
    server.add_connection(b_remote);

    // Session A streams one symbol per tick of a larger message, so it
    // is still live when B asks to be admitted.
    let slow = ClientConfig {
        burst: 1,
        ..ClientConfig::default()
    };
    let mut a = ServeClient::new(a_local, &slow, &BitVec::from_bytes(&[1, 2, 3, 4])).unwrap();
    let mut b = ServeClient::new(b_local, &ClientConfig::default(), &payload(6)).unwrap();

    let mut b_done = false;
    for _ in 0..MAX_TICKS {
        server.tick();
        a.tick();
        b.tick();
        if b.is_done() {
            b_done = true;
            break;
        }
    }
    assert!(b_done, "second session never got a verdict");
    assert_eq!(b.outcome(), Some(ClientOutcome::Busy));
    assert_eq!(server.stats().busy_rejected, 1);
}

#[test]
fn exhaustion_and_abandonment_close_the_dialogue() {
    // Garbage symbols never satisfy the CRC; a tiny symbol budget
    // exhausts the receiver.
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let cfg = ClientConfig {
        max_symbols: 8,
        ..ClientConfig::default()
    };
    let mut clients = vec![ServeClient::new(local, &cfg, &payload(7))
        .unwrap()
        .with_noise(Box::new(|_| IqSymbol::new(0.0, 0.0)))];
    run_to_done(&mut server, &mut clients, false);
    assert_eq!(clients[0].outcome(), Some(ClientOutcome::Exhausted));
    assert_eq!(server.stats().exhausted, 1);

    // An attempt ceiling of 1 quarantines the session instead.
    let srv_cfg = ServeConfig {
        pool: MultiConfig {
            max_session_attempts: 1,
            ..MultiConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::new(srv_cfg).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let mut clients = vec![
        ServeClient::new(local, &ClientConfig::default(), &payload(8))
            .unwrap()
            .with_noise(Box::new(|_| IqSymbol::new(0.0, 0.0))),
    ];
    run_to_done(&mut server, &mut clients, false);
    assert_eq!(clients[0].outcome(), Some(ClientOutcome::Abandoned));
    assert_eq!(server.stats().abandoned, 1);
}

#[test]
fn backpressure_engages_and_clears() {
    // High-water mark below one HELLO-ACK, and a transport so narrow
    // the ACK cannot leave while the client stays silent.
    let cfg = ServeConfig {
        egress_high_water: 8,
        egress_capacity: 1 << 16,
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();
    let (local, remote) = loopback_pair(4);
    let handle = server.add_connection(remote);
    let p = payload(9);
    let mut client = ServeClient::new(local, &ClientConfig::default(), &p).unwrap();

    // Client pushes HELLO through the 4-byte pipe without reading
    // feedback: tick the client alone a few times to deliver it.
    for _ in 0..40 {
        client.tick();
        server.tick();
        if server.is_backpressured(handle) {
            break;
        }
    }
    assert!(
        server.is_backpressured(handle),
        "egress above high water must backpressure the connection"
    );
    let stats = server.stats();
    assert!(stats.backpressure_ticks > 0);

    // Keep ticking both sides: the client drains feedback, egress
    // falls below the mark, and the flow completes.
    let mut clients = vec![client];
    run_to_done(&mut server, &mut clients, false);
    assert!(matches!(
        clients[0].outcome(),
        Some(ClientOutcome::Decoded { .. })
    ));
}

/// A mixed-feedback fleet — every 3rd flow NACK under a 15% drop plan,
/// every 7th cumulative ACK, every 5th on a chunked pipe — served by
/// the serial tick and by 3- and 5-shard `tick_sharded` must agree on
/// every flow's verdict, payload, symbol count and finishing tick, and
/// on the served totals.
#[test]
fn sharded_run_is_bit_identical_to_serial() {
    let flows = 24u64;
    let seed = 0x5EED_2011;
    let run = |shards: usize, sharded: bool| {
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let mut server = Server::new(cfg).unwrap();
        let mut clients = Vec::new();
        for i in 0..flows {
            let (local, remote) = if i % 5 == 0 {
                loopback_pair_chunked(1 << 10, derive_seed(seed, 83, i))
            } else {
                loopback_pair(1 << 10)
            };
            server.add_connection(remote);
            let mode = if i % 3 == 0 {
                FeedbackMode::Nack
            } else if i % 7 == 0 {
                FeedbackMode::CumulativeAck { period: 3 }
            } else {
                FeedbackMode::AckOnly
            };
            let ccfg = ClientConfig {
                beam: 4,
                burst: 8,
                seed: derive_seed(seed, 81, i),
                mode,
                ..ClientConfig::default()
            };
            let p = BitVec::from_bytes(&derive_seed(seed, 82, i).to_le_bytes()[..4]);
            let mut client = ServeClient::new(local, &ccfg, &p).unwrap();
            if mode == FeedbackMode::Nack {
                client = client.with_fault(
                    &FaultPlan::new(derive_seed(seed, 84, i)).with(LinkFault::Drop { p: 0.15 }),
                );
            }
            clients.push(client);
        }
        let finished = run_to_done(&mut server, &mut clients, sharded);
        let per_flow: Vec<_> = clients
            .iter()
            .zip(finished)
            .map(|(c, at)| {
                (
                    c.outcome(),
                    c.decoded_payload().cloned(),
                    c.symbols_sent(),
                    at,
                )
            })
            .collect();
        let stats = server.stats();
        assert_eq!(stats.decoded, flows, "a clean-I/Q fleet decodes every flow");
        (per_flow, stats.decoded, stats.symbols_in)
    };

    let serial = run(1, false);
    let sharded3 = run(3, true);
    let sharded5 = run(5, true);
    assert_eq!(serial, sharded3, "3-way sharding changed results");
    assert_eq!(serial, sharded5, "5-way sharding changed results");
}

/// A hand-driven peer: it sends the frames a test builds, so the test
/// chooses exactly which slots reach the server, and it records the
/// server's ACK.
struct RawPeer {
    transport: LoopbackTransport,
    wire: WireDecoder,
    out: Vec<u8>,
    rx: Vec<u8>,
    /// `(symbols_used, attempts)` of the server's ACK, once received.
    ack: Option<(u64, u32)>,
}

impl RawPeer {
    fn connect(server: &mut Server<LoopbackTransport>, hello: Hello) -> Self {
        let (local, remote) = loopback_pair(1 << 16);
        server.add_connection(remote);
        let mut peer = RawPeer {
            transport: local,
            wire: WireDecoder::new(),
            out: Vec::new(),
            rx: Vec::new(),
            ack: None,
        };
        peer.send(&Frame::Hello(hello));
        peer
    }

    fn send(&mut self, frame: &Frame<'_>) {
        self.out.clear();
        encode_frame(frame, &mut self.out).unwrap();
        assert_eq!(self.transport.send(&self.out).unwrap(), self.out.len());
    }

    fn data(&mut self, seq: u64, run: &[(Slot, IqSymbol)]) {
        self.send(&Frame::Data {
            seq,
            run: SymbolRun::Slots(run),
        });
    }

    /// Reads every frame the server has sent so far.
    fn poll(&mut self) {
        self.rx.clear();
        self.transport.recv(&mut self.rx).unwrap();
        self.wire.push_bytes(&self.rx);
        while let Some(frame) = self.wire.next_frame().unwrap() {
            if let Frame::Ack {
                symbols_used,
                attempts,
            } = frame
            {
                self.ack = Some((symbols_used, attempts));
            }
        }
    }
}

/// A served session runs an attempt only when it fits: a peer that
/// withholds three consecutive levels (at k = 4, B = 4 a three-level
/// gap would carry 4 × 16^4 nodes, past the 65,536-node cap) gets no
/// attempt at all while the gap is open — however many symbols it
/// sends around it — and its flow decodes on the first attempt once
/// the gap fills. A local session built exactly as the server admits
/// one, fed the same frames, shows that attempt's frontier stayed
/// within the cap.
#[test]
fn gapped_peer_gets_no_attempt_until_the_gap_fills() {
    const GAP: std::ops::RangeInclusive<u32> = 4..=6;
    let payload = BitVec::from_bytes(&[0x5e, 0xed, 0x20, 0x11]);
    let framed = frame_encode(&payload, Checksum::Crc16);
    let hello = Hello {
        message_bits: framed.len() as u32,
        k: 4,
        c: 8,
        beam: 4,
        max_symbols: 1 << 14,
        seed: 77,
        mode: FeedbackMode::AckOnly,
    };
    let params = CodeParams::builder()
        .message_bits(hello.message_bits)
        .k(hello.k)
        .seed(hello.seed)
        .build()
        .unwrap();
    let code = SpinalCode::new(
        params,
        Lookup3::new(hello.seed),
        LinearMapper::new(hello.c),
        StridedPuncture::stride8(),
    );
    let enc = code.encoder(&framed).unwrap();
    let beam = BeamConfig::with_beam(hello.beam as usize);
    let mut mirror = code
        .rx_session(
            AwgnCost,
            AnyTerminator::crc(Checksum::Crc16),
            RxConfig {
                beam,
                max_symbols: hello.max_symbols,
                attempt_growth: 1.0,
                exact_attempts: true,
            },
        )
        .unwrap();
    let mut scratch = DecoderScratch::new();

    let mut server = Server::new(ServeConfig::default()).unwrap();
    let mut peer = RawPeer::connect(&mut server, hello);
    let n_levels = params.n_segments();
    // Two passes around the gap, one symbol per tick, then the gap's
    // three symbols in one frame.
    let symbol = |t: u32, pass: u32| (Slot::new(t, pass), enc.symbol(Slot::new(t, pass)));
    let mut frames = Vec::new();
    for pass in 0..2 {
        for t in (0..n_levels).filter(|t| !GAP.contains(t)) {
            frames.push(vec![symbol(t, pass)]);
        }
    }
    frames.push(GAP.map(|t| symbol(t, 0)).collect());
    let last = frames.len() - 1;
    let mut seq = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        peer.data(seq, frame);
        seq += frame.len() as u64;
        server.tick();
        peer.poll();
        mirror.ingest_at(&mut scratch, frame).unwrap();
        let peak = mirror.last_result().stats.frontier_peak;
        assert!(peak <= beam.max_frontier, "attempt frontier {peak}");
        if i < last {
            assert_eq!(mirror.attempts(), 0, "an attempt ran with the gap open");
            assert_eq!(peer.ack, None, "decoded with the gap open");
        }
    }
    assert_eq!(
        server.stats().decoded,
        1,
        "the flow decodes once the gap fills"
    );
    // The verdict leaves in the next tick's flush.
    server.tick();
    peer.poll();
    assert_eq!(
        peer.ack,
        Some((seq, 1)),
        "one attempt, run after the gap filled"
    );
    assert_eq!(mirror.payload(), Some(&payload));
    assert_eq!(mirror.attempts(), 1);
}

/// Admission refuses a shape whose gap-free level cannot fit the
/// frontier cap — at k = 8, beam 512 expands 512 × 256 nodes per level,
/// past 65,536 — with the typed protocol close, while beam 256 sits
/// exactly at the cap and is served.
#[test]
fn over_wide_hello_gets_a_protocol_close() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let mut clients = Vec::new();
    for beam in [512, 256] {
        let (local, remote) = loopback_pair(1 << 16);
        server.add_connection(remote);
        let cfg = ClientConfig {
            k: 8,
            beam,
            ..ClientConfig::default()
        };
        clients.push(ServeClient::new(local, &cfg, &payload(12)).unwrap());
    }
    run_to_done(&mut server, &mut clients, false);
    assert_eq!(clients[0].outcome(), Some(ClientOutcome::ProtocolClosed));
    assert!(matches!(
        clients[1].outcome(),
        Some(ClientOutcome::Decoded { .. })
    ));
    assert_eq!(clients[1].decoded_payload(), Some(&payload(12)));
    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.admitted, 1);
}

/// The documented k = 8 trade: at B = 16 one unobserved interior
/// message level already overflows the cap (16 × 256 × 256 > 65,536),
/// so a served k = 8 session attempts only once every interior level
/// has a symbol — with the paper's schedule, no earlier than the last
/// symbol of its first pass but one — and its served rate stays at
/// about k bits/symbol.
#[test]
fn served_k8_session_decodes_after_its_first_full_pass() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    // 6 payload bytes + CRC-16 = 64 framed bits = 8 message levels,
    // one per residue of the stride-8 pass.
    let p = BitVec::from_bytes(&[0x0b, 0xad, 0xc0, 0xde, 0x42, 0x17]);
    let cfg = ClientConfig {
        k: 8,
        burst: 1,
        ..ClientConfig::default()
    };
    let mut clients = vec![ServeClient::new(local, &cfg, &p).unwrap()];
    run_to_done(&mut server, &mut clients, false);
    let Some(ClientOutcome::Decoded {
        symbols_used,
        attempts,
    }) = clients[0].outcome()
    else {
        panic!("a clean k = 8 flow must decode: {:?}", clients[0].outcome());
    };
    assert_eq!(clients[0].decoded_payload(), Some(&p));
    assert!(symbols_used >= 7, "decoded after {symbols_used} symbols");
    assert!(
        u64::from(attempts) <= symbols_used - 6,
        "{attempts} attempts by {symbols_used} symbols: one ran before seven"
    );
}

#[test]
fn reap_frees_slots_for_new_sessions() {
    let cfg = ServeConfig {
        pool: MultiConfig {
            max_sessions: 1,
            ..MultiConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let mut clients =
        vec![ServeClient::new(local, &ClientConfig::default(), &payload(10)).unwrap()];
    run_to_done(&mut server, &mut clients, false);
    assert!(matches!(
        clients[0].outcome(),
        Some(ClientOutcome::Decoded { .. })
    ));
    // The decoded session is already dropped; dropping the client
    // kills the transport, and the reaper frees the connection slot.
    drop(clients);
    server.tick();
    assert!(server.reap_closed() >= 1);
    assert_eq!(server.live_sessions(), 0);

    // A fresh session is admitted into the reclaimed capacity.
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let mut clients =
        vec![ServeClient::new(local, &ClientConfig::default(), &payload(11)).unwrap()];
    run_to_done(&mut server, &mut clients, false);
    assert!(matches!(
        clients[0].outcome(),
        Some(ClientOutcome::Decoded { .. })
    ));
}
