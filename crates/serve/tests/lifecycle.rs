//! Connection-lifecycle dialogues over deterministic transports:
//! mid-stream disconnect + resume bit-identity, keepalive probing and
//! idle closure, graceful drain, overload shedding of detached
//! orphans, delivered flows leaving no record behind, chaos-transport
//! recovery, and a real-socket TCP smoke run.

use spinal_core::bits::BitVec;
use spinal_serve::MultiConfig;
use spinal_serve::{
    chaos_pair, encode_frame, loopback_pair, ChaosEvent, ChaosPlan, ClientConfig, ClientOutcome,
    Frame, LoopbackTransport, ServeClient, ServeConfig, Server, TcpAcceptor, TcpTransport,
    Transport, WireDecoder,
};

const MAX_TICKS: usize = 20_000;

fn payload(i: u64) -> BitVec {
    BitVec::from_bytes(&[
        (i & 0xff) as u8,
        ((i * 7 + 3) & 0xff) as u8,
        ((i * 13 + 5) & 0xff) as u8,
        ((i * 29 + 11) & 0xff) as u8,
    ])
}

fn run_to_done(
    server: &mut Server<LoopbackTransport>,
    clients: &mut [ServeClient<LoopbackTransport>],
    sharded: bool,
) {
    for _ in 0..MAX_TICKS {
        if sharded {
            server.tick_sharded();
        } else {
            server.tick();
        }
        let mut all_done = true;
        for c in clients.iter_mut() {
            c.tick();
            all_done &= c.is_done();
        }
        if all_done {
            return;
        }
    }
    panic!("dialogue did not finish within {MAX_TICKS} ticks");
}

/// A session interrupted mid-stream and resumed over a fresh
/// connection must conclude with the decoded payload *and* the decode
/// verdict (`symbols_used`, `attempts`) bit-identical to an
/// uninterrupted twin — the detached session keeps being driven, so
/// the reconnect changes nothing the decoder can observe.
#[test]
fn mid_stream_resume_is_bit_identical() {
    let p = payload(42);
    let ccfg = ClientConfig {
        burst: 2,
        ..ClientConfig::default()
    };

    // Uninterrupted twin.
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let mut clients = vec![ServeClient::new(local, &ccfg, &p).unwrap()];
    run_to_done(&mut server, &mut clients, false);
    let baseline = clients[0].outcome().unwrap();
    assert!(matches!(baseline, ClientOutcome::Decoded { .. }));

    // Same flow, disconnected mid-stream and resumed.
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let mut client = ServeClient::new(local, &ccfg, &p).unwrap();
    for _ in 0..6 {
        client.tick();
        server.tick();
    }
    let token = client
        .resume_token()
        .expect("admitted client holds a resume token");
    assert!(!client.is_done(), "flow must still be mid-stream");

    let (srv2, cli2) = loopback_pair(1 << 16);
    server.add_resume_connection(srv2, token);
    // Dropping the stale half closes the old connection toward the
    // server, which detaches the session; the RESUME on the new
    // connection then re-attaches it (newest connection wins even if
    // both arrive in the same tick).
    drop(client.reconnect(cli2));
    let mut clients = vec![client];
    run_to_done(&mut server, &mut clients, false);

    assert_eq!(
        clients[0].outcome(),
        Some(baseline),
        "resumed verdict must be bit-identical to the uninterrupted run"
    );
    assert_eq!(clients[0].decoded_payload(), Some(&p));
    let stats = server.stats();
    assert_eq!(stats.decoded, 1);
    assert_eq!(stats.detached, 1);
    assert_eq!(stats.resumed, 1);
    assert_eq!(stats.resume_rejected, 0);
}

/// Resume works identically under sharding: the reconnect is routed to
/// the session's shard by token id.
#[test]
fn sharded_resume_reaches_the_right_shard() {
    let cfg = ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();
    let mut clients = Vec::new();
    for i in 0..6u64 {
        let (local, remote) = loopback_pair(1 << 16);
        server.add_connection(remote);
        let ccfg = ClientConfig {
            seed: 300 + i,
            burst: 2,
            ..ClientConfig::default()
        };
        clients.push(ServeClient::new(local, &ccfg, &payload(i)).unwrap());
    }
    for _ in 0..6 {
        server.tick_sharded();
        for c in clients.iter_mut() {
            c.tick();
        }
    }
    // Interrupt one mid-stream flow and resume it.
    let token = clients[2].resume_token().expect("client 2 admitted");
    let (srv2, cli2) = loopback_pair(1 << 16);
    server.add_resume_connection(srv2, token);
    drop(clients[2].reconnect(cli2));
    run_to_done(&mut server, &mut clients, true);
    for (i, c) in clients.iter().enumerate() {
        assert!(
            matches!(c.outcome(), Some(ClientOutcome::Decoded { .. })),
            "flow {i} must decode, got {:?}",
            c.outcome()
        );
        assert_eq!(c.decoded_payload(), Some(&payload(i as u64)));
    }
    assert_eq!(server.stats().resumed, 1);
}

/// Keepalive: an idle connection is probed with PING at
/// `keepalive_idle` (one outstanding probe until activity), and closed
/// — its session detached — at `idle_deadline`.
#[test]
fn keepalive_probes_then_idle_deadline_closes() {
    let cfg = ServeConfig {
        keepalive_idle: 3,
        idle_deadline: 10,
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();
    let (srv_t, mut cli_t) = loopback_pair(1 << 16);
    let handle = server.add_connection(srv_t);

    // Stay silent: the server probes once it has been quiet long
    // enough, and does not probe again while one ping is outstanding.
    let mut rx = Vec::new();
    for _ in 0..6 {
        server.tick();
        cli_t.recv(&mut rx).unwrap();
    }
    let mut dec = WireDecoder::new();
    dec.push_bytes(&rx);
    let mut pings = Vec::new();
    while let Some(f) = dec.next_frame().unwrap() {
        if let Frame::Ping { nonce } = f {
            pings.push(nonce);
        }
    }
    assert_eq!(pings.len(), 1, "one outstanding probe at a time");
    assert_eq!(server.stats().keepalive_pings, 1);

    // Answering the probe re-arms it: activity resets the idle clock.
    let mut pong = Vec::new();
    encode_frame(&Frame::Pong { nonce: pings[0] }, &mut pong).unwrap();
    cli_t.send(&pong).unwrap();
    for _ in 0..5 {
        server.tick();
        cli_t.recv(&mut rx).unwrap();
    }
    assert_eq!(
        server.stats().keepalive_pings,
        2,
        "probe re-arms after PONG"
    );
    assert_eq!(server.stats().idle_closed, 0);

    // Silence past the idle deadline closes the connection.
    for _ in 0..12 {
        server.tick();
    }
    assert_eq!(server.stats().idle_closed, 1);
    assert!(server.is_closed(handle));
    assert!(server.reap_closed() >= 1);
}

/// Graceful drain: every peer receives GO-AWAY with the remaining
/// budget, new HELLOs are refused with BUSY, and whatever still
/// streams at the deadline is shed under its resume token (past the
/// deadline the server sheds everything — the token's value is that
/// the verdict was not silently lost).
#[test]
fn graceful_drain_completes_short_flows_and_sheds_slow_ones() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    // A deliberately slow flow: one symbol per tick of a long payload.
    let slow_cfg = ClientConfig {
        burst: 1,
        ..ClientConfig::default()
    };
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let mut slow = ServeClient::new(
        local,
        &slow_cfg,
        &BitVec::from_bytes(&[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12, 13, 14, 15, 16]),
    )
    .unwrap();
    for _ in 0..4 {
        slow.tick();
        server.tick();
    }
    assert!(!slow.is_done());

    // 128 payload bits need at least 16 symbols at one per tick; a
    // 3-tick budget cannot finish, so the flow is shed at the deadline.
    server.begin_drain(3);
    assert!(server.draining());

    // A late HELLO during the drain is refused flat.
    let (late_local, late_remote) = loopback_pair(1 << 16);
    server.add_connection(late_remote);
    let mut late = ServeClient::new(late_local, &ClientConfig::default(), &payload(50)).unwrap();

    for _ in 0..40 {
        slow.tick();
        late.tick();
        server.tick();
        if slow.is_done() && late.is_done() {
            break;
        }
    }
    assert_eq!(late.outcome(), Some(ClientOutcome::Busy));
    assert_eq!(slow.outcome(), Some(ClientOutcome::Shed));
    assert!(slow.go_away().is_some(), "drain must announce GO-AWAY");
    assert!(
        slow.resume_token().is_some(),
        "shed client keeps its resume token"
    );
    let stats = server.stats();
    assert_eq!(stats.busy_rejected, 1);
    assert_eq!(stats.detached, 1);
}

/// While the drain window is still open, RESUME is honoured: a flow
/// disconnected mid-stream reconnects and finishes inside the budget.
#[test]
fn resume_is_honoured_during_the_drain_window() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let (local, remote) = loopback_pair(1 << 16);
    server.add_connection(remote);
    let ccfg = ClientConfig {
        burst: 2,
        ..ClientConfig::default()
    };
    let p = payload(55);
    let mut client = ServeClient::new(local, &ccfg, &p).unwrap();
    for _ in 0..5 {
        client.tick();
        server.tick();
    }
    let token = client.resume_token().expect("admitted");
    assert!(!client.is_done());

    // Open a generous drain window, then disconnect and resume inside
    // it: the session must still complete.
    server.begin_drain(5_000);
    let (srv2, cli2) = loopback_pair(1 << 16);
    server.add_resume_connection(srv2, token);
    drop(client.reconnect(cli2));
    let mut clients = vec![client];
    run_to_done(&mut server, &mut clients, false);
    assert!(
        matches!(clients[0].outcome(), Some(ClientOutcome::Decoded { .. })),
        "resume during drain must finish, got {:?}",
        clients[0].outcome()
    );
    assert_eq!(clients[0].decoded_payload(), Some(&p));
    let stats = server.stats();
    assert_eq!(stats.resumed, 1);
    assert_eq!(stats.decoded, 1);
}

/// Overload shedding: with the shard full of an orphaned (detached)
/// session and an attached one, a new HELLO evicts the orphan instead
/// of bouncing with BUSY — the attached flow is never a candidate and
/// still decodes; the orphan's token is then refused.
#[test]
fn admission_sheds_detached_orphans_before_busy() {
    let cfg = ServeConfig {
        pool: MultiConfig {
            max_sessions: 2,
            ..MultiConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();
    let one_symbol = ClientConfig {
        burst: 1,
        ..ClientConfig::default()
    };

    // Flow A streams, then its connection dies without a resume; flow
    // C streams beside it and stays attached, still decoding.
    let (a_local, a_remote) = loopback_pair(1 << 16);
    server.add_connection(a_remote);
    let mut a = ServeClient::new(
        a_local,
        &one_symbol,
        &BitVec::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]),
    )
    .unwrap();
    let (c_local, c_remote) = loopback_pair(1 << 16);
    server.add_connection(c_remote);
    let mut c = ServeClient::new(c_local, &one_symbol, &payload(61)).unwrap();
    for _ in 0..4 {
        a.tick();
        c.tick();
        server.tick();
    }
    let a_token = a.resume_token().expect("A was admitted");
    drop(a); // closes the transport; the server detaches A's session
    for _ in 0..3 {
        server.tick();
    }
    assert!(!c.is_done(), "C must still be decoding");
    assert_eq!(server.detached_sessions(), 1);
    assert_eq!(
        server.live_sessions(),
        2,
        "the orphan still occupies the shard"
    );

    // Flow B's HELLO must evict the orphan, not bounce, and not take C.
    let (b_local, b_remote) = loopback_pair(1 << 16);
    server.add_connection(b_remote);
    let b = ServeClient::new(b_local, &ClientConfig::default(), &payload(60)).unwrap();
    let mut clients = vec![b, c];
    run_to_done(&mut server, &mut clients, false);
    for client in &clients {
        assert!(matches!(
            client.outcome(),
            Some(ClientOutcome::Decoded { .. })
        ));
    }
    assert_eq!(clients[1].decoded_payload(), Some(&payload(61)));
    let stats = server.stats();
    assert_eq!(stats.shed, 1, "the orphan was shed to admit B");
    assert_eq!(stats.busy_rejected, 0);
    assert_eq!(stats.decoded, 2);
    assert_eq!(server.detached_sessions(), 0);

    // The shed orphan's token is now a typed refusal.
    let (srv3, mut cli3) = loopback_pair(1 << 16);
    server.add_resume_connection(srv3, a_token);
    let mut buf = Vec::new();
    encode_frame(&Frame::Resume { token: a_token }, &mut buf).unwrap();
    cli3.send(&buf).unwrap();
    let mut rx = Vec::new();
    for _ in 0..8 {
        server.tick();
        cli3.recv(&mut rx).unwrap();
    }
    let mut dec = WireDecoder::new();
    dec.push_bytes(&rx);
    let mut refused = false;
    while let Some(f) = dec.next_frame().unwrap() {
        if matches!(
            f,
            Frame::Close {
                reason: spinal_serve::CloseReason::ResumeInvalid
            }
        ) {
            refused = true;
        }
    }
    assert!(refused, "a shed session's token must be refused");
    assert_eq!(server.stats().resume_rejected, 1);
}

/// Overload sheds the costliest orphan first: with the shard at its cap
/// and two orphans — X, whose attempts have run over every level it
/// heard, and Y, admitted but silent, whose next attempt would walk the
/// whole unobserved tree — a HELLO sheds Y, although X holds the lower
/// flow index, and X still resumes and decodes.
#[test]
fn admission_sheds_the_costliest_orphan_first() {
    let cfg = ServeConfig {
        pool: MultiConfig {
            max_sessions: 2,
            ..MultiConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).unwrap();
    let ccfg = ClientConfig::default();
    let x_payload = payload(70);

    // X streams 32 garbage symbols — a full pass and more, every one
    // attempted and rejected — then its connection dies.
    let (x_local, x_remote) = loopback_pair(1 << 16);
    server.add_connection(x_remote);
    let mut garbage = 32;
    let mut x = ServeClient::new(x_local, &ccfg, &x_payload)
        .unwrap()
        .with_noise(Box::new(move |y| {
            if garbage > 0 {
                garbage -= 1;
                spinal_core::symbol::IqSymbol::new(0.0, 0.0)
            } else {
                y
            }
        }));
    for _ in 0..10 {
        x.tick();
        server.tick();
    }
    assert!(x.symbols_sent() >= 32 && !x.is_done());
    let x_token = x.resume_token().expect("X was admitted");
    let (x_srv2, x_cli2) = loopback_pair(1 << 16);
    drop(x.reconnect(x_cli2));

    // Y is admitted and dies before sending a symbol.
    let (y_local, y_remote) = loopback_pair(1 << 16);
    server.add_connection(y_remote);
    let mut y = ServeClient::new(y_local, &ccfg, &payload(71)).unwrap();
    y.tick();
    server.tick();
    drop(y);
    server.tick();
    assert_eq!(server.detached_sessions(), 2);
    assert_eq!(server.live_sessions(), 2, "both orphans fill the shard");

    // B's HELLO sheds Y; X resumes and decodes beside B.
    let (b_local, b_remote) = loopback_pair(1 << 16);
    server.add_connection(b_remote);
    let b = ServeClient::new(b_local, &ccfg, &payload(72)).unwrap();
    server.add_resume_connection(x_srv2, x_token);
    let mut clients = vec![b, x];
    run_to_done(&mut server, &mut clients, false);
    assert_eq!(clients[0].decoded_payload(), Some(&payload(72)));
    assert_eq!(clients[1].decoded_payload(), Some(&x_payload));
    let stats = server.stats();
    assert_eq!(stats.shed, 1, "one orphan was shed to admit B");
    assert_eq!((stats.resumed, stats.resume_rejected), (1, 0), "X resumed");
    assert_eq!(stats.busy_rejected, 0);
    assert_eq!(server.live_sessions(), 0);
}

/// A delivered flow's record does not outlive the flow, even under the
/// default config (infinite detach TTL): a client that hangs up right
/// after its verdict has already closed the dialogue, so the server
/// holds nothing for it — no session, not even a detached verdict.
#[test]
fn delivered_flows_leave_no_record_under_default_config() {
    let mut server = Server::new(ServeConfig::default()).unwrap();
    for i in 0..200u64 {
        let (local, remote) = loopback_pair(1 << 16);
        server.add_connection(remote);
        let ccfg = ClientConfig {
            seed: 500 + i,
            ..ClientConfig::default()
        };
        let mut clients = vec![ServeClient::new(local, &ccfg, &payload(i)).unwrap()];
        run_to_done(&mut server, &mut clients, false);
        assert_eq!(clients[0].decoded_payload(), Some(&payload(i)));
        // The client hangs up the moment it has its verdict.
        drop(clients);
    }
    for _ in 0..100 {
        server.tick();
    }
    server.reap_closed();
    assert_eq!(server.stats().decoded, 200);
    assert_eq!(server.live_sessions(), 0);
    assert_eq!(
        server.detached_sessions(),
        0,
        "delivered flows left records"
    );
}

/// A chaos-injected mid-stream disconnect surfaces as
/// `TransportClosed`; reconnecting with the resume token completes the
/// decode with the original payload.
#[test]
fn chaos_disconnect_then_resume_recovers() {
    // A long payload at one symbol per tick keeps the flow mid-stream
    // (64 bits need at least 8 symbols) when the chaos disconnect
    // fires at op 14 — after the HELLO-ACK handed over the resume
    // token.
    let p = BitVec::from_bytes(&[7, 7, 7, 1, 2, 3, 4, 5]);
    let ccfg = ClientConfig {
        burst: 1,
        ..ClientConfig::default()
    };
    let mut server = Server::new(ServeConfig::default()).unwrap();
    let plan = ChaosPlan::new(0xC4A0).with(ChaosEvent::Disconnect { at_op: 14 });
    let (chaos_cli, srv_t) = chaos_pair(1 << 16, &plan);
    server.add_connection(srv_t);
    let mut client = ServeClient::new(chaos_cli, &ccfg, &p).unwrap();

    let mut token = None;
    for _ in 0..200 {
        client.tick();
        server.tick();
        token = client.resume_token().or(token);
        if client.is_done() {
            break;
        }
    }
    assert_eq!(client.outcome(), Some(ClientOutcome::TransportClosed));
    let token = token.expect("client held a token before the chaos disconnect");

    // Reconnect over a clean pair (wrapped in an event-free chaos plan
    // to keep the transport type) and finish.
    let calm = ChaosPlan::new(1);
    let (chaos_cli2, srv2) = chaos_pair(1 << 16, &calm);
    server.add_resume_connection(srv2, token);
    drop(client.reconnect(chaos_cli2));
    for _ in 0..MAX_TICKS {
        client.tick();
        server.tick();
        if client.is_done() {
            break;
        }
    }
    assert!(
        matches!(client.outcome(), Some(ClientOutcome::Decoded { .. })),
        "chaos-interrupted flow must decode after resume, got {:?}",
        client.outcome()
    );
    assert_eq!(client.decoded_payload(), Some(&p));
}

/// Real-socket smoke: the full dialogue over localhost TCP — two
/// clients to verified decode, one of them disconnected mid-stream and
/// resumed over a fresh socket. Skips (with a note) where loopback
/// sockets are unavailable.
#[test]
fn tcp_lifecycle_smoke() {
    let Ok(acceptor) = TcpAcceptor::bind("127.0.0.1:0") else {
        eprintln!("skipping TCP lifecycle smoke: cannot bind loopback");
        return;
    };
    let addr = acceptor.local_addr().unwrap();
    let mut server: Server<TcpTransport> = Server::new(ServeConfig::default()).unwrap();

    let ccfg = ClientConfig {
        burst: 2,
        ..ClientConfig::default()
    };
    let p0 = payload(90);
    let p1 = payload(91);
    let mut c0 = ServeClient::new(TcpTransport::connect(addr).unwrap(), &ccfg, &p0).unwrap();
    let mut c1 = ServeClient::new(TcpTransport::connect(addr).unwrap(), &ccfg, &p1).unwrap();
    for _ in 0..64 {
        if let Some(t) = acceptor.accept().unwrap() {
            server.add_connection(t);
        }
        if server.stats().admitted == 2 {
            break;
        }
        c0.tick();
        c1.tick();
        server.tick();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Stream a while, then cut client 1's socket mid-stream.
    let mut cut = false;
    let mut resumed = false;
    for _ in 0..MAX_TICKS {
        if let Some(t) = acceptor.accept().unwrap() {
            server.add_connection(t);
        }
        c0.tick();
        c1.tick();
        server.tick();
        if !cut && !c1.is_done() && c1.resume_token().is_some() && server.stats().symbols_in > 8 {
            let stale = c1.reconnect(TcpTransport::connect(addr).unwrap());
            drop(stale);
            cut = true;
        }
        if cut && !resumed && server.stats().resumed == 1 {
            resumed = true;
        }
        if c0.is_done() && c1.is_done() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    assert!(matches!(c0.outcome(), Some(ClientOutcome::Decoded { .. })));
    assert!(
        matches!(c1.outcome(), Some(ClientOutcome::Decoded { .. })),
        "cut client must decode after resume, got {:?}",
        c1.outcome()
    );
    assert_eq!(c0.decoded_payload(), Some(&p0));
    assert_eq!(c1.decoded_payload(), Some(&p1));
    assert!(cut, "the mid-stream disconnect must actually have happened");
    assert_eq!(server.stats().decoded, 2);
}
