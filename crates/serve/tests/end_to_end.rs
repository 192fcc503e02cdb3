//! End-to-end serve dialogues over the deterministic loopback:
//! decode, NACK recovery, admission control, backpressure, terminal
//! closes, the per-tick drive budget, and serial-vs-sharded
//! bit-identity over a mixed-feedback fleet.

use spinal_core::bits::BitVec;
use spinal_core::sched::MultiConfig;
use spinal_core::symbol::IqSymbol;
use spinal_link::{FaultPlan, FeedbackMode, LinkFault};
use spinal_serve::{
    loopback_pair, loopback_pair_chunked, ClientConfig, ClientOutcome, ServeClient, ServeConfig,
    Server,
};
use spinal_sim::stats::derive_seed;

const MAX_TICKS: usize = 20_000;

fn payload(i: u64) -> BitVec {
    BitVec::from_bytes(&[(i & 0xff) as u8, ((i * 7 + 3) & 0xff) as u8])
}

/// Ticks server and clients until every client has a verdict; returns
/// the tick at which each client finished.
fn run_to_done(
    server: &mut Server<spinal_serve::LoopbackTransport>,
    clients: &mut [ServeClient<spinal_serve::LoopbackTransport>],
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

/// The pool's level budget paces the server's drive: at one level per
/// tick, attempts queue behind each other, so the same fleet needs
/// more ticks — and still decodes every payload.
#[test]
fn pool_work_budget_paces_the_server_drive() {
    let run = |work_budget: u64| {
        let cfg = ServeConfig {
            pool: MultiConfig {
                work_budget,
                ..MultiConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut server = Server::new(cfg).unwrap();
        let mut clients = Vec::new();
        for i in 0..8 {
            let (local, remote) = loopback_pair(1 << 16);
            server.add_connection(remote);
            let ccfg = ClientConfig {
                seed: 300 + i,
                ..ClientConfig::default()
            };
            clients.push(ServeClient::new(local, &ccfg, &payload(i)).unwrap());
        }
        run_to_done(&mut server, &mut clients, false);
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(c.decoded_payload(), Some(&payload(i as u64)));
        }
        server.stats().ticks
    };
    let free = run(u64::MAX);
    let paced = run(1);
    assert!(
        paced > free,
        "a one-level budget must pace the drive ({paced} vs {free} ticks)"
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
    // The decoded session already left the pool; dropping the client
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
