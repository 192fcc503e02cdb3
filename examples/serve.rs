//! The codec service end to end: a sharded [`Server`] and a
//! [`ServeClient`] talking the versioned wire protocol over the
//! deterministic in-process loopback, with link faults in the way —
//! then the same dialogue again with the server killed and
//! warm-restarted mid-stream, proving the restart invisible.
//!
//! The client CRC-frames a payload, negotiates the session with HELLO
//! (shape, symbol budget, NACK feedback), then streams DATA frames
//! whose symbols pass through a composable [`FaultPlan`] — drops and
//! duplicates here — before hitting the wire. The server detects the
//! sequence gaps the drops create, NACKs, and the client seeks its
//! transmitter back and replays; the dialogue ends with the server
//! shipping the decoded (CRC-verified, CRC-stripped) payload back.
//!
//! The second run kills the whole server mid-stream: the state is
//! imaged with [`Server::snapshot_into`], the server dropped (severing
//! the transport exactly like a process death severs its sockets),
//! rebuilt with [`Server::restore`], and the client re-attached through
//! the ordinary RESUME path with the token from its HELLO-ACK. The
//! killed run must conclude with the *same* verdict — same
//! `symbols_used`, same `attempts` — as the uninterrupted one.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use spinal_codes::link::{FaultPlan, FeedbackMode, LinkFault};
use spinal_codes::serve::{
    loopback_pair, loopback_pair_chunked, ClientConfig, ClientOutcome, LoopbackTransport,
    ServeClient, ServeConfig, Server,
};
use spinal_codes::BitVec;

fn payload() -> BitVec {
    BitVec::from_bytes(&[0xca, 0xfe, 0x42, 0x07])
}

fn serve_cfg() -> ServeConfig {
    // A 4-shard event loop; connections spread across shards by stable
    // hash, each shard owning its own flow table. The resume secret
    // is pinned: snapshots demand it (tokens minted under a
    // process-random secret would verify for nobody after a restart).
    ServeConfig {
        shards: 4,
        resume_secret: Some(0x5EED_2011),
        ..ServeConfig::default()
    }
}

/// Runs the NACK dialogue; with `kill_at`, the server dies at that
/// tick and warm-restarts from its own snapshot. `faulty` wraps the
/// client in the drop/duplicate plan — the showcase run; the
/// kill-identity pair runs clean, because a replayed delivery draws
/// fresh fault events (the counter-seeded plan advances per delivery),
/// so under faults killed and uninterrupted runs see different links.
fn run(kill_at: Option<u64>, faulty: bool) -> (ClientOutcome, bool, u64) {
    let mut server = Server::new(serve_cfg()).expect("valid serve config");

    // The showcase run uses the counter-seeded *chunked* loopback so
    // wire reassembly is exercised: frames arrive split at arbitrary
    // byte boundaries, bit-reproducibly. The kill-identity pair uses
    // the plain loopback: a pipe opened after the restart cannot share
    // the old pipe's chunk phase, and arrival batching moves attempt
    // boundaries (never results) — the identity under test is the
    // snapshot's, not the chunker's.
    let pipe = |seed: u64| -> (LoopbackTransport, LoopbackTransport) {
        if faulty {
            loopback_pair_chunked(1 << 16, seed)
        } else {
            loopback_pair(1 << 16)
        }
    };
    let (local, remote) = pipe(2026);
    server.add_connection(remote);

    // NACK-mode client pushing through a faulty link: 20% of symbol
    // deliveries dropped, 10% duplicated, all counter-seeded.
    let cfg = ClientConfig {
        mode: FeedbackMode::Nack,
        ..ClientConfig::default()
    };
    let mut client = ServeClient::new(local, &cfg, &payload()).expect("valid client shape");
    if faulty {
        let plan = FaultPlan::new(7)
            .with(LinkFault::Drop { p: 0.2 })
            .with(LinkFault::Duplicate { p: 0.1 });
        client = client.with_fault(&plan);
    }

    let mut image = Vec::new();
    let mut killed = false;
    let mut ticks = 0u64;
    while !client.is_done() {
        ticks += 1;
        server.tick_sharded();
        // Kill at the first tick past the mark where the client holds
        // its token (the chunked loopback can stretch the HELLO-ACK).
        if !killed && kill_at.is_some_and(|at| ticks >= at) {
            if let Some(token) = client.resume_token() {
                killed = true;
                // Process death: image the sessions, drop the server (the
                // transport dies with it), rebuild, re-attach by token.
                server.snapshot_into(&mut image).expect("secret is pinned");
                server = Server::restore(serve_cfg(), &image).expect("own snapshot restores");
                let (local, remote) = pipe(2027);
                server.add_resume_connection(remote, token);
                drop(client.reconnect(local));
            }
        }
        client.tick();
        assert!(ticks < 10_000, "dialogue should settle quickly");
    }

    let outcome = client.outcome().expect("done clients have a verdict");
    let ok = client.decoded_payload() == Some(&payload());
    let stats = server.stats();
    assert_eq!(stats.admitted, 1);
    if kill_at.is_some() {
        assert_eq!(stats.snapshots, 1, "one kill, one snapshot");
        assert_eq!(stats.restored, 1, "the in-flight session restored");
        assert_eq!(stats.restore_dropped, 0, "nothing may drop in restore");
        assert_eq!(stats.resumed, 1, "the client re-attached by token");
    }
    (outcome, ok, ticks)
}

fn main() {
    println!("payload  : {:?}", payload());
    println!("session  : k=4 c=8 B=16, CRC-16 framing, NACK feedback");
    println!("link     : 20% drop + 10% duplicate, chunked loopback");

    let (faulted, faulted_ok, faulted_ticks) = run(None, true);
    let ClientOutcome::Decoded {
        symbols_used,
        attempts,
    } = faulted
    else {
        panic!("flow should decode, got {faulted:?}");
    };
    println!(
        "decoded  : {symbols_used} symbols consumed over {attempts} attempts, \
         {faulted_ticks} ticks (faulty link, uninterrupted)"
    );
    println!("payload ok: {faulted_ok} (server CRC-verified and stripped the framing)");

    // Snapshot roundtrip on a clean link: the same dialogue with the
    // server killed mid-stream and rebuilt from its own snapshot must
    // be invisible to the decode verdict — identical symbols_used,
    // identical attempts.
    let (base, base_ok, _) = run(None, false);
    let (killed, killed_ok, killed_ticks) = run(Some(3), false);
    assert_eq!(killed, base, "warm restart must be bit-identical");
    assert!(base_ok && killed_ok, "both clean flows must deliver");
    println!(
        "restarted: killed mid-stream, snapshot → restore → RESUME; \
         same verdict as never crashing, settled in {killed_ticks} ticks"
    );
    println!("roundtrip: snapshot restore is bit-identical to an uninterrupted run");
}
