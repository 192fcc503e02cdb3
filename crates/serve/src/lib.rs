//! # spinal-serve — the network-facing codec service
//!
//! Everything between a byte transport and the receiver sessions:
//!
//! * [`wire`] — the versioned, length-prefixed binary frame format of
//!   the session dialogue (HELLO negotiation, slot-labelled DATA runs,
//!   ACK/NACK/cumulative-ACK feedback, typed decode errors, zero-copy
//!   reassembly).
//! * [`transport`] — the non-blocking byte-transport contract, with a
//!   deterministic bounded in-process loopback (optionally chunk-seeded),
//!   a dependency-free non-blocking `std::net` TCP implementation, and
//!   counter-seeded connection chaos (stalls, closes, corrupt bytes,
//!   lost and delayed feedback frames).
//! * [`server`] — the sharded serving event loop: each shard owns its
//!   hash-assigned connections, a flow table holding every pending
//!   flow's session, and one decoder scratch it lends to every attempt;
//!   every tick flushes feedback, drains ingress under per-connection
//!   backpressure, and polls each session, running its attempt only once
//!   it fits the decoder's frontier cap.
//!   Serial and sharded ticks are bit-identical. Crash safety
//!   rides on the same machinery: [`server::Server::snapshot_into`]
//!   images every session into a versioned, per-section-CRC'd blob and
//!   [`server::Server::restore`] rebuilds a server whose resumed flows
//!   are bit-identical to never-killed ones.
//! * [`client`] — a session driver for the other end of the wire, with
//!   NACK-seeking replay and composable link faults / noise.
//! * [`protocol`] and [`sim`] — the §6 link experiments: their
//!   configuration and report, and the driver that runs a window of
//!   clients sharing one noisy channel to one server, over lossy,
//!   delayed feedback.
//!
//! ```
//! use spinal_core::bits::BitVec;
//! use spinal_serve::{loopback_pair, ClientConfig, ClientOutcome, ServeConfig, ServeClient, Server};
//!
//! let mut server = Server::new(ServeConfig::default()).unwrap();
//! let (local, remote) = loopback_pair(1 << 16);
//! server.add_connection(remote);
//!
//! let payload = BitVec::from_bytes(&[0xa5]);
//! let mut client = ServeClient::new(local, &ClientConfig::default(), &payload).unwrap();
//! while !client.is_done() {
//!     server.tick();
//!     client.tick();
//! }
//! assert!(matches!(client.outcome(), Some(ClientOutcome::Decoded { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod sim;
mod snapshot;
pub mod transport;
pub mod wire;

pub use client::{ClientConfig, ClientOutcome, NoiseHook, ServeClient};
pub use protocol::{LinkConfig, LinkReport};
pub use server::{ConnHandle, MultiConfig, ServeConfig, ServeStats, Server};
pub use sim::{simulate_link, simulate_link_ensemble};
pub use transport::{
    chaos_pair, loopback_pair, loopback_pair_chunked, ChaosEvent, ChaosPlan, ChaosTransport,
    LoopbackTransport, TcpAcceptor, TcpTransport, Transport,
};
pub use wire::{
    encode_frame, CloseReason, DecodedBits, Frame, Hello, ResumeToken, SymbolRun, WireDecoder,
    HEADER_LEN, MAX_FRAME_PAYLOAD, SYMBOL_WIRE_LEN, WIRE_MAGIC, WIRE_VERSION,
};
