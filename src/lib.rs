//! # spinal-codes — Rateless Spinal Codes (HotNets 2011), reproduced in Rust
//!
//! This is the umbrella crate of a from-scratch reproduction of
//! *Rateless Spinal Codes* (Perry, Balakrishnan, Shah — HotNets 2011):
//! a rateless channel code that hashes the message's `k`-bit segments
//! into a spine of pseudo-random states and maps their expansion bits
//! directly onto a dense I-Q constellation. The receiver replays the
//! encoder over a pruned hypothesis tree (the practical "B-beam"
//! decoder) and asks for more symbols until it succeeds — no channel
//! estimation, no rate adaptation.
//!
//! The workspace layers, re-exported here as modules:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | crate root | `spinal-core` | encoder, beam + ML decoders, hashes, mappers, puncturing, CRC framing |
//! | [`channel`] | `spinal-channel` | AWGN, BSC, BEC, Rayleigh block fading, ADC quantizer, seeded PRNG |
//! | [`modem`] | `spinal-modem` | BPSK/QPSK/QAM-16/QAM-64 + soft LLR demappers |
//! | [`ldpc`] | `spinal-ldpc` | 802.11n-style QC-LDPC baseline with 40-iter BP |
//! | [`info`] | `spinal-info` | Shannon capacities, PPV finite-blocklength bound, theorem thresholds |
//! | [`sim`] | `spinal-sim` | the §5 experiment harness (genie/CRC rateless runs, LDPC goodput, sweeps) |
//! | [`link`] | `spinal-link` | feedback modes and deterministic data-link fault injection |
//! | [`serve`] | `spinal-serve` | network-facing codec service: wire format, sharded event loops, backpressure, and the §6 link experiments run through it |
//!
//! ## Quickstart
//!
//! The streaming session API is the front door: a [`TxSession`] pulls
//! symbols from the encoder (with seek/replay for NACKs), an
//! [`RxSession`] ingests them and polls `NeedMore` / `Decoded` /
//! `Exhausted`, with CRC framing deciding termination — no genie. Every
//! retry runs the beam search again from the root over everything
//! received, bit-identical to a batch decode.
//!
//! ```
//! use spinal_codes::{
//!     frame_encode, AnyTerminator, BitVec, Checksum, DecoderScratch, Poll, RxConfig, SpinalCode,
//! };
//! use spinal_codes::channel::{AwgnChannel, Channel};
//!
//! // The paper's Figure 2 code carrying a CRC-16-framed payload.
//! let payload = BitVec::from_bytes(&[0xca]);
//! let framed = frame_encode(&payload, Checksum::Crc16);
//! let code = SpinalCode::fig2(framed.len() as u32, 7).unwrap();
//!
//! let mut tx = code.tx_session(&framed).unwrap();
//! let mut rx = code
//!     .awgn_rx_session(AnyTerminator::crc(Checksum::Crc16), RxConfig::default())
//!     .unwrap();
//!
//! // Stream symbols through a 15 dB AWGN channel until the CRC verifies.
//! let mut channel = AwgnChannel::from_snr_db(15.0, 99);
//! let mut scratch = DecoderScratch::new();
//! loop {
//!     let (_slot, x) = tx.next_symbol();
//!     match rx.ingest(&mut scratch, &[channel.transmit(x)]).unwrap() {
//!         Poll::NeedMore { .. } => continue,
//!         Poll::Decoded { symbols_used, .. } => {
//!             // The achieved rate adapts to the channel.
//!             assert!(symbols_used >= 4, "capacity at 15 dB is ~5.03 bits/symbol");
//!             break;
//!         }
//!         Poll::Exhausted { .. } => unreachable!("15 dB decodes"),
//!     }
//! }
//! assert_eq!(rx.payload(), Some(&payload));
//! ```
//!
//! See `examples/` for fading, BSC, decoder-scaling and mini-Figure-2
//! demonstrations, and `crates/bench/src/bin/` for the binaries that
//! regenerate every figure and claim in the paper (indexed in DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spinal_core::*;

/// Channel models (AWGN, BSC, BEC, fading, ADC) and the seeded PRNG.
pub mod channel {
    pub use spinal_channel::*;
}

/// Fixed constellations and soft demappers for the LDPC baseline.
pub mod modem {
    pub use spinal_modem::*;
}

/// The 802.11n-style QC-LDPC baseline.
pub mod ldpc {
    pub use spinal_ldpc::*;
}

/// Information-theoretic bounds (Shannon, PPV, theorem thresholds).
pub mod info {
    pub use spinal_info::*;
}

/// The experiment harness reproducing §5.
pub mod sim {
    pub use spinal_sim::*;
}

/// Feedback modes and deterministic data-link fault injection.
pub mod link {
    pub use spinal_link::*;
}

/// The network-facing codec service: wire format, transports, sharded
/// serving event loop with backpressure, the client driver, and the §6
/// link experiments (`serve::sim`) run through them.
pub mod serve {
    pub use spinal_serve::*;
}
