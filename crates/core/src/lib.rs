//! # Rateless spinal codes
//!
//! A from-scratch implementation of **spinal codes** (Perry, Balakrishnan,
//! Shah — *Rateless Spinal Codes*, HotNets 2011): a family of rateless
//! channel codes built from a hash function applied sequentially over
//! `k`-bit segments of the message, whose pseudo-random output bits map
//! directly onto a dense I-Q constellation (or onto coded bits for binary
//! channels).
//!
//! ## Architecture
//!
//! ```text
//! message bits ──BitVec──► spine (hash chain)  ──► expansion bits ──► mapper ──► symbols
//!      ▲                    [spine::compute_spine]  [expand]           [map]       │
//!      │                                                                           ▼ channel
//! decoded bits ◄── beam / ML tree search over replayed encoder ◄── Observations ◄─┘
//!                  [decode::beam, decode::ml]
//! ```
//!
//! * [`params`] — code parameters (`n`, `k`, tail segments, seed).
//! * [`hash`] — seeded spine-hash families (lookup3, one-at-a-time,
//!   SipHash-2-4, splitmix), all implemented here.
//! * [`spine`] — the sequential hash chain `s_t = h(s_{t−1}, M_t)`.
//! * [`expand`] — counter-mode expansion of each spine value into the
//!   "infinite precision bit representation" the paper indexes per pass.
//! * [`map`] — constellation mappers: the paper's Eq. 3 linear map, an
//!   offset-uniform variant, a truncated Gaussian (the §6 future-work
//!   mapper), and the binary mapper for BSC operation.
//! * [`puncture`] — transmission schedules; stride-8 bit-reversed
//!   puncturing enables rates above `k` bits/symbol.
//! * [`encode`] — the rateless encoder (random-access and streaming).
//! * [`decode`] — the practical B-beam decoder with graceful scale-down
//!   and the exact branch-and-bound ML decoder, over AWGN (ℓ²) and BSC
//!   (Hamming) metrics.
//! * [`frame`] — CRC-16/32 framing, genie and CRC termination.
//! * [`session`] — streaming sessions: [`session::TxSession`] (pull
//!   symbols, seek/replay on NACK) and [`session::RxSession`] (push
//!   symbols, poll `NeedMore` / `Decoded` / `Exhausted`).
//! * [`error`] — the crate-wide typed [`error::SpinalError`].
//! * [`code`] — the [`code::SpinalCode`] facade bundling a configuration.
//!
//! ## Quickstart
//!
//! ```
//! use spinal_core::bits::BitVec;
//! use spinal_core::code::SpinalCode;
//! use spinal_core::decode::DecoderScratch;
//! use spinal_core::frame::AnyTerminator;
//! use spinal_core::session::{Poll, RxConfig};
//!
//! // The Figure 2 code: 24-bit messages, k = 8, c = 10.
//! let code = SpinalCode::fig2(24, 42).unwrap();
//! let message = BitVec::from_bytes(&[0xca, 0xfe, 0x42]);
//!
//! // Sender session: a rateless stream of I-Q symbols with replay.
//! let mut tx = code.tx_session(&message).unwrap();
//!
//! // Receiver session (noiseless here): push symbols in, poll until
//! // the terminator accepts. Each retry runs the tree search again from
//! // the root, as the paper's receiver does; the scratch holds one
//! // attempt's expansion buffers and can serve any number of sessions.
//! let mut rx = code
//!     .awgn_rx_session(AnyTerminator::genie(message.clone()), RxConfig::default())
//!     .unwrap();
//! let mut scratch = DecoderScratch::new();
//! loop {
//!     let (_slot, sym) = tx.next_symbol();
//!     if let Poll::Decoded { .. } = rx.ingest(&mut scratch, &[sym]).unwrap() {
//!         break;
//!     }
//! }
//! assert_eq!(rx.payload(), Some(&message));
//! ```
//!
//! Channel models, modulation for the LDPC baseline, information-theoretic
//! bounds and the experiment harness live in the sibling crates
//! (`spinal-channel`, `spinal-modem`, `spinal-ldpc`, `spinal-info`,
//! `spinal-sim`).

// `unsafe` is denied crate-wide and re-allowed in exactly one place:
// the `kernels` module, whose `core::arch` SIMD intrinsics sit behind
// runtime feature detection and are property-tested bit-identical to
// the scalar paths.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod code;
pub mod decode;
pub mod encode;
pub mod error;
pub mod expand;
pub mod frame;
pub mod hash;
pub mod kernels;
pub mod map;
pub mod params;
pub mod puncture;
pub mod session;
pub mod spine;
pub mod symbol;

pub use bits::BitVec;
pub use code::SpinalCode;
pub use decode::{
    reference_decode, AwgnCost, BeamConfig, BeamDecoder, BecCost, BscCost, Candidate, CostModel,
    DecodeResult, DecodeStats, DecoderScratch, MlConfig, MlDecoder, MlScratch, Observations,
};
pub use encode::Encoder;
pub use error::{ConfigErrorKind, SpinalError, WireErrorKind};
pub use frame::{
    frame_check, frame_check_into, frame_encode, AnyTerminator, Checksum, CrcTerminator,
    GenieOracle, Terminator,
};
pub use hash::{AnyHash, HashFamily, Lookup3, OneAtATime, SipHash24, SpineHash, SplitMix};
pub use kernels::KernelDispatch;
pub use map::{
    AnyIqMapper, BinaryMapper, LinearMapper, Mapper, OffsetUniformMapper, TruncGaussMapper,
};
pub use params::{CodeParams, CodeParamsBuilder, ParamError};
pub use puncture::{AnySchedule, NoPuncture, PunctureSchedule, StridedPuncture, SubpassOrder};
pub use session::{Poll, RxConfig, RxSession, TxPosition, TxSession};
pub use spine::{compute_spine, segment_value, spine_step, SpineError, INITIAL_SPINE};
pub use symbol::{IqSymbol, Slot};
