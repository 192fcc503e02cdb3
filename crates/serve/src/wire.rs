//! The versioned binary wire format of the codec service.
//!
//! Every message on a serve connection is one *frame*: an 8-byte header
//! (magic, version, frame type, payload length) followed by a
//! little-endian payload. The dialogue is the feedback link-layer
//! protocol, in the feedback modes of `spinal-link`'s [`FeedbackMode`]:
//!
//! | type | frame | direction | payload |
//! |---|---|---|---|
//! | 1 | [`Frame::Hello`] | client → server | code shape + feedback mode negotiation |
//! | 2 | [`Frame::HelloAck`] | server → client | admission token |
//! | 3 | [`Frame::Busy`] | server → client | admission rejected (shard full) |
//! | 4 | [`Frame::Data`] | client → server | a run of I-Q symbols with explicit slot cursors |
//! | 5 | [`Frame::Ack`] | server → client | decode succeeded |
//! | 6 | [`Frame::Nack`] | server → client | first missing symbol sequence number |
//! | 7 | [`Frame::CumAck`] | server → client | periodic cumulative state snapshot |
//! | 8 | [`Frame::Decoded`] | server → client | the decoded message bits |
//! | 9 | [`Frame::Close`] | either | terminal close with reason |
//! | 10 | [`Frame::Ping`] | either | keepalive probe with echo nonce |
//! | 11 | [`Frame::Pong`] | either | keepalive probe reply |
//! | 12 | [`Frame::GoAway`] | server → client | graceful-drain notice with tick budget |
//! | 13 | [`Frame::Resume`] | client → server | re-attach a detached session by token |
//! | 14 | [`Frame::ResumeAck`] | server → client | re-attach granted + replay cursor |
//!
//! Decoding is zero-copy: [`WireDecoder`] reassembles frames out of
//! arbitrarily chunked byte arrivals into one reusable buffer, and the
//! returned [`Frame`] borrows payload bytes from it. Every malformed
//! input yields a typed [`SpinalError::Wire`] — never a panic: bad
//! magic, unsupported version, unknown frame type, over-limit length,
//! short payloads ([`WireErrorKind::Truncated`]) and structural
//! mismatches ([`WireErrorKind::Corrupt`]) are all distinguished.

use spinal_core::bits::BitVec;
use spinal_core::error::{SpinalError, WireErrorKind};
use spinal_core::symbol::{IqSymbol, Slot};
use spinal_link::FeedbackMode;

/// The two magic bytes opening every frame header.
pub const WIRE_MAGIC: [u8; 2] = [0xC0, 0xDE];

/// The wire-format version this build speaks. Version 2 grew
/// [`Frame::HelloAck`] by a [`ResumeToken`] and added the five
/// lifecycle frames (`Ping`/`Pong`, `GoAway`, `Resume`/`ResumeAck`);
/// a version-1 peer fails the handshake with a clean
/// [`WireErrorKind::BadVersion`] instead of a payload parse error.
pub const WIRE_VERSION: u8 = 2;

/// Frame header length in bytes: magic (2) + version (1) + type (1) +
/// payload length (4, little-endian).
pub const HEADER_LEN: usize = 8;

/// Hard cap on a single frame's payload length. A header declaring more
/// is rejected as [`WireErrorKind::Oversized`] before any buffering, so
/// a corrupt length field cannot balloon the reassembly buffer.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Bytes per symbol entry in a [`Frame::Data`] payload:
/// slot `t` (4) + slot `pass` (4) + I (8) + Q (8).
pub const SYMBOL_WIRE_LEN: usize = 24;

const FT_HELLO: u8 = 1;
const FT_HELLO_ACK: u8 = 2;
const FT_BUSY: u8 = 3;
const FT_DATA: u8 = 4;
const FT_ACK: u8 = 5;
const FT_NACK: u8 = 6;
const FT_CUM_ACK: u8 = 7;
const FT_DECODED: u8 = 8;
const FT_CLOSE: u8 = 9;
const FT_PING: u8 = 10;
const FT_PONG: u8 = 11;
const FT_GO_AWAY: u8 = 12;
const FT_RESUME: u8 = 13;
const FT_RESUME_ACK: u8 = 14;

fn wire_err(kind: WireErrorKind) -> SpinalError {
    SpinalError::Wire { kind }
}

/// The client's opening frame: everything the server must know to build
/// the decoder session — code shape, beam width, symbol budget and the
/// feedback mode the client wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Message length in bits (CRC framing included); must divide by `k`.
    pub message_bits: u32,
    /// Segment width `k` of the spine.
    pub k: u32,
    /// Constellation bit depth `c` of the linear mapper.
    pub c: u32,
    /// Beam width `B` the decoder should run with.
    pub beam: u32,
    /// Receiver gives up after this many symbols.
    pub max_symbols: u64,
    /// Code seed both endpoints derive their hash from.
    pub seed: u64,
    /// Feedback mode for the session.
    pub mode: FeedbackMode,
}

/// Why a [`Frame::Close`] was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// The session completed normally.
    Done,
    /// The receiver exhausted its symbol budget without decoding.
    Exhausted,
    /// The server abandoned the session at its attempt ceiling.
    Abandoned,
    /// A protocol violation (malformed frame, bad dialogue order).
    Protocol,
    /// A [`Frame::Resume`] token was unknown, expired, already shed, or
    /// failed its integrity check. The client must start over with a
    /// fresh [`Frame::Hello`]; the server never guesses a session.
    ResumeInvalid,
    /// The server shed this detached session under overload pressure.
    Shed,
}

impl CloseReason {
    fn to_wire(self) -> u8 {
        match self {
            CloseReason::Done => 0,
            CloseReason::Exhausted => 1,
            CloseReason::Abandoned => 2,
            CloseReason::Protocol => 3,
            CloseReason::ResumeInvalid => 4,
            CloseReason::Shed => 5,
        }
    }

    fn from_wire(v: u8) -> Result<Self, SpinalError> {
        match v {
            0 => Ok(CloseReason::Done),
            1 => Ok(CloseReason::Exhausted),
            2 => Ok(CloseReason::Abandoned),
            3 => Ok(CloseReason::Protocol),
            4 => Ok(CloseReason::ResumeInvalid),
            5 => Ok(CloseReason::Shed),
            _ => Err(wire_err(WireErrorKind::Corrupt)),
        }
    }
}

/// An opaque resumption credential handed out in [`Frame::HelloAck`] and
/// presented back in [`Frame::Resume`] after a reconnect.
///
/// `id` names the detached session; `auth` is derived from the
/// session's admission identity under a per-server secret (see
/// `ServeConfig::resume_secret`), so a corrupted or guessed token
/// cannot be minted without that secret and cannot attach to another
/// session: both halves must match the server's own derivation exactly
/// or the resume is refused with a typed
/// [`CloseReason::ResumeInvalid`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResumeToken {
    /// Server-assigned detached-session identity.
    pub id: u64,
    /// Integrity check value bound to the admission.
    pub auth: u64,
}

/// A run of slot-labelled symbols inside a [`Frame::Data`] payload.
///
/// On the encode side it borrows the sender's `(Slot, IqSymbol)` batch;
/// on the decode side it borrows the raw payload bytes of the
/// reassembly buffer (zero-copy) and decodes entries on access. The two
/// representations compare equal element-wise (I/Q compared by exact
/// bit pattern), which is what the roundtrip property tests pin.
#[derive(Clone, Copy, Debug)]
pub enum SymbolRun<'a> {
    /// Borrowed sender-side batch.
    Slots(&'a [(Slot, IqSymbol)]),
    /// Borrowed, already validated wire bytes (`len × SYMBOL_WIRE_LEN`).
    Wire {
        /// Entry count.
        count: u32,
        /// Raw payload bytes backing the entries.
        bytes: &'a [u8],
    },
}

impl<'a> SymbolRun<'a> {
    /// Number of symbols in the run.
    pub fn len(&self) -> usize {
        match self {
            SymbolRun::Slots(s) => s.len(),
            SymbolRun::Wire { count, .. } => *count as usize,
        }
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th slot-labelled symbol.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()` — the run's bytes themselves were
    /// validated at frame-decode time, so in-range access cannot fail.
    pub fn get(&self, i: usize) -> (Slot, IqSymbol) {
        match self {
            SymbolRun::Slots(s) => s[i],
            SymbolRun::Wire { bytes, count } => {
                assert!(i < *count as usize, "symbol index {i} out of run");
                let e = &bytes[i * SYMBOL_WIRE_LEN..(i + 1) * SYMBOL_WIRE_LEN];
                let t = u32::from_le_bytes(e[0..4].try_into().unwrap());
                let pass = u32::from_le_bytes(e[4..8].try_into().unwrap());
                let iv = f64::from_bits(u64::from_le_bytes(e[8..16].try_into().unwrap()));
                let qv = f64::from_bits(u64::from_le_bytes(e[16..24].try_into().unwrap()));
                (Slot::new(t, pass), IqSymbol::new(iv, qv))
            }
        }
    }

    /// Iterates the run in order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, IqSymbol)> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Appends every entry to `out` (which is not cleared), for handing
    /// the run to [`spinal_core::session::RxSession::absorb_at`].
    pub fn copy_into(&self, out: &mut Vec<(Slot, IqSymbol)>) {
        out.extend(self.iter());
    }
}

impl PartialEq for SymbolRun<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.iter().zip(other.iter()).all(|((sa, xa), (sb, xb))| {
                sa == sb && xa.i.to_bits() == xb.i.to_bits() && xa.q.to_bits() == xb.q.to_bits()
            })
    }
}

/// The decoded message bits inside a [`Frame::Decoded`] payload: an
/// explicit bit count plus zero-padded bytes, borrowing either the
/// sender's [`BitVec`] storage or the decode buffer.
#[derive(Clone, Copy, Debug)]
pub struct DecodedBits<'a> {
    n_bits: u32,
    bytes: &'a [u8],
}

impl<'a> DecodedBits<'a> {
    /// Wraps a [`BitVec`]'s bits for encoding (zero-copy; padding bits
    /// are masked to zero on the wire at encode time).
    pub fn from_bits(bits: &'a BitVec) -> Self {
        Self {
            n_bits: bits.len() as u32,
            bytes: bits.as_bytes(),
        }
    }

    /// Bit count.
    pub fn len(&self) -> usize {
        self.n_bits as usize
    }

    /// Whether the payload carries zero bits.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Materialises an owned [`BitVec`] (allocates).
    pub fn to_bitvec(&self) -> BitVec {
        let mut out = BitVec::from_bytes(self.bytes);
        out.truncate(self.n_bits as usize);
        out
    }
}

impl PartialEq for DecodedBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.n_bits != other.n_bits {
            return false;
        }
        let n = self.n_bits as usize;
        let full = n / 8;
        if self.bytes[..full] != other.bytes[..full] {
            return false;
        }
        let tail = n % 8;
        if tail == 0 {
            return true;
        }
        let mask = 0xffu8 << (8 - tail);
        (self.bytes[full] & mask) == (other.bytes[full] & mask)
    }
}

/// One frame of the serve dialogue. Decoded frames borrow payload bytes
/// from the [`WireDecoder`] that produced them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Frame<'a> {
    /// Session open + config negotiation (client → server).
    Hello(Hello),
    /// Admission granted (server → client).
    HelloAck {
        /// Opaque server-assigned session token.
        token: u64,
        /// Credential for resuming this session after a disconnect.
        resume: ResumeToken,
    },
    /// Admission rejected: the shard is at its session ceiling.
    Busy {
        /// Sessions currently live on the shard.
        live: u32,
        /// The shard's session capacity.
        max_sessions: u32,
    },
    /// A run of symbols (client → server). `seq` numbers the first
    /// symbol of the run in the client's transmission stream, so the
    /// server can detect gaps; each symbol also carries its explicit
    /// [`Slot`], so replays and fault-reordered deliveries land on the
    /// right observations regardless of arrival order.
    Data {
        /// Stream sequence number of the first symbol in the run.
        seq: u64,
        /// The symbols.
        run: SymbolRun<'a>,
    },
    /// Decode succeeded (server → client). Re-sent on every later
    /// arrival for the session, so a lost ACK heals.
    Ack {
        /// Symbols the decoder consumed.
        symbols_used: u64,
        /// Decode attempts it ran.
        attempts: u32,
    },
    /// The receiver noticed a sequence gap; the client should seek its
    /// `TxSession` back to `expected_seq` and replay.
    Nack {
        /// First stream sequence number the server has not seen.
        expected_seq: u64,
    },
    /// Periodic cumulative snapshot (server → client, cumulative-ACK
    /// mode): the session's decode status as of this snapshot.
    CumAck {
        /// Whether the session has decoded.
        decoded: bool,
        /// Symbols consumed so far (or at decode).
        symbols_used: u64,
    },
    /// The decoded message bits (server → client), sent with the ACK.
    Decoded(DecodedBits<'a>),
    /// Terminal close with reason (either direction).
    Close {
        /// Why the sender is closing.
        reason: CloseReason,
    },
    /// Keepalive probe (either direction); the peer echoes `nonce` back
    /// in a [`Frame::Pong`]. Nonces are tick-derived, never wall-clock.
    Ping {
        /// Echo value identifying this probe.
        nonce: u64,
    },
    /// Keepalive probe reply (either direction).
    Pong {
        /// The nonce of the [`Frame::Ping`] being answered.
        nonce: u64,
    },
    /// Graceful-drain notice (server → client): no new work will be
    /// admitted; in-flight sessions get `drain_ticks` server ticks to
    /// finish before the server detaches them and closes.
    GoAway {
        /// Server ticks remaining before forced close.
        drain_ticks: u64,
    },
    /// Re-attach a detached session after a reconnect (client → server,
    /// in place of [`Frame::Hello`]).
    Resume {
        /// The credential from the original [`Frame::HelloAck`].
        token: ResumeToken,
    },
    /// Re-attach granted (server → client). The client must seek its
    /// transmitter back to `expected_seq` and replay from there.
    ResumeAck {
        /// First stream sequence number the server has not absorbed.
        expected_seq: u64,
    },
}

impl Frame<'_> {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello(_) => FT_HELLO,
            Frame::HelloAck { .. } => FT_HELLO_ACK,
            Frame::Busy { .. } => FT_BUSY,
            Frame::Data { .. } => FT_DATA,
            Frame::Ack { .. } => FT_ACK,
            Frame::Nack { .. } => FT_NACK,
            Frame::CumAck { .. } => FT_CUM_ACK,
            Frame::Decoded(_) => FT_DECODED,
            Frame::Close { .. } => FT_CLOSE,
            Frame::Ping { .. } => FT_PING,
            Frame::Pong { .. } => FT_PONG,
            Frame::GoAway { .. } => FT_GO_AWAY,
            Frame::Resume { .. } => FT_RESUME,
            Frame::ResumeAck { .. } => FT_RESUME_ACK,
        }
    }
}

/// The first whole frame at the front of `bytes`: its total length
/// (header included) and whether it is droppable feedback (`Ack`,
/// `Nack` or `CumAck`). `None` until the whole frame has arrived. It
/// trusts the header, so it splits streams this crate encoded, never a
/// peer's bytes.
pub(crate) fn split_frame(bytes: &[u8]) -> Option<(usize, bool)> {
    let header = bytes.get(..HEADER_LEN)?;
    let payload = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let len = HEADER_LEN + payload as usize;
    let feedback = matches!(header[3], FT_ACK | FT_NACK | FT_CUM_ACK);
    (bytes.len() >= len).then_some((len, feedback))
}

/// Encodes one frame, appending header + payload to `out` (which is not
/// cleared, so a tick's worth of frames can share one egress buffer).
///
/// # Errors
///
/// [`WireErrorKind::Oversized`] when the payload would exceed
/// [`MAX_FRAME_PAYLOAD`]; `out` is left exactly as it was.
pub fn encode_frame(frame: &Frame<'_>, out: &mut Vec<u8>) -> Result<(), SpinalError> {
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(frame.frame_type());
    out.extend_from_slice(&[0u8; 4]);
    let body = out.len();
    match frame {
        Frame::Hello(h) => {
            let (mode, period) = match h.mode {
                FeedbackMode::AckOnly => (0u8, 0u64),
                FeedbackMode::Nack => (1, 0),
                FeedbackMode::CumulativeAck { period } => (2, period),
            };
            out.extend_from_slice(&h.message_bits.to_le_bytes());
            out.extend_from_slice(&h.k.to_le_bytes());
            out.extend_from_slice(&h.c.to_le_bytes());
            out.extend_from_slice(&h.beam.to_le_bytes());
            out.extend_from_slice(&h.max_symbols.to_le_bytes());
            out.extend_from_slice(&h.seed.to_le_bytes());
            out.push(mode);
            out.extend_from_slice(&period.to_le_bytes());
        }
        Frame::HelloAck { token, resume } => {
            out.extend_from_slice(&token.to_le_bytes());
            out.extend_from_slice(&resume.id.to_le_bytes());
            out.extend_from_slice(&resume.auth.to_le_bytes());
        }
        Frame::Busy { live, max_sessions } => {
            out.extend_from_slice(&live.to_le_bytes());
            out.extend_from_slice(&max_sessions.to_le_bytes());
        }
        Frame::Data { seq, run } => {
            if run.len() > (MAX_FRAME_PAYLOAD - 12) / SYMBOL_WIRE_LEN {
                out.truncate(start);
                return Err(wire_err(WireErrorKind::Oversized));
            }
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(run.len() as u32).to_le_bytes());
            for (slot, sym) in run.iter() {
                out.extend_from_slice(&slot.t.to_le_bytes());
                out.extend_from_slice(&slot.pass.to_le_bytes());
                out.extend_from_slice(&sym.i.to_bits().to_le_bytes());
                out.extend_from_slice(&sym.q.to_bits().to_le_bytes());
            }
        }
        Frame::Ack {
            symbols_used,
            attempts,
        } => {
            out.extend_from_slice(&symbols_used.to_le_bytes());
            out.extend_from_slice(&attempts.to_le_bytes());
        }
        Frame::Nack { expected_seq } => out.extend_from_slice(&expected_seq.to_le_bytes()),
        Frame::CumAck {
            decoded,
            symbols_used,
        } => {
            out.push(u8::from(*decoded));
            out.extend_from_slice(&symbols_used.to_le_bytes());
        }
        Frame::Decoded(bits) => {
            let n = bits.n_bits as usize;
            if n.div_ceil(8) + 4 > MAX_FRAME_PAYLOAD {
                out.truncate(start);
                return Err(wire_err(WireErrorKind::Oversized));
            }
            out.extend_from_slice(&bits.n_bits.to_le_bytes());
            let full = n / 8;
            out.extend_from_slice(&bits.bytes[..full]);
            let tail = n % 8;
            if tail != 0 {
                // Zero the padding so the wire bytes are canonical.
                out.push(bits.bytes[full] & (0xffu8 << (8 - tail)));
            }
        }
        Frame::Close { reason } => out.push(reason.to_wire()),
        Frame::Ping { nonce } | Frame::Pong { nonce } => {
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        Frame::GoAway { drain_ticks } => out.extend_from_slice(&drain_ticks.to_le_bytes()),
        Frame::Resume { token } => {
            out.extend_from_slice(&token.id.to_le_bytes());
            out.extend_from_slice(&token.auth.to_le_bytes());
        }
        Frame::ResumeAck { expected_seq } => out.extend_from_slice(&expected_seq.to_le_bytes()),
    }
    let len = out.len() - body;
    debug_assert!(len <= MAX_FRAME_PAYLOAD);
    out[body - 4..body].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Cursor over one frame payload; every short read is a typed error.
struct Rd<'a> {
    p: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(p: &'a [u8]) -> Self {
        Self { p, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SpinalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.p.len())
            .ok_or_else(|| wire_err(WireErrorKind::Truncated))?;
        let s = &self.p[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SpinalError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SpinalError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SpinalError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Payloads must be consumed exactly: trailing garbage is corruption.
    fn done(self) -> Result<(), SpinalError> {
        if self.pos == self.p.len() {
            Ok(())
        } else {
            Err(wire_err(WireErrorKind::Corrupt))
        }
    }
}

fn parse_payload(ty: u8, p: &[u8]) -> Result<Frame<'_>, SpinalError> {
    let mut r = Rd::new(p);
    let frame = match ty {
        FT_HELLO => {
            let message_bits = r.u32()?;
            let k = r.u32()?;
            let c = r.u32()?;
            let beam = r.u32()?;
            let max_symbols = r.u64()?;
            let seed = r.u64()?;
            let mode_tag = r.u8()?;
            let period = r.u64()?;
            let mode = match (mode_tag, period) {
                (0, 0) => FeedbackMode::AckOnly,
                (1, 0) => FeedbackMode::Nack,
                (2, p) if p > 0 => FeedbackMode::CumulativeAck { period: p },
                _ => return Err(wire_err(WireErrorKind::Corrupt)),
            };
            Frame::Hello(Hello {
                message_bits,
                k,
                c,
                beam,
                max_symbols,
                seed,
                mode,
            })
        }
        FT_HELLO_ACK => Frame::HelloAck {
            token: r.u64()?,
            resume: ResumeToken {
                id: r.u64()?,
                auth: r.u64()?,
            },
        },
        FT_BUSY => Frame::Busy {
            live: r.u32()?,
            max_sessions: r.u32()?,
        },
        FT_DATA => {
            let seq = r.u64()?;
            let count = r.u32()?;
            let bytes = r.bytes(
                (count as usize)
                    .checked_mul(SYMBOL_WIRE_LEN)
                    .ok_or_else(|| wire_err(WireErrorKind::Corrupt))?,
            )?;
            // Validate every entry now so SymbolRun::get is infallible:
            // non-finite I/Q cannot enter the decoder's cost model.
            for e in bytes.chunks_exact(SYMBOL_WIRE_LEN) {
                let iv = f64::from_bits(u64::from_le_bytes(e[8..16].try_into().unwrap()));
                let qv = f64::from_bits(u64::from_le_bytes(e[16..24].try_into().unwrap()));
                if !iv.is_finite() || !qv.is_finite() {
                    return Err(wire_err(WireErrorKind::Corrupt));
                }
            }
            Frame::Data {
                seq,
                run: SymbolRun::Wire { count, bytes },
            }
        }
        FT_ACK => Frame::Ack {
            symbols_used: r.u64()?,
            attempts: r.u32()?,
        },
        FT_NACK => Frame::Nack {
            expected_seq: r.u64()?,
        },
        FT_CUM_ACK => {
            let decoded = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(wire_err(WireErrorKind::Corrupt)),
            };
            Frame::CumAck {
                decoded,
                symbols_used: r.u64()?,
            }
        }
        FT_DECODED => {
            let n_bits = r.u32()?;
            let bytes = r.bytes((n_bits as usize).div_ceil(8))?;
            let tail = (n_bits as usize) % 8;
            if tail != 0 && bytes[bytes.len() - 1] & !(0xffu8 << (8 - tail)) != 0 {
                // Non-canonical padding: reject rather than silently mask.
                return Err(wire_err(WireErrorKind::Corrupt));
            }
            Frame::Decoded(DecodedBits { n_bits, bytes })
        }
        FT_CLOSE => Frame::Close {
            reason: CloseReason::from_wire(r.u8()?)?,
        },
        FT_PING => Frame::Ping { nonce: r.u64()? },
        FT_PONG => Frame::Pong { nonce: r.u64()? },
        FT_GO_AWAY => Frame::GoAway {
            drain_ticks: r.u64()?,
        },
        FT_RESUME => Frame::Resume {
            token: ResumeToken {
                id: r.u64()?,
                auth: r.u64()?,
            },
        },
        FT_RESUME_ACK => Frame::ResumeAck {
            expected_seq: r.u64()?,
        },
        _ => unreachable!("frame type gated by header check"),
    };
    r.done()?;
    Ok(frame)
}

/// Incremental frame reassembly over arbitrarily chunked byte arrivals.
///
/// Push transport reads in with [`push_bytes`](WireDecoder::push_bytes),
/// then drain complete frames with [`next_frame`](WireDecoder::next_frame)
/// until it returns `Ok(None)` (more bytes needed). The internal buffer
/// is reused across frames: once it has grown to a connection's
/// high-water mark the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct WireDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl WireDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly arrived bytes (any chunking, including mid-header).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            // Compact the consumed prefix before growing: a memmove,
            // never an allocation, and it bounds the buffer at the
            // high-water mark of one burst.
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a returned frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes" (a partial header or payload
    /// is not an error until the stream ends — see
    /// [`finish`](WireDecoder::finish)).
    ///
    /// # Errors
    ///
    /// A typed [`SpinalError::Wire`] for every malformed input; wire
    /// errors are fatal to the connection (no resynchronisation is
    /// attempted).
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, SpinalError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        if avail[..2] != WIRE_MAGIC {
            return Err(wire_err(WireErrorKind::BadMagic));
        }
        if avail[2] != WIRE_VERSION {
            return Err(wire_err(WireErrorKind::BadVersion));
        }
        let ty = avail[3];
        if !(FT_HELLO..=FT_RESUME_ACK).contains(&ty) {
            return Err(wire_err(WireErrorKind::UnknownFrame));
        }
        let len = u32::from_le_bytes(avail[4..8].try_into().unwrap()) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(wire_err(WireErrorKind::Oversized));
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let base = self.start;
        self.start += HEADER_LEN + len;
        let payload = &self.buf[base + HEADER_LEN..base + HEADER_LEN + len];
        parse_payload(ty, payload).map(Some)
    }

    /// Declares end-of-stream: any buffered partial frame becomes a
    /// typed [`WireErrorKind::Truncated`] error.
    pub fn finish(&self) -> Result<(), SpinalError> {
        if self.pending() == 0 {
            Ok(())
        } else {
            Err(wire_err(WireErrorKind::Truncated))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame<'_>) {
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes).unwrap();
        let mut dec = WireDecoder::new();
        dec.push_bytes(&bytes);
        let got = dec.next_frame().unwrap().expect("one full frame");
        assert_eq!(got, frame);
        assert!(dec.next_frame().unwrap().is_none());
        dec.finish().unwrap();
    }

    #[test]
    fn every_frame_type_roundtrips() {
        roundtrip(Frame::Hello(Hello {
            message_bits: 32,
            k: 8,
            c: 10,
            beam: 256,
            max_symbols: 4096,
            seed: 0x5eed,
            mode: FeedbackMode::CumulativeAck { period: 12 },
        }));
        roundtrip(Frame::HelloAck {
            token: u64::MAX,
            resume: ResumeToken {
                id: 0x1234_5678_9abc_def0,
                auth: 0x0fed_cba9_8765_4321,
            },
        });
        roundtrip(Frame::Busy {
            live: 7,
            max_sessions: 7,
        });
        let symbols = [
            (Slot::new(0, 0), IqSymbol::new(1.5, -2.25)),
            (Slot::new(3, 17), IqSymbol::new(-0.0, 1023.0)),
        ];
        roundtrip(Frame::Data {
            seq: 99,
            run: SymbolRun::Slots(&symbols),
        });
        roundtrip(Frame::Ack {
            symbols_used: 12,
            attempts: 3,
        });
        roundtrip(Frame::Nack { expected_seq: 42 });
        roundtrip(Frame::CumAck {
            decoded: true,
            symbols_used: 8,
        });
        let bits = BitVec::from_bytes(&[0xab, 0xcd]);
        roundtrip(Frame::Decoded(DecodedBits::from_bits(&bits)));
        roundtrip(Frame::Close {
            reason: CloseReason::Exhausted,
        });
        roundtrip(Frame::Close {
            reason: CloseReason::ResumeInvalid,
        });
        roundtrip(Frame::Close {
            reason: CloseReason::Shed,
        });
        roundtrip(Frame::Ping { nonce: 0xabcd });
        roundtrip(Frame::Pong { nonce: u64::MAX });
        roundtrip(Frame::GoAway { drain_ticks: 640 });
        roundtrip(Frame::Resume {
            token: ResumeToken {
                id: 7,
                auth: 0x5eed_c0de,
            },
        });
        roundtrip(Frame::ResumeAck { expected_seq: 321 });
    }

    #[test]
    fn decoded_bits_mask_padding() {
        let mut bits = BitVec::from_bytes(&[0xff, 0xff]);
        bits.truncate(11);
        let mut bytes = Vec::new();
        encode_frame(&Frame::Decoded(DecodedBits::from_bits(&bits)), &mut bytes).unwrap();
        let mut dec = WireDecoder::new();
        dec.push_bytes(&bytes);
        match dec.next_frame().unwrap().unwrap() {
            Frame::Decoded(d) => assert_eq!(d.to_bitvec(), bits),
            f => panic!("wrong frame {f:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_chunking() {
        let symbols: Vec<(Slot, IqSymbol)> = (0..5)
            .map(|i| {
                (
                    Slot::new(i, i * 2),
                    IqSymbol::new(f64::from(i), -f64::from(i)),
                )
            })
            .collect();
        let frames = [
            Frame::Nack { expected_seq: 7 },
            Frame::Data {
                seq: 0,
                run: SymbolRun::Slots(&symbols),
            },
            Frame::Close {
                reason: CloseReason::Done,
            },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            encode_frame(f, &mut bytes).unwrap();
        }
        let mut dec = WireDecoder::new();
        let mut seen = 0;
        for b in bytes {
            dec.push_bytes(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                assert_eq!(f, frames[seen]);
                seen += 1;
            }
        }
        assert_eq!(seen, frames.len());
        dec.finish().unwrap();
    }

    fn kind_of(bytes: &[u8]) -> WireErrorKind {
        let mut dec = WireDecoder::new();
        dec.push_bytes(bytes);
        loop {
            match dec.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) => match dec.finish() {
                    Ok(()) => panic!("input accepted"),
                    Err(SpinalError::Wire { kind }) => return kind,
                    Err(e) => panic!("unexpected error {e}"),
                },
                Err(SpinalError::Wire { kind }) => return kind,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }

    #[test]
    fn malformed_inputs_yield_typed_errors() {
        let mut good = Vec::new();
        encode_frame(&Frame::Nack { expected_seq: 1 }, &mut good).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0x40;
        assert_eq!(kind_of(&bad_magic), WireErrorKind::BadMagic);

        let mut bad_version = good.clone();
        bad_version[2] = 99;
        assert_eq!(kind_of(&bad_version), WireErrorKind::BadVersion);

        let mut unknown = good.clone();
        unknown[3] = 200;
        assert_eq!(kind_of(&unknown), WireErrorKind::UnknownFrame);

        let mut oversized = good.clone();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(kind_of(&oversized), WireErrorKind::Oversized);

        // Header promises fewer payload bytes than the frame type needs.
        let mut short = good.clone();
        short[4..8].copy_from_slice(&4u32.to_le_bytes());
        short.truncate(HEADER_LEN + 4);
        assert_eq!(kind_of(&short), WireErrorKind::Truncated);

        // Stream ends mid-frame.
        assert_eq!(kind_of(&good[..good.len() - 2]), WireErrorKind::Truncated);

        // Trailing garbage inside the declared payload.
        let mut long = good.clone();
        long[4..8].copy_from_slice(&12u32.to_le_bytes());
        long.extend_from_slice(&[0; 4]);
        assert_eq!(kind_of(&long), WireErrorKind::Corrupt);

        // Non-finite I/Q in a data run.
        let sym = [(Slot::new(0, 0), IqSymbol::new(f64::NAN, 0.0))];
        let mut nan = Vec::new();
        encode_frame(
            &Frame::Data {
                seq: 0,
                run: SymbolRun::Slots(&sym),
            },
            &mut nan,
        )
        .unwrap();
        assert_eq!(kind_of(&nan), WireErrorKind::Corrupt);

        // Unknown close reason.
        let mut close = Vec::new();
        encode_frame(
            &Frame::Close {
                reason: CloseReason::Done,
            },
            &mut close,
        )
        .unwrap();
        let last = close.len() - 1;
        close[last] = 9;
        assert_eq!(kind_of(&close), WireErrorKind::Corrupt);

        // Cumulative-ACK period of zero is contradictory.
        let mut hello = Vec::new();
        encode_frame(
            &Frame::Hello(Hello {
                message_bits: 8,
                k: 4,
                c: 8,
                beam: 4,
                max_symbols: 10,
                seed: 0,
                mode: FeedbackMode::CumulativeAck { period: 5 },
            }),
            &mut hello,
        )
        .unwrap();
        let period_at = hello.len() - 8;
        hello[period_at..].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(kind_of(&hello), WireErrorKind::Corrupt);
    }

    #[test]
    fn oversized_encode_is_rejected_and_rolls_back() {
        let symbols = vec![(Slot::new(0, 0), IqSymbol::new(0.0, 0.0)); 50_000];
        let mut out = vec![0xaa; 3];
        let err = encode_frame(
            &Frame::Data {
                seq: 0,
                run: SymbolRun::Slots(&symbols),
            },
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SpinalError::Wire {
                kind: WireErrorKind::Oversized
            }
        ));
        assert_eq!(out, vec![0xaa; 3]);
    }

    #[test]
    fn steady_state_reassembly_reuses_the_buffer() {
        let mut frame = Vec::new();
        encode_frame(
            &Frame::Ack {
                symbols_used: 5,
                attempts: 1,
            },
            &mut frame,
        )
        .unwrap();
        let mut dec = WireDecoder::new();
        for _ in 0..100 {
            dec.push_bytes(&frame);
            assert!(dec.next_frame().unwrap().is_some());
        }
        // All consumed; compaction keeps the buffer at one frame's size.
        assert_eq!(dec.pending(), 0);
        assert!(dec.buf.capacity() <= 4 * frame.len());
    }
}
