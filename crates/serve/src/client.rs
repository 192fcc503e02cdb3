//! A client-side driver for the serve dialogue.
//!
//! [`ServeClient`] owns one connection end-to-end: it CRC-frames a
//! payload, negotiates the session with HELLO, streams symbol bursts as
//! DATA frames and reacts to feedback — seeking its
//! [`TxSession`] on NACK, finishing on ACK / cumulative snapshot /
//! Close. A client that learns of its decode answers with
//! `Close { Done }`, so the server drops the flow's record at once
//! instead of holding the verdict for a resume that will never come.
//! Impairments compose in front of the wire: an optional
//! [`FaultPlan`] rewrites each pushed symbol into zero or more
//! deliveries (drop, duplicate, reorder, corrupt, stale slot) and an
//! optional noise hook perturbs I/Q values (e.g. an AWGN channel), both
//! deterministic under their seeds.

use std::collections::VecDeque;

use spinal_core::bits::BitVec;
use spinal_core::error::SpinalError;
use spinal_core::frame::{frame_encode, Checksum};
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::StridedPuncture;
use spinal_core::session::{TxPosition, TxSession};
use spinal_core::symbol::{IqSymbol, Slot};
use spinal_core::SpinalCode;
use spinal_link::{Delivery, FaultPlan, FaultStream, FeedbackMode};

use crate::transport::Transport;
use crate::wire::{
    encode_frame, CloseReason, Frame, Hello, ResumeToken, WireDecoder, HEADER_LEN, SYMBOL_WIRE_LEN,
};

/// Pluggable I/Q impairment applied to every delivered symbol.
pub type NoiseHook = Box<dyn FnMut(IqSymbol) -> IqSymbol + Send>;

/// Client-side session shape (the HELLO fields the client negotiates,
/// plus local pacing). The client transmits on the paper's stride-8
/// bit-reversed schedule; every DATA symbol carries its slot, so the
/// server needs no schedule of its own.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Segment width `k`.
    pub k: u32,
    /// Mapper bit depth `c`.
    pub c: u32,
    /// Requested decoder beam width.
    pub beam: u32,
    /// Receiver symbol budget.
    pub max_symbols: u64,
    /// Code seed.
    pub seed: u64,
    /// Feedback mode to negotiate.
    pub mode: FeedbackMode,
    /// Symbols pushed per tick while streaming.
    pub burst: usize,
    /// Replay marks retained for NACK seeks (one per burst).
    pub marks: usize,
    /// Ticks without inbound bytes after which the client probes the
    /// server with PING (one outstanding probe until activity resumes).
    /// `u64::MAX` disables probing.
    pub keepalive_idle: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            k: 4,
            c: 8,
            beam: 16,
            max_symbols: 1 << 14,
            seed: 1,
            mode: FeedbackMode::AckOnly,
            burst: 4,
            marks: 64,
            keepalive_idle: u64::MAX,
        }
    }
}

/// How a client session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The server decoded the message.
    Decoded {
        /// Symbols the decoder consumed.
        symbols_used: u64,
        /// Decode attempts it ran.
        attempts: u32,
    },
    /// Admission was rejected (the shard is at its session ceiling).
    Busy,
    /// The receiver exhausted its symbol budget.
    Exhausted,
    /// The server abandoned the session.
    Abandoned,
    /// The server closed the dialogue on a protocol violation.
    ProtocolClosed,
    /// The transport died before a verdict.
    TransportClosed,
    /// The server shed the session under load or at a drain deadline
    /// (the resume token may still be honoured after a reconnect).
    Shed,
    /// The resume failed: the server refused the token (unknown,
    /// corrupted or expired), or the client's bounded replay window no
    /// longer covered the server's `ResumeAck` cursor, so the stream
    /// could never be made whole. Start over with a fresh HELLO.
    ResumeRejected,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientState {
    Greeting,
    /// Reconnected; RESUME sent, awaiting RESUME-ACK.
    Resuming,
    Streaming,
    Done,
}

/// One client connection driving the serve dialogue to completion.
pub struct ServeClient<T: Transport> {
    transport: T,
    wire: WireDecoder,
    egress: Vec<u8>,
    tx: TxSession<Lookup3, LinearMapper, StridedPuncture>,
    next_seq: u64,
    marks: VecDeque<(u64, TxPosition)>,
    marks_cap: usize,
    burst: usize,
    fault: Option<FaultStream>,
    push_scratch: Vec<Delivery>,
    deliveries: Vec<Delivery>,
    run_scratch: Vec<(Slot, IqSymbol)>,
    noise: Option<NoiseHook>,
    state: ClientState,
    outcome: Option<ClientOutcome>,
    decoded: Option<BitVec>,
    symbols_sent: u64,
    /// One past the highest sequence number sent: the symbols sent for
    /// the first time.
    fresh_symbols: u64,
    rxbuf: Vec<u8>,
    /// The HELLO as negotiated — replayed on a reconnect that has no
    /// resume token yet.
    hello: Hello,
    tick_count: u64,
    last_rx_tick: u64,
    pinged: bool,
    keepalive_idle: u64,
    resume_token: Option<ResumeToken>,
    goaway: Option<u64>,
}

impl<T: Transport> ServeClient<T> {
    /// Opens a session: CRC-16-frames `payload`, builds the matching
    /// [`TxSession`] and queues the HELLO. `tick` from there on.
    ///
    /// # Errors
    ///
    /// Propagates invalid shape (`k` out of range, payload not a whole
    /// number of segments after framing, `c` outside `2..=16`).
    pub fn new(transport: T, cfg: &ClientConfig, payload: &BitVec) -> Result<Self, SpinalError> {
        let framed = frame_encode(payload, Checksum::Crc16);
        let params = CodeParams::builder()
            .message_bits(framed.len() as u32)
            .k(cfg.k)
            .seed(cfg.seed)
            .build()?;
        let code = SpinalCode::new(
            params,
            Lookup3::new(cfg.seed),
            LinearMapper::try_new(cfg.c)?,
            StridedPuncture::stride8(),
        );
        let tx = code.tx_session(&framed)?;
        let hello = Hello {
            message_bits: framed.len() as u32,
            k: cfg.k,
            c: cfg.c,
            beam: cfg.beam,
            max_symbols: cfg.max_symbols,
            seed: cfg.seed,
            mode: cfg.mode,
        };
        // Sized up front for one full DATA burst (header, sequence
        // number, entry count, entries): the queue's steady-state need.
        let mut egress = Vec::with_capacity(HEADER_LEN + 12 + SYMBOL_WIRE_LEN * cfg.burst.max(1));
        encode_frame(&Frame::Hello(hello), &mut egress)?;
        Ok(Self {
            transport,
            wire: WireDecoder::new(),
            egress,
            tx,
            next_seq: 0,
            marks: VecDeque::new(),
            marks_cap: cfg.marks.max(1),
            burst: cfg.burst.max(1),
            fault: None,
            push_scratch: Vec::new(),
            deliveries: Vec::new(),
            run_scratch: Vec::new(),
            noise: None,
            state: ClientState::Greeting,
            outcome: None,
            decoded: None,
            symbols_sent: 0,
            fresh_symbols: 0,
            rxbuf: Vec::new(),
            hello,
            tick_count: 0,
            last_rx_tick: 0,
            pinged: false,
            keepalive_idle: cfg.keepalive_idle,
            resume_token: None,
            goaway: None,
        })
    }

    /// Installs a deterministic link-fault plan in front of the wire.
    pub fn with_fault(mut self, plan: &FaultPlan) -> Self {
        self.fault = Some(plan.stream());
        self
    }

    /// Installs an I/Q impairment (e.g. AWGN) applied per delivery.
    pub fn with_noise(mut self, noise: NoiseHook) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Whether the dialogue has reached a verdict.
    pub fn is_done(&self) -> bool {
        self.state == ClientState::Done
    }

    /// Whether the session is admitted and streaming symbols.
    pub fn is_streaming(&self) -> bool {
        self.state == ClientState::Streaming
    }

    /// The session's verdict, once done.
    pub fn outcome(&self) -> Option<ClientOutcome> {
        self.outcome
    }

    /// The decoded payload (CRC framing already verified and stripped
    /// by the server), when the server sent it.
    pub fn decoded_payload(&self) -> Option<&BitVec> {
        self.decoded.as_ref()
    }

    /// Symbols pushed toward the wire so far (pre-fault count).
    pub fn symbols_sent(&self) -> u64 {
        self.symbols_sent
    }

    /// Of [`symbols_sent`](Self::symbols_sent), the symbols sent again
    /// after a seek (NACK replay, resume or restart).
    pub fn symbols_replayed(&self) -> u64 {
        self.symbols_sent - self.fresh_symbols
    }

    /// The resume token from the session's HELLO-ACK, once received.
    pub fn resume_token(&self) -> Option<ResumeToken> {
        self.resume_token
    }

    /// The drain budget from a server GO-AWAY, once received.
    pub fn go_away(&self) -> Option<u64> {
        self.goaway
    }

    /// Swaps in a fresh transport after a connection loss and restarts
    /// the dialogue: with a resume token a RESUME is queued (seeking
    /// the transmitter on RESUME-ACK), otherwise the original HELLO is
    /// replayed. Returns the old transport — dropping it is what closes
    /// the stale connection toward the server.
    pub fn reconnect(&mut self, transport: T) -> T {
        let old = std::mem::replace(&mut self.transport, transport);
        self.wire = WireDecoder::new();
        self.egress.clear();
        self.rxbuf.clear();
        self.outcome = None;
        self.goaway = None;
        self.pinged = false;
        self.last_rx_tick = self.tick_count;
        match self.resume_token {
            Some(token) => {
                self.state = ClientState::Resuming;
                let _ = encode_frame(&Frame::Resume { token }, &mut self.egress);
            }
            None => {
                self.state = ClientState::Greeting;
                let _ = encode_frame(&Frame::Hello(self.hello), &mut self.egress);
            }
        }
        old
    }

    /// Swaps in a fresh transport and restarts the dialogue *from
    /// scratch*: the resume token is renounced, the transmitter rewinds
    /// to the start of the stream and the original HELLO is replayed —
    /// the recovery path after [`ClientOutcome::ResumeRejected`], where
    /// the server no longer holds (or no longer honours) the session
    /// the token named, so retrying RESUME could never succeed. Returns
    /// the old transport, like [`reconnect`](Self::reconnect).
    pub fn restart(&mut self, transport: T) -> T {
        self.resume_token = None;
        self.tx.rewind();
        self.next_seq = 0;
        self.marks.clear();
        self.decoded = None;
        self.reconnect(transport)
    }

    /// Runs one client cycle: [`poll`](Self::poll), then
    /// [`send_burst`](Self::send_burst).
    pub fn tick(&mut self) {
        self.poll();
        self.send_burst();
    }

    /// Runs the receiving half of a cycle: flush egress, absorb
    /// feedback, and queue a PING to an idle server past the keepalive
    /// threshold. Clients that share one channel all poll every tick,
    /// and only the one whose turn it is sends.
    pub fn poll(&mut self) {
        self.tick_count += 1;
        if self.state == ClientState::Done {
            // Keep flushing a final Close if queued.
            let _ = self.flush();
            return;
        }
        if self.flush().is_err() {
            self.finish(ClientOutcome::TransportClosed);
            return;
        }
        if self.pump_feedback().is_err() {
            self.finish(ClientOutcome::TransportClosed);
            return;
        }
        if self.state == ClientState::Done {
            let _ = self.flush();
            return;
        }
        let idle = self.tick_count.saturating_sub(self.last_rx_tick);
        if idle >= self.keepalive_idle && !self.pinged {
            let _ = encode_frame(
                &Frame::Ping {
                    nonce: self.tick_count,
                },
                &mut self.egress,
            );
            self.pinged = true;
        }
    }

    /// Runs the sending half of a cycle: once streaming, push one burst
    /// of symbols as DATA frames; then flush egress.
    pub fn send_burst(&mut self) {
        if self.state == ClientState::Done {
            return;
        }
        if self.state == ClientState::Streaming {
            self.push_burst();
        }
        if self.flush().is_err() {
            self.finish(ClientOutcome::TransportClosed);
        }
    }

    fn finish(&mut self, outcome: ClientOutcome) {
        if self.outcome.is_none() {
            self.outcome = Some(outcome);
        }
        self.state = ClientState::Done;
    }

    /// Finishes on the server's decode report and queues
    /// `Close { Done }`: the verdict has arrived, so the server need not
    /// hold it for replay.
    fn finish_decoded(&mut self, symbols_used: u64, attempts: u32) {
        self.finish(ClientOutcome::Decoded {
            symbols_used,
            attempts,
        });
        let _ = encode_frame(
            &Frame::Close {
                reason: CloseReason::Done,
            },
            &mut self.egress,
        );
    }

    fn flush(&mut self) -> Result<(), SpinalError> {
        while !self.egress.is_empty() {
            let n = self.transport.send(&self.egress)?;
            if n == 0 {
                break;
            }
            self.egress.drain(..n);
        }
        Ok(())
    }

    fn pump_feedback(&mut self) -> Result<(), SpinalError> {
        self.rxbuf.clear();
        match self.transport.recv(&mut self.rxbuf) {
            Ok(0) => {}
            Ok(_) => {
                self.last_rx_tick = self.tick_count;
                self.pinged = false;
                self.wire.push_bytes(&self.rxbuf);
            }
            Err(e) => return Err(e),
        }
        loop {
            // A decoded frame borrows the reassembly buffer; convert it
            // to the small owned action below before mutating state.
            enum Fb {
                None,
                Streamed(ResumeToken),
                Resumed(u64),
                Ping(u64),
                GoAway(u64),
                Busy,
                Ack(u64, u32),
                Nack(u64),
                CumDecoded(u64),
                Decoded(BitVec),
                Closed(CloseReason),
                Violation,
            }
            let fb = match self.wire.next_frame() {
                Ok(None) => break,
                Ok(Some(Frame::HelloAck { resume, .. })) => Fb::Streamed(resume),
                Ok(Some(Frame::ResumeAck { expected_seq })) => Fb::Resumed(expected_seq),
                Ok(Some(Frame::Ping { nonce })) => Fb::Ping(nonce),
                Ok(Some(Frame::Pong { .. })) => Fb::None,
                Ok(Some(Frame::GoAway { drain_ticks })) => Fb::GoAway(drain_ticks),
                Ok(Some(Frame::Busy { .. })) => Fb::Busy,
                Ok(Some(Frame::Ack {
                    symbols_used,
                    attempts,
                })) => Fb::Ack(symbols_used, attempts),
                Ok(Some(Frame::Nack { expected_seq })) => Fb::Nack(expected_seq),
                Ok(Some(Frame::CumAck {
                    decoded: true,
                    symbols_used,
                })) => Fb::CumDecoded(symbols_used),
                Ok(Some(Frame::CumAck { decoded: false, .. })) => Fb::None,
                Ok(Some(Frame::Decoded(bits))) => Fb::Decoded(bits.to_bitvec()),
                Ok(Some(Frame::Close { reason })) => Fb::Closed(reason),
                Ok(Some(_)) => Fb::Violation,
                Err(_) => Fb::Violation,
            };
            match fb {
                Fb::None => {}
                Fb::Streamed(token) => {
                    self.resume_token = Some(token);
                    if self.state == ClientState::Greeting {
                        self.state = ClientState::Streaming;
                    }
                }
                Fb::Resumed(expected_seq) => {
                    if !self.seek_to(expected_seq) {
                        // The replay window no longer covers the
                        // server's cursor: streaming on would leave a
                        // permanent sequence gap the NACK path (same
                        // bounded window) could never heal. Fail the
                        // resume explicitly; the caller may start over
                        // with a fresh HELLO.
                        self.finish(ClientOutcome::ResumeRejected);
                        continue;
                    }
                    if self.state == ClientState::Resuming {
                        self.state = ClientState::Streaming;
                    }
                }
                Fb::Ping(nonce) => {
                    let _ = encode_frame(&Frame::Pong { nonce }, &mut self.egress);
                }
                Fb::GoAway(drain_ticks) => self.goaway = Some(drain_ticks),
                Fb::Busy => self.finish(ClientOutcome::Busy),
                Fb::Ack(symbols_used, attempts) => self.finish_decoded(symbols_used, attempts),
                Fb::CumDecoded(symbols_used) => self.finish_decoded(symbols_used, 0),
                Fb::Decoded(bits) => self.decoded = Some(bits),
                Fb::Nack(expected) => {
                    // An uncoverable NACK (window slid past the gap)
                    // degrades to symbol-budget exhaustion; the server
                    // NACKs again only after further out-of-order data.
                    let _ = self.seek_to(expected);
                }
                Fb::Closed(reason) => self.finish(match reason {
                    CloseReason::Done => ClientOutcome::Decoded {
                        symbols_used: 0,
                        attempts: 0,
                    },
                    CloseReason::Exhausted => ClientOutcome::Exhausted,
                    CloseReason::Abandoned => ClientOutcome::Abandoned,
                    CloseReason::Protocol => ClientOutcome::ProtocolClosed,
                    CloseReason::ResumeInvalid => ClientOutcome::ResumeRejected,
                    CloseReason::Shed => ClientOutcome::Shed,
                }),
                Fb::Violation => self.finish(ClientOutcome::ProtocolClosed),
            }
            if self.state == ClientState::Done {
                break;
            }
        }
        Ok(())
    }

    /// Rewinds the transmitter to the latest replay mark at or before
    /// `expected` and resumes the stream from there (resent symbols
    /// keep their original sequence numbers and slots).
    ///
    /// Returns whether the stream now covers `expected`: `false` means
    /// every retained mark is newer than `expected` (the bounded mark
    /// window slid past the server's cursor), so the gap can never be
    /// replayed and the caller must not keep streaming as if it could.
    fn seek_to(&mut self, expected: u64) -> bool {
        if expected >= self.next_seq {
            // The server's cursor is at (or past) everything sent:
            // nothing needs replaying, and rewinding to the previous
            // mark would resend a burst the server already ingested —
            // inflating its symbol count and breaking the resumed
            // flow's bit-identity with an uninterrupted one.
            return true;
        }
        while self.marks.back().is_some_and(|&(seq, _)| seq > expected) {
            self.marks.pop_back();
        }
        if let Some(&(seq, pos)) = self.marks.back() {
            self.tx.seek(pos);
            self.next_seq = seq;
            return true;
        }
        // No mark at or before `expected`: fine only when the stream
        // has not reached it yet (nothing sent needs replaying).
        self.next_seq <= expected
    }

    fn push_burst(&mut self) {
        if self.marks.len() == self.marks_cap {
            self.marks.pop_front();
        }
        self.marks.push_back((self.next_seq, self.tx.position()));

        self.deliveries.clear();
        for _ in 0..self.burst {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.symbols_sent += 1;
            let (slot, sym) = self.tx.next_symbol();
            match &mut self.fault {
                None => self.deliveries.push(Delivery {
                    seq,
                    slot,
                    symbol: sym,
                }),
                Some(stream) => {
                    stream.push(seq, slot, sym, &mut self.push_scratch);
                    self.deliveries.append(&mut self.push_scratch);
                }
            }
        }
        if let Some(noise) = &mut self.noise {
            for d in &mut self.deliveries {
                d.symbol = noise(d.symbol);
            }
        }

        // Frame contiguous sequence runs together so the server's gap
        // detector sees exactly the impairments the fault plan created.
        let mut i = 0;
        while i < self.deliveries.len() {
            let start_seq = self.deliveries[i].seq;
            self.run_scratch.clear();
            let mut j = i;
            while j < self.deliveries.len() && self.deliveries[j].seq == start_seq + (j - i) as u64
            {
                let d = self.deliveries[j];
                self.run_scratch.push((d.slot, d.symbol));
                j += 1;
            }
            let _ = encode_frame(
                &Frame::Data {
                    seq: start_seq,
                    run: crate::wire::SymbolRun::Slots(&self.run_scratch),
                },
                &mut self.egress,
            );
            i = j;
        }
        self.fresh_symbols = self.fresh_symbols.max(self.next_seq);
    }
}
