//! Byte transports under the serve wire format.
//!
//! Two implementations of one non-blocking [`Transport`] contract:
//!
//! * [`loopback_pair`] — a deterministic in-process pipe pair. With a
//!   chunking seed ([`loopback_pair_chunked`]) reads return
//!   pseudo-random partial chunks, derived counter-by-counter from
//!   [`spinal_sim::stats::derive_seed`], so reassembly paths are
//!   exercised bit-reproducibly. Bounded capacity makes backpressure
//!   real: `send` accepts only what fits and reports how much.
//! * [`TcpTransport`] / [`TcpAcceptor`] — non-blocking `std::net`
//!   sockets (no external async runtime), mapping `WouldBlock` to a
//!   zero-byte result and every I/O failure to the typed
//!   [`WireErrorKind::Transport`] error.
//!
//! The loopback is the crate's cost model: once buffers reach their
//! high-water marks, `send`/`recv` allocate nothing.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use spinal_core::error::{SpinalError, WireErrorKind};
use spinal_sim::stats::derive_seed;

use crate::wire::split_frame;

fn transport_err() -> SpinalError {
    SpinalError::Wire {
        kind: WireErrorKind::Transport,
    }
}

/// A non-blocking, byte-oriented duplex channel.
///
/// Both methods never block: `send` returns how many bytes the
/// transport accepted (possibly `0` — backpressure), `recv` appends
/// whatever is currently available to `out` and returns the count
/// (possibly `0` — nothing pending). Errors mean the connection is
/// dead and carry [`WireErrorKind::Transport`].
pub trait Transport {
    /// Offers `bytes`; returns how many were accepted (`0..=len`).
    fn send(&mut self, bytes: &[u8]) -> Result<usize, SpinalError>;

    /// Appends available bytes to `out`; returns how many arrived.
    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize, SpinalError>;
}

#[derive(Debug)]
struct Pipe {
    buf: VecDeque<u8>,
    capacity: usize,
    closed: bool,
}

impl Pipe {
    fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::new(),
            capacity,
            closed: false,
        }
    }
}

#[derive(Debug)]
struct LoopbackShared {
    /// Bytes flowing from the `forward` half to the other.
    ab: Mutex<Pipe>,
    /// Bytes flowing back.
    ba: Mutex<Pipe>,
}

/// One half of an in-process loopback pair (see [`loopback_pair`]).
#[derive(Debug)]
pub struct LoopbackTransport {
    shared: Arc<LoopbackShared>,
    forward: bool,
    chunk_seed: Option<u64>,
    recv_count: u64,
}

/// Creates a bounded in-process duplex pipe: bytes sent on one half
/// arrive on the other, FIFO, up to `capacity` bytes in flight per
/// direction. `send` beyond capacity accepts a prefix (backpressure);
/// `recv` drains everything available. `capacity` bounds the bytes in
/// flight, not the memory reserved up front: each direction's buffer
/// grows to its high-water mark on demand.
pub fn loopback_pair(capacity: usize) -> (LoopbackTransport, LoopbackTransport) {
    loopback(capacity, None)
}

/// Like [`loopback_pair`] but `recv` returns pseudo-random partial
/// chunks — sizes derived deterministically from `seed` and a per-half
/// receive counter — so frame reassembly across arbitrary read
/// boundaries is exercised bit-reproducibly.
pub fn loopback_pair_chunked(capacity: usize, seed: u64) -> (LoopbackTransport, LoopbackTransport) {
    loopback(capacity, Some(seed))
}

fn loopback(capacity: usize, seed: Option<u64>) -> (LoopbackTransport, LoopbackTransport) {
    let shared = Arc::new(LoopbackShared {
        ab: Mutex::new(Pipe::new(capacity)),
        ba: Mutex::new(Pipe::new(capacity)),
    });
    let a = LoopbackTransport {
        shared: Arc::clone(&shared),
        forward: true,
        chunk_seed: seed,
        recv_count: 0,
    };
    let b = LoopbackTransport {
        shared,
        forward: false,
        chunk_seed: seed.map(|s| s ^ 0x9e37_79b9_7f4a_7c15),
        recv_count: 0,
    };
    (a, b)
}

impl LoopbackTransport {
    fn tx_pipe(&self) -> &Mutex<Pipe> {
        if self.forward {
            &self.shared.ab
        } else {
            &self.shared.ba
        }
    }

    /// Bytes currently queued toward the peer (tests and benches peek
    /// at this to observe backpressure).
    pub fn queued_toward_peer(&self) -> usize {
        self.tx_pipe().lock().expect("loopback lock").buf.len()
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, SpinalError> {
        let mut pipe = self.tx_pipe().lock().expect("loopback lock");
        if pipe.closed {
            return Err(transport_err());
        }
        let room = pipe.capacity - pipe.buf.len();
        let n = room.min(bytes.len());
        pipe.buf.extend(bytes[..n].iter().copied());
        Ok(n)
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize, SpinalError> {
        let mut pipe = if self.forward {
            &self.shared.ba
        } else {
            &self.shared.ab
        }
        .lock()
        .expect("loopback lock");
        let avail = pipe.buf.len();
        if avail == 0 {
            return if pipe.closed {
                Err(transport_err())
            } else {
                Ok(0)
            };
        }
        let take = match self.chunk_seed {
            None => avail,
            Some(seed) => {
                self.recv_count += 1;
                1 + (derive_seed(seed, 0x10_0b, self.recv_count) % avail as u64) as usize
            }
        };
        let (head, tail) = pipe.buf.as_slices();
        if take <= head.len() {
            out.extend_from_slice(&head[..take]);
        } else {
            out.extend_from_slice(head);
            out.extend_from_slice(&tail[..take - head.len()]);
        }
        pipe.buf.drain(..take);
        Ok(take)
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        // EOF toward the peer: it may drain what is queued, then its
        // recv reports the connection closed.
        self.tx_pipe().lock().expect("loopback lock").closed = true;
    }
}

/// A connection-level chaos event, triggered at a deterministic
/// transport-operation or byte offset (never wall-clock time).
///
/// Operation counters count every `send`/`recv` call made through the
/// wrapping [`ChaosTransport`], so a fixed call schedule replays the
/// exact same failure, bit for bit. The two feedback events act on
/// whole frames the wrapped end sends, so they belong at a server's
/// end of a connection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosEvent {
    /// Both directions return `Ok(0)` (no progress, no error) for
    /// `ops` consecutive operations starting at `from_op`.
    Stall {
        /// First stalled operation index.
        from_op: u64,
        /// Number of consecutive stalled operations.
        ops: u64,
    },
    /// From operation `at_op` onward, `recv` reports the connection
    /// closed while `send` keeps working (peer shut down its write
    /// half).
    HalfCloseRx {
        /// First failing receive-side operation index.
        at_op: u64,
    },
    /// From operation `at_op` onward, `send` reports the connection
    /// closed while `recv` keeps working (our write half is gone).
    HalfCloseTx {
        /// First failing send-side operation index.
        at_op: u64,
    },
    /// From operation `at_op` onward, both directions report the
    /// connection closed — a mid-stream disconnect.
    Disconnect {
        /// First failing operation index.
        at_op: u64,
    },
    /// Flips one bit of the `at_byte`-th cumulative received byte (bit
    /// index derived from the plan seed), corrupting the stream at the
    /// transport boundary without breaking the connection.
    CorruptByte {
        /// Cumulative received-byte offset to corrupt.
        at_byte: u64,
    },
    /// Erases each feedback frame (`Ack`, `Nack`, `CumAck`) this end
    /// sends with probability `p`, drawn per frame from the plan seed
    /// and the frame's index. Every other frame — the handshake, the
    /// `Decoded` result, `Close` — passes.
    FeedbackLoss {
        /// Per-frame erasure probability.
        p: f64,
    },
    /// Holds each feedback frame this end sends for `ticks` `recv`
    /// calls before it leaves. A server polls each connection once per
    /// tick, so at its end this is `ticks` server ticks. Every other
    /// frame leaves at once.
    FeedbackDelay {
        /// Receive calls a feedback frame is held for.
        ticks: u64,
    },
}

/// Stream label of [`ChaosEvent::FeedbackLoss`] draws (event `j` of a
/// plan draws from `FEEDBACK_LOSS + j`).
const FEEDBACK_LOSS: u64 = 0xFB_0000;

/// A seeded, ordered composition of connection-level chaos events —
/// the full description of a misbehaving connection, reproducible from
/// `(events, seed)` alone. The connection-layer sibling of the link
/// layer's `FaultPlan`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
    seed: u64,
}

impl ChaosPlan {
    /// An empty (pass-through) plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        Self {
            events: Vec::new(),
            seed,
        }
    }

    /// Appends an event to the composition.
    #[must_use]
    pub fn with(mut self, event: ChaosEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The decision seed (selects which bit a [`ChaosEvent::CorruptByte`]
    /// flips).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Checks the events' parameters.
    ///
    /// # Errors
    ///
    /// [`SpinalError::Probability`] for a feedback-loss probability
    /// outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), SpinalError> {
        match self.events.iter().find_map(|e| match *e {
            ChaosEvent::FeedbackLoss { p } if !(0.0..=1.0).contains(&p) => Some(p),
            _ => None,
        }) {
            Some(value) => Err(SpinalError::Probability {
                name: "feedback loss",
                value,
            }),
            None => Ok(()),
        }
    }

    /// The same composition under a different decision seed — the
    /// per-flow derivation hook (counter-based, like the simulation
    /// engine's trial seeds).
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        Self {
            events: self.events.clone(),
            seed,
        }
    }

    /// Wraps a transport so this plan is applied to its operations.
    pub fn wrap<T: Transport>(&self, inner: T) -> ChaosTransport<T> {
        let frames = self.events.iter().any(|e| {
            matches!(
                e,
                ChaosEvent::FeedbackLoss { .. } | ChaosEvent::FeedbackDelay { .. }
            )
        });
        ChaosTransport {
            inner,
            events: self.events.clone(),
            seed: self.seed,
            op: 0,
            rx_bytes: 0,
            stalled_ops: 0,
            corrupted_bytes: 0,
            frames,
            recvs: 0,
            feedback_frames: 0,
            erased_frames: 0,
            staged: Vec::new(),
            outbound: Vec::new(),
            held: VecDeque::new(),
        }
    }
}

/// A [`Transport`] wrapper that injects a [`ChaosPlan`]'s events at
/// deterministic operation/byte offsets. Transparent (and free) when
/// the plan is empty.
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    events: Vec<ChaosEvent>,
    seed: u64,
    op: u64,
    rx_bytes: u64,
    stalled_ops: u64,
    corrupted_bytes: u64,
    /// The plan has feedback events, so sends are split into frames.
    frames: bool,
    /// `recv` calls so far: the clock of [`ChaosEvent::FeedbackDelay`].
    recvs: u64,
    /// Feedback frames seen (the loss draws' counter).
    feedback_frames: u64,
    erased_frames: u64,
    /// Sent bytes that do not form a whole frame yet.
    staged: Vec<u8>,
    /// Whole frames the inner transport has not accepted yet.
    outbound: Vec<u8>,
    /// Delayed feedback frames, each with the `recvs` count that
    /// releases it (held for a fixed delay, so in release order).
    held: VecDeque<(u64, Vec<u8>)>,
}

impl<T> ChaosTransport<T> {
    /// Operations (`send` + `recv` calls) observed so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Operations answered with `Ok(0)` by a [`ChaosEvent::Stall`].
    pub fn stalled_ops(&self) -> u64 {
        self.stalled_ops
    }

    /// Received bytes garbled by [`ChaosEvent::CorruptByte`].
    pub fn corrupted_bytes(&self) -> u64 {
        self.corrupted_bytes
    }

    /// Feedback frames erased by [`ChaosEvent::FeedbackLoss`].
    pub fn erased_frames(&self) -> u64 {
        self.erased_frames
    }

    /// Unwraps the inner transport, discarding the chaos state.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn stalled(&self, op: u64) -> bool {
        self.events.iter().any(|e| match *e {
            ChaosEvent::Stall { from_op, ops } => op >= from_op && op - from_op < ops,
            _ => false,
        })
    }

    fn tx_closed(&self, op: u64) -> bool {
        self.events.iter().any(|e| match *e {
            ChaosEvent::HalfCloseTx { at_op } | ChaosEvent::Disconnect { at_op } => op >= at_op,
            _ => false,
        })
    }

    fn rx_closed(&self, op: u64) -> bool {
        self.events.iter().any(|e| match *e {
            ChaosEvent::HalfCloseRx { at_op } | ChaosEvent::Disconnect { at_op } => op >= at_op,
            _ => false,
        })
    }

    /// The next feedback frame's fate under the feedback events: erased
    /// (`None`) or held for the returned number of ticks.
    fn feedback_fate(&mut self) -> Option<u64> {
        let n = self.feedback_frames;
        self.feedback_frames += 1;
        let mut hold = 0;
        for (j, event) in self.events.iter().enumerate() {
            match *event {
                ChaosEvent::FeedbackLoss { p } => {
                    let r = derive_seed(self.seed, FEEDBACK_LOSS + j as u64, n);
                    // 53 uniform bits onto [0, 1), like the fault layer.
                    let u = (r >> 11) as f64 / (1u64 << 53) as f64;
                    if u < p {
                        return None;
                    }
                }
                ChaosEvent::FeedbackDelay { ticks } => hold += ticks,
                _ => {}
            }
        }
        Some(hold)
    }
}

impl<T: Transport> ChaosTransport<T> {
    /// Offers the pending outbound frames to the inner transport.
    fn forward(&mut self) -> Result<(), SpinalError> {
        while !self.outbound.is_empty() {
            let n = self.inner.send(&self.outbound)?;
            if n == 0 {
                break;
            }
            self.outbound.drain(..n);
        }
        Ok(())
    }

    /// Takes `bytes` whole, splits them into frames and applies the
    /// feedback events. While the inner transport still holds back
    /// earlier frames it takes nothing, so its backpressure shows.
    fn send_frames(&mut self, bytes: &[u8]) -> Result<usize, SpinalError> {
        self.forward()?;
        if !self.outbound.is_empty() {
            return Ok(0);
        }
        self.staged.extend_from_slice(bytes);
        let mut at = 0;
        while let Some((len, feedback)) = split_frame(&self.staged[at..]) {
            let frame = at..at + len;
            at += len;
            let fate = if feedback {
                self.feedback_fate()
            } else {
                Some(0)
            };
            match fate {
                None => self.erased_frames += 1,
                Some(0) => self.outbound.extend_from_slice(&self.staged[frame]),
                Some(hold) => {
                    let due = self.recvs + hold;
                    self.held.push_back((due, self.staged[frame].to_vec()));
                }
            }
        }
        self.staged.drain(..at);
        self.forward()?;
        Ok(bytes.len())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, SpinalError> {
        let op = self.op;
        self.op += 1;
        if self.tx_closed(op) {
            return Err(transport_err());
        }
        if self.stalled(op) {
            self.stalled_ops += 1;
            return Ok(0);
        }
        if self.frames {
            return self.send_frames(bytes);
        }
        self.inner.send(bytes)
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize, SpinalError> {
        let op = self.op;
        self.op += 1;
        let now = self.recvs;
        self.recvs += 1;
        if self.rx_closed(op) {
            return Err(transport_err());
        }
        if self.stalled(op) {
            self.stalled_ops += 1;
            return Ok(0);
        }
        if self.frames {
            while self.held.front().is_some_and(|&(due, _)| due <= now) {
                let (_, frame) = self.held.pop_front().expect("a held frame is due");
                self.outbound.extend_from_slice(&frame);
            }
            self.forward()?;
        }
        let start = out.len();
        let n = self.inner.recv(out)?;
        for e in &self.events {
            if let ChaosEvent::CorruptByte { at_byte } = *e {
                if at_byte >= self.rx_bytes && at_byte - self.rx_bytes < n as u64 {
                    let idx = start + (at_byte - self.rx_bytes) as usize;
                    out[idx] ^= 1 << (derive_seed(self.seed, 0xC4A0, at_byte) % 8);
                    self.corrupted_bytes += 1;
                }
            }
        }
        self.rx_bytes += n as u64;
        Ok(n)
    }
}

/// [`loopback_pair`] with the first half wrapped in `plan` — the usual
/// client-side injection point for connection chaos.
pub fn chaos_pair(
    capacity: usize,
    plan: &ChaosPlan,
) -> (ChaosTransport<LoopbackTransport>, LoopbackTransport) {
    let (a, b) = loopback_pair(capacity);
    (plan.wrap(a), b)
}

/// A non-blocking TCP connection speaking the serve wire format.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    scratch: Box<[u8; 16 * 1024]>,
}

impl TcpTransport {
    /// Connects to `addr` and switches the socket to non-blocking mode
    /// (with Nagle disabled — frames are latency-sensitive).
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Transport`] when the connection cannot be
    /// established or configured.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, SpinalError> {
        let stream = TcpStream::connect(addr).map_err(|_| transport_err())?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted stream (used by [`TcpAcceptor`]).
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Transport`] when the socket cannot be switched
    /// to non-blocking mode.
    pub fn from_stream(stream: TcpStream) -> Result<Self, SpinalError> {
        stream.set_nonblocking(true).map_err(|_| transport_err())?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            scratch: Box::new([0u8; 16 * 1024]),
        })
    }

    /// The peer's address.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Transport`] when the socket has no peer.
    pub fn peer_addr(&self) -> Result<SocketAddr, SpinalError> {
        self.stream.peer_addr().map_err(|_| transport_err())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, SpinalError> {
        match self.stream.write(bytes) {
            Ok(n) => Ok(n),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
            Err(_) => Err(transport_err()),
        }
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize, SpinalError> {
        let mut total = 0;
        loop {
            match self.stream.read(&mut self.scratch[..]) {
                Ok(0) => {
                    // Orderly shutdown by the peer.
                    return if total > 0 {
                        Ok(total)
                    } else {
                        Err(transport_err())
                    };
                }
                Ok(n) => {
                    out.extend_from_slice(&self.scratch[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(total),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(transport_err()),
            }
        }
    }
}

/// A non-blocking TCP listener handing out [`TcpTransport`]s.
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds `addr` (use port 0 for an ephemeral port) in non-blocking
    /// mode.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Transport`] when binding fails.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, SpinalError> {
        let listener = TcpListener::bind(addr).map_err(|_| transport_err())?;
        listener
            .set_nonblocking(true)
            .map_err(|_| transport_err())?;
        Ok(Self { listener })
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Transport`] when the socket is unbound.
    pub fn local_addr(&self) -> Result<SocketAddr, SpinalError> {
        self.listener.local_addr().map_err(|_| transport_err())
    }

    /// Accepts one pending connection, if any.
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::Transport`] for listener failures (`None` just
    /// means nobody is waiting).
    pub fn accept(&self) -> Result<Option<TcpTransport>, SpinalError> {
        match self.listener.accept() {
            Ok((stream, _)) => TcpTransport::from_stream(stream).map(Some),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(None)
            }
            Err(_) => Err(transport_err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_fifo_and_backpressures() {
        let (mut a, mut b) = loopback_pair(8);
        assert_eq!(a.send(&[1, 2, 3, 4, 5, 6]).unwrap(), 6);
        // Only 2 bytes of room remain: partial accept, not an error.
        assert_eq!(a.send(&[7, 8, 9]).unwrap(), 2);
        assert_eq!(a.queued_toward_peer(), 8);
        let mut got = Vec::new();
        assert_eq!(b.recv(&mut got).unwrap(), 8);
        assert_eq!(got, [1, 2, 3, 4, 5, 6, 7, 8]);
        // Drained: sender has room again, receiver sees nothing.
        assert_eq!(b.recv(&mut got).unwrap(), 0);
        assert_eq!(a.send(&[9]).unwrap(), 1);
    }

    #[test]
    fn loopback_is_duplex() {
        let (mut a, mut b) = loopback_pair(64);
        a.send(b"ping").unwrap();
        b.send(b"pong").unwrap();
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        b.recv(&mut rb).unwrap();
        a.recv(&mut ra).unwrap();
        assert_eq!(rb, b"ping");
        assert_eq!(ra, b"pong");
    }

    #[test]
    fn chunked_loopback_is_deterministic_and_complete() {
        let run = |seed: u64| {
            let (mut a, mut b) = loopback_pair_chunked(1024, seed);
            let payload: Vec<u8> = (0..=255).collect();
            a.send(&payload).unwrap();
            let mut got = Vec::new();
            let mut sizes = Vec::new();
            while got.len() < payload.len() {
                let n = b.recv(&mut got).unwrap();
                assert!(n > 0, "bytes are pending, chunked recv must progress");
                sizes.push(n);
            }
            assert_eq!(got, payload);
            sizes
        };
        let s1 = run(42);
        assert_eq!(s1, run(42), "same seed, same chunk boundaries");
        assert!(s1.len() > 1, "chunking splits a 256-byte burst");
        assert_ne!(s1, run(43), "different seed, different boundaries");
    }

    #[test]
    fn dropped_peer_surfaces_as_transport_error() {
        let (mut a, b) = loopback_pair(16);
        drop(b);
        assert!(matches!(
            a.recv(&mut Vec::new()),
            Err(SpinalError::Wire {
                kind: WireErrorKind::Transport
            })
        ));
    }

    #[test]
    fn chaos_stall_then_disconnect_fires_at_exact_ops() {
        let plan = ChaosPlan::new(7)
            .with(ChaosEvent::Stall { from_op: 1, ops: 2 })
            .with(ChaosEvent::Disconnect { at_op: 4 });
        let (mut a, mut b) = chaos_pair(64, &plan);
        assert_eq!(a.send(&[1, 2]).unwrap(), 2); // op 0: passes
        assert_eq!(a.send(&[3]).unwrap(), 0); // op 1: stalled
        assert_eq!(a.recv(&mut Vec::new()).unwrap(), 0); // op 2: stalled
        assert_eq!(a.send(&[4]).unwrap(), 1); // op 3: passes
        assert!(a.send(&[5]).is_err()); // op 4: disconnected
        assert!(a.recv(&mut Vec::new()).is_err()); // op 5: stays dead
        assert_eq!(a.stalled_ops(), 2);
        let mut got = Vec::new();
        b.recv(&mut got).unwrap();
        assert_eq!(got, [1, 2, 4]);
    }

    #[test]
    fn chaos_half_close_keeps_other_direction_alive() {
        let plan = ChaosPlan::new(7).with(ChaosEvent::HalfCloseRx { at_op: 0 });
        let (mut a, mut b) = chaos_pair(64, &plan);
        assert!(a.recv(&mut Vec::new()).is_err());
        assert_eq!(a.send(&[9]).unwrap(), 1);
        let mut got = Vec::new();
        b.recv(&mut got).unwrap();
        assert_eq!(got, [9]);
    }

    #[test]
    fn chaos_corrupt_byte_flips_exactly_one_bit_deterministically() {
        let run = |seed: u64| {
            let plan = ChaosPlan::new(seed).with(ChaosEvent::CorruptByte { at_byte: 3 });
            let (mut a, mut b) = chaos_pair(64, &plan);
            b.send(&[0u8; 8]).unwrap();
            let mut got = Vec::new();
            while got.len() < 8 {
                a.recv(&mut got).unwrap();
            }
            assert_eq!(a.corrupted_bytes(), 1);
            got
        };
        let g1 = run(11);
        let flipped: Vec<usize> = (0..8).filter(|&i| g1[i] != 0).collect();
        assert_eq!(flipped, [3], "exactly the requested byte is touched");
        assert_eq!(g1[3].count_ones(), 1, "exactly one bit flipped");
        assert_eq!(g1, run(11), "same seed, same flip");
    }

    #[test]
    fn tcp_roundtrip_smoke() {
        // Loopback sockets may be unavailable in a sandboxed test
        // environment; skip gracefully rather than fail.
        let Ok(acceptor) = TcpAcceptor::bind("127.0.0.1:0") else {
            eprintln!("skipping TCP smoke test: cannot bind loopback");
            return;
        };
        let addr = acceptor.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr).unwrap();
        let mut server = loop {
            if let Some(t) = acceptor.accept().unwrap() {
                break t;
            }
        };
        client.send(b"hello over tcp").unwrap();
        let mut got = Vec::new();
        while got.len() < 14 {
            server.recv(&mut got).unwrap();
        }
        assert_eq!(&got, b"hello over tcp");
    }
}
