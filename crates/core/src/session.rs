//! Streaming codec sessions: the rateless protocol loop as a first-class
//! API.
//!
//! The paper's defining property is *incremental* operation — "the
//! encoder can produce as many symbols as necessary" (§3) while the
//! receiver retries decoding until it succeeds and ACKs — yet a batch
//! `decode(&obs)` call models none of that. This module provides the
//! session layer a long-lived per-connection codec needs:
//!
//! * [`TxSession`] — the sender's half: pulls symbols (or whole
//!   sub-passes) from the encoder in schedule order, and can
//!   [`seek`](TxSession::seek) back to any [`TxPosition`] to replay
//!   symbols after a NACK or loss — the encoder's O(1) random access
//!   makes replay exactly as cheap as first transmission.
//! * [`RxSession`] — the receiver's half: push symbols in with
//!   [`ingest`](RxSession::ingest) and get a [`Poll`] back:
//!   `NeedMore { symbols_consumed }` (keep listening),
//!   `Decoded { .. }` (a [`Terminator`] accepted — with CRC framing this
//!   is the practical §3.2 receiver, no genie required), or
//!   `Exhausted { .. }` (the symbol budget expired).
//!
//! # Every attempt decodes from the root
//!
//! An `RxSession` keeps its observations, its receive counters and its
//! last result; its caller lends every decode attempt a
//! [`DecoderScratch`]. A scratch carries no information between
//! attempts, so one scratch can serve any number of sessions, of any
//! shape or symbol type, one attempt at a time: a solo receiver keeps
//! one beside its session, and a serving shard lends its one scratch to
//! every session it holds. Every decode attempt is one
//! [`BeamDecoder::decode_into`] over all observations so far, from tree
//! level 0, as the paper's receiver runs its beam search again after
//! each pass or sub-pass (§3.2). A session rebuilt from its observations
//! alone ([`restore_receive_state`](RxSession::restore_receive_state),
//! as a serving warm restart does) therefore runs the same next attempt
//! as an uninterrupted one.
//!
//! # Absorb now, decode later
//!
//! [`ingest`](RxSession::ingest) records symbols and concludes at once.
//! A server that hears many sessions per tick splits the two:
//! [`absorb_at`](RxSession::absorb_at) records slot-labelled arrivals
//! and runs nothing, and one [`poll`](RxSession::poll) per tick runs the
//! attempt if one is due ([`attempt_due`](RxSession::attempt_due) is
//! the one owner of that rule) and otherwise reports the symbols that
//! arrived. The polls are those of one `ingest` of the same symbols
//! coalesced per tick.
//!
//! # Exact attempts
//!
//! A lost or punctured symbol leaves a tree level unobserved, and the
//! decoder carries the whole frontier across it; a long enough gap
//! reaches [`BeamConfig::max_frontier`](crate::decode::BeamConfig::max_frontier),
//! where the decoder prunes blindly. With [`RxConfig::exact_attempts`]
//! set — every session `spinal-serve` admits — a due attempt runs only
//! once it *fits*: the decoder walks the attempt's frontier sizes over
//! the observation pattern, without expanding anything, and finds no
//! expansion past the cap. An attempt that does not fit
//! stays due and waits for the symbols that fill its gap; the ones that
//! run are bit-identical to attempts with an unbounded frontier. The
//! paper paths leave the switch off, since Figure 2 measures deferral
//! with blind pruning.
//!
//! # Determinism contract
//!
//! Every decode attempt a session runs is **bit-identical** to batch
//! `decode` over the same observation prefix — message, cost bits,
//! candidate list, and work counters — because each attempt *is* one
//! batch decode. With the default
//! `attempt_growth = 1.0` (an attempt after every ingest that added
//! symbols) this makes the session's observable behaviour a pure
//! function of the symbols ingested, independent of chunking: one
//! symbol at a time, sub-pass by sub-pass, or all at once. With
//! `attempt_growth > 1.0` the *attempt schedule itself* depends on the
//! cumulative counts at which previous attempts ran — so coarser
//! chunking can skip an attempt that finer chunking would have run and
//! accept at a different symbol count; each attempt that does run is
//! still bit-identical to batch. The property tests in
//! `tests/session_equivalence.rs` enforce all of this against the
//! batch decoder.
//!
//! # Example
//!
//! ```
//! use spinal_core::code::SpinalCode;
//! use spinal_core::decode::DecoderScratch;
//! use spinal_core::frame::{frame_encode, AnyTerminator, Checksum};
//! use spinal_core::session::{Poll, RxConfig};
//! use spinal_core::BitVec;
//!
//! // CRC-framed payload: termination needs no genie.
//! let code = SpinalCode::fig2(24, 7).unwrap();
//! let payload = BitVec::from_bytes(&[0xab]);
//! let framed = frame_encode(&payload, Checksum::Crc16);
//!
//! let mut tx = code.tx_session(&framed).unwrap();
//! let mut rx = code
//!     .awgn_rx_session(AnyTerminator::crc(Checksum::Crc16), RxConfig::default())
//!     .unwrap();
//! let mut scratch = DecoderScratch::new();
//!
//! // Noiseless link, one symbol per poll.
//! loop {
//!     let (_slot, sym) = tx.next_symbol();
//!     match rx.ingest(&mut scratch, &[sym]).unwrap() {
//!         Poll::NeedMore { .. } => continue,
//!         Poll::Decoded { .. } => break,
//!         Poll::Exhausted { .. } => panic!("noiseless link must decode"),
//!     }
//! }
//! assert_eq!(rx.payload(), Some(&payload));
//! ```

use crate::bits::BitVec;
use crate::decode::cost::CostModel;
use crate::decode::{BeamDecoder, DecodeResult, DecoderScratch, Observations};
use crate::encode::Encoder;
use crate::error::SpinalError;
use crate::frame::{AnyTerminator, Terminator};
use crate::hash::SpineHash;
use crate::map::Mapper;
use crate::params::CodeParams;
use crate::puncture::PunctureSchedule;
use crate::symbol::Slot;

/// A position in the rateless transmission stream: symbol `offset` of
/// global sub-pass `subpass`. [`TxSession::position`] marks it,
/// [`TxSession::seek`] returns to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TxPosition {
    /// Global sub-pass index (`pass * subpasses_per_pass + j`).
    pub subpass: u32,
    /// Symbol offset inside that sub-pass.
    pub offset: u32,
}

impl TxPosition {
    /// The start of the stream.
    pub const START: TxPosition = TxPosition {
        subpass: 0,
        offset: 0,
    };
}

/// The sender's half of a streaming codec session: a rateless symbol
/// source with replay.
///
/// Symbols are produced in schedule order through the encoder's batched
/// sub-pass path; steady-state emission allocates nothing. The session
/// is a *cursor* over the conceptually infinite stream — [`seek`]
/// rewinds or fast-forwards it in O(1), since every symbol is
/// recomputable on demand.
///
/// [`seek`]: TxSession::seek
#[derive(Clone, Debug)]
pub struct TxSession<H: SpineHash, M: Mapper, P: PunctureSchedule> {
    encoder: Encoder<H, M>,
    schedule: P,
    /// Symbols of the sub-pass currently being emitted (`queue_g`).
    queue: Vec<(Slot, M::Symbol)>,
    queue_g: u32,
    queue_pos: usize,
    /// Next sub-pass to fetch once `queue` is drained.
    next_g: u32,
    slots: Vec<Slot>,
    sent: u64,
}

impl<H: SpineHash, M: Mapper, P: PunctureSchedule> TxSession<H, M, P> {
    /// Wraps an encoder and schedule into a session positioned at the
    /// stream start.
    pub fn new(encoder: Encoder<H, M>, schedule: P) -> Self {
        Self {
            encoder,
            schedule,
            queue: Vec::new(),
            queue_g: 0,
            queue_pos: 0,
            next_g: 0,
            slots: Vec::new(),
            sent: 0,
        }
    }

    /// The code parameters in use.
    pub fn params(&self) -> &CodeParams {
        self.encoder.params()
    }

    /// The transmission schedule in use.
    pub fn schedule(&self) -> &P {
        &self.schedule
    }

    /// The underlying encoder (e.g. for random-access replay of a single
    /// slot).
    pub fn encoder(&self) -> &Encoder<H, M> {
        &self.encoder
    }

    /// Total symbols emitted by this session, replays included.
    pub fn symbols_sent(&self) -> u64 {
        self.sent
    }

    /// The position of the next symbol [`next_symbol`](Self::next_symbol)
    /// will produce.
    pub fn position(&self) -> TxPosition {
        if self.queue_pos < self.queue.len() {
            TxPosition {
                subpass: self.queue_g,
                offset: self.queue_pos as u32,
            }
        } else {
            TxPosition {
                subpass: self.next_g,
                offset: 0,
            }
        }
    }

    /// Moves the cursor to `pos`. Seeking backward replays symbols (the
    /// NACK path); seeking forward skips them. An `offset` past the end
    /// of the target sub-pass clamps to its end. The emission counter is
    /// not rewound — it counts transmissions, not stream progress.
    pub fn seek(&mut self, pos: TxPosition) {
        self.queue.clear();
        self.queue_pos = 0;
        if pos.offset == 0 {
            self.next_g = pos.subpass;
            return;
        }
        self.encoder.subpass_into(
            &self.schedule,
            pos.subpass,
            &mut self.slots,
            &mut self.queue,
        );
        self.queue_g = pos.subpass;
        self.queue_pos = (pos.offset as usize).min(self.queue.len());
        self.next_g = pos.subpass + 1;
    }

    /// Rewinds to the stream start (replay everything).
    pub fn rewind(&mut self) {
        self.seek(TxPosition::START);
    }

    /// Rebinds the session to a new `(params, hash, message)` triple and
    /// rewinds it, reusing all buffers — the per-trial path of simulation
    /// workers (see [`Encoder::rebind`] for the geometry constraints).
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::MessageLength`] (leaving the session
    /// usable with its previous binding) when the message does not match
    /// the parameters.
    pub fn rebind(
        &mut self,
        params: &CodeParams,
        hash: H,
        message: &BitVec,
    ) -> Result<(), SpinalError> {
        self.encoder.rebind(params, hash, message)?;
        self.rewind();
        self.sent = 0;
        Ok(())
    }

    fn refill(&mut self) {
        while self.queue_pos >= self.queue.len() {
            let g = self.next_g;
            self.encoder
                .subpass_into(&self.schedule, g, &mut self.slots, &mut self.queue);
            self.queue_g = g;
            self.queue_pos = 0;
            self.next_g = g + 1;
        }
    }

    /// Produces the next symbol of the stream (never ends — a rateless
    /// code emits as many symbols as the channel needs).
    pub fn next_symbol(&mut self) -> (Slot, M::Symbol) {
        self.refill();
        let sym = self.queue[self.queue_pos];
        self.queue_pos += 1;
        self.sent += 1;
        sym
    }

    /// Writes the next `n` symbols into `out` (cleared first).
    pub fn fill(&mut self, n: usize, out: &mut Vec<(Slot, M::Symbol)>) {
        out.clear();
        for _ in 0..n {
            let sym = self.next_symbol();
            out.push(sym);
        }
    }

    /// Emits the remainder of the current sub-pass — the whole sub-pass
    /// when the cursor is aligned — into `out` (cleared first; may stay
    /// empty when the sub-pass's residue class is unpopulated), and
    /// returns its global index. Sub-pass emission is the natural ARQ
    /// granularity: the receiver attempts a decode after each one.
    pub fn next_subpass_into(&mut self, out: &mut Vec<(Slot, M::Symbol)>) -> u32 {
        out.clear();
        if self.queue_pos < self.queue.len() {
            out.extend_from_slice(&self.queue[self.queue_pos..]);
            self.queue_pos = self.queue.len();
            self.sent += out.len() as u64;
            return self.queue_g;
        }
        let g = self.next_g;
        self.encoder
            .subpass_into(&self.schedule, g, &mut self.slots, out);
        self.next_g = g + 1;
        self.sent += out.len() as u64;
        g
    }
}

/// What an [`RxSession::ingest`] call concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll {
    /// No acceptance yet: keep the symbols coming.
    NeedMore {
        /// Symbols this call added to the session.
        symbols_consumed: usize,
    },
    /// The terminator accepted a hypothesis. The payload is at
    /// [`RxSession::payload`], the accepting attempt's full
    /// [`DecodeResult`] at [`RxSession::last_result`]. The session is
    /// finished; further `ingest` calls return
    /// [`SpinalError::SessionFinished`].
    Decoded {
        /// Total symbols the session consumed.
        symbols_used: u64,
        /// Decode attempts run, the accepting one included.
        attempts: u32,
    },
    /// The configured symbol budget expired without acceptance. The
    /// session is finished.
    Exhausted {
        /// Total symbols the session consumed.
        symbols_used: u64,
    },
}

/// Receiver-session resource configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RxConfig {
    /// Beam-decoder resources for every attempt. The
    /// [`SpinalCode::*_rx_session`](crate::code::SpinalCode::rx_session)
    /// helpers build the session's decoder from this field;
    /// [`RxSession::new`] takes a ready decoder and therefore treats the
    /// *decoder's* configuration as authoritative, normalizing this
    /// field to match it.
    pub beam: crate::decode::BeamConfig,
    /// Give up ([`Poll::Exhausted`]) once this many symbols have been
    /// ingested without acceptance. Default: unbounded.
    pub max_symbols: u64,
    /// Decode-attempt thinning: the next attempt waits until the symbol
    /// count reaches `max(prev + 1, ceil(prev × growth))`. `1.0` attempts
    /// after every ingest that added symbols (the paper's idealised
    /// receiver); larger values trade latency for CPU on slow channels.
    pub attempt_growth: f64,
    /// Run an attempt only when it fits: walked level by level over the
    /// observation pattern, no expansion exceeds
    /// [`BeamConfig::max_frontier`](crate::decode::BeamConfig::max_frontier),
    /// so the decoder carries every hypothesis the observations cannot
    /// yet tell apart without pruning blindly.
    /// An attempt that does not fit stays due and waits for the symbols
    /// that fill its gap; the attempts that run are the ones the
    /// session would run without the switch. Off by default, so the
    /// paper paths keep deferral with blind pruning; the server turns it
    /// on for every session it admits.
    pub exact_attempts: bool,
}

impl Default for RxConfig {
    fn default() -> Self {
        Self {
            beam: crate::decode::BeamConfig::paper_default(),
            max_symbols: u64::MAX,
            attempt_growth: 1.0,
            exact_attempts: false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RxState {
    Listening,
    Decoded,
    Exhausted,
    /// Given up by policy (a server's per-session attempt ceiling — the
    /// §3 "too much time" escape hatch) rather than by symbol budget.
    Abandoned,
}

/// The receiver's half of a streaming codec session.
///
/// Owns everything a long-lived connection needs across retries: the
/// slot-labelled observation set, the receive counters, the last
/// attempt's result, and the [`Terminator`] that decides
/// success (CRC framing for the practical receiver, the genie for
/// §5-style experiments). The expansion buffers of an attempt are the
/// caller's [`DecoderScratch`], lent to each [`ingest`](Self::ingest)
/// or [`poll`](Self::poll). After the first few attempts warm the
/// buffers, a steady-state ingest → decode → reject cycle performs no
/// heap allocation.
///
/// Symbols pushed through [`ingest`](Self::ingest) are labelled with
/// slots by the session itself, following the agreed schedule in
/// transmission order — the receiver-side mirror of [`TxSession`]. Use
/// [`ingest_at`](Self::ingest_at) when slots are known out-of-band
/// (e.g. erasure channels that drop symbols entirely).
#[derive(Clone, Debug)]
pub struct RxSession<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>, P: PunctureSchedule> {
    decoder: BeamDecoder<H, M, C>,
    schedule: P,
    terminator: AnyTerminator,
    cfg: RxConfig,
    obs: Observations<M::Symbol>,
    result: DecodeResult,
    payload: BitVec,
    /// Receiver-side slot cursor (mirrors the sender's stream order).
    slots: Vec<Slot>,
    slot_pos: usize,
    cursor_g: u32,
    /// Lowest spine position with a new observation since the last
    /// decode attempt (`u32::MAX` = nothing new).
    dirty_from: u32,
    symbols: u64,
    /// Symbols absorbed since the last poll.
    absorbed: usize,
    attempts: u32,
    next_attempt: u64,
    state: RxState,
}

impl<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>, P: PunctureSchedule> RxSession<H, M, C, P> {
    /// Builds a session around a decoder, the agreed schedule, and a
    /// termination rule.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::AttemptGrowth`] when
    /// `cfg.attempt_growth < 1.0` (NaN included).
    pub fn new(
        decoder: BeamDecoder<H, M, C>,
        schedule: P,
        terminator: AnyTerminator,
        mut cfg: RxConfig,
    ) -> Result<Self, SpinalError> {
        if cfg.attempt_growth.is_nan() || cfg.attempt_growth < 1.0 {
            return Err(SpinalError::AttemptGrowth(cfg.attempt_growth));
        }
        // The decoder's beam configuration is the one that runs; keep
        // the stored config in sync so a mismatched `cfg.beam` cannot
        // mislead anyone reading it back.
        cfg.beam = *decoder.config();
        let n_levels = decoder.params().n_segments();
        Ok(Self {
            decoder,
            schedule,
            terminator,
            cfg,
            obs: Observations::new(n_levels),
            result: DecodeResult::default(),
            payload: BitVec::new(),
            slots: Vec::new(),
            slot_pos: 0,
            cursor_g: 0,
            dirty_from: u32::MAX,
            symbols: 0,
            absorbed: 0,
            attempts: 0,
            next_attempt: 1,
            state: RxState::Listening,
        })
    }

    /// The code parameters in use.
    pub fn params(&self) -> &CodeParams {
        self.decoder.params()
    }

    /// The termination rule, mutably — simulation workers swap the
    /// genie's truth per trial this way.
    pub fn terminator_mut(&mut self) -> &mut AnyTerminator {
        &mut self.terminator
    }

    /// Total symbols ingested so far.
    pub fn symbols(&self) -> u64 {
        self.symbols
    }

    /// Decode attempts run so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// `true` once a terminal [`Poll`] (`Decoded` / `Exhausted`) has been
    /// returned, or the session was [abandoned](Self::abandon).
    pub fn is_finished(&self) -> bool {
        self.state != RxState::Listening
    }

    /// `true` once the session was given up by policy (see
    /// [`abandon`](Self::abandon)) — distinct from running out of its
    /// symbol budget (`Exhausted`) and from decoding.
    pub fn is_abandoned(&self) -> bool {
        self.state == RxState::Abandoned
    }

    /// Terminates the session by policy: the caller (typically a server
    /// enforcing its per-session attempt ceiling) has decided further
    /// decode attempts are not worth their work. The session becomes
    /// finished without a payload, and symbols absorbed since the last
    /// poll are dropped unreported; further `ingest` calls return
    /// [`SpinalError::SessionFinished`]. No-op on an already-finished
    /// session.
    pub fn abandon(&mut self) {
        if self.state == RxState::Listening {
            self.state = RxState::Abandoned;
            self.absorbed = 0;
        }
    }

    /// The accepted payload, once [`Poll::Decoded`] has been returned.
    /// For CRC termination this is the checksum-stripped payload; for the
    /// genie it is the full message.
    pub fn payload(&self) -> Option<&BitVec> {
        (self.state == RxState::Decoded).then_some(&self.payload)
    }

    /// The most recent decode attempt's result (the accepting one, after
    /// `Decoded`).
    pub fn last_result(&self) -> &DecodeResult {
        &self.result
    }

    /// The received observation set accumulated so far.
    pub fn observations(&self) -> &Observations<M::Symbol> {
        &self.obs
    }

    /// Rebinds the session to a new decoder (typically the next trial's
    /// reseeded code), clearing all received state while keeping every
    /// buffer's capacity. The terminator is kept — update it through
    /// [`terminator_mut`](Self::terminator_mut).
    pub fn rebind(&mut self, decoder: BeamDecoder<H, M, C>) {
        let n_levels = decoder.params().n_segments();
        if n_levels != self.obs.n_levels() {
            self.obs = Observations::new(n_levels);
        } else {
            self.obs.clear();
        }
        // Keep the stored config normalized to the decoder that runs
        // (the same rule as `new`), so `config()` readers never see a
        // stale beam shape.
        self.cfg.beam = *decoder.config();
        self.decoder = decoder;
        self.slots.clear();
        self.slot_pos = 0;
        self.cursor_g = 0;
        self.dirty_from = u32::MAX;
        self.symbols = 0;
        self.absorbed = 0;
        self.attempts = 0;
        self.next_attempt = 1;
        self.state = RxState::Listening;
    }

    /// The slot the next ingested symbol will be labelled with.
    fn next_slot(&mut self) -> Slot {
        while self.slot_pos >= self.slots.len() {
            let g = self.cursor_g;
            self.schedule
                .subpass_slots_into(self.obs.n_levels(), g, &mut self.slots);
            self.slot_pos = 0;
            self.cursor_g = g + 1;
        }
        let slot = self.slots[self.slot_pos];
        self.slot_pos += 1;
        slot
    }

    /// Pushes received symbols (in transmission order — the session
    /// labels them with slots by the agreed schedule) and runs a decode
    /// attempt through `scratch` when the thinning schedule is due.
    ///
    /// Chunking is the caller's choice and does not affect results: one
    /// symbol per call models per-symbol feedback, one sub-pass per call
    /// the paper's receiver, everything at once a batch decode.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::SessionFinished`] if a terminal poll was
    /// already returned.
    pub fn ingest(
        &mut self,
        scratch: &mut DecoderScratch,
        symbols: &[M::Symbol],
    ) -> Result<Poll, SpinalError> {
        self.absorb(symbols)?;
        let due = self.attempt_due();
        Ok(self.conclude(scratch, due))
    }

    /// Like [`ingest`](Self::ingest) for explicitly slot-labelled
    /// symbols (out-of-order arrival, erasure channels that drop symbols
    /// entirely). Does not advance the implicit schedule cursor; avoid
    /// mixing with [`ingest`](Self::ingest) unless the slots match the
    /// schedule order.
    ///
    /// # Errors
    ///
    /// Returns [`SpinalError::SessionFinished`] on a finished session,
    /// and [`SpinalError::SlotOutOfRange`] (before consuming anything)
    /// when a slot addresses a spine position outside the code.
    pub fn ingest_at(
        &mut self,
        scratch: &mut DecoderScratch,
        symbols: &[(Slot, M::Symbol)],
    ) -> Result<Poll, SpinalError> {
        self.absorb_at(symbols)?;
        let due = self.attempt_due();
        Ok(self.conclude(scratch, due))
    }

    /// Records symbols (slot-labelled by the schedule cursor) without
    /// running a decode attempt — the first half of
    /// [`ingest`](Self::ingest).
    fn absorb(&mut self, symbols: &[M::Symbol]) -> Result<(), SpinalError> {
        if self.state != RxState::Listening {
            return Err(SpinalError::SessionFinished);
        }
        for &sym in symbols {
            let slot = self.next_slot();
            self.obs.push(slot, sym);
            self.dirty_from = self.dirty_from.min(slot.t);
        }
        self.symbols += symbols.len() as u64;
        self.absorbed += symbols.len();
        Ok(())
    }

    /// Records explicitly slot-labelled symbols without running a
    /// decode attempt: a server absorbs each tick's arrivals as they
    /// come and concludes them with one [`poll`](Self::poll).
    ///
    /// # Errors
    ///
    /// As [`ingest_at`](Self::ingest_at).
    pub fn absorb_at(&mut self, symbols: &[(Slot, M::Symbol)]) -> Result<(), SpinalError> {
        if self.state != RxState::Listening {
            return Err(SpinalError::SessionFinished);
        }
        let n_levels = self.obs.n_levels();
        if let Some(&(slot, _)) = symbols.iter().find(|&&(slot, _)| slot.t >= n_levels) {
            return Err(SpinalError::SlotOutOfRange {
                t: slot.t,
                n_levels,
            });
        }
        for &(slot, sym) in symbols {
            self.obs.push(slot, sym);
            self.dirty_from = self.dirty_from.min(slot.t);
        }
        self.symbols += symbols.len() as u64;
        self.absorbed += symbols.len();
        Ok(())
    }

    /// Concludes what arrived since the last poll: runs the due decode
    /// attempt through `scratch`, or — when symbols arrived but no
    /// attempt is due — the symbol-budget check. Returns `None` when
    /// nothing arrived and no attempt is due (a restored session's
    /// first attempt is due before anything arrives). The polls are
    /// those of one [`ingest`](Self::ingest) of everything absorbed
    /// since the last poll.
    pub fn poll(&mut self, scratch: &mut DecoderScratch) -> Option<Poll> {
        let due = self.attempt_due();
        if self.absorbed == 0 && !due {
            return None;
        }
        Some(self.conclude(scratch, due))
    }

    /// Runs the attempt if it is `due`, or else the poll tail, over
    /// everything absorbed since the last poll.
    fn conclude(&mut self, scratch: &mut DecoderScratch, due: bool) -> Poll {
        let consumed = std::mem::take(&mut self.absorbed);
        if !due {
            return self.poll_without_attempt(consumed);
        }
        self.attempts += 1;
        self.dirty_from = u32::MAX;
        self.decoder
            .decode_into(&self.obs, scratch, &mut self.result);
        if self.terminator.accept_into(&self.result, &mut self.payload) {
            self.state = RxState::Decoded;
            return Poll::Decoded {
                symbols_used: self.symbols,
                attempts: self.attempts,
            };
        }
        self.next_attempt =
            (self.symbols + 1).max((self.symbols as f64 * self.cfg.attempt_growth).ceil() as u64);
        self.poll_without_attempt(consumed)
    }

    /// `true` when the next [`Poll`] evaluation would run a decode
    /// attempt: something arrived since the last attempt, the thinning
    /// schedule is due, and — under [`RxConfig::exact_attempts`] — the
    /// attempt fits. The fit is recomputed from the observations alone,
    /// so a restored session waits exactly as an uninterrupted one.
    pub fn attempt_due(&self) -> bool {
        self.state == RxState::Listening
            && self.dirty_from != u32::MAX
            && self.symbols >= self.next_attempt
            && (!self.cfg.exact_attempts || self.decoder.walk_attempt(&self.obs).fits)
    }

    /// Tree nodes the next attempt would expand: the decoder's walk of
    /// the attempt's frontier sizes from level 0, without expanding
    /// anything. A server ranks shed victims by it.
    pub fn nodes_to_run(&self) -> u64 {
        self.decoder.walk_attempt(&self.obs).nodes
    }

    /// The poll tail when no attempt ran (or the attempt was rejected):
    /// the symbol-budget check, then `NeedMore`.
    fn poll_without_attempt(&mut self, consumed: usize) -> Poll {
        if self.symbols >= self.cfg.max_symbols {
            self.state = RxState::Exhausted;
            return Poll::Exhausted {
                symbols_used: self.symbols,
            };
        }
        Poll::NeedMore {
            symbols_consumed: consumed,
        }
    }

    /// The symbol count the thinning schedule will run the next decode
    /// attempt at (see [`RxConfig::attempt_growth`]). Part of the
    /// session's restartable receive state: restoring it exactly is what
    /// keeps a warm-restarted session's attempt schedule — and therefore
    /// its reported `attempts` — bit-identical to an uninterrupted one.
    pub fn next_attempt(&self) -> u64 {
        self.next_attempt
    }

    /// Lowest spine position that received a new observation since the
    /// last decode attempt (`u32::MAX` when nothing is pending). Like
    /// [`next_attempt`](Self::next_attempt), restartable receive state:
    /// re-ingesting the observations instead of restoring this mark
    /// would reset it to the minimum level and schedule a spurious
    /// attempt.
    pub fn dirty_from(&self) -> u32 {
        self.dirty_from
    }

    /// Restores the receive-side state of a freshly constructed session
    /// from a server snapshot: the slot-labelled observations in their
    /// original arrival order (per-level cost folds replay in float
    /// order, so order matters for bit-identity) and the attempt
    /// counters exactly as they were. The implicit schedule cursor is
    /// untouched — snapshot producers only ever ingest slot-labelled
    /// symbols ([`ingest_at`](Self::ingest_at)), which never advances it.
    /// The next attempt is the one an uninterrupted session would run,
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// [`SpinalError::SessionFinished`] when the session already holds
    /// state (restore targets a fresh session only);
    /// [`SpinalError::SlotOutOfRange`] when an observation addresses a
    /// level outside the code; [`SpinalError::Snapshot`] when the
    /// counters are inconsistent with the observations (a forged or
    /// damaged snapshot section). Nothing is consumed on error.
    pub fn restore_receive_state(
        &mut self,
        observations: &[(Slot, M::Symbol)],
        attempts: u32,
        next_attempt: u64,
        dirty_from: u32,
    ) -> Result<(), SpinalError> {
        if self.state != RxState::Listening || self.symbols != 0 || self.attempts != 0 {
            return Err(SpinalError::SessionFinished);
        }
        let n_levels = self.obs.n_levels();
        if let Some(&(slot, _)) = observations.iter().find(|&&(slot, _)| slot.t >= n_levels) {
            return Err(SpinalError::SlotOutOfRange {
                t: slot.t,
                n_levels,
            });
        }
        if (dirty_from != u32::MAX && dirty_from >= n_levels) || next_attempt == 0 {
            return Err(SpinalError::Snapshot {
                kind: crate::error::SnapshotErrorKind::Corrupt,
            });
        }
        for &(slot, sym) in observations {
            self.obs.push(slot, sym);
        }
        self.symbols = observations.len() as u64;
        self.attempts = attempts;
        self.next_attempt = next_attempt;
        self.dirty_from = dirty_from;
        Ok(())
    }

    /// The session's resource configuration (with `beam` normalized to
    /// the decoder's).
    pub fn config(&self) -> &RxConfig {
        &self.cfg
    }

    /// The decoder this session runs attempts on.
    pub fn decoder(&self) -> &BeamDecoder<H, M, C> {
        &self.decoder
    }

    /// The SIMD tier this session's attempts run their kernels
    /// on (see [`crate::kernels`]). Every tier is bit-identical; mixed
    /// tiers across sessions that lend one scratch are therefore safe —
    /// only per-attempt wall time differs.
    pub fn kernel_dispatch(&self) -> crate::kernels::KernelDispatch {
        self.decoder.kernel_dispatch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::SpinalCode;
    use crate::decode::{AwgnCost, BeamConfig};
    use crate::frame::{frame_encode, Checksum};
    use crate::hash::Lookup3;
    use crate::map::LinearMapper;
    use crate::puncture::{NoPuncture, StridedPuncture};

    type Fig2Tx = TxSession<Lookup3, LinearMapper, StridedPuncture>;
    type Fig2Rx = RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;

    fn fig2_pair(seed: u64, msg: &BitVec) -> (Fig2Tx, Fig2Rx) {
        let code = SpinalCode::fig2(24, seed).unwrap();
        let tx = code.tx_session(msg).unwrap();
        let rx = code
            .awgn_rx_session(AnyTerminator::genie(msg.clone()), RxConfig::default())
            .unwrap();
        (tx, rx)
    }

    #[test]
    fn noiseless_roundtrip_per_symbol() {
        let mut scratch = DecoderScratch::new();
        let msg = BitVec::from_bytes(&[0xca, 0xfe, 0x42]);
        let (mut tx, mut rx) = fig2_pair(3, &msg);
        let mut polls = 0;
        loop {
            let (_slot, sym) = tx.next_symbol();
            match rx.ingest(&mut scratch, &[sym]).unwrap() {
                Poll::NeedMore { symbols_consumed } => {
                    assert_eq!(symbols_consumed, 1);
                    polls += 1;
                    assert!(polls < 100, "noiseless decode must terminate");
                }
                Poll::Decoded {
                    symbols_used,
                    attempts,
                } => {
                    assert_eq!(symbols_used, rx.symbols());
                    assert!(attempts >= 1);
                    break;
                }
                Poll::Exhausted { .. } => panic!("no budget configured"),
            }
        }
        assert_eq!(rx.payload(), Some(&msg));
        assert!(rx.is_finished());
        assert_eq!(
            rx.ingest(&mut scratch, &[]),
            Err(SpinalError::SessionFinished)
        );
    }

    #[test]
    fn crc_termination_strips_checksum() {
        let mut scratch = DecoderScratch::new();
        let payload = BitVec::from_bytes(&[0x5a]);
        let framed = frame_encode(&payload, Checksum::Crc16);
        let code = SpinalCode::fig2(framed.len() as u32, 9).unwrap();
        let mut tx = code.tx_session(&framed).unwrap();
        let mut rx = code
            .awgn_rx_session(AnyTerminator::crc(Checksum::Crc16), RxConfig::default())
            .unwrap();
        let mut buf = Vec::new();
        let mut syms = Vec::new();
        loop {
            tx.next_subpass_into(&mut buf);
            syms.clear();
            syms.extend(buf.iter().map(|&(_, s)| s));
            if let Poll::Decoded { .. } = rx.ingest(&mut scratch, &syms).unwrap() {
                break;
            }
            assert!(rx.symbols() < 500, "noiseless CRC decode must terminate");
        }
        assert_eq!(rx.payload(), Some(&payload));
    }

    #[test]
    fn exhaustion_reports_budget() {
        let mut scratch = DecoderScratch::new();
        // A receiver bound to the wrong seed never accepts.
        let msg = BitVec::from_bytes(&[1, 2, 3]);
        let code = SpinalCode::fig2(24, 1).unwrap();
        let wrong = SpinalCode::fig2(24, 2).unwrap();
        let mut tx = code.tx_session(&msg).unwrap();
        let mut rx = wrong
            .awgn_rx_session(
                AnyTerminator::genie(msg.clone()),
                RxConfig {
                    max_symbols: 12,
                    ..RxConfig::default()
                },
            )
            .unwrap();
        loop {
            let (_slot, sym) = tx.next_symbol();
            match rx.ingest(&mut scratch, &[sym]).unwrap() {
                Poll::NeedMore { .. } => continue,
                Poll::Exhausted { symbols_used } => {
                    assert_eq!(symbols_used, 12);
                    break;
                }
                Poll::Decoded { .. } => panic!("mismatched seeds cannot genie-decode"),
            }
        }
        assert!(rx.is_finished());
        assert_eq!(rx.payload(), None);
        assert_eq!(
            rx.ingest(&mut scratch, &[]),
            Err(SpinalError::SessionFinished)
        );
    }

    #[test]
    fn tx_replay_matches_fresh_session() {
        let msg = BitVec::from_bytes(&[0x77, 0x18, 0x2b]);
        let code = SpinalCode::fig2(24, 5).unwrap();
        let mut tx = code.tx_session(&msg).unwrap();
        for _ in 0..10 {
            tx.next_symbol();
        }
        let mark = tx.position();
        let cont: Vec<_> = (0..5).map(|_| tx.next_symbol()).collect();
        // NACK: replay from the mark.
        tx.seek(mark);
        let replay: Vec<_> = (0..5).map(|_| tx.next_symbol()).collect();
        assert_eq!(cont, replay);
        // Full rewind equals a fresh session.
        tx.rewind();
        let mut fresh = code.tx_session(&msg).unwrap();
        for i in 0..15 {
            assert_eq!(tx.next_symbol(), fresh.next_symbol(), "symbol {i}");
        }
        assert_eq!(tx.symbols_sent(), 10 + 5 + 5 + 15);
    }

    #[test]
    fn tx_subpass_emission_matches_encoder() {
        // 9 segments: sub-pass 0 (residue 0) carries t = 0 and 8, so the
        // partial-consumption branch below has a remainder to flush.
        let msg = BitVec::from_bytes(&[0xaa, 0xbb, 0xcc, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66]);
        let code = SpinalCode::fig2(72, 8).unwrap();
        let mut tx = code.tx_session(&msg).unwrap();
        let enc = code.encoder(&msg).unwrap();
        let mut buf = Vec::new();
        for g in 0..20u32 {
            let got_g = tx.next_subpass_into(&mut buf);
            assert_eq!(got_g, g);
            assert_eq!(buf, enc.subpass(code.schedule(), g), "subpass {g}");
        }
        // Partial consumption: next_subpass_into flushes the remainder.
        tx.rewind();
        let head = tx.next_symbol();
        let g = tx.next_subpass_into(&mut buf);
        let full = enc.subpass(code.schedule(), g);
        assert_eq!(head, full[0]);
        assert_eq!(buf, full[1..]);
    }

    #[test]
    fn invalid_growth_rejected() {
        let code = SpinalCode::fig2(24, 0).unwrap();
        let err = code
            .awgn_rx_session(
                AnyTerminator::crc(Checksum::Crc16),
                RxConfig {
                    attempt_growth: 0.5,
                    ..RxConfig::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, SpinalError::AttemptGrowth(0.5));
    }

    #[test]
    fn ingest_at_validates_slots() {
        let mut scratch = DecoderScratch::new();
        let msg = BitVec::from_bytes(&[1, 2, 3]);
        let code = SpinalCode::fig2(24, 4).unwrap();
        let enc = code.encoder(&msg).unwrap();
        let mut rx = code
            .awgn_rx_session(AnyTerminator::genie(msg.clone()), RxConfig::default())
            .unwrap();
        let err = rx
            .ingest_at(
                &mut scratch,
                &[(Slot::new(7, 0), enc.symbol(Slot::new(0, 0)))],
            )
            .unwrap_err();
        assert_eq!(err, SpinalError::SlotOutOfRange { t: 7, n_levels: 3 });
        // Valid slotted ingest decodes as usual.
        let pairs: Vec<_> = (0..3u32)
            .map(|t| (Slot::new(t, 0), enc.symbol(Slot::new(t, 0))))
            .collect();
        match rx.ingest_at(&mut scratch, &pairs).unwrap() {
            Poll::Decoded { .. } => {}
            other => panic!("expected decode, got {other:?}"),
        }
        assert_eq!(rx.payload(), Some(&msg));
    }

    #[test]
    fn rebind_reuses_session_across_trials() {
        let mut scratch = DecoderScratch::new();
        let code = SpinalCode::bsc(16, 4, 11).unwrap();
        let mut rx = RxSession::new(
            code.bsc_beam_decoder(BeamConfig::with_beam(8)).unwrap(),
            NoPuncture::new(),
            AnyTerminator::genie(BitVec::new()),
            RxConfig::default(),
        )
        .unwrap();
        for (seed, bytes) in [(1u64, [0x12u8, 0x34]), (2, [0xab, 0xcd])] {
            let msg = BitVec::from_bytes(&bytes);
            let trial = SpinalCode::bsc(16, 4, seed).unwrap();
            let mut tx = TxSession::new(trial.encoder(&msg).unwrap(), NoPuncture::new());
            rx.rebind(trial.bsc_beam_decoder(BeamConfig::with_beam(8)).unwrap());
            rx.terminator_mut()
                .genie_mut()
                .expect("genie termination")
                .set_truth(&msg);
            let mut buf = Vec::new();
            let mut syms = Vec::new();
            let decoded = loop {
                tx.next_subpass_into(&mut buf);
                syms.clear();
                syms.extend(buf.iter().map(|&(_, s)| s));
                match rx.ingest(&mut scratch, &syms).unwrap() {
                    Poll::Decoded { .. } => break true,
                    Poll::NeedMore { .. } if rx.symbols() < 600 => continue,
                    _ => break false,
                }
            };
            assert!(decoded, "seed {seed}");
            assert_eq!(rx.payload(), Some(&msg));
        }
    }
}
