//! The sharded codec-serving event loop.
//!
//! A [`Server`] owns `N` shards; each shard owns one flow table, the
//! connections a stable hash assigned to it, and one
//! [`DecoderScratch`] it lends to every decode attempt it runs. A
//! pending flow owns its boxed [`RxSession`]. One [`tick`](Server::tick)
//! runs every shard through the same cycle:
//!
//! 1. **expire** — detached flows past their persisted tick deadline
//!    are removed (with their session, if still decoding);
//! 2. **flush** — drain each connection's bounded egress queue into its
//!    transport (partial sends are backpressure, not errors), then
//!    re-enqueue any result frame (`Decoded`/`Close`) deferred at the
//!    capacity cap — results are undroppable, they retry every tick;
//! 3. **ingress** — unless the egress queue sits above its high-water
//!    mark (backpressure: a slow reader stops being read from), pull
//!    transport bytes through the [`WireDecoder`] and handle each frame
//!    (HELLO admission, DATA ingest with gap-triggered NACKs, PING/PONG
//!    keepalive, RESUME re-attachment); then enforce the tick-counted
//!    idle deadlines (keepalive probe past `keepalive_idle`, detach and
//!    close past `idle_deadline`). HELLO admission refuses, with a
//!    protocol close, a shape whose gap-free level cannot fit the
//!    decoder's frontier cap (`beam × 2^k` above
//!    [`BeamConfig::max_frontier`]): such a session could never attempt;
//! 4. **resume** — deferred RESUME requests re-attach detached flows
//!    (or replay a verdict reached while detached);
//! 5. **drive** — one pass over the flow table: a session whose attempt
//!    is due at its [`MultiConfig::max_session_attempts`] ceiling is
//!    abandoned, and every other session [polls](RxSession::poll)
//!    through the shard's scratch, which runs its due attempt. Each
//!    verdict becomes, for an attached flow, feedback frames (ACK +
//!    decoded bits, Close on exhaustion/abandonment) — detached flows
//!    are driven exactly like attached ones, which is what keeps a later
//!    resume bit-identical to an uninterrupted run. Every served session
//!    runs with
//!    [`RxConfig::exact_attempts`]: an attempt runs only when it fits —
//!    its decoder carries every hypothesis the observations cannot yet
//!    tell apart without pruning blindly at the frontier cap — and
//!    otherwise waits for the NACK replay or the next pass to fill the
//!    gap, so a peer that skips slots costs the server no work;
//! 6. **snapshot** — periodic cumulative-ACK frames for sessions that
//!    negotiated [`FeedbackMode::CumulativeAck`].
//!
//! Connection failure is a first-class event: a dead transport, an idle
//! deadline, a drain deadline or a mid-stream protocol violation
//! *detaches* the session (keyed by the [`ResumeToken`] issued in
//! HELLO-ACK) instead of dropping it, so a reconnecting client resumes
//! mid-decode. At the admission ceiling the server sheds the
//! highest-predicted-cost detached session first instead of answering
//! every HELLO with a flat BUSY. [`Server::begin_drain`] starts a
//! graceful drain: GO-AWAY to every peer, no new admissions (resume is
//! still honoured), and sessions still streaming at the deadline are
//! detached with their token and closed.
//!
//! The server is the only owner of that detach lifecycle. Each shard
//! keeps one flow table: one record per session, from admission until
//! its verdict is delivered or its detach deadline passes, indexed by
//! resume-token id, holding the session itself while it decodes. A
//! connection only points at its flow; detaching unlinks the two and
//! stamps the deadline, resuming looks the token up and relinks. Under
//! pressure the table names the victim: the detached pending session
//! whose next attempt would expand the most tree nodes
//! ([`RxSession::nodes_to_run`]), ties going to the lowest flow index.
//!
//! All timers count ticks, never wall-clock time, so every lifecycle
//! path is deterministic. Shards never share mutable state, so
//! [`tick_sharded`](Server::tick_sharded) runs them on scoped threads
//! with bit-identical results to the serial [`tick`](Server::tick).
//! The serial path is the allocation-free steady state (the sharded
//! path allocates only its thread stacks).

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::thread;

use spinal_core::bits::BitVec;
use spinal_core::decode::{AwgnCost, BeamConfig, DecoderScratch};
use spinal_core::error::{ConfigErrorKind, SnapshotErrorKind, SpinalError, WireErrorKind};
use spinal_core::frame::{AnyTerminator, Checksum};
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::StridedPuncture;
use spinal_core::session::{Poll, RxConfig, RxSession};
use spinal_core::symbol::{IqSymbol, Slot};
use spinal_core::SpinalCode;
use spinal_link::FeedbackMode;
use spinal_sim::stats::derive_seed;

use crate::snapshot::{
    parse_entry, parse_header, write_entry, write_header, write_preamble, EntryBodyRef, EntryRef,
    ParsedBody, PendingShape, SnapshotHeader, SnapshotReader,
};
use crate::transport::Transport;
use crate::wire::{encode_frame, CloseReason, Frame, Hello, ResumeToken, WireDecoder};

/// The receiver session every served flow decodes with.
type Rx = RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;

/// Reserved token id whose authenticator a snapshot header carries as
/// its secret probe: a restorer whose pinned secret derives a different
/// authenticator for this id holds a different secret, and every token
/// in the snapshot would be unverifiable — better one typed error than
/// a silent full drop. Connection ids grow from zero and could reach
/// this value only after 2^63 admissions.
const SECRET_PROBE_ID: u64 = u64::MAX;

/// The authenticator half of a [`ResumeToken`] for a given token id,
/// keyed by the server's per-instance resume secret: without the
/// secret a token cannot be minted, so sequential token ids leak no
/// resumption capability. For one server instance the function is
/// pure, so serial and sharded ticks issue identical tokens.
fn resume_auth(secret: u64, id: u64) -> u64 {
    derive_seed(secret, 43, id)
}

/// The shard that owns connection or token id `id` — the one routing
/// rule for admissions, RESUME connections and restored entries, so a
/// RESUME always reaches the shard holding its flow.
fn shard_of(id: u64, shards: usize) -> usize {
    (derive_seed(0x5EED_C0DE, 41, id) % shards as u64) as usize
}

/// A process-random 64-bit value for the default resume secret, drawn
/// from the standard library's per-process SipHash keys (no extra
/// dependency, not in any per-tick path).
fn random_secret() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut h = RandomState::new().build_hasher();
    h.write_u64(0x5EED_C0DE);
    h.finish()
}

/// Per-shard session limits ([`ServeConfig::pool`]). The server reads
/// all three fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiConfig {
    /// Per-session decode-attempt ceiling — the paper's §3 "too much
    /// time has been spent" escape hatch. A session whose attempt is due
    /// after this many attempts is abandoned instead: its flow settles
    /// as abandoned and its session is dropped. `u32::MAX` (the
    /// default) disables the ceiling.
    pub max_session_attempts: u32,
    /// Admission control: most pending sessions a shard holds. A HELLO
    /// beyond it sheds a detached session or gets BUSY. `usize::MAX`
    /// (the default) disables admission control.
    pub max_sessions: usize,
    /// Ticks a detached session (or a verdict held for replay) stays
    /// resumable. `u64::MAX` (the default) disables expiry.
    pub detach_ttl: u64,
}

impl Default for MultiConfig {
    fn default() -> Self {
        Self {
            max_session_attempts: u32::MAX,
            max_sessions: usize::MAX,
            detach_ttl: u64::MAX,
        }
    }
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Shard (event-loop) count; connections are spread by stable hash.
    pub shards: usize,
    /// Per-shard session limits: `max_sessions` is each shard's
    /// admission ceiling, which sheds detached sessions before it
    /// refuses a HELLO; `max_session_attempts` abandons a session that
    /// keeps failing; `detach_ttl` is the *tick* TTL of detached
    /// sessions.
    pub pool: MultiConfig,
    /// Egress bytes queued per connection above which its ingress stops
    /// being drained (backpressure).
    pub egress_high_water: usize,
    /// Hard cap on queued egress bytes per connection; droppable
    /// feedback frames that would exceed it are dropped (and counted —
    /// the protocol heals via re-ACKs and snapshots). Result-bearing
    /// frames (`Decoded`, `Close`) are never dropped: they defer and
    /// retry every tick until the queue has room.
    pub egress_capacity: usize,
    /// Admission cap on `HELLO.message_bits`.
    pub max_message_bits: u32,
    /// Admission cap on `HELLO.beam`.
    pub max_beam: u32,
    /// Ticks without inbound bytes after which a connection is probed
    /// with PING (one outstanding probe until activity resumes).
    /// `u64::MAX` disables probing.
    pub keepalive_idle: u64,
    /// Ticks without inbound bytes after which a connection is declared
    /// dead: its session is detached (resumable by token) and the
    /// transport abandoned. `u64::MAX` disables the deadline.
    pub idle_deadline: u64,
    /// Secret keying the `auth` half of every [`ResumeToken`] this
    /// server issues. `None` (the default) draws a fresh process-random
    /// secret at [`Server::new`], so tokens are unforgeable by network
    /// peers; pin it to `Some(seed)` only where token bytes must
    /// reproduce across separate server instances (e.g. cross-process
    /// determinism harnesses).
    pub resume_secret: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            pool: MultiConfig::default(),
            egress_high_water: 16 * 1024,
            egress_capacity: 64 * 1024,
            max_message_bits: 4096,
            max_beam: 1024,
            keepalive_idle: u64::MAX,
            idle_deadline: u64::MAX,
            resume_secret: None,
        }
    }
}

impl ServeConfig {
    /// Checks the configuration's invariants.
    ///
    /// # Errors
    ///
    /// [`SpinalError::Config`] naming the first broken rule (see
    /// [`ConfigErrorKind`]): zero shards, inverted or zero egress
    /// watermarks, a zero admission cap, a zero lifecycle deadline, or
    /// a shard that admits no session.
    pub fn validate(&self) -> Result<(), SpinalError> {
        let kind = if self.shards < 1 {
            ConfigErrorKind::ZeroShards
        } else if self.egress_high_water < 1 || self.egress_capacity < self.egress_high_water {
            ConfigErrorKind::EgressWatermarks
        } else if self.max_message_bits < 1 || self.max_beam < 1 {
            ConfigErrorKind::ZeroCap
        } else if self.keepalive_idle < 1 || self.idle_deadline < 1 {
            ConfigErrorKind::ZeroDeadline
        } else if self.pool.max_sessions < 1 {
            ConfigErrorKind::ZeroSessions
        } else {
            return Ok(());
        };
        Err(SpinalError::Config { kind })
    }
}

/// Declares [`ServeStats`] from one table: `ticks` (the server clock,
/// never summed across shards) followed by the summed counters, each
/// declared once with its doc. The snapshot word order is the table
/// order, and the serializers and the shard sum are derived from it.
macro_rules! serve_stats {
    (
        $(#[doc = $ticks_doc:literal])* ticks,
        $( $(#[doc = $doc:literal])* $field:ident, )*
    ) => {
        /// Aggregate serving counters (summed over shards by
        /// [`Server::stats`]).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct ServeStats {
            $(#[doc = $ticks_doc])*
            pub ticks: u64,
            $( $(#[doc = $doc])* pub $field: u64, )*
        }

        /// Number of `u64` words a [`ServeStats`] serializes to (table
        /// order; bumping this bumps the snapshot version).
        const STAT_WORDS: usize = 1 + [$(stringify!($field)),*].len();

        impl ServeStats {
            fn to_words(self) -> [u64; STAT_WORDS] {
                [self.ticks, $(self.$field),*]
            }

            fn from_words(w: &[u64; STAT_WORDS]) -> Self {
                let mut w = w.iter().copied();
                let mut next = || w.next().expect("one word per counter");
                // Struct fields initialize in source order: table order.
                Self {
                    ticks: next(),
                    $($field: next(),)*
                }
            }

            /// Adds `other`'s counters into `self`, skipping `ticks`: it
            /// is the clock, not a counter ([`Server::stats`] sets it).
            fn absorb(&mut self, other: &ServeStats) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

serve_stats! {
    /// Ticks the server has run.
    ticks,
    /// Sessions admitted (HELLO → HELLO-ACK).
    admitted,
    /// Sessions rejected with BUSY (shard at its admission ceiling, or
    /// draining).
    busy_rejected,
    /// Sessions that decoded.
    decoded,
    /// Sessions that exhausted their symbol budget.
    exhausted,
    /// Sessions abandoned at the attempt ceiling.
    abandoned,
    /// Connections closed for protocol violations (malformed frames,
    /// bad dialogue order, inadmissible HELLO).
    protocol_errors,
    /// Connections whose transport failed or closed.
    transport_closed,
    /// Connection-ticks spent in backpressure (ingress not drained).
    backpressure_ticks,
    /// Droppable feedback frames dropped at the egress capacity cap.
    egress_overflow,
    /// Frames handled.
    frames_in,
    /// Symbols ingested.
    symbols_in,
    /// Sessions detached with resumable state on connection loss (dead
    /// transport, idle deadline, drain deadline, mid-stream protocol
    /// failure).
    detached,
    /// Valid RESUME handshakes served (re-attachment or verdict
    /// replay).
    resumed,
    /// RESUME requests refused (unknown, corrupted or expired token).
    resume_rejected,
    /// Detached sessions abandoned to make room for a new admission
    /// (highest predicted cost first).
    shed,
    /// Detached sessions that expired un-resumed at the tick TTL.
    expired,
    /// Connections closed by the idle deadline.
    idle_closed,
    /// Keepalive PING probes sent.
    keepalive_pings,
    /// Result-bearing frames (`Decoded`/`Close`) deferred at the egress
    /// capacity cap (retried, never dropped).
    result_deferred,
    /// Warm-restart snapshots serialized by
    /// [`Server::snapshot_into`].
    snapshots,
    /// Sessions re-established from a warm-restart snapshot by
    /// [`Server::restore`] — in-flight sessions waiting detached for a
    /// RESUME, plus terminal verdicts held for replay.
    restored,
    /// In-flight sessions lost at [`Server::restore`] because their
    /// snapshot section failed validation (CRC damage, structural
    /// corruption, a forged token, or restore-time admission limits).
    /// Counted so the lifecycle conservation law still closes across a
    /// degraded restore: every admitted session ends in exactly one of
    /// decoded / exhausted / abandoned / shed / expired /
    /// restore-dropped.
    restore_dropped,
}

/// Names a connection accepted by [`Server::add_connection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnHandle {
    shard: u32,
    idx: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Awaiting HELLO or RESUME.
    Greeting,
    /// Carrying flow `f` of the shard's flow table, whose `conn` points
    /// back here. Whether it still decodes is the flow's verdict.
    Attached(usize),
    /// Terminal; egress still flushes, ingress is ignored.
    Closed,
}

struct Conn<T> {
    transport: T,
    wire: WireDecoder,
    egress: Vec<u8>,
    state: ConnState,
    nacked: bool,
    last_snapshot: u64,
    backpressured: bool,
    dead: bool,
    /// Admission-order id (global across shards, deterministic).
    conn_id: u64,
    last_rx_tick: u64,
    pinged: bool,
    goaway_sent: bool,
    resume_pending: bool,
    /// Decoded result frames deferred at the egress cap; retried from
    /// the attached flow's verdict every tick.
    result_pending: bool,
    /// Close frame deferred at the egress cap.
    close_pending: Option<CloseReason>,
}

impl<T> Conn<T> {
    fn new(transport: T, conn_id: u64, tick: u64) -> Self {
        Self {
            transport,
            wire: WireDecoder::new(),
            egress: Vec::new(),
            state: ConnState::Greeting,
            nacked: false,
            last_snapshot: 0,
            backpressured: false,
            dead: false,
            conn_id,
            last_rx_tick: tick,
            pinged: false,
            goaway_sent: false,
            resume_pending: false,
            result_pending: false,
            close_pending: None,
        }
    }
}

/// What a flow has concluded so far.
enum Verdict {
    /// Still decoding (and driven every tick, attached or not). Boxed,
    /// so a walk over the flow slab strides over small records.
    Pending(Box<Rx>),
    /// Decoded; the result is held for delivery and replay.
    Decoded {
        bits: Option<BitVec>,
        ack: (u64, u32),
    },
    /// Exhausted its symbol budget while detached; held for replay.
    Exhausted,
    /// Abandoned at the attempt ceiling while detached; held for
    /// replay.
    Abandoned,
}

impl Verdict {
    /// The `Close` reason that delivers a verdict without a result.
    fn close_reason(&self) -> Option<CloseReason> {
        match self {
            Verdict::Exhausted => Some(CloseReason::Exhausted),
            Verdict::Abandoned => Some(CloseReason::Abandoned),
            Verdict::Pending(_) | Verdict::Decoded { .. } => None,
        }
    }
}

/// One session's record, from admission until its verdict is
/// delivered or its detach deadline passes — the same record whether a
/// connection carries it or not.
struct Flow {
    /// Resume-token id: the admitting connection's id, kept across
    /// resumes so one token stays valid for the whole session lifetime.
    token_id: u64,
    verdict: Verdict,
    mode: FeedbackMode,
    expected_seq: u64,
    /// The connection carrying the flow; `None` while detached.
    conn: Option<usize>,
    /// Tick at which the flow expires while detached.
    expires_tick: u64,
}

/// Token-id index with a fixed hash key, so its growth (and with it the
/// allocation count) repeats run to run. Token ids are minted by the
/// server, so fixed-key hashing cannot be flooded from outside.
type TokenIndex = HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>;

/// A shard's flows: a slab indexed by resume-token id.
#[derive(Default)]
struct FlowTable {
    slab: Vec<Option<Flow>>,
    free: Vec<usize>,
    tokens: TokenIndex,
    /// Flows still decoding: the shard's live sessions.
    pending: usize,
}

impl FlowTable {
    fn insert(&mut self, flow: Flow) -> usize {
        let token_id = flow.token_id;
        self.pending += usize::from(matches!(flow.verdict, Verdict::Pending(_)));
        let f = match self.free.pop() {
            Some(f) => {
                self.slab[f] = Some(flow);
                f
            }
            None => {
                self.slab.push(Some(flow));
                self.slab.len() - 1
            }
        };
        self.tokens.insert(token_id, f);
        f
    }

    /// Unlinks flow `f` from the token index and frees its record,
    /// session included.
    fn remove(&mut self, f: usize) -> Flow {
        let flow = self.slab[f].take().expect("removed flow is live");
        self.free.push(f);
        // Only if the index still names this flow: a crafted snapshot
        // header can make a later admission reuse a restored token id.
        if self.tokens.get(&flow.token_id) == Some(&f) {
            self.tokens.remove(&flow.token_id);
        }
        self.pending -= usize::from(matches!(flow.verdict, Verdict::Pending(_)));
        flow
    }

    /// Records the verdict pending flow `f` reached, dropping its
    /// session.
    fn settle(&mut self, f: usize, verdict: Verdict) {
        let flow = self.get_mut(f);
        debug_assert!(matches!(flow.verdict, Verdict::Pending(_)));
        flow.verdict = verdict;
        self.pending -= 1;
    }

    /// Removes every detached flow past its deadline, with its session
    /// if it was still decoding. Returns how many were (settled
    /// verdicts were counted when they landed).
    fn expire(&mut self, tick: u64) -> u64 {
        let mut expired = 0;
        for f in 0..self.slab.len() {
            let due = self.slab[f]
                .as_ref()
                .is_some_and(|flow| flow.conn.is_none() && tick >= flow.expires_tick);
            if !due {
                continue;
            }
            if let Verdict::Pending(_) = self.remove(f).verdict {
                expired += 1;
            }
        }
        expired
    }

    fn get(&self, f: usize) -> &Flow {
        self.slab[f].as_ref().expect("indexed flow is live")
    }

    fn get_mut(&mut self, f: usize) -> &mut Flow {
        self.slab[f].as_mut().expect("indexed flow is live")
    }

    fn by_token(&self, token_id: u64) -> Option<usize> {
        self.tokens.get(&token_id).copied()
    }

    fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.slab.iter().flatten()
    }

    /// The orphan overload sheds first: among the detached flows still
    /// decoding, the one whose next attempt would expand the most tree
    /// nodes, ties going to the lowest flow index.
    fn costliest_orphan(&self) -> Option<usize> {
        let (_, f) = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(f, flow)| match flow {
                Some(Flow {
                    verdict: Verdict::Pending(rx),
                    conn: None,
                    ..
                }) => Some(((rx.nodes_to_run(), Reverse(f)), f)),
                _ => None,
            })
            .max_by_key(|&(key, _)| key)?;
        Some(f)
    }
}

struct Shard<T> {
    conns: Vec<Option<Conn<T>>>,
    free: Vec<usize>,
    flows: FlowTable,
    /// RESUME requests deferred to after ingress, so re-attachment
    /// never races the death of the connection it supersedes.
    resumes: Vec<(usize, ResumeToken)>,
    /// The expansion buffers every decode attempt of the shard runs
    /// through, one attempt at a time.
    scratch: DecoderScratch,
    rxbuf: Vec<u8>,
    symbols: Vec<(Slot, IqSymbol)>,
    stats: ServeStats,
}

impl<T: Transport> Shard<T> {
    fn new() -> Self {
        Self {
            conns: Vec::new(),
            free: Vec::new(),
            flows: FlowTable::default(),
            resumes: Vec::new(),
            scratch: DecoderScratch::new(),
            rxbuf: Vec::with_capacity(16 * 1024),
            symbols: Vec::new(),
            stats: ServeStats::default(),
        }
    }
}

/// The sharded codec service. Generic over the byte [`Transport`]
/// (in-process loopback for deterministic benches and tests, TCP for a
/// real deployment).
pub struct Server<T: Transport> {
    cfg: ServeConfig,
    shards: Vec<Shard<T>>,
    tick: u64,
    next_conn_id: u64,
    drain_deadline: Option<u64>,
    /// Resolved resume-token secret ([`ServeConfig::resume_secret`] or
    /// process-random).
    resume_secret: u64,
}

impl<T: Transport> Server<T> {
    /// Builds a server.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`] failures.
    pub fn new(cfg: ServeConfig) -> Result<Self, SpinalError> {
        cfg.validate()?;
        let shards = (0..cfg.shards).map(|_| Shard::new()).collect();
        let resume_secret = cfg.resume_secret.unwrap_or_else(random_secret);
        Ok(Self {
            cfg,
            shards,
            tick: 0,
            next_conn_id: 0,
            drain_deadline: None,
            resume_secret,
        })
    }

    /// Accepts a connection, assigning it to a shard by stable hash of
    /// its admission order (so a given arrival sequence always lands on
    /// the same shards, regardless of shard-thread scheduling).
    pub fn add_connection(&mut self, transport: T) -> ConnHandle {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        let shard_i = shard_of(id, self.shards.len());
        self.install(transport, id, shard_i)
    }

    /// Accepts a connection that intends to RESUME `token`, routing it
    /// to the shard that owns the token's detached session (the shard
    /// the original connection hashed to). A resume sent to any other
    /// shard is refused with `Close { ResumeInvalid }` — shards share
    /// no state.
    pub fn add_resume_connection(&mut self, transport: T, token: ResumeToken) -> ConnHandle {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        let shard_i = shard_of(token.id, self.shards.len());
        self.install(transport, id, shard_i)
    }

    fn install(&mut self, transport: T, id: u64, shard_i: usize) -> ConnHandle {
        let shard = &mut self.shards[shard_i];
        let conn = Conn::new(transport, id, self.tick);
        let idx = match shard.free.pop() {
            Some(i) => {
                shard.conns[i] = Some(conn);
                i
            }
            None => {
                shard.conns.push(Some(conn));
                shard.conns.len() - 1
            }
        };
        ConnHandle {
            shard: shard_i as u32,
            idx: idx as u32,
        }
    }

    /// Starts a graceful drain: from the next tick every peer receives
    /// `GoAway` with the remaining tick budget, new HELLOs are refused
    /// with BUSY (RESUME is still honoured), and sessions still
    /// streaming when the deadline passes are detached under their
    /// resume token and closed with `Close { Shed }`.
    ///
    /// Idempotent; a second call can only shorten the deadline.
    pub fn begin_drain(&mut self, drain_ticks: u64) {
        let deadline = self.tick.saturating_add(drain_ticks).saturating_add(1);
        self.drain_deadline = Some(match self.drain_deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.drain_deadline.is_some()
    }

    /// Runs one serving cycle over every shard, serially. This is the
    /// allocation-free steady-state path.
    pub fn tick(&mut self) {
        self.tick += 1;
        let t = self.tick;
        let drain = self.drain_deadline;
        let secret = self.resume_secret;
        for shard in &mut self.shards {
            shard_tick(shard, &self.cfg, t, drain, secret);
        }
    }

    /// Reaps connections that are finished: dead transports, and closed
    /// dialogues whose egress has fully flushed. Returns how many were
    /// removed. Call between ticks (it is not part of the zero-alloc
    /// cycle). Sessions detached on connection loss are *not* touched —
    /// they stay resumable until their TTL.
    pub fn reap_closed(&mut self) -> usize {
        let mut reaped = 0;
        for shard in &mut self.shards {
            for idx in 0..shard.conns.len() {
                let done = match &shard.conns[idx] {
                    Some(c) => c.dead || (c.state == ConnState::Closed && c.egress.is_empty()),
                    None => false,
                };
                if done {
                    let mut conn = shard.conns[idx].take().expect("checked live");
                    // Lifecycle paths detach or release a flow before a
                    // connection ends; one still attached here is
                    // released rather than left pointing at a free slot.
                    release(&mut conn, &mut shard.flows);
                    shard.free.push(idx);
                    reaped += 1;
                }
            }
        }
        reaped
    }

    /// Aggregate counters, summed over shards.
    pub fn stats(&self) -> ServeStats {
        let mut out = ServeStats {
            ticks: self.tick,
            ..ServeStats::default()
        };
        for shard in &self.shards {
            out.absorb(&shard.stats);
        }
        out
    }

    /// Sessions currently decoding across all shards (attached and
    /// detached).
    pub fn live_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.flows.pending).sum()
    }

    /// Detached sessions currently held for resumption (pending,
    /// decoded-awaiting-replay, or terminal-awaiting-replay).
    pub fn detached_sessions(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.flows.iter())
            .filter(|f| f.conn.is_none())
            .count()
    }

    /// Whether a connection is currently backpressured (its egress sat
    /// above the high-water mark at its last tick, so its ingress was
    /// not drained).
    pub fn is_backpressured(&self, h: ConnHandle) -> bool {
        self.conn(h).is_some_and(|c| c.backpressured)
    }

    /// Whether a connection has reached a terminal state (closed
    /// dialogue or dead transport).
    pub fn is_closed(&self, h: ConnHandle) -> bool {
        self.conn(h)
            .is_none_or(|c| c.dead || c.state == ConnState::Closed)
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn conn(&self, h: ConnHandle) -> Option<&Conn<T>> {
        self.shards
            .get(h.shard as usize)?
            .conns
            .get(h.idx as usize)?
            .as_ref()
    }

    /// Serializes the server's session state into `out` as a versioned,
    /// CRC-framed warm-restart snapshot — the image [`Server::restore`]
    /// rebuilds a bit-identical server from.
    ///
    /// Every in-flight session is written with its code shape, receive
    /// dynamics and full observation set — what it has heard, not its
    /// decoder state, so an entry's size does not depend on the beam
    /// width. Sessions attached to live connections are imaged as
    /// *detached* under their resume token: transports do not survive a
    /// process, so after a restore every client re-attaches through the
    /// ordinary RESUME path with the token it already holds. Verdicts
    /// held for replay (decoded bits, exhaustion, abandonment) are
    /// imaged verbatim.
    ///
    /// `out` is cleared and refilled, so one buffer amortizes across
    /// periodic snapshots. Counted in [`ServeStats::snapshots`]
    /// (including in the image itself).
    ///
    /// # Errors
    ///
    /// [`SpinalError::Snapshot`] with
    /// [`SnapshotErrorKind::SecretNotPinned`] when
    /// [`ServeConfig::resume_secret`] is `None`: with a process-random
    /// secret, no token a client holds would verify after a restart, so
    /// the snapshot would be unresumable by construction.
    pub fn snapshot_into(&mut self, out: &mut Vec<u8>) -> Result<(), SpinalError> {
        if self.cfg.resume_secret.is_none() {
            return Err(SpinalError::Snapshot {
                kind: SnapshotErrorKind::SecretNotPinned,
            });
        }
        let secret = self.resume_secret;
        let ttl = self.cfg.pool.detach_ttl;
        let tick = self.tick;
        self.shards[0].stats.snapshots += 1;
        let flows = || self.shards.iter().flat_map(|s| s.flows.iter());
        let pending = flows()
            .filter(|f| matches!(f.verdict, Verdict::Pending(_)))
            .count() as u64;

        out.clear();
        write_preamble(out);
        write_header(
            out,
            &SnapshotHeader {
                tick,
                next_conn_id: self.next_conn_id,
                secret_probe: resume_auth(secret, SECRET_PROBE_ID),
                pending,
                entry_count: flows().count() as u32,
                stats: self.stats().to_words().to_vec(),
            },
        );

        for shard in &self.shards {
            for flow in shard.flows.iter() {
                let body = match &flow.verdict {
                    Verdict::Pending(rx) => pending_body(rx),
                    Verdict::Decoded { bits, ack } => EntryBodyRef::Done {
                        bits: bits.as_ref(),
                        ack: *ack,
                    },
                    Verdict::Exhausted => EntryBodyRef::Exhausted,
                    Verdict::Abandoned => EntryBodyRef::Abandoned,
                };
                write_entry(
                    out,
                    &EntryRef {
                        token: ResumeToken {
                            id: flow.token_id,
                            auth: resume_auth(secret, flow.token_id),
                        },
                        mode: flow.mode,
                        expected_seq: flow.expected_seq,
                        // An attached flow is not on the detach clock;
                        // its restored deadline starts at the snapshot
                        // tick.
                        expires_tick: match flow.conn {
                            Some(_) => tick.saturating_add(ttl),
                            None => flow.expires_tick,
                        },
                        body,
                    },
                );
            }
        }
        Ok(())
    }

    /// Rebuilds a server from a warm-restart snapshot written by
    /// [`Server::snapshot_into`].
    ///
    /// The restored server resumes the snapshot's tick clock and
    /// connection-id sequence, so every persisted absolute deadline
    /// (detach TTLs) keeps meaning — no restored session expires
    /// instantly and none becomes immortal. Every in-flight session
    /// comes back *detached* under its original resume token: clients
    /// reconnect and re-attach through the ordinary RESUME path, and a
    /// resumed flow is bit-identical (same `symbols_used`, same
    /// `attempts`) to one the restart never interrupted. Drain state is
    /// deliberately *not* carried: a restore is a fresh process
    /// accepting work, so a pre-crash [`Server::begin_drain`] must be
    /// re-issued if still wanted.
    ///
    /// Degradation is per-section: an entry whose CRC or structure
    /// fails validation (or whose token does not verify against the
    /// pinned secret, or that no longer fits this configuration's
    /// admission limits) is dropped alone; in-flight sessions lost this
    /// way are counted in [`ServeStats::restore_dropped`] so the
    /// lifecycle conservation law closes exactly. Restored entries are
    /// counted in [`ServeStats::restored`]; the snapshot's aggregate
    /// stats carry over.
    ///
    /// # Errors
    ///
    /// [`SpinalError::Snapshot`] — `SecretNotPinned` when `cfg` has no
    /// pinned [`ServeConfig::resume_secret`]; `SecretMismatch` when the
    /// pinned secret differs from the snapshotting server's; `BadMagic`
    /// / `BadVersion` on a foreign image; `Truncated` / `Corrupt` on a
    /// damaged preamble or header (the header is load-bearing — entries
    /// degrade, the header does not). Also propagates
    /// [`ServeConfig::validate`] failures. Never panics, for any input.
    pub fn restore(cfg: ServeConfig, bytes: &[u8]) -> Result<Self, SpinalError> {
        let Some(secret) = cfg.resume_secret else {
            return Err(SpinalError::Snapshot {
                kind: SnapshotErrorKind::SecretNotPinned,
            });
        };
        let mut reader = SnapshotReader::new(bytes)?;
        let header_payload = reader.take_section()?.ok_or(SpinalError::Snapshot {
            kind: SnapshotErrorKind::Corrupt,
        })?;
        let header = parse_header(header_payload)?;
        if header.stats.len() != STAT_WORDS {
            return Err(SpinalError::Snapshot {
                kind: SnapshotErrorKind::Corrupt,
            });
        }
        if header.secret_probe != resume_auth(secret, SECRET_PROBE_ID) {
            return Err(SpinalError::Snapshot {
                kind: SnapshotErrorKind::SecretMismatch,
            });
        }
        let mut server = Server::new(cfg)?;
        let cfg = server.cfg;
        server.tick = header.tick;
        server.next_conn_id = header.next_conn_id;
        let mut words = [0u64; STAT_WORDS];
        words.copy_from_slice(&header.stats);
        server.shards[0].stats = ServeStats::from_words(&words);

        let n_shards = server.shards.len();
        let mut pending_restored = 0u64;
        let mut restored = 0u64;
        while !reader.done() {
            // A CRC-damaged section or an unparseable/forged entry
            // drops that session alone.
            let Some(payload) = reader.take_section()? else {
                continue;
            };
            let Some(entry) = parse_entry(payload) else {
                continue;
            };
            if entry.token.auth != resume_auth(secret, entry.token.id) {
                continue;
            }
            let shard = &mut server.shards[shard_of(entry.token.id, n_shards)];
            if shard.flows.by_token(entry.token.id).is_some() {
                continue;
            }
            let verdict = match entry.body {
                ParsedBody::Pending {
                    shape,
                    attempts,
                    next_attempt,
                    dirty_from,
                    obs,
                } => {
                    let h = Hello {
                        message_bits: shape.message_bits,
                        k: shape.k,
                        c: shape.c,
                        beam: shape.beam,
                        max_symbols: shape.max_symbols,
                        seed: shape.seed,
                        mode: entry.mode,
                    };
                    // Same admission path as the network, same caps.
                    let Ok(mut rx) = admit(&h, &cfg, shard.flows.pending) else {
                        continue;
                    };
                    // The session comes back holding what it had heard:
                    // its next attempt is the one an uninterrupted
                    // server would run, bit for bit.
                    if rx
                        .restore_receive_state(&obs, attempts, next_attempt, dirty_from)
                        .is_err()
                    {
                        continue;
                    }
                    pending_restored += 1;
                    Verdict::Pending(rx)
                }
                ParsedBody::Done { bits, ack } => Verdict::Decoded { bits, ack },
                ParsedBody::Exhausted => Verdict::Exhausted,
                ParsedBody::Abandoned => Verdict::Abandoned,
            };
            shard.flows.insert(Flow {
                token_id: entry.token.id,
                verdict,
                mode: entry.mode,
                expected_seq: entry.expected_seq,
                conn: None,
                expires_tick: entry.expires_tick,
            });
            restored += 1;
        }
        server.shards[0].stats.restored += restored;
        server.shards[0].stats.restore_dropped += header.pending.saturating_sub(pending_restored);
        Ok(server)
    }
}

impl<T: Transport + Send> Server<T> {
    /// Runs one serving cycle with one scoped thread per shard.
    ///
    /// Shards share no mutable state — each owns its flows, scratch,
    /// connections and counters — so the result is bit-identical to the
    /// serial [`tick`](Server::tick): same frames, same verdicts, same
    /// stats, for any shard count.
    pub fn tick_sharded(&mut self) {
        self.tick += 1;
        let t = self.tick;
        let cfg = &self.cfg;
        let drain = self.drain_deadline;
        let secret = self.resume_secret;
        thread::scope(|scope| {
            for shard in &mut self.shards {
                scope.spawn(move || shard_tick(shard, cfg, t, drain, secret));
            }
        });
    }
}

/// What one parsed frame asks the connection to do, decoupled from the
/// frame's borrow of the reassembly buffer (symbols land in the shard
/// scratch before the borrow ends).
enum Action {
    Hello(Hello),
    Data { seq: u64, count: usize },
    ClientClose,
    Ping(u64),
    Ignore,
    Resume(ResumeToken),
    Violation,
}

fn shard_tick<T: Transport>(
    shard: &mut Shard<T>,
    cfg: &ServeConfig,
    tick: u64,
    drain: Option<u64>,
    secret: u64,
) {
    let Shard {
        conns,
        free: _,
        flows,
        resumes,
        scratch,
        rxbuf,
        symbols,
        stats,
    } = shard;
    let ttl = cfg.pool.detach_ttl;

    // Phase 0: expire detached flows past their deadline. The deadline
    // is the one stamped at detach (or carried by a snapshot), so it
    // holds whatever TTL this server was configured with.
    stats.expired += flows.expire(tick);

    // Phases 1 + 2: per-connection flush (with deferred-result retry),
    // then ingress unless backpressured, then the tick-counted
    // lifecycle deadlines.
    for (idx, conn_slot) in conns.iter_mut().enumerate() {
        let Some(conn) = conn_slot.as_mut() else {
            continue;
        };
        if conn.dead {
            continue;
        }

        if let Some(deadline) = drain {
            if !conn.goaway_sent && conn.state != ConnState::Closed {
                conn.goaway_sent = enqueue(
                    &mut conn.egress,
                    cfg,
                    &Frame::GoAway {
                        drain_ticks: deadline.saturating_sub(tick),
                    },
                    stats,
                );
            }
        }

        if !conn.egress.is_empty() {
            match conn.transport.send(&conn.egress) {
                Ok(0) => {}
                Ok(n) => {
                    conn.egress.drain(..n);
                }
                Err(_) => {
                    detach(conn, flows, tick, ttl, stats);
                    conn.dead = true;
                    stats.transport_closed += 1;
                    continue;
                }
            }
        }

        // Undroppable result frames deferred at the capacity cap retry
        // as soon as the queue has room again.
        if conn.egress.len() < cfg.egress_capacity {
            if conn.result_pending {
                conn.result_pending = false;
                if let ConnState::Attached(f) = conn.state {
                    emit_result(&mut conn.egress, flows.get(f));
                }
            }
            if let Some(reason) = conn.close_pending.take() {
                let _ = encode_frame(&Frame::Close { reason }, &mut conn.egress);
            }
        }

        conn.backpressured = conn.egress.len() >= cfg.egress_high_water;
        if conn.backpressured {
            stats.backpressure_ticks += 1;
            continue;
        }

        rxbuf.clear();
        match conn.transport.recv(rxbuf) {
            Ok(0) => {}
            Ok(_) => {
                conn.last_rx_tick = tick;
                conn.pinged = false;
                conn.wire.push_bytes(rxbuf);
            }
            Err(_) => {
                // Let buffered frames finish the dialogue before the
                // close is surfaced; a dead transport with a clean
                // buffer is an orderly close.
                conn.dead = true;
                stats.transport_closed += 1;
            }
        }

        loop {
            if conn.state == ConnState::Closed {
                break;
            }
            let action = match conn.wire.next_frame() {
                Ok(None) => break,
                Ok(Some(Frame::Hello(h))) => Action::Hello(h),
                Ok(Some(Frame::Data { seq, run })) => {
                    symbols.clear();
                    run.copy_into(symbols);
                    Action::Data {
                        seq,
                        count: symbols.len(),
                    }
                }
                Ok(Some(Frame::Close { .. })) => Action::ClientClose,
                Ok(Some(Frame::Ping { nonce })) => Action::Ping(nonce),
                Ok(Some(Frame::Pong { .. })) => Action::Ignore,
                Ok(Some(Frame::Resume { token })) => Action::Resume(token),
                // Server-to-client frames arriving at the server are a
                // dialogue violation, as is anything malformed.
                Ok(Some(_)) => Action::Violation,
                Err(_) => Action::Violation,
            };
            stats.frames_in += 1;
            match action {
                Action::Hello(h) => {
                    if conn.state != ConnState::Greeting || conn.resume_pending {
                        protocol_close(conn, flows, tick, ttl, stats, cfg);
                        break;
                    }
                    if drain.is_some() {
                        // Draining: no new admissions.
                        stats.busy_rejected += 1;
                        enqueue(
                            &mut conn.egress,
                            cfg,
                            &Frame::Busy {
                                live: flows.pending.min(u32::MAX as usize) as u32,
                                max_sessions: cfg.pool.max_sessions.min(u32::MAX as usize) as u32,
                            },
                            stats,
                        );
                        conn.state = ConnState::Closed;
                        continue;
                    }
                    match admit_or_shed(&h, cfg, flows, stats) {
                        Ok(rx) => {
                            let f = flows.insert(Flow {
                                token_id: conn.conn_id,
                                verdict: Verdict::Pending(rx),
                                mode: h.mode,
                                expected_seq: 0,
                                conn: Some(idx),
                                expires_tick: u64::MAX,
                            });
                            conn.state = ConnState::Attached(f);
                            conn.last_snapshot = tick;
                            stats.admitted += 1;
                            enqueue(
                                &mut conn.egress,
                                cfg,
                                &Frame::HelloAck {
                                    token: f as u64,
                                    resume: ResumeToken {
                                        id: conn.conn_id,
                                        auth: resume_auth(secret, conn.conn_id),
                                    },
                                },
                                stats,
                            );
                        }
                        Err(SpinalError::PoolFull {
                            live,
                            max_sessions: max,
                        }) => {
                            stats.busy_rejected += 1;
                            enqueue(
                                &mut conn.egress,
                                cfg,
                                &Frame::Busy {
                                    live: live.min(u32::MAX as usize) as u32,
                                    max_sessions: max.min(u32::MAX as usize) as u32,
                                },
                                stats,
                            );
                            conn.state = ConnState::Closed;
                        }
                        Err(_) => {
                            protocol_close(conn, flows, tick, ttl, stats, cfg);
                            break;
                        }
                    }
                }
                Action::Data { seq, count } => match conn.state {
                    ConnState::Greeting => {
                        protocol_close(conn, flows, tick, ttl, stats, cfg);
                        break;
                    }
                    ConnState::Closed => {}
                    ConnState::Attached(f) => {
                        let flow = flows.get_mut(f);
                        match &mut flow.verdict {
                            Verdict::Pending(rx) => {
                                stats.symbols_in += count as u64;
                                if seq > flow.expected_seq {
                                    if flow.mode == FeedbackMode::Nack && !conn.nacked {
                                        enqueue(
                                            &mut conn.egress,
                                            cfg,
                                            &Frame::Nack {
                                                expected_seq: flow.expected_seq,
                                            },
                                            stats,
                                        );
                                        conn.nacked = true;
                                    }
                                } else {
                                    // In-order or replayed-from-the-gap
                                    // data: the NACK did its job (or none
                                    // was owed).
                                    conn.nacked = false;
                                }
                                flow.expected_seq = flow.expected_seq.max(seq + count as u64);
                                if rx.absorb_at(symbols).is_err() {
                                    protocol_close(conn, flows, tick, ttl, stats, cfg);
                                    break;
                                }
                            }
                            // Re-ACK so a lost ACK heals off the sender's
                            // own continued transmissions (unless the full
                            // result is still deferred — it already
                            // carries the ACK).
                            &mut Verdict::Decoded {
                                ack: (symbols_used, attempts),
                                ..
                            } => {
                                if !conn.result_pending {
                                    enqueue(
                                        &mut conn.egress,
                                        cfg,
                                        &Frame::Ack {
                                            symbols_used,
                                            attempts,
                                        },
                                        stats,
                                    );
                                }
                            }
                            // An attached flow that exhausts or is
                            // abandoned closes its connection at once.
                            Verdict::Exhausted | Verdict::Abandoned => {}
                        }
                    }
                },
                Action::ClientClose => {
                    // An orderly close renounces the flow — nothing is
                    // kept for resumption.
                    release(conn, flows);
                }
                Action::Ping(nonce) => {
                    enqueue(&mut conn.egress, cfg, &Frame::Pong { nonce }, stats);
                }
                Action::Ignore => {}
                Action::Resume(token) => {
                    if conn.state != ConnState::Greeting || conn.resume_pending {
                        protocol_close(conn, flows, tick, ttl, stats, cfg);
                        break;
                    }
                    conn.resume_pending = true;
                    resumes.push((idx, token));
                }
                Action::Violation => {
                    protocol_close(conn, flows, tick, ttl, stats, cfg);
                    break;
                }
            }
        }

        if conn.dead {
            detach(conn, flows, tick, ttl, stats);
            continue;
        }

        // Tick-counted idle lifecycle: probe past keepalive_idle, give
        // up (detaching the session for resumption) past idle_deadline.
        if conn.state != ConnState::Closed {
            let idle = tick.saturating_sub(conn.last_rx_tick);
            if idle >= cfg.idle_deadline {
                detach(conn, flows, tick, ttl, stats);
                conn.dead = true;
                stats.idle_closed += 1;
                continue;
            }
            if idle >= cfg.keepalive_idle && !conn.pinged {
                enqueue(&mut conn.egress, cfg, &Frame::Ping { nonce: tick }, stats);
                conn.pinged = true;
                stats.keepalive_pings += 1;
            }
        }

        // Drain deadline: whatever still streams is detached under its
        // token and the dialogue closed.
        if let Some(deadline) = drain {
            if tick >= deadline && conn.state != ConnState::Closed {
                detach(conn, flows, tick, ttl, stats);
                send_close(conn, cfg, stats, CloseReason::Shed);
            }
        }
    }

    // Phase 2.5: deferred RESUME requests. Deferral means every
    // connection has already processed this tick's ingress — including
    // the death of a connection this resume supersedes — so
    // re-attachment order is index-deterministic and never racy.
    for &(cidx, token) in resumes.iter() {
        // Only a token minted under this server's secret names a flow.
        let f = if token.auth == resume_auth(secret, token.id) {
            flows.by_token(token.id)
        } else {
            None
        };
        // Takeover: the flow may still be attached to an older
        // connection the client abandoned (its death not yet observed).
        // Newest connection wins; the stale one is detached and closed.
        if let Some(o) = f.and_then(|f| flows.get(f).conn) {
            let oc = conns[o].as_mut().expect("a flow's connection is live");
            detach(oc, flows, tick, ttl, stats);
            oc.dead = true;
        }
        let Some(conn) = conns.get_mut(cidx).and_then(|c| c.as_mut()) else {
            continue;
        };
        if conn.dead || conn.state != ConnState::Greeting {
            continue;
        }
        conn.resume_pending = false;
        let Some(f) = f else {
            stats.resume_rejected += 1;
            send_close(conn, cfg, stats, CloseReason::ResumeInvalid);
            conn.state = ConnState::Closed;
            continue;
        };
        stats.resumed += 1;
        let flow = flows.get_mut(f);
        if let Some(reason) = flow.verdict.close_reason() {
            // A verdict reached while detached is replayed once, then
            // the flow is done.
            flows.remove(f);
            send_close(conn, cfg, stats, reason);
            conn.state = ConnState::Closed;
            continue;
        }
        flow.conn = Some(cidx);
        conn.state = ConnState::Attached(f);
        conn.last_snapshot = tick;
        enqueue(
            &mut conn.egress,
            cfg,
            &Frame::ResumeAck {
                expected_seq: flow.expected_seq,
            },
            stats,
        );
        if matches!(flow.verdict, Verdict::Decoded { .. }) {
            enqueue_result(conn, flow, cfg, stats);
        }
    }
    resumes.clear();

    // Phase 3: drive every pending session through the shard's one
    // scratch and deliver the verdicts. Detached flows are driven
    // exactly like attached ones — a pending attempt concludes in the
    // same tick it would have with the driver present, which is what
    // keeps resume bit-identical.
    let ceiling = cfg.pool.max_session_attempts;
    for f in 0..flows.slab.len() {
        let Some(Flow {
            verdict: Verdict::Pending(rx),
            ..
        }) = flows.slab[f].as_mut()
        else {
            continue;
        };
        let verdict = if rx.attempts() >= ceiling && rx.attempt_due() {
            // The §3 escape hatch: this session has spent its attempt
            // budget without decoding — garbage input, a hopeless
            // channel, or a misbound code. Stop paying for it.
            stats.abandoned += 1;
            Verdict::Abandoned
        } else {
            match rx.poll(scratch) {
                None | Some(Poll::NeedMore { .. }) => continue,
                Some(Poll::Decoded {
                    symbols_used,
                    attempts,
                }) => {
                    stats.decoded += 1;
                    Verdict::Decoded {
                        bits: rx.payload().cloned(),
                        ack: (symbols_used, attempts),
                    }
                }
                Some(Poll::Exhausted { .. }) => {
                    stats.exhausted += 1;
                    Verdict::Exhausted
                }
            }
        };
        flows.settle(f, verdict);
        let flow = flows.get(f);
        // A detached flow holds its verdict for replay on resume.
        let Some(cidx) = flow.conn else {
            continue;
        };
        let conn = conns[cidx].as_mut().expect("a flow's connection is live");
        match flow.verdict.close_reason() {
            None => enqueue_result(conn, flow, cfg, stats),
            Some(reason) => {
                release(conn, flows);
                send_close(conn, cfg, stats, reason);
            }
        }
    }

    // Phase 4: cumulative-ACK snapshots.
    for conn in conns.iter_mut().flatten() {
        let ConnState::Attached(f) = conn.state else {
            continue;
        };
        let flow = flows.get(f);
        let FeedbackMode::CumulativeAck { period } = flow.mode else {
            continue;
        };
        if tick.saturating_sub(conn.last_snapshot) < period {
            continue;
        }
        conn.last_snapshot = tick;
        let (decoded, symbols_used) = match &flow.verdict {
            Verdict::Decoded { ack, .. } => (true, ack.0),
            Verdict::Pending(rx) => (false, rx.symbols()),
            Verdict::Exhausted | Verdict::Abandoned => (false, 0),
        };
        enqueue(
            &mut conn.egress,
            cfg,
            &Frame::CumAck {
                decoded,
                symbols_used,
            },
            stats,
        );
    }
}

/// The snapshot image of one in-flight session: the HELLO-equivalent
/// shape (so restore re-admits through [`admit`]), the receive
/// dynamics that schedule the next attempt, and the full observation
/// set. A session holds no decoder state between attempts, so that is
/// all its next attempt needs.
fn pending_body(rx: &Rx) -> EntryBodyRef<'_> {
    EntryBodyRef::Pending {
        shape: PendingShape {
            message_bits: rx.params().message_bits(),
            k: rx.params().k(),
            c: rx.decoder().mapper().c(),
            beam: rx.config().beam.beam_width as u32,
            max_symbols: rx.config().max_symbols,
            seed: rx.params().seed(),
        },
        attempts: rx.attempts(),
        next_attempt: rx.next_attempt(),
        dirty_from: rx.dirty_from(),
        obs: rx.observations(),
    }
}

/// Validates a HELLO against a shard holding `pending` sessions and
/// builds the flow's session.
///
/// A served session attempts only when the attempt fits its frontier
/// cap ([`RxConfig::exact_attempts`]), so a shape whose gap-free level
/// cannot fit (`B × 2^k` over the cap) could never attempt, and is
/// refused like any other inadmissible shape. A valid shape at the
/// admission ceiling gets [`SpinalError::PoolFull`].
fn admit(h: &Hello, cfg: &ServeConfig, pending: usize) -> Result<Box<Rx>, SpinalError> {
    const CORRUPT: SpinalError = SpinalError::Wire {
        kind: WireErrorKind::Corrupt,
    };
    let beam = BeamConfig::with_beam(h.beam as usize);
    let shape_ok = h.message_bits >= 1
        && h.message_bits <= cfg.max_message_bits
        && (1..=16).contains(&h.k)
        && h.beam >= 1
        && h.beam <= cfg.max_beam
        && u64::from(h.beam) << h.k <= beam.max_frontier as u64
        && h.max_symbols >= 1;
    if !shape_ok {
        return Err(CORRUPT);
    }
    let params = CodeParams::builder()
        .message_bits(h.message_bits)
        .k(h.k)
        .seed(h.seed)
        .build()
        .map_err(|_| CORRUPT)?;
    let mapper = LinearMapper::try_new(h.c).map_err(|_| CORRUPT)?;
    if pending >= cfg.pool.max_sessions {
        return Err(SpinalError::PoolFull {
            live: pending,
            max_sessions: cfg.pool.max_sessions,
        });
    }
    // DATA frames carry explicit slots and are ingested by slot, so the
    // session's schedule never labels a symbol: the paper's stride-8
    // schedule stands in.
    let code = SpinalCode::new(
        params,
        Lookup3::new(h.seed),
        mapper,
        StridedPuncture::stride8(),
    );
    let rx = code.rx_session(
        AwgnCost,
        AnyTerminator::crc(Checksum::Crc16),
        RxConfig {
            beam,
            max_symbols: h.max_symbols,
            attempt_growth: 1.0,
            exact_attempts: true,
        },
    )?;
    Ok(Box::new(rx))
}

/// [`admit`], shedding the costliest orphan (and retrying) each time the
/// shard is at its admission ceiling — new work preempts orphaned work,
/// never the other way around.
fn admit_or_shed(
    h: &Hello,
    cfg: &ServeConfig,
    flows: &mut FlowTable,
    stats: &mut ServeStats,
) -> Result<Box<Rx>, SpinalError> {
    loop {
        match admit(h, cfg, flows.pending) {
            Err(full @ SpinalError::PoolFull { .. }) => {
                let f = flows.costliest_orphan().ok_or(full)?;
                flows.remove(f);
                stats.shed += 1;
            }
            other => return other,
        }
    }
}

/// Unlinks a connection from its flow and starts the flow's detach
/// clock, so a later RESUME can pick it up: a pending session keeps
/// decoding as an orphan, a decoded one keeps its result for replay.
/// The connection ends `Closed`; a greeting one carried nothing.
fn detach<T>(
    conn: &mut Conn<T>,
    flows: &mut FlowTable,
    tick: u64,
    ttl: u64,
    stats: &mut ServeStats,
) {
    if let ConnState::Attached(f) = conn.state {
        let flow = flows.get_mut(f);
        flow.conn = None;
        flow.expires_tick = tick.saturating_add(ttl);
        conn.result_pending = false;
        stats.detached += 1;
    }
    conn.state = ConnState::Closed;
}

/// Closes a connection and drops its flow for good, session included:
/// nothing is kept for resumption.
fn release<T>(conn: &mut Conn<T>, flows: &mut FlowTable) {
    if let ConnState::Attached(f) = conn.state {
        flows.remove(f);
    }
    conn.state = ConnState::Closed;
}

fn protocol_close<T>(
    conn: &mut Conn<T>,
    flows: &mut FlowTable,
    tick: u64,
    ttl: u64,
    stats: &mut ServeStats,
    cfg: &ServeConfig,
) {
    // A mid-stream violation is treated as connection loss (a corrupted
    // byte at the transport boundary, say): a pending session detaches
    // and stays resumable instead of being dropped.
    match conn.state {
        ConnState::Attached(f) if matches!(flows.get(f).verdict, Verdict::Pending(_)) => {
            detach(conn, flows, tick, ttl, stats);
        }
        _ => release(conn, flows),
    }
    stats.protocol_errors += 1;
    send_close(conn, cfg, stats, CloseReason::Protocol);
}

/// Queues a decoded flow's result (`Decoded` + `Ack`) — undroppable:
/// at the capacity cap it defers and retries every tick instead.
fn enqueue_result<T>(conn: &mut Conn<T>, flow: &Flow, cfg: &ServeConfig, stats: &mut ServeStats) {
    if conn.egress.len() >= cfg.egress_capacity {
        conn.result_pending = true;
        stats.result_deferred += 1;
        return;
    }
    emit_result(&mut conn.egress, flow);
}

/// Encodes a decoded flow's result frames unconditionally (capacity was
/// checked by the caller or the retry loop).
fn emit_result(egress: &mut Vec<u8>, flow: &Flow) {
    let Verdict::Decoded { bits, ack } = &flow.verdict else {
        return;
    };
    if let Some(bits) = bits {
        let _ = encode_frame(
            &Frame::Decoded(crate::wire::DecodedBits::from_bits(bits)),
            egress,
        );
    }
    if !matches!(flow.mode, FeedbackMode::CumulativeAck { .. }) {
        let (symbols_used, attempts) = *ack;
        let _ = encode_frame(
            &Frame::Ack {
                symbols_used,
                attempts,
            },
            egress,
        );
    }
}

/// Queues a Close frame — undroppable: at the capacity cap it defers
/// (first reason wins) and retries every tick instead.
fn send_close<T>(
    conn: &mut Conn<T>,
    cfg: &ServeConfig,
    stats: &mut ServeStats,
    reason: CloseReason,
) {
    if conn.egress.len() >= cfg.egress_capacity {
        if conn.close_pending.is_none() {
            conn.close_pending = Some(reason);
            stats.result_deferred += 1;
        }
        return;
    }
    let _ = encode_frame(&Frame::Close { reason }, &mut conn.egress);
}

/// Appends a droppable frame to a connection's bounded egress queue,
/// dropping it (counted) at the capacity cap. Returns whether it was
/// queued.
fn enqueue(
    egress: &mut Vec<u8>,
    cfg: &ServeConfig,
    frame: &Frame<'_>,
    stats: &mut ServeStats,
) -> bool {
    if egress.len() >= cfg.egress_capacity {
        stats.egress_overflow += 1;
        return false;
    }
    // Oversized cannot trigger: every server frame is bounded by
    // max_message_bits, far under the frame cap.
    let _ = encode_frame(frame, egress);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counter table fixes the snapshot's stats words: 23 of them,
    /// in declaration order, round-tripping exactly.
    #[test]
    fn stat_words_keep_snapshot_order() {
        let words: [u64; STAT_WORDS] = std::array::from_fn(|i| i as u64);
        let stats = ServeStats::from_words(&words);
        assert_eq!(STAT_WORDS, 23);
        assert_eq!(
            (
                stats.ticks,
                stats.admitted,
                stats.symbols_in,
                stats.detached,
                stats.restore_dropped
            ),
            (0, 1, 11, 12, 22)
        );
        assert_eq!(stats.to_words(), words);
        let mut sum = stats;
        sum.absorb(&stats);
        assert_eq!(sum.ticks, 0, "absorb skips the clock");
        assert_eq!(sum.restore_dropped, 44);
    }
}
