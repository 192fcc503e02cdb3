//! Multi-session scheduling: one decoder core serving many live
//! [`RxSession`]s.
//!
//! A base station or access point decodes many concurrent spinal-coded
//! flows, not one. Driving each flow's session in isolation wastes its
//! **expansion scratch**: a decode attempt's working set is dominated by
//! the frontier and child expansion buffers (`B × 2^k` SoA rows plus
//! the hash-block cache), which carry no information between attempts.
//! Per-session scratches cost every session that memory and turn every
//! attempt into a sweep over cold buffers once a few dozen sessions
//! interleave; the pool keeps **one** scratch hot and lends it to every
//! attempt, so a pooled session holds only its observations and its
//! checkpoint store — which still makes each retry incremental
//! ([`BeamDecoder::decode_incremental`](crate::decode::BeamDecoder::decode_incremental)).
//!
//! # Whole attempts through one scratch
//!
//! A [`drive`](MultiDecoder::drive_into) runs its due attempts one after
//! another in ascending slot order, each whole: one
//! [`BeamDecoder::decode_incremental`](crate::decode::BeamDecoder::decode_incremental)
//! call through the shared scratch — the routine a solo
//! [`RxSession::ingest`] runs through its own scratch. Results are
//! therefore **bit-identical** to driving each session alone (pinned by
//! `tests/multi_session_equivalence.rs`). The scratch's plan-geometry
//! slot also carries across attempts, so consecutive same-shape
//! attempts whose levels see the same pass list skip the rebuild.
//!
//! # Scheduling policy: deadline-driven drives
//!
//! [`ingest`](MultiDecoder::ingest) only *absorbs* symbols; attempts run
//! at the next [`drive_into`](MultiDecoder::drive_into). Each drive has
//! a **work budget** in tree nodes expanded
//! ([`MultiConfig::work_budget`], or a one-off budget via
//! [`MultiDecoder::drive_until`]) — the deadline knob, since nodes are
//! the unit of decode wall time: one level may cost `2^k` nodes or the
//! whole frontier cap. An attempt's price is exact before it runs: the
//! decoder walks its frontier arithmetic, without expanding anything,
//! from the level it resumes at (the lower of its dirty depth and
//! [`BeamCheckpoints::valid_levels`](crate::decode::BeamCheckpoints::valid_levels)).
//! The pool serves the **cheapest attempts first** until the budget is
//! spent, and defers the rest with a [`SessionOutcome::Deferred`] event
//! and an aging escape hatch: a session deferred for more than a few
//! drives is served regardless of cost, so no session starves under a
//! saturating load.
//!
//! Two protections bound the damage any one flow can do: **admission
//! control** ([`MultiConfig::max_sessions`]) rejects inserts beyond a
//! resident ceiling, and the **per-session attempt ceiling**
//! ([`MultiConfig::max_session_attempts`]) abandons sessions that keep
//! exhausting attempts on garbage input — the abandoned session is
//! quarantined (never scheduled again, ingest rejected with
//! [`SpinalError::SessionQuarantined`]) until removed.
//!
//! # Shedding
//!
//! The pool keeps no lifecycle: which sessions are orphaned, resumable
//! or expired is the serving layer's record alone. Under overload the
//! caller names its candidates, and
//! [`shed_costliest`](MultiDecoder::shed_costliest) removes the one
//! whose next attempt would cost the most.
//!
//! # Determinism contract
//!
//! For every session, the poll events a drive emits are a pure function
//! of the symbols ingested between drives — identical to calling
//! [`RxSession::ingest`] with the same symbols coalesced per drive, and
//! therefore independent of attempt ordering and of the work budget.
//! Only latency is policy; results never are.
//!
//! # Example
//!
//! ```
//! use spinal_core::code::SpinalCode;
//! use spinal_core::frame::AnyTerminator;
//! use spinal_core::sched::{MultiConfig, MultiDecoder};
//! use spinal_core::session::RxConfig;
//! use spinal_core::BitVec;
//!
//! let code = SpinalCode::fig2(24, 7).unwrap();
//! let mut pool = MultiDecoder::new(MultiConfig::default());
//! let mut txs = Vec::new();
//! let mut ids = Vec::new();
//! for i in 0..4u8 {
//!     let msg = BitVec::from_bytes(&[i, 0xca, 0xfe]);
//!     txs.push(code.tx_session(&msg).unwrap());
//!     let rx = code
//!         .awgn_rx_session(AnyTerminator::genie(msg), RxConfig::default())
//!         .unwrap();
//!     ids.push(pool.insert(rx).unwrap());
//! }
//! // Noiseless round-robin: one symbol per session per drive.
//! let mut events = Vec::new();
//! let mut live = ids.len();
//! while live > 0 {
//!     for (tx, &id) in txs.iter_mut().zip(&ids) {
//!         if pool.get(id).unwrap().is_finished() {
//!             continue;
//!         }
//!         let (_slot, sym) = tx.next_symbol();
//!         pool.ingest(id, &[sym]).unwrap();
//!     }
//!     pool.drive_into(&mut events);
//!     live -= events.iter().filter(|e| e.is_decoded()).count();
//! }
//! ```

use std::cmp::Reverse;

use crate::decode::cost::CostModel;
use crate::decode::{BeamDecoder, DecoderScratch};
use crate::error::SpinalError;
use crate::hash::SpineHash;
use crate::map::Mapper;
use crate::puncture::PunctureSchedule;
use crate::session::{Poll, RxSession};
use crate::symbol::Slot;

/// Drives a session waits before aging lifts it over the
/// cheapest-first policy (the starvation bound: no due attempt is
/// deferred more than this many drives beyond the backlog's length).
const AGING_ROUNDS: u64 = 4;

/// Pool-level resource configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiConfig {
    /// Work one drive may spend, counted in tree nodes expanded (each
    /// served attempt priced exactly, before it runs, from its resume
    /// level) — the deadline knob: nodes are the unit of decode wall
    /// time, so a latency target translates directly into a node
    /// budget. Due attempts beyond the budget are deferred with a
    /// [`SessionOutcome::Deferred`] event (cheapest retries and aged
    /// sessions first; at least one attempt always runs, so a drive
    /// always makes progress). `u64::MAX` (the default) runs every due
    /// attempt, which keeps the pool's polls bit-identical to solo
    /// sessions. [`MultiDecoder::drive_until`] overrides it per drive.
    pub work_budget: u64,
    /// Per-session decode-attempt ceiling — the paper's §3 "too much
    /// time has been spent" escape hatch promoted into the pool. A
    /// session whose attempt would exceed it is abandoned
    /// ([`SessionOutcome::Abandoned`]) and quarantined: it stops being
    /// scheduled, its checkpoints are freed, and further
    /// [`ingest`](MultiDecoder::ingest) calls return
    /// [`SpinalError::SessionQuarantined`] until it is removed.
    /// `u32::MAX` (the default) disables the ceiling.
    pub max_session_attempts: u32,
    /// Admission control: most live sessions the pool will hold;
    /// [`insert`](MultiDecoder::insert) returns
    /// [`SpinalError::PoolFull`] beyond it. `usize::MAX` (the default)
    /// disables admission control.
    pub max_sessions: usize,
    /// Ticks a detached session stays resumable — the TTL the serving
    /// layer (`spinal-serve`'s server) enforces on its own detached
    /// entries. The pool never reads it. `u64::MAX` (the default)
    /// disables expiry.
    pub detach_ttl: u64,
}

impl Default for MultiConfig {
    fn default() -> Self {
        Self {
            work_budget: u64::MAX,
            max_session_attempts: u32::MAX,
            max_sessions: usize::MAX,
            detach_ttl: u64::MAX,
        }
    }
}

/// Names a live session of a [`MultiDecoder`]. Ids are generational:
/// the id of a removed session never resurrects, even if its slot is
/// reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId {
    index: u32,
    gen: u32,
}

impl SessionId {
    /// The pool slot this id occupies, in `0..`[`MultiConfig::max_sessions`].
    /// Slots are reused after [`MultiDecoder::remove`] (the generation half
    /// of the id is what never resurrects), so this is a dense key for
    /// caller-side lookup tables sized to the pool, not a stable identity.
    pub fn slot(&self) -> usize {
        self.index as usize
    }
}

/// What a drive concluded for one session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// An attempt (or budget check) ran: the same [`Poll`] a solo
    /// [`RxSession::ingest`] of the symbols absorbed since the previous
    /// drive would have returned.
    Poll(Poll),
    /// The session's due attempt was shed by this drive's work budget;
    /// it stays due and ages toward priority service. Purely
    /// informational — latency policy, never a result.
    Deferred {
        /// Drives this attempt has been waiting since it became due.
        waited: u64,
        /// Tree nodes the deferred attempt would have expanded (its
        /// cost under the budget).
        nodes: u64,
    },
    /// The session hit [`MultiConfig::max_session_attempts`] without
    /// decoding and was quarantined: terminal, no payload. Emitted
    /// exactly once; [`MultiDecoder::remove`] reclaims the slot.
    Abandoned {
        /// Decode attempts the session ran before giving up.
        attempts: u32,
        /// Symbols it had consumed.
        symbols: u64,
    },
}

/// One session's outcome from a [`MultiDecoder::drive_into`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionEvent {
    /// The session the outcome belongs to.
    pub id: SessionId,
    /// What the drive concluded for it.
    pub outcome: SessionOutcome,
}

impl SessionEvent {
    /// The [`Poll`] this event carries, if its outcome was a poll —
    /// `None` for `Deferred`/`Abandoned` bookkeeping events.
    pub fn poll(&self) -> Option<Poll> {
        match self.outcome {
            SessionOutcome::Poll(p) => Some(p),
            _ => None,
        }
    }

    /// `true` when this event reports an accepted decode.
    pub fn is_decoded(&self) -> bool {
        matches!(self.outcome, SessionOutcome::Poll(Poll::Decoded { .. }))
    }
}

#[derive(Debug)]
struct Managed<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>, P: PunctureSchedule> {
    rx: RxSession<H, M, C, P>,
    gen: u32,
    /// Round its pending attempt became due (`u64::MAX` = not due).
    due_since: u64,
    /// Symbols absorbed since the last emitted event.
    absorbed: usize,
    /// Abandoned at the attempt ceiling: never scheduled again, ingest
    /// rejected, waiting for [`MultiDecoder::remove`].
    quarantined: bool,
}

/// A pool of live receiver sessions sharing one decoder core — see the
/// [module docs](self) for the scratch, policy, and determinism story.
#[derive(Debug)]
pub struct MultiDecoder<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>, P: PunctureSchedule> {
    cfg: MultiConfig,
    slots: Vec<Option<Managed<H, M, C, P>>>,
    free: Vec<u32>,
    /// Next generation per slot (bumped at removal, adopted at reuse),
    /// so stale [`SessionId`]s never resolve.
    next_gen: Vec<u32>,
    live: usize,
    round: u64,
    quarantined: u64,
    /// Indices of the sessions selected for attempts this drive.
    due: Vec<u32>,
    /// Indices of due sessions shed by the work budget this drive.
    deferred: Vec<u32>,
    /// The one scratch every attempt runs through.
    shared: DecoderScratch,
}

impl<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>, P: PunctureSchedule> Default
    for MultiDecoder<H, M, C, P>
{
    fn default() -> Self {
        Self::new(MultiConfig::default())
    }
}

impl<H: SpineHash, M: Mapper, C: CostModel<M::Symbol>, P: PunctureSchedule>
    MultiDecoder<H, M, C, P>
{
    /// Creates an empty pool.
    pub fn new(cfg: MultiConfig) -> Self {
        Self {
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: Vec::new(),
            live: 0,
            round: 0,
            quarantined: 0,
            due: Vec::new(),
            deferred: Vec::new(),
            shared: DecoderScratch::new(),
        }
    }

    /// The pool configuration in use.
    pub fn config(&self) -> &MultiConfig {
        &self.cfg
    }

    /// Live sessions in the pool.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when the pool holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drives run so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Sessions abandoned at the attempt ceiling and quarantined so far
    /// (lifetime count, not currently-resident count).
    pub fn quarantines(&self) -> u64 {
        self.quarantined
    }

    /// `true` when `id` names a quarantined session (abandoned at the
    /// attempt ceiling, waiting for [`remove`](Self::remove)).
    pub fn is_quarantined(&self, id: SessionId) -> bool {
        matches!(
            self.slots.get(id.index as usize),
            Some(Some(m)) if m.gen == id.gen && m.quarantined
        )
    }

    /// Removes the session with the highest predicted remaining cost
    /// among `candidates` — most tree nodes its next attempt would
    /// expand, then most checkpoint bytes, then lowest slot index
    /// (deterministic) — and returns its id. Stale ids are skipped and
    /// sessions left out of `candidates` are never touched; `None` when
    /// no candidate is live. This is the overload-shedding lever: the
    /// serving layer passes the orphans only it knows about, so under
    /// pool pressure a session nobody may ever reclaim is abandoned
    /// before any connected `Hello` is refused.
    pub fn shed_costliest(
        &mut self,
        candidates: impl IntoIterator<Item = SessionId>,
    ) -> Option<SessionId> {
        let (_, id) = candidates
            .into_iter()
            .filter_map(|id| {
                let rx = self.get(id)?;
                let cost = (rx.nodes_to_run(), rx.checkpoint_bytes());
                Some(((cost, Reverse(id.index)), id))
            })
            .max_by_key(|&(key, _)| key)?;
        self.remove(id).expect("a resolved candidate is live");
        Some(id)
    }

    /// Total checkpoint memory currently held across the pool.
    pub fn checkpoint_bytes(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(|m| m.rx.checkpoint_bytes())
            .sum()
    }

    /// Adopts a session into the pool and returns its id.
    ///
    /// # Errors
    ///
    /// [`SpinalError::PoolFull`] when admission control
    /// ([`MultiConfig::max_sessions`]) rejects the session — the caller
    /// should shed load (or [`remove`](Self::remove) finished sessions)
    /// and retry.
    pub fn insert(&mut self, rx: RxSession<H, M, C, P>) -> Result<SessionId, SpinalError> {
        if self.live >= self.cfg.max_sessions {
            return Err(SpinalError::PoolFull {
                live: self.live,
                max_sessions: self.cfg.max_sessions,
            });
        }
        self.live += 1;
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.slots.push(None);
                self.next_gen.push(0);
                self.slots.len() as u32 - 1
            }
        };
        let gen = self.next_gen[index as usize];
        self.slots[index as usize] = Some(Managed {
            rx,
            gen,
            due_since: u64::MAX,
            absorbed: 0,
            quarantined: false,
        });
        Ok(SessionId { index, gen })
    }

    /// Removes a session, returning it (final results included).
    ///
    /// # Errors
    ///
    /// [`SpinalError::UnknownSession`] for a stale or foreign id.
    pub fn remove(&mut self, id: SessionId) -> Result<RxSession<H, M, C, P>, SpinalError> {
        self.resolve(id)?;
        let m = self.slots[id.index as usize]
            .take()
            .expect("resolved slot is live");
        self.free.push(id.index);
        self.next_gen[id.index as usize] = m.gen + 1;
        self.live -= 1;
        Ok(m.rx)
    }

    /// Borrows a session (payload, stats, observations, …).
    pub fn get(&self, id: SessionId) -> Option<&RxSession<H, M, C, P>> {
        match self.slots.get(id.index as usize) {
            Some(Some(m)) if m.gen == id.gen => Some(&m.rx),
            _ => None,
        }
    }

    /// Borrows a session mutably (e.g. to reseed a genie terminator).
    /// Mutations that add symbols behind the pool's back are tolerated —
    /// due-ness is recomputed from session state each drive — but
    /// [`ingest`](Self::ingest) keeps the event bookkeeping exact.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut RxSession<H, M, C, P>> {
        match self.slots.get_mut(id.index as usize) {
            Some(Some(m)) if m.gen == id.gen => Some(&mut m.rx),
            _ => None,
        }
    }

    /// Rebinds a session to a new decoder (the next trial's reseeded
    /// code) in place, clearing its received state — the pool analogue
    /// of [`RxSession::rebind`], reusing every buffer.
    ///
    /// # Errors
    ///
    /// [`SpinalError::UnknownSession`] for a stale or foreign id.
    pub fn rebind(
        &mut self,
        id: SessionId,
        decoder: BeamDecoder<H, M, C>,
    ) -> Result<(), SpinalError> {
        self.resolve(id)?;
        let m = self.slots[id.index as usize]
            .as_mut()
            .expect("resolved slot is live");
        m.rx.rebind(decoder);
        m.due_since = u64::MAX;
        m.absorbed = 0;
        m.quarantined = false;
        Ok(())
    }

    /// Absorbs received symbols into a session (slot-labelled by its
    /// schedule cursor, like [`RxSession::ingest`]) **without** running
    /// a decode attempt — attempts run at the next
    /// [`drive_into`](Self::drive_into).
    ///
    /// # Errors
    ///
    /// [`SpinalError::UnknownSession`] for a stale id,
    /// [`SpinalError::SessionQuarantined`] for an abandoned session
    /// awaiting removal, [`SpinalError::SessionFinished`] after a
    /// terminal poll.
    pub fn ingest(&mut self, id: SessionId, symbols: &[M::Symbol]) -> Result<(), SpinalError> {
        self.resolve(id)?;
        let m = self.slots[id.index as usize]
            .as_mut()
            .expect("resolved slot is live");
        if m.quarantined {
            return Err(SpinalError::SessionQuarantined);
        }
        let consumed = m.rx.absorb(symbols)?;
        m.absorbed += consumed;
        Ok(())
    }

    /// [`ingest`](Self::ingest) for explicitly slot-labelled symbols
    /// (out-of-order arrival, erasure links).
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest), plus
    /// [`SpinalError::SlotOutOfRange`] (before consuming anything) for a
    /// slot outside the session's spine.
    pub fn ingest_at(
        &mut self,
        id: SessionId,
        symbols: &[(Slot, M::Symbol)],
    ) -> Result<(), SpinalError> {
        self.resolve(id)?;
        let m = self.slots[id.index as usize]
            .as_mut()
            .expect("resolved slot is live");
        if m.quarantined {
            return Err(SpinalError::SessionQuarantined);
        }
        let consumed = m.rx.absorb_at(symbols)?;
        m.absorbed += consumed;
        Ok(())
    }

    /// Runs the pool one scheduling round under the configured
    /// [`MultiConfig::work_budget`]: selects due attempts (all of them
    /// by default; cheapest-first with aging under a budget), abandons
    /// sessions at their attempt ceiling, runs the selected attempts
    /// whole, one after another in ascending slot order, through the
    /// shared scratch, emits one
    /// [`SessionEvent`] per session with activity — including
    /// [`SessionOutcome::Deferred`] for shed attempts. `events` is
    /// cleared first and reused.
    pub fn drive_into(&mut self, events: &mut Vec<SessionEvent>) {
        self.drive_until_into(self.cfg.work_budget, events);
    }

    /// [`drive_into`](Self::drive_into) with a one-off work budget, in
    /// tree nodes — the deadline-driven drive: serve due attempts
    /// cheapest-first until `work_budget` nodes have been spent, defer
    /// the rest with aging. At least one due attempt always runs
    /// (otherwise a budget below the cheapest attempt would livelock
    /// the pool), and an aged session (deferred ≥ a few drives) is
    /// served before any cheap newcomer, so no session starves.
    pub fn drive_until_into(&mut self, work_budget: u64, events: &mut Vec<SessionEvent>) {
        events.clear();
        self.round += 1;
        let round = self.round;
        let ceiling = self.cfg.max_session_attempts;

        // Select the attempts to run; abandon sessions over the
        // per-session attempt ceiling instead of serving them.
        self.due.clear();
        self.deferred.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(m) = slot.as_mut() else { continue };
            if m.quarantined {
                continue;
            }
            if !m.rx.is_listening() {
                m.due_since = u64::MAX;
                continue;
            }
            if m.rx.attempt_due() {
                if m.rx.attempts() >= ceiling {
                    // The §3 escape hatch: this session has spent its
                    // attempt budget without decoding — garbage input,
                    // a hopeless channel, or a misbound code. Stop
                    // paying for it: terminal state, checkpoints freed,
                    // slot quarantined until the caller removes it.
                    m.rx.abandon();
                    m.rx.evict_checkpoints();
                    m.quarantined = true;
                    m.due_since = u64::MAX;
                    m.absorbed = 0;
                    self.quarantined += 1;
                    events.push(SessionEvent {
                        id: SessionId {
                            index: i as u32,
                            gen: m.gen,
                        },
                        outcome: SessionOutcome::Abandoned {
                            attempts: m.rx.attempts(),
                            symbols: m.rx.symbols(),
                        },
                    });
                    continue;
                }
                if m.due_since == u64::MAX {
                    m.due_since = round;
                }
                self.due.push(i as u32);
            }
        }
        if work_budget != u64::MAX && !self.due.is_empty() {
            let slots = &self.slots;
            // Aged sessions first (oldest debt first), then the
            // cheapest attempts (fewest nodes to expand).
            self.due.sort_unstable_by_key(|&i| {
                let m = slots[i as usize].as_ref().expect("due slot is live");
                if round - m.due_since >= AGING_ROUNDS {
                    (0u8, m.due_since, i)
                } else {
                    (1u8, m.rx.nodes_to_run(), i)
                }
            });
            // Admit attempts in that order until the node budget is
            // spent; the first attempt is always admitted.
            let mut served = 1usize;
            let mut spent = slots[self.due[0] as usize]
                .as_ref()
                .expect("due slot is live")
                .rx
                .nodes_to_run();
            while served < self.due.len() {
                let cost = slots[self.due[served] as usize]
                    .as_ref()
                    .expect("due slot is live")
                    .rx
                    .nodes_to_run();
                if spent.saturating_add(cost) > work_budget {
                    break;
                }
                spent += cost;
                served += 1;
            }
            self.deferred.extend_from_slice(&self.due[served..]);
            self.due.truncate(served);
            self.due.sort_unstable();
        }

        // Run the selected attempts, each whole, through the one shared
        // scratch.
        for &i in &self.due {
            let m = self.slots[i as usize].as_mut().expect("due slot is live");
            let consumed = std::mem::take(&mut m.absorbed);
            let poll = m.rx.run_attempt(Some(&mut self.shared), consumed);
            m.due_since = u64::MAX;
            events.push(SessionEvent {
                id: SessionId {
                    index: i,
                    gen: m.gen,
                },
                outcome: SessionOutcome::Poll(poll),
            });
        }

        // Report the shed attempts. Their sessions stay due (`due_since`
        // keeps aging them toward priority service); the event lets the
        // caller observe deadline pressure without polling every id.
        for &i in &self.deferred {
            let m = self.slots[i as usize]
                .as_ref()
                .expect("deferred slot is live");
            events.push(SessionEvent {
                id: SessionId {
                    index: i,
                    gen: m.gen,
                },
                outcome: SessionOutcome::Deferred {
                    waited: round - m.due_since,
                    nodes: m.rx.nodes_to_run(),
                },
            });
        }

        // Activity that ran no attempt still polls: the symbol-budget
        // check, then NeedMore — exactly the solo ingest tail. Sessions
        // whose due attempt was deferred by the budget emit only their
        // `Deferred` event (their poll is pending, not concluded).
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(m) = slot.as_mut() else { continue };
            if m.quarantined || m.absorbed == 0 || !m.rx.is_listening() || m.rx.attempt_due() {
                continue;
            }
            let consumed = m.absorbed;
            m.absorbed = 0;
            let poll = m.rx.poll_without_attempt(consumed);
            events.push(SessionEvent {
                id: SessionId {
                    index: i as u32,
                    gen: m.gen,
                },
                outcome: SessionOutcome::Poll(poll),
            });
        }
    }

    /// [`drive_into`](Self::drive_into) returning a fresh event vector.
    pub fn drive(&mut self) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        self.drive_into(&mut events);
        events
    }

    /// [`drive_until_into`](Self::drive_until_into) returning a fresh
    /// event vector.
    pub fn drive_until(&mut self, work_budget: u64) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        self.drive_until_into(work_budget, &mut events);
        events
    }

    fn resolve(&self, id: SessionId) -> Result<(), SpinalError> {
        match self.slots.get(id.index as usize) {
            Some(Some(m)) if m.gen == id.gen => Ok(()),
            _ => Err(SpinalError::UnknownSession),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitVec;
    use crate::code::SpinalCode;
    use crate::decode::AwgnCost;
    use crate::frame::AnyTerminator;
    use crate::hash::Lookup3;
    use crate::map::LinearMapper;
    use crate::puncture::StridedPuncture;
    use crate::session::{RxConfig, TxSession};

    type Pool = MultiDecoder<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;
    type Tx = TxSession<Lookup3, LinearMapper, StridedPuncture>;
    type Rx = RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;

    fn session_pair(seed: u64, msg: &BitVec, rx_cfg: RxConfig) -> (Tx, Rx) {
        let code = SpinalCode::fig2(msg.len() as u32, seed).unwrap();
        let tx = code.tx_session(msg).unwrap();
        let rx = code
            .awgn_rx_session(AnyTerminator::genie(msg.clone()), rx_cfg)
            .unwrap();
        (tx, rx)
    }

    fn msg(i: u8) -> BitVec {
        BitVec::from_bytes(&[i ^ 0xa5, i.wrapping_mul(37), i ^ 0x3c])
    }

    /// Noiseless round-robin through the pool must match driving each
    /// session alone, event for event.
    #[test]
    fn pool_polls_match_solo_sessions() {
        let mut pool = Pool::new(MultiConfig::default());
        let mut txs = Vec::new();
        let mut ids = Vec::new();
        let mut solo = Vec::new();
        for i in 0..5u8 {
            let m = msg(i);
            let (tx, rx) = session_pair(100 + u64::from(i), &m, RxConfig::default());
            let (_, rx2) = session_pair(100 + u64::from(i), &m, RxConfig::default());
            txs.push(tx);
            ids.push(pool.insert(rx).unwrap());
            solo.push(rx2);
        }
        let mut events = Vec::new();
        for _round in 0..40 {
            let mut expect = Vec::new();
            for ((tx, &id), s) in txs.iter_mut().zip(&ids).zip(solo.iter_mut()) {
                if s.is_finished() {
                    continue;
                }
                let (_slot, sym) = tx.next_symbol();
                pool.ingest(id, &[sym]).unwrap();
                expect.push((id, s.ingest(&[sym]).unwrap()));
            }
            pool.drive_into(&mut events);
            assert_eq!(events.len(), expect.len());
            for (id, poll) in expect {
                let ev = events
                    .iter()
                    .find(|e| e.id == id)
                    .expect("event per session");
                assert_eq!(ev.poll(), Some(poll));
            }
            if solo.iter().all(|s| s.is_finished()) {
                break;
            }
        }
        for (&id, s) in ids.iter().zip(&solo) {
            assert!(s.is_finished(), "noiseless session must decode");
            let p = pool.get(id).unwrap();
            assert_eq!(p.payload(), s.payload());
            assert_eq!(p.symbols(), s.symbols());
            assert_eq!(p.attempts(), s.attempts());
            assert_eq!(p.last_result().candidates, s.last_result().candidates);
            assert_eq!(p.last_result().stats, s.last_result().stats);
        }
    }

    /// The wide cost engine through the pool path: a pool running the
    /// machine's detected SIMD tier and radix selection must be
    /// bit-identical to solo sessions forced onto scalar kernels and
    /// comparator selection (everything except the diagnostic dispatch
    /// tag in the stats). Mixed tiers inside one pool are equally safe.
    #[test]
    fn cross_tier_cohort_matches_forced_scalar_solo() {
        use crate::decode::{AwgnCost, BeamConfig, BeamDecoder, SelectMode};
        use crate::kernels::KernelDispatch;
        let mut pool = Pool::new(MultiConfig::default());
        let mut txs = Vec::new();
        let mut ids = Vec::new();
        let mut solo = Vec::new();
        let msgs: Vec<BitVec> = (0..4u8).map(msg).collect();
        for (i, m) in msgs.iter().enumerate() {
            let seed = 500 + i as u64;
            let (tx, rx) = session_pair(seed, m, RxConfig::default());
            let (_, mut rx2) = session_pair(seed, m, RxConfig::default());
            // Force the solo mirror fully scalar: kernels, selection,
            // and the hash family's batched lanes.
            let scalar_dec = BeamDecoder::new(
                rx2.params(),
                Lookup3::new(seed).with_dispatch(KernelDispatch::Scalar),
                LinearMapper::new(10),
                AwgnCost,
                BeamConfig::paper_default(),
            )
            .unwrap()
            .with_kernel_dispatch(KernelDispatch::Scalar)
            .with_select_mode(SelectMode::Comparator);
            assert_eq!(scalar_dec.kernel_dispatch(), KernelDispatch::Scalar);
            rx2.rebind(scalar_dec);
            txs.push(tx);
            ids.push(pool.insert(rx).unwrap());
            solo.push(rx2);
        }
        let mut events = Vec::new();
        for _round in 0..64 {
            for ((tx, &id), s) in txs.iter_mut().zip(&ids).zip(solo.iter_mut()) {
                if s.is_finished() {
                    continue;
                }
                let (_slot, sym) = tx.next_symbol();
                pool.ingest(id, &[sym]).unwrap();
                s.ingest(&[sym]).unwrap();
            }
            pool.drive_into(&mut events);
            if solo.iter().all(|s| s.is_finished()) {
                break;
            }
        }
        for (&id, s) in ids.iter().zip(&solo) {
            assert!(s.is_finished(), "noiseless session must decode");
            let p = pool.get(id).unwrap();
            // Sanity: both sides really ran the engines they were
            // pinned to.
            assert_eq!(s.kernel_dispatch(), KernelDispatch::Scalar);
            assert_eq!(p.kernel_dispatch(), KernelDispatch::detect());
            assert_eq!(p.payload(), s.payload());
            assert_eq!(p.symbols(), s.symbols());
            assert_eq!(p.attempts(), s.attempts());
            let (pr, sr) = (p.last_result(), s.last_result());
            assert_eq!(pr.message, sr.message);
            assert_eq!(pr.cost.to_bits(), sr.cost.to_bits());
            assert_eq!(pr.candidates, sr.candidates);
            assert_eq!(pr.stats.nodes_expanded, sr.stats.nodes_expanded);
            assert_eq!(pr.stats.frontier_peak, sr.stats.frontier_peak);
            assert_eq!(pr.stats.hash_calls, sr.stats.hash_calls);
            assert_eq!(sr.stats.kernel_dispatch, KernelDispatch::Scalar);
        }
    }

    /// Under a saturating cohort and a per-drive node budget, the pool
    /// must shed work (Deferred events), stay within the budget, and —
    /// through aging — keep every session progressing: no starvation.
    #[test]
    fn budgeted_drives_defer_and_starve_no_session() {
        // fig2 at 24 bits is a 3-level spine of k = 8 at B = 16: a
        // gap-free attempt from scratch expands 256 + 2 × 16 × 256
        // nodes, so the budget admits one such attempt (or several
        // cheap incremental ones), and any attempt costs at least one
        // 256-way expansion.
        const BUDGET: u64 = 256 + 2 * 16 * 256;
        let mut pool = Pool::new(MultiConfig {
            work_budget: BUDGET,
            ..MultiConfig::default()
        });
        let mut txs = Vec::new();
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let m = msg(i);
            // A receiver bound to the wrong seed never accepts: the
            // cohort saturates forever.
            let code = SpinalCode::fig2(m.len() as u32, u64::from(i)).unwrap();
            let wrong = SpinalCode::fig2(m.len() as u32, 1000 + u64::from(i)).unwrap();
            txs.push(code.tx_session(&m).unwrap());
            let rx = wrong
                .awgn_rx_session(AnyTerminator::genie(m), RxConfig::default())
                .unwrap();
            ids.push(pool.insert(rx).unwrap());
        }
        let mut events = Vec::new();
        let mut served_rounds = vec![Vec::new(); ids.len()];
        let mut deferrals = 0u64;
        for round in 0..48u64 {
            for (tx, &id) in txs.iter_mut().zip(&ids) {
                let (_slot, sym) = tx.next_symbol();
                pool.ingest(id, &[sym]).unwrap();
            }
            let price: Vec<u64> = ids
                .iter()
                .map(|&id| pool.get(id).unwrap().nodes_to_run())
                .collect();
            pool.drive_into(&mut events);
            let mut served = 0u64;
            let mut spent = 0u64;
            for ev in &events {
                let lane = ids.iter().position(|&i| i == ev.id).unwrap();
                match ev.outcome {
                    SessionOutcome::Poll(_) => {
                        served += 1;
                        spent += price[lane];
                        served_rounds[lane].push(round);
                    }
                    SessionOutcome::Deferred { nodes, .. } => {
                        deferrals += 1;
                        assert_eq!(nodes, price[lane], "a deferral reports its price");
                        assert!(nodes >= 256, "a due attempt expands a level");
                    }
                    SessionOutcome::Abandoned { .. } => {
                        panic!("no attempt ceiling configured")
                    }
                }
            }
            // The first attempt always runs; beyond it, the served
            // attempts' prices fit the budget.
            assert!(
                served == 1 || spent <= BUDGET,
                "budget must bound the nodes per drive, spent {spent} on {served} attempts"
            );
            assert_eq!(
                events.len(),
                8,
                "every due session is either served or reported deferred"
            );
        }
        assert!(deferrals > 0, "a saturating cohort must shed work");
        for (lane, rounds) in served_rounds.iter().enumerate() {
            assert!(
                rounds.len() >= 4,
                "session {lane} starved: served only {} times",
                rounds.len()
            );
            // The aging bound: no gap longer than the backlog drain time
            // plus the aging threshold.
            for w in rounds.windows(2) {
                assert!(
                    w[1] - w[0] <= AGING_ROUNDS + ids.len() as u64,
                    "session {lane} waited {} rounds",
                    w[1] - w[0]
                );
            }
        }
    }

    /// A one-off `drive_until` budget must override the configured one,
    /// and an unbudgeted pool must never defer.
    #[test]
    fn drive_until_overrides_config_budget() {
        let mut pool = Pool::new(MultiConfig::default());
        let mut txs = Vec::new();
        let mut ids = Vec::new();
        for i in 0..4u8 {
            let m = msg(i);
            let code = SpinalCode::fig2(m.len() as u32, u64::from(i)).unwrap();
            let wrong = SpinalCode::fig2(m.len() as u32, 2000 + u64::from(i)).unwrap();
            txs.push(code.tx_session(&m).unwrap());
            let rx = wrong
                .awgn_rx_session(AnyTerminator::genie(m), RxConfig::default())
                .unwrap();
            ids.push(pool.insert(rx).unwrap());
        }
        for (tx, &id) in txs.iter_mut().zip(&ids) {
            let (_slot, sym) = tx.next_symbol();
            pool.ingest(id, &[sym]).unwrap();
        }
        // Tight one-off budget: one attempt runs, three defer.
        let events = pool.drive_until(1);
        let polls = events.iter().filter(|e| e.poll().is_some()).count();
        let defers = events
            .iter()
            .filter(|e| matches!(e.outcome, SessionOutcome::Deferred { .. }))
            .count();
        assert_eq!(polls, 1, "a budget below one attempt still serves one");
        assert_eq!(defers, 3);
        // The next (unbudgeted) drive drains the backlog with no new
        // symbols needed — the deferred sessions are still due.
        let events = pool.drive();
        assert_eq!(events.iter().filter(|e| e.poll().is_some()).count(), 3);
        assert!(events.iter().all(|e| e.poll().is_some()));
    }

    /// The attempt ceiling must abandon hopeless sessions exactly once,
    /// quarantine them (ingest rejected, never scheduled), and leave the
    /// slot reclaimable.
    #[test]
    fn attempt_ceiling_abandons_and_quarantines() {
        let mut pool = Pool::new(MultiConfig {
            max_session_attempts: 3,
            ..MultiConfig::default()
        });
        let m = msg(7);
        let code = SpinalCode::fig2(m.len() as u32, 7).unwrap();
        let wrong = SpinalCode::fig2(m.len() as u32, 3007).unwrap();
        let mut tx = code.tx_session(&m).unwrap();
        let rx = wrong
            .awgn_rx_session(AnyTerminator::genie(m.clone()), RxConfig::default())
            .unwrap();
        let id = pool.insert(rx).unwrap();
        // A healthy companion keeps decoding normally alongside.
        let (mut tx_ok, rx_ok) = session_pair(7, &m, RxConfig::default());
        let id_ok = pool.insert(rx_ok).unwrap();
        let mut events = Vec::new();
        let mut abandoned_at = None;
        for round in 0..12u64 {
            if pool.get(id).is_some() && !pool.is_quarantined(id) {
                let (_slot, sym) = tx.next_symbol();
                pool.ingest(id, &[sym]).unwrap();
            }
            if !pool.get(id_ok).unwrap().is_finished() {
                let (_slot, sym) = tx_ok.next_symbol();
                pool.ingest(id_ok, &[sym]).unwrap();
            }
            pool.drive_into(&mut events);
            for ev in &events {
                if let SessionOutcome::Abandoned { attempts, symbols } = ev.outcome {
                    assert_eq!(ev.id, id);
                    assert_eq!(attempts, 3, "ceiling honoured exactly");
                    assert!(symbols >= 3);
                    assert!(abandoned_at.is_none(), "abandoned exactly once");
                    abandoned_at = Some(round);
                }
            }
        }
        assert!(abandoned_at.is_some(), "hopeless session must be abandoned");
        assert_eq!(pool.quarantines(), 1);
        assert!(pool.is_quarantined(id));
        assert!(!pool.is_quarantined(id_ok));
        // Quarantined: ingest rejected with the dedicated error; the
        // session is terminal without a payload; checkpoints were freed.
        assert_eq!(
            pool.ingest(id, &[]).unwrap_err(),
            SpinalError::SessionQuarantined
        );
        let s = pool.get(id).unwrap();
        assert!(s.is_finished() && s.is_abandoned());
        assert_eq!(s.payload(), None);
        assert_eq!(s.checkpoint_bytes(), 0, "quarantine frees checkpoints");
        // The healthy session was unaffected.
        assert_eq!(pool.get(id_ok).unwrap().payload(), Some(&m));
        // Removal reclaims the slot; the returned session is abandoned.
        let rx = pool.remove(id).unwrap();
        assert!(rx.is_abandoned());
        assert_eq!(pool.len(), 1);
    }

    /// Admission control must reject inserts beyond the ceiling and
    /// admit again after a removal.
    #[test]
    fn admission_control_bounds_the_pool() {
        let mut pool = Pool::new(MultiConfig {
            max_sessions: 2,
            ..MultiConfig::default()
        });
        let m = msg(3);
        let mk = || {
            let code = SpinalCode::fig2(m.len() as u32, 3).unwrap();
            code.awgn_rx_session(AnyTerminator::genie(m.clone()), RxConfig::default())
                .unwrap()
        };
        let a = pool.insert(mk()).unwrap();
        let _b = pool.insert(mk()).unwrap();
        match pool.insert(mk()) {
            Err(SpinalError::PoolFull { live, max_sessions }) => {
                assert_eq!((live, max_sessions), (2, 2));
            }
            other => panic!("expected PoolFull, got {other:?}"),
        }
        pool.remove(a).unwrap();
        assert!(pool.insert(mk()).is_ok(), "admission reopens after remove");
    }

    #[test]
    fn ids_are_generational() {
        let mut pool = Pool::new(MultiConfig::default());
        let m = msg(1);
        let (_, rx) = session_pair(1, &m, RxConfig::default());
        let id = pool.insert(rx).unwrap();
        assert!(pool.get(id).is_some());
        assert_eq!(pool.len(), 1);
        let rx = pool.remove(id).unwrap();
        assert!(pool.get(id).is_none());
        assert_eq!(pool.remove(id).unwrap_err(), SpinalError::UnknownSession);
        assert!(pool.is_empty());
        let id2 = pool.insert(rx).unwrap();
        assert_eq!(id2.index, id.index, "slot is reused");
        assert_ne!(id2.gen, id.gen, "generation advances");
        assert!(pool.get(id).is_none(), "stale id must not resolve");
        assert_eq!(
            pool.ingest(id, &[]).unwrap_err(),
            SpinalError::UnknownSession
        );
    }

    /// Finished sessions raise `SessionFinished` through the pool, like
    /// solo sessions do.
    #[test]
    fn finished_sessions_reject_ingest() {
        let mut pool = Pool::new(MultiConfig::default());
        let m = msg(9);
        let (mut tx, rx) = session_pair(9, &m, RxConfig::default());
        let id = pool.insert(rx).unwrap();
        let mut events = Vec::new();
        loop {
            let (_slot, sym) = tx.next_symbol();
            pool.ingest(id, &[sym]).unwrap();
            pool.drive_into(&mut events);
            if events.first().is_some_and(|e| e.is_decoded()) {
                break;
            }
        }
        assert_eq!(
            pool.ingest(id, &[]).unwrap_err(),
            SpinalError::SessionFinished
        );
        let rx = pool.remove(id).unwrap();
        assert_eq!(rx.payload(), Some(&m));
    }

    /// Overload shedding: among the candidates it is given, the session
    /// with the most remaining predicted work, in nodes, goes first;
    /// stale candidates are skipped, and a session left out of the list
    /// is never shed.
    #[test]
    fn shed_costliest_detached_prefers_expensive_orphans() {
        let mut pool = Pool::new(MultiConfig::default());
        let mut events = Vec::new();
        // Session A: one symbol (level 0) ingested and its attempt
        // served. Deferral carried the frontier across the two
        // unobserved levels, so its next retry re-expands the 4,096
        // hypotheses entering level 2, pre-pruned to 256 parents:
        // 65,536 nodes for a single level — the costlier victim.
        let ma = msg(11);
        let (mut txa, rxa) = session_pair(61, &ma, RxConfig::default());
        let ida = pool.insert(rxa).unwrap();
        let (_s, sym) = txa.next_symbol();
        pool.ingest(ida, &[sym]).unwrap();
        pool.drive_into(&mut events);
        assert_eq!(pool.get(ida).unwrap().nodes_to_run(), 1 << 16);
        // Session B: six symbols pending cover every level, so its
        // first attempt expands three levels but only 256 + 2 × 4,096
        // nodes.
        let mb = msg(12);
        let (mut txb, rxb) = session_pair(62, &mb, RxConfig::default());
        let idb = pool.insert(rxb).unwrap();
        for _ in 0..6 {
            let (_s, sym) = txb.next_symbol();
            pool.ingest(idb, &[sym]).unwrap();
        }
        assert_eq!(pool.get(idb).unwrap().nodes_to_run(), 256 + 2 * 4096);
        // Session C, A's twin, is as costly as A but never a candidate.
        let (mut txc, rxc) = session_pair(61, &ma, RxConfig::default());
        let idc = pool.insert(rxc).unwrap();
        let (_s, sym) = txc.next_symbol();
        pool.ingest(idc, &[sym]).unwrap();
        pool.drive_into(&mut events);
        assert_eq!(pool.get(idc).unwrap().nodes_to_run(), 1 << 16);
        // A stale id (a removed session's) among the candidates.
        let (_, rxd) = session_pair(64, &msg(14), RxConfig::default());
        let stale = pool.insert(rxd).unwrap();
        pool.remove(stale).unwrap();

        let candidates = [stale, idb, ida];
        let shed_id = pool
            .shed_costliest(candidates)
            .expect("two live candidates");
        assert_eq!(
            shed_id, ida,
            "the session facing a capped frontier is the costlier victim"
        );
        assert!(pool.get(ida).is_none());
        assert_eq!(pool.shed_costliest(candidates), Some(idb));
        assert!(pool.get(idb).is_none());
        assert!(
            pool.shed_costliest(candidates).is_none(),
            "stale and shed candidates are skipped"
        );
        assert!(pool.get(idc).is_some(), "a session left out is never shed");
        assert_eq!(pool.len(), 1);
    }
}
