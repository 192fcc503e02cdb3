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
//! # Scheduling policy: every due attempt runs
//!
//! [`ingest`](MultiDecoder::ingest) only *absorbs* symbols; attempts run
//! at the next [`drive_into`](MultiDecoder::drive_into), which runs
//! every due attempt. Whether an attempt is due is the session's own
//! call — its thinning schedule and, under
//! [`RxConfig::exact_attempts`](crate::session::RxConfig::exact_attempts),
//! whether the attempt fits — so the pool adds no order or budget of
//! its own.
//!
//! Two protections bound the damage any one flow can do: **admission
//! control** ([`MultiConfig::max_sessions`]) rejects inserts beyond a
//! resident ceiling, and the **per-session attempt ceiling**
//! ([`MultiConfig::max_session_attempts`]) abandons sessions that keep
//! exhausting attempts on garbage input — the abandoned session is
//! never scheduled again and rejects ingest with
//! [`SpinalError::SessionQuarantined`] until removed.
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
//! therefore independent of the order attempts run in.
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

/// Pool-level resource configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiConfig {
    /// Per-session decode-attempt ceiling — the paper's §3 "too much
    /// time has been spent" escape hatch promoted into the pool. A
    /// session whose attempt would exceed it is abandoned
    /// ([`SessionOutcome::Abandoned`]): it stops being scheduled, its
    /// checkpoints are freed, and further
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
    /// An attempt (or symbol-budget check) ran: the same [`Poll`] a solo
    /// [`RxSession::ingest`] of the symbols absorbed since the previous
    /// drive would have returned.
    Poll(Poll),
    /// The session hit [`MultiConfig::max_session_attempts`] without
    /// decoding and was abandoned: terminal, no payload. Emitted
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
    /// `None` for an `Abandoned` event.
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
    /// Symbols absorbed since the last emitted event.
    absorbed: usize,
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
    /// Indices of the sessions whose attempts run this drive.
    due: Vec<u32>,
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
            due: Vec::new(),
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
            absorbed: 0,
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
        m.absorbed = 0;
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
        if m.rx.is_abandoned() {
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
        if m.rx.is_abandoned() {
            return Err(SpinalError::SessionQuarantined);
        }
        let consumed = m.rx.absorb_at(symbols)?;
        m.absorbed += consumed;
        Ok(())
    }

    /// Runs the pool one scheduling round: abandons sessions at their
    /// attempt ceiling, runs every other due attempt whole, one after
    /// another in ascending slot order, through the shared scratch, and
    /// emits one [`SessionEvent`] per session with activity —
    /// abandonments first, then the attempts in slot order, then the
    /// polls of sessions that absorbed symbols but ran no attempt.
    /// `events` is cleared first and reused.
    pub fn drive_into(&mut self, events: &mut Vec<SessionEvent>) {
        events.clear();
        self.round += 1;
        let ceiling = self.cfg.max_session_attempts;

        // Select the due attempts; abandon sessions over the
        // per-session attempt ceiling instead of serving them.
        self.due.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(m) = slot.as_mut() else { continue };
            if !m.rx.attempt_due() {
                continue;
            }
            if m.rx.attempts() >= ceiling {
                // The §3 escape hatch: this session has spent its
                // attempt budget without decoding — garbage input, a
                // hopeless channel, or a misbound code. Stop paying for
                // it: terminal state and checkpoints freed until the
                // caller removes it.
                m.rx.abandon();
                m.rx.evict_checkpoints();
                m.absorbed = 0;
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
            self.due.push(i as u32);
        }

        // Run the due attempts, each whole, through the one shared
        // scratch.
        for &i in &self.due {
            let m = self.slots[i as usize].as_mut().expect("due slot is live");
            let consumed = std::mem::take(&mut m.absorbed);
            let poll = m.rx.run_attempt(Some(&mut self.shared), consumed);
            events.push(SessionEvent {
                id: SessionId {
                    index: i,
                    gen: m.gen,
                },
                outcome: SessionOutcome::Poll(poll),
            });
        }

        // Activity that ran no attempt still polls: the symbol-budget
        // check, then NeedMore — exactly the solo ingest tail.
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(m) = slot.as_mut() else { continue };
            if m.absorbed == 0 || !m.rx.is_listening() {
                continue;
            }
            let consumed = std::mem::take(&mut m.absorbed);
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

    /// The attempt ceiling must abandon hopeless sessions exactly once,
    /// stop scheduling them, reject their ingest with
    /// `SessionQuarantined`, and leave the slot reclaimable.
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
            if !pool.get(id).unwrap().is_abandoned() {
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
        assert!(!pool.get(id_ok).unwrap().is_abandoned());
        // Abandoned: ingest rejected with the dedicated error; the
        // session is terminal without a payload; checkpoints were freed.
        assert_eq!(
            pool.ingest(id, &[]).unwrap_err(),
            SpinalError::SessionQuarantined
        );
        let s = pool.get(id).unwrap();
        assert!(s.is_finished() && s.is_abandoned());
        assert_eq!(s.payload(), None);
        assert_eq!(s.checkpoint_bytes(), 0, "abandonment frees checkpoints");
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
