//! Multi-session scheduler ⇔ solo-session equivalence: the determinism
//! contract of `spinal_core::sched::MultiDecoder`.
//!
//! Over random arrival/feedback interleavings — per-session chunk sizes
//! varying per drive, sessions decoding and exhausting at different
//! times — the pool's poll events, accepted payloads, symbol counts,
//! attempt counts, and per-attempt `DecodeResult`s (candidates and
//! as-if-from-scratch work counters) must be **bit-identical** to
//! driving each session alone with the same symbols coalesced per
//! drive. The same must hold when every pooled session's checkpoint
//! store is released before each drive — the state a warm restart's
//! restore leaves, observations and no checkpoints — so each attempt
//! decodes from level 0.
//!
//! Solo, a session released before every retry must be bit-identical
//! to one that never is. So do sessions that attempt only when the
//! attempt fits (`RxConfig::exact_attempts`, the served configuration).

use proptest::prelude::*;
use spinal_codes::channel::{AwgnChannel, Channel};
use spinal_codes::{
    AnyTerminator, BitVec, MultiConfig, MultiDecoder, RxConfig, SessionEvent, SpinalCode,
};
use spinal_core::decode::AwgnCost;
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::puncture::StridedPuncture;
use spinal_core::session::{RxSession, TxSession};

type Pool = MultiDecoder<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;
type Tx = TxSession<Lookup3, LinearMapper, StridedPuncture>;
type Rx = RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;

struct Lane {
    tx: Tx,
    channel: AwgnChannel,
    chunk: Vec<spinal_codes::IqSymbol>,
}

fn build_lane(seed: u64, msg: &BitVec, snr_db: f64, exact_attempts: bool) -> (Lane, Rx) {
    let code = SpinalCode::fig2(msg.len() as u32, seed).unwrap();
    let rx_cfg = RxConfig {
        max_symbols: 96,
        exact_attempts,
        ..RxConfig::default()
    };
    let rx = code
        .awgn_rx_session(AnyTerminator::genie(msg.clone()), rx_cfg)
        .unwrap();
    (
        Lane {
            tx: code.tx_session(msg).unwrap(),
            channel: AwgnChannel::from_snr_db(snr_db, seed ^ 0xABCD),
            chunk: Vec::new(),
        },
        rx,
    )
}

/// Replays one interleaving through a pool and through isolated mirror
/// sessions, asserting event-for-event and state-for-state equality.
/// With `cold_stores`, every pooled session's checkpoint store is
/// released before each drive. Returns (decoded, exhausted) counts as a
/// coverage probe.
fn check_interleaving(
    cold_stores: bool,
    exact_attempts: bool,
    seeds: &[u64],
    snr_db: f64,
    schedule: &[Vec<u8>],
) -> (usize, usize) {
    let msgs: Vec<BitVec> = seeds
        .iter()
        .map(|&s| BitVec::from_bytes(&[s as u8, (s >> 8) as u8, (s >> 16) as u8 ^ 0x5a]))
        .collect();
    let mut pool = Pool::new(MultiConfig::default());
    let mut lanes = Vec::new();
    let mut ids = Vec::new();
    let mut solo = Vec::new();
    for (&seed, msg) in seeds.iter().zip(&msgs) {
        let (lane, rx) = build_lane(seed, msg, snr_db, exact_attempts);
        let (_, rx2) = build_lane(seed, msg, snr_db, exact_attempts);
        lanes.push(lane);
        ids.push(pool.insert(rx).unwrap());
        solo.push(rx2);
    }

    let mut events: Vec<SessionEvent> = Vec::new();
    for round in schedule {
        // Absorb this round's arrivals (chunk sizes vary per session).
        let mut expect = Vec::new();
        for (lane_idx, lane) in lanes.iter_mut().enumerate() {
            if solo[lane_idx].is_finished() {
                continue;
            }
            let n = usize::from(round[lane_idx % round.len()]);
            lane.chunk.clear();
            for _ in 0..n {
                let (_slot, x) = lane.tx.next_symbol();
                lane.chunk.push(lane.channel.transmit(x));
            }
            if lane.chunk.is_empty() {
                continue;
            }
            pool.ingest(ids[lane_idx], &lane.chunk).unwrap();
            // The mirror: the same symbols, coalesced into one solo
            // ingest at the drive boundary.
            let poll = solo[lane_idx].ingest(&lane.chunk).unwrap();
            expect.push((lane_idx, poll));
        }
        if cold_stores {
            for &id in &ids {
                pool.get_mut(id)
                    .expect("pooled session is live")
                    .evict_checkpoints();
            }
        }
        pool.drive_into(&mut events);
        assert_eq!(
            events.len(),
            expect.len(),
            "one event per session with activity"
        );
        for (lane_idx, poll) in expect {
            let ev = events
                .iter()
                .find(|e| e.id == ids[lane_idx])
                .expect("event for active session");
            assert_eq!(ev.poll(), Some(poll), "lane {lane_idx}");
            // Bit-identity of the attempt itself, not just the poll.
            let p = pool.get(ids[lane_idx]).unwrap();
            let s = &solo[lane_idx];
            assert_eq!(p.symbols(), s.symbols());
            assert_eq!(p.attempts(), s.attempts());
            let (pr, sr) = (p.last_result(), s.last_result());
            assert_eq!(pr.message, sr.message);
            assert_eq!(pr.cost.to_bits(), sr.cost.to_bits());
            assert_eq!(pr.candidates, sr.candidates);
            assert_eq!(pr.stats, sr.stats, "stats are as-if-from-scratch");
        }
    }

    let mut decoded = 0;
    let mut exhausted = 0;
    for (lane_idx, &id) in ids.iter().enumerate() {
        let p = pool.get(id).unwrap();
        let s = &solo[lane_idx];
        assert_eq!(p.is_finished(), s.is_finished());
        assert_eq!(p.payload(), s.payload());
        if p.payload().is_some() {
            assert_eq!(p.payload(), Some(&msgs[lane_idx]));
            decoded += 1;
        } else if p.is_finished() {
            exhausted += 1;
        }
    }
    (decoded, exhausted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pinning property: over random interleavings, pool output is
    /// bit-identical to isolated per-session decoding — with and
    /// without every pooled attempt starting from an empty store.
    #[test]
    fn prop_pool_bit_identical_to_solo(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..5),
        snr_db in 2.0f64..18.0,
        schedule in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..5), 6..18),
    ) {
        let base = check_interleaving(false, false, &seeds, snr_db, &schedule);
        let cold = check_interleaving(true, false, &seeds, snr_db, &schedule);
        // Both runs see the identical outcome set (each one already
        // matched its own solo mirror event-for-event).
        prop_assert_eq!(base, cold);
    }

    /// The same pinning property with the served switch on: a pooled
    /// session that waits for its attempts to fit polls exactly as the
    /// same session alone — with and without empty stores.
    #[test]
    fn prop_exact_attempts_pool_bit_identical_to_solo(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..5),
        snr_db in 2.0f64..18.0,
        schedule in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..5), 6..18),
    ) {
        let base = check_interleaving(false, true, &seeds, snr_db, &schedule);
        let cold = check_interleaving(true, true, &seeds, snr_db, &schedule);
        prop_assert_eq!(base, cold);
    }

    /// A restored session's empty store is invisible: a session whose
    /// checkpoint store is released before every ingest — so each
    /// retry decodes from level 0, as the first attempt after a warm
    /// restart does — produces polls, payloads, and per-attempt
    /// `DecodeResult`s bit-identical to a session that is never
    /// released.
    #[test]
    fn prop_packed_restore_bit_identical_to_never_packed(
        seed in 1u64..1_000_000,
        snr_db in 2.0f64..18.0,
        chunks in proptest::collection::vec(any::<u8>(), 4..24),
    ) {
        let msg = BitVec::from_bytes(&[seed as u8, (seed >> 8) as u8, (seed >> 16) as u8 ^ 0x5a]);
        let (mut lane, mut restored) = build_lane(seed, &msg, snr_db, false);
        let (_, mut plain) = build_lane(seed, &msg, snr_db, false);
        for &c in &chunks {
            if restored.is_finished() {
                break;
            }
            let n = usize::from(c % 4) + 1;
            lane.chunk.clear();
            for _ in 0..n {
                let (_slot, x) = lane.tx.next_symbol();
                lane.chunk.push(lane.channel.transmit(x));
            }
            // Force the cold path: this ingest's attempt finds no
            // checkpoint to resume from.
            restored.evict_checkpoints();
            let a = restored.ingest(&lane.chunk).unwrap();
            let b = plain.ingest(&lane.chunk).unwrap();
            prop_assert_eq!(a, b);
            let (dr, pr) = (restored.last_result(), plain.last_result());
            prop_assert_eq!(&dr.message, &pr.message);
            prop_assert_eq!(dr.cost.to_bits(), pr.cost.to_bits());
            prop_assert_eq!(&dr.candidates, &pr.candidates);
            prop_assert_eq!(&dr.stats, &pr.stats, "stats are as-if-from-scratch");
        }
        // The cold path actually ran: no attempt resumed a level.
        prop_assert_eq!(restored.checkpoints().levels_resumed(), 0);
    }
}

/// A deterministic smoke of the same property at a fixed interleaving
/// (fast path for `cargo test` name filtering).
#[test]
fn fixed_interleaving_matches_solo() {
    let schedule: Vec<Vec<u8>> = (0..16)
        .map(|r| vec![(r % 3) as u8, 1, ((r + 1) % 4) as u8])
        .collect();
    let (decoded, _) = check_interleaving(false, false, &[11, 22, 33], 14.0, &schedule);
    assert!(decoded >= 1, "14 dB should decode at least one session");
}
