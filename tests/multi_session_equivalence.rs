//! Sessions lending one scratch ⇔ sessions each holding their own: the
//! determinism contract of a fleet of caller-owned `RxSession`s.
//!
//! A pool of sessions absorbs each tick's arrivals in random
//! interleavings (`absorb_at`, one symbol per session in turn, chunk
//! sizes varying per tick, sessions decoding and exhausting at
//! different times) and then polls every session through one shared
//! `DecoderScratch`. Its polls, accepted payloads, symbol counts,
//! attempt counts, and per-attempt `DecodeResult`s (candidates and
//! work counters) must be **bit-identical** to the
//! same sessions each ingesting the same symbols, coalesced per tick,
//! through a private scratch. The arms:
//!
//! * exact attempts off and on (`RxConfig::exact_attempts`, the served
//!   configuration);
//! * every shared-scratch session rebuilt from its observations before
//!   each tick, the way a warm restart's `restore_receive_state` does;
//! * mixed kernel tiers through the one scratch against forced-scalar
//!   private references.
//!
//! Solo, a session rebuilt before every retry must be bit-identical to
//! one that never is.

use proptest::prelude::*;
use spinal_codes::channel::{AwgnChannel, Channel};
use spinal_codes::{AnyTerminator, BitVec, DecoderScratch, IqSymbol, RxConfig, SpinalCode};
use spinal_core::decode::{AwgnCost, BeamConfig, BeamDecoder, SelectMode};
use spinal_core::hash::Lookup3;
use spinal_core::kernels::KernelDispatch;
use spinal_core::map::LinearMapper;
use spinal_core::puncture::StridedPuncture;
use spinal_core::session::{RxSession, TxSession};
use spinal_core::symbol::Slot;

type Code = SpinalCode<Lookup3, LinearMapper, StridedPuncture>;
type Tx = TxSession<Lookup3, LinearMapper, StridedPuncture>;
type Rx = RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;

/// How a run's two sides are built and driven.
#[derive(Clone, Copy)]
struct Arm {
    exact_attempts: bool,
    /// Rebuild every shared-scratch session from its observations
    /// before each tick.
    cold_stores: bool,
    /// Every third shared-scratch session runs forced-scalar kernels
    /// (the rest the detected tier); every private one runs
    /// forced-scalar kernels, selection and hash lanes.
    mixed_tiers: bool,
}

struct Lane {
    code: Code,
    msg: BitVec,
    tx: Tx,
    channel: AwgnChannel,
    /// This tick's arrivals.
    chunk: Vec<(Slot, IqSymbol)>,
}

fn rx_config(arm: Arm) -> RxConfig {
    RxConfig {
        max_symbols: 96,
        exact_attempts: arm.exact_attempts,
        ..RxConfig::default()
    }
}

fn build_lane(seed: u64, snr_db: f64) -> Lane {
    let msg = BitVec::from_bytes(&[seed as u8, (seed >> 8) as u8, (seed >> 16) as u8 ^ 0x5a]);
    let code = SpinalCode::fig2(msg.len() as u32, seed).unwrap();
    Lane {
        tx: code.tx_session(&msg).unwrap(),
        channel: AwgnChannel::from_snr_db(snr_db, seed ^ 0xABCD),
        chunk: Vec::new(),
        code,
        msg,
    }
}

fn session(lane: &Lane, arm: Arm) -> Rx {
    lane.code
        .awgn_rx_session(AnyTerminator::genie(lane.msg.clone()), rx_config(arm))
        .unwrap()
}

/// Moves `rx` onto forced-scalar kernels (and, with `all`, comparator
/// selection and scalar hash lanes).
fn force_scalar(rx: &mut Rx, seed: u64, all: bool) {
    let hash = if all {
        Lookup3::new(seed).with_dispatch(KernelDispatch::Scalar)
    } else {
        Lookup3::new(seed)
    };
    let mut dec = BeamDecoder::new(
        rx.params(),
        hash,
        LinearMapper::new(10),
        AwgnCost,
        BeamConfig::paper_default(),
    )
    .unwrap()
    .with_kernel_dispatch(KernelDispatch::Scalar);
    if all {
        dec = dec.with_select_mode(SelectMode::Comparator);
    }
    rx.rebind(dec);
    assert_eq!(rx.kernel_dispatch(), KernelDispatch::Scalar);
}

/// A fresh session holding `rx`'s observations and attempt counters —
/// the state a warm restart leaves.
fn released(lane: &Lane, rx: &Rx, arm: Arm) -> Rx {
    let obs = rx.observations();
    let arrivals: Vec<(Slot, IqSymbol)> = (0..obs.n_levels())
        .flat_map(|t| {
            obs.at_level(t)
                .iter()
                .map(move |&(pass, y)| (Slot::new(t, pass), y))
        })
        .collect();
    let mut fresh = session(lane, arm);
    fresh
        .restore_receive_state(&arrivals, rx.attempts(), rx.next_attempt(), rx.dirty_from())
        .unwrap();
    fresh
}

/// Replays one interleaving through sessions lending one scratch and
/// through private-scratch mirrors, asserting poll-for-poll and
/// state-for-state equality. Returns (decoded, exhausted) counts as a
/// coverage probe.
fn check_interleaving(
    arm: Arm,
    seeds: &[u64],
    snr_db: f64,
    schedule: &[Vec<u8>],
) -> (usize, usize) {
    let mut lanes: Vec<Lane> = seeds.iter().map(|&s| build_lane(s, snr_db)).collect();
    let mut shared: Vec<Rx> = lanes.iter().map(|l| session(l, arm)).collect();
    let mut mirrors: Vec<(Rx, DecoderScratch)> = lanes
        .iter()
        .map(|l| (session(l, arm), DecoderScratch::new()))
        .collect();
    if arm.mixed_tiers {
        for (i, (lane, (rx, mirror))) in lanes
            .iter()
            .zip(shared.iter_mut().zip(&mut mirrors))
            .enumerate()
        {
            let seed = lane.code.params().seed();
            if i % 3 == 2 {
                force_scalar(rx, seed, false);
            }
            force_scalar(&mut mirror.0, seed, true);
        }
    }
    let mut scratch = DecoderScratch::new();
    let mut mirror_chunk = Vec::new();

    for round in schedule {
        if arm.cold_stores {
            for (lane, rx) in lanes.iter().zip(shared.iter_mut()) {
                if !rx.is_finished() {
                    *rx = released(lane, rx, arm);
                }
            }
        }
        // This tick's arrivals, one symbol per session in turn.
        for (i, lane) in lanes.iter_mut().enumerate() {
            lane.chunk.clear();
            if !mirrors[i].0.is_finished() {
                for _ in 0..round[i % round.len()] {
                    let (slot, x) = lane.tx.next_symbol();
                    lane.chunk.push((slot, lane.channel.transmit(x)));
                }
            }
        }
        for k in 0..4 {
            for (lane, rx) in lanes.iter().zip(shared.iter_mut()) {
                if let Some(&arrival) = lane.chunk.get(k) {
                    rx.absorb_at(&[arrival]).unwrap();
                }
            }
        }
        for (i, (lane, rx)) in lanes.iter().zip(shared.iter_mut()).enumerate() {
            let poll = rx.poll(&mut scratch);
            let (mirror, own) = &mut mirrors[i];
            if lane.chunk.is_empty() {
                assert_eq!(poll, None, "lane {i}: a poll without arrivals");
                continue;
            }
            // The mirror: the same symbols, coalesced into one ingest
            // through its own scratch.
            mirror_chunk.clear();
            mirror_chunk.extend(lane.chunk.iter().map(|&(_, y)| y));
            let attempts = mirror.attempts();
            let want = mirror.ingest(own, &mirror_chunk).unwrap();
            assert_eq!(poll, Some(want), "lane {i}");
            assert_eq!(rx.symbols(), mirror.symbols());
            assert_eq!(rx.attempts(), mirror.attempts());
            if arm.cold_stores && mirror.attempts() == attempts {
                // A rebuilt session holds no result of its own until
                // it attempts.
                continue;
            }
            // Bit-identity of the attempt itself, not just the poll.
            let (sr, mr) = (rx.last_result(), mirror.last_result());
            assert_eq!(sr.message, mr.message);
            assert_eq!(sr.cost.to_bits(), mr.cost.to_bits());
            assert_eq!(sr.candidates, mr.candidates);
            assert_eq!(sr.stats.nodes_expanded, mr.stats.nodes_expanded);
            assert_eq!(sr.stats.frontier_peak, mr.stats.frontier_peak);
            assert_eq!(sr.stats.hash_calls, mr.stats.hash_calls);
            if !arm.mixed_tiers {
                assert_eq!(sr.stats, mr.stats);
            }
        }
    }

    let mut decoded = 0;
    let mut exhausted = 0;
    for ((lane, rx), (mirror, _)) in lanes.iter().zip(&shared).zip(&mirrors) {
        assert_eq!(rx.is_finished(), mirror.is_finished());
        assert_eq!(rx.payload(), mirror.payload());
        if rx.payload().is_some() {
            assert_eq!(rx.payload(), Some(&lane.msg));
            decoded += 1;
        } else if rx.is_finished() {
            exhausted += 1;
        }
    }
    (decoded, exhausted)
}

const WARM: Arm = Arm {
    exact_attempts: false,
    cold_stores: false,
    mixed_tiers: false,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pinning property: over random interleavings, sessions
    /// lending one scratch are bit-identical to the same sessions each
    /// holding their own — with and without every attempt starting from
    /// an empty store.
    #[test]
    fn prop_pool_bit_identical_to_solo(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..5),
        snr_db in 2.0f64..18.0,
        schedule in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..5), 6..18),
    ) {
        let base = check_interleaving(WARM, &seeds, snr_db, &schedule);
        let cold = check_interleaving(Arm { cold_stores: true, ..WARM }, &seeds, snr_db, &schedule);
        // Both runs see the identical outcome set (each one already
        // matched its own private-scratch mirror poll for poll).
        prop_assert_eq!(base, cold);
    }

    /// The same pinning property with the served switch on: a session
    /// that waits for its attempts to fit polls exactly as the same
    /// session with a private scratch — with and without empty stores.
    #[test]
    fn prop_exact_attempts_pool_bit_identical_to_solo(
        seeds in proptest::collection::vec(1u64..1_000_000, 2..5),
        snr_db in 2.0f64..18.0,
        schedule in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..5), 6..18),
    ) {
        let exact = Arm { exact_attempts: true, ..WARM };
        let base = check_interleaving(exact, &seeds, snr_db, &schedule);
        let cold = check_interleaving(Arm { cold_stores: true, ..exact }, &seeds, snr_db, &schedule);
        prop_assert_eq!(base, cold);
    }

    /// The wide cost engine through one scratch: sessions running the
    /// detected SIMD tier and radix selection, with forced-scalar ones
    /// mixed in, are bit-identical to private-scratch references forced
    /// onto scalar kernels, comparator selection and scalar hash lanes
    /// (everything except the diagnostic dispatch tag in the stats).
    #[test]
    fn prop_mixed_tiers_bit_identical_to_forced_scalar(
        seeds in proptest::collection::vec(1u64..1_000_000, 3..5),
        snr_db in 6.0f64..18.0,
        schedule in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..5), 6..18),
    ) {
        let mixed = Arm { mixed_tiers: true, ..WARM };
        let (decoded, _) = check_interleaving(mixed, &seeds, snr_db, &schedule);
        prop_assert!(decoded <= seeds.len());
    }

    /// A restore is invisible: a session rebuilt from its observations
    /// before every ingest, as a warm restart rebuilds it, produces
    /// polls, payloads, and per-attempt `DecodeResult`s bit-identical to
    /// a session that never is.
    #[test]
    fn prop_packed_restore_bit_identical_to_never_packed(
        seed in 1u64..1_000_000,
        snr_db in 2.0f64..18.0,
        chunks in proptest::collection::vec(any::<u8>(), 4..24),
    ) {
        let mut lane = build_lane(seed, snr_db);
        let mut restored = session(&lane, WARM);
        let mut plain = session(&lane, WARM);
        let mut scratch = DecoderScratch::new();
        let mut chunk = Vec::new();
        for &c in &chunks {
            if restored.is_finished() {
                break;
            }
            chunk.clear();
            for _ in 0..usize::from(c % 4) + 1 {
                let (slot, x) = lane.tx.next_symbol();
                chunk.push((slot, lane.channel.transmit(x)));
            }
            // Rebuild the session from what it has heard before every
            // ingest, as a warm restart does.
            restored = released(&lane, &restored, WARM);
            let a = restored.ingest_at(&mut scratch, &chunk).unwrap();
            let b = plain.ingest_at(&mut scratch, &chunk).unwrap();
            prop_assert_eq!(a, b);
            let (dr, pr) = (restored.last_result(), plain.last_result());
            prop_assert_eq!(&dr.message, &pr.message);
            prop_assert_eq!(dr.cost.to_bits(), pr.cost.to_bits());
            prop_assert_eq!(&dr.candidates, &pr.candidates);
            prop_assert_eq!(&dr.stats, &pr.stats);
        }
    }
}

/// A deterministic smoke of the same property at a fixed interleaving
/// (fast path for `cargo test` name filtering).
#[test]
fn fixed_interleaving_matches_solo() {
    let schedule: Vec<Vec<u8>> = (0..16)
        .map(|r| vec![(r % 3) as u8, 1, ((r + 1) % 4) as u8])
        .collect();
    let (decoded, _) = check_interleaving(WARM, &[11, 22, 33], 14.0, &schedule);
    assert!(decoded >= 1, "14 dB should decode at least one session");
}
