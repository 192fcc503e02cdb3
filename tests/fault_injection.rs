//! Integration: fault injection — decoder and session behaviour under
//! conditions the happy path never exercises.
//!
//! The link-degradation scenarios (loss, duplication, reordering, burst
//! corruption, stale slot labels) run through the seeded
//! [`spinal_codes::link::LinkFault`] layer feeding
//! `RxSession::ingest_at`, so every case is bit-reproducible from its
//! `FaultPlan` seed. The analog front-end cases (ADC clipping,
//! observation starvation) keep driving raw `Observations`, where those
//! effects actually live. The shared contract: no panic, no livelock,
//! no silent mis-decode — a degraded link is paid for in symbols.

use spinal_codes::channel::{AdcQuantizer, AwgnChannel, Channel};
use spinal_codes::link::{FaultCounters, FaultPlan, LinkFault};
use spinal_codes::{
    AnyTerminator, BeamConfig, BitVec, DecoderScratch, IqSymbol, Observations, RxConfig, Slot,
    SpinalCode,
};

fn code_and_message() -> (
    spinal_codes::SpinalCode<
        spinal_codes::Lookup3,
        spinal_codes::LinearMapper,
        spinal_codes::StridedPuncture,
    >,
    BitVec,
) {
    (
        SpinalCode::fig2(24, 7).unwrap(),
        BitVec::from_bytes(&[0x3c, 0xa5, 0x99]),
    )
}

/// Streams the encoder through an AWGN channel and the given fault
/// plan into a slot-addressed receiver session. Returns the number of
/// symbols the receiver ingested before accepting (`None` if the
/// session exhausted its budget undecoded) plus the fault counters.
fn faulted_decode(
    plan: &FaultPlan,
    snr_db: f64,
    channel_seed: u64,
    max_symbols: u64,
) -> (Option<u64>, FaultCounters) {
    let (code, message) = code_and_message();
    let encoder = code.encoder(&message).unwrap();
    let mut rx = code
        .awgn_rx_session(
            AnyTerminator::genie(message.clone()),
            RxConfig {
                max_symbols,
                ..RxConfig::default()
            },
        )
        .unwrap();
    let mut channel = AwgnChannel::from_snr_db(snr_db, channel_seed);
    let mut scratch = DecoderScratch::new();
    let mut fault = plan.stream();
    let mut deliveries = Vec::new();
    let mut batch = Vec::new();
    for (seq, (slot, x)) in encoder
        .stream(code.schedule())
        .take(2 * max_symbols as usize)
        .enumerate()
    {
        if rx.is_finished() {
            break;
        }
        fault.push(seq as u64, slot, channel.transmit(x), &mut deliveries);
        batch.clear();
        batch.extend(deliveries.iter().map(|d| (d.slot, d.symbol)));
        if !batch.is_empty() {
            rx.ingest_at(&mut scratch, &batch).unwrap();
        }
    }
    if !rx.is_finished() {
        fault.finish(&mut deliveries);
        batch.clear();
        batch.extend(deliveries.iter().map(|d| (d.slot, d.symbol)));
        if !batch.is_empty() {
            rx.ingest_at(&mut scratch, &batch).unwrap();
        }
    }
    let decoded_at = if rx.payload() == Some(&message) {
        Some(rx.symbols())
    } else {
        assert!(
            rx.payload().is_none(),
            "genie termination can never accept a wrong payload"
        );
        None
    };
    (decoded_at, fault.counters())
}

/// A hard-clipping ADC (range far too small for the constellation) must
/// degrade rate, not crash or mis-decode silently at high SNR with
/// enough redundancy.
#[test]
fn survives_hard_clipping_adc() {
    let (code, message) = code_and_message();
    let encoder = code.encoder(&message).unwrap();
    let decoder = code.awgn_beam_decoder(BeamConfig::paper_default()).unwrap();
    let clipping = AdcQuantizer::new(14, 0.4); // peak is ~1.22: severe clip
    let mut channel = AwgnChannel::from_snr_db(25.0, 3);
    let mut obs = code.observations();
    let mut decoded_at = None;
    for (slot, x) in encoder.stream(code.schedule()).take(400) {
        obs.push(slot, clipping.quantize_symbol(channel.transmit(x)));
        if decoder.decode(&obs).message == message {
            decoded_at = Some(obs.len());
            break;
        }
    }
    // Clipping costs symbols but information still gets through via the
    // sign and the surviving inner levels.
    let n = decoded_at.expect("clipped receiver should still decode eventually");
    assert!(n >= 3, "too easy: clipping should cost something, n = {n}");
}

/// An interference burst — a run of symbols corrupted to saturated
/// constellation corners by [`LinkFault::Burst`] — is paid for with
/// extra symbols, then forgotten.
#[test]
fn survives_interference_burst() {
    let clean = FaultPlan::new(44);
    let jammed = clean.clone().with(LinkFault::Burst { p: 0.04, len: 6 });
    let (baseline, _) = faulted_decode(&clean, 8.0, 5, 400);
    let (decoded_at, counters) = faulted_decode(&jammed, 8.0, 5, 400);
    let baseline = baseline.expect("clean link at 8 dB decodes");
    let n = decoded_at.expect("decoder never recovered from a corruption burst at 8 dB");
    assert!(counters.corrupted >= 6, "at least one full burst fired");
    assert!(
        n > baseline,
        "a 6-symbol burst must cost extra symbols: {n} <= {baseline}"
    );
}

/// Starvation: decoding with observations at only one spine position
/// must return *some* full-length message and correct stats, never
/// panic — and cannot magically know the unobserved segments.
#[test]
fn starved_observations_stay_sane() {
    let (code, message) = code_and_message();
    let encoder = code.encoder(&message).unwrap();
    let decoder = code.awgn_beam_decoder(BeamConfig::paper_default()).unwrap();
    let mut obs: Observations<IqSymbol> = code.observations();
    // Only position 0, pass 0 — 20 bits of evidence for a 24-bit message.
    obs.push(Slot::new(0, 0), encoder.symbol(Slot::new(0, 0)));
    let result = decoder.decode(&obs);
    assert_eq!(result.message.len(), 24);
    assert!(result.stats.complete);
    // First segment should match (noiseless single observation pins it).
    assert_eq!(result.message.get_range(0, 8), message.get_range(0, 8));
}

/// Duplicate deliveries of the same slot (e.g. a repeated
/// retransmission, here from [`LinkFault::Duplicate`]) must reinforce,
/// not break, decoding.
#[test]
fn duplicate_deliveries_reinforce() {
    let plan = FaultPlan::new(13).with(LinkFault::Duplicate { p: 0.5 });
    let (decoded_at, counters) = faulted_decode(&plan, 10.0, 9, 400);
    assert!(counters.duplicated > 0, "the duplicator must have fired");
    decoded_at.expect("a 50% duplicating link at 10 dB should still decode");
}

/// Symbol loss ([`LinkFault::Drop`]) costs symbols, never correctness:
/// the receiver decodes the same message, later.
#[test]
fn symbol_loss_costs_symbols_not_correctness() {
    let clean = FaultPlan::new(17);
    let lossy = clean.clone().with(LinkFault::Drop { p: 0.3 });
    let (baseline, _) = faulted_decode(&clean, 15.0, 21, 400);
    let (decoded_at, counters) = faulted_decode(&lossy, 15.0, 21, 400);
    let baseline = baseline.expect("clean link at 15 dB decodes");
    let n = decoded_at.expect("30% loss at 15 dB should still decode within budget");
    assert!(counters.dropped > 0, "the dropper must have fired");
    // The receiver *ingested* no more than the clean run needed plus the
    // passes the drops forced; what loss costs is sender transmissions,
    // which the longer tx stream (2× budget) absorbed.
    assert!(
        n + counters.dropped >= baseline,
        "loss must be paid for in transmissions: {n} + {} < {baseline}",
        counters.dropped
    );
}

/// Reordering within a bounded window is transparent to a
/// slot-addressed receiver: every delivery still carries its true slot,
/// so the decode concludes with the correct payload.
#[test]
fn reordering_is_transparent_to_slot_addressed_ingest() {
    let plan = FaultPlan::new(19).with(LinkFault::Reorder { p: 0.5, window: 8 });
    let (decoded_at, counters) = faulted_decode(&plan, 12.0, 33, 400);
    assert!(counters.reordered > 0, "the reorderer must have fired");
    decoded_at.expect("heavy in-window reordering must not prevent decoding");
}

/// Stale slot labels ([`LinkFault::StaleSlot`]) attach a symbol to the
/// wrong spine position — self-inflicted interference the decoder must
/// absorb as noise, never accept as truth.
#[test]
fn stale_slot_mislabels_degrade_gracefully() {
    let plan = FaultPlan::new(23).with(LinkFault::StaleSlot { p: 0.25 });
    let (decoded_at, counters) = faulted_decode(&plan, 18.0, 41, 600);
    assert!(counters.mislabelled > 0, "the mislabeller must have fired");
    decoded_at.expect("25% mislabelled slots at 18 dB should still decode");
}

/// The fault layer's determinism contract at the session level: the
/// same plan seed reproduces the identical run — same acceptance point,
/// same fault counters — and reseeding changes the draw stream.
#[test]
fn faulted_runs_are_bit_reproducible() {
    let plan = FaultPlan::new(29)
        .with(LinkFault::Drop { p: 0.15 })
        .with(LinkFault::Duplicate { p: 0.1 })
        .with(LinkFault::Reorder { p: 0.2, window: 4 });
    let a = faulted_decode(&plan, 15.0, 55, 400);
    let b = faulted_decode(&plan, 15.0, 55, 400);
    assert_eq!(a, b, "same seed ⇒ bit-identical run");
    let (_, reseeded) = faulted_decode(&plan.reseeded(0xFEED), 15.0, 55, 400);
    assert_ne!(
        a.1, reseeded,
        "a reseeded plan must draw a different fault stream"
    );
}

/// Zero-width beams and absurd configurations are rejected with a typed
/// error, not silently mis-decoded.
#[test]
fn zero_beam_rejected() {
    let (code, _) = code_and_message();
    let err = code
        .awgn_beam_decoder(BeamConfig {
            beam_width: 0,
            max_frontier: 16,
        })
        .unwrap_err();
    assert_eq!(
        err,
        spinal_codes::SpinalError::BeamConfig {
            beam_width: 0,
            max_frontier: 16
        }
    );
}
