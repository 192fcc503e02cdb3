//! Integration: the exact ML decoder against the practical beam decoder
//! under real channel noise — the beam decoder with a wide beam must
//! reproduce ML decisions, and a narrow beam can only be worse-or-equal.

use spinal_codes::channel::{AwgnChannel, BscChannel, Channel};
use spinal_codes::BinaryMapper;
use spinal_codes::{
    AwgnCost, BeamConfig, BeamDecoder, BitVec, BscCost, CodeParams, Encoder, LinearMapper, Lookup3,
    MlConfig, MlDecoder, Observations, Slot,
};

fn awgn_observations(
    params: &CodeParams,
    message: &BitVec,
    snr_db: f64,
    passes: u32,
    noise_seed: u64,
) -> Observations<spinal_codes::IqSymbol> {
    let enc = Encoder::new(
        params,
        Lookup3::new(params.seed()),
        LinearMapper::new(6),
        message,
    )
    .unwrap();
    let mut ch = AwgnChannel::from_snr_db(snr_db, noise_seed);
    let mut obs = Observations::new(params.n_segments());
    for pass in 0..passes {
        for t in 0..params.n_segments() {
            let slot = Slot::new(t, pass);
            obs.push(slot, ch.transmit(enc.symbol(slot)));
        }
    }
    obs
}

/// Over 20 noisy AWGN instances, an exhaustive-width beam finds exactly
/// the ML cost and message.
#[test]
fn wide_beam_matches_ml_awgn() {
    let params = CodeParams::builder()
        .message_bits(12)
        .k(4)
        .seed(3)
        .build()
        .unwrap();
    for trial in 0..20u64 {
        let message = BitVec::from_u64(0x5a3 ^ (trial * 97), 12);
        let obs = awgn_observations(&params, &message, 6.0, 1, 100 + trial);
        let ml = MlDecoder::new(
            &params,
            Lookup3::new(3),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig::default(),
        )
        .unwrap()
        .decode(&obs);
        let beam = BeamDecoder::new(
            &params,
            Lookup3::new(3),
            LinearMapper::new(6),
            AwgnCost,
            BeamConfig {
                beam_width: 4096, // 2^12: exhaustive
                max_frontier: 1 << 20,
            },
        )
        .unwrap()
        .decode(&obs);
        assert!(ml.stats.complete, "trial {trial}: ML hit its node budget");
        assert_eq!(ml.message, beam.message, "trial {trial}");
        assert!((ml.cost - beam.cost).abs() < 1e-9, "trial {trial}");
    }
}

/// A narrow beam's cost is never better than ML's (ML optimality), and
/// usually equal at benign SNR.
#[test]
fn narrow_beam_never_beats_ml() {
    let params = CodeParams::builder()
        .message_bits(12)
        .k(4)
        .seed(5)
        .build()
        .unwrap();
    let mut equal = 0;
    for trial in 0..20u64 {
        let message = BitVec::from_u64(0x0c1 ^ (trial * 31), 12);
        let obs = awgn_observations(&params, &message, 8.0, 1, 200 + trial);
        let ml = MlDecoder::new(
            &params,
            Lookup3::new(5),
            LinearMapper::new(6),
            AwgnCost,
            MlConfig::default(),
        )
        .unwrap()
        .decode(&obs);
        let beam = BeamDecoder::new(
            &params,
            Lookup3::new(5),
            LinearMapper::new(6),
            AwgnCost,
            BeamConfig::with_beam(4),
        )
        .unwrap()
        .decode(&obs);
        assert!(
            beam.cost >= ml.cost - 1e-9,
            "trial {trial}: beam cost {} below ML {}",
            beam.cost,
            ml.cost
        );
        if (beam.cost - ml.cost).abs() < 1e-9 {
            equal += 1;
        }
    }
    assert!(
        equal >= 15,
        "B=4 should match ML usually at 8 dB, got {equal}/20"
    );
}

/// Same agreement on the BSC with Hamming costs.
#[test]
fn wide_beam_matches_ml_bsc() {
    let params = CodeParams::builder()
        .message_bits(8)
        .k(4)
        .seed(7)
        .build()
        .unwrap();
    for trial in 0..10u64 {
        let message = BitVec::from_u64(0x9d ^ trial, 8);
        let enc = Encoder::new(&params, Lookup3::new(7), BinaryMapper::new(), &message).unwrap();
        let mut ch = BscChannel::new(0.08, 300 + trial);
        let mut obs = Observations::new(2);
        for pass in 0..10u32 {
            for t in 0..2 {
                let slot = Slot::new(t, pass);
                obs.push(slot, ch.transmit(enc.symbol(slot)));
            }
        }
        let ml = MlDecoder::new(
            &params,
            Lookup3::new(7),
            BinaryMapper::new(),
            BscCost,
            MlConfig::default(),
        )
        .unwrap()
        .decode(&obs);
        let beam = BeamDecoder::new(
            &params,
            Lookup3::new(7),
            BinaryMapper::new(),
            BscCost,
            BeamConfig {
                beam_width: 256,
                max_frontier: 1 << 16,
            },
        )
        .unwrap()
        .decode(&obs);
        // Hamming costs tie easily; require equal *cost* (the argmin may
        // legitimately differ among ties).
        assert!((ml.cost - beam.cost).abs() < 1e-9, "trial {trial}");
    }
}

/// Sanity: both decoders recover the true message on clean channels.
#[test]
fn both_decoders_roundtrip_clean() {
    let params = CodeParams::builder()
        .message_bits(16)
        .k(4)
        .seed(11)
        .build()
        .unwrap();
    let message = BitVec::from_u64(0xbeef, 16);
    let obs = awgn_observations(&params, &message, 100.0, 1, 400);
    let ml = MlDecoder::new(
        &params,
        Lookup3::new(11),
        LinearMapper::new(6),
        AwgnCost,
        MlConfig::default(),
    )
    .unwrap()
    .decode(&obs);
    let beam = BeamDecoder::new(
        &params,
        Lookup3::new(11),
        LinearMapper::new(6),
        AwgnCost,
        BeamConfig::with_beam(2),
    )
    .unwrap()
    .decode(&obs);
    assert_eq!(ml.message, message);
    assert_eq!(beam.message, message);
}
