//! Equivalence property: the optimized beam-decode engine must be
//! **bit-identical** to the straightforward reference implementation
//! (`spinal_core::decode::reference`) across randomized code
//! configurations — same message, same cost bit pattern, same candidate
//! list, same search statistics.
//!
//! `DecodeStats::hash_calls` is deliberately excluded from the identity:
//! it counts actual hash invocations, which is precisely the quantity the
//! optimized engine reduces (asserted separately: never more than the
//! reference).

use proptest::prelude::*;
use spinal_codes::channel::Rng;
use spinal_codes::{
    reference_decode, AnyHash, AnySchedule, AwgnCost, BeamConfig, BeamDecoder, BitVec, CodeParams,
    DecodeResult, DecoderScratch, Encoder, HashFamily, Observations,
};
use spinal_core::map::AnyIqMapper;
use spinal_core::symbol::IqSymbol;

fn hash_family(idx: u8) -> HashFamily {
    match idx % 4 {
        0 => HashFamily::Lookup3,
        1 => HashFamily::OneAtATime,
        2 => HashFamily::SipHash24,
        _ => HashFamily::SplitMix,
    }
}

fn assert_identical(opt: &DecodeResult, reference: &DecodeResult, ctx: &str) {
    assert_eq!(opt.message, reference.message, "message differs: {ctx}");
    assert_eq!(
        opt.cost.to_bits(),
        reference.cost.to_bits(),
        "cost bits differ: {ctx}"
    );
    assert_eq!(
        opt.candidates.len(),
        reference.candidates.len(),
        "candidate count differs: {ctx}"
    );
    for (i, (a, b)) in opt
        .candidates
        .iter()
        .zip(reference.candidates.iter())
        .enumerate()
    {
        assert_eq!(a.message, b.message, "candidate {i} message differs: {ctx}");
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "candidate {i} cost bits differ: {ctx}"
        );
    }
    assert_eq!(
        opt.stats.nodes_expanded, reference.stats.nodes_expanded,
        "nodes_expanded differs: {ctx}"
    );
    assert_eq!(
        opt.stats.frontier_peak, reference.stats.frontier_peak,
        "frontier_peak differs: {ctx}"
    );
    assert_eq!(
        opt.stats.complete, reference.stats.complete,
        "complete differs: {ctx}"
    );
    assert!(
        opt.stats.hash_calls <= reference.stats.hash_calls,
        "optimized engine must never hash more than the reference: {ctx}"
    );
}

/// One randomized round-trip: encode, corrupt, decode both ways, compare.
#[allow(clippy::too_many_arguments)]
fn check_case(
    k: u32,
    segments: u32,
    beam: usize,
    stride: u32,
    family: HashFamily,
    seed: u64,
    subpasses: u32,
    noise: f64,
) {
    let message_bits = k * segments;
    let params = CodeParams::builder()
        .message_bits(message_bits)
        .k(k)
        .seed(seed)
        .build()
        .unwrap();
    let hash = AnyHash::new(family, seed);
    let mapper = AnyIqMapper::linear(6);
    let mut rng = Rng::seed_from(seed ^ 0x9e37_79b9);
    let message: BitVec = (0..message_bits).map(|_| rng.bit()).collect();
    let enc = Encoder::new(&params, hash, mapper.clone(), &message).unwrap();

    let schedule = if stride <= 1 {
        AnySchedule::none()
    } else {
        AnySchedule::strided(stride).expect("valid stride")
    };
    let mut obs = Observations::new(params.n_segments());
    for (slot, sym) in enc.stream(&schedule).take(subpasses as usize * 4) {
        // Mild deterministic corruption so costs are non-trivial and ties
        // are plausible.
        let wobble = IqSymbol::new(
            sym.i + noise * ((slot.t as f64) - 1.0),
            sym.q - noise * ((slot.pass as f64) * 0.5 - 1.0),
        );
        obs.push(slot, wobble);
    }

    let config = BeamConfig {
        beam_width: beam,
        max_frontier: 1 << 14,
    };
    let decoder = BeamDecoder::new(&params, hash, mapper.clone(), AwgnCost, config).unwrap();
    let mut scratch = DecoderScratch::new();
    let opt = decoder.decode_with_scratch(&obs, &mut scratch);
    let reference = reference_decode(&params, &hash, &mapper, &AwgnCost, &config, &obs);
    let ctx = format!(
        "k={k} segments={segments} B={beam} stride={stride} family={family:?} seed={seed:#x} subpasses={subpasses}"
    );
    assert_identical(&opt, &reference, &ctx);

    // A second decode with the warmed scratch must agree with itself.
    let again = decoder.decode_with_scratch(&obs, &mut scratch);
    assert_identical(&again, &reference, &format!("warm rerun: {ctx}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_optimized_decoder_matches_reference(
        k in 1u32..=8,
        segments in 2u32..=5,
        beam_pow in 0u32..=6,
        stride_pow in 0u32..=3,
        family_idx in any::<u8>(),
        seed in any::<u64>(),
        subpasses in 1u32..=12,
    ) {
        check_case(
            k,
            segments,
            1usize << beam_pow,
            1u32 << stride_pow,
            hash_family(family_idx),
            seed,
            subpasses,
            0.07,
        );
    }
}

/// Deterministic heavyweight case: B·2^k children per level, the
/// widest expansion the property cases do not reach.
#[test]
fn big_level_matches_reference() {
    check_case(8, 5, 64, 8, HashFamily::Lookup3, 0xfeed_beef, 10, 0.05);
    check_case(8, 4, 256, 1, HashFamily::SplitMix, 0x1234_5678, 6, 0.02);
}

/// Noiseless ties everywhere: zero-cost paths collide and tie-breaking
/// must still be canonical on both sides.
#[test]
fn tie_heavy_unobserved_gaps_match_reference() {
    // stride > 1 leaves whole levels unobserved early on, producing
    // large all-tied frontiers.
    check_case(4, 4, 16, 8, HashFamily::SipHash24, 42, 3, 0.0);
    check_case(2, 5, 8, 4, HashFamily::OneAtATime, 7, 2, 0.0);
}

/// A tight frontier cap under stride-8 sub-passes: 8 levels branching
/// 16 ways with at most 4 parents per expansion, so the attempts over
/// the early sub-passes pre-prune across unobserved levels. The decode
/// after every sub-pass must match the reference, work counters
/// included.
#[test]
fn tight_cap_strided_subpasses_match_reference() {
    use spinal_core::hash::Lookup3;
    use spinal_core::map::LinearMapper;
    use spinal_core::puncture::StridedPuncture;

    let params = CodeParams::builder()
        .message_bits(32)
        .k(4)
        .tail_segments(0)
        .seed(42)
        .build()
        .unwrap();
    let hash = Lookup3::new(42);
    let mapper = LinearMapper::new(10);
    let message = BitVec::from_bytes(&[0xa5, 0x17, 0x68, 0xf3]);
    let enc = Encoder::new(&params, hash, mapper, &message).unwrap();
    let config = BeamConfig {
        beam_width: 8,
        max_frontier: 64,
    };
    let decoder = BeamDecoder::new(&params, hash, mapper, AwgnCost, config).unwrap();
    let schedule = StridedPuncture::stride8();
    let mut obs = Observations::new(params.n_segments());
    let mut scratch = DecoderScratch::new();
    let mut out = DecodeResult::default();
    for g in 0..24u32 {
        for (slot, sym) in enc.subpass(&schedule, g) {
            obs.push(slot, sym);
        }
        decoder.decode_into(&obs, &mut scratch, &mut out);
        let reference = reference_decode(&params, &hash, &mapper, &AwgnCost, &config, &obs);
        assert_identical(&out, &reference, &format!("sub-pass {g}"));
    }
}
