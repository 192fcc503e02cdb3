//! CI smoke for the compressed checkpoint tier: for every SIMD kernel
//! tier this runner supports, a decoder is driven per-symbol with its
//! own packed image re-adopted before every retry, as a restart's
//! restore would — so each attempt must rebuild its resume state from
//! the packed blob — and the
//! result is asserted bit-identical (message, cost bits, candidates,
//! as-if-from-scratch stats) to a batch decode on the same tier and to
//! the scalar baseline across tiers. Both cost paths run: packed-bit
//! (BSC, the SIMD popcount kernels) and generic soft-symbol (AWGN, the
//! sequential ℓ² fold).
//!
//! The configuration is frozen, all counters are integers, and the
//! symbol perturbations are exact binary fractions, so the emitted
//! summary `quick_ckpt.json` must match the checked-in golden
//! `crates/bench/golden/quick_ckpt.json` byte-for-byte on every runner;
//! CI diffs the two. A runner whose kernels (or whose pack/unpack
//! replay) broke the bit-identity contract fails the internal asserts
//! before the diff.

use spinal_core::bits::BitVec;
use spinal_core::decode::{
    AwgnCost, BeamCheckpoints, BeamConfig, BeamDecoder, BscCost, CostModel, DecodeResult,
    DecoderScratch, Observations,
};
use spinal_core::encode::Encoder;
use spinal_core::hash::Lookup3;
use spinal_core::kernels::KernelDispatch;
use spinal_core::map::{BinaryMapper, LinearMapper, Mapper};
use spinal_core::params::CodeParams;
use spinal_core::symbol::Slot;
use spinal_core::IqSymbol;

const SEED: u64 = 0xC4_2011;
const MESSAGE_BITS: u32 = 64;
const K: u32 = 4;
const PASSES: u32 = 3;
const BEAM: usize = 8;

/// One section's deterministic counters (identical on every tier — the
/// scalar row is the one emitted).
struct Row {
    section: &'static str,
    symbols: u64,
    attempts: u64,
    packs: u64,
    unpacks: u64,
    packed_len: usize,
    cost_bits: u64,
}

fn params() -> CodeParams {
    CodeParams::builder()
        .message_bits(MESSAGE_BITS)
        .k(K)
        .seed(SEED)
        .build()
        .expect("valid params")
}

fn message() -> BitVec {
    BitVec::from_bools(
        &(0..MESSAGE_BITS as usize)
            .map(|i| (i * 11) % 7 < 3)
            .collect::<Vec<_>>(),
    )
}

/// Per-symbol schedule order: `PASSES` full passes, level-major.
fn slots(p: &CodeParams) -> Vec<Slot> {
    let mut v = Vec::new();
    for pass in 0..PASSES {
        for t in 0..p.n_segments() {
            v.push(Slot::new(t, pass));
        }
    }
    v
}

/// Drives one decoder per-symbol, re-adopting the checkpoint store's
/// own packed image before every retry (each attempt unpacks), and
/// asserts the final result is bit-identical to the batch decode of the
/// same observation set.
fn drive_readopted<M, C>(dec: &BeamDecoder<Lookup3, M, C>, stream: &[(Slot, M::Symbol)]) -> Row
where
    M: Mapper,
    M::Symbol: Copy,
    C: CostModel<M::Symbol>,
{
    let p = dec.params();
    let mut obs = Observations::new(p.n_segments());
    let mut ckpt = BeamCheckpoints::new();
    let mut scratch = DecoderScratch::new();
    let mut out = DecodeResult::default();
    let mut image = Vec::new();
    for &(slot, y) in stream {
        obs.push(slot, y);
        if let Some(packed) = ckpt.packed_image() {
            image.clear();
            image.extend_from_slice(packed);
            dec.adopt_packed_checkpoints(&mut ckpt, obs.len(), &image)
                .expect("a store's own image validates");
        }
        dec.decode_incremental(&obs, slot.t, &mut ckpt, &mut scratch, &mut out);
    }
    let batch = dec.decode(&obs);
    assert_eq!(out.message, batch.message, "restored == batch: message");
    assert_eq!(
        out.cost.to_bits(),
        batch.cost.to_bits(),
        "restored == batch: cost"
    );
    assert_eq!(out.candidates, batch.candidates, "restored == batch");
    assert_eq!(out.stats, batch.stats, "stats are as-if-from-scratch");
    assert!(ckpt.unpacks() > 0, "the packed tier must have been hit");
    Row {
        section: "",
        symbols: stream.len() as u64,
        attempts: stream.len() as u64,
        packs: ckpt.packs(),
        unpacks: ckpt.unpacks(),
        packed_len: ckpt.packed_bytes(),
        cost_bits: out.cost.to_bits(),
    }
}

fn assert_rows_match(label: &str, a: &Row, b: &Row) {
    assert_eq!(a.cost_bits, b.cost_bits, "{label}: cost across tiers");
    assert_eq!(a.packs, b.packs, "{label}: packs across tiers");
    assert_eq!(a.unpacks, b.unpacks, "{label}: unpacks across tiers");
    assert_eq!(a.packed_len, b.packed_len, "{label}: blob across tiers");
}

fn main() {
    let p = params();
    let msg = message();
    let tiers = KernelDispatch::supported();
    let cfg = BeamConfig::with_beam(BEAM);

    // Packed-bit path (BSC): a deterministic sprinkle of flips keeps
    // the costs and the pruned topology non-trivial.
    let enc = Encoder::new(&p, Lookup3::new(SEED), BinaryMapper::new(), &msg).expect("valid");
    let bit_stream: Vec<(Slot, u8)> = slots(&p)
        .into_iter()
        .map(|slot| {
            let mut bit = enc.symbol(slot);
            if (slot.pass * 131 + slot.t * 17) % 13 == 5 {
                bit ^= 1;
            }
            (slot, bit)
        })
        .collect();
    let mut bsc_row: Option<Row> = None;
    for &tier in &tiers {
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(SEED).with_dispatch(tier),
            BinaryMapper::new(),
            BscCost,
            cfg,
        )
        .expect("valid decoder")
        .with_kernel_dispatch(tier);
        let row = drive_readopted(&dec, &bit_stream);
        match &bsc_row {
            None => bsc_row = Some(row),
            Some(base) => assert_rows_match("bsc", base, &row),
        }
    }
    let mut bsc_row = bsc_row.expect("at least one tier");
    bsc_row.section = "bsc_packed";

    // Generic soft-symbol path (AWGN): exact binary-fraction offsets
    // instead of channel noise, so every runner sees identical floats.
    let enc = Encoder::new(&p, Lookup3::new(SEED), LinearMapper::new(8), &msg).expect("valid");
    let iq_stream: Vec<(Slot, IqSymbol)> = slots(&p)
        .into_iter()
        .map(|slot| {
            let x = enc.symbol(slot);
            let di = 0.125 * f64::from((slot.t * 7 + slot.pass) % 5) - 0.25;
            let dq = 0.0625 * f64::from((slot.t + slot.pass * 3) % 7) - 0.1875;
            (slot, IqSymbol::new(x.i + di, x.q + dq))
        })
        .collect();
    let mut awgn_row: Option<Row> = None;
    for &tier in &tiers {
        let dec = BeamDecoder::new(
            &p,
            Lookup3::new(SEED).with_dispatch(tier),
            LinearMapper::new(8),
            AwgnCost,
            cfg,
        )
        .expect("valid decoder")
        .with_kernel_dispatch(tier);
        let row = drive_readopted(&dec, &iq_stream);
        match &awgn_row {
            None => awgn_row = Some(row),
            Some(base) => assert_rows_match("awgn", base, &row),
        }
    }
    let mut awgn_row = awgn_row.expect("at least one tier");
    awgn_row.section = "awgn_generic";

    let mut rows_json = Vec::new();
    for row in [&bsc_row, &awgn_row] {
        rows_json.push(format!(
            "    {{\"section\": \"{}\", \"symbols\": {}, \"attempts\": {}, \"packs\": {}, \"unpacks\": {}, \"packed_bytes\": {}, \"cost_bits\": {}}}",
            row.section, row.symbols, row.attempts, row.packs, row.unpacks, row.packed_len,
            row.cost_bits,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"quick_ckpt\",\n  \"seed\": {SEED},\n  \"message_bits\": {MESSAGE_BITS},\n  \"k\": {K},\n  \"beam\": {BEAM},\n  \"sections\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    );
    print!("{json}");
    std::fs::write("quick_ckpt.json", &json).expect("write quick_ckpt.json");
    eprintln!(
        "# wrote quick_ckpt.json ({} kernel tiers verified: packed restore bit-identical to batch)",
        tiers.len()
    );
}
