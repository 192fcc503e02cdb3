//! Beam-decode throughput tracker: the wide cost engine vs its
//! baselines.
//!
//! Three sections, all on the Figure-2 code shape (k = 8, 16 passes of
//! observations, B ∈ {4, 16, 64, 256}):
//!
//! * **AWGN** (`c = 10`, soft ℓ² costs): the optimized engine vs the
//!   straightforward reference implementation
//!   ([`spinal_core::decode::reference`]), decoded symbols/sec and hash
//!   invocations per decode.
//! * **Packed-bit** (BSC, 1-bit symbols): the wide cost engine
//!   (runtime-dispatched SIMD kernels + integer cost keys + radix
//!   select) vs the same engine pinned to the PR-4-equivalent path
//!   (scalar kernels, comparator select) and vs the reference decoder.
//!   Both engines are asserted bit-identical before timing.
//! * **Selection** (microbench): radix vs comparator top-B over
//!   synthetic AWGN-shaped cost keys at the level sizes the decoder
//!   actually selects over (`B·2^k` children).
//!
//! A fourth section, **serving points**, times the decode attempts the
//! servebench fleets run (k = 4, c = 8, stride-8 puncturing): the
//! clean-fleet shape (48 framed bits, B = 4, noiseless) and the
//! awgn-fleet shape (64 framed bits, B = 16, 10 dB), each decoded from
//! level 0 after the first 8 and the first 16 symbols, on the
//! dispatched SIMD tier and on forced scalar. It reports nodes per
//! attempt and ns per node: at these shapes the per-node cost, not the
//! frontier, is what a kernel change moves.
//!
//! A full run writes `BENCH_beam_decode.json` (shared
//! `benchmark`/`config` schema, see [`spinal_bench::BenchSummary`]).
//! `--quick` instead sweeps every SIMD tier × selection mode the machine
//! supports, asserts bit-identity against the scalar/comparator
//! baseline, times the same sections with fewer iterations, and writes
//! only the deterministic summary `quick_cost_engine.json` (the
//! serving points' node and hash counts included) that CI
//! diffs against `crates/bench/golden/quick_cost_engine.json` — the
//! cross-runner proof that every dispatch tier decodes identically. It
//! leaves the full-run artifact untouched.
//!
//! Options: `--trials N` (measurement iterations per point, default
//! 40), `--seed S`, `--quick`.

use spinal_bench::{banner, BenchSummary, RunArgs};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::bits::BitVec;
use spinal_core::decode::select::{self, SelectMode, SelectScratch};
use spinal_core::decode::{
    cost_key, reference_decode, AwgnCost, BeamConfig, BeamDecoder, BscCost, DecodeResult,
    DecoderScratch, Observations,
};
use spinal_core::encode::Encoder;
use spinal_core::hash::Lookup3;
use spinal_core::kernels::KernelDispatch;
use spinal_core::map::{BinaryMapper, LinearMapper};
use spinal_core::params::CodeParams;
use spinal_core::puncture::{PunctureSchedule, StridedPuncture};
use spinal_core::symbol::Slot;
use spinal_core::IqSymbol;
use std::hint::black_box;
use std::time::Instant;

const MESSAGE_BITS: u32 = 96;
const PASSES: u32 = 16;
const BEAMS: [usize; 4] = [4, 16, 64, 256];

struct AwgnPoint {
    beam: usize,
    opt_symbols_per_sec: f64,
    ref_symbols_per_sec: f64,
    speedup: f64,
    opt_hash_calls: u64,
    ref_hash_calls: u64,
    hash_ratio: f64,
}

struct PackedPoint {
    beam: usize,
    wide_symbols_per_sec: f64,
    scalar_path_symbols_per_sec: f64,
    speedup: f64,
    ref_symbols_per_sec: f64,
    speedup_vs_reference: f64,
}

struct SelectPoint {
    n: usize,
    keep: usize,
    radix_ns_per_key: f64,
    comparator_ns_per_key: f64,
    speedup: f64,
}

/// One servebench fleet's code shape (both fleets use the client
/// defaults k = 4, c = 8 and the stride-8 schedule).
struct ServingShape {
    name: &'static str,
    /// Payload plus CRC-16.
    framed_bits: u32,
    beam: usize,
    /// `None` = noiseless.
    snr_db: Option<f64>,
}

const SERVING_K: u32 = 4;
const SERVING_C: u32 = 8;
const SERVING_SHAPES: [ServingShape; 2] = [
    ServingShape {
        name: "clean",
        framed_bits: 48,
        beam: 4,
        snr_db: None,
    },
    ServingShape {
        name: "awgn",
        framed_bits: 64,
        beam: 16,
        snr_db: Some(10.0),
    },
];
/// Symbols received when the attempt runs: the first burst, and two.
const SERVING_SYMBOLS: [usize; 2] = [8, 16];

struct ServingPoint {
    shape: &'static str,
    symbols: usize,
    nodes_per_attempt: u64,
    dispatched_ns_per_node: f64,
    scalar_ns_per_node: f64,
    speedup: f64,
}

/// One serving attempt's inputs: the code and the first
/// `symbols` symbols of the stride-8 stream (through the shape's
/// channel).
fn serving_attempt(
    shape: &ServingShape,
    seed: u64,
    symbols: usize,
) -> (CodeParams, Observations<IqSymbol>) {
    let params = CodeParams::builder()
        .message_bits(shape.framed_bits)
        .k(SERVING_K)
        .seed(seed)
        .build()
        .expect("valid params");
    let message = BitVec::from_bools(
        &(0..u64::from(shape.framed_bits))
            .map(|i| spinal_sim::derive_seed(seed, 91, i) & 1 == 1)
            .collect::<Vec<_>>(),
    );
    let enc = Encoder::new(
        &params,
        Lookup3::new(seed),
        LinearMapper::new(SERVING_C),
        &message,
    )
    .expect("valid message");
    let mut channel = shape
        .snr_db
        .map(|db| AwgnChannel::from_snr_db(db, seed ^ 0x5e5e));
    let sched = StridedPuncture::stride8();
    let mut obs = Observations::new(params.n_segments());
    let mut slots = Vec::new();
    let mut g = 0;
    while obs.len() < symbols {
        sched.subpass_slots_into(params.n_segments(), g, &mut slots);
        for &slot in slots.iter().take(symbols - obs.len()) {
            let sym = enc.symbol(slot);
            obs.push(slot, channel.as_mut().map_or(sym, |ch| ch.transmit(sym)));
        }
        g += 1;
    }
    (params, obs)
}

/// A serving-shape decoder with its hash lanes and cost kernels on
/// `tier`.
fn serving_decoder(
    params: &CodeParams,
    shape: &ServingShape,
    seed: u64,
    tier: KernelDispatch,
    mode: SelectMode,
) -> BeamDecoder<Lookup3, LinearMapper, AwgnCost> {
    BeamDecoder::new(
        params,
        Lookup3::new(seed).with_dispatch(tier),
        LinearMapper::new(SERVING_C),
        AwgnCost,
        BeamConfig::with_beam(shape.beam),
    )
    .expect("valid decoder config")
    .with_kernel_dispatch(tier)
    .with_select_mode(mode)
}

fn observations(enc: &Encoder<Lookup3, LinearMapper>) -> Observations<IqSymbol> {
    let mut obs = Observations::new(enc.params().n_segments());
    for pass in 0..PASSES {
        for t in 0..enc.params().n_segments() {
            let slot = Slot::new(t, pass);
            obs.push(slot, enc.symbol(slot));
        }
    }
    obs
}

/// The BSC observation stream: 16 passes with a deterministic sprinkle
/// of bit flips (so costs are non-trivial and the selection phase has
/// real work).
fn bit_observations(enc: &Encoder<Lookup3, BinaryMapper>) -> Observations<u8> {
    let mut obs = Observations::new(enc.params().n_segments());
    for pass in 0..PASSES {
        for t in 0..enc.params().n_segments() {
            let slot = Slot::new(t, pass);
            let mut bit = enc.symbol(slot);
            if (pass * 131 + t * 17) % 13 == 5 {
                bit ^= 1;
            }
            obs.push(slot, bit);
        }
    }
    obs
}

/// Times `f` over `iters` runs after one warm-up run; returns seconds
/// per run.
fn time_per_run(iters: u32, f: &mut impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// Interleaved A/B measurement over `rounds` rounds, taking each side's
/// fastest round: background load hits both engines alike instead of
/// whichever happened to run during a noisy window, and the minimum is
/// the noise-robust point statistic for throughput.
fn measure_pair(
    rounds: u32,
    a_iters: u32,
    b_iters: u32,
    a: &mut impl FnMut(),
    b: &mut impl FnMut(),
) -> (f64, f64) {
    let mut a_best = f64::INFINITY;
    let mut b_best = f64::INFINITY;
    for _ in 0..rounds {
        a_best = a_best.min(time_per_run(a_iters, a));
        b_best = b_best.min(time_per_run(b_iters, b));
    }
    (a_best, b_best)
}

fn awgn_section(args: &RunArgs, params: &CodeParams) -> Vec<AwgnPoint> {
    let iters = args.trials.max(1);
    let message = BitVec::from_bools(
        &(0..MESSAGE_BITS as usize)
            .map(|i| i % 3 != 0)
            .collect::<Vec<_>>(),
    );
    let enc = Encoder::new(
        params,
        Lookup3::new(args.seed),
        LinearMapper::new(10),
        &message,
    )
    .expect("valid message");
    let obs = observations(&enc);
    let n_symbols = obs.len() as f64;

    println!("# AWGN: optimized engine vs reference");
    println!(
        "{:>5} {:>16} {:>16} {:>8} {:>14} {:>14} {:>10}",
        "B", "opt sym/s", "ref sym/s", "speedup", "opt hash/dec", "ref hash/dec", "hash x"
    );
    let mut points = Vec::new();
    for &b in &BEAMS {
        let cfg = BeamConfig::with_beam(b);
        let dec = BeamDecoder::new(
            params,
            Lookup3::new(args.seed),
            LinearMapper::new(10),
            AwgnCost,
            cfg,
        )
        .expect("valid decoder config");
        let mut scratch = DecoderScratch::new();
        let opt_result = dec.decode_with_scratch(&obs, &mut scratch);
        let ref_result = reference_decode(
            params,
            &Lookup3::new(args.seed),
            &LinearMapper::new(10),
            &AwgnCost,
            &cfg,
            &obs,
        );
        assert_eq!(
            opt_result.message, ref_result.message,
            "engines disagree at B = {b}"
        );

        let rounds = 5;
        let opt_iters = iters.div_ceil(rounds).max(1);
        let ref_iters = opt_iters.div_ceil(3).max(1); // the baseline is slow
        let (opt_secs, ref_secs) = measure_pair(
            rounds,
            opt_iters,
            ref_iters,
            &mut || {
                black_box(dec.decode_with_scratch(&obs, &mut scratch).cost);
            },
            &mut || {
                black_box(
                    reference_decode(
                        params,
                        &Lookup3::new(args.seed),
                        &LinearMapper::new(10),
                        &AwgnCost,
                        &cfg,
                        &obs,
                    )
                    .cost,
                );
            },
        );

        let point = AwgnPoint {
            beam: b,
            opt_symbols_per_sec: n_symbols / opt_secs,
            ref_symbols_per_sec: n_symbols / ref_secs,
            speedup: ref_secs / opt_secs,
            opt_hash_calls: opt_result.stats.hash_calls,
            ref_hash_calls: ref_result.stats.hash_calls,
            hash_ratio: ref_result.stats.hash_calls as f64 / opt_result.stats.hash_calls as f64,
        };
        println!(
            "{:>5} {:>16.0} {:>16.0} {:>7.2}x {:>14} {:>14} {:>9.2}x",
            point.beam,
            point.opt_symbols_per_sec,
            point.ref_symbols_per_sec,
            point.speedup,
            point.opt_hash_calls,
            point.ref_hash_calls,
            point.hash_ratio,
        );
        points.push(point);
    }
    points
}

/// Builds the wide-engine and PR-4-equivalent (scalar kernels +
/// comparator select, including the hash family's lanes) decoders for
/// the packed-bit shape.
fn packed_decoders(
    params: &CodeParams,
    seed: u64,
    b: usize,
) -> (
    BeamDecoder<Lookup3, BinaryMapper, BscCost>,
    BeamDecoder<Lookup3, BinaryMapper, BscCost>,
) {
    let cfg = BeamConfig::with_beam(b);
    let wide = BeamDecoder::new(
        params,
        Lookup3::new(seed),
        BinaryMapper::new(),
        BscCost,
        cfg,
    )
    .expect("valid decoder config");
    let scalar = BeamDecoder::new(
        params,
        Lookup3::new(seed).with_dispatch(KernelDispatch::Scalar),
        BinaryMapper::new(),
        BscCost,
        cfg,
    )
    .expect("valid decoder config")
    .with_kernel_dispatch(KernelDispatch::Scalar)
    .with_select_mode(SelectMode::Comparator);
    (wide, scalar)
}

fn packed_section(args: &RunArgs, params: &CodeParams) -> Vec<PackedPoint> {
    let iters = args.trials.max(1);
    let message = BitVec::from_bools(
        &(0..MESSAGE_BITS as usize)
            .map(|i| (i * 7) % 5 != 0)
            .collect::<Vec<_>>(),
    );
    let enc = Encoder::new(
        params,
        Lookup3::new(args.seed),
        BinaryMapper::new(),
        &message,
    )
    .expect("valid message");
    let obs = bit_observations(&enc);
    let n_symbols = obs.len() as f64;

    println!("# packed-bit (BSC): wide cost engine vs PR-4-equivalent scalar path");
    println!(
        "{:>5} {:>16} {:>18} {:>8} {:>16} {:>8}",
        "B", "wide sym/s", "scalar-path sym/s", "speedup", "ref sym/s", "vs ref"
    );
    let mut points = Vec::new();
    for &b in &BEAMS {
        let (wide, scalar) = packed_decoders(params, args.seed, b);
        let mut scratch_w = DecoderScratch::new();
        let mut scratch_s = DecoderScratch::new();
        let wide_res = wide.decode_with_scratch(&obs, &mut scratch_w);
        let scalar_res = scalar.decode_with_scratch(&obs, &mut scratch_s);
        assert_eq!(wide_res.message, scalar_res.message, "B = {b}");
        assert_eq!(wide_res.cost.to_bits(), scalar_res.cost.to_bits());
        assert_eq!(wide_res.candidates, scalar_res.candidates);

        let rounds = 5;
        let w_iters = iters.div_ceil(rounds).max(1);
        let (wide_secs, scalar_secs) = measure_pair(
            rounds,
            w_iters,
            w_iters,
            &mut || {
                black_box(wide.decode_with_scratch(&obs, &mut scratch_w).cost);
            },
            &mut || {
                black_box(scalar.decode_with_scratch(&obs, &mut scratch_s).cost);
            },
        );
        // The reference decoder is far slower; time it lightly.
        let cfg = BeamConfig::with_beam(b);
        let mut ref_fn = || {
            black_box(
                reference_decode(
                    params,
                    &Lookup3::new(args.seed),
                    &BinaryMapper::new(),
                    &BscCost,
                    &cfg,
                    &obs,
                )
                .cost,
            );
        };
        let ref_secs = time_per_run(w_iters.div_ceil(4).max(1), &mut ref_fn);

        let point = PackedPoint {
            beam: b,
            wide_symbols_per_sec: n_symbols / wide_secs,
            scalar_path_symbols_per_sec: n_symbols / scalar_secs,
            speedup: scalar_secs / wide_secs,
            ref_symbols_per_sec: n_symbols / ref_secs,
            speedup_vs_reference: ref_secs / wide_secs,
        };
        println!(
            "{:>5} {:>16.0} {:>18.0} {:>7.2}x {:>16.0} {:>7.2}x",
            point.beam,
            point.wide_symbols_per_sec,
            point.scalar_path_symbols_per_sec,
            point.speedup,
            point.ref_symbols_per_sec,
            point.speedup_vs_reference,
        );
        points.push(point);
    }
    points
}

/// Synthetic AWGN-shaped cost keys: sums of squared pseudo-Gaussians,
/// heavy in the low buckets like a real child frontier.
fn synthetic_keys(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let z = spinal_sim::derive_seed(seed, 77, i);
            // Two "squared noise" terms from the word's halves.
            let a = ((z & 0xffff) as f64 - 32768.0) / 8192.0;
            let b = (((z >> 16) & 0xffff) as f64 - 32768.0) / 8192.0;
            cost_key(a * a + b * b)
        })
        .collect()
}

fn selection_section(args: &RunArgs) -> Vec<SelectPoint> {
    println!("# selection: radix vs comparator top-B (synthetic AWGN keys)");
    println!(
        "{:>8} {:>6} {:>14} {:>16} {:>8}",
        "n", "keep", "radix ns/key", "compar. ns/key", "speedup"
    );
    let mut out = Vec::new();
    let mut order_a = Vec::new();
    let mut order_b = Vec::new();
    let mut scratch_a = SelectScratch::new();
    let mut scratch_b = SelectScratch::new();
    for (n, keep) in [(16_384usize, 64usize), (65_536, 256)] {
        let keys = synthetic_keys(n, args.seed);
        // Equivalence first, timing second.
        select::select_smallest(
            &keys,
            keep,
            &mut order_b,
            &mut scratch_b,
            SelectMode::Comparator,
        );
        select::select_smallest(&keys, keep, &mut order_a, &mut scratch_a, SelectMode::Auto);
        assert_eq!(order_b, order_a, "selection paths disagree");
        let iters = (args.trials * 4).max(8);
        let (radix_secs, comp_secs) = measure_pair(
            5,
            iters,
            iters,
            &mut || {
                select::select_smallest(
                    black_box(&keys),
                    keep,
                    &mut order_a,
                    &mut scratch_a,
                    SelectMode::Auto,
                );
                black_box(&order_a);
            },
            &mut || {
                select::select_smallest(
                    black_box(&keys),
                    keep,
                    &mut order_b,
                    &mut scratch_b,
                    SelectMode::Comparator,
                );
                black_box(&order_b);
            },
        );
        let p = SelectPoint {
            n,
            keep,
            radix_ns_per_key: radix_secs * 1e9 / n as f64,
            comparator_ns_per_key: comp_secs * 1e9 / n as f64,
            speedup: comp_secs / radix_secs,
        };
        println!(
            "{:>8} {:>6} {:>14.3} {:>16.3} {:>7.2}x",
            p.n, p.keep, p.radix_ns_per_key, p.comparator_ns_per_key, p.speedup
        );
        out.push(p);
    }
    out
}

fn serving_section(args: &RunArgs) -> Vec<ServingPoint> {
    println!("# serving points: servebench fleet attempts, dispatched tier vs forced scalar");
    println!(
        "{:>6} {:>8} {:>8} {:>16} {:>16} {:>8}",
        "shape", "symbols", "nodes", "dispatched ns/n", "scalar ns/node", "speedup"
    );
    let dispatched = KernelDispatch::detect();
    let mut points = Vec::new();
    for shape in &SERVING_SHAPES {
        for symbols in SERVING_SYMBOLS {
            let (params, obs) = serving_attempt(shape, args.seed, symbols);
            let wide = serving_decoder(&params, shape, args.seed, dispatched, SelectMode::Auto);
            let scalar = serving_decoder(
                &params,
                shape,
                args.seed,
                KernelDispatch::Scalar,
                SelectMode::Auto,
            );
            let mut scratch_w = DecoderScratch::new();
            let mut scratch_s = DecoderScratch::new();
            let res = wide.decode_with_scratch(&obs, &mut scratch_w);
            let base = scalar.decode_with_scratch(&obs, &mut scratch_s);
            assert_eq!(
                res.cost.to_bits(),
                base.cost.to_bits(),
                "{} {symbols}",
                shape.name
            );
            assert_eq!(res.candidates, base.candidates);
            let nodes = res.stats.nodes_expanded;
            // Attempts here take tens to hundreds of µs: run enough of
            // them per round to dwarf the timer.
            let iters = (args.trials * 4).max(8);
            let (wide_secs, scalar_secs) = measure_pair(
                5,
                iters,
                iters,
                &mut || {
                    black_box(wide.decode_with_scratch(&obs, &mut scratch_w).cost);
                },
                &mut || {
                    black_box(scalar.decode_with_scratch(&obs, &mut scratch_s).cost);
                },
            );
            let p = ServingPoint {
                shape: shape.name,
                symbols,
                nodes_per_attempt: nodes,
                dispatched_ns_per_node: wide_secs * 1e9 / nodes as f64,
                scalar_ns_per_node: scalar_secs * 1e9 / nodes as f64,
                speedup: scalar_secs / wide_secs,
            };
            println!(
                "{:>6} {:>8} {:>8} {:>16.2} {:>16.2} {:>7.2}x",
                p.shape,
                p.symbols,
                p.nodes_per_attempt,
                p.dispatched_ns_per_node,
                p.scalar_ns_per_node,
                p.speedup
            );
            points.push(p);
        }
    }
    points
}

/// `--quick` self-check: every supported SIMD tier × selection mode
/// decodes bit-identically to the scalar/comparator baseline on both
/// the soft and packed paths; returns the deterministic summary that CI
/// diffs against the golden file.
fn quick_self_check(args: &RunArgs, params: &CodeParams) -> String {
    let tiers = KernelDispatch::supported();
    let modes = [SelectMode::Auto, SelectMode::Comparator];

    // Packed-bit shape.
    let msg_b = BitVec::from_bools(
        &(0..MESSAGE_BITS as usize)
            .map(|i| (i * 7) % 5 != 0)
            .collect::<Vec<_>>(),
    );
    let enc_b = Encoder::new(params, Lookup3::new(args.seed), BinaryMapper::new(), &msg_b)
        .expect("valid message");
    let obs_b = bit_observations(&enc_b);
    let mut packed_base: Option<DecodeResult> = None;
    for &tier in &tiers {
        for mode in modes {
            let dec = BeamDecoder::new(
                params,
                Lookup3::new(args.seed).with_dispatch(tier),
                BinaryMapper::new(),
                BscCost,
                BeamConfig::with_beam(16),
            )
            .expect("valid decoder config")
            .with_kernel_dispatch(tier)
            .with_select_mode(mode);
            let res = dec.decode(&obs_b);
            assert_eq!(res.stats.kernel_dispatch, tier);
            match &packed_base {
                None => packed_base = Some(res),
                Some(base) => {
                    assert_eq!(res.message, base.message, "{tier} {mode:?}");
                    assert_eq!(res.cost.to_bits(), base.cost.to_bits());
                    assert_eq!(res.candidates, base.candidates);
                    assert_eq!(res.stats.hash_calls, base.stats.hash_calls);
                }
            }
        }
    }
    let packed = packed_base.expect("at least one tier");

    // Soft shape.
    let msg_a = BitVec::from_bools(
        &(0..MESSAGE_BITS as usize)
            .map(|i| i % 3 != 0)
            .collect::<Vec<_>>(),
    );
    let enc_a = Encoder::new(
        params,
        Lookup3::new(args.seed),
        LinearMapper::new(10),
        &msg_a,
    )
    .expect("valid message");
    let obs_a = observations(&enc_a);
    let mut soft_base: Option<DecodeResult> = None;
    for &tier in &tiers {
        for mode in modes {
            let dec = BeamDecoder::new(
                params,
                Lookup3::new(args.seed).with_dispatch(tier),
                LinearMapper::new(10),
                AwgnCost,
                BeamConfig::with_beam(16),
            )
            .expect("valid decoder config")
            .with_kernel_dispatch(tier)
            .with_select_mode(mode);
            let res = dec.decode(&obs_a);
            match &soft_base {
                None => soft_base = Some(res),
                Some(base) => {
                    assert_eq!(res.message, base.message, "{tier} {mode:?}");
                    assert_eq!(res.cost.to_bits(), base.cost.to_bits());
                    assert_eq!(res.candidates, base.candidates);
                }
            }
        }
    }
    let soft = soft_base.expect("at least one tier");

    // The servebench fleets' attempt shapes.
    let mut serving = Vec::new();
    for shape in &SERVING_SHAPES {
        for symbols in SERVING_SYMBOLS {
            let (params, obs) = serving_attempt(shape, args.seed, symbols);
            let mut base: Option<DecodeResult> = None;
            for &tier in &tiers {
                for mode in modes {
                    let res = serving_decoder(&params, shape, args.seed, tier, mode).decode(&obs);
                    match &base {
                        None => base = Some(res),
                        Some(b) => {
                            let at = format!("{} {symbols} {tier} {mode:?}", shape.name);
                            assert_eq!(res.message, b.message, "{at}");
                            assert_eq!(res.cost.to_bits(), b.cost.to_bits(), "{at}");
                            assert_eq!(res.candidates, b.candidates, "{at}");
                            assert_eq!(res.stats.hash_calls, b.stats.hash_calls, "{at}");
                            assert_eq!(res.stats.nodes_expanded, b.stats.nodes_expanded, "{at}");
                        }
                    }
                }
            }
            serving.push((shape.name, symbols, base.expect("at least one tier")));
        }
    }
    println!(
        "# self-check ok: {} tiers x {} select modes bit-identical on the packed, soft and \
         serving paths",
        tiers.len(),
        modes.len()
    );

    // The summary is machine-independent by construction: every field
    // is a decode result the bit-identity contract fixes. A runner
    // whose SIMD tier broke the contract fails the assertions above or
    // the golden diff below.
    let mut s = String::from("{\n  \"summary\": \"cost_engine_quick\",\n");
    for (name, symbols, res) in &serving {
        s.push_str(&format!(
            "  \"serving_{name}_{symbols}\": {{\"hash_calls\": {}, \"nodes_expanded\": {}, \"candidates\": {}}},\n",
            res.stats.hash_calls,
            res.stats.nodes_expanded,
            res.candidates.len(),
        ));
    }
    s.push_str(&format!(
        "  \"packed\": {{\"decoded\": {}, \"cost_bits\": {}, \"hash_calls\": {}, \"nodes_expanded\": {}, \"candidates\": {}}},\n",
        packed.message == msg_b,
        packed.cost.to_bits(),
        packed.stats.hash_calls,
        packed.stats.nodes_expanded,
        packed.candidates.len(),
    ));
    s.push_str(&format!(
        "  \"soft\": {{\"decoded\": {}, \"cost_bits\": {}, \"hash_calls\": {}, \"nodes_expanded\": {}, \"candidates\": {}}}\n",
        soft.message == msg_a,
        soft.cost.to_bits(),
        soft.stats.hash_calls,
        soft.stats.nodes_expanded,
        soft.candidates.len(),
    ));
    s.push_str("}\n");
    s
}

fn main() {
    let args = RunArgs::parse(40);
    banner(
        "beam_decode: wide cost engine vs baselines",
        &args,
        &format!(
            "message_bits={MESSAGE_BITS} k=8 passes={PASSES} kernel_dispatch={}",
            KernelDispatch::detect()
        ),
    );
    let params = CodeParams::builder()
        .message_bits(MESSAGE_BITS)
        .k(8)
        .seed(args.seed)
        .build()
        .expect("valid params");

    if args.quick {
        let summary = quick_self_check(&args, &params);
        std::fs::write("quick_cost_engine.json", &summary).expect("write quick_cost_engine.json");
        println!("# wrote quick_cost_engine.json");
    }

    let awgn = awgn_section(&args, &params);
    let packed = packed_section(&args, &params);
    let selection = selection_section(&args);
    let serving = serving_section(&args);

    if !args.quick {
        let json = render_json(&args, &awgn, &packed, &selection, &serving);
        std::fs::write("BENCH_beam_decode.json", &json).expect("write BENCH_beam_decode.json");
        println!("# wrote BENCH_beam_decode.json");
    }
}

/// Hand-rendered JSON (the workspace carries no serialization
/// dependency).
fn render_json(
    args: &RunArgs,
    awgn: &[AwgnPoint],
    packed: &[PackedPoint],
    selection: &[SelectPoint],
    serving: &[ServingPoint],
) -> String {
    let mut s = BenchSummary::new("beam_decode", args.seed, args.trials)
        .config("message_bits", MESSAGE_BITS)
        .config("k", 8)
        .config("c", 10)
        .config("passes", PASSES)
        .config_str("kernel_dispatch", KernelDispatch::detect().as_str())
        .config_str(
            "baseline_awgn",
            "decode::reference (per-observation expand_bits, no scratch reuse)",
        )
        .config_str(
            "baseline_packed",
            "PR-4-equivalent engine: scalar hash lanes + scalar collapse + comparator select",
        )
        .config_str(
            "serving_shapes",
            "k=4 c=8 stride-8, attempts from level 0: clean 48 bits B=4 noiseless; awgn 64 bits B=16 10 dB",
        )
        .render_header();
    s.push_str("  \"points\": [\n");
    for (i, p) in awgn.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"B\": {}, \"optimized_symbols_per_sec\": {:.1}, \"reference_symbols_per_sec\": {:.1}, \"speedup\": {:.3}, \"optimized_hash_calls_per_decode\": {}, \"reference_hash_calls_per_decode\": {}, \"hash_call_reduction\": {:.3}}}{}\n",
            p.beam,
            p.opt_symbols_per_sec,
            p.ref_symbols_per_sec,
            p.speedup,
            p.opt_hash_calls,
            p.ref_hash_calls,
            p.hash_ratio,
            if i + 1 == awgn.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"packed_bit_points\": [\n");
    for (i, p) in packed.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"B\": {}, \"wide_symbols_per_sec\": {:.1}, \"scalar_path_symbols_per_sec\": {:.1}, \"speedup\": {:.3}, \"reference_symbols_per_sec\": {:.1}, \"speedup_vs_reference\": {:.3}}}{}\n",
            p.beam,
            p.wide_symbols_per_sec,
            p.scalar_path_symbols_per_sec,
            p.speedup,
            p.ref_symbols_per_sec,
            p.speedup_vs_reference,
            if i + 1 == packed.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"selection\": [\n");
    for (i, p) in selection.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"n\": {}, \"keep\": {}, \"radix_ns_per_key\": {:.3}, \"comparator_ns_per_key\": {:.3}, \"speedup\": {:.3}}}{}\n",
            p.n,
            p.keep,
            p.radix_ns_per_key,
            p.comparator_ns_per_key,
            p.speedup,
            if i + 1 == selection.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"serving_points\": [\n");
    for (i, p) in serving.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shape\": \"{}\", \"symbols\": {}, \"nodes_per_attempt\": {}, \"dispatched_ns_per_node\": {:.2}, \"scalar_ns_per_node\": {:.2}, \"speedup\": {:.3}}}{}\n",
            p.shape,
            p.symbols,
            p.nodes_per_attempt,
            p.dispatched_ns_per_node,
            p.scalar_ns_per_node,
            p.speedup,
            if i + 1 == serving.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
