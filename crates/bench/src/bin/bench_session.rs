//! Streaming-session perf tracker: incremental retry vs decode-from-scratch.
//!
//! Models the receiver of a rateless link with feedback: symbols arrive
//! in bursts of `d` (the attempt interval — one symbol per attempt at
//! `d = 1` models per-symbol feedback; a full pass per attempt models a
//! slow ACK loop), and after each burst the receiver retries decoding
//! everything received so far until the genie accepts. Two receivers run
//! the *identical* attempt schedule over the identical noisy streams:
//!
//! * **incremental** — an
//!   [`RxSession`](spinal_core::session::RxSession)-style loop through
//!   [`BeamDecoder::decode_incremental`]: per-level checkpoints resume
//!   the tree sweep at the first spine position that changed, and cached
//!   level plans skip re-planning unchanged levels;
//! * **scratch** — the pre-session receiver:
//!   [`BeamDecoder::decode_with_scratch`] re-runs every level from the
//!   root on every retry (scratch reuse, but no cross-attempt state).
//!
//! Both must accept at exactly the same symbol count (bit-identity is
//! asserted). Writes `BENCH_session.json`; options: `--trials N`
//! (measurement rounds, default 30), `--seed S`, `--quick`.

use spinal_bench::{
    banner, deep_first_grid, deep_first_grid_shaped, print_deep_first_grid, DeepFirstPoint, RunArgs,
};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::bits::BitVec;
use spinal_core::decode::{
    AwgnCost, BeamCheckpoints, BeamConfig, BeamDecoder, DecodeResult, DecoderScratch, Observations,
};
use spinal_core::encode::Encoder;
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::{PunctureSchedule, StridedPuncture, SubpassOrder};
use spinal_core::symbol::Slot;
use spinal_core::IqSymbol;
use std::hint::black_box;
use std::time::Instant;

const MESSAGE_BITS: u32 = 128;
const K: u32 = 4;
const C: u32 = 8;
const SNR_DB: f64 = 8.0;
const BEAM: usize = 16;
/// Symbols of one full pass (`n / k` spine positions).
const PASS_SYMBOLS: usize = (MESSAGE_BITS / K) as usize;
/// Attempt intervals in symbols ("feedback delays") after the first
/// full pass: 1 = per-symbol feedback, 4 = a stride-8 sub-pass,
/// 32 = one full pass per attempt.
const DELAYS: [usize; 4] = [1, 2, 4, 32];
const STREAMS: usize = 8;
const MAX_SYMBOLS: usize = 1600;

struct Trial {
    message: BitVec,
    /// The noisy received stream in schedule order.
    stream: Vec<(Slot, IqSymbol)>,
}

struct Point {
    delay: usize,
    incremental_sessions_per_sec: f64,
    scratch_sessions_per_sec: f64,
    speedup: f64,
    mean_symbols_to_decode: f64,
    levels_resumed_fraction: f64,
    /// Heap bytes the warm checkpoint store holds at this operating
    /// point (saved frontiers + arena + plan caches) — the per-session
    /// figure a multi-session memory budget accounts against, so the
    /// scheduler-priority claims are auditable from this artifact.
    checkpoint_bytes: usize,
}

/// One `(ordering, delay)` operating point of the checkpoint-aware
/// puncturing probe (ROADMAP): retry cost vs coverage.
struct ProbePoint {
    ordering: &'static str,
    delay: usize,
    sessions_per_sec: f64,
    mean_symbols_to_decode: f64,
    levels_resumed_fraction: f64,
}

fn build_trials(seed: u64, sched: &StridedPuncture) -> (CodeParams, Vec<Trial>) {
    let params = CodeParams::builder()
        .message_bits(MESSAGE_BITS)
        .k(K)
        .seed(seed)
        .build()
        .expect("valid params");
    let trials = (0..STREAMS as u64)
        .map(|i| {
            let mut message = BitVec::new();
            for b in 0..MESSAGE_BITS as u64 {
                message.push(
                    (seed ^ (i << 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (b % 63) & 1 == 1,
                );
            }
            let enc = Encoder::new(&params, Lookup3::new(seed), LinearMapper::new(C), &message)
                .expect("valid message");
            let mut channel = AwgnChannel::from_snr_db(SNR_DB, seed.wrapping_add(i * 7919));
            let mut stream = Vec::with_capacity(MAX_SYMBOLS);
            let mut slots = Vec::new();
            let mut g = 0u32;
            while stream.len() < MAX_SYMBOLS {
                sched.subpass_slots_into(params.n_segments(), g, &mut slots);
                for &slot in &slots {
                    stream.push((slot, channel.transmit(enc.symbol(slot))));
                }
                g += 1;
            }
            stream.truncate(MAX_SYMBOLS);
            Trial { message, stream }
        })
        .collect();
    (params, trials)
}

/// One full incremental session: ingest bursts of `delay` symbols,
/// retry via checkpoint resumption, stop at genie acceptance. Returns
/// symbols consumed.
#[allow(clippy::too_many_arguments)]
fn run_incremental(
    dec: &BeamDecoder<Lookup3, LinearMapper, AwgnCost>,
    trial: &Trial,
    delay: usize,
    obs: &mut Observations<IqSymbol>,
    ckpt: &mut BeamCheckpoints,
    scratch: &mut DecoderScratch,
    result: &mut DecodeResult,
) -> usize {
    obs.clear();
    ckpt.reset();
    // The receiver's first attempt waits for one full pass (every level
    // observed once); the retry loop proper starts after it.
    for &(slot, y) in &trial.stream[..PASS_SYMBOLS] {
        obs.push(slot, y);
    }
    let mut used = PASS_SYMBOLS;
    dec.decode_incremental(obs, 0, ckpt, scratch, result);
    if result.message == trial.message {
        return used;
    }
    for burst in trial.stream[PASS_SYMBOLS..].chunks(delay) {
        let mut dirty = u32::MAX;
        for &(slot, y) in burst {
            obs.push(slot, y);
            dirty = dirty.min(slot.t);
        }
        used += burst.len();
        dec.decode_incremental(obs, dirty, ckpt, scratch, result);
        if result.message == trial.message {
            return used;
        }
    }
    used
}

/// The identical attempt schedule, decoding from scratch each retry.
fn run_scratch(
    dec: &BeamDecoder<Lookup3, LinearMapper, AwgnCost>,
    trial: &Trial,
    delay: usize,
    obs: &mut Observations<IqSymbol>,
    scratch: &mut DecoderScratch,
    result: &mut DecodeResult,
) -> usize {
    obs.clear();
    for &(slot, y) in &trial.stream[..PASS_SYMBOLS] {
        obs.push(slot, y);
    }
    let mut used = PASS_SYMBOLS;
    dec.decode_into(obs, scratch, result);
    if result.message == trial.message {
        return used;
    }
    for burst in trial.stream[PASS_SYMBOLS..].chunks(delay) {
        for &(slot, y) in burst {
            obs.push(slot, y);
        }
        used += burst.len();
        dec.decode_into(obs, scratch, result);
        if result.message == trial.message {
            return used;
        }
    }
    used
}

fn time_per_sweep(rounds: u32, f: &mut impl FnMut() -> usize) -> f64 {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args = RunArgs::parse(30);
    banner(
        "session: incremental retry vs decode-from-scratch",
        &args,
        &format!(
            "message_bits={MESSAGE_BITS} k={K} c={C} B={BEAM} snr={SNR_DB}dB stride-8 streams={STREAMS}"
        ),
    );
    let rounds = if args.quick { 3 } else { args.trials.max(3) };
    let (params, trials) = build_trials(args.seed, &StridedPuncture::stride8());
    let dec = BeamDecoder::new(
        &params,
        Lookup3::new(args.seed),
        LinearMapper::new(C),
        AwgnCost,
        BeamConfig::with_beam(BEAM),
    )
    .expect("valid decoder config");

    let mut obs = Observations::new(params.n_segments());
    let mut ckpt = BeamCheckpoints::new();
    let mut scratch = DecoderScratch::new();
    let mut result = DecodeResult::default();

    println!(
        "{:>7} {:>18} {:>18} {:>8} {:>12} {:>14} {:>10}",
        "delay",
        "incr sessions/s",
        "scratch sessions/s",
        "speedup",
        "mean syms",
        "lvls resumed",
        "ckpt KiB"
    );
    let mut points = Vec::new();
    for &delay in &DELAYS {
        // Bit-identity: both receivers must accept at the same symbol.
        let mut total_syms = 0usize;
        for trial in &trials {
            let a = run_incremental(
                &dec,
                trial,
                delay,
                &mut obs,
                &mut ckpt,
                &mut scratch,
                &mut result,
            );
            let b = run_scratch(&dec, trial, delay, &mut obs, &mut scratch, &mut result);
            assert_eq!(a, b, "engines must accept at the same symbol (d={delay})");
            assert!(
                a < MAX_SYMBOLS,
                "stream budget too small to decode at d={delay}"
            );
            total_syms += a;
        }
        // Resumption fraction measured on a fresh checkpoint sweep.
        let mut frac_ckpt = BeamCheckpoints::new();
        for trial in &trials {
            run_incremental(
                &dec,
                trial,
                delay,
                &mut obs,
                &mut frac_ckpt,
                &mut scratch,
                &mut result,
            );
        }
        let resumed = frac_ckpt.levels_resumed() as f64;
        let run = frac_ckpt.levels_run() as f64;

        let mut incr = || {
            let mut acc = 0;
            for trial in &trials {
                acc += run_incremental(
                    &dec,
                    trial,
                    delay,
                    &mut obs,
                    &mut ckpt,
                    &mut scratch,
                    &mut result,
                );
            }
            acc
        };
        let incr_secs = time_per_sweep(rounds, &mut incr) / STREAMS as f64;
        let mut scr = || {
            let mut acc = 0;
            for trial in &trials {
                acc += run_scratch(&dec, trial, delay, &mut obs, &mut scratch, &mut result);
            }
            acc
        };
        let scr_secs = time_per_sweep(rounds, &mut scr) / STREAMS as f64;

        let point = Point {
            delay,
            incremental_sessions_per_sec: 1.0 / incr_secs,
            scratch_sessions_per_sec: 1.0 / scr_secs,
            speedup: scr_secs / incr_secs,
            mean_symbols_to_decode: total_syms as f64 / STREAMS as f64,
            levels_resumed_fraction: resumed / (resumed + run),
            checkpoint_bytes: frac_ckpt.memory_bytes(),
        };
        println!(
            "{:>7} {:>18.1} {:>18.1} {:>7.2}x {:>12.1} {:>13.1}% {:>10.1}",
            point.delay,
            point.incremental_sessions_per_sec,
            point.scratch_sessions_per_sec,
            point.speedup,
            point.mean_symbols_to_decode,
            100.0 * point.levels_resumed_fraction,
            point.checkpoint_bytes as f64 / 1024.0,
        );
        points.push(point);
    }

    // Checkpoint-aware puncturing probe (ROADMAP): does a deep-first
    // sub-pass ordering make retries cheaper without costing coverage?
    println!("# puncturing probe: bit-reversed vs deep-first sub-pass ordering");
    println!(
        "{:>14} {:>7} {:>14} {:>12} {:>14}",
        "ordering", "delay", "sessions/s", "mean syms", "lvls resumed"
    );
    let mut probe = Vec::new();
    for (name, ordering) in [
        ("bit-reversed", SubpassOrder::BitReversed),
        ("deep-first", SubpassOrder::DeepFirst),
    ] {
        let sched = StridedPuncture::with_order(8, ordering).expect("valid stride");
        let (_, trials) = build_trials(args.seed, &sched);
        for delay in [1usize, 4] {
            let mut frac_ckpt = BeamCheckpoints::new();
            let mut total_syms = 0usize;
            for trial in &trials {
                total_syms += run_incremental(
                    &dec,
                    trial,
                    delay,
                    &mut obs,
                    &mut frac_ckpt,
                    &mut scratch,
                    &mut result,
                );
            }
            let resumed = frac_ckpt.levels_resumed() as f64;
            let run = frac_ckpt.levels_run() as f64;
            let mut sweep = || {
                let mut acc = 0;
                for trial in &trials {
                    acc += run_incremental(
                        &dec,
                        trial,
                        delay,
                        &mut obs,
                        &mut ckpt,
                        &mut scratch,
                        &mut result,
                    );
                }
                acc
            };
            let secs = time_per_sweep(rounds, &mut sweep) / STREAMS as f64;
            let p = ProbePoint {
                ordering: name,
                delay,
                sessions_per_sec: 1.0 / secs,
                mean_symbols_to_decode: total_syms as f64 / STREAMS as f64,
                levels_resumed_fraction: resumed / (resumed + run),
            };
            println!(
                "{:>14} {:>7} {:>14.1} {:>12.1} {:>13.1}%",
                p.ordering,
                p.delay,
                p.sessions_per_sec,
                p.mean_symbols_to_decode,
                100.0 * p.levels_resumed_fraction,
            );
            probe.push(p);
        }
    }

    // Deep-first coverage validation (ROADMAP): the probe above shows
    // deep-first wins retry cost at ONE operating point; this grid
    // sweeps SNR × message length so the promote-or-keep-opt-in call is
    // made on coverage, not a single cell. Shared with the
    // `ablation_puncturing` binary.
    println!("# deep-first coverage grid: mean achieved rate (higher = fewer symbols)");
    let grid_trials = if args.quick { 12 } else { 60 };
    let grid = deep_first_grid(&args, grid_trials);
    let win_fraction = print_deep_first_grid(&grid);
    println!(
        "# deep-first matches/beats bit-reversed coverage in {:.0}% of cells",
        100.0 * win_fraction
    );

    // The same sweep at the paper's Figure 2 shape (k = 8, c = 10): the
    // probe shape above is cheap to sweep but not the shape a server
    // actually runs, so the promote-or-keep-opt-in verdict for
    // `SubpassOrder::DeepFirst` (spinal-serve's
    // `ServeProfile::deep_first()`) is made on BOTH grids.
    println!("# deep-first coverage grid at the Figure 2 shape (k = 8, c = 10)");
    let fig2_trials = if args.quick { 6 } else { 30 };
    let fig2_grid = deep_first_grid_shaped(&args, fig2_trials, 8, 10, 24);
    let fig2_win = print_deep_first_grid(&fig2_grid);
    let promote = win_fraction >= 1.0 && fig2_win >= 1.0;
    println!(
        "# fig2-shape deep-first coverage: {:.0}% of cells; verdict: {}",
        100.0 * fig2_win,
        if promote {
            "full coverage at both shapes — eligible for default promotion"
        } else {
            "coverage gaps remain — DeepFirst stays opt-in (ServeProfile::deep_first())"
        }
    );

    let json = render_json(
        &args,
        rounds,
        &points,
        &probe,
        &grid,
        grid_trials,
        &fig2_grid,
        fig2_trials,
        win_fraction,
        fig2_win,
    );
    std::fs::write("BENCH_session.json", &json).expect("write BENCH_session.json");
    println!("# wrote BENCH_session.json");
}

/// Hand-rendered JSON (the workspace carries no serialization
/// dependency).
#[allow(clippy::too_many_arguments)]
fn render_json(
    args: &RunArgs,
    rounds: u32,
    points: &[Point],
    probe: &[ProbePoint],
    grid: &[DeepFirstPoint],
    grid_trials: u32,
    fig2_grid: &[DeepFirstPoint],
    fig2_trials: u32,
    win_fraction: f64,
    fig2_win: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"session_incremental_retry\",\n");
    s.push_str("  \"config\": {\n");
    s.push_str(&format!(
        "    \"message_bits\": {MESSAGE_BITS},\n    \"k\": {K},\n    \"c\": {C},\n    \"beam\": {BEAM},\n    \"snr_db\": {SNR_DB},\n    \"schedule\": \"strided-8\",\n    \"streams\": {STREAMS},\n"
    ));
    s.push_str(&format!(
        "    \"seed\": {},\n    \"rounds\": {},\n    \"baseline\": \"decode_with_scratch from level 0 on every retry (identical attempt schedule)\"\n",
        args.seed, rounds
    ));
    s.push_str("  },\n");
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"attempt_interval_symbols\": {}, \"incremental_sessions_per_sec\": {:.1}, \"scratch_sessions_per_sec\": {:.1}, \"speedup\": {:.3}, \"mean_symbols_to_decode\": {:.1}, \"levels_resumed_fraction\": {:.3}, \"checkpoint_bytes\": {}}}{}\n",
            p.delay,
            p.incremental_sessions_per_sec,
            p.scratch_sessions_per_sec,
            p.speedup,
            p.mean_symbols_to_decode,
            p.levels_resumed_fraction,
            p.checkpoint_bytes,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"puncturing_probe\": [\n");
    for (i, p) in probe.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"ordering\": \"{}\", \"attempt_interval_symbols\": {}, \"sessions_per_sec\": {:.1}, \"mean_symbols_to_decode\": {:.1}, \"levels_resumed_fraction\": {:.3}}}{}\n",
            p.ordering,
            p.delay,
            p.sessions_per_sec,
            p.mean_symbols_to_decode,
            p.levels_resumed_fraction,
            if i + 1 == probe.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    let render_grid = |s: &mut String, g: &[DeepFirstPoint]| {
        for (i, p) in g.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"snr_db\": {:.1}, \"message_bits\": {}, \"bit_reversed_rate\": {:.4}, \"deep_first_rate\": {:.4}}}{}\n",
                p.snr_db,
                p.message_bits,
                p.bit_reversed_rate,
                p.deep_first_rate,
                if i + 1 == g.len() { "" } else { "," },
            ));
        }
    };
    s.push_str(&format!(
        "  \"deep_first_grid\": {{\n    \"config\": {{\"k\": 4, \"c\": 8, \"beam\": 16, \"stride\": 8, \"trials\": {grid_trials}}},\n    \"points\": [\n"
    ));
    render_grid(&mut s, grid);
    s.push_str("    ]\n  },\n");
    s.push_str(&format!(
        "  \"deep_first_grid_fig2_shape\": {{\n    \"config\": {{\"k\": 8, \"c\": 10, \"beam\": 16, \"stride\": 8, \"trials\": {fig2_trials}}},\n    \"points\": [\n"
    ));
    render_grid(&mut s, fig2_grid);
    s.push_str("    ]\n  },\n");
    let promote = win_fraction >= 1.0 && fig2_win >= 1.0;
    s.push_str(&format!(
        "  \"deep_first_verdict\": {{\n    \"win_threshold_ratio\": 0.995,\n    \"probe_shape_win_fraction\": {win_fraction:.3},\n    \"fig2_shape_win_fraction\": {fig2_win:.3},\n    \"promote_to_default\": {promote},\n    \"serving_profile\": \"ServeProfile::deep_first() (opt-in)\"\n  }}\n"
    ));
    s.push_str("}\n");
    s
}
