//! Simulation-engine throughput tracker: sharded engine vs per-trial
//! loops.
//!
//! Measures Monte-Carlo **trials/sec** on two rateless workloads —
//! AWGN (24-bit messages, k = 8, c = 10, B = 16, 0 dB) and BSC
//! (24-bit messages, k = 8, B = 16, p = 0.10) — for three
//! implementations running the *same* trials (identical per-trial seed
//! streams):
//!
//! * **engine** — [`spinal_sim::engine::SimEngine`], at 1 worker and at
//!   the machine's worker count: long-lived per-worker encoder /
//!   decoder scratch / observation buffers, batched-hash encoding and
//!   expansion, XOR/popcount level costing on the bit channel, zero
//!   steady-state allocation;
//! * **pre-engine loop** — a faithful copy of the pre-engine
//!   `run_awgn`/`run_bsc` trial loop: per-trial
//!   encoder/decoder/observation construction and allocating sub-pass
//!   expansion, but the optimized scratch-reusing beam decoder;
//! * **seed-style loop** — the seed repository's style: per-trial
//!   construction *and* a fresh decode allocation per attempt through
//!   the straightforward baseline decoder preserved in
//!   [`spinal_core::decode::reference`].
//!
//! Also records single-thread **hash throughput**, scalar `hash` loop
//! vs `hash_batch`, for every spine-hash family (the core batching layer
//! the engine rides on).
//!
//! The engines run interleaved, each keeping its fastest round, so a
//! slow phase of a shared host lands on all of them alike. Prints the
//! numbers as a table; a full run also writes
//! `BENCH_sim_engine.json` into the working directory, while `--quick`
//! (fewer rounds) writes nothing. Options: `--trials N` (default 60,
//! the AWGN count; BSC runs 2×), `--seed S`, `--threads T`, `--quick`.

use spinal_bench::{banner, measure_hash_families, time_interleaved, BenchSummary, RunArgs};
use spinal_channel::{AwgnChannel, BscChannel, Channel, Rng};
use spinal_core::decode::{
    reference_decode, AwgnCost, BeamConfig, BeamDecoder, BscCost, CostModel, DecoderScratch,
    Observations,
};
use spinal_core::hash::{AnyHash, HashFamily};
use spinal_core::map::{AnyIqMapper, BinaryMapper, Mapper};
use spinal_core::params::CodeParams;
use spinal_core::puncture::{AnySchedule, PunctureSchedule};
use spinal_core::{BitVec, DecodeResult, Encoder};
use spinal_sim::engine::SimEngine;
use spinal_sim::rateless::{
    run_awgn_with, run_bsc_with, BscRatelessConfig, RatelessConfig, Termination,
};
use spinal_sim::stats::derive_seed;

const AWGN_SNR_DB: f64 = 0.0;
const BSC_P: f64 = 0.10;

fn awgn_workload() -> RatelessConfig {
    RatelessConfig {
        message_bits: 24,
        k: 8,
        tail_segments: 0,
        hash: HashFamily::Lookup3,
        mapper: AnyIqMapper::linear(10),
        schedule: AnySchedule::none(),
        beam: BeamConfig::paper_default(),
        adc_bits: None,
        max_passes: 60,
        attempt_growth: 1.0,
        termination: Termination::Genie,
    }
}

fn bsc_workload() -> BscRatelessConfig {
    BscRatelessConfig {
        message_bits: 24,
        k: 8,
        tail_segments: 0,
        hash: HashFamily::Lookup3,
        schedule: AnySchedule::none(),
        beam: BeamConfig::paper_default(),
        max_passes: 200,
        attempt_growth: 1.0,
        termination: Termination::Genie,
    }
}

/// The generic shape of both baseline loops: per-trial construction,
/// allocating sub-pass expansion, decode per pass until the genie
/// accepts. `decode` is the per-attempt decode implementation the
/// variant under test supplies.
#[allow(clippy::too_many_arguments)]
fn baseline_loop<M, Ch>(
    message_bits: u32,
    k: u32,
    hash_family: HashFamily,
    mapper: &M,
    schedule: &AnySchedule,
    max_passes: u32,
    streams: [u64; 3],
    make_channel: impl Fn(u64) -> Ch,
    trials: u32,
    seed: u64,
    mut decode: impl FnMut(&CodeParams, AnyHash, &Observations<M::Symbol>, &BitVec) -> bool,
) -> u32
where
    M: Mapper,
    Ch: Channel<M::Symbol>,
{
    let mut successes = 0;
    for trial in 0..trials {
        let code_seed = derive_seed(seed, streams[0], u64::from(trial));
        let noise_seed = derive_seed(seed, streams[1], u64::from(trial));
        let msg_seed = derive_seed(seed, streams[2], u64::from(trial));
        let params = CodeParams::builder()
            .message_bits(message_bits)
            .k(k)
            .seed(code_seed)
            .build()
            .expect("valid config");
        let hash = AnyHash::new(hash_family, code_seed);
        let mut rng = Rng::seed_from(msg_seed);
        let message: BitVec = (0..message_bits).map(|_| rng.bit()).collect();
        let mut channel = make_channel(noise_seed);
        let encoder = Encoder::new(&params, hash, mapper.clone(), &message).expect("valid");
        let mut obs = Observations::new(params.n_segments());
        let total = max_passes * schedule.subpasses_per_pass();
        'trial: for g in 0..total {
            let sub = encoder.subpass(schedule, g);
            if sub.is_empty() {
                continue;
            }
            for (slot, x) in sub {
                obs.push(slot, channel.transmit(x));
            }
            if decode(&params, hash, &obs, &message) {
                successes += 1;
                break 'trial;
            }
        }
    }
    successes
}

struct LoopTimes {
    seed_style: f64,
    pre_engine: f64,
    engine_1w: f64,
    engine_nw: f64,
}

/// Measures one channel workload's four implementations, first checking
/// that all of them decode the identical trials with identical success
/// counts.
#[allow(clippy::too_many_arguments)]
fn measure<M, C, Ch>(
    label: &str,
    message_bits: u32,
    k: u32,
    hash_family: HashFamily,
    mapper: M,
    cost: C,
    beam: BeamConfig,
    schedule: &AnySchedule,
    max_passes: u32,
    streams: [u64; 3],
    make_channel: impl Fn(u64) -> Ch + Copy,
    engine_run: impl Fn(&SimEngine) -> u32,
    trials: u32,
    seed: u64,
    threads: usize,
    rounds: u32,
) -> LoopTimes
where
    M: Mapper,
    C: CostModel<M::Symbol>,
    Ch: Channel<M::Symbol>,
{
    let seed_style = || {
        baseline_loop(
            message_bits,
            k,
            hash_family,
            &mapper,
            schedule,
            max_passes,
            streams,
            make_channel,
            trials,
            seed,
            |params, hash, obs, message| {
                reference_decode(params, &hash, &mapper, &cost, &beam, obs).message == *message
            },
        )
    };
    let pre_engine = || {
        let mut scratch = DecoderScratch::new();
        let mut result = DecodeResult::default();
        baseline_loop(
            message_bits,
            k,
            hash_family,
            &mapper,
            schedule,
            max_passes,
            streams,
            make_channel,
            trials,
            seed,
            |params, hash, obs, message| {
                let decoder = BeamDecoder::new(params, hash, mapper.clone(), cost.clone(), beam)
                    .expect("valid decoder config");
                decoder.decode_into(obs, &mut scratch, &mut result);
                result.message == *message
            },
        )
    };
    let engine_successes = engine_run(&SimEngine::serial());
    assert_eq!(
        engine_successes,
        seed_style(),
        "{label}: engine vs seed-style"
    );
    assert_eq!(
        engine_successes,
        pre_engine(),
        "{label}: engine vs pre-engine"
    );
    let nt_engine = SimEngine::with_workers(threads);
    let [seed_style, pre_engine, engine_1w, engine_nw] = time_interleaved(
        rounds,
        [
            &mut || seed_style(),
            &mut || pre_engine(),
            &mut || engine_run(&SimEngine::serial()),
            &mut || engine_run(&nt_engine),
        ],
    );
    LoopTimes {
        seed_style,
        pre_engine,
        engine_1w,
        engine_nw,
    }
}

fn print_section(title: &str, trials: u32, threads: usize, t: &LoopTimes) {
    let tps = |secs: f64| f64::from(trials) / secs;
    println!(
        "\n[{title}]\n{:<34} {:>14} {:>12}",
        "implementation", "trials/sec", "vs seed-style"
    );
    for (label, secs) in [
        ("seed-style loop (1t)".to_string(), t.seed_style),
        ("pre-engine loop (1t)".to_string(), t.pre_engine),
        ("engine (1 worker)".to_string(), t.engine_1w),
        (format!("engine ({threads} workers)"), t.engine_nw),
    ] {
        println!(
            "{label:<34} {:>14.0} {:>11.2}x",
            tps(secs),
            t.seed_style / secs
        );
    }
}

fn main() {
    let args = RunArgs::parse(60);
    let awgn = awgn_workload();
    let bsc = bsc_workload();
    banner(
        "sim_engine: sharded engine vs per-trial loops",
        &args,
        &format!(
            "awgn {AWGN_SNR_DB} dB + bsc p={BSC_P}, message_bits=24 k=8 B={} schedule=none genie",
            awgn.beam.beam_width
        ),
    );
    let trials = args.trials;
    let bsc_trials = trials * 2; // BSC trials are cheaper
    let threads = args.threads.max(1);
    let rounds = if args.quick { 2 } else { 3 };

    let t_awgn = measure(
        "awgn",
        awgn.message_bits,
        awgn.k,
        awgn.hash,
        awgn.mapper.clone(),
        AwgnCost,
        awgn.beam,
        &awgn.schedule,
        awgn.max_passes,
        [0, 1, 2],
        |s| AwgnChannel::from_snr_db(AWGN_SNR_DB, s),
        |engine| {
            run_awgn_with(&awgn, AWGN_SNR_DB, trials, args.seed, engine)
                .expect("valid experiment config")
                .successes
        },
        trials,
        args.seed,
        threads,
        rounds,
    );
    let t_bsc = measure(
        "bsc",
        bsc.message_bits,
        bsc.k,
        bsc.hash,
        BinaryMapper::new(),
        BscCost,
        bsc.beam,
        &bsc.schedule,
        bsc.max_passes,
        [10, 11, 12],
        |s| BscChannel::new(BSC_P, s),
        |engine| {
            run_bsc_with(&bsc, BSC_P, bsc_trials, args.seed, engine)
                .expect("valid experiment config")
                .successes
        },
        bsc_trials,
        args.seed,
        threads,
        rounds,
    );
    print_section("awgn", trials, threads, &t_awgn);
    print_section("bsc", bsc_trials, threads, &t_bsc);

    let hashes = measure_hash_families(args.seed);
    println!(
        "\n{:<16} {:>12} {:>12} {:>9}",
        "hash family", "scalar ns", "batch ns", "speedup"
    );
    for p in &hashes {
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>8.2}x",
            p.name,
            p.scalar_ns,
            p.batch_ns,
            p.batch_speedup()
        );
    }

    let channel_json = |name: &str, trials: u32, t: &LoopTimes| {
        let tps = |secs: f64| f64::from(trials) / secs;
        format!(
            "  \"{name}\": {{\n    \"trials\": {trials},\n    \"trials_per_sec\": {{\"seed_style_loop_1t\": {:.1}, \"pre_engine_loop_1t\": {:.1}, \"engine_1_worker\": {:.1}, \"engine_machine_workers\": {:.1}}},\n    \"machine_workers\": {threads},\n    \"speedup_vs_seed_style_loop_equal_threads\": {:.2},\n    \"speedup_vs_pre_engine_loop_equal_threads\": {:.2}\n  }}",
            tps(t.seed_style),
            tps(t.pre_engine),
            tps(t.engine_1w),
            tps(t.engine_nw),
            t.seed_style / t.engine_1w,
            t.pre_engine / t.engine_1w,
            threads = threads,
        )
    };
    let mut json = BenchSummary::new("sim_engine", args.seed, rounds)
        .config("message_bits", awgn.message_bits)
        .config("k", awgn.k)
        .config("beam", awgn.beam.beam_width)
        .config_str("schedule", "none")
        .config_str("termination", "genie")
        .config("awgn_snr_db", AWGN_SNR_DB)
        .config("bsc_p", BSC_P)
        .config("threads", threads)
        .render_header();
    json.push_str(&channel_json("awgn", trials, &t_awgn));
    json.push_str(",\n");
    json.push_str(&channel_json("bsc", bsc_trials, &t_bsc));
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"headline_speedup_vs_seed_style_loop\": {:.2},\n",
        t_bsc.seed_style / t_bsc.engine_1w
    ));
    json.push_str("  \"hash_batch\": {\n");
    for (i, p) in hashes.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"scalar_ns\": {:.3}, \"batch_ns\": {:.3}, \"speedup\": {:.2}}}{}\n",
            p.name,
            p.scalar_ns,
            p.batch_ns,
            p.batch_speedup(),
            if i + 1 < hashes.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    if !args.quick {
        std::fs::write("BENCH_sim_engine.json", &json).expect("write BENCH_sim_engine.json");
        println!("\n# wrote BENCH_sim_engine.json");
    }
}
