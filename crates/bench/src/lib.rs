//! Shared plumbing for the figure/ablation regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one experiment from the paper
//! (see DESIGN.md §3 for the index). They share a tiny argument parser —
//! `--trials N`, `--seed S`, `--threads T`, `--quick` — and a few table
//! helpers. All binaries print their full configuration first, so any
//! number in a report can be traced to a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Common command-line arguments for experiment binaries.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Monte-Carlo trials per point.
    pub trials: u32,
    /// Master experiment seed.
    pub seed: u64,
    /// Worker threads for point-parallel sweeps.
    pub threads: usize,
    /// Reduced-size run for smoke testing.
    pub quick: bool,
}

impl RunArgs {
    /// Parses `std::env::args`, with `default_trials` when `--trials` is
    /// absent. `--quick` divides the trial count by 4 (min 10) and is
    /// also exposed so binaries can thin their grids.
    pub fn parse(default_trials: u32) -> Self {
        let mut trials = default_trials;
        let mut seed = 0xC0DE_2011_u64;
        let mut threads = spinal_sim::default_threads();
        let mut quick = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trials" => {
                    trials = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--trials needs an integer");
                }
                "--seed" => {
                    seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs an integer");
                }
                "--threads" => {
                    threads = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads needs an integer");
                }
                "--quick" => quick = true,
                "--help" | "-h" => {
                    eprintln!("options: --trials N  --seed S  --threads T  --quick");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        if quick {
            trials = (trials / 4).max(10);
        }
        Self {
            trials,
            seed,
            threads,
            quick,
        }
    }
}

/// Prints the experiment banner (configuration echo, for traceability).
pub fn banner(title: &str, args: &RunArgs, extra: &str) {
    println!("# {title}");
    println!(
        "# trials={} seed={:#x} threads={} quick={}",
        args.trials, args.seed, args.threads, args.quick
    );
    if !extra.is_empty() {
        println!("# {extra}");
    }
}

/// Formats a rate/probability with sensible width for the tables.
pub fn f3(x: f64) -> String {
    format!("{x:7.3}")
}

/// Formats a BER in scientific notation.
pub fn ber_fmt(x: f64) -> String {
    if x == 0.0 {
        format!("{:>9}", "0")
    } else {
        format!("{x:>9.1e}")
    }
}

/// Best-of-`rounds` wall time of `f`, in seconds — the noise-robust
/// point statistic all the perf trackers use.
pub fn best_time(rounds: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Times `engines` interleaved, in seconds per engine: after one
/// warm-up call each, every round runs each engine once and each engine
/// keeps its fastest round, so a slow phase of a shared host lands on
/// all engines alike instead of on whichever happened to run through it.
pub fn time_interleaved<T, const N: usize>(
    rounds: u32,
    mut engines: [&mut dyn FnMut() -> T; N],
) -> [f64; N] {
    for f in &mut engines {
        std::hint::black_box(f());
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (f, b) in engines.iter_mut().zip(&mut best) {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            *b = b.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

/// The shared metadata header every `BENCH_*.json` artifact carries —
/// benchmark name plus a `config` block with at least `seed` and
/// `iters`. One definition so the artifacts cannot drift apart in
/// schema (they used to: `BENCH_hash.json` lacked the block entirely).
pub struct BenchSummary {
    benchmark: &'static str,
    entries: Vec<(String, String)>,
}

impl BenchSummary {
    /// Starts a summary for `benchmark`, pre-populating the `seed` and
    /// `iters` config keys every artifact must carry.
    pub fn new(benchmark: &'static str, seed: u64, iters: u32) -> Self {
        Self {
            benchmark,
            entries: vec![
                ("seed".into(), seed.to_string()),
                ("iters".into(), iters.to_string()),
            ],
        }
    }

    /// Adds a config entry whose value is already valid JSON (numbers,
    /// booleans, pre-quoted strings).
    pub fn config(mut self, key: &str, value_json: impl std::fmt::Display) -> Self {
        self.entries.push((key.into(), value_json.to_string()));
        self
    }

    /// Adds a string config entry (quoted for JSON).
    pub fn config_str(mut self, key: &str, value: &str) -> Self {
        self.entries.push((key.into(), format!("\"{value}\"")));
        self
    }

    /// Renders `{ "benchmark": ..., "config": {...},` — the caller
    /// appends its own sections and the closing brace.
    pub fn render_header(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"benchmark\": \"{}\",\n", self.benchmark));
        s.push_str("  \"config\": {\n");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    \"{k}\": {v}{}\n",
                if i + 1 == self.entries.len() { "" } else { "," }
            ));
        }
        s.push_str("  },\n");
        s
    }
}

/// One spine-hash family's measured call-shape timings (ns per hash).
pub struct HashMeasurement {
    /// Family name (`SpineHash::name`).
    pub name: &'static str,
    /// Serially dependent scalar calls (the spine-chain shape).
    pub chain_ns: f64,
    /// Independent scalar calls over a slab (pre-batching expansion).
    pub scalar_ns: f64,
    /// [`spinal_core::hash::SpineHash::hash_batch`] over the same slab,
    /// on the machine's detected SIMD tier.
    pub batch_ns: f64,
    /// The same batch pinned to the scalar 4-lane ILP kernel — the
    /// denominator of the SIMD-kernel win.
    pub batch_scalar_ns: f64,
}

impl HashMeasurement {
    /// Scalar-loop over batch ratio.
    pub fn batch_speedup(&self) -> f64 {
        self.scalar_ns / self.batch_ns
    }

    /// Scalar-kernel batch over SIMD-kernel batch ratio (1.0 for
    /// families without a SIMD kernel on this machine).
    pub fn kernel_speedup(&self) -> f64 {
        self.batch_scalar_ns / self.batch_ns
    }
}

/// One cell of the deep-first coverage-validation grid (the ROADMAP
/// item gating any promotion of `SubpassOrder::DeepFirst`): mean
/// achieved rate of both sub-pass orderings at one (SNR, message
/// length) operating point. Higher rate = fewer symbols to decode.
pub struct DeepFirstPoint {
    /// Channel SNR in dB.
    pub snr_db: f64,
    /// Message length in bits.
    pub message_bits: u32,
    /// Mean rate under the paper's bit-reversed ordering.
    pub bit_reversed_rate: f64,
    /// Mean rate under the opt-in deep-first ordering.
    pub deep_first_rate: f64,
}

/// Runs the deep-first SNR × message-length coverage sweep at a cheap
/// probe shape (k = 4, c = 8, B = 16, stride-8), as
/// `ablation_puncturing` prints it.
pub fn deep_first_grid(args: &RunArgs, trials: u32) -> Vec<DeepFirstPoint> {
    deep_first_grid_shaped(args, trials, 4, 8, 23)
}

/// [`deep_first_grid`] at an arbitrary code shape: the same SNR ×
/// message-length sweep with segment size `k` and `c` mapper bits per
/// symbol. `stream` decorrelates the trial seeds from other shapes so
/// two grids in one report never share noise realisations.
/// `ablation_puncturing` also runs this at the paper's Figure 2 shape
/// (k = 8, c = 10) — the verdict that gates promoting
/// `SubpassOrder::DeepFirst` from opt-in to a default.
pub fn deep_first_grid_shaped(
    args: &RunArgs,
    trials: u32,
    k: u32,
    c: u32,
    stream: u64,
) -> Vec<DeepFirstPoint> {
    use spinal_core::map::AnyIqMapper;
    use spinal_core::puncture::{AnySchedule, SubpassOrder};
    use spinal_sim::rateless::{run_awgn, RatelessConfig};
    let snrs: &[f64] = if args.quick {
        &[8.0, 20.0]
    } else {
        &[6.0, 8.0, 12.0, 20.0, 30.0]
    };
    let lens: &[u32] = if args.quick {
        &[32, 128]
    } else {
        &[32, 96, 256]
    };
    let orderings = [SubpassOrder::BitReversed, SubpassOrder::DeepFirst];
    let jobs: Vec<(f64, u32, usize)> = snrs
        .iter()
        .flat_map(|&snr| {
            lens.iter()
                .flat_map(move |&m| (0..orderings.len()).map(move |o| (snr, m, o)))
        })
        .collect();
    let rates = spinal_sim::parallel_map(&jobs, args.threads, |&(snr, m, o)| {
        let mut cfg = RatelessConfig::fig2();
        cfg.message_bits = m;
        cfg.k = k;
        cfg.mapper = AnyIqMapper::linear(c);
        cfg.schedule = AnySchedule::strided_with(8, orderings[o]).expect("valid stride");
        cfg.max_passes = 300;
        run_awgn(
            &cfg,
            snr,
            trials,
            spinal_sim::derive_seed(
                args.seed,
                stream,
                ((m as u64) << 40) ^ (o as u64) << 32 ^ snr.to_bits() >> 16,
            ),
        )
        .expect("valid experiment config")
        .rate_mean()
    });
    jobs.chunks(2)
        .zip(rates.chunks(2))
        .map(|(j, r)| DeepFirstPoint {
            snr_db: j[0].0,
            message_bits: j[0].1,
            bit_reversed_rate: r[0],
            deep_first_rate: r[1],
        })
        .collect()
}

/// Prints the deep-first grid as a table and returns the fraction of
/// cells where deep-first matches or beats bit-reversed coverage.
pub fn print_deep_first_grid(points: &[DeepFirstPoint]) -> f64 {
    println!(
        "{:>7} {:>7} {:>14} {:>12} {:>8}",
        "SNR", "bits", "bit-reversed", "deep-first", "ratio"
    );
    let mut wins = 0usize;
    for p in points {
        let ratio = p.deep_first_rate / p.bit_reversed_rate;
        if ratio >= 0.995 {
            wins += 1;
        }
        println!(
            "{:>7.1} {:>7} {:>14.3} {:>12.3} {:>8.3}",
            p.snr_db, p.message_bits, p.bit_reversed_rate, p.deep_first_rate, ratio
        );
    }
    wins as f64 / points.len().max(1) as f64
}

/// Slab size [`measure_hash_families`] measures over — exported so the
/// `BENCH_hash.json` config block records the value actually measured.
pub const HASH_BENCH_SLAB: usize = 4096;
/// Best-of rounds [`measure_hash_families`] takes per shape.
pub const HASH_BENCH_ROUNDS: u32 = 60;

/// Measures chain / scalar-loop / batch throughput for every hash
/// family over one fixed [`HASH_BENCH_SLAB`]-element slab.
/// `BENCH_hash.json` and `BENCH_sim_engine.json` both render from this
/// single definition, so their hash numbers can never drift apart.
pub fn measure_hash_families(seed: u64) -> Vec<HashMeasurement> {
    use spinal_core::hash::{AnyHash, HashFamily, SpineHash};
    use std::hint::black_box;
    const N: usize = HASH_BENCH_SLAB;
    const ROUNDS: u32 = HASH_BENCH_ROUNDS;
    let states: Vec<u64> = (0..N as u64)
        .map(|i| spinal_sim::derive_seed(seed, 90, i))
        .collect();
    let segments: Vec<u64> = (0..N as u64)
        .map(|i| spinal_sim::derive_seed(seed, 91, i))
        .collect();
    let mut out = vec![0u64; N];
    [
        HashFamily::Lookup3,
        HashFamily::OneAtATime,
        HashFamily::SipHash24,
        HashFamily::SplitMix,
    ]
    .into_iter()
    .map(|family| {
        let h = AnyHash::new(family, seed);
        let chain = {
            let mut state = 0x1234_5678_u64;
            best_time(ROUNDS, || {
                for _ in 0..N {
                    state = h.hash(state, state & 0xff);
                }
                black_box(state);
            }) / N as f64
                * 1e9
        };
        let scalar = best_time(ROUNDS, || {
            for ((o, &s), &g) in out.iter_mut().zip(&states).zip(&segments) {
                *o = h.hash(s, g);
            }
            black_box(&out);
        }) / N as f64
            * 1e9;
        let batch = best_time(ROUNDS, || {
            h.hash_batch(&states, &segments, &mut out);
            black_box(&out);
        }) / N as f64
            * 1e9;
        let h_scalar = h.with_dispatch(spinal_core::kernels::KernelDispatch::Scalar);
        let batch_scalar = best_time(ROUNDS, || {
            h_scalar.hash_batch(&states, &segments, &mut out);
            black_box(&out);
        }) / N as f64
            * 1e9;
        HashMeasurement {
            name: h.name(),
            chain_ns: chain,
            scalar_ns: scalar,
            batch_ns: batch,
            batch_scalar_ns: batch_scalar,
        }
    })
    .collect()
}
