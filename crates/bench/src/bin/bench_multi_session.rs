//! Multi-session perf tracker: N concurrent receivers lending one
//! decoder scratch vs. each holding its own.
//!
//! Models the §1 deployment story — a base station decoding many
//! same-shape spinal flows with per-symbol feedback. Each round, every
//! live session receives its next scheduled symbol and retries decoding
//! everything it has, from the root; sessions stop at genie acceptance.
//! Two engines run the *identical* arrival trace and attempt schedule:
//!
//! * **shared_scratch** — one `RxSession` per flow, every attempt run
//!   whole through the one scratch the loop lends them all.
//! * **private_scratch** — the same sessions, each with a scratch of
//!   its own: N× the expansion buffers and a cold working set per
//!   attempt once N is large. Its ratio to `shared_scratch` is exactly
//!   what lending one scratch pays.
//!
//! Both engines must accept every session at exactly the same symbol
//! count and attempt (asserted — sharing a scratch is an optimization,
//! never a semantic). A full run writes `BENCH_multi_session.json`; `--quick`
//! (the CI smoke) runs the same bit-identity self-check on a reduced
//! fleet and writes only the deterministic
//! `quick_multi_session.json` summary, which CI diffs against
//! `crates/bench/golden/quick_multi_session.json`.
//!
//! Options: `--trials N` (measurement rounds, default 5), `--seed S`,
//! `--quick`.

use spinal_bench::{banner, time_interleaved, BenchSummary, RunArgs};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::bits::BitVec;
use spinal_core::decode::{AwgnCost, BeamConfig, BeamDecoder, DecoderScratch};
use spinal_core::encode::Encoder;
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::{PunctureSchedule, StridedPuncture};
use spinal_core::session::{Poll, RxConfig, RxSession};
use spinal_core::symbol::Slot;
use spinal_core::{frame::AnyTerminator, IqSymbol};

const MESSAGE_BITS: u32 = 128;
const K: u32 = 4;
const C: u32 = 8;
const SNR_DB: f64 = 8.0;
const BEAM: usize = 16;
/// Symbols of one full pass (`n / k` spine positions): every receiver's
/// first attempt runs after a whole pass arrived (one chunked ingest),
/// the per-symbol retry loop starts there, avoiding the
/// sparse-observation warm-up attempts whose deferred-prune frontiers
/// dwarf the steady state.
const PASS_SYMBOLS: usize = (MESSAGE_BITS / K) as usize;
const MAX_SYMBOLS: usize = 1600;
const FLEET: [usize; 4] = [1, 8, 64, 512];
const FLEET_QUICK: [usize; 3] = [1, 8, 64];

type Rx = RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>;

/// One flow's fixed inputs: its (reseeded) code, message, and the noisy
/// received stream in schedule order.
struct Flow {
    params: CodeParams,
    seed: u64,
    message: BitVec,
    stream: Vec<(Slot, IqSymbol)>,
}

struct Point {
    sessions: usize,
    shared_scratch_sessions_per_sec: f64,
    private_scratch_sessions_per_sec: f64,
    speedup: f64,
    mean_symbols_to_decode: f64,
}

fn build_flows(n: usize, master_seed: u64) -> Vec<Flow> {
    let sched = StridedPuncture::stride8();
    (0..n as u64)
        .map(|i| {
            let seed = master_seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let params = CodeParams::builder()
                .message_bits(MESSAGE_BITS)
                .k(K)
                .seed(seed)
                .build()
                .expect("valid params");
            let mut message = BitVec::new();
            for b in 0..u64::from(MESSAGE_BITS) {
                message.push(seed.rotate_left((b % 61) as u32) & (1 << (b % 13)) != 0);
            }
            let enc = Encoder::new(&params, Lookup3::new(seed), LinearMapper::new(C), &message)
                .expect("valid message");
            let mut channel = AwgnChannel::from_snr_db(SNR_DB, seed.wrapping_add(0x7919));
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
            Flow {
                params,
                seed,
                message,
                stream,
            }
        })
        .collect()
}

fn decoder(flow: &Flow) -> BeamDecoder<Lookup3, LinearMapper, AwgnCost> {
    BeamDecoder::new(
        &flow.params,
        Lookup3::new(flow.seed),
        LinearMapper::new(C),
        AwgnCost,
        BeamConfig::with_beam(BEAM),
    )
    .expect("valid decoder config")
}

/// The session engines: one `RxSession` per flow, one symbol per live
/// session per round, each ingest running its attempt through one
/// scratch lent to every session (`private == false`) or through the
/// session's own. Returns per-session (symbols, attempts) at acceptance.
fn run_sessions(flows: &[Flow], private: bool) -> Vec<(u64, u32)> {
    let mut sessions: Vec<Rx> = flows
        .iter()
        .map(|f| {
            Rx::new(
                decoder(f),
                StridedPuncture::stride8(),
                AnyTerminator::genie(f.message.clone()),
                RxConfig::default(),
            )
            .expect("valid session config")
        })
        .collect();
    let mut scratches: Vec<DecoderScratch> = (0..if private { flows.len() } else { 1 })
        .map(|_| DecoderScratch::new())
        .collect();
    let mut cursors = vec![PASS_SYMBOLS; flows.len()];
    let mut out = vec![(0u64, 0u32); flows.len()];
    let mut live = flows.len();
    let mut ingest = |lane: usize, rx: &mut Rx, symbols: &[IqSymbol], live: &mut usize| {
        let n_scratches = scratches.len();
        let scratch = &mut scratches[lane % n_scratches];
        if let Poll::Decoded {
            symbols_used,
            attempts,
        } = rx.ingest(scratch, symbols).expect("session listening")
        {
            out[lane] = (symbols_used, attempts);
            *live -= 1;
        }
    };
    // Round 0: the whole first pass as one chunked ingest (one attempt
    // per session).
    let mut first_pass = Vec::with_capacity(PASS_SYMBOLS);
    for (lane, (flow, rx)) in flows.iter().zip(sessions.iter_mut()).enumerate() {
        first_pass.clear();
        first_pass.extend(flow.stream[..PASS_SYMBOLS].iter().map(|&(_, y)| y));
        ingest(lane, rx, &first_pass, &mut live);
    }
    // Then per-symbol feedback rounds.
    while live > 0 {
        for (lane, (flow, rx)) in flows.iter().zip(sessions.iter_mut()).enumerate() {
            if rx.is_finished() {
                continue;
            }
            assert!(cursors[lane] < MAX_SYMBOLS, "stream budget too small");
            let (_slot, y) = flow.stream[cursors[lane]];
            cursors[lane] += 1;
            ingest(lane, rx, &[y], &mut live);
        }
    }
    out
}

fn main() {
    let args = RunArgs::parse(5);
    banner(
        "multi-session: sessions lending one scratch vs private scratches",
        &args,
        &format!(
            "message_bits={MESSAGE_BITS} k={K} c={C} B={BEAM} snr={SNR_DB}dB stride-8 per-symbol feedback"
        ),
    );
    let rounds = if args.quick { 2 } else { args.trials.max(2) };
    let fleet: &[usize] = if args.quick { &FLEET_QUICK } else { &FLEET };

    println!(
        "{:>9} {:>14} {:>14} {:>8}",
        "sessions", "shared s/s", "private s/s", "speedup"
    );
    let mut points = Vec::new();
    let mut quick_rows = Vec::new();
    for &n in fleet {
        let flows = build_flows(n, args.seed);

        // Bit-identity across engines: both must accept each session
        // at the same symbol and attempt.
        let shared = run_sessions(&flows, false);
        let private = run_sessions(&flows, true);
        for lane in 0..n {
            assert_eq!(
                shared[lane], private[lane],
                "a lent scratch must match private ones (lane {lane})"
            );
        }
        let total_symbols: u64 = shared.iter().map(|&(s, _)| s).sum();
        let total_attempts: u64 = shared.iter().map(|&(_, a)| u64::from(a)).sum();
        quick_rows.push((n, total_symbols, total_attempts));

        // Timings, one round of each engine per iteration.
        let [shared_secs, private_secs] = time_interleaved(
            rounds,
            [&mut || run_sessions(&flows, false), &mut || {
                run_sessions(&flows, true)
            }],
        )
        .map(|secs| secs / n as f64);

        let point = Point {
            sessions: n,
            shared_scratch_sessions_per_sec: 1.0 / shared_secs,
            private_scratch_sessions_per_sec: 1.0 / private_secs,
            speedup: private_secs / shared_secs,
            mean_symbols_to_decode: total_symbols as f64 / n as f64,
        };
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>7.2}x",
            point.sessions,
            point.shared_scratch_sessions_per_sec,
            point.private_scratch_sessions_per_sec,
            point.speedup,
        );
        points.push(point);
    }

    if args.quick {
        // Quick mode is the CI smoke: it emits only the deterministic
        // summary for the golden diff, and leaves the full-run timing
        // artifact `BENCH_multi_session.json` untouched.
        let json = render_quick_json(&quick_rows);
        std::fs::write("quick_multi_session.json", &json).expect("write quick_multi_session.json");
        println!("# wrote quick_multi_session.json (deterministic summary for the golden diff)");
    } else {
        let json = render_json(&args, rounds, &points);
        std::fs::write("BENCH_multi_session.json", &json).expect("write BENCH_multi_session.json");
        println!("# wrote BENCH_multi_session.json");
    }
}

/// The artifact: the shared [`BenchSummary`] header, then one line per
/// fleet size (the workspace carries no serialization dependency).
fn render_json(args: &RunArgs, rounds: u32, points: &[Point]) -> String {
    let mut s = BenchSummary::new("multi_session", args.seed, rounds)
        .config("message_bits", MESSAGE_BITS)
        .config("k", K)
        .config("c", C)
        .config("beam", BEAM)
        .config("snr_db", SNR_DB)
        .config_str("schedule", "strided-8")
        .config_str("feedback", "per-symbol")
        .config_str(
            "baseline",
            "private_scratch: the same RxSessions, each lent a scratch of its own",
        )
        .render_header();
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"sessions\": {}, \"shared_scratch_sessions_per_sec\": {:.2}, \"private_scratch_sessions_per_sec\": {:.2}, \"speedup\": {:.3}, \"mean_symbols_to_decode\": {:.1}}}{}\n",
            p.sessions,
            p.shared_scratch_sessions_per_sec,
            p.private_scratch_sessions_per_sec,
            p.speedup,
            p.mean_symbols_to_decode,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The deterministic quick-mode summary (integers only: accepted symbol
/// and attempt totals per fleet size) — the golden-diff artifact.
fn render_quick_json(rows: &[(usize, u64, u64)]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"benchmark\": \"quick_multi_session\",\n  \"points\": [\n");
    for (i, &(n, symbols, attempts)) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"sessions\": {n}, \"total_symbols_to_decode\": {symbols}, \"total_attempts\": {attempts}}}{}\n",
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
