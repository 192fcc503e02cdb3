//! CI smoke: a tiny fixed AWGN + BSC sweep through the simulation
//! engine, emitting a deterministic JSON summary. One AWGN point runs
//! the practical receiver (stride-8 puncturing, CRC-16 termination), so
//! the punctured CRC path is pinned next to the genie points.
//!
//! The configuration is frozen (code shape, seeds, trial counts, chunk
//! size), so the summary must match the checked-in golden file
//! `crates/bench/golden/quick_sim.json` byte-for-byte; CI diffs the two.
//! The binary also re-runs every point at a different worker count and
//! asserts the statistics are bit-identical — the engine's determinism
//! contract, enforced end-to-end on every push.
//!
//! Counters are exact integers. Rates are printed to six significant
//! digits: BSC randomness is pure integer/compare arithmetic, while the
//! AWGN path crosses `powf`/`ln`/`cos`, whose last-bit behaviour may
//! vary across libm builds — six digits is far above that noise and far
//! below anything a real regression would move.

use spinal_core::decode::BeamConfig;
use spinal_core::frame::Checksum;
use spinal_core::hash::HashFamily;
use spinal_core::map::AnyIqMapper;
use spinal_core::puncture::AnySchedule;
use spinal_sim::engine::SimEngine;
use spinal_sim::rateless::{
    run_awgn_with, run_bsc_with, BscRatelessConfig, RatelessConfig, RatelessOutcome, Termination,
};

const SEED: u64 = 0x51CA_2011;
const TRIALS: u32 = 12;

fn awgn_cfg() -> RatelessConfig {
    RatelessConfig {
        message_bits: 16,
        k: 4,
        tail_segments: 0,
        hash: HashFamily::Lookup3,
        mapper: AnyIqMapper::linear(6),
        schedule: AnySchedule::none(),
        beam: BeamConfig::with_beam(4),
        adc_bits: None,
        max_passes: 60,
        attempt_growth: 1.0,
        termination: Termination::Genie,
    }
}

/// The practical receiver on the punctured path: stride-8 sub-passes
/// and CRC-16 termination over a 16-bit payload.
fn awgn_crc_cfg() -> RatelessConfig {
    RatelessConfig {
        message_bits: 32,
        schedule: AnySchedule::strided(8).expect("8 is a valid stride"),
        termination: Termination::Crc(Checksum::Crc16),
        ..awgn_cfg()
    }
}

fn bsc_cfg() -> BscRatelessConfig {
    BscRatelessConfig {
        message_bits: 16,
        k: 4,
        tail_segments: 0,
        hash: HashFamily::Lookup3,
        schedule: AnySchedule::none(),
        beam: BeamConfig::with_beam(4),
        max_passes: 120,
        attempt_growth: 1.0,
        termination: Termination::Genie,
    }
}

/// Six-significant-digit float formatting (stable across libm builds).
fn f6(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else {
        format!("{x:.6e}")
    }
}

fn point_json(label: &str, out: &RatelessOutcome) -> String {
    format!(
        "    {{\"point\": \"{label}\", \"trials\": {}, \"successes\": {}, \"undetected\": {}, \"total_symbols\": {}, \"rate_mean\": \"{}\", \"rate_stderr\": \"{}\", \"mean_symbols_on_success\": \"{}\"}}",
        out.trials,
        out.successes,
        out.undetected,
        out.total_symbols,
        f6(out.rate_mean()),
        f6(out.rate_stderr()),
        f6(out.symbols_on_success.mean()),
    )
}

fn assert_identical(label: &str, a: &RatelessOutcome, b: &RatelessOutcome) {
    assert_eq!(a.trials, b.trials, "{label}: trials");
    assert_eq!(a.successes, b.successes, "{label}: successes");
    assert_eq!(a.total_symbols, b.total_symbols, "{label}: symbols");
    assert_eq!(
        a.rate_mean().to_bits(),
        b.rate_mean().to_bits(),
        "{label}: rate mean"
    );
    assert_eq!(
        a.rate_stderr().to_bits(),
        b.rate_stderr().to_bits(),
        "{label}: rate stderr"
    );
}

fn main() {
    let e2 = SimEngine::with_workers(2).chunk_trials(4);
    let e1 = SimEngine::serial().chunk_trials(4);
    let awgn = awgn_cfg();
    let bsc = bsc_cfg();

    let mut rows = Vec::new();
    for snr_db in [5.0, 15.0] {
        let out = run_awgn_with(&awgn, snr_db, TRIALS, SEED, &e2).expect("valid experiment config");
        let serial =
            run_awgn_with(&awgn, snr_db, TRIALS, SEED, &e1).expect("valid experiment config");
        let label = format!("awgn/{snr_db}dB");
        assert_identical(&label, &out, &serial);
        rows.push(point_json(&label, &out));
    }
    let awgn_crc = awgn_crc_cfg();
    let snr_db = 10.0;
    let out = run_awgn_with(&awgn_crc, snr_db, TRIALS, SEED, &e2).expect("valid experiment config");
    let serial =
        run_awgn_with(&awgn_crc, snr_db, TRIALS, SEED, &e1).expect("valid experiment config");
    let label = format!("awgn-crc16-stride8/{snr_db}dB");
    assert_identical(&label, &out, &serial);
    rows.push(point_json(&label, &out));
    for p in [0.0, 0.05] {
        let out = run_bsc_with(&bsc, p, TRIALS, SEED, &e2).expect("valid experiment config");
        let serial = run_bsc_with(&bsc, p, TRIALS, SEED, &e1).expect("valid experiment config");
        let label = format!("bsc/p{p}");
        assert_identical(&label, &out, &serial);
        rows.push(point_json(&label, &out));
    }

    let json = format!(
        "{{\n  \"bench\": \"quick_sim\",\n  \"seed\": {SEED},\n  \"trials_per_point\": {TRIALS},\n  \"points\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    print!("{json}");
    std::fs::write("quick_sim.json", &json).expect("write quick_sim.json");
    eprintln!("# wrote quick_sim.json (worker counts 1 and 2 verified bit-identical)");
}
