//! Integration: the reproducibility contract (DESIGN.md §2.10) — every
//! experiment entry point is a pure function of its seed, across crates
//! and regardless of parallelism.

use spinal_codes::ldpc::LdpcRate;
use spinal_codes::modem::Modulation;
use spinal_codes::serve::{simulate_link, LinkConfig};
use spinal_codes::sim::rateless::{run_awgn, run_bsc, BscRatelessConfig, RatelessConfig};
use spinal_codes::sim::{parallel_map, run_ldpc_awgn, LdpcConfig};

#[test]
fn awgn_rateless_reproducible() {
    let mut cfg = RatelessConfig::fig2();
    cfg.max_passes = 150;
    let a = run_awgn(&cfg, 11.0, 8, 0xfeed).unwrap();
    let b = run_awgn(&cfg, 11.0, 8, 0xfeed).unwrap();
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.total_symbols, b.total_symbols);
    assert_eq!(a.rate_mean().to_bits(), b.rate_mean().to_bits());
}

#[test]
fn bsc_rateless_reproducible() {
    let cfg = BscRatelessConfig::default_k4(16);
    let a = run_bsc(&cfg, 0.07, 8, 0xbeef).unwrap();
    let b = run_bsc(&cfg, 0.07, 8, 0xbeef).unwrap();
    assert_eq!(a.total_symbols, b.total_symbols);
    assert_eq!(a.rate_mean().to_bits(), b.rate_mean().to_bits());
}

#[test]
fn ldpc_goodput_reproducible() {
    let cfg = LdpcConfig::paper(LdpcRate::R34, Modulation::Qam16);
    let a = run_ldpc_awgn(&cfg, 17.0, 6, 0xaaaa);
    let b = run_ldpc_awgn(&cfg, 17.0, 6, 0xaaaa);
    assert_eq!(a.frame_successes, b.frame_successes);
}

#[test]
fn link_simulation_reproducible() {
    let cfg = LinkConfig::demo(15.0, 8, 3);
    let a = simulate_link(&cfg, 8, 0x1234).unwrap();
    let b = simulate_link(&cfg, 8, 0x1234).unwrap();
    assert_eq!(a.symbols_sent, b.symbols_sent);
    assert_eq!(a.frames_delivered, b.frames_delivered);
}

/// Thread count must not change results: the same points computed with 1
/// and 8 workers are bit-identical (per-point seeds, no shared state).
#[test]
fn parallelism_does_not_change_results() {
    let mut cfg = RatelessConfig::fig2();
    cfg.max_passes = 120;
    let snrs = [5.0, 10.0, 15.0, 20.0];
    let f = |&snr: &f64| run_awgn(&cfg, snr, 5, 42).unwrap().rate_mean().to_bits();
    let one = parallel_map(&snrs, 1, f);
    let many = parallel_map(&snrs, 8, f);
    assert_eq!(one, many);
}

/// Different seeds genuinely change the randomness (no accidental seed
/// swallowing anywhere in the stack).
#[test]
fn seeds_actually_matter() {
    let mut cfg = RatelessConfig::fig2();
    cfg.max_passes = 150;
    let a = run_awgn(&cfg, 8.0, 10, 1).unwrap();
    let b = run_awgn(&cfg, 8.0, 10, 2).unwrap();
    // Symbol counts at 8 dB are noisy; identical totals across 10 trials
    // with different noise would be a one-in-many-millions fluke.
    assert_ne!(a.total_symbols, b.total_symbols);
}
