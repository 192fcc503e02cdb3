//! **Graceful scale-down ablation**: achieved rate vs beam width `B`.
//!
//! §3.2: "As B grows, the rate achieved by the decoder gets closer to
//! capacity. Interestingly … even small values of B achieve high rates
//! close to capacity." This sweep quantifies that: B ∈ {1, 2, 4, 16, 64,
//! 256} across SNR ∈ {5, 15, 25} dB with the Figure 2 code.
//!
//! ```text
//! cargo run -p spinal-bench --release --bin ablation_b [-- --quick]
//! ```

use spinal_bench::{banner, f3, RunArgs};
use spinal_core::decode::BeamConfig;
use spinal_info::awgn_capacity_db;
use spinal_sim::rateless::{run_awgn, RatelessConfig};
use spinal_sim::{derive_seed, parallel_map};

fn main() {
    let args = RunArgs::parse(60);
    let beams: &[usize] = if args.quick {
        &[1, 4, 16, 64]
    } else {
        &[1, 2, 4, 16, 64, 256]
    };
    let snrs = [5.0, 15.0, 25.0];
    banner(
        "Ablation: rate vs beam width B (graceful scale-down, §3.2)",
        &args,
        "Figure 2 code (m=24 k=8 c=10, stride-8, 14-bit ADC), genie feedback",
    );

    print!("{:>6}", "B");
    for &snr in &snrs {
        print!(" {:>8}", format!("{snr}dB"));
    }
    println!(
        "   (capacity: {})",
        snrs.iter()
            .map(|&s| format!("{:.2}", awgn_capacity_db(s)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let jobs: Vec<(usize, f64)> = beams
        .iter()
        .flat_map(|&b| snrs.iter().map(move |&s| (b, s)))
        .collect();
    let rates = parallel_map(&jobs, args.threads, |&(b, snr)| {
        let mut cfg = RatelessConfig::fig2();
        cfg.beam = BeamConfig {
            beam_width: b,
            max_frontier: (1usize << 16).max(b * 256),
        };
        cfg.max_passes = 300;
        run_awgn(
            &cfg,
            snr,
            args.trials,
            derive_seed(args.seed, 6, (b as u64) << 32 | snr.to_bits() >> 32),
        )
        .expect("valid experiment config")
        .rate_mean()
    });

    for (bi, &b) in beams.iter().enumerate() {
        print!("{b:>6}");
        for si in 0..snrs.len() {
            print!(" {}", f3(rates[bi * snrs.len() + si]));
        }
        println!();
    }
    println!("\nExpected shape: rate rises with B and saturates early (B=16 ≈ B=256).");
}
