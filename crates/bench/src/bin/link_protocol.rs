//! **Link-layer extension** (§6 future-work item 2): goodput of the
//! feedback protocol vs feedback delay, with and without pipelining,
//! run through `spinal-serve` (one server, a window of clients sharing
//! one channel, ACK frames held for the delay).
//!
//! Stop-and-wait (window 1) pays ~one feedback delay of wasted symbols
//! per frame; deeper windows fill the gap with other frames' symbols.
//! The run checks that shape and exits non-zero when it does not hold:
//! W=1 goodput falls at every step of the delay axis, and at the
//! largest delay W=8 reaches at least twice W=1.
//!
//! ```text
//! cargo run -p spinal-bench --release --bin link_protocol [-- --quick]
//! ```

use spinal_bench::{banner, f3, RunArgs};
use spinal_serve::{simulate_link, LinkConfig};
use spinal_sim::{derive_seed, parallel_map};

fn main() {
    let args = RunArgs::parse(40); // trials = frames per cell
    let delays: &[u64] = if args.quick {
        &[0, 8, 32]
    } else {
        &[0, 2, 4, 8, 16, 32, 64]
    };
    let windows: &[u32] = &[1, 2, 4, 8];
    let snr_db = 25.0;
    banner(
        "Link protocol (§6 ext.): goodput (payload bits/symbol) vs feedback delay and window",
        &args,
        &format!(
            "16-bit payloads + CRC-16, k=4, c=6, B=8 at {snr_db} dB through spinal-serve; \
             cells are {} frames",
            args.trials
        ),
    );

    print!("{:>7}", "delay");
    for &w in windows {
        print!(" {:>8}", format!("W={w}"));
    }
    println!();

    let jobs: Vec<(u64, u32)> = delays
        .iter()
        .flat_map(|&d| windows.iter().map(move |&w| (d, w)))
        .collect();
    let goodputs = parallel_map(&jobs, args.threads, |&(d, w)| {
        let cfg = LinkConfig::demo(snr_db, d, w);
        simulate_link(
            &cfg,
            args.trials,
            derive_seed(args.seed, 12, d << 8 | u64::from(w)),
        )
        .expect("valid link config")
        .goodput(cfg.payload_bits)
    });

    let rows: Vec<&[f64]> = goodputs.chunks(windows.len()).collect();
    for (d, row) in delays.iter().zip(&rows) {
        print!("{d:>7}");
        for &g in *row {
            print!(" {}", f3(g));
        }
        println!();
    }
    println!("\nExpected shape: W=1 falls as ~m/(N+delay); W=8 stays near the delay-0 value.");

    let falls = rows.windows(2).all(|pair| pair[1][0] < pair[0][0]);
    let last = rows[rows.len() - 1];
    let pipelines = last[windows.len() - 1] >= 2.0 * last[0];
    println!("# shape check: W=1 falls with delay: {falls}; W=8 >= 2x W=1 at the largest delay: {pipelines}");
    if !(falls && pipelines) {
        eprintln!("link_protocol: expected shape does not hold");
        std::process::exit(1);
    }
}
