//! Resilience sweep: frame-completion latency and goodput under data-link
//! faults and feedback loss, run through `spinal-serve`.
//!
//! Every scenario drives one `Server` and a window of four
//! `ServeClient`s ([`simulate_link_ensemble`]) in NACK mode, with the
//! server's end of each link erasing 20% of its ACK/NACK frames and
//! holding the rest 4 ticks, over a data link degraded by one
//! composable [`LinkFault`] class — drop, duplicate, reorder, burst
//! corruption, stale-slot mislabel — plus a compound row stacking all
//! five. Frames are CRC-16 framed, and every delivered payload is
//! compared with the one sent, so mis-decodes are counted rather than
//! silent. The drop class is swept over ≥ 3 loss points to trace
//! goodput and p50/p99 completion latency vs loss rate.
//!
//! Each cell is simulated twice — `SimEngine::serial()` and
//! `SimEngine::with_workers(3)` — and the two reports are asserted
//! bit-identical down to the per-frame completion-latency vector: every
//! draw is counter-seeded, so none may depend on worker count.
//!
//! A full run writes `BENCH_resilience.json`; `--quick` freezes the
//! configuration, keeps every emitted quantity an exact integer
//! (latencies in symbol-times, rates in parts-per-million of integer
//! counters), and writes `quick_resilience.json`, which CI diffs against
//! `crates/bench/golden/quick_resilience.json`.
//!
//! ```text
//! cargo run -p spinal-bench --release --bin bench_resilience [-- --quick]
//! ```

use spinal_bench::{banner, RunArgs};
use spinal_link::{FaultPlan, FeedbackMode, LinkFault};
use spinal_serve::{simulate_link_ensemble, ChaosEvent, ChaosPlan, LinkConfig, LinkReport};
use spinal_sim::engine::SimEngine;
use spinal_sim::stats::derive_seed;

const PAYLOAD_BITS: u32 = 16;
const CRC_BITS: u32 = 16;
const SNR_DB: f64 = 18.0;
const QUICK_SEED: u64 = 0x5EED_2011;
const QUICK_FRAMES: u32 = 16;
const QUICK_REPS: u32 = 2;

/// One fault scenario: a name, the drop probability in per-mille (the
/// x-axis of the loss sweep; 0 for the non-drop classes), and the fault
/// composition applied to the data link.
struct FaultScenario {
    name: &'static str,
    drop_pm: u32,
    plan: FaultPlan,
}

/// The loss sweep (first `n_loss_points` rows) followed by one row per
/// remaining fault class and the compound stack.
fn scenarios(quick: bool) -> (Vec<FaultScenario>, usize) {
    let drop_pms: &[u32] = if quick {
        &[0, 150, 300]
    } else {
        &[0, 50, 100, 150, 200, 250, 300]
    };
    let mut rows: Vec<FaultScenario> = drop_pms
        .iter()
        .map(|&pm| FaultScenario {
            name: if pm == 0 { "clean" } else { "drop" },
            drop_pm: pm,
            plan: if pm == 0 {
                FaultPlan::default()
            } else {
                FaultPlan::new(0).with(LinkFault::Drop {
                    p: f64::from(pm) / 1000.0,
                })
            },
        })
        .collect();
    let n_loss_points = rows.len();
    rows.push(FaultScenario {
        name: "duplicate",
        drop_pm: 0,
        plan: FaultPlan::new(0).with(LinkFault::Duplicate { p: 0.2 }),
    });
    rows.push(FaultScenario {
        name: "reorder",
        drop_pm: 0,
        plan: FaultPlan::new(0).with(LinkFault::Reorder { p: 0.25, window: 4 }),
    });
    rows.push(FaultScenario {
        name: "burst",
        drop_pm: 0,
        plan: FaultPlan::new(0).with(LinkFault::Burst { p: 0.03, len: 3 }),
    });
    rows.push(FaultScenario {
        name: "stale_slot",
        drop_pm: 0,
        plan: FaultPlan::new(0).with(LinkFault::StaleSlot { p: 0.1 }),
    });
    rows.push(FaultScenario {
        name: "compound",
        drop_pm: 100,
        plan: FaultPlan::new(0)
            .with(LinkFault::Drop { p: 0.1 })
            .with(LinkFault::Duplicate { p: 0.05 })
            .with(LinkFault::Reorder { p: 0.1, window: 3 })
            .with(LinkFault::Burst { p: 0.02, len: 2 })
            .with(LinkFault::StaleSlot { p: 0.05 }),
    });
    (rows, n_loss_points)
}

fn config(plan: &FaultPlan) -> LinkConfig {
    LinkConfig {
        payload_bits: PAYLOAD_BITS,
        k: 4,
        c: 6,
        beam: 8,
        snr_db: SNR_DB,
        mode: FeedbackMode::Nack,
        feedback: ChaosPlan::new(0)
            .with(ChaosEvent::FeedbackLoss { p: 0.2 })
            .with(ChaosEvent::FeedbackDelay { ticks: 4 }),
        faults: plan.clone(),
        frames_in_flight: 4,
        max_symbols_per_frame: 768,
        max_attempts_per_frame: u32::MAX,
    }
}

/// Rate as exact parts-per-million of integer counters (so the quick
/// golden never depends on float formatting).
fn ppm(numer: u64, denom: u64) -> u64 {
    if denom == 0 {
        0
    } else {
        u64::try_from(u128::from(numer) * 1_000_000 / u128::from(denom)).expect("ppm fits")
    }
}

struct Row {
    name: &'static str,
    drop_pm: u32,
    report: LinkReport,
}

impl Row {
    fn goodput_ppm(&self) -> u64 {
        let good = u64::from(
            self.report
                .frames_delivered
                .saturating_sub(self.report.frames_misdecoded),
        );
        ppm(good * u64::from(PAYLOAD_BITS), self.report.symbols_sent)
    }

    fn json(&self) -> String {
        let r = &self.report;
        format!(
            "    {{\"scenario\": \"{}\", \"drop_pm\": {}, \"delivered\": {}, \"exhausted\": {}, \
             \"abandoned\": {}, \"misdecoded\": {}, \"symbols_sent\": {}, \"symbols_replayed\": {}, \
             \"p50\": {}, \"p99\": {}, \"goodput_ppm\": {}}}",
            self.name,
            self.drop_pm,
            r.frames_delivered,
            r.frames_exhausted,
            r.frames_abandoned,
            r.frames_misdecoded,
            r.symbols_sent,
            r.symbols_replayed,
            r.latency_percentile(0.5).unwrap_or(0),
            r.latency_percentile(0.99).unwrap_or(0),
            self.goodput_ppm(),
        )
    }
}

fn render_json(bench: &str, seed: u64, frames: u32, reps: u32, rows: &[Row]) -> String {
    let body: Vec<String> = rows.iter().map(Row::json).collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"seed\": {seed},\n  \"payload_bits\": {PAYLOAD_BITS},\n  \
         \"crc_bits\": {CRC_BITS},\n  \"frames\": {frames},\n  \"replications\": {reps},\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

fn main() {
    let args = RunArgs::parse(6); // trials = ensemble replications per cell
    let seed = if args.quick { QUICK_SEED } else { args.seed };
    let frames = if args.quick { QUICK_FRAMES } else { 48 };
    let reps = if args.quick { QUICK_REPS } else { args.trials };
    banner(
        "resilience: latency & goodput under link faults and feedback loss",
        &args,
        &format!(
            "16-bit payloads + CRC-16, k=4, c=6, B=8 at {SNR_DB} dB through spinal-serve; NACK \
             feedback (20% of ACK/NACK frames lost, 4-tick delay), window 4; cells are {frames} \
             frames × {reps} replications, serial == 3 workers"
        ),
    );

    let (scen, n_loss_points) = scenarios(args.quick);
    println!(
        "{:>11} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>12}",
        "scenario", "drop", "delivered", "replayed", "misdecode", "p50", "p99", "goodput ppm"
    );
    let mut rows = Vec::new();
    for (i, sc) in scen.iter().enumerate() {
        let cfg = config(&sc.plan);
        let cell_seed = derive_seed(seed, 70, i as u64);
        let serial = simulate_link_ensemble(&cfg, frames, reps, cell_seed, &SimEngine::serial())
            .expect("valid link config");
        let threaded =
            simulate_link_ensemble(&cfg, frames, reps, cell_seed, &SimEngine::with_workers(3))
                .expect("valid link config");
        // Every draw is counter-seeded, so a threaded ensemble must
        // reproduce the serial one exactly — down to the order and
        // values of every frame's completion latency.
        assert_eq!(
            serial, threaded,
            "{}: serial and 3-worker reports differ",
            sc.name
        );
        assert_eq!(
            serial.frames_delivered + serial.frames_exhausted + serial.frames_abandoned,
            serial.frames_requested,
            "{}: frame outcomes must be disjoint and exhaustive",
            sc.name
        );
        if args.quick {
            // CRC-16 on these seeds admits no false accepts; a nonzero
            // count here is a silent-mis-decode regression.
            assert_eq!(serial.frames_misdecoded, 0, "{}: misdecodes", sc.name);
        }
        let row = Row {
            name: sc.name,
            drop_pm: sc.drop_pm,
            report: serial,
        };
        println!(
            "{:>11} {:>7.1}% {:>10} {:>10} {:>10} {:>8} {:>8} {:>12}",
            row.name,
            f64::from(row.drop_pm) / 10.0,
            row.report.frames_delivered,
            row.report.symbols_replayed,
            row.report.frames_misdecoded,
            row.report.latency_percentile(0.5).unwrap_or(0),
            row.report.latency_percentile(0.99).unwrap_or(0),
            row.goodput_ppm(),
        );
        rows.push(row);
    }

    // Goodput must degrade monotonically-ish along the loss sweep; assert
    // only the endpoints so the tracker flags gross regressions without
    // pinning noise.
    let clean = rows[0].goodput_ppm();
    let worst = rows[n_loss_points - 1].goodput_ppm();
    assert!(
        clean > worst,
        "goodput at 0% loss ({clean} ppm) must exceed goodput at the deepest loss point ({worst} ppm)"
    );

    if args.quick {
        let json = render_json("quick_resilience", seed, frames, reps, &rows);
        std::fs::write("quick_resilience.json", &json).expect("write quick_resilience.json");
        println!("# wrote quick_resilience.json (deterministic summary for the golden diff)");
    } else {
        let json = render_json("bench_resilience", seed, frames, reps, &rows);
        std::fs::write("BENCH_resilience.json", &json).expect("write BENCH_resilience.json");
        println!("# wrote BENCH_resilience.json");
    }
}
