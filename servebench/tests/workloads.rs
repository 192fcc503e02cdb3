//! Tiny runs of every workload through the same engine the benchmark
//! uses, plus the checks the benchmark relies on.
//!
//! The tracer is process-wide, so the tests take turns. The traced
//! versus untraced identity check lives alone in `traced.rs`: it counts
//! every allocation in the process, so no other test may run beside it.

use std::sync::Mutex;

use servebench::json::{self, Value};
use servebench::report;
use servebench::workload::{self, Options, RunResult, WORKLOADS};

static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(name: &str) -> (workload::Shape, Options, u64) {
    let shape = workload::shape(name).expect("known workload");
    let mut opts = Options::new(7);
    opts.links = Some(if shape.tcp { 2 } else { 12 });
    opts.setup_reps = Some(2);
    opts.warmup_rounds = Some(workload::STAGGER_ROUNDS);
    opts.kills = Some(2);
    let rounds = if shape.tcp { 200 } else { 40 };
    (shape, opts, rounds)
}

fn run_tiny(name: &str, traced: bool) -> RunResult {
    let (shape, opts, rounds) = tiny(name);
    workload::run(&shape, &opts, rounds, traced).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_workload_runs_and_passes_its_gate() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for shape in WORKLOADS {
        let r = run_tiny(shape.name, false);
        assert!(
            r.steady.tally.delivered > 0,
            "{}: nothing delivered",
            shape.name
        );
        assert_eq!(r.restart.kills, 2, "{}", shape.name);
        assert_eq!(r.total.not_decoded, 0, "{}", shape.name);
        assert_eq!(r.total.connect_errors, 0, "{}", shape.name);
        assert_eq!(r.total.finished(), r.total.started, "{}", shape.name);
        for m in report::end_to_end(&r) {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                shape.name
            );
        }
    }
}

#[test]
fn same_seed_and_rounds_serve_the_same_flows() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = run_tiny("awgn-fleet", false);
    let b = run_tiny("awgn-fleet", false);
    assert_eq!(a.total, b.total);
    // Allocation counts are process-wide, so only `traced.rs`, alone in
    // its binary, compares them.
    let verdicts = |r: &RunResult| {
        let f = &r.fingerprint;
        (f.ticks, f.symbols_in, f.verdicts, f.delivered)
    };
    assert_eq!(verdicts(&a), verdicts(&b));
}

#[test]
fn wrong_expected_payload_counts_as_failure_not_goodput() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (shape, opts, rounds) = tiny("clean-fleet");
    let clean = workload::run(&shape, &opts, rounds, false).expect("clean run");
    let mut wrong = opts;
    wrong.corrupt_expected_every = Some(3);
    let bad = workload::run(&shape, &wrong, rounds, false).expect("gate still closes");

    // The server saw identical traffic: only the benchmark's
    // expectation changed.
    assert_eq!(clean.fingerprint.symbols_in, bad.fingerprint.symbols_in);
    assert_eq!(clean.steady.stats_end, bad.steady.stats_end);
    assert_eq!(clean.total.mismatched, 0);
    assert!(bad.total.mismatched > 0);
    assert_eq!(
        bad.total.delivered + bad.total.mismatched,
        clean.total.delivered
    );

    let metric = |r: &RunResult, name: &str| {
        report::end_to_end(r)
            .into_iter()
            .find(|m| m.name == name)
            .expect("metric reported")
            .value
    };
    assert_eq!(metric(&clean, "delivered_share"), 1.0);
    let share = metric(&bad, "delivered_share");
    let t = &bad.steady.tally;
    assert!(share < 1.0);
    assert_eq!(
        share,
        t.delivered as f64 / (t.delivered + t.mismatched) as f64
    );
    // Goodput counts intact payloads only: window by window the server
    // ingested the same symbols, and only the flows still counted as
    // delivered contribute bits.
    let bits = (shape.payload_bytes * 8) as f64;
    for (c, b) in clean.steady.windows.iter().zip(&bad.steady.windows) {
        assert_eq!(c.symbols_in, b.symbols_in);
        assert_eq!(b.tally.delivered + b.tally.mismatched, c.tally.delivered);
    }
    let mut goodputs: Vec<f64> = bad
        .steady
        .windows
        .iter()
        .map(|w| w.tally.delivered as f64 * bits / w.symbols_in as f64)
        .collect();
    goodputs.sort_by(f64::total_cmp);
    let n = goodputs.len();
    assert_eq!(
        metric(&bad, "goodput_bits_per_symbol"),
        (goodputs[(n - 1) / 2] + goodputs[n / 2]) / 2.0
    );
    assert!(metric(&bad, "goodput_bits_per_symbol") < metric(&clean, "goodput_bits_per_symbol"));
}

#[test]
fn reported_metrics_are_the_ones_benchmark_json_names() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let named = |section: &str| -> Vec<(String, String)> {
        doc.get(section)
            .map(Value::elements)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                (
                    e.get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    e.get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let t = run_tiny("tcp-pair", true);
    let u = run_tiny("tcp-pair", false);
    let got = |ms: Vec<report::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(got(report::end_to_end(&u)), named("end_to_end"));
    assert_eq!(got(report::per_layer(&t, &u)), named("per_layer"));
    // Every gated workload is one of ours, described the same way.
    for w in doc.get("workloads").map(Value::elements).unwrap_or(&[]) {
        let name = w.get("name").and_then(Value::as_str).unwrap_or("");
        let shape = workload::shape(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        assert_eq!(w.get("why").and_then(Value::as_str), Some(shape.why));
    }
}
