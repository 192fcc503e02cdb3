//! A traced run and its untraced replay must agree exactly on loopback.
//!
//! The check compares process-wide allocation counts, so this file
//! holds a single test: no other test thread allocates meanwhile.

use servebench::report;
use servebench::workload::{self, Options, RunResult, WORKLOADS};

fn run_tiny(shape: &workload::Shape, traced: bool) -> RunResult {
    let mut opts = Options::new(7);
    opts.links = Some(if shape.tcp { 2 } else { 12 });
    opts.setup_reps = Some(2);
    opts.warmup_rounds = Some(workload::STAGGER_ROUNDS);
    opts.kills = Some(2);
    let rounds = if shape.tcp { 200 } else { 40 };
    workload::run(shape, &opts, rounds, traced).unwrap_or_else(|e| panic!("{}: {e}", shape.name))
}

#[test]
fn traced_run_matches_its_untraced_replay() {
    for shape in WORKLOADS {
        let t = run_tiny(&shape, true);
        let u = run_tiny(&shape, false);
        report::check_traced(&t, &u).unwrap_or_else(|e| panic!("{}: {e}", shape.name));
        if !shape.tcp {
            assert_eq!(t.fingerprint, u.fingerprint, "{}", shape.name);
        }
        let (wall, attributed) = report::attribution(&t);
        assert!(attributed > 0 && attributed <= wall, "{}", shape.name);
        for m in report::per_layer(&t, &u) {
            assert!(m.value.is_finite(), "{}: {m:?}", shape.name);
        }
    }
}
