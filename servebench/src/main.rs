//! The serving benchmark's command line.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! servebench compare BASE NEW [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints the host stamp, a summary, every metric by name with its
//! unit, and, as its last line, the result object. `--seconds` sizes
//! the run's work (a fixed round count per workload), so the same seed
//! and seconds serve the same flows on any host. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` runs the workload traced for half
//! the seconds, replays the same rounds untraced, checks that the two
//! agree, and reports the per-layer metrics with the wall-time
//! attribution table. A failed correctness check prints what failed to
//! stderr and exits 1 without a result. `--out` appends the result,
//! stamped with the host, to FILE for `compare`.

use std::io::Write as _;
use std::process::ExitCode;

use servebench::compare;
use servebench::report::{self, Host, Metric};
use servebench::workload::{self, Options, RunResult, Shape, WORKLOADS};

struct RunArgs {
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n       \
         servebench compare BASE NEW [--benchmark BENCHMARK.json]"
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name: String = workload.ok_or("--workload is required")?;
    let shape = workload::shape(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name} (have {})", names.join(", "))
    })?;
    Ok(RunArgs {
        shape,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for x in metrics {
        println!("{:<32} {:>20.6} {}", x.name, x.value, x.unit);
    }
}

/// Runs one workload; `Err` is a failed correctness check.
fn run(a: &RunArgs) -> Result<(u64, u64, Vec<Metric>), String> {
    let shape = a.shape;
    let opts = Options::new(a.seed);
    let summarized = |r: RunResult| {
        println!("{}", report::run_summary(&r));
        r
    };
    if !a.trace {
        let rounds = shape.steady_rounds(a.seconds);
        let r = summarized(workload::run(&shape, &opts, rounds, false)?);
        let metrics = report::end_to_end(&r);
        print_metrics("end-to-end metrics (untraced run)", &metrics);
        return Ok((r.total.started, r.total.failed(), metrics));
    }
    // Half the time traced, half replaying the same rounds untraced.
    let rounds = shape.steady_rounds(a.seconds / 2.0);
    let t = summarized(workload::run(&shape, &opts, rounds, true)?);
    let u = summarized(workload::run(&shape, &opts, rounds, false)?);
    report::check_traced(&t, &u)?;
    print!("{}", report::attribution_table(&t));
    print_metrics(
        "end-to-end metrics of the untraced replay (for reference)",
        &report::end_to_end(&u),
    );
    let metrics = report::per_layer(&t, &u);
    print_metrics("per-layer metrics (traced run)", &metrics);
    Ok((t.total.started, t.total.failed(), metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let rest = &args[1..];
            let (files, bench) = match rest {
                [a, b] => ([a, b], "BENCHMARK.json".to_string()),
                [a, b, flag, path] if flag == "--benchmark" => ([a, b], path.clone()),
                _ => return usage(),
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let judges = match std::fs::read_to_string(&bench) {
                Ok(text) => compare::judges(&text),
                Err(_) => Ok(Vec::new()),
            };
            let rendered = (|| {
                let judges = judges?;
                compare::render(&read(files[0])?, &read(files[1])?, &judges)
            })();
            match rendered {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(_) => {
            let a = match parse_run(&args) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let host = Host::probe();
            println!(
                "# host: cpu={:?} cores={} kernel={} rustc={:?} git={}",
                host.cpu, host.cores, host.kernel, host.rustc, host.git_rev
            );
            println!(
                "# workload={} seed={} seconds={} trace={}",
                a.shape.name,
                a.seed,
                a.seconds,
                u8::from(a.trace)
            );
            match run(&a) {
                Ok((attempted, failed, metrics)) => {
                    if let Some(path) = &a.out {
                        let line = report::record(
                            a.shape.name,
                            a.seed,
                            a.trace,
                            &host,
                            attempted,
                            failed,
                            &metrics,
                        );
                        let appended = std::fs::OpenOptions::new()
                            .create(true)
                            .append(true)
                            .open(path)
                            .and_then(|mut f| writeln!(f, "{line}"));
                        if let Err(e) = appended {
                            eprintln!("--out {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    println!("{}", report::result_line(attempted, failed, &metrics));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("correctness check failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        None => usage(),
    }
}
