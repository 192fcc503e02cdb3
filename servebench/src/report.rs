//! Turning runs into metrics, checking them, and printing them.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::quote;
use crate::trace::Layer;
use crate::workload::{RunResult, Window};

/// One named, measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The lower quartile of `v`, `0` when empty.
fn lower_quartile(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 4).copied().unwrap_or(0.0)
}

/// The median over steady-phase windows of `f`.
fn over_windows(r: &RunResult, f: impl Fn(&Window) -> f64) -> f64 {
    median(r.steady.windows.iter().map(f).collect())
}

/// `f` over the steady-phase windows in which a timed flow ended.
fn timed_windows(r: &RunResult, f: impl Fn(&Window) -> Option<f64>) -> Vec<f64> {
    r.steady.windows.iter().filter_map(f).collect()
}

/// Delivered flows per wall-clock second: the median over steady-phase
/// windows.
pub fn flows_per_s(r: &RunResult) -> f64 {
    over_windows(r, |w| {
        ratio(w.tally.delivered as f64, w.wall_ns as f64 / 1e9)
    })
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let s = &r.steady;
    let payload_bits = (r.shape.payload_bytes * 8) as f64;
    vec![
        m("flows_per_s", "1/s", flows_per_s(r)),
        m(
            "flow_latency_p50_ms",
            "ms",
            median(timed_windows(r, |w| w.p50_ns)) / 1e6,
        ),
        m(
            "flow_latency_p99_ms",
            "ms",
            // Contention from outside the benchmark only ever adds
            // latency, and it lands in the tail: a stretch of it lifts
            // some windows' p99 several-fold while their median barely
            // moves, so the tail is read from the quieter windows.
            lower_quartile(timed_windows(r, |w| w.p99_ns)) / 1e6,
        ),
        m(
            "goodput_bits_per_symbol",
            "bit/symbol",
            over_windows(r, |w| {
                ratio(w.tally.delivered as f64 * payload_bits, w.symbols_in as f64)
            }),
        ),
        m(
            "delivered_share",
            "share",
            ratio(s.tally.delivered as f64, s.tally.finished() as f64),
        ),
        m(
            "peak_heap_bytes_per_link",
            "bytes",
            ratio(s.peak_heap as f64, r.links as f64),
        ),
        m(
            "setup_s",
            "s",
            median(r.setup_ns.iter().map(|&ns| ns as f64).collect()) / 1e9,
        ),
        m(
            "restart_outage_ms",
            "ms",
            r.restart.outage_ns.percentile(0.5) / 1e6,
        ),
    ]
}

/// The per-layer metrics of a traced run `t`, next to `u`, an untraced
/// replay of the same rounds.
pub fn per_layer(t: &RunResult, u: &RunResult) -> Vec<Metric> {
    let s = &t.steady;
    let flows = s.tally.delivered as f64;
    let per_flow = |v: u64| ratio(v as f64, flows);
    let us_per_flow = |layer: Layer| ratio(s.trace.layer(layer).self_ns as f64 / 1e3, flows);
    let allocs_per_flow = |layer: Layer| per_flow(s.trace.layer(layer).allocs);
    let k = &t.restart;
    let (wall, attributed) = attribution(t);
    vec![
        m("server.busy_us_per_flow", "us", us_per_flow(Layer::Server)),
        m("server.tick_ms_p50", "ms", s.tick_ns.percentile(0.50) / 1e6),
        m("server.tick_ms_p99", "ms", s.tick_ns.percentile(0.99) / 1e6),
        m(
            "server.ticks_per_flow",
            "ticks",
            ratio(s.tally.flow_rounds as f64, s.tally.timed as f64),
        ),
        m(
            "server.allocs_per_flow",
            "count",
            allocs_per_flow(Layer::Server),
        ),
        m(
            "server.backpressure_ticks",
            "count",
            s.stat(|x| x.backpressure_ticks) as f64,
        ),
        m(
            "server.egress_overflow",
            "count",
            s.stat(|x| x.egress_overflow) as f64,
        ),
        m(
            "server.busy_rejected",
            "count",
            s.stat(|x| x.busy_rejected) as f64,
        ),
        m(
            "server.result_deferred",
            "count",
            s.stat(|x| x.result_deferred) as f64,
        ),
        m(
            "sched.attempts_per_flow",
            "count",
            ratio(s.tally.attempts as f64, s.tally.attempt_flows as f64),
        ),
        m(
            "sched.decode_yield",
            "share",
            ratio(s.tally.attempt_flows as f64, s.tally.attempts as f64),
        ),
        m(
            "transport.busy_us_per_flow",
            "us",
            us_per_flow(Layer::Transport),
        ),
        m(
            "transport.calls_per_flow",
            "count",
            per_flow(s.trace.io_calls),
        ),
        m(
            "transport.connect_us_per_flow",
            "us",
            ratio(s.connect_ns as f64 / 1e3, s.tally.started as f64),
        ),
        m("wire.bytes_per_flow", "bytes", per_flow(s.trace.wire_bytes)),
        m(
            "wire.frames_per_flow",
            "count",
            per_flow(s.stat(|x| x.frames_in)),
        ),
        m("client.busy_us_per_flow", "us", us_per_flow(Layer::Client)),
        m(
            "client.allocs_per_flow",
            "count",
            allocs_per_flow(Layer::Client),
        ),
        m("snapshot.write_ms", "ms", k.write_ns.percentile(0.5) / 1e6),
        m(
            "snapshot.restore_ms",
            "ms",
            k.restore_ns.percentile(0.5) / 1e6,
        ),
        m(
            "snapshot.resume_tick_ms",
            "ms",
            k.resume_tick_ns.percentile(0.5) / 1e6,
        ),
        m(
            "snapshot.bytes_per_session",
            "bytes",
            ratio(k.snapshot_bytes as f64, k.snapshot_sessions as f64),
        ),
        m(
            "snapshot.restore_dropped",
            "count",
            k.restore_dropped as f64,
        ),
        m(
            "trace.overhead_share",
            "share",
            ratio(flows_per_s(t), flows_per_s(u)) - 1.0,
        ),
        m(
            "trace.unattributed_share",
            "share",
            ratio((wall - attributed) as f64, wall as f64),
        ),
    ]
}

/// Wall time of the traced phases and the part layer spans cover.
pub fn attribution(t: &RunResult) -> (u64, u64) {
    (
        t.steady.wall_ns + t.restart.wall_ns,
        t.steady.trace.attributed_ns() + t.restart.trace.attributed_ns(),
    )
}

/// Checks a traced run against its untraced replay: on loopback the two
/// must agree exactly on ticks, symbols, verdicts, deliveries and
/// allocations; on any transport, layer self times must not exceed the
/// wall time they split.
///
/// # Errors
///
/// A message naming the first disagreement.
pub fn check_traced(t: &RunResult, u: &RunResult) -> Result<(), String> {
    if !t.shape.tcp && t.fingerprint != u.fingerprint {
        return Err(format!(
            "tracing perturbed the run: traced {:?} != untraced {:?}",
            t.fingerprint, u.fingerprint
        ));
    }
    let (wall, attributed) = attribution(t);
    if attributed > wall {
        return Err(format!(
            "layer self times {attributed} ns exceed the wall time {wall} ns"
        ));
    }
    Ok(())
}

/// The attribution table: each layer's self time, the remainder, and
/// their sum against the wall time.
pub fn attribution_table(t: &RunResult) -> String {
    let (wall, attributed) = attribution(t);
    let mut out = String::new();
    let _ = writeln!(out, "# wall time by layer (traced steady + restart phases)");
    for layer in Layer::ALL {
        let ns = t.steady.trace.layer(layer).self_ns + t.restart.trace.layer(layer).self_ns;
        let _ = writeln!(
            out,
            "#   {:<13} {:>12.3} ms  {:>6.2}%",
            layer.name(),
            ns as f64 / 1e6,
            100.0 * ratio(ns as f64, wall as f64)
        );
    }
    let rest = wall - attributed.min(wall);
    let _ = writeln!(
        out,
        "#   {:<13} {:>12.3} ms  {:>6.2}%",
        "unattributed",
        rest as f64 / 1e6,
        100.0 * ratio(rest as f64, wall as f64)
    );
    let _ = writeln!(
        out,
        "#   {:<13} {:>12.3} ms  (layers + unattributed)",
        "wall",
        wall as f64 / 1e6
    );
    out
}

/// A one-paragraph summary of what the run did.
pub fn run_summary(r: &RunResult) -> String {
    let s = &r.steady;
    let t = &r.total;
    format!(
        "# {}: {} links, steady {} rounds in {:.3} s ({} flows delivered), \
         {} kills in {:.3} s; run total {} flows started, {} delivered, {} failed \
         (not decoded {}, payload mismatch {}, connect/accept {}); \
         server after drain: admitted {}, decoded {}, expired {}, restore_dropped {}",
        r.shape.name,
        r.links,
        s.rounds,
        s.wall_ns as f64 / 1e9,
        s.tally.delivered,
        r.restart.kills,
        r.restart.wall_ns as f64 / 1e9,
        t.started,
        t.delivered,
        t.failed(),
        t.not_decoded,
        t.mismatched,
        t.connect_errors,
        r.final_stats.admitted,
        r.final_stats.decoded,
        r.final_stats.expired,
        r.final_stats.restore_dropped,
    )
}

/// Formats a value for JSON: every digit Rust's shortest round-trip
/// form keeps; unbounded values become the largest finite double.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(x.name),
                number(x.value),
                quote(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark prints last.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Where a result was measured. Absolute numbers compare only within
/// one host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// CPU model name.
    pub cpu: String,
    /// Logical cores available to the process.
    pub cores: usize,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Git revision of the checkout, or `unknown` outside a git work
    /// tree.
    pub git_rev: String,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        let rustc =
            command_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
        // Keep git inside the current directory: a checkout that is not
        // a work tree must report `unknown`, not an enclosing repo.
        let cwd = std::env::current_dir().ok();
        let ceiling = cwd
            .as_deref()
            .and_then(|d| d.parent())
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_default();
        let git_rev = command_line(
            Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling),
        )
        .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel,
            rustc,
            git_rev,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": {}, \"cores\": {}, \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}}}",
            quote(&self.cpu),
            self.cores,
            quote(&self.kernel),
            quote(&self.rustc),
            quote(&self.git_rev)
        )
    }
}

/// One line of a result file: the run's identity, host stamp, counts
/// and metrics.
pub fn record(
    workload: &str,
    seed: u64,
    traced: bool,
    host: &Host,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"host\": {}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"metrics\": {}}}",
        quote(workload),
        u8::from(traced),
        host.to_json(),
        metrics_json(metrics)
    )
}
