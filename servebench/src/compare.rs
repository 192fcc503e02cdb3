//! `compare`: two result files side by side.
//!
//! A result file holds one record per line, as `run --out FILE`
//! appends them. For every workload and metric found in either file,
//! the medians over that file's records are printed with the relative
//! delta and, for end-to-end metrics, the bound `BENCHMARK.json` fixes
//! and whether the change stays within it.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// How a metric is judged, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Judge {
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the base median; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

/// Reads the `end_to_end` and `per_layer` entries of `BENCHMARK.json`.
///
/// # Errors
///
/// A parse error message.
pub fn judges(benchmark_json: &str) -> Result<Vec<(String, Judge)>, String> {
    let doc = json::parse(benchmark_json)?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for entry in doc.get(section).map(Value::elements).unwrap_or(&[]) {
            let Some(name) = entry.get("name").and_then(Value::as_str) else {
                continue;
            };
            out.push((
                name.to_string(),
                Judge {
                    higher_is_better: entry.get("better").and_then(Value::as_str) == Some("higher"),
                    bound: entry.get("bound").and_then(Value::as_f64),
                },
            ));
        }
    }
    Ok(out)
}

/// Per workload (first-seen order), per metric (first-seen order): the
/// unit and every value.
type Table = Vec<(String, Vec<(String, String, Vec<f64>)>)>;

/// Parses a result file into a table, plus the distinct host stamps.
///
/// # Errors
///
/// A message naming the first line that is not a result record.
pub fn load(text: &str) -> Result<(Table, Vec<String>), String> {
    let mut table: Table = Vec::new();
    let mut hosts = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        if let Some(h) = rec.get("host") {
            let stamp = format!(
                "{} / {} cores / {} / {} / {}",
                h.get("cpu").and_then(Value::as_str).unwrap_or("?"),
                h.get("cores").and_then(Value::as_f64).unwrap_or(0.0),
                h.get("kernel").and_then(Value::as_str).unwrap_or("?"),
                h.get("rustc").and_then(Value::as_str).unwrap_or("?"),
                h.get("git_rev").and_then(Value::as_str).unwrap_or("?"),
            );
            if !hosts.contains(&stamp) {
                hosts.push(stamp);
            }
        }
        let wi = match table.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                table.push((workload.to_string(), Vec::new()));
                table.len() - 1
            }
        };
        for (name, metric) in rec.get("metrics").map(Value::members).unwrap_or(&[]) {
            let Some(v) = metric.get("value").and_then(Value::as_f64) else {
                continue;
            };
            let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
            let rows = &mut table[wi].1;
            match rows.iter_mut().find(|(n, _, _)| n == name) {
                Some(row) => row.2.push(v),
                None => rows.push((name.clone(), unit.to_string(), vec![v])),
            }
        }
    }
    Ok((table, hosts))
}

fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

fn lookup<'a>(judges: &'a [(String, Judge)], name: &str) -> Option<&'a Judge> {
    judges.iter().find(|(n, _)| n == name).map(|(_, j)| j)
}

type Rows = [(String, String, Vec<f64>)];

fn rows_of<'a>(t: &'a Table, workload: &str) -> &'a Rows {
    t.iter()
        .find(|(name, _)| name == workload)
        .map_or(&[], |(_, rows)| rows.as_slice())
}

/// Renders the side-by-side comparison of `base` and `new`.
pub fn render(base: &str, new: &str, judges: &[(String, Judge)]) -> Result<String, String> {
    let (a, a_hosts) = load(base)?;
    let (b, b_hosts) = load(new)?;
    let mut out = String::new();
    let _ = writeln!(out, "base host: {}", a_hosts.join(" | "));
    let _ = writeln!(out, "new host:  {}", b_hosts.join(" | "));
    if a_hosts != b_hosts {
        let _ = writeln!(
            out,
            "note: host stamps differ; compare ratios, not absolute numbers"
        );
    }
    let mut workloads: Vec<&str> = a.iter().map(|(w, _)| w.as_str()).collect();
    for (w, _) in &b {
        if !workloads.contains(&w.as_str()) {
            workloads.push(w);
        }
    }
    for w in workloads {
        let ra = rows_of(&a, w);
        let rb = rows_of(&b, w);
        let _ = writeln!(out, "\n== {w}");
        let _ = writeln!(
            out,
            "{:<32} {:>11} {:>16} {:>16} {:>9} {:>7}  verdict",
            "metric", "unit", "base (n)", "new (n)", "delta", "bound"
        );
        let mut names: Vec<(String, String)> =
            ra.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
        for (n, u, _) in rb {
            if !names.iter().any(|(x, _)| x == n) {
                names.push((n.clone(), u.clone()));
            }
        }
        for (name, unit) in names {
            let va = ra.iter().find(|(n, _, _)| *n == name).map(|r| &r.2[..]);
            let vb = rb.iter().find(|(n, _, _)| *n == name).map(|r| &r.2[..]);
            let ma = va.and_then(median);
            let mb = vb.and_then(median);
            let cell = |m: Option<f64>, v: Option<&[f64]>| {
                let n = v.map_or(0, <[f64]>::len);
                match m {
                    Some(x) if x == 0.0 || x.abs() >= 0.01 => format!("{x:.4} ({n})"),
                    Some(x) => format!("{x:.4e} ({n})"),
                    None => "-".to_string(),
                }
            };
            let delta = match (ma, mb) {
                (Some(x), Some(y)) if x != 0.0 => Some((y - x) / x.abs()),
                _ => None,
            };
            let judge = lookup(judges, &name);
            let bound = judge.and_then(|j| j.bound);
            let verdict = match (delta, judge) {
                (Some(d), Some(j)) => {
                    let worse = if j.higher_is_better { -d } else { d };
                    match bound {
                        Some(bd) if worse > bd => "WORSE than bound",
                        Some(_) => "within bound",
                        None if worse > 0.0 => "worse",
                        None if worse < 0.0 => "better",
                        None => "same",
                    }
                }
                _ => "",
            };
            let _ = writeln!(
                out,
                "{:<32} {:>11} {:>16} {:>16} {:>9} {:>7}  {}",
                name,
                unit,
                cell(ma, va),
                cell(mb, vb),
                delta.map_or("-".to_string(), |d| format!("{:+.2}%", d * 100.0)),
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                verdict
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "flows_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "server.busy_us_per_flow", "unit": "us", "better": "lower"}]}"#;

    fn rec(w: &str, flows: f64, busy: f64) -> String {
        format!(
            "{{\"workload\": \"{w}\", \"host\": {{\"cpu\": \"x\", \"cores\": 2, \"kernel\": \"k\", \
             \"rustc\": \"r\", \"git_rev\": \"g\"}}, \"metrics\": {{\"flows_per_s\": \
             {{\"value\": {flows}, \"unit\": \"1/s\"}}, \"server.busy_us_per_flow\": \
             {{\"value\": {busy}, \"unit\": \"us\"}}}}}}\n"
        )
    }

    #[test]
    fn judges_medians_against_bounds() {
        let j = judges(BENCH).unwrap();
        let base = rec("a", 100.0, 10.0) + &rec("a", 110.0, 10.0) + &rec("a", 90.0, 10.0);
        let new = rec("a", 80.0, 9.0);
        let text = render(&base, &new, &j).unwrap();
        let flows = text.lines().find(|l| l.starts_with("flows_per_s")).unwrap();
        assert!(flows.contains("100.0000 (3)"), "{flows}");
        assert!(flows.contains("-20.00%"), "{flows}");
        assert!(flows.contains("WORSE than bound"), "{flows}");
        let busy = text
            .lines()
            .find(|l| l.starts_with("server.busy_us_per_flow"))
            .unwrap();
        assert!(busy.contains("better"), "{busy}");
    }

    #[test]
    fn rejects_lines_that_are_not_records() {
        assert!(load("{\"metrics\": {}}\n").is_err());
        assert!(load("not json\n").is_err());
    }
}
