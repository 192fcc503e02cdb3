//! The README's bench numbers must be the ones the committed artifacts
//! they cite hold: each row of the `bench_multi_session` table
//! (sessions/s rounded to integers, speedups to two decimals) is checked
//! against `BENCH_multi_session.json`, and each row of the `bench_chaos`
//! table against `BENCH_chaos.json`, so regenerating an artifact without
//! rewriting its README figures fails here.

use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The number after `"key": ` on one artifact line.
fn field(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key} in {line}: {e}"))
}

#[test]
fn readme_multi_session_table_matches_its_artifact() {
    let artifact = repo_file("BENCH_multi_session.json");
    let readme = repo_file("README.md");
    let points: Vec<&str> = artifact
        .lines()
        .filter(|l| l.contains("\"sessions\": "))
        .collect();
    assert!(!points.is_empty(), "the artifact lists no points");

    let rows = table_rows(
        &readme,
        "| sessions | shared scratch s/s | private scratches s/s | vs private |",
    );
    assert_eq!(
        rows.len(),
        points.len(),
        "one README row per artifact point"
    );
    for (row, p) in rows.iter().zip(&points) {
        let want = vec![
            format!("{}", field(p, "sessions")),
            format!("{:.0}", field(p, "shared_scratch_sessions_per_sec")),
            format!("{:.0}", field(p, "private_scratch_sessions_per_sec")),
            format!("{:.2}", field(p, "speedup")),
        ];
        assert_eq!(
            row, &want,
            "README row disagrees with BENCH_multi_session.json"
        );
    }
}

/// The quoted string after `"key": ` on one artifact line.
fn str_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": \"");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let rest = &line[at..];
    &rest[..rest
        .find('"')
        .unwrap_or_else(|| panic!("open {key} in {line}"))]
}

#[test]
fn readme_chaos_table_matches_its_artifact() {
    let artifact = repo_file("BENCH_chaos.json");
    let rows: Vec<&str> = artifact
        .lines()
        .filter(|l| l.contains("\"class\": "))
        .collect();
    // The README reports one table for both shard counts: the per-class
    // rows must agree across them.
    let per_class = |l: &&str| {
        l[l.find("\"class\"").expect("class row")..]
            .trim_end_matches(',')
            .to_string()
    };
    let serial: Vec<&str> = rows
        .iter()
        .copied()
        .filter(|l| field(l, "shards") == 1.0)
        .collect();
    let sharded: Vec<String> = rows
        .iter()
        .filter(|l| field(l, "shards") != 1.0)
        .map(per_class)
        .collect();
    assert!(!serial.is_empty(), "the artifact lists no serial rows");
    assert_eq!(
        serial.iter().map(per_class).collect::<Vec<_>>(),
        sharded,
        "BENCH_chaos.json differs between shard counts"
    );

    let table = table_rows(
        &repo_file("README.md"),
        "| class | flows | delivered | recovered | misdecoded | lost | recovery p99 |",
    );
    let mut covered = Vec::new();
    for row in &table {
        let classes: Vec<&str> = row[0].split(" / ").collect();
        let lines: Vec<&str> = classes
            .iter()
            .map(|c| {
                *serial
                    .iter()
                    .find(|l| str_field(l, "class") == *c)
                    .unwrap_or_else(|| panic!("README class {c} is not in BENCH_chaos.json"))
            })
            .collect();
        covered.extend(classes.iter().map(|c| c.to_string()));
        let sum = |key: &str| lines.iter().map(|l| field(l, key)).sum::<f64>();
        let or_dash = |x: f64| {
            if x == 0.0 {
                "—".to_string()
            } else {
                format!("{x}")
            }
        };
        let p99: Vec<f64> = lines
            .iter()
            .map(|l| field(l, "recovery_p99_ticks"))
            .collect();
        let (lo, hi) = p99
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let recovery = if hi == 0.0 {
            "—".to_string()
        } else if lo == hi {
            format!("{hi} ticks")
        } else {
            format!("{lo}–{hi} ticks")
        };
        let want = vec![
            row[0].clone(),
            format!("{}", sum("flows")),
            format!("{}", sum("delivered")),
            or_dash(sum("recovered")),
            format!("{}", sum("misdecoded")),
            format!("{}", sum("lost")),
            recovery,
        ];
        assert_eq!(
            row, &want,
            "README chaos row disagrees with BENCH_chaos.json"
        );
    }
    let mut all: Vec<String> = serial
        .iter()
        .map(|l| str_field(l, "class").to_string())
        .collect();
    all.sort();
    covered.sort();
    assert_eq!(
        covered, all,
        "every artifact class appears in one README row"
    );
}

/// The body rows of the README table under `header`, each cell trimmed
/// of bold markers and a trailing unit (`×`, `%`).
fn table_rows(readme: &str, header: &str) -> Vec<Vec<String>> {
    let at = readme
        .find(header)
        .unwrap_or_else(|| panic!("README has no table headed {header}"));
    readme[at..]
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|cell| {
                    cell.trim()
                        .trim_matches('*')
                        .trim_end_matches(['×', '%'])
                        .to_string()
                })
                .collect()
        })
        .collect()
}
