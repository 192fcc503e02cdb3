//! The README's multi-session numbers must be the ones the committed
//! artifact it cites holds: each row of the `bench_multi_session` table
//! (sessions/s rounded to integers, speedups to two decimals) and the
//! checkpoint memory of the largest fleet are checked against
//! `BENCH_multi_session.json`, so regenerating the artifact without
//! rewriting the table fails here.

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

    let header =
        "| sessions | scheduler s/s | one-at-a-time s/s | speedup | vs checkpointed solo |";
    let at = readme
        .find(header)
        .expect("README has the multi-session table");
    let rows: Vec<Vec<String>> = readme[at..]
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|cell| {
                    cell.trim()
                        .trim_matches('*')
                        .trim_end_matches('×')
                        .to_string()
                })
                .collect()
        })
        .collect();
    assert_eq!(
        rows.len(),
        points.len(),
        "one README row per artifact point"
    );
    for (row, p) in rows.iter().zip(&points) {
        let want = vec![
            format!("{}", field(p, "sessions")),
            format!("{:.0}", field(p, "scheduler_sessions_per_sec")),
            format!("{:.0}", field(p, "one_at_a_time_sessions_per_sec")),
            format!("{:.2}", field(p, "speedup")),
            format!("{:.2}", field(p, "speedup_vs_checkpointed")),
        ];
        assert_eq!(
            row, &want,
            "README row disagrees with BENCH_multi_session.json"
        );
    }

    let largest = points.last().expect("checked non-empty");
    let memory = format!(
        "{} private checkpoint stores hold ~{:.1} MB",
        field(largest, "sessions"),
        field(largest, "checkpoint_bytes") / 1e6
    );
    let prose = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(prose.contains(&memory), "README should read \"{memory}\"");
}
