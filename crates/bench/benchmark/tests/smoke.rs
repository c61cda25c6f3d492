//! Runs every workload at about 1/100 size through the same code path as a
//! real run and checks the shape of what it prints, and that `BENCHMARK.json`
//! lists exactly the metrics the catalogue defines.

use noc_campaign::value::{parse_json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_noc-benchmark");

fn benchmark_json() -> (String, BTreeMap<String, Value>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let table = parse_json(&text)
        .expect("BENCHMARK.json parses")
        .as_table()
        .expect("BENCHMARK.json is an object")
        .clone();
    (text, table)
}

/// `(name, unit)` of every metric under `key` in `BENCHMARK.json`.
fn listed(table: &BTreeMap<String, Value>, key: &str) -> Vec<(String, String)> {
    table[key]
        .as_array()
        .map(|m| {
            let m = m.as_table().expect("a metric is an object");
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn legal_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A directory of its own for each test, inside the target directory:
/// tests run in parallel and must not share result files.
fn out_dir(test: &str) -> PathBuf {
    Path::new(BIN)
        .parent()
        .and_then(Path::parent)
        .expect("the binary sits in <target>/<profile>/")
        .join("benchmark")
        .join(test)
}

/// Runs one workload with `--smoke` and returns its result line, parsed.
fn smoke(workload: &str, trace: &str, dir: &Path) -> (String, BTreeMap<String, Value>) {
    let output = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--smoke",
            "--trace",
            trace,
        ])
        .arg("--out-dir")
        .arg(dir)
        .env_remove("NOC_THREADS")
        .env_remove("NOC_NO_FASTFWD")
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    let table = parse_json(&line)
        .unwrap_or_else(|e| panic!("{workload}: result line does not parse: {}", e.0))
        .as_table()
        .expect("the result is an object")
        .clone();
    (line, table)
}

fn check_result(workload: &str, trace: &str, expected: &[(String, String)]) {
    let (line, result) = smoke(workload, trace, &out_dir("metrics"));
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
    assert!(
        result["attempted"].as_u64().is_some_and(|n| n >= 1),
        "{workload}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
    let metrics = result["metrics"].as_table().expect("metrics is an object");
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        assert!(legal_name(name), "{name}");
        assert_eq!(
            line.matches(&format!("\"{name}\":")).count(),
            1,
            "{workload}: {name} must be present exactly once"
        );
        let metric = metrics[name].as_table().expect("a metric is an object");
        let value = metric["value"].as_f64().expect("a numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            metric["unit"].as_str(),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        if trace == "0" {
            assert!(value != 0.0, "{workload}: end-to-end metric {name} reads 0");
        }
    }
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let (text, _) = benchmark_json();
    let described = Command::new(BIN)
        .args(["describe", "--json"])
        .output()
        .expect("the benchmark binary starts");
    assert!(described.status.success());
    assert_eq!(
        String::from_utf8(described.stdout).expect("utf-8 output"),
        text,
        "BENCHMARK.json must be the output of `noc-benchmark describe --json`"
    );
}

#[test]
fn every_workload_reports_every_metric_once() {
    let (_, table) = benchmark_json();
    let end_to_end = listed(&table, "end_to_end");
    let per_layer = listed(&table, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in table["workloads"].as_array() {
        let name = workload.as_table().expect("a workload is an object")["name"]
            .as_str()
            .expect("name");
        check_result(name, "0", &end_to_end);
        check_result(name, "1", &per_layer);
    }
}

#[test]
fn a_traced_run_writes_a_chrome_trace_that_parses() {
    let dir = out_dir("trace");
    smoke("bursty_replay", "1", &dir);
    let trace = dir.join("trace-bursty_replay.json");
    let text = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
    let events = parse_json(&text).expect("the trace parses");
    let events = &events.as_table().expect("an object")["traceEvents"];
    let names: Vec<&str> = events
        .as_array()
        .map(|e| {
            e.as_table().expect("an event")["name"]
                .as_str()
                .expect("name")
        })
        .collect();
    for span in [
        "workload",
        "setup",
        "sim.new",
        "sim.warmup",
        "sim.measure_drain",
        "layers",
    ] {
        assert!(names.contains(&span), "span {span} missing from {names:?}");
    }
}

#[test]
fn compare_accepts_a_result_against_itself_and_rejects_an_exact_mismatch() {
    let dir = out_dir("compare");
    smoke("cmp_cmesh", "0", &dir);
    let result = dir.join("result-cmp_cmesh.json");
    let same = Command::new(BIN)
        .arg("compare")
        .args([&result, &result])
        .status()
        .expect("compare starts");
    assert!(same.success());
    let text = std::fs::read_to_string(&result).expect("the run wrote its result");
    let hash_at = text.find("\"report_hash\": \"").expect("a report hash") + 16;
    let mut changed = text.clone();
    changed.replace_range(hash_at..hash_at + 4, "ffff");
    let other = dir.join("result-cmp_cmesh-changed.json");
    std::fs::write(&other, changed).expect("the target directory is writable");
    let differs = Command::new(BIN)
        .arg("compare")
        .args([&result, &other])
        .status()
        .expect("compare starts");
    assert_eq!(differs.code(), Some(1));
}
