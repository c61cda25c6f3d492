//! `noc-benchmark compare`: two sets of result files, metric by metric.
//!
//! `compare A.json B.json`, or with several files per side
//! `compare A1.json A2.json --vs B1.json B2.json`. A is the parent (or the
//! first set), B the change (or the second set). Result files are the ones
//! a full run writes (`results.json`) or a single workload's
//! `result-<workload>.json`.

use crate::registry::{TimeBase, END_TO_END};
use crate::stats::quartiles;
use noc_campaign::value::{parse_json, Value};
use std::collections::BTreeMap;

/// One workload's record in one result file.
struct Record {
    seed: u64,
    report_hash: String,
    /// metric → (reported value, q1, q3 of the samples behind it)
    metrics: BTreeMap<String, (f64, f64, f64)>,
}

/// workload → one record per file.
type Side = BTreeMap<String, Vec<Record>>;

fn record(v: &Value) -> Result<(String, Record), String> {
    let t = v.as_table().ok_or("a result is not a JSON object")?;
    let text = |key: &str| {
        t.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("a result lacks the string {key:?}"))
    };
    let mut metrics = BTreeMap::new();
    let e2e = t
        .get("end_to_end")
        .and_then(Value::as_table)
        .ok_or("a result lacks \"end_to_end\"")?;
    for (name, m) in e2e {
        let field = |key: &str| {
            m.as_table()
                .and_then(|m| m.get(key))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} lacks the number {key:?}"))
        };
        metrics.insert(name.clone(), (field("value")?, field("q1")?, field("q3")?));
    }
    Ok((
        text("workload")?,
        Record {
            seed: t
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or("a result lacks \"seed\"")?,
            report_hash: text("report_hash")?,
            metrics,
        },
    ))
}

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let value = parse_json(&text).map_err(|e| format!("{path}: {}", e.0))?;
        let results: Vec<&Value> = match value.as_table().and_then(|t| t.get("results")) {
            Some(list) => list.as_array().collect(),
            None => vec![&value],
        };
        for r in results {
            let (workload, rec) = record(r).map_err(|e| format!("{path}: {e}"))?;
            side.entry(workload).or_default().push(rec);
        }
    }
    Ok(side)
}

/// Median and quartiles of a metric on one side: across the files when
/// there are several, else the single file's own quartiles.
fn summary(records: &[Record], metric: &str) -> Option<(f64, f64, f64)> {
    let values: Vec<(f64, f64, f64)> = records
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    match values.as_slice() {
        [] => None,
        [one] => Some(*one),
        many => {
            let (q1, median, q3) = quartiles(&many.iter().map(|v| v.0).collect::<Vec<_>>());
            Some((median, q1, q3))
        }
    }
}

/// Runs the comparison; returns whether the two sides agree within the
/// benchmark's own bounds.
///
/// # Errors
///
/// Returns a message for unreadable or malformed result files.
pub fn run(args: &[String]) -> Result<bool, String> {
    let (a_paths, b_paths): (Vec<String>, Vec<String>) =
        match args.iter().position(|a| a == "--vs") {
            Some(i) => (args[..i].to_vec(), args[i + 1..].to_vec()),
            None if args.len() == 2 => (vec![args[0].clone()], vec![args[1].clone()]),
            None => {
                return Err("usage: noc-benchmark compare A.json B.json | A1.json A2.json ... --vs B1.json B2.json ...".into())
            }
        };
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("compare needs at least one result file on each side".into());
    }
    let (a, b) = (load(&a_paths)?, load(&b_paths)?);
    let mut ok = true;
    println!(
        "{:<15} {:<26} {:>42} {:>42} {:>8} {:>6} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A value [q1, q3]",
        "B value [q1, q3]",
        "delta",
        "bound",
        "spread",
        "wins"
    );
    for (workload, a_records) in &a {
        let Some(b_records) = b.get(workload) else {
            println!("{workload:<15} only on side A");
            continue;
        };
        let same_seed = a_records
            .iter()
            .chain(b_records)
            .all(|r| r.seed == a_records[0].seed);
        if same_seed {
            let hashes_agree = a_records
                .iter()
                .chain(b_records)
                .all(|r| r.report_hash == a_records[0].report_hash);
            println!(
                "{workload:<15} {:<26} {:>42} {:>42} {:>8} {:>6} {:>8} {:>6}  {}",
                "report_hash",
                a_records[0].report_hash,
                b_records[0].report_hash,
                "",
                "exact",
                "",
                "",
                if hashes_agree {
                    "identical"
                } else {
                    "MISMATCH"
                }
            );
            ok &= hashes_agree;
        } else {
            println!("{workload:<15} seeds differ: simulated metrics are held to their bounds, not to equality");
        }
        for def in END_TO_END {
            let (Some((am, aq1, aq3)), Some((bm, bq1, bq3))) =
                (summary(a_records, def.name), summary(b_records, def.name))
            else {
                continue;
            };
            // Positive delta = B is worse than A.
            let delta = if def.higher_is_better {
                (am - bm) / am
            } else {
                (bm - am) / am
            };
            let spread = ((aq3 - aq1) / am.abs()).max((bq3 - bq1) / bm.abs());
            let pairs = a_records.len().min(b_records.len());
            let wins = (0..pairs)
                .filter(|&i| {
                    let (x, y) = (
                        a_records[i].metrics.get(def.name).map(|v| v.0),
                        b_records[i].metrics.get(def.name).map(|v| v.0),
                    );
                    match (x, y) {
                        (Some(x), Some(y)) if def.higher_is_better => y > x,
                        (Some(x), Some(y)) => y < x,
                        _ => false,
                    }
                })
                .count();
            let exact = def.base == TimeBase::Simulated && same_seed;
            let verdict = if exact {
                let first = a_records[0].metrics.get(def.name).map(|v| v.0);
                let identical = a_records
                    .iter()
                    .chain(b_records)
                    .all(|r| r.metrics.get(def.name).map(|v| v.0) == first);
                ok &= identical;
                if identical {
                    "identical"
                } else {
                    "MISMATCH"
                }
            } else if spread > def.bound {
                "unresolved"
            } else if delta > def.bound {
                ok = false;
                "WORSE"
            } else {
                "within bound"
            };
            println!(
                "{workload:<15} {:<26} {:>42} {:>42} {:>+7.2}% {:>6} {:>7.2}% {:>6}  {verdict}",
                def.name,
                format!("{am:.6} [{aq1:.6}, {aq3:.6}]"),
                format!("{bm:.6} [{bq1:.6}, {bq3:.6}]"),
                delta * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", def.bound * 100.0)
                },
                spread * 100.0,
                format!("{wins}/{pairs}"),
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload:<15} only on side B");
    }
    println!(
        "{}",
        if ok {
            "the two sides agree within the benchmark's bounds"
        } else {
            "the two sides DISAGREE: see MISMATCH / WORSE above"
        }
    );
    Ok(ok)
}
