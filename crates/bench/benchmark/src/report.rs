//! What one workload run produced, and how it is printed.

use crate::registry::{self, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::fmt::Write as _;

/// One correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The compared values, for the log.
    pub detail: String,
}

/// The host the numbers were taken on, recorded with every result.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/loadavg` at start.
    pub loadavg: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// Git revision of the checkout, or `unknown` outside a work tree.
    pub git_rev: String,
}

impl HostInfo {
    /// Probes the host.
    pub fn probe() -> Self {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc,
            git_rev: noc_sim::git_rev(),
        }
    }

    /// The one-minute load average, when readable.
    pub fn load1(&self) -> Option<f64> {
        self.loadavg.split_whitespace().next()?.parse().ok()
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"loadavg\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
            self.nproc,
            escape(&self.loadavg),
            escape(&self.rustc),
            escape(&self.git_rev)
        )
    }
}

/// Everything one workload run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// Whether sizes were shrunk by `--smoke`.
    pub smoke: bool,
    /// End-to-end metrics, from the untraced repetitions.
    pub e2e: Vec<(&'static str, Summary)>,
    /// Per-layer metrics, from the traced repetition and the layer drivers
    /// (empty on an untraced run).
    pub layers: Vec<(&'static str, f64)>,
    /// Operations attempted (measured packets; sweep points).
    pub attempted: u64,
    /// Operations that failed (undelivered packets; points that errored).
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// `fnv1a64` of the measured report's `Debug` text.
    pub report_hash: String,
    /// Free-form lines printed with the result (pinned parameters, the
    /// fixed-rate latency table, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Starts an empty outcome.
    pub fn new(workload: &str, seed: u64, smoke: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            smoke,
            ..Self::default()
        }
    }

    /// Records an end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue or is recorded twice — both
    /// are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: Summary) {
        let def = registry::end_to_end(name)
            .unwrap_or_else(|| panic!("end-to-end metric {name:?} is not in the catalogue"));
        assert!(
            self.e2e.iter().all(|(n, _)| *n != def.name),
            "end-to-end metric {name:?} recorded twice"
        );
        self.e2e.push((def.name, value));
    }

    /// Records a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue or is recorded twice.
    pub fn layer(&mut self, name: &str, value: f64) {
        let def = registry::per_layer(name)
            .unwrap_or_else(|| panic!("per-layer metric {name:?} is not in the catalogue"));
        assert!(
            self.layers.iter().all(|(n, _)| *n != def.name),
            "per-layer metric {name:?} recorded twice"
        );
        self.layers.push((def.name, value));
    }

    /// Reports 0 for every per-layer metric not recorded so far: the layers
    /// this workload bypasses.
    pub fn zero_remaining_layers(&mut self) {
        for def in PER_LAYER {
            if self.layers.iter().all(|(n, _)| *n != def.name) {
                self.layers.push((def.name, 0.0));
            }
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records an equality check, keeping both sides for the log.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        let ok = got == want;
        self.check(name, ok, format!("got {got:?}, want {want:?}"));
    }

    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// A recorded end-to-end value.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.value)
    }

    /// A recorded per-layer value.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Verifies the metric set against the catalogue: every end-to-end
    /// metric present, finite and non-zero; on a traced run every per-layer
    /// metric present and finite.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        for def in END_TO_END {
            let v = self
                .e2e_value(def.name)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", def.name))?;
            if !v.is_finite() || v == 0.0 {
                return Err(format!("end-to-end metric {} reads {v}", def.name));
            }
        }
        if traced {
            for def in PER_LAYER {
                let v = self
                    .layer_value(def.name)
                    .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))?;
                if !v.is_finite() {
                    return Err(format!("per-layer metric {} reads {v}", def.name));
                }
            }
        }
        Ok(())
    }

    /// Prints every metric by name with its unit, then the checks.
    pub fn print(&self, host: &HostInfo, traced: bool) {
        println!(
            "== {} (seed {}{}) ==  nproc {} · loadavg {} · {} · rev {}",
            self.workload,
            self.seed,
            if self.smoke { ", smoke" } else { "" },
            host.nproc,
            host.loadavg,
            host.rustc,
            host.git_rev
        );
        for note in &self.notes {
            println!("  {note}");
        }
        println!("  report_hash {}", self.report_hash);
        println!(
            "  {:<26} {:>16} {:<15} {:>5} {:>14} {:>14} {:>14} {:>7} {:>4}  base",
            "end-to-end metric", "value", "unit", "bound", "median", "q1", "q3", "spread", "n"
        );
        for def in END_TO_END {
            let Some((_, s)) = self.e2e.iter().find(|(n, _)| *n == def.name) else {
                continue;
            };
            let bound = format!("{:.0}%", def.bound * 100.0);
            println!(
                "  {:<26} {:>16.6} {:<15} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>6.2}% {:>4}  {}",
                def.name,
                s.value,
                def.unit,
                bound,
                s.median,
                s.q1,
                s.q3,
                s.spread() * 100.0,
                s.n,
                def.base.label()
            );
        }
        if traced {
            println!(
                "  {:<34} {:>18} {:<15}  base",
                "per-layer metric", "value", "unit"
            );
            for def in PER_LAYER {
                if let Some(v) = self.layer_value(def.name) {
                    println!(
                        "  {:<34} {:>18.6} {:<15}  {}",
                        def.name,
                        v,
                        def.unit,
                        def.base.label()
                    );
                }
            }
        }
        println!(
            "  attempted {} · failed {} · undelivered_frac {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for c in &self.checks {
            println!(
                "  check {:<44} {}  ({})",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }

    /// The result line the driver reads: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        let mut put = |s: &mut String, name: &str, value: f64, unit: &str| {
            if !std::mem::take(&mut first) {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        };
        if traced {
            for def in PER_LAYER {
                if let Some(v) = self.layer_value(def.name) {
                    put(&mut s, def.name, v, def.unit);
                }
            }
        } else {
            for def in END_TO_END {
                if let Some(v) = self.e2e_value(def.name) {
                    put(&mut s, def.name, v, def.unit);
                }
            }
        }
        s.push_str("}}");
        s
    }

    /// The full record kept on disk for `noc-benchmark compare`: both metric
    /// sets with quartiles and sample counts, the checks, and the host.
    pub fn to_json(&self, host: &HostInfo) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"workload\": \"{}\",", escape(&self.workload));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(s, "  \"host\": {},", host.to_json());
        let _ = writeln!(s, "  \"correct\": {},", self.correct());
        let _ = writeln!(s, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.failed);
        let _ = writeln!(s, "  \"report_hash\": \"{}\",", escape(&self.report_hash));
        s.push_str("  \"end_to_end\": {");
        for (i, (name, v)) in self.e2e.iter().enumerate() {
            let def = registry::end_to_end(name).expect("recorded through set()");
            let _ = write!(
                s,
                "{}\n    \"{name}\": {{\"value\": {:?}, \"unit\": \"{}\", \"median\": {:?}, \
                 \"q1\": {:?}, \"q3\": {:?}, \"n\": {}, \"base\": \"{}\"}}",
                if i > 0 { "," } else { "" },
                v.value,
                def.unit,
                v.median,
                v.q1,
                v.q3,
                v.n,
                def.base.label()
            );
        }
        s.push_str("\n  },\n  \"per_layer\": {");
        for (i, (name, v)) in self.layers.iter().enumerate() {
            let def = registry::per_layer(name).expect("recorded through layer()");
            let _ = write!(
                s,
                "{}\n    \"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\", \"base\": \"{}\"}}",
                if i > 0 { "," } else { "" },
                def.unit,
                def.base.label()
            );
        }
        s.push_str("\n  },\n  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                if i > 0 { "," } else { "" },
                escape(&c.name),
                c.ok,
                escape(&c.detail)
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Wall-clock samples as one line of seconds, for the notes.
pub fn seconds_list(samples: &[f64]) -> String {
    let shown: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
    shown.join(" ")
}

fn escape(s: &str) -> String {
    noc_sim::manifest::escape_json(s)
}
