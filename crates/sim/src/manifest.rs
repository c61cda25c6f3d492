//! Machine-readable run manifests: a JSON artifact written next to a report
//! that pins everything needed to reproduce the run — configuration hash,
//! git revision, seed, run phases — plus the headline results and (at
//! `--metrics=full`) the per-router counter dump.
//!
//! The workspace deliberately has no serde dependency, so the JSON here is
//! hand-rolled: a flat object of scalars plus one array of per-router
//! objects, with strings escaped by [`escape_json`]. The schema is versioned
//! via the `"schema"` field; see `docs/METRICS.md` for the field contract.

use crate::metrics::{CoordinationStats, MetricsLevel, RouterObservation};
use crate::{NetworkConfig, RunSpec, SimReport};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Schema identifier stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "noc-run-manifest/1";

/// Everything needed to reproduce and audit one simulation run.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// Git revision the binary was run from (`NOC_GIT_REV` override,
    /// `git rev-parse` fallback, `"unknown"` when neither is available).
    pub git_rev: String,
    /// FNV-1a hash over the full run configuration (hex string).
    pub config_hash: String,
    /// Simulation seed.
    pub seed: u64,
    /// Topology name.
    pub topology: String,
    /// Traffic model name.
    pub traffic: String,
    /// Router scheme description, when the caller knows it.
    pub scheme: Option<String>,
    /// Observability level the run collected at.
    pub metrics: MetricsLevel,
    /// Network parameters.
    pub config: NetworkConfig,
    /// Run phases (warmup / measure / drain).
    pub spec: RunSpec,
    /// Thread count the engine ran with ([`crate::Simulation::threads`]),
    /// when the caller recorded it. Execution-only — excluded from the
    /// config hash.
    pub threads: Option<usize>,
    /// Headline results copied from the report.
    pub summary: ManifestSummary,
    /// Per-router counter dump (present only at [`MetricsLevel::Full`]).
    pub routers: Vec<RouterObservation>,
    /// Engine coordination-cost summary (present only at
    /// [`MetricsLevel::Full`]). Execution-only, like `threads` — never part
    /// of the config hash, and the simulation results are byte-identical
    /// whether or not it was collected.
    pub coordination: Option<CoordinationStats>,
}

/// The headline numbers a manifest repeats from its [`SimReport`].
#[derive(Clone, Debug)]
pub struct ManifestSummary {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Mean measured packet latency.
    pub avg_latency: f64,
    /// Mean measured hop count.
    pub avg_hops: f64,
    /// Delivered measured flits per node per cycle.
    pub throughput: f64,
    /// Packets created in the measurement window.
    pub measured_injected: u64,
    /// Measured packets delivered.
    pub measured_delivered: u64,
    /// Pseudo-circuit reusability (paper Figs. 8b, 10).
    pub reusability: f64,
    /// Buffer-bypass rate.
    pub bypass_rate: f64,
    /// Total router energy in picojoules.
    pub energy_pj: f64,
    /// Whether every measured packet drained.
    pub drained: bool,
}

impl RunManifest {
    /// Captures a manifest from a finished run. The per-router dump is taken
    /// from `report.observability` when present.
    pub fn capture(
        report: &SimReport,
        config: &NetworkConfig,
        spec: RunSpec,
        seed: u64,
        metrics: MetricsLevel,
    ) -> Self {
        let routers = report
            .observability
            .as_ref()
            .map(|o| o.routers.clone())
            .unwrap_or_default();
        let coordination = report
            .observability
            .as_ref()
            .and_then(|o| o.coordination.clone());
        let mut manifest = Self {
            git_rev: git_rev(),
            config_hash: String::new(),
            seed,
            topology: report.topology.clone(),
            traffic: report.traffic.clone(),
            scheme: None,
            metrics,
            config: *config,
            spec,
            threads: None,
            summary: ManifestSummary {
                cycles: report.cycles,
                avg_latency: report.avg_latency,
                avg_hops: report.avg_hops,
                throughput: report.throughput,
                measured_injected: report.measured_injected,
                measured_delivered: report.measured_delivered,
                reusability: report.reusability(),
                bypass_rate: report.bypass_rate(),
                energy_pj: report.energy_pj(),
                drained: report.drained,
            },
            routers,
            coordination,
        };
        manifest.config_hash = manifest.compute_config_hash();
        manifest
    }

    /// Attaches the router-scheme description (rehashes the configuration).
    pub fn with_scheme(mut self, scheme: impl Into<String>) -> Self {
        self.scheme = Some(scheme.into());
        self.config_hash = self.compute_config_hash();
        self
    }

    /// Attaches the thread count the engine ran with. Thread counts never
    /// affect results, so this does NOT rehash the configuration.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// FNV-1a over every reproducibility-relevant input: topology, traffic,
    /// scheme, network parameters, run phases, and seed. Results are
    /// deliberately excluded — two runs of the same configuration hash
    /// identically even if the engine's behaviour changed.
    fn compute_config_hash(&self) -> String {
        config_hash(
            &self.topology,
            &self.traffic,
            self.scheme.as_deref(),
            &self.config,
            self.spec,
            self.seed,
        )
    }

    /// Serializes the manifest as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + self.routers.len() * 256);
        s.push_str("{\n");
        json_str(&mut s, "schema", MANIFEST_SCHEMA);
        json_str(&mut s, "git_rev", &self.git_rev);
        json_str(&mut s, "config_hash", &self.config_hash);
        json_u64(&mut s, "seed", self.seed);
        json_str(&mut s, "topology", &self.topology);
        json_str(&mut s, "traffic", &self.traffic);
        match &self.scheme {
            Some(scheme) => json_str(&mut s, "scheme", scheme),
            None => s.push_str("  \"scheme\": null,\n"),
        }
        json_str(&mut s, "metrics", self.metrics.name());
        json_u64(&mut s, "vcs_per_port", self.config.vcs_per_port as u64);
        json_u64(&mut s, "buffer_depth", self.config.buffer_depth as u64);
        json_str(&mut s, "routing", &format!("{:?}", self.config.routing));
        json_str(&mut s, "va_policy", &format!("{:?}", self.config.va_policy));
        if let Some(threads) = self.threads {
            json_u64(&mut s, "threads", threads as u64);
        }
        if let Some(c) = &self.coordination {
            json_u64(&mut s, "coord_epochs", c.epochs);
            json_u64(&mut s, "coord_skipped_epochs", c.skipped_epochs);
            json_u64(&mut s, "coord_wait_ns_total", c.wait_ns_total);
            json_u64(&mut s, "coord_lanes_merged_total", c.lanes_merged_total);
        }
        json_u64(&mut s, "warmup", self.spec.warmup);
        json_u64(&mut s, "measure", self.spec.measure);
        json_u64(&mut s, "drain", self.spec.drain);
        json_u64(&mut s, "cycles", self.summary.cycles);
        json_f64(&mut s, "avg_latency", self.summary.avg_latency);
        json_f64(&mut s, "avg_hops", self.summary.avg_hops);
        json_f64(&mut s, "throughput", self.summary.throughput);
        json_u64(&mut s, "measured_injected", self.summary.measured_injected);
        json_u64(
            &mut s,
            "measured_delivered",
            self.summary.measured_delivered,
        );
        json_f64(&mut s, "reusability", self.summary.reusability);
        json_f64(&mut s, "bypass_rate", self.summary.bypass_rate);
        json_f64(&mut s, "energy_pj", self.summary.energy_pj);
        let _ = writeln!(s, "  \"drained\": {},", self.summary.drained);
        s.push_str("  \"routers\": [");
        for (i, r) in self.routers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            write_router_json(&mut s, r);
        }
        if !self.routers.is_empty() {
            s.push('\n');
            s.push_str("  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Writes the manifest as JSON to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

fn write_router_json(s: &mut String, r: &RouterObservation) {
    let _ = write!(s, "    {{\"router\": {}", r.router);
    let arrays: [(&str, &[u64]); 9] = [
        ("traversals", &r.traversals),
        ("sa_grants", &r.sa_grants),
        ("va_grants", &r.va_grants),
        ("pc_hits", &r.pc_hits),
        ("pc_creations", &r.pc_creations),
        ("buffer_bypasses", &r.buffer_bypasses),
        ("term_conflict", &r.term_conflict),
        ("term_credit", &r.term_credit),
        ("restores", &r.restores),
    ];
    for (name, values) in arrays {
        let _ = write!(s, ", \"{name}\": [");
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{v}");
        }
        s.push(']');
    }
    let (tc, tx) = r.terminations();
    let _ = write!(
        s,
        ", \"hit_rate\": {}, \"terminations_conflict\": {tc}, \"terminations_credit\": {tx}}}",
        f64_json(r.hit_rate())
    );
}

fn json_str(s: &mut String, key: &str, value: &str) {
    let _ = writeln!(s, "  \"{key}\": \"{}\",", escape_json(value));
}

fn json_u64(s: &mut String, key: &str, value: u64) {
    let _ = writeln!(s, "  \"{key}\": {value},");
}

fn json_f64(s: &mut String, key: &str, value: f64) {
    let _ = writeln!(s, "  \"{key}\": {},", f64_json(value));
}

fn f64_json(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` is shortest-roundtrip and always includes a decimal point
        // or exponent, so the output parses as a JSON number.
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The `config_hash` stamped into every run manifest, computable *before* a
/// run: FNV-1a over topology name, traffic name, scheme label, network
/// parameters, run phases, and seed. Results never enter the key, so a
/// configuration's hash is stable across engine changes — the property the
/// campaign cache (`noc-campaign`) relies on to decide whether a stored
/// result still describes a requested point. `topology` and `traffic` are
/// the *resolved* display names (`Topology::name` / `TrafficModel::name`),
/// matching what [`RunManifest::capture`] reads off the report.
pub fn config_hash(
    topology: &str,
    traffic: &str,
    scheme: Option<&str>,
    config: &NetworkConfig,
    spec: RunSpec,
    seed: u64,
) -> String {
    let key = format!(
        "{}|{}|{}|{:?}|{:?}|{}",
        topology,
        traffic,
        scheme.unwrap_or("-"),
        config,
        spec,
        seed
    );
    format!("{:016x}", fnv1a64(key.as_bytes()))
}

/// Escapes a string for embedding in a JSON document.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// 64-bit FNV-1a hash (stable, dependency-free; used for config hashes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The git revision to stamp into manifests: the `NOC_GIT_REV` environment
/// variable when set, otherwise `git rev-parse --short=12 HEAD`, otherwise
/// `"unknown"` (e.g. outside a checkout).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("NOC_GIT_REV") {
        let rev = rev.trim();
        if !rev.is_empty() {
            return rev.to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ObservabilityReport;
    use crate::router::RouterStats;
    use noc_energy::{EnergyBreakdown, EnergyCounters};

    fn report(observability: Option<ObservabilityReport>) -> SimReport {
        SimReport {
            topology: "mesh-4x4".into(),
            traffic: "uniform".into(),
            cycles: 1000,
            avg_latency: 21.5,
            avg_hops: 3.25,
            p99_latency_bound: 64,
            measured_injected: 100,
            measured_delivered: 100,
            delivered_packets: 120,
            throughput: 0.05,
            router_stats: RouterStats::default(),
            energy: EnergyCounters::default(),
            energy_breakdown: EnergyBreakdown::default(),
            end_to_end_locality: 0.5,
            drained: true,
            final_backlog: 0,
            observability,
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn manifest_json_contains_reproducibility_fields() {
        std::env::set_var("NOC_GIT_REV", "deadbeef0123");
        let m = RunManifest::capture(
            &report(None),
            &NetworkConfig::paper(),
            RunSpec::new(100, 400, 1000),
            0x5eed,
            MetricsLevel::Full,
        )
        .with_scheme("pseudo+ps+bb");
        let json = m.to_json();
        assert_eq!(m.git_rev, "deadbeef0123");
        assert!(json.contains("\"schema\": \"noc-run-manifest/1\""));
        assert!(json.contains("\"seed\": 24301"));
        assert!(json.contains("\"scheme\": \"pseudo+ps+bb\""));
        assert!(json.contains("\"metrics\": \"full\""));
        assert!(json.contains("\"routers\": []"));
        assert_eq!(m.config_hash.len(), 16);
        std::env::remove_var("NOC_GIT_REV");
    }

    #[test]
    fn free_config_hash_matches_captured_manifest() {
        // The campaign cache computes keys *before* running; the manifest
        // computes them *after*. Both must agree byte-for-byte.
        let cfg = NetworkConfig::paper();
        let spec = RunSpec::new(100, 400, 1000);
        let m = RunManifest::capture(&report(None), &cfg, spec, 9, MetricsLevel::Off)
            .with_scheme("Pseudo+PS+BB");
        assert_eq!(
            m.config_hash,
            config_hash("mesh-4x4", "uniform", Some("Pseudo+PS+BB"), &cfg, spec, 9)
        );
        let unlabeled = RunManifest::capture(&report(None), &cfg, spec, 9, MetricsLevel::Off);
        assert_eq!(
            unlabeled.config_hash,
            config_hash("mesh-4x4", "uniform", None, &cfg, spec, 9)
        );
    }

    #[test]
    fn config_hash_ignores_results_but_not_inputs() {
        let cfg = NetworkConfig::paper();
        let spec = RunSpec::new(100, 400, 1000);
        let a = RunManifest::capture(&report(None), &cfg, spec, 1, MetricsLevel::Off);
        let mut faster = report(None);
        faster.avg_latency = 10.0;
        let b = RunManifest::capture(&faster, &cfg, spec, 1, MetricsLevel::Off);
        assert_eq!(a.config_hash, b.config_hash, "results must not affect hash");
        let c = RunManifest::capture(&report(None), &cfg, spec, 2, MetricsLevel::Off);
        assert_ne!(a.config_hash, c.config_hash, "seed must affect hash");
    }

    #[test]
    fn full_manifest_dumps_routers() {
        use crate::metrics::RouterObservation;
        let mut obs = RouterObservation::zeroed(3, 2, 2);
        obs.traversals = vec![8, 2];
        obs.pc_hits = vec![4, 0];
        obs.term_conflict = vec![1, 0];
        let m = RunManifest::capture(
            &report(Some(ObservabilityReport::from_routers(vec![obs]))),
            &NetworkConfig::paper(),
            RunSpec::new(0, 10, 10),
            7,
            MetricsLevel::Full,
        );
        let json = m.to_json();
        assert!(json.contains("\"router\": 3"));
        assert!(json.contains("\"traversals\": [8,2]"));
        assert!(json.contains("\"hit_rate\": 0.4"));
        assert!(json.contains("\"terminations_conflict\": 1"));
    }

    #[test]
    fn thread_count_is_recorded_but_never_hashed() {
        let cfg = NetworkConfig::paper();
        let spec = RunSpec::new(0, 10, 10);
        let plain = RunManifest::capture(&report(None), &cfg, spec, 7, MetricsLevel::Off);
        assert!(!plain.to_json().contains("\"threads\""));
        let threaded = plain.clone().with_threads(4);
        assert_eq!(
            plain.config_hash, threaded.config_hash,
            "the thread count is execution-only"
        );
        assert!(threaded.to_json().contains("\"threads\": 4"));
    }

    #[test]
    fn coordination_stats_are_recorded_but_never_hashed() {
        let cfg = NetworkConfig::paper();
        let spec = RunSpec::new(0, 10, 10);
        let plain = RunManifest::capture(&report(None), &cfg, spec, 7, MetricsLevel::Off);
        assert!(!plain.to_json().contains("coord_epochs"));

        let mut obs = ObservabilityReport::from_routers(Vec::new());
        obs.coordination = Some(CoordinationStats {
            epochs: 40,
            skipped_epochs: 2,
            wait_ns_total: 12_345,
            lanes_merged_total: 90,
            ..CoordinationStats::default()
        });
        let full = RunManifest::capture(&report(Some(obs)), &cfg, spec, 7, MetricsLevel::Full);
        assert_eq!(
            plain.config_hash, full.config_hash,
            "coordination stats are execution-only"
        );
        let json = full.to_json();
        assert!(json.contains("\"coord_epochs\": 40"));
        assert!(json.contains("\"coord_skipped_epochs\": 2"));
        assert!(json.contains("\"coord_wait_ns_total\": 12345"));
        assert!(json.contains("\"coord_lanes_merged_total\": 90"));
    }

    #[test]
    fn manifest_write_roundtrip() {
        let dir = std::env::temp_dir().join(format!("noc_manifest_test_{}", std::process::id()));
        let path = dir.join("run.manifest.json");
        let m = RunManifest::capture(
            &report(None),
            &NetworkConfig::paper(),
            RunSpec::new(0, 10, 10),
            7,
            MetricsLevel::Off,
        );
        m.write(&path).expect("manifest write");
        let back = std::fs::read_to_string(&path).expect("manifest read");
        assert_eq!(back, m.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
