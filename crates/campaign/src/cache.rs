//! The run record and the content-addressed on-disk result cache.
//!
//! [`PointResult`] is the one record of a finished run (`noc-point/3`): the
//! point's coordinates, its configuration hash, the git revision and the
//! headline results. `noc run --manifest` writes it with the fields only a
//! single run has ([`PointResult::run_json`]); the cache stores it as every
//! executed point's file in `<campaign dir>/cache/` ([`PointResult::to_json`],
//! the same bytes as a serial `--metrics off` manifest), named by its
//! **cache key**:
//!
//! ```text
//! <config_hash>-<git_rev>.json
//! ```
//!
//! `config_hash` is FNV-1a over everything that decides the point's result
//! — topology, traffic, scheme, network parameters, run phases, seed and,
//! for synthetic traffic, load and packet length (results excluded; see
//! `docs/CAMPAIGNS.md` for exactly what is and isn't hashed). The git
//! revision rides alongside because the hash deliberately ignores engine
//! behaviour: two revisions can disagree about the *result* of the same
//! configuration, so results are only reused within the revision that
//! produced them.
//!
//! Cache writes are atomic (temp file + rename), so a campaign killed
//! mid-write never leaves a truncated entry — at worst the in-flight
//! point's work is lost and re-executed on resume. Unparseable or
//! mismatched entries are treated as misses and overwritten, never
//! trusted.

use crate::runner::PreparedPoint;
use crate::spec::PointSpec;
use crate::value::{parse_json, Value};
use crate::Error;
use noc_sim::manifest::escape_json;
use noc_sim::{MetricsLevel, ObservabilityReport, RouterObservation, SimReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every run record.
pub(crate) const POINT_SCHEMA: &str = "noc-point/3";

/// One simulated point's coordinates and headline results — the record of a
/// run: what `noc run --manifest` writes, the cache stores and the merged
/// report aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The point's coordinates (spec strings, canonical case).
    pub spec: PointSpec,
    /// The configuration hash (the cache address).
    pub config_hash: String,
    /// Git revision that produced this result.
    pub git_rev: String,
    /// Resolved topology display name.
    pub topology_name: String,
    /// Resolved traffic display name.
    pub traffic_name: String,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Mean measured packet latency in cycles.
    pub avg_latency: f64,
    /// Upper bound on the p99 measured latency.
    pub p99_latency: u64,
    /// Mean measured hop count.
    pub avg_hops: f64,
    /// Delivered measured flits per node per cycle.
    pub throughput: f64,
    /// Packets injected in the measurement window.
    pub measured_injected: u64,
    /// Measured packets delivered.
    pub measured_delivered: u64,
    /// Pseudo-circuit reusability (fraction of flits reusing a circuit).
    pub reusability: f64,
    /// Buffer-bypass rate.
    pub bypass_rate: f64,
    /// Total router energy in picojoules.
    pub energy_pj: f64,
    /// Crossbar traversals over the whole run (per-flit energy divides by it).
    pub flit_traversals: u64,
    /// Fraction of header traversals that reused a pseudo-circuit.
    pub header_hit_rate: f64,
    /// Crossbar-connection locality: the fraction of flit traversals that
    /// took the same output port as the previous traversal from the same
    /// input port (Fig. 1).
    pub xbar_locality: f64,
    /// End-to-end locality: the fraction of packets sent to the same
    /// destination as their source's previous packet (Fig. 1).
    pub end_to_end_locality: f64,
    /// Whether every measured packet drained.
    pub drained: bool,
}

impl PointResult {
    /// Extracts a result from a finished run.
    pub fn from_report(prepared: &PreparedPoint, git_rev: &str, report: &SimReport) -> Self {
        Self {
            spec: prepared.spec.clone(),
            config_hash: prepared.config_hash.clone(),
            git_rev: git_rev.to_string(),
            topology_name: report.topology.clone(),
            traffic_name: report.traffic.clone(),
            cycles: report.cycles,
            avg_latency: report.avg_latency,
            p99_latency: report.p99_latency_bound,
            avg_hops: report.avg_hops,
            throughput: report.throughput,
            measured_injected: report.measured_injected,
            measured_delivered: report.measured_delivered,
            reusability: report.reusability(),
            bypass_rate: report.bypass_rate(),
            energy_pj: report.energy_pj(),
            flit_traversals: report.router_stats.flit_traversals,
            header_hit_rate: report.router_stats.header_hit_rate(),
            xbar_locality: report.xbar_locality(),
            end_to_end_locality: report.end_to_end_locality,
            drained: report.drained,
        }
    }

    /// Serializes the result as the cache entry: the record of a serial run
    /// at `--metrics off`, which is how [`crate::run_point`] runs every
    /// campaign point. Deterministic: the same result always produces the
    /// same bytes.
    pub fn to_json(&self) -> String {
        self.run_json(None)
    }

    /// Serializes the record of a run, with the `--metrics full` per-router
    /// counter dump of `observability` when given. The dump does not enter
    /// the configuration hash — it describes how the point was observed,
    /// not which point. Without `observability` this is [`Self::to_json`],
    /// byte for byte.
    pub fn run_json(&self, observability: Option<&ObservabilityReport>) -> String {
        let metrics = match observability {
            Some(_) => MetricsLevel::Full,
            None => MetricsLevel::Off,
        };
        let mut s = String::with_capacity(720 + observability.map_or(0, |o| o.routers.len() * 256));
        s.push_str("{\n");
        str_field(&mut s, "schema", POINT_SCHEMA);
        str_field(&mut s, "config_hash", &self.config_hash);
        str_field(&mut s, "git_rev", &self.git_rev);
        for (key, value) in self.spec.coordinates() {
            match value {
                Value::Str(v) => str_field(&mut s, key, &v),
                Value::Float(v) => f64_field(&mut s, key, v),
                v => {
                    let _ = writeln!(s, "  \"{key}\": {v},");
                }
            }
        }
        str_field(&mut s, "metrics", metrics.name());
        str_field(&mut s, "topology_name", &self.topology_name);
        str_field(&mut s, "traffic_name", &self.traffic_name);
        u64_field(&mut s, "cycles", self.cycles);
        f64_field(&mut s, "avg_latency", self.avg_latency);
        u64_field(&mut s, "p99_latency", self.p99_latency);
        f64_field(&mut s, "avg_hops", self.avg_hops);
        f64_field(&mut s, "throughput", self.throughput);
        u64_field(&mut s, "measured_injected", self.measured_injected);
        u64_field(&mut s, "measured_delivered", self.measured_delivered);
        f64_field(&mut s, "reusability", self.reusability);
        f64_field(&mut s, "bypass_rate", self.bypass_rate);
        f64_field(&mut s, "energy_pj", self.energy_pj);
        u64_field(&mut s, "flit_traversals", self.flit_traversals);
        f64_field(&mut s, "header_hit_rate", self.header_hit_rate);
        f64_field(&mut s, "xbar_locality", self.xbar_locality);
        f64_field(&mut s, "end_to_end_locality", self.end_to_end_locality);
        let _ = write!(s, "  \"drained\": {}", self.drained);
        if let Some(o) = observability {
            s.push_str(",\n  \"routers\": [");
            for (i, r) in o.routers.iter().enumerate() {
                s.push_str(if i == 0 { "\n" } else { ",\n" });
                write_router_json(&mut s, r);
            }
            s.push_str(if o.routers.is_empty() { "]" } else { "\n  ]" });
        }
        s.push_str("\n}\n");
        s
    }

    /// Parses a `noc-point/3` JSON document — a cache entry or a `noc run`
    /// manifest; the fields only a single run has are not part of the
    /// record and are skipped.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for malformed JSON, a wrong schema, or missing
    /// or mistyped fields.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let value = parse_json(text).map_err(|e| Error(format!("point result: {e}")))?;
        let t = value
            .as_table()
            .ok_or_else(|| Error("point result: not a JSON object".into()))?;
        if get(t, "schema", Value::as_str)? != POINT_SCHEMA {
            return Err(Error(format!(
                "point result: unsupported schema (want {POINT_SCHEMA})"
            )));
        }
        let spec = PointSpec::from_record(t)?;
        Ok(Self {
            spec,
            config_hash: get(t, "config_hash", Value::as_str)?.to_string(),
            git_rev: get(t, "git_rev", Value::as_str)?.to_string(),
            topology_name: get(t, "topology_name", Value::as_str)?.to_string(),
            traffic_name: get(t, "traffic_name", Value::as_str)?.to_string(),
            cycles: get(t, "cycles", Value::as_u64)?,
            avg_latency: get(t, "avg_latency", Value::as_f64)?,
            p99_latency: get(t, "p99_latency", Value::as_u64)?,
            avg_hops: get(t, "avg_hops", Value::as_f64)?,
            throughput: get(t, "throughput", Value::as_f64)?,
            measured_injected: get(t, "measured_injected", Value::as_u64)?,
            measured_delivered: get(t, "measured_delivered", Value::as_u64)?,
            reusability: get(t, "reusability", Value::as_f64)?,
            bypass_rate: get(t, "bypass_rate", Value::as_f64)?,
            energy_pj: get(t, "energy_pj", Value::as_f64)?,
            flit_traversals: get(t, "flit_traversals", Value::as_u64)?,
            header_hit_rate: get(t, "header_hit_rate", Value::as_f64)?,
            xbar_locality: get(t, "xbar_locality", Value::as_f64)?,
            end_to_end_locality: get(t, "end_to_end_locality", Value::as_f64)?,
            drained: get(t, "drained", Value::as_bool)?,
        })
    }
}

/// The field `key` as `as_t` reads it.
fn get<'a, T>(
    t: &'a BTreeMap<String, Value>,
    key: &str,
    as_t: fn(&'a Value) -> Option<T>,
) -> Result<T, Error> {
    t.get(key)
        .and_then(as_t)
        .ok_or_else(|| Error(format!("point result: missing {key:?}")))
}

fn str_field(s: &mut String, key: &str, value: &str) {
    let _ = writeln!(s, "  \"{key}\": \"{}\",", escape_json(value));
}

fn u64_field(s: &mut String, key: &str, value: u64) {
    let _ = writeln!(s, "  \"{key}\": {value},");
}

fn f64_field(s: &mut String, key: &str, value: f64) {
    if value.is_finite() {
        let _ = writeln!(s, "  \"{key}\": {value:?},");
    } else {
        let _ = writeln!(s, "  \"{key}\": null,");
    }
}

/// One line of the per-router dump: the router's per-port counters and its
/// pseudo-circuit summary.
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
        ", \"hit_rate\": {:?}, \"terminations_conflict\": {tc}, \"terminations_credit\": {tx}}}",
        r.hit_rate()
    );
}

/// The on-disk cache: a directory of point-result files keyed by
/// `config_hash + git rev`.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
    git_rev: String,
}

impl ResultCache {
    /// Opens (and creates) the cache directory under a campaign directory.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the directory cannot be created.
    pub fn open(campaign_dir: &Path, git_rev: &str) -> Result<Self, Error> {
        let cache = Self::at(campaign_dir, git_rev);
        let dir = &cache.dir;
        std::fs::create_dir_all(dir)
            .map_err(|e| Error(format!("cannot create cache dir {}: {e}", dir.display())))?;
        Ok(cache)
    }

    /// The cache under a campaign directory, for lookups only: nothing is
    /// created, and a directory that does not exist is all misses.
    pub(crate) fn at(campaign_dir: &Path, git_rev: &str) -> Self {
        Self {
            dir: campaign_dir.join("cache"),
            git_rev: git_rev.to_string(),
        }
    }

    /// The file a given configuration hash is stored under.
    pub fn entry_path(&self, config_hash: &str) -> PathBuf {
        self.dir
            .join(format!("{config_hash}-{}.json", self.git_rev))
    }

    /// Looks a point up. Returns `None` (a miss) when the entry is absent,
    /// unparseable, or records a different configuration hash than its file
    /// name claims — a corrupt entry must never satisfy a lookup.
    pub fn lookup(&self, config_hash: &str) -> Option<PointResult> {
        let text = std::fs::read_to_string(self.entry_path(config_hash)).ok()?;
        let result = PointResult::from_json(&text).ok()?;
        (result.config_hash == config_hash && result.git_rev == self.git_rev).then_some(result)
    }

    /// Stores a point result atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the entry cannot be written.
    pub fn store(&self, result: &PointResult) -> Result<(), Error> {
        let path = self.entry_path(&result.config_hash);
        write_atomic(&path, result.to_json().as_bytes())
    }
}

/// Writes `bytes` to `path` via a sibling temp file and an atomic rename.
///
/// # Errors
///
/// Returns an [`Error`] naming the path on any I/O failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .map_err(|e| Error(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| Error(format!("cannot rename {} into place: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeChoice;
    use noc_base::{RoutingPolicy, VaPolicy};

    fn sample() -> PointResult {
        PointResult {
            spec: PointSpec {
                topology: "mesh2x2".into(),
                traffic: "ur".into(),
                scheme: SchemeChoice::parse("pseudo+ps+bb").unwrap(),
                routing: RoutingPolicy::Xy,
                va: VaPolicy::Static,
                vcs: 4,
                buffer: 4,
                packet: 2,
                load: 0.05,
                seed: 1,
                warmup: 50,
                measure: 200,
                drain: 2000,
            },
            config_hash: "00ddba11c0ffee00".into(),
            git_rev: "abc123".into(),
            topology_name: "mesh-2x2".into(),
            traffic_name: "uniform@0.05".into(),
            cycles: 2250,
            avg_latency: 11.25,
            p99_latency: 32,
            avg_hops: 1.5,
            throughput: 0.0493,
            measured_injected: 40,
            measured_delivered: 40,
            reusability: 1.0 / 3.0,
            bypass_rate: 0.125,
            energy_pj: 1234.5,
            flit_traversals: 96,
            header_hit_rate: 0.25,
            xbar_locality: 0.375,
            end_to_end_locality: 0.1875,
            drained: true,
        }
    }

    #[test]
    fn point_result_json_roundtrips_exactly() {
        let mut widest = sample();
        widest.spec.seed = u64::MAX;
        widest.cycles = u64::MAX;
        for result in [sample(), widest] {
            let json = result.to_json();
            let back = PointResult::from_json(&json).unwrap();
            assert_eq!(back, result);
            // Bytes are reproducible from the parsed form — the merged-report
            // byte-identity guarantee.
            assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn from_json_rejects_damage() {
        let json = sample().to_json();
        assert!(PointResult::from_json(&json.replace(POINT_SCHEMA, "bogus/9")).is_err());
        assert!(PointResult::from_json("{").is_err());
        assert!(PointResult::from_json("[1,2]").is_err());
        // A record that lacks a coordinate names no point.
        for (key, _) in sample().spec.coordinates() {
            let lacking = json.replace(&format!("\"{key}\""), "\"other\"");
            let err = PointResult::from_json(&lacking).unwrap_err();
            assert_eq!(err.0, format!("point result: missing {key:?}"));
        }
        // Out-of-range integers are refused by the key's rule, not wrapped
        // into another point.
        let err = PointResult::from_json(&json.replace("\"vcs\": 4", "\"vcs\": 260")).unwrap_err();
        assert_eq!(
            err.0,
            "point result: vcs: values must be integers in [1, 255], got 260"
        );
    }

    #[test]
    fn run_record_adds_only_the_router_dump() {
        let result = sample();
        assert_eq!(result.run_json(None), result.to_json());
        // A record written while it still carried the engine's thread count
        // parses to the same result.
        let legacy = result.to_json().replace(
            "\"metrics\": \"off\",\n",
            "\"metrics\": \"off\",\n  \"threads\": 4,\n",
        );
        assert_ne!(legacy, result.to_json());
        assert_eq!(PointResult::from_json(&legacy).unwrap(), result);

        let mut router = RouterObservation::zeroed(3, 2, 2);
        router.traversals = vec![8, 2];
        router.pc_hits = vec![4, 0];
        router.term_conflict = vec![1, 0];
        let full = ObservabilityReport::from_routers(vec![router]);
        let json = result.run_json(Some(&full));
        for needle in [
            "\"metrics\": \"full\",\n  \"topology_name\"",
            "\"drained\": true,\n  \"routers\": [\n    {\"router\": 3",
            "\"traversals\": [8,2]",
            "\"hit_rate\": 0.4",
            "\"terminations_conflict\": 1",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        assert_eq!(PointResult::from_json(&json).unwrap(), result);
        let empty = ObservabilityReport::from_routers(Vec::new());
        let json = result.run_json(Some(&empty));
        assert!(json.ends_with("\"routers\": []\n}\n"), "{json}");
        assert_eq!(PointResult::from_json(&json).unwrap(), result);
    }

    #[test]
    fn cache_stores_and_misses_safely() {
        let dir = std::env::temp_dir().join(format!("noc-campaign-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir, "abc123").unwrap();
        let result = sample();
        assert!(cache.lookup(&result.config_hash).is_none());
        cache.store(&result).unwrap();
        assert_eq!(cache.lookup(&result.config_hash), Some(result.clone()));
        // A different git rev is a different cache: no hit.
        let other = ResultCache::open(&dir, "def456").unwrap();
        assert!(other.lookup(&result.config_hash).is_none());
        // Corruption is a miss, not an error.
        std::fs::write(cache.entry_path(&result.config_hash), b"{ nope").unwrap();
        assert!(cache.lookup(&result.config_hash).is_none());
        // So is nesting deep enough to overflow a recursive reader's stack.
        std::fs::write(cache.entry_path(&result.config_hash), "[".repeat(100_000)).unwrap();
        assert!(cache.lookup(&result.config_hash).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
