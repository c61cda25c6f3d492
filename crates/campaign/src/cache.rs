//! The content-addressed on-disk result cache.
//!
//! Every executed point leaves one JSON file (`noc-campaign-point/1`) in
//! `<campaign dir>/cache/`, named by its **cache key**:
//!
//! ```text
//! <config_hash>-<git_rev>.json
//! ```
//!
//! `config_hash` is the `noc-run-manifest/1` configuration hash — FNV-1a
//! over topology, traffic, scheme, network parameters, run phases, and seed
//! (results excluded; see `docs/CAMPAIGNS.md` for exactly what is and isn't
//! hashed). The git revision rides alongside because the hash deliberately
//! ignores engine behaviour: two revisions can disagree about the *result*
//! of the same configuration, so results are only reused within the
//! revision that produced them. The seed is already inside `config_hash`;
//! the key spells the triple `config_hash + git rev + seed` with the seed
//! folded into the hash.
//!
//! Cache writes are atomic (temp file + rename), so a campaign killed
//! mid-write never leaves a truncated entry — at worst the in-flight
//! point's work is lost and re-executed on resume. Unparseable or
//! mismatched entries are treated as misses and overwritten, never
//! trusted.

use crate::runner::PreparedPoint;
use crate::spec::{routing_name, va_name, PointSpec, SchemeChoice};
use crate::value::{parse_json, Value};
use crate::Error;
use noc_sim::manifest::escape_json;
use noc_sim::SimReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every cached point result.
pub const POINT_SCHEMA: &str = "noc-campaign-point/1";

/// One simulated point's coordinates and headline results — the unit the
/// cache stores and the merged report aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The point's coordinates (spec strings, canonical case).
    pub spec: PointSpec,
    /// The manifest-compatible configuration hash (the cache address).
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
            drained: report.drained,
        }
    }

    /// Serializes the result as a `noc-campaign-point/1` JSON document.
    /// Deterministic: the same result always produces the same bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(640);
        s.push_str("{\n");
        str_field(&mut s, "schema", POINT_SCHEMA);
        str_field(&mut s, "config_hash", &self.config_hash);
        str_field(&mut s, "git_rev", &self.git_rev);
        str_field(&mut s, "topology", &self.spec.topology);
        str_field(&mut s, "traffic", &self.spec.traffic);
        str_field(&mut s, "scheme", self.spec.scheme.canonical());
        str_field(&mut s, "routing", routing_name(self.spec.routing));
        str_field(&mut s, "va", va_name(self.spec.va));
        u64_field(&mut s, "vcs", self.spec.vcs as u64);
        u64_field(&mut s, "buffer", self.spec.buffer as u64);
        u64_field(&mut s, "packet", self.spec.packet as u64);
        f64_field(&mut s, "load", self.spec.load);
        u64_field(&mut s, "seed", self.spec.seed);
        u64_field(&mut s, "warmup", self.spec.warmup);
        u64_field(&mut s, "measure", self.spec.measure);
        u64_field(&mut s, "drain", self.spec.drain);
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
        let _ = write!(s, "  \"drained\": {}\n}}\n", self.drained);
        s
    }

    /// Parses a `noc-campaign-point/1` JSON document.
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
        if get_str(t, "schema")? != POINT_SCHEMA {
            return Err(Error(format!(
                "point result: unsupported schema (want {POINT_SCHEMA})"
            )));
        }
        let spec = PointSpec {
            topology: get_str(t, "topology")?.to_string(),
            traffic: get_str(t, "traffic")?.to_string(),
            scheme: SchemeChoice::parse(get_str(t, "scheme")?)?,
            routing: crate::spec::parse_routing(get_str(t, "routing")?)?,
            va: crate::spec::parse_va(get_str(t, "va")?)?,
            vcs: get_u64(t, "vcs")? as u8,
            buffer: get_u64(t, "buffer")? as u32,
            packet: get_u64(t, "packet")? as u16,
            load: get_f64(t, "load")?,
            seed: get_u64(t, "seed")?,
            warmup: get_u64(t, "warmup")?,
            measure: get_u64(t, "measure")?,
            drain: get_u64(t, "drain")?,
        };
        Ok(Self {
            spec,
            config_hash: get_str(t, "config_hash")?.to_string(),
            git_rev: get_str(t, "git_rev")?.to_string(),
            topology_name: get_str(t, "topology_name")?.to_string(),
            traffic_name: get_str(t, "traffic_name")?.to_string(),
            cycles: get_u64(t, "cycles")?,
            avg_latency: get_f64(t, "avg_latency")?,
            p99_latency: get_u64(t, "p99_latency")?,
            avg_hops: get_f64(t, "avg_hops")?,
            throughput: get_f64(t, "throughput")?,
            measured_injected: get_u64(t, "measured_injected")?,
            measured_delivered: get_u64(t, "measured_delivered")?,
            reusability: get_f64(t, "reusability")?,
            bypass_rate: get_f64(t, "bypass_rate")?,
            energy_pj: get_f64(t, "energy_pj")?,
            drained: t
                .get("drained")
                .and_then(Value::as_bool)
                .ok_or_else(|| Error("point result: missing bool \"drained\"".into()))?,
        })
    }
}

fn get_str<'a>(t: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a str, Error> {
    t.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| Error(format!("point result: missing string {key:?}")))
}

fn get_u64(t: &BTreeMap<String, Value>, key: &str) -> Result<u64, Error> {
    t.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| Error(format!("point result: missing integer {key:?}")))
}

fn get_f64(t: &BTreeMap<String, Value>, key: &str) -> Result<f64, Error> {
    t.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| Error(format!("point result: missing number {key:?}")))
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
        let dir = campaign_dir.join("cache");
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error(format!("cannot create cache dir {}: {e}", dir.display())))?;
        Ok(Self {
            dir,
            git_rev: git_rev.to_string(),
        })
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
        assert!(PointResult::from_json(&json.replace("\"load\"", "\"lode\"")).is_err());
        assert!(PointResult::from_json("{").is_err());
        assert!(PointResult::from_json("[1,2]").is_err());
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
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
