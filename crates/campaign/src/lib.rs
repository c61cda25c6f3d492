//! Cached, resumable latency–throughput campaign sweeps.
//!
//! A *campaign* is a declarative sweep over the simulator's configuration
//! axes — topology, traffic, scheme, routing, VC allocation, VC count,
//! buffer depth, packet length, offered load, seed — written as a small
//! TOML or JSON file ([`spec`]), expanded deterministically into a point
//! set, executed one simulation per worker core on the shared
//! [`noc_base::pool`], and merged into a single plotting-ready report
//! ([`report`]).
//!
//! The engine is built around a content-addressed result cache ([`cache`]):
//! every executed point is stored under its `noc-run-manifest/1`
//! configuration hash plus the git revision, so re-running a campaign
//! executes only points whose configuration (or engine revision) changed —
//! an unchanged spec re-run executes **zero** simulations and re-emits a
//! byte-identical report. Point writes are atomic, which is what makes a
//! campaign killable: on resume, finished points are cache hits and only
//! interrupted work re-runs. `docs/CAMPAIGNS.md` is the user-facing
//! contract; `tests/campaign_cache.rs` pins it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub mod cache;
pub mod report;
pub mod runner;
pub mod spec;
pub mod value;

pub use cache::{write_atomic, PointResult, ResultCache, POINT_SCHEMA};
pub use report::{CampaignReport, Crossover, Curve, REPORT_SCHEMA, SATURATION_FACTOR};
pub use runner::{
    build_simulation, build_topology, build_traffic, prepare, run_point, validate, PreparedPoint,
    TOPOLOGY_FORMS,
};
pub use spec::{
    parse_routing, parse_va, routing_name, va_name, Axes, CampaignSpec, PointSpec, SchemeChoice,
    SCHEME_NAMES,
};

/// The crate's error type: a human-readable message, already contextualised
/// (`spec: ...`, `point result: ...`) by whichever layer produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Error(/** The message. */ pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Schema identifier stamped into the campaign checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "noc-campaign-checkpoint/1";

/// The progress checkpoint (`<campaign dir>/checkpoint.json`), rewritten
/// atomically after every finished point.
///
/// The checkpoint is a **ledger, not a lock**: resume correctness comes from
/// the result cache (finished points are hits; the in-flight point's entry
/// was either renamed into place or never appeared), so a stale or deleted
/// checkpoint can never corrupt a campaign. It exists so `noc campaign
/// status` can report progress without re-preparing the spec, and so a
/// resume can tell it is continuing the same point set ([`spec_hash`]).
///
/// [`spec_hash`]: CampaignSpec::spec_hash
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Identity of the expanded point set ([`CampaignSpec::spec_hash`]).
    pub spec_hash: String,
    /// Campaign name.
    pub name: String,
    /// Git revision the run executes under.
    pub git_rev: String,
    /// Total points in the expansion.
    pub total: u64,
    /// Points finished so far (cache hits plus completed executions).
    pub done: u64,
}

impl Checkpoint {
    /// The checkpoint file inside a campaign directory.
    pub fn path(campaign_dir: &Path) -> PathBuf {
        campaign_dir.join("checkpoint.json")
    }

    /// Serializes the checkpoint (deterministic single-line-per-field JSON).
    pub fn to_json(&self) -> String {
        use noc_sim::manifest::escape_json;
        format!(
            "{{\n  \"schema\": \"{CHECKPOINT_SCHEMA}\",\n  \"spec_hash\": \"{}\",\n  \
             \"name\": \"{}\",\n  \"git_rev\": \"{}\",\n  \"total\": {},\n  \"done\": {}\n}}\n",
            escape_json(&self.spec_hash),
            escape_json(&self.name),
            escape_json(&self.git_rev),
            self.total,
            self.done
        )
    }

    /// Parses a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for malformed JSON, a wrong schema, or missing
    /// fields.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let value = value::parse_json(text).map_err(|e| Error(format!("checkpoint: {e}")))?;
        let t = value
            .as_table()
            .ok_or_else(|| Error("checkpoint: not a JSON object".into()))?;
        let get = |key: &str| {
            t.get(key)
                .and_then(value::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| Error(format!("checkpoint: missing string {key:?}")))
        };
        let get_n = |key: &str| {
            t.get(key)
                .and_then(value::Value::as_u64)
                .ok_or_else(|| Error(format!("checkpoint: missing integer {key:?}")))
        };
        if get("schema")? != CHECKPOINT_SCHEMA {
            return Err(Error(format!(
                "checkpoint: unsupported schema (want {CHECKPOINT_SCHEMA})"
            )));
        }
        Ok(Self {
            spec_hash: get("spec_hash")?,
            name: get("name")?,
            git_rev: get("git_rev")?,
            total: get_n("total")?,
            done: get_n("done")?,
        })
    }

    /// Reads the checkpoint from a campaign directory; `None` when the
    /// directory has none.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the file when it exists but is unreadable
    /// or not a checkpoint document — which is not "no campaign here".
    pub fn load(campaign_dir: &Path) -> Result<Option<Self>, Error> {
        let path = Self::path(campaign_dir);
        let unreadable = |why: String| Error(format!("{} is unreadable: {why}", path.display()));
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::from_json(&text)
                .map(Some)
                .map_err(|e| unreadable(e.0)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(unreadable(e.to_string())),
        }
    }

    fn store(&self, campaign_dir: &Path) -> Result<(), Error> {
        write_atomic(&Self::path(campaign_dir), self.to_json().as_bytes())
    }
}

/// Knobs for one [`run_campaign`] invocation.
#[derive(Clone, Default, Debug)]
pub struct CampaignOptions {
    /// Worker-thread budget for across-point parallelism; `0` means the host
    /// budget ([`noc_base::pool::host_threads`]). Each point's
    /// simulation always runs single-threaded, so this never affects results
    /// — only wall-clock.
    pub threads: usize,
    /// Execute at most this many *uncached* points, then stop with
    /// `completed == false`. The deterministic stand-in for an interrupt
    /// (`^C` mid-campaign behaves the same way, minus the clean exit);
    /// resuming is just running the campaign again.
    pub max_points: Option<usize>,
    /// Overrides the git revision used for cache keys. Defaults to
    /// [`noc_sim::git_rev`] (which honours `NOC_GIT_REV`); tests inject a
    /// fixed value here instead of mutating the environment.
    pub git_rev: Option<String>,
}

/// What one [`run_campaign`] invocation did.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Points in the expansion.
    pub total: usize,
    /// Points satisfied from the result cache.
    pub cache_hits: usize,
    /// Points actually simulated by this invocation.
    pub executed: usize,
    /// Whether every point is now done and the report was written. `false`
    /// only when `max_points` stopped the run early.
    pub completed: bool,
    /// Where the merged report was written (when `completed`).
    pub report_path: Option<PathBuf>,
    /// The merged report (when `completed`).
    pub report: Option<CampaignReport>,
}

/// Runs (or resumes) a campaign into `campaign_dir`.
///
/// The full pipeline: expand the spec, resolve and hash every point
/// ([`prepare`]), satisfy what the cache can, schedule the rest on the
/// global worker pool (one single-threaded simulation per worker), store
/// each finished point atomically, and — once every point is done — merge
/// everything into `<campaign_dir>/report.json`. Re-invoking with the same
/// spec and revision is idempotent: zero executions, byte-identical report.
///
/// # Errors
///
/// Returns an [`Error`] when a point's specs don't resolve, when two points
/// collapse onto one configuration hash (e.g. a `packet` axis swept under
/// benchmark traffic, which ignores packet length — the cache could not
/// tell such points apart), when `options.threads` is 0 and `NOC_THREADS`
/// is not a positive integer, or on I/O failure in the cache, checkpoint, or
/// report.
pub fn run_campaign(
    spec: &CampaignSpec,
    campaign_dir: &Path,
    options: &CampaignOptions,
) -> Result<CampaignOutcome, Error> {
    let threads = match options.threads {
        0 => noc_base::pool::host_threads().map_err(Error)?,
        n => n,
    };
    let git_rev = options.git_rev.clone().unwrap_or_else(noc_sim::git_rev);
    let points = spec.expand();
    let prepared: Vec<PreparedPoint> = points.iter().map(prepare).collect::<Result<_, _>>()?;
    for (i, p) in prepared.iter().enumerate() {
        if let Some(first) = prepared[..i]
            .iter()
            .find(|q| q.config_hash == p.config_hash)
        {
            return Err(Error(format!(
                "points {} and {} share config hash {} — an axis the configuration \
                 ignores is being swept (e.g. packet or load under benchmark traffic); \
                 drop that axis",
                first.spec, p.spec, p.config_hash
            )));
        }
    }

    std::fs::create_dir_all(campaign_dir).map_err(|e| {
        Error(format!(
            "cannot create campaign dir {}: {e}",
            campaign_dir.display()
        ))
    })?;
    let cache = ResultCache::open(campaign_dir, &git_rev)?;

    // Cache pass. A hit must describe the exact same point, not merely the
    // same hash: the spec comparison makes a (vanishingly unlikely) hash
    // collision between different campaigns sharing a directory a miss
    // instead of a wrong answer.
    let mut results: Vec<Option<PointResult>> = prepared
        .iter()
        .map(|p| cache.lookup(&p.config_hash).filter(|r| r.spec == p.spec))
        .collect();
    let cache_hits = results.iter().filter(|r| r.is_some()).count();

    let mut pending: Vec<usize> = (0..prepared.len())
        .filter(|&i| results[i].is_none())
        .collect();
    let misses = pending.len();
    if let Some(limit) = options.max_points {
        pending.truncate(limit);
    }

    let checkpoint = Mutex::new(Checkpoint {
        spec_hash: spec.spec_hash(),
        name: spec.name.clone(),
        git_rev: git_rev.clone(),
        total: prepared.len() as u64,
        done: cache_hits as u64,
    });
    checkpoint.lock().unwrap().store(campaign_dir)?;

    // Execute the misses, one single-threaded simulation per worker slot.
    // Each finished point lands in the cache (atomically) and bumps the
    // checkpoint before the next one starts on that worker, so an interrupt
    // loses at most the in-flight points.
    let slots: Vec<Mutex<Option<PointResult>>> = pending.iter().map(|_| Mutex::new(None)).collect();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let job = |i: usize| {
        let point = &prepared[pending[i]];
        let step = run_point(point).and_then(|report| {
            let result = PointResult::from_report(point, &git_rev, &report);
            cache.store(&result)?;
            let mut cp = checkpoint.lock().unwrap();
            cp.done += 1;
            cp.store(campaign_dir)?;
            *slots[i].lock().unwrap() = Some(result);
            Ok(())
        });
        if let Err(e) = step {
            failures
                .lock()
                .unwrap()
                .push(format!("{}: {e}", point.spec));
        }
    };
    noc_base::pool::global().run_limited(pending.len(), threads, &job);

    let failures = failures.into_inner().unwrap();
    if !failures.is_empty() {
        return Err(Error(format!(
            "{} point(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        )));
    }
    let executed = pending.len();
    for (slot, &index) in slots.iter().zip(&pending) {
        results[index] = slot.lock().unwrap().take();
    }

    let completed = executed == misses;
    if !completed {
        return Ok(CampaignOutcome {
            total: prepared.len(),
            cache_hits,
            executed,
            completed,
            report_path: None,
            report: None,
        });
    }

    let merged: Vec<PointResult> = results.into_iter().map(Option::unwrap).collect();
    let report = CampaignReport::merge(&spec.name, &git_rev, &merged);
    let report_path = campaign_dir.join("report.json");
    write_atomic(&report_path, report.to_json().as_bytes())?;
    Ok(CampaignOutcome {
        total: prepared.len(),
        cache_hits,
        executed,
        completed,
        report_path: Some(report_path),
        report: Some(report),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_roundtrips() {
        let cp = Checkpoint {
            spec_hash: "feedc0de00000000".into(),
            name: "fig12".into(),
            git_rev: "abc123".into(),
            total: 12,
            done: 5,
        };
        assert_eq!(Checkpoint::from_json(&cp.to_json()).unwrap(), cp);
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json(&cp.to_json().replace("checkpoint/1", "x/9")).is_err());
    }

    #[test]
    fn error_displays_its_message() {
        let err = Error("boom".into());
        assert_eq!(err.to_string(), "boom");
        let as_std: &dyn std::error::Error = &err;
        assert_eq!(as_std.to_string(), "boom");
    }
}
