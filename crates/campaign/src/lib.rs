//! Cached, resumable latency–throughput campaign sweeps.
//!
//! A *campaign* is a declarative sweep over the simulator's configuration
//! axes — topology, traffic, scheme, routing, VC allocation, VC count,
//! buffer depth, packet length, offered load, seed — written as a small
//! TOML file ([`spec`]), expanded deterministically into a point
//! set, executed one simulation per thread of one batch
//! ([`noc_base::pool`]), and merged into a single plotting-ready report
//! ([`report`]).
//!
//! The engine is built around a content-addressed result cache ([`cache`]):
//! every executed point is stored as its run record — the document `noc run
//! --manifest` writes — under its configuration hash plus the git revision,
//! so re-running a campaign executes only points whose configuration (or
//! engine revision) changed — an unchanged spec re-run executes **zero**
//! simulations and re-emits a byte-identical report. The cache is the
//! campaign's only state, and point writes are atomic, which is what makes a
//! campaign killable: on resume, finished points are cache hits and only
//! interrupted work re-runs. `docs/CAMPAIGNS.md` is the user-facing
//! contract; `tests/campaign_cache.rs` pins it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

pub mod cache;
pub mod report;
pub mod runner;
pub mod spec;
pub mod value;

pub use cache::{write_atomic, PointResult, ResultCache};
pub use report::{CampaignReport, Curve, Interval, SeedGroup};
pub use runner::{
    build_simulation, build_topology, build_traffic, prepare, run_point, validate, PreparedPoint,
    SYNTHETIC_PATTERNS, TOPOLOGY_FORMS,
};
pub use spec::{Axes, CampaignSpec, PointSpec};

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
    /// Whether every point is now done and `<campaign_dir>/report.json` was
    /// written. `false` only when `max_points` stopped the run early.
    pub completed: bool,
    /// The merged report (when `completed`).
    pub report: Option<CampaignReport>,
}

/// The cache pass of a campaign: expands the spec, resolves and hashes every
/// point ([`prepare`]), and looks each up in `<campaign_dir>/cache/` under
/// `git_rev`. Returns the prepared points and, index for index, their cached
/// results (`None`: a miss). It only reads: a missing directory is all misses.
///
/// A hit must describe the exact same point, not merely the same hash, so a
/// (vanishingly unlikely) hash collision between campaigns sharing a
/// directory is a miss instead of a wrong answer.
///
/// # Errors
///
/// Returns an [`Error`] when a point's specs don't resolve, or when two
/// points collapse onto one configuration hash — the cache could not tell
/// them apart: an axis the configuration ignores is swept (e.g. `packet`
/// under benchmark traffic, which ignores packet length), or an axis names
/// one configuration twice (`cmesh4x4` is `mesh4x4c4`).
pub fn cache_pass(
    spec: &CampaignSpec,
    campaign_dir: &Path,
    git_rev: &str,
) -> Result<(Vec<PreparedPoint>, Vec<Option<PointResult>>), Error> {
    let points = spec.expand();
    let prepared = points.iter().map(prepare).collect::<Result<Vec<_>, _>>()?;
    let mut seen = HashMap::with_capacity(prepared.len());
    for p in &prepared {
        if let Some(first) = seen.insert(&p.config_hash, p) {
            return Err(Error(format!(
                "points {} and {} share config hash {} — an axis the configuration \
                 ignores is being swept (e.g. packet or load under benchmark traffic), \
                 or two spellings name one configuration (e.g. cmesh4x4 and mesh4x4c4); \
                 drop one of them",
                first.spec, p.spec, p.config_hash
            )));
        }
    }
    let cache = ResultCache::at(campaign_dir, git_rev);
    let results = prepared
        .iter()
        .map(|p| cache.lookup(&p.config_hash).filter(|r| r.spec == p.spec))
        .collect();
    Ok((prepared, results))
}

/// Runs (or resumes) a campaign into `campaign_dir`.
///
/// The full pipeline: the [`cache_pass`], then the misses run as one batch
/// ([`noc_base::pool`]: one single-threaded simulation per thread), each
/// finished point stored atomically, and — once every point is done —
/// everything merged into `<campaign_dir>/report.json`. The cache is the
/// campaign's only state: re-invoking with the same spec and revision is
/// idempotent (zero executions, byte-identical report), and an interrupted
/// run resumes by running again.
///
/// # Errors
///
/// As [`cache_pass`]; also when a point fails, or on I/O failure in the
/// cache or report.
pub fn run_campaign(
    spec: &CampaignSpec,
    campaign_dir: &Path,
    options: &CampaignOptions,
) -> Result<CampaignOutcome, Error> {
    let threads = match options.threads {
        0 => noc_base::pool::host_threads(),
        n => n,
    };
    let git_rev = options.git_rev.clone().unwrap_or_else(noc_sim::git_rev);
    let (prepared, mut results) = cache_pass(spec, campaign_dir, &git_rev)?;
    let cache = ResultCache::open(campaign_dir, &git_rev)?;
    let cache_hits = results.iter().filter(|r| r.is_some()).count();

    let mut pending: Vec<usize> = (0..prepared.len())
        .filter(|&i| results[i].is_none())
        .collect();
    let misses = pending.len();
    if let Some(limit) = options.max_points {
        pending.truncate(limit);
    }

    // Execute the misses, one single-threaded simulation per thread of the
    // batch. Each finished point lands in the cache (atomically) before the
    // next one starts on that thread, so an interrupt loses at most the
    // in-flight points.
    let slots: Vec<Mutex<Option<PointResult>>> = pending.iter().map(|_| Mutex::new(None)).collect();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let job = |i: usize| {
        let point = &prepared[pending[i]];
        let step = run_point(point).and_then(|report| {
            let result = PointResult::from_report(point, &git_rev, &report);
            cache.store(&result)?;
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
    noc_base::pool::WorkerPool.run_limited(pending.len(), threads, &job);

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
    let report = if completed {
        let merged: Vec<PointResult> = results.into_iter().map(Option::unwrap).collect();
        let report = CampaignReport::merge(&spec.name, &git_rev, &merged);
        let path = campaign_dir.join("report.json");
        write_atomic(&path, report.to_json().as_bytes())?;
        Some(report)
    } else {
        None
    };
    Ok(CampaignOutcome {
        total: prepared.len(),
        cache_hits,
        executed,
        completed,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays_its_message() {
        let err = Error("boom".into());
        assert_eq!(err.to_string(), "boom");
        let as_std: &dyn std::error::Error = &err;
        assert_eq!(as_std.to_string(), "boom");
    }
}
