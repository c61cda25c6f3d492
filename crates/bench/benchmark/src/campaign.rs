//! The `campaign_sweep` workload: what sweep users run — many short
//! simulations through `noc_campaign::run_campaign`, cold and then warm.

use crate::report::{seconds_list, Outcome};
use crate::simrun::{layer_drivers, min_reps, peak_rss_mb, report_counts};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workloads::{SimCase, Traffic};
use crate::RunOpts;
use noc_base::{RoutingPolicy, VaPolicy};
use noc_campaign::{
    prepare, run_campaign, run_point, CampaignOptions, CampaignReport, CampaignSpec, PointResult,
    PreparedPoint, ResultCache,
};
use noc_sim::{RunSpec, SimReport};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The revision the sweep's cache keys are stamped with: a fixed string, so
/// results do not depend on the checkout being a git work tree.
const REV: &str = "benchmark";
const MEASURED: &str = "pseudo+ps+bb";
const LOADS: &str = "0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.30";

/// Timed set-ups after each cold sweep, for `setup_s`.
const EXTRA_SETUPS: usize = 12;

/// Warmup / measure / drain of every sweep point.
fn phases(smoke: bool) -> RunSpec {
    if smoke {
        RunSpec::new(10, 50, 2_000)
    } else {
        RunSpec::new(300, 1_000, 20_000)
    }
}

/// The sweep spec, as the TOML text a user would write: 4 schemes × 7 loads
/// × 2 seeds = 56 points on an 8×8 mesh.
pub fn spec_text(seed: u64, smoke: bool) -> String {
    let p = phases(smoke);
    format!(
        "name = \"benchmark-sweep\"\n\n[phases]\nwarmup = {}\nmeasure = {}\ndrain = {}\n\n\
         [axes]\ntopology = \"mesh8x8\"\ntraffic = \"ur\"\n\
         scheme = [\"baseline\", \"{MEASURED}\", \"evc\", \"hybrid\"]\n\
         routing = \"xy\"\nva = \"static\"\npacket = 5\nload = [{LOADS}]\nseed = [{}, {}]\n",
        p.warmup,
        p.measure,
        p.drain,
        seed,
        seed + 1
    )
}

/// One sweep point as a [`SimCase`], so the layer drivers can be fed inputs
/// shaped like the sweep's.
fn point_case(smoke: bool) -> SimCase {
    SimCase {
        name: "campaign_sweep",
        topology: "mesh8x8",
        routing: RoutingPolicy::Xy,
        va: VaPolicy::Static,
        sharded_threads: None,
        phases: phases(smoke),
        traffic: Traffic::Uniform {
            load: 0.14,
            packet: 5,
        },
        port_load: 0.18,
    }
}

/// Spec parse + `expand` + `prepare` + cache open: everything a sweep does
/// before its first simulated cycle.
fn setup(text: &str, dir: &Path) -> Result<(CampaignSpec, Vec<PreparedPoint>), String> {
    let spec = CampaignSpec::parse_toml_str(text).map_err(|e| e.to_string())?;
    let prepared = spec
        .expand()
        .iter()
        .map(prepare)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    ResultCache::open(dir, REV).map_err(|e| e.to_string())?;
    Ok((spec, prepared))
}

/// One point of the by-hand sweep.
struct Executed {
    result: PointResult,
    report: SimReport,
    wall_s: f64,
}

/// The sweep done by hand, serially, through the layer's public functions:
/// `expand` → `prepare` → per point {`lookup`, `run_point`, `store`} →
/// `merge`. It yields the full `SimReport` of every point (which
/// `run_campaign` does not hand out), the reference the cached results are
/// checked against, the mean time of a cache hit (every point looked up
/// again once all are stored), and — when `spans` records — the campaign
/// spans.
fn sweep_by_hand(
    spec: &CampaignSpec,
    dir: &Path,
    spans: &mut Spans,
) -> Result<(Vec<Executed>, String, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cache = ResultCache::open(dir, REV).map_err(|e| e.to_string())?;
    let (executed, text) = spans.scope("workload", |spans| {
        let points = spans.scope("campaign.expand", |_| spec.expand());
        let prepared = spans.scope("campaign.prepare", |_| {
            points.iter().map(prepare).collect::<Result<Vec<_>, _>>()
        });
        let prepared = prepared.map_err(|e| e.to_string())?;
        let mut executed = Vec::with_capacity(prepared.len());
        for point in &prepared {
            let hit = spans.scope("campaign.cache_lookup", |_| {
                cache.lookup(&point.config_hash)
            });
            if hit.is_some() {
                return Err(format!("{} was cached in a fresh directory", point.spec));
            }
            let start = Instant::now();
            let report = spans.scope("campaign.run_point", |_| run_point(point));
            let wall_s = start.elapsed().as_secs_f64();
            let report = report.map_err(|e| format!("{}: {e}", point.spec))?;
            let result = PointResult::from_report(point, REV, &report);
            spans
                .scope("campaign.cache_store", |_| cache.store(&result))
                .map_err(|e| e.to_string())?;
            executed.push(Executed {
                result,
                report,
                wall_s,
            });
        }
        let results: Vec<PointResult> = executed.iter().map(|e| e.result.clone()).collect();
        let text = spans.scope("campaign.merge", |_| {
            CampaignReport::merge(&spec.name, REV, &results).to_json()
        });
        Ok((executed, text))
    })?;
    let start = Instant::now();
    for e in &executed {
        black_box(cache.lookup(&e.result.config_hash));
    }
    let hit_ns = start.elapsed().as_nanos() as f64 / executed.len().max(1) as f64;
    Ok((executed, text, hit_ns))
}

/// The curves (one per seed) of one scheme.
fn curves_of<'a>(
    report: &'a CampaignReport,
    scheme: &'a str,
) -> impl Iterator<Item = &'a noc_campaign::Curve> + 'a {
    report
        .curves
        .iter()
        .filter(move |c| c.spec.scheme.canonical() == scheme)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// What the timed `run_campaign` calls produced.
struct Timed {
    spec: CampaignSpec,
    points: usize,
    setup_s: Vec<f64>,
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    /// `(cache_hits, executed)` of the last warm re-run.
    warm_counts: (usize, usize),
    /// `VmHWM` after the first cold sweep: what one sweep needs, the same
    /// work in every invocation (see `simrun::run`).
    peak_rss_mb: f64,
    /// The last cold sweep's report, and the bytes of its `report.json`.
    report: CampaignReport,
    report_bytes: Vec<u8>,
}

/// Sweep directories of this process, numbered, inside the output
/// directory; each is removed as soon as it has been used.
struct SweepDirs<'a> {
    root: &'a Path,
    made: usize,
}

impl SweepDirs<'_> {
    fn fresh(&mut self) -> PathBuf {
        self.made += 1;
        let dir = self
            .root
            .join(format!("sweep-{}-{}", std::process::id(), self.made));
        remove(&dir);
        dir
    }
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Cold sweeps into fresh directories until the measuring time is spent,
/// then warm re-runs of the last one, with their checks.
fn timed_sweeps(
    text: &str,
    opts: &RunOpts,
    dirs: &mut SweepDirs<'_>,
    out: &mut Outcome,
) -> Result<Timed, String> {
    let options = CampaignOptions {
        threads: 2,
        max_points: None,
        git_rev: Some(REV.to_string()),
    };
    let begun = Instant::now();
    let mut setup_s = Vec::new();
    let mut cold_s = Vec::new();
    let mut last: Option<(PathBuf, CampaignSpec, CampaignReport, Vec<u8>)> = None;
    let mut points = 0;
    let mut peak_rss = 0.0;
    while cold_s.len() < min_reps(opts.smoke).min(3) || begun.elapsed().as_secs_f64() < opts.seconds
    {
        let dir = dirs.fresh();
        let start = Instant::now();
        let (spec, prepared) = setup(text, &dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        points = prepared.len();
        let start = Instant::now();
        let outcome = run_campaign(&spec, &dir, &options);
        cold_s.push(start.elapsed().as_secs_f64());
        // A point that errors is a failed operation; none does on this sweep.
        let outcome = outcome.map_err(|e| e.to_string())?;
        if cold_s.len() == 1 {
            peak_rss = peak_rss_mb();
            out.check_eq(
                "cold sweep: cache_hits == 0, executed == points",
                (outcome.cache_hits, outcome.executed, outcome.completed),
                (0, points, true),
            );
        }
        let bytes = std::fs::read(dir.join("report.json")).map_err(|e| e.to_string())?;
        if let Some((old, _, _, old_bytes)) = last.take() {
            if cold_s.len() == 2 {
                out.check(
                    "two cold sweeps wrote the same report.json",
                    old_bytes == bytes,
                    format!("{} bytes", bytes.len()),
                );
            }
            remove(&old);
        }
        let report = outcome
            .report
            .ok_or("a completed sweep carries its report")?;
        last = Some((dir, spec, report, bytes));
        // Set-up takes 0.1 ms, so every sweep is followed by extra ones: the
        // samples are spread over the whole run (see `simrun::run`).
        for _ in 0..EXTRA_SETUPS {
            let scratch = dirs.fresh();
            let start = Instant::now();
            setup(text, &scratch)?;
            setup_s.push(start.elapsed().as_secs_f64());
            remove(&scratch);
        }
    }
    let (dir, spec, report, report_bytes) = last.expect("at least one cold sweep ran");

    // Warm re-runs of the last sweep: every point a cache hit.
    let mut warm_s = Vec::new();
    let mut warm_ok = true;
    let mut warm_counts = (0, 0);
    for _ in 0..if opts.trace { 21 } else { 3 } {
        let start = Instant::now();
        let outcome = run_campaign(&spec, &dir, &options).map_err(|e| e.to_string())?;
        warm_s.push(start.elapsed().as_secs_f64());
        warm_counts = (outcome.cache_hits, outcome.executed);
        let bytes = std::fs::read(dir.join("report.json")).map_err(|e| e.to_string())?;
        warm_ok &= warm_counts == (points, 0) && bytes == report_bytes;
    }
    out.check(
        "warm re-run: all cache hits, report.json byte-identical to the cold one",
        warm_ok,
        format!("cache_hits {}, executed {}", warm_counts.0, warm_counts.1),
    );
    remove(&dir);
    Ok(Timed {
        spec,
        points,
        setup_s,
        cold_s,
        warm_s,
        warm_counts,
        peak_rss_mb: peak_rss,
        report,
        report_bytes,
    })
}

/// The by-hand reports of one scheme's points (`""`: of every point).
fn reports_of<'a>(
    executed: &'a [Executed],
    scheme: &'a str,
) -> impl Iterator<Item = &'a SimReport> + 'a {
    executed
        .iter()
        .filter(move |e| scheme.is_empty() || e.result.spec.scheme.canonical() == scheme)
        .map(|e| &e.report)
}

/// Runs the sweep workload.
///
/// # Errors
///
/// Returns a message when the sweep cannot run at all (bad spec, I/O).
pub fn run(opts: &RunOpts) -> Result<(Outcome, Spans), String> {
    let mut out = Outcome::new("campaign_sweep", opts.seed, opts.smoke);
    let text = spec_text(opts.seed, opts.smoke);
    let p = phases(opts.smoke);
    out.notes.push(format!(
        "config: run_campaign threads=2 rev={REV} · mesh8x8 ur xy static 5-flit · schemes baseline, \
         {MEASURED}, evc, hybrid · loads {LOADS} · seeds {}, {} · warmup {} / measure {} / drain {} \
         · open loop per point",
        opts.seed,
        opts.seed + 1,
        p.warmup,
        p.measure,
        p.drain
    ));
    let mut dirs = SweepDirs {
        root: &opts.out_dir,
        made: 0,
    };
    let timed = timed_sweeps(&text, opts, &mut dirs, &mut out)?;

    // The same sweep by hand: the reference for the cached results, and the
    // source of the per-point reports.
    let mut spans = Spans::new(opts.trace);
    let hand_dir = dirs.fresh();
    let by_hand = sweep_by_hand(&timed.spec, &hand_dir, &mut spans);
    remove(&hand_dir);
    let (executed, hand_text, lookup_ns) = by_hand?;
    out.check(
        "report.json equals the sweep done by hand through run_point",
        hand_text.as_bytes() == timed.report_bytes,
        format!("{} points", executed.len()),
    );
    out.attempted = timed.points as u64;
    out.failed = 0;
    out.report_hash = format!("{:016x}", noc_sim::manifest::fnv1a64(&timed.report_bytes));

    // Simulated results, from the cold report and the per-point reports.
    let report = &timed.report;
    let curves = |scheme: &'static str| curves_of(report, scheme);
    // Low-load latency: the three lowest loads, far below the knee. The lowest
    // alone rests on some 500 packets and moved by 2-4 % between seeds.
    let low_latency = |scheme: &'static str| {
        mean(curves(scheme).flat_map(|c| c.series[..3].iter().map(|p| p.avg_latency)))
    };
    let traversals_of = |scheme: &'static str| -> f64 {
        reports_of(&executed, scheme)
            .map(|r| r.router_stats.flit_traversals as f64)
            .sum()
    };
    let energy_per_hop = |scheme: &'static str| -> f64 {
        reports_of(&executed, scheme)
            .map(SimReport::energy_pj)
            .sum::<f64>()
            / traversals_of(scheme)
    };
    let all_traversals = traversals_of("");
    let cycles: f64 = executed.iter().map(|e| e.result.cycles as f64).sum();
    let cold = Summary::fastest(&timed.cold_s);
    out.notes.push(format!(
        "cold sweep wall per repetition, s (the fastest is reported): {}",
        seconds_list(&timed.cold_s)
    ));
    out.set("setup_s", Summary::fastest(&timed.setup_s));
    out.set("sim_cycles_per_s", cold.map(|s| cycles / s));
    out.set(
        "host_ns_per_flit_hop",
        cold.map(|s| s * 1e9 / all_traversals),
    );
    out.set("peak_rss_mb", Summary::exact(timed.peak_rss_mb));
    out.set("avg_latency_cycles", Summary::exact(low_latency(MEASURED)));
    out.set(
        "accepted_flits_node_cycle",
        Summary::exact(mean(
            curves(MEASURED).flat_map(|c| c.series.iter().map(|p| p.throughput)),
        )),
    );
    out.set(
        "energy_pj_per_flit_hop",
        Summary::exact(energy_per_hop(MEASURED)),
    );
    out.set(
        "latency_reduction_pct",
        Summary::exact((1.0 - low_latency(MEASURED) / low_latency("baseline")) * 100.0),
    );
    out.set(
        "energy_reduction_pct",
        Summary::exact((1.0 - energy_per_hop(MEASURED) / energy_per_hop("baseline")) * 100.0),
    );

    // The fixed-rate latency table and the saturation load.
    let below_saturation = |c: &noc_campaign::Curve| {
        let limit = c.saturation_load.unwrap_or(f64::INFINITY);
        c.series
            .iter()
            .map(|p| p.spec.load)
            .filter(|&l| l < limit)
            .fold(0.0, f64::max)
    };
    let saturation_load = mean(curves(MEASURED).map(below_saturation));
    out.notes.push(
        "latency in cycles at each load (mean of the two seeds; ! = a seed did not drain):".into(),
    );
    for scheme in ["baseline", MEASURED, "evc", "hybrid"] {
        let group: Vec<_> = curves(scheme).collect();
        let row: Vec<String> = (0..group[0].series.len())
            .map(|i| {
                format!(
                    "{:.2}: {:.1}{}",
                    group[0].series[i].spec.load,
                    mean(group.iter().map(|c| c.series[i].avg_latency)),
                    if group.iter().all(|c| c.series[i].drained) {
                        ""
                    } else {
                        "!"
                    }
                )
            })
            .collect();
        out.notes.push(format!("  {scheme:<13} {}", row.join("  ")));
    }
    out.notes.push(format!(
        "saturation_load ({MEASURED}, highest sampled load below 3x the lowest-load latency): \
         {saturation_load}; latency reduction at loads 0.02-0.10 is for orientation only - the model is unvalidated"
    ));

    if opts.trace {
        out.layer("campaign.saturation_load", saturation_load);
        out.layer("campaign.cache_lookup_ns", lookup_ns);
        layer_metrics(&text, opts, &timed, &executed, &mut out, &mut spans)?;
    }
    Ok((out, spans))
}

/// The sweep's per-layer metrics: what the timed sweeps, the by-hand sweep's
/// spans and reports, and the layer drivers on one point's shape tell.
fn layer_metrics(
    text: &str,
    opts: &RunOpts,
    timed: &Timed,
    executed: &[Executed],
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let points = timed.points as f64;
    let cold_s = Summary::fastest(&timed.cold_s).value;
    let walls = |scheme: &str| -> Vec<f64> {
        executed
            .iter()
            .filter(|e| scheme.is_empty() || e.result.spec.scheme.canonical() == scheme)
            .map(|e| e.wall_s)
            .collect()
    };
    let all_walls = walls("");
    out.layer("campaign.points_per_s", points / cold_s);
    out.layer("campaign.warm_rerun_s", median(&timed.warm_s));
    out.layer(
        "campaign.worker_busy_frac",
        all_walls.iter().sum::<f64>() / (2.0 * cold_s),
    );
    let start = Instant::now();
    for _ in 0..100 {
        black_box(CampaignSpec::parse_toml_str(text).map_err(|e| e.to_string())?);
    }
    out.layer(
        "campaign.spec_parse_ns",
        start.elapsed().as_nanos() as f64 / 100.0,
    );
    out.layer("campaign.expand_s", spans.total_s("campaign.expand"));
    out.layer(
        "campaign.prepare_ns_per_point",
        spans.total_s("campaign.prepare") * 1e9 / points,
    );
    out.layer(
        "campaign.cache_store_ns",
        spans.total_s("campaign.cache_store") * 1e9 / points,
    );
    out.layer("campaign.merge_s", spans.total_s("campaign.merge"));
    out.layer("campaign.run_point_s_p50", median(&all_walls));
    out.layer(
        "campaign.run_point_s_max",
        all_walls.iter().copied().fold(0.0, f64::max),
    );
    for (scheme, name) in [
        ("baseline", "campaign.point_s.baseline"),
        (MEASURED, "campaign.point_s.pseudo_ps_bb"),
        ("evc", "campaign.point_s.evc"),
        ("hybrid", "campaign.point_s.hybrid"),
    ] {
        out.layer(name, median(&walls(scheme)));
    }
    out.layer("campaign.cache_hits", timed.warm_counts.0 as f64);
    out.layer("campaign.executed", points);

    // Counts over the measured scheme's points, summed into one report.
    let mut measured = reports_of(executed, MEASURED);
    let mut total = measured.next().expect("the sweep has points").clone();
    for r in measured {
        total.router_stats += r.router_stats;
        total.energy += r.energy;
        total.measured_injected += r.measured_injected;
        total.measured_delivered += r.measured_delivered;
        total.final_backlog += r.final_backlog;
    }
    total.energy_breakdown = noc_sim::stats::energy_breakdown_of(&total.energy);
    report_counts(out, &total);

    // One point's set-up under spans, then the drivers on its shape.
    let case = point_case(opts.smoke);
    drop(case.build(opts.seed, pseudo_circuit::Scheme::pseudo_ps_bb(), 1, spans)?);
    out.layer("sim.new_s", spans.total_s("sim.new"));
    layer_drivers(&case, opts, true, out, spans)?;
    out.zero_remaining_layers();
    Ok(())
}
