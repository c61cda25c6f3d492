//! Command-line experiment runner backing the `noc` binary.
//!
//! Hand-rolled argument parsing (no external dependency) exposed as a
//! library so it is unit-testable. Grammar:
//!
//! ```text
//! noc run [--<key> <value>]...      # a key of a spec's [axes] or [phases]
//!         [--metrics off|full] [--manifest PATH]
//!         [--trace PATH] [--trace-routers 0,5,12]
//! noc campaign run --spec FILE --out DIR [--threads N] [--max-points N]
//! noc campaign status --spec FILE --out DIR
//! noc campaign expand --spec FILE
//! noc help            # the flags and their defaults
//! noc list            # available traffic names, topologies and schemes
//! ```
//!
//! `noc run` is a campaign spec of one point: each `--key value` is the
//! `key = value` of a spec's `[axes]` or `[phases]`, read by
//! [`noc_campaign::PointSpec::from_flags`] under the same rules, into the
//! struct a campaign expands its axes into. [`run`] builds it through
//! [`noc_campaign::build_simulation`], so a flag value and a campaign axis
//! value are parsed, validated, built and hashed by the same code. The
//! `campaign` subcommand drives [`noc_campaign::run_campaign`]: cached,
//! resumable sweeps documented in `docs/CAMPAIGNS.md`, whose only state is
//! the result cache under `--out`; `campaign status` counts its hits.
//!
//! `--metrics=full` attaches per-router counters and pipeline-stage
//! histograms to the report (see `docs/METRICS.md`); `--manifest` writes the
//! run's record, [`noc_campaign::PointResult`] — the document a campaign
//! caches for the same point, byte for byte at `--metrics off` — plus, at
//! `--metrics full`, the per-router dump;
//! `--trace` writes a Chrome-trace-format JSON of router lifecycle events
//! (pseudo-circuit establish/terminate/hit, EVC express latches) for the
//! routers named by `--trace-routers` (default: all). All three apply to
//! every scheme, including `--scheme evc` — both router families run on the
//! shared pipeline kernel and carry the same observability plumbing.

use noc_campaign::{
    build_simulation, cache_pass, write_atomic, CampaignOptions, CampaignSpec, Error, PointResult,
    PointSpec, PreparedPoint,
};
use noc_sim::{MetricsConfig, MetricsLevel, SimReport, TraceSpec};
use noc_traffic::BenchmarkProfile;
use std::fmt::Write as _;
use std::path::Path;

/// A fully parsed experiment description: the point to simulate plus how to
/// execute and observe it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunArgs {
    /// What to simulate (`--topology` … `--seed`): exactly a campaign point,
    /// so the CLI and a campaign hash the same struct.
    pub point: PointSpec,
    /// Observability level (`--metrics off|full`).
    pub metrics: MetricsLevel,
    /// Run-manifest output path (`--manifest`), if requested.
    pub manifest: Option<String>,
    /// Chrome-trace output path (`--trace`), if requested.
    pub trace: Option<String>,
    /// Routers selected for tracing (`--trace-routers`; empty = all).
    pub trace_routers: Vec<usize>,
}

fn err(message: impl Into<String>) -> Error {
    Error(message.into())
}

/// Parses `run` subcommand arguments: the flags of one point (see
/// [`PointSpec::from_flags`]) and of how its run is observed.
///
/// # Errors
///
/// Returns an [`Error`] describing the first unknown flag or missing value,
/// a point key given twice or a value outside its key's rule, an
/// unparseable `--trace-routers` list, or `--trace-routers` given without
/// `--trace`.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, Error> {
    let mut out = RunArgs::default();
    let keys = PointSpec::default().coordinates().map(|(key, _)| key);
    let mut point = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--metrics" => {
                let v = value()?;
                out.metrics = MetricsLevel::parse(v)
                    .ok_or_else(|| err(format!("unknown metrics level {v:?} (off|full)")))?;
            }
            "--manifest" => out.manifest = Some(value()?.clone()),
            "--trace" => out.trace = Some(value()?.clone()),
            "--trace-routers" => {
                out.trace_routers = value()?
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| parse_num(s.trim(), flag))
                    .collect::<Result<Vec<usize>, _>>()?;
            }
            other => match other.strip_prefix("--").filter(|key| keys.contains(key)) {
                Some(key) => point.push((key, value()?.as_str())),
                None => return Err(err(format!("unknown flag {other:?} (see `noc help`)"))),
            },
        }
    }
    if out.trace.is_none() && !out.trace_routers.is_empty() {
        return Err(err(
            "--trace-routers needs --trace PATH to write the trace to",
        ));
    }
    out.point = PointSpec::from_flags(&point)?;
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, Error> {
    s.parse()
        .map_err(|_| err(format!("{flag}: cannot parse {s:?}")))
}

/// Runs a parsed experiment to completion, writing the run record (see
/// [`PointResult::run_json`]; atomically, creating missing parent
/// directories) and the Chrome trace as side effects when `--manifest` /
/// `--trace` were given.
///
/// # Errors
///
/// Returns an [`Error`] when the topology or traffic spec is invalid, a
/// value is out of range for the configuration (see
/// [`noc_campaign::prepare`]), a `--trace-routers` id names no router of the
/// topology, or a requested output file cannot be written.
pub fn run(args: &RunArgs) -> Result<SimReport, Error> {
    let point = &args.point;
    let metrics = MetricsConfig {
        level: args.metrics,
        trace: args.trace.as_ref().map(|_| TraceSpec {
            routers: args.trace_routers.clone(),
        }),
    };
    let mut sim = build_simulation(point, metrics)?;
    let routers = sim.topology().num_routers();
    if let Some(&id) = args.trace_routers.iter().find(|&&id| id >= routers) {
        return Err(err(format!(
            "--trace-routers: no router {id}, {} has {routers} routers",
            point.topology
        )));
    }
    let report = sim.run(point.run_spec());
    if let Some(path) = &args.manifest {
        let prepared = PreparedPoint::from_simulation(point, &sim);
        let record = PointResult::from_report(&prepared, &noc_sim::git_rev(), &report);
        let path = Path::new(path);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| err(format!("cannot create {}: {e}", dir.display())))?;
        }
        let json = record.run_json(report.observability.as_ref());
        write_atomic(path, json.as_bytes())?;
    }
    if let Some(path) = &args.trace {
        // Every scheme's routers carry the kernel tracer; the empty-document
        // fallback only covers a trace spec that selected no live router.
        let json = sim
            .chrome_trace()
            .unwrap_or_else(|| "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n".into());
        std::fs::write(path, json).map_err(|e| err(format!("cannot write trace {path}: {e}")))?;
    }
    Ok(report)
}

/// A parsed `noc campaign` invocation.
#[derive(Clone, PartialEq, Debug)]
pub enum CampaignCommand {
    /// `campaign run`: execute (or resume) a sweep.
    Run {
        /// TOML spec file path.
        spec: String,
        /// Campaign directory (cache + report).
        out: String,
        /// Across-point worker budget (`0` = the host budget).
        threads: usize,
        /// Stop after this many uncached points (deterministic interrupt).
        max_points: Option<usize>,
    },
    /// `campaign status`: count the spec's cached points without running.
    Status {
        /// TOML spec file path.
        spec: String,
        /// Campaign directory.
        out: String,
    },
    /// `campaign expand`: print the expanded point set without running.
    Expand {
        /// Spec file path.
        spec: String,
    },
}

/// Parses `campaign` subcommand arguments.
///
/// # Errors
///
/// Returns an [`Error`] for a missing verb, unknown flags, or missing
/// required flags (`--spec`, `--out`).
pub fn parse_campaign_args(args: &[String]) -> Result<CampaignCommand, Error> {
    let (verb, rest) = args
        .split_first()
        .ok_or_else(|| err("campaign needs a verb: run, status or expand"))?;
    let mut spec: Option<String> = None;
    let mut out: Option<String> = None;
    let mut threads = 0usize;
    let mut max_points: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--spec" => spec = Some(value()?),
            "--out" => out = Some(value()?),
            "--threads" if verb == "run" => {
                threads = parse_num(&value()?, flag)?;
                if threads == 0 {
                    return Err(err("--threads must be at least 1"));
                }
            }
            "--max-points" if verb == "run" => max_points = Some(parse_num(&value()?, flag)?),
            other => return Err(err(format!("unknown flag {other:?} (see `noc help`)"))),
        }
    }
    let need_spec = || {
        spec.clone()
            .ok_or_else(|| err("campaign needs --spec FILE"))
    };
    let need_out = || out.clone().ok_or_else(|| err("campaign needs --out DIR"));
    match verb.as_str() {
        "run" => Ok(CampaignCommand::Run {
            spec: need_spec()?,
            out: need_out()?,
            threads,
            max_points,
        }),
        "status" => Ok(CampaignCommand::Status {
            spec: need_spec()?,
            out: need_out()?,
        }),
        "expand" => Ok(CampaignCommand::Expand { spec: need_spec()? }),
        other => Err(err(format!(
            "unknown campaign verb {other:?} (run, status, expand)"
        ))),
    }
}

/// Executes a parsed `campaign` command and returns the text to print.
///
/// # Errors
///
/// Returns an [`Error`] for unreadable/invalid specs and any execution
/// failure (see [`noc_campaign::run_campaign`] and
/// [`noc_campaign::cache_pass`]).
pub fn run_campaign_command(command: &CampaignCommand) -> Result<String, Error> {
    match command {
        CampaignCommand::Run {
            spec,
            out,
            threads,
            max_points,
        } => {
            let spec = CampaignSpec::load(Path::new(spec))?;
            let options = CampaignOptions {
                threads: *threads,
                max_points: *max_points,
                git_rev: None,
            };
            let outcome = noc_campaign::run_campaign(&spec, Path::new(out), &options)?;
            let mut text = format!(
                "{} points | cache hits {} | executed {}",
                outcome.total, outcome.cache_hits, outcome.executed
            );
            match &outcome.report {
                Some(report) => {
                    let _ = write!(
                        text,
                        "\nreport: {}\n{}",
                        Path::new(out).join("report.json").display(),
                        report.render_summary()
                    );
                }
                None => {
                    let _ = write!(
                        text,
                        "\nstopped early (--max-points): {} point(s) still pending; \
                         re-run to resume",
                        outcome.total - outcome.cache_hits - outcome.executed
                    );
                }
            }
            Ok(text)
        }
        CampaignCommand::Status { spec, out } => {
            let spec = CampaignSpec::load(Path::new(spec))?;
            let dir = Path::new(out);
            let git_rev = noc_sim::git_rev();
            let (_, results) = cache_pass(&spec, dir, &git_rev)?;
            let report = if dir.join("report.json").is_file() {
                "report.json present"
            } else {
                "no report yet"
            };
            Ok(format!(
                "campaign {} @ {git_rev}: {}/{} points cached | {report}",
                spec.name,
                results.iter().flatten().count(),
                results.len()
            ))
        }
        CampaignCommand::Expand { spec } => {
            let spec = CampaignSpec::load(Path::new(spec))?;
            let points = spec.expand();
            let mut text = format!("{}: {} point(s)", spec.name, points.len());
            for point in &points {
                let _ = write!(text, "\n  {point}");
            }
            Ok(text)
        }
    }
}

/// Renders a report as the CLI's human-readable summary.
pub fn render_report(report: &SimReport) -> String {
    let s = report.router_stats;
    let mut out = format!(
        "topology       {}\n\
         traffic        {}\n\
         cycles         {}\n\
         avg latency    {:.2} cycles (p99 <= {}), avg hops {:.2}\n\
         delivered      {} measured / {} total{}\n\
         throughput     {:.4} flits/node/cycle\n\
         reuse          {:.1}% of flits ({:.1}% of headers)\n\
         buffer bypass  {:.1}% of flits\n\
         router energy  {:.1} nJ ({})\n\
         locality       {:.1}% end-to-end, {:.1}% crossbar",
        report.topology,
        report.traffic,
        report.cycles,
        report.avg_latency,
        report.p99_latency_bound,
        report.avg_hops,
        report.measured_delivered,
        report.delivered_packets,
        if report.drained {
            ""
        } else {
            "  [NOT DRAINED]"
        },
        report.throughput,
        report.reusability() * 100.0,
        s.header_hit_rate() * 100.0,
        report.bypass_rate() * 100.0,
        report.energy_pj() / 1000.0,
        report.energy_breakdown,
        report.end_to_end_locality * 100.0,
        report.xbar_locality() * 100.0,
    );
    if let Some(obs) = &report.observability {
        out.push_str(&render_observability(obs));
    }
    out
}

/// Renders the `--metrics=full` per-router section appended to the summary.
fn render_observability(obs: &noc_sim::ObservabilityReport) -> String {
    let (conflict, credit) = obs.terminations();
    let mut out = String::new();
    let _ = write!(
        out,
        "\n\nper-router metrics (--metrics full)\n\
         network hit rate   {:.1}%\n\
         terminations       {} ({} conflict / {} credit)\n\
         stage p50/p99 <=   BW {}/{}  VA {}/{}  SA {}/{}  ST {}/{}",
        obs.hit_rate() * 100.0,
        conflict + credit,
        conflict,
        credit,
        obs.stages.bw.quantile_bound(0.5),
        obs.stages.bw.quantile_bound(0.99),
        obs.stages.va.quantile_bound(0.5),
        obs.stages.va.quantile_bound(0.99),
        obs.stages.sa.quantile_bound(0.5),
        obs.stages.sa.quantile_bound(0.99),
        obs.stages.st.quantile_bound(0.5),
        obs.stages.st.quantile_bound(0.99),
    );
    for r in &obs.routers {
        if r.total_traversals() == 0 {
            continue;
        }
        let (tc, tx) = r.terminations();
        let _ = write!(
            out,
            "\n  r{:<3} traversals {:<8} hits {:>5.1}%  bypass {:>5.1}%  \
             term {tc}c/{tx}x  restores {}",
            r.router,
            r.total_traversals(),
            r.hit_rate() * 100.0,
            r.total_bypasses() as f64 / r.total_traversals() as f64 * 100.0,
            r.restores.iter().sum::<u64>(),
        );
    }
    out
}

/// The `noc list` output: available traffic names, topology forms, and
/// schemes — rendered from the same vocabulary tables
/// ([`noc_campaign::TOPOLOGY_FORMS`], [`noc_campaign::SCHEME_NAMES`]) the
/// parsers accept, so the listing cannot drift from the grammar.
pub fn render_list() -> String {
    let mut out =
        String::from("synthetic traffic: ur, bc, bp, tornado, neighbor\nbenchmarks:        ");
    let names: Vec<&str> = BenchmarkProfile::suite().iter().map(|p| p.name).collect();
    out.push_str(&names.join(", "));
    out.push_str("\ntopologies:        ");
    out.push_str(&noc_campaign::TOPOLOGY_FORMS.join(", "));
    out.push_str("\nschemes:           ");
    out.push_str(&noc_campaign::SCHEME_NAMES.join(", "));
    out
}

/// The `noc help` text. The point flags and their defaults are the keys of
/// [`PointSpec::default`], three to a line; the rest is written flush left:
/// a `\` line continuation would strip each line's leading spaces, and with
/// them the columns.
pub fn usage() -> String {
    let mut flags = String::new();
    for row in PointSpec::default().coordinates().chunks(3) {
        let mut line = String::from("\n ");
        for (key, value) in row {
            let _ = write!(line, " {:<21}", format!("--{key} {value}"));
        }
        flags.push_str(line.trim_end());
    }
    format!(
        "\
noc — pseudo-circuit NoC experiment runner

USAGE:
  noc run [flags]     run one experiment and print its report
  noc campaign run --spec FILE --out DIR [--threads N] [--max-points N]
                      run/resume a cached sweep (docs/CAMPAIGNS.md)
  noc campaign status --spec FILE --out DIR
                      count the sweep's points already cached
  noc campaign expand --spec FILE   print the expanded point set
  noc list            list traffic models, topologies and schemes
  noc help            this text

FLAGS (a spec's [axes] and [phases] keys, one value each; defaults):{flags}

CAMPAIGN FLAGS (campaign run only):
  --threads N           points simulated at once, one per thread (default:
                        the host's CPUs); each simulation is serial, so
                        results never depend on it
  --max-points N        stop after N uncached points (re-run to resume)

OBSERVABILITY (defaults off; see docs/METRICS.md):
  --metrics off|full        per-router counters + stage histograms (full)
  --manifest PATH           write the run's record (JSON): its flags, git
                            revision, config hash and results; the same
                            record a campaign caches for the point
  --trace PATH              write router lifecycle events (circuit + EVC
                            latch) as Chrome-trace JSON (chrome://tracing)
  --trace-routers 0,5,12    restrict tracing to these routers (default all;
                            needs --trace, ids below the router count)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_base::{RoutingPolicy, VaPolicy};
    use noc_campaign::SchemeChoice;
    use pseudo_circuit::Scheme;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse_from_empty() {
        let parsed = parse_run_args(&[]).unwrap();
        assert_eq!(parsed, RunArgs::default());
    }

    #[test]
    fn full_flag_set_parses() {
        let parsed = parse_run_args(&args(&[
            "--topology",
            "cmesh4x4",
            "--traffic",
            "fma3d",
            "--scheme",
            "pseudo+bb",
            "--routing",
            "o1turn",
            "--va",
            "dynamic",
            "--vcs",
            "8",
            "--buffer",
            "2",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--drain",
            "30",
            "--seed",
            "9",
            "--load",
            "0.25",
            "--packet",
            "1",
        ]))
        .unwrap();
        let point = parsed.point;
        assert_eq!(point.topology, "cmesh4x4");
        assert_eq!(point.scheme, SchemeChoice::Pc(Scheme::pseudo_bb()));
        assert_eq!(point.routing, RoutingPolicy::O1Turn);
        assert_eq!(point.va, VaPolicy::Dynamic);
        assert_eq!((point.vcs, point.buffer), (8, 2));
        assert_eq!((point.warmup, point.measure, point.drain), (10, 20, 30));
        assert_eq!(point.load, 0.25);
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        // `--threads` is a campaign flag: `campaign run` takes it and refuses
        // 0, and `noc run`, whose one simulation is serial, refuses it as the
        // unknown flag it is.
        let run = |threads: &str| {
            parse_campaign_args(&args(&[
                "run",
                "--spec",
                "s",
                "--out",
                "d",
                "--threads",
                threads,
            ]))
        };
        assert!(matches!(
            run("4").unwrap(),
            CampaignCommand::Run { threads: 4, .. }
        ));
        assert!(run("0").unwrap_err().0.contains("at least 1"));
        assert_eq!(
            parse_run_args(&args(&["--threads", "4"])).unwrap_err().0,
            "unknown flag \"--threads\" (see `noc help`)"
        );
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(parse_run_args(&args(&["--bogus"]))
            .unwrap_err()
            .0
            .contains("--bogus"));
        assert!(parse_run_args(&args(&["--load"]))
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse_run_args(&args(&["--load", "abc"]))
            .unwrap_err()
            .0
            .contains("abc"));
        assert!(parse_run_args(&args(&["--scheme", "warp"]))
            .unwrap_err()
            .0
            .contains("warp"));
        assert!(parse_run_args(&args(&["--routing", "zigzag"])).is_err());
        assert!(parse_run_args(&args(&["--va", "lucky"])).is_err());
    }

    #[test]
    fn benchmark_traffic_on_unsupported_concentration_is_an_error() {
        // Concentration 2, and concentration 1 with an odd node count: no
        // CMP floorplan exists for either.
        for topology in ["mesh3x3c2", "mesh3x3"] {
            let args = RunArgs {
                point: PointSpec {
                    topology: topology.into(),
                    traffic: "fma3d".into(),
                    ..PointSpec::default()
                },
                ..RunArgs::default()
            };
            let Err(e) = run(&args) else {
                panic!("expected a concentration error on {topology}");
            };
            assert!(e.0.contains("concentration"), "{e}");
        }
    }

    #[test]
    fn out_of_range_input_is_an_error_not_a_panic() {
        // Every row used to die on an assert deep inside a constructor. The
        // flags parse (each value is inside its key's rule); the shared
        // validation behind `prepare` and `run` must reject them, naming the
        // field.
        let table: &[(&[&str], &str)] = &[
            (&["--scheme", "evc", "--topology", "ring8"], "scheme"),
            (&["--scheme", "evc", "--routing", "o1turn"], "scheme"),
            (&["--scheme", "evc", "--vcs", "3"], "vcs"),
            (&["--vcs", "66"], "vcs: at most 64"),
            (&["--topology", "mesh2x2c61"], "65 ports"),
            (&["--vcs", "1", "--routing", "o1turn"], "vcs"),
            // Both used to build the whole network and die in
            // `FlitPool::new`; the first wrapped a `u32` product on the way.
            (
                &["--buffer", "4294967295"],
                "buffer: 4294967295 flits on each of 4 VCs",
            ),
            (&["--vcs", "64", "--buffer", "1024"], "in flight on mesh8x8"),
            (&["--topology", "mesh0x4"], "mesh"),
            (&["--topology", "ring8c0"], "concentration"),
            // Used to wrap `warmup + measure` in release (a 999-cycle run,
            // exit 0) and to panic on the addition in debug.
            (
                &["--warmup", "18446744073709551615", "--measure", "1000"],
                "warmup + measure + drain: 18446744073709551615 + 1000 + 100000",
            ),
        ];
        for (flags, field) in table {
            let run_args = parse_run_args(&args(flags)).unwrap();
            let from_prepare = noc_campaign::prepare(&run_args.point).unwrap_err();
            let from_run = run(&run_args).unwrap_err();
            assert_eq!(from_prepare.0, from_run.0, "{flags:?}");
            assert!(from_run.0.contains(field), "{flags:?}: {from_run}");
            assert!(!from_run.0.contains('\n'), "{flags:?}: {from_run}");
        }
        // These values are outside their key's rule, so the flags are
        // refused where they are parsed. The same point built in code is
        // still refused by the validation, naming the field.
        type Refused = (&'static [&'static str], &'static str, fn(&mut PointSpec));
        let refused: &[Refused] = &[
            (&["--vcs", "0"], "vcs", |p| p.vcs = 0),
            (&["--buffer", "0"], "buffer", |p| p.buffer = 0),
            (&["--packet", "0"], "packet", |p| p.packet = 0),
            (&["--load", "-1"], "load", |p| p.load = -1.0),
            (&["--load", "5"], "load", |p| p.load = 5.0),
        ];
        for (flags, field, set) in refused {
            let e = parse_run_args(&args(flags)).unwrap_err();
            assert!(e.0.starts_with(&format!("--{field}: ")), "{flags:?}: {e}");
            assert!(!e.0.contains('\n'), "{flags:?}: {e}");
            let mut point = PointSpec::default();
            set(&mut point);
            let e = noc_campaign::prepare(&point).unwrap_err();
            assert!(e.0.starts_with(&format!("{field}: ")), "{flags:?}: {e}");
            assert!(!e.0.contains('\n'), "{flags:?}: {e}");
        }
        // A traced-router id past the topology's last router used to select
        // nothing and write an empty trace with exit 0; the count is known
        // once the simulation is built, and nothing is written.
        let trace = std::env::temp_dir().join(format!("noc-cli-range-{}.json", std::process::id()));
        let trace = trace.to_string_lossy().into_owned();
        let flags = [
            "--topology",
            "mesh8x8",
            "--trace",
            &trace,
            "--trace-routers",
            "0,999",
        ];
        let e = run(&parse_run_args(&args(&flags)).unwrap()).unwrap_err();
        assert!(
            e.0.contains("no router 999") && e.0.contains("64 routers"),
            "{e}"
        );
        assert!(!e.0.contains('\n'), "{e}");
        assert!(!Path::new(&trace).exists(), "a rejected run wrote {trace}");
        // Without `--trace` the selection had nowhere to go and was dropped
        // silently: rejected where the flags are parsed, in either order.
        let e = parse_run_args(&args(&["--trace-routers", "0,5"])).unwrap_err();
        assert!(e.0.contains("--trace-routers needs --trace"), "{e}");
        assert!(!e.0.contains('\n'), "{e}");
        assert!(parse_run_args(&args(&["--trace-routers", "0,5", "--trace", &trace])).is_ok());
        // `--metrics edge` selected nothing `off` does not and is gone: an
        // unknown level like any other, rejected where the flag is parsed.
        let e = parse_run_args(&args(&["--metrics", "edge"])).unwrap_err();
        assert!(e.0.contains("unknown metrics level \"edge\""), "{e}");
        assert!(!e.0.contains('\n'), "{e}");
    }

    #[test]
    fn tiny_experiment_runs_end_to_end() {
        let mut run_args = parse_run_args(&args(&[
            "--topology",
            "mesh2x2",
            "--traffic",
            "ur",
            "--load",
            "0.05",
            "--measure",
            "500",
            "--warmup",
            "100",
            "--drain",
            "5000",
        ]))
        .unwrap();
        run_args.point.packet = 2;
        let report = run(&run_args).unwrap();
        assert!(report.drained);
        let text = render_report(&report);
        assert!(text.contains("avg latency"));
        assert!(!text.contains("NOT DRAINED"));
    }

    #[test]
    fn observability_flags_parse() {
        let parsed = parse_run_args(&args(&[
            "--metrics",
            "full",
            "--manifest",
            "out/run.json",
            "--trace",
            "out/trace.json",
            "--trace-routers",
            "0, 5,12",
        ]))
        .unwrap();
        assert_eq!(parsed.metrics, MetricsLevel::Full);
        assert_eq!(parsed.manifest.as_deref(), Some("out/run.json"));
        assert_eq!(parsed.trace.as_deref(), Some("out/trace.json"));
        assert_eq!(parsed.trace_routers, vec![0, 5, 12]);
        assert!(parse_run_args(&args(&["--metrics", "loud"])).is_err());
        assert!(parse_run_args(&args(&["--trace-routers", "1,x"])).is_err());
    }

    #[test]
    fn full_metrics_run_writes_manifest_and_trace() {
        let dir = std::env::temp_dir().join(format!("noc-cli-obs-{}", std::process::id()));
        let manifest_path = dir.join("run.json");
        let trace_path = dir.join("trace.json");
        let run_args = RunArgs {
            point: PointSpec {
                topology: "mesh2x2".into(),
                load: 0.05,
                packet: 2,
                warmup: 100,
                measure: 500,
                drain: 5_000,
                ..PointSpec::default()
            },
            metrics: MetricsLevel::Full,
            manifest: Some(manifest_path.to_string_lossy().into_owned()),
            trace: Some(trace_path.to_string_lossy().into_owned()),
            trace_routers: vec![0, 3],
        };
        let report = run(&run_args).unwrap();

        let obs = report.observability.as_ref().expect("full metrics payload");
        assert_eq!(obs.routers.len(), 4);
        let (conflict, credit) = obs.terminations();
        assert_eq!(
            conflict + credit,
            report.router_stats.pc_terminations_conflict
                + report.router_stats.pc_terminations_credit
        );
        let text = render_report(&report);
        assert!(text.contains("per-router metrics"));
        assert!(text.contains("network hit rate"));

        let manifest = std::fs::read_to_string(&manifest_path).unwrap();
        assert!(manifest.contains("\"schema\": \"noc-point/3\""));
        assert!(manifest.contains("\"scheme\": \"pseudo+ps+bb\""));
        assert!(!manifest.contains("\"threads\""), "{manifest}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_metrics_manifest_is_the_points_cache_record() {
        // `noc run --manifest` and the campaign cache write one record: a
        // `--metrics full` manifest parses to the cache entry of its point,
        // and a serial `--metrics off` one is that entry, byte for byte —
        // also when the flags name the topology and traffic in upper case,
        // which a campaign lower-cases.
        let dir = std::env::temp_dir().join(format!("noc-cli-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flags = [
            "--topology",
            "MESH2x2",
            "--traffic",
            "UR",
            "--load",
            "0.071",
            "--packet",
            "3",
            "--warmup",
            "100",
            "--measure",
            "500",
            "--drain",
            "5000",
        ];
        let manifest_at = |metrics: &str, name: &str| {
            let path = dir.join("runs").join(name);
            let path_text = path.to_string_lossy().into_owned();
            let mut argv = args(&flags);
            argv.extend(args(&["--metrics", metrics, "--manifest", &path_text]));
            run(&parse_run_args(&argv).unwrap()).unwrap();
            std::fs::read_to_string(path).unwrap()
        };
        let full = manifest_at("full", "full.json");
        let off = manifest_at("off", "off.json");
        for key in ["\"metrics\": \"full\"", "\"routers\": ["] {
            assert!(full.contains(key), "{key} missing from {full}");
        }
        assert!(!full.contains("\"threads\""), "{full}");
        let record = PointResult::from_json(&full).unwrap();

        let spec = CampaignSpec {
            warmup: 100,
            measure: 500,
            drain: 5_000,
            axes: noc_campaign::Axes {
                topology: vec!["mesh2x2".into()],
                load: vec![0.071],
                packet: vec![3],
                ..noc_campaign::Axes::default()
            },
            ..CampaignSpec::default()
        };
        let options = CampaignOptions {
            threads: 1,
            max_points: None,
            git_rev: Some(record.git_rev.clone()),
        };
        let out = dir.join("campaign");
        noc_campaign::run_campaign(&spec, &out, &options).unwrap();
        let entry = noc_campaign::ResultCache::open(&out, &record.git_rev)
            .unwrap()
            .entry_path(&record.config_hash);
        let entry = std::fs::read_to_string(entry).unwrap();
        assert_eq!(PointResult::from_json(&entry).unwrap(), record);
        assert_eq!(off, entry);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The value of `key` in a run record, copied as a reader would copy it
    /// into a flag: the text after `"key": `, without its quotes.
    fn recorded(record: &str, key: &str) -> String {
        let line = record
            .lines()
            .find_map(|line| line.strip_prefix(&format!("  \"{key}\": ")))
            .unwrap_or_else(|| panic!("no {key} in {record}"));
        line.trim_end_matches(',').trim_matches('"').to_string()
    }

    #[test]
    fn a_records_coordinates_are_the_flags_of_its_point() {
        // docs/METRICS.md "Reproducing a recorded run": each coordinate of a
        // record, copied verbatim into its flag, names the same point, with
        // the same config hash.
        let mesh = PointSpec {
            topology: "mesh4x4".into(),
            scheme: SchemeChoice::Evc,
            vcs: 2,
            buffer: 3,
            packet: 7,
            load: 0.0731,
            seed: u64::MAX,
            ..PointSpec::default()
        };
        let points = [
            mesh,
            PointSpec {
                topology: "cmesh4x4".into(),
                traffic: "fft".into(),
                scheme: SchemeChoice::Pc(Scheme::pseudo_bb()),
                routing: RoutingPolicy::O1Turn,
                va: VaPolicy::Dynamic,
                ..PointSpec::default()
            },
            PointSpec {
                topology: "ring8c2".into(),
                traffic: "tornado".into(),
                scheme: SchemeChoice::Hybrid,
                routing: RoutingPolicy::Yx,
                load: 0.05,
                seed: 0,
                ..PointSpec::default()
            },
            PointSpec {
                topology: "hring2x4".into(),
                scheme: SchemeChoice::Pc(Scheme::baseline()),
                vcs: 6,
                ..PointSpec::default()
            },
        ];
        let dir = std::env::temp_dir().join(format!("noc-cli-flags-{}", std::process::id()));
        for (i, point) in points.into_iter().enumerate() {
            let point = PointSpec {
                warmup: 20,
                measure: 50,
                drain: 3_000 + i as u64,
                ..point
            };
            let path = dir.join(format!("{i}.json"));
            let run_args = RunArgs {
                point: point.clone(),
                manifest: Some(path.to_string_lossy().into_owned()),
                ..RunArgs::default()
            };
            run(&run_args).unwrap();
            let record = std::fs::read_to_string(&path).unwrap();
            let mut flags = Vec::new();
            for (key, _) in point.coordinates() {
                flags.push(format!("--{key}"));
                flags.push(recorded(&record, key));
            }
            let again = parse_run_args(&flags).unwrap().point;
            assert_eq!(again, point, "{flags:?}");
            let hash = noc_campaign::prepare(&again).unwrap().config_hash;
            assert_eq!(hash, recorded(&record, "config_hash"), "{flags:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bad_value_breaks_the_same_rule_as_a_flag_and_in_a_spec() {
        // One row per key: a value outside its rule, as a flag and as the
        // TOML of a spec's [axes] or [phases]. Both refuse it in the same
        // words after the key's name.
        let rows: &[(&str, &str, &str, &str)] = &[
            ("topology", "5", "5", "strings"),
            ("traffic", "0.5", "0.5", "strings"),
            ("scheme", "warp", "\"warp\"", "unknown scheme"),
            ("routing", "zigzag", "\"zigzag\"", "unknown routing"),
            ("va", "psychic", "\"psychic\"", "unknown VA policy"),
            ("vcs", "256", "256", "[1, 255]"),
            ("buffer", "0", "0", "[1, 4294967295]"),
            ("packet", "65536", "65536", "[1, 65535]"),
            ("load", "0", "0", "(0, 1]"),
            ("seed", "-1", "-1", "[0, 18446744073709551615]"),
            ("warmup", "-5", "-5", "[0, 18446744073709551615]"),
            ("measure", "ten", "\"ten\"", "[0, 18446744073709551615]"),
            ("drain", "1.5", "1.5", "[0, 18446744073709551615]"),
        ];
        let keys: Vec<&str> = rows.iter().map(|row| row.0).collect();
        let table = PointSpec::default().coordinates().map(|(key, _)| key);
        assert_eq!(keys, table, "one row per key of a point");
        let phases = ["warmup", "measure", "drain"];
        for &(key, flag, toml, needle) in rows {
            let from_flag = parse_run_args(&args(&[&format!("--{key}"), flag])).unwrap_err();
            let section = if phases.contains(&key) {
                "phases"
            } else {
                "axes"
            };
            let text = format!("[{section}]\n{key} = {toml}\n");
            let from_spec = CampaignSpec::parse_toml_str(&text).unwrap_err();
            let rule = from_flag.0.strip_prefix(&format!("--{key}: "));
            let rule = rule.unwrap_or_else(|| panic!("{key}: {from_flag}"));
            assert_eq!(
                from_spec.0,
                format!("spec: {section}.{key}: {rule}"),
                "{key}"
            );
            assert!(
                rule.contains(needle) && !rule.contains('\n'),
                "{key}: {rule}"
            );
        }
        // A point key takes one value: a second flag is refused as a second
        // `key =` line of a spec is, and an array names no one point.
        let e =
            parse_run_args(&args(&["--seed", "1", "--load", "0.2", "--seed", "2"])).unwrap_err();
        assert_eq!(e.0, "--seed is given twice");
        let e = CampaignSpec::parse_toml_str("[phases]\nwarmup = [1, 2]\n").unwrap_err();
        assert_eq!(e.0, "spec: phases.warmup: takes one value, not an array");
        assert!(parse_run_args(&args(&["--load", "[0.1, 0.2]"]))
            .unwrap_err()
            .0
            .starts_with("--load: "));
    }

    #[test]
    fn metrics_off_report_has_no_observability_section() {
        let run_args = RunArgs {
            point: PointSpec {
                topology: "mesh2x2".into(),
                load: 0.05,
                packet: 2,
                warmup: 100,
                measure: 500,
                drain: 5_000,
                ..PointSpec::default()
            },
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();
        assert!(report.observability.is_none());
        assert!(!render_report(&report).contains("per-router metrics"));
    }

    #[test]
    fn evc_scheme_runs() {
        let run_args = RunArgs {
            point: PointSpec {
                topology: "mesh4x4".into(),
                scheme: SchemeChoice::Evc,
                load: 0.05,
                measure: 400,
                warmup: 100,
                drain: 4_000,
                ..PointSpec::default()
            },
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();
        assert!(report.measured_delivered > 0);
    }

    #[test]
    fn evc_full_metrics_and_trace_work() {
        // EVC rides the shared pipeline kernel, so `--metrics=full`,
        // `--trace` and `--manifest` must produce real payloads for it —
        // per-stage histograms, express-latch trace events, router dumps.
        let dir = std::env::temp_dir().join(format!("noc-cli-evc-obs-{}", std::process::id()));
        let manifest_path = dir.join("run.json");
        let trace_path = dir.join("trace.json");
        let run_args = RunArgs {
            point: PointSpec {
                topology: "mesh4x4".into(),
                scheme: SchemeChoice::Evc,
                load: 0.10,
                packet: 5,
                warmup: 200,
                measure: 2_000,
                drain: 20_000,
                ..PointSpec::default()
            },
            metrics: MetricsLevel::Full,
            manifest: Some(manifest_path.to_string_lossy().into_owned()),
            trace: Some(trace_path.to_string_lossy().into_owned()),
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();
        assert!(
            report.router_stats.express_bypasses > 0,
            "no express traffic"
        );
        let obs = report.observability.as_ref().expect("full metrics payload");
        assert_eq!(obs.routers.len(), 16);
        assert!(obs.stages.st.count() > 0, "no ST-stage samples recorded");
        assert!(obs.stages.sa.count() > 0, "no SA-stage samples recorded");
        let text = render_report(&report);
        assert!(text.contains("per-router metrics"));

        let manifest = std::fs::read_to_string(&manifest_path).unwrap();
        assert!(manifest.contains("\"scheme\": \"evc\""));
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"express-latch\""), "no latch trace events");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hybrid_scheme_runs_on_a_ring() {
        // One flag each for the two new vocabulary entries: the profiled
        // hybrid scheme on the ring topology, end to end through `run`.
        let run_args = RunArgs {
            point: PointSpec {
                topology: "ring8".into(),
                scheme: SchemeChoice::Hybrid,
                load: 0.05,
                warmup: 100,
                measure: 2_000,
                drain: 20_000,
                ..PointSpec::default()
            },
            ..RunArgs::default()
        };
        let report = run(&run_args).unwrap();
        assert!(report.drained);
        assert!(report.measured_delivered > 0);
        assert!(
            report.router_stats.pc_reuses > 0,
            "hybrid never held a circuit: {:?}",
            report.router_stats
        );
    }

    #[test]
    fn usage_keeps_its_columns() {
        let text = usage();
        for line in ["noc run [flags]", "--topology mesh8x8", "--threads N"] {
            assert!(
                text.contains(&format!("\n  {line}")),
                "{line:?} lost its indent"
            );
        }
        // A continuation line sits in the description column of the line
        // above it.
        let continuation = " ".repeat(22) + "run/resume a cached sweep";
        assert!(text.contains(&format!("\n{continuation}")), "{text}");
    }

    #[test]
    fn usage_shows_every_point_flag_with_its_default() {
        let text = usage();
        let mut flags = Vec::new();
        for (key, default) in PointSpec::default().coordinates() {
            let flag = format!("--{key} {default}");
            assert!(text.contains(&flag), "{flag:?} missing from {text}");
            flags.extend([format!("--{key}"), default.to_string()]);
        }
        // And the defaults shown name the default point.
        assert_eq!(parse_run_args(&flags).unwrap(), RunArgs::default());
        assert!(!text.lines().any(|line| line.ends_with(' ')), "{text}");
    }

    #[test]
    fn list_and_usage_mention_key_names() {
        let list = render_list();
        assert!(list.contains("fma3d") && list.contains("mecs4x4"));
        // The listing is rendered from the shared vocabulary tables, so the
        // new scheme and topology grammar must appear.
        assert!(list.contains("hybrid"), "{list}");
        assert!(list.contains("ring<N>[c<C>]"), "{list}");
        assert!(list.contains("hring<G>x<L>[c<C>]"), "{list}");
        // Everything `noc list` advertises as a scheme actually parses.
        for name in noc_campaign::SCHEME_NAMES {
            assert!(SchemeChoice::parse(name).is_ok(), "{name}");
        }
        assert!(usage().contains("noc run"));
        assert!(usage().contains("noc campaign run"));
    }

    #[test]
    fn campaign_args_parse() {
        let cmd = parse_campaign_args(&args(&[
            "run",
            "--spec",
            "sweep.toml",
            "--out",
            "out/sweep",
            "--threads",
            "2",
            "--max-points",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            CampaignCommand::Run {
                spec: "sweep.toml".into(),
                out: "out/sweep".into(),
                threads: 2,
                max_points: Some(3),
            }
        );
        assert_eq!(
            parse_campaign_args(&args(&["status", "--spec", "s.toml", "--out", "d"])).unwrap(),
            CampaignCommand::Status {
                spec: "s.toml".into(),
                out: "d".into()
            }
        );
        assert!(parse_campaign_args(&args(&["status", "--out", "d"]))
            .unwrap_err()
            .0
            .contains("--spec"));
        assert_eq!(
            parse_campaign_args(&args(&["expand", "--spec", "s.toml"])).unwrap(),
            CampaignCommand::Expand {
                spec: "s.toml".into()
            }
        );
        assert!(parse_campaign_args(&[]).unwrap_err().0.contains("verb"));
        assert!(parse_campaign_args(&args(&["run", "--out", "d"]))
            .unwrap_err()
            .0
            .contains("--spec"));
        assert!(parse_campaign_args(&args(&["run", "--spec", "s"]))
            .unwrap_err()
            .0
            .contains("--out"));
        // --max-points belongs to `run` only.
        assert!(parse_campaign_args(&args(&["status", "--max-points", "3"])).is_err());
    }

    #[test]
    fn campaign_run_and_status_work_end_to_end() {
        let dir = std::env::temp_dir().join(format!("noc-cli-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("sweep.toml");
        std::fs::write(
            &spec_path,
            "name = \"smoke\"\n[phases]\nwarmup = 50\nmeasure = 200\ndrain = 2000\n\
             [axes]\ntopology = \"mesh2x2\"\npacket = 2\nload = [0.02, 0.05]\n",
        )
        .unwrap();
        let out = dir.join("out");
        let run = CampaignCommand::Run {
            spec: spec_path.to_string_lossy().into_owned(),
            out: out.to_string_lossy().into_owned(),
            threads: 1,
            max_points: None,
        };
        let text = run_campaign_command(&run).unwrap();
        assert!(
            text.contains("2 points | cache hits 0 | executed 2"),
            "{text}"
        );
        assert!(text.contains("report:"), "{text}");
        // Second run: everything cached.
        let text = run_campaign_command(&run).unwrap();
        assert!(
            text.contains("2 points | cache hits 2 | executed 0"),
            "{text}"
        );
        let status_of = |dir: &Path| {
            run_campaign_command(&CampaignCommand::Status {
                spec: spec_path.to_string_lossy().into_owned(),
                out: dir.to_string_lossy().into_owned(),
            })
            .unwrap()
        };
        let status = status_of(&out);
        assert!(
            status.starts_with("campaign smoke @ ")
                && status.ends_with(": 2/2 points cached | report.json present"),
            "{status}"
        );
        // A cache entry cut short mid-write is a miss, not an error.
        let entry = std::fs::read_dir(out.join("cache"))
            .unwrap()
            .next()
            .unwrap();
        let entry = entry.unwrap().path();
        let whole = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, &whole[..whole.len() / 2]).unwrap();
        assert!(status_of(&out).contains(": 1/2 points cached"));
        // Status only reads: a directory that is not there stays absent.
        let nowhere = dir.join("nowhere");
        let none = status_of(&nowhere);
        assert!(
            none.ends_with(": 0/2 points cached | no report yet"),
            "{none}"
        );
        assert!(!nowhere.exists(), "status created {}", nowhere.display());
        let expand = run_campaign_command(&CampaignCommand::Expand {
            spec: spec_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(expand.contains("2 point(s)"), "{expand}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
