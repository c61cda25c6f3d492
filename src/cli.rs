//! Command-line experiment runner backing the `noc` binary.
//!
//! Hand-rolled argument parsing (no external dependency) exposed as a
//! library so it is unit-testable. Grammar:
//!
//! ```text
//! noc run [--topology mesh8x8|cmesh4x4|mecs4x4|fbfly4x4|mesh<W>x<H>[c<C>]
//!                     |ring<N>[c<C>]|hring<G>x<L>[c<C>]]
//!         [--traffic ur|bc|bp|tornado|neighbor|<benchmark>]
//!         [--load 0.10] [--packet 5]
//!         [--scheme baseline|pseudo|pseudo+ps|pseudo+bb|pseudo+ps+bb|evc|hybrid]
//!         [--routing xy|yx|o1turn] [--va static|dynamic]
//!         [--vcs 4] [--buffer 4]
//!         [--warmup 1000] [--measure 10000] [--drain 100000]
//!         [--seed 1]
//!         [--metrics off|full] [--manifest PATH]
//!         [--trace PATH] [--trace-routers 0,5,12]
//! noc campaign run --spec FILE --out DIR [--threads N] [--max-points N]
//! noc campaign status --spec FILE --out DIR
//! noc campaign expand --spec FILE
//! noc list            # available traffic names and topologies
//! ```
//!
//! The experiment flags fill in a [`noc_campaign::PointSpec`] — the same
//! struct a campaign expands its axes into — and [`run`] builds it through
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

use noc_base::pool::host_threads;
use noc_campaign::{
    build_simulation, cache_pass, parse_routing, parse_va, prepare, write_atomic, CampaignOptions,
    CampaignSpec, PointResult, PointSpec, SchemeChoice,
};
use noc_sim::{MetricsConfig, MetricsLevel, SimReport, TraceSpec};
use noc_traffic::BenchmarkProfile;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// A fully parsed experiment description: the point to simulate plus how to
/// execute and observe it.
#[derive(Clone, Debug, PartialEq)]
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

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            point: PointSpec::default(),
            metrics: MetricsLevel::Off,
            manifest: None,
            trace: None,
            trace_routers: Vec::new(),
        }
    }
}

/// A CLI usage error with a human-readable message.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<noc_campaign::Error> for CliError {
    fn from(e: noc_campaign::Error) -> Self {
        CliError(e.0)
    }
}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

/// Parses `run` subcommand arguments.
///
/// # Errors
///
/// Returns a [`CliError`] describing the first unknown flag, missing value,
/// or unparseable number, or `--trace-routers` given without `--trace`.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, CliError> {
    let mut out = RunArgs::default();
    let point = &mut out.point;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--topology" => point.topology = value()?,
            "--traffic" => point.traffic = value()?,
            "--load" => point.load = parse_num(&value()?, flag)?,
            "--packet" => point.packet = parse_num(&value()?, flag)?,
            "--scheme" => point.scheme = SchemeChoice::parse(&value()?)?,
            "--routing" => point.routing = parse_routing(&value()?)?,
            "--va" => point.va = parse_va(&value()?)?,
            "--vcs" => point.vcs = parse_num(&value()?, flag)?,
            "--buffer" => point.buffer = parse_num(&value()?, flag)?,
            "--warmup" => point.warmup = parse_num(&value()?, flag)?,
            "--measure" => point.measure = parse_num(&value()?, flag)?,
            "--drain" => point.drain = parse_num(&value()?, flag)?,
            "--seed" => point.seed = parse_num(&value()?, flag)?,
            "--metrics" => {
                let v = value()?;
                out.metrics = MetricsLevel::parse(&v)
                    .ok_or_else(|| err(format!("unknown metrics level {v:?} (off|full)")))?;
            }
            "--manifest" => out.manifest = Some(value()?),
            "--trace" => out.trace = Some(value()?),
            "--trace-routers" => {
                let v = value()?;
                out.trace_routers = v
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| parse_num(s.trim(), flag))
                    .collect::<Result<Vec<usize>, _>>()?;
            }
            other => return Err(err(format!("unknown flag {other:?} (see `noc help`)"))),
        }
    }
    if out.trace.is_none() && !out.trace_routers.is_empty() {
        return Err(err(
            "--trace-routers needs --trace PATH to write the trace to",
        ));
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
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
/// Returns a [`CliError`] when the topology or traffic spec is invalid, a
/// value is out of range for the configuration (see
/// [`noc_campaign::prepare`]), a `--trace-routers` id names no router of the
/// topology, or a requested output file cannot be written.
pub fn run(args: &RunArgs) -> Result<SimReport, CliError> {
    let point = &args.point;
    let metrics = MetricsConfig {
        level: args.metrics,
        trace: args
            .trace
            .as_ref()
            .map(|_| TraceSpec::routers(args.trace_routers.clone())),
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
        let record = PointResult::from_report(&prepare(point)?, &noc_sim::git_rev(), &report);
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
/// Returns a [`CliError`] for a missing verb, unknown flags, or missing
/// required flags (`--spec`, `--out`).
pub fn parse_campaign_args(args: &[String]) -> Result<CampaignCommand, CliError> {
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
/// Returns a [`CliError`] for unreadable/invalid specs, a `NOC_THREADS` that
/// is not a positive integer (`run` only), and any execution failure (see
/// [`noc_campaign::run_campaign`] and [`noc_campaign::cache_pass`]).
pub fn run_campaign_command(command: &CampaignCommand) -> Result<String, CliError> {
    match command {
        CampaignCommand::Run {
            spec,
            out,
            threads,
            max_points,
        } => {
            host_threads().map_err(CliError)?;
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

/// The `noc help` text.
pub fn usage() -> &'static str {
    "noc — pseudo-circuit NoC experiment runner\n\
     \n\
     USAGE:\n\
       noc run [flags]     run one experiment and print its report\n\
       noc campaign run --spec FILE --out DIR [--threads N] [--max-points N]\n\
                           run/resume a cached sweep (docs/CAMPAIGNS.md)\n\
       noc campaign status --spec FILE --out DIR\n\
                           count the sweep's points already cached\n\
       noc campaign expand --spec FILE   print the expanded point set\n\
       noc list            list traffic models, topologies and schemes\n\
       noc help            this text\n\
     \n\
     FLAGS (with defaults):\n\
       --topology mesh8x8    --traffic ur        --load 0.10    --packet 5\n\
       --scheme pseudo+ps+bb --routing xy        --va static\n\
       --vcs 4               --buffer 4\n\
       --warmup 1000         --measure 10000     --drain 100000 --seed 1\n\
     \n\
     CAMPAIGN FLAGS (campaign run only):\n\
       --threads N           points simulated at once, one per thread (default:\n\
                             the host's CPUs, capped by NOC_THREADS); each\n\
                             simulation is serial, so results never depend on it\n\
       --max-points N        stop after N uncached points (re-run to resume)\n\
     \n\
     OBSERVABILITY (defaults off; see docs/METRICS.md):\n\
       --metrics off|full        per-router counters + stage histograms (full)\n\
       --manifest PATH           write the run's record (JSON): its flags, git\n\
                                 revision, config hash and results; the same\n\
                                 record a campaign caches for the point\n\
       --trace PATH              write router lifecycle events (circuit + EVC\n\
                                 latch) as Chrome-trace JSON (chrome://tracing)\n\
       --trace-routers 0,5,12    restrict tracing to these routers (default all;\n\
                                 needs --trace, ids below the router count)"
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_base::{RoutingPolicy, VaPolicy};
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
        // A hostile NOC_THREADS ends `campaign run` with this one line.
        // Checked on the pure function it hands the variable to: setting it
        // here would race the getenv of the tests running beside this one
        // (scripts/check.sh drives the real environment).
        for hostile in ["lots", "0", "-2"] {
            let e = noc_base::pool::host_threads_from(Some(hostile)).unwrap_err();
            assert_eq!(
                e,
                format!("NOC_THREADS must be a positive integer, got {hostile:?}")
            );
        }
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
        // flags parse (the values are well-formed); the shared validation
        // behind `prepare` and `run` must reject them, naming the field.
        let table: &[(&[&str], &str)] = &[
            (&["--scheme", "evc", "--topology", "ring8"], "scheme"),
            (&["--scheme", "evc", "--routing", "o1turn"], "scheme"),
            (&["--scheme", "evc", "--vcs", "3"], "vcs"),
            (&["--vcs", "0"], "vcs"),
            (&["--vcs", "66"], "vcs: at most 64"),
            (&["--topology", "mesh2x2c61"], "65 ports"),
            (&["--vcs", "1", "--routing", "o1turn"], "vcs"),
            (&["--buffer", "0"], "buffer"),
            // Both used to build the whole network and die in
            // `FlitPool::new`; the first wrapped a `u32` product on the way.
            (
                &["--buffer", "4294967295"],
                "buffer: 4294967295 flits on each of 4 VCs",
            ),
            (&["--vcs", "64", "--buffer", "1024"], "in flight on mesh8x8"),
            (&["--packet", "0"], "packet"),
            (&["--load", "-1"], "load"),
            (&["--load", "5"], "load"),
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
        // and a serial `--metrics off` one is that entry, byte for byte.
        let dir = std::env::temp_dir().join(format!("noc-cli-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let point = PointSpec {
            topology: "mesh2x2".into(),
            load: 0.071,
            packet: 3,
            warmup: 100,
            measure: 500,
            drain: 5_000,
            ..PointSpec::default()
        };
        let manifest_at = |metrics, name: &str| {
            let path = dir.join("runs").join(name);
            let run_args = RunArgs {
                point: point.clone(),
                metrics,
                manifest: Some(path.to_string_lossy().into_owned()),
                ..RunArgs::default()
            };
            run(&run_args).unwrap();
            std::fs::read_to_string(path).unwrap()
        };
        let full = manifest_at(MetricsLevel::Full, "full.json");
        let off = manifest_at(MetricsLevel::Off, "off.json");
        for key in ["\"metrics\": \"full\"", "\"routers\": ["] {
            assert!(full.contains(key), "{key} missing from {full}");
        }
        assert!(!full.contains("\"threads\""), "{full}");
        let record = PointResult::from_json(&full).unwrap();

        let spec = CampaignSpec {
            warmup: point.warmup,
            measure: point.measure,
            drain: point.drain,
            axes: noc_campaign::Axes {
                topology: vec![point.topology.clone()],
                load: vec![point.load],
                packet: vec![point.packet],
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
