//! `noc-benchmark`: the repository benchmark.
//!
//! ```text
//! noc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//!               [--out FILE] [--out-dir DIR]
//! noc-benchmark compare A.json B.json
//! noc-benchmark compare A1.json A2.json ... --vs B1.json B2.json ...
//! noc-benchmark describe [--json]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is the result object described in
//! `BENCHMARK.md`. Without it every workload runs in a child process of its
//! own (so `peak_rss_mb` is per workload) and the results are merged into
//! one file. The process exits non-zero when a correctness check fails.

mod campaign;
mod compare;
mod layers;
mod registry;
mod report;
mod simrun;
mod spans;
mod stats;
mod workloads;

use report::{HostInfo, Outcome};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{SimCase, WORKLOADS};

/// Measuring time per workload, in seconds (`run_seconds` in
/// `BENCHMARK.json`, and the default of `--seconds`).
const RUN_SECONDS: u64 = 20;

/// What one workload run is asked to do.
pub struct RunOpts {
    /// Every input is generated from this.
    pub seed: u64,
    /// How long the untraced repetitions measure for.
    pub seconds: f64,
    /// Whether to add the traced repetition and the layer drivers.
    pub trace: bool,
    /// Shrink every length to about 1/100.
    pub smoke: bool,
    /// Where sweep directories, traces and result files go: inside the
    /// build's target directory, so nothing is written outside the checkout.
    pub out_dir: PathBuf,
}

struct Args {
    workload: Option<String>,
    opts: RunOpts,
    out_file: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: noc-benchmark [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--out FILE] [--out-dir DIR]\n       noc-benchmark compare A.json B.json\n       \
         noc-benchmark describe [--json]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let target_dir = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("the executable is not inside a target directory")?;
    let mut parsed = Args {
        workload: None,
        opts: RunOpts {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            out_dir: target_dir.join("benchmark"),
        },
        out_file: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}\n{}", usage()));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.opts.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.opts.seconds = value(&mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                // `--trace` alone switches tracing on; `--trace 0|1` sets it.
                parsed.opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => {
                parsed.opts.smoke = true;
                parsed.opts.seconds = 0.0;
            }
            "--out" => parsed.out_file = Some(PathBuf::from(value(&mut i, flag)?)),
            "--out-dir" => parsed.opts.out_dir = PathBuf::from(value(&mut i, flag)?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its result.
fn run_workload(name: &str, opts: &RunOpts, host: &HostInfo) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let (outcome, spans): (Outcome, Spans) = match SimCase::named(name, opts.smoke) {
        Some(case) => simrun::run(&case, opts)?,
        None => campaign::run(opts)?,
    };
    outcome.validate(opts.trace)?;
    outcome.print(host, opts.trace);
    if opts.trace {
        println!("  self time by span (span minus its children):");
        for (span, ns, count) in spans.self_time_by_name() {
            println!("    {span:<28} {:>12.6} s  x{count}", ns as f64 * 1e-9);
        }
        let path = opts.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, spans.to_chrome_json(name))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  trace written to {}", path.display());
    }
    let path = opts.out_dir.join(format!("result-{name}.json"));
    std::fs::write(&path, outcome.to_json(host))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", outcome.result_line(opts.trace));
    Ok(outcome.correct())
}

/// Runs every workload, each in a child process, and merges their result
/// files.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let opts = &args.opts;
    let mut all_ok = true;
    let mut merged = String::from("{\"results\": [\n");
    for (i, name) in WORKLOADS.iter().enumerate() {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        child.arg("--out-dir").arg(&opts.out_dir);
        if opts.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {name} child process: {e}"))?;
        all_ok &= status.success();
        let path = opts.out_dir.join(format!("result-{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{name} left no result at {}: {e}", path.display()))?;
        if i > 0 {
            merged.push_str(",\n");
        }
        merged.push_str(text.trim_end());
    }
    merged.push_str("\n]}\n");
    let out = args
        .out_file
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("results.json"));
    std::fs::write(&out, merged).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "results of all {} workloads written to {}",
        WORKLOADS.len(),
        out.display()
    );
    Ok(all_ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare::run(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "describe") {
        // `--json` prints the text of BENCHMARK.json; plain prints the glossary.
        if args.get(1).is_some_and(|a| a == "--json") {
            print!("{}", registry::benchmark_json(RUN_SECONDS));
        } else {
            print!("{}", registry::catalogue_text());
        }
        return Ok(true);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(true);
    }
    let args = parse_args(&args)?;
    // Both would change what is measured behind the benchmark's back.
    for var in ["NOC_THREADS", "NOC_NO_FASTFWD"] {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} must be unset while the benchmark runs"));
        }
    }
    match &args.workload {
        Some(name) => {
            let host = HostInfo::probe();
            // Back-to-back runs see their predecessor's load (about 1 per
            // busy thread); more than that is somebody else's work.
            if host.load1().is_some_and(|l| l > host.nproc as f64) {
                println!(
                    "warning: loadavg {} on {} cores - something else is running; host \
                     metrics will read slow",
                    host.loadavg, host.nproc
                );
            }
            run_workload(name, &args.opts, &host)
        }
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
