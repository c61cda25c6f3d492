//! Running a single-simulation workload: untraced repetitions, the baseline
//! comparison, the correctness checks, and (with `--trace`) one traced
//! repetition plus the isolated layer drivers.

use crate::layers;
use crate::report::{seconds_list, Outcome};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{report_hash, SimCase, Traffic};
use crate::RunOpts;
use noc_evc::EvcRouterFactory;
use noc_sim::{RunSpec, SimReport};
use noc_traffic::CmpTraffic;
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::time::Instant;

/// Engine thread budget of every timed repetition. The sharded engine is
/// run, checked and reported per layer, not timed end to end: see `run`.
const TIMED_THREADS: usize = 1;

/// Fewest untraced repetitions behind a host time.
pub fn min_reps(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        5
    }
}

/// Timed builds after each untraced repetition, for `setup_s`.
const EXTRA_BUILDS: usize = 4;

/// One untraced repetition's measurements.
struct Rep {
    setup_s: f64,
    run_s: f64,
    report: SimReport,
    fast_forwarded: u64,
    cmp_stall_frac: f64,
}

fn repetition(case: &SimCase, seed: u64, scheme: Scheme, threads: usize) -> Result<Rep, String> {
    let start = Instant::now();
    let mut sim = case.build(seed, scheme, threads, &mut Spans::off())?;
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = sim.run(case.phases);
    let run_s = start.elapsed().as_secs_f64();
    let cmp_stall_frac = sim
        .traffic_model()
        .as_any()
        .and_then(|a| a.downcast_ref::<CmpTraffic>())
        .map_or(0.0, |cmp| cmp.stats().stall_fraction());
    Ok(Rep {
        setup_s,
        run_s,
        report,
        fast_forwarded: sim.fast_forwarded_cycles(),
        cmp_stall_frac,
    })
}

/// `VmHWM` of this process in MB, or 0 where `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs a single-simulation workload.
///
/// # Errors
///
/// Returns a message when the workload's inputs cannot be built.
pub fn run(case: &SimCase, opts: &RunOpts) -> Result<(Outcome, Spans), String> {
    let mut out = Outcome::new(case.name, opts.seed, opts.smoke);
    let measured = Scheme::pseudo_ps_bb();
    out.notes.push(format!(
        "config: {} {} / {} · 4 VC x 4 flits · {:?} · {measured} · threads={TIMED_THREADS} · \
         warmup {} / measure {} / drain {} · {} loop",
        case.topology,
        case.routing,
        case.va,
        case.traffic,
        case.phases.warmup,
        case.phases.measure,
        case.phases.drain,
        if matches!(case.traffic, Traffic::Cmp { .. }) {
            "closed"
        } else {
            "open"
        }
    ));

    // Untraced repetitions, each on a fresh simulation (the first one
    // counts too: caches are cold for real users as well), until the
    // measuring time is spent.
    //
    // Memory is read after the first one: that is what one fresh run of the
    // workload needs, and the same work in every invocation. Read after all
    // of them it came out as 20.9 or 24.3 MB on `sharded_mesh32` from one
    // invocation to the next, by how the allocator had reused the freed
    // simulations' memory.
    //
    // Set-up is short, so each repetition is followed by extra builds: 25
    // samples at least, spread over the whole run. Taken in one burst at the
    // end they all sat in the same few milliseconds of this host.
    let begun = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup_samples = Vec::new();
    let mut peak_rss = 0.0;
    while reps.len() < min_reps(opts.smoke) || begun.elapsed().as_secs_f64() < opts.seconds {
        let rep = repetition(case, opts.seed, measured, TIMED_THREADS)?;
        if reps.is_empty() {
            peak_rss = peak_rss_mb();
        }
        setup_samples.push(rep.setup_s);
        reps.push(rep);
        for _ in 0..EXTRA_BUILDS {
            let start = Instant::now();
            let sim = case.build(opts.seed, measured, TIMED_THREADS, &mut Spans::off())?;
            setup_samples.push(start.elapsed().as_secs_f64());
            drop(sim);
        }
    }

    let first = &reps[0];
    let report = &first.report;
    out.report_hash = report_hash(report);
    out.attempted = report.measured_injected;
    out.failed = report.measured_injected - report.measured_delivered;
    out.check(
        "measured run drained",
        report.drained,
        format!("{}", report.drained),
    );
    out.check_eq(
        "measured_delivered == measured_injected",
        report.measured_delivered,
        report.measured_injected,
    );
    let same = reps
        .iter()
        .all(|r| report_hash(&r.report) == out.report_hash);
    out.check(
        "every repetition simulated the same thing",
        same,
        format!(
            "{} repetitions, report_hash {}",
            reps.len(),
            out.report_hash
        ),
    );
    if matches!(case.traffic, Traffic::Bursts { .. }) {
        // `build` fails unless the trace survived write_trace -> read_trace.
        out.check(
            "replayed trace equals the records written",
            true,
            "checked in every build",
        );
    }

    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let run = Summary::fastest(&run_s);
    out.notes.push(format!(
        "run wall per repetition, s (the fastest is reported): {}",
        seconds_list(&run_s)
    ));
    let cycles = report.cycles as f64;
    let traversals = report.router_stats.flit_traversals as f64;
    out.set("setup_s", Summary::fastest(&setup_samples));
    out.set("sim_cycles_per_s", run.map(|s| cycles / s));
    out.set("host_ns_per_flit_hop", run.map(|s| s * 1e9 / traversals));
    out.set("peak_rss_mb", Summary::exact(peak_rss));
    out.set("avg_latency_cycles", Summary::exact(report.avg_latency));
    out.set(
        "accepted_flits_node_cycle",
        Summary::exact(report.throughput),
    );
    let energy_per_hop =
        |r: &SimReport| r.energy_pj() / r.router_stats.flit_traversals.max(1) as f64;
    out.set(
        "energy_pj_per_flit_hop",
        Summary::exact(energy_per_hop(report)),
    );

    // One baseline run of the same configuration, for the reductions.
    let baseline = repetition(case, opts.seed, Scheme::baseline(), TIMED_THREADS)?.report;
    out.check(
        "baseline run drained",
        baseline.drained,
        format!("{}", baseline.drained),
    );
    out.set(
        "latency_reduction_pct",
        Summary::exact(report.latency_reduction_vs(&baseline) * 100.0),
    );
    out.set(
        "energy_reduction_pct",
        Summary::exact((1.0 - energy_per_hop(report) / energy_per_hop(&baseline)) * 100.0),
    );
    out.notes.push(format!(
        "latency {:.3} vs baseline {:.3} cycles over {} packets (p99 bound {}); the paper reports \
         ~16% latency and 20-25% energy reduction on its own traces - for orientation only, this \
         model is unvalidated",
        report.avg_latency,
        baseline.avg_latency,
        report.measured_delivered,
        report.p99_latency_bound
    ));

    // Thread count must not change results. The sharded run is timed too
    // (fastest of three on a traced run), but only as a per-layer metric: on
    // this host two barrier-coupled threads wait for whichever vCPU the
    // hypervisor took away, and no statistic of their wall is steady.
    let mut sharded_run_s = None;
    if let Some(threads) = case.sharded_threads {
        let runs = (0..if opts.trace { 3 } else { 1 })
            .map(|_| repetition(case, opts.seed, measured, threads))
            .collect::<Result<Vec<_>, _>>()?;
        out.check(
            "the sharded run's report_hash equals the threads=1 run's",
            runs.iter()
                .all(|r| report_hash(&r.report) == out.report_hash),
            format!("threads={threads}, {} run(s)", runs.len()),
        );
        let walls: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
        sharded_run_s = Some(Summary::fastest(&walls).value);
    }
    // Fast-forwarding must not change results.
    if matches!(case.traffic, Traffic::Bursts { .. }) {
        let head = RunSpec::new(0, case.window().min(200_000), case.phases.drain);
        let mut hashes = Vec::new();
        for fast_forward in [true, false] {
            let mut sim = case.build(opts.seed, measured, TIMED_THREADS, &mut Spans::off())?;
            sim.set_fast_forward(fast_forward);
            hashes.push(report_hash(&sim.run(head)));
        }
        out.check_eq(
            "first 200k cycles: same report_hash with fast-forward off",
            hashes[1].clone(),
            hashes[0].clone(),
        );
    }

    let mut spans = Spans::new(opts.trace);
    if opts.trace {
        traced(
            case,
            opts,
            first,
            run.value,
            sharded_run_s,
            &mut out,
            &mut spans,
        )?;
    }
    Ok((out, spans))
}

/// The traced repetition and the layer drivers; fills the per-layer
/// metrics.
fn traced(
    case: &SimCase,
    opts: &RunOpts,
    first: &Rep,
    untraced_run_s: f64,
    sharded_run_s: Option<f64>,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let report = &first.report;
    let stats = report.router_stats;

    let (sim, traced_report) = spans.scope("workload", |spans| {
        let mut sim = case.build(opts.seed, Scheme::pseudo_ps_bb(), TIMED_THREADS, spans)?;
        spans.scope("sim.warmup", |_| sim.advance(case.phases.warmup));
        let rest = RunSpec::new(0, case.phases.measure, case.phases.drain);
        let traced_report = spans.scope("sim.measure_drain", |_| sim.run(rest));
        spans.scope("sim.report", |_| {
            std::hint::black_box(report_hash(&traced_report));
        });
        Ok::<_, String>((sim, traced_report))
    })?;
    out.check(
        "traced repetition measured the same window",
        traced_report.measured_injected == report.measured_injected
            && traced_report.avg_latency == report.avg_latency
            && traced_report.cycles == report.cycles,
        format!(
            "{} packets, latency {:?}",
            traced_report.measured_injected, traced_report.avg_latency
        ),
    );
    let warmup_s = spans.total_s("sim.warmup");
    let measure_drain_s = spans.total_s("sim.measure_drain");
    let traced_run_s = warmup_s + measure_drain_s;
    let stepped = (report.cycles - first.fast_forwarded) as f64;

    out.layer("sim.new_s", spans.total_s("sim.new"));
    out.layer("sim.warmup_s", warmup_s);
    out.layer("sim.measure_drain_s", measure_drain_s);
    out.layer("sim.report_s", spans.total_s("sim.report"));
    out.layer(
        "sim.step_ns_per_stepped_cycle",
        untraced_run_s * 1e9 / stepped.max(1.0),
    );
    out.layer(
        "sim.fast_forwarded_frac",
        first.fast_forwarded as f64 / report.cycles.max(1) as f64,
    );
    out.layer(
        "sim.trace_overhead_pct",
        (traced_run_s / untraced_run_s - 1.0) * 100.0,
    );
    if let Some(sharded) = sharded_run_s {
        out.layer("sim.t2_over_t1", untraced_run_s / sharded);
    }
    report_counts(out, report);
    out.layer("traffic.cmp_stall_frac", first.cmp_stall_frac);

    let drivers = layer_drivers(case, opts, false, out, spans)?;
    let run_ns = (traced_run_s * 1e9).max(1.0);
    let flits = stats.flit_traversals as f64 / (report.avg_hops + 1.0);
    let routers = sim.topology().num_routers() as f64;
    out.layer(
        "attributed_share.traffic",
        drivers.generate_ns * stepped / run_ns,
    );
    out.layer(
        "attributed_share.topology",
        drivers.route_ns * stats.header_traversals as f64 / run_ns,
    );
    out.layer("attributed_share.base", drivers.pool_ns * flits / run_ns);
    out.layer(
        "attributed_share.sim_fifo",
        drivers.fifo_ns * (stats.flit_traversals - stats.buffer_bypasses) as f64 / run_ns,
    );
    out.layer(
        "attributed_share.core",
        drivers.router_step_ns * stepped * routers / run_ns,
    );
    out.zero_remaining_layers();
    Ok(())
}

/// Exact counts and ratios read from a report's public fields.
pub fn report_counts(out: &mut Outcome, report: &SimReport) {
    let stats = report.router_stats;
    out.layer("sim.flit_traversals", stats.flit_traversals as f64);
    out.layer("sim.sa_grants", stats.sa_grants as f64);
    out.layer("sim.va_grants", stats.va_grants as f64);
    out.layer("sim.final_backlog", report.final_backlog as f64);
    out.layer(
        "sim.p99_latency_bound_cycles",
        report.p99_latency_bound as f64,
    );
    out.layer("sim.measured_packets", report.measured_delivered as f64);
    out.layer(
        "sim.undelivered_frac",
        (report.measured_injected - report.measured_delivered) as f64
            / report.measured_injected.max(1) as f64,
    );
    out.layer("core.pc_reuse_frac", stats.reusability());
    out.layer("core.header_hit_frac", stats.header_hit_rate());
    out.layer("core.buffer_bypass_frac", stats.bypass_rate());
    out.layer("core.xbar_locality", stats.xbar_locality());
    out.layer("core.spec_restores", stats.pc_speculative_restores as f64);
    out.layer("core.term_conflict", stats.pc_terminations_conflict as f64);
    out.layer("core.term_credit", stats.pc_terminations_credit as f64);
    let (buffer, xbar, arbiter) = report.energy_breakdown.shares();
    out.layer("energy.buffer_pj_frac", buffer);
    out.layer("energy.xbar_pj_frac", xbar);
    out.layer("energy.arbiter_pj_frac", arbiter);
}

/// The driver readings the attributed shares are built from.
pub struct DriverReadings {
    /// `traffic.generate_ns_per_cycle`.
    pub generate_ns: f64,
    /// `topology.route_ns`.
    pub route_ns: f64,
    /// `base.pool_alloc_free_ns`.
    pub pool_ns: f64,
    /// `sim.fifo_push_pop_ns`.
    pub fifo_ns: f64,
    /// `core.router_step_ns`.
    pub router_step_ns: f64,
}

/// Runs every isolated layer driver on inputs shaped like `case`, one span
/// each under a `layers` span, and records their per-layer metrics.
/// `with_evc` adds the EVC router driver (only the sweep runs that router).
///
/// # Errors
///
/// Returns a message when the case's inputs cannot be built.
pub fn layer_drivers(
    case: &SimCase,
    opts: &RunOpts,
    with_evc: bool,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<DriverReadings, String> {
    spans.scope("layers", |spans| {
        drive_layers(case, opts, with_evc, out, spans)
    })
}

fn drive_layers(
    case: &SimCase,
    opts: &RunOpts,
    with_evc: bool,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<DriverReadings, String> {
    let scale = if opts.smoke { 100 } else { 1 };
    let topo = noc_campaign::build_topology(case.topology).map_err(|e| e.to_string())?;

    let mut model = case.build_traffic(&topo, opts.seed)?;
    let closed = matches!(case.traffic, Traffic::Cmp { .. });
    let (generate_ns, requests) = spans.scope("traffic.generate", |_| {
        layers::traffic_generate(model.as_mut(), case.window(), closed.then_some(15))
    });
    out.layer("traffic.generate_ns_per_cycle", generate_ns);
    out.layer("traffic.requests", requests as f64);
    let mut model = case.build_traffic(&topo, opts.seed)?;
    let calls = (case.window() / 64).clamp(1, 200_000);
    let next_ns = spans.scope("traffic.next_injection", |_| {
        layers::traffic_next_injection(model.as_mut(), calls, 64)
    });
    out.layer("traffic.next_injection_ns", next_ns);
    if matches!(case.traffic, Traffic::Bursts { .. }) {
        let records = case.burst_records(opts.seed);
        let (write, read) = spans.scope("traffic.trace_codec", |_| layers::trace_codec(&records));
        out.layer("traffic.trace_write_mb_per_s", write);
        out.layer("traffic.trace_read_mb_per_s", read);
    }

    let route_ns = spans.scope("topology.route", |_| {
        layers::topology_route(topo.as_ref(), case.routing, opts.seed, 1_000_000 / scale)
    });
    out.layer("topology.route_ns", route_ns);
    let wiring_s = spans.scope("topology.wiring_build", |_| {
        layers::wiring_build(topo.as_ref())
    });
    out.layer("topology.wiring_build_s", wiring_s);

    let pool_ns = spans.scope("base.pool_alloc_free", |_| {
        layers::pool_alloc_free(4_000_000 / scale)
    });
    out.layer("base.pool_alloc_free_ns", pool_ns);
    if case.sharded_threads.is_some() {
        let (batch, wait) = spans.scope("base.workerpool", |_| layers::workerpool(50_000 / scale));
        out.layer("base.workerpool_batch_ns", batch);
        out.layer("base.workerpool_wait_ns", wait);
    }
    let fifo_ns = spans.scope("sim.fifo_push_pop", |_| {
        layers::fifo_push_pop(10_000_000 / scale)
    });
    out.layer("sim.fifo_push_pop_ns", fifo_ns);

    let packet = match case.traffic {
        Traffic::Cmp { .. } => 5,
        Traffic::Uniform { packet, .. } | Traffic::Bursts { packet, .. } => packet,
    };
    let cycles = 400_000 / scale;
    let step = |name: &str, factory: &dyn noc_sim::RouterFactory, spans: &mut Spans| {
        spans.scope(name, |_| {
            let (ns, stats) = layers::router_step(
                factory,
                case.config(),
                case.port_load,
                packet,
                opts.seed,
                cycles,
            );
            assert!(stats.flit_traversals > 0, "the router driver moved no flit");
            ns
        })
    };
    let router_step_ns = step(
        "core.router_step",
        &PcRouterFactory::new(Scheme::pseudo_ps_bb()),
        spans,
    );
    out.layer("core.router_step_ns", router_step_ns);
    let baseline_ns = step(
        "core.baseline_router_step",
        &PcRouterFactory::new(Scheme::baseline()),
        spans,
    );
    out.layer("core.baseline_router_step_ns", baseline_ns);
    if with_evc {
        let evc_ns = step("evc.router_step", &EvcRouterFactory::default(), spans);
        out.layer("evc.router_step_ns", evc_ns);
    }

    // The same 100-cycle run the CLI is asked for (its defaults: uniform
    // 0.10, 5-flit packets, pseudo+ps+bb, seed 1), inside this process.
    let cli_case = SimCase {
        name: "cli",
        topology: "mesh8x8",
        routing: noc_base::RoutingPolicy::Xy,
        va: noc_base::VaPolicy::Static,
        sharded_threads: None,
        phases: RunSpec::new(0, 100, 1_000),
        traffic: Traffic::Uniform {
            load: 0.10,
            packet: 5,
        },
        port_load: 0.0,
    };
    let overhead = spans.scope("cli.noc_run", |spans| -> Result<Option<f64>, String> {
        let start = Instant::now();
        let mut sim = cli_case.build(1, Scheme::pseudo_ps_bb(), 1, spans)?;
        std::hint::black_box(sim.run(cli_case.phases));
        Ok(layers::cli_overhead(start.elapsed().as_secs_f64()))
    })?;
    match overhead {
        Some(s) => out.layer("cli.noc_run_overhead_s", s),
        None => out
            .notes
            .push("cli.noc_run_overhead_s skipped: target/release/noc is absent".into()),
    }
    Ok(DriverReadings {
        generate_ns,
        route_ns,
        pool_ns,
        fifo_ns,
        router_step_ns,
    })
}
