//! The metric catalogue: every end-to-end and per-layer metric the benchmark
//! reports, with its unit, direction, regression bound and time base.
//! `BENCHMARK.json` at the repository root lists the same names (the package's
//! `tests/smoke.rs` checks the two agree).

/// Whether a number comes from the deterministic model or from the host
/// clock.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TimeBase {
    /// Produced by the simulated model: repeats bit-for-bit at a fixed seed.
    Simulated,
    /// Wall-clock (or memory) of this process.
    Host,
}

impl TimeBase {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            TimeBase::Simulated => "simulated",
            TimeBase::Host => "host",
        }
    }
}

/// One end-to-end metric.
#[derive(Copy, Clone, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher readings are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Model or host.
    pub base: TimeBase,
    /// One-line meaning.
    pub meaning: &'static str,
}

/// One per-layer metric.
#[derive(Copy, Clone, Debug)]
pub struct PerLayer {
    /// Metric name, prefixed by the crate module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher readings are better.
    pub higher_is_better: bool,
    /// Model (exact count or ratio) or host.
    pub base: TimeBase,
    /// The end-to-end metric(s) a change to this layer should move, and the
    /// workload it should move them on.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    base: TimeBase,
    meaning: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        base,
        meaning,
    }
}

use TimeBase::{Host, Simulated};

/// The end-to-end metrics, every one reported by every workload.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25, Host,
        "everything before the first simulated cycle (fastest of the fresh builds, 25 or more)"),
    e2e("sim_cycles_per_s", "cycles/s", true, 0.20, Host,
        "simulated cycles covered by run, fast-forwarded ones included, per host second"),
    e2e("host_ns_per_flit_hop", "ns", false, 0.20, Host,
        "wall of run per router flit traversal: host time per simulated event"),
    e2e("peak_rss_mb", "MB", false, 0.10, Host,
        "VmHWM of the workload's process after its first repetition"),
    e2e("avg_latency_cycles", "cycles", false, 0.08, Simulated,
        "SimReport::avg_latency of pseudo+ps+bb (source-queue entry to tail ejection)"),
    e2e("accepted_flits_node_cycle", "flits/node/cyc", true, 0.10, Simulated,
        "SimReport::throughput: delivered measured flits per node per measured cycle"),
    e2e("energy_pj_per_flit_hop", "pJ", false, 0.05, Simulated,
        "router energy per flit traversal"),
    e2e("latency_reduction_pct", "%", true, 0.25, Simulated,
        "latency_reduction_vs(baseline) x 100, the paper's headline"),
    e2e("energy_reduction_pct", "%", true, 0.10, Simulated,
        "1 - energy per flit hop (pseudo+ps+bb) / energy per flit hop (baseline), x 100"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    base: TimeBase,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        base,
        moves,
    }
}

/// The per-layer metrics. A workload that bypasses a layer reports 0 for it.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // traffic
    layer("traffic.generate_ns_per_cycle", "ns", false, Host,
        "sim_cycles_per_s on cmp_cmesh; ~none on mesh_highload"),
    layer("traffic.requests", "count", true, Simulated,
        "denominator of traffic.generate_ns_per_cycle"),
    layer("traffic.cmp_stall_frac", "fraction", false, Simulated,
        "avg_latency_cycles, latency_reduction_pct on cmp_cmesh"),
    layer("traffic.next_injection_ns", "ns", false, Host,
        "sim_cycles_per_s on bursty_replay; ~none on mesh_highload"),
    layer("traffic.trace_write_mb_per_s", "MB/s", true, Host,
        "setup_s on bursty_replay; 0 elsewhere"),
    layer("traffic.trace_read_mb_per_s", "MB/s", true, Host,
        "setup_s on bursty_replay; 0 elsewhere"),
    // topology
    layer("topology.route_ns", "ns", false, Host,
        "host_ns_per_flit_hop on mesh_highload, sharded_mesh32; ~none on bursty_replay"),
    layer("topology.wiring_build_s", "s", false, Host,
        "setup_s, peak_rss_mb on sharded_mesh32; sim_cycles_per_s on campaign_sweep"),
    // base
    layer("base.pool_alloc_free_ns", "ns", false, Host,
        "host_ns_per_flit_hop on mesh_highload; ~none on bursty_replay"),
    layer("base.workerpool_batch_ns", "ns", false, Host,
        "sim.t2_over_t1 on sharded_mesh32; 0 where no sharded run is made"),
    layer("base.workerpool_wait_ns", "ns", false, Host,
        "sim.t2_over_t1 on sharded_mesh32; 0 where no sharded run is made"),
    // sim
    layer("sim.new_s", "s", false, Host,
        "setup_s on sharded_mesh32, campaign_sweep"),
    layer("sim.warmup_s", "s", false, Host,
        "sim_cycles_per_s on all but campaign_sweep"),
    layer("sim.measure_drain_s", "s", false, Host,
        "sim_cycles_per_s on all but campaign_sweep"),
    layer("sim.report_s", "s", false, Host,
        "sim_cycles_per_s (negligible share)"),
    layer("sim.step_ns_per_stepped_cycle", "ns", false, Host,
        "sim_cycles_per_s on mesh_highload, cmp_cmesh"),
    layer("sim.fast_forwarded_frac", "fraction", true, Simulated,
        "sim_cycles_per_s on bursty_replay (~0.95); ~0 on mesh_highload, cmp_cmesh"),
    layer("sim.fifo_push_pop_ns", "ns", false, Host,
        "host_ns_per_flit_hop on mesh_highload; ~none on bursty_replay"),
    layer("sim.t2_over_t1", "ratio", true, Host,
        "speed of the 2-thread sharded engine over threads=1 on sharded_mesh32; 0 elsewhere"),
    layer("sim.flit_traversals", "count", true, Simulated,
        "denominator of host_ns_per_flit_hop and energy_pj_per_flit_hop"),
    layer("sim.sa_grants", "count", false, Simulated,
        "op count behind attributed_share.*; falls as pseudo-circuits are reused"),
    layer("sim.va_grants", "count", false, Simulated,
        "op count behind attributed_share.*"),
    layer("sim.final_backlog", "count", false, Simulated,
        "saturation signal: source-queue backlog at the end of the run"),
    layer("sim.p99_latency_bound_cycles", "cycles", false, Simulated,
        "tail of avg_latency_cycles (power-of-two histogram bound)"),
    layer("sim.measured_packets", "count", true, Simulated,
        "latency sample count; 1% of it lies beyond the p99 bound (>= 10 on every workload)"),
    layer("sim.undelivered_frac", "fraction", false, Simulated,
        "operations failed / attempted; 0 on every workload"),
    layer("sim.trace_overhead_pct", "%", false, Host,
        "traced repetition's wall against the untraced median"),
    // core / evc
    layer("core.router_step_ns", "ns", false, Host,
        "host_ns_per_flit_hop on mesh_highload, cmp_cmesh"),
    layer("core.baseline_router_step_ns", "ns", false, Host,
        "difference to core.router_step_ns = scheme-hook cost"),
    layer("evc.router_step_ns", "ns", false, Host,
        "sim_cycles_per_s on campaign_sweep; none elsewhere"),
    layer("core.pc_reuse_frac", "fraction", true, Simulated,
        "avg_latency_cycles, latency_reduction_pct on cmp_cmesh, mesh_highload"),
    layer("core.header_hit_frac", "fraction", true, Simulated,
        "avg_latency_cycles, latency_reduction_pct"),
    layer("core.buffer_bypass_frac", "fraction", true, Simulated,
        "energy_pj_per_flit_hop, energy_reduction_pct"),
    layer("core.xbar_locality", "fraction", true, Simulated,
        "upper limit of core.pc_reuse_frac"),
    layer("core.spec_restores", "count", true, Simulated,
        "core.pc_reuse_frac"),
    layer("core.term_conflict", "count", false, Simulated,
        "core.pc_reuse_frac"),
    layer("core.term_credit", "count", false, Simulated,
        "core.pc_reuse_frac"),
    // energy
    layer("energy.buffer_pj_frac", "fraction", false, Simulated,
        "energy_pj_per_flit_hop on cmp_cmesh"),
    layer("energy.xbar_pj_frac", "fraction", false, Simulated,
        "energy_pj_per_flit_hop on cmp_cmesh"),
    layer("energy.arbiter_pj_frac", "fraction", false, Simulated,
        "energy_pj_per_flit_hop on cmp_cmesh"),
    // campaign (0 on every other workload)
    layer("campaign.points_per_s", "1/s", true, Host,
        "what sweep users see: points over the median cold-sweep wall"),
    layer("campaign.warm_rerun_s", "s", false, Host,
        "all-cache-hit re-run: expand, hash, lookups, merge, report write"),
    layer("campaign.saturation_load", "flits/node/cyc", true, Simulated,
        "highest sampled load below the pseudo+ps+bb curve's saturation point"),
    layer("campaign.worker_busy_frac", "fraction", true, Host,
        "campaign.points_per_s: sum of run_point walls over 2 x cold wall"),
    layer("campaign.spec_parse_ns", "ns", false, Host,
        "setup_s, campaign.warm_rerun_s"),
    layer("campaign.expand_s", "s", false, Host,
        "setup_s, campaign.warm_rerun_s"),
    layer("campaign.prepare_ns_per_point", "ns", false, Host,
        "setup_s, campaign.warm_rerun_s"),
    layer("campaign.cache_lookup_ns", "ns", false, Host,
        "campaign.warm_rerun_s"),
    layer("campaign.cache_store_ns", "ns", false, Host,
        "campaign.points_per_s"),
    layer("campaign.merge_s", "s", false, Host,
        "campaign.warm_rerun_s"),
    layer("campaign.run_point_s_p50", "s", false, Host,
        "campaign.points_per_s"),
    layer("campaign.run_point_s_max", "s", false, Host,
        "campaign.points_per_s: the slowest point sets the tail with 2 workers"),
    layer("campaign.point_s.baseline", "s", false, Host,
        "campaign.points_per_s"),
    layer("campaign.point_s.pseudo_ps_bb", "s", false, Host,
        "campaign.points_per_s"),
    layer("campaign.point_s.evc", "s", false, Host,
        "campaign.points_per_s"),
    layer("campaign.point_s.hybrid", "s", false, Host,
        "campaign.points_per_s"),
    layer("campaign.cache_hits", "count", true, Simulated,
        "check: 0 on a cold sweep, 56 on a warm one (the warm count is reported)"),
    layer("campaign.executed", "count", false, Simulated,
        "check: 56 on a cold sweep, 0 on a warm one (the cold count is reported)"),
    // cli
    layer("cli.noc_run_overhead_s", "s", false, Host,
        "setup_s as a CLI user sees it; 0 when target/release/noc is absent"),
    // estimates: driver ns/op x the report's op count / sim.measure_drain_s
    layer("attributed_share.traffic", "fraction", false, Host,
        "estimate of the traffic layer's share of sim.measure_drain_s"),
    layer("attributed_share.topology", "fraction", false, Host,
        "estimate of route computation's share of sim.measure_drain_s"),
    layer("attributed_share.base", "fraction", false, Host,
        "estimate of flit-pool alloc/free's share of sim.measure_drain_s"),
    layer("attributed_share.sim_fifo", "fraction", false, Host,
        "estimate of input-buffer push/pop's share of sim.measure_drain_s"),
    layer("attributed_share.core", "fraction", false, Host,
        "estimate of router step's share of sim.measure_drain_s (upper limit)"),
];

/// The command `BENCHMARK.json` names: builds this package from source and
/// runs it; the driver appends `--workload .. --seed .. --seconds .. --trace ..`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, generated from the catalogue so the two
/// cannot drift apart (`noc-benchmark describe` prints it).
pub fn benchmark_json(run_seconds: u64) -> String {
    use crate::workloads::{WHY, WORKLOADS};
    use std::fmt::Write as _;
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let mut s = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"crates/bench/benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n",
        quoted.join(", ")
    );
    for (i, (name, why)) in WORKLOADS.iter().zip(WHY).enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The catalogue as a table for people: what each metric means, which time
/// base it has, and which end-to-end metric each layer metric should move.
pub fn catalogue_text() -> String {
    use std::fmt::Write as _;
    let mut s = String::from("end-to-end metrics (every workload reports every one):\n");
    for m in END_TO_END {
        let _ = writeln!(
            s,
            "  {:<26} {:<15} {:<6} better, bound {:>3.0}%, {:<9} {}",
            m.name,
            m.unit,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            m.bound * 100.0,
            m.base.label(),
            m.meaning
        );
    }
    s.push_str(
        "per-layer metrics (0 where a workload bypasses the layer) -> what they should move:\n",
    );
    for m in PER_LAYER {
        let _ = writeln!(
            s,
            "  {:<32} {:<15} {:<9} -> {}",
            m.name,
            m.unit,
            m.base.label(),
            m.moves
        );
    }
    s
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Whether `s` is a legal metric name for `BENCHMARK.json`.
#[cfg(test)]
fn is_legal_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_legal_and_bounded() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| is_legal_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(end_to_end("setup_s").is_some_and(|m| !m.higher_is_better && m.unit == "s"));
    }
}
