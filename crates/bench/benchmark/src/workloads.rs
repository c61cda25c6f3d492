//! The five pinned workloads.
//!
//! Four of them drive one [`Simulation`] (see [`SimCase`]); the fifth runs a
//! whole campaign sweep (see [`crate::campaign`]). Every workload derives
//! all of its inputs from the `--seed` argument; the simulator receives only
//! those generated inputs.

use crate::spans::Spans;
use noc_base::{RoutingPolicy, VaPolicy};
use noc_campaign::{build_topology, build_traffic};
use noc_sim::{NetworkConfig, RunSpec, SimReport, Simulation};
use noc_topology::SharedTopology;
use noc_traffic::{
    read_trace, write_trace, SyntheticPattern, SyntheticTraffic, TraceRecord, TraceReplay,
    TrafficModel,
};
use pseudo_circuit::{PcRouterFactory, Scheme};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "cmp_cmesh",
    "mesh_highload",
    "bursty_replay",
    "sharded_mesh32",
    "campaign_sweep",
];

/// Why each workload exists, one line each (`BENCHMARK.json`'s `why`).
pub const WHY: [&str; 5] = [
    "the paper's 4x4 CMesh under closed-loop CMP traffic: work sits in the traffic model and the \
     scheme hooks; pool, barrier and campaign code are bypassed",
    "8x8 mesh just under the knee: every buffer busy, VA/SA contended, flit pool at peak; stresses \
     the pipeline kernel, bypasses fast-forward and traffic cost",
    "95% quiescent trace replay: fast-forward, idle worklist, quiescence probe and the trace \
     codec dominate; a per-cycle gain that taxes the quiescence path shows here",
    "1024 routers in steady state: a 20 MB working set and a set-up large enough to matter; the \
     only run of the 2-thread shard barrier and lanes, checked against threads=1 and timed per layer",
    "56 short points through run_campaign, cold then warm: per-point set-up, hashing, cache and \
     merge matter more than the kernel; only cover of the evc and hybrid routers",
];

/// How a [`SimCase`] generates its traffic.
#[derive(Copy, Clone, Debug)]
pub enum Traffic {
    /// Closed-loop CMP coherence model with a named benchmark profile.
    Cmp {
        /// Profile name (`noc list` vocabulary).
        profile: &'static str,
    },
    /// Open-loop uniform random at a fixed offered load.
    Uniform {
        /// Offered load in flits/node/cycle.
        load: f64,
        /// Packet length in flits.
        packet: u16,
    },
    /// Open-loop bursts of uniform random traffic separated by silence,
    /// recorded once and replayed through the trace codec.
    Bursts {
        /// Number of bursts.
        bursts: u64,
        /// Cycles of traffic per burst.
        burst_len: u64,
        /// Cycles from one burst's start to the next's.
        period: u64,
        /// Offered load inside a burst.
        load: f64,
        /// Packet length in flits.
        packet: u16,
    },
}

/// One pinned single-simulation workload.
#[derive(Copy, Clone, Debug)]
pub struct SimCase {
    /// Workload name.
    pub name: &'static str,
    /// Topology spec (`noc_campaign::build_topology` vocabulary).
    pub topology: &'static str,
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// VC allocation policy.
    pub va: VaPolicy,
    /// A thread budget the workload is also run at, beside the timed
    /// threads=1 repetitions: the report must not change, and a traced run
    /// reports the speed ratio.
    pub sharded_threads: Option<usize>,
    /// Warmup / measure / drain cycles.
    pub phases: RunSpec,
    /// Traffic generator.
    pub traffic: Traffic,
    /// Per-input-port flit load the single-router drivers are fed at.
    pub port_load: f64,
}

impl SimCase {
    /// The pinned configuration of a single-simulation workload, or `None`
    /// for `campaign_sweep` and unknown names. `smoke` shrinks every length
    /// to about 1/100 so the whole path runs in well under a second.
    pub fn named(name: &str, smoke: bool) -> Option<SimCase> {
        let div = |n: u64| if smoke { (n / 100).max(1) } else { n };
        Some(match name {
            "cmp_cmesh" => SimCase {
                name: "cmp_cmesh",
                topology: "cmesh4x4",
                routing: RoutingPolicy::O1Turn,
                va: VaPolicy::Dynamic,
                sharded_threads: None,
                phases: RunSpec::new(div(5_000), div(70_000), 100_000),
                traffic: Traffic::Cmp { profile: "fft" },
                port_load: 0.10,
            },
            "mesh_highload" => SimCase {
                name: "mesh_highload",
                topology: "mesh8x8",
                routing: RoutingPolicy::Xy,
                va: VaPolicy::Static,
                sharded_threads: None,
                phases: RunSpec::new(div(3_000), div(12_000), 100_000),
                traffic: Traffic::Uniform {
                    load: 0.22,
                    packet: 4,
                },
                port_load: 0.30,
            },
            "bursty_replay" => SimCase {
                name: "bursty_replay",
                topology: "mesh8x8",
                routing: RoutingPolicy::Xy,
                va: VaPolicy::Static,
                sharded_threads: None,
                phases: RunSpec::new(0, div(70) * 10_000, 100_000),
                traffic: Traffic::Bursts {
                    bursts: div(70),
                    burst_len: 400,
                    period: 10_000,
                    load: 0.10,
                    packet: 5,
                },
                port_load: 0.12,
            },
            "sharded_mesh32" => SimCase {
                name: "sharded_mesh32",
                topology: if smoke { "mesh16x16" } else { "mesh32x32" },
                routing: RoutingPolicy::Xy,
                va: VaPolicy::Static,
                sharded_threads: Some(2),
                phases: RunSpec::new(div(500).max(50), div(500).max(100), 20_000),
                traffic: Traffic::Uniform {
                    load: 0.05,
                    packet: 5,
                },
                port_load: 0.10,
            },
            _ => return None,
        })
    }

    /// The network configuration (4 VCs × 4 flits, as in the paper).
    pub fn config(&self) -> NetworkConfig {
        NetworkConfig {
            routing: self.routing,
            va_policy: self.va,
            ..NetworkConfig::paper()
        }
    }

    /// Cycles one repetition's `run` covers before draining.
    pub fn window(&self) -> u64 {
        self.phases.warmup + self.phases.measure
    }

    /// Builds the traffic model from `seed`. The bursty trace goes through
    /// `write_trace` → `read_trace`, and the replayed records are checked
    /// against the ones written.
    ///
    /// # Errors
    ///
    /// Returns a message when the trace does not survive the round trip.
    pub fn build_traffic(
        &self,
        topo: &SharedTopology,
        seed: u64,
    ) -> Result<Box<dyn TrafficModel>, String> {
        match self.traffic {
            Traffic::Cmp { profile } => {
                build_traffic(profile, 0.1, 5, seed, topo).map_err(|e| e.to_string())
            }
            Traffic::Uniform { load, packet } => {
                build_traffic("ur", load, packet, seed, topo).map_err(|e| e.to_string())
            }
            Traffic::Bursts { .. } => {
                let records = self.burst_records(seed);
                let mut text = Vec::with_capacity(records.len() * 20);
                write_trace(&mut text, &records).map_err(|e| e.to_string())?;
                let parsed = read_trace(&text[..]).map_err(|e| e.to_string())?;
                if parsed != records {
                    return Err("replayed trace differs from the records written".into());
                }
                Ok(Box::new(TraceReplay::new("bursty", parsed)))
            }
        }
    }

    /// The bursty workload's packet records, generated from `seed`.
    pub fn burst_records(&self, seed: u64) -> Vec<TraceRecord> {
        let Traffic::Bursts {
            bursts,
            burst_len,
            period,
            load,
            packet,
        } = self.traffic
        else {
            return Vec::new();
        };
        let mut source =
            SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, packet, load, seed);
        let mut records = Vec::new();
        for burst in 0..bursts {
            for cycle in burst * period..burst * period + burst_len {
                source.generate(cycle, &mut |r| {
                    records.push(TraceRecord {
                        cycle,
                        src: r.src,
                        dst: r.dst,
                        len: r.len,
                        class: r.class,
                    });
                });
            }
        }
        records
    }

    /// Everything before the first simulated cycle: topology, traffic model
    /// and `Simulation::new`, each inside its own span.
    ///
    /// # Errors
    ///
    /// Returns a message when the topology or traffic cannot be built.
    pub fn build(
        &self,
        seed: u64,
        scheme: Scheme,
        threads: usize,
        spans: &mut Spans,
    ) -> Result<Simulation, String> {
        spans.scope("setup", |spans| {
            let topo = spans.scope("topology.build", |_| build_topology(self.topology));
            let topo = topo.map_err(|e| e.to_string())?;
            let traffic = spans.scope("traffic.build", |_| self.build_traffic(&topo, seed))?;
            let config = self.config();
            let mut sim = spans.scope("sim.new", |_| {
                Simulation::new(topo, config, traffic, &PcRouterFactory::new(scheme), seed)
            });
            sim.set_threads(threads);
            Ok(sim)
        })
    }
}

/// `fnv1a64` of the report's `Debug` text: two runs simulated the same
/// thing exactly when their hashes agree.
pub fn report_hash(report: &SimReport) -> String {
    format!(
        "{:016x}",
        noc_sim::manifest::fnv1a64(format!("{report:?}").as_bytes())
    )
}
