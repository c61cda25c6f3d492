//! Closed-loop CMP cache-coherence traffic model (trace substitute).
//!
//! Stands in for the paper's Simics-extracted traces (§V): 32 out-of-order
//! core proxies and 32 address-interleaved shared L2 banks exchange
//! directory-protocol messages over the network. Each core has a fixed number
//! of MSHRs (4 in the paper, after Kroft ISCA 1981) and stalls when they are
//! exhausted, so injection self-throttles against network latency exactly as
//! in the paper's methodology.
//!
//! Protocol (write-through, write-invalidate — paper §V):
//!
//! - **read**: core → bank 1-flit request; bank → core 5-flit response after
//!   the bank latency (plus memory latency on an L2 miss);
//! - **write**: core → bank 5-flit write-through; bank → core 1-flit ack;
//!   with some probability the bank also invalidates sharers (1-flit
//!   coherence messages), each of which returns a 1-flit ack to the bank;
//! - packet sizes follow the paper: an address fits in one 128-bit flit, an
//!   address + 64-byte block takes five flits.

use crate::{BenchmarkProfile, DeliveredPacket, PacketRequest, TrafficModel};
use noc_base::rng::Pcg32;
use noc_base::{NodeId, PacketClass, WordMask};
use noc_topology::Topology;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// The role an endpoint plays in the CMP.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeRole {
    /// Processor core number `n`.
    Core(usize),
    /// L2 cache bank number `n`.
    Bank(usize),
}

/// Assignment of roles to network endpoints.
#[derive(Clone, Debug)]
pub struct CmpLayout {
    roles: Vec<NodeRole>,
    cores: Vec<NodeId>,
    banks: Vec<NodeId>,
}

impl CmpLayout {
    /// Builds a layout from an explicit role list.
    ///
    /// # Panics
    ///
    /// Panics if there is not at least one core and one bank, or if core /
    /// bank numbers are not exactly `0..count` in order of appearance.
    pub fn new(roles: Vec<NodeRole>) -> Self {
        let mut cores = Vec::new();
        let mut banks = Vec::new();
        for (i, role) in roles.iter().enumerate() {
            match *role {
                NodeRole::Core(n) => {
                    assert_eq!(n, cores.len(), "core numbering must be dense");
                    cores.push(NodeId::new(i));
                }
                NodeRole::Bank(n) => {
                    assert_eq!(n, banks.len(), "bank numbering must be dense");
                    banks.push(NodeId::new(i));
                }
            }
        }
        assert!(!cores.is_empty(), "need at least one core");
        assert!(!banks.is_empty(), "need at least one bank");
        Self {
            roles,
            cores,
            banks,
        }
    }

    /// The paper's CMP floorplan: routers with concentration 4, each
    /// attaching two cores then two banks (`num_routers * 4` nodes).
    pub fn paper_cmesh(num_routers: usize) -> Self {
        let mut roles = Vec::with_capacity(num_routers * 4);
        for r in 0..num_routers {
            roles.push(NodeRole::Core(2 * r));
            roles.push(NodeRole::Core(2 * r + 1));
            roles.push(NodeRole::Bank(2 * r));
            roles.push(NodeRole::Bank(2 * r + 1));
        }
        Self::new(roles)
    }

    /// A checkerboard layout for concentration-1 topologies: even nodes are
    /// cores, odd nodes are banks.
    pub fn alternating(num_nodes: usize) -> Self {
        let roles = (0..num_nodes)
            .map(|i| {
                if i % 2 == 0 {
                    NodeRole::Core(i / 2)
                } else {
                    NodeRole::Bank(i / 2)
                }
            })
            .collect();
        Self::new(roles)
    }

    /// Role of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.index()]
    }

    /// Total endpoints.
    pub fn num_nodes(&self) -> usize {
        self.roles.len()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Endpoint of core `n`.
    pub fn core(&self, n: usize) -> NodeId {
        self.cores[n]
    }

    /// Endpoint of bank `n`.
    pub fn bank(&self, n: usize) -> NodeId {
        self.banks[n]
    }
}

/// A topology no CMP floorplan exists for (see [`CmpTraffic::for_topology`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NoFloorplan {
    /// The topology's display name.
    pub topology: String,
    /// Its concentration (endpoints per router).
    pub concentration: usize,
    /// Its endpoint count.
    pub nodes: usize,
}

impl fmt::Display for NoFloorplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "benchmark traffic needs concentration 4 (2 cores + 2 banks per router) \
             or concentration 1 with an even node count; {} has concentration {} and {} nodes",
            self.topology, self.concentration, self.nodes
        )
    }
}

impl std::error::Error for NoFloorplan {}

/// Fixed system parameters of the CMP model (the paper's Table I; latencies
/// the OCR lost are documented choices, see DESIGN.md §5).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CmpConfig {
    /// MSHRs per core (outstanding-miss limit; 4 in the paper).
    pub mshrs_per_core: usize,
    /// L2 bank access latency in cycles.
    pub l2_latency: u64,
    /// Additional latency when the L2 bank misses to memory.
    pub mem_latency: u64,
    /// Probability an L2 access misses to memory.
    pub l2_miss_rate: f64,
    /// Flits in an address-only packet.
    pub addr_flits: u16,
    /// Flits in an address + cache-block packet.
    pub data_flits: u16,
}

impl CmpConfig {
    /// The paper's configuration: 4 MSHRs, 1-flit address packets, 5-flit
    /// data packets, 6-cycle L2 banks, 100-cycle memory at 10% L2 miss rate.
    pub fn paper() -> Self {
        Self {
            mshrs_per_core: 4,
            l2_latency: 6,
            mem_latency: 100,
            l2_miss_rate: 0.10,
            addr_flits: 1,
            data_flits: 5,
        }
    }
}

impl Default for CmpConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[derive(Clone, Debug)]
struct CoreState {
    free_mshrs: usize,
    last_bank: Option<usize>,
    bursting: bool,
}

/// Aggregate message counts, exposed for calibration tests and reports.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CmpStats {
    /// Read transactions issued.
    pub reads: u64,
    /// Write transactions issued.
    pub writes: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Packets emitted in total.
    pub packets: u64,
    /// Core-cycles spent fully stalled (all MSHRs busy) while in an active
    /// phase — the self-throttling back-pressure the network exerts on the
    /// cores. Lower network latency frees MSHRs sooner, so this is the
    /// closed-loop "IPC proxy" of the paper's future-work discussion.
    pub mshr_stall_cycles: u64,
    /// Core-cycles observed in an active (non-idle) phase.
    pub active_cycles: u64,
}

impl CmpStats {
    /// Fraction of active core-cycles lost to MSHR stalls (0 when no active
    /// cycles were observed).
    pub fn stall_fraction(&self) -> f64 {
        if self.active_cycles == 0 {
            0.0
        } else {
            self.mshr_stall_cycles as f64 / self.active_cycles as f64
        }
    }
}

/// The closed-loop CMP workload generator.
pub struct CmpTraffic {
    cfg: CmpConfig,
    layout: CmpLayout,
    profile: BenchmarkProfile,
    rng: Pcg32,
    cores: Vec<CoreState>,
    bank_weights: Vec<f64>,
    /// `bank_weights` (all positive) summed once, in `next_weighted`'s order.
    bank_total: f64,
    /// Scheduled replies and coherence messages, earliest `(cycle, scheduling
    /// order)` first; the order number is unique, so requests never compare.
    pending: BinaryHeap<Reverse<(u64, u64, PacketRequest)>>,
    next_event: u64,
    /// The sharers of the invalidation burst being drawn (ascending
    /// iteration keeps the burst's order deterministic); empty between bursts.
    sharers: WordMask,
    in_flight: u64,
    stats: CmpStats,
}

impl CmpTraffic {
    /// Creates the workload for one benchmark profile.
    pub fn new(cfg: CmpConfig, layout: CmpLayout, profile: BenchmarkProfile, seed: u64) -> Self {
        let cores = vec![
            CoreState {
                free_mshrs: cfg.mshrs_per_core,
                last_bank: None,
                bursting: false,
            };
            layout.num_cores()
        ];
        let bank_weights: Vec<f64> = (0..layout.num_banks())
            .map(|i| 1.0 / (1.0 + i as f64).powf(profile.hotspot_skew))
            .collect();
        Self {
            cfg,
            profile,
            rng: Pcg32::seed_with_stream(seed, 0xc39),
            cores,
            bank_total: bank_weights.iter().sum(),
            bank_weights,
            pending: BinaryHeap::new(),
            next_event: 0,
            sharers: WordMask::new(layout.num_cores()),
            layout,
            in_flight: 0,
            stats: CmpStats::default(),
        }
    }

    /// The paper's CMP workload ([`CmpConfig::paper`]) laid out on `topo`:
    /// the concentration-4 floorplan (two cores + two banks per router,
    /// [`CmpLayout::paper_cmesh`]) when the topology is concentrated, a
    /// checkerboard of cores and banks ([`CmpLayout::alternating`]) on a
    /// concentration-1 topology. The one place a topology is matched to a
    /// floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`NoFloorplan`] if the concentration is neither 4 nor 1, or
    /// if a concentration-1 topology has an odd number of nodes.
    pub fn for_topology(
        topo: &dyn Topology,
        profile: BenchmarkProfile,
        seed: u64,
    ) -> Result<Self, NoFloorplan> {
        let layout = match topo.concentration() {
            4 => CmpLayout::paper_cmesh(topo.num_routers()),
            1 if topo.num_nodes().is_multiple_of(2) => CmpLayout::alternating(topo.num_nodes()),
            concentration => {
                return Err(NoFloorplan {
                    topology: topo.name().to_string(),
                    concentration,
                    nodes: topo.num_nodes(),
                })
            }
        };
        Ok(Self::new(CmpConfig::paper(), layout, profile, seed))
    }

    /// Message counters accumulated so far.
    pub fn stats(&self) -> CmpStats {
        self.stats
    }

    /// The layout in use.
    pub fn layout(&self) -> &CmpLayout {
        &self.layout
    }

    /// Queues a `len`-flit `class` packet from `src` to `dst` for cycle `at`.
    fn schedule(&mut self, at: u64, src: NodeId, dst: NodeId, len: u16, class: PacketClass) {
        let request = PacketRequest {
            src,
            dst,
            len,
            class,
        };
        self.pending.push(Reverse((at, self.next_event, request)));
        self.next_event += 1;
    }

    fn pick_bank(&mut self, core: usize) -> usize {
        if let Some(last) = self.cores[core].last_bank {
            if self.rng.next_bool(self.profile.bank_locality) {
                return last;
            }
        }
        self.rng
            .next_weighted_of(&self.bank_weights, self.bank_total)
            .expect("bank weights are positive")
    }

    /// Samples the number of sharers to invalidate: geometric with mean
    /// `avg_sharers`, clamped to the available cores.
    fn sample_sharers(&mut self) -> usize {
        let p = 1.0 / self.profile.avg_sharers.max(1.0);
        1 + self
            .rng
            .skip_false(p, self.layout.num_cores().saturating_sub(2))
    }

    fn issue_from_core(&mut self, core: usize, sink: &mut dyn FnMut(PacketRequest)) {
        let bank = self.pick_bank(core);
        self.cores[core].last_bank = Some(bank);
        self.cores[core].free_mshrs -= 1;
        let src = self.layout.core(core);
        let dst = self.layout.bank(bank);
        let (len, class) = if self.rng.next_bool(self.profile.write_fraction) {
            self.stats.writes += 1;
            (self.cfg.data_flits, PacketClass::WriteRequest)
        } else {
            self.stats.reads += 1;
            (self.cfg.addr_flits, PacketClass::ReadRequest)
        };
        let request = PacketRequest {
            src,
            dst,
            len,
            class,
        };
        self.emit(request, sink);
    }

    fn emit(&mut self, request: PacketRequest, sink: &mut dyn FnMut(PacketRequest)) {
        self.in_flight += 1;
        self.stats.packets += 1;
        sink(request);
    }

    fn issue_probability(&self) -> f64 {
        if self.profile.burstiness > 0.0 {
            (self.profile.miss_rate * 2.0).min(1.0)
        } else {
            self.profile.miss_rate
        }
    }

    fn core_of(&self, node: NodeId) -> Option<usize> {
        match self.layout.role(node) {
            NodeRole::Core(n) => Some(n),
            NodeRole::Bank(_) => None,
        }
    }

    fn bank_latency(&mut self) -> u64 {
        let mut latency = self.cfg.l2_latency;
        if self.rng.next_bool(self.cfg.l2_miss_rate) {
            latency += self.cfg.mem_latency;
        }
        latency
    }
}

impl TrafficModel for CmpTraffic {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest)) {
        // Emit scheduled bank responses and coherence messages that are due.
        while matches!(self.pending.peek(), Some(Reverse((at, ..))) if *at <= cycle) {
            let Reverse((_, _, request)) = self.pending.pop().expect("peeked");
            self.emit(request, sink);
        }

        // Core-side issue with MSHR self-throttling and burst modulation.
        let (issue_p, stay) = (self.issue_probability(), self.profile.burstiness);
        for core in 0..self.cores.len() {
            if stay > 0.0 {
                let state = self.cores[core].bursting;
                let flip = !self.rng.next_bool(stay);
                if flip {
                    self.cores[core].bursting = !state;
                }
                if !self.cores[core].bursting {
                    continue;
                }
            }
            self.stats.active_cycles += 1;
            if self.cores[core].free_mshrs == 0 {
                self.stats.mshr_stall_cycles += 1;
                continue;
            }
            if self.rng.next_bool(issue_p) {
                self.issue_from_core(core, sink);
            }
        }
    }

    fn deliver(&mut self, cycle: u64, packet: &DeliveredPacket) {
        self.in_flight = self.in_flight.saturating_sub(1);
        // A reply leaves the node the packet arrived at, for its sender.
        let (here, sender) = (packet.dst, packet.src);
        let (addr, data) = (self.cfg.addr_flits, self.cfg.data_flits);
        match packet.class {
            PacketClass::ReadRequest => {
                let at = cycle + self.bank_latency();
                self.schedule(at, here, sender, data, PacketClass::ReadResponse);
            }
            PacketClass::WriteRequest => {
                let at = cycle + self.bank_latency();
                self.schedule(at, here, sender, addr, PacketClass::WriteAck);
                if self.rng.next_bool(self.profile.coherence_fraction) {
                    let writer = self.core_of(sender);
                    let sharers = self.sample_sharers();
                    let candidates = self.layout.num_cores();
                    let mut guard = 0;
                    while (self.sharers.popcount() as usize) < sharers && guard < 16 * candidates {
                        guard += 1;
                        let c = self.rng.next_index(candidates);
                        if Some(c) != writer {
                            self.sharers.set(c);
                        }
                    }
                    let at = cycle + self.cfg.l2_latency;
                    while let Some(c) = self.sharers.first_set_from(0) {
                        self.sharers.clear(c);
                        self.stats.invalidations += 1;
                        self.schedule(at, here, self.layout.core(c), addr, PacketClass::Coherence);
                    }
                }
            }
            PacketClass::ReadResponse | PacketClass::WriteAck => {
                if let Some(core) = self.core_of(here) {
                    self.cores[core].free_mshrs =
                        (self.cores[core].free_mshrs + 1).min(self.cfg.mshrs_per_core);
                }
            }
            // Invalidation arriving at a core: acknowledge to the bank.
            // Acks arriving back at the bank terminate silently.
            PacketClass::Coherence if self.core_of(here).is_some() => {
                self.schedule(cycle + 1, here, sender, addr, PacketClass::Coherence);
            }
            PacketClass::Coherence | PacketClass::Data => {}
        }
    }

    fn has_pending_work(&self) -> bool {
        self.in_flight > 0 || !self.pending.is_empty()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CmpTraffic {
        let layout = CmpLayout::paper_cmesh(4); // 8 cores, 8 banks
        CmpTraffic::new(
            CmpConfig::paper(),
            layout,
            *BenchmarkProfile::by_name("fma3d").unwrap(),
            7,
        )
    }

    /// Runs the model against an ideal zero-latency "network".
    fn run_ideal(traffic: &mut CmpTraffic, cycles: u64) -> Vec<PacketRequest> {
        let mut all = Vec::new();
        for cycle in 0..cycles {
            let mut emitted = Vec::new();
            traffic.generate(cycle, &mut |r| emitted.push(r));
            for r in &emitted {
                let delivered = DeliveredPacket {
                    id: noc_base::PacketId::new(0),
                    src: r.src,
                    dst: r.dst,
                    len: r.len,
                    class: r.class,
                    injected_at: cycle,
                    delivered_at: cycle + 10,
                };
                traffic.deliver(cycle + 10, &delivered);
            }
            all.extend(emitted);
        }
        all
    }

    #[test]
    fn layout_paper_cmesh_roles() {
        let l = CmpLayout::paper_cmesh(16);
        assert_eq!(l.num_nodes(), 64);
        assert_eq!(l.num_cores(), 32);
        assert_eq!(l.num_banks(), 32);
        assert_eq!(l.role(NodeId::new(0)), NodeRole::Core(0));
        assert_eq!(l.role(NodeId::new(2)), NodeRole::Bank(0));
        assert_eq!(l.core(2), NodeId::new(4));
        assert_eq!(l.bank(2), NodeId::new(6));
        // Fig. 7: router r's four ports attach cores 2r, 2r+1 and banks 2r,
        // 2r+1, in that order.
        for r in 0..16 {
            let roles: Vec<NodeRole> = (0..4).map(|p| l.role(NodeId::new(4 * r + p))).collect();
            let (c, b) = (NodeRole::Core, NodeRole::Bank);
            assert_eq!(roles, [c(2 * r), c(2 * r + 1), b(2 * r), b(2 * r + 1)]);
        }
    }

    #[test]
    fn paper_config_is_table_one() {
        // Table I, with the latencies the source text lost substituted as
        // DESIGN.md §5 records.
        let c = CmpConfig::paper();
        let sizes = (c.mshrs_per_core, c.addr_flits, c.data_flits);
        assert_eq!(sizes, (4, 1, 5));
        assert_eq!(
            (c.l2_latency, c.mem_latency, c.l2_miss_rate),
            (6, 100, 0.10)
        );
    }

    #[test]
    fn alternating_layout_roles() {
        let l = CmpLayout::alternating(8);
        assert_eq!(l.num_cores(), 4);
        assert_eq!(l.role(NodeId::new(3)), NodeRole::Bank(1));
    }

    #[test]
    fn for_topology_picks_the_floorplan_or_names_the_concentration() {
        use noc_topology::Mesh;
        let profile = *BenchmarkProfile::by_name("fma3d").unwrap();
        let roles = |l: &CmpLayout| -> Vec<NodeRole> {
            (0..l.num_nodes()).map(|i| l.role(NodeId::new(i))).collect()
        };
        // Concentration 4: the paper's floorplan over the routers.
        let t = CmpTraffic::for_topology(&Mesh::new(4, 4, 4), profile, 1).unwrap();
        assert_eq!(roles(t.layout()), roles(&CmpLayout::paper_cmesh(16)));
        assert_eq!((t.layout().num_nodes(), t.layout().num_cores()), (64, 32));
        // Concentration 1, even node count: the checkerboard over the nodes.
        let t = CmpTraffic::for_topology(&Mesh::new(8, 8, 1), profile, 1).unwrap();
        assert_eq!(roles(t.layout()), roles(&CmpLayout::alternating(64)));
        assert_eq!((t.layout().num_nodes(), t.layout().num_cores()), (64, 32));
        // No floorplan: concentration 2, and concentration 1 with 9 nodes.
        for (topo, concentration) in [(Mesh::new(3, 3, 2), 2), (Mesh::new(3, 3, 1), 1)] {
            let Err(e) = CmpTraffic::for_topology(&topo, profile, 1) else {
                panic!("{} has no floorplan", topo.name());
            };
            assert_eq!(e.concentration, concentration);
            let text = e.to_string();
            assert!(
                text.contains(&format!("has concentration {concentration}")),
                "{text}"
            );
            assert!(text.contains(topo.name()), "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_numbering_rejected() {
        let _ = CmpLayout::new(vec![NodeRole::Core(1), NodeRole::Bank(0)]);
    }

    #[test]
    fn requests_flow_core_to_bank_and_back() {
        let mut t = small();
        let reqs = run_ideal(&mut t, 2000);
        assert!(!reqs.is_empty());
        let outbound = reqs.iter().filter(|r| {
            matches!(
                r.class,
                PacketClass::ReadRequest | PacketClass::WriteRequest
            )
        });
        for r in outbound {
            assert!(matches!(t.layout.role(r.src), NodeRole::Core(_)));
            assert!(matches!(t.layout.role(r.dst), NodeRole::Bank(_)));
        }
        let responses = reqs
            .iter()
            .filter(|r| matches!(r.class, PacketClass::ReadResponse | PacketClass::WriteAck))
            .count();
        assert!(responses > 0, "banks should respond");
    }

    #[test]
    fn packet_sizes_follow_the_paper() {
        let mut t = small();
        for r in run_ideal(&mut t, 2000) {
            match r.class {
                PacketClass::ReadRequest | PacketClass::WriteAck | PacketClass::Coherence => {
                    assert_eq!(r.len, 1)
                }
                PacketClass::ReadResponse | PacketClass::WriteRequest => assert_eq!(r.len, 5),
                PacketClass::Data => panic!("cmp model never emits Data"),
            }
        }
    }

    #[test]
    fn mshrs_bound_outstanding_misses() {
        // With no deliveries at all, each core can issue at most 4 misses.
        let mut t = small();
        let mut total = 0;
        for cycle in 0..50_000 {
            t.generate(cycle, &mut |_r| total += 1);
        }
        assert_eq!(total, 8 * 4, "8 cores x 4 MSHRs");
        assert!(t.has_pending_work());
    }

    #[test]
    fn deliveries_refill_mshrs() {
        let mut t = small();
        let reqs = run_ideal(&mut t, 5000);
        // Far more than the MSHR-limited 32 packets must flow.
        assert!(reqs.len() > 200, "only {} packets", reqs.len());
    }

    #[test]
    fn stats_track_mix() {
        let mut t = small();
        let _ = run_ideal(&mut t, 5000);
        let s = t.stats();
        assert!(s.reads > 0 && s.writes > 0);
        let wf = s.writes as f64 / (s.reads + s.writes) as f64;
        assert!((wf - 0.30).abs() < 0.08, "write fraction {wf}");
    }

    #[test]
    fn skewed_profile_concentrates_on_low_banks() {
        let layout = CmpLayout::paper_cmesh(8);
        let mut t = CmpTraffic::new(
            CmpConfig::paper(),
            layout,
            *BenchmarkProfile::by_name("jbb").unwrap(),
            3,
        );
        let reqs = run_ideal(&mut t, 8000);
        let mut per_bank = vec![0usize; t.layout.num_banks()];
        for r in &reqs {
            if let NodeRole::Bank(b) = t.layout.role(r.dst) {
                if matches!(
                    r.class,
                    PacketClass::ReadRequest | PacketClass::WriteRequest
                ) {
                    per_bank[b] += 1;
                }
            }
        }
        let first_half: usize = per_bank[..8].iter().sum();
        let second_half: usize = per_bank[8..].iter().sum();
        assert!(
            first_half > second_half * 2,
            "skew should load low banks: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn bank_locality_repeats_destinations() {
        let layout = CmpLayout::paper_cmesh(8);
        let mut profile = *BenchmarkProfile::by_name("mgrid").unwrap();
        profile.bank_locality = 0.9;
        profile.burstiness = 0.0;
        let mut t = CmpTraffic::new(CmpConfig::paper(), layout, profile, 5);
        let reqs = run_ideal(&mut t, 6000);
        // Per core, count consecutive same-bank requests.
        let mut last: std::collections::HashMap<NodeId, NodeId> = Default::default();
        let (mut hits, mut total) = (0usize, 0usize);
        for r in reqs.iter().filter(|r| {
            matches!(
                r.class,
                PacketClass::ReadRequest | PacketClass::WriteRequest
            )
        }) {
            if let Some(prev) = last.insert(r.src, r.dst) {
                total += 1;
                if prev == r.dst {
                    hits += 1;
                }
            }
        }
        let frac = hits as f64 / total.max(1) as f64;
        assert!(frac > 0.75, "locality {frac}");
    }

    #[test]
    fn determinism_by_seed() {
        let mk = || {
            CmpTraffic::new(
                CmpConfig::paper(),
                CmpLayout::paper_cmesh(4),
                *BenchmarkProfile::by_name("fft").unwrap(),
                11,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(run_ideal(&mut a, 1000), run_ideal(&mut b, 1000));
    }

    #[test]
    fn pending_work_drains() {
        let mut t = small();
        let _ = run_ideal(&mut t, 2000);
        // Keep delivering without new issue: eventually drains.
        for cycle in 2000..4000 {
            let mut emitted = Vec::new();
            // Freeze cores by setting miss rate to zero via burst state: just
            // pop pending events and deliver them.
            t.generate(cycle, &mut |r| emitted.push(r));
            for r in emitted {
                let d = DeliveredPacket {
                    id: noc_base::PacketId::new(0),
                    src: r.src,
                    dst: r.dst,
                    len: r.len,
                    class: r.class,
                    injected_at: cycle,
                    delivered_at: cycle + 1,
                };
                t.deliver(cycle + 1, &d);
            }
        }
        // in_flight for core-issued packets is bounded by total MSHRs, so the
        // model never accumulates unbounded pending work.
        assert!(t.stats().packets > 0);
    }
}
