//! Property-based tests: the pseudo-circuit unit maintains its one-circuit-
//! per-port invariants under arbitrary operation sequences, and speculation
//! can only ever restore circuits consistent with the registers.

use noc_base::{PortIndex, VcIndex};
use proptest::prelude::*;
use pseudo_circuit::{PseudoCircuitUnit, Termination};

#[derive(Clone, Debug)]
enum Op {
    Establish { in_port: u8, vc: u8, out_port: u8 },
    Terminate { in_port: u8, credit: bool },
    Restore { out_port: u8 },
}

fn op_strategy(ports: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ports, 0u8..4, 0..ports).prop_map(|(in_port, vc, out_port)| Op::Establish {
            in_port,
            vc,
            out_port
        }),
        (0..ports, any::<bool>()).prop_map(|(in_port, credit)| Op::Terminate { in_port, credit }),
        (0..ports).prop_map(|out_port| Op::Restore { out_port }),
    ]
}

proptest! {
    #[test]
    fn invariants_hold_under_arbitrary_operations(
        ports in 2u8..8,
        ops in prop::collection::vec(op_strategy(8), 1..200),
    ) {
        let mut unit = PseudoCircuitUnit::new(ports as usize, ports as usize);
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    let in_port = in_port % ports;
                    let out_port = out_port % ports;
                    unit.establish(
                        PortIndex::new(in_port as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new(out_port as usize),
                        1,
                    );
                    // The established circuit is live and holds its output.
                    let live = unit.live(PortIndex::new(in_port as usize));
                    prop_assert!(live.is_some());
                    prop_assert_eq!(
                        unit.holder(PortIndex::new(out_port as usize)),
                        Some(PortIndex::new(in_port as usize))
                    );
                }
                Op::Terminate { in_port, credit } => {
                    let why = if credit {
                        Termination::CreditExhausted
                    } else {
                        Termination::Conflict
                    };
                    unit.terminate(PortIndex::new((in_port % ports) as usize), why);
                }
                Op::Restore { out_port } => {
                    let port = PortIndex::new((out_port % ports) as usize);
                    let before_history = unit.history(port);
                    let restored = unit.try_restore(port);
                    if restored {
                        // Restoration reconnects exactly the history input.
                        let h = before_history.expect("restore requires history");
                        let live = unit.live(h).expect("restored circuit is live");
                        prop_assert_eq!(live.out_port, port);
                        prop_assert_eq!(unit.holder(port), Some(h));
                    }
                }
            }
            if let Err(e) = unit.check_invariants() {
                prop_assert!(false, "invariant violated: {e}");
            }
        }
    }

    /// The restorable mask `speculate` iterates is maintained incrementally;
    /// here it is recomputed from the records after every operation, and
    /// `try_restore` (which reads only the mask) must succeed exactly on
    /// the outputs the predicate names. Unequal port counts, so stale
    /// registers and history entries index the two sides differently.
    #[test]
    fn restorable_mask_is_exactly_the_restore_predicate(
        in_ports in 1u8..8,
        out_ports in 1u8..8,
        ops in prop::collection::vec(op_strategy(8), 1..200),
    ) {
        let mut unit = PseudoCircuitUnit::new(in_ports as usize, out_ports as usize);
        let restorable = |unit: &PseudoCircuitUnit, o: usize| {
            let port = PortIndex::new(o);
            unit.holder(port).is_none()
                && unit.history(port).is_some_and(|h| {
                    let reg = unit.registers(h);
                    !reg.valid && reg.out_port == port
                })
        };
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    unit.establish(
                        PortIndex::new((in_port % in_ports) as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new((out_port % out_ports) as usize),
                        1,
                    );
                }
                Op::Terminate { in_port, credit } => {
                    let why = if credit {
                        Termination::CreditExhausted
                    } else {
                        Termination::Conflict
                    };
                    unit.terminate(PortIndex::new((in_port % in_ports) as usize), why);
                }
                Op::Restore { out_port } => {
                    let o = (out_port % out_ports) as usize;
                    let expected = restorable(&unit, o);
                    prop_assert_eq!(unit.try_restore(PortIndex::new(o)), expected);
                }
            }
            for o in 0..out_ports as usize {
                prop_assert_eq!(
                    unit.restorable_mask().get(o),
                    restorable(&unit, o),
                    "output {} after {:?}",
                    o,
                    op
                );
            }
        }
    }

    #[test]
    fn termination_counters_are_monotonic(
        ops in prop::collection::vec(op_strategy(4), 1..100),
    ) {
        let mut unit = PseudoCircuitUnit::new(4, 4);
        let mut last = (0, 0);
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    let _ = unit.establish(
                        PortIndex::new((in_port % 4) as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new((out_port % 4) as usize),
                        1,
                    );
                }
                Op::Terminate { in_port, credit } => unit.terminate(
                    PortIndex::new((in_port % 4) as usize),
                    if credit {
                        Termination::CreditExhausted
                    } else {
                        Termination::Conflict
                    },
                ),
                Op::Restore { out_port } => {
                    let _ = unit.try_restore(PortIndex::new((out_port % 4) as usize));
                }
            }
            let now = (unit.terminations_conflict(), unit.terminations_credit());
            prop_assert!(now.0 >= last.0 && now.1 >= last.1);
            last = now;
        }
    }
}

/// Drives a [`PcRouter`] the way the engine does — flits under upstream
/// credit, credits only for flits it sent, one step per cycle — so the
/// port-summary masks can be checked against the state they summarize after
/// every call (DESIGN.md §14).
mod summaries {
    use super::*;
    use noc_base::{
        Credit, FlitPool, Mask64, NodeId, PacketClass, PacketDescriptor, PacketId, RouteMode,
        RouterId, RoutingPolicy, VaPolicy, VcPartition,
    };
    use noc_sim::{NetworkConfig, RouterModel, RouterOutputs};
    use noc_topology::{Mecs, Mesh, SharedTopology};
    use pseudo_circuit::{PcHooks, PcRouter, Scheme};
    use std::sync::Arc;

    #[derive(Clone, Debug)]
    pub enum Call {
        /// Start a packet on, or continue the packet of, an input VC.
        Flit {
            port: u8,
            vc: u8,
            dst: u16,
            len: u8,
        },
        /// Return the credit of one flit the router sent earlier.
        Credit {
            pick: u16,
        },
        Step,
    }

    pub fn call_strategy() -> impl Strategy<Value = Call> {
        // Two flit arms and two step arms to one credit arm: credits kept
        // scarce enough that sub-channels run dry.
        prop_oneof![
            (any::<u8>(), any::<u8>(), any::<u16>(), 1u8..4)
                .prop_map(|(port, vc, dst, len)| Call::Flit { port, vc, dst, len }),
            (any::<u8>(), any::<u8>(), any::<u16>(), 1u8..4)
                .prop_map(|(port, vc, dst, len)| Call::Flit { port, vc, dst, len }),
            any::<u16>().prop_map(|pick| Call::Credit { pick }),
            any::<u16>().prop_map(|_| Call::Step),
            any::<u16>().prop_map(|_| Call::Step),
        ]
    }

    struct Harness {
        router: PcRouter,
        topo: SharedTopology,
        id: RouterId,
        vcs: usize,
        /// The deadlock classes the input VCs are split into; a packet
        /// arrives on a VC of its own class, as an interface would send it.
        routing: RoutingPolicy,
        partition: VcPartition,
        /// Free slots of each input VC's buffer, as its feeder counts them.
        upstream: Vec<u32>,
        /// The packet each input VC is in the middle of, and its next flit.
        open: Vec<Option<(PacketDescriptor, u16)>>,
        /// Input ports already fed this cycle (a link carries one flit).
        fed: Mask64,
        /// `(out_port, sub, vc)` of every sent flit not yet credited.
        downstream: Vec<(PortIndex, u8, VcIndex)>,
        cycle: u64,
        packets: u64,
    }

    impl Harness {
        fn new(topo: SharedTopology, id: RouterId, config: NetworkConfig) -> Self {
            let vcs = config.vcs_per_port as usize;
            let slots = topo.in_ports(id) * vcs;
            let pool = Arc::new(FlitPool::new(slots * config.buffer_depth as usize + 64, 1));
            Self {
                router: PcHooks::router(id, topo.clone(), config, Scheme::pseudo_ps_bb(), pool),
                routing: config.routing,
                partition: config.partition_for(topo.as_ref()),
                topo,
                id,
                vcs,
                upstream: vec![config.buffer_depth; slots],
                open: vec![None; slots],
                fed: Mask64::EMPTY,
                downstream: Vec::new(),
                cycle: 0,
                packets: 0,
            }
        }

        fn apply(&mut self, call: &Call) {
            match *call {
                Call::Flit { port, vc, dst, len } => {
                    let port = port as usize % self.topo.in_ports(self.id);
                    let slot = port * self.vcs + vc as usize % self.vcs;
                    if self.fed.get(port) || self.upstream[slot] == 0 {
                        return;
                    }
                    let (desc, seq) = self.open[slot].take().unwrap_or_else(|| {
                        self.packets += 1;
                        let desc = PacketDescriptor {
                            id: PacketId::new(self.packets),
                            src: NodeId::new(0),
                            dst: NodeId::new(dst as usize % self.topo.num_nodes()),
                            len: u16::from(len),
                            class: PacketClass::Data,
                            created_at: self.cycle,
                        };
                        (desc, 0)
                    });
                    let mut flit = desc.flit(seq);
                    flit.vc = VcIndex::new(slot % self.vcs);
                    flit.class = self.partition.class_of_vc(flit.vc);
                    flit.mode = [RouteMode::XY, RouteMode::YX][usize::from(flit.class)];
                    debug_assert_eq!(self.routing.class_of(flit.mode), flit.class);
                    flit.route = self.topo.route(self.id, flit.dst, flit.mode);
                    if seq + 1 < desc.len {
                        self.open[slot] = Some((desc, seq + 1));
                    }
                    self.upstream[slot] -= 1;
                    self.fed.set(port);
                    let r = self.router.pool().alloc_serial(flit);
                    self.router.receive_flit(PortIndex::new(port), r);
                }
                Call::Credit { pick } => {
                    if self.downstream.is_empty() {
                        return;
                    }
                    let at = pick as usize % self.downstream.len();
                    let (port, sub, vc) = self.downstream.swap_remove(at);
                    self.router.receive_credit(port, Credit { vc, sub });
                }
                Call::Step => {
                    let mut out = RouterOutputs::default();
                    self.router.step(self.cycle, &mut out);
                    for sent in out.flits {
                        let vc = self.router.pool().get(sent.flit).vc;
                        self.downstream.push((sent.out_port, sent.hops - 1, vc));
                        self.router.pool().free(sent.flit);
                    }
                    for (in_port, vc) in out.credits {
                        self.upstream[in_port.index() * self.vcs + vc.index()] += 1;
                    }
                    self.fed = Mask64::EMPTY;
                    self.cycle += 1;
                }
            }
        }

        fn check(&self) -> Result<(), String> {
            self.router.kernel().check_summaries()?;
            self.router.hooks().pseudo_unit().check_invariants()
        }
    }

    pub fn check_summaries_hold(
        topo: SharedTopology,
        id: RouterId,
        routing: RoutingPolicy,
        va_policy: VaPolicy,
        calls: &[Call],
    ) -> Result<(), TestCaseError> {
        // Two-flit buffers on two VCs per deadlock class: a handful of
        // flits exhausts a sub-channel's credits, so circuits terminate and
        // restore often.
        let config = NetworkConfig {
            vcs_per_port: 2 * routing.num_classes(),
            buffer_depth: 2,
            routing,
            va_policy,
        };
        let mut harness = Harness::new(topo, id, config);
        for (i, call) in calls.iter().enumerate() {
            harness.apply(call);
            if let Err(e) = harness.check() {
                prop_assert!(false, "after call {i} ({call:?}): {e}");
            }
        }
        Ok(())
    }

    pub fn mesh() -> (SharedTopology, RouterId) {
        // Center router of a 3x3 mesh: every port wired, one sub each.
        (Arc::new(Mesh::new(3, 3, 1)), RouterId::new(4))
    }

    pub fn mecs() -> (SharedTopology, RouterId) {
        // Router (1, 1) of a 4x4 MECS: its east and south channels have two
        // drop positions, its west and north one — several subs per port,
        // and more input ports than output ports.
        (Arc::new(Mecs::new(4, 4, 1)), RouterId::new(5))
    }

    pub fn cmesh() -> (SharedTopology, RouterId) {
        // Router (1, 1) of the paper's 4x4 concentrated mesh: four local
        // ports beside the four directions, the widest router the
        // benchmark's `cmp_cmesh` workload steps.
        (Arc::new(Mesh::new(4, 4, 4)), RouterId::new(5))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn port_summaries_hold_on_a_mesh_router(
        dynamic in any::<bool>(),
        calls in prop::collection::vec(summaries::call_strategy(), 1..400),
    ) {
        let (topo, id) = summaries::mesh();
        let va = if dynamic { noc_base::VaPolicy::Dynamic } else { noc_base::VaPolicy::Static };
        summaries::check_summaries_hold(topo, id, noc_base::RoutingPolicy::Xy, va, &calls)?;
    }

    #[test]
    fn port_summaries_hold_on_a_mecs_multidrop_router(
        dynamic in any::<bool>(),
        calls in prop::collection::vec(summaries::call_strategy(), 1..400),
    ) {
        let (topo, id) = summaries::mecs();
        let va = if dynamic { noc_base::VaPolicy::Dynamic } else { noc_base::VaPolicy::Static };
        summaries::check_summaries_hold(topo, id, noc_base::RoutingPolicy::Xy, va, &calls)?;
    }

    /// The `cmp_cmesh` configuration: eight ports, O1TURN's two VC classes
    /// (XY packets on the low VCs, YX on the high ones), dynamic VA choosing
    /// among a class's free output VCs.
    #[test]
    fn port_summaries_hold_on_a_cmesh_router_under_o1turn(
        calls in prop::collection::vec(summaries::call_strategy(), 1..400),
    ) {
        let (topo, id) = summaries::cmesh();
        summaries::check_summaries_hold(
            topo,
            id,
            noc_base::RoutingPolicy::O1Turn,
            noc_base::VaPolicy::Dynamic,
            &calls,
        )?;
    }
}
