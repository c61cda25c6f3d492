//! Property tests for the structure-of-arrays kernel state and the
//! quiescence-driven fast-forward path (DESIGN.md §15).
//!
//! Two families:
//!
//! - fast-forwarding must be invisible: a skipped cycle is provably a no-op,
//!   so the full `SimReport` (stats, latency histogram, energy, locality) is
//!   identical with the optimization on and off for any synthetic workload;
//! - the kernel's flat-array accessors must agree with the documented scalar
//!   index model (`in_port * vcs + vc`, `credit_base[p] + sub * vcs + vc`)
//!   under arbitrary claim/release/credit operation sequences.

use noc_base::{Credit, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_sim::{NetworkConfig, PipelineKernel, RunSpec, Simulation};
use noc_topology::{Mecs, Mesh, SharedTopology, Topology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use proptest::prelude::*;
use pseudo_circuit::{PcRouterFactory, Scheme};
use std::sync::Arc;

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::baseline()),
        Just(Scheme::pseudo()),
        Just(Scheme::pseudo_ps_bb()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fast-forward on/off produce byte-identical reports (compared through
    /// the same `Debug` rendering the golden files pin). Loads reach down to
    /// 0.005 so many runs actually hit quiescent stretches.
    #[test]
    fn fast_forward_on_off_reports_are_identical(
        w in 2u16..5,
        h in 2u16..5,
        scheme in scheme_strategy(),
        load in 0.005f64..0.08,
        len in 1u16..6,
        seed in 0u64..1_000,
    ) {
        let topo: SharedTopology = Arc::new(Mesh::new(w, h, 1));
        let run = |fast_forward: bool| {
            let traffic = SyntheticTraffic::new(
                SyntheticPattern::UniformRandom,
                w as usize,
                h as usize,
                len,
                load,
                seed,
            );
            let mut sim = Simulation::new(
                topo.clone(),
                NetworkConfig::paper(),
                Box::new(traffic),
                &PcRouterFactory::new(scheme),
                seed ^ 0x5eed,
            );
            sim.set_fast_forward(fast_forward);
            sim.run(RunSpec::new(100, 800, 20_000))
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(format!("{on:#?}"), format!("{off:#?}"));
    }
}

/// One mutation of kernel state reachable through the hook-facing accessors.
#[derive(Copy, Clone, Debug)]
enum KernelOp {
    ClaimInput { slot: usize, out: usize, pass: bool },
    ReleaseInput { slot: usize },
    ClaimOut { out: usize },
    ReleaseOut { out: usize },
    ConsumeCredit { credit: usize },
    RefillCredit { credit: usize },
}

/// Scalar mirror of the kernel's per-VC / per-output state, indexed with the
/// documented formulas only.
struct ScalarModel {
    vcs: usize,
    routes: Vec<Option<RouteInfo>>,
    out_vcs: Vec<Option<VcIndex>>,
    pass: Vec<bool>,
    owners: Vec<Option<(PortIndex, VcIndex)>>,
    credits: Vec<u32>,
    credit_base: Vec<usize>,
    capacity: u32,
}

impl ScalarModel {
    fn new(topo: &dyn Topology, id: RouterId, config: NetworkConfig) -> Self {
        let vcs = config.vcs_per_port as usize;
        let in_slots = topo.in_ports(id) * vcs;
        let out_ports = topo.out_ports(id);
        let mut credit_base = vec![0usize];
        for p in 0..out_ports {
            let subs = topo.channel_len(id, PortIndex::new(p)) as usize;
            credit_base.push(credit_base[p] + subs * vcs);
        }
        Self {
            vcs,
            routes: vec![None; in_slots],
            out_vcs: vec![None; in_slots],
            pass: vec![false; in_slots],
            owners: vec![None; out_ports * vcs],
            credits: vec![config.buffer_depth; credit_base[out_ports]],
            credit_base,
            capacity: config.buffer_depth,
        }
    }

    fn in_pv(&self, slot: usize) -> (PortIndex, VcIndex) {
        (
            PortIndex::new(slot / self.vcs),
            VcIndex::new(slot % self.vcs),
        )
    }

    fn out_pv(&self, slot: usize) -> (PortIndex, VcIndex) {
        (
            PortIndex::new(slot / self.vcs),
            VcIndex::new(slot % self.vcs),
        )
    }

    /// Decomposes a flat credit index back into `(port, sub, vc)`.
    fn credit_psv(&self, slot: usize) -> (PortIndex, usize, VcIndex) {
        let port = self.credit_base.partition_point(|&b| b <= slot) - 1;
        let within = slot - self.credit_base[port];
        (
            PortIndex::new(port),
            within / self.vcs,
            VcIndex::new(within % self.vcs),
        )
    }
}

fn kernel_op_strategy(
    in_slots: usize,
    out_slots: usize,
    credit_slots: usize,
) -> impl Strategy<Value = KernelOp> {
    prop_oneof![
        (0..in_slots, 0..out_slots, any::<bool>())
            .prop_map(|(slot, out, pass)| KernelOp::ClaimInput { slot, out, pass }),
        (0..in_slots).prop_map(|slot| KernelOp::ReleaseInput { slot }),
        (0..out_slots).prop_map(|out| KernelOp::ClaimOut { out }),
        (0..out_slots).prop_map(|out| KernelOp::ReleaseOut { out }),
        (0..credit_slots).prop_map(|credit| KernelOp::ConsumeCredit { credit }),
        (0..credit_slots).prop_map(|credit| KernelOp::RefillCredit { credit }),
    ]
}

/// Applies a random operation sequence through the accessors and checks every
/// accessor against the scalar model after each step. MECS gives multidrop
/// channels (`channel_len > 1`), so the per-port credit strides differ.
fn check_accessors_track_scalar_model(topo: SharedTopology, id: RouterId, ops: &[KernelOp]) {
    let config = NetworkConfig::paper();
    let pool = Arc::new(noc_base::FlitPool::new(16, 1));
    let mut kernel = PipelineKernel::new(id, topo.clone(), config, false, pool);
    let mut model = ScalarModel::new(topo.as_ref(), id, config);

    for &op in ops {
        match op {
            KernelOp::ClaimInput { slot, out, pass } => {
                let (p, v) = model.in_pv(slot);
                let (op_, ov) = model.out_pv(out);
                // hops = 1 keeps the route valid on every topology.
                let route = RouteInfo { port: op_, hops: 1 };
                if pass {
                    kernel.claim_pass_through(p, v, route, ov);
                } else {
                    kernel.claim_input_vc(p, v, route, ov);
                }
                model.routes[slot] = Some(route);
                model.out_vcs[slot] = Some(ov);
                if pass {
                    model.pass[slot] = true;
                }
            }
            KernelOp::ReleaseInput { slot } => {
                let (p, v) = model.in_pv(slot);
                kernel.release_input_vc(p, v);
                model.routes[slot] = None;
                model.out_vcs[slot] = None;
                model.pass[slot] = false;
            }
            KernelOp::ClaimOut { out } => {
                if model.owners[out].is_some() {
                    continue; // claiming a taken VC panics by contract
                }
                let (p, v) = model.out_pv(out);
                kernel.claim_out_vc(p, v, (PortIndex::new(0), v));
                model.owners[out] = Some((PortIndex::new(0), v));
            }
            KernelOp::ReleaseOut { out } => {
                let (p, v) = model.out_pv(out);
                kernel.release_out_vc(p, v);
                model.owners[out] = None;
            }
            KernelOp::ConsumeCredit { credit } => {
                if model.credits[credit] == 0 {
                    continue; // underflow panics by contract
                }
                let (p, sub, v) = model.credit_psv(credit);
                kernel.consume_credit(p, sub, v);
                model.credits[credit] -= 1;
            }
            KernelOp::RefillCredit { credit } => {
                if model.credits[credit] == model.capacity {
                    continue; // overflow panics by contract
                }
                let (p, sub, v) = model.credit_psv(credit);
                kernel.receive_credit(
                    p,
                    Credit {
                        vc: v,
                        sub: sub as u8,
                    },
                );
                model.credits[credit] += 1;
            }
        }

        // Full sweep: every accessor must agree with the scalar index model.
        for slot in 0..model.routes.len() {
            let (p, v) = model.in_pv(slot);
            assert_eq!(kernel.input_route(p, v), model.routes[slot]);
            assert_eq!(kernel.input_out_vc(p, v), model.out_vcs[slot]);
            assert_eq!(kernel.input_pass_through(p, v), model.pass[slot]);
            assert!(kernel.input_empty(p, v));
        }
        for out in 0..model.owners.len() {
            let (p, v) = model.out_pv(out);
            assert_eq!(kernel.out_vc_is_free(p, v), model.owners[out].is_none());
        }
        for slot in 0..model.credits.len() {
            let (p, sub, v) = model.credit_psv(slot);
            assert_eq!(kernel.credits_available(p, sub, v), model.credits[slot]);
        }
        for p in 0..topo.out_ports(id) {
            let port = PortIndex::new(p);
            for sub in 0..topo.channel_len(id, port) as usize {
                let base = model.credit_base[p] + sub * model.vcs;
                let expected: u32 = model.credits[base..base + model.vcs].iter().sum();
                assert_eq!(kernel.credits_at_sub(port, sub), expected);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SoA accessors agree with the scalar `(port, vc)` index model on a
    /// mesh router (uniform channel length 1).
    #[test]
    fn accessors_match_scalar_model_on_mesh(
        ops in proptest::collection::vec(kernel_op_strategy(5 * 4, 5 * 4, 5 * 4), 1..60),
    ) {
        // Center router of a 3x3 mesh: 5 in / 5 out ports, 4 VCs each.
        let topo: SharedTopology = Arc::new(Mesh::new(3, 3, 1));
        check_accessors_track_scalar_model(topo, RouterId::new(4), &ops);
    }

    /// Same on a MECS router, whose multidrop output channels give each port
    /// a different credit-region stride.
    #[test]
    fn accessors_match_scalar_model_on_mecs(
        ops in proptest::collection::vec(kernel_op_strategy(1, 1, 1), 1..60),
    ) {
        let topo: SharedTopology = Arc::new(Mecs::new(4, 4, 1));
        let id = RouterId::new(5);
        let vcs = 4usize;
        let in_slots = topo.in_ports(id) * vcs;
        let out_slots = topo.out_ports(id) * vcs;
        let credit_slots: usize = (0..topo.out_ports(id))
            .map(|p| topo.channel_len(id, PortIndex::new(p)) as usize * vcs)
            .sum();
        // Remap the unit-range ops onto the real slot counts so the strategy
        // does not need the topology at construction time.
        let scaled: Vec<KernelOp> = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| match op {
                KernelOp::ClaimInput { pass, .. } => KernelOp::ClaimInput {
                    slot: i * 7 % in_slots,
                    out: i * 11 % out_slots,
                    pass,
                },
                KernelOp::ReleaseInput { .. } => KernelOp::ReleaseInput { slot: i * 7 % in_slots },
                KernelOp::ClaimOut { .. } => KernelOp::ClaimOut { out: i * 11 % out_slots },
                KernelOp::ReleaseOut { .. } => KernelOp::ReleaseOut { out: i * 11 % out_slots },
                KernelOp::ConsumeCredit { .. } => KernelOp::ConsumeCredit { credit: i * 13 % credit_slots },
                KernelOp::RefillCredit { .. } => KernelOp::RefillCredit { credit: i * 13 % credit_slots },
            })
            .collect();
        check_accessors_track_scalar_model(topo, id, &scaled);
    }
}
