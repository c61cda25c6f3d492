//! Express Virtual Channels (Kumar, Peh, Kundu & Jha, ISCA 2007) — the
//! comparison scheme of the pseudo-circuit paper's §VII.B (its Fig. 14).
//!
//! EVC partitions each port's virtual channels into *normal* VCs (NVCs) and
//! *express* VCs (EVCs). A packet with at least [`L_MAX`] remaining hops in
//! its current dimension may acquire an EVC spanning an express segment; its
//! flits then *latch through* the intermediate routers — no buffering, no
//! arbitration, absolute switch priority — paying one cycle per intermediate
//! hop instead of a full router pipeline.
//!
//! This implementation models dynamic EVCs with `l_max = 2` (the paper's
//! configuration: 2 EVCs + 2 NVCs per port) on dimension-order-routed
//! mesh-family topologies:
//!
//! - express segments are acquired at VC allocation time when the packet
//!   continues at least two hops in the same direction and an EVC with
//!   downstream credit is free;
//! - at an intermediate router an express flit forwards in its arrival cycle
//!   when the express output VC is available and credited; otherwise it
//!   falls back to hop-by-hop operation (it is buffered and re-arbitrated
//!   like a normal flit, which is how congestion degrades EVC);
//! - non-express packets may only use NVCs — the restriction that starves
//!   concentrated topologies (few express opportunities, half the VCs),
//!   reproducing the paper's observation that EVC can hurt on the CMesh.
//!
//! The router is the shared speculative two-stage pipeline kernel
//! ([`crate::pipeline`]) plus the express-latch path and the NVC/EVC split,
//! plugged in through [`SchemeHooks`]. Riding on the kernel gives the EVC
//! comparator the same observability the pseudo-circuit router has:
//! per-stage latency histograms and per-port counters at `--metrics=full`,
//! lifecycle tracing (express latches record
//! [`TraceEventKind::ExpressLatch`]), and manifest router dumps.

use crate::pipeline::{KernelRouter, PipelineKernel, SchemeHooks};
use noc_base::{
    Flit, FlitPool, FlitRef, NodeId, PortIndex, RouteInfo, RouterId, VaPolicy, VcIndex,
};
use noc_sim::{
    NetworkConfig, PipelineStage, RouterBuildContext, RouterFactory, RouterModel, RouterOutputs,
    TraceEventKind,
};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// The express-segment length bound: a packet goes express when it continues
/// at least this many hops in one direction (the paper's configuration).
const L_MAX: u8 = 2;

/// The EVC scheme's [`SchemeHooks`]: the NVC/EVC split. The hooks carry no
/// cycle-driven state, so the kernel's base idle predicate is the whole
/// answer (the default [`SchemeHooks::is_idle`]).
pub(crate) struct EvcHooks {
    va_policy: VaPolicy,
    vcs: usize,
    nvcs: usize,
}

/// The Express-Virtual-Channel router (dynamic EVCs, `l_max = 2`): the
/// shared kernel running [`EvcHooks`].
pub(crate) type EvcRouter = KernelRouter<EvcHooks>;

impl EvcHooks {
    /// Builds an EVC router. Half the VCs are normal, half express.
    ///
    /// # Panics
    ///
    /// Panics if the routing policy uses more than one deadlock class (EVC's
    /// VC partition replaces O1TURN's) or if the VC count is odd.
    pub(crate) fn router(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        pool: Arc<FlitPool>,
    ) -> EvcRouter {
        assert_eq!(
            config.routing.num_classes().max(topo.min_classes()),
            1,
            "EVC requires a single-class routing policy (XY or YX) \
             on a topology without extra deadlock classes"
        );
        assert!(
            config.vcs_per_port.is_multiple_of(2),
            "EVC splits VCs in half"
        );
        let vcs = config.vcs_per_port as usize;
        let hooks = EvcHooks {
            va_policy: config.va_policy,
            vcs,
            nvcs: vcs / 2,
        };
        KernelRouter::new(PipelineKernel::new(id, topo, config, pool), hooks)
    }

    fn is_evc(&self, vc: VcIndex) -> bool {
        vc.index() >= self.nvcs
    }

    /// Whether a packet leaving through `route` continues for at least
    /// [`L_MAX`] hops in the same direction (same output-port index at each
    /// router along the way) — the express-eligibility test.
    fn express_eligible(
        &self,
        k: &PipelineKernel,
        route: RouteInfo,
        dst: NodeId,
        mode: noc_base::RouteMode,
    ) -> bool {
        if route.port.index() < k.concentration {
            return false;
        }
        let mut router = k.id;
        let mut step = route;
        for _ in 0..L_MAX - 1 {
            let Some(end) = k.topo.link(router, step.port, step.hops) else {
                return false;
            };
            let next = k.topo.route(end.router, dst, mode);
            if next.port != step.port || next.hops != step.hops {
                return false;
            }
            router = end.router;
            step = next;
        }
        true
    }

    /// Attempts the express latch for an arriving flit with remaining
    /// express hops. Returns whether the flit was consumed. `r` is the pool
    /// slot behind `flit` (a pre-read copy); a latched flit is forwarded by
    /// reference, never re-stored.
    fn try_latch(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        if k.in_busy(in_port) {
            return false;
        }
        let (express_hops, route, vc, kind) = {
            let f = k.pool().get(r);
            (f.express_hops, f.route, f.vc, f.kind)
        };
        if express_hops == 0 {
            return false;
        }
        if route.port.index() < k.concentration || k.out_busy(route.port) {
            return false;
        }
        debug_assert!(self.is_evc(vc), "express flit on a normal VC");
        if !k.input_empty(in_port, vc) {
            return false;
        }
        let sub = route.hops as usize - 1;
        let is_head = kind.is_head();
        let is_tail = kind.is_tail();
        if is_head {
            if k.input_route(in_port, vc).is_some() {
                return false;
            }
            if !k.out_vc_is_free(route.port, vc) || k.credits_available(route.port, sub, vc) == 0 {
                return false;
            }
            k.claim_out_vc(route.port, vc, (in_port, vc));
            if !is_tail {
                k.claim_pass_through(in_port, vc, route, vc);
            } else {
                k.release_out_vc(route.port, vc);
            }
        } else {
            if !k.input_pass_through(in_port, vc)
                || k.input_route(in_port, vc) != Some(route)
                || k.input_out_vc(in_port, vc) != Some(vc)
            {
                return false;
            }
            if k.credits_available(route.port, sub, vc) == 0 {
                return false;
            }
            if is_tail {
                k.release_input_vc(in_port, vc);
                k.release_out_vc(route.port, vc);
            }
        }
        k.consume_credit(route.port, sub, vc);
        k.stats.express_bypasses += 1;
        if let Some(p) = k.observed.as_deref_mut() {
            // Arrival and traversal happen this cycle: a 1-cycle latch hop.
            // Latched flits never reside in the buffer and skip VA/SA, so
            // those stages record no sample.
            p.stages.record(PipelineStage::St, 1);
        }
        k.trace(cycle, TraceEventKind::ExpressLatch, in_port, route.port);
        out.credits.push((in_port, vc));
        k.send_flit(r, in_port, route, vc, express_hops - 1, out);
        true
    }
}

impl SchemeHooks for EvcHooks {
    fn try_arrival_intercept(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        r: FlitRef,
        out: &mut RouterOutputs,
    ) -> bool {
        self.try_latch(k, cycle, in_port, r, out)
    }

    /// VC allocation for one header: express packets take EVCs, others NVCs.
    /// Falls back from EVC to NVC when no express VC is free. Returns the VC
    /// and the express-hop budget the packet's flits will carry.
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)> {
        let route = flit.route;
        let dst = flit.dst;
        let sub = route.hops as usize - 1;
        let express = self.express_eligible(k, route, dst, flit.mode);
        let port = route.port;
        let pick = |range, express_hops| {
            let free = |v| k.out_vc_is_free(port, v);
            let credits = |v| k.credits_available(port, sub, v);
            let vc = self.va_policy.choose(range, dst, free, credits)?;
            Some((vc, express_hops))
        };
        let chosen = if route.port.index() < k.concentration {
            // Local (ejection) ports have no express discipline: any VC.
            pick(0..self.vcs, 0)
        } else {
            let express = express.then(|| pick(self.nvcs..self.vcs, L_MAX - 1));
            express.flatten().or_else(|| pick(0..self.nvcs, 0))
        }?;
        k.claim_out_vc(port, chosen.0, owner);
        Some(chosen)
    }
}

/// Builds [`EvcRouter`]s.
#[derive(Copy, Clone, Debug, Default)]
pub struct EvcRouterFactory;

impl RouterFactory for EvcRouterFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        EvcHooks::router(ctx.id, ctx.topology.clone(), *ctx.config, ctx.pool.clone())
            .boxed(ctx.metrics)
    }
}

/// Direct cycle-level probes of the EVC router: latch timing, VC partition
/// discipline, and fallback behaviour.
#[cfg(test)]
mod tests {
    use super::*;
    use noc_base::{Credit, FlitKind, PacketClass, PacketId, RouteMode, RoutingPolicy};
    use noc_sim::SentFlit;
    use noc_topology::Mesh;

    fn config() -> NetworkConfig {
        NetworkConfig {
            vcs_per_port: 4,
            buffer_depth: 4,
            routing: RoutingPolicy::Xy,
            va_policy: VaPolicy::Dynamic,
        }
    }

    /// Middle router (id 2) of a 5x1 row: east port is 2, west port is 4.
    fn middle_router() -> (EvcRouter, SharedTopology) {
        let topo: SharedTopology = Arc::new(Mesh::new(5, 1, 1));
        let pool = Arc::new(noc_base::FlitPool::new(64, 1));
        (
            EvcHooks::router(RouterId::new(2), topo.clone(), config(), pool),
            topo,
        )
    }

    /// Allocates `f` in the router's pool and delivers it on `port`.
    fn deliver(r: &mut EvcRouter, port: PortIndex, f: Flit) {
        let fr = r.pool().alloc_serial(f);
        r.receive_flit(port, fr);
    }

    const EAST: PortIndex = PortIndex::new(2);
    const WEST_IN: PortIndex = PortIndex::new(4);

    /// An eastbound flit entering router 2 headed for node 4, on an express VC.
    fn express_flit(packet: u64, kind: FlitKind, seq: u16) -> Flit {
        Flit {
            packet: PacketId::new(packet),
            kind,
            seq,
            src: NodeId::new(0),
            dst: NodeId::new(4),
            vc: VcIndex::new(3), // EVC range is vcs/2..vcs = {2, 3}
            route: RouteInfo::new(EAST),
            mode: RouteMode::XY,
            class: 0,
            injected_at: 0,
            packet_class: PacketClass::Data,
            express_hops: 1,
        }
    }

    fn step(r: &mut EvcRouter, cycle: u64) -> Vec<SentFlit> {
        let mut out = RouterOutputs::default();
        r.step(cycle, &mut out);
        out.flits
    }

    #[test]
    fn express_flit_latches_in_its_arrival_cycle() {
        let (mut r, _) = middle_router();
        deliver(&mut r, WEST_IN, express_flit(1, FlitKind::Single, 0));
        let sent = step(&mut r, 0);
        assert_eq!(sent.len(), 1, "latched through in the arrival cycle");
        assert_eq!(sent[0].out_port, EAST);
        assert_eq!(
            r.pool().get(sent[0].flit).express_hops,
            0,
            "hop count decremented"
        );
        assert_eq!(r.stats().express_bypasses, 1);
        assert_eq!(r.buffered_flits(), 0, "no buffering on the latch path");
    }

    #[test]
    fn non_express_flit_takes_the_full_pipeline() {
        let (mut r, _) = middle_router();
        let mut f = express_flit(1, FlitKind::Single, 0);
        f.express_hops = 0;
        f.vc = VcIndex::new(0);
        deliver(&mut r, WEST_IN, f);
        assert!(step(&mut r, 0).is_empty(), "BW");
        assert!(step(&mut r, 1).is_empty(), "VA/SA");
        assert_eq!(step(&mut r, 2).len(), 1, "ST");
        assert_eq!(r.stats().express_bypasses, 0);
    }

    #[test]
    fn express_stream_latches_flit_per_cycle() {
        let (mut r, _) = middle_router();
        let kinds = [FlitKind::Head, FlitKind::Body, FlitKind::Tail];
        let mut total = 0;
        for (c, kind) in kinds.into_iter().enumerate() {
            deliver(&mut r, WEST_IN, express_flit(7, kind, c as u16));
            total += step(&mut r, c as u64).len();
        }
        assert_eq!(total, 3, "whole packet latched, one flit per cycle");
        assert_eq!(r.stats().express_bypasses, 3);
        // The pass-through claim is released at the tail.
        let mut f = express_flit(8, FlitKind::Single, 0);
        f.vc = VcIndex::new(3);
        deliver(&mut r, WEST_IN, f);
        assert_eq!(step(&mut r, 3).len(), 1, "next packet can latch again");
    }

    #[test]
    fn latch_fails_without_credit_and_falls_back() {
        let (mut r, _) = middle_router();
        // Drain all 4 credits of (EAST, vc 3) with express singles.
        for i in 0..4 {
            deliver(&mut r, WEST_IN, express_flit(i, FlitKind::Single, 0));
            assert_eq!(step(&mut r, i).len(), 1);
        }
        // The 5th express flit cannot latch: it must be buffered (fallback).
        deliver(&mut r, WEST_IN, express_flit(9, FlitKind::Single, 0));
        assert!(step(&mut r, 4).is_empty(), "no credit, no latch");
        assert_eq!(r.buffered_flits(), 1, "fallback wrote the buffer");
        // A returned credit lets the buffered flit proceed via normal VA/SA.
        r.receive_credit(EAST, Credit::new(VcIndex::new(3)));
        let mut sent = 0;
        for c in 5..9 {
            sent += step(&mut r, c).len();
        }
        assert_eq!(sent, 1, "fallback flit delivered hop-by-hop");
        assert_eq!(r.buffered_flits(), 0, "and read out of the buffer");
        assert_eq!(
            r.stats().express_bypasses,
            4,
            "the stalled flit was not a bypass"
        );
    }

    #[test]
    #[should_panic(expected = "single-class routing")]
    fn rejects_multi_class_routing() {
        let topo: SharedTopology = Arc::new(Mesh::new(4, 1, 1));
        let bad = NetworkConfig {
            routing: RoutingPolicy::O1Turn,
            ..config()
        };
        let pool = Arc::new(noc_base::FlitPool::new(16, 1));
        let _ = EvcHooks::router(RouterId::new(0), topo, bad, pool);
    }
}
