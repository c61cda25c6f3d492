//! An idealized router used to test the engine itself and to compute
//! contention-free reference latencies. Shared by the test targets of this
//! directory (`mod test_model;`); not part of the `noc-sim` library.
//!
//! [`WireRouter`] forwards every flit along its lookahead route after a fixed
//! pipeline delay, with unlimited internal bandwidth and no flow-control
//! checks toward downstream routers (it still returns credits upstream so
//! network interfaces keep injecting). It is *not* a router microarchitecture
//! — the pseudo-circuit and baseline routers live in the `pseudo-circuit`
//! crate — but it exercises every wiring path of the engine and provides a
//! lower-bound latency oracle for tests.

// Each test target uses its own part of the model.
#![allow(dead_code)]

use noc_base::{Credit, FlitPool, FlitRef, NodeId, PortIndex, RouteInfo, RouteMode, RouterId};
use noc_sim::{
    RouterBuildContext, RouterFactory, RouterModel, RouterOutputs, RouterStats, SentFlit,
};
use noc_topology::{SharedTopology, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

/// Computes the lookahead route a flit must carry when leaving a router:
/// the output port it will need at the *next* router.
///
/// # Panics
///
/// Panics if `(router, out_port, hops)` is not a connected channel position.
pub fn lookahead_route(
    topo: &dyn Topology,
    router: RouterId,
    out_port: PortIndex,
    hops: u8,
    dst: NodeId,
    mode: RouteMode,
) -> RouteInfo {
    let end = topo.link(router, out_port, hops).unwrap_or_else(|| {
        panic!("lookahead over dead channel {router} port {out_port} hop {hops}")
    });
    topo.route(end.router, dst, mode)
}

/// An ideal fixed-delay forwarding element.
///
/// Flit bodies live in the shared [`FlitPool`]; this model queues only
/// references. Its unbounded `VecDeque` pipeline is fine here — this is a
/// test oracle, not the production router cycle path (which runs on the
/// ring-buffer [`noc_sim::blocks::FifoBank`]).
pub struct WireRouter {
    id: RouterId,
    topo: SharedTopology,
    pool: Arc<FlitPool>,
    delay: u64,
    staged: Vec<(PortIndex, FlitRef)>,
    pipeline: VecDeque<(u64, PortIndex, FlitRef)>,
    last_connection: Vec<Option<PortIndex>>,
    stats: RouterStats,
}

impl WireRouter {
    /// Creates a wire router with the given per-hop delay in cycles.
    pub fn new(id: RouterId, topo: SharedTopology, pool: Arc<FlitPool>, delay: u64) -> Self {
        let in_ports = topo.in_ports(id);
        Self {
            id,
            topo,
            pool,
            delay,
            staged: Vec::new(),
            pipeline: VecDeque::new(),
            last_connection: vec![None; in_ports],
            stats: RouterStats::default(),
        }
    }
}

impl RouterModel for WireRouter {
    fn receive_flit(&mut self, in_port: PortIndex, flit: FlitRef) {
        self.staged.push((in_port, flit));
    }

    fn receive_credit(&mut self, _out_port: PortIndex, _credit: Credit) {
        // Ideal element: downstream flow control is ignored.
    }

    fn buffered_flits(&self) -> usize {
        self.staged.len() + self.pipeline.len()
    }

    fn step(&mut self, cycle: u64, out: &mut RouterOutputs) {
        for (in_port, flit) in self.staged.drain(..) {
            self.pipeline.push_back((cycle + self.delay, in_port, flit));
        }
        while let Some((due, _, _)) = self.pipeline.front() {
            if *due > cycle {
                break;
            }
            let (_, in_port, r) = self.pipeline.pop_front().expect("front exists");
            let flit = *self.pool.get(r);
            out.credits.push((in_port, flit.vc));

            let route = flit.route;
            // Crossbar-connection temporal locality (Fig. 1 metric),
            // measured at packet granularity: only headers are compared.
            if flit.kind.is_head() {
                if let Some(prev) = self.last_connection[in_port.index()] {
                    self.stats.xbar_locality_total += 1;
                    if prev == route.port {
                        self.stats.xbar_locality_hits += 1;
                    }
                }
                self.last_connection[in_port.index()] = Some(route.port);
            }
            self.stats.flit_traversals += 1;

            if route.port.index() >= self.topo.concentration() {
                let lookahead = lookahead_route(
                    self.topo.as_ref(),
                    self.id,
                    route.port,
                    route.hops,
                    flit.dst,
                    flit.mode,
                );
                self.pool.update(r, |f| f.route = lookahead);
            }
            out.flits.push(SentFlit {
                out_port: route.port,
                hops: route.hops,
                flit: r,
            });
        }
    }

    /// Exact step-is-no-op predicate: with nothing staged and an empty
    /// pipeline, `step` drains nothing and emits nothing.
    fn is_idle(&self) -> bool {
        self.staged.is_empty() && self.pipeline.is_empty()
    }

    fn stats(&self) -> RouterStats {
        self.stats
    }
}

/// Builds [`WireRouter`]s with a configurable delay (default 1 cycle).
#[derive(Copy, Clone, Debug)]
pub struct WireRouterFactory {
    /// Per-hop router delay in cycles.
    pub delay: u64,
}

impl Default for WireRouterFactory {
    fn default() -> Self {
        Self { delay: 1 }
    }
}

impl RouterFactory for WireRouterFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        Box::new(WireRouter::new(
            ctx.id,
            ctx.topology.clone(),
            ctx.pool.clone(),
            self.delay,
        ))
    }
}
