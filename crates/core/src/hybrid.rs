//! Profiled hybrid switching — a circuit/wormhole hybrid in the spirit of
//! *"Energy-Efficient On-Chip Networks through Profiled Hybrid Switching"*
//! (He & Cao), adapted to the pseudo-circuit reproduction's shared pipeline
//! kernel as a third comparison scheme.
//!
//! The observation behind hybrid switching is that on-chip traffic is
//! dominated by a small set of *hot* source→destination flows (producer/
//! consumer pairs, memory controllers, pipeline stages). Circuit switching
//! serves those flows with no per-hop arbitration, while the long tail of
//! cold flows is better served by plain wormhole switching — holding
//! circuits for them would waste bandwidth and starve bystanders.
//!
//! This implementation profiles **online** instead of ahead of time:
//!
//! 1. **Profile window** (`cycle < profile_cycles`): every router runs pure
//!    wormhole switching and counts, per flow, the headers that win VC
//!    allocation at that router.
//! 2. **Freeze**: at the first step with `cycle >= profile_cycles` the
//!    counts are frozen into a per-router *hot-flow table* (a flow is hot
//!    when its header count reached `hot_threshold`).
//! 3. **Hybrid phase**: switch-arbitration grants for hot flows establish a
//!    held circuit on their input→output connection — the
//!    [`PseudoCircuitUnit`](crate::PseudoCircuitUnit) register machinery —
//!    and later flits of matching flows ride it, skipping arbitration
//!    (2-cycle hops).
//!    Grants for cold flows never establish circuits; they tear down any
//!    conflicting circuit (the crossbar was reconfigured under it) and take
//!    the baseline 3-cycle pipeline at every hop. (A cold flit whose route
//!    happens to match an already-held circuit still rides it — hotness
//!    gates establishment, not the drain, mirroring the physical crossbar.)
//!
//! The §III.C safety rules of the pseudo-circuit paper are kept verbatim:
//! switch arbitration always has priority over a held circuit (starvation
//! freedom), and a circuit whose output has no downstream credit is
//! terminated immediately (buffer-overflow protection). Speculation and
//! buffer bypassing are deliberately **not** used — held circuits are meant
//! to be long-lived, so restoring transient ones is beside the point.
//!
//! Flow identity is `(src, dst)` hashed into a bounded table
//! (construction-time allocated, at most [`FLOW_TABLE_CAP`] slots);
//! collisions merely conflate two flows' counts, which can promote a cold
//! flow to hot — a policy inaccuracy, never a correctness problem.
//!
//! The router is the shared speculative two-stage pipeline kernel
//! ([`crate::pipeline`]) plus the online profile phase and the
//! hot-flow-gated held-circuit path, plugged in through [`SchemeHooks`]; the
//! circuit registers and their datapath are the pseudo-circuit router's.

use crate::datapath::CircuitDatapath;
use crate::pipeline::{KernelRouter, PipelineKernel, SchemeHooks};
use crate::pseudo::Termination;
use noc_base::{Flit, FlitPool, NodeId, PortIndex, RouteInfo, RouterId, VcIndex};
use noc_sim::{NetworkConfig, RouterBuildContext, RouterFactory, RouterModel, RouterOutputs};
use noc_topology::SharedTopology;
use std::sync::Arc;

/// Upper bound on the flow table size; `(src, dst)` pairs beyond it share
/// slots (see the module docs on collision semantics).
const FLOW_TABLE_CAP: usize = 1 << 16;

/// The hybrid scheme's [`SchemeHooks`]: the profile counters, the frozen
/// hot-flow table, and the shared circuit datapath the hot path drives.
pub struct HybridHooks {
    circuits: CircuitDatapath,
    /// First cycle of the hybrid phase; the profile window is `0..profile_cycles`.
    profile_cycles: u64,
    /// Header count at which a profiled flow becomes hot.
    hot_threshold: u32,
    frozen: bool,
    num_nodes: usize,
    /// Per-flow header counts gathered during the profile window.
    counts: Vec<u32>,
    /// Bitset over flow slots, filled at freeze time.
    hot: Vec<u64>,
}

/// The profiled-hybrid router: the shared kernel running [`HybridHooks`].
pub type HybridRouter = KernelRouter<HybridHooks>;

impl HybridHooks {
    /// Builds a hybrid router that profiles for `profile_cycles` cycles and
    /// then holds circuits for flows whose header count reached
    /// `hot_threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `profile_cycles` is zero (the profile window must exist)
    /// or `hot_threshold` is zero (every flow would be hot, including
    /// never-seen ones).
    pub(crate) fn router(
        id: RouterId,
        topo: SharedTopology,
        config: NetworkConfig,
        profile_cycles: u64,
        hot_threshold: u32,
        pool: Arc<FlitPool>,
    ) -> HybridRouter {
        assert!(
            profile_cycles > 0,
            "hybrid switching needs a profile window"
        );
        assert!(hot_threshold > 0, "a zero threshold marks unseen flows hot");
        let num_nodes = topo.num_nodes();
        let table = (num_nodes * num_nodes).clamp(1, FLOW_TABLE_CAP);
        // The kernel first: its width check names the router.
        let kernel = PipelineKernel::new(id, topo, config, true, pool);
        let hooks = HybridHooks {
            circuits: CircuitDatapath::new(id, kernel.topo.as_ref(), &config),
            profile_cycles,
            hot_threshold,
            frozen: false,
            num_nodes,
            counts: vec![0; table],
            hot: vec![0; table.div_ceil(64)],
        };
        KernelRouter::new(kernel, hooks)
    }

    fn slot(&self, src: NodeId, dst: NodeId) -> usize {
        (src.index() * self.num_nodes + dst.index()) % self.counts.len()
    }

    /// Whether the (frozen) hot-flow table marks `src → dst` hot.
    fn flow_is_hot(&self, src: NodeId, dst: NodeId) -> bool {
        let slot = self.slot(src, dst);
        self.hot[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Freezes the profile: marks every flow whose header count reached the
    /// threshold as hot. Writes into the pre-sized bitset — no allocation.
    fn freeze(&mut self) {
        for (slot, &count) in self.counts.iter().enumerate() {
            if count >= self.hot_threshold {
                self.hot[slot / 64] |= 1 << (slot % 64);
            }
        }
        self.frozen = true;
    }

    /// Tears down circuits conflicting with a cold grant: SA reconfigured
    /// the crossbar, so a circuit holding either side of the granted
    /// connection no longer exists physically.
    fn terminate_conflicts(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        out_port: PortIndex,
    ) {
        if let Some(holder) = self.circuits.pcu.holder(out_port) {
            self.circuits
                .terminate(k, cycle, holder, Termination::Conflict);
        }
        self.circuits
            .terminate(k, cycle, in_port, Termination::Conflict);
    }
}

impl SchemeHooks for HybridHooks {
    fn begin_cycle(&mut self, k: &mut PipelineKernel, cycle: u64) {
        if !self.frozen {
            if cycle < self.profile_cycles {
                return; // profile window: pure wormhole, no circuits exist
            }
            // The freeze may run later than `profile_cycles` when the router
            // idled across the boundary — counts cannot have changed in
            // between (idle means no flits), so the hot table is identical.
            self.freeze();
        }
        // The §III.C buffer-overflow protection, kept for hybrid circuits
        // unchanged.
        self.circuits.terminate_creditless(k, cycle);
    }

    /// Hotness gates only circuit *establishment*: once a connection is
    /// held, any flit whose route matches rides it (`sa_skip` already
    /// withheld its SA request, so the drain must accept it regardless of
    /// its flow's temperature).
    fn drain_reuse(&mut self, k: &mut PipelineKernel, cycle: u64, out: &mut RouterOutputs) {
        if self.frozen {
            self.circuits.reuse(k, cycle, out);
        }
    }

    /// VA for one header. During the profile window this is also the flow
    /// sampling point: every header that reaches VC allocation at this
    /// router bumps its flow's count (reuse never runs before the freeze,
    /// so each header is sampled at most once per hop).
    fn allocate_out_vc(
        &mut self,
        k: &mut PipelineKernel,
        flit: &Flit,
        owner: (PortIndex, VcIndex),
    ) -> Option<(VcIndex, u8)> {
        if !self.frozen {
            let slot = self.slot(flit.src, flit.dst);
            self.counts[slot] = self.counts[slot].saturating_add(1);
        }
        self.circuits
            .allocate_vc(k, flit.route, flit.class, flit.dst, owner, false)
            .map(|vc| (vc, 0))
    }

    /// Flits covered by a live matching circuit bypass SA entirely; they
    /// drain through the held connection in `drain_reuse`.
    fn sa_skip(&self, in_port: PortIndex, vc: VcIndex, route: RouteInfo) -> bool {
        self.frozen && self.circuits.covers(in_port, vc, route)
    }

    /// Hot-flow grants (re)establish the circuit of their connection; cold
    /// grants only tear down circuits they conflict with.
    fn on_sa_grant(
        &mut self,
        k: &mut PipelineKernel,
        cycle: u64,
        in_port: PortIndex,
        vc: VcIndex,
        route: RouteInfo,
    ) {
        if !self.frozen {
            return;
        }
        // The granted flit is still buffered at the head of its VC (it
        // drains at the next cycle's ST phase) and was ready this cycle.
        let hot = k
            .input_head_ready(in_port, vc, cycle)
            .is_some_and(|f| self.flow_is_hot(f.src, f.dst));
        if !hot {
            self.terminate_conflicts(k, cycle, in_port, route.port);
            return;
        }
        self.circuits.establish(k, cycle, in_port, vc, route);
    }

    fn end_cycle(&mut self, k: &mut PipelineKernel, _cycle: u64) {
        self.circuits.mirror_stats(k);
    }

    /// No held circuit the credit check would terminate. A pending freeze
    /// does not block idling — an idle router has no flits, so freezing now
    /// or at its next busy cycle produces the same table and the same
    /// behavior (see `begin_cycle`).
    fn is_idle(&self, k: &PipelineKernel) -> bool {
        self.circuits.is_idle(k)
    }
}

/// Builds [`HybridRouter`]s with a fixed profile window and hot threshold.
#[derive(Copy, Clone, Debug)]
pub struct HybridRouterFactory {
    /// Length of the online profile window, in cycles.
    pub profile_cycles: u64,
    /// Header count at which a profiled flow becomes hot.
    pub hot_threshold: u32,
}

impl Default for HybridRouterFactory {
    fn default() -> Self {
        Self {
            profile_cycles: 1_000,
            hot_threshold: 4,
        }
    }
}

impl RouterFactory for HybridRouterFactory {
    fn build(&self, ctx: RouterBuildContext<'_>) -> Box<dyn RouterModel> {
        HybridHooks::router(
            ctx.id,
            ctx.topology.clone(),
            *ctx.config,
            self.profile_cycles,
            self.hot_threshold,
            ctx.pool.clone(),
        )
        .boxed(ctx.metrics)
    }
}
