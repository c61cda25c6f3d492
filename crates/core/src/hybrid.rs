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
//! The held circuit is the pseudo-circuit router's: a hybrid router is a
//! [`PcRouter`](crate::PcRouter) running
//! [`Scheme::pseudo`](crate::Scheme::pseudo) whose establishment is gated by
//! a [`HotFlows`] profile ([`Scheme::hybrid`](crate::Scheme::hybrid)). It
//! profiles **online** instead of ahead of time:
//!
//! 1. **Profile window** (`cycle < PROFILE_CYCLES`, the first 1 000
//!    cycles): every router runs pure wormhole switching and counts, per
//!    flow, the headers that win VC allocation at that router. No circuit
//!    exists before the freeze, so every header wins VA exactly once at
//!    every hop: the count is the flow's headers through the router,
//!    however long each waited for its output VC.
//! 2. **Freeze**: at the first step with `cycle >= PROFILE_CYCLES` the
//!    counts stop changing; a flow is hot when its count reached
//!    `HOT_THRESHOLD` (4 headers).
//! 3. **Hybrid phase**: switch-arbitration grants for hot flows establish a
//!    held circuit on their input→output connection, and later flits of
//!    matching flows ride it, skipping arbitration (2-cycle hops).
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

use noc_base::Flit;

/// Upper bound on the flow table size; `(src, dst)` pairs beyond it share
/// slots (see the module docs on collision semantics).
const FLOW_TABLE_CAP: usize = 1 << 16;

/// Length of the online profile window, in cycles: the hybrid phase starts
/// at this cycle.
const PROFILE_CYCLES: u64 = 1_000;

/// Profile count (headers granted a VC at the router) at which a flow
/// becomes hot.
const HOT_THRESHOLD: u32 = 4;

/// The hybrid's establishment gate: the per-flow profile counts and the
/// freeze that ends the profile window.
pub(crate) struct HotFlows {
    /// Whether the profile window is over.
    pub(crate) frozen: bool,
    num_nodes: usize,
    /// Per-flow header counts (VC-allocation grants), gathered during the
    /// profile window and fixed from the freeze on.
    counts: Vec<u32>,
}

impl HotFlows {
    /// A profile of `num_nodes` nodes' flows that freezes at
    /// [`PROFILE_CYCLES`] and calls a flow hot from [`HOT_THRESHOLD`] on.
    pub(crate) fn new(num_nodes: usize) -> Self {
        Self {
            frozen: false,
            num_nodes,
            counts: vec![0; (num_nodes * num_nodes).clamp(1, FLOW_TABLE_CAP)],
        }
    }

    fn slot(&self, flit: &Flit) -> usize {
        (flit.src.index() * self.num_nodes + flit.dst.index()) % self.counts.len()
    }

    /// Ends the profile window at its first step with `cycle >=
    /// PROFILE_CYCLES`. That step may come later than `PROFILE_CYCLES`
    /// when the router idled across the boundary; the counts cannot have
    /// changed in between (idle means no flits), so the outcome is the same.
    pub(crate) fn freeze_at(&mut self, cycle: u64) {
        self.frozen |= cycle >= PROFILE_CYCLES;
    }

    /// Counts one header of `flit`'s flow that won VC allocation, while
    /// unfrozen.
    pub(crate) fn sample(&mut self, flit: &Flit) {
        if !self.frozen {
            let slot = self.slot(flit);
            self.counts[slot] = self.counts[slot].saturating_add(1);
        }
    }

    /// Whether `flit`'s flow is hot (meaningful once frozen).
    pub(crate) fn is_hot(&self, flit: &Flit) -> bool {
        self.counts[self.slot(flit)] >= HOT_THRESHOLD
    }
}
