#![warn(missing_docs)]

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
//!    [`pseudo_circuit::PseudoCircuitUnit`] register machinery — and later
//!    flits of matching flows ride it, skipping arbitration (2-cycle hops).
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
//! (construction-time allocated, at most [`router::FLOW_TABLE_CAP`] slots);
//! collisions merely conflate two flows' counts, which can promote a cold
//! flow to hot — a policy inaccuracy, never a correctness problem.

mod router;

pub use router::{HybridHooks, HybridRouter, HybridRouterFactory};
