#![warn(missing_docs)]

//! On-chip network topologies and routing for the pseudo-circuit reproduction.
//!
//! The paper evaluates four topologies (its Fig. 13):
//!
//! - 2D **mesh** ([`Mesh`] with concentration 1),
//! - **concentrated mesh** (CMesh, Balfour & Dally ICS 2006 — [`Mesh`] with
//!   concentration 4, the paper's CMP substrate),
//! - **MECS** (Multidrop Express Cube, Grot et al. HPCA 2009 — [`Mecs`]),
//! - **flattened butterfly** (Kim et al. MICRO 2007 — [`FlattenedButterfly`]).
//!
//! Beyond the paper's four, the crate adds a bidirectional **ring** and a
//! hierarchical two-level ring ([`Ring`], [`HierRing`]) whose CW/CCW
//! direction modes and dateline VC classes exercise the topology-neutral
//! [`RouteMode`](noc_base::RouteMode) abstraction.
//!
//! All topologies expose the same [`Topology`] trait: directed output channels
//! that may be point-to-point (mesh, flattened butterfly) or multidrop (MECS),
//! plus a dimension-order routing function used both for direct routing and
//! for *lookahead* route computation (the downstream router's output port is
//! computed one hop ahead and carried in the flit, removing route computation
//! from the router critical path).
//!
//! # Example
//!
//! ```
//! use noc_topology::{Mesh, Topology};
//! use noc_base::{NodeId, RouteMode};
//!
//! let mesh = Mesh::new(4, 4, 1);
//! let route = mesh.route(mesh.router_of(NodeId::new(0)), NodeId::new(5), RouteMode::XY);
//! assert_eq!(mesh.min_hops(NodeId::new(0), NodeId::new(5)), 2);
//! assert_eq!(route.hops, 1);
//! ```

mod fbfly;
mod mecs;
mod mesh;
mod ring;
mod wiring;

pub use fbfly::FlattenedButterfly;
pub use mecs::Mecs;
pub use mesh::Mesh;
pub use ring::{HierRing, Ring};
pub use wiring::{DistanceMatrix, FlatWiring, PortFeeder};

use noc_base::{NodeId, PortIndex, RouteInfo, RouteMode, RouterId};
use std::sync::Arc;

/// One end of a directed link: an input port on a router.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinkEnd {
    /// The router at this end.
    pub router: RouterId,
    /// The input port on that router.
    pub port: PortIndex,
}

/// A network topology: router count, port wiring, node attachment, and
/// dimension-order routing.
///
/// Port-numbering convention shared by all implementations: ports
/// `0..concentration()` on every router are *local* ports attached to nodes
/// (in injection and ejection directions alike); network ports follow.
/// Input ports and output ports are numbered independently (MECS is
/// asymmetric: few output channels, many input ports).
pub trait Topology: Send + Sync {
    /// Short human-readable name (e.g. `"mesh8x8"`).
    fn name(&self) -> &str;

    /// Number of routers.
    fn num_routers(&self) -> usize;

    /// Number of endpoint nodes.
    fn num_nodes(&self) -> usize;

    /// Nodes attached per router.
    fn concentration(&self) -> usize;

    /// The router a node is attached to.
    fn router_of(&self, node: NodeId) -> RouterId {
        RouterId::new(node.index() / self.concentration())
    }

    /// The local port (same index for input and output) a node occupies on
    /// its router.
    fn local_port(&self, node: NodeId) -> PortIndex {
        PortIndex::new(node.index() % self.concentration())
    }

    /// The node attached at `(router, local_port)`, if `local_port` is a
    /// local port.
    fn node_at(&self, router: RouterId, local_port: PortIndex) -> Option<NodeId> {
        if local_port.index() < self.concentration() {
            let node = router.index() * self.concentration() + local_port.index();
            (node < self.num_nodes()).then(|| NodeId::new(node))
        } else {
            None
        }
    }

    /// Number of input ports on `router` (including local ports).
    fn in_ports(&self, router: RouterId) -> usize;

    /// Number of output ports on `router` (including local ports).
    fn out_ports(&self, router: RouterId) -> usize;

    /// Number of drop-off positions on output channel `out` of `router`:
    /// `0` for an unconnected (edge) port, `1` for a point-to-point link,
    /// `> 1` for a multidrop express channel. Local ports report `1`.
    fn channel_len(&self, router: RouterId, out: PortIndex) -> u8;

    /// The input port reached from `(router, out)` at drop position `hop`
    /// (1-based). Returns `None` for local ports, unconnected ports, or
    /// `hop > channel_len`.
    fn link(&self, router: RouterId, out: PortIndex, hop: u8) -> Option<LinkEnd>;

    /// Dimension-order route for a packet at router `at` headed to node
    /// `dst`: the output port to take (and drop-off distance for multidrop
    /// channels). If `dst` is attached to `at`, returns its local port.
    fn route(&self, at: RouterId, dst: NodeId, mode: RouteMode) -> RouteInfo;

    /// Refines the policy-chosen route mode for a packet from `src` to
    /// `dst`. The network interface calls this once per packet, after
    /// [`noc_base::RoutingPolicy::pick_mode`]; topologies whose variant
    /// space differs from the policy's XY/YX vocabulary (e.g. a ring's
    /// CW/CCW directions) override it to map the policy's choice into their
    /// own space. The default keeps the policy's mode, which preserves the
    /// behavior of the dimension-ordered topologies exactly.
    fn select_mode(&self, src: NodeId, dst: NodeId, policy_mode: RouteMode) -> RouteMode {
        let _ = (src, dst);
        policy_mode
    }

    /// The deadlock VC class a packet from `src` to `dst` with the (already
    /// refined) `mode` travels in. The default delegates to the routing
    /// policy's class assignment; topologies with their own class discipline
    /// (e.g. a ring's dateline classes) override it.
    fn mode_class(
        &self,
        policy: noc_base::RoutingPolicy,
        src: NodeId,
        dst: NodeId,
        mode: RouteMode,
    ) -> u8 {
        let _ = (src, dst);
        policy.class_of(mode)
    }

    /// The minimum number of VC classes this topology needs for deadlock
    /// freedom, regardless of routing policy (1 for the dimension-ordered
    /// topologies; a ring needs 2 dateline classes). The network partitions
    /// each port's VCs into `max(policy.num_classes(), topo.min_classes())`
    /// classes.
    fn min_classes(&self) -> u8 {
        1
    }

    /// Minimal number of inter-router link traversals from `src` to `dst`
    /// (0 when both nodes share a router).
    fn min_hops(&self, src: NodeId, dst: NodeId) -> u32;
}

/// Average minimal hop count over all ordered node pairs (src ≠ dst) — the
/// `H_avg` term of the paper's §VII latency model.
pub fn average_min_hops(topo: &dyn Topology) -> f64 {
    let n = topo.num_nodes();
    let mut total = 0u64;
    let mut pairs = 0u64;
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            total += topo.min_hops(NodeId::new(s), NodeId::new(d)) as u64;
            pairs += 1;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

/// Checks a topology's wiring for internal consistency: every connected
/// output channel position lands on a valid, non-local input port, no local
/// output port is wired as a link, no position within `channel_len` is
/// unconnected and none beyond it is connected, and every input port is fed
/// by at most one channel position. The check is [`FlatWiring`]'s
/// construction walk without the tables, so every network the engine builds
/// passes it.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate(topo: &dyn Topology) -> Result<(), String> {
    FlatWiring::walk(topo).map(drop)
}

/// Walks a packet's dimension-order route from `src` to `dst`, returning the
/// sequence of routers visited (starting with `src`'s router and ending with
/// `dst`'s). Used by tests and by trace analysis; guards against routing
/// functions that loop by capping the walk.
///
/// # Panics
///
/// Panics if the routing function fails to reach the destination within
/// `4 * (num_routers + 2)` steps — which would indicate a routing bug.
pub fn walk_route(topo: &dyn Topology, src: NodeId, dst: NodeId, mode: RouteMode) -> Vec<RouterId> {
    let mut at = topo.router_of(src);
    let mut visited = vec![at];
    let cap = 4 * (topo.num_routers() + 2);
    for _ in 0..cap {
        let route = topo.route(at, dst, mode);
        if route.port.index() < topo.concentration() {
            assert_eq!(
                topo.node_at(at, route.port),
                Some(dst),
                "route delivered to wrong local port at {at}"
            );
            return visited;
        }
        let end = topo
            .link(at, route.port, route.hops)
            .unwrap_or_else(|| panic!("route at {at} uses unconnected port {}", route.port));
        at = end.router;
        visited.push(at);
    }
    panic!("route from {src} to {dst} did not converge");
}

/// Convenience alias used throughout the workspace for shared topologies.
pub type SharedTopology = Arc<dyn Topology>;
