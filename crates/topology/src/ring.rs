//! Bidirectional ring and hierarchical two-level ring.
//!
//! The ring family exercises the topology-neutral [`RouteMode`] abstraction:
//! instead of the mesh's XY/YX dimension orders, a ring packet's mode is its
//! travel direction (clockwise or counter-clockwise), chosen per packet by
//! shortest distance in [`Topology::select_mode`], and its deadlock class is
//! a *dateline* class ([`Topology::mode_class`]): packets whose path crosses
//! the wrap-around edge of their direction travel in VC class 1, all others
//! in class 0 (cf. Wu's low-cost ring router microarchitecture, which the
//! campaign layer compares against the mesh families).
//!
//! # Deadlock freedom
//!
//! Clockwise and counter-clockwise packets use disjoint channel sets (the CW
//! and CCW output ports), so each direction is analyzed alone. Within one
//! direction, class-0 packets never use the wrap edge, so their channel
//! dependency graph is an acyclic chain. Class-1 packets all cross the wrap
//! edge and are at most `⌊N/2⌋` hops long, so the edge `⌊N/2⌋-1 → ⌊N/2⌋`
//! (relative to the CW wrap `N-1 → 0`; symmetrically for CCW) can never be
//! part of any class-1 path — the class-1 dependency graph is missing an
//! edge of the cycle and is therefore acyclic as well.
//!
//! The hierarchical ring routes inter-group packets in a third mode that is
//! wrap-free on every segment (local ring down to the hub, hub ring by index
//! comparison, local ring out to the destination), so inter-group traffic
//! shares class 0 with wrap-free local traffic and the combined class-0
//! dependency graph stays a DAG. Hub-ring paths take `|g - g'|` hops rather
//! than the ring-shortest direction — a deliberate correctness-over-
//! optimality trade documented in DESIGN.md.

use crate::{LinkEnd, Topology};
use noc_base::{NodeId, PortIndex, RouteInfo, RouteMode, RouterId, RoutingPolicy};

/// Clockwise travel (router `r` to `(r + 1) % N`): raw mode 0, so the
/// policy-default [`RouteMode::XY`] maps onto it unchanged.
pub(crate) const RING_CW: RouteMode = RouteMode::XY;
/// Counter-clockwise travel (router `r` to `(r - 1) mod N`): raw mode 1.
pub(crate) const RING_CCW: RouteMode = RouteMode::YX;
/// Hierarchical-ring inter-group mode: local ring to the hub, hub ring to
/// the destination group, local ring outward. Raw mode 2 — outside the
/// XY/YX vocabulary, which is exactly what the opaque `RouteMode` buys.
pub(crate) const RING_INTER: RouteMode = RouteMode::from_raw(2);

/// Shortest-direction mode on a ring of `n` routers from `from` to `to`:
/// clockwise when the CW distance is at most half the ring (ties go CW).
fn shortest_dir(n: usize, from: usize, to: usize) -> RouteMode {
    let cw = (to + n - from) % n;
    if cw * 2 <= n {
        RING_CW
    } else {
        RING_CCW
    }
}

/// Dateline class on a ring of `n` routers: 1 when the path from `from` to
/// `to` in direction `mode` crosses that direction's wrap edge (CW wrap
/// `n-1 → 0`, CCW wrap `0 → n-1`), else 0.
fn dateline_class(from: usize, to: usize, mode: RouteMode) -> u8 {
    if from == to {
        return 0;
    }
    let crosses = if mode == RING_CCW {
        to > from
    } else {
        to < from
    };
    u8::from(crosses)
}

/// A bidirectional ring of `n` routers with `concentration` nodes each.
///
/// Ports on every router: locals `0..concentration`, then the clockwise
/// port (`concentration`) toward router `(r + 1) % n` and the
/// counter-clockwise port (`concentration + 1`) toward `(r - 1) mod n`.
/// A clockwise link lands on the receiver's counter-clockwise-facing input
/// port and vice versa, mirroring the mesh convention that a link arrives on
/// the port that faces back toward its sender.
#[derive(Clone, Debug)]
pub struct Ring {
    n: usize,
    concentration: usize,
    name: String,
}

impl Ring {
    /// Creates a ring.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the concentration is zero.
    pub fn new(n: usize, concentration: usize) -> Self {
        assert!(n >= 2, "a ring needs at least two routers");
        assert!(concentration > 0, "concentration must be nonzero");
        let name = if concentration == 1 {
            format!("ring{n}")
        } else {
            format!("ring{n}c{concentration}")
        };
        Self {
            n,
            concentration,
            name,
        }
    }

    fn cw_port(&self) -> PortIndex {
        PortIndex::new(self.concentration)
    }

    fn ccw_port(&self) -> PortIndex {
        PortIndex::new(self.concentration + 1)
    }
}

impl Topology for Ring {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_routers(&self) -> usize {
        self.n
    }

    fn num_nodes(&self) -> usize {
        self.n * self.concentration
    }

    fn concentration(&self) -> usize {
        self.concentration
    }

    fn in_ports(&self, _router: RouterId) -> usize {
        self.concentration + 2
    }

    fn out_ports(&self, _router: RouterId) -> usize {
        self.concentration + 2
    }

    fn channel_len(&self, _router: RouterId, out: PortIndex) -> u8 {
        u8::from(out.index() < self.concentration + 2)
    }

    fn link(&self, router: RouterId, out: PortIndex, hop: u8) -> Option<LinkEnd> {
        if hop != 1 {
            return None;
        }
        let r = router.index();
        if out == self.cw_port() {
            Some(LinkEnd {
                router: RouterId::new((r + 1) % self.n),
                port: self.ccw_port(),
            })
        } else if out == self.ccw_port() {
            Some(LinkEnd {
                router: RouterId::new((r + self.n - 1) % self.n),
                port: self.cw_port(),
            })
        } else {
            None
        }
    }

    fn route(&self, at: RouterId, dst: NodeId, mode: RouteMode) -> RouteInfo {
        assert!(dst.index() < self.num_nodes(), "destination out of range");
        if self.router_of(dst) == at {
            return RouteInfo::new(self.local_port(dst));
        }
        // Unknown variants travel clockwise, matching the default mode.
        if mode == RING_CCW {
            RouteInfo::new(self.ccw_port())
        } else {
            RouteInfo::new(self.cw_port())
        }
    }

    fn select_mode(&self, src: NodeId, dst: NodeId, _policy_mode: RouteMode) -> RouteMode {
        shortest_dir(
            self.n,
            self.router_of(src).index(),
            self.router_of(dst).index(),
        )
    }

    fn mode_class(&self, _policy: RoutingPolicy, src: NodeId, dst: NodeId, mode: RouteMode) -> u8 {
        dateline_class(
            self.router_of(src).index(),
            self.router_of(dst).index(),
            mode,
        )
    }

    fn min_classes(&self) -> u8 {
        2
    }

    fn min_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let a = self.router_of(src).index();
        let b = self.router_of(dst).index();
        let cw = (b + self.n - a) % self.n;
        cw.min(self.n - cw) as u32
    }
}

/// A hierarchical two-level ring: `groups` local rings of `locals` routers
/// each, whose hub routers (local index 0) form a second, global ring.
///
/// Router `g * locals + l` is router `l` of group `g`. Every router carries
/// the local-ring ports of [`Ring`] (CW at `concentration`, CCW at
/// `concentration + 1`); hubs add a global clockwise port
/// (`concentration + 2`) toward the hub of group `(g + 1) % groups` and a
/// global counter-clockwise port (`concentration + 3`).
///
/// Intra-group packets route exactly like [`Ring`] (shortest direction,
/// dateline classes). Inter-group packets travel in [`RING_INTER`]: local
/// CCW down to the hub, along the hub ring in the direction of increasing
/// (`g < g'` → CW) or decreasing (`g > g'` → CCW) group index — wrap-free
/// by construction — then local CW outward to the destination router.
#[derive(Clone, Debug)]
pub struct HierRing {
    groups: usize,
    locals: usize,
    concentration: usize,
    name: String,
}

impl HierRing {
    /// Creates a hierarchical ring.
    ///
    /// # Panics
    ///
    /// Panics if `groups < 2`, `locals < 2`, or the concentration is zero.
    pub fn new(groups: usize, locals: usize, concentration: usize) -> Self {
        assert!(groups >= 2, "a hierarchical ring needs at least two groups");
        assert!(locals >= 2, "each group needs at least two routers");
        assert!(concentration > 0, "concentration must be nonzero");
        let name = if concentration == 1 {
            format!("hring{groups}x{locals}")
        } else {
            format!("hring{groups}x{locals}c{concentration}")
        };
        Self {
            groups,
            locals,
            concentration,
            name,
        }
    }

    /// Splits a router id into `(group, local index)`.
    fn split(&self, router: RouterId) -> (usize, usize) {
        (router.index() / self.locals, router.index() % self.locals)
    }

    fn router_at(&self, group: usize, local: usize) -> RouterId {
        RouterId::new(group * self.locals + local)
    }

    fn is_hub(&self, router: RouterId) -> bool {
        router.index().is_multiple_of(self.locals)
    }

    fn local_cw(&self) -> PortIndex {
        PortIndex::new(self.concentration)
    }

    fn local_ccw(&self) -> PortIndex {
        PortIndex::new(self.concentration + 1)
    }

    fn global_cw(&self) -> PortIndex {
        PortIndex::new(self.concentration + 2)
    }

    fn global_ccw(&self) -> PortIndex {
        PortIndex::new(self.concentration + 3)
    }
}

impl Topology for HierRing {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_routers(&self) -> usize {
        self.groups * self.locals
    }

    fn num_nodes(&self) -> usize {
        self.num_routers() * self.concentration
    }

    fn concentration(&self) -> usize {
        self.concentration
    }

    fn in_ports(&self, router: RouterId) -> usize {
        self.concentration + if self.is_hub(router) { 4 } else { 2 }
    }

    fn out_ports(&self, router: RouterId) -> usize {
        self.in_ports(router)
    }

    fn channel_len(&self, router: RouterId, out: PortIndex) -> u8 {
        u8::from(out.index() < self.out_ports(router))
    }

    fn link(&self, router: RouterId, out: PortIndex, hop: u8) -> Option<LinkEnd> {
        if hop != 1 {
            return None;
        }
        let (g, l) = self.split(router);
        if out == self.local_cw() {
            Some(LinkEnd {
                router: self.router_at(g, (l + 1) % self.locals),
                port: self.local_ccw(),
            })
        } else if out == self.local_ccw() {
            Some(LinkEnd {
                router: self.router_at(g, (l + self.locals - 1) % self.locals),
                port: self.local_cw(),
            })
        } else if self.is_hub(router) && out == self.global_cw() {
            Some(LinkEnd {
                router: self.router_at((g + 1) % self.groups, 0),
                port: self.global_ccw(),
            })
        } else if self.is_hub(router) && out == self.global_ccw() {
            Some(LinkEnd {
                router: self.router_at((g + self.groups - 1) % self.groups, 0),
                port: self.global_cw(),
            })
        } else {
            None
        }
    }

    fn route(&self, at: RouterId, dst: NodeId, mode: RouteMode) -> RouteInfo {
        assert!(dst.index() < self.num_nodes(), "destination out of range");
        let dst_router = self.router_of(dst);
        if dst_router == at {
            return RouteInfo::new(self.local_port(dst));
        }
        let (g, l) = self.split(at);
        let (dg, dl) = self.split(dst_router);
        if mode == RING_INTER {
            if g != dg {
                if l != 0 {
                    // Descend to the hub: CCW is wrap-free from any l > 0.
                    return RouteInfo::new(self.local_ccw());
                }
                // On the hub ring, move by group-index comparison (never
                // through the wrap edge).
                return if g < dg {
                    RouteInfo::new(self.global_cw())
                } else {
                    RouteInfo::new(self.global_ccw())
                };
            }
            // In the destination group: CW outward from the hub is wrap-free
            // because inter-group packets enter at local index 0 and
            // dl <= locals - 1.
            debug_assert!(l < dl, "inter-group packet overshot its target");
            return RouteInfo::new(self.local_cw());
        }
        debug_assert_eq!(g, dg, "local mode used across groups");
        // Unknown variants travel clockwise, matching the default mode.
        if mode == RING_CCW {
            RouteInfo::new(self.local_ccw())
        } else {
            RouteInfo::new(self.local_cw())
        }
    }

    fn select_mode(&self, src: NodeId, dst: NodeId, _policy_mode: RouteMode) -> RouteMode {
        let (sg, sl) = self.split(self.router_of(src));
        let (dg, dl) = self.split(self.router_of(dst));
        if sg != dg {
            RING_INTER
        } else {
            shortest_dir(self.locals, sl, dl)
        }
    }

    fn mode_class(&self, _policy: RoutingPolicy, src: NodeId, dst: NodeId, mode: RouteMode) -> u8 {
        if mode == RING_INTER {
            return 0; // wrap-free on every segment
        }
        let (_, sl) = self.split(self.router_of(src));
        let (_, dl) = self.split(self.router_of(dst));
        dateline_class(sl, dl, mode)
    }

    fn min_classes(&self) -> u8 {
        2
    }

    /// Hops along the *routed* path (the deliberately wrap-free hub-ring
    /// walk), not the graph-theoretic minimum — so `walk_route` and the
    /// latency model agree with what the network actually does.
    fn min_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let (sg, sl) = self.split(self.router_of(src));
        let (dg, dl) = self.split(self.router_of(dst));
        if sg == dg {
            let cw = (dl + self.locals - sl) % self.locals;
            cw.min(self.locals - cw) as u32
        } else {
            (sl + sg.abs_diff(dg) + dl) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, walk_route, DistanceMatrix, FlatWiring};

    /// Routed hop count using the topology's own mode selection.
    fn walk(topo: &dyn Topology, s: usize, d: usize) -> usize {
        let (src, dst) = (NodeId::new(s), NodeId::new(d));
        let mode = topo.select_mode(src, dst, RouteMode::default());
        walk_route(topo, src, dst, mode).len() - 1
    }

    #[test]
    fn rings_validate_and_route_minimally() {
        for (n, c) in [(2, 1), (3, 1), (8, 1), (5, 2), (8, 4)] {
            let topo = Ring::new(n, c);
            assert!(validate(&topo).is_ok(), "{} failed validation", topo.name());
            for s in 0..topo.num_nodes() {
                for d in 0..topo.num_nodes() {
                    assert_eq!(
                        walk(&topo, s, d) as u32,
                        topo.min_hops(NodeId::new(s), NodeId::new(d)),
                        "{}: {s}->{d}",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn ring_prefers_the_short_direction_and_breaks_ties_clockwise() {
        let topo = Ring::new(8, 1);
        let m = |s, d| topo.select_mode(NodeId::new(s), NodeId::new(d), RouteMode::default());
        assert_eq!(m(0, 1), RING_CW);
        assert_eq!(m(0, 7), RING_CCW);
        assert_eq!(m(0, 4), RING_CW, "dist == n/2 ties go clockwise");
        assert_eq!(m(6, 2), RING_CW, "tie across the wrap edge");
    }

    #[test]
    fn ring_dateline_classes_mark_wrap_crossings() {
        let topo = Ring::new(8, 1);
        let cls = |s, d| {
            let (src, dst) = (NodeId::new(s), NodeId::new(d));
            let mode = topo.select_mode(src, dst, RouteMode::default());
            topo.mode_class(RoutingPolicy::Xy, src, dst, mode)
        };
        assert_eq!(cls(0, 3), 0, "forward CW, no wrap");
        assert_eq!(cls(6, 1), 1, "CW through 7->0");
        assert_eq!(cls(1, 6), 1, "CCW through 0->7");
        assert_eq!(cls(6, 2), 1, "CW tie through the wrap edge");
        assert_eq!(cls(3, 3), 0, "self traffic");
        assert_eq!(topo.min_classes(), 2);
    }

    #[test]
    fn ring_links_pair_up_bidirectionally() {
        let topo = Ring::new(4, 2);
        for r in 0..4 {
            let router = RouterId::new(r);
            let cw = topo.link(router, PortIndex::new(2), 1).unwrap();
            assert_eq!(cw.router.index(), (r + 1) % 4);
            let back = topo.link(cw.router, PortIndex::new(3), 1).unwrap();
            assert_eq!(back.router, router, "CCW undoes CW");
        }
    }

    #[test]
    fn hier_rings_validate_and_walk_their_routed_distance() {
        for (g, l, c) in [(2, 2, 1), (2, 8, 1), (4, 4, 1), (3, 4, 2)] {
            let topo = HierRing::new(g, l, c);
            assert!(validate(&topo).is_ok(), "{} failed validation", topo.name());
            for s in 0..topo.num_nodes() {
                for d in 0..topo.num_nodes() {
                    assert_eq!(
                        walk(&topo, s, d) as u32,
                        topo.min_hops(NodeId::new(s), NodeId::new(d)),
                        "{}: {s}->{d}",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn hier_ring_inter_group_path_goes_hub_to_hub() {
        let topo = HierRing::new(2, 8, 1);
        // Node 5 (group 0, local 5) to node 11 (group 1, local 3): down to
        // hub 0, across to hub 8, out to 11.
        let mode = topo.select_mode(NodeId::new(5), NodeId::new(11), RouteMode::default());
        assert_eq!(mode, RING_INTER);
        let path = walk_route(&topo, NodeId::new(5), NodeId::new(11), mode);
        let ids: Vec<usize> = path.iter().map(|r| r.index()).collect();
        assert_eq!(ids, [5, 4, 3, 2, 1, 0, 8, 9, 10, 11]);
        assert_eq!(
            topo.mode_class(RoutingPolicy::Xy, NodeId::new(5), NodeId::new(11), mode),
            0,
            "inter-group traffic is wrap-free class 0"
        );
    }

    #[test]
    fn hier_ring_local_traffic_matches_ring_semantics() {
        let topo = HierRing::new(2, 8, 1);
        let flat = Ring::new(8, 1);
        for s in 0..8 {
            for d in 0..8 {
                let (src, dst) = (NodeId::new(s), NodeId::new(d));
                assert_eq!(
                    topo.select_mode(src, dst, RouteMode::default()),
                    flat.select_mode(src, dst, RouteMode::default())
                );
                assert_eq!(topo.min_hops(src, dst), flat.min_hops(src, dst));
            }
        }
    }

    #[test]
    fn ring_family_supports_flat_wiring_and_distances() {
        for topo in [
            Box::new(Ring::new(8, 1)) as Box<dyn Topology>,
            Box::new(Ring::new(4, 4)),
            Box::new(HierRing::new(2, 8, 1)),
        ] {
            let wiring = FlatWiring::new(topo.as_ref());
            for r in 0..topo.num_routers() {
                let router = RouterId::new(r);
                assert_eq!(wiring.in_ports(router), topo.in_ports(router));
                assert_eq!(wiring.out_ports(router), topo.out_ports(router));
            }
            let dm = DistanceMatrix::new(topo.as_ref());
            for s in 0..topo.num_nodes() {
                for d in 0..topo.num_nodes() {
                    assert_eq!(
                        dm.get(NodeId::new(s), NodeId::new(d)),
                        topo.min_hops(NodeId::new(s), NodeId::new(d))
                    );
                }
            }
        }
    }
}
