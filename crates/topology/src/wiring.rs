//! Precomputed, dense wiring tables: every dynamic [`Topology`] lookup the
//! simulation engine performs per flit or per credit, flattened once at build
//! time into index arithmetic over contiguous arrays.
//!
//! The engine's steady-state loop must not pay a virtual call or a hash probe
//! per event. [`FlatWiring`] captures the forward wiring (output channel →
//! downstream input port, per drop position), the reverse wiring (input port
//! → feeding channel or injecting node, i.e. where credits go), and the
//! node-attachment maps. The walk that fills them, the one enumeration of the
//! topology's links, checks each link as it goes: [`validate`](crate::validate)
//! is that walk without the tables. [`DistanceMatrix`] flattens all-pairs
//! minimal hop counts for callers that look the same pairs up many times; the
//! engine is not one of them (it asks [`Topology::min_hops`] once per
//! delivered packet, which is O(1) arithmetic on every topology here, and the
//! table is N²).

use crate::{LinkEnd, Topology};
use noc_base::{NodeId, PortIndex, RouterId};

/// What feeds a router input port — equivalently, where a credit emitted by
/// that input port must be delivered.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PortFeeder {
    /// Fed by drop position `sub` (0-based) of the upstream router's output
    /// channel `out_port`; credits return to that channel position.
    Channel {
        /// Upstream router.
        router: RouterId,
        /// Upstream output channel.
        out_port: PortIndex,
        /// 0-based drop position on that channel.
        sub: u8,
    },
    /// A local port fed by the injecting network interface of `NodeId`.
    Node(NodeId),
    /// Nothing feeds this port (an unconnected edge port).
    None,
}

/// Dense O(1) wiring tables for one topology.
///
/// Router port counts vary between routers (MECS is asymmetric), so ports are
/// addressed through per-router prefix offsets rather than a fixed stride.
#[derive(Clone, Debug)]
pub struct FlatWiring {
    concentration: usize,
    /// Prefix sums of `in_ports` per router; length `num_routers + 1`.
    in_base: Vec<u32>,
    /// Prefix sums of `out_ports` per router; length `num_routers + 1`.
    out_base: Vec<u32>,
    /// Reverse wiring per global input port; indexed `in_base[r] + port`.
    feeders: Vec<PortFeeder>,
    /// Per global output port, offset of its drop positions in `links`;
    /// length `out_base[last] + 1`.
    chan_base: Vec<u32>,
    /// Flattened link destinations, one per (output channel, drop position).
    links: Vec<LinkEnd>,
    /// Per node: its router and local port.
    attach: Vec<(RouterId, PortIndex)>,
    /// Per (router, local output port): the attached node, if any; indexed
    /// `router * concentration + port`.
    eject: Vec<Option<NodeId>>,
}

impl FlatWiring {
    /// Builds the tables by enumerating the topology's wiring once, checking
    /// it as it goes (see [`validate`](crate::validate)).
    ///
    /// # Panics
    ///
    /// Panics with `invalid topology {name}: {violation}` if the wiring fails
    /// one of those checks.
    pub fn new(topo: &dyn Topology) -> Self {
        Self::walk(topo).unwrap_or_else(|e| panic!("invalid topology {}: {e}", topo.name()))
    }

    /// The one enumeration of `topo`'s links: fills the tables, or returns
    /// the first violation of [`validate`](crate::validate)'s checks in walk
    /// order (router, output port, drop position).
    pub(crate) fn walk(topo: &dyn Topology) -> Result<Self, String> {
        let routers = topo.num_routers();
        let nodes = topo.num_nodes();
        let concentration = topo.concentration();

        let mut in_base = Vec::with_capacity(routers + 1);
        let mut out_base = Vec::with_capacity(routers + 1);
        in_base.push(0u32);
        out_base.push(0u32);
        for r in 0..routers {
            let router = RouterId::new(r);
            in_base.push(in_base[r] + topo.in_ports(router) as u32);
            out_base.push(out_base[r] + topo.out_ports(router) as u32);
        }

        let mut feeders = vec![PortFeeder::None; in_base[routers] as usize];
        let mut chan_base = Vec::with_capacity(out_base[routers] as usize + 1);
        let mut links = Vec::new();
        chan_base.push(0u32);
        for r in 0..routers {
            let router = RouterId::new(r);
            for out in 0..(out_base[r + 1] - out_base[r]) as usize {
                let out = PortIndex::new(out);
                if out.index() < concentration {
                    if topo.link(router, out, 1).is_some() {
                        return Err(format!("local port {out} of {router} wired as a link"));
                    }
                    chan_base.push(links.len() as u32);
                    continue;
                }
                let len = topo.channel_len(router, out);
                for hop in 1..=len {
                    let Some(end) = topo.link(router, out, hop) else {
                        return Err(format!(
                            "{router} out {out} hop {hop} within channel_len {len} but unconnected"
                        ));
                    };
                    let LinkEnd { router: to, port } = end;
                    if to.index() >= routers {
                        return Err(format!("{router} out {out} hop {hop} -> bad {to}"));
                    }
                    let base = in_base[to.index()] as usize;
                    if port.index() >= in_base[to.index() + 1] as usize - base {
                        return Err(format!(
                            "{router} out {out} hop {hop} -> {to} bad in port {port}"
                        ));
                    }
                    if port.index() < concentration {
                        return Err(format!(
                            "{router} out {out} hop {hop} lands on local port {port}"
                        ));
                    }
                    let slot = &mut feeders[base + port.index()];
                    if let PortFeeder::Channel {
                        router: up,
                        out_port,
                        sub,
                    } = *slot
                    {
                        let first = (up, out_port, sub + 1);
                        return Err(format!(
                            "input ({to}, {port}) fed twice: by {first:?} and ({router}, {out}, {hop})"
                        ));
                    }
                    *slot = PortFeeder::Channel {
                        router,
                        out_port: out,
                        sub: hop - 1,
                    };
                    links.push(end);
                }
                if topo.link(router, out, len + 1).is_some() {
                    return Err(format!("{router} out {out} connected beyond channel_len"));
                }
                chan_base.push(links.len() as u32);
            }
            for p in 0..concentration {
                let port = PortIndex::new(p);
                if let Some(node) = topo.node_at(router, port) {
                    feeders[in_base[r] as usize + p] = PortFeeder::Node(node);
                }
            }
        }

        let attach = (0..nodes)
            .map(|n| {
                let node = NodeId::new(n);
                (topo.router_of(node), topo.local_port(node))
            })
            .collect();
        let eject = (0..routers * concentration)
            .map(|i| {
                topo.node_at(
                    RouterId::new(i / concentration),
                    PortIndex::new(i % concentration),
                )
            })
            .collect();

        Ok(Self {
            concentration,
            in_base,
            out_base,
            feeders,
            chan_base,
            links,
            attach,
            eject,
        })
    }

    /// Nodes attached per router (cached from the topology).
    #[inline]
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// The reverse wiring of `(router, in_port)`: the channel position or
    /// node that feeds it.
    #[inline]
    pub fn feeder(&self, router: RouterId, in_port: PortIndex) -> PortFeeder {
        self.feeders[self.in_base[router.index()] as usize + in_port.index()]
    }

    /// The input port reached from `(router, out_port)` at drop position
    /// `hop` (1-based), mirroring [`Topology::link`] for connected network
    /// ports.
    ///
    /// # Panics
    ///
    /// Panics if the channel position is not connected (dead channel, local
    /// port, or `hop` beyond the channel length).
    #[inline]
    pub fn link(&self, router: RouterId, out_port: PortIndex, hop: u8) -> LinkEnd {
        let chan = self.out_base[router.index()] as usize + out_port.index();
        let base = self.chan_base[chan] as usize;
        let end = self.chan_base[chan + 1] as usize;
        let slot = base + (hop as usize - 1);
        assert!(
            hop >= 1 && slot < end,
            "{router} sent flit on dead channel {out_port} hop {hop}"
        );
        self.links[slot]
    }

    /// The node attached at `(router, local_port)`, mirroring
    /// [`Topology::node_at`].
    #[inline]
    pub fn eject_node(&self, router: RouterId, local_port: PortIndex) -> Option<NodeId> {
        if local_port.index() < self.concentration {
            self.eject[router.index() * self.concentration + local_port.index()]
        } else {
            None
        }
    }

    /// The router and local port a node is attached to.
    #[inline]
    pub fn attach_of(&self, node: NodeId) -> (RouterId, PortIndex) {
        self.attach[node.index()]
    }

    /// Number of input ports on `router` (from the prefix table).
    #[inline]
    pub fn in_ports(&self, router: RouterId) -> usize {
        (self.in_base[router.index() + 1] - self.in_base[router.index()]) as usize
    }

    /// Number of output ports on `router` (from the prefix table).
    #[inline]
    pub fn out_ports(&self, router: RouterId) -> usize {
        (self.out_base[router.index() + 1] - self.out_base[router.index()]) as usize
    }
}

/// All-pairs minimal hop counts, flattened to one `u32` per ordered node
/// pair: N² words, so worth building only where lookups far outnumber pairs.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    nodes: usize,
    hops: Vec<u32>,
}

impl DistanceMatrix {
    /// Precomputes `min_hops` for every ordered node pair.
    pub fn new(topo: &dyn Topology) -> Self {
        let nodes = topo.num_nodes();
        let mut hops = Vec::with_capacity(nodes * nodes);
        for s in 0..nodes {
            for d in 0..nodes {
                hops.push(topo.min_hops(NodeId::new(s), NodeId::new(d)));
            }
        }
        Self { nodes, hops }
    }

    /// Minimal hop count from `src` to `dst`, mirroring
    /// [`Topology::min_hops`].
    #[inline]
    pub fn get(&self, src: NodeId, dst: NodeId) -> u32 {
        self.hops[src.index() * self.nodes + dst.index()]
    }

    /// Number of nodes the matrix covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mecs, Mesh};

    #[test]
    fn flat_link_matches_topology_on_mesh() {
        let topo = Mesh::new(3, 3, 2);
        let wiring = FlatWiring::new(&topo);
        for r in 0..topo.num_routers() {
            let router = RouterId::new(r);
            assert_eq!(wiring.in_ports(router), topo.in_ports(router));
            assert_eq!(wiring.out_ports(router), topo.out_ports(router));
            for out in topo.concentration()..topo.out_ports(router) {
                let out_port = PortIndex::new(out);
                for hop in 1..=topo.channel_len(router, out_port) {
                    assert_eq!(
                        Some(wiring.link(router, out_port, hop)),
                        topo.link(router, out_port, hop)
                    );
                }
            }
        }
    }

    #[test]
    fn distance_matrix_matches_min_hops_on_mecs() {
        let topo = Mecs::new(3, 2, 2);
        let dist = DistanceMatrix::new(&topo);
        for s in 0..topo.num_nodes() {
            for d in 0..topo.num_nodes() {
                let (s, d) = (NodeId::new(s), NodeId::new(d));
                assert_eq!(dist.get(s, d), topo.min_hops(s, d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "dead channel")]
    fn flat_link_rejects_dead_channels() {
        let topo = Mesh::new(2, 2, 1);
        let wiring = FlatWiring::new(&topo);
        // Router 0 has no west link (port concentration + 3).
        let _ = wiring.link(RouterId::new(0), PortIndex::new(4), 1);
    }
}
