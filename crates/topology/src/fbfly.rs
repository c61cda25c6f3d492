//! 2D flattened butterfly (Kim, Balfour & Dally, MICRO 2007).
//!
//! Every router is directly connected to every other router in its row and in
//! its column, so any minimal dimension-order route takes at most two network
//! hops. All channels are point-to-point (channel length 1); the express
//! connectivity is what distinguishes it from the mesh.

use crate::{LinkEnd, Topology};
use noc_base::{Coord, NodeId, PortIndex, RouteInfo, RouteMode, RouterId};

/// A `width × height` flattened butterfly with `concentration` nodes per
/// router.
///
/// Output/input port layout on a router at column `x`, row `y`:
/// - `0..c`: local ports;
/// - `c..c + width - 1`: row (X) links, ordered by target column skipping
///   `x` itself;
/// - `c + width - 1 .. c + width - 1 + height - 1`: column (Y) links, ordered
///   by target row skipping `y`.
#[derive(Clone, Debug)]
pub struct FlattenedButterfly {
    width: u16,
    height: u16,
    concentration: usize,
    name: String,
}

impl FlattenedButterfly {
    /// Creates a flattened butterfly.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the concentration is zero.
    pub fn new(width: u16, height: u16, concentration: usize) -> Self {
        assert!(width > 0 && height > 0, "dimensions must be nonzero");
        assert!(concentration > 0, "concentration must be nonzero");
        Self {
            width,
            height,
            concentration,
            name: format!("fbfly{width}x{height}c{concentration}"),
        }
    }

    /// Coordinate of a router.
    pub(crate) fn coord(&self, router: RouterId) -> Coord {
        Coord::from_index(router.index(), self.width)
    }

    /// Router at a coordinate.
    pub(crate) fn router_at(&self, coord: Coord) -> RouterId {
        RouterId::new(coord.to_index(self.width))
    }

    /// The output (and input) port on the router at `from` that connects to
    /// column `to_x` in the same row.
    fn x_port(&self, from: Coord, to_x: u16) -> PortIndex {
        debug_assert_ne!(from.x, to_x);
        let slot = if to_x < from.x { to_x } else { to_x - 1 };
        PortIndex::new(self.concentration + slot as usize)
    }

    /// The output (and input) port on the router at `from` that connects to
    /// row `to_y` in the same column.
    fn y_port(&self, from: Coord, to_y: u16) -> PortIndex {
        debug_assert_ne!(from.y, to_y);
        let slot = if to_y < from.y { to_y } else { to_y - 1 };
        PortIndex::new(self.concentration + self.width as usize - 1 + slot as usize)
    }

    /// Decodes a network port back into its link target coordinate.
    fn port_target(&self, at: Coord, port: PortIndex) -> Option<Coord> {
        let net = port.index().checked_sub(self.concentration)?;
        let x_links = self.width as usize - 1;
        if net < x_links {
            let mut to_x = net as u16;
            if to_x >= at.x {
                to_x += 1;
            }
            (to_x < self.width).then(|| Coord::new(to_x, at.y))
        } else {
            let slot = net - x_links;
            if slot >= self.height as usize - 1 {
                return None;
            }
            let mut to_y = slot as u16;
            if to_y >= at.y {
                to_y += 1;
            }
            (to_y < self.height).then(|| Coord::new(at.x, to_y))
        }
    }
}

impl Topology for FlattenedButterfly {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_routers(&self) -> usize {
        self.width as usize * self.height as usize
    }

    fn num_nodes(&self) -> usize {
        self.num_routers() * self.concentration
    }

    fn concentration(&self) -> usize {
        self.concentration
    }

    fn in_ports(&self, _router: RouterId) -> usize {
        self.concentration + (self.width as usize - 1) + (self.height as usize - 1)
    }

    fn out_ports(&self, router: RouterId) -> usize {
        self.in_ports(router)
    }

    fn channel_len(&self, router: RouterId, out: PortIndex) -> u8 {
        if out.index() < self.concentration {
            return 1;
        }
        u8::from(self.port_target(self.coord(router), out).is_some())
    }

    fn link(&self, router: RouterId, out: PortIndex, hop: u8) -> Option<LinkEnd> {
        if hop != 1 || out.index() < self.concentration {
            return None;
        }
        let from = self.coord(router);
        let to = self.port_target(from, out)?;
        let back_port = if to.y == from.y {
            self.x_port(to, from.x)
        } else {
            self.y_port(to, from.y)
        };
        Some(LinkEnd {
            router: self.router_at(to),
            port: back_port,
        })
    }

    fn route(&self, at: RouterId, dst: NodeId, mode: RouteMode) -> RouteInfo {
        assert!(dst.index() < self.num_nodes(), "destination out of range");
        let from = self.coord(at);
        let to = self.coord(self.router_of(dst));
        let x_step = (from.x != to.x).then(|| self.x_port(from, to.x));
        let y_step = (from.y != to.y).then(|| self.y_port(from, to.y));
        // Unknown variants route X-first, matching the default mode.
        let port = if mode == RouteMode::YX {
            y_step.or(x_step)
        } else {
            x_step.or(y_step)
        };
        match port {
            Some(p) => RouteInfo::new(p),
            None => RouteInfo::new(self.local_port(dst)),
        }
    }

    fn min_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let a = self.coord(self.router_of(src));
        let b = self.coord(self.router_of(dst));
        u32::from(a.x != b.x) + u32::from(a.y != b.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mesh;
    use crate::{average_min_hops, validate, walk_route};

    #[test]
    fn wiring_is_consistent() {
        for (w, h, c) in [(2, 2, 1), (4, 4, 4), (3, 5, 2)] {
            let t = FlattenedButterfly::new(w, h, c);
            validate(&t).unwrap_or_else(|e| panic!("{w}x{h}c{c}: {e}"));
        }
    }

    #[test]
    fn links_are_bidirectional_pairs() {
        let t = FlattenedButterfly::new(4, 4, 2);
        for r in 0..t.num_routers() {
            let router = RouterId::new(r);
            for p in t.concentration()..t.out_ports(router) {
                let port = PortIndex::new(p);
                if let Some(end) = t.link(router, port, 1) {
                    let back = t.link(end.router, end.port, 1).expect("reverse link");
                    assert_eq!((back.router, back.port), (router, port));
                }
            }
        }
    }

    #[test]
    fn every_route_is_at_most_two_hops() {
        let t = FlattenedButterfly::new(4, 4, 4);
        for s in (0..t.num_nodes()).step_by(3) {
            for d in (0..t.num_nodes()).step_by(5) {
                for mode in [RouteMode::XY, RouteMode::YX] {
                    let path = walk_route(&t, NodeId::new(s), NodeId::new(d), mode);
                    assert!(path.len() <= 3, "{s}->{d}: {path:?}");
                    assert_eq!(
                        path.len() as u32 - 1,
                        t.min_hops(NodeId::new(s), NodeId::new(d))
                    );
                }
            }
        }
    }

    #[test]
    fn average_hops_beat_the_cmesh() {
        let fb = FlattenedButterfly::new(4, 4, 4);
        let cm = Mesh::new(4, 4, 4);
        assert!(average_min_hops(&fb) < average_min_hops(&cm));
    }

    #[test]
    fn port_layout_covers_row_and_column() {
        let t = FlattenedButterfly::new(4, 4, 1);
        let r5 = RouterId::new(5); // (1,1)
                                   // 1 local + 3 row + 3 column ports.
        assert_eq!(t.out_ports(r5), 7);
        let mut targets = std::collections::HashSet::new();
        for p in 1..7 {
            let end = t.link(r5, PortIndex::new(p), 1).expect("connected");
            targets.insert(end.router.index());
        }
        assert_eq!(targets.len(), 6);
        // Row neighbours 4, 6, 7 and column neighbours 1, 9, 13.
        for expect in [4usize, 6, 7, 1, 9, 13] {
            assert!(targets.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn xy_and_yx_turn_in_different_corners() {
        let t = FlattenedButterfly::new(4, 4, 1);
        let src = NodeId::new(0); // (0,0)
        let dst = NodeId::new(15); // (3,3)
        let xy = walk_route(&t, src, dst, RouteMode::XY);
        let yx = walk_route(&t, src, dst, RouteMode::YX);
        assert_eq!(xy[1].index(), 3); // (3,0)
        assert_eq!(yx[1].index(), 12); // (0,3)
        assert_eq!(xy[2], yx[2]);
    }
}
