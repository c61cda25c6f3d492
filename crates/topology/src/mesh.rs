//! 2D mesh and concentrated mesh.

use crate::{LinkEnd, Topology};
use noc_base::{Coord, NodeId, PortIndex, RouteInfo, RouteMode, RouterId};

/// Cardinal directions on the mesh (and of MECS's four multidrop output
/// channels); the network port for direction `d` is `concentration + d as
/// usize`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Dir {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
}

impl Dir {
    pub(crate) fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    pub(crate) fn from_port(port: PortIndex, concentration: usize) -> Option<Dir> {
        match port.index().checked_sub(concentration)? {
            0 => Some(Dir::North),
            1 => Some(Dir::East),
            2 => Some(Dir::South),
            3 => Some(Dir::West),
            _ => None,
        }
    }
}

/// A `width × height` 2D mesh with `concentration` nodes per router.
///
/// `Mesh::new(8, 8, 1)` is the paper's plain mesh; `Mesh::new(4, 4, 4)` is
/// the concentrated mesh used as the CMP substrate (each router attaches two
/// processor cores and two L2 banks).
#[derive(Clone, Debug)]
pub struct Mesh {
    width: u16,
    height: u16,
    concentration: usize,
    name: String,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the concentration is zero.
    pub fn new(width: u16, height: u16, concentration: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        assert!(concentration > 0, "concentration must be nonzero");
        let name = if concentration == 1 {
            format!("mesh{width}x{height}")
        } else {
            format!("cmesh{width}x{height}c{concentration}")
        };
        Self {
            width,
            height,
            concentration,
            name,
        }
    }

    /// Grid width in routers.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height in routers.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Coordinate of a router.
    pub(crate) fn coord(&self, router: RouterId) -> Coord {
        Coord::from_index(router.index(), self.width)
    }

    /// Router at a coordinate.
    pub(crate) fn router_at(&self, coord: Coord) -> RouterId {
        RouterId::new(coord.to_index(self.width))
    }

    fn neighbor(&self, router: RouterId, dir: Dir) -> Option<RouterId> {
        let c = self.coord(router);
        let next = match dir {
            Dir::North => (c.y > 0).then(|| Coord::new(c.x, c.y - 1)),
            Dir::South => (c.y + 1 < self.height).then(|| Coord::new(c.x, c.y + 1)),
            Dir::West => (c.x > 0).then(|| Coord::new(c.x - 1, c.y)),
            Dir::East => (c.x + 1 < self.width).then(|| Coord::new(c.x + 1, c.y)),
        }?;
        Some(self.router_at(next))
    }

    fn port_of(&self, dir: Dir) -> PortIndex {
        PortIndex::new(self.concentration + dir as usize)
    }

    /// Dimension-order next direction toward `to`, or `None` when already
    /// at the destination router.
    fn dor_dir(&self, from: Coord, to: Coord, mode: RouteMode) -> Option<Dir> {
        let x_dir = || {
            if to.x > from.x {
                Some(Dir::East)
            } else if to.x < from.x {
                Some(Dir::West)
            } else {
                None
            }
        };
        let y_dir = || {
            if to.y > from.y {
                Some(Dir::South)
            } else if to.y < from.y {
                Some(Dir::North)
            } else {
                None
            }
        };
        // Unknown variants route X-first, matching the default mode.
        if mode == RouteMode::YX {
            y_dir().or_else(x_dir)
        } else {
            x_dir().or_else(y_dir)
        }
    }
}

impl Topology for Mesh {
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
        self.concentration + 4
    }

    fn out_ports(&self, _router: RouterId) -> usize {
        self.concentration + 4
    }

    fn channel_len(&self, router: RouterId, out: PortIndex) -> u8 {
        if out.index() < self.concentration {
            return 1;
        }
        match Dir::from_port(out, self.concentration) {
            Some(dir) if self.neighbor(router, dir).is_some() => 1,
            _ => 0,
        }
    }

    fn link(&self, router: RouterId, out: PortIndex, hop: u8) -> Option<LinkEnd> {
        if hop != 1 || out.index() < self.concentration {
            return None;
        }
        let dir = Dir::from_port(out, self.concentration)?;
        let next = self.neighbor(router, dir)?;
        Some(LinkEnd {
            router: next,
            port: self.port_of(dir.opposite()),
        })
    }

    fn route(&self, at: RouterId, dst: NodeId, mode: RouteMode) -> RouteInfo {
        assert!(dst.index() < self.num_nodes(), "destination out of range");
        let dst_router = self.router_of(dst);
        let from = self.coord(at);
        let to = self.coord(dst_router);
        match self.dor_dir(from, to, mode) {
            Some(dir) => RouteInfo::new(self.port_of(dir)),
            None => RouteInfo::new(self.local_port(dst)),
        }
    }

    fn min_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let a = self.coord(self.router_of(src));
        let b = self.coord(self.router_of(dst));
        a.manhattan(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{average_min_hops, validate, walk_route};

    #[test]
    fn wiring_is_consistent() {
        for (w, h, c) in [(1, 1, 1), (4, 4, 4), (8, 8, 1), (3, 5, 2)] {
            let m = Mesh::new(w, h, c);
            validate(&m).unwrap_or_else(|e| panic!("{w}x{h}c{c}: {e}"));
        }
    }

    #[test]
    fn names_distinguish_concentration() {
        assert_eq!(Mesh::new(8, 8, 1).name(), "mesh8x8");
        assert_eq!(Mesh::new(4, 4, 4).name(), "cmesh4x4c4");
    }

    #[test]
    fn links_are_bidirectional_pairs() {
        let m = Mesh::new(4, 4, 2);
        for r in 0..m.num_routers() {
            let router = RouterId::new(r);
            for p in m.concentration()..m.out_ports(router) {
                let port = PortIndex::new(p);
                if let Some(end) = m.link(router, port, 1) {
                    // The reverse channel from the neighbour comes back here.
                    let back = m.link(end.router, end.port, 1).expect("reverse link");
                    assert_eq!(back.router, router);
                    assert_eq!(back.port, port);
                }
            }
        }
    }

    #[test]
    fn edge_routers_have_dead_ports() {
        let m = Mesh::new(4, 4, 1);
        let corner = RouterId::new(0); // (0,0): no North, no West
        assert_eq!(m.channel_len(corner, PortIndex::new(1)), 0); // North
        assert_eq!(m.channel_len(corner, PortIndex::new(4)), 0); // West
        assert_eq!(m.channel_len(corner, PortIndex::new(2)), 1); // East
        assert_eq!(m.channel_len(corner, PortIndex::new(3)), 1); // South
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh::new(4, 4, 1);
        // From (0,0) to node at router (2,3).
        let dst = NodeId::new(Coord::new(2, 3).to_index(4));
        let path = walk_route(&m, NodeId::new(0), dst, RouteMode::XY);
        let coords: Vec<Coord> = path.iter().map(|&r| m.coord(r)).collect();
        // X changes first, then Y.
        assert_eq!(coords[0], Coord::new(0, 0));
        assert_eq!(coords[1], Coord::new(1, 0));
        assert_eq!(coords[2], Coord::new(2, 0));
        assert_eq!(coords[3], Coord::new(2, 1));
        assert_eq!(*coords.last().unwrap(), Coord::new(2, 3));
    }

    #[test]
    fn yx_routes_y_first() {
        let m = Mesh::new(4, 4, 1);
        let dst = NodeId::new(Coord::new(2, 3).to_index(4));
        let path = walk_route(&m, NodeId::new(0), dst, RouteMode::YX);
        let coords: Vec<Coord> = path.iter().map(|&r| m.coord(r)).collect();
        assert_eq!(coords[1], Coord::new(0, 1));
        assert_eq!(*coords.last().unwrap(), Coord::new(2, 3));
    }

    #[test]
    fn all_pairs_reach_destination_with_min_hops() {
        let m = Mesh::new(3, 3, 2);
        for s in 0..m.num_nodes() {
            for d in 0..m.num_nodes() {
                for mode in [RouteMode::XY, RouteMode::YX] {
                    let src = NodeId::new(s);
                    let dst = NodeId::new(d);
                    let path = walk_route(&m, src, dst, mode);
                    assert_eq!(
                        path.len() as u32 - 1,
                        m.min_hops(src, dst),
                        "{src}->{dst} {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_router_delivery_is_zero_hops() {
        let m = Mesh::new(4, 4, 4);
        // Nodes 0..4 share router 0.
        assert_eq!(m.min_hops(NodeId::new(0), NodeId::new(3)), 0);
        let route = m.route(RouterId::new(0), NodeId::new(3), RouteMode::XY);
        assert_eq!(route.port, PortIndex::new(3));
    }

    #[test]
    fn average_hops_shrinks_with_concentration() {
        let mesh = Mesh::new(8, 8, 1);
        let cmesh = Mesh::new(4, 4, 4);
        assert_eq!(mesh.num_nodes(), cmesh.num_nodes());
        assert!(average_min_hops(&cmesh) < average_min_hops(&mesh));
        // Table I's 4x4 CMesh: router pairs are 2.5 links apart on average,
        // and each of the 64 nodes sees 16 times the 256 router pairs, minus
        // the 64 pairs of a node with itself.
        assert_eq!(average_min_hops(&cmesh), 16.0 * 256.0 * 2.5 / (64.0 * 63.0));
    }

    #[test]
    fn node_attachment_roundtrip() {
        let m = Mesh::new(4, 4, 4);
        for n in 0..m.num_nodes() {
            let node = NodeId::new(n);
            let r = m.router_of(node);
            let p = m.local_port(node);
            assert_eq!(m.node_at(r, p), Some(node));
        }
        assert_eq!(m.node_at(RouterId::new(0), PortIndex::new(4)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_to_bad_destination_panics() {
        let m = Mesh::new(2, 2, 1);
        let _ = m.route(RouterId::new(0), NodeId::new(99), RouteMode::XY);
    }
}
