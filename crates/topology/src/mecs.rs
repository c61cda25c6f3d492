//! MECS — Multidrop Express Cube (Grot, Hestness, Keckler & Mutlu, HPCA 2009).
//!
//! Each router drives one *multidrop* express channel per cardinal direction;
//! the channel passes every router further along that direction and a flit
//! drops off at the router its route selects. Receivers have a dedicated
//! input port per upstream source on each side, so input ports outnumber
//! output ports (the defining asymmetry of MECS: point-to-multipoint channels
//! with a bandwidth-efficient shared output).
//!
//! Like the flattened butterfly, any dimension-order route takes at most two
//! network hops; unlike it, all traffic leaving a router in one direction
//! shares a single output port, which is what keeps crossbar complexity below
//! the flattened butterfly's (§VII.A of the pseudo-circuit paper).

use crate::mesh::Dir;
use crate::{LinkEnd, Topology};
use noc_base::{Coord, NodeId, PortIndex, RouteInfo, RouteMode, RouterId};

/// A `width × height` MECS network with `concentration` nodes per router.
#[derive(Clone, Debug)]
pub struct Mecs {
    width: u16,
    height: u16,
    concentration: usize,
    name: String,
}

impl Mecs {
    /// Creates a MECS network.
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
            name: format!("mecs{width}x{height}c{concentration}"),
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

    /// Input port at the router at `at` for a flit that travelled `dist`
    /// positions along a channel coming from the `origin` side.
    ///
    /// Input-port layout at (x, y): local ports, then one port per upstream
    /// source grouped by origin side — West sources (x of them), East sources
    /// (width-1-x), North sources (y), South sources (height-1-y) — each
    /// group ordered by source distance.
    fn in_port(&self, at: Coord, origin: Dir, dist: u8) -> PortIndex {
        debug_assert!(dist >= 1);
        let west = at.x as usize;
        let east = (self.width - 1 - at.x) as usize;
        let north = at.y as usize;
        let c = self.concentration;
        let offset = match origin {
            Dir::West => c,
            Dir::East => c + west,
            Dir::North => c + west + east,
            Dir::South => c + west + east + north,
        };
        PortIndex::new(offset + dist as usize - 1)
    }

    fn dir_channel_len(&self, at: Coord, dir: Dir) -> u8 {
        (match dir {
            Dir::North => at.y,
            Dir::South => self.height - 1 - at.y,
            Dir::West => at.x,
            Dir::East => self.width - 1 - at.x,
        }) as u8
    }
}

impl Topology for Mecs {
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
        // Constant per router: one input per source in the row plus one per
        // source in the column.
        self.concentration + (self.width as usize - 1) + (self.height as usize - 1)
    }

    fn out_ports(&self, _router: RouterId) -> usize {
        self.concentration + 4
    }

    fn channel_len(&self, router: RouterId, out: PortIndex) -> u8 {
        if out.index() < self.concentration {
            return 1;
        }
        match Dir::from_port(out, self.concentration) {
            Some(dir) => self.dir_channel_len(self.coord(router), dir),
            None => 0,
        }
    }

    fn link(&self, router: RouterId, out: PortIndex, hop: u8) -> Option<LinkEnd> {
        if hop == 0 || out.index() < self.concentration {
            return None;
        }
        let from = self.coord(router);
        let dir = Dir::from_port(out, self.concentration)?;
        if hop > self.dir_channel_len(from, dir) {
            return None;
        }
        let to = match dir {
            Dir::North => Coord::new(from.x, from.y - hop as u16),
            Dir::South => Coord::new(from.x, from.y + hop as u16),
            Dir::West => Coord::new(from.x - hop as u16, from.y),
            Dir::East => Coord::new(from.x + hop as u16, from.y),
        };
        // A flit travelling East arrives from the West side, etc.
        Some(LinkEnd {
            router: self.router_at(to),
            port: self.in_port(to, dir.opposite(), hop),
        })
    }

    fn route(&self, at: RouterId, dst: NodeId, mode: RouteMode) -> RouteInfo {
        assert!(dst.index() < self.num_nodes(), "destination out of range");
        let from = self.coord(at);
        let to = self.coord(self.router_of(dst));
        let c = self.concentration;
        let x_step = || {
            (from.x != to.x).then(|| {
                let (dir, hops) = if to.x > from.x {
                    (Dir::East, to.x - from.x)
                } else {
                    (Dir::West, from.x - to.x)
                };
                RouteInfo::multidrop(PortIndex::new(c + dir as usize), hops as u8)
            })
        };
        let y_step = || {
            (from.y != to.y).then(|| {
                let (dir, hops) = if to.y > from.y {
                    (Dir::South, to.y - from.y)
                } else {
                    (Dir::North, from.y - to.y)
                };
                RouteInfo::multidrop(PortIndex::new(c + dir as usize), hops as u8)
            })
        };
        // Unknown variants route X-first, matching the default mode.
        let step = if mode == RouteMode::YX {
            y_step().or_else(x_step)
        } else {
            x_step().or_else(y_step)
        };
        step.unwrap_or_else(|| RouteInfo::new(self.local_port(dst)))
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
    use crate::{validate, walk_route};

    #[test]
    fn wiring_is_consistent() {
        for (w, h, c) in [(2, 2, 1), (4, 4, 4), (3, 5, 2)] {
            let t = Mecs::new(w, h, c);
            validate(&t).unwrap_or_else(|e| panic!("{w}x{h}c{c}: {e}"));
        }
    }

    #[test]
    fn input_port_count_is_constant() {
        let t = Mecs::new(4, 4, 4);
        for r in 0..t.num_routers() {
            assert_eq!(t.in_ports(RouterId::new(r)), 4 + 3 + 3);
            assert_eq!(t.out_ports(RouterId::new(r)), 4 + 4);
        }
    }

    #[test]
    fn channel_lengths_match_grid_position() {
        let t = Mecs::new(4, 4, 1);
        let r = RouterId::new(5); // (1,1)
        assert_eq!(t.channel_len(r, PortIndex::new(1)), 1); // North: y=1
        assert_eq!(t.channel_len(r, PortIndex::new(2)), 2); // East: 4-1-1
        assert_eq!(t.channel_len(r, PortIndex::new(3)), 2); // South
        assert_eq!(t.channel_len(r, PortIndex::new(4)), 1); // West
    }

    #[test]
    fn multidrop_reaches_each_position() {
        let t = Mecs::new(4, 1, 1);
        let r0 = RouterId::new(0);
        let east = PortIndex::new(2);
        for hop in 1..=3u8 {
            let end = t.link(r0, east, hop).expect("drop position");
            assert_eq!(end.router.index(), hop as usize);
        }
        assert!(t.link(r0, east, 4).is_none());
    }

    #[test]
    fn distinct_sources_use_distinct_input_ports() {
        let t = Mecs::new(4, 1, 1);
        let r3 = RouterId::new(3);
        // Routers 0, 1, 2 all send eastbound to router 3.
        let mut ports = std::collections::HashSet::new();
        for src in 0..3usize {
            let hop = (3 - src) as u8;
            let end = t.link(RouterId::new(src), PortIndex::new(2), hop).unwrap();
            assert_eq!(end.router, r3);
            ports.insert(end.port);
        }
        assert_eq!(ports.len(), 3);
    }

    #[test]
    fn routes_take_at_most_two_hops() {
        let t = Mecs::new(4, 4, 4);
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
    fn route_encodes_drop_distance() {
        let t = Mecs::new(4, 4, 1);
        // (0,0) to (3,0): single eastbound express hop of distance 3.
        let route = t.route(RouterId::new(0), NodeId::new(3), RouteMode::XY);
        assert_eq!(route.hops, 3);
        assert_eq!(route.port, PortIndex::new(2));
    }
}
