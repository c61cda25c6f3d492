//! Planted miswirings: an otherwise valid mesh or MECS with exactly one
//! fault in its wiring, one case per check the topology check makes. Each
//! must be rejected with its own message, by `noc_topology::validate` and by
//! `Simulation::new`, which refuses to build a network over it. A last test
//! counts the `Topology::link` calls a build makes: the check is the walk
//! that flattens the wiring, not a second one.

use noc_base::{NodeId, PortIndex, RouteInfo, RouteMode, RouterId};
use noc_sim::{NetworkConfig, Simulation};
use noc_topology::{validate, LinkEnd, Mecs, Mesh, SharedTopology, Topology};
use noc_traffic::{SyntheticPattern, SyntheticTraffic};
use pseudo_circuit::PcRouterFactory;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A topology that answers like `inner` except at one planted channel
/// position, and counts the `link` calls made on it.
struct Planted<T> {
    inner: T,
    /// The planted `(router, output port, drop position)` and the answer
    /// `link` gives there, if any.
    plant: Option<((usize, usize, u8), Option<LinkEnd>)>,
    /// The `link` calls answered so far.
    links: AtomicUsize,
}

impl<T> Planted<T> {
    fn new(inner: T, plant: Option<((usize, usize, u8), Option<LinkEnd>)>) -> Self {
        Self {
            inner,
            plant,
            links: AtomicUsize::new(0),
        }
    }
}

impl<T: Topology> Topology for Planted<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_routers(&self) -> usize {
        self.inner.num_routers()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn concentration(&self) -> usize {
        self.inner.concentration()
    }
    fn in_ports(&self, router: RouterId) -> usize {
        self.inner.in_ports(router)
    }
    fn out_ports(&self, router: RouterId) -> usize {
        self.inner.out_ports(router)
    }
    fn channel_len(&self, router: RouterId, out: PortIndex) -> u8 {
        self.inner.channel_len(router, out)
    }
    fn link(&self, router: RouterId, out: PortIndex, hop: u8) -> Option<LinkEnd> {
        self.links.fetch_add(1, Ordering::Relaxed);
        match self.plant {
            Some((at, link)) if at == (router.index(), out.index(), hop) => link,
            _ => self.inner.link(router, out, hop),
        }
    }
    fn route(&self, at: RouterId, dst: NodeId, mode: RouteMode) -> RouteInfo {
        self.inner.route(at, dst, mode)
    }
    fn min_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.inner.min_hops(src, dst)
    }
}

/// Port numbering on both 3×3 topologies at concentration 1: port 0 is
/// local, output ports 1–4 face north, east, south and west. On the mesh,
/// input port 4 of r1 is fed by r0's east link; on the MECS, r0's east
/// channel drops at r1 (input port 1) and r2 (input port 2).
const EAST: usize = 2;
const SOUTH: usize = 3;

fn end(router: usize, port: usize) -> Option<LinkEnd> {
    Some(LinkEnd {
        router: RouterId::new(router),
        port: PortIndex::new(port),
    })
}

fn mesh(at: (usize, usize, u8), link: Option<LinkEnd>) -> Planted<Mesh> {
    Planted::new(Mesh::new(3, 3, 1), Some((at, link)))
}

fn mecs(at: (usize, usize, u8), link: Option<LinkEnd>) -> Planted<Mecs> {
    Planted::new(Mecs::new(3, 3, 1), Some((at, link)))
}

/// `validate` reports exactly `expected`, and `Simulation::new` panics with
/// it under the topology's name.
fn assert_rejected(topo: impl Topology + 'static, expected: &str) {
    assert_eq!(validate(&topo), Err(expected.to_string()));
    let name = topo.name().to_string();
    let topo: SharedTopology = Arc::new(topo);
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 3, 3, 1, 0.1, 1);
    let built = catch_unwind(AssertUnwindSafe(|| {
        Simulation::new(
            topo,
            NetworkConfig::paper(),
            Box::new(traffic),
            &PcRouterFactory::default(),
            1,
        )
    }));
    let Err(payload) = built else {
        panic!("Simulation::new built a network over {name} ({expected})");
    };
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert_eq!(*message, format!("invalid topology {name}: {expected}"));
}

#[test]
fn the_unplanted_topologies_pass() {
    assert_eq!(validate(&mesh((0, EAST, 1), end(1, 4))), Ok(()));
    assert_eq!(validate(&mecs((0, EAST, 2), end(2, 2))), Ok(()));
}

#[test]
fn a_local_output_wired_as_a_link_is_rejected() {
    assert_rejected(
        mesh((0, 0, 1), end(1, 4)),
        "local port p0 of r0 wired as a link",
    );
}

#[test]
fn an_unconnected_position_within_the_channel_is_rejected() {
    assert_rejected(
        mesh((0, EAST, 1), None),
        "r0 out p2 hop 1 within channel_len 1 but unconnected",
    );
}

#[test]
fn a_link_to_a_router_past_the_last_is_rejected() {
    assert_rejected(mesh((0, EAST, 1), end(9, 4)), "r0 out p2 hop 1 -> bad r9");
}

#[test]
fn a_link_to_an_input_port_past_the_last_is_rejected() {
    assert_rejected(
        mesh((0, EAST, 1), end(1, 5)),
        "r0 out p2 hop 1 -> r1 bad in port p5",
    );
}

#[test]
fn a_link_onto_a_local_port_is_rejected() {
    assert_rejected(
        mesh((0, EAST, 1), end(1, 0)),
        "r0 out p2 hop 1 lands on local port p0",
    );
}

#[test]
fn an_input_fed_by_two_links_is_rejected() {
    assert_rejected(
        mesh((0, SOUTH, 1), end(1, 4)),
        "input (r1, p4) fed twice: by (RouterId(0), PortIndex(2), 1) and (r0, p3, 1)",
    );
}

#[test]
fn an_input_fed_by_two_drops_of_one_channel_is_rejected() {
    assert_rejected(
        mecs((0, EAST, 2), end(1, 1)),
        "input (r1, p1) fed twice: by (RouterId(0), PortIndex(2), 1) and (r0, p2, 2)",
    );
}

#[test]
fn a_link_beyond_the_channel_is_rejected() {
    assert_rejected(
        mesh((0, EAST, 2), end(2, 4)),
        "r0 out p2 connected beyond channel_len",
    );
    assert_rejected(
        mecs((0, EAST, 3), end(2, 3)),
        "r0 out p2 connected beyond channel_len",
    );
}

#[test]
fn a_build_enumerates_the_links_once() {
    let inner = Mesh::new(8, 8, 1);
    // One walk asks once per local output port (is it wired?) and, per
    // network output port, once per drop position plus once past the end.
    let conc = inner.concentration();
    let once: usize = (0..inner.num_routers())
        .map(RouterId::new)
        .map(|r| {
            conc + (conc..inner.out_ports(r))
                .map(|out| usize::from(inner.channel_len(r, PortIndex::new(out))) + 1)
                .sum::<usize>()
        })
        .sum();
    let topo = Arc::new(Planted::new(inner, None));
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 8, 1, 0.1, 1);
    Simulation::new(
        topo.clone(),
        NetworkConfig::paper(),
        Box::new(traffic),
        &PcRouterFactory::default(),
        1,
    );
    assert_eq!(topo.links.load(Ordering::Relaxed), once);
}
