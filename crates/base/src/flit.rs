//! Wire-level data units: flits, credits, and packet descriptors.
//!
//! A packet is split by the source network interface into flits that fit the
//! link bandwidth (the paper assumes 128-bit links: address-only packets are a
//! single flit; address + 64-byte cache-block packets are 5 flits). The first
//! flit of a packet is the *header* (carries routing information), the last is
//! the *tail*; a one-flit packet is both at once ([`FlitKind::Single`]).

use crate::ids::{NodeId, PacketId, PortIndex, VcIndex};
use crate::policy::RouteMode;

/// The role a flit plays within its packet.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// A middle flit.
    Body,
    /// Last flit of a multi-flit packet; releases the virtual channel.
    Tail,
    /// The only flit of a one-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    /// Whether this flit carries routing information (head or single).
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit ends its packet (tail or single).
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }

    /// The kind of the `seq`-th flit (0-based) of a packet with `len` flits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or `seq >= len`.
    pub(crate) fn for_position(seq: usize, len: usize) -> FlitKind {
        assert!(len > 0, "packet length must be nonzero");
        assert!(seq < len, "flit index {seq} out of range for length {len}");
        match (seq, len) {
            (0, 1) => FlitKind::Single,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// The semantic class of a packet in the CMP traffic model; purely
/// informational for statistics (the network treats all classes equally).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum PacketClass {
    /// Generic traffic (synthetic workloads).
    #[default]
    Data,
    /// A read request (L1 miss → L2 bank).
    ReadRequest,
    /// A read response carrying a cache block.
    ReadResponse,
    /// A write-through request carrying a cache block.
    WriteRequest,
    /// A write acknowledgement.
    WriteAck,
    /// A coherence-management message (invalidation or its acknowledgement).
    Coherence,
}

/// Routing decision for one hop: the output port at the router being entered,
/// plus — for multidrop channels (MECS) — how many drop-off positions down the
/// channel the flit should travel (`hops == 1` for ordinary point-to-point
/// links).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RouteInfo {
    /// Output port at the router the flit is entering.
    pub port: PortIndex,
    /// Drop-off distance along the channel (1 for point-to-point links).
    pub hops: u8,
}

impl RouteInfo {
    /// A route over an ordinary point-to-point link.
    #[inline]
    pub const fn new(port: PortIndex) -> Self {
        Self { port, hops: 1 }
    }

    /// A route over a multidrop channel, dropping off after `hops` positions.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is zero.
    #[inline]
    pub fn multidrop(port: PortIndex, hops: u8) -> Self {
        assert!(hops > 0, "drop-off distance must be nonzero");
        Self { port, hops }
    }
}

/// A flow-control unit travelling over one link of the network.
///
/// `Flit` is plain-old-data (`Copy`): the simulator stores each flit exactly
/// once, in the [`crate::arena::FlitPool`] slab, and moves a 4-byte
/// [`crate::arena::FlitRef`] between queues instead of this struct. The one
/// remaining by-value copy per flit lifetime is the pool write at injection,
/// so the size pin below keeps that copy (and the slab stride) compact.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Position of this flit within the packet.
    pub kind: FlitKind,
    /// 0-based index of this flit within the packet.
    pub seq: u16,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Virtual channel on the link being traversed (assigned by the upstream
    /// router's VC allocator, or by the source network interface).
    pub vc: VcIndex,
    /// Lookahead route: the output port to take at the router being entered.
    pub route: RouteInfo,
    /// Dimension-order variant used for lookahead route computation.
    pub mode: RouteMode,
    /// Virtual-channel class (deadlock partition) this packet travels in.
    pub class: u8,
    /// Cycle at which the packet entered the source network-interface queue.
    pub injected_at: u64,
    /// Semantic class of the packet (statistics only).
    pub packet_class: PacketClass,
    /// Express-virtual-channel state: remaining express hops (0 = normal).
    pub express_hops: u8,
}

// Pin the flit's memory footprint: 35 bytes of payload padded to 40 by the
// 8-byte alignment of `packet`/`injected_at`. Growing a field past this pin
// widens every pool slot and the injection-time copy — do it deliberately
// (and update DESIGN.md §19), not by accident.
const _: () = assert!(std::mem::size_of::<Flit>() == 40);
const _: () = assert!(std::mem::align_of::<Flit>() == 8);

/// Everything a network interface needs to emit one packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PacketDescriptor {
    /// Unique packet identifier.
    pub id: PacketId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Length in flits (≥ 1).
    pub len: u16,
    /// Semantic class for statistics.
    pub class: PacketClass,
    /// Cycle at which the packet was created (entered the source queue).
    pub created_at: u64,
}

impl PacketDescriptor {
    /// Builds the `seq`-th flit of this packet.
    ///
    /// The caller (the network interface) fills in `vc`, `route` and `mode`
    /// before transmission; they default to zeroed placeholder values here.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= self.len`.
    pub fn flit(&self, seq: u16) -> Flit {
        Flit {
            packet: self.id,
            kind: FlitKind::for_position(seq as usize, self.len as usize),
            seq,
            src: self.src,
            dst: self.dst,
            vc: VcIndex::new(0),
            route: RouteInfo::new(PortIndex::new(0)),
            mode: RouteMode::default(),
            class: 0,
            injected_at: self.created_at,
            packet_class: self.class,
            express_hops: 0,
        }
    }
}

/// A credit returned upstream when a buffer slot frees (credit-based VC flow
/// control). `sub` identifies the drop-off position on a multidrop channel
/// that the credit refers to (0 for point-to-point links, `hops - 1` for
/// multidrop).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Credit {
    /// The virtual channel whose buffer slot freed.
    pub vc: VcIndex,
    /// Drop-off index on a multidrop channel (0 for ordinary links).
    pub sub: u8,
}

impl Credit {
    /// A credit for an ordinary point-to-point link.
    #[inline]
    pub const fn new(vc: VcIndex) -> Self {
        Self { vc, sub: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_for_position_covers_all_shapes() {
        assert_eq!(FlitKind::for_position(0, 1), FlitKind::Single);
        assert_eq!(FlitKind::for_position(0, 5), FlitKind::Head);
        assert_eq!(FlitKind::for_position(2, 5), FlitKind::Body);
        assert_eq!(FlitKind::for_position(4, 5), FlitKind::Tail);
    }

    #[test]
    fn head_and_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::Single.is_head());
        assert!(!FlitKind::Body.is_head());
        assert!(FlitKind::Tail.is_tail());
        assert!(FlitKind::Single.is_tail());
        assert!(!FlitKind::Head.is_tail());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kind_for_position_out_of_range_panics() {
        let _ = FlitKind::for_position(3, 3);
    }

    #[test]
    fn packet_descriptor_builds_consistent_flits() {
        let pkt = PacketDescriptor {
            id: PacketId::new(9),
            src: NodeId::new(1),
            dst: NodeId::new(2),
            len: 5,
            class: PacketClass::ReadResponse,
            created_at: 100,
        };
        let flits: Vec<Flit> = (0..5).map(|s| pkt.flit(s)).collect();
        assert!(flits[0].kind.is_head());
        assert!(flits[4].kind.is_tail());
        assert!(flits.iter().all(|f| f.packet == pkt.id && f.dst == pkt.dst));
        assert_eq!(flits[3].seq, 3);
        assert_eq!(flits[0].injected_at, 100);
    }

    #[test]
    fn single_flit_packet() {
        let pkt = PacketDescriptor {
            id: PacketId::new(1),
            src: NodeId::new(0),
            dst: NodeId::new(3),
            len: 1,
            class: PacketClass::ReadRequest,
            created_at: 0,
        };
        assert_eq!(pkt.flit(0).kind, FlitKind::Single);
    }

    #[test]
    fn multidrop_route_requires_positive_hops() {
        let r = RouteInfo::multidrop(PortIndex::new(2), 3);
        assert_eq!(r.hops, 3);
        assert_eq!(RouteInfo::new(PortIndex::new(1)).hops, 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn multidrop_zero_hops_panics() {
        let _ = RouteInfo::multidrop(PortIndex::new(0), 0);
    }
}
