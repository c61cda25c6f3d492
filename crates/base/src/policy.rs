//! Routing and virtual-channel allocation policies (§V of the paper).
//!
//! The paper evaluates three routing algorithms — XY, YX, and O1TURN (a
//! per-packet random choice between XY and YX, Seo et al. ISCA 2005) — and two
//! VC allocation policies: *dynamic* (pick the free downstream VC with the
//! most credits) and *static* (VC keyed by destination identifier, which
//! maximizes pseudo-circuit reusability).

use crate::ids::{NodeId, VcIndex};
use crate::rng::Pcg32;
use std::fmt;
use std::ops::Range;

/// An opaque per-packet routing decision, interpreted by the topology that
/// owns the network.
///
/// The raw value is a topology-defined variant index: the flit carries it,
/// the network interface picks it (via [`RoutingPolicy::pick_mode`] refined
/// by `Topology::select_mode`), and only `Topology::route` assigns it
/// meaning. For the dimension-ordered topologies (mesh, cmesh, flattened
/// butterfly, MECS) the two variants are [`RouteMode::XY`] and
/// [`RouteMode::YX`]; a ring uses the raw value for its dateline classes;
/// future topologies are free to define their own variant spaces without
/// touching this crate.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RouteMode(u8);

impl RouteMode {
    /// Dimension-order, X first (raw variant 0 — also the default).
    pub const XY: RouteMode = RouteMode(0);
    /// Dimension-order, Y first (raw variant 1).
    pub const YX: RouteMode = RouteMode(1);

    /// Wraps a topology-defined raw variant index.
    #[inline]
    pub const fn from_raw(raw: u8) -> Self {
        RouteMode(raw)
    }

    /// The raw variant index, for the owning topology to interpret.
    #[inline]
    pub const fn raw(self) -> u8 {
        self.0
    }
}

/// The routing algorithm configured for an experiment.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum RoutingPolicy {
    /// Dimension-order, X first.
    #[default]
    Xy,
    /// Dimension-order, Y first.
    Yx,
    /// O1TURN: each packet randomly picks XY or YX; the two variants use
    /// disjoint VC classes for deadlock freedom.
    O1Turn,
}

impl RoutingPolicy {
    /// Picks the route mode for a new packet.
    pub fn pick_mode(self, rng: &mut Pcg32) -> RouteMode {
        match self {
            RoutingPolicy::Xy => RouteMode::XY,
            RoutingPolicy::Yx => RouteMode::YX,
            RoutingPolicy::O1Turn => {
                if rng.next_bool(0.5) {
                    RouteMode::XY
                } else {
                    RouteMode::YX
                }
            }
        }
    }

    /// Number of VC classes this policy needs for deadlock freedom.
    pub fn num_classes(self) -> u8 {
        match self {
            RoutingPolicy::Xy | RoutingPolicy::Yx => 1,
            RoutingPolicy::O1Turn => 2,
        }
    }

    /// The VC class a packet with the given mode travels in.
    pub fn class_of(self, mode: RouteMode) -> u8 {
        match self {
            RoutingPolicy::Xy | RoutingPolicy::Yx => 0,
            RoutingPolicy::O1Turn => {
                if mode == RouteMode::YX {
                    1
                } else {
                    0
                }
            }
        }
    }
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingPolicy::Xy => write!(f, "XY"),
            RoutingPolicy::Yx => write!(f, "YX"),
            RoutingPolicy::O1Turn => write!(f, "O1TURN"),
        }
    }
}

/// The virtual-channel allocation policy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum VaPolicy {
    /// Choose the free VC with the most downstream credits.
    #[default]
    Dynamic,
    /// VC keyed by destination ID so flows to the same destination share the
    /// same VC at every input port (maximizes pseudo-circuit reuse).
    Static,
}

impl VaPolicy {
    /// The one VC choice of the interfaces and every router scheme: in
    /// `range`, static VA takes the destination-keyed VC `range.start + dst %
    /// range.len()` if `usable`, dynamic VA the usable VC with the most
    /// `credits` (the highest-indexed one on a tie).
    #[inline]
    pub fn choose(
        self,
        range: Range<usize>,
        dst: NodeId,
        usable: impl Fn(VcIndex) -> bool,
        credits: impl Fn(VcIndex) -> u32,
    ) -> Option<VcIndex> {
        match self {
            VaPolicy::Static => {
                let vc = VcIndex::new(range.start + dst.index() % range.len());
                usable(vc).then_some(vc)
            }
            VaPolicy::Dynamic => range
                .map(VcIndex::new)
                .filter(|&v| usable(v))
                .max_by_key(|&v| credits(v)),
        }
    }
}

impl fmt::Display for VaPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VaPolicy::Dynamic => write!(f, "Dynamic VA"),
            VaPolicy::Static => write!(f, "Static VA"),
        }
    }
}

/// Partition of a port's VCs into deadlock classes.
///
/// Class `c` owns the contiguous VC range
/// `[c * vcs_per_class, (c + 1) * vcs_per_class)`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct VcPartition {
    num_classes: u8,
    vcs_per_class: u8,
}

impl VcPartition {
    /// Splits `total_vcs` into `num_classes` equal classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero or does not divide `total_vcs`.
    pub fn new(total_vcs: u8, num_classes: u8) -> Self {
        assert!(num_classes > 0, "need at least one VC class");
        assert!(
            total_vcs.is_multiple_of(num_classes) && total_vcs > 0,
            "{total_vcs} VCs cannot be split into {num_classes} equal classes"
        );
        Self {
            num_classes,
            vcs_per_class: total_vcs / num_classes,
        }
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> u8 {
        self.num_classes
    }

    /// Number of VCs per class.
    #[inline]
    pub fn vcs_per_class(&self) -> u8 {
        self.vcs_per_class
    }

    /// The VC range `[start, end)` owned by `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[inline]
    pub fn class_range(&self, class: u8) -> Range<u8> {
        assert!(class < self.num_classes, "class {class} out of range");
        let start = class * self.vcs_per_class;
        start..start + self.vcs_per_class
    }

    /// The class that owns `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    #[inline]
    pub fn class_of_vc(&self, vc: VcIndex) -> u8 {
        let c = vc.index() as u8 / self.vcs_per_class;
        assert!(c < self.num_classes, "vc {vc} out of range");
        c
    }

    /// The statically-allocated VC for a packet of `class` headed to `dst`
    /// (destination-keyed static VA, §V of the paper).
    #[inline]
    pub fn static_vc(&self, class: u8, dst: NodeId) -> VcIndex {
        let range = self.class_range(class);
        let offset = (dst.index() % self.vcs_per_class as usize) as u8;
        VcIndex::new((range.start + offset) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn o1turn_picks_both_modes() {
        let mut rng = Pcg32::seed_from_u64(11);
        let mut xy = 0;
        let mut yx = 0;
        for _ in 0..1000 {
            if RoutingPolicy::O1Turn.pick_mode(&mut rng) == RouteMode::XY {
                xy += 1;
            } else {
                yx += 1;
            }
        }
        assert!(xy > 400 && yx > 400, "xy={xy} yx={yx}");
    }

    #[test]
    fn fixed_policies_pick_fixed_modes() {
        let mut rng = Pcg32::seed_from_u64(0);
        assert_eq!(RoutingPolicy::Xy.pick_mode(&mut rng), RouteMode::XY);
        assert_eq!(RoutingPolicy::Yx.pick_mode(&mut rng), RouteMode::YX);
    }

    #[test]
    fn route_mode_round_trips_raw_values() {
        assert_eq!(RouteMode::default(), RouteMode::XY);
        assert_eq!(RouteMode::XY.raw(), 0);
        assert_eq!(RouteMode::YX.raw(), 1);
        for raw in 0..=u8::MAX {
            assert_eq!(RouteMode::from_raw(raw).raw(), raw);
        }
    }

    #[test]
    fn class_assignment_matches_policy() {
        assert_eq!(RoutingPolicy::Xy.num_classes(), 1);
        assert_eq!(RoutingPolicy::O1Turn.num_classes(), 2);
        assert_eq!(RoutingPolicy::O1Turn.class_of(RouteMode::XY), 0);
        assert_eq!(RoutingPolicy::O1Turn.class_of(RouteMode::YX), 1);
        assert_eq!(RoutingPolicy::Yx.class_of(RouteMode::YX), 0);
    }

    #[test]
    fn partition_ranges_are_disjoint_and_cover() {
        let p = VcPartition::new(4, 2);
        assert_eq!(p.class_range(0), 0..2);
        assert_eq!(p.class_range(1), 2..4);
        assert_eq!(p.class_of_vc(VcIndex::new(0)), 0);
        assert_eq!(p.class_of_vc(VcIndex::new(3)), 1);
    }

    #[test]
    fn static_vc_is_destination_keyed_and_in_class() {
        let p = VcPartition::new(4, 2);
        for dst in 0..64 {
            for class in 0..2 {
                let vc = p.static_vc(class, NodeId::new(dst));
                assert!(p.class_range(class).contains(&(vc.index() as u8)));
            }
        }
        // Same destination -> same VC (the property static VA relies on).
        assert_eq!(
            p.static_vc(0, NodeId::new(10)),
            p.static_vc(0, NodeId::new(10))
        );
    }

    #[test]
    fn choose_keys_static_by_destination_and_dynamic_by_credits() {
        let credits = [3, 1, 3, 2];
        let credits = |v: VcIndex| credits[v.index()];
        let all = |_| true;
        let dst = NodeId::new(7);
        // Static: 2 + 7 % 2 = 3, whatever the credits say.
        assert_eq!(
            VaPolicy::Static.choose(2..4, dst, all, credits),
            Some(VcIndex::new(3))
        );
        let not_3 = |v: VcIndex| v.index() != 3;
        assert_eq!(VaPolicy::Static.choose(2..4, dst, not_3, credits), None);
        // Dynamic: the most credits; of the tied VCs 0 and 2, the last.
        assert_eq!(
            VaPolicy::Dynamic.choose(0..4, dst, all, credits),
            Some(VcIndex::new(2))
        );
        let not_2 = |v: VcIndex| v.index() != 2;
        assert_eq!(
            VaPolicy::Dynamic.choose(0..4, dst, not_2, credits),
            Some(VcIndex::new(0))
        );
        assert_eq!(
            VaPolicy::Dynamic.choose(0..4, dst, |_| false, credits),
            None
        );
    }

    #[test]
    #[should_panic(expected = "equal classes")]
    fn uneven_partition_panics() {
        let _ = VcPartition::new(5, 2);
    }

    #[test]
    fn displays() {
        assert_eq!(RoutingPolicy::O1Turn.to_string(), "O1TURN");
        assert_eq!(VaPolicy::Static.to_string(), "Static VA");
    }
}
