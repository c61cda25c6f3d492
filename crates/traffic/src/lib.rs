#![warn(missing_docs)]

//! Traffic models for the pseudo-circuit NoC simulator.
//!
//! Three families of workload drive the paper's evaluation:
//!
//! - [`synthetic`] — open-loop synthetic patterns (uniform random, bit
//!   complement, bit permutation/transpose, plus tornado / neighbor / hotspot
//!   extensions) injected at a configurable offered load (paper §VI.B);
//! - [`cmp`] — a closed-loop CMP cache-coherence workload model standing in
//!   for the paper's Simics traces (see DESIGN.md §5): out-of-order core
//!   proxies with 4 MSHRs each (self-throttling, Kroft ISCA 1981),
//!   address-interleaved shared L2 banks, and a write-through /
//!   write-invalidate directory protocol generating 1-flit address packets
//!   and 5-flit data packets;
//! - [`trace`] — record/replay of packet traces, mirroring the paper's
//!   trace-driven methodology.
//!
//! All models implement [`TrafficModel`]: once per cycle the simulator asks
//! the model to [`generate`](TrafficModel::generate) packet requests, and
//! notifies it of every packet [`deliver`](TrafficModel::deliver)ed so
//! closed-loop models can progress their transactions.

pub mod cmp;
pub mod profiles;
pub mod synthetic;
pub mod trace;

pub use cmp::{CmpLayout, CmpStats, CmpTraffic, NoFloorplan, NodeRole};
pub use profiles::BenchmarkProfile;
pub use synthetic::{SyntheticPattern, SyntheticTraffic};
pub use trace::{read_trace, write_trace, TraceError, TraceRecord, TraceRecorder, TraceReplay};

use noc_base::{NodeId, PacketClass, PacketId};

/// A request to inject one packet, produced by a traffic model.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PacketRequest {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Length in flits (≥ 1).
    pub len: u16,
    /// Semantic class (statistics and closed-loop bookkeeping).
    pub class: PacketClass,
}

/// A packet that completed delivery, reported back to the traffic model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeliveredPacket {
    /// The packet's identifier.
    pub id: PacketId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Length in flits.
    pub len: u16,
    /// Semantic class.
    pub class: PacketClass,
    /// Cycle the packet entered the source queue.
    pub injected_at: u64,
    /// Cycle the tail flit was ejected at the destination.
    pub delivered_at: u64,
}

/// A workload: a stream of packet injection requests, optionally reacting to
/// deliveries (closed-loop models).
pub trait TrafficModel: Send {
    /// Short human-readable name (e.g. `"uniform@0.30"` or `"fma3d"`).
    fn name(&self) -> &str;

    /// Produces this cycle's injection requests through `sink`.
    ///
    /// Called with non-decreasing `cycle` values. The simulator calls this
    /// once per simulated cycle, except that it may skip cycles the model
    /// itself declared empty via
    /// [`next_injection_cycle`](Self::next_injection_cycle) — a model that
    /// never returns `Some` from that query is called exactly once per cycle.
    fn generate(&mut self, cycle: u64, sink: &mut dyn FnMut(PacketRequest));

    /// Fast-forward query: the earliest cycle in `[from, horizon]` at which
    /// this model may emit an injection request.
    ///
    /// Returning `Some(t)` is a guarantee that [`generate`](Self::generate)
    /// emits nothing for any cycle in `[from, t)`, which lets the simulator
    /// skip those cycles entirely (their `generate` calls included) when the
    /// network is otherwise quiescent. `Some(horizon)` means "nothing before
    /// the horizon". `t == from` means an injection is due immediately.
    ///
    /// The default `None` opts out: the model cannot predict its own future
    /// (e.g. closed-loop models whose next injection depends on deliveries),
    /// and the simulator must call `generate` every cycle.
    ///
    /// Implementations that consume randomness to answer (RNG lookahead)
    /// must buffer the drawn requests and replay them from `generate`, so
    /// the emitted request stream is identical whether or not this query is
    /// ever called.
    fn next_injection_cycle(&mut self, from: u64, horizon: u64) -> Option<u64> {
        let _ = (from, horizon);
        None
    }

    /// Notifies the model that a packet finished delivery (tail ejected).
    fn deliver(&mut self, cycle: u64, packet: &DeliveredPacket) {
        let _ = (cycle, packet);
    }

    /// Whether the model still holds internal future work (in-flight
    /// transactions or scheduled responses). Open-loop models return `false`.
    fn has_pending_work(&self) -> bool {
        false
    }

    /// Downcasting hook so callers can recover model-specific statistics
    /// after a simulation run (e.g. [`CmpTraffic::stats`]). Models opt in by
    /// returning `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;
    impl TrafficModel for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn generate(&mut self, _cycle: u64, _sink: &mut dyn FnMut(PacketRequest)) {}
    }

    #[test]
    fn default_trait_methods_are_inert() {
        let mut model = Null;
        assert!(!model.has_pending_work());
        assert_eq!(model.next_injection_cycle(0, 100), None);
        let pkt = DeliveredPacket {
            id: PacketId::new(1),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            len: 1,
            class: PacketClass::Data,
            injected_at: 0,
            delivered_at: 5,
        };
        model.deliver(5, &pkt); // must not panic
        assert_eq!(model.name(), "null");
    }
}
