//! The pseudo-circuit unit: per-input-port registers, held crossbar
//! connections, and per-output-port history for speculation (paper §III–IV).
//!
//! A *pseudo-circuit* is a crossbar connection left configured after a flit
//! traversal, recorded as `(input VC, output port, drop distance)` in the
//! input port's register. Invariants maintained here:
//!
//! - at most one live pseudo-circuit per input port **and** per output port
//!   (a pseudo-circuit *is* a held crossbar connection);
//! - invalidation clears only the valid bit — the registers retain their
//!   contents so speculation can restore the circuit later (§IV.A);
//! - every output port remembers the input port of its most recently
//!   terminated pseudo-circuit (the speculation history register).

use noc_base::{Mask64, PortIndex, RouteInfo, VcIndex};

/// Why a pseudo-circuit was terminated: the cause the router statistics, the
/// per-port counters and the tracer file a termination under.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Termination {
    /// A switch-arbitration grant claimed one of its ports, or the incoming
    /// flit's route mismatched.
    Conflict,
    /// The downstream router ran out of credits.
    CreditExhausted,
}

/// What an [`PseudoCircuitUnit::establish`] call did, reported so the router
/// can fire per-port observability hooks without a callback.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct EstablishOutcome {
    /// Whether the grant configured a connection that was not already live.
    /// A refresh of the same `(input port, output port)` pair — even with a
    /// new VC — is not a creation.
    pub created: bool,
    /// Circuits terminated by conflict, as `(input port, its output port)`:
    /// slot 0 is the granting input's previous circuit, slot 1 the previous
    /// holder of the granted output port.
    pub terminated: [Option<(PortIndex, PortIndex)>; 2],
}

/// Per-input-port pseudo-circuit registers. Contents persist across
/// invalidation (only `valid` clears).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PcRegisters {
    /// Whether the stored circuit is currently live.
    pub valid: bool,
    /// Input VC the circuit serves.
    pub in_vc: VcIndex,
    /// Output port of the held connection.
    pub out_port: PortIndex,
    /// Drop distance on the output channel (1 for point-to-point links).
    pub hops: u8,
}

impl PcRegisters {
    /// The held connection as a route: output port and drop distance.
    pub fn route(&self) -> RouteInfo {
        RouteInfo {
            port: self.out_port,
            hops: self.hops,
        }
    }

    fn empty() -> Self {
        Self {
            valid: false,
            in_vc: VcIndex::new(0),
            out_port: PortIndex::new(0),
            hops: 1,
        }
    }
}

/// Per-output-port pseudo-circuit state.
#[derive(Copy, Clone, Debug, Default)]
struct OutputRegs {
    /// The input port whose live circuit holds this output's crossbar
    /// connection.
    holder: Option<PortIndex>,
    /// The speculation history register: the input port of the most
    /// recently terminated circuit here.
    history: Option<PortIndex>,
}

/// The registers of input port `p` and the state of output port `p`. The
/// two are unrelated (the port counts need not agree); they share a record so
/// the unit is one allocation — 70 bytes on a 5-port router.
#[derive(Copy, Clone, Debug)]
struct PortRegs {
    input: PcRegisters,
    output: OutputRegs,
}

/// Pseudo-circuit state for one router: one record per port index.
#[derive(Clone, Debug)]
pub struct PseudoCircuitUnit {
    ports: Box<[PortRegs]>,
    in_ports: u8,
    out_ports: u8,
    // One-word summaries of the records, written beside them by
    // `establish` / `terminate` / `try_restore`: input ports whose register
    // is valid, output ports with a holder, output ports `try_restore` would
    // reconnect. The per-cycle scans of the circuit datapath intersect these
    // (with each other and with the kernel's port summaries) instead of
    // walking every port.
    live_mask: Mask64,
    held_mask: Mask64,
    restorable_mask: Mask64,
}

impl PseudoCircuitUnit {
    /// Creates the unit for a router with the given port counts.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds [`Mask64::WIDTH`].
    pub fn new(in_ports: usize, out_ports: usize) -> Self {
        for (count, what) in [(in_ports, "input"), (out_ports, "output")] {
            assert!(
                count <= Mask64::WIDTH,
                "pseudo-circuit unit with {count} {what} ports; \
                 the one-word port masks hold at most {}",
                Mask64::WIDTH
            );
        }
        let port = PortRegs {
            input: PcRegisters::empty(),
            output: OutputRegs::default(),
        };
        Self {
            ports: vec![port; in_ports.max(out_ports)].into(),
            in_ports: in_ports as u8,
            out_ports: out_ports as u8,
            live_mask: Mask64::EMPTY,
            held_mask: Mask64::EMPTY,
            restorable_mask: Mask64::EMPTY,
        }
    }

    /// The registers of an input port (live or stale).
    pub fn registers(&self, in_port: PortIndex) -> PcRegisters {
        debug_assert!(in_port.index() < usize::from(self.in_ports));
        self.ports[in_port.index()].input
    }

    /// The live pseudo-circuit at `in_port`, if any.
    pub fn live(&self, in_port: PortIndex) -> Option<PcRegisters> {
        let r = self.registers(in_port);
        r.valid.then_some(r)
    }

    /// The input port holding `out_port`'s crossbar connection, if any.
    pub fn holder(&self, out_port: PortIndex) -> Option<PortIndex> {
        debug_assert!(out_port.index() < usize::from(self.out_ports));
        self.ports[out_port.index()].output.holder
    }

    /// The speculation history register of `out_port`: the input port of the
    /// most recently terminated pseudo-circuit there.
    pub fn history(&self, out_port: PortIndex) -> Option<PortIndex> {
        debug_assert!(out_port.index() < usize::from(self.out_ports));
        self.ports[out_port.index()].output.history
    }

    /// Input ports with a live pseudo-circuit.
    #[inline]
    pub fn live_mask(&self) -> Mask64 {
        self.live_mask
    }

    /// Output ports whose crossbar connection a live circuit holds.
    #[inline]
    pub fn held_mask(&self) -> Mask64 {
        self.held_mask
    }

    /// Output ports [`try_restore`](Self::try_restore) would reconnect: no
    /// holder, and the history register names an input whose stale
    /// registers still point here.
    #[inline]
    pub fn restorable_mask(&self) -> Mask64 {
        self.restorable_mask
    }

    /// Establishes (or refreshes) the pseudo-circuit for a granted crossbar
    /// connection, terminating any live circuits that conflict on the input
    /// or output port. Returns what happened (conflict terminations, whether
    /// a new connection was created) for observability.
    pub fn establish(
        &mut self,
        in_port: PortIndex,
        in_vc: VcIndex,
        out_port: PortIndex,
        hops: u8,
    ) -> EstablishOutcome {
        let mut outcome = EstablishOutcome::default();
        // Terminate the previous circuit from this input port (if any and
        // different).
        if let Some(prev) = self.live(in_port) {
            if prev.out_port != out_port {
                self.terminate(in_port);
                outcome.terminated[0] = Some((in_port, prev.out_port));
            }
        }
        // Terminate whichever circuit currently holds the output port.
        if let Some(holder) = self.holder(out_port) {
            if holder != in_port {
                self.terminate(holder);
                outcome.terminated[1] = Some((holder, out_port));
            }
        }
        outcome.created = self.holder(out_port) != Some(in_port);
        // A live register restores nothing: the output its stale contents
        // pointed at loses the restore if its history names this input.
        let stale = self.ports[in_port.index()].input.out_port;
        if self.history(stale) == Some(in_port) {
            self.restorable_mask.clear(stale.index());
        }
        self.restorable_mask.clear(out_port.index());
        self.ports[in_port.index()].input = PcRegisters {
            valid: true,
            in_vc,
            out_port,
            hops,
        };
        self.ports[out_port.index()].output.holder = Some(in_port);
        self.live_mask.set(in_port.index());
        self.held_mask.set(out_port.index());
        outcome
    }

    /// Terminates the live pseudo-circuit at `in_port` (no-op when none),
    /// recording it in the output port's history register.
    pub fn terminate(&mut self, in_port: PortIndex) {
        let reg = &mut self.ports[in_port.index()].input;
        if !reg.valid {
            return;
        }
        reg.valid = false;
        let out = reg.out_port;
        let regs = &mut self.ports[out.index()].output;
        debug_assert_eq!(regs.holder, Some(in_port), "hold desync");
        regs.holder = None;
        regs.history = Some(in_port);
        self.live_mask.clear(in_port.index());
        self.held_mask.clear(out.index());
        self.restorable_mask.set(out.index());
    }

    /// Attempts the speculative restoration of `out_port`'s most recent
    /// pseudo-circuit (paper §IV.A). Succeeds only when the output port is
    /// free, the history input port has no live circuit, and its stale
    /// registers still point at this output port. Returns whether a circuit
    /// was restored; the caller is responsible for the downstream-credit
    /// check.
    pub fn try_restore(&mut self, out_port: PortIndex) -> bool {
        if !self.restorable_mask.get(out_port.index()) {
            return false;
        }
        let h = self
            .history(out_port)
            .expect("a restorable output has history");
        self.ports[h.index()].input.valid = true;
        self.ports[out_port.index()].output.holder = Some(h);
        self.live_mask.set(h.index());
        self.held_mask.set(out_port.index());
        self.restorable_mask.clear(out_port.index());
        true
    }

    /// The restore predicate [`restorable_mask`](Self::restorable_mask)
    /// summarizes, evaluated on the records.
    fn restorable(&self, out_port: PortIndex) -> bool {
        self.holder(out_port).is_none()
            && self.history(out_port).is_some_and(|h| {
                let reg = self.registers(h);
                !reg.valid && reg.out_port == out_port
            })
    }

    /// Checks the one-per-port invariants and the three port masks against
    /// the records they summarize; used by debug assertions and property
    /// tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..usize::from(self.in_ports) {
            let reg = self.registers(PortIndex::new(i));
            if reg.valid && self.holder(reg.out_port) != Some(PortIndex::new(i)) {
                return Err(format!("input {i} valid but output not held by it"));
            }
            if self.live_mask.get(i) != reg.valid {
                return Err(format!("stale live_mask bit of input {i}"));
            }
        }
        for o in 0..usize::from(self.out_ports) {
            let h = self.holder(PortIndex::new(o));
            if self.held_mask.get(o) != h.is_some() {
                return Err(format!("stale held_mask bit of output {o}"));
            }
            if self.restorable_mask.get(o) != self.restorable(PortIndex::new(o)) {
                return Err(format!("stale restorable_mask bit of output {o}"));
            }
            if let Some(input) = h {
                let reg = self.registers(input);
                if !reg.valid {
                    return Err(format!("output {o} held by invalid input {input}"));
                }
                if reg.out_port.index() != o {
                    return Err(format!("output {o} holder points elsewhere"));
                }
                // Quadratic duplicate scan instead of a hash set: the port
                // count is tiny, and this runs inside a per-step
                // debug_assert, which must stay allocation-free
                // (tests/zero_alloc.rs counts debug builds too).
                if (0..o).any(|earlier| self.holder(PortIndex::new(earlier)) == h) {
                    return Err(format!("input {input} holds two outputs"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PortIndex {
        PortIndex::new(i)
    }

    fn v(i: usize) -> VcIndex {
        VcIndex::new(i)
    }

    #[test]
    fn establish_creates_a_live_circuit() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(1), v(2), p(3), 1);
        let live = u.live(p(1)).unwrap();
        assert_eq!(live.in_vc, v(2));
        assert_eq!(live.out_port, p(3));
        assert_eq!(u.holder(p(3)), Some(p(1)));
        u.check_invariants().unwrap();
    }

    #[test]
    fn output_conflict_terminates_previous_holder() {
        // Fig. 4(c): a new flit at a different input claims the same output.
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(3), 1);
        let steal = u.establish(p(1), v(1), p(3), 1);
        assert!(u.live(p(0)).is_none(), "previous circuit terminated");
        assert_eq!(u.holder(p(3)), Some(p(1)));
        assert_eq!(steal.terminated, [None, Some((p(0), p(3)))]);
        // Registers persist after invalidation.
        let stale = u.registers(p(0));
        assert!(!stale.valid);
        assert_eq!(stale.out_port, p(3));
        u.check_invariants().unwrap();
    }

    #[test]
    fn input_conflict_terminates_previous_output() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        u.establish(p(0), v(1), p(3), 1);
        assert_eq!(u.holder(p(2)), None);
        assert_eq!(u.holder(p(3)), Some(p(0)));
        assert_eq!(u.live(p(0)).unwrap().in_vc, v(1));
        u.check_invariants().unwrap();
    }

    #[test]
    fn refresh_same_connection_is_not_a_termination() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        let refresh = u.establish(p(0), v(1), p(2), 1); // same ports, new VC
        assert_eq!(refresh.terminated, [None, None]);
        assert_eq!(u.live(p(0)).unwrap().in_vc, v(1));
        u.check_invariants().unwrap();
    }

    #[test]
    fn termination_updates_history() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(2), v(0), p(1), 1);
        u.terminate(p(2));
        assert_eq!(u.history(p(1)), Some(p(2)));
        assert_eq!(u.holder(p(1)), None);
        assert!(u.live(p(2)).is_none());
        u.check_invariants().unwrap();
    }

    #[test]
    fn terminate_without_live_circuit_is_noop() {
        let mut u = PseudoCircuitUnit::new(2, 2);
        u.terminate(p(0));
        assert_eq!(u.history(p(0)), None);
        assert!(!u.restorable_mask().any());
        u.check_invariants().unwrap();
    }

    #[test]
    fn speculation_restores_most_recent_circuit() {
        // Fig. 5(a): the output reconnects to the input it last served.
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(3), p(2), 1);
        u.terminate(p(0));
        assert!(u.try_restore(p(2)));
        let live = u.live(p(0)).unwrap();
        assert_eq!(live.in_vc, v(3), "restored circuit keeps its stored VC");
        assert_eq!(u.holder(p(2)), Some(p(0)));
        u.check_invariants().unwrap();
    }

    #[test]
    fn speculation_respects_conflicts() {
        // Fig. 5(b): restoration only when the history input is free and its
        // registers still point here.
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        u.terminate(p(0));
        // The input has since formed a circuit elsewhere: its registers now
        // point to output 3, so output 2 must not restore.
        u.establish(p(0), v(0), p(3), 1);
        assert!(!u.try_restore(p(2)));
        // A held output never restores.
        assert!(!u.try_restore(p(3)));
        // An output with no history never restores.
        assert!(!u.try_restore(p(1)));
        u.check_invariants().unwrap();
    }

    #[test]
    fn history_tracks_most_recent_termination() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        u.establish(p(0), v(0), p(2), 1);
        u.establish(p(1), v(0), p(2), 1); // terminates p0's circuit
        u.terminate(p(1));
        assert_eq!(u.history(p(2)), Some(p(1)), "most recent wins");
        assert!(u.try_restore(p(2)));
        assert_eq!(u.holder(p(2)), Some(p(1)));
    }

    #[test]
    fn establish_outcome_reports_creations_and_conflicts() {
        let mut u = PseudoCircuitUnit::new(4, 4);
        let first = u.establish(p(0), v(0), p(2), 1);
        assert!(first.created);
        assert_eq!(first.terminated, [None, None]);
        // Same connection, new VC: a refresh, not a creation.
        let refresh = u.establish(p(0), v(1), p(2), 1);
        assert!(!refresh.created);
        assert_eq!(refresh.terminated, [None, None]);
        // A different input claims the output: holder terminated, created.
        let steal = u.establish(p(1), v(0), p(2), 1);
        assert!(steal.created);
        assert_eq!(steal.terminated, [None, Some((p(0), p(2)))]);
        // The thief moves to another output: its own circuit terminated.
        let moved = u.establish(p(1), v(0), p(3), 1);
        assert!(moved.created);
        assert_eq!(moved.terminated, [Some((p(1), p(2))), None]);
        u.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "65 output ports")]
    fn more_ports_than_a_mask_holds_are_rejected() {
        let _ = PseudoCircuitUnit::new(4, 65);
    }

    #[test]
    fn multidrop_hops_are_stored() {
        let mut u = PseudoCircuitUnit::new(2, 2);
        u.establish(p(0), v(0), p(1), 3);
        assert_eq!(u.live(p(0)).unwrap().hops, 3);
    }
}
