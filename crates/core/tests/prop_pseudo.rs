//! Property-based tests: the pseudo-circuit unit maintains its one-circuit-
//! per-port invariants under arbitrary operation sequences, and speculation
//! can only ever restore circuits consistent with the registers.

use noc_base::{PortIndex, VcIndex};
use proptest::prelude::*;
use pseudo_circuit::PseudoCircuitUnit;

#[derive(Clone, Debug)]
enum Op {
    Establish { in_port: u8, vc: u8, out_port: u8 },
    Terminate { in_port: u8 },
    Restore { out_port: u8 },
}

fn op_strategy(ports: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ports, 0u8..4, 0..ports).prop_map(|(in_port, vc, out_port)| Op::Establish {
            in_port,
            vc,
            out_port
        }),
        (0..ports).prop_map(|in_port| Op::Terminate { in_port }),
        (0..ports).prop_map(|out_port| Op::Restore { out_port }),
    ]
}

proptest! {
    #[test]
    fn invariants_hold_under_arbitrary_operations(
        ports in 2u8..8,
        ops in prop::collection::vec(op_strategy(8), 1..200),
    ) {
        let mut unit = PseudoCircuitUnit::new(ports as usize, ports as usize);
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    let in_port = in_port % ports;
                    let out_port = out_port % ports;
                    unit.establish(
                        PortIndex::new(in_port as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new(out_port as usize),
                        1,
                    );
                    // The established circuit is live and holds its output.
                    let live = unit.live(PortIndex::new(in_port as usize));
                    prop_assert!(live.is_some());
                    prop_assert_eq!(
                        unit.holder(PortIndex::new(out_port as usize)),
                        Some(PortIndex::new(in_port as usize))
                    );
                }
                Op::Terminate { in_port } => {
                    unit.terminate(PortIndex::new((in_port % ports) as usize));
                }
                Op::Restore { out_port } => {
                    let port = PortIndex::new((out_port % ports) as usize);
                    let before_history = unit.history(port);
                    let restored = unit.try_restore(port);
                    if restored {
                        // Restoration reconnects exactly the history input.
                        let h = before_history.expect("restore requires history");
                        let live = unit.live(h).expect("restored circuit is live");
                        prop_assert_eq!(live.out_port, port);
                        prop_assert_eq!(unit.holder(port), Some(h));
                    }
                }
            }
            if let Err(e) = unit.check_invariants() {
                prop_assert!(false, "invariant violated: {e}");
            }
        }
    }

    /// The restorable mask `speculate` iterates is maintained incrementally;
    /// here it is recomputed from the records after every operation, and
    /// `try_restore` (which reads only the mask) must succeed exactly on
    /// the outputs the predicate names. Unequal port counts, so stale
    /// registers and history entries index the two sides differently.
    #[test]
    fn restorable_mask_is_exactly_the_restore_predicate(
        in_ports in 1u8..8,
        out_ports in 1u8..8,
        ops in prop::collection::vec(op_strategy(8), 1..200),
    ) {
        let mut unit = PseudoCircuitUnit::new(in_ports as usize, out_ports as usize);
        let restorable = |unit: &PseudoCircuitUnit, o: usize| {
            let port = PortIndex::new(o);
            unit.holder(port).is_none()
                && unit.history(port).is_some_and(|h| {
                    let reg = unit.registers(h);
                    !reg.valid && reg.out_port == port
                })
        };
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    unit.establish(
                        PortIndex::new((in_port % in_ports) as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new((out_port % out_ports) as usize),
                        1,
                    );
                }
                Op::Terminate { in_port } => {
                    unit.terminate(PortIndex::new((in_port % in_ports) as usize));
                }
                Op::Restore { out_port } => {
                    let o = (out_port % out_ports) as usize;
                    let expected = restorable(&unit, o);
                    prop_assert_eq!(unit.try_restore(PortIndex::new(o)), expected);
                }
            }
            for o in 0..out_ports as usize {
                prop_assert_eq!(
                    unit.restorable_mask().get(o),
                    restorable(&unit, o),
                    "output {} after {:?}",
                    o,
                    op
                );
            }
        }
    }

    /// Every termination is reported exactly once, by whichever call made
    /// it — `terminate` on a live circuit, or `establish` through its
    /// outcome — which is what lets the router count terminations where they
    /// happen: the live circuits are always the creations and restores so
    /// far minus those terminations.
    #[test]
    fn terminations_are_reported_once_by_the_call_that_makes_them(
        ops in prop::collection::vec(op_strategy(4), 1..100),
    ) {
        let mut unit = PseudoCircuitUnit::new(4, 4);
        let (mut opened, mut terminated) = (0i64, 0i64);
        for op in ops {
            match op {
                Op::Establish { in_port, vc, out_port } => {
                    let outcome = unit.establish(
                        PortIndex::new((in_port % 4) as usize),
                        VcIndex::new(vc as usize),
                        PortIndex::new((out_port % 4) as usize),
                        1,
                    );
                    opened += i64::from(outcome.created);
                    terminated += outcome.terminated.iter().flatten().count() as i64;
                }
                Op::Terminate { in_port } => {
                    let port = PortIndex::new((in_port % 4) as usize);
                    terminated += i64::from(unit.live(port).is_some());
                    unit.terminate(port);
                }
                Op::Restore { out_port } => {
                    opened += i64::from(unit.try_restore(PortIndex::new((out_port % 4) as usize)));
                }
            }
            let live = (0..4).filter(|&i| unit.live(PortIndex::new(i)).is_some()).count();
            prop_assert_eq!(live as i64, opened - terminated);
        }
    }
}
