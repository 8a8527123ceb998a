//! Property-based tests for the typed kernel's determinism and ordering
//! invariants.

use pimsim_event::{EventCtx, Kernel, SimTime, World};
use proptest::prelude::*;

/// Records `(time, original_index)` pairs in execution order.
#[derive(Debug, Default)]
struct Recorder(Vec<(u64, usize)>);

impl World for Recorder {
    type Event = (u64, usize);
    fn handle(&mut self, ev: (u64, usize), _: &mut EventCtx<(u64, usize)>) {
        self.0.push(ev);
    }
}

/// Run a batch of typed events scheduled at arbitrary times and record the
/// (time, original_index) pairs in execution order.
fn execute(times: &[u64]) -> Vec<(u64, usize)> {
    let mut k = Kernel::new(Recorder::default());
    for (i, &t) in times.iter().enumerate() {
        k.schedule_at(SimTime::from_ps(t), (t, i));
    }
    k.run();
    k.into_world().0
}

/// A world that hops `remaining` more times, `step` picoseconds apart.
#[derive(Debug, Default)]
struct Hopper(usize);

#[derive(Debug, Clone, Copy)]
struct Hop {
    remaining: usize,
    step: u64,
}

impl World for Hopper {
    type Event = Hop;
    fn handle(&mut self, ev: Hop, ctx: &mut EventCtx<Hop>) {
        self.0 += 1;
        if ev.remaining > 0 {
            ctx.schedule_in(
                SimTime::from_ps(ev.step),
                Hop {
                    remaining: ev.remaining - 1,
                    step: ev.step,
                },
            );
        }
    }
}

proptest! {
    /// Events always execute in nondecreasing time order, and ties preserve
    /// scheduling order (stable FIFO).
    #[test]
    fn ordering_invariant(times in proptest::collection::vec(0u64..50, 0..200)) {
        let order = execute(&times);
        prop_assert_eq!(order.len(), times.len());
        for pair in order.windows(2) {
            let (t0, i0) = pair[0];
            let (t1, i1) = pair[1];
            prop_assert!(t0 <= t1, "time went backwards");
            if t0 == t1 {
                prop_assert!(i0 < i1, "same-time events reordered");
            }
        }
    }

    /// Two identical schedules produce identical execution orders.
    #[test]
    fn deterministic_replay(times in proptest::collection::vec(0u64..1000, 0..100)) {
        prop_assert_eq!(execute(&times), execute(&times));
    }

    /// Chained events (each schedules the next) cover every hop exactly once.
    #[test]
    fn chained_events_complete(hops in 1usize..50, step in 1u64..100) {
        let mut k = Kernel::new(Hopper::default());
        k.schedule_at(SimTime::ZERO, Hop { remaining: hops - 1, step });
        k.run();
        prop_assert_eq!(k.world().0, hops);
        prop_assert_eq!(k.now(), SimTime::from_ps(step * (hops as u64 - 1)));
    }
}
