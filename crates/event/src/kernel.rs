//! The typed event queue and dispatch loop.
//!
//! Events are plain values of the world's [`World::Event`] type, stored
//! inline in the priority queue — scheduling allocates nothing per event
//! (the queue and the pending buffer amortize like any `Vec`).

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

use crate::SimTime;

/// A simulated world: the state mutated by events, plus the dispatch
/// function that interprets them.
///
/// The kernel owns the world and hands every popped event to
/// [`World::handle`] together with an [`EventCtx`] for scheduling
/// follow-ups. Because events are data — not closures capturing `&mut`
/// state — handlers are statically alias-free and the queue never boxes.
///
/// ```rust
/// use pimsim_event::{EventCtx, Kernel, SimTime, World};
///
/// struct Counter(u64);
/// enum Tick {
///     Once,
///     Chain { left: u64 },
/// }
///
/// impl World for Counter {
///     type Event = Tick;
///     fn handle(&mut self, ev: Tick, ctx: &mut EventCtx<Tick>) {
///         self.0 += 1;
///         if let Tick::Chain { left } = ev {
///             if left > 0 {
///                 ctx.schedule_in(SimTime::from_ns(1), Tick::Chain { left: left - 1 });
///             }
///         }
///     }
/// }
///
/// let mut k = Kernel::new(Counter(0));
/// k.schedule_at(SimTime::ZERO, Tick::Once);
/// k.schedule_at(SimTime::from_ns(5), Tick::Chain { left: 2 });
/// k.run();
/// assert_eq!(k.world().0, 4);
/// assert_eq!(k.now(), SimTime::from_ns(7));
/// ```
pub trait World {
    /// The vocabulary of events this world responds to.
    type Event;

    /// Executes one event at time `ctx.now()`.
    fn handle(&mut self, ev: Self::Event, ctx: &mut EventCtx<Self::Event>);
}

/// A scheduled event, stored inline (no boxing).
struct Scheduled<E> {
    /// `!(time << 64 | seq)`: the `(time, seq)` order — `seq` is the
    /// monotone schedule counter, so same-time events run FIFO — as one
    /// integer, inverted so the max-heap pops the earliest first.
    key: u128,
    /// `None` only for the queue's top while its handler runs.
    ev: Option<E>,
}

impl<E> Scheduled<E> {
    fn new(time: SimTime, seq: u64, ev: E) -> Self {
        let key = !((u128::from(time.as_ps()) << 64) | u128::from(seq));
        Scheduled { key, ev: Some(ev) }
    }

    fn time(&self) -> SimTime {
        // The high half of `!key` is the timestamp; truncation keeps it.
        SimTime::from_ps((!self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Context handed to every event handler, used to schedule follow-up events
/// and to stop the simulation.
///
/// New events land in an index-ordered pending buffer and are merged into
/// the kernel queue after the handler returns — in buffer order, so
/// same-time follow-ups keep their scheduling order (deterministic FIFO)
/// and handlers never alias the live queue. The buffer's backing store is
/// owned by the kernel and reused across events, so steady-state
/// scheduling performs no allocation.
pub struct EventCtx<E> {
    now: SimTime,
    buffered: Vec<(SimTime, E)>,
    stop: bool,
}

impl<E> EventCtx<E> {
    /// The current simulation time (the timestamp of the running event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: simulated causality
    /// violations are always bugs.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: now={}, at={}",
            self.now,
            at
        );
        self.buffered.push((at, ev));
    }

    /// Schedules `ev` after a relative `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, ev: E) {
        let at = self.now + delay;
        self.buffered.push((at, ev));
    }

    /// Requests that the kernel stop after the current event completes.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// Counters describing what a [`Kernel`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Events dispatched.
    pub executed: u64,
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// The event queue drained completely.
    Exhausted,
    /// An event handler called [`EventCtx::stop`].
    Stopped,
    /// `run_until` reached its horizon with events still pending.
    Horizon,
}

/// A deterministic discrete-event simulation kernel that owns a simulated
/// [`World`] and a time-ordered queue of its typed events.
///
/// Determinism guarantee: events execute in nondecreasing time order, and
/// events with equal timestamps execute in the exact order they were
/// scheduled, regardless of heap internals.
///
/// ```rust
/// use pimsim_event::{EventCtx, Kernel, SimTime, World};
///
/// struct Log(Vec<u32>);
/// impl World for Log {
///     type Event = u32;
///     fn handle(&mut self, ev: u32, _: &mut EventCtx<u32>) {
///         self.0.push(ev);
///     }
/// }
/// let mut k = Kernel::new(Log(Vec::new()));
/// k.schedule_at(SimTime::from_ns(2), 2);
/// k.schedule_at(SimTime::from_ns(1), 1);
/// k.run();
/// assert_eq!(k.world().0, [1, 2]);
/// ```
pub struct Kernel<W: World> {
    world: W,
    queue: BinaryHeap<Scheduled<W::Event>>,
    now: SimTime,
    seq: u64,
    stats: KernelStats,
    stop_requested: bool,
    /// Reusable backing store for the [`EventCtx`] pending buffer.
    scratch: Vec<(SimTime, W::Event)>,
}

impl<W: World + fmt::Debug> fmt::Debug for Kernel<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .field("world", &self.world)
            .finish()
    }
}

impl<W: World> Kernel<W> {
    /// Creates a kernel at time zero owning `world`.
    pub fn new(world: W) -> Self {
        Kernel {
            world,
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: KernelStats::default(),
            stop_requested: false,
            scratch: Vec::new(),
        }
    }

    /// The current simulation time (timestamp of the last executed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the kernel, returning the final world state.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Counters of what the kernel has done.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek().map(Scheduled::time)
    }

    fn push(&mut self, time: SimTime, ev: W::Event) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled::new(time, seq, ev));
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Event) {
        assert!(
            at >= self.now,
            "event scheduled in the past: now={}, at={}",
            self.now,
            at
        );
        self.push(at, ev);
    }

    /// Schedules `ev` after a relative `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimTime, ev: W::Event) {
        let at = self.now + delay;
        self.push(at, ev);
    }

    /// Executes the single earliest pending event. Returns `false` if the
    /// queue was empty (time does not advance), `true` otherwise.
    // Inlined into the run loops, the handler fuses with the queue work:
    // about 2 ns of the bare kernel's ~15 ns per event.
    #[inline]
    pub fn step(&mut self) -> bool {
        let Some(mut top) = self.queue.peek_mut() else {
            return false;
        };
        // Cannot fire: `schedule_at` refuses past times and `schedule_in`'s
        // `now + delay` panics on overflow in the debug builds that check this.
        debug_assert!(
            top.time() >= self.now,
            "heap yielded an event from the past"
        );
        self.now = top.time();
        self.stats.executed += 1;
        let ev = top
            .ev
            .take()
            .expect("only a running event lacks its payload");
        let mut ctx = EventCtx {
            now: self.now,
            buffered: std::mem::take(&mut self.scratch),
            stop: false,
        };
        self.world.handle(ev, &mut ctx);
        let EventCtx {
            mut buffered, stop, ..
        } = ctx;
        // Merge in index order so same-time follow-ups stay FIFO. The first
        // takes over the finished event's slot: one sift from the top in
        // place of a pop and a push. Keys are unique, so the queue yields
        // the same order either way.
        let mut follow_ups = buffered.drain(..);
        if let Some((t, e)) = follow_ups.next() {
            *top = Scheduled::new(t, self.seq, e);
            self.seq += 1;
            drop(top);
        } else {
            PeekMut::pop(top);
        }
        for (t, e) in follow_ups {
            self.push(t, e);
        }
        self.scratch = buffered;
        if stop {
            self.stop_requested = true;
        }
        true
    }

    /// Runs until the queue is empty or an event requests a stop.
    pub fn run(&mut self) -> RunResult {
        loop {
            if !self.step() {
                return RunResult::Exhausted;
            }
            if self.take_stop() {
                return RunResult::Stopped;
            }
        }
    }

    /// Runs events with timestamps `<= horizon`, then advances the clock to
    /// `horizon` if it is beyond the last executed event. Pending later
    /// events stay queued.
    pub fn run_until(&mut self, horizon: SimTime) -> RunResult {
        loop {
            match self.peek_next_time() {
                Some(t) if t <= horizon => {
                    self.step();
                    if self.take_stop() {
                        return RunResult::Stopped;
                    }
                }
                Some(_) => {
                    self.now = self.now.max(horizon);
                    return RunResult::Horizon;
                }
                None => {
                    self.now = self.now.max(horizon);
                    return RunResult::Exhausted;
                }
            }
        }
    }

    fn take_stop(&mut self) -> bool {
        std::mem::take(&mut self.stop_requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records event payloads in execution order.
    #[derive(Debug, Default)]
    struct Log(Vec<u32>);

    impl World for Log {
        type Event = u32;
        fn handle(&mut self, ev: u32, _: &mut EventCtx<u32>) {
            self.0.push(ev);
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut k = Kernel::new(Log::default());
        k.schedule_at(SimTime::from_ns(3), 3);
        k.schedule_at(SimTime::from_ns(1), 1);
        k.schedule_at(SimTime::from_ns(2), 2);
        assert_eq!(k.run(), RunResult::Exhausted);
        assert_eq!(k.world().0, [1, 2, 3]);
        assert_eq!(k.now(), SimTime::from_ns(3));
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut k = Kernel::new(Log::default());
        for i in 0..100 {
            k.schedule_at(SimTime::from_ns(5), i);
        }
        k.run();
        assert_eq!(k.world().0, (0..100).collect::<Vec<_>>());
    }

    /// A world whose events schedule follow-up events.
    #[derive(Debug, Default)]
    struct Chained(u64);

    #[derive(Debug)]
    enum ChainEv {
        First,
        Second,
        Third,
    }

    impl World for Chained {
        type Event = ChainEv;
        fn handle(&mut self, ev: ChainEv, ctx: &mut EventCtx<ChainEv>) {
            match ev {
                ChainEv::First => {
                    self.0 += 1;
                    ctx.schedule_in(SimTime::from_ns(2), ChainEv::Second);
                }
                ChainEv::Second => {
                    self.0 += 10;
                    ctx.schedule_in(SimTime::ZERO, ChainEv::Third);
                }
                ChainEv::Third => self.0 += 100,
            }
        }
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut k = Kernel::new(Chained::default());
        k.schedule_at(SimTime::from_ns(1), ChainEv::First);
        k.run();
        assert_eq!(k.world().0, 111);
        assert_eq!(k.now(), SimTime::from_ns(3));
    }

    /// Pushes its event; `Stop` also halts the run loop.
    #[derive(Debug, Default)]
    struct Stopper(Vec<u32>);

    impl World for Stopper {
        type Event = (u32, bool);
        fn handle(&mut self, (v, stop): (u32, bool), ctx: &mut EventCtx<(u32, bool)>) {
            self.0.push(v);
            if stop {
                ctx.stop();
            }
        }
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        let mut k = Kernel::new(Log::default());
        for ns in [1u64, 2, 8] {
            k.schedule_at(SimTime::from_ns(ns), ns as u32);
        }
        let r = k.run_until(SimTime::from_ns(4));
        assert_eq!(r, RunResult::Horizon);
        assert_eq!(k.world().0, [1, 2]);
        assert_eq!(k.now(), SimTime::from_ns(4));
        assert_eq!(k.pending(), 1);
        assert_eq!(k.run_until(SimTime::from_ns(100)), RunResult::Exhausted);
        assert_eq!(k.now(), SimTime::from_ns(100));
    }

    #[test]
    fn stop_halts_run() {
        let mut k = Kernel::new(Stopper::default());
        k.schedule_at(SimTime::from_ns(1), (1, false));
        k.schedule_at(SimTime::from_ns(2), (2, true));
        k.schedule_at(SimTime::from_ns(3), (3, false));
        assert_eq!(k.run(), RunResult::Stopped);
        assert_eq!(k.world().0, [1, 2]);
        assert_eq!(k.pending(), 1);
        // A subsequent run resumes.
        assert_eq!(k.run(), RunResult::Exhausted);
        assert_eq!(k.world().0, [1, 2, 3]);
    }

    #[test]
    fn stats_track_activity() {
        let mut k = Kernel::new(Chained::default());
        k.schedule_at(SimTime::from_ns(1), ChainEv::First);
        k.schedule_at(SimTime::from_ns(1), ChainEv::Third);
        k.run();
        let s = k.stats();
        assert_eq!(s.executed, 4);
    }

    /// Schedules an event in the past from inside a handler.
    #[derive(Debug)]
    struct Causality;

    impl World for Causality {
        type Event = bool;
        fn handle(&mut self, trigger: bool, ctx: &mut EventCtx<bool>) {
            if trigger {
                ctx.schedule_at(SimTime::from_ns(1), false);
            }
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut k = Kernel::new(Causality);
        k.schedule_at(SimTime::from_ns(5), true);
        k.run();
    }

    #[test]
    fn step_on_empty_queue_is_noop() {
        let mut k = Kernel::new(Log::default());
        assert!(!k.step());
        assert_eq!(k.now(), SimTime::ZERO);
        assert!(k.into_world().0.is_empty());
    }
}
