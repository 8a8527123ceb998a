#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the reproduction's substitute for the SystemC engine used by
//! the PIMSIM-NN paper. It provides exactly the scheduling primitives a
//! cycle-accurate hardware simulator needs:
//!
//! * a simulated clock ([`SimTime`], picosecond resolution),
//! * a priority event queue with **stable same-time ordering** (events
//!   scheduled first run first, like SystemC delta cycles collapsed into a
//!   deterministic FIFO),
//! * **typed, allocation-free events**: the simulated [`World`] declares an
//!   event enum and a `handle` dispatch function; events are stored inline
//!   in the queue, so the hot path never boxes,
//! * a [`Clock`] helper for cycle/time conversion,
//! * [`par_map_indexed`], the thread-count-independent worker pool the
//!   host-side fan-outs (sweep campaigns, serve warm-up) share, and
//!   [`par_map_visiting`], the same pool taking indices in a given
//!   order; and
//! * kernel statistics for debugging and benchmarking.
//!
//! # Example
//!
//! ```rust
//! use pimsim_event::{EventCtx, Kernel, SimTime, World};
//!
//! // The world owns the mutable state and interprets typed events.
//! struct Accumulator(u64);
//!
//! enum Ev {
//!     Add(u64),
//!     AddThenFollowUp(u64),
//! }
//!
//! impl World for Accumulator {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, ctx: &mut EventCtx<Ev>) {
//!         match ev {
//!             Ev::Add(n) => self.0 += n,
//!             Ev::AddThenFollowUp(n) => {
//!                 self.0 += n;
//!                 // Events may schedule follow-up events.
//!                 ctx.schedule_in(SimTime::from_ns(5), Ev::Add(10));
//!             }
//!         }
//!     }
//! }
//!
//! let mut kernel = Kernel::new(Accumulator(0));
//! kernel.schedule_in(SimTime::from_ns(5), Ev::AddThenFollowUp(1));
//! kernel.run();
//! assert_eq!(kernel.world().0, 11);
//! assert_eq!(kernel.now(), SimTime::from_ns(10));
//! ```

mod clock;
mod kernel;
mod par;
mod time;

pub use clock::Clock;
pub use kernel::{EventCtx, Kernel, KernelStats, RunResult, World};
pub use par::{par_map_indexed, par_map_visiting};
pub use time::SimTime;
