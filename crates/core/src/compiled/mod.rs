//! The compiled scheduler: a Placer-style fast path for static regions.
//!
//! Event-driven simulation pays hazard bookkeeping, a cost lookup, and a
//! scheduling decision per event, even though most of a compiled
//! network's per-core trace is straight-line code whose timing is fully
//! determined at the first visit. This module splits each core's program
//! into *contention-free regions* (cut at transfers and branches),
//! compiles each region once by recording a scratch run of the real
//! machine code ([`region`]), and thereafter replays the recorded
//! schedule ([`replay`]) — falling back to the live event kernel at
//! region boundaries, where cores interact through the NoC or shared
//! memory.
//!
//! Because compiled slots are kernel events at the same `(time, seq)`
//! positions as the events they replace, applying the exact mutations
//! those events performed (down to `f64` addend order), a compiled run's
//! report is byte-identical to the event engine's. Regions are memoized
//! by window content, registers, and group shapes, so mirrored cores
//! compile once and replay everywhere — and a [`ScheduleCache`] carries
//! the memo across runs, so repeated simulation of the same program
//! (benchmark loops, batched sweeps) pays each region's compile cost
//! once, Placer-style, instead of once per run.

mod region;
mod replay;

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use pimsim_arch::ArchConfig;
use pimsim_event::{Kernel, SimTime};

use crate::machine::{Engine, EngineInput, EngineOutput, MachineEvent};
use region::{Region, RegionKey};
use replay::HybridWorld;

/// The compiled engine's region memo: `None` entries record failed
/// compiles so those sites fall back natively without re-running the
/// scratch machine.
pub(crate) type RegionMemo = HashMap<RegionKey, Option<Rc<Region>>>;

/// A compiled-region store that outlives a single run.
///
/// Without one, the [`CompiledEngine`] memoizes regions per run: a
/// straight-line program compiles every region exactly once and then
/// never reuses it, so the scratch-recording cost is pure overhead. A
/// cache handed to [`Simulator::with_schedule_cache`](crate::Simulator::with_schedule_cache)
/// persists the memo across runs of the same configuration — the first
/// run compiles, every later run replays.
///
/// Region schedules depend on the architecture, so the cache binds to
/// the [`ArchConfig`] of its first run and is bypassed (not poisoned,
/// not shared) for runs under any other config. Runs with a custom
/// [`TimingModel`](crate::TimingModel) bypass caches entirely — timing
/// models have no comparable identity, and replaying a schedule recorded
/// under different costs would silently corrupt results.
#[derive(Default)]
pub struct ScheduleCache {
    state: RefCell<Option<CacheState>>,
}

struct CacheState {
    arch: ArchConfig,
    memo: RegionMemo,
}

impl ScheduleCache {
    /// Takes the memo out for a run under `arch`. Binds the cache on
    /// first use; returns `None` (run with a fresh private memo) when the
    /// cache is bound to a different config.
    pub(crate) fn checkout(&self, arch: &ArchConfig) -> Option<RegionMemo> {
        let mut state = self.state.borrow_mut();
        match state.as_mut() {
            None => {
                *state = Some(CacheState {
                    arch: arch.clone(),
                    memo: RegionMemo::new(),
                });
                Some(RegionMemo::new())
            }
            Some(s) if s.arch == *arch => Some(std::mem::take(&mut s.memo)),
            Some(_) => None,
        }
    }

    /// Returns a checked-out memo after the run.
    pub(crate) fn checkin(&self, memo: RegionMemo) {
        if let Some(s) = self.state.borrow_mut().as_mut() {
            s.memo = memo;
        }
    }

    /// Number of memoized region entries (compiled plus failed-compile
    /// markers) — observability for tests and benches.
    pub fn len(&self) -> usize {
        self.state.borrow().as_ref().map_or(0, |s| s.memo.len())
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for ScheduleCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduleCache")
            .field("regions", &self.len())
            .finish()
    }
}

/// The compiled engine: pre-places per-core schedules for static regions
/// and falls back to live event handling at region boundaries. Output is
/// byte-identical to [`EventEngine`](crate::machine::EventEngine);
/// select it when simulating contention-light workloads repeatedly.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompiledEngine;

impl Engine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }

    fn drive<'a>(&self, input: EngineInput<'a>) -> EngineOutput<'a> {
        let EngineInput {
            machine,
            horizon,
            cache,
        } = input;
        let checked_out = cache.and_then(|c| c.checkout(machine.cfg));
        let from_cache = checked_out.is_some();
        let memo = checked_out.unwrap_or_default();
        let n_cores = machine.cores.len();
        let mut kernel = Kernel::new(HybridWorld::new(machine, memo));
        for c in 0..n_cores {
            if !kernel.world().machine().cores[c].halted {
                kernel.schedule_at(SimTime::ZERO, MachineEvent::Advance { core: c });
            }
        }
        let result = kernel.run_until(horizon);
        let events = kernel.stats().executed;
        let (machine, schedule, memo) = kernel.into_world().into_parts();
        if from_cache {
            if let Some(cache) = cache {
                cache.checkin(memo);
            }
        }
        EngineOutput {
            machine,
            result,
            events,
            schedule,
        }
    }
}
