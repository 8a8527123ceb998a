//! The standing contract "hot-path machine state stays allocation-free",
//! tested instead of asserted: a looped MVM / vector / send / recv program
//! must cost the same number of heap allocations whether the loop runs N
//! times or 4N times. Anything that allocates per instruction, per ROB
//! entry, per message or per event shows up as a difference that grows
//! with the iteration count; one-off set-up and amortized buffer growth
//! (event queue, ROB ring, edge pool, channel queues) do not.
//!
//! This file holds a single test on purpose: the counter is process-wide,
//! and a second test running on another thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pimsim_arch::ArchConfig;
use pimsim_core::Simulator;
use pimsim_isa::{asm, Program};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a relaxed counter bump, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Two cores ping-ponging a vector `iterations` times. Core 0's body mixes
/// both execution units with RAW, WAW and WAR hazards and two concurrent
/// MVMs; both cores keep several transfers in one channel's FIFO.
fn looped_program(iterations: u32) -> Program {
    let text = format!(
        r#"
        .core 0
        .group 0 in=16 out=16 xbars=0
        .group 1 in=16 out=16 xbars=1,2
        li r5, {iterations}
    loop0:
        vfill [r0+0], 3, 16
        mvm g0, [r0+100], [r0+0], 16
        mvm g1, [r0+200], [r0+0], 16
        vadd [r0+300], [r0+100], [r0+200], 16
        vrelu [r0+100], [r0+300], 16
        send core1, [r0+100], 16, tag=1
        send core1, [r0+300], 16, tag=1
        recv core1, [r0+0], 16, tag=2
        addi r5, r5, -1
        bne r5, r0, loop0
        halt
        .core 1
        li r5, {iterations}
    loop1:
        recv core0, [r0+0], 16, tag=1
        recv core0, [r0+16], 16, tag=1
        vadd [r0+32], [r0+0], [r0+16], 16
        send core0, [r0+32], 16, tag=2
        addi r5, r5, -1
        bne r5, r0, loop1
        halt
        "#
    );
    asm::assemble(&text).expect("assembles")
}

/// Heap allocations of one whole `Simulator::run`, and its event count.
fn allocations_of_run(arch: &ArchConfig, program: &Program) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = Simulator::new(arch).run(program).expect("runs clean");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, report.events)
}

#[test]
fn steady_state_simulation_does_not_allocate() {
    // Functional runs copy payloads by design; the contract is about the
    // timing machine.
    let arch = ArchConfig::small_test().with_functional(false).with_rob(8);
    assert!(!arch.sim.trace);

    const N: u32 = 200;
    let short = looped_program(N);
    let long = looped_program(4 * N);
    // Warm whatever the first run of a process sets up lazily.
    allocations_of_run(&arch, &short);

    let (allocs_short, events_short) = allocations_of_run(&arch, &short);
    let (allocs_long, events_long) = allocations_of_run(&arch, &long);
    assert!(
        events_long > 3 * events_short,
        "the long run must do ~4x the work ({events_short} vs {events_long} events)"
    );
    // Amortized doubling of a buffer whose peak is the same in both runs
    // happens the same number of times; allow a few for ones that sit
    // right at a capacity edge.
    let extra = allocs_long.abs_diff(allocs_short);
    assert!(
        extra <= 8,
        "{} more events cost {extra} more heap allocations ({allocs_short} vs {allocs_long}): \
         something on the hot path allocates per unit of work",
        events_long - events_short
    );
}
