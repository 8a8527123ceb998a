//! What one `Simulator::run` costs in memory per static instruction: the
//! machine borrows each core's instruction stream, group table and tags
//! from the program, so a run allocates only its own per-instruction
//! channel stamp (4 bytes) on top of state sized by the chip and by what
//! is in flight, not by the program or the configured ROB size. A run
//! that copied the program would pay its 36-byte instructions again.
//!
//! This file holds a single test on purpose: the counter is process-wide,
//! and a second test running on another thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pimsim_arch::ArchConfig;
use pimsim_core::Simulator;
use pimsim_isa::{asm, Program};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a relaxed counter bump, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A straight-line two-core program of `blocks` five-instruction blocks:
/// core 0 fills, scales and sends a vector, core 1 receives and adds.
/// Each block of both cores ends in `nops` scalar instructions.
fn straight_line(blocks: u32, nops: u32) -> Program {
    let pad = "nop\n".repeat(nops as usize);
    let mut text = String::from(".core 0\n");
    for _ in 0..blocks {
        text.push_str("vfill [r0+0], 3, 16\nvmuli [r0+16], [r0+0], 2, 16\n");
        text.push_str("send core1, [r0+16], 16, tag=1\n");
        text.push_str(&pad);
    }
    text.push_str("halt\n.core 1\n");
    for _ in 0..blocks {
        text.push_str("recv core0, [r0+0], 16, tag=1\nvadd [r0+32], [r0+0], [r0+32], 16\n");
        text.push_str(&pad);
    }
    text.push_str("halt\n");
    asm::assemble(&text).expect("assembles")
}

/// Bytes requested from the allocator by one whole `Simulator::run`.
fn bytes_of_run(arch: &ArchConfig, program: &Program) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    Simulator::new(arch).run(program).expect("runs clean");
    BYTES.load(Ordering::Relaxed) - before
}

/// The bytes of a 500-block run of `straight_line(_, nops)`, and what
/// each static instruction of 2,000 more blocks adds to them.
fn bytes_per_instruction(arch: &ArchConfig, nops: u32) -> (u64, f64) {
    let (short, long) = (straight_line(500, nops), straight_line(2_500, nops));
    let extra_instrs = (long.total_instructions() - short.total_instructions()) as u64;
    // Warm whatever the first run of a process sets up lazily.
    bytes_of_run(arch, &short);
    let (bytes_short, bytes_long) = (bytes_of_run(arch, &short), bytes_of_run(arch, &long));
    let per_instr = bytes_long.saturating_sub(bytes_short) as f64 / extra_instrs as f64;
    (bytes_short, per_instr)
}

#[test]
fn a_run_allocates_at_most_eight_bytes_per_static_instruction() {
    let arch = ArchConfig::small_test().with_functional(false);
    let (_, per_instr) = bytes_per_instruction(&arch, 0);
    assert!(
        per_instr <= 8.0,
        "{per_instr:.1} B per static instruction: a run must not copy the program"
    );

    // A ROB far larger than any run fills: the ring holds what is in
    // flight, never `rob_size` slots. Forty `nop`s a block keep the work
    // draining as fast as it dispatches, so the ROB holds a handful of
    // entries at either size; unpaced, a million-entry ROB would rightly
    // take in the whole program.
    let (paced, huge) = (arch.clone().with_rob(4), arch.with_rob(1_000_000));
    let (bytes_paced, _) = bytes_per_instruction(&paced, 40);
    let (bytes_huge, per_instr) = bytes_per_instruction(&huge, 40);
    assert!(
        per_instr <= 8.0,
        "rob 1000000: {per_instr:.1} B per static instruction"
    );
    assert!(
        bytes_huge <= bytes_paced + 64 * 1024,
        "rob 1000000 costs {bytes_huge} bytes, rob 4 {bytes_paced}: the ring is not sized by \
         what is in flight"
    );
}
