//! "No tree is built" as a test: heap allocations of program JSON I/O are
//! counted, and must not depend on how many instructions the program has.
//!
//! `Program::from_json` reads each value straight into its field, so it
//! allocates for what the program *owns* — a `Vec` per core, group table
//! and init segment, label strings — plus the amortized doubling of those
//! `Vec`s; an instruction is plain data and costs nothing. `to_json`
//! allocates only when its output buffer grows, and `write_json` keeps one
//! chunk buffer. The old `Value`-tree path
//! paid about ten nodes and a `String` per key for every instruction.
//!
//! This file holds a single test on purpose: the counter is process-wide,
//! and a second test running on another thread would pollute it (the same
//! pattern as `crates/core/tests/alloc_free.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pimsim::nn::zoo;
use pimsim::prelude::*;

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

/// Heap allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn program_json_io_allocates_per_owned_buffer_not_per_instruction() {
    let net = zoo::lenet(64);
    let program = Compiler::new(&ArchConfig::paper_default())
        .functional(false)
        .compile(&net)
        .unwrap()
        .program;
    // The same program with every instruction stream four times as long.
    let mut long = program.clone();
    for core in &mut long.cores {
        for _ in 0..2 {
            core.instrs.extend_from_within(..);
            core.instr_tags.extend_from_within(..);
        }
    }
    assert_eq!(long.total_instructions(), 4 * program.total_instructions());
    assert!(program.total_instructions() > 10_000);

    let (text, write) = allocations(|| program.to_json());
    let (long_text, long_write) = allocations(|| long.to_json());
    // Only the output buffer grows: doubling from empty to tens of
    // megabytes is a few dozen reallocations, four times the bytes two
    // more.
    assert!(write <= 40, "to_json made {write} allocations");
    assert!(
        long_write <= write + 3,
        "to_json: {write} allocations, {long_write} for 4x the instructions"
    );

    // Streaming keeps one chunk buffer, whatever the program's length:
    // the document is never held whole.
    let ((), stream) = allocations(|| program.write_json(std::io::sink()).unwrap());
    let ((), long_stream) = allocations(|| long.write_json(std::io::sink()).unwrap());
    assert!(stream <= 2, "write_json made {stream} allocations");
    assert_eq!(
        long_stream, stream,
        "write_json: {stream} allocations, {long_stream} for 4x the instructions"
    );

    let (back, read) = allocations(|| Program::from_json(&text).unwrap());
    let (long_back, long_read) = allocations(|| Program::from_json(&long_text).unwrap());
    assert_eq!(back, program);
    assert_eq!(long_back, long);
    // What the program owns: per core five containers, per group its
    // crossbar list, per init segment its values, three strings of
    // metadata. Empty containers cost nothing, which pays for the
    // doublings of the long ones.
    let owned: usize = program
        .cores
        .iter()
        .map(|c| 5 + 2 * c.groups.len() + 2 * c.local_init.len() + 2 * c.labels.len())
        .sum::<usize>()
        + 2 * program.global_init.len()
        + 4;
    assert!(
        read <= owned as u64,
        "from_json made {read} allocations for {owned} owned buffers"
    );
    // Four times the instructions: two more doublings of `instrs` and
    // `instr_tags` per core, nothing per instruction.
    let cores = program.cores.len() as u64;
    assert!(
        long_read <= read + 4 * cores,
        "from_json: {read} allocations, {long_read} for 4x the instructions"
    );
}
