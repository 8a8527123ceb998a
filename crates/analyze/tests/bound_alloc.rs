//! What `bounds` allocates does not depend on how far out a program
//! addresses memory: the hazard map is sized by a core's accesses, never
//! by the addresses they reach. The program is check-clean with a core
//! addressing local element one billion, on a chip whose local memory
//! holds 1,073,741,568 elements; a structure indexed by address (even one
//! bit per element) would cost over a hundred megabytes there.
//!
//! This file holds a single test on purpose: the counter is process-wide,
//! and a second test running on another thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pimsim_analyze::bounds;
use pimsim_arch::ArchConfig;
use pimsim_isa::{asm, IsaError, Program};

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

/// Core 0 adds two vectors at local element `base` and sends the sum to
/// core 1, so both the forward pass and the pricing walk across cores run.
fn far_program(base: u32) -> Result<Program, IsaError> {
    let text = format!(
        ".core 0\n\
         li r1, {base}\n\
         vadd [r1+0], [r1+64], [r0+0], 8\n\
         send core1, [r1+0], 8, tag=1\n\
         halt\n\
         .core 1\n\
         recv core0, [r0+0], 8, tag=1\n\
         halt\n"
    );
    asm::assemble(&text)
}

/// Bytes requested from the allocator by one `bounds` call.
fn bytes_of_bounds(arch: &ArchConfig, program: &Program) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    let report = bounds(program, arch);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert!(report.complete, "the whole analysis ran");
    assert_eq!(report.bound_source, "critical-path");
    bytes
}

#[test]
fn bounds_allocation_does_not_grow_with_the_address_reached() -> Result<(), IsaError> {
    let mut arch = ArchConfig::paper_default();
    arch.resources.local_mem_kb = 4_194_303;
    let (near, far) = (far_program(1_000)?, far_program(1_000_000_000)?);
    // Warm whatever the first call of a process sets up lazily.
    bytes_of_bounds(&arch, &near);
    let (bytes_near, bytes_far) = (bytes_of_bounds(&arch, &near), bytes_of_bounds(&arch, &far));
    assert!(
        bytes_far <= bytes_near + 1024,
        "bounds allocated {bytes_far} bytes at element 1e9 but {bytes_near} at element 1e3"
    );
    Ok(())
}
