//! "The replay streams" as a test: peak live heap bytes of `serve()` are
//! tracked, and ten times the horizon may add only what the report is
//! computed from — one `u64` latency per finished request and one 8-byte
//! queue-depth word per event instant — plus a constant.
//!
//! Before the replay streamed it also held every request (24 B), and an
//! event-heap slot for each (2 × 32 B), for the whole run: about 88 B per
//! request more than this test allows. Before the depth trace was packed
//! it held a 16-byte `(time, depth)` pair per instant in a push-grown
//! `Vec`, up to twice that while the `Vec` doubled.
//!
//! This file holds a single test on purpose: the counters are
//! process-wide, and a second test running on another thread would
//! pollute them (the same pattern as `tests/json_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pimsim_arch::ArchConfig;
use pimsim_event::SimTime;
use pimsim_serve::{serve, ServeConfig, ServeReport};

struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is relaxed counter arithmetic, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Runs `serve` over `requests` expected arrivals; returns the report and
/// the most bytes that were live at once above what was live going in.
fn serve_peak(requests: u64) -> (ServeReport, usize) {
    let mut config = ServeConfig::new(vec![("tiny_mlp".to_string(), 64)]);
    config.arch = ArchConfig::small_test();
    config.rate_rps = 100_000.0;
    config.duration = SimTime::from_us(requests * 10);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = serve(&config, 1).unwrap();
    (report, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn ten_times_the_horizon_adds_only_latencies_and_depth_samples() {
    let (short, short_peak) = serve_peak(40_000);
    let (long, long_peak) = serve_peak(400_000);
    assert!(long.generated > 9 * short.generated);
    assert!(long.finished > 300_000);

    // The latencies are a push-grown `Vec`, which holds its length
    // rounded up to a power of two. The depth trace is 8 B per instant in
    // fixed 512 KiB chunks, the last one allocated whole. Event instants
    // are not reported, so bound them: an arrival, a completion per batch,
    // and at most one wake-up for each of those.
    let batches: u64 = long.per_network.iter().map(|n| n.batches).sum();
    let instants = 2 * (long.generated + batches);
    let allowed = 8 * long.finished.next_power_of_two() + 8 * instants + (512 << 10);
    assert!(
        long_peak as u64 <= short_peak as u64 + allowed + (64 << 10),
        "peak {long_peak} B at 10x the horizon, {short_peak} B at 1x: more than \
         8 B x {} finished (doubled) + 8 B x {instants} instants + one chunk \
         ({allowed} B) was added",
        long.finished,
    );
}
