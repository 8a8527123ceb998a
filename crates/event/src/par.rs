//! A slot-indexed worker pool whose result never depends on the thread
//! count — what keeps sweep campaigns and serve warm-ups byte-identical at
//! any `--threads`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Evaluates `f(0) .. f(n - 1)` on up to `threads` scoped OS threads and
/// returns the results in index order.
///
/// Workers pull indices off a shared cursor, so the pool load-balances
/// whatever each call costs; every result lands in its index's slot, so
/// the output is independent of thread interleaving.
///
/// # Errors
///
/// Returns the error of the failing call with the smallest index. After a
/// failure the pool skips indices *above* the failed one (a big job
/// reports its error promptly) while still running everything below it —
/// which is what makes smallest-failing-index deterministic.
///
/// ```rust
/// use pimsim_event::par_map_indexed;
/// let squares = par_map_indexed(4, 3, |i| Ok::<_, ()>(i * i));
/// assert_eq!(squares, Ok(vec![0, 1, 4, 9]));
/// let odd = par_map_indexed(9, 3, |i| if i % 2 == 1 { Err(i) } else { Ok(i) });
/// assert_eq!(odd, Err(1));
/// ```
pub fn par_map_indexed<T: Send, E: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    par_map_visiting(n, threads, |position| position, f)
}

/// [`par_map_indexed`] with the workers taking indices in the order
/// `visit(0), visit(1), .., visit(n - 1)`, which must be a permutation of
/// `0..n`. Results, the returned error and cancellation still go by
/// index: only which index a free worker takes next changes, so callers
/// can run calls that share state close together.
///
/// # Errors
///
/// As [`par_map_indexed`]: the error of the failing call with the
/// smallest index; indices above a failure are skipped, in whatever
/// position they come.
///
/// ```rust
/// use pimsim_event::par_map_visiting;
/// let backwards = par_map_visiting(4, 2, |p| 3 - p, |i| Ok::<_, ()>(i * i));
/// assert_eq!(backwards, Ok(vec![0, 1, 4, 9]));
/// let odd = par_map_visiting(9, 3, |p| 8 - p, |i| if i % 2 == 1 { Err(i) } else { Ok(i) });
/// assert_eq!(odd, Err(1));
/// ```
pub fn par_map_visiting<T: Send, E: Send>(
    n: usize,
    threads: usize,
    visit: impl Fn(usize) -> usize + Sync,
    f: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    // Both atomics are Relaxed: the cursor is a ticket counter and
    // `first_failed` only an early-out hint; results are published by the
    // slot mutexes and the scope's join.
    let cursor = AtomicUsize::new(0);
    let first_failed = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let position = cursor.fetch_add(1, Ordering::Relaxed);
                if position >= n {
                    break;
                }
                let i = visit(position);
                if i > first_failed.load(Ordering::Relaxed) {
                    continue;
                }
                let outcome = f(i);
                if outcome.is_err() {
                    first_failed.fetch_min(i, Ordering::Relaxed);
                }
                *slots[i].lock().expect("a worker panicked mid-store") = Some(outcome);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a worker panicked mid-store")
                // Only indices above an already-recorded failure are
                // skipped, and the failing slot is reached first.
                .expect("skipped slot below the first failure")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_index_ordered_at_any_thread_count() {
        let expect: Vec<u64> = (0..100).map(|i| i * 7).collect();
        for threads in [0, 1, 2, 4, 7, 200] {
            let got = par_map_indexed(100, threads, |i| Ok::<_, ()>(i as u64 * 7));
            assert_eq!(got.as_ref(), Ok(&expect), "threads = {threads}");
        }
        assert_eq!(par_map_indexed(0, 4, |_| Ok::<u8, ()>(0)), Ok(Vec::new()));
    }

    #[test]
    fn the_smallest_failing_index_wins_and_everything_below_it_runs() {
        for threads in [1, 2, 4, 16] {
            let ran = AtomicU64::new(0);
            let got = par_map_indexed(64, threads, |i| {
                ran.fetch_or(1 << i, Ordering::Relaxed);
                if i == 9 || i == 23 || i == 40 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(got, Err(9), "threads = {threads}");
            let ran = ran.load(Ordering::Relaxed);
            assert_eq!(ran & 0x3ff, 0x3ff, "indices 0..=9 must all have run");
        }
        // One worker stops at the first failure: nothing above it runs.
        let ran = AtomicU64::new(0);
        let _ = par_map_indexed(64, 1, |i| {
            ran.fetch_or(1 << i, Ordering::Relaxed);
            if i == 9 {
                Err(())
            } else {
                Ok(())
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0x3ff);
    }

    #[test]
    fn a_visiting_order_changes_neither_results_nor_the_error() {
        // Odd indices first, each half backwards.
        let visit = |p: usize| {
            if p < 32 {
                63 - 2 * p
            } else {
                62 - 2 * (p - 32)
            }
        };
        let expect: Vec<usize> = (0..64).map(|i| i * 7).collect();
        for threads in [1, 2, 4, 16] {
            let got = par_map_visiting(64, threads, visit, |i| Ok::<_, ()>(i * 7));
            assert_eq!(got.as_ref(), Ok(&expect), "threads = {threads}");
            // Index 9 is visited after 23 and 40, yet its error wins and
            // everything below it runs.
            let ran = AtomicU64::new(0);
            let got = par_map_visiting(64, threads, visit, |i| {
                ran.fetch_or(1 << i, Ordering::Relaxed);
                if i == 9 || i == 23 || i == 40 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(got, Err(9), "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed) & 0x3ff, 0x3ff);
        }
    }
}
