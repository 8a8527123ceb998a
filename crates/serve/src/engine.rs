//! The queueing/batching front-end and dispatcher.
//!
//! A virtual-time replay that holds only what is *pending*: the next
//! request is peeked off the lazy arrival stream (inline, or from the
//! producer thread's handoff buffers; see [`Arrivals`]), and batch-timeout
//! wake-ups and instance completions wait in a small heap ordered by
//! `(time, push order)` — at most one `Free` per instance plus the
//! `Flush`es of one timeout window. Each step takes the earlier of the
//! two; on a time tie the arrival goes first, which is the order a single
//! heap holding every arrival up front would pop them in. The outcome is
//! a pure function of the request stream and the service model — no
//! wall-clock and no nondeterminism, whichever source the arrivals come
//! from.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pimsim_event::SimTime;

use crate::config::ServeConfig;
use crate::service::ServiceModel;
use crate::trace::DepthTrace;
use crate::workload::Arrivals;
use crate::ServeError;

/// What the queueing simulation hands to the report builder.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimOutcome {
    /// Requests that arrived, per network.
    pub generated: Vec<u64>,
    /// Requests completed, per network.
    pub finished: Vec<u64>,
    /// Requests dropped at the full queue, per network.
    pub dropped: Vec<u64>,
    /// Requests still queued when the simulation stopped, per network
    /// (always zero in drain mode).
    pub in_queue: Vec<u64>,
    /// Batches dispatched, per network.
    pub batches: Vec<u64>,
    /// Per-network request latencies (completion − arrival), picoseconds,
    /// in dispatch order.
    pub latencies_ps: Vec<Vec<u64>>,
    /// Total service energy across all dispatched batches, picojoules.
    pub energy_pj: f64,
    /// When the last dispatched batch completes (at least the arrival
    /// horizon, even on an idle run).
    pub makespan: SimTime,
    /// `(time, queued total)` after every event, deduplicated per instant.
    pub depth_samples: DepthTrace,
    /// The deepest the queue ever got.
    pub max_depth: u64,
    /// The most wake-ups that were ever pending at once.
    #[cfg(test)]
    pub pending_peak: usize,
}

/// A pending wake-up's kind, its key's lowest bit. Neither kind carries a
/// payload: ripeness is recomputed from queue state after every event, so
/// a stale `Flush` is harmless.
#[derive(Debug)]
enum Wake {
    /// A batch-timeout wake-up for a queue head; stale once that head
    /// has been dispatched.
    Flush = 0,
    /// An instance finishes its batch and becomes free.
    Free = 1,
}

/// A pending wake-up as one heap key, `time << 64 | seq << 1 | kind`:
/// ordered by time, then push order (`seq` is unique per wake-up, so the
/// kinds are never compared).
fn wake_key(time: SimTime, seq: u64, wake: Wake) -> u128 {
    u128::from(time.as_ps()) << 64 | u128::from(seq) << 1 | wake as u128
}

/// The time of a [`wake_key`].
fn wake_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// Plays `arrivals` through the bounded queueing front-end and the
/// batching dispatcher, using `model` for per-batch service times (and
/// warming a batch size past the up-front ones the first time it forms).
///
/// # Errors
///
/// Passes on the stream's step-budget error and a batch size that fails to
/// build, and reports a completion time past the end of simulated time.
pub(crate) fn simulate(
    config: &ServeConfig,
    arrivals: &mut impl Arrivals,
    model: &mut ServiceModel,
) -> Result<SimOutcome, ServeError> {
    let nets = config.networks.len();
    let timeout = config.batch.timeout;
    let batch_max = config.batch.max_size;

    let mut pending: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |pending: &mut BinaryHeap<_>, time: SimTime, wake: Wake| {
        pending.push(Reverse(wake_key(time, seq, wake)));
        seq += 1;
    };

    // Per-network FIFO of admitted requests' arrival times.
    let mut queues: Vec<VecDeque<SimTime>> = vec![VecDeque::new(); nets];
    let mut queued_total = 0u64;
    let mut free = config.instances;

    let mut out = SimOutcome {
        generated: vec![0; nets],
        finished: vec![0; nets],
        dropped: vec![0; nets],
        in_queue: vec![0; nets],
        batches: vec![0; nets],
        latencies_ps: vec![Vec::new(); nets],
        energy_pj: 0.0,
        makespan: config.duration,
        depth_samples: DepthTrace::default(),
        max_depth: 0,
        #[cfg(test)]
        pending_peak: 0,
    };

    loop {
        let next_wake = pending.peek().map(|&Reverse(key)| key);
        let now = match (arrivals.peek(), next_wake) {
            (Some((arrival, net)), wake) if wake.is_none_or(|key| arrival <= wake_time(key)) => {
                arrivals.take()?;
                out.generated[net] += 1;
                if queued_total >= config.queue_cap {
                    out.dropped[net] += 1;
                } else {
                    queues[net].push_back(arrival);
                    queued_total += 1;
                    if queues[net].len() == 1 {
                        // This request is its queue's head: wake the
                        // dispatcher when its patience runs out.
                        push(&mut pending, arrival.saturating_add(timeout), Wake::Flush);
                    }
                }
                arrival
            }
            (_, Some(key)) => {
                pending.pop();
                if key & 1 == Wake::Free as u128 {
                    free += 1;
                }
                wake_time(key)
            }
            // An arrival with no wake-up pending takes the first arm, so
            // this is `(None, None)`: nothing is left to replay.
            (_, None) => break,
        };

        // Dispatch as long as instances are free and some queue is ripe.
        // In drain mode every non-empty queue is ripe once arrivals end;
        // without drain, dispatching stops at the horizon.
        let drain_active = config.drain && arrivals.peek().is_none();
        let horizon_closed = !config.drain && now >= config.duration;
        while free > 0 && !horizon_closed {
            let mut best: Option<(SimTime, usize)> = None;
            for (net, queue) in queues.iter().enumerate() {
                let Some(&head_arrival) = queue.front() else {
                    continue;
                };
                let ripe = queue.len() as u32 >= batch_max
                    || now >= head_arrival.saturating_add(timeout)
                    || drain_active;
                if ripe && best.is_none_or(|(t, _)| head_arrival < t) {
                    best = Some((head_arrival, net));
                }
            }
            let Some((_, net)) = best else { break };
            let k = (queues[net].len() as u32).min(batch_max);
            let point = model.point(net, k)?;
            let completion = now.checked_add(point.latency).ok_or_else(|| {
                ServeError::Sim(format!(
                    "a batch dispatched at {now} completes past SimTime::MAX"
                ))
            })?;
            for arrival in queues[net].drain(..k as usize) {
                out.latencies_ps[net].push((completion - arrival).as_ps());
            }
            out.finished[net] += u64::from(k);
            queued_total -= u64::from(k);
            out.batches[net] += 1;
            out.energy_pj += point.energy_pj;
            out.makespan = out.makespan.max(completion);
            free -= 1;
            push(&mut pending, completion, Wake::Free);
            if let Some(&head_arrival) = queues[net].front() {
                // The new head inherits no wake-up; give it one (clamped
                // to now when its patience already ran out).
                let deadline = head_arrival.saturating_add(timeout).max(now);
                push(&mut pending, deadline, Wake::Flush);
            }
        }

        #[cfg(test)]
        {
            out.pending_peak = out.pending_peak.max(pending.len());
        }
        out.max_depth = out.max_depth.max(queued_total);
        out.depth_samples.record(now, queued_total);
    }

    for (net, queue) in queues.iter().enumerate() {
        out.in_queue[net] = queue.len() as u64;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalProcess;
    use crate::config::BatchPolicy;
    use crate::workload::ArrivalStream;
    use pimsim_arch::ArchConfig;

    fn tiny_config() -> ServeConfig {
        let mut c = ServeConfig::new(vec![
            ("tiny_mlp".to_string(), 64),
            ("tiny_cnn".to_string(), 64),
        ]);
        c.arch = ArchConfig::small_test();
        c.rate_rps = 200_000.0;
        c.duration = SimTime::from_us(500);
        c.batch = BatchPolicy {
            max_size: 2,
            timeout: SimTime::from_us(20),
        };
        c
    }

    fn run(c: &ServeConfig) -> SimOutcome {
        let mut model = ServiceModel::warm(c, 2).unwrap();
        simulate(c, &mut ArrivalStream::new(c).unwrap(), &mut model).unwrap()
    }

    fn totals(outcome: &SimOutcome) -> (u64, u64, u64, u64) {
        (
            outcome.generated.iter().sum(),
            outcome.finished.iter().sum(),
            outcome.dropped.iter().sum(),
            outcome.in_queue.iter().sum(),
        )
    }

    #[test]
    fn every_request_is_accounted_for() {
        let c = tiny_config();
        let outcome = run(&c);
        let (generated, finished, dropped, in_queue) = totals(&outcome);
        assert_eq!(finished + dropped + in_queue, generated);
        assert_eq!(in_queue, 0, "drain mode must empty the queues");
        assert!(finished > 0);
        assert!(outcome.makespan >= c.duration);
        assert!(outcome.energy_pj > 0.0);
    }

    #[test]
    fn no_drain_leaves_the_horizon_tail_queued() {
        let mut c = tiny_config();
        c.drain = false;
        // Swamp a single slow instance so the queue is non-empty at the
        // horizon.
        c.rate_rps = 2_000_000.0;
        c.queue_cap = 1_000_000;
        let outcome = run(&c);
        let (generated, finished, dropped, in_queue) = totals(&outcome);
        assert_eq!(finished + dropped + in_queue, generated);
        assert!(
            in_queue > 0,
            "an overloaded no-drain run should strand requests"
        );
        assert_eq!(outcome.makespan, c.duration.max(outcome.makespan));
    }

    #[test]
    fn a_tiny_queue_cap_drops_bursts() {
        let mut c = tiny_config();
        c.queue_cap = 1;
        c.rate_rps = 2_000_000.0;
        let outcome = run(&c);
        let (generated, finished, dropped, in_queue) = totals(&outcome);
        assert_eq!(finished + dropped + in_queue, generated);
        assert!(dropped > 0, "cap 1 under overload must drop");
        assert!(outcome.max_depth <= 1);
    }

    #[test]
    fn batches_respect_the_size_cap_and_count_requests() {
        let c = tiny_config();
        let outcome = run(&c);
        for net in 0..2 {
            assert!(outcome.batches[net] * 2 >= outcome.finished[net]);
            assert!(outcome.batches[net] <= outcome.finished[net]);
            assert_eq!(
                outcome.latencies_ps[net].len() as u64,
                outcome.finished[net]
            );
            for &l in &outcome.latencies_ps[net] {
                assert!(l > 0, "a served request takes positive time");
            }
        }
    }

    #[test]
    fn more_instances_never_hurt_the_tail() {
        let c1 = tiny_config();
        let mut c4 = tiny_config();
        c4.instances = 4;
        let one = run(&c1);
        let four = run(&c4);
        let worst = |o: &SimOutcome| o.latencies_ps.iter().flatten().copied().max().unwrap_or(0);
        assert!(worst(&four) <= worst(&one));
        assert!(four.makespan <= one.makespan);
    }

    #[test]
    fn outcome_reproduces_exactly() {
        let c = tiny_config();
        assert_eq!(run(&c), run(&c));
    }

    /// The four shapes of the `serve-replay` benchmark workload at its
    /// self-test size (3 750 requests each): what waits in the pending
    /// heap is a `Free` per busy instance plus the `Flush`es of one
    /// timeout window, never a function of the horizon.
    #[test]
    fn the_pending_set_stays_small_on_benchmark_shaped_runs() {
        let shape = |names: &[&str], rate: f64| {
            let mut c = ServeConfig::new(names.iter().map(|n| (n.to_string(), 64)).collect());
            c.seed = 1;
            c.rate_rps = rate;
            c.duration = SimTime::from_ps((3_750.0 / rate * 1e12) as u64);
            c
        };
        let clean = shape(&["tiny_mlp"], 100_000.0);
        let mut overload = shape(&["tiny_cnn"], 100_000.0);
        overload.drain = false;
        let mut fixed = shape(&["tiny_mlp", "tiny_cnn"], 40_000.0);
        fixed.arrivals = ArrivalProcess::Fixed;
        fixed.instances = 4;
        let mut bursty = shape(&["tiny_mlp"], 100_000.0);
        bursty.arrivals = ArrivalProcess::Bursty;
        bursty.batch = "8/100us".parse().unwrap();
        for c in [clean, overload, fixed, bursty] {
            let outcome = run(&c);
            let events = outcome.depth_samples.len();
            assert!(
                events > 3_000,
                "{events} events is not a benchmark-sized run"
            );
            assert!(
                outcome.pending_peak <= c.instances as usize + 64,
                "{} arrivals: {} wake-ups pending at once",
                c.arrivals,
                outcome.pending_peak
            );
        }
    }

    /// Regression: `head_arrival + timeout` used to wrap in release builds,
    /// making every queue "ripe" at once; a timeout past the end of time
    /// now reads as "never", so batches fill instead.
    #[test]
    fn a_timeout_past_the_end_of_time_never_fires() {
        let mut c = tiny_config();
        c.batch.timeout = SimTime::MAX;
        let outcome = run(&c);
        let (generated, finished, dropped, in_queue) = totals(&outcome);
        assert_eq!((finished + dropped, in_queue), (generated, 0));
        // Only the drain at the end may dispatch an under-filled batch.
        for net in 0..2 {
            assert!(outcome.batches[net] <= outcome.finished[net] / 2 + 1);
        }
    }
}
