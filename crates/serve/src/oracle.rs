//! The replay as it was before it streamed, kept as the reference the
//! streaming one is tested against: every request generated and sorted up
//! front, then pushed into one event heap with the wake-ups. O(requests)
//! memory and a heap as large as the run — simple enough to trust.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use pimsim_arch::ArchConfig;
use pimsim_event::SimTime;

use crate::config::{ArrivalProcess, BatchPolicy, ServeConfig};
use crate::engine::{simulate, SimOutcome};
use crate::service::ServiceModel;
use crate::trace::DepthTrace;
use crate::workload::{generate_requests, ArrivalStream, Arrivals, Request};
use crate::ServeError;

fn exponential(rng: &mut StdRng, rate: f64) -> SimTime {
    let u: f64 = rng.gen_range(0.0..1.0);
    SimTime::from_ns_f64(-(1.0 - u).ln() / rate * 1e9)
}

/// Every request of `config`, each network's arrivals built as a `Vec`,
/// concatenated and stably sorted by `(arrival, network index)`.
fn eager_requests(config: &ServeConfig) -> Vec<Request> {
    let nets = config.networks.len();
    let rate = config.rate_rps / nets as f64;
    let duration = config.duration;
    let mut merged: Vec<Request> = Vec::new();
    for net in 0..nets {
        let seed = config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(net as u64 + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals = Vec::new();
        match config.arrivals {
            ArrivalProcess::Poisson => {
                let mut t = SimTime::ZERO;
                loop {
                    t += exponential(&mut rng, rate);
                    if t >= duration {
                        break;
                    }
                    arrivals.push(t);
                }
            }
            ArrivalProcess::Fixed => {
                let period_ns = 1e9 / rate;
                let phase: f64 = rng.gen_range(0.0..1.0);
                for k in 0.. {
                    let t = SimTime::from_ns_f64((phase + k as f64) * period_ns);
                    if t >= duration {
                        break;
                    }
                    arrivals.push(t);
                }
            }
            ArrivalProcess::Bursty => {
                let (on, period) = (config.burst_on, config.burst_on + config.burst_off);
                let boosted = rate * period.as_secs_f64() / on.as_secs_f64();
                let mut window_start = SimTime::ZERO;
                while window_start < duration {
                    let window_end = (window_start + on).min(duration);
                    let mut t = window_start;
                    loop {
                        t += exponential(&mut rng, boosted);
                        if t >= window_end {
                            break;
                        }
                        arrivals.push(t);
                    }
                    window_start += period;
                }
            }
        }
        merged.extend(arrivals.into_iter().map(|arrival| Request {
            id: 0, // assigned after the merge
            net,
            arrival,
        }));
    }
    merged.sort_by_key(|r| (r.arrival, r.net));
    for (id, request) in merged.iter_mut().enumerate() {
        request.id = id as u64;
    }
    merged
}

/// Heap entry: `seq` is unique per event, so ordering is total and the
/// pop order never depends on how ties would compare `kind`s.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    time: SimTime,
    seq: u64,
    kind: EvKind,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    Arrival(usize),
    Flush,
    Free,
}

/// The everything-in-one-heap replay of `requests`. Its queue-depth
/// samples come back beside the outcome as a plain `Vec`, so the
/// differential test also checks the engine's encoded trace.
fn heap_simulate(
    config: &ServeConfig,
    requests: &[Request],
    model: &ServiceModel,
) -> (SimOutcome, Vec<(SimTime, u64)>) {
    let nets = config.networks.len();
    let timeout = config.batch.timeout;
    let batch_max = config.batch.max_size;

    let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::with_capacity(requests.len() * 2);
    let mut seq = 0u64;
    let mut push = |heap: &mut BinaryHeap<Reverse<Ev>>, time: SimTime, kind: EvKind| {
        heap.push(Reverse(Ev { time, seq, kind }));
        seq += 1;
    };
    for (i, r) in requests.iter().enumerate() {
        push(&mut heap, r.arrival, EvKind::Arrival(i));
    }

    let mut queues: Vec<VecDeque<(u64, SimTime)>> = vec![VecDeque::new(); nets];
    let mut queued_total = 0u64;
    let mut free = config.instances;
    let mut arrivals_left = requests.len();

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
        pending_peak: 0,
    };
    let mut depth_samples: Vec<(SimTime, u64)> = Vec::new();
    for r in requests {
        out.generated[r.net] += 1;
    }

    while let Some(Reverse(ev)) = heap.pop() {
        let now = ev.time;
        match ev.kind {
            EvKind::Arrival(i) => {
                arrivals_left -= 1;
                let r = &requests[i];
                if queued_total >= config.queue_cap {
                    out.dropped[r.net] += 1;
                } else {
                    queues[r.net].push_back((r.id, r.arrival));
                    queued_total += 1;
                    if queues[r.net].len() == 1 {
                        push(&mut heap, now + timeout, EvKind::Flush);
                    }
                }
            }
            EvKind::Flush => {}
            EvKind::Free => free += 1,
        }

        let drain_active = config.drain && arrivals_left == 0;
        let horizon_closed = !config.drain && now >= config.duration;
        while free > 0 && !horizon_closed {
            let mut best: Option<(SimTime, usize)> = None;
            for (net, queue) in queues.iter().enumerate() {
                let Some(&(_, head_arrival)) = queue.front() else {
                    continue;
                };
                let ripe = queue.len() as u32 >= batch_max
                    || now >= head_arrival + timeout
                    || drain_active;
                if ripe && best.is_none_or(|(t, _)| head_arrival < t) {
                    best = Some((head_arrival, net));
                }
            }
            let Some((_, net)) = best else { break };
            let k = (queues[net].len() as u32).min(batch_max);
            let point = model.get(net, k);
            let completion = now + point.latency;
            for _ in 0..k {
                let (_, arrival) = queues[net].pop_front().expect("batch under-filled");
                out.latencies_ps[net].push((completion - arrival).as_ps());
                out.finished[net] += 1;
                queued_total -= 1;
            }
            out.batches[net] += 1;
            out.energy_pj += point.energy_pj;
            out.makespan = out.makespan.max(completion);
            free -= 1;
            push(&mut heap, completion, EvKind::Free);
            if let Some(&(_, head_arrival)) = queues[net].front() {
                push(&mut heap, (head_arrival + timeout).max(now), EvKind::Flush);
            }
        }

        out.max_depth = out.max_depth.max(queued_total);
        match depth_samples.last_mut() {
            Some(last) if last.0 == now => last.1 = queued_total,
            _ => depth_samples.push((now, queued_total)),
        }
    }

    for (net, queue) in queues.iter().enumerate() {
        out.in_queue[net] = queue.len() as u64;
    }
    (out, depth_samples)
}

/// The workloads the differential test draws from: one to three networks
/// (the third repeats the first — its substream is still its own).
const WORKLOADS: [&[&str]; 3] = [
    &["tiny_mlp"],
    &["tiny_mlp", "tiny_cnn"],
    &["tiny_mlp", "tiny_cnn", "tiny_mlp"],
];
const BATCH_MAX: u32 = 8;

fn workload(nets: usize) -> ServeConfig {
    let names = WORKLOADS[nets - 1];
    let mut c = ServeConfig::new(names.iter().map(|n| (n.to_string(), 64)).collect());
    c.arch = ArchConfig::small_test();
    c
}

/// Service models for the three workloads, every batch size up to the
/// largest warmed once: a smaller `batch.max_size` only ever looks up a
/// prefix, and the heap replay reads points without warming them.
fn model(nets: usize) -> &'static ServiceModel {
    static MODELS: OnceLock<Vec<ServiceModel>> = OnceLock::new();
    let warm = |nets: usize| {
        let mut c = workload(nets);
        c.batch.max_size = BATCH_MAX;
        let mut model = ServiceModel::warm(&c, 2)?;
        for net in 0..nets {
            for k in 2..=BATCH_MAX {
                model.point(net, k)?;
            }
        }
        Ok::<_, ServeError>(model)
    };
    let models = MODELS.get_or_init(|| (1..=3).map(|nets| warm(nets).unwrap()).collect());
    &models[nets - 1]
}

/// Both replays of `c`, asserted equal; returns the shared outcome.
fn both(c: &ServeConfig) -> SimOutcome {
    let model = model(c.networks.len());
    let requests = eager_requests(c);
    assert_eq!(generate_requests(c).unwrap(), requests);
    let (old, old_samples) = heap_simulate(c, &requests, model);
    let mut stream = ArrivalStream::new(c).unwrap();
    let new = simulate(c, &mut stream, &mut model.clone()).unwrap();
    assert!(stream.peek().is_none(), "the replay consumes the stream");
    assert!(new.depth_samples.iter().eq(old_samples));
    assert_eq!(
        SimOutcome {
            pending_peak: 0,
            depth_samples: DepthTrace::default(),
            ..new.clone()
        },
        old
    );
    new
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The streaming replay and the one-heap replay agree on everything
    /// the report is built from, and the lazy stream on every request.
    #[test]
    fn streaming_replay_matches_the_one_heap_replay(
        seed in 0u64..1_000_000,
        (arrivals_idx, nets, instances) in (0usize..3, 1usize..=3, 1u32..=4),
        (batch_max, timeout_idx) in (1u32..=BATCH_MAX, 0usize..5),
        (cap_idx, drain) in (0usize..3, any::<bool>()),
        // Log-uniform 10k .. 3M req/s: idle through tenfold overload.
        (rate_exp, duration_us) in (4.0f64..6.5, 100u64..1_500),
        (burst_on_us, burst_off_us) in (20u64..300, 0u64..400),
    ) {
        let mut c = workload(nets);
        c.seed = seed;
        c.arrivals = ArrivalProcess::ALL[arrivals_idx];
        c.instances = instances;
        c.batch = BatchPolicy {
            max_size: batch_max,
            timeout: [0, 1, 20, 100, 5_000].map(SimTime::from_us)[timeout_idx],
        };
        c.queue_cap = [0, 1, 64][cap_idx];
        c.drain = drain;
        c.rate_rps = 10f64.powf(rate_exp);
        c.duration = SimTime::from_us(duration_us);
        c.burst_on = SimTime::from_us(burst_on_us);
        c.burst_off = SimTime::from_us(burst_off_us);
        c.validate().unwrap();
        let out = both(&c);
        for net in 0..nets {
            prop_assert_eq!(
                out.generated[net],
                out.finished[net] + out.dropped[net] + out.in_queue[net]
            );
        }
    }
}

/// Arrivals that tie with each other and with wake-ups: fixed-rate streams
/// whose period divides the service time, so frees, flushes and arrivals
/// keep landing on the same picosecond.
#[test]
fn time_ties_resolve_in_the_one_heap_order() {
    for nets in 1..=3 {
        let latency = model(nets).get(0, 1).latency;
        for (divisor, timeout) in [(1, latency), (2, SimTime::ZERO), (4, latency * 2)] {
            let mut c = workload(nets);
            c.arrivals = ArrivalProcess::Fixed;
            c.batch = BatchPolicy {
                max_size: 2,
                timeout,
            };
            c.rate_rps = nets as f64 * divisor as f64 / latency.as_secs_f64();
            c.duration = latency * 40;
            c.instances = 2;
            let out = both(&c);
            assert!(out.finished.iter().sum::<u64>() > 0);
        }
    }
}
