//! The serving report: what an open-loop run is summarised into.

use serde::Serialize;

use pimsim_event::SimTime;

use crate::config::ServeConfig;
use crate::engine::SimOutcome;
use crate::service::ServiceModel;
use crate::trace::DepthTrace;

/// One `(time, depth)` point of the queue-depth-over-time trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueueSample {
    /// Simulated time, nanoseconds.
    pub t_ns: f64,
    /// Admitted-but-not-yet-dispatched requests at that instant.
    pub depth: u64,
}

/// Per-network serving statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NetworkServeStats {
    /// Zoo network name.
    pub network: String,
    /// Input resolution the network was built at.
    pub resolution: u32,
    /// Requests that arrived for this network.
    pub generated: u64,
    /// Requests served to completion.
    pub finished: u64,
    /// Requests dropped at the full queue.
    pub dropped: u64,
    /// Requests still queued when the run stopped (zero in drain mode).
    pub in_queue: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean dispatched batch size (`finished / batches`).
    pub mean_batch: f64,
    /// The raw batch-of-1 service latency from the cache, nanoseconds —
    /// the floor any request latency sits on.
    pub service_latency_ns: f64,
    /// Median request latency (arrival → completion), nanoseconds.
    pub p50_latency_ns: f64,
    /// 95th-percentile request latency, nanoseconds.
    pub p95_latency_ns: f64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_latency_ns: f64,
    /// Mean request latency, nanoseconds.
    pub mean_latency_ns: f64,
    /// Worst request latency, nanoseconds.
    pub max_latency_ns: f64,
}

/// The full report of one open-loop serving run.
///
/// Everything here is a pure function of the [`ServeConfig`], so for a
/// fixed seed the JSON rendering is byte-identical at any thread count —
/// the same determinism contract the sweep engine honors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Arrival process name (`poisson` / `fixed` / `bursty`).
    pub arrivals: String,
    /// Aggregate offered arrival rate, requests per second.
    pub rate_rps: f64,
    /// Arrival horizon, nanoseconds.
    pub duration_ns: f64,
    /// The RNG seed the run used.
    pub seed: u64,
    /// Batch policy in canonical `N/Tunit` form.
    pub batch: String,
    /// Queue bound (admitted, not yet dispatched, across all networks).
    pub queue_cap: u64,
    /// Simulated accelerator instances.
    pub instances: u32,
    /// Whether queues drained after the last arrival.
    pub drain: bool,
    /// Mapping policy of the per-instance service model.
    pub mapping: String,
    /// Run-loop engine of the per-instance service model: always
    /// `"event"`, the simulator's one run loop. Kept so report bytes
    /// stay stable.
    pub engine: String,
    /// Requests generated across all networks.
    pub generated: u64,
    /// Requests served to completion.
    pub finished: u64,
    /// Requests dropped at the full queue.
    pub dropped: u64,
    /// Requests still queued when the run stopped.
    pub in_queue: u64,
    /// Achieved goodput: `finished / makespan`, requests per second.
    pub throughput_rps: f64,
    /// When the last batch completed (at least the arrival horizon),
    /// nanoseconds.
    pub makespan_ns: f64,
    /// Total service energy, picojoules.
    pub energy_pj: f64,
    /// `energy / makespan`, watts.
    pub avg_power_w: f64,
    /// The deepest the queue ever got.
    pub max_queue_depth: u64,
    /// Queue depth over time, downsampled to at most 64 points.
    pub queue_depth: Vec<QueueSample>,
    /// Per-network statistics, in workload order.
    pub per_network: Vec<NetworkServeStats>,
}

/// 0-based index of the nearest-rank percentile `q` (in `[0, 1]`) in an
/// ascending list of `len > 0` entries.
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// `[p50, p95, p99, max]` of a latency list, nanoseconds; zeros for an
/// empty list. Reorders `ps` instead of sorting it: each percentile is one
/// selection, the later ones inside the prefix the earlier one left.
fn tail_ns(ps: &mut [u64]) -> [f64; 4] {
    let Some(&max) = ps.iter().max() else {
        return [0.0; 4];
    };
    let mut out = [0.0, 0.0, 0.0, max as f64 / 1e3];
    let mut below = ps.len();
    for (slot, q) in [(2, 0.99), (1, 0.95), (0, 0.50)] {
        let i = rank(ps.len(), q);
        out[slot] = *ps[..below].select_nth_unstable(i).1 as f64 / 1e3;
        below = i + 1;
    }
    out
}

/// Keeps at most `cap` evenly spaced samples (always retaining the last).
fn downsample(trace: &DepthTrace, cap: usize) -> Vec<QueueSample> {
    let point = |(t, depth): (SimTime, u64)| QueueSample {
        t_ns: t.as_ns_f64(),
        depth,
    };
    let stride = trace.len().div_ceil(cap).max(1);
    let mut out: Vec<QueueSample> = trace.iter().step_by(stride).map(point).collect();
    if let Some(last) = trace.last().map(point) {
        if out.last() != Some(&last) {
            out.push(last);
        }
    }
    out
}

impl ServeReport {
    /// Builds the report from a finished queueing simulation.
    pub(crate) fn assemble(
        config: &ServeConfig,
        model: &ServiceModel,
        mut outcome: SimOutcome,
    ) -> ServeReport {
        let mut per_network = Vec::with_capacity(config.networks.len());
        for (net, (name, resolution)) in config.networks.iter().enumerate() {
            let latencies = &mut outcome.latencies_ps[net];
            let mean_ns = if latencies.is_empty() {
                0.0
            } else {
                let sum: u128 = latencies.iter().map(|&l| u128::from(l)).sum();
                sum as f64 / latencies.len() as f64 / 1e3
            };
            let [p50, p95, p99, max] = tail_ns(latencies);
            let batches = outcome.batches[net];
            per_network.push(NetworkServeStats {
                network: name.clone(),
                resolution: *resolution,
                generated: outcome.generated[net],
                finished: outcome.finished[net],
                dropped: outcome.dropped[net],
                in_queue: outcome.in_queue[net],
                batches,
                mean_batch: if batches == 0 {
                    0.0
                } else {
                    outcome.finished[net] as f64 / batches as f64
                },
                service_latency_ns: model.get(net, 1).latency.as_ns_f64(),
                p50_latency_ns: p50,
                p95_latency_ns: p95,
                p99_latency_ns: p99,
                mean_latency_ns: mean_ns,
                max_latency_ns: max,
            });
        }
        let finished: u64 = outcome.finished.iter().sum();
        let makespan_s = outcome.makespan.as_secs_f64();
        ServeReport {
            arrivals: config.arrivals.name().to_string(),
            rate_rps: config.rate_rps,
            duration_ns: config.duration.as_ns_f64(),
            seed: config.seed,
            batch: config.batch.to_string(),
            queue_cap: config.queue_cap,
            instances: config.instances,
            drain: config.drain,
            mapping: config.mapping.to_string(),
            engine: "event".to_string(),
            generated: outcome.generated.iter().sum(),
            finished,
            dropped: outcome.dropped.iter().sum(),
            in_queue: outcome.in_queue.iter().sum(),
            throughput_rps: finished as f64 / makespan_s,
            makespan_ns: outcome.makespan.as_ns_f64(),
            energy_pj: outcome.energy_pj,
            avg_power_w: outcome.energy_pj * 1e-12 / makespan_s,
            max_queue_depth: outcome.max_depth,
            queue_depth: downsample(&outcome.depth_samples, 64),
            per_network,
        }
    }

    /// Renders the report as pretty JSON. Equal reports render to equal
    /// bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Renders the report as the aligned text block `pimsim serve` prints.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve: {} arrivals @ {:.0} req/s for {}, batch {}, queue {}, {} instance{}{}",
            self.arrivals,
            self.rate_rps,
            SimTime::from_ns_f64(self.duration_ns),
            self.batch,
            self.queue_cap,
            self.instances,
            if self.instances == 1 { "" } else { "s" },
            if self.drain { "" } else { ", no drain" },
        );
        let _ = writeln!(
            out,
            "  generated {}  finished {}  dropped {}  in-queue {}",
            self.generated, self.finished, self.dropped, self.in_queue
        );
        let _ = writeln!(
            out,
            "  throughput {:.1} req/s  makespan {}  energy {:.3} uJ  avg power {:.3} W",
            self.throughput_rps,
            SimTime::from_ns_f64(self.makespan_ns),
            self.energy_pj / 1e6,
            self.avg_power_w
        );
        let _ = writeln!(out, "  peak queue depth {}", self.max_queue_depth);
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>6} {:>5} {:>9} {:>12} {:>12} {:>12}",
            "network", "served", "drops", "batch", "p50", "p95", "p99", "max"
        );
        for n in &self.per_network {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>6} {:>5.2} {:>9} {:>12} {:>12} {:>12}",
                n.network,
                n.finished,
                n.dropped,
                n.mean_batch,
                format!("{}", SimTime::from_ns_f64(n.p50_latency_ns)),
                format!("{}", SimTime::from_ns_f64(n.p95_latency_ns)),
                format!("{}", SimTime::from_ns_f64(n.p99_latency_ns)),
                format!("{}", SimTime::from_ns_f64(n.max_latency_ns)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{reference, samples, trace};

    /// `downsample` as it was over a plain `Vec` of samples: the reference
    /// the trace-reading one is held to.
    fn downsample_slice(samples: &[(SimTime, u64)], cap: usize) -> Vec<QueueSample> {
        let stride = samples.len().div_ceil(cap).max(1);
        let mut out: Vec<QueueSample> = samples
            .iter()
            .step_by(stride)
            .map(|&(t, depth)| QueueSample {
                t_ns: t.as_ns_f64(),
                depth,
            })
            .collect();
        if let Some(&(t, depth)) = samples.last() {
            let last = QueueSample {
                t_ns: t.as_ns_f64(),
                depth,
            };
            if out.last() != Some(&last) {
                out.push(last);
            }
        }
        out
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut ps: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(rank(100, 1.0), 99);
        // Any input order gives the sorted list's nearest ranks.
        ps.reverse();
        assert_eq!(tail_ns(&mut ps), [50.0, 95.0, 99.0, 100.0]);
        ps.rotate_left(37);
        assert_eq!(tail_ns(&mut ps), [50.0, 95.0, 99.0, 100.0]);
        assert_eq!(tail_ns(&mut [5_000]), [5.0; 4]);
        assert_eq!(tail_ns(&mut [7_000, 3_000]), [3.0, 7.0, 7.0, 7.0]);
        assert_eq!(tail_ns(&mut []), [0.0; 4]);
    }

    proptest::proptest! {
        /// Selection agrees with indexing a fully sorted copy, ties and all.
        #[test]
        fn selection_matches_a_full_sort(
            mut ps in proptest::collection::vec(0u64..50, 0..300),
        ) {
            let mut sorted = ps.clone();
            sorted.sort_unstable();
            let at = |q| sorted.get(rank(sorted.len().max(1), q)).map_or(0.0, |&l| l as f64 / 1e3);
            let expect = [at(0.50), at(0.95), at(0.99), at(1.0)];
            proptest::prop_assert_eq!(tail_ns(&mut ps), expect);
        }
    }

    #[test]
    fn downsampling_keeps_ends_and_caps_length() {
        let samples: Vec<(SimTime, u64)> = (0..1000).map(|i| (SimTime::from_ns(i), i)).collect();
        let ds = downsample(&trace(&samples), 64);
        assert!(ds.len() <= 65);
        assert_eq!(ds.first().unwrap().t_ns, 0.0);
        assert_eq!(ds.last().unwrap().depth, 999);
        let tiny = downsample(&trace(&samples[..3]), 64);
        assert_eq!(tiny.len(), 3);
        assert!(downsample(&DepthTrace::default(), 64).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Downsampling the trace keeps the points the slice version keeps
        /// from the `Vec` the trace stands for.
        #[test]
        fn downsampling_the_trace_matches_the_slice_oracle(
            samples in samples(),
            cap in 1usize..100,
        ) {
            let expect = downsample_slice(&reference(&samples), cap);
            proptest::prop_assert_eq!(downsample(&trace(&samples), cap), expect);
        }
    }
}
