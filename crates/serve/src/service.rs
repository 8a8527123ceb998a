//! The per-instance service-time model.
//!
//! Every accelerator instance is identical, and serving the same network
//! at the same batch size always costs the same (the cycle-level simulator
//! is deterministic), so the queueing engine never re-simulates: it looks
//! service times up in a cache keyed by `(network, batch size)`. Warming
//! that cache runs one sweep [`Scenario`] per key over the served
//! networks × the batch sizes the queue can form, on the sweep's pool
//! ([`par_map_indexed`]), and is the only parallel part of a serving run:
//! each key's point lands in its own slot, so the model (and everything
//! derived from it) is independent of the worker-thread count.

use pimsim_event::{par_map_indexed, SimTime};
use pimsim_sweep::Scenario;

use crate::config::ServeConfig;
use crate::ServeError;

/// The cost of serving one batch: what one instance is busy with while a
/// batch is in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePoint {
    /// End-to-end latency of the batch on one instance.
    pub latency: SimTime,
    /// Energy the batch consumes, picojoules.
    pub energy_pj: f64,
}

/// The warmed `(network, batch size)` → [`ServicePoint`] cache.
#[derive(Debug)]
pub struct ServiceModel {
    /// Row-major: `points[net * batch_max + (k - 1)]`.
    points: Vec<ServicePoint>,
    batch_max: u32,
}

impl ServiceModel {
    /// Compiles and simulates every `(network, batch size)` pair the
    /// queue can form on a pool of `threads` worker threads and returns
    /// the cache.
    ///
    /// A dispatched batch never holds more than `batch.max_size` requests
    /// nor more than the `queue_cap` the front-end admits, so the batch
    /// sizes are `1..=max(1, min(batch.max_size, queue_cap))`; batch size
    /// 1 is always warmed, because the report reads it. Each key is one
    /// [`Scenario`], run by [`Scenario::execute`] (what a sweep runs per
    /// grid point) on the sweep's pool: the model is identical whatever
    /// `threads` is, and on failure the error of the smallest-indexed key
    /// is returned.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Service`] for an unknown network, a network
    /// that cannot be built at its resolution, an invalid architecture, or
    /// a compile or simulation failure.
    pub fn warm(config: &ServeConfig, threads: usize) -> Result<ServiceModel, ServeError> {
        // At most `max_size`, so the cast cannot truncate.
        let batch_max = u64::from(config.batch.max_size)
            .min(config.queue_cap)
            .max(1) as u32;
        let mut scenarios = Vec::new();
        for (name, resolution) in &config.networks {
            for k in 1..=batch_max {
                let arch = config.arch.clone();
                scenarios.push(Scenario::cycle(name, *resolution, config.mapping, k, arch));
            }
        }
        // Reduce each row to its point on the worker that made it: rows
        // carried back to this thread pin memory in the workers' glibc
        // malloc arenas, which raised a serving run's peak RSS by up to
        // 1.5x at 2 threads.
        let points = par_map_indexed(scenarios.len(), threads, |i| {
            let row = scenarios[i].execute(i)?;
            Ok(ServicePoint {
                latency: row.latency(),
                energy_pj: row.energy_pj,
            })
        })
        .map_err(ServeError::Service)?;
        Ok(ServiceModel { points, batch_max })
    }

    /// The cost of serving network `net` (an index into
    /// [`ServeConfig::networks`]) at batch size `k`.
    ///
    /// # Panics
    ///
    /// Panics when `net` or `k` is outside the warmed range.
    pub fn get(&self, net: usize, k: u32) -> &ServicePoint {
        assert!(k >= 1 && k <= self.batch_max, "batch size {k} not warmed");
        &self.points[net * self.batch_max as usize + (k as usize - 1)]
    }

    /// The largest warmed batch size.
    pub fn batch_max(&self) -> u32 {
        self.batch_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_arch::ArchConfig;
    use pimsim_sweep::SweepError;

    fn tiny_config() -> ServeConfig {
        let mut c = ServeConfig::new(vec![
            ("tiny_mlp".to_string(), 64),
            ("tiny_cnn".to_string(), 64),
        ]);
        c.arch = ArchConfig::small_test();
        c.batch.max_size = 2;
        c
    }

    /// At any thread count, every key's slot holds what the sweep's
    /// `Scenario::execute` gives for that `(network, batch size)`.
    #[test]
    fn model_is_thread_count_independent() {
        let mut c = tiny_config();
        c.batch.max_size = 3;
        for threads in [1, 4] {
            let model = ServiceModel::warm(&c, threads).unwrap();
            assert_eq!(model.batch_max(), 3);
            for (net, (name, resolution)) in c.networks.iter().enumerate() {
                for k in 1..=3 {
                    let row = Scenario::cycle(name, *resolution, c.mapping, k, c.arch.clone())
                        .execute(0)
                        .unwrap();
                    let point = model.get(net, k);
                    assert_eq!(point.latency, row.latency(), "{name} x{k} t{threads}");
                    assert_eq!(point.energy_pj.to_bits(), row.energy_pj.to_bits());
                }
            }
        }
    }

    #[test]
    fn bigger_batches_cost_no_less_time() {
        let c = tiny_config();
        let model = ServiceModel::warm(&c, 2).unwrap();
        for net in 0..2 {
            assert!(model.get(net, 2).latency >= model.get(net, 1).latency);
            assert!(model.get(net, 1).latency > SimTime::ZERO);
        }
        assert_eq!(model.batch_max(), 2);
    }

    #[test]
    fn only_batch_sizes_the_queue_can_form_are_warmed() {
        let mut c = tiny_config();
        c.networks.truncate(1);
        c.batch.max_size = 100_000;
        c.queue_cap = 8;
        assert_eq!(ServiceModel::warm(&c, 2).unwrap().batch_max(), 8);
        // An empty queue admits nothing, but the report still reads k = 1.
        c.queue_cap = 0;
        let model = ServiceModel::warm(&c, 2).unwrap();
        assert_eq!(model.batch_max(), 1);
        assert!(model.get(0, 1).latency > SimTime::ZERO);
    }

    #[test]
    fn unknown_networks_fail_deterministically() {
        let mut c = tiny_config();
        c.networks[1].0 = "not_a_network".to_string();
        let err = ServiceModel::warm(&c, 4).unwrap_err();
        assert_eq!(
            err,
            ServeError::Service(SweepError::UnknownNetwork("not_a_network".to_string()))
        );
    }
}
