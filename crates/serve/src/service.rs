//! The per-instance service-time model.
//!
//! Every accelerator instance is identical, and serving the same network
//! at the same batch size always costs the same (the cycle-level simulator
//! is deterministic), so the queueing engine never re-simulates: it looks
//! service times up in a cache keyed by `(network, batch size)`. Each key
//! is one sweep [`Scenario`]. Batch sizes up to [`EAGER_BATCH_MAX`] (64)
//! of every network are warmed up front on the sweep's pool
//! ([`par_map_indexed`]); a larger size is warmed the first time the
//! replay dispatches it. A key's point is the same whenever and on
//! whichever thread it is computed, so the model (and everything derived
//! from it) is independent of the worker-thread count.

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

/// The largest batch size warmed up front.
///
/// A run whose batch cap is at most this usually forms most of its sizes,
/// and warming them all in parallel beats warming the ones it forms one at
/// a time on the replay thread. Past it, a size costs more to simulate
/// than the one before, so a huge cap under a huge queue must not warm
/// the sizes no batch reaches: those are warmed when first formed.
const EAGER_BATCH_MAX: u32 = 64;

/// The `(network, batch size)` → [`ServicePoint`] cache.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Per network: `points[net][k - 1]`, grown to the largest size warmed
    /// so far; `None` for a size no batch has had yet.
    points: Vec<Vec<Option<ServicePoint>>>,
    /// Per network: its key at batch size 1, the template of every other.
    scenarios: Vec<Scenario>,
    batch_max: u32,
}

impl ServiceModel {
    /// Compiles and simulates batch sizes `1..=min(batch_max, 64)` of every
    /// network on a pool of `threads` worker threads and returns the cache;
    /// the replay warms every larger size when it first forms it.
    ///
    /// A dispatched batch never holds more than `batch.max_size` requests
    /// nor more than the `queue_cap` the front-end admits, so the batch
    /// sizes are `1..=batch_max`, `batch_max = max(1, min(batch.max_size,
    /// queue_cap))`; batch size 1 is always warmed, because the report
    /// reads it. Each key is one [`Scenario`], run by
    /// [`Scenario::execute`] (what a sweep runs per grid point): the model
    /// is identical whatever `threads` is, and on failure the error of the
    /// first failing key (by network, then batch size) is returned.
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
        let scenarios: Vec<Scenario> = config
            .networks
            .iter()
            .map(|(name, resolution)| {
                Scenario::cycle(name, *resolution, config.mapping, 1, config.arch.clone())
            })
            .collect();
        let eager = batch_max.min(EAGER_BATCH_MAX) as usize;
        // Reduce each row to its point on the worker that made it: rows
        // carried back to this thread pin memory in the workers' glibc
        // malloc arenas, which raised a serving run's peak RSS by up to
        // 1.5x at 2 threads.
        let points = par_map_indexed(scenarios.len() * eager, threads, |i| {
            let (net, at) = (i / eager, i % eager);
            let key = Scenario {
                batch: at as u32 + 1,
                ..scenarios[net].clone()
            };
            point(&key, net * batch_max as usize + at)
        })
        .map_err(ServeError::Service)?;
        Ok(ServiceModel {
            points: points
                .chunks(eager)
                .map(|row| row.iter().copied().map(Some).collect())
                .collect(),
            scenarios,
            batch_max,
        })
    }

    /// The cost of serving network `net` (an index into
    /// [`ServeConfig::networks`]) at batch size `k`, warmed already.
    ///
    /// # Panics
    ///
    /// Panics when `net` is out of range or `k` has not been warmed.
    pub(crate) fn get(&self, net: usize, k: u32) -> &ServicePoint {
        let slot = self.points[net].get((k as usize).wrapping_sub(1));
        match slot {
            Some(Some(point)) => point,
            _ => panic!("batch size {k} not warmed"),
        }
    }

    /// The cost of serving network `net` at batch size `k`, warming it on
    /// this thread the first time it is asked for.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Service`] when the key fails to compile or
    /// simulate.
    pub(crate) fn point(&mut self, net: usize, k: u32) -> Result<ServicePoint, ServeError> {
        let at = k as usize - 1;
        if let Some(Some(point)) = self.points[net].get(at) {
            return Ok(*point);
        }
        assert!(
            k <= self.batch_max,
            "batch size {k} past {}",
            self.batch_max
        );
        let key = Scenario {
            batch: k,
            ..self.scenarios[net].clone()
        };
        let point = point(&key, net * self.batch_max as usize + at).map_err(ServeError::Service)?;
        let slots = &mut self.points[net];
        if slots.len() <= at {
            slots.resize(at + 1, None);
        }
        slots[at] = Some(point);
        Ok(point)
    }

    /// The largest batch size the queue can form: no key past it is ever
    /// warmed.
    pub fn batch_max(&self) -> u32 {
        self.batch_max
    }
}

/// Runs `key` as sweep row `index` and keeps its latency and energy.
fn point(key: &Scenario, index: usize) -> Result<ServicePoint, pimsim_sweep::SweepError> {
    let row = key.execute(index)?;
    Ok(ServicePoint {
        latency: row.latency(),
        energy_pj: row.energy_pj,
    })
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

    /// At any thread count, and whether it was warmed up front or by a
    /// later lookup, every key's point is what the sweep's
    /// `Scenario::execute` gives for that `(network, batch size)`.
    #[test]
    fn model_is_thread_count_independent() -> Result<(), ServeError> {
        let mut c = tiny_config();
        c.batch.max_size = 3;
        for threads in [1, 4] {
            let mut model = ServiceModel::warm(&c, threads)?;
            assert_eq!(model.batch_max(), 3);
            for (net, (name, resolution)) in c.networks.iter().enumerate() {
                for k in (1..=3).rev() {
                    let row = Scenario::cycle(name, *resolution, c.mapping, k, c.arch.clone())
                        .execute(0)
                        .map_err(ServeError::Service)?;
                    let point = model.point(net, k)?;
                    assert_eq!(point, *model.get(net, k));
                    assert_eq!(point.latency, row.latency(), "{name} x{k} t{threads}");
                    assert_eq!(point.energy_pj.to_bits(), row.energy_pj.to_bits());
                }
            }
        }
        Ok(())
    }

    /// Every size of a batch cap up to 64 is warmed up front.
    #[test]
    fn small_batch_caps_are_warmed_whole() -> Result<(), ServeError> {
        let mut c = tiny_config();
        c.batch.max_size = 5;
        let model = ServiceModel::warm(&c, 2)?;
        assert!(model.points.iter().all(|slots| slots.len() == 5));
        assert!(model.points.iter().flatten().all(Option::is_some));
        Ok(())
    }

    /// Past 64, a lookup warms its size alone.
    #[test]
    fn larger_batch_sizes_are_warmed_on_first_use() -> Result<(), ServeError> {
        let mut c = tiny_config();
        c.batch.max_size = 100_000;
        c.queue_cap = 1_000_000;
        let mut model = ServiceModel::warm(&c, 2)?;
        assert_eq!(model.batch_max(), 100_000);
        assert!(model.points.iter().all(|slots| slots.len() == 64));
        let point = model.point(1, 70)?;
        assert_eq!(model.points[0].len(), 64);
        assert_eq!(model.points[1][64..69], [None; 5]);
        assert_eq!(model.points[1][69], Some(point));
        assert!(point.latency >= model.get(1, 64).latency);
        Ok(())
    }

    #[test]
    #[should_panic(expected = "batch size 65 not warmed")]
    fn get_refuses_a_size_not_warmed() {
        let mut c = tiny_config();
        c.batch.max_size = 65;
        if let Ok(model) = ServiceModel::warm(&c, 1) {
            model.get(0, 65);
        }
    }

    #[test]
    fn bigger_batches_cost_no_less_time() -> Result<(), ServeError> {
        let c = tiny_config();
        let mut model = ServiceModel::warm(&c, 2)?;
        for net in 0..2 {
            assert!(model.point(net, 2)?.latency >= model.get(net, 1).latency);
            assert!(model.get(net, 1).latency > SimTime::ZERO);
        }
        assert_eq!(model.batch_max(), 2);
        Ok(())
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
