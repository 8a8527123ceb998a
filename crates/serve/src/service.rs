//! The per-instance service-time model.
//!
//! Every accelerator instance is identical, and serving the same network
//! at the same batch size always costs the same (the cycle-level simulator
//! is deterministic), so the queueing engine never re-simulates: it looks
//! service times up in a cache keyed by `(network, batch size)`. Warming
//! that cache is the only parallel part of a serving run — each key's
//! result lands in its own slot, so the model (and everything derived from
//! it) is independent of the worker-thread count.

use pimsim_compiler::Compiler;
use pimsim_core::Simulator;
use pimsim_event::{par_map_indexed, SimTime};
use pimsim_nn::zoo;

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
    /// Dynamic instructions executed for the batch.
    pub instructions: u64,
    /// Kernel events processed for the batch.
    pub events: u64,
}

/// The warmed `(network, batch size)` → [`ServicePoint`] cache.
#[derive(Debug)]
pub struct ServiceModel {
    /// Row-major: `points[net * batch_max + (k - 1)]`.
    points: Vec<ServicePoint>,
    batch_max: u32,
}

impl ServiceModel {
    /// Compiles and simulates every `(network, batch size 1..=max)` pair
    /// on a pool of `threads` worker threads and returns the cache.
    ///
    /// Results land in per-key slots ([`par_map_indexed`], the pool the
    /// sweep shares), so the model is identical whatever `threads` is; on
    /// failure the error of the smallest-indexed key is returned.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownNetwork`], [`ServeError::Config`] (a
    /// network that cannot be built at its resolution),
    /// [`ServeError::Compile`], or [`ServeError::Sim`].
    pub fn warm(config: &ServeConfig, threads: usize) -> Result<ServiceModel, ServeError> {
        let batch_max = config.batch.max_size;
        let n = config.networks.len() * batch_max as usize;
        let points = par_map_indexed(n, threads, |i| {
            let k = (i % batch_max as usize) as u32 + 1;
            measure(config, i / batch_max as usize, k)
        })?;
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

/// Compiles and simulates one `(network, batch size)` key.
fn measure(config: &ServeConfig, net: usize, k: u32) -> Result<ServicePoint, ServeError> {
    let (name, resolution) = &config.networks[net];
    let network =
        zoo::by_name(name, *resolution).ok_or_else(|| ServeError::UnknownNetwork(name.clone()))?;
    // A degenerate resolution is this key's error.
    network.validate().map_err(|_| {
        ServeError::Config(format!(
            "network `{name}` cannot be built at resolution {resolution}"
        ))
    })?;
    let compiled = Compiler::new(&config.arch)
        .mapping(config.mapping)
        .batch(k)
        .compile(&network)
        .map_err(|e| ServeError::Compile(format!("{name} @ batch {k}: {e}")))?;
    let report = Simulator::new(&config.arch)
        .run(&compiled.program)
        .map_err(|e| ServeError::Sim(format!("{name} @ batch {k}: {e}")))?;
    Ok(ServicePoint {
        latency: report.latency,
        energy_pj: report.energy.total().as_pj(),
        instructions: report.instructions,
        events: report.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_arch::ArchConfig;

    fn tiny_config() -> ServeConfig {
        let mut c = ServeConfig::new(vec![
            ("tiny_mlp".to_string(), 64),
            ("tiny_cnn".to_string(), 64),
        ]);
        c.arch = ArchConfig::small_test();
        c.batch.max_size = 2;
        c
    }

    #[test]
    fn model_is_thread_count_independent() {
        let c = tiny_config();
        let solo = ServiceModel::warm(&c, 1).unwrap();
        let pool = ServiceModel::warm(&c, 4).unwrap();
        for net in 0..2 {
            for k in 1..=2 {
                let a = solo.get(net, k);
                let b = pool.get(net, k);
                assert_eq!(a.latency, b.latency);
                assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits());
                assert_eq!(a.instructions, b.instructions);
                assert_eq!(a.events, b.events);
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
    fn unknown_networks_fail_deterministically() {
        let mut c = tiny_config();
        c.networks[1].0 = "not_a_network".to_string();
        let err = ServiceModel::warm(&c, 4).unwrap_err();
        assert_eq!(err, ServeError::UnknownNetwork("not_a_network".to_string()));
    }
}
