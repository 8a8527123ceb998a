//! `serve-replay`: the open-loop queueing replay over long horizons.

use pimsim::prelude::*;
use pimsim::serve::{ArrivalProcess, ServiceModel};

use super::{Ctx, Dominant, Job, Prepared, Size, Workload, THREADS};
use crate::digest::fnv1a_hex;
use crate::trace::Tracer;

/// See [`Workload::why`].
pub struct ServeReplay;

/// Simulated requests each config generates at full size (rate x horizon).
const REQUESTS_PER_CONFIG: f64 = 750_000.0;
/// Horizon divisor under `--selftest`.
const SELFTEST_SHRINK: f64 = 200.0;

/// The four serving configs for `seed`; the arrival streams are the only
/// seeded input.
fn configs(seed: u64, size: Size) -> Vec<(String, ServeConfig)> {
    let zoo = |names: &[&str]| {
        names
            .iter()
            .map(|n| (n.to_string(), pimsim::sweep::default_resolution(n)))
            .collect::<Vec<_>>()
    };
    let shrink = match size {
        Size::Full => 1.0,
        Size::Selftest => SELFTEST_SHRINK,
    };
    let tune = |mut c: ServeConfig, rate: f64| {
        c.seed = seed;
        c.rate_rps = rate;
        let horizon_ps = REQUESTS_PER_CONFIG / shrink / rate * 1e12;
        c.duration = SimTime::from_ps(horizon_ps as u64);
        c
    };

    // Poisson below capacity: no drops, short queues.
    let clean = tune(ServeConfig::new(zoo(&["tiny_mlp"])), 100_000.0);

    // Poisson at about ten times what one instance sustains: the bounded
    // queue drops most arrivals, and without drain some stay queued.
    let mut overload = tune(ServeConfig::new(zoo(&["tiny_cnn"])), 100_000.0);
    overload.drain = false;

    // Fixed-rate arrivals for two networks over four instances.
    let mut fixed = tune(ServeConfig::new(zoo(&["tiny_mlp", "tiny_cnn"])), 40_000.0);
    fixed.arrivals = ArrivalProcess::Fixed;
    fixed.instances = 4;

    // On/off bursts into a deeper batch with a longer timeout.
    let mut bursty = tune(ServeConfig::new(zoo(&["tiny_mlp"])), 100_000.0);
    bursty.arrivals = ArrivalProcess::Bursty;
    bursty.batch = "8/100us".parse().expect("literal batch policy parses");

    // The request count is part of the job name, so full-size and
    // self-test digests sit side by side in `expected.json`.
    let requests = REQUESTS_PER_CONFIG / shrink;
    [
        ("poisson-clean", clean),
        ("poisson-overload", overload),
        ("fixed-x4", fixed),
        ("bursty-batch8", bursty),
    ]
    .into_iter()
    .map(|(name, config)| (format!("{name}.r{requests}"), config))
    .collect()
}

impl Workload for ServeReplay {
    fn name(&self) -> &'static str {
        "serve-replay"
    }

    fn why(&self) -> &'static str {
        "serve() on tiny_mlp/tiny_cnn over long horizons, ~3 M simulated requests per pass in 4 configs (clean, 10x overload, fixed x 4 instances, bursty 8/100us): queueing replay, not warm-up, does the work"
    }

    fn dominant(&self) -> Dominant {
        Dominant::ServeReplay
    }

    fn setup(&self, ctx: &Ctx, _t: &mut Tracer) -> Result<Box<dyn Prepared>, String> {
        let configs = configs(ctx.seed, ctx.size);
        for (name, config) in &configs {
            config.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(Box::new(ServeState { configs }))
    }
}

struct ServeState {
    configs: Vec<(String, ServeConfig)>,
}

impl Prepared for ServeState {
    fn pass(&mut self, t: &mut Tracer) -> Vec<Job> {
        self.configs
            .iter()
            .map(|(name, config)| {
                t.job(name, |t| {
                    let out = t.span_counted("serve.serve", name, |_| {
                        let out = serve(config, THREADS);
                        let requests = out.as_ref().map_or(0, |r| r.generated);
                        (out, vec![("requests", requests)])
                    });
                    match out {
                        Ok(r) => {
                            let accounted = r.finished + r.dropped + r.in_queue;
                            let check = if r.generated == 0 {
                                Err("no request was generated".to_string())
                            } else if r.generated != accounted {
                                Err(format!(
                                    "generated {} != finished {} + dropped {} + in_queue {}",
                                    r.generated, r.finished, r.dropped, r.in_queue
                                ))
                            } else {
                                Ok(())
                            };
                            Job::done(name.as_str(), fnv1a_hex(r.to_json().as_bytes()), check)
                        }
                        Err(e) => Job::failed(name.as_str(), e),
                    }
                })
            })
            .collect()
    }

    /// Warms each config's service cache on its own: `serve()` minus this
    /// is the queueing replay (arrival generation, event heap, report).
    fn probes(&mut self, t: &mut Tracer) {
        for (name, config) in &self.configs {
            t.span("serve.warm", name, |_| {
                let _ = std::hint::black_box(ServiceModel::warm(config, THREADS));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_seed_follows_the_harness_seed() {
        for (_, c) in configs(9, Size::Selftest) {
            assert_eq!(c.seed, 9);
            c.validate().unwrap();
        }
        let horizon = |size| configs(1, size)[0].1.duration.as_ps();
        assert!(horizon(Size::Full) > 100 * horizon(Size::Selftest));
    }
}
