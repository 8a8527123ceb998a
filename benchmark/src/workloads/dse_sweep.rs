//! `dse-sweep`: the paper's Fig. 3/4 use case through the sweep worker pool.

use pimsim::prelude::*;
use pimsim::sweep::results_to_json;

use super::{Ctx, Dominant, Job, Prepared, Size, Workload, THREADS};
use crate::digest::fnv1a_hex;
use crate::rng::Rng;
use crate::trace::Tracer;

/// See [`Workload::why`].
pub struct DseSweep;

/// The grid as JSON text, the way a user would hand it to `pimsim sweep`.
pub fn grid_json(size: Size) -> String {
    let doc = match size {
        Size::Full => serde_json::json!({
            "networks": ["alexnet", "squeezenet", "resnet18", "vgg8"],
            "rob_sizes": [1, 4, 8, 16],
            "mappings": ["performance-first", "utilization-first"],
            "batches": [1, 2],
        }),
        Size::Selftest => serde_json::json!({
            "networks": ["tiny_cnn"],
            "rob_sizes": [1, 8],
            "mappings": ["performance-first", "utilization-first"],
        }),
    };
    serde_json::to_string(&doc).expect("grid serialization cannot fail")
}

/// The order the grid's scenarios run in: a permutation drawn from the
/// seed. A uniformly random order rather than shuffled axes: with 16 of 64
/// points large (batch 2 of the two big networks), some two of them
/// overlap on the two workers under almost every permutation, so peak
/// memory and pool balance vary little from seed to seed; shuffled axes
/// made the large points either always or never adjacent, and peak
/// resident memory jumped between 28 and 33 MiB with the seed.
pub fn scenario_order(seed: u64, points: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points).collect();
    Rng::new(seed, 0xd5e).shuffle(&mut order);
    order
}

impl Workload for DseSweep {
    fn name(&self) -> &'static str {
        "dse-sweep"
    }

    fn why(&self) -> &'static str {
        "64-point grid (4 networks x rob 1/4/8/16 x 2 mappings x batch 1/2, seeded order) on the 2-thread sweep pool: per-point compile and short sims at non-default arch corners; pool imbalance shows here"
    }

    fn dominant(&self) -> Dominant {
        Dominant::Layer("sweep")
    }

    fn setup(&self, ctx: &Ctx, _t: &mut Tracer) -> Result<Box<dyn Prepared>, String> {
        let grid_json = grid_json(ctx.size);
        let points = SweepGrid::from_json(&grid_json)
            .map_err(|e| e.to_string())?
            .points();
        Ok(Box::new(SweepState {
            grid_json,
            order: scenario_order(ctx.seed, points),
            job: format!("grid.p{points}"),
            last_json: None,
        }))
    }
}

struct SweepState {
    grid_json: String,
    /// Position `i` of a pass runs scenario `order[i]` of the grid.
    order: Vec<usize>,
    /// The pass's one job, named after the grid size.
    job: String,
    /// The rows of the latest pass, rendered; what `verify` compares the
    /// single-thread run against.
    last_json: Option<String>,
}

impl SweepState {
    /// Parses the grid and expands it into scenarios in the seeded order.
    fn scenarios(&self, t: &mut Tracer) -> Result<Vec<Scenario>, String> {
        let grid = t
            .span("sweep.from_json", "", |_| {
                SweepGrid::from_json(&self.grid_json)
            })
            .map_err(|e| e.to_string())?;
        let expanded = t
            .span("sweep.scenarios", "", |_| grid.scenarios())
            .map_err(|e| e.to_string())?;
        if expanded.len() != self.order.len() {
            return Err(format!(
                "grid expands to {} scenarios, expected {}",
                expanded.len(),
                self.order.len()
            ));
        }
        Ok(self.order.iter().map(|&i| expanded[i].clone()).collect())
    }

    fn run(&self, threads: usize, t: &mut Tracer) -> Result<String, String> {
        let scenarios = self.scenarios(t)?;
        let points = scenarios.len();
        let rows = t
            .span_counted("sweep.run_scenarios", &format!("{threads} threads"), |_| {
                let out = run_scenarios(scenarios, threads);
                (out, vec![("points", points as u64)])
            })
            .map_err(|e| e.to_string())?;
        if rows.len() != points {
            return Err(format!("{} rows for {points} points", rows.len()));
        }
        if let Some(row) = rows.iter().find(|r| r.latency_ps == 0 || r.events == 0) {
            return Err(format!("point {} simulated nothing", row.index));
        }
        Ok(t.span("sweep.results_to_json", "", |_| results_to_json(&rows)))
    }
}

impl Prepared for SweepState {
    fn pass(&mut self, t: &mut Tracer) -> Vec<Job> {
        let name = self.job.clone();
        vec![t.job(&name, |t| match self.run(THREADS, t) {
            Ok(json) => {
                let digest = fnv1a_hex(json.as_bytes());
                self.last_json = Some(json);
                Job::done(name.as_str(), digest, Ok(()))
            }
            Err(e) => Job::failed(name.as_str(), e),
        })]
    }

    /// The campaign output must not depend on the thread count.
    fn verify(&mut self) -> Vec<Job> {
        let name = format!("{}@1thread", self.job);
        let job = match (self.run(1, &mut Tracer::disabled()), &self.last_json) {
            (Ok(one), Some(two)) => {
                let same = if one == *two {
                    Ok(())
                } else {
                    Err(format!(
                        "sweep JSON at 1 thread differs from {THREADS} threads"
                    ))
                };
                Job::done(name.as_str(), fnv1a_hex(one.as_bytes()), same)
            }
            (Ok(_), None) => Job::failed(name.as_str(), "no pass ran before verify"),
            (Err(e), _) => Job::failed(name.as_str(), e),
        };
        vec![job]
    }

    /// Every point once more, serially, through `Scenario::execute` —
    /// exactly what a pool worker runs. Their sum over `THREADS` times the
    /// pool's wall clock is the pool's parallel efficiency.
    fn probes(&mut self, t: &mut Tracer) {
        let Ok(scenarios) = self.scenarios(&mut Tracer::disabled()) else {
            return;
        };
        for (index, scenario) in scenarios.iter().enumerate() {
            t.span_counted("sweep.execute", &scenario.display_label(), |_| {
                let row = scenario.execute(index);
                let events = row.as_ref().map_or(0, |r| r.events);
                ((), vec![("points", 1), ("events", events)])
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_seeded_and_always_a_permutation_of_the_same_points() {
        let grid = SweepGrid::from_json(&grid_json(Size::Full)).unwrap();
        assert_eq!(grid.points(), 64);
        assert_eq!(grid.scenarios().unwrap().len(), 64);
        assert_eq!(scenario_order(1, 64), scenario_order(1, 64));
        assert_ne!(scenario_order(1, 64), scenario_order(2, 64));
        for seed in [1, 2, 3] {
            let mut order = scenario_order(seed, 64);
            order.sort_unstable();
            assert_eq!(order, (0..64).collect::<Vec<_>>());
        }
        let small = SweepGrid::from_json(&grid_json(Size::Selftest)).unwrap();
        assert_eq!(small.scenarios().unwrap().len(), 4);
    }
}
