//! `zoo-sim`: the machine model on the paper's networks.

use pimsim::prelude::*;

use super::{
    compile, event_chain_probe, simulate, zoo_network, Ctx, Dominant, Job, Prepared, Size, Workload,
};
use crate::digest::sim_digest;
use crate::trace::Tracer;

/// The job list: one cycle-accurate run per network, default resolutions.
const NETWORKS: [&str; 8] = [
    "lenet",
    "alexnet",
    "squeezenet",
    "vgg8",
    "vgg16",
    "resnet18",
    "resnet34",
    "googlenet",
];

/// See [`Workload::why`].
pub struct ZooSim;

impl Workload for ZooSim {
    fn name(&self) -> &'static str {
        "zoo-sim"
    }

    fn why(&self) -> &'static str {
        "Simulator::run on 8 pre-compiled zoo networks at the paper-default arch: core (ROB, units, frontend on event) does ~all the work; compile, analyze and isa JSON do nothing in the timed region"
    }

    fn dominant(&self) -> Dominant {
        Dominant::Layer("core")
    }

    fn setup(&self, ctx: &Ctx, t: &mut Tracer) -> Result<Box<dyn Prepared>, String> {
        let names: &[&str] = match ctx.size {
            Size::Full => &NETWORKS,
            Size::Selftest => &NETWORKS[..1],
        };
        let arch = t.span("arch.paper_default", "", |_| ArchConfig::paper_default());
        let mut programs = Vec::new();
        for &name in names {
            let net = zoo_network(name, pimsim::sweep::default_resolution(name), t)?;
            programs.push((name, compile(&arch, &net, name, t)?, net));
        }
        Ok(Box::new(ZooSimState { arch, programs }))
    }
}

struct ZooSimState {
    arch: ArchConfig,
    programs: Vec<(&'static str, Program, Network)>,
}

impl Prepared for ZooSimState {
    fn pass(&mut self, t: &mut Tracer) -> Vec<Job> {
        self.programs
            .iter()
            .map(|(name, program, _)| {
                t.job(name, |t| {
                    match simulate("core.simulate", &self.arch, program, name, t) {
                        Ok(r) => Job::done(*name, sim_digest(&r), Ok(())),
                        Err(e) => Job::failed(*name, e),
                    }
                })
            })
            .collect()
    }

    /// The rungs of the layer-gap ladder the pass does not give: the bare
    /// kernel, the machine at `rob = 1` (the difference to the pass is the
    /// ROB's share), and the behaviour-level baseline, whose time is
    /// recorded only so "under 1 % of any pass" stays a checked fact.
    fn probes(&mut self, t: &mut Tracer) {
        event_chain_probe(t);
        let rob1 = self.arch.clone().with_rob(1);
        for (name, program, net) in &self.programs {
            // A failure here would have failed the same job in the pass.
            let _ = simulate("core.simulate_rob1", &rob1, program, name, t);
            t.span("baseline.run", name, |_| {
                let _ = std::hint::black_box(BaselineSimulator::new(&self.arch).run(net));
            });
        }
    }
}
