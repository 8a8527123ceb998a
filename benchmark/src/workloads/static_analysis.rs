//! `static-analysis`: `check` and `bound` on pre-compiled programs.

use pimsim::prelude::*;

use super::{compile, simulate, zoo_network, Ctx, Dominant, Job, Prepared, Size, Workload};
use crate::digest::fnv1a_hex;
use crate::trace::Tracer;

/// The job list, `(network, resolution)`. `lenet` runs at 48, not its
/// default 64: `bounds` is super-linear in its 5-core program (0.6 s at
/// 48, 2.9 s at 64) and three set-ups plus five timed passes of the
/// 64-pixel program do not fit the benchmark's time budget. The 64-pixel
/// program is a traced-run probe instead.
const JOBS: [(&str, u32); 4] = [
    ("alexnet", 64),
    ("squeezenet", 64),
    ("resnet18", 64),
    ("lenet", 48),
];

/// `bounds` probes of the traced run: the programs on which its cost per
/// instruction is worst.
const PROBES: [(&str, u32); 3] = [("lenet", 64), ("vgg16", 32), ("vgg8", 32)];

/// The self-test job.
const SELFTEST: [(&str, u32); 1] = [("lenet", 32)];

/// See [`Workload::why`].
pub struct StaticAnalysis;

impl Workload for StaticAnalysis {
    fn name(&self) -> &'static str {
        "static-analysis"
    }

    fn why(&self) -> &'static str {
        "analyze then bounds on 4 pre-compiled programs: bounds is super-linear and the one layer where a single user command takes seconds; core does nothing in the timed region"
    }

    fn dominant(&self) -> Dominant {
        Dominant::Layer("analyze")
    }

    fn setup(&self, ctx: &Ctx, t: &mut Tracer) -> Result<Box<dyn Prepared>, String> {
        let jobs: &[(&str, u32)] = match ctx.size {
            Size::Full => &JOBS,
            Size::Selftest => &SELFTEST,
        };
        let arch = t.span("arch.paper_default", "", |_| ArchConfig::paper_default());
        let mut programs = Vec::new();
        for &(name, resolution) in jobs {
            let label = format!("{name}@{resolution}");
            let net = zoo_network(name, resolution, t)?;
            let program = compile(&arch, &net, &label, t)?;
            // What the `bound <= simulated` invariant is checked against.
            let simulated = simulate("core.simulate", &arch, &program, &label, t)?.latency;
            programs.push(Target {
                label,
                program,
                simulated,
            });
        }
        Ok(Box::new(AnalysisState {
            arch,
            programs,
            probe: ctx.size == Size::Full,
        }))
    }
}

struct Target {
    label: String,
    program: Program,
    simulated: SimTime,
}

struct AnalysisState {
    arch: ArchConfig,
    programs: Vec<Target>,
    probe: bool,
}

fn check(arch: &ArchConfig, program: &Program, label: &str, t: &mut Tracer) -> Analysis {
    t.span_counted("analyze.check", label, |_| {
        let analysis = analyze(program, arch);
        let instrs = program.total_instructions() as u64;
        (analysis, vec![("instructions", instrs)])
    })
}

fn bound(arch: &ArchConfig, program: &Program, label: &str, t: &mut Tracer) -> BoundsReport {
    t.span_counted("analyze.bounds", label, |_| {
        let report = bounds(program, arch);
        let instrs = program.total_instructions() as u64;
        (report, vec![("instructions", instrs)])
    })
}

impl Prepared for AnalysisState {
    fn pass(&mut self, t: &mut Tracer) -> Vec<Job> {
        let mut jobs = Vec::new();
        for target in &self.programs {
            let label = target.label.as_str();
            let name = format!("check:{label}");
            jobs.push(t.job(&name, |t| {
                let analysis = check(&self.arch, &target.program, label, t);
                let clean = if analysis.has_errors() {
                    Err(format!(
                        "compiled program not clean: {}",
                        analysis.summary()
                    ))
                } else {
                    Ok(())
                };
                Job::done(
                    name.as_str(),
                    fnv1a_hex(analysis.to_json().as_bytes()),
                    clean,
                )
            }));
            let name = format!("bounds:{label}");
            jobs.push(t.job(&name, |t| {
                let report = bound(&self.arch, &target.program, label, t);
                let lb = SimTime::from_ps(report.latency_lb_ps);
                let sound = if lb <= target.simulated {
                    Ok(())
                } else {
                    Err(format!("bound {lb} exceeds simulated {}", target.simulated))
                };
                let digest = format!(
                    "lb={}ps report={}",
                    report.latency_lb_ps,
                    fnv1a_hex(report.to_json().as_bytes())
                );
                Job::done(name.as_str(), digest, sound)
            }));
        }
        jobs
    }

    fn probes(&mut self, t: &mut Tracer) {
        if !self.probe {
            return;
        }
        for (name, resolution) in PROBES {
            let label = format!("{name}@{resolution}");
            let Ok(net) = zoo_network(name, resolution, t) else {
                continue;
            };
            let Ok(program) = compile(&self.arch, &net, &label, t) else {
                continue;
            };
            check(&self.arch, &program, &label, t);
            bound(&self.arch, &program, &label, t);
        }
    }
}
