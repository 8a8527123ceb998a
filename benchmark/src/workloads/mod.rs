//! The six workloads and the protocol they share.
//!
//! Closed loop, one client: the harness issues the next job when the
//! previous one returns. A *job* is one operation; a *pass* is the
//! workload's fixed job list once. Each workload says here why it exists;
//! `README.md` repeats that next to the measured sizing.

use std::path::PathBuf;

use pimsim::event::{EventCtx, Kernel, World};
use pimsim::prelude::SimTime;

use crate::trace::Tracer;

pub mod cli_pipeline;
pub mod dse_sweep;
pub mod mesh_traffic;
pub mod serve_replay;
pub mod static_analysis;
pub mod zoo_sim;

/// Worker threads wherever a layer takes a thread count. A constant, not
/// `available_parallelism()`: the numbers must not move when the harness
/// lands on a wider host, and the reference box has two cores.
pub const THREADS: usize = 2;

/// How much work a pass holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured job list.
    Full,
    /// The smallest input per workload, for `--selftest`.
    Selftest,
}

/// What a set-up needs besides the workload itself.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `--seed` every generated input derives from.
    pub seed: u64,
    /// Full or self-test job list.
    pub size: Size,
    /// Scratch directory inside the checkout (`benchmark/out`).
    pub out_dir: PathBuf,
    /// The release `pimsim` binary `run.sh` built.
    pub pimsim_bin: PathBuf,
}

/// The outcome of one operation: its name within the pass and either the
/// digest of its outputs or the reason it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique within a pass; keys the digest in `expected.json`.
    pub name: String,
    /// `Ok(digest)` or `Err(why it failed)`.
    pub result: Result<String, String>,
}

impl Job {
    /// A job that returned; `check` turns a broken invariant into a failure.
    pub fn done(name: impl Into<String>, digest: String, check: Result<(), String>) -> Job {
        Job {
            name: name.into(),
            result: check.map(|()| digest),
        }
    }

    /// A job whose call errored.
    pub fn failed(name: impl Into<String>, why: impl ToString) -> Job {
        Job {
            name: name.into(),
            result: Err(why.to_string()),
        }
    }
}

/// What a workload claims most of its traced pass is spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominant {
    /// Self time of this layer's spans.
    Layer(&'static str),
    /// Of the children's wall clock: `isa` library time (from the
    /// in-process replays) plus whatever no library call accounts for.
    IsaAndProcessOverhead,
    /// `serve()` minus its standalone service-cache warm-up.
    ServeReplay,
}

/// A workload: a named, seeded job list with a stated reason to exist.
pub trait Workload {
    /// The `--workload` name.
    fn name(&self) -> &'static str;

    /// One line on which layer the workload stresses and why it exists.
    fn why(&self) -> &'static str;

    /// Where the workload is built to spend its time; that share of the
    /// traced pass is reported as `dominant_share_pct`.
    fn dominant(&self) -> Dominant;

    /// Generates the inputs from the seed and prepares everything the
    /// timed region takes as given.
    fn setup(&self, ctx: &Ctx, t: &mut Tracer) -> Result<Box<dyn Prepared>, String>;
}

/// A set-up workload, ready to run passes.
pub trait Prepared {
    /// Runs the job list once.
    fn pass(&mut self, t: &mut Tracer) -> Vec<Job>;

    /// Output checks too slow to repeat every pass; run once per
    /// benchmark run, outside set-up and timed passes.
    fn verify(&mut self) -> Vec<Job> {
        Vec::new()
    }

    /// Traced run only: extra calls that give the per-layer metrics the
    /// pass itself cannot (other arch corners, serial baselines,
    /// in-process replays).
    fn probes(&mut self, _t: &mut Tracer) {}

    /// Peak resident memory when it is not this process's own `VmHWM`
    /// (`cli-pipeline`: the largest spawned child).
    fn peak_rss_mb(&self) -> Option<f64> {
        None
    }
}

/// Every workload, in reporting order.
pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(zoo_sim::ZooSim),
        Box::new(mesh_traffic::MeshTraffic),
        Box::new(static_analysis::StaticAnalysis),
        Box::new(cli_pipeline::CliPipeline),
        Box::new(dse_sweep::DseSweep),
        Box::new(serve_replay::ServeReplay),
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all().into_iter().find(|w| w.name() == name)
}

/// A zoo network at its conventional resolution, inside an `nn.zoo` span.
pub(crate) fn zoo_network(
    name: &str,
    resolution: u32,
    t: &mut Tracer,
) -> Result<pimsim::prelude::Network, String> {
    t.span("nn.zoo", name, |_| {
        pimsim::nn::zoo::by_name(name, resolution)
            .ok_or_else(|| format!("zoo has no network `{name}` at {resolution}"))
    })
}

/// Compiles `net` for `arch` inside a `compiler.compile` span that counts
/// the instructions produced.
pub(crate) fn compile(
    arch: &pimsim::prelude::ArchConfig,
    net: &pimsim::prelude::Network,
    detail: &str,
    t: &mut Tracer,
) -> Result<pimsim::prelude::Program, String> {
    t.span_counted("compiler.compile", detail, |_| {
        let out = pimsim::prelude::Compiler::new(arch)
            .compile(net)
            .map(|c| c.program)
            .map_err(|e| format!("compile {detail}: {e}"));
        let instrs = out.as_ref().map_or(0, |p| p.total_instructions() as u64);
        (out, vec![("instructions", instrs)])
    })
}

/// Runs `program` on a fresh `Simulator` for `arch` inside a span called
/// `span` that counts events, instructions and messages (a message is one
/// send/recv pair, so half the transfer-class instructions).
pub(crate) fn simulate(
    span: &'static str,
    arch: &pimsim::prelude::ArchConfig,
    program: &pimsim::prelude::Program,
    detail: &str,
    t: &mut Tracer,
) -> Result<pimsim::prelude::SimReport, String> {
    t.span_counted(span, detail, |t| {
        let out = pimsim::prelude::Simulator::new(arch)
            .run(program)
            .map_err(|e| format!("simulate {detail}: {e}"));
        let counts = match (&out, t.is_on()) {
            (Ok(r), true) => vec![
                ("events", r.events),
                ("instructions", r.instructions),
                ("msgs", r.class_counts[2] / 2),
            ],
            _ => Vec::new(),
        };
        (out, counts)
    })
}

/// Events in the standalone typed-kernel chain probe.
const CHAIN_EVENTS: u64 = 1_000_000;

/// One chained event hopping `left` more times: the kernel with no model
/// on top, so its ns/event is the floor under every machine figure.
struct Chain(u64);

impl World for Chain {
    type Event = u64;

    fn handle(&mut self, left: u64, ctx: &mut EventCtx<u64>) {
        self.0 += 1;
        if left > 0 {
            ctx.schedule_in(SimTime::from_ps(10), left - 1);
        }
    }
}

/// Traced-run probe: a million chained events through the bare kernel.
pub(crate) fn event_chain_probe(t: &mut Tracer) {
    t.span_counted("event.chain", "typed-kernel", |_| {
        let mut kernel = Kernel::new(Chain(0));
        kernel.schedule_at(SimTime::ZERO, CHAIN_EVENTS - 1);
        kernel.run();
        assert_eq!(kernel.world().0, CHAIN_EVENTS, "chain ran short");
        ((), vec![("events", CHAIN_EVENTS)])
    });
}
