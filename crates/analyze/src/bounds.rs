//! Static performance bounds: a sound lower bound on simulated latency,
//! with the critical path and per-core utilization that justify it.
//!
//! The analyzer prices every node of the cross-core dependence DAG
//! ([`crate::dag`]) with the cost tables the simulator uses ([`CostModel`],
//! vector work classified by [`pimsim_isa::Resolved::vector_shape`]) and
//! paces dispatch with the same [`CostModel::dispatch_interval`] and
//! [`CostModel::decode_offset`] the machine's frontend calls. It computes
//! a longest-path abstract schedule under only the constraints the
//! machine provably enforces:
//!
//! * the frontend dispatches in order, one instruction per dispatch
//!   interval, starting at the decode offset;
//! * an instruction issues no earlier than the completion of every older
//!   instruction it has a RAW/WAW/WAR, global-memory, or channel-FIFO
//!   hazard against;
//! * a unit occupies for at least its minimal (uncontended) service
//!   time — messages pay router traversal plus link serialization for
//!   their Manhattan hop count, global accesses add the memory service
//!   time;
//! * a `recv` completes no earlier than its matched `send`'s delivery;
//! * the vector unit is single-occupancy, so a core's vector work takes
//!   at least its sum of service times.
//!
//! Everything the real machine *adds* — ROB capacity stalls, credit
//! stalls, link and memory contention, VC arbitration — only delays
//! execution further, so the resulting latency is a true lower bound:
//! `bounds(p, arch).latency_lb_ps <= simulate(p, arch).latency` for every
//! program both can handle. CI enforces exactly that inequality over the
//! whole network zoo, making this pass a standing oracle against both
//! analyzer unsoundness and simulator cost-model drift.
//!
//! The transfer minima ([`message_min`], [`memory_access_min`]) are a
//! closed form of what the simulator's `Noc` walks hop by hop; they are
//! public so the simulator crate can pin the two against each other on
//! an idle fabric.

use pimsim_arch::model::CostModel;
use pimsim_arch::ArchConfig;
use pimsim_event::SimTime;
use pimsim_isa::Program;
use serde::{Deserialize, Serialize};

use crate::dag::{Dag, ServiceKind};
use crate::diag::Diagnostic;
use crate::occupancy::{occupancy, ChannelBound, OccupancyReport};
use crate::rendezvous::Fabric;

/// Maximum critical-path hops retained in a [`BoundsReport`]; longer
/// paths keep their *last* hops (closest to completion) and record the
/// full length in [`BoundsReport::critical_path_len`].
pub const MAX_CRITICAL_HOPS: usize = 256;

/// Minimal uncontended delivery time of a `core → core` message carrying
/// `elems` elements: Manhattan-distance router traversals plus link
/// serialization of the payload flits (a self-send is a local copy).
/// Pinned against `Noc::message` on an idle fabric by the simulator's
/// test suite.
pub fn message_min(model: &CostModel, from: u16, to: u16, elems: u32) -> SimTime {
    if from == to {
        return model.local_copy_cost(elems).time;
    }
    let hops = model.config().resources.mesh_hops(from, to);
    model.router_latency() * hops as u64 + model.link_serialization(model.flits_for_elems(elems))
}

/// Minimal uncontended `gload`/`gstore` time from `core`: the trip to the
/// memory node attached to core 0 (one extra link) plus payload
/// serialization plus the memory service time. Pinned against
/// `Noc::memory_access` on an idle fabric.
pub fn memory_access_min(model: &CostModel, core: u16, elems: u32) -> SimTime {
    let hops = model.config().resources.mesh_hops(core, 0) + 1;
    model.router_latency() * hops as u64
        + model.link_serialization(model.flits_for_elems(elems))
        + model.global_mem_cost(elems).time
}

/// Minimal unit-service time of one DAG node.
fn service_time(model: &CostModel, core: u16, service: &ServiceKind) -> SimTime {
    match service {
        ServiceKind::Vector(s) => model.vector_cost(s.len, s.reads, s.writes).time,
        ServiceKind::Matrix {
            input_len,
            output_len,
            xbar_count,
        } => model.mvm_cost(*input_len, *output_len, *xbar_count).time,
        ServiceKind::Send { to, elems } => message_min(model, core, *to, *elems),
        // A recv's completion is driven by its matched send's delivery.
        ServiceKind::Recv => SimTime::ZERO,
        ServiceKind::GlobalMem { elems } => memory_access_min(model, core, *elems),
    }
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalHop {
    /// Core executing the instruction.
    pub core: u16,
    /// Instruction index in the core's program.
    pub pc: u32,
    /// Canonical assembly text of the instruction.
    pub instr: String,
    /// Time this hop adds beyond its earliest issue (service time, or
    /// rendezvous wait for a `recv`), in picoseconds.
    pub cost_ps: u64,
    /// The hop's completion time bound, in picoseconds.
    pub finish_ps: u64,
}

/// Per-core schedule bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreBound {
    /// Core index.
    pub core: u16,
    /// Instructions the frontend dispatches (`0` when the core is empty
    /// or its execution order is not statically known).
    pub instructions: u32,
    /// Lower bound on the core's execution-unit busy time: the sum of
    /// minimal service times over its matrix/vector/transfer work, in
    /// picoseconds.
    pub busy_lb_ps: u64,
    /// Lower bound on when this core finishes, in picoseconds.
    pub finish_lb_ps: u64,
    /// `busy_lb_ps` over the network-level latency bound — a lower bound
    /// on the core's busy fraction *of the bound* (the true utilization
    /// against a longer simulated run can be lower). `0` for an empty
    /// program.
    pub utilization_lb: f64,
}

/// The machine-readable static bounds artifact (tentpole deliverable):
/// sound latency lower bound + critical path, per-core utilization
/// bounds, and per-channel credit occupancy. Designed as a prune filter
/// for design-space search: a candidate whose *lower bound* already
/// exceeds the incumbent's simulated latency can be discarded without
/// simulating.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundsReport {
    /// Version of this JSON schema.
    pub schema_version: u32,
    /// `true` when every core's execution order was statically known,
    /// the rendezvous matching was complete, and the dependence graph
    /// was acyclic — i.e. the full analysis ran. When `false` the bound
    /// is still sound but degrades to frontend-pacing terms.
    pub complete: bool,
    /// Which term produced the latency bound: `critical-path`,
    /// `vector-unit-throughput`, `frontend-pacing`, or `unanalyzable`
    /// (program rejected by the checker; bound is zero).
    pub bound_source: String,
    /// End-to-end latency lower bound, picoseconds.
    pub latency_lb_ps: u64,
    /// End-to-end latency lower bound, nanoseconds.
    pub latency_lb_ns: f64,
    /// Full critical-path length in hops (`0` unless `bound_source` is
    /// `critical-path`).
    pub critical_path_len: u32,
    /// The last (up to [`MAX_CRITICAL_HOPS`]) hops of the critical path,
    /// in execution order.
    pub critical_path: Vec<CriticalHop>,
    /// Per-core bounds, one entry per core in the program.
    pub cores: Vec<CoreBound>,
    /// Per-channel credit occupancy, sorted by `(sender, receiver, tag)`.
    pub channels: Vec<ChannelBound>,
    /// Smallest uniform per-VC credit count at which the abstract
    /// transfer execution stays deadlock-free; `None` for transfer-free
    /// or unanalyzable programs.
    pub min_credits_deadlock_free: Option<u32>,
    /// Credit count beyond which more credits cannot change any
    /// channel's behavior.
    pub credit_knee: u32,
    /// The checker diagnostics for the program (errors explain an
    /// `unanalyzable` report; warnings ride along for context).
    pub diagnostics: Vec<Diagnostic>,
}

impl BoundsReport {
    /// Serializes the report as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bounds serialization cannot fail")
    }
}

/// Computes the static performance bounds for `program` on `arch`.
///
/// Soundness contract: for every program the simulator runs to
/// completion, `latency_lb_ps` never exceeds the simulated latency (in
/// picoseconds) under any mapping or routing policy of the same
/// [`ArchConfig`]. Programs the checker rejects with errors yield a
/// trivial (zero) bound with `bound_source = "unanalyzable"`.
pub fn bounds(program: &Program, arch: &ArchConfig) -> BoundsReport {
    let (analysis, walk) = crate::analyze_walk(program, arch);
    if analysis.has_errors() {
        return BoundsReport {
            schema_version: crate::SCHEMA_VERSION,
            complete: false,
            bound_source: "unanalyzable".into(),
            latency_lb_ps: 0,
            latency_lb_ns: 0.0,
            critical_path_len: 0,
            critical_path: Vec::new(),
            cores: Vec::new(),
            channels: Vec::new(),
            min_credits_deadlock_free: None,
            credit_knee: 0,
            diagnostics: analysis.diagnostics,
        };
    }
    let dag = Dag::build(program, &walk.traces);
    price(program, arch, analysis, walk.fabric.as_ref(), &dag)
}

/// The critical-path tie-break, stated on the machine's full pairwise
/// hazard relation rather than on the edges the DAG happens to store: of
/// the older same-core nodes `i` [must follow](crate::dag::DagNode::must_follow)
/// that complete exactly at `i`'s start, the one with the lowest index.
///
/// Any such node reaches `i` through stored edges, and completion times
/// never decrease along a path, so every node on that path completes at
/// `at` too: walking stored edges backwards through nodes completing at
/// `at` visits all candidates. `seen` marks visited nodes with `i + 1`;
/// `stack` is the walk's scratch space, empty between calls.
fn determining_pred(
    dag: &Dag,
    completion: &[SimTime],
    i: usize,
    at: SimTime,
    seen: &mut [u32],
    stack: &mut Vec<usize>,
) -> usize {
    let mark = i as u32 + 1;
    let mut best = None;
    stack.push(i);
    while let Some(x) = stack.pop() {
        for &p in dag.preds(x) {
            let p = p as usize;
            if completion[p] == at && seen[p] != mark {
                seen[p] = mark;
                stack.push(p);
                if dag.nodes[i].must_follow(&dag.nodes[p]) {
                    best = Some(best.map_or(p, |b: usize| b.min(p)));
                }
            }
        }
    }
    best.expect("a hazard-bound start is some predecessor's completion")
}

/// Prices `dag` and assembles the report for an error-free `analysis`;
/// `fabric` is the one its rendezvous check drained, if complete.
pub(crate) fn price(
    program: &Program,
    arch: &ArchConfig,
    analysis: crate::Analysis,
    fabric: Option<&Fabric>,
    dag: &Dag,
) -> BoundsReport {
    let model = CostModel::new(arch);
    let occ = fabric.map_or_else(OccupancyReport::default, |f| {
        occupancy(f, arch.noc.virtual_channels)
    });

    let n = dag.nodes.len();
    let interval = model.dispatch_interval();
    let decode = model.decode_offset();
    let service: Vec<SimTime> = dag
        .nodes
        .iter()
        .map(|nd| service_time(&model, nd.core, &nd.service))
        .collect();
    let dispatch_lb: Vec<SimTime> = dag
        .nodes
        .iter()
        .map(|nd| decode + interval * nd.dispatch_index as u64)
        .collect();

    // Longest-path schedule: earliest possible issue and completion per
    // node under the enforced constraints only. A cyclic graph (see
    // `Dag::topological_order`) falls back to the pacing terms below,
    // which stays sound.
    let topo = dag.topological_order();
    let acyclic = topo.is_some();
    let mut start = vec![SimTime::ZERO; n];
    let mut completion = vec![SimTime::ZERO; n];
    for i in topo.into_iter().flatten() {
        let i = i as usize;
        let preds = dag.preds(i).iter();
        let s = preds.fold(dispatch_lb[i], |s, &p| s.max(completion[p as usize]));
        start[i] = s;
        let sent = dag.nodes[i].paired_send.map(|sp| completion[sp as usize]);
        completion[i] = (s + service[i]).max(sent.unwrap_or(SimTime::ZERO));
    }

    // Per-core terms and the global bound.
    let mut crit_max = SimTime::ZERO;
    let mut vector_max = SimTime::ZERO;
    let mut frontend_max = SimTime::ZERO;
    let mut cores_out = Vec::with_capacity(dag.cores.len());
    for (c, ct) in dag.cores.iter().enumerate() {
        let frontend = if ct.dispatches > 0 {
            decode + interval * (ct.dispatches - 1) as u64
        } else if ct.has_instructions {
            decode
        } else {
            SimTime::ZERO
        };
        let mut busy = SimTime::ZERO;
        let mut node_max = SimTime::ZERO;
        let mut vec_sum = SimTime::ZERO;
        let mut first_vec: Option<usize> = None;
        for i in ct.nodes.clone() {
            busy += service[i];
            if acyclic {
                node_max = node_max.max(completion[i]);
            }
            if matches!(dag.nodes[i].service, ServiceKind::Vector(_)) {
                if first_vec.is_none() {
                    first_vec = Some(i);
                }
                vec_sum += service[i];
            }
        }
        // The vector unit is single-occupancy: all of this core's vector
        // work fits after the first vector op's earliest dispatch.
        let vector = match first_vec {
            Some(i) => dispatch_lb[i] + vec_sum,
            None => SimTime::ZERO,
        };
        let finish = frontend.max(vector).max(node_max);
        crit_max = crit_max.max(node_max);
        vector_max = vector_max.max(vector);
        frontend_max = frontend_max.max(frontend);
        cores_out.push(CoreBound {
            core: c as u16,
            instructions: ct.dispatches,
            busy_lb_ps: busy.as_ps(),
            finish_lb_ps: finish.as_ps(),
            utilization_lb: 0.0, // filled once the latency bound is known
        });
    }
    let latency = crit_max.max(vector_max).max(frontend_max);
    for cb in &mut cores_out {
        cb.utilization_lb = if latency.is_zero() {
            0.0
        } else {
            cb.busy_lb_ps as f64 / latency.as_ps() as f64
        };
    }
    let bound_source = if !latency.is_zero() && crit_max == latency {
        "critical-path"
    } else if !latency.is_zero() && vector_max == latency {
        "vector-unit-throughput"
    } else {
        "frontend-pacing"
    };

    // Critical path: backtrace the deterministic argmax completion.
    let mut critical_path = Vec::new();
    let mut critical_path_len = 0u32;
    if bound_source == "critical-path" {
        let sink = (0..n)
            .find(|&i| completion[i] == latency)
            .expect("crit_max came from a node");
        // A hop is determined by its matched send when the delivery
        // outlasts its own service, else by a hazard predecessor when one
        // held its issue past the dispatch time, else by nothing.
        let mut seen = vec![0u32; n];
        let mut stack = Vec::new();
        let mut chain = vec![sink];
        loop {
            let i = *chain.last().expect("chain starts at the sink");
            let sent = dag.nodes[i].paired_send.map(|sp| sp as usize);
            let det = match sent {
                Some(sp) if completion[sp] > start[i] + service[i] => sp,
                _ if start[i] > dispatch_lb[i] => {
                    determining_pred(dag, &completion, i, start[i], &mut seen, &mut stack)
                }
                _ => break,
            };
            chain.push(det);
        }
        chain.reverse();
        critical_path_len = chain.len() as u32;
        let keep = chain.len().saturating_sub(MAX_CRITICAL_HOPS);
        critical_path = chain[keep..]
            .iter()
            .map(|&i| {
                let nd = &dag.nodes[i];
                CriticalHop {
                    core: nd.core,
                    pc: nd.pc,
                    instr: program.cores[nd.core as usize].instrs[nd.pc as usize].to_string(),
                    cost_ps: completion[i].saturating_sub(start[i]).as_ps(),
                    finish_ps: completion[i].as_ps(),
                }
            })
            .collect();
    }

    BoundsReport {
        schema_version: crate::SCHEMA_VERSION,
        complete: acyclic && analysis.rendezvous.complete && dag.cores.iter().all(|c| c.linear),
        bound_source: bound_source.into(),
        latency_lb_ps: latency.as_ps(),
        latency_lb_ns: latency.as_ns_f64(),
        critical_path_len,
        critical_path,
        cores: cores_out,
        channels: occ.channels,
        min_credits_deadlock_free: occ.min_credits_deadlock_free,
        credit_knee: occ.credit_knee,
        diagnostics: analysis.diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_isa::asm::assemble;

    fn arch() -> ArchConfig {
        ArchConfig::small_test()
    }

    #[test]
    fn scalar_only_program_is_paced_by_the_frontend() {
        let p = assemble(".core 0\nnop\nnop\nnop\nhalt\n").unwrap();
        let a = arch();
        let r = bounds(&p, &a);
        let model = CostModel::new(&a);
        let expect = model.decode_offset() + model.dispatch_interval() * 3;
        assert_eq!(r.bound_source, "frontend-pacing");
        assert_eq!(r.latency_lb_ps, expect.as_ps());
        assert!(r.complete, "{r:?}");
        assert_eq!(r.cores[0].instructions, 4);
        assert_eq!(r.cores[0].busy_lb_ps, 0);
    }

    #[test]
    fn dependent_chain_prices_as_critical_path() {
        // Three dependent vector ops: the chain must serialize.
        let p = assemble(
            ".core 0\n\
             vfill [r0+0], 1, 64\n\
             vrelu [r0+64], [r0+0], 64\n\
             vrelu [r0+128], [r0+64], 64\n\
             halt\n",
        )
        .unwrap();
        let a = arch();
        let r = bounds(&p, &a);
        let model = CostModel::new(&a);
        let fill = model.vector_cost(64, 0, 1).time;
        let relu = model.vector_cost(64, 1, 1).time;
        let expect = model.decode_offset() + fill + relu + relu;
        assert_eq!(r.bound_source, "critical-path");
        assert_eq!(r.latency_lb_ps, expect.as_ps());
        assert_eq!(r.critical_path_len, 3);
        assert_eq!(r.critical_path.len(), 3);
        assert_eq!(r.critical_path[0].instr, "vfill [r0+0], 1, 64");
        assert_eq!(r.cores[0].busy_lb_ps, (fill + relu + relu).as_ps());
    }

    #[test]
    fn rendezvous_wait_crosses_cores() {
        let p = assemble(
            ".core 0\n\
             send core1, [r0+0], 64, tag=1\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 64, tag=1\n\
             vrelu [r0+64], [r0+0], 64\n\
             halt\n",
        )
        .unwrap();
        let a = arch();
        let r = bounds(&p, &a);
        let model = CostModel::new(&a);
        let msg = message_min(&model, 0, 1, 64);
        let relu = model.vector_cost(64, 1, 1).time;
        let expect = model.decode_offset() + msg + relu;
        assert_eq!(r.bound_source, "critical-path");
        assert_eq!(r.latency_lb_ps, expect.as_ps());
        // send → recv → vrelu
        let cores: Vec<u16> = r.critical_path.iter().map(|h| h.core).collect();
        assert_eq!(cores, vec![0, 1, 1]);
        assert_eq!(r.min_credits_deadlock_free, Some(1));
    }

    #[test]
    fn error_programs_bound_to_zero() {
        let p = assemble(
            ".core 0\n\
             send core1, [r0+0], 8, tag=1\n\
             halt\n\
             .core 1\n\
             halt\n",
        )
        .unwrap();
        let r = bounds(&p, &arch());
        assert_eq!(r.bound_source, "unanalyzable");
        assert_eq!(r.latency_lb_ps, 0);
        assert!(!r.complete);
        assert!(!r.diagnostics.is_empty());
    }

    #[test]
    fn report_is_deterministic_and_roundtrips() {
        let p = assemble(
            ".core 0\n\
             vfill [r0+0], 1, 32\n\
             send core1, [r0+0], 32, tag=1\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 32, tag=1\n\
             halt\n",
        )
        .unwrap();
        let a = arch();
        let r1 = bounds(&p, &a);
        let r2 = bounds(&p, &a);
        assert_eq!(r1.to_json(), r2.to_json());
        let back: BoundsReport = serde_json::from_str(&r1.to_json()).unwrap();
        assert_eq!(back, r1);
        assert_eq!(r1.schema_version, crate::SCHEMA_VERSION);
    }

    #[test]
    fn self_send_is_rejected_like_the_simulator_rejects_it() {
        // `Program::validate` forbids self-sends, so the local-copy
        // branch of `message_min` only matters for the Noc pin test.
        let p = assemble(
            ".core 0\n\
             send core0, [r0+0], 16, tag=1\n\
             recv core0, [r0+64], 16, tag=1\n\
             halt\n",
        )
        .unwrap();
        let r = bounds(&p, &arch());
        assert_eq!(r.bound_source, "unanalyzable");
        assert_eq!(r.latency_lb_ps, 0);
    }

    #[test]
    fn vector_throughput_floors_independent_work() {
        // Eight independent vfills: no hazards, but one vector unit.
        let mut src = String::from(".core 0\n");
        for i in 0..8 {
            src.push_str(&format!("vfill [r0+{}], 1, 256\n", i * 256));
        }
        src.push_str("halt\n");
        let p = assemble(&src).unwrap();
        let a = arch();
        let r = bounds(&p, &a);
        let model = CostModel::new(&a);
        let fill = model.vector_cost(256, 0, 1).time;
        let expect = model.decode_offset() + fill * 8;
        assert_eq!(r.bound_source, "vector-unit-throughput");
        assert_eq!(r.latency_lb_ps, expect.as_ps());
    }
}
