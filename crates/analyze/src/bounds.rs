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

/// Each node's earliest dispatch (the frontend issues one instruction per
/// dispatch interval after the decode offset) and minimal service time.
fn node_terms(model: &CostModel, dag: &Dag) -> (Vec<SimTime>, Vec<SimTime>) {
    let (interval, decode) = (model.dispatch_interval(), model.decode_offset());
    let nodes = dag.nodes.iter();
    let dispatch_lb = nodes
        .clone()
        .map(|nd| decode + interval * nd.dispatch_index as u64);
    let service = nodes.map(|nd| service_time(model, nd.core, &nd.service));
    (dispatch_lb.collect(), service.collect())
}

/// Where [`schedule`]'s walk is at a node.
#[derive(Clone, Copy, PartialEq)]
enum Walk {
    /// Not reached yet.
    Unpriced,
    /// On the walk's stack: its inputs are being priced.
    Open,
    /// Start and completion known.
    Priced,
}

/// The longest-path schedule of `dag`: each node's earliest issue
/// (`dispatch_lb`, raised to its stored predecessors' completions) and
/// completion (issue plus `service`, or its matched send's delivery if
/// later), or `None` when the graph has a cycle. The graph can only be
/// cyclic when a non-linear core kept the rendezvous deadlock check from
/// running; such programs wedge at runtime.
///
/// No successor graph is built: a depth-first walk over each node's
/// inputs (its predecessor list and matched send) prices the inputs
/// first, and reaching a node already on the walk's stack is a cycle.
/// Nodes are taken as roots in index order, and stored predecessors are
/// older nodes of the same core, so when a root is reached all its
/// predecessors are priced: the walk only descends from a recv whose send
/// is not. Pricing each core in program order instead would stall where
/// two cores each receive before they send on independent buffers, which
/// is no cycle (the checker lets it through when a looping core keeps the
/// deadlock search from running).
pub(crate) fn schedule(
    dag: &Dag,
    dispatch_lb: &[SimTime],
    service: &[SimTime],
) -> Option<(Vec<SimTime>, Vec<SimTime>)> {
    let n = dag.nodes.len();
    let mut start = vec![SimTime::ZERO; n];
    let mut completion = vec![SimTime::ZERO; n];
    let mut walk = vec![Walk::Unpriced; n];
    // `(node, inputs visited)`: a node's inputs are its predecessors,
    // then its matched send.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if walk[root] == Walk::Priced {
            continue;
        }
        // Every older node is priced by now, so are `root`'s predecessors:
        // start at its matched send.
        walk[root] = Walk::Open;
        stack.push((root, dag.preds(root).len()));
        while let Some((i, visited)) = stack.last_mut() {
            let (i, preds, sent) = (*i, dag.preds(*i), dag.nodes[*i].paired_send);
            let input = match preds.get(*visited) {
                Some(&p) => Some(p),
                None if *visited == preds.len() => sent,
                None => None,
            };
            *visited += 1;
            if let Some(input) = input {
                let input = input as usize;
                match walk[input] {
                    Walk::Unpriced => {
                        walk[input] = Walk::Open;
                        stack.push((input, 0));
                    }
                    Walk::Open => return None,
                    Walk::Priced => {}
                }
                continue;
            }
            let s = preds
                .iter()
                .fold(dispatch_lb[i], |s, &p| s.max(completion[p as usize]));
            start[i] = s;
            let sent = sent.map_or(SimTime::ZERO, |sp| completion[sp as usize]);
            completion[i] = (s + service[i]).max(sent);
            walk[i] = Walk::Priced;
            stack.pop();
        }
    }
    Some((start, completion))
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
    let (dispatch_lb, service) = node_terms(&model, dag);

    // Longest-path schedule: earliest possible issue and completion per
    // node under the enforced constraints only. A cyclic graph falls back
    // to the pacing terms below, which stays sound.
    let times = schedule(dag, &dispatch_lb, &service);
    let acyclic = times.is_some();
    let (start, completion) =
        times.unwrap_or_else(|| (vec![SimTime::ZERO; n], vec![SimTime::ZERO; n]));

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
        let mut i = sink;
        loop {
            let sent = dag.nodes[i].paired_send.map(|sp| sp as usize);
            let det = match sent {
                Some(sp) if completion[sp] > start[i] + service[i] => sp,
                _ if start[i] > dispatch_lb[i] => {
                    determining_pred(dag, &completion, i, start[i], &mut seen, &mut stack)
                }
                _ => break,
            };
            chain.push(det);
            i = det;
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
#[path = "../../../tests/support/transfer_programs.rs"]
mod transfer_programs;

#[cfg(test)]
mod tests {
    use super::transfer_programs::{build_program, tweak_strategy, xfer_strategy, CORES};
    use super::*;
    use pimsim_isa::asm::assemble;
    use pimsim_isa::IsaError;
    use proptest::prelude::*;

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

    /// The schedule [`schedule`] replaced, as its oracle: Kahn's order
    /// over the successor graph, then one fold per node.
    fn schedule_by_topological_order(
        dag: &Dag,
        dispatch_lb: &[SimTime],
        service: &[SimTime],
    ) -> Option<(Vec<SimTime>, Vec<SimTime>)> {
        let n = dag.nodes.len();
        let mut start = vec![SimTime::ZERO; n];
        let mut completion = vec![SimTime::ZERO; n];
        for i in dag.topological_order()? {
            let i = i as usize;
            let preds = dag.preds(i).iter();
            let s = preds.fold(dispatch_lb[i], |s, &p| s.max(completion[p as usize]));
            start[i] = s;
            let sent = dag.nodes[i].paired_send.map(|sp| completion[sp as usize]);
            completion[i] = (s + service[i]).max(sent.unwrap_or(SimTime::ZERO));
        }
        Some((start, completion))
    }

    type Schedule = Option<(Vec<SimTime>, Vec<SimTime>)>;

    /// `program`'s schedule from the walk and from the oracle, or `None`
    /// when the checker rejects it (`bounds` prices no DAG then).
    fn both_schedules(program: &Program) -> Option<(Schedule, Schedule)> {
        let a = arch();
        let (analysis, walk) = crate::analyze_walk(program, &a);
        if analysis.has_errors() {
            return None;
        }
        let dag = Dag::build(program, &walk.traces);
        let (dispatch_lb, service) = node_terms(&CostModel::new(&a), &dag);
        Some((
            schedule(&dag, &dispatch_lb, &service),
            schedule_by_topological_order(&dag, &dispatch_lb, &service),
        ))
    }

    #[test]
    fn crossed_transfers_beside_a_looping_core_are_not_a_cycle() -> Result<(), IsaError> {
        // Each core receives before it sends, on other channels and
        // buffers: pricing cores in program order would stall on both
        // recvs, but no stored edge holds either send back. The looping
        // core keeps the checker's deadlock search from running.
        let p = assemble(
            ".core 0\n\
             recv core1, [r0+0], 4, tag=1\n\
             send core1, [r0+64], 4, tag=2\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=2\n\
             send core0, [r0+64], 4, tag=1\n\
             halt\n\
             .core 2\n\
             bne r0, r0, 0\n\
             halt\n",
        )?;
        let Some((walked, oracle)) = both_schedules(&p) else {
            panic!("the checker rejected the program");
        };
        assert!(walked.is_some());
        assert_eq!(walked, oracle);
        let r = bounds(&p, &arch());
        assert_eq!(r.bound_source, "critical-path");
        assert!(!r.complete, "a core has no linear trace");
        Ok(())
    }

    #[test]
    fn relayed_crossed_transfers_are_a_cycle() -> Result<(), IsaError> {
        // As above, but each send forwards what its core just received:
        // recv -> send on each core closes a cycle through both pairings.
        let p = assemble(
            ".core 0\n\
             recv core1, [r0+0], 4, tag=1\n\
             send core1, [r0+0], 4, tag=2\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=2\n\
             send core0, [r0+0], 4, tag=1\n\
             halt\n\
             .core 2\n\
             bne r0, r0, 0\n\
             halt\n",
        )?;
        assert_eq!(both_schedules(&p), Some((None, None)));
        let r = bounds(&p, &arch());
        assert_eq!(r.bound_source, "frontend-pacing");
        assert!(!r.complete);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            ..ProptestConfig::default()
        })]

        /// The walk against the topological order on random transfer
        /// programs whose sends forward what their core received, half of
        /// them beside a looping core (the checker's deadlock search then
        /// does not run, and crossed exchanges reach pricing as cycles):
        /// the same start and completion vectors, and `None` together.
        #[test]
        fn schedule_matches_the_topological_order(
            xfers in proptest::collection::vec(xfer_strategy(), 1..12),
            tweaks in proptest::collection::vec(tweak_strategy(), 0..8),
            looped in prop_oneof![1 => Just(None), 1 => (0..CORES).prop_map(Some)],
        ) {
            let text = build_program(&xfers, &tweaks, looped, true);
            let p = assemble(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
            if let Some((walked, oracle)) = both_schedules(&p) {
                prop_assert_eq!(walked, oracle, "{}", text);
            }
        }
    }
}
