//! The cross-core program dependence DAG behind the static performance
//! bounds pass.
//!
//! For every core whose execution order is statically determined
//! ([`Cfg::linear_trace`]), the builder runs the scalar register file
//! through the ISA's own semantics ([`Instruction::exec_scalar`], what
//! the machine frontend calls at dispatch), resolves every memory-class
//! operand with the runtime's resolver ([`resolve`]), and orders nodes by
//! the hazard rule the ROB applies ([`Footprint::conflicts`]). Nodes are
//! the ROB-class (matrix/vector/transfer) instructions; edges are
//! constraints the real machine provably enforces:
//!
//! * **hazard edges** — a younger instruction whose ranges RAW/WAW/WAR
//!   overlap an older one (or whose global-memory interval conflicts)
//!   cannot issue before the older completes;
//! * **channel FIFO edges** — transfers on one `(src, dst, tag)` channel
//!   issue in program order;
//! * **rendezvous edges** — a `recv` completes no earlier than its
//!   statically-matched `send`'s message delivery
//!   ([`crate::RendezvousMap`] supplies the pairing).
//!
//! Calling the machine's own definitions rather than a copy of them is
//! what makes the downstream bound *sound*: every edge corresponds to an
//! ordering the runtime really enforces, so the longest path is a true
//! lower bound. Over-approximated ranges would invent orderings the
//! machine never waits for and could push the "lower bound" past the
//! simulated latency.
//!
//! # A covering set, not every pair
//!
//! The machine's rule is pairwise ([`DagNode::must_follow`]): a node
//! waits for *every* older node of its core it conflicts with. Storing
//! all those pairs is quadratic in a loop that reuses one buffer, and
//! almost all of them are redundant: if `c` must follow `b` and `b` must
//! follow `a`, then `c` already cannot start before `a` completes. The
//! builder therefore keeps only a *covering* set, found in one forward
//! pass per core over a last-writer map of local memory (a second map
//! for global memory, and a last-node-per-channel table for the FIFO
//! rule):
//!
//! * a read depends on the last writer of each segment it touches;
//! * a write depends on the readers of each segment since its last write
//!   — or on that writer itself when nobody read it since.
//!
//! Every kept edge is a real pairwise hazard, and every pairwise hazard
//! `a → c` that is dropped is implied by a path `a → … → c` of kept
//! edges. Along such a path each node starts no earlier than its
//! predecessor completes, so the longest-path start and completion times
//! — hence the bound — are identical to the all-pairs graph's. The
//! all-pairs scan survives as this module's test oracle.

use std::collections::{BTreeMap, HashMap};

use pimsim_isa::{resolve, Footprint, Instruction, Program, Resolved, VectorShape};

use crate::cfg::Cfg;

/// What a node costs: the inputs its minimal unit-service time is priced
/// on, with vector work classified by the ISA ([`Resolved::vector_shape`])
/// exactly as the simulator's vector unit prices it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// A vector-unit operation with the shared [`VectorShape`].
    Vector(VectorShape),
    /// One `MVM` on a crossbar group.
    Matrix {
        /// The group's input vector length.
        input_len: u32,
        /// The group's output vector length.
        output_len: u32,
        /// Crossbars in the group.
        xbar_count: u32,
    },
    /// A core-to-core `send`: priced as the uncontended message time.
    Send {
        /// Destination core.
        to: u16,
        /// Payload elements.
        elems: u32,
    },
    /// A `recv`/`recv2d`: completes with its matched send's delivery.
    Recv,
    /// A `gload`/`gstore`: priced as the uncontended memory-access time.
    GlobalMem {
        /// Payload elements.
        elems: u32,
    },
}

/// One ROB-class instruction in a core's statically-known execution
/// order, with the exact operand metadata the runtime's hazard check
/// uses. Plain data: its predecessors live in the [`Dag`]'s flat edge
/// list ([`Dag::preds`]).
#[derive(Debug, Clone, Copy)]
pub struct DagNode {
    /// The core executing this instruction.
    pub core: u16,
    /// Instruction index in the core's program.
    pub pc: u32,
    /// Position in the core's dispatch order, counting scalar
    /// instructions too (the frontend paces *all* dispatches).
    pub dispatch_index: u32,
    /// Pricing inputs.
    pub service: ServiceKind,
    /// The memory it touches, resolved as the runtime resolves it.
    pub footprint: Footprint,
    /// Flow-control channel `(src, dst, tag)` for `send`/`recv` only.
    pub channel: Option<(u16, u16, u16)>,
    /// This node's span of [`Dag::edges`].
    preds: (u32, u32),
    /// The statically-matched `send` node feeding this `recv`, if any.
    pub paired_send: Option<u32>,
}

impl DagNode {
    /// Must `self` wait for the older same-core node `older` to complete
    /// before issuing? The machine's pairwise rule, as the ROB applies
    /// it: the ISA's memory rule ([`Footprint::conflicts`]) or the same
    /// transfer channel (FIFO).
    ///
    /// The DAG does not store every pair this holds for (see the module
    /// docs); the predicate itself is what the critical-path tie-break
    /// and the test oracle are stated on.
    pub fn must_follow(&self, older: &DagNode) -> bool {
        let fifo = self.channel.is_some() && self.channel == older.channel;
        fifo || self.footprint.conflicts(&older.footprint)
    }
}

/// One core's contribution to the DAG.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// `true` when the core's execution order is statically determined.
    pub linear: bool,
    /// Instructions the frontend dispatches (trace length; `0` for
    /// non-linear cores, whose pacing contribution is conservative).
    pub dispatches: u32,
    /// `true` when the core has at least one instruction (a non-empty
    /// core always pays at least the decode offset).
    pub has_instructions: bool,
    /// This core's nodes, as a span of [`Dag::nodes`], in trace order.
    pub nodes: std::ops::Range<usize>,
}

/// The priced cross-core dependence DAG.
///
/// Same-core edges are a *covering set* of the machine's pairwise hazard
/// relation, not the relation itself: `a` is a stored predecessor of `c`
/// only if `c` [must follow](DagNode::must_follow) `a`, and whenever `c`
/// must follow `a` there is a path of stored edges from `a` to `c`.
/// Reachability, and with it every longest-path quantity, is the same as
/// in the all-pairs graph; the edge count is linear in the node count on
/// compiled programs instead of quadratic.
#[derive(Debug, Clone)]
pub struct Dag {
    /// All nodes, grouped by core in trace order (core 0's nodes first).
    pub nodes: Vec<DagNode>,
    /// Per-core trace summaries, parallel to `program.cores`.
    pub cores: Vec<CoreTrace>,
    /// Every node's same-core predecessors, back to back: node `i` owns
    /// the span [`Dag::preds`]`(i)`, sorted ascending, no duplicates.
    pub edges: Vec<u32>,
}

/// "No node" in the interval map: an unwritten segment's writer, the end
/// of a reader list.
const NIL: u32 = u32::MAX;

/// A maximal run of addresses with one access history.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// One past the segment's last address (its start is its map key).
    end: u64,
    /// The last node that wrote it ([`NIL`]: never written).
    writer: u32,
    /// Head of the list of nodes that read it since ([`NIL`]: none).
    readers: u32,
}

/// One address space's access history during the forward pass: who wrote
/// each address last, and who has read it since.
///
/// [`read`](Self::read) and [`write`](Self::write) record one node's
/// access and append to `preds` a covering set (module docs) of the older
/// nodes that access makes it follow, possibly with repeats. A node's
/// reads must be recorded before its write.
struct HazardMap {
    /// Disjoint segments keyed by start, together covering
    /// `[0, u64::MAX)`; accesses split and merge them.
    segments: BTreeMap<u64, Segment>,
    /// Reader-list cells `(node, next)`. A list only ever grows at its
    /// head, so the halves of a split segment share their tail.
    readers: Vec<(u32, u32)>,
}

impl HazardMap {
    fn new() -> HazardMap {
        let mut map = HazardMap {
            segments: BTreeMap::new(),
            readers: Vec::new(),
        };
        map.clear();
        map
    }

    /// Forgets all history (a new core starts).
    fn clear(&mut self) {
        self.segments.clear();
        self.readers.clear();
        self.segments.insert(
            0,
            Segment {
                end: u64::MAX,
                writer: NIL,
                readers: NIL,
            },
        );
    }

    /// Makes `at` a segment boundary.
    fn split_at(&mut self, at: u64) {
        let (&start, seg) = self
            .segments
            .range_mut(..=at)
            .next_back()
            .expect("segments cover the address space");
        if start < at && at < seg.end {
            let tail = *seg;
            seg.end = at;
            self.segments.insert(at, tail);
        }
    }

    /// `node` reads `[start, end)`: it follows each touched segment's
    /// last writer.
    fn read(&mut self, start: u64, end: u64, node: u32, preds: &mut Vec<u32>) {
        if start >= end {
            return;
        }
        self.split_at(start);
        self.split_at(end);
        for (_, seg) in self.segments.range_mut(start..end) {
            if seg.writer != NIL {
                preds.push(seg.writer);
            }
            // Both operands of one node may cover the same segment.
            if seg.readers == NIL || self.readers[seg.readers as usize].0 != node {
                let cell = u32::try_from(self.readers.len()).expect("reader cells fit u32");
                self.readers.push((node, seg.readers));
                seg.readers = cell;
            }
        }
    }

    /// `node` writes `[start, end)`: it follows the readers of each
    /// touched segment since its last write (they follow that writer),
    /// or the writer itself when there are none. The touched segments
    /// merge into one that `node` wrote and nobody has read.
    fn write(&mut self, start: u64, end: u64, node: u32, preds: &mut Vec<u32>) {
        if start >= end {
            return;
        }
        self.split_at(start);
        self.split_at(end);
        while let Some((&key, &seg)) = self.segments.range(start..end).next() {
            if seg.readers == NIL {
                if seg.writer != NIL {
                    preds.push(seg.writer);
                }
            } else {
                let mut cell = seg.readers;
                while cell != NIL {
                    let (reader, next) = self.readers[cell as usize];
                    // An in-place op reads what it overwrites; its read
                    // already followed the writer.
                    if reader != node {
                        preds.push(reader);
                    }
                    cell = next;
                }
            }
            self.segments.remove(&key);
        }
        self.segments.insert(
            start,
            Segment {
                end,
                writer: node,
                readers: NIL,
            },
        );
    }
}

/// Builds one node from a memory-class instruction and the exact register
/// state at its dispatch: the runtime's [`resolve`] plus the node's
/// pricing class. Returns `None` for scalars.
fn node_of(
    program: &Program,
    core: u16,
    pc: u32,
    dispatch_index: u32,
    instr: &Instruction,
    regs: &[i32; 32],
) -> Option<DagNode> {
    let res = resolve(instr, regs)?;
    let (service, mvm_out, channel) = match res {
        Resolved::Mvm { group, .. } => {
            let g = &program.cores[core as usize].groups[group.as_usize()];
            let service = ServiceKind::Matrix {
                input_len: g.input_len,
                output_len: g.output_len,
                xbar_count: g.xbar_ids.len() as u32,
            };
            (service, g.output_len, None)
        }
        Resolved::Send { peer, len, tag, .. } => {
            let service = ServiceKind::Send {
                to: peer,
                elems: len,
            };
            (service, 0, Some((core, peer, tag)))
        }
        Resolved::Recv { peer, tag, .. } => (ServiceKind::Recv, 0, Some((peer, core, tag))),
        Resolved::GLoad { len, .. } | Resolved::GStore { len, .. } => {
            (ServiceKind::GlobalMem { elems: len }, 0, None)
        }
        _ => {
            let Some(shape) = res.vector_shape() else {
                unreachable!("every other memory-class op is a vector op: {res:?}")
            };
            (ServiceKind::Vector(shape), 0, None)
        }
    };
    Some(DagNode {
        core,
        pc,
        dispatch_index,
        service,
        footprint: res.footprint(mvm_out),
        channel,
        preds: (0, 0),
        paired_send: None,
    })
}

impl Dag {
    /// Builds the DAG from a validated program, its per-core CFGs, and
    /// the rendezvous pairing. Non-linear cores contribute no nodes (only
    /// a conservative pacing term); channels whose endpoints are not both
    /// linear have no rendezvous edges.
    ///
    /// Cost: one interval-map access per operand, so `O((n + e) log n)`
    /// for `n` nodes and `e` kept edges.
    pub fn build(program: &Program, cfgs: &[Cfg], rendezvous: &crate::RendezvousMap) -> Dag {
        let mut nodes: Vec<DagNode> = Vec::new();
        let mut edges: Vec<u32> = Vec::new();
        let mut cores = Vec::with_capacity(program.cores.len());
        // The forward pass's state, reset per core.
        let mut local = HazardMap::new();
        let mut global = HazardMap::new();
        let mut channel_tail: HashMap<(u16, u16, u16), u32> = HashMap::new();
        let mut empty_global: Vec<u32> = Vec::new();
        let mut preds: Vec<u32> = Vec::new();
        for (c, (cp, cfg)) in program.cores.iter().zip(cfgs).enumerate() {
            let Some(trace) = cfg.linear_trace() else {
                cores.push(CoreTrace {
                    linear: false,
                    dispatches: 0,
                    has_instructions: !cp.instrs.is_empty(),
                    nodes: nodes.len()..nodes.len(),
                });
                continue;
            };
            let first = nodes.len();
            local.clear();
            global.clear();
            channel_tail.clear();
            empty_global.clear();
            let mut regs = [0i32; 32];
            for (k, &pc) in trace.iter().enumerate() {
                let instr = &cp.instrs[pc as usize];
                let Some(mut node) = node_of(program, c as u16, pc, k as u32, instr, &regs) else {
                    // Control flow is already fixed by the linear trace.
                    instr.exec_scalar(&mut regs, pc);
                    continue;
                };
                let id = u32::try_from(nodes.len()).expect("node ids fit u32");
                let Footprint { reads, write, gmem } = node.footprint;
                for r in reads {
                    local.read(r.start as u64, r.end as u64, id, &mut preds);
                }
                local.write(write.start as u64, write.end as u64, id, &mut preds);
                if let Some((start, end, is_write)) = gmem {
                    if is_write {
                        global.write(start, end, id, &mut preds);
                    } else {
                        global.read(start, end, id, &mut preds);
                    }
                    // A zero-length access is invisible to the map yet
                    // conflicts with intervals strictly around its
                    // address. Compiled programs have none, so they pay
                    // the pairwise rule instead of complicating the map.
                    let conflicts =
                        |j: &u32| node.footprint.gmem_conflicts(&nodes[*j as usize].footprint);
                    if start == end {
                        preds.extend((first as u32..id).filter(conflicts));
                        empty_global.push(id);
                    } else {
                        preds.extend(empty_global.iter().copied().filter(conflicts));
                    }
                }
                if let Some(channel) = node.channel {
                    preds.extend(channel_tail.insert(channel, id));
                }
                preds.sort_unstable();
                preds.dedup();
                let offset = |at: usize| u32::try_from(at).expect("edge offsets fit u32");
                node.preds.0 = offset(edges.len());
                edges.append(&mut preds);
                node.preds.1 = offset(edges.len());
                nodes.push(node);
            }
            cores.push(CoreTrace {
                linear: true,
                dispatches: trace.len() as u32,
                has_instructions: !cp.instrs.is_empty(),
                nodes: first..nodes.len(),
            });
        }

        // Rendezvous edges: each statically-matched pair's recv waits for
        // its send's delivery. A pc appears at most once in a linear
        // trace, so (core, pc) identifies a node.
        let mut by_site = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.channel.is_some() {
                by_site.insert((n.core, n.pc), id as u32);
            }
        }
        for p in &rendezvous.pairs {
            let (Some(&s), Some(&r)) = (
                by_site.get(&(p.sender, p.send_pc)),
                by_site.get(&(p.receiver, p.recv_pc)),
            ) else {
                continue;
            };
            nodes[r as usize].paired_send = Some(s);
        }

        Dag {
            nodes,
            cores,
            edges,
        }
    }

    /// Node `i`'s stored same-core predecessors (hazard and channel
    /// FIFO), ascending. A covering set of the nodes `i` must follow, not
    /// all of them — see the type docs.
    pub fn preds(&self, i: usize) -> &[u32] {
        let (from, to) = self.nodes[i].preds;
        &self.edges[from as usize..to as usize]
    }

    /// A topological order of the nodes over the stored and rendezvous
    /// edges, or `None` when the graph has a cycle. The graph can only be
    /// cyclic when a non-linear core kept the rendezvous deadlock check
    /// from running; such programs wedge at runtime.
    pub fn topological_order(&self) -> Option<Vec<u32>> {
        let n = self.nodes.len();
        let incoming = |i: usize| {
            let preds = self.preds(i).iter().copied();
            preds.chain(self.nodes[i].paired_send)
        };
        // Successors in CSR form: `succ[offset[p]..offset[p + 1]]`.
        let mut offset = vec![0u32; n + 1];
        let mut indegree = vec![0u32; n];
        for (i, degree) in indegree.iter_mut().enumerate() {
            for p in incoming(i) {
                offset[p as usize + 1] += 1;
                *degree += 1;
            }
        }
        for p in 0..n {
            offset[p + 1] += offset[p];
        }
        let mut succ = vec![0u32; offset[n] as usize];
        let mut fill = offset.clone();
        for i in 0..n {
            for p in incoming(i) {
                succ[fill[p as usize] as usize] = i as u32;
                fill[p as usize] += 1;
            }
        }
        // Kahn's algorithm; `order` doubles as its FIFO queue.
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut head = 0;
        while let Some(&i) = order.get(head) {
            head += 1;
            let i = i as usize;
            for &s in &succ[offset[i] as usize..offset[i + 1] as usize] {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    order.push(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_arch::ArchConfig;
    use pimsim_isa::asm::assemble;
    use pimsim_isa::{Addr, CoreId, Range, Reg};
    use proptest::prelude::*;

    fn cfgs_of(p: &Program) -> Vec<Cfg> {
        p.cores.iter().map(|c| Cfg::build(&c.instrs)).collect()
    }

    fn dag_of(src: &str) -> Dag {
        let p = assemble(src).unwrap();
        let cfgs = cfgs_of(&p);
        let (_, map) = crate::rendezvous::check(&p, &cfgs, 4, 1);
        Dag::build(&p, &cfgs, &map)
    }

    /// The oracle: the same nodes with *every* pair the machine's rule
    /// orders stored as an edge, found by the all-pairs scan the forward
    /// pass replaced.
    fn scan_oracle(dag: &Dag) -> Dag {
        let mut oracle = dag.clone();
        oracle.edges.clear();
        for core in &dag.cores {
            for i in core.nodes.clone() {
                let from = oracle.edges.len() as u32;
                for j in core.nodes.start..i {
                    if dag.nodes[i].must_follow(&dag.nodes[j]) {
                        oracle.edges.push(j as u32);
                    }
                }
                oracle.nodes[i].preds = (from, oracle.edges.len() as u32);
            }
        }
        oracle
    }

    /// Checks `dag` against its oracle: (a) every stored edge is an
    /// oracle edge, (b) every oracle edge is a path of stored edges.
    fn assert_covers(dag: &Dag) -> Result<(), String> {
        let oracle = scan_oracle(dag);
        for core in &dag.cores {
            let first = core.nodes.start;
            // reach[i - first][j - first]: a stored path leads from j to i.
            let mut reach: Vec<Vec<bool>> = Vec::new();
            for i in core.nodes.clone() {
                let preds = dag.preds(i);
                if !preds.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("preds of {i} not strictly ascending: {preds:?}"));
                }
                let mut row = vec![false; i - first];
                for &p in preds {
                    let p = p as usize;
                    if !oracle.preds(i).contains(&(p as u32)) {
                        return Err(format!("stored edge {p} -> {i} is not a hazard"));
                    }
                    row[p - first] = true;
                    for (j, &r) in reach[p - first].iter().enumerate() {
                        row[j] |= r;
                    }
                }
                for &j in oracle.preds(i) {
                    if !row[j as usize - first] {
                        return Err(format!("hazard {j} -> {i} has no stored path"));
                    }
                }
                reach.push(row);
            }
        }
        Ok(())
    }

    /// The full report priced from `dag` and from its oracle.
    fn reports(p: &Program, arch: &ArchConfig) -> (String, String, Dag) {
        let (analysis, cfgs) = crate::analyze_with_cfgs(p, arch);
        assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
        let dag = Dag::build(p, &cfgs, &analysis.rendezvous);
        let kept = crate::bounds::price(p, arch, analysis.clone(), &cfgs, &dag).to_json();
        let all = crate::bounds::price(p, arch, analysis, &cfgs, &scan_oracle(&dag)).to_json();
        (kept, all, dag)
    }

    #[test]
    fn scalar_interpretation_resolves_exact_addresses() {
        // r1 = 1000; the vector op's operands resolve against it.
        let d = dag_of(
            ".core 0\n\
             li r1, 1000\n\
             vadd [r1+24], [r1+0], [r0+8], 8\n\
             halt\n",
        );
        assert_eq!(d.nodes.len(), 1);
        let n = &d.nodes[0];
        assert_eq!(n.dispatch_index, 1, "li dispatched first");
        assert_eq!(n.footprint.write, Range::new(1024, 8));
        assert_eq!(n.footprint.reads, [Range::new(1000, 8), Range::new(8, 8)]);
        assert_eq!(d.cores[0].dispatches, 3);
    }

    #[test]
    fn hazard_edges_follow_real_overlaps() {
        let d = dag_of(
            ".core 0\n\
             vfill [r0+0], 1, 8\n\
             vrelu [r0+100], [r0+4], 8\n\
             vfill [r0+200], 2, 8\n\
             halt\n",
        );
        assert_eq!(d.nodes.len(), 3);
        assert_eq!(d.preds(1), [0], "RAW on [4, 8)");
        assert!(d.preds(2).is_empty(), "disjoint ranges: no edge");
    }

    #[test]
    fn implied_hazards_are_not_stored() {
        // Every op conflicts with every older one (one buffer, rewritten
        // in place), but each only needs its immediate predecessor.
        let d = dag_of(
            ".core 0\n\
             vfill [r0+0], 1, 8\n\
             vrelu [r0+0], [r0+0], 8\n\
             vrelu [r0+0], [r0+0], 8\n\
             vrelu [r0+0], [r0+0], 8\n\
             halt\n",
        );
        assert_eq!(scan_oracle(&d).edges.len(), 6);
        assert_eq!(d.edges, [0, 1, 2]);
        // Readers since the last write all hold the next writer back.
        let d = dag_of(
            ".core 0\n\
             vfill [r0+0], 1, 8\n\
             vrelu [r0+100], [r0+0], 4\n\
             vrelu [r0+200], [r0+4], 4\n\
             vfill [r0+2], 2, 4\n\
             vrelu [r0+300], [r0+0], 8\n\
             halt\n",
        );
        assert_eq!(d.preds(3), [1, 2], "WAR on both readers, WAW implied");
        assert_eq!(d.preds(4), [0, 3], "RAW on both surviving writers");
        assert_covers(&d).unwrap();
    }

    #[test]
    fn same_channel_transfers_chain_fifo() {
        let d = dag_of(
            ".core 0\n\
             send core1, [r0+0], 4, tag=7\n\
             send core1, [r0+100], 4, tag=7\n\
             send core1, [r0+200], 4, tag=8\n\
             send core1, [r0+300], 4, tag=7\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=7\n\
             recv core0, [r0+100], 4, tag=7\n\
             recv core0, [r0+200], 4, tag=8\n\
             recv core0, [r0+300], 4, tag=7\n\
             halt\n",
        );
        // Disjoint payload ranges: only the channel rule chains them.
        assert_eq!(d.preds(1), [0]);
        assert!(d.preds(2).is_empty(), "different tag overtakes");
        assert_eq!(d.preds(3), [1], "the channel's previous transfer only");
    }

    #[test]
    fn rendezvous_pairs_become_cross_edges() {
        let d = dag_of(
            ".core 0\n\
             send core1, [r0+0], 16, tag=3\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 16, tag=3\n\
             halt\n",
        );
        assert_eq!(d.nodes.len(), 2);
        let recv = d.nodes.iter().position(|n| n.core == 1).unwrap();
        let send = d.nodes.iter().position(|n| n.core == 0).unwrap();
        assert_eq!(d.nodes[recv].paired_send, Some(send as u32));
        assert_eq!(d.nodes[send].paired_send, None);
        assert_eq!(d.topological_order(), Some(vec![send as u32, recv as u32]));
    }

    #[test]
    fn non_linear_cores_contribute_no_nodes() {
        let d = dag_of(
            ".core 0\n\
             jmp 0\n",
        );
        assert!(d.nodes.is_empty());
        assert!(!d.cores[0].linear);
        assert!(d.cores[0].has_instructions);
    }

    #[test]
    fn gmem_conflicts_make_edges() {
        let d = dag_of(
            ".core 0\n\
             gstore g[r0+100], [r0+0], 8\n\
             gload [r0+500], g[r0+104], 8\n\
             gload [r0+600], g[r0+900], 8\n\
             gload [r0+700], g[r0+100], 8\n\
             halt\n",
        );
        assert_eq!(d.preds(1), [0], "store/load overlap at 104..108");
        assert!(d.preds(2).is_empty(), "disjoint global intervals");
        assert_eq!(d.preds(3), [0], "two loads never conflict");
    }

    #[test]
    fn zero_length_global_accesses_follow_the_pairwise_rule() {
        // The ROB's interval test has no emptiness guard: an empty access
        // conflicts with an interval strictly around its address, in
        // either program order, and never with another empty one.
        let d = dag_of(
            ".core 0\n\
             gstore g[r0+100], [r0+0], 8\n\
             gload [r0+500], g[r0+104], 0\n\
             gstore g[r0+104], [r0+0], 0\n\
             gload [r0+600], g[r0+100], 8\n\
             gload [r0+700], g[r0+100], 0\n\
             halt\n",
        );
        assert_eq!(d.preds(1), [0], "empty load inside the stored interval");
        assert_eq!(d.preds(2), [0], "empty store too; not the empty load");
        assert_eq!(d.preds(3), [0, 2], "a load around the empty store");
        assert!(d.preds(4).is_empty(), "on the boundary: no conflict");
        assert_covers(&d).unwrap();
    }

    #[test]
    fn oversized_pool_window_keeps_its_hazards() {
        // Regression: `win_w * channels` wrapped `u32` to a 0-length —
        // hazard-invisible — read footprint (an overflow panic in a debug
        // build), so the pool floated free of the fill that feeds it and
        // of the fill that overwrites its input.
        let d = dag_of(
            ".core 0\n\
             vfill [r0+0], 1, 8\n\
             vpool.max [r0+100], [r0+0], ch=65536, win=65536x1, rstride=8\n\
             vfill [r0+4], 2, 8\n\
             halt\n",
        );
        assert_eq!(
            d.nodes[1].footprint.reads[0],
            Range {
                start: 0,
                end: u32::MAX
            }
        );
        assert_eq!(d.preds(1), [0], "RAW on the fill");
        assert_eq!(d.preds(2), [1], "WAR on the pool's input (WAW implied)");
    }

    #[test]
    fn zero_cost_recv_tie_keeps_the_original_critical_path() {
        // The fill (long) and the recv (zero service, its message long
        // delivered) both write [0, 4) and complete at the same instant;
        // the relu reads it. Pairwise the relu follows both and the
        // tie-break names the lower index — the fill. The DAG stores only
        // recv -> relu, so a tie-break over stored edges alone would
        // report fill -> recv -> relu.
        let p = assemble(
            ".core 0\n\
             send core1, [r0+0], 4, tag=1\n\
             halt\n\
             .core 1\n\
             vfill [r0+0], 1, 4096\n\
             recv core0, [r0+0], 4, tag=1\n\
             vrelu [r0+8192], [r0+0], 4\n\
             halt\n",
        )
        .unwrap();
        let (kept, all, dag) = reports(&p, &ArchConfig::small_test());
        let relu = dag.nodes.len() - 1;
        assert_eq!(
            dag.preds(relu),
            [relu as u32 - 1],
            "only the recv is stored"
        );
        assert_eq!(kept, all);
        let report: crate::BoundsReport = serde_json::from_str(&kept).unwrap();
        let path: Vec<u32> = report.critical_path.iter().map(|h| h.pc).collect();
        assert_eq!(report.bound_source, "critical-path");
        assert_eq!((report.critical_path_len, path), (2, vec![0, 2]));
    }

    /// One step of a generated program: a local instruction on a core,
    /// or a matched transfer between two.
    #[derive(Debug, Clone)]
    enum Step {
        Local(u16, Instruction),
        Transfer {
            from: u16,
            to: u16,
            tag: u16,
            src: u32,
            dst: u32,
            block_len: u32,
            blocks: u32,
            dst_stride: i32,
        },
    }

    const CORES: u16 = 3;

    fn at(offset: u32) -> Addr {
        Addr::new(Reg::R0, offset as i32).unwrap()
    }

    /// Addresses from a window narrow enough, and lengths (zero included)
    /// short enough, that most steps overlap some older one — partially,
    /// exactly or nested. The window starts above what a negative stride
    /// can reach back, or the checker would reject the program.
    fn step_strategy() -> impl Strategy<Value = Step> {
        use pimsim_isa::{PoolOp, VBinOp, VUnOp};
        let a = || (32u32..80).prop_map(at);
        let len = || 0u32..12;
        let instr = prop_oneof![
            2 => (a(), len()).prop_map(|(dst, len)| Instruction::VFill { dst, value: 1, len }),
            // In place half the time.
            3 => (a(), a(), len(), any::<bool>()).prop_map(|(dst, src, len, in_place)| {
                let src = if in_place { dst } else { src };
                Instruction::VUn { op: VUnOp::Relu, dst, src, len }
            }),
            2 => (a(), a(), a(), len()).prop_map(|(dst, a, b, len)| {
                Instruction::VBin { op: VBinOp::Add, dst, a, b, len }
            }),
            2 => (a(), a(), 0u32..4, 0u32..4, -6i32..7, -6i32..7).prop_map(
                |(dst, src, block_len, blocks, src_stride, dst_stride)| Instruction::VCopy2d {
                    dst, src, block_len, blocks, src_stride, dst_stride,
                }
            ),
            1 => (a(), a(), 1u32..3, 0u32..3, 0u32..3, 0i32..8).prop_map(
                |(dst, src, channels, win_w, win_h, row_stride)| Instruction::VPool {
                    op: PoolOp::Max, dst, src, channels, win_w, win_h, row_stride,
                }
            ),
            2 => (a(), 0u32..24, 0u32..6).prop_map(|(dst, g, len)| {
                Instruction::GLoad { dst, gaddr: at(g), len }
            }),
            2 => (a(), 0u32..24, 0u32..6).prop_map(|(src, g, len)| {
                Instruction::GStore { gaddr: at(g), src, len }
            }),
        ];
        prop_oneof![
            3 => (0..CORES, instr).prop_map(|(core, instr)| Step::Local(core, instr)),
            1 => (0..CORES, 1..CORES, 0u16..2, 32u32..80, 32u32..80, 0u32..4, 0u32..4, -6i32..7)
                .prop_map(|(from, hop, tag, src, dst, block_len, blocks, dst_stride)| {
                    Step::Transfer {
                        from,
                        to: (from + hop) % CORES,
                        tag,
                        src,
                        dst,
                        block_len,
                        blocks,
                        dst_stride,
                    }
                }),
        ]
    }

    /// Lays the steps out per core. Both ends of a transfer sit at the
    /// same point of the one global order, so the program drains.
    fn program_of(steps: &[Step]) -> Program {
        let mut p = Program::with_cores(CORES as usize);
        for step in steps {
            match step.clone() {
                Step::Local(core, instr) => p.cores[core as usize].instrs.push(instr),
                Step::Transfer {
                    from,
                    to,
                    tag,
                    src,
                    dst,
                    block_len,
                    blocks,
                    dst_stride,
                } => {
                    let len = block_len * blocks;
                    p.cores[from as usize].instrs.push(Instruction::Send {
                        peer: CoreId(to),
                        src: at(src),
                        len,
                        tag,
                    });
                    // A one-block payload arrives as a plain `recv`.
                    p.cores[to as usize].instrs.push(if blocks == 1 {
                        Instruction::Recv {
                            peer: CoreId(from),
                            dst: at(dst),
                            len,
                            tag,
                        }
                    } else {
                        Instruction::Recv2d {
                            peer: CoreId(from),
                            dst: at(dst),
                            block_len,
                            blocks,
                            dst_stride,
                            tag,
                        }
                    });
                }
            }
        }
        for core in &mut p.cores {
            core.instrs.push(Instruction::Halt);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            ..ProptestConfig::default()
        })]

        /// The forward pass against the all-pairs scan on random
        /// programs mixing every hazard kind: the stored edges are a
        /// covering subset of the oracle's, and the priced report —
        /// bound, per-core terms, critical path with its tie-breaks — is
        /// byte-identical from either graph.
        #[test]
        fn stored_edges_cover_the_pairwise_hazards(
            steps in proptest::collection::vec(step_strategy(), 1usize..80usize)
        ) {
            let p = program_of(&steps);
            let (kept, all, dag) = reports(&p, &ArchConfig::small_test());
            if let Err(why) = assert_covers(&dag) {
                prop_assert!(false, "{why}\n{}", pimsim_isa::asm::disassemble(&p));
            }
            prop_assert_eq!(kept, all, "{}", pimsim_isa::asm::disassemble(&p));
        }
    }
}
