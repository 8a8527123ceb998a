//! The cross-core program dependence DAG behind the static performance
//! bounds pass.
//!
//! For every core whose execution order is statically determined
//! ([`Cfg::linear_trace`](crate::Cfg::linear_trace)), the builder runs
//! the scalar register file through the ISA's own semantics
//! ([`Instruction::exec_scalar`], what the machine frontend calls at
//! dispatch), places every memory-class operand where the machine does
//! ([`Footprint::of`], built from the instruction's extents), and orders
//! nodes by the hazard rule the ROB applies ([`Footprint::conflicts`]).
//! Nodes are the ROB-class (matrix/vector/transfer) instructions; edges
//! are constraints the real machine provably enforces:
//!
//! * **hazard edges** — a younger instruction whose ranges RAW/WAW/WAR
//!   overlap an older one (or whose global-memory interval conflicts)
//!   cannot issue before the older completes;
//! * **channel FIFO edges** — transfers on one `(src, dst, tag)` channel
//!   issue in program order;
//! * **rendezvous edges** — a `recv` completes no earlier than its
//!   matched `send`'s message delivery. Channels are FIFO, so the `k`-th
//!   `recv` on a channel takes the `k`-th `send`: on a program the checker
//!   passes, these are exactly the pairs of its [`crate::RendezvousMap`].
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
//!
//! # Prepare once, then place cheaply
//!
//! A core's whole trace is resolved before the forward pass, so every
//! access the pass will make is known up front, in order. The map is
//! dense over those accesses: their distinct boundaries, sorted, cut
//! memory into elementary intervals, each access's pair of interval
//! indices is computed once, and a segment is a run of intervals whose
//! start is marked in a 64-ary bit tree, with its history and a link to
//! the next run in a flat vector. An access is two array reads and a walk
//! along the links of the segments it touches, with no tree node to
//! allocate or rebalance. Memory is proportional to the accesses, not to
//! the addresses they reach. The ordered-tree segment map it replaced
//! survives as the test oracle of `HazardMap`.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use pimsim_isa::{Footprint, InstrClass, Instruction, Program, VectorShape};

/// What a node costs: the inputs its minimal unit-service time is priced
/// on, with vector work classified by the ISA ([`Instruction::vector_shape`])
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
    /// The `send` node feeding this `recv`: the one its channel delivers
    /// to it in FIFO order, if that sender's core has nodes.
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

/// "No node" in the hazard map: an unwritten run's writer, the end of a
/// reader list, a stamp no node has set.
const NIL: u32 = u32::MAX;

/// One node's predecessor list under construction, written straight into
/// the DAG's edge list. A node can meet one older node through several
/// runs and operands; the stamp drops the repeats on push.
struct Preds {
    /// The DAG's edge list; the node under construction owns its tail.
    edges: Vec<u32>,
    /// Per node id: the last node whose list took it.
    stamp: Vec<u32>,
    /// The node under construction.
    node: u32,
}

impl Preds {
    fn push(&mut self, pred: u32) {
        let stamp = &mut self.stamp[pred as usize];
        if *stamp != self.node {
            *stamp = self.node;
            self.edges.push(pred);
        }
    }
}

/// A set of indices `0..len` with predecessor queries in `O(log64 len)`:
/// a 64-ary tree of bits. Level 0 holds one bit per index; bit `w` of
/// level `l + 1` is set when word `w` of level `l` is non-zero, so a query
/// skips empty stretches a whole word of the level above at a time,
/// whatever order the set was built in.
#[derive(Default)]
struct BitTree {
    /// Level 0 first; the last level is one word.
    levels: Vec<Vec<u64>>,
}

impl BitTree {
    /// Makes the set empty, over `0..len`.
    fn reset(&mut self, len: usize) {
        let mut depth = 0;
        let mut len = len.max(1);
        loop {
            let words = len.div_ceil(64);
            if depth == self.levels.len() {
                self.levels.push(Vec::new());
            }
            self.levels[depth].clear();
            self.levels[depth].resize(words, 0);
            depth += 1;
            if words == 1 {
                break;
            }
            len = words;
        }
        self.levels.truncate(depth);
    }

    fn insert(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                break;
            }
            i /= 64;
        }
    }

    fn remove(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                break;
            }
            i /= 64;
        }
    }

    /// The greatest member `<= i`, if any.
    fn prev(&self, mut i: usize) -> Option<usize> {
        // Climb until a word holds a member at or before the position.
        let mut depth = 0;
        loop {
            let word = self.levels.get(depth)?[i / 64];
            let bits = word & (u64::MAX >> (63 - i % 64));
            if bits != 0 {
                i = i / 64 * 64 + 63 - bits.leading_zeros() as usize;
                break;
            }
            i = (i / 64).checked_sub(1)?;
            depth += 1;
        }
        // Descend along each word's last member.
        for level in self.levels[..depth].iter().rev() {
            i = i * 64 + 63 - level[i].leading_zeros() as usize;
        }
        Some(i)
    }
}

/// The hasher of [`HazardMap`]'s boundary table: one multiply, its high
/// half folded onto the low one (the table picks a bucket by low bits).
#[derive(Default)]
struct BoundaryHasher(u64);

impl Hasher for BoundaryHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The history of one run, kept at the interval that starts it.
#[derive(Clone, Copy)]
struct Run {
    /// The interval that starts the next run (the interval count after
    /// the last run).
    next: u32,
    /// The run's last writer ([`NIL`]: never written).
    writer: u32,
    /// The head of the list of nodes that read the run since that write
    /// ([`NIL`]: none).
    readers: u32,
    /// The node of that head cell ([`NIL`]: none).
    reader: u32,
}

/// One address space's access history during the forward pass over one
/// core: who wrote each address last, and who has read it since.
///
/// It is prepared once per core from every access the core will make
/// ([`reset`](Self::reset)): their distinct boundaries, sorted, cut the
/// address space into *elementary intervals*, and each access becomes the
/// pair of interval indices of its two boundaries, computed there and
/// then. The forward pass makes the accesses in the order `reset` was
/// handed them and reads each pair off in turn, so finding an access's
/// intervals takes two array reads. Memory is proportional to the number
/// of accesses, whatever addresses they reach.
///
/// A *run* is a maximal stretch of intervals with one history, a [`Run`]
/// kept at its first interval. The run starts are marked in a
/// [`BitTree`], asked only for the run holding an interval when an access
/// boundary splits it; each run links to the next, so walking the runs an
/// access touches is one array read per run. Accesses split and merge
/// runs exactly where a map of address segments would split and merge
/// segments, so an access visits no more runs than such a map visits
/// segments.
///
/// [`read`](Self::read) and [`write`](Self::write) record one node's
/// access and push a covering set (module docs) of the older nodes that
/// access makes it follow. A node's reads must be recorded before its
/// write.
#[derive(Default)]
struct HazardMap {
    /// The access boundaries, ascending and distinct: interval `i` is
    /// `[cuts[i], cuts[i + 1])`.
    cuts: Vec<u64>,
    /// Per access boundary, in the order [`reset`](Self::reset) saw them
    /// (start then end of each non-empty access): its interval index.
    at: Vec<u32>,
    /// The next entry of `at` an access takes.
    cursor: usize,
    /// The intervals that start a run. Interval 0 always does.
    run_starts: BitTree,
    /// Per interval: its run's history, valid where a run starts.
    runs: Vec<Run>,
    /// Reader-list cells `(node, next)`. A list only ever grows at its
    /// head, so the halves of a split run share their tail.
    cells: Vec<(u32, u32)>,
    /// `reset`'s scratch: each distinct boundary's first-seen index.
    first_seen: HashMap<u64, u32, BuildHasherDefault<BoundaryHasher>>,
    /// `reset`'s scratch: first-seen index to interval index.
    rank: Vec<u32>,
}

impl HazardMap {
    /// Forgets all history and prepares for the accesses `[start, end)`
    /// of `ranges`, which the forward pass then makes in this order
    /// (empty ones are skipped, as the accesses skip them).
    fn reset(&mut self, ranges: impl Iterator<Item = (u64, u64)>) {
        // Number the distinct boundaries in first-seen order, then sort
        // only those: on the zoo a boundary recurs 10-33 times per core.
        self.cuts.clear();
        self.at.clear();
        self.first_seen.clear();
        for (start, end) in ranges.filter(|(start, end)| start < end) {
            for key in [start, end] {
                let seen = self.cuts.len() as u32;
                let cuts = &mut self.cuts;
                let id = *self.first_seen.entry(key).or_insert_with(|| {
                    cuts.push(key);
                    seen
                });
                self.at.push(id);
            }
        }
        let len = u32::try_from(self.cuts.len().max(1)).expect("boundaries fit u32");
        let mut sorted: Vec<(u64, u32)> = self.cuts.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        self.rank.clear();
        self.rank.resize(sorted.len(), 0);
        for (i, &(cut, id)) in sorted.iter().enumerate() {
            self.cuts[i] = cut;
            self.rank[id as usize] = i as u32;
        }
        for id in &mut self.at {
            *id = self.rank[*id as usize];
        }
        self.cursor = 0;
        self.run_starts.reset(len as usize);
        self.run_starts.insert(0);
        let run = Run {
            next: len,
            writer: NIL,
            readers: NIL,
            reader: NIL,
        };
        self.runs.clear();
        self.runs.resize(len as usize, run);
        self.cells.clear();
    }

    /// Makes interval `i` start a run, with the history of the run it
    /// was part of.
    fn split_at(&mut self, i: usize) {
        // Interval 0 always starts a run.
        let run = self.run_starts.prev(i).unwrap_or(0);
        if run != i {
            self.run_starts.insert(i);
            self.runs[i] = self.runs[run];
            self.runs[run].next = i as u32;
        }
    }

    /// The intervals of the next access, `[start, end)`, both ends made
    /// run starts.
    fn runs_of(&mut self, start: u64, end: u64) -> (usize, usize) {
        let [first, last] = [0, 1].map(|side| self.at[self.cursor + side] as usize);
        self.cursor += 2;
        debug_assert_eq!(
            (self.cuts[first], self.cuts[last]),
            (start, end),
            "accesses come in the order `reset` saw them"
        );
        self.split_at(first);
        self.split_at(last);
        (first, last)
    }

    /// `node` reads `[start, end)`: it follows each touched run's last
    /// writer.
    fn read(&mut self, start: u64, end: u64, node: u32, preds: &mut Preds) {
        if start >= end {
            return;
        }
        let (mut i, last) = self.runs_of(start, end);
        while i < last {
            let run = &mut self.runs[i];
            if run.writer != NIL {
                preds.push(run.writer);
            }
            // Both operands of one node may cover the same run.
            if run.reader != node {
                self.cells.push((node, run.readers));
                run.readers = u32::try_from(self.cells.len() - 1).expect("reader cells fit u32");
                run.reader = node;
            }
            i = run.next as usize;
        }
    }

    /// `node` writes `[start, end)`: it follows the readers of each
    /// touched run since its last write (they follow that writer), or the
    /// writer itself when there are none. The touched runs merge into one
    /// that `node` wrote and nobody has read.
    fn write(&mut self, start: u64, end: u64, node: u32, preds: &mut Preds) {
        if start >= end {
            return;
        }
        let (first, last) = self.runs_of(start, end);
        let mut i = first;
        while i < last {
            let run = self.runs[i];
            if run.readers == NIL && run.writer != NIL {
                preds.push(run.writer);
            }
            let mut cell = run.readers;
            while cell != NIL {
                let (reader, next) = self.cells[cell as usize];
                // An in-place op reads what it overwrites; its read
                // already followed the writer.
                if reader != node {
                    preds.push(reader);
                }
                cell = next;
            }
            if i != first {
                self.run_starts.remove(i);
            }
            i = run.next as usize;
        }
        self.runs[first] = Run {
            next: last as u32,
            writer: node,
            readers: NIL,
            reader: NIL,
        };
    }
}

/// Builds one node from a memory-class instruction and the exact register
/// state at its dispatch: the runtime's footprint (built from the
/// instruction's extents) plus the node's pricing class. Returns `None`
/// for scalars.
fn node_of(
    program: &Program,
    core: u16,
    pc: u32,
    dispatch_index: u32,
    instr: &Instruction,
    regs: &[i32; 32],
) -> Option<DagNode> {
    if instr.class() == InstrClass::Scalar {
        return None;
    }
    let groups = &program.cores[core as usize].groups;
    let service = match *instr {
        Instruction::Mvm { group, .. } => {
            let g = &groups[group.as_usize()];
            ServiceKind::Matrix {
                input_len: g.input_len,
                output_len: g.output_len,
                xbar_count: g.xbar_ids.len() as u32,
            }
        }
        Instruction::Send { peer, len, .. } => ServiceKind::Send {
            to: peer.0,
            elems: len,
        },
        Instruction::Recv { .. } | Instruction::Recv2d { .. } => ServiceKind::Recv,
        Instruction::GLoad { len, .. } | Instruction::GStore { len, .. } => {
            ServiceKind::GlobalMem { elems: len }
        }
        _ => {
            let Some(shape) = instr.vector_shape() else {
                unreachable!("every other memory-class op is a vector op: {instr}")
            };
            ServiceKind::Vector(shape)
        }
    };
    Some(DagNode {
        core,
        pc,
        dispatch_index,
        service,
        footprint: Footprint::of(instr, groups, regs),
        channel: instr.channel(core),
        preds: (0, 0),
        paired_send: None,
    })
}

impl Dag {
    /// Builds the DAG from a validated program and each core's
    /// [`Cfg::linear_trace`](crate::Cfg::linear_trace) (`None`:
    /// non-linear). Non-linear cores contribute no nodes (only a
    /// conservative pacing term), so channels whose endpoints are not both
    /// linear have no rendezvous edges.
    ///
    /// Per linear core it first resolves the trace into nodes, then
    /// prepares one `HazardMap` per address space from those nodes'
    /// accesses, then runs the forward pass over them. Cost: one hash
    /// lookup per access boundary and a sort of the distinct ones, then
    /// per access two array reads and at most two `O(log64 n)` run
    /// splits, plus one array read per run it touches, for `n` nodes. The
    /// zoo's compiled programs' reads make 4-34 run visits per node (lenet
    /// at a 48-pixel input: 32,561 accesses, 380,700 read visits).
    pub fn build(program: &Program, traces: &[Option<Vec<u32>>]) -> Dag {
        let mut nodes: Vec<DagNode> = Vec::new();
        let mut cores = Vec::with_capacity(program.cores.len());
        // The forward pass's state, reset per core.
        let mut local = HazardMap::default();
        let mut global = HazardMap::default();
        let mut channel_tail: HashMap<(u16, u16, u16), u32> = HashMap::new();
        let mut preds = Preds {
            edges: Vec::new(),
            stamp: Vec::new(),
            node: NIL,
        };
        for (c, (cp, trace)) in program.cores.iter().zip(traces).enumerate() {
            let first = nodes.len();
            let Some(trace) = trace else {
                cores.push(CoreTrace {
                    linear: false,
                    dispatches: 0,
                    has_instructions: !cp.instrs.is_empty(),
                    nodes: first..first,
                });
                continue;
            };
            let mut regs = [0i32; 32];
            for (k, &pc) in trace.iter().enumerate() {
                let instr = &cp.instrs[pc as usize];
                match node_of(program, c as u16, pc, k as u32, instr, &regs) {
                    Some(node) => nodes.push(node),
                    // Control flow is already fixed by the linear trace.
                    None => {
                        instr.exec_scalar(&mut regs, pc);
                    }
                }
            }
            let end = u32::try_from(nodes.len()).expect("node ids fit u32");
            let footprints = || nodes[first..].iter().map(|n| n.footprint);
            local.reset(footprints().flat_map(|f| {
                let [a, b] = f.reads;
                [a, b, f.write].map(|r| (r.start as u64, r.end as u64))
            }));
            global.reset(footprints().filter_map(|f| f.gmem).map(|(s, e, _)| (s, e)));
            channel_tail.clear();
            preds.stamp.resize(nodes.len(), NIL);
            for node in first as u32..end {
                let DagNode {
                    footprint: Footprint { reads, write, gmem },
                    channel,
                    ..
                } = nodes[node as usize];
                let from = preds.edges.len();
                preds.node = node;
                for r in reads {
                    local.read(r.start as u64, r.end as u64, node, &mut preds);
                }
                local.write(write.start as u64, write.end as u64, node, &mut preds);
                match gmem {
                    Some((start, end, true)) => global.write(start, end, node, &mut preds),
                    Some((start, end, false)) => global.read(start, end, node, &mut preds),
                    None => {}
                }
                if let Some(tail) = channel.and_then(|ch| channel_tail.insert(ch, node)) {
                    preds.push(tail);
                }
                preds.edges[from..].sort_unstable();
                let offset = |at: usize| u32::try_from(at).expect("edge offsets fit u32");
                nodes[node as usize].preds = (offset(from), offset(preds.edges.len()));
            }
            cores.push(CoreTrace {
                linear: true,
                dispatches: trace.len() as u32,
                has_instructions: !cp.instrs.is_empty(),
                nodes: first..nodes.len(),
            });
        }

        // Rendezvous edges: each recv waits for the delivery of the next
        // send its FIFO channel has not yet paired.
        let mut sends: HashMap<(u16, u16, u16), VecDeque<u32>> = HashMap::new();
        for (id, node) in nodes.iter().enumerate() {
            if let (ServiceKind::Send { .. }, Some(ch)) = (node.service, node.channel) {
                sends.entry(ch).or_default().push_back(id as u32);
            }
        }
        for node in &mut nodes {
            if let (ServiceKind::Recv, Some(ch)) = (node.service, node.channel) {
                node.paired_send = sends.get_mut(&ch).and_then(VecDeque::pop_front);
            }
        }

        Dag {
            nodes,
            cores,
            edges: preds.edges,
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
    /// edges, or `None` when the graph has a cycle: Kahn's algorithm over a
    /// successor graph, the test oracle of pricing's walk over
    /// predecessor lists (`bounds::schedule`).
    #[cfg(test)]
    pub(crate) fn topological_order(&self) -> Option<Vec<u32>> {
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
    use std::collections::BTreeMap;

    use pimsim_arch::ArchConfig;
    use pimsim_isa::asm::assemble;
    use pimsim_isa::{Addr, CoreId, Range, Reg};
    use proptest::prelude::*;

    fn dag_of(src: &str) -> Dag {
        let p = assemble(src).unwrap();
        let traces: Vec<_> = (p.cores.iter())
            .map(|c| crate::Cfg::build(&c.instrs).linear_trace())
            .collect();
        Dag::build(&p, &traces)
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
        let (analysis, walk) = crate::analyze_walk(p, arch);
        assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);
        let dag = Dag::build(p, &walk.traces);
        let fabric = walk.fabric.as_ref();
        let kept = crate::bounds::price(p, arch, analysis.clone(), fabric, &dag).to_json();
        let all = crate::bounds::price(p, arch, analysis, fabric, &scan_oracle(&dag)).to_json();
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
        assert_eq!(n.footprint.write, Range::span(1024, 1032));
        assert_eq!(
            n.footprint.reads,
            [Range::span(1000, 1008), Range::span(8, 16)]
        );
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
        // An empty access conflicts with nothing (`Footprint::gmem_conflicts`,
        // the ROB's rule too): not with an interval strictly around its
        // address, in either program order, nor with another empty one.
        let d = dag_of(
            ".core 0\n\
             gstore g[r0+100], [r0+0], 8\n\
             gload [r0+500], g[r0+104], 0\n\
             gstore g[r0+104], [r0+0], 0\n\
             gload [r0+600], g[r0+100], 8\n\
             gload [r0+700], g[r0+100], 0\n\
             halt\n",
        );
        assert!(
            d.preds(1).is_empty(),
            "empty load inside the stored interval"
        );
        assert!(d.preds(2).is_empty(), "empty store too, and the empty load");
        assert_eq!(
            d.preds(3),
            [0],
            "a load around the empty store: the store only"
        );
        assert!(d.preds(4).is_empty(), "on the boundary");
        assert_covers(&d).unwrap();
    }

    #[test]
    fn oversized_pool_window_keeps_its_hazards() -> Result<(), pimsim_isa::IsaError> {
        // Regression: `win_w * channels` wrapped `u32` to a 0-length —
        // hazard-invisible — read footprint (an overflow panic in a debug
        // build), so the pool floated free of the fill that feeds it and
        // of the fill that overwrites its input. The assembler refuses
        // such a window now; `Dag::build` must still order one it is
        // handed.
        let mut p = assemble(".core 0\nvfill [r0+0], 1, 8\nnop\nvfill [r0+4], 2, 8\nhalt\n")?;
        p.cores[0].instrs[1] = Instruction::VPool {
            op: pimsim_isa::PoolOp::Max,
            dst: Addr::new(Reg::R0, 100)?,
            src: Addr::new(Reg::R0, 0)?,
            channels: 65536,
            win_w: 65536,
            win_h: 1,
            row_stride: 8,
        };
        let traces = [crate::Cfg::build(&p.cores[0].instrs).linear_trace()];
        let d = Dag::build(&p, &traces);
        assert_eq!(
            d.nodes[1].footprint.reads[0],
            Range {
                start: 0,
                end: u32::MAX
            }
        );
        assert_eq!(d.preds(1), [0], "RAW on the fill");
        assert_eq!(d.preds(2), [1], "WAR on the pool's input (WAW implied)");
        Ok(())
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

    /// The map the dense [`HazardMap`] replaced, kept as its oracle:
    /// disjoint segments keyed by start, together covering
    /// `[0, u64::MAX)`, split and merged by each access.
    struct SegmentMap {
        /// Segment start → (end, last writer, reader-list head).
        segments: BTreeMap<u64, (u64, u32, u32)>,
        /// Reader-list cells `(node, next)`.
        readers: Vec<(u32, u32)>,
    }

    impl SegmentMap {
        fn new() -> SegmentMap {
            let segments = BTreeMap::from([(0, (u64::MAX, NIL, NIL))]);
            SegmentMap {
                segments,
                readers: Vec::new(),
            }
        }

        fn split_at(&mut self, at: u64) {
            let Some((&start, seg)) = self.segments.range_mut(..=at).next_back() else {
                unreachable!("segments cover the address space")
            };
            if start < at && at < seg.0 {
                let tail = *seg;
                seg.0 = at;
                self.segments.insert(at, tail);
            }
        }

        fn read(&mut self, start: u64, end: u64, node: u32, preds: &mut Vec<u32>) {
            if start >= end {
                return;
            }
            self.split_at(start);
            self.split_at(end);
            for (_, (_, writer, readers)) in self.segments.range_mut(start..end) {
                if *writer != NIL {
                    preds.push(*writer);
                }
                if *readers == NIL || self.readers[*readers as usize].0 != node {
                    self.readers.push((node, *readers));
                    *readers = self.readers.len() as u32 - 1;
                }
            }
        }

        fn write(&mut self, start: u64, end: u64, node: u32, preds: &mut Vec<u32>) {
            if start >= end {
                return;
            }
            self.split_at(start);
            self.split_at(end);
            while let Some((&key, &(_, writer, mut cell))) = self.segments.range(start..end).next()
            {
                if cell == NIL && writer != NIL {
                    preds.push(writer);
                }
                while cell != NIL {
                    let (reader, next) = self.readers[cell as usize];
                    if reader != node {
                        preds.push(reader);
                    }
                    cell = next;
                }
                self.segments.remove(&key);
            }
            self.segments.insert(start, (end, node, NIL));
        }
    }

    /// One node's accesses in a generated access stream: up to two local
    /// reads, a local write, and maybe a global access (`true` = write).
    type Access = (Vec<(u64, u64)>, (u64, u64), Option<(u64, u64, bool)>);

    /// `[start, end)` from two points of a narrow window, in either
    /// order: partial overlaps, nesting, adjacency and empty ranges are
    /// all common.
    fn span() -> impl Strategy<Value = (u64, u64)> {
        (0u64..24, 0u64..24).prop_map(|(a, b)| (a.min(b), a.max(b)))
    }

    fn access() -> impl Strategy<Value = Access> {
        let global = prop_oneof![
            1 => Just(None),
            1 => (span(), any::<bool>()).prop_map(|((s, e), w)| Some((s, e, w))),
        ];
        (
            proptest::collection::vec(span(), 0usize..3),
            span(),
            any::<bool>(),
            global,
        )
            .prop_map(|(reads, write, in_place, global)| {
                // An in-place op writes what it reads.
                let write = match reads.first() {
                    Some(&read) if in_place => read,
                    _ => write,
                };
                (reads, write, global)
            })
    }

    /// A node's deduplicated predecessors, ascending, from an oracle
    /// push list.
    fn set_of(mut preds: Vec<u32>) -> Vec<u32> {
        preds.sort_unstable();
        preds.dedup();
        preds
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

        /// The bit tree against an ordered set, over inserts and removes
        /// spread across three levels (and a one-level tree).
        #[test]
        fn bit_tree_matches_an_ordered_set(
            len in prop_oneof![1usize..200, 4000usize..300_000],
            ops in proptest::collection::vec((any::<bool>(), 0usize..1 << 20, 0usize..1 << 20), 1usize..200),
        ) {
            let mut tree = BitTree::default();
            tree.reset(len);
            let mut set = std::collections::BTreeSet::new();
            for (insert, at, probe) in ops {
                let (at, probe) = (at % len, probe % len);
                if insert {
                    tree.insert(at);
                    set.insert(at);
                } else {
                    tree.remove(at);
                    set.remove(&at);
                }
                prop_assert_eq!(tree.prev(probe), set.range(..=probe).next_back().copied());
            }
        }

        /// The dense map against the segment map it replaced, over one
        /// access stream: every node gets the same predecessor set.
        #[test]
        fn dense_map_matches_the_segment_map(
            stream in proptest::collection::vec(access(), 1usize..60usize)
        ) {
            let mut local = HazardMap::default();
            local.reset(stream.iter().flat_map(|(reads, write, _)| {
                reads.iter().chain([write]).copied()
            }));
            let mut global = HazardMap::default();
            global.reset(stream.iter().filter_map(|a| a.2).map(|(s, e, _)| (s, e)));
            let (mut old_local, mut old_global) = (SegmentMap::new(), SegmentMap::new());
            let mut preds = Preds {
                edges: Vec::new(),
                stamp: vec![NIL; stream.len()],
                node: NIL,
            };
            for (node, (reads, (ws, we), gmem)) in stream.iter().enumerate() {
                let node = node as u32;
                preds.node = node;
                preds.edges.clear();
                let mut old = Vec::new();
                for &(s, e) in reads {
                    local.read(s, e, node, &mut preds);
                    old_local.read(s, e, node, &mut old);
                }
                local.write(*ws, *we, node, &mut preds);
                old_local.write(*ws, *we, node, &mut old);
                match *gmem {
                    Some((s, e, true)) => {
                        global.write(s, e, node, &mut preds);
                        old_global.write(s, e, node, &mut old);
                    }
                    Some((s, e, false)) => {
                        global.read(s, e, node, &mut preds);
                        old_global.read(s, e, node, &mut old);
                    }
                    None => {}
                }
                let mut new = preds.edges.clone();
                let pushed = new.len();
                new.sort_unstable();
                new.dedup();
                prop_assert_eq!(new.len(), pushed, "node {}: a repeat survived the stamp", node);
                prop_assert_eq!(new, set_of(old), "node {}", node);
            }
        }

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
