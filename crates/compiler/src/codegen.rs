//! Code generation: placement → per-core instruction streams.
//!
//! ## Execution model
//!
//! Every core's stream is a sequence of *node sections* in topological
//! order. A weight layer's section, per output row: incrementally acquire
//! the input rows its windows need (`RECV`/`GLOAD`; nothing if the producer
//! lives on the same core), then for every output pixel assemble the im2col
//! window with one `VCOPY2D`, fire one `MVM` per crossbar group (row-block),
//! reduce partial sums with `VADD`, and run the fused epilogue (bias add,
//! `VSRAI` requantization, activation) in place — finally the layer's *home*
//! core forwards the completed row to every consumer (local `VCOPY`/
//! `VCOPY2D`, remote synchronized `SEND`).
//!
//! ## Deadlock freedom
//!
//! Transfers deadlock only on inconsistent orderings. The generator
//! enforces one global order everywhere: cores execute node sections in
//! node-id order; producers forward each row to consumer edges sorted by
//! `(consumer id, edge index, core)`; multi-input consumers drain their
//! input edges in producer order (fully, except the last, which is
//! pipelined row by row).
//!
//! Section order alone is not enough, though: two edges between the same
//! core pair can *cross* — an early producer feeding a late consumer
//! section while a later producer feeds an earlier one (`P0 < P1 < C1 <
//! C0` with `P0→C0`, `P1→C1`, both `P`s on one core and both `C`s on
//! another is perfectly topological). The sender then streams `P0→C0`
//! rows first while the receiver blocks in `C1` waiting for `P1` rows the
//! sender hasn't reached, and the credit-limited channel wedges. So the
//! receive side additionally drains pending crossed edges eagerly
//! ([`Emitter::drain_pending_before`]): before the first `RECV` of any
//! remote edge, every already-sent edge from the same sender with an
//! earlier producer is received in full into its consumer's buffer. Each
//! core pair's receive order therefore matches its send order, and
//! `pimsim check`'s rendezvous pass certifies the result per program.
//!
//! ## Scratch rotation
//!
//! Per-pixel scratch (window + accumulators) rotates over
//! [`SCRATCH_SLOTS`] slots so consecutive pixels have no false WAW hazards
//! and the ROB (paper Fig. 4) can overlap them.

use std::collections::{BTreeSet, HashMap, HashSet};

use pimsim_arch::ArchConfig;
use pimsim_isa::{
    limits, Addr, CoreId, GroupConfig, GroupId, Instruction, PoolOp, Program, Reg, SImmOp, VBinOp,
    VImmOp, VUnOp, WeightMatrix,
};
use pimsim_nn::{Activation, Network, NodeId, PortRef, Shape, WeightGen, DEFAULT_REQUANT_SHIFT};
use serde::{Deserialize, Serialize};

use crate::error::CompileError;
use crate::lower::{resolve_alias, LoweredKind, LoweredNode, MatrixOp};
use crate::mapping::{MappingPolicy, Placement, Slice};
use crate::Result;

/// Scratch-slot rotation depth (bounds cross-pixel WAW serialization).
pub const SCRATCH_SLOTS: u32 = 4;

/// Transfer/vector length field.
const LEN_MAX: u32 = limits::umax(limits::LEN_BITS) as u32;
/// Largest offset from a base register (absolute `r0`-relative addresses
/// beyond it go through a base-register load).
const ABS_MAX: i32 = limits::smax(limits::ADDR_OFFSET_BITS) as i32;
/// `VPOOL` window field.
const WIN_MAX: u32 = limits::umax(limits::WIN_BITS) as u32;

/// Where the network output lands in global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputSpec {
    /// First element address in global memory.
    pub gaddr: u64,
    /// Total output elements.
    pub elems: u32,
}

/// The complete compilation artifact.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The executable program (validated).
    pub program: Program,
    /// Inferences compiled back to back (outputs land at
    /// `output.gaddr + i * output.elems` for image `i`).
    pub batch: u32,
    /// Where weights landed (for reports and tests).
    pub placement: Placement,
    /// Where the output tensor lands in global memory.
    pub output: OutputSpec,
    /// Network input element count (staged at global address 0).
    pub input_elems: u32,
    /// Node-id → name table (instruction tags index into this).
    pub node_names: Vec<String>,
    /// The mapping policy used.
    pub policy: MappingPolicy,
}

/// Key for every local-memory buffer the generator plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BufKey {
    /// `(node, edge, core)`: consumer-side storage for one input edge on
    /// one compute core.
    EdgeIn(u32, u32, u16),
    /// `(node, core)`: a non-home compute core's column-slice output.
    Staging(u32, u16),
    /// `(node, core)`: rotating window/accumulator scratch.
    Scratch(u32, u16),
    /// `(node, core)`: bias values.
    Bias(u32, u16),
    /// Fully materialized output (branch points forward edge-major).
    OutBuf(u32),
    /// `(node, col_start)`: home-side contiguous accumulator for a
    /// row-split column range.
    AccRow(u32, u32),
    /// `(node, slice)`: home-side landing area for one remote partial-sum
    /// piece.
    PartialIn(u32, u32),
}

/// Key for every transfer tag: one per consumer edge per compute core
/// `(consumer, edge, core)`, and one gather channel per matrix slice
/// `(node, slice)` so a core holding several slices of one layer ships
/// each segment on its own tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TagKey {
    Edge(u32, u32, u16),
    Gather(u32, u32),
}

/// Geometry of one consumer edge on one compute core.
#[derive(Debug, Clone, Copy)]
struct EdgeDst {
    buf: u32,
    /// Consumer-side padding (its buffer is `(H+2p)(W+2p)C_total`).
    pad: u32,
    /// Consumer-buffer width including padding.
    w_pad: u32,
    /// Consumer-buffer channels (total across concat branches).
    c_total: u32,
    /// Channel offset of this producer within a pixel (concat).
    chan_off: u32,
    /// Producer row geometry.
    src_w: u32,
    src_c: u32,
}

impl EdgeDst {
    fn row_base(&self, y: u32) -> u32 {
        self.buf + ((y + self.pad) * self.w_pad + self.pad) * self.c_total + self.chan_off
    }
    fn interleaved(&self) -> bool {
        self.c_total != self.src_c || self.chan_off != 0
    }
}

/// The unary op a fused or standalone activation runs as.
fn activation_op(act: Activation) -> VUnOp {
    match act {
        Activation::Relu => VUnOp::Relu,
        Activation::Sigmoid => VUnOp::Sigmoid,
        Activation::Tanh => VUnOp::Tanh,
    }
}

/// Zero padding around a node's (first) input buffer.
fn input_padding(kind: &LoweredKind) -> u32 {
    match kind {
        LoweredKind::Matrix(m) => m.padding,
        LoweredKind::Pool { padding, .. } => *padding,
        _ => 0,
    }
}

struct Emitter<'a> {
    arch: &'a ArchConfig,
    input_shape: Shape,
    lowered: &'a [LoweredNode],
    placement: &'a Placement,
    progs: Vec<pimsim_isa::CoreProgram>,
    tags: Vec<Vec<u16>>,
    mem_next: Vec<u32>,
    /// Base address of every planned buffer.
    bufs: HashMap<BufKey, u32>,
    transfer_tags: HashMap<TagKey, u16>,
    /// Remote edges whose sends are emitted but whose consumer section has
    /// not yet received: `(producer, consumer, edge, consumer core, sender)`.
    /// Producer-first ordering is the cross-core drain order.
    pending_remote: BTreeSet<(u32, u32, u32, u16, u16)>,
    /// `(consumer, edge, core)` edges whose consumer section has begun
    /// receiving through the normal incremental path.
    drain_started: HashSet<(u32, u32, u16)>,
    /// `(consumer, edge, core)` edges fully received ahead of their
    /// section by [`Emitter::drain_pending_before`].
    hoist_drained: HashSet<(u32, u32, u16)>,
    next_tag: u32,
    weights: Option<WeightGen>,
    cur_tag: u16,
    /// Per-core rotating base-register cache: (reg index 1..=8, value).
    reg_cache: Vec<Vec<(u8, u32)>>,
    reg_next: Vec<u8>,
    /// Per-core next free physical crossbar.
    xbar_next: Vec<u32>,
    /// Per (node, slice-index-in-node) → (core, group ids).
    slice_groups: HashMap<(u32, u32), Vec<GroupId>>,
}

/// Entry point: emits the full program.
pub(crate) fn emit(
    net: &Network,
    lowered: &[LoweredNode],
    placement: &Placement,
    arch: &ArchConfig,
    policy: MappingPolicy,
    weights: Option<WeightGen>,
    batch: u32,
) -> Result<Compiled> {
    // The input sits at global address 0 and image `i`'s output at
    // `out_gaddr + i * out_elems`: a batch that runs past global memory is
    // refused before anything is planned or emitted.
    let out_node = net.output_node()?;
    let input_elems = net.input_shape.elems();
    let out_shape = lowered[out_node.as_usize()].out_shape;
    let out_gaddr = (input_elems as u64).next_multiple_of(64);
    let needed = u64::from(batch)
        .checked_mul(out_shape.elems() as u64)
        .and_then(|outputs| outputs.checked_add(out_gaddr))
        .unwrap_or(u64::MAX);
    let available = arch.resources.global_mem_elems();
    if needed > available {
        return Err(CompileError::GlobalMemoryOverflow {
            batch,
            needed,
            available,
        });
    }

    let n_cores = arch.resources.cores() as usize;
    let mut e = Emitter {
        arch,
        input_shape: net.input_shape,
        lowered,
        placement,
        progs: vec![pimsim_isa::CoreProgram::default(); n_cores],
        tags: vec![Vec::new(); n_cores],
        mem_next: vec![0; n_cores],
        bufs: HashMap::new(),
        transfer_tags: HashMap::new(),
        pending_remote: BTreeSet::new(),
        drain_started: HashSet::new(),
        hoist_drained: HashSet::new(),
        next_tag: 0,
        weights,
        cur_tag: 0,
        reg_cache: vec![Vec::new(); n_cores],
        reg_next: vec![1; n_cores],
        xbar_next: vec![0; n_cores],
        slice_groups: HashMap::new(),
    };

    e.plan_buffers()?;
    e.build_groups()?;

    for img in 0..batch {
        let img_out = out_gaddr + img as u64 * out_shape.elems() as u64;
        // Transfer bookkeeping is per inference: every edge sends and
        // receives again for the next image.
        e.pending_remote.clear();
        e.drain_started.clear();
        e.hoist_drained.clear();
        for node in lowered {
            e.cur_tag = node.id.0 as u16;
            match &node.kind {
                LoweredKind::Alias => {}
                LoweredKind::Matrix(_) => e.emit_matrix(node, out_node, img_out)?,
                LoweredKind::Pool { .. } => e.emit_pool(node, out_node, img_out)?,
                LoweredKind::GlobalPool => e.emit_global_pool(node, out_node, img_out)?,
                LoweredKind::Add { .. } => e.emit_add(node, out_node, img_out)?,
                LoweredKind::Concat => e.emit_concat(node, out_node, img_out)?,
                LoweredKind::Activation(_) => e.emit_activation(node, out_node, img_out)?,
            }
        }
    }

    // Halt every active core.
    for c in 0..n_cores {
        if !e.progs[c].instrs.is_empty() || !e.progs[c].groups.is_empty() {
            e.push(c as u16, Instruction::Halt);
        }
    }

    let mut program = Program::with_cores(n_cores);
    for (c, (prog, tags)) in e.progs.into_iter().zip(e.tags).enumerate() {
        program.cores[c] = prog;
        program.cores[c].instr_tags = tags;
    }
    program.meta.name = net.name.clone();
    program.meta.mapping = policy.to_string();
    program.meta.notes = format!("requant_shift={DEFAULT_REQUANT_SHIFT}");

    // Stage the input for functional runs.
    if let Some(gen) = e.weights {
        program.global_init = vec![(0, gen.input(input_elems))];
    }

    program.validate(&arch.program_limits())?;

    Ok(Compiled {
        program,
        batch,
        placement: placement.clone(),
        output: OutputSpec {
            gaddr: out_gaddr,
            elems: out_shape.elems(),
        },
        input_elems,
        node_names: lowered.iter().map(|n| n.name.clone()).collect(),
        policy,
    })
}

impl<'a> Emitter<'a> {
    // ------------------------------------------------------------ helpers --

    fn push(&mut self, core: u16, instr: Instruction) {
        self.progs[core as usize].instrs.push(instr);
        self.tags[core as usize].push(self.cur_tag);
    }

    /// Reserves `elems` of `core`'s local memory for buffer `key`.
    fn alloc_buf(
        &mut self,
        core: u16,
        key: BufKey,
        elems: impl Into<u64>,
        what: &str,
    ) -> Result<()> {
        let cap = self.arch.resources.local_mem_elems();
        let base = self.mem_next[core as usize];
        let end = (base as u64).saturating_add(elems.into());
        if end > cap as u64 {
            return Err(CompileError::LocalMemoryOverflow {
                core,
                needed: end,
                available: cap as u64,
                context: what.to_string(),
            });
        }
        self.mem_next[core as usize] = end as u32;
        self.bufs.insert(key, base);
        Ok(())
    }

    /// Base address of buffer `key`.
    fn buf(&self, key: BufKey) -> Result<u32> {
        self.bufs
            .get(&key)
            .copied()
            .ok_or_else(|| CompileError::Internal(format!("missing buffer {key:?}")))
    }

    /// Base address of `node`'s input-edge buffer on core `core`.
    fn edge_in(&self, node: &LoweredNode, edge: u32, core: u16) -> Result<u32> {
        self.buf(BufKey::EdgeIn(node.id.0, edge, core))
    }

    /// The transfer tag of `key`, allocated on first use.
    fn tag(&mut self, key: TagKey) -> Result<u16> {
        if let Some(&t) = self.transfer_tags.get(&key) {
            return Ok(t);
        }
        let t = u16::try_from(self.next_tag).map_err(|_| CompileError::TagOverflow)?;
        self.next_tag += 1;
        self.transfer_tags.insert(key, t);
        Ok(t)
    }

    /// Local-memory operand for absolute element address `abs`, emitting a
    /// base-register load if the offset does not fit the encoding.
    fn addr(&mut self, core: u16, abs: u32) -> Result<Addr> {
        if abs as i32 <= ABS_MAX && abs <= i32::MAX as u32 {
            return Ok(Addr::new(Reg::R0, abs as i32)?);
        }
        // Look for a cached base register within range.
        let cache = &self.reg_cache[core as usize];
        for &(reg, value) in cache {
            let off = abs as i64 - value as i64;
            if (0..=ABS_MAX as i64).contains(&off) {
                return Ok(Addr::new(Reg::new(reg)?, off as i32)?);
            }
        }
        // Load a new 1 MiB-aligned base into a rotating register (r1..r8).
        let base = abs & !((1u32 << 20) - 1);
        let reg = self.reg_next[core as usize];
        self.reg_next[core as usize] = if reg >= 8 { 1 } else { reg + 1 };
        let cache = &mut self.reg_cache[core as usize];
        cache.retain(|&(r, _)| r != reg);
        cache.push((reg, base));
        self.push(
            core,
            Instruction::SImm {
                op: SImmOp::Add,
                rd: Reg::new(reg)?,
                rs1: Reg::R0,
                imm: base as i32,
            },
        );
        Ok(Addr::new(Reg::new(reg)?, (abs - base) as i32)?)
    }

    /// Global-memory operand (element address).
    fn gaddr(&mut self, core: u16, abs: u64) -> Result<Addr> {
        let abs32 = u32::try_from(abs)
            .map_err(|_| CompileError::Internal(format!("global address {abs} exceeds 32 bits")))?;
        self.addr(core, abs32)
    }

    /// Splits `len` elements into `LEN_MAX`-sized chunks and pushes
    /// `make(done, n)` for each: `n` elements starting `done` in. `make`
    /// resolves its operands (which may emit base-register loads first).
    fn chunked(
        &mut self,
        core: u16,
        len: u32,
        mut make: impl FnMut(&mut Self, u32, u32) -> Result<Instruction>,
    ) -> Result<()> {
        let mut done = 0;
        while done < len {
            let n = (len - done).min(LEN_MAX);
            let instr = make(self, done, n)?;
            self.push(core, instr);
            done += n;
        }
        Ok(())
    }

    /// Synchronized send.
    fn send(&mut self, core: u16, peer: u16, src: u32, len: u32, tag: u16) -> Result<()> {
        self.chunked(core, len, |e, done, len| {
            Ok(Instruction::Send {
                peer: CoreId(peer),
                src: e.addr(core, src + done)?,
                len,
                tag,
            })
        })
    }

    /// Synchronized contiguous receive.
    fn recv(&mut self, core: u16, peer: u16, dst: u32, len: u32, tag: u16) -> Result<()> {
        self.chunked(core, len, |e, done, len| {
            Ok(Instruction::Recv {
                peer: CoreId(peer),
                dst: e.addr(core, dst + done)?,
                len,
                tag,
            })
        })
    }

    /// Global load into local memory.
    fn gload(&mut self, core: u16, dst: u32, gsrc: u64, len: u32) -> Result<()> {
        self.chunked(core, len, |e, done, len| {
            Ok(Instruction::GLoad {
                dst: e.addr(core, dst + done)?,
                gaddr: e.gaddr(core, gsrc + done as u64)?,
                len,
            })
        })
    }

    /// Global store from local memory.
    fn gstore(&mut self, core: u16, gdst: u64, src: u32, len: u32) -> Result<()> {
        self.chunked(core, len, |e, done, len| {
            Ok(Instruction::GStore {
                gaddr: e.gaddr(core, gdst + done as u64)?,
                src: e.addr(core, src + done)?,
                len,
            })
        })
    }

    /// Element-wise binary op over contiguous vectors.
    fn vbin(&mut self, core: u16, op: VBinOp, dst: u32, a: u32, b: u32, len: u32) -> Result<()> {
        self.chunked(core, len, |e, done, len| {
            Ok(Instruction::VBin {
                op,
                dst: e.addr(core, dst + done)?,
                a: e.addr(core, a + done)?,
                b: e.addr(core, b + done)?,
                len,
            })
        })
    }

    /// Element-wise unary op over contiguous vectors (`VUnOp::Copy` is
    /// the local copy).
    fn vun(&mut self, core: u16, op: VUnOp, dst: u32, src: u32, len: u32) -> Result<()> {
        self.chunked(core, len, |e, done, len| {
            Ok(Instruction::VUn {
                op,
                dst: e.addr(core, dst + done)?,
                src: e.addr(core, src + done)?,
                len,
            })
        })
    }

    /// The fused weight-layer epilogue: `at = acc + bias`, then `VSRAI`
    /// requantization and the activation, in place at `at`.
    fn epilogue(
        &mut self,
        core: u16,
        at: u32,
        acc: u32,
        bias: u32,
        len: u32,
        act: Option<Activation>,
    ) -> Result<()> {
        self.vbin(core, VBinOp::Add, at, acc, bias, len)?;
        let d = self.addr(core, at)?;
        self.push(
            core,
            Instruction::VImm {
                op: VImmOp::Sra,
                dst: d,
                src: d,
                imm: DEFAULT_REQUANT_SHIFT as i32,
                len,
            },
        );
        match act {
            Some(act) => self.vun(core, activation_op(act), at, at, len),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------ buffer planning --

    /// The *wire* shape of a node's input edge `e`: the effective
    /// producer's output (aliases like flatten change the logical shape
    /// but not the bytes).
    fn wire_shape(&self, node: &LoweredNode, e: usize) -> Shape {
        match resolve_alias(self.lowered, node.inputs[e]) {
            PortRef::Input => self.input_shape,
            PortRef::Node(id) => self.lowered[id.as_usize()].out_shape,
        }
    }

    /// Geometry of a node's input edge `e` as seen on compute core `cc`.
    /// The wire geometry (rows, elements per row) comes from the effective
    /// producer; the *placement* geometry (padding, channel interleave)
    /// comes from the consumer.
    fn edge_dst(&self, node: &LoweredNode, e: usize, cc: u16) -> Result<EdgeDst> {
        let src_shape = self.wire_shape(node, e);
        if matches!(node.kind, LoweredKind::Concat) && src_shape != node.in_shapes[e] {
            return Err(CompileError::Internal(format!(
                "concat input {e} of {} is reshaped ({} vs {}); aliasing into concat is unsupported",
                node.name, src_shape, node.in_shapes[e]
            )));
        }
        // Only `add` keeps a buffer per edge; concat assembles every branch
        // in one buffer, branch e at its channel offset.
        let (c_total, chan_off, edge) = match &node.kind {
            LoweredKind::Concat => {
                let off = node.in_shapes[..e].iter().map(|s| s.channels).sum();
                (node.out_shape.channels, off, 0)
            }
            LoweredKind::Add { .. } => (src_shape.channels, 0, e as u32),
            _ => (src_shape.channels, 0, 0),
        };
        // For flat sources (linear inputs, gap outputs) the "image" is the
        // producer's row structure.
        let pad = input_padding(&node.kind);
        Ok(EdgeDst {
            buf: self.edge_in(node, edge, cc)?,
            pad,
            w_pad: src_shape.width + 2 * pad,
            c_total,
            chan_off,
            src_w: src_shape.width,
            src_c: src_shape.channels,
        })
    }

    /// Elements of one scratch slot: the im2col window, the accumulator and
    /// one partial per crossbar group (distinct buffers so MVMs on
    /// different groups have no false WAW hazards and can run
    /// concurrently).
    fn slot_len(&self, m: &MatrixOp, max_cols: u32) -> u32 {
        let win = if m.is_linear() { 0 } else { m.rows };
        win + (1 + m.rows.div_ceil(self.arch.resources.xbar_rows)) * max_cols
    }

    fn plan_buffers(&mut self) -> Result<()> {
        let placement = self.placement;
        for node in self.lowered {
            let nid = node.id.0;
            let name = &node.name;
            let home = placement.home[node.id.as_usize()];
            let out_s = node.out_shape;
            // Every node materializes its whole output and forwards
            // edge-major (see the deadlock-freedom argument in the module
            // docs); concat already assembles a full buffer, aliases emit
            // nothing.
            if !matches!(node.kind, LoweredKind::Alias | LoweredKind::Concat) {
                let what = format!("{name} output buffer");
                self.alloc_buf(home, BufKey::OutBuf(nid), out_s.elems(), &what)?;
            }
            // The (first) input buffer, padded: in u64, where a padding
            // near `u32::MAX` still cannot wrap; a count past u64 saturates.
            let in_elems = || {
                let (s, pad) = (node.in_shapes[0], input_padding(&node.kind) as u64);
                let side = |len: u32| len as u64 + 2 * pad;
                (side(s.height).checked_mul(side(s.width)))
                    .and_then(|n| n.checked_mul(s.channels as u64))
                    .unwrap_or(u64::MAX)
            };
            match &node.kind {
                LoweredKind::Alias => {}
                LoweredKind::Matrix(m) => {
                    for cc in placement.compute_cores(node.id) {
                        let what = format!("{name} input");
                        self.alloc_buf(cc, BufKey::EdgeIn(nid, 0, cc), in_elems(), &what)?;
                        let cols = || {
                            placement
                                .slices_of(node.id)
                                .filter(|s| s.core == cc)
                                .map(|s| s.cols)
                        };
                        // Scratch: rotating window + accumulators.
                        let max_cols = cols().max().unwrap_or(out_s.channels);
                        let slots = SCRATCH_SLOTS * self.slot_len(m, max_cols.max(1));
                        let what = format!("{name} scratch");
                        self.alloc_buf(cc, BufKey::Scratch(nid, cc), slots, &what)?;
                        // Home assembles full channels.
                        let c_here = if cc == home {
                            out_s.channels
                        } else {
                            cols().sum()
                        };
                        // Non-home compute cores materialize their whole
                        // column-slice output, then ship it to home row by
                        // row after computing — interleaving gather sends
                        // with input receives would couple backpressure
                        // loops across the producer's forward phase.
                        if cc != home {
                            let st = out_s.height * out_s.width * c_here.max(1);
                            let what = format!("{name} slice output");
                            self.alloc_buf(cc, BufKey::Staging(nid, cc), st, &what)?;
                        }
                        // Bias: full vector at home, slice cols elsewhere.
                        let bias_elems = if cc == home { m.cols } else { c_here };
                        let what = format!("{name} bias");
                        self.alloc_buf(cc, BufKey::Bias(nid, cc), bias_elems.max(1), &what)?;
                    }
                    // Row-split support at home.
                    for (si, s) in placement.slices_of(node.id).enumerate() {
                        if s.covers_all_rows(m.rows) {
                            continue;
                        }
                        let acc = BufKey::AccRow(nid, s.col_start);
                        if !self.bufs.contains_key(&acc) {
                            let elems = out_s.height * out_s.width * s.cols;
                            self.alloc_buf(home, acc, elems, &format!("{name} accrow"))?;
                        }
                        if s.core != home {
                            let key = BufKey::PartialIn(nid, si as u32);
                            let what = format!("{name} partial-in");
                            self.alloc_buf(home, key, out_s.width * s.cols, &what)?;
                        }
                    }
                }
                LoweredKind::Pool { .. } | LoweredKind::GlobalPool | LoweredKind::Activation(_) => {
                    let what = format!("{name} input");
                    self.alloc_buf(home, BufKey::EdgeIn(nid, 0, home), in_elems(), &what)?;
                }
                LoweredKind::Add { .. } => {
                    for e in 0..2u32 {
                        let elems = node.in_shapes[e as usize].elems();
                        let what = format!("{name} input {e}");
                        self.alloc_buf(home, BufKey::EdgeIn(nid, e, home), elems, &what)?;
                    }
                }
                LoweredKind::Concat => {
                    let what = format!("{name} assembly");
                    self.alloc_buf(home, BufKey::EdgeIn(nid, 0, home), out_s.elems(), &what)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------ group building --

    fn build_groups(&mut self) -> Result<()> {
        let xr = self.arch.resources.xbar_rows;
        let lcpx = self.arch.resources.logical_cols_per_xbar().max(1);
        let placement = self.placement;
        for node in self.lowered {
            let Some(m) = node.matrix() else { continue };
            let full = self
                .weights
                .as_ref()
                .map(|g| g.matrix(node.id, m.rows, m.cols));
            for (si_local, s) in placement.slices_of(node.id).enumerate() {
                let core = s.core as usize;
                let mut gids = Vec::new();
                let rbs = s.rows.div_ceil(xr);
                let xbars_per_group = s.cols.div_ceil(lcpx);
                for rb in 0..rbs {
                    let row0 = s.row_start + rb * xr;
                    let rows = xr.min(s.row_start + s.rows - row0);
                    let n_groups = self.progs[core].groups.len();
                    if n_groups as u64 > limits::umax(limits::GROUP_BITS) {
                        return Err(CompileError::Internal(format!(
                            "group id overflow on core {core}"
                        )));
                    }
                    let gid = GroupId(n_groups as u16);
                    let xbar0 = self.xbar_next[core];
                    self.xbar_next[core] += xbars_per_group;
                    let xbar_ids: Vec<u32> = (xbar0..xbar0 + xbars_per_group).collect();
                    let mut g = GroupConfig::new(gid, rows, s.cols, xbar_ids);
                    if let Some(full) = &full {
                        let mut w = WeightMatrix::zeros(rows, s.cols);
                        for r in 0..rows {
                            for c in 0..s.cols {
                                let v = full[((row0 + r) as usize) * m.cols as usize
                                    + (s.col_start + c) as usize];
                                w.set(r, c, v);
                            }
                        }
                        g = g.with_weights(w)?;
                    }
                    self.progs[core].groups.push(g);
                    gids.push(gid);
                }
                self.slice_groups.insert((node.id.0, si_local as u32), gids);
            }
        }
        Ok(())
    }

    // -------------------------------------------------- input acquisition --

    /// Emits acquisition of source rows `from..=to` of edge `e` on core
    /// `cc` (RECV / GLOAD; local producers need nothing).
    ///
    /// Before the first `RECV` of a remote edge, any *pending* remote edge
    /// into `cc` from the same sender whose producer section is earlier is
    /// drained in full (see [`Emitter::drain_pending_before`]): the
    /// consumer core's receive order then matches the sender's send order,
    /// which is what keeps the credit-limited channels of the fabric from
    /// wedging when two edges between the same core pair cross (an early
    /// producer feeding a late consumer section and vice versa — e.g. a
    /// residual `add` output skipping ahead past the conv chain).
    fn acquire_rows(
        &mut self,
        node: &LoweredNode,
        e: usize,
        cc: u16,
        from: u32,
        to_incl: u32,
    ) -> Result<()> {
        if from > to_incl {
            return Ok(());
        }
        if let PortRef::Node(src_id) = resolve_alias(self.lowered, node.inputs[e]) {
            let src_home = self.placement.home[src_id.as_usize()];
            if src_home != cc {
                let key = (node.id.0, e as u32, cc);
                if self.hoist_drained.contains(&key) {
                    return Ok(()); // already received by an earlier hoist
                }
                if self.drain_started.insert(key) {
                    self.drain_pending_before(src_id.0, cc, src_home)?;
                }
            }
        }
        self.acquire_rows_inner(node, e, cc, from, to_incl)
    }

    /// Fully drains every pending remote edge into `cc` from `sender`
    /// whose producer precedes `producer` in the global section order.
    /// Receives land in the consumer's regular edge buffer; the consumer's
    /// own section later finds the rows already local and skips the `RECV`s.
    fn drain_pending_before(&mut self, producer: u32, cc: u16, sender: u16) -> Result<()> {
        // `pending_remote` is a `BTreeSet` keyed producer-first, so the
        // drain happens in producer order — the same order `sender` sent.
        let todo: Vec<(u32, u32)> = self
            .pending_remote
            .iter()
            .filter(|&&(p, cons, edge, pcc, psender)| {
                p < producer
                    && pcc == cc
                    && psender == sender
                    && !self.drain_started.contains(&(cons, edge, cc))
                    && !self.hoist_drained.contains(&(cons, edge, cc))
            })
            .map(|&(_, cons, edge, _, _)| (cons, edge))
            .collect();
        for (cons, edge) in todo {
            self.hoist_drained.insert((cons, edge, cc));
            let lowered = self.lowered;
            let cons_node = &lowered[cons as usize];
            let rows = self.eff_rows(cons_node, edge as usize);
            if rows == 0 {
                continue;
            }
            let saved = self.cur_tag;
            self.cur_tag = cons as u16;
            self.acquire_rows_inner(cons_node, edge as usize, cc, 0, rows - 1)?;
            self.cur_tag = saved;
        }
        Ok(())
    }

    fn acquire_rows_inner(
        &mut self,
        node: &LoweredNode,
        e: usize,
        cc: u16,
        from: u32,
        to_incl: u32,
    ) -> Result<()> {
        if from > to_incl {
            return Ok(());
        }
        let dst = self.edge_dst(node, e, cc)?;
        let row_len = dst.src_w * dst.src_c;
        match resolve_alias(self.lowered, node.inputs[e]) {
            PortRef::Input => {
                if dst.interleaved() {
                    return Err(CompileError::Internal(
                        "interleaved global load is not supported".into(),
                    ));
                }
                for y in from..=to_incl {
                    self.gload(cc, dst.row_base(y), y as u64 * row_len as u64, row_len)?;
                }
            }
            PortRef::Node(src_id) => {
                let src_home = self.placement.home[src_id.as_usize()];
                if src_home == cc {
                    return Ok(()); // producer wrote locally
                }
                let tag = self.tag(TagKey::Edge(node.id.0, e as u32, cc))?;
                for y in from..=to_incl {
                    if dst.interleaved() {
                        let d = self.addr(cc, dst.row_base(y))?;
                        self.push(
                            cc,
                            Instruction::Recv2d {
                                peer: CoreId(src_home),
                                dst: d,
                                block_len: dst.src_c,
                                blocks: dst.src_w,
                                dst_stride: dst.c_total as i32,
                                tag,
                            },
                        );
                    } else {
                        self.recv(cc, src_home, dst.row_base(y), row_len, tag)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Source rows needed before producing output row `y` of a windowed op.
    fn rows_needed(y: u32, kernel: u32, stride: u32, padding: u32, h_in: u32) -> u32 {
        (y * stride + kernel)
            .saturating_sub(padding + 1)
            .min(h_in - 1)
    }

    // ------------------------------------------------------- row forwarding --

    /// Consumers of `node`'s output: `(consumer, edge index)` sorted by the
    /// global order.
    fn consumers_of(&self, node: NodeId) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        for n in self.lowered {
            if matches!(n.kind, LoweredKind::Alias) {
                continue;
            }
            for (e, p) in n.inputs.iter().enumerate() {
                if resolve_alias(self.lowered, *p) == PortRef::Node(node) {
                    out.push((n.id, e));
                }
            }
        }
        out.sort_by_key(|(id, e)| (id.0, *e));
        out
    }

    /// Number of wire rows an edge carries: the *effective* producer's
    /// height (aliases such as flatten reshape logically, but the producer
    /// still forwards its own rows).
    fn eff_rows(&self, node: &LoweredNode, e: usize) -> u32 {
        self.wire_shape(node, e).height
    }

    /// A node's input edges sorted by (effective producer id, edge index)
    /// — the global drain order (network input counts as the earliest
    /// producer).
    fn edges_in_drain_order(&self, node: &LoweredNode) -> Vec<usize> {
        let mut edges: Vec<usize> = (0..node.inputs.len()).collect();
        edges.sort_by_key(|&e| {
            let key = match resolve_alias(self.lowered, node.inputs[e]) {
                PortRef::Input => -1i64,
                PortRef::Node(id) => id.0 as i64,
            };
            (key, e)
        });
        edges
    }

    /// Forwards row `y` of `node` along one consumer edge.
    fn forward_row_to(
        &mut self,
        node: &LoweredNode,
        cid: NodeId,
        e: usize,
        y: u32,
        src_row: u32,
    ) -> Result<()> {
        let home = self.placement.home[node.id.as_usize()];
        let row_len = node.out_shape.width * node.out_shape.channels;
        let consumer = &self.lowered[cid.as_usize()];
        let mut cores = self.placement.compute_cores(cid);
        cores.sort_unstable();
        for cc in cores {
            let dst = self.edge_dst(consumer, e, cc)?;
            if cc == home {
                if dst.interleaved() {
                    let d = self.addr(cc, dst.row_base(y))?;
                    let s = self.addr(cc, src_row)?;
                    self.push(
                        cc,
                        Instruction::VCopy2d {
                            dst: d,
                            src: s,
                            block_len: dst.src_c,
                            blocks: dst.src_w,
                            src_stride: dst.src_c as i32,
                            dst_stride: dst.c_total as i32,
                        },
                    );
                } else {
                    self.vun(cc, VUnOp::Copy, dst.row_base(y), src_row, row_len)?;
                }
            } else {
                let tag = self.tag(TagKey::Edge(cid.0, e as u32, cc))?;
                self.pending_remote
                    .insert((node.id.0, cid.0, e as u32, cc, home));
                self.send(home, cc, src_row, row_len, tag)?;
            }
        }
        Ok(())
    }

    /// Edge-major forwarding from a fully materialized output buffer, or a
    /// streaming `GSTORE` when this is the network's output node.
    fn finish_section(
        &mut self,
        node: &LoweredNode,
        outbuf: u32,
        out_node: NodeId,
        out_gaddr: u64,
    ) -> Result<()> {
        let row_len = node.out_shape.width * node.out_shape.channels;
        if node.id == out_node {
            for y in 0..node.out_shape.height {
                self.gstore(
                    self.placement.home[node.id.as_usize()],
                    out_gaddr + (y as u64) * row_len as u64,
                    outbuf + y * row_len,
                    row_len,
                )?;
            }
            return Ok(());
        }
        for (cid, e) in self.consumers_of(node.id) {
            for y in 0..node.out_shape.height {
                self.forward_row_to(node, cid, e, y, outbuf + y * row_len)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------- matrix nodes --

    fn emit_matrix(&mut self, node: &LoweredNode, out_node: NodeId, out_gaddr: u64) -> Result<()> {
        let m = node.matrix().expect("matrix node").clone();
        let nid = node.id.0;
        let home = self.placement.home[node.id.as_usize()];
        let out_s = node.out_shape;
        let in_s = node.in_shapes[0];
        let xr = self.arch.resources.xbar_rows;
        let placement = self.placement;
        // Every slice with its index within the node.
        let slices: Vec<(u32, &Slice)> = placement
            .slices_of(node.id)
            .enumerate()
            .map(|(i, s)| (i as u32, s))
            .collect();

        // Stage bias into local memory.
        if let Some(gen) = self.weights {
            let full_bias = gen.bias(node.id, m.cols);
            for cc in placement.compute_cores(node.id) {
                let vals: Vec<i32> = if cc == home {
                    full_bias.clone()
                } else {
                    slices
                        .iter()
                        .filter(|(_, s)| s.core == cc)
                        .flat_map(|(_, s)| {
                            &full_bias[s.col_start as usize..(s.col_start + s.cols) as usize]
                        })
                        .copied()
                        .collect()
                };
                if !vals.is_empty() {
                    let b = self.buf(BufKey::Bias(nid, cc))?;
                    self.progs[cc as usize].local_init.push((b, vals));
                }
            }
        }

        // Home first for readability; ordering across cores is irrelevant.
        let mut cores: Vec<u16> = slices.iter().map(|(_, s)| s.core).collect();
        cores.sort_unstable_by_key(|&c| (c != home, c));
        cores.dedup();

        let (h_out, w_out) = (out_s.height, out_s.width);
        let is_linear = m.is_linear();
        let rows_src = if is_linear {
            self.eff_rows(node, 0)
        } else {
            in_s.height
        };
        let win_len = if is_linear { 0 } else { m.rows };
        let w_pad_elems = (in_s.width + 2 * m.padding) * in_s.channels;
        let outbuf = self.buf(BufKey::OutBuf(nid))?;

        // Per core: emit its section.
        for &cc in &cores {
            // This core's slices with their column offset in its output
            // rows (home: the full channel range; slice cores pack theirs).
            let mut packed = 0;
            let my: Vec<(u32, &Slice, u32)> = slices
                .iter()
                .filter(|(_, s)| s.core == cc)
                .map(|&(si, s)| {
                    let off = if cc == home { s.col_start } else { packed };
                    packed += s.cols;
                    (si, s, off)
                })
                .collect();
            let in_buf = self.edge_in(node, 0, cc)?;
            let scratch = self.buf(BufKey::Scratch(nid, cc))?;
            let bias = self.buf(BufKey::Bias(nid, cc))?;
            let max_cols = my.iter().map(|(_, s, _)| s.cols).max().unwrap_or(1);
            let slot_len = self.slot_len(&m, max_cols);
            // Where this core assembles its output rows: home the
            // materialized output, slice cores their slice buffer.
            let (rows_at, c_here) = if cc == home {
                (outbuf, out_s.channels)
            } else {
                (self.buf(BufKey::Staging(nid, cc))?, packed)
            };
            let row_len_out = w_out * c_here;
            let mut acquired: i64 = -1;

            for y in 0..h_out {
                let row_base = rows_at + y * row_len_out;
                // Acquire the input rows this output row needs.
                if is_linear {
                    if y == 0 {
                        self.acquire_rows(node, 0, cc, 0, rows_src - 1)?;
                    }
                } else {
                    let need = Self::rows_needed(y, m.kernel, m.stride, m.padding, in_s.height);
                    if need as i64 > acquired {
                        self.acquire_rows(node, 0, cc, (acquired + 1) as u32, need)?;
                        acquired = need as i64;
                    }
                }

                for x in 0..w_out {
                    let win = scratch + (x % SCRATCH_SLOTS) * slot_len;
                    let acc = win + win_len;
                    let parts = acc + max_cols;

                    // Assemble the im2col window (skip for linear and for
                    // pointwise stride-1 unpadded convs, which read the
                    // input buffer directly).
                    let direct_src: Option<u32> = if is_linear {
                        Some(in_buf)
                    } else if m.kernel == 1 && m.stride == 1 && m.padding == 0 {
                        Some(in_buf + (y * in_s.width + x) * in_s.channels)
                    } else {
                        let src0 = in_buf
                            + (y * m.stride * (in_s.width + 2 * m.padding) + x * m.stride)
                                * in_s.channels;
                        let d = self.addr(cc, win)?;
                        let s = self.addr(cc, src0)?;
                        self.push(
                            cc,
                            Instruction::VCopy2d {
                                dst: d,
                                src: s,
                                block_len: m.kernel * in_s.channels,
                                blocks: m.kernel,
                                src_stride: w_pad_elems as i32,
                                dst_stride: (m.kernel * in_s.channels) as i32,
                            },
                        );
                        None
                    };

                    for &(si, s, loff) in &my {
                        let gids = self.slice_groups[&(nid, si)].clone();
                        let complete = s.covers_all_rows(m.rows);
                        // Raw accumulation target: row-split slices at home
                        // accumulate in their range's accumulator; all
                        // others write straight into the output row.
                        let seg_dst = if !complete && cc == home {
                            self.buf(BufKey::AccRow(nid, s.col_start))? + (y * w_out + x) * s.cols
                        } else {
                            row_base + x * c_here + loff
                        };
                        let n_g = gids.len();
                        for (gi, gid) in gids.iter().enumerate() {
                            let g_rows = self.progs[cc as usize].groups[gid.as_usize()].input_len;
                            let row0 = s.row_start + (gi as u32) * xr;
                            let src = direct_src.unwrap_or(win) + row0;
                            let mvm_dst = if gi == 0 {
                                acc
                            } else {
                                parts + (gi as u32 - 1) * max_cols
                            };
                            let d = self.addr(cc, mvm_dst)?;
                            let sa = self.addr(cc, src)?;
                            self.push(
                                cc,
                                Instruction::Mvm {
                                    group: *gid,
                                    dst: d,
                                    src: sa,
                                    len: g_rows,
                                },
                            );
                            if gi > 0 {
                                // Fold the partial into the accumulator; the
                                // last fold lands in the segment target.
                                let fold_dst = if gi + 1 == n_g { seg_dst } else { acc };
                                self.vbin(cc, VBinOp::Add, fold_dst, acc, mvm_dst, s.cols)?;
                            } else if n_g == 1 {
                                self.vun(cc, VUnOp::Copy, seg_dst, acc, s.cols)?;
                            }
                        }
                        if complete {
                            self.epilogue(cc, seg_dst, seg_dst, bias + loff, s.cols, m.activation)?;
                        }
                    }
                }
            }
            // Windows may not cover the bottom input rows (e.g. stride-2
            // pointwise convs); drain them anyway so every sent row is
            // consumed and channel credits never leak.
            if !is_linear && acquired + 1 < rows_src as i64 {
                self.acquire_rows(node, 0, cc, (acquired + 1) as u32, rows_src - 1)?;
            }
            if cc == home {
                // Phase B: drain remote slices (complete ones interleave
                // straight into the output; raw partials fold into the
                // accumulator), then run the epilogue for row-split ranges.
                for y in 0..h_out {
                    let row_base = outbuf + y * row_len_out;
                    for &(si, sl) in &slices {
                        if sl.core == home {
                            continue;
                        }
                        let tag = self.tag(TagKey::Gather(nid, si))?;
                        if sl.covers_all_rows(m.rows) {
                            let d = self.addr(home, row_base + sl.col_start)?;
                            self.push(
                                home,
                                Instruction::Recv2d {
                                    peer: CoreId(sl.core),
                                    dst: d,
                                    block_len: sl.cols,
                                    blocks: w_out,
                                    dst_stride: out_s.channels as i32,
                                    tag,
                                },
                            );
                        } else {
                            let len = w_out * sl.cols;
                            let pin = self.buf(BufKey::PartialIn(nid, si))?;
                            self.recv(home, sl.core, pin, len, tag)?;
                            let at = self.buf(BufKey::AccRow(nid, sl.col_start))? + y * len;
                            self.vbin(home, VBinOp::Add, at, at, pin, len)?;
                        }
                    }
                    let mut done_ranges: Vec<u32> = Vec::new();
                    for &(_, sl) in &slices {
                        if sl.covers_all_rows(m.rows) || done_ranges.contains(&sl.col_start) {
                            continue;
                        }
                        done_ranges.push(sl.col_start);
                        let accrow = self.buf(BufKey::AccRow(nid, sl.col_start))?;
                        for x in 0..w_out {
                            let at = row_base + x * out_s.channels + sl.col_start;
                            let acc = accrow + (y * w_out + x) * sl.cols;
                            let bias_at = bias + sl.col_start;
                            self.epilogue(home, at, acc, bias_at, sl.cols, m.activation)?;
                        }
                    }
                }
                self.finish_section(node, outbuf, out_node, out_gaddr)?;
            } else {
                // Ship each slice segment to home, row by row in order.
                for y in 0..h_out {
                    for &(si, sl, loff) in &my {
                        let tag = self.tag(TagKey::Gather(nid, si))?;
                        let src = rows_at + y * row_len_out + loff;
                        let len = w_out * sl.cols;
                        // Per-pixel segments of this slice are strided by
                        // c_here; contiguous only when the slice owns the
                        // whole local row.
                        if sl.cols == c_here {
                            self.send(cc, home, src, len, tag)?;
                        } else {
                            // Compact the strided segment into the scratch
                            // area, then send contiguously.
                            let d = self.addr(cc, scratch)?;
                            let sa = self.addr(cc, src)?;
                            self.push(
                                cc,
                                Instruction::VCopy2d {
                                    dst: d,
                                    src: sa,
                                    block_len: sl.cols,
                                    blocks: w_out,
                                    src_stride: c_here as i32,
                                    dst_stride: sl.cols as i32,
                                },
                            );
                            self.send(cc, home, scratch, len, tag)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // -------------------------------------------------------- other nodes --

    fn emit_pool(&mut self, node: &LoweredNode, out_node: NodeId, out_gaddr: u64) -> Result<()> {
        let LoweredKind::Pool {
            is_max,
            kernel,
            stride,
            padding,
        } = node.kind
        else {
            unreachable!("emit_pool on non-pool");
        };
        if kernel > WIN_MAX {
            return Err(CompileError::Internal(format!(
                "pool window {kernel} exceeds the ISA limit {WIN_MAX}"
            )));
        }
        let home = self.placement.home[node.id.as_usize()];
        let in_s = node.in_shapes[0];
        let out_s = node.out_shape;
        let in_buf = self.edge_in(node, 0, home)?;
        let w_pad_elems = (in_s.width + 2 * padding) * in_s.channels;
        let op = if is_max { PoolOp::Max } else { PoolOp::Avg };
        let mut acquired: i64 = -1;
        let outbuf = self.buf(BufKey::OutBuf(node.id.0))?;
        let row_len = out_s.width * out_s.channels;
        for y in 0..out_s.height {
            let row_base = outbuf + y * row_len;
            let need = Self::rows_needed(y, kernel, stride, padding, in_s.height);
            if need as i64 > acquired {
                self.acquire_rows(node, 0, home, (acquired + 1) as u32, need)?;
                acquired = need as i64;
            }
            for x in 0..out_s.width {
                let src =
                    in_buf + (y * stride * (in_s.width + 2 * padding) + x * stride) * in_s.channels;
                let d = self.addr(home, row_base + x * out_s.channels)?;
                let s = self.addr(home, src)?;
                self.push(
                    home,
                    Instruction::VPool {
                        op,
                        dst: d,
                        src: s,
                        channels: in_s.channels,
                        win_w: kernel,
                        win_h: kernel,
                        row_stride: w_pad_elems as i32,
                    },
                );
            }
        }
        if acquired + 1 < in_s.height as i64 {
            self.acquire_rows(node, 0, home, (acquired + 1) as u32, in_s.height - 1)?;
        }
        self.finish_section(node, outbuf, out_node, out_gaddr)
    }

    fn emit_global_pool(
        &mut self,
        node: &LoweredNode,
        out_node: NodeId,
        out_gaddr: u64,
    ) -> Result<()> {
        let home = self.placement.home[node.id.as_usize()];
        let in_s = node.in_shapes[0];
        if in_s.width > WIN_MAX || in_s.height > WIN_MAX {
            return Err(CompileError::Internal(format!(
                "global pool over {}x{} exceeds the ISA window limit {WIN_MAX}",
                in_s.height, in_s.width
            )));
        }
        let in_buf = self.edge_in(node, 0, home)?;
        self.acquire_rows(node, 0, home, 0, self.eff_rows(node, 0) - 1)?;
        let outbuf = self.buf(BufKey::OutBuf(node.id.0))?;
        let d = self.addr(home, outbuf)?;
        let s = self.addr(home, in_buf)?;
        self.push(
            home,
            Instruction::VPool {
                op: PoolOp::Avg,
                dst: d,
                src: s,
                channels: in_s.channels,
                win_w: in_s.width,
                win_h: in_s.height,
                row_stride: (in_s.width * in_s.channels) as i32,
            },
        );
        self.finish_section(node, outbuf, out_node, out_gaddr)
    }

    fn emit_activation(
        &mut self,
        node: &LoweredNode,
        out_node: NodeId,
        out_gaddr: u64,
    ) -> Result<()> {
        let LoweredKind::Activation(act) = node.kind else {
            unreachable!("emit_activation on non-activation");
        };
        let home = self.placement.home[node.id.as_usize()];
        let in_s = node.in_shapes[0];
        let in_buf = self.edge_in(node, 0, home)?;
        let row = in_s.width * in_s.channels;
        let outbuf = self.buf(BufKey::OutBuf(node.id.0))?;
        let op = activation_op(act);
        let eff = self.eff_rows(node, 0);
        if eff != in_s.height {
            self.acquire_rows(node, 0, home, 0, eff - 1)?;
        }
        for y in 0..in_s.height {
            if eff == in_s.height {
                self.acquire_rows(node, 0, home, y, y)?;
            }
            self.vun(home, op, outbuf + y * row, in_buf + y * row, row)?;
        }
        self.finish_section(node, outbuf, out_node, out_gaddr)
    }

    fn emit_add(&mut self, node: &LoweredNode, out_node: NodeId, out_gaddr: u64) -> Result<()> {
        let LoweredKind::Add { activation } = node.kind else {
            unreachable!("emit_add on non-add");
        };
        let home = self.placement.home[node.id.as_usize()];
        let s = node.out_shape;
        let a_buf = self.edge_in(node, 0, home)?;
        let b_buf = self.edge_in(node, 1, home)?;
        let row = s.width * s.channels;
        let outbuf = self.buf(BufKey::OutBuf(node.id.0))?;
        // Drain edges in producer order; the last one pipelines row by row
        // with the adds.
        let order = self.edges_in_drain_order(node);
        let (&last, earlier) = order.split_last().expect("add has two edges");
        for &e in earlier {
            self.acquire_rows(node, e, home, 0, self.eff_rows(node, e) - 1)?;
        }
        let eff_last = self.eff_rows(node, last);
        if eff_last != s.height {
            self.acquire_rows(node, last, home, 0, eff_last - 1)?;
        }
        for y in 0..s.height {
            if eff_last == s.height {
                self.acquire_rows(node, last, home, y, y)?;
            }
            let at = outbuf + y * row;
            self.vbin(home, VBinOp::Add, at, a_buf + y * row, b_buf + y * row, row)?;
            if let Some(act) = activation {
                self.vun(home, activation_op(act), at, at, row)?;
            }
        }
        self.finish_section(node, outbuf, out_node, out_gaddr)
    }

    fn emit_concat(&mut self, node: &LoweredNode, out_node: NodeId, out_gaddr: u64) -> Result<()> {
        let home = self.placement.home[node.id.as_usize()];
        let buf = self.edge_in(node, 0, home)?;
        // Drain every branch fully, in producer order.
        for e in self.edges_in_drain_order(node) {
            let h = self.eff_rows(node, e);
            self.acquire_rows(node, e, home, 0, h - 1)?;
        }
        // The assembly buffer is already a full output.
        self.finish_section(node, buf, out_node, out_gaddr)
    }
}
