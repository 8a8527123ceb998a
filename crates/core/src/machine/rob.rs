//! Per-core re-order buffer, kept as an incremental scoreboard.
//!
//! Every hazard is resolved **once**, when an entry is admitted: the new
//! entry is compared against each older entry that is not yet `Done`
//! (the ISA's memory rule, [`Footprint::conflicts`], plus same-channel
//! FIFO order). Each conflict becomes one blocker→dependent edge; the new
//! entry remembers how many blockers are outstanding. [`Core::mark_done`]
//! — the only place an entry turns `Done` — walks the finished entry's
//! dependents, and whichever of them just lost its last blocker joins the
//! age-ordered *ready set*. [`Core::next_issuable`] then only has to walk
//! the ready set checking unit availability.
//!
//! This issues exactly what a full age-ordered rescan would: the conflict
//! relation of a pair is fixed at admit (addresses, channel and class
//! never change) and `Done` is monotone, so "no outstanding blocker" and
//! "no hazard against any older not-`Done` entry" are the same set at
//! every instant. The rescan survives as the `#[cfg(test)]` oracle the
//! differential test below holds the scoreboard to.
//!
//! Chains cost one edge, not one per pair. Each entry records its
//! *ancestors*: the older entries certain to be `Done` before it can be,
//! namely its conflicting entries and, transitively, theirs. Admit scans
//! from the youngest older entry back and skips every ancestor of an entry
//! it already conflicts with — the skipped entry turns `Done` before that
//! one, so an edge from it could never be the last to clear. Back-to-back
//! receives into one buffer, or sends on one channel, thus each wait on
//! their predecessor alone, and the ready set moves exactly as before.
//! Ancestors are kept as a bitmask over the 64 entries before the entry
//! and as a sequence number below which every then-unfinished entry is
//! one; admit stops scanning below the highest such number among the
//! entries it waits on, so a pile-up of conflicting entries deeper than
//! 64 still costs about one edge per entry, not one per pair.
//!
//! In-flight entries are fixed-size and heap-free. They live in a ring
//! indexed by `seq & mask`, so finding an entry by sequence number is one
//! mask, and retirement bumps the head. The ring doubles when an admit
//! finds it full, so it never exceeds the smallest power of two at least
//! `rob_size` and a huge configured ROB costs only what a run fills.
//! Edges live in a per-core pool that grows to the peak conflict count
//! and is then recycled, so the steady state allocates nothing and no ROB
//! size is special.
//!
//! What the issue logic asks of a crossbar group is fixed for a run, so
//! each core prices every group's `MVM` once and turns its crossbar set
//! into `(word, mask)` pairs over [`Core::busy_xbars`]: the structure
//! hazard is a few ANDs, booking and releasing a few ORs.

use pimsim_arch::model::{Cost, CostModel};
use pimsim_event::SimTime;
use pimsim_isa::{Footprint, GroupConfig, GroupId, InstrClass, Instruction, Resolved};

use crate::exec::Memory;
use crate::stats::CoreStats;

/// Lifecycle of one ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    Waiting,
    Executing,
    Done,
}

/// "No transfer channel": the [`InFlight::chan`] of everything but
/// `SEND`/`RECV`, and the filler of [`Core::chans`].
pub(crate) const NO_CHANNEL: u32 = u32::MAX;

/// End of an edge list / empty free list.
const NIL: u32 = u32::MAX;

/// One blocker→dependent edge in the per-core pool.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Sequence number of the younger, blocked entry.
    dependent: u64,
    /// Next edge of the same blocker (or next free slot), `NIL`-terminated.
    next: u32,
}

/// One instruction in flight between dispatch and retirement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    pub(crate) res: Resolved,
    pub(crate) class: InstrClass,
    pub(crate) tag: u16,
    pub(crate) state: State,
    pub(crate) issue_at: SimTime,
    /// The instruction's index in its core's program (the trace renders
    /// it at report time).
    pub(crate) pc: u32,
    /// Dense index of the `(sender, receiver, tag)` channel a `SEND` or
    /// `RECV` uses ([`NO_CHANNEL`] otherwise).
    pub(crate) chan: u32,
    /// The memory it touches, built from its operands' extents at
    /// dispatch after they passed the bounds check: what the hazard check
    /// orders it by.
    pub(crate) footprint: Footprint,
    /// Ancestors among the 64 entries before this one: bit `k` is the
    /// entry `k + 1` places older. Farther ancestors are dropped, which
    /// only costs the scan a test.
    ancestors: u64,
    /// Every entry older than this sequence number that was not `Done` at
    /// admit is an ancestor, however far back.
    covers_below: u64,
    /// Older conflicting entries that are not `Done` yet.
    blockers: u32,
    /// Head of this entry's list of blocked younger entries.
    dependents: u32,
}

impl InFlight {
    /// Must `self` wait until the older entry `older` is `Done`?
    fn must_follow(&self, older: &InFlight) -> bool {
        // Transfers may overtake each other *across* channels, but each
        // (src, dst, tag) channel stays FIFO so messages match in program
        // order.
        let fifo = self.chan != NO_CHANNEL && self.chan == older.chan;
        fifo || self.footprint.conflicts(&older.footprint)
    }
}

/// What the issue logic needs to know about the entry it just started.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Issued {
    pub(crate) class: InstrClass,
    pub(crate) res: Resolved,
    pub(crate) tag: u16,
    pub(crate) chan: u32,
}

/// A crossbar group as the issue logic sees it, built once per run.
#[derive(Debug, Clone, Copy)]
struct GroupPlan {
    /// The price of one `MVM` on the group.
    mvm: Cost,
    /// Its `(word, mask)` pairs: `Core::xbar_masks[start..end]`.
    masks: (u32, u32),
}

/// One simulated core: frontend state, register file, ROB, execution-unit
/// occupancy, local memory, and its slice of the program — borrowed, so a
/// run never copies the instruction stream or the group table.
#[derive(Debug)]
pub(crate) struct Core<'p> {
    pub(crate) pc: u32,
    pub(crate) regs: [i32; 32],
    pub(crate) halted: bool,
    pub(crate) rob_size: usize,
    pub(crate) next_dispatch: SimTime,
    pub(crate) advance_pending: bool,
    pub(crate) vector_busy: bool,
    /// One bit per crossbar: set while an executing `MVM` occupies it.
    pub(crate) busy_xbars: Vec<u64>,
    pub(crate) instrs: &'p [Instruction],
    pub(crate) groups: &'p [GroupConfig],
    pub(crate) tags: &'p [u16],
    /// Channel index of each instruction (parallel to `instrs`), filled in
    /// by [`TransferFabric::for_cores`](super::transfer::TransferFabric::for_cores).
    pub(crate) chans: Vec<u32>,
    pub(crate) mem: Memory,
    pub(crate) stats: CoreStats,
    /// Per group (parallel to `groups`): its price and crossbar masks.
    plans: Vec<GroupPlan>,
    /// Every group's `(busy_xbars word, mask)` pairs, back to back.
    xbar_masks: Vec<(u32, u64)>,
    // The scoreboard proper. Private: `rob` is a ring of power-of-two
    // length holding sequence numbers `head..seq_next` at `seq & mask`,
    // `ready` is exactly the `Waiting` entries with no blocker, in age
    // order, and every edge hangs off a not-`Done` entry — conditions only
    // this module's methods keep.
    rob: Vec<InFlight>,
    head: u64,
    seq_next: u64,
    ready: Vec<u64>,
    edges: Vec<Edge>,
    free_edge: u32,
}

impl<'p> Core<'p> {
    /// A core at reset: program loaded, ROB empty, units idle, first
    /// dispatch possible at `next_dispatch`, and each group priced by
    /// `model`.
    pub(crate) fn new(
        instrs: &'p [Instruction],
        groups: &'p [GroupConfig],
        tags: &'p [u16],
        mem: Memory,
        rob_size: usize,
        next_dispatch: SimTime,
        model: &CostModel<'_>,
    ) -> Core<'p> {
        let xbars = groups
            .iter()
            .flat_map(|g| &g.xbar_ids)
            .max()
            .map_or(0, |&x| x as usize + 1);
        let mut xbar_masks: Vec<(u32, u64)> = Vec::new();
        let plans = groups
            .iter()
            .map(|g| {
                let start = xbar_masks.len();
                for &x in &g.xbar_ids {
                    let word = x / 64;
                    match xbar_masks[start..].iter_mut().find(|(w, _)| *w == word) {
                        Some((_, mask)) => *mask |= xbar_bit(x),
                        None => xbar_masks.push((word, xbar_bit(x))),
                    }
                }
                let nx = g.xbar_ids.len() as u32;
                GroupPlan {
                    mvm: model.mvm_cost(g.input_len, g.output_len, nx),
                    masks: (start as u32, xbar_masks.len() as u32),
                }
            })
            .collect();
        Core {
            pc: 0,
            regs: [0; 32],
            halted: instrs.is_empty(),
            rob_size,
            next_dispatch,
            advance_pending: false,
            vector_busy: false,
            busy_xbars: vec![0; xbars.div_ceil(64)],
            chans: vec![NO_CHANNEL; instrs.len()],
            instrs,
            groups,
            tags,
            mem,
            stats: CoreStats::default(),
            plans,
            xbar_masks,
            rob: Vec::new(),
            head: 0,
            seq_next: 0,
            ready: Vec::new(),
            edges: Vec::new(),
            free_edge: NIL,
        }
    }

    /// The entries in flight, oldest first.
    pub(crate) fn in_flight(&self) -> impl Iterator<Item = &InFlight> {
        (self.head..self.seq_next).map(|seq| &self.rob[self.slot(seq)])
    }

    pub(crate) fn rob_is_empty(&self) -> bool {
        self.head == self.seq_next
    }

    /// `true` when dispatch must wait for a retirement.
    pub(crate) fn rob_is_full(&self) -> bool {
        self.seq_next - self.head >= self.rob_size as u64
    }

    /// The ring index of sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        seq as usize & self.rob.len().wrapping_sub(1)
    }

    /// The ROB entry with sequence number `seq`, if still in flight.
    pub(crate) fn find(&mut self, seq: u64) -> Option<&mut InFlight> {
        if !(self.head..self.seq_next).contains(&seq) {
            return None;
        }
        let slot = self.slot(seq);
        Some(&mut self.rob[slot])
    }

    /// Appends a freshly dispatched memory-class instruction to the ROB in
    /// the `Waiting` state and resolves its hazards, by `footprint`,
    /// against every older entry still in progress. Returns its sequence
    /// number.
    pub(crate) fn admit(
        &mut self,
        tag: u16,
        class: InstrClass,
        res: Resolved,
        footprint: Footprint,
        chan: u32,
        pc: u32,
    ) -> u64 {
        let seq = self.seq_next;
        let mut entry = InFlight {
            footprint,
            res,
            class,
            tag,
            state: State::Waiting,
            issue_at: SimTime::ZERO,
            pc,
            chan,
            ancestors: 0,
            covers_below: seq,
            blockers: 0,
            dependents: NIL,
        };
        // Entries below `covered` are ancestors of a blocker found so far.
        let mut covered = self.head;
        let mask = self.rob.len().wrapping_sub(1);
        for (back, older_seq) in (1u32..).zip((self.head..seq).rev()) {
            if older_seq < covered {
                break;
            }
            let older = &mut self.rob[older_seq as usize & mask];
            let bit = 1u64.checked_shl(back - 1).unwrap_or(0);
            if entry.ancestors & bit != 0 || older.state == State::Done {
                continue;
            }
            if !entry.must_follow(older) {
                entry.covers_below = older_seq;
                continue;
            }
            entry.ancestors |= bit | older.ancestors.checked_shl(back).unwrap_or(0);
            covered = covered.max(older.covers_below);
            let edge = Edge {
                dependent: seq,
                next: older.dependents,
            };
            older.dependents = if self.free_edge == NIL {
                self.edges.push(edge);
                (self.edges.len() - 1) as u32
            } else {
                let slot = self.free_edge;
                self.free_edge = self.edges[slot as usize].next;
                self.edges[slot as usize] = edge;
                slot
            };
            entry.blockers += 1;
        }
        if entry.blockers == 0 {
            // The youngest entry: appending keeps the ready set in age order.
            self.ready.push(seq);
        }
        if seq - self.head == self.rob.len() as u64 {
            self.grow(entry);
        }
        let slot = self.slot(seq);
        self.rob[slot] = entry;
        self.seq_next += 1;
        seq
    }

    /// Doubles the full ring, moving each live entry to its slot under the
    /// wider mask. `filler` fills the slots no live entry takes.
    fn grow(&mut self, filler: InFlight) {
        let len = (self.rob.len() * 2).max(1);
        let mut ring = vec![filler; len];
        for seq in self.head..self.seq_next {
            ring[seq as usize & (len - 1)] = self.rob[self.slot(seq)];
        }
        self.rob = ring;
    }

    /// The oldest hazard-free `Waiting` entry whose execution unit is
    /// available. `structure_hazard` gates the paper's same-crossbar
    /// serialization rule.
    pub(crate) fn next_issuable(&self, structure_hazard: bool) -> Option<u64> {
        self.ready
            .iter()
            .copied()
            .find(|&seq| self.unit_available(&self.rob[self.slot(seq)], structure_hazard))
    }

    /// Structural availability of `e`'s execution unit.
    fn unit_available(&self, e: &InFlight, structure_hazard: bool) -> bool {
        match e.class {
            InstrClass::Vector => !self.vector_busy,
            // The transfer unit pipelines: waits cost time but do not
            // block unrelated channels.
            InstrClass::Transfer => true,
            // The paper's structure hazard: same crossbar ⇒ wait (an
            // ablation flag can disable the rule).
            InstrClass::Matrix => match e.res {
                Resolved::Mvm { group, .. } => !structure_hazard || self.xbars_free(group),
                other => unreachable!("matrix class mismatch: {other:?}"),
            },
            InstrClass::Scalar => unreachable!("scalar instructions never enter the ROB"),
        }
    }

    /// Moves the ready entry `seq` to `Executing`, issued at `now`.
    /// Returns `None` if `seq` is not a ready entry in flight (an
    /// invariant break the caller reports).
    pub(crate) fn begin(&mut self, seq: u64, now: SimTime) -> Option<Issued> {
        let pos = self.ready.binary_search(&seq).ok()?;
        let e = self.find(seq)?;
        e.state = State::Executing;
        e.issue_at = now;
        let issued = Issued {
            class: e.class,
            res: e.res,
            tag: e.tag,
            chan: e.chan,
        };
        self.ready.remove(pos);
        Some(issued)
    }

    /// Marks the executing entry `seq` `Done` — the single funnel for that
    /// transition — and moves every dependent that just lost its last
    /// blocker to the ready set. Returns the entry, or `None` if no such
    /// entry is executing (an invariant break the caller reports).
    pub(crate) fn mark_done(&mut self, seq: u64) -> Option<&mut InFlight> {
        let e = self.find(seq).filter(|e| e.state == State::Executing)?;
        e.state = State::Done;
        let mut edge = std::mem::replace(&mut e.dependents, NIL);
        while edge != NIL {
            let Edge { dependent, next } = self.edges[edge as usize];
            self.edges[edge as usize].next = self.free_edge;
            self.free_edge = edge;
            edge = next;
            // Dependents are younger, and retirement is in order: still here.
            let slot = self.slot(dependent);
            let d = &mut self.rob[slot];
            d.blockers -= 1;
            if d.blockers == 0 {
                let at = self.ready.partition_point(|&s| s < dependent);
                self.ready.insert(at, dependent);
            }
        }
        let slot = self.slot(seq);
        Some(&mut self.rob[slot])
    }

    /// Pops retired (`Done`) entries from the ROB head, in order.
    pub(crate) fn retire(&mut self) {
        while self.head < self.seq_next && self.rob[self.slot(self.head)].state == State::Done {
            self.head += 1;
        }
    }

    /// The price of one `MVM` on `group`.
    pub(crate) fn mvm_cost(&self, group: GroupId) -> Cost {
        self.plans[group.as_usize()].mvm
    }

    /// `group`'s `(busy_xbars word, mask)` pairs.
    fn masks_of(&self, group: GroupId) -> &[(u32, u64)] {
        let (start, end) = self.plans[group.as_usize()].masks;
        &self.xbar_masks[start as usize..end as usize]
    }

    /// `true` if no crossbar of `group` is occupied.
    fn xbars_free(&self, group: GroupId) -> bool {
        (self.masks_of(group).iter()).all(|&(w, mask)| self.busy_xbars[w as usize] & mask == 0)
    }

    /// Occupies every crossbar of `group` (an `MVM` started).
    pub(crate) fn book_xbars(&mut self, group: GroupId) {
        let (start, end) = self.plans[group.as_usize()].masks;
        for &(w, mask) in &self.xbar_masks[start as usize..end as usize] {
            self.busy_xbars[w as usize] |= mask;
        }
    }

    /// Frees every crossbar of `group` (an `MVM` finished).
    pub(crate) fn release_xbars(&mut self, group: GroupId) {
        let (start, end) = self.plans[group.as_usize()].masks;
        for &(w, mask) in &self.xbar_masks[start as usize..end as usize] {
            self.busy_xbars[w as usize] &= !mask;
        }
    }
}

/// Crossbar `x`'s bit within its [`Core::busy_xbars`] word.
fn xbar_bit(x: u32) -> u64 {
    1 << (x % 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::test_rng::Rng;
    use pimsim_arch::ArchConfig;
    use pimsim_isa::{asm, resolve};

    impl Core<'_> {
        /// The pre-scoreboard issue logic, kept as the reference: rescan the
        /// whole ROB in age order and re-derive every pairwise hazard from
        /// each entry's footprint and resolved operands alone (none of the
        /// scoreboard's edges, ancestors or ready set). `core_id` names
        /// this core in channel keys.
        fn scan_oracle(&self, core_id: u16, structure_hazard: bool) -> Option<u64> {
            let footprint = |e: &InFlight| e.footprint;
            let channel = |e: &InFlight| match e.res {
                Resolved::Send { peer, tag, .. } => Some((core_id, peer, tag)),
                Resolved::Recv { peer, tag, .. } => Some((peer, core_id, tag)),
                _ => None,
            };
            'scan: for (i, e) in self.in_flight().enumerate() {
                if e.state != State::Waiting {
                    continue;
                }
                for older in self.in_flight().take(i) {
                    if older.state == State::Done {
                        continue;
                    }
                    if footprint(e).conflicts(&footprint(older)) {
                        continue 'scan;
                    }
                    if channel(e).is_some() && channel(e) == channel(older) {
                        continue 'scan;
                    }
                }
                if self.unit_available(e, structure_hazard) {
                    return Some(self.head + i as u64);
                }
            }
            None
        }
    }

    /// `text` resolved under a zeroed register file: its class, operands
    /// and footprint, as dispatch hands them to the ROB.
    fn entry(text: &str) -> (InstrClass, Resolved, Footprint) {
        let instr = asm::parse_instruction(text).expect("parses");
        let res = resolve(&instr, &[0; 32]).expect("memory-class");
        let footprint = Footprint::of(&instr, test_groups(), &[0; 32]);
        (instr.class(), res, footprint)
    }

    /// Admits `text` on channel `chan`.
    fn admit(core: &mut Core<'_>, text: &str, chan: u32) {
        let (class, res, footprint) = entry(text);
        core.admit(0, class, res, footprint, chan, 0);
    }

    #[test]
    fn gmem_conflicts_require_a_write_and_overlap() {
        // Disjoint local buffers: only the global intervals can conflict.
        let load = |gaddr, dst| format!("gload [r0+{dst}], g[r0+{gaddr}], 10");
        let store = |gaddr, src| format!("gstore g[r0+{gaddr}], [r0+{src}], 10");
        let mut core = test_core(8);
        for text in [
            load(0, 100),
            load(5, 200),
            store(5, 300),
            store(30, 400),
            load(12, 500),
        ] {
            admit(&mut core, &text, NO_CHANNEL);
        }
        assert_eq!(core.ready, [0, 1, 3], "two loads, or disjoint: no edge");
        for seq in [0, 1] {
            core.begin(seq, SimTime::ZERO);
            core.mark_done(seq);
        }
        assert_eq!(core.ready, [2, 3], "the store waited for both loads");
        core.begin(2, SimTime::ZERO);
        core.mark_done(2);
        assert_eq!(core.ready, [3, 4], "the last load waited for the store");
    }

    /// Crossbar groups with overlapping sets: 0∩1 = {1}, 1∩2 = {2}, 0∩2 = ∅;
    /// group 3 sits past the first bitset word.
    fn test_groups() -> &'static [GroupConfig] {
        static GROUPS: std::sync::OnceLock<Vec<GroupConfig>> = std::sync::OnceLock::new();
        GROUPS.get_or_init(|| {
            [vec![0, 1], vec![1, 2], vec![2, 3], vec![70]]
                .into_iter()
                .enumerate()
                .map(|(i, xbar_ids)| GroupConfig::new(GroupId(i as u16), 4, 8, xbar_ids))
                .collect()
        })
    }

    fn test_core(rob_size: usize) -> Core<'static> {
        static ARCH: std::sync::OnceLock<ArchConfig> = std::sync::OnceLock::new();
        let arch = ARCH.get_or_init(ArchConfig::small_test);
        Core::new(
            &[],
            test_groups(),
            &[],
            Memory::default(),
            rob_size,
            SimTime::ZERO,
            &CostModel::new(arch),
        )
    }

    fn vfill(dst: u32) -> String {
        format!("vfill [r0+{dst}], 0, 8")
    }

    fn send(chan_tag: u16, src: u32) -> String {
        format!("send core1, [r0+{src}], 4, tag={chan_tag}")
    }

    #[test]
    fn raw_hazard_blocks_younger_entry() {
        let mut core = test_core(8);
        admit(&mut core, &vfill(0), NO_CHANNEL);
        admit(&mut core, "vrelu [r0+100], [r0+4], 8", NO_CHANNEL);
        // Entry 0 issuable first; entry 1 reads what 0 writes.
        assert_eq!(core.next_issuable(true), Some(0));
        core.begin(0, SimTime::ZERO);
        core.vector_busy = true;
        assert_eq!(core.next_issuable(true), None);
        // Once 0 is done, 1 becomes issuable.
        core.mark_done(0);
        core.vector_busy = false;
        assert_eq!(core.next_issuable(true), Some(1));
    }

    #[test]
    fn same_channel_transfers_stay_fifo() {
        let mut core = test_core(8);
        admit(&mut core, &send(7, 0), 0);
        core.begin(0, SimTime::ZERO);
        admit(&mut core, &send(7, 0), 0);
        // Same (src, dst, tag) channel: the younger send must wait...
        assert_eq!(core.next_issuable(true), None);
        // ...but a different tag may overtake.
        admit(&mut core, &send(8, 100), 1);
        assert_eq!(core.next_issuable(true), Some(2));
    }

    #[test]
    fn structure_hazard_flag_gates_crossbar_conflicts() {
        let mut core = test_core(8);
        core.book_xbars(GroupId(1));
        admit(&mut core, "mvm g0, [r0+0], [r0+100], 4", NO_CHANNEL);
        assert_eq!(core.next_issuable(true), None, "hazard enforced");
        assert_eq!(core.next_issuable(false), Some(0), "ablation disables");
        core.release_xbars(GroupId(1));
        assert_eq!(core.next_issuable(true), Some(0), "freed crossbars issue");
        core.book_xbars(GroupId(3));
        assert_eq!(core.next_issuable(true), Some(0), "disjoint set");
    }

    #[test]
    fn retire_pops_done_prefix_only() {
        let mut core = test_core(8);
        for seq in 0..3 {
            admit(&mut core, &vfill(seq * 100), NO_CHANNEL);
            core.begin(seq as u64, SimTime::ZERO);
        }
        core.mark_done(0);
        core.mark_done(2);
        core.retire();
        // Entry 1 still in flight: 2 must stay queued behind it.
        assert_eq!(core.in_flight().count(), 2);
        assert!(core.find(0).is_none());
        assert_eq!(core.find(1).map(|e| e.state), Some(State::Executing));
        assert!(core.find(2).is_some());
        assert!(core.find(3).is_none());
    }

    #[test]
    fn a_deep_pile_up_costs_edges_linear_in_its_length() {
        // Core 0 of a fill / scale / send stream whose transfers never
        // drain: every block conflicts with every older one, far past the
        // 64-entry ancestor window, and one edge per conflicting pair
        // would take millions of edges.
        let mut core = test_core(1 << 20);
        let scale = "vmuli [r0+16], [r0+0], 2, 16";
        for _ in 0..3_000 {
            admit(&mut core, &vfill(0), NO_CHANNEL);
            admit(&mut core, scale, NO_CHANNEL);
            admit(&mut core, &send(1, 16), 0);
        }
        assert_eq!(core.in_flight().count(), 9_000);
        assert!(core.edges.len() <= 2 * 9_000, "{} edges", core.edges.len());
        assert_eq!(core.ready, [0], "only the first fill is free");
    }

    /// This core's id in the differential test's channel keys.
    const CORE_ID: u16 = 2;

    /// A random memory-class instruction over a deliberately tiny address
    /// space (so all four hazard kinds are common), resolved, with the
    /// dense channel index a fabric would have interned for it.
    fn random_instr(rng: &mut Rng) -> ((InstrClass, Resolved, Footprint), u32) {
        // Six 8-element slots, plus offsets that straddle two of them.
        let mut addr = || rng.below(6) * 8 + rng.below(2) * 4;
        let (a, b, dst) = (addr(), addr(), addr());
        let len = 1 + rng.below(12);
        // Overlapping and disjoint global intervals, reads and writes.
        let gaddr = rng.below(4) * 6;
        // Two peers × two tags; sends and receives are distinct channels.
        let (peer, tag) = (rng.below(2), rng.below(2));
        let (text, chan) = match rng.below(10) {
            0 | 1 => (
                format!("mvm g{}, [r0+{dst}], [r0+{a}], 4", rng.below(4)),
                NO_CHANNEL,
            ),
            2 => (
                format!("vadd [r0+{dst}], [r0+{a}], [r0+{b}], {len}"),
                NO_CHANNEL,
            ),
            3 => (format!("vfill [r0+{dst}], 1, {len}"), NO_CHANNEL),
            4 => (
                format!(
                    "vcopy2d [r0+{dst}], [r0+{a}], block=2, blocks={}, sstride=4, dstride=-4",
                    1 + rng.below(3)
                ),
                NO_CHANNEL,
            ),
            5 => (
                format!("gload [r0+{dst}], g[r0+{gaddr}], {len}"),
                NO_CHANNEL,
            ),
            6 => (format!("gstore g[r0+{gaddr}], [r0+{a}], {len}"), NO_CHANNEL),
            7 | 8 => (
                format!("send core{peer}, [r0+{a}], {len}, tag={tag}"),
                (peer * 2 + tag) as u32,
            ),
            _ => (
                format!("recv core{peer}, [r0+{dst}], {len}, tag={tag}"),
                4 + (peer * 2 + tag) as u32,
            ),
        };
        (entry(&text), chan)
    }

    /// Books or releases the unit of an entry the way `units.rs` does.
    fn set_unit(core: &mut Core<'_>, class: InstrClass, res: Resolved, busy: bool) {
        match (class, res) {
            (InstrClass::Vector, _) => core.vector_busy = busy,
            (InstrClass::Matrix, Resolved::Mvm { group, .. }) if busy => core.book_xbars(group),
            (InstrClass::Matrix, Resolved::Mvm { group, .. }) => core.release_xbars(group),
            _ => {}
        }
    }

    /// Random ROB traffic: after every step the scoreboard must pick what
    /// the rescan picks, so the two issue sequences are equal step for
    /// step. Returns how many entries issued.
    fn differential_run(rob_size: usize, structure_hazard: bool, seed: u64) -> usize {
        let mut rng = Rng(seed | 1);
        let mut core = test_core(rob_size);
        let mut executing: Vec<u64> = Vec::new();
        let mut issued = 0;
        for step in 0..4_000 {
            match rng.below(8) {
                // Dispatch (a little more often than completion, so deep
                // ROBs do fill).
                0..=3 if !core.rob_is_full() => {
                    let ((class, res, footprint), chan) = random_instr(&mut rng);
                    core.admit(0, class, res, footprint, chan, 0);
                }
                // Out-of-order completion of a random executing entry.
                4..=6 if !executing.is_empty() => {
                    let seq = executing.swap_remove(rng.below(executing.len() as u64) as usize);
                    let e = core
                        .mark_done(seq)
                        .expect("executing entries are in flight");
                    let (class, res) = (e.class, e.res);
                    set_unit(&mut core, class, res, false);
                    core.retire();
                }
                _ => {}
            }
            // Issue everything that can start now, as `try_issue` does.
            loop {
                let pick = core.next_issuable(structure_hazard);
                assert_eq!(
                    pick,
                    core.scan_oracle(CORE_ID, structure_hazard),
                    "rob={rob_size} hazard={structure_hazard} seed={seed} step={step}"
                );
                let Some(seq) = pick else { break };
                let started = core
                    .begin(seq, SimTime::ZERO)
                    .expect("the scoreboard picks ready entries");
                set_unit(&mut core, started.class, started.res, true);
                executing.push(seq);
                issued += 1;
            }
        }
        issued
    }

    #[test]
    fn scoreboard_issues_exactly_what_the_rescan_would() {
        // Around the ancestor window and the ring's power-of-two lengths.
        for rob_size in [
            1, 2, 3, 4, 5, 8, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300,
        ] {
            // The rescan is quadratic in occupancy: fewer seeds where deep.
            let seeds = if rob_size <= 8 { 6 } else { 2 };
            for structure_hazard in [true, false] {
                for seed in 1..=seeds {
                    let issued = differential_run(rob_size, structure_hazard, seed);
                    assert!(issued > 200, "rob={rob_size}: only {issued} issues");
                }
            }
        }
    }
}
