//! The rendezvous transfer fabric: flow-controlled `(sender, receiver,
//! tag)` channels with credit-based backpressure, plus global-memory
//! traffic through the NoC.
//!
//! A `SEND` occupies its core's transfer unit until the payload's tail
//! flit has crossed the mesh *and* been accepted on the receiving side
//! (rendezvous semantics); a `RECV` parks until a message arrives. Each
//! channel is split round-robin over `noc.virtual_channels` virtual
//! channels, and each VC holds at most `noc.channel_credits` messages in
//! flight or queued, so senders feel buffer pressure — the synchronization
//! cost the paper shows behaviour-level models hide. A single VC (the
//! default) is exactly the pre-VC credit pool. Credit conservation is a
//! hard invariant: any count that would underflow or exceed its pool stops
//! the run with [`SimError::Internal`] instead of decaying into a mystery
//! deadlock.
//!
//! Transfer *timing* is positional (policy-routed mesh walk, per-link
//! occupancy, controller queue) and comes from [`Noc`](crate::noc::Noc)
//! walks; their prices and every transfer energy come from the machine's
//! one [`CostModel`](pimsim_arch::model::CostModel). A [`Pending`]
//! carries its `(tag, len)` from issue time, so launching or kicking a
//! transfer never rescans the ROB.
//!
//! Channels are a dense table: `SEND`/`RECV` name their peer and tag as
//! immediates, so the program's whole `(sender, receiver, tag)` set is
//! known when the machine is built. [`TransferFabric::for_cores`] interns
//! it in one pass over the program and stamps each transfer instruction
//! with its channel index; ROB entries, [`Pending`] sides and deposit
//! events carry that index, and the hot path never looks a key up.

use std::collections::{HashMap, VecDeque};

use pimsim_event::SimTime;
use pimsim_isa::Instruction;

use super::error::SimError;
use super::rob::{Core, Issued};
use super::{Ctx, Machine, MachineEvent};

/// A flow-control channel identifier: `(sender, receiver, tag)`.
pub(crate) type ChannelKey = (u16, u16, u16);

/// One pending side of a transfer channel. Everything the fabric needs
/// to launch or match the transfer later is captured at issue time —
/// `tag` for telemetry attribution, `len` for credit kicks and length
/// checks, and `vc` (the round-robin virtual-channel assignment, fixed at
/// issue) — so the hot path never walks the ROB to rediscover them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub(crate) core: u16,
    pub(crate) seq: u64,
    pub(crate) tag: u16,
    /// Payload elements. Wider than a `SEND`'s `u32` length because a
    /// strided `RECV` expects `block_len * blocks`, which can exceed it
    /// (and then matches no send).
    pub(crate) len: u64,
    pub(crate) vc: u32,
}

/// A message sitting in a receiver's credit queue.
#[derive(Debug)]
pub(crate) struct ArrivedMsg {
    pub(crate) len: u32,
    /// The virtual channel whose credit the message still holds.
    pub(crate) vc: u32,
    /// Captured payload (functional runs only).
    pub(crate) data: Vec<i32>,
}

/// One `(sender, receiver, tag)` flow-controlled channel, split over the
/// configured virtual channels.
#[derive(Debug)]
pub(crate) struct Channel {
    key: ChannelKey,
    /// Messages delivered but not yet consumed by a `RECV`, in arrival
    /// order (the receive order is the channel's, not a VC's).
    pub(crate) arrived: VecDeque<ArrivedMsg>,
    /// Messages currently crossing the mesh (all VCs).
    pub(crate) in_flight: u32,
    /// Credits in use per virtual channel: messages launched but not yet
    /// consumed by a `RECV`, whether on the wire or queued at the
    /// receiver. Each entry is bounded by `noc.channel_credits`.
    pub(crate) vc_used: Vec<u32>,
    /// Round-robin cursor for the next send's VC assignment.
    pub(crate) next_vc: u32,
    /// Sends waiting for a credit on their assigned VC, in issue order.
    pub(crate) waiting_sends: VecDeque<Pending>,
    /// The receiver's posted `RECV` awaiting a message (at most one:
    /// the transfer unit is single-occupancy).
    pub(crate) parked_recv: Option<Pending>,
}

impl Channel {
    fn new(key: ChannelKey, vcs: u32) -> Channel {
        Channel {
            key,
            arrived: VecDeque::new(),
            in_flight: 0,
            vc_used: vec![0; vcs as usize],
            next_vc: 0,
            waiting_sends: VecDeque::new(),
            parked_recv: None,
        }
    }

    /// `true` if anything is queued, parked, or on the wire.
    fn is_active(&self) -> bool {
        !self.waiting_sends.is_empty()
            || !self.arrived.is_empty()
            || self.parked_recv.is_some()
            || self.in_flight > 0
    }

    /// Assigns the next send's virtual channel (round-robin at issue time).
    fn assign_vc(&mut self) -> u32 {
        let vc = self.next_vc;
        self.next_vc = (vc + 1) % self.vc_used.len() as u32;
        vc
    }
}

/// All rendezvous channels of the chip, indexed by the channel index the
/// ROB entries carry, and the sends on the wire.
#[derive(Debug)]
pub(crate) struct TransferFabric {
    channels: Vec<Channel>,
    /// Each launched send until its `Deposit` event, in the slot the event
    /// names; a deposit frees its slot for the next launch.
    on_wire: Vec<Pending>,
    free_slots: Vec<u32>,
}

impl TransferFabric {
    /// Interns every `(sender, receiver, tag)` channel the cores' programs
    /// name, in first-seen order, with `vcs` virtual channels each, and
    /// records each transfer instruction's channel index in
    /// [`Core::chans`]. Which index a channel gets is never observable:
    /// every report that lists channels sorts its lines.
    pub(crate) fn for_cores(cores: &mut [Core<'_>], vcs: u32) -> TransferFabric {
        // Cannot fire: `Simulator::run` validates the arch before building,
        // and `ArchConfig::validate` rejects zero virtual channels.
        debug_assert!(vcs > 0, "validated: at least one virtual channel");
        let mut channels = Vec::new();
        let mut index: HashMap<ChannelKey, u32> = HashMap::new();
        for (c, core) in cores.iter_mut().enumerate() {
            for (instr, chan) in core.instrs.iter().zip(&mut core.chans) {
                let Some(key) = instr.channel(c as u16) else {
                    continue;
                };
                *chan = *index.entry(key).or_insert_with(|| {
                    channels.push(Channel::new(key, vcs));
                    (channels.len() - 1) as u32
                });
            }
        }
        TransferFabric::new(channels)
    }

    fn new(channels: Vec<Channel>) -> TransferFabric {
        TransferFabric {
            channels,
            on_wire: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Parks a launched send until its deposit; returns its slot.
    fn put_on_wire(&mut self, send: Pending) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.on_wire[slot as usize] = send;
                slot
            }
            None => {
                self.on_wire.push(send);
                (self.on_wire.len() - 1) as u32
            }
        }
    }

    /// The send in wire slot `slot`, which its deposit frees.
    pub(crate) fn take_off_wire(&mut self, slot: u32) -> Pending {
        self.free_slots.push(slot);
        self.on_wire[slot as usize]
    }

    /// The channel with index `chan`.
    pub(crate) fn channel(&mut self, chan: u32) -> &mut Channel {
        &mut self.channels[chan as usize]
    }

    /// The `(sender, receiver, tag)` of channel `chan`.
    fn key(&self, chan: u32) -> ChannelKey {
        self.channels[chan as usize].key
    }

    /// `ch(s->d,tagT)`: how error details name the channel `chan`.
    fn name(&self, chan: u32) -> String {
        let (s, d, t) = self.key(chan);
        format!("ch({s}->{d},tag{t})")
    }

    /// Names every channel with a transfer that can no longer match —
    /// the `(sender, receiver, tag)` sites a deadlocked run leaves behind.
    pub(crate) fn unmatched_sites(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .channels
            .iter()
            .filter(|ch| ch.is_active())
            .map(|ch| {
                let (s, d, t) = ch.key;
                let mut what = Vec::new();
                let undelivered = ch.arrived.len() as u32 + ch.in_flight;
                if undelivered > 0 {
                    what.push(format!("{undelivered} sent message(s) never received"));
                }
                if !ch.waiting_sends.is_empty() {
                    what.push(format!(
                        "{} send(s) blocked on channel credits",
                        ch.waiting_sends.len()
                    ));
                }
                if ch.parked_recv.is_some() {
                    what.push("a receive waiting on a send that never comes".to_string());
                }
                format!("core{s} -> core{d} tag={t}: {}", what.join(", "))
            })
            .collect();
        out.sort();
        out
    }

    /// Sorted one-line summaries of channels still holding traffic, for
    /// deadlock diagnostics.
    pub(crate) fn congestion_report(&self) -> Vec<String> {
        let mut chans: Vec<String> = self
            .channels
            .iter()
            .filter(|ch| ch.is_active())
            .map(|ch| {
                let (s, d, t) = ch.key;
                format!(
                    "ch({s}->{d},tag{t}): inflight={} arrived={} waitsend={} parkedrecv={} vc_used={:?}",
                    ch.in_flight,
                    ch.arrived.len(),
                    ch.waiting_sends.len(),
                    ch.parked_recv.is_some(),
                    ch.vc_used
                )
            })
            .collect();
        chans.sort();
        chans
    }
}

impl Machine<'_> {
    /// Starts an issued transfer-class instruction. `issued` carries the
    /// entry's node tag and channel index, captured by the issue logic so
    /// the transfer path never rescans the ROB for them.
    pub(crate) fn start_transfer(
        &mut self,
        c: usize,
        seq: u64,
        issued: Issued,
        now: SimTime,
        ctx: &mut Ctx,
    ) {
        let Issued { instr, tag, chan } = issued;
        match (instr.payload_len(), instr) {
            (Some(len), Instruction::Send { .. }) => {
                let credits = self.cfg.noc.channel_credits;
                let channel = self.fabric.channel(chan);
                // The VC assignment is fixed here, at issue time, by the
                // round-robin cursor — a send keeps its VC while waiting.
                let vc = channel.assign_vc();
                let pending = Pending {
                    core: c as u16,
                    seq,
                    tag,
                    len,
                    vc,
                };
                if channel.vc_used[vc as usize] >= credits {
                    channel.waiting_sends.push_back(pending);
                } else if self.charge_credit(chan, vc, ctx) {
                    self.launch_send(chan, pending, now, ctx);
                }
            }
            // A `recv` or `recv2d`.
            (Some(recv_len), _) => {
                let channel = self.fabric.channel(chan);
                if let Some(msg) = channel.arrived.pop_front() {
                    if msg.len as u64 != recv_len {
                        let (from, _, chan_tag) = self.fabric.key(chan);
                        let detail = format!(
                            "send core{from} len {} vs recv core{c} len {recv_len} (tag {chan_tag})",
                            msg.len
                        );
                        self.fail(SimError::TagMismatch { detail }, ctx);
                        return;
                    }
                    let vc = msg.vc;
                    self.finish_recv(c, seq, msg, ctx);
                    if self.error.is_some() {
                        return;
                    }
                    // The consumed message's VC credit freed: launch that
                    // VC's oldest waiting send, if any.
                    if !self.release_credit(chan, vc, ctx) {
                        return;
                    }
                    self.kick_channel(chan, vc, now, ctx);
                } else if channel.parked_recv.is_some() {
                    // The ROB keeps same-channel transfers in program order,
                    // so a second receive can never be parked beside one.
                    let detail = format!(
                        "second receive parked on {} by core{c} seq {seq}",
                        self.fabric.name(chan)
                    );
                    self.fail(SimError::Internal { detail }, ctx);
                } else {
                    channel.parked_recv = Some(Pending {
                        core: c as u16,
                        seq,
                        tag,
                        len: recv_len,
                        // Receives hold no credit; the field only carries
                        // meaning on the send side.
                        vc: 0,
                    });
                }
            }
            (None, Instruction::GLoad { len, .. } | Instruction::GStore { len, .. }) => {
                let e_txn = self.model.memory_access_energy(c as u16, len);
                let end = self.noc.memory_access(c as u16, len, now, &self.model);
                self.telemetry.energy.transfer += e_txn;
                self.telemetry.node(tag).energy += e_txn;
                ctx.schedule_at(end, MachineEvent::complete(c, seq));
            }
            (_, other) => unreachable!("transfer class mismatch: {other}"),
        }
    }

    /// Puts a send on the wire; it deposits into the receiver's queue at
    /// the tail-flit arrival time.
    fn launch_send(&mut self, chan: u32, send: Pending, now: SimTime, ctx: &mut Ctx) {
        let (from, to, _) = self.fabric.key(chan);
        // A send's length came from a `u32` operand.
        let len = send.len as u32;
        let e_txn = self.model.message_energy(from, to, len);
        let end = self.noc.message(from, to, len, now, &self.model);
        self.telemetry.energy.transfer += e_txn;
        self.telemetry.node(send.tag).energy += e_txn;
        let slot = self.fabric.put_on_wire(send);
        ctx.schedule_at(end, MachineEvent::Deposit { chan, slot });
    }

    /// Tail flit arrived at the receiver: the send completes
    /// ("synchronized"), and either a parked `RECV` consumes the message
    /// immediately or it waits in the credit queue.
    pub(crate) fn deposit(&mut self, chan: u32, send: Pending, ctx: &mut Ctx) {
        if self.error.is_some() {
            return;
        }
        let len = send.len as u32;
        // Capture the payload while the sender's buffer is still hazard-protected.
        let data = if self.functional {
            let src = match self.cores[send.core as usize].find(send.seq) {
                // A send's one operand: its source.
                Some(e) => e.at[0],
                // This used to be a silent `return`, leaving the channel's
                // in_flight count and the sender's transfer unit stuck
                // forever — a masked invariant break that surfaced later
                // as an unexplainable deadlock.
                None => {
                    let detail = format!(
                        "deposit on {} found no ROB entry for sender core{} seq {}",
                        self.fabric.name(chan),
                        send.core,
                        send.seq
                    );
                    self.fail(SimError::Internal { detail }, ctx);
                    return;
                }
            };
            self.cores[send.core as usize].mem.read(src, len)
        } else {
            Vec::new()
        };
        // Complete the send side.
        self.finish_transfer_side(send.core as usize, send.seq, ctx);
        if self.error.is_some() {
            return;
        }
        let channel = self.fabric.channel(chan);
        if channel.in_flight == 0 {
            let detail = format!(
                "deposit on {} with no message in flight",
                self.fabric.name(chan)
            );
            self.fail(SimError::Internal { detail }, ctx);
            return;
        }
        channel.in_flight -= 1;
        let vc = send.vc;
        let msg = ArrivedMsg { len, vc, data };
        if let Some(recv) = channel.parked_recv.take() {
            if recv.len != send.len {
                let (from, to, tag) = self.fabric.key(chan);
                let detail = format!(
                    "send core{from} len {len} vs recv core{to} len {} (tag {tag})",
                    recv.len
                );
                self.fail(SimError::TagMismatch { detail }, ctx);
                return;
            }
            self.finish_recv(recv.core as usize, recv.seq, msg, ctx);
            if self.error.is_some() {
                return;
            }
            // Consumed on arrival: the send's VC credit frees immediately.
            if !self.release_credit(chan, vc, ctx) {
                return;
            }
            self.kick_channel(chan, vc, ctx.now(), ctx);
        } else {
            channel.arrived.push_back(msg);
        }
    }

    /// Takes one credit on channel `chan`'s virtual channel `vc` for a
    /// launching send. Exceeding the configured pool is a conservation
    /// break: reported as [`SimError::Internal`] (returning `false`) rather
    /// than silently over-subscribing the receiver's buffer.
    fn charge_credit(&mut self, chan: u32, vc: u32, ctx: &mut Ctx) -> bool {
        let credits = self.cfg.noc.channel_credits;
        let channel = self.fabric.channel(chan);
        let used = channel.vc_used[vc as usize];
        if used >= credits {
            let detail = format!(
                "credit overflow on {} vc{vc}: {used} of {credits} already in use",
                self.fabric.name(chan)
            );
            self.fail(SimError::Internal { detail }, ctx);
            return false;
        }
        channel.vc_used[vc as usize] += 1;
        channel.in_flight += 1;
        true
    }

    /// Releases the credit a consumed message held on channel `chan`'s
    /// virtual channel `vc`. Underflow is a conservation break: reported
    /// as [`SimError::Internal`] (returning `false`) instead of wrapping
    /// into a phantom credit pool.
    fn release_credit(&mut self, chan: u32, vc: u32, ctx: &mut Ctx) -> bool {
        let used = &mut self.fabric.channel(chan).vc_used[vc as usize];
        if *used == 0 {
            let detail = format!(
                "credit release on {} vc{vc} with no credit in use",
                self.fabric.name(chan)
            );
            self.fail(SimError::Internal { detail }, ctx);
            return false;
        }
        *used -= 1;
        true
    }

    /// A credit became free on `vc`: launch that VC's oldest waiting
    /// send, if any.
    fn kick_channel(&mut self, chan: u32, vc: u32, now: SimTime, ctx: &mut Ctx) {
        let credits = self.cfg.noc.channel_credits;
        let channel = self.fabric.channel(chan);
        if channel.vc_used[vc as usize] >= credits {
            return;
        }
        let waiting = &mut channel.waiting_sends;
        let Some(send) = waiting
            .iter()
            .position(|p| p.vc == vc)
            .and_then(|i| waiting.remove(i))
        else {
            return;
        };
        if self.charge_credit(chan, send.vc, ctx) {
            self.launch_send(chan, send, now, ctx);
        }
    }

    /// Completes a `RECV`: writes the payload and retires the entry.
    fn finish_recv(&mut self, c: usize, seq: u64, msg: ArrivedMsg, ctx: &mut Ctx) {
        if self.functional {
            let params = self.cores[c].find(seq).map(|e| match e.instr {
                Instruction::Recv2d {
                    block_len,
                    dst_stride,
                    ..
                } => (e.at[0], block_len, dst_stride),
                // One block: the whole message.
                _ => (e.at[0], msg.len, 0),
            });
            if let Some((dst, block_len, dst_stride)) = params {
                if block_len > 0 {
                    // Dispatch checked every block against local memory.
                    for (b, chunk) in msg.data.chunks(block_len as usize).enumerate() {
                        let d = dst as i64 + b as i64 * dst_stride as i64;
                        self.cores[c].mem.write(d as u32, chunk);
                    }
                }
            }
        }
        self.finish_transfer_side(c, seq, ctx);
    }

    /// Marks one transfer entry done, releases the unit, updates stats,
    /// retires, and lets the core continue.
    fn finish_transfer_side(&mut self, c: usize, seq: u64, ctx: &mut Ctx) {
        let now = ctx.now();
        self.finish_time = self.finish_time.max(now);
        let (tag, span, pc) = {
            let Some(e) = self.cores[c].mark_done(seq) else {
                // A completion whose ROB entry vanished is an invariant
                // break; report it instead of quietly dropping the
                // retirement (which would wedge the core).
                let detail = format!(
                    "transfer completion on core{c} found no executing ROB entry for seq {seq}"
                );
                self.fail(SimError::Internal { detail }, ctx);
                return;
            };
            (e.tag, now.saturating_sub(e.issue_at), e.pc)
        };
        self.telemetry.record_trace(now, c as u16, pc);
        self.cores[c].stats.transfer_busy += span;
        self.telemetry.node(tag).comm_time += span;
        self.cores[c].retire();
        if self.eager_issue() {
            self.try_issue(c, ctx);
        }
        self.try_advance(c, ctx);
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use pimsim_arch::ArchConfig;
    use pimsim_isa::{asm, IsaError, Program};

    use super::*;
    use crate::machine::test_rng::Rng;
    use crate::Simulator;

    impl TransferFabric {
        /// The interning [`TransferFabric::for_cores`] replaced, kept as
        /// the reference: collect every key, sort and dedup them, then
        /// binary-search each instruction's key.
        fn for_cores_sorted(cores: &mut [Core<'_>], vcs: u32) -> TransferFabric {
            let mut keys: Vec<ChannelKey> = cores
                .iter()
                .enumerate()
                .flat_map(|(c, core)| core.instrs.iter().filter_map(move |i| i.channel(c as u16)))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            for (c, core) in cores.iter_mut().enumerate() {
                for (instr, chan) in core.instrs.iter().zip(&mut core.chans) {
                    if let Some(key) = instr.channel(c as u16) {
                        *chan = keys.binary_search(&key).expect("collected above") as u32;
                    }
                }
            }
            let channels = keys.into_iter().map(|k| Channel::new(k, vcs)).collect();
            TransferFabric::new(channels)
        }
    }

    /// Random transfer traffic among `cores` cores: messages on a few tags
    /// in both directions of each pair (a tag fixes the length), received
    /// by `recv` or a length-preserving `recv2d`. Some programs shuffle
    /// each core's list (crossed orders can deadlock) and some drop
    /// receives (unmatched sends).
    fn random_program(rng: &mut Rng, cores: u16) -> Result<Program, IsaError> {
        let (shuffle, drops) = (rng.below(2) == 0, rng.below(3) == 0);
        let mut text = vec![String::new(); cores as usize];
        for _ in 0..8 + rng.below(40) {
            let from = rng.below(cores as u64) as u16;
            let to = (from + 1 + rng.below(cores as u64 - 1) as u16) % cores;
            let tag = rng.below(3);
            let blocks = 1 + tag;
            let len = 4 * blocks;
            let _ = writeln!(
                text[from as usize],
                "send core{to}, [r0+0], {len}, tag={tag}"
            );
            let recv = &mut text[to as usize];
            match rng.below(8) {
                0 if drops => {}
                0..=3 => {
                    let _ = writeln!(recv, "recv core{from}, [r0+64], {len}, tag={tag}");
                }
                _ => {
                    let _ = writeln!(
                        recv,
                        "recv2d core{from}, [r0+64], block=4, blocks={blocks}, dstride=8, tag={tag}"
                    );
                }
            }
        }
        let mut program = String::new();
        for (c, body) in text.iter().enumerate() {
            let mut lines: Vec<&str> = body.lines().collect();
            for i in (1..lines.len()).rev().filter(|_| shuffle) {
                lines.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let _ = write!(program, ".core {c}\n{}\nhalt\n", lines.join("\n"));
        }
        asm::assemble(&program)
    }

    /// Each transfer instruction's channel index, in program order.
    fn stamped(cores: &[Core<'_>]) -> Vec<u32> {
        cores
            .iter()
            .flat_map(|core| core.instrs.iter().zip(&core.chans))
            .filter(|(instr, _)| instr.channel(0).is_some())
            .map(|(_, &chan)| chan)
            .collect()
    }

    #[test]
    fn one_pass_interning_matches_the_sorted_reference() -> Result<(), IsaError> {
        let mut rng = Rng(0x5eed_c4a7);
        let (mut deadlocks, mut clean) = (0, 0);
        for case in 0..300 {
            let vcs = 1 + (case % 2) as u32;
            let arch = ArchConfig::small_test().with_virtual_channels(vcs);
            let cores = 2 + rng.below(4) as u16;
            let program = random_program(&mut rng, cores)?;
            let sim = Simulator::new(&arch);

            let mut machine = sim.build_machine(&program);
            let fast = stamped(&machine.cores);
            let fast_keys: Vec<ChannelKey> =
                fast.iter().map(|&ch| machine.fabric.key(ch)).collect();
            machine.fabric = TransferFabric::for_cores_sorted(&mut machine.cores, vcs);
            let oracle = stamped(&machine.cores);
            for (i, (&a, &b)) in fast.iter().zip(&oracle).enumerate() {
                assert_eq!(fast_keys[i], machine.fabric.key(b), "case {case}: site {i}");
                for (&c, &d) in fast.iter().zip(&oracle) {
                    assert_eq!(a == c, b == d, "case {case}: grouping differs at site {i}");
                }
            }

            // Same run, to the byte, with either numbering.
            let by_oracle = format!("{:?}", sim.execute(machine));
            let by_fast = format!("{:?}", sim.run(&program));
            assert_eq!(by_fast, by_oracle, "case {case}");
            deadlocks += by_fast.starts_with("Err(Deadlock") as u32;
            clean += by_fast.starts_with("Ok") as u32;
        }
        assert!(deadlocks > 30, "only {deadlocks} of 300 cases deadlocked");
        assert!(clean > 30, "only {clean} of 300 cases ran clean");
        Ok(())
    }
}
