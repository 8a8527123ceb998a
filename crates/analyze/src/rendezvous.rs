//! Cross-core rendezvous analysis: matches `send`/`recv` sites by
//! `(sender, receiver, tag)` channel, reports transfers that can never
//! complete, and — for programs whose per-core execution order is
//! statically determined — runs a zero-latency abstract execution of the
//! transfer fabric to prove (or refute) that every transfer drains.
//!
//! Soundness direction: the abstract fabric is *maximally permissive* —
//! messages cross the mesh instantly, every enabled transfer eventually
//! fires, and the only constraints kept are the real machine's own
//! structural ones (per-core in-order single-occupancy transfer issue,
//! per-channel FIFO delivery, round-robin virtual-channel assignment with
//! `channel_credits` credits per VC). Every real execution's transfer
//! order is a refinement of some abstract one, and enabled moves here are
//! *persistent* (each channel has one sender core and one receiver core,
//! so only the cursor that would take a move can consume its enabling
//! resources). If even this most-permissive schedule wedges, every real
//! schedule wedges: a reported [`DiagKind::DeadlockCycle`] is a
//! guaranteed runtime deadlock, not a maybe.

use std::collections::BTreeMap;

use pimsim_isa::{Instruction, Program};
use serde::{Deserialize, Serialize};

use crate::cfg::Cfg;
use crate::diag::{DiagKind, Diagnostic};

/// One provably-matched transfer: the `k`-th send on a channel paired
/// with the `k`-th recv. With both endpoint cores linear this pairing is
/// exactly the runtime's (per-channel FIFO delivery, in-order issue).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RendezvousPair {
    /// Sending core id.
    pub sender: u16,
    /// The `send` site's instruction index.
    pub send_pc: u32,
    /// Receiving core id.
    pub receiver: u16,
    /// The `recv`/`recv2d` site's instruction index.
    pub recv_pc: u32,
    /// Channel tag.
    pub tag: u16,
    /// Payload length, elements (equal on both sides by construction).
    pub elems: u32,
}

/// The analyzer's public rendezvous artifact: every provably-matched
/// send/recv pair, and whether the matching is *complete* — all transfer
/// sites paired, every core's order statically known, and the abstract
/// execution drained. A complete map pairs every transfer statically (the
/// bounds pass prices rendezvous edges from it); an incomplete map is
/// still useful as a partial cross-reference.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RendezvousMap {
    /// Matched pairs, sorted by `(sender, send_pc)`.
    pub pairs: Vec<RendezvousPair>,
    /// `true` when every transfer site in the program is in `pairs` and
    /// the abstract execution proved the program drains.
    pub complete: bool,
}

/// A channel's send sites and recv sites, in program order.
type ChannelSites = (Vec<Site>, Vec<Site>);

/// One transfer site, in a core's statically-known execution order.
#[derive(Debug, Clone, Copy)]
struct Site {
    pc: u32,
    /// `true` for `send`, `false` for `recv`/`recv2d`.
    is_send: bool,
    /// Channel key `(sender, receiver, tag)`.
    key: (u16, u16, u16),
    /// Payload elements: `len` for send/recv, `block_len * blocks` for
    /// `recv2d` (the length the runtime's payload check compares) — in
    /// `u64`, because that product can exceed `u32` (and a wrapped one
    /// would "match" a send it cannot).
    elems: u64,
}

fn site_of(core: u16, pc: u32, instr: &Instruction) -> Option<Site> {
    let key = instr.channel(core)?;
    let (is_send, elems) = match *instr {
        Instruction::Send { len, .. } => (true, len as u64),
        Instruction::Recv { len, .. } => (false, len as u64),
        Instruction::Recv2d {
            block_len, blocks, ..
        } => (false, block_len as u64 * blocks as u64),
        _ => unreachable!("only transfers have a channel: {instr}"),
    };
    Some(Site {
        pc,
        is_send,
        key,
        elems,
    })
}

fn channel_name(key: (u16, u16, u16)) -> String {
    format!("channel core{}\u{2192}core{} tag={}", key.0, key.1, key.2)
}

/// Runs the rendezvous analysis. `cfgs` and `traces` parallel
/// `program.cores`; a core's trace is its [`Cfg::linear_trace`]. Returns
/// the diagnostics, the [`RendezvousMap`] artifact and, when the map is
/// complete, the abstract transfer [`Fabric`] that drained.
pub fn check(
    program: &Program,
    cfgs: &[Cfg],
    traces: &[Option<Vec<u32>>],
    credits: u32,
    vcs: u32,
) -> (Vec<Diagnostic>, RendezvousMap, Option<Fabric>) {
    let mut diags = Vec::new();

    // Per-core transfer sites in execution order (linear cores) or in
    // program order over reachable pcs (conservative fallback).
    let cores = program.cores.iter().zip(cfgs).zip(traces).enumerate();
    let all_sites: Vec<Vec<Site>> = cores
        .map(|(c, ((cp, cfg), trace))| {
            let fallback = if trace.is_some() { 0 } else { cp.instrs.len() };
            let reachable = (0..fallback as u32).filter(|&pc| cfg.pc_reachable(pc));
            let pcs = trace.iter().flatten().copied().chain(reachable);
            pcs.filter_map(|pc| site_of(c as u16, pc, &cp.instrs[pc as usize]))
                .collect()
        })
        .collect();
    let all_linear = traces.iter().all(Option::is_some);

    // Group sites by channel.
    let mut channels: BTreeMap<(u16, u16, u16), ChannelSites> = BTreeMap::new();
    for sites in &all_sites {
        for &s in sites {
            let entry = channels.entry(s.key).or_default();
            if s.is_send {
                entry.0.push(s);
            } else {
                entry.1.push(s);
            }
        }
    }

    // One-sided channels: those transfers can never complete, on any
    // execution that reaches them, regardless of control flow elsewhere.
    for (&key, (sends, recvs)) in &channels {
        if recvs.is_empty() {
            for s in sends {
                diags.push(Diagnostic::at(
                    DiagKind::UnmatchedRendezvous,
                    key.0,
                    s.pc,
                    &program.cores[key.0 as usize].instrs[s.pc as usize],
                    format!(
                        "no recv anywhere in core{}'s program for {}",
                        key.1,
                        channel_name(key)
                    ),
                ));
            }
        }
        if sends.is_empty() {
            for r in recvs {
                diags.push(Diagnostic::at(
                    DiagKind::UnmatchedRendezvous,
                    key.1,
                    r.pc,
                    &program.cores[key.1 as usize].instrs[r.pc as usize],
                    format!(
                        "no send anywhere in core{}'s program for {}",
                        key.0,
                        channel_name(key)
                    ),
                ));
            }
        }
    }

    // In-order pairing. Precise only when both endpoint cores execute a
    // statically-known sequence; a pair from two linear cores is exact
    // even if some third core is not linear.
    let mut pairs = Vec::new();
    let mut all_paired = true;
    for (&key, (sends, recvs)) in &channels {
        if sends.is_empty() || recvs.is_empty() {
            all_paired = false;
            continue;
        }
        let endpoints_linear = traces[key.0 as usize].is_some() && traces[key.1 as usize].is_some();
        if !endpoints_linear {
            all_paired = false;
            continue;
        }
        if sends.len() != recvs.len() {
            all_paired = false;
            // FIFO delivery: the first min(m, n) pairs match; the trailing
            // excess on the longer side can never complete.
            let m = sends.len().min(recvs.len());
            for s in &sends[m..] {
                diags.push(Diagnostic::at(
                    DiagKind::UnmatchedRendezvous,
                    key.0,
                    s.pc,
                    &program.cores[key.0 as usize].instrs[s.pc as usize],
                    format!(
                        "{} has {} sends but only {} recvs: this send's message is never consumed",
                        channel_name(key),
                        sends.len(),
                        recvs.len()
                    ),
                ));
            }
            for r in &recvs[m..] {
                diags.push(Diagnostic::at(
                    DiagKind::UnmatchedRendezvous,
                    key.1,
                    r.pc,
                    &program.cores[key.1 as usize].instrs[r.pc as usize],
                    format!(
                        "{} has {} recvs but only {} sends: this recv waits forever",
                        channel_name(key),
                        recvs.len(),
                        sends.len()
                    ),
                ));
            }
        }
        for (s, r) in sends.iter().zip(recvs.iter()) {
            if s.elems != r.elems {
                all_paired = false;
                diags.push(Diagnostic::at(
                    DiagKind::PayloadMismatch,
                    key.1,
                    r.pc,
                    &program.cores[key.1 as usize].instrs[r.pc as usize],
                    format!(
                        "recv expects {} elements but the matching send (core{} pc={}) carries {} ({})",
                        r.elems,
                        key.0,
                        s.pc,
                        s.elems,
                        channel_name(key)
                    ),
                ));
            } else {
                pairs.push(RendezvousPair {
                    sender: key.0,
                    send_pc: s.pc,
                    receiver: key.1,
                    recv_pc: r.pc,
                    tag: key.2,
                    // Equal on both sides, and a send's length is a `u32`.
                    elems: s.elems as u32,
                });
            }
        }
    }
    pairs.sort_by_key(|p| (p.sender, p.send_pc));

    // Abstract execution: only meaningful when every core's transfer
    // order is known and every site paired up. It drains exactly when
    // the map is complete.
    let fabric = (all_linear && all_paired && diags.is_empty())
        .then(|| Fabric::new(&all_sites))
        .filter(|fabric| drains(program, fabric, &all_sites, credits, vcs, &mut diags));
    let map = RendezvousMap {
        pairs,
        complete: fabric.is_some(),
    };
    (diags, map, fabric)
}

/// One channel's observations in a [`Fabric::exec`] run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ChannelStats {
    /// Messages sent.
    pub(crate) messages: u32,
    /// Peak simultaneously in-flight (sent, not yet received) messages.
    pub(crate) peak_in_flight: u32,
    /// Peak credits in use on any single virtual channel.
    pub(crate) peak_per_vc: u32,
}

/// Where a [`Fabric::exec`] run stopped, and what it saw on the way.
#[derive(Debug)]
pub(crate) struct AbstractRun {
    /// `true` if every core's transfer sequence drained.
    pub(crate) drained: bool,
    /// Per core, how many of its transfer sites fired.
    pub(crate) cursors: Vec<usize>,
    /// Per channel, parallel to [`Fabric::keys`].
    pub(crate) channels: Vec<ChannelStats>,
}

/// Each core's transfer sequence with its channels interned, prepared
/// once for any number of abstract executions: the rendezvous check
/// runs it at the configured credits, the credit-occupancy pass probes
/// it at others. Opaque outside this crate.
pub struct Fabric {
    /// Every channel `(sender, receiver, tag)` with a site, ascending; a
    /// channel's index is its position.
    pub(crate) keys: Vec<(u16, u16, u16)>,
    /// Per core, its sites in execution order, each packed as
    /// `channel << 1 | is_send`.
    seqs: Vec<Vec<u32>>,
}

impl Fabric {
    fn new(seqs: &[Vec<Site>]) -> Fabric {
        let mut keys: Vec<_> = seqs.iter().flatten().map(|s| s.key).collect();
        keys.sort_unstable();
        keys.dedup();
        let site = |s: &Site| {
            let channel = keys.partition_point(|&k| k < s.key);
            u32::try_from(channel << 1 | usize::from(s.is_send)).expect("channel ids fit u31")
        };
        let seqs = seqs
            .iter()
            .map(|seq| seq.iter().map(site).collect())
            .collect();
        Fabric { keys, seqs }
    }

    /// Zero-latency most-permissive execution of the transfer fabric.
    /// Each channel is split round-robin over `vcs` virtual channels,
    /// assigned at issue like the runtime, and a send waits while its VC
    /// holds `limit(channel index)` credits (`None`: unbounded).
    ///
    /// Greedy fixpoint. Enabled moves are persistent (single producer and
    /// single consumer per channel), so the visit order can't mask a
    /// drain: if the run wedges, no order drains. A channel's messages
    /// take VCs round-robin and leave in order, so the `k`-th message,
    /// sent or received, holds VC `k % vcs`: counts are the whole state.
    pub(crate) fn exec(&self, vcs: u32, limit: impl Fn(usize) -> Option<u32>) -> AbstractRun {
        let vcs = vcs.max(1) as usize;
        let mut cursors = vec![0usize; self.seqs.len()];
        let mut received = vec![0u32; self.keys.len()];
        let mut vc_used = vec![0u32; self.keys.len() * vcs];
        let mut stats = vec![ChannelStats::default(); self.keys.len()];
        loop {
            let mut progressed = false;
            for (seq, cursor) in self.seqs.iter().zip(&mut cursors) {
                while let Some(&site) = seq.get(*cursor) {
                    let ch = (site >> 1) as usize;
                    let st = &mut stats[ch];
                    if site & 1 == 1 {
                        let used = &mut vc_used[ch * vcs + st.messages as usize % vcs];
                        if limit(ch).is_some_and(|credits| *used >= credits) {
                            break;
                        }
                        *used += 1;
                        st.messages += 1;
                        st.peak_in_flight = st.peak_in_flight.max(st.messages - received[ch]);
                        st.peak_per_vc = st.peak_per_vc.max(*used);
                    } else {
                        if received[ch] == st.messages {
                            break;
                        }
                        vc_used[ch * vcs + received[ch] as usize % vcs] -= 1;
                        received[ch] += 1;
                    }
                    *cursor += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        AbstractRun {
            drained: self
                .seqs
                .iter()
                .zip(&cursors)
                .all(|(seq, &c)| c >= seq.len()),
            cursors,
            channels: stats,
        }
    }
}

/// Runs `fabric`, built from `seqs`, with `credits` credits per VC on
/// every channel. Returns `true` if every core's transfer sequence drains; on a
/// wedge, appends one [`DiagKind::DeadlockCycle`] diagnostic per stuck
/// core, built from where each core's cursor stopped.
fn drains(
    program: &Program,
    fabric: &Fabric,
    seqs: &[Vec<Site>],
    credits: u32,
    vcs: u32,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let cursor = fabric.exec(vcs, |_| Some(credits)).cursors;
    let stuck: Vec<usize> = (0..seqs.len())
        .filter(|&c| cursor[c] < seqs[c].len())
        .collect();
    if stuck.is_empty() {
        return true;
    }

    // Each stuck core waits on exactly one other core: a blocked recv
    // waits for its sender, a credit-starved send waits for its receiver
    // to drain the channel. With every site paired, that peer is itself
    // stuck, so following the edges always closes a cycle.
    let waits_on = |c: usize| -> (Site, u16) {
        let site = seqs[c][cursor[c]];
        let peer = if site.is_send { site.key.1 } else { site.key.0 };
        (site, peer)
    };
    for &c in &stuck {
        let (site, peer) = waits_on(c);
        // Trace the wait-for chain from this core until it repeats.
        let mut chain = vec![c as u16];
        let mut cur = peer;
        while !chain.contains(&cur) {
            chain.push(cur);
            if cursor[cur as usize] >= seqs[cur as usize].len() {
                break; // finished core: chain ends, shouldn't happen when paired
            }
            cur = waits_on(cur as usize).1;
        }
        chain.push(cur);
        let cycle: Vec<String> = chain.iter().map(|&x| format!("core{x}")).collect();
        let what = if site.is_send {
            format!(
                "send is out of credits on {} ({} credits/VC) and core{} never drains it",
                channel_name(site.key),
                credits,
                peer
            )
        } else {
            format!(
                "recv waits for a message on {} that core{} never gets to send",
                channel_name(site.key),
                peer
            )
        };
        diags.push(Diagnostic::at(
            DiagKind::DeadlockCycle,
            c as u16,
            site.pc,
            &program.cores[c].instrs[site.pc as usize],
            format!(
                "static deadlock: {what}; wait-for cycle {}",
                cycle.join(" \u{2192} ")
            ),
        ));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_isa::{Addr, CoreId, Reg};
    use proptest::prelude::*;

    fn addr() -> Addr {
        Addr::new(Reg::R0, 0).unwrap()
    }

    fn send(peer: u16, len: u32, tag: u16) -> Instruction {
        Instruction::Send {
            peer: CoreId(peer),
            src: addr(),
            len,
            tag,
        }
    }

    fn recv(peer: u16, len: u32, tag: u16) -> Instruction {
        Instruction::Recv {
            peer: CoreId(peer),
            dst: addr(),
            len,
            tag,
        }
    }

    fn program(cores: Vec<Vec<Instruction>>) -> Program {
        let mut p = Program::with_cores(cores.len());
        for (i, instrs) in cores.into_iter().enumerate() {
            p.cores[i].instrs = instrs;
        }
        p
    }

    fn run(p: &Program) -> (Vec<Diagnostic>, RendezvousMap) {
        let cfgs: Vec<Cfg> = p.cores.iter().map(|c| Cfg::build(&c.instrs)).collect();
        let traces: Vec<_> = cfgs.iter().map(Cfg::linear_trace).collect();
        let (diags, map, fabric) = check(p, &cfgs, &traces, 2, 1);
        assert_eq!(fabric.is_some(), map.complete);
        (diags, map)
    }

    #[test]
    fn matched_pair_is_clean_and_mapped() {
        let p = program(vec![
            vec![send(1, 64, 5), Instruction::Halt],
            vec![recv(0, 64, 5), Instruction::Halt],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags, vec![]);
        assert!(map.complete);
        assert_eq!(
            map.pairs,
            vec![RendezvousPair {
                sender: 0,
                send_pc: 0,
                receiver: 1,
                recv_pc: 0,
                tag: 5,
                elems: 64,
            }]
        );
    }

    #[test]
    fn missing_recv_is_unmatched() {
        let p = program(vec![
            vec![send(1, 64, 5), Instruction::Halt],
            vec![Instruction::Halt],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::UnmatchedRendezvous);
        assert_eq!((diags[0].core, diags[0].pc), (0, Some(0)));
        assert!(!map.complete);
    }

    #[test]
    fn missing_send_is_unmatched_at_recv() {
        let p = program(vec![
            vec![Instruction::Halt],
            vec![recv(0, 64, 5), Instruction::Halt],
        ]);
        let (diags, _) = run(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::UnmatchedRendezvous);
        assert_eq!((diags[0].core, diags[0].pc), (1, Some(0)));
    }

    #[test]
    fn count_mismatch_flags_trailing_excess() {
        let p = program(vec![
            vec![send(1, 8, 1), send(1, 8, 1), Instruction::Halt],
            vec![recv(0, 8, 1), Instruction::Halt],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::UnmatchedRendezvous);
        assert_eq!((diags[0].core, diags[0].pc), (0, Some(1)));
        // The first send still pairs.
        assert_eq!(map.pairs.len(), 1);
        assert!(!map.complete);
    }

    #[test]
    fn payload_mismatch_flagged_at_recv() {
        let p = program(vec![
            vec![send(1, 64, 5), Instruction::Halt],
            vec![recv(0, 32, 5), Instruction::Halt],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::PayloadMismatch);
        assert_eq!((diags[0].core, diags[0].pc), (1, Some(0)));
        assert!(map.pairs.is_empty());
        assert!(!map.complete);
    }

    #[test]
    fn crossed_recv_send_is_a_static_deadlock() {
        // Both cores recv first: the classic cross.
        let p = program(vec![
            vec![recv(1, 8, 1), send(1, 8, 2), Instruction::Halt],
            vec![recv(0, 8, 2), send(0, 8, 1), Instruction::Halt],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.kind == DiagKind::DeadlockCycle));
        assert_eq!((diags[0].core, diags[0].pc), (0, Some(0)));
        assert_eq!((diags[1].core, diags[1].pc), (1, Some(0)));
        assert!(
            diags[0]
                .message
                .contains("core0 \u{2192} core1 \u{2192} core0"),
            "{}",
            diags[0].message
        );
        assert!(!map.complete);
    }

    #[test]
    fn credit_exhaustion_deadlocks() {
        // core0 issues 3 sends on one channel (2 credits, 1 VC) before
        // anything else; core1 first waits for a message core0 can only
        // send after its third send — which is credit-blocked until core1
        // recvs. Wedge.
        let p = program(vec![
            vec![
                send(1, 8, 1),
                send(1, 8, 1),
                send(1, 8, 1),
                send(1, 8, 9),
                Instruction::Halt,
            ],
            vec![
                recv(0, 8, 9),
                recv(0, 8, 1),
                recv(0, 8, 1),
                recv(0, 8, 1),
                Instruction::Halt,
            ],
        ]);
        let (diags, map) = run(&p);
        assert!(
            diags.iter().any(|d| d.kind == DiagKind::DeadlockCycle),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.message.contains("out of credits"),));
        assert!(!map.complete);
    }

    #[test]
    fn buffered_sends_within_credits_drain() {
        // Two sends queue up (2 credits) before the peer recvs: fine.
        let p = program(vec![
            vec![
                send(1, 8, 1),
                send(1, 8, 1),
                recv(1, 8, 2),
                Instruction::Halt,
            ],
            vec![
                send(0, 8, 2),
                recv(0, 8, 1),
                recv(0, 8, 1),
                Instruction::Halt,
            ],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags, vec![]);
        assert!(map.complete);
        assert_eq!(map.pairs.len(), 3);
    }

    #[test]
    fn non_linear_core_disables_completeness_but_keeps_zero_side_checks() {
        // core0 loops; its send count is unknowable, but core1's recv on
        // a channel with no send at all is still an error.
        let p = program(vec![
            vec![send(1, 8, 1), Instruction::Jump { target: 0 }],
            vec![recv(0, 8, 1), recv(0, 8, 7), Instruction::Halt],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagKind::UnmatchedRendezvous);
        assert_eq!((diags[0].core, diags[0].pc), (1, Some(1)));
        assert!(!map.complete);
        assert!(map.pairs.is_empty());
    }

    #[test]
    fn recv2d_len_is_block_times_blocks() {
        let p = program(vec![
            vec![send(1, 24, 5), Instruction::Halt],
            vec![
                Instruction::Recv2d {
                    peer: CoreId(0),
                    dst: addr(),
                    block_len: 8,
                    blocks: 3,
                    dst_stride: 16,
                    tag: 5,
                },
                Instruction::Halt,
            ],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags, vec![]);
        assert!(map.complete);
        assert_eq!(map.pairs[0].elems, 24);
    }

    #[test]
    fn recv2d_len_product_does_not_wrap() {
        // Regression: 65536 * 65536 wrapped to 0 in `u32` and paired with
        // an empty send as `complete`.
        let p = program(vec![
            vec![send(1, 0, 5), Instruction::Halt],
            vec![
                Instruction::Recv2d {
                    peer: CoreId(0),
                    dst: addr(),
                    block_len: 65536,
                    blocks: 65536,
                    dst_stride: 0,
                    tag: 5,
                },
                Instruction::Halt,
            ],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::PayloadMismatch);
        assert!(diags[0].to_string().contains("expects 4294967296 elements"));
        assert!(map.pairs.is_empty());
        assert!(!map.complete);
    }

    #[test]
    fn many_channels_many_pairs_sorted() {
        let p = program(vec![
            vec![send(1, 8, 2), send(2, 8, 1), Instruction::Halt],
            vec![recv(0, 8, 2), send(2, 8, 1), Instruction::Halt],
            vec![recv(0, 8, 1), recv(1, 8, 1), Instruction::Halt],
        ]);
        let (diags, map) = run(&p);
        assert_eq!(diags, vec![]);
        assert!(map.complete);
        let keys: Vec<(u16, u32)> = map.pairs.iter().map(|p| (p.sender, p.send_pc)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(map.pairs.len(), 3);
    }

    /// A channel `(sender, receiver, tag)`.
    type Key = (u16, u16, u16);

    /// The queue-per-channel executor [`Fabric::exec`] replaced, kept as
    /// its oracle: each in-flight message carries its VC in a queue, and
    /// channels live in an ordered map, created on first visit.
    fn queue_exec(
        seqs: &[Vec<Site>],
        vcs: u32,
        limit: impl Fn(&Key) -> Option<u32>,
    ) -> (Vec<usize>, BTreeMap<Key, ChannelStats>) {
        use std::collections::VecDeque;
        let vcs = vcs.max(1);
        let mut cursors = vec![0usize; seqs.len()];
        let mut chans = BTreeMap::new();
        loop {
            let mut progressed = false;
            for (seq, cursor) in seqs.iter().zip(&mut cursors) {
                while let Some(site) = seq.get(*cursor) {
                    let (queue, vc_used, next_vc, stats) =
                        chans.entry(site.key).or_insert_with(|| {
                            (
                                VecDeque::new(),
                                vec![0u32; vcs as usize],
                                0u32,
                                ChannelStats::default(),
                            )
                        });
                    if site.is_send {
                        let vc = *next_vc as usize;
                        if limit(&site.key).is_some_and(|credits| vc_used[vc] >= credits) {
                            break;
                        }
                        *next_vc = (*next_vc + 1) % vcs;
                        vc_used[vc] += 1;
                        queue.push_back(vc);
                        stats.messages += 1;
                        stats.peak_in_flight = stats.peak_in_flight.max(queue.len() as u32);
                        stats.peak_per_vc = stats.peak_per_vc.max(vc_used[vc]);
                    } else {
                        let Some(vc) = queue.pop_front() else {
                            break;
                        };
                        vc_used[vc] -= 1;
                    }
                    *cursor += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let stats = chans.into_iter().map(|(k, c)| (k, c.3)).collect();
        (cursors, stats)
    }

    const CORES: u16 = 3;

    /// A random site: send or recv, with one of the other cores, on one
    /// of two tags. Sequences need not pair up, so runs wedge often.
    fn site() -> impl Strategy<Value = (u16, bool, u16, u16)> {
        (0..CORES, any::<bool>(), 1..CORES, 0u16..2)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            ..ProptestConfig::default()
        })]

        /// The counter-based executor against the queue-based one: the
        /// same cursors and, per channel, the same counts and peaks, at
        /// unbounded, uniform and single-channel limits.
        #[test]
        fn fabric_matches_the_queue_executor(
            sites in proptest::collection::vec(site(), 0usize..60usize),
            vcs in 1u32..5,
            credits in 1u32..4,
        ) {
            let mut seqs = vec![Vec::new(); CORES as usize];
            for (pc, &(core, is_send, hop, tag)) in sites.iter().enumerate() {
                let peer = (core + hop) % CORES;
                let key = if is_send { (core, peer, tag) } else { (peer, core, tag) };
                seqs[core as usize].push(Site { pc: pc as u32, is_send, key, elems: 1 });
            }
            let fabric = Fabric::new(&seqs);
            // Unbounded; `credits` on every channel; on the first alone.
            let first = fabric.keys.first().copied();
            let limit = |case: u8, k: &Key| match case {
                0 => None,
                1 => Some(credits),
                _ => (Some(*k) == first).then_some(credits),
            };
            for case in 0..3 {
                let run = fabric.exec(vcs, |ch| limit(case, &fabric.keys[ch]));
                let (cursors, stats) = queue_exec(&seqs, vcs, |k| limit(case, k));
                prop_assert_eq!(&run.cursors, &cursors);
                let drained = seqs.iter().zip(&cursors).all(|(seq, &c)| c == seq.len());
                prop_assert_eq!(run.drained, drained);
                for (key, got) in fabric.keys.iter().zip(&run.channels) {
                    let want = stats.get(key).copied().unwrap_or_default();
                    prop_assert_eq!(
                        (got.messages, got.peak_in_flight, got.peak_per_vc),
                        (want.messages, want.peak_in_flight, want.peak_per_vc),
                        "{:?}", key
                    );
                }
            }
        }
    }
}
