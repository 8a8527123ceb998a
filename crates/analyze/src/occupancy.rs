//! Per-channel credit occupancy: how much flow-control head-room each
//! `(sender, receiver, tag)` channel really needs.
//!
//! The pass calls the rendezvous checker's zero-latency abstract transfer
//! execution (`rendezvous::Fabric`), first with *unbounded*
//! credits, and takes per channel the peak number of in-flight messages
//! and the peak per-VC credit usage. From those peaks it derives:
//!
//! * **`min_credits`** per channel — the smallest per-VC credit limit on
//!   *that channel alone* (all others unbounded) at which the abstract
//!   execution still drains;
//! * **`min_credits_deadlock_free`** — the smallest *uniform* per-VC
//!   credit limit at which every core drains; and
//! * **`credit_knee`** — the largest per-VC peak across all channels:
//!   raising the configured credit count past the knee cannot change any
//!   channel's behavior, so more credits stop helping.
//!
//! All of this is defined only when every core's transfer order is
//! statically known, every site is paired and the fabric drains at the
//! configured credits: exactly when the rendezvous check hands over its
//! [`Fabric`]. Otherwise the report is empty and the minima are `None`.
//!
//! # The search
//!
//! Each minimum is the first limit in `1..=peak` at which the abstract
//! execution drains, found by a linear scan, one execution per probe.
//! On every zoo channel the answer is 1, so the scan stops after one run;
//! a bisection of `1..=peak` would take `log2(peak)` runs there.
//!
//! The scan is exact because draining is monotone in the limit. VCs are
//! assigned round-robin at issue whatever the limit, so every order of
//! moves a limit allows, a larger one allows too; and the greedy
//! execution drains whenever some order does. The fabric drained at the
//! configured credits, so the unbounded run drains too; a limit at the
//! peak never blocks a send, so it behaves like that run: the scan ends
//! by its last value.

use serde::{Deserialize, Serialize};

use crate::rendezvous::Fabric;

/// One channel's occupancy profile under the most-permissive abstract
/// execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelBound {
    /// Sending core.
    pub sender: u16,
    /// Receiving core.
    pub receiver: u16,
    /// Channel tag.
    pub tag: u16,
    /// Messages carried over the whole program.
    pub messages: u32,
    /// Peak simultaneously in-flight (sent, not yet received) messages
    /// with unbounded credits.
    pub peak_in_flight: u32,
    /// Peak credits in use on any single virtual channel, with the
    /// configured VC count and round-robin assignment.
    pub peak_per_vc: u32,
    /// Smallest per-VC credit limit on this channel alone at which the
    /// abstract execution drains; `None` when the analysis does not
    /// apply (non-linear or unpaired programs).
    pub min_credits: Option<u32>,
}

/// The credit-occupancy section of a bounds report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct OccupancyReport {
    /// Per-channel profiles, sorted by `(sender, receiver, tag)`.
    pub channels: Vec<ChannelBound>,
    /// Smallest uniform per-VC credit limit at which every core drains;
    /// `None` when the analysis does not apply.
    pub min_credits_deadlock_free: Option<u32>,
    /// Largest per-VC peak across channels: credits beyond this cannot
    /// change behavior. `0` when the program has no transfers.
    pub credit_knee: u32,
}

/// Computes the occupancy report on the fabric a complete rendezvous
/// check drained.
pub(crate) fn occupancy(fabric: &Fabric, vcs: u32) -> OccupancyReport {
    let unbounded = fabric.exec(vcs, |_| None);
    let credit_knee = unbounded
        .channels
        .iter()
        .map(|s| s.peak_per_vc)
        .max()
        .unwrap_or(0);

    // No transfers at all (knee 0) leaves the uniform minimum `None`: any
    // credit count vacuously works.
    let min_credits_deadlock_free =
        (1..=credit_knee).find(|&c| fabric.exec(vcs, |_| Some(c)).drained);

    // Per-channel minima: limit one channel, leave the rest unbounded.
    let channels = (fabric.keys.iter().zip(&unbounded.channels).enumerate())
        .map(|(ch, (&(sender, receiver, tag), stats))| ChannelBound {
            sender,
            receiver,
            tag,
            messages: stats.messages,
            peak_in_flight: stats.peak_in_flight,
            peak_per_vc: stats.peak_per_vc,
            min_credits: (1..=stats.peak_per_vc)
                .find(|&c| fabric.exec(vcs, |k| (k == ch).then_some(c)).drained),
        })
        .collect();

    OccupancyReport {
        channels,
        min_credits_deadlock_free,
        credit_knee,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_arch::ArchConfig;
    use pimsim_isa::asm::assemble;

    /// The report `bound` prints for `src` at `vcs` VCs.
    fn report(src: &str, vcs: u32) -> OccupancyReport {
        let p = assemble(src).unwrap();
        let arch = ArchConfig::small_test().with_virtual_channels(vcs);
        let (_, walk) = crate::analyze_walk(&p, &arch);
        walk.fabric
            .map_or_else(OccupancyReport::default, |f| occupancy(&f, vcs))
    }

    #[test]
    fn burst_of_sends_needs_matching_depth() {
        // Three sends can all be posted before the receiver must act, so
        // the peak is 3 — but one credit already drains (zero-latency
        // recvs free it), so min_credits is 1.
        let r = report(
            ".core 0\n\
             send core1, [r0+0], 4, tag=1\n\
             send core1, [r0+8], 4, tag=1\n\
             send core1, [r0+16], 4, tag=1\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=1\n\
             recv core0, [r0+8], 4, tag=1\n\
             recv core0, [r0+16], 4, tag=1\n\
             halt\n",
            1,
        );
        assert_eq!(r.channels.len(), 1);
        let ch = &r.channels[0];
        assert_eq!((ch.sender, ch.receiver, ch.tag), (0, 1, 1));
        assert_eq!(ch.messages, 3);
        assert_eq!(ch.peak_in_flight, 3);
        assert_eq!(ch.peak_per_vc, 3);
        assert_eq!(ch.min_credits, Some(1));
        assert_eq!(r.min_credits_deadlock_free, Some(1));
        assert_eq!(r.credit_knee, 3);
    }

    #[test]
    fn crossed_exchange_needs_one_credit() {
        // Classic head-to-head exchange: each core sends before it
        // receives. With at least one credit both sends post and both
        // recvs drain; the sends themselves never block on each other.
        let r = report(
            ".core 0\n\
             send core1, [r0+0], 4, tag=1\n\
             recv core1, [r0+8], 4, tag=2\n\
             halt\n\
             .core 1\n\
             send core0, [r0+0], 4, tag=2\n\
             recv core0, [r0+8], 4, tag=1\n\
             halt\n",
            1,
        );
        assert_eq!(r.channels.len(), 2);
        assert_eq!(r.min_credits_deadlock_free, Some(1));
        assert_eq!(r.credit_knee, 1);
    }

    #[test]
    fn vcs_split_the_burst() {
        // Four back-to-back sends over 2 VCs round-robin: two per VC.
        let r = report(
            ".core 0\n\
             send core1, [r0+0], 4, tag=1\n\
             send core1, [r0+8], 4, tag=1\n\
             send core1, [r0+16], 4, tag=1\n\
             send core1, [r0+24], 4, tag=1\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=1\n\
             recv core0, [r0+8], 4, tag=1\n\
             recv core0, [r0+16], 4, tag=1\n\
             recv core0, [r0+24], 4, tag=1\n\
             halt\n",
            2,
        );
        let ch = &r.channels[0];
        assert_eq!(ch.peak_in_flight, 4);
        assert_eq!(ch.peak_per_vc, 2);
        assert_eq!(r.credit_knee, 2);
    }

    #[test]
    fn transfer_free_program_is_empty() {
        let r = report(".core 0\nnop\nhalt\n", 1);
        assert!(r.channels.is_empty());
        assert_eq!(r.min_credits_deadlock_free, None);
        assert_eq!(r.credit_knee, 0);
    }

    #[test]
    fn non_linear_core_disables_the_analysis() {
        let r = report(
            ".core 0\n\
             send core1, [r0+0], 4, tag=1\n\
             jmp 0\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=1\n\
             halt\n",
            1,
        );
        assert!(r.channels.is_empty());
        assert_eq!(r.min_credits_deadlock_free, None);
    }
}
