//! Random multi-core send/recv programs, generated from a global transfer
//! order and then perturbed (instruction swaps, payload-length edits).
//! Shared by `tests/analyzer_differential.rs` and the pricing oracle test
//! of `pimsim-analyze`'s bounds pass, which includes this file by path.

use proptest::prelude::*;

pub const CORES: usize = 3;

/// One transfer in the global order: sender, receiver, tag, payload words.
#[derive(Debug, Clone)]
pub struct Xfer {
    from: usize,
    to: usize,
    tag: u8,
    len: u8,
}

pub fn xfer_strategy() -> impl Strategy<Value = Xfer> {
    (0..CORES, 1..CORES, 0u8..4, 1u8..=4).prop_map(|(from, hop, tag, len)| Xfer {
        from,
        to: (from + hop) % CORES,
        tag,
        len,
    })
}

/// A perturbation applied after generation. Swaps reorder a core's
/// instruction stream (possibly crossing send/recv orders between
/// channels); `LenEdit` changes one receive's payload length.
#[derive(Debug, Clone)]
pub enum Tweak {
    Swap { core: usize, at: usize },
    LenEdit { event: usize, len: u8 },
}

pub fn tweak_strategy() -> impl Strategy<Value = Tweak> {
    prop_oneof![
        3 => (0..CORES, 0usize..16).prop_map(|(core, at)| Tweak::Swap { core, at }),
        1 => (0usize..24, 1u8..=5).prop_map(|(event, len)| Tweak::LenEdit { event, len }),
    ]
}

/// One line of a core's stream: a transfer with its peer, local address,
/// payload length and tag.
#[derive(Clone, Copy)]
struct Line {
    send: bool,
    peer: usize,
    addr: usize,
    len: u8,
    tag: u8,
}

/// Builds the assembly text: each transfer appends a send to its sender
/// and a recv to its receiver, in one global order (which is always
/// deadlock-free), then the tweaks are applied to break it. Core
/// `looped`, if any, ends in a backward branch that is never taken: it
/// runs the same, but has no statically known order. With `relay`, each
/// send forwards what its core last received (it reads the buffer of the
/// latest recv above it, if any), so a send must wait for that recv: a
/// swap can then close a cycle of waits across cores.
pub fn build_program(
    xfers: &[Xfer],
    tweaks: &[Tweak],
    looped: Option<usize>,
    relay: bool,
) -> String {
    let mut lines: Vec<Vec<Line>> = vec![Vec::new(); CORES];
    let mut recv_lens: Vec<u8> = xfers.iter().map(|x| x.len).collect();
    for t in tweaks {
        if let Tweak::LenEdit { event, len } = t {
            if let Some(slot) = recv_lens.get_mut(event % xfers.len().max(1)) {
                *slot = *len;
            }
        }
    }
    for (i, x) in xfers.iter().enumerate() {
        lines[x.from].push(Line {
            send: true,
            peer: x.to,
            addr: 1024 + i * 8,
            len: x.len,
            tag: x.tag,
        });
        lines[x.to].push(Line {
            send: false,
            peer: x.from,
            addr: i * 8,
            len: recv_lens[i],
            tag: x.tag,
        });
    }
    for t in tweaks {
        if let Tweak::Swap { core, at } = t {
            let stream = &mut lines[*core];
            if stream.len() >= 2 {
                let at = at % (stream.len() - 1);
                stream.swap(at, at + 1);
            }
        }
    }
    let mut text = String::new();
    for (core, stream) in lines.iter().enumerate() {
        text.push_str(&format!(".core {core}\n"));
        let mut received = None;
        for line in stream {
            let (op, addr) = match (line.send, received) {
                (true, Some(addr)) if relay => ("send", addr),
                (true, _) => ("send", line.addr),
                (false, _) => {
                    received = Some(line.addr);
                    ("recv", line.addr)
                }
            };
            let Line { peer, len, tag, .. } = *line;
            text.push_str(&format!("{op} core{peer}, [r0+{addr}], {len}, tag={tag}\n"));
        }
        if looped == Some(core) {
            text.push_str("bne r0, r0, 0\n");
        }
        text.push_str("halt\n");
    }
    text
}
