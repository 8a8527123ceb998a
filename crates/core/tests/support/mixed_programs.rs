//! Random two-core programs that mix every unit class. Shared by
//! `tests/machine.rs` and the issue-cadence differential of the machine's
//! unit tests, which includes this file by path.

/// Generates a random two-core program mixing vector/matrix compute,
/// scalar loops and matched send/recv pairs (appended to both sides in
/// the same order, so every rendezvous can match). xorshift64* state.
pub fn random_program(state: &mut u64) -> String {
    let mut below = |n: u64| {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    };
    let mut core: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for op in 0..4 + below(10) {
        let c = below(2) as usize;
        let (a, b, len) = (below(12) * 16, below(12) * 16, 1 + below(16));
        let line = match below(7) {
            0 => format!("vfill [r0+{a}], {}, {len}", below(100)),
            1 => format!("vaddi [r0+{a}], [r0+{b}], {}, {len}", below(9)),
            2 => format!("mvm g0, [r0+{}], [r0+{b}], 16", 256 + a),
            3 => format!("addi r{}, r{}, {}", 1 + below(5), below(6), below(50)),
            4 => format!(
                "li r7, {}\nl{op}:\nvaddi [r0+{a}], [r0+{a}], 1, {len}\naddi r7, r7, -1\nbne r7, r0, l{op}",
                2 + below(4)
            ),
            _ => {
                let src = below(2) as usize;
                core[1 - src].push(format!("recv core{src}, [r0+{b}], 8, tag={op}"));
                core[src].push(format!("send core{}, [r0+{a}], 8, tag={op}", 1 - src));
                continue;
            }
        };
        core[c].push(line);
    }
    let mut text = String::new();
    for (c, ops) in core.iter().enumerate() {
        text.push_str(&format!(".core {c}\n.group 0 in=16 out=16 xbars={c}\n"));
        for line in ops {
            text.push_str(line);
            text.push('\n');
        }
        text.push_str("halt\n");
    }
    text
}
