//! One operand-extent rule across the CLI: `run` refuses an operand
//! outside memory in timing and functional runs alike, `check` reports
//! the same operands as `out-of-bounds`, and `asm`/`disasm` handle only
//! programs whose operands fit their fields.

use std::path::PathBuf;
use std::process::{Command, Output};

use pimsim_isa::{asm, Instruction};

fn pimsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pimsim"))
        .args(args)
        .output()
        .expect("pimsim starts")
}

fn scratch(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pimsim-cli-operand-bounds");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write");
    path
}

/// A vector fill past the default 4,194,304-element local memory.
const FILL_PAST_MEMORY: &str = ".core 0\nli r1, 5000000\nvfill [r1+0], 7, 4\nhalt\n";

/// A strided receive whose second block lands at element -8.
const NEGATIVE_RECV2D: &str = ".core 0\nvfill [r0+0], 7, 8\nsend core1, [r0+0], 8, tag=1\nhalt\n\
                               .core 1\nrecv2d core0, [r0+0], block=4, blocks=2, dstride=-8, tag=1\nhalt\n";

/// A send whose source lies past local memory.
const SEND_PAST_MEMORY: &str = ".core 0\nli r1, 5000000\nsend core1, [r1+0], 4, tag=1\nhalt\n\
                                .core 1\nrecv core0, [r0+0], 4, tag=1\nhalt\n";

/// A fill four elements below address 0.
const NEGATIVE_FILL: &str = ".core 0\nvfill [r0-4], 7, 4\nhalt\n";

#[test]
fn run_refuses_every_probe_in_both_modes() {
    let probes = [
        ("fill-past.s", FILL_PAST_MEMORY, "[5000000, 5000004)"),
        ("recv2d-negative.s", NEGATIVE_RECV2D, "[-8, 4)"),
        ("send-past.s", SEND_PAST_MEMORY, "[5000000, 5000004)"),
        ("fill-negative.s", NEGATIVE_FILL, "[-4, 0)"),
    ];
    for (name, text, span) in probes {
        let path = scratch(name, text);
        let path = path.to_str().expect("UTF-8 path");
        for mode in [&[][..], &["--functional"][..]] {
            let out = pimsim(&[&["run", path][..], mode].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {mode:?}: {stderr}");
            assert!(
                stderr.contains("memory fault on core")
                    && stderr.contains(span)
                    && stderr.contains("local memory"),
                "{name} {mode:?}: {stderr}"
            );
        }
    }
}

#[test]
fn check_reports_the_operands_run_refuses() {
    for (name, text, message) in [
        (
            "fill-negative.s",
            NEGATIVE_FILL,
            "local address is provably negative (lowest element at -4)",
        ),
        (
            "fill-past.s",
            FILL_PAST_MEMORY,
            "local access [5000000, 5000004) provably exceeds local memory of 4194304 elements",
        ),
        (
            "send-past.s",
            SEND_PAST_MEMORY,
            "local access [5000000, 5000004) provably exceeds local memory of 4194304 elements",
        ),
    ] {
        let path = scratch(name, text);
        let out = pimsim(&["check", path.to_str().expect("UTF-8 path")]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: {stdout}");
        assert!(
            stdout.contains("error[out-of-bounds]") && stdout.contains(message),
            "{name}: {stdout}"
        );
    }
}

#[test]
fn asm_and_disasm_refuse_operands_past_their_fields() {
    let text = ".core 0\ngload [r1+0], g[r2+0], 300000\nhalt\n";
    let source = scratch("wide.s", text);
    let out = pimsim(&["asm", source.to_str().expect("UTF-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing written");
    assert!(
        stderr.contains(
            "parse error at line 2: len value 300000 outside encodable range [0, 262143]"
        ),
        "{stderr}"
    );

    // A program file holding the same load: `run` and `disasm` refuse its
    // line as the assembler refuses it, at the line's place in the file.
    let mut program = asm::assemble(&text.replace("300000", "4")).expect("assembles");
    let Instruction::GLoad { len, .. } = &mut program.cores[0].instrs[0] else {
        panic!("core 0 starts with the load")
    };
    *len = 300_000;
    let mut json = Vec::new();
    program.write_json(&mut json).expect("write");
    let file = scratch("wide.json", &String::from_utf8(json).expect("UTF-8"));
    let file = file.to_str().expect("UTF-8 path");
    let located = "parse error: core 0 pc 0: \
                   len value 300000 outside encodable range [0, 262143] \
                   in `gload [r1+0], g[r2+0], 300000` at line 6 column 9";
    for cmd in ["run", "disasm"] {
        let out = pimsim(&[cmd, file]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} printed nothing");
        assert!(stderr.contains(located), "{cmd}: {stderr}");
    }
}
