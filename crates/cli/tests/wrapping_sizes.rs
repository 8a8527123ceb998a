//! A mesh or local memory too large for the simulator's integer widths is
//! a configuration error (exit 1, the field named), not a core count or
//! memory size that silently wraps to a different chip.

use std::process::Command;

use pimsim_arch::ArchConfig;

/// A two-core send/recv: the smallest program that needs a mesh and a
/// receive buffer.
const PING: &str = "\
.core 0
vfill [r1+0], 7, 64
send core1, [r1+0], 64, tag=1
halt
.core 1
recv core0, [r2+0], 64, tag=1
halt
";

#[test]
fn wrapping_mesh_and_memory_sizes_are_rejected() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("pimsim-cli-wrapping-sizes");
    std::fs::create_dir_all(&dir)?;
    let program = dir.join("ping.s");
    std::fs::write(&program, PING)?;
    let cases = [
        ("mesh256", 256, 256, 64, "resources.core_rows"),
        ("mesh300", 300, 300, 64, "resources.core_rows"),
        ("mem4g", 8, 8, 4_194_304, "resources.local_mem_kb"),
    ];
    for (name, rows, cols, kb, field) in cases {
        let mut arch = ArchConfig::paper_default();
        arch.resources.core_rows = rows;
        arch.resources.core_cols = cols;
        arch.resources.local_mem_kb = kb;
        let config = dir.join(format!("{name}.json"));
        std::fs::write(&config, arch.to_json())?;
        for cmd in ["run", "check", "bound"] {
            let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
                .arg(cmd)
                .arg(&program)
                .arg("--config")
                .arg(&config)
                .output()?;
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "`{cmd}` on {name}: {stderr}");
            assert!(
                stderr.contains(&format!("invalid configuration field `{field}`")),
                "`{cmd}` on {name}: {stderr}"
            );
        }
    }
    Ok(())
}

#[test]
fn wrapping_global_init_segment_is_rejected() -> std::io::Result<()> {
    // A segment starting at `u64::MAX` used to wrap its end to 0, pass
    // validation and index out of bounds in a functional run.
    let dir = std::env::temp_dir().join("pimsim-cli-wrapping-init");
    std::fs::create_dir_all(&dir)?;
    let program = dir.join("wrap.json");
    std::fs::write(
        &program,
        r#"{"format": 2, "cores": [{"instrs": ["halt"], "groups": [], "local_init": [],
  "labels": {}, "instr_tags": []}],
 "global_init": [[18446744073709551615, [1]]],
 "meta": {"name": "wrap", "mapping": "", "notes": ""}}"#,
    )?;
    for cmd in [&["run", "--functional"][..], &["check"], &["bound"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
            .args(cmd)
            .arg(&program)
            .output()?;
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{cmd:?}`: {text}");
        assert!(
            text.contains("global init segment of 1 element(s) at 18446744073709551615"),
            "`{cmd:?}`: {text}"
        );
        assert!(!text.contains("panicked"), "`{cmd:?}`: {text}");
        // The segment is chip-level data, so no core is blamed for it,
        // and `check`/`bound` name no result of an analysis that never ran.
        let said = match cmd[0] {
            "run" => "error: invalid program: global init segment",
            _ => "wrap.json: not analyzed because of the error(s) above\n",
        };
        assert!(text.contains(said), "`{cmd:?}`: {text}");
        for cause in ["core 0", "incomplete", "pacing terms", "rendezvous:"] {
            assert!(!text.contains(cause), "`{cmd:?}`: {text}");
        }
    }
    Ok(())
}

/// A program file can spell operands past their field of the instruction
/// format; `run`, `check` and `bound` refuse them at the instruction's
/// line, as the assembler does, instead of timing a footprint the ISA
/// cannot encode.
#[test]
fn operands_past_their_field_width_are_rejected() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("pimsim-cli-field-widths");
    std::fs::create_dir_all(&dir)?;
    let compiled = dir.join("lenet.json");
    let status = Command::new(env!("CARGO_BIN_EXE_pimsim"))
        .args(["compile", "--network", "lenet", "--out"])
        .arg(&compiled)
        .output()?
        .status;
    assert!(status.success());
    let text = std::fs::read_to_string(&compiled)?;
    // lenet's first instruction is core 0's first `gload`.
    let cases = [
        (
            "offset",
            ("gload [r0+21600]", "gload [r0+5000000]"),
            "expected address like [r1+8], got `[r0+5000000]`",
        ),
        (
            "len",
            ("g[r0+0], 64", "g[r0+0], 2147483648"),
            "len value 2147483648 outside encodable range [0, 262143]",
        ),
    ];
    for (name, (from, to), msg) in cases {
        let program = dir.join(format!("{name}.json"));
        std::fs::write(&program, text.replacen(from, to, 1))?;
        for cmd in ["run", "check", "bound"] {
            let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
                .arg(cmd)
                .arg(&program)
                .output()?;
            let stderr = String::from_utf8_lossy(&out.stderr);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(1), "`{cmd}` on {name}: {stderr}");
            let located = format!("parse error: core 0 pc 0: {msg} in `gload ");
            assert!(
                stderr.contains(&located) || stdout.contains(&located),
                "`{cmd}` on {name}: {stdout}{stderr}"
            );
            assert!(
                stderr.contains(msg) || stdout.contains(msg),
                "`{cmd}` on {name}: {stdout}{stderr}"
            );
        }
    }
    Ok(())
}
