//! `compile` never simulates and a program file carries no architecture,
//! so there is nothing for `--trace` to switch on there: the flag is
//! refused by name (exit 1) instead of being accepted and ignored.

use std::process::Command;

#[test]
fn compile_refuses_the_trace_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
        .args(["compile", "--network", "tiny_mlp", "--trace"])
        .output()
        .expect("pimsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown option --trace"), "{stderr}");
    assert!(out.stdout.is_empty(), "no program is written");
}
