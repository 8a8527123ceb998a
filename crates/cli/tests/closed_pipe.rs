//! A reader that closes stdout early (`pimsim sweep ... | head -1`) ends
//! the process quietly: exit 0 and no panic message, whichever command
//! was writing.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `pimsim args`, reads its first line of output, closes the pipe,
/// and checks how the process ended.
fn close_after_first_line(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pimsim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pimsim starts");
    let cmd = args[0];
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("stdout is readable");
    assert!(!first.is_empty(), "`{cmd}` printed nothing");
    drop(stdout);
    let out = child.wait_with_output().expect("pimsim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "`{cmd}` panicked:\n{stderr}");
    assert!(out.status.success(), "`{cmd}`: {}\n{stderr}", out.status);
}

#[test]
fn closing_stdout_early_exits_quietly() {
    // 1,600 rows, about 140 KB: more than a pipe buffers, so the table is
    // still being written when the reader goes away.
    let robs: Vec<String> = (1..=400).map(|r| r.to_string()).collect();
    let robs = robs.join(",");
    close_after_first_line(&[
        "sweep",
        "--networks",
        "tiny_mlp",
        "--robs",
        &robs,
        "--batches",
        "1,2,3,4",
        "--threads",
        "2",
    ]);
    close_after_first_line(&["run", "--network", "tiny_cnn", "--trace"]);
    close_after_first_line(&["networks"]);
}
