//! `pimsim bound` on a program the checker rejects prints the checker's
//! errors and says that no bound was computed: it prints no latency, no
//! source and no pacing terms for an analysis that never priced a node.

use std::process::{Command, Output};

fn pimsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pimsim"))
        .args(args)
        .output()
        .expect("pimsim starts")
}

/// Core 1 waits for a second message core 0 never sends.
const UNMATCHED_RECV: &str = ".core 0\nsend core1, [r0+0], 8, tag=1\nhalt\n\
                              .core 1\nrecv core0, [r0+0], 8, tag=1\n\
                              recv core0, [r0+8], 8, tag=1\nhalt\n";

/// The `recv2d` expects 3 x 8 elements; the matching send carries 16.
const PAYLOAD_MISMATCH: &str = ".core 0\nsend core1, [r0+0], 16, tag=5\nhalt\n\
                                .core 1\nrecv2d core0, [r0+0], block=8, blocks=3, dstride=16, tag=5\nhalt\n";

#[test]
fn bound_names_no_bound_for_a_rejected_program() {
    let dir = std::env::temp_dir().join("pimsim-cli-unanalyzable");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, text) in [
        ("unmatched_recv.s", UNMATCHED_RECV),
        ("payload_mismatch.s", PAYLOAD_MISMATCH),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write");
        let path = path.to_str().expect("UTF-8 path");

        let out = pimsim(&["bound", path]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: {stdout}");
        assert!(stdout.starts_with("error["), "{name}: {stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        assert_eq!(
            last,
            format!("{path}: no bound computed because of the error(s) above"),
            "{name}"
        );
        for priced in ["latency lower bound", "pacing terms", "critical path"] {
            assert!(!stdout.contains(priced), "{name}: {stdout}");
        }

        let out = pimsim(&["bound", path, "--format", "json"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: {stdout}");
        assert!(
            stdout.contains("\"bound_source\": \"unanalyzable\""),
            "{name}: {stdout}"
        );
    }
}
