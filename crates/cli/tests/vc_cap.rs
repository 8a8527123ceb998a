//! A virtual-channel count past the supported cap is a configuration
//! error (exit 1, the field named), not a per-channel allocation of
//! billions of credit counters.

use std::process::Command;

#[test]
fn oversized_vc_count_is_rejected_before_any_allocation() {
    for cmd in ["run", "check", "bound"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
            .args([cmd, "--network", "tiny_mlp", "--vcs", "4000000000"])
            .output()
            .expect("pimsim starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{cmd}`: {stderr}");
        assert!(
            stderr.contains("invalid configuration field `noc.virtual_channels`"),
            "`{cmd}`: {stderr}"
        );
    }
}
