//! A `--size` the zoo network cannot be built at is an error that names
//! the offending node (exit 1), not a panic, and an element count past
//! `u32` is refused instead of wrapping into a smaller one.

use std::process::Command;

/// Runs every command that compiles `--network` and checks that each exits
/// 1 with `want` in its error.
fn refused(size: &str, want: &str) {
    for cmd in ["run", "compile", "check", "bound"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
            .args([cmd, "--network", "resnet18", "--size", size])
            .output()
            .expect("pimsim starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`{cmd} --size {size}`: {stderr}"
        );
        assert!(
            stderr.starts_with("error: shape error: ") && stderr.contains(want),
            "`{cmd} --size {size}`: {stderr}"
        );
    }
}

#[test]
fn zero_size_is_refused() {
    refused("0", "network input: shape 0x0x3 has zero elements");
}

#[test]
fn an_input_past_u32_elements_is_refused() {
    refused(
        "70000",
        "network input: shape 70000x70000x3 has more than 4294967295 elements",
    );
}

#[test]
fn a_layer_past_u32_elements_is_refused() {
    // The 37000x37000x3 input fits; conv1's 18500x18500x64 output does not.
    refused(
        "37000",
        "node conv1: shape 18500x18500x64 has more than 4294967295 elements",
    );
}
