//! `sweep` evaluates one simulation per grid point on the cycle-accurate
//! simulator; open-loop serving is `pimsim serve`'s and the
//! behaviour-level baseline `pimsim run --baseline`'s. The serving and
//! simulator flags `sweep` once took are refused by name (exit 1), not
//! accepted and ignored. A serve point is a sweep point, so both commands
//! word a network they cannot build alike.

use std::process::Command;

#[test]
fn sweep_refuses_the_serving_flags() {
    for (flag, value) in [
        ("--arrival-rates", "5e4"),
        ("--batch-policies", "4/50us"),
        ("--serve-duration", "1ms"),
        ("--serve-seed", "7"),
        ("--simulators", "cycle"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
            .args(["sweep", "--networks", "tiny_mlp", flag, value])
            .output()
            .expect("pimsim starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: no sweep runs");
    }
}

#[test]
fn serve_and_sweep_word_an_unbuildable_network_alike() {
    let stderr = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
            .args(args)
            .output()
            .expect("pimsim starts");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        String::from_utf8(out.stderr).unwrap()
    };
    let serve = stderr(&["serve", "--networks", "vgg8/0"]);
    let sweep = stderr(&["sweep", "--networks", "vgg8", "--resolutions", "0"]);
    assert_eq!(
        serve,
        "error: network `vgg8` cannot be built at resolution 0\n"
    );
    assert_eq!(serve, sweep);
}
