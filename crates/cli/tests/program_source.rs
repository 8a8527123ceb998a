//! `pimsim run` simulates a program file as it simulates the network the
//! file was compiled from, and its JSON report stays valid JSON whatever
//! the file calls itself; `disasm` prints a program file, JSON or
//! assembly, as `compile --asm` prints the program.

use std::path::PathBuf;
use std::process::Command;

use pimsim_isa::Program;

fn pimsim(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pimsim"))
        .args(args)
        .output()
        .expect("pimsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "pimsim {args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pimsim-cli-program-source");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn run_file_reports_the_bytes_run_network_does() {
    for mapping in ["performance-first", "utilization-first"] {
        let file = scratch(&format!("tiny_cnn-{mapping}.json"));
        let file = file.to_str().expect("UTF-8 path");
        pimsim(&[
            "compile",
            "--network",
            "tiny_cnn",
            "--mapping",
            mapping,
            "--out",
            file,
        ]);
        let from_file = pimsim(&["run", file, "--json"]);
        let compiled = pimsim(&[
            "run",
            "--network",
            "tiny_cnn",
            "--mapping",
            mapping,
            "--json",
        ]);
        assert_eq!(from_file, compiled, "{mapping}");
        // The text report leaves out what only the compiler knows.
        let text = pimsim(&["run", file]);
        assert!(
            text.starts_with(&format!("tiny_cnn under {mapping} (batch 1):")),
            "{text}"
        );
        assert!(!text.contains("cores w/ work"), "{text}");
    }
}

#[test]
fn a_quoted_program_name_stays_valid_json() {
    let compiled = scratch("tiny_mlp.json");
    let compiled = compiled.to_str().expect("UTF-8 path");
    pimsim(&["compile", "--network", "tiny_mlp", "--out", compiled]);
    let text = std::fs::read_to_string(compiled).expect("program file");
    let mut program = Program::from_json(&text).expect("program parses");
    let name = "my \"fast\" net \\ v2";
    program.meta.name = name.to_string();
    program.meta.mapping = "hand\ttuned".to_string();
    let renamed = scratch("renamed.json");
    let file = std::fs::File::create(&renamed).expect("create");
    program.write_json(file).expect("write");

    let json = pimsim(&["run", renamed.to_str().expect("UTF-8 path"), "--json"]);
    let report: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(report["network"].as_str(), Some(name));
    assert_eq!(report["mapping"].as_str(), Some("hand\ttuned"));
    assert_eq!(report["batch"].as_u64(), Some(1));
}

#[test]
fn disasm_prints_a_program_file_as_compile_asm_does() {
    for network in ["tiny_mlp", "tiny_cnn", "lenet"] {
        for mapping in ["performance-first", "utilization-first"] {
            let json = scratch(&format!("{network}-{mapping}.p.json"));
            let asm = scratch(&format!("{network}-{mapping}.p.s"));
            let (json, asm) = (json.to_str().expect("UTF-8"), asm.to_str().expect("UTF-8"));
            let args = ["compile", "--network", network, "--mapping", mapping];
            pimsim(&[&args[..], &["--out", json, "--asm", asm]].concat());
            let text = std::fs::read_to_string(asm).expect("assembly written");
            assert_eq!(pimsim(&["disasm", json]), text, "{network} {mapping}");
            // An assembly file reads as the program JSON `asm` makes of it.
            let reassembled = scratch(&format!("{network}-{mapping}.q.json"));
            let reassembled = reassembled.to_str().expect("UTF-8");
            pimsim(&["asm", asm, "--out", reassembled]);
            assert_eq!(
                pimsim(&["disasm", asm]),
                pimsim(&["disasm", reassembled]),
                "{network} {mapping}"
            );
        }
    }
}
