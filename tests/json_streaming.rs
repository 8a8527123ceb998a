//! Differential gate for the streaming JSON path.
//!
//! `to_json` writes text straight from the derive-generated `serialize`
//! calls and `from_json` reads fields straight out of the text; neither
//! builds a tree. The `Value` sink and source are the reference
//! implementation of the same data model, so for every JSON surface of the
//! workspace: the direct rendering must equal, byte for byte, the printed
//! `Value` tree of the same object, and parsing it back must give the
//! object (through the text source) and the tree (through `Value`).

use pimsim::analyze::Analysis;
use pimsim::nn::zoo;
use pimsim::prelude::*;
use pimsim::serve::ServeConfig;
use pimsim::sweep::{default_resolution, results_to_json};
use serde_json::{json, Value};

/// `text` is what printing the `Value` tree of `value` gives, and reads
/// back to that tree.
fn assert_matches_value_path<T: serde::Serialize>(what: &str, value: &T, text: &str) {
    let tree = serde_json::to_value(value).unwrap();
    let reference = serde_json::to_string_pretty(&tree).unwrap();
    assert!(text == reference, "{what}: text sink and Value sink differ");
    let parsed: Value = serde_json::from_str(text).unwrap();
    assert!(
        parsed == tree,
        "{what}: text does not parse back to the tree"
    );
}

/// Each instruction of `program` is its `Display` line in the file's tree.
fn assert_lines_are_instructions(what: &str, program: &Program, text: &str) {
    let tree: Value = serde_json::from_str(text).unwrap();
    assert_eq!(tree["format"].as_u64(), Some(2), "{what}");
    for (c, core) in program.cores.iter().enumerate() {
        let lines = tree["cores"][c]["instrs"].as_array().unwrap();
        assert_eq!(lines.len(), core.instrs.len(), "{what}: core {c}");
        for (pc, (line, instr)) in lines.iter().zip(&core.instrs).enumerate() {
            assert!(
                line.as_str() == Some(instr.to_string().as_str()),
                "{what}: core {c} pc {pc}: {line:?}"
            );
        }
    }
}

fn compile(name: &str, policy: MappingPolicy, functional: bool) -> Program {
    let net = zoo::by_name(name, default_resolution(name)).unwrap();
    Compiler::new(&ArchConfig::paper_default())
        .mapping(policy)
        .functional(functional)
        .compile(&net)
        .unwrap_or_else(|e| panic!("{name}/{policy}: {e}"))
        .program
}

#[test]
fn every_zoo_program_renders_and_parses_like_the_value_path() {
    for name in zoo::NAMES {
        for policy in [
            MappingPolicy::UtilizationFirst,
            MappingPolicy::PerformanceFirst,
        ] {
            let program = compile(name, policy, false);
            let what = format!("{name}/{policy}");
            let text = program.to_json();
            assert_matches_value_path(&what, &program, &text);
            assert_lines_are_instructions(&what, &program, &text);
            let back = Program::from_json(&text).unwrap();
            assert!(back == program, "{what}: from_json(to_json(p)) != p");
            let mut streamed = Vec::new();
            program.write_json(&mut streamed).unwrap();
            assert!(streamed == text.as_bytes(), "{what}: write_json bytes");
        }
    }
}

#[test]
fn weights_and_init_segments_round_trip() {
    // A functional compile carries crossbar weights and memory preloads:
    // nested integer arrays, `(u32, Vec<i32>)` tuples, optional members.
    let program = compile("tiny_cnn", MappingPolicy::PerformanceFirst, true);
    assert!(program
        .cores
        .iter()
        .any(|c| c.groups.iter().any(|g| g.weights.is_some())));
    assert!(!program.global_init.is_empty());
    let text = program.to_json();
    assert_matches_value_path("tiny_cnn functional", &program, &text);
    assert_lines_are_instructions("tiny_cnn functional", &program, &text);
    assert_eq!(Program::from_json(&text).unwrap(), program);
}

#[test]
fn configs_and_reports_render_like_the_value_path() {
    let arch = ArchConfig::paper_default();
    let text = arch.to_json();
    assert_matches_value_path("ArchConfig", &arch, &text);
    assert_eq!(ArchConfig::from_json(&text).unwrap(), arch);

    let program = compile("lenet", MappingPolicy::PerformanceFirst, false);
    let analysis = analyze(&program, &arch);
    let text = analysis.to_json();
    assert_matches_value_path("Analysis", &analysis, &text);
    assert_eq!(serde_json::from_str::<Analysis>(&text).unwrap(), analysis);
    let report = bounds(&program, &arch);
    let text = report.to_json();
    assert_matches_value_path("BoundsReport", &report, &text);
    assert_eq!(serde_json::from_str::<BoundsReport>(&text).unwrap(), report);

    // A sweep with a swept router knob, so the hand-written `Serialize`
    // impls emit their optional members.
    let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
    grid.base = Some(ArchConfig::small_test());
    grid.rob_sizes = vec![1, 4];
    grid.vcs = vec![1, 2];
    let text = grid.to_json();
    assert_matches_value_path("SweepGrid", &grid, &text);
    assert_eq!(SweepGrid::from_json(&text).unwrap(), grid);
    let rows = run_grid(&grid, 2).unwrap();
    assert!(results_to_json(&rows).contains("\"virtual_channels\": 2"));
    let row_trees: Vec<Value> = rows
        .iter()
        .map(|r| serde_json::to_value(r).unwrap())
        .collect();
    let reference = json!({"points": (rows.len()), "rows": (Value::Array(row_trees))});
    assert_eq!(
        results_to_json(&rows),
        serde_json::to_string_pretty(&reference).unwrap()
    );

    let mut config = ServeConfig::new(vec![("tiny_mlp".to_string(), 64)]);
    config.arch = ArchConfig::small_test();
    config.duration = SimTime::from_us(200);
    config.rate_rps = 100_000.0;
    let report = serve(&config, 1).unwrap();
    assert_matches_value_path("ServeReport", &report, &report.to_json());
}

#[test]
fn absurd_nesting_is_a_located_error_not_a_stack_overflow() {
    // `python3 -c "print('['*200000)" > deep.json; pimsim check deep.json`
    // used to abort the process.
    let deep = "[".repeat(200_000);
    let e = Program::from_json(&deep).unwrap_err();
    assert!(e.to_string().contains("line 1 column 1"), "{e}");
    let e = ArchConfig::from_json(&deep).unwrap_err();
    assert!(e.to_string().contains("line 1 column 1"), "{e}");
    // The same depth where the type allows nesting: under a member
    // `Program` does not know, and inside an init segment's value array.
    let e = Program::from_json(&format!("{{\"cores\": [],\n \"junk\": {deep}")).unwrap_err();
    assert!(
        e.to_string().contains("recursion limit exceeded at line 2"),
        "{e}"
    );
    let e = Program::from_json(&format!("{{\"global_init\": {deep}")).unwrap_err();
    assert!(e.to_string().contains("line 1 column"), "{e}");
    let e = ArchConfig::from_json(&format!("{{\"junk\": {deep}")).unwrap_err();
    assert!(e.to_string().contains("unknown field `junk`"), "{e}");
}
