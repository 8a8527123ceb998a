//! Property tests: every instruction survives assembly print/parse and
//! program file round-trips.

use pimsim_isa::asm;
use pimsim_isa::{
    Addr, BranchCond, CoreId, GroupId, Instruction, PoolOp, Program, Reg, SBinOp, SImmOp, VBinOp,
    VImmOp, VUnOp,
};
use proptest::prelude::*;
use serde::{Deserialize, Map, Serialize, Value};

#[path = "support/instructions.rs"]
mod instructions;

use instructions::instruction_strategy;

/// Rewrites every object of a program's JSON: members in an order drawn
/// from `seed`, with members no field list knows in between when the
/// object is a struct's (`labels` is a map, whose every key is read).
fn scramble(v: &Value, seed: &mut u64, structure: bool) -> Value {
    let next = |seed: &mut u64| {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    match v {
        Value::Object(map) => {
            let mut members: Vec<(String, Value)> = map
                .iter()
                .map(|(k, v)| (k.clone(), scramble(v, seed, k != "labels")))
                .collect();
            if structure {
                members.push(("zz_unknown".to_string(), serde_json::json!(null)));
                members.push((
                    "\u{e9}tranger \"q\"".to_string(),
                    serde_json::json!({"deep": [1, {"x": [[], {}]}, "s\n"], "f": (-2.5)}),
                ));
            }
            for i in (1..members.len()).rev() {
                members.swap(i, next(seed) as usize % (i + 1));
            }
            Value::Object(members.into_iter().collect::<Map>())
        }
        Value::Array(items) => {
            Value::Array(items.iter().map(|v| scramble(v, seed, structure)).collect())
        }
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A program file is lossless for every instruction, whatever order
    /// the members come in and whatever unknown members sit between them,
    /// through the text source and the `Value` source; each instruction
    /// is its `Display` line.
    #[test]
    fn json_text_roundtrip(instr in instruction_strategy(), seed in 1u64..u64::MAX) {
        let mut program = Program::with_cores(2);
        program.cores[1].instrs = vec![instr, Instruction::Halt];
        program.cores[1].labels.insert("end".into(), 1);
        let text = program.to_json();
        prop_assert_eq!(&Program::from_json(&text).expect("pretty text parses"), &program);
        let value = program.to_value();
        let line = &value["cores"][1]["instrs"][0];
        prop_assert_eq!(line.as_str().map(str::to_string), Some(instr.to_string()));
        let mut seed = seed;
        let scrambled = scramble(&value, &mut seed, true);
        for text in [
            serde_json::to_string_pretty(&scrambled).unwrap(),
            serde_json::to_string(&scrambled).unwrap(),
        ] {
            let back = Program::from_json(&text)
                .unwrap_or_else(|e| panic!("parse of {text} failed: {e}"));
            prop_assert_eq!(&back, &program);
        }
        let back = Program::from_value(&scrambled).expect("value source");
        prop_assert_eq!(&back, &program);
    }

    /// The canonical assembly text parses back to the same instruction.
    #[test]
    fn display_parse_roundtrip(instr in instruction_strategy()) {
        let text = instr.to_string();
        let back = asm::parse_instruction(&text)
            .unwrap_or_else(|e| panic!("parse of `{text}` failed: {e}"));
        prop_assert_eq!(back, instr);
    }
}
