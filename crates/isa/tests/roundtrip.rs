//! Property tests: every instruction survives assembly print/parse and
//! JSON text round-trips.

use pimsim_isa::asm;
use pimsim_isa::{
    Addr, BranchCond, CoreId, GroupId, Instruction, PoolOp, Reg, SBinOp, SImmOp, VBinOp, VImmOp,
    VUnOp,
};
use proptest::prelude::*;
use serde::{Deserialize, Map, Serialize, Value};

#[path = "support/instructions.rs"]
mod instructions;

use instructions::instruction_strategy;

/// Rewrites every struct object below an instruction's `{"Variant": ..}`
/// wrapper: members in an order drawn from `seed`, with members no field
/// list knows in between.
fn scramble(v: &Value, seed: &mut u64, wrapper: bool) -> Value {
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
                .map(|(k, v)| (k.clone(), scramble(v, seed, false)))
                .collect();
            if !wrapper {
                members.push(("zz_unknown".to_string(), serde_json::json!(null)));
                members.push((
                    "\u{e9}tranger \"q\"".to_string(),
                    serde_json::json!({"deep": [1, {"x": [[], {}]}, "s\n"], "f": (-2.5)}),
                ));
                for i in (1..members.len()).rev() {
                    members.swap(i, next(seed) as usize % (i + 1));
                }
            }
            Value::Object(members.into_iter().collect::<Map>())
        }
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// JSON text is lossless, whatever order the members come in and
    /// whatever unknown members sit between them, through both sources.
    #[test]
    fn json_text_roundtrip(instr in instruction_strategy(), seed in 1u64..u64::MAX) {
        let back: Instruction = serde_json::from_str(&serde_json::to_string(&instr).unwrap())
            .expect("compact text parses");
        prop_assert_eq!(&back, &instr);
        let mut seed = seed;
        let scrambled = scramble(&instr.to_value(), &mut seed, true);
        for text in [
            serde_json::to_string_pretty(&scrambled).unwrap(),
            serde_json::to_string(&scrambled).unwrap(),
        ] {
            let back: Instruction = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("parse of {text} failed: {e}"));
            prop_assert_eq!(&back, &instr);
        }
        let back = Instruction::from_value(&scrambled).expect("value source");
        prop_assert_eq!(&back, &instr);
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
