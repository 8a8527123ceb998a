//! A convolution's padding is counted in `u64`: a padded side or a padded
//! input buffer past `u32` is an error with the true size, not a wrap into
//! a small network that compiles.

use pimsim_arch::ArchConfig;
use pimsim_compiler::{CompileError, Compiler};
use pimsim_nn::{Layer, Network, NnError, PortRef, Shape};

/// A 1x1x1 input through one kernel-1 convolution.
fn padded_conv(padding: u32, stride: u32) -> Result<Network, NnError> {
    let mut b = Network::builder("padded", Shape::new(1, 1, 1));
    let conv = Layer::Conv2d {
        out_channels: 1,
        kernel: 1,
        stride,
        padding,
        activation: None,
    };
    b.add("conv", conv, vec![PortRef::Input]);
    b.finish()
}

#[test]
fn a_padded_input_past_u32_is_a_local_memory_overflow_with_the_true_count() {
    // 80,001 x 80,001 padded elements: 6,400,160,001, which wraps a u32
    // to 2,105,192,705. The 2x2 output sits below the input on its core.
    let net = padded_conv(40_000, 80_000).expect("the 2x2 output is a valid shape");
    let err = Compiler::new(&ArchConfig::paper_default())
        .compile(&net)
        .expect_err("the padded input overflows local memory");
    match err {
        CompileError::LocalMemoryOverflow { needed, .. } => {
            assert_eq!(needed, 4 + 6_400_160_001, "{err}");
        }
        other => panic!("expected a local memory overflow, got {other}"),
    }
}

#[test]
fn a_padded_side_past_u32_is_a_shape_error() {
    // `2 * padding` is 2^32, which wraps a u32 to 0.
    let err = padded_conv(1 << 31, 1).expect_err("the output side is 2^32 + 1");
    assert!(
        matches!(&err, NnError::Shape(msg) if msg.contains("4294967297x4294967297")),
        "{err}"
    );
    let json = padded_conv(1, 1)
        .expect("a small padding is valid")
        .to_json()
        .replace("\"padding\": 1", "\"padding\": 2147483648");
    assert!(json.contains("2147483648"), "{json}");
    let err = Network::from_json(&json)
        .and_then(|net| net.validate())
        .expect_err("the same network from JSON");
    assert!(matches!(err, NnError::Shape(_)), "{err}");
}
