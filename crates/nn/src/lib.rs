#![warn(missing_docs)]

//! Network descriptions, shape inference, the model zoo and the golden
//! functional model.
//!
//! The paper's compiler consumes an ONNX network description. This crate is
//! the reproduction's stand-in: a layer-graph IR with the operators the
//! evaluation networks need (convolution, linear, pooling,
//! residual `add`, channel `concat`, activations), shape inference, a JSON
//! on-disk format, deterministic synthetic int8 weights, and a **reference
//! forward pass** ([`GoldenModel`]) whose integer semantics exactly match the
//! simulator's functional mode — compiled programs are checked bit-exactly
//! against it in the integration tests.
//!
//! The [`zoo`] module builds the paper's evaluation networks: `alexnet`,
//! `googlenet`, `resnet18`, `squeezenet` (Fig. 3/4) and `vgg8`, `vgg16`,
//! `resnet18` (Fig. 5, the MNSIM2.0 comparison set).
//!
//! # Example
//!
//! ```rust
//! use pimsim_nn::zoo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = zoo::resnet18(32); // 32x32 input resolution
//! net.validate()?;
//! let shapes = net.inferred_shapes()?;
//! // The final classifier emits 1000 logits.
//! assert_eq!(shapes.last().unwrap().channels, 1000);
//! # Ok(())
//! # }
//! ```

mod golden;
mod layer;
mod network;
mod shape;
mod weights;
pub mod zoo;

pub use golden::{apply_activation, fixed_sigmoid, fixed_tanh, GoldenModel, DEFAULT_REQUANT_SHIFT};
pub use layer::{Activation, Layer};
pub use network::{Network, NetworkBuilder, NnError, Node, NodeId, PortRef};
pub use shape::Shape;
pub use weights::WeightGen;

/// Result alias for fallible network operations.
pub type Result<T> = std::result::Result<T, NnError>;
