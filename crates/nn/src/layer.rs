//! Layer (operator) definitions.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::network::NnError;
use crate::shape::Shape;

/// Activation functions. On the accelerator these are vector-unit LUT ops
/// fused onto the producing layer's outputs (operator fusion, paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Fixed-point sigmoid lookup.
    Sigmoid,
    /// Fixed-point tanh lookup.
    Tanh,
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        };
        f.write_str(s)
    }
}

/// One network layer (operator).
///
/// Convolution and linear layers carry an optional fused activation; the
/// compiler keeps the fusion (the paper's PE criticism of MNSIM2.0 is
/// exactly that it *cannot* run pooling/activation on MVM outputs directly).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// 2-D convolution over an HWC feature map.
    Conv2d {
        /// Output channels.
        out_channels: u32,
        /// Kernel size (square).
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding on each border.
        padding: u32,
        /// Fused activation.
        activation: Option<Activation>,
    },
    /// Fully connected layer over a flat vector.
    Linear {
        /// Output features.
        out_features: u32,
        /// Fused activation.
        activation: Option<Activation>,
    },
    /// Max pooling. Padding contributes zeros (harmless after ReLU,
    /// where activations are non-negative).
    MaxPool2d {
        /// Window size (square).
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding on each border.
        padding: u32,
    },
    /// Average pooling. The divisor is always `kernel * kernel`
    /// (padding included), matching the simulator's `VPOOL.AVG`.
    AvgPool2d {
        /// Window size (square).
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding on each border.
        padding: u32,
    },
    /// Global average pooling to 1 × 1 × C.
    GlobalAvgPool,
    /// Element-wise residual addition of exactly two inputs.
    Add {
        /// Fused activation applied to the sum.
        activation: Option<Activation>,
    },
    /// Channel concatenation of two or more inputs (same H × W).
    Concat,
    /// Reinterpret an H × W × C map as a flat 1 × 1 × (H·W·C) vector.
    Flatten,
    /// Standalone activation.
    Activation(Activation),
}

impl Layer {
    /// Short kind name for reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Layer::Conv2d { .. } => "conv",
            Layer::Linear { .. } => "linear",
            Layer::MaxPool2d { .. } => "maxpool",
            Layer::AvgPool2d { .. } => "avgpool",
            Layer::GlobalAvgPool => "gavgpool",
            Layer::Add { .. } => "add",
            Layer::Concat => "concat",
            Layer::Flatten => "flatten",
            Layer::Activation(_) => "act",
        }
    }

    /// `true` for layers whose weights live in crossbars (MVM layers).
    pub fn has_weights(&self) -> bool {
        matches!(self, Layer::Conv2d { .. } | Layer::Linear { .. })
    }

    /// Number of inputs this layer consumes.
    pub fn arity(&self) -> LayerArity {
        match self {
            Layer::Add { .. } => LayerArity::Exactly(2),
            Layer::Concat => LayerArity::AtLeast(2),
            _ => LayerArity::Exactly(1),
        }
    }

    /// Infers the output shape from input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if the inputs are incompatible with this
    /// layer (wrong arity, mismatched dimensions, kernel larger than the
    /// padded input...).
    pub fn infer_shape(&self, inputs: &[Shape]) -> Result<Shape, NnError> {
        let shape_err = |msg: String| Err(NnError::Shape(msg));
        let one = || -> Result<Shape, NnError> {
            if inputs.len() == 1 {
                Ok(inputs[0])
            } else {
                Err(NnError::Shape(format!(
                    "{} expects exactly one input, got {}",
                    self.kind_name(),
                    inputs.len()
                )))
            }
        };
        match self {
            Layer::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                ..
            } => {
                let s = one()?;
                conv_output(s, *kernel, *stride, *padding)
                    .map(|(h, w)| Shape::new(h, w, *out_channels))
            }
            Layer::MaxPool2d {
                kernel,
                stride,
                padding,
            }
            | Layer::AvgPool2d {
                kernel,
                stride,
                padding,
            } => {
                let s = one()?;
                conv_output(s, *kernel, *stride, *padding)
                    .map(|(h, w)| Shape::new(h, w, s.channels))
            }
            Layer::GlobalAvgPool => {
                let s = one()?;
                Ok(Shape::flat(s.channels))
            }
            Layer::Linear { out_features, .. } => {
                let s = one()?;
                if !s.is_flat() {
                    return shape_err(format!(
                        "linear layer needs a flat input, got {s} (insert a flatten)"
                    ));
                }
                Ok(Shape::flat(*out_features))
            }
            Layer::Add { .. } => {
                if inputs.len() != 2 {
                    return shape_err(format!("add expects 2 inputs, got {}", inputs.len()));
                }
                if inputs[0] != inputs[1] {
                    return shape_err(format!(
                        "add inputs must match: {} vs {}",
                        inputs[0], inputs[1]
                    ));
                }
                Ok(inputs[0])
            }
            Layer::Concat => {
                if inputs.len() < 2 {
                    return shape_err(format!("concat expects >=2 inputs, got {}", inputs.len()));
                }
                let (h, w) = (inputs[0].height, inputs[0].width);
                let mut channels = 0;
                for s in inputs {
                    if s.height != h || s.width != w {
                        return shape_err(format!(
                            "concat inputs must share HxW: {}x{} vs {}x{}",
                            h, w, s.height, s.width
                        ));
                    }
                    channels += s.channels;
                }
                Ok(Shape::new(h, w, channels))
            }
            Layer::Flatten => {
                let s = one()?;
                Ok(Shape::flat(s.elems()))
            }
            Layer::Activation(_) => one(),
        }
    }

    /// Multiply-accumulate count for one inference pass, given the input
    /// shapes (0 for weightless layers). Used in reports.
    pub fn macs(&self, inputs: &[Shape]) -> u64 {
        match (self, inputs.first()) {
            (
                Layer::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    ..
                },
                Some(s),
            ) => match conv_output(*s, *kernel, *stride, *padding) {
                Ok((h, w)) => {
                    h as u64
                        * w as u64
                        * *out_channels as u64
                        * (*kernel as u64 * *kernel as u64 * s.channels as u64)
                }
                Err(_) => 0,
            },
            (Layer::Linear { out_features, .. }, Some(s)) => {
                s.elems() as u64 * *out_features as u64
            }
            _ => 0,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                activation,
            } => {
                write!(
                    f,
                    "conv{kernel}x{kernel}/{stride} p{padding} -> {out_channels}"
                )?;
                if let Some(a) = activation {
                    write!(f, " +{a}")?;
                }
                Ok(())
            }
            Layer::Linear {
                out_features,
                activation,
            } => {
                write!(f, "linear -> {out_features}")?;
                if let Some(a) = activation {
                    write!(f, " +{a}")?;
                }
                Ok(())
            }
            Layer::MaxPool2d {
                kernel,
                stride,
                padding,
            } => {
                write!(f, "maxpool{kernel}x{kernel}/{stride} p{padding}")
            }
            Layer::AvgPool2d {
                kernel,
                stride,
                padding,
            } => {
                write!(f, "avgpool{kernel}x{kernel}/{stride} p{padding}")
            }
            Layer::GlobalAvgPool => write!(f, "global-avgpool"),
            Layer::Add { activation } => {
                write!(f, "add")?;
                if let Some(a) = activation {
                    write!(f, " +{a}")?;
                }
                Ok(())
            }
            Layer::Concat => write!(f, "concat"),
            Layer::Flatten => write!(f, "flatten"),
            Layer::Activation(a) => write!(f, "{a}"),
        }
    }
}

/// Input arity of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerArity {
    /// Exactly `n` inputs.
    Exactly(usize),
    /// `n` or more inputs.
    AtLeast(usize),
}

impl LayerArity {
    /// Whether `count` inputs satisfy this arity.
    pub fn accepts(self, count: usize) -> bool {
        match self {
            LayerArity::Exactly(n) => count == n,
            LayerArity::AtLeast(n) => count >= n,
        }
    }
}

/// Spatial output size of a convolution/pool window.
fn conv_output(s: Shape, kernel: u32, stride: u32, padding: u32) -> Result<(u32, u32), NnError> {
    if kernel == 0 || stride == 0 {
        return Err(NnError::Shape("kernel and stride must be positive".into()));
    }
    // In u64: `2 * padding` alone can wrap a u32.
    let padded = |side: u32| side as u64 + 2 * padding as u64;
    let (padded_h, padded_w) = (padded(s.height), padded(s.width));
    if padded_h < kernel as u64 || padded_w < kernel as u64 {
        return Err(NnError::Shape(format!(
            "window {kernel} larger than padded input {padded_h}x{padded_w}"
        )));
    }
    let out = |side: u64| u32::try_from((side - kernel as u64) / stride as u64 + 1);
    match (out(padded_h), out(padded_w)) {
        (Ok(h), Ok(w)) => Ok((h, w)),
        _ => Err(NnError::Shape(format!(
            "padded input {padded_h}x{padded_w} gives an output side over {}",
            u32::MAX
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_inference() {
        let layer = Layer::Conv2d {
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            activation: Some(Activation::Relu),
        };
        let out = layer.infer_shape(&[Shape::new(32, 32, 3)]).unwrap();
        assert_eq!(out, Shape::new(32, 32, 64));

        let strided = Layer::Conv2d {
            out_channels: 96,
            kernel: 11,
            stride: 4,
            padding: 2,
            activation: None,
        };
        let out = strided.infer_shape(&[Shape::new(224, 224, 3)]).unwrap();
        assert_eq!(out, Shape::new(55, 55, 96));
    }

    #[test]
    fn pool_and_global_pool() {
        let pool = Layer::MaxPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(
            pool.infer_shape(&[Shape::new(32, 32, 64)]).unwrap(),
            Shape::new(16, 16, 64)
        );
        assert_eq!(
            Layer::GlobalAvgPool
                .infer_shape(&[Shape::new(7, 7, 512)])
                .unwrap(),
            Shape::flat(512)
        );
    }

    #[test]
    fn linear_needs_flat_input() {
        let lin = Layer::Linear {
            out_features: 10,
            activation: None,
        };
        assert!(lin.infer_shape(&[Shape::new(2, 2, 4)]).is_err());
        assert_eq!(
            lin.infer_shape(&[Shape::flat(16)]).unwrap(),
            Shape::flat(10)
        );
    }

    #[test]
    fn add_requires_matching_pair() {
        let add = Layer::Add { activation: None };
        let s = Shape::new(8, 8, 32);
        assert_eq!(add.infer_shape(&[s, s]).unwrap(), s);
        assert!(add.infer_shape(&[s]).is_err());
        assert!(add.infer_shape(&[s, Shape::new(8, 8, 16)]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let c = Layer::Concat;
        let out = c
            .infer_shape(&[
                Shape::new(8, 8, 16),
                Shape::new(8, 8, 32),
                Shape::new(8, 8, 64),
            ])
            .unwrap();
        assert_eq!(out, Shape::new(8, 8, 112));
        assert!(c
            .infer_shape(&[Shape::new(8, 8, 16), Shape::new(4, 4, 16)])
            .is_err());
        assert!(c.infer_shape(&[Shape::new(8, 8, 16)]).is_err());
    }

    #[test]
    fn flatten_preserves_elems() {
        let out = Layer::Flatten.infer_shape(&[Shape::new(7, 7, 64)]).unwrap();
        assert_eq!(out, Shape::flat(7 * 7 * 64));
    }

    #[test]
    fn window_too_large_rejected() {
        let pool = Layer::MaxPool2d {
            kernel: 9,
            stride: 1,
            padding: 0,
        };
        assert!(pool.infer_shape(&[Shape::new(8, 8, 4)]).is_err());
    }

    #[test]
    fn macs_counted_for_weight_layers() {
        let conv = Layer::Conv2d {
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            activation: None,
        };
        let input = Shape::new(4, 4, 2);
        // 4*4 output pixels * 8 out channels * 3*3*2 window
        assert_eq!(conv.macs(&[input]), 16 * 8 * 18);
        assert_eq!(Layer::Flatten.macs(&[input]), 0);
        assert!(conv.has_weights());
        assert!(!Layer::Concat.has_weights());
    }

    #[test]
    fn arity_rules() {
        assert!(Layer::Concat.arity().accepts(3));
        assert!(!Layer::Concat.arity().accepts(1));
        assert!(Layer::Add { activation: None }.arity().accepts(2));
        assert!(!Layer::Add { activation: None }.arity().accepts(3));
        assert!(Layer::Flatten.arity().accepts(1));
    }
}
