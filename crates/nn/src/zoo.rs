//! The model zoo: builders for every network the paper evaluates.
//!
//! Fig. 3 / Fig. 4 use `alexnet`, `googlenet`, `resnet18`, `squeezenet`;
//! Fig. 5 (the MNSIM2.0 comparison) uses `vgg8`, `vgg16`, `resnet18` —
//! the “modified” concat-free networks shipped with MNSIM2.0's source.
//!
//! Every builder takes the input resolution so experiments can run at
//! reduced scale (the paper's figures are *normalized*, so shape — not
//! absolute size — is what matters; the figure harnesses in `pimsim-bench`
//! run 64×64 inputs, 32×32 for the CIFAR-scale Fig. 5 set). They return the graph unvalidated: a resolution it cannot take
//! (a window larger than its input, an element count past `u32`) is an
//! error of [`Network::validate`], which `Compiler::compile` runs, not a
//! panic. Layer graphs follow the standard architectures; LRN layers
//! (AlexNet/GoogLeNet) are omitted as is customary in modern
//! re-implementations, and aux classifiers are dropped from GoogLeNet.

use crate::layer::{Activation, Layer};
use crate::network::{Network, NetworkBuilder, PortRef};
use crate::shape::Shape;

const RELU: Option<Activation> = Some(Activation::Relu);

#[allow(clippy::too_many_arguments)] // the arguments are the conv hyper-parameters
fn conv(
    b: &mut NetworkBuilder,
    name: &str,
    input: PortRef,
    out_channels: u32,
    kernel: u32,
    stride: u32,
    padding: u32,
    activation: Option<Activation>,
) -> PortRef {
    b.add(
        name,
        Layer::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
            activation,
        },
        vec![input],
    )
}

fn maxpool(
    b: &mut NetworkBuilder,
    name: &str,
    input: PortRef,
    kernel: u32,
    stride: u32,
    padding: u32,
) -> PortRef {
    b.add(
        name,
        Layer::MaxPool2d {
            kernel,
            stride,
            padding,
        },
        vec![input],
    )
}

fn linear(
    b: &mut NetworkBuilder,
    name: &str,
    input: PortRef,
    out: u32,
    act: Option<Activation>,
) -> PortRef {
    b.add(
        name,
        Layer::Linear {
            out_features: out,
            activation: act,
        },
        vec![input],
    )
}

/// A 3-layer MLP over a flat 64-element input. The smallest end-to-end
/// test subject: `64 -> 32 -> 16 -> 10`.
pub fn tiny_mlp() -> Network {
    let mut b = Network::builder("tiny_mlp", Shape::flat(64));
    let h1 = linear(&mut b, "fc1", PortRef::Input, 32, RELU);
    let h2 = linear(&mut b, "fc2", h1, 16, RELU);
    linear(&mut b, "fc3", h2, 10, None);
    b.finish().expect("tiny_mlp is well-formed")
}

/// A small CNN exercising every operator kind (conv, max/avg pool, residual
/// add, concat, global pool, flatten, linear, standalone activation) on an
/// 8×8×3 input. Used heavily by functional end-to-end tests.
pub fn tiny_cnn() -> Network {
    let mut b = Network::builder("tiny_cnn", Shape::new(8, 8, 3));
    let c1 = conv(&mut b, "conv1", PortRef::Input, 8, 3, 1, 1, RELU);
    // Residual pair on 8 channels.
    let c2 = conv(&mut b, "conv2", c1, 8, 3, 1, 1, None);
    let add = b.add("res_add", Layer::Add { activation: RELU }, vec![c1, c2]);
    // Two-branch concat (1x1 and 3x3), inception-style.
    let b1 = conv(&mut b, "branch1x1", add, 4, 1, 1, 0, RELU);
    let b3 = conv(&mut b, "branch3x3", add, 4, 3, 1, 1, RELU);
    let cat = b.add("concat", Layer::Concat, vec![b1, b3]);
    let p1 = maxpool(&mut b, "pool1", cat, 2, 2, 0);
    let a1 = b.add(
        "avg",
        Layer::AvgPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        },
        vec![p1],
    );
    let act = b.add("act", Layer::Activation(Activation::Relu), vec![a1]);
    let gap = b.add("gap", Layer::GlobalAvgPool, vec![act]);
    linear(&mut b, "fc", gap, 10, None);
    b.finish().expect("tiny_cnn is well-formed")
}

/// AlexNet (LRN omitted). Minimum sensible `input_hw` is 64.
pub fn alexnet(input_hw: u32) -> Network {
    let mut b = Network::builder("alexnet", Shape::new(input_hw, input_hw, 3));
    let c1 = conv(&mut b, "conv1", PortRef::Input, 96, 11, 4, 2, RELU);
    let p1 = maxpool(&mut b, "pool1", c1, 3, 2, 0);
    let c2 = conv(&mut b, "conv2", p1, 256, 5, 1, 2, RELU);
    let p2 = maxpool(&mut b, "pool2", c2, 3, 2, 0);
    let c3 = conv(&mut b, "conv3", p2, 384, 3, 1, 1, RELU);
    let c4 = conv(&mut b, "conv4", c3, 384, 3, 1, 1, RELU);
    let c5 = conv(&mut b, "conv5", c4, 256, 3, 1, 1, RELU);
    let p5 = maxpool(&mut b, "pool5", c5, 3, 2, 0);
    let f = b.add("flatten", Layer::Flatten, vec![p5]);
    let fc6 = linear(&mut b, "fc6", f, 4096, RELU);
    let fc7 = linear(&mut b, "fc7", fc6, 4096, RELU);
    linear(&mut b, "fc8", fc7, 1000, None);
    b.finish_unvalidated()
}

/// One GoogLeNet inception module.
#[allow(clippy::too_many_arguments)]
fn inception(
    b: &mut NetworkBuilder,
    name: &str,
    input: PortRef,
    ch1: u32,
    ch3r: u32,
    ch3: u32,
    ch5r: u32,
    ch5: u32,
    pool_proj: u32,
) -> PortRef {
    let b1 = conv(b, &format!("{name}/1x1"), input, ch1, 1, 1, 0, RELU);
    let b3r = conv(b, &format!("{name}/3x3_reduce"), input, ch3r, 1, 1, 0, RELU);
    let b3 = conv(b, &format!("{name}/3x3"), b3r, ch3, 3, 1, 1, RELU);
    let b5r = conv(b, &format!("{name}/5x5_reduce"), input, ch5r, 1, 1, 0, RELU);
    let b5 = conv(b, &format!("{name}/5x5"), b5r, ch5, 5, 1, 2, RELU);
    let bp = maxpool(b, &format!("{name}/pool"), input, 3, 1, 1);
    let bpp = conv(
        b,
        &format!("{name}/pool_proj"),
        bp,
        pool_proj,
        1,
        1,
        0,
        RELU,
    );
    b.add(
        format!("{name}/concat"),
        Layer::Concat,
        vec![b1, b3, b5, bpp],
    )
}

/// GoogLeNet (Inception v1, aux classifiers dropped, LRN omitted).
/// Minimum sensible `input_hw` is 64.
pub fn googlenet(input_hw: u32) -> Network {
    let mut b = Network::builder("googlenet", Shape::new(input_hw, input_hw, 3));
    let c1 = conv(&mut b, "conv1", PortRef::Input, 64, 7, 2, 3, RELU);
    let p1 = maxpool(&mut b, "pool1", c1, 3, 2, 1);
    let c2r = conv(&mut b, "conv2_reduce", p1, 64, 1, 1, 0, RELU);
    let c2 = conv(&mut b, "conv2", c2r, 192, 3, 1, 1, RELU);
    let p2 = maxpool(&mut b, "pool2", c2, 3, 2, 1);
    let i3a = inception(&mut b, "3a", p2, 64, 96, 128, 16, 32, 32);
    let i3b = inception(&mut b, "3b", i3a, 128, 128, 192, 32, 96, 64);
    let p3 = maxpool(&mut b, "pool3", i3b, 3, 2, 1);
    let i4a = inception(&mut b, "4a", p3, 192, 96, 208, 16, 48, 64);
    let i4b = inception(&mut b, "4b", i4a, 160, 112, 224, 24, 64, 64);
    let i4c = inception(&mut b, "4c", i4b, 128, 128, 256, 24, 64, 64);
    let i4d = inception(&mut b, "4d", i4c, 112, 144, 288, 32, 64, 64);
    let i4e = inception(&mut b, "4e", i4d, 256, 160, 320, 32, 128, 128);
    let p4 = maxpool(&mut b, "pool4", i4e, 3, 2, 1);
    let i5a = inception(&mut b, "5a", p4, 256, 160, 320, 32, 128, 128);
    let i5b = inception(&mut b, "5b", i5a, 384, 192, 384, 48, 128, 128);
    let gap = b.add("gap", Layer::GlobalAvgPool, vec![i5b]);
    linear(&mut b, "fc", gap, 1000, None);
    b.finish_unvalidated()
}

/// One ResNet basic block (two 3×3 convs + identity/projection shortcut).
fn basic_block(
    b: &mut NetworkBuilder,
    name: &str,
    input: PortRef,
    channels: u32,
    stride: u32,
    project: bool,
) -> PortRef {
    let c1 = conv(
        b,
        &format!("{name}/conv1"),
        input,
        channels,
        3,
        stride,
        1,
        RELU,
    );
    let c2 = conv(b, &format!("{name}/conv2"), c1, channels, 3, 1, 1, None);
    let shortcut = if project {
        conv(
            b,
            &format!("{name}/downsample"),
            input,
            channels,
            1,
            stride,
            0,
            None,
        )
    } else {
        input
    };
    b.add(
        format!("{name}/add"),
        Layer::Add { activation: RELU },
        vec![shortcut, c2],
    )
}

/// A basic-block ResNet: a 7×7 stem, stages of `(channels, blocks)` whose
/// first block strides by 2 and projects its shortcut (all but the first
/// stage), global average pooling and one FC layer. Minimum sensible
/// `input_hw` is 32.
fn resnet(name: &str, stages: &[(u32, u32)], input_hw: u32) -> Network {
    let mut b = Network::builder(name, Shape::new(input_hw, input_hw, 3));
    let c1 = conv(&mut b, "conv1", PortRef::Input, 64, 7, 2, 3, RELU);
    let mut x = maxpool(&mut b, "pool1", c1, 3, 2, 1);
    for (si, &(ch, blocks)) in stages.iter().enumerate() {
        for bi in 0..blocks {
            let project = si > 0 && bi == 0;
            let stride = if project { 2 } else { 1 };
            let block = format!("layer{}.{bi}", si + 1);
            x = basic_block(&mut b, &block, x, ch, stride, project);
        }
    }
    let gap = b.add("gap", Layer::GlobalAvgPool, vec![x]);
    linear(&mut b, "fc", gap, 1000, None);
    b.finish_unvalidated()
}

/// ResNet-18 (stage depths 2/2/2/2).
pub fn resnet18(input_hw: u32) -> Network {
    resnet(
        "resnet18",
        &[(64, 2), (128, 2), (256, 2), (512, 2)],
        input_hw,
    )
}

/// ResNet-34 (stage depths 3/4/6/3).
pub fn resnet34(input_hw: u32) -> Network {
    resnet(
        "resnet34",
        &[(64, 3), (128, 4), (256, 6), (512, 3)],
        input_hw,
    )
}

/// One SqueezeNet fire module (squeeze 1×1, expand 1×1 ‖ 3×3, concat).
fn fire(b: &mut NetworkBuilder, name: &str, input: PortRef, squeeze: u32, expand: u32) -> PortRef {
    let s = conv(b, &format!("{name}/squeeze"), input, squeeze, 1, 1, 0, RELU);
    let e1 = conv(b, &format!("{name}/expand1x1"), s, expand, 1, 1, 0, RELU);
    let e3 = conv(b, &format!("{name}/expand3x3"), s, expand, 3, 1, 1, RELU);
    b.add(format!("{name}/concat"), Layer::Concat, vec![e1, e3])
}

/// SqueezeNet v1.0. Minimum sensible `input_hw` is 64.
pub fn squeezenet(input_hw: u32) -> Network {
    let mut b = Network::builder("squeezenet", Shape::new(input_hw, input_hw, 3));
    let c1 = conv(&mut b, "conv1", PortRef::Input, 96, 7, 2, 0, RELU);
    let p1 = maxpool(&mut b, "pool1", c1, 3, 2, 0);
    let f2 = fire(&mut b, "fire2", p1, 16, 64);
    let f3 = fire(&mut b, "fire3", f2, 16, 64);
    let f4 = fire(&mut b, "fire4", f3, 32, 128);
    let p4 = maxpool(&mut b, "pool4", f4, 3, 2, 0);
    let f5 = fire(&mut b, "fire5", p4, 32, 128);
    let f6 = fire(&mut b, "fire6", f5, 48, 192);
    let f7 = fire(&mut b, "fire7", f6, 48, 192);
    let f8 = fire(&mut b, "fire8", f7, 64, 256);
    let p8 = maxpool(&mut b, "pool8", f8, 3, 2, 0);
    let f9 = fire(&mut b, "fire9", p8, 64, 256);
    let c10 = conv(&mut b, "conv10", f9, 1000, 1, 1, 0, RELU);
    b.add("gap", Layer::GlobalAvgPool, vec![c10]);
    b.finish_unvalidated()
}

/// VGG-8 (the CIFAR-scale network from the MNSIM2.0 examples): six 3×3
/// conv layers in three pooled stages, then two FC layers. Default
/// `input_hw` is 32.
pub fn vgg8(input_hw: u32) -> Network {
    let mut b = Network::builder("vgg8", Shape::new(input_hw, input_hw, 3));
    let c1 = conv(&mut b, "conv1", PortRef::Input, 128, 3, 1, 1, RELU);
    let c2 = conv(&mut b, "conv2", c1, 128, 3, 1, 1, RELU);
    let p1 = maxpool(&mut b, "pool1", c2, 2, 2, 0);
    let c3 = conv(&mut b, "conv3", p1, 256, 3, 1, 1, RELU);
    let c4 = conv(&mut b, "conv4", c3, 256, 3, 1, 1, RELU);
    let p2 = maxpool(&mut b, "pool2", c4, 2, 2, 0);
    let c5 = conv(&mut b, "conv5", p2, 512, 3, 1, 1, RELU);
    let c6 = conv(&mut b, "conv6", c5, 512, 3, 1, 1, RELU);
    let p3 = maxpool(&mut b, "pool3", c6, 2, 2, 0);
    let f = b.add("flatten", Layer::Flatten, vec![p3]);
    let fc1 = linear(&mut b, "fc1", f, 1024, RELU);
    linear(&mut b, "fc2", fc1, 10, None);
    b.finish_unvalidated()
}

/// A VGG: stages of `(channels, convs)` 3×3 convolutions, each closed by
/// a 2×2 max pool, then three FC layers. Works from `input_hw` 32 upward.
fn vgg(name: &str, stages: &[(u32, u32)], input_hw: u32) -> Network {
    let mut b = Network::builder(name, Shape::new(input_hw, input_hw, 3));
    let mut x = PortRef::Input;
    for (si, &(ch, convs)) in stages.iter().enumerate() {
        for li in 0..convs {
            let name = format!("conv{}_{}", si + 1, li + 1);
            x = conv(&mut b, &name, x, ch, 3, 1, 1, RELU);
        }
        x = maxpool(&mut b, &format!("pool{}", si + 1), x, 2, 2, 0);
    }
    let f = b.add("flatten", Layer::Flatten, vec![x]);
    let fc1 = linear(&mut b, "fc1", f, 4096, RELU);
    let fc2 = linear(&mut b, "fc2", fc1, 4096, RELU);
    linear(&mut b, "fc3", fc2, 1000, None);
    b.finish_unvalidated()
}

/// VGG-11 (configuration A).
pub fn vgg11(input_hw: u32) -> Network {
    vgg(
        "vgg11",
        &[(64, 1), (128, 1), (256, 2), (512, 2), (512, 2)],
        input_hw,
    )
}

/// VGG-16 (configuration D).
pub fn vgg16(input_hw: u32) -> Network {
    vgg(
        "vgg16",
        &[(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)],
        input_hw,
    )
}

/// LeNet-5 (tanh activations, average pooling) — the classic 32×32
/// grayscale digit classifier; exercises the tanh LUT and average-pool
/// paths end to end.
pub fn lenet(input_hw: u32) -> Network {
    let mut b = Network::builder("lenet", Shape::new(input_hw, input_hw, 1));
    const TANH: Option<Activation> = Some(Activation::Tanh);
    let c1 = conv(&mut b, "c1", PortRef::Input, 6, 5, 1, 0, TANH);
    let s2 = b.add(
        "s2",
        Layer::AvgPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        },
        vec![c1],
    );
    let c3 = conv(&mut b, "c3", s2, 16, 5, 1, 0, TANH);
    let s4 = b.add(
        "s4",
        Layer::AvgPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        },
        vec![c3],
    );
    let c5 = conv(&mut b, "c5", s4, 120, 5, 1, 0, TANH);
    let f = b.add("flatten", Layer::Flatten, vec![c5]);
    let f6 = linear(&mut b, "f6", f, 84, TANH);
    linear(&mut b, "output", f6, 10, None);
    b.finish_unvalidated()
}

/// Looks up a zoo network by name at a given input resolution. Names:
/// `alexnet`, `googlenet`, `resnet18`, `squeezenet`, `vgg8`, `vgg16`,
/// `tiny_mlp`, `tiny_cnn`.
pub fn by_name(name: &str, input_hw: u32) -> Option<Network> {
    let net = match name {
        "alexnet" => alexnet(input_hw),
        "googlenet" => googlenet(input_hw),
        "resnet18" => resnet18(input_hw),
        "squeezenet" => squeezenet(input_hw),
        "vgg8" => vgg8(input_hw),
        "vgg11" => vgg11(input_hw),
        "vgg16" => vgg16(input_hw),
        "lenet" => lenet(input_hw),
        "resnet34" => resnet34(input_hw),
        "tiny_mlp" => tiny_mlp(),
        "tiny_cnn" => tiny_cnn(),
        _ => return None,
    };
    Some(net)
}

/// All zoo network names accepted by [`by_name`].
pub const NAMES: &[&str] = &[
    "alexnet",
    "googlenet",
    "lenet",
    "resnet18",
    "resnet34",
    "squeezenet",
    "vgg8",
    "vgg11",
    "vgg16",
    "tiny_mlp",
    "tiny_cnn",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_validate_at_reference_resolutions() {
        for (name, hw) in [
            ("alexnet", 224),
            ("googlenet", 224),
            ("resnet18", 224),
            ("squeezenet", 224),
            ("vgg8", 32),
            ("vgg16", 224),
        ] {
            let net = by_name(name, hw).unwrap();
            net.validate()
                .unwrap_or_else(|e| panic!("{name}@{hw}: {e}"));
        }
    }

    #[test]
    fn all_networks_validate_at_reduced_resolutions() {
        for (name, hw) in [
            ("alexnet", 64),
            ("googlenet", 64),
            ("resnet18", 32),
            ("squeezenet", 64),
            ("vgg8", 32),
            ("vgg16", 32),
        ] {
            let net = by_name(name, hw).unwrap();
            net.validate()
                .unwrap_or_else(|e| panic!("{name}@{hw}: {e}"));
        }
    }

    #[test]
    fn classifier_widths() {
        assert_eq!(
            alexnet(224)
                .inferred_shapes()
                .unwrap()
                .last()
                .unwrap()
                .channels,
            1000
        );
        assert_eq!(
            vgg8(32).inferred_shapes().unwrap().last().unwrap().channels,
            10
        );
        assert_eq!(
            squeezenet(224)
                .inferred_shapes()
                .unwrap()
                .last()
                .unwrap()
                .channels,
            1000
        );
    }

    #[test]
    fn expected_layer_counts() {
        // AlexNet: 5 conv + 3 pool + flatten + 3 fc = 12 nodes.
        assert_eq!(alexnet(224).nodes.len(), 12);
        // GoogLeNet: 9 inception modules of 8 nodes each + stem/tail.
        let g = googlenet(224);
        assert_eq!(
            g.nodes
                .iter()
                .filter(|n| n.layer.kind_name() == "concat")
                .count(),
            9
        );
        // ResNet-18 has 8 residual adds and 20 convolutions (incl. 3 projections).
        let r = resnet18(224);
        assert_eq!(
            r.nodes
                .iter()
                .filter(|n| n.layer.kind_name() == "add")
                .count(),
            8
        );
        assert_eq!(
            r.nodes
                .iter()
                .filter(|n| n.layer.kind_name() == "conv")
                .count(),
            20
        );
        // SqueezeNet: 8 fire modules -> 8 concats.
        let s = squeezenet(224);
        assert_eq!(
            s.nodes
                .iter()
                .filter(|n| n.layer.kind_name() == "concat")
                .count(),
            8
        );
        // VGG-16: 13 convs + 3 fc.
        let v = vgg16(224);
        assert_eq!(v.nodes.iter().filter(|n| n.layer.has_weights()).count(), 16);
    }

    #[test]
    fn imagenet_shapes_match_reference() {
        let net = resnet18(224);
        let shapes = net.inferred_shapes().unwrap();
        // conv1 output: 112x112x64.
        assert_eq!(shapes[0], Shape::new(112, 112, 64));
        // pool1 output: 56x56x64.
        assert_eq!(shapes[1], Shape::new(56, 56, 64));
        // final: 1000 logits.
        assert_eq!(*shapes.last().unwrap(), Shape::flat(1000));

        let g = googlenet(224);
        let gs = g.inferred_shapes().unwrap();
        // inception 3a concat: 28x28x256.
        let i3a = g
            .nodes
            .iter()
            .position(|n| n.name == "3a/concat")
            .expect("3a exists");
        assert_eq!(gs[i3a], Shape::new(28, 28, 256));
    }

    #[test]
    fn extended_zoo_networks_validate() {
        for (name, hw) in [
            ("lenet", 32),
            ("vgg11", 32),
            ("resnet34", 32),
            ("resnet34", 224),
        ] {
            let net = by_name(name, hw).unwrap();
            net.validate()
                .unwrap_or_else(|e| panic!("{name}@{hw}: {e}"));
        }
        // ResNet-34: 16 basic blocks -> 16 adds; 36 convs total.
        let r = resnet34(224);
        assert_eq!(
            r.nodes
                .iter()
                .filter(|n| n.layer.kind_name() == "add")
                .count(),
            16
        );
        assert_eq!(
            r.nodes
                .iter()
                .filter(|n| n.layer.kind_name() == "conv")
                .count(),
            36
        );
        // ResNet-34 at 224 is ~3.6 GMACs in the literature.
        let g = r.total_macs() as f64 / 1e9;
        assert!((3.2..4.0).contains(&g), "resnet34 macs = {g} G");
        // LeNet uses tanh + avgpool exclusively.
        let l = lenet(32);
        assert!(l.nodes.iter().any(|n| n.layer.kind_name() == "avgpool"));
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("transformer", 32).is_none());
        for n in NAMES {
            assert!(by_name(n, 64).is_some(), "{n} should build");
        }
    }

    #[test]
    fn macs_are_plausible() {
        // VGG-16 at 224 is ~15.5 GMACs in the literature.
        let v = vgg16(224);
        let g = v.total_macs() as f64 / 1e9;
        assert!((14.0..17.0).contains(&g), "vgg16 macs = {g} G");
        // ResNet-18 at 224 is ~1.8 GMACs.
        let r = resnet18(224).total_macs() as f64 / 1e9;
        assert!((1.5..2.1).contains(&r), "resnet18 macs = {r} G");
    }
}
