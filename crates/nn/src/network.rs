//! The network DAG and its builder.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::layer::Layer;
use crate::shape::Shape;

/// Errors produced by network construction, validation or I/O.
#[derive(Debug)]
pub enum NnError {
    /// Shape inference failed.
    Shape(String),
    /// The graph is malformed (dangling reference, cycle, bad arity...).
    Graph(String),
    /// The network description file could not be parsed.
    Parse(String),
    /// File I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Shape(m) => write!(f, "shape error: {m}"),
            NnError::Graph(m) => write!(f, "graph error: {m}"),
            NnError::Parse(m) => write!(f, "network parse error: {m}"),
            NnError::Io(e) => write!(f, "network i/o error: {e}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NnError {
    fn from(e: std::io::Error) -> Self {
        NnError::Io(e)
    }
}

/// Identifies a node (layer instance) within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a usize.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Where a node's input comes from: the network input or another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortRef {
    /// The network's input feature map.
    Input,
    /// The output of another node.
    Node(NodeId),
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortRef::Input => write!(f, "input"),
            PortRef::Node(id) => write!(f, "{id}"),
        }
    }
}

/// One layer instance in the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Stable identifier (equals the node's index).
    pub id: NodeId,
    /// Human-readable name (e.g. `conv1`, `fire2/expand3x3`).
    pub name: String,
    /// The operator.
    pub layer: Layer,
    /// Producers of this node's inputs, in order.
    pub inputs: Vec<PortRef>,
}

/// A DAG of layers with a single input feature map. Nodes are stored in
/// topological order (enforced by construction: a node may only reference
/// earlier nodes).
///
/// The on-disk representation is JSON, this reproduction's stand-in for the
/// paper's ONNX input (the crate docs list the operators it covers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    /// Network name (used to seed synthetic weights).
    pub name: String,
    /// Input feature-map shape.
    pub input_shape: Shape,
    /// Layers in topological order.
    pub nodes: Vec<Node>,
}

impl Network {
    /// Starts building a network.
    pub fn builder(name: impl Into<String>, input_shape: Shape) -> NetworkBuilder {
        NetworkBuilder {
            net: Network {
                name: name.into(),
                input_shape,
                nodes: Vec::new(),
            },
        }
    }

    /// The node table entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.as_usize()]
    }

    /// Nodes whose output nobody consumes (the network outputs).
    pub fn output_nodes(&self) -> Vec<NodeId> {
        let mut consumed = BTreeSet::new();
        for n in &self.nodes {
            for i in &n.inputs {
                if let PortRef::Node(id) = i {
                    consumed.insert(*id);
                }
            }
        }
        self.nodes
            .iter()
            .map(|n| n.id)
            .filter(|id| !consumed.contains(id))
            .collect()
    }

    /// Validates graph structure and shape-checks every node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] or [`NnError::Shape`] describing the first
    /// problem.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.input_shape.checked_elems() == Some(0) {
            return Err(NnError::Shape(format!(
                "network input: shape {} has zero elements",
                self.input_shape
            )));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.as_usize() != i {
                return Err(NnError::Graph(format!(
                    "node {} has id {}, expected {}",
                    n.name, n.id, i
                )));
            }
            if !n.layer.arity().accepts(n.inputs.len()) {
                return Err(NnError::Graph(format!(
                    "node {} ({}) has {} inputs",
                    n.name,
                    n.layer.kind_name(),
                    n.inputs.len()
                )));
            }
            for p in &n.inputs {
                if let PortRef::Node(id) = p {
                    if id.as_usize() >= i {
                        return Err(NnError::Graph(format!(
                            "node {} references {} which is not earlier in topological order",
                            n.name, id
                        )));
                    }
                }
            }
        }
        let outs = self.output_nodes();
        if self.nodes.is_empty() {
            return Err(NnError::Graph("network has no layers".into()));
        }
        if outs.len() != 1 {
            return Err(NnError::Graph(format!(
                "network must have exactly one output node, found {}",
                outs.len()
            )));
        }
        self.inferred_shapes().map(|_| ())
    }

    /// The single output node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Graph`] if the network does not have exactly one.
    pub fn output_node(&self) -> Result<NodeId, NnError> {
        let outs = self.output_nodes();
        match outs.as_slice() {
            [one] => Ok(*one),
            _ => Err(NnError::Graph(format!(
                "network must have exactly one output node, found {}",
                outs.len()
            ))),
        }
    }

    /// Runs shape inference, returning the output shape of every node in
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on the first incompatibility, or on the
    /// first shape (the input's included) whose element count does not
    /// fit `u32`.
    pub fn inferred_shapes(&self) -> Result<Vec<Shape>, NnError> {
        fits_u32(self.input_shape, || "network input".into())?;
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let input_shapes: Vec<Shape> = n
                .inputs
                .iter()
                .map(|p| match p {
                    PortRef::Input => self.input_shape,
                    PortRef::Node(id) => shapes[id.as_usize()],
                })
                .collect();
            let out = n
                .layer
                .infer_shape(&input_shapes)
                .map_err(|e| NnError::Shape(format!("node {}: {e}", n.name)))?;
            fits_u32(out, || format!("node {}", n.name))?;
            shapes.push(out);
        }
        Ok(shapes)
    }

    /// Total multiply-accumulate operations for one inference.
    pub fn total_macs(&self) -> u64 {
        let Ok(shapes) = self.inferred_shapes() else {
            return 0;
        };
        self.nodes
            .iter()
            .map(|n| {
                let ins: Vec<Shape> = n
                    .inputs
                    .iter()
                    .map(|p| match p {
                        PortRef::Input => self.input_shape,
                        PortRef::Node(id) => shapes[id.as_usize()],
                    })
                    .collect();
                n.layer.macs(&ins)
            })
            .sum()
    }

    /// Serializes to pretty JSON (the on-disk network description format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("network serialization cannot fail")
    }

    /// Parses a network description from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Parse`] on malformed JSON.
    pub fn from_json(text: &str) -> Result<Network, NnError> {
        serde_json::from_str(text).map_err(|e| NnError::Parse(e.to_string()))
    }

    /// Loads a network description file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] / [`NnError::Parse`].
    pub fn from_file(path: impl AsRef<Path>) -> Result<Network, NnError> {
        Network::from_json(&std::fs::read_to_string(path)?)
    }

    /// Writes the network description to a file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] if the file cannot be written.
    pub fn to_file(&self, path: impl AsRef<Path>) -> Result<(), NnError> {
        Ok(std::fs::write(path, self.to_json())?)
    }
}

/// Rejects a shape whose element count overflows the `u32` that buffer
/// sizes and addresses are computed in.
fn fits_u32(s: Shape, what: impl FnOnce() -> String) -> Result<(), NnError> {
    match s.checked_elems() {
        Some(_) => Ok(()),
        None => Err(NnError::Shape(format!(
            "{}: shape {s} has more than {} elements",
            what(),
            u32::MAX
        ))),
    }
}

/// Incremental [`Network`] constructor. Each `add` returns the new node's
/// [`PortRef`] so graphs read like dataflow:
///
/// ```rust
/// use pimsim_nn::{Activation, Layer, Network, PortRef, Shape};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Network::builder("demo", Shape::new(8, 8, 3));
/// let conv = b.add("conv1", Layer::Conv2d {
///     out_channels: 16, kernel: 3, stride: 1, padding: 1,
///     activation: Some(Activation::Relu),
/// }, vec![PortRef::Input]);
/// let pool = b.add("pool1", Layer::MaxPool2d { kernel: 2, stride: 2, padding: 0 }, vec![conv]);
/// let flat = b.add("flatten", Layer::Flatten, vec![pool]);
/// b.add("fc", Layer::Linear { out_features: 10, activation: None }, vec![flat]);
/// let net = b.finish()?;
/// assert_eq!(net.nodes.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    net: Network,
}

impl NetworkBuilder {
    /// Appends a layer consuming `inputs`; returns a reference to its
    /// output for wiring into later layers.
    pub fn add(&mut self, name: impl Into<String>, layer: Layer, inputs: Vec<PortRef>) -> PortRef {
        let id = NodeId(self.net.nodes.len() as u32);
        self.net.nodes.push(Node {
            id,
            name: name.into(),
            layer,
            inputs,
        });
        PortRef::Node(id)
    }

    /// Validates and returns the finished network.
    ///
    /// # Errors
    ///
    /// Propagates [`Network::validate`] errors.
    pub fn finish(self) -> Result<Network, NnError> {
        self.net.validate()?;
        Ok(self.net)
    }

    /// Returns the network without validating it: the zoo's graphs are
    /// fixed, and only the input resolution a caller picks can make their
    /// shapes invalid, which [`Network::validate`] then reports.
    pub(crate) fn finish_unvalidated(self) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;

    fn tiny() -> Network {
        let mut b = Network::builder("t", Shape::new(4, 4, 2));
        let c = b.add(
            "conv",
            Layer::Conv2d {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                padding: 1,
                activation: Some(Activation::Relu),
            },
            vec![PortRef::Input],
        );
        let f = b.add("flat", Layer::Flatten, vec![c]);
        b.add(
            "fc",
            Layer::Linear {
                out_features: 3,
                activation: None,
            },
            vec![f],
        );
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_valid_network() {
        let net = tiny();
        assert_eq!(net.nodes.len(), 3);
        assert_eq!(net.output_node().unwrap(), NodeId(2));
        let shapes = net.inferred_shapes().unwrap();
        assert_eq!(shapes[0], Shape::new(4, 4, 4));
        assert_eq!(shapes[2], Shape::flat(3));
    }

    #[test]
    fn forward_reference_rejected() {
        let mut net = tiny();
        net.nodes[0].inputs = vec![PortRef::Node(NodeId(2))];
        assert!(matches!(net.validate(), Err(NnError::Graph(_))));
    }

    #[test]
    fn multiple_outputs_rejected() {
        let mut b = Network::builder("two-heads", Shape::new(4, 4, 2));
        b.add("a", Layer::Flatten, vec![PortRef::Input]);
        b.add("b", Layer::Flatten, vec![PortRef::Input]);
        assert!(b.finish().is_err());
    }

    #[test]
    fn empty_network_rejected() {
        let b = Network::builder("empty", Shape::new(4, 4, 2));
        assert!(b.finish().is_err());
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = Network::builder("bad-add", Shape::new(4, 4, 2));
        let f = b.add("f", Layer::Flatten, vec![PortRef::Input]);
        b.add("sum", Layer::Add { activation: None }, vec![f]);
        assert!(matches!(b.finish(), Err(NnError::Graph(_))));
    }

    #[test]
    fn macs_and_weight_layers() {
        let net = tiny();
        // conv: 16 px * 4 ch * 3*3*2 + fc: 64 * 3
        assert_eq!(net.total_macs(), 16 * 4 * 18 + 64 * 3);
    }

    #[test]
    fn json_roundtrip() {
        let net = tiny();
        let text = net.to_json();
        let back = Network::from_json(&text).unwrap();
        assert_eq!(back, net);
        assert!(Network::from_json("]").is_err());
    }

    #[test]
    fn residual_diamond_validates() {
        let mut b = Network::builder("res", Shape::new(8, 8, 16));
        let c1 = b.add(
            "c1",
            Layer::Conv2d {
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
                activation: Some(Activation::Relu),
            },
            vec![PortRef::Input],
        );
        let c2 = b.add(
            "c2",
            Layer::Conv2d {
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
                activation: None,
            },
            vec![c1],
        );
        let add = b.add(
            "add",
            Layer::Add {
                activation: Some(Activation::Relu),
            },
            vec![PortRef::Input, c2],
        );
        let f = b.add("flat", Layer::Flatten, vec![add]);
        b.add(
            "fc",
            Layer::Linear {
                out_features: 10,
                activation: None,
            },
            vec![f],
        );
        let net = b.finish().unwrap();
        assert_eq!(net.output_nodes().len(), 1);
    }
}
