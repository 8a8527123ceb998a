//! Declarative scenario grids and their expansion into scenarios.

use std::path::Path;

use serde::{Deserialize, Serialize, Sink};

use pimsim_arch::ArchConfig;
#[cfg(test)]
use pimsim_arch::RoutingPolicy;
use pimsim_compiler::MappingPolicy;
use pimsim_nn::{zoo, Network};

use crate::knob::ARCH_KNOBS;
use crate::SweepError;

/// Parses a mapping-policy name as used in configuration files and on the
/// command line.
///
/// # Errors
///
/// Returns [`SweepError::UnknownMapping`] for anything but
/// `performance-first` / `utilization-first`.
pub fn parse_mapping(name: &str) -> Result<MappingPolicy, SweepError> {
    match name {
        "performance-first" => Ok(MappingPolicy::PerformanceFirst),
        "utilization-first" => Ok(MappingPolicy::UtilizationFirst),
        other => Err(SweepError::UnknownMapping(other.to_string())),
    }
}

/// The default input resolution for a zoo network: CIFAR-scale for the
/// VGGs, 64×64 otherwise. The single source of this convention — the CLI
/// and the grid expansion both use it.
pub fn default_resolution(network: &str) -> u32 {
    if network.starts_with("vgg") {
        32
    } else {
        64
    }
}

/// Builds zoo network `name` at `resolution`: the one check that a grid
/// point's network exists and can be built at its resolution.
///
/// # Errors
///
/// Returns [`SweepError::UnknownNetwork`] for a name not in the zoo and
/// [`SweepError::BadResolution`] for a resolution the network cannot be
/// built at.
pub(crate) fn zoo_network(name: &str, resolution: u32) -> Result<Network, SweepError> {
    let net = zoo::by_name(name, resolution)
        .ok_or_else(|| SweepError::UnknownNetwork(name.to_string()))?;
    net.validate().map_err(|_| SweepError::BadResolution {
        network: name.to_string(),
        resolution,
    })?;
    Ok(net)
}

/// One fully resolved grid point: everything needed to compile and
/// simulate, self-contained (the architecture already has all knobs
/// applied).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Zoo network name.
    pub network: String,
    /// Input resolution (height = width).
    pub resolution: u32,
    /// Mapping policy for the compiler.
    pub mapping: MappingPolicy,
    /// Back-to-back inferences compiled together.
    pub batch: u32,
    /// Optional human label (used by campaign front ends); empty means
    /// "derive one from the fields".
    pub label: String,
    /// The complete architecture for this point.
    pub arch: ArchConfig,
}

impl Scenario {
    /// A scenario (every scenario runs on the cycle-accurate simulator).
    pub fn cycle(
        network: impl Into<String>,
        resolution: u32,
        mapping: MappingPolicy,
        batch: u32,
        arch: ArchConfig,
    ) -> Scenario {
        Scenario {
            network: network.into(),
            resolution,
            mapping,
            batch,
            label: String::new(),
            arch,
        }
    }

    /// Returns the scenario tagged with a human-readable label.
    pub fn with_label(mut self, label: impl Into<String>) -> Scenario {
        self.label = label.into();
        self
    }

    /// The label to display: the explicit one, or a derived
    /// `network/res mapping xN rob=R cycle` summary with every knob
    /// [`ARCH_KNOBS`] labels (the routing policy, virtual-channel count
    /// and router pipeline depth only when they differ from the paper
    /// chip's).
    pub fn display_label(&self) -> String {
        if !self.label.is_empty() {
            return self.label.clone();
        }
        let knobs: String = ARCH_KNOBS
            .iter()
            .filter(|knob| knob.shows(knob.label.1, &self.arch))
            .map(|knob| format!(" {}{}", knob.label.0, (knob.get)(&self.arch)))
            .collect();
        format!(
            "{}/{} {} x{}{knobs} cycle",
            self.network, self.resolution, self.mapping, self.batch
        )
    }
}

// Scenarios are serialized as a knob summary (not the full architecture)
// so campaign outputs stay readable; the grid's `base` is the place a
// custom full configuration lives. `"simulator": "cycle"` names the model
// every row comes from, as `pimsim run --json`'s `simulator` field does.
impl Serialize for Scenario {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_map();
        sink.field("network", &self.network);
        sink.field("resolution", &self.resolution);
        sink.field("mapping", &self.mapping.to_string());
        sink.field("batch", &self.batch);
        sink.field("simulator", "cycle");
        sink.field("label", &self.label);
        for knob in ARCH_KNOBS {
            let (key, when) = knob.json;
            if knob.shows(when, &self.arch) {
                sink.field(key, &(knob.get)(&self.arch));
            }
        }
        sink.end_map();
    }
}

/// A declarative campaign: the cartesian product of every non-empty axis.
///
/// Empty axes inherit a single value from `base` (or the paper chip when
/// `base` is absent); `resolutions` left empty uses each network's
/// conventional resolution. Unknown fields in a configuration file are
/// rejected.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepGrid {
    /// Zoo networks to sweep (required, at least one).
    #[serde(default)]
    pub networks: Vec<String>,
    /// Input resolutions; empty = each network's default.
    #[serde(default)]
    pub resolutions: Vec<u32>,
    /// Mapping policies (`performance-first` / `utilization-first`);
    /// empty = performance-first.
    #[serde(default)]
    pub mappings: Vec<String>,
    /// Batch sizes; empty = 1.
    #[serde(default)]
    pub batches: Vec<u32>,
    /// Re-order buffer depths; empty = the base architecture's.
    #[serde(default)]
    pub rob_sizes: Vec<u32>,
    /// ADCs per crossbar; empty = the base architecture's.
    #[serde(default)]
    pub adcs_per_xbar: Vec<u32>,
    /// Vector SIMD lane counts; empty = the base architecture's.
    #[serde(default)]
    pub vector_lanes: Vec<u32>,
    /// NoC flit widths in bytes; empty = the base architecture's.
    #[serde(default)]
    pub flit_bytes: Vec<u32>,
    /// NoC routing policies (`xy` / `yx` / `xy-yx` / `adaptive`); empty =
    /// the base architecture's.
    #[serde(default)]
    pub routings: Vec<String>,
    /// Virtual channels per rendezvous channel; empty = the base
    /// architecture's.
    #[serde(default)]
    pub vcs: Vec<u32>,
    /// Router pipeline depths (stages per hop); empty = the base
    /// architecture's.
    #[serde(default)]
    pub router_depths: Vec<u32>,
    /// Structure-hazard settings (ablation axis); empty = the base
    /// architecture's.
    #[serde(default)]
    pub structure_hazard: Vec<bool>,
    /// Base architecture every knob is applied to; absent = the paper
    /// chip.
    #[serde(default)]
    pub base: Option<ArchConfig>,
}

impl SweepGrid {
    /// A grid over `networks` with every other axis inherited.
    pub fn over_networks<S: Into<String>>(networks: impl IntoIterator<Item = S>) -> SweepGrid {
        SweepGrid {
            networks: networks.into_iter().map(Into::into).collect(),
            ..SweepGrid::default()
        }
    }

    /// Parses a grid from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Config`] on malformed JSON or unknown fields.
    pub fn from_json(text: &str) -> Result<SweepGrid, SweepError> {
        serde_json::from_str(text).map_err(|e| SweepError::Config(e.to_string()))
    }

    /// Loads a grid configuration file.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Config`] when the file cannot be read or
    /// parsed.
    pub fn from_file(path: impl AsRef<Path>) -> Result<SweepGrid, SweepError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SweepError::Config(format!("{}: {e}", path.display())))?;
        SweepGrid::from_json(&text)
    }

    /// Serializes the grid to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("grid serialization cannot fail")
    }

    /// The base architecture the knob axes are applied to.
    pub fn base_arch(&self) -> ArchConfig {
        self.base.clone().unwrap_or_else(ArchConfig::paper_default)
    }

    /// Number of grid points: the length of [`SweepGrid::scenarios`]
    /// when it expands.
    pub fn points(&self) -> usize {
        let knobs: usize = ARCH_KNOBS
            .iter()
            .map(|knob| (knob.axis)(self).map_or(1, |axis| axis.len().max(1)))
            .product();
        let others = [
            self.networks.len(),
            self.resolutions.len(),
            self.mappings.len(),
            self.batches.len(),
        ];
        knobs * others.iter().map(|&len| len.max(1)).product::<usize>()
    }

    /// Expands the cartesian product into concrete scenarios, in a fixed
    /// axis order (networks outermost, then resolution, mapping, batch,
    /// then the [`ARCH_KNOBS`] in table order).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::EmptyGrid`] when no networks are given,
    /// [`SweepError::UnknownNetwork`] / [`SweepError::UnknownMapping`] /
    /// [`SweepError::UnknownRouting`] for bad axis values,
    /// [`SweepError::BadResolution`] for a network that cannot be built at
    /// a resolution, and [`SweepError::Arch`] when the
    /// base configuration is invalid.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, SweepError> {
        if self.networks.is_empty() {
            return Err(SweepError::EmptyGrid);
        }
        let base = self.base_arch();
        base.validate()?;
        let mappings = self
            .mappings
            .iter()
            .map(|m| parse_mapping(m))
            .collect::<Result<Vec<_>, _>>()?;
        let mappings = non_empty(&mappings, MappingPolicy::PerformanceFirst);
        let batches = non_empty(&self.batches, 1);
        let knobs = ARCH_KNOBS
            .iter()
            .map(|knob| Ok(non_empty(&(knob.axis)(self)?, (knob.get)(&base))))
            .collect::<Result<Vec<_>, SweepError>>()?;
        let mut inputs = Vec::new();
        for network in &self.networks {
            for resolution in non_empty(&self.resolutions, default_resolution(network)) {
                // Probe each (network, resolution) pair up front, so an
                // unknown name or a degenerate resolution is one expansion
                // error, not one per point.
                zoo_network(network, resolution)?;
                inputs.push((network, resolution));
            }
        }

        // One odometer over every axis, the last turning fastest: input,
        // mapping, batch, the knobs in table order.
        let heads = [inputs.len(), mappings.len(), batches.len()];
        let radices = heads.into_iter().chain(knobs.iter().map(Vec::len));
        let mut out = Vec::with_capacity(self.points());
        for digits in odometer(radices.collect()) {
            let (network, resolution) = inputs[digits[0]];
            let (mapping, batch) = (mappings[digits[1]], batches[digits[2]]);
            let mut arch = base.clone();
            for ((knob, axis), &d) in ARCH_KNOBS.iter().zip(&knobs).zip(&digits[3..]) {
                (knob.set)(&mut arch, axis[d]);
            }
            out.push(Scenario::cycle(
                network.clone(),
                resolution,
                mapping,
                batch.max(1),
                arch,
            ));
        }
        Ok(out)
    }
}

fn non_empty<T: Copy>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis.to_vec()
    }
}

/// Every digit tuple of a mixed-radix counter with these (non-zero)
/// radices, from all zeros up, the last digit turning fastest.
fn odometer(radices: Vec<usize>) -> impl Iterator<Item = Vec<usize>> {
    std::iter::successors(Some(vec![0; radices.len()]), move |digits| {
        let turning = (0..radices.len())
            .rev()
            .find(|&d| digits[d] + 1 < radices[d])?;
        let mut next = digits.clone();
        next[turning] += 1;
        next[turning + 1..].fill(0);
        Some(next)
    })
}

// The expansion, label and scenario JSON as they were before the knob
// table, one `for` per axis and each knob spelled out: the oracle the
// table-driven code is checked against.
#[cfg(test)]
impl SweepGrid {
    fn nested_points(&self) -> usize {
        fn axis(len: usize) -> usize {
            len.max(1)
        }
        axis(self.networks.len())
            * axis(self.resolutions.len())
            * axis(self.mappings.len())
            * axis(self.batches.len())
            * axis(self.rob_sizes.len())
            * axis(self.adcs_per_xbar.len())
            * axis(self.vector_lanes.len())
            * axis(self.flit_bytes.len())
            * axis(self.routings.len())
            * axis(self.vcs.len())
            * axis(self.router_depths.len())
            * axis(self.structure_hazard.len())
    }

    fn nested_scenarios(&self) -> Result<Vec<Scenario>, SweepError> {
        if self.networks.is_empty() {
            return Err(SweepError::EmptyGrid);
        }
        let base = self.base_arch();
        base.validate()?;
        let mappings = if self.mappings.is_empty() {
            vec![MappingPolicy::PerformanceFirst]
        } else {
            self.mappings
                .iter()
                .map(|m| parse_mapping(m))
                .collect::<Result<Vec<_>, _>>()?
        };
        let batches = non_empty(&self.batches, 1);
        let robs = non_empty(&self.rob_sizes, base.resources.rob_size);
        let adcs = non_empty(&self.adcs_per_xbar, base.resources.adcs_per_xbar);
        let lanes = non_empty(&self.vector_lanes, base.resources.vector_lanes);
        let flits = non_empty(&self.flit_bytes, base.noc.flit_bytes);
        let routings = if self.routings.is_empty() {
            vec![base.noc.routing]
        } else {
            self.routings
                .iter()
                .map(|r| parse_routing(r))
                .collect::<Result<Vec<_>, _>>()?
        };
        let vc_counts = non_empty(&self.vcs, base.noc.virtual_channels);
        let depths = non_empty(&self.router_depths, base.noc.router_pipeline_depth);
        let hazards = non_empty(&self.structure_hazard, base.sim.structure_hazard);

        let mut out = Vec::with_capacity(self.nested_points());
        for network in &self.networks {
            let resolutions = non_empty(&self.resolutions, default_resolution(network));
            for &resolution in &resolutions {
                zoo_network(network, resolution)?;
                for &mapping in &mappings {
                    for &batch in &batches {
                        for &rob in &robs {
                            for &adc in &adcs {
                                for &lane in &lanes {
                                    for &flit in &flits {
                                        for &routing in &routings {
                                            for &vc in &vc_counts {
                                                for &depth in &depths {
                                                    for &hazard in &hazards {
                                                        let mut arch = base.clone();
                                                        arch.resources.rob_size = rob;
                                                        arch.resources.adcs_per_xbar = adc;
                                                        arch.resources.vector_lanes = lane;
                                                        arch.noc.flit_bytes = flit;
                                                        arch.noc.routing = routing;
                                                        arch.noc.virtual_channels = vc;
                                                        arch.noc.router_pipeline_depth = depth;
                                                        arch.sim.structure_hazard = hazard;
                                                        out.push(Scenario {
                                                            network: network.clone(),
                                                            resolution,
                                                            mapping,
                                                            batch: batch.max(1),
                                                            label: String::new(),
                                                            arch,
                                                        });
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
fn parse_routing(name: &str) -> Result<RoutingPolicy, SweepError> {
    name.parse()
        .map_err(|_| SweepError::UnknownRouting(name.to_string()))
}

#[cfg(test)]
impl Scenario {
    fn nested_label(&self) -> String {
        if !self.label.is_empty() {
            return self.label.clone();
        }
        let routing = if self.arch.noc.routing == RoutingPolicy::default() {
            String::new()
        } else {
            format!(" {}", self.arch.noc.routing)
        };
        let vcs = if self.arch.noc.virtual_channels == 1 {
            String::new()
        } else {
            format!(" vc={}", self.arch.noc.virtual_channels)
        };
        let depth = if self.arch.noc.router_pipeline_depth == 1 {
            String::new()
        } else {
            format!(" depth={}", self.arch.noc.router_pipeline_depth)
        };
        format!(
            "{}/{} {} x{} rob={}{routing}{vcs}{depth} cycle",
            self.network, self.resolution, self.mapping, self.batch, self.arch.resources.rob_size,
        )
    }
}

#[cfg(test)]
struct NestedJson<'a>(&'a Scenario);

#[cfg(test)]
impl Serialize for NestedJson<'_> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let NestedJson(this) = self;
        sink.begin_map();
        sink.field("network", &this.network);
        sink.field("resolution", &this.resolution);
        sink.field("mapping", &this.mapping.to_string());
        sink.field("batch", &this.batch);
        sink.field("simulator", "cycle");
        sink.field("label", &this.label);
        let r = &this.arch.resources;
        sink.field("rob_size", &r.rob_size);
        sink.field("adcs_per_xbar", &r.adcs_per_xbar);
        sink.field("vector_lanes", &r.vector_lanes);
        sink.field("flit_bytes", &this.arch.noc.flit_bytes);
        // The router-model knobs are serialized only when swept away from
        // their paper defaults, so campaign outputs from before the knobs
        // existed stay byte-identical.
        if this.arch.noc.routing != RoutingPolicy::default() {
            sink.field("routing", &this.arch.noc.routing.to_string());
        }
        if this.arch.noc.virtual_channels != 1 {
            sink.field("virtual_channels", &this.arch.noc.virtual_channels);
        }
        if this.arch.noc.router_pipeline_depth != 1 {
            sink.field(
                "router_pipeline_depth",
                &this.arch.noc.router_pipeline_depth,
            );
        }
        sink.field("structure_hazard", &this.arch.sim.structure_hazard);
        sink.end_map();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Number, Value};

    #[test]
    fn expansion_counts_and_order() {
        let mut grid = SweepGrid::over_networks(["tiny_mlp", "tiny_cnn"]);
        grid.base = Some(ArchConfig::small_test());
        grid.rob_sizes = vec![1, 4];
        grid.mappings = vec![
            "utilization-first".to_string(),
            "performance-first".to_string(),
        ];
        assert_eq!(grid.points(), 8);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 8);
        // Networks outermost, ROB innermost.
        assert_eq!(scenarios[0].network, "tiny_mlp");
        assert_eq!(scenarios[0].mapping, MappingPolicy::UtilizationFirst);
        assert_eq!(scenarios[0].arch.resources.rob_size, 1);
        assert_eq!(scenarios[1].arch.resources.rob_size, 4);
        assert_eq!(scenarios[2].mapping, MappingPolicy::PerformanceFirst);
        assert_eq!(scenarios[4].network, "tiny_cnn");
    }

    #[test]
    fn empty_axes_inherit_from_base() {
        let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
        grid.base = Some(ArchConfig::small_test());
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 1);
        let s = &scenarios[0];
        assert_eq!(s.arch, ArchConfig::small_test());
        assert_eq!(s.batch, 1);
        assert!(s.display_label().ends_with(" cycle"));
        assert_eq!(s.resolution, 64);
        assert_eq!(default_resolution("vgg8"), 32);
    }

    #[test]
    fn routing_axis_expands() {
        let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
        grid.base = Some(ArchConfig::small_test());
        grid.routings = vec!["xy".into(), "yx".into(), "xy-yx".into()];
        assert_eq!(grid.points(), 3);
        let scenarios = grid.scenarios().unwrap();
        let routings: Vec<_> = scenarios.iter().map(|s| s.arch.noc.routing).collect();
        assert_eq!(
            routings,
            vec![
                RoutingPolicy::Xy,
                RoutingPolicy::Yx,
                RoutingPolicy::XyYxAlternate
            ]
        );
        // Labels and serialization surface the knob only when non-default.
        assert!(!scenarios[0].display_label().contains("xy"));
        assert!(scenarios[1].display_label().contains(" yx "));
        assert_eq!(scenarios[0].to_value().get("routing"), None);
        assert_eq!(
            scenarios[2].to_value()["routing"],
            Value::String("xy-yx".into())
        );
    }

    #[test]
    fn router_model_axes_expand() {
        let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
        grid.base = Some(ArchConfig::small_test());
        grid.vcs = vec![1, 2];
        grid.router_depths = vec![1, 3];
        assert_eq!(grid.points(), 4);
        let scenarios = grid.scenarios().unwrap();
        let knobs: Vec<_> = scenarios
            .iter()
            .map(|s| {
                (
                    s.arch.noc.virtual_channels,
                    s.arch.noc.router_pipeline_depth,
                )
            })
            .collect();
        assert_eq!(knobs, vec![(1, 1), (1, 3), (2, 1), (2, 3)]);
        // Labels and serialization surface the knobs only when
        // non-default, so pre-knob campaign output stays byte-identical.
        assert!(!scenarios[0].display_label().contains("vc="));
        assert!(!scenarios[0].display_label().contains("depth="));
        assert!(scenarios[3].display_label().contains(" vc=2 depth=3 "));
        assert_eq!(scenarios[0].to_value().get("virtual_channels"), None);
        assert_eq!(scenarios[0].to_value().get("router_pipeline_depth"), None);
        assert_eq!(
            scenarios[2].to_value()["virtual_channels"],
            Value::Number(Number::from_u64(2))
        );
        assert_eq!(
            scenarios[1].to_value()["router_pipeline_depth"],
            Value::Number(Number::from_u64(3))
        );
    }

    #[test]
    fn unknown_engine_is_rejected() {
        // There is one run loop and one simulator per point, and serving
        // is `pimsim serve`'s alone: a grid still naming an `engines` or
        // `simulators` axis or a serving key is refused with the field's
        // location, not silently ignored.
        for (key, value) in [
            ("engines", "[\"event\"]"),
            ("simulators", "[\"cycle\"]"),
            ("arrival_rates", "[50000]"),
            ("batch_policies", "[\"4/50us\"]"),
            ("serve_duration", "\"1ms\""),
            ("serve_seed", "7"),
        ] {
            let text = format!("{{\"networks\": [\"vgg8\"],\n \"{key}\": {value}}}");
            let err = SweepGrid::from_json(&text).unwrap_err();
            assert!(matches!(err, SweepError::Config(_)), "{key}");
            let text = err.to_string();
            assert!(text.contains(&format!("unknown field `{key}`")), "{text}");
            assert!(text.contains("at line 2 column"), "{text}");
        }
    }

    #[test]
    fn unknown_routing_is_rejected() {
        let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
        grid.routings = vec!["zigzag".into()];
        assert!(matches!(
            grid.scenarios().unwrap_err(),
            SweepError::UnknownRouting(_)
        ));
    }

    #[test]
    fn bad_axis_values_are_rejected() {
        assert_eq!(
            SweepGrid::default().scenarios().unwrap_err(),
            SweepError::EmptyGrid
        );
        let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
        grid.mappings = vec!["speed-first".into()];
        assert!(matches!(
            grid.scenarios().unwrap_err(),
            SweepError::UnknownMapping(_)
        ));
        let grid = SweepGrid::over_networks(["nonexistent_net"]);
        assert!(matches!(
            grid.scenarios().unwrap_err(),
            SweepError::UnknownNetwork(_)
        ));
    }

    #[test]
    fn grid_json_roundtrip_and_unknown_fields() {
        let mut grid = SweepGrid::over_networks(["vgg8"]);
        grid.rob_sizes = vec![1, 8];
        let text = grid.to_json();
        assert_eq!(SweepGrid::from_json(&text).unwrap(), grid);
        assert!(SweepGrid::from_json(r#"{"netwroks": ["vgg8"]}"#).is_err());
        // Missing axes default to empty.
        let sparse = SweepGrid::from_json(r#"{"networks": ["vgg8"]}"#).unwrap();
        assert!(sparse.rob_sizes.is_empty());
        assert!(sparse.base.is_none());
    }

    #[test]
    fn scenario_labels_and_serialization() {
        let s = Scenario::cycle(
            "vgg8",
            32,
            MappingPolicy::PerformanceFirst,
            2,
            ArchConfig::paper_default(),
        );
        assert_eq!(
            s.display_label(),
            "vgg8/32 performance-first x2 rob=8 cycle"
        );
        assert_eq!(s.clone().with_label("custom").display_label(), "custom");
        let v = s.to_value();
        assert_eq!(v["mapping"], Value::String("performance-first".into()));
        assert_eq!(v["simulator"], Value::String("cycle".into()));
        assert_eq!(v["rob_size"], Value::Number(Number::from_u64(8)));
        assert_eq!(v["structure_hazard"], Value::Bool(true));
    }

    /// Picks `0..=3` values for an axis from `pool`, repeats allowed.
    fn pick<T: Clone + std::fmt::Debug + 'static>(
        pool: &'static [T],
    ) -> impl proptest::strategy::Strategy<Value = Vec<T>> {
        use proptest::strategy::Strategy;
        proptest::collection::vec(0..pool.len(), 0..=3usize)
            .prop_map(move |ix| ix.into_iter().map(|i| pool[i].clone()).collect())
    }

    const NAMES: &[&str] = &["tiny_mlp", "tiny_cnn"];
    const MAPPINGS: &[&str] = &["performance-first", "utilization-first"];
    const ROUTINGS: &[&str] = &["xy", "yx", "xy-yx", "adaptive"];

    fn strings(names: Vec<&str>) -> Vec<String> {
        names.into_iter().map(str::to_string).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The odometer expands every grid — each axis with 0–3 values,
        /// repeats included — into the oracle's scenarios, labels and JSON
        /// bytes, and `points()` counts them exactly.
        #[test]
        fn odometer_matches_the_nested_loops(
            program in (pick(NAMES), pick(&[32u32, 64]), pick(MAPPINGS), pick(&[0u32, 1, 2])),
            small_base in proptest::strategy::any::<bool>(),
            knobs in (
                pick(&[1u32, 4, 8]),
                pick(&[1u32, 2]),
                pick(&[8u32, 32]),
                pick(&[16u32, 32]),
                pick(ROUTINGS),
                pick(&[1u32, 2, 4]),
                pick(&[1u32, 3]),
                pick(&[true, false]),
            ),
        ) {
            let grid = SweepGrid {
                networks: strings(program.0),
                resolutions: program.1,
                mappings: strings(program.2),
                batches: program.3,
                rob_sizes: knobs.0,
                adcs_per_xbar: knobs.1,
                vector_lanes: knobs.2,
                flit_bytes: knobs.3,
                routings: strings(knobs.4),
                vcs: knobs.5,
                router_depths: knobs.6,
                structure_hazard: knobs.7,
                base: small_base.then(ArchConfig::small_test),
            };
            proptest::prop_assert_eq!(grid.points(), grid.nested_points());
            let ours = grid.scenarios();
            proptest::prop_assert_eq!(&ours, &grid.nested_scenarios());
            if let Ok(scenarios) = &ours {
                proptest::prop_assert_eq!(grid.points(), scenarios.len());
            }
            for s in ours.iter().flatten() {
                proptest::prop_assert_eq!(s.display_label(), s.nested_label());
                proptest::prop_assert_eq!(
                    serde_json::to_string(s).unwrap(),
                    serde_json::to_string(&NestedJson(s)).unwrap()
                );
            }
        }
    }
}
