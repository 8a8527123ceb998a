//! The architecture knobs, one table row each.
//!
//! A knob is an [`ArchConfig`] field a user sets for one command (`pimsim
//! run --rob 4`) or sweeps as a grid axis (`pimsim sweep --robs 1,4`).
//! [`ARCH_KNOBS`] is the one place that says how every consumer sees each
//! knob: the CLI's single-value option and sweep flag, the [`SweepGrid`]
//! field, grid expansion, the derived scenario label and the scenario
//! JSON. Adding a knob is one row here plus its `SweepGrid` field and its
//! usage and docs lines.

use std::fmt;

use serde::{Serialize, Sink};

use pimsim_arch::{ArchConfig, RoutingPolicy};

use crate::grid::SweepGrid;
use crate::SweepError;
use KnobValue::{Count, Routing, Switch};
use Shown::{Always, Never, NonDefault};

/// One value of a knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnobValue {
    /// A count: entries, converters, lanes, bytes, channels or stages.
    Count(u32),
    /// A NoC routing policy.
    Routing(RoutingPolicy),
    /// An on/off setting.
    Switch(bool),
}

// A row's `parse` and `get` produce the variant its `set` and `set_axis`
// read, so a mismatch is a bug in the table, not in the input.
impl KnobValue {
    fn count(self) -> u32 {
        match self {
            Count(n) => n,
            other => unreachable!("{other:?} is not a count"),
        }
    }

    fn routing(self) -> RoutingPolicy {
        match self {
            Routing(r) => r,
            other => unreachable!("{other:?} is not a routing policy"),
        }
    }

    fn switch(self) -> bool {
        match self {
            Switch(on) => on,
            other => unreachable!("{other:?} is not an on/off setting"),
        }
    }
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Count(n) => write!(f, "{n}"),
            Routing(r) => write!(f, "{r}"),
            Switch(on) => write!(f, "{on}"),
        }
    }
}

impl Serialize for KnobValue {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match *self {
            Count(n) => sink.u64(u64::from(n)),
            Routing(r) => sink.str(r.name()),
            Switch(on) => sink.bool(on),
        }
    }
}

/// When a knob appears in a derived scenario label or the scenario JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shown {
    /// Always.
    Always,
    /// Only away from the paper chip's value, so labels and campaign
    /// output from before the knob existed keep their bytes.
    NonDefault,
    /// Never (labels only).
    Never,
}

/// One architecture knob: plain data and `fn` pointers, read by the CLI,
/// the grid expansion, scenario labels and scenario JSON alike.
pub struct ArchKnob {
    /// The single-value option of the commands that take an architecture
    /// (`--rob 4`), if the knob has one.
    pub option: Option<&'static str>,
    /// The `sweep` axis flag (`--robs 1,4`).
    pub axis_flag: &'static str,
    /// The [`SweepGrid`] field, which is also its grid-file key.
    pub grid_key: &'static str,
    /// Parses one value as written on the command line; the error
    /// completes `--option ...`.
    pub parse: fn(&str) -> Result<KnobValue, String>,
    /// Reads the knob from an architecture.
    pub get: fn(&ArchConfig) -> KnobValue,
    /// Writes the knob into an architecture.
    pub set: fn(&mut ArchConfig, KnobValue),
    /// The grid axis' values; empty inherits the base architecture's.
    pub axis: fn(&SweepGrid) -> Result<Vec<KnobValue>, SweepError>,
    /// Replaces the grid axis.
    pub set_axis: fn(&mut SweepGrid, Vec<KnobValue>),
    /// The knob's prefix in a derived scenario label, and when it shows.
    pub label: (&'static str, Shown),
    /// The knob's scenario-JSON key, and when it is written.
    pub json: (&'static str, Shown),
}

impl ArchKnob {
    /// Whether the knob shows on `arch`, `when` it shows.
    pub fn shows(&self, when: Shown, arch: &ArchConfig) -> bool {
        match when {
            Always => true,
            NonDefault => (self.get)(arch) != (self.get)(&ArchConfig::paper_default()),
            Never => false,
        }
    }
}

fn count(text: &str) -> Result<KnobValue, String> {
    text.parse()
        .map(Count)
        .map_err(|_| format!("expects a number, got `{text}`"))
}

fn routing(text: &str) -> Result<KnobValue, String> {
    text.parse()
        .map(Routing)
        .map_err(|_| format!("expects xy, yx, xy-yx or adaptive, got `{text}`"))
}

fn switch(text: &str) -> Result<KnobValue, String> {
    match text {
        "on" | "true" | "1" => Ok(Switch(true)),
        "off" | "false" | "0" => Ok(Switch(false)),
        other => Err(format!("expects on/off, got `{other}`")),
    }
}

fn counts(axis: &[u32]) -> Result<Vec<KnobValue>, SweepError> {
    Ok(axis.iter().map(|&n| Count(n)).collect())
}

fn to_counts(values: Vec<KnobValue>) -> Vec<u32> {
    values.into_iter().map(KnobValue::count).collect()
}

/// Every architecture knob, in grid-expansion order (the last row varies
/// fastest), which is also label and JSON order.
pub const ARCH_KNOBS: &[ArchKnob] = &[
    ArchKnob {
        option: Some("rob"),
        axis_flag: "robs",
        grid_key: "rob_sizes",
        parse: count,
        get: |a| Count(a.resources.rob_size),
        set: |a, v| a.resources.rob_size = v.count(),
        axis: |g| counts(&g.rob_sizes),
        set_axis: |g, v| g.rob_sizes = to_counts(v),
        label: ("rob=", Always),
        json: ("rob_size", Always),
    },
    ArchKnob {
        option: None,
        axis_flag: "adcs",
        grid_key: "adcs_per_xbar",
        parse: count,
        get: |a| Count(a.resources.adcs_per_xbar),
        set: |a, v| a.resources.adcs_per_xbar = v.count(),
        axis: |g| counts(&g.adcs_per_xbar),
        set_axis: |g, v| g.adcs_per_xbar = to_counts(v),
        label: ("", Never),
        json: ("adcs_per_xbar", Always),
    },
    ArchKnob {
        option: None,
        axis_flag: "lanes",
        grid_key: "vector_lanes",
        parse: count,
        get: |a| Count(a.resources.vector_lanes),
        set: |a, v| a.resources.vector_lanes = v.count(),
        axis: |g| counts(&g.vector_lanes),
        set_axis: |g, v| g.vector_lanes = to_counts(v),
        label: ("", Never),
        json: ("vector_lanes", Always),
    },
    ArchKnob {
        option: None,
        axis_flag: "flits",
        grid_key: "flit_bytes",
        parse: count,
        get: |a| Count(a.noc.flit_bytes),
        set: |a, v| a.noc.flit_bytes = v.count(),
        axis: |g| counts(&g.flit_bytes),
        set_axis: |g, v| g.flit_bytes = to_counts(v),
        label: ("", Never),
        json: ("flit_bytes", Always),
    },
    ArchKnob {
        option: Some("routing"),
        axis_flag: "routings",
        grid_key: "routings",
        parse: routing,
        get: |a| Routing(a.noc.routing),
        set: |a, v| a.noc.routing = v.routing(),
        axis: |g| {
            g.routings
                .iter()
                .map(|r| {
                    r.parse()
                        .map(Routing)
                        .map_err(|_| SweepError::UnknownRouting(r.clone()))
                })
                .collect()
        },
        set_axis: |g, v| g.routings = v.iter().map(ToString::to_string).collect(),
        label: ("", NonDefault),
        json: ("routing", NonDefault),
    },
    ArchKnob {
        option: Some("vcs"),
        axis_flag: "vcs",
        grid_key: "vcs",
        parse: count,
        get: |a| Count(a.noc.virtual_channels),
        set: |a, v| a.noc.virtual_channels = v.count(),
        axis: |g| counts(&g.vcs),
        set_axis: |g, v| g.vcs = to_counts(v),
        label: ("vc=", NonDefault),
        json: ("virtual_channels", NonDefault),
    },
    ArchKnob {
        option: Some("router-depth"),
        axis_flag: "router-depths",
        grid_key: "router_depths",
        parse: count,
        get: |a| Count(a.noc.router_pipeline_depth),
        set: |a, v| a.noc.router_pipeline_depth = v.count(),
        axis: |g| counts(&g.router_depths),
        set_axis: |g, v| g.router_depths = to_counts(v),
        label: ("depth=", NonDefault),
        json: ("router_pipeline_depth", NonDefault),
    },
    ArchKnob {
        option: None,
        axis_flag: "hazards",
        grid_key: "structure_hazard",
        parse: switch,
        get: |a| Switch(a.sim.structure_hazard),
        set: |a, v| a.sim.structure_hazard = v.switch(),
        axis: |g| Ok(g.structure_hazard.iter().map(|&on| Switch(on)).collect()),
        set_axis: |g, v| g.structure_hazard = v.into_iter().map(KnobValue::switch).collect(),
        label: ("", Never),
        json: ("structure_hazard", Always),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid value of the same knob other than `value`.
    fn other(value: KnobValue) -> KnobValue {
        match value {
            KnobValue::Count(n) => KnobValue::Count(n * 2),
            KnobValue::Routing(RoutingPolicy::Yx) => KnobValue::Routing(RoutingPolicy::Xy),
            KnobValue::Routing(_) => KnobValue::Routing(RoutingPolicy::Yx),
            KnobValue::Switch(b) => KnobValue::Switch(!b),
        }
    }

    /// Each row is a grid-file field, parses what it prints, and a
    /// two-value axis on it alone expands to two scenarios that differ
    /// only in that knob, which the second one's JSON reports.
    #[test]
    fn every_knob_is_an_axis_of_its_own() {
        let base = ArchConfig::small_test();
        let fields = SweepGrid::default().to_value();
        for knob in ARCH_KNOBS {
            let key = knob.grid_key;
            assert!(
                fields.get(key).is_some(),
                "`{key}` is not a SweepGrid field"
            );
            let (first, second) = ((knob.get)(&base), other((knob.get)(&base)));
            assert_eq!((knob.parse)(&second.to_string()), Ok(second), "{key}");
            let mut grid = SweepGrid::over_networks(["tiny_mlp"]);
            grid.base = Some(base.clone());
            (knob.set_axis)(&mut grid, vec![first, second]);
            assert_eq!(grid.to_value()[key].as_array().map(Vec::len), Some(2));
            let scenarios = grid.scenarios().unwrap();
            assert_eq!(scenarios.len(), 2, "{key}");
            let mut expected = scenarios[0].clone();
            (knob.set)(&mut expected.arch, second);
            assert_eq!(scenarios[1], expected, "{key}");
            assert_eq!(scenarios[0].arch, base, "{key}");
            assert_eq!(
                scenarios[1].to_value().get(knob.json.0),
                Some(&second.to_value()),
                "{key}"
            );
        }
    }
}
