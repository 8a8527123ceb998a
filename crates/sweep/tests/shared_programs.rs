//! Sharing compiled programs across a campaign: no architecture knob
//! changes what the compiler emits, so `run_scenarios` compiles once per
//! distinct program, and its rows and errors equal a per-point
//! `Scenario::execute` of every scenario.

use pimsim_arch::{ArchConfig, RoutingPolicy};
use pimsim_compiler::{Compiler, MappingPolicy};
use pimsim_nn::zoo;
use pimsim_sweep::{
    default_resolution, results_to_json, run_scenarios, KnobValue, Scenario, SweepError, SweepGrid,
    SweepRow, ARCH_KNOBS,
};

const MAPPINGS: [MappingPolicy; 2] = [
    MappingPolicy::PerformanceFirst,
    MappingPolicy::UtilizationFirst,
];

/// A valid value of the same knob other than `value`.
fn other(value: KnobValue) -> KnobValue {
    match value {
        KnobValue::Count(n) => KnobValue::Count(n * 2),
        KnobValue::Routing(RoutingPolicy::Yx) => KnobValue::Routing(RoutingPolicy::Xy),
        KnobValue::Routing(_) => KnobValue::Routing(RoutingPolicy::Yx),
        KnobValue::Switch(b) => KnobValue::Switch(!b),
    }
}

/// A knob that changed codegen would make a shared program wrong for some
/// member of its group; this fails first.
#[test]
fn no_knob_changes_codegen() {
    let base = ArchConfig::paper_default();
    for name in ["tiny_mlp", "tiny_cnn", "lenet"] {
        let net = zoo::by_name(name, default_resolution(name)).expect("zoo network");
        for mapping in MAPPINGS {
            for batch in [1, 2] {
                let compile = |arch: &ArchConfig| {
                    let c = Compiler::new(arch)
                        .mapping(mapping)
                        .batch(batch)
                        .compile(&net)
                        .expect("compiles");
                    (c.program, c.node_names, c.placement.cores_used)
                };
                let at_base = compile(&base);
                for knob in ARCH_KNOBS {
                    let mut arch = base.clone();
                    (knob.set)(&mut arch, other((knob.get)(&base)));
                    assert_ne!(arch, base, "{}", knob.grid_key);
                    arch.validate().expect("the other value is valid");
                    assert!(
                        compile(&arch) == at_base,
                        "{} changes the program of {} {mapping} x{batch}",
                        knob.grid_key,
                        name
                    );
                }
            }
        }
    }
}

/// Every scenario through `Scenario::execute` on its own: the rows, or
/// the error of the smallest failing index.
fn per_point(scenarios: &[Scenario]) -> Result<Vec<SweepRow>, SweepError> {
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| s.execute(i))
        .collect()
}

/// A 64-point grid of 8 distinct programs, each shared by 8 points that
/// differ in ROB depth, ADC count and structure hazard, interleaved so
/// that index `i` runs program `i % 8`.
fn shared_grid() -> Vec<Scenario> {
    let mut grid = SweepGrid::over_networks(["tiny_mlp", "tiny_cnn"]);
    grid.base = Some(ArchConfig::small_test());
    grid.mappings = vec![
        "performance-first".to_string(),
        "utilization-first".to_string(),
    ];
    grid.batches = vec![1, 2];
    grid.rob_sizes = vec![1, 4];
    grid.adcs_per_xbar = vec![1, 2];
    grid.structure_hazard = vec![true, false];
    let scenarios = grid.scenarios().expect("expansion");
    assert_eq!(scenarios.len(), 64);
    // Grid order varies the knobs fastest: point `8 * p + k` is knob
    // corner `k` of program `p`.
    (0..64)
        .map(|i| scenarios[(i % 8) * 8 + i / 8].clone())
        .collect()
}

/// One program shared by 8 points: at 2 and 4 threads its members run on
/// several workers at once, all waiting on one compile.
fn one_program_grid() -> Vec<Scenario> {
    let mut grid = SweepGrid::over_networks(["tiny_cnn"]);
    grid.base = Some(ArchConfig::small_test());
    grid.rob_sizes = vec![1, 4];
    grid.adcs_per_xbar = vec![1, 2];
    grid.structure_hazard = vec![true, false];
    grid.scenarios().expect("expansion")
}

#[test]
fn grouped_rows_equal_the_per_point_oracle() {
    for scenarios in [shared_grid(), one_program_grid()] {
        let oracle = per_point(&scenarios).expect("every point runs");
        let json = results_to_json(&oracle);
        for threads in [1, 2, 4] {
            let rows = run_scenarios(scenarios.clone(), threads).expect("grid run");
            assert_eq!(rows, oracle, "threads = {threads}");
            assert_eq!(results_to_json(&rows), json, "threads = {threads}");
        }
    }
}

/// `run_scenarios` at 1, 2 and 4 threads returns exactly the per-point
/// error, which `expect` describes.
fn assert_same_error(scenarios: &[Scenario], expect: fn(&SweepError) -> bool) {
    let oracle = per_point(scenarios).expect_err("some point fails");
    assert!(expect(&oracle), "{oracle:?}");
    for threads in [1, 2, 4] {
        let got = run_scenarios(scenarios.to_vec(), threads).expect_err("some point fails");
        assert_eq!(got, oracle, "threads = {threads}");
    }
}

#[test]
fn an_invalid_member_of_a_shared_group_fails_as_it_would_alone() {
    let grid = shared_grid();
    // Inside a group (index 12 shares index 4's program), and as a group's
    // first member, so that the group compiles for no member before it.
    for index in [12, 4, 0] {
        let mut scenarios = grid.clone();
        scenarios[index].arch.resources.rob_size = 0;
        assert_same_error(&scenarios, |e| e.to_string().contains("resources.rob_size"));
    }
    // One group on several workers: the smallest failure beside later
    // ones, near and far, and a failure that no other point follows.
    for bad in [&[3, 5][..], &[5, 7], &[6]] {
        let mut scenarios = one_program_grid();
        scenarios[bad[0]].arch.resources.vector_lanes = 0;
        for &index in &bad[1..] {
            scenarios[index].arch.resources.rob_size = 0;
        }
        assert_same_error(&scenarios, |e| {
            e.to_string().contains("resources.vector_lanes")
        });
    }
}

#[test]
fn an_unbuildable_network_fails_as_it_would_alone() {
    let mut scenarios = shared_grid();
    let vgg8 = |rob| {
        Scenario::cycle(
            "vgg8",
            1,
            MappingPolicy::PerformanceFirst,
            1,
            ArchConfig::small_test().with_rob(rob),
        )
    };
    scenarios.insert(9, vgg8(2));
    scenarios.insert(3, vgg8(1));
    assert_same_error(&scenarios, |e| {
        *e == SweepError::BadResolution {
            network: "vgg8".to_string(),
            resolution: 1,
        }
    });
}

#[test]
fn a_compile_failure_is_worded_with_the_failing_members_label() {
    let mut scenarios = shared_grid();
    // Three points of one program that cannot fit global memory, the
    // first of them at index 6 with its own ROB depth in the label.
    for (at, rob) in [(6, 3), (20, 1), (40, 2)] {
        scenarios.insert(
            at,
            Scenario::cycle(
                "tiny_mlp",
                64,
                MappingPolicy::PerformanceFirst,
                1_000_000,
                ArchConfig::small_test().with_rob(rob),
            ),
        );
    }
    assert_same_error(
        &scenarios,
        |e| matches!(e, SweepError::Compile(text) if text.contains("rob=3")),
    );
}

#[test]
fn the_smallest_failing_index_wins_across_groups() {
    let mut scenarios = shared_grid();
    // Program 0's group fails at index 24 and program 5's, which appears
    // later, at index 13: the error is index 13's.
    scenarios[24].arch.resources.rob_size = 0;
    scenarios[13].arch.resources.adcs_per_xbar = 0;
    assert_same_error(&scenarios, |e| {
        e.to_string().contains("resources.adcs_per_xbar")
    });
}
