//! Property tests for the dense, policy-routed NoC fabric: every policy
//! routes minimally, the read-only route view is the path a message then
//! reserves, every message is delivered, link occupancy only moves
//! forward, and routing actually changes contention (but never
//! determinism) on a multi-core scenario.

use proptest::prelude::*;

use pimsim_arch::model::CostModel;
use pimsim_arch::{ArchConfig, RoutingPolicy};
use pimsim_core::{Noc, SimReport, Simulator};
use pimsim_event::SimTime;
use pimsim_isa::asm;

const POLICIES: [RoutingPolicy; 4] = RoutingPolicy::ALL;

fn manhattan(cols: u16, a: u16, b: u16) -> usize {
    let (ar, ac) = (a / cols, a % cols);
    let (br, bc) = (b / cols, b % cols);
    (ar.abs_diff(br) + ac.abs_diff(bc)) as usize
}

/// Every directed link of a `rows` × `cols` mesh.
fn mesh_links(rows: u16, cols: u16) -> Vec<(u16, u16)> {
    let mut links = Vec::new();
    for r in 0..rows * cols {
        if r % cols != cols - 1 {
            links.push((r, r + 1));
        }
        if r % cols != 0 {
            links.push((r, r - 1));
        }
        if r / cols != rows - 1 {
            links.push((r, r + cols));
        }
        if r / cols != 0 {
            links.push((r, r - cols));
        }
    }
    links
}

/// `link_free` of every link in `links`.
fn occupancy(noc: &Noc, links: &[(u16, u16)]) -> Vec<SimTime> {
    links.iter().map(|&(a, b)| noc.link_free(a, b)).collect()
}

/// Asserts `links` is a minimal connected route `from -> to`.
fn check_minimal(cols: u16, from: u16, to: u16, links: &[(u16, u16)]) -> Result<(), TestCaseError> {
    prop_assert_eq!(links.len(), manhattan(cols, from, to));
    let mut cur = from;
    for (a, b) in links {
        prop_assert_eq!(*a, cur, "route is connected");
        prop_assert_eq!(
            manhattan(cols, *a, *b),
            1,
            "each link joins mesh neighbours"
        );
        cur = *b;
    }
    prop_assert_eq!(cur, to, "route ends at the destination");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy produces a minimal route for the `msg_seq`-th message
    /// (the injection counter picks `xy-yx`'s order and `adaptive`'s tie
    /// break): exactly the Manhattan distance, each step a mesh neighbour,
    /// ending at the destination.
    #[test]
    fn routes_are_minimal_for_every_policy(
        rows in 1u16..9,
        cols in 1u16..9,
        from_seed in 0u32..10_000,
        to_seed in 0u32..10_000,
        msg_seq in 0u64..8,
    ) {
        let cfg = ArchConfig::paper_default();
        let model = CostModel::new(&cfg);
        let routers = (rows as u32 * cols as u32) as u16;
        let from = (from_seed % routers as u32) as u16;
        let to = (to_seed % routers as u32) as u16;
        for policy in POLICIES {
            let mut noc = Noc::new(rows, cols, policy);
            // `msg_seq` earlier messages advance the injection counter.
            for i in 0..msg_seq {
                noc.memory_access(from, 8, SimTime::from_us(i), &model);
            }
            let links: Vec<(u16, u16)> = noc.route(from, to).collect();
            check_minimal(cols, from, to, &links)?;
        }
    }

    /// The read-only route view is the path a message then takes: after
    /// random warm-up traffic, the links `Noc::route` lists are exactly
    /// the links whose occupancy the next `Noc::message` moves, under
    /// every policy.
    #[test]
    fn route_view_is_the_path_the_next_message_reserves(
        rows in 1u16..7,
        cols in 1u16..7,
        warm in proptest::collection::vec((0u32..10_000, 0u32..10_000, 1u32..512, 0u64..200), 0..24),
        from_seed in 0u32..10_000,
        to_seed in 0u32..10_000,
        elems in 1u32..512,
        start_ns in 0u64..200,
    ) {
        let cfg = ArchConfig::paper_default();
        let model = CostModel::new(&cfg);
        let routers = rows as u32 * cols as u32;
        let all = mesh_links(rows, cols);
        let from = (from_seed % routers) as u16;
        let to = (to_seed % routers) as u16;
        for policy in POLICIES {
            let mut noc = Noc::new(rows, cols, policy);
            for &(f, t, n, at) in &warm {
                let (f, t) = ((f % routers) as u16, (t % routers) as u16);
                noc.message(f, t, n, SimTime::from_ns(at), &model);
            }
            let mut route: Vec<(u16, u16)> = noc.route(from, to).collect();
            let before = occupancy(&noc, &all);
            noc.message(from, to, elems, SimTime::from_ns(start_ns), &model);
            let after = occupancy(&noc, &all);
            let mut moved: Vec<(u16, u16)> = all
                .iter()
                .zip(before.iter().zip(&after))
                .filter(|(_, (old, new))| old != new)
                .map(|(&link, _)| link)
                .collect();
            route.sort_unstable();
            moved.sort_unstable();
            prop_assert_eq!(route, moved, "{}", policy.name());
        }
    }

    /// Every policy delivers every message: completion times are at or
    /// after injection plus the uncontended minimum, and link occupancy
    /// is monotone (no reservation ever moves a link's free time back).
    #[test]
    fn all_policies_deliver_randomized_traffic(
        rows in 2u16..6,
        cols in 2u16..6,
        traffic in proptest::collection::vec((0u32..10_000, 0u32..10_000, 1u32..512), 1..40),
    ) {
        let cfg = ArchConfig::paper_default();
        let model = CostModel::new(&cfg);
        let routers = rows as u32 * cols as u32;
        let all = mesh_links(rows, cols);
        for policy in POLICIES {
            let mut noc = Noc::new(rows, cols, policy);
            let mut prev_free: Vec<SimTime> = Vec::new();
            for (i, &(f, t, elems)) in traffic.iter().enumerate() {
                let from = (f % routers) as u16;
                let to = (t % routers) as u16;
                let start = SimTime::from_ns(i as u64 * 3);
                let done = noc.message(from, to, elems, start, &model);
                // Delivered: never before injection, and no faster than
                // the uncontended pipe latency + serialization.
                let hops = manhattan(cols, from, to) as u32;
                if from == to {
                    prop_assert_eq!(done, start + model.local_copy_cost(elems).time);
                } else {
                    let floor = model.router_latency() * hops as u64
                        + model.link_serialization(model.flits_for_elems(elems));
                    prop_assert!(done >= start + floor, "no lost flits / time travel");
                }
                // Monotone link times across the whole fabric.
                let free = occupancy(&noc, &all);
                if !prev_free.is_empty() {
                    for (new, old) in free.iter().zip(&prev_free) {
                        prop_assert!(new >= old, "link occupancy went backwards");
                    }
                }
                prev_free = free;
            }
        }
    }

    /// Adaptive routes stay minimal on random meshes, whatever congestion
    /// the fabric has already accumulated: exactly the Manhattan distance,
    /// each step a mesh neighbour, ending at the destination.
    #[test]
    fn adaptive_routes_stay_minimal_under_random_congestion(
        rows in 1u16..9,
        cols in 1u16..9,
        warm in proptest::collection::vec((0u32..10_000, 0u32..10_000, 1u32..512), 0..24),
        from_seed in 0u32..10_000,
        to_seed in 0u32..10_000,
    ) {
        let cfg = ArchConfig::paper_default();
        let model = CostModel::new(&cfg);
        let routers = rows as u32 * cols as u32;
        let mut noc = Noc::new(rows, cols, RoutingPolicy::Adaptive);
        // Random warm-up traffic loads the links the adaptive walk reads.
        for (i, &(f, t, elems)) in warm.iter().enumerate() {
            let from = (f % routers) as u16;
            let to = (t % routers) as u16;
            noc.message(from, to, elems, SimTime::from_ns(i as u64), &model);
        }
        let from = (from_seed % routers) as u16;
        let to = (to_seed % routers) as u16;
        let links: Vec<(u16, u16)> = noc.route(from, to).collect();
        check_minimal(cols, from, to, &links)?;
    }

    /// On contention-free traffic — every message injected after the
    /// fabric has fully drained — adaptive and XY complete byte-equally:
    /// both take minimal routes through idle links, so only congestion
    /// can ever separate them.
    #[test]
    fn adaptive_equals_xy_on_contention_free_traffic(
        rows in 2u16..7,
        cols in 2u16..7,
        traffic in proptest::collection::vec((0u32..10_000, 0u32..10_000, 1u32..1024), 1..32),
    ) {
        let cfg = ArchConfig::paper_default();
        let model = CostModel::new(&cfg);
        let routers = rows as u32 * cols as u32;
        let mut xy = Noc::new(rows, cols, RoutingPolicy::Xy);
        let mut adaptive = Noc::new(rows, cols, RoutingPolicy::Adaptive);
        for (i, &(f, t, elems)) in traffic.iter().enumerate() {
            let from = (f % routers) as u16;
            let to = (t % routers) as u16;
            // 1 ms spacing dwarfs any route's latency, so every message
            // sees a drained fabric (starts past every link's free time).
            let start = SimTime::from_ns(i as u64 * 1_000_000);
            let a = xy.message(from, to, elems, start, &model);
            let b = adaptive.message(from, to, elems, start, &model);
            prop_assert_eq!(a, b, "message {} diverged without contention", i);
        }
    }
}

/// Cross traffic on the 3×3 test chip whose XY routes share links but
/// whose YX routes are disjoint: core0→core8 and core2→core8.
const CROSS_TRAFFIC: &str = r#"
    .core 0
    vfill [r0+0], 1, 256
    send core8, [r0+0], 256, tag=1
    halt
    .core 2
    vfill [r0+0], 2, 256
    send core8, [r0+0], 256, tag=2
    halt
    .core 8
    recv core0, [r0+0], 256, tag=1
    recv core2, [r0+512], 256, tag=2
    halt
"#;

fn cross_latency(policy: RoutingPolicy) -> SimTime {
    let arch = ArchConfig::small_test().with_routing(policy);
    let program = asm::assemble(CROSS_TRAFFIC).expect("assembles");
    let report = Simulator::new(&arch).run(&program).expect("runs");
    // Payloads arrive regardless of the route taken.
    assert_eq!(report.read_local(8, 0, 1)[0], 1);
    assert_eq!(report.read_local(8, 512, 1)[0], 2);
    report.latency
}

#[test]
fn routing_policy_changes_contention_deterministically() {
    // Under XY both messages fight over links (2,5) and (5,8); under YX
    // their routes are disjoint, so the run must finish strictly earlier.
    let xy = cross_latency(RoutingPolicy::Xy);
    let yx = cross_latency(RoutingPolicy::Yx);
    let alt = cross_latency(RoutingPolicy::XyYxAlternate);
    assert!(
        yx < xy,
        "disjoint YX routes must beat contended XY ones (xy={xy}, yx={yx})"
    );
    // Every policy is deterministic: identical reruns, picosecond-exact.
    for policy in POLICIES {
        assert_eq!(cross_latency(policy), cross_latency(policy));
    }
    assert!(
        alt <= xy,
        "alternation can only reduce the shared-link wait"
    );
}

/// Runs a transfer-only program on the paper chip under `routing`: each
/// `(core, dst, src)` sends `rounds` messages of `len` elements to `dst`,
/// each followed by a receive of as many from `src` into `[r0+recv_at]`.
fn exchange(
    cores: &[(u16, u16, u16)],
    (rounds, len, recv_at): (u32, u32, u32),
    routing: RoutingPolicy,
) -> SimReport {
    let mut text = String::new();
    for &(core, dst, src) in cores {
        text.push_str(&format!(".core {core}\n"));
        for _ in 0..rounds {
            text.push_str(&format!("send core{dst}, [r0+0], {len}, tag=1\n"));
            text.push_str(&format!("recv core{src}, [r0+{recv_at}], {len}, tag=1\n"));
        }
        text.push_str("halt\n");
    }
    let program = asm::assemble(&text).expect("assembles");
    let arch = ArchConfig::paper_default().with_routing(routing);
    Simulator::new(&arch).run(&program).expect("simulates")
}

#[test]
fn transfer_workload_runs_and_saturates_transfers() {
    // Every core of the 8x8 chip streams to its 27-step rotation (coprime
    // with 64: one long cycle crisscrossing the whole mesh).
    let cores: Vec<_> = (0..64u16)
        .map(|c| (c, (c + 27) % 64, (c + 64 - 27) % 64))
        .collect();
    let report = exchange(&cores, (24, 256, 2048), RoutingPolicy::Xy);
    // Every injected message is two transfer-class instructions.
    assert_eq!(report.class_counts[2], 64 * 24 * 2);
    assert!(report.latency.as_ns_f64() > 0.0);
}

#[test]
fn hotspot_workload_adaptive_beats_xy_deterministically() {
    // Matrix-transpose exchange: every off-diagonal core (r, c) trades
    // with (c, r). Under XY every flow out of row r funnels through the
    // links around the diagonal core (r, r); a congestion-aware policy
    // steps off the hot row early and spreads over the idle centre.
    let cores: Vec<_> = (0..8u16)
        .flat_map(|r| (0..8u16).map(move |c| (r, c)))
        .filter(|(r, c)| r != c)
        .map(|(r, c)| (r * 8 + c, c * 8 + r, c * 8 + r))
        .collect();
    let run = |routing| exchange(&cores, (16, 512, 4096), routing);
    let xy = run(RoutingPolicy::Xy);
    let adaptive = run(RoutingPolicy::Adaptive);
    assert_eq!(xy.class_counts[2], 56 * 16 * 2);
    assert!(
        adaptive.latency < xy.latency,
        "adaptive ({}) must beat xy ({}) on transpose hotspot traffic",
        adaptive.latency,
        xy.latency
    );
    // And both policies stay byte-reproducible.
    assert_eq!(xy.latency, run(RoutingPolicy::Xy).latency);
    assert_eq!(adaptive.latency, run(RoutingPolicy::Adaptive).latency);
}

/// Benchmark-shaped traffic on the paper's 8×8 mesh, about 2,000 messages:
/// 16 rounds of a random single-cycle permutation (every core sends to one
/// peer and receives from another), then 16 rounds of all-to-one into
/// core 0. Deterministic: an LCG draws the permutations.
fn perm_and_all_to_one() -> String {
    const CORES: usize = 64;
    const LENGTHS: [u32; 4] = [64, 128, 256, 512];
    let mut state = 0x2545_f491_u64;
    let mut below = |n: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    let mut cores = vec![String::new(); CORES];
    for round in 0..16 {
        let len = LENGTHS[round % 4];
        // Sattolo: one cycle through every core, so no core maps to itself.
        let mut to: Vec<usize> = (0..CORES).collect();
        for i in (1..CORES).rev() {
            to.swap(i, below(i));
        }
        let mut from = vec![0; CORES];
        for (c, &peer) in to.iter().enumerate() {
            from[peer] = c;
        }
        for c in 0..CORES {
            cores[c].push_str(&format!("send core{}, [r0+0], {len}, tag=1\n", to[c]));
            cores[c].push_str(&format!("recv core{}, [r0+2048], {len}, tag=1\n", from[c]));
        }
    }
    for round in 0..16 {
        let len = LENGTHS[(round + 1) % 4];
        for c in 1..CORES {
            cores[c].push_str(&format!("send core0, [r0+0], {len}, tag=2\n"));
            cores[0].push_str(&format!("recv core{c}, [r0+2048], {len}, tag=2\n"));
        }
    }
    let mut text = String::new();
    for (c, body) in cores.iter().enumerate() {
        text.push_str(&format!(".core {c}\n{body}halt\n"));
    }
    text
}

#[test]
fn mesh_traffic_schedule_is_pinned() {
    // (latency ps, kernel events, total energy bits) per routing and VC
    // count: any change to the transfer path that moves one event, one
    // picosecond or one energy bit shows here, not only in the benchmark's
    // digests.
    let pinned: [(RoutingPolicy, u32, (u64, u64, u64)); 8] = [
        (
            RoutingPolicy::Xy,
            1,
            (31_019_000, 4_683, 4_712_744_497_589_518_336),
        ),
        (
            RoutingPolicy::Xy,
            2,
            (31_019_000, 4_682, 4_712_744_497_589_518_336),
        ),
        (
            RoutingPolicy::Yx,
            1,
            (31_089_500, 4_644, 4_712_758_501_867_257_857),
        ),
        (
            RoutingPolicy::Yx,
            2,
            (31_089_500, 4_644, 4_712_758_501_867_257_857),
        ),
        (
            RoutingPolicy::XyYxAlternate,
            1,
            (19_959_000, 4_592, 4_710_329_818_657_325_056),
        ),
        (
            RoutingPolicy::XyYxAlternate,
            2,
            (20_183_000, 4_582, 4_710_418_810_379_698_175),
        ),
        (
            RoutingPolicy::Adaptive,
            1,
            (18_574_000, 4_517, 4_709_779_579_659_616_255),
        ),
        (
            RoutingPolicy::Adaptive,
            2,
            (18_684_000, 4_529, 4_709_823_280_951_853_055),
        ),
    ];
    let program = asm::assemble(&perm_and_all_to_one()).expect("assembles");
    assert_eq!(program.total_instructions(), 2 * (16 * 64 + 16 * 63) + 64);
    for (routing, vcs, want) in pinned {
        let arch = ArchConfig::paper_default()
            .with_routing(routing)
            .with_virtual_channels(vcs);
        let r = Simulator::new(&arch).run(&program).expect("simulates");
        let got = (
            r.latency.as_ps(),
            r.events,
            r.energy.total().as_pj().to_bits(),
        );
        assert_eq!(got, want, "{} / {vcs} VC(s)", routing.name());
    }
}
