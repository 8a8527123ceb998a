//! Equivalence of the dense NoC fabric with the superseded HashMap fabric
//! it replaced: under XY routing every message's completion time and every
//! directed link's `free_at` (memory port included) agree exactly.
//!
//! `HashMapNoc` is the reference the dense fabric is held to: an allocated
//! route `Vec` per message and a hash-probed `(from, to) -> free_at` map
//! per link, XY order only, priced by the same [`CostModel`].

use std::collections::HashMap;

use proptest::prelude::*;

use pimsim_arch::model::CostModel;
use pimsim_arch::{ArchConfig, RoutingPolicy};
use pimsim_core::{Noc, MEM_NODE};
use pimsim_event::SimTime;

#[derive(Debug, Default)]
struct HashMapNoc {
    cols: u16,
    link_free: HashMap<(u16, u16), SimTime>,
    mem_free: SimTime,
}

impl HashMapNoc {
    fn new(cols: u16) -> HashMapNoc {
        HashMapNoc {
            cols,
            ..HashMapNoc::default()
        }
    }

    /// The XY route as an allocated link list.
    fn route(&self, from: u16, to: u16) -> Vec<(u16, u16)> {
        let mut links = Vec::new();
        let (tr, tc) = (to / self.cols, to % self.cols);
        let mut cur = from;
        while cur % self.cols != tc {
            let next = if tc > cur % self.cols {
                cur + 1
            } else {
                cur - 1
            };
            links.push((cur, next));
            cur = next;
        }
        while cur / self.cols != tr {
            let next = if tr > cur / self.cols {
                cur + self.cols
            } else {
                cur - self.cols
            };
            links.push((cur, next));
            cur = next;
        }
        links
    }

    fn traverse(
        &mut self,
        links: &[(u16, u16)],
        start: SimTime,
        flits: u64,
        c: &CostModel,
    ) -> SimTime {
        let ser = c.link_serialization(flits);
        let (mut head, mut tail) = (start, start);
        for link in links {
            let free = self.link_free.get(link).copied().unwrap_or(SimTime::ZERO);
            head = head.max(free) + c.router_latency();
            tail = head + ser;
            self.link_free.insert(*link, tail);
        }
        tail
    }

    fn message(
        &mut self,
        from: u16,
        to: u16,
        elems: u32,
        start: SimTime,
        c: &CostModel,
    ) -> SimTime {
        if from == to {
            return start + c.local_copy_cost(elems).time;
        }
        let links = self.route(from, to);
        self.traverse(&links, start, c.flits_for_elems(elems), c)
    }

    fn memory_access(&mut self, core: u16, elems: u32, start: SimTime, c: &CostModel) -> SimTime {
        let mut links = self.route(core, 0);
        links.push((0, MEM_NODE));
        let arrived = self.traverse(&links, start, c.flits_for_elems(elems), c);
        self.mem_free = arrived.max(self.mem_free) + c.global_mem_cost(elems).time;
        self.mem_free
    }

    fn link_free(&self, from: u16, to: u16) -> SimTime {
        self.link_free
            .get(&(from, to))
            .copied()
            .unwrap_or(SimTime::ZERO)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Message by message on random meshes and traffic: completions and
    /// the full link-occupancy state match the reference.
    #[test]
    fn dense_occupancy_matches_hashmap_fabric_under_xy(
        rows in 1u16..8,
        cols in 1u16..8,
        traffic in proptest::collection::vec(
            (0u32..10_000, 0u32..10_000, 1u32..2048, 0u64..500), 1..64),
    ) {
        let arch = ArchConfig::paper_default();
        let c = CostModel::new(&arch);
        let routers = rows as u32 * cols as u32;
        let mut dense = Noc::new(rows, cols, RoutingPolicy::Xy);
        let mut reference = HashMapNoc::new(cols);
        for (i, &(f, t, elems, start_ns)) in traffic.iter().enumerate() {
            let (from, to) = ((f % routers) as u16, (t % routers) as u16);
            let start = SimTime::from_ns(start_ns);
            // Every fifth message is memory traffic: the controller
            // queue and the memory port must match too.
            let (a, b) = if i % 5 == 4 {
                (
                    dense.memory_access(from, elems, start, &c),
                    reference.memory_access(from, elems, start, &c),
                )
            } else {
                (
                    dense.message(from, to, elems, start, &c),
                    reference.message(from, to, elems, start, &c),
                )
            };
            prop_assert_eq!(a, b, "message {} completion diverged", i);
            for r in 0..routers as u16 {
                let (row, col) = (r / cols, r % cols);
                let neighbours = [
                    (col + 1 < cols).then(|| r + 1),
                    (col > 0).then(|| r - 1),
                    (row + 1 < rows).then(|| r + cols),
                    (row > 0).then(|| r - cols),
                ];
                for n in neighbours.into_iter().flatten() {
                    prop_assert_eq!(
                        dense.link_free(r, n),
                        reference.link_free(r, n),
                        "link {}->{} diverged after message {}", r, n, i
                    );
                }
            }
            prop_assert_eq!(dense.link_free(0, MEM_NODE), reference.link_free(0, MEM_NODE));
        }
    }
}

/// A long deterministic sample on the paper chip's 8×8 mesh: 2,000
/// messages, every seventh a global-memory access, sum to the same
/// completion-time checksum on both fabrics.
#[test]
fn fabric_workload_checksums_agree() {
    const MESH: u16 = 8;
    let arch = ArchConfig::paper_default();
    let c = CostModel::new(&arch);
    let routers = MESH as u64 * MESH as u64;
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut dense = Noc::new(MESH, MESH, RoutingPolicy::Xy);
    let mut reference = HashMapNoc::new(MESH);
    let (mut dense_sum, mut reference_sum) = (0u64, 0u64);
    for i in 0..2_000u64 {
        let from = (next() % routers) as u16;
        let to = (next() % routers) as u16;
        let elems = (next() % 1024) as u32 + 1;
        let start = SimTime::from_ns(i);
        let (a, b) = if i % 7 == 6 {
            (
                dense.memory_access(from, elems, start, &c),
                reference.memory_access(from, elems, start, &c),
            )
        } else {
            (
                dense.message(from, to, elems, start, &c),
                reference.message(from, to, elems, start, &c),
            )
        };
        dense_sum = dense_sum.wrapping_add(a.as_ps());
        reference_sum = reference_sum.wrapping_add(b.as_ps());
    }
    assert_eq!(dense_sum, reference_sum);
}
