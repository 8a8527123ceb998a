//! The mesh NoC: a policy-pluggable routing fabric over dense per-link
//! occupancy state, plus the global memory controller at corner (0, 0).
//!
//! Three design choices keep the per-message work allocation-free:
//!
//! * **Dense link state.** Every directed mesh link maps 1:1 to an
//!   *outgoing port* of its source router (`E`/`W`/`S`/`N`, plus the
//!   memory port at router 0), so occupancy lives in one flat
//!   `Vec<SimTime>` indexed `router * PORTS + port` — no hash probes on
//!   the hot path, sized once at construction from the mesh dimensions.
//! * **Iterator routes.** A [`Route`] walks the links of a message lazily;
//!   nothing is collected into a `Vec` per transfer.
//! * **Cached cost constants.** [`NocCosts`] derives the per-message
//!   constants (hop latency, clocks, per-flit energies, memory-system
//!   parameters) from the [`ArchConfig`] once per simulation instead of
//!   rebuilding a [`CostModel`](pimsim_arch::model::CostModel) per
//!   transfer. Every formula mirrors the `CostModel` one exactly (a unit
//!   test pins the equivalence), so swapping the fabric cannot move a
//!   single picosecond.
//!
//! Which links a message takes is decided by a [`Routing`] policy — the
//! seam LP5X-PIM-style interconnect studies plug into. The built-in
//! policies ([`Xy`], [`Yx`], [`XyYxAlternate`], [`Adaptive`]) are selected
//! by [`ArchConfig`]`.noc.routing`; all of them produce minimal
//! (Manhattan) routes, so only *contention*, never distance, differs
//! between them. Oblivious policies pick one dimension order per message;
//! [`Adaptive`] instead decides *per hop*, stepping into the minimal
//! direction whose outgoing link frees earliest (deterministic tie-break
//! on the injection counter, so runs stay byte-reproducible).
//!
//! Per-hop latency prices the router pipeline: a head flit pays
//! `hop_cycles * router_pipeline_depth` NoC cycles per router
//! ([`NocCosts::router_latency`]), while serialization — link throughput —
//! is depth-independent. Depth 1 reproduces the pre-pipeline flat hop cost
//! exactly.

use std::fmt;

use pimsim_arch::model::{Cost, CostModel};
use pimsim_arch::{ArchConfig, Energy, RoutingPolicy};
use pimsim_event::{Clock, SimTime};

/// A unidirectional mesh link identified by `(from_router, to_router)`.
/// The memory port uses `to_router == MEM_NODE`.
pub const MEM_NODE: u16 = u16::MAX;

/// Outgoing ports per router: the four mesh directions plus the global
/// memory port (only ever used at router 0, but sized uniformly so the
/// dense index is a single multiply-add).
pub const PORTS: usize = 5;

const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;
const MEM_PORT: usize = 4;

/// The dimension order one message's route walks the mesh in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimOrder {
    /// Columns first (X), then rows (Y).
    XFirst,
    /// Rows first (Y), then columns (X).
    YFirst,
}

/// A routing policy: picks the dimension order of each message.
///
/// The built-in policies are stateless strategy objects; per-message
/// variation comes from the `msg_seq` argument (the fabric's injection
/// counter), which keeps the trait `Send + Sync` and the fabric
/// deterministic. Higher-fidelity policies (adaptive, credit-aware)
/// implement the same seam without touching the transfer fabric.
pub trait Routing: fmt::Debug + Send + Sync {
    /// Dimension order for the `msg_seq`-th message injected into the
    /// fabric, travelling `from -> to`. For adaptive policies this is the
    /// *tie-break* order, applied at hops where both minimal directions
    /// are equally congested.
    fn order(&self, from: u16, to: u16, msg_seq: u64) -> DimOrder;

    /// Short policy name (for reports and labels).
    fn name(&self) -> &'static str;

    /// `true` when the policy decides per hop from live link occupancy:
    /// the fabric then walks hop-by-hop (see [`Noc::adaptive_route`])
    /// instead of following a precomputed dimension-order [`Route`].
    fn is_adaptive(&self) -> bool {
        false
    }
}

/// X-then-Y dimension-order routing — the paper's mesh, the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct Xy;

impl Routing for Xy {
    fn order(&self, _from: u16, _to: u16, _msg_seq: u64) -> DimOrder {
        DimOrder::XFirst
    }

    fn name(&self) -> &'static str {
        "xy"
    }
}

/// Y-then-X dimension-order routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Yx;

impl Routing for Yx {
    fn order(&self, _from: u16, _to: u16, _msg_seq: u64) -> DimOrder {
        DimOrder::YFirst
    }

    fn name(&self) -> &'static str {
        "yx"
    }
}

/// O1TURN-style routing: even-numbered messages go X-first, odd-numbered
/// Y-first, spreading load across the two minimal dimension orders.
#[derive(Debug, Clone, Copy, Default)]
pub struct XyYxAlternate;

impl Routing for XyYxAlternate {
    fn order(&self, _from: u16, _to: u16, msg_seq: u64) -> DimOrder {
        if msg_seq.is_multiple_of(2) {
            DimOrder::XFirst
        } else {
            DimOrder::YFirst
        }
    }

    fn name(&self) -> &'static str {
        "xy-yx"
    }
}

/// Congestion-aware minimal routing: at each hop the message steps into
/// the minimal direction (toward the destination) whose outgoing link
/// frees earliest. Ties — including the contention-free case where both
/// candidate links are idle — fall back to [`Routing::order`], which
/// alternates per message so tied traffic still spreads; the decision is a
/// pure function of fabric state and the injection counter, so runs stay
/// byte-reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adaptive;

impl Routing for Adaptive {
    fn order(&self, from: u16, to: u16, msg_seq: u64) -> DimOrder {
        // Ties alternate exactly like O1TURN, so idle-fabric adaptive
        // traffic spreads the same way `xy-yx` does.
        XyYxAlternate.order(from, to, msg_seq)
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn is_adaptive(&self) -> bool {
        true
    }
}

/// The built-in [`Routing`] instance for a configured [`RoutingPolicy`].
pub fn routing_for(policy: RoutingPolicy) -> &'static dyn Routing {
    match policy {
        RoutingPolicy::Xy => &Xy,
        RoutingPolicy::Yx => &Yx,
        RoutingPolicy::XyYxAlternate => &XyYxAlternate,
        RoutingPolicy::Adaptive => &Adaptive,
    }
}

/// A router position walking a minimal route toward a destination, as mesh
/// coordinates that each hop updates in place: a walk divides once per
/// message, not per hop, and names each link by its outgoing port.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    cols: u16,
    row: u16,
    col: u16,
    to_row: u16,
    to_col: u16,
}

impl Cursor {
    fn new(cols: u16, from: u16, to: u16) -> Cursor {
        Cursor {
            cols,
            row: from / cols,
            col: from % cols,
            to_row: to / cols,
            to_col: to % cols,
        }
    }

    /// The router the cursor stands on.
    fn router(&self) -> u16 {
        self.row * self.cols + self.col
    }

    /// The destination router.
    fn to(&self) -> u16 {
        self.to_row * self.cols + self.to_col
    }

    /// The outgoing port of the minimal X step, while the column differs.
    fn x_port(&self) -> Option<usize> {
        match self.to_col.cmp(&self.col) {
            std::cmp::Ordering::Greater => Some(EAST),
            std::cmp::Ordering::Less => Some(WEST),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The outgoing port of the minimal Y step, while the row differs.
    fn y_port(&self) -> Option<usize> {
        match self.to_row.cmp(&self.row) {
            std::cmp::Ordering::Greater => Some(SOUTH),
            std::cmp::Ordering::Less => Some(NORTH),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The next port under dimension order `order`; `None` on arrival.
    fn port(&self, order: DimOrder) -> Option<usize> {
        match order {
            DimOrder::XFirst => self.x_port().or_else(|| self.y_port()),
            DimOrder::YFirst => self.y_port().or_else(|| self.x_port()),
        }
    }

    /// The dense index of the link out of `port` here.
    fn link(&self, port: usize) -> usize {
        self.router() as usize * PORTS + port
    }

    /// Moves one hop out of mesh port `port`.
    fn step(&mut self, port: usize) {
        match port {
            EAST => self.col += 1,
            WEST => self.col -= 1,
            SOUTH => self.row += 1,
            _ => self.row -= 1,
        }
    }

    /// Steps out of `port`, returning the link crossed as `(from, to)`.
    fn cross(&mut self, port: usize) -> (u16, u16) {
        let from = self.router();
        self.step(port);
        (from, self.router())
    }
}

/// An allocation-free walk of one message's minimal route: yields the
/// directed links `(from_router, to_router)` in traversal order.
#[derive(Debug, Clone)]
pub struct Route {
    at: Cursor,
    order: DimOrder,
}

impl Iterator for Route {
    type Item = (u16, u16);

    fn next(&mut self) -> Option<(u16, u16)> {
        let port = self.at.port(self.order)?;
        Some(self.at.cross(port))
    }
}

/// An allocation-free, read-only walk of the route the next injected
/// message would take under an adaptive policy, given the fabric's current
/// occupancy. Produced by [`Noc::adaptive_route`].
#[derive(Debug, Clone)]
pub struct AdaptiveRoute<'a> {
    noc: &'a Noc,
    at: Cursor,
    msg_seq: u64,
}

impl Iterator for AdaptiveRoute<'_> {
    type Item = (u16, u16);

    fn next(&mut self) -> Option<(u16, u16)> {
        let port = self.noc.adaptive_port(&self.at, self.msg_seq)?;
        Some(self.at.cross(port))
    }
}

/// Per-message cost constants, derived once from an [`ArchConfig`].
///
/// The transfer hot path used to rebuild a [`CostModel`] (and its clocks)
/// per message; this struct hoists everything a message needs into plain
/// fields. Each method reproduces the corresponding `CostModel` formula
/// term for term — `matches_cost_model` in the test module pins the
/// equivalence — so results are bit-identical, just cheaper to reach.
#[derive(Debug, Clone, Copy)]
pub struct NocCosts {
    hop: SimTime,
    router_latency: SimTime,
    noc_clock: Clock,
    core_clock: Clock,
    flit_bytes: u64,
    link_flits_per_cycle: f64,
    noc_pj_per_flit_hop: f64,
    local_mem_access_cycles: u64,
    local_mem_pj_per_elem: f64,
    global_mem_latency_ns: f64,
    global_mem_bw_elems_per_ns: f64,
    global_mem_pj_per_elem: f64,
    cols: u16,
}

impl NocCosts {
    /// Derives the constants from `cfg`.
    pub fn new(cfg: &ArchConfig) -> NocCosts {
        let model = CostModel::new(cfg);
        NocCosts {
            hop: model.noc_hop_latency(1),
            router_latency: model.noc_hop_latency(1) * cfg.noc.router_pipeline_depth as u64,
            noc_clock: model.noc_clock(),
            core_clock: model.core_clock(),
            flit_bytes: cfg.noc.flit_bytes as u64,
            link_flits_per_cycle: cfg.noc.link_flits_per_cycle,
            noc_pj_per_flit_hop: cfg.energy.noc_pj_per_flit_hop,
            local_mem_access_cycles: cfg.timing.local_mem_access_cycles as u64,
            local_mem_pj_per_elem: cfg.energy.local_mem_pj_per_elem,
            global_mem_latency_ns: cfg.timing.global_mem_latency_ns,
            global_mem_bw_elems_per_ns: cfg.timing.global_mem_bw_elems_per_ns,
            global_mem_pj_per_elem: cfg.energy.global_mem_pj_per_elem,
            cols: cfg.resources.core_cols,
        }
    }

    /// One-hop pipe latency (`hop_cycles` NoC cycles) of a single router
    /// pipeline stage.
    pub fn hop(&self) -> SimTime {
        self.hop
    }

    /// Head-flit latency of one full router traversal: `hop_cycles *
    /// router_pipeline_depth` NoC cycles. This — not [`NocCosts::hop`] —
    /// is what every link walk pays per hop; at depth 1 the two coincide,
    /// reproducing the pre-pipeline flat hop cost exactly.
    pub fn router_latency(&self) -> SimTime {
        self.router_latency
    }

    /// Flits needed to carry `elems` 32-bit elements (plus a header flit).
    pub fn flits_for_elems(&self, elems: u32) -> u64 {
        1 + (elems as u64 * 4).div_ceil(self.flit_bytes)
    }

    /// Time for one link to forward `flits` flits.
    pub fn serialization(&self, flits: u64) -> SimTime {
        let cycles = (flits as f64 / self.link_flits_per_cycle).ceil() as u64;
        self.noc_clock.cycles_to_time(cycles)
    }

    /// NoC energy for `flits` flits crossing `hops` hops.
    pub fn noc_energy(&self, flits: u64, hops: u32) -> Energy {
        Energy::from_pj(flits as f64 * hops as f64 * self.noc_pj_per_flit_hop)
    }

    /// Manhattan hop distance between two routers — the length of every
    /// minimal route, whatever the dimension order.
    pub fn hops(&self, a: u16, b: u16) -> u32 {
        let (ar, ac) = (a / self.cols, a % self.cols);
        let (br, bc) = (b / self.cols, b % self.cols);
        (ar.abs_diff(br) + ac.abs_diff(bc)) as u32
    }

    /// Cost of a same-core "transfer": a local scratchpad copy.
    pub fn local_copy(&self, elems: u32) -> Cost {
        let cycles = self.local_mem_access_cycles + elems as u64;
        Cost {
            time: self.core_clock.cycles_to_time(cycles),
            energy: Energy::from_pj(2.0 * elems as f64 * self.local_mem_pj_per_elem),
        }
    }

    /// Cost of a global-memory access of `elems` elements (latency +
    /// bandwidth serialization at the controller; NoC cost is separate).
    pub fn global_mem(&self, elems: u32) -> Cost {
        let time_ns = self.global_mem_latency_ns + elems as f64 / self.global_mem_bw_elems_per_ns;
        Cost {
            time: SimTime::from_ns_f64(time_ns),
            energy: Energy::from_pj(elems as f64 * self.global_mem_pj_per_elem),
        }
    }

    /// Dynamic energy of a core-to-core message: NoC wire/router energy
    /// along the (minimal) route, or the scratchpad-copy energy when
    /// `from == to`.
    pub fn message_energy(&self, from: u16, to: u16, elems: u32) -> Energy {
        if from == to {
            self.local_copy(elems).energy
        } else {
            self.noc_energy(self.flits_for_elems(elems), self.hops(from, to))
        }
    }
}

/// The head/tail progression of one packet walking links in sequence.
#[derive(Debug, Clone, Copy)]
struct Walk {
    head: SimTime,
    tail: SimTime,
}

/// Per-link and controller occupancy state.
#[derive(Debug, Clone)]
pub struct Noc {
    rows: u16,
    cols: u16,
    /// `free_at` per directed link, indexed `router * PORTS + port`.
    link_free: Vec<SimTime>,
    /// Global memory controller service queue.
    mem_free: SimTime,
    /// Messages injected so far (feeds per-message policy decisions).
    msg_seq: u64,
    routing: &'static dyn Routing,
}

impl Noc {
    /// Builds the link state for a `rows` × `cols` mesh with XY routing.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero or the mesh has more routers
    /// than the 16-bit core-id space can address.
    pub fn new(rows: u16, cols: u16) -> Noc {
        Noc::with_routing(rows, cols, &Xy)
    }

    /// Builds the link state for a `rows` × `cols` mesh routed by
    /// `routing`.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero or the mesh has more routers
    /// than the 16-bit core-id space can address.
    pub fn with_routing(rows: u16, cols: u16, routing: &'static dyn Routing) -> Noc {
        assert!(rows > 0 && cols > 0, "mesh must have at least one router");
        assert!(
            rows as u32 * cols as u32 <= MEM_NODE as u32,
            "mesh {rows}x{cols} exceeds the 16-bit core-id space"
        );
        Noc {
            rows,
            cols,
            link_free: vec![SimTime::ZERO; rows as usize * cols as usize * PORTS],
            mem_free: SimTime::ZERO,
            msg_seq: 0,
            routing,
        }
    }

    /// Builds the NoC for a (validated) architecture configuration,
    /// including its configured routing policy.
    pub fn for_arch(cfg: &ArchConfig) -> Noc {
        Noc::with_routing(
            cfg.resources.core_rows,
            cfg.resources.core_cols,
            routing_for(cfg.noc.routing),
        )
    }

    /// Routers in the mesh.
    fn routers(&self) -> u32 {
        self.rows as u32 * self.cols as u32
    }

    /// Asserts that `a` and `b` address routers inside the mesh — one
    /// compare for both ends. Out-of-range ids would otherwise walk
    /// through ports that do not exist or index past the dense link
    /// table, so every public entry point checks, in release builds too.
    fn check_cores(&self, a: u16, b: u16) {
        let core = a.max(b);
        assert!(
            (core as u32) < self.routers(),
            "core {core} outside the {}x{} mesh",
            self.rows,
            self.cols
        );
    }

    /// The dense index of the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics unless `from -> to` joins two mesh neighbours, or is the
    /// memory port `0 -> MEM_NODE`.
    fn link_index(&self, from: u16, to: u16) -> usize {
        self.check_cores(from, from);
        let (from32, to32, cols) = (from as u32, to as u32, self.cols as u32);
        let port = if to == MEM_NODE && from == 0 {
            MEM_PORT
        } else if to32 == from32 + 1 && from32 % cols != cols - 1 {
            EAST
        } else if to32 + 1 == from32 && from32 % cols != 0 {
            WEST
        } else if to32 == from32 + cols && to32 < self.routers() {
            SOUTH
        } else if to32 + cols == from32 {
            NORTH
        } else {
            panic!(
                "{from} -> {to} is not a link of the {}x{} mesh",
                self.rows, self.cols
            )
        };
        from as usize * PORTS + port
    }

    /// The occupancy (`free_at`) of the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics unless `from -> to` joins two mesh neighbours, or is the
    /// memory port `0 -> MEM_NODE`.
    pub fn link_free(&self, from: u16, to: u16) -> SimTime {
        self.link_free[self.link_index(from, to)]
    }

    /// The minimal route between two routers under `order`, as an
    /// allocation-free iterator of directed links.
    ///
    /// # Panics
    ///
    /// Panics when either router lies outside the mesh.
    pub fn route(&self, from: u16, to: u16, order: DimOrder) -> Route {
        self.check_cores(from, to);
        Route {
            at: Cursor::new(self.cols, from, to),
            order,
        }
    }

    /// The injection counter for the next message, advancing it.
    fn next_msg(&mut self) -> u64 {
        let seq = self.msg_seq;
        self.msg_seq += 1;
        seq
    }

    /// Sends a core-to-core message; returns its delivery (completion) time.
    ///
    /// A self-message (`from == to`) never touches the mesh: it is a local
    /// scratchpad copy and costs [`NocCosts::local_copy`], not zero —
    /// same-core rendezvous still has to move the payload.
    ///
    /// # Panics
    ///
    /// Panics when either core lies outside the mesh.
    pub fn message(
        &mut self,
        from: u16,
        to: u16,
        elems: u32,
        start: SimTime,
        costs: &NocCosts,
    ) -> SimTime {
        self.check_cores(from, to);
        if from == to {
            return start + costs.local_copy(elems).time;
        }
        let flits = costs.flits_for_elems(elems);
        let ser = costs.serialization(flits);
        let seq = self.next_msg();
        let mut walk = Walk {
            head: start,
            tail: start,
        };
        self.walk(from, to, seq, &mut walk, costs.router_latency(), ser);
        walk.tail
    }

    /// Walks a packet `from -> to` under the active policy, reserving each
    /// link in turn: a fixed dimension order for oblivious policies, a
    /// hop-by-hop congestion-guided choice for adaptive ones. Both ends
    /// are in the mesh: the public callers checked them.
    fn walk(
        &mut self,
        from: u16,
        to: u16,
        msg_seq: u64,
        walk: &mut Walk,
        hop: SimTime,
        ser: SimTime,
    ) {
        let mut at = Cursor::new(self.cols, from, to);
        // A minimal walk visits distinct routers, so the links this message
        // has already reserved are never adaptive candidates again: each
        // step sees exactly the occupancy `adaptive_route` would.
        let order = (!self.routing.is_adaptive()).then(|| self.routing.order(from, to, msg_seq));
        loop {
            let port = match order {
                Some(order) => at.port(order),
                None => self.adaptive_port(&at, msg_seq),
            };
            let Some(port) = port else { return };
            self.reserve(at.link(port), walk, hop, ser);
            at.step(port);
        }
    }

    /// Reserves the link with dense index `link` for `walk`'s head/tail
    /// flits.
    fn reserve(&mut self, link: usize, walk: &mut Walk, hop: SimTime, ser: SimTime) {
        walk.head = walk.head.max(self.link_free[link]) + hop;
        walk.tail = walk.head + ser;
        self.link_free[link] = walk.tail;
    }

    /// The port an adaptively routed message at `at` leaves by: of the (at
    /// most two) minimal directions, the one whose outgoing link frees
    /// earliest; ties fall back to the policy's per-message dimension
    /// order. `None` on arrival.
    fn adaptive_port(&self, at: &Cursor, msg_seq: u64) -> Option<usize> {
        match (at.x_port(), at.y_port()) {
            (Some(x), Some(y)) => {
                let x_free = self.link_free[at.link(x)];
                let y_free = self.link_free[at.link(y)];
                Some(if x_free < y_free {
                    x
                } else if y_free < x_free {
                    y
                } else {
                    match self.routing.order(at.router(), at.to(), msg_seq) {
                        DimOrder::XFirst => x,
                        DimOrder::YFirst => y,
                    }
                })
            }
            (x, y) => x.or(y),
        }
    }

    /// The route the *next injected* message would take from `from` to
    /// `to` under an adaptive policy, given the fabric's current link
    /// occupancy — a read-only hop-by-hop view for tests and diagnostics.
    /// Because a minimal walk never revisits a router, this is exactly the
    /// path [`Noc::message`] reserves when it injects that message.
    pub fn adaptive_route(&self, from: u16, to: u16) -> AdaptiveRoute<'_> {
        self.check_cores(from, to);
        AdaptiveRoute {
            noc: self,
            at: Cursor::new(self.cols, from, to),
            msg_seq: self.msg_seq,
        }
    }

    /// A global-memory access from `core`: ride the mesh to corner (0,0),
    /// cross the memory port, queue at the controller, pay DRAM latency +
    /// bandwidth. Returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics when `core` lies outside the mesh.
    pub fn memory_access(
        &mut self,
        core: u16,
        elems: u32,
        start: SimTime,
        costs: &NocCosts,
    ) -> SimTime {
        self.check_cores(core, core);
        let flits = costs.flits_for_elems(elems);
        let ser = costs.serialization(flits);
        let seq = self.next_msg();
        let mut walk = Walk {
            head: start,
            tail: start,
        };
        self.walk(core, 0, seq, &mut walk, costs.router_latency(), ser);
        // The memory port (router 0's) continues the same head progression.
        self.reserve(MEM_PORT, &mut walk, costs.router_latency(), ser);
        let arrived = walk.tail;
        let service_start = arrived.max(self.mem_free);
        let done = service_start + costs.global_mem(elems).time;
        self.mem_free = done;
        done
    }

    /// Number of mesh rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of mesh columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// The active routing policy.
    pub fn routing(&self) -> &'static dyn Routing {
        self.routing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(cfg: &ArchConfig) -> NocCosts {
        NocCosts::new(cfg)
    }

    #[test]
    fn xy_route_shape() {
        let noc = Noc::new(4, 4);
        // core 1 (0,1) -> core 14 (3,2): x to col 2, then y down.
        let r: Vec<_> = noc.route(1, 14, DimOrder::XFirst).collect();
        assert_eq!(r, vec![(1, 2), (2, 6), (6, 10), (10, 14)]);
        assert_eq!(noc.route(5, 5, DimOrder::XFirst).count(), 0);
        assert_eq!(noc.rows(), 4);
        assert_eq!(noc.cols(), 4);
        assert_eq!(noc.routing().name(), "xy");
    }

    #[test]
    fn yx_route_shape() {
        let noc = Noc::new(4, 4);
        // core 1 (0,1) -> core 14 (3,2): y down to row 3 first, then x.
        let r: Vec<_> = noc.route(1, 14, DimOrder::YFirst).collect();
        assert_eq!(r, vec![(1, 5), (5, 9), (9, 13), (13, 14)]);
    }

    #[test]
    fn alternate_policy_flips_order_per_message() {
        let p = XyYxAlternate;
        assert_eq!(p.order(0, 15, 0), DimOrder::XFirst);
        assert_eq!(p.order(0, 15, 1), DimOrder::YFirst);
        assert_eq!(p.order(0, 15, 2), DimOrder::XFirst);
        assert_eq!(Xy.order(0, 15, 1), DimOrder::XFirst);
        assert_eq!(Yx.order(0, 15, 2), DimOrder::YFirst);
    }

    #[test]
    fn routing_for_maps_every_policy() {
        use pimsim_arch::RoutingPolicy;
        assert_eq!(routing_for(RoutingPolicy::Xy).name(), "xy");
        assert_eq!(routing_for(RoutingPolicy::Yx).name(), "yx");
        assert_eq!(routing_for(RoutingPolicy::XyYxAlternate).name(), "xy-yx");
        assert_eq!(routing_for(RoutingPolicy::Adaptive).name(), "adaptive");
        assert!(routing_for(RoutingPolicy::Adaptive).is_adaptive());
        assert!(!routing_for(RoutingPolicy::Xy).is_adaptive());
    }

    #[test]
    fn adaptive_steps_around_congestion() {
        let cfg = ArchConfig::paper_default();
        let c = costs(&cfg);
        let mut noc = Noc::with_routing(2, 2, &Adaptive);
        // Occupy the eastward link 0 -> 1; the next message 0 -> 3 must
        // open with the idle southward link 0 -> 2 instead.
        noc.message(0, 1, 1024, SimTime::ZERO, &c);
        assert!(!noc.link_free(0, 1).is_zero());
        let path: Vec<_> = noc.adaptive_route(0, 3).collect();
        assert_eq!(path, vec![(0, 2), (2, 3)]);
        // And the actual injection reserves exactly that read-only path.
        noc.message(0, 3, 64, SimTime::ZERO, &c);
        assert!(!noc.link_free(0, 2).is_zero());
        assert!(!noc.link_free(2, 3).is_zero());
    }

    #[test]
    fn adaptive_tie_breaks_on_the_injection_counter() {
        let noc = Noc::with_routing(2, 2, &Adaptive);
        // Idle fabric: both minimal directions tie, so the tie-break
        // alternates with the injection counter — deterministically.
        let even: Vec<_> = noc.adaptive_route(0, 3).collect();
        assert_eq!(even, vec![(0, 1), (1, 3)], "msg 0 ties toward X first");
        let mut noc = noc;
        noc.msg_seq = 1;
        let odd: Vec<_> = noc.adaptive_route(0, 3).collect();
        assert_eq!(odd, vec![(0, 2), (2, 3)], "msg 1 ties toward Y first");
    }

    #[test]
    fn router_pipeline_depth_scales_head_latency_only() {
        let cfg = ArchConfig::paper_default();
        let deep = cfg.clone().with_router_pipeline_depth(3);
        let c1 = NocCosts::new(&cfg);
        let c3 = NocCosts::new(&deep);
        // Serialization (link throughput) is depth-independent; only the
        // per-hop head latency deepens.
        assert_eq!(c1.serialization(17), c3.serialization(17));
        assert_eq!(c1.router_latency(), c1.hop());
        assert_eq!(c3.router_latency(), c3.hop() * 3);
        // A one-hop message pays exactly depth * hop + serialization.
        for (costs, depth) in [(c1, 1u64), (c3, 3u64)] {
            let mut noc = Noc::new(2, 2);
            let done = noc.message(0, 1, 64, SimTime::ZERO, &costs);
            let expect = costs.hop() * depth + costs.serialization(costs.flits_for_elems(64));
            assert_eq!(done, SimTime::ZERO + expect);
        }
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn zero_sized_mesh_is_rejected() {
        let _ = Noc::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "outside the 2x2 mesh")]
    fn out_of_mesh_core_is_rejected() {
        // Regression: ids >= rows*cols used to silently fabricate
        // out-of-mesh links instead of failing.
        let noc = Noc::new(2, 2);
        let _ = noc.route(0, 4, DimOrder::XFirst);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_mesh_memory_access_is_rejected() {
        let cfg = ArchConfig::paper_default();
        let c = costs(&cfg);
        let mut noc = Noc::new(2, 2);
        let _ = noc.memory_access(9, 64, SimTime::ZERO, &c);
    }

    #[test]
    fn for_arch_matches_config_mesh_and_policy() {
        let mut cfg = ArchConfig::small_test();
        cfg.noc.routing = pimsim_arch::RoutingPolicy::Yx;
        let noc = Noc::for_arch(&cfg);
        assert_eq!(noc.rows(), cfg.resources.core_rows);
        assert_eq!(noc.cols(), cfg.resources.core_cols);
        assert_eq!(noc.routing().name(), "yx");
    }

    #[test]
    fn self_message_charges_local_copy() {
        // Pinned choice: same-core rendezvous is NOT free — it pays the
        // scratchpad-copy cost from the shared cost model.
        let cfg = ArchConfig::paper_default();
        let c = costs(&cfg);
        let mut noc = Noc::new(8, 8);
        let start = SimTime::from_ns(5);
        let done = noc.message(5, 5, 256, start, &c);
        assert_eq!(done, start + c.local_copy(256).time);
        assert!(done > start);
        // And it never reserves mesh links.
        assert!(noc.link_free.iter().all(|t| t.is_zero()));
    }

    #[test]
    fn farther_is_slower() {
        let cfg = ArchConfig::paper_default();
        let c = costs(&cfg);
        let mut noc = Noc::new(8, 8);
        let near = noc.message(0, 1, 64, SimTime::ZERO, &c);
        let mut noc2 = Noc::new(8, 8);
        let far = noc2.message(0, 63, 64, SimTime::ZERO, &c);
        assert!(far > near);
    }

    #[test]
    fn contention_serializes_on_shared_links() {
        let cfg = ArchConfig::paper_default();
        let c = costs(&cfg);
        let mut noc = Noc::new(8, 8);
        let first = noc.message(0, 7, 1024, SimTime::ZERO, &c);
        // Same path immediately afterwards: must wait behind the first.
        let second = noc.message(0, 7, 1024, SimTime::ZERO, &c);
        assert!(second > first);
        // A disjoint path is unaffected.
        let mut fresh = Noc::new(8, 8);
        let disjoint_fresh = fresh.message(56, 63, 1024, SimTime::ZERO, &c);
        let disjoint_after = noc.message(56, 63, 1024, SimTime::ZERO, &c);
        assert_eq!(disjoint_fresh, disjoint_after);
    }

    #[test]
    fn memory_controller_queues() {
        let cfg = ArchConfig::paper_default();
        let c = costs(&cfg);
        let mut noc = Noc::new(8, 8);
        let a = noc.memory_access(0, 4096, SimTime::ZERO, &c);
        let b = noc.memory_access(63, 4096, SimTime::ZERO, &c);
        assert!(b > a, "controller should serialize concurrent streams");
        assert!(!noc.link_free(0, MEM_NODE).is_zero(), "mem port reserved");
    }

    #[test]
    fn noc_costs_match_the_cost_model() {
        // NocCosts is a hot-path cache of CostModel, not a second model:
        // every derived quantity must agree exactly.
        for cfg in [ArchConfig::paper_default(), ArchConfig::small_test()] {
            let m = CostModel::new(&cfg);
            let c = NocCosts::new(&cfg);
            assert_eq!(c.hop(), m.noc_hop_latency(1));
            // At the default depth 1 the full router traversal is the
            // plain hop cost, so the fabric cannot move a picosecond.
            assert_eq!(c.router_latency(), m.noc_hop_latency(1));
            for elems in [0u32, 1, 8, 9, 64, 1000, 4096] {
                assert_eq!(c.flits_for_elems(elems), m.flits_for_elems(elems));
                assert_eq!(c.local_copy(elems), m.local_copy_cost(elems));
                assert_eq!(c.global_mem(elems), m.global_mem_cost(elems));
            }
            for flits in [1u64, 2, 17, 129] {
                assert_eq!(c.serialization(flits), m.link_serialization(flits));
                assert_eq!(c.noc_energy(flits, 3), m.noc_energy(flits, 3));
            }
            for (a, b) in [(0u16, 0u16), (0, 9), (5, 5), (0, 8)] {
                assert_eq!(c.hops(a, b), cfg.resources.mesh_hops(a, b));
                assert_eq!(c.message_energy(a, b, 64), m.message_energy(a, b, 64));
            }
        }
    }

    #[test]
    fn dense_occupancy_tracks_every_directed_link() {
        // Bidirectional traffic on one edge occupies two distinct slots.
        let cfg = ArchConfig::paper_default();
        let c = costs(&cfg);
        let mut noc = Noc::new(2, 2);
        noc.message(0, 1, 64, SimTime::ZERO, &c);
        noc.message(1, 0, 64, SimTime::ZERO, &c);
        assert!(!noc.link_free(0, 1).is_zero());
        assert!(!noc.link_free(1, 0).is_zero());
        assert_ne!(noc.link_index(0, 1), noc.link_index(1, 0));
    }
}
