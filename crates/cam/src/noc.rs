//! A 2D-mesh network-on-chip CAM with deterministic XY routing.
//!
//! [`MeshNoc`] models a `cols × rows` mesh of routers at CCATB granularity.
//! A transaction is flitized (one head flit plus payload flits of
//! [`NocConfig::flit_bytes`] each), routed **X-first then Y** from the
//! master's node to the slave's node, and charged per hop: every directed
//! link is an arbitration gate, and forwarding a packet over a link costs
//! `router_cycles + flits × cycles_per_flit` link-clock cycles
//! (store-and-forward). The ejection port at the destination node is a gate
//! of its own and is held across the slave access, which is exactly where
//! hotspot traffic piles up.
//!
//! **Deadlock freedom:** a packet releases the gate for hop *i* before
//! requesting the gate for hop *i + 1*, so a transaction inside the NoC
//! holds at most one link gate at any time — the hold-and-wait condition for a
//! routing deadlock cannot arise, for any mesh size or traffic pattern.
//! (XY routing would also be cycle-free under wormhole rules; the
//! store-and-forward discipline makes the argument independent of the
//! turn model.)
//!
//! Placement is deterministic: master `m` injects at node `m % nodes`, and
//! [`map_slave`](MeshNoc::map_slave) ejects slave `k` at node `k % nodes`
//! (override with [`map_slave_at`](MeshNoc::map_slave_at)).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::stats::RunningStats;
use shiptlm_kernel::time::{SimDur, SimTime};
use shiptlm_ocp::memory::Router;
use shiptlm_ocp::payload::OcpRequest;
use shiptlm_ocp::tl::{MasterId, OcpFuture, OcpMasterPort, OcpTarget};

use crate::account::{Book, Cam, Transfer};
use crate::arb::ArbPolicy;
use crate::bus::{ArbGate, BusStats};

/// Static parameters of a 2D-mesh NoC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// NoC name (reports, trace).
    pub name: String,
    /// Mesh width in nodes.
    pub cols: usize,
    /// Mesh height in nodes.
    pub rows: usize,
    /// Link clock period.
    pub clock: SimDur,
    /// Flit payload width in bytes.
    pub flit_bytes: usize,
    /// Link cycles per flit.
    pub cycles_per_flit: u64,
    /// Per-hop router pipeline latency in cycles (route compute + switch).
    pub router_cycles: u64,
    /// Per-link arbitration policy.
    pub arb: ArbPolicy,
}

impl NocConfig {
    /// A `cols × rows` mesh with 200 MHz links, 4-byte flits, single-cycle
    /// link traversal, one router pipeline cycle and round-robin link
    /// arbitration.
    pub fn mesh(name: &str, cols: usize, rows: usize) -> Self {
        NocConfig {
            name: name.to_string(),
            cols,
            rows,
            clock: SimDur::ns(5),
            flit_bytes: 4,
            cycles_per_flit: 1,
            router_cycles: 1,
            arb: ArbPolicy::RoundRobin,
        }
    }

    /// Replaces the per-link arbitration policy.
    pub fn with_arb(mut self, arb: ArbPolicy) -> Self {
        self.arb = arb;
        self
    }

    /// Replaces the link clock period.
    pub fn with_clock(mut self, clock: SimDur) -> Self {
        self.clock = clock;
        self
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }
}

/// NoC-specific accounting on top of the common [`BusStats`].
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Total flits moved over links (head + payload, request and response).
    pub flits: u64,
    /// Per-transaction hop count on the request path (links traversed plus
    /// the ejection port).
    pub hops: RunningStats,
}

/// A 2D-mesh NoC CAM: XY routing, per-link arbitration, store-and-forward
/// flit accounting.
///
/// ```
/// use std::sync::Arc;
/// use shiptlm_kernel::prelude::*;
/// use shiptlm_ocp::prelude::*;
/// use shiptlm_cam::noc::{MeshNoc, NocConfig};
///
/// let sim = Simulation::new();
/// let mut noc = MeshNoc::new(&sim.handle(), NocConfig::mesh("mesh0", 4, 4));
/// noc.map_slave(0x0000..0x1000, Arc::new(Memory::new("ram", 0x1000)), true);
/// let noc = Arc::new(noc);
/// let port = noc.master_port(MasterId(5));
/// sim.spawn_thread("pe5", move |ctx| {
///     port.write(ctx, 0x10, vec![1, 2, 3, 4]).unwrap();
/// });
/// sim.run();
/// assert_eq!(noc.stats().transactions, 1);
/// ```
pub struct MeshNoc {
    cfg: NocConfig,
    router: Router,
    /// The ejection node of each slave, in mapping order.
    nodes: Vec<usize>,
    /// Directed link gates: key `(a, b)` is the link from node `a` to its
    /// mesh neighbour `b`; key `(n, n)` is node `n`'s ejection port.
    links: Vec<ArbGate>,
    link_of: BTreeMap<(usize, usize), usize>,
    book: Book<NocStats>,
}

impl MeshNoc {
    /// Creates the mesh and all its directed link gates; attach slaves with
    /// [`map_slave`](Self::map_slave) before sharing.
    pub fn new(sim: &SimHandle, cfg: NocConfig) -> Self {
        assert!(cfg.cols > 0 && cfg.rows > 0, "mesh dimensions must be non-zero");
        assert!(cfg.flit_bytes > 0, "flit width must be non-zero");
        assert!(!cfg.clock.is_zero(), "link clock must be non-zero");
        let mut links = Vec::new();
        let mut link_of = BTreeMap::new();
        let mut add = |from: usize, to: usize, links: &mut Vec<ArbGate>| {
            let name = if from == to {
                format!("{}.n{from}.eject", cfg.name)
            } else {
                format!("{}.l{from}-{to}", cfg.name)
            };
            link_of.insert((from, to), links.len());
            links.push(ArbGate::new(sim, &name, cfg.arb.clone()));
        };
        for y in 0..cfg.rows {
            for x in 0..cfg.cols {
                let n = y * cfg.cols + x;
                add(n, n, &mut links);
                if x > 0 {
                    add(n, n - 1, &mut links);
                }
                if x + 1 < cfg.cols {
                    add(n, n + 1, &mut links);
                }
                if y > 0 {
                    add(n, n - cfg.cols, &mut links);
                }
                if y + 1 < cfg.rows {
                    add(n, n + cfg.cols, &mut links);
                }
            }
        }
        MeshNoc {
            router: Router::new(&format!("{}.decoder", cfg.name)),
            nodes: Vec::new(),
            links,
            link_of,
            book: Book::new(&cfg.name, cfg.clock),
            cfg,
        }
    }

    /// Maps a slave at the next node in round-robin placement
    /// (`index % nodes`).
    ///
    /// # Panics
    ///
    /// Panics on overlapping ranges.
    pub fn map_slave(&mut self, range: Range<u64>, target: Arc<dyn OcpTarget>, relative: bool) {
        let node = self.nodes.len() % self.cfg.nodes();
        self.map_slave_at(range, target, relative, node);
    }

    /// Maps a slave at an explicit mesh node.
    ///
    /// # Panics
    ///
    /// Panics on overlapping ranges or an out-of-mesh node.
    pub fn map_slave_at(
        &mut self,
        range: Range<u64>,
        target: Arc<dyn OcpTarget>,
        relative: bool,
        node: usize,
    ) {
        assert!(node < self.cfg.nodes(), "node {node} outside the mesh");
        self.router.map(range, target, relative);
        self.nodes.push(node);
    }

    /// The NoC configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// A master port bound to this NoC; master `m` injects at node
    /// `m % nodes`.
    pub fn master_port(self: &Arc<Self>, id: MasterId) -> OcpMasterPort {
        OcpMasterPort::bind(id, Arc::<MeshNoc>::clone(self))
    }

    /// A snapshot of the common interconnect statistics.
    pub fn stats(&self) -> BusStats {
        self.book.stats()
    }

    /// A snapshot of the NoC-specific statistics (flits, hop counts).
    pub fn noc_stats(&self) -> NocStats {
        self.book.family()
    }

    /// The XY route from `src` to `dst` as an inclusive node sequence:
    /// X-first, then Y.
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let cols = self.cfg.cols;
        let (mut x, mut y) = (src % cols, src / cols);
        let (dx, dy) = (dst % cols, dst / cols);
        let mut path = vec![src];
        while x != dx {
            x = if x < dx { x + 1 } else { x - 1 };
            path.push(y * cols + x);
        }
        while y != dy {
            y = if y < dy { y + 1 } else { y - 1 };
            path.push(y * cols + x);
        }
        path
    }

    fn gate(&self, from: usize, to: usize) -> &ArbGate {
        &self.links[self.link_of[&(from, to)]]
    }

    fn cycles(&self, n: u64) -> SimDur {
        self.cfg.clock.saturating_mul(n)
    }

    /// Forwards `flits` flits over the directed link `from → to`, charging
    /// arbitration + store-and-forward latency. Returns
    /// `(granted_at, held_for)`.
    async fn hop(
        &self,
        sim: &SimHandle,
        master: MasterId,
        from: usize,
        to: usize,
        flits: u64,
    ) -> (SimTime, SimDur) {
        let gate = self.gate(from, to);
        let (granted_at, _b2b, _depth) = gate.acquire(sim, master).await;
        sim.wait_for(self.cycles(
            self.cfg.router_cycles + flits * self.cfg.cycles_per_flit,
        ))
        .await;
        let now = sim.now();
        gate.release(now);
        (granted_at, now.since(granted_at))
    }
}

impl OcpTarget for MeshNoc {
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        master: MasterId,
        mut req: OcpRequest,
    ) -> OcpFuture<'a> {
        Box::pin(async move {
            let mut t = Transfer::begin(sim, master, &req);
            let (slave, target) = self.router.decode(&mut req)?;

            let src = master.0 % self.cfg.nodes();
            let dst = self.nodes[slave];
            let payload_flits = t.len.div_ceil(self.cfg.flit_bytes) as u64;
            // Writes carry their payload out; reads carry it back. The
            // reverse direction is a single head/ack flit.
            let req_flits = 1 + if t.is_read { 0 } else { payload_flits };
            let resp_flits = 1 + if t.is_read { payload_flits } else { 0 };

            let mut first_grant: Option<SimTime> = None;
            let mut hops = 0u64;
            for w in self.route(src, dst).windows(2) {
                let (granted, held) = self.hop(sim, master, w[0], w[1], req_flits).await;
                first_grant.get_or_insert(granted);
                t.busy += held;
                hops += 1;
            }

            // Ejection into the destination's local port, held across the
            // slave access: competing masters aimed at a hot node serialize
            // here.
            let eject = self.gate(dst, dst);
            let (granted, _b2b, queue_depth) = eject.acquire(sim, master).await;
            t.granted = first_grant.unwrap_or(granted);
            t.queue_depth = queue_depth;
            hops += 1;
            sim.wait_for(self.cycles(
                self.cfg.router_cycles + req_flits * self.cfg.cycles_per_flit,
            ))
            .await;
            let result = target.transact(sim, master, req).await;
            let now = sim.now();
            t.busy += now.since(granted);
            eject.release(now);

            // Response path back to the source (only a completed access
            // generates response flits).
            if result.is_ok() {
                for w in self.route(dst, src).windows(2) {
                    let (_granted, held) = self.hop(sim, master, w[0], w[1], resp_flits).await;
                    t.busy += held;
                }
            }

            self.book.settle(
                sim,
                t,
                result,
                |n, ok| {
                    n.flits += req_flits * hops + if ok { resp_flits * (hops - 1) } else { 0 };
                    n.hops.record(hops as f64);
                },
                &[("noc.flits", req_flits + resp_flits)],
            )
        })
    }

    fn target_name(&self) -> String {
        self.cfg.name.clone()
    }
}

impl Cam for MeshNoc {
    fn stats(&self) -> BusStats {
        self.book.stats()
    }

    fn clock(&self) -> SimDur {
        self.cfg.clock
    }
}

impl fmt::Debug for MeshNoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeshNoc")
            .field("name", &self.cfg.name)
            .field("mesh", &format_args!("{}x{}", self.cfg.cols, self.cfg.rows))
            .field("outputs", &self.nodes.len())
            .field("links", &self.links.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiptlm_kernel::sim::Simulation;

    fn mesh(cols: usize, rows: usize) -> MeshNoc {
        let sim = Simulation::new();
        MeshNoc::new(&sim.handle(), NocConfig::mesh("m", cols, rows))
    }

    #[test]
    fn xy_route_goes_x_first_then_y() {
        let m = mesh(4, 4);
        // Node layout: n = y*4 + x. From (1,0)=1 to (3,2)=11.
        assert_eq!(m.route(1, 11), vec![1, 2, 3, 7, 11]);
        // Westward + northward.
        assert_eq!(m.route(11, 1), vec![11, 10, 9, 5, 1]);
        // Same node: no link hops.
        assert_eq!(m.route(6, 6), vec![6]);
        // Same column: Y only.
        assert_eq!(m.route(2, 14), vec![2, 6, 10, 14]);
    }

    #[test]
    fn route_length_is_manhattan_distance() {
        let m = mesh(5, 3);
        for src in 0..15usize {
            for dst in 0..15usize {
                let (sx, sy) = (src % 5, src / 5);
                let (dx, dy) = (dst % 5, dst / 5);
                let manhattan = sx.abs_diff(dx) + sy.abs_diff(dy);
                assert_eq!(m.route(src, dst).len(), manhattan + 1, "{src}->{dst}");
            }
        }
    }

    #[test]
    fn mesh_builds_all_directed_links() {
        // 4x4: 2*(4*3)*2 = 48 directed mesh links + 16 ejection ports.
        let m = mesh(4, 4);
        assert_eq!(m.links.len(), 48 + 16);
        // 16x16 (the 256-PE configuration) elaborates fine.
        let m = mesh(16, 16);
        assert_eq!(m.links.len(), 2 * (16 * 15) * 2 + 256);
    }
}
