//! Target communication-architecture specifications.
//!
//! An [`ArchSpec`] is half of a gateway job, so it has the job schema's two
//! forms (see [`crate::model`]): a binary [`ShipSerialize`] encoding and a
//! JSON object, both decoded through one range check ([`ArchSpec::check`]).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use shiptlm_cam::account::Cam;
use shiptlm_cam::arb::ArbPolicy;
use shiptlm_cam::bus::{BusConfig, BusStats, CcatbBus};
use shiptlm_cam::crossbar::{Crossbar, CrossbarConfig};
use shiptlm_cam::noc::{MeshNoc, NocConfig};
use shiptlm_kernel::json::Json;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;
use shiptlm_ocp::tl::{MasterId, OcpMasterPort, OcpTarget};
use shiptlm_ship::serialize::ShipSerialize;
use shiptlm_ship::wire::{ByteReader, ByteWriter, WireError};

use crate::mapper::MapError;
use crate::model::int_field;

/// Which interconnect topology to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// CoreConnect PLB-like shared bus.
    Plb,
    /// CoreConnect OPB-like peripheral bus.
    Opb,
    /// Full crossbar.
    Crossbar,
    /// AMBA AHB-like shared bus with SPLIT/RETRY arbitration.
    Ahb,
    /// 2D-mesh NoC with XY routing.
    Noc {
        /// Mesh width in nodes.
        cols: u8,
        /// Mesh height in nodes.
        rows: u8,
    },
}

impl BusKind {
    /// `true` for topologies where the split-capable-slaves axis
    /// ([`ArchSpec::split_slaves`]) changes the built interconnect.
    pub fn supports_split(self) -> bool {
        matches!(self, BusKind::Ahb)
    }
}

impl fmt::Display for BusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusKind::Plb => f.write_str("plb"),
            BusKind::Opb => f.write_str("opb"),
            BusKind::Crossbar => f.write_str("xbar"),
            BusKind::Ahb => f.write_str("ahb"),
            BusKind::Noc { cols, rows } => write!(f, "noc{cols}x{rows}"),
        }
    }
}

/// One candidate architecture configuration for exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSpec {
    /// Topology.
    pub bus: BusKind,
    /// Arbitration policy (per output for the crossbar).
    pub arb: ArbPolicy,
    /// Interconnect clock period; `None` keeps the preset.
    pub clock: Option<SimDur>,
    /// Wrapper burst size in bytes.
    pub burst_bytes: usize,
    /// Mailbox depth per channel adapter.
    pub rx_capacity: usize,
    /// Master-side status polling interval.
    pub poll_interval: SimDur,
    /// Treat slaves as SPLIT-capable (only meaningful for
    /// [`BusKind::Ahb`]: each transfer releases the bus during the slave
    /// access and is re-granted for the data phase).
    pub split_slaves: bool,
}

impl ArchSpec {
    /// A PLB architecture with default wrapper settings.
    pub fn plb() -> Self {
        ArchSpec {
            bus: BusKind::Plb,
            arb: ArbPolicy::FixedPriority,
            clock: None,
            burst_bytes: 64,
            rx_capacity: 4,
            poll_interval: SimDur::ns(100),
            split_slaves: false,
        }
    }

    /// An OPB architecture with default wrapper settings.
    pub fn opb() -> Self {
        ArchSpec {
            bus: BusKind::Opb,
            ..ArchSpec::plb()
        }
    }

    /// A crossbar architecture with default wrapper settings.
    pub fn crossbar() -> Self {
        ArchSpec {
            bus: BusKind::Crossbar,
            arb: ArbPolicy::RoundRobin,
            ..ArchSpec::plb()
        }
    }

    /// An AHB architecture with default wrapper settings (SPLIT off; enable
    /// with [`with_split`](Self::with_split)).
    pub fn ahb() -> Self {
        ArchSpec {
            bus: BusKind::Ahb,
            ..ArchSpec::plb()
        }
    }

    /// A `cols × rows` mesh-NoC architecture with default wrapper settings.
    pub fn noc(cols: u8, rows: u8) -> Self {
        ArchSpec {
            bus: BusKind::Noc { cols, rows },
            arb: ArbPolicy::RoundRobin,
            ..ArchSpec::plb()
        }
    }

    /// Replaces the arbitration policy.
    pub fn with_arb(mut self, arb: ArbPolicy) -> Self {
        self.arb = arb;
        self
    }

    /// Replaces the wrapper burst size.
    pub fn with_burst(mut self, burst_bytes: usize) -> Self {
        self.burst_bytes = burst_bytes;
        self
    }

    /// Replaces the interconnect clock period (the preset stays when unset).
    pub fn with_clock(mut self, clock: SimDur) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Replaces the per-channel mailbox depth.
    pub fn with_rx_capacity(mut self, rx_capacity: usize) -> Self {
        self.rx_capacity = rx_capacity;
        self
    }

    /// Replaces the master-side status polling interval.
    pub fn with_poll(mut self, poll_interval: SimDur) -> Self {
        self.poll_interval = poll_interval;
        self
    }

    /// Marks slaves as SPLIT-capable (meaningful for [`BusKind::Ahb`]).
    pub fn with_split(mut self, split_slaves: bool) -> Self {
        self.split_slaves = split_slaves;
        self
    }

    /// A short label for report rows, e.g. `plb/priority/b64`. Non-default
    /// clock, mailbox depth and polling interval are appended (e.g.
    /// `plb/priority/b64/c20ns/rx8/p400ns`) so every point of a large design
    /// grid gets a distinct row label.
    pub fn label(&self) -> String {
        let mut label = format!("{}/{}/b{}", self.bus, self.arb.label(), self.burst_bytes);
        if let Some(clock) = self.clock {
            label.push_str(&format!("/c{clock}"));
        }
        if self.rx_capacity != 4 {
            label.push_str(&format!("/rx{}", self.rx_capacity));
        }
        if self.poll_interval != SimDur::ns(100) {
            label.push_str(&format!("/p{}", self.poll_interval));
        }
        if self.split_slaves {
            label.push_str("/split");
        }
        label
    }

    /// The interconnect clock period this spec elaborates to: the explicit
    /// [`clock`](Self::clock) override, or the topology preset
    /// ([`BusConfig::plb`]/[`BusConfig::opb`]/[`BusConfig::ahb`]/
    /// [`CrossbarConfig::default_64bit`]/[`NocConfig::mesh`]).
    pub fn effective_clock(&self) -> SimDur {
        if let Some(clock) = self.clock {
            return clock;
        }
        match self.bus {
            BusKind::Plb => BusConfig::plb("probe").clock,
            BusKind::Opb => BusConfig::opb("probe").clock,
            BusKind::Crossbar => CrossbarConfig::default_64bit("probe").clock,
            BusKind::Ahb => BusConfig::ahb("probe").clock,
            BusKind::Noc { .. } => NocConfig::mesh("probe", 1, 1).clock,
        }
    }

    /// The data-path width in bytes this spec elaborates to (from the same
    /// presets as [`effective_clock`](Self::effective_clock)).
    pub fn link_width_bytes(&self) -> usize {
        match self.bus {
            BusKind::Plb => BusConfig::plb("probe").width_bytes,
            BusKind::Opb => BusConfig::opb("probe").width_bytes,
            BusKind::Crossbar => CrossbarConfig::default_64bit("probe").width_bytes,
            BusKind::Ahb => BusConfig::ahb("probe").width_bytes,
            BusKind::Noc { .. } => NocConfig::mesh("probe", 1, 1).flit_bytes,
        }
    }

    /// A **lower bound** on the simulated time any run must spend moving
    /// `bytes` across one link of this architecture: `ceil(bytes / width)`
    /// data beats at one interconnect clock each. Real runs are strictly
    /// slower (arbitration, wrapper protocol, polling — and, on the new
    /// families, AHB split/re-grant latency and NoC head-flit + per-hop
    /// router cycles), which is exactly what makes this bound safe for
    /// Pareto-guided pruning — a candidate whose *floor* is already beaten
    /// cannot win.
    pub fn min_transfer_time(&self, bytes: u64) -> SimDur {
        let width = self.link_width_bytes().max(1) as u64;
        let beats = bytes.div_ceil(width);
        self.effective_clock().saturating_mul(beats)
    }
}

impl ArchSpec {
    /// The range check both decoders run: rejects values that would wedge
    /// or crash an executor. A zero mailbox depth waits forever for space;
    /// a zero burst, a zero clock period and a zero TDMA slot or slot count
    /// divide by zero inside the run.
    ///
    /// # Errors
    ///
    /// Describes the first out-of-range field.
    pub fn check(&self) -> Result<(), String> {
        if self.burst_bytes == 0 {
            return Err("burst_bytes must be non-zero".into());
        }
        if self.rx_capacity == 0 {
            return Err("rx_capacity must be non-zero".into());
        }
        if self.clock == Some(SimDur::ZERO) {
            return Err("clock period must be non-zero".into());
        }
        if let ArbPolicy::Tdma { slot, slots } = &self.arb {
            if *slot == SimDur::ZERO || *slots == 0 {
                return Err(format!(
                    "TDMA needs a non-zero slot and slot count, got {slots} slots of {slot}"
                ));
            }
        }
        Ok(())
    }

    /// The JSON object of gateway job documents and corpus cases. Optional
    /// fields (`split`, `clock_ps`) appear only when set, so documents
    /// written before they existed stay byte-stable.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "bus",
                Json::str(match self.bus {
                    BusKind::Plb => "plb",
                    BusKind::Opb => "opb",
                    BusKind::Crossbar => "crossbar",
                    BusKind::Ahb => "ahb",
                    BusKind::Noc { .. } => "noc",
                }),
            ),
            ("burst_bytes", Json::num(self.burst_bytes as f64)),
            ("rx_capacity", Json::num(self.rx_capacity as f64)),
            (
                "poll_interval_ps",
                Json::u64_str(self.poll_interval.as_ps()),
            ),
        ];
        if let BusKind::Noc { cols, rows } = self.bus {
            fields.push(("cols", Json::num(cols)));
            fields.push(("rows", Json::num(rows)));
        }
        if self.split_slaves {
            fields.push(("split", Json::Bool(true)));
        }
        if let Some(c) = self.clock {
            fields.push(("clock_ps", Json::u64_str(c.as_ps())));
        }
        match &self.arb {
            ArbPolicy::FixedPriority => fields.push(("arb", Json::str("priority"))),
            ArbPolicy::RoundRobin => fields.push(("arb", Json::str("round-robin"))),
            ArbPolicy::Tdma { slot, slots } => {
                fields.push(("arb", Json::str("tdma")));
                fields.push(("tdma_slot_ps", Json::u64_str(slot.as_ps())));
                fields.push(("tdma_slots", Json::num(*slots as f64)));
            }
        }
        Json::obj(fields)
    }

    /// Parses the [`to_json`](Self::to_json) object; absent wrapper knobs
    /// keep the topology preset's defaults.
    ///
    /// # Errors
    ///
    /// Describes the first missing, malformed or out-of-range field.
    pub fn from_json(v: &Json) -> Result<ArchSpec, String> {
        let mut arch = match v.get("bus").and_then(Json::as_str) {
            Some("plb") => ArchSpec::plb(),
            Some("opb") => ArchSpec::opb(),
            Some("crossbar") => ArchSpec::crossbar(),
            Some("ahb") => ArchSpec::ahb(),
            Some("noc") => ArchSpec::noc(int_field(v, "cols")?, int_field(v, "rows")?),
            other => return Err(format!("unknown bus kind {other:?}")),
        };
        let ps = |key: &str| -> Result<Option<SimDur>, String> {
            v.get(key)
                .map(|p| {
                    p.as_u64_str()
                        .map(SimDur::ps)
                        .ok_or_else(|| format!("malformed '{key}'"))
                })
                .transpose()
        };
        arch.arb = match v.get("arb").and_then(Json::as_str) {
            Some("priority") => ArbPolicy::FixedPriority,
            Some("round-robin") => ArbPolicy::RoundRobin,
            Some("tdma") => ArbPolicy::Tdma {
                slot: ps("tdma_slot_ps")?.ok_or("tdma arch missing 'tdma_slot_ps'")?,
                slots: int_field(v, "tdma_slots")?,
            },
            other => return Err(format!("unknown arbitration {other:?}")),
        };
        if let Some(s) = v.get("split") {
            arch.split_slaves = s.as_bool().ok_or("malformed 'split'")?;
        }
        if v.get("burst_bytes").is_some() {
            arch.burst_bytes = int_field(v, "burst_bytes")?;
        }
        if v.get("rx_capacity").is_some() {
            arch.rx_capacity = int_field(v, "rx_capacity")?;
        }
        if let Some(p) = ps("poll_interval_ps")? {
            arch.poll_interval = p;
        }
        arch.clock = ps("clock_ps")?;
        arch.check()?;
        Ok(arch)
    }
}

impl ShipSerialize for ArchSpec {
    fn serialize(&self, w: &mut ByteWriter) {
        match self.bus {
            BusKind::Plb => w.put_u8(0),
            BusKind::Opb => w.put_u8(1),
            BusKind::Crossbar => w.put_u8(2),
            BusKind::Ahb => w.put_u8(3),
            BusKind::Noc { cols, rows } => {
                w.put_u8(4);
                w.put_u8(cols);
                w.put_u8(rows);
            }
        }
        match &self.arb {
            ArbPolicy::FixedPriority => w.put_u8(0),
            ArbPolicy::RoundRobin => w.put_u8(1),
            ArbPolicy::Tdma { slot, slots } => {
                w.put_u8(2);
                w.put_u64(slot.as_ps());
                slots.serialize(w);
            }
        }
        self.clock.map(|c| c.as_ps()).serialize(w);
        self.burst_bytes.serialize(w);
        self.rx_capacity.serialize(w);
        w.put_u64(self.poll_interval.as_ps());
        self.split_slaves.serialize(w);
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let mut arch = match r.get_u8()? {
            0 => ArchSpec::plb(),
            1 => ArchSpec::opb(),
            2 => ArchSpec::crossbar(),
            3 => ArchSpec::ahb(),
            4 => {
                let cols = r.get_u8()?;
                ArchSpec::noc(cols, r.get_u8()?)
            }
            t => return Err(WireError::InvalidValue(format!("bus tag {t:#x}"))),
        };
        arch.arb = match r.get_u8()? {
            0 => ArbPolicy::FixedPriority,
            1 => ArbPolicy::RoundRobin,
            2 => ArbPolicy::Tdma {
                slot: SimDur::ps(r.get_u64()?),
                slots: usize::deserialize(r)?,
            },
            t => return Err(WireError::InvalidValue(format!("arb tag {t:#x}"))),
        };
        arch.clock = Option::<u64>::deserialize(r)?.map(SimDur::ps);
        arch.burst_bytes = usize::deserialize(r)?;
        arch.rx_capacity = usize::deserialize(r)?;
        arch.poll_interval = SimDur::ps(r.get_u64()?);
        arch.split_slaves = bool::deserialize(r)?;
        arch.check().map_err(WireError::InvalidValue)?;
        Ok(arch)
    }
}

/// A full-factorial design grid over [`ArchSpec`] axes — the generator that
/// scales exploration from a handful of hand-picked candidates to the
/// 1k–10k-point spaces Pareto-guided pruning is built for.
///
/// Axis order in [`generate`](ArchGrid::generate) is deterministic
/// (bus → split → arbitration → clock → burst → mailbox depth →
/// poll interval), so a grid is a stable, reproducible candidate list.
#[derive(Debug, Clone)]
pub struct ArchGrid {
    /// Interconnect topologies.
    pub buses: Vec<BusKind>,
    /// Arbitration policies.
    pub arbs: Vec<ArbPolicy>,
    /// Clock periods; `None` keeps the topology preset.
    pub clocks: Vec<Option<SimDur>>,
    /// Wrapper burst sizes in bytes.
    pub bursts: Vec<usize>,
    /// Mailbox depths per channel adapter.
    pub rx_capacities: Vec<usize>,
    /// Master-side polling intervals.
    pub polls: Vec<SimDur>,
    /// Split-capable-slave settings; only multiplies the grid for
    /// topologies where it matters ([`BusKind::supports_split`]), so
    /// `vec![false, true]` does not duplicate PLB/NoC labels.
    pub splits: Vec<bool>,
}

impl ArchGrid {
    /// The default exploration grid: 3 topologies × 3 arbitration policies
    /// × 4 clock ratios × 6 burst sizes × 3 mailbox depths × 2 polling
    /// intervals = 1296 candidates.
    pub fn exploration_default() -> Self {
        ArchGrid {
            buses: vec![BusKind::Plb, BusKind::Opb, BusKind::Crossbar],
            arbs: vec![
                ArbPolicy::FixedPriority,
                ArbPolicy::RoundRobin,
                ArbPolicy::Tdma {
                    slot: SimDur::us(2),
                    slots: 4,
                },
            ],
            clocks: vec![
                None,
                Some(SimDur::ns(5)),
                Some(SimDur::ns(20)),
                Some(SimDur::ns(40)),
            ],
            bursts: vec![8, 16, 32, 64, 128, 256],
            rx_capacities: vec![2, 4, 8],
            polls: vec![SimDur::ns(100), SimDur::ns(400)],
            splits: vec![false],
        }
    }

    /// The full interconnect-family grid: the [`exploration_default`]
    /// (ArchGrid::exploration_default) axes over all five topology families
    /// — PLB, OPB, crossbar, AHB (with and without SPLIT-capable slaves)
    /// and 4×4 / 8×8 meshes. 7 topology points × 3 arbitration × 4 clocks
    /// × 6 bursts × 3 depths × 2 polls = 3024 candidates.
    pub fn interconnect_families() -> Self {
        ArchGrid {
            buses: vec![
                BusKind::Plb,
                BusKind::Opb,
                BusKind::Crossbar,
                BusKind::Ahb,
                BusKind::Noc { cols: 4, rows: 4 },
                BusKind::Noc { cols: 8, rows: 8 },
            ],
            splits: vec![false, true],
            ..ArchGrid::exploration_default()
        }
    }

    /// The split settings that actually apply to `bus` (a single `false`
    /// for topologies without SPLIT support).
    fn splits_for(&self, bus: BusKind) -> &[bool] {
        if bus.supports_split() && !self.splits.is_empty() {
            &self.splits
        } else {
            &[false]
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        let per_bus: usize = self
            .buses
            .iter()
            .map(|&bus| self.splits_for(bus).len())
            .sum();
        per_bus
            * self.arbs.len()
            * self.clocks.len()
            * self.bursts.len()
            * self.rx_capacities.len()
            * self.polls.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes every grid point, in deterministic axis order.
    pub fn generate(&self) -> Vec<ArchSpec> {
        let mut out = Vec::with_capacity(self.len());
        for &bus in &self.buses {
            for &split in self.splits_for(bus) {
                for arb in &self.arbs {
                    for clock in &self.clocks {
                        for &burst in &self.bursts {
                            for &rx in &self.rx_capacities {
                                for &poll in &self.polls {
                                    out.push(ArchSpec {
                                        bus,
                                        arb: arb.clone(),
                                        clock: *clock,
                                        burst_bytes: burst,
                                        rx_capacity: rx,
                                        poll_interval: poll,
                                        split_slaves: split,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The first `n` grid points (deterministic prefix of
    /// [`generate`](ArchGrid::generate)) — handy for sizing benches and
    /// tests to an exact candidate count.
    pub fn generate_n(&self, n: usize) -> Vec<ArchSpec> {
        let mut v = self.generate();
        v.truncate(n);
        v
    }
}

/// A built interconnect, uniform over topology.
#[derive(Clone)]
pub struct Interconnect(Arc<dyn Cam>);

impl Interconnect {
    /// A bus-master port for `id`.
    pub fn master_port(&self, id: MasterId) -> OcpMasterPort {
        OcpMasterPort::bind(id, self.as_target())
    }

    /// Accumulated interconnect statistics.
    pub fn stats(&self) -> BusStats {
        self.0.stats()
    }

    /// The interconnect as a transaction target (for accessors/bridges).
    pub fn as_target(&self) -> Arc<dyn OcpTarget> {
        Arc::clone(&self.0) as Arc<dyn OcpTarget>
    }

    /// The interconnect clock period (for pin-level accessors).
    pub fn clock_period(&self) -> SimDur {
        self.0.clock()
    }
}

impl fmt::Debug for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interconnect({})", self.0.target_name())
    }
}

/// Builds the interconnect of `spec`, mapping each `(range, target)` pair as
/// a slave.
///
/// A spec that cannot be elaborated (e.g. a zero-sized or oversized NoC
/// mesh drawn by a random generator) returns [`MapError::Arch`] so callers
/// — in particular the conformance harness — classify it instead of
/// aborting.
pub fn build_interconnect(
    sim: &SimHandle,
    spec: &ArchSpec,
    slaves: Vec<(Range<u64>, Arc<dyn OcpTarget>)>,
) -> Result<Interconnect, MapError> {
    let cam: Arc<dyn Cam> = match spec.bus {
        BusKind::Plb | BusKind::Opb | BusKind::Ahb => {
            let preset = match spec.bus {
                BusKind::Plb => BusConfig::plb,
                BusKind::Opb => BusConfig::opb,
                _ => BusConfig::ahb,
            };
            let mut cfg = preset(&spec.bus.to_string())
                .with_arb(spec.arb.clone())
                .with_split(spec.split_slaves && spec.bus.supports_split());
            if let Some(c) = spec.clock {
                cfg = cfg.with_clock(c);
            }
            let mut bus = CcatbBus::new(sim, cfg);
            for (range, target) in slaves {
                bus.map_slave(range, target, true);
            }
            Arc::new(bus)
        }
        BusKind::Crossbar => {
            let mut cfg = CrossbarConfig::default_64bit("xbar");
            cfg.arb = spec.arb.clone();
            if let Some(c) = spec.clock {
                cfg.clock = c;
            }
            let mut xbar = Crossbar::new(sim, cfg);
            for (range, target) in slaves {
                xbar.map_slave(range, target, true);
            }
            Arc::new(xbar)
        }
        BusKind::Noc { cols, rows } => {
            if cols == 0 || rows == 0 {
                return Err(MapError::Arch {
                    detail: format!("NoC mesh dimensions must be non-zero, got {cols}x{rows}"),
                });
            }
            let nodes = cols as usize * rows as usize;
            if nodes > 1024 {
                return Err(MapError::Arch {
                    detail: format!(
                        "NoC mesh {cols}x{rows} ({nodes} nodes) exceeds the 1024-node \
                         elaboration cap"
                    ),
                });
            }
            let mut cfg =
                NocConfig::mesh("noc", cols as usize, rows as usize).with_arb(spec.arb.clone());
            if let Some(c) = spec.clock {
                cfg = cfg.with_clock(c);
            }
            let mut noc = MeshNoc::new(sim, cfg);
            for (range, target) in slaves {
                noc.map_slave(range, target, true);
            }
            Arc::new(noc)
        }
    };
    Ok(Interconnect(cam))
}
