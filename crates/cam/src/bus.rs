//! The generic CCATB bus model and its PLB, OPB and AHB presets.
//!
//! A [`CcatbBus`] is a *communication architecture model* in the paper's
//! sense: "CAMs are CCATB models with a cycle-accurate notion of time when
//! viewed at transaction boundaries. Internally, only timed method calls are
//! used which reflect the simulated bus or network protocol." No pin wiggling
//! happens here — arbitration wait, address phase and data beats are computed
//! as cycle counts and charged as blocking waits, so the boundary timing is
//! cycle-accurate while simulation cost stays low.
//!
//! Two AMBA AHB protocol features extend the one bus rather than forming a
//! second one; the [`BusConfig::ahb`] preset turns them on:
//!
//! * **SPLIT responses** — with [`BusConfig::split_slaves`] set, the
//!   addressed slave signals SPLIT after
//!   [`BusConfig::split_response_cycles`]: the master is parked, the bus is
//!   **released** so other masters can transfer while the slave prepares
//!   the data off-bus, and the arbiter re-grants the split master before
//!   the data phase runs. The release/re-grant pair is real — competing
//!   masters genuinely slip in between.
//! * **RETRY / early burst termination** — a burst longer than
//!   [`BusConfig::max_beats_per_grant`] beats is terminated at the grant
//!   boundary and re-arbitrated, segment by segment, so one long burst
//!   cannot monopolize the bus.
//!
//! Bursts are classified SINGLE / INCR / WRAP4 / WRAP8 / WRAP16 by
//! [`burst_kind`]; [`AhbStats`] counts the kinds, splits and retries.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use shiptlm_kernel::event::Event;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::stats::{Histogram, RunningStats};
use shiptlm_kernel::time::{SimDur, SimTime};
use shiptlm_ocp::memory::Router;
use shiptlm_ocp::payload::OcpRequest;
use shiptlm_ocp::tl::{MasterId, OcpFuture, OcpMasterPort, OcpTarget};

use crate::account::{Book, Cam, Transfer};
use crate::ahb::{burst_kind, AhbStats};
use crate::arb::{ArbPolicy, Ticket};

/// Static parameters of a CCATB bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusConfig {
    /// Bus name (reports, trace).
    pub name: String,
    /// Bus clock period.
    pub clock: SimDur,
    /// Data path width in bytes.
    pub width_bytes: usize,
    /// Address-phase cycles per transaction.
    pub addr_cycles: u64,
    /// Cycles per data beat.
    pub cycles_per_beat: u64,
    /// Minimum arbitration latency in cycles.
    pub arb_cycles: u64,
    /// Overlap the address phase with the previous transaction's data phase
    /// on back-to-back grants (PLB-style pipelining).
    pub pipelined: bool,
    /// Treat every mapped slave as SPLIT-capable: each transfer draws a
    /// SPLIT response, releases the bus during the slave access and is
    /// re-granted for the data phase.
    pub split_slaves: bool,
    /// Cycles from address phase to the slave's SPLIT response.
    pub split_response_cycles: u64,
    /// Beat budget of one grant; longer bursts are RETRY-terminated and
    /// re-arbitrated (0 = unlimited, never terminate early).
    pub max_beats_per_grant: u64,
    /// Classify 4/8/16-beat bursts as wrapping (WRAP4/8/16) instead of
    /// incrementing.
    pub wrap_bursts: bool,
    /// Arbitration policy.
    pub arb: ArbPolicy,
}

impl BusConfig {
    /// A CoreConnect PLB-like high-performance bus: 64-bit, 100 MHz,
    /// pipelined address/data, single-cycle beats, static priority, no
    /// SPLIT and no grant beat budget.
    pub fn plb(name: &str) -> Self {
        BusConfig {
            name: name.to_string(),
            clock: SimDur::ns(10),
            width_bytes: 8,
            addr_cycles: 1,
            cycles_per_beat: 1,
            arb_cycles: 1,
            pipelined: true,
            split_slaves: false,
            split_response_cycles: 0,
            max_beats_per_grant: 0,
            wrap_bursts: false,
            arb: ArbPolicy::FixedPriority,
        }
    }

    /// A CoreConnect OPB-like peripheral bus: 32-bit, 50 MHz, no pipelining,
    /// two cycles per beat.
    pub fn opb(name: &str) -> Self {
        BusConfig {
            clock: SimDur::ns(20),
            width_bytes: 4,
            cycles_per_beat: 2,
            pipelined: false,
            ..BusConfig::plb(name)
        }
    }

    /// An AMBA AHB-like high-performance bus: 32-bit, 100 MHz, pipelined
    /// address/data, single-cycle beats, WRAP4/8/16 bursts, a 16-beat grant
    /// budget and a 2-cycle SPLIT response, static priority. SPLIT is off;
    /// enable it with [`with_split`](Self::with_split).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use shiptlm_kernel::prelude::*;
    /// use shiptlm_ocp::prelude::*;
    /// use shiptlm_cam::bus::{BusConfig, CcatbBus};
    ///
    /// let sim = Simulation::new();
    /// let mut bus = CcatbBus::new(&sim.handle(), BusConfig::ahb("ahb0").with_split(true));
    /// bus.map_slave(0x0000..0x1000, Arc::new(Memory::new("ram", 0x1000)), true);
    /// let bus = Arc::new(bus);
    /// let port = bus.master_port(MasterId(0));
    /// sim.spawn_thread("cpu", move |ctx| {
    ///     port.write(ctx, 0x10, vec![1, 2, 3, 4]).unwrap();
    /// });
    /// sim.run();
    /// assert_eq!(bus.stats().transactions, 1);
    /// assert_eq!(bus.ahb_stats().splits, 1);
    /// ```
    pub fn ahb(name: &str) -> Self {
        BusConfig {
            width_bytes: 4,
            split_response_cycles: 2,
            max_beats_per_grant: 16,
            wrap_bursts: true,
            ..BusConfig::plb(name)
        }
    }

    /// Replaces the arbitration policy.
    pub fn with_arb(mut self, arb: ArbPolicy) -> Self {
        self.arb = arb;
        self
    }

    /// Replaces the clock period.
    pub fn with_clock(mut self, clock: SimDur) -> Self {
        self.clock = clock;
        self
    }

    /// Enables or disables SPLIT-capable slaves.
    pub fn with_split(mut self, split: bool) -> Self {
        self.split_slaves = split;
        self
    }
}

/// Per-master accounting.
#[derive(Debug, Clone, Default)]
pub struct MasterStats {
    /// Completed transactions.
    pub transactions: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Arbitration wait in cycles.
    pub wait_cycles: RunningStats,
}

/// Aggregated bus statistics.
#[derive(Debug, Clone, Default)]
pub struct BusStats {
    /// Completed transactions.
    pub transactions: u64,
    /// Reads among them.
    pub reads: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Transport errors (decode failures).
    pub errors: u64,
    /// End-to-end transaction latency in cycles.
    pub latency_cycles: RunningStats,
    /// Arbitration wait distribution in cycles.
    pub wait_cycles: Histogram,
    /// Accumulated bus-occupied time.
    pub busy: SimDur,
    /// Per-master breakdown.
    pub per_master: std::collections::BTreeMap<usize, MasterStats>,
}

impl BusStats {
    /// Fraction of `elapsed` the interconnect was occupied. For a crossbar
    /// this aggregates all output ports, so values above 1.0 indicate
    /// parallel transfers in flight.
    pub fn utilization(&self, elapsed: SimDur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_ps() as f64 / elapsed.as_ps() as f64
        }
    }

    /// Payload throughput in bytes per second of simulated time.
    pub fn throughput_bps(&self, elapsed: SimDur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes as f64 / (elapsed.as_ps() as f64 * 1e-12)
        }
    }
}

/// Policy-aware mutual-exclusion gate used by buses and crossbar outputs.
pub(crate) struct ArbGate {
    state: Mutex<GateState>,
    granted: Event,
    policy: ArbPolicy,
}

struct GateState {
    owner: Option<MasterId>,
    pending: Vec<Ticket>,
    seq: u64,
    last_granted: Option<MasterId>,
    last_release: SimTime,
}

impl ArbGate {
    pub(crate) fn new(sim: &SimHandle, name: &str, policy: ArbPolicy) -> Self {
        let granted = sim.event(&format!("{name}.grant"));
        ArbGate {
            state: Mutex::new(GateState {
                owner: None,
                pending: Vec::new(),
                seq: 0,
                last_granted: None,
                // MAX = "never released": the first grant is not
                // back-to-back.
                last_release: SimTime::MAX,
            }),
            granted,
            policy,
        }
    }

    /// Suspends the polling process until `master` is granted; returns the
    /// grant time, whether the grant is back-to-back with the previous
    /// release, and the grant queue depth observed at enqueue time
    /// (including this request).
    pub(crate) async fn acquire(
        &self,
        sim: &SimHandle,
        master: MasterId,
    ) -> (SimTime, bool, usize) {
        let (ticket, depth) = {
            let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
            g.seq += 1;
            let t = Ticket { master, seq: g.seq };
            g.pending.push(t);
            (t, g.pending.len())
        };
        loop {
            {
                let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
                if g.owner.is_none() {
                    if let Some(w) = self.policy.pick(&g.pending, g.last_granted, sim.now()) {
                        if w == ticket {
                            g.owner = Some(master);
                            g.last_granted = Some(master);
                            g.pending.retain(|t| *t != ticket);
                            let back_to_back = g.last_release == sim.now();
                            return (sim.now(), back_to_back, depth);
                        }
                    }
                }
            }
            // TDMA waiters additionally wake at the next slot boundary, since
            // a grant opportunity can arise without any release happening.
            match self.policy.recheck_delay(sim.now()) {
                Some(d) => {
                    let _ = sim.wait_any_for(&[&self.granted], d).await;
                }
                None => sim.wait(&self.granted).await,
            }
        }
    }

    /// Releases the gate and wakes waiters.
    pub(crate) fn release(&self, now: SimTime) {
        {
            let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
            g.owner = None;
            g.last_release = now;
        }
        self.granted.notify_delta();
    }
}

impl fmt::Debug for ArbGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArbGate")
            .field("policy", &self.policy)
            .finish()
    }
}

/// A shared-bus communication architecture model.
///
/// ```
/// use std::sync::Arc;
/// use shiptlm_kernel::prelude::*;
/// use shiptlm_ocp::prelude::*;
/// use shiptlm_cam::bus::{BusConfig, CcatbBus};
///
/// let sim = Simulation::new();
/// let mut bus = CcatbBus::new(&sim.handle(), BusConfig::plb("plb0"));
/// bus.map_slave(0x0000..0x1000, Arc::new(Memory::new("ram", 0x1000)), true);
/// let bus = Arc::new(bus);
/// let port = OcpMasterPort::bind(MasterId(0), bus.clone());
/// sim.spawn_thread("cpu", move |ctx| {
///     port.write(ctx, 0x10, vec![1, 2, 3, 4]).unwrap();
/// });
/// sim.run();
/// assert_eq!(bus.stats().transactions, 1);
/// ```
pub struct CcatbBus {
    cfg: BusConfig,
    router: Router,
    gate: ArbGate,
    book: Book<AhbStats>,
}

impl CcatbBus {
    /// Creates a bus; map slaves with [`map_slave`](Self::map_slave) before
    /// sharing it.
    pub fn new(sim: &SimHandle, cfg: BusConfig) -> Self {
        assert!(cfg.width_bytes > 0, "bus width must be non-zero");
        assert!(!cfg.clock.is_zero(), "bus clock must be non-zero");
        let gate = ArbGate::new(sim, &cfg.name, cfg.arb.clone());
        CcatbBus {
            router: Router::new(&format!("{}.decoder", cfg.name)),
            gate,
            book: Book::new(&cfg.name, cfg.clock),
            cfg,
        }
    }

    /// Maps a slave into the bus address space.
    ///
    /// # Panics
    ///
    /// Panics on overlapping ranges.
    pub fn map_slave(&mut self, range: Range<u64>, target: Arc<dyn OcpTarget>, relative: bool) {
        self.router.map(range, target, relative);
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// A master port bound to this bus.
    pub fn master_port(self: &Arc<Self>, id: MasterId) -> OcpMasterPort {
        OcpMasterPort::bind(id, Arc::<CcatbBus>::clone(self))
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> BusStats {
        self.book.stats()
    }

    /// A snapshot of the AHB protocol counters (splits, retries, burst
    /// kinds).
    pub fn ahb_stats(&self) -> AhbStats {
        self.book.family()
    }

    fn cycles(&self, n: u64) -> SimDur {
        self.cfg.clock.saturating_mul(n)
    }
}

impl OcpTarget for CcatbBus {
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        master: MasterId,
        req: OcpRequest,
    ) -> OcpFuture<'a> {
        Box::pin(async move {
            let mut t = Transfer::begin(sim, master, &req);
            let beats = req.beats(self.cfg.width_bytes);
            let burst = burst_kind(beats, self.cfg.wrap_bursts);
            let max_grant = if self.cfg.max_beats_per_grant == 0 {
                beats
            } else {
                self.cfg.max_beats_per_grant
            };

            // --- First grant ------------------------------------------------
            let (granted_at, back_to_back, queue_depth) = self.gate.acquire(sim, master).await;
            t.granted = granted_at;
            t.queue_depth = queue_depth;
            let mut held = true;
            let mut seg_start = granted_at;
            let (mut splits, mut regrants, mut retries) = (0u64, 0u64, 0u64);
            let result = async {
                sim.wait_for(self.cycles(self.cfg.arb_cycles)).await;

                // --- Address phase (overlapped when pipelined, back-to-back)
                if !(self.cfg.pipelined && back_to_back) {
                    sim.wait_for(self.cycles(self.cfg.addr_cycles)).await;
                }

                let mut remaining = beats;
                let resp = if self.cfg.split_slaves {
                    // --- SPLIT: slave parks the master, bus goes free ------
                    // The slave cannot serve immediately; it answers SPLIT
                    // after a fixed response latency, the master releases
                    // the bus and the slave access proceeds off-bus while
                    // other masters transfer. The arbiter re-grants the
                    // split master for the data phase.
                    sim.wait_for(self.cycles(self.cfg.split_response_cycles))
                        .await;
                    t.busy += sim.now().since(seg_start);
                    self.gate.release(sim.now());
                    held = false;
                    splits += 1;
                    let resp = self.router.transact(sim, master, req).await?;
                    let (regrant, _, _) = self.gate.acquire(sim, master).await;
                    seg_start = regrant;
                    held = true;
                    regrants += 1;
                    sim.wait_for(self.cycles(self.cfg.arb_cycles)).await;
                    let n = remaining.min(max_grant);
                    sim.wait_for(self.cycles(n * self.cfg.cycles_per_beat))
                        .await;
                    remaining -= n;
                    resp
                } else {
                    // --- Data phase + slave access, overlapped --------------
                    let n = remaining.min(max_grant);
                    let data_time = self.cycles(n * self.cfg.cycles_per_beat);
                    let t_data = sim.now();
                    let resp = self.router.transact(sim, master, req).await?;
                    let slave_time = sim.now().since(t_data);
                    if slave_time < data_time {
                        sim.wait_for(data_time - slave_time).await;
                    }
                    remaining -= n;
                    resp
                };

                // --- RETRY: early burst termination ------------------------
                // Segments beyond the grant's beat budget are terminated and
                // re-arbitrated, so competing masters can slip in between.
                // (`held` stays true here: nothing between the release and
                // the re-acquire can return early.)
                while remaining > 0 {
                    t.busy += sim.now().since(seg_start);
                    self.gate.release(sim.now());
                    retries += 1;
                    let (regrant, _, _) = self.gate.acquire(sim, master).await;
                    seg_start = regrant;
                    sim.wait_for(self.cycles(self.cfg.arb_cycles + self.cfg.addr_cycles))
                        .await;
                    let n = remaining.min(max_grant);
                    sim.wait_for(self.cycles(n * self.cfg.cycles_per_beat))
                        .await;
                    remaining -= n;
                }
                Ok(resp)
            }
            .await;
            if held {
                let end = sim.now();
                t.busy += end.since(seg_start);
                self.gate.release(end);
            }

            self.book.settle(
                sim,
                t,
                result,
                |a, ok| {
                    a.splits += splits;
                    a.split_regrants += regrants;
                    a.retries += retries;
                    if ok {
                        a.record_burst(burst);
                    }
                },
                &[("ahb.splits", splits), ("ahb.retries", retries)],
            )
        })
    }

    fn target_name(&self) -> String {
        self.cfg.name.clone()
    }
}

impl Cam for CcatbBus {
    fn stats(&self) -> BusStats {
        self.book.stats()
    }

    fn clock(&self) -> SimDur {
        self.cfg.clock
    }
}

impl fmt::Debug for CcatbBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CcatbBus")
            .field("name", &self.cfg.name)
            .field("arb", &self.cfg.arb)
            .field("split_slaves", &self.cfg.split_slaves)
            .field("transactions", &self.stats().transactions)
            .finish()
    }
}
