//! A crossbar communication architecture model: one arbitration gate per
//! output port, so transfers to different slaves proceed in parallel.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;
use shiptlm_ocp::memory::Router;
use shiptlm_ocp::payload::OcpRequest;
use shiptlm_ocp::tl::{MasterId, OcpFuture, OcpMasterPort, OcpTarget};

use crate::account::{Book, Cam, Transfer};
use crate::arb::ArbPolicy;
use crate::bus::{ArbGate, BusStats};

/// Crossbar parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarConfig {
    /// Name for reports.
    pub name: String,
    /// Switch clock period.
    pub clock: SimDur,
    /// Data path width in bytes.
    pub width_bytes: usize,
    /// Cycles per data beat.
    pub cycles_per_beat: u64,
    /// Route-setup cycles per transaction.
    pub setup_cycles: u64,
    /// Per-output arbitration policy.
    pub arb: ArbPolicy,
}

impl CrossbarConfig {
    /// A 64-bit, 100 MHz full crossbar with round-robin output arbitration.
    pub fn default_64bit(name: &str) -> Self {
        CrossbarConfig {
            name: name.to_string(),
            clock: SimDur::ns(10),
            width_bytes: 8,
            cycles_per_beat: 1,
            setup_cycles: 2,
            arb: ArbPolicy::RoundRobin,
        }
    }
}

/// A crossbar switch: concurrent non-conflicting transfers, per-output
/// arbitration on conflicts.
pub struct Crossbar {
    cfg: CrossbarConfig,
    sim: SimHandle,
    router: Router,
    /// One gate per output port, in mapping order.
    gates: Vec<ArbGate>,
    book: Book<()>,
}

impl Crossbar {
    /// Creates a crossbar; attach outputs with
    /// [`map_slave`](Self::map_slave) before sharing.
    pub fn new(sim: &SimHandle, cfg: CrossbarConfig) -> Self {
        assert!(cfg.width_bytes > 0, "crossbar width must be non-zero");
        Crossbar {
            sim: sim.clone(),
            router: Router::new(&format!("{}.decoder", cfg.name)),
            gates: Vec::new(),
            book: Book::new(&cfg.name, cfg.clock),
            cfg,
        }
    }

    /// Maps a slave behind its own output port.
    ///
    /// # Panics
    ///
    /// Panics on overlapping ranges.
    pub fn map_slave(&mut self, range: Range<u64>, target: Arc<dyn OcpTarget>, relative: bool) {
        self.router.map(range, target, relative);
        self.gates.push(ArbGate::new(
            &self.sim,
            &format!("{}.out{}", self.cfg.name, self.gates.len()),
            self.cfg.arb.clone(),
        ));
    }

    /// The crossbar configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.cfg
    }

    /// A master port bound to this crossbar.
    pub fn master_port(self: &Arc<Self>, id: MasterId) -> OcpMasterPort {
        OcpMasterPort::bind(id, Arc::<Crossbar>::clone(self))
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> BusStats {
        self.book.stats()
    }
}

impl OcpTarget for Crossbar {
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        master: MasterId,
        mut req: OcpRequest,
    ) -> OcpFuture<'a> {
        Box::pin(async move {
            let mut t = Transfer::begin(sim, master, &req);
            let (port, target) = self.router.decode(&mut req)?;
            let gate = &self.gates[port];

            let (granted_at, _b2b, queue_depth) = gate.acquire(sim, master).await;
            let result = async {
                sim.wait_for(self.cfg.clock.saturating_mul(self.cfg.setup_cycles))
                    .await;
                let beats = req.beats(self.cfg.width_bytes);
                let data_time = self
                    .cfg
                    .clock
                    .saturating_mul(beats * self.cfg.cycles_per_beat);
                let t_data = sim.now();
                let resp = target.transact(sim, master, req).await?;
                let slave_time = sim.now().since(t_data);
                if slave_time < data_time {
                    sim.wait_for(data_time - slave_time).await;
                }
                Ok(resp)
            }
            .await;
            let end = sim.now();
            gate.release(end);

            t.granted = granted_at;
            t.queue_depth = queue_depth;
            t.busy = end.since(granted_at);
            self.book.settle(sim, t, result, |_, _| {}, &[])
        })
    }

    fn target_name(&self) -> String {
        self.cfg.name.clone()
    }
}

impl Cam for Crossbar {
    fn stats(&self) -> BusStats {
        self.book.stats()
    }

    fn clock(&self) -> SimDur {
        self.cfg.clock
    }
}

impl fmt::Debug for Crossbar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Crossbar")
            .field("name", &self.cfg.name)
            .field("outputs", &self.gates.len())
            .finish()
    }
}
