//! The SW adapter: device driver + SHIP communication library (paper §4).
//!
//! "The SW part of the HW/SW interface consists of a device driver and a
//! small communication library. While handshaking and memory-mapping is
//! accomplished by the device driver, the communication library implements
//! the SHIP channel interface method calls."
//!
//! Both endpoints here implement [`ShipEndpoint`], so embedded-software PEs
//! use the exact same [`ShipPort`](shiptlm_ship::channel::ShipPort) calls as
//! their hardware incarnations — the "without requiring any changes to the
//! source code" constraint.

use std::fmt;
use std::sync::{Arc, OnceLock};

use shiptlm_cam::wrapper::{
    regs, DOORBELL_DATA, DOORBELL_REPLY_ACK, DOORBELL_REPLY_SET, DOORBELL_REQUEST, DOORBELL_RX_ACK,
    STATUS_REPLY_READY, STATUS_RX_PENDING, STATUS_RX_SPACE,
};
use shiptlm_kernel::liveness::EndpointId;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::{SimDur, SimTime};
use shiptlm_kernel::txn::{TxnLevel, TxnSpan};
use shiptlm_ocp::error::OcpError;
use shiptlm_ocp::tl::OcpMasterPort;
use shiptlm_ship::bytes::ShipBytes;
use shiptlm_ship::channel::{ShipEndpoint, ShipFuture};
use shiptlm_ship::error::ShipError;

use crate::rtos::{Rtos, RtosSemaphore, TaskId};

/// How the driver learns about device state changes.
#[derive(Debug, Clone)]
pub enum NotifyMode {
    /// Poll the STATUS register, sleeping between polls (CPU released).
    Polling {
        /// Sleep between status reads.
        interval: SimDur,
    },
    /// Block on a semaphore given by the ISR wired to the adapter sideband.
    Irq {
        /// Semaphore the ISR gives.
        sem: RtosSemaphore,
    },
}

/// Driver tuning parameters.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Bytes per bus burst when moving message payloads.
    pub burst_bytes: usize,
    /// CPU time charged per driver entry (call overhead).
    pub call_overhead: SimDur,
    /// CPU time charged per chunk loop iteration (copy loop overhead).
    pub per_chunk_overhead: SimDur,
    /// Wakeup mechanism.
    pub notify: NotifyMode,
}

impl DriverConfig {
    /// A polling driver with typical overheads.
    pub fn polling(interval: SimDur) -> Self {
        DriverConfig {
            burst_bytes: 64,
            call_overhead: SimDur::ns(200),
            per_chunk_overhead: SimDur::ns(20),
            notify: NotifyMode::Polling { interval },
        }
    }

    /// An interrupt-driven driver with typical overheads.
    pub fn irq(sem: RtosSemaphore) -> Self {
        DriverConfig {
            burst_bytes: 64,
            call_overhead: SimDur::ns(300),
            per_chunk_overhead: SimDur::ns(20),
            notify: NotifyMode::Irq { sem },
        }
    }
}

/// Fallback re-check period for interrupt-driven waits.
const IRQ_GUARD: SimDur = SimDur::us(10);

fn bus_err(e: OcpError) -> ShipError {
    ShipError::Protocol(format!("driver bus access failed: {e}"))
}

/// Common driver plumbing: MMIO helpers, status waits, CPU accounting.
struct DriverCore {
    rtos: Rtos,
    task: TaskId,
    bus: OcpMasterPort,
    base: u64,
    cfg: DriverConfig,
    /// Which SHIP role this driver plays (`master` / `slave`).
    role: &'static str,
    /// Liveness identity, registered on first blocking call.
    ep: OnceLock<EndpointId>,
    /// Interned label for the transaction recorder.
    label: Arc<str>,
}

impl DriverCore {
    fn new(
        rtos: &Rtos,
        task: TaskId,
        bus: OcpMasterPort,
        base: u64,
        cfg: DriverConfig,
        role: &'static str,
    ) -> Self {
        DriverCore {
            rtos: rtos.clone(),
            task,
            bus,
            base,
            cfg,
            role,
            ep: OnceLock::new(),
            label: Arc::from(format!("drv@{base:#x}").as_str()),
        }
    }

    /// Records one driver operation (level [`TxnLevel::Driver`]).
    fn txn(&self, sim: &SimHandle, op: &'static str, start: SimTime, bytes: usize, ok: bool) {
        if !sim.txn_enabled() {
            return;
        }
        sim.txn_record(TxnSpan {
            level: TxnLevel::Driver,
            op,
            resource: &self.label,
            start,
            end: sim.now(),
            bytes,
            ok,
        });
    }

    async fn charge(&self, d: SimDur) {
        self.rtos.execute(self.task, d).await;
    }

    /// Bumps one driver-side rate counter (doorbell rings, IRQ waits,
    /// status polls). One relaxed load when metrics are off.
    fn metric_count(&self, sim: &SimHandle, family: &'static str) {
        if !sim.metrics_enabled() {
            return;
        }
        sim.metrics().counter_add(family, &self.label, 1, sim.now());
    }

    /// Registers this driver with the liveness registry (first call) and
    /// records the calling process as its current user.
    fn note_user(&self, sim: &SimHandle) -> EndpointId {
        let ep = *self.ep.get_or_init(|| {
            sim.register_blocking_endpoint(&format!("sw driver @ {:#x}", self.base), self.role)
        });
        sim.endpoint_user(ep, sim.pid());
        ep
    }

    async fn read_u32(&self, sim: &SimHandle, off: u64) -> Result<u32, ShipError> {
        self.bus
            .read_u32_async(sim, self.base + off)
            .await
            .map_err(bus_err)
    }

    async fn write_u32(&self, sim: &SimHandle, off: u64, v: u32) -> Result<(), ShipError> {
        if off == regs::DOORBELL {
            self.metric_count(sim, "drv.doorbells");
        }
        self.bus
            .write_u32_async(sim, self.base + off, v)
            .await
            .map_err(bus_err)
    }

    /// Sleeps the task until the device may have changed state: a poll
    /// interval, or the IRQ semaphore with a re-check guard.
    async fn await_device(&self) {
        match &self.cfg.notify {
            NotifyMode::Polling { interval } => self.rtos.sleep(self.task, *interval).await,
            NotifyMode::Irq { sem } => {
                // IRQ-miss guard: the shared level-sensitive sideband may
                // not re-edge for our condition; fall back to a re-check.
                let _ = sem.take_raw_timeout(self.task, IRQ_GUARD).await;
            }
        }
    }

    /// Waits until STATUS has any bit of `mask` set. The poll/IRQ wait is
    /// recorded as a `drv.wait` span when it actually blocked.
    async fn wait_status(&self, sim: &SimHandle, mask: u32) -> Result<(), ShipError> {
        let ep = self.note_user(sim);
        let start = sim.now();
        let mut noted = false;
        loop {
            let status = self.read_u32(sim, regs::STATUS).await?;
            if status & mask != 0 {
                if noted {
                    sim.endpoint_note(ep, None);
                    self.txn(sim, "drv.wait", start, 0, true);
                }
                return Ok(());
            }
            if !noted {
                let what = if mask & STATUS_REPLY_READY != 0 {
                    "awaiting reply"
                } else if mask & STATUS_RX_PENDING != 0 {
                    "awaiting message"
                } else {
                    "awaiting mailbox space"
                };
                sim.endpoint_note(ep, Some(what.to_string()));
                noted = true;
            }
            self.metric_count(
                sim,
                match self.cfg.notify {
                    NotifyMode::Polling { .. } => "drv.polls",
                    NotifyMode::Irq { .. } => "drv.irq_waits",
                },
            );
            self.await_device().await;
        }
    }

    async fn write_window(&self, sim: &SimHandle, win: u64, bytes: &[u8]) -> Result<(), ShipError> {
        for (i, chunk) in bytes.chunks(self.cfg.burst_bytes).enumerate() {
            self.charge(self.cfg.per_chunk_overhead).await;
            let addr = self.base + win + (i * self.cfg.burst_bytes) as u64;
            self.bus
                .write_async(sim, addr, chunk.to_vec())
                .await
                .map_err(bus_err)?;
        }
        Ok(())
    }

    async fn read_window(
        &self,
        sim: &SimHandle,
        win: u64,
        len: usize,
    ) -> Result<Vec<u8>, ShipError> {
        let mut out = Vec::with_capacity(len);
        let mut off = 0;
        while off < len {
            self.charge(self.cfg.per_chunk_overhead).await;
            let n = (len - off).min(self.cfg.burst_bytes);
            let chunk = self
                .bus
                .read_async(sim, self.base + win + off as u64, n)
                .await
                .map_err(bus_err)?;
            out.extend_from_slice(&chunk);
            off += n;
        }
        Ok(out)
    }
}

/// SW **master** endpoint: an eSW task sending/requesting to a HW slave
/// behind a mailbox adapter at `base`.
pub struct SwShipMaster {
    core: DriverCore,
}

impl SwShipMaster {
    /// Creates the endpoint for `task` on `rtos`, transacting through `bus`
    /// against the adapter mapped at `base`.
    pub fn new(
        rtos: &Rtos,
        task: TaskId,
        bus: OcpMasterPort,
        base: u64,
        cfg: DriverConfig,
    ) -> Arc<Self> {
        Arc::new(SwShipMaster {
            core: DriverCore::new(rtos, task, bus, base, cfg, "master"),
        })
    }

    async fn push(&self, sim: &SimHandle, bytes: &[u8], doorbell: u32) -> Result<(), ShipError> {
        let c = &self.core;
        c.charge(c.cfg.call_overhead).await;
        c.wait_status(sim, STATUS_RX_SPACE).await?;
        c.write_u32(sim, regs::TX_LEN, bytes.len() as u32).await?;
        c.write_window(sim, regs::TX_WIN, bytes).await?;
        c.write_u32(sim, regs::DOORBELL, doorbell).await?;
        Ok(())
    }

    async fn request(&self, sim: &SimHandle, bytes: &[u8]) -> Result<ShipBytes, ShipError> {
        self.push(sim, bytes, DOORBELL_REQUEST).await?;
        let c = &self.core;
        c.wait_status(sim, STATUS_REPLY_READY).await?;
        c.charge(c.cfg.call_overhead).await;
        let len = c.read_u32(sim, regs::REPLY_LEN).await? as usize;
        let reply = c.read_window(sim, regs::REPLY_WIN, len).await?;
        c.write_u32(sim, regs::DOORBELL, DOORBELL_REPLY_ACK).await?;
        Ok(ShipBytes::from(reply))
    }

    fn unsupported() -> ShipError {
        ShipError::Protocol("sw master endpoints support send/request only".into())
    }
}

impl ShipEndpoint for SwShipMaster {
    fn send_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async move {
            let start = sim.now();
            let result = self.push(sim, &bytes, DOORBELL_DATA).await;
            self.core
                .txn(sim, "drv.send", start, bytes.len(), result.is_ok());
            result
        })
    }

    fn recv_bytes<'a>(&'a self, _sim: &'a SimHandle) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async { Err(Self::unsupported()) })
    }

    fn request_bytes<'a>(
        &'a self,
        sim: &'a SimHandle,
        bytes: ShipBytes,
    ) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async move {
            let start = sim.now();
            let result = self.request(sim, &bytes).await;
            let len = bytes.len() + result.as_ref().map_or(0, |r| r.len());
            self.core
                .txn(sim, "drv.request", start, len, result.is_ok());
            result
        })
    }

    fn reply_bytes<'a>(&'a self, _sim: &'a SimHandle, _bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async { Err(Self::unsupported()) })
    }
}

impl fmt::Debug for SwShipMaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwShipMaster")
            .field("base", &format_args!("{:#x}", self.core.base))
            .finish()
    }
}

/// SW **slave** endpoint: an eSW task receiving/replying behind a mailbox
/// adapter that a HW master fills over the bus.
pub struct SwShipSlave {
    core: DriverCore,
}

impl SwShipSlave {
    /// Creates the endpoint for `task` on `rtos`, draining the adapter
    /// mapped at `base` through `bus`.
    pub fn new(
        rtos: &Rtos,
        task: TaskId,
        bus: OcpMasterPort,
        base: u64,
        cfg: DriverConfig,
    ) -> Arc<Self> {
        Arc::new(SwShipSlave {
            core: DriverCore::new(rtos, task, bus, base, cfg, "slave"),
        })
    }
}

impl SwShipSlave {
    async fn recv(&self, sim: &SimHandle) -> Result<ShipBytes, ShipError> {
        let c = &self.core;
        c.charge(c.cfg.call_overhead).await;
        c.wait_status(sim, STATUS_RX_PENDING).await?;
        let len = c.read_u32(sim, regs::RX_LEN).await? as usize;
        let bytes = c.read_window(sim, regs::RX_WIN, len).await?;
        c.write_u32(sim, regs::DOORBELL, DOORBELL_RX_ACK).await?;
        Ok(ShipBytes::from(bytes))
    }

    async fn reply(&self, sim: &SimHandle, bytes: &[u8]) -> Result<(), ShipError> {
        let c = &self.core;
        c.note_user(sim);
        c.charge(c.cfg.call_overhead).await;
        // Wait for the previous reply (if any) to be consumed.
        while c.read_u32(sim, regs::STATUS).await? & STATUS_REPLY_READY != 0 {
            c.await_device().await;
        }
        c.write_u32(sim, regs::SET_REPLY_LEN, bytes.len() as u32)
            .await?;
        c.write_window(sim, regs::REPLY_WIN, bytes).await?;
        c.write_u32(sim, regs::DOORBELL, DOORBELL_REPLY_SET).await?;
        Ok(())
    }

    fn unsupported() -> ShipError {
        ShipError::Protocol("sw slave endpoints support recv/reply only".into())
    }
}

impl ShipEndpoint for SwShipSlave {
    fn send_bytes<'a>(&'a self, _sim: &'a SimHandle, _bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async { Err(Self::unsupported()) })
    }

    fn recv_bytes<'a>(&'a self, sim: &'a SimHandle) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async move {
            let start = sim.now();
            let result = self.recv(sim).await;
            let len = result.as_ref().map_or(0, |b| b.len());
            self.core.txn(sim, "drv.recv", start, len, result.is_ok());
            result
        })
    }

    fn request_bytes<'a>(
        &'a self,
        _sim: &'a SimHandle,
        _bytes: ShipBytes,
    ) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async { Err(Self::unsupported()) })
    }

    fn reply_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async move {
            let start = sim.now();
            let result = self.reply(sim, &bytes).await;
            self.core
                .txn(sim, "drv.reply", start, bytes.len(), result.is_ok());
            result
        })
    }
}

impl fmt::Debug for SwShipSlave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwShipSlave")
            .field("base", &format_args!("{:#x}", self.core.base))
            .finish()
    }
}
