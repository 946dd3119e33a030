//! SHIP↔OCP wrappers: the "automatic mapping of the communication part of a
//! system to a given architecture" (paper §1, §3).
//!
//! When a SHIP channel is mapped onto a bus, the abstract channel is replaced
//! by a pair of endpoints that speak OCP underneath while presenting the
//! *identical* [`ShipPort`] API to the processing elements:
//!
//! * the **master wrapper** turns `send`/`request` calls into register and
//!   burst transactions against the slave's mailbox adapter;
//! * the **slave adapter** is a bus slave (an [`OcpTarget`]) exposing a
//!   register file, a shared-memory mailbox and an optional sideband signal;
//!   the slave PE's `recv`/`reply` calls read from its queues directly.
//!
//! The very same adapter doubles as the HW half of the paper's generic HW/SW
//! interface (§4): "data exchange with the SW adapter is implemented by
//! shared memory and sideband signals."

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use shiptlm_kernel::event::Event;
use shiptlm_kernel::liveness::EndpointId;
use shiptlm_kernel::signal::Signal;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::{SimDur, SimTime};
use shiptlm_kernel::txn::{TxnLevel, TxnSpan};
use shiptlm_ocp::error::OcpError;
use shiptlm_ocp::payload::{OcpCommand, OcpRequest, OcpResponse, TxTiming};
use shiptlm_ocp::tl::{MasterId, OcpFuture, OcpMasterPort, OcpTarget};
use shiptlm_ship::bytes::ShipBytes;
use shiptlm_ship::channel::{ShipEndpoint, ShipFuture, ShipPort};
use shiptlm_ship::error::ShipError;

/// Total bus-address window occupied by one [`ShipSlaveAdapter`].
pub const ADAPTER_SIZE: u64 = 0x2_0000;

/// Register offsets inside the adapter window.
pub mod regs {
    /// Status register (RO): bit 0 = RX space available, bit 1 = reply ready.
    pub const STATUS: u64 = 0x00;
    /// Length of the message being staged (WO).
    pub const TX_LEN: u64 = 0x08;
    /// Doorbell (WO): [`super::DOORBELL_DATA`], [`super::DOORBELL_REQUEST`]
    /// or [`super::DOORBELL_REPLY_ACK`].
    pub const DOORBELL: u64 = 0x10;
    /// Length of the pending reply (RO from the master; staged via
    /// [`SET_REPLY_LEN`] by a SW slave).
    pub const REPLY_LEN: u64 = 0x18;
    /// Length of the head RX message (RO; SW-slave drain path).
    pub const RX_LEN: u64 = 0x28;
    /// Kind of the head RX message: 1 = data, 2 = request (RO).
    pub const RX_KIND: u64 = 0x30;
    /// Stages the reply length before writing [`REPLY_WIN`] (WO; SW slave).
    pub const SET_REPLY_LEN: u64 = 0x38;
    /// Head RX message data window (RO; SW-slave drain path).
    pub const RX_WIN: u64 = 0x4000;
    /// End of the RX window (exclusive).
    pub const RX_WIN_END: u64 = 0x8000;
    /// Reply data window (RO for the master, WO staging for a SW slave).
    pub const REPLY_WIN: u64 = 0x8000;
    /// End of the reply window (exclusive).
    pub const REPLY_WIN_END: u64 = 0x1_0000;
    /// Transmit staging window (WO).
    pub const TX_WIN: u64 = 0x1_0000;
}

/// Doorbell value completing a plain data message.
pub const DOORBELL_DATA: u32 = 1;
/// Doorbell value completing a request message.
pub const DOORBELL_REQUEST: u32 = 2;
/// Doorbell value acknowledging that the reply was consumed.
pub const DOORBELL_REPLY_ACK: u32 = 3;
/// Doorbell value popping the head RX message (SW-slave drain path).
pub const DOORBELL_RX_ACK: u32 = 4;
/// Doorbell value publishing a staged reply (SW-slave path).
pub const DOORBELL_REPLY_SET: u32 = 5;

/// STATUS bit: the adapter can accept another message.
pub const STATUS_RX_SPACE: u32 = 1 << 0;
/// STATUS bit: a reply is ready to be read.
pub const STATUS_REPLY_READY: u32 = 1 << 1;
/// STATUS bit: an RX message is pending (SW-slave drain path).
pub const STATUS_RX_PENDING: u32 = 1 << 2;

/// Tuning knobs of a mapped channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperConfig {
    /// Maximum bytes moved per bus transaction (burst size).
    pub burst_bytes: usize,
    /// Master-side polling interval for STATUS.
    pub poll_interval: SimDur,
    /// Mailbox depth (messages buffered in the adapter).
    pub rx_capacity: usize,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        WrapperConfig {
            burst_bytes: 64,
            poll_interval: SimDur::ns(100),
            rx_capacity: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgKind {
    Data,
    Request,
}

#[derive(Debug)]
struct AdapterState {
    rx: VecDeque<(MsgKind, ShipBytes)>,
    rx_capacity: usize,
    staging: Vec<u8>,
    reply: Option<ShipBytes>,
    /// Reply buffer being staged over the bus by a SW slave.
    reply_staging: Vec<u8>,
    /// Requests popped by the slave PE that still owe a reply.
    owed_replies: u64,
}

impl AdapterState {
    fn status(&self) -> u32 {
        let mut s = 0;
        if self.rx.len() < self.rx_capacity {
            s |= STATUS_RX_SPACE;
        }
        if self.reply.is_some() {
            s |= STATUS_REPLY_READY;
        }
        if !self.rx.is_empty() {
            s |= STATUS_RX_PENDING;
        }
        s
    }
}

/// The HW mailbox adapter: a bus slave carrying one SHIP channel endpoint.
pub struct ShipSlaveAdapter {
    name: String,
    /// Interned copy of `name` for the transaction recorder.
    label: Arc<str>,
    state: Mutex<AdapterState>,
    /// Fired when a message lands in the mailbox.
    rx_written: Event,
    /// Fired when the reply slot is freed (master consumed the reply).
    reply_taken: Event,
    /// Fired when a message is drained from the mailbox (SW-slave path).
    rx_taken: Event,
    /// Fired when a reply is published.
    reply_set: Event,
    /// Optional sideband interrupt: high while RX pending or reply ready —
    /// the "sideband signals" of the paper's HW/SW interface.
    sideband: Mutex<Option<Signal<bool>>>,
    /// Extra latency per register/window access.
    access_latency: SimDur,
    /// Liveness registry handle + endpoint ids for deadlock diagnosis.
    sim: SimHandle,
    ep_slave: EndpointId,
    ep_master: EndpointId,
}

impl ShipSlaveAdapter {
    /// Creates an adapter with the given mailbox depth.
    pub fn new(sim: &SimHandle, name: &str, cfg: &WrapperConfig) -> Arc<Self> {
        let resource = format!("mapped adapter '{name}'");
        let ep_slave = sim.register_blocking_endpoint(&resource, "slave");
        let ep_master = sim.register_blocking_endpoint(&resource, "master");
        let rx_written = sim.event(&format!("{name}.rx_written"));
        let reply_taken = sim.event(&format!("{name}.reply_taken"));
        let rx_taken = sim.event(&format!("{name}.rx_taken"));
        let reply_set = sim.event(&format!("{name}.reply_set"));
        sim.annotate_wait(
            &rx_written,
            "recv (awaiting mailbox message)",
            Some(ep_master),
        );
        sim.annotate_wait(
            &reply_taken,
            "reply (awaiting reply-slot ack)",
            Some(ep_master),
        );
        sim.annotate_wait(
            &rx_taken,
            "send (mailbox full, awaiting drain)",
            Some(ep_slave),
        );
        sim.annotate_wait(&reply_set, "request (awaiting reply)", Some(ep_slave));
        Arc::new(ShipSlaveAdapter {
            name: name.to_string(),
            label: Arc::from(name),
            state: Mutex::new(AdapterState {
                rx: VecDeque::new(),
                rx_capacity: cfg.rx_capacity,
                staging: Vec::new(),
                reply: None,
                reply_staging: Vec::new(),
                owed_replies: 0,
            }),
            rx_written,
            reply_taken,
            rx_taken,
            reply_set,
            sideband: Mutex::new(None),
            access_latency: SimDur::ZERO,
            sim: sim.clone(),
            ep_slave,
            ep_master,
        })
    }

    /// Attaches a sideband interrupt signal (used by the HW/SW interface).
    pub fn attach_sideband(&self, irq: Signal<bool>) {
        *self.sideband.lock().unwrap_or_else(|e| e.into_inner()) = Some(irq);
        self.update_sideband();
    }

    /// Event fired whenever mailbox space frees up (a message was drained).
    /// In hardware this is the dedicated "ready" sideband wire between a
    /// master wrapper and its adapter.
    pub fn space_event(&self) -> &Event {
        &self.rx_taken
    }

    /// Event fired whenever a reply is published.
    pub fn reply_event(&self) -> &Event {
        &self.reply_set
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdapterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes the slave side's outstanding-reply debt to the liveness
    /// registry (shown in deadlock reports).
    fn note_owed(&self, owed: u64) {
        let note = if owed > 0 {
            Some(format!("owes {owed} reply(s)"))
        } else {
            None
        };
        self.sim.endpoint_note(self.ep_slave, note);
    }

    fn update_sideband(&self) {
        let pending = {
            let g = self.lock();
            !g.rx.is_empty() || g.reply.is_some()
        };
        let sb = self.sideband.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sig) = sb.as_ref() {
            sig.write(pending);
        }
    }

    /// The slave PE's SHIP endpoint, reading the mailbox directly (the PE is
    /// hardware living right behind the adapter).
    pub fn slave_endpoint(self: &Arc<Self>) -> Arc<dyn ShipEndpoint> {
        Arc::new(AdapterSlaveEndpoint {
            adapter: Arc::clone(self),
        })
    }

    /// Builds the slave-side [`ShipPort`] for PE code.
    pub fn slave_port(self: &Arc<Self>, channel: &str, label: &str) -> ShipPort {
        ShipPort::from_endpoint(self.slave_endpoint(), channel, label)
    }
}

impl OcpTarget for ShipSlaveAdapter {
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        _master: MasterId,
        req: OcpRequest,
    ) -> OcpFuture<'a> {
        Box::pin(async move {
            if !self.access_latency.is_zero() {
                sim.wait_for(self.access_latency).await;
            }
            let timing = TxTiming {
                start: sim.now(),
                end: sim.now(),
                total_cycles: 0,
                wait_cycles: 0,
            };
            let addr = req.addr;
            match req.cmd {
                OcpCommand::Read { bytes } => {
                    let g = self.lock();
                    let data = match addr {
                        regs::STATUS => g.status().to_le_bytes().to_vec(),
                        regs::REPLY_LEN => (g.reply.as_ref().map(|r| r.len() as u32).unwrap_or(0))
                            .to_le_bytes()
                            .to_vec(),
                        regs::RX_LEN => (g.rx.front().map(|(_, b)| b.len() as u32).unwrap_or(0))
                            .to_le_bytes()
                            .to_vec(),
                        regs::RX_KIND => (match g.rx.front() {
                            Some((MsgKind::Data, _)) => 1u32,
                            Some((MsgKind::Request, _)) => 2,
                            None => 0,
                        })
                        .to_le_bytes()
                        .to_vec(),
                        a if (regs::RX_WIN..regs::RX_WIN_END).contains(&a) => {
                            let off = (a - regs::RX_WIN) as usize;
                            match g.rx.front() {
                                Some((_, b)) if off + bytes <= b.len() => {
                                    b[off..off + bytes].to_vec()
                                }
                                _ => return Ok(OcpResponse::error(timing)),
                            }
                        }
                        a if (regs::REPLY_WIN..regs::REPLY_WIN_END).contains(&a) => {
                            let off = (a - regs::REPLY_WIN) as usize;
                            match g.reply.as_ref() {
                                Some(r) if off + bytes <= r.len() => r[off..off + bytes].to_vec(),
                                _ => return Ok(OcpResponse::error(timing)),
                            }
                        }
                        _ => return Ok(OcpResponse::error(timing)),
                    };
                    let mut data = data;
                    data.resize(bytes.max(data.len()), 0);
                    data.truncate(bytes);
                    Ok(OcpResponse::read_ok(data, timing))
                }
                OcpCommand::Write { data } => {
                    match addr {
                        regs::TX_LEN => {
                            let len = u32::from_le_bytes(
                                data.get(..4)
                                    .and_then(|s| s.try_into().ok())
                                    .unwrap_or([0; 4]),
                            ) as usize;
                            if len as u64 > ADAPTER_SIZE - regs::TX_WIN {
                                return Ok(OcpResponse::error(timing));
                            }
                            self.lock().staging = vec![0; len];
                        }
                        regs::DOORBELL => {
                            let v = u32::from_le_bytes(
                                data.get(..4)
                                    .and_then(|s| s.try_into().ok())
                                    .unwrap_or([0; 4]),
                            );
                            if sim.metrics_enabled() {
                                sim.metrics().counter_add(
                                    "hwsw.doorbells",
                                    &self.label,
                                    1,
                                    sim.now(),
                                );
                            }
                            match v {
                                DOORBELL_DATA | DOORBELL_REQUEST => {
                                    let kind = if v == DOORBELL_DATA {
                                        MsgKind::Data
                                    } else {
                                        MsgKind::Request
                                    };
                                    let mut g = self.lock();
                                    if g.rx.len() >= g.rx_capacity {
                                        return Ok(OcpResponse::error(timing));
                                    }
                                    // Staging buffer is frozen into the mailbox
                                    // without copying.
                                    let msg = ShipBytes::from(std::mem::take(&mut g.staging));
                                    g.rx.push_back((kind, msg));
                                    let depth = g.rx.len() as u64;
                                    drop(g);
                                    if sim.metrics_enabled() {
                                        sim.metrics().gauge_set(
                                            "mbox.occupancy",
                                            &self.label,
                                            depth,
                                            sim.now(),
                                        );
                                    }
                                    self.rx_written.notify_delta();
                                    self.update_sideband();
                                }
                                DOORBELL_REPLY_ACK => {
                                    self.lock().reply = None;
                                    self.reply_taken.notify_delta();
                                    self.update_sideband();
                                }
                                DOORBELL_RX_ACK => {
                                    let mut g = self.lock();
                                    match g.rx.pop_front() {
                                        Some((MsgKind::Request, _)) => g.owed_replies += 1,
                                        Some(_) => {}
                                        None => return Ok(OcpResponse::error(timing)),
                                    }
                                    let owed = g.owed_replies;
                                    let depth = g.rx.len() as u64;
                                    drop(g);
                                    if sim.metrics_enabled() {
                                        sim.metrics().gauge_set(
                                            "mbox.occupancy",
                                            &self.label,
                                            depth,
                                            sim.now(),
                                        );
                                    }
                                    self.note_owed(owed);
                                    self.rx_taken.notify_delta();
                                    self.update_sideband();
                                }
                                DOORBELL_REPLY_SET => {
                                    let mut g = self.lock();
                                    if g.owed_replies == 0 || g.reply.is_some() {
                                        return Ok(OcpResponse::error(timing));
                                    }
                                    g.owed_replies -= 1;
                                    let owed = g.owed_replies;
                                    let r = ShipBytes::from(std::mem::take(&mut g.reply_staging));
                                    g.reply = Some(r);
                                    drop(g);
                                    self.note_owed(owed);
                                    self.reply_set.notify_delta();
                                    self.update_sideband();
                                }
                                _ => return Ok(OcpResponse::error(timing)),
                            }
                        }
                        regs::SET_REPLY_LEN => {
                            let len = u32::from_le_bytes(
                                data.get(..4)
                                    .and_then(|s| s.try_into().ok())
                                    .unwrap_or([0; 4]),
                            ) as usize;
                            if len as u64 > regs::REPLY_WIN_END - regs::REPLY_WIN {
                                return Ok(OcpResponse::error(timing));
                            }
                            self.lock().reply_staging = vec![0; len];
                        }
                        a if (regs::REPLY_WIN..regs::REPLY_WIN_END).contains(&a) => {
                            // SW slave staging the reply content over the bus.
                            let off = (a - regs::REPLY_WIN) as usize;
                            let mut g = self.lock();
                            if off + data.len() > g.reply_staging.len() {
                                return Ok(OcpResponse::error(timing));
                            }
                            g.reply_staging[off..off + data.len()].copy_from_slice(&data);
                        }
                        a if a >= regs::TX_WIN => {
                            let off = (a - regs::TX_WIN) as usize;
                            let mut g = self.lock();
                            if off + data.len() > g.staging.len() {
                                return Ok(OcpResponse::error(timing));
                            }
                            g.staging[off..off + data.len()].copy_from_slice(&data);
                        }
                        _ => return Ok(OcpResponse::error(timing)),
                    }
                    Ok(OcpResponse::write_ok(timing))
                }
            }
        })
    }

    fn target_name(&self) -> String {
        self.name.clone()
    }
}

impl fmt::Debug for ShipSlaveAdapter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.lock();
        f.debug_struct("ShipSlaveAdapter")
            .field("name", &self.name)
            .field("rx_pending", &g.rx.len())
            .field("reply_ready", &g.reply.is_some())
            .finish()
    }
}

/// The slave PE's direct endpoint into its adapter.
struct AdapterSlaveEndpoint {
    adapter: Arc<ShipSlaveAdapter>,
}

impl AdapterSlaveEndpoint {
    async fn recv(&self, sim: &SimHandle) -> Result<ShipBytes, ShipError> {
        let adapter = &self.adapter;
        adapter.sim.endpoint_user(adapter.ep_slave, sim.pid());
        let start = sim.now();
        loop {
            {
                let mut g = adapter.lock();
                if let Some((kind, bytes)) = g.rx.pop_front() {
                    if kind == MsgKind::Request {
                        g.owed_replies += 1;
                    }
                    let owed = g.owed_replies;
                    let depth = g.rx.len() as u64;
                    drop(g);
                    if sim.metrics_enabled() {
                        let m = sim.metrics();
                        m.gauge_set("mbox.occupancy", &adapter.label, depth, sim.now());
                    }
                    adapter.note_owed(owed);
                    // Space freed: pulse the ready sideband for any waiting
                    // master wrapper.
                    adapter.rx_taken.notify_delta();
                    adapter.update_sideband();
                    if sim.txn_enabled() {
                        sim.txn_record(TxnSpan {
                            level: TxnLevel::Bus,
                            op: "mbox.drain",
                            resource: &adapter.label,
                            start,
                            end: sim.now(),
                            bytes: bytes.len(),
                            ok: true,
                        });
                    }
                    return Ok(bytes);
                }
            }
            sim.wait(&adapter.rx_written).await;
        }
    }

    async fn reply(&self, sim: &SimHandle, bytes: ShipBytes) -> Result<(), ShipError> {
        if bytes.len() as u64 > regs::REPLY_WIN_END - regs::REPLY_WIN {
            return Err(ShipError::Protocol("reply exceeds reply window".into()));
        }
        let adapter = &self.adapter;
        adapter.sim.endpoint_user(adapter.ep_slave, sim.pid());
        let start = sim.now();
        let owed;
        loop {
            {
                let mut g = adapter.lock();
                if g.owed_replies == 0 {
                    return Err(ShipError::Protocol(
                        "reply without an outstanding request".into(),
                    ));
                }
                if g.reply.is_none() {
                    // Zero-copy: the slave's reply payload is shared with the
                    // adapter, not duplicated.
                    g.reply = Some(bytes.clone());
                    g.owed_replies -= 1;
                    owed = g.owed_replies;
                    break;
                }
            }
            // Previous reply not yet consumed: wait for the master to ack.
            sim.wait(&adapter.reply_taken).await;
        }
        adapter.note_owed(owed);
        adapter.reply_set.notify_delta();
        adapter.update_sideband();
        if sim.txn_enabled() {
            sim.txn_record(TxnSpan {
                level: TxnLevel::Bus,
                op: "mbox.reply",
                resource: &adapter.label,
                start,
                end: sim.now(),
                bytes: bytes.len(),
                ok: true,
            });
        }
        Ok(())
    }
}

impl ShipEndpoint for AdapterSlaveEndpoint {
    fn send_bytes<'a>(&'a self, _sim: &'a SimHandle, _bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async { Err(Self::unsupported()) })
    }

    fn recv_bytes<'a>(&'a self, sim: &'a SimHandle) -> ShipFuture<'a, ShipBytes> {
        Box::pin(self.recv(sim))
    }

    fn request_bytes<'a>(
        &'a self,
        _sim: &'a SimHandle,
        _bytes: ShipBytes,
    ) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async { Err(Self::unsupported()) })
    }

    fn reply_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(self.reply(sim, bytes))
    }
}

impl AdapterSlaveEndpoint {
    fn unsupported() -> ShipError {
        ShipError::Protocol("mapped slave endpoints support recv/reply only".into())
    }
}

/// The master-side wrapper endpoint: turns SHIP calls into bus transactions
/// against a [`ShipSlaveAdapter`] mapped at `base`.
pub struct ShipBusMasterEndpoint {
    bus: OcpMasterPort,
    base: u64,
    cfg: WrapperConfig,
    /// Dedicated ready sideband wires from the adapter: (space freed,
    /// reply published). When absent the endpoint falls back to timed
    /// polling of STATUS — the CPU-style access pattern.
    sideband: Option<(Event, Event)>,
    /// Liveness identity of the adapter's master side (sideband wiring only).
    liveness: Option<(SimHandle, EndpointId)>,
    /// Interned label for the transaction recorder: the adapter name when
    /// known, otherwise the mailbox base address.
    label: Arc<str>,
}

impl ShipBusMasterEndpoint {
    /// Creates the endpoint; `base` is the adapter's base address on `bus`.
    pub fn new(bus: OcpMasterPort, base: u64, cfg: WrapperConfig) -> Arc<Self> {
        assert!(cfg.burst_bytes > 0, "burst size must be non-zero");
        Arc::new(ShipBusMasterEndpoint {
            bus,
            cfg,
            sideband: None,
            liveness: None,
            label: Arc::from(format!("mbox@{base:#x}").as_str()),
            base,
        })
    }

    /// Creates the endpoint with the adapter's ready sideband wired in: the
    /// wrapper waits on dedicated events instead of timed STATUS polling.
    /// This is how a hardware master wrapper attaches (request/ready wires);
    /// it avoids the poll-storm starvation a saturated bus would otherwise
    /// suffer under fixed-priority arbitration.
    pub fn with_sideband(
        bus: OcpMasterPort,
        base: u64,
        cfg: WrapperConfig,
        adapter: &ShipSlaveAdapter,
    ) -> Arc<Self> {
        assert!(cfg.burst_bytes > 0, "burst size must be non-zero");
        Arc::new(ShipBusMasterEndpoint {
            bus,
            base,
            cfg,
            sideband: Some((adapter.space_event().clone(), adapter.reply_event().clone())),
            liveness: Some((adapter.sim.clone(), adapter.ep_master)),
            label: Arc::clone(&adapter.label),
        })
    }

    /// Builds the master-side [`ShipPort`] for PE code.
    pub fn master_port(self: &Arc<Self>, channel: &str, label: &str) -> ShipPort {
        ShipPort::from_endpoint(Arc::clone(self) as Arc<dyn ShipEndpoint>, channel, label)
    }

    fn bus_err(e: OcpError) -> ShipError {
        ShipError::Protocol(format!("bus transport failed: {e}"))
    }

    async fn wait_status(&self, sim: &SimHandle, mask: u32) -> Result<(), ShipError> {
        if let Some((liveness, ep)) = &self.liveness {
            liveness.endpoint_user(*ep, sim.pid());
        }
        loop {
            let status = self
                .bus
                .read_u32_async(sim, self.base + regs::STATUS)
                .await
                .map_err(Self::bus_err)?;
            if status & mask != 0 {
                return Ok(());
            }
            match &self.sideband {
                // Hardware wrapper: sleep on the dedicated ready wire, then
                // re-verify via a STATUS read (the event may be stale).
                Some((space, reply)) => {
                    let ev = if mask & STATUS_REPLY_READY != 0 {
                        reply
                    } else {
                        space
                    };
                    // Guarded wait: the edge can fire while this endpoint is
                    // mid-STATUS-read (sim time passes inside the bus call),
                    // so a missed pulse must degrade to a delayed re-check,
                    // never a deadlock.
                    let guard =
                        std::cmp::max(self.cfg.poll_interval.saturating_mul(16), SimDur::us(1));
                    let _ = sim.wait_any_for(&[ev], guard).await;
                }
                // CPU-style fallback: timed polling.
                None => sim.wait_for(self.cfg.poll_interval).await,
            }
        }
    }

    async fn push_message(
        &self,
        sim: &SimHandle,
        bytes: &[u8],
        doorbell: u32,
    ) -> Result<(), ShipError> {
        if bytes.len() as u64 > ADAPTER_SIZE - regs::TX_WIN {
            return Err(ShipError::Protocol(format!(
                "message of {} bytes exceeds the {} byte adapter window",
                bytes.len(),
                ADAPTER_SIZE - regs::TX_WIN
            )));
        }
        self.wait_status(sim, STATUS_RX_SPACE).await?;
        self.bus
            .write_u32_async(sim, self.base + regs::TX_LEN, bytes.len() as u32)
            .await
            .map_err(Self::bus_err)?;
        for (i, chunk) in bytes.chunks(self.cfg.burst_bytes).enumerate() {
            let addr = self.base + regs::TX_WIN + (i * self.cfg.burst_bytes) as u64;
            self.bus
                .write_async(sim, addr, chunk.to_vec())
                .await
                .map_err(Self::bus_err)?;
        }
        self.bus
            .write_u32_async(sim, self.base + regs::DOORBELL, doorbell)
            .await
            .map_err(Self::bus_err)?;
        Ok(())
    }

    async fn pull_reply(&self, sim: &SimHandle) -> Result<Vec<u8>, ShipError> {
        self.wait_status(sim, STATUS_REPLY_READY).await?;
        let len = self
            .bus
            .read_u32_async(sim, self.base + regs::REPLY_LEN)
            .await
            .map_err(Self::bus_err)? as usize;
        let mut out = Vec::with_capacity(len);
        let mut off = 0;
        while off < len {
            let n = (len - off).min(self.cfg.burst_bytes);
            let chunk = self
                .bus
                .read_async(sim, self.base + regs::REPLY_WIN + off as u64, n)
                .await
                .map_err(Self::bus_err)?;
            out.extend_from_slice(&chunk);
            off += n;
        }
        self.bus
            .write_u32_async(sim, self.base + regs::DOORBELL, DOORBELL_REPLY_ACK)
            .await
            .map_err(Self::bus_err)?;
        Ok(out)
    }

    /// Records one mailbox operation (level [`TxnLevel::Bus`]).
    fn txn(&self, sim: &SimHandle, op: &'static str, start: SimTime, bytes: usize, ok: bool) {
        if !sim.txn_enabled() {
            return;
        }
        sim.txn_record(TxnSpan {
            level: TxnLevel::Bus,
            op,
            resource: &self.label,
            start,
            end: sim.now(),
            bytes,
            ok,
        });
    }

    fn unsupported() -> ShipError {
        ShipError::Protocol("mapped master endpoints support send/request only".into())
    }
}

impl ShipEndpoint for ShipBusMasterEndpoint {
    fn send_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async move {
            let start = sim.now();
            let result = self.push_message(sim, &bytes, DOORBELL_DATA).await;
            self.txn(sim, "mbox.push", start, bytes.len(), result.is_ok());
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
            let result = self.push_message(sim, &bytes, DOORBELL_REQUEST).await;
            self.txn(sim, "mbox.push", start, bytes.len(), result.is_ok());
            result?;
            let start = sim.now();
            let result = self.pull_reply(sim).await;
            let len = result.as_ref().map_or(0, |r| r.len());
            self.txn(sim, "mbox.pull", start, len, result.is_ok());
            Ok(ShipBytes::from(result?))
        })
    }

    fn reply_bytes<'a>(&'a self, _sim: &'a SimHandle, _bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async { Err(Self::unsupported()) })
    }
}

impl fmt::Debug for ShipBusMasterEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShipBusMasterEndpoint")
            .field("base", &format_args!("{:#x}", self.base))
            .finish()
    }
}

/// Maps a SHIP channel onto a bus: builds the adapter and the slave port;
/// [`PendingMapping::bind`] builds the master port.
///
/// The caller maps `pending.adapter` into the bus at `base` (the same address
/// the master endpoint transacts against), e.g.:
///
/// ```
/// use std::sync::Arc;
/// use shiptlm_kernel::prelude::*;
/// use shiptlm_ocp::tl::MasterId;
/// use shiptlm_cam::bus::{BusConfig, CcatbBus};
/// use shiptlm_cam::wrapper::{map_channel, WrapperConfig, ADAPTER_SIZE};
///
/// let sim = Simulation::new();
/// let mut bus = CcatbBus::new(&sim.handle(), BusConfig::plb("plb"));
/// // ... build first, map adapter after creating the mapping:
/// let pending = map_channel(
///     &sim.handle(), "ch0", 0x1000_0000, WrapperConfig::default(),
///     ("producer", "consumer"),
/// );
/// bus.map_slave(0x1000_0000..0x1000_0000 + ADAPTER_SIZE, pending.adapter.clone(), true);
/// let bus = Arc::new(bus);
/// let master_port = pending.bind(&bus.master_port(MasterId(0)));
/// ```
pub fn map_channel(
    sim: &SimHandle,
    channel: &str,
    base: u64,
    cfg: WrapperConfig,
    labels: (&str, &str),
) -> PendingMapping {
    let adapter = ShipSlaveAdapter::new(sim, &format!("{channel}.adapter"), &cfg);
    let slave_port = adapter.slave_port(channel, labels.1);
    PendingMapping {
        adapter,
        slave_port,
        base,
        cfg,
        channel: channel.to_string(),
        master_label: labels.0.to_string(),
    }
}

/// A half-built mapping: the adapter and slave port exist; the master port
/// is created once the bus port is available via [`bind`](Self::bind).
#[derive(Debug)]
pub struct PendingMapping {
    /// The mailbox adapter to map into the interconnect.
    pub adapter: Arc<ShipSlaveAdapter>,
    /// The slave PE's port.
    pub slave_port: ShipPort,
    base: u64,
    cfg: WrapperConfig,
    channel: String,
    master_label: String,
}

impl PendingMapping {
    /// Completes the mapping with the master's bus port; returns the master
    /// PE's SHIP port. The hardware master wrapper is wired to the
    /// adapter's ready sideband (event-driven, no timed polling).
    pub fn bind(&self, bus_port: &OcpMasterPort) -> ShipPort {
        let ep = ShipBusMasterEndpoint::with_sideband(
            bus_port.clone(),
            self.base,
            self.cfg.clone(),
            &self.adapter,
        );
        ep.master_port(&self.channel, &self.master_label)
    }

    /// The adapter's base address.
    pub fn base(&self) -> u64 {
        self.base
    }
}
