//! The SHIP channel: a directed point-to-point transaction channel with the
//! four blocking interface method calls `send`, `recv`, `request`, `reply`
//! (paper §2).
//!
//! A [`ShipChannel`] joins exactly two endpoints. Each endpoint is wrapped in
//! a [`ShipPort`], the handle a processing element (PE) programs against.
//! Because `ShipPort` is backed by the object-safe [`ShipEndpoint`] trait,
//! the *same PE source code* runs unchanged when the channel is later mapped
//! onto a bus (wrapper endpoints) or across the HW/SW boundary (device-driver
//! endpoints) — the paper's central "no source change" constraint.
//!
//! Each call is a future that blocks the process awaiting it: an async
//! process awaits [`ShipPort::send_async`] and its siblings, and thread code
//! calls the `(ctx, …)` forms, which run the same futures through
//! [`ThreadCtx::block_on`].

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};

use shiptlm_kernel::event::Event;
use shiptlm_kernel::liveness::EndpointId;
use shiptlm_kernel::process::ThreadCtx;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::{SimDur, SimTime};
use shiptlm_kernel::txn::{TxnLevel, TxnSpan};

use crate::bytes::ShipBytes;
use crate::error::ShipError;
use crate::record::{fnv1a, ShipOp, TransactionLog, TxRecord};
use crate::role::{RoleObservation, Usage};
use crate::serialize::{from_wire, to_wire, ShipSerialize};

/// Which end of a channel an endpoint sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first endpoint.
    A,
    /// The second endpoint.
    B,
}

impl Side {
    /// The opposite end.
    pub fn opposite(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

/// Configuration of an (untimed or estimation-timed) SHIP channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipConfig {
    /// Maximum buffered messages per direction; `send` blocks when full.
    pub capacity: usize,
    /// Fixed transport latency applied to every transfer.
    pub latency: SimDur,
    /// Additional latency per payload byte (coarse bandwidth estimate for
    /// pre-mapping exploration).
    pub per_byte: SimDur,
    /// Simulated-time budget for each blocking call. When set, a call that
    /// would block past the budget returns [`ShipError::Timeout`] with a
    /// channel-state snapshot instead of hanging the simulation. `None`
    /// (the default) blocks indefinitely, per the paper.
    pub timeout: Option<SimDur>,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig {
            capacity: 16,
            latency: SimDur::ZERO,
            per_byte: SimDur::ZERO,
            timeout: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgKind {
    Data,
    Request,
}

#[derive(Debug)]
struct Message {
    kind: MsgKind,
    bytes: ShipBytes,
}

/// Per-side queue bundle; index *i* belongs to side *i* (0 = A, 1 = B).
#[derive(Debug, Default)]
struct DirQueues {
    /// Data/request messages **from** this side to the opposite one.
    messages: VecDeque<Message>,
    /// Replies destined **to** this side (this side was the requester).
    replies: VecDeque<ShipBytes>,
    /// Requests **from** this side the peer has popped but not yet replied
    /// to.
    owed_replies: u64,
}

struct ChanShared {
    name: String,
    config: ShipConfig,
    /// Index 0: A→B traffic; index 1: B→A traffic.
    dirs: [Mutex<DirQueues>; 2],
    /// Message enqueued by side [A, B].
    msg_written: [Event; 2],
    /// Message dequeued from side [A, B]'s queue.
    msg_read: [Event; 2],
    /// Reply delivered to side [A, B].
    reply_written: [Event; 2],
    usage: [Arc<Usage>; 2],
    /// Handle for liveness bookkeeping (endpoint users, wait annotations).
    sim: SimHandle,
    /// Liveness endpoint ids of side [A, B].
    ep: [EndpointId; 2],
}

impl ChanShared {
    fn dir_index(from: Side) -> usize {
        match from {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// A point-to-point SHIP channel between two endpoints.
///
/// ```
/// use shiptlm_kernel::prelude::*;
/// use shiptlm_ship::prelude::*;
///
/// let sim = Simulation::new();
/// let channel = ShipChannel::new(&sim.handle(), "link", ShipConfig::default());
/// let (master, slave) = channel.ports("producer", "consumer");
/// let h = sim.handle();
/// sim.spawn_async("producer", async move {
///     master.send_async(&h, &42u32).await.unwrap();
///     let doubled: u32 = master.request_async(&h, &21u32).await.unwrap();
///     assert_eq!(doubled, 42);
/// });
/// // Thread code makes the same calls through its context.
/// sim.spawn_thread("consumer", move |ctx| {
///     assert_eq!(slave.recv::<u32>(ctx).unwrap(), 42);
///     let q: u32 = slave.recv(ctx).unwrap();
///     slave.reply(ctx, &(q * 2)).unwrap();
/// });
/// sim.run();
/// assert_eq!(channel.observed_roles().0.role(), Some(Role::Master));
/// ```
pub struct ShipChannel {
    shared: Arc<ChanShared>,
}

impl ShipChannel {
    /// Creates a channel on the given simulation.
    pub fn new(sim: &SimHandle, name: &str, config: ShipConfig) -> Self {
        assert!(
            config.capacity > 0,
            "ship channel capacity must be non-zero"
        );
        let ev = |suffix: &str| sim.event(&format!("{name}.{suffix}"));
        let msg_written = [ev("a2b.written"), ev("b2a.written")];
        let msg_read = [ev("a2b.read"), ev("b2a.read")];
        let reply_written = [ev("reply2a"), ev("reply2b")];

        // Register both sides as liveness endpoints and annotate each
        // blocking-wait event with its meaning and the side that fires it,
        // so starved runs diagnose into named deadlock reports.
        let resource = format!("ship channel '{name}'");
        let ep = [
            sim.register_blocking_endpoint(&resource, "A"),
            sim.register_blocking_endpoint(&resource, "B"),
        ];
        for side in [0usize, 1] {
            let peer = 1 - side;
            // Waited on by the peer's `recv`; fired by this side writing.
            sim.annotate_wait(
                &msg_written[side],
                "recv (awaiting message)",
                Some(ep[side]),
            );
            // Waited on by this side's `send` when full; fired by the peer
            // draining the direction queue.
            sim.annotate_wait(
                &msg_read[side],
                "send (channel full, awaiting reader)",
                Some(ep[peer]),
            );
            // Waited on by this side's `request`; fired by the peer's
            // `reply`.
            sim.annotate_wait(
                &reply_written[side],
                "request (awaiting reply)",
                Some(ep[peer]),
            );
        }

        ShipChannel {
            shared: Arc::new(ChanShared {
                name: name.to_string(),
                config,
                dirs: [
                    Mutex::new(DirQueues::default()),
                    Mutex::new(DirQueues::default()),
                ],
                msg_written,
                msg_read,
                reply_written,
                usage: [Arc::new(Usage::new()), Arc::new(Usage::new())],
                sim: sim.clone(),
                ep,
            }),
        }
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Creates the two port handles, labelled with their PE names.
    /// Call once; PEs keep their port for the whole simulation.
    pub fn ports(&self, label_a: &str, label_b: &str) -> (ShipPort, ShipPort) {
        // Port labels are conventionally the owning PE names: give liveness
        // a fallback identity for owners that deadlock before calling.
        self.shared
            .sim
            .endpoint_owner_hint(self.shared.ep[0], label_a);
        self.shared
            .sim
            .endpoint_owner_hint(self.shared.ep[1], label_b);
        let channel: Arc<str> = Arc::from(self.shared.name.as_str());
        let a = ShipPort {
            endpoint: Arc::new(ChannelEndpoint {
                shared: Arc::clone(&self.shared),
                side: Side::A,
            }),
            usage: Arc::clone(&self.shared.usage[0]),
            channel: Arc::clone(&channel),
            label: Arc::from(label_a),
            recorder: Arc::new(Mutex::new(None)),
        };
        let b = ShipPort {
            endpoint: Arc::new(ChannelEndpoint {
                shared: Arc::clone(&self.shared),
                side: Side::B,
            }),
            usage: Arc::clone(&self.shared.usage[1]),
            channel,
            label: Arc::from(label_b),
            recorder: Arc::new(Mutex::new(None)),
        };
        (a, b)
    }

    /// Observed roles of (side A, side B) — the paper's automatic
    /// master/slave detection.
    pub fn observed_roles(&self) -> (RoleObservation, RoleObservation) {
        (
            self.shared.usage[0].snapshot().observe(),
            self.shared.usage[1].snapshot().observe(),
        )
    }

    /// Validates that the channel ended up with exactly one master and one
    /// slave end.
    ///
    /// # Errors
    ///
    /// Returns a [`ShipError::Protocol`] describing the offending end
    /// otherwise.
    pub fn validate_roles(&self) -> Result<(), ShipError> {
        use RoleObservation::*;
        match self.observed_roles() {
            (Master, Slave) | (Slave, Master) => Ok(()),
            (a, b) => Err(ShipError::Protocol(format!(
                "channel '{}' has invalid role pair ({a}, {b})",
                self.shared.name
            ))),
        }
    }
}

impl fmt::Debug for ShipChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ra, rb) = self.observed_roles();
        f.debug_struct("ShipChannel")
            .field("name", &self.shared.name)
            .field("role_a", &ra)
            .field("role_b", &rb)
            .finish()
    }
}

/// The future of one SHIP call, boxed so [`ShipEndpoint`] stays object
/// safe.
pub type ShipFuture<'a, T> = Pin<Box<dyn Future<Output = Result<T, ShipError>> + Send + 'a>>;

/// Raw byte-level endpoint behaviour behind a [`ShipPort`].
///
/// Implemented by the in-memory channel here, by SHIP↔OCP bus wrappers in
/// `shiptlm-cam`, and by the eSW device-driver communication library in
/// `shiptlm-hwsw`. PE code only ever sees [`ShipPort`], so swapping the
/// backing endpoint never requires source changes.
///
/// Each call returns a future that waits and records through `sim` in the
/// process awaiting it.
pub trait ShipEndpoint: Send + Sync {
    /// Transfers `bytes` to the peer; blocks while the channel is full.
    ///
    /// The payload is an Arc-backed [`ShipBytes`], so handing it to the
    /// channel (and on to the peer) never copies the buffer.
    ///
    /// # Errors
    ///
    /// Resolves to a [`ShipError`] on protocol violations.
    fn send_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()>;

    /// Receives the next message (data or request payload); blocks while
    /// empty.
    ///
    /// # Errors
    ///
    /// Resolves to a [`ShipError`] on protocol violations.
    fn recv_bytes<'a>(&'a self, sim: &'a SimHandle) -> ShipFuture<'a, ShipBytes>;

    /// Sends a request and blocks until the matching reply arrives.
    ///
    /// # Errors
    ///
    /// Resolves to a [`ShipError`] on protocol violations.
    fn request_bytes<'a>(
        &'a self,
        sim: &'a SimHandle,
        bytes: ShipBytes,
    ) -> ShipFuture<'a, ShipBytes>;

    /// Replies to the oldest outstanding request received on this end.
    ///
    /// # Errors
    ///
    /// Resolves to [`ShipError::Protocol`] when no request is outstanding.
    fn reply_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()>;
}

struct ChannelEndpoint {
    shared: Arc<ChanShared>,
    side: Side,
}

impl ChannelEndpoint {
    fn out_dir(&self) -> usize {
        ChanShared::dir_index(self.side)
    }
    fn in_dir(&self) -> usize {
        ChanShared::dir_index(self.side.opposite())
    }
    fn ep(&self) -> EndpointId {
        self.shared.ep[ChanShared::dir_index(self.side)]
    }
    fn side_str(&self) -> &'static str {
        match self.side {
            Side::A => "A",
            Side::B => "B",
        }
    }

    /// Records the calling process as this side's user, so wait-for edges
    /// pointing at this endpoint resolve to a process name.
    fn note_user(&self, sim: &SimHandle) {
        self.shared.sim.endpoint_user(self.ep(), sim.pid());
    }

    /// Simulated-time deadline for the current call, if a timeout is
    /// configured. Taken at call entry, so transport delay counts against
    /// the budget.
    fn deadline(&self, sim: &SimHandle) -> Option<SimTime> {
        self.shared
            .config
            .timeout
            .and_then(|t| sim.now().checked_add(t))
    }

    /// Queue-state snapshot embedded in timeout errors and endpoint notes.
    fn snapshot(&self) -> String {
        let d0 = self.shared.dirs[0]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let d1 = self.shared.dirs[1]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        format!(
            "a2b {} queued / {} owed replies, b2a {} queued / {} owed replies",
            d0.messages.len(),
            d0.owed_replies,
            d1.messages.len(),
            d1.owed_replies
        )
    }

    fn timeout_error(&self, call: &'static str) -> ShipError {
        ShipError::Timeout {
            channel: self.shared.name.clone(),
            side: self.side_str().to_string(),
            call,
            detail: self.snapshot(),
        }
    }

    /// Blocks on `ev`, honouring the call's deadline when one is set.
    async fn wait_or_timeout(
        &self,
        sim: &SimHandle,
        ev: &Event,
        call: &'static str,
        deadline: Option<SimTime>,
    ) -> Result<(), ShipError> {
        let Some(dl) = deadline else {
            sim.wait(ev).await;
            return Ok(());
        };
        let remaining = dl.saturating_since(sim.now());
        if remaining.is_zero() {
            return Err(self.timeout_error(call));
        }
        match sim.wait_any_for(&[ev], remaining).await {
            Some(_) => Ok(()),
            None => Err(self.timeout_error(call)),
        }
    }

    /// Publishes this side's outstanding-reply debt as a liveness note.
    fn publish_owed(&self, owed: u64) {
        let note = if owed == 0 {
            None
        } else {
            Some(format!("owes {owed} reply(s)"))
        };
        self.shared.sim.endpoint_note(self.ep(), note);
    }

    async fn transport_delay(&self, sim: &SimHandle, len: usize) {
        let cfg = &self.shared.config;
        let d = cfg.latency + cfg.per_byte.saturating_mul(len as u64);
        if !d.is_zero() {
            sim.wait_for(d).await;
        }
    }

    async fn push_message(
        &self,
        sim: &SimHandle,
        msg: Message,
        call: &'static str,
        deadline: Option<SimTime>,
    ) -> Result<(), ShipError> {
        let dir = self.out_dir();
        let mut msg = Some(msg);
        loop {
            {
                let mut q = self.shared.dirs[dir]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if q.messages.len() < self.shared.config.capacity {
                    q.messages
                        .push_back(msg.take().expect("message consumed twice"));
                    break;
                }
            }
            self.wait_or_timeout(sim, &self.shared.msg_read[dir], call, deadline)
                .await?;
        }
        self.shared.msg_written[dir].notify_delta();
        Ok(())
    }

    async fn pop_message(
        &self,
        sim: &SimHandle,
        call: &'static str,
        deadline: Option<SimTime>,
    ) -> Result<Message, ShipError> {
        let dir = self.in_dir();
        loop {
            {
                let mut q = self.shared.dirs[dir]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if let Some(m) = q.messages.pop_front() {
                    let mut owed = None;
                    if m.kind == MsgKind::Request {
                        q.owed_replies += 1;
                        owed = Some(q.owed_replies);
                    }
                    drop(q);
                    if let Some(o) = owed {
                        self.publish_owed(o);
                    }
                    self.shared.msg_read[dir].notify_delta();
                    return Ok(m);
                }
            }
            self.wait_or_timeout(sim, &self.shared.msg_written[dir], call, deadline)
                .await?;
        }
    }
}

impl ShipEndpoint for ChannelEndpoint {
    fn send_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async move {
            self.note_user(sim);
            let deadline = self.deadline(sim);
            self.transport_delay(sim, bytes.len()).await;
            let msg = Message {
                kind: MsgKind::Data,
                bytes,
            };
            self.push_message(sim, msg, "send", deadline).await
        })
    }

    fn recv_bytes<'a>(&'a self, sim: &'a SimHandle) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async move {
            self.note_user(sim);
            let deadline = self.deadline(sim);
            Ok(self.pop_message(sim, "recv", deadline).await?.bytes)
        })
    }

    fn request_bytes<'a>(
        &'a self,
        sim: &'a SimHandle,
        bytes: ShipBytes,
    ) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async move {
            self.note_user(sim);
            let deadline = self.deadline(sim);
            self.transport_delay(sim, bytes.len()).await;
            let msg = Message {
                kind: MsgKind::Request,
                bytes,
            };
            self.push_message(sim, msg, "request", deadline).await?;
            // Wait for a reply travelling back to this side.
            let my_dir = self.out_dir(); // replies-to-me are indexed by my side
            loop {
                {
                    let mut q = self.shared.dirs[my_dir]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    if let Some(r) = q.replies.pop_front() {
                        return Ok(r);
                    }
                }
                let replied = &self.shared.reply_written[my_dir];
                self.wait_or_timeout(sim, replied, "request", deadline)
                    .await?;
            }
        })
    }

    fn reply_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async move {
            self.note_user(sim);
            self.transport_delay(sim, bytes.len()).await;
            // The requester lives on the opposite side; its reply queue is
            // indexed by *its* side.
            let peer_dir = self.in_dir();
            let owed = {
                let mut q = self.shared.dirs[peer_dir]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if q.owed_replies == 0 {
                    return Err(ShipError::Protocol(format!(
                        "reply on channel '{}' without an outstanding request",
                        self.shared.name
                    )));
                }
                q.owed_replies -= 1;
                q.replies.push_back(bytes);
                q.owed_replies
            };
            self.publish_owed(owed);
            self.shared.reply_written[peer_dir].notify_delta();
            Ok(())
        })
    }
}

/// The typed, recorded handle a PE uses to talk SHIP.
///
/// Obtained from [`ShipChannel::ports`] (or from wrapper/driver factories at
/// lower abstraction levels). All four calls block the calling process, per
/// the paper: an async process awaits the `_async` forms, and thread code
/// calls the `(ctx, …)` forms, which wrap them.
#[derive(Clone)]
pub struct ShipPort {
    endpoint: Arc<dyn ShipEndpoint>,
    usage: Arc<Usage>,
    /// Interned channel name; recording a transaction clones the `Arc`, not
    /// the string.
    channel: Arc<str>,
    /// Interned PE label, same deal.
    label: Arc<str>,
    recorder: Arc<Mutex<Option<TransactionLog>>>,
}

impl ShipPort {
    /// Builds a port around a custom [`ShipEndpoint`] backend (used by bus
    /// wrappers and the eSW communication library).
    pub fn from_endpoint(endpoint: Arc<dyn ShipEndpoint>, channel: &str, label: &str) -> ShipPort {
        ShipPort {
            endpoint,
            usage: Arc::new(Usage::new()),
            channel: Arc::from(channel),
            label: Arc::from(label),
            recorder: Arc::new(Mutex::new(None)),
        }
    }

    /// Builds a port that shares `usage` with its channel — the direct
    /// backend uses this so role observation sees the typed-call counters.
    pub(crate) fn with_usage(
        endpoint: Arc<dyn ShipEndpoint>,
        usage: Arc<Usage>,
        channel: Arc<str>,
        label: &str,
    ) -> ShipPort {
        ShipPort {
            endpoint,
            usage,
            channel,
            label: Arc::from(label),
            recorder: Arc::new(Mutex::new(None)),
        }
    }

    /// Rebuilds this port around a wrapped endpoint, keeping the channel
    /// name, label, usage counters and attached recorder shared with the
    /// original. This is the seam conformance harnesses use to interpose a
    /// fault-injecting proxy (drop/duplicate/delay) between PE code and the
    /// real transport without PE source changes.
    pub fn map_endpoint<F>(&self, wrap: F) -> ShipPort
    where
        F: FnOnce(Arc<dyn ShipEndpoint>) -> Arc<dyn ShipEndpoint>,
    {
        ShipPort {
            endpoint: wrap(Arc::clone(&self.endpoint)),
            usage: Arc::clone(&self.usage),
            channel: Arc::clone(&self.channel),
            label: Arc::clone(&self.label),
            recorder: Arc::clone(&self.recorder),
        }
    }

    /// The PE label given at creation.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Attaches a transaction log; every completed call is recorded.
    pub fn attach_recorder(&self, log: TransactionLog) {
        *self.recorder.lock().unwrap_or_else(|e| e.into_inner()) = Some(log);
    }

    /// The role observed from this port's usage so far.
    pub fn observed_role(&self) -> RoleObservation {
        self.usage.snapshot().observe()
    }

    /// Raw usage counters.
    pub fn usage(&self) -> crate::role::UsageSnapshot {
        self.usage.snapshot()
    }

    /// Records one completed call into the kernel transaction recorder
    /// (level [`TxnLevel::Ship`]). One atomic load when recording is off.
    fn txn(&self, sim: &SimHandle, op: &'static str, start: SimTime, bytes: usize, ok: bool) {
        if !sim.txn_enabled() {
            return;
        }
        sim.txn_record(TxnSpan {
            level: TxnLevel::Ship,
            op,
            resource: &self.channel,
            start,
            end: sim.now(),
            bytes,
            ok,
        });
    }

    /// Records one completed call into the time-resolved metrics registry:
    /// per-channel message/byte counters plus the time the caller spent
    /// inside the call (blocked or transferring) as a busy span. One atomic
    /// load when metrics are off.
    fn metric(&self, sim: &SimHandle, start: SimTime, bytes: usize) {
        if !sim.metrics_enabled() {
            return;
        }
        let m = sim.metrics();
        let now = sim.now();
        m.counter_add("ship.messages", &self.channel, 1, now);
        m.counter_add("ship.bytes", &self.channel, bytes as u64, now);
        m.span_record("ship.blocked", &self.channel, start, now);
    }

    fn record(&self, sim: &SimHandle, op: ShipOp, bytes: &[u8], start: SimTime) {
        let g = self.recorder.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(log) = g.as_ref() {
            log.push(TxRecord {
                channel: Arc::clone(&self.channel),
                port: Arc::clone(&self.label),
                op,
                len: bytes.len(),
                digest: fnv1a(bytes),
                start,
                end: sim.now(),
            });
        }
    }

    /// Sends `value` to the peer (master call), waiting and recording
    /// through `sim` in the process that awaits it. Blocks while the
    /// channel is full.
    ///
    /// # Errors
    ///
    /// Resolves to a [`ShipError`] on protocol violations.
    pub async fn send_async<T: ShipSerialize>(
        &self,
        sim: &SimHandle,
        value: &T,
    ) -> Result<(), ShipError> {
        let start = sim.now();
        let bytes = ShipBytes::from(to_wire(value));
        self.usage.count_send();
        // `clone` bumps the refcount; the payload itself is shared with the
        // channel, not copied.
        let result = self.endpoint.send_bytes(sim, bytes.clone()).await;
        self.txn(sim, "send", start, bytes.len(), result.is_ok());
        self.metric(sim, start, bytes.len());
        result?;
        self.record(sim, ShipOp::Send, &bytes, start);
        Ok(())
    }

    /// Receives the next message (slave call), waiting and recording
    /// through `sim`. Blocks while empty.
    ///
    /// # Errors
    ///
    /// Resolves to [`ShipError::Wire`] when the payload cannot decode as
    /// `T`.
    pub async fn recv_async<T: ShipSerialize>(&self, sim: &SimHandle) -> Result<T, ShipError> {
        let start = sim.now();
        self.usage.count_recv();
        let result = self.endpoint.recv_bytes(sim).await;
        let len = result.as_ref().map_or(0, |b| b.len());
        self.txn(sim, "recv", start, len, result.is_ok());
        self.metric(sim, start, len);
        let bytes = result?;
        self.record(sim, ShipOp::Recv, &bytes, start);
        Ok(from_wire(&bytes)?)
    }

    /// Sends a request and blocks until the reply arrives (master call),
    /// waiting and recording through `sim`.
    ///
    /// # Errors
    ///
    /// Resolves to [`ShipError::Wire`] when the reply cannot decode as `R`.
    pub async fn request_async<Q, R>(&self, sim: &SimHandle, req: &Q) -> Result<R, ShipError>
    where
        Q: ShipSerialize,
        R: ShipSerialize,
    {
        let start = sim.now();
        let bytes = ShipBytes::from(to_wire(req));
        self.usage.count_request();
        let req_len = bytes.len();
        let result = self.endpoint.request_bytes(sim, bytes).await;
        let len = result.as_ref().map_or(req_len, |r| req_len + r.len());
        self.txn(sim, "request", start, len, result.is_ok());
        self.metric(sim, start, len);
        let reply = result?;
        self.record(sim, ShipOp::Request, &reply, start);
        Ok(from_wire(&reply)?)
    }

    /// Replies to the oldest outstanding request (slave call), waiting and
    /// recording through `sim`.
    ///
    /// # Errors
    ///
    /// Resolves to [`ShipError::Protocol`] when no request is outstanding.
    pub async fn reply_async<T: ShipSerialize>(
        &self,
        sim: &SimHandle,
        value: &T,
    ) -> Result<(), ShipError> {
        let start = sim.now();
        let bytes = ShipBytes::from(to_wire(value));
        self.usage.count_reply();
        let result = self.endpoint.reply_bytes(sim, bytes.clone()).await;
        self.txn(sim, "reply", start, bytes.len(), result.is_ok());
        self.metric(sim, start, bytes.len());
        result?;
        self.record(sim, ShipOp::Reply, &bytes, start);
        Ok(())
    }

    /// [`send_async`](Self::send_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns a [`ShipError`] on protocol violations.
    pub fn send<T: ShipSerialize>(&self, ctx: &mut ThreadCtx, value: &T) -> Result<(), ShipError> {
        ctx.block_on(self.send_async(&ctx.sim(), value))
    }

    /// [`recv_async`](Self::recv_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns [`ShipError::Wire`] when the payload cannot decode as `T`.
    pub fn recv<T: ShipSerialize>(&self, ctx: &mut ThreadCtx) -> Result<T, ShipError> {
        ctx.block_on(self.recv_async(&ctx.sim()))
    }

    /// [`request_async`](Self::request_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns [`ShipError::Wire`] when the reply cannot decode as `R`.
    pub fn request<Q, R>(&self, ctx: &mut ThreadCtx, req: &Q) -> Result<R, ShipError>
    where
        Q: ShipSerialize,
        R: ShipSerialize,
    {
        ctx.block_on(self.request_async(&ctx.sim(), req))
    }

    /// [`reply_async`](Self::reply_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns [`ShipError::Protocol`] when no request is outstanding.
    pub fn reply<T: ShipSerialize>(&self, ctx: &mut ThreadCtx, value: &T) -> Result<(), ShipError> {
        ctx.block_on(self.reply_async(&ctx.sim(), value))
    }
}

impl fmt::Debug for ShipPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShipPort")
            .field("channel", &self.channel)
            .field("label", &self.label)
            .field("role", &self.observed_role())
            .finish()
    }
}
