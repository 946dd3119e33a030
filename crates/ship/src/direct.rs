//! Direct-execution SHIP channel: the untimed channel semantics on the
//! [`DirectSim`](shiptlm_kernel::direct::DirectSim) backend.
//!
//! A [`DirectChannel`] is behaviourally identical to an untimed
//! [`ShipChannel`](crate::channel::ShipChannel): the same four blocking
//! calls, the same per-direction bounded queues, the same request/reply
//! accounting and the same error strings. What changes is the blocking
//! mechanism — instead of yielding to the delta-cycle scheduler, a blocked
//! call parks its thread on the channel's [`Gate`] (a mutex/condvar pair)
//! and the peer wakes it with a plain notification, so each call's future
//! finishes within one poll. No kernel runs; a message hand-off is two lock
//! acquisitions.
//!
//! Equivalence rests on the untimed level's semantics being independent of
//! scheduling order: the cross-level checker compares per-(channel, port)
//! content streams, which are fixed by the channel protocol alone. Timeout
//! behaviour is preserved through the backend's exact global stall
//! detection — a budgeted call times out iff every live thread is blocked,
//! exactly when the DE kernel would advance time and fire the (all-equal)
//! untimed deadlines.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use shiptlm_kernel::direct::{Construct, DirectCore, Disqualified, Gate, ParkInfo, ParkVerdict};
use shiptlm_kernel::sim::SimHandle;

use crate::bytes::ShipBytes;
use crate::channel::{ShipConfig, ShipEndpoint, ShipFuture, ShipPort, Side};
use crate::error::ShipError;
use crate::role::{RoleObservation, Usage};

/// Message discriminant mirroring the DE channel's data/request split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Data,
    Request,
}

/// Per-side queue bundle; index *i* belongs to side *i* (0 = A, 1 = B).
/// Same layout and meaning as the DE channel's `DirQueues`.
#[derive(Debug, Default)]
struct DirState {
    /// Data/request messages **from** this side to the opposite one.
    messages: VecDeque<(Kind, ShipBytes)>,
    /// Replies destined **to** this side (this side was the requester).
    replies: VecDeque<ShipBytes>,
    /// Requests **from** this side the peer has popped but not yet replied
    /// to.
    owed_replies: u64,
}

struct DirectShared {
    name: String,
    capacity: usize,
    /// Whether blocking calls carry a sim-time budget (`ShipConfig::timeout`).
    timeout_armed: bool,
    core: Arc<DirectCore>,
    /// One gate guards both directions: every mutation may unblock either
    /// side, and waiters re-check their own condition on wake.
    gate: Arc<Gate<[DirState; 2]>>,
    usage: [Arc<Usage>; 2],
    /// `ship channel '<name>'`, interned for deadlock reports.
    resource: Arc<str>,
}

fn dir_index(side: Side) -> usize {
    match side {
        Side::A => 0,
        Side::B => 1,
    }
}

/// A point-to-point SHIP channel running on the direct backend.
///
/// Construct with [`DirectChannel::new`] against a
/// [`DirectSim`](shiptlm_kernel::direct::DirectSim)'s core, take the two
/// [`ShipPort`]s with [`ports`](DirectChannel::ports), and hand them to
/// thread bodies exactly as with a [`ShipChannel`](crate::channel::ShipChannel)
/// — PE source code cannot tell the backends apart.
pub struct DirectChannel {
    shared: Arc<DirectShared>,
}

impl DirectChannel {
    /// Creates a channel on the given direct core.
    ///
    /// # Errors
    ///
    /// Returns [`Disqualified`] when `config` carries transport latency —
    /// a timed channel needs the DE kernel.
    ///
    /// # Panics
    ///
    /// Panics when `config.capacity` is zero, like the DE channel.
    pub fn new(
        core: &Arc<DirectCore>,
        name: &str,
        config: ShipConfig,
    ) -> Result<Self, Disqualified> {
        assert!(
            config.capacity > 0,
            "ship channel capacity must be non-zero"
        );
        if !config.latency.is_zero() || !config.per_byte.is_zero() {
            return Err(Disqualified {
                construct: Construct::TimedChannel,
                process: "<elaboration>".to_string(),
            });
        }
        Ok(DirectChannel {
            shared: Arc::new(DirectShared {
                name: name.to_string(),
                capacity: config.capacity,
                timeout_armed: config.timeout.is_some(),
                core: Arc::clone(core),
                gate: core.gate([DirState::default(), DirState::default()]),
                usage: [Arc::new(Usage::new()), Arc::new(Usage::new())],
                resource: Arc::from(format!("ship channel '{name}'")),
            }),
        })
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Creates the two port handles, labelled with their PE names.
    pub fn ports(&self, label_a: &str, label_b: &str) -> (ShipPort, ShipPort) {
        let channel: Arc<str> = Arc::from(self.shared.name.as_str());
        let a = ShipPort::with_usage(
            Arc::new(DirectEndpoint {
                shared: Arc::clone(&self.shared),
                side: Side::A,
            }),
            Arc::clone(&self.shared.usage[0]),
            Arc::clone(&channel),
            label_a,
        );
        let b = ShipPort::with_usage(
            Arc::new(DirectEndpoint {
                shared: Arc::clone(&self.shared),
                side: Side::B,
            }),
            Arc::clone(&self.shared.usage[1]),
            channel,
            label_b,
        );
        (a, b)
    }

    /// Observed roles of (side A, side B) — the paper's automatic
    /// master/slave detection, identical to the DE channel's.
    pub fn observed_roles(&self) -> (RoleObservation, RoleObservation) {
        (
            self.shared.usage[0].snapshot().observe(),
            self.shared.usage[1].snapshot().observe(),
        )
    }
}

impl fmt::Debug for DirectChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ra, rb) = self.observed_roles();
        f.debug_struct("DirectChannel")
            .field("name", &self.shared.name)
            .field("role_a", &ra)
            .field("role_b", &rb)
            .finish()
    }
}

struct DirectEndpoint {
    shared: Arc<DirectShared>,
    side: Side,
}

impl DirectEndpoint {
    fn out_dir(&self) -> usize {
        dir_index(self.side)
    }
    fn in_dir(&self) -> usize {
        dir_index(self.side.opposite())
    }
    fn side_str(&self) -> &'static str {
        match self.side {
            Side::A => "A",
            Side::B => "B",
        }
    }

    /// The calling thread's index on this channel's core.
    ///
    /// # Errors
    ///
    /// Rejects handles from other backends or other direct runs — a port
    /// smuggled across runs would park against the wrong stall domain.
    fn who(&self, sim: &SimHandle) -> Result<usize, ShipError> {
        sim.direct_thread(&self.shared.core).ok_or_else(|| {
            ShipError::Protocol(format!(
                "direct channel '{}' used outside its direct-execution run",
                self.shared.name
            ))
        })
    }

    /// Queue-state snapshot embedded in timeout errors; same wording as the
    /// DE channel's.
    fn snapshot(dirs: &[DirState; 2]) -> String {
        format!(
            "a2b {} queued / {} owed replies, b2a {} queued / {} owed replies",
            dirs[0].messages.len(),
            dirs[0].owed_replies,
            dirs[1].messages.len(),
            dirs[1].owed_replies
        )
    }

    fn timeout_error(&self, call: &'static str, dirs: &[DirState; 2]) -> ShipError {
        ShipError::Timeout {
            channel: self.shared.name.clone(),
            side: self.side_str().to_string(),
            call,
            detail: Self::snapshot(dirs),
        }
    }

    fn park_info(&self, description: &'static str) -> ParkInfo {
        ParkInfo {
            resource: Arc::clone(&self.shared.resource),
            description,
            timeout_armed: self.shared.timeout_armed,
        }
    }

    fn push_message(
        &self,
        sim: &SimHandle,
        msg: (Kind, ShipBytes),
        call: &'static str,
    ) -> Result<(), ShipError> {
        let who = self.who(sim)?;
        let dir = self.out_dir();
        let gate = &self.shared.gate;
        let mut g = gate.lock();
        loop {
            if g[dir].messages.len() < self.shared.capacity {
                g[dir].messages.push_back(msg);
                gate.notify_all(&mut g);
                return Ok(());
            }
            let (guard, verdict) = self.shared.core.park(
                gate,
                g,
                who,
                self.park_info("send (channel full, awaiting reader)"),
            );
            g = guard;
            if verdict == ParkVerdict::TimedOut {
                return Err(self.timeout_error(call, &g));
            }
        }
    }
}

impl DirectEndpoint {
    fn recv(&self, sim: &SimHandle) -> Result<ShipBytes, ShipError> {
        let who = self.who(sim)?;
        let dir = self.in_dir();
        let gate = &self.shared.gate;
        let mut g = gate.lock();
        loop {
            if let Some((kind, bytes)) = g[dir].messages.pop_front() {
                if kind == Kind::Request {
                    g[dir].owed_replies += 1;
                }
                gate.notify_all(&mut g);
                return Ok(bytes);
            }
            let (guard, verdict) =
                self.shared
                    .core
                    .park(gate, g, who, self.park_info("recv (awaiting message)"));
            g = guard;
            if verdict == ParkVerdict::TimedOut {
                return Err(self.timeout_error("recv", &g));
            }
        }
    }

    fn request(&self, sim: &SimHandle, bytes: ShipBytes) -> Result<ShipBytes, ShipError> {
        self.push_message(sim, (Kind::Request, bytes), "request")?;
        let who = self.who(sim)?;
        // Replies travelling back to this side are indexed by this side.
        let my_dir = self.out_dir();
        let gate = &self.shared.gate;
        let mut g = gate.lock();
        loop {
            if let Some(r) = g[my_dir].replies.pop_front() {
                return Ok(r);
            }
            let (guard, verdict) =
                self.shared
                    .core
                    .park(gate, g, who, self.park_info("request (awaiting reply)"));
            g = guard;
            if verdict == ParkVerdict::TimedOut {
                return Err(self.timeout_error("request", &g));
            }
        }
    }

    fn reply(&self, sim: &SimHandle, bytes: ShipBytes) -> Result<(), ShipError> {
        self.who(sim)?;
        // The requester lives on the opposite side; its reply queue is
        // indexed by *its* side.
        let peer_dir = self.in_dir();
        let gate = &self.shared.gate;
        let mut g = gate.lock();
        if g[peer_dir].owed_replies == 0 {
            return Err(ShipError::Protocol(format!(
                "reply on channel '{}' without an outstanding request",
                self.shared.name
            )));
        }
        g[peer_dir].owed_replies -= 1;
        g[peer_dir].replies.push_back(bytes);
        gate.notify_all(&mut g);
        Ok(())
    }
}

/// Each call parks the polling thread until it can finish, so its future
/// is ready at the first poll.
impl ShipEndpoint for DirectEndpoint {
    fn send_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async move { self.push_message(sim, (Kind::Data, bytes), "send") })
    }

    fn recv_bytes<'a>(&'a self, sim: &'a SimHandle) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async move { self.recv(sim) })
    }

    fn request_bytes<'a>(
        &'a self,
        sim: &'a SimHandle,
        bytes: ShipBytes,
    ) -> ShipFuture<'a, ShipBytes> {
        Box::pin(async move { self.request(sim, bytes) })
    }

    fn reply_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(async move { self.reply(sim, bytes) })
    }
}
