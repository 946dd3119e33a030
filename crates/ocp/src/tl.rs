//! Transaction-level OCP interfaces: the transport every CAM, slave model
//! and wrapper implements.
//!
//! [`OcpTarget::transact`] returns a future, so a transaction runs inside
//! whichever process awaits it: an async process (the pin-level slave FSM
//! runs the CAM transaction inside its own process, a PE behaviour awaits
//! [`OcpMasterPort::transact_async`]) or a thread process, which calls the
//! `(ctx, …)` forms of [`OcpMasterPort`].

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use shiptlm_kernel::process::ThreadCtx;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::txn::{TxnLevel, TxnSpan};

use crate::error::OcpError;
use crate::payload::{OcpCommand, OcpRequest, OcpResponse};

/// Identifies a master attached to a target (used for arbitration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MasterId(pub usize);

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// The future of one OCP transaction, boxed so [`OcpTarget`] stays object
/// safe: one allocation per target that runs the transaction (a
/// [`Router`](crate::memory::Router) forwards its target's future).
pub type OcpFuture<'a> = Pin<Box<dyn Future<Output = Result<OcpResponse, OcpError>> + Send + 'a>>;

/// An OCP transaction target (slave, bus, bridge or router).
///
/// The transaction suspends the process awaiting it for its full duration;
/// the resulting [`OcpResponse`] carries the CCATB timing annotation.
pub trait OcpTarget: Send + Sync {
    /// Executes one transaction on behalf of `master`, waiting and
    /// recording through `sim` in the process that awaits the future.
    ///
    /// # Errors
    ///
    /// Resolves to an [`OcpError`] when the request cannot be routed or the
    /// target rejects it outright (distinct from a slave `ERR` response,
    /// which is a successful transport of a failed operation).
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        master: MasterId,
        req: OcpRequest,
    ) -> OcpFuture<'a>;

    /// Human-readable target name.
    fn target_name(&self) -> String {
        "<anonymous>".to_string()
    }
}

/// A master-side port bound to a target — the OCP TLM interface a PE or
/// wrapper initiates through. Each call is implemented once, as a future
/// that waits and records through a [`SimHandle`]; its `(ctx, …)` form runs
/// that future with [`ThreadCtx::block_on`].
#[derive(Clone)]
pub struct OcpMasterPort {
    id: MasterId,
    target: Arc<dyn OcpTarget>,
    /// Target name interned once at bind time; every recorded transaction
    /// clones the `Arc`, never re-queries the target.
    target_label: Arc<str>,
}

impl OcpMasterPort {
    /// Binds master `id` to `target`.
    pub fn bind(id: MasterId, target: Arc<dyn OcpTarget>) -> Self {
        let target_label = Arc::from(target.target_name().as_str());
        OcpMasterPort {
            id,
            target,
            target_label,
        }
    }

    /// This port's master id.
    pub fn id(&self) -> MasterId {
        self.id
    }

    /// Issues a transaction, blocking the process that awaits it.
    ///
    /// # Errors
    ///
    /// Resolves to the target's [`OcpError`].
    pub async fn transact_async(
        &self,
        sim: &SimHandle,
        req: OcpRequest,
    ) -> Result<OcpResponse, OcpError> {
        // Two relaxed loads on the fully-disabled fast path, one per
        // recorder.
        let txn = sim.txn_enabled();
        let metrics = sim.metrics_enabled();
        if !txn && !metrics {
            return self.target.transact(sim, self.id, req).await;
        }
        let start = sim.now();
        let op = match req.cmd {
            OcpCommand::Read { .. } => "read",
            OcpCommand::Write { .. } => "write",
        };
        let bytes = req.cmd.len();
        let result = self.target.transact(sim, self.id, req).await;
        if metrics {
            let m = sim.metrics();
            let now = sim.now();
            m.counter_add("ocp.txns", &self.target_label, 1, now);
            m.counter_add("ocp.bytes", &self.target_label, bytes as u64, now);
        }
        if txn {
            sim.txn_record(TxnSpan {
                level: TxnLevel::Ocp,
                op,
                resource: &self.target_label,
                start,
                end: sim.now(),
                bytes,
                ok: result.is_ok(),
            });
        }
        result
    }

    /// Reads `bytes` at `addr`.
    ///
    /// # Errors
    ///
    /// Resolves to an [`OcpError`] on routing failure or a non-`DVA`
    /// response.
    pub async fn read_async(
        &self,
        sim: &SimHandle,
        addr: u64,
        bytes: usize,
    ) -> Result<Vec<u8>, OcpError> {
        let resp = self
            .transact_async(sim, OcpRequest::read(addr, bytes))
            .await?;
        if !resp.is_ok() {
            return Err(OcpError::SlaveError {
                addr,
                resp: resp.resp,
            });
        }
        Ok(resp.data)
    }

    /// Writes `data` at `addr`.
    ///
    /// # Errors
    ///
    /// Resolves to an [`OcpError`] on routing failure or a non-`DVA`
    /// response.
    pub async fn write_async(
        &self,
        sim: &SimHandle,
        addr: u64,
        data: Vec<u8>,
    ) -> Result<(), OcpError> {
        let resp = self
            .transact_async(sim, OcpRequest::write(addr, data))
            .await?;
        if !resp.is_ok() {
            return Err(OcpError::SlaveError {
                addr,
                resp: resp.resp,
            });
        }
        Ok(())
    }

    /// 32-bit register read (little-endian).
    ///
    /// # Errors
    ///
    /// Resolves to an [`OcpError`] on routing failure or error response.
    pub async fn read_u32_async(&self, sim: &SimHandle, addr: u64) -> Result<u32, OcpError> {
        let d = self.read_async(sim, addr, 4).await?;
        Ok(u32::from_le_bytes(d[..4].try_into().expect("4-byte read")))
    }

    /// 32-bit register write (little-endian).
    ///
    /// # Errors
    ///
    /// Resolves to an [`OcpError`] on routing failure or error response.
    pub async fn write_u32_async(
        &self,
        sim: &SimHandle,
        addr: u64,
        value: u32,
    ) -> Result<(), OcpError> {
        self.write_async(sim, addr, value.to_le_bytes().to_vec())
            .await
    }

    /// [`transact_async`](Self::transact_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Propagates the target's [`OcpError`].
    pub fn transact(&self, ctx: &mut ThreadCtx, req: OcpRequest) -> Result<OcpResponse, OcpError> {
        ctx.block_on(self.transact_async(&ctx.sim(), req))
    }

    /// [`read_async`](Self::read_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or a non-`DVA` response.
    pub fn read(&self, ctx: &mut ThreadCtx, addr: u64, bytes: usize) -> Result<Vec<u8>, OcpError> {
        ctx.block_on(self.read_async(&ctx.sim(), addr, bytes))
    }

    /// [`write_async`](Self::write_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or a non-`DVA` response.
    pub fn write(&self, ctx: &mut ThreadCtx, addr: u64, data: Vec<u8>) -> Result<(), OcpError> {
        ctx.block_on(self.write_async(&ctx.sim(), addr, data))
    }

    /// [`read_u32_async`](Self::read_u32_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or error response.
    pub fn read_u32(&self, ctx: &mut ThreadCtx, addr: u64) -> Result<u32, OcpError> {
        ctx.block_on(self.read_u32_async(&ctx.sim(), addr))
    }

    /// [`write_u32_async`](Self::write_u32_async) from a thread process.
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or error response.
    pub fn write_u32(&self, ctx: &mut ThreadCtx, addr: u64, value: u32) -> Result<(), OcpError> {
        ctx.block_on(self.write_u32_async(&ctx.sim(), addr, value))
    }
}

impl fmt::Debug for OcpMasterPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OcpMasterPort")
            .field("id", &self.id)
            .field("target", &self.target.target_name())
            .finish()
    }
}
