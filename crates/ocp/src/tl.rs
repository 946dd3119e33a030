//! Transaction-level OCP interfaces: the transport every CAM, slave model
//! and wrapper implements.
//!
//! [`OcpTarget::transact`] returns a future, so a transaction runs inside
//! whichever process awaits it: an async process (the pin-level slave FSM
//! runs the CAM transaction inside its own process) or a thread process,
//! which reaches it through [`OcpMasterPort`], the thread-side entry.

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
/// wrapper initiates through, and the thread-side entry to
/// [`OcpTarget::transact`]: each call runs the transaction with
/// [`ThreadCtx::block_on`].
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

    /// Issues a blocking transaction.
    ///
    /// # Errors
    ///
    /// Propagates the target's [`OcpError`].
    pub fn transact(&self, ctx: &mut ThreadCtx, req: OcpRequest) -> Result<OcpResponse, OcpError> {
        // Two relaxed loads on the fully-disabled fast path, one per
        // recorder.
        let sim = ctx.sim();
        let txn = ctx.txn_enabled();
        let metrics = ctx.metrics_enabled();
        if !txn && !metrics {
            return ctx.block_on(self.target.transact(&sim, self.id, req));
        }
        let start = ctx.now();
        let op = match req.cmd {
            OcpCommand::Read { .. } => "read",
            OcpCommand::Write { .. } => "write",
        };
        let bytes = req.cmd.len();
        let result = ctx.block_on(self.target.transact(&sim, self.id, req));
        if metrics {
            let m = ctx.metrics();
            let now = ctx.now();
            m.counter_add("ocp.txns", &self.target_label, 1, now);
            m.counter_add("ocp.bytes", &self.target_label, bytes as u64, now);
        }
        if txn {
            ctx.txn_record(TxnSpan {
                level: TxnLevel::Ocp,
                op,
                resource: &self.target_label,
                start,
                end: ctx.now(),
                bytes,
                ok: result.is_ok(),
            });
        }
        result
    }

    /// Convenience blocking read.
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or a non-`DVA` response.
    pub fn read(&self, ctx: &mut ThreadCtx, addr: u64, bytes: usize) -> Result<Vec<u8>, OcpError> {
        let resp = self.transact(ctx, OcpRequest::read(addr, bytes))?;
        if !resp.is_ok() {
            return Err(OcpError::SlaveError {
                addr,
                resp: resp.resp,
            });
        }
        Ok(resp.data)
    }

    /// Convenience blocking write.
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or a non-`DVA` response.
    pub fn write(&self, ctx: &mut ThreadCtx, addr: u64, data: Vec<u8>) -> Result<(), OcpError> {
        let resp = self.transact(ctx, OcpRequest::write(addr, data))?;
        if !resp.is_ok() {
            return Err(OcpError::SlaveError {
                addr,
                resp: resp.resp,
            });
        }
        Ok(())
    }

    /// Blocking 32-bit register read (little-endian).
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or error response.
    pub fn read_u32(&self, ctx: &mut ThreadCtx, addr: u64) -> Result<u32, OcpError> {
        let d = self.read(ctx, addr, 4)?;
        Ok(u32::from_le_bytes(d[..4].try_into().expect("4-byte read")))
    }

    /// Blocking 32-bit register write (little-endian).
    ///
    /// # Errors
    ///
    /// Returns an [`OcpError`] on routing failure or error response.
    pub fn write_u32(&self, ctx: &mut ThreadCtx, addr: u64, value: u32) -> Result<(), OcpError> {
        self.write(ctx, addr, value.to_le_bytes().to_vec())
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
