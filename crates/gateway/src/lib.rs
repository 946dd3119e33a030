//! # shiptlm-gateway
//!
//! Simulation as a service: a long-running gateway that accepts model and
//! sweep jobs over a length-prefixed wire protocol, schedules them onto
//! the shared exploration [`WorkerPool`], deduplicates identical work
//! through a content-addressed result cache, and streams deterministic
//! report rows (and optional latency traces) back to clients.
//!
//! The wire protocol is built on `ship::wire` — the same hardened
//! [`ByteReader`]/[`ByteWriter`] layer the SHIP channels use for payload
//! serialization — with a pluggable body codec negotiated per connection:
//! compact binary ([`codec::BinCodec`]) or self-describing JSON
//! ([`codec::JsonCodec`]). Both carry the job schema of
//! [`shiptlm_explore::model`]: a [`ModelSpec`] and its candidate
//! [`ArchSpec`]s, each with one binary and one JSON form, decoded through
//! one range check per type.
//!
//! ```no_run
//! use shiptlm_gateway::prelude::*;
//! use shiptlm_explore::model::{GenConfig, ModelSpec};
//! use shiptlm_explore::prelude::ArchSpec;
//!
//! let gateway = Gateway::start(GatewayConfig::default()).unwrap();
//! let mut client = GatewayClient::connect(gateway.addr(), &BIN).unwrap();
//! let outcome = client
//!     .run_job(&JobRequest {
//!         id: 1,
//!         spec: ModelSpec::random(42, &GenConfig::default()),
//!         archs: vec![ArchSpec::plb(), ArchSpec::crossbar()],
//!         backend: BackendChoice::De,
//!         want_trace: false,
//!         trace: None,
//!         want_progress: false,
//!     })
//!     .unwrap();
//! assert!(outcome.is_done());
//! gateway.shutdown();
//! ```
//!
//! [`WorkerPool`]: shiptlm_explore::pool::WorkerPool
//! [`ModelSpec`]: shiptlm_explore::model::ModelSpec
//! [`ArchSpec`]: shiptlm_explore::arch::ArchSpec
//! [`ByteReader`]: shiptlm_ship::wire::ByteReader
//! [`ByteWriter`]: shiptlm_ship::wire::ByteWriter

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod codec;
pub mod metrics;
pub mod proto;
pub mod server;

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, tolerating poison: gateway state stays usable even if a
/// holder panicked (the executor converts job panics to errors anyway).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Commonly used gateway items.
pub mod prelude {
    pub use crate::cache::{CacheOutcome, JobOutput, JobResult, ResultCache};
    pub use crate::client::{GatewayClient, JobOutcome, JobProgress, JobStatus};
    pub use crate::codec::{codec_for, BinCodec, JsonCodec, WireCodec, BIN, JSON};
    pub use crate::metrics::{http_get, GatewayMetrics};
    pub use crate::proto::{
        read_frame, write_frame, BackendChoice, GatewayError, JobRequest, Reply, ReportRow,
    };
    pub use crate::server::{Gateway, GatewayConfig};
}
