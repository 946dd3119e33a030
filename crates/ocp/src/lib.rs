//! # shiptlm-ocp
//!
//! OCP-style interfaces for the `shiptlm` design flow (Klingauf, DATE 2005).
//! Below the CCATB model the flow adopts the Open Core Protocol; this crate
//! provides an OCP-inspired protocol stack at two levels:
//!
//! * **Transaction level** ([`tl`]): the [`OcpTarget`](tl::OcpTarget)
//!   transport, whose `transact` returns a future, with [`payload`] types
//!   carrying CCATB timing annotations, plus a [`Memory`](memory::Memory)
//!   slave and an address-map [`Router`](memory::Router). Thread processes
//!   initiate through the blocking [`OcpMasterPort`](tl::OcpMasterPort).
//! * **Pin level** ([`pin`]): the OCP basic signal group with synthesizable-
//!   style master/slave FSMs and a protocol [monitor](pin::OcpMonitor) — the
//!   level the paper's RTL *accessors* operate at. The FSMs are async
//!   kernel processes, polled inline on every clock edge.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use shiptlm_kernel::prelude::*;
//! use shiptlm_ocp::prelude::*;
//!
//! let sim = Simulation::new();
//! let mem = Arc::new(Memory::new("ram", 4096));
//! let port = OcpMasterPort::bind(MasterId(0), mem);
//! sim.spawn_thread("cpu", move |ctx| {
//!     port.write_u32(ctx, 0x40, 0xDEAD_BEEF).unwrap();
//!     assert_eq!(port.read_u32(ctx, 0x40).unwrap(), 0xDEAD_BEEF);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod memory;
pub mod payload;
pub mod pin;
pub mod tl;

/// Commonly used OCP items.
pub mod prelude {
    pub use crate::error::OcpError;
    pub use crate::memory::{Memory, Router};
    pub use crate::payload::{
        BurstSeq, MCmd, OcpCommand, OcpRequest, OcpResponse, SResp, TxTiming,
    };
    pub use crate::pin::{
        OcpMonitor, OcpPins, PinOcpMaster, PinOcpSlave, ViolationLog, WORD_BYTES,
    };
    pub use crate::tl::{MasterId, OcpFuture, OcpMasterPort, OcpTarget};
}
