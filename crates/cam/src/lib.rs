//! # shiptlm-cam
//!
//! Communication architecture models (CAMs) for the `shiptlm` design flow
//! (Klingauf, DATE 2005, §3): CCATB bus models, a crossbar, a mesh NoC, a
//! bus bridge, arbitration policies, SHIP↔OCP wrappers and pin-level
//! accessors.
//!
//! * [`bus::CcatbBus`] — the one shared bus, with cycle-count-accurate
//!   boundary timing; [`bus::BusConfig::plb`], [`bus::BusConfig::opb`] and
//!   [`bus::BusConfig::ahb`] are its CoreConnect- and AMBA-style presets.
//!   AHB adds SPLIT/RETRY arbitration and SINGLE/INCR/WRAP burst accounting
//!   ([`ahb`]).
//! * [`noc::MeshNoc`] — a 2D-mesh NoC with XY routing and per-link
//!   arbitration, scaling to 16×16 (256 PEs) and beyond.
//! * [`crossbar::Crossbar`] — parallel transfers, per-output arbitration.
//! * [`account::Cam`] — what every interconnect reports: each family settles
//!   a finished transaction through one accounting step (statistics,
//!   `bus.*` metrics, `Bus` txn spans, response timing) and decodes
//!   addresses through the shared OCP [`Router`](shiptlm_ocp::memory::Router).
//! * [`bridge::Bridge`] — PLB↔OPB-style bus coupling.
//! * [`arb::ArbPolicy`] — fixed priority, round-robin, TDMA.
//! * [`wrapper`] — maps a SHIP channel onto a bus without touching PE code.
//! * [`accessor::Accessor`] — pin-level attachment for prototype generation.
//!
//! ## Example: two masters contending on a PLB
//!
//! ```
//! use std::sync::Arc;
//! use shiptlm_kernel::prelude::*;
//! use shiptlm_ocp::prelude::*;
//! use shiptlm_cam::bus::{BusConfig, CcatbBus};
//!
//! let sim = Simulation::new();
//! let mut bus = CcatbBus::new(&sim.handle(), BusConfig::plb("plb"));
//! bus.map_slave(0..0x1000, Arc::new(Memory::new("ram", 0x1000)), true);
//! let bus = Arc::new(bus);
//! for m in 0..2 {
//!     let port = bus.master_port(MasterId(m));
//!     sim.spawn_thread(&format!("m{m}"), move |ctx| {
//!         for i in 0..16u64 {
//!             port.write(ctx, i * 64, vec![m as u8; 64]).unwrap();
//!         }
//!     });
//! }
//! sim.run();
//! assert_eq!(bus.stats().transactions, 32);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accessor;
pub mod account;
pub mod ahb;
pub mod arb;
pub mod bridge;
pub mod bus;
pub mod crossbar;
pub mod noc;
pub mod dma;
pub mod wrapper;

/// Commonly used CAM items.
pub mod prelude {
    pub use crate::accessor::Accessor;
    pub use crate::account::Cam;
    pub use crate::ahb::{burst_kind, wrap_addresses, AhbBurst, AhbStats};
    pub use crate::arb::{ArbPolicy, Ticket};
    pub use crate::bridge::Bridge;
    pub use crate::bus::{BusConfig, BusStats, CcatbBus, MasterStats};
    pub use crate::crossbar::{Crossbar, CrossbarConfig};
    pub use crate::noc::{MeshNoc, NocConfig, NocStats};
    pub use crate::dma::{
        dma_regs, DmaEngine, DMA_CTRL_CLEAR, DMA_CTRL_START, DMA_STATUS_BUSY, DMA_STATUS_DONE,
        DMA_STATUS_ERROR,
    };
    pub use crate::wrapper::{
        map_channel, PendingMapping, ShipBusMasterEndpoint, ShipSlaveAdapter, WrapperConfig,
        ADAPTER_SIZE,
    };
}
