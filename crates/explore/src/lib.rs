//! # shiptlm-explore
//!
//! Communication architecture exploration for the `shiptlm` design flow
//! (Klingauf, DATE 2005, §3): given an application as a netlist of PEs and
//! SHIP channels, automatically detect channel roles, map the communication
//! onto candidate architectures (PLB/OPB/crossbar × arbitration × burst
//! size), simulate, and compare.
//!
//! * [`app::AppSpec`] — the platform-independent application netlist;
//! * [`mapper`] — role detection + automatic channel-to-bus mapping;
//! * [`arch::ArchSpec`] — candidate architecture configurations;
//! * [`model`] — the gateway job schema: seeded [`model::ModelSpec`]s with
//!   their binary and JSON forms (and [`arch::ArchSpec`]'s);
//! * [`workload`] — deterministic synthetic applications;
//! * [`sweep::Sweep`] — one-call exploration producing a [`metrics::Report`].
//!
//! ## Example
//!
//! ```
//! use shiptlm_explore::prelude::*;
//! use shiptlm_kernel::time::SimDur;
//!
//! let app = workload::pipeline(3, 16, 256, SimDur::ZERO);
//! let report = Sweep::new(app)
//!     .arch(ArchSpec::plb())
//!     .arch(ArchSpec::crossbar())
//!     .run()
//!     .unwrap();
//! assert_eq!(report.rows().len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod arch;
pub mod mapper;
pub mod metrics;
pub mod model;
pub mod pareto;
pub mod pool;
pub mod sweep;
#[cfg(test)]
mod wirecase;
pub mod workload;

/// Commonly used exploration items.
pub mod prelude {
    pub use crate::app::{AppSpec, ChannelSpec, PeBehavior, PeFuture, PeSpec};
    pub use crate::arch::{build_interconnect, ArchGrid, ArchSpec, BusKind, Interconnect};
    pub use crate::mapper::{
        explore_one, run_component_assembly, run_component_assembly_with, run_mapped,
        run_mapped_with, run_pin_accurate, run_pin_accurate_with, Backend, BackendReport, CaRun,
        MapError, MappedRun, PortHook, PortSite, RoleMap, RunOptions, RunOutput, MAP_BASE,
    };
    pub use crate::metrics::{Report, RunMetrics};
    pub use crate::pareto::{dominates, pareto_front, report_front, ParetoSet};
    pub use crate::pool::{CancelToken, ChunkDone, WorkerPool};
    pub use crate::sweep::{
        sweep, verify_equivalence, PruneConfig, PruneContext, Sweep, SweepProgress,
    };
    pub use crate::workload;
}
