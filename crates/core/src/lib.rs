//! # shiptlm
//!
//! A Rust reproduction of **W. Klingauf, "Systematic Transaction Level
//! Modeling of Embedded Systems with SystemC" (DATE 2005)**: a TLM design
//! flow that develops the HW and SW components of an embedded system over
//! the lightweight **SHIP** transaction protocol, enabling fast
//! communication architecture exploration, rapid prototyping and early
//! embedded-software development.
//!
//! The stack (one crate per subsystem, re-exported here):
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | design flow | [`flow`] | the three-model refinement with equivalence checking |
//! | exploration | [`explore`] | app netlists, automatic mapping, sweeps, reports |
//! | HW/SW | [`hwsw`] | RTOS, CPU model, device driver, eSW synthesis |
//! | CAMs | [`cam`] | shared bus (PLB/OPB/AHB presets), crossbar, mesh NoC, wrappers, accessors |
//! | OCP | [`ocp`] | TL payloads/transport, memory, pin-level FSMs |
//! | SHIP | [`ship`] | the four-call channel, serialization, roles, recording |
//! | kernel | [`kernel`] | discrete-event simulation with SystemC semantics |
//!
//! ## Quickstart
//!
//! ```
//! use shiptlm::prelude::*;
//!
//! // A platform-independent application…
//! let mut app = AppSpec::new("hello");
//! app.add_pe("producer", || Box::new(|ctx, ports: Vec<ShipPort>| {
//!     for i in 0..8u32 {
//!         ports[0].send(ctx, &i).unwrap();
//!     }
//! }));
//! app.add_pe("consumer", || Box::new(|ctx, ports: Vec<ShipPort>| {
//!     for i in 0..8u32 {
//!         assert_eq!(ports[0].recv::<u32>(ctx).unwrap(), i);
//!     }
//! }));
//! app.connect("link", "producer", "consumer");
//!
//! // …refined through the flow onto a PLB-like bus.
//! let run = DesignFlow::new(app, ArchSpec::plb()).run().unwrap();
//! assert_eq!(run.component_assembly.roles.master_of["link"], "producer");
//! assert!(run.ccatb.bus.transactions > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flow;
pub mod partition;

pub use shiptlm_cam as cam;
pub use shiptlm_explore as explore;
pub use shiptlm_hwsw as hwsw;
pub use shiptlm_kernel as kernel;
pub use shiptlm_ocp as ocp;
pub use shiptlm_ship as ship;

/// One-stop imports for applications using the full stack.
pub mod prelude {
    pub use crate::flow::{DesignFlow, FlowError, FlowRun, Level};
    pub use crate::partition::{
        run_partitioned, run_partitioned_with, Partition, PartitionError, PartitionedRun,
    };
    pub use shiptlm_cam::prelude::*;
    pub use shiptlm_explore::prelude::*;
    pub use shiptlm_hwsw::prelude::*;
    pub use shiptlm_kernel::prelude::*;
    pub use shiptlm_ocp::prelude::*;
    pub use shiptlm_ship::prelude::*;
}
