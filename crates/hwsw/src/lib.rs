//! # shiptlm-hwsw
//!
//! The HW/SW half of the `shiptlm` design flow (Klingauf, DATE 2005, §4):
//! SW synthesis and fully transaction-based HW/SW communication.
//!
//! * [`rtos`] — a priority-preemptive RTOS simulator (tasks, semaphores,
//!   mailboxes) standing in for the embedded Linux of the paper's prototype;
//! * [`irq`] — sideband-signal interrupt dispatch;
//! * [`driver`] — the SW adapter: device driver + SHIP communication
//!   library implementing the four channel calls over memory-mapped I/O;
//! * [`cpu`] — the CPU subsystem and the eSW-synthesis entry point
//!   [`Cpu::spawn_sw_pe`](cpu::Cpu::spawn_sw_pe), which runs unchanged PE
//!   source as an RTOS task with driver-backed SHIP ports.
//!
//! RTOS tasks and the interrupt controller are async kernel processes, as
//! HW PEs are: every blocking RTOS call is an `async fn` that task code
//! awaits.
//!
//! The HW adapter half of the interface lives in
//! [`shiptlm_cam::wrapper::ShipSlaveAdapter`] — the same mailbox used for
//! HW↔HW channel mapping, with its sideband wired to the CPU's interrupt
//! controller.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod driver;
pub mod irq;
pub mod rtos;

/// Commonly used HW/SW items.
pub mod prelude {
    pub use crate::cpu::{Cpu, SwChannelBinding, SwRole};
    pub use crate::driver::{DriverConfig, NotifyMode, SwShipMaster, SwShipSlave};
    pub use crate::irq::IrqController;
    pub use crate::rtos::{
        Rtos, RtosMailbox, RtosMutex, RtosSemaphore, RtosStats, TaskCtx, TaskId,
    };
}
