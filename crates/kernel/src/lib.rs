//! # shiptlm-kernel
//!
//! A discrete-event simulation kernel with SystemC scheduler semantics, the
//! substrate for the `shiptlm` transaction-level-modeling stack (a Rust
//! reproduction of Klingauf, *Systematic Transaction Level Modeling of
//! Embedded Systems with SystemC*, DATE 2005).
//!
//! The kernel provides:
//!
//! * [`Simulation`](sim::Simulation) — elaboration and run control;
//! * [`Event`](event::Event) — immediate/delta/timed notifications;
//! * two process kinds: async processes
//!   ([`spawn_async`](sim::Simulation::spawn_async)) that await the wait
//!   futures of a [`SimHandle`](sim::SimHandle), and thread processes with
//!   blocking [`wait`](process::ThreadCtx::wait) semantics. The thread
//!   holding control polls async processes inline; only a thread
//!   activation costs an OS handoff, and
//!   [`ThreadCtx::block_on`](process::ThreadCtx::block_on) lets thread code
//!   await async APIs. Every process the library spawns (clock generators,
//!   pin FSMs, PE behaviours, RTOS tasks) is async;
//! * [`Signal`](signal::Signal) (request/update), [`Fifo`](fifo::Fifo),
//!   [`Clock`](clock::Clock), [`SimMutex`](sync::SimMutex) and
//!   [`SimSemaphore`](sync::SimSemaphore);
//! * VCD [tracing](trace) and [statistics](stats) helpers;
//! * a dependency-free [`Json`](json::Json) value type, parser and writer,
//!   whose [`Quoted`](json::Quoted) is the workspace's one JSON string
//!   escaper;
//! * [liveness] diagnosis — wait-for graphs, cycle detection and
//!   human-readable [`DeadlockReport`](liveness::DeadlockReport)s, plus a
//!   wall-clock watchdog ([`StopReason::Watchdog`]).
//!
//! ## Example
//!
//! ```
//! use shiptlm_kernel::prelude::*;
//!
//! let sim = Simulation::new();
//! let done = sim.event("done");
//! let done2 = done.clone();
//! sim.spawn_thread("worker", move |ctx| {
//!     ctx.wait_for(SimDur::us(3));
//!     done2.notify();
//! });
//! sim.spawn_thread("observer", move |ctx| {
//!     ctx.wait(&done);
//!     assert_eq!(ctx.now(), SimTime::ZERO + SimDur::us(3));
//! });
//! let result = sim.run();
//! assert_eq!(result.reason, StopReason::Starved);
//! assert_eq!(result.time, SimTime::ZERO + SimDur::us(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod causal;
pub mod clock;
pub mod direct;
pub mod event;
pub mod fifo;
pub mod json;
mod kernel;
pub mod liveness;
pub mod metrics;
pub mod process;
pub mod rng;
pub mod signal;
pub mod sim;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;
pub mod txn;

pub use kernel::{Activations, EventId, ProcessId, RunResult, StopReason};

/// Commonly used kernel items.
pub mod prelude {
    pub use crate::causal::{CausalSpan, CausalTrace, SpanSink, TraceCtx};
    pub use crate::clock::Clock;
    pub use crate::direct::{
        Construct, DirectCore, DirectOutcome, DirectSim, Disqualified, Gate, ParkInfo, ParkVerdict,
    };
    pub use crate::event::Event;
    pub use crate::fifo::Fifo;
    pub use crate::liveness::{DeadlockReport, EndpointId, WaitForGraph};
    pub use crate::metrics::{
        csv_escape, HostProfile, MetricSeries, MetricsShared, MetricsSnapshot, SeriesData,
    };
    pub use crate::process::ThreadCtx;
    pub use crate::signal::Signal;
    pub use crate::sim::{SimHandle, Simulation};
    pub use crate::sync::{SimMutex, SimSemaphore};
    pub use crate::time::{SimDur, SimTime};
    pub use crate::txn::{TxnEvent, TxnLevel, TxnOutcome, TxnSpan, TxnTrace};
    pub use crate::{Activations, EventId, ProcessId, RunResult, StopReason};
}
