//! Communication architecture accessors (paper §3).
//!
//! "Communication architecture accessors … are intended for the automatic
//! generation of a synthesizable prototype of the hardware part. Their use
//! implies that the designer has refined all PEs to the RTL level and has
//! implemented a pin-level OCP interface. Then, to connect a PE to a selected
//! target communication architecture, the appropriate accessor is attached
//! to the PE. Since accessors are implemented as RTL, they are fully
//! synthesizable."
//!
//! An [`Accessor`] bundles a pin-level OCP interface (master FSM on the PE
//! side, slave FSM on the accessor side) with a connection to a target bus:
//! every transaction crosses real pins cycle by cycle before entering the
//! communication architecture.
//!
//! Both FSMs (and the optional monitor) are async kernel processes, polled
//! inline by the thread holding control: a clock edge costs no OS-thread
//! handoff. The slave FSM awaits the bus's [`OcpTarget::transact`] inside
//! its own process, so the CAM transaction path — arbitration, SPLIT,
//! RETRY, NoC hops, the mailbox adapter — runs there too. Only the PE
//! behaviour behind [`port`](Accessor::port) remains a thread process.

use std::fmt;
use std::sync::Arc;

use shiptlm_kernel::clock::Clock;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_ocp::pin::{OcpMonitor, OcpPins, PinOcpMaster, PinOcpSlave, ViolationLog};
use shiptlm_ocp::tl::{MasterId, OcpMasterPort, OcpTarget};

/// A pin-level attachment of one PE to a communication architecture.
pub struct Accessor {
    port: OcpMasterPort,
    pins: OcpPins,
    monitor: Option<ViolationLog>,
    name: String,
}

impl Accessor {
    /// Attaches a PE to `bus` through a pin-level OCP interface clocked by
    /// `clk`. When `checked` is true a protocol monitor watches the pins.
    pub fn attach(
        sim: &SimHandle,
        name: &str,
        clk: &Clock,
        bus: Arc<dyn OcpTarget>,
        master_id: MasterId,
        checked: bool,
    ) -> Self {
        let pins = OcpPins::new(sim, name);
        let master = PinOcpMaster::new(sim, &format!("{name}.m"), pins.clone(), clk);
        PinOcpSlave::spawn(
            sim,
            &format!("{name}.s"),
            pins.clone(),
            clk,
            bus,
            0,
            master_id,
        );
        let monitor =
            checked.then(|| OcpMonitor::spawn(sim, &format!("{name}.mon"), pins.clone(), clk));
        Accessor {
            port: OcpMasterPort::bind(master_id, master),
            pins,
            monitor,
            name: name.to_string(),
        }
    }

    /// The PE-facing port: identical API to every other abstraction level.
    pub fn port(&self) -> &OcpMasterPort {
        &self.port
    }

    /// The pin bundle (e.g. for tracing).
    pub fn pins(&self) -> &OcpPins {
        &self.pins
    }

    /// The protocol monitor's violation log, when checking is enabled.
    pub fn violations(&self) -> Option<&ViolationLog> {
        self.monitor.as_ref()
    }
}

impl fmt::Debug for Accessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accessor")
            .field("name", &self.name)
            .field("checked", &self.monitor.is_some())
            .finish()
    }
}
