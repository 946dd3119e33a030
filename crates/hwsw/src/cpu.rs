//! A CPU subsystem: RTOS + bus master port + interrupt controller, with
//! eSW synthesis helpers (paper §4).
//!
//! [`Cpu::spawn_sw_pe`] is the "SW synthesis" step: it takes a processing
//! element behaviour that builds its future from `(SimHandle,
//! Vec<ShipPort>)` — the very same signature used for hardware PEs — and
//! runs that future as an RTOS task whose SHIP ports are backed by the
//! device driver. A HW PE and its SW form are both async kernel processes;
//! no PE source changes are involved, only the port binding differs.

use std::fmt;
use std::future::Future;
use std::sync::Arc;

use shiptlm_kernel::signal::Signal;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;
use shiptlm_ocp::tl::OcpMasterPort;
use shiptlm_ship::channel::ShipPort;

use crate::driver::{DriverConfig, SwShipMaster, SwShipSlave};
use crate::irq::IrqController;
use crate::rtos::{Rtos, RtosSemaphore, TaskId};

/// Which end of a mapped channel a SW PE drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwRole {
    /// The SW task sends/requests (HW peer is the slave).
    Master,
    /// The SW task receives/replies (HW peer is the master).
    Slave,
}

/// Binding of one SHIP channel endpoint into a SW task.
#[derive(Debug, Clone)]
pub struct SwChannelBinding {
    /// Channel name (for logs and role reports).
    pub channel: String,
    /// Port label, usually the PE name.
    pub label: String,
    /// Which end the task drives.
    pub role: SwRole,
    /// Bus base address of the channel's mailbox adapter.
    pub base: u64,
    /// Driver configuration for this endpoint.
    pub driver: DriverConfig,
}

/// A CPU subsystem: one RTOS instance, one bus-master port, one IRQ line.
pub struct Cpu {
    sim: SimHandle,
    /// The RTOS scheduling this CPU's tasks.
    pub rtos: Rtos,
    bus: OcpMasterPort,
    irq: Option<IrqController>,
    name: String,
}

impl Cpu {
    /// Creates a CPU with an RTOS, attached to the bus via `bus`.
    pub fn new(sim: &SimHandle, name: &str, bus: OcpMasterPort) -> Self {
        Cpu {
            sim: sim.clone(),
            rtos: Rtos::new(sim),
            bus,
            irq: None,
            name: name.to_string(),
        }
    }

    /// Wires the CPU's interrupt controller to a sideband line. ISRs run
    /// after `isr_latency`.
    pub fn attach_irq_line(&mut self, line: Signal<bool>, isr_latency: SimDur) {
        self.irq = Some(IrqController::spawn(
            &self.sim,
            &self.name,
            line,
            isr_latency,
        ));
    }

    /// The interrupt controller, when wired.
    pub fn irq(&self) -> Option<&IrqController> {
        self.irq.as_ref()
    }

    /// The CPU's bus-master port.
    pub fn bus_port(&self) -> &OcpMasterPort {
        &self.bus
    }

    /// Creates a driver semaphore hooked to the IRQ controller — use it in
    /// [`DriverConfig::irq`].
    ///
    /// # Panics
    ///
    /// Panics if no IRQ line was attached.
    pub fn irq_semaphore(&self, name: &str) -> RtosSemaphore {
        let irq = self
            .irq
            .as_ref()
            .expect("attach_irq_line before irq_semaphore");
        let sem = RtosSemaphore::new(&self.sim, &self.rtos, name, 0);
        irq.wake_semaphore(sem.clone());
        sem
    }

    /// **eSW synthesis**: runs a PE behaviour as an RTOS task with
    /// driver-backed SHIP ports (one per binding, in order). The task's
    /// future is the behaviour's own, awaited directly.
    ///
    /// The behaviour signature matches hardware PEs exactly, so the same
    /// function/closure can be passed here and to a hardware elaboration.
    pub fn spawn_sw_pe<F, Fut>(
        &self,
        name: &str,
        prio: u8,
        bindings: Vec<SwChannelBinding>,
        behavior: F,
    ) -> TaskId
    where
        F: FnOnce(SimHandle, Vec<ShipPort>) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let rtos = self.rtos.clone();
        let bus = self.bus.clone();
        self.rtos.spawn_task(name, prio, move |t| {
            let task = t.id();
            let ports: Vec<ShipPort> = bindings
                .iter()
                .map(|b| {
                    let ep: Arc<dyn shiptlm_ship::channel::ShipEndpoint> = match b.role {
                        SwRole::Master => {
                            SwShipMaster::new(&rtos, task, bus.clone(), b.base, b.driver.clone())
                        }
                        SwRole::Slave => {
                            SwShipSlave::new(&rtos, task, bus.clone(), b.base, b.driver.clone())
                        }
                    };
                    ShipPort::from_endpoint(ep, &b.channel, &b.label)
                })
                .collect();
            behavior(t.sim().clone(), ports)
        })
    }
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("name", &self.name)
            .field("irq", &self.irq.is_some())
            .finish()
    }
}

impl SwChannelBinding {
    /// A master-side binding with a polling driver.
    pub fn master_polling(channel: &str, label: &str, base: u64, interval: SimDur) -> Self {
        SwChannelBinding {
            channel: channel.to_string(),
            label: label.to_string(),
            role: SwRole::Master,
            base,
            driver: DriverConfig::polling(interval),
        }
    }

    /// A slave-side binding with a polling driver.
    pub fn slave_polling(channel: &str, label: &str, base: u64, interval: SimDur) -> Self {
        SwChannelBinding {
            channel: channel.to_string(),
            label: label.to_string(),
            role: SwRole::Slave,
            base,
            driver: DriverConfig::polling(interval),
        }
    }

    /// A master-side binding with an interrupt-driven driver.
    pub fn master_irq(channel: &str, label: &str, base: u64, sem: RtosSemaphore) -> Self {
        SwChannelBinding {
            channel: channel.to_string(),
            label: label.to_string(),
            role: SwRole::Master,
            base,
            driver: DriverConfig::irq(sem),
        }
    }

    /// Overrides the driver's burst size.
    pub fn with_burst(mut self, burst_bytes: usize) -> Self {
        self.driver.burst_bytes = burst_bytes;
        self
    }
}
