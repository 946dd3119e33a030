//! Interrupt handling: sideband signal → ISR → RTOS wakeup.
//!
//! The paper's HW adapter signals the SW side through "shared memory and
//! sideband signals" (§4). The [`IrqController`] watches a level-sensitive
//! sideband [`Signal<bool>`] and invokes registered handlers on every rising
//! level; handlers typically give an [`RtosSemaphore`] to wake the device
//! driver task.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shiptlm_kernel::signal::Signal;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;

use crate::rtos::RtosSemaphore;

type IrqHandler = Box<dyn FnMut() + Send>;

/// Watches a sideband line and dispatches ISRs.
pub struct IrqController {
    handlers: Arc<Mutex<Vec<IrqHandler>>>,
    fired: Arc<AtomicU64>,
}

impl IrqController {
    /// Spawns the controller on `line` as an async process named
    /// `<name>.irq`. `isr_latency` models interrupt entry overhead before
    /// handlers run.
    pub fn spawn(sim: &SimHandle, name: &str, line: Signal<bool>, isr_latency: SimDur) -> Self {
        let handlers: Arc<Mutex<Vec<IrqHandler>>> = Arc::new(Mutex::new(Vec::new()));
        let fired = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&handlers);
        let f = Arc::clone(&fired);
        let s = sim.clone();
        sim.spawn_async(&format!("{name}.irq"), async move {
            let changed = line.changed_event();
            loop {
                s.wait(&changed).await;
                if !line.read() {
                    continue; // falling edge
                }
                if !isr_latency.is_zero() {
                    s.wait_for(isr_latency).await;
                }
                f.fetch_add(1, Ordering::Relaxed);
                let mut hs = h.lock().unwrap_or_else(|e| e.into_inner());
                for handler in hs.iter_mut() {
                    handler();
                }
            }
        });
        IrqController { handlers, fired }
    }

    /// Registers a handler invoked on every rising level.
    pub fn on_irq<F: FnMut() + Send + 'static>(&self, handler: F) {
        self.handlers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Box::new(handler));
    }

    /// Registers a handler that gives `sem` on every interrupt — the common
    /// driver-wakeup pattern.
    pub fn wake_semaphore(&self, sem: RtosSemaphore) {
        self.on_irq(move || sem.give());
    }

    /// Number of interrupts dispatched so far.
    pub fn count(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for IrqController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IrqController")
            .field("fired", &self.count())
            .finish()
    }
}
