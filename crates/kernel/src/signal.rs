//! Request/update signals, analogous to SystemC's `sc_signal`.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::kernel::{EventId, KernelShared, Update};
use crate::time::SimTime;
use crate::trace::{TraceId, TraceValue};

/// Values a [`Signal`] can carry.
///
/// Blanket-implemented for every `Clone + PartialEq + Send + 'static` type.
/// The update phase compares a written value with the current one while
/// the scheduler holds the kernel lock, so `PartialEq` must not call into
/// the simulation.
pub trait SignalValue: Clone + PartialEq + Send + 'static {}

impl<T: Clone + PartialEq + Send + 'static> SignalValue for T {}

/// VCD trace id plus the monomorphized bit-conversion for one signal.
type TraceHook<T> = (TraceId, fn(&T) -> u64);

struct SigState<T> {
    cur: T,
    next: Option<T>,
    update_pending: bool,
    /// VCD hook: trace id plus the monomorphized bit-conversion, installed by
    /// [`Signal::trace`].
    trace: Option<TraceHook<T>>,
}

struct SigShared<T> {
    kernel: Arc<KernelShared>,
    name: String,
    state: Mutex<SigState<T>>,
    changed: EventId,
}

/// A signal with SystemC request/update semantics: a write becomes visible
/// to readers only in the next delta cycle, and the value-changed event fires
/// only when the new value differs from the old one.
///
/// Cloning a `Signal` yields another handle to the same signal.
///
/// ```
/// use shiptlm_kernel::prelude::*;
///
/// let sim = Simulation::new();
/// let sig = sim.signal("flag", false);
/// let (w, r) = (sig.clone(), sig.clone());
/// sim.spawn_thread("writer", move |ctx| {
///     w.write(true);
///     // Not yet visible: update happens after this evaluate phase.
///     assert!(!w.read());
///     ctx.wait_delta();
///     assert!(w.read());
/// });
/// sim.spawn_thread("reader", move |ctx| {
///     let ev = r.changed_event();
///     ctx.wait(&ev);
///     assert!(r.read());
/// });
/// sim.run();
/// ```
pub struct Signal<T> {
    shared: Arc<SigShared<T>>,
}

impl<T> Clone for Signal<T> {
    fn clone(&self) -> Self {
        Signal {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: SignalValue> Signal<T> {
    pub(crate) fn new(kernel: Arc<KernelShared>, name: &str, init: T) -> Self {
        let changed = kernel.new_event(&format!("{name}.changed"));
        Signal {
            shared: Arc::new(SigShared {
                kernel,
                name: name.to_string(),
                state: Mutex::new(SigState {
                    cur: init,
                    next: None,
                    update_pending: false,
                    trace: None,
                }),
                changed,
            }),
        }
    }

    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Reads the current (stable) value.
    pub fn read(&self) -> T {
        self.shared.lock().cur.clone()
    }

    /// Schedules `v` to become the signal value in the next delta cycle.
    /// Multiple writes within one evaluate phase: the last one wins.
    pub fn write(&self, v: T) {
        let need_request = {
            let mut g = self.shared.lock();
            g.next = Some(v);
            !std::mem::replace(&mut g.update_pending, true)
        };
        if need_request {
            self.shared
                .kernel
                .request_update(Arc::clone(&self.shared) as Arc<dyn Update>);
        }
    }

    /// The event notified (one delta later) whenever the value changes.
    pub fn changed_event(&self) -> Event {
        Event::from_id(Arc::clone(&self.shared.kernel), self.shared.changed)
    }
}

impl<T: SignalValue> Update for SigShared<T> {
    fn update(&self, now: SimTime) -> Option<EventId> {
        let trace_rec = {
            let mut g = self.lock();
            g.update_pending = false;
            match g.next.take() {
                Some(next) if next != g.cur => {
                    g.cur = next;
                    g.trace.map(|(id, conv)| (id, conv(&g.cur)))
                }
                _ => return None,
            }
        };
        if let Some((id, bits)) = trace_rec {
            let mut tg = self.kernel.tracer.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = tg.as_mut() {
                t.change(now.as_ps(), id, bits);
            }
        }
        Some(self.changed)
    }
}

impl<T: SignalValue + TraceValue> Signal<T> {
    /// Registers this signal in the simulation's VCD trace under
    /// `hierarchical_name` (e.g. `"top.bus.req"`).
    ///
    /// Call after [`Simulation::trace_vcd`](crate::sim::Simulation::trace_vcd)
    /// and before running.
    pub fn trace(&self, hierarchical_name: &str) {
        let mut tracer_guard = self
            .shared
            .kernel
            .tracer
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(tracer) = tracer_guard.as_mut() else {
            return;
        };
        let mut g = self.shared.lock();
        let id = tracer.register(hierarchical_name, T::WIDTH, g.cur.to_bits());
        g.trace = Some((id, T::to_bits));
    }
}

impl<T> SigShared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, SigState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: SignalValue + fmt::Debug> fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signal")
            .field("name", &self.shared.name)
            .field("value", &self.read())
            .finish()
    }
}
