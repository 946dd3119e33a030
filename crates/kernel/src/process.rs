//! Thread-process context: the handle through which a simulated process
//! waits, observes time and interacts with the kernel.

use std::fmt;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::direct::{Construct, DirectCore};
use crate::event::Event;
use crate::kernel::{EventId, KernelShared, ProcessId, Resume};
use crate::metrics::MetricsShared;
use crate::time::{SimDur, SimTime};
use crate::txn::{TxnEvent, TxnOutcome, TxnSpan};

/// Which execution backend is driving this process.
enum CtxInner {
    /// The delta-cycle kernel: a blocking call runs the scheduler on this
    /// thread and passes control to the next due process.
    Kernel {
        kernel: Arc<KernelShared>,
        pid: ProcessId,
        resume_rx: Receiver<Resume>,
        /// Profiler probe of the activation in progress.
        activation: Option<Instant>,
    },
    /// The direct backend (see [`crate::direct`]): the thread runs free,
    /// time stands still at zero, and any construct needing the event
    /// queue disqualifies the run.
    Direct {
        core: Arc<DirectCore>,
        index: usize,
        name: Arc<str>,
        /// Lazily-built dormant kernel backing [`ThreadCtx::sim`]: objects
        /// created through it (events, signals) work as long as they never
        /// need the event queue; the first construct that does aborts the
        /// direct run via the kernel's `direct_guard`.
        sim: OnceLock<Arc<KernelShared>>,
    },
}

/// Execution context of a thread process.
///
/// A `ThreadCtx` is handed to the process body and is the only way for the
/// process to block: [`wait`](ThreadCtx::wait), [`wait_for`](ThreadCtx::wait_for),
/// [`wait_any`](ThreadCtx::wait_any) and [`wait_delta`](ThreadCtx::wait_delta)
/// suspend the process and pass control to the scheduler. Channel
/// blocking operations (FIFO reads, SHIP calls, bus transactions) all take
/// `&mut ThreadCtx` for the same reason.
///
/// The same type serves both backends: under the delta-cycle kernel the
/// blocking calls run the scheduler on the process's own thread; under the
/// direct backend ([`DirectSim`](crate::direct::DirectSim)) the process is a
/// free-running OS thread and kernel-only constructs abort the run with a
/// [`Disqualified`](crate::direct::Disqualified) verdict instead.
pub struct ThreadCtx {
    inner: CtxInner,
}

impl ThreadCtx {
    /// The context of kernel process `pid`, created when it first runs.
    pub(crate) fn new(
        kernel: Arc<KernelShared>,
        pid: ProcessId,
        resume_rx: Receiver<Resume>,
    ) -> Self {
        let activation = kernel.profiler.start();
        ThreadCtx {
            inner: CtxInner::Kernel {
                kernel,
                pid,
                resume_rx,
                activation,
            },
        }
    }

    pub(crate) fn direct(core: Arc<DirectCore>, index: usize, name: Arc<str>) -> Self {
        ThreadCtx {
            inner: CtxInner::Direct {
                core,
                index,
                name,
                sim: OnceLock::new(),
            },
        }
    }

    /// When this process runs on the direct backend, its core and thread
    /// index — the hook direct channels use to park against the right
    /// stall domain. `None` under the delta-cycle kernel.
    pub fn direct_backend(&self) -> Option<(&Arc<DirectCore>, usize)> {
        match &self.inner {
            CtxInner::Kernel { .. } => None,
            CtxInner::Direct { core, index, .. } => Some((core, *index)),
        }
    }

    /// Current simulated time. Always [`SimTime::ZERO`] on the direct
    /// backend — a model that qualifies for it never observes time advance
    /// under the delta-cycle kernel either.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            CtxInner::Kernel { kernel, .. } => kernel.now(),
            CtxInner::Direct { .. } => SimTime::ZERO,
        }
    }

    /// The id of this process.
    pub fn pid(&self) -> ProcessId {
        match &self.inner {
            CtxInner::Kernel { pid, .. } => *pid,
            CtxInner::Direct { index, .. } => ProcessId(*index),
        }
    }

    /// The name this process was spawned with (an interned label; cloning
    /// it is cheap).
    pub fn name(&self) -> Arc<str> {
        match &self.inner {
            CtxInner::Kernel { kernel, pid, .. } => kernel.process_name(*pid),
            CtxInner::Direct { name, .. } => Arc::clone(name),
        }
    }

    /// A handle for creating events / spawning processes from inside a
    /// running process.
    ///
    /// On the direct backend this hands out a *dormant* kernel: creating
    /// objects through it succeeds, but the first operation that needs the
    /// event queue (a timed notification, a signal update, a dynamic
    /// process) disqualifies the direct run.
    pub fn sim(&self) -> crate::sim::SimHandle {
        let kernel = match &self.inner {
            CtxInner::Kernel { kernel, .. } => Arc::clone(kernel),
            CtxInner::Direct { core, sim, .. } => {
                let k = sim.get_or_init(|| {
                    let k = KernelShared::new();
                    let _ = k.direct_guard.set(Arc::downgrade(core));
                    k
                });
                Arc::clone(k)
            }
        };
        crate::sim::SimHandle::new(kernel)
    }

    /// Requests the simulation to stop at the end of the current delta.
    pub fn stop(&self) {
        match &self.inner {
            CtxInner::Kernel { kernel, .. } => kernel.request_stop(),
            CtxInner::Direct { core, .. } => core.disqualify(Construct::ExplicitStop),
        }
    }

    /// `true` when the transaction recorder is enabled
    /// ([`Simulation::record_transactions`](crate::sim::Simulation::record_transactions)).
    /// A single relaxed atomic load — instrumentation sites use it as the
    /// zero-overhead fast path when recording is off.
    #[inline]
    pub fn txn_enabled(&self) -> bool {
        match &self.inner {
            CtxInner::Kernel { kernel, .. } => kernel.txn.is_enabled(),
            CtxInner::Direct { core, .. } => core.txn.is_enabled(),
        }
    }

    /// Records a completed transaction span, stamping it with this process's
    /// name. No-op when the recorder is disabled.
    pub fn txn_record(&self, span: TxnSpan<'_>) {
        if !self.txn_enabled() {
            return;
        }
        let (txn, process) = match &self.inner {
            CtxInner::Kernel { kernel, pid, .. } => (&kernel.txn, kernel.process_name(*pid)),
            CtxInner::Direct { core, index, .. } => (&core.txn, core.process_name(*index)),
        };
        txn.record(TxnEvent {
            level: span.level,
            op: span.op,
            resource: Arc::clone(span.resource),
            process,
            start: span.start,
            end: span.end,
            bytes: span.bytes,
            outcome: if span.ok {
                TxnOutcome::Ok
            } else {
                TxnOutcome::Error
            },
        });
    }

    /// `true` when the time-resolved metrics registry is enabled
    /// ([`Simulation::enable_metrics`](crate::sim::Simulation::enable_metrics)).
    /// A single relaxed atomic load — the zero-overhead fast path for
    /// instrumentation sites when metrics are off.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        match &self.inner {
            CtxInner::Kernel { kernel, .. } => kernel.metrics.is_enabled(),
            CtxInner::Direct { core, .. } => core.metrics.is_enabled(),
        }
    }

    /// The kernel's metrics registry, for recording counters, gauges, busy
    /// spans and histogram samples from instrumented channels.
    pub fn metrics(&self) -> &MetricsShared {
        match &self.inner {
            CtxInner::Kernel { kernel, .. } => &kernel.metrics,
            CtxInner::Direct { core, .. } => &core.metrics,
        }
    }

    /// Suspends until `event` is notified.
    pub fn wait(&mut self, event: &Event) {
        match &mut self.inner {
            CtxInner::Kernel { kernel, pid, .. } => {
                kernel.register_wait(*pid, &[event.id]);
                let _ = self.yield_now();
            }
            CtxInner::Direct { core, .. } => core.disqualify(Construct::EventWait),
        }
    }

    /// Suspends until any of `events` fires; returns the index of the one
    /// that woke this process.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty (the process could never wake).
    pub fn wait_any(&mut self, events: &[&Event]) -> usize {
        assert!(!events.is_empty(), "wait_any on an empty event set");
        let ids: Vec<EventId> = events.iter().map(|e| e.id).collect();
        match &mut self.inner {
            CtxInner::Kernel { kernel, pid, .. } => {
                kernel.register_wait(*pid, &ids);
            }
            CtxInner::Direct { core, .. } => core.disqualify(Construct::EventWait),
        }
        let cause = self.yield_now();
        match cause {
            Some(c) => ids
                .iter()
                .position(|i| *i == c)
                .expect("woken by unregistered event"),
            None => panic!("wait_any woke without a cause"),
        }
    }

    /// Suspends until any of `events` fires or `timeout` elapses.
    ///
    /// Returns `Some(index)` of the waking event, or `None` on timeout.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or `timeout` is zero.
    pub fn wait_any_for(&mut self, events: &[&Event], timeout: SimDur) -> Option<usize> {
        assert!(!events.is_empty(), "wait_any_for on an empty event set");
        assert!(!timeout.is_zero(), "wait_any_for with a zero timeout");
        let (timer, mut ids) = match &mut self.inner {
            CtxInner::Kernel { kernel, pid, .. } => {
                let timer = kernel.process_timer(*pid);
                kernel.notify_after(timer, timeout);
                let ids: Vec<EventId> = events.iter().map(|e| e.id).collect();
                (timer, ids)
            }
            CtxInner::Direct { core, .. } => core.disqualify(Construct::TimedWait),
        };
        ids.push(timer);
        if let CtxInner::Kernel { kernel, pid, .. } = &self.inner {
            kernel.register_wait(*pid, &ids);
        }
        let cause = self.yield_now();
        match cause {
            Some(c) if c == timer => None,
            Some(c) => {
                // Cancel the pending timeout so it cannot spuriously wake a
                // later wait on the same private timer.
                if let CtxInner::Kernel { kernel, .. } = &self.inner {
                    kernel.cancel(timer);
                }
                Some(
                    ids.iter()
                        .position(|i| *i == c)
                        .expect("woken by unregistered event"),
                )
            }
            None => panic!("wait_any_for woke without a cause"),
        }
    }

    /// Suspends for duration `d` of simulated time.
    pub fn wait_for(&mut self, d: SimDur) {
        if d.is_zero() {
            self.wait_delta();
            return;
        }
        match &mut self.inner {
            CtxInner::Kernel { kernel, pid, .. } => {
                let timer = kernel.process_timer(*pid);
                kernel.notify_after(timer, d);
                kernel.register_wait(*pid, &[timer]);
                let _ = self.yield_now();
            }
            CtxInner::Direct { core, .. } => core.disqualify(Construct::TimedWait),
        }
    }

    /// Suspends for one delta cycle. On the direct backend this is a plain
    /// scheduling hint (plus an abort check): qualifying models only use it
    /// for fairness, never for ordering.
    pub fn wait_delta(&mut self) {
        match &mut self.inner {
            CtxInner::Kernel { kernel, pid, .. } => {
                let timer = kernel.process_timer(*pid);
                kernel.notify_delta(timer);
                kernel.register_wait(*pid, &[timer]);
                let _ = self.yield_now();
            }
            CtxInner::Direct { core, .. } => {
                core.check_abort();
                std::thread::yield_now();
            }
        }
    }

    /// Runs the scheduler on this thread, passes control to the next due
    /// process and blocks until resumed; returns the wake cause. When this
    /// process is itself next, it continues without blocking.
    ///
    /// The caller must have registered a wait beforehand, otherwise the
    /// process never wakes. Kernel backend only; direct-backend blocking is
    /// handled in the channels via [`DirectCore::park`](crate::direct::DirectCore::park).
    fn yield_now(&mut self) -> Option<EventId> {
        let CtxInner::Kernel {
            kernel,
            pid,
            resume_rx,
            activation,
        } = &mut self.inner
        else {
            unreachable!("yield_now is only reachable from the kernel backend")
        };
        kernel.record_activation(*pid, activation.take());
        let cause = kernel.yield_process(*pid, resume_rx);
        *activation = kernel.profiler.start();
        cause
    }

    /// Ends the last activation of a kernel process whose body has
    /// returned, passing control on for good.
    pub(crate) fn terminate(&mut self) {
        let CtxInner::Kernel {
            kernel,
            pid,
            activation,
            ..
        } = &mut self.inner
        else {
            unreachable!("terminate is only reachable from the kernel backend")
        };
        kernel.record_activation(*pid, activation.take());
        kernel.exit_process(*pid);
    }
}

impl fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("pid", &self.pid().0)
            .field("name", &self.name())
            .field("now", &self.now())
            .finish()
    }
}
