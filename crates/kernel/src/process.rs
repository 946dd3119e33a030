//! Process contexts: how a simulated process waits, observes time and
//! interacts with the kernel.
//!
//! A *thread* process receives a [`ThreadCtx`], whose blocking waits
//! suspend its OS thread. An *async* process is a future
//! ([`Simulation::spawn_async`](crate::sim::Simulation::spawn_async)) that
//! the thread holding control polls inline; it waits by awaiting the wait
//! futures of a [`SimHandle`](crate::sim::SimHandle) (`wait`, `wait_any`,
//! `wait_any_for`, `wait_for`, `wait_delta`) or an async channel operation
//! such as [`Fifo::read`](crate::fifo::Fifo::read). A wait future suspends
//! whichever process polls it, so thread code that has not been ported
//! runs the same futures through [`ThreadCtx::block_on`]. Both kinds
//! register every wait through one kernel path, so a wait means the same
//! scheduling step whichever kind makes it.

use std::cell::Cell;
use std::fmt;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use crate::direct::{Construct, DirectCore};
use crate::event::Event;
use crate::kernel::{EventId, KernelShared, ProcessId, Resume, Timer};
use crate::metrics::MetricsShared;
use crate::time::{SimDur, SimTime};
use crate::txn::TxnSpan;

/// The process this OS thread is polling: its kernel (identity only), its
/// id and the event that woke it, while unconsumed.
#[derive(Clone, Copy)]
struct Current {
    kernel: *const KernelShared,
    pid: ProcessId,
    cause: Option<EventId>,
}

thread_local! {
    static CURRENT: Cell<Option<Current>> = const { Cell::new(None) };
}

/// Marks process `pid` as the one this OS thread polls, for the guard's
/// lifetime: set around each poll of an async process and each poll inside
/// [`ThreadCtx::block_on`]. Nested runs restore the outer process on drop.
pub(crate) struct Polling {
    outer: Option<Current>,
}

impl Polling {
    pub(crate) fn enter(
        kernel: &Arc<KernelShared>,
        pid: ProcessId,
        cause: Option<EventId>,
    ) -> Self {
        let current = Current {
            kernel: Arc::as_ptr(kernel),
            pid,
            cause,
        };
        Polling {
            outer: CURRENT.replace(Some(current)),
        }
    }

    /// The process of `kernel` being polled on this thread; `None` outside
    /// any poll (the direct backend's `block_on`).
    ///
    /// # Panics
    ///
    /// Panics when a process of another simulation is being polled.
    pub(crate) fn pid(kernel: &Arc<KernelShared>) -> Option<ProcessId> {
        let current = CURRENT.get()?;
        assert!(
            std::ptr::eq(current.kernel, Arc::as_ptr(kernel)),
            "a wait of one simulation was polled by a process of another"
        );
        Some(current.pid)
    }

    /// Takes the event that woke the polled process.
    fn take_cause() -> Option<EventId> {
        let mut current = CURRENT.get()?;
        let cause = current.cause.take();
        CURRENT.set(Some(current));
        cause
    }
}

impl Drop for Polling {
    fn drop(&mut self) {
        CURRENT.set(self.outer);
    }
}

/// The one wait future: suspends the process that polls it until one of
/// `ids` fires or, when `timer` is set, its private timer does. Resolves to
/// the waking event and the timer's id.
pub(crate) struct Suspend<'a> {
    kernel: &'a Arc<KernelShared>,
    ids: &'a [EventId],
    timer: Option<Timer>,
    /// The private timer's id, once the wait is registered.
    armed: Option<EventId>,
}

impl<'a> Suspend<'a> {
    pub(crate) fn new(
        kernel: &'a Arc<KernelShared>,
        ids: &'a [EventId],
        timer: Option<Timer>,
    ) -> Self {
        Suspend {
            kernel,
            ids,
            timer,
            armed: None,
        }
    }
}

/// How a wait ended.
pub(crate) struct Woken {
    /// The event that woke the process.
    cause: EventId,
    /// The process's private timer.
    timer: EventId,
}

impl Woken {
    /// The position of the waking event in `ids`.
    pub(crate) fn index(&self, ids: &[EventId]) -> usize {
        ids.iter()
            .position(|i| *i == self.cause)
            .expect("woken by unregistered event")
    }

    /// The outcome of a wait on `ids` with a timeout: `None` when the
    /// timer woke the process, else the waking event's position. An event
    /// wake cancels the pending timeout, so it cannot end a later wait on
    /// the same private timer.
    pub(crate) fn before_timeout(&self, kernel: &KernelShared, ids: &[EventId]) -> Option<usize> {
        if self.cause == self.timer {
            return None;
        }
        kernel.cancel(self.timer);
        Some(self.index(ids))
    }
}

impl Future for Suspend<'_> {
    type Output = Woken;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Woken> {
        // Outside a kernel poll nothing can register the wait: report
        // `Pending`, which the direct backend's `block_on` disqualifies.
        let Some(pid) = Polling::pid(self.kernel) else {
            return Poll::Pending;
        };
        match self.armed {
            // A process is polled again only once a registered event woke
            // it, so the second poll always completes the wait.
            Some(timer) => Poll::Ready(Woken {
                cause: Polling::take_cause().expect("a wait resumed without a cause"),
                timer,
            }),
            None => {
                self.armed = Some(self.kernel.arm_wait(pid, self.ids, self.timer));
                Poll::Pending
            }
        }
    }
}

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
/// suspend the process and pass control to the scheduler. Blocking
/// channel operations (SHIP calls, OCP master ports) take `&mut ThreadCtx`
/// for the same reason; async ones (FIFO reads, CAM transactions) run
/// through [`block_on`](ThreadCtx::block_on).
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
        txn.record(span.stamped(process));
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
        self.suspend(std::slice::from_ref(&event.id), None, Construct::EventWait);
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
        self.suspend(&ids, None, Construct::EventWait).index(&ids)
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
        let ids: Vec<EventId> = events.iter().map(|e| e.id).collect();
        let woken = self.suspend(&ids, Some(Timer::After(timeout)), Construct::TimedWait);
        let CtxInner::Kernel { kernel, .. } = &self.inner else {
            unreachable!("a direct-backend wait disqualifies the run")
        };
        woken.before_timeout(kernel, &ids)
    }

    /// Suspends for duration `d` of simulated time.
    pub fn wait_for(&mut self, d: SimDur) {
        if d.is_zero() {
            self.wait_delta();
            return;
        }
        self.suspend(&[], Some(Timer::After(d)), Construct::TimedWait);
    }

    /// Suspends for one delta cycle. On the direct backend this is a plain
    /// scheduling hint (plus an abort check): qualifying models only use it
    /// for fairness, never for ordering.
    pub fn wait_delta(&mut self) {
        if let CtxInner::Direct { core, .. } = &self.inner {
            core.check_abort();
            std::thread::yield_now();
            return;
        }
        self.suspend(&[], Some(Timer::Delta), Construct::EventWait);
    }

    /// Registers a wait of this process on `ids` (and its private timer,
    /// when `timer` is set) through the kernel path the wait futures use,
    /// and yields until it ends. On the direct backend, `construct`
    /// disqualifies the run instead.
    fn suspend(&mut self, ids: &[EventId], timer: Option<Timer>, construct: Construct) -> Woken {
        let timer = match &self.inner {
            CtxInner::Kernel { kernel, pid, .. } => kernel.arm_wait(*pid, ids, timer),
            CtxInner::Direct { core, .. } => core.disqualify(construct),
        };
        let cause = self.yield_now().expect("a wait resumed without a cause");
        Woken { cause, timer }
    }

    /// Runs `fut` to completion in this thread process: the way thread code
    /// awaits an async API (a FIFO read, a CAM transaction, a wait future).
    /// Each time `fut` suspends on a kernel wait the process yields exactly
    /// as a blocking wait would, and the waking event resumes it.
    ///
    /// On the direct backend the first suspension disqualifies the run
    /// ([`Construct::EventWait`]); a future that completes without
    /// suspending runs normally.
    pub fn block_on<F: Future>(&mut self, fut: F) -> F::Output {
        let mut fut = pin!(fut);
        let mut cx = Context::from_waker(Waker::noop());
        let mut cause = None;
        loop {
            let polled = match &self.inner {
                CtxInner::Kernel { kernel, pid, .. } => {
                    let _polling = Polling::enter(kernel, *pid, cause);
                    fut.as_mut().poll(&mut cx)
                }
                CtxInner::Direct { core, .. } => match fut.as_mut().poll(&mut cx) {
                    Poll::Pending => core.disqualify(Construct::EventWait),
                    ready => ready,
                },
            };
            match polled {
                Poll::Ready(out) => return out,
                Poll::Pending => cause = self.yield_now(),
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
