//! The public simulation facade: elaboration and run control.

use std::fmt;
use std::future::Future;
use std::path::Path;
use std::sync::Arc;

use crate::clock::Clock;
use crate::direct::{Construct, DirectCore};
use crate::event::Event;
use crate::fifo::Fifo;
use crate::kernel::{Activations, KernelShared, ProcessId, RunResult, Timer};
use crate::liveness::{DeadlockReport, EndpointId};
use crate::metrics::{HostProfile, MetricsShared, MetricsSnapshot};
use crate::process::{Polling, Suspend, ThreadCtx};
use crate::signal::{Signal, SignalValue};
use crate::time::{SimDur, SimTime};
use crate::trace::{TraceError, VcdTracer};
use crate::txn::{TxnSpan, TxnTrace};

/// A discrete-event simulation: owns the kernel, elaborates processes and
/// channels, and drives the scheduler.
///
/// A thread process blocks through its [`ThreadCtx`]; an async process
/// awaits the wait futures of a [`SimHandle`] and async channel operations.
///
/// ```
/// use shiptlm_kernel::prelude::*;
///
/// let sim = Simulation::new();
/// let fifo = sim.fifo::<u32>("pipe", 4);
/// let (tx, rx) = (fifo.clone(), fifo);
/// let h = sim.handle();
/// sim.spawn_async("producer", async move {
///     for i in 0..10 {
///         tx.write(i).await;
///         h.wait_for(SimDur::ns(10)).await;
///     }
/// });
/// sim.spawn_thread("consumer", move |ctx| {
///     for i in 0..10 {
///         assert_eq!(ctx.block_on(rx.read()), i);
///     }
/// });
/// let result = sim.run();
/// assert_eq!(result.reason, StopReason::Starved);
/// ```
pub struct Simulation {
    kernel: Arc<KernelShared>,
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            kernel: KernelShared::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Total number of delta cycles executed so far. A useful proxy for
    /// scheduler effort when comparing abstraction levels.
    pub fn delta_count(&self) -> u64 {
        self.kernel.delta_count()
    }

    /// Process activations so far: thread activations, each of which
    /// resumes an OS thread, and inline ones (async polls). Two relaxed
    /// counters, always on.
    pub fn activations(&self) -> Activations {
        self.kernel.activations()
    }

    /// Creates a named event.
    pub fn event(&self, name: &str) -> Event {
        Event::new(Arc::clone(&self.kernel), name)
    }

    /// Creates a signal with request/update semantics (writes become visible
    /// in the next delta cycle).
    pub fn signal<T: SignalValue>(&self, name: &str, init: T) -> Signal<T> {
        Signal::new(Arc::clone(&self.kernel), name, init)
    }

    /// Creates a bounded blocking FIFO channel.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn fifo<T: Send + 'static>(&self, name: &str, capacity: usize) -> Fifo<T> {
        Fifo::new(Arc::clone(&self.kernel), name, capacity)
    }

    /// Creates a free-running clock with the given period (50% duty cycle).
    pub fn clock(&self, name: &str, period: SimDur) -> Clock {
        Clock::new(Arc::clone(&self.kernel), name, period)
    }

    /// Spawns a thread process. The body runs when the simulation starts and
    /// may block via the [`ThreadCtx`] it receives.
    pub fn spawn_thread<F>(&self, name: &str, body: F) -> ProcessId
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        self.kernel.spawn_thread(name, Box::new(body))
    }

    /// Spawns an async process: `body` is polled inline by the thread
    /// holding control, at the runnable-queue position where a thread
    /// process would be resumed, so no OS thread is involved. It starts
    /// runnable, like a thread process, and suspends by awaiting the wait
    /// futures of a [`SimHandle`] or async channel operations; no other
    /// future may suspend it. Its pid and private timer are allocated in
    /// the same order as [`spawn_thread`](Self::spawn_thread)'s.
    pub fn spawn_async<F>(&self, name: &str, body: F) -> ProcessId
    where
        F: Future<Output = ()> + Send + 'static,
    {
        self.kernel.spawn_async(name, Box::pin(body))
    }

    /// A cloneable handle usable from process bodies or helper structs.
    pub fn handle(&self) -> SimHandle {
        SimHandle::new(Arc::clone(&self.kernel))
    }

    /// Enables VCD tracing; signals registered with
    /// [`Signal::trace`] afterwards are recorded to `path` when the
    /// simulation ends (or [`flush_trace`](Self::flush_trace) is called).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created.
    pub fn trace_vcd<P: AsRef<Path>>(&self, path: P) -> Result<(), TraceError> {
        let tracer = VcdTracer::create(path.as_ref())?;
        *self.kernel.tracer.lock().unwrap_or_else(|e| e.into_inner()) = Some(tracer);
        Ok(())
    }

    /// Writes out buffered VCD data.
    ///
    /// # Errors
    ///
    /// Returns an error if writing the file fails.
    pub fn flush_trace(&self) -> Result<(), TraceError> {
        let mut g = self.kernel.tracer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = g.as_mut() {
            t.flush()?;
        }
        Ok(())
    }

    /// Runs until event starvation or an explicit stop.
    pub fn run(&self) -> RunResult {
        self.kernel.run(None)
    }

    /// Runs until the given absolute time (inclusive of events at it).
    pub fn run_until(&self, t: SimTime) -> RunResult {
        self.kernel.run(Some(t))
    }

    /// Runs for `d` more simulated time. A duration that would overflow
    /// [`SimTime`] saturates to [`SimTime::MAX`] (the infinite horizon), so
    /// the call behaves like an unbounded [`run`](Self::run).
    pub fn run_for(&self, d: SimDur) -> RunResult {
        let limit = self.now().checked_add(d).unwrap_or(SimTime::MAX);
        self.kernel.run(Some(limit))
    }

    /// Requests a stop; takes effect at the end of the current delta cycle.
    pub fn stop(&self) {
        self.kernel.request_stop();
    }

    /// Arms a wall-clock watchdog: any subsequent `run*` call returns
    /// [`StopReason::Watchdog`](crate::kernel::StopReason::Watchdog) once
    /// `budget` of real time has elapsed, instead of spinning forever on a
    /// livelocked model. Pass `None` to disarm.
    pub fn set_watchdog(&self, budget: Option<std::time::Duration>) {
        self.kernel.set_watchdog(budget);
    }

    /// Enables the transaction-level trace recorder with a bounded ring of
    /// at most `capacity` events (per-resource statistics still cover every
    /// event — see [`TxnTrace`]). Calling again resets the recorder.
    ///
    /// When never called, instrumented channels pay only a single relaxed
    /// atomic load per operation.
    pub fn record_transactions(&self, capacity: usize) {
        self.kernel.txn.enable(capacity);
    }

    /// Snapshots everything the transaction recorder captured so far.
    /// Returns an empty trace when recording was never enabled.
    pub fn txn_trace(&self) -> TxnTrace {
        self.kernel.txn.snapshot()
    }

    /// Number of events evicted from the transaction ring so far (the live
    /// counterpart of [`TxnTrace::dropped`]); zero when recording was never
    /// enabled. Exporters surface this as the `txn_trace_dropped_total`
    /// counter.
    pub fn txn_dropped(&self) -> u64 {
        self.kernel.txn.dropped_count()
    }

    /// Enables the time-resolved metrics registry with the given sim-time
    /// sampling window (bus busy time, SHIP message/byte rates, mailbox
    /// occupancy, … become per-window series). Calling again resets the
    /// registry. When never called, instrumented operations pay only a
    /// single relaxed atomic load.
    pub fn enable_metrics(&self, window: SimDur) {
        self.kernel.metrics.enable(window);
    }

    /// Snapshots every metric series recorded so far; empty when metrics
    /// were never enabled. See
    /// [`MetricsSnapshot::to_prometheus`] and
    /// [`MetricsSnapshot::to_timeseries_csv`] for the exporters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.kernel.metrics.snapshot()
    }

    /// Enables the host-time profiler: wall-clock time is attributed to
    /// kernel phases and process activations. Calling again resets it.
    pub fn enable_profiler(&self) {
        self.kernel.profiler.enable();
    }

    /// Snapshots the host-time profile; render with
    /// [`HostProfile::to_folded`] for flamegraph tooling. Empty when the
    /// profiler was never enabled.
    pub fn host_profile(&self) -> HostProfile {
        self.kernel.profiler.snapshot()
    }

    /// Snapshots every blocked process, builds the wait-for graph from
    /// channel-registered edge metadata and runs cycle detection.
    ///
    /// Call after a run ends — typically on
    /// [`StopReason::Starved`](crate::kernel::StopReason::Starved) (all
    /// processes blocked, which is a deadlock whenever work was still
    /// outstanding) or [`StopReason::Watchdog`](crate::kernel::StopReason::Watchdog).
    /// The report's `Display` impl renders the human-readable diagnosis.
    pub fn diagnose(&self) -> DeadlockReport {
        self.kernel.diagnose()
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.kernel.teardown();
        let mut g = self.kernel.tracer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = g.as_mut() {
            // Drop cannot return the error; at minimum make the data loss
            // visible. Call `flush_trace()` before dropping to handle it.
            if let Err(e) = t.flush() {
                eprintln!("shiptlm-kernel: failed to flush VCD trace on drop: {e}");
            }
        }
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("delta_count", &self.delta_count())
            .finish()
    }
}

/// Cloneable, `Send` handle onto a running simulation.
///
/// Obtained from [`Simulation::handle`] or [`ThreadCtx::sim`]; allows
/// creating events/channels and spawning processes dynamically (e.g. an RTOS
/// task creating another task at runtime).
///
/// It is also the handle a process waits and records through from async
/// code: its wait futures ([`wait`](Self::wait), [`wait_any`](Self::wait_any),
/// [`wait_any_for`](Self::wait_any_for), [`wait_for`](Self::wait_for),
/// [`wait_delta`](Self::wait_delta)) suspend whichever process polls them —
/// an async process, or a thread process inside
/// [`ThreadCtx::block_on`] — and [`txn_record`](Self::txn_record) stamps
/// that process's name. A wait future must be awaited to completion.
#[derive(Clone)]
pub struct SimHandle {
    kernel: Arc<KernelShared>,
}

impl SimHandle {
    pub(crate) fn new(kernel: Arc<KernelShared>) -> Self {
        SimHandle { kernel }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Creates a named event.
    pub fn event(&self, name: &str) -> Event {
        Event::new(Arc::clone(&self.kernel), name)
    }

    /// Creates a signal.
    pub fn signal<T: SignalValue>(&self, name: &str, init: T) -> Signal<T> {
        Signal::new(Arc::clone(&self.kernel), name, init)
    }

    /// Creates a bounded FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn fifo<T: Send + 'static>(&self, name: &str, capacity: usize) -> Fifo<T> {
        Fifo::new(Arc::clone(&self.kernel), name, capacity)
    }

    /// Creates a free-running clock with the given period (50% duty cycle).
    pub fn clock(&self, name: &str, period: SimDur) -> Clock {
        Clock::new(Arc::clone(&self.kernel), name, period)
    }

    /// Spawns a thread process; during a run it joins the current evaluate
    /// phase.
    pub fn spawn_thread<F>(&self, name: &str, body: F) -> ProcessId
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        self.kernel.spawn_thread(name, Box::new(body))
    }

    /// Spawns an async process (see [`Simulation::spawn_async`]); during a
    /// run it joins the current evaluate phase.
    pub fn spawn_async<F>(&self, name: &str, body: F) -> ProcessId
    where
        F: Future<Output = ()> + Send + 'static,
    {
        self.kernel.spawn_async(name, Box::pin(body))
    }

    /// Suspends the polling process until `event` is notified.
    pub async fn wait(&self, event: &Event) {
        Suspend::new(&self.kernel, [event.id], None).await;
    }

    /// Suspends the polling process until any of `events` fires; resolves
    /// to the index of the one that woke it.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty (the process could never wake).
    pub async fn wait_any(&self, events: &[&Event]) -> usize {
        assert!(!events.is_empty(), "wait_any on an empty event set");
        Suspend::new(&self.kernel, events.iter().map(|e| e.id), None)
            .await
            .index(events)
    }

    /// Suspends the polling process until any of `events` fires or
    /// `timeout` elapses: `Some(index)` of the waking event, or `None` on
    /// timeout. An event wake cancels the pending timeout, so it cannot
    /// end a later wait early.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or `timeout` is zero.
    pub async fn wait_any_for(&self, events: &[&Event], timeout: SimDur) -> Option<usize> {
        assert!(!events.is_empty(), "wait_any_for on an empty event set");
        assert!(!timeout.is_zero(), "wait_any_for with a zero timeout");
        self.kernel.disqualify_if_direct(Construct::TimedWait);
        let ids = events.iter().map(|e| e.id);
        Suspend::new(&self.kernel, ids, Some(Timer::After(timeout)))
            .await
            .before_timeout(&self.kernel, events)
    }

    /// Suspends the polling process for `d` of simulated time; a zero
    /// duration waits one delta cycle.
    pub async fn wait_for(&self, d: SimDur) {
        if d.is_zero() {
            return self.wait_delta().await;
        }
        self.kernel.disqualify_if_direct(Construct::TimedWait);
        Suspend::new(&self.kernel, [], Some(Timer::After(d))).await;
    }

    /// Suspends the polling process for one delta cycle. On the direct
    /// backend this is a plain scheduling hint, as
    /// [`ThreadCtx::wait_delta`] is there.
    pub async fn wait_delta(&self) {
        if let Some((core, _)) = self.kernel.direct() {
            return core.yield_hint();
        }
        Suspend::new(&self.kernel, [], Some(Timer::Delta)).await;
    }

    /// The id of the process being polled; on the direct backend, the
    /// index of the thread this handle was taken from.
    ///
    /// # Panics
    ///
    /// Panics outside a poll of one of this simulation's processes.
    pub fn pid(&self) -> ProcessId {
        Polling::pid(&self.kernel)
            .or_else(|| self.kernel.direct().map(|(_, index)| ProcessId(index)))
            .expect("pid outside a process")
    }

    /// When this handle belongs to a thread of `core`'s direct-execution
    /// run, the thread's index: the hook direct channels use to park
    /// against the right stall domain. `None` under the delta-cycle kernel
    /// and for threads of other runs.
    pub fn direct_thread(&self, core: &Arc<DirectCore>) -> Option<usize> {
        self.kernel.direct_thread(core)
    }

    /// Records a completed transaction span, stamped with the name of the
    /// process being polled (on the direct backend, of the thread this
    /// handle was taken from). No-op when the recorder is disabled.
    ///
    /// # Panics
    ///
    /// Panics outside a poll of one of this simulation's processes.
    pub fn txn_record(&self, span: TxnSpan<'_>) {
        if !self.txn_enabled() {
            return;
        }
        let process = match self.kernel.direct() {
            Some((core, index)) => core.process_name(index),
            None => self.kernel.process_name(self.pid()),
        };
        self.kernel.txn.record(span.stamped(process));
    }

    /// Requests the simulation to stop.
    pub fn stop(&self) {
        self.kernel.request_stop();
    }

    /// Registers a blocking endpoint (one side of a channel, a bus mailbox
    /// adapter, a driver port) for liveness diagnosis.
    pub fn register_blocking_endpoint(&self, resource: &str, side: &str) -> EndpointId {
        self.kernel.register_endpoint(resource, side)
    }

    /// Records which process is currently using `ep`; wait-for edges point
    /// at this process when someone blocks on an event `ep` fires.
    pub fn endpoint_user(&self, ep: EndpointId, pid: ProcessId) {
        self.kernel.endpoint_user(ep, pid);
    }

    /// Declares which *named* process is expected to use `ep` (e.g. the PE
    /// label a port was handed to). Used as a fallback when the owner
    /// deadlocks before its first call ever records a
    /// [`endpoint_user`](Self::endpoint_user).
    pub fn endpoint_owner_hint(&self, ep: EndpointId, name: &str) {
        self.kernel.endpoint_owner_hint(ep, name);
    }

    /// Attaches live detail text to `ep` (e.g. `owed replies: 1`), shown in
    /// deadlock reports.
    pub fn endpoint_note(&self, ep: EndpointId, note: Option<String>) {
        self.kernel.endpoint_note(ep, note);
    }

    /// Annotates `event` with the meaning of waiting on it (e.g.
    /// `request (awaiting reply)`) and, when known, the endpoint whose
    /// activity fires it.
    pub fn annotate_wait(&self, event: &Event, description: &str, notifier: Option<EndpointId>) {
        self.kernel.annotate_wait(event.id, description, notifier);
    }

    /// See [`Simulation::diagnose`].
    pub fn diagnose(&self) -> DeadlockReport {
        self.kernel.diagnose()
    }

    /// `true` when the transaction recorder is enabled. Instrumentation
    /// sites check this before doing any span bookkeeping.
    #[inline]
    pub fn txn_enabled(&self) -> bool {
        self.kernel.txn.is_enabled()
    }

    /// See [`Simulation::txn_trace`].
    pub fn txn_trace(&self) -> TxnTrace {
        self.kernel.txn.snapshot()
    }

    /// `true` when the metrics registry is enabled. Instrumentation sites
    /// check this before any series bookkeeping.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.kernel.metrics.is_enabled()
    }

    /// The kernel's metrics registry, for recording from instrumented
    /// channels and adapters.
    pub fn metrics(&self) -> &MetricsShared {
        &self.kernel.metrics
    }
}

impl fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}
