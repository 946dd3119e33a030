//! Kernel internals: event arena, process table and the scheduler loop.
//!
//! The scheduler follows SystemC semantics:
//!
//! 1. **Evaluate** — run every runnable process until the runnable set drains
//!    (immediate notifications extend the current evaluate phase).
//! 2. **Update** — apply channel update requests ([`Signal`](crate::signal::Signal)
//!    writes become visible here).
//! 3. **Delta notify** — promote delta notifications; if any process woke,
//!    start the next delta cycle at the same simulated time.
//! 4. **Time advance** — otherwise pop the earliest timed notifications and
//!    advance [`SimTime`].
//!
//! There are two process kinds. An *async* process is a future, and a
//! *thread* process is a real OS thread. Exactly one OS thread holds
//! control at any instant, so the simulation is fully deterministic. The
//! scheduler loop runs on whichever thread holds control: the caller of
//! `run` until the first thread process is due, then each thread process as
//! it yields or terminates. The holder polls async processes and runs
//! update callbacks inline, at the runnable queue position where they are
//! due, and resumes the next due thread process directly. So only a thread
//! activation costs an OS handoff, and none when the yielding thread is
//! itself the next one due. The holder at the end of a run reports how it
//! ended on a one-slot channel that `run` blocks on.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::direct::{Construct, DirectCore};
use crate::liveness::{
    BlockedProcess, DeadlockReport, EndpointId, Registry, WaitDesc, WaitForGraph,
};
use crate::metrics::{
    HostProfiler, MetricsShared, PHASE_ADVANCE, PHASE_DELTA, PHASE_EVALUATE, PHASE_UPDATE,
};
use crate::time::{SimDur, SimTime};
use crate::trace::VcdTracer;
use crate::txn::TxnShared;

/// Identifies an event inside the kernel arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) usize);

/// Identifies a process (thread or async) inside the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) usize);

/// Why [`Simulation::run`](crate::sim::Simulation::run) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No future activity exists: every process is blocked and the timed
    /// queue is empty.
    Starved,
    /// `stop()` was called from a process or handle.
    Stopped,
    /// The requested time limit was reached.
    TimeLimit,
    /// The wall-clock watchdog expired while the simulation was still
    /// making (possibly unbounded) progress. Diagnose with
    /// [`Simulation::diagnose`](crate::sim::Simulation::diagnose).
    Watchdog,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Starved => "event starvation",
            StopReason::Stopped => "explicit stop",
            StopReason::TimeLimit => "time limit",
            StopReason::Watchdog => "wall-clock watchdog",
        };
        f.write_str(s)
    }
}

/// Process activations since the simulation was created, by how they ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Activations {
    /// Thread-process activations: each one resumes an OS thread.
    pub threads: u64,
    /// Async-process polls, run inline by the thread holding control.
    pub inline: u64,
}

/// Outcome of a scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Simulated time when the run ended.
    pub time: SimTime,
    /// Why the run ended.
    pub reason: StopReason,
}

pub(crate) enum Resume {
    Go(Option<EventId>),
    Kill,
}

/// How a run ended, sent to `run` by the process thread that held control
/// at the end.
enum RunEnd {
    Done(RunResult),
    /// A thread process panicked; the message `run` re-raises.
    ProcessPanicked(String),
    /// An async process or update callback panicked on a process thread;
    /// `run` re-raises its payload as if it had run there.
    Panicked(Box<dyn Any + Send>),
}

/// What the thread holding control does next.
enum Next {
    /// Hand control to this thread process.
    Resume {
        pid: ProcessId,
        cause: Option<EventId>,
        tx: SyncSender<Resume>,
    },
    /// The run is over.
    End(RunResult),
}

/// Where control went when a process thread ran the scheduler.
enum Control {
    /// The process is itself next; it continues with this wake cause.
    Kept(Option<EventId>),
    /// Another process or `run` holds control now.
    Passed,
}

/// Marker panic payload used to unwind a process thread when the simulation
/// is dropped. Caught by the process wrapper, never observed by user code.
struct KillToken;

struct EventRec {
    /// Interned: handed out as `Arc` clones, never re-allocated per query.
    name: Arc<str>,
    /// Processes waiting on this event, in registration order.
    waiters: Vec<ProcessId>,
    /// Pending delta notification?
    delta_pending: bool,
    /// Earliest pending timed notification, if any.
    timed_at: Option<SimTime>,
}

enum ProcKind {
    Thread(ThreadLink),
    /// `None` while the future is polled, after it finished and after
    /// teardown.
    Async(Option<AsyncBody>),
}

pub(crate) type AsyncBody = Pin<Box<dyn Future<Output = ()> + Send>>;

/// The private-timer notification a wait arms besides its events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Timer {
    /// Fires after this much simulated time.
    After(SimDur),
    /// Fires in the next delta cycle.
    Delta,
}

struct ThreadLink {
    /// `None` after teardown dropped it to force a blocked `recv` to error
    /// out (the `KillToken` unwind path).
    resume_tx: Option<SyncSender<Resume>>,
    join: Option<JoinHandle<()>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    Ready,
    Waiting,
    Terminated,
}

struct ProcRec {
    /// Interned: handed out as `Arc` clones, never re-allocated per query.
    name: Arc<str>,
    kind: ProcKind,
    state: PState,
    /// Events this process is dynamically registered on (for `wait_any`).
    waiting_on: Vec<EventId>,
    wake_cause: Option<EventId>,
    /// Private timer event backing `wait_for` / `wait_delta`.
    timer: EventId,
}

/// Min-heap entry for timed notifications; `seq` keeps FIFO order among
/// identical timestamps.
type TimedEntry = Reverse<(SimTime, u64, EventId)>;

/// A deferred update callback, run in the update phase (SystemC
/// `request_update` / `update` pattern).
pub(crate) type UpdateFn = Box<dyn FnOnce(&KernelShared) + Send>;

/// The state of the current run, kept here because the threads that drive
/// the run take turns.
#[derive(Default)]
struct RunState {
    limit: Option<SimTime>,
    deadline: Option<Instant>,
    /// Profiler probe of the evaluate phase in progress.
    evaluate_probe: Option<Instant>,
}

pub(crate) struct Inner {
    now: SimTime,
    delta_count: u64,
    started: bool,
    stop_requested: bool,
    events: Vec<EventRec>,
    processes: Vec<ProcRec>,
    runnable: VecDeque<ProcessId>,
    /// Events with a pending delta notification (promoted in phase 3).
    delta_queue: Vec<EventId>,
    timed: BinaryHeap<TimedEntry>,
    timed_seq: u64,
    update_requests: Vec<UpdateFn>,
    run: RunState,
    /// Swapped with `delta_queue` each delta cycle so the queue's
    /// allocation is reused instead of dropped per cycle.
    delta_scratch: Vec<EventId>,
}

/// Kernel state shared between the scheduler, process contexts and channels.
pub(crate) struct KernelShared {
    pub(crate) inner: Mutex<Inner>,
    pub(crate) tracer: Mutex<Option<VcdTracer>>,
    /// Liveness edge metadata (endpoints, event annotations).
    pub(crate) liveness: Mutex<Registry>,
    /// Wall-clock budget for a single `run` call, if configured.
    pub(crate) watchdog: Mutex<Option<Duration>>,
    /// Transaction-level trace recorder (disabled by default).
    pub(crate) txn: Arc<TxnShared>,
    /// Time-resolved metrics registry (disabled by default).
    pub(crate) metrics: Arc<MetricsShared>,
    /// Host wall-clock profiler (disabled by default).
    pub(crate) profiler: HostProfiler,
    /// Thread activations: dispatches that resume an OS thread.
    thread_activations: AtomicU64,
    /// Inline activations: async polls.
    inline_activations: AtomicU64,
    /// Set when this kernel is the dormant companion of one thread of a
    /// direct-execution run: that run's core and the thread's index.
    /// Constructs the direct backend cannot honour (timed waits and
    /// notifications, signal updates, dynamic processes) disqualify the
    /// run instead of silently queueing into a kernel that never runs.
    direct: Option<(Weak<DirectCore>, usize)>,
    /// End-of-run channel. One slot: a run ends once, and `run` takes the
    /// message before the next run can end.
    run_end_tx: SyncSender<RunEnd>,
    run_end_rx: Mutex<Receiver<RunEnd>>,
}

impl KernelShared {
    pub(crate) fn new() -> Arc<Self> {
        Self::with_recorders(Arc::new(TxnShared::new()), Arc::default(), None)
    }

    /// The dormant companion of thread `index` of a direct-execution run:
    /// it records into the run's own trace and metrics registry.
    pub(crate) fn dormant(core: &Arc<DirectCore>, index: usize) -> Arc<Self> {
        Self::with_recorders(
            Arc::clone(&core.txn),
            Arc::clone(&core.metrics),
            Some((Arc::downgrade(core), index)),
        )
    }

    fn with_recorders(
        txn: Arc<TxnShared>,
        metrics: Arc<MetricsShared>,
        direct: Option<(Weak<DirectCore>, usize)>,
    ) -> Arc<Self> {
        let (run_end_tx, run_end_rx) = sync_channel(1);
        Arc::new(KernelShared {
            inner: Mutex::new(Inner {
                now: SimTime::ZERO,
                delta_count: 0,
                started: false,
                stop_requested: false,
                events: Vec::new(),
                processes: Vec::new(),
                runnable: VecDeque::new(),
                delta_queue: Vec::new(),
                timed: BinaryHeap::new(),
                timed_seq: 0,
                update_requests: Vec::new(),
                run: RunState::default(),
                delta_scratch: Vec::new(),
            }),
            tracer: Mutex::new(None),
            liveness: Mutex::new(Registry::default()),
            watchdog: Mutex::new(None),
            txn,
            metrics,
            profiler: HostProfiler::new(),
            thread_activations: AtomicU64::new(0),
            inline_activations: AtomicU64::new(0),
            direct,
            run_end_tx,
            run_end_rx: Mutex::new(run_end_rx),
        })
    }

    /// The direct-execution run and thread index this kernel is the
    /// dormant companion of, if any.
    pub(crate) fn direct(&self) -> Option<(Arc<DirectCore>, usize)> {
        let (core, index) = self.direct.as_ref()?;
        Some((core.upgrade()?, *index))
    }

    /// The index of the thread this kernel is the dormant companion of,
    /// when that thread belongs to `core`'s run. A pointer comparison: it
    /// touches no reference count.
    pub(crate) fn direct_thread(&self, core: &Arc<DirectCore>) -> Option<usize> {
        let (weak, index) = self.direct.as_ref()?;
        std::ptr::eq(weak.as_ptr(), Arc::as_ptr(core)).then_some(*index)
    }

    /// Aborts the surrounding direct-execution run when this kernel is a
    /// direct run's dormant companion (no-op otherwise).
    pub(crate) fn disqualify_if_direct(&self, construct: Construct) {
        if let Some((core, _)) = self.direct() {
            core.disqualify(construct);
        }
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn now(&self) -> SimTime {
        // A direct run's time stands still at zero; its threads skip the
        // lock.
        if self.direct.is_some() {
            return SimTime::ZERO;
        }
        self.lock().now
    }

    pub(crate) fn delta_count(&self) -> u64 {
        self.lock().delta_count
    }

    pub(crate) fn activations(&self) -> Activations {
        Activations {
            threads: self.thread_activations.load(Ordering::Relaxed),
            inline: self.inline_activations.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn request_stop(&self) {
        self.disqualify_if_direct(Construct::ExplicitStop);
        self.lock().stop_requested = true;
    }

    pub(crate) fn new_event(&self, name: &str) -> EventId {
        let mut g = self.lock();
        let id = EventId(g.events.len());
        g.events.push(EventRec {
            name: Arc::from(name),
            waiters: Vec::new(),
            delta_pending: false,
            timed_at: None,
        });
        id
    }

    pub(crate) fn event_name(&self, id: EventId) -> Arc<str> {
        Arc::clone(&self.lock().events[id.0].name)
    }

    /// Immediate notification: wakes waiters into the *current* evaluate
    /// phase. Outside a run this degrades to a delta notification.
    pub(crate) fn notify_now(&self, id: EventId) {
        let mut g = self.lock();
        if !g.started {
            Self::mark_delta(&mut g, id);
            return;
        }
        Self::fire(&mut g, id);
    }

    pub(crate) fn notify_delta(&self, id: EventId) {
        let mut g = self.lock();
        Self::mark_delta(&mut g, id);
    }

    pub(crate) fn notify_after(&self, id: EventId, d: SimDur) {
        if d.is_zero() {
            self.notify_delta(id);
            return;
        }
        self.disqualify_if_direct(Construct::NotifyAfter);
        Self::mark_timed(&mut self.lock(), id, d);
    }

    fn mark_timed(g: &mut Inner, id: EventId, d: SimDur) {
        // Saturate instead of panicking: SimTime::MAX is the documented
        // "infinite horizon", so an overflowing notification simply lands
        // there (and never fires within any finite run).
        let at = g.now.checked_add(d).unwrap_or(SimTime::MAX);
        // SystemC keeps a single pending notification per event; an earlier
        // one overrides a later one.
        match g.events[id.0].timed_at {
            Some(t) if t <= at => return,
            _ => g.events[id.0].timed_at = Some(at),
        }
        let seq = g.timed_seq;
        g.timed_seq += 1;
        g.timed.push(Reverse((at, seq, id)));
    }

    /// Cancels any pending (delta or timed) notification.
    pub(crate) fn cancel(&self, id: EventId) {
        let mut g = self.lock();
        g.events[id.0].delta_pending = false;
        g.events[id.0].timed_at = None;
        // Stale heap entries are skipped during time advance.
        g.delta_queue.retain(|e| *e != id);
    }

    fn mark_delta(g: &mut Inner, id: EventId) {
        if !g.events[id.0].delta_pending {
            g.events[id.0].delta_pending = true;
            g.delta_queue.push(id);
        }
    }

    /// Fires `id`: wakes its waiters in registration order, moving them
    /// into the runnable set.
    ///
    /// Allocation-free on the hot path: the waiter list is moved out,
    /// drained, and moved back so its capacity is reused across fires.
    /// `wake` only deregisters, and the kernel lock is held throughout, so
    /// nothing can repopulate the list mid-loop.
    fn fire(g: &mut Inner, id: EventId) {
        let mut waiters = std::mem::take(&mut g.events[id.0].waiters);
        for pid in waiters.drain(..) {
            Self::wake(g, pid, Some(id));
        }
        g.events[id.0].waiters = waiters;
    }

    fn wake(g: &mut Inner, pid: ProcessId, cause: Option<EventId>) {
        let p = &mut g.processes[pid.0];
        if p.state != PState::Waiting {
            return;
        }
        p.state = PState::Ready;
        p.wake_cause = cause;
        let waiting = std::mem::take(&mut p.waiting_on);
        // Deregister from every other event of a `wait_any` group.
        for eid in waiting {
            g.events[eid.0].waiters.retain(|w| *w != pid);
        }
        g.runnable.push_back(pid);
    }

    /// Registers a dynamic wait of `pid` on each event in `ids` and, when
    /// `timer` is set, arms the process's private timer and waits on it
    /// too. Returns the timer's id. The one registration path of every
    /// wait, thread or async.
    pub(crate) fn arm_wait(
        &self,
        pid: ProcessId,
        ids: &[EventId],
        timer: Option<Timer>,
    ) -> EventId {
        let mut g = self.lock();
        let own = g.processes[pid.0].timer;
        match timer {
            Some(Timer::After(d)) if !d.is_zero() => Self::mark_timed(&mut g, own, d),
            Some(_) => Self::mark_delta(&mut g, own),
            None => {}
        }
        let armed = timer.map(|_| own);
        let p = &mut g.processes[pid.0];
        p.state = PState::Waiting;
        p.wake_cause = None;
        p.waiting_on.extend(ids.iter().chain(&armed));
        for id in ids.iter().chain(&armed) {
            g.events[id.0].waiters.push(pid);
        }
        own
    }

    pub(crate) fn request_update(&self, f: UpdateFn) {
        self.disqualify_if_direct(Construct::SignalUpdate);
        self.lock().update_requests.push(f);
    }

    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        name: &str,
        body: Box<dyn FnOnce(&mut crate::process::ThreadCtx) + Send>,
    ) -> ProcessId {
        let (resume_tx, resume_rx) = sync_channel::<Resume>(1);
        let link = ThreadLink {
            resume_tx: Some(resume_tx),
            join: None,
        };
        let pid = self.add_process(name, ProcKind::Thread(link));
        let kernel = Arc::clone(self);
        let join = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                // Wait for the first resume before running the body.
                match resume_rx.recv() {
                    Ok(Resume::Go(_)) => {}
                    Ok(Resume::Kill) | Err(_) => return,
                }
                let mut ctx = crate::process::ThreadCtx::new(Arc::clone(&kernel), pid, resume_rx);
                // The body holds control whenever it runs, and so does its
                // end: `terminate` passes control on for the last time.
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    body(&mut ctx);
                    ctx.terminate();
                }));
                if let Err(payload) = result {
                    // On KillToken the simulation is tearing down and
                    // nobody is listening: exit quietly.
                    if payload.downcast_ref::<KillToken>().is_none() {
                        // `&payload` would coerce the Box itself to
                        // `&dyn Any` and never downcast; deref first.
                        kernel.process_panicked(pid, &*payload);
                    }
                }
            })
            .expect("failed to spawn process thread");
        if let ProcKind::Thread(link) = &mut self.lock().processes[pid.0].kind {
            link.join = Some(join);
        }
        pid
    }

    pub(crate) fn spawn_async(self: &Arc<Self>, name: &str, body: AsyncBody) -> ProcessId {
        self.add_process(name, ProcKind::Async(Some(body)))
    }

    /// Adds a runnable process with its private timer (SystemC default
    /// initialization: during a run it joins the current evaluate phase).
    fn add_process(&self, name: &str, kind: ProcKind) -> ProcessId {
        self.disqualify_if_direct(Construct::DynamicProcess);
        let timer = self.new_event(&format!("{name}.timer"));
        let mut g = self.lock();
        let pid = ProcessId(g.processes.len());
        g.processes.push(ProcRec {
            name: Arc::from(name),
            kind,
            state: PState::Ready,
            waiting_on: Vec::new(),
            wake_cause: None,
            timer,
        });
        g.runnable.push_back(pid);
        pid
    }

    pub(crate) fn process_name(&self, pid: ProcessId) -> Arc<str> {
        Arc::clone(&self.lock().processes[pid.0].name)
    }

    /// Runs the scheduler until `limit`, stop, starvation or watchdog
    /// expiry.
    ///
    /// The calling thread holds control until the first thread process is
    /// due; from then on it waits for the end-of-run message.
    pub(crate) fn run(self: &Arc<Self>, limit: Option<SimTime>) -> RunResult {
        let deadline = self
            .watchdog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|budget| Instant::now() + budget);
        {
            let mut g = self.lock();
            g.started = true;
            g.stop_requested = false;
            g.run = RunState {
                limit,
                deadline,
                evaluate_probe: self.profiler.start(),
            };
        }
        let (cause, tx) = match self.schedule() {
            Next::End(result) => return result,
            Next::Resume { cause, tx, .. } => (cause, tx),
        };
        tx.send(Resume::Go(cause)).expect("process thread vanished");
        let end = self
            .run_end_rx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv()
            .expect("the kernel owns both ends of its end-of-run channel");
        match end {
            RunEnd::Done(result) => result,
            RunEnd::ProcessPanicked(msg) => panic!("{msg}"),
            RunEnd::Panicked(payload) => panic::resume_unwind(payload),
        }
    }

    /// The scheduler loop, run by the thread holding control. Polls async
    /// processes and runs update callbacks inline and returns when a thread
    /// process is due or the run ends. It always resumes inside the
    /// evaluate phase, the only place it leaves before the run ends.
    fn schedule(self: &Arc<Self>) -> Next {
        loop {
            // --- Phase 1: evaluate ----------------------------------------
            let probe = loop {
                let mut g = self.lock();
                if let Some(dl) = g.run.deadline {
                    if Instant::now() >= dl {
                        return Next::End(RunResult {
                            time: g.now,
                            reason: StopReason::Watchdog,
                        });
                    }
                }
                let Some(pid) = g.runnable.pop_front() else {
                    break g.run.evaluate_probe.take();
                };
                let p = &mut g.processes[pid.0];
                if p.state == PState::Terminated {
                    continue;
                }
                let cause = p.wake_cause.take();
                // The process is "waiting" unless it re-registers; threads
                // and async processes always register a new wait before
                // they suspend.
                p.state = PState::Waiting;
                match &mut p.kind {
                    ProcKind::Thread(link) => {
                        // `None`: torn down mid-flight, nothing to resume.
                        if let Some(tx) = &link.resume_tx {
                            let tx = tx.clone();
                            self.thread_activations.fetch_add(1, Ordering::Relaxed);
                            return Next::Resume { pid, cause, tx };
                        }
                    }
                    ProcKind::Async(slot) => {
                        if let Some(body) = slot.take() {
                            drop(g);
                            self.poll_async(pid, body, cause);
                        }
                    }
                }
            };
            self.profiler.record_phase(PHASE_EVALUATE, probe);

            // --- Phase 2: update ------------------------------------------
            let probe = self.profiler.start();
            let updates = {
                let mut g = self.lock();
                std::mem::take(&mut g.update_requests)
            };
            for u in updates {
                u(self);
            }
            self.profiler.record_phase(PHASE_UPDATE, probe);

            // --- Phase 3: delta notification ------------------------------
            let probe = self.profiler.start();
            let woke = {
                let mut g = self.lock();
                let mut promoted = std::mem::take(&mut g.delta_scratch);
                std::mem::swap(&mut g.delta_queue, &mut promoted);
                for id in promoted.drain(..) {
                    if g.events[id.0].delta_pending {
                        g.events[id.0].delta_pending = false;
                        Self::fire(&mut g, id);
                    }
                }
                g.delta_scratch = promoted;
                if g.runnable.is_empty() {
                    false
                } else {
                    g.delta_count += 1;
                    g.run.evaluate_probe = self.profiler.start();
                    true
                }
            };
            self.profiler.record_phase(PHASE_DELTA, probe);
            if woke {
                continue;
            }

            if self.lock().stop_requested {
                return Next::End(RunResult {
                    time: self.now(),
                    reason: StopReason::Stopped,
                });
            }

            // --- Phase 4: time advance ------------------------------------
            // Early returns (starvation / time limit) skip the probe close;
            // a final partial phase is noise for a profile anyway.
            let probe = self.profiler.start();
            let mut g = self.lock();
            let target = loop {
                match g.timed.peek() {
                    None => {
                        return Next::End(RunResult {
                            time: g.now,
                            reason: StopReason::Starved,
                        })
                    }
                    Some(Reverse((t, _, id))) => {
                        // Skip entries whose notification was cancelled or
                        // overridden by an earlier one.
                        if g.events[id.0].timed_at == Some(*t) {
                            break *t;
                        }
                        let _ = g.timed.pop();
                    }
                }
            };
            if let Some(lim) = g.run.limit {
                if target > lim {
                    g.now = lim;
                    return Next::End(RunResult {
                        time: lim,
                        reason: StopReason::TimeLimit,
                    });
                }
            }
            g.now = target;
            g.delta_count += 1;
            while let Some(Reverse((t, _, id))) = g.timed.peek().copied() {
                if t > target {
                    break;
                }
                let _ = g.timed.pop();
                if g.events[id.0].timed_at == Some(t) {
                    g.events[id.0].timed_at = None;
                    Self::fire(&mut g, id);
                }
            }
            g.run.evaluate_probe = self.profiler.start();
            drop(g);
            self.profiler.record_phase(PHASE_ADVANCE, probe);
        }
    }

    /// Polls async process `pid` once on the thread holding control, with
    /// `cause` as the event that woke it. A pending body goes back to its
    /// slot; a finished one is dropped outside the kernel lock. A panic
    /// ends the process and re-raises as `process '<name>' panicked: …`,
    /// the message a thread process's panic reaches `run` with.
    fn poll_async(self: &Arc<Self>, pid: ProcessId, mut body: AsyncBody, cause: Option<EventId>) {
        self.inline_activations.fetch_add(1, Ordering::Relaxed);
        let probe = self.profiler.start();
        let polled = {
            let _polling = crate::process::Polling::enter(self, pid, cause);
            let mut cx = Context::from_waker(Waker::noop());
            panic::catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(&mut cx)))
        };
        self.record_activation(pid, probe);
        let failure = match polled {
            Ok(Poll::Pending) => {
                let mut g = self.lock();
                let p = &mut g.processes[pid.0];
                if !p.waiting_on.is_empty() {
                    if let ProcKind::Async(slot) = &mut p.kind {
                        *slot = Some(body);
                    }
                    return;
                }
                drop(g);
                "suspended without a kernel wait".to_string()
            }
            Ok(Poll::Ready(())) => {
                self.lock().processes[pid.0].state = PState::Terminated;
                return;
            }
            Err(payload) => panic_message(&*payload),
        };
        // Dropped outside the kernel lock, which its captures may take.
        drop(body);
        panic!("{}", self.end_process(pid, &failure));
    }

    /// Attributes one process activation to the profiler.
    pub(crate) fn record_activation(&self, pid: ProcessId, probe: Option<Instant>) {
        if let Some(t0) = probe {
            self.profiler
                .record_process(self.process_name(pid), t0.elapsed());
        }
    }

    /// Runs the scheduler on the thread of process `me`, which holds
    /// control because it has just registered a wait or terminated, and
    /// passes control to the next due process, or to `run` when the run
    /// ends.
    fn pass_control(self: &Arc<Self>, me: ProcessId) -> Control {
        let end = match panic::catch_unwind(AssertUnwindSafe(|| self.schedule())) {
            Ok(Next::Resume { pid, cause, .. }) if pid == me => return Control::Kept(cause),
            Ok(Next::Resume { cause, tx, .. }) => {
                tx.send(Resume::Go(cause)).expect("process thread vanished");
                return Control::Passed;
            }
            Ok(Next::End(result)) => RunEnd::Done(result),
            Err(payload) => RunEnd::Panicked(payload),
        };
        self.end_run(end);
        Control::Passed
    }

    fn end_run(&self, end: RunEnd) {
        self.run_end_tx
            .send(end)
            .expect("the kernel owns both ends of its end-of-run channel");
    }

    /// Suspends process `me` after it registered a wait: passes control on
    /// and blocks until the process is resumed. Returns the wake cause.
    pub(crate) fn yield_process(
        self: &Arc<Self>,
        me: ProcessId,
        resume_rx: &Receiver<Resume>,
    ) -> Option<EventId> {
        if let Control::Kept(cause) = self.pass_control(me) {
            return cause;
        }
        match resume_rx.recv() {
            Ok(Resume::Go(cause)) => cause,
            Ok(Resume::Kill) | Err(_) => {
                // Unwind through the process body; caught by the wrapper.
                // `resume_unwind` skips the panic hook, so teardown is quiet.
                panic::resume_unwind(Box::new(KillToken));
            }
        }
    }

    /// Ends process `me`, whose body has returned, and passes control on
    /// for the last time.
    pub(crate) fn exit_process(self: &Arc<Self>, me: ProcessId) {
        self.lock().processes[me.0].state = PState::Terminated;
        // A terminated process is never due, so control always leaves.
        self.pass_control(me);
    }

    /// Ends the run with the panic of process `me`, which held control.
    fn process_panicked(&self, me: ProcessId, payload: &(dyn Any + Send)) {
        let msg = self.end_process(me, &panic_message(payload));
        self.end_run(RunEnd::ProcessPanicked(msg));
    }

    /// Terminates process `me`, which failed with `msg`, and returns the
    /// message its failure reaches `run` with.
    fn end_process(&self, me: ProcessId, msg: &str) -> String {
        let name = {
            let mut g = self.lock();
            g.processes[me.0].state = PState::Terminated;
            Arc::clone(&g.processes[me.0].name)
        };
        format!("process '{name}' panicked: {msg}")
    }

    /// Kills and joins every live process thread, and drops every async
    /// body and pending update callback. Called on simulation drop.
    ///
    /// Each thread is parked either in its initial `recv` (never dispatched)
    /// or inside `yield_now` waiting for a resume. `Resume::Kill` unwinds it
    /// via the `KillToken` panic payload. Dropping the kernel-side sender as
    /// well guarantees the `recv` errors out even if the kill message could
    /// not be buffered, so teardown can never hang on a live thread.
    ///
    /// Futures that capture an `Event` or `Signal` (every `Clock`'s
    /// generator and every pin FSM do) hold this kernel through them, a
    /// reference cycle that only dropping them breaks.
    pub(crate) fn teardown(&self) {
        type LinkParts = (Option<SyncSender<Resume>>, Option<JoinHandle<()>>);
        let mut bodies: Vec<AsyncBody> = Vec::new();
        let (links, updates): (Vec<LinkParts>, Vec<UpdateFn>) = {
            let mut g = self.lock();
            let links = g
                .processes
                .iter_mut()
                .map(|p| {
                    p.state = PState::Terminated;
                    match &mut p.kind {
                        ProcKind::Thread(link) => (link.resume_tx.take(), link.join.take()),
                        ProcKind::Async(slot) => {
                            bodies.extend(slot.take());
                            (None, None)
                        }
                    }
                })
                .collect();
            (links, std::mem::take(&mut g.update_requests))
        };
        // Dropped outside the kernel lock, which their captures may take.
        drop(bodies);
        drop(updates);
        // First wave: send kills / drop senders without joining, so sibling
        // processes are all unblocked before we wait on any of them.
        let joins: Vec<JoinHandle<()>> = links
            .into_iter()
            .filter_map(|(tx, join)| {
                if let Some(tx) = tx {
                    let _ = tx.try_send(Resume::Kill);
                    // `tx` drops here: a full buffer still ends in a
                    // disconnect error on the thread's next recv.
                }
                join
            })
            .collect();
        for j in joins {
            let _ = j.join();
        }
    }

    // --- Liveness: edge metadata and diagnosis ---------------------------

    /// Registers a blocking endpoint (one side of a channel / adapter).
    pub(crate) fn register_endpoint(&self, resource: &str, side: &str) -> EndpointId {
        self.liveness
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .register_endpoint(resource, side)
    }

    /// Records the process currently using `ep`.
    pub(crate) fn endpoint_user(&self, ep: EndpointId, pid: ProcessId) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = g.endpoints.get_mut(ep.0) {
            e.last_user = Some(pid);
        }
    }

    /// Records the *name* of the process expected to use `ep` before any
    /// call happens (resolved against the process table during diagnosis).
    pub(crate) fn endpoint_owner_hint(&self, ep: EndpointId, name: &str) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = g.endpoints.get_mut(ep.0) {
            e.owner_hint = Some(name.to_string());
        }
    }

    /// Attaches live detail text (e.g. pending reply counts) to `ep`.
    pub(crate) fn endpoint_note(&self, ep: EndpointId, note: Option<String>) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = g.endpoints.get_mut(ep.0) {
            e.note = note;
        }
    }

    /// Annotates an event with the meaning of waiting on it and, when
    /// known, the endpoint responsible for firing it.
    pub(crate) fn annotate_wait(
        &self,
        event: EventId,
        description: &str,
        notifier: Option<EndpointId>,
    ) {
        let mut g = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        g.edges.insert(
            event,
            crate::liveness::EdgeRec {
                description: description.to_string(),
                notifier,
            },
        );
    }

    /// Snapshots every blocked process, builds the wait-for graph from the
    /// registered edge metadata and runs cycle detection.
    pub(crate) fn diagnose(&self) -> DeadlockReport {
        let g = self.lock();
        let reg = self.liveness.lock().unwrap_or_else(|e| e.into_inner());
        let mut blocked = Vec::new();
        let mut graph = WaitForGraph::new();
        for (i, p) in g.processes.iter().enumerate() {
            if p.state != PState::Waiting || p.waiting_on.is_empty() {
                continue;
            }
            let pid = ProcessId(i);
            let mut waits = Vec::new();
            for eid in &p.waiting_on {
                let edge = reg.edges.get(eid);
                let notifier_pid = edge
                    .and_then(|e| e.notifier)
                    .and_then(|ep| reg.endpoints.get(ep.0))
                    .and_then(|e| {
                        // Prefer the observed user; fall back to resolving
                        // the owner name against the process table (the
                        // owner may deadlock before its first call).
                        e.last_user.or_else(|| {
                            e.owner_hint.as_ref().and_then(|name| {
                                g.processes
                                    .iter()
                                    .position(|p| p.name.as_ref() == name.as_str())
                                    .map(ProcessId)
                            })
                        })
                    });
                if let Some(q) = notifier_pid {
                    graph.add_edge(pid, q);
                }
                waits.push(WaitDesc {
                    event: g.events[eid.0].name.to_string(),
                    description: edge.map(|e| e.description.clone()),
                    notifier: edge
                        .and_then(|e| e.notifier)
                        .and_then(|ep| reg.describe_endpoint(ep)),
                    notifier_pid,
                });
            }
            blocked.push(BlockedProcess {
                pid,
                name: p.name.to_string(),
                waits,
            });
        }
        let name_of = |pid: ProcessId| g.processes[pid.0].name.to_string();
        let cycles = graph
            .cycles()
            .into_iter()
            .map(|c| c.into_iter().map(name_of).collect())
            .collect();
        DeadlockReport {
            time: g.now,
            blocked,
            cycles,
        }
    }

    /// Sets (or clears) the wall-clock watchdog budget for subsequent runs.
    pub(crate) fn set_watchdog(&self, budget: Option<Duration>) {
        *self.watchdog.lock().unwrap_or_else(|e| e.into_inner()) = budget;
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}
