//! Direct-execution backend for untimed models.
//!
//! The delta-cycle kernel pays for generality: every blocking call crosses
//! the scheduler (two rendezvous channel hops), every notification takes the
//! kernel lock, and at most one process runs at a time. A model that never
//! observes simulated time needs none of that — its semantics are fully
//! determined by the channel protocols alone. This module executes such a
//! model *directly*: each thread process becomes a free-running OS thread,
//! each blocking rendezvous a mutex/condvar [`Gate`], and the kernel is not
//! involved in a single message hand-off.
//!
//! A model **qualifies** when, over the whole run, it
//!
//! * never waits on simulated time (`wait_for` with a nonzero duration,
//!   `wait_any_for`, `notify_after`),
//! * never uses the signal request/update machinery,
//! * never waits on kernel events (`wait`, `wait_any`, FIFOs, sim mutexes),
//! * never spawns processes dynamically or requests an explicit stop, and
//! * only uses channels without transport latency.
//!
//! Qualification is checked *as the model runs*: the first disqualifying
//! construct aborts the direct attempt with a [`Disqualified`] verdict, and
//! the caller (see `Backend::Auto` in `shiptlm-explore`) re-elaborates on
//! the delta-cycle kernel. Time stands still on the direct path — `now()`
//! is always [`SimTime::ZERO`], exactly as in a qualifying run under the DE
//! kernel, so transaction records and metric stamps coincide.
//!
//! # Stall detection
//!
//! The DE kernel advances time (firing timeout timers) or declares
//! starvation exactly when no process is runnable. The direct analogue is a
//! global stall: every live thread parked with no pending wakeup. Detecting
//! that *exactly* under free-running concurrency needs care — a thread that
//! has been notified but not yet left its condvar wait is indistinguishable
//! from a sleeping one by inspection. Every gate therefore carries a wake
//! sequence number bumped on each notification; a parked slot whose
//! recorded sequence lags its gate has a wakeup in flight and vetoes the
//! stall. The stall check takes every gate lock (in id order, serialized by
//! a dedicated mutex), so the verdict is a consistent global snapshot:
//! either some parked call carries a sim-time budget — then all budgeted
//! calls time out together, mirroring the DE kernel where all untimed-model
//! deadlines are equal and fire in one time advance — or the run aborts
//! with a synthesized [`DeadlockReport`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::kernel::ProcessId;
use crate::liveness::{BlockedProcess, DeadlockReport, WaitDesc};
use crate::metrics::MetricsShared;
use crate::process::ThreadCtx;
use crate::time::SimTime;
use crate::txn::TxnShared;

/// Unwind marker used to abort direct threads quietly (the direct analogue
/// of the kernel's `KillToken`).
pub(crate) struct DirectKill;

/// A construct that disqualifies a model from direct execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construct {
    /// `wait_for` with a nonzero duration or `wait_any_for`.
    TimedWait,
    /// `wait`/`wait_any` on a kernel event (FIFOs, sim mutexes, raw events).
    EventWait,
    /// `Signal` request/update machinery.
    SignalUpdate,
    /// `notify_after` timed notification.
    NotifyAfter,
    /// Dynamic process creation from inside a running process.
    DynamicProcess,
    /// Explicit stop request (`ctx.stop()`), whose end-of-delta semantics
    /// only the DE kernel provides.
    ExplicitStop,
    /// A channel configured with nonzero transport latency.
    TimedChannel,
}

impl std::fmt::Display for Construct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Construct::TimedWait => "timed wait (wait_for/wait_any_for)",
            Construct::EventWait => "kernel event wait",
            Construct::SignalUpdate => "signal request/update",
            Construct::NotifyAfter => "notify_after timed notification",
            Construct::DynamicProcess => "dynamic process creation",
            Construct::ExplicitStop => "explicit stop request",
            Construct::TimedChannel => "channel with nonzero transport latency",
        })
    }
}

/// Why a model cannot run on the direct backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disqualified {
    /// The offending construct.
    pub construct: Construct,
    /// Name of the process that used it.
    pub process: String,
}

impl std::fmt::Display for Disqualified {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "process '{}' used {}; model requires the DE kernel",
            self.process, self.construct
        )
    }
}

impl std::error::Error for Disqualified {}

/// How a direct run ended.
#[derive(Debug)]
pub enum DirectOutcome {
    /// Every thread ran to completion.
    Completed,
    /// All live threads parked with no sim-time budget anywhere: the model
    /// is deadlocked (or starved), diagnosed like the DE kernel would.
    Deadlock(DeadlockReport),
    /// The wall-clock watchdog budget expired.
    Watchdog(DeadlockReport),
    /// A disqualifying construct was hit; the model needs the DE kernel.
    Disqualified(Disqualified),
}

/// Verdict of one [`DirectCore::park`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkVerdict {
    /// A peer notified the gate; re-check the guarded condition (another
    /// waiter may have consumed it first).
    Woken,
    /// The call's sim-time budget elapsed in a global stall; surface the
    /// channel's timeout error.
    TimedOut,
}

/// What a parked thread is blocked on, for synthesized deadlock reports.
#[derive(Debug, Clone)]
pub struct ParkInfo {
    /// Resource description, e.g. `ship channel 'link'`.
    pub resource: Arc<str>,
    /// What the wait means, e.g. `recv (awaiting message)`.
    pub description: &'static str,
    /// Whether the blocking call carries a sim-time budget (a configured
    /// channel timeout); budgeted calls time out on a global stall.
    pub timeout_armed: bool,
}

/// A condvar-guarded rendezvous point (one per direct channel).
///
/// Created through [`DirectCore::gate`] so stalls and aborts can reach
/// every parked thread in the simulation. All gates of a run must exist
/// before [`DirectSim::run`] starts threads.
pub struct Gate<T> {
    id: usize,
    m: Mutex<T>,
    cv: Condvar,
    /// Wake sequence: bumped by every [`notify_all`](Self::notify_all)
    /// under the gate lock. A parked slot whose recorded sequence lags this
    /// value has a wakeup in flight.
    wakes: AtomicU64,
    /// Threads asleep on `cv`; changed only under the gate lock, so a
    /// notification with none asleep can skip the wake syscall.
    sleepers: AtomicUsize,
}

impl<T> Gate<T> {
    /// Locks the gate's state (poison-tolerant, like the DE kernel locks).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes every thread parked on this gate after a state change. The
    /// guard parameter enforces that the caller holds the gate lock, which
    /// keeps the wake sequence consistent with the guarded state.
    pub fn notify_all(&self, _guard: &mut MutexGuard<'_, T>) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for Gate<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate").field("id", &self.id).finish()
    }
}

/// Type-erased gate access for the global stall check and abort wakeups.
trait AnyGate: Send + Sync {
    /// Acquires and holds the gate lock (freezes notifications and parking
    /// on this gate for the lifetime of the returned token).
    fn hold(&self) -> Box<dyn HeldGate + '_>;
    /// Current wake sequence. Exact while the gate is held.
    fn wakes(&self) -> u64;
    /// Broadcast without locking; only sound while the gate is held.
    fn notify_raw(&self);
    /// Lock, then broadcast — for abort wakeups from threads that hold no
    /// gate.
    fn wake_all(&self);
}

/// Opaque token keeping a gate lock held.
trait HeldGate {}

struct Held<'a, T>(#[allow(dead_code)] MutexGuard<'a, T>);
impl<T> HeldGate for Held<'_, T> {}

impl<T: Send> AnyGate for Gate<T> {
    fn hold(&self) -> Box<dyn HeldGate + '_> {
        Box::new(Held(self.lock()))
    }
    fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
    fn notify_raw(&self) {
        self.cv.notify_all();
    }
    fn wake_all(&self) {
        let _g = self.lock();
        self.cv.notify_all();
    }
}

/// Why the run is being torn down.
#[derive(Debug)]
enum AbortCause {
    Disqualified(Disqualified),
    Panicked { process: String, message: String },
    Deadlock(DeadlockReport),
    Watchdog(DeadlockReport),
}

#[derive(Debug, Default)]
struct Slot {
    /// `Some` while the thread sits inside [`DirectCore::park`].
    parked: Option<ParkInfo>,
    /// Set by a stall round to time the parked call out.
    timed_out: bool,
    /// Gate the thread is parked on.
    gate: usize,
    /// Gate wake sequence observed at registration.
    seen: u64,
}

#[derive(Debug, Default)]
struct CoreState {
    /// Threads spawned and not yet exited.
    alive: usize,
    /// Threads currently registered as parked.
    parked: usize,
    abort: Option<AbortCause>,
}

enum Flag {
    TimedOut,
    Abort,
    Woken,
}

/// Shared state of one direct-execution run: stall/abort machinery plus the
/// same trace/metrics registries the DE kernel carries, so instrumentation
/// fires identically on both backends.
///
/// Lock order: `stall_mutex` → gate locks (id order) → `state` → `slots` →
/// `names`. A gate lock is never acquired while `state` is held.
pub struct DirectCore {
    state: Mutex<CoreState>,
    slots: Mutex<Vec<Slot>>,
    gates: Mutex<Vec<Weak<dyn AnyGate>>>,
    names: Mutex<Vec<Arc<str>>>,
    /// Serializes global stall checks.
    stall_mutex: Mutex<()>,
    /// Wall-clock deadline of the current run, when a watchdog is armed.
    deadline: Mutex<Option<Instant>>,
    pub(crate) txn: Arc<TxnShared>,
    pub(crate) metrics: Arc<MetricsShared>,
}

impl std::fmt::Debug for DirectCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state();
        f.debug_struct("DirectCore")
            .field("alive", &st.alive)
            .field("parked", &st.parked)
            .finish()
    }
}

fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl DirectCore {
    fn new() -> Arc<Self> {
        Arc::new(DirectCore {
            state: Mutex::new(CoreState::default()),
            slots: Mutex::new(Vec::new()),
            gates: Mutex::new(Vec::new()),
            names: Mutex::new(Vec::new()),
            stall_mutex: Mutex::new(()),
            deadline: Mutex::new(None),
            txn: Arc::new(TxnShared::new()),
            metrics: Arc::default(),
        })
    }

    fn state(&self) -> MutexGuard<'_, CoreState> {
        plock(&self.state)
    }

    /// Creates a rendezvous gate registered for stall checks and abort
    /// wakeups.
    pub fn gate<T: Send + 'static>(self: &Arc<Self>, init: T) -> Arc<Gate<T>> {
        let mut gates = plock(&self.gates);
        let g = Arc::new(Gate {
            id: gates.len(),
            m: Mutex::new(init),
            cv: Condvar::new(),
            wakes: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
        });
        gates.push(Arc::downgrade(&g) as Weak<dyn AnyGate>);
        g
    }

    /// The process name of thread index `who`.
    pub fn process_name(&self, who: usize) -> Arc<str> {
        Arc::clone(&plock(&self.names)[who])
    }

    fn unwind(&self) -> ! {
        panic::resume_unwind(Box::new(DirectKill))
    }

    /// Records a disqualifying construct and aborts the calling thread.
    /// First verdict wins; sibling threads unwind at their next blocking
    /// point.
    pub(crate) fn disqualify(&self, construct: Construct) -> ! {
        let process = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        {
            let mut st = self.state();
            if st.abort.is_none() {
                st.abort = Some(AbortCause::Disqualified(Disqualified {
                    construct,
                    process,
                }));
            }
        }
        self.wake_all();
        self.unwind()
    }

    /// A delta wait on the direct backend: a plain scheduling hint, since
    /// qualifying models only use it for fairness, never for ordering.
    /// Unwinds when the run is being torn down and trips the watchdog when
    /// the wall budget is spent.
    pub(crate) fn yield_hint(&self) {
        if self.state().abort.is_some() {
            self.unwind();
        }
        let expired = plock(&self.deadline).is_some_and(|d| Instant::now() >= d);
        if expired {
            self.trip_watchdog();
        }
        std::thread::yield_now();
    }

    fn trip_watchdog(&self) -> ! {
        {
            let mut st = self.state();
            if st.abort.is_none() {
                let report = {
                    let slots = plock(&self.slots);
                    self.report(&slots)
                };
                st.abort = Some(AbortCause::Watchdog(report));
            }
        }
        self.wake_all();
        self.unwind()
    }

    /// Synthesizes a deadlock report from the currently parked slots, in
    /// the same shape the DE kernel's `diagnose` produces.
    fn report(&self, slots: &[Slot]) -> DeadlockReport {
        let names = plock(&self.names);
        let blocked = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.parked.as_ref().map(|info| BlockedProcess {
                    pid: ProcessId(i),
                    name: names[i].to_string(),
                    waits: vec![WaitDesc {
                        event: info.resource.to_string(),
                        description: Some(info.description.to_string()),
                        notifier: None,
                        notifier_pid: None,
                    }],
                })
            })
            .collect();
        DeadlockReport {
            time: SimTime::ZERO,
            blocked,
            cycles: Vec::new(),
        }
    }

    /// Wakes every parked thread after an abort. The caller must not hold
    /// any gate or core lock.
    fn wake_all(&self) {
        let gates: Vec<Weak<dyn AnyGate>> = plock(&self.gates).clone();
        for weak in gates {
            if let Some(gate) = weak.upgrade() {
                gate.wake_all();
            }
        }
    }

    /// The global stall check (see the module docs). Returns with flags or
    /// an abort recorded iff every live thread is parked with no wakeup in
    /// flight. The caller must not hold any gate or core lock.
    fn try_stall(&self) {
        let _serial = plock(&self.stall_mutex);
        // Freeze the world: with every gate held, a thread is either truly
        // asleep, blocked re-entering its gate (then its wake is recorded
        // in the gate's sequence), or running free (then it is not parked).
        let gates: Vec<Arc<dyn AnyGate>> = plock(&self.gates)
            .iter()
            .filter_map(Weak::upgrade)
            .collect();
        let held: Vec<Box<dyn HeldGate + '_>> = gates.iter().map(|g| g.hold()).collect();
        let mut st = self.state();
        if st.alive == 0 || st.parked != st.alive || st.abort.is_some() {
            return;
        }
        let mut slots = plock(&self.slots);
        let parked: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parked.is_some())
            .map(|(i, _)| i)
            .collect();
        // A pending wakeup anywhere vetoes the stall; the woken thread will
        // re-examine its condition and either progress or re-park (with a
        // fresh sequence), re-triggering this check.
        if parked
            .iter()
            .any(|&i| gates[slots[i].gate].wakes() != slots[i].seen)
        {
            return;
        }
        let armed: Vec<usize> = parked
            .iter()
            .copied()
            .filter(|&i| slots[i].parked.as_ref().is_some_and(|p| p.timeout_armed))
            .collect();
        if armed.is_empty() {
            let report = self.report(&slots);
            st.abort = Some(AbortCause::Deadlock(report));
        } else {
            for i in armed {
                slots[i].timed_out = true;
            }
        }
        drop(slots);
        drop(st);
        for g in &gates {
            g.notify_raw();
        }
        drop(held);
    }

    /// Checks this thread's park flags and then, when `woken`, its wakeup,
    /// under one acquisition of the core locks; `Some` deregisters the
    /// park.
    fn flags(&self, who: usize, woken: bool) -> Option<Flag> {
        let mut st = self.state();
        let mut slots = plock(&self.slots);
        let flag = if std::mem::take(&mut slots[who].timed_out) {
            Flag::TimedOut
        } else if st.abort.is_some() {
            Flag::Abort
        } else if woken {
            Flag::Woken
        } else {
            return None;
        };
        if slots[who].parked.take().is_some() {
            st.parked -= 1;
        }
        Some(flag)
    }

    fn leave_park(&self, who: usize) {
        let mut st = self.state();
        let mut slots = plock(&self.slots);
        if slots[who].parked.take().is_some() {
            st.parked -= 1;
        }
    }

    /// Parks the calling thread on `gate` until a peer notifies it or its
    /// sim-time budget elapses in a global stall. The caller passes the
    /// gate's lock in and receives it back, so the guarded condition can be
    /// re-checked without a race. Unwinds the thread when the run aborts
    /// underneath it.
    pub fn park<'a, T>(
        &self,
        gate: &'a Gate<T>,
        guard: MutexGuard<'a, T>,
        who: usize,
        info: ParkInfo,
    ) -> (MutexGuard<'a, T>, ParkVerdict) {
        let seen = gate.wakes.load(Ordering::Relaxed);
        let suspect = {
            let mut st = self.state();
            if st.abort.is_some() {
                drop(st);
                drop(guard);
                self.unwind();
            }
            {
                let mut slots = plock(&self.slots);
                slots[who] = Slot {
                    parked: Some(info),
                    timed_out: false,
                    gate: gate.id,
                    seen,
                };
            }
            st.parked += 1;
            st.parked == st.alive
        };
        let mut guard = guard;
        if suspect {
            // Last runnable thread just blocked. Run the global check with
            // the gate released (it takes every gate lock); we stay
            // registered, so a notification arriving meanwhile bumps the
            // sequence and is caught below.
            drop(guard);
            self.try_stall();
            guard = gate.lock();
        }
        let deadline = *plock(&self.deadline);
        loop {
            let woken = gate.wakes.load(Ordering::Relaxed) != seen;
            match self.flags(who, woken) {
                Some(Flag::TimedOut) => return (guard, ParkVerdict::TimedOut),
                Some(Flag::Woken) => return (guard, ParkVerdict::Woken),
                Some(Flag::Abort) => {
                    drop(guard);
                    self.unwind();
                }
                None => {}
            }
            let timeout = match deadline {
                None => None,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        self.leave_park(who);
                        drop(guard);
                        self.trip_watchdog();
                    }
                    Some(d - now)
                }
            };
            gate.sleepers.fetch_add(1, Ordering::Relaxed);
            guard = match timeout {
                None => gate.cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
                Some(t) => {
                    gate.cv
                        .wait_timeout(guard, t)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            gate.sleepers.fetch_sub(1, Ordering::Relaxed);
            // Re-examine flags and the wake sequence; a spurious condvar
            // wakeup (neither set) loops back to sleep.
        }
    }
}

type Body = Box<dyn FnOnce(&mut ThreadCtx) + Send>;

/// A direct-execution simulation: spawn threads, then [`run`](Self::run).
///
/// The direct analogue of [`Simulation`](crate::sim::Simulation) for
/// qualifying untimed models. Thread bodies receive the same [`ThreadCtx`]
/// API; channels built on [`DirectCore::gate`] (see `shiptlm-ship`'s
/// `DirectChannel`) rendezvous without any kernel involvement.
pub struct DirectSim {
    core: Arc<DirectCore>,
    pending: Mutex<Vec<(Arc<str>, Body)>>,
}

impl Default for DirectSim {
    fn default() -> Self {
        Self::new()
    }
}

impl DirectSim {
    /// Creates an empty direct simulation.
    pub fn new() -> Self {
        DirectSim {
            core: DirectCore::new(),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// The shared core, used to build direct channels.
    pub fn core(&self) -> &Arc<DirectCore> {
        &self.core
    }

    /// Registers a thread process. Threads start when [`run`](Self::run) is
    /// called, in registration order — pass them in topological wake order
    /// (sources first) so pipelines fill without an initial stampede.
    pub fn spawn_thread<F>(&self, name: &str, body: F)
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        plock(&self.pending).push((Arc::from(name), Box::new(body)));
    }

    /// Enables the transaction recorder (same semantics as
    /// [`Simulation::record_transactions`](crate::sim::Simulation::record_transactions)).
    pub fn record_transactions(&self, capacity: usize) {
        self.core.txn.enable(capacity);
    }

    /// Snapshots the transaction trace.
    pub fn txn_trace(&self) -> crate::txn::TxnTrace {
        self.core.txn.snapshot()
    }

    /// Enables the time-resolved metrics registry.
    pub fn enable_metrics(&self, window: crate::time::SimDur) {
        self.core.metrics.enable(window);
    }

    /// Snapshots the metric series.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// Arms (or clears) the wall-clock watchdog for the next run.
    pub fn set_watchdog(&self, budget: Option<Duration>) {
        *plock(&self.core.deadline) = budget.map(|b| Instant::now() + b);
    }

    /// Runs every registered thread to completion.
    ///
    /// # Panics
    ///
    /// Re-raises the first user panic as
    /// `process '<name>' panicked: <message>` — the same shape the DE
    /// kernel's dispatcher produces.
    pub fn run(&self) -> DirectOutcome {
        let threads: Vec<(Arc<str>, Body)> = std::mem::take(&mut *plock(&self.pending));
        let n = threads.len();
        {
            let mut st = self.core.state();
            st.alive = n;
            st.parked = 0;
            st.abort = None;
            *plock(&self.core.slots) = (0..n).map(|_| Slot::default()).collect();
            *plock(&self.core.names) = threads.iter().map(|(name, _)| Arc::clone(name)).collect();
        }
        let mut joins = Vec::with_capacity(n);
        for (idx, (name, body)) in threads.into_iter().enumerate() {
            let core = Arc::clone(&self.core);
            let join = std::thread::Builder::new()
                .name(name.to_string())
                .spawn(move || {
                    let mut ctx = ThreadCtx::direct(Arc::clone(&core), idx, Arc::clone(&name));
                    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                    let check_stall = {
                        let mut st = core.state();
                        st.alive -= 1;
                        match result {
                            // This exit may have left only parked threads
                            // behind.
                            Ok(()) => st.abort.is_none() && st.alive > 0 && st.parked == st.alive,
                            Err(payload) => {
                                if payload.downcast_ref::<DirectKill>().is_none()
                                    && st.abort.is_none()
                                {
                                    st.abort = Some(AbortCause::Panicked {
                                        process: name.to_string(),
                                        message: crate::kernel::panic_message(&*payload),
                                    });
                                    drop(st);
                                    core.wake_all();
                                }
                                false
                            }
                        }
                    };
                    if check_stall {
                        core.try_stall();
                    }
                })
                .expect("failed to spawn direct process thread");
            joins.push(join);
        }
        for join in joins {
            let _ = join.join();
        }
        let abort = self.core.state().abort.take();
        match abort {
            None => DirectOutcome::Completed,
            Some(AbortCause::Deadlock(r)) => DirectOutcome::Deadlock(r),
            Some(AbortCause::Watchdog(r)) => DirectOutcome::Watchdog(r),
            Some(AbortCause::Disqualified(d)) => DirectOutcome::Disqualified(d),
            Some(AbortCause::Panicked { process, message }) => {
                panic!("process '{process}' panicked: {message}")
            }
        }
    }
}

impl std::fmt::Debug for DirectSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectSim")
            .field("core", &self.core)
            .finish()
    }
}
