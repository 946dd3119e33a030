//! A small RTOS simulator: priority-preemptive tasks on one CPU.
//!
//! The paper's eSW generation (§4, following Herrera et al., its
//! reference 3) replaces SystemC library elements "for behaviourally
//! equivalent procedures based on RTOS functions". This module provides
//! those RTOS functions: tasks with static priorities, preemptive
//! scheduling, sleeping and CPU-time accounting. Exactly one task runs at
//! any simulated instant; a higher-priority task becoming ready preempts
//! the running one at its next preemption point (every
//! [`TaskCtx::execute`] chunk is preemptible).
//!
//! A task is an async kernel process: its body is a future, and every
//! blocking RTOS call (`execute`, `sleep`, `yield_now`, semaphore takes,
//! mutex locks, mailbox pends) is an `async fn` that it awaits.

use std::fmt;
use std::future::Future;
use std::sync::{Arc, Mutex};

use shiptlm_kernel::event::Event;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::{SimDur, SimTime};

/// Identifies a task within one [`Rtos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Ready,
    Running,
    Blocked,
    Done,
}

struct TaskRec {
    prio: u8,
    grant: Event,
    preempt: Event,
    state: TState,
}

struct SchedState {
    tasks: Vec<TaskRec>,
    current: Option<TaskId>,
    ready: Vec<TaskId>,
    ctx_switches: u64,
    preemptions: u64,
}

struct RtosShared {
    sim: SimHandle,
    state: Mutex<SchedState>,
}

/// Scheduler counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtosStats {
    /// Number of CPU grants (context switches).
    pub ctx_switches: u64,
    /// Number of preemptions of a running task.
    pub preemptions: u64,
}

/// A priority-preemptive RTOS instance bound to one simulated CPU.
///
/// ```
/// use shiptlm_kernel::prelude::*;
/// use shiptlm_hwsw::rtos::Rtos;
///
/// let sim = Simulation::new();
/// let rtos = Rtos::new(&sim.handle());
/// rtos.spawn_task("worker", 1, |t| async move {
///     t.execute(SimDur::us(5)).await;
/// });
/// sim.run();
/// assert!(rtos.stats().ctx_switches >= 1);
/// ```
#[derive(Clone)]
pub struct Rtos {
    shared: Arc<RtosShared>,
}

impl Rtos {
    /// Creates an RTOS with no tasks.
    pub fn new(sim: &SimHandle) -> Self {
        Rtos {
            shared: Arc::new(RtosShared {
                sim: sim.clone(),
                state: Mutex::new(SchedState {
                    tasks: Vec::new(),
                    current: None,
                    ready: Vec::new(),
                    ctx_switches: 0,
                    preemptions: 0,
                }),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Scheduler counters.
    pub fn stats(&self) -> RtosStats {
        let g = self.lock();
        RtosStats {
            ctx_switches: g.ctx_switches,
            preemptions: g.preemptions,
        }
    }

    /// The priority of `task` (higher value = higher priority).
    pub fn priority(&self, task: TaskId) -> u8 {
        self.lock().tasks[task.0].prio
    }

    /// Spawns a task with the given static priority (higher value wins).
    /// The task starts ready; when the scheduler first grants it the CPU,
    /// `body` builds the task's future from its [`TaskCtx`], and the task's
    /// async process runs that future to completion.
    pub fn spawn_task<F, Fut>(&self, name: &str, prio: u8, body: F) -> TaskId
    where
        F: FnOnce(TaskCtx) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let id = {
            let mut g = self.lock();
            let id = TaskId(g.tasks.len());
            g.tasks.push(TaskRec {
                prio,
                grant: self.shared.sim.event(&format!("{name}.grant")),
                preempt: self.shared.sim.event(&format!("{name}.preempt")),
                state: TState::Ready,
            });
            // Enter the ready queue immediately so sibling tasks contend
            // from the very first scheduling decision.
            g.ready.push(id);
            id
        };
        self.make_ready(id);
        let rtos = self.clone();
        self.shared.sim.spawn_async(name, async move {
            rtos.acquire_cpu(id).await;
            body(TaskCtx {
                rtos: rtos.clone(),
                id,
            })
            .await;
            rtos.task_exit(id);
        });
        id
    }

    /// Marks `task` ready; preempts the running task when outranked.
    /// Callable from ISRs and other tasks.
    pub fn make_ready(&self, task: TaskId) {
        let mut g = self.lock();
        if g.tasks[task.0].state == TState::Done {
            return;
        }
        if g.tasks[task.0].state != TState::Ready && g.tasks[task.0].state != TState::Running {
            g.tasks[task.0].state = TState::Ready;
            g.ready.push(task);
        }
        match g.current {
            Some(cur) => {
                if g.tasks[task.0].prio > g.tasks[cur.0].prio {
                    g.preemptions += 1;
                    let ev = g.tasks[cur.0].preempt.clone();
                    drop(g);
                    ev.notify_delta();
                }
            }
            None => Self::schedule_locked(&mut g),
        }
    }

    /// Picks the highest-priority ready task and grants it the CPU.
    fn schedule_locked(g: &mut SchedState) {
        if g.current.is_some() {
            return;
        }
        // Highest priority wins; FIFO among equals (the ready queue is in
        // arrival order), giving round-robin behaviour under `yield_now`.
        let max_prio = g.ready.iter().map(|t| g.tasks[t.0].prio).max();
        let winner =
            max_prio.and_then(|p| g.ready.iter().copied().find(|t| g.tasks[t.0].prio == p));
        if let Some(w) = winner {
            g.ready.retain(|t| *t != w);
            g.tasks[w.0].state = TState::Running;
            g.current = Some(w);
            g.ctx_switches += 1;
            g.tasks[w.0].grant.notify_delta();
        }
    }

    /// Blocks the task's process until `task` owns the CPU.
    async fn acquire_cpu(&self, task: TaskId) {
        loop {
            let grant = {
                let g = self.lock();
                if g.current == Some(task) {
                    return;
                }
                g.tasks[task.0].grant.clone()
            };
            self.shared.sim.wait(&grant).await;
        }
    }

    /// Releases the CPU, leaving `task` in the given state.
    fn release_cpu(&self, task: TaskId, next_state: TState) {
        let mut g = self.lock();
        debug_assert_eq!(g.current, Some(task), "release by non-owner");
        g.current = None;
        g.tasks[task.0].state = next_state;
        if next_state == TState::Ready {
            g.ready.push(task);
        }
        Self::schedule_locked(&mut g);
    }

    /// Blocks `task` (releasing the CPU) until `event` fires; used by the
    /// RTOS sync primitives.
    async fn block_until(&self, task: TaskId, event: &Event) {
        self.release_cpu(task, TState::Blocked);
        self.shared.sim.wait(event).await;
        self.make_ready(task);
        self.acquire_cpu(task).await;
    }

    /// Like `block_until` but resumes after `timeout` even without the
    /// event.
    async fn block_until_timeout(&self, task: TaskId, event: &Event, timeout: SimDur) {
        self.release_cpu(task, TState::Blocked);
        let _ = self.shared.sim.wait_any_for(&[event], timeout).await;
        self.make_ready(task);
        self.acquire_cpu(task).await;
    }

    /// CPU-consuming, preemptible busy time (instruction execution).
    pub(crate) async fn execute(&self, task: TaskId, d: SimDur) {
        if d.is_zero() {
            return;
        }
        let sim = &self.shared.sim;
        let mut remaining = d;
        loop {
            let preempt = self.lock().tasks[task.0].preempt.clone();
            let t0 = sim.now();
            match sim.wait_any_for(&[&preempt], remaining).await {
                None => return, // ran to completion
                Some(_) => {
                    let ran = sim.now().since(t0);
                    remaining = if ran >= remaining {
                        return;
                    } else {
                        remaining - ran
                    };
                    // Yield the CPU to the preemptor, then continue.
                    self.release_cpu(task, TState::Ready);
                    self.acquire_cpu(task).await;
                }
            }
        }
    }

    /// Sleeps for `d` of wall simulation time, releasing the CPU.
    pub(crate) async fn sleep(&self, task: TaskId, d: SimDur) {
        self.release_cpu(task, TState::Blocked);
        self.shared.sim.wait_for(d).await;
        self.make_ready(task);
        self.acquire_cpu(task).await;
    }

    /// Releases the CPU and waits to be granted it again.
    async fn yield_cpu(&self, task: TaskId) {
        self.release_cpu(task, TState::Ready);
        self.acquire_cpu(task).await;
    }

    fn task_exit(&self, task: TaskId) {
        let mut g = self.lock();
        g.current = None;
        g.tasks[task.0].state = TState::Done;
        Self::schedule_locked(&mut g);
    }

    /// Changes a task's priority at runtime (used by priority inheritance).
    /// If the task is ready and now outranks the running task, the runner is
    /// preempted at its next preemption point.
    pub fn set_priority(&self, task: TaskId, prio: u8) {
        let mut g = self.lock();
        g.tasks[task.0].prio = prio;
        if let Some(cur) = g.current {
            if cur != task && g.tasks[task.0].state == TState::Ready && prio > g.tasks[cur.0].prio {
                g.preemptions += 1;
                let ev = g.tasks[cur.0].preempt.clone();
                drop(g);
                ev.notify_delta();
            }
        }
    }
}

impl fmt::Debug for Rtos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.lock();
        f.debug_struct("Rtos")
            .field("tasks", &g.tasks.len())
            .field("current", &g.current)
            .field("ctx_switches", &g.ctx_switches)
            .finish()
    }
}

/// Execution context of an RTOS task: the handle task bodies program
/// against.
pub struct TaskCtx {
    rtos: Rtos,
    id: TaskId,
}

impl TaskCtx {
    /// This task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The owning RTOS.
    pub fn rtos(&self) -> &Rtos {
        &self.rtos
    }

    /// The handle of the simulation the task runs in.
    ///
    /// Needed when awaiting kernel-level async APIs (e.g. SHIP ports) from
    /// task code; the CPU stays held for the duration, which models a
    /// stalled CPU (MMIO) — use RTOS primitives for waits that should let
    /// other tasks run.
    pub fn sim(&self) -> &SimHandle {
        &self.rtos.shared.sim
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim().now()
    }

    /// Consumes `d` of CPU time; preemptible by higher-priority tasks.
    pub async fn execute(&self, d: SimDur) {
        self.rtos.execute(self.id, d).await;
    }

    /// Sleeps for `d`, releasing the CPU.
    pub async fn sleep(&self, d: SimDur) {
        self.rtos.sleep(self.id, d).await;
    }

    /// Voluntarily yields the CPU to an equal-or-higher priority ready task.
    pub async fn yield_now(&self) {
        self.rtos.yield_cpu(self.id).await;
    }
}

impl fmt::Debug for TaskCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskCtx").field("id", &self.id).finish()
    }
}

/// A counting semaphore whose `take` releases the CPU while blocked.
/// `give` is callable from ISRs and other tasks.
#[derive(Clone)]
pub struct RtosSemaphore {
    rtos: Rtos,
    count: Arc<Mutex<usize>>,
    freed: Event,
}

impl RtosSemaphore {
    /// Creates a semaphore with `initial` permits.
    pub fn new(sim: &SimHandle, rtos: &Rtos, name: &str, initial: usize) -> Self {
        RtosSemaphore {
            rtos: rtos.clone(),
            count: Arc::new(Mutex::new(initial)),
            freed: sim.event(&format!("{name}.freed")),
        }
    }

    /// Takes one permit, blocking (and releasing the CPU) while none are
    /// available.
    pub async fn take(&self, t: &TaskCtx) {
        while !self.try_take() {
            self.rtos.block_until(t.id, &self.freed).await;
        }
    }

    /// Non-blocking take.
    pub fn try_take(&self) -> bool {
        let mut c = self.count.lock().unwrap_or_else(|e| e.into_inner());
        if *c > 0 {
            *c -= 1;
            true
        } else {
            false
        }
    }

    /// Returns a permit and wakes blocked takers (ISR-safe).
    pub fn give(&self) {
        {
            let mut c = self.count.lock().unwrap_or_else(|e| e.into_inner());
            *c += 1;
        }
        self.freed.notify_delta();
    }

    /// Raw take with a deadline: gives up after `timeout`, returning `false`.
    /// Drivers use this as an IRQ-miss guard (a level-sensitive sideband
    /// shared by several conditions can change without a new edge).
    pub(crate) async fn take_raw_timeout(&self, id: TaskId, timeout: SimDur) -> bool {
        if self.try_take() {
            return true;
        }
        self.rtos
            .block_until_timeout(id, &self.freed, timeout)
            .await;
        self.try_take()
    }
}

impl fmt::Debug for RtosSemaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtosSemaphore")
            .field(
                "count",
                &*self.count.lock().unwrap_or_else(|e| e.into_inner()),
            )
            .finish()
    }
}

struct MutexState {
    owner: Option<TaskId>,
    /// The owner's original priority, restored on unlock.
    owner_base_prio: u8,
}

/// A task mutex with **priority inheritance**: while a higher-priority task
/// blocks on the lock, the owner runs at the blocker's priority, bounding
/// priority inversion (the classic RTOS remedy).
#[derive(Clone)]
pub struct RtosMutex {
    rtos: Rtos,
    state: Arc<Mutex<MutexState>>,
    freed: Event,
}

impl RtosMutex {
    /// Creates an unlocked mutex.
    pub fn new(sim: &SimHandle, rtos: &Rtos, name: &str) -> Self {
        RtosMutex {
            rtos: rtos.clone(),
            state: Arc::new(Mutex::new(MutexState {
                owner: None,
                owner_base_prio: 0,
            })),
            freed: sim.event(&format!("{name}.freed")),
        }
    }

    /// Acquires the lock; while blocked, donates this task's priority to the
    /// current owner.
    pub async fn lock(&self, t: &TaskCtx) {
        let me = t.id;
        let rtos = &self.rtos;
        loop {
            {
                let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
                match g.owner {
                    None => {
                        g.owner = Some(me);
                        g.owner_base_prio = rtos.priority(me);
                        return;
                    }
                    Some(owner) => {
                        // Priority inheritance: boost the owner to at least
                        // this blocker's priority.
                        let mine = rtos.priority(me);
                        if rtos.priority(owner) < mine {
                            drop(g);
                            rtos.set_priority(owner, mine);
                        }
                    }
                }
            }
            rtos.block_until(me, &self.freed).await;
        }
    }

    /// Releases the lock, restoring the owner's base priority.
    ///
    /// # Panics
    ///
    /// Panics when called by a task that does not hold the lock.
    pub async fn unlock(&self, t: &TaskCtx) {
        let me = t.id;
        let base = {
            let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
            assert_eq!(g.owner, Some(me), "unlock of a mutex not held");
            g.owner = None;
            g.owner_base_prio
        };
        self.rtos.set_priority(me, base);
        self.freed.notify_delta();
        // Let a released higher-priority waiter claim the lock immediately.
        t.yield_now().await;
    }

    /// The current owner, if any.
    pub fn owner(&self) -> Option<TaskId> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).owner
    }
}

impl fmt::Debug for RtosMutex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtosMutex")
            .field("owner", &self.owner())
            .finish()
    }
}

/// A typed message queue between tasks (and ISRs on the send side).
#[derive(Clone)]
pub struct RtosMailbox<T> {
    rtos: Rtos,
    queue: Arc<Mutex<std::collections::VecDeque<T>>>,
    posted: Event,
}

impl<T: Send + 'static> RtosMailbox<T> {
    /// Creates an unbounded mailbox.
    pub fn new(sim: &SimHandle, rtos: &Rtos, name: &str) -> Self {
        RtosMailbox {
            rtos: rtos.clone(),
            queue: Arc::new(Mutex::new(std::collections::VecDeque::new())),
            posted: sim.event(&format!("{name}.posted")),
        }
    }

    /// Posts a message (ISR-safe, never blocks).
    pub fn post(&self, msg: T) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(msg);
        self.posted.notify_delta();
    }

    /// Receives the next message, blocking (CPU released) while empty.
    pub async fn pend(&self, t: &TaskCtx) -> T {
        loop {
            if let Some(m) = self.try_pend() {
                return m;
            }
            self.rtos.block_until(t.id, &self.posted).await;
        }
    }

    /// Non-blocking receive.
    pub fn try_pend(&self) -> Option<T> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }
}

impl<T> fmt::Debug for RtosMailbox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtosMailbox")
            .field(
                "pending",
                &self.queue.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}
