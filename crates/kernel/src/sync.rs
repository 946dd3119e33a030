//! Blocking synchronization primitives for simulated processes, analogous to
//! SystemC's `sc_semaphore` and `sc_mutex`.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::sim::SimHandle;

struct SemShared {
    count: Mutex<usize>,
    freed: Event,
}

/// A counting semaphore for simulated processes.
///
/// `acquire` suspends the polling process while the count is zero; `release`
/// wakes all waiters (they re-contend deterministically in wake order).
#[derive(Clone)]
pub struct SimSemaphore {
    shared: Arc<SemShared>,
}

impl SimSemaphore {
    /// Creates a semaphore with `initial` permits.
    pub fn new(sim: &SimHandle, name: &str, initial: usize) -> Self {
        SimSemaphore {
            shared: Arc::new(SemShared {
                count: Mutex::new(initial),
                freed: sim.event(&format!("{name}.freed")),
            }),
        }
    }

    /// Current number of available permits.
    pub fn available(&self) -> usize {
        *self.shared.count.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes one permit, suspending the polling process while none are
    /// available.
    pub async fn acquire(&self, sim: &SimHandle) {
        while !self.try_acquire() {
            sim.wait(&self.shared.freed).await;
        }
    }

    /// Attempts to take one permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut g = self.shared.count.lock().unwrap_or_else(|e| e.into_inner());
        if *g > 0 {
            *g -= 1;
            true
        } else {
            false
        }
    }

    /// Returns one permit and wakes waiters in the next delta cycle.
    pub fn release(&self) {
        {
            let mut g = self.shared.count.lock().unwrap_or_else(|e| e.into_inner());
            *g += 1;
        }
        self.shared.freed.notify_delta();
    }
}

impl fmt::Debug for SimSemaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSemaphore")
            .field("available", &self.available())
            .finish()
    }
}

/// A mutual-exclusion lock for simulated processes, built on a binary
/// [`SimSemaphore`].
#[derive(Clone, Debug)]
pub struct SimMutex {
    sem: SimSemaphore,
}

impl SimMutex {
    /// Creates an unlocked mutex.
    pub fn new(sim: &SimHandle, name: &str) -> Self {
        SimMutex {
            sem: SimSemaphore::new(sim, name, 1),
        }
    }

    /// Acquires the lock, suspending the polling process while another
    /// process holds it.
    pub async fn lock(&self, sim: &SimHandle) {
        self.sem.acquire(sim).await;
    }

    /// Attempts to acquire without blocking.
    pub fn try_lock(&self) -> bool {
        self.sem.try_acquire()
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if the mutex was not locked (double unlock).
    pub fn unlock(&self) {
        assert_eq!(self.sem.available(), 0, "unlock of an unlocked SimMutex");
        self.sem.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn semaphore_serializes_critical_sections() {
        let sim = Simulation::new();
        let sem = SimSemaphore::new(&sim.handle(), "sem", 1);
        let active = StdArc::new(AtomicU32::new(0));
        let peak = StdArc::new(AtomicU32::new(0));
        for i in 0..4 {
            let sem = sem.clone();
            let active = StdArc::clone(&active);
            let peak = StdArc::clone(&peak);
            let h = sim.handle();
            sim.spawn_async(&format!("p{i}"), async move {
                sem.acquire(&h).await;
                let a = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(a, Ordering::SeqCst);
                h.wait_for(SimDur::ns(10)).await;
                active.fetch_sub(1, Ordering::SeqCst);
                sem.release();
            });
        }
        sim.run();
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn try_acquire_does_not_block() {
        let sim = Simulation::new();
        let sem = SimSemaphore::new(&sim.handle(), "sem", 1);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
    }

    #[test]
    #[should_panic(expected = "unlock of an unlocked SimMutex")]
    fn double_unlock_panics() {
        let sim = Simulation::new();
        let m = SimMutex::new(&sim.handle(), "m");
        m.unlock();
    }

    #[test]
    fn mutex_excludes_concurrent_holders() {
        let sim = Simulation::new();
        let m = SimMutex::new(&sim.handle(), "m");
        let order = StdArc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..3u32 {
            let m = m.clone();
            let order = StdArc::clone(&order);
            let h = sim.handle();
            sim.spawn_async(&format!("t{i}"), async move {
                m.lock(&h).await;
                order.lock().unwrap().push((i, h.now()));
                h.wait_for(SimDur::ns(5)).await;
                m.unlock();
            });
        }
        sim.run();
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 3);
        // Holders are strictly serialized 5 ns apart.
        assert_eq!(order[1].1.since(order[0].1), SimDur::ns(5));
        assert_eq!(order[2].1.since(order[1].1), SimDur::ns(5));
    }
}
