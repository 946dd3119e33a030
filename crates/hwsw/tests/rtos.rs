//! RTOS scheduler semantics: priorities, preemption, sleeping, semaphores
//! and mailboxes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shiptlm_hwsw::prelude::*;
use shiptlm_kernel::prelude::*;

fn log() -> (
    Arc<Mutex<Vec<String>>>,
    impl Fn(&str) + Clone + Send + 'static,
) {
    let l = Arc::new(Mutex::new(Vec::new()));
    let c = Arc::clone(&l);
    (l, move |s: &str| c.lock().unwrap().push(s.to_string()))
}

#[test]
fn one_task_runs_to_completion() {
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    let done = Arc::new(Mutex::new(None));
    {
        let done = Arc::clone(&done);
        rtos.spawn_task("t", 1, move |t| async move {
            t.execute(SimDur::us(7)).await;
            *done.lock().unwrap() = Some(t.now());
        });
    }
    sim.run();
    assert_eq!(done.lock().unwrap().unwrap(), SimTime::ZERO + SimDur::us(7));
}

#[test]
fn cpu_is_exclusive_tasks_serialize() {
    // Two equal-priority tasks each needing 10 us of CPU: total 20 us.
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    for i in 0..2 {
        rtos.spawn_task(&format!("t{i}"), 1, move |t| async move {
            t.execute(SimDur::us(10)).await;
        });
    }
    let r = sim.run();
    assert_eq!(r.time, SimTime::ZERO + SimDur::us(20));
}

#[test]
fn higher_priority_preempts_running_task() {
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    let (events, push) = log();
    {
        let push = push.clone();
        rtos.spawn_task("low", 1, move |t| async move {
            push("low:start");
            t.execute(SimDur::us(100)).await;
            push(&format!("low:done@{}", t.now()));
        });
    }
    {
        let push = push.clone();
        rtos.spawn_task("high", 5, move |t| async move {
            t.sleep(SimDur::us(10)).await; // let low start
            push(&format!("high:woke@{}", t.now()));
            t.execute(SimDur::us(20)).await;
            push(&format!("high:done@{}", t.now()));
        });
    }
    sim.run();
    let ev = events.lock().unwrap();
    // low starts ... wait, 'high' has higher priority so it runs first, but
    // it immediately sleeps, handing the CPU to low. At 10us high preempts.
    assert_eq!(
        *ev,
        vec![
            "low:start",
            "high:woke@10 us",
            "high:done@30 us",
            "low:done@120 us" // 100us of work + 20us stolen
        ]
    );
    assert!(rtos.stats().preemptions >= 1);
}

#[test]
fn equal_priority_does_not_preempt() {
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    let (events, push) = log();
    {
        let push = push.clone();
        rtos.spawn_task("a", 1, move |t| async move {
            t.execute(SimDur::us(50)).await;
            push(&format!("a:done@{}", t.now()));
        });
    }
    {
        let push = push.clone();
        rtos.spawn_task("b", 1, move |t| async move {
            t.execute(SimDur::us(10)).await;
            push(&format!("b:done@{}", t.now()));
        });
    }
    sim.run();
    // a spawns first, runs its 50us uninterrupted, then b.
    assert_eq!(
        *events.lock().unwrap(),
        vec!["a:done@50 us", "b:done@60 us"]
    );
}

#[test]
fn sleep_releases_cpu_to_others() {
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    let (events, push) = log();
    {
        let push = push.clone();
        rtos.spawn_task("sleeper", 5, move |t| async move {
            t.sleep(SimDur::us(30)).await;
            push(&format!("sleeper:woke@{}", t.now()));
        });
    }
    {
        let push = push.clone();
        rtos.spawn_task("worker", 1, move |t| async move {
            t.execute(SimDur::us(10)).await;
            push(&format!("worker:done@{}", t.now()));
        });
    }
    sim.run();
    // Worker completes during the sleeper's nap.
    assert_eq!(
        *events.lock().unwrap(),
        vec!["worker:done@10 us", "sleeper:woke@30 us"]
    );
}

#[test]
fn semaphore_blocks_and_wakes_with_cpu_release() {
    let sim = Simulation::new();
    let h = sim.handle();
    let rtos = Rtos::new(&h);
    let sem = RtosSemaphore::new(&h, &rtos, "sem", 0);
    let (events, push) = log();
    {
        let (sem, push) = (sem.clone(), push.clone());
        rtos.spawn_task("waiter", 5, move |t| async move {
            push("waiter:taking");
            sem.take(&t).await;
            push(&format!("waiter:got@{}", t.now()));
        });
    }
    {
        let push = push.clone();
        rtos.spawn_task("giver", 1, move |t| async move {
            t.execute(SimDur::us(25)).await;
            push("giver:giving");
            sem.give();
            t.execute(SimDur::us(5)).await;
        });
    }
    sim.run();
    let ev = events.lock().unwrap();
    assert_eq!(ev[0], "waiter:taking");
    assert_eq!(ev[1], "giver:giving");
    // The high-priority waiter wakes immediately at 25us (preempting giver).
    assert_eq!(ev[2], "waiter:got@25 us");
}

#[test]
fn mailbox_passes_typed_messages() {
    let sim = Simulation::new();
    let h = sim.handle();
    let rtos = Rtos::new(&h);
    let mbox: RtosMailbox<(u32, String)> = RtosMailbox::new(&h, &rtos, "mb");
    let got = Arc::new(Mutex::new(Vec::new()));
    {
        let (mbox, got) = (mbox.clone(), Arc::clone(&got));
        rtos.spawn_task("rx", 5, move |t| async move {
            for _ in 0..3 {
                let m = mbox.pend(&t).await;
                got.lock().unwrap().push(m);
            }
        });
    }
    rtos.spawn_task("tx", 1, move |t| async move {
        for i in 0..3u32 {
            t.execute(SimDur::us(5)).await;
            mbox.post((i, format!("m{i}")));
        }
    });
    sim.run();
    let got = got.lock().unwrap();
    assert_eq!(got.len(), 3);
    assert_eq!(got[0], (0, "m0".into()));
    assert_eq!(got[2], (2, "m2".into()));
}

#[test]
fn preempted_work_conserves_total_cpu_time() {
    // Low needs exactly 40us CPU; high steals 3 x 10us. Low must end at
    // 40 + 30 = 70us.
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    let low_done = Arc::new(Mutex::new(SimTime::ZERO));
    {
        let low_done = Arc::clone(&low_done);
        rtos.spawn_task("low", 1, move |t| async move {
            t.execute(SimDur::us(40)).await;
            *low_done.lock().unwrap() = t.now();
        });
    }
    rtos.spawn_task("high", 9, move |t| async move {
        for _ in 0..3 {
            t.sleep(SimDur::us(5)).await;
            t.execute(SimDur::us(10)).await;
        }
    });
    sim.run();
    assert_eq!(*low_done.lock().unwrap(), SimTime::ZERO + SimDur::us(70));
}

#[test]
fn yield_now_rotates_equal_priority() {
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    let (events, push) = log();
    for name in ["a", "b"] {
        let push = push.clone();
        rtos.spawn_task(name, 1, move |t| async move {
            for i in 0..3 {
                push(&format!("{name}{i}"));
                t.yield_now().await;
            }
        });
    }
    sim.run();
    let ev = events.lock().unwrap();
    assert_eq!(*ev, vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
}

#[test]
fn stats_count_switches() {
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    for i in 0..3 {
        rtos.spawn_task(&format!("t{i}"), 1, move |t| async move {
            t.execute(SimDur::us(1)).await;
        });
    }
    sim.run();
    assert!(rtos.stats().ctx_switches >= 3);
}

#[test]
fn mutex_priority_inheritance_bounds_inversion() {
    // Classic scenario: low takes the lock; high blocks on it; medium wants
    // pure CPU. With inheritance, low runs at high's priority and finishes
    // its critical section before medium gets any CPU.
    let sim = Simulation::new();
    let h = sim.handle();
    let rtos = Rtos::new(&h);
    let m = RtosMutex::new(&h, &rtos, "m");
    let (events, push) = log();
    {
        let (m, push) = (m.clone(), push.clone());
        rtos.spawn_task("low", 1, move |t| async move {
            m.lock(&t).await;
            push("low:locked");
            t.execute(SimDur::us(40)).await; // critical section
            push(&format!("low:unlock@{}", t.now()));
            m.unlock(&t).await;
        });
    }
    {
        let push = push.clone();
        rtos.spawn_task("medium", 5, move |t| async move {
            t.sleep(SimDur::us(5)).await; // let low take the lock
            t.execute(SimDur::us(30)).await;
            push(&format!("medium:done@{}", t.now()));
        });
    }
    {
        let (m, push) = (m.clone(), push.clone());
        rtos.spawn_task("high", 9, move |t| async move {
            t.sleep(SimDur::us(2)).await; // let low take the lock first
            push("high:wants-lock");
            m.lock(&t).await;
            push(&format!("high:locked@{}", t.now()));
            m.unlock(&t).await;
        });
    }
    sim.run();
    let ev = events.lock().unwrap();
    let pos = |s: &str| ev.iter().position(|e| e.starts_with(s)).unwrap();
    // High gets the lock before medium finishes its compute: inversion bounded.
    assert!(
        pos("high:locked") < pos("medium:done"),
        "priority inversion not bounded: {ev:?}"
    );
}

#[test]
fn mutex_without_contention_is_transparent() {
    let sim = Simulation::new();
    let h = sim.handle();
    let rtos = Rtos::new(&h);
    let m = RtosMutex::new(&h, &rtos, "m");
    let done = Arc::new(AtomicU64::new(0));
    {
        let (m, done) = (m.clone(), Arc::clone(&done));
        rtos.spawn_task("t", 1, move |t| async move {
            for _ in 0..5 {
                m.lock(&t).await;
                t.execute(SimDur::us(1)).await;
                m.unlock(&t).await;
            }
            done.store(t.now().as_ps(), Ordering::SeqCst);
        });
    }
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 5_000_000); // 5 us total
    assert_eq!(m.owner(), None);
}

#[test]
#[should_panic(expected = "process 't' panicked")]
fn mutex_unlock_by_non_owner_panics() {
    let sim = Simulation::new();
    let h = sim.handle();
    let rtos = Rtos::new(&h);
    let m = RtosMutex::new(&h, &rtos, "m");
    rtos.spawn_task("t", 1, move |t| async move {
        m.unlock(&t).await;
    });
    sim.run();
}

#[test]
fn set_priority_reorders_ready_queue() {
    let sim = Simulation::new();
    let rtos = Rtos::new(&sim.handle());
    let (events, push) = log();
    let rtos2 = rtos.clone();
    {
        let push = push.clone();
        rtos.spawn_task("a", 5, move |t| async move {
            // Demote ourselves mid-run; b should finish first afterwards.
            t.execute(SimDur::us(5)).await;
            let me = t.id();
            t.rtos().set_priority(me, 1);
            t.yield_now().await;
            t.execute(SimDur::us(5)).await;
            push(&format!("a:done@{}", t.now()));
        });
    }
    {
        let push = push.clone();
        rtos2.spawn_task("b", 3, move |t| async move {
            t.execute(SimDur::us(5)).await;
            push(&format!("b:done@{}", t.now()));
        });
    }
    sim.run();
    let ev = events.lock().unwrap();
    assert_eq!(*ev, vec!["b:done@10 us", "a:done@15 us"]);
}
