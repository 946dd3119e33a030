//! Parallel-vs-serial sweep determinism and worker-thread liveness.
//!
//! A sweep fans candidate simulations out over OS threads; the report must
//! not depend on the thread count, and the kernel's liveness machinery
//! (deadlock diagnosis, SHIP call timeouts) must keep working when the
//! simulation lives on a worker thread instead of the main one.

use shiptlm_explore::prelude::*;
use shiptlm_kernel::prelude::*;
use shiptlm_kernel::time::SimDur;
use shiptlm_ship::prelude::*;

fn the_app() -> AppSpec {
    workload::parallel_streams(3, 12, 256)
}

fn candidates() -> Vec<ArchSpec> {
    vec![
        ArchSpec::plb(),
        ArchSpec::plb().with_burst(16),
        ArchSpec::plb().with_burst(128),
        ArchSpec::opb(),
        ArchSpec::opb().with_burst(16),
        ArchSpec::crossbar(),
        ArchSpec::crossbar().with_burst(16),
        ArchSpec::crossbar().with_burst(128),
    ]
}

/// Deterministic fingerprint of a report row (everything except host
/// wall-clock, which legitimately varies run to run).
fn fingerprint(report: &Report) -> Vec<(String, String, u64, u64, u64)> {
    report
        .rows()
        .iter()
        .map(|r| {
            (
                r.label.clone(),
                r.sim_time.to_string(),
                r.messages,
                r.bytes,
                r.delta_cycles,
            )
        })
        .collect()
}

#[test]
fn parallel_report_is_identical_to_serial() {
    let serial = Sweep::new(the_app())
        .archs(candidates())
        .with_untimed_baseline()
        .run()
        .unwrap();
    for threads in [1, 2, 8] {
        let parallel = Sweep::new(the_app())
            .archs(candidates())
            .with_untimed_baseline()
            .run_parallel(threads)
            .unwrap();
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "report rows diverge at {threads} worker threads"
        );
        // The rendered table excludes wall-clock, so it must be
        // byte-identical too.
        assert_eq!(
            serial.to_string(),
            parallel.to_string(),
            "rendered report diverges at {threads} worker threads"
        );
    }
}

#[test]
fn sweep_convenience_matches_builder() {
    let a = sweep(the_app(), candidates(), 4).unwrap();
    let b = Sweep::new(the_app()).archs(candidates()).run().unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn parallel_sweep_propagates_earliest_error() {
    // An empty role map entry: hand the sweep an app whose channel carries
    // no traffic, so role detection fails identically in serial and
    // parallel.
    let mut app = AppSpec::new("idle");
    app.add_pe("a", |_, _| async {});
    app.add_pe("b", |_, _| async {});
    app.connect("quiet", "a", "b");
    let serial = Sweep::new(app.clone()).archs(candidates()).run();
    let parallel = Sweep::new(app).archs(candidates()).run_parallel(4);
    assert_eq!(serial.unwrap_err(), parallel.unwrap_err());
}

#[test]
fn panicking_candidate_does_not_poison_the_global_pool() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // The producer panics on every elaboration after the first, so the
    // untimed role-detection run (on the calling thread) succeeds and the
    // mapped candidates (fanned out over `WorkerPool::global()`) panic
    // mid-simulation on worker threads.
    let elaborations = Arc::new(AtomicUsize::new(0));
    let mut app = AppSpec::new("panicky");
    {
        let elaborations = Arc::clone(&elaborations);
        app.add_pe("tx", move |h, ports| {
            let nth = elaborations.fetch_add(1, Ordering::SeqCst);
            async move {
                for i in 0..4u32 {
                    if nth > 0 && i == 2 {
                        panic!("injected candidate panic");
                    }
                    ports[0].send_async(&h, &i).await.unwrap();
                }
            }
        });
    }
    app.add_pe("rx", move |h, ports| async move {
        for _ in 0..4 {
            let _ = ports[0].recv_async::<u32>(&h).await;
        }
    });
    app.connect("c", "tx", "rx");

    let caught = catch_unwind(AssertUnwindSafe(|| {
        // Force the DE backend so the role-detection run elaborates exactly
        // once (Auto could re-elaborate and hit the panic on this thread).
        Sweep::new(app)
            .with_options(RunOptions::default())
            .archs(candidates())
            .run_parallel(4)
    }));
    assert!(caught.is_err(), "candidate panic must reach the caller");

    // The global pool (same parked workers) must run the next sweep clean.
    let report = Sweep::new(the_app())
        .archs(candidates())
        .run_parallel(4)
        .unwrap();
    assert_eq!(report.rows().len(), candidates().len());
}

#[test]
fn cancelled_sweep_returns_cancelled_not_rows() {
    let token = CancelToken::new();
    token.cancel();
    let err = Sweep::new(the_app())
        .archs(candidates())
        .with_cancel(token.clone())
        .run_parallel(2)
        .unwrap_err();
    assert_eq!(err, MapError::Cancelled);
    assert!(token.is_cancelled());

    // An un-cancelled token leaves the sweep untouched.
    let report = Sweep::new(the_app())
        .archs(candidates())
        .with_cancel(CancelToken::new())
        .run_parallel(2)
        .unwrap();
    assert_eq!(report.rows().len(), candidates().len());
}

#[test]
fn deadlock_diagnosis_works_inside_worker_threads() {
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    let sim = Simulation::new();
                    let ch =
                        ShipChannel::new(&sim.handle(), &format!("dead{i}"), ShipConfig::default());
                    let (pa, pb) = ch.ports("left", "right");
                    // Both sides recv: classic cross-wait, starves instantly.
                    sim.spawn_thread("left", move |ctx| {
                        let _: Result<u32, _> = pa.recv(ctx);
                    });
                    sim.spawn_thread("right", move |ctx| {
                        let _: Result<u32, _> = pb.recv(ctx);
                    });
                    let result = sim.run();
                    assert_eq!(result.reason, StopReason::Starved);
                    sim.diagnose()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for report in reports {
        assert_eq!(report.blocked.len(), 2, "both processes should be blocked");
        let names: Vec<_> = report.blocked.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"left") && names.contains(&"right"));
    }
}

#[test]
fn ship_timeouts_fire_inside_worker_threads() {
    let handle = std::thread::spawn(|| {
        let sim = Simulation::new();
        let cfg = ShipConfig {
            timeout: Some(SimDur::us(5)),
            ..ShipConfig::default()
        };
        let ch = ShipChannel::new(&sim.handle(), "starved", cfg);
        let (pa, _pb) = ch.ports("reader", "silent");
        sim.spawn_thread("reader", move |ctx| {
            let err = pa.recv::<u32>(ctx).unwrap_err();
            assert!(
                matches!(err, ShipError::Timeout { .. }),
                "expected a timeout, got {err:?}"
            );
        });
        sim.run()
    });
    let result = handle.join().unwrap();
    assert_eq!(result.reason, StopReason::Starved);
}
