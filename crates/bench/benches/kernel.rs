//! **Kernel process switch and spawn, per process kind** (ROADMAP item 2).
//!
//! The same two micro-workloads run on thread processes, where every
//! activation resumes an OS thread, and on async processes, which the
//! thread holding control polls inline:
//!
//! * `switch/*` — two processes ping-pong over two events; throughput is
//!   process switches per microsecond;
//! * `spawn/*` — eight processes are spawned, run to completion and
//!   dropped with their simulation; throughput is processes per
//!   microsecond.
//!
//! Results land in `BENCH_kernel.json`, headed by the host's core count
//! and the git revision.

use shiptlm_bench::minibench::{
    black_box, criterion_group, criterion_main, write_json, BenchmarkId, Criterion, Throughput,
};
use shiptlm_kernel::prelude::*;

/// Round trips per switch iteration: two switches each.
const ROUND_TRIPS: u64 = 2_000;
/// Processes per spawn iteration.
const PROCESSES: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Thread,
    Async,
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kind::Thread => "thread",
            Kind::Async => "async",
        })
    }
}

/// Two processes of `kind` ping-pong `ROUND_TRIPS` times over two events.
fn switch(kind: Kind) {
    let sim = Simulation::new();
    let (ping, pong) = (sim.event("ping"), sim.event("pong"));
    let (ping2, pong2) = (ping.clone(), pong.clone());
    match kind {
        Kind::Thread => {
            sim.spawn_thread("a", move |ctx| {
                for _ in 0..ROUND_TRIPS {
                    ping.notify_delta();
                    ctx.wait(&pong);
                }
            });
            sim.spawn_thread("b", move |ctx| {
                for _ in 0..ROUND_TRIPS {
                    ctx.wait(&ping2);
                    pong2.notify_delta();
                }
            });
        }
        Kind::Async => {
            let (ha, hb) = (sim.handle(), sim.handle());
            sim.spawn_async("a", async move {
                for _ in 0..ROUND_TRIPS {
                    ping.notify_delta();
                    ha.wait(&pong).await;
                }
            });
            sim.spawn_async("b", async move {
                for _ in 0..ROUND_TRIPS {
                    hb.wait(&ping2).await;
                    pong2.notify_delta();
                }
            });
        }
    }
    sim.run();
}

/// `PROCESSES` processes of `kind` spawned, run and dropped.
fn spawn(kind: Kind) {
    let sim = Simulation::new();
    for i in 0..PROCESSES {
        let name = format!("p{i}");
        match kind {
            Kind::Thread => {
                sim.spawn_thread(&name, |ctx| {
                    black_box(ctx.now());
                });
            }
            Kind::Async => {
                let h = sim.handle();
                sim.spawn_async(&name, async move {
                    black_box(h.now());
                });
            }
        }
    }
    sim.run();
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_secs(1));
    for kind in [Kind::Thread, Kind::Async] {
        g.throughput(Throughput::Elements(2 * ROUND_TRIPS));
        g.bench_with_input(BenchmarkId::new("switch", kind), &kind, |b, &kind| {
            b.iter(|| switch(kind))
        });
        g.throughput(Throughput::Elements(PROCESSES));
        g.bench_with_input(BenchmarkId::new("spawn", kind), &kind, |b, &kind| {
            b.iter(|| spawn(kind))
        });
    }
    g.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    write_json("kernel", out).expect("write BENCH_kernel.json");
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
