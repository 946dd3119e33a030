//! **Direct-execution backend vs the DE kernel** at the untimed
//! component-assembly level (ROADMAP item 2: the level designers iterate
//! in, so its msgs/host-sec bounds exploration throughput).
//!
//! The same three untimed workloads — pipeline, fan-out, RPC — run on the
//! delta-cycle kernel and on the direct backend; throughput is application
//! messages per host second. Results land in `BENCH_direct.json` for the CI
//! artifact and EXPERIMENTS.md.

use shiptlm::prelude::*;
use shiptlm_bench::minibench::{
    criterion_group, criterion_main, write_json, BenchmarkId, Criterion, Throughput,
};

const BLOCKS: u32 = 16;
const BYTES: usize = 256;

/// One source feeding `sinks` independent sinks round-robin.
fn fanout_app(sinks: usize) -> AppSpec {
    let mut app = AppSpec::new("fanout");
    app.add_pe("source", move |h, ports| async move {
        for i in 0..BLOCKS {
            for port in &ports {
                let data = workload::block(u64::from(i), BYTES);
                port.send_async(&h, &data).await.unwrap();
            }
        }
    });
    for s in 0..sinks {
        let name = format!("sink{s}");
        app.add_pe(&name, move |h, ports| async move {
            for i in 0..BLOCKS {
                let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                assert_eq!(data, workload::block(u64::from(i), BYTES));
            }
        });
        app.connect(&format!("f{s}"), "source", &name);
    }
    app
}

/// (name, app factory, application messages delivered per run).
type Workload = (&'static str, fn() -> AppSpec, u64);

fn workloads() -> Vec<Workload> {
    vec![
        (
            "pipeline",
            || workload::pipeline(6, BLOCKS, BYTES, SimDur::ZERO),
            5 * u64::from(BLOCKS),
        ),
        ("fanout", || fanout_app(4), 4 * u64::from(BLOCKS)),
        (
            "rpc",
            || workload::rpc(2, BLOCKS, BYTES, SimDur::ZERO),
            2 * 2 * u64::from(BLOCKS),
        ),
    ]
}

fn backend_opts(backend: Backend) -> RunOptions {
    RunOptions::default().with_backend(backend)
}

fn bench_direct(c: &mut Criterion) {
    let mut g = c.benchmark_group("direct");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));

    for (name, app, messages) in workloads() {
        g.throughput(Throughput::Elements(messages));
        for backend in [Backend::De, Backend::Direct] {
            let opts = backend_opts(backend);
            // The run must actually use the requested backend, not fall
            // back: assert once outside the timed loop.
            let probe = run_component_assembly_with(&app(), &opts).unwrap();
            assert_eq!(probe.backend.used, backend, "{name} fell back");
            g.bench_with_input(BenchmarkId::new(name, backend), &opts, |b, opts| {
                b.iter(|| run_component_assembly_with(&app(), opts).unwrap())
            });
        }
    }
    g.finish();

    // msgs/host-sec table for EXPERIMENTS.md E1.
    println!("\n=== Direct execution vs DE kernel (untimed level, msgs/host-sec) ===");
    println!(
        "{:<10} {:>10} {:>16} {:>16} {:>9}",
        "workload", "messages", "de", "direct", "speedup"
    );
    for (name, app, messages) in workloads() {
        let speed = |backend| {
            // Median-of-5 wall times: single runs are microseconds and
            // jittery, and this table feeds a committed artifact.
            let mut secs: Vec<f64> = (0..5)
                .map(|_| {
                    run_component_assembly_with(&app(), &backend_opts(backend))
                        .unwrap()
                        .output
                        .wall_seconds
                })
                .collect();
            secs.sort_by(f64::total_cmp);
            messages as f64 / secs[2]
        };
        let de = speed(Backend::De);
        let direct = speed(Backend::Direct);
        println!(
            "{:<10} {:>10} {:>16.0} {:>16.0} {:>8.1}x",
            name,
            messages,
            de,
            direct,
            direct / de
        );
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_direct.json");
    write_json("direct", out).expect("write BENCH_direct.json");
}

criterion_group!(benches, bench_direct);
criterion_main!(benches);
