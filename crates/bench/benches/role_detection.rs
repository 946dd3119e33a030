//! **E3 — Automatic master/slave detection** (paper §2: "when consequently
//! applied, this allows for automatic master/slave detection").
//!
//! Benchmarks role detection over apps of growing channel count and checks
//! detection correctness against ground truth for every topology shape.

use shiptlm::prelude::*;
use shiptlm_bench::minibench::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("role_detection");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for &pairs in &[2usize, 8, 32] {
        g.bench_with_input(
            BenchmarkId::new("parallel_streams", pairs),
            &pairs,
            |b, &pairs| {
                b.iter(|| {
                    run_component_assembly(&workload::parallel_streams(pairs, 2, 16)).unwrap()
                })
            },
        );
    }
    for &stages in &[4usize, 16] {
        g.bench_with_input(
            BenchmarkId::new("pipeline", stages),
            &stages,
            |b, &stages| {
                b.iter(|| {
                    run_component_assembly(&workload::pipeline(stages, 2, 16, SimDur::ZERO))
                        .unwrap()
                })
            },
        );
    }
    g.finish();

    // Correctness summary across topologies.
    println!("\n=== E3: detection correctness ===");
    let mut checked = 0;
    let mut correct = 0;

    // Pipelines: the upstream end of every hop is the master.
    for stages in 2..10 {
        let ca = run_component_assembly(&workload::pipeline(stages, 2, 16, SimDur::ZERO)).unwrap();
        for (k, (_ch, master)) in ca.roles.master_of.iter().enumerate() {
            checked += 1;
            let expected = if k == 0 {
                "source".to_string()
            } else {
                format!("stage{}", k - 1)
            };
            if *master == expected {
                correct += 1;
            }
        }
    }
    // RPC: the client is always the master.
    for clients in 1..6 {
        let ca = run_component_assembly(&workload::rpc(clients, 2, 16, SimDur::ZERO)).unwrap();
        for (ch, master) in &ca.roles.master_of {
            checked += 1;
            let idx: String = ch.chars().filter(|c| c.is_ascii_digit()).collect();
            if *master == format!("client{idx}") {
                correct += 1;
            }
        }
    }
    println!("{correct}/{checked} channel roles detected correctly");
    assert_eq!(correct, checked, "role detection must be exact");

    // Inconsistent PEs must be rejected, not mis-mapped.
    let mut bad = AppSpec::new("bad");
    bad.add_pe("x", move |h, ports| async move {
        ports[0].send_async(&h, &1u8).await.unwrap();
        let _: u8 = ports[0].recv_async(&h).await.unwrap();
    });
    bad.add_pe("y", move |h, ports| async move {
        let _: u8 = ports[0].recv_async(&h).await.unwrap();
        ports[0].send_async(&h, &2u8).await.unwrap();
    });
    bad.connect("c", "x", "y");
    assert!(run_component_assembly(&bad).is_err());
    println!("inconsistent call usage correctly rejected\n");
}

criterion_group!(benches, bench_detection);
criterion_main!(benches);
