//! **E1 — Simulation speed vs abstraction level** (paper §1: "very high
//! simulation speeds become feasible enabling fast communication
//! architecture exploration").
//!
//! The same 8-PE pipeline workload is simulated at the untimed
//! component-assembly level, the CCATB (bus CAM) level, and the pin-accurate
//! prototype level. The expected shape: each refinement costs host
//! simulation speed (messages per host second) and kernel effort (delta
//! cycles). Results land in `BENCH_abstraction_speed.json`.

use shiptlm::prelude::*;
use shiptlm_bench::minibench::{
    criterion_group, criterion_main, write_json, BenchmarkId, Criterion, Throughput,
};

const STAGES: usize = 6;
const BLOCKS: u32 = 16;

/// Application messages delivered per run: every block crosses every
/// channel of the pipeline.
const MESSAGES: u64 = (STAGES as u64 - 1) * BLOCKS as u64;

fn app(block_bytes: usize) -> AppSpec {
    workload::pipeline(STAGES, BLOCKS, block_bytes, SimDur::ZERO)
}

fn bench_levels(c: &mut Criterion) {
    let mut g = c.benchmark_group("abstraction_speed");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.throughput(Throughput::Elements(MESSAGES));

    for &bytes in &[16usize, 256] {
        let roles = run_component_assembly(&app(bytes)).unwrap().roles;
        g.bench_with_input(
            BenchmarkId::new("component_assembly", bytes),
            &bytes,
            |b, &bytes| b.iter(|| run_component_assembly(&app(bytes)).unwrap()),
        );
        g.bench_with_input(BenchmarkId::new("ccatb", bytes), &bytes, |b, &bytes| {
            b.iter(|| run_mapped(&app(bytes), &roles, &ArchSpec::plb()).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("pin_accurate", bytes),
            &bytes,
            |b, &bytes| b.iter(|| run_pin_accurate(&app(bytes), &roles, &ArchSpec::plb()).unwrap()),
        );
    }
    g.finish();

    // Simulation-effort table: host speed and kernel effort per level.
    println!("\n=== E1: simulation speed vs abstraction level (6-PE pipeline, 16x256B) ===");
    println!(
        "{:<22} {:>12} {:>14} {:>16} {:>14}",
        "level", "messages", "delta cycles", "msgs/host-sec", "sim time"
    );
    let ca = run_component_assembly(&app(256)).unwrap();
    let roles = ca.roles.clone();
    let rows = [
        ("component-assembly", ca.output),
        (
            "ccatb",
            run_mapped(&app(256), &roles, &ArchSpec::plb())
                .unwrap()
                .output,
        ),
        (
            "pin-accurate",
            run_pin_accurate(&app(256), &roles, &ArchSpec::plb())
                .unwrap()
                .output,
        ),
    ];
    let mut speeds = Vec::new();
    for (name, out) in rows {
        let msgs = out
            .log
            .to_vec()
            .iter()
            .filter(|r| r.op == ShipOp::Recv)
            .count();
        let speed = msgs as f64 / out.wall_seconds;
        println!(
            "{:<22} {:>12} {:>14} {:>16.0} {:>14}",
            name,
            msgs,
            out.delta_cycles,
            speed,
            out.sim_time.to_string()
        );
        speeds.push(speed);
    }
    println!(
        "speedup component-assembly vs ccatb: {:.1}x, ccatb vs pin: {:.1}x\n",
        speeds[0] / speeds[1],
        speeds[1] / speeds[2]
    );

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_abstraction_speed.json"
    );
    write_json("abstraction_speed", out).expect("write BENCH_abstraction_speed.json");
}

criterion_group!(benches, bench_levels);
criterion_main!(benches);
