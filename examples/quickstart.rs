//! Quickstart: a producer/consumer application taken through the whole
//! design flow — component-assembly → CCATB (PLB) → pin-accurate — with
//! automatic master/slave detection and cross-level equivalence checking.
//!
//! Run with `cargo run --example quickstart`. Set `SHIPTLM_TRACE_OUT=t.json`
//! to also export the CCATB run's transaction-level trace as Chrome
//! `trace_event` JSON (load it at <https://ui.perfetto.dev>).

use shiptlm::prelude::*;

fn main() -> Result<(), FlowError> {
    // 1. Describe the application: PEs + SHIP channels, no architecture yet.
    let mut app = AppSpec::new("quickstart");
    app.add_pe("producer", move |h, ports| async move {
        for i in 0..32u32 {
            let payload: Vec<u8> = (0..64).map(|b| (b as u32 ^ i) as u8).collect();
            ports[0].send_async(&h, &(i, payload)).await.unwrap();
        }
    });
    app.add_pe("consumer", move |h, ports| async move {
        for i in 0..32u32 {
            let (n, payload): (u32, Vec<u8>) = ports[0].recv_async(&h).await.unwrap();
            assert_eq!(n, i);
            assert_eq!(payload.len(), 64);
        }
    });
    app.connect("stream", "producer", "consumer");

    // 2. Run the flow against a CoreConnect-PLB-like architecture, with the
    //    transaction recorder capturing SHIP/bus/OCP events at every level.
    let run = DesignFlow::new(app, ArchSpec::plb())
        .with_pin_level()
        .with_recorder(65_536)
        .run()?;

    // 3. Inspect what the flow derived and measured.
    println!(
        "detected roles: {:?}",
        run.component_assembly.roles.master_of
    );
    println!();
    println!("{}", run.report());
    println!(
        "ccatb bus: {} transactions, mean latency {:.1} cycles, mean wait {:.1} cycles",
        run.ccatb.bus.transactions,
        run.ccatb.bus.latency_cycles.mean(),
        run.ccatb.bus.wait_cycles.mean(),
    );
    let pin = run.pin_accurate.as_ref().expect("pin level was requested");
    println!(
        "pin-accurate model: {} vs ccatb {} simulated ({}x slower), {} vs {} delta cycles",
        pin.output.sim_time,
        run.ccatb.output.sim_time,
        pin.output.sim_time.as_ps() / run.ccatb.output.sim_time.as_ps().max(1),
        pin.output.delta_cycles,
        run.ccatb.output.delta_cycles,
    );
    println!("all levels content-equivalent ✓");

    // 4. Per-channel blocking latency and the transaction-level trace.
    let trace = run.ccatb.output.txn.as_ref().expect("recorder was enabled");
    println!();
    println!("ccatb transaction trace: {trace}");
    for ((level, resource), s) in trace.stats() {
        println!(
            "  [{level}] {resource}: {} txns, latency {:.1}..{:.1} ns (mean {:.1})",
            s.count,
            s.latency_ns.min().unwrap_or(0.0),
            s.latency_ns.max().unwrap_or(0.0),
            s.latency_ns.mean(),
        );
    }
    if let Ok(path) = std::env::var("SHIPTLM_TRACE_OUT") {
        CausalTrace::from(trace)
            .write_chrome(&path)
            .expect("failed to write Chrome trace");
        println!("wrote Chrome trace to {path}");
    }
    Ok(())
}
