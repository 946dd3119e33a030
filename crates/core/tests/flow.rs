//! The full design flow: three abstraction levels, equivalence checking and
//! the expected timing/effort ordering (paper Figure 1 and §1's simulation
//! speed claim).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use shiptlm::prelude::*;

#[test]
fn full_flow_pipeline_all_three_levels() {
    let app = workload::pipeline(4, 8, 128, SimDur::ns(100));
    let run = DesignFlow::new(app, ArchSpec::plb())
        .with_pin_level()
        .run()
        .unwrap();

    // Level 1: only the PEs' own compute time passes (communication is
    // untimed), so it is the fastest level.
    assert!(!run.component_assembly.output.log.is_empty());

    // Level 2: CCATB — real bus cycles on top of compute time.
    let ccatb = &run.ccatb;
    assert!(ccatb.output.sim_time > run.component_assembly.output.sim_time);
    assert!(ccatb.bus.transactions > 0);

    // Level 3: pin-accurate — strictly slower in simulated time (per-beat
    // pin handshakes) and strictly more scheduler work.
    let pin = run.pin_accurate.as_ref().unwrap();
    assert!(
        pin.output.sim_time > ccatb.output.sim_time,
        "pin {} !> ccatb {}",
        pin.output.sim_time,
        ccatb.output.sim_time
    );
    assert!(
        pin.output.delta_cycles > ccatb.output.delta_cycles,
        "pin model must cost more delta cycles"
    );
    assert!(
        ccatb.output.delta_cycles > run.component_assembly.output.delta_cycles,
        "ccatb must cost more delta cycles than untimed"
    );

    // Report carries one row per level.
    let report = run.report();
    assert_eq!(report.rows().len(), 3);
    assert_eq!(report.rows()[0].label, "component-assembly");
    // Same delivered content everywhere.
    let msgs: Vec<u64> = report.rows().iter().map(|r| r.messages).collect();
    assert_eq!(msgs[0], msgs[1]);
    assert_eq!(msgs[1], msgs[2]);
}

#[test]
fn flow_on_rpc_app_with_crossbar() {
    let app = workload::rpc(2, 4, 64, SimDur::ns(200));
    let run = DesignFlow::new(app, ArchSpec::crossbar()).run().unwrap();
    assert_eq!(run.component_assembly.roles.master_of.len(), 2);
    assert!(run.ccatb.bus.transactions > 0);
}

#[test]
fn equivalence_violation_is_reported() {
    // A pathological app whose producer emits different content on every
    // elaboration (simulating a refinement bug): the flow must flag it.
    let counter = Arc::new(AtomicU32::new(0));
    let mut app = AppSpec::new("buggy");
    {
        let counter = Arc::clone(&counter);
        app.add_pe("p", move || {
            let run_idx = counter.fetch_add(1, Ordering::SeqCst);
            Box::new(move |ctx, ports| {
                ports[0].send(ctx, &run_idx).unwrap();
            })
        });
    }
    app.add_pe("c", || {
        Box::new(|ctx, ports| {
            let _: u32 = ports[0].recv(ctx).unwrap();
        })
    });
    app.connect("ch", "p", "c");
    let err = DesignFlow::new(app, ArchSpec::plb()).run().unwrap_err();
    match err {
        FlowError::Equivalence { level, .. } => assert_eq!(level, Level::Ccatb),
        other => panic!("expected equivalence error, got {other}"),
    }
}

#[test]
fn mapping_failure_propagates() {
    let mut app = AppSpec::new("dead");
    app.add_pe("a", || Box::new(|_ctx, _ports| {}));
    app.add_pe("b", || Box::new(|_ctx, _ports| {}));
    app.connect("never", "a", "b");
    assert!(matches!(
        DesignFlow::new(app, ArchSpec::plb()).run(),
        Err(FlowError::Map(_))
    ));
}

#[test]
fn faster_arch_finishes_sooner_through_the_flow() {
    let run_with = |arch: ArchSpec| {
        let app = workload::pipeline(3, 16, 256, SimDur::ZERO);
        DesignFlow::new(app, arch)
            .run()
            .unwrap()
            .ccatb
            .output
            .sim_time
    };
    let plb = run_with(ArchSpec::plb());
    let opb = run_with(ArchSpec::opb());
    assert!(plb < opb, "plb {plb} must beat opb {opb}");
}

#[test]
fn pin_level_equivalence_on_rpc() {
    let app = workload::rpc(1, 3, 48, SimDur::ZERO);
    let run = DesignFlow::new(app, ArchSpec::plb())
        .with_pin_level()
        .run()
        .unwrap();
    assert!(run.pin_accurate.is_some());
}

#[test]
fn pin_level_rejects_a_clock_below_the_toggle_resolution() {
    // A 1 ps bus clock passes `ArchSpec::check` and runs at CCATB, but a
    // pin-level clock cannot toggle faster than one phase per picosecond:
    // both pin-level entry points report the architecture, never panic.
    let app = workload::pipeline(3, 2, 16, SimDur::ZERO);
    let arch = ArchSpec::plb().with_clock(SimDur::ps(1));
    let roles = run_component_assembly(&app).unwrap().roles;
    assert!(run_mapped(&app, &roles, &arch).is_ok());
    assert!(matches!(
        run_pin_accurate(&app, &roles, &arch),
        Err(MapError::Arch { .. })
    ));
    assert!(matches!(
        DesignFlow::new(app, arch).with_pin_level().run(),
        Err(FlowError::Map(MapError::Arch { .. }))
    ));
}
