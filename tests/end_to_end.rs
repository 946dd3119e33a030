//! End-to-end integration across the whole stack: one application taken
//! through every artifact the flow produces — untimed model, exploration
//! sweep, CCATB mapping, pin-accurate prototype and HW/SW partitioning —
//! with functional results checked at each step.

use std::sync::{Arc, Mutex};

use shiptlm::prelude::*;

/// A small "sensor fusion" app: two sensor front-ends feed a fusion PE via
/// a relay, and the fusion core offloads a filter to an accelerator by RPC.
fn sensor_fusion(samples: u32) -> (AppSpec, Arc<Mutex<Vec<i64>>>) {
    let results = Arc::new(Mutex::new(Vec::new()));
    let mut app = AppSpec::new("sensor_fusion");
    for s in 0..2u32 {
        app.add_pe(&format!("sensor{s}"), move |h, ports| async move {
            for i in 0..samples {
                let reading = i64::from(i) * (s as i64 + 1) - 5;
                ports[0].send_async(&h, &reading).await.unwrap();
                h.wait_for(SimDur::us(1)).await;
            }
        });
    }
    {
        let results = Arc::clone(&results);
        app.add_pe("fusion", move |h, ports| {
            let results = Arc::clone(&results);
            async move {
                // Ports: [sensor0 in, sensor1 in, accel rpc].
                for _ in 0..samples {
                    let a: i64 = ports[0].recv_async(&h).await.unwrap();
                    let b: i64 = ports[1].recv_async(&h).await.unwrap();
                    let filtered: i64 = ports[2].request_async(&h, &(a + b)).await.unwrap();
                    results.lock().unwrap().push(filtered);
                }
            }
        });
    }
    app.add_pe("accel", move |h, ports| async move {
        for _ in 0..samples {
            let x: i64 = ports[0].recv_async(&h).await.unwrap();
            ports[0]
                .reply_async(&h, &(x.saturating_mul(3) / 2))
                .await
                .unwrap();
        }
    });
    app.connect("s0", "sensor0", "fusion");
    app.connect("s1", "sensor1", "fusion");
    app.connect("acc", "fusion", "accel");
    (app, results)
}

fn expected(samples: u32) -> Vec<i64> {
    (0..samples)
        .map(|i| {
            let a = i64::from(i) - 5;
            let b = i64::from(i) * 2 - 5;
            (a + b).saturating_mul(3) / 2
        })
        .collect()
}

#[test]
fn sensor_fusion_through_the_whole_flow() {
    let samples = 12;

    // Component assembly: roles detected, results correct.
    let (app, results) = sensor_fusion(samples);
    let ca = run_component_assembly(&app).unwrap();
    assert_eq!(*results.lock().unwrap(), expected(samples));
    assert_eq!(ca.roles.master_of["s0"], "sensor0");
    assert_eq!(ca.roles.master_of["s1"], "sensor1");
    assert_eq!(ca.roles.master_of["acc"], "fusion");

    // CCATB mapping on three architectures; results correct each time.
    for arch in [ArchSpec::plb(), ArchSpec::opb(), ArchSpec::crossbar()] {
        let (app, results) = sensor_fusion(samples);
        let mapped = run_mapped(&app, &ca.roles, &arch).unwrap();
        assert_eq!(
            *results.lock().unwrap(),
            expected(samples),
            "{}",
            arch.label()
        );
        ca.output
            .log
            .content_equivalent(&mapped.output.log)
            .unwrap();
    }

    // Pin-accurate prototype.
    let (app, results) = sensor_fusion(samples);
    let pin = run_pin_accurate(&app, &ca.roles, &ArchSpec::plb()).unwrap();
    assert_eq!(*results.lock().unwrap(), expected(samples));
    ca.output.log.content_equivalent(&pin.output.log).unwrap();

    // HW/SW partition: fusion becomes embedded software.
    let (app, results) = sensor_fusion(samples);
    let sw = run_partitioned(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["fusion"]),
    )
    .unwrap();
    assert_eq!(*results.lock().unwrap(), expected(samples));
    ca.output
        .log
        .content_equivalent(&sw.mapped.output.log)
        .unwrap();
    assert!(sw.rtos.ctx_switches > 0);
}

#[test]
fn sweep_over_sensor_fusion_is_consistent() {
    let (app, _) = sensor_fusion(8);
    let report = Sweep::new(app)
        .with_untimed_baseline()
        .arch(ArchSpec::plb())
        .arch(ArchSpec::opb())
        .arch(ArchSpec::crossbar())
        .run()
        .unwrap();
    // Same delivered messages everywhere; slower bus, more time.
    let msgs: Vec<u64> = report.rows().iter().map(|r| r.messages).collect();
    assert!(msgs.windows(2).all(|w| w[0] == w[1]));
    let t = |label: &str| {
        report
            .rows()
            .iter()
            .find(|r| r.label.starts_with(label))
            .unwrap()
            .sim_time
    };
    assert!(t("opb") > t("plb"));
}

#[test]
fn deterministic_repeat_runs() {
    // The whole stack must be deterministic: two identical runs produce
    // byte-identical logs and identical end times.
    let run = || {
        let (app, _) = sensor_fusion(6);
        let ca = run_component_assembly(&app).unwrap();
        let mapped = run_mapped(&app, &ca.roles, &ArchSpec::plb()).unwrap();
        (
            mapped.output.sim_time,
            mapped.output.log.to_vec(),
            mapped.bus.transactions,
        )
    };
    let (t1, l1, n1) = run();
    let (t2, l2, n2) = run();
    assert_eq!(t1, t2);
    assert_eq!(n1, n2);
    assert_eq!(l1, l2);
}

#[test]
fn vcd_trace_of_a_pin_accurate_run() {
    // Pin-level runs can be waveform-traced; the VCD must contain the OCP
    // signal group with real transitions.
    let dir = std::env::temp_dir().join("shiptlm_e2e_vcd");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ocp.vcd");

    let sim = Simulation::new();
    let h = sim.handle();
    sim.trace_vcd(&path).unwrap();
    let clk = sim.clock("clk", SimDur::ns(10));
    let pins = OcpPins::new(&h, "ocp");
    pins.trace("ocp");
    clk.signal().trace("clk");
    let mem = std::sync::Arc::new(Memory::new("ram", 1024));
    let master = PinOcpMaster::new(&h, "m", pins.clone(), &clk);
    PinOcpSlave::spawn(&h, "s", pins, &clk, mem, 0, MasterId(0));
    let port = OcpMasterPort::bind(MasterId(0), master);
    sim.spawn_thread("pe", move |ctx| {
        port.write(ctx, 0, vec![0xAB; 16]).unwrap();
        let _ = port.read(ctx, 0, 16).unwrap();
        ctx.stop();
    });
    sim.run();
    sim.flush_trace().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("$var wire 8 ! ocp.MCmd"));
    assert!(text.contains("ocp.SCmdAccept"));
    // At least a few value-change timestamps.
    assert!(text.matches('#').count() > 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn design_flow_on_a_worker_pool_matches_the_serial_flow() {
    // `DesignFlow::run_on` overlaps the CCATB and pin-accurate levels on the
    // shared worker pool; the runs themselves must be indistinguishable from
    // the serial `run()` path.
    let app = workload::pipeline(3, 8, 128, SimDur::ZERO);
    let flow = DesignFlow::new(app, ArchSpec::plb()).with_pin_level();
    let serial = flow.run().unwrap();
    let pooled = flow.run_on(WorkerPool::global()).unwrap();
    assert_eq!(
        serial.report().to_string(),
        pooled.report().to_string(),
        "pooled flow report diverges from serial"
    );
    assert_eq!(serial.ccatb.output.sim_time, pooled.ccatb.output.sim_time);
    assert_eq!(
        serial.pin_accurate.as_ref().unwrap().output.sim_time,
        pooled.pin_accurate.as_ref().unwrap().output.sim_time
    );
}
