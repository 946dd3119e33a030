//! End-to-end checks of the transaction-level trace recorder: a quickstart
//! topology run with recording on must export well-formed Chrome
//! `trace_event` JSON (through the one causal exporter, [`CausalTrace`])
//! covering every instrumented layer, event times must be consistent, and
//! parallel sweeps must trace identically to serial ones.
//!
//! JSON parsing lives in [`shiptlm::kernel::json`] and the trace shape
//! assertions in [`shiptlm_testkit::asserts`], shared with the conformance
//! suites.

use shiptlm::prelude::*;
use shiptlm_testkit::prelude::{
    assert_chrome_export, assert_jsonl_export, assert_spans_consistent, check_causal_trace,
    CausalShape,
};

/// The abstraction levels present in an export, read from the `ship:` /
/// `bus:` / `ocp:` / `driver:` prefix of its `txn` span names.
fn levels_of(shape: &CausalShape) -> Vec<&str> {
    let mut levels: Vec<&str> = shape
        .stage("txn")
        .iter()
        .filter_map(|s| s.name.split_once(':').map(|(level, _)| level))
        .collect();
    levels.sort_unstable();
    levels.dedup();
    levels
}

// ---------------------------------------------------------------------------
// The quickstart producer/consumer topology.
// ---------------------------------------------------------------------------

fn quickstart_app(messages: u32) -> AppSpec {
    let mut app = AppSpec::new("quickstart");
    app.add_pe("producer", move |h, ports| async move {
        for i in 0..messages {
            let payload: Vec<u8> = (0..64).map(|b| (b as u32 ^ i) as u8).collect();
            ports[0].send_async(&h, &(i, payload)).await.unwrap();
        }
    });
    app.add_pe("consumer", move |h, ports| async move {
        for i in 0..messages {
            let (n, payload): (u32, Vec<u8>) = ports[0].recv_async(&h).await.unwrap();
            assert_eq!(n, i);
            assert_eq!(payload.len(), 64);
        }
    });
    app.connect("stream", "producer", "consumer");
    app
}

#[test]
fn recorder_covers_ship_bus_and_ocp_layers() {
    let run = DesignFlow::new(quickstart_app(16), ArchSpec::plb())
        .with_pin_level()
        .with_recorder(65_536)
        .run()
        .unwrap();

    let trace = run.ccatb.output.txn.as_ref().expect("recorder enabled");
    assert!(!trace.is_empty());
    assert_eq!(trace.dropped(), 0);
    let levels: Vec<&str> = trace
        .stats()
        .keys()
        .map(|(level, _)| level.as_str())
        .collect();
    assert!(levels.contains(&"ship"), "ship layer missing: {levels:?}");
    assert!(levels.contains(&"bus"), "bus layer missing: {levels:?}");
    assert!(levels.contains(&"ocp"), "ocp layer missing: {levels:?}");

    // The untimed reference records SHIP calls only; the pin-accurate run
    // crosses all three layers too.
    let ca = run.component_assembly.output.txn.as_ref().unwrap();
    assert!(ca.resource_stats(TxnLevel::Ship, "stream").is_some());
    // The pin level initiates through pin accessors, so its OCP resource is
    // the accessor, not the bus — any OCP-level stream will do.
    let pin = run
        .pin_accurate
        .as_ref()
        .unwrap()
        .output
        .txn
        .as_ref()
        .unwrap();
    assert!(pin.stats().keys().any(|(level, _)| *level == TxnLevel::Ocp));

    // Per-channel aggregates line up with the event stream.
    let ship = trace.resource_stats(TxnLevel::Ship, "stream").unwrap();
    assert_eq!(ship.count, 32); // 16 sends + 16 recvs
    assert_eq!(ship.errors, 0);
    assert!(ship.latency_ns.min().unwrap() > 0.0);
}

#[test]
fn trace_events_nest_and_are_monotone_per_process() {
    let run = DesignFlow::new(quickstart_app(16), ArchSpec::plb())
        .with_recorder(65_536)
        .run()
        .unwrap();
    assert_spans_consistent(run.ccatb.output.txn.as_ref().unwrap());
}

#[test]
fn chrome_export_is_valid_json_with_expected_shape() {
    let run = DesignFlow::new(quickstart_app(8), ArchSpec::plb())
        .with_recorder(65_536)
        .run()
        .unwrap();
    let trace = run.ccatb.output.txn.as_ref().unwrap();

    let shape = assert_chrome_export(trace);
    assert!(levels_of(&shape).contains(&"ship"));
    // One lane (tid) per PE: producer + consumer.
    let json = CausalTrace::from(trace).to_chrome_json();
    assert_eq!(json.matches("\"name\":\"thread_name\"").count(), 2);

    // The JSONL export carries the same number of events, one per line,
    // each a valid JSON object with the documented fields.
    assert_jsonl_export(trace);
}

#[test]
fn partitioned_run_records_driver_level_events() {
    let app = quickstart_app(8);
    let ca = run_component_assembly(&app).unwrap();
    let sw = run_partitioned_with(
        &app,
        &ca.roles,
        &ArchSpec::plb(),
        &Partition::software(["producer"]),
        &RunOptions::with_recorder(65_536),
    )
    .unwrap();

    let trace = sw.mapped.output.txn.as_ref().expect("recorder enabled");
    let levels: Vec<&str> = trace
        .stats()
        .keys()
        .map(|(level, _)| level.as_str())
        .collect();
    assert!(
        levels.contains(&"driver"),
        "SW driver layer missing: {levels:?}"
    );
    let drv_ops: Vec<&str> = trace
        .events()
        .iter()
        .filter(|e| e.level == TxnLevel::Driver)
        .map(|e| e.op)
        .collect();
    assert!(
        drv_ops.contains(&"drv.send"),
        "no doorbell sends: {drv_ops:?}"
    );
}

#[test]
fn parallel_sweep_traces_are_identical_to_serial() {
    let archs = [ArchSpec::plb(), ArchSpec::opb(), ArchSpec::crossbar()];
    let run = |threads: usize| {
        Sweep::new(quickstart_app(8))
            .archs(archs.clone())
            .with_recorder(65_536)
            .run_parallel(threads)
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(2);
    assert_eq!(serial.rows().len(), parallel.rows().len());
    for (s, p) in serial.rows().iter().zip(parallel.rows()) {
        assert_eq!(s.label, p.label);
        let (st, pt) = (s.txn.as_ref().unwrap(), p.txn.as_ref().unwrap());
        let serial_json = CausalTrace::from(st).to_chrome_json();
        check_causal_trace(&serial_json).expect("serial trace must be valid");
        assert_eq!(
            serial_json,
            CausalTrace::from(pt).to_chrome_json(),
            "trace of {} differs between serial and 2-thread sweep",
            s.label
        );
        assert_eq!(st.to_jsonl(), pt.to_jsonl());
    }
    // Sweep rows expose per-channel latency regardless of the recorder.
    for row in serial.rows() {
        let lat = &row.channel_latency["stream"];
        assert!(lat.count() > 0);
        assert!(lat.min().unwrap() <= lat.max().unwrap());
    }
    let csv = serial.channel_latency_csv();
    assert!(csv.starts_with("config,channel,calls,min_ns,mean_ns,max_ns\n"));
    assert!(csv.contains("stream"));
}

/// CI hook: when `SHIPTLM_TRACE_FILE` points at the Chrome JSON written by
/// the `quickstart` example, validate it with the same testkit parser the
/// unit suites use: it must cover the ship, bus and OCP levels.
#[test]
fn validates_quickstart_artifact_from_env() {
    if let Ok(path) = std::env::var("SHIPTLM_TRACE_FILE") {
        let text = std::fs::read_to_string(&path).unwrap();
        let shape = check_causal_trace(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let levels = levels_of(&shape);
        for level in ["ship", "bus", "ocp"] {
            assert!(
                levels.contains(&level),
                "{path}: {level} missing from {levels:?}"
            );
        }
    }
}
