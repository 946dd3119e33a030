//! End-to-end gateway smoke: start a gateway, drive it with both codecs,
//! verify cache hits and the `/metrics` endpoint, shut down cleanly.
//!
//! Run with `cargo run -p shiptlm-gateway --example gateway_smoke`.
//! Exits non-zero (panics) on any failed check; CI treats the printed
//! `gateway smoke OK` as the pass marker.

use std::time::Instant;

use shiptlm_explore::model::{GenConfig, ModelSpec};
use shiptlm_explore::prelude::ArchSpec;
use shiptlm_gateway::prelude::*;
use shiptlm_testkit::prom::PromText;

fn main() {
    let gateway = Gateway::start(GatewayConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        queue_capacity: 8,
        executors: 2,
        threads_per_job: 2,
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    println!(
        "gateway on {}, metrics on {:?}",
        gateway.addr(),
        gateway.metrics_addr()
    );

    let spec = ModelSpec::random(2026, &GenConfig::default());
    let archs = vec![
        ArchSpec::plb(),
        ArchSpec::opb().with_burst(16),
        ArchSpec::crossbar(),
    ];
    let request = |id| JobRequest {
        id,
        spec: spec.clone(),
        archs: archs.clone(),
        backend: BackendChoice::De,
        want_trace: true,
        trace: None,
        want_progress: false,
    };

    // Same job over both codecs: the binary client computes it, the JSON
    // client must hit the cache and see identical rows.
    let mut bin_client = GatewayClient::connect(gateway.addr(), &BIN).expect("bin connect");
    let mut json_client = GatewayClient::connect(gateway.addr(), &JSON).expect("json connect");

    let t0 = Instant::now();
    let first = bin_client.run_job(&request(1)).expect("bin job");
    assert!(first.is_done(), "first job must complete: {:?}", first.status);
    assert_eq!(first.rows.len(), archs.len());
    assert!(!first.trace.is_empty(), "trace was requested");
    println!(
        "first run: {} rows in {:.1} ms",
        first.rows.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    let second = json_client.run_job(&request(2)).expect("json job");
    assert_eq!(
        second.status,
        JobStatus::Done { cached: true },
        "identical job must be a cache hit"
    );
    assert_eq!(second.rows, first.rows, "rows must match across codecs");
    assert_eq!(second.trace, first.trace);

    // Throughput probe: distinct tiny jobs, then the same batch again as
    // pure cache hits.
    let t1 = Instant::now();
    let batch = 10u64;
    for i in 0..batch {
        let req = JobRequest {
            id: 100 + i,
            spec: ModelSpec::random(3000 + i, &GenConfig::default()),
            archs: vec![ArchSpec::plb(), ArchSpec::crossbar()],
            backend: BackendChoice::De,
            want_trace: false,
            trace: None,
            want_progress: false,
        };
        let out = bin_client.run_job_with_retry(&req, 20).expect("batch job");
        assert!(out.is_done(), "batch job {i} failed: {:?}", out.status);
    }
    let cold = t1.elapsed();
    let t2 = Instant::now();
    for i in 0..batch {
        let req = JobRequest {
            id: 200 + i,
            spec: ModelSpec::random(3000 + i, &GenConfig::default()),
            archs: vec![ArchSpec::plb(), ArchSpec::crossbar()],
            backend: BackendChoice::De,
            want_trace: false,
            trace: None,
            want_progress: false,
        };
        let out = bin_client.run_job_with_retry(&req, 20).expect("cached job");
        assert_eq!(out.status, JobStatus::Done { cached: true });
    }
    let warm = t2.elapsed();
    println!(
        "throughput: {:.1} jobs/s cold, {:.1} jobs/s cached",
        batch as f64 / cold.as_secs_f64(),
        batch as f64 / warm.as_secs_f64()
    );

    // The exporter must produce parseable text 0.0.4 with the counts we
    // just generated.
    let body = http_get(gateway.metrics_addr().unwrap(), "/metrics").expect("scrape");
    let parsed = PromText::parse(&body).expect("prometheus parse");
    let hits = parsed
        .samples
        .iter()
        .find(|s| s.name == "shiptlm_gateway_cache_hits_total")
        .expect("cache hit counter");
    assert!(hits.value >= 11.0, "expected ≥11 cache hits, saw {}", hits.value);

    gateway.shutdown();
    println!("gateway smoke OK");
}
