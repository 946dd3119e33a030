//! End-to-end causal tracing walkthrough: start a gateway, submit one
//! traced sweep job with live progress, and export the merged
//! client → gateway → sweep → kernel span tree as Chrome/Perfetto JSON.
//!
//! The export lands at `$SHIPTLM_CAUSAL_OUT` (default
//! `causal_trace.json`); open it in <https://ui.perfetto.dev> or
//! `chrome://tracing`. Track 0 is the host wall clock; each candidate
//! architecture gets its own simulated-time track with the kernel's
//! transaction spans stitched underneath its `candidate` span.

use shiptlm::explore::model::{GenConfig, ModelSpec};
use shiptlm::explore::prelude::*;
use shiptlm_gateway::prelude::*;

fn main() {
    let out =
        std::env::var("SHIPTLM_CAUSAL_OUT").unwrap_or_else(|_| "causal_trace.json".to_string());

    // A gateway as a client would see it: admission queue, executor
    // threads, content-addressed cache — all of which show up as spans.
    let gateway = Gateway::start(GatewayConfig::default()).expect("gateway start");
    let mut client = GatewayClient::connect(gateway.addr(), &BIN).expect("connect");

    // Live sweep introspection: progress frames stream at worker chunk
    // boundaries while the job runs.
    client.set_progress_handler(|p| {
        println!(
            "progress: {}/{} candidates done, {} pruned, ~{} simulated ps remaining",
            p.done, p.total, p.pruned, p.eta_hint_ps
        );
    });

    let req = JobRequest {
        id: 1,
        spec: ModelSpec::random(4242, &GenConfig::default()),
        archs: vec![
            ArchSpec::plb(),
            ArchSpec::opb().with_burst(16),
            ArchSpec::crossbar(),
        ],
        backend: BackendChoice::De,
        want_trace: false,
        trace: None,
        want_progress: true,
    };

    // `run_job_traced` mints the trace context, roots a client-side `job`
    // span, and merges every span the server streams back.
    let (outcome, trace) = client.run_job_traced(&req).expect("traced job");
    assert!(outcome.is_done(), "job ended {:?}", outcome.status);

    println!("{trace}");
    trace.write_chrome(&out).expect("write chrome json");
    println!(
        "wrote {} spans (trace ids {:?}) to {out}",
        trace.spans.len(),
        trace.trace_ids()
    );

    // Run the identical job again: the result cache answers, and the
    // replayed sweep spans appear under this request's own trace id.
    let (cached, replay) = client.run_job_traced(&req).expect("cached job");
    assert_eq!(cached.status, JobStatus::Done { cached: true });
    println!(
        "cache replay: {} spans under a fresh trace id {:?}",
        replay.spans.len(),
        replay.trace_ids()
    );

    gateway.shutdown();
    println!("causal trace OK");
}
