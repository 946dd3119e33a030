//! End-to-end causal tracing: one traced gateway job must yield a single
//! Chrome/Perfetto JSON in which client, gateway-stage, sweep, and kernel
//! txn spans share one trace id with correct parent/child nesting — and
//! the span-tree *shape* must not depend on how many threads ran the
//! sweep.

use std::collections::BTreeMap;

use shiptlm::explore::model::{GenConfig, ModelSpec};
use shiptlm::explore::prelude::*;
use shiptlm::kernel::causal::{SpanSink, TraceCtx};
use shiptlm_gateway::prelude::*;
use shiptlm_testkit::asserts::check_causal_trace;

fn the_archs() -> Vec<ArchSpec> {
    vec![
        ArchSpec::plb(),
        ArchSpec::opb().with_burst(16),
        ArchSpec::crossbar(),
    ]
}

fn request(id: u64, spec: &ModelSpec) -> JobRequest {
    JobRequest {
        id,
        spec: spec.clone(),
        archs: the_archs(),
        backend: BackendChoice::De,
        want_trace: false,
        trace: None,
        want_progress: true,
    }
}

#[test]
fn traced_gateway_job_yields_one_causal_chrome_trace() {
    let gateway = Gateway::start(GatewayConfig::default()).unwrap();
    let mut client = GatewayClient::connect(gateway.addr(), &BIN).unwrap();
    let spec = ModelSpec::random(11, &GenConfig::default());
    let req = request(1, &spec);

    let (outcome, trace) = client.run_job_traced(&req).unwrap();
    assert_eq!(outcome.status, JobStatus::Done { cached: false });

    // Live introspection: samples arrived while the job ran, their content
    // is a pure function of the completed-candidate set, and the final
    // sample accounts for the whole sweep.
    assert!(!outcome.progress.is_empty(), "progress samples must stream");
    let last = outcome.progress.last().unwrap();
    assert_eq!(last.total, the_archs().len() as u64);
    assert_eq!(last.done + last.pruned, last.total);

    // The merged export passes the causal checker: one trace id, unique
    // span ids, closed parenting, no cycles.
    assert_eq!(trace.trace_ids().len(), 1, "exactly one trace id");
    let shape = check_causal_trace(&trace.to_chrome_json()).unwrap();

    // Client-to-kernel causality, layer by layer.
    shape.assert_nested("gateway", "job");
    shape.assert_nested("admission", "gateway");
    shape.assert_nested("queue-wait", "gateway");
    shape.assert_nested("cache", "gateway");
    shape.assert_nested("exec", "gateway");
    shape.assert_nested("role-detect", "exec");
    shape.assert_nested("candidate", "exec");
    shape.assert_nested("txn", "candidate");
    if !shape.stage("chunk").is_empty() {
        shape.assert_nested("chunk", "exec");
    }
    assert_eq!(shape.stage("job").len(), 1, "one client root");
    assert_eq!(
        shape.stage("candidate").len(),
        the_archs().len(),
        "one candidate span per architecture"
    );
    assert!(
        !shape.stage("txn").is_empty(),
        "kernel txn spans must be stitched under candidates"
    );

    // The same job again: served from cache, the sweep spans replayed
    // under the requester's *new* trace id, hanging off the cache lookup.
    let (again, trace2) = client.run_job_traced(&req).unwrap();
    assert_eq!(again.status, JobStatus::Done { cached: true });
    assert_eq!(again.rows, outcome.rows, "cached rows are byte-identical");
    let shape2 = check_causal_trace(&trace2.to_chrome_json()).unwrap();
    assert_ne!(
        shape.trace_id, shape2.trace_id,
        "each request gets its own trace id"
    );
    shape2.assert_nested("candidate", "cache");
    assert!(
        shape2.stage("exec").is_empty(),
        "a cache hit has no exec span"
    );
    assert_eq!(
        shape.stage("txn").len(),
        shape2.stage("txn").len(),
        "the replay carries the original run's txn spans"
    );

    gateway.shutdown();
}

/// One span in canonical form: (stage, name, parent chain of
/// (stage, name) pairs up to the root).
type CanonSpan = (String, String, Vec<(String, String)>);

/// Canonical shape of the deterministic part of a sweep's span tree,
/// sorted. Chunk spans are excluded — chunk boundaries are scheduling,
/// not semantics — as are timestamps and ids.
fn span_tree_shape(threads: usize, spec: &ModelSpec) -> Vec<CanonSpan> {
    let sink = SpanSink::new();
    let ctx = TraceCtx {
        trace_id: 7,
        parent_span: 0,
    };
    let sweep = Sweep::new(spec.to_app())
        .archs(the_archs())
        .with_recorder(2048)
        .with_causal(ctx, sink.clone());
    if threads <= 1 {
        sweep.run().unwrap();
    } else {
        sweep.run_parallel(threads).unwrap();
    }
    let spans = sink.take();
    let by_id: BTreeMap<u64, (String, String, u64)> = spans
        .iter()
        .map(|s| (s.span_id, (s.stage.clone(), s.name.clone(), s.parent_id)))
        .collect();
    let mut shape: Vec<_> = spans
        .iter()
        .filter(|s| ["role-detect", "candidate", "txn"].contains(&s.stage.as_str()))
        .map(|s| {
            let mut chain = Vec::new();
            let mut cursor = s.parent_id;
            while cursor != 0 {
                let Some((stage, name, parent)) = by_id.get(&cursor) else {
                    break;
                };
                chain.push((stage.clone(), name.clone()));
                cursor = *parent;
            }
            (s.stage.clone(), s.name.clone(), chain)
        })
        .collect();
    shape.sort();
    shape
}

#[test]
fn span_tree_shape_is_identical_serial_vs_eight_threads() {
    let spec = ModelSpec::random(23, &GenConfig::default());
    let serial = span_tree_shape(1, &spec);
    assert!(!serial.is_empty(), "the traced sweep must produce spans");
    assert_eq!(
        serial,
        span_tree_shape(8, &spec),
        "span-tree shape must not depend on parallelism"
    );
}

/// CI hook: when `SHIPTLM_CAUSAL_FILE` points at a Chrome JSON written by
/// the `causal_trace` example, validate it with the same testkit parser
/// the unit suites use — the exporter must not be the only judge of its
/// own output.
#[test]
fn validates_artifact_from_env() {
    if let Ok(path) = std::env::var("SHIPTLM_CAUSAL_FILE") {
        let text = std::fs::read_to_string(&path).unwrap();
        let shape = check_causal_trace(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(shape.spans.len() >= 8, "{path} looks truncated");
        shape.assert_nested("gateway", "job");
        shape.assert_nested("exec", "gateway");
        shape.assert_nested("candidate", "exec");
        shape.assert_nested("txn", "candidate");
    }
}
