//! Concurrent-client soak of the simulation-as-a-service gateway.
//!
//! N clients × M jobs over both codecs against one gateway: results must
//! be byte-identical to in-process sweeps, the content-addressed cache
//! must collapse duplicate work exactly, admission control must shed load
//! with a retry hint, corrupted frames and job values that would wedge or
//! crash an executor must come back classified (not as a dead server or a
//! lost executor), and a drain-based shutdown must finish every job it
//! accepted.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use shiptlm::cam::arb::ArbPolicy;
use shiptlm::explore::model::{GenConfig, ModelSpec, Motif};
use shiptlm::explore::prelude::*;
use shiptlm::kernel::time::SimDur;
use shiptlm_gateway::prelude::*;
use shiptlm_gateway::proto::{read_handshake, write_handshake};
use shiptlm_testkit::prom::PromText;

const CLIENTS: usize = 4;
const ROUNDS: usize = 6;

fn unique_specs() -> Vec<ModelSpec> {
    let mut specs = vec![
        ModelSpec::random(101, &GenConfig::default()),
        ModelSpec::random(202, &GenConfig::default()),
        ModelSpec::random(303, &GenConfig::default()),
    ];
    // One hostile model name: it travels the wire, lands in the
    // Prometheus `model` label, and must round-trip through escaping.
    specs[2].name = "soak\"quoted\\name}\nwith newline".into();
    specs
}

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
        want_trace: true,
        trace: None,
        want_progress: false,
    }
}

/// The ground truth: the same sweep run in-process, no gateway involved.
fn direct_rows(spec: &ModelSpec) -> (Vec<ReportRow>, Vec<u8>) {
    let report = Sweep::new(spec.to_app())
        .archs(the_archs())
        .with_options(RunOptions::default())
        .run()
        .unwrap();
    let rows = report.rows().iter().map(ReportRow::from_metrics).collect();
    (rows, report.channel_latency_csv().into_bytes())
}

#[test]
fn soak_n_clients_m_jobs_with_exact_cache_accounting() {
    let gateway = Gateway::start(GatewayConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        queue_capacity: 32,
        executors: 2,
        threads_per_job: 2,
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gateway.addr();

    let specs = unique_specs();
    let expected: Vec<(Vec<ReportRow>, Vec<u8>)> = specs.iter().map(direct_rows).collect();

    // client i speaks BIN when even, JSON when odd; every client runs
    // every unique job ROUNDS/len times.
    let outcomes: Vec<Vec<(usize, JobOutcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let specs = &specs;
                s.spawn(move || {
                    let codec: &'static dyn WireCodec =
                        if c % 2 == 0 { &BIN } else { &JSON };
                    let mut client = GatewayClient::connect(addr, codec).unwrap();
                    (0..ROUNDS)
                        .map(|round| {
                            let which = round % specs.len();
                            let id = (c * ROUNDS + round) as u64 + 1;
                            let outcome = client
                                .run_job_with_retry(&request(id, &specs[which]), 50)
                                .unwrap();
                            (which, outcome)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every job completed with rows and trace byte-identical to the
    // in-process sweep.
    let mut fresh = 0;
    for (c, client_outcomes) in outcomes.iter().enumerate() {
        for (which, outcome) in client_outcomes {
            match outcome.status {
                JobStatus::Done { cached } => {
                    if !cached {
                        fresh += 1;
                    }
                }
                ref other => panic!("client {c} job on spec {which} ended {other:?}"),
            }
            assert_eq!(outcome.rows, expected[*which].0, "rows diverge (client {c})");
            assert_eq!(
                outcome.trace, expected[*which].1,
                "trace diverges (client {c})"
            );
        }
    }
    // Single-flight content addressing: each unique job computed once,
    // every other completion served from cache.
    let total = CLIENTS * ROUNDS;
    assert_eq!(fresh, specs.len(), "exactly one fresh run per unique job");
    let metrics = gateway.metrics();
    assert_eq!(metrics.cache_misses(), specs.len() as u64);
    assert_eq!(metrics.cache_hits(), (total - specs.len()) as u64);
    assert_eq!(gateway.cache_len(), specs.len());

    // Row payloads are byte-identical on the wire across every client:
    // a BIN `Row` frame is tag(1) + id(8) + canonical row encoding, and
    // everything past the echoed correlation id must match the canonical
    // encoding of the in-process sweep's rows exactly.
    for c in (0..CLIENTS).step_by(2) {
        for (which, outcome) in &outcomes[c] {
            let expected_bytes: Vec<Vec<u8>> = expected[*which]
                .0
                .iter()
                .map(shiptlm::ship::prelude::to_wire)
                .collect();
            let streamed: Vec<&[u8]> =
                outcome.raw_rows.iter().map(|f| &f[9..]).collect();
            assert_eq!(
                streamed, expected_bytes,
                "wire row bytes diverge from the direct sweep (client {c})"
            );
        }
    }

    // The /metrics endpoint parses as text 0.0.4 and carries the counts
    // above — including the hostile model name, escaped.
    let body = http_get(gateway.metrics_addr().unwrap(), "/metrics").unwrap();
    let parsed = PromText::parse(&body).unwrap();
    let hits = parsed
        .samples
        .iter()
        .find(|s| s.name == "shiptlm_gateway_cache_hits_total")
        .unwrap();
    assert_eq!(hits.value, (total - specs.len()) as f64);
    let nasty = parsed
        .sample("shiptlm_gateway_jobs_total", "model", &specs[2].name)
        .expect("hostile model name must round-trip through label escaping");
    assert_eq!(nasty.value, (total / specs.len()) as f64);
    let depth = parsed
        .samples
        .iter()
        .find(|s| s.name == "shiptlm_gateway_queue_depth")
        .unwrap();
    assert_eq!(depth.value, 0.0, "queue must be drained");

    gateway.shutdown();
}

#[test]
fn full_queue_rejects_with_retry_hint() {
    // capacity 0: the queue is always full, so admission is deterministic.
    let gateway = Gateway::start(GatewayConfig {
        queue_capacity: 0,
        retry_after_ms: 123,
        ..GatewayConfig::default()
    })
    .unwrap();
    let mut client = GatewayClient::connect(gateway.addr(), &BIN).unwrap();
    let req = request(1, &unique_specs()[0]);
    let outcome = client.run_job(&req).unwrap();
    assert_eq!(
        outcome.status,
        JobStatus::Rejected {
            retry_after_ms: 123
        }
    );
    assert!(outcome.rows.is_empty());
    // Bounded retry gives up with a protocol error, not a hang.
    let err = client.run_job_with_retry(&req, 3).unwrap_err();
    assert!(matches!(err, GatewayError::Protocol(_)), "got {err}");
    assert_eq!(gateway.metrics().rejections(), 4);
    gateway.shutdown();
}

#[test]
fn corrupted_frames_are_classified_and_the_connection_survives_decode_errors() {
    let gateway = Gateway::start(GatewayConfig::default()).unwrap();
    let mut client = GatewayClient::connect(gateway.addr(), &BIN).unwrap();

    // A well-framed but garbage body: classified as a decode failure on
    // THIS connection, which stays usable for a real job afterwards.
    {
        // Reach under the client: handshake by hand, then send a
        // well-framed garbage body.
        let mut raw = TcpStream::connect(gateway.addr()).unwrap();
        raw.write_all(b"SHTG\x01\x00").unwrap();
        let mut echoed = [0u8; 6];
        std::io::Read::read_exact(&mut raw, &mut echoed).unwrap();
        let garbage = b"\xde\xad\xbe\xef";
        raw.write_all(&(garbage.len() as u64).to_le_bytes()).unwrap();
        raw.write_all(garbage).unwrap();
        let reply = read_reply(&mut raw, &BIN);
        assert!(
            matches!(reply, Reply::Error { id: 0, .. }),
            "garbage must classify as Error{{id:0}}, got {reply:?}"
        );

        // An oversized length prefix is a frame-layer violation: the
        // server answers once and drops the connection.
        raw.write_all(&u64::MAX.to_le_bytes()).unwrap();
        let reply = read_reply(&mut raw, &BIN);
        assert!(matches!(reply, Reply::Error { id: 0, .. }), "got {reply:?}");
    }

    // The gateway as a whole is unaffected: a clean client still works.
    let outcome = client.run_job(&request(9, &unique_specs()[0])).unwrap();
    assert!(outcome.is_done());
    gateway.shutdown();
}

/// Reads one reply frame from a raw stream.
fn read_reply(stream: &mut TcpStream, codec: &dyn WireCodec) -> Reply {
    let frame = read_frame(stream, 1 << 20).unwrap().expect("reply frame");
    codec.decode_reply(&frame).unwrap()
}

/// Jobs whose values would wedge or crash an executor: a pipeline without
/// a middle stage, payloads above the mailbox windows (64 KiB messages,
/// 32 KiB RPC replies), a zero mailbox depth, burst, clock or TDMA slot.
fn hostile_jobs() -> Vec<(&'static str, JobRequest)> {
    let base = request(0, &unique_specs()[0]);
    let with_motif = |what, motif| {
        let mut req = base.clone();
        req.spec.motifs = vec![motif];
        (what, req)
    };
    let with_arch = |what, arch| {
        let mut req = base.clone();
        req.archs.push(arch);
        (what, req)
    };
    let pipeline = |stages| Motif::Pipeline {
        stages,
        blocks: 1,
        bytes: 8,
        compute_ns: 0,
    };
    let tdma = |slot, slots| ArchSpec::plb().with_arb(ArbPolicy::Tdma { slot, slots });
    vec![
        with_motif("1-stage pipeline", pipeline(1)),
        with_motif("0-stage pipeline", pipeline(0)),
        with_motif(
            "70 000-byte stream message",
            Motif::Stream {
                sizes: vec![70_000],
            },
        ),
        with_motif(
            "40 000-byte RPC",
            Motif::Rpc {
                requests: 1,
                bytes: 40_000,
                compute_ns: 0,
            },
        ),
        with_arch("zero mailbox depth", ArchSpec::plb().with_rx_capacity(0)),
        with_arch("zero burst", ArchSpec::opb().with_burst(0)),
        with_arch("zero bus clock", ArchSpec::ahb().with_clock(SimDur::ZERO)),
        with_arch(
            "zero crossbar clock",
            ArchSpec::crossbar().with_clock(SimDur::ZERO),
        ),
        with_arch(
            "zero NoC clock",
            ArchSpec::noc(2, 2).with_clock(SimDur::ZERO),
        ),
        with_arch("zero TDMA slot", tdma(SimDur::ZERO, 2)),
        with_arch("zero TDMA slot count", tdma(SimDur::ns(100), 0)),
    ]
}

#[test]
fn hostile_job_values_are_decode_errors_and_never_reach_an_executor() {
    let gateway = Gateway::start(GatewayConfig::default()).unwrap();
    for codec in [&BIN as &dyn WireCodec, &JSON] {
        let mut raw = TcpStream::connect(gateway.addr()).unwrap();
        // A wedged executor shows up as a read timeout, not a hung test.
        raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        write_handshake(&mut raw, codec.tag()).unwrap();
        read_handshake(&mut raw).unwrap();
        for (what, req) in hostile_jobs() {
            write_frame(&mut raw, &codec.encode_request(&req).unwrap()).unwrap();
            let reply = read_reply(&mut raw, codec);
            assert!(
                matches!(reply, Reply::Error { id: 0, .. }),
                "{} {what}: expected a decode error, got {reply:?}",
                codec.name()
            );
        }
        // The same connection still runs a valid job to completion.
        let req = request(77, &unique_specs()[1]);
        write_frame(&mut raw, &codec.encode_request(&req).unwrap()).unwrap();
        assert_eq!(read_reply(&mut raw, codec), Reply::Accepted { id: 77 });
        let mut rows = 0;
        loop {
            match read_reply(&mut raw, codec) {
                Reply::Row { .. } => rows += 1,
                Reply::TraceChunk { .. } => {}
                Reply::Done { id, rows: n, .. } => {
                    assert_eq!((id, n), (77, rows));
                    break;
                }
                other => panic!("{}: unexpected {other:?}", codec.name()),
            }
        }
        assert_eq!(rows, the_archs().len() as u64);
    }
    // Only the two valid jobs (one per codec, the second a cache hit)
    // ever reached the result cache.
    let metrics = gateway.metrics();
    assert_eq!((metrics.cache_misses(), metrics.cache_hits()), (1, 1));
    gateway.shutdown();
}

/// Wire-compat regression: a protocol-version-1 peer (pre-extension
/// handshake and request body) must be served byte-identically to a
/// version-2 client, and must never receive a version-2-only reply tag —
/// even when extension fields are smuggled into its request body.
#[test]
fn version1_clients_are_served_byte_identically() {
    let gateway = Gateway::start(GatewayConfig::default()).unwrap();
    let spec = unique_specs()[0].clone();
    let req = request(1, &spec);

    // Ground truth: a current (version-2) client runs the job first.
    let mut client = GatewayClient::connect(gateway.addr(), &BIN).unwrap();
    let v2 = client.run_job(&req).unwrap();
    assert!(v2.is_done());

    // Hand-rolled version-1 peer: old 6-byte handshake, request body
    // ending at `want_trace` (the encoder's trailing extension for an
    // untraced request is exactly two flag bytes — strip them).
    let mut raw = TcpStream::connect(gateway.addr()).unwrap();
    raw.write_all(b"SHTG\x01\x00").unwrap();
    let mut echoed = [0u8; 6];
    std::io::Read::read_exact(&mut raw, &mut echoed).unwrap();
    assert_eq!(
        &echoed, b"SHTG\x01\x00",
        "server must echo the negotiated version, not its own maximum"
    );
    let full = BIN.encode_request(&req).unwrap();
    let v1_body = &full[..full.len() - 2];
    // Sanity: the stripped body is a decodable request with extension
    // defaults — i.e. exactly what a version-1 encoder produced.
    assert_eq!(BIN.decode_request(v1_body).unwrap(), req);
    write_frame(&mut raw, v1_body).unwrap();
    let v1_rows = collect_v1_rows(&mut raw, req.id, v2.rows.len());
    assert_eq!(
        v1_rows, v2.raw_rows,
        "version-1 peers must receive byte-identical Row frames"
    );

    // Same connection, but now the body *claims* tracing and progress:
    // the reader must strip the extension (a v1 peer cannot decode
    // Progress/Spans tags) and still serve the rows byte-identically.
    let mut smuggled = req.clone();
    smuggled.trace = Some(shiptlm::kernel::causal::TraceCtx::mint());
    smuggled.want_progress = true;
    let body = BIN.encode_request(&smuggled).unwrap();
    write_frame(&mut raw, &body).unwrap();
    let again = collect_v1_rows(&mut raw, req.id, v2.rows.len());
    assert_eq!(again, v2.raw_rows);

    gateway.shutdown();
}

/// Drains one job's replies off a raw version-1 connection, asserting no
/// version-2-only tags appear; returns the raw Row frame bodies.
fn collect_v1_rows(stream: &mut TcpStream, id: u64, expect_rows: usize) -> Vec<Vec<u8>> {
    let mut raw_rows = Vec::new();
    loop {
        let frame = read_frame(stream, 1 << 20).unwrap().expect("reply frame");
        let reply = BIN.decode_reply(&frame).unwrap();
        assert!(
            !reply.is_v2_only(),
            "version-1 connection received a v2-only reply: {reply:?}"
        );
        match reply {
            Reply::Accepted { .. } | Reply::TraceChunk { .. } => {}
            Reply::Row { .. } => raw_rows.push(frame),
            Reply::Done { id: done_id, rows, cached: _ } => {
                assert_eq!(done_id, id);
                assert_eq!(rows as usize, expect_rows);
                return raw_rows;
            }
            other => panic!("unexpected reply on v1 connection: {other:?}"),
        }
    }
}

#[test]
fn jobs_that_fail_or_panic_leave_the_gateway_usable() {
    let gateway = Gateway::start(GatewayConfig::default()).unwrap();
    let mut client = GatewayClient::connect(gateway.addr(), &BIN).unwrap();

    // A stream motif with no messages leaves its channel silent, so role
    // detection fails deterministically: the job reports Failed, the
    // failure is cached, and the connection and executors stay healthy.
    let quiet = ModelSpec {
        name: "quiet".into(),
        seed: 0,
        motifs: vec![Motif::Stream { sizes: vec![] }],
        app_checks: false,
    };
    let failed = client.run_job(&request(1, &quiet)).unwrap();
    let JobStatus::Failed { ref message } = failed.status else {
        panic!("silent model must fail, got {:?}", failed.status);
    };
    assert!(!message.is_empty());

    // Same failure again: now served from the cache.
    let again = client.run_job(&request(2, &quiet)).unwrap();
    assert_eq!(failed.status, again.status);
    assert_eq!(gateway.metrics().cache_hits(), 1);

    // And a healthy job right after still completes.
    let ok = client.run_job(&request(3, &unique_specs()[1])).unwrap();
    assert!(ok.is_done());
    gateway.shutdown();
}

#[test]
fn shutdown_drains_accepted_jobs() {
    let gateway = Gateway::start(GatewayConfig {
        executors: 1,
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gateway.addr();
    let metrics = gateway.metrics();
    let spec = ModelSpec::random(707, &GenConfig::default());
    let expected = direct_rows(&spec).0;

    let client = std::thread::spawn(move || {
        let mut client = GatewayClient::connect(addr, &BIN).unwrap();
        client.run_job(&request(1, &spec)).unwrap()
    });

    // Wait until the job is admitted (queued or already executing), then
    // shut down while it is still in flight.
    let t0 = std::time::Instant::now();
    while metrics.queue_depth() == 0
        && metrics.jobs_inflight() == 0
        && metrics.cache_misses() == 0
        && t0.elapsed() < std::time::Duration::from_secs(5)
    {
        std::thread::yield_now();
    }
    gateway.shutdown();

    // The accepted job was drained: the client saw full results despite
    // the shutdown racing its execution.
    let outcome = client.join().unwrap();
    assert!(outcome.is_done(), "drained job ended {:?}", outcome.status);
    assert_eq!(outcome.rows, expected);
}
