//! Isolated probes: each prices one layer by timing calls into its public
//! functions on seeded inputs, outside any workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shiptlm::kernel::causal::{SpanSink, TraceCtx};
use shiptlm::prelude::*;
use shiptlm_gateway::prelude::*;

use crate::inputs::{self, stream};
use crate::layers::SweepSample;
use crate::stats::median;
use crate::Metric;

/// Repeats `batch` (which performs `ops` operations) until `budget` has
/// passed, at least once; returns the median nanoseconds per operation over
/// the batches and the operations timed.
fn per_op(budget: Duration, ops: usize, mut batch: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut per_batch = Vec::new();
    loop {
        let t = Instant::now();
        batch();
        per_batch.push(t.elapsed().as_nanos() as f64 / ops as f64);
        if start.elapsed() >= budget {
            return (median(&per_batch), per_batch.len() * ops);
        }
    }
}

/// Requests shaped like the gateway workloads' jobs.
fn probe_requests(seed: u64) -> Vec<JobRequest> {
    (0..64)
        .map(|i| inputs::job(seed, stream::PROBE + i, i, false))
        .collect()
}

/// One job's complete output, computed in process: its rows and the
/// latency trace a `want_trace` job streams back.
fn probe_output(seed: u64) -> JobOutput {
    let req = inputs::job(seed, stream::PROBE, 0, true);
    let report = Sweep::new(req.spec.to_app())
        .archs(req.archs.iter().cloned())
        .run()
        .expect("probe job maps");
    JobOutput {
        rows: report.rows().iter().map(ReportRow::from_metrics).collect(),
        trace: report.channel_latency_csv().into_bytes(),
        spans: Vec::new(),
        txn_dropped: 0,
    }
}

/// The replies a gateway streams for one finished job.
fn reply_set(output: &JobOutput) -> Vec<Reply> {
    let id = 1;
    let mut replies = vec![Reply::Accepted { id }];
    replies.extend(output.rows.iter().map(|row| Reply::Row {
        id,
        row: row.clone(),
    }));
    replies.extend(output.trace.chunks(64 * 1024).map(|c| Reply::TraceChunk {
        id,
        data: c.to_vec(),
    }));
    replies.push(Reply::Done {
        id,
        rows: output.rows.len() as u64,
        cached: false,
    });
    replies
}

fn put(
    out: &mut BTreeMap<&'static str, Metric>,
    name: &'static str,
    (ns, n): (f64, usize),
    scale: f64,
    unit: &'static str,
) {
    out.insert(
        name,
        Metric {
            value: ns / scale,
            unit,
            n,
        },
    );
}

/// Wire codec and result cache probes.
pub fn gateway(seed: u64, budget: Duration, out: &mut BTreeMap<&'static str, Metric>) {
    let reqs = probe_requests(seed);
    let output = probe_output(seed);
    let replies = reply_set(&output);
    let codecs: [(&'static dyn WireCodec, &str, &str); 2] = [
        (&BIN, "codec.bin.request_us", "codec.bin.reply_us"),
        (&JSON, "codec.json.request_us", "codec.json.reply_us"),
    ];
    for (codec, req_name, reply_name) in codecs {
        let timing = per_op(budget, reqs.len(), || {
            for r in &reqs {
                let body = codec.encode_request(r).expect("encodes");
                black_box(codec.decode_request(&body).expect("decodes"));
            }
        });
        put(out, req_name, timing, 1e3, "us");
        let timing = per_op(budget, 1, || {
            for r in &replies {
                let body = codec.encode_reply(r).expect("encodes");
                black_box(codec.decode_reply(&body).expect("decodes"));
            }
        });
        put(out, reply_name, timing, 1e3, "us");
    }

    let timing = per_op(budget, reqs.len(), || {
        for r in &reqs {
            black_box(r.cache_key());
        }
    });
    put(out, "cache.key_us", timing, 1e3, "us");

    let cache = ResultCache::new();
    let key = reqs[0].cache_key();
    let _ = cache.get_or_compute(key.clone(), || Ok(output.clone()));
    let timing = per_op(budget, 64, || {
        for _ in 0..64 {
            let _ = black_box(cache.get_or_compute(key.clone(), || unreachable!("resident")));
        }
    });
    put(out, "cache.hit_us", timing, 1e3, "us");

    // Misses into a full cache: every insert pays the LRU eviction.
    let full = ResultCache::bounded(shiptlm_gateway::cache::DEFAULT_CACHE_ENTRIES);
    let small = JobOutput {
        rows: output.rows.clone(),
        trace: Vec::new(),
        spans: Vec::new(),
        txn_dropped: 0,
    };
    let mut next = 0u64;
    let mut fresh_key = || {
        next += 1;
        let mut k = key.clone();
        k.extend_from_slice(&next.to_le_bytes());
        k
    };
    for _ in 0..shiptlm_gateway::cache::DEFAULT_CACHE_ENTRIES {
        let _ = full.get_or_compute(fresh_key(), || Ok(small.clone()));
    }
    let timing = per_op(budget, 64, || {
        for _ in 0..64 {
            let _ = black_box(full.get_or_compute(fresh_key(), || Ok(small.clone())));
        }
    });
    put(out, "cache.insert_evict_us", timing, 1e3, "us");
}

/// Worker-pool claim cost: no-op indices claimed one at a time.
pub fn pool(threads: usize, budget: Duration, out: &mut BTreeMap<&'static str, Metric>) {
    const INDICES: usize = 100_000;
    let pool = WorkerPool::new();
    let timing = per_op(budget, INDICES, || {
        pool.run_indexed(
            threads,
            INDICES,
            1,
            Box::new(|i| {
                black_box(i);
            }),
        )
    });
    put(out, "pool.claim_ns", timing, 1.0, "ns");
}

/// Kernel process switch and spawn, SHIP rendezvous and CAM arbitration.
pub fn kernel(budget: Duration, out: &mut BTreeMap<&'static str, Metric>) {
    const ROUND_TRIPS: usize = 20_000;
    let timing = per_op(budget, 2 * ROUND_TRIPS, || {
        let sim = Simulation::new();
        let (ping, pong) = (sim.event("ping"), sim.event("pong"));
        let (ping2, pong2) = (ping.clone(), pong.clone());
        sim.spawn_thread("a", move |ctx| {
            for _ in 0..ROUND_TRIPS {
                ping.notify_delta();
                ctx.wait(&pong);
            }
        });
        sim.spawn_thread("b", move |ctx| {
            for _ in 0..ROUND_TRIPS {
                ctx.wait(&ping2);
                pong2.notify_delta();
            }
        });
        sim.run();
    });
    put(out, "kernel.switch_ns", timing, 1.0, "ns");

    const PROCESSES: usize = 8;
    let timing = per_op(budget, PROCESSES, || {
        let sim = Simulation::new();
        for i in 0..PROCESSES {
            sim.spawn_thread(&format!("p{i}"), |ctx| {
                black_box(ctx.now());
            });
        }
        sim.run();
    });
    put(out, "kernel.spawn_us", timing, 1e3, "us");

    const MESSAGES: usize = 5_000;
    let timing = per_op(budget, MESSAGES, || {
        let sim = Simulation::new();
        let ch = ShipChannel::new(&sim.handle(), "probe", ShipConfig::default());
        let (tx, rx) = ch.ports("tx", "rx");
        sim.spawn_thread("tx", move |ctx| {
            let payload = vec![0xA5u8; 64];
            for _ in 0..MESSAGES {
                tx.send(ctx, &payload).expect("send");
            }
        });
        sim.spawn_thread("rx", move |ctx| {
            for _ in 0..MESSAGES {
                black_box(rx.recv::<Vec<u8>>(ctx).expect("recv"));
            }
        });
        sim.run();
    });
    put(out, "ship.rendezvous_ns", timing, 1.0, "ns");

    const MASTERS: usize = 4;
    const WRITES: usize = 500;
    let timing = per_op(budget, MASTERS * WRITES, || {
        let sim = Simulation::new();
        let mut bus = CcatbBus::new(
            &sim.handle(),
            BusConfig::plb("probe").with_arb(ArbPolicy::RoundRobin),
        );
        bus.map_slave(0..0x1_0000, Arc::new(Memory::new("ram", 0x1_0000)), true);
        let bus = Arc::new(bus);
        for m in 0..MASTERS {
            let port = bus.master_port(MasterId(m));
            sim.spawn_thread(&format!("m{m}"), move |ctx| {
                for w in 0..WRITES {
                    let addr = ((m * WRITES + w) * 32 % 0x1_0000) as u64;
                    port.write(ctx, addr, vec![m as u8; 32]).expect("write");
                }
            });
        }
        sim.run();
        assert_eq!(bus.stats().transactions, (MASTERS * WRITES) as u64);
    });
    put(out, "cam.arb_ns", timing, 1.0, "ns");
}

/// What role detection costs on the delta-cycle kernel alone, on the
/// models the workload detects roles of.
pub fn role_detect_de(
    models: &[AppSpec],
    budget: Duration,
    out: &mut BTreeMap<&'static str, Metric>,
) {
    let opts = RunOptions::default().with_backend(Backend::De);
    let mut ms = Vec::new();
    let start = Instant::now();
    for app in models.iter().cycle() {
        let t = Instant::now();
        run_component_assembly_with(app, &opts).expect("roles detect");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if start.elapsed() >= budget && ms.len() >= models.len() {
            break;
        }
    }
    out.insert(
        "mapper.role_detect_de_ms",
        Metric {
            value: median(&ms),
            unit: "ms",
            n: ms.len(),
        },
    );
}

/// Parallel speed-up and contention of the `sweep-grid` input.
pub fn sweep(
    seed: u64,
    threads: usize,
    budget: Duration,
    out: &mut BTreeMap<&'static str, Metric>,
) {
    let app = inputs::grid_app();
    let points = inputs::grid_points(seed);
    let rate = |t: usize| {
        let batch = &points[..128];
        let start = Instant::now();
        let mut done = 0;
        while done == 0 || start.elapsed() < budget {
            let report = Sweep::new(app.clone())
                .archs(batch.iter().cloned())
                .run_parallel(t)
                .expect("grid maps");
            done += report.rows().len();
        }
        (done as f64 / start.elapsed().as_secs_f64(), done)
    };
    let (serial, n1) = rate(1);
    let (parallel, n2) = rate(threads);
    out.insert(
        "sweep.parallel_speedup",
        Metric {
            value: parallel / serial,
            unit: "ratio",
            n: n1 + n2,
        },
    );

    let first = &points[..64];
    let sink = SpanSink::new();
    let t = Instant::now();
    Sweep::new(app.clone())
        .archs(first.iter().cloned())
        .with_causal(TraceCtx::mint(), sink.clone())
        .run_parallel(threads)
        .expect("grid maps");
    let traced = SweepSample::from_spans(&sink.take(), t.elapsed().as_nanos() as u64, threads);
    let in_sweep: f64 = traced.candidates.iter().map(|c| c.1 as f64).sum();
    let roles = run_component_assembly(&app).expect("roles detect").roles;
    let solo: f64 = first
        .iter()
        .map(|arch| {
            let t = Instant::now();
            run_mapped_with(&app, &roles, arch, &RunOptions::default()).expect("maps");
            t.elapsed().as_nanos() as f64
        })
        .sum();
    out.insert(
        "sweep.contention",
        Metric {
            value: in_sweep / solo,
            unit: "ratio",
            n: first.len(),
        },
    );
}
