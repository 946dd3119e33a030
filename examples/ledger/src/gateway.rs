//! The two gateway workloads and the client machinery they share.
//!
//! * `gateway-cold`: a closed loop on two connections (one `BIN`, one
//!   `JSON`), one job outstanding each, every job distinct — the miss path:
//!   decode, queue, role detection, a two-candidate pooled sweep, a cache
//!   insert and, past 1024 entries, an LRU eviction.
//! * `gateway-mixed`: an open loop of seeded Poisson arrivals on one `BIN`
//!   connection, 90% repeats of 256 pre-warmed jobs and 10% fresh ones. Hits
//!   queue behind misses for the two executors, which a closed loop cannot
//!   show; latency counts from each job's scheduled send time.

use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use shiptlm::kernel::causal::TraceCtx;
use shiptlm::prelude::*;
use shiptlm_gateway::prelude::*;
use shiptlm_gateway::proto::{read_handshake, write_handshake, DEFAULT_MAX_FRAME};

use crate::inputs::{self, stream, Arrival};
use crate::layers::{Bags, GatewaySample};
use crate::stats::Fnv;
use crate::{feed_rows, Check, Load, Segment};

/// Every sixteenth miss is re-run in process as the reference.
const MISS_STRIDE: u64 = 16;

/// Jobs whose rows make up the `gateway-cold` digest.
const DIGEST_JOBS: u64 = 64;

/// Set-up jobs of `gateway-cold`.
const WARM_JOBS: u64 = 16;

/// How long an open loop waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(30);

/// The traced pass traces one job in this many. Tracing every job turns
/// on the txn recorder and span replay for all of them, which overloads
/// the executors at the open loop's rate; a sample keeps the load the
/// untraced pass measures.
const TRACE_EVERY: u64 = 8;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("no ledger thread panics while holding this lock")
}

fn rows_digest(rows: &[ReportRow]) -> u64 {
    let mut h = Fnv::default();
    feed_rows(&mut h, rows);
    h.finish()
}

/// The workload digest: FNV-1a over per-job row digests in job order.
fn digest_of(jobs: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for d in jobs {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

fn start_gateway(cfg: GatewayConfig) -> Gateway {
    Gateway::start(cfg).expect("gateway binds a loopback port")
}

/// `gateway-mixed`'s gateway: the default one with an admission queue that
/// holds a one-second stall at the offered rate. When the shared host
/// pauses this process, the open loop catches up on the arrivals it owes
/// in one burst; the default queue of 64 would shed that burst.
fn mixed_config() -> GatewayConfig {
    GatewayConfig {
        queue_capacity: inputs::MIXED_RATE as usize,
        ..GatewayConfig::default()
    }
}

fn threads_per_job() -> usize {
    GatewayConfig::default().threads_per_job
}

/// The rows the in-process sweep gives for `req`: the reference a gateway
/// result must equal.
fn reference_digest(req: &JobRequest) -> Option<u64> {
    Sweep::new(req.spec.to_app())
        .archs(req.archs.iter().cloned())
        .with_options(RunOptions::default().with_backend(req.backend.to_backend()))
        .run()
        .ok()
        .map(|report| {
            let rows: Vec<ReportRow> = report.rows().iter().map(ReportRow::from_metrics).collect();
            rows_digest(&rows)
        })
}

/// Mismatches between `got` digests and references of `reqs`, computed on
/// two threads.
fn count_mismatches(reqs: &[JobRequest], got: &[u64]) -> u64 {
    let next = AtomicUsize::new(0);
    let bad = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = reqs.get(i) else { return };
                if reference_digest(req) != Some(got[i]) {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    bad.into_inner()
}

/// One finished closed-loop job.
struct Finished {
    started: Instant,
    ended: Instant,
    ok: bool,
    digest: u64,
    layer: Option<GatewaySample>,
}

/// Runs one job, traced or not, and reduces its spans to a layer sample.
fn run_one(
    client: &mut GatewayClient,
    req: &JobRequest,
    traced: bool,
    expect_hit: bool,
    bags: &Mutex<Bags>,
) -> Finished {
    let started = Instant::now();
    let result = if traced {
        client.run_job_traced(req).map(|(outcome, trace)| {
            let client_ns = trace.spans.first().map_or(0, |root| root.dur_ns);
            (outcome, Some(client_ns))
        })
    } else {
        client.run_job(req).map(|o| (o, None))
    };
    let ended = Instant::now();
    match result {
        Ok((outcome, client_ns)) => {
            let cached = matches!(outcome.status, JobStatus::Done { cached: true });
            let layer = client_ns.map(|ns| {
                let (sample, sweep) = GatewaySample::from_spans(
                    &outcome.spans,
                    ns,
                    expect_hit,
                    cached,
                    threads_per_job(),
                );
                if let Some(sweep) = sweep {
                    lock(bags).sweeps.push(sweep);
                }
                sample
            });
            Finished {
                started,
                ended,
                ok: outcome.is_done(),
                digest: rows_digest(&outcome.rows),
                layer,
            }
        }
        Err(_) => Finished {
            started,
            ended,
            ok: false,
            digest: 0,
            layer: None,
        },
    }
}

/// Runs `reqs` closed loop over `clients` (one job outstanding each);
/// returns the row digests in request order, `None` for failed jobs.
fn closed_batch(
    clients: &mut [GatewayClient],
    reqs: &[JobRequest],
    traced: bool,
    bags: &Mutex<Bags>,
) -> Vec<Option<u64>> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![None; reqs.len()]);
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = reqs.get(i) else { return };
                let f = run_one(client, req, traced, false, bags);
                if let Some(sample) = f.layer {
                    lock(bags).gateway.push(sample);
                }
                lock(&out)[i] = f.ok.then_some(f.digest);
            });
        }
    });
    out.into_inner().expect("batch threads joined")
}

fn connect(addr: SocketAddr, codec: &'static dyn WireCodec) -> GatewayClient {
    GatewayClient::connect(addr, codec).expect("gateway accepts the connection")
}

// ---------------------------------------------------------------- cold

pub struct Cold {
    seed: u64,
    gateway: Option<Gateway>,
    clients: Vec<GatewayClient>,
    next: u64,
    /// `(index, digest)` of every sixteenth job, checked at the end.
    sampled: Vec<(u64, u64)>,
    /// Row digests of jobs `0..DIGEST_JOBS`.
    digest_jobs: Vec<Option<u64>>,
    setup_failures: u64,
}

/// Starts a default gateway, connects one `BIN` and one `JSON` client and
/// warms the connections and the pool with `WARM_JOBS` jobs.
pub fn setup_cold(seed: u64) -> Cold {
    let gateway = start_gateway(GatewayConfig::default());
    let mut clients = vec![
        connect(gateway.addr(), &BIN),
        connect(gateway.addr(), &JSON),
    ];
    let warm: Vec<JobRequest> = (0..WARM_JOBS)
        .map(|i| inputs::job(seed, stream::WARM + i, i, false))
        .collect();
    let digests = closed_batch(&mut clients, &warm, false, &Mutex::default());
    Cold {
        seed,
        gateway: Some(gateway),
        clients,
        next: 0,
        sampled: Vec::new(),
        digest_jobs: vec![None; DIGEST_JOBS as usize],
        setup_failures: digests.iter().filter(|d| d.is_none()).count() as u64,
    }
}

impl Drop for Cold {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(g) = self.gateway.take() {
            g.shutdown();
        }
    }
}

impl Load for Cold {
    fn run(&mut self, ops: u64, _speed: f64, bags: Option<&mut Bags>) -> Segment {
        let tracing = bags.is_some();
        let shared = Mutex::new(Bags::default());
        let next = AtomicU64::new(self.next);
        let end = self.next + ops;
        let seed = self.seed;
        let start = Instant::now();
        let logs: Vec<Vec<(u64, Finished)>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let (next, shared) = (&next, &shared);
                    s.spawn(move || {
                        let mut log = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                return log;
                            }
                            let req = inputs::job(seed, stream::COLD + i, i, false);
                            let traced = tracing && i.is_multiple_of(TRACE_EVERY);
                            log.push((i, run_one(client, &req, traced, false, shared)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        self.next = end;

        let mut seg = Segment::default();
        let mut last = start;
        let mut shared = shared.into_inner().expect("client threads joined");
        for log in logs {
            let mut prev = start;
            for (i, f) in log {
                seg.attempted += 1;
                seg.lag_ms.push((f.started - prev).as_secs_f64() * 1e3);
                prev = f.ended;
                last = last.max(f.ended);
                if let Some(sample) = f.layer {
                    shared.gateway.push(sample);
                }
                if !f.ok {
                    seg.failed += 1;
                    continue;
                }
                seg.work += 1;
                seg.latencies_ms
                    .push((f.ended - f.started).as_secs_f64() * 1e3);
                if i.is_multiple_of(MISS_STRIDE) {
                    self.sampled.push((i, f.digest));
                }
                if i < DIGEST_JOBS {
                    self.digest_jobs[i as usize] = Some(f.digest);
                }
            }
        }
        seg.elapsed = (last - start).as_secs_f64();
        if let Some(bags) = bags {
            bags.gateway.append(&mut shared.gateway);
            bags.sweeps.append(&mut shared.sweeps);
            let gateway = self.gateway.as_ref().expect("gateway runs until finish");
            bags.evictions = (gateway.cache_evictions(), self.next + WARM_JOBS);
        }
        seg
    }

    fn finish(mut self: Box<Self>) -> Check {
        self.clients.clear();
        if let Some(g) = self.gateway.take() {
            g.shutdown();
        }
        let reqs: Vec<JobRequest> = self
            .sampled
            .iter()
            .map(|&(i, _)| inputs::job(self.seed, stream::COLD + i, i, false))
            .collect();
        let got: Vec<u64> = self.sampled.iter().map(|s| s.1).collect();
        let mut mismatches = self.setup_failures + count_mismatches(&reqs, &got);
        let digests: Vec<u64> = self
            .digest_jobs
            .iter()
            .map(|d| {
                d.unwrap_or_else(|| {
                    mismatches += 1;
                    0
                })
            })
            .collect();
        Check {
            mismatches,
            digest: digest_of(&digests),
        }
    }

    fn role_models(&self) -> Vec<AppSpec> {
        (0..16)
            .map(|i| inputs::job_spec(self.seed, stream::COLD + i).to_app())
            .collect()
    }
}

// ---------------------------------------------------------------- mixed

/// The hot set's requests.
fn hot_requests(seed: u64) -> Vec<JobRequest> {
    (0..inputs::HOT_JOBS)
        .map(|k| {
            inputs::job(
                seed,
                stream::HOT + k as u64,
                k as u64,
                inputs::hot_wants_trace(k),
            )
        })
        .collect()
}

pub struct Mixed {
    seed: u64,
    gateway: Option<Gateway>,
    /// Row digests of the hot set as the gateway computed them in set-up.
    hot: Vec<u64>,
    /// The same for the traced hot set (traced jobs have their own cache
    /// entries), once pre-warmed.
    hot_traced: Option<Vec<u64>>,
    next_fresh: u64,
    next_id: u64,
    jobs: u64,
    /// `(fresh index, digest)` of every sixteenth miss, checked at the end.
    sampled: Vec<(u64, u64)>,
    /// Pre-warm failures and traced hot rows that differ from untraced ones.
    mismatches: u64,
}

/// Pre-warms `reqs` on two throw-away connections.
fn prewarm(
    addr: SocketAddr,
    reqs: &[JobRequest],
    traced: bool,
    bags: &Mutex<Bags>,
) -> Vec<Option<u64>> {
    let mut clients = vec![connect(addr, &BIN), connect(addr, &BIN)];
    closed_batch(&mut clients, reqs, traced, bags)
}

/// Starts the gateway and fills its cache with the hot set.
pub fn setup_mixed(seed: u64) -> Mixed {
    let gateway = start_gateway(mixed_config());
    let digests = prewarm(
        gateway.addr(),
        &hot_requests(seed),
        false,
        &Mutex::default(),
    );
    Mixed {
        seed,
        gateway: Some(gateway),
        mismatches: digests.iter().filter(|d| d.is_none()).count() as u64,
        hot: digests.into_iter().map(Option::unwrap_or_default).collect(),
        hot_traced: None,
        next_fresh: 0,
        next_id: 1,
        jobs: inputs::HOT_JOBS as u64,
        sampled: Vec::new(),
    }
}

impl Drop for Mixed {
    fn drop(&mut self) {
        if let Some(g) = self.gateway.take() {
            g.shutdown();
        }
    }
}

/// One job the open loop sent.
struct Sent {
    due: Instant,
    at: Instant,
    hot: Option<usize>,
    fresh: u64,
    traced: bool,
}

/// What the receiver saw of one job.
#[derive(Default)]
struct Received {
    rows: Fnv,
    ok: bool,
    cached: bool,
    /// The undecoded `Spans` frame of a traced job.
    spans: Vec<u8>,
    at: Option<Instant>,
    rejected: bool,
}

/// The binary codec's tag of a `Spans` reply.
const SPANS_TAG: u8 = 7;

/// Reads replies until the socket is shut down, accumulating them per job
/// id; `terminal` counts jobs that ended (Done, Error or Rejected). Span
/// frames are kept undecoded so decoding them does not delay the replies
/// queued behind them.
fn receive(mut stream: TcpStream, terminal: &(Mutex<u64>, Condvar)) -> HashMap<u64, Received> {
    let mut jobs: HashMap<u64, Received> = HashMap::new();
    while let Ok(Some(frame)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        if frame.first() == Some(&SPANS_TAG) && frame.len() >= 9 {
            let id = u64::from_le_bytes(frame[1..9].try_into().expect("eight bytes"));
            jobs.entry(id).or_default().spans = frame;
            continue;
        }
        let Ok(reply) = BIN.decode_reply(&frame) else {
            break;
        };
        let job = jobs.entry(reply.id()).or_default();
        let ended = match reply {
            Reply::Row { row, .. } => {
                job.rows.write(&shiptlm::ship::prelude::to_wire(&row));
                false
            }
            Reply::Spans { .. } => false,
            Reply::Done { cached, .. } => {
                job.ok = true;
                job.cached = cached;
                true
            }
            Reply::Rejected { .. } => {
                job.rejected = true;
                true
            }
            Reply::Error { .. } => true,
            Reply::Accepted { .. } | Reply::TraceChunk { .. } | Reply::Progress { .. } => false,
        };
        if ended {
            job.at = Some(Instant::now());
            let (count, cv) = terminal;
            *lock(count) += 1;
            cv.notify_all();
        }
    }
    jobs
}

impl Load for Mixed {
    fn run(&mut self, ops: u64, speed: f64, bags: Option<&mut Bags>) -> Segment {
        let tracing = bags.is_some();
        let addr = self
            .gateway
            .as_ref()
            .expect("gateway runs until finish")
            .addr();
        let mut shared = Bags::default();
        if tracing && self.hot_traced.is_none() {
            let reqs = hot_requests(self.seed);
            let digests = prewarm(addr, &reqs, true, &Mutex::default());
            self.jobs += reqs.len() as u64;
            let digests: Vec<u64> = digests.into_iter().map(Option::unwrap_or_default).collect();
            self.mismatches += digests
                .iter()
                .zip(&self.hot)
                .filter(|(a, b)| a != b)
                .count() as u64;
            self.hot_traced = Some(digests);
        }
        let hot_reqs = hot_requests(self.seed);
        let schedule = inputs::poisson_schedule(
            inputs::mix(self.seed, self.next_id),
            inputs::MIXED_RATE * speed,
            ops as usize,
        );

        let mut conn = TcpStream::connect(addr).expect("gateway accepts the connection");
        conn.set_nodelay(true).ok();
        write_handshake(&mut conn, BIN.tag()).expect("handshake");
        read_handshake(&mut conn).expect("handshake");
        let terminal = (Mutex::new(0u64), Condvar::new());
        let reader = conn.try_clone().expect("socket clones");

        let first_id = self.next_id;
        let mut sent: Vec<Sent> = Vec::with_capacity(schedule.len());
        let mut received = std::thread::scope(|s| {
            let receiver = s.spawn(|| receive(reader, &terminal));
            let start = Instant::now();
            for (n, Arrival { at, hot }) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(*at);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let id = first_id + n as u64;
                let (mut req, fresh) = match hot {
                    Some(k) => (hot_reqs[*k].clone(), u64::MAX),
                    None => {
                        self.next_fresh += 1;
                        let i = self.next_fresh;
                        (inputs::job(self.seed, stream::FRESH + i, id, false), i)
                    }
                };
                req.id = id;
                let traced = tracing && id.is_multiple_of(TRACE_EVERY);
                if traced {
                    req.trace = Some(TraceCtx::mint());
                }
                let body = BIN.encode_request(&req).expect("encodes");
                let at = Instant::now();
                if write_frame(&mut conn, &body).is_err() {
                    break;
                }
                sent.push(Sent {
                    due,
                    at,
                    hot: *hot,
                    fresh,
                    traced,
                });
            }
            // Wait for every job to end, then end the receiver by shutting
            // the socket down; it never waits on a read of its own accord.
            let (count, cv) = &terminal;
            let mut done = lock(count);
            let deadline = Instant::now() + DRAIN;
            while *done < sent.len() as u64 {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                done = cv.wait_timeout(done, left).expect("no poisoned lock").0;
            }
            drop(done);
            let _ = conn.shutdown(Shutdown::Both);
            receiver.join().expect("receiver thread")
        });
        self.next_id += schedule.len() as u64;
        self.jobs += sent.len() as u64;

        let mut seg = Segment::default();
        let t0 = sent.first().map_or_else(Instant::now, |s| s.due);
        let mut last = t0;
        let mut failures: BTreeMap<&str, u64> = BTreeMap::new();
        for (
            n,
            &Sent {
                due,
                at: at_send,
                hot,
                fresh,
                traced,
            },
        ) in sent.iter().enumerate()
        {
            let id = first_id + n as u64;
            seg.attempted += 1;
            seg.lag_ms.push((at_send - due).as_secs_f64() * 1e3);
            let job = received.remove(&id).unwrap_or_default();
            let (Some(at), true) = (job.at, job.ok) else {
                seg.failed += 1;
                let why = match (job.rejected, job.at) {
                    (true, _) => "rejected",
                    (false, Some(_)) => "failed",
                    (false, None) => "unanswered",
                };
                *failures.entry(why).or_insert(0) += 1;
                continue;
            };
            let digest = job.rows.finish();
            let expected = hot.map(|k| match (&self.hot_traced, traced) {
                (Some(hot_traced), true) => hot_traced[k],
                _ => self.hot[k],
            });
            match expected {
                Some(want) if want != digest => {
                    seg.failed += 1;
                    *failures.entry("wrong rows").or_insert(0) += 1;
                    continue;
                }
                Some(_) => {}
                None if fresh.is_multiple_of(MISS_STRIDE) => self.sampled.push((fresh, digest)),
                None => {}
            }
            seg.work += 1;
            last = last.max(at);
            seg.latencies_ms.push((at - due).as_secs_f64() * 1e3);
            if traced {
                let client_ns = (at - at_send).as_nanos() as u64;
                let spans = match BIN.decode_reply(&job.spans) {
                    Ok(Reply::Spans { spans, .. }) => spans,
                    _ => Vec::new(),
                };
                let (sample, sweep) = GatewaySample::from_spans(
                    &spans,
                    client_ns,
                    hot.is_some(),
                    job.cached,
                    threads_per_job(),
                );
                shared.gateway.push(sample);
                shared.sweeps.extend(sweep);
            }
        }
        seg.elapsed = (last - t0).as_secs_f64();
        if !failures.is_empty() {
            eprintln!("ledger: gateway-mixed jobs lost in a window: {failures:?}");
        }
        if let Some(bags) = bags {
            bags.gateway.append(&mut shared.gateway);
            bags.sweeps.append(&mut shared.sweeps);
            let gateway = self.gateway.as_ref().expect("gateway runs until finish");
            bags.evictions = (gateway.cache_evictions(), self.jobs);
        }
        seg
    }

    fn finish(mut self: Box<Self>) -> Check {
        if let Some(g) = self.gateway.take() {
            g.shutdown();
        }
        let mut reqs = hot_requests(self.seed);
        let mut got = self.hot.clone();
        for &(i, digest) in &self.sampled {
            reqs.push(inputs::job(self.seed, stream::FRESH + i, 0, false));
            got.push(digest);
        }
        let mismatches = self.mismatches + count_mismatches(&reqs, &got);
        Check {
            mismatches,
            digest: digest_of(&self.hot),
        }
    }

    fn role_models(&self) -> Vec<AppSpec> {
        (0..16)
            .map(|k| inputs::job_spec(self.seed, stream::HOT + k).to_app())
            .collect()
    }
}

/// A short traced session on a fresh gateway — 32 distinct jobs, then the
/// same 32 again as expected hits — for workloads that do not cross the
/// gateway themselves.
pub fn sample_session(seed: u64, bags: &mut Bags) {
    let gateway = start_gateway(GatewayConfig::default());
    let mut client = connect(gateway.addr(), &BIN);
    let shared = Mutex::new(Bags::default());
    let reqs: Vec<JobRequest> = (0..32)
        .map(|i| inputs::job(seed, stream::PROBE + 1000 + i, i, false))
        .collect();
    for expect_hit in [false, true] {
        for req in &reqs {
            let f = run_one(&mut client, req, true, expect_hit, &shared);
            bags.gateway.extend(f.layer);
        }
    }
    bags.sweeps
        .append(&mut shared.into_inner().expect("no threads").sweeps);
    bags.evictions = (gateway.cache_evictions(), 2 * reqs.len() as u64);
    drop(client);
    gateway.shutdown();
}
