//! Per-layer samples gathered by the traced pass, and the per-layer metrics
//! derived from them.
//!
//! A workload's traced pass fills the samples of every layer it crosses.
//! Every metric is reported for every workload, so a metric the traced pass
//! left without samples is measured on a short traced [`Session`] of its
//! layer instead.

use std::collections::BTreeMap;

use shiptlm::kernel::causal::{CausalSpan, TRACK_HOST};

use crate::stats::{percentile, self_time, sorted};
use crate::Metric;

/// Wall time and Auto-backend outcome of one role detection.
#[derive(Debug, Clone, Copy)]
pub struct RoleSample {
    /// Host milliseconds the detection run took.
    pub ms: f64,
    /// Whether the Auto backend probed direct execution and fell back.
    pub fallback: bool,
}

/// One traced sweep: its wall time, its runners and the pool's spans.
#[derive(Debug, Clone, Default)]
pub struct SweepSample {
    /// Host nanoseconds from sweep start to report.
    pub wall_ns: u64,
    /// Runners the sweep fanned out over.
    pub threads: usize,
    /// The `role-detect` span.
    pub role: Option<RoleSample>,
    /// `(ts, dur, index)` of every simulated candidate.
    pub candidates: Vec<(u64, u64, usize)>,
    /// `(ts, dur, first, end)` of every claimed chunk.
    pub chunks: Vec<(u64, u64, usize, usize)>,
}

impl SweepSample {
    /// Keeps the host-track sweep spans of `spans`; kernel txn spans and
    /// gateway stage spans are ignored.
    pub fn from_spans(spans: &[CausalSpan], wall_ns: u64, threads: usize) -> Self {
        let mut s = SweepSample {
            wall_ns,
            threads,
            ..SweepSample::default()
        };
        for span in spans.iter().filter(|sp| sp.track == TRACK_HOST) {
            match span.stage.as_str() {
                "role-detect" => {
                    s.role = Some(RoleSample {
                        ms: span.dur_ns as f64 / 1e6,
                        fallback: arg(span, "backend_fallback").is_some(),
                    })
                }
                "candidate" if arg(span, "pruned").is_none() => {
                    let index = arg(span, "index").and_then(|v| v.parse().ok());
                    s.candidates
                        .push((span.ts_ns, span.dur_ns, index.unwrap_or(usize::MAX)));
                }
                "chunk" => {
                    if let Some((a, b)) = span.name.split_once("..") {
                        if let (Ok(a), Ok(b)) = (a.parse(), b.parse()) {
                            s.chunks.push((span.ts_ns, span.dur_ns, a, b));
                        }
                    }
                }
                _ => {}
            }
        }
        s
    }
}

fn arg<'a>(span: &'a CausalSpan, key: &str) -> Option<&'a str> {
    span.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn stage_ns(spans: &[CausalSpan], stage: &str) -> Option<u64> {
    spans.iter().find(|s| s.stage == stage).map(|s| s.dur_ns)
}

/// One traced gateway job as its client saw it.
#[derive(Debug, Clone)]
pub struct GatewaySample {
    /// Client wall time from writing the request to reading `Done`.
    pub client_ns: u64,
    /// The server's `gateway` span (whole residency).
    pub gateway_ns: u64,
    /// `admission` span.
    pub admission_ns: u64,
    /// `queue-wait` span.
    pub queue_ns: u64,
    /// `cache` span and its outcome (`hit`, `miss` or `wait`).
    pub cache: (u64, String),
    /// `exec` span (misses only).
    pub exec_ns: Option<u64>,
    /// The client expected this job to be a cache hit.
    pub expect_hit: bool,
    /// The server answered from its cache.
    pub cached: bool,
}

impl GatewaySample {
    /// Extracts the stage spans of one job; on a miss, also the sweep the
    /// executor ran (a hit's sweep spans replay the original run and are
    /// not new work).
    pub fn from_spans(
        spans: &[CausalSpan],
        client_ns: u64,
        expect_hit: bool,
        cached: bool,
        threads_per_job: usize,
    ) -> (Self, Option<SweepSample>) {
        let cache = spans
            .iter()
            .find(|s| s.stage == "cache")
            .map(|s| (s.dur_ns, arg(s, "outcome").unwrap_or("").to_string()))
            .unwrap_or_default();
        let exec_ns = stage_ns(spans, "exec");
        let sample = GatewaySample {
            client_ns,
            gateway_ns: stage_ns(spans, "gateway").unwrap_or(0),
            admission_ns: stage_ns(spans, "admission").unwrap_or(0),
            queue_ns: stage_ns(spans, "queue-wait").unwrap_or(0),
            cache,
            exec_ns,
            expect_hit,
            cached,
        };
        let sweep = exec_ns.map(|wall| SweepSample::from_spans(spans, wall, threads_per_job));
        (sample, sweep)
    }
}

/// Host cost and effort of one three-level design flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSample {
    /// Host seconds of the untimed component-assembly level.
    pub untimed_s: f64,
    /// Host seconds of the CCATB level.
    pub ccatb_s: f64,
    /// Host seconds of the pin-accurate level.
    pub pin_s: f64,
    /// Kernel delta cycles at the CCATB level.
    pub ccatb_deltas: u64,
    /// Kernel delta cycles at the pin-accurate level.
    pub pin_deltas: u64,
    /// Interconnect transactions at the CCATB level.
    pub ccatb_txns: u64,
    /// The untimed level's Auto backend fell back to the DE kernel.
    pub fallback: bool,
}

impl FlowSample {
    /// Projects a finished flow.
    pub fn of(run: &shiptlm::prelude::FlowRun) -> Self {
        let ca = &run.component_assembly;
        let pin = run.pin_accurate.as_ref();
        FlowSample {
            untimed_s: ca.output.wall_seconds,
            ccatb_s: run.ccatb.output.wall_seconds,
            pin_s: pin.map_or(0.0, |p| p.output.wall_seconds),
            ccatb_deltas: run.ccatb.output.delta_cycles,
            pin_deltas: pin.map_or(0, |p| p.output.delta_cycles),
            ccatb_txns: run.ccatb.bus.transactions,
            fallback: ca.backend.fallback.is_some(),
        }
    }
}

/// Everything the traced pass samples, by layer.
#[derive(Debug, Default)]
pub struct Bags {
    /// Traced gateway jobs.
    pub gateway: Vec<GatewaySample>,
    /// Gateway cache evictions and jobs served, from the gateway's counters.
    pub evictions: (u64, u64),
    /// Traced sweeps (in-process, or run by the gateway on a miss).
    pub sweeps: Vec<SweepSample>,
    /// Design flows.
    pub flows: Vec<FlowSample>,
}

/// A short traced session of one layer group, run when the workload's own
/// traced pass left metrics of that group without samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Session {
    /// A fresh gateway: distinct jobs, then the same jobs as hits.
    Gateway,
    /// Traced in-process sweeps of the grid.
    Sweep,
    /// One round of the flow-levels families.
    Flow,
}

/// The session that samples `metric`; `None` for probe metrics.
pub fn session_of(metric: &str) -> Option<Session> {
    match metric {
        m if m.starts_with("gateway.") => Some(Session::Gateway),
        m if m.starts_with("flow.") => Some(Session::Flow),
        "kernel.ns_per_delta.ccatb"
        | "kernel.ns_per_delta.pin"
        | "cam.txn_ns"
        | "cam.deltas_per_txn" => Some(Session::Flow),
        "sweep.candidate_ms_p50"
        | "pool.busy_frac"
        | "pool.chunk_self_us_p50"
        | "mapper.role_detect_ms_p50"
        | "mapper.auto_fallback_frac" => Some(Session::Sweep),
        _ => None,
    }
}

fn put(
    out: &mut BTreeMap<&'static str, Metric>,
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
) {
    out.insert(name, Metric { value, unit, n });
}

fn p(values: &[f64], level: f64) -> f64 {
    percentile(&sorted(values), level)
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The span- and output-derived per-layer metrics.
pub fn metrics(bags: &Bags) -> BTreeMap<&'static str, Metric> {
    let mut out = BTreeMap::new();
    let us = |ns: u64| ns as f64 / 1e3;

    // gateway server
    let g = &bags.gateway;
    let wire: Vec<f64> = g
        .iter()
        .map(|j| us(j.client_ns.saturating_sub(j.gateway_ns)))
        .collect();
    put(
        &mut out,
        "gateway.wire_us_p50",
        p(&wire, 50.0),
        "us",
        wire.len(),
    );
    let adm: Vec<f64> = g.iter().map(|j| us(j.admission_ns)).collect();
    put(
        &mut out,
        "gateway.admission_us_p50",
        p(&adm, 50.0),
        "us",
        adm.len(),
    );
    let queue: Vec<f64> = g.iter().map(|j| us(j.queue_ns)).collect();
    put(
        &mut out,
        "gateway.queue_wait_us_p50",
        p(&queue, 50.0),
        "us",
        queue.len(),
    );
    put(
        &mut out,
        "gateway.queue_wait_ms_p99",
        p(&queue, 99.0) / 1e3,
        "ms",
        queue.len(),
    );
    let exec: Vec<f64> = g
        .iter()
        .filter_map(|j| j.exec_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    put(
        &mut out,
        "gateway.exec_ms_p50",
        p(&exec, 50.0),
        "ms",
        exec.len(),
    );
    let hits: Vec<f64> = g
        .iter()
        .filter(|j| j.cache.1 == "hit")
        .map(|j| us(j.cache.0))
        .collect();
    put(
        &mut out,
        "gateway.cache_hit_us_p50",
        p(&hits, 50.0),
        "us",
        hits.len(),
    );
    let (evictions, served) = bags.evictions;
    put(
        &mut out,
        "gateway.evictions_per_job",
        frac(evictions as f64, served as f64),
        "count",
        served as usize,
    );
    let expected: Vec<&GatewaySample> = g.iter().filter(|j| j.expect_hit).collect();
    let missed = expected.iter().filter(|j| !j.cached).count();
    put(
        &mut out,
        "gateway.unexpected_miss_frac",
        frac(missed as f64, expected.len() as f64),
        "frac",
        expected.len(),
    );

    // explore::mapper (role detection runs in sweeps and in flows)
    let roles: Vec<RoleSample> = bags
        .sweeps
        .iter()
        .filter_map(|s| s.role)
        .chain(bags.flows.iter().map(|f| RoleSample {
            ms: f.untimed_s * 1e3,
            fallback: f.fallback,
        }))
        .collect();
    let role_ms: Vec<f64> = roles.iter().map(|r| r.ms).collect();
    put(
        &mut out,
        "mapper.role_detect_ms_p50",
        p(&role_ms, 50.0),
        "ms",
        roles.len(),
    );
    let fell_back = roles.iter().filter(|r| r.fallback).count();
    put(
        &mut out,
        "mapper.auto_fallback_frac",
        frac(fell_back as f64, roles.len() as f64),
        "frac",
        roles.len(),
    );

    // explore::sweep / pool
    let cand: Vec<f64> = bags
        .sweeps
        .iter()
        .flat_map(|s| s.candidates.iter().map(|c| c.1 as f64 / 1e6))
        .collect();
    put(
        &mut out,
        "sweep.candidate_ms_p50",
        p(&cand, 50.0),
        "ms",
        cand.len(),
    );
    let busy: f64 = bags
        .sweeps
        .iter()
        .flat_map(|s| s.candidates.iter().map(|c| c.1 as f64))
        .sum();
    let capacity: f64 = bags
        .sweeps
        .iter()
        .map(|s| s.threads as f64 * s.wall_ns as f64)
        .sum();
    put(
        &mut out,
        "pool.busy_frac",
        frac(busy, capacity),
        "frac",
        bags.sweeps.len(),
    );
    let chunk_self: Vec<f64> = bags
        .sweeps
        .iter()
        .flat_map(|s| {
            s.chunks.iter().map(|&(ts, dur, a, b)| {
                let children: Vec<(u64, u64)> = s
                    .candidates
                    .iter()
                    .filter(|c| (a..b).contains(&c.2))
                    .map(|c| (c.0, c.1))
                    .collect();
                us(self_time((ts, dur), &children))
            })
        })
        .collect();
    put(
        &mut out,
        "pool.chunk_self_us_p50",
        p(&chunk_self, 50.0),
        "us",
        chunk_self.len(),
    );

    // core::flow levels, kernel and CAM effort
    let f = &bags.flows;
    let level = |get: fn(&FlowSample) -> f64| -> Vec<f64> { f.iter().map(get).collect() };
    put(
        &mut out,
        "flow.untimed_ms_p50",
        p(&level(|s| s.untimed_s * 1e3), 50.0),
        "ms",
        f.len(),
    );
    put(
        &mut out,
        "flow.ccatb_ms_p50",
        p(&level(|s| s.ccatb_s * 1e3), 50.0),
        "ms",
        f.len(),
    );
    put(
        &mut out,
        "flow.pin_ms_p50",
        p(&level(|s| s.pin_s * 1e3), 50.0),
        "ms",
        f.len(),
    );
    let sum = |get: fn(&FlowSample) -> f64| -> f64 { f.iter().map(get).sum() };
    let pin_s = sum(|s| s.pin_s);
    let all_s = sum(|s| s.untimed_s + s.ccatb_s + s.pin_s);
    put(
        &mut out,
        "flow.pin_share",
        frac(pin_s, all_s),
        "frac",
        f.len(),
    );
    let ccatb_s = sum(|s| s.ccatb_s);
    let ccatb_deltas = sum(|s| s.ccatb_deltas as f64);
    let pin_deltas = sum(|s| s.pin_deltas as f64);
    let txns = sum(|s| s.ccatb_txns as f64);
    put(
        &mut out,
        "kernel.ns_per_delta.ccatb",
        frac(ccatb_s * 1e9, ccatb_deltas),
        "ns",
        f.len(),
    );
    put(
        &mut out,
        "kernel.ns_per_delta.pin",
        frac(pin_s * 1e9, pin_deltas),
        "ns",
        f.len(),
    );
    put(
        &mut out,
        "cam.txn_ns",
        frac(ccatb_s * 1e9, txns),
        "ns",
        f.len(),
    );
    put(
        &mut out,
        "cam.deltas_per_txn",
        frac(ccatb_deltas, txns),
        "count",
        f.len(),
    );
    out
}
