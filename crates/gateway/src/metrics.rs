//! Gateway-local metrics and the `/metrics` Prometheus endpoint.
//!
//! Rendering goes through [`shiptlm_kernel::metrics::prom_name`],
//! [`prom_label`] and [`prom_histogram`] so the gateway's exposition is
//! character-for-character consistent with the kernel exporter — including
//! label-value escaping, which matters here because one label (`model`)
//! carries *user-supplied* model names straight off the wire.
//!
//! Besides the job counters, the gateway exports per-stage latency
//! histograms mirroring the causal span stages, all kernel
//! [`Histogram`]s of host nanoseconds: `job_host_ns` (every completed job),
//! `queue_wait_ns` (admission enqueue → executor pop), `cache_wait_ns`
//! (host time of jobs answered from the cache, including single-flight
//! waits), and `exec_ns` (host time of jobs that ran a sweep).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use shiptlm_kernel::metrics::{prom_histogram, prom_label, prom_name};
use shiptlm_kernel::stats::Histogram;

use crate::lock;

/// The host-time histograms (nanoseconds) and per-model job counts: the
/// state that sits behind the one metrics lock.
#[derive(Debug, Default)]
struct Timings {
    /// Completed jobs (cached or not).
    host: Histogram,
    /// Admission enqueue → executor pop.
    queue_wait: Histogram,
    /// Jobs answered from the cache (hits and single-flight waits).
    cache_wait: Histogram,
    /// Jobs that actually ran a sweep.
    exec: Histogram,
    /// Completed-job counts keyed by (untrusted) model name.
    per_model: BTreeMap<String, u64>,
}

/// Counters, gauges and histograms for one gateway instance. Cheap to share
/// behind an [`Arc`]; counters and gauges are updated lock-free, the
/// histograms and the per-model map under one mutex.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// Jobs currently queued for admission (gauge).
    queue_depth: AtomicU64,
    /// Jobs currently executing on the pool (gauge).
    jobs_inflight: AtomicU64,
    /// Jobs answered from the content-addressed cache.
    cache_hits: AtomicU64,
    /// Jobs that ran a sweep.
    cache_misses: AtomicU64,
    /// Jobs bounced by admission control.
    rejected: AtomicU64,
    /// Request frames that failed to decode.
    decode_errors: AtomicU64,
    /// Result-cache entries evicted by the LRU bound (sampled counter).
    cache_evictions: AtomicU64,
    /// Approximate result-cache heap bytes (sampled gauge).
    cache_bytes: AtomicU64,
    /// Kernel txn-recorder ring events dropped across traced jobs.
    txn_dropped: AtomicU64,
    /// Stage histograms and per-model counts.
    timings: Mutex<Timings>,
}

impl GatewayMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        GatewayMetrics::default()
    }

    /// Records a job entering the admission queue.
    pub fn queue_push(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job leaving the admission queue after `waited` in it.
    pub fn queue_pop(&self, waited: Duration) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        lock(&self.timings).queue_wait.record(waited.as_nanos() as u64);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Records a job starting execution.
    pub fn job_started(&self) {
        self.jobs_inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job finishing execution (cached or not), with its host
    /// time and the model name it carried. The host time also lands in the
    /// stage histogram matching how the job resolved: `cache_wait_ns` when
    /// served from the cache, `exec_ns` when it ran a sweep.
    pub fn job_finished(&self, model: &str, host: Duration, cached: bool) {
        self.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
        let ns = host.as_nanos() as u64;
        let mut t = lock(&self.timings);
        if cached {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            t.cache_wait.record(ns);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            t.exec.record(ns);
        }
        t.host.record(ns);
        *t.per_model.entry(model.to_string()).or_insert(0) += 1;
    }

    /// Records an admission rejection.
    pub fn job_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request frame that failed to decode.
    pub fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples the result cache's eviction counter and byte gauge (both
    /// owned by the cache; the executor mirrors them here after each job).
    pub fn sample_cache(&self, evictions: u64, bytes: u64) {
        self.cache_evictions.store(evictions, Ordering::Relaxed);
        self.cache_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Adds kernel txn-recorder ring drops observed by one freshly
    /// computed job.
    pub fn add_txn_dropped(&self, dropped: u64) {
        if dropped > 0 {
            self.txn_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Jobs currently executing.
    pub fn jobs_inflight(&self) -> u64 {
        self.jobs_inflight.load(Ordering::Relaxed)
    }

    /// Total cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Total cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Total admission rejections so far.
    pub fn rejections(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Total txn-recorder ring drops observed so far.
    pub fn txn_dropped(&self) -> u64 {
        self.txn_dropped.load(Ordering::Relaxed)
    }

    /// Last-sampled result-cache eviction count.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text 0.0.4 exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let gauge = |out: &mut String, family: &str, v: u64| {
            let name = prom_name(family);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        };
        let counter = |out: &mut String, family: &str, v: u64| {
            let name = prom_name(family);
            out.push_str(&format!("# TYPE {name} counter\n{name}_total {v}\n"));
        };
        gauge(&mut out, "gateway.queue_depth", self.queue_depth());
        gauge(
            &mut out,
            "gateway.jobs_inflight",
            self.jobs_inflight.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "gateway.cache_bytes",
            self.cache_bytes.load(Ordering::Relaxed),
        );
        counter(&mut out, "gateway.cache_hits", self.cache_hits());
        counter(&mut out, "gateway.cache_misses", self.cache_misses());
        counter(&mut out, "gateway.cache_evictions", self.cache_evictions());
        counter(&mut out, "gateway.jobs_rejected", self.rejections());
        counter(
            &mut out,
            "gateway.decode_errors",
            self.decode_errors.load(Ordering::Relaxed),
        );
        counter(&mut out, "gateway.txn_trace_dropped", self.txn_dropped());

        let t = lock(&self.timings);
        let histogram = |out: &mut String, family: &str, h: &Histogram| {
            let name = prom_name(family);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            prom_histogram(out, &name, "", h);
        };
        histogram(&mut out, "gateway.job_host_ns", &t.host);
        histogram(&mut out, "gateway.queue_wait_ns", &t.queue_wait);
        histogram(&mut out, "gateway.cache_wait_ns", &t.cache_wait);
        histogram(&mut out, "gateway.exec_ns", &t.exec);

        let jobs = prom_name("gateway.jobs");
        out.push_str(&format!("# TYPE {jobs} counter\n"));
        for (model, count) in &t.per_model {
            out.push_str(&format!(
                "{jobs}_total{{model=\"{}\"}} {count}\n",
                prom_label(model)
            ));
        }
        out
    }
}

/// Serves `GET /metrics` over plain HTTP/1.0 until `shutdown` is set.
///
/// Returns the join handle; the listener must already be bound and in
/// non-blocking mode is *not* required — this function sets it.
///
/// # Errors
///
/// Propagates the `set_nonblocking` failure, the only fallible setup step.
pub(crate) fn spawn_metrics_server(
    listener: TcpListener,
    metrics: Arc<GatewayMetrics>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    Ok(std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => serve_one(stream, &metrics),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }))
}

fn serve_one(mut stream: std::net::TcpStream, metrics: &GatewayMetrics) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap_or(0);
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let response = if path == "/metrics" {
        let body = metrics.to_prometheus();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Fetches `path` from an HTTP/1.0 server at `addr` and returns the body.
///
/// A test/client convenience kept next to the server so the soak test and
/// the smoke example scrape `/metrics` without an HTTP dependency.
///
/// # Errors
///
/// Returns a description of connection, read, or status-line failures.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: gateway\r\n\r\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("unexpected status line '{status}'"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiptlm_testkit::prom::{PromKind, PromText};

    #[test]
    fn exposition_parses_and_counts_match() {
        let m = GatewayMetrics::new();
        m.queue_push();
        m.queue_push();
        m.queue_pop(Duration::from_millis(2));
        m.job_started();
        m.job_finished("alpha", Duration::from_millis(3), false);
        m.job_started();
        m.job_finished("alpha", Duration::from_millis(700), true);
        m.job_rejected();
        let text = m.to_prometheus();
        let parsed = PromText::parse(&text).unwrap();
        assert_eq!(
            parsed.types.get("shiptlm_gateway_job_host_ns"),
            Some(&PromKind::Histogram)
        );
        let depth = parsed
            .samples
            .iter()
            .find(|s| s.name == "shiptlm_gateway_queue_depth")
            .unwrap();
        assert_eq!(depth.value, 1.0);
        let hits = parsed
            .samples
            .iter()
            .find(|s| s.name == "shiptlm_gateway_cache_hits_total")
            .unwrap();
        assert_eq!(hits.value, 1.0);
        let alpha = parsed
            .sample("shiptlm_gateway_jobs_total", "model", "alpha")
            .unwrap();
        assert_eq!(alpha.value, 2.0);
        // Histogram buckets are cumulative and the count covers both jobs.
        let count = parsed
            .samples
            .iter()
            .find(|s| s.name == "shiptlm_gateway_job_host_ns_count")
            .unwrap();
        assert_eq!(count.value, 2.0);
    }

    #[test]
    fn stage_histograms_split_cached_from_executed() {
        let m = GatewayMetrics::new();
        m.queue_push();
        m.queue_pop(Duration::from_millis(5));
        m.job_started();
        m.job_finished("m", Duration::from_millis(40), false);
        m.job_started();
        m.job_finished("m", Duration::from_millis(1), true);
        {
            let t = lock(&m.timings);
            assert_eq!(t.exec.count(), 1);
            assert_eq!(t.cache_wait.count(), 1);
            assert_eq!(t.queue_wait.count(), 1);
        }
        let parsed = PromText::parse(&m.to_prometheus()).unwrap();
        for family in [
            "shiptlm_gateway_queue_wait_ns",
            "shiptlm_gateway_cache_wait_ns",
            "shiptlm_gateway_exec_ns",
        ] {
            assert_eq!(
                parsed.types.get(family),
                Some(&PromKind::Histogram),
                "{family} must be exported as a histogram"
            );
            let count = parsed
                .samples
                .iter()
                .find(|s| s.name == format!("{family}_count"))
                .unwrap();
            assert_eq!(count.value, 1.0, "{family} saw exactly one observation");
        }
    }

    /// The smallest `le` bound whose cumulative count reaches `n` in the
    /// (label-free) histogram family `family`.
    fn first_le_reaching(parsed: &PromText, family: &str, n: f64) -> f64 {
        parsed
            .samples
            .iter()
            .filter(|s| s.name == format!("{family}_bucket") && s.value >= n)
            .filter_map(|s| s.label("le")?.parse::<f64>().ok())
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn stage_histograms_resolve_sub_millisecond_jobs() {
        // A ~50 µs cache hit and a ~900 µs sweep both used to land in the
        // whole-millisecond `le="1"` bucket; nanosecond buckets tell them
        // apart.
        let m = GatewayMetrics::new();
        m.job_started();
        m.job_finished("m", Duration::from_micros(50), true);
        m.job_started();
        m.job_finished("m", Duration::from_micros(900), false);
        let parsed = PromText::parse(&m.to_prometheus()).unwrap();
        let hit = first_le_reaching(&parsed, "shiptlm_gateway_cache_wait_ns", 1.0);
        let miss = first_le_reaching(&parsed, "shiptlm_gateway_exec_ns", 1.0);
        assert!((50_000.0..100_000.0).contains(&hit), "hit bucket le={hit}");
        assert!(
            (900_000.0..1_800_000.0).contains(&miss),
            "miss bucket le={miss}"
        );
        // Both jobs share `job_host_ns`, in two different buckets.
        let host = "shiptlm_gateway_job_host_ns";
        assert_eq!(first_le_reaching(&parsed, host, 1.0), hit);
        assert_eq!(first_le_reaching(&parsed, host, 2.0), miss);
    }

    #[test]
    fn cache_and_txn_drop_families_render() {
        let m = GatewayMetrics::new();
        m.sample_cache(3, 4096);
        m.add_txn_dropped(7);
        m.add_txn_dropped(0); // no-op
        let parsed = PromText::parse(&m.to_prometheus()).unwrap();
        let bytes = parsed
            .samples
            .iter()
            .find(|s| s.name == "shiptlm_gateway_cache_bytes")
            .unwrap();
        assert_eq!(bytes.value, 4096.0);
        let evictions = parsed
            .samples
            .iter()
            .find(|s| s.name == "shiptlm_gateway_cache_evictions_total")
            .unwrap();
        assert_eq!(evictions.value, 3.0);
        let dropped = parsed
            .samples
            .iter()
            .find(|s| s.name == "shiptlm_gateway_txn_trace_dropped_total")
            .unwrap();
        assert_eq!(dropped.value, 7.0);
    }

    #[test]
    fn hostile_model_names_render_and_round_trip() {
        let m = GatewayMetrics::new();
        let nasty = "mo\"del\\with}newline\nand,comma";
        m.job_started();
        m.job_finished(nasty, Duration::from_millis(1), false);
        let text = m.to_prometheus();
        let parsed = PromText::parse(&text).unwrap();
        let sample = parsed
            .sample("shiptlm_gateway_jobs_total", "model", nasty)
            .expect("escaped label value must round-trip through the parser");
        assert_eq!(sample.value, 1.0);
    }

    #[test]
    fn http_endpoint_serves_metrics() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics = Arc::new(GatewayMetrics::new());
        metrics.job_rejected();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle =
            spawn_metrics_server(listener, Arc::clone(&metrics), Arc::clone(&shutdown)).unwrap();
        let body = http_get(addr, "/metrics").unwrap();
        let parsed = PromText::parse(&body).unwrap();
        let rejected = parsed
            .samples
            .iter()
            .find(|s| s.name == "shiptlm_gateway_jobs_rejected_total")
            .unwrap();
        assert_eq!(rejected.value, 1.0);
        assert!(http_get(addr, "/nope").is_err());
        shutdown.store(true, Ordering::Release);
        handle.join().unwrap();
    }
}
