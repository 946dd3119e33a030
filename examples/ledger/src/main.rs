//! The layer ledger: one benchmark that prices shiptlm end to end and per
//! layer on four workloads.
//!
//! ```text
//! ledger --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--check]
//! ledger --compare A B [--repeat-dir]
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing off.
//! With `--trace 1` it measures the per-layer metrics: a traced pass of the
//! workload, spans and outputs the program already emits, and isolated
//! probes of single layers. Each run prints one line per metric
//! (`<workload> <metric> <value> <unit> n=<samples>`), a `record` line with
//! the full result, and, last, a one-line JSON summary.

mod calib;
mod compare;
mod flow_levels;
mod gateway;
mod inputs;
mod layers;
mod probes;
mod stats;
mod sweep_grid;

use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use shiptlm::prelude::AppSpec;
use shiptlm::ship::prelude::ShipSerialize;
use shiptlm_gateway::prelude::ReportRow;
use shiptlm_testkit::json::Json;

use crate::layers::{Bags, Session};
use crate::stats::{median, percentile, sorted, tail_level, Fnv};

/// The seed the golden digests belong to.
const DEFAULT_SEED: u64 = 1;

/// Measured seconds per run when `--seconds` is not given; matches
/// `run_seconds` in `BENCHMARK.json`. Shorter runs are recorded as `quick`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Row digests of every workload at `DEFAULT_SEED`.
const GOLDEN: &str = include_str!("../golden.json");

const WORKLOADS: [&str; 4] = ["sweep-grid", "flow-levels", "gateway-cold", "gateway-mixed"];

/// End-to-end metrics (`--trace 0`), with units.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 38] = [
    ("gateway.wire_us_p50", "us"),
    ("gateway.admission_us_p50", "us"),
    ("gateway.queue_wait_us_p50", "us"),
    ("gateway.queue_wait_ms_p99", "ms"),
    ("gateway.exec_ms_p50", "ms"),
    ("gateway.cache_hit_us_p50", "us"),
    ("gateway.evictions_per_job", "count"),
    ("gateway.unexpected_miss_frac", "frac"),
    ("codec.bin.request_us", "us"),
    ("codec.json.request_us", "us"),
    ("codec.bin.reply_us", "us"),
    ("codec.json.reply_us", "us"),
    ("cache.key_us", "us"),
    ("cache.hit_us", "us"),
    ("cache.insert_evict_us", "us"),
    ("mapper.role_detect_ms_p50", "ms"),
    ("mapper.auto_fallback_frac", "frac"),
    ("mapper.role_detect_de_ms", "ms"),
    ("sweep.candidate_ms_p50", "ms"),
    ("pool.busy_frac", "frac"),
    ("pool.chunk_self_us_p50", "us"),
    ("pool.claim_ns", "ns"),
    ("sweep.parallel_speedup", "ratio"),
    ("sweep.contention", "ratio"),
    ("flow.untimed_ms_p50", "ms"),
    ("flow.ccatb_ms_p50", "ms"),
    ("flow.pin_ms_p50", "ms"),
    ("flow.pin_share", "frac"),
    ("kernel.switch_ns", "ns"),
    ("kernel.spawn_us", "us"),
    ("kernel.ns_per_delta.ccatb", "ns"),
    ("kernel.ns_per_delta.pin", "ns"),
    ("ship.rendezvous_ns", "ns"),
    ("cam.txn_ns", "ns"),
    ("cam.deltas_per_txn", "count"),
    ("cam.arb_ns", "ns"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, in `unit`.
    pub value: f64,
    /// Unit name as printed.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// One timed pass of a workload's load.
#[derive(Debug, Default)]
pub struct Segment {
    /// Seconds from the first request to the last completion.
    pub elapsed: f64,
    /// Work units completed correctly (candidates, flows or jobs).
    pub work: u64,
    /// Work units attempted.
    pub attempted: u64,
    /// Work units failed, rejected or incorrect.
    pub failed: u64,
    /// Latency of each request as its user waits for it.
    pub latencies_ms: Vec<f64>,
    /// How late the load generator issued each request.
    pub lag_ms: Vec<f64>,
}

/// The correctness verdict of a finished workload.
#[derive(Debug)]
pub struct Check {
    /// Results that differed from their reference, beyond those the load's
    /// segments already counted as failed.
    pub mismatches: u64,
    /// FNV-1a 64 over the canonical encoding of the workload's fixed
    /// result set.
    pub digest: u64,
}

/// A workload, set up and ready to run.
pub trait Load {
    /// Runs `ops` of the workload's requests; a traced pass also fills
    /// `bags`. `speed` is the host's speed (see `calib`); an open loop
    /// offers its reference rate scaled by it.
    fn run(&mut self, ops: u64, speed: f64, bags: Option<&mut Bags>) -> Segment;
    /// Shuts the load down and checks its results against references.
    fn finish(self: Box<Self>) -> Check;
    /// The models whose roles this workload detects.
    fn role_models(&self) -> Vec<AppSpec>;
}

/// Feeds the canonical binary encoding of `rows` into `h`.
pub fn feed_rows(h: &mut Fnv, rows: &[ReportRow]) {
    let mut w = shiptlm::ship::prelude::ByteWriter::new();
    for row in rows {
        row.serialize(&mut w);
    }
    h.write(w.as_bytes());
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    check: bool,
    compare: Option<(String, String)>,
    repeat_dir: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        check: false,
        compare: None,
        repeat_dir: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--check" => args.check = true,
            "--compare" => {
                let a = value()?;
                let b = it.next().ok_or("--compare needs two paths")?;
                args.compare = Some((a, b));
            }
            "--repeat-dir" => args.repeat_dir = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.compare.is_none() {
        match args.workload.as_deref() {
            Some("all") => {}
            Some(w) if WORKLOADS.contains(&w) => {}
            Some(w) => return Err(format!("unknown workload {w}; one of {WORKLOADS:?} or all")),
            None => return Err("--workload is required".into()),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn setup(workload: &str, seed: u64, threads: usize) -> Box<dyn Load> {
    match workload {
        "sweep-grid" => Box::new(sweep_grid::setup(seed, threads)),
        "flow-levels" => Box::new(flow_levels::setup(seed)),
        "gateway-cold" => Box::new(gateway::setup_cold(seed)),
        "gateway-mixed" => Box::new(gateway::setup_mixed(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Ends the process when a workload outlives its wall deadline, so a hang
/// fails loudly instead of stalling the caller.
struct Watchdog {
    disarm: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn arm(workload: &str, deadline: Duration) -> Watchdog {
        let (disarm, rx) = mpsc::channel::<()>();
        let workload = workload.to_string();
        let thread = std::thread::spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(deadline) {
                eprintln!("ledger: {workload} passed its {deadline:?} wall deadline; aborting");
                std::process::exit(3);
            }
        });
        Watchdog { disarm, thread }
    }

    fn disarm(self) {
        let _ = self.disarm.send(());
        let _ = self.thread.join();
    }
}

/// The result of one workload run.
struct Record {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: u64,
    golden: Option<u64>,
    /// Median host speed over the measured windows (see `calib`).
    host_speed: f64,
    metrics: BTreeMap<&'static str, Metric>,
    /// Unscaled values of the host-time end-to-end metrics.
    raw: BTreeMap<&'static str, f64>,
}

fn golden(seed: u64, workload: &str) -> Option<u64> {
    let golden = Json::parse(GOLDEN).expect("golden.json parses");
    if golden.get("seed").and_then(Json::as_u64_str) != Some(seed) {
        return None;
    }
    golden
        .get(workload)
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

/// How a workload's load is cut into measurement windows. Each run does a
/// fixed number of windows sized from `--seconds`, so what it measures
/// (memory included) does not depend on how fast the host was.
struct Shape {
    /// Requests per window: sweeps, flow rounds, jobs or arrivals.
    ops: u64,
    /// The window's length at the reference host speed.
    seconds: f64,
}

fn shape(workload: &str) -> Shape {
    let (ops, seconds) = match workload {
        "sweep-grid" => (1, 1.3),
        "flow-levels" => (1, 1.6),
        // A thousand jobs leave ten beyond a window's p99.
        "gateway-cold" => (1000, 2.3),
        "gateway-mixed" => (2000, 2.0),
        other => unreachable!("workload {other} was validated"),
    };
    Shape { ops, seconds }
}

/// One measured window and the host's speed over it.
struct Window {
    seg: Segment,
    speed: f64,
}

/// Runs up to `count` windows of `ops` requests, calibrating the host
/// between them; stops early past `deadline`.
fn measure(
    load: &mut dyn Load,
    count: usize,
    ops: u64,
    deadline: Instant,
    mut bags: Option<&mut Bags>,
) -> Vec<Window> {
    let mut windows = Vec::with_capacity(count);
    let mut before = calib::speed();
    while windows.len() < count && (windows.is_empty() || Instant::now() < deadline) {
        let seg = load.run(ops, before, bags.as_deref_mut());
        let after = calib::speed();
        windows.push(Window {
            seg,
            speed: (before * after).sqrt(),
        });
        before = after;
    }
    windows
}

/// Throughput and latency of `windows` with each window's host times
/// multiplied by `scale(window)`: `(throughput, p50, tail, samples)`. The
/// tail is the median over windows of each window's tail percentile, so one
/// window hit by a burst on the host does not set it.
fn summarize(windows: &[Window], scale: impl Fn(&Window) -> f64) -> (f64, f64, f64, usize) {
    let work: u64 = windows.iter().map(|w| w.seg.work).sum();
    let time: f64 = windows.iter().map(|w| w.seg.elapsed * scale(w)).sum();
    let per_window: Vec<Vec<f64>> = windows
        .iter()
        .map(|w| {
            sorted(
                &w.seg
                    .latencies_ms
                    .iter()
                    .map(|l| l * scale(w))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let tails: Vec<f64> = per_window
        .iter()
        .map(|lat| percentile(lat, tail_level(lat.len())))
        .collect();
    let all = sorted(&per_window.concat());
    (
        work as f64 / time,
        percentile(&all, 50.0),
        median(&tails),
        all.len(),
    )
}

/// The end-to-end load metrics, scaled to the reference host speed; the
/// raw values go to `raw`.
fn e2e_metrics(
    windows: &[Window],
    metrics: &mut BTreeMap<&'static str, Metric>,
    raw: &mut BTreeMap<&'static str, f64>,
) {
    let (tp, p50, tail, n) = summarize(windows, |w| w.speed);
    let work = windows.iter().map(|w| w.seg.work).sum::<u64>() as usize;
    metrics.insert(
        "throughput_per_s",
        Metric {
            value: tp,
            unit: "1/s",
            n: work,
        },
    );
    metrics.insert(
        "latency_ms_p50",
        Metric {
            value: p50,
            unit: "ms",
            n,
        },
    );
    metrics.insert(
        "latency_ms_tail",
        Metric {
            value: tail,
            unit: "ms",
            n,
        },
    );
    let (tp, p50, tail, _) = summarize(windows, |_| 1.0);
    raw.insert("throughput_per_s", tp);
    raw.insert("latency_ms_p50", p50);
    raw.insert("latency_ms_tail", tail);
}

fn run_workload(workload: &str, args: &Args) -> Record {
    let threads = nproc();
    let seconds = args.seconds;
    let watchdog = Watchdog::arm(workload, Duration::from_secs_f64(60.0 + 3.0 * seconds));
    let shape = shape(workload);
    let ops = shape.ops;
    let count = ((seconds / shape.seconds).round() as usize).max(1);
    let mut metrics = BTreeMap::new();
    let mut raw = BTreeMap::new();
    let mut windows = Vec::new();

    let mut load = if args.trace {
        setup(workload, args.seed, threads)
    } else {
        let (mut scaled, mut plain) = (Vec::new(), Vec::new());
        let mut load = None;
        let mut before = calib::speed();
        for _ in 0..SETUPS {
            drop(load.take());
            let t = Instant::now();
            load = Some(setup(workload, args.seed, threads));
            let took = t.elapsed().as_secs_f64();
            let after = calib::speed();
            scaled.push(took * (before * after).sqrt());
            plain.push(took);
            before = after;
        }
        metrics.insert(
            "setup_s",
            Metric {
                value: median(&scaled),
                unit: "s",
                n: SETUPS,
            },
        );
        raw.insert("setup_s", median(&plain));
        load.expect("at least one set-up")
    };

    // Past this point a slow run stops starting windows, well inside the
    // watchdog's deadline.
    let deadline = Instant::now() + Duration::from_secs_f64(2.5 * seconds);
    if !args.trace {
        windows = measure(load.as_mut(), count, ops, deadline, None);
        e2e_metrics(&windows, &mut metrics, &mut raw);
        metrics.insert(
            "peak_rss_mib",
            Metric {
                value: stats::peak_rss_mib(),
                unit: "MiB",
                n: 1,
            },
        );
    } else {
        let share = |f: f64| ((count as f64 * f).round() as usize).max(1);
        let plain = measure(load.as_mut(), share(0.25), ops, deadline, None);
        let mut bags = Bags::default();
        let traced = measure(load.as_mut(), share(0.35), ops, deadline, Some(&mut bags));
        let budget = Duration::from_secs_f64((seconds * 0.02).clamp(0.05, 0.5));
        metrics.extend(layers::metrics(&bags));
        for session in [Session::Gateway, Session::Sweep, Session::Flow] {
            let unsampled =
                |name: &str, m: &Metric| m.n == 0 && layers::session_of(name) == Some(session);
            if !metrics.iter().any(|(name, m)| unsampled(name, m)) {
                continue;
            }
            let mut sampled = Bags::default();
            match session {
                Session::Gateway => gateway::sample_session(args.seed, &mut sampled),
                Session::Sweep => {
                    sweep_grid::sample_sweeps(args.seed, threads, budget, &mut sampled)
                }
                Session::Flow => flow_levels::sample_round(args.seed, &mut sampled),
            }
            for (name, m) in layers::metrics(&sampled) {
                if unsampled(name, &metrics[name]) {
                    metrics.insert(name, m);
                }
            }
        }
        probes::gateway(args.seed, budget, &mut metrics);
        probes::pool(threads, budget, &mut metrics);
        probes::kernel(budget, &mut metrics);
        probes::role_detect_de(&load.role_models(), budget, &mut metrics);
        probes::sweep(args.seed, threads, budget, &mut metrics);
        let lag: Vec<f64> = sorted(
            &plain
                .iter()
                .flat_map(|w| w.seg.lag_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        metrics.insert(
            "loadgen.lag_ms_p99",
            Metric {
                value: percentile(&lag, 99.0),
                unit: "ms",
                n: lag.len(),
            },
        );
        let (_, base, _, _) = summarize(&plain, |w| w.speed);
        let (_, with, _, n) = summarize(&traced, |w| w.speed);
        metrics.insert(
            "trace.overhead_frac",
            Metric {
                value: with / base - 1.0,
                unit: "frac",
                n,
            },
        );
        windows.extend(plain);
        windows.extend(traced);
    }

    let check = load.finish();
    watchdog.disarm();
    let golden = golden(args.seed, workload);
    let attempted = windows.iter().map(|w| w.seg.attempted).sum();
    let off_golden = golden.is_some_and(|g| g != check.digest);
    let failed = check.mismatches
        + u64::from(off_golden)
        + windows.iter().map(|w| w.seg.failed).sum::<u64>();
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &E2E };
    let names: Vec<&str> = metrics.keys().copied().collect();
    let mut want: Vec<&str> = expected.iter().map(|m| m.0).collect();
    want.sort_unstable();
    assert_eq!(
        names, want,
        "the ledger measured exactly its declared metrics"
    );
    for m in metrics.values_mut() {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    let speeds: Vec<f64> = windows.iter().map(|w| w.speed).collect();
    Record {
        workload: workload.to_string(),
        correct: failed == 0,
        attempted,
        failed,
        digest: check.digest,
        golden,
        host_speed: median(&speeds),
        metrics,
        raw,
    }
}

fn metrics_json(metrics: &BTreeMap<&'static str, Metric>, with_n: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                if with_n {
                    fields.push(("n", Json::num(m.n as f64)));
                }
                (name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

impl Record {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            (
                "golden",
                self.golden
                    .map_or(Json::Null, |g| Json::str(format!("{g:016x}"))),
            ),
            ("host_speed", Json::Num(self.host_speed)),
            ("metrics", metrics_json(&self.metrics, true)),
            (
                "raw",
                Json::Obj(
                    self.raw
                        .iter()
                        .map(|(name, v)| (name.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn summary(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, false)),
        ])
    }
}

/// The commit the checkout is at, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        })
        .map_or_else(|| "unknown".into(), |r| r.trim().to_string())
}

fn write_results(path: &str, args: &Args, records: &[Json]) -> std::io::Result<()> {
    let workloads: BTreeMap<String, Json> = records
        .iter()
        .map(|r| {
            let name = r.get("workload").and_then(Json::as_str).unwrap_or_default();
            (name.to_string(), r.clone())
        })
        .collect();
    let doc = Json::obj([
        ("ledger", Json::num(1)),
        ("host_cores", Json::num(nproc() as f64)),
        ("git_rev", Json::str(git_rev())),
        ("seed", Json::u64_str(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.seconds < DEFAULT_SECONDS)),
        ("trace", Json::Bool(args.trace)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(path, format!("{doc}\n"))
}

fn print_record(r: &Record) {
    for (name, m) in &r.metrics {
        let raw = r
            .raw
            .get(name)
            .map(|v| format!(" raw={v}"))
            .unwrap_or_default();
        println!(
            "{} {name} {} {} n={}{raw}",
            r.workload, m.value, m.unit, m.n
        );
    }
    if r.golden.is_some_and(|g| g != r.digest) {
        eprintln!(
            "ledger: {} digest {:016x} differs from golden",
            r.workload, r.digest
        );
    }
    println!("record {}", r.to_json());
}

/// Runs every workload, each in its own process, and collects their records.
fn run_all(args: &Args) -> Result<(bool, Vec<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {w}: {e}"))?;
        let mut record = None;
        for line in std::io::BufReader::new(child.stdout.take().expect("piped")).lines() {
            let line = line.map_err(|e| e.to_string())?;
            match line.strip_prefix("record ") {
                Some(json) => record = Some(Json::parse(json)?),
                None => println!("{line}"),
            }
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let record = record
            .filter(|_| status.success())
            .ok_or_else(|| format!("{w} exited with {status}"))?;
        correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
        records.push(record);
    }
    Ok((correct, records))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b, args.repeat_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workload = args.workload.clone().expect("validated");
    let (correct, records) = if workload == "all" {
        match run_all(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ledger: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let record = run_workload(&workload, &args);
        print_record(&record);
        let summary = record.summary();
        let json = record.to_json();
        let correct = record.correct;
        if let Some(out) = &args.out {
            if let Err(e) = write_results(out, &args, &[json]) {
                eprintln!("ledger: writing {out}: {e}");
                return ExitCode::from(2);
            }
        }
        println!("{summary}");
        return if args.check && !correct {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    };
    if let Some(out) = &args.out {
        if let Err(e) = write_results(out, &args, &records) {
            eprintln!("ledger: writing {out}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{{\"correct\":{correct},\"workloads\":{}}}", records.len());
    if args.check && !correct {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_json_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "latency_ms_p50",
            Metric {
                value: 0.123_456_789_012_345_6,
                unit: "ms",
                n: 42,
            },
        );
        metrics.insert(
            "setup_s",
            Metric {
                value: 1.5,
                unit: "s",
                n: 3,
            },
        );
        let record = Record {
            workload: "gateway-cold".into(),
            correct: true,
            attempted: 7,
            failed: 0,
            digest: 0xdead_beef_0123_4567,
            golden: None,
            host_speed: 0.93,
            metrics,
            raw: BTreeMap::from([("setup_s", 1.7)]),
        };
        let text = record.to_json().to_string();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, record.to_json());
        let m = back
            .get("metrics")
            .and_then(|m| m.get("latency_ms_p50"))
            .expect("metric");
        assert_eq!(
            m.get("value").and_then(Json::as_num),
            Some(0.123_456_789_012_345_6)
        );
        assert_eq!(
            back.get("digest").and_then(Json::as_str),
            Some("deadbeef01234567")
        );
        let summary = Json::parse(&record.summary().to_string()).expect("parses");
        let Json::Obj(keys) = &summary else {
            panic!("object")
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_ledger_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&E2E));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let run_seconds = doc.get("run_seconds").and_then(Json::as_num);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }
}
