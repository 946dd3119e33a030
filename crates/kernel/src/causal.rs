//! Request-scoped causal tracing: one trace id following a job through
//! every layer of the stack.
//!
//! The [transaction recorder](crate::txn) answers "what did the *simulation*
//! do"; this module answers "where did the *job* go" — client submit,
//! gateway admission, queue wait, cache lookup, worker-pool chunk claiming,
//! per-candidate execution, backend probe/fallback — and stitches the
//! simulation-level [`TxnTrace`] spans underneath, so
//! a single Chrome/Perfetto export shows client-to-simulation causality
//! with correct parenting.
//!
//! Building blocks:
//!
//! * [`TraceCtx`] — the propagated context: a trace id plus the parent span
//!   id new spans should attach under. Minted once per job (client side or
//!   at admission) and carried across the wire.
//! * [`CausalSpan`] — one timed, named, parented span. Host-side spans live
//!   on track 0 with wall-clock-nanosecond timestamps relative to the job
//!   epoch; per-candidate simulation spans live on track `i + 1` with
//!   simulated-nanosecond timestamps.
//! * [`SpanSink`] — a cloneable, thread-safe collector threaded through the
//!   layers. Cost when absent: one `Option` check per decision point.
//! * [`CausalTrace`] — the merged result with the one Chrome `trace_event`
//!   exporter, also used for a standalone [`TxnTrace`] via
//!   `CausalTrace::from(&txn)`; it carries the recorder's ring drops.
//!
//! Span ids are process-global and never reused; parent links are carried
//! in the exported `args` (`span_id` / `parent_id` / `trace_id`), which is
//! what the testkit causal parser validates.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::{self, Write as _};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Quoted;
use crate::txn::TxnTrace;

/// Process-global span-id allocator. Span id 0 is reserved to mean "no
/// parent / root of this collection" so cached span sets can be re-parented
/// when replayed under a new trace.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh, process-unique span id (never 0).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The propagated causal context: which trace a span belongs to and which
/// span it should be parented under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The request-scoped trace id shared by every span of one job.
    pub trace_id: u64,
    /// Span id new children should attach under (0 = trace root).
    pub parent_span: u64,
}

impl TraceCtx {
    /// Mints a fresh context with a new trace id and no parent. The id
    /// mixes wall-clock nanoseconds with a process-global counter so ids
    /// from different processes collide only astronomically rarely.
    pub fn mint() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // SplitMix64 finalizer over (time ^ counter): cheap, well mixed.
        let mut z = nanos ^ next_span_id().rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        TraceCtx {
            trace_id: z.max(1),
            parent_span: 0,
        }
    }

    /// The same trace, re-rooted under `span_id` — what a layer passes to
    /// the layer below after opening its own span.
    pub fn child(self, span_id: u64) -> Self {
        TraceCtx {
            trace_id: self.trace_id,
            parent_span: span_id,
        }
    }
}

/// Which timeline a span's timestamps are on.
///
/// Encoded as a `u32`: `0` is the host wall-clock track (nanoseconds since
/// the job epoch); `i + 1` is candidate `i`'s simulated-time track
/// (simulated nanoseconds). Each track becomes one `pid` in the Chrome
/// export so host and per-candidate timelines render side by side without
/// pretending wall time and simulated time share an axis.
pub type SpanTrack = u32;

/// The host wall-clock track.
pub const TRACK_HOST: SpanTrack = 0;

/// The simulated-time track of candidate `index`.
pub const fn track_for_candidate(index: usize) -> SpanTrack {
    index as SpanTrack + 1
}

/// One completed causal span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalSpan {
    /// Trace id (0 in trace-neutral cached sets, stamped at replay).
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span_id: u64,
    /// Parent span id; 0 marks the root(s) of this collection, re-parented
    /// by [`stamp`] when the set is attached under an outer span.
    pub parent_id: u64,
    /// Pipeline stage, from a small closed vocabulary: `job`, `gateway`,
    /// `admission`, `queue-wait`, `cache`, `exec`, `role-detect`, `chunk`,
    /// `candidate`, `txn`.
    pub stage: String,
    /// Human-readable label (candidate arch, txn op, …).
    pub name: String,
    /// Timeline: [`TRACK_HOST`] or [`track_for_candidate`].
    pub track: SpanTrack,
    /// Start, in nanoseconds on the track's timebase (host-ns since the
    /// job epoch for track 0, simulated ns otherwise).
    pub ts_ns: u64,
    /// Duration in nanoseconds on the same timebase.
    pub dur_ns: u64,
    /// Free-form key/value annotations (backend decisions, cache outcome,
    /// prune verdicts).
    pub args: Vec<(String, String)>,
}

impl CausalSpan {
    /// Builds a span with a freshly allocated id under `ctx`.
    pub fn new(ctx: TraceCtx, stage: &str, name: impl Into<String>, track: SpanTrack) -> Self {
        CausalSpan {
            trace_id: ctx.trace_id,
            span_id: next_span_id(),
            parent_id: ctx.parent_span,
            stage: stage.to_string(),
            name: name.into(),
            track,
            ts_ns: 0,
            dur_ns: 0,
            args: Vec::new(),
        }
    }

    /// Adds one key/value annotation (builder style).
    pub fn arg(mut self, key: &str, value: impl Into<String>) -> Self {
        self.args.push((key.to_string(), value.into()));
        self
    }

    /// Sets the timing (builder style).
    pub fn at(mut self, ts_ns: u64, dur_ns: u64) -> Self {
        self.ts_ns = ts_ns;
        self.dur_ns = dur_ns;
        self
    }

    /// The simulation process a `txn` span ran in (its `process` arg).
    fn process(&self) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == "process")
            .map(|(_, v)| v.as_str())
    }
}

/// Re-stamps a trace-neutral span set (trace id 0, roots with parent 0)
/// under a concrete [`TraceCtx`]: every span gets `ctx.trace_id`, and spans
/// whose parent is 0 are attached under `ctx.parent_span`. This is how a
/// cached job's spans are replayed for a second requester under *its*
/// trace id without re-running anything.
pub fn stamp(spans: &mut [CausalSpan], ctx: TraceCtx) {
    for s in spans.iter_mut() {
        s.trace_id = ctx.trace_id;
        if s.parent_id == 0 {
            s.parent_id = ctx.parent_span;
        }
    }
}

/// Strips a span set back to trace-neutral form: trace id 0 everywhere,
/// and any parent id not present inside the set itself becomes 0 (a root).
/// The inverse of [`stamp`], applied before inserting into a result cache.
pub fn neutralize(spans: &mut [CausalSpan]) {
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    for s in spans.iter_mut() {
        s.trace_id = 0;
        if !ids.contains(&s.parent_id) {
            s.parent_id = 0;
        }
    }
}

/// A cloneable, thread-safe span collector.
///
/// Layers receive an `Option<SpanSink>`; `None` (the default) costs one
/// branch per decision point — the "≤ 1 relaxed atomic load" discipline of
/// the txn recorder, only cheaper.
#[derive(Debug, Clone, Default)]
pub struct SpanSink {
    inner: Arc<Mutex<Vec<CausalSpan>>>,
}

impl SpanSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one span.
    pub fn push(&self, span: CausalSpan) {
        self.lock().push(span);
    }

    /// Appends many spans.
    pub fn extend(&self, spans: impl IntoIterator<Item = CausalSpan>) {
        self.lock().extend(spans);
    }

    /// Takes every collected span out, leaving the sink empty.
    pub fn take(&self) -> Vec<CausalSpan> {
        std::mem::take(&mut *self.lock())
    }

    /// Copies the collected spans without draining.
    pub fn snapshot(&self) -> Vec<CausalSpan> {
        self.lock().clone()
    }

    /// Number of spans collected so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<CausalSpan>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Converts a simulation-level [`TxnTrace`] into causal spans on candidate
/// track `track`, all parented under `parent` within trace `ctx` — the
/// stitch between the job-level causal tree and the kernel's transaction
/// recorder. Timestamps become simulated nanoseconds (the kernel's
/// picosecond resolution is floored; sub-ns detail is not load-bearing for
/// causality).
pub fn spans_from_txn(
    trace: &TxnTrace,
    ctx: TraceCtx,
    track: SpanTrack,
) -> Vec<CausalSpan> {
    trace
        .events()
        .iter()
        .map(|ev| {
            let start_ns = ev.start.as_ps() / 1_000;
            let dur_ns = ev.end.saturating_since(ev.start).as_ps() / 1_000;
            CausalSpan {
                trace_id: ctx.trace_id,
                span_id: next_span_id(),
                parent_id: ctx.parent_span,
                stage: "txn".to_string(),
                name: format!("{}:{}", ev.level.as_str(), ev.op),
                track,
                ts_ns: start_ns,
                dur_ns,
                args: vec![
                    ("resource".to_string(), ev.resource.to_string()),
                    ("process".to_string(), ev.process.to_string()),
                    ("bytes".to_string(), ev.bytes.to_string()),
                    ("outcome".to_string(), ev.outcome.as_str().to_string()),
                ],
            }
        })
        .collect()
}

/// A merged, exportable causal trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CausalTrace {
    /// Every span of the trace, in collection order.
    pub spans: Vec<CausalSpan>,
    /// Transaction-recorder ring events evicted before the spans were
    /// built, exported as `otherData.dropped`.
    pub dropped: u64,
}

impl From<&TxnTrace> for CausalTrace {
    /// Exports a standalone transaction trace: every retained event becomes
    /// a root `txn` span on candidate track 0, and span ids follow the
    /// event order (1, 2, …) so the export is a pure function of the trace.
    fn from(trace: &TxnTrace) -> Self {
        let ctx = TraceCtx {
            trace_id: 0,
            parent_span: 0,
        };
        let mut spans = spans_from_txn(trace, ctx, track_for_candidate(0));
        for (id, span) in (1..).zip(spans.iter_mut()) {
            span.span_id = id;
        }
        CausalTrace {
            spans,
            dropped: trace.dropped(),
        }
    }
}

impl CausalTrace {
    /// Wraps a span set.
    pub fn new(spans: Vec<CausalSpan>) -> Self {
        CausalTrace { spans, dropped: 0 }
    }

    /// `true` when the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The distinct trace ids present (a well-formed job trace has one).
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Renders Chrome `trace_event` JSON (complete `"X"` events), loadable
    /// in `chrome://tracing` / Perfetto.
    ///
    /// Track 0 (host) becomes `pid` 0 with timestamps normalized so the
    /// earliest host span starts at 0 µs; each candidate track becomes its
    /// own `pid` on the simulated timebase, in whole nanoseconds. Within a
    /// track, each distinct `process` arg gets its own `tid` (1, 2, … in
    /// first-appearance order, named by `thread_name` metadata); spans
    /// without one share `tid` 0. Span/parent/trace ids are carried in
    /// `args` — that is what the testkit causal parser checks, since
    /// Chrome's visual nesting is only by time containment.
    pub fn to_chrome_json(&self) -> String {
        let host_t0 = self
            .spans
            .iter()
            .filter(|s| s.track == TRACK_HOST)
            .map(|s| s.ts_ns)
            .min()
            .unwrap_or(0);
        let mut tids: BTreeMap<(SpanTrack, &str), usize> = BTreeMap::new();
        let mut lanes: BTreeMap<(SpanTrack, usize), &str> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.process() {
                if let Entry::Vacant(slot) = tids.entry((s.track, p)) {
                    let tid = lanes.keys().filter(|(t, _)| *t == s.track).count() + 1;
                    slot.insert(tid);
                    lanes.insert((s.track, tid), p);
                }
            }
        }
        let mut events: Vec<String> = Vec::new();
        // Process-name metadata per track, in sorted track order.
        let mut tracks: Vec<SpanTrack> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in &tracks {
            let name = if *t == TRACK_HOST {
                "host (wall clock)".to_string()
            } else {
                format!("candidate {} (simulated time)", t - 1)
            };
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{t},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
                Quoted(&name)
            ));
        }
        for ((t, tid), name) in &lanes {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{t},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                Quoted(name)
            ));
        }
        for s in &self.spans {
            let ts_ns = if s.track == TRACK_HOST {
                s.ts_ns.saturating_sub(host_t0)
            } else {
                s.ts_ns
            };
            let ts = ts_ns as f64 / 1e3;
            let dur = s.dur_ns as f64 / 1e3;
            let tid = s.process().map_or(0, |p| tids[&(s.track, p)]);
            let mut args = format!(
                "\"trace_id\":\"{:016x}\",\"span_id\":{},\"parent_id\":{}",
                s.trace_id, s.span_id, s.parent_id
            );
            for (k, v) in &s.args {
                let _ = write!(args, ",{}:{}", Quoted(k), Quoted(v));
            }
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"cat\":{},\"name\":{},\"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}",
                s.track,
                Quoted(&s.stage),
                Quoted(&s.name),
            ));
        }
        // Chrome's "JSON Object Format" metadata member: tools that know
        // about it surface the eviction count; everyone else ignores it.
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}],\"otherData\":{{\"dropped\":{}}}}}",
            events.join(","),
            self.dropped
        )
    }

    /// Writes the Chrome export to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_chrome<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_chrome_json().as_bytes())?;
        f.flush()
    }
}

impl fmt::Display for CausalTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} spans, traces {:?}:", self.spans.len(), self.trace_ids())?;
        for s in &self.spans {
            writeln!(
                f,
                "  [{}] {} span={} parent={} track={} ts={}ns dur={}ns",
                s.stage, s.name, s.span_id, s.parent_id, s.track, s.ts_ns, s.dur_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::txn::{TxnEvent, TxnLevel, TxnOutcome};

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn mint_produces_distinct_trace_ids() {
        let a = TraceCtx::mint();
        let b = TraceCtx::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.parent_span, 0);
    }

    #[test]
    fn stamp_reparents_roots_only() {
        let ctx = TraceCtx {
            trace_id: 42,
            parent_span: 7,
        };
        let mut spans = vec![
            CausalSpan::new(TraceCtx { trace_id: 0, parent_span: 0 }, "exec", "root", 0),
        ];
        let root_id = spans[0].span_id;
        spans.push(
            CausalSpan::new(
                TraceCtx {
                    trace_id: 0,
                    parent_span: root_id,
                },
                "candidate",
                "child",
                1,
            ),
        );
        stamp(&mut spans, ctx);
        assert_eq!(spans[0].trace_id, 42);
        assert_eq!(spans[0].parent_id, 7);
        assert_eq!(spans[1].parent_id, root_id, "non-root parents untouched");
    }

    #[test]
    fn neutralize_inverts_stamp() {
        let ctx = TraceCtx {
            trace_id: 9,
            parent_span: 3,
        };
        let mut spans = vec![CausalSpan::new(ctx, "exec", "root", 0)];
        let root = spans[0].span_id;
        spans.push(CausalSpan::new(ctx.child(root), "candidate", "c", 1));
        neutralize(&mut spans);
        assert_eq!(spans[0].trace_id, 0);
        assert_eq!(spans[0].parent_id, 0, "external parent became root");
        assert_eq!(spans[1].parent_id, root, "internal parent preserved");
    }

    #[test]
    fn sink_collects_across_clones() {
        let sink = SpanSink::new();
        let clone = sink.clone();
        clone.push(CausalSpan::new(TraceCtx::mint(), "chunk", "0..4", 0));
        assert_eq!(sink.len(), 1);
        let taken = sink.take();
        assert_eq!(taken.len(), 1);
        assert!(sink.is_empty());
    }

    #[test]
    fn txn_stitching_preserves_resource_and_parent() {
        let trace = test_txn_trace();
        let ctx = TraceCtx {
            trace_id: 5,
            parent_span: 11,
        };
        let spans = spans_from_txn(&trace, ctx, track_for_candidate(2));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, "txn");
        assert_eq!(spans[0].name, "ship:send");
        assert_eq!(spans[0].parent_id, 11);
        assert_eq!(spans[0].track, 3);
        assert_eq!(spans[0].ts_ns, 1);
        assert!(spans[0].args.iter().any(|(k, v)| k == "resource" && v == "ch0"));
    }

    fn test_txn_trace() -> TxnTrace {
        TxnTrace::from_events(vec![txn_event("send", "producer", 1_000, 4_000)], 0)
    }

    #[test]
    fn chrome_export_normalizes_host_track_and_carries_ids() {
        let ctx = TraceCtx {
            trace_id: 0xabcd,
            parent_span: 0,
        };
        let root = CausalSpan::new(ctx, "job", "sweep", TRACK_HOST).at(5_000, 10_000);
        let child = CausalSpan::new(ctx.child(root.span_id), "exec", "run", TRACK_HOST)
            .at(6_000, 2_000)
            .arg("outcome", "miss");
        let sim_span =
            CausalSpan::new(ctx.child(root.span_id), "candidate", "plb", track_for_candidate(0))
                .at(0, 7_000);
        let trace = CausalTrace::new(vec![root.clone(), child, sim_span]);
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("],\"otherData\":{\"dropped\":0}}"));
        // Host t0 normalized: earliest host span at ts 0.
        assert!(json.contains("\"ts\":0,"), "{json}");
        // Child at (6000-5000) ns = 1 µs.
        assert!(json.contains("\"ts\":1,"), "{json}");
        // Candidate pid 1, un-normalized sim timebase.
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"trace_id\":\"000000000000abcd\""));
        assert!(json.contains(&format!("\"parent_id\":{}", root.span_id)));
        assert!(json.contains("\"outcome\":\"miss\""));
        assert!(json.contains("process_name"));
        assert_eq!(trace.trace_ids(), vec![0xabcd]);
    }

    fn txn_event(op: &'static str, process: &str, start_ps: u64, end_ps: u64) -> TxnEvent {
        TxnEvent {
            level: TxnLevel::Ship,
            op,
            resource: std::sync::Arc::from("ch0"),
            process: std::sync::Arc::from(process),
            start: SimTime::from_ps(start_ps),
            end: SimTime::from_ps(end_ps),
            bytes: 64,
            outcome: TxnOutcome::Ok,
        }
    }

    #[test]
    fn txn_export_gives_each_process_a_lane_and_reports_drops() {
        let txn = TxnTrace::from_events(
            vec![
                txn_event("send", "producer", 1_000_000, 3_000_000),
                txn_event("recv", "consumer", 2_000_000, 3_000_000),
                txn_event("send", "producer", 3_000_000, 4_500_999),
            ],
            5,
        );
        let trace = CausalTrace::from(&txn);
        assert_eq!(trace.dropped, 5);
        let ids: Vec<u64> = trace.spans.iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec![1, 2, 3], "span ids follow the event order");
        let json = trace.to_chrome_json();
        assert_eq!(json, CausalTrace::from(&txn).to_chrome_json());
        assert!(json.ends_with("],\"otherData\":{\"dropped\":5}}"));
        assert!(json.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"producer\"}}"
        ));
        assert!(json.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"consumer\"}}"
        ));
        assert!(json.contains("\"tid\":2,\"cat\":\"txn\",\"name\":\"ship:recv\""));
        // 1e6 ps = 1 µs; the last span's 1.500999 µs floors to whole ns.
        assert!(json.contains("\"ts\":1,"));
        assert!(json.contains("\"dur\":1.5,"));
    }

    #[test]
    fn json_string_escapes() {
        // Stage, name and args are escaped by the shared JSON escaper, so
        // the export parses back to the exact strings.
        let hostile = "a\"b\\c\n\u{1}";
        let ctx = TraceCtx {
            trace_id: 1,
            parent_span: 0,
        };
        let span = CausalSpan::new(ctx, hostile, hostile, TRACK_HOST).arg(hostile, hostile);
        let json = CausalTrace::new(vec![span]).to_chrome_json();
        assert!(
            json.contains("\"name\":\"a\\\"b\\\\c\\n\\u0001\""),
            "{json}"
        );
        let doc = crate::json::Json::parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let ev = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        for key in ["cat", "name"] {
            assert_eq!(ev.get(key).and_then(|v| v.as_str()), Some(hostile));
        }
        let arg = ev.get("args").and_then(|a| a.get(hostile));
        assert_eq!(arg.and_then(|v| v.as_str()), Some(hostile));
    }
}
