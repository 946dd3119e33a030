//! Shared assertion helpers for transaction traces and their exports.
//!
//! Integration suites across the workspace validate the same properties of
//! a [`TxnTrace`]: spans must be well-formed, per-process completion times
//! must be monotone, and the Chrome / JSONL exports must be valid JSON of
//! the documented shape. These helpers centralize that logic on top of the
//! testkit's dependency-free [`Json`] parser.

use std::collections::BTreeMap;

use shiptlm_kernel::causal::CausalTrace;
use shiptlm_kernel::txn::TxnTrace;

use shiptlm_kernel::json::Json;

/// Asserts that every span in `trace` starts no later than it ends and
/// that completion times are non-decreasing per process (events are
/// recorded at completion).
///
/// # Panics
///
/// Panics with a description of the first offending event.
pub fn assert_spans_consistent(trace: &TxnTrace) {
    let mut last_end: BTreeMap<&str, _> = BTreeMap::new();
    for ev in trace.events() {
        assert!(ev.start <= ev.end, "span begins after it ends: {ev:?}");
        if let Some(prev) = last_end.insert(&*ev.process, ev.end) {
            assert!(
                prev <= ev.end,
                "process {} completion time went backwards ({prev} -> {})",
                ev.process,
                ev.end
            );
        }
    }
}

/// One parsed span from a causal Chrome export, reconstructed from the
/// `args` ids the exporter embeds (Chrome itself nests only by time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalSpanInfo {
    /// Stage label (the event's `cat`): `job`, `gateway`, `admission`,
    /// `queue-wait`, `cache`, `exec`, `role-detect`, `chunk`, `candidate`,
    /// or `txn`.
    pub stage: String,
    /// Human-readable span name.
    pub name: String,
    /// Unique span id.
    pub span_id: u64,
    /// Parent span id (0 = trace root).
    pub parent_id: u64,
    /// Track / Chrome `pid` (0 = host wall clock, `i + 1` = candidate
    /// `i`'s simulated timeline).
    pub track: u64,
}

/// Structure of a validated causal Chrome export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalShape {
    /// The single trace id shared by every span (16 hex digits; empty when
    /// the export holds no spans).
    pub trace_id: String,
    /// Every complete event, in file order.
    pub spans: Vec<CausalSpanInfo>,
}

impl CausalShape {
    /// Spans whose stage equals `stage`, in file order.
    pub fn stage(&self, stage: &str) -> Vec<&CausalSpanInfo> {
        self.spans.iter().filter(|s| s.stage == stage).collect()
    }

    /// The stage of `span`'s parent, or `None` for a trace root.
    pub fn parent_stage(&self, span: &CausalSpanInfo) -> Option<&str> {
        self.spans
            .iter()
            .find(|s| s.span_id == span.parent_id)
            .map(|s| s.stage.as_str())
    }

    /// Asserts every span of `child_stage` is parented under a span of
    /// `parent_stage`.
    ///
    /// # Panics
    ///
    /// Panics naming the first offending span.
    pub fn assert_nested(&self, child_stage: &str, parent_stage: &str) {
        let children = self.stage(child_stage);
        assert!(
            !children.is_empty(),
            "no '{child_stage}' spans to check nesting for"
        );
        for child in children {
            let parent = self.parent_stage(child);
            assert_eq!(
                parent,
                Some(parent_stage),
                "'{child_stage}' span '{}' must be parented under '{parent_stage}', found {parent:?}",
                child.name
            );
        }
    }
}

/// Parses `text` as the Chrome `trace_event` export of a [`CausalTrace`]
/// and validates it:
///
/// * shape — `displayTimeUnit` is `"ns"`; every event is a `process_name` /
///   `thread_name` metadata record or a complete event with non-negative
///   numeric `ts`/`dur`; `txn` spans carry a `resource` and a numeric
///   `bytes` arg;
/// * lanes — a span with a `process` arg sits on a `tid` whose
///   `thread_name` is that process, and each process has one `tid` per
///   track;
/// * causality — exactly one trace id across all complete events, unique
///   span ids, every non-zero parent resolving to a span in the same file,
///   at least one root, and no parent cycles.
///
/// An export without complete events (an empty trace) is valid; its
/// [`CausalShape::trace_id`] is empty.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check_causal_trace(text: &str) -> Result<CausalShape, String> {
    let doc = Json::parse(text)?;
    if doc.get("displayTimeUnit").and_then(Json::as_str) != Some("ns") {
        return Err("displayTimeUnit is not \"ns\"".into());
    }
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let id = |ev: &Json, key: &str| ev.get(key).and_then(Json::as_num).map(|v| v as u64);
    // (pid, tid) -> thread name, from the metadata records.
    let mut lane_names = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.get("ph").and_then(Json::as_str) != Some("M") {
            continue;
        }
        match ev.get("name").and_then(Json::as_str) {
            Some("process_name") => {}
            Some("thread_name") => {
                let name = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str);
                lane_names.insert((id(ev, "pid"), id(ev, "tid")), name);
            }
            _ => {
                return Err(format!(
                    "metadata event {i} is not a process/thread name record"
                ))
            }
        }
    }
    let mut process_lanes = BTreeMap::new();
    let mut trace_id: Option<String> = None;
    let mut spans = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.get("ph").and_then(Json::as_str) {
            Some("M") => continue,
            Some("X") => {
                for key in ["ts", "dur"] {
                    match ev.get(key).and_then(Json::as_num) {
                        Some(v) if v >= 0.0 => {}
                        Some(_) => return Err(format!("event {i} has negative {key}")),
                        None => return Err(format!("event {i} missing numeric {key}")),
                    }
                }
                let args = ev
                    .get("args")
                    .ok_or_else(|| format!("event {i} missing args"))?;
                let tid = args
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i} missing args.trace_id"))?;
                match &trace_id {
                    None => trace_id = Some(tid.to_string()),
                    Some(seen) if seen != tid => {
                        return Err(format!(
                            "event {i} carries trace id {tid} but the trace started with {seen}"
                        ))
                    }
                    Some(_) => {}
                }
                let num = |key: &str| {
                    args.get(key)
                        .and_then(Json::as_num)
                        .filter(|v| *v >= 0.0)
                        .map(|v| v as u64)
                        .ok_or_else(|| format!("event {i} missing numeric args.{key}"))
                };
                let stage = ev
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i} missing cat"))?;
                if stage == "txn" {
                    if args.get("resource").and_then(Json::as_str).is_none() {
                        return Err(format!("txn event {i} missing args.resource"));
                    }
                    if args.get("bytes").and_then(Json::as_u64_str).is_none() {
                        return Err(format!("txn event {i} missing numeric args.bytes"));
                    }
                }
                let track = id(ev, "pid").ok_or_else(|| format!("event {i} missing pid"))?;
                if let Some(process) = args.get("process").and_then(Json::as_str) {
                    let lane = id(ev, "tid");
                    if lane_names.get(&(Some(track), lane)) != Some(&Some(process)) {
                        return Err(format!(
                            "event {i} of process '{process}' sits on a tid not named for it"
                        ));
                    }
                    if *process_lanes.entry((track, process)).or_insert(lane) != lane {
                        return Err(format!("process '{process}' spans more than one tid"));
                    }
                }
                spans.push(CausalSpanInfo {
                    stage: stage.to_string(),
                    name: ev
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("event {i} missing name"))?
                        .to_string(),
                    span_id: num("span_id")?,
                    parent_id: num("parent_id")?,
                    track,
                });
            }
            other => return Err(format!("event {i} has unexpected phase {other:?}")),
        }
    }
    let mut ids = BTreeMap::new();
    for s in &spans {
        if s.span_id == 0 {
            return Err(format!("span '{}' has id 0 (reserved for roots)", s.name));
        }
        if ids.insert(s.span_id, s.parent_id).is_some() {
            return Err(format!("duplicate span id {}", s.span_id));
        }
    }
    let mut roots = 0usize;
    for s in &spans {
        if s.parent_id == 0 {
            roots += 1;
            continue;
        }
        if !ids.contains_key(&s.parent_id) {
            return Err(format!(
                "span '{}' (id {}) parents under {} which is not in the trace",
                s.name, s.span_id, s.parent_id
            ));
        }
        // Walk to a root; a walk longer than the span count is a cycle.
        let mut cursor = s.parent_id;
        let mut steps = 0usize;
        while cursor != 0 {
            cursor = *ids.get(&cursor).ok_or_else(|| {
                format!(
                    "span chain from {} escapes the trace at {cursor}",
                    s.span_id
                )
            })?;
            steps += 1;
            if steps > spans.len() {
                return Err(format!("parent cycle reachable from span {}", s.span_id));
            }
        }
    }
    if roots == 0 && !spans.is_empty() {
        return Err("trace has no root span (every parent_id is non-zero)".into());
    }
    Ok(CausalShape {
        trace_id: trace_id.unwrap_or_default(),
        spans,
    })
}

/// Asserts that `trace`'s Chrome export (through [`CausalTrace`]) passes
/// [`check_causal_trace`] and covers exactly the retained events; returns
/// the shape for further inspection.
pub fn assert_chrome_export(trace: &TxnTrace) -> CausalShape {
    let json = CausalTrace::from(trace).to_chrome_json();
    let shape = check_causal_trace(&json).expect("chrome trace must be valid");
    assert_eq!(
        shape.spans.len(),
        trace.events().len(),
        "chrome export must carry one complete event per retained span"
    );
    shape
}

/// Asserts that `trace`'s JSONL export has one valid JSON object per
/// retained event, each carrying the documented fields.
pub fn assert_jsonl_export(trace: &TxnTrace) {
    let jsonl = trace.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), trace.events().len());
    for (i, line) in lines.iter().enumerate() {
        let obj =
            Json::parse(line).unwrap_or_else(|e| panic!("JSONL line {i} must parse: {e}\n{line}"));
        for key in ["level", "op", "resource", "process", "outcome"] {
            assert!(
                obj.get(key).and_then(Json::as_str).is_some(),
                "JSONL line {i} missing string field '{key}'"
            );
        }
        for key in ["start_ps", "end_ps", "bytes"] {
            assert!(
                obj.get(key).and_then(Json::as_num).is_some(),
                "JSONL line {i} missing numeric field '{key}'"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_checker_accepts_a_real_export_and_checks_nesting() {
        use shiptlm_kernel::causal::{CausalSpan, CausalTrace, TraceCtx, TRACK_HOST};
        let ctx = TraceCtx::mint();
        let root = CausalSpan::new(ctx, "job", "job:1", TRACK_HOST).at(0, 100);
        let child = CausalSpan::new(ctx.child(root.span_id), "gateway", "job:1", TRACK_HOST)
            .at(10, 80)
            .arg("outcome", "miss");
        let grand =
            CausalSpan::new(ctx.child(child.span_id), "exec", "sweep", TRACK_HOST).at(20, 60);
        let trace = CausalTrace::new(vec![root, child, grand]);
        let shape = check_causal_trace(&trace.to_chrome_json()).unwrap();
        assert_eq!(shape.spans.len(), 3);
        assert_eq!(shape.trace_id.len(), 16, "trace id renders as 16 hex chars");
        shape.assert_nested("gateway", "job");
        shape.assert_nested("exec", "gateway");
        assert_eq!(shape.parent_stage(shape.stage("job")[0]), None);
    }

    #[test]
    fn causal_checker_rejects_broken_causality() {
        let bad = |events: &str| {
            check_causal_trace(&format!(
                "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{events}]}}"
            ))
        };
        let span = |id: u64, parent: u64, tid: &str| {
            format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"cat\":\"job\",\"name\":\"s{id}\",\"ts\":0,\"dur\":1,\
                 \"args\":{{\"trace_id\":\"{tid}\",\"span_id\":{id},\"parent_id\":{parent}}}}}"
            )
        };
        // Two different trace ids.
        let mixed = format!("{},{}", span(1, 0, "aa"), span(2, 1, "bb"));
        assert!(bad(&mixed).unwrap_err().contains("trace id"));
        // Parent outside the trace.
        assert!(bad(&span(1, 99, "aa"))
            .unwrap_err()
            .contains("not in the trace"));
        // Duplicate span ids.
        let dup = format!("{},{}", span(1, 0, "aa"), span(1, 0, "aa"));
        assert!(bad(&dup).unwrap_err().contains("duplicate"));
        // Parent cycle (2 -> 3 -> 2).
        let cycle = format!(
            "{},{},{}",
            span(1, 0, "aa"),
            span(2, 3, "aa"),
            span(3, 2, "aa")
        );
        assert!(bad(&cycle).unwrap_err().contains("cycle"));
    }

    #[test]
    fn causal_checker_folds_in_the_chrome_shape_checks() {
        let check = |events: &str| {
            check_causal_trace(&format!(
                "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{events}]}}"
            ))
        };
        let lane = |tid: u64, name: &str| {
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            )
        };
        let txn = |id: u64, tid: u64, ts: &str, extra: &str| {
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"cat\":\"txn\",\"name\":\"ship:send\",\"ts\":{ts},\"dur\":1,\
                 \"args\":{{\"trace_id\":\"00\",\"span_id\":{id},\"parent_id\":0{extra}}}}}"
            )
        };
        let ok = ",\"resource\":\"ch0\",\"process\":\"p\",\"bytes\":\"64\"";
        let good = format!("{},{}", lane(1, "p"), txn(1, 1, "0", ok));
        assert_eq!(check(&good).unwrap().spans.len(), 1);

        // An empty trace is valid.
        let empty = check("").unwrap();
        assert!(empty.spans.is_empty() && empty.trace_id.is_empty());
        assert!(
            check_causal_trace("{\"traceEvents\":[]}").is_err(),
            "displayTimeUnit"
        );
        assert!(check("{\"ph\":\"Q\"}").unwrap_err().contains("phase"));
        assert!(check("{\"ph\":\"M\",\"name\":\"x\"}")
            .unwrap_err()
            .contains("metadata"));
        let negative = format!("{},{}", lane(1, "p"), txn(1, 1, "-1", ok));
        assert!(check(&negative).unwrap_err().contains("negative ts"));
        let no_bytes = format!("{},{}", lane(1, "p"), txn(1, 1, "0", ",\"resource\":\"r\""));
        assert!(check(&no_bytes).unwrap_err().contains("args.bytes"));
        let no_resource = txn(1, 0, "0", ",\"bytes\":\"1\"");
        assert!(check(&no_resource).unwrap_err().contains("args.resource"));
        // A process must sit on a tid named for it, and on only one.
        let misnamed = format!("{},{}", lane(1, "q"), txn(1, 1, "0", ok));
        assert!(check(&misnamed).unwrap_err().contains("not named for it"));
        let split = format!(
            "{},{},{},{}",
            lane(1, "p"),
            lane(2, "p"),
            txn(1, 1, "0", ok),
            txn(2, 2, "0", ok)
        );
        assert!(check(&split).unwrap_err().contains("more than one tid"));
    }

    #[test]
    fn empty_trace_passes_every_assert() {
        let trace = TxnTrace::default();
        assert_spans_consistent(&trace);
        let shape = assert_chrome_export(&trace);
        assert!(shape.spans.is_empty());
        assert_jsonl_export(&trace);
    }
}
