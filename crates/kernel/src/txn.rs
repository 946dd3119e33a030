//! Transaction-level trace recorder: structured begin/end spans for every
//! communication operation, across all abstraction levels.
//!
//! Kernel `Signal`s can already be dumped to VCD, but the interesting
//! activity of a transaction-level model — SHIP calls, bus grants, OCP
//! transfers, driver doorbells — is invisible to waveforms. The
//! [`TxnRecorder`](crate::sim::Simulation::record_transactions) captures
//! those operations as timed spans into a bounded ring buffer, aggregates
//! per-resource latency statistics online, and exports line-delimited
//! JSONL. Chrome `trace_event` JSON (loadable in `chrome://tracing` /
//! Perfetto) goes through the one causal exporter:
//! `CausalTrace::from(&trace).write_chrome(path)`
//! ([`CausalTrace`](crate::causal::CausalTrace)).
//!
//! Recording is off by default and costs a single relaxed atomic load per
//! instrumented call when disabled.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Quoted;
use crate::stats::{Histogram, RunningStats};
use crate::time::SimTime;

/// The abstraction level an event was recorded at (the prefix of its
/// exported span name, e.g. `ship:send`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxnLevel {
    /// A SHIP interface method call (`send`/`recv`/`request`/`reply`).
    Ship,
    /// Bus/CAM activity: arbitration grants, data transfers, mailbox ops.
    Bus,
    /// An OCP transaction issued through a master port.
    Ocp,
    /// HW/SW driver activity: doorbells, IRQ/poll waits.
    Driver,
}

impl TxnLevel {
    /// Short lowercase name, used as the exported span-name prefix.
    pub const fn as_str(self) -> &'static str {
        match self {
            TxnLevel::Ship => "ship",
            TxnLevel::Bus => "bus",
            TxnLevel::Ocp => "ocp",
            TxnLevel::Driver => "driver",
        }
    }
}

impl fmt::Display for TxnLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a recorded operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnOutcome {
    /// The operation completed successfully.
    Ok,
    /// The operation returned an error (timeout, protocol violation,
    /// transport failure).
    Error,
}

impl TxnOutcome {
    /// Short lowercase name for exports.
    pub const fn as_str(self) -> &'static str {
        match self {
            TxnOutcome::Ok => "ok",
            TxnOutcome::Error => "error",
        }
    }
}

/// One completed, timed span as stored in the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnEvent {
    /// Abstraction level / trace category.
    pub level: TxnLevel,
    /// Operation name (`send`, `grant`, `read`, …).
    pub op: &'static str,
    /// The channel, bus or device the operation ran against (interned).
    pub resource: Arc<str>,
    /// Name of the process that performed the operation (interned).
    pub process: Arc<str>,
    /// Simulated time the operation started.
    pub start: SimTime,
    /// Simulated time it completed (`start <= end` always).
    pub end: SimTime,
    /// Payload size in bytes (0 for pure waits/grants).
    pub bytes: usize,
    /// How the operation ended.
    pub outcome: TxnOutcome,
}

/// A span handed to [`SimHandle::txn_record`](crate::sim::SimHandle::txn_record);
/// the recording process is filled in automatically.
#[derive(Debug)]
pub struct TxnSpan<'a> {
    /// Abstraction level / trace category.
    pub level: TxnLevel,
    /// Operation name.
    pub op: &'static str,
    /// Resource label (channel, bus, device); cloned as an `Arc` bump.
    pub resource: &'a Arc<str>,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Payload size in bytes.
    pub bytes: usize,
    /// `true` when the operation succeeded.
    pub ok: bool,
}

impl TxnSpan<'_> {
    /// The event this span records when `process` performed it.
    pub(crate) fn stamped(self, process: Arc<str>) -> TxnEvent {
        TxnEvent {
            level: self.level,
            op: self.op,
            resource: Arc::clone(self.resource),
            process,
            start: self.start,
            end: self.end,
            bytes: self.bytes,
            outcome: if self.ok {
                TxnOutcome::Ok
            } else {
                TxnOutcome::Error
            },
        }
    }
}

/// Online latency/throughput accounting for one `(level, resource)` stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelTxnStats {
    /// Completed operations.
    pub count: u64,
    /// Payload bytes across them.
    pub bytes: u64,
    /// Operations that ended in error.
    pub errors: u64,
    /// Span latency in nanoseconds.
    pub latency_ns: RunningStats,
    /// Span latency distribution (nanoseconds, power-of-two buckets).
    pub latency_hist: Histogram,
}

impl ChannelTxnStats {
    fn record(&mut self, ev: &TxnEvent) {
        self.count += 1;
        self.bytes += ev.bytes as u64;
        if ev.outcome == TxnOutcome::Error {
            self.errors += 1;
        }
        let ns = ev.end.saturating_since(ev.start).as_ps() as f64 / 1_000.0;
        self.latency_ns.record(ns);
        self.latency_hist
            .record(ev.end.saturating_since(ev.start).as_ps() / 1_000);
    }
}

/// Key of one statistics stream: abstraction level + resource label.
pub type TxnKey = (TxnLevel, Arc<str>);

/// A snapshot of everything the recorder captured.
///
/// Events live in a bounded ring, so the oldest may have been dropped
/// ([`dropped`](Self::dropped) counts them); the per-resource statistics are
/// accumulated online at record time and therefore cover *every* event, not
/// just the retained window.
#[derive(Debug, Clone, Default)]
pub struct TxnTrace {
    events: Vec<TxnEvent>,
    dropped: u64,
    stats: BTreeMap<TxnKey, ChannelTxnStats>,
}

impl TxnTrace {
    /// Builds a trace from pre-recorded events; per-resource statistics are
    /// recomputed from the given events. Used by tests and by external
    /// tools that stitch transaction spans into other trace formats (see
    /// [`causal`](crate::causal)).
    pub fn from_events(events: Vec<TxnEvent>, dropped: u64) -> Self {
        let mut stats: BTreeMap<TxnKey, ChannelTxnStats> = BTreeMap::new();
        for ev in &events {
            stats
                .entry((ev.level, Arc::clone(&ev.resource)))
                .or_default()
                .record(ev);
        }
        TxnTrace {
            events,
            dropped,
            stats,
        }
    }

    /// The retained events, in completion order.
    pub fn events(&self) -> &[TxnEvent] {
        &self.events
    }

    /// Events evicted from the ring before this snapshot.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-`(level, resource)` statistics over **all** recorded events.
    pub fn stats(&self) -> &BTreeMap<TxnKey, ChannelTxnStats> {
        &self.stats
    }

    /// Statistics of one resource at one level, if any were recorded.
    pub fn resource_stats(&self, level: TxnLevel, resource: &str) -> Option<&ChannelTxnStats> {
        self.stats
            .iter()
            .find(|((l, r), _)| *l == level && r.as_ref() == resource)
            .map(|(_, s)| s)
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Renders line-delimited JSON: one object per event, raw picosecond
    /// timestamps.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"level\":\"{}\",\"op\":{},\"resource\":{},\"process\":{},\"start_ps\":{},\"end_ps\":{},\"bytes\":{},\"outcome\":\"{}\"}}\n",
                ev.level.as_str(),
                Quoted(ev.op),
                Quoted(&ev.resource),
                Quoted(&ev.process),
                ev.start.as_ps(),
                ev.end.as_ps(),
                ev.bytes,
                ev.outcome.as_str(),
            ));
        }
        out
    }
}

impl fmt::Display for TxnTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events retained ({} dropped), {} streams:",
            self.events.len(),
            self.dropped,
            self.stats.len()
        )?;
        for ((level, resource), s) in &self.stats {
            writeln!(
                f,
                "  [{level}] {resource}: n={} bytes={} err={} latency {}",
                s.count, s.bytes, s.errors, s.latency_ns
            )?;
        }
        Ok(())
    }
}

struct TxnRing {
    buf: VecDeque<TxnEvent>,
    capacity: usize,
    dropped: u64,
    stats: BTreeMap<TxnKey, ChannelTxnStats>,
}

/// Kernel-shared recorder state: disabled by default; a single relaxed
/// atomic load gates every instrumented call.
pub(crate) struct TxnShared {
    enabled: AtomicBool,
    inner: Mutex<TxnRing>,
}

impl TxnShared {
    pub(crate) fn new() -> Self {
        TxnShared {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(TxnRing {
                buf: VecDeque::new(),
                capacity: 0,
                dropped: 0,
                stats: BTreeMap::new(),
            }),
        }
    }

    /// Enables recording into a fresh ring of at most `capacity` events.
    pub(crate) fn enable(&self, capacity: usize) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *g = TxnRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
            stats: BTreeMap::new(),
        };
        self.enabled.store(true, Ordering::Release);
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn record(&self, ev: TxnEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.stats
            .entry((ev.level, Arc::clone(&ev.resource)))
            .or_default()
            .record(&ev);
        if g.buf.len() >= g.capacity {
            if g.dropped == 0 {
                // Warn once per enable: silent eviction makes a truncated
                // trace look complete. The Chrome export (`CausalTrace`)
                // also carries the final count in `otherData.dropped`.
                eprintln!(
                    "shiptlm-kernel: transaction ring full ({} events); evicting oldest \
                     (raise the capacity passed to record_transactions to keep them)",
                    g.capacity
                );
            }
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(ev);
    }

    /// Events evicted from the ring so far — the live counterpart of
    /// [`TxnTrace::dropped`], exported as `txn_trace_dropped_total`.
    pub(crate) fn dropped_count(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    pub(crate) fn snapshot(&self) -> TxnTrace {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        TxnTrace {
            events: g.buf.iter().cloned().collect(),
            dropped: g.dropped,
            stats: g.stats.clone(),
        }
    }
}

impl fmt::Debug for TxnShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnShared")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str, process: &str, start: u64, end: u64, bytes: usize) -> TxnEvent {
        TxnEvent {
            level: TxnLevel::Ship,
            op,
            resource: Arc::from("ch0"),
            process: Arc::from(process),
            start: SimTime::from_ps(start),
            end: SimTime::from_ps(end),
            bytes,
            outcome: TxnOutcome::Ok,
        }
    }

    #[test]
    fn disabled_recorder_ignores_events() {
        let t = TxnShared::new();
        assert!(!t.is_enabled());
        t.record(ev("send", "p", 0, 10, 4));
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = TxnShared::new();
        t.enable(2);
        for i in 0..5u64 {
            t.record(ev("send", "p", i * 10, i * 10 + 5, 1));
        }
        let snap = t.snapshot();
        assert_eq!(snap.events().len(), 2);
        assert_eq!(snap.dropped(), 3);
        // Stats cover all five events, not just the retained window.
        let s = snap
            .resource_stats(TxnLevel::Ship, "ch0")
            .expect("stream recorded");
        assert_eq!(s.count, 5);
        assert_eq!(s.bytes, 5);
        assert_eq!(s.latency_ns.count(), 5);
    }

    #[test]
    fn re_enable_resets_the_ring() {
        let t = TxnShared::new();
        t.enable(8);
        t.record(ev("send", "p", 0, 1, 1));
        t.enable(8);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn jsonl_export_one_line_per_event() {
        let t = TxnShared::new();
        t.enable(16);
        t.record(ev("send", "p", 0, 5, 2));
        t.record(ev("recv", "q", 5, 9, 2));
        let text = t.snapshot().to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"start_ps\":0"));
        assert!(text.contains("\"end_ps\":9"));
    }

    #[test]
    fn stats_track_errors() {
        let t = TxnShared::new();
        t.enable(4);
        let mut bad = ev("send", "p", 0, 7_000, 3);
        bad.outcome = TxnOutcome::Error;
        t.record(bad);
        let snap = t.snapshot();
        let s = snap.resource_stats(TxnLevel::Ship, "ch0").unwrap();
        assert_eq!(s.errors, 1);
        assert_eq!(s.latency_ns.min(), Some(7.0));
    }
}
