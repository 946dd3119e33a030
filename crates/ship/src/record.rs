//! Transaction recording for cross-level equivalence checking.
//!
//! The design flow (paper Figure 1) refines one source model through three
//! abstraction levels. To show the refinement preserved behaviour we log
//! every SHIP operation — kind, channel, payload length and payload digest —
//! and compare logs across levels. Time stamps naturally differ between
//! levels; the *content sequence* must not.

use std::fmt;
use std::sync::{Arc, Mutex};

/// An interned name label (channel or port). Cloning is a refcount bump, so
/// recording a transaction never allocates for its labels.
pub type Label = Arc<str>;

use shiptlm_kernel::time::SimTime;

/// Which of the four SHIP calls produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShipOp {
    /// A `send` completed.
    Send,
    /// A `recv` completed.
    Recv,
    /// A `request` completed (the reply arrived).
    Request,
    /// A `reply` completed.
    Reply,
}

impl fmt::Display for ShipOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShipOp::Send => "send",
            ShipOp::Recv => "recv",
            ShipOp::Request => "request",
            ShipOp::Reply => "reply",
        })
    }
}

/// One completed SHIP operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRecord {
    /// Channel the operation ran on (interned).
    pub channel: Label,
    /// Port label, usually the PE name (interned).
    pub port: Label,
    /// Operation kind.
    pub op: ShipOp,
    /// Payload length in bytes.
    pub len: usize,
    /// FNV-1a digest of the payload bytes.
    pub digest: u64,
    /// When the blocking call started.
    pub start: SimTime,
    /// When it completed.
    pub end: SimTime,
}

/// FNV-1a 64-bit digest, used to fingerprint payloads cheaply.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A shared, append-only log of SHIP operations.
#[derive(Debug, Clone, Default)]
pub struct TransactionLog {
    records: Arc<Mutex<Vec<TxRecord>>>,
}

impl TransactionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TransactionLog::default()
    }

    /// Appends a record.
    pub fn push(&self, rec: TxRecord) {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all records.
    pub fn to_vec(&self) -> Vec<TxRecord> {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Runs `f` over the recorded slice in place, without cloning it.
    ///
    /// The log lock is held for the duration of `f`; do not call back into
    /// the same log from inside.
    pub fn with_records<R>(&self, f: impl FnOnce(&[TxRecord]) -> R) -> R {
        f(&self.records.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Timing-independent content comparison against another log.
    ///
    /// Records are compared **per (channel, port)** stream in order; global
    /// interleaving across independent channels may legitimately differ
    /// between abstraction levels.
    pub fn content_equivalent(&self, other: &TransactionLog) -> Result<(), EquivalenceError> {
        // Per-(channel, port) stream of (op, len, digest) triples.
        type Streams = std::collections::BTreeMap<(Label, Label), Vec<(ShipOp, usize, u64)>>;
        let group = |log: &TransactionLog| {
            let mut m: Streams = Streams::new();
            for r in log.to_vec() {
                m.entry((r.channel.clone(), r.port.clone()))
                    .or_default()
                    .push((r.op, r.len, r.digest));
            }
            m
        };
        let a = group(self);
        let b = group(other);
        let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).cloned().collect();
        for key in keys {
            let empty = Vec::new();
            let sa = a.get(&key).unwrap_or(&empty);
            let sb = b.get(&key).unwrap_or(&empty);
            if sa != sb {
                let first_diff = sa
                    .iter()
                    .zip(sb.iter())
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| sa.len().min(sb.len()));
                return Err(EquivalenceError {
                    channel: key.0.to_string(),
                    port: key.1.to_string(),
                    index: first_diff,
                    left_len: sa.len(),
                    right_len: sb.len(),
                });
            }
        }
        Ok(())
    }
}

/// First divergence between two transaction logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceError {
    /// Channel whose streams diverged.
    pub channel: String,
    /// Port whose streams diverged.
    pub port: String,
    /// Index of the first differing record.
    pub index: usize,
    /// Record count on the left side.
    pub left_len: usize,
    /// Record count on the right side.
    pub right_len: usize,
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transaction logs diverge on channel '{}' port '{}' at record {} ({} vs {} records)",
            self.channel, self.port, self.index, self.left_len, self.right_len
        )
    }
}

impl std::error::Error for EquivalenceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(channel: &str, port: &str, op: ShipOp, payload: &[u8]) -> TxRecord {
        TxRecord {
            channel: channel.into(),
            port: port.into(),
            op,
            len: payload.len(),
            digest: fnv1a(payload),
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        }
    }

    #[test]
    fn fnv_distinguishes_payloads() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn identical_logs_are_equivalent() {
        let a = TransactionLog::new();
        let b = TransactionLog::new();
        for log in [&a, &b] {
            log.push(rec("ch0", "p0", ShipOp::Send, b"xyz"));
            log.push(rec("ch0", "p1", ShipOp::Recv, b"xyz"));
        }
        assert!(a.content_equivalent(&b).is_ok());
    }

    #[test]
    fn timing_differences_are_ignored() {
        let a = TransactionLog::new();
        let b = TransactionLog::new();
        let mut r1 = rec("ch", "p", ShipOp::Send, b"q");
        r1.end = SimTime::from_ps(10);
        a.push(r1);
        let mut r2 = rec("ch", "p", ShipOp::Send, b"q");
        r2.end = SimTime::from_ps(99_999);
        b.push(r2);
        assert!(a.content_equivalent(&b).is_ok());
    }

    #[test]
    fn interleaving_across_channels_is_ignored() {
        let a = TransactionLog::new();
        a.push(rec("c1", "p", ShipOp::Send, b"1"));
        a.push(rec("c2", "p", ShipOp::Send, b"2"));
        let b = TransactionLog::new();
        b.push(rec("c2", "p", ShipOp::Send, b"2"));
        b.push(rec("c1", "p", ShipOp::Send, b"1"));
        assert!(a.content_equivalent(&b).is_ok());
    }

    #[test]
    fn payload_divergence_detected() {
        let a = TransactionLog::new();
        a.push(rec("c", "p", ShipOp::Send, b"hello"));
        let b = TransactionLog::new();
        b.push(rec("c", "p", ShipOp::Send, b"world"));
        let err = a.content_equivalent(&b).unwrap_err();
        assert_eq!(err.channel, "c");
        assert_eq!(err.index, 0);
    }

    #[test]
    fn missing_records_detected() {
        let a = TransactionLog::new();
        a.push(rec("c", "p", ShipOp::Send, b"x"));
        a.push(rec("c", "p", ShipOp::Send, b"y"));
        let b = TransactionLog::new();
        b.push(rec("c", "p", ShipOp::Send, b"x"));
        let err = a.content_equivalent(&b).unwrap_err();
        assert_eq!(err.left_len, 2);
        assert_eq!(err.right_len, 1);
    }
}
