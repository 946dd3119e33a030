//! Gateway wire protocol: handshake, length-prefixed frames, and the
//! job/reply vocabulary shared by server and client.
//!
//! The framing layer is deliberately tiny: after a 6-byte handshake
//! (magic + version + codec tag), every message in either direction is a
//! `u64` little-endian length prefix followed by that many bytes of
//! codec-encoded body. The body encoding is pluggable (see
//! [`crate::codec`]); the frame layer itself never trusts the prefix —
//! lengths above the negotiated cap are rejected before any allocation.

use std::fmt;
use std::io::{self, Read, Write};

use shiptlm_explore::model::ModelSpec;
use shiptlm_explore::prelude::{ArchSpec, Backend, RunMetrics};
use shiptlm_kernel::causal::{CausalSpan, TraceCtx};
use shiptlm_ship::prelude::*;

/// Handshake magic: the first four bytes of every gateway connection.
pub const MAGIC: [u8; 4] = *b"SHTG";

/// Protocol version carried in the handshake. Version 2 added the optional
/// causal-tracing / progress extension on [`JobRequest`] and the
/// [`Reply::Progress`] / [`Reply::Spans`] variants.
pub const VERSION: u8 = 2;

/// Oldest protocol version this build still serves. Version-1 peers get
/// byte-identical version-1 behavior: their requests carry no extension and
/// they are never sent a reply tag newer than their handshake.
pub const MIN_VERSION: u8 = 1;

/// Default cap on a single frame body, in bytes.
pub const DEFAULT_MAX_FRAME: u64 = 16 * 1024 * 1024;

/// Everything that can go wrong between a gateway client and server.
#[derive(Debug)]
pub enum GatewayError {
    /// Transport-level I/O failure.
    Io(io::Error),
    /// Structurally invalid binary body (classified by `ship::wire`).
    Wire(WireError),
    /// The body decoded as bytes but not as a protocol message.
    Codec(String),
    /// Frame-layer violation: oversized prefix, truncated prefix, or a
    /// connection cut mid-body.
    Frame(String),
    /// Bad magic, unsupported version, or unknown codec tag.
    Handshake(String),
    /// A well-formed message that violates the request/reply state
    /// machine (e.g. a reply for a different job id).
    Protocol(String),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "i/o error: {e}"),
            GatewayError::Wire(e) => write!(f, "wire decode error: {e}"),
            GatewayError::Codec(m) => write!(f, "codec error: {m}"),
            GatewayError::Frame(m) => write!(f, "frame error: {m}"),
            GatewayError::Handshake(m) => write!(f, "handshake error: {m}"),
            GatewayError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<io::Error> for GatewayError {
    fn from(e: io::Error) -> Self {
        GatewayError::Io(e)
    }
}

impl From<WireError> for GatewayError {
    fn from(e: WireError) -> Self {
        GatewayError::Wire(e)
    }
}

/// Which execution backend the client wants for the job.
///
/// Mirrors [`Backend`] but lives in the protocol so the wire encoding is
/// stable even if the exploration enum grows variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The delta-cycle kernel (deterministic default).
    #[default]
    De,
    /// Direct execution; fails if the model disqualifies.
    Direct,
    /// Direct execution with transparent DE fallback.
    Auto,
}

impl BackendChoice {
    /// Stable one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            BackendChoice::De => 0,
            BackendChoice::Direct => 1,
            BackendChoice::Auto => 2,
        }
    }

    /// Decodes a wire tag.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidValue`] for unknown tags.
    pub fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(BackendChoice::De),
            1 => Ok(BackendChoice::Direct),
            2 => Ok(BackendChoice::Auto),
            t => Err(WireError::InvalidValue(format!("unknown backend tag {t}"))),
        }
    }

    /// Stable textual name (used by the JSON codec).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::De => "de",
            BackendChoice::Direct => "direct",
            BackendChoice::Auto => "auto",
        }
    }

    /// Parses the textual name.
    ///
    /// # Errors
    ///
    /// Returns a description of the unknown name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "de" => Ok(BackendChoice::De),
            "direct" => Ok(BackendChoice::Direct),
            "auto" => Ok(BackendChoice::Auto),
            other => Err(format!("unknown backend '{other}'")),
        }
    }

    /// The exploration backend this choice selects.
    pub fn to_backend(self) -> Backend {
        match self {
            BackendChoice::De => Backend::De,
            BackendChoice::Direct => Backend::Direct,
            BackendChoice::Auto => Backend::Auto,
        }
    }
}

/// One sweep job: a model, the candidate architectures to map it onto,
/// and execution knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Client-chosen correlation id, echoed on every reply.
    pub id: u64,
    /// The model to elaborate (the job schema of `shiptlm_explore::model`).
    pub spec: ModelSpec,
    /// Candidate architectures to sweep.
    pub archs: Vec<ArchSpec>,
    /// Execution backend for the component-assembly level.
    pub backend: BackendChoice,
    /// Stream the per-channel latency trace back in chunks.
    pub want_trace: bool,
    /// Version-2 extension: the client-minted causal trace context. When
    /// set, the server records admission/queue/cache/exec/candidate spans
    /// under it and streams them back as [`Reply::Spans`] before `Done`.
    /// Absent on version-1 connections.
    pub trace: Option<TraceCtx>,
    /// Version-2 extension: stream [`Reply::Progress`] samples at worker
    /// chunk boundaries while the job runs. Absent on version-1
    /// connections.
    pub want_progress: bool,
}

impl JobRequest {
    /// Content address of this job: the canonical binary encoding of
    /// everything that determines the result — model, architectures,
    /// backend, trace flag and *whether* causal tracing is on (traced
    /// entries carry spans, so they cannot share an entry with untraced
    /// ones) — but *not* the correlation id or the concrete trace/span
    /// ids, so identical work from different clients shares one cache
    /// entry and a cached traced job is replayed under each requester's
    /// own trace id. `want_progress` is pacing, not content, and is
    /// likewise excluded.
    pub fn cache_key(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.spec.serialize(&mut w);
        self.archs.serialize(&mut w);
        w.put_u8(self.backend.tag());
        w.put_bool(self.want_trace);
        if self.trace.is_some() {
            // Appended only when set, so version-1 jobs (and untraced
            // version-2 jobs) keep their pre-extension cache keys.
            w.put_bool(true);
        }
        w.into_bytes()
    }
}

/// One deterministic report row, the streamed unit of a job result.
///
/// Host wall-clock is deliberately excluded: two runs of the same job must
/// produce byte-identical rows so the content-addressed cache and the
/// soak test's cross-client comparisons hold exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportRow {
    /// Architecture label (see `ArchSpec::label`).
    pub label: String,
    /// Total simulated time in picoseconds.
    pub sim_time_ps: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Kernel delta cycles.
    pub delta_cycles: u64,
}

impl ReportRow {
    /// Projects the deterministic subset of a sweep row.
    pub fn from_metrics(m: &RunMetrics) -> ReportRow {
        ReportRow {
            label: m.label.clone(),
            sim_time_ps: m.sim_time.as_ps(),
            messages: m.messages,
            bytes: m.bytes,
            delta_cycles: m.delta_cycles,
        }
    }
}

impl ShipSerialize for ReportRow {
    fn serialize(&self, w: &mut ByteWriter) {
        self.label.serialize(w);
        w.put_u64(self.sim_time_ps);
        w.put_u64(self.messages);
        w.put_u64(self.bytes);
        w.put_u64(self.delta_cycles);
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(ReportRow {
            label: String::deserialize(r)?,
            sim_time_ps: r.get_u64()?,
            messages: r.get_u64()?,
            bytes: r.get_u64()?,
            delta_cycles: r.get_u64()?,
        })
    }
}

/// Server-to-client messages. Every variant echoes the job id it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The job passed admission and is queued.
    Accepted {
        /// Echoed correlation id.
        id: u64,
    },
    /// The admission queue is full; retry after the given backoff.
    Rejected {
        /// Echoed correlation id.
        id: u64,
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// One report row of the running (or cached) job.
    Row {
        /// Echoed correlation id.
        id: u64,
        /// The row.
        row: ReportRow,
    },
    /// One chunk of the per-channel latency trace (CSV bytes).
    TraceChunk {
        /// Echoed correlation id.
        id: u64,
        /// Raw CSV bytes; concatenate chunks in arrival order.
        data: Vec<u8>,
    },
    /// The job finished; no more replies will arrive for this id.
    Done {
        /// Echoed correlation id.
        id: u64,
        /// Number of `Row` replies that were streamed.
        rows: u64,
        /// Whether the result came from the content-addressed cache.
        cached: bool,
    },
    /// The job failed (mapping error, model panic, or decode failure).
    Error {
        /// Echoed correlation id (0 when the request never decoded).
        id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// A live progress sample (version 2, only when the request set
    /// `want_progress`). Content is a pure function of the candidates
    /// completed so far — see `SweepProgress` in `shiptlm-explore`; pacing
    /// and sample count are outside the determinism contract.
    Progress {
        /// Echoed correlation id.
        id: u64,
        /// Candidates simulated to completion so far.
        done: u64,
        /// Total candidates in the job.
        total: u64,
        /// Candidates skipped by pruning so far.
        pruned: u64,
        /// Estimated remaining *simulated* picoseconds.
        eta_hint_ps: u64,
    },
    /// The job's causal spans (version 2, only when the request carried a
    /// [`TraceCtx`]). Sent once, after rows/trace and before `Done`;
    /// already stamped with the requester's trace id and parented under
    /// its `parent_span`.
    Spans {
        /// Echoed correlation id.
        id: u64,
        /// The spans, in collection order.
        spans: Vec<CausalSpan>,
    },
}

impl Reply {
    /// The job id this reply answers.
    pub fn id(&self) -> u64 {
        match self {
            Reply::Accepted { id }
            | Reply::Rejected { id, .. }
            | Reply::Row { id, .. }
            | Reply::TraceChunk { id, .. }
            | Reply::Done { id, .. }
            | Reply::Error { id, .. }
            | Reply::Progress { id, .. }
            | Reply::Spans { id, .. } => *id,
        }
    }

    /// `true` for reply variants that exist only in protocol version 2;
    /// the server never sends these to a version-1 peer.
    pub fn is_v2_only(&self) -> bool {
        matches!(self, Reply::Progress { .. } | Reply::Spans { .. })
    }
}

/// Encodes one causal span into the canonical binary body.
pub fn put_span(w: &mut ByteWriter, s: &CausalSpan) {
    w.put_u64(s.trace_id);
    w.put_u64(s.span_id);
    w.put_u64(s.parent_id);
    s.stage.serialize(w);
    s.name.serialize(w);
    w.put_u32(s.track);
    w.put_u64(s.ts_ns);
    w.put_u64(s.dur_ns);
    w.put_u64(s.args.len() as u64);
    for (k, v) in &s.args {
        k.serialize(w);
        v.serialize(w);
    }
}

/// Decodes one causal span.
///
/// # Errors
///
/// Returns a [`WireError`] on truncated or invalid bodies.
pub fn get_span(r: &mut ByteReader<'_>) -> Result<CausalSpan, WireError> {
    let trace_id = r.get_u64()?;
    let span_id = r.get_u64()?;
    let parent_id = r.get_u64()?;
    let stage = String::deserialize(r)?;
    let name = String::deserialize(r)?;
    let track = r.get_u32()?;
    let ts_ns = r.get_u64()?;
    let dur_ns = r.get_u64()?;
    let n = r.get_u64()?;
    // Cap pre-allocation by what the body could possibly hold (two length-
    // prefixed strings per arg cannot be smaller than 2 bytes each).
    let mut args = Vec::with_capacity((n as usize).min(r.remaining() / 2).min(1024));
    for _ in 0..n {
        args.push((String::deserialize(r)?, String::deserialize(r)?));
    }
    Ok(CausalSpan {
        trace_id,
        span_id,
        parent_id,
        stage,
        name,
        track,
        ts_ns,
        dur_ns,
        args,
    })
}

// Binary bodies for the request/reply vocabulary. These are the canonical
// encodings (the JSON codec is the self-describing alternative); they are
// defined here so `JobRequest::cache_key` and `codec::BinCodec` cannot
// drift apart.

impl ShipSerialize for JobRequest {
    fn serialize(&self, w: &mut ByteWriter) {
        w.put_u64(self.id);
        self.spec.serialize(w);
        self.archs.serialize(w);
        w.put_u8(self.backend.tag());
        w.put_bool(self.want_trace);
        // Version-2 extension, *always* appended by this encoder. The
        // decoder is self-extending: a version-1 body simply ends after
        // `want_trace` and the extension defaults apply.
        match self.trace {
            Some(ctx) => {
                w.put_bool(true);
                w.put_u64(ctx.trace_id);
                w.put_u64(ctx.parent_span);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.want_progress);
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let id = r.get_u64()?;
        let spec = ModelSpec::deserialize(r)?;
        let archs = Vec::deserialize(r)?;
        let backend = BackendChoice::from_tag(r.get_u8()?)?;
        let want_trace = r.get_bool()?;
        // Trailing-optional extension: absent on version-1 bodies.
        let (trace, want_progress) = if r.remaining() == 0 {
            (None, false)
        } else {
            let trace = if r.get_bool()? {
                Some(TraceCtx {
                    trace_id: r.get_u64()?,
                    parent_span: r.get_u64()?,
                })
            } else {
                None
            };
            (trace, r.get_bool()?)
        };
        Ok(JobRequest {
            id,
            spec,
            archs,
            backend,
            want_trace,
            trace,
            want_progress,
        })
    }
}

impl ShipSerialize for Reply {
    fn serialize(&self, w: &mut ByteWriter) {
        match self {
            Reply::Accepted { id } => {
                w.put_u8(0);
                w.put_u64(*id);
            }
            Reply::Rejected { id, retry_after_ms } => {
                w.put_u8(1);
                w.put_u64(*id);
                w.put_u64(*retry_after_ms);
            }
            Reply::Row { id, row } => {
                w.put_u8(2);
                w.put_u64(*id);
                row.serialize(w);
            }
            Reply::TraceChunk { id, data } => {
                w.put_u8(3);
                w.put_u64(*id);
                data.serialize(w);
            }
            Reply::Done { id, rows, cached } => {
                w.put_u8(4);
                w.put_u64(*id);
                w.put_u64(*rows);
                w.put_bool(*cached);
            }
            Reply::Error { id, message } => {
                w.put_u8(5);
                w.put_u64(*id);
                message.serialize(w);
            }
            Reply::Progress {
                id,
                done,
                total,
                pruned,
                eta_hint_ps,
            } => {
                w.put_u8(6);
                w.put_u64(*id);
                w.put_u64(*done);
                w.put_u64(*total);
                w.put_u64(*pruned);
                w.put_u64(*eta_hint_ps);
            }
            Reply::Spans { id, spans } => {
                w.put_u8(7);
                w.put_u64(*id);
                w.put_u64(spans.len() as u64);
                for s in spans {
                    put_span(w, s);
                }
            }
        }
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Reply::Accepted { id: r.get_u64()? }),
            1 => Ok(Reply::Rejected {
                id: r.get_u64()?,
                retry_after_ms: r.get_u64()?,
            }),
            2 => Ok(Reply::Row {
                id: r.get_u64()?,
                row: ReportRow::deserialize(r)?,
            }),
            3 => Ok(Reply::TraceChunk {
                id: r.get_u64()?,
                data: Vec::<u8>::deserialize(r)?,
            }),
            4 => Ok(Reply::Done {
                id: r.get_u64()?,
                rows: r.get_u64()?,
                cached: r.get_bool()?,
            }),
            5 => Ok(Reply::Error {
                id: r.get_u64()?,
                message: String::deserialize(r)?,
            }),
            6 => Ok(Reply::Progress {
                id: r.get_u64()?,
                done: r.get_u64()?,
                total: r.get_u64()?,
                pruned: r.get_u64()?,
                eta_hint_ps: r.get_u64()?,
            }),
            7 => {
                let id = r.get_u64()?;
                let n = r.get_u64()?;
                let mut spans = Vec::with_capacity((n as usize).min(r.remaining()).min(4096));
                for _ in 0..n {
                    spans.push(get_span(r)?);
                }
                Ok(Reply::Spans { id, spans })
            }
            t => Err(WireError::InvalidValue(format!("unknown reply tag {t}"))),
        }
    }
}

/// Writes one frame: `u64` LE length prefix + body.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u64).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame, enforcing `max_frame` *before* allocating the body.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary (the
/// peer closed between frames), which is how connection teardown is
/// distinguished from corruption.
///
/// # Errors
///
/// [`GatewayError::Frame`] when the stream ends mid-prefix or the prefix
/// exceeds `max_frame`; [`GatewayError::Io`] on transport failures
/// (including a stream cut mid-body).
pub fn read_frame(r: &mut impl Read, max_frame: u64) -> Result<Option<Vec<u8>>, GatewayError> {
    let mut prefix = [0u8; 8];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(GatewayError::Frame(format!(
                    "connection closed mid-prefix ({got}/8 bytes)"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(GatewayError::Io(e)),
        }
    }
    let len = u64::from_le_bytes(prefix);
    if len > max_frame {
        return Err(GatewayError::Frame(format!(
            "frame of {len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes the 6-byte handshake (magic, [`VERSION`], codec tag).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_handshake(w: &mut impl Write, codec_tag: u8) -> io::Result<()> {
    write_handshake_version(w, VERSION, codec_tag)
}

/// Writes the 6-byte handshake at an explicit protocol version — how a
/// server echoes the version it negotiated, and how compatibility tests
/// speak as an old client.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_handshake_version(w: &mut impl Write, version: u8, codec_tag: u8) -> io::Result<()> {
    let mut buf = [0u8; 6];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4] = version;
    buf[5] = codec_tag;
    w.write_all(&buf)
}

/// Reads and validates the handshake, returning `(version, codec_tag)`.
/// Every version in `MIN_VERSION..=VERSION` is accepted; the caller pins
/// per-connection behavior to the returned version.
///
/// # Errors
///
/// [`GatewayError::Handshake`] on bad magic or a version outside the
/// supported range; [`GatewayError::Io`] when the stream ends early.
pub fn read_handshake(r: &mut impl Read) -> Result<(u8, u8), GatewayError> {
    let mut buf = [0u8; 6];
    r.read_exact(&mut buf)?;
    if buf[..4] != MAGIC {
        return Err(GatewayError::Handshake(format!(
            "bad magic {:02x?} (expected {:02x?})",
            &buf[..4],
            MAGIC
        )));
    }
    if !(MIN_VERSION..=VERSION).contains(&buf[4]) {
        return Err(GatewayError::Handshake(format!(
            "unsupported protocol version {} (this build speaks {MIN_VERSION}..={VERSION})",
            buf[4]
        )));
    }
    Ok((buf[4], buf[5]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiptlm_explore::model::GenConfig;

    fn a_request() -> JobRequest {
        JobRequest {
            id: 7,
            spec: ModelSpec::random(42, &GenConfig::default()),
            archs: vec![ArchSpec::plb(), ArchSpec::crossbar().with_burst(16)],
            backend: BackendChoice::Auto,
            want_trace: true,
            trace: None,
            want_progress: false,
        }
    }

    #[test]
    fn request_round_trips_in_binary() {
        let req = a_request();
        let back: JobRequest = from_wire(&to_wire(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn traced_request_round_trips_in_binary() {
        let mut req = a_request();
        req.trace = Some(TraceCtx {
            trace_id: 0xdead_beef,
            parent_span: 42,
        });
        req.want_progress = true;
        let back: JobRequest = from_wire(&to_wire(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn version1_request_body_decodes_with_extension_defaults() {
        // A v1 peer encodes exactly the base fields — no extension bytes.
        let req = a_request();
        let mut w = ByteWriter::new();
        w.put_u64(req.id);
        req.spec.serialize(&mut w);
        req.archs.serialize(&mut w);
        w.put_u8(req.backend.tag());
        w.put_bool(req.want_trace);
        let back: JobRequest = from_wire(&w.into_bytes()).unwrap();
        assert_eq!(back, req, "v1 body must decode with trace=None/progress=false");
        // And the cache key of the extension-free request matches what the
        // v1 encoder produced — old and new clients share cache entries.
        assert_eq!(back.cache_key(), req.cache_key());
    }

    #[test]
    fn cache_key_ignores_the_correlation_id() {
        let a = a_request();
        let mut b = a.clone();
        b.id = 99;
        assert_eq!(a.cache_key(), b.cache_key());
        let mut c = a.clone();
        c.want_trace = false;
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn cache_key_separates_traced_from_untraced_but_not_by_ids() {
        let a = a_request();
        let mut traced = a.clone();
        traced.trace = Some(TraceCtx {
            trace_id: 1,
            parent_span: 2,
        });
        assert_ne!(
            a.cache_key(),
            traced.cache_key(),
            "traced entries carry spans; they must not alias untraced ones"
        );
        let mut traced2 = traced.clone();
        traced2.trace = Some(TraceCtx {
            trace_id: 777,
            parent_span: 888,
        });
        traced2.want_progress = true;
        assert_eq!(
            traced.cache_key(),
            traced2.cache_key(),
            "concrete ids and progress pacing must not fragment the cache"
        );
    }

    #[test]
    fn replies_round_trip_in_binary() {
        let replies = vec![
            Reply::Accepted { id: 1 },
            Reply::Rejected {
                id: 2,
                retry_after_ms: 50,
            },
            Reply::Row {
                id: 3,
                row: ReportRow {
                    label: "plb/fixed/b64".into(),
                    sim_time_ps: 123_456,
                    messages: 9,
                    bytes: 4096,
                    delta_cycles: 77,
                },
            },
            Reply::TraceChunk {
                id: 4,
                data: b"chan,count\n".to_vec(),
            },
            Reply::Done {
                id: 5,
                rows: 2,
                cached: true,
            },
            Reply::Error {
                id: 6,
                message: "boom".into(),
            },
            Reply::Progress {
                id: 7,
                done: 12,
                total: 48,
                pruned: 3,
                eta_hint_ps: 9_000_000,
            },
            Reply::Spans {
                id: 8,
                spans: vec![CausalSpan {
                    trace_id: 0xfeed,
                    span_id: 10,
                    parent_id: 3,
                    stage: "candidate".into(),
                    name: "plb/fixed/b64".into(),
                    track: 1,
                    ts_ns: 5_500,
                    dur_ns: 1_200,
                    args: vec![("index".into(), "0".into())],
                }],
            },
        ];
        for r in replies {
            let back: Reply = from_wire(&to_wire(&r)).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.id(), r.id());
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..], 1024).unwrap_err();
        assert!(matches!(err, GatewayError::Frame(_)), "got {err}");
    }

    #[test]
    fn truncated_prefix_is_a_frame_error() {
        let buf = [1u8, 2, 3];
        let err = read_frame(&mut &buf[..], 1024).unwrap_err();
        assert!(matches!(err, GatewayError::Frame(_)), "got {err}");
    }

    #[test]
    fn handshake_round_trips_and_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_handshake(&mut buf, 1).unwrap();
        assert_eq!(read_handshake(&mut &buf[..]).unwrap(), (VERSION, 1));
        buf[0] = b'X';
        let err = read_handshake(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, GatewayError::Handshake(_)), "got {err}");
    }

    #[test]
    fn handshake_accepts_the_whole_supported_version_range() {
        for v in MIN_VERSION..=VERSION {
            let mut buf = Vec::new();
            write_handshake_version(&mut buf, v, 0).unwrap();
            assert_eq!(read_handshake(&mut &buf[..]).unwrap(), (v, 0));
        }
        let mut buf = Vec::new();
        write_handshake_version(&mut buf, VERSION + 1, 0).unwrap();
        let err = read_handshake(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, GatewayError::Handshake(_)), "got {err}");
    }
}
