//! Pluggable frame-body codecs.
//!
//! The gateway negotiates one codec per connection in the handshake. Two
//! are built in:
//!
//! * [`BinCodec`] (tag 0) — the compact canonical binary encoding on
//!   `ship::wire`, shared with [`JobRequest::cache_key`];
//! * [`JsonCodec`] (tag 1) — self-describing text whose models and
//!   architectures are the JSON forms of the job schema
//!   (`shiptlm_explore::model`), shared with the conformance corpus, for
//!   hand-written clients and debugging with standard tools.
//!
//! Both sides of a connection must agree on the codec; the server echoes
//! the client's handshake so a mismatch is caught before any frame flows.

use std::fmt;

use shiptlm_explore::arch::ArchSpec;
use shiptlm_explore::model::ModelSpec;
use shiptlm_kernel::causal::{CausalSpan, TraceCtx};
use shiptlm_kernel::json::Json;
use shiptlm_ship::prelude::{from_wire, to_wire};

use crate::proto::{BackendChoice, GatewayError, JobRequest, Reply, ReportRow};

/// One frame-body encoding, negotiated per connection.
pub trait WireCodec: Send + Sync + fmt::Debug {
    /// Stable one-byte handshake tag.
    fn tag(&self) -> u8;
    /// Human-readable name (shows up in errors and metrics).
    fn name(&self) -> &'static str;
    /// Encodes a request body.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::Codec`] when the request cannot be
    /// represented (e.g. non-UTF-8 where the encoding requires text).
    fn encode_request(&self, req: &JobRequest) -> Result<Vec<u8>, GatewayError>;
    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// Returns a classified [`GatewayError`] on malformed input; never
    /// panics on untrusted bytes.
    fn decode_request(&self, body: &[u8]) -> Result<JobRequest, GatewayError>;
    /// Encodes a reply body.
    ///
    /// # Errors
    ///
    /// As [`WireCodec::encode_request`].
    fn encode_reply(&self, reply: &Reply) -> Result<Vec<u8>, GatewayError>;
    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// As [`WireCodec::decode_request`].
    fn decode_reply(&self, body: &[u8]) -> Result<Reply, GatewayError>;
}

/// Compact canonical binary codec (handshake tag 0).
#[derive(Debug, Clone, Copy, Default)]
pub struct BinCodec;

/// Self-describing JSON codec (handshake tag 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec;

/// The binary codec singleton.
pub static BIN: BinCodec = BinCodec;

/// The JSON codec singleton.
pub static JSON: JsonCodec = JsonCodec;

/// Resolves a handshake tag to its codec.
pub fn codec_for(tag: u8) -> Option<&'static dyn WireCodec> {
    match tag {
        0 => Some(&BIN),
        1 => Some(&JSON),
        _ => None,
    }
}

impl WireCodec for BinCodec {
    fn tag(&self) -> u8 {
        0
    }

    fn name(&self) -> &'static str {
        "bin"
    }

    fn encode_request(&self, req: &JobRequest) -> Result<Vec<u8>, GatewayError> {
        Ok(to_wire(req))
    }

    fn decode_request(&self, body: &[u8]) -> Result<JobRequest, GatewayError> {
        Ok(from_wire(body)?)
    }

    fn encode_reply(&self, reply: &Reply) -> Result<Vec<u8>, GatewayError> {
        Ok(to_wire(reply))
    }

    fn decode_reply(&self, body: &[u8]) -> Result<Reply, GatewayError> {
        Ok(from_wire(body)?)
    }
}

fn row_to_json(row: &ReportRow) -> Json {
    Json::obj(vec![
        ("label", Json::str(&row.label)),
        ("sim_time_ps", Json::u64_str(row.sim_time_ps)),
        ("messages", Json::u64_str(row.messages)),
        ("bytes", Json::u64_str(row.bytes)),
        ("delta_cycles", Json::u64_str(row.delta_cycles)),
    ])
}

fn get_str(v: &Json, key: &str) -> Result<String, GatewayError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| GatewayError::Codec(format!("missing or non-string '{key}'")))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, GatewayError> {
    v.get(key)
        .and_then(Json::as_u64_str)
        .ok_or_else(|| GatewayError::Codec(format!("missing or non-u64 '{key}'")))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, GatewayError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| GatewayError::Codec(format!("missing or non-bool '{key}'")))
}

fn span_to_json(s: &CausalSpan) -> Json {
    let args: Vec<Json> = s
        .args
        .iter()
        .map(|(k, v)| Json::Arr(vec![Json::str(k), Json::str(v)]))
        .collect();
    Json::obj(vec![
        ("trace_id", Json::u64_str(s.trace_id)),
        ("span_id", Json::u64_str(s.span_id)),
        ("parent_id", Json::u64_str(s.parent_id)),
        ("stage", Json::str(&s.stage)),
        ("name", Json::str(&s.name)),
        ("track", Json::u64_str(u64::from(s.track))),
        ("ts_ns", Json::u64_str(s.ts_ns)),
        ("dur_ns", Json::u64_str(s.dur_ns)),
        ("args", Json::Arr(args)),
    ])
}

fn span_from_json(v: &Json) -> Result<CausalSpan, GatewayError> {
    let args = v
        .get("args")
        .and_then(Json::as_arr)
        .ok_or_else(|| GatewayError::Codec("missing or non-array 'args'".into()))?
        .iter()
        .map(|pair| {
            let kv = pair
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| GatewayError::Codec("span arg is not a [k, v] pair".into()))?;
            let k = kv[0]
                .as_str()
                .ok_or_else(|| GatewayError::Codec("non-string span arg key".into()))?;
            let val = kv[1]
                .as_str()
                .ok_or_else(|| GatewayError::Codec("non-string span arg value".into()))?;
            Ok((k.to_string(), val.to_string()))
        })
        .collect::<Result<Vec<_>, GatewayError>>()?;
    let track = get_u64(v, "track")?;
    Ok(CausalSpan {
        trace_id: get_u64(v, "trace_id")?,
        span_id: get_u64(v, "span_id")?,
        parent_id: get_u64(v, "parent_id")?,
        stage: get_str(v, "stage")?,
        name: get_str(v, "name")?,
        track: u32::try_from(track)
            .map_err(|_| GatewayError::Codec(format!("span track {track} exceeds u32")))?,
        ts_ns: get_u64(v, "ts_ns")?,
        dur_ns: get_u64(v, "dur_ns")?,
        args,
    })
}

fn row_from_json(v: &Json) -> Result<ReportRow, GatewayError> {
    Ok(ReportRow {
        label: get_str(v, "label")?,
        sim_time_ps: get_u64(v, "sim_time_ps")?,
        messages: get_u64(v, "messages")?,
        bytes: get_u64(v, "bytes")?,
        delta_cycles: get_u64(v, "delta_cycles")?,
    })
}

fn parse(body: &[u8]) -> Result<Json, GatewayError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| GatewayError::Codec(format!("body is not UTF-8: {e}")))?;
    Json::parse(text).map_err(GatewayError::Codec)
}

impl WireCodec for JsonCodec {
    fn tag(&self) -> u8 {
        1
    }

    fn name(&self) -> &'static str {
        "json"
    }

    fn encode_request(&self, req: &JobRequest) -> Result<Vec<u8>, GatewayError> {
        let archs: Vec<Json> = req.archs.iter().map(ArchSpec::to_json).collect();
        let mut fields = vec![
            ("kind", Json::str("job")),
            ("id", Json::u64_str(req.id)),
            ("model", req.spec.to_json()),
            ("archs", Json::Arr(archs)),
            ("backend", Json::str(req.backend.name())),
            ("want_trace", Json::Bool(req.want_trace)),
        ];
        // Version-2 extension fields, emitted only when used so the JSON a
        // version-1 server would see is unchanged.
        if let Some(ctx) = req.trace {
            fields.push((
                "trace",
                Json::obj(vec![
                    ("trace_id", Json::u64_str(ctx.trace_id)),
                    ("parent_span", Json::u64_str(ctx.parent_span)),
                ]),
            ));
        }
        if req.want_progress {
            fields.push(("want_progress", Json::Bool(true)));
        }
        Ok(Json::obj(fields).to_string().into_bytes())
    }

    fn decode_request(&self, body: &[u8]) -> Result<JobRequest, GatewayError> {
        let v = parse(body)?;
        if get_str(&v, "kind")? != "job" {
            return Err(GatewayError::Codec("expected kind 'job'".into()));
        }
        let model = v
            .get("model")
            .ok_or_else(|| GatewayError::Codec("missing 'model'".into()))?;
        let spec = ModelSpec::from_json(model).map_err(GatewayError::Codec)?;
        let archs = v
            .get("archs")
            .and_then(Json::as_arr)
            .ok_or_else(|| GatewayError::Codec("missing or non-array 'archs'".into()))?
            .iter()
            .map(|a| ArchSpec::from_json(a).map_err(GatewayError::Codec))
            .collect::<Result<Vec<_>, _>>()?;
        let backend =
            BackendChoice::from_name(&get_str(&v, "backend")?).map_err(GatewayError::Codec)?;
        // Optional version-2 extension fields; absent means v1 semantics.
        let trace = match v.get("trace") {
            Some(t) => Some(TraceCtx {
                trace_id: get_u64(t, "trace_id")?,
                parent_span: get_u64(t, "parent_span")?,
            }),
            None => None,
        };
        let want_progress = match v.get("want_progress") {
            Some(b) => b
                .as_bool()
                .ok_or_else(|| GatewayError::Codec("non-bool 'want_progress'".into()))?,
            None => false,
        };
        Ok(JobRequest {
            id: get_u64(&v, "id")?,
            spec,
            archs,
            backend,
            want_trace: get_bool(&v, "want_trace")?,
            trace,
            want_progress,
        })
    }

    fn encode_reply(&self, reply: &Reply) -> Result<Vec<u8>, GatewayError> {
        let v = match reply {
            Reply::Accepted { id } => Json::obj(vec![
                ("kind", Json::str("accepted")),
                ("id", Json::u64_str(*id)),
            ]),
            Reply::Rejected { id, retry_after_ms } => Json::obj(vec![
                ("kind", Json::str("rejected")),
                ("id", Json::u64_str(*id)),
                ("retry_after_ms", Json::u64_str(*retry_after_ms)),
            ]),
            Reply::Row { id, row } => Json::obj(vec![
                ("kind", Json::str("row")),
                ("id", Json::u64_str(*id)),
                ("row", row_to_json(row)),
            ]),
            Reply::TraceChunk { id, data } => {
                let text = std::str::from_utf8(data).map_err(|e| {
                    GatewayError::Codec(format!("trace chunk is not UTF-8: {e}"))
                })?;
                Json::obj(vec![
                    ("kind", Json::str("trace")),
                    ("id", Json::u64_str(*id)),
                    ("data", Json::str(text)),
                ])
            }
            Reply::Done { id, rows, cached } => Json::obj(vec![
                ("kind", Json::str("done")),
                ("id", Json::u64_str(*id)),
                ("rows", Json::u64_str(*rows)),
                ("cached", Json::Bool(*cached)),
            ]),
            Reply::Error { id, message } => Json::obj(vec![
                ("kind", Json::str("error")),
                ("id", Json::u64_str(*id)),
                ("message", Json::str(message)),
            ]),
            Reply::Progress {
                id,
                done,
                total,
                pruned,
                eta_hint_ps,
            } => Json::obj(vec![
                ("kind", Json::str("progress")),
                ("id", Json::u64_str(*id)),
                ("done", Json::u64_str(*done)),
                ("total", Json::u64_str(*total)),
                ("pruned", Json::u64_str(*pruned)),
                ("eta_hint_ps", Json::u64_str(*eta_hint_ps)),
            ]),
            Reply::Spans { id, spans } => Json::obj(vec![
                ("kind", Json::str("spans")),
                ("id", Json::u64_str(*id)),
                ("spans", Json::Arr(spans.iter().map(span_to_json).collect())),
            ]),
        };
        Ok(v.to_string().into_bytes())
    }

    fn decode_reply(&self, body: &[u8]) -> Result<Reply, GatewayError> {
        let v = parse(body)?;
        let id = get_u64(&v, "id")?;
        match get_str(&v, "kind")?.as_str() {
            "accepted" => Ok(Reply::Accepted { id }),
            "rejected" => Ok(Reply::Rejected {
                id,
                retry_after_ms: get_u64(&v, "retry_after_ms")?,
            }),
            "row" => {
                let row = v
                    .get("row")
                    .ok_or_else(|| GatewayError::Codec("missing 'row'".into()))?;
                Ok(Reply::Row {
                    id,
                    row: row_from_json(row)?,
                })
            }
            "trace" => Ok(Reply::TraceChunk {
                id,
                data: get_str(&v, "data")?.into_bytes(),
            }),
            "done" => Ok(Reply::Done {
                id,
                rows: get_u64(&v, "rows")?,
                cached: get_bool(&v, "cached")?,
            }),
            "error" => Ok(Reply::Error {
                id,
                message: get_str(&v, "message")?,
            }),
            "progress" => Ok(Reply::Progress {
                id,
                done: get_u64(&v, "done")?,
                total: get_u64(&v, "total")?,
                pruned: get_u64(&v, "pruned")?,
                eta_hint_ps: get_u64(&v, "eta_hint_ps")?,
            }),
            "spans" => Ok(Reply::Spans {
                id,
                spans: v
                    .get("spans")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| GatewayError::Codec("missing or non-array 'spans'".into()))?
                    .iter()
                    .map(span_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            other => Err(GatewayError::Codec(format!("unknown reply kind '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiptlm_explore::model::GenConfig;

    fn a_request() -> JobRequest {
        JobRequest {
            id: 11,
            spec: ModelSpec::random(7, &GenConfig::default()),
            archs: vec![ArchSpec::opb().with_burst(16), ArchSpec::crossbar()],
            backend: BackendChoice::De,
            want_trace: false,
            trace: None,
            want_progress: false,
        }
    }

    #[test]
    fn both_codecs_round_trip_requests() {
        let mut req = a_request();
        for codec in [&BIN as &dyn WireCodec, &JSON as &dyn WireCodec] {
            let body = codec.encode_request(&req).unwrap();
            let back = codec.decode_request(&body).unwrap();
            assert_eq!(back, req, "codec {}", codec.name());
        }
        // And with the version-2 extension populated.
        req.trace = Some(TraceCtx {
            trace_id: u64::MAX - 1,
            parent_span: 12,
        });
        req.want_progress = true;
        for codec in [&BIN as &dyn WireCodec, &JSON as &dyn WireCodec] {
            let body = codec.encode_request(&req).unwrap();
            let back = codec.decode_request(&body).unwrap();
            assert_eq!(back, req, "codec {} (traced)", codec.name());
        }
    }

    #[test]
    fn both_codecs_round_trip_replies() {
        let replies = vec![
            Reply::Accepted { id: 1 },
            Reply::Rejected {
                id: 2,
                retry_after_ms: 25,
            },
            Reply::Row {
                id: 3,
                row: ReportRow {
                    label: "plb/rr/b16".into(),
                    sim_time_ps: 1,
                    messages: 2,
                    bytes: 3,
                    delta_cycles: 4,
                },
            },
            Reply::TraceChunk {
                id: 4,
                data: b"channel,mean_ns\nc0,12.5\n".to_vec(),
            },
            Reply::Done {
                id: 5,
                rows: 9,
                cached: false,
            },
            Reply::Error {
                id: 6,
                message: "bad \"model\"\nline two".into(),
            },
            Reply::Progress {
                id: 7,
                done: 3,
                total: 13,
                pruned: 2,
                eta_hint_ps: 42_000_000,
            },
            Reply::Spans {
                id: 8,
                spans: vec![
                    CausalSpan {
                        trace_id: 0x1234_5678_9abc_def0,
                        span_id: 2,
                        parent_id: 1,
                        stage: "exec".into(),
                        name: "sweep".into(),
                        track: 0,
                        ts_ns: 100,
                        dur_ns: 5_000,
                        args: vec![("outcome".into(), "miss".into())],
                    },
                    CausalSpan {
                        trace_id: 0x1234_5678_9abc_def0,
                        span_id: 3,
                        parent_id: 2,
                        stage: "txn".into(),
                        name: "ship:send".into(),
                        track: 1,
                        ts_ns: 0,
                        dur_ns: 250,
                        args: vec![
                            ("resource".into(), "ch \"0\"\n".into()),
                            ("bytes".into(), "64".into()),
                        ],
                    },
                ],
            },
        ];
        for codec in [&BIN as &dyn WireCodec, &JSON as &dyn WireCodec] {
            for r in &replies {
                let body = codec.encode_reply(r).unwrap();
                let back = codec.decode_reply(&body).unwrap();
                assert_eq!(&back, r, "codec {}", codec.name());
            }
        }
    }

    #[test]
    fn garbage_bodies_are_classified_not_panics() {
        let garbage: &[&[u8]] = &[b"", b"\xff\xfe\x00", b"{", b"{\"kind\":42}", b"[1,2,3]"];
        for codec in [&BIN as &dyn WireCodec, &JSON as &dyn WireCodec] {
            for g in garbage {
                assert!(
                    codec.decode_request(g).is_err(),
                    "codec {} accepted garbage {:?}",
                    codec.name(),
                    g
                );
            }
        }
    }

    #[test]
    fn codec_tags_resolve() {
        assert_eq!(codec_for(0).unwrap().name(), "bin");
        assert_eq!(codec_for(1).unwrap().name(), "json");
        assert!(codec_for(7).is_none());
    }
}
