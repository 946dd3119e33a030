//! The gateway job schema: seeded system models.
//!
//! A [`ModelSpec`] is a declarative, serializable description of a system:
//! a bag of communication *motifs* (pipelines, streams, RPC pairs, fan-out /
//! fan-in stars) with randomized payload sizes, burst counts and compute
//! delays. `to_app` elaborates it into an [`AppSpec`] whose PE behaviours
//! regenerate every payload deterministically from the model seed, so the
//! same spec produces byte-identical traffic at every abstraction level —
//! the property the differential conformance harness checks.
//!
//! Motifs own disjoint PEs and channels, which makes generated models
//! deadlock-free by construction: every motif is a DAG of blocking
//! producer/consumer loops with matched send/recv counts.
//!
//! A job (a spec plus candidate [`ArchSpec`](crate::arch::ArchSpec)s)
//! travels in exactly two forms: the binary [`ShipSerialize`] encoding that
//! content-addresses gateway results, and the JSON objects of gateway job
//! documents and replayable corpus cases. Both decoders run the same range
//! check ([`Motif::check`], [`ModelSpec::check`]), so a value that would
//! wedge or crash an executor is a classified decode error, never a job.

use shiptlm_cam::wrapper::{regs, ADAPTER_SIZE};
use shiptlm_kernel::json::Json;
use shiptlm_kernel::rng::Rng;
use shiptlm_kernel::time::SimDur;
use shiptlm_ship::serialize::ShipSerialize;
use shiptlm_ship::wire::{ByteReader, ByteWriter, WireError};

use crate::app::AppSpec;

/// Most PEs one model may elaborate to. On the direct backend every PE is
/// an OS thread; the bound matches the 1024-node cap the NoC elaborator
/// puts on meshes.
pub const MAX_PES: usize = 1024;

/// Payloads travel as `Vec<u8>`, which SHIP prefixes with a `u64` length.
const LEN_PREFIX: usize = 8;

/// Largest payload one mapped message carries: the adapter's transmit
/// window minus the length prefix.
pub const MAX_MESSAGE_BYTES: usize = (ADAPTER_SIZE - regs::TX_WIN) as usize - LEN_PREFIX;

/// Largest RPC payload: the request and its same-sized reply must both fit,
/// and the reply window is the smaller of the two.
pub const MAX_RPC_BYTES: usize = (regs::REPLY_WIN_END - regs::REPLY_WIN) as usize - LEN_PREFIX;

/// One communication motif; PEs and channels are namespaced per motif.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Motif {
    /// `src → stage… → sink` linear pipeline; stages transform
    /// (`wrapping_add(1)`) after `compute_ns` of processing time.
    Pipeline {
        /// Total PE count including source and sink (≥ 2).
        stages: usize,
        /// Blocks pushed through the pipeline.
        blocks: u32,
        /// Bytes per block.
        bytes: usize,
        /// Per-stage compute delay in nanoseconds.
        compute_ns: u64,
    },
    /// One producer → consumer stream with an explicit per-message size
    /// list (sizes may be zero).
    Stream {
        /// Payload size of each message, in order.
        sizes: Vec<usize>,
    },
    /// One client ↔ server request/reply pair; the server XOR-transforms
    /// after `compute_ns`.
    Rpc {
        /// Number of request/reply round trips.
        requests: u32,
        /// Request payload bytes.
        bytes: usize,
        /// Server compute delay in nanoseconds.
        compute_ns: u64,
    },
    /// One source feeding `sinks` independent sinks round-robin.
    FanOut {
        /// Number of sink PEs (≥ 1).
        sinks: usize,
        /// Blocks sent *per sink*.
        blocks: u32,
        /// Bytes per block.
        bytes: usize,
    },
    /// `sources` producers feeding one consumer, drained port by port.
    FanIn {
        /// Number of source PEs (≥ 1).
        sources: usize,
        /// Blocks sent per source.
        blocks: u32,
        /// Bytes per block.
        bytes: usize,
    },
}

impl Motif {
    /// Number of PEs this motif elaborates to.
    pub fn pe_count(&self) -> usize {
        match self {
            Motif::Pipeline { stages, .. } => *stages,
            Motif::Stream { .. } => 2,
            Motif::Rpc { .. } => 2,
            Motif::FanOut { sinks, .. } => sinks + 1,
            Motif::FanIn { sources, .. } => sources + 1,
        }
    }

    /// Number of channels this motif elaborates to.
    pub fn channel_count(&self) -> usize {
        match self {
            Motif::Pipeline { stages, .. } => stages - 1,
            Motif::Stream { .. } | Motif::Rpc { .. } => 1,
            Motif::FanOut { sinks, .. } => *sinks,
            Motif::FanIn { sources, .. } => *sources,
        }
    }

    /// Number of application-level messages this motif transfers (replies
    /// count separately from requests).
    pub fn message_count(&self) -> u64 {
        match self {
            Motif::Pipeline { stages, blocks, .. } => (*stages as u64 - 1) * u64::from(*blocks),
            Motif::Stream { sizes } => sizes.len() as u64,
            Motif::Rpc { requests, .. } => 2 * u64::from(*requests),
            Motif::FanOut { sinks, blocks, .. } => *sinks as u64 * u64::from(*blocks),
            Motif::FanIn {
                sources, blocks, ..
            } => *sources as u64 * u64::from(*blocks),
        }
    }

    /// The range check both decoders run: rejects values that would wedge
    /// or crash an executor (a pipeline shorter than source plus sink, a
    /// payload above its mailbox window, more than [`MAX_PES`] PEs).
    ///
    /// # Errors
    ///
    /// Describes the first out-of-range field.
    pub fn check(&self) -> Result<(), String> {
        let (pes, bytes, max_bytes) = match self {
            Motif::Pipeline { stages, bytes, .. } => {
                if *stages < 2 {
                    return Err(format!("pipeline needs at least 2 stages, got {stages}"));
                }
                (*stages, *bytes, MAX_MESSAGE_BYTES)
            }
            Motif::Stream { sizes } => (
                2,
                sizes.iter().copied().max().unwrap_or(0),
                MAX_MESSAGE_BYTES,
            ),
            Motif::Rpc { bytes, .. } => (2, *bytes, MAX_RPC_BYTES),
            Motif::FanOut {
                sinks: n, bytes, ..
            }
            | Motif::FanIn {
                sources: n, bytes, ..
            } => (n.saturating_add(1), *bytes, MAX_MESSAGE_BYTES),
        };
        if pes > MAX_PES {
            return Err(format!(
                "{} motif of {pes} PEs exceeds {MAX_PES}",
                self.kind()
            ));
        }
        if bytes > max_bytes {
            return Err(format!(
                "{} payload of {bytes} bytes exceeds the {max_bytes}-byte mailbox window",
                self.kind()
            ));
        }
        Ok(())
    }

    fn kind(&self) -> &'static str {
        match self {
            Motif::Pipeline { .. } => "pipeline",
            Motif::Stream { .. } => "stream",
            Motif::Rpc { .. } => "rpc",
            Motif::FanOut { .. } => "fan_out",
            Motif::FanIn { .. } => "fan_in",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("kind", Json::str(self.kind()))];
        match self {
            Motif::Pipeline {
                stages,
                blocks,
                bytes,
                compute_ns,
            } => {
                fields.push(("stages", Json::num(*stages as f64)));
                fields.push(("blocks", Json::num(f64::from(*blocks))));
                fields.push(("bytes", Json::num(*bytes as f64)));
                fields.push(("compute_ns", Json::u64_str(*compute_ns)));
            }
            Motif::Stream { sizes } => {
                fields.push((
                    "sizes",
                    Json::Arr(sizes.iter().map(|s| Json::num(*s as f64)).collect()),
                ));
            }
            Motif::Rpc {
                requests,
                bytes,
                compute_ns,
            } => {
                fields.push(("requests", Json::num(f64::from(*requests))));
                fields.push(("bytes", Json::num(*bytes as f64)));
                fields.push(("compute_ns", Json::u64_str(*compute_ns)));
            }
            Motif::FanOut {
                sinks,
                blocks,
                bytes,
            } => {
                fields.push(("sinks", Json::num(*sinks as f64)));
                fields.push(("blocks", Json::num(f64::from(*blocks))));
                fields.push(("bytes", Json::num(*bytes as f64)));
            }
            Motif::FanIn {
                sources,
                blocks,
                bytes,
            } => {
                fields.push(("sources", Json::num(*sources as f64)));
                fields.push(("blocks", Json::num(f64::from(*blocks))));
                fields.push(("bytes", Json::num(*bytes as f64)));
            }
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<Motif, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("motif missing 'kind'")?;
        let ns_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64_str)
                .ok_or_else(|| format!("motif missing '{k}'"))
        };
        let motif = match kind {
            "pipeline" => Motif::Pipeline {
                stages: int_field(v, "stages")?,
                blocks: int_field(v, "blocks")?,
                bytes: int_field(v, "bytes")?,
                compute_ns: ns_field("compute_ns")?,
            },
            "stream" => Motif::Stream {
                sizes: v
                    .get("sizes")
                    .and_then(Json::as_arr)
                    .ok_or("stream motif missing 'sizes'")?
                    .iter()
                    .map(|s| int(s).ok_or("bad size entry"))
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "rpc" => Motif::Rpc {
                requests: int_field(v, "requests")?,
                bytes: int_field(v, "bytes")?,
                compute_ns: ns_field("compute_ns")?,
            },
            "fan_out" => Motif::FanOut {
                sinks: int_field(v, "sinks")?,
                blocks: int_field(v, "blocks")?,
                bytes: int_field(v, "bytes")?,
            },
            "fan_in" => Motif::FanIn {
                sources: int_field(v, "sources")?,
                blocks: int_field(v, "blocks")?,
                bytes: int_field(v, "bytes")?,
            },
            other => return Err(format!("unknown motif kind '{other}'")),
        };
        motif.check()?;
        Ok(motif)
    }
}

/// A JSON number as an exact integer of type `T`.
fn int<T: TryFrom<u64>>(v: &Json) -> Option<T> {
    v.as_u64().and_then(|n| T::try_from(n).ok())
}

/// The integer field `key` of object `v`.
pub(crate) fn int_field<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    v.get(key)
        .and_then(int)
        .ok_or_else(|| format!("missing or out-of-range '{key}'"))
}

/// A complete generated system model, replayable from its JSON form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Model name (used for the app name and repro file names).
    pub name: String,
    /// Seed every payload is derived from.
    pub seed: u64,
    /// The motifs; each elaborates to a disjoint PE/channel group.
    pub motifs: Vec<Motif>,
    /// When `true` (the default), consumer PEs assert payload contents
    /// in-app. The harness disables this to prove that *silent* corruption
    /// — corruption no application check would notice — is still caught by
    /// the cross-level equivalence check.
    pub app_checks: bool,
}

/// Knobs bounding random generation; defaults keep models small enough for
/// fast debug-mode simulation across all abstraction levels.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Motifs per model, inclusive range.
    pub motifs: (usize, usize),
    /// Blocks / requests / messages per motif, inclusive range.
    pub blocks: (u32, u32),
    /// Payload bytes, inclusive range (zero-length payloads are always
    /// sprinkled in by the stream motif).
    pub bytes: (usize, usize),
    /// Maximum per-stage compute delay in nanoseconds.
    pub max_compute_ns: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            motifs: (1, 3),
            blocks: (1, 6),
            bytes: (1, 256),
            max_compute_ns: 2_000,
        }
    }
}

/// Deterministic payload for block `block` of channel `chan` in motif
/// `motif` of a model seeded with `seed`. Stream-independent mixing keeps
/// payloads distinct across channels and blocks.
pub fn payload(seed: u64, motif: usize, chan: usize, block: u32, len: usize) -> Vec<u8> {
    let s = seed
        ^ (motif as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (chan as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ u64::from(block).wrapping_mul(0x1656_67B1_9E37_79F9)
        ^ 0x5851_F42D_4C95_7F2D;
    Rng::seed_from_u64(s).bytes(len)
}

impl ModelSpec {
    /// Generates a random model from `seed` within the bounds of `cfg`.
    pub fn random(seed: u64, cfg: &GenConfig) -> ModelSpec {
        let mut rng = Rng::seed_from_u64(seed);
        let n_motifs = rng.gen_range_usize(cfg.motifs.0, cfg.motifs.1 + 1);
        let mut motifs = Vec::with_capacity(n_motifs);
        for _ in 0..n_motifs {
            let blocks =
                rng.gen_range_u64(u64::from(cfg.blocks.0), u64::from(cfg.blocks.1) + 1) as u32;
            let bytes = rng.gen_range_usize(cfg.bytes.0, cfg.bytes.1 + 1);
            let compute_ns = if cfg.max_compute_ns == 0 {
                0
            } else {
                rng.gen_range_u64(0, cfg.max_compute_ns + 1)
            };
            motifs.push(match rng.gen_range_usize(0, 5) {
                0 => Motif::Pipeline {
                    stages: rng.gen_range_usize(2, 5),
                    blocks,
                    bytes,
                    compute_ns,
                },
                1 => {
                    let n = rng.gen_range_usize(1, blocks as usize + 1);
                    let sizes = (0..n)
                        .map(|_| {
                            // One in four messages is empty: zero-length
                            // payloads must survive every level.
                            if rng.gen_range_usize(0, 4) == 0 {
                                0
                            } else {
                                rng.gen_range_usize(cfg.bytes.0, cfg.bytes.1 + 1)
                            }
                        })
                        .collect();
                    Motif::Stream { sizes }
                }
                2 => Motif::Rpc {
                    requests: blocks,
                    bytes,
                    compute_ns,
                },
                3 => Motif::FanOut {
                    sinks: rng.gen_range_usize(1, 4),
                    blocks,
                    bytes,
                },
                _ => Motif::FanIn {
                    sources: rng.gen_range_usize(1, 4),
                    blocks,
                    bytes,
                },
            });
        }
        ModelSpec {
            name: format!("gen-{seed}"),
            seed,
            motifs,
            app_checks: true,
        }
    }

    /// The range check both decoders run on a whole model: at most
    /// [`MAX_PES`] PEs in total (each motif is checked as it decodes).
    ///
    /// # Errors
    ///
    /// Describes the violation.
    pub fn check(&self) -> Result<(), String> {
        let pes = self.pe_count();
        if pes > MAX_PES {
            return Err(format!("model of {pes} PEs exceeds {MAX_PES}"));
        }
        Ok(())
    }

    /// Total PE count of the elaborated model.
    pub fn pe_count(&self) -> usize {
        self.motifs.iter().map(Motif::pe_count).sum()
    }

    /// Total channel count of the elaborated model.
    pub fn channel_count(&self) -> usize {
        self.motifs.iter().map(Motif::channel_count).sum()
    }

    /// Total application-level message count of the elaborated model.
    pub fn message_count(&self) -> u64 {
        self.motifs.iter().map(Motif::message_count).sum()
    }

    /// All PE names of the elaborated model.
    pub fn pe_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (i, m) in self.motifs.iter().enumerate() {
            match m {
                Motif::Pipeline { stages, .. } => {
                    for s in 0..*stages {
                        names.push(format!("m{i}.p{s}"));
                    }
                }
                Motif::Stream { .. } => {
                    names.push(format!("m{i}.prod"));
                    names.push(format!("m{i}.cons"));
                }
                Motif::Rpc { .. } => {
                    names.push(format!("m{i}.client"));
                    names.push(format!("m{i}.server"));
                }
                Motif::FanOut { sinks, .. } => {
                    names.push(format!("m{i}.src"));
                    for s in 0..*sinks {
                        names.push(format!("m{i}.sink{s}"));
                    }
                }
                Motif::FanIn { sources, .. } => {
                    for s in 0..*sources {
                        names.push(format!("m{i}.src{s}"));
                    }
                    names.push(format!("m{i}.cons"));
                }
            }
        }
        names
    }

    /// Elaborates the spec into a runnable [`AppSpec`]. Every payload is a
    /// pure function of `(seed, motif, channel, block)`, and consumer-side
    /// content assertions are included when [`app_checks`](Self::app_checks)
    /// is set.
    pub fn to_app(&self) -> AppSpec {
        let mut app = AppSpec::new(&self.name);
        let seed = self.seed;
        let checks = self.app_checks;
        for (i, m) in self.motifs.iter().enumerate() {
            match *m {
                Motif::Pipeline {
                    stages,
                    blocks,
                    bytes,
                    compute_ns,
                } => {
                    let src = format!("m{i}.p0");
                    app.add_pe(&src, move |h, ports| async move {
                        for b in 0..blocks {
                            let data = payload(seed, i, 0, b, bytes);
                            ports[0].send_async(&h, &data).await.unwrap();
                        }
                    });
                    for s in 1..stages - 1 {
                        let name = format!("m{i}.p{s}");
                        app.add_pe(&name, move |h, ports| async move {
                            for _ in 0..blocks {
                                let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                                if compute_ns > 0 {
                                    h.wait_for(SimDur::ns(compute_ns)).await;
                                }
                                let out: Vec<u8> = data.iter().map(|b| b.wrapping_add(1)).collect();
                                ports[1].send_async(&h, &out).await.unwrap();
                            }
                        });
                    }
                    let sink = format!("m{i}.p{}", stages - 1);
                    let hops = (stages - 2) as u8;
                    app.add_pe(&sink, move |h, ports| async move {
                        for b in 0..blocks {
                            let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                            if checks {
                                let expected: Vec<u8> = payload(seed, i, 0, b, bytes)
                                    .iter()
                                    .map(|x| x.wrapping_add(hops))
                                    .collect();
                                assert_eq!(data, expected, "pipeline m{i} corrupted block {b}");
                            }
                        }
                    });
                    for w in 0..stages - 1 {
                        app.connect(
                            &format!("m{i}.ch{w}"),
                            &format!("m{i}.p{w}"),
                            &format!("m{i}.p{}", w + 1),
                        );
                    }
                }
                Motif::Stream { ref sizes } => {
                    let sizes_tx = sizes.clone();
                    app.add_pe(&format!("m{i}.prod"), move |h, ports| {
                        let sizes = sizes_tx.clone();
                        async move {
                            for (b, len) in sizes.iter().enumerate() {
                                let data = payload(seed, i, 0, b as u32, *len);
                                ports[0].send_async(&h, &data).await.unwrap();
                            }
                        }
                    });
                    let sizes_rx = sizes.clone();
                    app.add_pe(&format!("m{i}.cons"), move |h, ports| {
                        let sizes = sizes_rx.clone();
                        async move {
                            for (b, len) in sizes.iter().enumerate() {
                                let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                                if checks {
                                    let expected = payload(seed, i, 0, b as u32, *len);
                                    assert_eq!(data, expected, "stream m{i} corrupted msg {b}");
                                }
                            }
                        }
                    });
                    app.connect(
                        &format!("m{i}.ch0"),
                        &format!("m{i}.prod"),
                        &format!("m{i}.cons"),
                    );
                }
                Motif::Rpc {
                    requests,
                    bytes,
                    compute_ns,
                } => {
                    app.add_pe(&format!("m{i}.client"), move |h, ports| async move {
                        for b in 0..requests {
                            let data = payload(seed, i, 0, b, bytes);
                            let reply: Vec<u8> = ports[0].request_async(&h, &data).await.unwrap();
                            if checks {
                                let expected: Vec<u8> = data.iter().map(|x| x ^ 0x5A).collect();
                                assert_eq!(reply, expected, "rpc m{i} bad reply {b}");
                            }
                        }
                    });
                    app.add_pe(&format!("m{i}.server"), move |h, ports| async move {
                        for _ in 0..requests {
                            let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                            if compute_ns > 0 {
                                h.wait_for(SimDur::ns(compute_ns)).await;
                            }
                            let out: Vec<u8> = data.iter().map(|x| x ^ 0x5A).collect();
                            ports[0].reply_async(&h, &out).await.unwrap();
                        }
                    });
                    app.connect(
                        &format!("m{i}.ch0"),
                        &format!("m{i}.client"),
                        &format!("m{i}.server"),
                    );
                }
                Motif::FanOut {
                    sinks,
                    blocks,
                    bytes,
                } => {
                    app.add_pe(&format!("m{i}.src"), move |h, ports| async move {
                        for b in 0..blocks {
                            for (c, port) in ports.iter().enumerate() {
                                let data = payload(seed, i, c, b, bytes);
                                port.send_async(&h, &data).await.unwrap();
                            }
                        }
                    });
                    for s in 0..sinks {
                        app.add_pe(&format!("m{i}.sink{s}"), move |h, ports| async move {
                            for b in 0..blocks {
                                let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                                if checks {
                                    let expected = payload(seed, i, s, b, bytes);
                                    assert_eq!(
                                        data, expected,
                                        "fan-out m{i} sink {s} corrupted block {b}"
                                    );
                                }
                            }
                        });
                    }
                    for s in 0..sinks {
                        app.connect(
                            &format!("m{i}.ch{s}"),
                            &format!("m{i}.src"),
                            &format!("m{i}.sink{s}"),
                        );
                    }
                }
                Motif::FanIn {
                    sources,
                    blocks,
                    bytes,
                } => {
                    for s in 0..sources {
                        app.add_pe(&format!("m{i}.src{s}"), move |h, ports| async move {
                            for b in 0..blocks {
                                let data = payload(seed, i, s, b, bytes);
                                ports[0].send_async(&h, &data).await.unwrap();
                            }
                        });
                    }
                    // Drained port by port: each source blocks at most on
                    // channel capacity while earlier ports drain, so the
                    // motif cannot deadlock.
                    app.add_pe(&format!("m{i}.cons"), move |h, ports| async move {
                        for (c, port) in ports.iter().enumerate() {
                            for b in 0..blocks {
                                let data: Vec<u8> = port.recv_async(&h).await.unwrap();
                                if checks {
                                    let expected = payload(seed, i, c, b, bytes);
                                    assert_eq!(
                                        data, expected,
                                        "fan-in m{i} port {c} corrupted block {b}"
                                    );
                                }
                            }
                        }
                    });
                    for s in 0..sources {
                        app.connect(
                            &format!("m{i}.ch{s}"),
                            &format!("m{i}.src{s}"),
                            &format!("m{i}.cons"),
                        );
                    }
                }
            }
        }
        app
    }

    /// Serializes the spec to compact JSON (the corpus format). Seeds and
    /// nanosecond values are stored as decimal strings so they survive the
    /// `f64` number representation losslessly.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("seed", Json::u64_str(self.seed)),
            (
                "motifs",
                Json::Arr(self.motifs.iter().map(Motif::to_json).collect()),
            ),
            ("app_checks", Json::Bool(self.app_checks)),
        ])
    }

    /// Rebuilds a spec from its [`to_json`](Self::to_json) form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<ModelSpec, String> {
        let spec = ModelSpec {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("model missing 'name'")?
                .to_string(),
            seed: v
                .get("seed")
                .and_then(Json::as_u64_str)
                .ok_or("model missing 'seed'")?,
            motifs: v
                .get("motifs")
                .and_then(Json::as_arr)
                .ok_or("model missing 'motifs'")?
                .iter()
                .map(Motif::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            app_checks: v.get("app_checks").and_then(Json::as_bool).unwrap_or(true),
        };
        spec.check()?;
        Ok(spec)
    }
}

// The binary form: every variant-bearing type leads with a `u8` tag. These
// bytes are the gateway's cache keys, so they never change.

impl ShipSerialize for Motif {
    fn serialize(&self, w: &mut ByteWriter) {
        match self {
            Motif::Pipeline {
                stages,
                blocks,
                bytes,
                compute_ns,
            } => {
                w.put_u8(0);
                stages.serialize(w);
                blocks.serialize(w);
                bytes.serialize(w);
                compute_ns.serialize(w);
            }
            Motif::Stream { sizes } => {
                w.put_u8(1);
                sizes.serialize(w);
            }
            Motif::Rpc {
                requests,
                bytes,
                compute_ns,
            } => {
                w.put_u8(2);
                requests.serialize(w);
                bytes.serialize(w);
                compute_ns.serialize(w);
            }
            Motif::FanOut {
                sinks,
                blocks,
                bytes,
            } => {
                w.put_u8(3);
                sinks.serialize(w);
                blocks.serialize(w);
                bytes.serialize(w);
            }
            Motif::FanIn {
                sources,
                blocks,
                bytes,
            } => {
                w.put_u8(4);
                sources.serialize(w);
                blocks.serialize(w);
                bytes.serialize(w);
            }
        }
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let motif = match r.get_u8()? {
            0 => Motif::Pipeline {
                stages: usize::deserialize(r)?,
                blocks: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
                compute_ns: u64::deserialize(r)?,
            },
            1 => Motif::Stream {
                sizes: Vec::deserialize(r)?,
            },
            2 => Motif::Rpc {
                requests: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
                compute_ns: u64::deserialize(r)?,
            },
            3 => Motif::FanOut {
                sinks: usize::deserialize(r)?,
                blocks: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
            },
            4 => Motif::FanIn {
                sources: usize::deserialize(r)?,
                blocks: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
            },
            t => return Err(WireError::InvalidValue(format!("motif tag {t:#x}"))),
        };
        motif.check().map_err(WireError::InvalidValue)?;
        Ok(motif)
    }
}

impl ShipSerialize for ModelSpec {
    fn serialize(&self, w: &mut ByteWriter) {
        self.name.serialize(w);
        self.seed.serialize(w);
        self.motifs.serialize(w);
        self.app_checks.serialize(w);
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let spec = ModelSpec {
            name: String::deserialize(r)?,
            seed: u64::deserialize(r)?,
            motifs: Vec::deserialize(r)?,
            app_checks: bool::deserialize(r)?,
        };
        spec.check().map_err(WireError::InvalidValue)?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;
    use crate::wirecase::{arch_table, job_from_json, job_json};
    use shiptlm_cam::arb::ArbPolicy;
    use shiptlm_ship::serialize::{from_wire, to_wire};

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = ModelSpec::random(42, &cfg);
        let b = ModelSpec::random(42, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, ModelSpec::random(43, &cfg));
        assert!(!a.motifs.is_empty());
        assert!(a.pe_count() >= 2);
    }

    #[test]
    fn json_roundtrip_preserves_spec() {
        let archs = arch_table();
        for seed in 0..32 {
            let job = (
                ModelSpec::random(seed, &GenConfig::default()),
                archs.clone(),
            );
            let text = job_json(&job);
            assert_eq!(job_from_json(text.as_bytes()).unwrap(), job, "{text}");
        }
    }

    #[test]
    fn both_decoders_reject_values_that_wedge_or_crash_an_executor() {
        let model = |motifs: Vec<Motif>| ModelSpec {
            name: "hostile".into(),
            seed: 1,
            motifs,
            app_checks: true,
        };
        let bad_models = [
            Motif::Pipeline {
                stages: 0,
                blocks: 1,
                bytes: 8,
                compute_ns: 0,
            },
            Motif::Pipeline {
                stages: 1,
                blocks: 1,
                bytes: 8,
                compute_ns: 0,
            },
            Motif::Stream {
                sizes: vec![16, MAX_MESSAGE_BYTES + 1],
            },
            Motif::Rpc {
                requests: 1,
                bytes: MAX_RPC_BYTES + 1,
                compute_ns: 0,
            },
            Motif::FanOut {
                sinks: MAX_PES,
                blocks: 1,
                bytes: 8,
            },
        ]
        .into_iter()
        .map(|m| model(vec![m]))
        .chain([model(vec![
            Motif::FanIn {
                sources: MAX_PES / 2,
                blocks: 1,
                bytes: 8,
            };
            2
        ])]);
        for spec in bad_models {
            assert!(from_wire::<ModelSpec>(&to_wire(&spec)).is_err(), "{spec:?}");
            assert!(ModelSpec::from_json(&spec.to_json()).is_err(), "{spec:?}");
        }
        let tdma = |slot, slots| ArchSpec::plb().with_arb(ArbPolicy::Tdma { slot, slots });
        let bad_archs = [
            ArchSpec::plb().with_rx_capacity(0),
            ArchSpec::ahb().with_burst(0),
            ArchSpec::plb().with_clock(SimDur::ZERO),
            ArchSpec::crossbar().with_clock(SimDur::ZERO),
            ArchSpec::noc(2, 2).with_clock(SimDur::ZERO),
            tdma(SimDur::ZERO, 2),
            tdma(SimDur::ns(100), 0),
        ];
        for arch in bad_archs {
            assert!(from_wire::<ArchSpec>(&to_wire(&arch)).is_err(), "{arch:?}");
            assert!(ArchSpec::from_json(&arch.to_json()).is_err(), "{arch:?}");
        }
        // The limits themselves are valid.
        let edge = model(vec![
            Motif::Stream {
                sizes: vec![MAX_MESSAGE_BYTES],
            },
            Motif::Rpc {
                requests: 1,
                bytes: MAX_RPC_BYTES,
                compute_ns: 0,
            },
            Motif::FanOut {
                sinks: MAX_PES - 5,
                blocks: 1,
                bytes: 1,
            },
        ]);
        assert_eq!(from_wire::<ModelSpec>(&to_wire(&edge)).unwrap(), edge);
        assert_eq!(ModelSpec::from_json(&edge.to_json()).unwrap(), edge);
        // JSON integers are exact: fractions, negatives and overflow are
        // errors, not rounded or saturated values.
        for n in ["1.5", "-1", "1e300", "\"8\""] {
            let text = format!(r#"{{"bus":"plb","arb":"priority","burst_bytes":{n}}}"#);
            assert!(
                ArchSpec::from_json(&Json::parse(&text).unwrap()).is_err(),
                "{text}"
            );
        }
    }

    #[test]
    fn payloads_are_stream_independent() {
        assert_ne!(payload(1, 0, 0, 0, 16), payload(1, 0, 0, 1, 16));
        assert_ne!(payload(1, 0, 0, 0, 16), payload(1, 0, 1, 0, 16));
        assert_ne!(payload(1, 0, 0, 0, 16), payload(1, 1, 0, 0, 16));
        assert_ne!(payload(1, 0, 0, 0, 16), payload(2, 0, 0, 0, 16));
        assert_eq!(payload(7, 2, 1, 3, 33), payload(7, 2, 1, 3, 33));
    }

    #[test]
    fn elaborated_app_matches_counts() {
        let spec = ModelSpec::random(9, &GenConfig::default());
        let app = spec.to_app();
        assert_eq!(app.pes().len(), spec.pe_count());
        assert_eq!(app.channels().len(), spec.channel_count());
        let names = spec.pe_names();
        assert_eq!(names.len(), spec.pe_count());
        for n in &names {
            assert!(app.pe(n).is_some(), "spec names unknown PE {n}");
        }
    }
}
