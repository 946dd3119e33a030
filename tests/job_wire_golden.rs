//! Golden digests of the gateway job wire format.
//!
//! Cache keys, version-1 request bodies and checked-in corpus files are all
//! encodings of the same job schema (a seeded `ModelSpec` plus candidate
//! `ArchSpec`s). This test pins their exact bytes: FNV-1a over the binary
//! cache key, the binary request body and the JSON request text of 16
//! seeded jobs, and over both encodings of one reply of every kind. A
//! digest that moves means every cache entry, stored job and corpus file
//! written by an earlier build has silently changed meaning.

use shiptlm::kernel::causal::{CausalSpan, TraceCtx};
use shiptlm::prelude::{ArbPolicy, ArchSpec, SimDur};
use shiptlm::ship::record::fnv1a;
use shiptlm_gateway::prelude::*;
use shiptlm_testkit::prelude::{GenConfig, ModelSpec};

/// Every interconnect family, every arbitration policy, an explicit clock,
/// non-default wrapper knobs and SPLIT.
fn arch_table() -> Vec<ArchSpec> {
    vec![
        ArchSpec::plb(),
        ArchSpec::opb()
            .with_burst(16)
            .with_clock(SimDur::ns(7))
            .with_rx_capacity(3)
            .with_poll(SimDur::ns(250)),
        ArchSpec::crossbar().with_arb(ArbPolicy::Tdma {
            slot: SimDur::us(1),
            slots: 4,
        }),
        ArchSpec::ahb().with_arb(ArbPolicy::RoundRobin),
        ArchSpec::ahb().with_split(true).with_burst(128),
        ArchSpec::noc(4, 4),
        ArchSpec::noc(16, 16)
            .with_arb(ArbPolicy::FixedPriority)
            .with_clock(SimDur::ns(2)),
    ]
}

fn jobs() -> Vec<JobRequest> {
    let table = arch_table();
    (0..16u64)
        .map(|seed| {
            let n = 1 + seed as usize % table.len();
            JobRequest {
                id: seed + 1,
                spec: ModelSpec::random(seed, &GenConfig::default()),
                archs: (0..n)
                    .map(|k| table[(seed as usize + k) % table.len()].clone())
                    .collect(),
                backend: [
                    BackendChoice::De,
                    BackendChoice::Direct,
                    BackendChoice::Auto,
                ][seed as usize % 3],
                want_trace: seed % 2 == 0,
                trace: (seed % 4 == 1).then_some(TraceCtx {
                    trace_id: 0x5eed_0000 + seed,
                    parent_span: seed,
                }),
                want_progress: seed % 4 == 3,
            }
        })
        .collect()
}

fn replies() -> Vec<Reply> {
    vec![
        Reply::Accepted { id: 1 },
        Reply::Rejected {
            id: 2,
            retry_after_ms: 25,
        },
        Reply::Row {
            id: 3,
            row: ReportRow {
                label: "noc16x16/priority/b64/c2ns".into(),
                sim_time_ps: 123_456_789,
                messages: 9,
                bytes: 4096,
                delta_cycles: 77,
            },
        },
        Reply::TraceChunk {
            id: 4,
            data: b"channel,mean_ns\nm0.ch0,12.5\n".to_vec(),
        },
        Reply::Done {
            id: 5,
            rows: 7,
            cached: true,
        },
        Reply::Error {
            id: 6,
            message: "bad \"model\"\\\n\t\u{8}\u{c}\u{1}".into(),
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
            spans: vec![CausalSpan {
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
            }],
        },
    ]
}

/// FNV-1a over the concatenation of `parts`.
fn digest(parts: impl IntoIterator<Item = Vec<u8>>) -> u64 {
    fnv1a(&parts.into_iter().flatten().collect::<Vec<u8>>())
}

#[test]
fn job_and_reply_encodings_match_their_golden_digests() {
    let jobs = jobs();
    for job in &jobs {
        for codec in [&BIN as &dyn WireCodec, &JSON] {
            let back = codec
                .decode_request(&codec.encode_request(job).unwrap())
                .unwrap();
            assert_eq!(&back, job, "{} job {}", codec.name(), job.id);
        }
    }
    let replies = replies();
    let digests = [
        digest(jobs.iter().map(JobRequest::cache_key)),
        digest(jobs.iter().map(|j| BIN.encode_request(j).unwrap())),
        digest(jobs.iter().map(|j| JSON.encode_request(j).unwrap())),
        digest(replies.iter().map(|r| BIN.encode_reply(r).unwrap())),
        digest(replies.iter().map(|r| JSON.encode_reply(r).unwrap())),
    ];
    let shown: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(
        digests,
        [
            0xdface5ed96294c43,
            0x15ae73d566e8cae3,
            0xa0b7056ec128e9a1,
            0xf0509031d3936e29,
            0xa0513c9ec5ef2514,
        ],
        "cache key, BIN request, JSON request, BIN reply, JSON reply: {shown:?}"
    );
}
