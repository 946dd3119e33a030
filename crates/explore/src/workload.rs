//! Synthetic workload generators producing [`AppSpec`]s.
//!
//! These stand in for the embedded applications the paper's flow targets
//! (multimedia pipelines, control + accelerator splits); each generator is
//! deterministic given its seed.

use shiptlm_kernel::rng::Rng;
use shiptlm_kernel::time::SimDur;

use crate::app::AppSpec;

/// Deterministic pseudo-random block of `len` bytes.
pub fn block(seed: u64, len: usize) -> Vec<u8> {
    Rng::seed_from_u64(seed).bytes(len)
}

/// A linear processing pipeline: `source → stage1 → … → sink`.
///
/// The source emits `blocks` blocks of `block_bytes`; every middle stage
/// transforms (adds 1 to each byte) after `compute` of processing time; the
/// sink checks the expected content. Middle stages are slaves on their input
/// channel and masters on their output channel.
pub fn pipeline(stages: usize, blocks: u32, block_bytes: usize, compute: SimDur) -> AppSpec {
    assert!(stages >= 2, "a pipeline needs at least source and sink");
    let mut app = AppSpec::new("pipeline");
    let middle = stages - 2;

    app.add_pe("source", move |h, ports| async move {
        for i in 0..blocks {
            let data = block(i as u64, block_bytes);
            ports[0].send_async(&h, &data).await.unwrap();
        }
    });
    for s in 0..middle {
        let name = format!("stage{s}");
        app.add_pe(&name, move |h, ports| async move {
            // Port order = channel declaration order: input first.
            for _ in 0..blocks {
                let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                if !compute.is_zero() {
                    h.wait_for(compute).await;
                }
                let out: Vec<u8> = data.iter().map(|b| b.wrapping_add(1)).collect();
                ports[1].send_async(&h, &out).await.unwrap();
            }
        });
    }
    let hops = middle as u8;
    app.add_pe("sink", move |h, ports| async move {
        for i in 0..blocks {
            let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
            let expected: Vec<u8> = block(i as u64, block_bytes)
                .iter()
                .map(|b| b.wrapping_add(hops))
                .collect();
            assert_eq!(data, expected, "pipeline corrupted block {i}");
        }
    });

    // Wire them: source → stage0 → … → sink.
    let mut names = vec!["source".to_string()];
    names.extend((0..middle).map(|s| format!("stage{s}")));
    names.push("sink".to_string());
    for w in 0..names.len() - 1 {
        app.connect(&format!("ch{w}"), &names[w], &names[w + 1]);
    }
    app
}

/// `pairs` independent producer→consumer streams (bus-level contention with
/// no application-level coupling).
pub fn parallel_streams(pairs: usize, blocks: u32, block_bytes: usize) -> AppSpec {
    let mut app = AppSpec::new("parallel_streams");
    for p in 0..pairs {
        let prod = format!("prod{p}");
        let cons = format!("cons{p}");
        app.add_pe(&prod, move |h, ports| async move {
            for i in 0..blocks {
                let data = block((p as u64) << 32 | i as u64, block_bytes);
                ports[0].send_async(&h, &data).await.unwrap();
            }
        });
        app.add_pe(&cons, move |h, ports| async move {
            for i in 0..blocks {
                let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                let expected = block((p as u64) << 32 | i as u64, block_bytes);
                assert_eq!(data, expected, "stream {p} corrupted block {i}");
            }
        });
        app.connect(&format!("s{p}"), &prod, &cons);
    }
    app
}

/// `clients` request/reply clients, each with its own compute server
/// (crypto-offload style): client sends a block, the server transforms it
/// after `server_compute`, the client checks the reply.
pub fn rpc(clients: usize, requests: u32, req_bytes: usize, server_compute: SimDur) -> AppSpec {
    let mut app = AppSpec::new("rpc");
    for c in 0..clients {
        let client = format!("client{c}");
        let server = format!("server{c}");
        app.add_pe(&client, move |h, ports| async move {
            for i in 0..requests {
                let data = block((c as u64) << 32 | i as u64, req_bytes);
                let expected: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
                let reply: Vec<u8> = ports[0].request_async(&h, &data).await.unwrap();
                assert_eq!(reply, expected, "client {c} got a bad reply for {i}");
            }
        });
        app.add_pe(&server, move |h, ports| async move {
            for _ in 0..requests {
                let data: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
                if !server_compute.is_zero() {
                    h.wait_for(server_compute).await;
                }
                let out: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
                ports[0].reply_async(&h, &out).await.unwrap();
            }
        });
        app.connect(&format!("rpc{c}"), &client, &server);
    }
    app
}

/// SplitMix64-style mixer: the single source of randomness for the
/// multi-master traffic generators. Destinations and payloads are pure
/// functions of `(seed, master, round)` through this, so producers and
/// consumers agree on the schedule without any shared state and the same
/// seed reproduces the exact per-PE request streams on every backend.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared skeleton of the multi-master generators: `masters` transmitters
/// (`tx{m}`) each send exactly one `bytes`-byte message per round to the
/// receiver (`rx{j}`) chosen by `dest(m, round)`; receivers drain each
/// round in producer order and check payload content.
///
/// The round structure makes the traffic deadlock-free on any interconnect
/// that delivers messages: whoever a receiver waits on in round `r` is
/// either already past that send or still working through a round `< r`
/// whose messages other receivers are (by induction) draining. Channels
/// exist only for `(m, j)` pairs that actually carry traffic, and the PE
/// bodies never wait on simulated time, so these apps qualify for the
/// direct-execution backend.
fn traffic_app(
    name: &str,
    masters: usize,
    rounds: u32,
    bytes: usize,
    seed: u64,
    dest: impl Fn(usize, u32) -> usize + Copy + Send + Sync + 'static,
) -> AppSpec {
    assert!(masters >= 1, "traffic needs at least one master");
    let mut app = AppSpec::new(name);

    // The full (master → receivers) schedule, so channels are declared only
    // where traffic flows. Sorted target lists double as port maps: ports
    // arrive in channel-declaration order, which the m-then-j loop below
    // makes j-ascending on transmitters and m-ascending on receivers.
    let mut targets: Vec<Vec<usize>> = vec![Vec::new(); masters];
    for (m, t) in targets.iter_mut().enumerate() {
        for r in 0..rounds {
            let j = dest(m, r);
            assert!(j < masters, "dest out of range");
            if !t.contains(&j) {
                t.push(j);
            }
        }
        t.sort_unstable();
    }
    let sources: Vec<Vec<usize>> = (0..masters)
        .map(|j| (0..masters).filter(|m| targets[*m].contains(&j)).collect())
        .collect();

    for (m, t) in targets.iter().enumerate() {
        let my_targets = t.clone();
        app.add_pe(&format!("tx{m}"), move |h, ports| {
            let my_targets = my_targets.clone();
            async move {
                for r in 0..rounds {
                    let j = dest(m, r);
                    let port = my_targets.binary_search(&j).unwrap();
                    let data = block(mix(seed, m as u64, r as u64), bytes);
                    ports[port].send_async(&h, &data).await.unwrap();
                }
            }
        });
    }
    for (j, s) in sources.iter().enumerate() {
        let my_sources = s.clone();
        app.add_pe(&format!("rx{j}"), move |h, ports| {
            let my_sources = my_sources.clone();
            async move {
                for r in 0..rounds {
                    for (port, &m) in my_sources.iter().enumerate() {
                        if dest(m, r) != j {
                            continue;
                        }
                        let data: Vec<u8> = ports[port].recv_async(&h).await.unwrap();
                        let expected = block(mix(seed, m as u64, r as u64), bytes);
                        assert_eq!(data, expected, "rx{j} got bad round {r} from tx{m}");
                    }
                }
            }
        });
    }
    for (m, t) in targets.iter().enumerate() {
        for &j in t {
            app.connect(&format!("t{m}_{j}"), &format!("tx{m}"), &format!("rx{j}"));
        }
    }
    app
}

/// Uniform multi-master traffic: every round, master `m` sends to a
/// pseudo-randomly drawn receiver, uniformly over all `masters` nodes.
/// Same seed ⇒ identical per-PE request streams on every backend.
pub fn uniform_traffic(masters: usize, rounds: u32, bytes: usize, seed: u64) -> AppSpec {
    traffic_app("uniform_traffic", masters, rounds, bytes, seed, move |m, r| {
        (mix(seed, m as u64, r as u64 | 1 << 63) % masters as u64) as usize
    })
}

/// Hotspot multi-master traffic: `hot_percent` of each master's rounds
/// target receiver 0, the rest are uniform — the classic NoC contention
/// pattern concentrating load on one ejection port.
pub fn hotspot_traffic(
    masters: usize,
    rounds: u32,
    bytes: usize,
    hot_percent: u32,
    seed: u64,
) -> AppSpec {
    let hot = u64::from(hot_percent.min(100));
    traffic_app("hotspot_traffic", masters, rounds, bytes, seed, move |m, r| {
        let draw = mix(seed, m as u64, r as u64 | 1 << 63);
        if draw % 100 < hot {
            0
        } else {
            ((draw >> 8) % masters as u64) as usize
        }
    })
}

/// Bursty multi-master traffic: each master streams `burst_len`
/// consecutive rounds to one receiver before redrawing — long
/// point-to-point bursts that reward pipelined/burst transfers.
pub fn bursty_traffic(
    masters: usize,
    rounds: u32,
    bytes: usize,
    burst_len: u32,
    seed: u64,
) -> AppSpec {
    let burst = burst_len.max(1);
    traffic_app("bursty_traffic", masters, rounds, bytes, seed, move |m, r| {
        (mix(seed, m as u64, u64::from(r / burst) | 1 << 63) % masters as u64) as usize
    })
}

/// An asymmetric hotspot: producers of different intensities all feed
/// separate sinks; producer `i` sends `blocks * (i + 1)` blocks, exposing
/// arbitration fairness effects.
pub fn hotspot(producers: usize, blocks: u32, block_bytes: usize) -> AppSpec {
    let mut app = AppSpec::new("hotspot");
    for p in 0..producers {
        let prod = format!("prod{p}");
        let sink = format!("sink{p}");
        let n = blocks * (p as u32 + 1);
        app.add_pe(&prod, move |h, ports| async move {
            for i in 0..n {
                let data = block(i as u64, block_bytes);
                ports[0].send_async(&h, &data).await.unwrap();
            }
        });
        app.add_pe(&sink, move |h, ports| async move {
            for _ in 0..n {
                let _: Vec<u8> = ports[0].recv_async(&h).await.unwrap();
            }
        });
        app.connect(&format!("h{p}"), &prod, &sink);
    }
    app
}
