//! SHIP calls between processes of different kinds.
//!
//! A thread process calls a port's `(ctx, …)` forms, which run the async
//! calls through `ThreadCtx::block_on`; an async process awaits the async
//! calls directly. Both kinds register their waits through one kernel path,
//! so any pairing must give exactly the schedule of the thread/thread run:
//! the same simulated time, delta count and transaction log. Each scenario
//! runs on an abstract SHIP channel and on a channel mapped onto a PLB bus.

use std::sync::Arc;

use shiptlm::prelude::*;

const MESSAGES: u32 = 6;

/// Which kind of process runs one side of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Thread,
    Async,
}

/// What the two sides do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Side A sends, side B receives.
    Stream,
    /// Side A requests, side B receives and replies.
    Rpc,
    /// Side A sends once; side B receives it, and its next receive
    /// expires on the channel's timeout.
    Timeout,
}

/// Spawns side `name` as a `kind` process: the thread form calls the
/// port's `(ctx, …)` forms, the async form awaits the `_async` ones.
macro_rules! side {
    ($sim:expr, $name:expr, $kind:expr, |$h:ident| $body:expr, |$ctx:ident| $tbody:expr) => {
        match $kind {
            Kind::Thread => {
                $sim.spawn_thread($name, move |$ctx| $tbody);
            }
            Kind::Async => {
                let $h = $sim.handle();
                $sim.spawn_async($name, async move { $body });
            }
        }
    };
}

/// The two ports of a channel on `sim`: abstract, or mapped onto a PLB bus
/// (side A is the master wrapper, side B the adapter's slave port).
fn ports(sim: &Simulation, mapped: bool, timeout: Option<SimDur>) -> (ShipPort, ShipPort) {
    let h = sim.handle();
    if !mapped {
        let config = ShipConfig {
            timeout,
            ..ShipConfig::default()
        };
        return ShipChannel::new(&h, "link", config).ports("a", "b");
    }
    let mut bus = CcatbBus::new(&h, BusConfig::plb("plb"));
    let pending = map_channel(&h, "link", MAP_BASE, WrapperConfig::default(), ("a", "b"));
    bus.map_slave(
        MAP_BASE..MAP_BASE + ADAPTER_SIZE,
        pending.adapter.clone(),
        true,
    );
    let bus = Arc::new(bus);
    (
        pending.bind(&bus.master_port(MasterId(0))),
        pending.slave_port,
    )
}

/// Runs `scenario` with side A as `a` and side B as `b`: the simulated
/// time, delta count and transaction log.
fn run(mapped: bool, scenario: Scenario, a: Kind, b: Kind) -> (SimTime, u64, Vec<TxRecord>) {
    let sim = Simulation::new();
    let timeout = (scenario == Scenario::Timeout).then(|| SimDur::us(5));
    let (pa, pb) = ports(&sim, mapped, timeout);
    let log = TransactionLog::new();
    pa.attach_recorder(log.clone());
    pb.attach_recorder(log.clone());
    match scenario {
        Scenario::Stream => {
            side!(
                sim,
                "a",
                a,
                |h| for i in 0..MESSAGES {
                    pa.send_async(&h, &i).await.unwrap();
                },
                |ctx| for i in 0..MESSAGES {
                    pa.send(ctx, &i).unwrap();
                }
            );
            side!(
                sim,
                "b",
                b,
                |h| for i in 0..MESSAGES {
                    assert_eq!(pb.recv_async::<u32>(&h).await.unwrap(), i);
                },
                |ctx| for i in 0..MESSAGES {
                    assert_eq!(pb.recv::<u32>(ctx).unwrap(), i);
                }
            );
        }
        Scenario::Rpc => {
            side!(
                sim,
                "a",
                a,
                |h| for i in 0..MESSAGES {
                    assert_eq!(pa.request_async::<u32, u32>(&h, &i).await.unwrap(), 2 * i);
                },
                |ctx| for i in 0..MESSAGES {
                    assert_eq!(pa.request::<u32, u32>(ctx, &i).unwrap(), 2 * i);
                }
            );
            side!(
                sim,
                "b",
                b,
                |h| for _ in 0..MESSAGES {
                    let q: u32 = pb.recv_async(&h).await.unwrap();
                    pb.reply_async(&h, &(2 * q)).await.unwrap();
                },
                |ctx| for _ in 0..MESSAGES {
                    let q: u32 = pb.recv(ctx).unwrap();
                    pb.reply(ctx, &(2 * q)).unwrap();
                }
            );
        }
        Scenario::Timeout => {
            side!(
                sim,
                "a",
                a,
                |h| pa.send_async(&h, &7u32).await.unwrap(),
                |ctx| pa.send(ctx, &7u32).unwrap()
            );
            side!(
                sim,
                "b",
                b,
                |h| {
                    assert_eq!(pb.recv_async::<u32>(&h).await.unwrap(), 7);
                    let err = pb.recv_async::<u32>(&h).await.unwrap_err();
                    assert!(matches!(err, ShipError::Timeout { .. }), "{err}");
                },
                |ctx| {
                    assert_eq!(pb.recv::<u32>(ctx).unwrap(), 7);
                    let err = pb.recv::<u32>(ctx).unwrap_err();
                    assert!(matches!(err, ShipError::Timeout { .. }), "{err}");
                }
            );
        }
    }
    let result = sim.run();
    assert_eq!(result.reason, StopReason::Starved);
    (result.time, sim.delta_count(), log.to_vec())
}

fn assert_kinds_agree(mapped: bool, scenario: Scenario) {
    let reference = run(mapped, scenario, Kind::Thread, Kind::Thread);
    assert!(!reference.2.is_empty());
    for (a, b) in [
        (Kind::Thread, Kind::Async),
        (Kind::Async, Kind::Thread),
        (Kind::Async, Kind::Async),
    ] {
        assert_eq!(
            run(mapped, scenario, a, b),
            reference,
            "{scenario:?} (mapped: {mapped}) with side A {a:?} and side B {b:?}"
        );
    }
}

#[test]
fn streams_keep_their_schedule_across_process_kinds() {
    assert_kinds_agree(false, Scenario::Stream);
    assert_kinds_agree(true, Scenario::Stream);
}

#[test]
fn request_reply_keeps_its_schedule_across_process_kinds() {
    assert_kinds_agree(false, Scenario::Rpc);
    assert_kinds_agree(true, Scenario::Rpc);
}

#[test]
fn a_timeout_expires_at_the_same_time_across_process_kinds() {
    // The mapped channel has no call timeout; the abstract one's expires
    // 5 µs after the second receive starts, whichever kind waits.
    assert_kinds_agree(false, Scenario::Timeout);
    let (time, _, log) = run(false, Scenario::Timeout, Kind::Async, Kind::Async);
    assert_eq!(time, SimTime::ZERO + SimDur::us(5));
    assert_eq!(log.len(), 2, "the expired receive records nothing");
}
