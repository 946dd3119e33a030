//! Host-speed calibration.
//!
//! A shared host drifts: over minutes, neighbours on the same physical cores
//! slow every host-time metric by up to a quarter, alike, which no run
//! length averages away. Between measurement windows the ledger therefore
//! times three std-only kernels that mimic the simulator's host work —
//! integer compute, a rendezvous between two threads (how the kernel hands
//! control between thread processes) and thread spawn and join (how
//! elaboration starts them) — and scales the window's host times by the
//! host's speed relative to a fixed reference. The kernels do not call
//! shiptlm, so a change to the program cannot move them. Raw values are
//! kept in the record next to the scaled ones.

use std::hint::black_box;
use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Reference seconds of each kernel: their medians on the host the
/// baseline was recorded on (2-vCPU Xeon, idle neighbours).
const REFERENCE_S: [f64; 3] = [0.0422, 0.0450, 0.0240];

fn compute() {
    let mut x: u64 = 0x1234_5678;
    let mut acc: u64 = 0;
    for _ in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    black_box(acc);
}

fn rendezvous() {
    let (ping_tx, ping_rx) = sync_channel::<u64>(0);
    let (pong_tx, pong_rx) = sync_channel::<u64>(0);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                let _ = pong_tx.send(v + 1);
            }
        });
        for i in 0..4_000u64 {
            ping_tx.send(i).expect("peer alive");
            black_box(pong_rx.recv().expect("peer alive"));
        }
        drop(ping_tx);
    });
}

fn spawn() {
    for i in 0..800u64 {
        std::thread::spawn(move || black_box(i))
            .join()
            .expect("trivial thread");
    }
}

/// The host's speed now relative to the reference: 1 on the reference
/// host, below 1 when it runs slower. Takes about 110 ms.
pub fn speed() -> f64 {
    let kernels: [fn(); 3] = [compute, rendezvous, spawn];
    let log_sum: f64 = kernels
        .iter()
        .zip(REFERENCE_S)
        .map(|(kernel, reference)| {
            let t = Instant::now();
            kernel();
            (reference / t.elapsed().as_secs_f64()).ln()
        })
        .sum();
    (log_sum / kernels.len() as f64).exp()
}
