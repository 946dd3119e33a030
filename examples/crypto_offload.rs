//! Crypto offload across the HW/SW boundary (paper §4): a software control
//! task on the RTOS hands cipher blocks to a hardware accelerator through
//! the generic SHIP HW/SW interface — device driver + communication library
//! on the SW side, mailbox adapter + sideband interrupt on the HW side.
//!
//! The control PE's source is written **once** and executed twice: first as
//! hardware (both PEs on the bus), then as embedded software — demonstrating
//! "fully transaction-based HW/SW communication … without requiring any
//! changes to the source code".
//!
//! Run with `cargo run --example crypto_offload`.

use shiptlm::prelude::*;

const BLOCKS: u32 = 24;
const BLOCK_BYTES: usize = 256;

/// A toy XTEA-ish block transform, the accelerator's job.
fn cipher(data: &[u8], key: u32) -> Vec<u8> {
    let mut out = data.to_vec();
    let mut sum = key;
    for chunk in out.chunks_mut(4) {
        sum = sum.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15);
        for (k, b) in chunk.iter_mut().enumerate() {
            *b ^= (sum >> (8 * k)) as u8;
        }
    }
    out
}

fn build_app() -> AppSpec {
    let mut app = AppSpec::new("crypto_offload");
    // Control PE: sends plaintext, expects ciphertext back (RPC).
    app.add_pe("control", move |h, ports| async move {
        for i in 0..BLOCKS {
            let plain: Vec<u8> = (0..BLOCK_BYTES).map(|k| (k as u32 ^ i) as u8).collect();
            let expected = cipher(&plain, 0xC0FF_EE00 | i);
            let encrypted: Vec<u8> = ports[0].request_async(&h, &(i, plain)).await.unwrap();
            assert_eq!(encrypted, expected, "block {i} mismatch");
        }
    });
    // Accelerator PE: hardware cipher engine with a fixed per-block latency.
    app.add_pe("aes_engine", move |h, ports| async move {
        for _ in 0..BLOCKS {
            let (i, plain): (u32, Vec<u8>) = ports[0].recv_async(&h).await.unwrap();
            h.wait_for(SimDur::us(3)).await; // pipeline latency
            ports[0]
                .reply_async(&h, &cipher(&plain, 0xC0FF_EE00 | i))
                .await
                .unwrap();
        }
    });
    app.connect("ctl2aes", "control", "aes_engine");
    app
}

fn main() {
    let app = build_app();
    let arch = ArchSpec::plb();
    let ca = run_component_assembly(&app).expect("role detection");
    println!(
        "roles: {:?}  (control is the master — detected, not declared)\n",
        ca.roles.master_of
    );

    // (a) Pure hardware: both PEs behind SHIP↔OCP wrappers on the PLB.
    let hw = run_mapped(&app, &ca.roles, &arch).expect("roles cover all channels");

    // (b) HW/SW: control becomes an eSW task; same source, driver-backed
    //     ports, polling every 500 ns.
    let partition = Partition::software(["control"]).with_poll_interval(SimDur::ns(500));
    let sw = run_partitioned(&app, &ca.roles, &arch, &partition).expect("partition");

    println!(
        "{:<28} {:>14} {:>12} {:>12}",
        "configuration", "sim time", "bus txns", "ctx sw"
    );
    println!("{}", "-".repeat(70));
    println!(
        "{:<28} {:>14} {:>12} {:>12}",
        "HW control + HW engine",
        hw.output.sim_time.to_string(),
        hw.bus.transactions,
        "-"
    );
    println!(
        "{:<28} {:>14} {:>12} {:>12}",
        "eSW control + HW engine",
        sw.mapped.output.sim_time.to_string(),
        sw.mapped.bus.transactions,
        sw.rtos.ctx_switches
    );

    let overhead =
        sw.mapped.output.sim_time.as_ps() as f64 / hw.output.sim_time.as_ps().max(1) as f64;
    println!("\nHW/SW interface overhead: {overhead:.2}x the pure-HW mapping");

    ca.output
        .log
        .content_equivalent(&hw.output.log)
        .expect("HW mapping equivalent");
    ca.output
        .log
        .content_equivalent(&sw.mapped.output.log)
        .expect("HW/SW mapping equivalent");
    println!("both partitions content-equivalent to the untimed reference ✓");
    println!("(the control PE source was not modified between runs)");
}
