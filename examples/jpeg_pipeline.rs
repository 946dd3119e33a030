//! A JPEG-style compression pipeline (DCT → quantize → run-length pack)
//! explored over several candidate communication architectures.
//!
//! The application is the kind of multimedia workload the paper's flow
//! targets: block-based dataflow with bulk transfers. Each PE is written
//! once against SHIP ports; the sweep maps the channels onto PLB, OPB and a
//! crossbar with different burst sizes and reports throughput, utilization
//! and latency.
//!
//! Run with `cargo run --example jpeg_pipeline`.

use shiptlm::prelude::*;

const BLOCKS: u32 = 48;
const DIM: usize = 8;

/// An 8×8 "image block" with deterministic content.
fn source_block(i: u32) -> Vec<i16> {
    (0..DIM * DIM)
        .map(|k| (((k as u32 * 7 + i * 13) % 255) as i16) - 128)
        .collect()
}

/// A toy 2-D transform standing in for the DCT (separable weighted sums).
fn dct_ish(block: &[i16]) -> Vec<i32> {
    let mut out = vec![0i32; DIM * DIM];
    for (u, row) in out.chunks_mut(DIM).enumerate() {
        for (v, cell) in row.iter_mut().enumerate() {
            let mut acc = 0i32;
            for x in 0..DIM {
                for y in 0..DIM {
                    let w = ((u * x + v * y) % 7) as i32 - 3;
                    acc += w * i32::from(block[x * DIM + y]);
                }
            }
            *cell = acc >> 4;
        }
    }
    out
}

fn quantize(c: &[i32]) -> Vec<i16> {
    c.iter()
        .enumerate()
        .map(|(k, v)| (v / (8 + k as i32)) as i16)
        .collect()
}

fn rle_pack(q: &[i16]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut zeros = 0u8;
    for &v in q {
        if v == 0 && zeros < u8::MAX {
            zeros += 1;
        } else {
            out.push(zeros);
            out.extend_from_slice(&v.to_le_bytes());
            zeros = 0;
        }
    }
    out.push(zeros);
    out
}

fn build_app() -> AppSpec {
    let mut app = AppSpec::new("jpeg_pipeline");
    app.add_pe("camera", move |h, ports| async move {
        for i in 0..BLOCKS {
            ports[0].send_async(&h, &source_block(i)).await.unwrap();
        }
    });
    app.add_pe("dct", move |h, ports| async move {
        for _ in 0..BLOCKS {
            let block: Vec<i16> = ports[0].recv_async(&h).await.unwrap();
            h.wait_for(SimDur::us(2)).await; // transform latency
            ports[1].send_async(&h, &dct_ish(&block)).await.unwrap();
        }
    });
    app.add_pe("quant", move |h, ports| async move {
        for _ in 0..BLOCKS {
            let coeffs: Vec<i32> = ports[0].recv_async(&h).await.unwrap();
            h.wait_for(SimDur::ns(500)).await;
            ports[1].send_async(&h, &quantize(&coeffs)).await.unwrap();
        }
    });
    app.add_pe("packer", move |h, ports| async move {
        let mut total = 0usize;
        for _ in 0..BLOCKS {
            let q: Vec<i16> = ports[0].recv_async(&h).await.unwrap();
            total += rle_pack(&q).len();
        }
        assert!(total > 0);
    });
    app.connect("cam2dct", "camera", "dct");
    app.connect("dct2q", "dct", "quant");
    app.connect("q2pack", "quant", "packer");
    app
}

fn main() {
    println!("exploring communication architectures for the JPEG-ish pipeline\n");
    let report = Sweep::new(build_app())
        .with_untimed_baseline()
        .arch(ArchSpec::plb())
        .arch(ArchSpec::plb().with_burst(16))
        .arch(ArchSpec::plb().with_arb(ArbPolicy::RoundRobin))
        .arch(ArchSpec::opb())
        .arch(ArchSpec::crossbar())
        .run()
        .expect("role detection");
    println!("{report}");

    // The refinement-correctness check across all candidates.
    verify_equivalence(
        &build_app(),
        &[ArchSpec::plb(), ArchSpec::opb(), ArchSpec::crossbar()],
    )
    .expect("all mappings content-equivalent");
    println!("all mapped runs content-equivalent to the untimed reference ✓");
}
