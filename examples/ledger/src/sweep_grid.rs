//! `sweep-grid`: back-to-back in-process sweeps of 1024 seeded grid points
//! on `nproc` runners. Elaboration, thread spawn and pool claiming dominate;
//! codec, cache and pin level are not used.

use std::time::{Duration, Instant};

use shiptlm::kernel::causal::{SpanSink, TraceCtx};
use shiptlm::prelude::*;
use shiptlm_gateway::prelude::ReportRow;

use crate::inputs;
use crate::layers::{Bags, SweepSample};
use crate::{feed_rows, Check, Load, Segment};

/// Every sixteenth point is re-run serially as the reference.
const REFERENCE_STRIDE: usize = 16;

pub struct SweepGrid {
    app: AppSpec,
    points: Vec<ArchSpec>,
    threads: usize,
    /// Rows of the first sweep; every later sweep must repeat them.
    first: Option<Vec<ReportRow>>,
}

/// Builds the inputs and warms the pool with a 128-point sweep.
pub fn setup(seed: u64, threads: usize) -> SweepGrid {
    let app = inputs::grid_app();
    let points = inputs::grid_points(seed);
    Sweep::new(app.clone())
        .archs(points[..128].iter().cloned())
        .run_parallel(threads)
        .expect("grid maps");
    SweepGrid {
        app,
        points,
        threads,
        first: None,
    }
}

/// Traced 128-point sweeps of the grid for `budget`, for workloads that do
/// not cross the sweep layers themselves.
pub fn sample_sweeps(seed: u64, threads: usize, budget: Duration, bags: &mut Bags) {
    let app = inputs::grid_app();
    let points = inputs::grid_points(seed);
    let start = Instant::now();
    while bags.sweeps.is_empty() || start.elapsed() < budget {
        let sink = SpanSink::new();
        let t = Instant::now();
        Sweep::new(app.clone())
            .archs(points[..128].iter().cloned())
            .with_causal(TraceCtx::mint(), sink.clone())
            .run_parallel(threads)
            .expect("grid maps");
        let wall = t.elapsed().as_nanos() as u64;
        bags.sweeps
            .push(SweepSample::from_spans(&sink.take(), wall, threads));
    }
}

impl Load for SweepGrid {
    fn run(&mut self, ops: u64, _speed: f64, mut bags: Option<&mut Bags>) -> Segment {
        let mut seg = Segment::default();
        let start = Instant::now();
        let mut prev_end = start;
        for _ in 0..ops {
            let t0 = Instant::now();
            seg.lag_ms.push((t0 - prev_end).as_secs_f64() * 1e3);
            let mut sweep = Sweep::new(self.app.clone()).archs(self.points.iter().cloned());
            let sink = bags.as_ref().map(|_| SpanSink::new());
            if let Some(sink) = &sink {
                sweep = sweep.with_causal(TraceCtx::mint(), sink.clone());
            }
            let result = sweep.run_parallel(self.threads);
            prev_end = Instant::now();
            let n = self.points.len() as u64;
            seg.attempted += n;
            let rows = result.ok().map(|report| {
                report
                    .rows()
                    .iter()
                    .map(ReportRow::from_metrics)
                    .collect::<Vec<_>>()
            });
            match rows {
                None => seg.failed += n,
                Some(rows) if self.first.as_ref().is_some_and(|first| *first != rows) => {
                    seg.failed += n;
                }
                Some(rows) => {
                    self.first.get_or_insert(rows);
                    seg.work += n;
                    seg.latencies_ms.push((prev_end - t0).as_secs_f64() * 1e3);
                }
            }
            if let (Some(bags), Some(sink)) = (bags.as_deref_mut(), sink) {
                let wall = (prev_end - t0).as_nanos() as u64;
                bags.sweeps
                    .push(SweepSample::from_spans(&sink.take(), wall, self.threads));
            }
        }
        seg.elapsed = (prev_end - start).as_secs_f64();
        seg
    }

    fn finish(self: Box<Self>) -> Check {
        let Some(first) = self.first else {
            return Check {
                mismatches: 1,
                digest: 0,
            };
        };
        let mut mismatches = 0;
        let sample: Vec<ArchSpec> = self
            .points
            .iter()
            .step_by(REFERENCE_STRIDE)
            .cloned()
            .collect();
        match Sweep::new(self.app.clone()).archs(sample).run() {
            Ok(reference) => {
                let got = first.iter().step_by(REFERENCE_STRIDE);
                let want = reference.rows().iter().map(ReportRow::from_metrics);
                mismatches += got.zip(want).filter(|(g, w)| *g != w).count() as u64;
            }
            Err(_) => mismatches += 1,
        }
        let mut h = crate::stats::Fnv::default();
        feed_rows(&mut h, &first);
        Check {
            mismatches,
            digest: h.finish(),
        }
    }

    fn role_models(&self) -> Vec<AppSpec> {
        vec![self.app.clone()]
    }
}
