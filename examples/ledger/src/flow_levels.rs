//! `flow-levels`: the paper's Fig. 1 flow (untimed → CCATB → pin) for one
//! seeded traffic model on seven interconnect families, serially on the
//! calling thread. Kernel, SHIP, CAM and the OCP pin level dominate; the pool
//! and the gateway are not used.

use std::time::Instant;

use shiptlm::prelude::*;
use shiptlm_gateway::prelude::ReportRow;

use crate::inputs;
use crate::layers::{Bags, FlowSample};
use crate::{feed_rows, Check, Load, Segment};

pub struct FlowLevels {
    app: AppSpec,
    archs: Vec<ArchSpec>,
    /// Rows of the first round; every later round must repeat them.
    first: Option<Vec<ReportRow>>,
}

/// One flow through all three levels; equivalence failures are errors.
fn flow(app: &AppSpec, arch: &ArchSpec) -> Result<FlowRun, FlowError> {
    DesignFlow::new(app.clone(), arch.clone())
        .with_pin_level()
        .run()
}

/// Builds the inputs and warms up with one PLB flow.
pub fn setup(seed: u64) -> FlowLevels {
    let app = inputs::flow_app(seed);
    let archs = inputs::flow_archs();
    flow(&app, &archs[0]).expect("flow runs");
    FlowLevels {
        app,
        archs,
        first: None,
    }
}

/// One round over every family: its rows, or `None` if a flow failed.
fn round(app: &AppSpec, archs: &[ArchSpec], mut bags: Option<&mut Bags>) -> Option<Vec<ReportRow>> {
    let mut rows = Vec::new();
    let mut ok = true;
    for arch in archs {
        match flow(app, arch) {
            Ok(run) => {
                rows.extend(run.report().rows().iter().map(ReportRow::from_metrics));
                if let Some(bags) = bags.as_deref_mut() {
                    bags.flows.push(FlowSample::of(&run));
                }
            }
            Err(_) => ok = false,
        }
    }
    ok.then_some(rows)
}

/// One round of the flow-levels families, for workloads that do not cross
/// the flow layers themselves.
pub fn sample_round(seed: u64, bags: &mut Bags) {
    round(&inputs::flow_app(seed), &inputs::flow_archs(), Some(bags));
}

impl Load for FlowLevels {
    fn run(&mut self, ops: u64, _speed: f64, mut bags: Option<&mut Bags>) -> Segment {
        let mut seg = Segment::default();
        let start = Instant::now();
        let mut prev_end = start;
        let n = self.archs.len() as u64;
        for _ in 0..ops {
            let t0 = Instant::now();
            seg.lag_ms.push((t0 - prev_end).as_secs_f64() * 1e3);
            let rows = round(&self.app, &self.archs, bags.as_deref_mut());
            prev_end = Instant::now();
            seg.attempted += n;
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
        let mut h = crate::stats::Fnv::default();
        feed_rows(&mut h, &first);
        Check {
            mismatches: 0,
            digest: h.finish(),
        }
    }

    fn role_models(&self) -> Vec<AppSpec> {
        vec![self.app.clone()]
    }
}
