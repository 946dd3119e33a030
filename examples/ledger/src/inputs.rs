//! Seeded workload inputs. Every function here is a pure function of its
//! arguments, so one `--seed` reproduces one set of inputs.

use shiptlm::prelude::*;
use shiptlm_gateway::prelude::{BackendChoice, JobRequest};
use shiptlm_testkit::model::{GenConfig, ModelSpec};

/// Candidates per `sweep-grid` sweep, drawn from the 1296-point grid.
pub const GRID_POINTS: usize = 1024;

/// Distinct pre-warmed jobs `gateway-mixed` repeats.
pub const HOT_JOBS: usize = 256;

/// Offered load of `gateway-mixed`, jobs per second at the reference host
/// speed; the open loop scales it by the measured speed, so the gateway's
/// utilisation, and with it queueing, does not drift with the host.
pub const MIXED_RATE: f64 = 1000.0;

/// Share of `gateway-mixed` arrivals that repeat a hot job.
pub const HIT_SHARE: f64 = 0.9;

/// Disjoint job-index spaces, so no two streams share a model.
pub mod stream {
    /// `gateway-cold` load jobs.
    pub const COLD: u64 = 0;
    /// Set-up warm-up jobs.
    pub const WARM: u64 = 1 << 40;
    /// `gateway-mixed` hot set.
    pub const HOT: u64 = 2 << 40;
    /// `gateway-mixed` fresh arrivals.
    pub const FRESH: u64 = 3 << 40;
    /// Probe inputs.
    pub const PROBE: u64 = 4 << 40;
}

/// SplitMix64 finalizer over `seed` and `i`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `GRID_POINTS` points of `ArchGrid::exploration_default()` in a seeded
/// Fisher–Yates order.
pub fn grid_points(seed: u64) -> Vec<ArchSpec> {
    let mut grid = ArchGrid::exploration_default().generate();
    let mut rng = shiptlm::kernel::rng::Rng::seed_from_u64(mix(seed, 0x6772_6964));
    for i in (1..grid.len()).rev() {
        grid.swap(i, rng.gen_range_usize(0, i + 1));
    }
    grid.truncate(GRID_POINTS);
    grid
}

/// The application every `sweep-grid` candidate runs.
pub fn grid_app() -> AppSpec {
    workload::parallel_streams(2, 6, 64)
}

/// The application `flow-levels` refines.
pub fn flow_app(seed: u64) -> AppSpec {
    workload::uniform_traffic(8, 6, 64, mix(seed, 0x666c_6f77))
}

/// The seven interconnect families `flow-levels` refines onto.
pub fn flow_archs() -> Vec<ArchSpec> {
    vec![
        ArchSpec::plb(),
        ArchSpec::opb(),
        ArchSpec::ahb(),
        ArchSpec::ahb().with_split(true),
        ArchSpec::crossbar(),
        ArchSpec::noc(4, 4),
        ArchSpec::noc(8, 8),
    ]
}

/// The model of gateway job `index` under `seed`.
pub fn job_spec(seed: u64, index: u64) -> ModelSpec {
    ModelSpec::random(mix(seed, index), &GenConfig::default())
}

/// Gateway job `index` (correlation id `id`): a random model swept over PLB
/// and the crossbar, role detection on the Auto backend.
pub fn job(seed: u64, index: u64, id: u64, want_trace: bool) -> JobRequest {
    JobRequest {
        id,
        spec: job_spec(seed, index),
        archs: vec![ArchSpec::plb(), ArchSpec::crossbar()],
        backend: BackendChoice::Auto,
        want_trace,
        trace: None,
        want_progress: false,
    }
}

/// Whether hot job `k` asks for its latency trace (one in four do).
pub fn hot_wants_trace(k: usize) -> bool {
    k.is_multiple_of(4)
}

/// One scheduled `gateway-mixed` arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time in seconds from the start of the load.
    pub at: f64,
    /// `Some(k)`: a repeat of hot job `k`; `None`: a fresh job.
    pub hot: Option<usize>,
}

/// `count` seeded Poisson arrivals at `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<Arrival> {
    let mut rng = shiptlm::kernel::rng::Rng::seed_from_u64(mix(seed, 0x706f_6973));
    let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut out = Vec::with_capacity(count);
    let mut t = 0.0;
    while out.len() < count {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        t += -(1.0 - unit()).ln() / rate;
        let draw = unit();
        let hot = (draw < HIT_SHARE).then(|| ((draw / HIT_SHARE) * HOT_JOBS as f64) as usize);
        out.push(Arrival { at: t, hot });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_shuffle_are_pure_functions_of_the_seed() {
        assert_eq!(
            poisson_schedule(7, 1000.0, 2000),
            poisson_schedule(7, 1000.0, 2000)
        );
        assert_ne!(
            poisson_schedule(7, 1000.0, 2000),
            poisson_schedule(8, 1000.0, 2000)
        );
        assert_eq!(grid_points(7), grid_points(7));
        assert_ne!(grid_points(7), grid_points(8));
        assert_eq!(job_spec(7, 3), job_spec(7, 3));
    }

    #[test]
    fn schedule_has_the_requested_rate_and_mix() {
        let s = poisson_schedule(1, 1000.0, 20_000);
        let n = s.len() as f64;
        assert_eq!(s.len(), 20_000);
        let span = s.last().expect("arrivals").at;
        assert!((span - 20.0).abs() < 0.6, "{span} s for 20k arrivals");
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        let hits = s.iter().filter(|a| a.hot.is_some()).count() as f64;
        assert!((hits / n - HIT_SHARE).abs() < 0.01);
        assert!(s.iter().filter_map(|a| a.hot).all(|k| k < HOT_JOBS));
    }

    #[test]
    fn grid_points_are_distinct_grid_members() {
        let pts = grid_points(3);
        assert_eq!(pts.len(), GRID_POINTS);
        let labels: std::collections::BTreeSet<String> = pts.iter().map(ArchSpec::label).collect();
        assert_eq!(labels.len(), GRID_POINTS);
    }
}
