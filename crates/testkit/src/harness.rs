//! The seeded conformance harness: generate, check, shrink, persist.
//!
//! [`run_conformance`] drives N randomly generated system models through
//! the differential checker ([`check_model`]) against per-case random
//! architectures. Every case is fully determined by `(base_seed, index)`,
//! so a CI failure reproduces locally from the printed seed alone. Failing
//! cases are shrunk to a minimal reproduction and written as replayable
//! corpus JSON for triage.
//!
//! `TESTKIT_CASES` / `TESTKIT_SEED` environment variables override the
//! configured case count and base seed without recompiling.

use std::path::PathBuf;

use shiptlm_cam::arb::ArbPolicy;
use shiptlm_explore::arch::ArchSpec;
use shiptlm_explore::model::{GenConfig, ModelSpec};
use shiptlm_kernel::rng::Rng;
use shiptlm_kernel::time::SimDur;

use crate::corpus::{CorpusCase, Expectation};
use crate::diff::{check_model, CheckConfig, Failure};
use crate::shrink::{shrink, ShrinkConfig, ShrinkResult};

/// Draws the random candidate architecture of case `seed` (a separate
/// stream from the model itself, so shrinking a model never changes its
/// architecture).
pub fn random_arch(seed: u64) -> ArchSpec {
    let mut rng = Rng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut arch = match rng.gen_range_usize(0, 5) {
        0 => ArchSpec::plb(),
        1 => ArchSpec::opb(),
        2 => ArchSpec::crossbar(),
        // SPLIT on half the AHB draws, so both the parked-master path and
        // the plain pipelined path see random models.
        3 => ArchSpec::ahb().with_split(rng.gen_range_usize(0, 2) == 1),
        // Meshes stay small (2..=4 per side) to keep the 50-case harness
        // interactive; the dedicated stress suite covers 16×16.
        _ => ArchSpec::noc(
            rng.gen_range_usize(2, 5) as u8,
            rng.gen_range_usize(2, 5) as u8,
        ),
    };
    arch.arb = match rng.gen_range_usize(0, 3) {
        0 => ArbPolicy::FixedPriority,
        1 => ArbPolicy::RoundRobin,
        _ => ArbPolicy::Tdma {
            slot: SimDur::ns(rng.gen_range_u64(50, 400)),
            slots: rng.gen_range_usize(2, 5),
        },
    };
    arch.burst_bytes = [16, 32, 64, 128][rng.gen_range_usize(0, 4)];
    arch.rx_capacity = [1, 2, 4, 8][rng.gen_range_usize(0, 4)];
    arch
}

/// Configuration of one harness run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Number of generated cases.
    pub cases: usize,
    /// Base seed; case `i` derives its own seed from it.
    pub seed: u64,
    /// Generator bounds.
    pub gen: GenConfig,
    /// Every `partition_every`-th case also runs the HW/SW-partitioned
    /// target (0 disables partitioned runs).
    pub partition_every: usize,
    /// Where shrunk reproductions are written (`None` keeps them in
    /// memory only).
    pub repro_dir: Option<PathBuf>,
    /// Shrink budget for failing cases.
    pub shrink: ShrinkConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            cases: 50,
            seed: 0x0054_171A_B1E5,
            gen: GenConfig::default(),
            partition_every: 5,
            repro_dir: None,
            shrink: ShrinkConfig::default(),
        }
    }
}

impl HarnessConfig {
    /// Applies `TESTKIT_CASES` and `TESTKIT_SEED` environment overrides.
    pub fn from_env(mut self) -> Self {
        if let Some(n) = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.cases = n;
        }
        if let Some(s) = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            self.seed = s;
        }
        self
    }

    /// The seed of case `index` — a SplitMix64 step over the base seed, so
    /// neighbouring cases are uncorrelated.
    pub fn case_seed(&self, index: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One failing case, shrunk and (optionally) persisted.
#[derive(Debug)]
pub struct CaseFailure {
    /// Index of the case within the run.
    pub index: usize,
    /// The case's derived seed.
    pub seed: u64,
    /// The original failure.
    pub failure: Failure,
    /// The shrunk minimal reproduction.
    pub minimal: ModelSpec,
    /// Shrink statistics.
    pub shrink: (usize, usize),
    /// Where the reproduction was written, if a repro dir was configured.
    pub repro_path: Option<PathBuf>,
}

/// Aggregate outcome of a harness run.
#[derive(Debug)]
pub struct HarnessReport {
    /// Cases executed.
    pub cases: usize,
    /// Cases that passed every level.
    pub passed: usize,
    /// Cases that additionally ran the HW/SW-partitioned target.
    pub partitioned_runs: usize,
    /// Passing cases whose `Target::DirectCA` leg actually executed on the
    /// direct backend (with no fault hooks, this should equal `passed`).
    pub direct_runs: usize,
    /// SHIP operations observed at the reference level, summed over
    /// passing cases.
    pub ship_ops: usize,
    /// Shrunk failures.
    pub failures: Vec<CaseFailure>,
}

impl HarnessReport {
    /// `true` when every case passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line per failure: seed, classification, where the repro went.
    pub fn failure_summary(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            out.push_str(&format!(
                "case {} (seed {}): {}\n  minimal: {} motif(s), {} PE(s){}\n",
                f.index,
                f.seed,
                f.failure,
                f.minimal.motifs.len(),
                f.minimal.pe_names().len(),
                f.repro_path
                    .as_ref()
                    .map(|p| format!("\n  repro: {}", p.display()))
                    .unwrap_or_default(),
            ));
        }
        out
    }
}

/// Shrinks `spec` while the check keeps failing with the same
/// [`FailureKind`](crate::diff::FailureKind) as `original`, then packages
/// the minimal spec as a replayable [`CorpusCase`].
pub fn shrink_failure(
    spec: &ModelSpec,
    cfg: &CheckConfig,
    original: &Failure,
    budget: &ShrinkConfig,
) -> (ShrinkResult, CorpusCase) {
    let kind = original.kind;
    let result = shrink(
        spec,
        budget,
        |cand| matches!(check_model(cand, cfg), Err(f) if f.kind == kind),
    );
    let case = CorpusCase {
        spec: result.minimal.clone(),
        arch: cfg.arch.clone(),
        fault: cfg.fault.clone(),
        expect: Expectation::Fail(kind),
    };
    (result, case)
}

/// Runs the full generate → check → shrink → persist loop.
pub fn run_conformance(cfg: &HarnessConfig) -> HarnessReport {
    let mut report = HarnessReport {
        cases: cfg.cases,
        passed: 0,
        partitioned_runs: 0,
        direct_runs: 0,
        ship_ops: 0,
        failures: Vec::new(),
    };
    if let Some(dir) = &cfg.repro_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    for index in 0..cfg.cases {
        let seed = cfg.case_seed(index);
        let spec = ModelSpec::random(seed, &cfg.gen);
        let mut check = CheckConfig::new(random_arch(seed));
        check.partition = cfg.partition_every > 0 && index % cfg.partition_every == 0;
        match check_model(&spec, &check) {
            Ok(pass) => {
                report.passed += 1;
                report.ship_ops += pass.ship_ops;
                if check.partition {
                    report.partitioned_runs += 1;
                }
                if pass.direct_used {
                    report.direct_runs += 1;
                }
            }
            Err(failure) => {
                let (shrunk, case) = shrink_failure(&spec, &check, &failure, &cfg.shrink);
                let repro_path = cfg.repro_dir.as_ref().map(|dir| {
                    let path = dir.join(format!("case-{index}-seed-{seed}.json"));
                    let _ = std::fs::write(&path, case.to_json().to_string());
                    path
                });
                report.failures.push(CaseFailure {
                    index,
                    seed,
                    failure,
                    minimal: shrunk.minimal,
                    shrink: (shrunk.evals, shrunk.accepted),
                    repro_path,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct() {
        let cfg = HarnessConfig::default();
        let mut seeds: Vec<u64> = (0..64).map(|i| cfg.case_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn seeds_are_stable_across_runs() {
        let cfg = HarnessConfig {
            seed: 42,
            ..HarnessConfig::default()
        };
        assert_eq!(cfg.case_seed(0), cfg.case_seed(0));
        assert_ne!(cfg.case_seed(0), cfg.case_seed(1));
    }
}
