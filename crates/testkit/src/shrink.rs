//! Greedy shrinking of failing model specs.
//!
//! Given a [`ModelSpec`] that fails some predicate (typically "the
//! differential conformance check fails"), [`shrink`] repeatedly proposes
//! structurally smaller candidates — drop a motif, halve block counts,
//! halve payload sizes, remove pipeline stages or star arms, zero compute —
//! and keeps any candidate that still fails, iterating to a fixpoint. The
//! result is a minimal reproduction small enough to read, replay and check
//! into the regression corpus.
//!
//! The predicate is re-evaluated for every candidate, so shrinking is
//! sound for any deterministic failure; candidates that make the failure
//! disappear (e.g. removing the motif that owns a fault's target channel)
//! are simply rejected.

use shiptlm_explore::model::{ModelSpec, Motif};

/// Bounds for one shrink session.
#[derive(Debug, Clone)]
pub struct ShrinkConfig {
    /// Hard cap on predicate evaluations (each evaluation simulates the
    /// candidate at several abstraction levels).
    pub max_evals: usize,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig { max_evals: 200 }
    }
}

/// Outcome of a shrink session.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest failing spec found.
    pub minimal: ModelSpec,
    /// Predicate evaluations spent.
    pub evals: usize,
    /// Shrink steps accepted (0 means the input was already minimal under
    /// the candidate moves).
    pub accepted: usize,
}

fn halve_u32(v: u32) -> Option<u32> {
    (v > 1).then_some(v / 2)
}

fn halve_usize_floor(v: usize, floor: usize) -> Option<usize> {
    (v > floor).then_some((v / 2).max(floor))
}

/// Structurally smaller variants of one motif, most aggressive first.
fn motif_candidates(m: &Motif) -> Vec<Motif> {
    let mut out = Vec::new();
    match *m {
        Motif::Pipeline {
            stages,
            blocks,
            bytes,
            compute_ns,
        } => {
            if stages > 2 {
                out.push(Motif::Pipeline {
                    stages: 2,
                    blocks,
                    bytes,
                    compute_ns,
                });
                out.push(Motif::Pipeline {
                    stages: stages - 1,
                    blocks,
                    bytes,
                    compute_ns,
                });
            }
            if let Some(b) = halve_u32(blocks) {
                out.push(Motif::Pipeline {
                    stages,
                    blocks: b,
                    bytes,
                    compute_ns,
                });
            }
            if let Some(s) = halve_usize_floor(bytes, 1) {
                out.push(Motif::Pipeline {
                    stages,
                    blocks,
                    bytes: s,
                    compute_ns,
                });
            }
            if compute_ns > 0 {
                out.push(Motif::Pipeline {
                    stages,
                    blocks,
                    bytes,
                    compute_ns: 0,
                });
            }
        }
        Motif::Stream { ref sizes } => {
            if sizes.len() > 1 {
                out.push(Motif::Stream {
                    sizes: sizes[..1].to_vec(),
                });
                out.push(Motif::Stream {
                    sizes: sizes[..sizes.len() / 2].to_vec(),
                });
            }
            let halved: Vec<usize> = sizes.iter().map(|s| s / 2).collect();
            if halved != *sizes {
                out.push(Motif::Stream { sizes: halved });
            }
        }
        Motif::Rpc {
            requests,
            bytes,
            compute_ns,
        } => {
            if let Some(r) = halve_u32(requests) {
                out.push(Motif::Rpc {
                    requests: r,
                    bytes,
                    compute_ns,
                });
            }
            if let Some(s) = halve_usize_floor(bytes, 1) {
                out.push(Motif::Rpc {
                    requests,
                    bytes: s,
                    compute_ns,
                });
            }
            if compute_ns > 0 {
                out.push(Motif::Rpc {
                    requests,
                    bytes,
                    compute_ns: 0,
                });
            }
        }
        Motif::FanOut {
            sinks,
            blocks,
            bytes,
        } => {
            if sinks > 1 {
                out.push(Motif::FanOut {
                    sinks: 1,
                    blocks,
                    bytes,
                });
                out.push(Motif::FanOut {
                    sinks: sinks - 1,
                    blocks,
                    bytes,
                });
            }
            if let Some(b) = halve_u32(blocks) {
                out.push(Motif::FanOut {
                    sinks,
                    blocks: b,
                    bytes,
                });
            }
            if let Some(s) = halve_usize_floor(bytes, 1) {
                out.push(Motif::FanOut {
                    sinks,
                    blocks,
                    bytes: s,
                });
            }
        }
        Motif::FanIn {
            sources,
            blocks,
            bytes,
        } => {
            if sources > 1 {
                out.push(Motif::FanIn {
                    sources: 1,
                    blocks,
                    bytes,
                });
                out.push(Motif::FanIn {
                    sources: sources - 1,
                    blocks,
                    bytes,
                });
            }
            if let Some(b) = halve_u32(blocks) {
                out.push(Motif::FanIn {
                    sources,
                    blocks: b,
                    bytes,
                });
            }
            if let Some(s) = halve_usize_floor(bytes, 1) {
                out.push(Motif::FanIn {
                    sources,
                    blocks,
                    bytes: s,
                });
            }
        }
    }
    out
}

/// All single-step shrink candidates of `spec`, most aggressive first.
/// Motif *removal* candidates come before parameter shrinks, so whole
/// irrelevant subsystems disappear early.
pub fn candidates(spec: &ModelSpec) -> Vec<ModelSpec> {
    let mut out = Vec::new();
    // Note: removing motif `i` renames every later motif's PEs and
    // channels (they are index-namespaced), but payload derivation also
    // moves with the index, so the surviving traffic is renamed wholesale,
    // not altered — any index-independent failure reproduces.
    if spec.motifs.len() > 1 {
        for i in 0..spec.motifs.len() {
            let mut s = spec.clone();
            s.motifs.remove(i);
            out.push(s);
        }
    }
    for (i, m) in spec.motifs.iter().enumerate() {
        for cand in motif_candidates(m) {
            let mut s = spec.clone();
            s.motifs[i] = cand;
            out.push(s);
        }
    }
    out
}

/// Greedily shrinks `spec` while `still_fails` holds, up to
/// `cfg.max_evals` predicate evaluations.
pub fn shrink<F>(spec: &ModelSpec, cfg: &ShrinkConfig, mut still_fails: F) -> ShrinkResult
where
    F: FnMut(&ModelSpec) -> bool,
{
    let mut current = spec.clone();
    let mut evals = 0;
    let mut accepted = 0;
    'outer: loop {
        for cand in candidates(&current) {
            if evals >= cfg.max_evals {
                break 'outer;
            }
            evals += 1;
            if still_fails(&cand) {
                current = cand;
                accepted += 1;
                // Restart from the shrunk spec: its candidate set is new.
                continue 'outer;
            }
        }
        break; // fixpoint: no candidate still fails
    }
    current.name = format!("{}-min", spec.name);
    ShrinkResult {
        minimal: current,
        evals,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiptlm_explore::model::GenConfig;

    #[test]
    fn shrinks_block_count_to_one() {
        // Predicate: fails whenever motif 0 moves at least one block.
        // Minimal failing spec must be a single motif at minimum size.
        let spec = ModelSpec {
            name: "t".into(),
            seed: 5,
            motifs: vec![
                Motif::Pipeline {
                    stages: 4,
                    blocks: 8,
                    bytes: 128,
                    compute_ns: 500,
                },
                Motif::Rpc {
                    requests: 4,
                    bytes: 64,
                    compute_ns: 100,
                },
            ],
            app_checks: true,
        };
        let r = shrink(&spec, &ShrinkConfig::default(), |s| {
            s.motifs
                .iter()
                .any(|m| matches!(m, Motif::Pipeline { blocks, .. } if *blocks >= 1))
        });
        assert_eq!(r.minimal.motifs.len(), 1);
        assert!(matches!(
            r.minimal.motifs[0],
            Motif::Pipeline {
                stages: 2,
                blocks: 1,
                bytes: 1,
                compute_ns: 0,
            }
        ));
        assert!(r.accepted > 0);
    }

    #[test]
    fn never_fails_input_returns_input() {
        let spec = ModelSpec::random(11, &GenConfig::default());
        let r = shrink(&spec, &ShrinkConfig::default(), |_| false);
        assert_eq!(r.minimal.motifs, spec.motifs);
        assert_eq!(r.accepted, 0);
    }

    #[test]
    fn eval_budget_is_respected() {
        let spec = ModelSpec::random(13, &GenConfig::default());
        let mut count = 0usize;
        let cfg = ShrinkConfig { max_evals: 7 };
        let _ = shrink(&spec, &cfg, |_| {
            count += 1;
            true
        });
        assert!(count <= 7);
    }
}
