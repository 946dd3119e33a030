//! Wire cases for the job schema: an [`ArchSpec`] table that covers every
//! family, and whole jobs (a [`ModelSpec`] plus its candidates) in the
//! binary and the JSON form, with the tests that round-trip them and
//! damage them.

use shiptlm_cam::arb::ArbPolicy;
use shiptlm_kernel::json::Json;
use shiptlm_kernel::time::SimDur;

use crate::arch::ArchSpec;
use crate::model::ModelSpec;

/// A job as the gateway carries it: one model and its candidates.
pub(crate) type Job = (ModelSpec, Vec<ArchSpec>);

/// Every family; priority, round-robin and TDMA; explicit clocks; SPLIT;
/// non-default wrapper knobs; the 16×16 mesh.
pub(crate) fn arch_table() -> Vec<ArchSpec> {
    vec![
        ArchSpec::plb(),
        ArchSpec::opb()
            .with_burst(16)
            .with_clock(SimDur::ns(7))
            .with_rx_capacity(3)
            .with_poll(SimDur::ns(250)),
        ArchSpec::crossbar().with_arb(ArbPolicy::Tdma {
            slot: SimDur::us(1),
            slots: 4,
        }),
        ArchSpec::ahb(),
        ArchSpec::ahb().with_split(true),
        ArchSpec::ahb().with_split(true).with_burst(128),
        ArchSpec::noc(4, 4),
        ArchSpec::noc(16, 16)
            .with_arb(ArbPolicy::FixedPriority)
            .with_clock(SimDur::ns(2)),
    ]
}

/// The JSON text of `job`: `{"model": .., "archs": [..]}`.
pub(crate) fn job_json(job: &Job) -> String {
    let archs = job.1.iter().map(ArchSpec::to_json).collect();
    Json::obj([("model", job.0.to_json()), ("archs", Json::Arr(archs))]).to_string()
}

/// Parses [`job_json`]'s text back into a job.
pub(crate) fn job_from_json(bytes: &[u8]) -> Result<Job, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let v = Json::parse(text)?;
    let spec = ModelSpec::from_json(v.get("model").ok_or("no model")?)?;
    let archs = v.get("archs").and_then(Json::as_arr).ok_or("no archs")?;
    let archs = archs
        .iter()
        .map(ArchSpec::from_json)
        .collect::<Result<_, _>>()?;
    Ok((spec, archs))
}

mod tests {
    use super::*;
    use crate::model::GenConfig;
    use shiptlm_ship::serialize::{from_wire, to_wire};

    type Decode = fn(&[u8]) -> Result<Job, String>;

    #[test]
    fn archs_roundtrip() {
        let archs = arch_table();
        for arch in &archs {
            assert_eq!(&from_wire::<ArchSpec>(&to_wire(arch)).unwrap(), arch);
            let text = arch.to_json().to_string();
            let back = ArchSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, arch, "{text}");
        }
        assert_eq!(from_wire::<Vec<ArchSpec>>(&to_wire(&archs)).unwrap(), archs);
    }

    #[test]
    fn random_models_roundtrip() {
        let archs = arch_table();
        for seed in 0..32 {
            let job = (
                ModelSpec::random(seed, &GenConfig::default()),
                archs.clone(),
            );
            assert_eq!(
                from_wire::<Job>(&to_wire(&job)).unwrap(),
                job,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn corrupted_cases_fail_cleanly() {
        // Every strict prefix is a classified error, and flipping any byte
        // decodes or fails cleanly: never a panic.
        let job = (ModelSpec::random(99, &GenConfig::default()), arch_table());
        let forms: [(Vec<u8>, Decode); 2] = [
            (to_wire(&job), |b| {
                from_wire::<Job>(b).map_err(|e| e.to_string())
            }),
            (job_json(&job).into_bytes(), job_from_json),
        ];
        for (clean, decode) in forms {
            for cut in 0..clean.len() {
                assert!(decode(&clean[..cut]).is_err(), "prefix of {cut} bytes");
            }
            for i in 0..clean.len() {
                let mut bad = clean.clone();
                bad[i] ^= 0xFF;
                let _ = decode(&bad);
            }
        }
    }
}
