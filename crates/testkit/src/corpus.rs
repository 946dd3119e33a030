//! Replayable conformance cases — the shrunk-repro corpus format.
//!
//! Every failure the harness shrinks is serialized as one JSON document
//! holding the minimal [`ModelSpec`], the architecture description, the
//! injected [`FaultPlan`] (if any) and the expected outcome. Checked-in
//! corpus files under `tests/corpus/` replay as regression tests; freshly
//! shrunk failures are written next to the test binary for triage.

use std::path::Path;

use shiptlm_explore::arch::ArchSpec;
use shiptlm_explore::model::ModelSpec;
use shiptlm_kernel::json::Json;

use crate::diff::FailureKind;
use crate::faults::FaultPlan;

/// What a corpus case is expected to do when replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The conformance check passes at every level.
    Pass,
    /// The check fails with this classification.
    Fail(FailureKind),
}

/// One replayable conformance case.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// The (usually shrunk) model.
    pub spec: ModelSpec,
    /// Target architecture.
    pub arch: ArchSpec,
    /// Injected fault, if any.
    pub fault: Option<FaultPlan>,
    /// Expected replay outcome.
    pub expect: Expectation,
}

fn failure_kind_label(k: FailureKind) -> &'static str {
    match k {
        FailureKind::Map => "map",
        FailureKind::Behavior => "behavior",
        FailureKind::Timeout => "timeout",
        FailureKind::Divergence => "divergence",
        FailureKind::LatencyOrder => "latency-order",
        FailureKind::Hang => "hang",
    }
}

fn failure_kind_from_label(s: &str) -> Result<FailureKind, String> {
    Ok(match s {
        "map" => FailureKind::Map,
        "behavior" => FailureKind::Behavior,
        "timeout" => FailureKind::Timeout,
        "divergence" => FailureKind::Divergence,
        "latency-order" => FailureKind::LatencyOrder,
        "hang" => FailureKind::Hang,
        other => return Err(format!("unknown failure kind '{other}'")),
    })
}

impl CorpusCase {
    /// Serializes the case to its JSON document.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("model", self.spec.to_json()),
            ("arch", self.arch.to_json()),
            (
                "expect",
                match self.expect {
                    Expectation::Pass => Json::str("pass"),
                    Expectation::Fail(k) => Json::str(failure_kind_label(k)),
                },
            ),
        ];
        if let Some(fault) = &self.fault {
            fields.push(("fault", fault.to_json()));
        }
        Json::obj(fields)
    }

    /// Rebuilds a case from its [`to_json`](Self::to_json) form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<CorpusCase, String> {
        Ok(CorpusCase {
            spec: ModelSpec::from_json(v.get("model").ok_or("case missing 'model'")?)?,
            arch: ArchSpec::from_json(v.get("arch").ok_or("case missing 'arch'")?)?,
            fault: v.get("fault").map(FaultPlan::from_json).transpose()?,
            expect: match v.get("expect").and_then(Json::as_str) {
                Some("pass") => Expectation::Pass,
                Some(label) => Expectation::Fail(failure_kind_from_label(label)?),
                None => return Err("case missing 'expect'".into()),
            },
        })
    }

    /// Parses one corpus file.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O or parse failure.
    pub fn load(path: &Path) -> Result<CorpusCase, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        CorpusCase::from_json(&doc)
    }

    /// Loads every `*.json` case in `dir`, sorted by file name; an absent
    /// directory yields an empty corpus.
    ///
    /// # Errors
    ///
    /// Returns the first I/O or parse failure.
    pub fn load_dir(dir: &Path) -> Result<Vec<(String, CorpusCase)>, String> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => return Ok(out),
        };
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for p in paths {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("case")
                .to_string();
            out.push((name, CorpusCase::load(&p)?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultSite};
    use crate::harness::random_arch;
    use shiptlm_explore::model::GenConfig;

    #[test]
    fn corpus_case_roundtrip() {
        let case = CorpusCase {
            spec: ModelSpec::random(77, &GenConfig::default()),
            arch: random_arch(77),
            fault: Some(FaultPlan {
                channel: "m0.ch0".into(),
                kind: FaultKind::CorruptSend { nth: 0 },
                site: FaultSite::Mapped,
            }),
            expect: Expectation::Fail(FailureKind::Divergence),
        };
        let text = case.to_json().to_string();
        let back = CorpusCase::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.spec, case.spec);
        assert_eq!(back.fault, case.fault);
        assert_eq!(back.expect, case.expect);
        assert_eq!(back.arch.label(), case.arch.label());
        assert_eq!(back.arch.rx_capacity, case.arch.rx_capacity);
    }

    #[test]
    fn new_family_archs_roundtrip_through_json() {
        let spec = ModelSpec::random(5, &GenConfig::default());
        for arch in [
            ArchSpec::ahb(),
            ArchSpec::ahb().with_split(true),
            ArchSpec::noc(4, 4),
            ArchSpec::noc(16, 16),
        ] {
            let case = CorpusCase {
                spec: spec.clone(),
                arch,
                fault: None,
                expect: Expectation::Pass,
            };
            let text = case.to_json().to_string();
            let back = CorpusCase::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.arch, case.arch, "{text}");
        }
        // A case whose noc arch has no mesh dimensions is malformed, not a
        // panic.
        let dimless = Json::parse(r#"{"bus":"noc","arb":"round-robin"}"#).unwrap();
        let doc = Json::obj([
            ("model", spec.to_json()),
            ("arch", dimless),
            ("expect", Json::str("pass")),
        ]);
        assert!(CorpusCase::from_json(&doc).is_err());
    }
}
