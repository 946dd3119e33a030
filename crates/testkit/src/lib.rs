//! # shiptlm-testkit
//!
//! Cross-level differential conformance harness for the `shiptlm` design
//! flow (Klingauf, DATE 2005): the central promise of the systematic TLM
//! methodology is that refining a model from untimed component assembly
//! through CCATB down to the pin-accurate prototype changes *timing only*,
//! never communicated *content*. This crate tests that promise in bulk:
//!
//! * [`model`] — a seeded random generator of system models built from
//!   communication motifs (pipelines, streams, RPC pairs, fan-out/fan-in
//!   stars) with randomized payload sizes, burst patterns and compute
//!   delays;
//! * [`diff`] — the differential checker: one model is run at up to four
//!   targets (component assembly, CCATB, pin-accurate, HW/SW-partitioned)
//!   and every refined level must reproduce the reference's per-channel
//!   payload byte-streams exactly, take no less simulated time, and never
//!   hang silently;
//! * [`faults`] — fault injection (drop / duplicate / delay / corrupt) at
//!   the SHIP endpoint boundary, for asserting that transport-level faults
//!   surface as timeouts, deadlock diagnoses or equivalence failures —
//!   never as silent corruption;
//! * [`shrink`] — greedy minimization of failing models to a reproduction
//!   small enough to read and check into a corpus;
//! * [`corpus`] — the replayable JSON case format and directory loader;
//! * [`harness`] — the generate → check → shrink → persist loop with
//!   deterministic per-case seeds and env-var overrides;
//! * [`json`] / [`asserts`] — the dependency-free JSON parser and the
//!   trace/export assertion helpers shared with the workspace's
//!   integration suites;
//! * [`prom`] — parsers for the Prometheus text exposition and folded
//!   flamegraph stacks emitted by the kernel's metrics registry and host
//!   profiler.
//!
//! ## Example
//!
//! ```
//! use shiptlm_testkit::prelude::*;
//!
//! let spec = ModelSpec::random(7, &GenConfig::default());
//! let report = check_model(&spec, &CheckConfig::new(ModelSpec::random_arch(7)))
//!     .expect("generated models conform across levels");
//! assert!(report.levels >= 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asserts;
pub mod corpus;
pub mod diff;
pub mod faults;
pub mod harness;
pub mod json;
pub mod model;
pub mod prom;
pub mod shrink;
pub mod wirecase;

/// One-stop imports for conformance tests.
pub mod prelude {
    pub use crate::asserts::{
        assert_chrome_export, assert_jsonl_export, assert_spans_consistent, check_causal_trace,
        CausalShape,
    };
    pub use crate::corpus::{CorpusCase, Expectation};
    pub use crate::diff::{check_model, CheckConfig, Failure, FailureKind, PassReport, Target};
    pub use crate::faults::{FaultKind, FaultPlan, FaultSite};
    pub use crate::harness::{
        run_conformance, shrink_failure, CaseFailure, HarnessConfig, HarnessReport,
    };
    pub use crate::json::Json;
    pub use crate::model::{GenConfig, ModelSpec, Motif};
    pub use crate::prom::{parse_folded, FoldedStack, PromKind, PromSample, PromText};
    pub use crate::shrink::{candidates, shrink, ShrinkConfig, ShrinkResult};
}
