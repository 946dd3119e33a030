//! # shiptlm-testkit
//!
//! Cross-level differential conformance harness for the `shiptlm` design
//! flow (Klingauf, DATE 2005): the central promise of the systematic TLM
//! methodology is that refining a model from untimed component assembly
//! through CCATB down to the pin-accurate prototype changes *timing only*,
//! never communicated *content*. This crate tests that promise in bulk:
//!
//! * seeded random system models —
//!   [`ModelSpec::random`](model::ModelSpec::random) from the job schema in
//!   `shiptlm_explore::model`, and [`random_arch`](harness::random_arch)
//!   for a per-case candidate architecture;
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
//! * [`asserts`] — the trace/export assertion helpers shared with the
//!   workspace's integration suites;
//! * [`prom`] — parsers for the Prometheus text exposition and folded
//!   flamegraph stacks emitted by the kernel's metrics registry and host
//!   profiler.
//!
//! The crate is test code: only tests, examples and benches depend on it,
//! and CI fails if a production crate does.
//!
//! ## Example
//!
//! ```
//! use shiptlm_testkit::prelude::*;
//!
//! let spec = ModelSpec::random(7, &GenConfig::default());
//! let report = check_model(&spec, &CheckConfig::new(random_arch(7)))
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
pub mod prom;
pub mod shrink;

// Kept only because the layer ledger imports `shiptlm_testkit::model` and
// `shiptlm_testkit::json`; they go once it imports the crates that define
// them.
pub use shiptlm_explore::model;
pub use shiptlm_kernel::json;

/// One-stop imports for conformance tests.
pub mod prelude {
    pub use crate::asserts::{
        assert_chrome_export, assert_jsonl_export, assert_spans_consistent, check_causal_trace,
        CausalShape,
    };
    pub use crate::corpus::{CorpusCase, Expectation};
    pub use crate::diff::{
        check_model, sw_candidates, untimed, CheckConfig, Failure, FailureKind, PassReport, Target,
    };
    pub use crate::faults::{FaultKind, FaultPlan, FaultSite};
    pub use crate::harness::{
        random_arch, run_conformance, shrink_failure, CaseFailure, HarnessConfig, HarnessReport,
    };
    pub use crate::prom::{parse_folded, FoldedStack, PromKind, PromSample, PromText};
    pub use crate::shrink::{candidates, shrink, ShrinkConfig, ShrinkResult};
    pub use shiptlm_explore::model::{GenConfig, ModelSpec, Motif};
    pub use shiptlm_kernel::json::Json;
}
