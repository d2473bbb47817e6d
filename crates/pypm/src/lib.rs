//! # PyPM — pattern matching for AI compilers, in Rust
//!
//! A from-scratch reproduction of *"Pattern Matching in AI Compilers and
//! its Formalization (Extended)"* (CGO 2025). This facade crate
//! re-exports the whole system:
//!
//! | module | crate | paper role |
//! |---|---|---|
//! | [`core`] | `pypm-core` | CorePyPM: terms, patterns, both semantics, the abstract machine (§3) |
//! | [`graph`] | `pypm-graph` | DLCB's computation-graph IR and term views (§2.4) |
//! | [`dsl`] | `pypm-dsl` | the PyPM frontend: builders, tracing, serialization (§2) |
//! | [`engine`] | `pypm-engine` | the rewrite pass and directed graph partitioning (§2.4, §4.2) |
//! | [`models`] | `pypm-models` | synthetic HuggingFace / TorchVision zoos (§4.1) |
//! | [`perf`] | `pypm-perf` | the simulated GPU testbed (§4.1) |
//! | [`wire`] | `pypm-wire` | the `PYPMWIRE` container format and the compile-result cache |
//! | [`faults`] | `pypm-faults` | the failpoint registry behind the chaos tests (zero-cost when disarmed) |
//!
//! On top of the re-exports it owns what `pypmc` is made of:
//! [`cli_args`] (the flag and `key=value` vocabularies),
//! [`compile_batch`] (the one pipeline assembly behind both `pypmc
//! compile` and the serve worker), [`serve`] (the session server, split
//! by decision: `protocol` / `queue` / `worker` / `server`) and
//! [`client`] (the blocking client with retry). Every JSON document the
//! workspace emits or reads goes through [`core::json`].
//!
//! ## Quickstart
//!
//! A compilation is an [`engine::Pipeline`] of rewrite passes over an
//! [`engine::Session`]: build it, add passes, run. Partitioning is a
//! direct call, [`engine::partition()`].
//!
//! ```
//! use pypm::engine::{Pipeline, RewritePass, Session};
//! use pypm::dsl::LibraryConfig;
//! use pypm::graph::{DType, Graph};
//!
//! // Build MatMul(a, Trans(b)) — the Fig. 1 subject.
//! let mut s = Session::new();
//! let mut g = Graph::new();
//! let a = g.input(&mut s.syms, DType::F32, [64, 32]);
//! let b = g.input(&mut s.syms, DType::F32, [16, 32]);
//! let trans = s.ops.trans;
//! let matmul = s.ops.matmul;
//! let bt = g.op(&mut s.syms, &s.registry, trans, vec![b], vec![]).unwrap();
//! let mm = g.op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![]).unwrap();
//! g.mark_output(mm);
//!
//! // Load the paper's pattern library and rewrite to fixpoint.
//! let rules = s.load_library(LibraryConfig::all());
//! let report = Pipeline::new(&mut s)
//!     .with(RewritePass::new(rules))
//!     .run(&mut g)
//!     .unwrap();
//! assert_eq!(report.total().rewrites_fired, 1);
//! assert_eq!(g.node(g.outputs()[0]).op, s.ops.cublas_mm_xyt_f32);
//!
//! // Per-pass counters and firing logs ride along, with a stable JSON
//! // rendering for external tooling.
//! assert!(report.to_json().contains("pypm.pipeline.v1"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pypm_core as core;
pub use pypm_dsl as dsl;
pub use pypm_engine as engine;
pub use pypm_faults as faults;
pub use pypm_graph as graph;
pub use pypm_models as models;
pub use pypm_perf as perf;
pub use pypm_wire as wire;

pub mod cli_args;
pub mod client;
pub mod serve;

use std::sync::Arc;

/// Builds a zoo model by name into `session`, searching the
/// HuggingFace-style transformers first and the TorchVision-style CNNs
/// second — the lookup behind `pypmc compile <model>` and the serve
/// protocol's `compile` verb. `None` when neither zoo knows the name.
pub fn build_model(session: &mut engine::Session, name: &str) -> Option<graph::Graph> {
    if let Some(cfg) = models::hf_zoo().into_iter().find(|c| c.name == name) {
        return Some(cfg.build(session));
    }
    if let Some(cfg) = models::tv_zoo().into_iter().find(|c| c.name == name) {
        return Some(cfg.build(session));
    }
    None
}

/// How [`compile_batch`] runs its graphs — what `pypmc compile` takes
/// from flags. A serve worker takes only the budget from a request and
/// runs the default policy and backend.
#[derive(Debug, Clone)]
pub struct CompileRecipe {
    /// Sweep policy of the rewrite pass.
    pub policy: engine::SweepPolicy,
    /// Matcher backend of the rewrite pass.
    pub matcher: engine::MatcherBackend,
    /// The cooperative budget the whole run charges against, if any.
    pub budget: Option<Arc<core::Budget>>,
    /// The stage recorder the run laps into, continued from its last
    /// boundary ([`engine::Pipeline::with_stages`]); `None` starts one
    /// on the system clock.
    pub stages: Option<core::Stages>,
}

/// Rewrites `graphs` with `rules` to fixpoint through one
/// [`engine::Pipeline::run_batch`], returning one report per graph —
/// the one pipeline assembly behind both `pypmc compile` and the serve
/// worker, which is what keeps their reports byte-identical. An empty
/// rule set (`--config baseline`) runs no pass at all.
///
/// # Errors
///
/// The first failing pass of the first failing graph.
pub fn compile_batch(
    session: &mut engine::Session,
    graphs: &mut [graph::Graph],
    rules: dsl::RuleSet,
    recipe: CompileRecipe,
) -> Result<Vec<engine::PipelineReport>, engine::PipelineError> {
    let mut pipeline = engine::Pipeline::new(session);
    if let Some(budget) = recipe.budget {
        pipeline = pipeline.with_budget(budget);
    }
    if let Some(stages) = recipe.stages {
        pipeline = pipeline.with_stages(stages);
    }
    if !rules.is_empty() {
        pipeline = pipeline.with(
            engine::RewritePass::new(rules)
                .policy(recipe.policy)
                .matcher(recipe.matcher),
        );
    }
    pipeline.run_batch(graphs)
}
