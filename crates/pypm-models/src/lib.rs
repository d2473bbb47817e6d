//! # pypm-models — the synthetic model zoo
//!
//! Stand-ins for the paper's two benchmark suites (§4.1):
//!
//! * [`transformer`] — ~30 HuggingFace-style transformer graphs with
//!   naive multi-head attention and expanded GELUs (in both the `Div(x,2)`
//!   and `Mul(x,0.5)` spellings of §2.1),
//! * [`vision`] — ~20 TorchVision-style CNN graphs with conv→bias→act
//!   blocks and dense classifier tails.
//!
//! Why the substitution holds (README.md, "Workspace layout", lists it
//! beside the cost model's): pattern matching and the cost model only
//! see operator graphs, so synthetic graphs with the real models'
//! operator structure exercise the same code paths as the paper's
//! pre-trained checkpoints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod transformer;
pub mod vision;

pub use transformer::{hf_zoo, GeluVariant, ScaleVariant, TransformerConfig};
pub use vision::{tv_zoo, BlockActivation, ConvStage, VisionConfig};

/// Runs one default rewrite pass to fixpoint — the compile both zoos'
/// unit tests assert on.
#[cfg(test)]
pub(crate) fn rewrite(
    s: &mut pypm_engine::Session,
    rules: pypm_dsl::RuleSet,
    g: &mut pypm_graph::Graph,
) -> pypm_engine::PassStats {
    pypm_engine::Pipeline::new(s)
        .with(pypm_engine::RewritePass::new(rules))
        .run(g)
        .unwrap()
        .total()
}
