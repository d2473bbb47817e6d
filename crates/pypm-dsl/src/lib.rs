//! # pypm-dsl — the PyPM frontend
//!
//! The paper's PyPM frontend is "a library in Python that transforms the
//! shallowly embedded syntax of PyPM programs into a portable serialized
//! binary format" via symbolic execution of `@pattern`/`@rule` methods
//! (§2.4). This crate is the Rust rendition of that frontend:
//!
//! * [`Frontend`]/[`RuleSetBuilder`] — registration of pattern and rule
//!   definitions, with alternates, local variables, match constraints,
//!   recursion, cross-pattern inlining, and traced rule control flow,
//! * [`RuleSet`] — the compiled program: ordered patterns, each with
//!   ordered guarded rules and [`Rhs`] replacement templates,
//! * [`binary`] — the portable binary format (magic `PYPMB1`), the one
//!   way a rule set enters a session,
//! * [`text`] — an output-only, human-readable rendering of rule sets,
//! * [`library`] — every pattern the paper presents (Figs. 1–4, 14) plus
//!   the FMHA and GEMM-epilog optimizations its evaluation deploys.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod builder;
pub mod library;
pub mod ruleset;
pub mod text;

pub use builder::{Frontend, PatternBuilder, RuleBuilder, RuleSetBuilder};
pub use library::{build_library, LibraryConfig};
pub use ruleset::{PatternDef, Rhs, RuleDef, RuleSet};
