//! # CorePyPM — the formal core of the PyPM pattern language
//!
//! This crate implements **CorePyPM**, the core calculus of the PyPM
//! pattern-matching DSL from *"Pattern Matching in AI Compilers and its
//! Formalization (Extended)"* (CGO 2025). It contains:
//!
//! * the term algebra over a user-declared signature ([`TermStore`],
//!   [`SymbolTable`]),
//! * the full pattern grammar of the paper's Fig. 15 — variables, operator
//!   applications, alternates `p ‖ p′`, guards, existentials, match
//!   constraints, function variables and recursive `μ`-patterns
//!   ([`PatternStore`]),
//! * the **declarative semantics** `p @ ⟨θ, φ⟩ ≈ t` as an executable
//!   checker and a complete bounded enumerator ([`declarative`]),
//! * the **algorithmic semantics**: the backtracking abstract machine of
//!   Figs. 17–18, one transition per paper rule ([`Machine`]),
//! * guard expressions over abstract term attributes ([`Guard`],
//!   [`AttrInterp`]),
//! * a definite-binding analysis enforcing the scoping discipline the
//!   paper assumes ([`analysis`]).
//!
//! The paper's metatheory (Theorem 1, match weakening; Theorem 2,
//! soundness of the machine) is mechanized here as *property tests* over
//! randomly generated patterns and terms — see the `soundness`
//! integration-test suite and the [`testing`] module that powers it.
//!
//! ## Quickstart
//!
//! ```
//! use pypm_core::{Machine, NoAttrs, PatternStore, SymbolTable, TermStore};
//!
//! // Signature: MatMul/2, Trans/1, and two matrix constants.
//! let mut syms = SymbolTable::new();
//! let matmul = syms.op("MatMul", 2);
//! let trans = syms.op("Trans", 1);
//! let a = syms.op("a", 0);
//! let b = syms.op("b", 0);
//!
//! // The term MatMul(a, Trans(b)).
//! let mut terms = TermStore::new();
//! let ta = terms.app0(a);
//! let tb = terms.app0(b);
//! let tbt = terms.app(trans, vec![tb]);
//! let t = terms.app(matmul, vec![ta, tbt]);
//!
//! // The pattern MatMul(x, Trans(y)) from the paper's Fig. 1.
//! let mut pats = PatternStore::new();
//! let x = syms.var("x");
//! let y = syms.var("y");
//! let px = pats.var(x);
//! let py = pats.var(y);
//! let pyt = pats.app(trans, vec![py]);
//! let p = pats.app(matmul, vec![px, pyt]);
//!
//! let outcome = Machine::new(&mut pats, &terms, &NoAttrs)
//!     .run(p, t, 10_000)
//!     .expect("terminating pattern");
//! let w = outcome.witness().expect("match succeeds");
//! assert_eq!(w.theta.get(x), Some(ta));
//! assert_eq!(w.theta.get(y), Some(tb));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod attr;
pub mod budget;
pub mod clock;
pub mod codec;
pub mod declarative;
pub mod fused;
pub mod guard;
pub mod idhash;
pub mod json;
pub mod machine;
pub mod pattern;
pub mod splitmix;
pub mod stage;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod testing;

pub use attr::{AttrInterp, NoAttrs, StructuralAttrInterp, TableAttrInterp};
pub use budget::Budget;
pub use clock::{system_clock, Clock, SystemClock, TickingClock, VirtualClock};
pub use fused::{FusedSet, WalkStacks};
pub use guard::{Expr, Guard, GuardValue};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use machine::{Action, Machine, MachineError, MachineStats, Outcome, RuleName};
pub use pattern::{Pattern, PatternError, PatternId, PatternStore};
pub use splitmix::SplitMix64;
pub use stage::{Stage, StageTotals, Stages, Tally};
pub use subst::{FunSubst, Subst, Witness};
pub use symbol::{Attr, FunVar, PatName, Symbol, SymbolTable, Var};
pub use term::{TermId, TermStore};
