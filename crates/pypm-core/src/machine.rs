//! The algorithmic semantics: a backtracking abstract machine
//! (paper §3.1.2 and Appendix A, Figs. 17–18).
//!
//! The machine state is
//!
//! ```text
//! st ::= success(θ, φ) | failure | running(θ, φ, stk, k)
//! a  ::= match(p, t) | guard(g) | checkName(x) | matchConstr(p, x)
//! k  ::= [] | a::k
//! stk ::= [] | (θ, φ, k)::stk
//! ```
//!
//! Each transition of [`Machine::step`] implements exactly one rule of the
//! paper's step relation `st ↦ st′`, and reports which one via
//! [`RuleName`]; the test-suite checks rule-by-rule traces against
//! hand-derived executions.
//!
//! ## Deviations from the paper (documented)
//!
//! The paper's relation is *stuck* (no rule applies) when `checkName(x)` or
//! `matchConstr(p, x)` reaches the head of the continuation while `x` is
//! unbound. A stuck state is neither success nor failure, which would make
//! the implementation partial. We instead **backtrack** in those cases
//! (rules [`RuleName::CheckNameUnbound`] and
//! [`RuleName::MatchConstrUnbound`]): an unbound existential can never be
//! discharged on the current branch, so treating it as a conflict is the
//! unique totality-preserving completion, and it coincides with the paper on
//! all patterns accepted by
//! [`PatternStore::validate`](crate::pattern::PatternStore::validate).
//!
//! Recursive patterns can diverge (`μP(x).P(x)` unfolds to itself, §3.5),
//! so [`Machine::run`] is fuel-bounded and returns
//! [`MachineError::OutOfFuel`] when the bound is hit.

use crate::attr::AttrInterp;
use crate::pattern::{Pattern, PatternId, PatternStore};
use crate::subst::{FunSubst, Subst, Witness};
use crate::symbol::Var;
use crate::term::{TermId, TermStore};
use std::fmt;

/// A continuation action `a`.
///
/// Patterns are hash-consed and the machine never mutates one, so an
/// action names the pattern syntax it came from by id instead of copying
/// it: a saved continuation is a flat copy of ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `match(p, t)` — match pattern `p` against term `t`.
    Match(PatternId, TermId),
    /// `guard(g)` — check `⟦g[θ]⟧ = True`, where `g` is the guard of the
    /// named `p ; guard(g)` pattern.
    Guard(PatternId),
    /// `checkName(x)` — require `x` to be bound.
    CheckName(Var),
    /// `matchConstr(p, x)` — require `θ(x)` to match `p`.
    MatchConstr(PatternId, Var),
}

/// A backtrack node `(θ, φ, k)` saved at a choice point.
#[derive(Debug, Clone)]
struct Frame {
    theta: Subst,
    phi: FunSubst,
    kont: Vec<Action>,
    /// Length of the machine's coverage log at the choice point.
    coverage_mark: usize,
}

/// The name of the step-relation rule applied by one call to
/// [`Machine::step`], as printed in Figs. 17–18.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleName {
    /// `ST-Success`.
    Success,
    /// `ST-Match-Var-Bind`.
    MatchVarBind,
    /// `ST-Match-Var-Bound`.
    MatchVarBound,
    /// `ST-Match-Var-Conflict`.
    MatchVarConflict,
    /// `ST-Match-Fun`.
    MatchFun,
    /// `ST-Match-Fun-Conflict`.
    MatchFunConflict,
    /// `ST-Match-Alt`.
    MatchAlt,
    /// `ST-Match-Guard`.
    MatchGuard,
    /// `ST-CheckGuard-Continue`.
    CheckGuardContinue,
    /// `ST-CheckGuard-Backtrack`.
    CheckGuardBacktrack,
    /// `ST-Match-Exists`.
    MatchExists,
    /// `ST-CheckName`.
    CheckName,
    /// Totalizing completion of `ST-CheckName` for unbound variables
    /// (see module docs).
    CheckNameUnbound,
    /// `ST-Match-MatchConstr`.
    MatchMatchConstr,
    /// `ST-MatchConstr`.
    MatchConstr,
    /// Totalizing completion of `ST-MatchConstr` for unbound variables
    /// (see module docs).
    MatchConstrUnbound,
    /// `ST-Match-Fun-Var-Bind`.
    MatchFunVarBind,
    /// `ST-Match-Fun-Var-Bound`.
    MatchFunVarBound,
    /// `ST-Match-Fun-Var-Conflict`.
    MatchFunVarConflict,
    /// `ST-Match-Mu`.
    MatchMu,
}

impl fmt::Display for RuleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleName::Success => "ST-Success",
            RuleName::MatchVarBind => "ST-Match-Var-Bind",
            RuleName::MatchVarBound => "ST-Match-Var-Bound",
            RuleName::MatchVarConflict => "ST-Match-Var-Conflict",
            RuleName::MatchFun => "ST-Match-Fun",
            RuleName::MatchFunConflict => "ST-Match-Fun-Conflict",
            RuleName::MatchAlt => "ST-Match-Alt",
            RuleName::MatchGuard => "ST-Match-Guard",
            RuleName::CheckGuardContinue => "ST-CheckGuard-Continue",
            RuleName::CheckGuardBacktrack => "ST-CheckGuard-Backtrack",
            RuleName::MatchExists => "ST-Match-Exists",
            RuleName::CheckName => "ST-CheckName",
            RuleName::CheckNameUnbound => "ST-CheckName-Unbound",
            RuleName::MatchMatchConstr => "ST-Match-MatchConstr",
            RuleName::MatchConstr => "ST-MatchConstr",
            RuleName::MatchConstrUnbound => "ST-MatchConstr-Unbound",
            RuleName::MatchFunVarBind => "ST-Match-Fun-Var-Bind",
            RuleName::MatchFunVarBound => "ST-Match-Fun-Var-Bound",
            RuleName::MatchFunVarConflict => "ST-Match-Fun-Var-Conflict",
            RuleName::MatchMu => "ST-Match-Mu",
        };
        f.write_str(s)
    }
}

/// Terminal result of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `success(θ, φ)`.
    Success(Witness),
    /// `failure`.
    Failure,
}

impl Outcome {
    /// The witness, if the run succeeded.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Outcome::Success(w) => Some(w),
            Outcome::Failure => None,
        }
    }
}

/// Errors from a fuel-bounded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The step budget was exhausted before reaching a terminal state
    /// (e.g. a recursive pattern with no reachable base case, §3.5).
    OutOfFuel {
        /// Number of steps taken before giving up.
        steps: u64,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfFuel { steps } => {
                write!(f, "matcher exhausted its fuel after {steps} steps")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Counters describing one run, used by the compile-time-cost experiments
/// (paper Figs. 12–13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Total transitions taken.
    pub steps: u64,
    /// Times `backtrack(stk)` popped a frame.
    pub backtracks: u64,
    /// Maximum backtrack-stack depth.
    pub max_stack_depth: usize,
    /// Maximum continuation length.
    pub max_kont_depth: usize,
    /// μ-unfoldings performed (`ST-Match-Mu` applications).
    pub mu_unfolds: u64,
}

/// The backtracking abstract machine.
///
/// A `Machine` borrows the pattern store mutably (μ-unfolding interns new
/// patterns) and the term store and attribute interpretation immutably.
///
/// # Examples
///
/// ```
/// use pypm_core::{Machine, NoAttrs, PatternStore, SymbolTable, TermStore};
///
/// let mut syms = SymbolTable::new();
/// let c = syms.op("c", 0);
/// let f = syms.op("f", 1);
/// let x = syms.var("x");
///
/// let mut terms = TermStore::new();
/// let tc = terms.app0(c);
/// let t = terms.app(f, vec![tc]);
///
/// let mut pats = PatternStore::new();
/// let px = pats.var(x);
/// let p = pats.app(f, vec![px]);
///
/// let outcome = Machine::new(&mut pats, &terms, &NoAttrs)
///     .run(p, t, 1_000)
///     .unwrap();
/// let w = outcome.witness().expect("f(x) matches f(c)");
/// assert_eq!(w.theta.get(x), Some(tc));
/// ```
pub struct Machine<'a, A: AttrInterp + ?Sized> {
    pats: &'a mut PatternStore,
    terms: &'a TermStore,
    interp: &'a A,
    theta: Subst,
    phi: FunSubst,
    stack: Vec<Frame>,
    /// Continuation with its head at the *end* of the vector.
    kont: Vec<Action>,
    /// Terms structurally decomposed on the current branch (one entry per
    /// successful `ST-Match-Fun`/`ST-Match-Fun-Var-*` application). After
    /// success this is exactly the set of internal nodes the pattern
    /// matched — the "matched subgraph" that directed graph partitioning
    /// (§4.2) extracts.
    coverage: Vec<TermId>,
    stats: MachineStats,
    trace: Option<Vec<RuleName>>,
    done: Option<Outcome>,
}

impl<'a, A: AttrInterp + ?Sized> Machine<'a, A> {
    /// Creates a machine over the given stores and attribute
    /// interpretation.
    pub fn new(pats: &'a mut PatternStore, terms: &'a TermStore, interp: &'a A) -> Self {
        Machine {
            pats,
            terms,
            interp,
            theta: Subst::new(),
            phi: FunSubst::new(),
            stack: Vec::new(),
            kont: Vec::new(),
            coverage: Vec::new(),
            stats: MachineStats::default(),
            trace: None,
            done: None,
        }
    }

    /// Enables recording of the applied rule names.
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Loads the initial state `running(∅, ∅, [], [match(p, t)])`.
    pub fn load(&mut self, p: PatternId, t: TermId) {
        self.theta = Subst::new();
        self.phi = FunSubst::new();
        self.stack.clear();
        self.kont.clear();
        self.coverage.clear();
        self.kont.push(Action::Match(p, t));
        self.stats = MachineStats::default();
        self.done = None;
        if let Some(tr) = &mut self.trace {
            tr.clear();
        }
    }

    /// Runs `match(p, t)` from the empty state to a terminal state.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfFuel`] after `fuel` steps without
    /// termination.
    pub fn run(&mut self, p: PatternId, t: TermId, fuel: u64) -> Result<Outcome, MachineError> {
        self.load(p, t);
        self.resume(fuel)
    }

    /// Continues stepping a loaded machine until a terminal state.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfFuel`] after `fuel` additional steps.
    pub fn resume(&mut self, fuel: u64) -> Result<Outcome, MachineError> {
        for _ in 0..fuel {
            if let Some(outcome) = &self.done {
                return Ok(outcome.clone());
            }
            self.step();
        }
        if let Some(outcome) = &self.done {
            return Ok(outcome.clone());
        }
        Err(MachineError::OutOfFuel {
            steps: self.stats.steps,
        })
    }

    /// Run statistics so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The recorded rule trace, if enabled with [`Machine::with_trace`].
    pub fn trace(&self) -> Option<&[RuleName]> {
        self.trace.as_deref()
    }

    /// The terminal outcome, if the machine has halted.
    pub fn outcome(&self) -> Option<&Outcome> {
        self.done.as_ref()
    }

    /// The terms structurally decomposed by the accepting branch (valid
    /// after a successful run): the matched subgraph of §4.2.
    pub fn coverage(&self) -> &[TermId] {
        &self.coverage
    }

    fn record(&mut self, rule: RuleName) {
        self.stats.steps += 1;
        if let Some(tr) = &mut self.trace {
            tr.push(rule);
        }
    }

    /// The metafunction `backtrack(stk)`:
    /// `backtrack([]) = failure`,
    /// `backtrack((θ,φ,k)::stk) = running(θ, φ, stk, k)`.
    fn backtrack(&mut self) {
        match self.stack.pop() {
            None => self.done = Some(Outcome::Failure),
            Some(frame) => {
                self.stats.backtracks += 1;
                self.theta = frame.theta;
                self.phi = frame.phi;
                self.kont = frame.kont;
                self.coverage.truncate(frame.coverage_mark);
            }
        }
    }

    /// Performs one transition `st ↦ st′`, returning the rule applied.
    ///
    /// Calling `step` on a halted machine is a no-op returning `None`.
    pub fn step(&mut self) -> Option<RuleName> {
        if self.done.is_some() {
            return None;
        }
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(self.stack.len());
        self.stats.max_kont_depth = self.stats.max_kont_depth.max(self.kont.len());

        let action = match self.kont.pop() {
            // ST-Success: running(θ, φ, stk, []) ↦ success(θ, φ)
            None => {
                self.record(RuleName::Success);
                self.done = Some(Outcome::Success(Witness {
                    theta: self.theta.clone(),
                    phi: self.phi.clone(),
                }));
                return Some(RuleName::Success);
            }
            Some(a) => a,
        };

        let rule = match action {
            Action::Match(p, t) => self.step_match(p, t),
            Action::Guard(p) => {
                // ST-CheckGuard-{Continue, Backtrack}
                let Pattern::Guard(_, g) = self.pats.get(p) else {
                    unreachable!("guard({p:?}) names a pattern without a guard")
                };
                if g.eval(&self.theta, self.terms, self.interp).holds() {
                    RuleName::CheckGuardContinue
                } else {
                    self.backtrack();
                    RuleName::CheckGuardBacktrack
                }
            }
            Action::CheckName(x) => {
                // ST-CheckName (bound) / totalized unbound case.
                if self.theta.get(x).is_some() {
                    RuleName::CheckName
                } else {
                    self.backtrack();
                    RuleName::CheckNameUnbound
                }
            }
            Action::MatchConstr(p, x) => {
                // ST-MatchConstr: θ(x) ↦ t  ⇒  push match(p, t).
                match self.theta.get(x) {
                    Some(t) => {
                        self.kont.push(Action::Match(p, t));
                        RuleName::MatchConstr
                    }
                    None => {
                        self.backtrack();
                        RuleName::MatchConstrUnbound
                    }
                }
            }
        };
        self.record(rule);
        Some(rule)
    }

    /// One `match(p, t)` step, reading `p` in place: the store is written
    /// only by `ST-Match-Mu`'s unfolding, after the match on `p` is done.
    fn step_match(&mut self, p: PatternId, t: TermId) -> RuleName {
        match self.pats.get(p) {
            &Pattern::Var(x) => match self.theta.get(x) {
                // ST-Match-Var-Bind
                None => {
                    self.theta.bind(x, t);
                    RuleName::MatchVarBind
                }
                // ST-Match-Var-Bound
                Some(t2) if t2 == t => RuleName::MatchVarBound,
                // ST-Match-Var-Conflict
                Some(_) => {
                    self.backtrack();
                    RuleName::MatchVarConflict
                }
            },
            Pattern::App(f, pargs) => {
                let g = self.terms.op(t);
                let targs = self.terms.args(t);
                if *f == g && pargs.len() == targs.len() {
                    // ST-Match-Fun: k ← [match(p₁,t₁),…,match(pₙ,tₙ)] ++ k
                    // Head of kont is the vector end, so push in reverse.
                    self.coverage.push(t);
                    for (&pi, &ti) in pargs.iter().zip(targs.iter()).rev() {
                        self.kont.push(Action::Match(pi, ti));
                    }
                    RuleName::MatchFun
                } else {
                    // ST-Match-Fun-Conflict
                    self.backtrack();
                    RuleName::MatchFunConflict
                }
            }
            Pattern::FunApp(fv, pargs) => {
                let g = self.terms.op(t);
                let targs = self.terms.args(t);
                if pargs.len() != targs.len() {
                    // ST-Match-Fun-Var-Conflict (m ≠ n)
                    self.backtrack();
                    return RuleName::MatchFunVarConflict;
                }
                match self.phi.get(*fv) {
                    // ST-Match-Fun-Var-Bind
                    None => {
                        self.phi.bind(*fv, g);
                        self.coverage.push(t);
                        for (&pi, &ti) in pargs.iter().zip(targs.iter()).rev() {
                            self.kont.push(Action::Match(pi, ti));
                        }
                        RuleName::MatchFunVarBind
                    }
                    // ST-Match-Fun-Var-Bound
                    Some(f) if f == g => {
                        self.coverage.push(t);
                        for (&pi, &ti) in pargs.iter().zip(targs.iter()).rev() {
                            self.kont.push(Action::Match(pi, ti));
                        }
                        RuleName::MatchFunVarBound
                    }
                    // ST-Match-Fun-Var-Conflict (φ(F) ↦ g ∧ f ≠ g)
                    Some(_) => {
                        self.backtrack();
                        RuleName::MatchFunVarConflict
                    }
                }
            }
            &Pattern::Alt(p1, p2) => {
                // ST-Match-Alt: push (θ, φ, match(p′,t)::k) and try p.
                let mut saved_kont = self.kont.clone();
                saved_kont.push(Action::Match(p2, t));
                self.stack.push(Frame {
                    theta: self.theta.clone(),
                    phi: self.phi.clone(),
                    kont: saved_kont,
                    coverage_mark: self.coverage.len(),
                });
                self.kont.push(Action::Match(p1, t));
                RuleName::MatchAlt
            }
            &Pattern::Guard(inner, _) => {
                // ST-Match-Guard: match(p;guard(g),t)::k ↦
                //                 match(p,t)::guard(g)::k
                self.kont.push(Action::Guard(p));
                self.kont.push(Action::Match(inner, t));
                RuleName::MatchGuard
            }
            &Pattern::Exists(x, inner) => {
                // ST-Match-Exists: k′ = checkName(x)::k; push match(p,t).
                self.kont.push(Action::CheckName(x));
                self.kont.push(Action::Match(inner, t));
                RuleName::MatchExists
            }
            &Pattern::MatchConstr {
                main,
                constraint,
                var,
            } => {
                // ST-Match-MatchConstr: k′ = matchConstr(p′,x)::k.
                self.kont.push(Action::MatchConstr(constraint, var));
                self.kont.push(Action::Match(main, t));
                RuleName::MatchMatchConstr
            }
            Pattern::Mu { .. } => {
                // ST-Match-Mu: unfold one step and rematch.
                self.stats.mu_unfolds += 1;
                let unfolded = self.pats.unfold_mu(p);
                self.kont.push(Action::Match(unfolded, t));
                RuleName::MatchMu
            }
            Pattern::Call(name, _) => {
                // A bare call can only appear if a pattern was run without
                // validation; it has no enclosing μ to unfold, so no rule
                // of Figs. 17–18 applies. Treat as a conflict (the
                // totality-preserving reading).
                debug_assert!(
                    false,
                    "unvalidated pattern: bare recursive call {name:?} reached the machine"
                );
                self.backtrack();
                RuleName::MatchFunConflict
            }
        }
    }
}

impl PatternStore {
    /// Test helper: a constant pattern `c` for a nullary operator.
    #[doc(hidden)]
    pub fn app0_like(&mut self, c: crate::symbol::Symbol) -> PatternId {
        self.app(c, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{NoAttrs, StructuralAttrInterp};
    use crate::guard::Expr;
    use crate::symbol::SymbolTable;

    const FUEL: u64 = 100_000;

    struct Fixture {
        syms: SymbolTable,
        terms: TermStore,
        pats: PatternStore,
    }

    fn fixture() -> Fixture {
        Fixture {
            syms: SymbolTable::new(),
            terms: TermStore::new(),
            pats: PatternStore::new(),
        }
    }

    fn run(fx: &mut Fixture, p: PatternId, t: TermId) -> Outcome {
        Machine::new(&mut fx.pats, &fx.terms, &NoAttrs)
            .run(p, t, FUEL)
            .unwrap()
    }

    #[test]
    fn var_binds_whole_term() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let f = fx.syms.op("f", 1);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(f, vec![tc]);
        let p = fx.pats.var(x);
        let w = run(&mut fx, p, t);
        assert_eq!(w.witness().unwrap().theta.get(x), Some(t));
    }

    #[test]
    fn fun_match_decomposes() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let d = fx.syms.op("d", 0);
        let f = fx.syms.op("f", 2);
        let x = fx.syms.var("x");
        let y = fx.syms.var("y");
        let tc = fx.terms.app0(c);
        let td = fx.terms.app0(d);
        let t = fx.terms.app(f, vec![tc, td]);
        let px = fx.pats.var(x);
        let py = fx.pats.var(y);
        let p = fx.pats.app(f, vec![px, py]);
        let out = run(&mut fx, p, t);
        let w = out.witness().unwrap();
        assert_eq!(w.theta.get(x), Some(tc));
        assert_eq!(w.theta.get(y), Some(td));
    }

    #[test]
    fn head_mismatch_fails() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let f = fx.syms.op("f", 1);
        let g = fx.syms.op("g", 1);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(g, vec![tc]);
        let px = fx.pats.var(x);
        let p = fx.pats.app(f, vec![px]);
        assert_eq!(run(&mut fx, p, t), Outcome::Failure);
    }

    #[test]
    fn nonlinear_pattern_requires_equal_subterms() {
        // MatMul(x, x) matches MatMul(c, c) but not MatMul(c, d) (§1).
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let d = fx.syms.op("d", 0);
        let mm = fx.syms.op("MatMul", 2);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let td = fx.terms.app0(d);
        let t_eq = fx.terms.app(mm, vec![tc, tc]);
        let t_ne = fx.terms.app(mm, vec![tc, td]);
        let px = fx.pats.var(x);
        let p = fx.pats.app(mm, vec![px, px]);
        assert!(run(&mut fx, p, t_eq).witness().is_some());
        assert_eq!(run(&mut fx, p, t_ne), Outcome::Failure);
    }

    #[test]
    fn alternate_takes_left_branch_first() {
        // §3.1.2: matching f(c₁,c₂) against f(x,y)‖f(y,x) yields
        // {x↦c₁, y↦c₂}, never the flipped substitution.
        let mut fx = fixture();
        let c1 = fx.syms.op("c1", 0);
        let c2 = fx.syms.op("c2", 0);
        let f = fx.syms.op("f", 2);
        let x = fx.syms.var("x");
        let y = fx.syms.var("y");
        let t1 = fx.terms.app0(c1);
        let t2 = fx.terms.app0(c2);
        let t = fx.terms.app(f, vec![t1, t2]);
        let px = fx.pats.var(x);
        let py = fx.pats.var(y);
        let left = fx.pats.app(f, vec![px, py]);
        let right = fx.pats.app(f, vec![py, px]);
        let p = fx.pats.alt(left, right);
        let out = run(&mut fx, p, t);
        let w = out.witness().unwrap();
        assert_eq!(w.theta.get(x), Some(t1));
        assert_eq!(w.theta.get(y), Some(t2));
    }

    #[test]
    fn alternate_backtracks_to_right_branch() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let f = fx.syms.op("f", 1);
        let g = fx.syms.op("g", 1);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(g, vec![tc]);
        let px = fx.pats.var(x);
        let pf = fx.pats.app(f, vec![px]);
        let pg = fx.pats.app(g, vec![px]);
        let p = fx.pats.alt(pf, pg);

        let mut m = Machine::new(&mut fx.pats, &fx.terms, &NoAttrs).with_trace();
        let out = m.run(p, t, FUEL).unwrap();
        assert_eq!(out.witness().unwrap().theta.get(x), Some(tc));
        let trace = m.trace().unwrap();
        assert!(trace.contains(&RuleName::MatchAlt));
        assert!(trace.contains(&RuleName::MatchFunConflict));
        assert!(m.stats().backtracks >= 1);
    }

    #[test]
    fn backtracking_discards_partial_bindings() {
        // (f(x, d) ‖ f(c, x)) against f(c, c): the left alternate binds
        // x↦c then conflicts on d vs c; the right alternate must see a θ
        // *without* that binding and bind x↦c afresh.
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let d = fx.syms.op("d", 0);
        let f = fx.syms.op("f", 2);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(f, vec![tc, tc]);
        let px = fx.pats.var(x);
        let pc = fx.pats.app0_like(c);
        let pd = fx.pats.app0_like(d);
        let left = fx.pats.app(f, vec![px, pd]);
        let right = fx.pats.app(f, vec![pc, px]);
        let p = fx.pats.alt(left, right);
        let out = run(&mut fx, p, t);
        let w = out.witness().unwrap();
        assert_eq!(w.theta.get(x), Some(tc));
    }

    #[test]
    fn guard_filters_matches() {
        let mut fx = fixture();
        let interp = StructuralAttrInterp::new(&mut fx.syms);
        let c = fx.syms.op("c", 0);
        let g = fx.syms.op("g", 1);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let tg = fx.terms.app(g, vec![tc]);
        let px = fx.pats.var(x);
        let want2 = fx.pats.guarded(
            px,
            Expr::var_attr(x, interp.height_attr()).eq(Expr::Const(2)),
        );

        let out = Machine::new(&mut fx.pats, &fx.terms, &interp)
            .run(want2, tg, FUEL)
            .unwrap();
        assert!(out.witness().is_some());

        let out = Machine::new(&mut fx.pats, &fx.terms, &interp)
            .run(want2, tc, FUEL)
            .unwrap();
        assert_eq!(out, Outcome::Failure);
    }

    #[test]
    fn guard_failure_backtracks_into_other_alternate() {
        // (x where height = 1) ‖ g(x): on g(c) the guard fails, the
        // machine must recover via the alternate.
        let mut fx = fixture();
        let interp = StructuralAttrInterp::new(&mut fx.syms);
        let c = fx.syms.op("c", 0);
        let g = fx.syms.op("g", 1);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let tg = fx.terms.app(g, vec![tc]);
        let px = fx.pats.var(x);
        let flat = fx.pats.guarded(
            px,
            Expr::var_attr(x, interp.height_attr()).eq(Expr::Const(1)),
        );
        let under_g = fx.pats.app(g, vec![px]);
        let p = fx.pats.alt(flat, under_g);
        let out = Machine::new(&mut fx.pats, &fx.terms, &interp)
            .run(p, tg, FUEL)
            .unwrap();
        assert_eq!(out.witness().unwrap().theta.get(x), Some(tc));
    }

    #[test]
    fn exists_and_match_constraint_bind_root() {
        // Figure 4 shape: ∃y. (x ; (g(y) ≈ x)) — x is bound to the root,
        // y to the child.
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let g = fx.syms.op("g", 1);
        let x = fx.syms.var("x");
        let y = fx.syms.var("y");
        let tc = fx.terms.app0(c);
        let tg = fx.terms.app(g, vec![tc]);
        let px = fx.pats.var(x);
        let py = fx.pats.var(y);
        let gy = fx.pats.app(g, vec![py]);
        let constrained = fx.pats.match_constr(px, gy, x);
        let p = fx.pats.exists(y, constrained);
        let out = run(&mut fx, p, tg);
        let w = out.witness().unwrap();
        assert_eq!(w.theta.get(x), Some(tg));
        assert_eq!(w.theta.get(y), Some(tc));
    }

    #[test]
    fn match_constraint_failure_fails_overall() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let g = fx.syms.op("g", 1);
        let h = fx.syms.op("h", 1);
        let x = fx.syms.var("x");
        let y = fx.syms.var("y");
        let tc = fx.terms.app0(c);
        let th = fx.terms.app(h, vec![tc]);
        let px = fx.pats.var(x);
        let py = fx.pats.var(y);
        let gy = fx.pats.app(g, vec![py]);
        let constrained = fx.pats.match_constr(px, gy, x);
        let p = fx.pats.exists(y, constrained);
        assert_eq!(run(&mut fx, p, th), Outcome::Failure);
    }

    #[test]
    fn function_variable_binds_symbol() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let relu = fx.syms.op("Relu", 1);
        let x = fx.syms.var("x");
        let fv = fx.syms.fun_var("F");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(relu, vec![tc]);
        let px = fx.pats.var(x);
        let p = fx.pats.fun_app(fv, vec![px]);
        let out = run(&mut fx, p, t);
        let w = out.witness().unwrap();
        assert_eq!(w.phi.get(fv), Some(relu));
        assert_eq!(w.theta.get(x), Some(tc));
    }

    #[test]
    fn function_variable_is_nonlinear() {
        // F(F(x)) matches Relu(Relu(c)) but not Relu(Gelu(c)) (§3.4).
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let relu = fx.syms.op("Relu", 1);
        let gelu = fx.syms.op("Gelu", 1);
        let x = fx.syms.var("x");
        let fv = fx.syms.fun_var("F");
        let tc = fx.terms.app0(c);
        let rr = {
            let inner = fx.terms.app(relu, vec![tc]);
            fx.terms.app(relu, vec![inner])
        };
        let rg = {
            let inner = fx.terms.app(gelu, vec![tc]);
            fx.terms.app(relu, vec![inner])
        };
        let px = fx.pats.var(x);
        let inner = fx.pats.fun_app(fv, vec![px]);
        let p = fx.pats.fun_app(fv, vec![inner]);
        assert!(run(&mut fx, p, rr).witness().is_some());
        assert_eq!(run(&mut fx, p, rg), Outcome::Failure);
    }

    #[test]
    fn function_variable_arity_conflict() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let add = fx.syms.op("Add", 2);
        let x = fx.syms.var("x");
        let fv = fx.syms.fun_var("F");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(add, vec![tc, tc]);
        let px = fx.pats.var(x);
        let p = fx.pats.fun_app(fv, vec![px]); // unary F vs binary Add
        assert_eq!(run(&mut fx, p, t), Outcome::Failure);
    }

    #[test]
    fn unary_chain_recursive_pattern() {
        // Figure 3: UnaryChain(x, f) = f(UnaryChain(x, f)) ‖ f(x),
        // encoded as μU(x)[x]. (F(U(x)) ‖ F(x)).
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let relu = fx.syms.op("Relu", 1);
        let x = fx.syms.var("x");
        let fv = fx.syms.fun_var("F");
        let un = fx.syms.pat_name("UnaryChain");

        let tc = fx.terms.app0(c);
        let mut tower = tc;
        for _ in 0..5 {
            tower = fx.terms.app(relu, vec![tower]);
        }

        let px = fx.pats.var(x);
        let call = fx.pats.call(un, vec![x]);
        let rec = fx.pats.fun_app(fv, vec![call]);
        let base = fx.pats.fun_app(fv, vec![px]);
        let body = fx.pats.alt(rec, base);
        let p = fx.pats.mu(un, vec![x], vec![x], body);

        let out = run(&mut fx, p, tower);
        let w = out.witness().unwrap();
        // Deepest unfolding wins (left alternate preferred): x binds to
        // the innermost argument, i.e. the constant.
        assert_eq!(w.theta.get(x), Some(tc));
        assert_eq!(w.phi.get(fv), Some(relu));

        // A non-tower fails.
        assert_eq!(run(&mut fx, p, tc), Outcome::Failure);
    }

    #[test]
    fn nonterminating_recursion_exhausts_fuel() {
        // μP(x)[x]. P(x) unfolds forever (§3.5).
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let x = fx.syms.var("x");
        let pn = fx.syms.pat_name("Loop");
        let tc = fx.terms.app0(c);
        let call = fx.pats.call(pn, vec![x]);
        let p = fx.pats.mu(pn, vec![x], vec![x], call);
        let err = Machine::new(&mut fx.pats, &fx.terms, &NoAttrs)
            .run(p, tc, 10_000)
            .unwrap_err();
        assert!(matches!(err, MachineError::OutOfFuel { .. }));
    }

    #[test]
    fn trace_matches_hand_derivation() {
        // match(f(x), f(c)):
        //   ST-Match-Fun, ST-Match-Var-Bind, ST-Success.
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let f = fx.syms.op("f", 1);
        let x = fx.syms.var("x");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(f, vec![tc]);
        let px = fx.pats.var(x);
        let p = fx.pats.app(f, vec![px]);
        let mut m = Machine::new(&mut fx.pats, &fx.terms, &NoAttrs).with_trace();
        m.run(p, t, FUEL).unwrap();
        assert_eq!(
            m.trace().unwrap(),
            &[
                RuleName::MatchFun,
                RuleName::MatchVarBind,
                RuleName::Success
            ]
        );
    }

    #[test]
    fn stats_count_steps_and_depth() {
        let mut fx = fixture();
        let c = fx.syms.op("c", 0);
        let f = fx.syms.op("f", 2);
        let x = fx.syms.var("x");
        let y = fx.syms.var("y");
        let tc = fx.terms.app0(c);
        let t = fx.terms.app(f, vec![tc, tc]);
        let px = fx.pats.var(x);
        let py = fx.pats.var(y);
        let p = fx.pats.app(f, vec![px, py]);
        let mut m = Machine::new(&mut fx.pats, &fx.terms, &NoAttrs);
        m.run(p, t, FUEL).unwrap();
        let st = m.stats();
        assert_eq!(st.steps, 4); // Fun, Bind, Bind, Success
        assert_eq!(st.backtracks, 0);
        assert_eq!(st.max_kont_depth, 2);
    }
}
