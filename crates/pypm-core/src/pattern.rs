//! Patterns of the full calculus (paper Fig. 15) and μ-unfolding.
//!
//! ```text
//! p ::= x                         pattern variable
//!     | f(p₁, …, pₙ)              operator application (arity f = n)
//!     | p ‖ p′                    pattern alternate (§2.1, §3.1)
//!     | p ; guard(g)              guarded pattern (§3.2)
//!     | ∃x. p                     existential / local variable (§3.3)
//!     | p ; (p′ ≈ x)              match constraint (§3.3)
//!     | F(p₁, …, pₙ)              function-variable application (§3.4)
//!     | μP(x₁,…,xₙ)[y₁,…,yₙ]. p   recursive pattern (§3.5)
//!     | P(y₁, …, yₙ)              recursive pattern call
//! ```
//!
//! Patterns are hash-consed inside a [`PatternStore`]; μ-unfolding
//! (`unfold_mu`, rule `P-Mu` / `ST-Match-Mu`) therefore memoizes the
//! repeatedly generated unfoldings of recursive patterns for free. The
//! fused discrimination tree over a list of patterns
//! ([`PatternStore::fused`]) is the same kind of pure function of
//! hash-consed patterns, and is memoized beside the unfoldings.
//!
//! A store is copy-on-write: its contents sit behind one `Arc`, so a
//! clone is a reference count, and the first write to a shared store —
//! a new pattern, a new unfolding, a new trie — copies it once. A
//! library loaded into a template session and cloned per compile is
//! shared by every clone until one of them interns something.

use crate::fused::FusedSet;
use crate::guard::Guard;
use crate::idhash::{IdMap, IdSet};
use crate::symbol::{FunVar, PatName, Symbol, SymbolTable, Var};
use crate::term::TermStore;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A hash-consed pattern. Equal ids ⇔ structurally equal patterns.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(u32);

impl PatternId {
    /// Raw index into the owning [`PatternStore`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One pattern constructor (see the module grammar).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// `x`.
    Var(Var),
    /// `f(p₁, …, pₙ)`.
    App(Symbol, Vec<PatternId>),
    /// `F(p₁, …, pₙ)`.
    FunApp(FunVar, Vec<PatternId>),
    /// `p ‖ p′`.
    Alt(PatternId, PatternId),
    /// `p ; guard(g)`.
    Guard(PatternId, Guard),
    /// `∃x. p`.
    Exists(Var, PatternId),
    /// `p ; (p′ ≈ x)`: match `p`, then require `θ(x)` to match `p′`.
    MatchConstr {
        /// The main pattern `p`.
        main: PatternId,
        /// The constraint pattern `p′`.
        constraint: PatternId,
        /// The constrained variable `x`.
        var: Var,
    },
    /// `μP(params…)[args…]. body`.
    Mu {
        /// The recursion name `P`.
        name: PatName,
        /// Formal parameters `x₁,…,xₙ`.
        params: Vec<Var>,
        /// Actual arguments `y₁,…,yₙ`.
        args: Vec<Var>,
        /// The body `p`, in which `P(z…)` may occur.
        body: PatternId,
    },
    /// `P(y₁, …, yₙ)` — only meaningful inside the body of a matching `μP`.
    Call(PatName, Vec<Var>),
}

/// Arena of hash-consed patterns.
///
/// # Examples
///
/// ```
/// use pypm_core::{Pattern, PatternStore, SymbolTable};
///
/// let mut syms = SymbolTable::new();
/// let trans = syms.op("Trans", 1);
/// let matmul = syms.op("MatMul", 2);
/// let x = syms.var("x");
/// let y = syms.var("y");
///
/// let mut pats = PatternStore::new();
/// let px = pats.var(x);
/// let py = pats.var(y);
/// let yt = pats.app(trans, vec![py]);
/// let mmxyt = pats.app(matmul, vec![px, yt]);
/// assert_eq!(pats.display(&syms, mmxyt), "MatMul(x, Trans(y))");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternStore {
    /// Shared until written (see the module docs).
    inner: Arc<Patterns>,
}

/// What a [`PatternStore`] holds.
#[derive(Debug, Clone, Default)]
struct Patterns {
    nodes: Vec<Pattern>,
    dedup: HashMap<Pattern, PatternId>,
    /// Memoized μ-unfoldings.
    unfold_cache: IdMap<PatternId, PatternId>,
    /// Memoized tries, by the pattern list they were built over.
    fused: IdMap<Box<[PatternId]>, Arc<FusedSet>>,
}

impl PatternStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a pattern node.
    pub fn intern(&mut self, p: Pattern) -> PatternId {
        if let Some(&id) = self.inner.dedup.get(&p) {
            return id;
        }
        let inner = Arc::make_mut(&mut self.inner);
        let id = PatternId(inner.nodes.len() as u32);
        inner.dedup.insert(p.clone(), id);
        inner.nodes.push(p);
        id
    }

    /// The node behind an id.
    pub fn get(&self, id: PatternId) -> &Pattern {
        &self.inner.nodes[id.index()]
    }

    /// Total number of distinct patterns interned.
    pub fn len(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.nodes.is_empty()
    }

    /// The fused discrimination tree over `patterns` (in order; see
    /// [`FusedSet::build`]), built on the first request for that list
    /// and shared from then on. Patterns are hash-consed and never
    /// change, so a memoized tree never goes stale; a store that was
    /// asked before it was cloned answers every clone from the same
    /// tree.
    pub fn fused(&mut self, patterns: &[PatternId]) -> Arc<FusedSet> {
        if let Some(set) = self.inner.fused.get(patterns) {
            return Arc::clone(set);
        }
        let set = Arc::new(FusedSet::build(self, patterns));
        Arc::make_mut(&mut self.inner)
            .fused
            .insert(patterns.into(), Arc::clone(&set));
        set
    }

    // --- convenience constructors ------------------------------------

    /// `x`.
    pub fn var(&mut self, x: Var) -> PatternId {
        self.intern(Pattern::Var(x))
    }

    /// `f(args…)`.
    pub fn app(&mut self, f: Symbol, args: Vec<PatternId>) -> PatternId {
        self.intern(Pattern::App(f, args))
    }

    /// `F(args…)`.
    pub fn fun_app(&mut self, fv: FunVar, args: Vec<PatternId>) -> PatternId {
        self.intern(Pattern::FunApp(fv, args))
    }

    /// `p ‖ p′`.
    pub fn alt(&mut self, p: PatternId, q: PatternId) -> PatternId {
        self.intern(Pattern::Alt(p, q))
    }

    /// Folds a non-empty list into right-nested alternates
    /// `p₁ ‖ (p₂ ‖ (… ‖ pₙ))`, matching PyPM's in-file-order alternate
    /// semantics (§2.1).
    ///
    /// # Panics
    ///
    /// Panics if `ps` is empty.
    pub fn alts(&mut self, ps: &[PatternId]) -> PatternId {
        let (&last, init) = ps.split_last().expect("alts of empty list");
        init.iter().rev().fold(last, |acc, &p| self.alt(p, acc))
    }

    /// `p ; guard(g)`.
    pub fn guarded(&mut self, p: PatternId, g: Guard) -> PatternId {
        self.intern(Pattern::Guard(p, g))
    }

    /// `∃x. p`.
    pub fn exists(&mut self, x: Var, p: PatternId) -> PatternId {
        self.intern(Pattern::Exists(x, p))
    }

    /// `p ; (p′ ≈ x)`.
    pub fn match_constr(&mut self, main: PatternId, constraint: PatternId, var: Var) -> PatternId {
        self.intern(Pattern::MatchConstr {
            main,
            constraint,
            var,
        })
    }

    /// `μname(params…)[args…]. body`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != args.len()`.
    pub fn mu(
        &mut self,
        name: PatName,
        params: Vec<Var>,
        args: Vec<Var>,
        body: PatternId,
    ) -> PatternId {
        assert_eq!(
            params.len(),
            args.len(),
            "μ{:?} takes {} parameters but was given {} arguments",
            name,
            params.len(),
            args.len()
        );
        self.intern(Pattern::Mu {
            name,
            params,
            args,
            body,
        })
    }

    /// `P(args…)`.
    pub fn call(&mut self, name: PatName, args: Vec<Var>) -> PatternId {
        self.intern(Pattern::Call(name, args))
    }

    // --- μ-unfolding ---------------------------------------------------

    /// One-step unfolding of a recursive pattern (rules `P-Mu` and
    /// `ST-Match-Mu`):
    ///
    /// ```text
    /// unfold(μP(x…)[y…].p)  =  p[μP(x…).p / P][yᵢ / xᵢ]
    /// ```
    ///
    /// Occurrences of `P(z…)` in the body become `μP(x…)[z′…].p` where `z′`
    /// are the call arguments after the `[yᵢ/xᵢ]` renaming. Inner binders
    /// (`∃`, nested `μ` parameters) shadow the renaming; nested `μ` with the
    /// same name shadow the `P`-substitution.
    ///
    /// Results are memoized, so repeatedly unfolding the same recursive
    /// pattern (the common case in fixpoint rewriting) is cheap.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is not a `Pattern::Mu`.
    pub fn unfold_mu(&mut self, mu: PatternId) -> PatternId {
        if let Some(&cached) = self.inner.unfold_cache.get(&mu) {
            return cached;
        }
        let (name, params, args, body) = match self.get(mu).clone() {
            Pattern::Mu {
                name,
                params,
                args,
                body,
            } => (name, params, args, body),
            other => panic!("unfold_mu on non-μ pattern {other:?}"),
        };
        let ren: HashMap<Var, Var> = params.iter().copied().zip(args.iter().copied()).collect();
        let result = self.substitute(body, Some((name, &params, body)), &ren);
        Arc::make_mut(&mut self.inner)
            .unfold_cache
            .insert(mu, result);
        result
    }

    /// Applies the variable renaming `ren` to `p` and, given `mu =
    /// Some((P, params, body))`, the substitution `[μP(params).body / P]`
    /// simultaneously: μ-unfolding passes both, [`Self::rename_vars`]
    /// only the renaming. Inner binders (`∃`, μ parameters) shadow the
    /// renaming; a nested μ named `P` shadows the `P`-substitution. A
    /// plain renaming that is empty leaves `p` as it is.
    fn substitute(
        &mut self,
        p: PatternId,
        mu: Option<(PatName, &[Var], PatternId)>,
        ren: &HashMap<Var, Var>,
    ) -> PatternId {
        if mu.is_none() && ren.is_empty() {
            return p;
        }
        let rename = |x: Var| ren.get(&x).copied().unwrap_or(x);
        match self.get(p).clone() {
            Pattern::Var(x) => self.var(rename(x)),
            Pattern::App(f, args) => {
                let args = args
                    .into_iter()
                    .map(|a| self.substitute(a, mu, ren))
                    .collect();
                self.app(f, args)
            }
            Pattern::FunApp(fv, args) => {
                let args = args
                    .into_iter()
                    .map(|a| self.substitute(a, mu, ren))
                    .collect();
                self.fun_app(fv, args)
            }
            Pattern::Alt(l, r) => {
                let l = self.substitute(l, mu, ren);
                let r = self.substitute(r, mu, ren);
                self.alt(l, r)
            }
            Pattern::Guard(inner, g) => {
                let inner = self.substitute(inner, mu, ren);
                let g = g.rename(&rename);
                self.guarded(inner, g)
            }
            Pattern::Exists(x, inner) => {
                // ∃x shadows any renaming of x.
                let mut ren2 = ren.clone();
                ren2.remove(&x);
                let inner = self.substitute(inner, mu, &ren2);
                self.exists(x, inner)
            }
            Pattern::MatchConstr {
                main,
                constraint,
                var,
            } => {
                let main = self.substitute(main, mu, ren);
                let constraint = self.substitute(constraint, mu, ren);
                self.match_constr(main, constraint, rename(var))
            }
            Pattern::Mu {
                name,
                params,
                args,
                body,
            } => {
                // Call arguments are free occurrences: rename them.
                let args: Vec<Var> = args.into_iter().map(rename).collect();
                // Parameters shadow the renaming inside the nested body; a
                // nested μ with the same name also shadows the
                // P-substitution.
                let mut ren2 = ren.clone();
                for prm in &params {
                    ren2.remove(prm);
                }
                let mu = mu.filter(|&(outer, _, _)| outer != name);
                let body = self.substitute(body, mu, &ren2);
                self.mu(name, params, args, body)
            }
            Pattern::Call(name, call_args) => {
                let call_args: Vec<Var> = call_args.into_iter().map(rename).collect();
                match mu {
                    // P(z…) ↦ μP(params)[z…].body
                    Some((outer, params, body)) if outer == name => {
                        self.mu(name, params.to_vec(), call_args, body)
                    }
                    _ => self.call(name, call_args),
                }
            }
        }
    }

    /// Applies a capture-avoiding variable renaming to a pattern.
    ///
    /// Inner binders (`∃`, μ parameters) shadow the renaming. Used by
    /// μ-unfolding and by the DSL frontend when inlining one pattern
    /// definition into another (e.g. `Gelu` using `Half`, paper Fig. 2).
    pub fn rename_vars(&mut self, p: PatternId, ren: &HashMap<Var, Var>) -> PatternId {
        self.substitute(p, None, ren)
    }

    // --- analysis ------------------------------------------------------

    /// Free pattern variables of `p` (deduplicated, first-occurrence order).
    ///
    /// `∃x` binds `x`; μ-parameters bind inside the μ body; μ *arguments*
    /// and call arguments are free occurrences.
    pub fn free_vars(&self, p: PatternId) -> Vec<Var> {
        let mut out = Vec::new();
        let mut bound = Vec::new();
        self.free_vars_into(p, &mut bound, &mut out);
        let mut seen = IdSet::default();
        out.retain(|x| seen.insert(*x));
        out
    }

    fn free_vars_into(&self, p: PatternId, bound: &mut Vec<Var>, out: &mut Vec<Var>) {
        match self.get(p) {
            Pattern::Var(x) => {
                if !bound.contains(x) {
                    out.push(*x);
                }
            }
            Pattern::App(_, args) | Pattern::FunApp(_, args) => {
                for &a in args {
                    self.free_vars_into(a, bound, out);
                }
            }
            Pattern::Alt(l, r) => {
                self.free_vars_into(*l, bound, out);
                self.free_vars_into(*r, bound, out);
            }
            Pattern::Guard(inner, g) => {
                self.free_vars_into(*inner, bound, out);
                let mut gv = Vec::new();
                g.free_vars(&mut gv);
                for x in gv {
                    if !bound.contains(&x) {
                        out.push(x);
                    }
                }
            }
            Pattern::Exists(x, inner) => {
                bound.push(*x);
                self.free_vars_into(*inner, bound, out);
                bound.pop();
            }
            Pattern::MatchConstr {
                main,
                constraint,
                var,
            } => {
                self.free_vars_into(*main, bound, out);
                self.free_vars_into(*constraint, bound, out);
                if !bound.contains(var) {
                    out.push(*var);
                }
            }
            Pattern::Mu {
                params, args, body, ..
            } => {
                for &y in args {
                    if !bound.contains(&y) {
                        out.push(y);
                    }
                }
                let depth = bound.len();
                bound.extend(params.iter().copied());
                self.free_vars_into(*body, bound, out);
                bound.truncate(depth);
            }
            Pattern::Call(_, args) => {
                for &y in args {
                    if !bound.contains(&y) {
                        out.push(y);
                    }
                }
            }
        }
    }

    /// Function variables occurring in `p` (deduplicated).
    pub fn fun_vars(&self, p: PatternId) -> Vec<FunVar> {
        let mut out = Vec::new();
        self.fun_vars_into(p, &mut out);
        let mut seen = IdSet::default();
        out.retain(|x| seen.insert(*x));
        out
    }

    fn fun_vars_into(&self, p: PatternId, out: &mut Vec<FunVar>) {
        match self.get(p) {
            Pattern::Var(_) | Pattern::Call(..) => {}
            Pattern::App(_, args) => {
                for &a in args {
                    self.fun_vars_into(a, out);
                }
            }
            Pattern::FunApp(fv, args) => {
                out.push(*fv);
                for &a in args {
                    self.fun_vars_into(a, out);
                }
            }
            Pattern::Alt(l, r) => {
                self.fun_vars_into(*l, out);
                self.fun_vars_into(*r, out);
            }
            Pattern::Guard(inner, _) | Pattern::Exists(_, inner) => self.fun_vars_into(*inner, out),
            Pattern::MatchConstr {
                main, constraint, ..
            } => {
                self.fun_vars_into(*main, out);
                self.fun_vars_into(*constraint, out);
            }
            Pattern::Mu { body, .. } => self.fun_vars_into(*body, out),
        }
    }

    /// Validates a pattern for use by the matcher.
    ///
    /// Checks, for the whole subpattern tree:
    ///
    /// * every `f(p…)` is saturated (`arity f` arguments);
    /// * every recursive call `P(z…)` occurs inside a `μP` with the same
    ///   parameter count;
    /// * every `∃x. p` binds a variable that occurs *in a binding position*
    ///   (a `Pattern::Var` leaf) inside `p` — otherwise the machine's
    ///   `checkName(x)` obligation could never be discharged;
    /// * μ parameter/argument lists have equal lengths (enforced on
    ///   construction, revalidated here for deserialized patterns).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, syms: &SymbolTable, p: PatternId) -> Result<(), PatternError> {
        let mut mus: Vec<(PatName, usize)> = Vec::new();
        self.validate_rec(syms, p, &mut mus)
    }

    fn validate_rec(
        &self,
        syms: &SymbolTable,
        p: PatternId,
        mus: &mut Vec<(PatName, usize)>,
    ) -> Result<(), PatternError> {
        match self.get(p) {
            Pattern::Var(_) => Ok(()),
            Pattern::App(f, args) => {
                if syms.arity(*f) != args.len() {
                    return Err(PatternError::Unsaturated {
                        op: syms.op_name(*f).to_owned(),
                        expected: syms.arity(*f),
                        got: args.len(),
                    });
                }
                for &a in args {
                    self.validate_rec(syms, a, mus)?;
                }
                Ok(())
            }
            Pattern::FunApp(_, args) => {
                for &a in args {
                    self.validate_rec(syms, a, mus)?;
                }
                Ok(())
            }
            Pattern::Alt(l, r) => {
                self.validate_rec(syms, *l, mus)?;
                self.validate_rec(syms, *r, mus)
            }
            Pattern::Guard(inner, _) => self.validate_rec(syms, *inner, mus),
            Pattern::Exists(x, inner) => {
                if !self.binds_var(*inner, *x) {
                    return Err(PatternError::UnusedExistential {
                        var: syms.var_name(*x).to_owned(),
                    });
                }
                self.validate_rec(syms, *inner, mus)
            }
            Pattern::MatchConstr {
                main, constraint, ..
            } => {
                self.validate_rec(syms, *main, mus)?;
                self.validate_rec(syms, *constraint, mus)
            }
            Pattern::Mu {
                name,
                params,
                args,
                body,
            } => {
                if params.len() != args.len() {
                    return Err(PatternError::MuArityMismatch {
                        name: syms.pat_name_text(*name).to_owned(),
                        params: params.len(),
                        args: args.len(),
                    });
                }
                mus.push((*name, params.len()));
                let r = self.validate_rec(syms, *body, mus);
                mus.pop();
                r
            }
            Pattern::Call(name, args) => match mus.iter().rev().find(|(n, _)| n == name) {
                None => Err(PatternError::UnboundCall {
                    name: syms.pat_name_text(*name).to_owned(),
                }),
                Some((_, n)) if *n != args.len() => Err(PatternError::MuArityMismatch {
                    name: syms.pat_name_text(*name).to_owned(),
                    params: *n,
                    args: args.len(),
                }),
                Some(_) => Ok(()),
            },
        }
    }

    /// Whether `x` occurs as a `Pattern::Var` leaf anywhere in `p`
    /// (ignoring shadowing — used by the ∃-wellformedness check).
    fn binds_var(&self, p: PatternId, x: Var) -> bool {
        match self.get(p) {
            Pattern::Var(y) => *y == x,
            Pattern::App(_, args) | Pattern::FunApp(_, args) => {
                args.iter().any(|&a| self.binds_var(a, x))
            }
            Pattern::Alt(l, r) => self.binds_var(*l, x) || self.binds_var(*r, x),
            Pattern::Guard(inner, _) => self.binds_var(*inner, x),
            Pattern::Exists(y, inner) => *y != x && self.binds_var(*inner, x),
            Pattern::MatchConstr {
                main, constraint, ..
            } => self.binds_var(*main, x) || self.binds_var(*constraint, x),
            // A μ whose argument list mentions x will bind it when unfolded
            // if the corresponding parameter is bound in the body. We
            // approximate: argument mention counts as binding.
            Pattern::Mu { args, .. } => args.contains(&x),
            Pattern::Call(_, args) => args.contains(&x),
        }
    }

    /// Pretty-prints `p` using names from `syms`.
    pub fn display(&self, syms: &SymbolTable, p: PatternId) -> String {
        let mut s = String::new();
        self.write(syms, p, &mut s);
        s
    }

    fn write(&self, syms: &SymbolTable, p: PatternId, out: &mut String) {
        match self.get(p) {
            Pattern::Var(x) => out.push_str(syms.var_name(*x)),
            Pattern::App(f, args) => {
                out.push_str(syms.op_name(*f));
                if !args.is_empty() {
                    out.push('(');
                    for (i, &a) in args.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        self.write(syms, a, out);
                    }
                    out.push(')');
                }
            }
            Pattern::FunApp(fv, args) => {
                out.push_str(syms.fun_var_name(*fv));
                out.push('(');
                for (i, &a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write(syms, a, out);
                }
                out.push(')');
            }
            Pattern::Alt(l, r) => {
                out.push('(');
                self.write(syms, *l, out);
                out.push_str(" | ");
                self.write(syms, *r, out);
                out.push(')');
            }
            Pattern::Guard(inner, g) => {
                out.push('(');
                self.write(syms, *inner, out);
                out.push_str(" where ");
                // Guards never mention concrete terms in printed patterns;
                // use an empty store for display.
                out.push_str(&g.display(syms, &TermStore::new()));
                out.push(')');
            }
            Pattern::Exists(x, inner) => {
                out.push_str("(exists ");
                out.push_str(syms.var_name(*x));
                out.push_str(". ");
                self.write(syms, *inner, out);
                out.push(')');
            }
            Pattern::MatchConstr {
                main,
                constraint,
                var,
            } => {
                out.push('(');
                self.write(syms, *main, out);
                out.push_str(" with ");
                out.push_str(syms.var_name(*var));
                out.push_str(" ~ ");
                self.write(syms, *constraint, out);
                out.push(')');
            }
            Pattern::Mu {
                name,
                params,
                args,
                body,
            } => {
                out.push_str("(mu ");
                out.push_str(syms.pat_name_text(*name));
                out.push('(');
                for (i, &x) in params.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(syms.var_name(x));
                }
                out.push_str(")[");
                for (i, &y) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(syms.var_name(y));
                }
                out.push_str("]. ");
                self.write(syms, *body, out);
                out.push(')');
            }
            Pattern::Call(name, args) => {
                out.push_str(syms.pat_name_text(*name));
                out.push('(');
                for (i, &y) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(syms.var_name(y));
                }
                out.push(')');
            }
        }
    }
}

/// A structural problem detected by [`PatternStore::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// `f(p…)` with the wrong number of arguments.
    Unsaturated {
        /// Operator name.
        op: String,
        /// Declared arity.
        expected: usize,
        /// Supplied argument count.
        got: usize,
    },
    /// A recursive call `P(…)` outside any enclosing `μP`.
    UnboundCall {
        /// The unbound recursion name.
        name: String,
    },
    /// μ parameter/argument lists of different length, or a call with the
    /// wrong argument count.
    MuArityMismatch {
        /// The recursion name.
        name: String,
        /// Parameter count of the definition.
        params: usize,
        /// Argument count supplied.
        args: usize,
    },
    /// `∃x.p` where `x` never occurs in a binding position in `p`, so
    /// matching could never discharge the `checkName(x)` obligation.
    UnusedExistential {
        /// The offending variable name.
        var: String,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Unsaturated { op, expected, got } => {
                write!(f, "operator {op} expects {expected} arguments, got {got}")
            }
            PatternError::UnboundCall { name } => {
                write!(f, "recursive call {name}(…) outside any μ{name}")
            }
            PatternError::MuArityMismatch { name, params, args } => {
                write!(f, "μ{name} has {params} parameters but {args} arguments")
            }
            PatternError::UnusedExistential { var } => {
                write!(
                    f,
                    "existential variable {var} never occurs in a binding position"
                )
            }
        }
    }
}

impl std::error::Error for PatternError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Expr;

    fn setup() -> (SymbolTable, PatternStore) {
        (SymbolTable::new(), PatternStore::new())
    }

    #[test]
    fn hash_consing_dedups_patterns() {
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let f = syms.op("f", 1);
        let p1 = {
            let v = pats.var(x);
            pats.app(f, vec![v])
        };
        let p2 = {
            let v = pats.var(x);
            pats.app(f, vec![v])
        };
        assert_eq!(p1, p2);
    }

    #[test]
    fn display_of_all_constructors() {
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let y = syms.var("y");
        let f = syms.op("f", 2);
        let fv = syms.fun_var("F");
        let rank = syms.attr("rank");
        let pn = syms.pat_name("P");

        let px = pats.var(x);
        let py = pats.var(y);
        let app = pats.app(f, vec![px, py]);
        assert_eq!(pats.display(&syms, app), "f(x, y)");

        let fapp = pats.fun_app(fv, vec![px]);
        assert_eq!(pats.display(&syms, fapp), "F(x)");

        let alt = pats.alt(px, py);
        assert_eq!(pats.display(&syms, alt), "(x | y)");

        let guarded = pats.guarded(px, Expr::var_attr(x, rank).eq(Expr::Const(2)));
        assert_eq!(pats.display(&syms, guarded), "(x where x.rank = 2)");

        let ex = pats.exists(y, app);
        assert_eq!(pats.display(&syms, ex), "(exists y. f(x, y))");

        let mc = pats.match_constr(px, py, x);
        assert_eq!(pats.display(&syms, mc), "(x with x ~ y)");

        let call = pats.call(pn, vec![y]);
        let mu = pats.mu(pn, vec![x], vec![y], call);
        assert_eq!(pats.display(&syms, mu), "(mu P(x)[y]. P(y))");
    }

    #[test]
    fn alts_fold_right() {
        let (mut syms, mut pats) = setup();
        let a = syms.var("a");
        let b = syms.var("b");
        let c = syms.var("c");
        let pa = pats.var(a);
        let pb = pats.var(b);
        let pc = pats.var(c);
        let p = pats.alts(&[pa, pb, pc]);
        assert_eq!(pats.display(&syms, p), "(a | (b | c))");
    }

    #[test]
    fn free_vars_respects_binders() {
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let y = syms.var("y");
        let f = syms.op("f", 2);
        let px = pats.var(x);
        let py = pats.var(y);
        let app = pats.app(f, vec![px, py]);
        let ex = pats.exists(y, app);
        assert_eq!(pats.free_vars(ex), vec![x]);
        assert_eq!(pats.free_vars(app), vec![x, y]);
    }

    #[test]
    fn free_vars_of_mu_includes_args_not_params() {
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let y = syms.var("y");
        let g = syms.op("g", 1);
        let pn = syms.pat_name("P");
        // μP(x)[y]. g(x)
        let px = pats.var(x);
        let body = pats.app(g, vec![px]);
        let mu = pats.mu(pn, vec![x], vec![y], body);
        assert_eq!(pats.free_vars(mu), vec![y]);
    }

    #[test]
    fn unfold_unary_chain() {
        // μP(x)[y]. ( g(P(x))  —  like UnaryChain's recursive alternate )
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let y = syms.var("y");
        let g = syms.op("g", 1);
        let pn = syms.pat_name("P");

        let call = pats.call(pn, vec![x]);
        let body = pats.app(g, vec![call]);
        let mu = pats.mu(pn, vec![x], vec![y], body);
        let unfolded = pats.unfold_mu(mu);
        // p[μP/P][y/x]  =  g(μP(x)[x].g(P(x)))   — call args renamed y? The
        // call was P(x); renaming [y/x] maps it to P(y)… wait, substitution
        // replaces the call *before* renaming per P-Mu; our simultaneous
        // traversal renames call args then wraps: P(x) ↦ μP(x)[y].body with
        // the arg renamed to y.
        assert_eq!(pats.display(&syms, unfolded), "g((mu P(x)[y]. g(P(x))))");
        // Unfolding is memoized.
        let again = pats.unfold_mu(mu);
        assert_eq!(unfolded, again);
    }

    #[test]
    fn unfold_renames_free_vars_and_guards() {
        // μP(x)[z]. (x where x.rank = 2)  unfolds to (z where z.rank = 2)
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let z = syms.var("z");
        let rank = syms.attr("rank");
        let pn = syms.pat_name("P");
        let px = pats.var(x);
        let body = pats.guarded(px, Expr::var_attr(x, rank).eq(Expr::Const(2)));
        let mu = pats.mu(pn, vec![x], vec![z], body);
        let unfolded = pats.unfold_mu(mu);
        assert_eq!(pats.display(&syms, unfolded), "(z where z.rank = 2)");
    }

    #[test]
    fn unfold_respects_exists_shadowing() {
        // μP(x)[z]. ∃x. f(x, x)   — the ∃-bound x must NOT be renamed.
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let z = syms.var("z");
        let f = syms.op("f", 2);
        let pn = syms.pat_name("P");
        let px = pats.var(x);
        let app = pats.app(f, vec![px, px]);
        let body = pats.exists(x, app);
        let mu = pats.mu(pn, vec![x], vec![z], body);
        let unfolded = pats.unfold_mu(mu);
        assert_eq!(pats.display(&syms, unfolded), "(exists x. f(x, x))");
    }

    #[test]
    fn validate_catches_unsaturated_app() {
        let (mut syms, mut pats) = setup();
        let f = syms.op("f", 2);
        let x = syms.var("x");
        let px = pats.var(x);
        let bad = pats.intern(Pattern::App(f, vec![px]));
        assert!(matches!(
            pats.validate(&syms, bad),
            Err(PatternError::Unsaturated { .. })
        ));
    }

    #[test]
    fn validate_catches_unbound_call() {
        let (mut syms, mut pats) = setup();
        let pn = syms.pat_name("Q");
        let x = syms.var("x");
        let bad = pats.call(pn, vec![x]);
        assert!(matches!(
            pats.validate(&syms, bad),
            Err(PatternError::UnboundCall { .. })
        ));
    }

    #[test]
    fn validate_catches_unused_existential() {
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let y = syms.var("y");
        let py = pats.var(y);
        let bad = pats.exists(x, py);
        assert!(matches!(
            pats.validate(&syms, bad),
            Err(PatternError::UnusedExistential { .. })
        ));
    }

    #[test]
    fn validate_accepts_figure4_pattern() {
        // Figure 4: pattern P(x,f,g) with local vars and match constraints:
        //   ∃y. (x ; (f(P(y)) ≈ x))  — here simplified to one alternate.
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let y = syms.var("y");
        let fv = syms.fun_var("f");
        let pn = syms.pat_name("P");

        let px = pats.var(x);
        let call = pats.call(pn, vec![y]);
        let fp = pats.fun_app(fv, vec![call]);
        let constrained = pats.match_constr(px, fp, x);
        let inner = pats.exists(y, constrained);
        let base = pats.var(x);
        let alt = pats.alt(inner, base);
        let mu = pats.mu(pn, vec![x], vec![x], alt);
        pats.validate(&syms, mu).unwrap();
    }

    #[test]
    fn fun_vars_collects() {
        let (mut syms, mut pats) = setup();
        let x = syms.var("x");
        let fv = syms.fun_var("F");
        let gv = syms.fun_var("G");
        let px = pats.var(x);
        let inner = pats.fun_app(gv, vec![px]);
        let outer = pats.fun_app(fv, vec![inner]);
        assert_eq!(pats.fun_vars(outer), vec![fv, gv]);
    }
}
