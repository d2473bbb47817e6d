//! Pattern and rule builders: the embedded-DSL surface.
//!
//! The Python frontend of PyPM turns decorated method bodies into core
//! patterns by symbolic execution (paper §2.4): assignments become
//! `_pattern_bind_name`, `assert e` becomes `_pattern_assert(e)`, `var()`
//! creates local variables, `x <= p` records a match constraint, and
//! defining two patterns with the same name creates alternates. This
//! module is the Rust rendition of that surface:
//!
//! * [`RuleSetBuilder`] — the registry that `@pattern`/`@rule`
//!   registrations accumulate into,
//! * [`PatternBuilder`] — one pattern-method body: parameters, `var()`
//!   locals, `assert`, `<=` constraints, operator composition, recursive
//!   calls,
//! * [`RuleBuilder`] — one rule-method body: assertions, *traced
//!   control-flow* ([`RuleBuilder::branch`] explores both sides, exactly
//!   like the frontend's "control flow is replaced by code that will
//!   execute every branch"), and `return` of an [`Rhs`] template.
//!
//! Calling [`RuleSetBuilder::serialize`] performs the paper's
//! `pypm.serialize()` step: alternates with the same name are folded with
//! `‖` in definition order, self-referential patterns are closed with `μ`,
//! every pattern is validated, and the result is a portable [`RuleSet`].

use crate::ruleset::{PatternDef, Rhs, RuleDef, RuleSet};
use pypm_core::{
    Attr, Expr, FunVar, Guard, Pattern, PatternId, PatternStore, Symbol, SymbolTable, Var,
};
use std::collections::HashMap;

/// Accumulates pattern and rule definitions, then serializes a
/// [`RuleSet`].
#[derive(Debug, Default)]
pub struct RuleSetBuilder {
    /// (name, params, fun_params, body, constraints…) per *alternate*.
    alternates: Vec<AltDef>,
    /// Definition order of pattern names.
    order: Vec<String>,
    rules: Vec<(String, RuleDef)>,
}

#[derive(Debug)]
struct AltDef {
    name: String,
    params: Vec<Var>,
    fun_params: Vec<FunVar>,
    body: PatternId,
}

impl RuleSetBuilder {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one `@pattern` definition. Registering the same name
    /// again adds an alternate (§2.1); alternates must agree on their
    /// parameter lists.
    ///
    /// The closure receives a [`PatternBuilder`] and returns the pattern
    /// body (the method's `return` expression).
    ///
    /// # Panics
    ///
    /// Panics if an alternate redeclares the pattern with different
    /// parameters.
    pub fn pattern<F>(&mut self, syms: &mut SymbolTable, pats: &mut PatternStore, name: &str, f: F)
    where
        F: FnOnce(&mut PatternBuilder<'_>) -> PatternId,
    {
        // Snapshot of previously defined patterns, for cross-pattern
        // inlining (Fig. 2's Gelu uses Half; Fig. 14's MatMulEpilog uses
        // PwSubgraph).
        let mut defined: HashMap<String, (Vec<Var>, Vec<PatternId>)> = HashMap::new();
        for alt in &self.alternates {
            let entry = defined
                .entry(alt.name.clone())
                .or_insert_with(|| (alt.params.clone(), Vec::new()));
            entry.1.push(alt.body);
        }
        let mut pb = PatternBuilder {
            syms,
            pats,
            pattern_name: name.to_owned(),
            params: Vec::new(),
            fun_params: Vec::new(),
            locals: Vec::new(),
            asserts: Vec::new(),
            constraints: Vec::new(),
            defined,
        };
        let root = f(&mut pb);
        let body = pb.finish(root);
        if let Some(first) = self.alternates.iter().find(|a| a.name == name) {
            assert_eq!(
                first.params, pb.params,
                "alternate of pattern {name} declares different parameters"
            );
        } else {
            self.order.push(name.to_owned());
        }
        self.alternates.push(AltDef {
            name: name.to_owned(),
            params: pb.params,
            fun_params: pb.fun_params,
            body,
        });
    }

    /// Registers one `@rule(pattern_name)` definition.
    ///
    /// The closure receives a [`RuleBuilder`]; every `ret` reached by the
    /// traced control flow becomes one guarded rule, in trace order.
    pub fn rule<F>(&mut self, pattern_name: &str, rule_name: &str, f: F)
    where
        F: FnOnce(&mut RuleBuilder),
    {
        let mut rb = RuleBuilder {
            path: Vec::new(),
            leaves: Vec::new(),
        };
        f(&mut rb);
        for (i, (guard, rhs)) in rb.leaves.into_iter().enumerate() {
            let name = if i == 0 {
                rule_name.to_owned()
            } else {
                format!("{rule_name}_{i}")
            };
            self.rules
                .push((pattern_name.to_owned(), RuleDef { name, guard, rhs }));
        }
    }

    /// Folds alternates, closes recursion with `μ`, attaches rules, and
    /// validates — the `pypm.serialize()` step.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid pattern or rule.
    pub fn serialize(
        self,
        syms: &mut SymbolTable,
        pats: &mut PatternStore,
    ) -> Result<RuleSet, String> {
        let mut defs: Vec<PatternDef> = Vec::new();
        for name in &self.order {
            let alts: Vec<&AltDef> = self.alternates.iter().filter(|a| &a.name == name).collect();
            let params = alts[0].params.clone();
            let mut fun_params = Vec::new();
            for a in &alts {
                for &fv in &a.fun_params {
                    if !fun_params.contains(&fv) {
                        fun_params.push(fv);
                    }
                }
            }
            let bodies: Vec<PatternId> = alts.iter().map(|a| a.body).collect();
            let combined = pats.alts(&bodies);
            // Close recursion: if any alternate calls the pattern itself,
            // wrap the combined alternates in μ so the recursive calls
            // unfold to the whole definition (base cases included).
            let pat_name = syms.pat_name(name);
            let pattern = if contains_call(pats, combined, pat_name) {
                pats.mu(pat_name, params.clone(), params.clone(), combined)
            } else {
                combined
            };
            let rules = self
                .rules
                .iter()
                .filter(|(p, _)| p == name)
                .map(|(_, r)| r.clone())
                .collect();
            defs.push(PatternDef {
                name: name.clone(),
                params,
                fun_params,
                pattern,
                rules,
            });
        }
        for (pname, rule) in &self.rules {
            if !self.order.contains(pname) {
                return Err(format!(
                    "rule {} refers to undefined pattern {pname}",
                    rule.name
                ));
            }
        }
        let rs = RuleSet { patterns: defs };
        rs.validate(pats, syms)?;
        Ok(rs)
    }
}

fn contains_call(pats: &PatternStore, p: PatternId, name: pypm_core::PatName) -> bool {
    match pats.get(p) {
        Pattern::Var(_) => false,
        Pattern::App(_, args) | Pattern::FunApp(_, args) => {
            args.iter().any(|&a| contains_call(pats, a, name))
        }
        Pattern::Alt(l, r) => contains_call(pats, *l, name) || contains_call(pats, *r, name),
        Pattern::Guard(inner, _) | Pattern::Exists(_, inner) => contains_call(pats, *inner, name),
        Pattern::MatchConstr {
            main, constraint, ..
        } => contains_call(pats, *main, name) || contains_call(pats, *constraint, name),
        Pattern::Mu {
            name: inner_name,
            body,
            ..
        } => *inner_name != name && contains_call(pats, *body, name),
        Pattern::Call(n, _) => *n == name,
    }
}

/// Builder for one pattern-method body.
#[derive(Debug)]
pub struct PatternBuilder<'a> {
    syms: &'a mut SymbolTable,
    pats: &'a mut PatternStore,
    pattern_name: String,
    params: Vec<Var>,
    fun_params: Vec<FunVar>,
    locals: Vec<Var>,
    asserts: Vec<Guard>,
    constraints: Vec<(PatternId, Var)>,
    defined: HashMap<String, (Vec<Var>, Vec<PatternId>)>,
}

impl PatternBuilder<'_> {
    /// Declares a term parameter (a method argument).
    pub fn param(&mut self, name: &str) -> Var {
        let v = self.syms.var(name);
        if !self.params.contains(&v) {
            self.params.push(v);
        }
        v
    }

    /// Declares a function-variable parameter (§3.4), like the `f` of
    /// `UnaryChain(x, f)`.
    pub fn fun_param(&mut self, name: &str) -> FunVar {
        let fv = self.syms.fun_var(name);
        if !self.fun_params.contains(&fv) {
            self.fun_params.push(fv);
        }
        fv
    }

    /// PyPM's `var()`: a fresh local variable, existentially scoped to
    /// this pattern (§2.3).
    pub fn var(&mut self) -> Var {
        let v = self.syms.fresh_var();
        self.locals.push(v);
        v
    }

    /// A variable occurrence as a pattern.
    pub fn v(&mut self, x: Var) -> PatternId {
        self.pats.var(x)
    }

    /// An operator application pattern.
    pub fn op(&mut self, f: Symbol, args: Vec<PatternId>) -> PatternId {
        self.pats.app(f, args)
    }

    /// A function-variable application pattern.
    pub fn fun(&mut self, fv: FunVar, args: Vec<PatternId>) -> PatternId {
        self.pats.fun_app(fv, args)
    }

    /// A recursive call to the pattern being defined (or a sibling
    /// alternate), like `UnaryChain(x, f)` inside its own body.
    pub fn rec(&mut self, args: Vec<Var>) -> PatternId {
        let name = self.syms.pat_name(&self.pattern_name);
        self.pats.call(name, args)
    }

    /// Uses a previously defined pattern inside this one, as `Gelu` uses
    /// `Half` in Fig. 2 and `MatMulEpilog` uses `PwSubgraph` in Fig. 14.
    ///
    /// Non-recursive definitions are inlined with their parameters renamed
    /// to `args`; self-recursive definitions become a `μ` instantiated at
    /// `args`.
    ///
    /// # Panics
    ///
    /// Panics if the name is undefined at this point in the file or the
    /// argument count differs from the parameter count.
    pub fn inline(&mut self, name: &str, args: Vec<Var>) -> PatternId {
        let (params, bodies) = self
            .defined
            .get(name)
            .unwrap_or_else(|| panic!("pattern {name} not defined before use"))
            .clone();
        assert_eq!(
            params.len(),
            args.len(),
            "pattern {name} takes {} arguments",
            params.len()
        );
        let combined = self.pats.alts(&bodies);
        let pat_name = self.syms.pat_name(name);
        if contains_call(self.pats, combined, pat_name) {
            self.pats.mu(pat_name, params, args, combined)
        } else {
            let ren: HashMap<Var, Var> = params.into_iter().zip(args).collect();
            self.pats.rename_vars(combined, &ren)
        }
    }

    /// PyPM's `assert e` (§2): the guard is imposed on the whole pattern.
    pub fn assert_(&mut self, g: Guard) {
        self.asserts.push(g);
    }

    /// PyPM's match constraint `x <= p` (§2.3).
    pub fn constrain(&mut self, x: Var, p: PatternId) {
        self.constraints.push((p, x));
    }

    /// The `x.attr` guard expression.
    pub fn attr(&self, x: Var, attr: Attr) -> Expr {
        Expr::var_attr(x, attr)
    }

    /// Finishes the body: attaches constraints, guards and existentials.
    fn finish(&mut self, root: PatternId) -> PatternId {
        let mut p = root;
        for (cp, x) in self.constraints.drain(..) {
            p = self.pats.match_constr(p, cp, x);
        }
        if !self.asserts.is_empty() {
            let mut guard = self.asserts.remove(0);
            for g in self.asserts.drain(..) {
                guard = guard.and(g);
            }
            p = self.pats.guarded(p, guard);
        }
        for x in self.locals.drain(..).rev() {
            p = self.pats.exists(x, p);
        }
        p
    }
}

/// Builder for one rule-method body, with traced control flow.
#[derive(Debug)]
pub struct RuleBuilder {
    /// Current path condition (conjunction of asserts and branch guards).
    path: Vec<Guard>,
    /// `(path condition, rhs)` per reached `ret`, in trace order.
    leaves: Vec<(Guard, Rhs)>,
}

impl RuleBuilder {
    /// An assertion: the rule only fires when `g` holds (§2, Fig. 1's
    /// `assert (x.eltType == f32 && …)`).
    pub fn assert_(&mut self, g: Guard) {
        self.path.push(g);
    }

    /// Traced `if cond: …then… else: …else…` — both branches are
    /// explored, each under its side of the condition, mirroring the
    /// symbolic execution of §2.4.
    pub fn branch<T, E>(&mut self, cond: Guard, then_f: T, else_f: E)
    where
        T: FnOnce(&mut RuleBuilder),
        E: FnOnce(&mut RuleBuilder),
    {
        let depth = self.path.len();
        self.path.push(cond.clone());
        then_f(self);
        self.path.truncate(depth);
        self.path.push(cond.not());
        else_f(self);
        self.path.truncate(depth);
    }

    /// Traced `if cond: …then…` with no else branch (falls through).
    pub fn when<T>(&mut self, cond: Guard, then_f: T)
    where
        T: FnOnce(&mut RuleBuilder),
    {
        let depth = self.path.len();
        self.path.push(cond);
        then_f(self);
        self.path.truncate(depth);
    }

    /// The rule body's `return`: records one guarded rewrite under the
    /// current path condition.
    pub fn ret(&mut self, rhs: Rhs) {
        let guard = self
            .path
            .iter()
            .cloned()
            .reduce(Guard::and)
            .unwrap_or_else(Guard::tt);
        self.leaves.push((guard, rhs));
    }
}

/// A convenience bundle: symbol table, pattern store, and builder in one
/// place, mirroring `import pypm`.
#[derive(Debug, Default)]
pub struct Frontend {
    /// The shared symbol table.
    pub syms: SymbolTable,
    /// The shared pattern store.
    pub pats: PatternStore,
    /// The registration registry.
    pub builder: RuleSetBuilder,
}

impl Frontend {
    /// Creates an empty frontend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pattern (see [`RuleSetBuilder::pattern`]).
    pub fn pattern<F>(&mut self, name: &str, f: F)
    where
        F: FnOnce(&mut PatternBuilder<'_>) -> PatternId,
    {
        self.builder
            .pattern(&mut self.syms, &mut self.pats, name, f);
    }

    /// Registers a rule (see [`RuleSetBuilder::rule`]).
    pub fn rule<F>(&mut self, pattern_name: &str, rule_name: &str, f: F)
    where
        F: FnOnce(&mut RuleBuilder),
    {
        self.builder.rule(pattern_name, rule_name, f);
    }

    /// Serializes the registered definitions (see
    /// [`RuleSetBuilder::serialize`]).
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn serialize(self) -> Result<(SymbolTable, PatternStore, RuleSet), String> {
        let Frontend {
            mut syms,
            mut pats,
            builder,
        } = self;
        let rs = builder.serialize(&mut syms, &mut pats)?;
        Ok((syms, pats, rs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_core::Expr;

    #[test]
    fn mmxyt_pattern_builds_like_figure_1() {
        let mut fe = Frontend::new();
        let matmul = fe.syms.op("MatMul", 2);
        let trans = fe.syms.op("Trans", 1);
        let rank = fe.syms.attr("rank");
        fe.pattern("MMxyT", |p| {
            let x = p.param("x");
            let y = p.param("y");
            let rx = p.attr(x, rank);
            let ry = p.attr(y, rank);
            p.assert_(rx.eq(Expr::Const(2)));
            p.assert_(ry.eq(Expr::Const(2)));
            let py = p.v(y);
            let yt = p.op(trans, vec![py]);
            let px = p.v(x);
            p.op(matmul, vec![px, yt])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let def = rs.find("MMxyT").unwrap();
        assert_eq!(
            pats.display(&syms, def.pattern),
            "(MatMul(x, Trans(y)) where (x.rank = 2 && y.rank = 2))"
        );
        assert_eq!(def.params.len(), 2);
    }

    #[test]
    fn alternates_fold_in_definition_order() {
        let mut fe = Frontend::new();
        let div = fe.syms.op("Div", 2);
        let mul = fe.syms.op("Mul", 2);
        let two = fe.syms.op("two", 0);
        let half = fe.syms.op("half", 0);
        fe.pattern("Half", |p| {
            let x = p.param("x");
            let px = p.v(x);
            let c = p.op(two, vec![]);
            p.op(div, vec![px, c])
        });
        fe.pattern("Half", |p| {
            let x = p.param("x");
            let px = p.v(x);
            let c = p.op(half, vec![]);
            p.op(mul, vec![px, c])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let def = rs.find("Half").unwrap();
        assert_eq!(
            pats.display(&syms, def.pattern),
            "(Div(x, two) | Mul(x, half))"
        );
    }

    #[test]
    fn recursion_is_closed_with_mu() {
        // Figure 3's UnaryChain.
        let mut fe = Frontend::new();
        fe.pattern("UnaryChain", |p| {
            let x = p.param("x");
            let f = p.fun_param("f");
            let inner = p.rec(vec![x]);
            p.fun(f, vec![inner])
        });
        fe.pattern("UnaryChain", |p| {
            let x = p.param("x");
            let f = p.fun_param("f");
            let px = p.v(x);
            p.fun(f, vec![px])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let def = rs.find("UnaryChain").unwrap();
        assert_eq!(
            pats.display(&syms, def.pattern),
            "(mu UnaryChain(x)[x]. (f(UnaryChain(x)) | f(x)))"
        );
        assert_eq!(def.fun_params.len(), 1);
    }

    #[test]
    fn locals_and_constraints_build_figure_4_shape() {
        let mut fe = Frontend::new();
        let g = fe.syms.op("g", 1);
        fe.pattern("Rooted", |p| {
            let x = p.param("x");
            let y = p.var();
            let py = p.v(y);
            let gy = p.op(g, vec![py]);
            p.constrain(x, gy);
            p.v(x)
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let def = rs.find("Rooted").unwrap();
        let text = pats.display(&syms, def.pattern);
        assert!(text.starts_with("(exists %v"), "got {text}");
        assert!(text.contains("with x ~ g(%v"), "got {text}");
    }

    #[test]
    fn rule_tracing_explores_both_branches() {
        // Figure 1's cublasrule: if f32 → f32 kernel elif i8 → i8 kernel.
        let mut fe = Frontend::new();
        let matmul = fe.syms.op("MatMul", 2);
        let f32mm = fe.syms.op("cublasMM_xyT_f32", 2);
        let i8mm = fe.syms.op("cublasMM_xyT_i8", 2);
        let elt = fe.syms.attr("eltType");
        fe.pattern("MM", |p| {
            let x = p.param("x");
            let y = p.param("y");
            let px = p.v(x);
            let py = p.v(y);
            p.op(matmul, vec![px, py])
        });
        let x = fe.syms.var("x");
        let y = fe.syms.var("y");
        let both_f32 = Expr::var_attr(x, elt)
            .eq(Expr::Const(1))
            .and(Expr::var_attr(y, elt).eq(Expr::Const(1)));
        fe.rule("MM", "cublasrule", |r| {
            let cond = both_f32.clone();
            r.branch(
                cond,
                |r| r.ret(Rhs::app(f32mm, vec![Rhs::Var(x), Rhs::Var(y)])),
                |r| r.ret(Rhs::app(i8mm, vec![Rhs::Var(x), Rhs::Var(y)])),
            );
        });
        let (_syms, _pats, rs) = fe.serialize().unwrap();
        let def = rs.find("MM").unwrap();
        assert_eq!(def.rules.len(), 2);
        assert_eq!(def.rules[0].name, "cublasrule");
        assert_eq!(def.rules[1].name, "cublasrule_1");
        // The second rule's guard is the negation of the first's.
        assert_ne!(def.rules[0].guard, def.rules[1].guard);
    }

    #[test]
    fn rule_for_unknown_pattern_is_rejected() {
        let mut fe = Frontend::new();
        let x = fe.syms.var("x");
        fe.rule("Nope", "r", |r| r.ret(Rhs::Var(x)));
        assert!(fe.serialize().is_err());
    }

    #[test]
    #[should_panic(expected = "different parameters")]
    fn alternate_with_different_params_panics() {
        let mut fe = Frontend::new();
        let c = fe.syms.op("c", 0);
        fe.pattern("P", |p| {
            let _x = p.param("x");
            p.op(c, vec![])
        });
        fe.pattern("P", |p| {
            let _y = p.param("y");
            p.op(c, vec![])
        });
    }
}
