//! The data model of a compiled PyPM program: patterns with their rewrite
//! rules.
//!
//! A PyPM program is "(a) patterns that match subgraphs … and (b)
//! corresponding rules which replace a matched subgraph" (paper abstract).
//! After the frontend traces the user's definitions, what remains is a
//! [`RuleSet`]: an ordered list of [`PatternDef`]s, each with an ordered
//! list of [`RuleDef`]s. Order matters twice (§2.4): patterns are tried
//! "in order of their appearance in the original python file", and when a
//! pattern matches, "PyPM runs each of the corresponding rules one by one
//! … The first rule whose assertions pass is fired".

use pypm_core::{Attr, FunVar, Guard, Pattern, PatternId, PatternStore, Symbol, SymbolTable, Var};
use std::collections::BTreeMap;

/// The right-hand side of a rewrite rule: a template instantiated with the
/// match substitution to build the replacement subgraph.
#[derive(Debug, Clone, PartialEq)]
pub enum Rhs {
    /// Reuse the subgraph a pattern variable matched.
    Var(Var),
    /// Build a new operator node.
    App {
        /// Operator to apply.
        op: Symbol,
        /// Child templates.
        args: Vec<Rhs>,
        /// Node attributes for the new node (e.g. `epilog` code).
        attrs: Vec<(Attr, i64)>,
    },
    /// Re-apply the operator a function variable matched (useful in rules
    /// for function patterns, e.g. collapsing `UnaryChain(x, f)` to a
    /// single `f(x)`).
    FunApp(FunVar, Vec<Rhs>),
}

impl Rhs {
    /// Convenience constructor for an attribute-free application.
    pub fn app(op: Symbol, args: Vec<Rhs>) -> Rhs {
        Rhs::App {
            op,
            args,
            attrs: Vec::new(),
        }
    }

    /// Pattern variables referenced by the template, appended to `out`.
    pub fn vars(&self, out: &mut Vec<Var>) {
        match self {
            Rhs::Var(x) => out.push(*x),
            Rhs::App { args, .. } | Rhs::FunApp(_, args) => {
                for a in args {
                    a.vars(out);
                }
            }
        }
    }

    /// Function variables referenced by the template, appended to `out`.
    pub fn fun_vars(&self, out: &mut Vec<FunVar>) {
        match self {
            Rhs::Var(_) => {}
            Rhs::App { args, .. } => {
                for a in args {
                    a.fun_vars(out);
                }
            }
            Rhs::FunApp(fv, args) => {
                out.push(*fv);
                for a in args {
                    a.fun_vars(out);
                }
            }
        }
    }

    /// Pretty-prints the template.
    pub fn display(&self, syms: &SymbolTable) -> String {
        match self {
            Rhs::Var(x) => syms.var_name(*x).to_owned(),
            Rhs::App { op, args, attrs } => {
                let mut s = syms.op_name(*op).to_owned();
                s.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&a.display(syms));
                }
                s.push(')');
                if !attrs.is_empty() {
                    s.push('{');
                    for (i, (a, v)) in attrs.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&format!("{} = {v}", syms.attr_name(*a)));
                    }
                    s.push('}');
                }
                s
            }
            Rhs::FunApp(fv, args) => {
                let mut s = syms.fun_var_name(*fv).to_owned();
                s.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&a.display(syms));
                }
                s.push(')');
                s
            }
        }
    }
}

/// One rewrite rule attached to a pattern (an `@rule(Pat)` definition).
#[derive(Debug, Clone)]
pub struct RuleDef {
    /// Rule name (for diagnostics and statistics).
    pub name: String,
    /// The conjunction of the rule's assertions and the path condition
    /// collected by the symbolic tracer; the rule fires only when this
    /// guard holds under the match substitution.
    pub guard: Guard,
    /// The replacement template.
    pub rhs: Rhs,
}

/// A pattern with its parameters and rules (an `@pattern` definition plus
/// all alternates and `@rule`s of the same name).
#[derive(Debug, Clone)]
pub struct PatternDef {
    /// Pattern name.
    pub name: String,
    /// Declared parameters — the "free variables" whose bindings the
    /// substitution reports (§2).
    pub params: Vec<Var>,
    /// Function-variable parameters (§3.4).
    pub fun_params: Vec<FunVar>,
    /// The compiled pattern (alternates already folded, recursion already
    /// wrapped in μ).
    pub pattern: PatternId,
    /// Rules in definition order; the first whose guard passes fires.
    pub rules: Vec<RuleDef>,
}

/// An ordered collection of pattern definitions: the unit the engine
/// loads, the unit the binary format transports and the text printer
/// renders.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Pattern definitions in file order.
    pub patterns: Vec<PatternDef>,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a pattern definition by name.
    pub fn find(&self, name: &str) -> Option<&PatternDef> {
        self.patterns.iter().find(|p| p.name == name)
    }

    /// Number of pattern definitions.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Validates every pattern structurally and scoping-wise.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self, pats: &PatternStore, syms: &SymbolTable) -> Result<(), String> {
        for def in &self.patterns {
            pats.validate(syms, def.pattern)
                .map_err(|e| format!("pattern {}: {e}", def.name))?;
            let pre = def.params.iter().copied().collect();
            pypm_core::analysis::check_bindings(pats, syms, def.pattern, &pre)
                .map_err(|e| format!("pattern {}: {e}", def.name))?;
            for rule in &def.rules {
                let mut vars = Vec::new();
                rule.rhs.vars(&mut vars);
                for v in vars {
                    if !def.params.contains(&v) {
                        return Err(format!(
                            "rule {} of pattern {}: rhs uses non-parameter variable {}",
                            rule.name,
                            def.name,
                            syms.var_name(v)
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Every operator a pattern or rule template mentions, with its
    /// arity, in name order: the `op` header of the text format and the
    /// operator table of the binary one.
    pub fn operator_table<'s>(
        &self,
        syms: &'s SymbolTable,
        pats: &PatternStore,
    ) -> BTreeMap<&'s str, usize> {
        let mut ops = BTreeMap::new();
        for def in &self.patterns {
            pattern_ops(pats, syms, def.pattern, &mut ops);
            for rule in &def.rules {
                rhs_ops(&rule.rhs, syms, &mut ops);
            }
        }
        ops
    }
}

fn pattern_ops<'s>(
    pats: &PatternStore,
    syms: &'s SymbolTable,
    p: PatternId,
    out: &mut BTreeMap<&'s str, usize>,
) {
    match pats.get(p) {
        Pattern::Var(_) | Pattern::Call(..) => {}
        Pattern::App(f, args) => {
            out.insert(syms.op_name(*f), args.len());
            for &a in args {
                pattern_ops(pats, syms, a, out);
            }
        }
        Pattern::FunApp(_, args) => {
            for &a in args {
                pattern_ops(pats, syms, a, out);
            }
        }
        Pattern::Alt(l, r) => {
            pattern_ops(pats, syms, *l, out);
            pattern_ops(pats, syms, *r, out);
        }
        Pattern::Guard(inner, _) | Pattern::Exists(_, inner) => {
            pattern_ops(pats, syms, *inner, out)
        }
        Pattern::MatchConstr {
            main, constraint, ..
        } => {
            pattern_ops(pats, syms, *main, out);
            pattern_ops(pats, syms, *constraint, out);
        }
        Pattern::Mu { body, .. } => pattern_ops(pats, syms, *body, out),
    }
}

fn rhs_ops<'s>(rhs: &Rhs, syms: &'s SymbolTable, out: &mut BTreeMap<&'s str, usize>) {
    match rhs {
        Rhs::Var(_) => {}
        Rhs::App { op, args, .. } => {
            out.insert(syms.op_name(*op), args.len());
            for a in args {
                rhs_ops(a, syms, out);
            }
        }
        Rhs::FunApp(_, args) => {
            for a in args {
                rhs_ops(a, syms, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_core::{Expr, PatternStore, SymbolTable};

    #[test]
    fn rhs_display_and_vars() {
        let mut syms = SymbolTable::new();
        let f32mm = syms.op("cublasMM_xyT_f32", 2);
        let x = syms.var("x");
        let y = syms.var("y");
        let rhs = Rhs::app(f32mm, vec![Rhs::Var(x), Rhs::Var(y)]);
        assert_eq!(rhs.display(&syms), "cublasMM_xyT_f32(x, y)");
        let mut vars = Vec::new();
        rhs.vars(&mut vars);
        assert_eq!(vars, vec![x, y]);
    }

    #[test]
    fn rhs_with_attrs_displays_them() {
        let mut syms = SymbolTable::new();
        let ge = syms.op("GemmEpilog", 2);
        let epilog = syms.attr("epilog");
        let x = syms.var("x");
        let y = syms.var("y");
        let rhs = Rhs::App {
            op: ge,
            args: vec![Rhs::Var(x), Rhs::Var(y)],
            attrs: vec![(epilog, 1)],
        };
        assert_eq!(rhs.display(&syms), "GemmEpilog(x, y){epilog = 1}");
    }

    #[test]
    fn ruleset_validate_rejects_unbound_rhs_var() {
        let mut syms = SymbolTable::new();
        let mut pats = PatternStore::new();
        let relu = syms.op("Relu", 1);
        let x = syms.var("x");
        let z = syms.var("z");
        let px = pats.var(x);
        let p = pats.app(relu, vec![px]);
        let rs = RuleSet {
            patterns: vec![PatternDef {
                name: "P".into(),
                params: vec![x],
                fun_params: vec![],
                pattern: p,
                rules: vec![RuleDef {
                    name: "bad".into(),
                    guard: Guard::tt(),
                    rhs: Rhs::Var(z),
                }],
            }],
        };
        let err = rs.validate(&pats, &syms).unwrap_err();
        assert!(err.contains("non-parameter variable z"));
    }

    #[test]
    fn ruleset_validate_accepts_good_set() {
        let mut syms = SymbolTable::new();
        let mut pats = PatternStore::new();
        let relu = syms.op("Relu", 1);
        let rank = syms.attr("rank");
        let x = syms.var("x");
        let px = pats.var(x);
        let inner = pats.app(relu, vec![px]);
        let p = pats.guarded(inner, Expr::var_attr(x, rank).eq(Expr::Const(2)));
        let rs = RuleSet {
            patterns: vec![PatternDef {
                name: "P".into(),
                params: vec![x],
                fun_params: vec![],
                pattern: p,
                rules: vec![RuleDef {
                    name: "id".into(),
                    guard: Guard::tt(),
                    rhs: Rhs::Var(x),
                }],
            }],
        };
        rs.validate(&pats, &syms).unwrap();
        assert_eq!(rs.find("P").unwrap().rules.len(), 1);
        assert!(rs.find("Q").is_none());
    }
}
