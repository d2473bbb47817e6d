//! The *text* rendition of rule sets: an output-only form.
//!
//! PyPM's frontend serializes traced patterns and rules into "a portable
//! serialized binary format … dynamically loaded into and interpreted by
//! the C++ backend" (paper §2.4). That format lives in [`crate::binary`]
//! and is the one way a rule set enters a session. This module prints the
//! same rule set for a person to read (`pypmc library`):
//!
//! ```text
//! op MatMul/2;
//! op Trans/1;
//! op cublasMM_xyT_f32/2;
//!
//! pattern MMxyT(x, y) {
//!   (MatMul(x, Trans(y)) where (x.rank = 2 && y.rank = 2))
//! }
//! rule cublasrule for MMxyT when x.eltType = 1 => cublasMM_xyT_f32(x, y);
//! ```
//!
//! A pattern body is printed in the display syntax of
//! [`PatternStore::display`], a rule's template in that of
//! [`crate::Rhs::display`]. Nothing reads the text back.

use crate::ruleset::RuleSet;
use pypm_core::{PatternStore, SymbolTable};

/// Serializes a rule set to the text format.
pub fn print_ruleset(rs: &RuleSet, syms: &SymbolTable, pats: &PatternStore) -> String {
    let mut out = String::new();
    for (name, arity) in rs.operator_table(syms, pats) {
        out.push_str(&format!("op {name}/{arity};\n"));
    }
    out.push('\n');
    for def in &rs.patterns {
        out.push_str("pattern ");
        out.push_str(&def.name);
        out.push('(');
        for (i, &p) in def.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(syms.var_name(p));
        }
        if !def.fun_params.is_empty() {
            out.push_str("; ");
            for (i, &fp) in def.fun_params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(syms.fun_var_name(fp));
            }
        }
        out.push_str(") {\n  ");
        out.push_str(&pats.display(syms, def.pattern));
        out.push_str("\n}\n");
        for rule in &def.rules {
            out.push_str(&format!(
                "rule {} for {} when {} => {};\n",
                rule.name,
                def.name,
                rule.guard.display(syms, &pypm_core::TermStore::new()),
                rule.rhs.display(syms),
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Frontend;
    use crate::ruleset::Rhs;
    use pypm_core::Expr;

    /// The text of `rs`, and the text of the rule set the binary format
    /// carries into fresh stores: a faithful printer shows no difference.
    fn roundtrip(rs: &RuleSet, syms: &SymbolTable, pats: &PatternStore) -> (String, String) {
        let text = print_ruleset(rs, syms, pats);
        let blob = crate::binary::encode(rs, syms, pats);
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let rs2 = crate::binary::decode(&blob, &mut syms2, &mut pats2)
            .unwrap_or_else(|e| panic!("decode failed: {e}\n--- text ---\n{text}"));
        let text2 = print_ruleset(&rs2, &syms2, &pats2);
        (text, text2)
    }

    #[test]
    fn figure1_roundtrips() {
        let mut fe = Frontend::new();
        let matmul = fe.syms.op("MatMul", 2);
        let trans = fe.syms.op("Trans", 1);
        let f32mm = fe.syms.op("cublasMM_xyT_f32", 2);
        let rank = fe.syms.attr("rank");
        let elt = fe.syms.attr("eltType");
        fe.pattern("MMxyT", |p| {
            let x = p.param("x");
            let y = p.param("y");
            let rx = p.attr(x, rank);
            p.assert_(rx.eq(Expr::Const(2)));
            let py = p.v(y);
            let yt = p.op(trans, vec![py]);
            let px = p.v(x);
            p.op(matmul, vec![px, yt])
        });
        let x = fe.syms.var("x");
        let y = fe.syms.var("y");
        fe.rule("MMxyT", "cublasrule", |r| {
            r.assert_(Expr::var_attr(x, elt).eq(Expr::Const(1)));
            r.ret(Rhs::app(f32mm, vec![Rhs::Var(x), Rhs::Var(y)]));
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let (a, b) = roundtrip(&rs, &syms, &pats);
        assert_eq!(a, b);
        assert!(a.contains("op MatMul/2;"));
        assert!(a.contains("rule cublasrule for MMxyT"));
    }

    #[test]
    fn alternates_and_recursion_roundtrip() {
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
        let x = fe.syms.var("x");
        let f = fe.syms.fun_var("f");
        fe.rule("UnaryChain", "collapse", |r| {
            r.ret(Rhs::FunApp(f, vec![Rhs::Var(x)]));
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let (a, b) = roundtrip(&rs, &syms, &pats);
        assert_eq!(a, b);
        assert!(a.contains("mu UnaryChain"));
        assert!(a.contains("(x; f)"));
    }

    #[test]
    fn exists_and_constraints_roundtrip() {
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
        let (a, b) = roundtrip(&rs, &syms, &pats);
        assert_eq!(a, b);
        assert!(a.contains("exists"));
        assert!(a.contains("with x ~"));
    }

    #[test]
    fn guards_with_connectives_roundtrip() {
        let mut fe = Frontend::new();
        let relu = fe.syms.op("Relu", 1);
        let rank = fe.syms.attr("rank");
        let elt = fe.syms.attr("eltType");
        fe.pattern("P", |p| {
            let x = p.param("x");
            let rx = p.attr(x, rank);
            let ex = p.attr(x, elt);
            p.assert_(
                rx.eq(Expr::Const(2))
                    .or(ex.lt(Expr::Const(3)))
                    .and(Expr::var_attr(x, rank).ne(Expr::Const(4))),
            );
            let px = p.v(x);
            p.op(relu, vec![px])
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let (a, b) = roundtrip(&rs, &syms, &pats);
        assert_eq!(a, b);
    }

    #[test]
    fn rhs_attrs_roundtrip() {
        let mut fe = Frontend::new();
        let matmul = fe.syms.op("MatMul", 2);
        let ge = fe.syms.op("GemmEpilog", 2);
        let epilog = fe.syms.attr("epilog");
        fe.pattern("MM", |p| {
            let x = p.param("x");
            let y = p.param("y");
            let px = p.v(x);
            let py = p.v(y);
            p.op(matmul, vec![px, py])
        });
        let x = fe.syms.var("x");
        let y = fe.syms.var("y");
        fe.rule("MM", "fuse", |r| {
            r.ret(Rhs::App {
                op: ge,
                args: vec![Rhs::Var(x), Rhs::Var(y)],
                attrs: vec![(epilog, 1)],
            });
        });
        let (syms, pats, rs) = fe.serialize().unwrap();
        let (a, b) = roundtrip(&rs, &syms, &pats);
        assert_eq!(a, b);
        assert!(a.contains("{epilog = 1}"));
    }
}
