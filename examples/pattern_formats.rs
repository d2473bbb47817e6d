//! The portable pattern format (the paper's §2.4 serialization step).
//!
//! PyPM's frontend traces `@pattern`/`@rule` definitions into a portable
//! binary that DLCB loads at startup. This example authors the Fig. 1
//! rule set with the frontend, in a symbol table of its own, and prints
//! its text form (text is for reading: nothing parses it back). It then
//! encodes the set to the binary format, loads the binary into a
//! completely fresh session, and checks that the loaded rules fire on the
//! Fig. 1 graph as the library's own copy does.
//!
//! Run with `cargo run --example pattern_formats`.

use pypm::core::{Expr, PatternStore, SymbolTable};
use pypm::dsl::{binary, text, Frontend, LibraryConfig, Rhs, RuleSet};
use pypm::engine::{Pipeline, RewritePass, Session};
use pypm::graph::{DType, Graph};

/// Fig. 1 as a frontend program: `MatMul(x, Trans(y))` on rank-2
/// tensors becomes the f32 cuBLAS `xyᵀ` kernel.
fn author_fig1() -> (SymbolTable, PatternStore, RuleSet) {
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
        let ry = p.attr(y, rank);
        p.assert_(rx.eq(Expr::Const(2)));
        p.assert_(ry.eq(Expr::Const(2)));
        let py = p.v(y);
        let yt = p.op(trans, vec![py]);
        let px = p.v(x);
        p.op(matmul, vec![px, yt])
    });
    let x = fe.syms.var("x");
    let y = fe.syms.var("y");
    let f32c = DType::F32.code();
    fe.rule("MMxyT", "cublasrule", |r| {
        r.assert_(
            Expr::var_attr(x, elt)
                .eq(Expr::Const(f32c))
                .and(Expr::var_attr(y, elt).eq(Expr::Const(f32c))),
        );
        r.ret(Rhs::app(f32mm, vec![Rhs::Var(x), Rhs::Var(y)]));
    });
    fe.serialize().expect("the Fig. 1 program is well formed")
}

fn rewrites_with(session: &mut Session, rules: &RuleSet) -> u64 {
    let mut g = Graph::new();
    let a = g.input(&mut session.syms, DType::F32, [64, 32]);
    let b = g.input(&mut session.syms, DType::F32, [16, 32]);
    let (trans, matmul) = (session.ops.trans, session.ops.matmul);
    let bt = g
        .op(&mut session.syms, &session.registry, trans, vec![b], vec![])
        .unwrap();
    let mm = g
        .op(
            &mut session.syms,
            &session.registry,
            matmul,
            vec![a, bt],
            vec![],
        )
        .unwrap();
    g.mark_output(mm);
    Pipeline::new(session)
        .with(RewritePass::new(rules.clone()))
        .run(&mut g)
        .unwrap()
        .total()
        .rewrites_fired
}

fn main() {
    // Author the rule set in the frontend's own process image …
    let (syms, pats, rules) = author_fig1();
    let text_form = text::print_ruleset(&rules, &syms, &pats);
    let binary_form = binary::encode(&rules, &syms, &pats);
    println!(
        "Fig. 1: {} pattern; text form {} bytes, binary form {} bytes",
        rules.len(),
        text_form.len(),
        binary_form.len()
    );
    println!("--- text form ---\n{text_form}---");

    // … load the binary into a completely fresh session …
    let mut backend = Session::new();
    let loaded = backend
        .load_wire_ruleset(&binary_form)
        .expect("binary decodes");
    let n_loaded = rewrites_with(&mut backend, &loaded);
    assert_eq!(
        binary::encode(&loaded, &backend.syms, &backend.pats),
        binary_form,
        "the loaded set encodes back to the same bytes"
    );

    // … and run the library's own copy as the reference.
    let mut reference = Session::new();
    let library = reference.load_library(LibraryConfig::all());
    let n_library = rewrites_with(&mut reference, &library);

    println!("\nrewrites fired on the Fig. 1 graph:");
    println!("  library rules        : {n_library}");
    println!("  loaded from binary   : {n_loaded}");
    assert_eq!(n_library, 1);
    assert_eq!(n_loaded, 1);
    println!("the binary transport reproduces the authored behaviour.");
}
