//! Recursive and function patterns: the paper's Figures 3 and 4.
//!
//! `UnaryChain(x, f)` matches a tower of any single unary operator
//! applied repeatedly — `f(f(…f(x)…))` — using recursion (μ) for the
//! arbitrary depth and a function variable for the operator. The
//! companion `ReluChain` pattern adds a rewrite: since RELU is
//! idempotent, a whole chain collapses to one node.
//!
//! Run with `cargo run --example recursive_patterns`.

use pypm::core::{Machine, Outcome};
use pypm::dsl::LibraryConfig;
use pypm::engine::{Pipeline, RewritePass, Session};
use pypm::graph::{DType, Graph, TermView};

fn main() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());

    // A tower of 7 RELUs over an input.
    let mut g = Graph::new();
    let x = g.input(&mut s.syms, DType::F32, [8, 8]);
    let relu = s.ops.relu;
    let mut cur = x;
    for _ in 0..7 {
        cur = g
            .op(&mut s.syms, &s.registry, relu, vec![cur], vec![])
            .unwrap();
    }
    g.mark_output(cur);

    // First, match UnaryChain directly with the abstract machine and
    // inspect the witness: F binds the Relu symbol, x binds the leaf.
    let def = rules.find("UnaryChain").expect("library pattern");
    let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
    let t = view.term_of(cur).unwrap();
    let outcome = Machine::new(&mut s.pats, &s.terms, &view.attrs(&g))
        .run(def.pattern, t, 1_000_000)
        .unwrap();
    match &outcome {
        Outcome::Success(w) => {
            println!("UnaryChain matched the 7-RELU tower:");
            println!("  θ = {}", w.theta.display(&s.syms, &s.terms));
            println!("  φ = {}", w.phi.display(&s.syms));
        }
        Outcome::Failure => unreachable!("tower must match"),
    }

    // Then let the rewrite pass collapse it by idempotence.
    let before = g.live_count();
    let stats = Pipeline::new(&mut s)
        .with(RewritePass::new(rules))
        .run(&mut g)
        .unwrap()
        .total();
    println!(
        "\nReluChain pass: {before} nodes -> {} nodes ({} rewrites)",
        g.live_count(),
        stats.rewrites_fired
    );
    assert_eq!(g.live_count(), 2); // input + one Relu
}
