//! Pattern alternates in action: the paper's Figure 2.
//!
//! Different HuggingFace models spell `x/2` inside GELU differently —
//! `Div(x, 2)` in some, `Mul(x, 0.5)` in others. One `Half` pattern with
//! two alternates covers both spellings, and the `GeluSubgraph` pattern
//! (which inlines `Half`) fuses either expansion into a single `Gelu`
//! node, which the epilog pass can then fuse into the matmul ahead of
//! it.
//!
//! Run with `cargo run --example gelu_fusion`.

use pypm::dsl::LibraryConfig;
use pypm::engine::{Pipeline, RewritePass, Session};
use pypm::graph::{DType, Graph, NodeId, TensorMeta};

/// Builds `expanded_gelu(MatMul(a, w))`, spelling the half as directed.
fn build(s: &mut Session, use_div: bool) -> Graph {
    let mut g = Graph::new();
    let a = g.input(&mut s.syms, DType::F32, [32, 64]);
    let w = g.input(&mut s.syms, DType::F32, [64, 128]);
    let (matmul, div, mul, add, erf) = (s.ops.matmul, s.ops.div, s.ops.mul, s.ops.add, s.ops.erf);
    let x = g
        .op(&mut s.syms, &s.registry, matmul, vec![a, w], vec![])
        .unwrap();

    let konst = |s: &mut Session, g: &mut Graph, milli: i64| -> NodeId {
        g.op_with_meta(
            s.ops.const_scalar,
            vec![],
            vec![(s.ops.value_milli_attr, milli)],
            TensorMeta::scalar(DType::F32),
        )
        .unwrap()
    };

    let half = if use_div {
        let two = konst(s, &mut g, 2000);
        g.op(&mut s.syms, &s.registry, div, vec![x, two], vec![])
            .unwrap()
    } else {
        let h = konst(s, &mut g, 500);
        g.op(&mut s.syms, &s.registry, mul, vec![x, h], vec![])
            .unwrap()
    };
    let sqrt2 = konst(s, &mut g, 1414);
    let xd = g
        .op(&mut s.syms, &s.registry, div, vec![x, sqrt2], vec![])
        .unwrap();
    let e = g
        .op(&mut s.syms, &s.registry, erf, vec![xd], vec![])
        .unwrap();
    let one = konst(s, &mut g, 1000);
    let onep = g
        .op(&mut s.syms, &s.registry, add, vec![one, e], vec![])
        .unwrap();
    let out = g
        .op(&mut s.syms, &s.registry, mul, vec![half, onep], vec![])
        .unwrap();
    g.mark_output(out);
    g
}

fn main() {
    for use_div in [true, false] {
        let spelling = if use_div { "Div(x, 2)" } else { "Mul(x, 0.5)" };
        let mut s = Session::new();
        let mut g = build(&mut s, use_div);
        let before = g.live_count();

        let rules = s.load_library(LibraryConfig::epilog_only());
        let stats = Pipeline::new(&mut s)
            .with(RewritePass::new(rules))
            .run(&mut g)
            .unwrap()
            .total();

        let root = g.outputs()[0];
        println!(
            "{spelling:<12} : {before} nodes -> {} nodes in {} rewrites; root = {}(epilog = {:?})",
            g.live_count(),
            stats.rewrites_fired,
            s.syms.op_name(g.node(root).op),
            g.attr(root, s.ops.epilog_attr),
        );
        assert_eq!(g.node(root).op, s.ops.gemm_epilog);
    }
    println!("\nBoth GELU spellings collapse to the same fused GemmEpilog kernel.");
}
