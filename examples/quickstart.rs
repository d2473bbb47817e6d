//! Quickstart: the paper's Figure 1 end to end.
//!
//! Declares the `MMxyT` pattern (`MatMul(x, Trans(y))` on rank-2
//! tensors), attaches the dtype-dispatching `cublasrule`, and runs the
//! rewrite pass over both an f32 and an i8 graph — showing the typed
//! rule picking a different cuBLAS kernel for each.
//!
//! Run with `cargo run --example quickstart`.

use pypm::dsl::LibraryConfig;
use pypm::engine::{Pipeline, RewritePass, Session};
use pypm::graph::{DType, Graph};

fn demo(dtype: DType) {
    let mut s = Session::new();
    let mut g = Graph::new();

    // x : [64, 32], y : [16, 32]; the kernel computes x·yᵀ : [64, 16].
    let x = g.input(&mut s.syms, dtype, [64, 32]);
    let y = g.input(&mut s.syms, dtype, [16, 32]);
    let (trans, matmul) = (s.ops.trans, s.ops.matmul);
    let yt = g
        .op(&mut s.syms, &s.registry, trans, vec![y], vec![])
        .unwrap();
    let mm = g
        .op(&mut s.syms, &s.registry, matmul, vec![x, yt], vec![])
        .unwrap();
    g.mark_output(mm);

    println!("--- {dtype} graph before ---");
    println!("{}", g.to_dot(&s.syms));

    let rules = s.load_library(LibraryConfig::all());
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules))
        .run(&mut g)
        .unwrap();
    let stats = report.total();

    println!("--- after ({stats}) ---");
    println!("{}", g.to_dot(&s.syms));
    let root = g.outputs()[0];
    println!(
        "root is now {} : {}\n",
        s.syms.op_name(g.node(root).op),
        g.shapes().display(g.node(root).meta)
    );
}

fn main() {
    // f32 inputs select cublasMM_xyT_f32 …
    demo(DType::F32);
    // … i8 inputs select cublasMM_xyT_i8 …
    demo(DType::I8);
    // … and f16 inputs match the pattern but fail both rule guards, so
    // the graph is left alone (the paper's "if no rule can apply, none
    // fires").
    demo(DType::F16);
}
