//! Failure-injection tests: every documented error path of the graph
//! substrate must be reachable, reported as an `Err`, and leave the
//! graph unchanged and valid.

use pypm_core::SymbolTable;
use pypm_graph::{DType, Graph, GraphError, NodeId, OpRegistry, StdOps};

struct Fx {
    syms: SymbolTable,
    reg: OpRegistry,
    ops: StdOps,
    g: Graph,
}

fn fx() -> Fx {
    let mut syms = SymbolTable::new();
    let mut reg = OpRegistry::new();
    let ops = StdOps::declare(&mut reg, &mut syms);
    Fx {
        syms,
        reg,
        ops,
        g: Graph::new(),
    }
}

fn mat(f: &mut Fx, dims: &[i64]) -> NodeId {
    f.g.input(&mut f.syms, DType::F32, dims)
}

#[test]
fn op_with_dead_input_is_rejected() {
    let mut f = fx();
    let a = mat(&mut f, &[4, 4]);
    let b = mat(&mut f, &[4, 4]);
    let victim =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
            .unwrap();
    f.g.mark_output(b);
    f.g.gc(); // collects `victim` (not reachable from outputs)
    assert!(!f.g.is_alive(victim));

    let rev_before = f.g.revision();
    let err =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![victim], vec![])
            .unwrap_err();
    assert!(matches!(err, GraphError::DeadInput { .. }));
    assert_eq!(f.g.revision(), rev_before, "failed op must not mutate");
    f.g.validate().unwrap();
}

#[test]
fn arity_mismatch_is_rejected_before_shape_inference() {
    let mut f = fx();
    let a = mat(&mut f, &[4, 4]);
    for (op, inputs) in [
        (f.ops.relu, vec![a, a]), // unary with 2 inputs
        (f.ops.matmul, vec![a]),  // binary with 1
        (f.ops.fmha, vec![a, a]), // ternary with 2
    ] {
        let err = f.g.op(&mut f.syms, &f.reg, op, inputs, vec![]).unwrap_err();
        assert!(matches!(err, GraphError::Arity { .. }));
    }
}

#[test]
fn shape_incompatibility_is_rejected() {
    let mut f = fx();
    let a = mat(&mut f, &[4, 8]);
    let b = mat(&mut f, &[9, 4]); // contraction mismatch: 8 vs 9
    let err =
        f.g.op(&mut f.syms, &f.reg, f.ops.matmul, vec![a, b], vec![])
            .unwrap_err();
    let GraphError::Shape { op, reason } = &err else {
        panic!("expected a shape error, got {err:?}");
    };
    assert_eq!(op, "MatMul");
    assert!(reason.contains("incompatible"), "{reason}");
    // Two inputs were asked for and two were given: not an arity error.
    assert!(!err.to_string().contains("expects"), "{err}");
    f.g.validate().unwrap();
}

#[test]
fn cyclic_replacement_is_rejected() {
    // relu1 -> relu2 -> relu3; replacing relu1 by relu3 would make
    // relu2 (a user of relu1) an ancestor of its own replacement.
    let mut f = fx();
    let a = mat(&mut f, &[4, 4]);
    let r1 =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
            .unwrap();
    let r2 =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![r1], vec![])
            .unwrap();
    let r3 =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![r2], vec![])
            .unwrap();
    f.g.mark_output(r3);

    let err = f.g.replace(r1, r3).unwrap_err();
    assert!(matches!(err, GraphError::WouldCycle { .. }));
    // The graph is untouched and still valid.
    f.g.validate().unwrap();
    assert_eq!(f.g.inputs(r2), [r1]);
}

#[test]
fn replace_with_dead_node_is_rejected() {
    let mut f = fx();
    let a = mat(&mut f, &[4, 4]);
    let r1 =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
            .unwrap();
    let dead =
        f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![a], vec![])
            .unwrap();
    f.g.mark_output(r1);
    f.g.gc();
    assert!(!f.g.is_alive(dead));
    // The error names the dead node, whichever side it is on.
    assert_eq!(
        f.g.replace(r1, dead),
        Err(GraphError::DeadInput { node: dead })
    );
    assert_eq!(
        f.g.replace(dead, r1),
        Err(GraphError::DeadInput { node: dead })
    );
    f.g.validate().unwrap();
}

#[test]
fn self_replacement_is_a_noop() {
    let mut f = fx();
    let a = mat(&mut f, &[4, 4]);
    let r =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
            .unwrap();
    f.g.mark_output(r);
    let rev = f.g.revision();
    f.g.replace(r, r).unwrap();
    assert_eq!(f.g.revision(), rev);
}

#[test]
fn errors_render_human_readably() {
    let mut f = fx();
    let a = mat(&mut f, &[4, 4]);
    let err =
        f.g.op(&mut f.syms, &f.reg, f.ops.matmul, vec![a], vec![])
            .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("MatMul"), "{msg}");
    assert!(msg.contains("2"), "{msg}");
}

#[test]
fn opaque_with_dead_input_is_rejected() {
    let mut f = fx();
    let a = mat(&mut f, &[4, 4]);
    let b = mat(&mut f, &[4, 4]);
    let dead =
        f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
            .unwrap();
    f.g.mark_output(b);
    f.g.gc();
    let foreign = f.syms.op("Foreign", 1);
    let meta = f.g.meta(DType::F32, [4, 4]);
    assert!(f.g.opaque(&mut f.syms, foreign, vec![dead], meta).is_err());
}
