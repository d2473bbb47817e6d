//! The paper's pattern library, built with the frontend DSL.
//!
//! Every pattern the paper shows (Figs. 1–4, 14) plus the two
//! optimization patterns its evaluation deploys (§4.1: fused multi-head
//! attention and GEMM epilog fusion) are defined here against the
//! standard operator set of [`pypm_graph::StdOps`]:
//!
//! | name            | paper  | kind                                   |
//! |-----------------|--------|----------------------------------------|
//! | `MMxyT`         | Fig. 1 | cuBLAS xyᵀ kernel selection, typed rule |
//! | `Half`, `Gelu`  | Fig. 2 | pattern alternates + cross-pattern use |
//! | `UnaryChain`    | Fig. 3 | recursive + function pattern           |
//! | `ReluChain`     | §2.2   | idempotence fusion with a rule         |
//! | `TransTrans`    | §1     | Trans(Trans(x)) → x                    |
//! | `TransProduct`  | §1     | MatMul(Trans x, Trans y) → Trans(MatMul y x) |
//! | `FMHA`          | §4.1   | multi-head attention fusion            |
//! | `EpilogRelu`/…  | §4.1   | GEMM + pointwise epilog fusion         |
//! | `PwSubgraph`, `MatMulEpilog` | Fig. 14 | directed graph partitioning |

use crate::builder::Frontend;
use crate::ruleset::{Rhs, RuleSet};
use pypm_core::{Expr, PatternStore, SymbolTable, Var};
use pypm_graph::{Activation, DType, StdOps, TensorAttrs};

/// Which optimization groups to enable — the four compile configurations
/// of the paper's benchmarks ("once with the FMHA and Epilog
/// optimizations disabled, once each with FMHA and Epilog only, and once
/// with both", §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryConfig {
    /// Fused multi-head attention rewriting.
    pub fmha: bool,
    /// GEMM-epilog fusion (includes the GELU-subgraph fusion that feeds
    /// it).
    pub epilog: bool,
    /// Algebraic cleanups (Trans/Trans, product-of-transposes, RELU
    /// chains). Not part of the paper's benchmark configurations; used by
    /// the examples and ablations.
    pub algebraic: bool,
    /// The Fig. 1 cuBLAS selection pattern.
    pub cublas: bool,
    /// Number of auto-generated synthetic rules appended to the library
    /// (0 disables them — the default everywhere). Each is a distinct
    /// pointwise-over-GEMM variant guarded by an unsatisfiable rank
    /// assertion, so loading them scales *matching* cost without ever
    /// firing — the rules-count dimension of the bench suite (probes
    /// per node vs ruleset size, per matcher backend). Capped at
    /// [`LibraryConfig::MAX_SYNTH`].
    pub synth: u16,
}

impl LibraryConfig {
    /// The synthetic-rule generator enumerates pointwise wrappers over
    /// a GEMM up to three levels deep: 8 × 8 × 8 distinct shapes.
    pub const MAX_SYNTH: u16 = 512;

    /// Neither benchmark optimization (the paper's baseline compile).
    pub fn none() -> Self {
        LibraryConfig {
            fmha: false,
            epilog: false,
            algebraic: false,
            cublas: false,
            synth: 0,
        }
    }

    /// This configuration with `n` synthetic scaling rules appended
    /// (clamped to [`LibraryConfig::MAX_SYNTH`]).
    pub fn with_synth(self, n: u16) -> Self {
        LibraryConfig {
            synth: n.min(Self::MAX_SYNTH),
            ..self
        }
    }

    /// FMHA only.
    pub fn fmha_only() -> Self {
        LibraryConfig {
            fmha: true,
            ..Self::none()
        }
    }

    /// Epilog only.
    pub fn epilog_only() -> Self {
        LibraryConfig {
            epilog: true,
            ..Self::none()
        }
    }

    /// Both benchmark optimizations (§4.1's fourth configuration).
    pub fn both() -> Self {
        LibraryConfig {
            fmha: true,
            epilog: true,
            ..Self::none()
        }
    }

    /// Everything, including the example/ablation patterns.
    pub fn all() -> Self {
        LibraryConfig {
            fmha: true,
            epilog: true,
            algebraic: true,
            cublas: true,
            ..Self::none()
        }
    }
}

/// Builds the configured pattern library.
///
/// The returned stores contain everything the rewrite engine needs; the
/// `StdOps` symbols in `ops` must have been declared against a symbol
/// table that seeded the returned one (pass the same table the graph
/// uses).
///
/// # Panics
///
/// Panics only on internal inconsistency (the library is validated on
/// construction).
pub fn build_library(
    cfg: LibraryConfig,
    syms: SymbolTable,
    pats: PatternStore,
    ops: &StdOps,
    tattrs: &TensorAttrs,
) -> (SymbolTable, PatternStore, RuleSet) {
    let mut fe = Frontend {
        syms,
        pats,
        builder: Default::default(),
    };

    if cfg.fmha {
        define_fmha(&mut fe, ops, tattrs);
    }
    if cfg.epilog {
        define_gelu_fusion(&mut fe, ops, tattrs);
        define_epilogs(&mut fe, ops, tattrs);
    }
    if cfg.algebraic {
        define_algebraic(&mut fe, ops, tattrs);
    }
    if cfg.cublas {
        define_cublas(&mut fe, ops, tattrs);
    }
    if cfg.synth > 0 {
        define_synthetic(
            &mut fe,
            ops,
            tattrs,
            cfg.synth.min(LibraryConfig::MAX_SYNTH),
        );
    }

    let (syms, pats, rs) = fe.serialize().expect("library patterns validate");
    (syms, pats, rs)
}

/// Fig. 1: `MMxyT` — `MatMul(x, Trans(y))` on rank-2 tensors, rewritten
/// to the dtype-matched cuBLAS kernel by a traced rule.
fn define_cublas(fe: &mut Frontend, ops: &StdOps, tattrs: &TensorAttrs) {
    let matmul = ops.matmul;
    let trans = ops.trans;
    let rank = tattrs.rank;
    let elt = tattrs.elt_type;
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
    let i8c = DType::I8.code();
    let both_f32 = Expr::var_attr(x, elt)
        .eq(Expr::Const(f32c))
        .and(Expr::var_attr(y, elt).eq(Expr::Const(f32c)));
    let both_i8 = Expr::var_attr(x, elt)
        .eq(Expr::Const(i8c))
        .and(Expr::var_attr(y, elt).eq(Expr::Const(i8c)));
    let f32mm = ops.cublas_mm_xyt_f32;
    let i8mm = ops.cublas_mm_xyt_i8;
    fe.rule("MMxyT", "cublasrule", move |r| {
        // assert (f32 && f32) || (i8 && i8); then dispatch per dtype —
        // the traced if/elif of Fig. 1.
        r.assert_(both_f32.clone().or(both_i8.clone()));
        r.when(both_f32.clone(), |r| {
            r.ret(Rhs::app(f32mm, vec![Rhs::Var(x), Rhs::Var(y)]));
        });
        r.when(both_i8.clone(), |r| {
            r.ret(Rhs::app(i8mm, vec![Rhs::Var(x), Rhs::Var(y)]));
        });
    });
}

/// Fig. 2: `Half` (two alternates) and `Gelu` (which inlines `Half`),
/// rewritten to the fused single-node `Gelu` operator.
///
/// Constants are `ConstScalar` nodes carrying `value_milli` (value×1000):
/// `Div(x, 2)` is `Div(x, c)` with `c.value_milli = 2000`, `Mul(x, 0.5)`
/// has `c.value_milli = 500`, `1 + …` uses `1000`, and `x/√2` accepts the
/// truncated `1414` the HF models emit.
fn define_gelu_fusion(fe: &mut Frontend, ops: &StdOps, _tattrs: &TensorAttrs) {
    let div = ops.div;
    let mul = ops.mul;
    let add = ops.add;
    let erf = ops.erf;
    let vm = ops.value_milli_attr;
    let gelu = ops.gelu;

    // Half(x) = Div(x, 2)
    fe.pattern("Half", |p| {
        let x = p.param("x");
        let c = p.var();
        let cm = p.attr(c, vm);
        p.assert_(cm.eq(Expr::Const(2000)));
        let px = p.v(x);
        let pc = p.v(c);
        p.op(div, vec![px, pc])
    });
    // Half(x) = Mul(x, 0.5)
    fe.pattern("Half", |p| {
        let x = p.param("x");
        let c = p.var();
        let cm = p.attr(c, vm);
        p.assert_(cm.eq(Expr::Const(500)));
        let px = p.v(x);
        let pc = p.v(c);
        p.op(mul, vec![px, pc])
    });

    // Gelu(x) = Mul(Half(x), Add(1, Erf(Div(x, √2))))
    fe.pattern("GeluSubgraph", |p| {
        let x = p.param("x");
        let one = p.var();
        let sqrt2 = p.var();
        p.assert_(p.attr(one, vm).eq(Expr::Const(1000)));
        p.assert_(p.attr(sqrt2, vm).eq(Expr::Const(1414)));
        let half = p.inline("Half", vec![x]);
        let px = p.v(x);
        let psqrt2 = p.v(sqrt2);
        let xdiv = p.op(div, vec![px, psqrt2]);
        let erfx = p.op(erf, vec![xdiv]);
        let pone = p.v(one);
        let one_plus = p.op(add, vec![pone, erfx]);
        p.op(mul, vec![half, one_plus])
    });

    let x = fe.syms.var("x");
    fe.rule("GeluSubgraph", "fuse_gelu", move |r| {
        r.ret(Rhs::app(gelu, vec![Rhs::Var(x)]));
    });
}

/// §4.1: GEMM-epilog fusion — a pointwise activation applied to a matrix
/// multiplication fuses into the `GemmEpilog` kernel, one pattern per
/// supported activation (mirroring the bounded activation menu of the
/// paper's epilog kernel).
fn define_epilogs(fe: &mut Frontend, ops: &StdOps, tattrs: &TensorAttrs) {
    let rank = tattrs.rank;
    let matmul = ops.matmul;
    let ge = ops.gemm_epilog;
    let epilog_attr = ops.epilog_attr;
    let acts = [
        ("EpilogRelu", ops.relu, Activation::Relu),
        ("EpilogGelu", ops.gelu, Activation::Gelu),
        ("EpilogTanh", ops.tanh, Activation::Tanh),
        ("EpilogSigmoid", ops.sigmoid, Activation::Sigmoid),
    ];
    for (name, act_op, act) in acts {
        fe.pattern(name, |p| {
            let a = p.param("a");
            let b = p.param("b");
            // The fused kernel supports plain and batched GEMM: rank 2–3.
            let ra = p.attr(a, rank);
            p.assert_(Expr::Const(1).lt(ra.clone()).and(ra.lt(Expr::Const(4))));
            let pa = p.v(a);
            let pb = p.v(b);
            let mm = p.op(matmul, vec![pa, pb]);
            p.op(act_op, vec![mm])
        });
        let a = fe.syms.var("a");
        let b = fe.syms.var("b");
        fe.rule(name, &format!("fuse_{name}"), move |r| {
            r.ret(Rhs::App {
                op: ge,
                args: vec![Rhs::Var(a), Rhs::Var(b)],
                attrs: vec![(epilog_attr, act.code())],
            });
        });
    }

    // Conv-side epilogs: act(BiasAdd(Conv2d(x, w), b)) fuses into the
    // ConvBiasAct kernel (the convolution lowering of the same GEMM
    // epilog idea — TorchVision models are all convolutions).
    let conv2d = ops.conv2d;
    let bias_add = ops.bias_add;
    let cba = ops.conv_bias_act;
    let conv_acts = [
        ("ConvEpilogRelu", ops.relu, Activation::Relu),
        ("ConvEpilogGelu", ops.gelu, Activation::Gelu),
        ("ConvEpilogSigmoid", ops.sigmoid, Activation::Sigmoid),
    ];
    for (name, act_op, act) in conv_acts {
        fe.pattern(name, |p| {
            let x = p.param("x");
            let w = p.param("w");
            let b = p.param("b");
            let px = p.v(x);
            let pw = p.v(w);
            let conv = p.op(conv2d, vec![px, pw]);
            let pb = p.v(b);
            let biased = p.op(bias_add, vec![conv, pb]);
            p.op(act_op, vec![biased])
        });
        let x = fe.syms.var("x");
        let w = fe.syms.var("w");
        let b = fe.syms.var("b");
        fe.rule(name, &format!("fuse_{name}"), move |r| {
            r.ret(Rhs::App {
                op: cba,
                args: vec![Rhs::Var(x), Rhs::Var(w), Rhs::Var(b)],
                attrs: vec![(epilog_attr, act.code())],
            });
        });
    }
}

/// §4.1: fused multi-head attention —
/// `MatMul(Softmax(scale(MatMul(q, Trans(k)))), v) → FMHA(q, k, v)`,
/// with `scale` appearing as `Mul(·, c)`, `Div(·, c)`, or absent
/// (three alternates, §2.1-style).
fn define_fmha(fe: &mut Frontend, ops: &StdOps, tattrs: &TensorAttrs) {
    let matmul = ops.matmul;
    let trans = ops.trans;
    let softmax = ops.softmax;
    let mul = ops.mul;
    let div = ops.div;
    let fmha = ops.fmha;
    let rank = tattrs.rank;

    let scaled = [Some(mul), Some(div), None];
    for scale_op in scaled {
        fe.pattern("MHA", move |p| {
            let q = p.param("q");
            let k = p.param("k");
            let v = p.param("v");
            let rq = p.attr(q, rank);
            // Attention operates on (batched) matrices: rank 2–4.
            p.assert_(Expr::Const(1).lt(rq.clone()).and(rq.lt(Expr::Const(5))));
            let pk = p.v(k);
            let kt = p.op(trans, vec![pk]);
            let pq = p.v(q);
            let scores = p.op(matmul, vec![pq, kt]);
            let scaled_scores = match scale_op {
                Some(op) => {
                    let c = p.var();
                    p.assert_(p.attr(c, rank).eq(Expr::Const(0)));
                    let pc = p.v(c);
                    p.op(op, vec![scores, pc])
                }
                None => scores,
            };
            let probs = p.op(softmax, vec![scaled_scores]);
            let pv = p.v(v);
            p.op(matmul, vec![probs, pv])
        });
    }
    let q = fe.syms.var("q");
    let k = fe.syms.var("k");
    let v = fe.syms.var("v");
    fe.rule("MHA", "fuse_mha", move |r| {
        r.ret(Rhs::app(fmha, vec![Rhs::Var(q), Rhs::Var(k), Rhs::Var(v)]));
    });
}

/// §1 and §2.2: algebraic cleanups — transpose elimination, the
/// product-of-transposes rotation, RELU-chain idempotence, and the
/// pattern-only `UnaryChain`, `PwSubgraph` and `MatMulEpilog` from
/// Figs. 3 and 14 (used by tests and directed graph partitioning).
fn define_algebraic(fe: &mut Frontend, ops: &StdOps, tattrs: &TensorAttrs) {
    let trans = ops.trans;
    let matmul = ops.matmul;
    let relu = ops.relu;

    // Trans(Trans(x)) → x.
    fe.pattern("TransTrans", |p| {
        let x = p.param("x");
        let px = p.v(x);
        let inner = p.op(trans, vec![px]);
        p.op(trans, vec![inner])
    });
    let x = fe.syms.var("x");
    fe.rule("TransTrans", "cancel_trans", move |r| {
        r.ret(Rhs::Var(x));
    });

    // MatMul(Trans(x), Trans(y)) → Trans(MatMul(y, x)) (§1).
    fe.pattern("TransProduct", |p| {
        let x = p.param("x");
        let y = p.param("y");
        let px = p.v(x);
        let py = p.v(y);
        let xt = p.op(trans, vec![px]);
        let yt = p.op(trans, vec![py]);
        p.op(matmul, vec![xt, yt])
    });
    let x = fe.syms.var("x");
    let y = fe.syms.var("y");
    fe.rule("TransProduct", "rotate_trans", move |r| {
        let mm = Rhs::app(matmul, vec![Rhs::Var(y), Rhs::Var(x)]);
        r.ret(Rhs::app(trans, vec![mm]));
    });

    // ReluChain: Relu(ReluChain(x)) ‖ Relu(x), collapsed to Relu(x) by
    // idempotence (§2.2).
    fe.pattern("ReluChain", |p| {
        let x = p.param("x");
        let inner = p.rec(vec![x]);
        p.op(relu, vec![inner])
    });
    fe.pattern("ReluChain", |p| {
        let x = p.param("x");
        let px = p.v(x);
        p.op(relu, vec![px])
    });
    let x = fe.syms.var("x");
    fe.rule("ReluChain", "collapse_relu", move |r| {
        r.ret(Rhs::app(relu, vec![Rhs::Var(x)]));
    });

    // Fig. 3's UnaryChain (pattern-only; collapsing an arbitrary unary
    // chain is not sound in general).
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

    // Fig. 14's PwSubgraph: a chain of unary pointwise operators ending
    // at the parameter. The paper matches "any unary_pointwise operator"
    // per level; the core encoding enumerates the registry's unary
    // pointwise menu as alternates, which matches heterogeneous chains.
    let pointwise = [
        ops.relu,
        ops.gelu,
        ops.erf,
        ops.exp,
        ops.tanh,
        ops.sigmoid,
        ops.sqrt,
        ops.neg,
    ];
    for u in pointwise {
        fe.pattern("PwSubgraph", move |p| {
            let z = p.param("z");
            let inner = p.rec(vec![z]);
            p.op(u, vec![inner])
        });
    }
    fe.pattern("PwSubgraph", |p| {
        let z = p.param("z");
        p.v(z)
    });

    // Fig. 14's MatMulEpilog: a matrix multiply followed by any number of
    // pointwise operations — x <= PwSubgraph(MatMul(a, b)); return x.
    let _ = tattrs;
    fe.pattern("MatMulEpilog", |p| {
        let x = p.param("x");
        let a = p.var();
        let b = p.var();
        let z = p.var();
        let chain = p.inline("PwSubgraph", vec![z]);
        let pa = p.v(a);
        let pb = p.v(b);
        let mm = p.op(matmul, vec![pa, pb]);
        // (x ~ chain, then z ~ MatMul(a,b)): the chain's leaf z must
        // itself be the MatMul.
        p.constrain(x, chain);
        p.constrain(z, mm);
        p.v(x)
    });
}

/// The rules-count scaling dimension: `count` auto-generated variants
/// of the epilog shape — pointwise wrappers over a GEMM, two or three
/// levels deep (`u(v(MatMul(x, y)))`, then `w(u(v(MatMul(x, y))))`
/// past the 64 two-level combinations), enumerated over the registry's
/// unary pointwise menu. Each variant:
///
/// * is structurally distinct (the wrapper combination is unique per
///   index), so the fused discrimination tree grows real branches —
///   this is what takes a zoo library from a dozen rules to 200+;
/// * shares its `MatMul` spine with the genuine epilog patterns, so
///   prefix sharing in the tree is exercised, not just fan-out;
/// * carries an unsatisfiable rank assertion (`rank(x) = 1_000_000+i`,
///   also what makes equal-shaped variants distinct under pattern
///   hash-consing), so it can never match: zoo firing sequences and
///   `matches_found` are *unchanged* at any `synth` level, and the only
///   thing that scales is discovery/probe cost — exactly the variable
///   the rules-count bench series isolates;
/// * still carries a rule, so the rewrite loop treats it as a live
///   pattern and probes it at every candidate node.
fn define_synthetic(fe: &mut Frontend, ops: &StdOps, tattrs: &TensorAttrs, count: u16) {
    let pointwise = [
        ops.relu,
        ops.gelu,
        ops.erf,
        ops.exp,
        ops.tanh,
        ops.sigmoid,
        ops.sqrt,
        ops.neg,
    ];
    let rank = tattrs.rank;
    let matmul = ops.matmul;
    for i in 0..count as usize {
        let name = format!("Synth{i:03}");
        let u = pointwise[i % pointwise.len()];
        let v = pointwise[(i / 8) % pointwise.len()];
        let w = (i >= 64).then(|| pointwise[(i / 64) % pointwise.len()]);
        let marker = 1_000_000 + i as i64;
        fe.pattern(&name, move |p| {
            let x = p.param("x");
            let y = p.param("y");
            p.assert_(p.attr(x, rank).eq(Expr::Const(marker)));
            let px = p.v(x);
            let py = p.v(y);
            let mm = p.op(matmul, vec![px, py]);
            let inner = p.op(v, vec![mm]);
            let outer = p.op(u, vec![inner]);
            match w {
                Some(w) => p.op(w, vec![outer]),
                None => outer,
            }
        });
        let x = fe.syms.var("x");
        fe.rule(&name, &format!("synth_rule{i:03}"), move |r| {
            r.ret(Rhs::Var(x));
        });
    }
}

/// Re-exported for callers that need the variable handles of a library
/// pattern's parameters.
pub fn param(syms: &SymbolTable, def_params: &[Var], name: &str) -> Option<Var> {
    def_params
        .iter()
        .copied()
        .find(|&v| syms.var_name(v) == name)
}

/// Like [`build_library`], but extends stores in place instead of
/// consuming them — the form the rewrite engine's `Session` uses.
pub fn build_library_into(
    cfg: LibraryConfig,
    syms: &mut SymbolTable,
    pats: &mut PatternStore,
    ops: &StdOps,
    tattrs: &TensorAttrs,
) -> RuleSet {
    let s = std::mem::take(syms);
    let p = std::mem::take(pats);
    let (s, p, rs) = build_library(cfg, s, p, ops, tattrs);
    *syms = s;
    *pats = p;
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_graph::OpRegistry;

    fn build(cfg: LibraryConfig) -> (SymbolTable, PatternStore, RuleSet) {
        let mut syms = SymbolTable::new();
        let mut reg = OpRegistry::new();
        let ops = StdOps::declare(&mut reg, &mut syms);
        let tattrs = TensorAttrs::intern(&mut syms);
        let pats = PatternStore::new();
        build_library(cfg, syms, pats, &ops, &tattrs)
    }

    #[test]
    fn full_library_validates() {
        let (_syms, _pats, rs) = build(LibraryConfig::all());
        assert!(rs.find("MMxyT").is_some());
        assert!(rs.find("GeluSubgraph").is_some());
        assert!(rs.find("MHA").is_some());
        assert!(rs.find("EpilogRelu").is_some());
        assert!(rs.find("PwSubgraph").is_some());
        assert!(rs.find("MatMulEpilog").is_some());
        assert!(rs.find("UnaryChain").is_some());
    }

    #[test]
    fn configs_gate_pattern_groups() {
        let (_s, _p, none) = build(LibraryConfig::none());
        assert!(none.is_empty());
        let (_s, _p, fmha) = build(LibraryConfig::fmha_only());
        assert!(fmha.find("MHA").is_some());
        assert!(fmha.find("EpilogRelu").is_none());
        let (_s, _p, ep) = build(LibraryConfig::epilog_only());
        assert!(ep.find("MHA").is_none());
        assert!(ep.find("EpilogRelu").is_some());
        assert!(ep.find("GeluSubgraph").is_some());
    }

    #[test]
    fn mha_has_three_alternates_and_one_rule() {
        let (syms, pats, rs) = build(LibraryConfig::fmha_only());
        let def = rs.find("MHA").unwrap();
        let text = pats.display(&syms, def.pattern);
        // Two top-level alternates nested: (a | (b | c)).
        assert_eq!(text.matches(" | ").count(), 2, "{text}");
        assert_eq!(def.rules.len(), 1);
    }

    #[test]
    fn cublas_rule_traced_into_two_rules() {
        let (_syms, _pats, rs) = build(LibraryConfig::all());
        let def = rs.find("MMxyT").unwrap();
        assert_eq!(def.rules.len(), 2);
    }

    #[test]
    fn synth_appends_distinct_never_matching_rules() {
        let (_s, _p, base) = build(LibraryConfig::all());
        let (syms, pats, rs) = build(LibraryConfig::all().with_synth(100));
        assert_eq!(rs.len(), base.len() + 100);
        let d0 = rs.find("Synth000").unwrap();
        let d99 = rs.find("Synth099").unwrap();
        assert_eq!(d0.rules.len(), 1);
        assert_ne!(
            d0.pattern, d99.pattern,
            "hash-consing must keep variants distinct"
        );
        // Three-level variants appear past the 64 two-level combos.
        assert!(
            pats.display(&syms, d99.pattern).matches('(').count()
                > pats.display(&syms, d0.pattern).matches('(').count(),
            "deep variant should nest one level more"
        );
        // The cap clamps rather than panics.
        let (_s, _p, capped) = build(LibraryConfig::all().with_synth(u16::MAX));
        assert_eq!(capped.len(), base.len() + LibraryConfig::MAX_SYNTH as usize);
    }

    #[test]
    fn library_roundtrips_through_binary() {
        let (syms, pats, rs) = build(LibraryConfig::all());
        let bin = crate::binary::encode(&rs, &syms, &pats);
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let rs2 = crate::binary::decode(&bin, &mut syms2, &mut pats2).unwrap();
        assert_eq!(
            crate::text::print_ruleset(&rs, &syms, &pats),
            crate::text::print_ruleset(&rs2, &syms2, &pats2)
        );
    }
}
