//! Operator registry: the graph-level view of the signature `Σ`.
//!
//! PyPM programs begin with `@op` declarations (paper §2, Fig. 1) that fix
//! each operator's name, arity and attributes. The [`OpRegistry`] is the
//! graph substrate's version of that declaration list: every operator
//! carries an [`OpClass`] (used by `op_class` guards like the one in
//! Fig. 14's `PwSubgraph` pattern) and a [`ShapeRule`] used for shape
//! inference when rewrites build replacement nodes.

use crate::tensor::{ShapeId, ShapeTable, TensorMeta};
use pypm_core::{IdMap, Symbol, SymbolTable};
use std::fmt;

/// Semantic class of an operator, exposed to guards as the `op_class`
/// attribute (paper Fig. 14 matches `opclass("unary_pointwise")`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// One tensor in, same shape out (RELU, GELU, Erf, …).
    UnaryPointwise,
    /// Two tensors in, broadcast shape out (Add, Mul, Div, …).
    BinaryPointwise,
    /// Contractions (MatMul, Conv2d).
    Contraction,
    /// Data movement (Trans, Reshape, Flatten).
    Movement,
    /// Reductions and normalizations (Softmax, LayerNorm, pooling).
    Reduction,
    /// Fused vendor kernels (FMHA, GEMM-with-epilog, cuBLAS variants).
    Fused,
    /// Constants and graph inputs.
    Nullary,
    /// Operators DLCB does not understand (§4.1: "unfamiliar operators are
    /// represented as opaque nodes, and cannot be matched").
    Opaque,
}

impl OpClass {
    /// Stable numeric code for guard expressions, the analogue of the
    /// paper's `opclass("unary_pointwise")` helper.
    pub fn code(self) -> i64 {
        match self {
            OpClass::UnaryPointwise => 1,
            OpClass::BinaryPointwise => 2,
            OpClass::Contraction => 3,
            OpClass::Movement => 4,
            OpClass::Reduction => 5,
            OpClass::Fused => 6,
            OpClass::Nullary => 7,
            OpClass::Opaque => 8,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::UnaryPointwise => "unary_pointwise",
            OpClass::BinaryPointwise => "binary_pointwise",
            OpClass::Contraction => "contraction",
            OpClass::Movement => "movement",
            OpClass::Reduction => "reduction",
            OpClass::Fused => "fused",
            OpClass::Nullary => "nullary",
            OpClass::Opaque => "opaque",
        };
        f.write_str(s)
    }
}

/// How an operator's output metadata is derived from its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeRule {
    /// Output metadata equals the first input's.
    SameAsFirst,
    /// Broadcast of the two inputs' shapes; dtype of the first input.
    Broadcast,
    /// Batched matrix multiply: `[..., m, k] × [..., k, n] → [..., m, n]`.
    MatMul,
    /// Matrix multiply with transposed second operand (the cuBLAS xyᵀ
    /// kernels of Fig. 1): `[..., m, k] × [..., n, k] → [..., m, n]`.
    MatMulNT,
    /// Last two dimensions swapped.
    Transpose,
    /// Rank-preserving reduction (softmax: shape unchanged).
    SoftmaxLike,
    /// Conv2d NCHW with `stride` attribute (same-padding model).
    Conv2d,
    /// Flatten to `[batch, rest]`.
    Flatten,
    /// Nullary: metadata must be supplied explicitly.
    Explicit,
}

/// Per-operator information.
#[derive(Debug, Clone)]
pub struct OpInfo {
    /// The interned symbol.
    pub symbol: Symbol,
    /// Arity (number of dataflow inputs).
    pub arity: usize,
    /// Semantic class.
    pub class: OpClass,
    /// Shape-inference rule.
    pub shape_rule: ShapeRule,
    /// Simulated FLOPs per output element (used by the cost model).
    pub flops_per_elem: u64,
}

/// Errors raised by shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// Wrong number of inputs for the operator's rule.
    WrongInputCount {
        /// Operator name.
        op: String,
        /// Inputs supplied.
        got: usize,
    },
    /// Input shapes incompatible with the rule (e.g. `k` mismatch in
    /// matmul).
    Incompatible {
        /// Operator name.
        op: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The rule needs explicit metadata (nullary ops).
    NeedsExplicitMeta {
        /// Operator name.
        op: String,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::WrongInputCount { op, got } => {
                write!(f, "operator {op}: wrong input count {got}")
            }
            ShapeError::Incompatible { op, reason } => {
                write!(f, "operator {op}: incompatible inputs ({reason})")
            }
            ShapeError::NeedsExplicitMeta { op } => {
                write!(f, "operator {op}: metadata must be supplied explicitly")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// The operator registry.
#[derive(Debug, Clone, Default)]
pub struct OpRegistry {
    by_symbol: IdMap<Symbol, OpInfo>,
}

impl OpRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an operator, interning its symbol in `syms`.
    pub fn declare(
        &mut self,
        syms: &mut SymbolTable,
        name: &str,
        arity: usize,
        class: OpClass,
        shape_rule: ShapeRule,
        flops_per_elem: u64,
    ) -> Symbol {
        let symbol = syms.op(name, arity);
        self.by_symbol.insert(
            symbol,
            OpInfo {
                symbol,
                arity,
                class,
                shape_rule,
                flops_per_elem,
            },
        );
        symbol
    }

    /// Looks up operator information.
    pub fn info(&self, op: Symbol) -> Option<&OpInfo> {
        self.by_symbol.get(&op)
    }

    /// The class of an operator; unregistered symbols (graph-input
    /// constants) are [`OpClass::Nullary`].
    pub fn class(&self, op: Symbol) -> OpClass {
        self.by_symbol
            .get(&op)
            .map(|i| i.class)
            .unwrap_or(OpClass::Nullary)
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        self.by_symbol.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_symbol.is_empty()
    }

    /// Infers the output metadata of `op` applied to `inputs`, whose
    /// shapes are ids of `shapes`; the result's shape is interned there.
    /// A result equal to an input's is that input's id, and a result the
    /// table holds allocates nothing: the extents are written into the
    /// table's own buffer before they are looked up.
    ///
    /// `attrs` supplies non-dataflow operator attributes (e.g. conv
    /// stride), as in the paper's "attributes … listed in the operator
    /// definition header" (§2).
    ///
    /// # Errors
    ///
    /// See [`ShapeError`].
    pub fn infer(
        &self,
        syms: &SymbolTable,
        op: Symbol,
        inputs: &[TensorMeta],
        attrs: &[(pypm_core::Attr, i64)],
        shapes: &mut ShapeTable,
    ) -> Result<TensorMeta, ShapeError> {
        let name = || syms.op_name(op).to_owned();
        let info = match self.by_symbol.get(&op) {
            Some(i) => i,
            None => {
                return Err(ShapeError::NeedsExplicitMeta { op: name() });
            }
        };
        if inputs.len() != info.arity {
            return Err(ShapeError::WrongInputCount {
                op: name(),
                got: inputs.len(),
            });
        }
        let with_shape = |meta: TensorMeta, shape| TensorMeta { shape, ..meta };
        match info.shape_rule {
            ShapeRule::SameAsFirst | ShapeRule::SoftmaxLike => inputs
                .first()
                .copied()
                .ok_or_else(|| ShapeError::WrongInputCount { op: name(), got: 0 }),
            ShapeRule::Broadcast => {
                let (a, b) = (inputs[0], inputs[1]);
                let shape =
                    shapes
                        .broadcast(a.shape, b.shape)
                        .ok_or_else(|| ShapeError::Incompatible {
                            op: name(),
                            reason: format!(
                                "cannot broadcast {} with {}",
                                shapes.display_shape(a.shape),
                                shapes.display_shape(b.shape)
                            ),
                        })?;
                Ok(with_shape(a, shape))
            }
            ShapeRule::MatMul | ShapeRule::MatMulNT => {
                let (a, b) = (inputs[0], inputs[1]);
                let (da, db) = (shapes.dims(a.shape), shapes.dims(b.shape));
                let (&[.., m, k1], &[.., r, c]) = (da, db) else {
                    return Err(ShapeError::Incompatible {
                        op: name(),
                        reason: "matmul inputs must have rank ≥ 2".into(),
                    });
                };
                // `b` is `[…, k, n]`, or `[…, n, k]` transposed.
                let (k2, n) = if info.shape_rule == ShapeRule::MatMul {
                    (r, c)
                } else {
                    (c, r)
                };
                if k1 != k2 {
                    return Err(ShapeError::Incompatible {
                        op: name(),
                        reason: format!("contraction mismatch {k1} vs {k2}"),
                    });
                }
                Ok(with_shape(a, batched(shapes, a.shape, [m, n])))
            }
            ShapeRule::Transpose => Ok(with_shape(inputs[0], shapes.transposed(inputs[0].shape))),
            ShapeRule::Conv2d => {
                let (x, w) = (inputs[0], inputs[1]);
                let (&[n, _c, h, wdim], &[out_c, _, _, _]) =
                    (shapes.dims(x.shape), shapes.dims(w.shape))
                else {
                    return Err(ShapeError::Incompatible {
                        op: name(),
                        reason: "conv2d expects NCHW input and OIHW weight".into(),
                    });
                };
                let stride = attrs
                    .iter()
                    .find(|(a, _)| syms.attr_name(*a) == "stride")
                    .map(|&(_, v)| v.max(1))
                    .unwrap_or(1);
                // Same-padding model: spatial dims divide by stride.
                let out = [
                    n,
                    out_c,
                    (h + stride - 1) / stride,
                    (wdim + stride - 1) / stride,
                ];
                Ok(with_shape(x, shapes.intern(&out)))
            }
            ShapeRule::Flatten => {
                let x = inputs[0];
                let dims = shapes.dims(x.shape);
                let batch = dims.first().copied().unwrap_or(1);
                let rest = dims.get(1..).map_or(1, |rest| rest.iter().product());
                Ok(with_shape(x, shapes.intern(&[batch, rest])))
            }
            ShapeRule::Explicit => Err(ShapeError::NeedsExplicitMeta { op: name() }),
        }
    }
}

/// A rank ≥ 2 shape's batch dimensions followed by `tail`.
fn batched(shapes: &mut ShapeTable, input: ShapeId, tail: [i64; 2]) -> ShapeId {
    shapes.intern_with(|shapes, out| {
        let dims = shapes.dims(input);
        out.extend_from_slice(&dims[..dims.len() - 2]);
        out.extend_from_slice(&tail);
    })
}

/// The standard operator set used by the model zoo and the pattern
/// library — DLCB's "(large) subset of PyTorch operators" (§4.1).
#[derive(Debug, Clone)]
pub struct StdOps {
    /// `MatMul(x, y)` — batched matrix multiplication.
    pub matmul: Symbol,
    /// `Trans(x)` — transpose of the last two dimensions.
    pub trans: Symbol,
    /// `Add(x, y)`.
    pub add: Symbol,
    /// `Sub(x, y)`.
    pub sub: Symbol,
    /// `Mul(x, y)`.
    pub mul: Symbol,
    /// `Div(x, y)`.
    pub div: Symbol,
    /// `Relu(x)`.
    pub relu: Symbol,
    /// `Gelu(x)` — the fused single-node GELU.
    pub gelu: Symbol,
    /// `Erf(x)`.
    pub erf: Symbol,
    /// `Exp(x)`.
    pub exp: Symbol,
    /// `Tanh(x)`.
    pub tanh: Symbol,
    /// `Sigmoid(x)`.
    pub sigmoid: Symbol,
    /// `Sqrt(x)`.
    pub sqrt: Symbol,
    /// `Neg(x)`.
    pub neg: Symbol,
    /// `Softmax(x)` — row-wise softmax.
    pub softmax: Symbol,
    /// `LayerNorm(x)`.
    pub layernorm: Symbol,
    /// `Conv2d(x, w)` with a `stride` attribute.
    pub conv2d: Symbol,
    /// `BiasAdd(x, b)`.
    pub bias_add: Symbol,
    /// `MaxPool(x)` with a `stride` attribute.
    pub maxpool: Symbol,
    /// `AvgPool(x)`.
    pub avgpool: Symbol,
    /// `Flatten(x)`.
    pub flatten: Symbol,
    /// `ConstScalar()` — scalar constant with a `value_milli` attribute
    /// (value × 1000, so `0.5` is `500`).
    pub const_scalar: Symbol,
    /// Fused multi-head attention `FMHA(q, k, v)` (§4.1).
    pub fmha: Symbol,
    /// `GemmEpilog(x, y)` — matmul with a fused pointwise epilog chosen by
    /// the `epilog` attribute (an [`OpClass::Fused`] kernel, §4.1).
    pub gemm_epilog: Symbol,
    /// `ConvBiasAct(x, w, b)` — convolution with fused bias and
    /// activation (`epilog` attribute), the conv-side epilog kernel.
    pub conv_bias_act: Symbol,
    /// `cublasMM_xyT_f32(x, y)` (Fig. 1).
    pub cublas_mm_xyt_f32: Symbol,
    /// `cublasMM_xyT_i8(x, y)` (Fig. 1).
    pub cublas_mm_xyt_i8: Symbol,
    /// The `stride` attribute.
    pub stride_attr: pypm_core::Attr,
    /// The `value_milli` attribute of `ConstScalar`.
    pub value_milli_attr: pypm_core::Attr,
    /// The `epilog` attribute of `GemmEpilog` (an activation code).
    pub epilog_attr: pypm_core::Attr,
}

impl StdOps {
    /// Declares the standard operator set into `registry`/`syms`.
    pub fn declare(registry: &mut OpRegistry, syms: &mut SymbolTable) -> StdOps {
        use OpClass as C;
        use ShapeRule as R;
        let mut d = |name: &str, arity, class, rule, flops| {
            registry.declare(syms, name, arity, class, rule, flops)
        };
        StdOps {
            matmul: d("MatMul", 2, C::Contraction, R::MatMul, 2),
            trans: d("Trans", 1, C::Movement, R::Transpose, 0),
            add: d("Add", 2, C::BinaryPointwise, R::Broadcast, 1),
            sub: d("Sub", 2, C::BinaryPointwise, R::Broadcast, 1),
            mul: d("Mul", 2, C::BinaryPointwise, R::Broadcast, 1),
            div: d("Div", 2, C::BinaryPointwise, R::Broadcast, 1),
            relu: d("Relu", 1, C::UnaryPointwise, R::SameAsFirst, 1),
            gelu: d("Gelu", 1, C::UnaryPointwise, R::SameAsFirst, 8),
            erf: d("Erf", 1, C::UnaryPointwise, R::SameAsFirst, 8),
            exp: d("Exp", 1, C::UnaryPointwise, R::SameAsFirst, 4),
            tanh: d("Tanh", 1, C::UnaryPointwise, R::SameAsFirst, 4),
            sigmoid: d("Sigmoid", 1, C::UnaryPointwise, R::SameAsFirst, 4),
            sqrt: d("Sqrt", 1, C::UnaryPointwise, R::SameAsFirst, 2),
            neg: d("Neg", 1, C::UnaryPointwise, R::SameAsFirst, 1),
            softmax: d("Softmax", 1, C::Reduction, R::SoftmaxLike, 5),
            layernorm: d("LayerNorm", 1, C::Reduction, R::SameAsFirst, 6),
            conv2d: d("Conv2d", 2, C::Contraction, R::Conv2d, 18),
            bias_add: d("BiasAdd", 2, C::BinaryPointwise, R::Broadcast, 1),
            maxpool: d("MaxPool", 1, C::Reduction, R::SameAsFirst, 1),
            avgpool: d("AvgPool", 1, C::Reduction, R::SameAsFirst, 1),
            flatten: d("Flatten", 1, C::Movement, R::Flatten, 0),
            const_scalar: d("ConstScalar", 0, C::Nullary, R::Explicit, 0),
            fmha: d("FMHA", 3, C::Fused, R::SameAsFirst, 8),
            gemm_epilog: d("GemmEpilog", 2, C::Fused, R::MatMul, 3),
            conv_bias_act: d("ConvBiasAct", 3, C::Fused, R::Conv2d, 19),
            cublas_mm_xyt_f32: d("cublasMM_xyT_f32", 2, C::Fused, R::MatMulNT, 2),
            cublas_mm_xyt_i8: d("cublasMM_xyT_i8", 2, C::Fused, R::MatMulNT, 2),
            stride_attr: syms.attr("stride"),
            value_milli_attr: syms.attr("value_milli"),
            epilog_attr: syms.attr("epilog"),
        }
    }
}

/// Activation codes for the `epilog` attribute of `GemmEpilog`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No epilog (plain GEMM).
    None,
    /// RELU epilog.
    Relu,
    /// GELU epilog.
    Gelu,
    /// Tanh epilog.
    Tanh,
    /// Sigmoid epilog.
    Sigmoid,
}

impl Activation {
    /// Stable numeric code for the `epilog` attribute.
    pub fn code(self) -> i64 {
        match self {
            Activation::None => 0,
            Activation::Relu => 1,
            Activation::Gelu => 2,
            Activation::Tanh => 3,
            Activation::Sigmoid => 4,
        }
    }

    /// Inverse of [`Activation::code`].
    pub fn from_code(code: i64) -> Option<Activation> {
        Some(match code {
            0 => Activation::None,
            1 => Activation::Relu,
            2 => Activation::Gelu,
            3 => Activation::Tanh,
            4 => Activation::Sigmoid,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::DType;

    fn setup() -> (SymbolTable, OpRegistry, StdOps) {
        let mut syms = SymbolTable::new();
        let mut reg = OpRegistry::new();
        let ops = StdOps::declare(&mut reg, &mut syms);
        (syms, reg, ops)
    }

    #[test]
    fn std_ops_have_classes() {
        let (_syms, reg, ops) = setup();
        assert_eq!(reg.class(ops.relu), OpClass::UnaryPointwise);
        assert_eq!(reg.class(ops.matmul), OpClass::Contraction);
        assert_eq!(reg.class(ops.fmha), OpClass::Fused);
    }

    /// `f32` metadata with extents `dims`, interned in `shapes`.
    fn f32(shapes: &mut ShapeTable, dims: &[i64]) -> TensorMeta {
        TensorMeta {
            dtype: DType::F32,
            shape: shapes.intern(dims),
        }
    }

    #[test]
    fn matmul_shape_inference() {
        let (syms, reg, ops) = setup();
        let mut shapes = ShapeTable::new();
        let a = f32(&mut shapes, &[8, 128, 64]);
        let b = f32(&mut shapes, &[8, 64, 32]);
        let out = reg
            .infer(&syms, ops.matmul, &[a, b], &[], &mut shapes)
            .unwrap();
        assert_eq!(shapes.dims(out.shape), [8, 128, 32]);

        let bad = f32(&mut shapes, &[8, 63, 32]);
        assert!(matches!(
            reg.infer(&syms, ops.matmul, &[a, bad], &[], &mut shapes),
            Err(ShapeError::Incompatible { .. })
        ));
        let nt = reg
            .infer(&syms, ops.cublas_mm_xyt_f32, &[a, a], &[], &mut shapes)
            .unwrap();
        assert_eq!(shapes.dims(nt.shape), [8, 128, 128]);
    }

    #[test]
    fn transpose_shape_inference() {
        let (syms, reg, ops) = setup();
        let mut shapes = ShapeTable::new();
        let a = f32(&mut shapes, &[128, 64]);
        let out = reg.infer(&syms, ops.trans, &[a], &[], &mut shapes).unwrap();
        assert_eq!(shapes.dims(out.shape), [64, 128]);
    }

    #[test]
    fn broadcast_shape_inference() {
        let (syms, reg, ops) = setup();
        let mut shapes = ShapeTable::new();
        let a = f32(&mut shapes, &[4, 1, 3]);
        let b = f32(&mut shapes, &[2, 3]);
        let out = reg
            .infer(&syms, ops.add, &[a, b], &[], &mut shapes)
            .unwrap();
        assert_eq!(shapes.dims(out.shape), [4, 2, 3]);
        let c = f32(&mut shapes, &[2, 4]);
        let err = reg
            .infer(&syms, ops.add, &[a, c], &[], &mut shapes)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "operator Add: incompatible inputs (cannot broadcast [4x1x3] with [2x4])"
        );
    }

    #[test]
    fn conv2d_uses_stride_attr() {
        let (syms, reg, ops) = setup();
        let mut shapes = ShapeTable::new();
        let x = f32(&mut shapes, &[1, 3, 224, 224]);
        let w = f32(&mut shapes, &[64, 3, 7, 7]);
        let out = reg
            .infer(
                &syms,
                ops.conv2d,
                &[x, w],
                &[(ops.stride_attr, 2)],
                &mut shapes,
            )
            .unwrap();
        assert_eq!(shapes.dims(out.shape), [1, 64, 112, 112]);
    }

    #[test]
    fn flatten_collapses_trailing_dims() {
        let (syms, reg, ops) = setup();
        let mut shapes = ShapeTable::new();
        let x = f32(&mut shapes, &[2, 3, 4, 5]);
        let out = reg
            .infer(&syms, ops.flatten, &[x], &[], &mut shapes)
            .unwrap();
        assert_eq!(shapes.dims(out.shape), [2, 60]);
    }

    #[test]
    fn explicit_rule_demands_meta() {
        let (syms, reg, ops) = setup();
        assert!(matches!(
            reg.infer(&syms, ops.const_scalar, &[], &[], &mut ShapeTable::new()),
            Err(ShapeError::NeedsExplicitMeta { .. })
        ));
    }

    #[test]
    fn wrong_input_count_is_reported() {
        let (syms, reg, ops) = setup();
        let mut shapes = ShapeTable::new();
        let a = f32(&mut shapes, &[2, 2]);
        assert!(matches!(
            reg.infer(&syms, ops.matmul, &[a], &[], &mut shapes),
            Err(ShapeError::WrongInputCount { .. })
        ));
    }

    #[test]
    fn activation_codes_roundtrip() {
        for a in [
            Activation::None,
            Activation::Relu,
            Activation::Gelu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            assert_eq!(Activation::from_code(a.code()), Some(a));
        }
        assert_eq!(Activation::from_code(42), None);
    }

    #[test]
    fn unregistered_symbol_is_nullary_class() {
        let (mut syms, reg, _ops) = setup();
        let fresh = syms.fresh_const("in");
        assert_eq!(reg.class(fresh), OpClass::Nullary);
    }
}
