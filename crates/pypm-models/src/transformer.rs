//! Synthetic HuggingFace-style transformer models.
//!
//! The paper's first benchmark suite is "Huggingface's transformers
//! benchmark …, which tests the performance of inference in a wide range
//! of pre-trained transformer models" (§4.1). We cannot ship pre-trained
//! models, but the rewrite pass only ever sees *operator graphs*, so this
//! module generates the graphs those models lower to: stacked encoder
//! blocks of naive multi-head attention (three matmuls, a transpose, a
//! scale and a row-wise softmax — exactly the subgraph the `MHA` pattern
//! targets) and GELU MLPs, with the GELU expanded the way HF models
//! express it — `Div(x, 2)` in some model families and `Mul(x, 0.5)` in
//! others (§2.1).
//!
//! Hidden sizes are scaled down from production values so the whole zoo
//! compiles in seconds; the *structure* (operator mix, pattern-match
//! sites per layer) is what the experiments exercise.

use pypm_engine::Session;
use pypm_graph::{DType, Graph, NodeId, TensorMeta};

/// How a model family writes `x/2` inside GELU (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeluVariant {
    /// `Div(x, 2)`.
    DivTwo,
    /// `Mul(x, 0.5)`.
    MulHalf,
}

/// How the attention scores are scaled before the softmax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleVariant {
    /// `Mul(scores, 1/√d)`.
    Mul,
    /// `Div(scores, √d)`.
    Div,
    /// No explicit scale node (folded into the weights).
    None,
}

/// Configuration of one synthetic transformer.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Model name (mirrors an HF checkpoint name).
    pub name: &'static str,
    /// Encoder layers.
    pub layers: usize,
    /// Hidden width.
    pub hidden: i64,
    /// Sequence length.
    pub seq: i64,
    /// Batch size.
    pub batch: i64,
    /// MLP expansion factor (intermediate = factor × hidden).
    pub mlp_factor: i64,
    /// GELU spelling.
    pub gelu: GeluVariant,
    /// Attention-scale spelling.
    pub scale: ScaleVariant,
    /// Whether the model wraps layer norms in opaque nodes (exercising
    /// §4.1's "unfamiliar operators are represented as opaque nodes").
    pub opaque_layernorm: bool,
}

impl TransformerConfig {
    /// Builds the model graph into a session.
    pub fn build(&self, session: &mut Session) -> Graph {
        let mut g = Graph::new();
        let dtype = DType::F32;
        let h = self.hidden;
        let x0 = g.input(&mut session.syms, dtype, [self.batch, self.seq, h]);
        let mut x = x0;
        for _ in 0..self.layers {
            x = self.attention_block(session, &mut g, x);
            x = self.mlp_block(session, &mut g, x);
        }
        // Pooler head: matmul + tanh, a small extra epilog site.
        let wp = weight(session, &mut g, &[h, h]);
        let pooled = op(session, &mut g, session.ops.matmul, &[x, wp]);
        let out = op(session, &mut g, session.ops.tanh, &[pooled]);
        g.mark_output(out);
        g
    }

    fn attention_block(&self, s: &mut Session, g: &mut Graph, x: NodeId) -> NodeId {
        let h = self.hidden;
        let wq = weight(s, g, &[h, h]);
        let wk = weight(s, g, &[h, h]);
        let wv = weight(s, g, &[h, h]);
        let wo = weight(s, g, &[h, h]);
        let q = op(s, g, s.ops.matmul, &[x, wq]);
        let k = op(s, g, s.ops.matmul, &[x, wk]);
        let v = op(s, g, s.ops.matmul, &[x, wv]);
        let kt = op(s, g, s.ops.trans, &[k]);
        let scores = op(s, g, s.ops.matmul, &[q, kt]);
        let scaled = match self.scale {
            ScaleVariant::Mul => {
                // 1/√h ≈ 125 milli for h = 64; the exact value is
                // irrelevant to matching (the pattern only requires a
                // scalar).
                let c = const_scalar(s, g, 1_000_000 / (1000 * isqrt(h)));
                op(s, g, s.ops.mul, &[scores, c])
            }
            ScaleVariant::Div => {
                let c = const_scalar(s, g, isqrt(h) * 1000);
                op(s, g, s.ops.div, &[scores, c])
            }
            ScaleVariant::None => scores,
        };
        let probs = op(s, g, s.ops.softmax, &[scaled]);
        let ctx = op(s, g, s.ops.matmul, &[probs, v]);
        let proj = op(s, g, s.ops.matmul, &[ctx, wo]);
        let residual = op(s, g, s.ops.add, &[x, proj]);
        self.layernorm(s, g, residual)
    }

    fn mlp_block(&self, s: &mut Session, g: &mut Graph, x: NodeId) -> NodeId {
        let h = self.hidden;
        let inter = h * self.mlp_factor;
        let w1 = weight(s, g, &[h, inter]);
        let w2 = weight(s, g, &[inter, h]);
        let up = op(s, g, s.ops.matmul, &[x, w1]);
        let act = self.expanded_gelu(s, g, up);
        let down = op(s, g, s.ops.matmul, &[act, w2]);
        let residual = op(s, g, s.ops.add, &[x, down]);
        self.layernorm(s, g, residual)
    }

    /// The expanded GELU subgraph of Fig. 2:
    /// `Mul(Half(x), Add(1, Erf(Div(x, √2))))`.
    fn expanded_gelu(&self, s: &mut Session, g: &mut Graph, x: NodeId) -> NodeId {
        let half = match self.gelu {
            GeluVariant::DivTwo => {
                let two = const_scalar(s, g, 2000);
                op(s, g, s.ops.div, &[x, two])
            }
            GeluVariant::MulHalf => {
                let half_c = const_scalar(s, g, 500);
                op(s, g, s.ops.mul, &[x, half_c])
            }
        };
        let sqrt2 = const_scalar(s, g, 1414);
        let xdiv = op(s, g, s.ops.div, &[x, sqrt2]);
        let erfx = op(s, g, s.ops.erf, &[xdiv]);
        let one = const_scalar(s, g, 1000);
        let onep = op(s, g, s.ops.add, &[one, erfx]);
        op(s, g, s.ops.mul, &[half, onep])
    }

    fn layernorm(&self, s: &mut Session, g: &mut Graph, x: NodeId) -> NodeId {
        if self.opaque_layernorm {
            let meta = g.node(x).meta;
            let foreign = s.syms.op("FusedLayerNormApex", 1);
            g.opaque(&mut s.syms, foreign, [x], meta)
                .expect("opaque layernorm")
        } else {
            op(s, g, s.ops.layernorm, &[x])
        }
    }

    /// Number of MHA subgraphs in the model (one per layer).
    pub fn expected_mha_sites(&self) -> usize {
        self.layers
    }
}

fn weight(s: &mut Session, g: &mut Graph, dims: &[i64]) -> NodeId {
    g.input(&mut s.syms, DType::F32, dims)
}

fn const_scalar(s: &mut Session, g: &mut Graph, milli: i64) -> NodeId {
    g.op_with_meta(
        s.ops.const_scalar,
        [],
        [(s.ops.value_milli_attr, milli)],
        TensorMeta::scalar(DType::F32),
    )
    .expect("const scalar")
}

fn op(s: &mut Session, g: &mut Graph, sym: pypm_core::Symbol, inputs: &[NodeId]) -> NodeId {
    g.op(&mut s.syms, &s.registry, sym, inputs, vec![])
        .expect("model construction is shape-correct")
}

fn isqrt(v: i64) -> i64 {
    (v as f64).sqrt().round() as i64
}

/// The synthetic HuggingFace zoo: ~30 models mirroring the families the
/// paper benchmarks, with realistic spelling diversity (GELU and scale
/// variants differ per family) and scaled-down widths.
pub fn hf_zoo() -> Vec<TransformerConfig> {
    use GeluVariant::*;
    use ScaleVariant::*;
    let m = |name, layers, hidden, seq, gelu, scale, opaque| TransformerConfig {
        name,
        layers,
        hidden,
        seq,
        batch: 1,
        mlp_factor: 4,
        gelu,
        scale,
        opaque_layernorm: opaque,
    };
    vec![
        m("bert-tiny", 2, 32, 64, DivTwo, Div, false),
        m("bert-mini", 4, 48, 64, DivTwo, Div, false),
        m("bert-small", 4, 64, 96, DivTwo, Div, false),
        m("bert-base", 6, 96, 128, DivTwo, Div, false),
        m("bert-large", 8, 128, 128, DivTwo, Div, false),
        m("distilbert-base", 3, 96, 128, DivTwo, Div, false),
        m("roberta-base", 6, 96, 128, MulHalf, Div, false),
        m("roberta-large", 8, 128, 128, MulHalf, Div, false),
        m("xlm-roberta-base", 6, 96, 96, MulHalf, Div, false),
        m("camembert-base", 6, 96, 96, MulHalf, Div, false),
        m("albert-base-v2", 4, 96, 128, DivTwo, Div, true),
        m("electra-small", 4, 64, 96, DivTwo, Div, false),
        m("electra-base", 6, 96, 128, DivTwo, Div, false),
        m("gpt2", 6, 96, 128, MulHalf, Mul, false),
        m("gpt2-medium", 8, 128, 128, MulHalf, Mul, false),
        m("gpt2-large", 10, 160, 128, MulHalf, Mul, false),
        m("gpt-neo-125m", 6, 96, 128, MulHalf, Mul, false),
        m("opt-125m", 6, 96, 128, MulHalf, Mul, true),
        m("bloom-350m", 6, 112, 96, MulHalf, Mul, false),
        m("t5-small-encoder", 3, 64, 96, DivTwo, None, false),
        m("t5-base-encoder", 6, 96, 128, DivTwo, None, false),
        m("bart-base-encoder", 4, 96, 128, DivTwo, Div, false),
        m("pegasus-encoder", 6, 96, 96, DivTwo, Div, false),
        m("deberta-base", 6, 96, 128, DivTwo, Div, true),
        m("mpnet-base", 6, 96, 96, DivTwo, Div, false),
        m("longformer-mini", 4, 64, 192, DivTwo, Div, false),
        m("xlnet-base", 6, 96, 128, DivTwo, Mul, false),
        m("squeezebert", 4, 64, 96, DivTwo, Div, false),
        m("mobilebert", 4, 48, 96, MulHalf, Div, false),
        m("minilm-l6", 3, 64, 96, DivTwo, Div, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite;
    use pypm_dsl::LibraryConfig;

    #[test]
    fn zoo_builds_and_validates() {
        for cfg in hf_zoo() {
            let mut s = Session::new();
            let g = cfg.build(&mut s);
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert!(!g.outputs().is_empty());
            assert!(g.live_count() > 10, "{} too small", cfg.name);
        }
    }

    #[test]
    fn fmha_fuses_once_per_layer() {
        let cfg = hf_zoo()
            .into_iter()
            .find(|c| c.name == "bert-small")
            .unwrap();
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rs = s.load_library(LibraryConfig::fmha_only());
        let stats = rewrite(&mut s, rs, &mut g);
        assert_eq!(stats.rewrites_fired as usize, cfg.expected_mha_sites());
        // Each layer now contains exactly one FMHA node.
        let fmha_count = g
            .topo_order()
            .iter()
            .filter(|&&n| g.node(n).op == s.ops.fmha)
            .count();
        assert_eq!(fmha_count, cfg.layers);
    }

    #[test]
    fn epilog_pass_fuses_gelu_sites() {
        // Every layer: GELU subgraph → Gelu node → GemmEpilog fusion,
        // so at least 2 rewrites per layer fire.
        let cfg = hf_zoo().into_iter().find(|c| c.name == "gpt2").unwrap();
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let before = g.live_count();
        let rs = s.load_library(LibraryConfig::epilog_only());
        let stats = rewrite(&mut s, rs, &mut g);
        assert!(
            stats.rewrites_fired as usize >= 2 * cfg.layers,
            "only {} rewrites for {} layers",
            stats.rewrites_fired,
            cfg.layers
        );
        assert!(g.live_count() < before);
        let ge_count = g
            .topo_order()
            .iter()
            .filter(|&&n| g.node(n).op == s.ops.gemm_epilog)
            .count();
        assert!(ge_count >= cfg.layers);
    }

    #[test]
    fn scale_variants_all_match_mha() {
        for scale in [ScaleVariant::Mul, ScaleVariant::Div, ScaleVariant::None] {
            let cfg = TransformerConfig {
                name: "probe",
                layers: 1,
                hidden: 32,
                seq: 16,
                batch: 1,
                mlp_factor: 2,
                gelu: GeluVariant::DivTwo,
                scale,
                opaque_layernorm: false,
            };
            let mut s = Session::new();
            let mut g = cfg.build(&mut s);
            let rs = s.load_library(LibraryConfig::fmha_only());
            let stats = rewrite(&mut s, rs, &mut g);
            assert_eq!(stats.rewrites_fired, 1, "scale variant {scale:?}");
        }
    }

    #[test]
    fn opaque_layernorm_does_not_break_matching() {
        let cfg = hf_zoo().into_iter().find(|c| c.name == "opt-125m").unwrap();
        assert!(cfg.opaque_layernorm);
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rs = s.load_library(LibraryConfig::both());
        let stats = rewrite(&mut s, rs, &mut g);
        assert!(stats.rewrites_fired as usize >= cfg.layers);
    }
}
