//! Synthetic TorchVision-style CNN models.
//!
//! The paper's second suite is "the TorchVision (TV) benchmark, which
//! tests the performance of inference in a large set of pre-trained
//! computer vision models" (§4.1). This module generates the operator
//! graphs of those model families: convolution stems, stacked
//! conv→bias→activation blocks (the conv-epilog sites), residual
//! connections for the ResNet family, pooling, and dense classifier
//! heads whose matmul→activation tails are GEMM-epilog sites.
//!
//! Crucially for reproducing Fig. 11, these models contain **no
//! multi-head attention**, so the FMHA-only configuration finds nothing
//! to rewrite and its speedups cluster at 1.0×.

use pypm_engine::Session;
use pypm_graph::{DType, Graph, NodeId};

/// Activation used by a model's conv blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockActivation {
    /// Standard RELU blocks.
    Relu,
    /// Sigmoid-gated blocks (squeeze-excite style).
    Sigmoid,
    /// GELU conv blocks (ConvNeXt style).
    Gelu,
}

/// One convolution stage of a model.
#[derive(Debug, Clone, Copy)]
pub struct ConvStage {
    /// Output channels.
    pub channels: i64,
    /// Stride (spatial downsampling).
    pub stride: i64,
    /// Number of conv blocks in the stage.
    pub blocks: usize,
    /// Whether blocks are residual (ResNet-style `x + F(x)`).
    pub residual: bool,
}

/// Configuration of one synthetic CNN.
#[derive(Debug, Clone)]
pub struct VisionConfig {
    /// Model name (mirrors a TorchVision model).
    pub name: &'static str,
    /// Input image resolution (square).
    pub resolution: i64,
    /// Convolution stages.
    pub stages: Vec<ConvStage>,
    /// Widths of the dense classifier layers (e.g. VGG's 4096, scaled
    /// down); each is a matmul→relu epilog site.
    pub classifier: Vec<i64>,
    /// Number of output classes.
    pub classes: i64,
    /// Whether pooling layers are emitted as opaque nodes.
    pub opaque_pooling: bool,
    /// Activation function of the conv blocks.
    pub activation: BlockActivation,
}

impl VisionConfig {
    /// Builds the model graph into a session.
    pub fn build(&self, session: &mut Session) -> Graph {
        let mut g = Graph::new();
        let mut x = g.input(
            &mut session.syms,
            DType::F32,
            [1, 3, self.resolution, self.resolution],
        );
        let mut in_c = 3;
        for stage in &self.stages {
            x = build_stage(session, &mut g, x, in_c, stage, self.activation);
            in_c = stage.channels;
        }
        // Global pool + flatten.
        x = pool(session, &mut g, x, self.opaque_pooling);
        x = op(session, &mut g, session.ops.flatten, &[x]);
        // Dense classifier: matmul → bias? We keep matmul → relu to form
        // GEMM epilog sites (bias is folded for simplicity).
        let mut width = g.shapes().dim(g.node(x).meta.shape, 1).expect("flattened");
        for &next in &self.classifier {
            let w = weight(session, &mut g, &[width, next]);
            let mm = op(session, &mut g, session.ops.matmul, &[x, w]);
            x = op(session, &mut g, session.ops.relu, &[mm]);
            width = next;
        }
        let w = weight(session, &mut g, &[width, self.classes]);
        let logits = op(session, &mut g, session.ops.matmul, &[x, w]);
        g.mark_output(logits);
        g
    }

    /// Number of conv→bias→act epilog sites.
    pub fn expected_conv_epilog_sites(&self) -> usize {
        self.stages.iter().map(|s| s.blocks).sum()
    }

    /// Number of dense matmul→relu epilog sites.
    pub fn expected_gemm_epilog_sites(&self) -> usize {
        self.classifier.len()
    }
}

fn build_stage(
    s: &mut Session,
    g: &mut Graph,
    mut x: NodeId,
    mut in_c: i64,
    stage: &ConvStage,
    activation: BlockActivation,
) -> NodeId {
    let act_op = match activation {
        BlockActivation::Relu => s.ops.relu,
        BlockActivation::Sigmoid => s.ops.sigmoid,
        BlockActivation::Gelu => s.ops.gelu,
    };
    for b in 0..stage.blocks {
        let stride = if b == 0 { stage.stride } else { 1 };
        let shortcut = x;
        let w = weight(s, g, &[stage.channels, in_c, 3, 3]);
        let conv = g
            .op(
                &mut s.syms,
                &s.registry,
                s.ops.conv2d,
                [x, w],
                [(s.ops.stride_attr, stride)],
            )
            .expect("conv");
        let bias = weight(s, g, &[stage.channels, 1, 1]);
        let biased = op(s, g, s.ops.bias_add, &[conv, bias]);
        let act = op(s, g, act_op, &[biased]);
        x = if stage.residual && stride == 1 && in_c == stage.channels {
            op(s, g, s.ops.add, &[shortcut, act])
        } else {
            act
        };
        in_c = stage.channels;
    }
    x
}

fn pool(s: &mut Session, g: &mut Graph, x: NodeId, opaque: bool) -> NodeId {
    if opaque {
        let meta = g.node(x).meta;
        let foreign = s.syms.op("AdaptiveAvgPool2d", 1);
        g.opaque(&mut s.syms, foreign, [x], meta).expect("pool")
    } else {
        op(s, g, s.ops.avgpool, &[x])
    }
}

fn weight(s: &mut Session, g: &mut Graph, dims: &[i64]) -> NodeId {
    g.input(&mut s.syms, DType::F32, dims)
}

fn op(s: &mut Session, g: &mut Graph, sym: pypm_core::Symbol, inputs: &[NodeId]) -> NodeId {
    g.op(&mut s.syms, &s.registry, sym, inputs, vec![])
        .expect("model construction is shape-correct")
}

/// The synthetic TorchVision zoo: ~20 models mirroring the families the
/// paper benchmarks.
pub fn tv_zoo() -> Vec<VisionConfig> {
    fn stage(channels: i64, stride: i64, blocks: usize, residual: bool) -> ConvStage {
        ConvStage {
            channels,
            stride,
            blocks,
            residual,
        }
    }
    let plain = |name, widths: Vec<(i64, usize)>, classifier: Vec<i64>| VisionConfig {
        name,
        resolution: 32,
        stages: widths
            .into_iter()
            .map(|(c, b)| stage(c, 2, b, false))
            .collect(),
        classifier,
        classes: 100,
        opaque_pooling: false,
        activation: BlockActivation::Relu,
    };
    let resnet = |name, widths: Vec<(i64, usize)>| VisionConfig {
        name,
        resolution: 32,
        stages: widths
            .into_iter()
            .map(|(c, b)| stage(c, 2, b, true))
            .collect(),
        classifier: vec![],
        classes: 100,
        opaque_pooling: true,
        activation: BlockActivation::Relu,
    };
    vec![
        plain("alexnet", vec![(16, 1), (32, 1), (64, 3)], vec![256, 256]),
        plain(
            "vgg11",
            vec![(16, 1), (32, 1), (64, 2), (64, 2)],
            vec![256, 256],
        ),
        plain(
            "vgg13",
            vec![(16, 2), (32, 2), (64, 2), (64, 2)],
            vec![256, 256],
        ),
        plain(
            "vgg16",
            vec![(16, 2), (32, 2), (64, 3), (64, 3)],
            vec![256, 256],
        ),
        plain(
            "vgg19",
            vec![(16, 2), (32, 2), (64, 4), (64, 4)],
            vec![256, 256],
        ),
        resnet("resnet18", vec![(16, 2), (32, 2), (64, 2), (64, 2)]),
        resnet("resnet34", vec![(16, 3), (32, 4), (64, 6), (64, 3)]),
        resnet("resnet50", vec![(32, 3), (64, 4), (128, 6), (128, 3)]),
        resnet("wide_resnet50", vec![(48, 3), (96, 4), (192, 6), (192, 3)]),
        resnet("resnext50", vec![(32, 3), (64, 4), (128, 6), (128, 3)]),
        plain("squeezenet1_0", vec![(16, 2), (32, 3), (48, 3)], vec![]),
        plain(
            "mobilenet_v2",
            vec![(8, 2), (16, 3), (32, 4), (64, 3)],
            vec![],
        ),
        plain(
            "mobilenet_v3",
            vec![(8, 2), (16, 3), (32, 5), (64, 3)],
            vec![],
        ),
        plain("shufflenet_v2", vec![(12, 2), (24, 3), (48, 4)], vec![]),
        plain(
            "mnasnet1_0",
            vec![(8, 2), (16, 3), (32, 4), (64, 2)],
            vec![],
        ),
        plain(
            "efficientnet_b0",
            vec![(8, 2), (16, 3), (24, 4), (48, 3)],
            vec![],
        ),
        resnet("densenet121", vec![(16, 4), (32, 6), (64, 8), (64, 4)]),
        plain("googlenet", vec![(16, 2), (32, 4), (64, 4)], vec![256]),
        plain("inception_v3", vec![(16, 3), (32, 5), (64, 5)], vec![256]),
        resnet("regnet_y_400mf", vec![(16, 2), (32, 4), (64, 6), (64, 2)]),
        VisionConfig {
            name: "efficientnet_se",
            resolution: 32,
            stages: vec![
                stage(8, 2, 2, false),
                stage(16, 2, 3, false),
                stage(32, 2, 3, false),
            ],
            classifier: vec![],
            classes: 100,
            opaque_pooling: false,
            activation: BlockActivation::Sigmoid,
        },
        VisionConfig {
            name: "convnext_tiny",
            resolution: 32,
            stages: vec![
                stage(16, 2, 2, true),
                stage(32, 2, 2, true),
                stage(64, 2, 4, true),
            ],
            classifier: vec![256],
            classes: 100,
            opaque_pooling: true,
            activation: BlockActivation::Gelu,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite;
    use pypm_dsl::LibraryConfig;

    #[test]
    fn zoo_builds_and_validates() {
        for cfg in tv_zoo() {
            let mut s = Session::new();
            let g = cfg.build(&mut s);
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert!(g.live_count() > 10, "{} too small", cfg.name);
        }
    }

    #[test]
    fn fmha_finds_nothing_in_cnns() {
        // The crux of Fig. 11: no attention in vision models.
        let cfg = tv_zoo().into_iter().find(|c| c.name == "resnet18").unwrap();
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rs = s.load_library(LibraryConfig::fmha_only());
        let stats = rewrite(&mut s, rs, &mut g);
        assert_eq!(stats.rewrites_fired, 0);
        assert_eq!(stats.matches_found, 0);
        assert!(stats.match_attempts > 0);
    }

    #[test]
    fn conv_epilogs_fuse_everywhere() {
        let cfg = tv_zoo().into_iter().find(|c| c.name == "vgg16").unwrap();
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rs = s.load_library(LibraryConfig::epilog_only());
        let stats = rewrite(&mut s, rs, &mut g);
        let expected = cfg.expected_conv_epilog_sites() + cfg.expected_gemm_epilog_sites();
        assert_eq!(stats.rewrites_fired as usize, expected);
        let fused = g
            .topo_order()
            .iter()
            .filter(|&&n| g.node(n).op == s.ops.conv_bias_act || g.node(n).op == s.ops.gemm_epilog)
            .count();
        assert_eq!(fused, expected);
    }

    #[test]
    fn sigmoid_and_gelu_blocks_fuse_too() {
        for name in ["efficientnet_se", "convnext_tiny"] {
            let cfg = tv_zoo().into_iter().find(|c| c.name == name).unwrap();
            let mut s = Session::new();
            let mut g = cfg.build(&mut s);
            let rs = s.load_library(LibraryConfig::epilog_only());
            let stats = rewrite(&mut s, rs, &mut g);
            assert_eq!(
                stats.rewrites_fired as usize,
                cfg.expected_conv_epilog_sites() + cfg.expected_gemm_epilog_sites(),
                "{name}"
            );
            let fused = g
                .topo_order()
                .iter()
                .filter(|&&n| g.node(n).op == s.ops.conv_bias_act)
                .count();
            assert_eq!(fused, cfg.expected_conv_epilog_sites(), "{name}");
        }
    }

    #[test]
    fn residual_blocks_do_not_block_fusion() {
        let cfg = tv_zoo().into_iter().find(|c| c.name == "resnet18").unwrap();
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rs = s.load_library(LibraryConfig::epilog_only());
        let stats = rewrite(&mut s, rs, &mut g);
        assert_eq!(
            stats.rewrites_fired as usize,
            cfg.expected_conv_epilog_sites()
        );
    }
}
