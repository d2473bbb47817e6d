//! # pypm-perf — the simulated GPU testbed
//!
//! The paper benchmarks inference wall-clock on an NVIDIA RTX A6000
//! (§4.1). We have no GPU, so this crate substitutes an **analytical
//! roofline cost model** (README.md, "Workspace layout", names the
//! substitution): each operator node costs one kernel launch plus the
//! larger of its compute time (FLOPs / throughput) and its memory time
//! (bytes moved / bandwidth), and a graph executes its topological
//! order sequentially.
//!
//! Why this preserves the paper's claims: the evaluation's effects are
//! *structural*. Fusing the five nodes of naive attention into one FMHA
//! kernel saves four kernel launches and the global-memory round-trips
//! of three intermediates; fusing a pointwise epilog into a GEMM saves a
//! launch and one intermediate. A launch + roofline model credits fused
//! kernels for exactly those savings, so relative speedups have the same
//! *shape* (who wins, and roughly by how much) as the hardware numbers,
//! without pretending to reproduce absolute milliseconds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pypm_core::SymbolTable;
use pypm_graph::{Graph, NodeId, NodeKind, OpClass, OpRegistry, StdOps};

/// Device parameters of the simulated GPU (loosely A6000-flavoured, in
/// consistent units: microseconds and bytes).
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel {
    /// Fixed cost of launching one kernel, µs.
    pub launch_overhead_us: f64,
    /// Compute throughput, FLOPs per µs.
    pub flops_per_us: f64,
    /// Memory bandwidth, bytes per µs.
    pub bytes_per_us: f64,
    /// Throughput multiplier for hand-tuned fused kernels (tensor cores
    /// and smarter tiling than the naive lowering).
    pub fused_efficiency: f64,
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel {
            launch_overhead_us: 5.0,
            // A6000-proportioned but scaled to the zoo's reduced tensor
            // sizes, so launch overhead and data movement keep realistic
            // relative weight.
            flops_per_us: 4.0e4,
            bytes_per_us: 1.0e3,
            fused_efficiency: 1.5,
        }
    }
}

/// The cost estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// Device parameters.
    pub device: DeviceModel,
}

impl CostModel {
    /// Creates a cost model with default device parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// FLOPs performed by one node.
    ///
    /// Contractions and fused kernels get exact operation counts; other
    /// operators are `numel × flops_per_elem` from the registry.
    pub fn node_flops(&self, graph: &Graph, registry: &OpRegistry, ops: &StdOps, n: NodeId) -> f64 {
        let node = graph.node(n);
        let shapes = graph.shapes();
        let out_elems = shapes.numel(node.meta.shape).max(0) as f64;
        let op = node.op;
        let in_dims = |i: usize| shapes.dims(graph.node(graph.inputs(n)[i]).meta.shape);
        if op == ops.matmul
            || op == ops.gemm_epilog
            || op == ops.cublas_mm_xyt_f32
            || op == ops.cublas_mm_xyt_i8
        {
            // 2·m·n·k: k is the last dim of the first input.
            let k = in_dims(0).last().copied().unwrap_or(1) as f64;
            2.0 * out_elems * k
        } else if op == ops.fmha {
            // q·kᵀ, softmax, probs·v over [.., s, d]: ≈ 4·s²·d + 5·s².
            let dims = in_dims(0);
            let (s, d) = match dims.len() {
                0 | 1 => (1.0, 1.0),
                r => (dims[r - 2] as f64, dims[r - 1] as f64),
            };
            let batch: f64 = dims[..dims.len().saturating_sub(2)]
                .iter()
                .map(|&x| x as f64)
                .product();
            batch * (4.0 * s * s * d + 5.0 * s * s)
        } else if op == ops.conv2d || op == ops.conv_bias_act {
            // 2·Cin·Kh·Kw per output element.
            let wd = in_dims(1);
            let per_elem = if wd.len() == 4 {
                2.0 * (wd[1] * wd[2] * wd[3]) as f64
            } else {
                2.0
            };
            out_elems * per_elem
        } else {
            let per_elem = registry
                .info(op)
                .map(|i| i.flops_per_elem.max(1))
                .unwrap_or(1) as f64;
            out_elems * per_elem
        }
    }

    /// Bytes moved by one node (all inputs read + output written).
    pub fn node_bytes(&self, graph: &Graph, n: NodeId) -> f64 {
        let bytes = |n: NodeId| graph.shapes().bytes(graph.node(n).meta) as f64;
        let mut total = bytes(n);
        for &i in graph.inputs(n) {
            total += bytes(i);
        }
        total
    }

    /// Simulated execution time of one node, µs.
    pub fn node_cost(
        &self,
        graph: &Graph,
        _syms: &SymbolTable,
        registry: &OpRegistry,
        ops: &StdOps,
        n: NodeId,
    ) -> f64 {
        let node = graph.node(n);
        match node.kind {
            NodeKind::Input => 0.0,
            NodeKind::Opaque => {
                // Opaque kernels still launch and move their data.
                self.device.launch_overhead_us
                    + self.node_bytes(graph, n) / self.device.bytes_per_us
            }
            NodeKind::Op => {
                if graph.inputs(n).is_empty() {
                    // Constants are materialized once; free at inference.
                    return 0.0;
                }
                let is_fused = registry.class(node.op) == OpClass::Fused;
                let throughput = if is_fused {
                    self.device.flops_per_us * self.device.fused_efficiency
                } else {
                    self.device.flops_per_us
                };
                let compute = self.node_flops(graph, registry, ops, n) / throughput;
                let memory = self.node_bytes(graph, n) / self.device.bytes_per_us;
                self.device.launch_overhead_us + compute.max(memory)
            }
        }
    }

    /// Simulated inference time of the whole graph, µs (sequential
    /// execution of the topological order, as on a single CUDA stream).
    pub fn graph_cost(
        &self,
        graph: &Graph,
        syms: &SymbolTable,
        registry: &OpRegistry,
        ops: &StdOps,
    ) -> f64 {
        graph
            .topo_order()
            .into_iter()
            .map(|n| self.node_cost(graph, syms, registry, ops, n))
            .sum()
    }

    /// Simulated cost of executing a partitioned region as one
    /// just-in-time fused kernel (§4.2): one launch, all the FLOPs, but
    /// only frontier inputs and the root output touch global memory.
    pub fn fused_region_cost(
        &self,
        graph: &Graph,
        registry: &OpRegistry,
        ops: &StdOps,
        nodes: &[NodeId],
        frontier: &[NodeId],
        root: NodeId,
    ) -> f64 {
        let flops: f64 = nodes
            .iter()
            .map(|&n| self.node_flops(graph, registry, ops, n))
            .sum();
        let bytes_of = |n: NodeId| graph.shapes().bytes(graph.node(n).meta) as f64;
        let mut bytes = bytes_of(root);
        for &f in frontier {
            bytes += bytes_of(f);
        }
        let compute = flops / (self.device.flops_per_us * self.device.fused_efficiency);
        let memory = bytes / self.device.bytes_per_us;
        self.device.launch_overhead_us + compute.max(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_dsl::{LibraryConfig, RuleSet};
    use pypm_engine::{partition, Pipeline, RewritePass, Session};
    use pypm_graph::{DType, TensorMeta};

    fn sess() -> Session {
        Session::new()
    }

    fn rewrite(s: &mut Session, rs: RuleSet, g: &mut Graph) {
        Pipeline::new(s).with(RewritePass::new(rs)).run(g).unwrap();
    }

    #[test]
    fn inputs_and_constants_are_free() {
        let mut s = sess();
        let mut g = Graph::new();
        let x = g.input(&mut s.syms, DType::F32, [64, 64]);
        let c = g
            .op_with_meta(
                s.ops.const_scalar,
                vec![],
                vec![(s.ops.value_milli_attr, 500)],
                TensorMeta::scalar(DType::F32),
            )
            .unwrap();
        g.mark_output(x);
        g.mark_output(c);
        let cm = CostModel::new();
        assert_eq!(cm.node_cost(&g, &s.syms, &s.registry, &s.ops, x), 0.0);
        assert_eq!(cm.node_cost(&g, &s.syms, &s.registry, &s.ops, c), 0.0);
    }

    #[test]
    fn every_kernel_pays_launch_overhead() {
        let mut s = sess();
        let mut g = Graph::new();
        let x = g.input(&mut s.syms, DType::F32, [4, 4]);
        let r = g
            .op(&mut s.syms, &s.registry, s.ops.relu, vec![x], vec![])
            .unwrap();
        g.mark_output(r);
        let cm = CostModel::new();
        let cost = cm.node_cost(&g, &s.syms, &s.registry, &s.ops, r);
        assert!(cost >= cm.device.launch_overhead_us);
    }

    #[test]
    fn matmul_flops_scale_with_k() {
        let mut s = sess();
        let mut g = Graph::new();
        let a1 = g.input(&mut s.syms, DType::F32, [32, 64]);
        let b1 = g.input(&mut s.syms, DType::F32, [64, 32]);
        let a2 = g.input(&mut s.syms, DType::F32, [32, 256]);
        let b2 = g.input(&mut s.syms, DType::F32, [256, 32]);
        let mm1 = g
            .op(&mut s.syms, &s.registry, s.ops.matmul, vec![a1, b1], vec![])
            .unwrap();
        let mm2 = g
            .op(&mut s.syms, &s.registry, s.ops.matmul, vec![a2, b2], vec![])
            .unwrap();
        g.mark_output(mm1);
        g.mark_output(mm2);
        let cm = CostModel::new();
        let f1 = cm.node_flops(&g, &s.registry, &s.ops, mm1);
        let f2 = cm.node_flops(&g, &s.registry, &s.ops, mm2);
        assert_eq!(f1, 2.0 * 32.0 * 32.0 * 64.0);
        assert_eq!(f2, 4.0 * f1);
    }

    /// The headline property behind Fig. 10: fusing MHA reduces simulated
    /// inference time (fewer launches, fewer intermediate tensors).
    #[test]
    fn fmha_rewrite_reduces_cost() {
        let mut s = sess();
        let cfg = pypm_models::hf_zoo()
            .into_iter()
            .find(|c| c.name == "bert-base")
            .unwrap();
        let mut g = cfg.build(&mut s);
        let cm = CostModel::new();
        let before = cm.graph_cost(&g, &s.syms, &s.registry, &s.ops);
        let rs = s.load_library(LibraryConfig::fmha_only());
        rewrite(&mut s, rs, &mut g);
        let after = cm.graph_cost(&g, &s.syms, &s.registry, &s.ops);
        assert!(
            after < before,
            "fused {after:.1}µs should beat naive {before:.1}µs"
        );
    }

    /// The property behind Fig. 11: epilog fusion helps CNNs.
    #[test]
    fn epilog_rewrite_reduces_cost_on_cnn() {
        let mut s = sess();
        let cfg = pypm_models::tv_zoo()
            .into_iter()
            .find(|c| c.name == "vgg16")
            .unwrap();
        let mut g = cfg.build(&mut s);
        let cm = CostModel::new();
        let before = cm.graph_cost(&g, &s.syms, &s.registry, &s.ops);
        let rs = s.load_library(LibraryConfig::epilog_only());
        rewrite(&mut s, rs, &mut g);
        let after = cm.graph_cost(&g, &s.syms, &s.registry, &s.ops);
        assert!(after < before);
    }

    #[test]
    fn opaque_nodes_pay_launch_and_bandwidth() {
        let mut s = sess();
        let mut g = Graph::new();
        let x = g.input(&mut s.syms, DType::F32, [64, 64]);
        let foreign = s.syms.op("Foreign", 1);
        let meta = g.node(x).meta;
        let o = g.opaque(&mut s.syms, foreign, vec![x], meta).unwrap();
        g.mark_output(o);
        let cm = CostModel::new();
        let cost = cm.node_cost(&g, &s.syms, &s.registry, &s.ops, o);
        let expected = cm.device.launch_overhead_us + cm.node_bytes(&g, o) / cm.device.bytes_per_us;
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn fmha_flops_match_formula() {
        let mut s = sess();
        let mut g = Graph::new();
        let dims = vec![2i64, 16, 8]; // batch 2, s=16, d=8
        let q = g.input(&mut s.syms, DType::F32, &dims);
        let k = g.input(&mut s.syms, DType::F32, &dims);
        let v = g.input(&mut s.syms, DType::F32, &dims);
        let meta = g.node(q).meta;
        let fmha = g
            .op_with_meta(s.ops.fmha, vec![q, k, v], vec![], meta)
            .unwrap();
        g.mark_output(fmha);
        let cm = CostModel::new();
        let flops = cm.node_flops(&g, &s.registry, &s.ops, fmha);
        let (b, sq, d) = (2.0, 16.0, 8.0);
        assert_eq!(flops, b * (4.0 * sq * sq * d + 5.0 * sq * sq));
    }

    #[test]
    fn custom_device_scales_costs() {
        let mut s = sess();
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, DType::F32, [64, 64]);
        let r = g
            .op(&mut s.syms, &s.registry, s.ops.relu, vec![a], vec![])
            .unwrap();
        g.mark_output(r);
        let slow = CostModel {
            device: DeviceModel {
                launch_overhead_us: 50.0,
                ..Default::default()
            },
        };
        let fast = CostModel::new();
        let cs = slow.node_cost(&g, &s.syms, &s.registry, &s.ops, r);
        let cf = fast.node_cost(&g, &s.syms, &s.registry, &s.ops, r);
        assert!(cs > cf + 40.0);
    }

    #[test]
    fn jit_fused_partition_beats_per_node_execution() {
        // §4.2: a matmul+pointwise-chain region executed as one fused
        // kernel is cheaper than its nodes run one by one.
        let mut s = sess();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, DType::F32, [64, 64]);
        let b = g.input(&mut s.syms, DType::F32, [64, 64]);
        let mm = g
            .op(&mut s.syms, &s.registry, s.ops.matmul, vec![a, b], vec![])
            .unwrap();
        let r = g
            .op(&mut s.syms, &s.registry, s.ops.relu, vec![mm], vec![])
            .unwrap();
        let e = g
            .op(&mut s.syms, &s.registry, s.ops.exp, vec![r], vec![])
            .unwrap();
        g.mark_output(e);

        let parts = partition(&mut s, &rs, &g, "MatMulEpilog");
        assert_eq!(parts.len(), 1);
        let p = &parts[0];
        let cm = CostModel::new();
        let per_node: f64 = p
            .nodes
            .iter()
            .map(|&n| cm.node_cost(&g, &s.syms, &s.registry, &s.ops, n))
            .sum();
        let fused = cm.fused_region_cost(&g, &s.registry, &s.ops, &p.nodes, &p.frontier, p.root);
        assert!(fused < per_node, "fused {fused:.1} vs {per_node:.1}");
    }
}
