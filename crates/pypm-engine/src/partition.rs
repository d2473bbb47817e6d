//! Directed graph partitioning (paper §4.2).
//!
//! > "By using PyPM patterns, DLCB can partition a computation graph into
//! > subgraphs that we know can be optimized, and then recursively
//! > compile them."
//!
//! [`partition`] finds all matches of a pattern (typically Fig. 14's
//! `MatMulEpilog`), then greedily claims non-overlapping matched regions,
//! preferring larger matches. Each [`Partition`] records the region's
//! root, its member nodes (the machine's structural coverage, each term
//! resolved to the node below the root that views as it), and its
//! dataflow frontier — the external inputs a "just in time"-compiled
//! fused kernel for the region would take.
//!
//! Partitioning reads the graph and rewrites nothing, so it is a plain
//! function over a [`Session`], not a step of a [`crate::Pipeline`].

use crate::rewriter::find_matches_in;
use crate::session::Session;
use pypm_core::IdSet;
use pypm_dsl::RuleSet;
use pypm_graph::{Graph, NodeId, TermView};

/// One claimed subgraph region.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The root node of the matched region (produces the region's
    /// output).
    pub root: NodeId,
    /// Member nodes, root included.
    pub nodes: Vec<NodeId>,
    /// External inputs read by the region (deduplicated, in first-use
    /// order): the argument list of the fused kernel.
    pub frontier: Vec<NodeId>,
}

impl Partition {
    /// Number of operator nodes fused into this region.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }
}

/// Partitions `graph` by the named pattern of `rules` (directed
/// partitioning, §4.2), greedily claiming non-overlapping regions from
/// largest to smallest (ties broken toward nodes closer to the
/// outputs). The graph is only read; a pattern `rules` does not define
/// yields no partitions.
///
/// ```
/// use pypm_dsl::LibraryConfig;
/// use pypm_engine::{partition, Session};
/// use pypm_graph::{DType, Graph};
///
/// let mut s = Session::new();
/// let mut g = Graph::new();
/// let a = g.input(&mut s.syms, DType::F32, [8, 8]);
/// let b = g.input(&mut s.syms, DType::F32, [8, 8]);
/// let matmul = s.ops.matmul;
/// let mm = g.op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![]).unwrap();
/// g.mark_output(mm);
///
/// let rules = s.load_library(LibraryConfig::all());
/// let parts = partition(&mut s, &rules, &g, "MatMulEpilog");
/// assert_eq!(parts.len(), 1);
/// assert_eq!(parts[0].root, mm);
/// ```
pub fn partition(
    session: &mut Session,
    rules: &RuleSet,
    graph: &Graph,
    pattern_name: &str,
) -> Vec<Partition> {
    // One view both matches and resolves the members.
    let mut view = TermView::build(
        graph,
        &mut session.syms,
        &mut session.terms,
        &session.registry,
    );
    let mut reports = find_matches_in(session, rules, graph, &view, pattern_name);
    // Largest regions first; among equals prefer later topo position
    // (closer to outputs) so chains are claimed from their heads.
    reports.sort_by(|a, b| {
        b.coverage
            .len()
            .cmp(&a.coverage.len())
            .then(b.node.cmp(&a.node))
    });

    let mut claimed: IdSet<NodeId> = IdSet::default();
    let mut out = Vec::new();
    for report in reports {
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut ok = true;
        for &t in &report.coverage {
            // The member is the node the match covered: below the
            // region's root, not a twin elsewhere in the graph.
            match view.node_below(graph, report.node, t) {
                Some(n) => {
                    if claimed.contains(&n) {
                        ok = false;
                        break;
                    }
                    if !nodes.contains(&n) {
                        nodes.push(n);
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || nodes.is_empty() {
            continue;
        }
        claimed.extend(nodes.iter().copied());
        let member: IdSet<NodeId> = nodes.iter().copied().collect();
        let mut frontier = Vec::new();
        for &n in &nodes {
            for &input in graph.inputs(n) {
                if !member.contains(&input) && !frontier.contains(&input) {
                    frontier.push(input);
                }
            }
        }
        out.push(Partition {
            root: report.node,
            nodes,
            frontier,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_dsl::LibraryConfig;
    use pypm_graph::DType;

    fn mat(s: &mut Session, g: &mut Graph, dims: &[i64]) -> NodeId {
        g.input(&mut s.syms, DType::F32, dims)
    }

    /// matmul → relu → gelu chain: one partition covering all three ops.
    #[test]
    fn epilog_chain_is_one_partition() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[8, 8]);
        let b = mat(&mut s, &mut g, &[8, 8]);
        let (matmul, relu, gelu) = (s.ops.matmul, s.ops.relu, s.ops.gelu);
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let r = g
            .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
            .unwrap();
        let ge = g
            .op(&mut s.syms, &s.registry, gelu, vec![r], vec![])
            .unwrap();
        g.mark_output(ge);

        let parts = partition(&mut s, &rs, &g, "MatMulEpilog");
        assert_eq!(parts.len(), 1);
        let p = &parts[0];
        assert_eq!(p.root, ge);
        assert_eq!(p.size(), 3);
        assert!(p.nodes.contains(&mm) && p.nodes.contains(&r) && p.nodes.contains(&ge));
        // Frontier: the two matrix inputs.
        assert_eq!(p.frontier.len(), 2);
        assert!(p.frontier.contains(&a) && p.frontier.contains(&b));
    }

    /// Two independent matmul+epilog chains: two disjoint partitions.
    #[test]
    fn independent_chains_get_separate_partitions() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let (matmul, relu, add) = (s.ops.matmul, s.ops.relu, s.ops.add);
        let a = mat(&mut s, &mut g, &[8, 8]);
        let b = mat(&mut s, &mut g, &[8, 8]);
        let c = mat(&mut s, &mut g, &[8, 8]);
        let d = mat(&mut s, &mut g, &[8, 8]);
        let mm1 = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let r1 = g
            .op(&mut s.syms, &s.registry, relu, vec![mm1], vec![])
            .unwrap();
        let mm2 = g
            .op(&mut s.syms, &s.registry, matmul, vec![c, d], vec![])
            .unwrap();
        let r2 = g
            .op(&mut s.syms, &s.registry, relu, vec![mm2], vec![])
            .unwrap();
        let sum = g
            .op(&mut s.syms, &s.registry, add, vec![r1, r2], vec![])
            .unwrap();
        g.mark_output(sum);

        let parts = partition(&mut s, &rs, &g, "MatMulEpilog");
        assert_eq!(parts.len(), 2);
        // Each region covers its matmul and its relu (4 nodes total,
        // disjoint).
        let all: IdSet<NodeId> = parts.iter().flat_map(|p| p.nodes.clone()).collect();
        assert_eq!(all.len(), 4, "partitions must not overlap");
        assert!(!all.contains(&sum), "Add is not part of any epilog region");
    }

    /// `Relu(MatMul(a, b))` built twice, both outputs: the two chains
    /// view as one term, and each is its own region, rooted at its own
    /// relu and holding its own matmul.
    #[test]
    fn twin_chains_get_a_partition_each() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[8, 8]);
        let b = mat(&mut s, &mut g, &[8, 8]);
        let (matmul, relu) = (s.ops.matmul, s.ops.relu);
        let mut chain = |g: &mut Graph| {
            let mm = g
                .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
                .unwrap();
            let r = g
                .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
                .unwrap();
            g.mark_output(r);
            (mm, r)
        };
        let ((mm1, r1), (mm2, r2)) = (chain(&mut g), chain(&mut g));

        let parts = partition(&mut s, &rs, &g, "MatMulEpilog");
        let regions: Vec<(NodeId, Vec<NodeId>)> =
            parts.iter().map(|p| (p.root, p.nodes.clone())).collect();
        assert_eq!(regions, [(r2, vec![r2, mm2]), (r1, vec![r1, mm1])]);
        for p in &parts {
            assert!(p.nodes.contains(&p.root), "{p:?}");
        }
    }

    /// A bare matmul (chain length 0) still forms a partition of size 1.
    #[test]
    fn bare_matmul_is_minimal_partition() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[8, 8]);
        let b = mat(&mut s, &mut g, &[8, 8]);
        let matmul = s.ops.matmul;
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        g.mark_output(mm);

        let parts = partition(&mut s, &rs, &g, "MatMulEpilog");
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].size(), 1);
        assert_eq!(parts[0].root, mm);
    }

    /// Unknown pattern name yields no partitions.
    #[test]
    fn unknown_pattern_yields_nothing() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[2, 2]);
        g.mark_output(a);
        assert!(partition(&mut s, &rs, &g, "NoSuchPattern").is_empty());
    }
}
